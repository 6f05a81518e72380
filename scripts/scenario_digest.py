#!/usr/bin/env python3
"""Digest every scenario command's outputs, to compare two trees byte for byte.

    python scripts/scenario_digest.py [SCENARIO.json ...]

With no argument it takes every scenarios/*.json.  Each scenario runs the
four commands spectrum, verify, bounds and convergence through
`spinspec.cli.run`, each into a fresh temporary directory, and prints one
line per command: the scenario, the command, the exit code, the SHA-256 of
each output file by its path relative to the output directory, and the
SHA-256 of stdout and stderr with the temporary path taken out.  Two trees
that print the same lines wrote the same files, exit codes and messages.
"""

import contextlib
import glob
import hashlib
import io
import os
import sys
import tempfile

from spinspec.cli import run

COMMANDS = ("spectrum", "verify", "bounds", "convergence")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(scenario: str, command: str) -> str:
    """The digest line of one command on one scenario."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = run([command, "--config", scenario, "--out", out])
        files = []
        for path in sorted(glob.glob(os.path.join(out, "**"), recursive=True)):
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    files.append(f"{os.path.relpath(path, out)}={sha(fh.read())}")
        streams = [f"{name}={sha(text.getvalue().replace(tmp, '<tmp>').encode())}"
                   for name, text in (("stdout", stdout), ("stderr", stderr))]
    name = os.path.splitext(os.path.basename(scenario))[0]
    return " ".join([name, command, f"exit={code}"] + files + streams)


def main(argv: list[str]) -> int:
    scenarios = argv or sorted(glob.glob(os.path.join(ROOT, "scenarios",
                                                      "*.json")))
    for scenario in scenarios:
        for command in COMMANDS:
            print(digest(scenario, command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
