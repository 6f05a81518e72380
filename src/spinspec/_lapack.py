"""The LAPACK routines spinspec calls, resolved once, called through ctypes.

numpy (>= 2) wheels bundle an ILP64 OpenBLAS, numpy.libs/
libscipy_openblas64_*.so (numpy/.dylibs on macOS), that exports every
LAPACK routine as scipy_<name>_64_ with 64-bit integers.  numpy has loaded
it already, so opening it again costs nothing and spinspec needs no scipy
at run time.  Where that library or one of the routines is missing, as in
numpy builds on Accelerate or from conda, the whole table comes from
scipy's cython_lapack capsules instead, with 32-bit integers.  Either way
there is one table and one integer width, chosen at import.

The wrappers do with their arguments what scipy 1.17's scipy.linalg does on
the paths spinspec takes (tests/test_lapack.py holds scipy as the oracle):

* `eigvalsh_tridiagonal` : sterf for every eigenvalue; stebz for those in
  a value range,
* `eigh_tridiagonal`     : stebz + stein for the vectors in a value range,
* `SturmCounts`          : dlaebz's Sturm counts (IJOB=1) with stebz's
  splitting and pivmin, and the intervals of stebz's bisection they pick
  (scipy.linalg wraps neither),
* `hessenberg_reflectors`, `hessenberg_q` : zgehrd, then zunghr, which is
  scipy.linalg.hessenberg with calc_q=True (no balancing) in two steps,
* `solve_tridiagonal`    : solve_banded's gtsv branch, l = u = 1,
* `null_space`           : numpy's SVD with scipy's rcond rule,
* `bidiagonal_singular_values` : dlasq1 (dqds), which scipy.linalg does
  not wrap.

Every LAPACK argument is passed by reference; the trailing INFO of each
call is returned.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

Array = np.ndarray

# routine -> its number of arguments, INFO included
_ARITY = {"dsterf": 4, "dlasq1": 5, "dstebz": 18, "dstein": 13,
          "dlaebz": 20, "zgehrd": 9, "zunghr": 9, "dgtsv": 8, "zgtsv": 8}


def _bundled_openblas() -> tuple[dict, type] | None:
    """Addresses of the routines in numpy's bundled ILP64 OpenBLAS, or None
    when that library or one of the routines is missing."""
    root = os.path.dirname(np.__file__)
    paths = sorted(glob.glob(os.path.join(os.path.dirname(root), "numpy.libs",
                                          "libscipy_openblas64_*"))
                   + glob.glob(os.path.join(root, ".dylibs",
                                            "libscipy_openblas64_*")))
    if not paths:
        return None
    try:
        lib = ctypes.CDLL(paths[0])
        return {name: ctypes.cast(getattr(lib, f"scipy_{name}_64_"),
                                  ctypes.c_void_p).value
                for name in _ARITY}, ctypes.c_int64
    except (OSError, AttributeError):
        return None


def _scipy_capsules() -> tuple[dict, type]:
    """Addresses of the routines in scipy's Cython LAPACK table (LP64)."""
    try:
        from scipy.linalg import cython_lapack
    except ImportError as exc:
        raise ImportError("spinspec needs LAPACK: numpy's bundled OpenBLAS "
                          "was not found, and scipy is not installed") from exc
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsules = cython_lapack.__pyx_capi__
    return {name: get_pointer(capsules[name], get_name(capsules[name]))
            for name in _ARITY}, ctypes.c_int


_ADDRESSES, _INT = _bundled_openblas() or _scipy_capsules()
SOURCE = "numpy-openblas64" if _INT is ctypes.c_int64 else "scipy-cython-lapack"
_INT_DTYPE = np.dtype(np.int64 if _INT is ctypes.c_int64 else np.int32)
_ROUTINES = {name: ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n)(
    _ADDRESSES[name]) for name, n in _ARITY.items()}


def _arg(a):
    """One LAPACK argument by reference: an array's data, an integer, a
    double, a one-letter option, or a reference made already."""
    if isinstance(a, np.ndarray):
        if not (a.flags.c_contiguous or a.flags.f_contiguous):
            raise ValueError("LAPACK arrays must be contiguous")
        return a.ctypes.data
    if isinstance(a, str):
        return ctypes.c_char_p(a.encode())
    if isinstance(a, float):
        return ctypes.byref(ctypes.c_double(a))
    if isinstance(a, int):
        return ctypes.byref(_INT(a))
    return a


def _call(name: str, *args) -> int:
    """Call the routine with every argument but INFO; returns INFO."""
    info = _INT(0)
    _ROUTINES[name](*map(_arg, args), ctypes.byref(info))
    return info.value


def _check_info(info: int, driver: str) -> None:
    """scipy.linalg's reading of INFO: < 0 a bad argument, > 0 a failure."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal "
                         f"{driver}")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{driver} did not converge (LAPACK info={info})")


def _finite(*arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _stebz(d: Array, e: Array, select_range, order: str
           ) -> tuple[Array, Array, Array]:
    """dstebz on the value range (vl, vu]: the eigenvalues, then their
    blocks and the block ends for stein."""
    n = len(d)
    vl, vu = (float(v) for v in select_range)
    w = np.empty(n)
    iblock = np.empty(n, _INT_DTYPE)
    isplit = np.empty(n, _INT_DTYPE)
    m, nsplit = _INT(0), _INT(0)
    info = _call("dstebz", "V", order, n, vl, vu, 1, 1, 0.0,
                 d, e, ctypes.byref(m), ctypes.byref(nsplit), w, iblock,
                 isplit, np.empty(4 * n), np.empty(3 * n, _INT_DTYPE))
    _check_info(info, "stebz (eigh_tridiagonal)")
    return w[:m.value], iblock, isplit


def _tridiagonal(d, e) -> tuple[Array, Array]:
    d = np.ascontiguousarray(d, dtype=float)
    e = np.ascontiguousarray(e, dtype=float)
    _finite(d, e)
    if len(d) < 2 or len(e) != len(d) - 1:
        raise ValueError("need n >= 2 diagonal and n - 1 off-diagonal entries")
    return d, e


def eigvalsh_tridiagonal(d, e, select: str = "a",
                         select_range=None) -> Array:
    """Eigenvalues of the real symmetric tridiagonal (d, e), ascending:
    every one by dsterf ('a'), or by dstebz those in the value range
    (vl, vu] ('v')."""
    d, e = _tridiagonal(d, e)
    if select != "a":
        return _stebz(d, e, select_range, "E")[0]
    w, work = d.copy(), e.copy()
    _check_info(_call("dsterf", len(d), w, work), "sterf (eigh_tridiagonal)")
    return w


def eigh_tridiagonal(d, e, select_range) -> tuple[Array, Array]:
    """Eigenvalues of the tridiagonal (d, e) in the value range (vl, vu],
    ascending, and their unit eigenvectors as columns: dstebz by blocks,
    then dstein."""
    d, e = _tridiagonal(d, e)
    w, iblock, isplit = _stebz(d, e, select_range, "B")
    n, m = len(d), len(w)
    z = np.empty((n, m), order="F")
    info = _call("dstein", n, d, e, m, w, iblock, isplit, z, max(n, 1),
                 np.empty(5 * n), np.empty(n, _INT_DTYPE),
                 np.empty(m, _INT_DTYPE))
    _check_info(info, "stein (eigh_tridiagonal)")
    order = np.argsort(w)
    return w[order], z[:, order]


class SturmCounts:
    """Sturm counts of the tridiagonal (d, e) as dstebz takes them, and the
    intervals of dstebz's bisection that they pick.

    Called with points, it lists for each the number of eigenvalues at or
    below it: one Sturm sweep per point not counted before, up to four in
    one dlaebz call (IJOB=1), on dstebz's squared off-diagonals (zero where
    it splits the form into blocks) with its pivmin, so that each count is
    the one dstebz's own bisection takes at that point.  A nonzero INFO,
    which IJOB=1 gives only for an argument it refuses, is a LinAlgError.
    """

    def __init__(self, d, e):
        d, e = _tridiagonal(d, e)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        e2 = e * e
        split = np.abs(d[1:] * d[:-1]) * eps ** 2 + tiny > e2
        e2[split] = 0.0
        pivmin = max(1.0, float(np.max(e2))) * tiny
        self.n, self.split = len(d), bool(split.any())
        self.bound = float(np.abs(d).max() + 2 * e.max())  # >= |lambda|
        # the arrays of a call, the arguments from PIVMIN on, which hold
        # their addresses, and by m the arguments of a call on 2 m points,
        # AB(m, 2), each list made on its first call
        self._arrays = np.empty(4), np.empty(4, _INT_DTYPE), d, e2
        ab, nab, dp, e2p = (ctypes.c_void_p(x.ctypes.data) for x in self._arrays)
        self._tail = [_arg(pivmin), dp, e2p, e2p, nab, ab, ab,
                      ctypes.byref(_INT(0)), nab, ab, nab]
        self._args, self._known = {}, {}

    def __call__(self, *points) -> list:
        known, (ab, nab, _, _) = self._known, self._arrays
        new = [x for x in dict.fromkeys(points) if x not in known]
        for i in range(0, len(new), 4):
            chunk = new[i:i + 4]
            m = (len(chunk) + 1) // 2
            if m not in self._args:
                self._args[m] = [*map(_arg, (1, 0, self.n, m, m, 0, 0.0, 0.0)),
                                 *self._tail]
            ab[:2 * m] = chunk + chunk[:len(chunk) % 2]    # the first again
            info = _call("dlaebz", *self._args[m])
            if info:
                raise np.linalg.LinAlgError(
                    f"laebz (SturmCounts) failed (LAPACK info={info})")
            known.update(zip(chunk, nab[:len(chunk)].tolist()))
        return [known[x] for x in points]

    def window(self, need: int) -> float:
        """The first w = 1, 2, 4, ... whose window (-w, w] holds `need`
        levels, or that passes the Gershgorin bound."""
        w = 1.0
        while True:
            lo, hi = self(-w, w)
            if hi - lo >= need or w > self.bound:
                return w
            w *= 2.0

    def path(self, w: float, need: int, positive: bool = False) -> list | None:
        """The intervals (a, b] of dstebz's bisection from (-w, w] that hold
        the `need` levels nearest 0, or the `need` smallest in (0, w] when
        `positive`, each with its number of levels; None when the window
        holds fewer, or dstebz does not bisect from it by halving: the form
        splits, or the window reaches its Gershgorin bounds.

        dstebz halves at 0, then +-w/2, ..., and takes its tolerances from
        the Gershgorin bounds, not the interval, so a level bisected from
        any interval on that path comes out bit for bit as from (-w, w].
        The end r of (0, r] or (-r, r] is bisected down from w by counts
        while it holds more than `need`, at most 8 times and never near
        dstebz's tolerance; (0, r] is cut into intervals of the path by r's
        binary digits.  The pair next to 0 is kept as one interval (-b, b],
        which dstebz halves at 0 itself.
        """
        below, upto = self(-w, w)
        if self.split or below == 0 or upto == self.n:
            return None

        def inside(x: float) -> int:
            down, up = self(0.0 if positive else -x, x)
            return up - down

        if inside(w) < need:
            return None
        if not need:
            return []
        floor = max(w / 256, 1024 * np.finfo(float).eps * (self.bound + w))
        lo, hi = 0.0, w
        while inside(hi) > need and hi - lo > floor:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if inside(mid) >= need else (mid, hi)
        nodes, a, size = [], 0.0, w
        while a < hi:
            if a + size <= hi:
                nodes.append((a, a + size))
                a += size
            size /= 2
        if positive:
            return [((a, b), inside(b) - inside(a)) for a, b in nodes]
        (_, b), *rest = nodes
        picked = [((-b, b), inside(b))]
        for a, b in rest:
            na, nb, ma, mb = self(a, b, -a, -b)
            picked += [((a, b), nb - na), ((-b, -a), ma - mb)]
        return picked


def hessenberg_reflectors(a) -> tuple[Array, Array]:
    """(R, tau) of zgehrd over the whole index range of a complex square
    matrix (scipy's balancing step, permute=0, is the identity there): H =
    triu(R, -1) is upper Hessenberg with a = Q H Q^H, and R below H and tau
    hold the reflectors of Q, which `hessenberg_q` builds.  For n <= 2, R is
    a and Q the identity."""
    r = np.array(a, dtype=complex, order="F")
    _finite(r)
    n = len(r)
    if r.shape != (n, n):
        raise ValueError("expected square matrix")
    tau = np.zeros(max(n - 1, 0), dtype=complex)
    if n > 2:
        lwork = _lwork("zgehrd", n)
        _check_info(_call("zgehrd", n, 1, n, r, n, tau,
                          np.empty(lwork, dtype=complex), lwork),
                    "gehrd (hessenberg)")
    return r, tau


def hessenberg_q(r, tau) -> Array:
    """The unitary Q of `hessenberg_reflectors`' (R, tau): zunghr on a copy
    of R, with its queried workspace."""
    n = len(r)
    if n <= 2:
        return np.eye(n)
    q = np.array(r, order="F")
    lwork = _lwork("zunghr", n)
    _check_info(_call("zunghr", n, 1, n, q, n, tau,
                      np.empty(lwork, dtype=complex), lwork),
                "orghr (hessenberg)")
    return q


@functools.lru_cache(maxsize=None)
def _lwork(name: str, n: int) -> int:
    """The workspace that zgehrd or zunghr asks for on an n x n matrix over
    its whole index range (the LWORK = -1 query, asked once per size)."""
    work = np.empty(1, dtype=complex)
    _check_info(_call(name, n, 1, n, work, n, work, work, -1),
                f"{name[1:]}_lwork")
    return int(work[0].real)


def solve_tridiagonal(ab, b) -> Array:
    """Solve A x = b for the tridiagonal A in (3, n) band storage
    (A[i, j] = ab[1 + i - j, j]) by dgtsv, or zgtsv when either side is
    complex; b is (n,) or (n, nrhs).  scipy.linalg.solve_banded((1, 1),
    ab, b), the gtsv branch, without its finiteness check."""
    ab, b = np.asarray(ab), np.asarray(b)
    if ab.shape[0] != 3 or ab.shape[-1] != b.shape[0]:
        raise ValueError("shapes of ab and b are not compatible.")
    dtype = np.result_type(ab, b, float)
    name = "zgtsv" if dtype.kind == "c" else "dgtsv"
    n = ab.shape[1]
    dl = np.array(ab[2, :-1], dtype=dtype)
    d = np.array(ab[1], dtype=dtype)
    du = np.array(ab[0, 1:], dtype=dtype)
    x = np.array(b, dtype=dtype, order="F")
    nrhs = 1 if x.ndim == 1 else x.shape[1]
    info = _call(name, n, nrhs, dl, d, du, x, max(n, 1))
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal "
                         "gbsv/gtsv")
    return x


def null_space(a) -> Array:
    """Orthonormal basis of the null space of a, one vector per column,
    from numpy's SVD (gesdd) with scipy's rcond = eps * max(shape)."""
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    rcond = np.finfo(s.dtype).eps * max(u.shape[0], vh.shape[1])
    return vh[int((s > s.max(initial=0.0) * rcond).sum()):, :].T.conj()


def bidiagonal_singular_values(d: Array, e: Array) -> Array:
    """Singular values, decreasing, of the m x m upper bidiagonal with
    diagonal d and superdiagonal e[:m - 1], by dqds (dlasq1); e needs room
    for m entries and is overwritten, as is d, which holds the result."""
    m = len(d)
    if d.dtype != float or e.dtype != float or len(e) < m:
        raise ValueError("dlasq1 needs float64 d and e, e of length >= len(d)")
    _check_info(_call("dlasq1", m, d, e, np.empty(4 * m)),
                "dlasq1 (bidiagonal_singular_values)")
    return d
