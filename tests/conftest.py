import numpy as np
import pytest

from spinspec import BoundaryConditionSpec, aggregate, make_surface

BUILTIN_SCENARIOS = ("hemisphere", "cap:pi/3", "disk", "annulus:0.5,1.0",
                     "cylinder:2.0")


@pytest.fixture(scope="session")
def solved():
    """Session cache of aggregated spectra keyed by scenario parameters."""
    cache = {}

    def get(geometry, bc, k_max=2.5, N=128, spin="antiperiodic"):
        key = (geometry, bc, float(k_max), int(N), spin)
        if key not in cache:
            cache[key] = aggregate(make_surface(geometry, spin),
                                   BoundaryConditionSpec(bc), k_max, N)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def zone_csv(tmp_path_factory):
    """A sampled f = sin r on [0.5, 2.6]: a spherical zone across the equator,
    with H < 0 on both boundary circles."""
    path = tmp_path_factory.mktemp("profile") / "zone.csv"
    r = np.linspace(0.5, 2.6, 43)
    path.write_text("r,f\n" + "".join(f"{x:.17g},{np.sin(x):.17g}\n"
                                       for x in r))
    return str(path)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
