"""Clifford / chirality axioms as matrix identities.

Exact-construction identities (integer and +-i entries) must be exactly
zero; representation-independent properties are tested against random data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinspec import (FRAME, boundary_chirality, chirality,
                      chirality_projectors, clifford_mul, pairing)

EYE = np.eye(2, dtype=complex)


def maxabs(m):
    return float(np.max(np.abs(m)))


def test_clifford_relations_exact():
    gens = (FRAME.g1, FRAME.g2)
    for a in range(2):
        for b in range(2):
            anti = gens[a] @ gens[b] + gens[b] @ gens[a]
            target = -2.0 * EYE if a == b else 0.0 * EYE
            assert maxabs(anti - target) == 0.0


def test_generators_skew_hermitian_exact():
    for g in (FRAME.g1, FRAME.g2):
        assert maxabs(g.conj().T + g) == 0.0


def test_volume_element_squares_to_minus_id():
    w = FRAME.volume
    assert maxabs(w @ w + EYE) == 0.0


def test_chirality_axioms_exact():
    F = chirality()
    assert maxabs(F @ F - EYE) == 0.0
    assert maxabs(F.conj().T @ F - EYE) == 0.0
    for g in (FRAME.g1, FRAME.g2):
        assert maxabs(F @ g + g @ F) == 0.0


@pytest.mark.parametrize("normal,tangent", [((1.0, 0.0), (0.0, 1.0)),
                                            ((-1.0, 0.0), (0.0, 1.0))])
def test_boundary_chirality_axioms_exact(normal, tangent):
    gam = boundary_chirality(normal)
    assert maxabs(gam @ gam - EYE) == 0.0
    assert maxabs(gam.conj().T @ gam - EYE) == 0.0
    g_n = FRAME.covector(normal)
    g_t = FRAME.covector(tangent)
    assert maxabs(gam @ g_n + g_n @ gam) == 0.0   # anticommutes with normal
    assert maxabs(gam @ g_t - g_t @ gam) == 0.0   # commutes with tangent
    ev = np.sort(np.linalg.eigvalsh(gam))
    assert np.allclose(ev, [-1.0, 1.0], atol=1e-14)
    assert abs(np.trace(gam)) == 0.0


def test_boundary_chirality_rotated_normal():
    th = 0.73
    gam = boundary_chirality((np.cos(th), np.sin(th)))
    assert maxabs(gam @ gam - EYE) <= 1e-15
    g_n = FRAME.covector((np.cos(th), np.sin(th)))
    assert maxabs(gam @ g_n + g_n @ gam) <= 1e-15


def test_boundary_chirality_rejects_non_unit_normal():
    with pytest.raises(ValueError, match="normalization"):
        boundary_chirality((1.0, 1.0))


def test_projectors_exact():
    gam = boundary_chirality((1.0, 0.0))
    p_plus, p_minus = chirality_projectors(gam)
    assert maxabs(p_plus + p_minus - EYE) == 0.0
    assert maxabs(p_plus @ p_plus - p_plus) == 0.0
    assert maxabs(p_minus @ p_minus - p_minus) == 0.0
    assert maxabs(p_plus @ p_minus) == 0.0


def test_clifford_mul_zero_and_square():
    s = np.array([0.3 + 0.1j, -0.7j])
    assert maxabs(clifford_mul((0.0, 0.0), s)) == 0.0
    # X = e^1: double action gives -s
    ss = clifford_mul((1.0, 0.0), clifford_mul((1.0, 0.0), s))
    assert maxabs(ss + s) == 0.0


def test_unit_covector_preserves_norm():
    phi = np.array([1.0, 1.0j])
    out = clifford_mul((1.0, 0.0), phi)
    assert abs(np.linalg.norm(out) - np.linalg.norm(phi)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(x1=st.floats(-3, 3), x2=st.floats(-3, 3),
       y1=st.floats(-3, 3), y2=st.floats(-3, 3))
def test_clifford_mul_bilinear(x1, x2, y1, y2):
    s = np.array([0.4 - 0.2j, 1.1j])
    lhs = clifford_mul((x1 + y1, x2 + y2), s)
    rhs = clifford_mul((x1, x2), s) + clifford_mul((y1, y2), s)
    assert maxabs(lhs - rhs) <= 1e-12


def test_hermitian_pairing_identity_bulk(rng):
    # (X.phi, X.psi) = |X|^2 (phi, psi) over 1000 random triples
    worst = 0.0
    for _ in range(1000):
        x = rng.standard_normal(2) * 2
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = pairing(clifford_mul(x, phi), clifford_mul(x, psi))
        rhs = float(x @ x) * pairing(phi, psi)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-13


def test_frame_is_read_only():
    with pytest.raises(ValueError):
        FRAME.g1[0, 0] = 0.0
    with pytest.raises(AttributeError):     # a frozen dataclass
        FRAME.g2 = FRAME.g1
