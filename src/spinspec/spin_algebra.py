"""Two-dimensional Clifford algebra, chirality operators and spinor metric.

Generators G_a represent Clifford action of the orthonormal coframe on the
rank-2 spinor bundle of a surface, with the Riemannian convention

    G_a G_b + G_b G_a = -2 delta_ab Id,

each G_a skew-Hermitian for the standard Hermitian product (so unit
covectors act isometrically).  The interior chirality operator is F = i w
with volume element w = G_1 G_2; for a unit normal covector e0 the boundary
chirality operator is Gamma = F (e0 . ).  The representation is fixed once, as
`FRAME`; any unitarily equivalent one would do, and tests check the axioms,
not matrix entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _read_only(a: Array) -> Array:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CliffordFrame:
    """Concrete representation of the coframe Clifford action."""

    g1: Array
    g2: Array

    @property
    def volume(self) -> Array:
        """Volume element w = G1 G2; satisfies w^2 = -Id."""
        return self.g1 @ self.g2

    def covector(self, x) -> Array:
        """Clifford matrix of the covector with components x = (x1, x2)."""
        x = np.asarray(x, dtype=float)
        return x[0] * self.g1 + x[1] * self.g2


# The one representation used throughout: G_a = i sigma_a.  Every generator
# has one nonzero entry per row, so applying it to a spinor is exact.
FRAME = CliffordFrame(_read_only(1j * _SIGMA_X), _read_only(1j * _SIGMA_Y))


def pairing(phi, psi) -> complex:
    """Hermitian spinor metric (phi, psi), conjugate-linear in the first slot."""
    return complex(np.vdot(np.asarray(phi, complex), np.asarray(psi, complex)))


def chirality() -> Array:
    """Interior chirality operator F = i G1 G2 (sign fixed once and for all)."""
    return 1j * FRAME.volume
