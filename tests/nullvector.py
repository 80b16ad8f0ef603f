"""The excited vacuum as the null vector of the excited annihilation operator.

The excited-surface vacuum is the state annihilated by

    B = gamma_plus*b + gamma_minus*b^dag - lambda_e

in the ground number basis. The package reads it as the lowest eigenvector
of its Hamiltonian (``Propagator.of(c, basis).vacuum()``); this module
finds it from B alone, by an SVD, so the tests have a reference that does
not depend on ``eigh``.
"""

from __future__ import annotations

import numpy as np

from indiboson.oracle import BUFFER_TOL, TruncatedBasis, destroy

__all__ = ["annihilator", "null_vector"]


def annihilator(c, dim: int) -> np.ndarray:
    """B = gamma_plus*b + gamma_minus*b^dag - lambda_e as a dim x dim matrix."""
    b = destroy(TruncatedBasis(dim))
    return c.gamma_plus * b + c.gamma_minus * b.T - c.lambda_e * np.eye(dim)


def null_vector(c, dim: int) -> np.ndarray:
    """Ground-basis coefficients of the excited vacuum, ground coefficient >= 0.

    The last row of B couples to the truncated level, so the null space is
    taken over the top (dim-1) x dim block. That block pairs the null
    direction with its implicit zero singular value; a tiny last singular
    value would mean a second near-null vector and an ambiguous extraction.
    Contamination by the truncation shows up as weight in the buffer.
    """
    mat = annihilator(c, dim)[: dim - 1, :]
    _, sing, vh = np.linalg.svd(mat)
    assert sing[-1] >= 1e-10 * sing[0], f"sigma gap {sing[-1] / sing[0]:.3e}"
    vec = vh[-1]
    residual = float(np.linalg.norm(mat @ vec))
    assert residual <= 1e-10, f"null-vector residual {residual:.3e}"
    tail = vec[TruncatedBasis(dim).buffer_start :]
    buffer = float(tail @ tail)
    assert buffer <= BUFFER_TOL, f"buffer population {buffer:.3e} at dim={dim}"
    return vec if vec[0] >= 0.0 else -vec
