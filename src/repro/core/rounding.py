"""Online rounding: RDCS (paper Alg. 2) and the independent baseline.

RDCS — Randomized Dependent Client Selection — repeatedly picks a pair of
still-fractional coordinates ``(i, j)`` and shifts mass between them:

    ζ1 = min(1 − x_i, x_j),   ζ2 = min(x_i, 1 − x_j)
    with prob ζ2/(ζ1+ζ2):  x_i += ζ1, x_j −= ζ1
    with prob ζ1/(ζ1+ζ2):  x_i −= ζ2, x_j += ζ2

Each operation makes at least one of the pair integral, keeps the sum
exactly constant, and is a martingale in every coordinate —
which yields Theorem 3: ``E[x_k] = x̃_k``.  When the fractional total is
not an integer a single fractional coordinate survives the pairing loop;
it is resolved by an (unavoidable) independent Bernoulli round, so the
realized sum is ``floor(Σx̃)`` or ``ceil(Σx̃)`` and the marginals are still
exact.

Cost per call, for K coordinates of which F are fractional: one
vectorized O(K) validate-and-snap pass, then at most F − 1 pairing steps.
Each step is a constant amount of Python work — one ``rng.choice``, at
most one ``rng.random``, two scalar updates and at most two deletions
from the ordered list of fractional positions (a C-level memmove).  The
``rng.choice`` call itself is the floor: it is most of what a step costs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rdcs_round", "independent_round"]

_ATOL = 1e-12


def _snap(x: np.ndarray) -> np.ndarray:
    """Snap values within tolerance of {0, 1} exactly onto them."""
    x = np.where(np.abs(x) <= _ATOL, 0.0, x)
    x = np.where(np.abs(x - 1.0) <= _ATOL, 1.0, x)
    return x


def _snap_scalar(v: float) -> float:
    """Scalar :func:`_snap`: the same two comparisons in the same order."""
    if abs(v) <= _ATOL:
        v = 0.0
    if abs(v - 1.0) <= _ATOL:
        v = 1.0
    return v


def independent_round(
    x_frac: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Round each coordinate independently: 1 w.p. x̃_k, else 0.

    Preserves marginals but neither the sum nor any joint structure —
    the straw-man the paper argues against (it "may generate an infeasible
    solution or lead to an excessive system latency").
    """
    x = np.asarray(x_frac, dtype=float)
    if np.any((x < -_ATOL) | (x > 1.0 + _ATOL)):
        raise ValueError("fractions must lie in [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    return (rng.random(x.shape) < x).astype(float)


def rdcs_round(x_frac: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Dependent rounding per Alg. 2; returns a 0/1 vector.

    Guarantees (tested property-based):
      * every output coordinate is exactly 0 or 1,
      * ``E[x_k] = x̃_k`` for every k,
      * the realized sum is in ``{floor(Σx̃), ceil(Σx̃)}``.
    """
    x = np.asarray(x_frac, dtype=float)
    if x.ndim != 1:
        raise ValueError("x_frac must be 1-D")
    if np.any((x < -_ATOL) | (x > 1.0 + _ATOL)):
        raise ValueError("fractions must lie in [0, 1]")
    x = _snap(np.clip(x, 0.0, 1.0))

    # Python floats and an ordered position list: a step touches two
    # scalars and deletes at most two list entries, so its bookkeeping is
    # O(1) and the order the generator indexes into never changes.
    frac_idx = np.flatnonzero((x > 0.0) & (x < 1.0)).tolist()
    x = x.tolist()
    choice, random = rng.choice, rng.random
    while len(frac_idx) >= 2:
        # Randomly choose the interacting pair (paper line 1).
        pos_i, pos_j = choice(len(frac_idx), size=2, replace=False).tolist()
        i, j = frac_idx[pos_i], frac_idx[pos_j]
        xi, xj = x[i], x[j]
        zeta1 = min(1.0 - xi, xj)
        zeta2 = min(xi, 1.0 - xj)
        total = zeta1 + zeta2
        if total <= _ATOL:
            # Both already integral (numerically); drop them.
            xi, xj = float(round(xi)), float(round(xj))
        elif random() < zeta2 / total:
            xi += zeta1
            xj -= zeta1
        else:
            xi -= zeta2
            xj += zeta2
        x[i] = _snap_scalar(xi)
        x[j] = _snap_scalar(xj)
        # Drop the positions that became integral, higher one first so
        # the lower one still points at its coordinate.
        if pos_i < pos_j:
            pos_i, pos_j = pos_j, pos_i
        for pos in (pos_i, pos_j):
            if not 0.0 < x[frac_idx[pos]] < 1.0:
                del frac_idx[pos]

    if frac_idx:  # one leftover fractional coordinate
        k = frac_idx[0]
        x[k] = 1.0 if random() < x[k] else 0.0
    return np.array(x, dtype=float)
