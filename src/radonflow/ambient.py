"""Geometry of the zero-sum cross-polytope slice hosting circuit embeddings.

The ambient polytope is

    { x in R^n : sum_i |x_i| = 2  and  sum_i x_i = 0 },

the intersection of the cross-polytope of radius 2 with the hyperplane of
zero-sum vectors.  Its vertices are the difference vectors e_i - e_j, and
every face is labeled by a sign pattern: which coordinates are positive and
which are negative on the face's relative interior.  A circuit A|B of an
oriented matroid is placed on the face with positive part A and negative
part B, by default at the face barycenter.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import EPS_MEM, EPS_SIGN


class GammaMembershipError(ValueError):
    """Point violates a defining equation of the ambient polytope."""


class DegeneratePointError(ValueError):
    """Vector is too close to zero to be normalized onto the polytope."""


class FaceLabel(NamedTuple):
    pos: frozenset[int]
    neg: frozenset[int]


def project_to_gamma(x: np.ndarray) -> np.ndarray:
    """Radially rescale a zero-sum vector onto the polytope: x -> 2x / sum|x_i|.

    Raises DegeneratePointError when the 1-norm is below EPS_MEM and
    GammaMembershipError when the coordinate sum is not zero.
    """
    x = np.asarray(x, dtype=float)
    total = float(np.abs(x).sum())
    if total < EPS_MEM:
        raise DegeneratePointError("cannot normalize a near-zero vector")
    if abs(float(x.sum())) > EPS_MEM * max(1.0, total):
        raise GammaMembershipError("coordinate sum must vanish before rescaling")
    return 2.0 * x / total


def on_gamma(x: np.ndarray, eps: float = EPS_MEM) -> bool:
    x = np.asarray(x, dtype=float)
    return abs(float(x.sum())) <= eps and abs(float(np.abs(x).sum()) - 2.0) <= eps


def face_of(x: np.ndarray, eps: float = EPS_SIGN) -> FaceLabel:
    """Sign pattern of a point on the polytope.

    Coordinates with |x_i| <= eps are read as zero.  The point must satisfy
    the membership equations within EPS_MEM.
    """
    x = np.asarray(x, dtype=float)
    if not on_gamma(x):
        raise GammaMembershipError(
            f"not on the polytope: sum={x.sum():.3g}, 1-norm={np.abs(x).sum():.3g}"
        )
    pos = frozenset(int(i) + 1 for i in np.flatnonzero(x > eps))
    neg = frozenset(int(i) + 1 for i in np.flatnonzero(x < -eps))
    if not pos or not neg:
        raise GammaMembershipError("a point of the polytope has both signs")
    return FaceLabel(pos, neg)
