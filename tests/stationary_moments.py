"""Exact moments of the direction chain's stationary law, by 1-D quadrature.

For either ensemble ``W s`` is isotropic for every unit ``s``, so the chain
``S_k = phi(W S_{k-1}) / |phi(W S_{k-1})|`` has, from its first step on, the
law of ``phi(g) / |phi(g)|`` with ``g ~ N(0, I_d)``.  Its moments follow from
``1/|y| = pi^{-1/2} int_0^inf t^{-1/2} e^{-t|y|^2} dt`` and
``1/|y|^2 = int_0^inf e^{-t|y|^2} dt``, which factor over the independent
coordinates.  With ``a = alpha`` and ``g ~ N(0, 1)``:

    b(t)  = E[e^{-t phi(g)^2}]          = (1+2t)^{-1/2}/2 + (1+2a^2 t)^{-1/2}/2
    m1(t) = E[phi(g) e^{-t phi(g)^2}]   = (2 pi)^{-1/2} [(1+2t)^{-1} - a (1+2a^2 t)^{-1}]
    m2(t) = E[phi(g)^2 e^{-t phi(g)^2}] = (1+2t)^{-3/2}/2 + a^2 (1+2a^2 t)^{-3/2}/2

    E[S_i]     = pi^{-1/2} int t^{-1/2} m1(t) b(t)^{d-1} dt
    E[S_i^2]   = int m2(t) b(t)^{d-1} dt        (= 1/d by exchangeability)
    E[S_i S_j] = int m1(t)^2 b(t)^{d-2} dt      (i != j)

This uses no lyapinit code, so it is an independent oracle for
``stationarity_check``: ``mean`` is the target of its headline estimate (each
trial's mean coordinate), and ``second_moment()`` of the matrix in its
``details``.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad


class StationaryMoments(NamedTuple):
    d: int
    mean: float  # E[S_i], the same for every coordinate
    diagonal: float  # E[S_i^2]
    off_diagonal: float  # E[S_i S_j] for i != j; 0.0 when d = 1

    def second_moment(self) -> np.ndarray:
        """The d x d matrix E[S S^T]."""
        matrix = np.full((self.d, self.d), self.off_diagonal)
        np.fill_diagonal(matrix, self.diagonal)
        return matrix


def _half_line(f) -> float:
    # split at t = 1 so the algebraic tail is integrated on its own
    head, _ = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    tail, _ = quad(f, 1.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return head + tail


def stationary_moments(d: int, alpha: float) -> StationaryMoments:
    """Exact first and second moments of ``phi(g)/|phi(g)|``, ``g ~ N(0, I_d)``."""
    a = float(alpha)

    def b(t):
        return 0.5 / math.sqrt(1.0 + 2.0 * t) + 0.5 / math.sqrt(1.0 + 2.0 * a * a * t)

    def m1(t):
        return (1.0 / (1.0 + 2.0 * t) - a / (1.0 + 2.0 * a * a * t)) / math.sqrt(2.0 * math.pi)

    def m2(t):
        return 0.5 * (1.0 + 2.0 * t) ** -1.5 + 0.5 * a * a * (1.0 + 2.0 * a * a * t) ** -1.5

    # t = u^2 removes the t^{-1/2} singularity: int t^{-1/2} f(t) dt = 2 int f(u^2) du
    mean = 2.0 / math.sqrt(math.pi) * _half_line(lambda u: m1(u * u) * b(u * u) ** (d - 1))
    diagonal = _half_line(lambda t: m2(t) * b(t) ** (d - 1))
    off_diagonal = _half_line(lambda t: m1(t) ** 2 * b(t) ** (d - 2)) if d >= 2 else 0.0
    return StationaryMoments(d, mean, diagonal, off_diagonal)
