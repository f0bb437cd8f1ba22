"""The 4D ground-state bubble W, its constants, and the small-data bound it sets.

W(x) = 1 / (1 + |x|^2 / 8) is the stationary solution of the 4D
energy-critical heat equation (Delta W + W^3 = 0) and the extremizer of
the Sobolev embedding Hdot^1 subset L^4. Its integrals reduce under
s = rho^2 / 8 to Beta integrals:

    ||grad W||_{L^2}^2 = ||W||_{L^4}^4 = 32 pi^2 / 3,
    E(W) = 8 pi^2 / 3 = (1/4) ||W||_{Hdot^1}^2,
    C_Sobolev = ||grad W||_{L^2}^{-1/2} = (3 / (32 pi^2))^{1/4}.

The Beta values, and the slope 128 pi^2 of W's truncated L^2 mass
against ln R (W^2 ~ 64 |x|^{-4}), are defined here and nowhere else:
`GRAD_W_L2_SQ`, `BUBBLE_ENERGY` and `L2_GROWTH_SLOPE`. This module also
evaluates the integrals by radial quadrature (composite Gauss-Legendre of
order 16 in log rho on [1e-6, r_max], r_max = 1e6 by default, with a
recorded truncation estimate), so the Beta values stay independent
oracles for it.

W is never placed on the torus as solver initial data: it is not in
L^2(R^4) (truncated mass grows logarithmically), so torus truncation of
its |x|^{-2} tail is uncontrolled. W sets the small-data regime instead:
every bump or power-law datum is scaled to ||grad u0|| = delta ||grad W||
with `GRAD_W_L2_SQ` and, when delta^2 > 1/2, its recorded energy is
checked against `BUBBLE_ENERGY` (`experiments.build_datum`). This module
knows nothing of the torus and imports no other critheat module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

GRAD_W_L2_SQ = 32.0 * np.pi**2 / 3.0   # ||grad W||^2 = ||W||_{L^4}^4
BUBBLE_ENERGY = 8.0 * np.pi**2 / 3.0   # E(W)
L2_GROWTH_SLOPE = 128.0 * np.pi**2     # d/d(ln R) of the truncated mass of W^2


def bubble_radial(rho: np.ndarray) -> np.ndarray:
    """W as a function of radius, 1 / (1 + rho^2 / 8)."""
    return 1.0 / (1.0 + np.asarray(rho, dtype=float) ** 2 / 8.0)


def bubble_radial_derivative(rho: np.ndarray) -> np.ndarray:
    """dW/drho = -(rho/4) (1 + rho^2/8)^{-2}."""
    rho = np.asarray(rho, dtype=float)
    return -(rho / 4.0) / (1.0 + rho**2 / 8.0) ** 2


_R_MIN = 1e-6  # lower end of every radial quadrature
_HEAD_VOLUME = np.pi**2 * _R_MIN**4 / 2.0  # exact volume of the ball below it
_GAUSS_ORDER = 16  # Gauss-Legendre nodes per panel


@dataclass(frozen=True)
class RadialQuadrature:
    """Nodes and positive weights for int_0^infty f(rho) 2 pi^2 rho^3 drho.

    Composite Gauss-Legendre panels in log rho on [_R_MIN, r_max]; the
    weights absorb the 4D volume element. The untreated ball below _R_MIN
    has the exact volume `_HEAD_VOLUME` (multiply by sup|f| for a head
    bound); tails must decay fast enough for r_max to be negligible.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, r_max: float = 1e6, panels_per_decade: int = 4) -> "RadialQuadrature":
        u_lo, u_hi = np.log(_R_MIN), np.log(r_max)
        n_panels = int(np.ceil(panels_per_decade * (u_hi - u_lo) / np.log(10.0)))
        edges = np.linspace(u_lo, u_hi, n_panels + 1)
        gx, gw = leggauss(_GAUSS_ORDER)
        nodes, weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            u = mid + half * gx
            rho = np.exp(u)
            nodes.append(rho)
            # d rho = rho d u, volume element 2 pi^2 rho^3
            weights.append(half * gw * 2.0 * np.pi**2 * rho**4)
        return cls(np.concatenate(nodes), np.concatenate(weights))

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.sum(self.weights * f(self.nodes)))

    def truncation_estimate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """Head bound plus a tail estimate from the observed end slope."""
        head = abs(float(f(np.array([_R_MIN]))[0])) * _HEAD_VOLUME
        r1, r2 = self.nodes[-2], self.nodes[-1]
        g1 = abs(float(f(np.array([r1]))[0])) * 2.0 * np.pi**2 * r1**3
        g2 = abs(float(f(np.array([r2]))[0])) * 2.0 * np.pi**2 * r2**3
        tail = np.inf
        if g2 == 0:
            tail = 0.0
        elif g1 > 0:
            slope = np.log(g2 / g1) / np.log(r2 / r1)
            if slope < -1:
                tail = g2 * r2 / (-slope - 1.0)
        return head + tail


@dataclass(frozen=True)
class BubbleConstants:
    grad_l2_sq: float
    l4_fourth: float
    energy: float
    sobolev_constant: float
    quadrature_truncation: float


def sobolev_constant_general(n: int) -> float:
    """Best constant of Hdot^1(R^n) subset L^{2n/(n-2)}:
    sqrt(1/(pi n (n-2))) (Gamma(n)/Gamma(n/2))^{1/n}, n >= 3.

    Gamma is `math.gamma`, exact at the integers; at a half-integer n/2 it
    can differ from `scipy.special.gamma` in the last bit.
    """
    return float(
        np.sqrt(1.0 / (np.pi * n * (n - 2))) * (math.gamma(n) / math.gamma(n / 2.0)) ** (1.0 / n)
    )


def bubble_constants() -> BubbleConstants:
    """Gradient, L^4, energy and Sobolev constants of W by radial quadrature."""
    quad = RadialQuadrature.build()

    def grad_sq(rho):
        return bubble_radial_derivative(rho) ** 2

    def w4(rho):
        return bubble_radial(rho) ** 4

    grad_l2_sq = quad.integrate(grad_sq)
    l4_fourth = quad.integrate(w4)
    energy = 0.5 * grad_l2_sq - 0.25 * l4_fourth
    trunc = quad.truncation_estimate(grad_sq) + quad.truncation_estimate(w4)
    return BubbleConstants(
        grad_l2_sq=grad_l2_sq,
        l4_fourth=l4_fourth,
        energy=energy,
        sobolev_constant=grad_l2_sq**-0.25,
        quadrature_truncation=trunc,
    )


def stationarity_residual(
    points: Sequence[Sequence[float]] | np.ndarray, h_fd: float
) -> list[float]:
    """|Delta W + W^3| at each point via second-order central differences."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))

    def w(x: np.ndarray) -> float:
        return float(bubble_radial(np.sqrt(np.sum(x**2))))

    out = []
    for x in pts:
        lap = 0.0
        for i in range(4):
            e = np.zeros(4)
            e[i] = h_fd
            lap += (w(x + e) - 2.0 * w(x) + w(x - e)) / h_fd**2
        out.append(abs(lap + w(x) ** 3))
    return out


def truncated_l2_growth(r_values: Sequence[float]) -> list[float]:
    """Truncated mass int_{|x| <= R} W^2 dx for increasing radii R.

    Grows logarithmically in R (W^2 ~ 64 |x|^{-4}), witnessing W not in L^2.
    """
    out = []
    for r in r_values:
        quad = RadialQuadrature.build(r_max=r, panels_per_decade=8)
        # head below _R_MIN: W ~ 1 there, add the exact small-ball volume
        out.append(quad.integrate(lambda rho: bubble_radial(rho) ** 2) + _HEAD_VOLUME)
    return out

