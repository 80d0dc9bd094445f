"""Hastings-McLeod Painleve II solution and the Tracy-Widom distributions.

The Hastings-McLeod solution of q'' = r q + 2 q^3 (q ~ -Ai at +inf) is
computed as a two-point boundary value problem on a uniform grid: interior
collocation uses the 4th-order 5-point stencil (3-point at the two points
adjacent to the boundary) and Newton iteration with a banded Jacobian.
Shooting is hopeless here; the BVP formulation is stable.

From q the distributions are assembled as

    F_GUE(s) = exp(-int_s^inf (u-s) q(u)^2 du)
    F_GOE(s) = exp(-(1/2) int_s^inf q(u) du) * sqrt(F_GUE(s))

with quintic-spline antiderivatives on the grid (so the functions are C^6
smooth between nodes, which downstream finite-difference stencils need) and
closed-form Airy tail corrections beyond the right end of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import InterpolatedUnivariateSpline
from scipy.linalg import solve_banded

from . import DomainError
from .quadrature import gauss_legendre, map_half_line
from .specfun import airy_ai, airy_ai_prime

__all__ = [
    "HMSolution",
    "NewtonConvergenceError",
    "OutOfGridError",
    "hastings_mcleod",
    "f_gue",
    "f_goe",
    "log_f_gue",
    "log_f_goe",
]


class NewtonConvergenceError(RuntimeError):
    """Newton failed to converge; carries the step-norm trace."""

    def __init__(self, trace):
        super().__init__(f"Newton did not converge, steps={trace}")
        self.trace = trace


class OutOfGridError(DomainError):
    """Evaluation point outside the solved interval."""


@dataclass
class HMSolution:
    """Hastings-McLeod solution sampled on a uniform grid [-L, R]."""

    grid: np.ndarray
    q: np.ndarray
    q_prime: np.ndarray
    _q_spline: InterpolatedUnivariateSpline
    _iq2: InterpolatedUnivariateSpline      # int_s^R q^2
    _iuq2: InterpolatedUnivariateSpline     # int_s^R u q^2
    _iq: InterpolatedUnivariateSpline       # int_s^R q

    @property
    def left(self) -> float:
        return float(self.grid[0])

    @property
    def right(self) -> float:
        return float(self.grid[-1])

    def q_at(self, s):
        """q(s); falls back to -Ai for s beyond the right end."""
        s = np.asarray(s, dtype=float)
        out = np.where(s <= self.right, self._q_spline(np.clip(s, self.left, self.right)),
                       -airy_ai(np.maximum(s, self.right)))
        if np.any(s < self.left - 1e-12):
            raise OutOfGridError(f"point below grid left end {self.left}")
        return out


def _left_asymptote(r):
    """Two-term left asymptote q ~ -sqrt(-r/2)(1 + 1/(8 r^3))."""
    return -np.sqrt(-r / 2.0) * (1.0 + 1.0 / (8.0 * r ** 3))


def hastings_mcleod(L: float = 10.0, R: float = 10.0, n: int = 3001) -> HMSolution:
    """Solve the Hastings-McLeod BVP on [-L, R] with n uniform nodes."""
    if L < 6 or R < 6 or n < 200:
        raise ValueError("need L >= 6, R >= 6, n >= 200")
    grid = np.linspace(-L, R, n)
    h = grid[1] - grid[0]

    # initial guess: left ramp blended into -Ai
    q = np.where(grid < 0, -np.sqrt(np.maximum(-grid, 0.0) / 2.0 + 0.05), 0.0) - airy_ai(grid)
    q[0] = _left_asymptote(grid[0])
    q[-1] = -airy_ai(grid[-1])

    c3 = np.array([1.0, -2.0, 1.0]) / (h * h)

    def residual_3pt(qv):
        res = np.zeros(n)
        res[0] = qv[0] - _left_asymptote(grid[0])
        res[-1] = qv[-1] + airy_ai(grid[-1])
        lap = (qv[:-2] - 2.0 * qv[1:-1] + qv[2:]) / (h * h)
        res[1:-1] = lap - grid[1:-1] * qv[1:-1] - 2.0 * qv[1:-1] ** 3
        return res

    def jacobian_3pt(qv):
        ab = np.zeros((3, n))
        ab[0, 1:] = c3[2]
        ab[1, :] = c3[1] - grid - 6.0 * qv ** 2
        ab[2, :-1] = c3[0]
        ab[1, 0] = 1.0
        ab[0, 1] = 0.0
        ab[1, -1] = 1.0
        ab[2, -2] = 0.0
        return ab

    # Newton on the 3-point collocation (no parasitic stencil modes)
    trace = []
    for _ in range(60):
        step = solve_banded((1, 1), jacobian_3pt(q), residual_3pt(q))
        q = q - step
        norm = float(np.max(np.abs(step)))
        trace.append(norm)
        if norm < 1e-12:
            break
    else:
        raise NewtonConvergenceError(trace)

    # deferred correction to 4th order: evaluate the 5-point operator, solve
    # corrections through the smooth 3-point Jacobian
    def defect_5pt(qv):
        res = residual_3pt(qv).copy()
        i = np.arange(2, n - 2)
        lap5 = (-qv[i - 2] + 16 * qv[i - 1] - 30 * qv[i] + 16 * qv[i + 1]
                - qv[i + 2]) / (12.0 * h * h)
        res[i] = lap5 - grid[i] * qv[i] - 2.0 * qv[i] ** 3
        return res

    for _ in range(4):
        step = solve_banded((1, 1), jacobian_3pt(q), defect_5pt(q))
        q = q - step
        if float(np.max(np.abs(step))) < 1e-13:
            break

    qp = np.gradient(q, grid, edge_order=2)
    # 4th-order interior first derivative
    qp[2:-2] = (q[0:-4] - 8.0 * q[1:-3] + 8.0 * q[3:-1] - q[4:]) / (12.0 * h)

    qs = InterpolatedUnivariateSpline(grid, q, k=5)

    # right-anchored cumulatives int_s^R q^2, int_s^R u q^2, int_s^R q via
    # per-interval Gauss quadrature of the quintic interpolant: increments
    # are small and absolutely accurate, so downstream evaluations near the
    # right end carry no large-anchor cancellation noise
    gl_x, gl_w = np.polynomial.legendre.leggauss(6)
    mid = 0.5 * (grid[:-1] + grid[1:])
    half = 0.5 * h
    pts = (mid[:, None] + half * gl_x[None, :]).ravel()
    qv = qs(pts).reshape(-1, 6)
    upts = pts.reshape(-1, 6)
    inc_q2 = half * (qv * qv) @ gl_w
    inc_uq2 = half * (upts * qv * qv) @ gl_w
    inc_q = half * qv @ gl_w
    def anchored(inc):
        out = np.zeros(n)
        out[:-1] = np.cumsum(inc[::-1])[::-1]
        return out
    i_q2 = InterpolatedUnivariateSpline(grid, anchored(inc_q2), k=5)
    i_uq2 = InterpolatedUnivariateSpline(grid, anchored(inc_uq2), k=5)
    i_q = InterpolatedUnivariateSpline(grid, anchored(inc_q), k=5)
    return HMSolution(grid, q, qp, qs, i_q2, i_uq2, i_q)


# closed-form Airy tail integrals: d/du (Ai'^2 - u Ai^2) = -Ai^2 and
# d/du (u^2 Ai^2 - u Ai'^2 + Ai Ai') = 3 u Ai^2
def _tail_q2(R):
    a, ap = airy_ai(R), airy_ai_prime(R)
    return ap * ap - R * a * a


def _tail_uq2(R):
    a, ap = airy_ai(R), airy_ai_prime(R)
    return (R * ap * ap - R * R * a * a - a * ap) / 3.0


def _tail_q(R):
    rule = map_half_line(gauss_legendre(64), R, 4.0)
    return -rule.integrate(airy_ai(rule.nodes))


def _check_domain(hm: HMSolution, s):
    s = np.asarray(s, dtype=float)
    if np.any(s < hm.left + 1.0 - 1e-9) or np.any(s > hm.right - 1.0 + 1e-9):
        raise OutOfGridError(
            f"s must lie in [{hm.left + 1}, {hm.right - 1}]")
    return s


def log_f_gue(s, hm: HMSolution):
    """log F_GUE(s) = -int_s^R (u-s) q^2 du - Airy tail beyond R."""
    s = _check_domain(hm, s)
    R = hm.right
    tail = _tail_uq2(R) - s * _tail_q2(R)
    return -(hm._iuq2(s) - s * hm._iq2(s) + tail)


def f_gue(s, hm: HMSolution):
    """Tracy-Widom GUE distribution function."""
    return np.exp(log_f_gue(s, hm))


def log_f_goe(s, hm: HMSolution):
    """log F_GOE(s) = -(1/2) int_s^inf |q| + (1/2) log F_GUE(s).

    The product formula is stated for the positive Hastings-McLeod
    convention; our q ~ -Ai is its negative, hence the sign flip (verified
    against the flat-kernel determinant identity).
    """
    s = _check_domain(hm, s)
    R = hm.right
    i_q = hm._iq(s) + _tail_q(R)
    return 0.5 * i_q + 0.5 * log_f_gue(s, hm)


def f_goe(s, hm: HMSolution):
    """Tracy-Widom GOE distribution function."""
    return np.exp(log_f_goe(s, hm))
