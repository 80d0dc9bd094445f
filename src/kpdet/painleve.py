"""Hastings-McLeod Painleve II solution and the Tracy-Widom distributions.

The Hastings-McLeod solution of q'' = r q + 2 q^3 (q ~ -Ai at +inf) is one
``numpy.polynomial.Chebyshev`` series of degree DEGREE on [-L, R], found
by Chebyshev collocation of the two-point boundary value problem
(Trefethen, *Spectral Methods in MATLAB*, 2000, ch. 6 and 13): Newton on
its coefficients, with the equation at the interior Chebyshev points
(second derivatives from numpy's coefficient differentiation matrix) and
q(R) = -Ai(R) and the two-term left asymptote as boundary rows (shooting
is unstable here).  q and its derivatives are exact polynomials, smooth
on the whole interval (which downstream finite-difference stencils need).

From q the distributions are assembled as

    F_GUE(s) = exp(-int_s^inf (u-s) q(u)^2 du)
    F_GOE(s) = exp(-(1/2) int_s^inf q(u) du) * sqrt(F_GUE(s))

with one Gauss-Legendre rule of DEGREE + 2 nodes on [s, R], exact for both
polynomial integrands, and Airy tails beyond R.  Each integral is summed
over its own interval, so its rounding is relative to its own size; a
global antiderivative would carry the rounding of its largest values
into F near the right end.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev, chebyshev

from . import DomainError
from .quadrature import gauss_legendre, panel_rule
from .specfun import airy_ai, airy_ai_prime

__all__ = [
    "HMSolution",
    "OutOfGridError",
    "DEGREE",
    "hastings_mcleod",
    "f_gue",
    "f_goe",
    "log_f_gue",
    "log_f_goe",
]

# degree of the Chebyshev series of q: on every interval in use (L <= 24,
# R = 10) its trailing coefficients are below 2e-15
DEGREE = 192
_RIGHT_END = 10.0   # the right end R of every solved interval [-L, R]


class OutOfGridError(DomainError):
    """Evaluation point outside the solved interval."""


@dataclass(frozen=True)
class HMSolution:
    """Hastings-McLeod solution q as one Chebyshev series on [-L, R]."""

    q: Chebyshev

    @property
    def left(self) -> float:
        return float(self.q.domain[0])

    @property
    def right(self) -> float:
        return float(self.q.domain[1])

    def q_at(self, s):
        """q(s); falls back to -Ai for s beyond the right end."""
        s = np.asarray(s, dtype=float)
        if np.any(s < self.left - 1e-12):
            raise OutOfGridError(f"point below grid left end {self.left}")
        return np.where(s <= self.right, self.q(np.clip(s, self.left, self.right)),
                        -airy_ai(np.maximum(s, self.right)))


def hastings_mcleod(L: float = 10.0) -> HMSolution:
    """Solve the Hastings-McLeod BVP on [-L, R] (R = 10) as a Chebyshev series.

    The solution is memoized on L: every call with the same interval
    returns the same HMSolution, which callers must not modify.  Raises
    FloatingPointError if Newton stalls (the message carries the step
    norms) or if the series' trailing coefficients exceed 1e-13 (the
    interval is too long for DEGREE); a failed solve is not memoized.
    """
    return _solve_hastings_mcleod(float(L))


@functools.lru_cache(maxsize=8)
def _solve_hastings_mcleod(L: float) -> HMSolution:
    if L < 6:
        raise ValueError("need L >= 6")
    R = _RIGHT_END
    x = np.cos(np.pi * np.arange(DEGREE + 1) / DEGREE)
    s = 0.5 * (R - L) + 0.5 * (R + L) * x     # descending: s[0] = R, s[-1] = -L
    # values and second derivatives at the points, from the coefficients
    val = chebyshev.chebvander(x, DEGREE)
    dd = chebyshev.chebvander(x, DEGREE - 2) @ chebyshev.chebder(
        np.eye(DEGREE + 1), 2, scl=2.0 / (R + L))
    # boundary rows: q(R) = -Ai(R), q(-L) = -sqrt(L/2)(1 - 1/(8 L^3))
    ends = [0, DEGREE]
    edge = np.array([-airy_ai(R), -np.sqrt(L / 2.0) * (1.0 - 1.0 / (8.0 * L ** 3))])

    # initial guess: left ramp blended into -Ai
    q = np.where(s < 0, -np.sqrt(np.maximum(-s, 0.0) / 2.0 + 0.05), 0.0) - airy_ai(s)
    coef = np.linalg.solve(val, q)
    trace = []
    for _ in range(60):
        q = val @ coef
        res = dd @ coef - s * q - 2.0 * q ** 3
        jac = dd - (s + 6.0 * q ** 2)[:, None] * val
        res[ends] = q[ends] - edge
        jac[ends] = val[ends]
        step = np.linalg.solve(jac, res)
        coef = coef - step
        trace.append(float(np.max(np.abs(step))))
        if trace[-1] < 1e-13:
            break
    else:
        raise FloatingPointError(f"Hastings-McLeod Newton did not converge, steps={trace}")
    tail = float(np.max(np.abs(coef[-8:])))
    if tail > 1e-13:
        raise FloatingPointError(
            f"Hastings-McLeod series on [{-L:g}, {R:g}] unresolved at degree {DEGREE}: "
            f"trailing coefficients reach {tail:.2e} > 1e-13")
    return HMSolution(Chebyshev(coef, domain=[-L, R]))


def _airy_tails(R):
    """(int_R^inf Ai^2, int_R^inf u Ai^2, -int_R^inf Ai), the first two in
    closed form: d/du (Ai'^2 - u Ai^2) = -Ai^2 and
    d/du (u^2 Ai^2 - u Ai'^2 + Ai Ai') = 3 u Ai^2."""
    a, ap = airy_ai(R), airy_ai_prime(R)
    rule = panel_rule((R, np.inf), 64, 4.0)
    return (ap * ap - R * a * a, (R * ap * ap - R * R * a * a - a * ap) / 3.0,
            -rule.integrate(airy_ai(rule.nodes)))


def _log_f(s, hm: HMSolution):
    """(log F_GUE(s), log F_GOE(s)), with s checked against [-L + 1, R - 1]."""
    s = np.asarray(s, dtype=float)
    if np.any(s < hm.left + 1.0 - 1e-9) or np.any(s > hm.right - 1.0 + 1e-9):
        raise OutOfGridError(
            f"s must lie in [{hm.left + 1}, {hm.right - 1}]")
    rule = gauss_legendre(DEGREE + 2)
    half = 0.5 * (hm.right - s)
    q = hm.q(s[..., None] + half[..., None] * (1.0 + rule.nodes))
    tail_q2, tail_uq2, tail_q = _airy_tails(hm.right)
    # -log F_GUE = int_s^inf (u - s) q^2, with u - s = half (1 + node) on [s, R]
    neg_log_gue = (half * half * ((q * q) @ (rule.weights * (1.0 + rule.nodes)))
                   + tail_uq2 - s * tail_q2)
    i_q = half * (q @ rule.weights) + tail_q
    return -neg_log_gue, 0.5 * (i_q - neg_log_gue)


def log_f_gue(s, hm: HMSolution):
    """log F_GUE(s) = -int_s^R (u-s) q^2 du - Airy tail beyond R."""
    return _log_f(s, hm)[0]


def f_gue(s, hm: HMSolution):
    """Tracy-Widom GUE distribution function."""
    return np.exp(log_f_gue(s, hm))


def log_f_goe(s, hm: HMSolution):
    """log F_GOE(s) = -(1/2) int_s^inf |q| + (1/2) log F_GUE(s).

    The product formula is stated for the positive Hastings-McLeod
    convention; our q ~ -Ai is its negative, hence the sign flip (verified
    against the flat-kernel determinant identity).
    """
    return _log_f(s, hm)[1]


def f_goe(s, hm: HMSolution):
    """Tracy-Widom GOE distribution function."""
    return np.exp(log_f_goe(s, hm))
