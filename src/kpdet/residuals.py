"""Finite-difference verification of the determinant-field identities.

Every identity is checked with second-order central stencils on a
rectangular (t, x, r) lattice; residuals are reported both raw and
normalized by the largest participating term, since the identities are
exact and only relative smallness is meaningful.  The r-antiderivative in
the scalar equation is realized through derivatives of log F (exact, no
integration constants), never by numerical antidifferentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import DomainError

__all__ = [
    "GridField",
    "ResidualReport",
    "StencilError",
    "hirota_residual",
    "kp_scalar_residual",
    "matrix_kp_residual",
    "rank_one_and_trace_check",
    "cylindrical_kdv_residual",
    "tail_slope_fit",
]


class StencilError(DomainError):
    """Grid too small for the requested finite-difference stencils."""


class InsufficientRangeError(DomainError):
    """Tail fit requires data reaching deep into the left tail."""


@dataclass
class GridField:
    """Scalar (or matrix-valued) samples on a rectangular (t, x, r) lattice."""

    t0: float
    x0: float
    r0: float
    ht: float
    hx: float
    hr: float
    values: np.ndarray   # shape (n_t, n_x, n_r, ...)


@dataclass
class ResidualReport:
    """Residual magnitudes of one identity check."""

    identity: str
    residual_sup: float
    residual_l2: float
    normalized_sup: float
    term_magnitudes: list
    steps: tuple
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "identity": self.identity,
            "residual_sup": self.residual_sup,
            "residual_l2": self.residual_l2,
            "normalized_sup": self.normalized_sup,
            "term_magnitudes": list(self.term_magnitudes),
            "steps": list(self.steps),
            **self.extra,
        }


# second-order central stencils along a given axis; the returned array is
# trimmed by the stencil margin on that axis
_STENCILS = {
    1: (1, np.array([-0.5, 0.0, 0.5])),
    2: (1, np.array([1.0, -2.0, 1.0])),
    3: (2, np.array([-0.5, 1.0, 0.0, -1.0, 0.5])),
    4: (2, np.array([1.0, -4.0, 6.0, -4.0, 1.0])),
    5: (3, np.array([-0.5, 2.0, -2.5, 0.0, 2.5, -2.0, 0.5])),
}


def _diff(values: np.ndarray, order: int, axis: int, h: float) -> np.ndarray:
    margin, coef = _STENCILS[order]
    n = values.shape[axis]
    if n < 2 * margin + 1:
        raise StencilError(f"axis {axis} needs {2 * margin + 1} points for d^{order}")
    out = np.zeros_like(np.take(values, range(margin, n - margin), axis=axis))
    for k, c in enumerate(coef):
        if c == 0.0:
            continue
        sl = np.take(values, range(k, n - 2 * margin + k), axis=axis)
        out = out + c * sl
    return out / h ** order


def _trim(values: np.ndarray, axis: int, margin: int) -> np.ndarray:
    n = values.shape[axis]
    return np.take(values, range(margin, n - margin), axis=axis)


def _report(identity, terms, names, steps) -> ResidualReport:
    total = sum(terms)
    mags = [float(np.max(np.abs(term))) for term in terms]
    sup = float(np.max(np.abs(total)))
    l2 = float(np.sqrt(np.mean(total ** 2)))
    norm = sup / max(max(mags), 1e-300)
    return ResidualReport(identity, sup, l2, norm, mags, steps,
                          {"term_names": list(names)})


def hirota_residual(fld: GridField) -> ResidualReport:
    """Bilinear identity for the distribution function F itself:

        F F_tr - F_t F_r + (1/12) F F_rrrr - (1/3) F_r F_rrr
          + (1/4) F_rr^2 + (1/4) F F_xx - (1/4) F_x^2 = 0.
    """
    F = fld.values
    if F.shape[0] < 5 or F.shape[1] < 5 or F.shape[2] < 7:
        raise StencilError("hirota needs dims >= (5, 5, 7)")
    ht, hx, hr = fld.ht, fld.hx, fld.hr
    mt, mx, mr = 2, 2, 3

    def center(arr, m_t, m_x, m_r):
        a = _trim(arr, 0, mt - m_t)
        a = _trim(a, 1, mx - m_x)
        return _trim(a, 2, mr - m_r)

    Ft = center(_diff(F, 1, 0, ht), 1, 0, 0)
    Fr = center(_diff(F, 1, 2, hr), 0, 0, 1)
    Ftr = center(_diff(_diff(F, 1, 0, ht), 1, 2, hr), 1, 0, 1)
    Frr = center(_diff(F, 2, 2, hr), 0, 0, 1)
    Frrr = center(_diff(F, 3, 2, hr), 0, 0, 2)
    Frrrr = center(_diff(F, 4, 2, hr), 0, 0, 2)
    Fxx = center(_diff(F, 2, 1, hx), 0, 1, 0)
    Fx = center(_diff(F, 1, 1, hx), 0, 1, 0)
    F0 = center(F, 0, 0, 0)

    terms = [F0 * Ftr, -Ft * Fr, F0 * Frrrr / 12.0, -Fr * Frrr / 3.0,
             0.25 * Frr ** 2, 0.25 * F0 * Fxx, -0.25 * Fx ** 2]
    names = ["F F_tr", "-F_t F_r", "F F_rrrr/12", "-F_r F_rrr/3",
             "F_rr^2/4", "F F_xx/4", "-F_x^2/4"]
    return _report("hirota", terms, names, (ht, hx, hr))


def kp_scalar_residual(fld: GridField) -> ResidualReport:
    """Scalar KP residual for G = log F:

        d_t d_r^2 G + d_r^2 G * d_r^3 G + (1/12) d_r^5 G + (1/4) d_x^2 d_r G = 0

    which is the equation for phi = d_r^2 G with the antiderivative realized
    as d_r G.  Needs dims >= (3, 3, 7) for the fifth r-derivative.
    """
    G = fld.values
    if G.shape[0] < 3 or G.shape[1] < 3 or G.shape[2] < 7:
        raise StencilError("scalar KP needs dims >= (3, 3, 7)")
    ht, hx, hr = fld.ht, fld.hx, fld.hr
    mt, mx, mr = 1, 1, 3

    def center(arr, m_t, m_x, m_r):
        a = _trim(arr, 0, mt - m_t)
        a = _trim(a, 1, mx - m_x)
        return _trim(a, 2, mr - m_r)

    Gtrr = center(_diff(_diff(G, 1, 0, ht), 2, 2, hr), 1, 0, 1)
    Grr = center(_diff(G, 2, 2, hr), 0, 0, 1)
    Grrr = center(_diff(G, 3, 2, hr), 0, 0, 2)
    Grrrrr = center(_diff(G, 5, 2, hr), 0, 0, 3)
    Gxxr = center(_diff(_diff(G, 2, 1, hx), 1, 2, hr), 0, 1, 1)

    terms = [Gtrr, Grr * Grrr, Grrrrr / 12.0, 0.25 * Gxxr]
    names = ["d_t phi", "phi d_r phi", "d_r^3 phi/12", "d_r^-1 d_x^2 phi/4"]
    return _report("kp_scalar", terms, names, (ht, hx, hr))


def matrix_kp_residual(q_field: np.ndarray, big_q_field: np.ndarray,
                       ht: float, hy: float, ha: float) -> ResidualReport:
    """Matrix KP residual at the center of a (t, y, a) stencil of Q-matrices.

    big_q_field has shape (3, n_y, n_a, n, n) holding Q(t0 +- ht, y, a); the
    directional derivatives are simultaneous shifts: D_r = d_a, D_x = d_y.
    q_field = d_a Q is supplied on the same stencil (computed by the caller
    with one extra a-margin).

        d_t q + (q D_r q + D_r q q)/2 + D_r^3 q / 12 + D_y^2 Q / 4
          + (q D_y Q - D_y Q q)/2 = 0
    """
    nt, ny, na = big_q_field.shape[:3]
    if nt < 3 or ny < 3 or na < 5:
        raise StencilError("matrix KP stencil needs (3, 3, 5)")
    ct, cy, ca = nt // 2, ny // 2, na // 2
    Q = big_q_field
    q = q_field

    dt_q = (q[2, cy, ca] - q[0, cy, ca]) / (2 * ht)
    q0 = q[1, cy, ca]
    da_q = (q[1, cy, ca + 1] - q[1, cy, ca - 1]) / (2 * ha)
    da3_q = (-0.5 * q[1, cy, ca - 2] + q[1, cy, ca - 1] - q[1, cy, ca + 1]
             + 0.5 * q[1, cy, ca + 2]) / ha ** 3
    dy2_Q = (Q[1, cy + 1, ca] - 2 * Q[1, cy, ca] + Q[1, cy - 1, ca]) / hy ** 2
    dy_Q = (Q[1, cy + 1, ca] - Q[1, cy - 1, ca]) / (2 * hy)

    terms = [dt_q, 0.5 * (q0 @ da_q + da_q @ q0), da3_q / 12.0, 0.25 * dy2_Q,
             0.5 * (q0 @ dy_Q - dy_Q @ q0)]
    names = ["d_t q", "(q Dq + Dq q)/2", "D^3 q/12", "Dx^2 Q/4", "commutator/2"]
    return _report("matrix_kp", terms, names, (ht, hy, ha))


def rank_one_and_trace_check(q_field: np.ndarray, ha: float):
    """sigma_2/sigma_1 of q and the trace identity residual at the center.

    q_field has shape (n_a, n, n) over the a-stencil; D_r q is the central
    a-difference.  Returns (sv_ratio, trace_residual_relative).
    """
    na = q_field.shape[0]
    ca = na // 2
    q0 = q_field[ca]
    if q0.shape[0] == 1:
        return 0.0, 0.0
    sv = np.linalg.svd(q0, compute_uv=False)
    ratio = float(sv[1] / sv[0])
    dq = (q_field[ca + 1] - q_field[ca - 1]) / (2 * ha)
    lhs = np.trace(q0 @ dq)
    rhs = np.trace(q0) * np.trace(dq)
    rel = float(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return ratio, rel


def cylindrical_kdv_residual(fld: GridField) -> ResidualReport:
    """Residual of the cylindrical KdV equation for the shifted field.

    fld.values holds G_hat(t, r) = log G evaluated along the x-independent
    shifted frame, with shape (n_t, 1, n_r); phi_hat = d_r^2 G_hat and

        d_t phi + (1/(2t)) d_r phi + phi d_r phi + (1/12) d_r^3 phi
          + phi/(2t) = 0.
    """
    G = fld.values
    if G.shape[0] < 3 or G.shape[2] < 7:
        raise StencilError("cylindrical KdV needs dims >= (3, 1, 7)")
    if fld.t0 - fld.ht < 0.5 - 1e-9:
        raise DomainError("t must stay >= 0.5")
    ht, hr = fld.ht, fld.hr
    mt, mr = 1, 3

    def center(arr, m_t, m_r):
        return _trim(_trim(arr, 0, mt - m_t), 2, mr - m_r)

    phi_t = center(_diff(_diff(G, 1, 0, ht), 2, 2, hr), 1, 1)
    phi = center(_diff(G, 2, 2, hr), 0, 1)
    phi_r = center(_diff(G, 3, 2, hr), 0, 2)
    phi_rrr = center(_diff(G, 5, 2, hr), 0, 3)
    t_grid = fld.t0 + fld.ht * np.arange(1, G.shape[0] - 1)
    inv2t = (0.5 / t_grid)[:, None, None]

    terms = [phi_t, inv2t * phi_r, phi * phi_r, phi_rrr / 12.0, inv2t * phi]
    names = ["d_t phi", "d_r phi/(2t)", "phi d_r phi", "d_r^3 phi/12", "phi/(2t)"]
    return _report("cylindrical_kdv", terms, names, (ht, 0.0, hr))


def tail_slope_fit(r: np.ndarray, log_f: np.ndarray):
    """Least-squares fit of -log F against |r|^3 on the deepest 30% of r.

    Returns (slope, r2).
    """
    r = np.asarray(r, dtype=float)
    if not np.any(r <= -5.0):
        raise InsufficientRangeError("tail fit needs r reaching -5")
    depth = np.min(r) + 0.3 * (np.max(r) - np.min(r))
    mask = r <= depth
    xfit = np.abs(r[mask]) ** 3
    yfit = -np.asarray(log_f)[mask]
    a = np.vstack([xfit, np.ones_like(xfit)]).T
    coef, *_ = np.linalg.lstsq(a, yfit, rcond=None)
    fit = a @ coef
    ss_res = np.sum((yfit - fit) ** 2)
    ss_tot = np.sum((yfit - np.mean(yfit)) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(r2)
