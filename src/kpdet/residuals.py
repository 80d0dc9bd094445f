"""Finite-difference verification of the determinant-field identities.

Every identity is checked with second-order central differences at the
interior centres of a (t, x, r) lattice, given by its steps and its counts
``dims``; a lattice point is named by its index triple (i, j, k).  Each
identity names its derivatives as nested (axis, order) differences, and
``_derivatives`` collects the lattice points those differences read at the
centres, asks the caller's evaluator ``value`` for exactly those points in
one call, and combines the values, so no other point of the lattice is
evaluated.  The caller places the points: ``value(points)`` gets the index
triples (tuples of ints, in lexicographic order) and returns one value per
point (a number, or a matrix for matrix KP).  Each check returns a report
dict (``_report``) holding the residual both raw and normalized by the
largest participating term, since the identities are exact and only
relative smallness is meaningful.  The r-antiderivative in the scalar
equation is realized through derivatives of log F (exact, no integration
constants), never by numerical antidifferentiation.
"""

from __future__ import annotations

import numpy as np

from . import DomainError

__all__ = [
    "StencilError",
    "hirota_residual",
    "kp_scalar_residual",
    "matrix_kp_residual",
    "cylindrical_kdv_residual",
    "tail_slope_fit",
]


class StencilError(DomainError):
    """Grid too small for the requested finite-difference stencils."""


class InsufficientRangeError(DomainError):
    """Tail fit requires data reaching deep into the left tail."""


# lattice axes; matrix KP reads its (t, y, a) lattice on the same three
T, X, R = 0, 1, 2

# second-order central stencils: order -> (margin, coefficients on the
# offsets -margin..margin)
_STENCILS = {
    1: (1, np.array([-0.5, 0.0, 0.5])),
    2: (1, np.array([1.0, -2.0, 1.0])),
    3: (2, np.array([-0.5, 1.0, 0.0, -1.0, 0.5])),
    4: (2, np.array([1.0, -4.0, 6.0, -4.0, 1.0])),
    5: (3, np.array([-0.5, 2.0, -2.5, 0.0, 2.5, -2.0, 0.5])),
}


def _offsets(deriv) -> np.ndarray:
    """The lattice offsets, one row each, that the nested difference deriv reads."""
    offsets = np.zeros((1, 3), dtype=int)
    for axis, order in deriv:
        margin, coef = _STENCILS[order]
        shifts = np.zeros((np.count_nonzero(coef), 3), dtype=int)
        shifts[:, axis] = np.flatnonzero(coef) - margin
        offsets = (offsets[:, None] + shifts[None]).reshape(-1, 3)
    return offsets


def _nested(values, deriv, centres, steps):
    """The nested difference deriv at centres (one index array per axis).

    deriv is a sequence of (axis, order), innermost first: ((T, 1), (R, 2))
    is d_r^2 applied to d_t.  The outermost difference combines the inner
    ones at its shifted centres, adding its nonzero terms in stencil order
    to 0 and dividing by h^order.
    """
    if not deriv:
        return values[centres]
    *inner, (axis, order) = deriv
    margin, coef = _STENCILS[order]
    out = 0.0
    for k, c in enumerate(coef):
        if c != 0.0:
            shifted = list(centres)
            shifted[axis] = centres[axis] + (k - margin)
            out = out + c * _nested(values, inner, tuple(shifted), steps)
    return out / steps[axis] ** order


def _derivatives(value, steps, first, shape, derivs):
    """Each nested difference of derivs at the centres first + (0..shape - 1).

    Asks value once, for every lattice point the differences read, and
    returns one array of the centres' shape (then the values' shape) per
    difference.  The values sit in a box reaching the largest index read,
    NaN at the points not read.
    """
    centres = np.indices(shape) + np.reshape(first, (3, 1, 1, 1))
    offsets = np.concatenate([_offsets(d) for d in derivs])
    points = np.array(sorted(set(map(tuple, (centres.reshape(3, -1).T[:, None]
                                             + offsets[None]).reshape(-1, 3).tolist()))))
    got = np.asarray(value([tuple(p) for p in points.tolist()]), dtype=float)
    values = np.full(tuple(points.max(axis=0) + 1) + got.shape[1:], np.nan)
    values[tuple(points.T)] = got
    return [_nested(values, d, tuple(centres), steps) for d in derivs]


def _centres(dims, least, margins, identity):
    """(first, shape) of the box of centres: the lattice points margins away
    from its faces, or its centre point dims // 2 where margins is None.

    Raises StencilError unless dims >= least on each axis.
    """
    if any(n < m for n, m in zip(dims, least)):
        raise StencilError(f"{identity} needs dims >= {least}")
    if margins is None:
        return tuple(n // 2 for n in dims), (1, 1, 1)
    return margins, tuple(n - 2 * m for n, m in zip(dims, margins))


def _report(identity, terms, names, steps) -> dict:
    """The report of one identity check: the sup, root mean square and
    normalized sup of the summed terms, and each term's name and sup."""
    total = sum(terms)
    mags = [float(np.max(np.abs(term))) for term in terms]
    sup = float(np.max(np.abs(total)))
    return {"identity": identity, "residual_sup": sup,
            "residual_l2": float(np.sqrt(np.mean(total ** 2))),
            "normalized_sup": sup / max(max(mags), 1e-300), "term_magnitudes": mags,
            "steps": list(steps), "term_names": list(names)}


def hirota_residual(value, steps, dims) -> dict:
    """Bilinear identity for the distribution function F itself:

        F F_tr - F_t F_r + (1/12) F F_rrrr - (1/3) F_r F_rrr
          + (1/4) F_rr^2 + (1/4) F F_xx - (1/4) F_x^2 = 0

    at the lattice points (2, 2, 3) away from its faces; value gives F.
    Needs dims >= (5, 5, 7).
    """
    F, Ft, Fr, Ftr, Frr, Frrr, Frrrr, Fxx, Fx = _derivatives(
        value, steps, *_centres(dims, (5, 5, 7), (2, 2, 3), "hirota"),
        [(), ((T, 1),), ((R, 1),), ((T, 1), (R, 1)), ((R, 2),), ((R, 3),),
         ((R, 4),), ((X, 2),), ((X, 1),)])
    terms = [F * Ftr, -Ft * Fr, F * Frrrr / 12.0, -Fr * Frrr / 3.0,
             0.25 * Frr ** 2, 0.25 * F * Fxx, -0.25 * Fx ** 2]
    names = ["F F_tr", "-F_t F_r", "F F_rrrr/12", "-F_r F_rrr/3",
             "F_rr^2/4", "F F_xx/4", "-F_x^2/4"]
    return _report("hirota", terms, names, steps)


def kp_scalar_residual(value, steps, dims) -> dict:
    """Scalar KP residual for G = log F:

        d_t d_r^2 G + d_r^2 G * d_r^3 G + (1/12) d_r^5 G + (1/4) d_x^2 d_r G = 0

    which is the equation for phi = d_r^2 G with the antiderivative realized
    as d_r G, at the lattice points (1, 1, 3) away from its faces; value
    gives G.  Needs dims >= (3, 3, 7) for the fifth r-derivative.
    """
    Gtrr, Grr, Grrr, Grrrrr, Gxxr = _derivatives(
        value, steps, *_centres(dims, (3, 3, 7), (1, 1, 3), "scalar KP"),
        [((T, 1), (R, 2)), ((R, 2),), ((R, 3),), ((R, 5),), ((X, 2), (R, 1))])
    terms = [Gtrr, Grr * Grrr, Grrrrr / 12.0, 0.25 * Gxxr]
    names = ["d_t phi", "phi d_r phi", "d_r^3 phi/12", "d_r^-1 d_x^2 phi/4"]
    return _report("kp_scalar", terms, names, steps)


def matrix_kp_residual(value, steps, dims) -> dict:
    """Matrix KP residual at the centre of a (t, y, a) lattice of Q-matrices.

    value gives Q(t, y, a); the directional derivatives are simultaneous
    shifts, D_r = d_a and D_x = d_y, and q = d_a Q:

        d_t q + (q D_r q + D_r q q)/2 + D_r^3 q / 12 + D_y^2 Q / 4
          + (q D_y Q - D_y Q q)/2 = 0.

    Needs dims >= (3, 3, 7).  The report also holds sigma_2/sigma_1 of q
    (``sv_ratio``) and the relative residual of the trace identity
    tr(q D_r q) = tr q tr D_r q (``trace_identity_rel``), both 0 for 1x1 Q.
    """
    q, dt_q, da_q, da3_q, dy2_Q, dy_Q = (d[0, 0, 0] for d in _derivatives(
        value, steps, *_centres(dims, (3, 3, 7), None, "matrix KP"),
        [((R, 1),), ((R, 1), (T, 1)), ((R, 1), (R, 1)), ((R, 1), (R, 3)),
         ((X, 2),), ((X, 1),)]))
    terms = [dt_q, 0.5 * (q @ da_q + da_q @ q), da3_q / 12.0, 0.25 * dy2_Q,
             0.5 * (q @ dy_Q - dy_Q @ q)]
    names = ["d_t q", "(q Dq + Dq q)/2", "D^3 q/12", "Dx^2 Q/4", "commutator/2"]
    rep = _report("matrix_kp", terms, names, steps)
    ratio = trace_rel = 0.0
    if q.shape[0] > 1:
        sv = np.linalg.svd(q, compute_uv=False)
        ratio = float(sv[1] / sv[0])
        lhs = np.trace(q @ da_q)
        rhs = np.trace(q) * np.trace(da_q)
        trace_rel = float(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    rep.update(sv_ratio=ratio, trace_identity_rel=trace_rel)
    return rep


def cylindrical_kdv_residual(value, t0, steps, dims) -> dict:
    """Residual of the cylindrical KdV equation for the shifted field.

    value gives G_hat(t, r) = log G along the x-independent shifted frame
    on a lattice starting at t = t0 (x has one point); phi_hat = d_r^2 G_hat
    and, at the lattice points (1, 0, 3) away from its faces,

        d_t phi + (1/(2t)) d_r phi + phi d_r phi + (1/12) d_r^3 phi
          + phi/(2t) = 0.

    Needs dims >= (3, 1, 7) and t0 - ht >= 0.5.
    """
    first, shape = _centres(dims, (3, 1, 7), (1, 0, 3), "cylindrical KdV")
    if t0 - steps[T] < 0.5 - 1e-9:
        raise DomainError("t must stay >= 0.5")
    phi_t, phi, phi_r, phi_rrr = _derivatives(
        value, steps, first, shape, [((T, 1), (R, 2)), ((R, 2),), ((R, 3),), ((R, 5),)])
    t_grid = t0 + steps[T] * np.arange(1, dims[T] - 1)
    inv2t = (0.5 / t_grid)[:, None, None]

    terms = [phi_t, inv2t * phi_r, phi * phi_r, phi_rrr / 12.0, inv2t * phi]
    names = ["d_t phi", "d_r phi/(2t)", "phi d_r phi", "d_r^3 phi/12", "phi/(2t)"]
    return _report("cylindrical_kdv", terms, names, steps)


def tail_slope_fit(r: np.ndarray, log_f: np.ndarray):
    """Least-squares fit of -log F against |r|^3 on the deepest 30% of r.

    Returns (slope, r2).  Raises InsufficientRangeError when r does not reach
    -5 or fewer than 3 points fall in the window, which a line fits with r2 = 1.
    """
    r = np.asarray(r, dtype=float)
    if not np.any(r <= -5.0):
        raise InsufficientRangeError("tail fit needs r reaching -5")
    depth = np.min(r) + 0.3 * (np.max(r) - np.min(r))
    mask = r <= depth
    if np.count_nonzero(mask) < 3:
        raise InsufficientRangeError(f"tail fit needs 3 points in its window r <= {depth:.6g}")
    xfit = np.abs(r[mask]) ** 3
    yfit = -np.asarray(log_f)[mask]
    a = np.vstack([xfit, np.ones_like(xfit)]).T
    coef, *_ = np.linalg.lstsq(a, yfit, rcond=None)
    fit = a @ coef
    ss_res = np.sum((yfit - fit) ** 2)
    ss_tot = np.sum((yfit - np.mean(yfit)) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(r2)
