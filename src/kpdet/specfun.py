"""Special-function primitives: real Airy function Ai, Ai', and complex log-Gamma.

Ai and Ai' are evaluated from recentered Maclaurin series (coefficients
generated by the Airy ODE recurrence y'' = x*y in extended precision and
marched outward from 0) inside a core interval, and from the standard
Poincare asymptotic expansions outside it.  A single 0-centered series
loses ~exp((2/3)|x|^{3/2}) digits to cancellation, so the core interval is
tiled with centers every 0.5; each local series then has no cancellation.
At |x - center| <= 0.25 the terms beyond order 20 sum to less than 2.4e-20
(2e-18 for Ai'), so order 20 gives the values of order 30.

Right of the core (x > 9, zeta = (2/3) x^{3/2} > 18) the Poincare series
in 1/zeta is summed to a fixed degree 23 with no truncation test: its
terms u_k / zeta^k shrink while k < 2 zeta (the ratio is about k / (2 zeta)),
so through k = 23 they only fall (3.9e-3, 1.1e-4, ..., 2.9e-16 at zeta =
18), and the first omitted one, which bounds the remainder (DLMF 9.7.iii),
is below 1.9e-16 there and smaller for every larger x.

Each branch is one Horner pass whose accumulator is updated in place, so
an evaluation holds a few arrays of the input's size whatever the order.
Everything is vectorized over numpy arrays and stateless after the module
level coefficient tables are built.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "airy_ai",
    "airy_ai_prime",
    "airy_ai_log_abs",
    "log_gamma",
]

# Ai(0) = 3^(-2/3)/Gamma(2/3), Ai'(0) = -3^(-1/3)/Gamma(1/3)
_AI0 = np.longdouble("0.35502805388781723926006318600418317639")
_AIP0 = np.longdouble("-0.25881940379280679840518356018920396347")

# core interval tiled by Taylor centers; asymptotics take over outside
_X_NEG_SWITCH = -14.0
_X_POS_SWITCH = 9.0
_CENTER_STEP = 0.5
_N_LOCAL = 20   # local series order for |delta| <= 0.25
_N_MARCH = 44   # marching series order for steps of 0.5


def _airy_taylor_coeffs(c, y0, yp0, order):
    """Taylor coefficients of the Airy ODE solution about x=c (longdouble)."""
    a = np.zeros(order, dtype=np.longdouble)
    a[0] = y0
    a[1] = yp0
    for k in range(order - 2):
        prev = a[k - 1] if k >= 1 else np.longdouble(0.0)
        a[k + 2] = (c * a[k] + prev) / ((k + 1) * (k + 2))
    return a


# u_k / v_k coefficients of the Poincare expansions (DLMF 9.7), longdouble
_N_ASY = 24


def _build_asymptotic_uv():
    u = np.zeros(_N_ASY, dtype=np.longdouble)
    v = np.zeros(_N_ASY, dtype=np.longdouble)
    u[0] = 1.0
    v[0] = 1.0
    for k in range(1, _N_ASY):
        u[k] = u[k - 1] * (6 * k - 1) * (6 * k - 3) * (6 * k - 5) / (
            np.longdouble(216) * k * (2 * k - 1)
        )
        v[k] = u[k] * (6 * k + 1) / np.longdouble(1 - 6 * k)
    return u, v


_U_LD, _V_LD = _build_asymptotic_uv()


def _asy_pos_seed(x):
    """(Ai(x), Ai'(x)) from the Poincare expansion through k = 19,
    longdouble, x >> 1."""
    xl = np.longdouble(x)
    zeta = (np.longdouble(2) / 3) * xl ** np.longdouble(1.5)
    su, sv = _U_LD[0], _V_LD[0]
    for k in range(1, 20):
        su += (-1) ** k * _U_LD[k] / zeta ** k
        sv += (-1) ** k * _V_LD[k] / zeta ** k
    pre = np.exp(-zeta) / (2 * np.sqrt(np.longdouble(np.pi)))
    return pre * xl ** np.longdouble(-0.25) * su, -pre * xl ** np.longdouble(0.25) * sv


def _build_tables():
    """Tabulate local Taylor coefficients on 0.5-spaced centers.

    Negative side: march outward from 0 (oscillatory region, neutrally
    stable).  Positive side: march downward from the asymptotic seed at the
    switch point, since marching up runs against the exponentially growing
    companion solution.
    """
    step = np.longdouble(_CENTER_STEP)
    n_neg = int(round(-_X_NEG_SWITCH / _CENTER_STEP)) + 1
    n_pos = int(round(_X_POS_SWITCH / _CENTER_STEP))
    centers = np.concatenate(
        [np.arange(-n_neg, 0), np.arange(0, n_pos + 1)]
    ).astype(np.longdouble) * step
    centers.sort()
    idx0 = int(np.searchsorted(centers.astype(float), 0.0))
    idx_top = len(centers) - 1

    vals = {idx0: (_AI0, _AIP0), idx_top: _asy_pos_seed(centers[idx_top])}
    powers_fw = step ** np.arange(_N_MARCH, dtype=np.longdouble)
    powers_bw = (-step) ** np.arange(_N_MARCH, dtype=np.longdouble)
    karr = np.arange(1, _N_MARCH, dtype=np.longdouble)

    def _advance(idx, direction):
        y0, yp0 = vals[idx]
        a = _airy_taylor_coeffs(centers[idx], y0, yp0, _N_MARCH)
        powers = powers_fw if direction > 0 else powers_bw
        y1 = np.sum(a * powers)
        yp1 = np.sum(a[1:] * karr * powers[:-1])
        vals[idx + direction] = (y1, yp1)

    for idx in range(idx_top, idx0 + 1, -1):
        _advance(idx, -1)
    for idx in range(idx0, 0, -1):
        _advance(idx, -1)

    # row k holds the k-th Taylor coefficient at every center
    coeffs = np.zeros((_N_LOCAL, len(centers)))
    for idx in range(len(centers)):
        y0, yp0 = vals[idx]
        a = _airy_taylor_coeffs(centers[idx], y0, yp0, _N_LOCAL)
        coeffs[:, idx] = a.astype(float)
    return centers.astype(float), coeffs


_CENTERS, _COEFFS = _build_tables()
_C0 = _CENTERS[0]
# the same layout for Ai': row k holds (k + 1) a_{k+1}
_DCOEFFS = _COEFFS[1:] * np.arange(1, _N_LOCAL)[:, None]

_U_ASY, _V_ASY = _U_LD.astype(float), _V_LD.astype(float)
# (-1)^k u_k and (-1)^k v_k: the coefficients of the right-hand expansions
_U_ALT = _U_ASY * (-1.0) ** np.arange(_N_ASY)
_V_ALT = _V_ASY * (-1.0) ** np.arange(_N_ASY)
# rows (-1)^m u_{2m} and (-1)^m u_{2m+1} (v likewise): the even and odd
# parts of the left-hand expansions, series in 1/zeta^2
_U_NEG = _U_ASY.reshape(-1, 2).T * (-1.0) ** np.arange(_N_ASY // 2)
_V_NEG = _V_ASY.reshape(-1, 2).T * (-1.0) ** np.arange(_N_ASY // 2)


def _local_series(x, table):
    """Horner sum of the tabulated local Taylor series at points in the core.

    table is _COEFFS or _DCOEFFS: row k holds the k-th coefficient at
    every center, so each step reads one row with take, into one buffer
    (mode="clip" also keeps take from buffering its output).
    """
    idx = np.rint((x - _C0) / _CENTER_STEP).astype(np.intp)
    delta = x - _CENTERS.take(idx, mode="clip")
    acc = table[-1].take(idx, mode="clip")
    buf = np.empty_like(acc)
    for row in table[-2::-1]:
        acc *= delta
        acc += row.take(idx, mode="clip", out=buf)
    return acc


def _asy_series(w, coeff):
    """sum_k coeff[k] w^k over the whole table, one in-place Horner pass."""
    acc = np.full_like(w, coeff[-1])
    for c in coeff[-2::-1]:
        acc *= w
        acc += c
    return acc


def _ai_pos_asymptotic(x, deriv):
    zeta = (2.0 / 3.0) * x ** 1.5
    if not deriv:
        pre = np.exp(-zeta) * x ** -0.25 / (2.0 * np.sqrt(np.pi))
        return pre * _asy_series(1.0 / zeta, _U_ALT)
    pre = -np.exp(-zeta) * x ** 0.25 / (2.0 * np.sqrt(np.pi))
    return pre * _asy_series(1.0 / zeta, _V_ALT)


def _log_ai_pos_asymptotic(x):
    zeta = (2.0 / 3.0) * x ** 1.5
    ser = _asy_series(1.0 / zeta, _U_ALT)
    return -zeta - 0.25 * np.log(x) - np.log(2.0 * np.sqrt(np.pi)) + np.log(ser)


def _ai_neg_asymptotic(x, deriv):
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    phase = zeta + 0.25 * np.pi
    w2 = 1.0 / (zeta * zeta)
    even, odd = _V_NEG if deriv else _U_NEG
    p = _asy_series(w2, even)
    q = _asy_series(w2, odd) / zeta
    if not deriv:
        return (np.sin(phase) * p - np.cos(phase) * q) / (np.sqrt(np.pi) * z ** 0.25)
    return -(np.cos(phase) * p + np.sin(phase) * q) * z ** 0.25 / np.sqrt(np.pi)


def _by_branch(x, core, pos, neg):
    """Evaluate core, pos and neg on the points of x in, right of and left
    of [_X_NEG_SWITCH, _X_POS_SWITCH], splitting x once.

    Returns the values (shaped like x, at least 1-d), the mask of the points
    right of the core, and whether x was 0-d.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    right = x > _X_POS_SWITCH
    left = x < _X_NEG_SWITCH
    for mask, fn in ((~(right | left), core), (right, pos), (left, neg)):
        if mask.any():
            out[mask] = fn(x[mask])
    return out, right, scalar


def _airy_eval(x, deriv):
    out, _, scalar = _by_branch(
        x, lambda v: _local_series(v, _DCOEFFS if deriv else _COEFFS),
        lambda v: _ai_pos_asymptotic(v, deriv), lambda v: _ai_neg_asymptotic(v, deriv))
    return out[0] if scalar else out


def airy_ai(x):
    """Airy function Ai(x) for real x (scalar or array), abs err < 1e-13 on |x|<=12."""
    return _airy_eval(x, deriv=False)


def airy_ai_prime(x):
    """Derivative Ai'(x) for real x (scalar or array), abs err < 1e-13 on |x|<=12."""
    return _airy_eval(x, deriv=True)


def airy_ai_log_abs(x):
    """Return (log|Ai(x)|, sign(Ai(x))) without overflow/underflow.

    The log branch for large positive x keeps kernels of the form
    exp(big)*Ai(big) computable: the exponentially scaled value is carried
    in log space and callers combine exponents before exponentiating.  For
    x >= 0 the log has relative error < 1e-13 (absolute where |log Ai| < 1);
    for x < 0, sign * exp(log) is Ai to the accuracy of airy_ai.
    """
    # right of the core the branch returns log Ai itself, Ai > 0 there
    v, right, scalar = _by_branch(x, lambda u: _local_series(u, _COEFFS),
                                  _log_ai_pos_asymptotic,
                                  lambda u: _ai_neg_asymptotic(u, False))
    sign = np.sign(v)
    sign[right] = 1.0
    with np.errstate(divide="ignore"):
        logv = np.log(np.abs(v))
    logv[right] = v[right]
    if scalar:
        return logv[0], sign[0]
    return logv, sign


# ----------------------------------------------------------------------------
# complex log-Gamma: Stirling series pushed right by the recurrence
# ----------------------------------------------------------------------------

# B_{2n}/(2n(2n-1)) for the Stirling tail
_STIRLING = np.array([
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
    77683.0 / 5796.0,
])
_STIRLING_SHIFT = 11.0
_LOG_2PI = 1.8378770664093453


class GammaPoleError(ValueError):
    """Raised when log_gamma is evaluated at (or within 1e-14 of) a pole."""


def log_gamma(z):
    """Principal-branch complex log-Gamma, relative error < 1e-12 on the strip
    Re z in [-10, 10], |Im z| <= 50.

    Uses the Stirling asymptotic series after shifting Re z above 11 with the
    recurrence logGamma(z) = logGamma(z+m) - sum log(z+j); the shift logs are
    principal and never cross the branch cut for Im z != 0, and for real z > 0
    everything is real, so the result is the standard analytic continuation.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z).copy()

    near_pole = (np.abs(z.imag) < 1e-14) & (np.abs(z.real - np.rint(z.real)) < 1e-14) & (
        np.rint(z.real) <= 0
    )
    if np.any(near_pole):
        raise GammaPoleError(f"log_gamma pole at z={z[near_pole][0]}")

    shift = np.maximum(0, np.ceil(_STIRLING_SHIFT - z.real).astype(int))
    max_shift = int(shift.max()) if shift.size else 0
    corr = np.zeros_like(z)
    for j in range(max_shift):
        mask = shift > j
        corr[mask] += np.log(z[mask] + j)
    zs = z + shift

    w = 1.0 / (zs * zs)
    tail = np.zeros_like(z)
    pw = 1.0 / zs
    for c in _STIRLING:
        tail += c * pw
        pw *= w
    out = (zs - 0.5) * np.log(zs) - zs + 0.5 * _LOG_2PI + tail - corr
    return out[0] if scalar else out
