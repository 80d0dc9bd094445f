"""Periodic pseudo-spectral KP-II integrator and the determinant-field closure test.

The equation

    phi_t + phi phi_r + (1/12) phi_rrr + (1/4) dr^{-1} phi_xx = 0

is integrated with a fourth-order exponential (ETDRK4) scheme: the linear
phase exp(dt (i k_r^3/12 - i k_x^2/(4 k_r))) is applied exactly, the
nonlinear term -(1/2) d_r(phi^2) is dealiased by the 2/3 rule.  phi is
real and even in x, so the state is the rows k_x >= 0 of its rfft-in-r
spectrum, whose x transform is a cosine matrix (Boyd, ch. 8).

Determinant-derived fields ride on a ramp (phi ~ r/(2t) as r -> -inf), so
the plain zero-mean spectral antiderivative would misrepresent dr^{-1} by a
column mean.  Instead dr^{-1} is anchored at the top of the box, where
d_r log F -> 0: the mean-free part is inverted spectrally and shifted to
vanish at the anchor row, and the per-column mean of phi_xx is carried by
an explicit smooth pseudo-ramp that is exact over the trusted window and
returns to periodicity inside the pads.  Both corrections are rank one in
(x, r) and vanish at kx = 0.  The pseudo-ramp term's stiff kr = 0 diagonal is
in the exponential phase; the rest is one real rank-two product in Fourier space.
"""

from __future__ import annotations

import numpy as np
from numpy import fft

__all__ = [
    "KPSolver",
    "BlowUpError",
    "soliton_profile",
    "soliton_sup_error",
    "smooth_window",
    "evolve_and_compare",
]

# Taylor coefficients in lam of q_half/dt, f1/dt, f2/dt and f3/dt, highest
# power first, for |lam| < 1 where the closed forms cancel: 2^{-n-1}/(n+1)!,
# then (n+1)^2, n+1 and 1-n over (n+3)!; the first term left out is < 3e-27
_N = np.arange(24.0, -1.0, -1.0)
_TAYLOR = (np.stack([(_N + 2) * (_N + 3) / 2.0 ** (_N + 1), (_N + 1) ** 2, _N + 1, 1 - _N])
           / (2.0 * np.cumprod(np.arange(3.0, 28.0))[::-1]))


class BlowUpError(RuntimeError):
    """Solution sup-norm exceeded the blow-up guard."""


def soliton_profile(r, c):
    """Line soliton 3c sech^2(sqrt(3c) r) of the KdV reduction."""
    return 3.0 * c / np.cosh(np.sqrt(3.0 * c) * r) ** 2


def soliton_sup_error(dt, big_t):
    """Sup error at big_t of the line soliton soliton_profile(r, 0.5) on the
    512-point box r in [-20, 20], x in [-0.5, 0.5] with one row, after
    round(big_t / dt) steps of dt, against its exact periodic translate."""
    solver = KPSolver((-20.0, 20.0), (-0.5, 0.5), 512, 1, dt)
    out = solver.evolve(soliton_profile(solver.r, 0.5)[None, :], round(big_t / dt))
    ref = soliton_profile((solver.r - 0.5 * big_t + 20.0) % 40.0 - 20.0, 0.5)
    return float(np.max(np.abs(out - ref)))


def smooth_window(xi):
    """C-infinity step: 0 for xi <= 0, 1 for xi >= 1."""
    xi = np.clip(xi, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        f = np.where(xi > 0, np.exp(-1.0 / np.maximum(xi, 1e-12)), 0.0)
        g = np.where(xi < 1, np.exp(-1.0 / np.maximum(1 - xi, 1e-12)), 0.0)
    return f / (f + g)


def _etd_coeffs(lam, dt):
    """ETDRK4 coefficients (e^lam, e^{lam/2}, q_half, f1, f2, f3) at lam = dt L.

    q_half = dt (e^{lam/2} - 1)/lam; f1, f2, f3 are dt times the Cox-Matthews
    phi1 - 3 phi2 + 4 phi3, phi2 - 2 phi3 and 4 phi3 - phi2 of phi_{k+1} =
    (phi_k - 1/k!)/lam, phi_0 = e^lam, for |lam| >= 1, and Taylor series below.
    """
    lam = np.asarray(lam, dtype=complex)
    e_full, e_half = np.exp(lam), np.exp(lam / 2.0)
    small = np.abs(lam) < 1.0
    out = np.empty((4,) + lam.shape, dtype=complex)
    out[:, small] = [np.polyval(coef, lam[small]) for coef in _TAYLOR]
    z = lam[~small]
    phi1 = (e_full[~small] - 1.0) / z
    phi2 = (phi1 - 1.0) / z
    phi3 = (phi2 - 0.5) / z
    out[:, ~small] = ((e_half[~small] - 1.0) / z, phi1 - 3.0 * phi2 + 4.0 * phi3,
                      phi2 - 2.0 * phi3, 4.0 * phi3 - phi2)
    q_half, f1, f2, f3 = dt * out
    return e_full, e_half, q_half, f1, f2, f3


# The anchored dr^{-1} corrections, less their kr = 0 diagonal, are stepped
# explicitly, with a gain of about S = kx_max^2 len_r dt / 4 per stage; up to
# S = 40 even-half and full-spectrum steps agree to 1e-13 of max|.|; beyond,
# rounding grows with S (1e-17 in rows kx != 0 became 0.035 in 100 steps at 101).
_MAX_STEP_GAIN = 40.0


class KPSolver:
    """ETDRK4 stepper on a fixed periodic box, for fields even in x.

    The field is kept on its rows x_0 .. x_{n_x // 2}, the state on the rows
    kx >= 0 of its r-half spectrum.  The constructor refuses step_gain
    S = kx_max^2 len_r dt / 4 > 40 (the closure's is 14.7, stable to 39.9).
    """

    def __init__(self, box_r, box_x, n_r, n_x, dt):
        self.r_lo, self.r_hi = box_r
        self.x_lo, self.x_hi = box_x
        self.len_r = self.r_hi - self.r_lo
        self.len_x = self.x_hi - self.x_lo
        self.n_r, self.n_x = n_r, n_x
        self.r = self.r_lo + self.len_r * np.arange(n_r) / n_r
        self.x = self.x_lo + self.len_x * np.arange(n_x) / n_x
        self.dt = dt
        n_h = n_r // 2 + 1
        # fftfreq's kr on the rfft columns: the Nyquist column of an even n_r
        # takes the negative kr, as in the full spectrum (the operator is odd in kr)
        kr = 2.0 * np.pi * np.fft.fftfreq(n_r, d=self.len_r / n_r)[:n_h]
        k = np.arange(n_x // 2 + 1)   # rows kx >= 0; only kx^2 enters
        kx = 2.0 * np.pi * k / self.len_x
        self._kx2 = kx ** 2
        self.step_gain = float(self._kx2[-1] * self.len_r * dt / 4.0)
        if self.step_gain > _MAX_STEP_GAIN:
            raise ValueError(f"step gain {self.step_gain:.3g} above 40; reduce dt or n_x")
        # the DFT in x of an even field folded onto rows k >= 0 (DCT-I for
        # even n_x); rows 0 and n_x / 2 stand for one grid row, the others two
        cos = np.cos(2.0 * np.pi * (np.outer(k, k) % n_x) / n_x)
        self._cos = cos * np.where((k == 0) | (2 * k == n_x), 1.0, 2.0)
        self._cos_inv = self._cos / n_x
        with np.errstate(divide="ignore", invalid="ignore"):
            lin = 1j * kr ** 3 / 12.0 - 1j * self._kx2[:, None] / (4.0 * kr)
        # anchored antiderivative machinery; the anchor row sits just below
        # the pseudo-ramp's return dip (top ~10% of the box)
        anchor_r = self.r_lo + 0.88 * self.len_r
        self._anchor_idx = int(np.argmin(np.abs(self.r - anchor_r)))
        self.pseudo_ramp = self._build_pseudo_ramp()
        # the kr = 0 column of the pseudo-ramp correction is the diagonal
        # (kx^2/4) mean(pseudo_ramp) <= 0 (-1281 on the closure's Nyquist
        # row): stepped exactly here, so the ramp enters _nonlinear mean-free
        lin[:, 0] = 0.25 * self._kx2 * np.mean(self.pseudo_ramp)
        self.e_full, self.e_half, self.q_half, self.f1, f2, self.f3 = _etd_coeffs(dt * lin, dt)
        self.two_f2 = 2.0 * f2
        # -(1/2) d_r with the 2/3 dealiasing mask
        mask_r = np.abs(kr) <= (2.0 / 3.0) * np.max(np.abs(kr))
        mask_x = (kx <= (2.0 / 3.0) * kx[-1]) | (n_x <= 3)
        self._half_dr = (-0.5j * kr) * (mask_x[:, None] & mask_r[None, :])
        # the corrections are one rank-two product Re(-kx^2 Y R) S of a half
        # spectrum Y: R's columns read the column means and the anchor row of
        # dr^{-1} (the irfft weights w of that row over i kr); S lays them on
        # -rfft(ramp)/4 (its kr = 0 entry is stepped above) and on kr = 0
        w = 2.0 * np.exp(2j * np.pi * np.arange(n_h) * self._anchor_idx / n_r) / n_r
        if n_r % 2 == 0:
            w[-1] = (-1.0) ** self._anchor_idx / n_r
        self._corr_r, self._corr_s = np.zeros((n_h, 2), complex), np.zeros((2, n_h), complex)
        self._corr_r[0, 0], self._corr_s[1, 0] = 1.0 / n_r, 0.25 * n_r
        self._corr_r[1:, 1] = w[1:] / (1j * kr[1:])
        self._corr_s[0, 1:] = -0.25 * fft.rfft(self.pseudo_ramp)[1:]

    def _build_pseudo_ramp(self):
        """Periodic pseudo-ramp with slope 1 everywhere except a C-infinity
        return dip in the top ~10% of the box, zero at the anchor row.

        It carries the column-mean part of dr^{-1} phi_xx exactly over the
        trusted window; the deliberate error is confined to the dip, which
        lies above the anchor inside the upper pad.
        """
        n = self.n_r
        u = np.arange(n) / n
        g = smooth_window((u - 0.90) / 0.03) * smooth_window((0.99 - u) / 0.03)
        g_int = np.sum(g) * (self.len_r / n)
        ramp_prime = 1.0 - (self.len_r / g_int) * g
        ramp_prime -= np.mean(ramp_prime)
        ramp = np.cumsum(ramp_prime) * (self.len_r / n)
        mid = slice(n // 5, 3 * n // 5)
        slope = np.mean(np.diff(ramp[mid])) / (self.len_r / n)
        ramp = ramp / slope
        return ramp - ramp[self._anchor_idx]

    def _forward(self, phi):
        """Half spectrum of the even field whose rows x_0 .. x_{n_x // 2} are phi."""
        return fft.rfft(np.dot(self._cos, phi))

    def _inverse(self, v):
        """Rows x_0 .. x_{n_x // 2} of the even field with half spectrum v."""
        return np.dot(self._cos_inv, fft.irfft(v, self.n_r))

    def _nonlinear(self, phi_hat, phi=None):
        """-(1/2) d_r phi^2 plus the anchored-dr^{-1} corrections, in Fourier
        (phi, if given, is _inverse(phi_hat))."""
        if phi is None:
            phi = self._inverse(phi_hat)
        nl_hat = self._half_dr * self._forward(phi * phi)
        # corrections making dr^{-1}(phi_xx) anchored at the top row,
        # -(1/4)(means (x) pseudo_ramp - a_anchor (x) 1): column means of phi_xx
        # ride the pseudo-ramp, the mean-free spectral antiderivative is shifted
        # to vanish at the anchor row; both are real, so are their cosine rows,
        # and both vanish on the row kx = 0
        nl_hat[1:] += (-self._kx2[1:, None] * (phi_hat[1:] @ self._corr_r)).real @ self._corr_s
        return nl_hat

    def step(self, v, phi=None):
        """One step of dt from the half spectrum v: (the new half spectrum,
        its phi).  phi, if given, is _inverse(v) and saves that transform."""
        n0 = self._nonlinear(v, phi)
        # a = e_half v + q_half n0, b = e_half v + q_half na,
        # c = e_half a + q_half (2 nb - n0) and
        # out = e_full v + f1 n0 + 2 f2 (na + nb) + f3 nc, formed in place;
        # each stage value is scratch once it has been used
        ev = self.e_half * v
        a = self.q_half * n0
        a += ev
        na = self._nonlinear(a)
        b = self.q_half * na
        b += ev
        nb = self._nonlinear(b)
        c = 2.0 * nb
        c -= n0
        c *= self.q_half
        a *= self.e_half
        c += a
        nc = self._nonlinear(c)
        out = self.e_full * v
        n0 *= self.f1
        out += n0
        na += nb
        na *= self.two_f2
        out += na
        nc *= self.f3
        out += nc
        return out, self._inverse(out)

    def evolve(self, phi0: np.ndarray, n_steps: int) -> np.ndarray:
        """phi0 of shape (n_x, n_r), even in x, after n_steps steps of dt."""
        if n_steps < 0:
            raise ValueError(f"n_steps = {n_steps} is negative")
        mirror = np.minimum(np.arange(self.n_x), self.n_x - np.arange(self.n_x))
        phi = np.asarray(phi0, dtype=float)
        if not np.array_equal(phi, phi[mirror], equal_nan=True):
            raise ValueError("phi0 is not even in x: phi0[k] != phi0[-k mod n_x]")
        phi = phi[:self.n_x // 2 + 1]
        v = self._forward(phi)
        for k in range(1, n_steps + 1):
            v, phi = self.step(v, phi)
            if np.max(np.abs(phi)) > 1e6:
                raise BlowUpError(f"|phi| = {np.max(np.abs(phi)):.3g} at t={k * self.dt:.6g}")
        return phi[mirror]


def evolve_and_compare(phi_builder, t0: float, t1: float):
    """Embed a determinant field at t0, evolve under KP-II, compare at t1.

    phi_builder(t, x_grid, r_grid) -> phi of shape (x_grid.size, r_grid.size)
    is called at t0 on the periodic box (512 r points on the window [-8, 6]
    padded by 6 below and 3.5 above, 64 x points on [-4.5, 4.5]), stepped at
    the dt nearest 5e-3 that divides t1 - t0, and at t1 only where the two are
    compared: the central 60% of the window [-8, 6] x [-3, 3] in both
    directions.  Returns a dict with the interior sup/L2 errors, the
    embedding metadata, and under "fields" the interior rows [x, r, evolved
    phi, target phi, |difference|].
    """
    if not 0.0 <= t1 - t0 <= 0.2 + 1e-12:
        raise ValueError(f"t1 - t0 = {t1 - t0:.6g} must lie in [0, 0.2]")
    window_r, window_x = (-8.0, 6.0), (-3.0, 3.0)
    pad_lo, pad_hi = 6.0, 3.5
    box_r = (window_r[0] - pad_lo, window_r[1] + pad_hi)
    dt = 5.0e-3
    n_steps = int(round((t1 - t0) / dt))
    if n_steps:
        dt = (t1 - t0) / n_steps
    solver = KPSolver(box_r, (-4.5, 4.5), 512, 64, dt)
    r, x = solver.r, solver.x

    # C-infinity taper: 1 on a margin inside the box, 0 at the edges
    taper = (smooth_window((r - box_r[0]) / (0.75 * pad_lo))
             * smooth_window((box_r[1] - r) / (0.75 * pad_hi)))

    phi_raw = phi_builder(t0, x, r)
    phi0 = phi_raw * taper[None, :]
    phi_end = solver.evolve(phi0, n_steps)

    r_span = window_r[1] - window_r[0]
    x_span = window_x[1] - window_x[0]
    mask_r = (r >= window_r[0] + 0.2 * r_span) & (r <= window_r[1] - 0.2 * r_span)
    mask_x = (x >= window_x[0] + 0.2 * x_span) & (x <= window_x[1] - 0.2 * x_span)
    interior = np.ix_(mask_x, mask_r)
    target = phi_builder(t1, x[mask_x], r[mask_r])
    diff = phi_end[interior] - target
    xi, ri = np.meshgrid(x[mask_x], r[mask_r], indexing="ij")
    return {
        "sup_error": float(np.max(np.abs(diff))),
        "l2_error": float(np.sqrt(np.mean(diff ** 2))),
        "n_x": solver.n_x,
        "n_r": solver.n_r,
        "n_steps": n_steps,
        "dt": float(solver.dt),
        "box_r": box_r,
        "interior_r": (float(ri[0, 0]), float(ri[0, -1])),
        "edge_taper_max_change": float(np.max(np.abs(phi0 - phi_raw)[interior])),
        "fields": np.stack([xi, ri, phi_end[interior], target, np.abs(diff)],
                           axis=-1).reshape(-1, 5).tolist(),
    }
