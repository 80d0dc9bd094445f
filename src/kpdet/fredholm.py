"""Nystrom discretization, Fredholm determinants and the boundary resolvent.

The determinant det(I - K) of a block kernel on a direct sum of L^2[0, inf)
spaces is approximated by the symmetric-scaled Nystrom matrix with entries
sqrt(w_i) K(u_i, u_j) sqrt(w_j).  The boundary resolvent

    Q[a, b] = [(I - K)^(-1) K]_{ab}(0, 0)

is evaluated through the resolvent identity R = K + K (I-K)^(-1) K, with the
kernel at the boundary point 0 exact (no node extrapolation): assembly
evaluates each block on the quadrature nodes and 0 together and keeps the
boundary row, column and corner.  The trace of Q is the simultaneous-level
logarithmic derivative of the determinant.
"""

from __future__ import annotations

import warnings

import numpy as np

from .kernels import BlockKernel
from .quadrature import QuadRule, panel_rule

__all__ = [
    "Discretization",
    "SingularOperatorError",
    "assemble",
    "det_one_minus",
    "log_det_one_minus",
    "boundary_resolvent",
    "bracket",
    "boundary_bracket_product_check",
]


class SingularOperatorError(RuntimeError):
    """det(I - K) vanished where the resolvent was required."""


class Discretization:
    """Assembled symmetric-scaled Nystrom matrix for det(I - K), with the
    kernel at the boundary point 0: row[a, (c, j)] = K_ac(0, u_j) sqrt(w_j),
    col[(c, i), b] = sqrt(w_i) K_cb(u_i, 0) and corner[a, b] = K_ab(0, 0)."""

    def __init__(self, kernel, rule: QuadRule, matrix, row, col, corner):
        self.kernel, self.rule, self.matrix = kernel, rule, matrix
        self.row, self.col, self.corner = row, col, corner


def assemble(spec_or_kernel, n_quad: int = 64) -> Discretization:
    """Assemble the scaled Nystrom matrix for a KernelSpec or BlockKernel,
    each block evaluated once, on the nodes and 0; only the matrix must be
    finite."""
    if not (8 <= n_quad <= 512):
        raise ValueError("n_quad must lie in [8, 512]")
    kernel = (spec_or_kernel if hasattr(spec_or_kernel, "block")
              else BlockKernel(spec_or_kernel))
    rule = panel_rule((0.0, getattr(kernel.spec, "domain_cut", 0.0) or np.inf), n_quad, 4.0)
    n, nq = kernel.n_blocks, n_quad
    pts = np.append(rule.nodes, 0.0)
    # ext[a, i, b, j] = K_ab(pts_i, pts_j); index nq is the boundary point
    ext = np.block([[kernel.block(a, b, pts, pts) for b in range(n)]
                    for a in range(n)]).reshape(n, nq + 1, n, nq + 1)
    sw = np.sqrt(rule.weights)
    m = sw[:, None, None] * ext[:, :nq, :, :nq]
    m *= sw
    row = (ext[:, nq, :, :nq] * sw).reshape(n, n * nq)
    col = (ext[:, :nq, :, nq] * sw[:, None]).reshape(n * nq, n)
    if not np.all(np.isfinite(m)):
        raise FloatingPointError("non-finite entries in Nystrom matrix")
    return Discretization(kernel, rule, m.reshape(n * nq, n * nq), row, col,
                          ext[:, nq, :, nq].copy())


def _slogdet(disc: Discretization) -> tuple[float, float]:
    sign, logdet = np.linalg.slogdet(np.eye(disc.matrix.shape[0]) - disc.matrix)
    return float(sign), float(logdet)


def log_det_one_minus(disc: Discretization) -> tuple[float, float]:
    """(sign, log|det(I - K)|) via LU."""
    return _slogdet(disc)


def det_one_minus(disc: Discretization) -> float:
    """det(I - K) via LU; warns when it falls below 1e-14."""
    sign, logdet = _slogdet(disc)
    value = float(sign * np.exp(logdet))
    if abs(value) < 1e-14:
        warnings.warn("det(I-K) below 1e-14: operator nearly singular",
                      RuntimeWarning, stacklevel=2)
    return value


def boundary_resolvent(disc: Discretization) -> np.ndarray:
    """Q[a,b] = K_ab(0,0) + sum_c int K_ac(0,s) [(I-K)^(-1)K]_cb(s,0) ds.

    The boundary row, column and corner come with the assembly, so the
    resolvent evaluates no kernel: it is one solve against the column.
    """
    sign, logdet = _slogdet(disc)
    det = sign * np.exp(logdet)
    if abs(det) < 1e-12 or not np.isfinite(det):
        raise SingularOperatorError(f"det(I-K) = {det}: resolvent undefined")
    resolv = np.linalg.solve(np.eye(disc.matrix.shape[0]) - disc.matrix, disc.col)
    return disc.corner + disc.row @ resolv


# ----------------------------------------------------------------------------
# boundary bracket algebra on explicit test kernels
# ----------------------------------------------------------------------------

def bracket(blocks) -> np.ndarray:
    """[A] = matrix of A_ab(0, 0) for a grid of callable blocks."""
    n = len(blocks)
    out = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            out[a, b] = blocks[a][b](np.zeros(1), np.zeros(1))[0, 0]
    return out


def _bracket_of_product(ablocks, bblocks, rule: QuadRule) -> np.ndarray:
    """[A B]_ab = sum_c int A_ac(0, s) B_cb(s, 0) ds on the rule."""
    n = len(ablocks)
    zero, s, w = np.zeros(1), rule.nodes, rule.weights
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                out[a, b] += ((ablocks[a][c](zero, s) * w[None, :])
                              @ bblocks[c][b](s, zero))[0, 0]
    return out


def boundary_bracket_product_check(ablocks, d2_ablocks, bblocks, d1_bblocks,
                                   n_quad: int = 96) -> float:
    """Residual of the integration-by-parts identity

        [A][B] + [A D1B + D2A B] = 0

    for block kernels given with analytic first partials.  Returns the
    max-abs entry of the left-hand side.
    """
    rule = panel_rule((0.0, np.inf), n_quad, 2.0)
    lhs = bracket(ablocks) @ bracket(bblocks)
    ad1b = _bracket_of_product(ablocks, d1_bblocks, rule)
    d2ab = _bracket_of_product(d2_ablocks, bblocks, rule)
    return float(np.max(np.abs(lhs + ad1b + d2ab)))
