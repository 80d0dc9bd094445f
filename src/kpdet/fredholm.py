"""Nystrom discretization, Fredholm determinants and the boundary resolvent.

The determinant det(I - K) of a block kernel on a direct sum of L^2[0, inf)
spaces is approximated by the symmetric-scaled Nystrom matrix with entries
sqrt(w_i) K(u_i, u_j) sqrt(w_j).  The boundary resolvent

    Q[a, b] = [(I - K)^(-1) K]_{ab}(0, 0)

is evaluated through the resolvent identity R = K + K (I-K)^(-1) K, with the
kernel evaluated directly at the boundary points (exact, no node
extrapolation).  Its trace is the simultaneous-level logarithmic derivative
of the determinant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import BlockKernel, build_block_kernel
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


@dataclass
class Discretization:
    """Assembled symmetric-scaled Nystrom matrix for det(I - K)."""

    kernel: BlockKernel
    rule: QuadRule
    matrix: np.ndarray


def assemble(spec_or_kernel, n_quad: int = 64) -> Discretization:
    """Assemble the scaled Nystrom matrix for a KernelSpec or BlockKernel."""
    if not (8 <= n_quad <= 512):
        raise ValueError("n_quad must lie in [8, 512]")
    kernel = (spec_or_kernel if hasattr(spec_or_kernel, "block")
              else build_block_kernel(spec_or_kernel))
    rule = panel_rule((0.0, getattr(kernel.spec, "domain_cut", 0.0) or np.inf), n_quad, 4.0)
    n = kernel.n_blocks
    sw = np.sqrt(rule.weights)
    m = np.empty((n * n_quad, n * n_quad))
    for a in range(n):
        for b in range(n):
            blk = kernel.block(a, b, rule.nodes, rule.nodes)
            m[a * n_quad:(a + 1) * n_quad, b * n_quad:(b + 1) * n_quad] = (
                sw[:, None] * blk * sw[None, :]
            )
    if not np.all(np.isfinite(m)):
        raise FloatingPointError("non-finite entries in Nystrom matrix")
    return Discretization(kernel, rule, m)


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

    The boundary blocks come from the assembled kernel, so a factored
    kernel reuses the factors it cached on the nodes and adds only those
    at the boundary point 0.
    """
    sign, logdet = _slogdet(disc)
    det = sign * np.exp(logdet)
    if abs(det) < 1e-12 or not np.isfinite(det):
        raise SingularOperatorError(f"det(I-K) = {det}: resolvent undefined")
    kernel, rule, nq = disc.kernel, disc.rule, disc.rule.n
    n = kernel.n_blocks
    sw = np.sqrt(rule.weights)
    zero = np.zeros(1)
    # boundary rows/columns against the quadrature nodes
    row = np.empty((n, n * nq))     # K_ac(0, u_j), scaled
    col = np.empty((n * nq, n))     # K_cb(u_i, 0), scaled
    k00 = np.empty((n, n))
    for a in range(n):
        for c in range(n):
            row[a, c * nq:(c + 1) * nq] = kernel.block(a, c, zero, rule.nodes)[0] * sw
            col[c * nq:(c + 1) * nq, a] = kernel.block(c, a, rule.nodes, zero)[:, 0] * sw
            k00[a, c] = kernel.block(a, c, zero, zero)[0, 0]
    resolv = np.linalg.solve(np.eye(n * nq) - disc.matrix, col)
    return k00 + row @ resolv


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
