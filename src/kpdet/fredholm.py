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

The boundary bracket check takes its kernels in the same whole-operator
form (u, v) -> (n |u|) x (n |v|) as ``BlockKernel.block``, so each bracket
product is one matrix product.
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


def _where(spec, n: int) -> str:
    """The point of spec and the Nystrom size n, as refusals name them."""
    return (f"{spec.family} at t = {spec.t:.6g}, x = {', '.join(f'{v:.6g}' for v in spec.xs)}, "
            f"r = {', '.join(f'{v:.6g}' for v in spec.rs)}, n = {n}")


def assemble(spec_or_kernel, n_quad: int = 64) -> Discretization:
    """Assemble the scaled Nystrom matrix for a KernelSpec or BlockKernel
    from one evaluation of the whole operator, on the nodes and 0; only the
    matrix must be finite."""
    if not (8 <= n_quad <= 512):
        raise ValueError("n_quad must lie in [8, 512]")
    kernel = (spec_or_kernel if hasattr(spec_or_kernel, "block")
              else BlockKernel(spec_or_kernel))
    rule = panel_rule((0.0, getattr(kernel.spec, "domain_cut", 0.0) or np.inf), n_quad, 4.0)
    n, nq = kernel.n_blocks, n_quad
    pts = np.append(rule.nodes, 0.0)
    # ext[a, i, b, j] = K_ab(pts_i, pts_j); index nq is the boundary point
    ext = kernel.block(pts, pts).reshape(n, nq + 1, n, nq + 1)
    sw = np.sqrt(rule.weights)
    m = sw[:, None, None] * ext[:, :nq, :, :nq]
    m *= sw
    row = (ext[:, nq, :, :nq] * sw).reshape(n, n * nq)
    col = (ext[:, :nq, :, nq] * sw[:, None]).reshape(n * nq, n)
    if not np.all(np.isfinite(m)):
        raise FloatingPointError(
            f"non-finite entries in Nystrom matrix: {_where(kernel.spec, nq)}")
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

def boundary_bracket_product_check(a, d2a, b, d1b, n_quad: int = 96) -> float:
    """Residual of the integration-by-parts identity

        [A][B] + [A D1B + D2A B] = 0

    for n-block kernels given, with analytic first partials, as whole-operator
    callables (u, v) -> (n |u|) x (n |v|) like ``BlockKernel.block``:
    [A] = A(0, 0) and [A B] = sum_c int A_ac(0, s) B_cb(s, 0) ds on one rule.
    Returns the max-abs entry of the left-hand side.
    """
    rule = panel_rule((0.0, np.inf), n_quad, 2.0)
    zero, s = np.zeros(1), rule.nodes
    w = np.tile(rule.weights, a(zero, zero).shape[0])

    def product(x, y):
        return (x(zero, s) * w) @ y(s, zero)

    lhs = a(zero, zero) @ b(zero, zero) + product(a, d1b) + product(d2a, b)
    return float(np.max(np.abs(lhs)))
