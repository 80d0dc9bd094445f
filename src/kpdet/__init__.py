"""Fredholm determinants of KPZ fixed point kernels and KP-equation checks.

Modules
-------
specfun     Airy function / derivative, complex log-Gamma
quadrature  Gauss-Legendre rules and panel_rule, the one mapped-rule constructor
kernels     kernel families (narrow wedges, flat, KPZ narrow wedge, spiked)
fredholm    Nystrom assembly, det(I-K), boundary resolvent
painleve    Hastings-McLeod solution, Tracy-Widom distributions
scattering  Brownian hitting kernels, t->0 limits, path-integral form
residuals   finite-difference residuals of the KP/Hirota identities
fields      determinant-field builders on lattices
kpsolver    periodic pseudo-spectral KP-II integrator
cli         batch experiment runner

The errors of parameters outside a computation's domain share the base
``DomainError``; the CLI reports each as one ``config error:`` line.
"""

__version__ = "0.1.0"


class DomainError(ValueError):
    """Parameter outside the domain of a computation (a kernel's t <= 0, a
    point below the solved Painleve interval, a lattice too small for its
    stencil, ...)."""


__all__ = [
    "specfun", "quadrature", "kernels", "fredholm", "painleve",
    "scattering", "residuals", "fields", "kpsolver", "cli",
]
