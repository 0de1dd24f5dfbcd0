"""Central finite differences with the package-wide stencil policy.

The step for first derivatives of smooth functions is cbrt(eps) * max(1, |x|),
applied per coordinate. Every source carries its own exact derivatives, so
central differences serve only christoffel_from_metric, for two callers that
no run reaches: geometry.christoffel_at, the reference the tests hold each
chart's geodesic_term against, and gpw.full_christoffel, the reference they
hold the full-geodesic oracle's exact acceleration against. The oracle's
independence from the split reduction lies in its full-dimensional
Lorentzian integration and LU solve, not in finite differences. Nothing here
assumes a signature.
"""

import numpy as np

#: cube root of double-precision machine epsilon, the optimal central-difference step scale
FD_STEP_SCALE = float(np.cbrt(np.finfo(float).eps))


def fd_step(x):
    """Stencil half-width for differentiating at scalar coordinate value x."""
    return FD_STEP_SCALE * max(1.0, abs(float(x)))


def partial_in_coord(f, x, i, h=None):
    """Central difference of f (scalar- or array-valued) in coordinate i at point x."""
    x = np.asarray(x, dtype=float)
    hi = fd_step(x[i]) if h is None else h
    xp = x.copy()
    xm = x.copy()
    xp[i] += hi
    xm[i] -= hi
    return (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * hi)


def gradient_fd(f, x, h=None):
    """All first partials of f at x, stacked on a new first axis (a covector for scalar f)."""
    x = np.asarray(x, dtype=float)
    return np.array([partial_in_coord(f, x, i, h=h) for i in range(x.size)])


def symmetric_part(a):
    """0.5 * (a + a^T) over the last two axes, with the floats of that expression.

    The sum is formed as a^T + a in a contiguous copy of a^T: addition
    commutes exactly (only which of two NaNs comes through can differ), and
    small contiguous arrays add faster.
    """
    out = a.swapaxes(-1, -2).copy()
    out += a
    out *= 0.5
    return out


def christoffel_lower(dg):
    """Christoffel symbols of the first kind from the metric partials dg[i] = ∂_i G.

    Γ_lij = 1/2 (∂_i g_jl + ∂_j g_il − ∂_l g_ij), indexed [l, i, j], which
    christoffel_from_partials raises. A chart's geodesic term
    (geometry.ChartManifold) is this formula contracted twice with the
    velocity, and the tests hold the two together.
    """
    return 0.5 * (dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg)


def christoffel_from_partials(g, dg):
    """Levi-Civita symbols Γ^k_ij = g^{kl} Γ_lij, shape (n, n, n), symmetric in (i, j)."""
    return symmetric_part(np.einsum("kl,lij->kij", np.linalg.inv(g), christoffel_lower(dg)))


def christoffel_from_metric(metric, x, h=None):
    """Levi-Civita symbols of metric(x) from central differences of the metric.

    Nothing assumes a signature. G is evaluated at x before the stencil points.
    """
    x = np.asarray(x, dtype=float)
    g = metric(x)
    return christoffel_from_partials(g, gradient_fd(metric, x, h=h))
