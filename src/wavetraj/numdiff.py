"""Central finite differences with the package-wide stencil policy.

The step for first derivatives of smooth functions is cbrt(eps) * max(1, |x|),
applied per coordinate. All finite-difference fallbacks (metric derivatives,
potential derivatives, wave-coefficient derivatives) share this policy so the
accuracy model is uniform. Christoffel symbols of any metric, Riemannian or
Lorentzian, come from christoffel_from_metric.
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


def partial_in_scalar(f, t, h=None):
    """Central difference of f in a scalar argument t."""
    ht = fd_step(t) if h is None else h
    return (f(t + ht) - f(t - ht)) / (2.0 * ht)


def gradient_fd(f, x, h=None):
    """All first partials of f at x, stacked on a new first axis (a covector for scalar f)."""
    x = np.asarray(x, dtype=float)
    return np.array([partial_in_coord(f, x, i, h=h) for i in range(x.size)])


def christoffel_from_metric(metric, x, h=None):
    """Levi-Civita symbols Γ^k_ij of metric(x), shape (n, n, n), symmetric in (i, j).

    Γ^k_ij = 1/2 g^{kl} (∂_i g_jl + ∂_j g_il − ∂_l g_ij) with central
    differences of the metric; nothing assumes a signature. G is evaluated at
    x before the stencil points.
    """
    x = np.asarray(x, dtype=float)
    g = metric(x)
    dg = gradient_fd(metric, x, h=h)
    # brackets[l,i,j] = ∂_i g_jl + ∂_j g_il − ∂_l g_ij
    brackets = dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg
    gamma = 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(g), brackets)
    return 0.5 * (gamma + gamma.transpose(0, 2, 1))
