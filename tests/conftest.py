import dataclasses

import numpy as np
import pytest

from wavetraj.catalog import build_manifold, build_potential
from wavetraj.dynamics import FREE
from wavetraj.hypotheses import BoundData, CertificationTask, certify


def box_grid(lo, hi, shape):
    """Uniform box grid as rows of chart points."""
    axes = [np.linspace(lo[i], hi[i], shape[i]) for i in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def window(alpha0, beta0, T, grid=((0.0,),)):
    """Bounds alpha0 and beta0 sampled at 41 times spanning [-T, T], on the points of grid."""
    return BoundData(alpha0=alpha0, beta0=beta0, grid=grid, t_grid=np.linspace(-T, T, 41))


def evidence(manifold, bounds, **task):
    """certify's evidence for a force= or a wave= task, by premise name."""
    cert = certify(CertificationTask(manifold=manifold, bounds=bounds, **task))
    return {check.name: check for check in cert.evidence}


def tensor_force(tensor_F):
    """The zero potential, with its derivatives, plus the tensor force tensor_F."""
    return dataclasses.replace(FREE, tensor_F=tensor_F)


@pytest.fixture
def euclidean2():
    return build_manifold("euclidean", {"n": 2})


@pytest.fixture
def euclidean1():
    return build_manifold("euclidean", {"n": 1})


@pytest.fixture
def hyperbolic():
    return build_manifold("hyperbolic_half_plane", {})


@pytest.fixture
def harmonic():
    return build_potential("harmonic", {}, 2)


@pytest.fixture
def free():
    return build_potential("zero", {}, 2)
