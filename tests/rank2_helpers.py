"""Shared tools of the rank-2 roof tests: meshes and member rows built with
plain numpy, independent of the package's own sphere code, the seeded
states, and the check that a result is a certified stage answer."""

import math

import numpy as np

from teleport_ent import random_density_matrix, spectral_decomposition
from teleport_ent.mixed import MANIFOLD_TOL


def fibonacci_sphere(n):
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    rad = np.sqrt(1.0 - z * z)
    return np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])


def range_states(n):
    """Unit coefficient rows (a, b) with Bloch vectors n, by polar angles."""
    theta = np.arccos(np.clip(n[:, 2], -1.0, 1.0))
    azimuth = np.arctan2(n[:, 1], n[:, 0])
    return np.column_stack([np.cos(theta / 2), np.exp(1j * azimuth) * np.sin(theta / 2)])


def seeded(seed):
    return random_density_matrix(3, np.random.default_rng(seed), rank=2)


def assert_certified(rho, res, obj):
    """res is a stage answer: converged in no descent step, an isometry to
    MANIFOLD_TOL, and valued by obj's certificate."""
    comps = spectral_decomposition(rho).members()
    v = res.argument_unitary
    assert (res.converged, res.iterations_used) == (True, 0)
    assert np.abs(v.conj().T @ v - np.eye(2)).max() <= MANIFOLD_TOL
    assert res.value == obj.of_members(v @ comps)
