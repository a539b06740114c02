"""The rank-2 hull stage's member values on the Bloch sphere, and its
near-pure states.

`hull.rank2_stage` takes the member value g(n) of a rank-2 d = 3 state as a
jet: g with its gradient and Hessian in R^3.  The first test checks the jet
against the roof's own member formula and against central differences of g
along great circles of the sphere, where the Riemannian gradient is B^T grad
and the Riemannian Hessian B^T hess B - (n.grad) I.
"""

import warnings

import numpy as np
import pytest

from rank2_helpers import fibonacci_sphere, range_states, seeded
from teleport_ent import (
    DensityMatrix,
    OptimizerConfig,
    e_d2_mixed,
    e_d3_mixed,
    spectral_decomposition,
)
from teleport_ent import hull, mixed

SPHERES = {"e2": hull._e2_sphere, "e3": hull._e3_sphere}
MEMBERS = fibonacci_sphere(50)
STEP = 1e-4


def unit_components(rho):
    spectral = spectral_decomposition(rho)
    return (spectral.members() / np.sqrt(np.array(spectral.weights))[:, None]).reshape(2, 3, 3)


def arc(n, t, s):
    """The points cos(s) n + sin(s) t of the great circles through n along t."""
    return np.cos(s) * n + np.sin(s) * t


@pytest.mark.parametrize("seed", [12, 900, 901])
@pytest.mark.parametrize("kind", sorted(SPHERES))
def test_jet_matches_the_member_values_and_their_differences(kind, seed):
    phi = unit_components(seeded(seed))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet, _ = SPHERES[kind](phi)
        g, grad, hess = jet(MEMBERS)
        ref = mixed._RoofObjective(3, kind).values(
            (range_states(MEMBERS) @ phi.reshape(2, 9)).reshape(-1, 3, 3))[0]
        assert np.abs(g / ref - 1.0).max() <= 1e-13
        # two tangent directions per member and their bisector, for the mixed term
        t1 = np.cross(MEMBERS, np.eye(3)[np.argmin(np.abs(MEMBERS), axis=1)])
        t1 /= np.linalg.norm(t1, axis=1)[:, None]
        t2 = np.cross(MEMBERS, t1)
        for t in (t1, t2, (t1 + t2) / np.sqrt(2.0)):
            up, down = jet(arc(MEMBERS, t, STEP))[0], jet(arc(MEMBERS, t, -STEP))[0]
            slope = (grad * t).sum(axis=1)
            curve = np.einsum("ki,kij,kj->k", t, hess, t) - (grad * MEMBERS).sum(axis=1)
            scale = 1.0 + np.abs(slope) + np.abs(curve)
            assert np.abs((up - down) / (2.0 * STEP) - slope).max() <= 1e-6 * scale.max()
            assert np.abs((up - 2.0 * g + down) / STEP**2 - curve).max() <= 1e-5 * scale.max()


def near_pure(l2):
    """A random entangled range with spectral weights 1 - l2 and l2."""
    rng = np.random.default_rng(970)
    span = np.linalg.qr(rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2)))[0].T
    return DensityMatrix.from_matrix((1.0 - l2) * np.outer(span[0], span[0].conj())
                                     + l2 * np.outer(span[1], span[1].conj()))


@pytest.mark.parametrize("l2", [1e-9, 1e-10])
@pytest.mark.parametrize("kind, search", [("e2", e_d2_mixed), ("e3", e_d3_mixed)])
def test_near_pure_states_are_answered_by_the_stage(kind, search, l2):
    # 1/l2 scales the KKT's rounding in V^dagger V - I past MANIFOLD_TOL here,
    # so the stage answers with the polar factor of its ensemble
    rho = near_pure(l2)
    cfg = OptimizerConfig(restarts=4, max_iters=150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = search(rho, cfg)
    assert (res.converged, res.iterations_used) == (True, 0)
    spectral = spectral_decomposition(rho)
    runs = mixed._descend(mixed._RoofObjective(3, kind), spectral.members(),
                          mixed._roof_starts(spectral, cfg), cfg)
    assert res.value <= min(run[0] for run in runs)
