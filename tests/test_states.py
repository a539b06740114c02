"""State containers, Schmidt decomposition, ensembles, random generators."""

import math

import numpy as np
import pytest

from teleport_ent import (
    DensityMatrix,
    InvariantError,
    PureBipartiteState,
    SchmidtSpectrum,
    haar_unitary,
    hjw_decomposition,
    random_density_matrix,
    random_isometry,
    random_pure_state,
    random_spectrum,
    schmidt,
    spectral_decomposition,
    validated_decomposition,
)


def bell_like(d, k):
    # equal superposition over the first k diagonal slots
    amp = np.zeros((d, d), dtype=complex)
    for i in range(k):
        amp[i, i] = 1.0 / math.sqrt(k)
    return PureBipartiteState(d=d, amp=amp)


def test_norm_validation():
    amp = np.zeros((2, 2), dtype=complex)
    amp[0, 0] = 1.0
    PureBipartiteState(d=2, amp=amp)
    amp[1, 1] = 0.5
    with pytest.raises(InvariantError):
        PureBipartiteState(d=2, amp=amp)


def test_schmidt_of_diagonal_state():
    st = bell_like(3, 2)
    spec = schmidt(st)
    np.testing.assert_allclose(spec.lambdas, [0.5, 0.5, 0.0], atol=1e-12)
    assert spec.schmidt_rank == 2


def test_schmidt_rank_tolerance():
    # a weight counts when it exceeds the 1e-9 cut
    for small, rank in ((1e-10, 1), (1e-8, 2)):
        lam = np.array([1.0 - small, small, 0.0])
        assert SchmidtSpectrum(lambdas=lam).schmidt_rank == rank


def test_schmidt_local_unitary_invariance():
    rng = np.random.default_rng(21)
    st = random_pure_state(4, rng)
    u = haar_unitary(4, rng)
    v = haar_unitary(4, rng)
    rotated = PureBipartiteState(d=4, amp=u @ st.amp @ v.T)
    np.testing.assert_allclose(schmidt(rotated).lambdas, schmidt(st).lambdas, atol=1e-10)


def test_density_matrix_validation():
    with pytest.raises(InvariantError):
        DensityMatrix(d=2, mat=np.eye(4) * 0.5)  # trace 2
    mat = np.eye(4) / 4 + 0j
    mat[0, 1] = 0.3  # not hermitian
    with pytest.raises(InvariantError):
        DensityMatrix(d=2, mat=mat)


def test_spectral_decomposition_reconstructs():
    rng = np.random.default_rng(22)
    rho = random_density_matrix(3, rng, rank=2)
    dec = spectral_decomposition(rho)
    assert len(dec.states) == 2
    np.testing.assert_allclose(dec.reconstruct(), rho.mat, atol=1e-10)
    assert np.linalg.norm(dec.reconstruct() - rho.mat) <= 1e-8


def test_validated_decomposition_rejects_wrong_target():
    rng = np.random.default_rng(23)
    rho = random_density_matrix(2, rng)
    dec = spectral_decomposition(rho)
    mixed_d = (dec.states[0], bell_like(3, 3)) * 2  # one member per weight, d = 2 and 3
    for states, target in ((dec.states, random_density_matrix(2, np.random.default_rng(24))),
                           (dec.states, random_density_matrix(3, np.random.default_rng(24))),
                           (mixed_d, rho)):
        with pytest.raises(InvariantError):
            validated_decomposition(dec.weights, states, target)


def test_hjw_identity_mix_recovers_spectral():
    rng = np.random.default_rng(25)
    rho = random_density_matrix(3, rng, rank=3)
    spec = spectral_decomposition(rho)
    eye = np.eye(3, dtype=complex)
    dec = hjw_decomposition(rho, eye)
    for p, q, a, b in zip(dec.weights, spec.weights, dec.states, spec.states):
        assert abs(p - q) < 1e-10
        # states may differ by a global phase
        overlap = abs(np.vdot(a.vector(), b.vector()))
        assert abs(overlap - 1.0) < 1e-8


def test_hjw_larger_mix_reconstructs():
    rng = np.random.default_rng(26)
    rho = random_density_matrix(2, rng)
    mix = random_isometry(7, 4, rng)
    dec = hjw_decomposition(rho, mix)
    np.testing.assert_allclose(dec.reconstruct(), rho.mat, atol=1e-10)


def test_hjw_rejects_non_isometry():
    rng = np.random.default_rng(27)
    rho = random_density_matrix(2, rng)
    bad = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    with pytest.raises(InvariantError):
        hjw_decomposition(rho, bad)


def test_random_spectrum_properties():
    rng = np.random.default_rng(28)
    for _ in range(50):
        lam = random_spectrum(5, rng, rank=3)
        assert abs(lam.sum() - 1.0) < 1e-12
        assert np.all(np.diff(lam) <= 1e-15)
        assert np.all(lam[3:] == 0.0)


def test_random_pure_state_rank_control():
    rng = np.random.default_rng(29)
    st = random_pure_state(4, rng, rank=2)
    assert schmidt(st).schmidt_rank == 2


def test_random_density_matrix_is_valid_and_seeded():
    a = random_density_matrix(3, np.random.default_rng(42))
    b = random_density_matrix(3, np.random.default_rng(42))
    np.testing.assert_array_equal(a.mat, b.mat)
