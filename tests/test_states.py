"""State containers, Schmidt decomposition, ensembles, random generators."""

import math
import re

import numpy as np
import pytest

from teleport_ent import (
    DensityMatrix,
    InvariantError,
    PureBipartiteState,
    PureDecomposition,
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
from teleport_ent.states import ensure_matrix


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


def test_hjw_drops_zero_weight_members():
    # the identity padded with a zero row mixes in a member of zero weight
    rho = random_density_matrix(2, np.random.default_rng(30), rank=2)
    dec = hjw_decomposition(rho, np.eye(3, 2))
    assert len(dec.states) == 2
    np.testing.assert_allclose(dec.weights, spectral_decomposition(rho).weights, atol=1e-12)


_RHO2 = random_density_matrix(2, np.random.default_rng(31), rank=2)
_RNG = np.random.default_rng(32)


# inputs outside each constructor's model; a weight sum is printed as a
# Python float, 0.9 and not np.float64(0.9)
@pytest.mark.parametrize("call,message", [
    (lambda: ensure_matrix(np.zeros(3)), re.escape("expected a 2-D matrix, got ndim=1")),
    (lambda: ensure_matrix(np.zeros((2, 3)), rows=3), "expected 3 rows, got 2"),
    (lambda: ensure_matrix(np.zeros((3, 2)), cols=3), "expected 3 columns, got 2"),
    (lambda: SchmidtSpectrum(lambdas=[]), "empty Schmidt spectrum"),
    (lambda: SchmidtSpectrum(lambdas=[1.5, -0.5]), "negative Schmidt weight"),
    (lambda: SchmidtSpectrum(lambdas=[0.4, 0.6]), "Schmidt weights must be sorted descending"),
    (lambda: SchmidtSpectrum(lambdas=[0.5, 0.4]), re.escape("Schmidt weights sum to 0.9, not 1")),
    (lambda: DensityMatrix.from_matrix(np.eye(5) / 5), "matrix side 5 is not a perfect square"),
    (lambda: PureDecomposition(weights=[1.0], states=(bell_like(2, 2),) * 2),
     "weights and states length mismatch"),
    (lambda: PureDecomposition(weights=[1.5, -0.5], states=(bell_like(2, 2),) * 2),
     "decomposition weights must be positive"),
    (lambda: PureDecomposition(weights=[0.5, 0.4], states=(bell_like(2, 2),) * 2),
     re.escape("decomposition weights sum to 0.9")),
    (lambda: hjw_decomposition(_RHO2, np.eye(2, 3)), "mix has 3 columns, expected rank 2"),
    (lambda: hjw_decomposition(_RHO2, np.eye(5, 2)), "mix must have between 2 and 4 rows, got 5"),
    (lambda: hjw_decomposition(_RHO2, np.eye(1, 2)), "mix must have between 2 and 4 rows, got 1"),
    (lambda: random_isometry(2, 3, _RNG), "isometry needs at least as many rows as columns"),
    (lambda: random_spectrum(3, _RNG, rank=0), re.escape("rank must lie in [1, 3]")),
    (lambda: random_spectrum(3, _RNG, rank=4), re.escape("rank must lie in [1, 3]")),
    (lambda: random_density_matrix(2, _RNG, rank=0), re.escape("rank must lie in [1, 4]")),
    (lambda: random_density_matrix(2, _RNG, rank=5), re.escape("rank must lie in [1, 4]")),
], ids=["matrix_ndim", "matrix_rows", "matrix_cols", "spectrum_empty", "spectrum_negative",
        "spectrum_unsorted", "spectrum_sum", "dm_side_not_square", "ensemble_lengths",
        "ensemble_weight_negative", "ensemble_sum", "hjw_columns", "hjw_rows_above",
        "hjw_rows_below", "isometry_wide", "spectrum_rank_0", "spectrum_rank_above_d",
        "dm_rank_0", "dm_rank_above_d2"])
def test_input_outside_the_model_raises(call, message):
    with pytest.raises(InvariantError, match=f"^{message}$"):
        call()
