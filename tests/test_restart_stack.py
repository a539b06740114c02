"""Stacked restarts: the roof descent and the singlet-fraction ascent advance
all their starts as one stack.  Run on all starts at once, every restart must
end exactly where it ends when it runs alone: the same value, the same
isometry or unitary to the last bit, the same step count and the same
converged flag.  The golden files pin the CLI output of the searches to
bytes recorded before the restarts were stacked.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from teleport_ent import (
    DensityMatrix,
    OptimizerConfig,
    haar_unitary,
    random_density_matrix,
    random_isometry,
    spectral_decomposition,
)
from teleport_ent import mixed, stateio
from teleport_ent.cli import main
from teleport_ent.states import ENSEMBLE_FACTOR

GOLDEN = Path(__file__).parent / "golden"


def assert_same_runs(stacked, alone):
    assert len(stacked) == len(alone)
    for (val, x, conv, steps), (val1, x1, conv1, steps1) in zip(stacked, alone):
        assert (val, conv, steps) == (val1, conv1, steps1)
        assert x.shape == x1.shape and x.tobytes() == x1.tobytes()


def descend_each(obj, comps, starts, cfg):
    stacked = mixed._descend(obj, comps, starts, cfg)
    alone = [mixed._descend(obj, comps, starts[k:k + 1], cfg)[0] for k in range(len(starts))]
    assert_same_runs(stacked, alone)
    return stacked


def roof_starts(rho, seed, count=5):
    """The spectral start and count - 1 random isometries, as `_roof_search` builds them."""
    comps = spectral_decomposition(rho).members()
    r = len(comps)
    n = ENSEMBLE_FACTOR * r
    starts = [np.eye(n, r, dtype=np.complex128)]
    starts += [random_isometry(n, r, np.random.default_rng([seed, k])) for k in range(1, count)]
    return comps, np.array(starts)


@pytest.mark.parametrize("d,kind", [(2, "neg"), (2, "e2"), (3, "neg"), (3, "e2"), (3, "e3"),
                                    (4, "neg"), (4, "e2"), (4, "e3")])
@pytest.mark.parametrize("max_iters", [1, 25, 500])
def test_roof_restarts_stacked_equal_alone(d, kind, max_iters):
    rank = {2: None, 3: 3, 4: 3}[d]
    rho = random_density_matrix(d, np.random.default_rng([d, 41]), rank=rank)
    comps, starts = roof_starts(rho, 41)
    runs = descend_each(mixed._RoofObjective(d, kind), comps, starts,
                        OptimizerConfig(max_iters=max_iters))
    steps = [run[3] for run in runs]
    assert all(1 <= s <= max_iters for s in steps)
    if max_iters == 500:
        # the restarts leave the stack at different steps
        assert len(set(steps)) > 1


def test_e3_second_stage_gets_what_the_first_left():
    # here some restarts spend the whole budget in the smoothed stage and
    # enter the exact stage with nothing left, the others with a remainder
    rho = random_density_matrix(3, np.random.default_rng([3, 43]), rank=3)
    comps, starts = roof_starts(rho, 41)
    obj = mixed._RoofObjective(3, "e3")
    cfg = OptimizerConfig()
    budget = np.full(len(starts), cfg.max_iters)
    first = mixed._cg_stage(obj, comps, starts, mixed._E3_MU, budget)[2]
    assert first.max() == cfg.max_iters and first.min() < cfg.max_iters
    runs = descend_each(obj, comps, starts, cfg)
    for used, (_, _, conv, steps) in zip(first, runs):
        if used == cfg.max_iters:
            assert (conv, steps) == (False, cfg.max_iters)
        else:
            assert used < steps <= cfg.max_iters


@pytest.mark.parametrize("d,kind", [(2, "neg"), (2, "e2"), (3, "e2"), (3, "e3")])
def test_roof_restart_with_zero_gradient_stops_at_once(d, kind):
    # the spectral start of the maximally mixed state is an ensemble of
    # product states, where these member terms have zero gradient
    rho = DensityMatrix.from_matrix(np.eye(d * d) / d ** 2)
    comps, starts = roof_starts(rho, 42)
    runs = descend_each(mixed._RoofObjective(d, kind), comps, starts, OptimizerConfig())
    assert runs[0][2:] == (True, 0)
    assert runs[0][1].tobytes() == starts[0].tobytes()
    assert all(run[3] > 0 for run in runs[1:])


def ascent_starts(rho, seed, count=8):
    d = rho.d
    starts = [mixed._top_eigvec_warm_start(rho), np.eye(d, dtype=np.complex128)]
    starts += [haar_unitary(d, np.random.default_rng([seed, k])) for k in range(2, count)]
    return np.array(starts)


def ascend_each(rho, starts, cfg):
    stacked = mixed._ascend(rho.mat, rho.d, starts, cfg)
    alone = [mixed._ascend(rho.mat, rho.d, starts[k:k + 1], cfg)[0] for k in range(len(starts))]
    assert_same_runs(stacked, alone)
    return stacked


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("max_iters", [1, 500])
def test_ascent_restarts_stacked_equal_alone(d, max_iters):
    rho = random_density_matrix(d, np.random.default_rng([d, 50]))
    runs = ascend_each(rho, ascent_starts(rho, 51), OptimizerConfig(max_iters=max_iters))
    iters = [run[3] for run in runs]
    if max_iters == 1:
        assert iters == [1] * len(runs)
    else:
        assert len(set(iters)) > 1 and all(run[2] for run in runs)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ascent_restart_at_the_fixed_point_stops_at_once(d):
    # for the maximally entangled state the identity start is already optimal
    v = np.eye(d, dtype=np.complex128).reshape(-1) / math.sqrt(d)
    rho = DensityMatrix.from_matrix(0.9 * np.outer(v, v.conj()) + 0.1 * np.eye(d * d) / d ** 2)
    runs = ascend_each(rho, ascent_starts(rho, 52), OptimizerConfig())
    assert runs[1][2:] == (True, 1)
    assert any(run[3] > 1 for run in runs)


@pytest.mark.parametrize("name,argv", [
    ("analyze_dm_d3_rank2_seed12", ("random", "dm", "--d", "3", "--rank", "2", "--seed", "12")),
    ("analyze_dm_d3_rank3_seed13", ("random", "dm", "--d", "3", "--rank", "3", "--seed", "13")),
    ("analyze_dm_d2_seed11", ("random", "dm", "--d", "2", "--seed", "11")),
    ("qutrit_example_p0.25", None),
])
def test_cli_output_matches_golden_bytes(tmp_path, capsys, name, argv):
    if argv is None:
        assert main(["qutrit-example", "--p", "0.25"]) == 0
    else:
        path = tmp_path / "state.dm"
        assert main([*argv, "--out", str(path)]) == 0
        assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_default_config_reproduces_the_cli_report(tmp_path):
    # OptimizerConfig() holds the CLI's restarts and seed, so the library
    # reports what analyze prints for the golden seed-13 state
    path = str(tmp_path / "state.dm")
    assert main(["random", "dm", "--d", "3", "--rank", "3", "--seed", "13", "--out", path]) == 0
    rep = mixed.classify_mixed(stateio.read_state_file(path))
    lines = (GOLDEN / "analyze_dm_d3_rank3_seed13.out").read_text(encoding="utf-8").splitlines()
    golden = dict((k.strip(), v) for k, v in (ln.split(" = ") for ln in lines[1:]))
    for key in ("negativity", "singlet_fraction", "fidelity", "e_d2", "e_d3"):
        assert stateio.format_value(getattr(rep, key)) == golden[key], key


@pytest.mark.parametrize("seed", [mixed.DEFAULT_SEED, 5])
@pytest.mark.parametrize("restarts", [1, 2, 8])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_cached_starts_equal_fresh_draws(d, restarts, seed):
    # the ascent's seeded unitaries, drawn once per process: starts 2 .. R - 1
    drawn = mixed._seeded_isometries(seed, d, d, range(2, restarts))
    fresh = [haar_unitary(d, np.random.default_rng(seed ^ k)) for k in range(2, restarts)]
    assert drawn.shape == (max(restarts - 2, 0), d, d)
    assert drawn.tobytes() == np.array(fresh, dtype=np.complex128).tobytes()
    # the descent's starts, 1 .. R - 1 behind the spectral one
    rho = random_density_matrix(d, np.random.default_rng([d, 60]), rank={2: None, 3: 3, 4: 2}[d])
    spectral = spectral_decomposition(rho)
    r = len(spectral.states)
    n = ENSEMBLE_FACTOR * r
    want = [np.eye(n, r, dtype=np.complex128)]
    want += [random_isometry(n, r, np.random.default_rng(seed ^ k)) for k in range(1, restarts)]
    got = mixed._roof_starts(spectral, OptimizerConfig(restarts=restarts, seed=seed))
    assert got.shape == (restarts, n, r) and got.tobytes() == np.array(want).tobytes()
    assert got.flags.writeable


def test_cached_starts_are_read_only():
    stack = mixed._seeded_isometries(mixed.DEFAULT_SEED, 6, 3, range(1, 8))
    assert stack is mixed._seeded_isometries(mixed.DEFAULT_SEED, 6, 3, range(1, 8))
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 0.0


def test_start_stacks_over_the_byte_cap_are_not_kept():
    # 129 isometries of 32 x 16 are just over 1 MiB: drawn on every call,
    # with the same bits as the kept stack of one layer fewer
    ks = range(1, 130)
    assert len(ks) * 32 * 16 * 16 > mixed._START_STACK_BYTES
    big = mixed._seeded_isometries(mixed.DEFAULT_SEED, 32, 16, ks)
    assert big is not mixed._seeded_isometries(mixed.DEFAULT_SEED, 32, 16, ks)
    assert not big.flags.writeable
    kept = mixed._seeded_isometries(mixed.DEFAULT_SEED, 32, 16, range(1, 129))
    assert kept is mixed._seeded_isometries(mixed.DEFAULT_SEED, 32, 16, range(1, 129))
    assert big[:-1].tobytes() == kept.tobytes()


@pytest.mark.parametrize("search", [mixed.singlet_fraction_mixed, mixed.e_d2_mixed],
                         ids=["singlet_fraction", "e_d2"])
def test_mutating_a_result_leaves_the_next_search_unchanged(search):
    rho = random_density_matrix(3, np.random.default_rng([3, 61]), rank=3)
    first = search(rho)
    kept = first.argument_unitary.copy()
    first.argument_unitary[...] = 0.0
    again = search(rho)
    assert again.value == first.value
    assert again.argument_unitary.tobytes() == kept.tobytes()
