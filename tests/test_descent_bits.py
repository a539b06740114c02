"""Bit pins of the roof searches that run the CG descent.

A change at rounding level to the descent moves its printed values: on
full-rank d = 3 states e_d2 moves by up to 7e-3.  So a change meant to make
the descent cheaper must leave every value, isometry, step count and
converged flag as it was.  Each digest below is a sha256 over those of
`e_d2_mixed`, `e_d3_mixed` and `cren_estimate` on one state, recorded before
the descent's Armijo trials were split into values and one gradient per
step; at d = 4, where the rank cap hides the e_d2 and e_d3 descents behind
`None`, the per-restart runs of `_descend` are pinned instead.  The digests
were recorded with numpy 2.4.6 and its bundled OpenBLAS; another LAPACK
build may round the SVDs differently.
"""

import hashlib

import numpy as np
import pytest

from teleport_ent import OptimizerConfig, random_density_matrix, spectral_decomposition
from teleport_ent import mixed

SHORT = OptimizerConfig(restarts=3, max_iters=7)


# (d, seed, spectral rank); d3_s<s> is seed 5000 + s at rank 3 + s % 7
STATES = {
    "d3_s0": (3, 5000, 3),
    "d3_s1": (3, 5001, 4),
    "d3_s6": (3, 5006, 9),
    # the golden seed-13 state: its e_d3 runs both stages to 500 steps
    "d3_rank3_seed13": (3, 13, 3),
    "d4_rank3": (4, 5100, 3),
}


def _state(name):
    d, seed, rank = STATES[name]
    return random_density_matrix(d, np.random.default_rng(seed), rank=rank)


def _digest(rows):
    h = hashlib.sha256()
    for value, converged, steps, x in rows:
        h.update(repr((value, converged, steps)).encode())
        if x is not None:
            h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def _search_rows(rho, cfg):
    rows = []
    for search in (mixed.e_d2_mixed, mixed.e_d3_mixed, mixed.cren_estimate):
        res = search(rho, cfg)
        rows.append((res.value, res.converged, res.iterations_used, res.argument_unitary))
    return rows


PINS = {
    ("d3_s0", "default"):
        "e4ae41e6e420e34d330645beec42667009e7870d7d9902952fa984cf58eae50a",
    ("d3_s0", "short"):
        "086d3ba904f837eb0d2fafd1870b5189e54cd8ca4cdf8c1e179cf95ee60af12d",
    ("d3_s1", "default"):
        "f91de29f39480e2b0fb40b7f0a4e670a5f14884e020dad58e2bb7e390bea6e80",
    ("d3_s1", "short"):
        "279ea617c9bba8691982e5da6a3aa680915731b09a651aacc88c45564ffc4e41",
    ("d3_s6", "default"):
        "5c7b1f4afc81ca593aac388db2f136c641cd6d6891d5f073b31f012f5aad64ae",
    ("d3_s6", "short"):
        "221b890ec374a3f6cac9288b1327c877c33807b4cf20331bc0c991031e18fa13",
    ("d3_rank3_seed13", "default"):
        "e45132b8d26aa2bf37f25d038a1d906342fbde5eee4de180c4ead9de95ae4569",
    ("d3_rank3_seed13", "short"):
        "883298cc67cdfcb482d9c18428893d9b3ac690844f949f9ad666a65603c0aae9",
    ("d4_rank3", "default"):
        "5d93fd6a79869f2c88ab2f6721cef843518e44476b50404f76f70c567479083c",
    ("d4_rank3", "short"):
        "60e468c7a1ebbab387ca36bcfcaeab359dae391598997a3da00b2ebe11a96235",
}

DESCENT_PINS = {
    ("e2", "default"):
        "3993a382162f7e0579c310d3428260895aeaa7f8895d055909a26186f508f768",
    ("e2", "short"):
        "b6ab466bc7e9fa4753cf79a493b2696df4e41f1b8b67a8fee607fe8c7d2cff2c",
    ("e3", "default"):
        "abc1a22acf6d1cf268377e431463d047a32c4005e031f6104852729d6e0a59a1",
    ("e3", "short"):
        "6a90cae4d827b2cb55a0c2e6faef6177b3d540d46ceffddda0310f6c9ad1d4c4",
}


@pytest.mark.parametrize("name,cfg_name", sorted(PINS))
def test_roof_searches_keep_their_bits(name, cfg_name):
    cfg = OptimizerConfig() if cfg_name == "default" else SHORT
    assert _digest(_search_rows(_state(name), cfg)) == PINS[name, cfg_name]


@pytest.mark.parametrize("kind,cfg_name", sorted(DESCENT_PINS))
def test_capped_d4_descents_keep_their_bits(kind, cfg_name):
    cfg = OptimizerConfig() if cfg_name == "default" else SHORT
    spectral = spectral_decomposition(_state("d4_rank3"))
    runs = mixed._descend(mixed._RoofObjective(4, kind), spectral.members(),
                          mixed._roof_starts(spectral, cfg), cfg)
    rows = [(value, conv, steps, v) for value, v, conv, steps in runs]
    assert _digest(rows) == DESCENT_PINS[kind, cfg_name]
