"""Closed-form entanglement and teleportation measures for pure states.

Conventions for a d x d system with Schmidt weights lambda_1 >= ... >= 0:

  negativity        N = (2/(d-1)) sum_{i<j} sqrt(lambda_i lambda_j),
                    equivalently (||rho^T_A||_1 - 1)/(d-1) for mixed rho
  singlet fraction  f = (1/d) (sum_i sqrt(lambda_i))^2
  fidelity          F = (d f + 1)/(d + 1), classical ceiling 2/(d+1)
  e_d2              sqrt((2d/(d-1)) sum_{i<j} lambda_i lambda_j)
  e_d3              (6 d^2 / ((d-1)(d-2)))^(1/3) (lambda_1 lambda_2 lambda_3)^(1/3)

e_d2 and e_d3 are defined for Schmidt rank at most three; e_d3 vanishes
exactly on rank <= 2 and needs d >= 3.  A state is useful for teleportation
when f exceeds 1/d, i.e. when it beats the classical fidelity ceiling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .states import (DEFAULT_RANK_TOL, DensityMatrix, PureBipartiteState, SchmidtSpectrum,
                     schmidt)

USEFUL_GUARD = 1e-12
NEGATIVE_CLAMP = 1e-10
RANK_BAND_GUARD = 1e-9

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SY, _SY)


class RankClass(enum.Enum):
    RANK1 = "rank1"
    RANK2_USEFUL = "rank2_useful"
    RANK3_USEFUL = "rank3_useful"
    NOT_USEFUL = "not_useful"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class MeasureReport:
    d: int
    negativity: float
    singlet_fraction: float
    fidelity: float
    e_d2: float | None
    e_d3: float | None
    schmidt_rank: int
    useful_for_teleportation: bool
    rank_class: RankClass


def _lambdas(spectrum: SchmidtSpectrum, d: int) -> np.ndarray:
    lam = spectrum.lambdas
    if lam.size > d:
        raise InvariantError(f"spectrum has {lam.size} weights but d={d}")
    out = np.zeros(d)
    out[: lam.size] = lam
    return out


def _clamp(x: float) -> float:
    if x < 0:
        if x < -NEGATIVE_CLAMP:
            raise InvariantError(f"measure fell below zero by {-x:.3e}")
        return 0.0
    return x


def fidelity_from_fraction(f: float, d: int) -> float:
    return (d * f + 1.0) / (d + 1.0)


def fidelity_from_negativity(n: float, d: int) -> float:
    return 2.0 / (d + 1.0) + (d - 1.0) * n / (d + 1.0)


def classical_fidelity_limit(d: int) -> float:
    return 2.0 / (d + 1.0)


def singlet_fraction_pure(spectrum: SchmidtSpectrum, d: int) -> float:
    lam = _lambdas(spectrum, d)
    return float(np.sqrt(lam).sum() ** 2 / d)


def negativity_pure(spectrum: SchmidtSpectrum, d: int) -> float:
    lam = _lambdas(spectrum, d)
    root = np.sqrt(lam)
    pair_sum = 0.5 * (root.sum() ** 2 - 1.0)  # sum_{i<j} sqrt(l_i l_j)
    return _clamp(float(2.0 * pair_sum / (d - 1.0)))


def partial_transpose(rho: np.ndarray, d: int) -> np.ndarray:
    """Partial transpose of a d*d x d*d matrix over the first factor, A.

    Index convention: row index (i, k) and column index (j, l) refer to
    basis |i>|k><j|<l|, flattened row-major; transposing A swaps i and j.
    """
    four = np.asarray(rho).reshape(d, d, d, d)
    return np.ascontiguousarray(four.transpose(2, 1, 0, 3).reshape(d * d, d * d))


def negativity_mixed(rho: DensityMatrix) -> float:
    """(||rho^T_A||_1 - 1)/(d - 1), the trace norm as a sum of singular values."""
    pt = partial_transpose(rho.mat, rho.d)
    trace_norm = float(np.linalg.svd(pt, compute_uv=False).sum())
    return _clamp((trace_norm - 1.0) / (rho.d - 1.0))


def negativity_fraction_relation_check(spectrum: SchmidtSpectrum, d: int) -> float:
    """Residual of N = (d f - 1)/(d - 1) on a pure spectrum."""
    n = negativity_pure(spectrum, d)
    f = singlet_fraction_pure(spectrum, d)
    return abs(n - (d * f - 1.0) / (d - 1.0))


def _require_rank_le3(lam: np.ndarray) -> None:
    if lam.size > 3 and np.any(lam[3:] > DEFAULT_RANK_TOL):
        raise InvariantError("Schmidt rank above three is outside this measure's scope")


def e_d2(spectrum: SchmidtSpectrum, d: int) -> float:
    """Pairwise Schmidt product measure, rank <= 3 only."""
    if d < 2:
        raise InvariantError("e_d2 needs d >= 2")
    lam = _lambdas(spectrum, d)
    _require_rank_le3(lam)
    l1, l2, l3 = lam[0], lam[1], (lam[2] if d > 2 else 0.0)
    pairs = l1 * l2 + l1 * l3 + l2 * l3
    return math.sqrt(_clamp(2.0 * d / (d - 1.0) * pairs))


def e_d3(spectrum: SchmidtSpectrum, d: int) -> float:
    """Triple Schmidt product measure, rank <= 3 and d >= 3 only."""
    if d < 3:
        raise InvariantError("e_d3 needs d >= 3")
    lam = _lambdas(spectrum, d)
    _require_rank_le3(lam)
    triple = lam[0] * lam[1] * lam[2]
    return (6.0 * d * d / ((d - 1.0) * (d - 2.0)) * _clamp(triple)) ** (1.0 / 3.0)


def central_identity_residual(spectrum: SchmidtSpectrum, d: int) -> float:
    """Residual of the algebraic identity linking e_d2, e_d3 and f.

    For any rank <= 3 spectrum,
      e_d2^2 = d^3/(2(d-1)) (f - 1/d)^2
               - (4/(d-1)) sqrt(d(d-1)(d-2)/6) e_d3^(3/2) sqrt(f).
    """
    if d < 3:
        raise InvariantError("the identity involves e_d3 and needs d >= 3")
    f = singlet_fraction_pure(spectrum, d)
    e2 = e_d2(spectrum, d)
    e3 = e_d3(spectrum, d)
    lhs = e2 * e2
    rhs = (d ** 3 / (2.0 * (d - 1.0)) * (f - 1.0 / d) ** 2
           - 4.0 / (d - 1.0) * math.sqrt(d * (d - 1.0) * (d - 2.0) / 6.0)
           * e3 ** 1.5 * math.sqrt(f))
    return abs(lhs - rhs)


def rank2_bounds(d: int) -> tuple[float, float]:
    """Open-below bound interval for useful rank-2 states: (0, sqrt(d/(2(d-1)))]."""
    if d < 2:
        raise InvariantError("rank2_bounds needs d >= 2")
    return 0.0, math.sqrt(d / (2.0 * (d - 1.0)))


def rank3_fidelity_lower_bound(e3: float, d: int) -> float:
    """AM-GM fidelity floor for a rank-3 state with triple measure e3."""
    if d < 3:
        raise InvariantError("rank3_fidelity_lower_bound needs d >= 3")
    if e3 < 0:
        raise InvariantError("e3 must be nonnegative")
    return (2.0 / (d + 1.0)
            + 6.0 / (d + 1.0) * ((d - 1.0) * (d - 2.0) / (6.0 * d * d)) ** (1.0 / 3.0) * e3)


def rank3_mixed_bound(d: int) -> float:
    """Upper edge of the mixed rank-3 band: (d(d-1)/6)^(1/6) (d-2)^(-1/3)."""
    if d < 3:
        raise InvariantError("rank3_mixed_bound needs d >= 3")
    return (d * (d - 1.0) / 6.0) ** (1.0 / 6.0) * (d - 2.0) ** (-1.0 / 3.0)


def concurrence_2qubit_stack(mats: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each 4 x 4 matrix in a (..., 4, 4) stack."""
    tilde = _SYSY @ mats.conj() @ _SYSY
    mu = np.linalg.eigvals(mats @ tilde)
    mu = np.sort(np.sqrt(np.clip(mu.real, 0.0, None)), axis=-1)[..., ::-1]
    return np.maximum(0.0, mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3])


def concurrence_2qubit(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    if rho.d != 2:
        raise InvariantError("concurrence is defined here for d=2 only")
    return float(concurrence_2qubit_stack(rho.mat))


def is_useful(f: float, d: int) -> bool:
    return f > 1.0 / d + USEFUL_GUARD


def classify_rank_band(e2: float | None, useful: bool, d: int,
                       schmidt_rank: int | None = None) -> RankClass:
    """Band placement of a pairwise-measure value against the rank bounds.

    Values within RANK_BAND_GUARD of the rank-2 edge still count as rank 2,
    so that exact saturation (a balanced rank-2 state) lands in its band.
    """
    if not useful:
        return RankClass.NOT_USEFUL
    if schmidt_rank == 1:
        return RankClass.RANK1
    if e2 is None or e2 <= 0.0:
        return RankClass.UNCLASSIFIED
    _, hi2 = rank2_bounds(d)
    if d == 2:
        return RankClass.RANK2_USEFUL
    if e2 <= hi2 + RANK_BAND_GUARD:
        return RankClass.RANK2_USEFUL
    if e2 < rank3_mixed_bound(d):
        return RankClass.RANK3_USEFUL
    return RankClass.UNCLASSIFIED


def analyze_pure(state: PureBipartiteState) -> MeasureReport:
    """Full closed-form measure report for a pure state."""
    spec = schmidt(state)
    d = state.d
    rank = spec.schmidt_rank
    f = singlet_fraction_pure(spec, d)
    n = negativity_pure(spec, d)
    fid = fidelity_from_fraction(f, d)
    useful = is_useful(f, d)
    if rank <= 3:
        e2: float | None = e_d2(spec, d)
        # e_d3 vanishes on rank <= 2, and a weight under the rank cut would
        # still reach the report through the cube root
        e3: float | None = e_d3(spec, d) if d >= 3 and rank == 3 else 0.0
    else:
        e2 = None
        e3 = None
    if rank > 3:
        rank_class = RankClass.UNCLASSIFIED
    elif not useful:
        rank_class = RankClass.NOT_USEFUL
    elif rank == 1:
        # above threshold yet rank 1 under the tolerance: no usable pair
        rank_class = RankClass.RANK1
    elif rank == 2:
        rank_class = RankClass.RANK2_USEFUL
    else:
        rank_class = RankClass.RANK3_USEFUL
    return MeasureReport(
        d=d,
        negativity=n,
        singlet_fraction=f,
        fidelity=fid,
        e_d2=e2,
        e_d3=e3,
        schmidt_rank=rank,
        useful_for_teleportation=useful,
        rank_class=rank_class,
    )
