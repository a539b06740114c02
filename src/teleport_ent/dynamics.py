"""Two-qubit open-system dynamics with collective bath coupling.

Two models of a pair of qubits a distance r12 apart (in units of the
reduced resonance wavelength), coupled to a common squeezed thermal bath:

* dissipative: collective raising/lowering jumps with rates built from
  the coefficient matrix [[(N+1) g, -M g], [-conj(M) g, N g]] where
  g = [[gamma0, gamma12], [gamma12, gamma0]], plus the coherent
  dipole-dipole shift H = Omega12 (s1+ s2- + s1- s2+).  The rotating
  frame drops the bare splitting; entanglement is frame-invariant.
* qnd: pure collective dephasing, jumps (sz1, sz2) with coefficient
  matrix (gamma0/4)(2N+1) [[1, kappa], [kappa, 1]], no Hamiltonian.
  Populations are conserved exactly.

Both coefficient matrices are positive semidefinite for every admissible
bath (|gamma12| <= gamma0 and N(N+1) >= |M|^2), so the generated maps
are completely positive and positivity of rho is a hard invariant.

Integration is fixed-step RK4 on the vectorized generator L.  The jump
operators of each model are fixed, so their dissipator superoperators
form a constant basis built at import, and L is the Hamiltonian term plus
that basis contracted with the coefficient matrix.  L is constant, so one
RK4 step is exactly the propagator P = sum_{j<=4} (dt L)^j / j!, built
once per run together with its powers P, P^2, ..., P^16.  The states at
steps k+1 .. k+16 are those powers applied to the state at step k, in one
stacked product, each re-hermitized; chunks start at step 1 whatever the
number of grid points.  One loop serves trajectories and sweeps: a
trajectory is a sweep of one grid point.  Sweeps over r12 or squeeze_r
stack the per-point propagators and advance all grid points together.
Every state of every point is checked for positivity, in time order, in
one batched call per block of steps.  The other records (concurrence,
the closed-form maximal singlet fraction, teleportation fidelity and
trace error) are computed in the same blocks for a trajectory, and at
the endpoint only for a sweep.

Both generators commute with the parity sz x sz, so they map X states
(zero off the diagonal and the anti-diagonal) to X states: every entry
of L that couples an X entry to a non-X one is exactly 0.0, and a run
that starts from an X state stays one exactly.  Each block of steps
picks its path from the states themselves.  A block whose entries are
all finite and exactly 0.0 off the X pattern takes closed forms in its
two 2 x 2 parity blocks, with no eigensolver call.  With a, b, c, d the
diagonal and z = |rho03|, y = |rho12|:

* min_eig = the smaller of (a + d)/2 - hypot((a - d)/2, z) and
  (b + c)/2 - hypot((b - c)/2, y);
* f = max((a + d)/2 + z, (b + c)/2 + y);
* C = 2 max(0, z - sqrt(bc), y - sqrt(ad)), the X-state concurrence of
  Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007).

So X runs print C exact to rounding, where the general route loses up to
~1e-8 on rank-deficient states.  Every other block, including any with a
non-finite entry (0 * inf puts NaN off the pattern), takes the batched
eigensolvers, which never see a non-finite state.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .states import DensityMatrix
from . import measures
from . import mixed

MIN_EIG_ABORT = -1e-6
# the default CLI run (t_max 5 at dt 1e-3/gamma0) takes 5000 steps
DEFAULT_MAX_STEPS = 8192
_SMALL_X = 1e-2
# states per batched diagnostics call, and grid points advanced together
_BLOCK_ROWS = 1024
_SWEEP_POINTS = 64
# steps advanced per stacked product, P, P^2, ..., P^_CHUNK applied at once;
# the (_CHUNK, 64, 16, 16) complex power stack of a full sweep group is 4 MiB
_CHUNK = 16

_SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)  # lowers |1> -> |0>
_SP = _SM.conj().T
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)
# vec(m) -> vec(m.T) for a row-major vectorized 4 x 4 matrix
_VEC_TRANSPOSE = np.arange(16).reshape(4, 4).T.reshape(-1)
# row-major positions of a 4 x 4 matrix's diagonal, and of its entries off
# the diagonal and the anti-diagonal: those an X state has exactly 0.0
_DIAG = np.array([0, 5, 10, 15])
_OFF_X = np.array([1, 2, 4, 7, 8, 11, 13, 14])


class ModelKind(enum.Enum):
    DISSIPATIVE = "dissipative"
    QND = "qnd"


_S1M, _S2M = np.kron(_SM, _I2), np.kron(_I2, _SM)
_S1P, _S2P = np.kron(_SP, _I2), np.kron(_I2, _SP)
# dipole-dipole exchange; the dissipative Hamiltonian is Omega12 times this
_EXCHANGE = _S1P @ _S2M + _S1M @ _S2P
# each model's jumps, in the order of its coefficient matrix
_JUMPS = {
    ModelKind.DISSIPATIVE: (_S1M, _S2M, _S1P, _S2P),
    ModelKind.QND: (np.kron(_SZ, _I2), np.kron(_I2, _SZ)),
}


def _dissipator_basis(jumps: tuple[np.ndarray, ...]) -> np.ndarray:
    """(n, n, 16, 16) stack whose (a, b) entry is the row-major vectorized
    superoperator of rho -> J_b rho J_a^dag - {J_a^dag J_b, rho} / 2."""
    eye = np.eye(4)
    basis = np.empty((len(jumps), len(jumps), 16, 16), dtype=np.complex128)
    for a, ja in enumerate(jumps):
        for b, jb in enumerate(jumps):
            g = ja.conj().T @ jb
            basis[a, b] = (np.kron(jb, ja.conj())
                           - 0.5 * np.kron(g, eye) - 0.5 * np.kron(eye, g.T))
    return basis


# L's dissipator is the coefficient matrix contracted with this basis
_DISSIPATORS = {kind: _dissipator_basis(jumps) for kind, jumps in _JUMPS.items()}


@dataclass(frozen=True)
class BathParams:
    temperature: float = 0.0
    squeeze_r: float = 0.0
    squeeze_phi: float = 0.0
    r12: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if self.temperature < 0:
            raise InvariantError("bath temperature must be nonnegative")
        if self.r12 < 0:
            raise InvariantError("qubit separation r12 must be nonnegative")


def _require_finite(params) -> None:
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InvariantError(f"{f.name} must be finite, got {value!r}")


def _bell_mixture(sign: float) -> DensityMatrix:
    psi = np.zeros(4, dtype=np.complex128)
    psi[1] = 1.0 / math.sqrt(2.0)
    psi[2] = sign / math.sqrt(2.0)
    mat = 0.95 * np.outer(psi, psi.conj()) + 0.05 * np.eye(4) / 4.0
    return DensityMatrix.from_matrix(mat)


def default_initial_state() -> DensityMatrix:
    """0.95 |psi+><psi+| + 0.05 I/4 with psi+ = (|01> + |10>)/sqrt(2).

    The symmetric Bell component decays through the superradiant channel.
    """
    return _bell_mixture(1.0)


def antisymmetric_initial_state() -> DensityMatrix:
    """Same mixture built on (|01> - |10>)/sqrt(2); subradiant at small
    separations, so its entanglement is protected in the collective regime."""
    return _bell_mixture(-1.0)


@dataclass(frozen=True)
class DynamicsConfig:
    model: ModelKind = ModelKind.DISSIPATIVE
    bath: BathParams = BathParams()
    gamma0: float = 1.0
    t_max: float = 5.0
    dt: float | None = None
    initial: DensityMatrix | None = None
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        _require_finite(self)
        if self.gamma0 <= 0:
            raise InvariantError("gamma0 must be positive")
        if self.t_max <= 0:
            raise InvariantError("t_max must be positive")
        if self.dt is not None and self.dt <= 0:
            raise InvariantError("dt must be positive")
        if self.max_steps < 1:
            raise InvariantError("max_steps must be positive")

    def resolved_dt(self) -> float:
        return self.dt if self.dt is not None else 1e-3 / self.gamma0

    def resolved_initial(self) -> DensityMatrix:
        return self.initial if self.initial is not None else default_initial_state()


def thermal_occupation(temperature: float) -> float:
    """Bose occupation at the qubit frequency; temperature in units of hbar omega0 / k_B."""
    if temperature <= 0.0:
        return 0.0
    x = 1.0 / temperature
    if x > 700.0:  # 1/expm1(x) < 1e-304 here, and expm1 overflows past ~709.8
        return 0.0
    return 1.0 / math.expm1(x)


def squeezed_occupations(bath: BathParams) -> tuple[float, complex]:
    """Effective (N, M) of a squeezed thermal bath; |M|^2 <= N(N+1)."""
    n_th = thermal_occupation(bath.temperature)
    try:
        ch = math.cosh(bath.squeeze_r)
        sh = math.sinh(bath.squeeze_r)
    except OverflowError:
        raise InvariantError(
            f"squeeze magnitude {bath.squeeze_r!r} overflows the bath occupations") from None
    n_eff = n_th * (ch * ch + sh * sh) + sh * sh
    m_eff = -(2.0 * n_th + 1.0) * sh * ch * complex(math.cos(bath.squeeze_phi),
                                                    math.sin(bath.squeeze_phi))
    return n_eff, m_eff


def coupling_kernel(x: float) -> float:
    """gamma12 / gamma0 for transverse dipoles; 1 at x = 0, -> 0 as x grows."""
    if x < 0:
        raise InvariantError("separation must be nonnegative")
    if x < _SMALL_X:
        # series form; the direct expression cancels catastrophically here
        return 1.0 - x * x / 5.0 + 3.0 * x ** 4 / 280.0
    s, c = math.sin(x), math.cos(x)
    return 1.5 * (s / x + c / (x * x) - s / (x ** 3))


def shift_kernel(x: float) -> float:
    """Omega12 / gamma0 for transverse dipoles; diverges like 3/(4 x^3)."""
    if x <= 0:
        raise InvariantError("the coherent shift needs a positive separation")
    if x ** 3 == 0.0:
        raise InvariantError(f"separation {x!r} is too small for the coherent shift")
    s, c = math.sin(x), math.cos(x)
    return 0.75 * (-c / x + s / (x * x) + c / (x ** 3))


def collective_coefficients(bath: BathParams, gamma0: float) -> tuple[float, float]:
    """(gamma12, omega12) at the bath separation."""
    x = bath.r12
    return gamma0 * coupling_kernel(x), gamma0 * shift_kernel(x)


def _gks_parts(cfg: DynamicsConfig) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonian and coefficient matrix, in the order of _JUMPS[cfg.model]."""
    n_eff, m_eff = squeezed_occupations(cfg.bath)
    if cfg.model is ModelKind.QND:
        kappa = coupling_kernel(cfg.bath.r12)
        scale = 0.25 * cfg.gamma0 * (2.0 * n_eff + 1.0)
        c = scale * np.array([[1.0, kappa], [kappa, 1.0]], dtype=np.complex128)
        return np.zeros((4, 4), dtype=np.complex128), c
    gamma12, omega12 = collective_coefficients(cfg.bath, cfg.gamma0)
    g = np.array([[cfg.gamma0, gamma12], [gamma12, cfg.gamma0]])
    k = np.array([[n_eff + 1.0, -m_eff], [-np.conj(m_eff), n_eff]])
    return omega12 * _EXCHANGE, np.kron(k, g)


def _liouvillian(cfg: DynamicsConfig) -> np.ndarray:
    """Matrix L with vec(drho/dt) = L vec(rho), row-major vectorization."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        h, c = _gks_parts(cfg)
        eye = np.eye(4)
        lv = (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
              + np.tensordot(c, _DISSIPATORS[cfg.model], 2))
    if not np.isfinite(lv).all():
        raise InvariantError("the generator overflows at these bath parameters")
    return lv


def lindblad_rhs(rho_mat: np.ndarray, cfg: DynamicsConfig) -> np.ndarray:
    """drho/dt at rho; traceless and hermitian up to roundoff."""
    lv = _liouvillian(cfg)
    return (lv @ np.asarray(rho_mat, dtype=np.complex128).reshape(-1)).reshape(4, 4)


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    concurrence: np.ndarray
    fraction: np.ndarray
    fidelity: np.ndarray
    trace_err: np.ndarray
    min_eig: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def row(self, k: int) -> tuple[float, float, float, float, float, float]:
        return (float(self.t[k]), float(self.concurrence[k]), float(self.fraction[k]),
                float(self.fidelity[k]), float(self.trace_err[k]), float(self.min_eig[k]))

    def final_row(self) -> tuple[float, float, float, float, float, float]:
        return self.row(len(self.t) - 1)


def _propagator(lv: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of each constant generator in a (G, 16, 16)
    stack: the degree-4 Taylor polynomial of dt L, in Horner form."""
    a = dt * lv
    eye = np.eye(lv.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        p = eye + a / 4.0
        p = eye + (a / 3.0) @ p
        p = eye + (a / 2.0) @ p
        p = eye + a @ p
    if not np.isfinite(p).all():
        raise InvariantError(f"the RK4 step overflows at dt={dt:.6g}; lower dt")
    return p


def _powers(p: np.ndarray) -> np.ndarray:
    """(_CHUNK, G, 16, 16) stack P, P^2, ..., P^_CHUNK of a (G, 16, 16)
    propagator stack, cut before the first power with a non-finite entry:
    a state with no component along an overflowing direction then advances
    exactly as far as it would step by step."""
    q = np.empty((_CHUNK,) + p.shape, dtype=np.complex128)
    q[0] = p
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for j in range(1, _CHUNK):
            np.matmul(p, q[j - 1], out=q[j])
            if not np.isfinite(q[j]).all():
                return q[:j]
    return q


def _min_eig(mats: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a (..., 4, 4) hermitian stack;
    -inf where a matrix has a non-finite entry, which LAPACK never sees."""
    finite = np.isfinite(mats).all(axis=(-2, -1))
    out = np.full(finite.shape, -np.inf)
    out[finite] = np.linalg.eigvalsh(mats[finite])[..., 0]
    return out


def _x_blocks(mats: np.ndarray) -> np.ndarray | None:
    """(6, ...) real stack a, b, c, d, z, y = rho00, rho11, rho22, rho33,
    |rho03|, |rho12| of a (..., 4, 4) hermitian stack, or None unless every
    matrix is finite and exactly 0.0 off its diagonal and anti-diagonal."""
    flat = mats.reshape(mats.shape[:-2] + (16,))
    if flat[..., _OFF_X].any() or not np.isfinite(flat).all():
        return None
    blocks = np.empty((6,) + flat.shape[:-1])
    blocks[:4] = np.moveaxis(flat[..., _DIAG].real, -1, 0)
    blocks[4] = np.abs(flat[..., 3])
    blocks[5] = np.abs(flat[..., 6])
    return blocks


def _x_min_eig(blocks: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each X state: the lower eigenvalue of its two
    2 x 2 parity blocks [[a, rho03], [rho30, d]] and [[b, rho12], [rho21, c]]."""
    a, b, c, d, z, y = blocks
    return np.minimum(0.5 * (a + d) - np.hypot(0.5 * (a - d), z),
                      0.5 * (b + c) - np.hypot(0.5 * (b - c), y))


def _abort_detail(mat: np.ndarray, min_eig: float) -> str:
    """Why a state failed the positivity scan.  No state within MIN_EIG_ABORT
    of a density matrix has an entry above 1, and the eigenvalue of one that
    does is rounding noise of its entries, so such a state reports its
    largest entry instead."""
    if not np.isfinite(min_eig):
        return "non-finite entries"
    big = np.abs(mat).max()
    if big > 1.0:
        return f"diverged, largest |entry| {big:.3e}"
    return f"min eigenvalue {min_eig:.3e}"


def _diagnostics(mats: np.ndarray, min_eig: np.ndarray,
                 blocks: np.ndarray | None) -> tuple[np.ndarray, ...]:
    """Concurrence, fraction, fidelity, trace error and minimal eigenvalue of
    each state in an (n, 4, 4) stack whose minimal eigenvalues are min_eig,
    one batched call per column.  Given the stack's _x_blocks, concurrence
    and fraction are the X-state closed forms: Yu and Eberly's
    2 max(0, z - sqrt(bc), y - sqrt(ad)), and the larger of the parity
    blocks' (a + d)/2 + z and (b + c)/2 + y."""
    if blocks is None:
        conc = measures.concurrence_2qubit_stack(mats)
        frac = mixed.fef_2qubit_stack(mats)
    else:
        a, b, c, d, z, y = blocks
        conc = 2.0 * np.maximum(0.0, np.maximum(z - np.sqrt(np.maximum(b * c, 0.0)),
                                                y - np.sqrt(np.maximum(a * d, 0.0))))
        frac = np.maximum(0.5 * (a + d) + z, 0.5 * (b + c) + y)
    fid = measures.fidelity_from_fraction(frac, 2)
    tr = np.trace(mats, axis1=-2, axis2=-1)
    tr_err = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    return conc, frac, fid, tr_err, min_eig


def _step_count(cfg: DynamicsConfig) -> int:
    ratio = cfg.t_max / cfg.resolved_dt()
    if not ratio < cfg.max_steps + 0.5:
        raise InvariantError(
            f"{ratio:.6g} steps exceed max_steps={cfg.max_steps}; raise max_steps or dt")
    return max(1, int(round(ratio)))


def _integrate(cfg: DynamicsConfig, axis: str = "", points: np.ndarray | None = None
               ) -> np.ndarray:
    """Fixed-step RK4 from the initial state of cfg, for G grid points at once.

    Without points, G = 1 and the result is the (5, steps + 1) diagnostics
    of every step, t = 0 included.  With points, cfg's ``axis`` takes each
    grid value and the result is the (5, G) diagnostics at the last step.
    Every state of every point is checked in time order, and the run aborts
    at the first one that is non-finite or below MIN_EIG_ABORT, before any
    other diagnostic sees it.
    """
    dt = cfg.resolved_dt()
    steps = _step_count(cfg)
    cfgs = [cfg] if points is None else [_cfg_at(cfg, axis, float(x)) for x in points]
    q = _powers(_propagator(np.stack([_liouvillian(c) for c in cfgs]), dt))
    chunk, g = q.shape[:2]
    v = np.tile(cfg.resolved_initial().mat.reshape(-1).astype(np.complex128), (g, 1))
    block = _BLOCK_ROWS // g
    # a block closes at the first chunk that fills it, so it holds < block + chunk rows
    buf = np.empty((block + chunk, g, 16), dtype=np.complex128)
    buf[0] = v
    n = 1  # rows in buf; buf[0] is the state at step k0
    k0 = 0
    cols = np.empty((5, steps + 1)) if points is None else None
    with np.errstate(over="ignore", invalid="ignore"):  # blow-ups abort below
        for k in range(1, steps + 1, chunk):
            m = min(chunk, steps + 1 - k)
            w = (q[:m] @ v[..., None])[..., 0]  # the states at steps k .. k + m - 1
            w = 0.5 * (w + w[..., _VEC_TRANSPOSE].conj())
            buf[n:n + m] = w
            n += m
            v = w[-1]
            if n < block and k + m <= steps:
                continue
            mats = buf[:n].reshape(n, g, 4, 4)
            blocks = _x_blocks(mats)
            min_eig = _min_eig(mats) if blocks is None else _x_min_eig(blocks)
            bad = np.flatnonzero(~(min_eig >= MIN_EIG_ABORT))
            if bad.size:
                i, j = np.unravel_index(bad[0], min_eig.shape)
                at = f" at {axis}={points[j]:.6g}" if points is not None else ""
                raise InvariantError(f"state lost positivity at t={(k0 + i) * dt:.6g}{at} "
                                     f"({_abort_detail(mats[i, j], min_eig[i, j])})")
            if points is None:
                cols[:, k0:k0 + n] = _diagnostics(
                    mats[:, 0], min_eig[:, 0], None if blocks is None else blocks[:, :, 0])
            k0 += n
            n = 0
    if points is None:
        return cols
    return np.array(_diagnostics(mats[-1], min_eig[-1],
                                 None if blocks is None else blocks[:, -1]))


def evolve(cfg: DynamicsConfig) -> Trajectory:
    """Fixed-step RK4 trajectory with per-step records, t = 0 included.

    Aborts with InvariantError if the state leaves positivity by more
    than MIN_EIG_ABORT or the step budget is exceeded.
    """
    cols = _integrate(cfg)
    return Trajectory(np.arange(cols.shape[1]) * cfg.resolved_dt(), *cols)


def step_doubling_check(cfg: DynamicsConfig) -> float:
    """Endpoint concurrence change when dt is halved; a convergence probe."""
    coarse = evolve(cfg)
    fine_cfg = dataclasses.replace(cfg, dt=cfg.resolved_dt() / 2.0,
                                   max_steps=2 * cfg.max_steps + 2)
    fine = evolve(fine_cfg)
    return abs(coarse.final_row()[1] - fine.final_row()[1])


SWEEP_AXES = ("time", "r12", "squeeze_r")


def _cfg_at(cfg: DynamicsConfig, axis: str, value: float) -> DynamicsConfig:
    if axis == "r12":
        return dataclasses.replace(cfg, bath=dataclasses.replace(cfg.bath, r12=value))
    return dataclasses.replace(cfg, bath=dataclasses.replace(cfg.bath, squeeze_r=value))


@dataclass(frozen=True)
class SweepResult:
    axis: str
    rows: tuple[tuple[float, float, float, float, float, float], ...]


def sweep(cfg: DynamicsConfig, axis: str, grid: np.ndarray) -> SweepResult:
    """Endpoint diagnostics along a parameter grid.

    The time axis samples the trajectory of cfg at the nearest recorded
    steps.  The other axes advance the grid points together, up to
    _SWEEP_POINTS at a time, check positivity at every step, and report
    the t = t_max row.
    """
    if axis not in SWEEP_AXES:
        raise InvariantError(f"unknown sweep axis {axis!r}; use one of {SWEEP_AXES}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise InvariantError("sweep grid must be a nonempty 1-D array")
    if not np.isfinite(grid).all():
        raise InvariantError("sweep grid must be finite")
    if axis == "time":
        if grid.min() < 0 or grid.max() > cfg.t_max + 1e-12:
            raise InvariantError("time grid must lie within [0, t_max]")
        traj = evolve(cfg)
        # np.rint rounds half to even, like round
        k = np.clip(np.rint(grid / cfg.resolved_dt()).astype(int), 0, len(traj) - 1)
        rows = np.column_stack((grid, traj.concurrence[k], traj.fraction[k], traj.fidelity[k],
                                traj.trace_err[k], traj.min_eig[k])).tolist()
    else:
        rows = []
        for lo in range(0, grid.size, _SWEEP_POINTS):
            points = grid[lo:lo + _SWEEP_POINTS]
            rows += np.column_stack((points, *_integrate(cfg, axis, points))).tolist()
    return SweepResult(axis=axis, rows=tuple(map(tuple, rows)))
