"""Brute-force reference calculations in a truncated number basis.

Everything here is deliberately direct: assemble the excited-surface
Hamiltonian as a dense matrix over ground-mode number states, diagonalize
it once, and propagate exactly in the eigenbasis. The closed forms in
:mod:`indiboson.analytic` are validated against these routines, so none
of its formulas may be reused here (sharing its plain result containers
is fine).

The Hamiltonian is real symmetric, so its eigenbasis is real. Propagation
and the expectation values of real operators stay in real arithmetic: a
real matrix acts on a complex state through the state's (n, 2) float
view, never through a complex copy of the matrix.

The top eighth of the basis is treated as a buffer zone; population
reaching it means the physics has hit the artificial wall and results are
rejected via :class:`TruncationError` rather than silently degraded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleError, TruncationError
from .model import Couplings, ThermalParams

__all__ = [
    "BUFFER_TOL",
    "TruncatedBasis",
    "OracleState",
    "Propagator",
    "destroy",
    "build_excited_hamiltonian",
    "observable",
    "excited_vacuum",
    "thermal_correlation",
    "franck_condon_weights",
    "thermal_line_list",
    "window_broadened",
]

BUFFER_TOL = 1e-8
_THERMAL_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class TruncatedBasis:
    """Number basis |0>..|dim-1> with the top eighth reserved as buffer."""

    dim: int

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 2:
            raise ValueError(f"dim must be an integer >= 2, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def buffer_start(self) -> int:
        return self.dim - self.dim // 8 if self.dim >= 8 else self.dim - 1


def destroy(basis: TruncatedBasis) -> np.ndarray:
    """Annihilation operator; <p-1|b|p> = sqrt(p)."""
    return np.diag(np.sqrt(np.arange(1.0, basis.dim)), 1)


def build_excited_hamiltonian(c: Couplings, basis: TruncatedBasis) -> np.ndarray:
    """Excited-surface Hamiltonian in the ground number basis:
    eps_e' + omega_g*(n + 1/2) - omega_e*(lambda1*(b+b^dag)
    + lambda2*(b+b^dag)**2)."""
    n = basis.dim
    b = destroy(basis)
    q = b + b.T
    h = (
        (c.epsilon_e_prime + 0.5 * c.omega_g) * np.eye(n)
        + c.omega_g * np.diag(np.arange(n, dtype=float))
        - c.omega_e * (c.lambda1 * q + c.lambda2 * (q @ q))
    )
    scale = max(1.0, float(np.max(np.abs(h))))
    if float(np.max(np.abs(h - h.T))) > 1e-13 * scale:
        raise OracleError("assembled Hamiltonian is not Hermitian")
    return h


@dataclass(frozen=True)
class OracleState:
    """Normalized state vector over a truncated basis."""

    amplitudes: np.ndarray
    basis: TruncatedBasis

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match dim {self.basis.dim}"
            )
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= 1e-10:  # a NaN norm fails too
            raise ValueError(f"state norm {norm!r} is not 1 within 1e-10")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def number_state(cls, basis: TruncatedBasis, p: int) -> "OracleState":
        if not 0 <= p < basis.dim:
            raise ValueError(f"p must lie in [0, {basis.dim}), got {p}")
        amps = np.zeros(basis.dim, dtype=complex)
        amps[p] = 1.0
        return cls(amps, basis)

    @property
    def buffer_population(self) -> float:
        tail = self.amplitudes[self.basis.buffer_start :]
        return float(np.vdot(tail, tail).real)


def _real_matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec for a real matrix and a complex vector, as one real
    product on the vector's (n, 2) float view of real and imaginary parts;
    ``mat @ vec`` would first copy all of mat into a complex array."""
    pairs = np.ascontiguousarray(vec, dtype=complex).view(float).reshape(-1, 2)
    return (mat @ pairs).view(complex).reshape(-1)


class Propagator:
    """Eigendecomposition-backed propagator for a fixed Hamiltonian."""

    def __init__(self, hamiltonian: np.ndarray, basis: TruncatedBasis | None = None):
        hamiltonian = np.asarray(hamiltonian, dtype=float)
        self.basis = basis if basis is not None else TruncatedBasis(len(hamiltonian))
        self.energies, self.modes = np.linalg.eigh(hamiltonian)

    def evolve(self, state: OracleState, t: float, check_buffer: bool = True) -> OracleState:
        phases = np.exp(-1j * self.energies * t)
        amps = _real_matvec(self.modes, phases * _real_matvec(self.modes.T, state.amplitudes))
        out = OracleState(amps, self.basis)
        if check_buffer and out.buffer_population > BUFFER_TOL:
            raise TruncationError(
                f"evolved state puts {out.buffer_population:.3e} of its weight in "
                f"the truncation buffer (dim={self.basis.dim}); increase the basis"
            )
        return out

    def return_amplitude(self, p: int, ts, energy_offset: float = 0.0) -> np.ndarray:
        """<p| e^{-i (H - energy_offset) t} |p> sampled on ts."""
        ts = np.asarray(ts, dtype=float)
        weights = self.modes[p, :] ** 2
        return weights @ np.exp(-1j * np.outer(self.energies - energy_offset, ts))


def _is_diagonal(op: np.ndarray) -> bool:
    """True for a real floating square op with no nonzero entry off the
    diagonal (a NaN counts as nonzero), so that op - op.T is exactly zero.
    The off-diagonal is read once, as the (n-1, n) view of the flat storage
    between consecutive diagonal entries; a transposed read of the whole op
    costs several times more."""
    if op.dtype.kind != "f" or op.ndim != 2 or op.shape[0] != op.shape[1] or op.size == 0:
        return False
    n = op.shape[0]
    return not op.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].any()


def observable(state: OracleState, op: np.ndarray) -> float:
    """<state|op|state> for Hermitian op; rejects non-finite operators and
    nonreal results. A real op is checked as max|op - op.T| and applied in
    real arithmetic; a real diagonal op passes that check by construction,
    so only its diagonal is checked for finiteness."""
    op = np.asarray(op)
    real = not np.iscomplexobj(op)
    diagonal = real and _is_diagonal(op)
    if diagonal:
        amax = float(np.max(np.abs(np.diagonal(op))))  # NaN propagates
    elif real:
        amax = max(abs(float(op.max())), abs(float(op.min())))  # NaN propagates
    else:
        amax = float(np.max(np.abs(op)))
    if not math.isfinite(amax):
        raise ValueError("operator is not finite")
    if diagonal:
        asym = 0.0
    elif real:
        asym = float(np.max(op - op.T))  # op - op.T is antisymmetric: max is max|.|
    else:
        asym = float(np.max(np.abs(op - op.conj().T)))
    # the comparisons are written so that a NaN fails them
    if not asym <= 1e-13 * max(1.0, amax):
        raise ValueError("operator is not Hermitian")
    applied = _real_matvec(op, state.amplitudes) if real else op @ state.amplitudes
    value = complex(np.vdot(state.amplitudes, applied))
    if not abs(value.imag) <= 1e-10 * max(1.0, abs(value.real)):
        raise OracleError(f"expectation value has imaginary residue {value.imag!r}")
    return value.real


def excited_vacuum(c: Couplings, basis: TruncatedBasis) -> OracleState:
    """Vacuum of the excited-surface mode expanded over ground number states.

    Found as the null vector of the excited annihilation operator
    gamma_plus*b + gamma_minus*b^dag - lambda_e. The last matrix row
    couples to the truncated level, so the null space is taken over the
    top (dim-1) x dim block; contamination shows up as buffer weight.
    """
    n = basis.dim
    b = destroy(basis)
    mat = c.gamma_plus * b + c.gamma_minus * b.T - c.lambda_e * np.eye(n)
    _, sing, vh = np.linalg.svd(mat[: n - 1, :])
    # the block is (n-1) x n, so the null direction pairs with the implicit
    # zero singular value; a tiny sing[-1] would mean a second near-null
    # vector and an ambiguous extraction
    if sing[-1] < 1e-10 * sing[0]:
        raise TruncationError(
            "null space of the annihilation operator is not unique "
            f"(sigma gap {sing[-1] / sing[0]:.3e}); increase the basis"
        )
    vec = vh[-1]
    residual = float(np.linalg.norm(mat[: n - 1, :] @ vec))
    if residual > 1e-10:
        raise TruncationError(
            f"annihilation-operator null vector has residual {residual:.3e}; "
            "increase the basis"
        )
    if vec[0] != 0.0:
        vec = vec * np.sign(vec[0])  # ground-state coefficient is positive
    state = OracleState(vec.astype(complex), basis)
    if state.buffer_population > BUFFER_TOL:
        raise TruncationError(
            f"excited vacuum leaks {state.buffer_population:.3e} into the "
            f"truncation buffer (dim={n}); increase the basis"
        )
    return state


def _thermal_weights(th: ThermalParams, c: Couplings, basis: TruncatedBasis) -> np.ndarray:
    """Boltzmann weights (1-boltz)*boltz**p down to the 1e-12 floor; a
    ground level below the floor means no basis holds the occupation."""
    boltz = th.boltzmann(c.omega_g)
    weights = []
    w = 1.0 - boltz
    if w < _THERMAL_WEIGHT_FLOOR:
        raise TruncationError(f"thermal occupation at beta={th.beta!r} puts even the "
                              "ground level below the weight floor")
    while w >= _THERMAL_WEIGHT_FLOOR:
        weights.append(w)
        if len(weights) > basis.dim:
            raise TruncationError(
                f"thermal occupation at beta={th.beta!r} needs more than "
                f"dim={basis.dim} levels above the weight floor"
            )
        w *= boltz
    return np.array(weights)


def _check_thermal_buffer(prop: Propagator, weights: np.ndarray, ts: np.ndarray):
    """Weighted buffer occupancy on a coarse time subset; high-p states may
    trespass individually but only their Boltzmann-weighted sum matters."""
    basis = prop.basis
    v_buf = prop.modes[basis.buffer_start :, :]
    v_init = prop.modes[: weights.size, :]
    sample = ts[:: max(1, ts.size // 8)]
    worst = 0.0
    for t in sample:
        u = (v_buf * np.exp(-1j * prop.energies * t)) @ v_init.T
        per_state = np.sum(np.abs(u) ** 2, axis=0)
        worst = max(worst, float(weights @ per_state))
    if worst > BUFFER_TOL:
        raise TruncationError(
            f"thermal evolution puts weighted buffer population {worst:.3e} "
            f"past the basis edge (dim={basis.dim}); increase the basis"
        )


def thermal_correlation(th: ThermalParams, c: Couplings, basis: TruncatedBasis,
                        ts) -> np.ndarray:
    """Thermal dipole correlation from the truncated basis:
    sum_p w_p e^{-i omega_eg t} e^{i omega_g t (p+1/2)}
    <p| e^{-i (H_e - eps_e) t} |p>."""
    ts = np.asarray(ts, dtype=float)
    weights = _thermal_weights(th, c, basis)
    prop = Propagator(build_excited_hamiltonian(c, basis), basis)
    evib = prop.energies - c.epsilon_e
    ps = np.arange(weights.size)
    ret = (prop.modes[: weights.size, :] ** 2) @ np.exp(-1j * np.outer(evib, ts))
    phases = np.exp(1j * c.omega_g * np.outer(ps + 0.5, ts))
    _check_thermal_buffer(prop, weights, ts)
    g = (weights[:, None] * phases * ret).sum(axis=0)
    return g * np.exp(-1j * c.omega_eg * ts)


def franck_condon_weights(c: Couplings, basis: TruncatedBasis, count: int) -> np.ndarray:
    """2*pi |<eigenstate n | ground vacuum>|**2 for n = 0..count-1; rejects
    a count reaching into the buffer, and weights that put more than
    BUFFER_TOL on it: sum_n weight_n * (buffer population of eigenstate n)."""
    if count > basis.buffer_start:
        raise TruncationError(f"count={count} lines reach past the buffer start "
                              f"{basis.buffer_start} (dim={basis.dim}); increase the basis")
    prop = Propagator(build_excited_hamiltonian(c, basis), basis)
    weights = 2.0 * np.pi * prop.modes[0, :count] ** 2
    leak = float(weights @ np.sum(prop.modes[basis.buffer_start :, :count] ** 2, axis=0))
    if leak > BUFFER_TOL:
        raise TruncationError(f"line weights put weighted buffer population {leak:.3e} "
                              f"past the basis edge (dim={basis.dim}); increase the basis")
    return weights


def thermal_line_list(th: ThermalParams, c: Couplings, basis: TruncatedBasis):
    """Absorption lines (offset from the gap, weight) from eigenbasis
    transition amplitudes, pruned below 1e-12 in units of 2*pi."""
    from .analytic import SpectralLine

    weights = _thermal_weights(th, c, basis)
    prop = Propagator(build_excited_hamiltonian(c, basis), basis)
    evib = prop.energies - c.epsilon_e
    lines = []
    for p, w_p in enumerate(weights):
        amps = prop.modes[p, :] ** 2
        for n in range(basis.dim):
            weight = w_p * amps[n]
            if weight >= _THERMAL_WEIGHT_FLOOR:
                lines.append(
                    SpectralLine(
                        offset=float(evib[n] - c.omega_g * (p + 0.5)),
                        weight=float(2.0 * np.pi * weight),
                    )
                )
    return lines


def window_broadened(w_offsets, lines, eta: float, t_max: float) -> np.ndarray:
    """Line list at offsets from the gap, each line through the finite
    damped window weight/(2*pi) * 2*Re[(exp(s*t_max) - 1)/s] with
    s = i*(w - offset) - eta."""
    w = np.asarray(w_offsets, dtype=float)
    out = np.zeros(w.shape)
    for ln in lines:
        s = 1j * (w - ln.offset) - eta
        out += ln.weight / np.pi * ((np.exp(s * t_max) - 1.0) / s).real
    return out
