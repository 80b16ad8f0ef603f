"""Brute-force reference calculations in a truncated number basis.

Everything here is deliberately direct: assemble the excited-surface
Hamiltonian as a dense matrix over ground-mode number states, diagonalize
it once, and propagate exactly in the eigenbasis. The closed forms in
:mod:`indiboson.analytic` are validated against these routines, so
nothing is imported from it: no formula and no container. Line lists come
back in the same shape on both sides, a numpy record array with fields
``offset`` and ``weight``.

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
# the largest rounding of a Hamiltonian entry, in units of the smaller frequency
_RESOLUTION_TOL = 1e-8


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
    + lambda2*(b+b^dag)**2). Refused when the rounding of its entries,
    eps*max|H|, exceeds 1e-8 of the smaller frequency: couplings that
    small next to the diagonal are lost to its rounding."""
    n = basis.dim
    b = destroy(basis)
    q = b + b.T
    h = (
        (c.epsilon_e_prime + 0.5 * c.omega_g) * np.eye(n)
        + c.omega_g * np.diag(np.arange(n, dtype=float))
        - c.omega_e * (c.lambda1 * q + c.lambda2 * (q @ q))
    )
    scale = max(1.0, float(np.max(np.abs(h))))
    rounding = np.finfo(float).eps * scale
    limit = _RESOLUTION_TOL * min(c.omega_g, c.omega_e)
    if rounding > limit:
        raise OracleError(
            f"Hamiltonian entries reach {scale:.3e}; their rounding {rounding:.3e} exceeds "
            f"{_RESOLUTION_TOL:g} of the smaller frequency ({limit:.3e}), so the oracle "
            "cannot resolve the couplings"
        )
    if float(np.max(np.abs(h - h.T))) > 1e-13 * scale:
        raise OracleError("assembled Hamiltonian is not Hermitian")
    return h


@dataclass(frozen=True)
class OracleState:
    """Normalized state vector over a truncated basis. The amplitudes are
    a read-only copy of the input, so a state never changes after it is
    made and the caller's array is never written."""

    amplitudes: np.ndarray
    basis: TruncatedBasis

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match dim {self.basis.dim}"
            )
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= 1e-10:  # a NaN norm fails too
            raise ValueError(f"state norm {norm!r} is not 1 within 1e-10")
        amps.flags.writeable = False
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
    """Eigendecomposition-backed propagator for a fixed Hamiltonian.

    It remembers the last state it evolved with that state's eigenbasis
    coefficients, as one (state, coefficients) tuple so that a concurrent
    call reads a matching pair; a state is immutable, so evolving the same
    state to many times projects it onto the eigenbasis once."""

    def __init__(self, hamiltonian: np.ndarray, basis: TruncatedBasis):
        self.basis = basis
        self.energies, self.modes = np.linalg.eigh(np.asarray(hamiltonian, dtype=float))
        self._last = (None, None)

    def evolve(self, state: OracleState, t: float) -> OracleState:
        last, coeffs = self._last
        if state is not last:
            coeffs = _real_matvec(self.modes.T, state.amplitudes)
            self._last = (state, coeffs)
        phases = np.exp(-1j * self.energies * t)
        amps = _real_matvec(self.modes, phases * coeffs)
        out = OracleState(amps, self.basis)
        if out.buffer_population > BUFFER_TOL:
            raise TruncationError(
                f"evolved state puts {out.buffer_population:.3e} of its weight in "
                f"the truncation buffer (dim={self.basis.dim}); increase the basis"
            )
        return out

    def _check_leak(self, weights: np.ndarray, what: str):
        """Refuse eigenstate weights w_n, n = 0..len-1, that put more than
        BUFFER_TOL on the buffer: sum_n w_n * (buffer population of
        eigenstate n)."""
        start = self.basis.buffer_start
        leak = float(weights @ np.sum(self.modes[start:, : weights.size] ** 2, axis=0))
        if not leak <= BUFFER_TOL:  # a NaN fails too
            raise TruncationError(f"{what} put weighted buffer population {leak:.3e} "
                                  f"past the basis edge (dim={self.basis.dim}); increase the basis")

    def return_amplitude(self, p: int, ts, energy_offset: float = 0.0) -> np.ndarray:
        """<p| e^{-i (H - energy_offset) t} |p> sampled on ts; a level in
        the truncation buffer, or one that leans on eigenstates living
        there, has no trustworthy amplitude."""
        if p < 0:
            raise ValueError(f"p must be >= 0, got {p}")
        if p >= self.basis.buffer_start:
            raise TruncationError(f"level p={p} lies in the truncation buffer "
                                  f"(dim={self.basis.dim}); increase the basis")
        ts = np.asarray(ts, dtype=float)
        weights = self.modes[p, :] ** 2
        self._check_leak(weights, f"the eigenstates of level p={p}")
        return weights @ np.exp(-1j * np.outer(self.energies - energy_offset, ts))

    def thermal_correlation(self, th: ThermalParams, c: Couplings, ts) -> np.ndarray:
        """Thermal dipole correlation from the truncated basis:
        sum_p w_p e^{-i omega_eg t} e^{i omega_g t (p+1/2)}
        <p| e^{-i (H_e - eps_e) t} |p>, for the Hamiltonian of ``c``."""
        ts = np.asarray(ts, dtype=float)
        weights = _thermal_weights(th, c, self.basis)
        evib = self.energies - c.epsilon_e
        ps = np.arange(weights.size)
        ret = (self.modes[: weights.size, :] ** 2) @ np.exp(-1j * np.outer(evib, ts))
        phases = np.exp(1j * c.omega_g * np.outer(ps + 0.5, ts))
        _check_thermal_buffer(self, weights, ts)
        g = (weights[:, None] * phases * ret).sum(axis=0)
        return g * np.exp(-1j * c.omega_eg * ts)

    def franck_condon_weights(self, count: int) -> np.ndarray:
        """2*pi |<eigenstate n | ground vacuum>|**2 for n = 0..count-1; rejects
        a count reaching into the buffer, and weights that lean on it
        (:meth:`_check_leak`)."""
        basis = self.basis
        if count > basis.buffer_start:
            raise TruncationError(f"count={count} lines reach past the buffer start "
                                  f"{basis.buffer_start} (dim={basis.dim}); increase the basis")
        weights = 2.0 * np.pi * self.modes[0, :count] ** 2
        self._check_leak(weights, "line weights")
        return weights


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
    """<state|op|state> for a real symmetric op; refuses a complex op, a
    non-finite op and a nonreal result. The op is checked as max|op - op.T|
    and applied in real arithmetic; a diagonal op passes that check by
    construction, so only its diagonal is checked for finiteness, and it
    is applied as its diagonal times the state, bit for bit the dense
    product, which only adds zeros to each entry."""
    op = np.asarray(op)
    if np.iscomplexobj(op):
        raise ValueError("operator is complex; observable takes real symmetric operators")
    diagonal = _is_diagonal(op)
    bulk = np.diagonal(op) if diagonal else op
    amax = max(abs(float(bulk.max())), abs(float(bulk.min())))  # NaN propagates
    if not math.isfinite(amax):
        raise ValueError("operator is not finite")
    asym = 0.0 if diagonal else float(np.max(op - op.T))  # antisymmetric: max is max|.|
    # the comparisons are written so that a NaN fails them
    if not asym <= 1e-13 * max(1.0, amax):
        raise ValueError("operator is not Hermitian")
    a = state.amplitudes
    value = complex(np.vdot(a, np.diagonal(op) * a if diagonal else _real_matvec(op, a)))
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
    """:meth:`Propagator.thermal_correlation` of the excited-surface
    Hamiltonian in ``basis``."""
    return Propagator(build_excited_hamiltonian(c, basis), basis).thermal_correlation(th, c, ts)


def franck_condon_weights(c: Couplings, basis: TruncatedBasis, count: int) -> np.ndarray:
    """:meth:`Propagator.franck_condon_weights` of the excited-surface
    Hamiltonian in ``basis``."""
    return Propagator(build_excited_hamiltonian(c, basis), basis).franck_condon_weights(count)


def thermal_line_list(th: ThermalParams, c: Couplings, basis: TruncatedBasis) -> np.recarray:
    """Absorption lines from eigenbasis transition amplitudes, as a record
    array of offsets from the gap and weights, ground level by ground
    level, pruned below 1e-12 in units of 2*pi."""
    weights = _thermal_weights(th, c, basis)
    prop = Propagator(build_excited_hamiltonian(c, basis), basis)
    evib = prop.energies - c.epsilon_e
    line_w = weights[:, None] * prop.modes[: weights.size, :] ** 2
    p, n = np.nonzero(line_w >= _THERMAL_WEIGHT_FLOOR)  # row-major: p, then n
    return np.rec.fromarrays([evib[n] - c.omega_g * (p + 0.5), 2.0 * np.pi * line_w[p, n]],
                             names="offset,weight")


def window_broadened(w_offsets, lines, eta: float, t_max: float) -> np.ndarray:
    """Line list at offsets from the gap, each line through the finite
    damped window weight/(2*pi) * 2*Re[(exp(s*t_max) - 1)/s] with
    s = i*(w - offset) - eta; 256 lines at a time, exp(s*t_max) factored as
    e^{-eta t_max} e^{i w t_max} e^{-i offset t_max}."""
    w = np.asarray(w_offsets, dtype=float)
    col = w.reshape(-1, 1)
    w_phase = math.exp(-eta * t_max) * np.exp(1j * t_max * col)
    out = np.zeros(col.shape[0])
    for start in range(0, len(lines), 256):
        block = lines[start : start + 256]
        s = 1j * (col - block.offset) - eta
        grow = w_phase * np.exp(-1j * t_max * block.offset)
        out += ((grow - 1.0) / s).real @ (block.weight / np.pi)
    return out.reshape(w.shape)
