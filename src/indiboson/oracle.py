"""Brute-force reference calculations in a truncated number basis.

Everything here is deliberately direct: assemble the vibrational Hamiltonian
H_e - eps_e (eps_e, one phase on every evolution, is left out) as a dense
matrix over ground-mode number states, diagonalize it once, and propagate
exactly in the eigenbasis. ``Propagator.of(c, basis)`` does both, and every
reference is one of its methods or, for the excited vacuum, its lowest
eigenvector ``modes[:, 0]``; nothing else factors a matrix. The closed
forms in :mod:`indiboson.analytic` are validated against these routines, so
nothing is imported from it: no formula and no container. Line lists come
back in the same shape on both sides, a numpy record array with fields
``offset`` and ``weight``.

The Hamiltonian is real symmetric, so its eigenbasis is real. Propagation
and the expectation values of real operators stay in real arithmetic: a
real matrix acts on a complex state through the state's (n, 2) float
view, never through a complex copy of the matrix.

The top eighth of the basis is a buffer: weight there means the physics
has hit the artificial wall, so a result that puts more than BUFFER_TOL
there is refused with :class:`TruncationError`, through one refusal
(``_refuse_leak``), instead of silently degraded. A stationary reference
(the T = 0 line weights, a return amplitude, the excited vacuum) is refused
on the weighted buffer weight of its eigenvectors, ``weights @
Propagator.edge``: the long-time average of the buffer population; the
vacuum, weight 1 on eigenvector 0, has its own. A state (an evolved state
at every requested time, the thermal mixture likewise) is refused on its
own buffer population. The thermal line list is the one reference that is
not checked (ROADMAP item 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleError, TruncationError
from .model import Couplings, ThermalParams

# OracleState, observable, evolve, energy_offset, the shims (excited_vacuum too): perfbench, tests
__all__ = [
    "BUFFER_TOL",
    "TruncatedBasis",
    "Propagator",
    "destroy",
    "vibrational_hamiltonian",
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


def vibrational_hamiltonian(c: Couplings, basis: TruncatedBasis) -> np.ndarray:
    """The excited-surface Hamiltonian less its electronic energy, H_e - eps_e,
    in the ground number basis: omega_e*lambda_e**2 + omega_g*(n + 1/2)
    - omega_e*(lambda1*(b+b^dag) + lambda2*(b+b^dag)**2). Refused when the
    rounding of its entries, eps*max|H|, exceeds 1e-8 of the smaller
    frequency: couplings that small next to the diagonal are lost to it."""
    n = basis.dim
    b = destroy(basis)
    q = b + b.T
    h = (
        (c.omega_e * c.lambda_e**2 + 0.5 * c.omega_g) * np.eye(n)
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
    """mat @ vec for a real matrix and a complex vector or (n, k) block, as
    one real product on the float view of real and imaginary parts, (n, 2)
    or (n, 2k); ``mat @ vec`` would first copy all of mat into a complex array."""
    vec = np.ascontiguousarray(vec, dtype=complex)
    pairs = vec.view(float).reshape(vec.shape[0], -1)
    return (mat @ pairs).view(complex).reshape(vec.shape)


def _refuse_leak(leak: float, what: str, basis: TruncatedBasis):
    """The one buffer refusal: ``what`` may put at most BUFFER_TOL of
    weighted population in the buffer (a NaN fails too)."""
    if not leak <= BUFFER_TOL:
        raise TruncationError(f"{what} put weighted buffer population {leak:.3e} "
                              f"past the basis edge (dim={basis.dim}); increase the basis")


class Propagator:
    """Eigendecomposition-backed propagator for a fixed Hamiltonian, which
    it keeps as ``hamiltonian``; ``edge[n]`` is the buffer population of
    eigenvector n.

    It remembers the last state it evolved with that state's eigenbasis
    coefficients, as one (state, coefficients) tuple so that a concurrent
    call reads a matching pair; a state is immutable, so evolving the same
    state to many times projects it onto the eigenbasis once."""

    def __init__(self, hamiltonian: np.ndarray, basis: TruncatedBasis):
        self.basis = basis
        self.hamiltonian = hamiltonian
        self.energies, self.modes = np.linalg.eigh(hamiltonian)
        self.edge = np.sum(self.modes[basis.buffer_start :] ** 2, axis=0)
        self._last = (None, None)

    @classmethod
    def of(cls, c: Couplings, basis: TruncatedBasis) -> "Propagator":
        """The vibrational Hamiltonian H_e - eps_e of ``c`` in ``basis``, diagonalised."""
        return cls(vibrational_hamiltonian(c, basis), basis)

    def evolve(self, state: OracleState, t: float) -> OracleState:
        last, coeffs = self._last
        if state is not last:
            coeffs = _real_matvec(self.modes.T, state.amplitudes)
            self._last = (state, coeffs)
        phases = np.exp(-1j * self.energies * t)
        amps = _real_matvec(self.modes, phases * coeffs)
        out = OracleState(amps, self.basis)
        _refuse_leak(out.buffer_population, "the evolved state", self.basis)
        return out

    def check_leak(self, weights: np.ndarray, what: str):
        """Refuse eigenstate weights w_n, n = 0..len-1, whose weighted
        buffer population sum_n w_n * edge[n] exceeds BUFFER_TOL."""
        _refuse_leak(float(weights @ self.edge[: weights.size]), what, self.basis)

    def _check_level(self, p: int):
        """Refuse a negative level and a level in the truncation buffer."""
        if p < 0:
            raise ValueError(f"p must be >= 0, got {p}")
        if p >= self.basis.buffer_start:
            raise TruncationError(f"level p={p} lies in the truncation buffer "
                                  f"(dim={self.basis.dim}); increase the basis")

    def return_amplitude(self, p: int, ts, energy_offset: float = 0.0) -> np.ndarray:
        """<p| e^{-i (H - energy_offset) t} |p> sampled on ts; a level in
        the truncation buffer, or one that leans on eigenstates living
        there, has no trustworthy amplitude."""
        self._check_level(p)
        ts = np.asarray(ts, dtype=float)
        weights = self.modes[p, :] ** 2
        self.check_leak(weights, f"the eigenstates of level p={p}")
        return weights @ np.exp(-1j * np.outer(self.energies - energy_offset, ts))

    def expectation(self, p: int, ts, op: np.ndarray) -> np.ndarray:
        """<p(t)|op|p(t)> on ts for number state p and a real symmetric op
        (:func:`_check_operator`), given as a matrix or as its diagonal. The
        amplitudes modes @ (e^{-i E t} modes[p]) are two real (dim, len(ts))
        products, cos and sin; refused for a level in the buffer, or when any
        time puts more than BUFFER_TOL there."""
        self._check_level(p)
        op = np.asarray(op)
        _check_operator(op, "expectation")
        phase = np.outer(self.energies, np.asarray(ts, dtype=float))
        col = self.modes[p][:, None]
        re = self.modes @ (np.cos(phase) * col)
        im = self.modes @ (np.sin(phase, out=phase) * col)  # its sign drops out
        pops = re**2 + im**2
        leak = float(np.max(np.sum(pops[self.basis.buffer_start :], axis=0), initial=0.0))
        _refuse_leak(leak, "the evolved state", self.basis)
        if op.ndim == 1:
            return op @ pops
        return np.sum(re * (op @ re), axis=0) + np.sum(im * (op @ im), axis=0)

    def thermal_correlation(self, th: ThermalParams, c: Couplings, ts) -> np.ndarray:
        """Thermal dipole correlation from the truncated basis:
        sum_p w_p e^{-i omega_eg t} e^{i omega_g t (p+1/2)}
        <p| e^{-i H t} |p>, for H = H_e - eps_e of ``c`` (:meth:`of`);
        refused when the mixture sum_p w_p |p><p| puts more than
        BUFFER_TOL in the buffer at any of ts."""
        ts = np.asarray(ts, dtype=float)
        weights = _thermal_weights(th, c, self.basis)
        e = np.exp(-1j * np.outer(self.energies, ts))
        leak = float(np.max(self._mixture_buffer(weights, e), initial=0.0))
        _refuse_leak(leak, "the thermal mixture", self.basis)
        ret = (self.modes[: weights.size] ** 2) @ e
        phases = np.exp(1j * c.omega_g * np.outer(np.arange(weights.size) + 0.5, ts))
        g = (weights[:, None] * phases * ret).sum(axis=0)
        return g * np.exp(-1j * c.omega_eg * ts)

    def _mixture_buffer(self, weights: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Buffer population of the evolved mixture sum_p w_p |p><p| at each
        column of the eigenbasis phases e (dim, n_t), exactly:
        Re sum_m conj(e_m) (C e)_m with C = (V_buf^T V_buf) o (V_p^T diag(w) V_p),
        a real matrix applied in real arithmetic; a common phase cancels."""
        v_buf = self.modes[self.basis.buffer_start :]
        v_p = self.modes[: weights.size]
        mix = (v_buf.T @ v_buf) * ((v_p.T * weights) @ v_p)
        ce = _real_matvec(mix, e)
        return np.einsum("nt,nt->t", e.real, ce.real) + np.einsum("nt,nt->t", e.imag, ce.imag)

    def franck_condon_weights(self, count: int) -> np.ndarray:
        """2*pi |<eigenstate n | ground vacuum>|**2 for n = 0..count-1; rejects
        a count reaching into the buffer, and weights that lean on it
        (:meth:`check_leak`)."""
        basis = self.basis
        if count > basis.buffer_start:
            raise TruncationError(f"count={count} lines reach past the buffer start "
                                  f"{basis.buffer_start} (dim={basis.dim}); increase the basis")
        weights = 2.0 * np.pi * self.modes[0, :count] ** 2
        self.check_leak(weights, "line weights")
        return weights

    def thermal_line_list(self, th: ThermalParams, c: Couplings) -> np.recarray:
        """Absorption lines from eigenbasis transition amplitudes, as a record
        array of offsets from the gap and weights, ground level by ground
        level, pruned below 1e-12 in units of 2*pi, for H = H_e - eps_e of ``c``."""
        weights = _thermal_weights(th, c, self.basis)
        line_w = weights[:, None] * self.modes[: weights.size, :] ** 2
        p, n = np.nonzero(line_w >= _THERMAL_WEIGHT_FLOOR)  # row-major: p, then n
        return np.rec.fromarrays([self.energies[n] - c.omega_g * (p + 0.5),
                                  2.0 * np.pi * line_w[p, n]], names="offset,weight")


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


def _check_operator(op: np.ndarray, taker: str) -> bool:
    """Refuse a complex, non-finite or asymmetric op; return whether it is a
    diagonal matrix. A diagonal, as a matrix or as a vector, is symmetric by
    construction, so only the diagonal is checked for finiteness."""
    if np.iscomplexobj(op):
        raise ValueError(f"operator is complex; {taker} takes real symmetric operators")
    diagonal = _is_diagonal(op)
    bulk = np.diagonal(op) if diagonal else op
    amax = max(abs(float(bulk.max())), abs(float(bulk.min())))  # NaN propagates
    if not math.isfinite(amax):
        raise ValueError("operator is not finite")
    asym = 0.0 if diagonal else float(np.max(op - op.T))  # antisymmetric: max is max|.|
    # the comparisons are written so that a NaN fails them
    if not asym <= 1e-13 * max(1.0, amax):
        raise ValueError("operator is not Hermitian")
    return diagonal


def observable(state: OracleState, op: np.ndarray) -> float:
    """<state|op|state> for a real symmetric op (:func:`_check_operator`), in
    real arithmetic, a diagonal op as its diagonal times the state: bit for
    bit the dense product, which only adds zeros. Refuses a nonreal result."""
    op = np.asarray(op)
    diagonal = _check_operator(op, "observable")
    a = state.amplitudes
    value = complex(np.vdot(a, np.diagonal(op) * a if diagonal else _real_matvec(op, a)))
    if not abs(value.imag) <= 1e-10 * max(1.0, abs(value.real)):
        raise OracleError(f"expectation value has imaginary residue {value.imag!r}")
    return value.real


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


# perfbench imports these; removable with ROADMAP item 1
def excited_vacuum(c, basis):
    prop = Propagator.of(c, basis)  # the vacuum is the lowest eigenvector
    prop.check_leak(np.ones(1), "the excited vacuum")
    vec = prop.modes[:, 0]
    return OracleState(vec if vec[0] >= 0.0 else -vec, basis)


def build_excited_hamiltonian(c, basis):
    h = vibrational_hamiltonian(c, basis)
    h.flat[:: basis.dim + 1] += c.epsilon_e  # H_e itself, for energy_offset
    return h


def thermal_correlation(th, c, basis, ts):
    return Propagator.of(c, basis).thermal_correlation(th, c, ts)


def franck_condon_weights(c, basis, count):
    return Propagator.of(c, basis).franck_condon_weights(count)


def thermal_line_list(th, c, basis):
    return Propagator.of(c, basis).thermal_line_list(th, c)


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
