"""Closed-form dynamics, correlation functions, and line shapes.

All results here are exact expressions for one harmonic mode whose
frequency and equilibrium position both change between the two electronic
surfaces. The ground-surface number state p (or a thermal mixture of
them) is promoted to the excited surface at t = 0 and the functions below
follow the return amplitude ``<p| e^{-i H_e^{vib} t} |p>``, the phonon
occupation, and the resulting absorption spectrum.

Conventions: correlation functions carry the full electronic phase
``e^{-i omega_eg t}``; spectral line offsets are measured from omega_eg,
and zero-temperature line weights sum to 2*pi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceWarning,
    InsufficientDecayWarning,
    LineListError,
    PoleError,
    ResolutionWarning,
)
from .model import Couplings, ThermalParams, time_coeffs
from .specfun import laguerre_half_seq, laguerre_seq

__all__ = [
    "OverlapValue",
    "SpectralLine",
    "overlap",
    "phonon_number",
    "correlation",
    "vacuum_expansion_linear",
    "vacuum_ground_phonon_number",
    "phonon_number_linear",
    "phonon_number_quadratic",
    "excited_phonon_number",
    "excited_mean_energy",
    "overlap_linear",
    "overlap_quadratic",
    "generating_function",
    "spectrum_zero_T",
    "spectrum_finite_T",
    "broadened_lines",
    "polaron_state_check",
]

# Distance below which a generating-function argument counts as sitting on
# a pole.
POLE_TOL = 1e-9

_SUM_RULE_TAIL = 1e-10
_LINE_CAP = 2000
# largest phase error, in rad over the time window, that a frequency grid
# may carry and still count as uniform for the chirp-z transform
_UNIFORM_PHASE_TOL = 1e-10
# time samples per finite-temperature spectrum; at the cap the curvature
# target is no longer met and ResolutionWarning says by how much
_SAMPLE_CAP = 400_001
# interpolation error targeted by the time step: curvature * h**2 / 8
_INTERP_TARGET = 1e-5


def _check_magnitude(name: str, value):
    """Reject a return amplitude or correlation (scalar or array) whose
    magnitude exceeds 1 beyond roundoff."""
    peak = abs(value)
    if isinstance(peak, np.ndarray):
        peak = peak.max(initial=0.0)
    if peak > 1.0 + 1e-6:
        raise ValueError(f"{name} magnitude {float(peak)!r} exceeds 1 beyond tolerance")


@dataclass(frozen=True)
class OverlapValue:
    """Return amplitude of ground-surface number state p at time t; for an
    ndarray of times ``value`` is an array of the same shape."""

    p: int
    t: float | np.ndarray
    value: complex | np.ndarray

    def __post_init__(self):
        _check_magnitude("overlap", self.value)

    @property
    def probability(self) -> float | np.ndarray:
        return abs(self.value) ** 2


def _overlap_value(p: int, t, value) -> OverlapValue:
    if isinstance(value, np.ndarray):
        return OverlapValue(p=p, t=t, value=value)
    return OverlapValue(p=p, t=float(t), value=complex(value))


@dataclass(frozen=True)
class SpectralLine:
    """One absorption line: offset is measured from the electronic gap."""

    offset: float
    weight: float


def _require_equal_frequencies(c: Couplings, op: str):
    if not c.equal_frequencies:
        raise ValueError(
            f"{op} assumes omega_g == omega_e; got gamma_minus = {c.gamma_minus!r}"
        )


def _require_order(p: int) -> int:
    p = int(p)
    if p < 0:
        raise ValueError(f"phonon index must be >= 0, got {p}")
    return p


# ---------------------------------------------------------------------------
# stationary quantities


def vacuum_expansion_linear(lam: float, p_max: int) -> np.ndarray:
    """Ground-basis number-state coefficients of the displaced vacuum.

    Coefficient p is exp(-lam**2/2) * lam**p / sqrt(p!); the squared
    coefficients form the Poisson distribution with mean lam**2.
    """
    p_max = _require_order(p_max)
    out = np.empty(p_max + 1)
    amp = math.exp(-0.5 * lam * lam)
    out[0] = amp
    for p in range(1, p_max + 1):
        amp *= lam / math.sqrt(p)
        out[p] = amp
    return out


def vacuum_ground_phonon_number(c: Couplings) -> float:
    """Ground-mode occupation of the excited-surface vacuum,
    lambda_g**2 + gamma_minus**2 (displacement plus squeezing parts)."""
    return c.lambda_g**2 + c.gamma_minus**2


def phonon_number_linear(p: int, c: Couplings, t):
    """Ground-mode occupation of the evolved state, equal frequencies:
    p + 4*lambda_g**2*sin(omega*t/2)**2. A float for a float t, an array
    for an ndarray of times."""
    p = _require_order(p)
    _require_equal_frequencies(c, "phonon_number_linear")
    s = np.sin(0.5 * c.omega_e * t)
    return p + 4.0 * c.huang_rhys * s * s


def phonon_number_quadratic(p: int, c: Couplings, t):
    """Ground-mode occupation of the evolved state for general couplings:
    p*|d'|**2 + (p+1)*|q'|**2 + |lam'|**2, at a time or an ndarray of
    times."""
    p = _require_order(p)
    tc = time_coeffs(c, t)
    return (
        p * abs(tc.d_tilde_prime) ** 2
        + (p + 1) * abs(tc.q_tilde_prime) ** 2
        + abs(tc.lam_tilde_prime) ** 2
    )


def phonon_number(p: int, c: Couplings, ts) -> np.ndarray:
    """Ground-mode occupation of the evolved state on an array of times;
    the one place that picks the equal-frequency or the general closed
    form."""
    ts = np.asarray(ts, dtype=float)
    kernel = phonon_number_linear if c.equal_frequencies else phonon_number_quadratic
    return kernel(p, c, ts)


def excited_phonon_number(p: int, c: Couplings) -> float:
    """Excited-mode occupation, constant in time: p + lambda_g**2.
    Defined only for equal surface frequencies."""
    p = _require_order(p)
    _require_equal_frequencies(c, "excited_phonon_number")
    return p + c.huang_rhys


def excited_mean_energy(p: int, c: Couplings) -> float:
    """Conserved excited-surface energy for equal frequencies:
    epsilon_e + omega*(p + lambda_g**2 + 1/2)."""
    p = _require_order(p)
    _require_equal_frequencies(c, "excited_mean_energy")
    return c.epsilon_e + c.omega_e * (p + c.huang_rhys + 0.5)


# ---------------------------------------------------------------------------
# return amplitudes


def overlap_linear(p: int, c: Couplings, t) -> OverlapValue:
    """Return amplitude for equal surface frequencies, at a time or an
    ndarray of times.

    <p|p(t)> = exp(-lam*conj(lam_t)) * exp(-i*omega*t*(p + 1/2))
               * L_p(|lam_t|**2)  with  lam_t = lam*(1 - e^{i omega t}).
    """
    p = _require_order(p)
    _require_equal_frequencies(c, "overlap_linear")
    w = c.omega_e
    lam = c.lambda_g
    lam_t = lam * (1.0 - np.exp(1j * w * t))
    value = (
        np.exp(-lam * np.conj(lam_t))
        * np.exp(-1j * w * t * (p + 0.5))
        * laguerre_seq(p, abs(lam_t) ** 2)[p]
    )
    return _overlap_value(p, t, value)


def _t0_return_factor(c: Couplings, t):
    """Vacuum return amplitude up to the e^{-i omega_e t / 2} zero-point
    phase; scalar or ndarray t.

    The denominator is written as 1 + gamma_minus**2*(1 - e^{-2i theta})
    (identical to gamma_plus**2 - gamma_minus**2*e^{-2i theta}) so the
    t = 0 value is exactly 1. Its real part never drops below 1, keeping
    the principal square root on a single branch.
    """
    theta = c.omega_e * t
    em1 = np.exp(-1j * theta)
    denom = 1.0 + c.gamma_minus**2 * (1.0 - em1 * em1)
    shift = c.lambda_g * c.lambda_e * (1.0 - em1) / (c.gamma_plus - c.gamma_minus * em1)
    return denom**-0.5 * np.exp(-shift)


def overlap_quadratic(p: int, c: Couplings, t) -> OverlapValue:
    """Return amplitude for general frequency and position changes, at a
    time or an ndarray of times.

    Evaluates the closed form
    T0 * e^{-i omega_e t/2} * (d/(1+q))**p *
    sum_k ((1+q)/(1-q))**k L^{(-1/2)}_{p-k}(0) L^{(-1/2)}_k(-lam**2/(d(1-q)))
    which reduces to :func:`overlap_linear` as the frequencies merge. For
    real parameters q is purely imaginary, so |1 -+ q| >= 1 and the
    partial fractions never degenerate.
    """
    p = _require_order(p)
    tc = time_coeffs(c, t)
    d, q, lam = tc.d_tilde, tc.q_tilde, tc.lam_tilde
    half = laguerre_half_seq(p, -lam * lam / (d * (1.0 - q)))
    ratio = (1.0 + q) / (1.0 - q)
    column = (p + 1,) + (1,) * (half.ndim - 1)  # broadcast the k-sum over the times
    k = np.arange(p + 1).reshape(column)
    terms = laguerre_half_seq(p, 0.0)[::-1].reshape(column) * half
    acc = np.sum(ratio**k * terms, axis=0)
    value = (
        _t0_return_factor(c, t)
        * np.exp(-0.5j * c.omega_e * t)
        * (d / (1.0 + q)) ** p
        * acc
    )
    return _overlap_value(p, t, value)


def overlap(p: int, c: Couplings, ts) -> np.ndarray:
    """Return amplitudes <p|p(t)> on an array of times; the one place that
    picks the equal-frequency or the general closed form."""
    ts = np.asarray(ts, dtype=float)
    return (overlap_linear if c.equal_frequencies else overlap_quadratic)(p, c, ts).value


# ---------------------------------------------------------------------------
# generating function and thermal correlation


def _check_generating_argument(x, q, context=""):
    x = np.asarray(x)
    q = np.asarray(q)
    near_pole = np.minimum(np.abs(x - (1.0 - q)), np.abs(x - (1.0 + q)))
    if np.any(near_pole < POLE_TOL):
        raise PoleError(
            f"generating-function argument within {POLE_TOL:g} of a pole{context}"
        )
    radius = np.minimum(np.abs(1.0 - q), np.abs(1.0 + q))
    if np.any(np.abs(x) >= radius):
        warnings.warn(
            "generating-function argument lies outside the Taylor convergence "
            f"disk{context}; returning the analytic continuation",
            DivergenceWarning,
            stacklevel=3,
        )


def generating_function(x: complex, c: Couplings, t: float) -> complex:
    """Generating function K(x) = sum_p x**p T_p of the scaled return
    amplitudes at time t.

    Closed form: T0 * sqrt((1-q**2)/((x-1)**2 - q**2))
    * exp(-x*lam**2/(d*(x-1+q)*(1-q))), with simple poles at x = 1 -+ q.
    Arguments within POLE_TOL of a pole raise :class:`PoleError`;
    arguments on or outside the nearer pole's radius emit
    :class:`DivergenceWarning` since the Taylor series no longer
    converges there, while the returned continuation stays finite.
    """
    tc = time_coeffs(c, t)
    d, q, lam = tc.d_tilde, tc.q_tilde, tc.lam_tilde
    x = complex(x)
    _check_generating_argument(x, q)
    za = 1.0 - x / (1.0 + q)
    zb = 1.0 - x / (1.0 - q)
    # single principal sqrt of the product: both factors have positive real
    # part inside the convergence disk, so the product stays off the cut
    value = (
        _t0_return_factor(c, t)
        * (za * zb) ** -0.5
        * np.exp(-x * lam * lam / (d * ((x - 1.0 + q) * (1.0 - q))))
    )
    return complex(value)


def _correlation_linear_values(th: ThermalParams, c: Couplings, ts) -> np.ndarray:
    """Equal frequencies:
    e^{-i omega_eg t} e^{-lam*conj(lam_t)} e^{-nbar*|lam_t|**2}."""
    _require_equal_frequencies(c, "_correlation_linear_values")
    w = c.omega_e
    lam = c.lambda_g
    lam_t = lam * (1.0 - np.exp(1j * w * ts))
    nbar = th.mean_occupation(w)
    return (
        np.exp(-1j * c.omega_eg * ts)
        * np.exp(-lam * np.conj(lam_t))
        * np.exp(-nbar * np.abs(lam_t) ** 2)
    )


def _correlation_quadratic_values(th: ThermalParams, c: Couplings, ts) -> np.ndarray:
    """General couplings: the generating function evaluated at
    x = e^{-beta omega_g} e^{i(omega_g - omega_e) t} d'."""
    tc = time_coeffs(c, ts)
    d_prime, d, q, lam = tc.d_tilde_prime, tc.d_tilde, tc.q_tilde, tc.lam_tilde
    boltz = th.boltzmann(c.omega_g)
    x = boltz * np.exp(1j * (c.omega_g - c.omega_e) * ts) * d_prime
    # |x| = boltz * |1 -+ q| exactly, so for any beta > 0 the argument sits
    # strictly inside the convergence disk; the guard only fires for
    # beta*omega_g below ~1e-9.
    _check_generating_argument(x, q, context=f" (thermal argument, beta={th.beta!r})")
    # normalized pole factors (1 - x/(1 -+ q))/(1 - boltz) equal 1 exactly
    # at t = 0, making G(0) = 1 + 0j exact
    za = (1.0 - x / (1.0 + q)) / (1.0 - boltz)
    zb = (1.0 - x / (1.0 - q)) / (1.0 - boltz)
    expo = np.exp(-x * lam * lam / (d * ((x - 1.0 + q) * (1.0 - q))))
    return (
        np.exp(-1j * c.omega_eg * ts)
        * np.exp(0.5j * (c.omega_g - c.omega_e) * ts)
        * _t0_return_factor(c, ts)
        * expo
        * (za * zb) ** -0.5
    )


def correlation(th: ThermalParams, c: Couplings, ts) -> np.ndarray:
    """Thermal dipole correlation G(t) on an array of times, including the
    electronic phase e^{-i omega_eg t}; the one place that picks the
    equal-frequency or the general closed form. |G| <= 1 is checked over
    the whole array."""
    ts = np.asarray(ts, dtype=float)
    values = (
        _correlation_linear_values if c.equal_frequencies else _correlation_quadratic_values
    )(th, c, ts)
    _check_magnitude("correlation", values)
    return values


# ---------------------------------------------------------------------------
# spectra


def spectrum_zero_T(c: Couplings) -> list[SpectralLine]:
    """Zero-temperature absorption line list.

    Line n sits at offset (omega_e - omega_g)/2 + n*omega_e from the gap
    with weight a[n]**2, a[n] = sqrt(2*pi)*<n_e|0_g>. With the ground
    annihilator b_g = gamma_plus*b_e - gamma_minus*b_e^dag + lambda_g,
    b_g|0_g> = 0 is the normalised Franck-Condon recursion (Sharp &
    Rosenstock 1964; Doktorov, Malkin & Man'ko 1977)

        gamma_plus*sqrt(n+1)*a[n+1] = gamma_minus*sqrt(n)*a[n-1] - lambda_g*a[n]

    which gives the Poisson weights at equal frequencies. The list grows
    until its weight reaches 2*pi*(1 - 1e-10). A first weight that
    underflows to zero, or 2000 lines short of the sum rule, raise
    :class:`LineListError`.
    """
    target = 2.0 * math.pi * (1.0 - _SUM_RULE_TAIL)
    offset0 = 0.5 * (c.omega_e - c.omega_g)
    gp, gm, lam = c.gamma_plus, c.gamma_minus, c.lambda_g
    a_prev = 0.0
    a_cur = math.sqrt(2.0 * math.pi / gp) * math.exp(-0.5 * c.lambda_e * lam / gp)
    if a_cur * a_cur == 0.0:
        # the first weight is the whole weight scale, which can only
        # vanish by underflow (exp(-S) for S beyond ~745)
        raise LineListError(
            "spectral weight 0 underflows to zero, so the line list cannot "
            "reach the sum rule"
        )
    lines: list[SpectralLine] = []
    total = 0.0
    for n in range(_LINE_CAP):
        w = a_cur * a_cur
        lines.append(SpectralLine(offset=offset0 + n * c.omega_e, weight=w))
        total += w
        if total >= target:
            return lines
        a_next = (gm * math.sqrt(n) * a_prev - lam * a_cur) / (gp * math.sqrt(n + 1))
        a_prev, a_cur = a_cur, a_next
    raise LineListError(f"line list did not reach the sum rule within {_LINE_CAP} lines")


def broadened_lines(w_offsets, lines, eta: float) -> np.ndarray:
    """Lorentzian-broadened line list sampled at offsets from the gap,
    normalized like the damped transform of the correlation function."""
    if eta <= 0.0:
        raise ValueError(f"eta must be > 0, got {eta}")
    w = np.asarray(w_offsets, dtype=float)[:, None]
    off = np.array([ln.offset for ln in lines])[None, :]
    wt = np.array([ln.weight for ln in lines])[None, :]
    return np.sum(wt / math.pi * eta / ((w - off) ** 2 + eta**2), axis=1)


def _uniform_step(delta: np.ndarray, t_span: float) -> float | None:
    """Step dd of delta when delta[k] = delta[0] + k*dd to within a phase of
    1e-10 rad over t_span (grids built as lo + k*step or by np.linspace both
    qualify); None for non-uniform grids and for fewer than 2 points."""
    if delta.ndim != 1 or delta.size < 2:
        return None
    dd = (delta[-1] - delta[0]) / (delta.size - 1)
    ideal = delta[0] + np.arange(delta.size) * dd
    if np.max(np.abs(delta - ideal)) * t_span >= _UNIFORM_PHASE_TOL:
        return None
    return float(dd)


def _chirp_z_sum(x: np.ndarray, theta: float, n_w: int) -> np.ndarray:
    """S_k = sum_j x_j e^{i theta k j} for k = 0..n_w-1 by Bluestein's
    convolution: k*j = (k**2 + j**2 - (k-j)**2)/2 turns the sum into a
    linear convolution with the unit-modulus chirp e^{-i theta m**2/2},
    done with power-of-two FFTs in O((n_t + n_w) log(n_t + n_w))."""
    n_t = x.size
    size = 1 << (n_t + n_w - 2).bit_length()  # power of two >= n_t + n_w - 1
    m = np.arange(max(n_t, n_w), dtype=np.int64)
    # exact integer squares: a complex power e^{i theta}**(m**2/2) loses ~1e-6
    chirp = np.exp(0.5j * theta * (m * m))
    a = np.zeros(size, dtype=complex)
    a[:n_t] = x * chirp[:n_t]
    b = np.zeros(size, dtype=complex)
    b[:n_w] = chirp[:n_w].conj()
    b[size - n_t + 1 :] = chirp[n_t - 1 : 0 : -1].conj()  # lags -(n_t-1)..-1
    a = np.fft.fft(a)
    a *= np.fft.fft(b)
    return chirp[:n_w] * np.fft.ifft(a)[:n_w]


def _damped_transform(delta, ts, g, eta: float) -> np.ndarray:
    """2*Re integral_0^T e^{(i delta - eta) t} g(t) dt with g piecewise
    linear between uniform samples and the exponential integrated exactly
    on each segment (so the step size is set by g alone, not by delta).

    The segment sums are geometric in z = e^{s h}, S = sum_j z**j g_j. On
    a uniform delta grid (see :func:`_uniform_step`) S is a chirp-z
    transform, evaluated in O((n_t + n_w) log(n_t + n_w)) by
    :func:`_chirp_z_sum`. Non-uniform grids and grids of fewer than 2
    points take one Horner pass over all samples, O(n_t * n_w); |z| < 1
    keeps that recursion well conditioned.
    """
    delta = np.asarray(delta, dtype=float)
    h = ts[1] - ts[0]
    s = 1j * delta - eta
    z = np.exp(s * h)
    dd = _uniform_step(delta, h * ts.size)
    if dd is None:
        acc = np.full(s.shape, g[-1], dtype=complex)
        for gj in g[-2::-1]:
            acc = acc * z + gj
    else:
        # damping and the delta[0] phase go into the samples, so the chirp
        # keeps unit modulus
        x = g * np.exp((1j * delta[0] - eta) * h * np.arange(ts.size))
        acc = _chirp_z_sum(x, dd * h, delta.size)
    head = acc - np.exp(s * (ts.size - 1) * h) * g[-1]  # sum over j = 0..n-2 of z^j g_j
    tail = (acc - g[0]) / z                             # sum over j = 0..n-2 of z^j g_{j+1}
    i0 = (z - 1.0) / s
    i1 = (h * z - i0) / s
    beta_w = i1 / h
    alpha_w = i0 - beta_w
    return 2.0 * (alpha_w * head + beta_w * tail).real


def spectrum_finite_T(
    th: ThermalParams,
    c: Couplings,
    w_grid,
    eta: float | None = None,
    t_max: float | None = None,
) -> np.ndarray:
    """Absorption spectrum A(w) = 2*Re int_0^t_max e^{i w t - eta t} G(t) dt
    sampled on an absolute frequency grid.

    eta defaults to 0.02*omega_e and t_max to 8/eta; a shorter window
    (eta*t_max < 5) emits :class:`InsufficientDecayWarning`. The time step
    adapts to a measured curvature bound on the gap-stripped correlator,
    keeping the piecewise-linear interpolation error near 1e-5. The sample
    count is capped at 400,001; when the cap binds (narrow eta or strong
    coupling) the step is coarser than the target asks for and
    :class:`ResolutionWarning` gives both steps and the estimated error
    curvature*h**2/8.

    A uniform w_grid (np.linspace or lo + k*step, ascending or descending)
    is transformed in O((n_t + n_w) log(n_t + n_w)) by a chirp-z FFT; a
    non-uniform grid or a single frequency costs O(n_t * n_w).
    """
    if eta is None:
        eta = 0.02 * c.omega_e
    eta = float(eta)
    if eta <= 0.0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if t_max is None:
        t_max = 8.0 / eta
    t_max = float(t_max)
    if t_max <= 0.0:
        raise ValueError(f"t_max must be > 0, got {t_max}")
    if t_max * eta < 5.0:
        warnings.warn(
            f"eta*t_max = {t_max * eta:.3g} < 5: correlation decays by only "
            f"e^-{t_max * eta:.3g} over the window, expect ringing",
            InsufficientDecayWarning,
            stacklevel=2,
        )
    w = np.asarray(w_grid, dtype=float)

    def stripped(ts):
        return correlation(th, c, ts) * np.exp(1j * c.omega_eg * ts)

    ts = np.linspace(0.0, t_max, 4097)
    g = stripped(ts)
    h0 = ts[1] - ts[0]
    curvature = float(np.max(np.abs(np.diff(g, 2)))) / h0**2
    if curvature > 0.0:
        h = min(h0, math.sqrt(8.0 * _INTERP_TARGET / curvature))
        n_t = int(math.ceil(t_max / h)) + 1
        if n_t > _SAMPLE_CAP:
            n_t = _SAMPLE_CAP
            h_used = t_max / (n_t - 1)
            warnings.warn(
                f"time step {h:.3g} needed for the {_INTERP_TARGET:g} interpolation "
                f"target exceeds the {_SAMPLE_CAP:,}-sample cap; using step "
                f"{h_used:.3g}, estimated interpolation error "
                f"{curvature * h_used**2 / 8.0:.3g}",
                ResolutionWarning,
                stacklevel=2,
            )
        if n_t > ts.size:
            ts = np.linspace(0.0, t_max, n_t)
            g = stripped(ts)
    return _damped_transform(w - c.omega_eg, ts, g, eta)


# ---------------------------------------------------------------------------
# consistency check for the displaced-mode identity


def polaron_state_check(lam: float, p: int, dim: int = 60) -> float:
    """Residual of the displaced-mode identity in a truncated basis.

    Applying the displacement exp(lam*(b^dag - b)) to ground number state
    p must equal building the p-th excited number state from the displaced
    vacuum with the shifted creation operator (b^dag - lam)/sqrt(p!).
    Returns the 2-norm of the difference; truncation noise only.
    """
    p = _require_order(p)
    if dim < p + 2:
        raise ValueError(f"dim must exceed p + 1, got dim={dim}, p={p}")
    b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    # exp(lam*(b^dag - b)) = exp(-i*g) for the Hermitian generator
    # g = i*lam*(b^dag - b), exponentiated through its eigenbasis
    energies, modes = np.linalg.eigh(1j * lam * (b.T - b))
    displaced = modes @ (np.exp(-1j * energies) * modes[p].conj())
    vec = vacuum_expansion_linear(lam, dim - 1)
    shifted_create = b.T - lam * np.eye(dim)
    for _ in range(p):
        vec = shifted_create @ vec
    vec = vec / math.sqrt(math.factorial(p))
    return float(np.linalg.norm(displaced - vec))
