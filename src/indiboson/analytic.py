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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LineListError, PoleError
from .model import Couplings, ThermalParams, time_coeffs
from .specfun import laguerre_half_at_zero, laguerre_half_seq, laguerre_seq

__all__ = [
    "WINDOW_DECAY",
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
    "spectrum_zero_T",
    "thermal_lines",
    "windowed_spectrum",
    "spectrum_finite_T",
    "polaron_state_check",
]

# Distance below which the thermal generating-function argument counts as
# sitting on a pole.
POLE_TOL = 1e-9

# eta*t_max of the finite-temperature window.
WINDOW_DECAY = 8.0

_SUM_RULE_TAIL = 1e-10
# most lines at T = 0, and most excited levels in a thermal line list
_LINE_CAP = 2000
# thermal line lists: the oracle's Boltzmann floor, the population allowed
# in the top eighth of the rows, the first-moment limit (the old 1e-5
# interpolation target), and the share of the weight below which a line
# is dropped
_THERMAL_FLOOR = 1e-12
_ROW_TAIL = 1e-13
_MOMENT_TOL = 1e-5
_LINE_FLOOR = 1e-16
_BLOCK = 256  # lines per block of the windowed sum


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
    at_zero = laguerre_half_at_zero(p)[::-1]  # L^{(-1/2)}_{p-k}(0)
    powers = np.empty(half.shape, dtype=complex)  # ratio**k as a running product
    powers[0] = 1.0
    powers[1:] = ratio
    powers.cumprod(axis=0, out=powers)
    acc = np.sum(powers * at_zero.reshape(column) * half, axis=0)
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
# thermal correlation


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
    """General couplings: (1 - e^{-beta omega_g}) e^{-i omega_eg t}
    e^{i(omega_g - omega_e) t/2} K(x) at x = e^{-beta omega_g}
    e^{i(omega_g - omega_e) t} d', with K(x) = sum_p x**p T_p the generating
    function of the scaled return amplitudes,
    K(x) = T0 * ((1 - x/(1+q))*(1 - x/(1-q)))**-1/2 * exp(-x*lam**2/(d*(x-1+q)*(1-q)))."""
    boltz = th.boltzmann(c.omega_g)
    # |x| = boltz * |1 -+ q| exactly, so x stays a distance of at least
    # 1 - boltz from the poles x = 1 -+ q, inside the convergence disk
    if 1.0 - boltz < POLE_TOL:
        raise PoleError(f"thermal argument within {POLE_TOL:g} of a generating-function "
                        f"pole (beta={th.beta!r})")
    tc = time_coeffs(c, ts)
    d_prime, d, q, lam = tc.d_tilde_prime, tc.d_tilde, tc.q_tilde, tc.lam_tilde
    x = boltz * np.exp(1j * (c.omega_g - c.omega_e) * ts) * d_prime
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


def _franck_condon_rows(c: Couplings, cols: int):
    """Endless generator of the rows a[n, :cols] = sqrt(2*pi)*<n_e|p_g>,
    n = 0, 1, ..., each a new array (Sharp & Rosenstock 1964; Doktorov,
    Malkin & Man'ko 1977). Row 0 is <0_e|b_e^dag = 0 for b_e =
    gamma_plus*b_g + gamma_minus*b_g^dag - lambda_e,
        gamma_plus*sqrt(p+1)*a[0, p+1] = lambda_e*a[0, p] - gamma_minus*sqrt(p)*a[0, p-1],
    and row n+1 is <n_e|b_g|p_g> = sqrt(p)*a[n, p-1] for b_g =
    gamma_plus*b_e - gamma_minus*b_e^dag + lambda_g, with a[n, -1] = 0,
        gamma_plus*sqrt(n+1)*a[n+1, p] = sqrt(p)*a[n, p-1] + gamma_minus*sqrt(n)*a[n-1, p]
                                         - lambda_g*a[n, p].
    Column 0 is exact to rounding; in column p the sweep amplifies rounding
    by up to sqrt(binomial(p, k)), all of it along the lower columns.
    """
    gp, gm = c.gamma_plus, c.gamma_minus
    row = np.empty(cols)
    row[0] = math.sqrt(2.0 * math.pi / gp) * math.exp(-0.5 * c.lambda_e * c.lambda_g / gp)
    for p in range(1, cols):
        lower = gm * math.sqrt(p - 1) * row[p - 2] if p > 1 else 0.0
        row[p] = (c.lambda_e * row[p - 1] - lower) / (gp * math.sqrt(p))
    root_p = np.sqrt(np.arange(1, cols))
    prev = np.zeros(cols)
    for n in itertools.count():
        yield row
        # the leading 0.0 keeps column 0 bit for bit the scalar recursion
        raised = np.concatenate(([0.0], root_p * row[:-1]))
        nxt = (raised + gm * math.sqrt(n) * prev - c.lambda_g * row) / (gp * math.sqrt(n + 1))
        prev, row = row, nxt


def spectrum_zero_T(c: Couplings) -> list[SpectralLine]:
    """Zero-temperature absorption line list.

    Line n sits at offset (omega_e - omega_g)/2 + n*omega_e from the gap
    with weight a[n]**2, a[n] = sqrt(2*pi)*<n_e|0_g> from column p = 0 of
    :func:`_franck_condon_rows` (Poisson weights at equal frequencies),
    until the weights reach 2*pi*(1 - 1e-10). A first weight that
    underflows to zero, or 2000 lines short of the sum rule, raise
    :class:`LineListError`.
    """
    target = 2.0 * math.pi * (1.0 - _SUM_RULE_TAIL)
    offset0 = 0.5 * (c.omega_e - c.omega_g)
    lines: list[SpectralLine] = []
    total = 0.0
    for n, row in enumerate(itertools.islice(_franck_condon_rows(c, 1), _LINE_CAP)):
        w = float(row[0] * row[0])
        if w == 0.0 and n == 0:
            # the first weight is the whole weight scale, which can only
            # vanish by underflow (exp(-S) for S beyond ~745)
            raise LineListError("spectral weight 0 underflows to zero, so the line list "
                                "cannot reach the sum rule")
        lines.append(SpectralLine(offset=offset0 + n * c.omega_e, weight=w))
        total += w
        if total >= target:
            return lines
    raise LineListError(f"line list did not reach the sum rule within {_LINE_CAP} lines")


def thermal_lines(th: ThermalParams, c: Couplings) -> tuple[np.ndarray, np.ndarray, float]:
    """Thermal absorption lines as (offsets, weights, moment_residual):
    distinct offsets from the gap, ascending, with their summed weights.

    Ground level p, of Boltzmann weight w_p = (1 - e^{-beta omega_g})
    e^{-p beta omega_g} >= 1e-12, reaches excited level n at offset
    omega_e*(n + 1/2) - omega_g*(p + 1/2) with weight 2*pi*w_p*<n_e|p_g>**2,
    from the rows of :func:`_franck_condon_rows` after one QR factorisation
    in column order, which removes the rounding the sweep amplifies. The
    rows start at the hottest column's mean level plus ten standard
    deviations and double until their top eighth holds at most 1e-13 of
    the Boltzmann-weighted population. Lines below 1e-16 of the total
    weight are dropped and equal offsets merged.

    Each column's first moment sum_n n*<n_e|p_g>**2 must equal
    gamma_plus**2*p + gamma_minus**2*(p+1) + lambda_e**2; the
    Boltzmann-weighted relative deviation reads 2-4 times the spectrum's
    error relative to its peak. Above 1e-5, past 2000 levels, or when the
    sweep overflows, :class:`LineListError` is raised.
    """
    boltz = th.boltzmann(c.omega_g)
    pops = (1.0 - boltz) * boltz ** np.arange(_LINE_CAP + 1)
    cols = int(np.count_nonzero(pops >= _THERMAL_FLOOR))
    refusal = LineListError(f"thermal lines at beta={th.beta!r} need > {_LINE_CAP} levels")
    if not 0 < cols <= _LINE_CAP:
        raise refusal
    pops = pops[:cols]
    gp2, gm2 = c.gamma_plus**2, c.gamma_minus**2
    mean = gp2 * (cols - 1) + gm2 * cols + c.lambda_e**2
    rows = min(int(mean + 10.0 * math.sqrt(mean + 1.0)) + 1, _LINE_CAP)
    sweep, amps = _franck_condon_rows(c, cols), np.empty((0, cols))
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            amps = np.vstack([amps, *itertools.islice(sweep, rows - len(amps))])
        if not np.isfinite(amps).all():
            raise LineListError(f"thermal line sweep at beta={th.beta!r} overflows "
                                f"within {rows} levels")
        probs = np.linalg.qr(amps)[0] ** 2
        if pops @ probs[rows - rows // 8 :].sum(axis=0) <= _ROW_TAIL:
            break
        if rows == _LINE_CAP:
            raise refusal
        rows = min(2 * rows, _LINE_CAP)
    n, p = np.arange(rows), np.arange(cols)
    expect = gp2 * p + gm2 * (p + 1) + c.lambda_e**2
    residual = float(pops @ (np.abs(n @ probs - expect) / (expect + 1.0)))
    if not residual <= _MOMENT_TOL:  # a NaN fails too
        raise LineListError(f"thermal first-moment residual {residual:.3g} > {_MOMENT_TOL:g}")
    weights = (2.0 * math.pi * pops) * probs
    offsets = 0.5 * (c.omega_e - c.omega_g) + c.omega_e * n[:, None] - c.omega_g * p
    keep = weights >= _LINE_FLOOR * weights.sum()
    offsets, where = np.unique(offsets[keep], return_inverse=True)
    return offsets, np.bincount(where, weights=weights[keep]), residual


def windowed_spectrum(offsets, weights, delta, eta: float, t_max: float) -> np.ndarray:
    """Lines through the finite damped window at offsets delta from the
    gap: sum over lines of weight/(2*pi) * 2*Re[(e^{sT} - 1)/s] with
    s = i(delta - offset) - eta, T = t_max, evaluated in real arithmetic as
    2*(eta*(1 - E*C) + E*D*S)/(eta**2 + D**2), D = delta - offset,
    E = e^{-eta T}, C and S the cosine and sine of D*T from the angle
    difference of delta*T and offset*T, in blocks of 256 lines.
    """
    delta = np.asarray(delta, dtype=float)
    d_col = delta.reshape(-1, 1)
    decay = math.exp(-eta * t_max)
    cos_d, sin_d = decay * np.cos(d_col * t_max), decay * np.sin(d_col * t_max)
    out = np.zeros(delta.size)
    for start in range(0, offsets.size, _BLOCK):
        off = offsets[start : start + _BLOCK]
        cos_o, sin_o = np.cos(off * t_max), np.sin(off * t_max)
        ec = cos_d * cos_o + sin_d * sin_o
        es = sin_d * cos_o - cos_d * sin_o
        dist = d_col - off
        shape = (eta * (1.0 - ec) + dist * es) / (eta * eta + dist * dist)
        out += shape @ weights[start : start + _BLOCK]
    return (out / math.pi).reshape(delta.shape)


def spectrum_finite_T(th: ThermalParams, c: Couplings, w_grid,
                      eta: float | None = None) -> np.ndarray:
    """Absorption spectrum A(w) = 2*Re int_0^T e^{i w t - eta t} G(t) dt on
    an absolute frequency grid, with T = WINDOW_DECAY/eta so that the window
    decays by e^-8: :func:`windowed_spectrum` of :func:`thermal_lines`,
    exact up to the lines' first-moment residual. eta defaults to
    0.02*omega_e.
    """
    eta = 0.02 * c.omega_e if eta is None else float(eta)
    if eta <= 0.0:
        raise ValueError(f"eta must be > 0, got {eta}")
    delta = np.asarray(w_grid, dtype=float) - c.omega_eg
    return windowed_spectrum(*thermal_lines(th, c)[:2], delta, eta, WINDOW_DECAY / eta)


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
