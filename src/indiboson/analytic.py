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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LineListError, PoleError
from .model import Couplings, ThermalParams, time_coeffs
from .specfun import laguerre_half_at_zero, laguerre_half_seq
# perfbench's tracer patches laguerre_seq; removable once perfbench drives only the CLI
from .specfun import laguerre_seq  # noqa: F401

__all__ = [
    "WINDOW_DECAY",
    "overlap",
    "phonon_number",
    "correlation",
    "vacuum_ground_phonon_number",
    "excited_phonon_number",
    "excited_mean_energy",
    "spectrum_zero_T",
    "thermal_lines",
    "windowed_spectrum",
    "spectrum_finite_T",
]

# Distance below which the thermal generating-function argument counts as
# sitting on a pole.
POLE_TOL = 1e-9

# eta*t_max of the finite-temperature window.
WINDOW_DECAY = 8.0

_SUM_RULE_TAIL = 1e-10
_LINE_CAP = 2000  # most lines at T = 0
# thermal line lists: the weight that aliasing may fold onto column p from
# p + N_p, the weight allowed in the top eighth of the rows, the first-moment
# limit, the share below which a line is dropped (the weights carry absolute
# noise near eps) and the most grid points evaluated
_FOLD_TOL = 1e-16
_ROW_TAIL = 1e-13
_MOMENT_TOL = 1e-5
_LINE_FLOOR = 10.0 * np.finfo(float).eps
_GRID_CAP = 1 << 22
_BLOCK = 256  # lines per block of the windowed sum


def _check_magnitude(name: str, value):
    """Reject a return amplitude or correlation (scalar or array) whose
    magnitude exceeds 1 beyond roundoff, or is NaN."""
    peak = abs(value)
    if isinstance(peak, np.ndarray):
        peak = peak.max(initial=0.0)
    if not peak <= 1.0 + 1e-6:  # a NaN fails too
        raise ValueError(f"{name} magnitude {float(peak)!r} is not within 1 + 1e-6")


@dataclass(frozen=True)
class OverlapValue:
    """Return amplitude of a ground-surface number state, at one time or
    at an ndarray of times (``value`` then has the times' shape)."""

    value: complex | np.ndarray

    def __post_init__(self):
        _check_magnitude("overlap", self.value)


def _require_order(p: int) -> int:
    """p as an int; a non-integral, NaN, infinite or negative p is refused.
    Integral floats and numpy integers pass."""
    try:
        order = int(p)
    except (OverflowError, ValueError):  # inf, NaN
        order = None
    if order != p:
        raise ValueError(f"phonon index must be an integer, got {p!r}")
    if order < 0:
        raise ValueError(f"phonon index must be >= 0, got {order}")
    return order


# ---------------------------------------------------------------------------
# stationary quantities


def vacuum_ground_phonon_number(c: Couplings) -> float:
    """Ground-mode occupation of the excited-surface vacuum,
    lambda_g**2 + gamma_minus**2 (displacement plus squeezing parts)."""
    return c.lambda_g**2 + c.gamma_minus**2


def phonon_number_quadratic(p: int, c: Couplings, t):
    """Ground-mode occupation of the evolved state:
    p*|d'|**2 + (p+1)*|q'|**2 + |lam'|**2, at a time or an ndarray of
    times; at equal frequencies p + 4*lambda_g**2*sin(omega*t/2)**2."""
    p = _require_order(p)
    tc = time_coeffs(c, t)
    return (
        p * abs(tc.d_tilde_prime) ** 2
        + (p + 1) * abs(tc.q_tilde_prime) ** 2
        + abs(tc.lam_tilde_prime) ** 2
    )


# perfbench imports this name; removable once perfbench drives only the CLI
phonon_number_linear = phonon_number_quadratic


def phonon_number(p: int, c: Couplings, ts) -> np.ndarray:
    """Ground-mode occupation of the evolved state on an array of times."""
    return phonon_number_quadratic(p, c, np.asarray(ts, dtype=float))


def _excited_occupation(c: Couplings, p):
    """<p| B^dag B |p> for the excited-mode annihilation operator
    B = gamma_plus*b + gamma_minus*b^dag - lambda_e, at a ground level p
    or an ndarray of them: gamma_plus**2*p + gamma_minus**2*(p+1) +
    lambda_e**2, which is p + lambda_g**2 at equal frequencies."""
    return c.gamma_plus**2 * p + c.gamma_minus**2 * (p + 1) + c.lambda_e**2


def excited_phonon_number(p: int, c: Couplings) -> float:
    """Excited-mode occupation of ground number state p, constant in time
    for every coupling, since H_e = epsilon_e + omega_e*(B^dag B + 1/2)."""
    return _excited_occupation(c, _require_order(p))


def excited_mean_energy(p: int, c: Couplings) -> float:
    """Conserved excited-surface energy of ground number state p:
    epsilon_e + omega_e*(n_e + 1/2), n_e the excited-mode occupation."""
    return c.epsilon_e + c.omega_e * (excited_phonon_number(p, c) + 0.5)


# ---------------------------------------------------------------------------
# return amplitudes


@lru_cache(maxsize=128)
def _half_at_zero_reversed(p: int) -> np.ndarray:
    """L^{(-1/2)}_{p-k}(0) for k = 0..p, read-only because every
    overlap_quadratic call of order p shares it."""
    out = laguerre_half_at_zero(p)[::-1]
    out.flags.writeable = False
    return out


def _vacuum_factors(c: Couplings, t):
    """(denom, shift) of the vacuum return amplitude denom**-0.5 * e^{-shift},
    less its zero-point phase e^{-i omega_e t/2}; scalar or ndarray t.
    denom = 1 + gamma_minus**2*(1 - e^{-2i theta}) (= gamma_plus**2 -
    gamma_minus**2*e^{-2i theta}) is exactly 1 at t = 0, and its real part
    never drops below 1, keeping the principal square root on one branch."""
    theta = c.omega_e * t
    em1 = np.exp(-1j * theta)
    denom = 1.0 + c.gamma_minus**2 * (1.0 - em1 * em1)
    shift = c.lambda_g * c.lambda_e * (1.0 - em1) / (c.gamma_plus - c.gamma_minus * em1)
    return denom, shift


def overlap_quadratic(p: int, c: Couplings, t) -> OverlapValue:
    """Return amplitude for general frequency and position changes, at a
    time or an ndarray of times.

    Evaluates the closed form
    T0 * e^{-i omega_e t/2} * (d/(1+q))**p *
    sum_k ((1+q)/(1-q))**k L^{(-1/2)}_{p-k}(0) L^{(-1/2)}_k(-lam**2/(d(1-q)))
    which at equal frequencies (q = 0) is the displaced-mode form
    e^{-lam*conj(lam_t)} e^{-i omega t (p + 1/2)} L_p(|lam_t|**2). For
    real parameters q is purely imaginary, so |1 -+ q| >= 1 and the
    partial fractions never degenerate.
    """
    p = _require_order(p)
    tc = time_coeffs(c, t)
    d, q, lam = tc.d_tilde, tc.q_tilde, tc.lam_tilde
    half = laguerre_half_seq(p, -lam * lam / (d * (1.0 - q)))
    ratio = (1.0 + q) / (1.0 - q)
    column = (p + 1,) + (1,) * (half.ndim - 1)  # broadcast the k-sum over the times
    at_zero = _half_at_zero_reversed(p)
    powers = np.empty(half.shape, dtype=complex)  # ratio**k as a running product
    powers[0] = 1.0
    powers[1:] = ratio
    powers.cumprod(axis=0, out=powers)
    # an overflowed Laguerre value turns the sum into inf or NaN without a
    # warning, and the magnitude check refuses it
    denom, shift = _vacuum_factors(c, t)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = np.sum(powers * at_zero.reshape(column) * half, axis=0)
        value = (
            denom**-0.5
            * np.exp(-shift)
            * np.exp(-0.5j * c.omega_e * t)
            * (d / (1.0 + q)) ** p
            * acc
        )
    return OverlapValue(value)


# perfbench imports this name; removable once perfbench drives only the CLI
overlap_linear = overlap_quadratic


def overlap(p: int, c: Couplings, ts) -> np.ndarray:
    """Return amplitudes <p|p(t)> on an array of times."""
    return overlap_quadratic(p, c, np.asarray(ts, dtype=float)).value


# ---------------------------------------------------------------------------
# thermal correlation


def _thermal_torus(boltz: float, c: Couplings, t, phi) -> np.ndarray:
    """The thermal generating function on the torus of the excited phase
    theta = omega_e*t and the ground phase phi (t and phi broadcast): with
    b = boltz, x = b d e^{i phi} and d, q, lam from :func:`time_coeffs`,
        F = (1 - b) e^{-shift - lam**2 x/(d (1-q) (x-1+q))}
            / sqrt(denom (1 - x/(1+q)) (1 - x/(1-q)))
          = sum_{n,p} (W_np/2pi) e^{-i n theta} e^{i p phi},
    W_np the weight of the line from ground level p to excited level n.
    |x| = b |1 -+ q| keeps x 1 - b from the poles x = 1 -+ q. Off the time
    line the thermal exponent alone can overflow; one exp takes it with -shift."""
    tc = time_coeffs(c, t)
    d, q, lam = tc.d_tilde, tc.q_tilde, tc.lam_tilde
    denom, shift = _vacuum_factors(c, t)
    x = boltz * d * np.exp(1j * phi)
    # the normalized pole factors (1 - x/(1 -+ q))/(1 - b) equal 1 exactly
    # at t = phi = 0, making F(0, 0) = 1 + 0j exact
    poles = (1.0 - x / (1.0 + q)) / (1.0 - boltz) * ((1.0 - x / (1.0 - q)) / (1.0 - boltz))
    expo = np.exp(x * (-lam * lam / (d * (1.0 - q))) / (x - (1.0 - q)) - shift)
    return expo / np.sqrt(poles) * denom**-0.5


def _correlation_quadratic_values(th: ThermalParams, c: Couplings, ts) -> np.ndarray:
    """G(t) = e^{-i omega_eg t} e^{i(omega_g - omega_e) t/2} F(omega_e t,
    omega_g t): the thermal generating function :func:`_thermal_torus` on
    the time line, times the electronic and zero-point phases."""
    boltz = th.boltzmann(c.omega_g)
    if 1.0 - boltz < POLE_TOL:
        raise PoleError(f"thermal argument within {POLE_TOL:g} of a generating-function "
                        f"pole (beta={th.beta!r})")
    return (
        np.exp(-1j * c.omega_eg * ts)
        * np.exp(0.5j * (c.omega_g - c.omega_e) * ts)
        * _thermal_torus(boltz, c, ts, c.omega_g * ts)
    )


# perfbench's tracer patches this name; removable once perfbench drives only the CLI
_correlation_linear_values = _correlation_quadratic_values


def correlation(th: ThermalParams, c: Couplings, ts) -> np.ndarray:
    """Thermal dipole correlation G(t) on an array of times, including the
    electronic phase e^{-i omega_eg t}. |G| <= 1 is checked over the whole
    array."""
    values = _correlation_quadratic_values(th, c, np.asarray(ts, dtype=float))
    _check_magnitude("correlation", values)
    return values


# ---------------------------------------------------------------------------
# spectra


def _line_list(offsets, weights) -> np.recarray:
    """A line list: a record array of offsets from the gap and weights,
    read as columns (``lines.offset``) or line by line."""
    return np.rec.fromarrays([offsets, weights], names="offset,weight")


def spectrum_zero_T(c: Couplings) -> np.recarray:
    """Zero-temperature absorption line list.

    Line n sits at offset (omega_e - omega_g)/2 + n*omega_e from the gap
    with weight a[n]**2, a[n] = sqrt(2*pi)*<n_e|0_g> (Poisson weights at
    equal frequencies), until the weights reach 2*pi*(1 - 1e-10). As
    b_g = gamma_plus*b_e - gamma_minus*b_e^dag + lambda_g annihilates |0_g>
    (Sharp & Rosenstock 1964; Doktorov, Malkin & Man'ko 1977),
        gamma_plus*sqrt(n+1)*a[n+1] = gamma_minus*sqrt(n)*a[n-1] - lambda_g*a[n],
    which keeps each weight exact relative to itself, as the Fourier
    coefficients of :func:`thermal_lines` are not. A first weight that
    underflows, or 2000 lines short of the sum rule, raise LineListError.
    """
    gp, gm, lam = c.gamma_plus, c.gamma_minus, c.lambda_g
    target = 2.0 * math.pi * (1.0 - _SUM_RULE_TAIL)
    a_prev, a_cur = 0.0, math.sqrt(2.0 * math.pi / gp) * math.exp(-0.5 * c.lambda_e * lam / gp)
    if a_cur * a_cur == 0.0:
        # the first weight is the whole weight scale, which can only vanish
        # by underflow (exp(-S) for S beyond ~745)
        raise LineListError("spectral weight 0 underflows to zero, so the line list "
                            "cannot reach the sum rule")
    weights: list[float] = []
    total = 0.0
    for n in range(_LINE_CAP):
        weights.append(a_cur * a_cur)
        total += weights[-1]
        if total >= target:
            offsets = 0.5 * (c.omega_e - c.omega_g) + np.arange(n + 1) * c.omega_e
            return _line_list(offsets, weights)
        a_prev, a_cur = a_cur, (gm * math.sqrt(n) * a_prev - lam * a_cur) / (gp * math.sqrt(n + 1))
    raise LineListError(f"line list did not reach the sum rule within {_LINE_CAP} lines")


def _fft_size(n: int) -> int:
    """The smallest 2**i * 3**j * 5**k >= n, a fast FFT length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # times the least power of 2 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def thermal_lines(th: ThermalParams, c: Couplings) -> tuple[np.recarray, float]:
    """Thermal absorption lines as (lines, moment_residual): a line list of
    distinct offsets from the gap, ascending, with their summed weights.

    Ground level p, of Boltzmann weight w_p = (1 - b) b**p, b =
    e^{-beta omega_g}, reaches excited level n at offset omega_e*(n + 1/2)
    - omega_g*(p + 1/2) with weight W_np = 2*pi*w_p*<n_e|p_g>**2, a Fourier
    coefficient of :func:`_thermal_torus`. One FFT of an N_n x N_p grid,
        W = 2*pi*irfft2(F(2*pi*j/N_n, -2*pi*k/N_p), s=(N_n, N_p)),
    gives every weight to about eps*2*pi absolute, since |F| <= 1. Aliasing
    folds column p + N_p onto p, so b**N_p <= 1e-16. N_n grows by 1.25
    until the top eighth of the row marginal sum_p W_np, a 1-D FFT of
    F(theta, 0), holds at most 1e-13. A grid past 2**22 points raises
    LineListError before it is evaluated. Lines below 10 eps of the total
    are dropped and equal offsets merged.

    Each column's first moment sum_n n*W_np/(2*pi) must equal w_p times
    the excited-mode occupation :func:`_excited_occupation` of level p; the
    deviations, each over that occupation plus one, are summed and above
    1e-5 raise LineListError.
    """
    boltz = th.boltzmann(c.omega_g)
    refusal = f"thermal lines at beta={th.beta!r} need a grid of more than {_GRID_CAP} points"
    # b**N_p <= 1e-16; a beta*omega_g that underflows stands for the smallest one
    cols = math.log(_FOLD_TOL) / -max(th.beta * c.omega_g, 1e-300)
    if cols > _GRID_CAP:
        raise LineListError(f"{refusal} ({cols:.3g} columns)")
    n_p = _fft_size(max(1, math.ceil(cols)))
    # start at the mean level of the column whose b**p is the row tail
    reach = cols * math.log(_ROW_TAIL) / math.log(_FOLD_TOL)
    n_n = _fft_size(16 + math.ceil(_excited_occupation(c, reach)))
    while True:
        if n_n * n_p > _GRID_CAP:
            raise LineListError(f"{refusal} ({n_n} x {n_p})")
        t = (2.0 * math.pi / (n_n * c.omega_e)) * np.arange(n_n // 2 + 1)
        rows = np.fft.irfft(_thermal_torus(boltz, c, t, 0.0), n_n)
        if rows[n_n - n_n // 8 :].sum() <= _ROW_TAIL:
            break
        n_n = _fft_size(math.ceil(1.25 * n_n))
    t = (2.0 * math.pi / (n_n * c.omega_e)) * np.arange(n_n)[:, None]
    phi = (-2.0 * math.pi / n_p) * np.arange(n_p // 2 + 1)
    weights = 2.0 * math.pi * np.fft.irfft2(_thermal_torus(boltz, c, t, phi), s=(n_n, n_p))
    n, p = np.arange(n_n), np.arange(n_p)
    expect = _excited_occupation(c, p)
    pops = (1.0 - boltz) * boltz**p
    residual = float(np.sum(np.abs(n @ weights / (2.0 * math.pi) - pops * expect)
                            / (expect + 1.0)))
    if not residual <= _MOMENT_TOL:  # a NaN fails too
        raise LineListError(f"thermal first-moment residual {residual:.3g} > {_MOMENT_TOL:g}")
    offsets = 0.5 * (c.omega_e - c.omega_g) + c.omega_e * n[:, None] - c.omega_g * p
    keep = weights >= _LINE_FLOOR * weights.sum()
    offsets, where = np.unique(offsets[keep], return_inverse=True)
    return _line_list(offsets, np.bincount(where, weights=weights[keep])), residual


def windowed_spectrum(lines, delta, eta: float, t_max: float) -> np.ndarray:
    """Lines through the finite damped window at offsets delta from the
    gap: sum over lines of weight/(2*pi) * 2*Re[(e^{sT} - 1)/s] with
    s = i(delta - offset) - eta, T = t_max, evaluated in real arithmetic as
    2*(eta*(1 - E*C) + E*D*S)/(eta**2 + D**2), D = delta - offset,
    E = e^{-eta T}, C and S the cosine and sine of D*T from the angle
    difference of delta*T and offset*T, in blocks of 256 lines. An
    infinite T or an eta whose square underflows to 0 is refused, and so
    are offsets so far apart that D**2 or eta**2 + D**2 overflows;
    otherwise the denominator is never zero.
    """
    if not math.isfinite(t_max) or eta * eta == 0.0:
        raise ValueError(f"eta = {eta!r} is too small for the damped window")
    delta = np.asarray(delta, dtype=float)
    offsets, weights = lines.offset, lines.weight
    # D**2 must stay finite, and so must eta**2 + D**2 unless eta**2 alone
    # overflows, which only sends every shape to 0
    far = float(np.abs(delta).max(initial=0.0)) + float(np.abs(offsets).max(initial=0.0))
    eta2, far2 = eta * eta, far * far
    if math.isinf(far2) or (math.isfinite(eta2) and math.isinf(eta2 + far2)):
        raise ValueError(f"offsets up to {far:.3g} from the gap at eta = {eta!r} "
                         "leave the float range of the line shape")
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
    return windowed_spectrum(thermal_lines(th, c)[0], delta, eta, WINDOW_DECAY / eta)
