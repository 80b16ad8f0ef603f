"""Command-line interface.

Subcommands
-----------
couplings    derived coupling table for a parameter set
evolve       overlap and phonon numbers on a time grid
correlation  thermal dipole correlation samples
spectrum     zero-temperature line list or windowed thermal spectrum
validate     closed forms against the truncated-basis reference

Configuration is a flat ``key = value`` text file; ``--preset`` loads a
built-in setup and explicit flags override both. :func:`main` is the one
pipeline: it loads the config, derives the couplings, hands the table
command the run's oracle (under ``--oracle``), asks it for its
``(meta, columns)`` and renders them as CSV or JSON.
``validate`` prints its text report instead. Output is deterministic (no
timestamps, fixed key order, floats at full precision) so reruns are
byte-identical.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    WINDOW_DECAY,
    correlation,
    excited_phonon_number,
    overlap,
    phonon_number,
    spectrum_zero_T,
    thermal_lines,
    vacuum_ground_phonon_number,
    windowed_spectrum,
)
from .errors import ConfigError, LineListError, OracleError, PoleError, TruncationError
from .model import Couplings, ModelParams, ThermalParams, derive_couplings
from .oracle import Propagator, TruncatedBasis, window_broadened
from .presets import preset_config, preset_names
from .validation import run_validation

__all__ = ["main", "build_parser", "parse_config_text", "build_run_config", "RunConfig"]

_ALL_KEYS = {
    "epsilon_g", "epsilon_e", "omega_g", "omega_e", "shift_l", "lambda_g",
    "beta", "t_min", "t_max", "w_min", "w_max", "eta",
    "initial_p", "t_points", "w_points", "oracle_dim", "format", "out",
}


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{origin}:{lineno}: empty key or value")
        if key not in _ALL_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _as_float(raw: dict, key: str, default: float | None = None) -> float | None:
    """Read a finite float; ``beta`` is left to ThermalParams (inf is T = 0)."""
    if key not in raw:
        return default
    try:
        value = float(raw[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {raw[key]!r}") from None
    if not math.isfinite(value) and key != "beta":
        raise ConfigError(f"{key}: expected a finite number, got {raw[key]!r}")
    return value


def _as_int(raw: dict, key: str, default: int | None = None) -> int | None:
    if key not in raw:
        return default
    value = raw[key]
    try:
        as_float = float(value)
        as_int = int(as_float)
        if as_int != as_float:
            raise ValueError
        return as_int
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration shared by all subcommands."""

    params: ModelParams
    thermal: ThermalParams
    initial_p: int
    t_grid: tuple[float, float, int]
    w_grid: tuple[float, float, int]
    eta: float
    oracle_dim: int
    fmt: str
    out: str | None

    def times(self) -> np.ndarray:
        return np.linspace(*self.t_grid)

    def freqs(self) -> np.ndarray:
        return np.linspace(*self.w_grid)


def _grid(raw: dict, axis: str, lo: float, hi: float, points: int) -> tuple[float, float, int]:
    """<axis>_min, _max and _points: an increasing finite span, two points at least."""
    lo = _as_float(raw, f"{axis}_min", lo)
    hi = _as_float(raw, f"{axis}_max", hi)
    points = _as_int(raw, f"{axis}_points", points)
    if hi <= lo:
        raise ConfigError(f"{axis}_max must exceed {axis}_min, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"{axis} span [{lo}, {hi}] is wider than the float range")
    if points < 2:
        raise ConfigError(f"{axis}_points must be >= 2, got {points}")
    return lo, hi, points


def build_run_config(raw: dict) -> RunConfig:
    """Resolve a flat mapping (strings or numbers) into a RunConfig."""
    for key in raw:
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}")
    omega_g = _as_float(raw, "omega_g")
    omega_e = _as_float(raw, "omega_e")
    for name, value in (("omega_g", omega_g), ("omega_e", omega_e)):
        if value is None:
            raise ConfigError(f"{name} is required")
    has_shift = "shift_l" in raw
    has_lambda = "lambda_g" in raw
    if has_shift == has_lambda:
        raise ConfigError("exactly one of shift_l or lambda_g must be given")
    epsilon_g = _as_float(raw, "epsilon_g", 0.0)
    epsilon_e = _as_float(raw, "epsilon_e", 0.0)
    try:
        if has_shift:
            params = ModelParams(epsilon_g, epsilon_e, omega_g, omega_e,
                                 _as_float(raw, "shift_l"))
        else:
            params = ModelParams.from_lambda_g(epsilon_g, epsilon_e, omega_g,
                                               omega_e, _as_float(raw, "lambda_g"))
        thermal = ThermalParams(_as_float(raw, "beta", math.inf))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    initial_p = _as_int(raw, "initial_p", 0)
    if initial_p < 0:
        raise ConfigError(f"initial_p must be >= 0, got {initial_p}")
    t_grid = _grid(raw, "t", 0.0, 4.0 * math.pi / params.omega_e, 400)
    omega_eg = params.epsilon_e - params.epsilon_g
    w_grid = _grid(raw, "w", omega_eg - 2.0 * params.omega_e,
                   omega_eg + 8.0 * params.omega_e, 1201)
    eta = _as_float(raw, "eta", 0.02 * params.omega_e)
    if eta <= 0.0:
        raise ConfigError(f"eta must be > 0, got {eta}")
    oracle_dim = _as_int(raw, "oracle_dim", 256)
    if oracle_dim < 2:
        raise ConfigError(f"oracle_dim must be >= 2, got {oracle_dim}")
    fmt = str(raw.get("format", "csv"))
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    out = raw.get("out")
    return RunConfig(
        params=params,
        thermal=thermal,
        initial_p=initial_p,
        t_grid=t_grid,
        w_grid=w_grid,
        eta=eta,
        oracle_dim=oracle_dim,
        fmt=fmt,
        out=str(out) if out is not None else None,
    )


# ---------------------------------------------------------------------------
# output rendering


def _plain(value):
    """One cell or meta value as a plain int, float or str."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def _fmt_cell(value) -> str:
    value = _plain(value)
    if isinstance(value, float):
        return format(value, ".17g")
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n")):
        text = '"' + text.replace('"', '""') + '"'
    return text


def render_csv(meta: dict, columns: dict) -> str:
    lines = [f"# {key} = {_fmt_cell(meta[key])}" for key in sorted(meta)]
    names = list(columns)
    lines.append(",".join(names))
    for row in zip(*(columns[name] for name in names)):
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(meta: dict, columns: dict) -> str:
    payload = {
        "meta": {k: _plain(v) for k, v in meta.items()},
        "data": {k: [_plain(v) for v in vs] for k, vs in columns.items()},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(cfg: RunConfig, meta: dict, columns: dict):
    text = (render_csv if cfg.fmt == "csv" else render_json)(meta, columns)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        Path(cfg.out).write_text(text)


def _meta(command: str, cfg: RunConfig, c: Couplings) -> dict:
    """The common header: the tool, then the resolved configuration."""
    p = cfg.params
    return {
        "tool": "indiboson", "version": __version__, "command": command,
        "units": "hbar = 1; energies in the input units, times in their inverse",
        "epsilon_g": p.epsilon_g,
        "epsilon_e": p.epsilon_e,
        "omega_g": p.omega_g,
        "omega_e": p.omega_e,
        "shift_l": p.shift_l,
        "lambda_g": c.lambda_g,
        "beta": cfg.thermal.beta if math.isfinite(cfg.thermal.beta) else "inf",
        "initial_p": cfg.initial_p,
        "t_min": cfg.t_grid[0],
        "t_max": cfg.t_grid[1],
        "t_points": cfg.t_grid[2],
        "w_min": cfg.w_grid[0],
        "w_max": cfg.w_grid[1],
        "w_points": cfg.w_grid[2],
        "eta": cfg.eta,
        "format": cfg.fmt,
    }


def _load_config(args, required: bool = True) -> RunConfig:
    raw: dict = {}
    if args.preset:
        raw.update(preset_config(args.preset))
    if args.config:
        text = Path(args.config).read_text()
        raw.update(parse_config_text(text, origin=args.config))
    if not raw:
        if required or args.beta is not None:  # validate's --beta needs a set to change
            raise ConfigError("a --preset or --config is required"
                              + ("" if required else " for --beta"))
        raw = {"omega_g": 1.0, "omega_e": 1.0, "lambda_g": 0.0}
    raw.update({k: v for k, v in vars(args).items() if k in _ALL_KEYS and v is not None})
    return build_run_config(raw)


# ---------------------------------------------------------------------------
# subcommands: each table command returns (meta, columns), where meta holds
# only the entries it adds to the common header of _meta. ``oracle`` is None,
# or builds the run's Propagator when called, after the closed-form columns,
# so that an analytic refusal comes first and costs no diagonalisation

def cmd_couplings(cfg: RunConfig, c: Couplings, oracle) -> tuple[dict, dict]:
    quantities = {
        "omega_g": c.omega_g,
        "omega_e": c.omega_e,
        "gamma_plus": c.gamma_plus,
        "gamma_minus": c.gamma_minus,
        "lambda_g": c.lambda_g,
        "lambda_e": c.lambda_e,
        "lambda1": c.lambda1,
        "lambda2": c.lambda2,
        "omega_eg": c.omega_eg,
        "epsilon_e_prime": c.epsilon_e_prime,
        "huang_rhys": c.huang_rhys,
        "vacuum_phonons": vacuum_ground_phonon_number(c),
    }
    return {}, {"quantity": list(quantities), "value": list(quantities.values())}


def cmd_evolve(cfg: RunConfig, c: Couplings, oracle) -> tuple[dict, dict]:
    ts = cfg.times()
    p0 = cfg.initial_p
    columns = {
        "t": list(ts),
        "overlap_sq": list(np.abs(overlap(p0, c, ts)) ** 2),
        "ground_phonons": list(phonon_number(p0, c, ts)),
        "excited_phonons": [excited_phonon_number(p0, c)] * ts.size,  # conserved
    }
    if oracle:
        prop = oracle()
        columns["oracle_overlap_sq"] = list(np.abs(prop.return_amplitude(p0, ts)) ** 2)
        columns["oracle_ground_phonons"] = list(prop.phonon_number(p0, ts))
    return {}, columns


def cmd_correlation(cfg: RunConfig, c: Couplings, oracle) -> tuple[dict, dict]:
    ts = cfg.times()
    g = correlation(cfg.thermal, c, ts)
    columns = {
        "t": list(ts),
        "g_real": list(g.real),
        "g_imag": list(g.imag),
        "g_abs_sq": list(np.abs(g) ** 2),
    }
    if oracle:
        ref = oracle().thermal_correlation(cfg.thermal, c, ts)
        columns["oracle_g_real"] = list(ref.real)
        columns["oracle_g_imag"] = list(ref.imag)
    return {}, columns


def cmd_spectrum(cfg: RunConfig, c: Couplings, oracle) -> tuple[dict, dict]:
    if cfg.thermal.is_zero_temperature:
        lines = spectrum_zero_T(c)
        columns = {
            "n": list(range(len(lines))),
            "offset": list(lines.offset),
            "w": list(c.omega_eg + lines.offset),
            "weight": list(lines.weight),
            "weight_over_2pi": list(lines.weight / (2.0 * math.pi)),
        }
        if oracle:
            columns["oracle_weight"] = list(oracle().franck_condon_weights(len(lines)))
        return {}, columns
    w = cfg.freqs()
    t_max = WINDOW_DECAY / cfg.eta
    lines, residual = thermal_lines(cfg.thermal, c)
    meta = {"lines": lines.size, "moment_residual": residual}
    columns = {
        "w": list(w),
        "offset": list(w - c.omega_eg),
        "absorption": list(windowed_spectrum(lines, w - c.omega_eg, cfg.eta, t_max)),
    }
    if oracle:
        ref = oracle().thermal_line_list(cfg.thermal, c)
        columns["oracle_absorption"] = list(
            window_broadened(w - c.omega_eg, ref, cfg.eta, t_max)
        )
    return meta, columns


def cmd_validate(args, cfg: RunConfig) -> int:
    specs = []
    if args.preset or args.config:
        label = "config" if args.config or args.beta is not None else args.preset
        specs.append((label, cfg.params, cfg.thermal.beta, cfg.initial_p))
    for name in preset_names():
        if any(label == name for label, *_ in specs):
            continue
        pc = build_run_config(preset_config(name))
        specs.append((name, pc.params, pc.thermal.beta, pc.initial_p))
    report = run_validation(specs, oracle_dim=cfg.oracle_dim)
    print(report.to_text())
    if cfg.out is not None:
        meta = {"tool": "indiboson", "version": __version__, "command": "validate",
                "oracle_dim": report.oracle_dim,
                "overall": "pass" if report.all_passed else "fail"}
        _emit(cfg, meta, report.columns())
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# parser and entry point

_COMMANDS = (
    ("couplings", cmd_couplings, "derived coupling table"),
    ("evolve", cmd_evolve, "overlap and phonon numbers on the time grid"),
    ("correlation", cmd_correlation, "thermal dipole correlation samples"),
    ("spectrum", cmd_spectrum, "line list (T = 0) or windowed spectrum"),
    ("validate", cmd_validate, "closed forms vs the truncated basis"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indiboson",
        description="Exact dynamics and line shapes for a two-level emitter "
                    "coupled to one vibrational mode.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command, help_text in _COMMANDS:
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.add_argument("--config", help="flat 'key = value' config file")
        sp.add_argument("--preset", help="built-in setup: " + ", ".join(preset_names()))
        sp.add_argument("--beta", help="inverse temperature override ('inf' for T = 0)")
        sp.add_argument("--eta", help="spectral half-width override")
        sp.add_argument("--oracle-dim", dest="oracle_dim",
                        help="truncated-basis size (default 256)")
        sp.add_argument("--format", choices=("csv", "json"), help="output format")
        sp.add_argument("--out", help="output file (default stdout)")
        sp.set_defaults(func=command, oracle=False)
        if name not in ("couplings", "validate"):
            sp.add_argument("--oracle", action="store_true",
                            help="add truncated-basis reference columns")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args, required=args.command != "validate")
        if args.command == "validate":
            return cmd_validate(args, cfg)
        c = derive_couplings(cfg.params)
        head = _meta(args.command, cfg, c)
        oracle = None
        if args.oracle:
            oracle = functools.partial(Propagator.of, c, TruncatedBasis(cfg.oracle_dim))
            head["oracle_dim"] = cfg.oracle_dim
        meta, columns = args.func(cfg, c, oracle)
        _emit(cfg, {**head, **meta}, columns)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PoleError as exc:
        print(f"numerical domain error: {exc}", file=sys.stderr)
        return 3
    except (TruncationError, LineListError, OracleError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
