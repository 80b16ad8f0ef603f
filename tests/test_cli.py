"""Command-line interface: config handling, rendering, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import indiboson
from indiboson import cli, oracle, validation
from indiboson.cli import build_run_config, main, parse_config_text
from indiboson.presets import preset_config, preset_names
from indiboson.analytic import spectrum_zero_T
from indiboson.errors import (ConfigError, LineListError, OracleError, PoleError,
                              TruncationError)

SAMPLE = """\
# sample setup
omega_g = 1.0
omega_e = 1.0
lambda_g = 1.0
beta = 1.0
t_points = 7
t_max = 6.283185307179586
w_min = -0.5
w_max = 4.5
w_points = 21
eta = 0.1
"""


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return meta, columns


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigError, match="cfg.txt:2"):
        parse_config_text("omega_g = 1\nnonsense line\n", origin="cfg.txt")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("bogus = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("omega_g = 1\nomega_g = 2\n")
    with pytest.raises(ConfigError, match="empty"):
        parse_config_text("omega_g =\n")
    raw = parse_config_text(SAMPLE)
    assert raw["t_points"] == "7"
    assert "# sample" not in raw


def test_build_run_config_requirements():
    with pytest.raises(ConfigError, match="omega_e is required"):
        build_run_config({"omega_g": 1.0, "lambda_g": 0.0})
    with pytest.raises(ConfigError, match="exactly one"):
        build_run_config({"omega_g": 1.0, "omega_e": 1.0})
    with pytest.raises(ConfigError, match="exactly one"):
        build_run_config(
            {"omega_g": 1.0, "omega_e": 1.0, "lambda_g": 1.0, "shift_l": 1.0}
        )
    with pytest.raises(ConfigError, match="beta"):
        build_run_config({"omega_g": 1.0, "omega_e": 1.0, "lambda_g": 0.0, "beta": 0.0})
    with pytest.raises(ConfigError, match="t_points"):
        build_run_config(
            {"omega_g": 1.0, "omega_e": 1.0, "lambda_g": 0.0, "t_points": 1}
        )
    with pytest.raises(ConfigError, match="format"):
        build_run_config(
            {"omega_g": 1.0, "omega_e": 1.0, "lambda_g": 0.0, "format": "xml"}
        )


@pytest.mark.parametrize("axis", ["t", "w"])
def test_both_grid_axes_share_one_rule_and_its_wording(axis):
    base = {"omega_g": 1.0, "omega_e": 1.0, "lambda_g": 0.0}
    for keys, message in (
        ({"min": 1.0, "max": -1.0}, f"{axis}_max must exceed {axis}_min, got [1.0, -1.0]"),
        ({"min": -1e308, "max": 1e308},
         f"{axis} span [-1e+308, 1e+308] is wider than the float range"),
        ({"points": 1}, f"{axis}_points must be >= 2, got 1"),
    ):
        raw = dict(base, **{f"{axis}_{k}": v for k, v in keys.items()})
        with pytest.raises(ConfigError) as exc:
            build_run_config(raw)
        assert str(exc.value) == message


def test_build_run_config_defaults():
    cfg = build_run_config({"omega_g": 1.0, "omega_e": 2.0, "lambda_g": 1.0})
    assert cfg.thermal.is_zero_temperature
    assert cfg.t_grid == (0.0, 2.0 * math.pi, 400)
    assert cfg.w_grid == (-4.0, 16.0, 1201)
    assert cfg.eta == pytest.approx(0.04)
    assert cfg.oracle_dim == 256
    assert cfg.fmt == "csv"
    assert cfg.initial_p == 0
    # one basis size for every oracle comparison
    assert not hasattr(cfg, "thermal_dim")
    raw = {"omega_g": 1.0, "omega_e": 2.0, "lambda_g": 1.0, "oracle_dim": 64}
    assert build_run_config(raw).oracle_dim == 64
    assert build_run_config(dict(raw, oracle_dim="300")).oracle_dim == 300


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """A new interpreter that imports the package under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(indiboson.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_imports_without_scipy():
    code = "import sys, indiboson.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh_python("-c", code).stdout.strip() == "[]"


def test_package_root_binds_only_its_version():
    # every name is imported from its module; the root loads none of them, nor numpy
    code = ("import sys, indiboson; "
            "print([n for n in vars(indiboson) if not n.startswith('_')], indiboson.__version__, "
            "sorted(m for m in sys.modules if m.split('.')[0] in ('indiboson', 'numpy')))")
    out = _fresh_python("-c", code)
    assert out.stdout.strip() == f"[] {indiboson.__version__} ['indiboson']", out.stderr


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "from indiboson" in code
    out = _fresh_python("-W", "error", "-c", code)
    assert out.returncode == 0 and out.stdout, out.stderr


# ---------------------------------------------------------------------------
# output rendering


def test_couplings_json_schema(capsys):
    code, out, _ = run(
        ["couplings", "--preset", "fig2-quadratic", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"meta", "data"}
    assert payload["meta"]["omega_e"] == 2.0
    assert payload["meta"]["command"] == "couplings"
    assert "version" in payload["meta"]
    table = dict(zip(payload["data"]["quantity"], payload["data"]["value"]))
    assert table["gamma_plus"] ** 2 - table["gamma_minus"] ** 2 == pytest.approx(
        1.0, abs=1e-12
    )
    assert table["vacuum_phonons"] == pytest.approx(0.125, abs=1e-12)


def test_csv_roundtrips_at_full_precision(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SAMPLE)
    code, out, _ = run(["evolve", "--config", str(cfg)], capsys)
    assert code == 0
    meta, columns = parse_csv(out)
    assert meta["command"] == "evolve"
    ts = np.array([float(v) for v in columns["t"]])
    assert np.array_equal(ts, np.linspace(0.0, 6.283185307179586, 7))
    probs = np.array([float(v) for v in columns["overlap_sq"]])
    assert probs[0] == 1.0
    assert np.all((probs >= 0.0) & (probs <= 1.0 + 1e-12))


def test_output_is_deterministic(capsys):
    args = ["spectrum", "--preset", "fig2-linear", "--beta", "inf"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_zero_temperature_spectrum_lists_lines(capsys):
    code, out, _ = run(
        ["spectrum", "--preset", "fig2-quadratic", "--beta", "inf"], capsys
    )
    assert code == 0
    _, columns = parse_csv(out)
    assert list(columns) == ["n", "offset", "w", "weight", "weight_over_2pi"]
    assert float(columns["weight_over_2pi"][0]) == pytest.approx(
        2.0 * math.sqrt(2.0) / 3.0, rel=1e-12
    )
    assert float(columns["offset"][0]) == 0.5
    # T = 0 output is the raw line list, never pre-broadened samples
    assert len(columns["n"]) < 40


def test_finite_temperature_spectrum_samples_grid(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SAMPLE)
    code, out, _ = run(["spectrum", "--config", str(cfg)], capsys)
    assert code == 0
    meta, columns = parse_csv(out)
    assert list(columns) == ["w", "offset", "absorption"]
    assert len(columns["w"]) == 21
    a = np.array([float(v) for v in columns["absorption"]])
    assert np.max(a) > 1.0  # resolved peaks at eta = 0.1
    # the line list behind the spectrum is recorded
    assert int(meta["lines"]) > 0
    assert 0.0 <= float(meta["moment_residual"]) <= 1e-9


def test_finite_temperature_oracle_column_shares_the_window(capsys):
    code, out, _ = run(["spectrum", "--preset", "fig2-both", "--oracle",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["oracle_dim"] == 256
    assert payload["meta"]["lines"] > 0
    a = np.array(payload["data"]["absorption"])
    ref = np.array(payload["data"]["oracle_absorption"])
    assert np.max(np.abs(a - ref)) <= 1e-8 * np.max(ref)


def test_evolve_oracle_columns_agree(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SAMPLE)
    code, out, _ = run(
        ["evolve", "--config", str(cfg), "--oracle", "--oracle-dim", "64"], capsys
    )
    assert code == 0
    _, columns = parse_csv(out)
    got = np.array([float(v) for v in columns["overlap_sq"]])
    ref = np.array([float(v) for v in columns["oracle_overlap_sq"]])
    assert np.max(np.abs(got - ref)) < 1e-8
    phon = np.array([float(v) for v in columns["ground_phonons"]])
    ophon = np.array([float(v) for v in columns["oracle_ground_phonons"]])
    assert np.max(np.abs(phon - ophon)) < 1e-7


def test_correlation_oracle_columns_agree(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SAMPLE)
    code, out, _ = run(
        ["correlation", "--config", str(cfg), "--oracle", "--oracle-dim", "64"], capsys
    )
    assert code == 0
    _, columns = parse_csv(out)
    for part in ("real", "imag"):
        got = np.array([float(v) for v in columns[f"g_{part}"]])
        ref = np.array([float(v) for v in columns[f"oracle_g_{part}"]])
        assert np.max(np.abs(got - ref)) < 1e-6


def test_thermal_oracle_defaults_to_the_validate_dimension(capsys):
    # at 128 levels the fig2-both thermal oracle reaches its buffer; the
    # default is the 256 levels validate uses, and the meta says so
    code, out, err = run(["correlation", "--preset", "fig2-both", "--oracle"], capsys)
    assert code == 0, err
    meta, columns = parse_csv(out)
    assert meta["oracle_dim"] == "256"
    got = np.array([float(v) for v in columns["g_real"]])
    ref = np.array([float(v) for v in columns["oracle_g_real"]])
    assert np.max(np.abs(got - ref)) < 1e-6
    # a pinned dimension is honoured, refusal included
    code, _, err = run(
        ["correlation", "--preset", "fig2-both", "--oracle", "--oracle-dim", "128"], capsys
    )
    assert code == 3
    assert "increase the basis" in err


def test_oracle_dim_is_reported_only_where_an_oracle_ran(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SAMPLE)
    for args in (["couplings"], ["evolve"], ["correlation"], ["spectrum"],
                 ["spectrum", "--beta", "inf"]):
        code, out, _ = run([*args, "--config", str(cfg)], capsys)
        assert code == 0
        assert "oracle_dim" not in parse_csv(out)[0], args
    # every oracle comparison uses the one default size
    for args in (["evolve"], ["spectrum", "--beta", "inf"], ["correlation"], ["spectrum"]):
        code, out, _ = run([*args, "--config", str(cfg), "--oracle"], capsys)
        assert code == 0
        assert parse_csv(out)[0]["oracle_dim"] == "256", args
        code, out, _ = run([*args, "--config", str(cfg), "--oracle", "--format", "json"],
                           capsys)
        assert json.loads(out)["meta"]["oracle_dim"] == 256, args
    with pytest.raises(SystemExit):
        main(["evolve", "--help"])
    assert "truncated-basis size (default 256)" in " ".join(capsys.readouterr().out.split())


def test_config_file_oracle_dim_pins_the_thermal_basis(tmp_path, capsys):
    # one rule: an oracle_dim key pins every comparison, whether it came
    # from --oracle-dim or from a config file
    cfg = tmp_path / "dim.cfg"
    cfg.write_text("oracle_dim = 128\n")
    args = ["correlation", "--preset", "fig2-both", "--oracle"]
    by_file = run(args + ["--config", str(cfg)], capsys)
    by_flag = run(args + ["--oracle-dim", "128"], capsys)
    assert by_file == by_flag
    code, out, err = by_file
    assert code == 3
    assert out == ""
    assert "increase the basis" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["couplings", "evolve", "correlation", "spectrum",
                                     "validate"])
def test_oracle_flag_only_on_table_commands_with_references(command, capsys):
    parser = cli.build_parser()
    # no prefix matching: neither flag abbreviates --oracle-dim
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, "--oracle-d", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --oracle-d 64" in capsys.readouterr().err
    if command in ("couplings", "validate"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--oracle"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --oracle" in capsys.readouterr().err
    else:
        assert parser.parse_args([command, "--oracle"]).oracle is True
        assert parser.parse_args([command]).oracle is False


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "lines.json"
    code, out, _ = run(
        [
            "spectrum", "--preset", "fig2-linear", "--beta", "inf",
            "--format", "json", "--out", str(target),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    weights = payload["data"]["weight"]
    assert sum(weights) == pytest.approx(2.0 * math.pi, abs=1e-9)


# ---------------------------------------------------------------------------
# exit codes


def test_missing_setup_is_a_config_error(capsys):
    code, _, err = run(["couplings"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, command", [
    ("eta", "spectrum"), ("t_min", "evolve"), ("t_max", "evolve"),
    ("w_min", "spectrum"), ("w_max", "spectrum"),
])
def test_non_finite_config_value_is_a_config_error(tmp_path, capsys, key, command, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(
            [command, "--preset", "fig2-both", "--config", str(cfg)], capsys
        )
    assert code == 2
    assert out == ""
    assert err == f"error: {key}: expected a finite number, got '{value}'\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["initial_p", "t_points", "w_points", "oracle_dim"])
def test_non_finite_integer_config_value_is_a_config_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = run(["evolve", "--preset", "fig2-both", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {key}: expected an integer, got '{value}'\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--eta", "nan", "error: eta: expected a finite number, got 'nan'\n"),
    ("--eta", "inf", "error: eta: expected a finite number, got 'inf'\n"),
    ("--oracle-dim", "1.5", "error: oracle_dim: expected an integer, got '1.5'\n"),
    ("--oracle-dim", "1e3", ""),  # 1000 levels, as in a config file
], ids=["nan", "inf", "oracle-dim-1.5", "oracle-dim-1e3"])
def test_non_finite_eta_flag_is_a_config_error(tmp_path, capsys, flag, value, message):
    # a flag is parsed like its config key: the same refusal or the same run
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SAMPLE.replace("t_points = 7", "t_points = 3").replace("eta = 0.1\n", ""))
    args = ["evolve", "--config", str(cfg), "--oracle"]
    by_flag = run(args + [flag, value], capsys)
    with cfg.open("a") as fh:
        fh.write(f"{flag[2:].replace('-', '_')} = {value}\n")
    assert by_flag == run(args, capsys)
    code, out, err = by_flag
    assert err == message
    if message:
        assert code == 2 and out == ""
    else:
        assert code == 0 and parse_csv(out)[0]["oracle_dim"] == "1000"


@pytest.mark.parametrize("setup, field", [
    ("omega_g = 1\nomega_e = 1\nlambda_g = 1e160\n", None),  # lambda_e**2 overflows
    ("omega_g = 1\nomega_e = 1e300\nlambda_g = 1\n", None),  # omega_e**2 overflows
    ("omega_g = 1e200\nomega_e = 1e-200\nlambda_g = 1\n", None),  # the ratio underflows
    ("omega_g = 1\nomega_e = 1e10\nlambda_g = 1e145\n", "epsilon_e_prime"),  # inf
])
@pytest.mark.parametrize("command", ["couplings", "evolve", "spectrum"])
def test_overflowing_couplings_are_a_config_error(tmp_path, capsys, command, setup, field):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(setup)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: derived coupling") and err.count("\n") == 1
    if field is not None:
        assert f"{field} = inf is not finite" in err


def test_unknown_preset_is_a_config_error(capsys):
    code, _, err = run(["couplings", "--preset", "fig9"], capsys)
    assert code == 2
    assert "unknown preset" in err


def test_bad_config_file_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("omega_g = 1\nwat = 7\n")
    code, _, err = run(["couplings", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bad.cfg:2" in err


def test_missing_config_file_is_an_io_error(capsys):
    code, _, err = run(["couplings", "--config", "/nonexistent/run.cfg"], capsys)
    assert code == 4
    assert "i/o" in err


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.csv"
    code, _, err = run(
        ["couplings", "--preset", "fig2-linear", "--out", str(target)], capsys
    )
    assert code == 4


def test_near_infinite_temperature_is_a_domain_error(capsys):
    # equal frequencies take the same closed form, and meet the same pole
    for preset in ("fig2-both", "fig2-linear"):
        code, out, err = run(["correlation", "--preset", preset, "--beta", "1e-13"], capsys)
        assert code == 3, preset
        assert out == ""
        assert "pole" in err


def test_line_list_failure_is_a_numerical_error(tmp_path, capsys):
    cfg = tmp_path / "strong.cfg"
    cfg.write_text("omega_g = 1.0\nomega_e = 1.5\nlambda_g = 50\n")
    code, out, err = run(["spectrum", "--config", str(cfg), "--beta", "inf"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical error:")
    assert "sum rule" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("ratio, lam, beta", [
    *((ratio, lam, 0.05) for ratio in (0.5, 1.0, 3.0) for lam in (0.0, 3.0)),
    (0.01, 1.0, 1.0), (100.0, 1.0, 1.0),  # strongly squeezed
])
def test_hot_and_squeezed_spectra_print(tmp_path, capsys, ratio, lam, beta):
    # the line weights are Fourier coefficients of a function bounded by 1,
    # so hot columns amplify no rounding
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(f"omega_g = 1\nomega_e = {ratio!r}\nlambda_g = {lam!r}\n"
                   f"beta = {beta!r}\nw_points = 101\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["spectrum", "--config", str(cfg), "--format", "json"], capsys)
    assert code == 0, err
    meta = json.loads(out)["meta"]
    assert meta["lines"] > 0
    assert meta["moment_residual"] <= 1e-12


def test_thermal_grid_past_the_cap_is_a_numerical_error(tmp_path, capsys):
    # b**N_p <= 1e-16 at beta*omega_g = 1e-3 needs ~37,000 columns
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("omega_g = 1\nomega_e = 2\nlambda_g = 1\nbeta = 1e-3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["spectrum", "--config", str(cfg)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical error: thermal lines at beta=0.001 need a grid of more than")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("name, message", [
    ("vibrational_hamiltonian", "assembled Hamiltonian is not Hermitian"),
    ("expectation", "expectation value has imaginary residue 0.001"),
])
def test_oracle_failure_is_a_numerical_error(monkeypatch, capsys, name, message):
    def failing(*args, **kwargs):
        raise OracleError(message)

    # the function Propagator.of calls, or the Propagator method cli calls
    monkeypatch.setattr(oracle if hasattr(oracle, name) else oracle.Propagator, name, failing)
    code, out, err = run(["evolve", "--preset", "fig2-linear", "--oracle"], capsys)
    assert code == 3
    assert out == ""
    assert err == f"numerical error: {message}\n"


@pytest.fixture
def built(monkeypatch):
    """Every Propagator built, counted: one diagonalisation each."""
    count = []
    init = oracle.Propagator.__init__

    def counting_init(self, hamiltonian, basis):
        count.append(basis.dim)
        init(self, hamiltonian, basis)

    monkeypatch.setattr(oracle.Propagator, "__init__", counting_init)
    return count


@pytest.mark.parametrize("args", [["couplings"], ["evolve"], ["correlation"], ["spectrum"],
                                  ["spectrum", "--beta", "inf"]])
def test_an_oracle_run_builds_one_propagator(capsys, built, args):
    code, _, err = run([*args, "--preset", "fig2-both"], capsys)
    assert code == 0, err
    assert built == []
    if args[0] != "couplings":
        code, _, err = run([*args, "--preset", "fig2-both", "--oracle"], capsys)
        assert code == 0, err
        assert built == [256]


@pytest.mark.parametrize("setup, args, code, message", [
    ("omega_g = 1\nomega_e = 1\nlambda_g = 1\nepsilon_e = 1e8\nbeta = 1\n"
     "w_min = -1e200\nw_max = 1e200\n", [], 2, "leave the float range of the line shape"),
    ("omega_g = 1\nomega_e = 1\nlambda_g = 1e16\n", ["--beta", "inf"], 3,
     "spectral weight 0 underflows"),
], ids=["window", "zero-T-lines"])
def test_an_analytic_refusal_comes_before_the_oracle(tmp_path, capsys, built, setup, args,
                                                     code, message):
    # the oracle refuses the lambda_g = 1e16 Hamiltonian and serves the
    # epsilon_e = 1e8 one; either way the analytic side speaks first
    cfg = tmp_path / "run.cfg"
    cfg.write_text(setup)
    got, out, err = run(["spectrum", "--config", str(cfg), *args, "--oracle"], capsys)
    assert (got, out) == (code, "")
    assert message in err and err.count("\n") == 1
    assert built == []


def test_commands_reach_the_oracle_only_through_propagator(monkeypatch, capsys):
    def retired(*args, **kwargs):
        raise AssertionError("an oracle module function was called")

    for name in ("thermal_correlation", "franck_condon_weights", "thermal_line_list"):
        assert not hasattr(cli, name) and not hasattr(validation, name)
        monkeypatch.setattr(oracle, name, retired)
    for args in (["evolve"], ["correlation"], ["spectrum"], ["spectrum", "--beta", "inf"],
                 ["evolve", "--beta", "inf"], ["correlation", "--beta", "inf"]):
        code, _, err = run([*args, "--preset", "fig2-both", "--oracle"], capsys)
        assert code == 0, (args, err)
    code, out, err = run(["validate"], capsys)
    assert code == 0, err
    assert out.splitlines()[-1] == "overall: PASS (oracle dim 256)"


def test_no_command_factors_by_svd(monkeypatch, capsys):
    # every oracle reference, the excited vacuum included, comes from the
    # one eigendecomposition; the SVD null vector lives in the tests
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(oracle, "excited_vacuum", counting("excited_vacuum",
                                                           oracle.excited_vacuum))
    for name in preset_names():
        for args in (["couplings"], ["evolve", "--oracle"], ["correlation", "--oracle"],
                     ["spectrum", "--oracle"], ["spectrum", "--beta", "inf", "--oracle"]):
            code, _, err = run([*args, "--preset", name], capsys)
            assert code == 0, (name, args, err)
    for args in (["validate"], ["validate", "--preset", "fig2-both"]):
        code, _, err = run(args, capsys)
        assert code == 0, (args, err)
    assert calls == Counter()


def test_validate_refuses_a_temperature_without_a_set(capsys):
    # --beta changes a parameter set; without --preset or --config there is
    # none to change, and the presets would run at their own temperatures
    for beta in ("0.1", "inf"):
        code, out, err = run(["validate", "--beta", beta], capsys)
        assert (code, out) == (2, "")
        assert err == "error: a --preset or --config is required for --beta\n"
    code, out, _ = run(["validate", "--preset", "fig2-both", "--beta", "inf"], capsys)
    assert code == 0 and "fig2-both" in out


@pytest.mark.parametrize("setup", [
    "omega_g = 1\nomega_e = 1\nlambda_g = 1e16\n",
], ids=["lambda_g-1e16"])
def test_evolve_oracle_refuses_an_unresolvable_hamiltonian(tmp_path, capsys, setup):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(setup)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["evolve", "--config", str(cfg), "--oracle"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical error: Hamiltonian entries reach ")
    assert "cannot resolve the couplings" in err and err.count("\n") == 1


def test_evolve_oracle_serves_a_large_electronic_energy(tmp_path, capsys):
    # epsilon_e never enters the oracle's matrix, so no epsilon_e is too
    # large for it: the oracle columns agree within validate's tolerances
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega_g = 1\nomega_e = 1\nlambda_g = 1\nepsilon_e = 1e8\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["evolve", "--config", str(cfg), "--oracle"], capsys)
    assert (code, err) == (0, "")
    col = {name: np.array(values, dtype=float) for name, values in parse_csv(out)[1].items()}
    assert np.max(np.abs(col["oracle_overlap_sq"] - col["overlap_sq"])) <= 1e-8
    assert np.max(np.abs(col["oracle_ground_phonons"] - col["ground_phonons"])) <= 1e-7


@pytest.fixture
def soft_config(tmp_path):
    cfg = tmp_path / "soft.cfg"
    cfg.write_text("omega_g = 1\nomega_e = 0.3\nlambda_g = 1.5\ninitial_p = 1\n")
    return str(cfg)


@pytest.fixture
def buffer_level_config(tmp_path):
    # initial_p = 3 is past the buffer start (2) of a 3-level basis
    cfg = tmp_path / "buffer.cfg"
    cfg.write_text("omega_g = 1\nomega_e = 1.7\nlambda_g = 0.5\ninitial_p = 3\n")
    return str(cfg)


def test_evolve_oracle_refuses_a_level_in_the_buffer(buffer_level_config, capsys):
    code, out, err = run(["evolve", "--config", buffer_level_config, "--oracle",
                          "--oracle-dim", "3"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical error: level p=3 lies in the truncation buffer")
    assert "increase the basis" in err and err.count("\n") == 1


def test_validate_reports_a_level_in_the_buffer_as_failed(buffer_level_config, capsys):
    code, out, err = run(["validate", "--config", buffer_level_config,
                          "--oracle-dim", "3"], capsys)
    assert code == 1
    assert err == ""
    # every row that evolves the level refuses it, none crashes
    for check in ("return_amplitude", "phonon_number", "excited_energy"):
        row = next(line for line in out.splitlines()
                   if line.startswith(check) and " config " in line)
        assert "FAIL" in row and "TruncationError: level p=3 lies in the truncation buffer" in row
    assert out.splitlines()[-1] == "overall: FAIL (oracle dim 3)"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "indiboson" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# validate subcommand


def test_validate_passes_at_default_sizes(capsys):
    code, out, _ = run(["validate"], capsys)
    assert code == 0
    assert "overall: PASS" in out
    for name in ("fig2-linear", "fig2-quadratic", "fig2-both"):
        assert name in out


def test_validate_diagonalises_once_per_set(monkeypatch):
    # every Propagator build, in validation or inside an oracle function,
    # counted by basis size, and every eigh and SVD in numpy
    built = Counter()
    init = oracle.Propagator.__init__

    def counting_init(self, hamiltonian, basis):
        built[basis.dim] += 1
        init(self, hamiltonian, basis)

    listed = []

    def counting_lines(c):
        listed.append(1)
        return spectrum_zero_T(c)

    factored = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            factored[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def no_vacuum(c, basis):
        raise AssertionError("validate reads the excited vacuum from its eigenbasis")

    monkeypatch.setattr(oracle.Propagator, "__init__", counting_init)
    monkeypatch.setattr(validation, "spectrum_zero_T", counting_lines)
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(oracle, "excited_vacuum", no_vacuum)
    specs = [("a", build_run_config({"omega_g": 1.0, "omega_e": 1.0, "lambda_g": 1.0}).params,
              1.0, 0)]
    report = validation.run_validation(specs, oracle_dim=64)
    assert report.all_passed
    assert built == {64: 1} and factored == {"eigh": 1}
    assert len(listed) == 1
    # one diagonalisation per set at any size, and no SVD
    built.clear()
    factored.clear()
    report = validation.run_validation(specs * 2, oracle_dim=256)
    assert report.all_passed
    assert built == {256: 2} and factored == {"eigh": 2}

    def broken(c, basis):
        raise OracleError("assembled Hamiltonian is not Hermitian")

    monkeypatch.setattr(oracle, "vibrational_hamiltonian", broken)
    rows = validation.run_validation(specs, oracle_dim=64).rows
    failed = {r.check for r in rows if not r.passed}
    assert failed == {"eigenvalue_ladder", "vacuum_phonons", "return_amplitude",
                      "phonon_number", "excited_energy", "thermal_correlation",
                      "line_weights"}
    assert all("not Hermitian" in r.note for r in rows if not r.passed)

    def no_lines(c):
        raise LineListError("sum rule missed")

    # the shared T = 0 line list still fails each row that uses it
    monkeypatch.setattr(validation, "spectrum_zero_T", no_lines)
    rows = validation.run_validation(specs, oracle_dim=64).rows
    missed = {r.check for r in rows if "sum rule missed" in r.note and not r.passed}
    assert missed == {"line_weights", "line_sum_rule"}


def _preset_specs():
    specs = []
    for name in preset_names():
        cfg = build_run_config(preset_config(name))
        specs.append((name, cfg.params, cfg.thermal.beta, cfg.initial_p))
    return specs


def test_validate_runs_the_same_rows_on_every_set():
    # no row depends on the coupling: energy conservation is checked at
    # every frequency ratio
    rows = validation.run_validation(_preset_specs(), oracle_dim=256).rows
    by_set = {}
    for r in rows:
        by_set.setdefault(r.label, []).append(r.check)
    assert list(by_set) == list(preset_names())
    checks = by_set["fig2-linear"]
    assert all(names == checks for names in by_set.values())
    assert "excited_energy" in checks and "polaron_identity" not in checks


def test_validate_sees_a_relative_energy_error_of_1e7(monkeypatch):
    exact = validation.excited_mean_energy
    monkeypatch.setattr(validation, "excited_mean_energy",
                        lambda p, c: exact(p, c) * (1.0 + 1e-7))
    rows = validation.run_validation(_preset_specs(), oracle_dim=256).rows
    energy = [r for r in rows if r.check == "excited_energy"]
    assert [r.label for r in energy] == list(preset_names())
    assert not any(r.passed for r in energy)
    assert all(r.passed for r in rows if r.check != "excited_energy")
    # the tolerance scales with the energy: 1e-8 * max(1, |E|)
    assert [r.tol for r in energy] == [1e-8 * max(1.0, abs(r.analytic)) for r in energy]


@pytest.mark.parametrize("omega_e", ["1", "2"])
def test_validate_passes_a_large_electronic_energy(tmp_path, capsys, omega_e):
    # at epsilon_e = 1e7 the excited energy carries ~1.1e-8 to 1.5e-8 of
    # rounding, beyond an absolute 1e-8
    cfg = tmp_path / "far.cfg"
    cfg.write_text(f"omega_g = 1\nomega_e = {omega_e}\nlambda_g = 1\nepsilon_e = 1e7\n")
    code, out, _ = run(["validate", "--config", str(cfg)], capsys)
    assert code == 0, out
    row = next(line for line in out.splitlines()
               if line.startswith("excited_energy") and " config " in line)
    assert " pass " in row and " 1.00e-01 " in row


@pytest.mark.parametrize("omega_e", ["1", "2"])
def test_validate_passes_at_an_electronic_energy_of_3e7(tmp_path, capsys, omega_e):
    # the oracle diagonalises H_e - epsilon_e: in the matrix, epsilon_e's
    # rounding would push return_amplitude (omega_e 1), eigenvalue_ladder
    # and line_weights (omega_e 2) past their 1e-8
    cfg = tmp_path / "far.cfg"
    cfg.write_text(f"omega_g = 1\nomega_e = {omega_e}\nlambda_g = 1\nepsilon_e = 3e7\n")
    code, out, _ = run(["validate", "--config", str(cfg)], capsys)
    assert code == 0, out
    rows = [line for line in out.splitlines() if " config " in line]
    assert len(rows) == 10 and all(" pass" in row for row in rows)


def test_validate_runs_a_preset_at_another_temperature_as_config(capsys):
    # --beta changes the set, so it is not the preset: the preset still runs
    code, out, _ = run(["validate", "--preset", "fig2-both", "--beta", "0.1"], capsys)
    rows = [line.split() for line in out.splitlines()[2:-1]]
    assert list(dict.fromkeys(row[1] for row in rows)) == ["config", *preset_names()]
    # the hot set leans on the buffer; the preset passes
    assert code == 1
    assert {row[1] for row in rows if "FAIL" in row} == {"config"}
    assert all("pass" in row for row in rows if row[1] == "fig2-both")


def test_validate_refuses_a_return_amplitude_that_leans_on_the_buffer(soft_config, capsys):
    # omega_e/omega_g = 0.3, lambda_g = 1.5, p = 1: at 128 levels the row
    # used to fail by 1.4e-6 as if the closed form were wrong
    def row(dim):
        _, out, _ = run(["validate", "--config", soft_config, "--oracle-dim", dim], capsys)
        return next(line for line in out.splitlines()
                    if line.startswith("return_amplitude") and " config " in line)

    assert "FAIL  [TruncationError: the eigenstates of level p=1 put weighted" in row("128")
    assert " pass " in row("256")
    code, _, err = run(["evolve", "--config", soft_config, "--oracle", "--oracle-dim", "128"],
                       capsys)
    assert code == 3 and "p=1 put weighted buffer population" in err
    assert run(["evolve", "--config", soft_config, "--oracle"], capsys)[0] == 0


def _ladder_row(out, label):
    return next(line for line in out.splitlines()
                if line.startswith("eigenvalue_ladder") and f" {label} " in line)


def test_validate_ladder_stops_at_the_first_eigenvector_on_the_buffer(soft_config, capsys):
    # on the soft configuration eigenvector 39 is the first of the lowest 64
    # with more than 1e-8 in the buffer of 256 levels; the levels below it
    # agree with the ladder to 3.1e-12 (the whole 64 missed by 5.8e-2)
    code, out, _ = run(["validate", "--config", soft_config], capsys)
    assert code == 0, out
    row = _ladder_row(out, "config")
    assert row.endswith(" pass  [39 levels of 64]")
    assert float(row.split()[4]) < 1e-11
    for name in preset_names():
        assert _ladder_row(out, name).endswith(" pass  [64 levels]")
    # two clean levels still make a row; one does not
    _, out, _ = run(["validate", "--config", soft_config, "--oracle-dim", "60"], capsys)
    assert _ladder_row(out, "config").endswith(" pass  [2 levels of 15]")
    code, out, _ = run(["validate", "--config", soft_config, "--oracle-dim", "56"], capsys)
    assert code == 1
    assert _ladder_row(out, "config").endswith(
        " FAIL  [TruncationError: 1 of the lowest 14 eigenvectors stay off the buffer "
        "(dim=56); increase the basis]")


def test_validate_prints_the_tolerance_it_applies(capsys):
    # excited_energy on fig2-linear applies 1e-8 * 1.5
    code, out, _ = run(["validate", "--preset", "fig2-linear"], capsys)
    assert code == 0
    row = next(line for line in out.splitlines()
               if line.startswith("excited_energy") and " fig2-linear " in line)
    assert row.split()[5] == "1.50e-08"
    head = out.splitlines()[0]
    assert head.index("tol") + len("tol") == row.index("1.50e-08") + len("1.50e-08")
    assert out.splitlines()[-1] == "overall: PASS (oracle dim 256)"


def test_row_reports_the_first_worst_sample():
    row = validation._row("c", "s", 1.0, lambda: (np.array([1.0, 3.0, 5.0, 3.0]),
                                                   np.array([1.0, 1.0, 3.0, 5.0]), "n"))
    assert row == validation.ValidationRow("c", "s", 3.0, 1.0, 2.0, 1.0, False, "n")


def test_row_reports_complex_samples_as_magnitudes():
    row = validation._row("c", "s", 1.0, lambda: (np.array([1 + 1j, 3j]),
                                                   np.array([1.0, -3j]), ""))
    assert (row.analytic, row.reference, row.diff) == (3.0, 3.0, 6.0)


def test_row_broadcasts_a_scalar_against_samples():
    row = validation._row("c", "s", 2.0, lambda: (-2.0, np.array([-2.0, -1.5, -3.5]), ""))
    assert (row.analytic, row.reference, row.diff, row.passed) == (-2.0, -3.5, 1.5, True)


def test_row_fails_a_nan_sample():
    row = validation._row("c", "s", 1.0, lambda: (np.array([1.0, math.nan, 5.0]), 1.0, ""))
    assert math.isnan(row.analytic) and math.isnan(row.diff) and not row.passed


@pytest.mark.parametrize("exc", [
    TruncationError("basis edge"), LineListError("sum rule missed"),
    OracleError("not Hermitian"), PoleError("on a pole"), ValueError("bad input"),
], ids=lambda exc: type(exc).__name__)
def test_row_reports_a_failing_check_as_a_failed_row(exc):
    def check():
        raise exc

    row = validation._row("c", "s", 1.0, check)
    assert not row.passed and math.isnan(row.analytic) and math.isnan(row.diff)
    assert row.note == f"{type(exc).__name__}: {exc}"


def test_validate_fails_on_undersized_basis(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        ["validate", "--oracle-dim", "10", "--out", str(target)], capsys
    )
    assert code == 1
    assert "overall: FAIL" in out
    _, columns = parse_csv(target.read_text())
    assert "fail" in columns["status"]
