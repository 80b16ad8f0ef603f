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


def test_build_run_config_defaults():
    cfg = build_run_config({"omega_g": 1.0, "omega_e": 2.0, "lambda_g": 1.0})
    assert cfg.thermal.is_zero_temperature
    assert cfg.t_grid == (0.0, 2.0 * math.pi, 400)
    assert cfg.w_grid == (-4.0, 16.0, 1201)
    assert cfg.eta == pytest.approx(0.04)
    assert cfg.oracle_dim == 128
    assert cfg.fmt == "csv"
    assert cfg.initial_p == 0
    # thermal comparisons take 256 levels unless an oracle_dim key pins them
    assert cfg.thermal_dim == 256
    raw = {"omega_g": 1.0, "omega_e": 2.0, "lambda_g": 1.0, "oracle_dim": 64}
    assert (build_run_config(raw).oracle_dim, build_run_config(raw).thermal_dim) == (64, 64)
    assert build_run_config(dict(raw, oracle_dim="300")).thermal_dim == 300


def test_cli_imports_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(indiboson.__file__).parents[1]))
    code = "import sys, indiboson.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


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
    for args, dim in ((["evolve"], "128"), (["spectrum", "--beta", "inf"], "128"),
                      (["correlation"], "256"), (["spectrum"], "256")):
        code, out, _ = run([*args, "--config", str(cfg), "--oracle"], capsys)
        assert code == 0
        assert parse_csv(out)[0]["oracle_dim"] == dim, args
        code, out, _ = run([*args, "--config", str(cfg), "--oracle", "--format", "json"],
                           capsys)
        assert json.loads(out)["meta"]["oracle_dim"] == int(dim), args


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
    ("build_excited_hamiltonian", "assembled Hamiltonian is not Hermitian"),
    ("observable", "expectation value has imaginary residue 0.001"),
])
def test_oracle_failure_is_a_numerical_error(monkeypatch, capsys, name, message):
    def failing(*args, **kwargs):
        raise OracleError(message)

    monkeypatch.setattr(cli, name, failing)
    code, out, err = run(["evolve", "--preset", "fig2-linear", "--oracle"], capsys)
    assert code == 3
    assert out == ""
    assert err == f"numerical error: {message}\n"


@pytest.mark.parametrize("setup", [
    "omega_g = 1\nomega_e = 1\nlambda_g = 1e16\n",
    "omega_g = 1\nomega_e = 1\nlambda_g = 1\nepsilon_e = 1e8\n",
], ids=["lambda_g-1e16", "epsilon_e-1e8"])
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
    row = next(line for line in out.splitlines()
               if line.startswith("return_amplitude") and " config " in line)
    assert "FAIL" in row and "TruncationError: level p=3" in row
    assert out.splitlines()[-1].startswith("overall: FAIL")


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
    # counted by basis size
    built = Counter()
    init = oracle.Propagator.__init__

    def counting_init(self, hamiltonian, basis):
        built[basis.dim] += 1
        init(self, hamiltonian, basis)

    listed = []

    def counting_lines(c):
        listed.append(1)
        return spectrum_zero_T(c)

    monkeypatch.setattr(oracle.Propagator, "__init__", counting_init)
    monkeypatch.setattr(validation, "spectrum_zero_T", counting_lines)
    specs = [("a", build_run_config({"omega_g": 1.0, "omega_e": 1.0, "lambda_g": 1.0}).params,
              1.0, 0)]
    report = validation.run_validation(specs, oracle_dim=64, thermal_dim=256)
    assert report.all_passed
    assert built == {64: 1, 256: 1}
    assert len(listed) == 1
    # a pinned size serves the thermal row from the same diagonalisation
    built.clear()
    report = validation.run_validation(specs * 2, oracle_dim=256, thermal_dim=256)
    assert report.all_passed
    assert built == {256: 2}

    def broken(c, basis):
        raise OracleError("assembled Hamiltonian is not Hermitian")

    monkeypatch.setattr(validation, "build_excited_hamiltonian", broken)
    rows = validation.run_validation(specs, oracle_dim=64, thermal_dim=256).rows
    failed = {r.check for r in rows if not r.passed}
    assert failed == {"eigenvalue_ladder", "return_amplitude", "phonon_number",
                      "excited_energy", "thermal_correlation", "line_weights"}
    assert all("not Hermitian" in r.note for r in rows if not r.passed)

    def no_lines(c):
        raise LineListError("sum rule missed")

    # the shared T = 0 line list still fails each row that uses it
    monkeypatch.setattr(validation, "spectrum_zero_T", no_lines)
    rows = validation.run_validation(specs, oracle_dim=64, thermal_dim=256).rows
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
    rows = validation.run_validation(_preset_specs(), oracle_dim=128, thermal_dim=256).rows
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
    rows = validation.run_validation(_preset_specs(), oracle_dim=128, thermal_dim=256).rows
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
    assert " pass " in row and " 1e-01 " in row


def test_validate_refuses_a_return_amplitude_that_leans_on_the_buffer(tmp_path, capsys):
    # omega_e/omega_g = 0.3, lambda_g = 1.5, p = 1: at 128 levels the row
    # used to fail by 1.4e-6 as if the closed form were wrong
    cfg = tmp_path / "soft.cfg"
    cfg.write_text("omega_g = 1\nomega_e = 0.3\nlambda_g = 1.5\ninitial_p = 1\n")

    def row(dim):
        _, out, _ = run(["validate", "--config", str(cfg), "--oracle-dim", dim], capsys)
        return next(line for line in out.splitlines()
                    if line.startswith("return_amplitude") and " config " in line)

    assert "FAIL  [TruncationError: the eigenstates of level p=1 put weighted" in row("128")
    assert " pass " in row("256")
    code, _, err = run(["evolve", "--config", str(cfg), "--oracle"], capsys)
    assert code == 3 and "p=1 put weighted buffer population" in err
    assert run(["evolve", "--config", str(cfg), "--oracle", "--oracle-dim", "256"],
               capsys)[0] == 0


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
