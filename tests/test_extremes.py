"""Every subcommand over extreme configurations, in process.

Each run either succeeds with finite numbers everywhere or refuses with a
configuration (2) or numerical (3) exit code and one line on stderr, and
no run emits a warning.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indiboson.cli import main

RUNS = [
    ["couplings"],
    ["evolve"], ["evolve", "--oracle"],
    ["correlation"], ["correlation", "--oracle"],
    ["spectrum"], ["spectrum", "--oracle"],
    ["spectrum", "--beta", "inf"], ["spectrum", "--beta", "inf", "--oracle"],
]


def numeric_cells(text):
    """Every cell below the CSV header that reads as a number."""
    rows = [line for line in text.splitlines() if not line.startswith("# ")][1:]
    for row in rows:
        for cell in row.split(","):
            try:
                yield float(cell)
            except ValueError:
                pass


def run_in_process(args):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    return code, out.getvalue(), err.getvalue(), caught


@settings(max_examples=40)  # a few seconds
@given(
    ratio=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    lam=st.floats(0.0, 10.0),
    beta=st.floats(0.05, 100.0) | st.just(math.inf),
    p=st.sampled_from([0, 1, 5, 40]),
    t_min=st.sampled_from([0.0, 1.0]),
)
# 1 - e^{-beta omega_g} rounds to 0 on a grid without t = 0
@example(ratio=2.0, lam=1.0, beta=1e-17, p=0, t_min=1.0)
@example(ratio=2.0, lam=1.0, beta=1e-13, p=0, t_min=0.0)
# the thermal line grid passes its cap
@example(ratio=2.6448321811154014, lam=9.088184001853248, beta=0.019804782243742554,
         p=0, t_min=0.0)
# the Laguerre recurrences overflow into NaN return amplitudes
@example(ratio=1.0, lam=40.0, beta=math.inf, p=300, t_min=0.0)
@example(ratio=1.5, lam=40.0, beta=math.inf, p=300, t_min=0.0)
# corners of the box
@example(ratio=1e-2, lam=10.0, beta=0.2, p=40, t_min=0.0)
@example(ratio=1e2, lam=10.0, beta=0.2, p=40, t_min=1.0)
@example(ratio=1.0, lam=10.0, beta=math.inf, p=40, t_min=0.0)
def test_every_subcommand_succeeds_finite_or_refuses_cleanly(ratio, lam, beta, p, t_min):
    setup = (f"omega_g = 1\nomega_e = {ratio!r}\nlambda_g = {lam!r}\nbeta = {beta!r}\n"
             f"initial_p = {p}\nt_min = {t_min!r}\nt_max = {t_min + 4.0 * math.pi / ratio!r}\n"
             "t_points = 50\nw_points = 101\n")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(setup)
        for args in RUNS:
            code, out, err, caught = run_in_process([*args, "--config", str(cfg)])
            context = f"{' '.join(args)} on\n{setup}"
            assert not caught, f"{[str(w.message) for w in caught]} from {context}"
            if code == 0:
                assert err == "", context
                assert all(map(math.isfinite, numeric_cells(out))), context
            else:
                assert code in (2, 3), f"exit {code} from {context}"
                assert out == "" and err.count("\n") == 1, f"{err} from {context}"


WIDE_T = "omega_g = 1\nomega_e = 1\nlambda_g = 1\nbeta = 1\nt_min = -1e308\nt_max = 1e308\n"
WIDE_W = "omega_g = 1\nomega_e = 1\nlambda_g = 1\nbeta = 1\nw_min = -1e308\nw_max = 1e308\n"
FAR_W = "omega_g = 1\nomega_e = 1\nlambda_g = 1\nbeta = 1\nw_min = 1e300\nw_max = 1.5e300\n"
FAR_W_WIDE = ("omega_g = 1\nomega_e = 1\nlambda_g = 1\nbeta = 1\nw_min = 1.2e154\n"
              "w_max = 1.3e154\neta = 1.2e154\n")


@pytest.mark.parametrize("args, setup", [
    (["spectrum", "--preset", "fig2-linear", "--eta", "1e-300"], None),  # eta**2 underflows
    (["spectrum", "--preset", "fig2-linear", "--eta", "5e-324"], None),  # 8/eta overflows
    (["spectrum"], WIDE_W),
    (["evolve"], WIDE_T),
    (["correlation"], WIDE_T),
    (["spectrum"], FAR_W),  # (delta - offset)**2 overflows
    (["spectrum", "--oracle"], FAR_W),
    (["spectrum"], FAR_W_WIDE),  # eta**2 + (delta - offset)**2 overflows
], ids=["eta-1e-300", "eta-5e-324", "spectrum-w-span", "evolve-t-span", "correlation-t-span",
        "spectrum-far-w", "spectrum-far-w-oracle", "spectrum-far-w-wide-eta"])
def test_grids_and_windows_beyond_the_float_range_are_refused(tmp_path, args, setup):
    if setup is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(setup)
        args = [*args, "--config", str(cfg)]
    code, out, err, caught = run_in_process(args)
    assert not caught, [str(w.message) for w in caught]
    assert code == 2 and out == "", err
    assert err.startswith("error: ") and err.count("\n") == 1, err
