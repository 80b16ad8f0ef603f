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
    beta=st.floats(0.2, 100.0) | st.just(math.inf),
    p=st.sampled_from([0, 1, 5, 40]),
    t_min=st.sampled_from([0.0, 1.0]),
)
# 1 - e^{-beta omega_g} rounds to 0 on a grid without t = 0
@example(ratio=2.0, lam=1.0, beta=1e-17, p=0, t_min=1.0)
@example(ratio=2.0, lam=1.0, beta=1e-13, p=0, t_min=0.0)
# the thermal line sweep overflows
@example(ratio=2.6448321811154014, lam=9.088184001853248, beta=0.019804782243742554,
         p=0, t_min=0.0)
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
