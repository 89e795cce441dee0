import contextlib
import filecmp
import io
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import traced

import chainlab
from chainlab import qdomino, specfun, xychain
from chainlab.cli import main


def _read_csv(path: Path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, lines[1:]


def test_domino_csv(tmp_path):
    assert main(["domino", "--j", "2..3", "--t", "0..5", "--steps", "11", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "domino_flip.csv")
    assert header == ["t", "flip_j2", "flip_j3"]
    assert len(rows) == 11
    first = rows[0].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_detector_rows_follow_steps(tmp_path):
    # T = 5 at dt = 0.02 is 250 steps; a stride over them once gave 7 rows ending at t = 4.92 for
    # --steps 7, 126 rows for --steps 100 and 2 for --steps 1
    for steps, count in ((7, 7), (100, 100), (1000, 251), (1, 1)):
        assert main(["detector", "--T", "5", "--steps", str(steps), "--out", str(tmp_path)]) == 0
        t = [float(row.split(",")[0]) for row in _read_csv(tmp_path / "detector_amplitude.csv")[1]]
        assert len(t) == count and t[0] == 0.0
        assert count == 1 or t[-1] == 5.0


def test_csv_has_descriptive_comments(tmp_path):
    assert main(["domino", "--j", "2..2", "--t", "0..1", "--steps", "2", "--out", str(tmp_path)]) == 0
    head = (tmp_path / "domino_flip.csv").read_text().splitlines()[0]
    assert head.startswith("# ")


def test_xy_csv(tmp_path):
    assert main(["xy", "--j=-1..1", "--t", "0..4", "--steps", "5", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "xy_occupation.csv")
    assert header == ["t", "occ_j-1", "occ_j0", "occ_j1"]
    vals = [float(x) for x in rows[0].split(",")]
    assert vals[1:] == [1.0, 0.0, 0.0]


def test_meanfield_csv_contains_critical_row(tmp_path):
    assert main(["meanfield", "--T", "0.1..0.6", "--steps", "6", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "meanfield_phase.csv").read_text()
    assert "critical temperature" in text
    assert "0.455119" in text
    header, rows = _read_csv(tmp_path / "meanfield_phase.csv")
    kinds = [r.split(",")[1] for r in rows]
    assert "superconducting" in kinds and "normal" in kinds


def test_meanfield_csv_without_a_superconducting_phase(tmp_path):
    # 2 eps >= lambda: no T_c to add, and every temperature is in the normal phase
    assert main(["meanfield", "--eps", "0.6", "--steps", "6", "--out", str(tmp_path)]) == 0
    assert "critical temperature" not in (tmp_path / "meanfield_phase.csv").read_text()
    _, rows = _read_csv(tmp_path / "meanfield_phase.csv")
    assert [r.split(",")[1] for r in rows] == ["normal"] * 6


@pytest.mark.parametrize("args", ["--lambda 2e4 --T 5e3", "--lambda 1e6 --T 3e5"])
def test_meanfield_at_strong_coupling_returns(tmp_path, args):
    # a gap of 8192 or more has adjacent floats over 1e-12 apart: the bisection once ran forever there.
    # In a child process with a timeout, so that a hang fails the test instead of the session
    env = {**os.environ, "PYTHONPATH": str(Path(chainlab.__file__).parents[1])}
    cmd = [sys.executable, "-m", "chainlab", "meanfield", *args.split(), "--steps", "1", "--out", str(tmp_path)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    _, rows = _read_csv(tmp_path / "meanfield_phase.csv")
    assert [r.split(",")[1] for r in rows] == ["superconducting", "normal"]


def test_orbit_csv(tmp_path):
    assert main(["orbit", "--steps", "5", "--t", "0..1", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "orbit_circles.csv")
    assert header == ["t", "re_q", "im_q", "re_cl", "im_cl"]
    start = [float(x) for x in rows[0].split(",")]
    assert start[1:] == [1.0, 0.5, 1.0, 0.5]


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# two sites, four times\nj = 2..3\n\nsteps = 4\n")  # comments and blank lines are skipped
    assert main(["domino", "--config", str(cfg), "--t", "0..3", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "domino_flip.csv")
    assert header == ["t", "flip_j2", "flip_j3"]
    assert len(rows) == 4
    # an explicit flag wins over the file even when it equals its default
    assert main(["domino", "--config", str(cfg), "--steps", "201", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "domino_flip.csv")
    assert header == ["t", "flip_j2", "flip_j3"]
    assert len(rows) == 201


def test_python_dash_m_runs_the_cli(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["chainlab", "domino", "--steps", "3", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("chainlab", run_name="__main__")
    assert exit_info.value.code == 0
    assert len(_read_csv(tmp_path / "domino_flip.csv")[1]) == 3


def test_outputs_are_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["xy", "--j=-1..1", "--t", "0..5", "--steps", "21", "--out", str(d)]) == 0
    assert filecmp.cmp(d1 / "xy_occupation.csv", d2 / "xy_occupation.csv", shallow=False)


def test_radiate_csv(tmp_path):
    assert main(["radiate", "--t", "0..20", "--steps", "6", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "radiate_decay.csv")
    assert header == ["t", "decay"]
    vals = np.array([[float(x) for x in r.split(",")] for r in rows])
    assert vals[-1, 1] > 0.9


_PREFIX = {1: "configuration error: ", 2: "numerical invariant violated: "}


def _refused(argv, code, config=None, match=""):
    """main(argv) returns code, its stderr line has the code's prefix, holds match and no traceback,
    and --out holds no file.

    config is the text (or the bytes) of a file passed as --config after the subcommand; without --out
    the output directory is the working directory.  Returns the stderr text.
    """
    out = Path(argv[argv.index("--out") + 1] if "--out" in argv else ".")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stderr(err):
        if config is not None:
            (Path(d) / "run.cfg").write_bytes(config if isinstance(config, bytes) else config.encode())
            argv = [argv[0], "--config", str(Path(d) / "run.cfg"), *argv[1:]]
        returned = main(argv)
    text = err.getvalue()
    assert returned == code and text.startswith(_PREFIX[code]) and match in text and "Traceback" not in text, text
    assert not out.is_dir() or not any(out.iterdir())  # main may have made the directory
    return text


# (id, command line, exit code[, config file text[, text of the stderr line]]).  Exit 1: a malformed
# command line or config file (argparse would exit with status 2, the numerical-invariant code), a
# non-finite or out-of-domain value, a run too large to start.  Exit 2: a numerical invariant
# fails, including an arithmetic error on a flag value.
REFUSED = [
    ("unparsable-value", "domino --steps abc", 1),
    ("unknown-flag", "domino --bogus 1", 1),
    ("no-subcommand", "", 1),
    ("unparsable-range", "domino --t oops", 1),
    ("config-missing", "domino --config missing.cfg", 1),
    ("config-not-key-value", "domino", 1, "nonsense line\n"),
    ("config-key-zeta", "domino", 1, "zeta = 3\n"),
    ("config-key-fn", "domino", 1, "fn = 3\n"),
    ("config-key-command", "domino", 1, "command = 3\n"),
    ("config-key-_parser", "domino", 1, "_parser = 3\n"),
    # --config and a prefix argparse resolves to it
    ("config-key-config", "domino", 1, "config = other.cfg\nsteps = 3\n"),
    ("config-key-conf", "domino", 1, "conf = other.cfg\nsteps = 3\n"),
    ("config-nonfinite-lam", "orbit --steps 3", 1, "lam = nan\n"),
    ("config-not-utf8", "domino", 1, b"steps = 3\n\xff\n", "UTF-8"),
    ("verify-criterion-99", "verify --only 99", 1),
    ("verify-criterion-0", "verify --only 16,0", 1),
    ("verify-no-criteria", "verify --only=", 1),
    ("verify-out", "verify --out .", 1),  # verify writes no files
    ("detector-gamma-nan", "detector --gamma nan --T 5", 1),
    ("detector-gamma-inf", "detector --gamma inf --T 5", 1),
    ("detector-gamma-negative", "detector --gamma -0.5 --T 5", 1),
    ("detector-T-below-a-step", "detector --T 0.001", 1),
    ("detector-dt-zero", "detector --dt 0", 1),
    ("detector-dt-negative", "detector --dt -0.02", 1),
    ("detector-steps-zero", "detector --steps 0", 1),
    ("detector-steps-negative", "detector --steps -3", 1),
    ("orbit-lam-zero", "orbit --lam 0", 1),
    ("orbit-a-zero", "orbit --a 0", 1),
    ("xy-kappa-zero", "xy --kappa 0", 1, None, "kappa must be nonzero"),
    ("domino-j-from-zero", "domino --j 0..2", 1),
    ("domino-j-non-integer", "domino --j 1.5..3", 1, None, "must be integer"),
    ("domino-j-oversized", "domino --j 1..3000000", 1, None, "has more than 1000000 points"),
    ("xy-j-oversized", "xy --j=-3000000..3000000", 1, None, "has more than 1000000 points"),
    # at T = 0.03 the time and spectral w routes differ by about 1e-4
    ("detector-route-gap", "detector --T 0.03", 2),
    ("detector-strong-coupling", "detector --gamma 2 --T 5", 2, None, "||gamma g||_1 = 2.621 >= 2"),
]


# More refused command lines in the same row format, one table per test below.
NONFINITE = [
    ("orbit-lam", "orbit --lam nan --steps 3", 1),
    ("orbit-re0", "orbit --re0 nan --steps 3", 1),
    ("xy-kappa", "xy --kappa nan --steps 3", 1),
    ("radiate-v", "radiate --v nan --steps 3", 1),
    ("domino-t", "domino --t 0..nan --steps 3", 1),
    ("orbit-t", "orbit --t inf --steps 3", 1),
]
OUT_OF_DOMAIN = [
    ("radiate-N", "radiate --N 0 --steps 3", 1),
    ("radiate-M", "radiate --M 1 --steps 3", 1),
    ("meanfield-eps", "meanfield --eps -1 --steps 3", 1),
    ("meanfield-lambda", "meanfield --lambda -1 --steps 3", 1),
    ("meanfield-T", "meanfield --T 0..0.5 --steps 3", 1),
    ("domino-empty-j", "domino --j 3..2 --steps 3", 1),
    ("xy-empty-j", "xy --j 1..0 --steps 3", 1),
]
# the free pass would hold gigabytes, or T / dt is no finite step count: refused before the time grid
# is allocated
OVERSIZED_DETECTOR = [
    ("long", "detector --T 1e5", 1),
    ("fine-step", "detector --dt 1e-5", 1),
    ("overflowing-step-count", "detector --T 1e300 --dt 1e-300", 1),
]
# the stderr line names the subcommand and the exception class after the prefix
ARITHMETIC = [
    ("radiate-v", "radiate --v 1e200", 2, None, ": radiate: OverflowError: "),  # v**2 overflows in default_params
    ("orbit-lam", "orbit --lam 1e-200", 2, None, ": orbit: ZeroDivisionError: "),  # lam**2 underflows, then divides
    ("orbit-re0", "orbit --re0 1e200", 2, None, ": orbit: OverflowError: "),  # abs(z)**2 overflows
]


def _rows(table):
    return pytest.mark.parametrize("command, contract", [(r[1], r[2:]) for r in table], ids=[r[0] for r in table])


@pytest.fixture
def refuse(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default --out
    return lambda command, contract: _refused(command.split(), *contract)


@_rows(REFUSED)
def test_refused(refuse, command, contract):
    refuse(command, contract)


@_rows(NONFINITE)
def test_nonfinite_inputs_are_exit_code_one(refuse, command, contract):
    refuse(command, contract)


@_rows(OUT_OF_DOMAIN)
def test_out_of_domain_inputs_are_exit_code_one(refuse, command, contract):
    refuse(command, contract)


@_rows(OVERSIZED_DETECTOR)
def test_oversized_detector_run_is_exit_code_one(refuse, command, contract):
    refuse(command, contract)


@_rows(ARITHMETIC)
def test_arithmetic_error_is_exit_code_two_without_a_file(refuse, command, contract):
    refuse(command, contract)


@pytest.mark.parametrize("command", ["domino", "xy", "detector", "radiate", "meanfield", "orbit"])
def test_out_naming_a_file_is_exit_code_one(tmp_path, command):
    # every table command writes through main's one output path, which refuses a regular file
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    err = _refused([command, "--steps", "3", "--out", str(target)], 1)
    assert err.startswith(f"configuration error: output path {target}: ")
    assert target.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize(
    "argv, allocating, bound",
    [
        (["radiate", "--M", "20000"], (np.polynomial.legendre, "leggauss"), 2**20),
        (["radiate", "--N", "100000"], (np.polynomial.legendre, "leggauss"), 2**20),
        (["radiate", "--N", "1" + "0" * 160], (np.polynomial.legendre, "leggauss"), 2**20),
        (["radiate", "--N", "1" + "0" * 2200], (np.polynomial.legendre, "leggauss"), 2**20),
        (["domino", "--steps", "100000000"], (np, "linspace"), 2**20),
        (["domino", "--j", "1..3000000"], (qdomino, "flip_probability"), 2**20),
        (["xy", "--j=-3000000..3000000"], (xychain, "occupation"), 2**20),
    ],
    ids=["radiate-M", "radiate-N", "radiate-N-1e160", "radiate-N-1e2200", "domino-steps", "domino-j", "xy-j"],
)
def test_oversized_grid_is_refused_before_allocation(tmp_path, forbid, argv, allocating, bound):
    # leggauss would build a 3.2 GB companion matrix and the Hamiltonian would need 3.2 or 80 GB;
    # linspace would take 0.8 GB.  radiate refuses N + M before default_params's 80001-point integral,
    # also when its byte count is an integer no float can hold (N = 10^160) or of more digits than
    # Python writes in decimal (N = 10^2200).  A --j range is refused before its list of sites is
    # built: 3 and 6 million sites once took 190 and 350 MiB before the Bessel gate refused them.
    forbid(*allocating)
    with traced() as trace:
        _refused(argv + ["--out", str(tmp_path)], 1)
    assert trace.peak < bound


def test_radiate_past_the_propagation_budget_is_exit_code_one(tmp_path):
    # the 406-state chain's phases pass the byte budget from 13 633 times on, and 10^6 times would
    # hold 19.5 GB: Propagator.apply refuses them before it builds any.  The smaller run goes first,
    # so a missing gate fails the test at 0.4 GB instead of allocating gigabytes
    for steps in ("20000", "1000000"):
        with traced() as trace:
            _refused(["radiate", "--steps", steps, "--out", str(tmp_path)], 1)
        assert trace.peak < 16 * 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ["domino", "--t", "0..1e9"],
        ["xy", "--t", "0..1e6", "--steps", "2"],
        ["xy", "--steps", "1000000"],  # 94 orders x 1e6 times: 1.5 GB
    ],
    ids=["domino", "xy", "xy-table-bytes"],
)
def test_oversized_bessel_recurrence_is_exit_code_one(tmp_path, forbid, argv):
    forbid(specfun, "_miller")  # the Miller recurrence does not start above its start-index bound
    _refused(argv + ["--out", str(tmp_path)], 1)


def test_nonfinite_result_is_exit_code_two_without_a_file(tmp_path, monkeypatch):
    def flip_with_nan(j, t):
        # one row per site, as flip_probability returns for an array of sites
        p = np.zeros(np.shape(j) + np.shape(t))
        p[-1, p.shape[-1] // 2] = np.nan
        return p

    monkeypatch.setattr(qdomino, "flip_probability", flip_with_nan)
    _refused(["domino", "--j", "2..3", "--t", "0..5", "--steps", "11", "--out", str(tmp_path)], 2,
             match=": domino: ValueError: non-finite flip_j3 in domino_flip.csv")
