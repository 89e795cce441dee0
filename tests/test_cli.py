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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chainlab
from chainlab import cli, qdomino, specfun, xychain
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


def _csv_by_row(comments, header, rows):
    """The CSV text as each value formatted on its own: a string as it is, any number as %.12g of float(x)."""
    text = "".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n"
    return text + "".join(",".join(x if isinstance(x, str) else "%.12g" % float(x) for x in row) + "\n" for row in rows)


def _column(kind, n, rng, floats, words):
    """n cells of a column: wide-ranged random numbers, half of the float ones drawn from floats."""
    if kind == "str":
        return [words[k] for k in rng.integers(len(words), size=n)]
    if kind in ("int", "int64"):
        ints = rng.integers(-(10**15), 10**15, size=n)
        return list(ints) if kind == "int64" else [int(x) for x in ints]
    if kind == "float32":
        return list((rng.standard_normal(n) * 10.0 ** rng.integers(-45, 37, size=n)).astype(np.float32))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, size=n)
    pick = rng.random(n) < 0.5
    x[pick] = np.array(floats)[rng.integers(len(floats), size=pick.sum())]
    return list(x) if kind == "float64" else [float(v) for v in x]


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    n=st.integers(1, 3000),
    kinds=st.lists(st.sampled_from(["float", "float64", "float32", "int", "int64", "str"]), min_size=1, max_size=6),
    floats=st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS), min_size=1),
    words=st.lists(st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8), min_size=1, max_size=5),
    bad=st.tuples(st.integers(0, 2999), st.integers(0, 5), st.sampled_from([np.nan, np.inf, -np.inf])),
    seed=st.integers(0, 2**32 - 1),
)
# one row, and the edges of the writer's chunks of 1024 rows
@example(n=1, kinds=["float", "str"], floats=[-0.0], words=["%s"], bad=(0, 0, np.nan), seed=0)
@example(n=1024, kinds=["float64"] * 6, floats=[5e-324], words=[""], bad=(1023, 5, np.inf), seed=1)
@example(n=1025, kinds=["str", "int"], floats=[1e300], words=["a"], bad=(1024, 1, -np.inf), seed=2)
@example(n=2049, kinds=["float32", "float", "int64"], floats=[-1e-300], words=["b"], bad=(2048, 1, np.nan), seed=3)
def test_csv_writer_formats_each_value_as_on_its_own(n, kinds, floats, words, bad, seed):
    # the bytes of %.12g of float(x) for every number (-0.0, subnormals, +-1e+-300, numpy scalars, ints) and
    # the string as it is; a NaN or an inf in any row raises the message that names its column and no file
    rng = np.random.default_rng(seed)
    header = [f"c{k}" for k in range(len(kinds))]
    rows = list(zip(*(_column(kind, n, rng, floats, words) for kind in kinds)))
    comments = ["a table", "columns: c0, ..."]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "table.csv"
        cli._write_csv(path, comments, header, iter(rows))
        assert path.read_bytes() == _csv_by_row(comments, header, rows).encode()
        numeric = [k for k, kind in enumerate(kinds) if kind != "str"]
        if numeric:
            row, col = bad[0] % n, numeric[bad[1] % len(numeric)]
            rows[row] = rows[row][:col] + (bad[2],) + rows[row][col + 1 :]
            path = Path(d) / "poisoned.csv"
            with pytest.raises(ValueError, match=f"^non-finite c{col} in poisoned.csv$"):
                cli._write_csv(path, comments, header, iter(rows))
            assert not path.exists()


def test_csv_writer_holds_one_chunk_of_rows_besides_its_text(tmp_path):
    # 50 000 rows x 6 columns, the rows built before the trace: 5.87 MB traced.  Formatting each value with
    # its own % and holding a line per row peaked at 8.561 MB
    rng = np.random.default_rng(0)
    rows = list(zip(*rng.normal(size=(6, 50000)) * 10.0 ** rng.integers(-300, 300, size=(6, 50000))))
    with traced() as trace:
        cli._write_csv(tmp_path / "big.csv", [], [f"c{k}" for k in range(6)], rows)
    assert trace.peak <= 8.56e6


# each subcommand's flags, in the order its usage line gives them
_TABLE = "[-h] [--config CONFIG] [--out OUT] [--steps STEPS]"
_USAGE = {
    "domino": f"{_TABLE} [--j J] [--t T]",
    "xy": f"{_TABLE} [--j J] [--t T] [--kappa KAPPA]",
    "detector": f"{_TABLE} [--gamma GAMMA] [--dt DT] [--T T]",
    "radiate": f"{_TABLE} [--N N] [--M M] [--v V] [--t T]",
    "meanfield": f"{_TABLE} [--eps EPS] [--lambda LAM] [--T T]",
    "orbit": f"{_TABLE} [--re0 RE0] [--im0 IM0] [--lam LAM] [--a A] [--t T]",
    "verify": "[-h] [--config CONFIG] [--only ONLY]",
}
_COMMANDS = list(_USAGE)


def _subparsers(parser):
    return parser._subparsers._group_actions[0].choices


@pytest.mark.parametrize("name", _COMMANDS)
def test_a_subcommand_alone_reads_as_in_the_full_parser(monkeypatch, name):
    # main builds only the subparser its first argument names: the same help, usage and defaults
    monkeypatch.setenv("COLUMNS", "200")  # one usage line
    own, full = _subparsers(cli._build_parser(name)), _subparsers(cli._build_parser())
    assert list(own) == [name] and list(full) == _COMMANDS
    assert own[name].format_help() == full[name].format_help()
    assert own[name].format_usage() == full[name].format_usage() == f"usage: chainlab {name} {_USAGE[name]}\n"
    assert cli._build_parser(name).parse_args([name]) == cli._build_parser().parse_args([name])


@pytest.mark.parametrize("argv", [[], ["radiat"], ["radiate", "--bogus", "1"]],
                         ids=["no-command", "unknown-command", "unknown-flag"])
def test_a_malformed_command_line_reads_as_with_the_full_parser(monkeypatch, tmp_path, argv):
    # no subcommand, or one no subparser has, builds all seven; a subcommand's own parser refuses an
    # unknown flag in the same words
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # the default --out
    full = cli._build_parser
    texts = []
    for build in (full, lambda command=None: full()):
        monkeypatch.setattr(cli, "_build_parser", build)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            texts.append((_refused(argv, 1), out.getvalue()))
    assert texts[0] == texts[1]
    assert all(name in texts[0][0] for name in _COMMANDS) == (argv == ["radiat"])


def test_top_level_help_reads_as_with_the_full_parser(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["chainlab", "--help"])
    full, seen = cli._build_parser, []
    for build in (full, lambda command=None: full()):
        monkeypatch.setattr(cli, "_build_parser", build)
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("chainlab", run_name="__main__")
        seen.append((exit_info.value.code, *capsys.readouterr()))
    assert seen[0] == seen[1]
    assert seen[0][0] == 0 and all(name in seen[0][1] for name in _COMMANDS) and seen[0][2] == ""
