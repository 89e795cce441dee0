import filecmp
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import traced

from chainlab import qdomino, specfun
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


def test_csv_has_descriptive_comments(tmp_path):
    main(["domino", "--j", "2..2", "--t", "0..1", "--steps", "2", "--out", str(tmp_path)])
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


def test_orbit_csv(tmp_path):
    assert main(["orbit", "--steps", "5", "--t", "0..1", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "orbit_circles.csv")
    assert header == ["t", "re_q", "im_q", "re_cl", "im_cl"]
    start = [float(x) for x in rows[0].split(",")]
    assert start[1:] == [1.0, 0.5, 1.0, 0.5]


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("j = 2..3\nsteps = 4\n")
    assert main(["domino", "--config", str(cfg), "--t", "0..3", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "domino_flip.csv")
    assert header == ["t", "flip_j2", "flip_j3"]
    assert len(rows) == 4
    # an explicit flag wins over the file even when it equals its default
    assert main(["domino", "--config", str(cfg), "--steps", "201", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "domino_flip.csv")
    assert header == ["t", "flip_j2", "flip_j3"]
    assert len(rows) == 201


def test_invalid_config_is_exit_code_one(tmp_path):
    assert main(["domino", "--j", "0..2", "--out", str(tmp_path)]) == 1
    assert main(["domino", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 1
    assert main(["domino", "--t", "oops", "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line\n")
    assert main(["domino", "--config", str(bad), "--out", str(tmp_path)]) == 1
    unknown = tmp_path / "unknown.cfg"
    for key in ("zeta", "fn", "command", "_parser"):
        unknown.write_text(f"{key} = 3\n")
        assert main(["domino", "--config", str(unknown), "--out", str(tmp_path)]) == 1
    for key in ("config", "conf"):  # --config and a prefix argparse resolves to it
        unknown.write_text(f"{key} = {tmp_path / 'other.cfg'}\nsteps = 3\n")
        assert main(["domino", "--config", str(unknown), "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "domino_flip.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [["domino", "--steps", "abc"], ["domino", "--bogus", "1"], []],
    ids=["unparsable-value", "unknown-flag", "no-subcommand"],
)
def test_malformed_command_line_is_exit_code_one(tmp_path, argv):
    # argparse would exit with status 2, the numerical-invariant code
    assert main(argv + (["--out", str(tmp_path)] if argv else [])) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["domino", "xy", "detector", "radiate", "meanfield", "orbit"])
def test_out_naming_a_file_is_exit_code_one(tmp_path, capsys, command):
    # every table command writes through main's one output path, which refuses a regular file
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    assert main([command, "--steps", "3", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: output path {target}: ") and "Traceback" not in err
    assert target.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


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


def test_verify_unknown_criterion_is_exit_code_one(tmp_path):
    assert main(["verify", "--only", "99"]) == 1
    assert main(["verify", "--only", "16,0"]) == 1
    assert main(["verify", "--only", ""]) == 1
    assert main(["verify", "--out", str(tmp_path)]) == 1  # verify has no --out: it writes no files


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_detector_rejects_nonfinite_gamma(tmp_path, gamma):
    assert main(["detector", "--gamma", gamma, "--T", "5", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "detector_amplitude.csv").exists()


def test_detector_rejects_negative_gamma(tmp_path):
    assert main(["detector", "--gamma", "-0.5", "--T", "5", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "detector_amplitude.csv").exists()


def test_orbit_zero_lambda_is_exit_code_one(tmp_path):
    assert main(["orbit", "--lam", "0", "--out", str(tmp_path)]) == 1


def test_orbit_zero_a_is_exit_code_one(tmp_path):
    assert main(["orbit", "--a", "0", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "orbit_circles.csv").exists()


@pytest.mark.parametrize(
    "argv, csv",
    [
        (["orbit", "--lam", "nan", "--steps", "3"], "orbit_circles.csv"),
        (["orbit", "--re0", "nan", "--steps", "3"], "orbit_circles.csv"),
        (["xy", "--kappa", "nan", "--steps", "3"], "xy_occupation.csv"),
        (["radiate", "--v", "nan", "--steps", "3"], "radiate_decay.csv"),
        (["domino", "--t", "0..nan", "--steps", "3"], "domino_flip.csv"),
        (["orbit", "--t", "inf", "--steps", "3"], "orbit_circles.csv"),
    ],
    ids=["orbit-lam", "orbit-re0", "xy-kappa", "radiate-v", "domino-t", "orbit-t"],
)
def test_nonfinite_inputs_are_exit_code_one(tmp_path, argv, csv):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert not (tmp_path / csv).exists()


def test_nonfinite_config_value_is_exit_code_one(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lam = nan\n")
    assert main(["orbit", "--config", str(cfg), "--steps", "3", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "orbit_circles.csv").exists()


@pytest.mark.parametrize(
    "flags", [["--T", "0.001"], ["--dt", "0"], ["--dt", "-0.02"], ["--steps", "0"], ["--steps", "-3"]]
)
def test_detector_needs_a_time_step(tmp_path, flags):
    assert main(["detector", *flags, "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "detector_amplitude.csv").exists()


@pytest.mark.parametrize(
    "flags", [["--T", "1e5"], ["--dt", "1e-5"], ["--T", "1e300", "--dt", "1e-300"]],
    ids=["long", "fine-step", "overflowing-step-count"],
)
def test_oversized_detector_run_is_exit_code_one(tmp_path, capsys, flags):
    # the free pass would hold gigabytes, or T / dt is no finite step count: refused before the
    # time grid is allocated, with the configuration-error line
    assert main(["detector", *flags, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "detector_amplitude.csv").exists()


@pytest.mark.parametrize(
    "argv, allocating, bound",
    [
        (["radiate", "--M", "20000"], (np.polynomial.legendre, "leggauss"), 2**20),
        (["radiate", "--N", "100000"], (np.polynomial.legendre, "leggauss"), 2**20),
        (["radiate", "--N", "1" + "0" * 160], (np.polynomial.legendre, "leggauss"), 2**20),
        (["radiate", "--N", "1" + "0" * 2200], (np.polynomial.legendre, "leggauss"), 2**20),
        (["domino", "--steps", "100000000"], (np, "linspace"), 2**20),
    ],
    ids=["radiate-M", "radiate-N", "radiate-N-1e160", "radiate-N-1e2200", "domino-steps"],
)
def test_oversized_grid_is_refused_before_allocation(tmp_path, forbid, capsys, argv, allocating, bound):
    # leggauss would build a 3.2 GB companion matrix and the Hamiltonian would need 3.2 or 80 GB;
    # linspace would take 0.8 GB.  radiate refuses N + M before default_params's 80001-point integral,
    # also when its byte count is an integer no float can hold (N = 10^160) or of more digits than
    # Python writes in decimal (N = 10^2200).
    forbid(*allocating)
    with traced() as trace:
        code = main(argv + ["--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert trace.peak < bound
    assert not any(tmp_path.iterdir())


def test_radiate_past_the_propagation_budget_is_exit_code_one(tmp_path, capsys):
    # the 406-state chain's phases pass the byte budget from 13 633 times on, and 10^6 times would
    # hold 19.5 GB: Propagator.apply refuses them before it builds any.  The smaller run goes first,
    # so a missing gate fails the test at 0.4 GB instead of allocating gigabytes
    for steps in ("20000", "1000000"):
        with traced() as trace:
            code = main(["radiate", "--steps", steps, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "Traceback" not in err
        assert trace.peak < 16 * 2**20
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, csv",
    [
        (["radiate", "--N", "0"], "radiate_decay.csv"),
        (["radiate", "--M", "1"], "radiate_decay.csv"),
        (["meanfield", "--eps", "-1"], "meanfield_phase.csv"),
        (["meanfield", "--lambda", "-1"], "meanfield_phase.csv"),
        (["meanfield", "--T", "0..0.5"], "meanfield_phase.csv"),
        (["domino", "--j", "3..2"], "domino_flip.csv"),
        (["xy", "--j", "1..0"], "xy_occupation.csv"),
    ],
    ids=["radiate-N", "radiate-M", "meanfield-eps", "meanfield-lambda", "meanfield-T", "domino-empty-j",
         "xy-empty-j"],
)
def test_out_of_domain_inputs_are_exit_code_one(tmp_path, argv, csv):
    assert main(argv + ["--steps", "3", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / csv).exists()


@pytest.mark.parametrize(
    "argv, csv",
    [
        (["domino", "--t", "0..1e9"], "domino_flip.csv"),
        (["xy", "--t", "0..1e6", "--steps", "2"], "xy_occupation.csv"),
        (["xy", "--steps", "1000000"], "xy_occupation.csv"),  # 94 orders x 1e6 times: 1.5 GB
    ],
    ids=["domino", "xy", "xy-table-bytes"],
)
def test_oversized_bessel_recurrence_is_exit_code_one(tmp_path, forbid, argv, csv):
    forbid(specfun, "_miller")  # the Miller recurrence does not start above its start-index bound
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert not (tmp_path / csv).exists()


@pytest.mark.parametrize(
    "argv, csv",
    [
        (["radiate", "--v", "1e200"], "radiate_decay.csv"),  # v**2 overflows in default_params
        (["orbit", "--lam", "1e-200"], "orbit_circles.csv"),  # lam**2 underflows to 0, then divides
        (["orbit", "--re0", "1e200"], "orbit_circles.csv"),  # abs(z)**2 overflows
    ],
    ids=["radiate-v", "orbit-lam", "orbit-re0"],
)
def test_arithmetic_error_is_exit_code_two_without_a_file(tmp_path, capsys, argv, csv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical invariant violated: ")
    assert "Traceback" not in err
    assert not (tmp_path / csv).exists()


def test_nonfinite_result_is_exit_code_two_without_a_file(tmp_path, monkeypatch):
    def flip_with_nan(j, t):
        # one row per site, as flip_probability returns for an array of sites
        p = np.zeros(np.shape(j) + np.shape(t))
        p[-1, p.shape[-1] // 2] = np.nan
        return p

    monkeypatch.setattr(qdomino, "flip_probability", flip_with_nan)
    assert main(["domino", "--j", "2..3", "--t", "0..5", "--steps", "11", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "domino_flip.csv").exists()


def test_detector_route_gap_is_exit_code_two(tmp_path):
    # at T = 0.03 the time and spectral w routes differ by about 1e-4
    assert main(["detector", "--T", "0.03", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "detector_amplitude.csv").exists()
