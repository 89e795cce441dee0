import filecmp
from pathlib import Path

import numpy as np
import pytest

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


def test_invalid_config_is_exit_code_one(tmp_path):
    assert main(["domino", "--j", "0..2", "--out", str(tmp_path)]) == 1
    assert main(["domino", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 1
    assert main(["domino", "--t", "oops", "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line\n")
    assert main(["domino", "--config", str(bad), "--out", str(tmp_path)]) == 1
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("zeta = 3\n")
    assert main(["domino", "--config", str(unknown), "--out", str(tmp_path)]) == 1


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
    assert main(["verify", "--only", "99", "--out", str(tmp_path)]) == 1
    assert main(["verify", "--only", "16,0", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_detector_rejects_nonfinite_gamma(tmp_path, gamma):
    assert main(["detector", "--gamma", gamma, "--T", "5", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "detector_amplitude.csv").exists()


def test_orbit_zero_lambda_is_exit_code_one(tmp_path):
    assert main(["orbit", "--lam", "0", "--out", str(tmp_path)]) == 1
