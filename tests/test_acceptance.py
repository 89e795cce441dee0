"""Acceptance gate: every numbered criterion must pass at its stated tolerance."""

import weakref

import numpy as np
import pytest

from chainlab import acceptance, detector, projection, specfun, xychain
from chainlab.cli import main

_NUMBERS = range(1, len(acceptance.CRITERIA) + 1)


@pytest.mark.parametrize("number", _NUMBERS, ids=[f"criterion_{i:02d}" for i in _NUMBERS])
def test_criterion(number):
    (result,) = acceptance.run_all([number])
    print(result.line)
    assert result.number == number
    # a Python bool, as json.dumps needs: a numpy bool it rejects
    assert type(result.passed) is bool
    assert result.passed, f"criterion {number}: {result.name} -- {result.detail}"


@pytest.mark.parametrize("stub, code, verdict", [(False, 0, "all criteria passed"), (True, 2, "FAILURES present")],
                         ids=["passing", "failing"])
def test_verify_command_prints_each_criterion_and_the_verdict(monkeypatch, capsys, stub, code, verdict):
    if stub:
        criteria = list(acceptance.CRITERIA)
        criteria[11] = lambda shared: ("stubbed", False, "fails")
        monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    assert main(["verify", "--only", "4,12,16"]) == code
    lines = capsys.readouterr().out.splitlines()
    status = "FAIL" if stub else "PASS"
    assert [line[:17] for line in lines[:3]] == ["criterion 04 PASS", f"criterion 12 {status}", "criterion 16 PASS"]
    assert lines[3:] == [f"acceptance: {verdict}"]


def test_bessel_criteria_catch_a_stretched_table(monkeypatch):
    # the table at x (1 + 1e-6) still meets J_0^2 + 2 sum_k J_k^2 = 1, which the recurrence
    # normalizes by; only the independent integral route sees the error
    def stretched(n_max, x):
        return specfun.bessel_table(n_max, np.asarray(x, dtype=float) * (1.0 + 1e-6))

    monkeypatch.setattr(acceptance, "bessel_table", stretched)
    monkeypatch.setattr(xychain, "bessel_table", stretched)
    results = acceptance.run_all([4, 5])
    assert [r.passed for r in results] == [False, False], [r.line for r in results]


def test_site_sums_catch_a_shifted_site(monkeypatch):
    # occupation reading site j + 1 still tends to 1/2 at large t; the direct site sums see the slip
    occupation = xychain.occupation
    monkeypatch.setattr(xychain, "occupation", lambda j, t, kappa: occupation(np.add(j, 1), t, kappa))
    (result,) = acceptance.run_all([5])
    assert not result.passed, result.line


def test_smearing_check_catches_a_width_slip(monkeypatch):
    # a packet 0.1% wider smears cos q by e^(-w^2/2) with w^2 0.2% larger: a deviation of 1.0e-7
    smeared = projection.smeared_potential
    monkeypatch.setattr(projection, "smeared_potential", lambda V, width, q: smeared(V, 1.001 * width, q))
    (result,) = acceptance.run_all([15])
    assert not result.passed, result.line
    assert "smearing dev 1.00e-07" in result.line


@pytest.mark.parametrize("pair", [(7, 8), (10, 11)], ids=["detector_run", "radiating_chain"])
def test_shared_inputs_give_the_lines_of_each_criterion_alone(pair):
    alone = [acceptance.run_all([i])[0].line for i in pair]
    assert [r.line for r in acceptance.run_all(list(pair))] == alone


def test_criteria_07_and_08_share_one_free_pass(calls):
    passes = calls(detector.DetectorRun, "free_series_multi", lambda run, bs: (run.cfg.dt, run.cfg.T))
    acceptance.run_all([7, 8])
    # the default run's pass once; criterion 08's fine grid (dt = 0.004, T = 20) has its own
    assert sorted(passes) == [(0.004, 20.0), (0.02, 200.0)]


@pytest.mark.parametrize("attr,last", [("detector_run", 8), ("radiating_chain", 11)])
def test_shared_input_is_gone_before_the_next_criterion(monkeypatch, attr, last):
    # the input's weakref is dead when the criterion after its last user starts
    refs = []
    criteria = list(acceptance.CRITERIA)
    last_user = criteria[last - 1]

    def tracked(shared):
        refs.append(weakref.ref(getattr(shared, attr)))
        return last_user(shared)

    def probe(shared):
        return "probe", refs[0]() is None and attr not in vars(shared), ""

    criteria[last - 1], criteria[last] = tracked, probe
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    results = acceptance.run_all([last - 1, last, last + 1])
    assert [r.passed for r in results] == [True, True, True], [r.line for r in results]
