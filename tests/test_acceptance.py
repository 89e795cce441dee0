"""Acceptance gate: every numbered criterion must pass at its stated tolerance."""

import numpy as np
import pytest

from chainlab import acceptance, specfun, xychain

_NUMBERS = range(1, len(acceptance.CRITERIA) + 1)


@pytest.mark.parametrize("number", _NUMBERS, ids=[f"criterion_{i:02d}" for i in _NUMBERS])
def test_criterion(number):
    (result,) = acceptance.run_all([number])
    print(result.line)
    assert result.number == number
    # a Python bool, as json.dumps needs: a numpy bool it rejects
    assert type(result.passed) is bool
    assert result.passed, f"criterion {number}: {result.name} -- {result.detail}"


def test_bessel_criteria_catch_a_stretched_table(monkeypatch):
    # the table at x (1 + 1e-6) still meets J_0^2 + 2 sum_k J_k^2 = 1, which the recurrence
    # normalizes by; only the independent integral route sees the error
    def stretched(n_max, x):
        return specfun.bessel_table(n_max, np.asarray(x, dtype=float) * (1.0 + 1e-6))

    monkeypatch.setattr(acceptance, "bessel_table", stretched)
    monkeypatch.setattr(xychain, "bessel_table", stretched)
    results = acceptance.run_all([4, 5])
    assert [r.passed for r in results] == [False, False], [r.line for r in results]
