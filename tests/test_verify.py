"""Tests for the randomized verification suites in steprates.verify."""
from __future__ import annotations

import dataclasses
import math

from steprates import verify
from steprates.plbounds import NumericFailure, bound_const, simulate_pl_recursion
from steprates.verify import bounds_suite, chung_suite


def test_chung_suite_fails_a_nan_closed_form(monkeypatch):
    monkeypatch.setattr(verify, "classical_bound", lambda params, a0, k: math.nan)
    checks = {c.check: c for c in chung_suite(30, 1).checks}
    for name in ("closed-form-dominates-general", "classical-general-consistency"):
        assert not checks[name].passed, name
        assert math.isnan(checks[name].margin)
        assert (checks[name].witness_index, checks[name].witness_value) == (None, None)
    assert checks["general-bound-dominates-iterates"].passed


def test_chung_suite_margins_are_slacks():
    checks = chung_suite(30, 1).checks
    assert [c.check for c in checks] == [
        "example2-tightness",
        "general-bound-dominates-iterates",
        "closed-form-dominates-general",
        "classical-general-consistency",
        "extension-propagation",
        "forgetting-dominates-general",
    ]
    assert all(c.passed for c in checks)
    # tightness and consistency read minus a gap; the others may exceed 0
    assert -1e-12 <= checks[0].margin <= 0.0
    assert -1e-10 <= checks[3].margin <= 0.0
    assert all(c.margin >= -1e-10 for c in checks)


def test_bounds_suite_resamples_a_failed_simulation(monkeypatch):
    calls = []

    def every_other_fails(*args):
        calls.append(args)
        if len(calls) % 2:
            raise NumericFailure("trajectory overflows at step 1", index=1)
        return simulate_pl_recursion(*args)

    monkeypatch.setattr(verify, "simulate_pl_recursion", every_other_fails)
    # a constant-step draw always has a bound, so every resample is a failed simulation
    report = bounds_suite(4, seed=5, family="const")
    assert report.passed
    assert report.counts == {"dominated": "4/4", "resampled": 4}
    assert len(calls) == 8


def test_bounds_suite_witness_is_the_first_failing_draw(monkeypatch):
    horizons = []

    def lowered(mc, schedule, y0, K):
        # draw i reads i below its bound: draw 1 fails first, draw 2 fails worst
        result = bound_const(mc, schedule, y0, K)
        horizons.append(K)
        return dataclasses.replace(result, value=result.value - (len(horizons) - 1))

    monkeypatch.setattr(verify, "bound_const", lowered)
    report = bounds_suite(3, seed=5, method="sgd", family="const")
    (check,) = report.checks
    assert not check.passed
    assert report.counts["dominated"] == "1/3"
    assert check.witness_index == f"method=sgd schedule=Constant K={horizons[1]}"
    assert check.margin < check.witness_value < 0.0


def test_bounds_suite_fails_when_its_draws_run_out(monkeypatch):
    monkeypatch.setattr(verify, "_draw_bound_case", lambda *args: None)
    report = bounds_suite(2, seed=5)
    (check,) = report.checks
    assert not check.passed
    assert math.isnan(check.margin)
    assert check.witness_index is None
    assert report.counts == {"dominated": "0/0", "resampled": 100}
