"""Tests for the randomized verification suites in steprates.verify."""
from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from steprates import plbounds, verify
from steprates.plbounds import (
    NumericFailure,
    bound_const,
    offset_admissible,
    sgd_constants,
    simulate_pl_finals,
    simulate_pl_lanes,
    simulate_pl_recursion,
    smallest_offset,
)
from steprates.recursions import classical_lambda, classical_spec, find_lambda_constant
from steprates.schedules import Constant, Polynomial
from steprates.verify import (
    CheckResult,
    WorstMargin,
    assumptions_suite,
    bounds_suite,
    chung_suite,
    draw_classical_params,
    recursion_convexity,
)


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
        "ratio-convex",
    ]
    assert all(c.passed for c in checks)
    # tightness and consistency read minus a gap; the others may exceed 0
    assert -1e-12 <= checks[0].margin <= 0.0
    assert -1e-10 <= checks[3].margin <= 0.0
    assert all(c.margin >= -1e-10 for c in checks)


def test_chung_suite_folds_each_spec_convexity_in_as_one_item(monkeypatch):
    seen = []

    def concave_later_draws(spec):
        seen.append(spec)
        if len(seen) in (2, 3):  # draw 1's and draw 2's specs
            return CheckResult("ratio-convex", False, -len(seen), "x=1", float(len(seen)))
        return CheckResult("ratio-convex", True, 1e-3)

    monkeypatch.setattr(verify, "recursion_convexity", concave_later_draws)
    report = chung_suite(30, 1)
    # three draws, one spec each: the direct form stands for the integral one
    assert [spec.s.label for spec in seen] == ["x^nu/c"] * 3
    check = report.checks[-1]
    assert (check.check, check.passed, check.margin) == ("ratio-convex", False, -3.0)
    assert (check.witness_index, check.witness_value) == ("draw 1", 2.0)


def test_chung_suite_stops_at_a_draw_its_lambda_does_not_cover(monkeypatch):
    def one_step_short(spec, lambda_target=None):
        cert = find_lambda_constant(spec, lambda_target)
        if lambda_target is None:
            return cert
        return dataclasses.replace(cert, certified_horizon=spec.horizon - 1)

    monkeypatch.setattr(verify, "find_lambda_constant", one_step_short)
    report = chung_suite(30, 1)
    assert not report.passed
    assert [c.check for c in report.checks] == ["example2-tightness", "classical-lambda-feasible"]
    check = report.checks[-1]
    assert not check.passed and check.witness_index == "draw 0"


def test_chung_decay_forms_share_certificate_and_convexity():
    """The direct and integral-decay forms share b, t and the ratio, so the
    suite's one certificate and convexity check per draw stand for both."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        params = draw_classical_params(rng, rng.uniform() < 0.3)
        horizon = int(rng.integers(4, 80))
        lam = classical_lambda(params)
        direct, integral = (
            classical_spec(params, horizon, decay=decay) for decay in ("direct", "integral")
        )
        assert find_lambda_constant(direct, lam) == find_lambda_constant(integral, lam)
        assert recursion_convexity(direct) == recursion_convexity(integral)


@pytest.mark.parametrize("suite", [chung_suite, bounds_suite, assumptions_suite])
@pytest.mark.parametrize("draws", [0, -3])
def test_suites_reject_fewer_than_one_draw(suite, draws):
    with pytest.raises(ValueError, match=f"^draws must be a positive integer, got {draws}$"):
        suite(draws, 0)


def test_case_d_draw_and_its_bound_search_the_offset_once(monkeypatch):
    tests = []

    def counted(*args):
        tests.append(args)
        return offset_admissible(*args)

    monkeypatch.setattr(plbounds, "offset_admissible", counted)
    plbounds._offset_search.cache_clear()  # the memo behind smallest_offset
    rng = np.random.default_rng(3)
    drawn = None
    while drawn is None:
        drawn = verify._draw_bound_case(rng, verify._draw_method(rng, "sgd"), "poly", "d")
    searched = len(tests)
    assert searched > 2
    evaluate = drawn[2]
    evaluate(0.25)
    # the bound tests its own gamma once and takes the offset from the draw's search
    assert len(tests) == searched + 1
    assert plbounds._offset_search.cache_info().hits == 1


def test_case_d_draw_falls_back_to_the_smallest_offset(monkeypatch):
    # a drawn offset that fails the offset test gives way to smallest_offset's
    monkeypatch.setattr(verify, "offset_admissible", lambda *args: False)
    rng = np.random.default_rng(3)
    drawn = None
    while drawn is None:
        mc = verify._draw_method(rng, "sgd")
        drawn = verify._draw_bound_case(rng, mc, "poly", "d")
    schedule, K, _ = drawn
    assert schedule.gamma == smallest_offset(mc.params, schedule.alpha, K)


@pytest.mark.parametrize(
    "pin, message",
    [
        ({"method": "SGD"}, "unknown method 'SGD'"),
        ({"method": "gd"}, "unknown method 'gd'"),
        ({"family": "exponential"}, "unknown family 'exponential'"),
        ({"family": "poly", "poly_case": "e"}, "unknown poly_case 'e'"),
    ],
)
def test_bounds_suite_rejects_an_unknown_pin_before_drawing(pin, message, monkeypatch):
    """An unknown method ran random reshuffling, an unknown family drew
    polynomials, and an unknown case resampled every attempt."""
    monkeypatch.setattr(verify, "keyed_generators", None)  # drawing would raise TypeError
    with pytest.raises(ValueError, match=message):
        bounds_suite(3, 0, **pin)


@pytest.mark.parametrize("family", [None, "const", "exp", "cos"])
def test_bounds_suite_rejects_a_poly_case_without_family_poly(family, monkeypatch):
    """A poly_case pinned with another family was read by no draw, so the
    report was that of the call without the pin."""
    monkeypatch.setattr(verify, "keyed_generators", None)  # drawing would raise TypeError
    with pytest.raises(ValueError, match=f"^poly_case 'a' .* not family {family!r}$"):
        bounds_suite(3, 0, family=family, poly_case="a")


MARGIN = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@pytest.mark.fuzz
@given(st.lists(st.tuples(st.lists(MARGIN, min_size=1, max_size=12), st.floats(0.0, 1.0))))
@example([([0.0, -0.0], 0.0)])  # numpy's min reads -0.0
@example([([-0.0, -0.0, 0.0] + [-0.0] * 6, 0.0)])  # numpy's min reads 0.0
@example([([1.0, math.inf], 0.0), ([-math.inf, math.inf, -0.5], 0.25)])
def test_worst_margin_keeps_a_scan_of_every_item(rows):
    """add, on numpy rows and on their .tolist(), keeps what one scan of all
    items finds: the first least margin with the sign of its zero, NaN if
    any is NaN (an inf/-inf pair is -inf), and the first failing item."""
    items = [(m, floor, r, i) for r, (row, floor) in enumerate(rows) for i, m in enumerate(row)]
    margins = [m for m, _, _, _ in items]
    margin = math.nan if any(map(math.isnan, margins)) else min(margins, default=math.inf)
    failing = [(f"row {r} item {i}", 100.0 * r + i) for m, floor, r, i in items if m < -floor]
    witness = failing[0] if failing else ()
    expected = CheckResult("scan", not failing and margin == margin, margin, *witness)
    for as_list in (False, True):
        worst = WorstMargin("scan", "row {} item {}".format)
        for r, (row, floor) in enumerate(rows):
            row_margins, values = np.array(row), 100.0 * r + np.arange(len(row))
            if as_list:
                row_margins, values = row_margins.tolist(), values.tolist()
            worst.add(row_margins, values, r, floor=floor)
        got = worst.result()
        assert repr(got) == repr(expected)  # repr tells -0.0 from 0.0
        assert got.witness_value is None or type(got.witness_value) is float


def test_bounds_suite_resamples_a_failed_simulation(monkeypatch):
    seen, failing, reruns = [], [], []

    def every_other_flagged(lanes):
        final, smallest, flagged = simulate_pl_lanes(lanes)
        flagged = flagged.copy()
        for i, lane in enumerate(lanes):
            seen.append(lane)
            if len(seen) % 2:
                flagged[i] = True
                failing.append(lane)
        return final, smallest, flagged

    def fails_where_flagged(lanes):
        reruns.extend(lanes)
        if any(lane in failing for lane in lanes):
            raise NumericFailure("trajectory overflows at step 1", index=1)
        return simulate_pl_finals(lanes)

    monkeypatch.setattr(verify, "simulate_pl_lanes", every_other_flagged)
    monkeypatch.setattr(verify, "simulate_pl_finals", fails_where_flagged)
    # a constant-step draw always has a bound, so every resample is a failed simulation
    report = bounds_suite(4, seed=5, family="const")
    assert report.passed
    assert report.counts == {"dominated": "4/4", "resampled": 4}
    assert len(seen) == 8
    # the scalar oracle confirms each flagged lane's failure
    assert [lane for lane in reruns if lane in failing] == failing


def test_bounds_suite_confirms_a_flag_in_scalar(monkeypatch):
    """A lane the batch flags but the scalar recursion runs is evaluated."""

    def first_flagged(lanes):
        final, smallest, flagged = simulate_pl_lanes(lanes)
        flagged = flagged.copy()
        flagged[0] = True
        return final, smallest, flagged

    plain = bounds_suite(40, seed=3)
    monkeypatch.setattr(verify, "simulate_pl_lanes", first_flagged)
    assert bounds_suite(40, seed=3) == plain


@pytest.mark.parametrize(
    "offsets, rerun",
    [
        # the worst slack and one within the screen tolerance of it; not one 1e-9 above
        ([1.0, 0.5, 0.5 + 1e-13, 0.5 + 1e-9, 2.0], [1, 2]),
        # a slack within the tolerance of -floor, and one below it (the worst)
        ([-1e-10 + 1e-13, 3.0, -1.0, 0.5], [0, 2]),
    ],
)
def test_lanes_in_the_confirm_band_are_rerun_in_scalar(monkeypatch, offsets, rerun):
    """Bound values set at y_K + offset * max(1, |y_K|): the lanes that
    decide the margin or a pass are re-run in scalar and report its values;
    the others keep the batch's, within the screen tolerance."""
    mc = sgd_constants(theta=0.75, L=1.0, mu=0.8, A=0.3, sigma=0.7)
    drawn, finals = [], []
    for i, offset in enumerate(offsets):
        schedule, y0, K = Constant(alpha=0.1 + 0.01 * i), 1.0, 50 + i
        y = simulate_pl_recursion(mc.params, schedule, y0, K)[-1]
        value = SimpleNamespace(value=y + offset * max(1.0, abs(y)))
        drawn.append((mc, schedule, y0, K, lambda y0, value=value: value))
        finals.append(y)
    reruns = []

    def counted(lanes):
        reruns.extend(K - 50 for *_, K in lanes)
        return simulate_pl_finals(lanes)

    monkeypatch.setattr(verify, "simulate_pl_finals", counted)
    outcomes = verify._confirmed_slacks(drawn)
    assert sorted(reruns) == rerun
    for i, ((slack, floor), y, lane) in enumerate(zip(outcomes, finals, drawn)):
        exact = (lane[4](1.0).value - y, 1e-10 * max(1.0, abs(y)))
        if i in rerun:
            assert (slack, floor) == exact
        else:
            assert slack == pytest.approx(exact[0], abs=1e-12 * max(1.0, abs(y)))


def test_bounds_suite_report_survives_a_batch_off_by_half_its_tolerance(monkeypatch):
    plain = bounds_suite(200, seed=7)

    def perturbed(lanes):
        final, smallest, flagged = simulate_pl_lanes(lanes)
        return final + 0.5e-12 * np.maximum(1.0, np.abs(final)), smallest, flagged

    monkeypatch.setattr(verify, "simulate_pl_lanes", perturbed)
    assert bounds_suite(200, seed=7) == plain


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


@settings(max_examples=200)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["sgd", "rr"]),
    st.sampled_from(["const", "exp", "cos", "poly"]),
    st.sampled_from([None, "a", "b", "c", "d"]),
)
def test_every_displayed_bound_dominates_the_equality_recursion(seed, method, family, case):
    """On admissible draws, as bounds_suite makes them, the bound is at least
    the worst-case recursion's y_K, less the suite's floor."""
    rng = np.random.default_rng(seed)
    mc = verify._draw_method(rng, method)
    drawn = verify._draw_bound_case(rng, mc, family, case)
    assume(drawn is not None)
    schedule, K, evaluate = drawn
    y0 = float(rng.uniform(0.0, 0.5 if isinstance(schedule, Polynomial) else 1.0))
    y = simulate_pl_recursion(mc.params, schedule, y0, K)[-1]
    assert evaluate(y0).value >= y - 1e-10 * max(1.0, abs(y)), (mc, schedule, K, y0)
