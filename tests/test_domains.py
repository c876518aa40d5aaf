"""The domain table: each parameter it names is checked by name wherever a
public callable or dataclass of the library takes it.

The callables come from each module's namespace, so a new public name that
takes a declared parameter fails test_every_public_callable_has_a_valid_call
until it is given a call here. Records that a call returns (their numbers
come from a checked call) are listed in RECORDS instead.
"""

import inspect
import math
import re
import warnings

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from steprates import optimizers, plbounds, rates, recursions, schedules, verify
from steprates.domains import DOMAINS, Checked, check
from steprates.optimizers import NoiseModel, make_quadratic
from steprates.plbounds import PLParams, rr_constants, sgd_constants
from steprates.recursions import CertifiedLambda, ClassicalParams, FunctionDescriptor
from steprates.schedules import Constant, Cosine, Exponential, Polynomial

MODULES = (schedules, recursions, plbounds, optimizers, rates, verify)

# results of a call, built from numbers that call checked
RECORDS = {
    "SpecGrid",
    "CertifiedLambda",
    "DerivedConstants",
    "MethodConstants",
    "BoundResult",
    "Problem",
    "Trajectory",
    "RateFit",
    "CheckResult",
    "SuiteReport",
}

SPEC = recursions.RecursionSpec(
    s=FunctionDescriptor(fn=lambda x: 2.0),
    t=FunctionDescriptor(fn=lambda x: 4.0),
    b=float,
    interval=(0.0, 8.0),
    horizon=4,
    ratio=FunctionDescriptor(fn=lambda x: 0.5, derivative=lambda x: 0.0),
)
CERT = CertifiedLambda(1.0, 4, 0.0)
CLASSICAL = ClassicalParams(c=1.0, d=1.0, nu=0.5, q=0.25, gamma=4.0, varsigma=1.0)
PARAMS = PLParams(l1=0.1, l2=1.0, l3=0.1, tau=2.0, theta=0.75)
MC = sgd_constants(theta=0.75, L=1.0, mu=1.0, A=0.5, sigma=1.0)
MC_RR = rr_constants(theta=0.75, L=1.0, mu=1.0, A=0.5, sigma=1.0, N=4)
QUADRATIC = make_quadratic(1.0, 1.0, 1, N=2)
NOISE = NoiseModel("additive_gaussian", sigma=1.0)
STEP = Constant(0.01)
CONSTANTS = dict(theta=0.75, L=1.0, mu=1.0, A=0.5, sigma=1.0)

# a call of each public callable that takes a declared parameter, by keyword
CALLS = {
    "Constant": dict(alpha=0.1),
    "Polynomial": dict(alpha=0.1, gamma=2.0, p=0.5),
    "Exponential": dict(alpha=0.1, beta=2.0, p=1.0, horizon=8),
    "Cosine": dict(alpha=0.1, p=1.0, horizon=8),
    "step_value": dict(schedule=Cosine(0.1, 1.0, 8), k=3),
    "step_values": dict(schedule=Cosine(0.1, 1.0, 8), K=4),
    "step_max": dict(schedule=Cosine(0.1, 1.0, 8), K=4),
    "step_sum": dict(schedule=Cosine(0.1, 1.0, 8), K=4),
    "RecursionSpec": dict(
        s=SPEC.s, t=SPEC.t, b=float, interval=(0.0, 8.0), horizon=4, ratio=SPEC.ratio
    ),
    "ClassicalParams": dict(c=1.0, d=1.0, nu=0.5, q=0.25, gamma=4.0, varsigma=1.0),
    "iterate_recursion_exact": dict(spec=SPEC, a0=1.0, K=2),
    "expansion_bound": dict(spec=SPEC, a0=1.0, K=2),
    "find_lambda_constant": dict(spec=SPEC, lambda_target=1.0),
    "general_bound": dict(spec=SPEC, cert=CERT, a0=1.0, k=1),
    "forgetting_bound": dict(spec=SPEC, cert=CERT, a0=1.0, k=1),
    "extend_bound": dict(spec=SPEC, B=1.0, C=0.5, k0=0, K_certified=0, K=3),
    "forgetting_factor": dict(spec=SPEC, lam=1.0, k=1),
    "classical_bound": dict(params=CLASSICAL, a0=1.0, k=2),
    "classical_spec": dict(params=CLASSICAL, horizon=4),
    "PLParams": dict(l1=0.1, l2=1.0, l3=0.1, tau=2.0, theta=0.75),
    "frak_p": dict(theta=0.75),
    "descent_coefficients": dict(method="sgd", N=2, **CONSTANTS),
    "smoothness_cap": dict(method="sgd", L=1.0),
    "derive_constants": dict(params=PARAMS, delta=1.0),
    "sgd_constants": CONSTANTS,
    "rr_constants": dict(N=4, **CONSTANTS),
    "simulate_pl_recursion": dict(params=PARAMS, schedule=STEP, y0=1.0, K=4),
    "relaxed_recursion_transform": dict(params=PARAMS, delta=1.0, schedule=STEP, K=4),
    "exp_horizon_floor": dict(mc=MC_RR, alpha=0.1, p=1.0, K=64),
    "bound_exp": dict(mc=MC, schedule=Exponential(0.01, 2.0, 1.0, 64), y0=1.0),
    "bound_cos": dict(mc=MC, schedule=Cosine(0.01, 1.0, 64), y0=1.0),
    "bound_const": dict(mc=MC, schedule=STEP, y0=1.0, K=8),
    "offset_admissible": dict(params=PARAMS, alpha=0.1, K=64, gamma=10.0),
    "smallest_offset": dict(params=PARAMS, alpha=0.1, K=64),
    "poly_alpha_floor": dict(params=PARAMS, derived=MC.derived, case="c", p=0.9),
    "poly_gamma_floor": dict(params=PARAMS, derived=MC.derived, case="c", alpha=0.1, p=0.9),
    "bound_poly": dict(constants=MC, schedule=Polynomial(0.01, 2.0, 0.5), y0=1.0, K=8),
    "NoiseModel": dict(kind="additive_gaussian", sigma=1.0, A=0.5),
    "gd_run": dict(problem=QUADRATIC, schedule=STEP, x0=[1.0], K=4),
    "sgd_run": dict(problem=QUADRATIC, noise=NOISE, schedule=STEP, x0=[1.0], K=4, seeds=[1]),
    "rr_run": dict(problem=QUADRATIC, schedule=STEP, x0=[1.0], K=4, seeds=[1]),
    "make_quadratic": dict(mu=1.0, L=1.0, dim=1, N=2, radius=10.0),
    "make_power_family": dict(theta=0.75, c=1.0, radius=2.0),
    "noise_free_bound": dict(theta=0.75, mu=1.0, gap0=1.0, alpha_sum=1.0),
    "rate_exponent_sgd": dict(p=0.5, theta=0.75),
    "rate_exponent_rr": dict(p=0.5, theta=0.75),
    "optimal_p": dict(theta=0.75, method="sgd"),
    "chung_suite": dict(draws=1, seed=0),
    "bounds_suite": dict(draws=1, seed=0),
    "verify_pl": dict(problem=QUADRATIC, sample_count=1, seed=0),
    "verify_variance": dict(problem=QUADRATIC, noise=NOISE, sample_count=1, draws=30, seed=0),
    "assumptions_suite": dict(draws=1, seed=0),
    "tech_inequality_suite": dict(K_max=2, r_grid=(1.0,)),
}


def public_callables():
    """name -> each public callable whose __module__ is its library module."""
    return {
        name: obj
        for module in MODULES
        for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj) and obj.__module__ == module.__name__
    }


def declared(obj) -> list[str]:
    """obj's parameters that the table names ([] for an exception class)."""
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return []
    return [name for name in inspect.signature(obj).parameters if name in DOMAINS]


PUBLIC = public_callables()
CASES = [(name, param) for name, obj in PUBLIC.items() if name in CALLS for param in declared(obj)]
# out of some domain each: a NaN, both infinities, 0.0, -1.0, a bool, a list
LISTED = (math.nan, math.inf, -math.inf, 0.0, -1.0, True, [1.0])


def integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# a call's own, wider domain for a declared name: forgetting_factor takes any
# integer k (each k <= -1 gives the empty product), and extend_bound ends its
# product at any K from k0 = 0 to the spec's horizon, 4
WIDER = {
    ("forgetting_factor", "k"): integer,
    ("extend_bound", "K"): lambda value: integer(value) and 0 <= value <= 4,
}


def outside(name, value, case=None) -> bool:
    """value lies outside name's declared domain, and outside case's own."""
    if case in WIDER and WIDER[case](value):
        return False
    try:
        check(**{name: value})
    except ValueError:
        return True
    return False


def assert_rejected(name, param, value):
    """The call with param = value raises ValueError or TypeError naming
    param, and no warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ValueError, TypeError)) as info:
            PUBLIC[name](**dict(CALLS[name], **{param: value}))
    assert re.search(rf"(?<![\w.]){re.escape(param)}(?!\w)", str(info.value)), (name, param)


def test_every_public_callable_has_a_valid_call():
    """Each public callable that takes a declared parameter has a call
    here, or is a record; so a new public name cannot escape the test."""
    takes = {name for name, obj in PUBLIC.items() if declared(obj)}
    assert takes - RECORDS == set(CALLS)
    for name, call in CALLS.items():
        assert set(call) <= set(inspect.signature(PUBLIC[name]).parameters), name


def test_each_declared_parameter_rejects_each_listed_value():
    rejected = 0
    for name, param in CASES:
        for value in LISTED:
            if outside(param, value, (name, param)):
                assert_rejected(name, param, value)
                rejected += 1
    assert rejected > 5 * len(CASES)


VALUES = st.one_of(
    st.sampled_from(LISTED),
    st.floats(),
    st.integers(-(2**1100), 2**1100),
    st.booleans(),
    st.lists(st.floats(), max_size=2),
    st.text(max_size=2),
    st.none(),
)


# no max_examples: CI fuzzes it under the fuzz profile
@pytest.mark.fuzz
@given(case=st.sampled_from(CASES), value=VALUES)
def test_declared_parameters_reject_values_outside_their_domains(case, value):
    name, param = case
    optional = inspect.signature(PUBLIC[name]).parameters[param].default is None
    assume(outside(param, value, case) and not (value is None and optional))
    assert_rejected(name, param, value)


def test_the_checker_states_each_domain_in_one_message():
    with pytest.raises(ValueError, match=r"^theta must lie in \[1/2, 1\], got 0\.25$"):
        check(alpha=0.1, theta=0.25)
    message = r"^K must be an integer from 1 to the largest float, got 8\.0$"
    with pytest.raises(ValueError, match=message):
        check(K=8.0)
    with pytest.raises(ValueError, match=r"^alpha must be positive and finite, got True$"):
        check(alpha=True)
    with pytest.raises(ValueError, match=r"^gamma must be positive and finite, got \[1\.0\]$"):
        check(gamma=[1.0])
    with pytest.raises(ValueError, match=r"^p must be positive and finite, got 1000"):
        check(p=10**400)  # an int past the floats is not finite
    check(K=10**308, y0=math.inf, lam=math.inf, B=-1.0, k=0, theta=0.5)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: PLParams(True, 1.0, 0.1, 2.0, 0.75), "l1"),  # a bool was the number 1
        (lambda: Constant(10**400), "alpha"),  # an OverflowError
        (lambda: schedules.step_values(STEP, 8.0), "K"),  # a float K was taken
        (lambda: recursions.classical_bound(CLASSICAL, 1.0, 2.5), "k"),  # and a float k
        (lambda: recursions.forgetting_factor(SPEC, 1.0, -math.inf), "k"),  # returned 1.0
        (lambda: plbounds.offset_admissible(PARAMS, 0.1, 64, math.inf), "gamma"),  # False
        (lambda: plbounds.poly_alpha_floor(PARAMS, MC.derived, "b", math.nan), "p"),
        (lambda: plbounds.descent_coefficients("sgd", N=-1, **CONSTANTS), "N"),  # ignored
        (lambda: sgd_constants(**dict(CONSTANTS, mu=math.inf)), "mu"),  # l2 was inf
        (lambda: verify.verify_variance(QUADRATIC, NoiseModel("none"), 1, 0, 0), "draws"),
    ],
)
def test_values_once_taken_outside_their_domains_are_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=rf"(?<!\w){name}(?!\w)"):
        call()


def test_a_dataclass_checks_its_declared_fields_and_may_leave_an_optional_one_none():
    assert ClassicalParams(c=1.0, d=1.0, nu=1.0, q=0.5, gamma=2.0).varsigma is None
    with pytest.raises(ValueError, match="^varsigma must be positive, got nan$"):
        ClassicalParams(c=1.0, d=1.0, nu=1.0, q=0.5, gamma=2.0, varsigma=math.nan)
    with pytest.raises(ValueError, match="^alpha must be positive and finite, got None$"):
        Constant(None)
    checked = {cls for cls in PUBLIC.values() if isinstance(cls, type) and issubclass(cls, Checked)}
    assert checked == {
        Constant,
        Polynomial,
        Exponential,
        Cosine,
        PLParams,
        ClassicalParams,
        NoiseModel,
        recursions.RecursionSpec,
    }
