"""One domain per named number of the library, and the one check that reads it.

The paper's results hold on stated domains: theta in [1/2, 1] for the
(theta, mu)-PL condition, positive alpha, gamma, p and beta for the step
rules, horizons K >= 1. DOMAINS maps each parameter name to its domain, and
check raises ValueError(f"{name} must {domain}, got {value!r}") for a value
outside it. A bool is no number here, and a value that does not compare with
a float (a list, a string, None) lies outside every domain. Checked gives a
dataclass the check of each field that DOMAINS names, at construction; a
field whose default is None may be None. Checks that relate two values
(mu <= L, beta < horizon), overflow guards, and a narrower second domain
that one function needs (theta < 1 for the power family, p <= 1 for the
rate maps) stay with that function, and say what it needs.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
from itertools import repeat
from numbers import Integral
from typing import Callable, Iterable, NamedTuple


class Domain(NamedTuple):
    """A test of a value and the words that complete "{name} must ..."."""

    test: Callable[[object], bool]
    text: str


def _integer(v) -> bool:
    """v is an integer; int first, as the Integral test of an int is slow."""
    return isinstance(v, int) or isinstance(v, Integral)


# finite: at most the largest float, which also keeps out an int past the floats
_MAX = sys.float_info.max
POSITIVE = Domain(lambda v: v > 0.0, "be positive")
POSITIVE_FINITE = Domain(lambda v: 0.0 < v <= _MAX, "be positive and finite")
NONNEGATIVE = Domain(lambda v: v >= 0.0, "be nonnegative")
NONNEGATIVE_FINITE = Domain(lambda v: 0.0 <= v <= _MAX, "be nonnegative and finite")
FINITE = Domain(lambda v: -_MAX <= v <= _MAX, "be finite")
# a count or horizon enters float arithmetic, so it must not pass the floats
COUNT = Domain(
    lambda v: _integer(v) and 1 <= v <= _MAX, "be an integer from 1 to the largest float"
)
POSITIVE_INTEGER = Domain(lambda v: _integer(v) and v >= 1, "be a positive integer")
INDEX = Domain(lambda v: _integer(v) and v >= 0, "be a nonnegative integer")

# y0 = inf is a start that the recursion's walk reports as a NumericFailure
# at step 0; an infinite a0, B or C would meet a product of 0.0 and give NaN
DOMAINS: dict[str, Domain] = {
    **dict.fromkeys(("alpha", "gamma", "p", "beta", "L", "mu", "c", "d", "q"), POSITIVE_FINITE),
    **dict.fromkeys(("horizon", "K", "N"), COUNT),
    **dict.fromkeys(("k", "k0", "K_certified"), INDEX),
    **dict.fromkeys(("dim", "draws", "sample_count"), POSITIVE_INTEGER),
    **dict.fromkeys(("l2", "delta", "lam", "lambda_target", "varsigma", "radius"), POSITIVE),
    **dict.fromkeys(("l1", "l3", "y0", "gap0", "alpha_sum"), NONNEGATIVE),
    **dict.fromkeys(("A", "sigma", "a0"), NONNEGATIVE_FINITE),
    **dict.fromkeys(("B", "C"), FINITE),
    "theta": Domain(lambda v: 0.5 <= v <= 1.0, "lie in [1/2, 1]"),
    "tau": Domain(lambda v: 1.0 < v <= _MAX, "be finite and exceed 1"),
    "nu": Domain(lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "K_max": Domain(lambda v: _integer(v) and v >= 2, "be an integer of at least 2"),
}


def check(**values) -> None:
    """Raise ValueError naming the first of values outside its name's domain."""
    _check(values.items())


def _check(pairs: Iterable[tuple[str, object]]) -> None:
    for name, value in pairs:
        test, text = DOMAINS[name]
        try:
            if value.__class__ is not bool and test(value):
                continue
        except (TypeError, ValueError):  # no order with floats, or an array's truth
            pass
        raise ValueError(f"{name} must {text}, got {value!r}")


@functools.cache
def _checked_fields(cls: type) -> tuple[tuple[str, ...], frozenset[str]]:
    """cls's fields that DOMAINS names, and those of them whose default is None."""
    fields = [f for f in dataclasses.fields(cls) if f.name in DOMAINS]
    return tuple(f.name for f in fields), frozenset(f.name for f in fields if f.default is None)


class Checked:
    """A dataclass base that checks its fields at construction; a subclass
    with checks of its own runs them after super().__post_init__()."""

    __slots__ = ()

    def __post_init__(self) -> None:
        names, optional = _checked_fields(type(self))
        pairs = zip(names, map(getattr, repeat(self), names))
        if optional:
            pairs = [(n, v) for n, v in pairs if v is not None or n not in optional]
        _check(pairs)
