"""Suite-wide test settings.

Hypothesis runs under a derandomized profile, so every run of the suite
draws the same examples and a failure reproduces from the test alone.
`pytest --hypothesis-profile default` searches with fresh random examples
instead, and `--hypothesis-profile fuzz` with 20000 fresh examples per test
that sets no max_examples of its own. CI runs it on the %.17g kernel's
property test and on the limit rule's,
test_powers_past_the_floats_end_in_their_limit_or_a_named_error in
tests/test_plbounds.py, which draws extreme floats into the calls that build
constants and specs and into the bound evaluators and their floors.
"""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.register_profile("fuzz", max_examples=20000, deadline=None, database=None)
settings.load_profile("derandomized")
