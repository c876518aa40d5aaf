"""Suite-wide test settings.

Hypothesis runs under a derandomized profile, so every run of the suite
draws the same examples and a failure reproduces from the test alone.
`pytest --hypothesis-profile default` searches with fresh random examples
instead, and `--hypothesis-profile fuzz` with 20000 fresh examples per test
that sets no max_examples of its own. CI runs it on five property tests:
the %.17g kernel's; the config fields',
test_every_numeric_field_rejects_a_wrong_type and
test_every_numeric_field_ends_in_a_documented_exit in tests/test_cli.py,
which drive every field of every command's config through its parser and
keep their own max_examples; the limit rule's,
test_powers_past_the_floats_end_in_their_limit_or_a_named_error in
tests/test_plbounds.py, which draws extreme floats into the calls that build
constants and specs, into the bound evaluators and their floors, into
offset_admissible and smallest_offset, and into noise_free_bound and
step_sum; and spare-generator reuse's,
test_reusing_spare_generators_changes_no_bit in tests/test_optimizers.py,
which runs sequences of seeded runs with and without spare generators.
"""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.register_profile("fuzz", max_examples=20000, deadline=None, database=None)
settings.load_profile("derandomized")
