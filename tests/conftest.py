"""Suite-wide test settings.

Hypothesis runs under a derandomized profile, so every run of the suite
draws the same examples and a failure reproduces from the test alone.
`pytest --hypothesis-profile default` searches with fresh random examples
instead, and `--hypothesis-profile fuzz` with 20000 fresh examples per test
that sets no max_examples of its own. CI runs the tests marked `fuzz`
under that profile: `pytest -m fuzz --hypothesis-profile fuzz`.
"""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.register_profile("fuzz", max_examples=20000, deadline=None, database=None)
settings.load_profile("derandomized")
