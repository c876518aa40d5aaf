"""Suite-wide test settings.

Hypothesis runs under a derandomized profile, so every run of the suite
draws the same examples and a failure reproduces from the test alone.
`pytest --hypothesis-profile default` searches with fresh random examples
instead.
"""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")
