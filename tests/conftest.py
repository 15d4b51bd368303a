"""Hypothesis settings profiles for the suite.

``derandomized`` is the default: every run draws the same examples and reads
no example database, so a result depends on the code alone.  ``fresh``
draws new examples on each run; pass it with a seed, as CI does, to make a
failure reproducible::

    pytest --hypothesis-profile=fresh --hypothesis-seed=12345 tests/test_cli.py
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("fresh", derandomize=False, database=None, print_blob=True)
settings.load_profile("derandomized")
