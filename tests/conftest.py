"""Hypothesis settings profiles for the suite.

``derandomized`` is the default: every run draws the same examples and reads
no example database, so a result depends on the code alone.  ``fresh``
draws new examples on each run; pass it with a seed, as CI does, to make a
failure reproducible::

    pytest --hypothesis-profile=fresh --hypothesis-seed=12345 tests/test_cli.py

Hypothesis's pytest plugin imports ``hypothesis.extra._patching`` when a test
fails, and that module's ``libcst`` import warns with a ``DeprecationWarning``.
Under ``-W error`` the warning would end the run in an INTERNALERROR that
hides the falsifying example, so the module is imported here once with that
warning ignored.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

pytest_plugins = ["pytester"]

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("fresh", derandomize=False, database=None, print_blob=True)
settings.load_profile("derandomized")
