"""Test-wide settings.

Every hypothesis test runs under one profile: the examples are derived
from each test's source (derandomize), nothing is read from or saved to an
example database, no example is timed out, and each test draws a fixed
number of examples.  So a property test runs the same cases on every run
and machine, on a bounded budget.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=200)
settings.load_profile("tier1")
