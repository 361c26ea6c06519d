"""Shared test settings.

Hypothesis runs derandomized (each property test draws the same examples on
every run), with no per-example deadline, and with a bounded number of
examples so the suite keeps its running time.
"""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("suite")
