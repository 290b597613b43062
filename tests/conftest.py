"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples; no per-example deadline, because a loaded machine
would turn one slow example into a spurious failure; and a modest example
count that keeps the whole suite to seconds.
"""

from hypothesis import settings

settings.register_profile("influx", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("influx")
