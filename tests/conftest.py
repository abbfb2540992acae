"""Hypothesis profiles for the suite.

``--hypothesis-profile=ci`` draws the same examples on every run and keeps no
example database, so a green run means the same inputs passed every time.
Without the flag Hypothesis keeps its default profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
