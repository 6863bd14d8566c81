"""Hypothesis profiles for the property tests.

The default profile is derandomized: every run draws the same examples,
so a failure reproduces. The "randomized" profile draws new examples
from --hypothesis-seed, for a wider search at a few fixed seeds:

    python -m pytest tests/test_*_properties.py --hypothesis-profile=randomized --hypothesis-seed=1
"""
try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    settings.register_profile("default", derandomize=True)
    settings.register_profile("randomized", derandomize=False)
