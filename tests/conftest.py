"""Hypothesis profiles for the property tests.

The default profile is derandomized: every run draws the same examples,
so a failure reproduces. The "randomized" profile draws new examples
from --hypothesis-seed, for a wider search at a few fixed seeds:

    python -m pytest tests/test_*_properties.py --hypothesis-profile=randomized --hypothesis-seed=1

Neither runs Hypothesis's explain phase. Once an example fails, that
phase traces every shrink step (sys.settrace before Python 3.12) and
keeps the branches of each one. A failing property of this suite then
shrank for minutes and grew past a gigabyte. The examples drawn, and the
shrinking itself, do not depend on it: only the failure report's list
of lines the failing examples took is gone.

The "mutants" profile draws the default profile's examples, but a
failure is reported as found, without shrinking. Like every
derandomized profile it reads and writes no example database, so each
run of a mutation check is independent of the last:

    python -m pytest tests/test_odesolve_properties.py --hypothesis-profile=mutants
"""
import warnings

import pytest

try:
    from hypothesis import Phase, settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    unexplained = [phase for phase in Phase if phase is not Phase.explain]
    settings.register_profile("default", derandomize=True, phases=unexplained)
    settings.register_profile("randomized", derandomize=False, phases=unexplained)
    unshrunk = [phase for phase in unexplained if phase is not Phase.shrink]
    settings.register_profile("mutants", derandomize=True, phases=unshrunk)


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # Hypothesis's report hook imports hypothesis.extra._patching when a
    # property fails; where libcst is installed, that import warns that
    # mypy_extensions.TypedDict is deprecated, and under -W error the
    # warning ends the session with INTERNALERROR. Only that message is
    # ignored, and only while reports are made: a warning a test raises
    # is raised in its call, before this hook
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=r"mypy_extensions\.TypedDict is deprecated", category=DeprecationWarning)
        yield
