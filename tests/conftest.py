"""Test-suite configuration.

Hypothesis runs with a fixed profile: no per-example deadline (the
discrete simulations have legitimately variable step costs) and
deterministic derandomized generation so CI failures reproduce locally.
"""

import pytest
from hypothesis import settings

settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def built_report():
    """``name -> blocks`` of a report, built at most once per session:
    the render test and the claims tests read the same rows."""
    from repro.analysis.reports import REPORTS

    cache = {}

    def build(name):
        if name not in cache:
            cache[name] = REPORTS[name]()
        return cache[name]

    return build
