"""Shared test settings.

With the CI environment variable set, hypothesis runs the `ci` profile:
derandomized examples without a per-example deadline, so a CI run is
reproducible.  Local runs keep hypothesis's random exploration.

`polyring.decide_identity` caches one verdict per identity row for the
whole process.  Its cache is emptied around every test, so a test that
patches what a row's sides read (`lemma._slices`,
`antitelescope._SPLITS`, `proposal._H_ADDENDS`) decides the patched
row afresh and leaves no verdict behind for the next test.
"""

import os

import pytest
from hypothesis import settings

from qdominance.polyring import decide_identity

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(autouse=True)
def fresh_identity_verdicts():
    decide_identity.cache_clear()
    yield
    decide_identity.cache_clear()
