"""Shared test settings.

With the CI environment variable set, hypothesis runs the `ci` profile:
derandomized examples without a per-example deadline, so a CI run is
reproducible.  Local runs keep hypothesis's random exploration.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
