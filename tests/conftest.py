"""Hypothesis profiles: ``default`` keeps today's per-test example
counts; ``nightly`` (``HYPOTHESIS_PROFILE=nightly``) runs 20k examples
for every property test that does not pin its own count."""

import os

try:
    from hypothesis import settings
except ImportError:         # property tests are skipped without it
    settings = None

if settings is not None:
    settings.register_profile("default", settings.get_profile("default"))
    settings.register_profile("nightly", max_examples=20_000)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
