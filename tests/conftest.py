"""Test-wide settings."""

from hypothesis import settings

# Property tests draw the same examples on every run, with no per-example
# deadline, so a slow or busy machine cannot turn them flaky.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=80, database=None
)
settings.load_profile("deterministic")
