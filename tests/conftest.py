"""Test-wide settings and shared fixtures."""

import random

import pytest
from hypothesis import settings

from support import random_process

# Property tests draw the same examples on every run, with no per-example
# deadline, so a slow or busy machine cannot turn them flaky.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=80, database=None
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def instance_batch():
    """The acceptance batch: 1000 random processes, 100 of each single kind."""
    rng = random.Random(20240)
    batch = [random_process(rng) for _ in range(700)]
    for kind in ("prec", "resp", "succ"):
        batch.extend(random_process(rng, kinds=(kind,)) for _ in range(100))
    assert len(batch) == 1000
    return batch
