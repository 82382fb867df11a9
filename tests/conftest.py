"""Hypothesis profiles: the ci profile, loaded unless HYPOTHESIS_PROFILE names
another (such as default, which draws new examples), replays the same
examples on every run.

Every test starts from cold block caches, so none passes or fails because of
what an earlier test left cached.
"""
import os

import pytest
from hypothesis import settings

from hotgate import gate, stirap

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(autouse=True)
def cold_block_caches():
    stirap.passage_blocks.cache_clear()
    gate._gate_blocks.cache_clear()
