"""Tier-1 is deterministic: every property test replays the same
examples on every run (no example database, no fresh draws).  A test
that wants open-ended exploration opts out with its own ``settings``
(see ``tests/integration/test_chaos_properties.py``)."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
