"""Tier-1 is deterministic: every property test replays the same
examples on every run (no example database, no fresh draws).  A test
that wants open-ended exploration opts out with its own ``settings``
(see ``tests/integration/test_chaos_properties.py``).

The ``deep`` profile is the opposite: many fresh examples per property
and no example database, for the non-blocking CI fuzz of the frame
codec (``pytest ... --hypothesis-profile=deep``, which overrides the
profile loaded here)."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("deep", max_examples=3000, derandomize=False,
                          database=None)
settings.load_profile("tier1")
