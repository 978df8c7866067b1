"""Small, tier-1-sized E24 run: adversarial hosts and containment.

Two personas at k <= 1 on an 8-message stream, against the E24 verdict
that ``test_verdicts.py`` checks on the full sweep: the k=0 baselines
are perfect, an interior data black hole starves its correct subtree
under the tree protocol while every structural invariant still holds,
and leaf placements and the baselines are harmless.  The sweep is also
deterministic.
"""

import functools

from repro.experiments import get_spec, run_e24_adversary_containment

PERSONAS = ("selective_forward", "stale_info")


def _run():
    return run_e24_adversary_containment(
        n=8, ks=(0, 1), personas=PERSONAS, horizon=60.0)


_small = functools.lru_cache(maxsize=None)(_run)


def test_e24_small_placement_decides_the_outcome():
    result = _small()
    # 3 protocols x (k=0 baseline + 2 personas x 2 placements)
    assert len(result.rows) == 3 * (1 + len(PERSONAS) * 2)
    verdict = get_spec("E24").verdict(result)
    assert verdict.ok, verdict.render()


def test_e24_small_is_deterministic_and_registered():
    assert _run().rows == _small().rows
    assert get_spec("E24").runner is run_e24_adversary_containment
