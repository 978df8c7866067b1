"""Small, tier-1-sized E25 run: saturation verdicts and the shedding flip.

The default sweep covers four protocols x shapes x utilizations and is
checked by its verdict in ``test_verdicts.py``; the fast suite (and
the CI saturation smoke leg) runs the tree with and without shedding
at 0.4x and 3x capacity against the same verdict: past saturation the
unbounded tree *collapses* while the same protocol with bounded
resources, shedding, and admission control comes back
(*degraded_recovering*), and below saturation shedding changes
nothing.  Latency percentiles are ordered, and the sweep is
deterministic.
"""

import functools
import math

from repro.experiments import get_spec, run_e25_saturation

POINTS = dict(shapes=("poisson",), utilizations=(0.4, 3.0),
              protocols=("tree", "tree+shed"))


def _run():
    return run_e25_saturation(**POINTS)


_small = functools.lru_cache(maxsize=None)(_run)


def test_e25_small_shedding_flips_collapse_to_recovery():
    result = _small()
    # 2 protocols x 1 shape x 2 utilizations, plus the churn point.
    assert len(result.rows) == 5
    verdict = get_spec("E25").verdict(result)
    assert verdict.ok, verdict.render()


def test_e25_small_percentiles_are_ordered():
    for row in _small().rows:
        p50, p99, p999 = row["p50_s"], row["p99_s"], row["p999_s"]
        if not math.isnan(p50):
            assert p50 <= p99 <= p999


def test_e25_small_is_deterministic_and_registered():
    assert _run().rows == _small().rows
    assert get_spec("E25").runner is run_e25_saturation
