"""Small, tier-1-sized E21 run: adversarial timing, fixed vs adaptive.

The default sweep (six points, ``n=30``) is checked by its verdict in
``test_verdicts.py``; this runs two points at ``n=15`` against the same
verdict, so the adaptive control plane's core claims — never worse
delivery, recovery measured everywhere, measurable hardening activity
under attack — are checked off the default table too.
"""

from repro.experiments import get_spec, run_e21_adversarial_timing

SMALL_POINTS = (
    ("clean", 0.00, 0.00, 0.0, 0.0, 0.00),
    ("harsh", 0.15, 0.10, 0.3, 0.8, 0.05),
)


def test_e21_small_adaptive_never_worse():
    result = run_e21_adversarial_timing(n=15, measure_at=50.0,
                                        horizon=300.0, points=SMALL_POINTS)
    assert len(result.rows) == 4
    verdict = get_spec("E21").verdict(result)
    # The faster-recovery claim holds at the default n=30 only: at n=15
    # the adaptive plane recovers slower at the harsh point (8.7 s
    # against the fixed plane's 5.7 s).
    assert all(claim.held for claim in verdict.claims
               if "harshest" not in claim.text), verdict.render()
