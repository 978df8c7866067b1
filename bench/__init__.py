"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

Everything here measures ``src/repro`` from outside, through its public
APIs only.  ``bench/README.md`` is the reference for every name this
package prints; ``BENCHMARK.json`` at the repo root declares them.
"""
