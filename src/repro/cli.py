"""Unified command-line interface: ``python -m repro <subcommand>``.

The one front door::

    python -m repro experiments [E1 E5 ...] [--seed N] [--jobs N] [--cache]
    python -m repro sweep E21 --set n=10,20 --seeds 3 [--jobs N]
    python -m repro fuzz run --trials 50 --seed 7 --jobs 4
    python -m repro fuzz replay fuzz-artifacts/repro-7-3.json
    python -m repro demo udp [--messages N] [--seed N] [--time-scale S]
    python -m repro demo udp-chaos [--messages N] [--seed N] [--time-scale S]

Flags are consistent across subcommands: ``--seed`` overrides the RNG
seed, ``--jobs`` fans work out over the process-pool engine
(:mod:`repro.exec`) with bit-identical results, ``--json`` writes
machine-readable output, ``--markdown`` emits GitHub tables.  Timing
is the repo benchmark's job (``python -m bench``), not this CLI's.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import json
import sys
from typing import Any, Dict, Iterator, List, Optional, Sequence

from .exec import (
    DEFAULT_CACHE_DIR,
    ItemOutcome,
    ResultCache,
    WorkItem,
    derive_seed,
    make_executor,
)
from .experiments.records import ExperimentResult
from .experiments.registry import REGISTRY, get_spec, run_registered


# ----------------------------------------------------------------------
# experiments subcommand
# ----------------------------------------------------------------------


def add_experiments_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids to run (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the per-experiment default seed")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan experiments (or one experiment's grid) "
                             "out over N worker processes")
    parser.add_argument("--cache", action="store_true",
                        help="reuse on-disk results keyed by (experiment, "
                             "params, code fingerprint)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR", help="cache directory "
                        f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--markdown", action="store_true",
                        help="emit GitHub-flavoured markdown tables")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write all results as JSON to PATH")


def run_experiments_command(args: argparse.Namespace) -> int:
    if args.list:
        for exp_id, spec in REGISTRY.items():
            print(f"{exp_id:5s} {spec.title}")
        return 0

    selected = args.experiments or list(REGISTRY)
    unknown = [e for e in selected if e not in REGISTRY]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2
    jobs = max(1, args.jobs)
    cache = ResultCache(args.cache_dir) if args.cache else None

    results: Dict[str, ExperimentResult] = {}
    walls: Dict[str, float] = {}
    cached_ids: List[str] = []
    to_run: List[str] = []
    for exp_id in selected:
        spec = get_spec(exp_id)
        if cache is not None:
            hit, value = cache.get(exp_id, spec.cache_params(seed=args.seed))
            if hit:
                results[exp_id] = value
                cached_ids.append(exp_id)
                continue
        to_run.append(exp_id)

    if jobs > 1 and len(to_run) > 1:
        # Fan whole experiments out; each runs serially in its worker.
        items = [WorkItem(key=(exp_id,), fn=run_registered,
                          kwargs=dict(exp_id=exp_id, seed=args.seed))
                 for exp_id in to_run]
        outcomes = make_executor(jobs).map(items)
        failed: List[ItemOutcome] = []
        for exp_id, outcome in zip(to_run, outcomes):
            if outcome.ok:
                results[exp_id] = outcome.value
                walls[exp_id] = outcome.wall_s
            else:
                failed.append(outcome)
        if failed:
            for outcome in failed:
                assert outcome.failure is not None
                print(f"experiment {outcome.key[0]} failed — "
                      f"{outcome.failure.describe()}", file=sys.stderr)
    else:
        # A single selected experiment still exploits --jobs through
        # its internal grid fan-out (E1/E2/E5/E20/E21 accept it).
        import time

        executor = make_executor(jobs) if jobs > 1 else None
        for exp_id in to_run:
            started = time.time()
            results[exp_id] = get_spec(exp_id).run(seed=args.seed,
                                                   executor=executor)
            walls[exp_id] = time.time() - started

    collected: List[ExperimentResult] = []
    for exp_id in selected:
        result = results.get(exp_id)
        if result is None:
            continue  # failed in a worker; already reported
        if cache is not None and exp_id not in cached_ids:
            cache.put(exp_id, get_spec(exp_id).cache_params(seed=args.seed),
                      result)
        collected.append(result)
        print()
        if args.markdown:
            print(result.render_markdown())
        else:
            print(result.render())
            if exp_id in cached_ids:
                print(f"  [{exp_id} loaded from cache]")
            else:
                print(f"  [{exp_id} finished in {walls[exp_id]:.1f}s wall]")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump([r.as_dict() for r in collected], out, indent=2)
            out.write("\n")
        print(f"\nwrote JSON results to {args.json}", file=sys.stderr)
    return 0 if len(collected) == len(selected) else 1


# ----------------------------------------------------------------------
# sweep subcommand
# ----------------------------------------------------------------------


def _parse_value(token: str) -> Any:
    try:
        return ast.literal_eval(token)
    except (ValueError, SyntaxError):
        return token


def _parse_axis(entry: str) -> "tuple[str, List[Any]]":
    if "=" not in entry:
        raise SystemExit(f"--set expects NAME=V1,V2,... got {entry!r}")
    name, _, raw = entry.partition("=")
    values = [_parse_value(token) for token in raw.split(",") if token != ""]
    if not values:
        raise SystemExit(f"--set {name}= needs at least one value")
    return name.strip(), values


def grid(**axes: Sequence[Any]) -> Iterator[Dict[str, Any]]:
    """Cartesian product over named axes, in deterministic order.

    >>> list(grid(a=[1, 2], b=["x"]))
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    if not axes:
        return
    names = sorted(axes)
    for values in itertools.product(*(axes[name] for name in names)):
        yield dict(zip(names, values))


def add_sweep_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment", help="experiment id to sweep (e.g. E21)")
    parser.add_argument("--set", action="append", dest="axes", default=[],
                        metavar="NAME=V1,V2,...",
                        help="sweep axis over a runner parameter (repeatable)")
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="seed replicas per grid point, derived "
                             "deterministically from --seed (default 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed (default: the runner's default)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the grid fan-out")
    parser.add_argument("--markdown", action="store_true",
                        help="emit a GitHub-flavoured markdown table")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the merged result as JSON to PATH")


def run_sweep_command(args: argparse.Namespace) -> int:
    try:
        spec = get_spec(args.experiment)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    axes: Dict[str, List[Any]] = {}
    for entry in args.axes:
        name, values = _parse_axis(entry)
        if name not in spec.defaults:
            print(f"{spec.id} has no parameter {name!r}; available: "
                  f"{', '.join(spec.defaults)}", file=sys.stderr)
            return 2
        axes[name] = values

    base_seed = args.seed if args.seed is not None else spec.default_seed
    if args.seeds > 1 and base_seed is None:
        print("--seeds needs a --seed (runner has no integer default)",
              file=sys.stderr)
        return 2
    seeds: List[Optional[int]] = [base_seed]
    if args.seeds > 1:
        assert base_seed is not None
        seeds = [derive_seed(base_seed, spec.id, "replica", i)
                 for i in range(args.seeds)]

    points = list(grid(**axes)) or [{}]
    items = [
        WorkItem(key=(spec.id,) + tuple(sorted(point.items())) + (seed,),
                 fn=run_registered,
                 kwargs=dict(exp_id=spec.id, seed=seed, **point))
        for point in points for seed in seeds
    ]
    outcomes = make_executor(max(1, args.jobs)).map(items)

    axis_names = sorted(axes)
    merged: Optional[ExperimentResult] = None
    failures: List[ItemOutcome] = []
    for item, outcome in zip(items, outcomes):
        if not outcome.ok:
            failures.append(outcome)
            continue
        sub: ExperimentResult = outcome.value
        if merged is None:
            merged = ExperimentResult(
                f"{spec.id}-sweep",
                f"{spec.title} — sweep over {axis_names or ['seed']}",
                axis_names + ["seed"] + [c for c in sub.columns
                                         if c not in axis_names])
        point = dict(item.kwargs)
        point.pop("exp_id", None)
        used_seed = point.pop("seed", None)
        for row in sub.rows:
            cells = {**point, "seed": used_seed if used_seed is not None
                     else "-", **row}
            for column in merged.columns:
                cells.setdefault(column, "-")
            merged.add_row(**cells)
    for outcome in failures:
        assert outcome.failure is not None
        print(f"sweep point {outcome.key!r} failed — "
              f"{outcome.failure.describe()}", file=sys.stderr)
    if merged is None:
        print("every sweep point failed", file=sys.stderr)
        return 1
    print()
    print(merged.render_markdown() if args.markdown else merged.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump(merged.as_dict(), out, indent=2)
            out.write("\n")
        print(f"\nwrote JSON results to {args.json}", file=sys.stderr)
    return 0 if not failures else 1


# ----------------------------------------------------------------------
# demo subcommand
# ----------------------------------------------------------------------


def add_demo_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("what", choices=["udp", "udp-chaos"],
                        help="udp: run the seed-matched scenario once in-sim "
                             "and once over localhost UDP sockets, then "
                             "compare per-host delivered seqno sets; "
                             "udp-chaos: same, with an identical seeded "
                             "ChaosSpec (host crash + packet loss/corruption) "
                             "injected on both backends and the invariant "
                             "monitor asserting zero stable violations")
    parser.add_argument("--messages", type=int, default=None, metavar="N",
                        help="broadcasts to deliver on each backend "
                             "(default 5, or 8 for udp-chaos)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed shared by both backends (default 7)")
    parser.add_argument("--time-scale", type=float, default=0.05,
                        metavar="S", help="wall seconds per protocol second "
                        "on the UDP side; 0.05 runs the paper's multi-second "
                        "timers 20x faster than real time (default 0.05)")


def run_demo_command(args: argparse.Namespace) -> int:
    if args.what == "udp-chaos":
        from .io.crosscheck import demo_udp_chaos

        chaos_result = demo_udp_chaos(
            messages=args.messages if args.messages is not None else 8,
            time_scale=args.time_scale, seed=args.seed)
        return 0 if chaos_result.ok else 1
    from .io.crosscheck import demo_udp

    result = demo_udp(
        messages=args.messages if args.messages is not None else 5,
        time_scale=args.time_scale, seed=args.seed)
    return 0 if result.match else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reliable-broadcast reproduction: experiments, "
                    "parameter sweeps, the UDP demo and the chaos fuzzer "
                    "under one CLI.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiments = subparsers.add_parser(
        "experiments", help="run paper experiments and print their tables",
        description="Run the E-series experiments (see --list).")
    add_experiments_args(experiments)
    experiments.set_defaults(func=run_experiments_command)

    sweep = subparsers.add_parser(
        "sweep", help="sweep one experiment over parameter axes and seeds",
        description="Fan one experiment out over a parameter grid and/or "
                    "derived seed replicas, merging rows into one table.")
    add_sweep_args(sweep)
    sweep.set_defaults(func=run_sweep_command)

    demo = subparsers.add_parser(
        "demo", help="run the sans-IO core over real UDP sockets",
        description="Deploy the unchanged protocol machines over localhost "
                    "UDP and cross-check delivered seqno sets against the "
                    "seed-matched discrete-event run (exit 0 on parity).")
    add_demo_args(demo)
    demo.set_defaults(func=run_demo_command)

    from .fuzz.cli import add_fuzz_args, run_fuzz_command

    fuzz = subparsers.add_parser(
        "fuzz", help="fuzz the fault space; shrink and replay failures",
        description="Seed-deterministic chaos fuzzing: random fault "
                    "schedules, delta-debugged minimal repros, and "
                    "byte-identical artifact replay.")
    add_fuzz_args(fuzz)
    fuzz.set_defaults(func=run_fuzz_command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
