"""Where the time of a long series goes: its compute step and each render.

Builds the three 100k-point requests of the benchmark's `cli_series`
workload for one seed (`sweep bh`, `sweep channel` and `evaporate`, from
`perfbench/plans.py`) and runs each in process: the compute step is the
subcommand building its `Document`, a render is `Document.render(fmt)`.
Prints the least CPU time of the process over N runs of each, in ms, so
that time the host gives to other processes is left out, and the JSON /
CSV ratio of the render and of compute plus render.

    PYTHONPATH=src python scripts/series_profile.py                  # seed 7, 9 runs
    PYTHONPATH=src python scripts/series_profile.py --seed 21 --repeat 5
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import time

FORMATS = ("table", "json", "csv")


def series_requests(seed: int) -> list[list[str]]:
    """The argv of the seed's three cli_series requests, without --format."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import bhthermo
    import plans
    from reference import Reference

    with tempfile.TemporaryDirectory() as work:
        cycle = plans.series_cycle(Reference(bhthermo.CONSTANTS), seed, work)
    requests = [r.argv[:-2] for r in cycle if r.argv[-1] == "table"]
    return sorted(requests, key=lambda argv: argv[0] != "sweep")


def _best(func, repeat: int) -> tuple[float, object]:
    """The least CPU time [ms] of ``repeat`` calls of ``func``, and its
    result."""
    best = float("inf")
    for _ in range(repeat):
        gc.collect()
        start = time.process_time()
        result = func()
        best = min(best, time.process_time() - start)
    return best * 1e3, result


def profile(argv: list[str], repeat: int) -> dict[str, float]:
    from bhthermo import cli

    parser = cli.build_parser()

    def compute():
        args = parser.parse_args(argv)
        return cli.COMMANDS[args.command](args)

    times = {}
    times["compute"], doc = _best(compute, repeat)
    for fmt in FORMATS:
        times[fmt], _ = _best(lambda: doc.render(fmt), repeat)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=9, help="runs of each step")
    args = parser.parse_args()
    print(f"seed {args.seed}, least CPU time of {args.repeat} runs, in process [ms]")
    print(f"{'command':<13} {'compute':>8} {'table':>8} {'json':>8} {'csv':>8}"
          f" {'json/csv':>9} {'with compute':>13}")
    for argv in series_requests(args.seed):
        t = profile(argv, args.repeat)
        name = " ".join(argv[:2]) if argv[0] == "sweep" else argv[0]
        whole = (t["compute"] + t["json"]) / (t["compute"] + t["csv"])
        print(f"{name:<13} " + " ".join(f"{t[k]:8.1f}" for k in ("compute", *FORMATS))
              + f" {t['json'] / t['csv']:9.2f} {whole:13.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
