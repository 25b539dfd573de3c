"""Where the time of a long series goes: its compute step and each render.

Builds the three 100k-point requests of the benchmark's `cli_series`
workload for one seed (`sweep bh`, `sweep channel` and `evaporate`, from
`perfbench/plans.py`) and runs each in process: the compute step is the
subcommand building its `Document`, a render is `Document.render(fmt)`.
Prints the least CPU time of the process over N runs of each, in ms, so
that time the host gives to other processes is left out, and the JSON /
CSV ratio of the render and of compute plus render.

Then times the compute step of two 100k-point sweeps that are refused near
their end, beside the same sweeps stopped short of the float edge, and
exits 1 if a refused sweep's compute costs more than REFUSED_LIMIT times
its accepted one's: naming the first refused point must not cost more than
computing every point.

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
#: Most CPU time a refused sweep's compute may take, per accepted one's.
REFUSED_LIMIT = 2.0
#: Each target's 100k-point sweep, the stop it is accepted with and the
#: stop past its float edge that it is refused with.
EDGE_SWEEPS = {
    "bh": (["sweep", "bh", "--param", "mass", "--start", "1"], "1e140", "1e200"),
    "channel": (["sweep", "channel", "--param", "lambda_c", "--start", "1",
                 "--power", "1e-3"], "1e-150", "1e-170"),
}


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


def compute_step(argv: list[str]):
    """The compute step of ``argv``: parsing it and building its Document."""
    from bhthermo import cli

    def compute():
        args = cli.parse_request(argv)
        return cli.COMMANDS[args.command](args)

    return compute


def profile(argv: list[str], repeat: int) -> dict[str, float]:
    times = {}
    times["compute"], doc = _best(compute_step(argv), repeat)
    for fmt in FORMATS:
        times[fmt], _ = _best(lambda: doc.render(fmt), repeat)
    return times


def compute_time(argv: list[str], repeat: int) -> tuple[float, bool]:
    """The least CPU time [ms] of the compute step of ``argv``, and whether
    the request is refused."""
    from bhthermo.errors import DomainError

    compute = compute_step(argv)

    def refused():
        try:
            compute()
        except DomainError:
            return True
        return False

    return _best(refused, repeat)


def refused_against_accepted(repeat: int) -> int:
    """Print each edge sweep's refused and accepted compute time; 1 if a
    refused one costs more than REFUSED_LIMIT times its accepted one."""
    print(f"\nrefused sweeps, 100k points, least CPU time of {repeat} runs of "
          "the compute step [ms]")
    print(f"{'target':<13} {'accepted':>8} {'refused':>8} {'ratio':>6}")
    status = 0
    for target, (argv, accepted, refused) in EDGE_SWEEPS.items():
        times = []
        for stop, refusal in ((accepted, False), (refused, True)):
            t, result = compute_time([*argv, "--stop", stop, "--points", "100000"],
                                     repeat)
            if result is not refusal:
                print(f"sweep {target} --stop {stop}: expected "
                      f"{'a refusal' if refusal else 'a result'}")
                return 1
            times.append(t)
        ratio = times[1] / times[0]
        flag = "" if ratio <= REFUSED_LIMIT else f"  above {REFUSED_LIMIT:g}"
        print(f"{target:<13} {times[0]:8.1f} {times[1]:8.1f} {ratio:6.2f}{flag}")
        status |= ratio > REFUSED_LIMIT
    return status


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
    return refused_against_accepted(args.repeat)


if __name__ == "__main__":
    sys.exit(main())
