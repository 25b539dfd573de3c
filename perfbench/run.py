"""Benchmark of the bhthermo toolkit: one command per workload.

    python3 perfbench/run.py --workload cli_oneshot --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from ./src and
starts ``python -m bhthermo.cli`` with ./src on PYTHONPATH.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; both check every output.  Human-readable lines come first;
the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run
(environment, counts, problems) goes to .perfbench_out/, and a traced run
also writes its spans there.  perfbench/README.md describes the workloads,
the metrics and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from checker import FORMATS

WORKLOADS = ("cli_oneshot", "cli_series")
CLI_COMMANDS = ("constants", "bh", "evaporate", "bounds", "gedanken", "channel",
                "sweep_bh", "sweep_channel")
MODULES = ("cli", "kerr_newman", "bounds", "channel", "gedanken", "evaporation")
#: span name -> unit of its busy time per call
TIMED_LAYERS = {
    "cli.parse": "us",
    **{f"cli.compute.{c}": "ms" for c in CLI_COMMANDS},
    **{f"cli.render.{f}": "ms" for f in FORMATS},
    **{f"cli.render.{f}_direct": "ms" for f in FORMATS},
    **{f"kerr_newman.{f}": "us" for f in ("make_black_hole", "entropy",
                                          "temperature", "potentials", "h_factors")},
    "bounds.bound_report": "us",
    "channel.capacity_bound": "us",
    **{f"gedanken.{s}": "us" for s in ("susskind", "capsule", "infall", "merger")},
    "evaporation.lifetime": "us",
    "evaporation.hawking_power": "us",
    "evaporation.mass_history": "ms",
}
UNIT_NS = {"us": 1e3, "ms": 1e6, "s": 1e9}
#: The metrics of the result line.  The median and tail latency are printed
#: too but are not among them: on a shared host whose speed switches between
#: two states they spread too widely from run to run to bound (see
#: perfbench/README.md).
END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
#: What the median, the tail and work_per_s are on each workload.
MEANING = {
    "cli_oneshot": ("oneshot", "request", "requests"),
    "cli_series": ("series", "100k-point request", "rows"),
}
#: Set-ups per --trace 0 run: one before the timed loop, the rest spread
#: over it.  setup_s is the fastest: on a host whose speed drifts over
#: minutes, the fastest of set-ups spread over a run moves least from run
#: to run.
SETUP_SAMPLES = 9
IMPORT_REPEATS = 3


def per_layer_units() -> dict[str, str]:
    units = {f"import.{p}_s": "s" for p in ("bhthermo", "scipy", "numpy")}
    for span, unit in TIMED_LAYERS.items():
        units[f"{span}_{unit}"] = unit
        units[f"{span}.calls"] = "count"
        units[f"{span}.errors"] = "count"
    units["cli.render.useful_time_frac"] = "frac"
    units.update({f"{m}.busy_share": "frac" for m in MODULES})
    units["trace.overhead_frac"] = "frac"
    return units


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], f"max of n={n}: fewer than 11 samples"
    rank = n - 10
    return xs[rank - 1], f"p{100 * rank / n:.4g} of n={n}, 10 samples above it"


# -- environment ---------------------------------------------------------------

def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: str, seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "seed": seed, "commit": _git_commit(root)}


# -- the run -------------------------------------------------------------------

def timed_setup(bench, workload, seed: int, times: list[float]):
    """One set-up: a fresh interpreter importing bhthermo, then the
    workload's seeded inputs.  Appends its time to ``times``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bhthermo"], env=bench.env,
                   cwd=bench.root, check=True, timeout=workloads.REQUEST_TIMEOUT_S)
    inputs = workload.setup(seed)
    times.append(time.perf_counter() - t0)
    return inputs


def end_to_end(name: str, res, setup_all: list[float]):
    prefix, unit_of_work, work = MEANING[name]
    setup_s = min(setup_all)
    p50 = statistics.median(res.latencies_ms)
    tail_ms, tail_label = tail(res.latencies_ms)
    values = {"setup_s": setup_s, "work_per_s": res.work_done / res.busy_s,
              "peak_rss_mb": res.peak_rss_mb}
    lines = [
        f"setup_s = {setup_s:.6g} s (fastest of {len(setup_all)} set-ups: "
        + ", ".join(f"{t:.4g}" for t in setup_all) + ")",
        f"median_ms = {p50:.6g} ms ({prefix}_p50_ms: median {unit_of_work}, "
        f"n={len(res.latencies_ms)}; printed only)",
        f"tail_ms = {tail_ms:.6g} ms ({prefix}_tail_ms: {tail_label}; "
        "printed only)",
        f"work_per_s = {values['work_per_s']:.6g} 1/s ({prefix}_{work}_per_s: "
        f"{res.work_done} {work} in {res.busy_s:.4g} s of {unit_of_work} time)",
        f"peak_rss_mb = {res.peak_rss_mb:.6g} MB (largest request process)",
    ]
    return values, lines


def busy_shares(layers: dict[str, list[int]]) -> dict[str, float]:
    """Each module's share of the self time of the spans in ``layers``."""
    own = {span: acc[0] for span, acc in layers.items()
           if not span.endswith("_direct")}
    total = sum(own.values())
    return {module: sum(t for span, t in own.items()
                        if span.startswith(module + ".")) / total
            for module in MODULES}


def layer_metrics(res, probes, imports: dict[str, float]):
    """Per-layer values of a traced run.  Layers the workload's own replay
    never called take their numbers from the probes."""
    replay = res.replay.layers()
    probe: dict[str, list[int]] = {}
    for tracer in probes:
        for span, acc in tracer.layers().items():
            total = probe.setdefault(span, [0, 0, 0])
            for k in range(3):
                total[k] += acc[k]
    values = {f"import.{pkg}_s": t for pkg, t in imports.items()}
    probed = []
    for span, unit in TIMED_LAYERS.items():
        source = replay if span in replay else probe
        if source is probe:
            probed.append(span)
        busy, calls, errors = source.get(span, (0, 0, 0))
        values[f"{span}_{unit}"] = busy / calls / UNIT_NS[unit] if calls else 0.0
        values[f"{span}.calls"] = calls
        values[f"{span}.errors"] = errors
    render = replay if "cli.render.json" in replay else probe
    direct = sum(render.get(f"cli.render.{f}_direct", (0,))[0] for f in FORMATS)
    full = sum(render.get(f"cli.render.{f}", (0,))[0] for f in FORMATS)
    values["cli.render.useful_time_frac"] = direct / full
    shares, probe_shares = busy_shares(replay), busy_shares(probe)
    for module in MODULES:
        if any(span.startswith(module + ".") for span in replay):
            values[f"{module}.busy_share"] = shares[module]
        else:
            probed.append(f"{module}.busy_share")
            values[f"{module}.busy_share"] = probe_shares[module]
    values["trace.overhead_frac"] = (res.traced_s - res.untraced_s) / res.untraced_s
    return values, probed


def traced(bench, workload, inputs, seconds: float, seed: int):
    """The workload's traced replay and the probes, whose checks count with
    the replay's.  Returns (outcome, probe tracers)."""
    res = workload.trace(inputs, seconds)
    probes = workloads.probes(bench, seed, cli=workload.series)
    for probe in probes:
        res.absorb(probe)
    return res, [probe.replay for probe in probes]


def run(bench, args) -> int:
    name = args.workload
    workload = workloads.CliWorkload(bench, series=name == "cli_series")
    env = environment(bench.root, args.seed)
    print(f"perfbench workload={name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    setup_all: list[float] = []
    inputs = timed_setup(bench, workload, args.seed, setup_all)
    out_dir = os.path.join(bench.root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        runs = [workloads.import_times(bench) for _ in range(IMPORT_REPEATS)]
        imports = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
        res, probes = traced(bench, workload, inputs, args.seconds, args.seed)
        values, probed = layer_metrics(res, probes, imports)
        units = per_layer_units()
        lines = [f"{k} = {v:.6g} {units[k]}" for k, v in values.items()]
        lines.append("layers measured by the probe, not this workload: "
                     + (", ".join(probed) or "none"))
        with open(os.path.join(out_dir, f"spans-{stem}.json"), "w") as fh:
            json.dump({"workload": name, "seed": args.seed,
                       "replay": res.replay.columns(),
                       "probes": [p.columns() for p in probes]}, fh)
    else:
        res = workload.measure(
            inputs, args.seconds, pauses=SETUP_SAMPLES - 1,
            pause=lambda: timed_setup(bench, workload, args.seed, setup_all))
        values, lines = end_to_end(name, res, setup_all)
        units = END_TO_END
    frac = res.failed / res.attempted
    lines.append(f"failed_frac = {frac:.6g} ({res.failed}/{res.attempted} operations "
                 "whose outcome or output check failed)")
    lines += res.notes
    lines += [f"problem: {p}" for p in res.problems]
    if res.counts:
        lines.append("counts " + json.dumps(res.counts, sort_keys=True))
    print("\n".join(lines))
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as fh:
        json.dump({"workload": name, "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "metrics": values, "counts": res.counts,
                   "failed_frac": frac, "problems": res.problems,
                   "notes": res.notes, "setup_s_all": setup_all,
                   "latencies_ms": res.latencies_ms}, fh, indent=1)
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally: the running request is killed and waited
    # for, and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bhthermo", "cli.py")):
        print("perfbench: no ./src/bhthermo here; run from the root of a "
              "bhthermo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import bhthermo
    import bhthermo.cli
    if not os.path.abspath(bhthermo.__file__).startswith(src + os.sep):
        print(f"perfbench: imported bhthermo from {bhthermo.__file__}, not ./src",
              file=sys.stderr)
        return 2
    from reference import Reference

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    env = {k: v for k, v in os.environ.items() if k != "BHTHERMO_FORMAT"}
    env["PYTHONPATH"] = src
    bench = workloads.Bench(root, work, env, bhthermo, bhthermo.cli,
                            Reference(bhthermo.CONSTANTS))
    try:
        return run(bench, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
