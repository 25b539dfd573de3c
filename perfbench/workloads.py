"""The timed loops and traced replays of the two workloads.

Every workload is one client in a closed loop: the next request starts only
after the previous one has finished and been checked.  ``cli_oneshot`` and
``cli_series`` start one ``python -m bhthermo.cli`` process per request and
time it from outside (wall clock, and the peak resident set of that process
from ``wait4``).

A traced run replays the same inputs in this process with a span around
every call into a layer, alternating a traced and an untraced pass of a
request so that the tracing overhead is measured on equal work.  Probes
then trace and check a small cycle of the layers the workload does not
call, including scalar calls into the formula modules.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import plans
from checker import Request, check, check_call
from tracing import Tracer

#: A request still running after this long is killed and counts as failed.
REQUEST_TIMEOUT_S = 150.0
#: Names bhthermo.cli imports from the formula modules -> span name.  A
#: traced replay wraps them, so the formula modules' time is split out of
#: cli.compute.*.
CLI_IMPORTS = {
    **{f: f"kerr_newman.{f}" for f in ("make_black_hole", "entropy", "temperature",
                                       "potentials", "h_factors")},
    "bound_report": "bounds.bound_report",
    "capacity_bound": "channel.capacity_bound",
    "mass_history": "evaporation.mass_history",
    "susskind_collapse": "gedanken.susskind",
    "capsule_lowering": "gedanken.capsule",
    "infall_experiment": "gedanken.infall",
    "merger": "gedanken.merger",
}


@dataclass
class Bench:
    """Where the benchmark runs and what it imported from the package."""

    root: str
    work: str
    env: dict
    api: object         # the bhthermo package
    cli: object         # bhthermo.cli
    ref: object         # reference.Reference


@dataclass
class Outcome:
    """What one timed loop or traced replay measured and checked."""

    latencies_ms: list = field(default_factory=list)
    work_done: int = 0            # requests or rows
    busy_s: float = 0.0           # wall time of the requests
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    replay: Tracer | None = None
    untraced_s: float = 0.0
    traced_s: float = 0.0

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{what}: {'; '.join(problems)[:400]}")

    def absorb(self, other: Outcome) -> None:
        """Add another pass's checks (a probe's) to this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[:max(0, 10 - len(self.problems))]


def _bump(table: dict, key, n: int = 1) -> None:
    table[key] = table.get(key, 0) + n


# -- command-line executors ----------------------------------------------------

def run_cli(bench: Bench, argv: list[str]):
    """Run one request in a fresh interpreter.

    Returns (exit code, stdout, stderr, wall time [s], peak RSS [MB])."""
    out_path = os.path.join(bench.work, "stdout")
    err_path = os.path.join(bench.work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "bhthermo.cli", *argv],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=bench.env, cwd=bench.root)
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0


def _plain(name, request, func, *args):
    return func(*args)


def _parse(cli, argv):
    return cli.build_parser().parse_args(argv)


@contextlib.contextmanager
def _formula_spans(cli, tracer: Tracer):
    """Within the block, each ``CLI_IMPORTS`` name of the cli module runs
    inside a span."""
    saved = {name: getattr(cli, name) for name in CLI_IMPORTS}

    def wrap(span, func):
        return lambda *args, **kwargs: tracer.call(span, None, func, *args, **kwargs)

    for name, span in CLI_IMPORTS.items():
        setattr(cli, name, wrap(span, saved[name]))
    try:
        yield
    finally:
        for name, func in saved.items():
            setattr(cli, name, func)


def run_in_process(bench: Bench, req: Request, tracer: Tracer | None = None,
                   request=None):
    """One request through the cli module's parse, compute and render steps,
    as ``cli.main`` runs them: (code, stdout, stderr, document)."""
    cli = bench.cli
    call = tracer.call if tracer is not None else _plain
    spans = _formula_spans(cli, tracer) if tracer is not None \
        else contextlib.nullcontext()
    try:
        with spans:
            args = call("cli.parse", request, _parse, cli, req.argv)
            doc = call(f"cli.compute.{req.command}", request,
                       cli.COMMANDS[args.command], args)
            text = call(f"cli.render.{req.fmt}", request, doc.render, req.fmt)
    except cli.ConfigError as exc:
        return 2, "", f"bhthermo {req.argv[0]}: {exc}\n", None
    except bench.api.DomainError as exc:
        return 1, "", f"bhthermo {req.argv[0]}: {exc}\n", None
    except Exception as exc:        # main() would print a traceback
        return 1, "", f"Traceback: {type(exc).__name__}: {exc}\n", None
    return 0, text + "\n", "", doc


# -- cli_oneshot and cli_series ------------------------------------------------

class CliWorkload:
    """cli_oneshot, or with ``series`` cli_series.

    cli_series runs whole cycles only, so every run weighs its nine request
    kinds equally, and counts its work in rows; cli_oneshot stops when time
    is up, counts requests and probes the non-finite inputs.  A traced
    replay also runs requests untraced to measure the tracing overhead:
    every one on cli_oneshot, every third 100k-point request on cli_series,
    which keeps that traced run short; a probe runs none."""

    def __init__(self, bench: Bench, series: bool):
        self.bench = bench
        self.series = series
        self.twin_every = 3 if series else 1

    def setup(self, seed: int) -> list[Request]:
        make = plans.series_cycle if self.series else plans.oneshot_cycle
        return make(self.bench.ref, seed, self.bench.work)

    def _more(self, i: int, n: int, elapsed: float, cycle_s: float,
              seconds: float) -> bool:
        if i < n:
            return True                 # the first cycle always completes
        if self.series:
            return i % n != 0 or elapsed + cycle_s <= seconds
        return elapsed < seconds

    def measure(self, cycle: list[Request], seconds: float, pause,
                pauses: int) -> Outcome:
        """The timed loop.  ``pause()`` is called ``pauses`` times, spread
        evenly over the first ``seconds`` of it, between requests; the time
        it takes counts neither as request time nor as loop time."""
        res = Outcome(counts={"requests": {}, "expected_errors": {},
                              "bytes": {}, "rows": 0, "regimes": {}})
        paused = 0.0

        def clock() -> float:
            return time.perf_counter() - paused

        n, i = len(cycle), 0
        start = cycle_start = clock()
        cycle_s = 0.0
        pause_every = seconds / (pauses + 1)
        next_pause, taken = pause_every, 0
        while self._more(i, n, clock() - start, cycle_s, seconds):
            if taken < pauses and clock() - start >= next_pause:
                t0 = time.perf_counter()
                pause()
                paused += time.perf_counter() - t0
                taken += 1
                next_pause += pause_every
            req = cycle[i % n]
            code, out, err, wall, rss = run_cli(self.bench, req.argv)
            res.latencies_ms.append(wall * 1e3)
            res.busy_s += wall
            res.peak_rss_mb = max(res.peak_rss_mb, rss)
            res.attempted += 1
            problems = check(req, code, out, err)
            if problems:
                res.fail(" ".join(req.argv), problems)
            elif req.series is not None:
                res.work_done += req.series.points
            if req.save_as and code == 0:
                with open(req.save_as, "w") as fh:
                    fh.write(out)
            if i < n:
                self._count(res.counts, req, out, not problems)
            i += 1
            if i % n == 0:
                now = clock()
                cycle_s, cycle_start = now - cycle_start, now
        if not self.series:
            res.work_done = res.attempted
            res.notes += self._probe_non_finite(res)
        return res

    @staticmethod
    def _count(counts: dict, req: Request, out: str, ok: bool) -> None:
        """Exact counts of the first cycle; they repeat for a seed."""
        _bump(counts["requests"], req.command)
        if req.exit != (0,):
            _bump(counts["expected_errors"], req.command)
        _bump(counts["bytes"], req.fmt, len(out.encode()))
        if ok and req.series is not None:
            counts["rows"] += req.series.points
            for regime, k in req.series.counts("regime").items():
                _bump(counts["regimes"], regime, k)
        if ok and req.command == "channel" and req.exit == (0,):
            _bump(counts["regimes"], req.spots["results.regime"])

    def _probe_non_finite(self, res: Outcome) -> list[str]:
        """Non-finite inputs the README contract rejects (exit 1 or 2, one
        stderr line).  They run after the timed loop and outside its
        attempted/failed counts, because the program at the benchmark's
        first commit accepts them; the result is reported on its own line."""
        failures = []
        for words in plans.NON_FINITE_PROBE:
            req = Request(words + ["--format", "json"], words[0], "json", exit=(1, 2))
            code, out, err, _, _ = run_cli(self.bench, req.argv)
            problems = check(req, code, out, err)
            if problems:
                failures.append(f"{' '.join(words)} -> {problems[0][:80]}")
        n, bad = len(plans.NON_FINITE_PROBE), len(failures)
        return [f"nonfinite_probe = {bad}/{n} requests broke the exit-code "
                f"contract; counted with the timed requests, failed_frac would "
                f"be {(res.failed + bad) / (res.attempted + n):.6g} "
                f"({res.failed + bad}/{res.attempted + n})"
                ] + [f"  {f}" for f in failures]

    def trace(self, cycle: list[Request], seconds: float,
              twins: bool = True) -> Outcome:
        res = Outcome(replay=Tracer())
        tr = res.replay
        n, i = len(cycle), 0
        start = cycle_start = time.perf_counter()
        cycle_s = 0.0
        while self._more(i, n, time.perf_counter() - start, cycle_s, seconds):
            req = cycle[i % n]
            twin = twins and i % self.twin_every == 0
            # alternate which pass goes first so neither always runs warm
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if not (traced or twin):
                    continue
                t0 = time.perf_counter()
                if traced:
                    tr.begin("request", i)
                    code, out, err, doc = run_in_process(self.bench, req, tr, i)
                    tr.end(code != 0)
                    if twin:
                        res.traced_s += time.perf_counter() - t0
                else:
                    run_in_process(self.bench, req)
                    res.untraced_s += time.perf_counter() - t0
            res.attempted += 1
            problems = check(req, code, out, err)
            if problems:
                res.fail(" ".join(req.argv), problems)
            if req.save_as and code == 0:
                with open(req.save_as, "w") as fh:
                    fh.write(out)
            if doc is not None:
                tr.call(f"cli.render.{req.fmt}_direct", i,
                        getattr(doc, f"to_{req.fmt}"))
            del doc, out
            i += 1
            if i % n == 0:
                now = time.perf_counter()
                cycle_s, cycle_start = now - cycle_start, now
        return res


# -- library calls -------------------------------------------------------------

def trace_library(bench: Bench, cycle: list[tuple]) -> Outcome:
    """One traced pass over a ``plans.library_cycle``, a span per public
    call inside one span for the batch, with every result checked against
    its closed form."""
    res = Outcome(replay=Tracer())
    tr = res.replay
    tr.begin("batch", 0)
    for layer, kind, func, args, expected in cycle:
        try:
            result = tr.call(layer, None, func, *args)
        except bench.api.DomainError:
            result = "DomainError"
        except Exception as exc:
            result = f"raised {type(exc).__name__}: {exc}"
        res.attempted += 1
        problems = check_call(kind, result, expected)
        if problems:
            res.fail(layer, problems)
    tr.end()
    return res


def probes(bench: Bench, seed: int, cli: bool) -> list[Outcome]:
    """Small traced, checked passes that give numbers for the layers a
    workload does not call itself: the library cycle and, with ``cli``, one
    in-process cli_oneshot cycle."""
    out = [trace_library(bench, plans.library_cycle(bench.api, bench.ref, seed))]
    if cli:
        probe_dir = os.path.join(bench.work, "probe")
        os.makedirs(probe_dir, exist_ok=True)
        cycle = plans.oneshot_cycle(bench.ref, seed, probe_dir)
        out.append(CliWorkload(bench, series=False).trace(cycle, 0, twins=False))
    return out


def import_times(bench: Bench) -> dict[str, float]:
    """Cumulative import time [s] of bhthermo, and of the numpy and scipy
    packages it pulls in, from ``-X importtime`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bhthermo"],
                          env=bench.env, cwd=bench.root, capture_output=True,
                          text=True, timeout=REQUEST_TIMEOUT_S, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = {"bhthermo": 0, "scipy": 0, "numpy": 0}
    ancestors: list[tuple[int, str]] = []
    # -X importtime prints a module after its children; walking the lines
    # backwards meets each module before them, so a stack holds its ancestors.
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for _, a in ancestors):
            totals[top] += cumulative
        ancestors.append((depth, name))
    return {k: v / 1e6 for k, v in totals.items()}
