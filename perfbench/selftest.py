"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py        # from the root of a checkout, ~3 min

* one seed gives identical inputs, another seed different ones;
* the checker accepts real outputs and rejects one flipped digit, a NaN and
  a wrong exit code;
* a traced run fails when a library call returns a wrong value, and splits
  its busy time over every module;
* two runs with one seed report identical exact counts;
* BENCHMARK.json names the metrics run.py prints.

Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import types

import plans
import run
import workloads
from checker import Request, check, check_call

SEED = 7


def _bench(work: str) -> workloads.Bench:
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import bhthermo
    import bhthermo.cli
    from reference import Reference
    return workloads.Bench(os.getcwd(), work, {**os.environ, "PYTHONPATH": src},
                           bhthermo, bhthermo.cli, Reference(bhthermo.CONSTANTS))


def _describe_requests(requests: list[Request]) -> list:
    """Everything a request feeds the program, with --input files inlined."""
    out = []
    for r in requests:
        argv = []
        for a in r.argv:
            if a.endswith(".cfg"):
                with open(a) as fh:
                    a = fh.read()
            argv.append(a)
        series = None if r.series is None else [e.tolist() for e in r.series.expected]
        out.append((argv, repr(r.spots), series))
    return out


def test_seeded_inputs(bench) -> None:
    def cli(make, seed):
        return _describe_requests(make(bench.ref, seed, bench.work))

    def library(seed):
        return [(layer, kind, repr(args), repr(exp)) for layer, kind, _, args, exp
                in plans.library_cycle(bench.api, bench.ref, seed)]

    for name, inputs in (("cli_oneshot", lambda s: cli(plans.oneshot_cycle, s)),
                         ("cli_series", lambda s: cli(plans.series_cycle, s)),
                         ("library probe", library)):
        first, again, other = inputs(SEED), inputs(SEED), inputs(SEED + 1)
        assert first == again, f"{name}: one seed gave different inputs"
        assert first != other, f"{name}: two seeds gave identical inputs"


def _flip_digit(number: str) -> str:
    """Add one (mod 10) to the ninth significant digit, the last one the
    program prints, or to the last digit of a shorter number."""
    cut = number.lower().find("e")
    digits = [i for i, ch in enumerate(number[:cut if cut >= 0 else None])
              if ch.isdigit()]
    significant = digits[next(k for k, i in enumerate(digits) if number[i] != "0"):]
    i = significant[min(8, len(significant) - 1)]
    return number[:i] + str((int(number[i]) + 1) % 10) + number[i + 1:]


#: where the value of results.entropy sits in each format
_ENTROPY = {"json": r'"entropy": ([^,\n]+)', "table": r"(?m)^results\.entropy +(\S+)",
            "csv": r"(?m)^results\.entropy,([^,]+)"}


def _replace(text: str, pattern: str, new) -> str:
    m = re.search(pattern, text)
    assert m, f"{pattern} not found"
    return text[:m.start(1)] + new(m.group(1)) + text[m.end(1):]


def test_checker_teeth(bench) -> None:
    planner = plans.CliPlanner(bench.ref, random.Random(SEED), bench.work)
    for fmt in ("table", "json", "csv"):
        req = planner.bh(fmt, kerr=False)
        code, out, err, _ = workloads.run_in_process(bench, req)
        assert check(req, code, out, err) == [], check(req, code, out, err)
        flipped = _replace(out, _ENTROPY[fmt], _flip_digit)
        assert check(req, code, flipped, err), f"{fmt}: flipped digit passed"
        nan = "NaN" if fmt == "json" else "nan"
        assert check(req, code, _replace(out, _ENTROPY[fmt], lambda _: nan), err), \
            f"{fmt}: NaN passed"
        assert check(req, 1, out, err), f"{fmt}: wrong exit code passed"

    req = planner.sweep_channel("csv", 500)
    code, out, err, _ = workloads.run_in_process(bench, req)
    assert check(req, code, out, err) == []
    lines = out.split("\n")
    for col in range(2):
        cells = lines[250].split(",")
        cells[col] = _flip_digit(cells[col])
        bad = "\n".join(lines[:250] + [",".join(cells)] + lines[251:])
        assert check(req, code, bad, err), f"flipped digit in column {col} passed"
    short = "\n".join(lines[:100] + lines[101:])
    assert check(req, code, short, err), "a missing row passed"

    for rejected in planner.invalid("json"):
        code, out, err, _ = workloads.run_in_process(bench, rejected)
        assert check(rejected, code, out, err) == [], check(rejected, code, out, err)
        assert check(rejected, 0, out, err), "exit 0 on a rejected request passed"
        wrong = 3 - rejected.exit[0]
        assert check(rejected, wrong, out, err), "exit 1 and 2 confused"

    S = bench.ref.schwarzschild_entropy(1e15)
    assert check_call("entropy", S, {"value": S}) == []
    assert check_call("entropy", S * (1 + 2e-8), {"value": S}), "flipped digit passed"
    assert check_call("entropy", math.nan, {"value": S}), "NaN passed"
    assert check_call("raises", "returned", None), "missing DomainError passed"


def test_traced_checks(bench) -> None:
    cycle = plans.oneshot_cycle(bench.ref, SEED, bench.work)
    res, probes = run.traced(bench, workloads.CliWorkload(bench, series=False),
                             cycle, 0, SEED)
    assert res.failed == 0, res.problems
    values, _ = run.layer_metrics(res, probes, {})
    idle = [m for m in run.MODULES if not values[f"{m}.busy_share"] > 0]
    assert not idle, f"busy_share is 0 for {idle}"

    # the same run with a library whose entropy is off in the 7th digit
    api = types.SimpleNamespace(**{k: getattr(bench.api, k) for k in dir(bench.api)})
    api.entropy = lambda bh: bench.api.entropy(bh) * (1 + 1e-7)
    broken = workloads.Bench(bench.root, bench.work, bench.env, api, bench.cli,
                             bench.ref)
    res, _ = run.traced(broken, workloads.CliWorkload(broken, series=False),
                        cycle, 0, SEED)
    assert res.failed > 0, "a wrong library result passed the traced run"
    assert any(p.startswith("kerr_newman.entropy") for p in res.problems), \
        res.problems


def test_counts_repeat(bench) -> None:
    for name in run.WORKLOADS:
        counts = []
        for _ in range(2):
            subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                            "--workload", name, "--seed", str(SEED), "--seconds", "1",
                            "--trace", "0"], check=True, stdout=subprocess.DEVNULL)
            path = os.path.join(".perfbench_out",
                                f"result-{name}-seed{SEED}-trace0.json")
            with open(path) as fh:
                counts.append(json.load(fh)["counts"])
        assert counts[0] and counts[0] == counts[1], f"{name}: {counts}"


def test_catalogue(bench) -> None:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def main() -> int:
    work = os.path.join(os.getcwd(), ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    failed = 0
    try:
        bench = _bench(work)
        for test in (test_seeded_inputs, test_checker_teeth, test_traced_checks,
                     test_catalogue, test_counts_repeat):
            try:
                test(bench)
                print(f"PASS {test.__name__}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {test.__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
