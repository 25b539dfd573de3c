"""Peak memory of a long series written as JSON, against the same series as CSV.

Runs a 10^6-point `bhthermo sweep channel` once with `--format json` and
once with `--format csv`, and fails (exit 1) if the JSON request's peak
resident set is above 1.1 times the CSV request's.

Each request is started by a small launcher process, which reads the
request's peak resident set from `os.wait4`.  A child's peak counts the
memory of the process that forked it, so a request started straight from
a large process would report that process's size; the launcher runs
without `site` and holds a few MB.

    python scripts/series_memory.py                  # the installed package
    PYTHONPATH=src python scripts/series_memory.py   # a source checkout
    PYTHONPATH=src python scripts/series_memory.py 100000   # other points
"""

from __future__ import annotations

import subprocess
import sys

POINTS = 1_000_000
#: Largest JSON / CSV ratio of the two requests' peak resident sets.
LIMIT = 1.1
SWEEP = ["sweep", "channel", "--param", "power", "--start", "1e-6",
         "--stop", "1e-1", "--lambda-c", "5e-5"]

#: Forks, runs the request with stdout to /dev/null, then prints the
#: request's exit code and its peak resident set [KiB].
LAUNCHER = """\
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(argv: list[str]) -> float:
    """The peak resident set [MB] of `python -m bhthermo.cli argv`."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, "-m", "bhthermo.cli", *argv],
        capture_output=True, text=True, check=False)
    fields = result.stdout.split()
    if result.returncode != 0 or len(fields) != 2 or fields[0] != "0":
        sys.exit(f"request failed: bhthermo {' '.join(argv)}\n"
                 f"{result.stdout}{result.stderr}")
    return int(fields[1]) / 1024.0


def main() -> int:
    points = int(sys.argv[1]) if len(sys.argv) > 1 else POINTS
    argv = [*SWEEP, "--points", str(points)]
    peaks = {fmt: peak_rss_mb([*argv, "--format", fmt]) for fmt in ("json", "csv")}
    ratio = peaks["json"] / peaks["csv"]
    print(f"sweep channel, {points} points: peak RSS json {peaks['json']:.1f} MB, "
          f"csv {peaks['csv']:.1f} MB, ratio {ratio:.3f} (limit {LIMIT})")
    if ratio > LIMIT:
        print(f"FAIL: json's peak is above {LIMIT} times csv's")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
