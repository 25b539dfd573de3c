"""Output checks: exit codes, strict JSON, row counts and spot values.

A command-line request carries its expectations in a ``Request``; ``check``
returns the list of problems found in one (exit code, stdout, stderr)
outcome, empty when the outcome is correct.  Library calls are checked by
``check_call`` against values the workload computed from ``reference``.

Numbers the program prints carry nine significant digits, so a printed
value passes when it lies within half a unit of its last digit of the
closed form (plus 1e-12 relative for the rounding of the closed form
itself); one flipped digit is always caught.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

FORMATS = ("table", "json", "csv")
_NON_FINITE = re.compile(r"(?i)(?<![a-z_])(nan|inf|infinity)(?![a-z_])")
_UNIT = re.compile(r"\[[^\]]*\]")


@dataclass(frozen=True)
class Exact:
    """An input echo, printed at full precision: must match bit for bit."""

    value: float


@dataclass
class Series:
    columns: list[str]
    #: one array per column with the value of every row (float arrays are
    #: compared to nine digits, string arrays for equality)
    expected: list[np.ndarray]

    @property
    def points(self) -> int:
        return len(self.expected[0])

    def counts(self, column: str) -> dict[str, int]:
        if column not in self.columns:
            return {}
        values, counts = np.unique(self.expected[self.columns.index(column)],
                                   return_counts=True)
        return {str(v): int(c) for v, c in zip(values, counts)}


@dataclass
class Request:
    argv: list[str]
    command: str
    fmt: str
    exit: tuple[int, ...] = (0,)
    #: "section.name" -> float (nine digits), Exact, str or bool
    spots: dict[str, object] = field(default_factory=dict)
    series: Series | None = None
    #: path the emitted stdout is written to, for a later ``--input``
    save_as: str | None = None


def close9(printed: float, ref: float) -> bool:
    if not (math.isfinite(printed) and math.isfinite(ref)):
        return False
    if printed == 0.0:
        return ref == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(printed))) - 8)
    return abs(printed - ref) <= 0.5 * unit + 1e-12 * abs(ref)


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _number(raw) -> float:
    if isinstance(raw, bool) or raw is None:
        raise ValueError(f"expected a number, got {raw!r}")
    return float(raw)


def _matches(raw, expected) -> bool:
    try:
        if isinstance(expected, bool):
            return raw is expected or raw == ("true" if expected else "false")
        if isinstance(expected, str):
            return raw == expected
        if isinstance(expected, Exact):
            return _number(raw) == expected.value
        return close9(_number(raw), expected)
    except ValueError:
        return False


def parse(fmt: str, text: str) -> tuple[dict, list[str] | None, list[list]]:
    """Split one rendered document into (scalars, columns, rows)."""
    if fmt == "json":
        obj = json.loads(text, parse_constant=_reject_constant)
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("JSON output is not a document object")
        scalars = {f"{sec}.{k}": v for sec, items in obj.items()
                   if isinstance(items, dict) and sec != "units"
                   for k, v in items.items()}
        rows = obj.get("rows") or []
        if not all(isinstance(row, list) for row in rows):
            raise ValueError("JSON rows are not all arrays")
        return scalars, obj.get("columns"), rows
    lines = text.split("\n")
    if fmt == "csv":
        head = lines[0].split(",")
        if head == ["quantity", "value", "unit"]:
            return {ln.split(",")[0]: ln.split(",")[1] for ln in lines[1:]}, None, []
        return {}, head, [ln.split(",") for ln in lines[1:]]
    if not lines[0].startswith("# "):
        raise ValueError("table output lacks its '# kind' line")
    scalars = {}
    for i, line in enumerate(lines[1:], 1):
        tokens = line.split()
        if tokens and "." not in tokens[0]:      # the series header
            header = _UNIT.sub("", line).split()
            return scalars, header, [ln.split() for ln in lines[i + 1:]]
        scalars[tokens[0]] = tokens[1] if len(tokens) > 1 else ""
    return scalars, None, []


def check(req: Request, code: int, out: str, err: str) -> list[str]:
    """Problems in one request's outcome; empty when it is correct."""
    if code not in req.exit:
        return [f"exit {code}, expected {req.exit}: {err.strip()[:200]}"]
    if req.exit != (0,):
        problems = []
        if out:
            problems.append("rejected request wrote to stdout")
        if not err.endswith("\n") or err.count("\n") != 1 or "Traceback" in err:
            problems.append(f"diagnostic is not one stderr line: {err[:200]!r}")
        return problems
    problems = []
    if err:
        problems.append(f"stderr on success: {err.strip()[:200]}")
    if not out.endswith("\n") or out.endswith("\n\n"):
        return problems + ["stdout does not end in exactly one newline"]
    text = out[:-1]
    if req.fmt != "json":
        lowered = text.lower()      # a cheap scan first: the regex is slow on 100k rows
        if ("nan" in lowered or "inf" in lowered) and _NON_FINITE.search(text):
            problems.append("non-finite number in output")
    try:
        scalars, columns, rows = parse(req.fmt, text)
    except (ValueError, IndexError) as exc:
        return problems + [f"unparseable {req.fmt} output: {exc}"]
    series_csv = req.fmt == "csv" and req.series is not None
    for key, expected in req.spots.items():
        if series_csv and key not in scalars:
            continue    # CSV of a series carries the series alone
        if key not in scalars:
            problems.append(f"{key} missing")
        elif not _matches(scalars[key], expected):
            problems.append(f"{key} = {scalars[key]!r}, expected {expected!r}")
    if req.series is not None:
        problems += _check_series(req.series, columns, rows)
    return problems


def close9_array(printed: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Elementwise ``close9``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = 10.0 ** (np.floor(np.log10(np.abs(printed))) - 8)
        within = np.abs(printed - ref) <= 0.5 * unit + 1e-12 * np.abs(ref)
    return (np.isfinite(printed) & np.isfinite(ref)
            & np.where(printed == 0.0, ref == 0.0, within))


def _check_series(s: Series, columns, rows) -> list[str]:
    """Row count, and every cell of every row against its closed form."""
    if columns is None:
        return ["series missing"]
    if columns != s.columns:
        return [f"columns {columns}, expected {s.columns}"]
    if len(rows) != s.points:
        return [f"{len(rows)} rows, expected {s.points}"]
    if any(len(row) != len(columns) for row in rows):
        return ["a row has the wrong number of cells"]
    problems = []
    for j, (name, expected) in enumerate(zip(columns, s.expected)):
        cells = [row[j] for row in rows]
        if expected.dtype.kind == "U":
            ok = np.array(cells, dtype=str) == expected
        else:
            if any(isinstance(c, bool) or c is None for c in cells):
                return [f"column {name} holds a non-number"]
            try:
                ok = close9_array(np.array(cells, dtype=float), expected)
            except ValueError as exc:
                return [f"column {name}: {exc}"]
        if not ok.all():
            i = int(np.argmin(ok))
            problems.append(f"{int(np.size(ok) - np.count_nonzero(ok))} bad "
                            f"{name} cells, first row {i}: {cells[i]!r}, "
                            f"expected {expected[i]!r}")
    return problems


# -- library calls -------------------------------------------------------------

def near(x, ref: float) -> bool:
    """Agreement to nine significant digits for an unrounded float."""
    try:
        x = _number(x)
    except (TypeError, ValueError):
        return False
    return (math.isfinite(x) and math.isfinite(ref)
            and abs(x - ref) <= 5e-9 * abs(ref))


def check_call(kind: str, result, expected) -> list[str]:
    """Problems in one library call's result; ``expected`` comes from the
    workload, built from ``reference`` closed forms."""
    if kind == "raises":
        ok = result == "DomainError"
        return [] if ok else [f"expected DomainError, got {result!r}"]
    if isinstance(result, str) and result == "DomainError":
        return [f"{kind} raised DomainError on an in-domain input"]
    try:
        values = _extract(kind, result)
    except (AttributeError, TypeError, IndexError) as exc:
        return [f"{kind} returned {type(result).__name__}: {exc}"]
    problems = []
    for name, exp in expected.items():
        got = values.get(name)
        ok = got == exp if isinstance(exp, str) else near(got, exp)
        if not ok:
            problems.append(f"{kind}.{name} = {got!r}, expected {exp!r}")
    return problems


def _extract(kind: str, r) -> dict:
    if kind == "make_black_hole":
        return {"r_plus": r.r_plus, "m": r.m}
    if kind in ("entropy", "temperature", "hawking_power", "lifetime"):
        return {"value": r}
    if kind == "potentials":
        return {"theta": r.theta, "phi": r.phi, "omega": r.omega}
    if kind == "h_factors":
        return {"h1": r[0], "h2": r[1]}
    if kind == "bound_report":
        out = {"compositeness": r.compositeness,
               "weak_gravity_ratio": r.weak_gravity_ratio,
               "tightest": r.tightest_applicable,
               "violations": ";".join(r.violations) or "none"}
        out.update({e.name: e.limit_nats for e in r.entries})
        return out
    if kind == "capacity_bound":
        return {"regime": r.regime, "bound": r.bound_bits_per_s, "p_c": r.p_c}
    if kind == "mass_history":
        t, m = r
        mid = len(t) // 2
        return {"points": str(len(t)), "t_end": t[-1], "t_mid": t[mid],
                "m_mid": m[mid], "m_end": m[-1]}
    # thought experiments: ledger accounts and the verdict
    out = {f"{e.label.replace(' ', '_')}.{side}": getattr(e, side)
           for e in r.ledger.entries for side in ("before", "after")}
    out["delta_total"] = r.ledger.delta_total
    verdict = r.gsl_verdict
    out["verdict"] = ("inapplicable" if verdict is None
                      else "satisfied" if verdict else "violated")
    return out
