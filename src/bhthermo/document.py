"""The output document of every subcommand, as a table, JSON or CSV.

Computed numbers are rounded to nine significant digits; the sections in
FULL_PRECISION_SECTIONS keep full precision, so records re-feed exactly.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect
from collections.abc import Callable, Iterator, Mapping, Sequence
from functools import partialmethod
from itertools import chain, filterfalse, repeat

from .errors import DomainError

FORMATS = ("table", "json", "csv")
#: Most series rows one written piece of a document holds.
BLOCK_ROWS = 4096


def round9(x: float) -> float:
    return float(f"{x:.8e}")


#: Sections echoed at full precision so that re-feeding an emitted record
#: reproduces every derived quantity bit-for-bit.  Computed results keep
#: the 9-significant-digit policy.
FULL_PRECISION_SECTIONS = frozenset({"inputs"})


class Document:
    """Uniform output container: named scalar sections plus an optional
    series, stored as columns of floats only or of strs only."""

    def __init__(self, kind: str, units: Mapping[str, str]):
        self.kind = kind
        self.unit_table = units
        self.sections: dict[str, dict[str, object]] = {}
        self.units: dict[str, str] = {}     # by record key, in the order added
        self.columns: list[str] | None = None
        self.series: list[Sequence[object]] | None = None
        self._str_columns: list[bool] = []

    def _unit(self, name: str) -> str:
        return self.unit_table.get(name.rpartition(".")[2], "")

    def add(self, section: str, items: Mapping[str, object]) -> None:
        """Write ``items`` into ``section``.  A record key has one unit in
        every record, its last dotted part's in ``units`` (cli.UNITS)."""
        for name, value in items.items():
            self.sections.setdefault(section, {})[name] = value
            self.units[f"{section}.{name}"] = self._unit(name)

    def set_columns(self, names: list[str],
                    columns: list[Sequence[object]]) -> None:
        """The series: one name and one sequence of cells per column, all
        columns of one length (with no column, no rows), each holding only
        floats or only strs.  A column name takes its unit as a key does."""
        if len(names) != len(columns):
            raise ValueError(f"{len(columns)} columns and {len(names)} names")
        if len(set(map(len, columns))) > 1:
            raise ValueError("series columns differ in length: "
                             + ", ".join(str(len(c)) for c in columns))
        str_columns = []        # each column's kind, decided once
        for name, column in zip(names, columns):
            kinds = set(map(type, column))
            is_str = all(issubclass(k, str) for k in kinds)
            if not (is_str or all(issubclass(k, float) for k in kinds)):
                raise ValueError(f"series column {name!r} holds neither only floats "
                                 f"nor only strs: {sorted(k.__name__ for k in kinds)}")
            str_columns.append(is_str)
        self._str_columns = str_columns
        self.columns, self.series = names, columns

    # -- rendering ---------------------------------------------------------

    def _display(self, value: object, where: str, exact: bool) -> object:
        if value is None or isinstance(value, (int, str)):     # bools are ints
            return value
        x = _finite(float(value), where)
        return x if exact else round9(x)

    def render(self, fmt: str) -> str:
        """The document in ``fmt``, one of FORMATS; only that format is built."""
        return "".join(self.blocks(fmt))

    to_table = partialmethod(render, "table")
    to_json = partialmethod(render, "json")
    to_csv = partialmethod(render, "csv")

    def blocks(self, fmt: str) -> Iterator[str]:
        """The pieces of text that ``render(fmt)`` joins: a head, the series
        rows at most BLOCK_ROWS to a piece, then a tail.  The format's
        layout runs every check that can refuse the document, and gives the
        head, a function joining ``%`` conversions into a row's template, a
        conversion or a function of a block giving one and its cells per
        column, the row separator and the tail.  A piece of rows is one
        formatting call over its cells, so a cell is data, never a template.
        A JSON float block's magnitudes pick its conversion (_json_floats):
        of one sign, "%.9g" in [float_info.min, 0.999999999) or from 1e16 - 5e6
        and integer text in [99999999.95, 1e16 - 5e6); format(x, ".9") for 0.0
        and in [float_info.min, 99999999.95); else the definition."""
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")
        head, row, columns, sep, tail = getattr(self, f"_{fmt}_layout")()
        yield head
        n = self._series_length()
        last = template = None
        for start in range(0, n, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n)
            specs, cells = zip(*[(f, c[start:stop]) if isinstance(f, str)
                                 else f(c[start:stop])
                                 for c, f in zip(self.series, columns)])
            if last != (shape := (specs, stop - start, stop < n)):
                last = shape
                template = sep.join([row(specs)] * (stop - start)) + sep * (stop < n)
            yield template % tuple(chain.from_iterable(zip(*cells)))
        yield tail

    def _json_layout(self) -> tuple[str, Callable, list, str, str]:
        """Strict JSON, byte for byte ``json.dumps(obj, indent=2)`` of the
        document; the series rows skip that pure-Python encoder."""
        import json
        from json.encoder import encode_basestring_ascii

        obj: dict[str, object] = {"kind": self.kind}
        for section, items in self.sections.items():
            exact = section in FULL_PRECISION_SECTIONS
            obj[section] = {k: self._display(v, f"{section}.{k}", exact)
                            for k, v in items.items()}
        units = {k: u for k, u in self.units.items() if u}
        if self.columns is not None:
            obj["columns"], obj["rows"] = self.columns, []
            units.update({c: u for c in self.columns if (u := self._unit(c))})
        obj["units"] = units
        text = json.dumps(obj, indent=2, allow_nan=False)
        if not self._series_length():
            return text, None, [], "", ""
        self._check_series()
        # Strings hold no raw newline, so only the top-level key "rows" can
        # start a line with two spaces and '"rows": '.
        head, tail = text.split('\n  "rows": []', 1)
        return (f'{head}\n  "rows": [\n    ',
                lambda specs: "[\n      " + ",\n      ".join(specs) + "\n    ]",
                [(lambda block: ("%s", map(encode_basestring_ascii, block)))
                 if is_str else _json_floats for is_str in self._str_columns],
                ",\n    ", f"\n  ]{tail}")

    def _table_layout(self) -> tuple[str, Callable, list, str, str]:
        lines = [f"# {self.kind}"]
        for rows in self._section_rows():      # each section aligned on its own
            w0 = max(len(r[0]) for r in rows)
            w1 = max(len(r[1]) for r in rows)
            lines += [f"{k:<{w0}}  {v:>{w1}}  {u}".rstrip() for k, v, u in rows]
        specs, header = [], []
        if self.columns is not None:
            self._check_series()
            for c, column, is_str in zip(self.columns, self.series,
                                         self._str_columns):
                h = f"{c} [{u}]" if (u := self._unit(c)) else c
                w = max(len(h), _table_width(column, is_str))
                specs.append(f"%{w}s" if is_str else f"%{w}.8e")
                header.append(h.ljust(w))
            lines.append("  ".join(header))
        return ("\n".join(lines) + ("\n" if self._series_length() else ""),
                "  ".join, specs, "\n", "")

    def _csv_layout(self) -> tuple[str, Callable, list, str, str]:
        if self.columns is None:
            rows = chain.from_iterable(self._section_rows())
            return "\n".join(["quantity,value,unit", *(
                f"{k},{v},{u}" for k, v, u in rows)]), None, [], "", ""
        self._check_series()
        return (",".join(self.columns) + ("\n" if self._series_length() else ""),
                ",".join, ["%s" if is_str else "%.8e" for is_str in self._str_columns],
                "\n", "")

    def _section_rows(self) -> Iterator[list[tuple[str, str, str]]]:
        """Each section's rows, a key, its table or CSV cell and its unit."""
        for section, items in self.sections.items():
            exact = section in FULL_PRECISION_SECTIONS
            keys = [f"{section}.{name}" for name in items]
            yield [(key, _text_cell(value, key, exact), self.units[key])
                   for key, value in zip(keys, items.values())]

    def _series_length(self) -> int:
        return len(self.series[0]) if self.series else 0

    def _check_series(self) -> None:
        """Refuse a NaN or an infinite float of the series, naming the first
        in row order with its column and the row's first cell."""
        for column, is_str in zip(self.series, self._str_columns):
            if not (is_str or all(map(math.isfinite, column))):
                for row in zip(*self.series):
                    for name, value in zip(self.columns, row):
                        if isinstance(value, float):
                            _finite(value, f"{name} at {self.columns[0]} = {row[0]}")


def _finite(x: float, where: str) -> float:
    """x itself; no output format may carry a NaN or an infinity."""
    if math.isfinite(x):
        return x
    raise DomainError(f"{where} is " + ("undefined (nan)" if math.isnan(x)
                                        else f"{x}, beyond the float range"))


def _table_width(column: Sequence[object], is_str: bool) -> int:
    """The length of the column's longest table cell, 0 with none.  A
    finite float's cell "%.8e" has 14 characters, one more with a minus
    sign (-0.0 has one) and one more with a three-digit exponent.  Rounding
    is monotone, so of the floats of one sign only the largest and the
    smallest non-zero magnitude can have the longest exponent: those and a
    -0.0 decide.  With both signs, every cell is written."""
    if is_str or not column:
        return max(map(len, column), default=0)
    lo, hi = min(column), max(column)
    if lo < 0.0 < hi:
        return max(map(len, map("%.8e".__mod__, column)))
    cells = [lo, hi]
    if lo == 0.0 or hi == 0.0:      # a zero hides the smallest magnitude
        tiny = min(filter(None, map(abs, column)), default=0.0)
        cells.append(-tiny if lo < 0.0 else tiny)
        if lo == 0.0 and min(map(math.copysign, repeat(1.0),
                                 filterfalse(None, column))) < 0.0:
            cells.append(-0.0)
    return max(map(len, map("%.8e".__mod__, cells)))


def _json_floats(block: Sequence[float]) -> tuple[str, Sequence[object]]:
    """The JSON float cell rule for a block: a ``%`` conversion and cells it
    writes as repr(float("%.8e" % x)), the definition.  The block's least
    and greatest magnitude pick one conversion a cell.  One sign, all in
    [sys.float_info.min, 0.999999999) or all from 9999999995000000.0:
    "%.9g".  One sign, all in [99999999.95, 9999999995000000.0): the
    rounding is an integer, its "%.8e" text less the point, with "e+EE" as
    EE - 8 zeros and ".0".  All 0.0 or in [sys.float_info.min, 99999999.95):
    format(x, ".9").  Any other block maps the definition."""
    lo, hi = min(block, default=0.0), max(block, default=0.0)
    small, large = sorted((abs(lo), abs(hi)))
    edges = (sys.float_info.min, 0.999999999, 99999999.95, 9999999995000000.0)
    least = bisect(edges, small) if lo > 0.0 or hi < 0.0 else 0  # 0: 0.0, subnormals
    most = bisect(edges, large)
    if least == most and most in (1, 4):
        return "%.9g", block
    if least == most == 3:
        text = ("%.8e|" * len(block) % tuple(block)).replace(".", "")
        for e in range(int(("%.8e" % small)[-2:]), int(("%.8e" % large)[-2:]) + 1):
            text = text.replace(f"e+{e:02}|", "0" * (e - 8) + ".0|")
        return "%s", text.split("|")[:-1]
    if most < 3 and (least or bisect(edges, min(filter(None, map(abs, block)),
                                                default=1.0))):
        return "%s", map(format, block, repeat(".9"))
    return "%s", map(float, map("%.8e".__mod__, block))


def _text_cell(value: object, where: str, exact: bool) -> str:
    """A table or CSV cell: an int as it is, other numbers in scientific
    notation with nine significant digits, or 17 when ``exact``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    value = _finite(float(value), where)
    return f"{value:.16e}" if exact else f"{value:.8e}"
