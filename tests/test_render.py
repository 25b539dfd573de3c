"""Document rendering: the fast writers against the eager reference renderer.

A ``Document`` stores its series by column; the reference renders it the
old way, row by row and cell by cell.
"""

import itertools
import json
import math
import random
import struct
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bhthermo import document
from bhthermo.document import FORMATS, FULL_PRECISION_SECTIONS, Document
from bhthermo.errors import DomainError

# -- the reference: the eager renderer the writers replaced ------------------


def _ref_round9(x):
    return float(f"{x:.8e}")


def _ref_display(value, exact=False):
    if isinstance(value, (bool, int)) or value is None or isinstance(value, str):
        return value
    return float(value) if exact else _ref_round9(float(value))


def _ref_cell(value, exact=False):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (str, int)):
        return str(value)
    return f"{float(value):.16e}" if exact else f"{float(value):.8e}"


def _ref_rows(doc):
    """The series as rows; a series with no column has no rows."""
    return [list(row) for row in zip(*doc.series)]


def _ref_unit(doc, name):
    """A record key's or a column's unit: its last dotted part's in the
    document's table, or none."""
    return doc.unit_table.get(name.split(".")[-1], "")


def _ref_units(doc):
    """Each record key with its unit, in the order of the logged adds."""
    return {f"{section}.{name}": _ref_unit(doc, name)
            for section, items in vars(doc).get("adds", []) for name in items}


def add(doc, section, items):
    """``doc.add``, logged so that the reference knows the order of the keys."""
    vars(doc).setdefault("adds", []).append((section, items))
    doc.add(section, items)


def _ref_section_rows(doc):
    """The rows of each section, a list per section."""
    sections = []
    for section, items in doc.sections.items():
        exact = section in FULL_PRECISION_SECTIONS
        rows = []
        for name, value in items.items():
            key = f"{section}.{name}"
            rows.append((key, _ref_cell(value, exact), _ref_unit(doc, key)))
        sections.append(rows)
    return sections


def reference_json(doc):
    obj = {"kind": doc.kind}
    for section, items in doc.sections.items():
        exact = section in FULL_PRECISION_SECTIONS
        obj[section] = {k: _ref_display(v, exact) for k, v in items.items()}
    if doc.columns is not None:
        obj["columns"] = doc.columns
        obj["rows"] = [[_ref_display(v) for v in row] for row in _ref_rows(doc)]
    obj["units"] = {k: u for k, u in _ref_units(doc).items() if u}
    if doc.columns is not None:
        obj["units"].update({c: _ref_unit(doc, c) for c in doc.columns
                             if _ref_unit(doc, c)})
    return json.dumps(obj, indent=2)


def reference_table(doc):
    lines = [f"# {doc.kind}"]
    for rows in _ref_section_rows(doc):     # each section aligned on its own
        w0 = max(len(r[0]) for r in rows)
        w1 = max(len(r[1]) for r in rows)
        lines += [f"{k:<{w0}}  {v:>{w1}}  {u}".rstrip() for k, v, u in rows]
    if doc.columns is not None:
        header = [f"{c} [{_ref_unit(doc, c)}]" if _ref_unit(doc, c) else c
                  for c in doc.columns]
        cells = [[_ref_cell(v) for v in row] for row in _ref_rows(doc)]
        widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
                  for i, h in enumerate(header)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths))
                  for row in cells]
    return "\n".join(lines)


def reference_csv(doc):
    if doc.columns is not None:
        lines = [",".join(doc.columns)]
        lines += [",".join(_ref_cell(v) for v in row) for row in _ref_rows(doc)]
        return "\n".join(lines)
    lines = ["quantity,value,unit"]
    lines += [f"{k},{v},{u}" for rows in _ref_section_rows(doc)
              for k, v, u in rows]
    return "\n".join(lines)


REFERENCE = {"table": reference_table, "json": reference_json,
             "csv": reference_csv}

# -- generated documents -----------------------------------------------------

_TRICKY = '"\\/\n\r\t\b\f\x00\x1f\x7f,;# é€ \U0001F600'
#: Template syntax of ``%`` and ``str.format``: a cell is data, never a template.
_TEMPLATE = ["%", "%s", "%r", "%%", "%(x)s", "%.8e", "{}", "{0}", "{x}", "{", "}"]
texts = st.one_of(st.text(max_size=12),
                  st.text(alphabet=st.sampled_from(_TRICKY + "ab"), max_size=12),
                  st.lists(st.sampled_from(_TEMPLATE + ["a", " "]),
                           max_size=5).map("".join))
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, 9.999999995e15,
                     1e16, 123456789.5]))
cells = st.one_of(st.none(), st.booleans(), st.integers(-10**300, 10**300),
                  floats, texts)
section_names = st.one_of(
    st.sampled_from(["inputs", "results", "rows", "columns", "units", "kind"]),
    texts)
#: A table of units by name.
unit_tables = st.dictionaries(texts, texts, max_size=4)


def record_names(table):
    """A record key or a column name: any text, a name of the table, or
    one after a dotted prefix, which takes that name's unit."""
    if not table:
        return texts
    known = st.sampled_from(sorted(table))
    return st.one_of(texts, known, st.tuples(texts, known).map(".".join))


class FloatSubclass(float):
    """Not exactly a float, but a float column's cell all the same."""


@st.composite
def column(draw, nrows):
    """One series column: all floats, some of them maybe of a float
    subclass, or all strs."""
    if draw(st.booleans()):
        return draw(st.lists(texts, min_size=nrows, max_size=nrows))
    return draw(st.lists(st.one_of(floats, floats.map(FloatSubclass)),
                         min_size=nrows, max_size=nrows))


@st.composite
def series(draw, nonempty=False, ragged=False, table=None):
    """(names, columns) of a series, its names drawn for ``table``;
    ``nonempty`` draws at least one column and one row, ``ragged`` columns
    of at least two lengths."""
    ncols = draw(st.integers(2 if ragged else 1 if nonempty else 0, 4))
    lengths = st.sampled_from([0, 1, draw(st.integers(2, 60))])
    nrows = draw(st.integers(1, 60) if nonempty else lengths)
    names = draw(st.lists(record_names(table), min_size=ncols, max_size=ncols))
    if ragged:
        sizes = draw(st.lists(lengths, min_size=ncols, max_size=ncols)
                     .filter(lambda sizes: len(set(sizes)) > 1))
    else:
        sizes = [nrows] * ncols
    return names, [draw(column(n)) for n in sizes]


@st.composite
def documents(draw, with_series=None):
    table = draw(unit_tables)
    doc = Document(draw(texts), table)
    for section in draw(st.lists(section_names, max_size=3)):
        names = draw(st.lists(record_names(table), max_size=4))
        add(doc, section, {name: draw(cells) for name in names})
    if with_series or (with_series is None and draw(st.booleans())):
        doc.set_columns(*draw(series(nonempty=bool(with_series), table=table)))
    return doc


@given(documents())
def test_writers_match_the_reference_byte_for_byte(doc):
    for fmt in FORMATS:
        assert doc.render(fmt) == REFERENCE[fmt](doc), fmt


@given(documents(with_series=False), section_names, st.data())
def test_a_section_added_leaves_the_other_sections_table_rows_alone(doc, section,
                                                                   data):
    # a section is laid out on its own: a new one, however wide its keys
    # and cells, does not re-pad the rows written before it
    assume(section not in doc.sections)
    before = doc.render("table")
    names = data.draw(st.lists(record_names(doc.unit_table), min_size=1, max_size=4))
    add(doc, section, {name: data.draw(cells) for name in names})
    assert doc.render("table").startswith(before + "\n")


def reference_refusal(doc):
    """The message naming the first non-finite float cell in row order."""
    for row in _ref_rows(doc):
        for name, value in zip(doc.columns, row):
            if isinstance(value, float) and not math.isfinite(value):
                what = ("undefined (nan)" if math.isnan(value)
                        else f"{value}, beyond the float range")
                return f"{name} at {doc.columns[0]} = {row[0]} is {what}"
    return None


non_finite = st.sampled_from([math.inf, -math.inf, math.nan]).flatmap(
    lambda x: st.sampled_from([x, FloatSubclass(x)]))


@given(documents(with_series=False), series(nonempty=True), st.data())
def test_non_finite_cells_are_refused_naming_the_first_in_row_order(doc, args,
                                                                    data):
    names, columns = args
    float_columns = [j for j, c in enumerate(columns)
                     if isinstance(c[0], float)]
    assume(float_columns)
    cells = st.tuples(st.integers(0, len(columns[0]) - 1),
                      st.sampled_from(float_columns))
    for i, j in data.draw(st.lists(cells, min_size=1, max_size=3)):
        columns[j][i] = data.draw(non_finite)
    doc.set_columns(names, columns)
    expected = reference_refusal(doc)
    for fmt in FORMATS:
        with pytest.raises(DomainError) as info:
            doc.render(fmt)
        assert str(info.value) == expected, fmt


def test_many_rows_match_the_reference():
    doc = Document("sweep", {"start": "g", "x": "g"})
    add(doc, "inputs", {"start": 1e-3})
    doc.set_columns(["x", "y", "label"],
                    [[i * 1.000000007 for i in range(3000)],
                     [-1.0 / (i + 1) for i in range(3000)],
                     [f"r{i % 3}" for i in range(3000)]])
    for fmt in FORMATS:
        assert doc.render(fmt) == REFERENCE[fmt](doc), fmt


@given(series(ragged=True))
def test_columns_of_unequal_length_are_refused(args):
    with pytest.raises(ValueError, match="differ in length"):
        Document("x", {}).set_columns(*args)


@pytest.mark.parametrize("column", [
    [1.5, None], [None], [1, 2], [1.5, 2], [True], ["a", 1.0], [1.5, "a"],
    ["a", None]])
def test_a_column_of_neither_only_floats_nor_only_strs_is_refused(column):
    with pytest.raises(ValueError, match="series column 'odd' holds neither"):
        Document("x", {}).set_columns(["x", "odd"], [[1.0] * len(column), column])


@pytest.mark.parametrize("names", [["x"], ["x", "y", "z"]])
def test_a_name_per_column(names):
    with pytest.raises(ValueError, match="2 columns"):
        Document("x", {}).set_columns(names, [[1.0], [2.0]])


def test_a_rows_form_caller_fails_loudly():
    """The series setter takes columns under a new name, so a caller still
    passing rows to the old one raises instead of printing a transposed
    table."""
    with pytest.raises(AttributeError):
        Document("x", {}).set_series(["x", "y"], ["", ""], [[1.0, 2.0], [3.0, 4.0]])


def test_a_caller_passing_units_fails_loudly():
    """A unit comes from the document's table only: the writers take none."""
    doc = Document("x", {"entropy": "nat"})
    with pytest.raises(TypeError):
        doc.add("results", "entropy", 1.0, "nat")
    with pytest.raises(TypeError):
        doc.set_columns(["entropy"], ["nat"], [[1.0]])
    assert (doc.sections, doc.columns) == ({}, None)


def test_a_key_takes_its_last_dotted_parts_unit_in_the_order_added():
    doc = Document("x", {"before": "nat", "delta": "nat", "limit": "bit", "t": "s"})
    doc.add("results", {"scenario": "s"})
    doc.add("ledger", {"hole.before": 1.0, "limit.x": 2.0})
    doc.add("results", {"delta": 3.0})
    doc.set_columns(["t", "y.limit", "before.y"], [[1.0], [2.0], [3.0]])
    assert list(json.loads(doc.render("json"))["units"].items()) == [
        ("ledger.hole.before", "nat"), ("results.delta", "nat"), ("t", "s"),
        ("y.limit", "bit")]
    assert doc.render("table").splitlines()[1:] == [
        "results.scenario               s",
        "results.delta     3.00000000e+00  nat",
        "ledger.hole.before  1.00000000e+00  nat",
        "ledger.limit.x      2.00000000e+00",
        "t [s]           y.limit [bit]   before.y      ",
        "1.00000000e+00  2.00000000e+00  3.00000000e+00"]


def test_an_int_is_written_as_an_int_in_every_format():
    # an echoed --points re-feeds through int(), which refuses "3.0"
    doc = Document("x", {})
    doc.add("inputs", {"points": 3, "start": 3.0})
    doc.add("results", {"n": 12345678901})
    assert json.loads(doc.render("json"))["inputs"] == {"points": 3, "start": 3.0}
    assert '"points": 3,' in doc.render("json")
    assert '"n": 12345678901' in doc.render("json")
    assert doc.render("csv").splitlines()[1:] == [
        "inputs.points,3,", "inputs.start,3.0000000000000000e+00,",
        "results.n,12345678901,"]
    assert doc.render("table").splitlines()[1:] == [
        "inputs.points                       3",
        "inputs.start   3.0000000000000000e+00",
        "results.n  12345678901"]


def test_a_series_without_columns_has_no_rows():
    doc = Document("x", {})
    doc.set_columns([], [])
    assert doc.render("csv") == ""
    assert doc.render("table") == "# x\n"
    assert json.loads(doc.render("json"))["rows"] == []


@pytest.mark.parametrize("fmt", FORMATS)
def test_render_builds_only_the_requested_format(monkeypatch, fmt):
    called = []
    for name in FORMATS:
        monkeypatch.setattr(Document, f"_{name}_layout",
                            lambda self, name=name: called.append(name)
                            or (name, None, [], "", ""))
    assert Document("x", {}).render(fmt) == fmt
    assert getattr(Document("x", {}), f"to_{fmt}")() == fmt
    assert called == [fmt, fmt]


def test_render_rejects_an_unknown_format():
    with pytest.raises(ValueError):
        Document("x", {}).render("yaml")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_scalar_is_refused(fmt, bad):
    doc = Document("x", {"entropy": "nat"})
    doc.add("results", {"entropy": bad})
    with pytest.raises(DomainError, match="results.entropy"):
        doc.render(fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_series_cell_is_refused(fmt, bad):
    doc = Document("sweep", {"mass": "g", "entropy": "nat"})
    doc.set_columns(["mass", "entropy"],
                    [[1e15, 1e16, 1e17], [2.0, bad, 3.0]])
    with pytest.raises(DomainError, match="entropy at mass = 1e\\+16"):
        doc.render(fmt)
    # the public writers refuse it too, with or without the location
    with pytest.raises(DomainError):
        getattr(doc, f"to_{fmt}")()


# -- the JSON float cell ------------------------------------------------------
#
# JSON writes a series float as repr of its 9-digit rounding, the
# definition.  The writer takes one conversion per cell where a block's
# magnitudes allow it: "%.9g" of the value, the rounding's "%.8e" text
# rewritten as fixed notation, or format(x, ".9"), and maps the definition
# elsewhere.  Every cell must come out as the definition writes it.


def _old_json_text(x):
    return repr(float("%.8e" % x))


def _json_texts(column):
    spec, cells = document._json_floats(column)
    return [spec % (v,) for v in cells]


_TINY = sys.float_info.min
_MAX = sys.float_info.max
#: The magnitudes where a rule of the cell, or repr's fixed notation,
#: starts or ends (and where an earlier form of the rule switched), and
#: the least that round up to 1 and 1e8.
_BOUNDS = [_TINY, 0.999999999, 0.9999999995, 1.0, 99999999.0, 99999999.95,
           999999999.5, 9.999999995e15, 1e16]
_EDGES = [
    *(y for x in _BOUNDS for y in (math.nextafter(x, 0.0), x,
                                   math.nextafter(x, math.inf))),
    9.999999995e-5, 5e-324, 7.651921e-317, 0.0, _MAX]
JSON_EDGE_CASES = _EDGES + [-x for x in _EDGES]


@pytest.mark.parametrize("x", JSON_EDGE_CASES)
def test_json_cell_rule_on_edge_cases(x):
    expected = _old_json_text(x)
    assert _json_texts([x]) == [expected]
    assert _json_texts([FloatSubclass(x)]) == [expected]


def test_json_cell_rule_on_columns_of_edge_cases():
    assert _json_texts(JSON_EDGE_CASES) == list(map(_old_json_text,
                                                    JSON_EDGE_CASES))
    # columns of one-call cells only, and one wholly in [99999999, 1e16)
    for column in ([1e-3, 0.5, 99999998.9, 1.0000000001e-300],
                   [1e16, 3e200, 1.7976931348623157e308],
                   [99999999.0, 1.23456789123e12, 9.99999999e15]):
        assert _json_texts(column) == list(map(_old_json_text, column))
    # blocks whose extremes sit on two bounds, or one ulp off them
    near = [[math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
            for x in _BOUNDS]
    for i, lows in enumerate(near):
        for highs in near[i:]:
            for column in itertools.product(lows, highs):
                for sign in (1.0, -1.0):
                    column = [sign * x for x in column]
                    assert _json_texts(column) == list(map(_old_json_text,
                                                           column))


def _random_doubles(n, seed):
    rng = random.Random(seed)
    doubles = (struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
               for _ in range(n))
    return [x for x in doubles if math.isfinite(x)]


#: Each rule's magnitudes [lo, hi), with the row spec its blocks take and
#: the type of their cells: "%.9g" of the value itself, "%s" of a str (the
#: text rule's fixed notation, or format(x, ".9")), or "%s" of the
#: definition's rounded float.
JSON_RULES = {
    "direct_small": (_TINY, 0.999999999, "%.9g", float),
    "direct_large": (9.999999995e15, math.inf, "%.9g", float),
    "text": (99999999.95, 9.999999995e15, "%s", str),
    "format": (0.999999999, 99999999.95, "%s", str),
    "definition": (5e-324, _TINY, "%s", float),
}


def _rule_of(block):
    """The row spec of the block's rule and the kind of its first cell."""
    spec, cells = document._json_floats(block)
    return spec, _kind(next(iter(cells)))


def _kind(cell):
    return str if isinstance(cell, str) else float


def _random_magnitudes(rng, lo, hi, n):
    """n doubles in [lo, hi), spread over its binades; the range's first
    and last doubles are among them, if n allows."""
    e_lo, e_hi = math.frexp(lo)[1], math.frexp(min(hi, _MAX))[1]
    xs = [lo, math.nextafter(lo, math.inf), math.nextafter(min(hi, _MAX), 0.0)]
    while len(xs) < n:
        x = math.ldexp(rng.uniform(0.5, 1.0), rng.randint(e_lo, e_hi))
        if lo <= x < hi:
            xs.append(x)
    rng.shuffle(xs)
    return xs[:n]


def test_json_cell_rule_on_random_blocks_of_each_branch():
    rng = random.Random(20261019)
    for lo, hi, spec, kind in JSON_RULES.values():
        for _ in range(60):
            sign = rng.choice([1.0, -1.0])
            block = [sign * x for x in _random_magnitudes(
                rng, lo, hi, rng.choice([1, 2, 7, 64, 500]))]
            assert _json_texts(block) == list(map(_old_json_text, block))
            assert _rule_of(block) == (spec, kind)
    # blocks that straddle the rules, or mix signs, zeros and subnormals
    pieces = [_random_magnitudes(rng, lo, hi, 50)
              for lo, hi, _, _ in JSON_RULES.values()]
    for _ in range(200):
        block = [rng.choice([1.0, -1.0]) * x
                 for piece in rng.sample(pieces, 2)
                 for x in rng.sample(piece, rng.randint(1, 20))]
        block += rng.choice([[], [0.0], [-0.0]])
        rng.shuffle(block)
        assert _json_texts(block) == list(map(_old_json_text, block))


def test_json_cell_rule_on_random_bit_patterns():
    xs = _random_doubles(100_000, seed=20261018)
    assert len(xs) > 99_000
    assert _json_texts(xs) == list(map(_old_json_text, xs))
    # each cell alone takes a rule of its own
    assert [_json_texts([x])[0] for x in xs[:5000]] == list(
        map(_old_json_text, xs[:5000]))
    # and so do runs of one sign and a few binades, the blocks of a sweep
    runs = sorted(xs[5000:25000])
    for i in range(0, len(runs), 40):
        assert _json_texts(runs[i:i + 40]) == list(map(_old_json_text,
                                                       runs[i:i + 40]))


def test_json_cells_go_through_the_column_rule(monkeypatch):
    seen = []
    rule = document._json_floats

    def spy(block):
        spec, cells = rule(block)
        cells = list(cells)
        seen.append((list(block), spec, _kind(cells[0])))
        return spec, cells

    monkeypatch.setattr(document, "_json_floats", spy)
    monkeypatch.setattr(document, "BLOCK_ROWS", 3)
    # blocks of three rows: direct, text, the definition, direct, text from
    # 1e8, format, direct again
    x = [0.5, 1e-3, 2e-300, 2e9, 3.5e12, 9e15, 1e8, 0.0, 5e-324, 1e17, 2e300, 3e16,
         99999999.95, 1.5e8, 999999999.4, 0.0, 99999999.9, 2.5, 0.25]
    y = [FloatSubclass(-v) for v in x]
    doc = Document("sweep", {})
    doc.set_columns(["x", "y", "label"],
                    [x, y, [f"r{i}" for i in range(len(x))]])
    assert doc.render("json") == reference_json(doc)
    blocks = [column[i:i + 3] for i in range(0, len(x), 3) for column in (x, y)]
    assert [block for block, _, _ in seen] == blocks
    direct, definition = ("%.9g", float), ("%s", float)
    text = formatted = ("%s", str)
    assert [(spec, kind) for _, spec, kind in seen] == [
        direct, direct, text, text, definition, definition, direct, direct,
        text, text, formatted, formatted, direct, direct]


# -- the table float cell width ---------------------------------------------
#
# The table sizes a float column from a few of its cells; the width must be
# that of the widest cell, "%.8e" of every value.


def _widest(column):
    return max(len("%.8e" % x) for x in column)


def test_table_width_rule_on_random_bit_patterns():
    xs = _random_doubles(100_000, seed=20261019)
    magnitudes = [abs(x) for x in xs]
    rng = random.Random(20261019)
    # values with two-digit exponents, so that a planted cell decides
    tame = [10.0 ** rng.uniform(-99.0, 99.0) for _ in range(5000)]
    columns = [xs, magnitudes, [-x for x in magnitudes],
               [0.0, *magnitudes], [-0.0, *magnitudes], [*magnitudes, -0.0],
               [0.0, *(-x for x in magnitudes)]]
    for i in range(0, 5000, 50):
        column = tame[i:i + 50]
        column[rng.randrange(50)] = rng.choice(magnitudes)
        for sign in (1.0, -1.0):
            signed = [sign * x for x in column]
            columns += [signed, signed + [0.0], [-0.0] + signed]
    for column in columns:
        assert document._table_width(column, False) == _widest(column)


@pytest.mark.parametrize("column", [
    [-0.0], [0.0], [0.0, -0.0], [-0.0, 1e150], [-0.0, 1.0],
    [-1.0, -5e-324, -2.5], [-5e-324], [1.0, 5e-324],
    [9.9999999995e99], [9.9999999994e99], [-9.9999999995e99, -1.0],
    [1e-100], [9.9999999996e-101, 1.0], [-1e-100, -1.0],
    [0.0, 1e-100, 5.0], [-5.0, -1e-100, 0.0], [-5.0, -1e-99, -0.0],
    [0.0, 1e-99, 5.0], [-1.0, 1e-100], [-1.0, -1e-100, 5.0],
    [1.7976931348623157e308, 0.0],
])
def test_table_width_rule_on_edge_columns(column):
    assert document._table_width(column, False) == _widest(column)
    doc = Document("x", {})
    doc.set_columns(["x"], [column])
    assert doc.render("table") == reference_table(doc)
