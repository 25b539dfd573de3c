"""Command line interface: formats, exit codes, config files, round trips."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import bhthermo
from bhthermo import CONSTANTS, MaterialSystem, bound_report, cli, infall_experiment
from bhthermo import document, kerr_newman
from bhthermo.bounds import DEFAULT_ZETA
from bhthermo.cli import main
from bhthermo.constants import entropies_in_bits


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


class TestBh:
    def test_anchors(self, capsys):
        doc = run_json(capsys, "bh", "--mass", "1e15")
        assert doc["results"]["entropy"] == pytest.approx(2.65e40, rel=5e-3)
        assert doc["results"]["temperature_kelvin"] == pytest.approx(
            1.23e11, rel=5e-3)
        assert doc["units"]["results.temperature_kelvin"] == "K"

    def test_naked_singularity_exits_1(self, capsys):
        code, out, err = run(capsys, "bh", "--mass", "1e15",
                             "--charge-over-m", "1.5")
        assert code == 1
        assert "horizon" in err

    def test_sub_planck_exits_1(self, capsys):
        code, _, err = run(capsys, "bh", "--mass", "1e-10")
        assert code == 1
        assert "Planck" in err

    def test_missing_mass_exits_2(self, capsys):
        code, _, err = run(capsys, "bh")
        assert code == 2

    def test_charge_over_m(self, capsys):
        doc = run_json(capsys, "bh", "--mass", "1e15", "--charge-over-m", "0.5")
        assert doc["results"]["Q"] == pytest.approx(
            0.5 * doc["results"]["M"], rel=1e-6, abs=0)

    def test_json_round_trip_is_bit_identical(self, capsys, tmp_path):
        # inputs are echoed at full precision, so the record reproduces
        # the charge derived from the ratio exactly
        doc = run_json(capsys, "bh", "--mass", "1e15",
                       "--charge-over-m", "0.333333333333")
        path = tmp_path / "hole.json"
        path.write_text(json.dumps(doc))
        redone = run_json(capsys, "bh", "--input", str(path))
        assert redone["results"] == doc["results"]
        assert redone["inputs"] == doc["inputs"]


class TestFormats:
    def test_three_formats_carry_identical_values(self, capsys):
        doc = run_json(capsys, "bh", "--mass", "1e15")
        code, table, _ = run(capsys, "bh", "--mass", "1e15", "--format", "table")
        code, csv_out, _ = run(capsys, "bh", "--mass", "1e15", "--format", "csv")
        for name, value in doc["results"].items():
            if isinstance(value, float):
                formatted = f"{value:.8e}"
                assert formatted in table
                assert formatted in csv_out

    def test_csv_scalar_layout(self, capsys):
        code, out, _ = run(capsys, "constants", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "quantity,value,unit"
        assert any(line.startswith("values.G,") for line in lines)

    def test_format_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("BHTHERMO_FORMAT", "json")
        code, out, _ = run(capsys, "constants")
        assert code == 0
        json.loads(out)

    @pytest.mark.parametrize("value", ["xml", ""])
    def test_bad_format_env_exits_2_unless_a_flag_sets_the_format(
            self, capsys, monkeypatch, value):
        monkeypatch.setenv("BHTHERMO_FORMAT", value)
        assert run(capsys, "constants") == (
            2, "", f"bhthermo: bad $BHTHERMO_FORMAT {value!r}; "
                   "choose from table, json, csv\n")
        code, out, err = run(capsys, "constants", "--format", "json")
        assert (code, err) == (0, "")
        json.loads(out)

    def test_nine_significant_digits(self, capsys):
        _, out, _ = run(capsys, "bh", "--mass", "1e15", "--format", "csv")
        assert "1.48523205e-13" in out  # r_plus at 9 significant digits


class TestConstantsCommand:
    def test_json_dump(self, capsys):
        doc = run_json(capsys, "constants")
        assert doc["values"]["c"] == 2.99792458e10
        assert doc["units"]["values.G"] == "cm^3 g^-1 s^-2"


class TestEvaporate:
    def test_series(self, capsys):
        doc = run_json(capsys, "evaporate", "--mass", "1e12", "--points", "10")
        assert doc["columns"] == ["t", "mass"]
        assert len(doc["rows"]) == 10
        assert doc["rows"][0][0] == 0.0
        assert doc["results"]["lifetime_s"] == pytest.approx(8.41e10, rel=2e-2)

    def test_csv_is_plain_series(self, capsys):
        code, out, _ = run(capsys, "evaporate", "--mass", "1e12",
                           "--points", "4", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "t,mass"
        assert len(lines) == 5

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_fewer_than_two_points_is_a_usage_error(self, capsys, monkeypatch,
                                                     points):
        def refuse(*args, **kwargs):
            raise AssertionError("mass_history ran")
        monkeypatch.setattr(cli, "mass_history", refuse)
        code, out, err = run(capsys, "evaporate", "--mass", "1e15",
                             "--points", points)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "bhthermo evaporate: evaporate needs at least two points"]

    def test_lifetime_beyond_m0_cubed_overflow(self, capsys):
        doc = run_json(capsys, "evaporate", "--mass", "1e100", "--points", "3")
        assert doc["results"]["lifetime_s"] == pytest.approx(8.4114779e274,
                                                              rel=1e-8)
        assert all(math.isfinite(t) for t, _ in doc["rows"])

    @pytest.mark.parametrize("mass", ["1e200", "1e300"])
    def test_lifetime_beyond_float_range_exits_1(self, capsys, mass):
        code, out, err = run(capsys, "evaporate", "--mass", mass)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1


class TestBounds:
    def test_disk_report(self, capsys):
        doc = run_json(capsys, "bounds", "--mass", "16", "--radius", "6")
        assert doc["results"]["tightest_applicable"] == "gour"
        holo_bits = doc["bounds"]["holographic.limit_bits"]
        uni_bits = doc["bounds"]["universal.limit_bits"]
        assert 1e67 < holo_bits < 1e69
        assert 10**39.5 < uni_bits < 10**40.5

    def test_violation_column(self, capsys):
        doc = run_json(capsys, "bounds", "--mass", "16", "--radius", "6",
                       "--entropy", "1e50")
        assert "gour" in doc["results"]["violations"]

    @pytest.mark.parametrize("nu", ["0", "-1", "0.99", "2.5"])
    def test_nu_outside_one_to_two_exits_1(self, capsys, nu):
        assert run(capsys, "bounds", "--mass", "16", "--radius", "6",
                   "--nu", nu) == (
            1, "", f"bhthermo bounds: nu must lie in [1, 2], got {float(nu)}\n")

    def test_energy_and_mass_are_exclusive(self, capsys):
        code, _, err = run(capsys, "bounds", "--mass", "16",
                           "--energy", "1e22", "--radius", "6")
        assert code == 2

    @pytest.mark.parametrize("energy, radius", [
        (16 * CONSTANTS.c**2, 6.0),         # composite, weakly gravitating
        (1e-20, 1e-10),                     # not composite
        (5e26 * CONSTANTS.c**2, 1.0),       # not weakly gravitating
    ])
    def test_defaults_are_the_librarys(self, capsys, energy, radius):
        # no flag for nu or zeta: bound_report's defaults
        doc = run_json(capsys, "bounds", "--energy", repr(energy),
                       "--radius", repr(radius))
        report = bound_report(MaterialSystem(energy=energy, radius=radius))
        for e in report.entries:
            assert doc["bounds"][f"{e.name}.limit"] == document.round9(e.limit_nats)
            assert doc["bounds"][f"{e.name}.applicable"] == e.applicable
            assert doc["bounds"][f"{e.name}.reason"] == e.applicability_reason


class TestGedanken:
    def test_merger(self, capsys):
        doc = run_json(capsys, "gedanken", "--scenario", "merger",
                       "--m1", "1e15", "--m2", "1e15")
        assert doc["results"]["verdict"] == "satisfied"
        assert doc["results"]["delta_total"] > 0

    def test_capsule_from_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "capsule.cfg"
        path.write_text("scenario=capsule\nbh_mass=1e30\nmu=1\nb=1\ns_cap=1e30\n")
        doc = run_json(capsys, "gedanken", "--input", str(path))
        assert doc["results"]["scenario"] == "capsule_lowering"
        assert doc["results"]["verdict"] == "satisfied"

    def test_flags_override_file(self, capsys, tmp_path):
        path = tmp_path / "capsule.cfg"
        path.write_text("scenario=capsule\nbh_mass=1e30\nmu=1\nb=1\ns_cap=1e30\n")
        doc = run_json(capsys, "gedanken", "--input", str(path),
                       "--s-cap", "1e39")
        assert doc["results"]["verdict"] == "violated"

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("scenario=merger\nm1=1e15\nm2=1e15\nmm3=1\n")
        code, _, err = run(capsys, "gedanken", "--input", str(path))
        assert code == 2
        assert "mm3" in err

    def test_infall_default_zeta_is_the_librarys(self, capsys):
        argv = ["gedanken", "--scenario", "infall", "--energy", "1e10",
                "--radius", "1", "--entropy", "1", "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        code, given, err = run(capsys, *argv, "--zeta", repr(DEFAULT_ZETA))
        assert (code, without_inputs(given, "json"), err) == (
            0, without_inputs(out, "json"), "")
        report = infall_experiment(
            MaterialSystem(energy=1e10, radius=1.0, entropy=1.0), DEFAULT_ZETA)
        assert json.loads(out)["results"]["delta_total"] == document.round9(
            report.ledger.delta_total)

    def test_infall_inapplicable(self, capsys):
        doc = run_json(capsys, "gedanken", "--scenario", "infall",
                       "--energy", "8.2e-7", "--radius", "1e-17",
                       "--entropy", "1")
        assert doc["results"]["verdict"] == "inapplicable"


class TestChannel:
    def test_optical_report(self, capsys):
        doc = run_json(capsys, "channel", "--lambda-c", "5e-5",
                       "--power", "1e-3")
        assert doc["results"]["p_c_approx"] == pytest.approx(0.038, rel=2e-2)
        assert doc["results"]["regime"] == "intermediate"

    def test_frequency_alternative(self, capsys):
        # the cutoff c / frequency runs as if it were given as lambda-c
        code, out, err = run(capsys, "channel", "--frequency", "5.99584916e14",
                             "--power", "1e-3", "--format", "json")
        assert (code, err) == (0, "")
        lambda_c = repr(CONSTANTS.c / 5.99584916e14)
        code, expected, err = run(capsys, "channel", "--lambda-c", lambda_c,
                                  "--power", "1e-3", "--format", "json")
        assert without_inputs(out, "json") == without_inputs(expected, "json")
        assert json.loads(out)["inputs"] == {"frequency": 5.99584916e14,
                                             "power": 1e-3}

    def test_cutoff_required(self, capsys):
        code, _, err = run(capsys, "channel", "--power", "1e-3")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("frequency", ["0", "-0.0", "-1", "nan", "inf"])
    def test_frequency_must_be_positive_and_finite(self, capsys, frequency, fmt):
        # zero used to divide by zero (a traceback)
        code, out, err = run(capsys, "channel", f"--frequency={frequency}",
                             "--power", "1e-3", "--format", fmt)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "bhthermo channel: frequency must be positive and finite, got "
            f"{float(frequency)}"]


class TestSweep:
    def test_mass_sweep_scales_as_m_squared(self, capsys):
        doc = run_json(capsys, "sweep", "bh", "--param", "mass",
                       "--start", "1e15", "--stop", "1e18", "--points", "4",
                       "--quantity", "entropy")
        assert doc["columns"] == ["mass", "entropy"]
        rows = doc["rows"]
        for (m1, s1), (m2, s2) in zip(rows, rows[1:]):
            assert s2 / s1 == pytest.approx((m2 / m1) ** 2, rel=1e-6)

    def test_power_sweep_crosses_regimes(self, capsys):
        code, out, _ = run(capsys, "sweep", "channel", "--param", "power",
                           "--start", "1e-6", "--stop", "1e-1",
                           "--points", "12", "--lambda-c", "5e-5",
                           "--format", "csv")
        assert code == 0
        regimes = [line.rsplit(",", 1)[1] for line in out.strip().splitlines()[1:]]
        assert regimes[0] == "low"
        assert regimes[-1] == "high"
        assert "intermediate" in regimes
        # deterministic ordering: low block, then intermediate, then high
        assert regimes == sorted(regimes, key=("low", "intermediate", "high").index)

    def test_single_point_sweep(self, capsys):
        doc = run_json(capsys, "sweep", "bh", "--param", "mass",
                       "--start", "1e15", "--stop", "1e18", "--points", "1")
        assert len(doc["rows"]) == 1
        assert doc["rows"][0][0] == 1e15

    @pytest.mark.parametrize("argv, code", [
        (["--start", "1e10", "--stop", "nan"], 1),
        (["--start", "1e10", "--stop=-5"], 2),
        (["--start=-5", "--stop", "1e10"], 2),
    ])
    def test_single_point_sweep_checks_start_and_stop(self, capsys, argv, code):
        argv = ["sweep", "bh", "--param", "mass", *argv]
        one = run(capsys, *argv, "--points", "1")
        assert (one[0], one[1]) == (code, "")
        assert one == run(capsys, *argv, "--points", "2")

    @pytest.mark.parametrize("target", [
        ["bh", "--param", "mass"],
        ["channel", "--param", "power", "--lambda-c", "5e-5"],
        ["channel", "--param", "lambda_c", "--power", "1e-3"],
    ])
    @pytest.mark.parametrize("spacing", ["log", "linear"])
    @pytest.mark.parametrize("start, stop", [
        ("1e10", "nan"), ("nan", "1e10"), ("1e10", "inf"), ("1e10", "-5"),
        ("-5", "1e10")])
    def test_single_point_sweep_refuses_what_two_points_refuse(
            self, capsys, target, spacing, start, stop):
        argv = ["sweep", *target, f"--start={start}", f"--stop={stop}",
                "--spacing", spacing]
        two = run(capsys, *argv, "--points", "2")
        assert two[0] != 0
        assert run(capsys, *argv, "--points", "1") == two

    def test_empty_sweep_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "bh", "--param", "mass",
                           "--start", "1e15", "--stop", "1e18", "--points", "0")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ["bh", "--mass", "nan"],
    ["bh", "--mass", "inf"],
    ["bh", "--mass", "1e15", "--charge", "nan"],
    ["bh", "--mass", "1e15", "--spin=-inf"],
    ["channel", "--lambda-c", "5e-5", "--power", "nan"],
    ["channel", "--lambda-c", "inf", "--power", "1e-3"],
    ["channel", "--lambda-c", "5e-5", "--power", "1e-3", "--gamma-bar", "nan"],
    ["bounds", "--mass", "1", "--radius", "nan"],
    ["bounds", "--energy", "inf", "--radius", "1"],
    ["bounds", "--mass", "16", "--radius", "6", "--entropy", "inf"],
    ["evaporate", "--mass", "nan"],
    ["evaporate", "--mass", "1e15", "--n-species", "inf"],
])
def test_non_finite_input_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "finite" in err


@pytest.mark.parametrize("argv, code, message", [
    (["sweep", "channel", "--param", "lambda_c", "--start", "1e-3",
      "--stop", "-1e-1", "--power", "1"], 2,
     "bhthermo sweep: log spacing needs positive start and stop"),
    (["bh", "--mass", "-1e5"], 1, "bhthermo bh: mass must be positive, got -100000.0"),
    (["bh", "--mass", "-1.5E-3"], 1, "bhthermo bh: mass must be positive, got -0.0015"),
    (["bh", "--mass", "-.5e+2"], 1, "bhthermo bh: mass must be positive, got -50.0"),
    (["channel", "--lambda-c", "5e-5", "--power", "-1e-3"], 1,
     "bhthermo channel: power must be non-negative and finite, got -0.001"),
    (["evaporate", "--mass", "1e12", "--points", "-2e0"], 2,
     "bhthermo evaporate: error: argument --points: invalid int value: '-2e0'"),
])
def test_negative_scientific_notation_is_a_value(capsys, argv, code, message):
    # argparse alone takes a bare -1e5 for an option and reports
    # "expected one argument"; the value's own check must answer instead
    assert run(capsys, *argv) == (code, "", message + "\n")


def test_negative_scientific_notation_as_a_valid_value(capsys):
    expected = run(capsys, "bh", "--mass", "1e15", "--charge=-1e10")
    assert expected[0] == 0
    assert run(capsys, "bh", "--mass", "1e15", "--charge", "-1e10") == expected


def _help_texts() -> dict[str, str]:
    """The pinned --help outputs, at 80 columns: invocation -> text."""
    path = os.path.join(os.path.dirname(__file__), "cli_help.txt")
    with open(path) as fh:
        chunks = fh.read().split("==> ")[1:]
    return dict(chunk.split(" <==\n", 1) for chunk in chunks)


HELP_TEXTS = _help_texts()


@pytest.mark.parametrize("invocation", list(HELP_TEXTS))
def test_help_text_is_unchanged(capsys, monkeypatch, invocation):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("BHTHERMO_FORMAT", raising=False)
    argv = invocation.split()[1:]
    assert run(capsys, *argv) == (0, HELP_TEXTS[invocation], "")


def test_usage_error_is_one_line(capsys):
    assert run(capsys, "bh", "--mass", "x") == (
        2, "", "bhthermo bh: error: argument --mass: invalid float value: 'x'\n")


CAPSULE = ["gedanken", "--scenario", "capsule", "--bh-mass", "1e30",
           "--mu", "1", "--b", "1", "--s-cap", "1e30"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, flag, name", [
    (["bounds", "--mass", "16", "--radius", "6"], "--nu", "nu"),
    (["bounds", "--mass", "16", "--radius", "6"], "--zeta", "zeta"),
    (["bounds", "--mass", "16", "--radius", "6"], "--area", "enclosing area"),
    (CAPSULE, "--mu", "capsule mass mu"),
    (CAPSULE, "--b", "capsule radius b"),
    (CAPSULE, "--s-cap", "capsule entropy S_cap"),
    (["gedanken", "--scenario", "infall", "--energy", "1e10", "--radius", "1",
      "--entropy", "1"], "--zeta", "zeta"),
])
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_non_finite_parameter_is_named(capsys, argv, flag, name, value, fmt):
    code, out, err = run(capsys, *argv, f"{flag}={value}", "--format", fmt)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"bhthermo {argv[0]}: {name} must be finite, got {float(value)}"]


class TestInputFileErrors:
    @pytest.mark.parametrize("name, content", [
        ("absent.json", None),
        ("absent.cfg", None),
        ("truncated.json", '{"inputs": {"mass_g": 1e15'),
        ("not_an_object.json", "[1e15]"),
        ("binary.cfg", b"mass=\xff\xfe"),
        # int() refuses a literal above 4300 digits with a plain ValueError
        pytest.param("huge_int.json", '{"mass": ' + "1" * 5000 + "}",
                     id="huge_int.json"),
    ])
    def test_unreadable_input_exits_2(self, capsys, tmp_path, name, content):
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content)
        elif content is not None:
            path.write_bytes(content)
        code, out, err = run(capsys, "bh", "--input", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert str(path) in err


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(bhthermo.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))


def without_inputs(out, fmt):
    """stdout less its inputs: the JSON ``inputs`` object and its entries
    in ``units``, or the table and CSV rows of ``inputs``.  What a record
    echoes is pinned apart from the rest of it."""
    if fmt == "json":
        out = re.sub(r'\n  "inputs": \{\n.*?\n  \},', "", out, count=1, flags=re.S)
        return re.sub(r'\n    "inputs\.[^\n]*', "", out)
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("inputs."))


def output_hash(out, fmt):
    return hashlib.sha256(without_inputs(out, fmt).encode()).hexdigest()


#: sha256 of stdout less its inputs (``output_hash``) for fixed 20k-point
#: series, the rows as the eager renderer (json.dumps(indent=2) over every
#: row) wrote them before the fast writers.
GOLDEN_SERIES = {
    ("sweep bh --param mass --start 1e15 --stop 1e25 --points 20000 "
     "--quantity entropy"): {
        "table": "45ea5e4cb4e7f8a4bb4b72a2e27a3aa4062abb74eec9504078df4705ce59e69c",
        "json": "770eb50a2a98895df41e6ea72b2d1c6b745ac4ba980d730117bdb1ac0a295402",
        "csv": "f6374686e86d162721df0af3cae42eeae60b1244b51c653c508e680c6d1feeb1",
    },
    ("sweep channel --param power --start 1e-6 --stop 1e-1 --points 20000 "
     "--lambda-c 5e-5"): {
        "table": "407279741c6cffa4326436508e9bfba51dde36691e753461562b1c6f33427729",
        "json": "35d9fae5ffdc61ec23a1b19cfa83421a7c59bbb010468c2099733fa4649ce74f",
        "csv": "f3d7e9ae0b4b377dc207f2bc3aca74290bb6b504e57496ebf21986a369df726f",
    },
    "evaporate --mass 1e15 --points 20000": {
        "table": "1f32e36e1453c7fca98c64b80b73e9d05bcd55b5d78cf16fd9f4cb48bf9a3285",
        "json": "f2dca5ead251de3102ecfb310406a1e8ea91328743f4046cbf395f6d097b496b",
        "csv": "f4c554dc1f17b45645ba29c2d3a729fadb171cd0d276e6132bebeaf4ef00e225",
    },
    # The two below were taken from the per-point regime dispatch, the
    # mapped horizon kernels and the three-conversion JSON cells, before
    # the regime runs, the horizon comprehensions and the one-call cells.
    # A descending power sweep through all three regimes down to P = 0:
    ("sweep channel --param power --start 2e-3 --stop 0 --points 20000 "
     "--spacing linear --lambda-c 5e-5"): {
        "table": "3154341269b0c62fdd37815c607d1c96501dbf1a01461c271b9335d8d270df52",
        "json": "38b722c4b68602c24fa55fd44cae27f1456504f9affc9c1f71d773132ea1c4d4",
        "csv": "ed716167565dd7411750ee23305509447649a0d808cdd81dfd141baee00f65fb",
    },
    # A Kerr-Newman hole whose mass column crosses 1e8, where JSON's
    # shortest form turns from one-call cells to fixed-notation ones:
    ("sweep bh --param mass --start 1e7 --stop 1e9 --points 20000 "
     "--spacing linear --charge 1e3 --spin 1e-4 --quantity temperature_kelvin"): {
        "table": "7e1c1f422d0b533d7f88a7d640d29278eba26c36027ed66bc70eb6b1962af0be",
        "json": "f4ba0928b89f0526a50ccf346579b830b6568ac6440922f905a76a05a75a0518",
        "csv": "b39750a0de7066b9f7b1de6246a47ec41e53b36d7827742833ca7c676d216ad5",
    },
}


def count_pieces(monkeypatch):
    """A list that gains, for each document written, how many pieces
    ``Document.blocks`` yielded."""
    counts = []
    blocks = document.Document.blocks

    def counted(self, fmt):
        counts.append(0)
        for piece in blocks(self, fmt):
            counts[-1] += 1
            yield piece

    monkeypatch.setattr(document.Document, "blocks", counted)
    return counts


@pytest.mark.parametrize("command", list(GOLDEN_SERIES))
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("block_rows", [1, 7, 4096])
def test_series_output_is_byte_identical(capsys, monkeypatch, command, fmt,
                                         block_rows):
    # the rows are written in blocks; 4096 does not divide 20,000
    monkeypatch.setattr(document, "BLOCK_ROWS", block_rows)
    pieces = count_pieces(monkeypatch)
    code, out, err = run(capsys, *command.split(), "--format", fmt)
    assert code == 0, err
    assert output_hash(out, fmt) == GOLDEN_SERIES[command][fmt]
    # a head, the rows block by block, a tail: the writer read the patch
    assert pieces == [2 + math.ceil(20000 / block_rows)]


#: The sha256 of stdout less its inputs (``output_hash``) of one scalar
#: record per branch of each subcommand, in every format: the value rows,
#: their units and, in JSON, the order of the units object (a gedanken
#: record lists its ledger before results.delta_total).
GOLDEN_RECORDS = {
    "constants": {
        "table": "08f9130be8713859acc7380030c344e8f8d5fe6095b5fc3a6645c96f94f39c40",
        "json": "b6f912969dbac4e47e1544ed5cd1f049f869fcfa460e622ff9f3f13bb247127a",
        "csv": "25c737d32e52b2f156e7ff88c528d80c1b912dbf841d397f255a8c45ee5143d9",
    },
    "bh --mass 1e15": {
        "table": "382d9c491bb01cc08c4199a838450bd27d4846847623ba5b1e9da9332dc1967e",
        "json": "a49d293faee034222317563015664f447967af1edd24e855b2606f12df110a4d",
        "csv": "552affaf568dfb901b7637da53f6a20dd8498a578ae1b325fe1899144c4c5d65",
    },
    "bh --mass 1e15 --charge-over-m 0.3 --spin-over-m 0.4": {
        "table": "0bbd050e4d5a4109411625ef0a43586851d72b03bc0754aac27d10d39a1a94e9",
        "json": "bb94c8938b9f4c8b59128f9098eb28426a94b74f74a0baef6ebf6b535e94c429",
        "csv": "f71a29b029cd60b8e845213b19ff8b80ce3fb016f9d59c8264443019398edd90",
    },
    "bh --mass 1 --charge-over-m 1": {
        "table": "7290d22c6cfe3ce9baa13e8c6b635a98dd2785a0deffc3250bfa104eb9534c26",
        "json": "d109f9ccb3cd6c5183979a4c0f8d253c3aef149ebf45e9d51a6be7ebe129cbe9",
        "csv": "a8014b1433af33f882f85dd11a2ced8837f654652306348158e1b4725dab0af2",
    },
    "evaporate --mass 1e15 --points 3 --n-species 3": {
        "table": "e8d5e07f2c3054fb14432378bb356cf0391eb66d0b970537b5ad24b525a51328",
        "json": "adc6ff4621e204627c66edf84ced68672289edbebbff1e219d8a1bbb818097cf",
        "csv": "46d940de0795b25d512f3b787adec03012ca6d40c167d4053e1adf0d15c0732f",
    },
    "bounds --energy 1e20 --radius 10": {
        "table": "c48800eb984c8769c49d742a5b584e94a148a211d5dd6cc9dd4bb3e16934aee8",
        "json": "002cea5bc3b8c2b4aed81851eea5d2a3df649c1015c018fc309f9fdb5fa05c71",
        "csv": "108039969ccaf5acd639489b9dc4dfc92e41072b50308af31f8ba42017ab4928",
    },
    "bounds --energy 1e20 --radius 10 --entropy 1e3": {
        "table": "c48800eb984c8769c49d742a5b584e94a148a211d5dd6cc9dd4bb3e16934aee8",
        "json": "002cea5bc3b8c2b4aed81851eea5d2a3df649c1015c018fc309f9fdb5fa05c71",
        "csv": "108039969ccaf5acd639489b9dc4dfc92e41072b50308af31f8ba42017ab4928",
    },
    "bounds --mass 16 --radius 6 --entropy 1e3 --nu 1.5 --zeta 20": {
        "table": "358e86271df38407e3473e8f23b835096c7da73045c038b921feb3eacd9e3b76",
        "json": "a5ad17f8d0a932c81af7534118bc51722e74b7ec43756199d24002b02d13eef6",
        "csv": "4d9153a4bea73dcd3a851e62c73d68c3734b98d9496988a03ea5d7d04edd2375",
    },
    "bounds --energy 1e20 --radius 10 --area 2000": {
        "table": "218f28fe9dbdbf33ac167951adfd4943b8c990620759baaeb57781a0e26e7969",
        "json": "61df8808384c62f9d094c2782fc65e2d313c6ec1c03ec6d6a0dce4ac4057da46",
        "csv": "1707c8b0b7356e9244286185141a345169693938e503a599f2e974afd4184067",
    },
    "channel --lambda-c 5e-5 --power 0": {
        "table": "cdd13a3cb5c997d7f44d73f136037a66699b72fdf31bcc7c1a0ad7796cfd2c19",
        "json": "9c3d1a4c98553c4a10475d86f902c34d4eca6cde79313f7c75b1fec52a08d858",
        "csv": "88408a1e7294e99d2761c2d1ee9906c72752198badc293031539bff60c2dc7af",
    },
    "channel --lambda-c 5e-5 --power 1e-6": {
        "table": "9054fecf2fa31b00d96fe9abea3ea777a8ea1fb1bac4452154b01033b11162ce",
        "json": "8f8b676122c3d2aff7b17677dbedd39823403e4c530844fc0740abfe60da8968",
        "csv": "1eaaa685905fc80cdcfb552ab271e5632c2001f10608c032b7ac8b420b7f1138",
    },
    "channel --lambda-c 5e-5 --power 1e-3": {
        "table": "75a1fe9f49616bc7c2d71724bee00c73a16fa3403b4134110f94dc17f68a341d",
        "json": "c2da014cd33a74d7f5b6e120f578e5f20600244350e6ddbac6495f180039e38b",
        "csv": "e06d1ac2d32686df85c52213fcb9b88c30e0221989044f05114503aabebab79d",
    },
    "channel --lambda-c 5e-5 --power 1": {
        "table": "4ec89183f4ebdd075153c7f6479cb873bac8f18c509926c2e34b18d4073c3882",
        "json": "4da906f78c3713cfee144e196b8713079d96c6a4d763bd08401a21355d29e1df",
        "csv": "84c17610f91c446416c36df148ba2f7dcbf36892c34d9edde0d1d7ef4e470055",
    },
    ("channel --frequency 6e14 --power 1e-3 --n-carriers 2 --nu 1.5 "
     "--gamma-bar 2 --n-species 3"): {
        "table": "d53cf0a51e01d7c06865e8262697ffe974a67d17e79a137644bdcf2f15dbeb7f",
        "json": "ad248ca92dea243aad4bff91152e9c5c616f306993c58dfb8c70d76a54216b63",
        "csv": "6255ca68c2563904f9471b0dc0f17fef687009f963aa0bf83fe464ecd7faee20",
    },
    "gedanken --scenario susskind --energy 1e30 --radius 1 --entropy 1 --area 20": {
        "table": "a069ed5c67af9163c9f7778019b1d2394c960b55c9f4a0ec0bf641e677d7e4a1",
        "json": "d45a158ef62608be0489b76f60b6d39a31e48a0e7a5c4e99c50d01f9df306c20",
        "csv": "475af47ecf52c7ff6119a13117ec67a3fdab08a6d3b59ab628e5b2bb87f28d95",
    },
    ("gedanken --scenario capsule --bh-mass 1e30 --bh-charge 1e25 --bh-spin "
     "1e42 --mu 1 --b 1 --s-cap 1e30"): {
        "table": "cf2c75c957547b2e0a93cd12b66cd2b38b8f57d3030fc10d179ae58cf9881c17",
        "json": "514234fe3cc2a35bd92951d5fd6a98f14e6b060402effd4977b03f2916fcdb2a",
        "csv": "2ca524a80eccc972411abd9e985f4a700961d3a2a1705b6b1d7985a5d900ef85",
    },
    ("gedanken --scenario infall --energy 1e10 --radius 1 --entropy 1 --zeta "
     "10 --nu 1.2 --gamma-bar 3 --n-species 2"): {
        "table": "8c23ddce4f0ed9be6f16b587f4a29ef9c6fb27e951ae278b88b0d19bc6299b24",
        "json": "ce627f9acc34f4696e58dcdb8fe3cd6a2cd675bedaa0121532fe672123db5fa7",
        "csv": "06becd75f3a6faff39ae4030d464171a6aa7df99443016b1b1078f39ce3e2eff",
    },
    "gedanken --scenario infall --energy 1e10 --radius 1 --entropy 1 --bh-mass 1e30": {
        "table": "35b74d4ffff0a9baa62f8a115fcfbef504ab7fddb858ae706e8139a425739f84",
        "json": "d2d32a7526b4eeec425b10168f000ea0919d3435e6b1a968647e5749474afe1f",
        "csv": "464209ca31d63bba1c3ed58e6dbf7ea58d6af76f03c1e7b40265fe42263723df",
    },
    "gedanken --scenario merger --m1 1e15 --m2 2e15": {
        "table": "a84b42d9893a6d532f106abed2267e68484020134e22ee98a2a671121ffd34f0",
        "json": "83b0f129e22fefd78fcd88b3e9da65a5a7768b110f58b65b321ac673f63619f2",
        "csv": "cd21a95f4e00d7322b3e2a35b021f9008ccaa24ffa949e20e59b62b290590b46",
    },
}


@pytest.mark.parametrize("command", list(GOLDEN_RECORDS))
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_record_output_is_byte_identical(capsys, command, fmt):
    code, out, err = run(capsys, *command.split(), "--format", fmt)
    assert (code, err) == (0, "")
    assert output_hash(out, fmt) == GOLDEN_RECORDS[command][fmt]


#: Refusals that reach the output guard, naming an output rather than an
#: input, with their one stderr line.
GUARDED_REFUSALS = {
    # G E/(c^4 R) overflows where E/R is above ~2.2e357 erg cm^-1
    "bounds --energy 1e300 --radius 1e-150":
        "bhthermo bounds: results.weak_gravity_ratio is inf, beyond the float range",
}


@pytest.mark.parametrize("command", list(GUARDED_REFUSALS))
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_guarded_refusals_keep_their_line(capsys, command, fmt):
    code, out, err = run(capsys, *command.split(), "--format", fmt)
    assert (code, out) == (1, "")
    assert err == GUARDED_REFUSALS[command] + "\n"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_a_non_finite_cell_in_the_last_block_writes_nothing(capsys, monkeypatch,
                                                            fmt):
    # the entropy in bits of the last of ten holes, alone in the last block
    # of four rows, is beyond the float range; the others are finite.  The
    # kernel, less its own refusal, leaves that inf to the document's guard
    monkeypatch.setitem(cli.BH_SWEEP_QUANTITIES, "entropy_bits",
                        lambda m, M, Q, a, r: entropies_in_bits(
                            kerr_newman.entropies(kerr_newman.horizon_areas(r, a))))
    monkeypatch.setattr(document, "BLOCK_ROWS", 4)
    pieces = count_pieces(monkeypatch)
    argv = ["sweep", "bh", "--param", "mass", "--start", "1e147", "--stop",
            "7.5e148", "--points", "10", "--quantity", "entropy_bits"]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["bhthermo sweep: entropy_bits at mass = 7.5e+148 "
                                "is inf, beyond the float range"]
    # stopping short of it, every row is written, in three blocks
    code, out, err = run(capsys, *argv[:7], "5e148", *argv[8:], "--format", fmt)
    assert code == 0, err
    assert len(out.splitlines()) > 10
    assert pieces == [0, 2 + 3]


class TestOverflow:
    """Finite inputs whose results leave the float range exit 1 with one
    stderr line, in every format: no traceback, no inf or nan printed."""

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("argv, where", [
        (["bh", "--mass", "1e200"], "mass 1e+200 g puts the horizon radius"),
        (["bh", "--mass", "1e183"], "mass 1e+183 g puts the horizon radius"),
        (["bh", "--mass", "1e183", "--charge", "1e10", "--spin", "1e10"],
         "mass 1e+183 g puts the horizon radius"),
        (["sweep", "bh", "--param", "mass", "--start", "1e183", "--stop", "1e184",
          "--points", "2", "--quantity", "temperature"],
         "mass 1e+183 g puts the horizon radius"),
        (["gedanken", "--scenario", "merger", "--m1", "1.7e308", "--m2", "1e15"],
         "mass 1.7e+308 g puts the horizon radius"),
        (["bh", "--mass", "1e150"], "horizon area 2.77203e+245 cm^2 puts the entropy"),
        (["bh", "--mass", "1.5e182"], "horizon radius 2.22785e+154 cm"),
        (["sweep", "bh", "--param", "mass", "--start", "1e181",
          "--stop", "1e183", "--points", "5", "--quantity", "area"],
         "horizon radius 4.69672e+153 cm"),
        (["bh", "--mass", "5e181"], "horizon radius 7.42616e+153 cm"),
        (["channel", "--power", "1e300", "--lambda-c", "1e300"], "cutoff"),
        (["channel", "--power", "1", "--lambda-c", "1e-300"], "cutoff"),
        (["channel", "--power", "1", "--lambda-c", "1e-160"],
         "cutoff wavelength 1e-160 cm"),
        (["channel", "--power", "1e-3", "--lambda-c", "5e-5", "--gamma-bar", "1e300"],
         "gamma_bar 1e+300 and n_species 1 put"),
        (["channel", "--power", "1e-3", "--lambda-c", "5e-5", "--n-species", "1e300"],
         "gamma_bar 2 and n_species 1e+300 put"),
        # the first cutoff whose P_c overflows, before lambda_c^2 vanishes
        (["sweep", "channel", "--param", "lambda_c", "--start", "1e-159",
          "--stop", "1e-170", "--points", "12", "--power", "1"],
         "cutoff wavelength 1e-160 cm"),
        (["sweep", "channel", "--param", "power", "--start", "1e-3", "--stop", "1",
          "--lambda-c", "1e-160"], "cutoff wavelength 1e-160 cm"),
        (["sweep", "channel", "--param", "power", "--start", "1e-3", "--stop", "1",
          "--lambda-c", "5e-5", "--gamma-bar", "1e300"], "gamma_bar 1e+300"),
        (["evaporate", "--mass", "1e12", "--n-species", "1e300", "--points", "3"],
         "n_species 1e+300 puts the evaporation rate constant"),
        (["channel", "--power", "1e300", "--lambda-c", "1"],
         "cutoff wavelength 1 cm and power 1e+300 erg s^-1 put the information-rate"),
        (["channel", "--power", "1e-320", "--lambda-c", "5e-5"],
         "power 1e-320 erg s^-1 puts the sqrt law's optimal xi"),
        (["bounds", "--energy", "1", "--radius", "1e200"], "radius"),
        (["sweep", "bh", "--param", "mass", "--start", "1e150",
          "--stop", "1e160", "--points", "3", "--quantity", "entropy"],
         "horizon area 2.77203e+245 cm^2 puts the entropy"),
        # a temperature of 0 while the area is inf
        (["sweep", "bh", "--param", "mass", "--start", "3e181",
          "--stop", "5e181", "--points", "3", "--quantity", "temperature"],
         "horizon radius 4.4557e+153 cm puts the horizon area"),
        (["evaporate", "--mass", "1e112"], "initial mass 1e+112 g puts the lifetime"),
        (["gedanken", "--scenario", "infall", "--zeta", "1e200",
          "--energy", "1e10", "--radius", "1", "--entropy", "1"],
         "zeta = 1e+200"),
        (["gedanken", "--scenario", "infall", "--bh-mass", "1e200",
          "--energy", "1e10", "--radius", "1", "--entropy", "1"],
         "mass 1e+200 g puts the horizon radius"),
    ])
    def test_exits_1(self, capsys, argv, where, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert where in err
        assert "float range" in err


class TestSusskindArea:
    """The enclosing area of the collapse scenario must be positive and
    finite; it is rejected by name, not through the output."""

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("area", ["inf", "nan", "-5", "0"])
    def test_exits_1(self, capsys, area, fmt):
        code, out, err = run(capsys, "gedanken", "--scenario", "susskind",
                             f"--area={area}", "--energy", "1e30",
                             "--radius", "1", "--entropy", "1", "--format", fmt)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "bhthermo gedanken: enclosing area must be positive and finite, "
            f"got {float(area)}"]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_reader_closing_early_exits_2(fmt):
    """A reader that stops after one line (``| head -1``) gets exit 2 and
    one stderr line: no traceback, no 'Exception ignored' at shutdown."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "bhthermo.cli", "evaporate", "--mass", "1e15",
         "--points", "100000", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2, err
    assert first.strip()
    assert err.splitlines() == [
        "bhthermo evaporate: standard output closed before the output was "
        "complete"]


class TestPointsCap:
    """Above MAX_POINTS a series is refused before any grid is built."""

    @pytest.fixture(autouse=True)
    def no_grids(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid was built")
        for name in ("linspace", "geomspace", "mass_history"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv", [
        ["sweep", "bh", "--param", "mass", "--start", "1e15", "--stop", "1e18"],
        ["sweep", "channel", "--param", "power", "--start", "1e-6",
         "--stop", "1e-1", "--lambda-c", "5e-5", "--spacing", "linear"],
        ["evaporate", "--mass", "1e15"],
    ])
    @pytest.mark.parametrize("points", [cli.MAX_POINTS + 1, 10**11])
    def test_above_the_cap_exits_2(self, capsys, argv, points):
        code, out, err = run(capsys, *argv, "--points", str(points))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"bhthermo {argv[0]}: {points} points is above the limit of "
            f"{cli.MAX_POINTS}"]

    def test_cap_applies_to_input_files(self, capsys, tmp_path):
        path = tmp_path / "evap.cfg"
        path.write_text(f"mass=1e15\npoints={cli.MAX_POINTS + 1}\n")
        code, _, err = run(capsys, "evaporate", "--input", str(path))
        assert code == 2
        assert "above the limit" in err

    def test_the_cap_itself_is_allowed(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "geomspace", lambda start, stop, n: [start, stop])
        code, _, err = run(capsys, "sweep", "bh", "--param", "mass",
                           "--start", "1e15", "--stop", "1e18",
                           "--points", str(cli.MAX_POINTS))
        assert code == 0, err
