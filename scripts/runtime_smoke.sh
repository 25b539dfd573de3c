#!/usr/bin/env bash
# Smoke test of the command line with only the runtime installed (no test
# extras): every subcommand in every format exits 0, every `--help` exits 0,
# rejected requests exit 1 and 2, and a 100k-point series whose reader stops
# after one line (`| head -1`) exits 2, as does a request whose stdout cannot
# be written (`> /dev/full`), `--help` with PYTHONUNBUFFERED=1 among them.
# No run may write a Python traceback to stderr, and every JSON series must
# load as strict JSON (no NaN or Infinity).  A request refused at a float
# edge must exit 1 with one stderr line that names the input which crossed
# it.  An emitted JSON record of every subcommand that takes `--input`, fed
# back through it (a sweep's target stays on the command line), must print
# what the direct run prints in every format, and a bad choice in an
# `--input` file exits 2 as the flag does, as does a parameter the request
# would not read.  Each flag of each subcommand is set by at least one
# request here (a test of the parameter tables keeps that).
# Under `-X importtime` (`PYTHONPROFILEIMPORTTIME=1` for the console
# script), `--help`, a usage error and one request per subcommand must not
# import `dataclasses` or `argparse`, and `--help` imports no formula module
# and no `json`.
# Every case runs twice: through `python -m bhthermo.cli` and
# through the `bhthermo` console script, whose import path differs (it
# imports the package, then `bhthermo.cli`, then calls `entrypoint`).
#
#   bash scripts/runtime_smoke.sh                  # the installed package
#   PYTHONPATH=src bash scripts/runtime_smoke.sh   # a source checkout
#
# Without a `bhthermo` script on PATH (a source checkout) the console-script
# runs call the same entry point through `python -c`.
set -u

err=$(mktemp)
out=$(mktemp)
direct=$(mktemp)
record=$(mktemp --suffix=.json)
input=$(mktemp --suffix=.cfg)
trap 'rm -f "$err" "$out" "$direct" "$record" "$input"' EXIT
failures=0
strict=0

if command -v bhthermo > /dev/null; then
    console=(bhthermo)
else
    echo "no bhthermo on PATH: calling bhthermo.cli:entrypoint through python -c"
    console=(python -c 'import sys; from bhthermo.cli import entrypoint
sys.argv[0] = "bhthermo"; sys.exit(entrypoint())')
fi

report() {  # expected exit code, actual exit code, the arguments of the run
    local expected=$1 code=$2
    shift 2
    if [ "$code" -ne "$expected" ] || grep -q "Traceback" "$err"; then
        echo "FAIL (exit $code, expected $expected): $*"
        sed 's/^/    /' "$err"
        failures=$((failures + 1))
    fi
}

strict_json() {  # the arguments of the run whose stdout is in $out
    case " $* " in
        *" --format json "*) ;;
        *) return ;;
    esac
    python -c 'import json, sys
def refuse(token):
    raise ValueError(f"{token} is not strict JSON")
json.load(sys.stdin, parse_constant=refuse)' < "$out" 2> "$err"
    report 0 $? "$@" "(strict JSON)"
}

run() {  # expected exit code, then the arguments of one run
    local expected=$1
    shift
    python -m bhthermo.cli "$@" > "$out" 2> "$err"
    report "$expected" $? python -m bhthermo.cli "$@"
    [ "$strict" -eq 1 ] && strict_json python -m bhthermo.cli "$@"
    "${console[@]}" "$@" > "$out" 2> "$err"
    report "$expected" $? bhthermo "$@"
    [ "$strict" -eq 1 ] && strict_json bhthermo "$@"
}

refuse() {  # the text the one stderr line must hold, then the arguments
    one_line 1 "$out" "$@"
}

one_line() {  # expected exit code, the file stdout goes to, then as refuse
    local expected=$1 sink=$2 text=$3 entry
    shift 3
    for entry in module console; do
        if [ "$entry" = module ]; then
            python -m bhthermo.cli "$@" > "$sink" 2> "$err"
        else
            "${console[@]}" "$@" > "$sink" 2> "$err"
        fi
        report "$expected" $? "$entry:" "$@"
        if [ "$(wc -l < "$err")" -ne 1 ] || ! grep -qF -- "$text" "$err"; then
            echo "FAIL (stderr is not one line naming '$text'): $entry: $*"
            sed 's/^/    /' "$err"
            failures=$((failures + 1))
        fi
    done
}

series() {  # the arguments of one series run: exit 0, and strict JSON
    strict=1
    run 0 "$@"
    strict=0
}

refeed() {  # the arguments of one run whose JSON record must re-feed
    local fmt words=("$1")
    [ "$1" = sweep ] && words+=("$2")     # the target, before --input
    python -m bhthermo.cli "$@" --format json > "$record" 2> "$err"
    report 0 $? python -m bhthermo.cli "$@" --format json
    for fmt in table json csv; do
        python -m bhthermo.cli "$@" --format "$fmt" > "$direct" 2> "$err"
        report 0 $? python -m bhthermo.cli "$@" --format "$fmt"
        "${console[@]}" "${words[@]}" --input "$record" --format "$fmt" > "$out" 2> "$err"
        report 0 $? bhthermo "${words[@]}" --input "$record" --format "$fmt"
        if ! cmp -s "$direct" "$out"; then
            echo "FAIL (re-fed record prints otherwise): $* --format $fmt"
            failures=$((failures + 1))
        fi
    done
}

check_imports() {  # the arguments of the run whose -X importtime log is in $err
    local refused='dataclasses|argparse'
    case " $* " in
        *" --help "*)
            refused+='|json|bhthermo[.](kerr_newman|bounds|channel|evaporation|gedanken|grids)';;
    esac
    if grep -Eq "[|] +($refused)\$" "$err"; then
        echo "FAIL (imports one of $refused): $*"
        failures=$((failures + 1))
    fi
}

footprint() {  # expected exit code, then the arguments of one import-checked run
    local expected=$1
    shift
    python -X importtime -m bhthermo.cli "$@" > /dev/null 2> "$err"
    report "$expected" $? python -X importtime -m bhthermo.cli "$@"
    check_imports python -m bhthermo.cli "$@"
    PYTHONPROFILEIMPORTTIME=1 "${console[@]}" "$@" > /dev/null 2> "$err"
    report "$expected" $? PYTHONPROFILEIMPORTTIME=1 bhthermo "$@"
    check_imports bhthermo "$@"
}

footprint 0 --help
footprint 0 bh --help
footprint 2 bh --mas 1e15
footprint 2 sweep --param mass bh
footprint 0 constants
footprint 0 bh --mass 1e15 --charge-over-m 0.3
footprint 0 evaporate --mass 1e12 --points 10 --format json
footprint 0 bounds --mass 16 --radius 6
footprint 0 gedanken --scenario infall --energy 1e10 --radius 1 --entropy 1
footprint 0 channel --lambda-c 5e-5 --power 1e-3
footprint 0 sweep channel --param power --start 1e-6 --stop 1e-1 \
    --lambda-c 5e-5
footprint 0 sweep bh --param mass --start 1e15 --stop 1e18 --format csv

run 0 --help
for sub in constants bh evaporate bounds gedanken channel sweep; do
    run 0 "$sub" --help
done

for fmt in table json csv; do
    run 0 constants --format "$fmt"
    run 0 bh --mass 1e15 --charge-over-m 0.3 --spin-over-m 0.4 --format "$fmt"
    series evaporate --mass 1e12 --points 100 --format "$fmt"
    run 0 bounds --mass 16 --radius 6 --entropy 1e3 --format "$fmt"
    run 0 gedanken --scenario susskind --energy 1e30 --radius 1 --entropy 1 \
        --format "$fmt"
    run 0 gedanken --scenario capsule --bh-mass 1e30 --mu 1 --b 1 \
        --s-cap 1e30 --format "$fmt"
    run 0 gedanken --scenario infall --energy 1e10 --radius 1 --entropy 1 \
        --zeta 10 --format "$fmt"
    run 0 gedanken --scenario merger --m1 1e15 --m2 1e15 --format "$fmt"
    run 0 channel --lambda-c 5e-5 --power 1e-3 --format "$fmt"
    series sweep bh --param mass --start 1e15 --stop 1e18 --points 50 \
        --quantity temperature --format "$fmt"
    # a Kerr-Newman hole whose mass column crosses 1e8
    series sweep bh --param mass --start 1e7 --stop 1e9 --points 200 \
        --spacing linear --charge 1e3 --spin 1e-4 --format "$fmt"
    series sweep channel --param power --start 1e-6 --stop 1e-1 --points 200 \
        --lambda-c 5e-5 --format "$fmt"
    # a descending power sweep through all three regimes down to P = 0
    series sweep channel --param power --start 2e-3 --stop 0 --points 200 \
        --spacing linear --lambda-c 5e-5 --format "$fmt"
    series sweep channel --param lambda_c --start 1e-5 --stop 1e-3 \
        --points 200 --power 1e-3 --format "$fmt"
    run 1 bh --mass 1e-10 --format "$fmt"
    # float edges: the refusal names the input, not an output field
    refuse "cutoff wavelength" channel --lambda-c 1e-160 --power 1 \
        --format "$fmt"
    # P_c fits, its round-number form 1e-4 c^2 hbar / lambda_c^2 does not
    refuse "cutoff wavelength" channel --lambda-c 6e-160 --power 1 \
        --format "$fmt"
    refuse "gamma_bar" channel --lambda-c 5e-5 --power 1e-3 --gamma-bar 1e300 \
        --format "$fmt"
    refuse "n_species" evaporate --mass 1e12 --n-species 1e300 --format "$fmt"
    refuse "horizon radius" bh --mass 1e183 --format "$fmt"
    # r_plus^2 fits, the horizon area 4 pi r_plus^2 does not
    refuse "horizon radius" bh --mass 5e181 --format "$fmt"
    # a naked hole whose Q^2 and M^2 both overflow
    refuse "horizon radius" bh --mass 1.35e228 --charge 3.5e274 --format "$fmt"
    # R^2 fits, the sphere's area 4 pi R^2 does not
    refuse "radius 5e+153 cm" bounds --energy 1 --radius 5e153 --format "$fmt"
    refuse "radius 5e+153 cm" gedanken --scenario susskind --energy 1 \
        --radius 5e153 --entropy 0 --format "$fmt"
    # the area fits, its holographic limit A / (4 l_P^2) in bits does not
    refuse "radius 1e+125 cm" bounds --energy 1 --radius 1e125 --format "$fmt"
    refuse "area 1e+250 cm^2" bounds --energy 1 --radius 1 --area 1e250 \
        --format "$fmt"
    # a host hole smaller than the system, whose M/R squared underflows to 0
    refuse "host hole of mass 1e+30 g" gedanken --scenario infall --energy 1e10 \
        --radius 1e250 --entropy 1 --bh-mass 1e30 --format "$fmt"
    # the capsule's minimal entropy gain 2 pi mu b c / hbar overflows
    refuse "capsule mass mu 1e+157 g and radius b 1e+131 cm" gedanken \
        --scenario capsule --bh-mass 1e160 --mu 1e157 --b 1e131 --s-cap 1 \
        --format "$fmt"
    # the capsule's size and mass ratios r_plus/b and m/mu overflow
    refuse "capsule radius b 1e-307 cm" gedanken --scenario capsule \
        --bh-mass 1e30 --mu 1 --b 1e-307 --s-cap 1 --format "$fmt"
    refuse "capsule mass mu 1e-279 g" gedanken --scenario capsule \
        --bh-mass 1e30 --mu 1e-279 --b 1 --s-cap 1 --format "$fmt"
    # the radiated entropy nu E/T of the infall overflows
    refuse "energy 1e+290 erg" gedanken --scenario infall --energy 1e290 \
        --radius 1 --entropy 1 --format "$fmt"
    # the Pendry capacity and crossover power, and the linear, sqrt-law and
    # two-term bounds, overflow; each bound names the inputs it reads
    refuse "power 1e+283 erg s^-1" channel --lambda-c 1e-5 --power 1e283 \
        --format "$fmt"
    refuse "n_carriers 1e+300 and cutoff wavelength 1e-10 cm" channel \
        --lambda-c 1e-10 --power 0 --n-carriers 1e300 --format "$fmt"
    refuse "cutoff wavelength 1e+20 cm and power 1e+275" channel \
        --lambda-c 1e20 --power 1e275 --format "$fmt"
    refuse "power 1e+300 erg s^-1 and gamma_bar 2 and n_species 1" channel \
        --lambda-c 1e-158 --power 1e300 --format "$fmt"
    refuse "power 1e+200 erg s^-1 and gamma_bar 1e+100 and n_species 1" \
        channel --lambda-c 1e-100 --power 1e200 --gamma-bar 1e100 --format "$fmt"
    refuse "cutoff wavelength 1e-15 cm and power 1e+305 erg s^-1 and gamma_bar" \
        channel --lambda-c 1e-15 --power 1e305 --gamma-bar 1e287 --format "$fmt"
    refuse "cutoff wavelength 6.25055e+09 cm and power 1e+280" sweep channel \
        --param lambda_c --start 1 --stop 1e30 --power 1e280 --format "$fmt"
    # a sweep names its first refused row, here by its bound, not a later
    # row by its characteristic power
    refuse "cutoff wavelength 1e+100 cm and power 1e+200" sweep channel \
        --param lambda_c --start 1e100 --stop 1e160 --power 1e200 --points 50 \
        --format "$fmt"
    # the weak-gravity ratio G E/(c^4 R) overflows, in a report or a check
    refuse "energy 1e+300 erg and radius 1e-150 cm" bounds --energy 1e300 \
        --radius 1e-150 --format "$fmt"
    refuse "energy 1e+250 erg and radius 1e-150 cm" gedanken --scenario infall \
        --energy 1e250 --radius 1e-150 --entropy 1 --zeta 1e150 --format "$fmt"
    # the weak universal bound in bits, the largest bound, overflows
    refuse "energy 8.98755e+291 erg and radius 6 cm" bounds --mass 1e271 \
        --radius 6 --format "$fmt"
    refuse "energy 1e+291 erg and radius 1 cm" bounds --energy 1e291 \
        --radius 1 --format "$fmt"
    # the entropy fits, its value in bits does not
    refuse "horizon area 1.55927e+243 cm^2" bh --mass 7.5e148 --format "$fmt"
    refuse "horizon area 1.55927e+243 cm^2" sweep bh --param mass \
        --start 1e147 --stop 7.5e148 --points 10 --quantity entropy_bits \
        --format "$fmt"
    run 2 bh --format "$fmt"
    # a bare negative number in scientific notation is a value (a domain
    # error here, exit 1), not a flag the parser rejects (exit 2)
    run 1 sweep channel --param lambda_c --start 1e-3 --stop -1e-1 --power 1 \
        --spacing linear --format "$fmt"

    python -m bhthermo.cli evaporate --mass 1e15 --points 100000 \
        --format "$fmt" 2> "$err" | head -1 > /dev/null
    report 2 "${PIPESTATUS[0]}" python -m bhthermo.cli evaporate --points 100000 \
        --format "$fmt" "| head -1"
    "${console[@]}" evaporate --mass 1e15 --points 100000 \
        --format "$fmt" 2> "$err" | head -1 > /dev/null
    report 2 "${PIPESTATUS[0]}" bhthermo evaporate --points 100000 \
        --format "$fmt" "| head -1"
    # a failed write to stdout is one stderr line and exit 2
    if [ -w /dev/full ]; then
        one_line 2 /dev/full "cannot write standard output" bh --mass 1e15 \
            --format "$fmt"
        one_line 2 /dev/full "cannot write standard output" sweep bh \
            --param mass --start 1e15 --stop 1e18 --points 100000 --format "$fmt"
    fi
done
# a failed write of help, also to an unbuffered stdout, is one stderr line
# and exit 2 too
if [ -w /dev/full ]; then
    PYTHONUNBUFFERED=1 one_line 2 /dev/full "cannot write standard output" --help
    PYTHONUNBUFFERED=1 one_line 2 /dev/full "cannot write standard output" bh --help
fi

refeed bh --mass 1e15 --charge-over-m 0.3 --spin-over-m 0.4
refeed bh --mass 1e15 --charge 1e3 --spin 1e-4
refeed bounds --mass 16 --radius 6 --entropy 1e3
refeed bounds --mass 16 --radius 6 --nu 1.2 --zeta 20
refeed evaporate --mass 1e12
refeed evaporate --mass 1e12 --points 3 --n-species 3
refeed channel --frequency 5.99584916e14 --power 1e-3
refeed channel --lambda-c 1 --power 1e3 --nu 1.2
refeed channel --lambda-c 5e-5 --power 1e-3 --n-carriers 2 --gamma-bar 3 \
    --n-species 2.5
refeed sweep bh --param mass --start 1e7 --stop 1e9 --points 7 \
    --spacing linear --charge 1e3 --quantity temperature_kelvin
refeed sweep channel --param power --start 1e-6 --stop 1e-1 --points 7 \
    --lambda-c 5e-5 --n-species 2
refeed sweep channel --param power --start 1e-6 --stop 1e-1 --points 7 \
    --lambda-c 5e-5 --n-carriers 2 --nu 1.2 --gamma-bar 3
refeed gedanken --scenario susskind --energy 1e30 --radius 1 --entropy 1 \
    --area 20
refeed gedanken --scenario capsule --bh-mass 1e30 --bh-spin 1e42 --mu 1 \
    --b 1 --s-cap 1e30
refeed gedanken --scenario capsule --bh-mass 1e30 --bh-charge 1e20 --mu 1 \
    --b 1 --s-cap 1e30
refeed gedanken --scenario infall --energy 1e10 --radius 1 --entropy 1 \
    --zeta 10 --gamma-bar 3
refeed gedanken --scenario infall --mass 1e-10 --radius 1 --entropy 1 \
    --nu 1.2 --n-species 3
refeed gedanken --scenario merger --m1 1e15 --m2 2e15

# a choice in an --input file obeys the flag's choices
echo "spacing=bogus" > "$input"
run 2 sweep bh --param mass --start 1e10 --stop 1e12 --points 3 --input "$input"
run 2 sweep bh --param mass --start 1e10 --stop 1e12 --points 3 --spacing bogus

# a parameter the request would not read exits 2
run 2 evaporate --mass 1e12 --points 5 --nu 1.9
run 2 sweep bh --param mass --start 1e15 --stop 1e18 --points 3 --lambda-c 5
run 2 gedanken --scenario merger --m1 1e15 --m2 1e15 --mu 1

if [ "$failures" -ne 0 ]; then
    echo "$failures run(s) failed"
    exit 1
fi
echo "all runs passed"
