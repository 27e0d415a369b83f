"""Property test: malformed input ends in a documented exit code.

Each example runs `cli.main` in-process on a group descriptor or on the
contents of a `certify`, `certify --replay` or `product-check` file, and
must return one of the exit codes 0, 2, 3, 4, 64 or 65 without raising,
within the per-example deadline.  Descriptors break the grammar or carry
bad numbers: dimensions below 2, moduli that are not prime, past the
2**15 bound, or past int's 4,300-digit limit, and SL_n/PSL_n groups past
2**20 points p^n, which must be refused before their order is computed.
Files mix well-formed and broken headers, entries and JSON fields.

Two more properties generate command-line options on valid groups of
order at most 168: budgets (a NaN time budget must be refused with exit
64, while inf and negative budgets are accepted), seeds, sizes,
`--involutions`, `zdemo N` and `witness z --size N` for N up to 2,000
(past 1,229 the integer witness has entries too long for int's
4,300-digit str limit, and must be refused with exit 65), and `certify`'s `--max-primes`, `--irredundancy K` and
`--nielsen K` with K bounded so that no run outlives the deadline (a
count below 1 or not an integer must be refused with exit 64).

Valid descriptors of large SL_n/PSL_n groups within the point bound are
left out on purpose: the stabilizer chain lists all p^n points before its
first deadline check, so sl3:101 can outlive the per-example deadline.  For
the same reason product files name only factors of order at most 168.
"""

import contextlib
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genrank.arithmetic import (RationalMatrix, RationalTuple, certify_density,
                                serialize_certificate)
from genrank.cli import DataError, UsageError, main, parse_group

EXIT_CODES = {0, 2, 3, 4, 64, 65}
HUGE_PRIME = 1_000_000_000_000_000_003

SETTINGS = settings(max_examples=60, deadline=timedelta(seconds=3), derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])

# numbers that no descriptor or certificate may carry as a modulus
BAD_MODULI = st.one_of(st.integers(-3, 2).map(str),
                       st.sampled_from(["4", "9", "15", "1001", "32769", "40009",
                                        str(HUGE_PRIME), str(10 ** 18), "9" * 5000]))
SMALL = st.integers(0, 4).map(str)
# (n, p) of SL_n(F_p) and PSL_n(F_p) past 2**20 points p^n; `rank sl40000:5`
# ran for more than 20 s on the group order, whatever the time budget
OVERSIZED = [("40000", "5"), ("4", "101"), ("13", "3"), ("2", "1031"), ("3", "103"),
             ("9" * 4000, "3")]


def _refused(desc: str) -> bool:
    try:
        parse_group(desc)
    except (UsageError, DataError):
        return True
    return False


BAD_DESCRIPTORS = st.one_of(
    st.builds("{}{}:{}".format, st.sampled_from(["sl", "psl"]), SMALL, BAD_MODULI),
    st.builds("{}{}:{}".format, st.sampled_from(["sl", "psl"]), st.just("1"),
              st.sampled_from(["5", "7"])),
    st.builds(lambda kind, dims: "{}{}:{}".format(kind, *dims), st.sampled_from(["sl", "psl"]),
              st.sampled_from(OVERSIZED)),
    st.builds("cyclic:{}^{}".format, st.sampled_from(["0", "65536", "9" * 5000]), SMALL),
    st.builds("cyclic:{}^0".format, st.sampled_from(["2", "5"])),
    st.builds("prod({},{})".format, st.sampled_from(["psl2:5", "z", "sl2:4"]),
              st.sampled_from(["sl2:9", "cyclic:0^1", "psl1:5", "z"])),
    st.text(alphabet="psly:cz()^,0123456789 -", max_size=16).filter(_refused),
)

COMMANDS = (["rank"], ["mu"], ["witness", "--size", "2"], ["orbit", "--size", "2"])

TOKENS = st.sampled_from(["0", "1", "-1", "2", "3", "1/2", "-1/3", "0.5", "2/0", "1e99999999",
                          "nan", "x", "|", "#", "9" * 5000])


def _lines(tokens, count):
    return st.lists(st.lists(tokens, max_size=10).map(" ".join), max_size=count)


CERTIFY_FILES = st.builds(
    lambda head, lines: "\n".join([head, *lines]) + "\n",
    st.sampled_from(["sl 2", "sl 3", "sl 1", "sl 0", "sl x", "sl", "matrices 2", "",
                     "sl " + "9" * 5000]),
    _lines(TOKENS, 3))

# the certificate of the standard pair, mutated one field at a time
_CERT = serialize_certificate(certify_density(RationalTuple((
    RationalMatrix.from_rows([[0, -1], [1, 0]]), RationalMatrix.from_rows([[1, 1], [0, 1]])))))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10, 10 ** 20),
              st.sampled_from([HUGE_PRIME, 40009, 4, 7]), st.text(max_size=6)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=8)
FIELDS = st.sampled_from([("version",), ("certified",), ("entries",), ("entries", 0),
                          ("config",), ("config", "exceptional_floor"),
                          ("config", "closure_evidence_cap"), ("per_prime",),
                          ("per_prime", 0), ("per_prime", 0, "prime")])


def _mutated_certificate(path, value):
    doc = json.loads(_CERT)
    *outer, last = path
    node = doc
    for key in outer:
        node = node[key]
    node[last] = value
    return json.dumps(doc)


REPLAY_FILES = st.one_of(st.builds(_mutated_certificate, FIELDS, JSON_VALUES),
                         st.text(max_size=40))

FACTORS = st.sampled_from(["psl2:5", "psl2:7", "sl2:5", "sl3:2", "psl3:2", "z",
                           "cyclic:5^1", "psl2:4", "sl2:" + str(HUGE_PRIME)])
PRODUCT_FILES = st.builds(
    lambda f1, f2, lines: "\n".join([f"prod {f1} {f2}", *lines]) + "\n",
    FACTORS, FACTORS,
    _lines(st.sampled_from(["0", "1", "-1", "4", "6", "|", "x", "9" * 5000]), 3))


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


def _run_on_file(argv_head, text, argv_tail=()) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(text)
        return _run([*argv_head, str(path), *argv_tail])


@SETTINGS
@given(command=st.sampled_from(COMMANDS), desc=BAD_DESCRIPTORS)
def test_malformed_descriptor(command, desc):
    assert _run([command[0], desc, *command[1:]]) in (64, 65)


@SETTINGS
@given(text=CERTIFY_FILES)
def test_certify_file(text):
    assert _run_on_file(["certify"], text) in EXIT_CODES


@SETTINGS
@given(text=REPLAY_FILES)
def test_replay_file(text):
    assert _run_on_file(["certify"], text, ["--replay"]) in EXIT_CODES


@SETTINGS
@given(text=PRODUCT_FILES)
def test_product_file(text):
    assert _run_on_file(["product-check"], text) in EXIT_CODES


# valid groups of order at most 168, and option values good and bad
SMALL_GROUPS = st.sampled_from(["psl2:5", "sl2:5", "psl2:7", "cyclic:5^2", "cyclic:6^1",
                                "prod(psl2:5,cyclic:2^1)", "z"])
BUDGET_OPTIONS = (
    ("--time-budget", st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "-1", "0", "0.5",
                                       "30", "1e999", "x", ""])),
    ("--node-budget", st.sampled_from(["-1", "0", "1", "50", "100000000", "1.5", "x"])),
    ("--seed", st.sampled_from(["0", "7", "-3", "99999999999", "x"])),
)
# K past 3 for --nielsen walks the orbits of SL2(17) for up to the time budget;
# a count below 1 or not an integer must be refused with exit 64
COUNT_FLAGS = ("--max-primes", "--irredundancy", "--nielsen")
CERTIFY_OPTIONS = tuple((flag, st.one_of(st.integers(-1, top).map(str),
                                         st.sampled_from(["-2", "x", "1.5", ""])))
                        for flag, top in zip(COUNT_FLAGS, (12, 6, 3)))


def _some_of(draw, options) -> list:
    """Each option with probability one half, with a drawn value."""
    return [part for flag, values in options if draw(st.booleans())
            for part in (flag, draw(values))]


def _nan_budget(argv) -> bool:
    return any(flag == "--time-budget" and value.lstrip("-").lower() == "nan"
               for flag, value in zip(argv, argv[1:]))


def _bad_count(argv) -> bool:
    return any(flag in COUNT_FLAGS and not (value.isdigit() and int(value) >= 1)
               for flag, value in zip(argv, argv[1:]))


# sizes of the integer witness, on both sides of int's str digit limit
Z_SIZES = st.integers(-1, 2000)


@st.composite
def _search_argv(draw) -> list:
    command = draw(st.sampled_from(["rank", "mu", "witness", "orbit", "zdemo", "witness z"]))
    if command == "zdemo":
        argv = ["zdemo", str(draw(Z_SIZES))]
    elif command == "witness z":
        argv = ["witness", "z", "--size", str(draw(Z_SIZES))]
    else:
        argv = [command, draw(SMALL_GROUPS)]
    if command == "witness":
        argv += ["--size", str(draw(st.integers(-1, 5)))]
        if draw(st.booleans()):
            argv.append("--involutions")
    elif command == "orbit":
        argv += ["--size", str(draw(st.integers(-1, 3)))]
    return argv + _some_of(draw, BUDGET_OPTIONS)


@SETTINGS
@given(argv=_search_argv())
def test_search_options(argv):
    code = _run(argv)
    assert code in EXIT_CODES
    if _nan_budget(argv):
        assert code == 64


@SETTINGS
@given(argv=st.composite(lambda draw: _some_of(draw, CERTIFY_OPTIONS + BUDGET_OPTIONS))())
def test_certify_options(argv):
    code = _run_on_file(["certify"], "sl 2\n0 -1 1 0\n1 1 0 1\n", argv)
    assert code in EXIT_CODES
    if _nan_budget(argv) or _bad_count(argv):
        assert code == 64
