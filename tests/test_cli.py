"""Command line behavior: grammar, exit codes, output determinism, and
the option table against the argparse parser it replaced."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrank import cli
from genrank.cli import (EXIT_BUDGET, EXIT_DATA, EXIT_EVIDENCE_MIXED,
                         EXIT_NOT_CERTIFIED, EXIT_OK, EXIT_USAGE, DataError,
                         ShowHelp, UsageError, main, parse_args, parse_group)
from genrank import nielsen
from genrank.fp import FpMatrix, projective_canonicalize
from genrank.groups import (CyclicPower, GeneratingTuple, GroupSpec,
                            Integers, ProductGroup, ProjSpecialLinear,
                            SpecialLinear)
from genrank.redundancy import SearchLimits, is_redundant

STD_PAIR = "sl 2\n0 -1 1 0\n1 1 0 1\n"
HUGE_PRIME = 1_000_000_000_000_000_003     # trial division would run to 10^9
BOREL_PAIR = "sl 2\n1 1 0 1\n2 0 0 1/2\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_parse_group_grammar():
    assert parse_group("sl2:5") == SpecialLinear(2, 5)
    assert parse_group("psl3:3") == ProjSpecialLinear(3, 3)
    assert parse_group("cyclic:12^2") == CyclicPower(12, 2)
    assert parse_group("z") == Integers()
    assert parse_group("prod(psl2:5,psl2:7)") == ProductGroup(
        (ProjSpecialLinear(2, 5), ProjSpecialLinear(2, 7)))
    nested = parse_group("prod(cyclic:2^1,prod(cyclic:3^1,cyclic:5^1))")
    assert isinstance(nested, ProductGroup)


def test_parse_group_errors():
    for bad in ("sl2", "psl:5", "cyclic:4", "grp:9", ""):
        with pytest.raises(UsageError):
            parse_group(bad)
    deep = "cyclic:2^1"
    for _ in range(1200):
        deep = f"prod(cyclic:2^1,{deep})"
    for bad in ("sl2:4", "psl2:9", "sl1:5", "sl2:2", "cyclic:4^0", deep):
        with pytest.raises(DataError):
            parse_group(bad)
    # modulus 1 is the trivial group, allowed on purpose
    assert parse_group("cyclic:1^2").order == 1


def test_every_group_kind_round_trips_through_its_descriptor():
    # a group kind that no descriptor names is unreachable from the commands
    samples = (SpecialLinear(3, 5), ProjSpecialLinear(2, 7), CyclicPower(6, 2),
               Integers(), ProductGroup((CyclicPower(2, 1), ProductGroup(
                   (ProjSpecialLinear(2, 5), SpecialLinear(2, 3))))))

    def kinds(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from kinds(sub)

    concrete = {k for k in kinds(GroupSpec) if k.__module__ == "genrank.groups"
                and k.descriptor is not GroupSpec.descriptor}
    assert concrete == {type(spec) for spec in samples}
    for spec in samples:
        assert parse_group(spec.descriptor()) == spec


def test_rank_known_value(capsys):
    code, doc = run_json(capsys, "rank", "psl2:5")
    assert code == EXIT_OK
    assert doc["value"] == 3
    assert doc["exhaustive"] is True
    assert len(doc["witness"]) == 3


def test_rank_z_unbounded(capsys):
    code, doc = run_json(capsys, "rank", "z")
    assert code == EXIT_OK
    assert doc["value"] is None
    assert any("every size" in n for n in doc["notes"])


def test_mu_command(capsys):
    code, doc = run_json(capsys, "mu", "cyclic:6^2")
    assert code == EXIT_OK
    assert doc["value"] == 2


def test_rank_and_orbit_on_product_with_abelian_factor(capsys):
    # a nonabelian group that is neither SL nor PSL: its centre comes
    # from the conjugation table
    desc = "prod(psl2:5,cyclic:2^1)"
    code, doc = run_json(capsys, "rank", desc)
    assert code == EXIT_OK
    assert doc["value"] == 4 and doc["exhaustive"] is True
    spec = parse_group(desc)
    items = tuple((projective_canonicalize(FpMatrix.from_rows(5, rows)), tuple(vec))
                  for rows, vec in doc["witness"])
    assert is_redundant(GeneratingTuple(spec, items)).verdict == "IrredundantGenerating"
    code, doc = run_json(capsys, "orbit", desc, "--size", "2")
    assert code == EXIT_OK
    assert doc["generating_classes"] == sum(doc["orbit_sizes"])


def test_usage_errors(capsys):
    assert main(["rank"]) == EXIT_USAGE
    assert main(["rank", "no-such-group"]) == EXIT_USAGE
    assert main(["frobnicate", "z"]) == EXIT_USAGE


def test_data_errors(capsys):
    assert main(["rank", "psl2:4"]) == EXIT_DATA
    assert main(["rank", "sl2:9"]) == EXIT_DATA
    assert main(["certify", "/nonexistent/input.txt"]) == EXIT_DATA


def test_budget_exit(capsys):
    code, doc = run_json(capsys, "rank", "sl2:5", "--node-budget", "5")
    assert code == EXIT_BUDGET
    assert doc["exhaustive"] is False


def _genrank(argv, **kwargs) -> subprocess.CompletedProcess:
    """genrank in a fresh process, importing this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(cli.__file__)),
                      os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "genrank", *argv], env=env, text=True,
                          timeout=120, **kwargs)


@pytest.mark.parametrize("argv", (["witness", "psl2:19", "--size", "4"], ["rank", "psl2:19"]))
def test_search_budget_holds_the_table_build(argv):
    # in a fresh process the psl2:19 tables and subgroup walk take far
    # longer than the budget, and the search's clock starts before them
    out = _genrank([*argv, "--time-budget", "0.05", "--format", "json"], capture_output=True)
    assert out.returncode == EXIT_BUDGET, out.stderr
    assert json.loads(out.stdout)["stats"]["nodes"] == 0


def test_mu_ladder_budget_exits_two(capsys, monkeypatch):
    # sl2:5: the m search visits 816 nodes, and its size-3 rung lists 992
    # tuple classes; the deadline passes after an unbudgeted m search
    search = nielsen._searched_rank
    for argv, patch in ((["--node-budget", "900"], False), (["--time-budget", "0"], True)):
        if patch:
            monkeypatch.setattr(nielsen, "_searched_rank",
                                lambda spec, limits: search(spec, SearchLimits()))
        code = main(["mu", "sl2:5", *argv, "--format", "json"])
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert code == EXIT_BUDGET and "Traceback" not in err
        assert (doc["value"], doc["exhaustive"]) == (2, False)
        assert doc["notes"][1:] == ["size 3: the class table passed the node or time "
                                    "budget; the verdict there is open",
                                    "value is a lower bound"]


def test_mu_passes_the_seed(capsys, monkeypatch):
    # the random pair search past the indexed tables takes the seed; the
    # exhaustive ladder draws nothing, so a seed leaves its output alone
    seen = []
    real = nielsen.irredundant_witness

    def spy(*args, **kw):
        seen.append(kw["seed"])
        return real(*args, **kw)

    monkeypatch.setattr(nielsen, "irredundant_witness", spy)
    run_json(capsys, "mu", "sl2:17", "--seed", "5")     # past the indexed tables
    assert seen == [5]
    doc = run_json(capsys, "mu", "psl2:5", "--seed", "6")[1]
    assert seen == [5] and doc == {**run_json(capsys, "mu", "psl2:5")[1], "seed": 6}
    # seed 0 keeps the witness that mu printed before it took the seed
    code, doc = run_json(capsys, "mu", "sl2:17", "--seed", "0")
    assert doc["witness"] == [[[11, 2], [1, 8]], [[9, 1], [12, 9]]]
    assert run_json(capsys, "mu", "sl2:17", "--seed", "1")[1]["witness"] != doc["witness"]


def test_nan_time_budget_is_a_usage_error(capsys):
    # no elapsed time exceeds NaN, so such a budget would never fire
    for argv in (["rank", "psl2:7"], ["mu", "psl2:5"], ["witness", "psl2:5", "--size", "3"],
                 ["orbit", "psl2:5", "--size", "2"]):
        assert main([*argv, "--time-budget", "nan"]) == EXIT_USAGE
    code, doc = run_json(capsys, "rank", "psl2:7", "--time-budget", "inf")
    assert code == EXIT_OK and doc["exhaustive"] is True
    code, doc = run_json(capsys, "rank", "psl2:7", "--time-budget", "-1")
    assert code == EXIT_BUDGET and doc["exhaustive"] is False


def test_witness_mode_keeps_time_budget(capsys):
    # sl3:5 (372,000 elements) is drawn from without listing the group
    t0 = time.monotonic()
    code, doc = run_json(capsys, "rank", "sl3:5", "--time-budget", "3")
    assert time.monotonic() - t0 < 20
    assert code == EXIT_BUDGET
    spec = SpecialLinear(3, 5)
    witness = GeneratingTuple(spec, tuple(FpMatrix.from_rows(5, rows)
                                          for rows in doc["witness"]))
    assert is_redundant(witness).verdict == "IrredundantGenerating"


def test_witness_mode_stops_inside_the_stabilizer_chain(capsys):
    # one chain call on sl3:47 (103,822 points) runs far past the budget
    t0 = time.monotonic()
    code, doc = run_json(capsys, "rank", "sl3:47", "--time-budget", "2")
    assert time.monotonic() - t0 < 15
    assert code == EXIT_BUDGET and doc["exhaustive"] is False


def test_witness_command(capsys):
    code, doc = run_json(capsys, "witness", "psl2:5", "--size", "3")
    assert code == EXIT_OK
    assert len(doc["witness"]) == 3
    code, doc = run_json(capsys, "witness", "psl2:5", "--size", "4")
    assert code == EXIT_OK
    assert doc["witness"] is None
    assert doc["exhausted"] is True


def test_witness_rejects_nonpositive_size(capsys):
    for argv in (("psl2:5", "--size", "0"), ("psl2:5", "--size", "-2"),
                 ("z", "--size", "0")):
        assert main(["witness", *argv]) == EXIT_DATA
    assert main(["zdemo", "0"]) == EXIT_DATA


def test_zdemo(capsys):
    code, doc = run_json(capsys, "zdemo", "3")
    assert code == EXIT_OK
    assert doc["witness"] == [15, 10, 6]
    assert doc["verdict"] == "IrredundantGenerating"
    assert [d["gcd_without"] for d in doc["drop_checks"]] == [2, 3, 5]


@pytest.mark.parametrize("argv", [("zdemo", "1300"), ("witness", "z", "--size", "1300")])
def test_unprintable_z_witness_is_a_data_error(capsys, argv):
    # entries of about 4,600 digits pass int's 4,300-digit str conversion limit
    assert main(list(argv)) == EXIT_DATA
    assert capsys.readouterr().out == ""


def test_zdemo_at_the_digit_limit(capsys):
    # the largest printable witness: 1,229 entries, drop gcds from prefix and suffix gcds
    start = time.monotonic()
    code, doc = run_json(capsys, "zdemo", "1229")
    assert code == EXIT_OK and time.monotonic() - start < 10
    assert doc["verdict"] == "IrredundantGenerating"
    assert doc["drop_checks"][-1]["gcd_without"] == 9973
    assert not any(d["generates_without"] for d in doc["drop_checks"])


def test_certify_standard_pair(capsys, tmp_path):
    src = tmp_path / "pair.txt"
    src.write_text(STD_PAIR)
    out = tmp_path / "cert.json"
    code, doc = run_json(capsys, "certify", str(src), "--out", str(out))
    assert code == EXIT_OK
    assert doc["certified"] is True
    cert = doc["certificate"]
    assert cert["witness_prime"] == 5
    assert cert["evidence_kind"] == "closure-order"
    assert cert["closure_order"] == 120
    # the stored file replays bytewise
    code2, doc2 = run_json(capsys, "certify", str(out), "--replay")
    assert code2 == EXIT_OK
    assert doc2["match"] is True


def test_certify_borel_pair_not_certified(capsys, tmp_path):
    src = tmp_path / "borel.txt"
    src.write_text(BOREL_PAIR)
    code, doc = run_json(capsys, "certify", str(src))
    assert code == EXIT_NOT_CERTIFIED
    assert doc["certified"] is False
    per = doc["certificate"]["per_prime"]
    assert len(per) == 10
    assert all(rec["diagnosis"] == "common eigenvector" for rec in per)


def test_certify_with_irredundancy_evidence(capsys, tmp_path):
    src = tmp_path / "pair.txt"
    src.write_text(STD_PAIR)
    code, doc = run_json(capsys, "certify", str(src), "--irredundancy", "3")
    assert code == EXIT_OK
    assert doc["irredundancy"]["summary"] == "all-irredundant"


def test_certify_undecided_nielsen_is_mixed_exit(capsys, tmp_path):
    src = tmp_path / "pair.txt"
    src.write_text(STD_PAIR)
    code, doc = run_json(capsys, "certify", str(src), "--nielsen", "1",
                         "--node-budget", "2")
    assert code == EXIT_EVIDENCE_MIXED
    assert doc["nielsen"]["summary"] == "undecided"


def test_certify_out_to_an_unwritable_path_is_a_data_error(capsys, tmp_path):
    src = tmp_path / "pair.txt"
    src.write_text(STD_PAIR)
    for path in (tmp_path / "missing" / "x.cert", tmp_path):
        code = main(["certify", str(src), "--out", str(path)])
        out, err = capsys.readouterr()
        assert code == EXIT_DATA
        assert out == "" and err.startswith(f"error: cannot write {path}: "), err


@pytest.mark.parametrize("argv, want", (
    (["rank", "psl2:7", "--format", "table"], EXIT_OK),
    (["certify", "BOREL", "--format", "json"], EXIT_NOT_CERTIFIED),
    (["--help"], EXIT_OK), (["rank", "--help"], EXIT_OK)))
def test_closed_stdout_exits_with_the_commands_code(argv, want, tmp_path):
    # the reader closes its end of the pipe before genrank starts
    src = tmp_path / "borel.txt"
    src.write_text(BOREL_PAIR)
    read, write = os.pipe()
    os.close(read)
    try:
        out = _genrank([str(src) if a == "BOREL" else a for a in argv], stdout=write,
                       stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (want, "")


def test_certify_counts_below_one_are_usage_errors(capsys, tmp_path):
    src = tmp_path / "pair.txt"
    src.write_text(STD_PAIR)
    for flag in ("--max-primes", "--irredundancy", "--nielsen"):
        for value in ("0", "-1", "-2", "x"):
            assert main(["certify", str(src), flag, value]) == EXIT_USAGE, (flag, value)
    code, doc = run_json(capsys, "certify", str(src), "--max-primes", "1",
                         "--irredundancy", "1", "--nielsen", "1")
    assert code == EXIT_OK
    assert len(doc["irredundancy"]["records"]) == len(doc["nielsen"]["records"]) == 1


def test_certify_nielsen_shares_one_time_budget(capsys, tmp_path):
    # p = 17 and 19 are past the indexed tables: each walk would run to the
    # budget if it were given the whole budget again
    src = tmp_path / "pair.txt"
    src.write_text(STD_PAIR)
    t0 = time.monotonic()
    code, doc = run_json(capsys, "certify", str(src), "--nielsen", "6", "--time-budget", "1")
    assert time.monotonic() - t0 < 2.0
    assert code == EXIT_EVIDENCE_MIXED
    records = {r["prime"]: r["verdict"] for r in doc["nielsen"]["records"]}
    assert list(records) == [5, 7, 11, 13, 17, 19]
    # the indexed walks up to p = 13 take well under a second unloaded
    assert records[5] == "NielsenIrredundant"
    assert {records[p] for p in (7, 11, 13)} <= {"NielsenIrredundant", "Unknown"}
    assert records[17] == records[19] == "Unknown"


def test_certify_rejects_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("sl 2\n1 0 0\n")
    assert main(["certify", str(bad)]) == EXIT_DATA
    bad.write_text("matrices 2\n1 0 0 1\n")
    assert main(["certify", str(bad)]) == EXIT_DATA
    bad.write_text("sl 2\n1 0 0 2\n")   # determinant 2
    assert main(["certify", str(bad)]) == EXIT_DATA
    assert main(["certify", str(tmp_path / "missing.json"), "--replay"]) == EXIT_DATA
    bad.write_text('{"version":1,"certified":true}')
    assert main(["certify", str(bad), "--replay"]) == EXIT_DATA
    bad.write_text("sl 2\n0 -1 1 0\n")   # not JSON
    assert main(["certify", str(bad), "--replay"]) == EXIT_DATA


def test_certify_sl3_unipotent_pair_not_certified(capsys, tmp_path):
    src = tmp_path / "pair.txt"
    src.write_text("sl 3\n1 1 0 0 1 0 0 0 1\n1 0 0 0 1 1 0 0 1\n")
    out = tmp_path / "report.json"
    code, doc = run_json(capsys, "certify", str(src), "--out", str(out))
    assert code == EXIT_NOT_CERTIFIED
    assert doc["certified"] is False
    code, doc = run_json(capsys, "certify", str(out), "--replay")
    assert code == EXIT_OK
    assert doc["match"] is True


def test_certify_explicit_primes(capsys, tmp_path):
    src = tmp_path / "pair.txt"
    src.write_text(STD_PAIR)
    code, doc = run_json(capsys, "certify", str(src), "--primes", "13", "7")
    assert code == EXIT_OK
    assert doc["certificate"]["witness_prime"] == 13


def test_certify_rejects_bad_primes(capsys, tmp_path):
    src = tmp_path / "pair.txt"
    src.write_text(STD_PAIR)
    assert main(["certify", str(src), "--primes", "4"]) == EXIT_DATA
    assert main(["certify", str(src), "--primes", "40009"]) == EXIT_DATA
    # a stored certificate naming a prime past the modulus bound, with
    # its entries (and so its fingerprint) intact
    out = tmp_path / "cert.json"
    assert main(["certify", str(src), "--primes", "13", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    cert = json.loads(out.read_text())
    cert["per_prime"][0]["prime"] = 40009
    out.write_text(json.dumps(cert))
    assert main(["certify", str(out), "--replay"]) == EXIT_DATA
    assert "40009" in capsys.readouterr().err


def test_huge_modulus_is_refused_before_trial_division(capsys, tmp_path):
    src = tmp_path / "pair.txt"
    src.write_text(STD_PAIR)
    cert = tmp_path / "cert.json"
    assert main(["certify", str(src), "--primes", "13", "--out", str(cert)]) == EXIT_OK
    doc = json.loads(cert.read_text())
    doc["per_prime"][0]["prime"] = HUGE_PRIME
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (["rank", f"sl2:{HUGE_PRIME}"],
                 ["certify", str(src), "--primes", str(HUGE_PRIME)],
                 ["certify", str(cert), "--replay"],
                 ["certify", str(src), "--exceptional-floor", str(HUGE_PRIME)]):
        t0 = time.monotonic()
        assert main(argv) == EXIT_DATA
        assert time.monotonic() - t0 < 2, argv
        assert "exceeds supported bound" in capsys.readouterr().err
    # past int's digit limit: a data error, not a traceback
    assert main(["rank", "psl2:" + "9" * 5000]) == EXIT_DATA
    src.write_text("sl 2\n1e99999999 0 0 1\n")
    assert main(["certify", str(src)]) == EXIT_DATA
    assert "exponent notation" in capsys.readouterr().err


def test_product_check(capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("prod psl2:5 psl2:7\n"
                    "0 4 1 0 | 0 6 1 0\n"
                    "1 1 0 1 | 1 1 0 1\n")
    code, doc = run_json(capsys, "product-check", str(good))
    assert code == EXIT_OK
    assert doc["generates"] is True

    diag = tmp_path / "diag.txt"
    diag.write_text("prod psl2:5 psl2:5\n"
                    "0 4 1 0 | 0 4 1 0\n"
                    "1 1 0 1 | 1 1 0 1\n")
    code, doc = run_json(capsys, "product-check", str(diag))
    assert code == EXIT_OK
    assert doc["generates"] is False
    assert doc["diagnosis"] == "graph of identity"


def test_product_check_rejects_bad_entries(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("prod psl2:5 psl2:5\n1 0 0 1\n")
    assert main(["product-check", str(bad)]) == EXIT_DATA
    bad.write_text("prod psl2:5 psl2:5\n2 0 0 1 | 1 0 0 1\n")
    assert main(["product-check", str(bad)]) == EXIT_DATA


def test_product_check_rejects_non_matrix_factors(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    for header in ("prod psl2:5 z", "prod z psl2:5", "prod psl2:5 cyclic:5^1",
                   "prod psl2:5 prod(psl2:5,psl2:5)"):
        bad.write_text(header + "\n1 0 0 1 | 1 0 0 1\n")
        assert main(["product-check", str(bad)]) == EXIT_DATA
        assert "must be sl or psl" in capsys.readouterr().err
    bad.write_text("prod psl2:5 z\n")
    assert main(["product-check", str(bad)]) == EXIT_DATA


def test_product_check_sl3_psl2(capsys, tmp_path):
    # SL3(5) is simple (its centre has order gcd(3, 4) = 1), so the
    # standard pairs are decided rather than refused
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("prod sl3:5 psl2:5\n"
                     "1 1 0 0 1 0 0 0 1 | 0 4 1 0\n"
                     "0 0 1 1 0 0 0 1 0 | 1 1 0 1\n")
    code, doc = run_json(capsys, "product-check", str(mixed))
    assert code == EXIT_OK
    assert doc["generates"] is True
    assert doc["diagnosis"] == "projections generate non-isomorphic simple factors"


def test_product_check_honours_the_time_budget(capsys, tmp_path):
    # the graph of the identity in SL3(5) x SL3(5): the capped closure
    # lists 372,000 elements in pure Python, about 15 s without a budget
    e12 = "1 1 0 0 1 0 0 0 1"
    shift = "0 0 1 1 0 0 0 1 0"
    diag = tmp_path / "diag.txt"
    diag.write_text(f"prod sl3:5 sl3:5\n{e12} | {e12}\n{shift} | {shift}\n")
    t0 = time.monotonic()
    code, doc = run_json(capsys, "product-check", str(diag), "--time-budget", "1")
    assert time.monotonic() - t0 < 5
    assert code == EXIT_BUDGET
    assert doc["generates"] is None
    assert doc["diagnosis"] == "the time budget of 1 s ran out before a verdict"


def test_product_check_psl3(capsys, tmp_path):
    # PSL3(3) x PSL3(3): decided by the capped closure, with no
    # isomorphism enumeration
    e12 = "1 1 0 0 1 0 0 0 1"
    shift = "0 0 1 1 0 0 0 1 0"
    diag = tmp_path / "diag.txt"
    diag.write_text(f"prod psl3:3 psl3:3\n{e12} | {e12}\n{shift} | {shift}\n")
    code, doc = run_json(capsys, "product-check", str(diag))
    assert code == EXIT_OK
    assert doc["generates"] is False
    assert doc["diagnosis"].startswith("graph of")
    swapped = tmp_path / "swapped.txt"
    swapped.write_text(f"prod psl3:3 psl3:3\n{e12} | {shift}\n{shift} | {e12}\n")
    code, doc = run_json(capsys, "product-check", str(swapped))
    assert code == EXIT_OK
    assert doc["generates"] is True
    assert doc["diagnosis"] == "no isomorphism aligns the factor tuples"


def test_orbit_command(capsys):
    code, doc = run_json(capsys, "orbit", "cyclic:2^2", "--size", "2")
    assert code == EXIT_OK
    assert doc["generating_classes"] == 6
    assert doc["orbit_count"] == 1


def test_orbit_node_budget_stops_inside_an_orbit(capsys):
    # psl2:7 triples form one orbit of 26,736 classes; the budget fires
    # inside it, so no orbit is reported
    t0 = time.monotonic()
    code, doc = run_json(capsys, "orbit", "psl2:7", "--size", "3", "--node-budget", "10")
    assert time.monotonic() - t0 < 10
    assert code == EXIT_BUDGET
    assert doc["partial"] is True
    assert doc["orbit_count"] == 0 and doc["orbit_sizes"] == []
    assert doc["notes"] == ["stopped at the search budget before all orbits were walked"]


@pytest.mark.parametrize("budget,sizes", (
    (14, []), (36, [32]), (68, [36, 32]), (113, [36, 32, 32]), (114, [36, 32, 32, 14])))
def test_orbit_node_budget_counts_whole_orbits(capsys, budget, sizes):
    # psl2:7 pairs form orbits of 32, 36, 32 and 14 classes in order of
    # least class; an orbit is reported while the running total is within
    # the budget
    code, doc = run_json(capsys, "orbit", "psl2:7", "--size", "2",
                         "--node-budget", str(budget))
    partial = len(sizes) < 4
    assert code == (EXIT_BUDGET if partial else EXIT_OK)
    assert doc["partial"] is partial
    assert doc["orbit_sizes"] == sizes and doc["orbit_count"] == len(sizes)
    assert doc["generating_classes"] == 114


@pytest.mark.parametrize("argv", (
    ("orbit", "psl2:5", "--size", "10000000", "--time-budget", "1"),
    ("orbit", "cyclic:1^1", "--size", "10000"), ("orbit", "cyclic:1^1", "--size", "22")))
def test_orbit_refuses_large_sizes_at_once(capsys, argv):
    # the class-count bound is decided before any large integer or table
    # is built, the trivial group included
    t0 = time.monotonic()
    assert main(list(argv)) == EXIT_DATA
    assert time.monotonic() - t0 < 1.5


def _matrices(*flat):
    return [[list(x[:2]), list(x[2:])] for x in flat]


# stdout of exhaustive searches: the witness, nodes and pushed classes
# depend on which canonical representative each node pushes
PINNED_SEARCHES = (
    (("rank", "psl2:7"), {
        "command": "rank", "exhaustive": True, "group": "psl2:7", "notes": [], "rank": "m",
        "seed": 0, "stats": {"nodes": 2418, "pushed_classes": 30,
                             "recorded": {"2": 62, "3": 107, "4": 2}},
        "value": 4,
        "witness": _matrices((0, 1, 6, 0), (0, 2, 3, 0), (2, 6, 5, 5), (3, 2, 2, 4))}),
    (("rank", "sl2:5"), {
        "command": "rank", "exhaustive": True, "group": "sl2:5", "notes": [], "rank": "m",
        "seed": 0, "stats": {"nodes": 816, "pushed_classes": 16,
                             "recorded": {"2": 82, "3": 168}},
        "value": 3, "witness": _matrices((0, 1, 4, 1), (0, 2, 2, 1), (2, 1, 3, 2))}),
    (("mu", "psl2:7"), {
        "command": "mu", "exhaustive": True, "group": "psl2:7",
        "notes": ["size 2 is the minimal generating size; minimal tuples are Nielsen "
                  "irredundant"],
        "rank": "mu", "seed": 0, "stats": {"m": 4, "nodes": 2418, "orbit_nodes": 666},
        "value": 2, "witness": _matrices((0, 1, 6, 0), (0, 1, 6, 1))}),
    (("witness", "psl2:11", "--size", "3"), {
        "command": "witness", "exhausted": False, "group": "psl2:11", "notes": [],
        "seed": 0, "size": 3, "stats": {"nodes": 1215},
        "witness": _matrices((0, 1, 10, 3), (0, 5, 2, 8), (5, 5, 8, 6))}))


@pytest.mark.parametrize("argv, payload", PINNED_SEARCHES,
                         ids=[" ".join(argv) for argv, _ in PINNED_SEARCHES])
def test_search_output_is_pinned(capsys, argv, payload):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_json_output_is_deterministic(capsys):
    _, first = run(capsys, "rank", "sl2:5", "--format", "json")
    _, second = run(capsys, "rank", "sl2:5", "--format", "json")
    assert first == second
    doc = json.loads(first)
    assert "elapsed" not in json.dumps(doc)


def test_table_output_renders(capsys):
    code, out = run(capsys, "rank", "psl2:5")
    assert code == EXIT_OK
    assert "value: 3" in out
    assert "command: rank" in out


# ---------------------------------------------------------------------------
# The option table against argparse.
# ---------------------------------------------------------------------------

class _Reference(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _get_values(self, action, arg_strings):
        # argparse drops the -- of --name=-- and gives the option an empty
        # list, which no command expects; the option table refuses it
        if action.option_strings and arg_strings == ["--"]:
            self.error(f"argument {action.option_strings[0]}: expected one argument")
        return super()._get_values(action, arg_strings)


def _reference_parser() -> _Reference:
    """The argparse parser that cli.parse_args replaced, refusing
    --name=-- as the option table does."""
    common = _Reference(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--node-budget", type=int, default=100_000_000)
    common.add_argument("--time-budget", type=cli._seconds, default=600.0)
    common.add_argument("--format", choices=("table", "json"), default="table")

    parser = _Reference(prog="genrank")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Reference)
    for name, func, positional in (("rank", cli._cmd_rank, "group"),
                                   ("mu", cli._cmd_rank, "group"),
                                   ("witness", cli._cmd_witness, "group"),
                                   ("zdemo", cli._cmd_zdemo, "size"),
                                   ("certify", cli._cmd_certify, "input"),
                                   ("product-check", cli._cmd_product_check, "input"),
                                   ("orbit", cli._cmd_orbit, "group")):
        p = sub.add_parser(name, parents=[common])
        p.add_argument(positional, type=int if name == "zdemo" else None)
        p.set_defaults(func=func)
        if name in ("witness", "orbit"):
            p.add_argument("--size", type=int, required=True)
        if name == "witness":
            p.add_argument("--involutions", action="store_true")
        if name == "certify":
            p.add_argument("--out")
            p.add_argument("--primes", type=int, nargs="+")
            p.add_argument("--exceptional-floor", type=int, default=3)
            p.add_argument("--max-primes", type=cli._count, default=10)
            p.add_argument("--irredundancy", type=cli._count)
            p.add_argument("--nielsen", type=cli._count)
            p.add_argument("--replay", action="store_true")
    return parser


def _reference_options(command: str) -> list:
    sub = next(a for a in _reference_parser()._actions if a.dest == "command")
    return [s for a in sub.choices[command]._actions for s in a.option_strings]


def _outcome(parse, argv):
    """("ok", vars), ("help",) or ("usage",)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "ok", vars(parse(argv))
    except (SystemExit, ShowHelp):
        return ("help",)
    except UsageError:
        return ("usage",)


COMMAND_NAMES = ("rank", "mu", "witness", "zdemo", "certify", "product-check", "orbit")
OPTIONS = {c: [s for s in _reference_options(c) if s not in ("-h", "--help")]
           for c in COMMAND_NAMES}
VALUES = ("0", "2", "7", "13", "-3", "-.5", "1.5", "inf", "json", "table", "psl2:5",
          "-inf", "-nan", "nan", "x", "", "a b", "-1x")
AWKWARD = ("--", "--node", "--n", "--s", "--se", "--si", "--t", "--f", "--m", "--i",
           "--bogus", "-x", "-h", "--help", "--he", "-hh", "-hx", "-h=", "--help=", "--=",
           "---", "-", "frobnicate", *COMMAND_NAMES)


# values each option accepts; the other options take integers
GOOD = {"--time-budget": ("1.5", "-.5", "inf", "0"), "--format": ("json", "table"),
        "--max-primes": ("1", "3"), "--irredundancy": ("1", "3"), "--nielsen": ("2",),
        "--out": ("c.json", "-3", "a b"), "--involutions": (), "--replay": ()}


@st.composite
def _argv(draw) -> list:
    """A command, its positional and options in any order (some named by a
    prefix, some as name=value, mostly with values they accept, a few
    with --, refused as --name=--), then up to two awkward tokens, values
    or other commands' options anywhere; about a third of the draws
    parse."""
    command = draw(st.sampled_from(COMMAND_NAMES))
    items = [[draw(st.sampled_from(VALUES))]]
    names = draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=4))
    for name in names + ["--size"] * ("--size" in OPTIONS[command] and draw(st.booleans())):
        good = GOOD.get(name, ("2", "-3", "13"))
        count = draw(st.integers(1, 3)) if name == "--primes" else min(len(good), 1)
        values = draw(st.lists(st.sampled_from(good or VALUES), min_size=count, max_size=count))
        if draw(st.integers(0, 7)) == 0:
            values = draw(st.lists(st.sampled_from(VALUES), max_size=2))
        elif draw(st.integers(0, 9)) == 0:
            values = ["--"]         # as --name=--, refused
        if draw(st.integers(0, 4)) == 0:
            name = name[:draw(st.integers(3, len(name)))]
        items.append([f"{name}={values[0]}"] if values and draw(st.booleans())
                     else [name, *values])
    argv = [command] + [t for item in draw(st.permutations(items)) for t in item]
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2)))):
        token = draw(st.sampled_from(AWKWARD + VALUES + tuple(OPTIONS["certify"])))
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=500, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(argv=_argv())
def test_option_table_parses_as_argparse_did(argv):
    _assert_parses_as_reference(argv)


def _assert_parses_as_reference(argv):
    expected = _outcome(_reference_parser().parse_args, argv)
    assert _outcome(parse_args, argv) == expected
    if expected == ("usage",):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == EXIT_USAGE
        assert out.getvalue() == "" and "Traceback" not in err.getvalue()


# --name=-- names no value: refused with exit 64 and nothing printed
EMPTY_VALUES = (
    ["witness", "psl2:5", "--size=--"], ["orbit", "psl2:5", "--size", "2", "--node-budget=--"],
    ["rank", "psl2:5", "--time-budget=--"], ["rank", "psl2:5", "--seed=--"],
    ["rank", "psl2:5", "--seed=--", "--help"], ["certify", "f", "--primes=--", "--out=--"])


@pytest.mark.parametrize("argv", (
    ["witness", "--seed", "-3", "psl2:5", "--size=2", "--involutions"],
    ["zdemo", "-1"],
    ["certify", "--primes", "7", "13", "--", "f.txt"],
    ["certify", "f.txt", "--prim=7", "--primes", "11", "--max=2", "--irr", "1"],
    ["orbit", "--format=json", "--si", "3", "--node-budget", "-5", "--", "-g"],
    ["rank", "--time-budget", "-.5", "psl2:5", "--time-budget", "inf"],
    ["rank", "psl2:5", "--out=x"], ["rank", "psl2:5", "--time-budget", "-inf"],
    ["rank", "psl2:5", "--time-budget", "-nan"], ["witness", "g", "--s", "2"],
    ["rank", "psl2:5", "--seed"], ["rank", "a", "b"], ["--seed", "1", "rank", "g"],
    ["rank", "g", "--seed", "1", "--"], ["certify", "f", "--primes"], [],
    ["witness", "g", "-h", "--s"],
    ["rank", "g", "-h", "--bogus"], ["--bogus", "rank", "g", "--help"],
    ["rank", "psl2:5", "--help", "--seed=--"], *EMPTY_VALUES))
def test_option_table_cases(argv):
    _assert_parses_as_reference(argv)
    if argv in EMPTY_VALUES:
        assert _outcome(parse_args, argv) == ("usage",)


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_command_help_lists_every_option(capsys, command):
    for flag in ("--help", "-h"):
        assert main([command, "3", flag]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(f"usage: genrank {command} ")
        assert all(name in out for name in _reference_options(command))


def test_help_lists_every_command(capsys):
    for argv in (["--help"], ["-h"], ["--bogus", "--he"]):
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: genrank ")
        assert all(f"  {name} " in out for name in COMMAND_NAMES)


@pytest.mark.parametrize("argv,classes", ((["psl2:5", "--size", "3"], 3336),
                                          (["sl2:5", "--size", "2"], 152)))
@pytest.mark.parametrize("budget", ("0", "-1"))
def test_orbit_node_budget_below_one_stops_after_the_class_listing(
        capsys, monkeypatch, argv, classes, budget):
    # no orbit fits, so neither the drop tests nor the components run
    monkeypatch.setattr(nielsen, "_orbits", None)
    monkeypatch.setattr(nielsen, "_droppable", None)
    code, out = run(capsys, "orbit", *argv, "--node-budget", budget, "--format", "json")
    assert code == EXIT_BUDGET
    assert out == json.dumps({
        "command": "orbit", "fraction_with_redundant": 0.0, "generating_classes": classes,
        "group": argv[0], "notes": ["stopped at the search budget before all orbits were walked"],
        "orbit_count": 0, "orbit_sizes": [], "orbits_with_redundant": 0, "partial": True,
        "size": int(argv[2])}, indent=2, sort_keys=True) + "\n"
