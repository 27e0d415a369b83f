"""Command line interface.

Subcommands: rank (maximal irredundant size), mu (maximal Nielsen
irredundant size), witness (find or rule out a size), zdemo (integer
witness family), certify (density certificates for rational tuples),
product-check (generation in a product of two simple groups), orbit
(Nielsen orbit statistics at one size).

Exit codes: 0 success, 2 budget-limited or non-exhaustive result,
3 density not certified, 4 cross-prime evidence mixed or undecided,
64 usage errors, 65 data or unsupported-input errors.

Output is a structured payload rendered either as an indented table or
as JSON.  The payload carries no wall-clock fields, so repeated runs
with the same inputs and seed are reproducible bytewise.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import sys
import time
import types

from .arithmetic import (DenominatorClash, DensityCertificate, PlanConfig,
                         RationalMatrix, RationalTuple, as_fraction,
                         assess_irredundancy, assess_nielsen_irredundancy,
                         certify_density, replay_certificate,
                         serialize_certificate)
from .fp import FpMatrix, projective_canonicalize
from .groups import (CyclicPower, GeneratingTuple, GroupSpec, Integers,
                     ProductGroup, ProjSpecialLinear, SpecialLinear,
                     _MatrixGroup, product_generates)
from .nielsen import mu_rank, orbit_statistics
from .redundancy import (RedundancyReport, SearchLimits, irredundant_witness,
                         max_irredundant_size, z_witness)

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_NOT_CERTIFIED = 3
EXIT_EVIDENCE_MIXED = 4
EXIT_USAGE = 64
EXIT_DATA = 65


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


_SL_RE = re.compile(r"^(p?sl)(\d+):(\d+)$")
_CYC_RE = re.compile(r"^cyclic:(\d+)\^(\d+)$")
# parse_group recurses once per prod(...); the cap keeps that far below
# the interpreter's recursion limit
_MAX_PRODUCTS = 64
# SL_n(F_p) and PSL_n(F_p) act on at most this many points, p^n: the
# stabilizer chain lists them all before its first deadline check, and
# sl3:101 (1,030,301 points) is the largest case measured
_MAX_POINTS = 1 << 20


def _split_top_level(s: str) -> list:
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UsageError("unbalanced parentheses in group descriptor")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise UsageError("unbalanced parentheses in group descriptor")
    parts.append("".join(cur))
    return parts


def parse_group(desc: str) -> GroupSpec:
    """Grammar: z | sl<n>:<p> | psl<n>:<p> | cyclic:<m>^<k> |
    prod(<desc>,<desc>).  Grammar violations are usage errors;
    well-formed descriptors with bad numbers are data errors."""
    desc = desc.strip()
    if desc.count("(") > _MAX_PRODUCTS:
        raise DataError(f"a group descriptor holds at most {_MAX_PRODUCTS} products")
    if desc == "z":
        return Integers()
    m = _SL_RE.match(desc)
    if m:
        kind, n_s, p_s = m.groups()
        try:    # int's digit limit, the dimension, the modulus bound, primality
            n, p = int(n_s), int(p_s)
            if p < 3:
                raise ValueError("p must be prime >= 3")
            spec = SpecialLinear(n, p) if kind == "sl" else ProjSpecialLinear(n, p)
            # before any order arithmetic, which is unbounded in n; past
            # n = 20 no p >= 3 is within the bound, so p ** n stays small
            if n > 20 or p ** n > _MAX_POINTS:
                raise ValueError(f"{desc} acts on {p}^{n} points, more than 2^20")
            return spec
        except ValueError as exc:
            raise DataError(str(exc))
    m = _CYC_RE.match(desc)
    if m:
        try:
            return CyclicPower(int(m.group(1)), int(m.group(2)))
        except ValueError as exc:
            raise DataError(str(exc))
    if desc.startswith("prod(") and desc.endswith(")"):
        parts = _split_top_level(desc[5:-1])
        if len(parts) != 2:
            raise UsageError("prod(...) takes exactly two factors")
        try:
            return ProductGroup(tuple(parse_group(part) for part in parts))
        except ValueError as exc:
            raise DataError(str(exc))
    raise UsageError(f"cannot parse group descriptor {desc!r}")


def describe_element(spec: GroupSpec, x):
    if isinstance(spec, ProductGroup):
        return [describe_element(f, v) for f, v in zip(spec.factors, x)]
    if isinstance(spec, _MatrixGroup):
        return [list(r) for r in x.rows()]
    if isinstance(spec, CyclicPower):
        return list(x)
    return x


def _witness_payload(witness: GeneratingTuple | None):
    if witness is None:
        return None
    return [describe_element(witness.group, x) for x in witness.items]


def _stats_payload(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if k != "classes"}


# ---------------------------------------------------------------------------
# Input files.
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}")


def _read_lines(path: str) -> list:
    lines = []
    for line in _read_text(path).splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def read_rational_tuple(path: str) -> RationalTuple:
    """File format: a header line "sl <n>", then one matrix per line as
    n*n rationals (like 2 or -1/3) row-major, whitespace separated."""
    lines = _read_lines(path)
    if not lines:
        raise DataError("input file is empty")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "sl":
        raise DataError('the header must be "sl <n>"')
    try:
        dim = int(head[1])
    except ValueError:
        raise DataError('the header must be "sl <n>"')
    if dim < 2:
        raise DataError("matrix dimension must be at least 2")
    mats = []
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != dim * dim:
            raise DataError(f"expected {dim * dim} entries per matrix line")
        try:
            entries = tuple(map(as_fraction, fields))
        except (ValueError, ZeroDivisionError) as exc:
            raise DataError(f"bad rational entry: {exc}")
        try:
            mats.append(RationalMatrix(dim, entries))
        except ValueError as exc:
            raise DataError(str(exc))
    if not mats:
        raise DataError("no matrices in the input file")
    return RationalTuple(tuple(mats))


def _parse_factor_element(spec: GroupSpec, fields: list):
    n, p = spec.n, spec.p
    if len(fields) != n * n:
        raise DataError(f"expected {n * n} entries for a {spec.descriptor()} element")
    try:
        vals = [int(f) % p for f in fields]
    except ValueError:
        raise DataError("factor entries must be integers")
    m = FpMatrix(p, n, tuple(vals))
    if m.det() != 1:
        raise DataError("factor entry has determinant != 1 mod p")
    if isinstance(spec, ProjSpecialLinear):
        return projective_canonicalize(m)
    return m


def read_product_tuple(path: str) -> GeneratingTuple:
    """File format: a header "prod <desc1> <desc2>", then one tuple
    entry per line as the two factor matrices' integer entries mod p,
    separated by a | character."""
    lines = _read_lines(path)
    if not lines:
        raise DataError("input file is empty")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "prod":
        raise DataError('the header must be "prod <desc1> <desc2>"')
    f1 = parse_group(head[1])
    f2 = parse_group(head[2])
    if not all(isinstance(f, _MatrixGroup) for f in (f1, f2)):
        raise DataError("product factors must be sl or psl groups")
    group = ProductGroup((f1, f2))
    items = []
    for line in lines[1:]:
        halves = line.split("|")
        if len(halves) != 2:
            raise DataError("each entry line needs exactly one | separator")
        left = _parse_factor_element(f1, halves[0].split())
        right = _parse_factor_element(f2, halves[1].split())
        items.append((left, right))
    if not items:
        raise DataError("no tuple entries in the input file")
    return GeneratingTuple(group, tuple(items))


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def _render_lines(value, indent: int = 0, out=None) -> list:
    if out is None:
        out = []
    pad = "  " * indent
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v:
                out.append(f"{pad}{k}:")
                _render_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                out.append(f"{pad}-")
                _render_lines(item, indent + 1, out)
            else:
                out.append(f"{pad}- {_scalar(item)}")
    else:
        out.append(f"{pad}{_scalar(value)}")
    return out


def _scalar(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, list):
        return "[]"
    if isinstance(v, dict):
        return "{}"
    return str(v)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def _limits(args) -> SearchLimits:
    return SearchLimits(node_budget=args.node_budget,
                        time_budget=args.time_budget)


def _cmd_rank(args):
    """rank (m) and mu: one payload shape."""
    spec = parse_group(args.group)
    rank = mu_rank if args.command == "mu" else max_irredundant_size
    res = rank(spec, limits=_limits(args), seed=args.seed)
    payload = {
        "command": args.command,
        "group": spec.descriptor(),
        "rank": res.rank_kind,
        "value": res.value,
        "witness": _witness_payload(res.witness),
        "exhaustive": res.exhaustive,
        "notes": list(res.notes),
        "stats": _stats_payload(res.stats),
        "seed": args.seed,
    }
    return payload, EXIT_OK if res.exhaustive else EXIT_BUDGET


def _cmd_witness(args):
    if args.size < 1:
        raise DataError("size must be positive")
    spec = parse_group(args.group)
    try:    # an integer witness too long to print
        res = irredundant_witness(spec, args.size,
                                  involutions_only=args.involutions,
                                  limits=_limits(args), seed=args.seed)
    except ValueError as exc:
        raise DataError(str(exc))
    payload = {
        "command": "witness",
        "group": spec.descriptor(),
        "size": args.size,
        "witness": _witness_payload(res.witness),
        "exhausted": res.exhausted,
        "notes": list(res.notes),
        "stats": _stats_payload(res.stats),
        "seed": args.seed,
    }
    undecided = res.witness is None and not res.exhausted
    return payload, EXIT_BUDGET if undecided else EXIT_OK


def _cmd_zdemo(args):
    try:    # a size below 1, or entries too long to print
        w = z_witness(args.size)
    except ValueError as exc:
        raise DataError(str(exc))
    # the gcd without entry i joins the gcds of the entries before and after it
    before = list(itertools.accumulate(w.items, math.gcd, initial=0))
    after = list(itertools.accumulate(reversed(w.items), math.gcd, initial=0))[::-1]
    gcds = [math.gcd(b, a) for b, a in zip(before, after[1:])]
    report = RedundancyReport(w, before[-1] == 1, tuple(g == 1 for g in gcds))
    payload = {
        "command": "zdemo",
        "group": "z",
        "size": args.size,
        "witness": list(w.items),
        "verdict": report.verdict,
        "drop_checks": [{"index": i, "generates_without": d, "gcd_without": g}
                        for i, (d, g) in enumerate(zip(report.droppable, gcds))],
    }
    return payload, EXIT_OK


def _cmd_certify(args):
    if args.replay:
        stored = _read_text(args.input).strip()
        try:
            ok, detail = replay_certificate(stored)
        except ValueError as exc:
            # malformed, or a stored prime that is not prime or too large
            raise DataError(f"{args.input} is not a replayable certificate: {exc}")
        payload = {"command": "certify", "mode": "replay",
                   "match": ok, "detail": detail}
        return payload, EXIT_OK if ok else EXIT_DATA
    t = read_rational_tuple(args.input)
    explicit = tuple(args.primes) if args.primes else None
    config = PlanConfig(exceptional_floor=args.exceptional_floor,
                        max_primes=args.max_primes,
                        explicit_primes=explicit)
    try:
        result = certify_density(t, config)
    except ValueError as exc:
        # DenominatorClash, or --primes naming a non-prime or too large a one
        raise DataError(str(exc))
    serialized = serialize_certificate(result)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(serialized + "\n")
        except OSError as exc:
            raise DataError(f"cannot write {args.out}: {exc}")
    certified = isinstance(result, DensityCertificate)
    payload = {
        "command": "certify",
        "mode": "certify",
        "certified": certified,
        "certificate": json.loads(serialized),
        "written_to": args.out,
    }
    code = EXIT_OK if certified else EXIT_NOT_CERTIFIED
    if args.irredundancy:
        ev = assess_irredundancy(t, prime_count=args.irredundancy, config=config)
        payload["irredundancy"] = {
            "summary": ev.summary,
            "records": [{"prime": r.prime, "generates": r.generates,
                         "verdict": r.verdict, "droppable": list(r.droppable)}
                        for r in ev.records],
        }
        if certified and ev.summary in ("mixed",):
            code = EXIT_EVIDENCE_MIXED
    if args.nielsen:
        ev = assess_nielsen_irredundancy(t, prime_count=args.nielsen,
                                         config=config, limits=_limits(args))
        payload["nielsen"] = {
            "summary": ev.summary,
            "records": [{"prime": r.prime, "verdict": r.verdict,
                         "visited": r.visited} for r in ev.records],
        }
        if certified and code == EXIT_OK and ev.summary in ("mixed", "undecided"):
            code = EXIT_EVIDENCE_MIXED
    return payload, code


def _cmd_product_check(args):
    t = read_product_tuple(args.input)
    try:
        report = product_generates(t, time.monotonic() + args.time_budget)
        generates, diagnosis, code = report.generates, report.diagnosis, EXIT_OK
    except ValueError as exc:
        raise DataError(str(exc))
    except TimeoutError:
        generates, code = None, EXIT_BUDGET
        diagnosis = f"the time budget of {args.time_budget:g} s ran out before a verdict"
    payload = {
        "command": "product-check",
        "group": t.group.descriptor(),
        "tuple_length": len(t),
        "generates": generates,
        "diagnosis": diagnosis,
    }
    return payload, code


def _cmd_orbit(args):
    spec = parse_group(args.group)
    try:
        stats = orbit_statistics(spec, args.size, limits=_limits(args))
    except ValueError as exc:
        raise DataError(str(exc))
    payload = {
        "command": "orbit",
        "group": spec.descriptor(),
        "size": args.size,
        "generating_classes": stats.generating_classes,
        "orbit_count": stats.orbit_count,
        "orbit_sizes": list(stats.orbit_sizes),
        "orbits_with_redundant": stats.orbits_with_redundant,
        "fraction_with_redundant": stats.fraction_with_redundant,
        "partial": stats.partial,
        "notes": list(stats.notes),
    }
    return payload, EXIT_BUDGET if stats.partial else EXIT_OK


def _seconds(text: str) -> float:
    """A time budget: any float but NaN, which no elapsed time exceeds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ValueError(f"expected a number of seconds, got {text!r}")
    return value


def _count(text: str) -> int:
    """A count of primes: an integer of at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"expected a count of at least 1, got {text!r}")


def _format(text: str) -> str:
    if text not in ("table", "json"):
        raise ValueError(f"expected table or json, got {text!r}")
    return text


# ---------------------------------------------------------------------------
# The command line: one table of commands, read by parse_args and by the
# help text.  An option is (name, kind, type, default, metavar, help); a
# "value" or "required" option takes one value, "list" one or more, and a
# "flag" none.  Every command takes one positional (dest, type) and the
# common options.
# ---------------------------------------------------------------------------

_COMMON = (
    ("--seed", "value", int, 0, "N", "seed of the randomised searches"),
    ("--node-budget", "value", int, 100_000_000, "N", "search node budget"),
    ("--time-budget", "value", _seconds, 600.0, "S", "time budget in seconds"),
    ("--format", "value", _format, "table", "{table,json}", "output format"),
)
_SIZE = ("--size", "required", int, None, "K", "size of the sets or tuples")
_COMMANDS = {
    "rank": (_cmd_rank, "maximal irredundant generating size", ("group", str), ()),
    "mu": (_cmd_rank, "maximal Nielsen-irredundant generating size", ("group", str), ()),
    "witness": (_cmd_witness, "find or rule out an irredundant generating set of a size",
                ("group", str),
                (_SIZE, ("--involutions", "flag", None, False, "", "only sets of involutions"))),
    "zdemo": (_cmd_zdemo, "integer witness family with drop checks", ("size", int), ()),
    "certify": (_cmd_certify, "density certificate for a rational tuple file", ("input", str), (
        ("--out", "value", str, None, "PATH", "write the certificate here"),
        ("--primes", "list", int, None, "P", "explicit primes to reduce at"),
        ("--exceptional-floor", "value", int, 3, "P", "least prime of the plan"),
        ("--max-primes", "value", _count, 10, "K", "most primes in the plan"),
        ("--irredundancy", "value", _count, None, "K",
         "assess irredundancy at the first K usable primes"),
        ("--nielsen", "value", _count, None, "K",
         "assess Nielsen irredundancy at the first K usable primes"),
        ("--replay", "flag", None, False, "",
         "treat the input as a stored certificate and re-run it"))),
    "product-check": (_cmd_product_check, "generation in a product of two simple groups",
                      ("input", str), ()),
    "orbit": (_cmd_orbit, "Nielsen orbit statistics at one tuple size", ("group", str), (_SIZE,)),
}
_HELP = ("-h, --help", "help", None, None, "", "show this help and exit")
_TOP_OPTIONS = {"-h": _HELP, "--help": _HELP}
# a token that names no option but looks like a negative number is a value
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class ShowHelp(Exception):
    """Raised by parse_args with the help text to print."""


def _help(command: str | None) -> str:
    if command is None:
        return "\n".join(["usage: genrank <command> [options]", "", "commands:",
                          *(f"  {name:<13}  {_COMMANDS[name][1]}" for name in _COMMANDS),
                          "", 'options of each command: "genrank <command> --help"'])
    _, text, (dest, _), own = _COMMANDS[command]
    lines = [f"usage: genrank {command} {dest.upper()} [options]", "", text, "", "options:"]
    for name, kind, _, default, metavar, what in (*own, *_COMMON, _HELP):
        if kind not in ("flag", "help"):
            name += f" {metavar} [{metavar} ...]" if kind == "list" else f" {metavar}"
        if kind == "required" or kind == "value" and default is not None:
            what += " (required)" if default is None else f" (default {default})"
        lines.append(f"  {name:<22}  {what}")
    return "\n".join(lines)


def _classify(token: str, options: dict):
    """None for a value, else (option name, or None when no option has
    that name; the value after = or glued to -h, or None).  A long option
    may be named by a unique prefix."""
    if not token or token[0] != "-":
        return None
    if token in options:
        return token, None
    if len(token) == 1:
        return None
    head, eq, value = token.partition("=")
    if eq and head in options:
        return head, value
    if token[1] == "-":
        found = [(name, value if eq else None) for name in options if name.startswith(head)]
    else:
        found = [(token[:2], token[2:])] if token[:2] in options else []
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {token} could match "
                         + ", ".join(name for name, _ in found))
    if found:
        return found[0]
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _check_flag(name: str, value) -> None:
    """A flag takes no value; -h glued to more h's is -h repeated."""
    if value is not None and (name[1] == "-" or not value or value.strip("h")):
        raise UsageError(f"argument {name}: ignored explicit argument {value!r}")


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _convert(name: str, convert, texts: list) -> list:
    try:
        return [convert(t) for t in texts]
    except ValueError as exc:
        raise UsageError(f"argument {name}: {exc}")


def _parse_command(command: str, tokens: list, ns) -> list:
    """Parse one command's tokens into ns: options and the positional in
    any order, an option's values up to the next option or --, the last
    of a repeated option.  Returns the tokens nothing took."""
    func, _, (dest, dest_type), own = _COMMANDS[command]
    options = {opt[0]: opt for opt in (*own, *_COMMON)}
    vars(ns).update({_dest(name): opt[3] for name, opt in options.items()}, func=func)
    options.update(_TOP_OPTIONS)
    # all tokens are classified before any is used, so an ambiguous
    # prefix is refused even after --help; past the first -- all are values
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_classify(t, options) for t in tokens[:end]] + [None] * (len(tokens) - end)
    extras, at, i = [], None, 0
    while i < len(tokens):
        kind, i = kinds[i], i + 1
        if i - 1 == end:
            continue
        if kind is None and at is None:
            setattr(ns, dest, _convert(dest, dest_type, [tokens[i - 1]])[0])
            at = i - 1
            continue
        if kind is None or kind[0] is None:
            extras.append(tokens[i - 1])
            continue
        name, value = kind
        how, convert = options[name][1:3]
        if how in ("flag", "help"):
            _check_flag(name, value)
            if how == "help":
                raise ShowHelp(_help(command))
            setattr(ns, _dest(name), True)
            continue
        if value is None:
            stop = i
            while stop < len(tokens) and stop != end and kinds[stop] is None and (
                    how == "list" or stop == i):
                stop += 1
            texts, i = tokens[i:stop], stop
        else:   # --name=-- gives no value, as -- ends the values
            texts = [value] if value != "--" else []
        if not texts:
            raise UsageError(f"argument {name}: expected "
                             + ("at least one argument" if how == "list" else "one argument"))
        values = _convert(name, convert, texts)
        setattr(ns, _dest(name), values if how == "list" else values[0])
    if end < len(tokens) and at not in (end - 1, end + 1):     # a -- beside the positional goes
        extras.append("--")
    missing = [dest] * (at is None) + [opt[0] for opt in own if opt[1] == "required"
                                       and getattr(ns, _dest(opt[0])) is None]
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    return extras


def parse_args(argv: list) -> types.SimpleNamespace:
    """The namespace of one command line: command, func, the positional
    and every option of the command.  Raises UsageError for a command
    line it refuses and ShowHelp for -h or --help.  Unknown options before
    the command, like unknown tokens after it, are refused only once the
    command's tokens parse."""
    extras = []
    for i, token in enumerate(argv):
        kind = "--" if token == "--" else _classify(token, _TOP_OPTIONS)
        if kind is None:
            break
        if kind == "--":
            raise UsageError("the command must come before --")
        if kind[0] is None:
            extras.append(token)
        else:
            _check_flag(*kind)
            raise ShowHelp(_help(None))
    else:
        raise UsageError("the following arguments are required: command")
    command = argv[i]
    if command not in _COMMANDS:
        raise UsageError(f"invalid choice: {command!r} (choose from {', '.join(_COMMANDS)})")
    ns = types.SimpleNamespace(command=command)
    extras += _parse_command(command, argv[i + 1:], ns)
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    return ns


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        payload, code = args.func(args)
        text = json.dumps(payload, indent=2, sort_keys=True) if args.format == "json" \
            else "\n".join(_render_lines(payload))
    except ShowHelp as exc:
        text, code = str(exc), EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, DenominatorClash) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:     # the reader is gone: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entry() -> None:
    sys.exit(main())
