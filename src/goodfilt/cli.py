"""Command-line front end.

Data goes to stdout (JSON by default, TSV with --format tsv, whose cells are
written as JSON writes them, a string bare); advisories and diagnostics go
to stderr.  The advisories are built here, from
``roots.validate_p`` and ``roots.in_jantzen_region``: a multiplicity table
holds only its entries.  Exit codes: 0 success, 2 usage or configuration
problems (including --strict advisory promotion, which ``rootsystem`` and
``extmult`` offer, rejected cache files, a --cache path that cannot be
read, decoded or written, and a --p at or above psi_13, where
``roots.check_prime`` is no longer exact), 3 singular-weight
rejection, 4 internal invariant violation.  Output is byte-stable for
identical inputs and cache state: keys are emitted in sorted order
everywhere.  With ``--stats`` a
command also writes one JSON line to stderr: the wall and CPU seconds the
command took after argument parsing, the sizes of the character caches
(``characters.stats``) and, when the command built one, those of its
workspace (``Workspace.stats``).  ``main(argv, out, err)`` writes
everything, argparse's usage errors and ``--help`` included, to the two
streams it is given.

Each ``cmd_*`` function only computes: it takes the parsed arguments and
the workspace, and returns an ``Outcome`` (data, exit code, advisory lines,
and whether a checked condition failed).  ``_run`` alone does the I/O, in
this order: it builds the workspace of ``kl``, ``extmult`` and
``check-identity``; loads ``--cache`` if the file exists; runs the command;
saves the cache; prints the data as JSON or TSV (tables, those of ``tensor``
and ``extmult``, keyed by weight, under an ``omega``, ``multiplicity``
header in TSV); writes the ``advisory:`` lines; and applies --strict.  So the
cache is saved before anything is printed, and no refusal follows printed
data.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import NamedTuple

from . import characters as ch
from . import extmult as em
from . import roots as _r
from .errors import GoodfiltError, InternalInvariantError, SingularWeightError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_INVARIANT = 4

# the standing hypothesis of every multiplicity table
CHARACTER_FORMULA_NOTE = (
    "note: results assume the characteristic-p irreducible character "
    "formula for all p-regular weights"
)


# argparse reads "--weight -3,-2" as a missing value followed by an option
WEIGHT_HELP = "comma-separated ints; a negative first coordinate is passed as --%(dest)s=-3,-2"


def _ints_arg(kind: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {kind} {text!r}: {exc}") from exc


def weight_arg(text: str) -> tuple[int, ...]:
    return _ints_arg("weight", text)


def word_arg(text: str) -> tuple[int, ...]:
    return () if text.strip() in ("", "e") else _ints_arg("word", text)


def fmt_weight(w) -> str:
    return ",".join(str(c) for c in w)


def emit(data: dict, fmt: str, out) -> None:
    """Write ``data`` as one JSON line, or as TSV rows of key and cell, a
    nested dict one row per inner key.  A TSV cell is JSON-encoded as in
    the JSON line, except that a string stays bare."""
    dumps = lambda v: json.dumps(v, sort_keys=True, separators=(", ", ": "))
    if fmt == "json":
        out.write(dumps(data) + "\n")
        return
    for key in sorted(data):
        value = data[key]
        nested = isinstance(value, dict)
        rows = [(f"{key}.{k}", value[k]) for k in sorted(value)] if nested else [(key, value)]
        for name, cell in rows:
            out.write(f"{name}\t{cell if isinstance(cell, str) else dumps(cell)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodfilt",
        description=(
            "Exact affine Kazhdan-Lusztig combinatorics: alcove locations, "
            "KL polynomials, Weyl character tensor decompositions, and "
            "good-filtration multiplicities of Frobenius-kernel Ext groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_p=True):
        p.add_argument("--series", required=True, help="root system series A-G")
        p.add_argument("--rank", required=True, type=int)
        if need_p:
            p.add_argument("--p", required=True, type=int, help="prime modulus")
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--stats", action="store_true", help="time and cache sizes on stderr")

    p_rs = sub.add_parser("rootsystem", help="print root-system data and the alcove bound")
    common(p_rs)

    p_loc = sub.add_parser("locate", help="alcove location of a weight")
    common(p_loc)
    p_loc.add_argument("--weight", required=True, type=weight_arg, help=WEIGHT_HELP)

    p_kl = sub.add_parser("kl", help="Kazhdan-Lusztig polynomial of two words")
    common(p_kl, need_p=False)
    p_kl.add_argument("--x", required=True, type=word_arg, help="word, e.g. 0,1,2")
    p_kl.add_argument("--y", required=True, type=word_arg)

    p_t = sub.add_parser("tensor", help="dual Weyl tensor decomposition")
    common(p_t, need_p=False)
    p_t.add_argument("--weights", required=True, type=weight_arg, nargs="+")

    p_e = sub.add_parser("extmult", help="constituent multiplicities of an Ext group")
    common(p_e)
    p_e.add_argument("--variant", required=True, choices=em.VARIANTS)
    p_e.add_argument("--lam", required=True, type=weight_arg, help=WEIGHT_HELP)
    p_e.add_argument("--mu", required=True, type=weight_arg, help=WEIGHT_HELP)
    p_e.add_argument("--n", required=True, type=int)
    p_e.add_argument("--omega", type=weight_arg, action="append", default=None, help=WEIGHT_HELP)

    p_c = sub.add_parser(
        "check-identity",
        help="two-path consistency identity over a box of weights",
    )
    common(p_c)
    p_c.add_argument(
        "--max-pairing",
        required=True,
        type=int,
        help="bound on <mu+rho, alpha_0^vee> for the mu box",
    )

    for p in (p_kl, p_e, p_c):  # the commands with a KL table
        p.add_argument("--cache", help="JSON-lines KL table to load and update")
    for p in (p_rs, p_e):  # the commands whose output carries advisories
        p.add_argument("--strict", action="store_true", help="fail on advisories")
    return parser


class Outcome(NamedTuple):
    """What a command computed.  ``failed`` marks a checked condition on the
    inputs that failed, which --strict turns into exit 2; only the commands
    that take --strict set it."""

    data: dict
    code: int = EXIT_OK
    advisories: tuple[str, ...] = ()
    failed: bool = False


def cmd_rootsystem(args, ws) -> Outcome:
    rs = _r.build_root_system(args.series, args.rank)
    p = _r.check_prime(args.p)
    report = _r.validate_p(rs, p)
    data = {
        "series": rs.series,
        "rank": rs.rank,
        "num_positive_roots": len(rs.positive_roots),
        "coxeter_number": rs.coxeter_number,
        "rho": fmt_weight(rs.rho),
        "highest_short_root": fmt_weight(rs.highest_short_root.simple_coords),
        "highest_short_coroot": fmt_weight(rs.highest_short_root.coroot),
        "jantzen_bound": _r.jantzen_bound(rs, p),
        "positive_roots": {
            str(i): fmt_weight(root.simple_coords)
            for i, root in enumerate(rs.positive_roots)
        },
    }
    return Outcome(data, advisories=report.warnings, failed=not report.ok)


def cmd_locate(args, ws) -> Outcome:
    from .affine import get_group

    group = get_group(args.series, args.rank)
    try:
        loc = group.locate(args.weight, args.p)
    except SingularWeightError as exc:
        return Outcome(
            {
                "regular": False,
                "weight": fmt_weight(exc.weight),
                "vanishing_pairing": exc.pairing,
                "coroot": fmt_weight(exc.coroot),
            },
            EXIT_SINGULAR,
        )
    return Outcome(
        {
            "regular": True,
            "length": loc.length,
            "word": list(group.canonical_word(loc.element)),
            "antidominant": fmt_weight(loc.antidominant_rep),
        }
    )


def cmd_kl(args, ws) -> Outcome:
    x = ws.group.from_word(args.x)
    y = ws.group.from_word(args.y)
    poly = ws.table.kl(x, y)
    return Outcome(
        {
            "x": list(ws.group.canonical_word(x)),
            "y": list(ws.group.canonical_word(y)),
            "p_of_q": list(poly),
        }
    )


def cmd_tensor(args, ws) -> Outcome:
    rs = _r.build_root_system(args.series, args.rank)
    return Outcome(ch.multi_tensor_nabla_multiplicities(rs, *args.weights))


def cmd_extmult(args, ws) -> Outcome:
    query = em.MultiplicityQuery(args.variant, args.lam, args.mu, args.n, args.p)
    table = em.multiplicity_table(ws, query, omegas=args.omega)
    rs, p = ws.rs, args.p
    prime = [f"warning: {w}" for w in _r.validate_p(rs, p).warnings]
    outside = [
        f"warning: {name}={list(w)} lies outside the region "
        f"<w+rho, alpha_0^vee> <= p(p-h+2) = {_r.jantzen_bound(rs, p)}"
        for name, w in (("lambda", args.lam), ("mu", args.mu))
        if not _r.in_jantzen_region(rs, w, p)
    ]
    lines = (*prime, CHARACTER_FORMULA_NOTE, *outside)
    return Outcome(table, advisories=lines, failed=bool(prime or outside))


def cmd_check_identity(args, ws) -> Outcome:
    result = em.run_identity_box(ws, args.p, args.max_pairing)
    failures = [
        {"mu": fmt_weight(f.mu), "tau": fmt_weight(f.tau), "lhs": f.lhs, "rhs": f.rhs}
        for f in result["failures"]
    ]
    return Outcome(
        {
            "cases": result["cases"],
            "tau_checks": result["tau_checks"],
            "failures": failures,
            "message": (
                f"all {result['cases']} cases pass"
                if not failures
                else f"{len(failures)} failures"
            ),
        },
        EXIT_OK if not failures else EXIT_INVARIANT,
    )


COMMANDS = {
    "rootsystem": cmd_rootsystem,
    "locate": cmd_locate,
    "kl": cmd_kl,
    "tensor": cmd_tensor,
    "extmult": cmd_extmult,
    "check-identity": cmd_check_identity,
}
TABLES = ("tensor", "extmult")  # their data maps weights to multiplicities


def main(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    args.workspace = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        return _run(args, out, err)
    finally:
        if args.stats:
            wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
            data = {"wall_s": wall_s, "cpu_s": cpu_s, "characters": ch.stats()}
            if args.workspace is not None:
                data["workspace"] = args.workspace.stats()
            err.write(json.dumps(data, sort_keys=True) + "\n")


def _run(args, out, err) -> int:
    """Run the command and do all of its I/O, in the order the module
    docstring gives; each library error maps to its exit code."""
    try:
        ws = None
        if "cache" in args:  # a command with a KL table
            ws = args.workspace = em.make_workspace(args.series, args.rank)
            if args.cache and os.path.exists(args.cache):
                n = ws.table.load(args.cache)
                err.write(f"cache: loaded {n} entries from {args.cache}\n")
        result = COMMANDS[args.command](args, ws)
        if ws is not None and args.cache:
            ws.table.save(args.cache)
            err.write(f"cache: saved {len(ws.table.memo)} entries to {args.cache}\n")
        data = result.data
        if args.command in TABLES:
            if args.format == "tsv":
                out.write("omega\tmultiplicity\n")
            data = {fmt_weight(w): m for w, m in data.items()}
        emit(data, args.format, out)
        for line in result.advisories:
            err.write(f"advisory: {line}\n")
        if result.failed and args.strict:
            err.write("error: advisories present and --strict given\n")
            return EXIT_CONFIG
        return result.code
    except SingularWeightError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_SINGULAR
    except InternalInvariantError as exc:
        err.write(f"internal error: {exc}\n")
        return EXIT_INVARIANT
    except (GoodfiltError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
