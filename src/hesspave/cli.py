"""Command-line front end.

Subcommands: cells, poincare, r0, verify, generic-flag, count, profile.
JSON is the canonical output format and is byte-deterministic for a fixed
configuration (including the seed); CSV and text are convenience views.
Every JSON view is json.dumps of the payload with sorted keys and no
spaces, except that `cells` writes its `cells` array from shared text
fragments, one string per cell; that text equals the json.dumps form of
one dict per cell, which the tests check byte for byte.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 budget
or resource limit exceeded (the F_q budget, the recursion limit or memory).

The exact commands (`cells`, `poincare`, `r0`, `profile`) load only
`combinatorics` and `paving`; `generic-flag` imports `domains` and `exactla`
when it runs, `count` and `verify` also the numpy F_q layer (`oracle`).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING, Callable

import hesspave

from .combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    format_tableau,
    tableau_of,
)
from .paving import (
    enumerate_cells,
    hessenberg_inversions,
    inversion_profile,
    poincare,
    r0_tableau,
    zero_dim_cells,
)

if TYPE_CHECKING:
    from .domains import Poly

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


class InputError(Exception):
    """Invalid command-line input; message lists every violated constraint."""


def _parse_int_list(text: str, label: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"{label} must be a comma-separated list of integers, got {text!r}")


def _parse_lambda(text: str) -> Composition:
    parts = _parse_int_list(text, "--lambda")
    try:
        lam = Composition(parts)
    except ValueError as e:
        raise InputError(f"--lambda: {e}")
    if lam.n < 1:
        raise InputError("--lambda must have at least one box")
    # every command sizes Python sequences by n, which must fit a C ssize_t
    if lam.n > sys.maxsize:
        raise InputError(f"--lambda has {lam.n} boxes, more than the largest size {sys.maxsize}")
    return lam


def _parse_h(text: str, n: int) -> HessenbergFunction:
    if text == "springer":
        return HessenbergFunction.springer(n)
    values = _parse_int_list(text, "--h")
    problems = []
    if len(values) != n:
        problems.append(f"--h has {len(values)} values but n={n}")
    try:
        h = HessenbergFunction(values)
    except ValueError as e:
        problems.append(f"--h: {e}")
        h = None
    if problems:
        raise InputError("; ".join(problems))
    return h


def _parse_w(args, n: int) -> Permutation:
    if args.w is None:
        raise InputError(f"--w is required for {args.command}")
    word = _parse_int_list(args.w, "--w")
    problems = []
    if len(word) != n:
        problems.append(f"--w has {len(word)} values but n={n}")
    try:
        w = Permutation(word)
    except ValueError as e:
        problems.append(f"--w: {e}")
    if problems:
        raise InputError("; ".join(problems))
    return w


def _search_inputs(args) -> int | None:
    """Check the F_q search flags of count and verify; return --q, checked."""
    problems = []
    if args.budget_bits < 1:
        problems.append("--budget-bits must be >= 1")
    if getattr(args, "seed", None) is not None and args.seed < 0:
        problems.append("--seed must be >= 0")
    q = args.q
    if q is not None:
        from .domains import FieldSpec

        try:
            q = FieldSpec(q).q
        except ValueError as e:
            problems.append(f"--q: {e}")
    if problems:
        raise InputError("; ".join(problems))
    return q


def _header(args, lam: Composition, h: HessenbergFunction) -> dict:
    return {
        "lambda": list(lam.parts),
        "h": "springer" if args.h == "springer" else list(h.values),
        "command": args.command,
        "version": hesspave.__version__,
    }


def _emit(
    args,
    payload: dict,
    csv_rows: Callable[[], list[str]],
    text: Callable[[], str],
    cells: Callable[[], str] | None = None,
) -> None:
    """Write the view `--format` asks for; the CSV and text views are built lazily.

    `cells`, if given, builds the JSON text of the `cells` array, which goes
    in as the first key of the payload's canonical JSON: "cells" sorts
    before every header key.
    """
    if args.format == "json":
        out = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), check_circular=False
        )
        if cells is not None:
            out = '{"cells":[' + cells() + "]," + out[1:]
        out += "\n"
    elif args.format == "csv":
        out = "\n".join(csv_rows()) + "\n"
    else:
        out = text() + "\n"
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(out)
        except OSError as e:
            raise InputError(f"--out: {e}")
    else:
        sys.stdout.write(out)


class _Fragments(dict):
    """JSON arrays of int tuples: table[t] is the text "[t0,t1,...]", made
    on the first read from `digits`, the decimal string of each value."""

    __slots__ = ("digits",)

    def __init__(self, digits: list[str]):
        self.digits = digits

    def __missing__(self, key: tuple[int, ...]) -> str:
        text = self[key] = "[" + ",".join(map(self.digits.__getitem__, key)) + "]"
        return text


def _cells_array(cells: list[tuple], n: int) -> str:
    """The elements of the `cells` JSON array, as json.dumps with sorted keys
    writes {"w": word, "tableau": rows, "inversions": pairs, "dim": dim}.

    Each (word, rows, pairs, dim) cell of `enumerate_cells` is one string
    spliced from shared fragments: the decimal text of each value 1..n, and
    the text of each pair and each row tuple, made the first time one is
    read.  The walk shares its row tuples and the pair tuples of
    `_pair_table` across cells, and only the pairs that occur are encoded.
    """
    digits = list(map(str, range(n + 1)))
    pair = _Fragments(digits).__getitem__
    row = _Fragments(digits).__getitem__
    digit = digits.__getitem__
    return ",".join([
        '{"dim":%d,"inversions":[%s],"tableau":[%s],"w":[%s]}' % (
            dim,
            ",".join(map(pair, pairs)),
            ",".join(map(row, rows)),
            ",".join(map(digit, word)),
        )
        for word, rows, pairs, dim in cells
    ])


def cmd_cells(args, lam: Composition, h: HessenbergFunction) -> int:
    cells = enumerate_cells(lam, h)
    payload = _header(args, lam, h)
    payload["count"] = len(cells)

    def csv_rows() -> list[str]:
        return ["w;dim;inversions"] + [
            ",".join(map(str, word))
            + f";{dim};"
            + " ".join(f"({k},{l})" for k, l in pairs)
            for word, _, pairs, dim in cells
        ]

    def text() -> str:
        lines = [f"{len(cells)} cells for lambda={lam}, h={h}"]
        for word, _, pairs, dim in cells:
            w = ",".join(map(str, word))
            lines.append(f"w=[{w}]  dim={dim}  inv={list(pairs)}")
        return "\n".join(lines)

    _emit(args, payload, csv_rows, text, lambda: _cells_array(cells, lam.n))
    return EXIT_OK


def cmd_poincare(args, lam: Composition, h: HessenbergFunction) -> int:
    data = poincare(lam, h)
    payload = _header(args, lam, h)
    payload["coefficients"] = list(data.coeffs)
    payload["total_cells"] = data.total_cells
    payload["empty"] = data.total_cells == 0

    def csv_rows() -> list[str]:
        return ["k;cells_of_dim_k"] + [f"{k};{c}" for k, c in enumerate(data.coeffs)]

    def text() -> str:
        if data.total_cells == 0:
            return f"lambda={lam}, h={h}: variety is EMPTY"
        poly = " + ".join(
            (f"{c}*q^{k}" if k else str(c)) for k, c in enumerate(data.coeffs) if c
        )
        return f"lambda={lam}, h={h}: {data.total_cells} cells, P(q) = {poly}"

    _emit(args, payload, csv_rows, text)
    return EXIT_OK


def cmd_r0(args, lam: Composition, h: HessenbergFunction) -> int:
    r0 = r0_tableau(lam, h)
    payload = _header(args, lam, h)
    if r0 is None:
        payload["r0"] = None
        payload["empty"] = True
        _emit(args, payload, lambda: ["EMPTY"], lambda: "EMPTY")
        return EXIT_OK
    zeros = zero_dim_cells(lam, h)
    unique = len(zeros) == 1 and zeros[0].rows == r0.rows
    payload["r0"] = [list(r) for r in r0.rows]
    payload["empty"] = False
    payload["unique_zero_cell"] = unique
    _emit(
        args, payload,
        lambda: [" ".join(str(v) for v in row) for row in r0.rows],
        lambda: format_tableau(r0),
    )
    return EXIT_OK if unique else EXIT_VERIFY_FAILED


def cmd_verify(args, lam: Composition, h: HessenbergFunction) -> int:
    from .verify import run_verification

    q = _search_inputs(args)
    report = run_verification(lam, h, q=q, budget_bits=args.budget_bits, seed=args.seed)
    payload = _header(args, lam, h)
    if args.seed is not None:
        payload["seed"] = args.seed
    payload.update(report.to_json())

    def csv_rows() -> list[str]:
        return ["check;ok;witness"] + [
            f"{c.name};{int(c.ok)};{c.witness or ''}" for c in report.checks
        ]

    def text() -> str:
        fail = report.first_failure()
        lines = [f"{'PASS' if c.ok else 'FAIL'} {c.name}" for c in report.checks]
        if fail is not None:
            lines.append(f"first failure: {fail.name} (witness: {fail.witness})")
        if report.partial:
            lines.append(f"BUDGET EXCEEDED: {report.budget_message}")
        return "\n".join(lines)

    _emit(args, payload, csv_rows, text)
    if report.partial:
        return EXIT_BUDGET
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_generic_flag(args, lam: Composition, h: HessenbergFunction) -> int:
    from .exactla import generic_flag, hess_zero_coordinates

    w = _parse_w(args, lam.n)
    hess = hessenberg_inversions(w, lam, h)
    try:
        zero_keys = hess_zero_coordinates(w, lam, hess)
    except ValueError as e:
        raise InputError(f"{e} for w={w}")
    columns = generic_flag(w, lam, hess).columns
    payload = _header(args, lam, h)
    payload["w"] = list(w.word)
    payload["zeroed"] = sorted([list(k) for k in zero_keys])
    payload["columns"] = [[repr(e) for e in col] for col in columns]

    def csv_rows() -> list[str]:
        return ["column;entries"] + [
            f"{j};" + "|".join(repr(e) for e in col)
            for j, col in enumerate(columns, start=1)
        ]

    def text() -> str:
        lines = [f"generic flag for w={w}, lambda={lam}, h={h}"]
        if zero_keys:
            lines.append(
                "zeroed coordinates: "
                + ", ".join(f"x{a}{b}" for a, b in sorted(zero_keys))
            )
        for j, col in enumerate(columns, start=1):
            terms = [
                f"({e!r})*e{i}" if not _is_simple(e) else _simple_term(e, i)
                for i, e in enumerate(col, start=1) if e
            ]
            lines.append(f"v{j} = " + (" + ".join(terms) if terms else "0"))
        return "\n".join(lines)

    _emit(args, payload, csv_rows, text)
    return EXIT_OK


def _is_simple(p: Poly) -> bool:
    return len(p.terms) <= 1


def _simple_term(p: Poly, i: int) -> str:
    if p == 1:
        return f"e{i}"
    return f"{p!r}*e{i}"


def cmd_count(args, lam: Composition, h: HessenbergFunction) -> int:
    from .oracle import BudgetExceededError, variety_point_count

    q = _search_inputs(args)
    if q is None:
        raise InputError("--q is required for count")
    try:
        report = variety_point_count(lam, h, q, budget_bits=args.budget_bits)
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    payload = _header(args, lam, h)
    payload.update(report.to_json())

    def csv_rows() -> list[str]:
        return ["w;count;expected"] + [
            ",".join(str(v) for v in e["w"]) + f";{e['count']};{e['expected']}"
            for e in payload["per_cell"]
        ]

    def text() -> str:
        return (
            f"|Hess(F_{q})| = {report.total}, predicted {report.predicted}: "
            + ("MATCH" if report.match else "MISMATCH")
        )

    _emit(args, payload, csv_rows, text)
    return EXIT_OK if report.match else EXIT_VERIFY_FAILED


def cmd_profile(args, lam: Composition, h: HessenbergFunction) -> int:
    w = _parse_w(args, lam.n)
    t = tableau_of(w, lam)
    try:
        prof = inversion_profile(t, h)
    except ValueError as e:
        raise InputError(str(e))
    payload = _header(args, lam, h)
    payload["w"] = list(w.word)
    entries = sorted(prof.items())
    payload["profile"] = [{"i": i, "j": j, "count": c} for (i, j), c in entries]
    payload["total"] = prof.total()

    def csv_rows() -> list[str]:
        return ["i;j;count"] + [f"{i};{j};{c}" for (i, j), c in entries]

    def text() -> str:
        lines = [f"inversion profile for w={w}, lambda={lam}, h={h}"]
        lines += [f"d({i},{j}) = {c}" for (i, j), c in entries]
        lines.append(f"total = {prof.total()}")
        return "\n".join(lines)

    _emit(args, payload, csv_rows, text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="hesspave",
        description="Affine pavings of type-A Hessenberg varieties with h(i) < i",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "cells": cmd_cells,
        "poincare": cmd_poincare,
        "r0": cmd_r0,
        "verify": cmd_verify,
        "generic-flag": cmd_generic_flag,
        "count": cmd_count,
        "profile": cmd_profile,
    }
    for name, func in commands.items():
        # no prefix matching: `--w` must not read as the hidden slot below
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--lambda", dest="lam", required=True,
                       help="comma-separated row lengths, e.g. 2,2,2")
        p.add_argument("--h", default="springer",
                       help="comma-separated values or the literal 'springer'")
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--out", default=None, metavar="FILE")
        if name in ("count", "verify"):
            p.add_argument("--q", type=int, default=None, help="prime field size")
            p.add_argument("--budget-bits", type=int, default=24)
        if name == "verify":
            p.add_argument("--seed", type=int, default=None)
        if name in ("generic-flag", "profile"):
            p.add_argument("--w", default=None,
                           help="comma-separated one-line notation")
        if name in ("cells", "poincare", "count", "verify"):
            # Accepted and never read: the benchmark appends `--workers 1` to
            # every op and keys its output digests by that argv
            # (perfbench/workloads.py, perfbench/digests.json).
            p.add_argument("--workers", type=int, help=argparse.SUPPRESS)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lam = _parse_lambda(args.lam)
        return args.func(args, lam, _parse_h(args.h, lam.n))
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RecursionError:
        print("resource limit: recursion too deep for this input", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("resource limit: out of memory for this input", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
