"""Command line front end.

Grids come from a file argument or stdin ('-'), reports go to stdout as JSON
or readable text (``--format``; ``render`` prints grid text and takes no
``--format``), diagnostics go to stderr.  Each row of ``_COMMANDS`` is a
report subcommand whose handler computes only its fields and text lines
from the parsed grid, as ``census`` does from every free polyomino;
``_run_report`` times a report and emits ``{"schema", "command", **fields,
"timings": {"seconds": ...}}``.  Schema 1, except groebner at 2 and
ugb-check at 3 (their degrevlex became graded reverse-lex) and balanced at
2 (its certificate counts chordless cycles checked); ugb-check's
order-free verdict "candidates_in_ideal" sits at the top level, its
per-order outcomes carry no S-pair field.  Exit codes: 0 success, 1 usage
error (a bad or missing argument, an unknown subcommand) or malformed input,
2 the census found simple and balanced disagree.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import asdict
from functools import partial
from typing import Callable, NamedTuple

from . import __version__
from .certificates import balanced_certificate_treelike, expand_certificate
from .classify import is_column_convex, is_row_convex, is_simple, is_tree_like, leaf_census
from .cycles import cycle_binomial, enumerate_cycles
from .errors import PolyominoError
from .grid import Polyomino, free_polyominoes
from .gridio import parse_grid, render_grid
from .groebner import buchberger, initial_ideal, is_squarefree
from .ideals import (
    dimension,
    inner_minors,
    is_balanced,
    is_prime,
    labeling_binomial,
    universal_gb_check,
)
from .orders import make_order, order_sample
from .polynomials import polynomial_str

# A handler's report: the JSON fields and the text lines.
_Report = tuple[dict, list[str]]

# ugb-check builds 2N + 3 orders for --orders N before checking any, so N is capped.
MAX_ORDERS = 1000
# census peaks at 233 MiB at 12 cells (each shape dropped once checked); 13 scales to ~0.9 GB.
MAX_CENSUS_CELLS = 13


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _poly_str(P: Polyomino, f) -> str:
    return polynomial_str(f, names=[f"x({i},{j})" for (i, j) in P.vertices])


def _lines(fields: dict, *keys: str) -> list[str]:
    """One 'key: value' text line per named field."""
    return [f"{key}: {fields[key]}" for key in keys]


def _read_labeling(path: str) -> dict:
    labeling = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"labeling line {lineno}: expected 'i j value'")
        try:
            i, j, value = map(int, parts)
        except ValueError:
            raise ValueError(
                f"labeling line {lineno}: expected integers 'i j value', got {line!r}"
            ) from None
        if (i, j) in labeling:
            raise ValueError(f"labeling line {lineno}: vertex {(i, j)} listed twice")
        labeling[(i, j)] = value
    return labeling


def _read_cells(path: str) -> list[list[int]]:
    """The cells of a JSON list of [i, j] integer pairs, or of {"cells": <that
    list>}.  Anything else, bools and floats included, is a ValueError: int()
    would turn true or 1.7 into a different polyomino."""
    data = json.loads(_read_text(path))
    cells = data.get("cells") if isinstance(data, dict) else data
    if not isinstance(cells, list):
        raise ValueError('render input must be a list of [i, j] integer pairs or {"cells": ...}')
    for k, cell in enumerate(cells):
        if not (isinstance(cell, list) and len(cell) == 2 and all(type(x) is int for x in cell)):
            raise ValueError(f"render input: cell {k} is {json.dumps(cell)}, not an integer pair")
    return cells


def _parse(P: Polyomino, args) -> _Report:
    fields = {"cells": sorted(P.cells), "num_cells": len(P), "num_vertices": P.num_vertices}
    return fields, _lines(fields, *fields)


def _classify(P: Polyomino, args) -> _Report:
    simple = is_simple(P)
    tree = is_tree_like(P)
    census = leaf_census(P)
    fields = {
        "num_cells": len(P),
        "num_vertices": P.num_vertices,
        "row_convex": is_row_convex(P),
        "column_convex": is_column_convex(P),
        "simple": simple.simple,
        "hole": simple.hole,
        "tree_like": tree.tree_like,
        "stuck": sorted(tree.stuck) if tree.stuck else None,
        "census": {**asdict(census), "blocking_cells": sorted(census.blocking_cells.items())},
    }
    return fields, [
        *_lines(fields, "row_convex", "column_convex"),
        f"simple: {simple.simple}" + (f" (hole at {simple.hole})" if simple.hole else ""),
        *_lines(fields, "tree_like"),
        f"census: n1={census.n1} n2={census.n2} n3={census.n3} n4={census.n4}",
        f"good_leaves: {list(census.good_leaves)}",
        f"bad_leaves: {list(census.bad_leaves)}",
    ]


def _ideal(P: Polyomino, args) -> _Report:
    generators = [_poly_str(P, g) for g in inner_minors(P)]
    fields = {"num_generators": len(generators), "generators": generators}
    return fields, _lines(fields, "num_generators") + generators


def _groebner(P: Polyomino, args) -> _Report:
    order = make_order(args.order, P.num_vertices)
    gb = buchberger(inner_minors(P), order)
    fields = {
        "order": order.spec_string(),
        "basis_size": len(gb),
        "basis": [_poly_str(P, g) for g in gb],
        "initial_squarefree": is_squarefree(initial_ideal(gb, order)),
    }
    return fields, _lines(fields, "order", "basis_size", "initial_squarefree") + fields["basis"]


def _balanced(P: Polyomino, args) -> _Report:
    report = is_balanced(P)
    fields = {
        "balanced": report.balanced,
        "adm_rank": report.adm_rank,
        "num_cells": report.ncells,
        "offending": _poly_str(P, report.offending) if report.offending else None,
        "cycles_checked": report.cycles_checked,
    }
    if report.adm_rank != report.ncells:
        witness = f"witness: admissible lattice rank {report.adm_rank} != cells {report.ncells}"
    elif report.offending is not None:
        witness = f"witness: {_poly_str(P, report.offending)} lies outside the minor ideal"
    else:
        witness = (f"certificate: all {report.cycles_checked} chordless cycles of the "
                   "interval graph are inner 4-cycles")
    return fields, [*_lines(fields, "balanced"), witness]


def _prime(P: Polyomino, args) -> _Report:
    fields = {"prime": is_prime(P)}
    return fields, _lines(fields, *fields)


def _dimension(P: Polyomino, args) -> _Report:
    fields = {"dimension": dimension(P), "num_vertices": P.num_vertices, "num_cells": len(P)}
    return fields, _lines(fields, *fields)


def _cycles(P: Polyomino, args) -> _Report:
    cycles = enumerate_cycles(P, max_vertices=args.max_vertices, primitive_only=args.primitive)
    by_length = dict(sorted(Counter(len(c) for c in cycles).items()))
    fields = {
        "primitive_only": args.primitive,
        "count": len(cycles),
        "by_length": {str(k): v for k, v in by_length.items()},
        "cycles": [list(c.vertices) for c in cycles],
        "binomials": [_poly_str(P, cycle_binomial(P, c)) for c in cycles],
    }
    return fields, [*_lines(fields, "count"), f"by_length: {by_length}"] + [
        str(vertices) for vertices in fields["cycles"]
    ]


def _ugb_check(P: Polyomino, args) -> _Report:
    if args.orders > MAX_ORDERS:  # before any order is built
        raise ValueError(f"--orders is at most {MAX_ORDERS}, got {args.orders}")
    orders = order_sample(
        P.num_vertices,
        permutations=args.orders,
        weight_orders=args.orders,
        seed=args.seed,
    )
    report = universal_gb_check(P, orders)
    fields = {
        "candidates": report.candidates,
        "candidates_in_ideal": report.candidates_in_ideal,
        "passed": report.passed,
        "outcomes": [asdict(o) for o in report.outcomes],
    }
    return fields, _lines(fields, "candidates", "candidates_in_ideal", "passed") + [
        f"{o.order}: gb_subset={o.gb_within_candidates} "
        f"squarefree={o.initial_squarefree} size={o.gb_size}"
        for o in report.outcomes
    ]


def _certify_treelike(P: Polyomino, args) -> _Report:
    labeling = _read_labeling(args.labeling)
    cert = balanced_certificate_treelike(P, labeling)
    target = labeling_binomial(P, labeling) if any(labeling.values()) else None
    valid = expand_certificate(cert) == (target if target is not None else expand_certificate([]))
    steps = [(_poly_str(P, m), _poly_str(P, g)) for m, g in cert]
    fields = {
        "steps": [{"multiplier": m, "minor": g} for m, g in steps],
        "length": len(cert),
        "valid": valid,
        "target": _poly_str(P, target) if target is not None else "0",
    }
    return fields, _lines(fields, "target", "length", "valid") + [
        f"({m}) * ({g})" for m, g in steps
    ]


class _Command(NamedTuple):
    """One report subcommand: each extra argument is (flag, add_argument keywords)."""

    name: str
    report: Callable[[Polyomino, argparse.Namespace], _Report]
    help: str
    arguments: tuple[tuple[str, dict], ...] = ()
    schema: int = 1


_COMMANDS = (
    _Command("parse", _parse, "parse grid text into a normalized cell list"),
    _Command("classify", _classify, "convexity, simplicity, tree-likeness, leaf census"),
    _Command("ideal", _ideal, "inner minor generators of the polyomino ideal"),
    _Command("balanced", _balanced, "decide balancedness, with witness", schema=2),
    _Command("prime", _prime, "decide primality of the polyomino ideal"),
    _Command("dimension", _dimension, "Krull dimension of the coordinate ring"),
    _Command("groebner", _groebner, "reduced Groebner basis of the polyomino ideal", (
        ("--order", {"default": "degrevlex",
                     "help": "lex|deglex|degrevlex[:perm=i,j,...][:weights=w,...]"}),
    ), schema=2),
    _Command("cycles", _cycles, "enumerate cycles and their binomials", (
        ("--primitive", {"action": "store_true"}),
        ("--max-vertices", {"type": int, "default": None}),
    )),
    _Command("ugb-check", _ugb_check, "universal Groebner basis check over an order sample", (
        ("--orders", {"type": int, "default": 5,
                      "help": "number of sampled permutations and of weight orders, "
                              f"at most {MAX_ORDERS}"}),
        ("--seed", {"type": int, "default": 0}),
    ), schema=3),
    _Command("certify-treelike", _certify_treelike,
             "constructive membership certificate for an admissible labeling", (
        ("--labeling", {"required": True, "help": "file of 'i j value' lines"}),
    )),
)


def _run_report(name: str, schema: int, report: Callable[[], _Report], fmt: str) -> dict:
    """Time report(), emit its fields in the envelope and return them."""
    started = time.perf_counter()
    fields, lines = report()
    payload = {"schema": schema, "command": name, **fields,
               "timings": {"seconds": time.perf_counter() - started}}
    print(json.dumps(payload, indent=2) if fmt == "json" else "\n".join(lines))
    return fields


def _run_grid_report(command: _Command, args) -> int:
    text = _read_text(args.grid)
    _run_report(command.name, command.schema,
                lambda: command.report(parse_grid(text), args), args.format)
    return 0


def _render(args) -> int:
    print(render_grid(Polyomino(_read_cells(args.cells))))
    return 0


def _census_report(max_cells: int) -> _Report:
    """Check simple iff balanced on every free polyomino with at most
    max_cells cells; each disagreement is a counterexample, in full."""
    levels = free_polyominoes(max_cells)
    shapes = {n: len(level) for n, level in levels.items()}
    counterexamples = []
    for level in levels.values():
        level.reverse()  # popped in order, so each shape is released once checked
        while level:
            P = level.pop()
            simple, balanced = is_simple(P), is_balanced(P)
            if simple.simple != balanced.balanced:
                counterexamples.append({"grid": render_grid(P), **simple._asdict(),
                                        "balanced": balanced.balanced,
                                        "adm_rank": balanced.adm_rank, "ncells": balanced.ncells})
    fields = {"max_cells": max_cells, "shapes": {str(n): k for n, k in shapes.items()},
              "counterexamples": counterexamples}
    return fields, [f"max_cells: {max_cells}", f"shapes: {shapes}",
                    f"counterexamples: {len(counterexamples)}", *map(json.dumps, counterexamples)]


def _census(args) -> int:
    if args.max_cells > MAX_CENSUS_CELLS:  # before any enumeration
        raise ValueError(f"--max-cells is at most {MAX_CENSUS_CELLS}, got {args.max_cells}")
    fields = _run_report("census", 1, partial(_census_report, args.max_cells), args.format)
    found = len(fields["counterexamples"])
    if found:
        print(f"found {found} polyomino(es) where simple and balanced disagree", file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on malformed input; 2 is the census's."""

    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyideal",
        description="Polyomino ideals: classification, Groebner bases, balancedness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.set_defaults(fn=fn)
        return p

    for command in _COMMANDS:
        p = add(command.name, partial(_run_grid_report, command), command.help)
        p.add_argument("grid", nargs="?", default="-")
        for flag, options in command.arguments:
            p.add_argument(flag, **options)

    p = sub.add_parser("render", help="render a JSON cell list as grid text")
    p.set_defaults(fn=_render)
    p.add_argument("cells", nargs="?", default="-")

    p = add("census", _census, "check simple iff balanced on every free polyomino")
    p.add_argument("--max-cells", type=int, default=6, help=f"at most {MAX_CENSUS_CELLS}")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PolyominoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
