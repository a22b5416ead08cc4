"""Command line front end.

Grids come from a file argument or stdin ('-'), reports go to stdout as JSON
(schema field "schema": 1, except ugb-check at 2: its order-free membership
verdict "candidates_in_ideal" sits at the top level, its per-order outcomes
carry no S-pair field) or readable text, diagnostics go to stderr.  Exit
codes: 0 success, 1 usage error, 2 fuzzing found a conjecture counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .certificates import balanced_certificate_treelike, expand_certificate
from .classify import is_column_convex, is_row_convex, is_simple, is_tree_like, leaf_census
from .cycles import cycle_binomial, enumerate_cycles
from .errors import PolyominoError
from .grid import Polyomino
from .gridio import fuzz_conjecture, parse_grid, render_grid
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


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_polyomino(path: str) -> Polyomino:
    return parse_grid(_read_text(path))


def _var_names(P: Polyomino) -> list[str]:
    return [f"x({i},{j})" for (i, j) in P.vertices]


def _poly_str(P: Polyomino, f) -> str:
    return polynomial_str(f, names=_var_names(P))


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _read_labeling(path: str) -> dict:
    labeling = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"labeling line {lineno}: expected 'i j value'")
        i, j, value = (int(p) for p in parts)
        labeling[(i, j)] = value
    return labeling


def cmd_parse(args) -> int:
    P = _load_polyomino(args.grid)
    payload = {
        "schema": 1,
        "command": "parse",
        "cells": sorted(P.cells),
        "num_cells": len(P),
        "num_vertices": P.num_vertices,
        "timings": {},
    }
    _emit(payload, args.format, [
        f"cells: {sorted(P.cells)}",
        f"num_cells: {len(P)}",
        f"num_vertices: {P.num_vertices}",
    ])
    return 0


def cmd_render(args) -> int:
    data = json.loads(_read_text(args.cells))
    if isinstance(data, dict):
        data = data["cells"]
    P = Polyomino((tuple(c) for c in data))
    print(render_grid(P))
    return 0


def cmd_classify(args) -> int:
    P = _load_polyomino(args.grid)
    simple = is_simple(P)
    tree = is_tree_like(P)
    census = leaf_census(P)
    payload = {
        "schema": 1,
        "command": "classify",
        "num_cells": len(P),
        "num_vertices": P.num_vertices,
        "row_convex": is_row_convex(P),
        "column_convex": is_column_convex(P),
        "simple": simple.simple,
        "hole": simple.hole,
        "tree_like": tree.tree_like,
        "stuck": sorted(tree.stuck) if tree.stuck else None,
        "census": {
            "n0": census.n0,
            "n1": census.n1,
            "n2": census.n2,
            "n3": census.n3,
            "n4": census.n4,
            "good_leaves": list(census.good_leaves),
            "bad_leaves": list(census.bad_leaves),
            "blocking_cells": sorted(census.blocking_cells.items()),
        },
        "timings": {},
    }
    _emit(payload, args.format, [
        f"row_convex: {payload['row_convex']}",
        f"column_convex: {payload['column_convex']}",
        f"simple: {simple.simple}" + (f" (hole at {simple.hole})" if simple.hole else ""),
        f"tree_like: {tree.tree_like}",
        f"census: n1={census.n1} n2={census.n2} n3={census.n3} n4={census.n4}",
        f"good_leaves: {list(census.good_leaves)}",
        f"bad_leaves: {list(census.bad_leaves)}",
    ])
    return 0


def cmd_ideal(args) -> int:
    P = _load_polyomino(args.grid)
    gens = inner_minors(P)
    strs = [_poly_str(P, g) for g in gens]
    payload = {
        "schema": 1,
        "command": "ideal",
        "num_generators": len(gens),
        "generators": strs,
        "timings": {},
    }
    _emit(payload, args.format, [f"num_generators: {len(gens)}"] + strs)
    return 0


def cmd_groebner(args) -> int:
    P = _load_polyomino(args.grid)
    started = time.perf_counter()
    order = make_order(args.order, P.num_vertices)
    gb = buchberger(inner_minors(P), order)
    init = initial_ideal(gb, order)
    strs = [_poly_str(P, g) for g in gb]
    payload = {
        "schema": 1,
        "command": "groebner",
        "order": order.spec_string(),
        "basis_size": len(gb),
        "basis": strs,
        "initial_squarefree": is_squarefree(init),
        "timings": {"seconds": time.perf_counter() - started},
    }
    _emit(payload, args.format, [
        f"order: {order.spec_string()}",
        f"basis_size: {len(gb)}",
        f"initial_squarefree: {is_squarefree(init)}",
    ] + strs)
    return 0


def cmd_balanced(args) -> int:
    P = _load_polyomino(args.grid)
    started = time.perf_counter()
    report = is_balanced(P)
    payload = {
        "schema": 1,
        "command": "balanced",
        "balanced": report.balanced,
        "adm_rank": report.adm_rank,
        "num_cells": report.ncells,
        "offending": _poly_str(P, report.offending) if report.offending else None,
        "shared_gb_size": len(report.shared_gb) if report.shared_gb else None,
        "timings": {"seconds": time.perf_counter() - started},
    }
    lines = [f"balanced: {report.balanced}"]
    if report.adm_rank != report.ncells:
        lines.append(f"witness: admissible lattice rank {report.adm_rank} != cells {report.ncells}")
    elif report.offending is not None:
        lines.append(f"witness: {_poly_str(P, report.offending)} lies outside the minor ideal")
    else:
        lines.append(f"certificate: shared reduced basis of size {len(report.shared_gb)}")
    _emit(payload, args.format, lines)
    return 0


def cmd_prime(args) -> int:
    P = _load_polyomino(args.grid)
    started = time.perf_counter()
    verdict = is_prime(P)
    payload = {
        "schema": 1,
        "command": "prime",
        "prime": verdict,
        "timings": {"seconds": time.perf_counter() - started},
    }
    _emit(payload, args.format, [f"prime: {verdict}"])
    return 0


def cmd_dimension(args) -> int:
    P = _load_polyomino(args.grid)
    started = time.perf_counter()
    dim = dimension(P)
    payload = {
        "schema": 1,
        "command": "dimension",
        "dimension": dim,
        "num_vertices": P.num_vertices,
        "num_cells": len(P),
        "timings": {"seconds": time.perf_counter() - started},
    }
    _emit(payload, args.format, [
        f"dimension: {dim}",
        f"num_vertices: {P.num_vertices}",
        f"num_cells: {len(P)}",
    ])
    return 0


def cmd_cycles(args) -> int:
    P = _load_polyomino(args.grid)
    cycles = enumerate_cycles(P, max_vertices=args.max_vertices, primitive_only=args.primitive)
    by_length: dict[int, int] = {}
    for c in cycles:
        by_length[len(c)] = by_length.get(len(c), 0) + 1
    payload = {
        "schema": 1,
        "command": "cycles",
        "primitive_only": args.primitive,
        "count": len(cycles),
        "by_length": {str(k): v for k, v in sorted(by_length.items())},
        "cycles": [list(c.vertices) for c in cycles],
        "binomials": [_poly_str(P, cycle_binomial(P, c)) for c in cycles],
        "timings": {},
    }
    _emit(payload, args.format, [
        f"count: {len(cycles)}",
        f"by_length: {dict(sorted(by_length.items()))}",
    ] + [f"{list(c.vertices)}" for c in cycles])
    return 0


def cmd_ugb_check(args) -> int:
    P = _load_polyomino(args.grid)
    started = time.perf_counter()
    orders = order_sample(
        P.num_vertices,
        permutations=args.orders,
        weight_orders=args.orders,
        seed=args.seed,
    )
    report = universal_gb_check(P, orders)
    payload = {
        "schema": 2,
        "command": "ugb-check",
        "candidates": report.candidates,
        "candidates_in_ideal": report.candidates_in_ideal,
        "passed": report.passed,
        "outcomes": [
            {
                "order": o.order,
                "gb_within_candidates": o.gb_within_candidates,
                "initial_squarefree": o.initial_squarefree,
                "gb_size": o.gb_size,
            }
            for o in report.outcomes
        ],
        "timings": {"seconds": time.perf_counter() - started},
    }
    lines = [
        f"candidates: {report.candidates}",
        f"candidates_in_ideal: {report.candidates_in_ideal}",
        f"passed: {report.passed}",
    ]
    for o in report.outcomes:
        lines.append(
            f"{o.order}: gb_subset={o.gb_within_candidates} "
            f"squarefree={o.initial_squarefree} size={o.gb_size}"
        )
    _emit(payload, args.format, lines)
    return 0


def cmd_certify_treelike(args) -> int:
    P = _load_polyomino(args.grid)
    labeling = _read_labeling(args.labeling)
    cert = balanced_certificate_treelike(P, labeling)
    target = labeling_binomial(P, labeling) if any(labeling.values()) else None
    valid = expand_certificate(cert) == (target if target is not None else expand_certificate([]))
    payload = {
        "schema": 1,
        "command": "certify-treelike",
        "steps": [
            {"multiplier": _poly_str(P, m), "minor": _poly_str(P, g)}
            for m, g in cert
        ],
        "length": len(cert),
        "valid": valid,
        "target": _poly_str(P, target) if target is not None else "0",
        "timings": {},
    }
    _emit(payload, args.format, [
        f"target: {payload['target']}",
        f"length: {len(cert)}",
        f"valid: {valid}",
    ] + [f"({s['multiplier']}) * ({s['minor']})" for s in payload["steps"]])
    return 0


def cmd_fuzz(args) -> int:
    summary = fuzz_conjecture(args.trials, args.max_cells, args.seed)
    _emit(summary, args.format, [
        f"trials: {summary['trials']}",
        f"agreements: {summary['agreements']}",
        f"counterexamples: {len(summary['counterexamples'])}",
    ])
    if summary["counterexamples"]:
        print(
            f"found {len(summary['counterexamples'])} conjecture counterexample(s)",
            file=sys.stderr,
        )
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyideal",
        description="Polyomino ideals: classification, Groebner bases, balancedness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.set_defaults(fn=fn)
        return p

    p = add("parse", cmd_parse, help="parse grid text into a normalized cell list")
    p.add_argument("grid", nargs="?", default="-")

    p = add("render", cmd_render, help="render a JSON cell list as grid text")
    p.add_argument("cells", nargs="?", default="-")

    for name, fn, help_text in (
        ("classify", cmd_classify, "convexity, simplicity, tree-likeness, leaf census"),
        ("ideal", cmd_ideal, "inner minor generators of the polyomino ideal"),
        ("balanced", cmd_balanced, "decide balancedness, with witness"),
        ("prime", cmd_prime, "decide primality of the polyomino ideal"),
        ("dimension", cmd_dimension, "Krull dimension of the coordinate ring"),
    ):
        p = add(name, fn, help=help_text)
        p.add_argument("grid", nargs="?", default="-")

    p = add("groebner", cmd_groebner, help="reduced Groebner basis of the polyomino ideal")
    p.add_argument("grid", nargs="?", default="-")
    p.add_argument("--order", default="degrevlex",
                   help="lex|deglex|degrevlex[:perm=i,j,...][:weights=w,...]")

    p = add("cycles", cmd_cycles, help="enumerate cycles and their binomials")
    p.add_argument("grid", nargs="?", default="-")
    p.add_argument("--primitive", action="store_true")
    p.add_argument("--max-vertices", type=int, default=None)

    p = add("ugb-check", cmd_ugb_check, help="universal Groebner basis check over an order sample")
    p.add_argument("grid", nargs="?", default="-")
    p.add_argument("--orders", type=int, default=5,
                   help="number of sampled permutations and of weight orders")
    p.add_argument("--seed", type=int, default=0)

    p = add("certify-treelike", cmd_certify_treelike,
            help="constructive membership certificate for an admissible labeling")
    p.add_argument("grid", nargs="?", default="-")
    p.add_argument("--labeling", required=True, help="file of 'i j value' lines")

    p = add("fuzz", cmd_fuzz, help="random search for simple/balanced disagreement")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-cells", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PolyominoError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
