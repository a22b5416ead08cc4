"""The benchmark's three closed-loop workloads.

Each workload has ``generate(seed)``, which builds the list of unit inputs
from the seed with the benchmark's own code; ``run(pkg, unit)``, the timed
call into the package for one verdict unit; and ``check(unit, verdict)``,
which compares the verdict with a reference that does not come from the
package and returns (problems, fingerprint).  The fingerprint is a digest of
the verdict, so traced and untraced passes can be compared exactly.

References (see bench/README.md for the full table):
  [HSM14] Herzog, Saeedi Madani, "The coordinate ring of a simple polyomino",
          Illinois J. Math. 58 (2014): simple <=> balanced.
  [HQS15] Herzog, Qureshi, Shikama, "Groebner bases of balanced polyominoes",
          Math. Nachr. 288 (2015): balanced => prime of height |P|, the
          primitive cycle binomials form a universal Groebner basis, the cell
          lattice is saturated, and the leaf census of tree-like polyominoes.
  [A000105] OEIS: free polyominoes with n cells, 1, 1, 2, 5, 12, 35.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, NamedTuple

import shapes

CERTIFY_SHAPES = 60
CERTIFY_CELLS = (10, 16)
CERTIFY_LABELINGS = 10
# Labels stay small enough that no certificate nears 1,000 steps, where the
# package's recursive certificate construction overflows the interpreter stack.
CERTIFY_COEFF_BOUND = 10
UGB_PERMUTATIONS = 5
UGB_WEIGHTS = 5


class Workload(NamedTuple):
    generate: Callable
    run: Callable
    check: Callable
    why: str


def fingerprint(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True, default=str).encode()).hexdigest()[:16]


def plain(value):
    """JSON-able form of unit inputs: tuples to lists, point-keyed dicts to
    sorted [i, j, value] rows."""
    if isinstance(value, dict):
        if value and all(isinstance(k, tuple) for k in value):
            return [[*k, plain(v)] for k, v in sorted(value.items())]
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def input_digest(units) -> str:
    return hashlib.sha256(json.dumps(plain(units), sort_keys=True).encode()).hexdigest()


def check_enumeration(levels) -> None:
    counts = {n: len(v) for n, v in levels.items()}
    expected = {n: shapes.FREE_POLYOMINO_COUNTS[n] for n in counts}
    if counts != expected:
        raise RuntimeError(f"free polyomino enumeration gave {counts}, A000105 says {expected}")


# ---------------------------------------------------------------------------
# census: is_simple, is_balanced, is_prime and dimension on small shapes


def census_generate(seed: int) -> list[dict]:
    rng = random.Random(f"census:{seed}")
    levels = shapes.free_polyominoes(6)
    check_enumeration(levels)
    family = [s for n in sorted(levels) for s in levels[n]]
    family += [shapes.frame(3, 3), shapes.frame(4, 3)]
    return [{"cells": shapes.orient(s, rng.randrange(8))} for s in family]


def census_run(pkg, unit):
    P = pkg.Polyomino(unit["cells"])
    simple = pkg.is_simple(P).simple
    balanced = pkg.is_balanced(P)
    return {
        "simple": simple,
        "balanced": balanced.balanced,
        "adm_rank": balanced.adm_rank,
        "prime": pkg.is_prime(P),
        "dimension": pkg.dimension(P),
    }


def census_reference(cells) -> dict:
    simple = not shapes.has_hole(cells)
    ref = {
        "simple": simple,
        "balanced": simple,  # [HSM14]
        "adm_rank": shapes.admissible_rank(cells),
    }
    if simple:
        ref["prime"] = True  # [HQS15], balanced => prime
        ref["dimension"] = len(shapes.vertices(cells)) - len(cells)  # height |P|
    # The frames' primality has no confirmed citation here, so their prime and
    # dimension verdicts are not compared (bench/README.md).
    return ref


def census_check(unit, verdict):
    ref = census_reference(unit["cells"])
    problems = [
        f"{key}: got {verdict[key]!r}, reference {want!r}"
        for key, want in ref.items()
        if verdict[key] != want
    ]
    return problems, fingerprint(verdict)


# ---------------------------------------------------------------------------
# ugb: universal_gb_check over 13 orders built from spec strings


def ugb_order_specs(nvars: int, rng: random.Random) -> list[str]:
    specs = ["lex", "deglex", "degrevlex"]
    for _ in range(UGB_PERMUTATIONS):
        perm = rng.sample(range(nvars), nvars)
        specs.append("degrevlex:perm=" + ",".join(map(str, perm)))
    for _ in range(UGB_WEIGHTS):
        weights = [rng.randrange(0, 11) for _ in range(nvars)]
        specs.append("degrevlex:weights=" + ",".join(map(str, weights)))
    return specs


def ugb_generate(seed: int) -> list[dict]:
    rng = random.Random(f"ugb:{seed}")
    levels = shapes.free_polyominoes(5)
    check_enumeration(levels)
    family = [s for n in sorted(levels) for s in levels[n]]
    family += [shapes.STAPLE, shapes.block(3, 2)]
    units = []
    for s in family:
        cells = shapes.orient(s, rng.randrange(8))
        if shapes.has_hole(cells):
            raise RuntimeError("ugb shapes must be simple, hence balanced")
        specs = ugb_order_specs(len(shapes.vertices(cells)), rng)
        units.append({"cells": cells, "orders": specs})
    return units


def ugb_run(pkg, unit):
    P = pkg.Polyomino(unit["cells"])
    orders = [pkg.make_order(spec, P.num_vertices) for spec in unit["orders"]]
    report = pkg.universal_gb_check(P, orders)
    return {
        "passed": report.passed,
        "orders": len(report.outcomes),
        "candidates": report.candidates,
        "gb_sizes": [o.gb_size for o in report.outcomes],
    }


def ugb_check(unit, verdict):
    problems = []
    if not verdict["passed"]:  # [HSM14] simple => balanced; [HQS15] UGB
        problems.append("universal Groebner basis check failed on a balanced shape")
    if verdict["orders"] != len(unit["orders"]):
        problems.append(f"{verdict['orders']} outcomes for {len(unit['orders'])} orders")
    return problems, fingerprint(verdict)


# ---------------------------------------------------------------------------
# certify: tree-like structure, lattices and membership certificates


def certify_generate(seed: int) -> list[dict]:
    rng = random.Random(f"certify:{seed}")
    units = []
    for _ in range(CERTIFY_SHAPES):
        cells = shapes.grow_tree_like(rng.randint(*CERTIFY_CELLS), rng)
        index = {v: k for k, v in enumerate(shapes.vertices(cells))}
        matrix = []
        for c in cells:
            row = [0] * len(index)
            for v, x in shapes.cell_vector(c).items():
                row[index[v]] = x
            matrix.append(row)
        labelings = [
            shapes.random_labeling(cells, rng, CERTIFY_COEFF_BOUND)
            for _ in range(CERTIFY_LABELINGS)
        ]
        units.append({"cells": cells, "cell_matrix": matrix, "labelings": labelings})
    return units


def certify_run(pkg, unit):
    P = pkg.Polyomino(unit["cells"])
    verdict = {
        "tree_like": pkg.is_tree_like(P).tree_like,
        "census": pkg.leaf_census(P),
        "adm": pkg.admissible_lattice(P),
        "invariant_factors": pkg.invariant_factors(unit["cell_matrix"]),
    }
    certificates = []
    for labeling in unit["labelings"]:
        cert = pkg.balanced_certificate_treelike(P, labeling)
        certificates.append((cert, pkg.expand_certificate(cert)))
    verdict["certificates"] = certificates
    return verdict


def binomial_plain(labeling: dict, index: dict) -> dict:
    """x^(positive part) - x^(negative part) as {exponent tuple: coeff}."""
    pos = [0] * len(index)
    neg = [0] * len(index)
    for v, x in labeling.items():
        (pos if x > 0 else neg)[index[v]] = abs(x)
    return {tuple(pos): 1, tuple(neg): -1}


def expand_plain(cert) -> dict:
    """Re-expand sum(multiplier * minor) with plain dict arithmetic."""
    total: dict = {}
    for multiplier, minor in cert:
        for m1, c1 in multiplier.terms.items():
            for m2, c2 in minor.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                total[m] = total.get(m, 0) + c1 * c2
    return {m: c for m, c in total.items() if c}


def inner_minor_ok(minor, cells, vertex_list) -> bool:
    """The polynomial is +-(x_a x_d - x_b x_c) for a rectangle [a, d] inside
    the shape, with b, c its other two corners."""
    terms = minor.terms
    if len(terms) != 2 or sorted(terms.values()) != [-1, 1]:
        return False
    supports = []
    for mono in terms:
        if sorted(mono) != [0] * (len(mono) - 2) + [1, 1]:
            return False
        supports.append({vertex_list[k] for k, e in enumerate(mono) if e})
    corners = supports[0] | supports[1]
    xs = sorted({p[0] for p in corners})
    ys = sorted({p[1] for p in corners})
    if len(corners) != 4 or len(xs) != 2 or len(ys) != 2:
        return False
    diagonal = {(xs[0], ys[0]), (xs[1], ys[1])}
    if diagonal not in supports:
        return False
    cellset = set(cells)
    return all(
        (i, j) in cellset for i in range(xs[0], xs[1]) for j in range(ys[0], ys[1])
    )


def certify_check(unit, verdict):
    cells = unit["cells"]
    vertex_list = shapes.vertices(cells)
    index = {v: k for k, v in enumerate(vertex_list)}
    problems = []
    if verdict["tree_like"] is not True:  # tree-like by construction
        problems.append("is_tree_like rejected a tree-like shape")

    census = verdict["census"]
    hist = (census.n0, census.n1, census.n2, census.n3, census.n4)
    if hist != shapes.degree_histogram(cells):
        problems.append(f"degree histogram {hist} != {shapes.degree_histogram(cells)}")
    # [HQS15] leaf census: the cell graph is a tree, so n1 = n3 + 2 n4 + 2;
    # good and bad leaves split the leaves; each bad leaf is blocked by its
    # own degree-3 cell.
    if census.n1 != census.n3 + 2 * census.n4 + 2:
        problems.append("n1 != n3 + 2 n4 + 2")
    good, bad = set(census.good_leaves), set(census.bad_leaves)
    if good & bad or good | bad != shapes.leaf_cells(cells):
        problems.append("good and bad leaves do not partition the leaves")
    if len(bad) > census.n3:
        problems.append("more bad leaves than degree-3 cells")
    blockers = list(census.blocking_cells.values())
    cellset = set(cells)
    if len(set(blockers)) != len(blockers) or any(
        sum(nb in cellset for nb in shapes.neighbors(b)) != 3 for b in blockers
    ):
        problems.append("blocking cells are not distinct degree-3 cells")

    # [HQS15] the cell lattice is saturated and, for a simple shape, has the
    # admissible lattice's rank; with admissible basis vectors both
    # lattices are then equal.
    adm = verdict["adm"]
    if adm.rank != len(cells) or adm.rank != shapes.admissible_rank(cells):
        problems.append(f"admissible rank {adm.rank}, {len(cells)} cells")
    for vec in adm.vectors:
        labels = {vertex_list[k]: x for k, x in enumerate(vec) if x}
        if len(vec) != len(vertex_list) or not shapes.is_admissible(cells, labels):
            problems.append("admissible_lattice returned a non-admissible vector")
            break
    inv = tuple(verdict["invariant_factors"])
    if inv != (1,) * len(cells):
        problems.append(f"invariant factors {inv}")

    certificates = []
    for labeling, (cert, expanded) in zip(unit["labelings"], verdict["certificates"]):
        want = binomial_plain(labeling, index)
        if expand_plain(cert) != want:
            problems.append("certificate does not re-expand to the labeling's binomial")
        if expanded.terms != want:
            problems.append("expand_certificate disagrees with the labeling's binomial")
        if not all(inner_minor_ok(minor, cells, vertex_list) for _, minor in cert):
            problems.append("certificate uses a polynomial that is not an inner minor")
        certificates.append(
            [[sorted(m.terms.items()), sorted(g.terms.items())] for m, g in cert]
        )
    summary = {
        "tree_like": verdict["tree_like"],
        "census": [list(hist), sorted(good), sorted(bad), sorted(census.blocking_cells.items())],
        "adm": [list(v) for v in adm.vectors],
        "invariant_factors": list(inv),
        "certificates": certificates,
    }
    return problems, fingerprint(summary)


WORKLOADS = {
    "census": Workload(
        census_generate,
        census_run,
        census_check,
        "all 56 free polyominoes with <= 6 cells plus the 3x3 and 4x3 frames, "
        "seeded orientations; saturation dominates",
    ),
    "ugb": Workload(
        ugb_generate,
        ugb_run,
        ugb_check,
        "universal_gb_check over 13 orders on the 21 free polyominoes with <= 5 "
        "cells, the staple and the 2x3 block; S-pair sweep and Buchberger dominate",
    ),
    "certify": Workload(
        certify_generate,
        certify_run,
        certify_check,
        "60 seeded tree-like shapes with 10-16 cells and 10 labelings each; no "
        "Groebner call, so it bypasses the algebra engine",
    ),
}
