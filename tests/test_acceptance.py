"""Acceptance suite: ten gate criteria, one test and one PASS/FAIL line each.

Everything is property-based at desk scale; tolerances are exact equality
throughout (all arithmetic is exact).  Generated families are seeded and the
heavyweight algebra per polyomino is computed once in session fixtures.
"""

import random

import pytest

from polyomino_ideals import (
    admissible_lattice,
    balanced_certificate_treelike,
    buchberger,
    canonical_order,
    cycle_binomial,
    dimension,
    enumerate_cycles,
    expand_certificate,
    free_polyominoes,
    ideal_equal,
    initial_ideal,
    inner_minors,
    invariant_factors,
    is_balanced,
    is_column_convex,
    is_prime,
    is_row_convex,
    is_simple,
    is_squarefree,
    is_tree_like,
    labeling_binomial,
    lattice_ideal,
    leaf_census,
    matrix_rank,
    normal_form,
    order_sample,
)
from conftest import (
    cell_degree,
    cell_lattice_basis,
    random_admissible_labeling,
    random_column_convex,
    random_row_convex,
    random_tree_like,
    tree_like_oracle,
)


def report(number, description, failures):
    status = "FAIL" if failures else "PASS"
    print(f"\nACCEPTANCE {number:2d} [{status}] {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


@pytest.fixture(scope="session")
def balanced_family():
    """50 row-convex, 50 column-convex and 50 tree-like polyominoes with at
    most 8 cells (seeded), deduplicated for the per-polyomino algebra."""
    rng = random.Random(2024)
    family = []
    for make in (random_row_convex, random_column_convex, random_tree_like):
        family.extend(make(8, rng) for _ in range(50))
    unique = {}
    for P in family:
        unique.setdefault(P.cells, P)
    return family, list(unique.values())


@pytest.fixture(scope="session")
def balanced_reports(balanced_family):
    _, unique = balanced_family
    return {P.cells: is_balanced(P) for P in unique}


def test_criterion_01_lattice_lemma(fixtures):
    failures = []
    samples = list(fixtures.values())
    samples += [P for level in free_polyominoes(9).values() for P in level]
    for P in samples:
        matrix = [list(v) for v in cell_lattice_basis(P).vectors]
        if matrix_rank(matrix) != len(P):
            failures.append(f"rank != cells for {sorted(P.cells)}")
        if invariant_factors(matrix) != (1,) * len(P):
            failures.append(f"non-unit invariant factor for {sorted(P.cells)}")
    report(1, f"cell lattice has rank |P| and unit invariant factors ({len(samples)} polyominoes)", failures)


def test_criterion_02_balanced_classes(balanced_family, balanced_reports):
    family, unique = balanced_family
    failures = []
    for P in family:
        if not (is_row_convex(P) or is_column_convex(P) or is_tree_like(P).tree_like):
            failures.append(f"generator emitted an out-of-class polyomino {sorted(P.cells)}")
    for P in unique:
        if not is_simple(P).simple:
            failures.append(f"not simple: {sorted(P.cells)}")
        if not balanced_reports[P.cells].balanced:
            failures.append(f"not balanced: {sorted(P.cells)}")
    report(2, f"row/column convex and tree-like are simple and balanced ({len(family)} generated, {len(unique)} distinct)", failures)


def test_criterion_03_minor_ideal_equals_cell_lattice_ideal(balanced_family):
    _, unique = balanced_family
    failures = []
    for P in unique:
        if not ideal_equal(inner_minors(P), lattice_ideal(P, cell_lattice_basis(P))):
            failures.append(f"ideals differ for {sorted(P.cells)}")
    report(3, f"minor ideal equals saturated cell-lattice ideal ({len(unique)} polyominoes)", failures)


def test_criterion_04_prime_and_dimension(balanced_family):
    _, unique = balanced_family
    failures = []
    for P in unique:
        if not is_prime(P):
            failures.append(f"not prime: {sorted(P.cells)}")
        if dimension(P) != P.num_vertices - len(P):
            failures.append(f"dimension mismatch: {sorted(P.cells)}")
    report(4, f"balanced implies prime of the right height ({len(unique)} polyominoes)", failures)


def test_criterion_05_primitive_universal_gb(balanced_family):
    _, unique = balanced_family
    failures = []
    for P in unique:
        n = P.num_vertices
        orders = order_sample(n, seed=0)
        cycles = enumerate_cycles(P, primitive_only=True)
        candidates = [cycle_binomial(P, c) for c in cycles]
        signed = {f.key() for f in candidates} | {(-f).key() for f in candidates}
        gens = inner_minors(P)
        gb0 = buchberger(gens, canonical_order(n))
        for f in candidates:
            if normal_form(f, gb0, canonical_order(n)):
                failures.append(f"cycle binomial outside ideal: {sorted(P.cells)}")
                break
        for order in orders:
            gb = buchberger(gens, order)
            if not all(g.key() in signed for g in gb):
                failures.append(f"GB element not a cycle binomial: {sorted(P.cells)} under {order.spec_string()}")
                break
            if not is_squarefree(initial_ideal(gb, order)):
                failures.append(f"non-squarefree initial ideal: {sorted(P.cells)} under {order.spec_string()}")
                break
    report(5, f"primitive cycle binomials cover all reduced bases, squarefree initials (13 orders x {len(unique)} polyominoes)", failures)


def test_criterion_06_census_formulas(small_polyominoes):
    failures = []
    rng = random.Random(606)
    candidates = [P for P in small_polyominoes if len(P) >= 2]
    candidates += [random_tree_like(10, rng) for _ in range(40)]
    checked = 0
    for P in candidates:
        if len(P) < 2 or not is_tree_like(P).tree_like:
            continue
        checked += 1
        census = leaf_census(P)
        good, bad = len(census.good_leaves), len(census.bad_leaves)
        if census.n1 != census.n3 + 2 * census.n4 + 2:
            failures.append(f"degree count identity fails: {sorted(P.cells)}")
        if good != census.n3 + 2 * census.n4 + 2 - bad:
            failures.append(f"good-leaf formula fails: {sorted(P.cells)}")
        if good < 2:
            failures.append(f"fewer than two good leaves: {sorted(P.cells)}")
        if bad > census.n3:
            failures.append(f"more bad leaves than degree-3 cells: {sorted(P.cells)}")
        blockers = census.blocking_cells
        if len(set(blockers.values())) != len(blockers):
            failures.append(f"blocking cells not injective: {sorted(P.cells)}")
        for D in blockers.values():
            if cell_degree(P, D) != 3:
                failures.append(f"blocking cell degree != 3: {sorted(P.cells)}")
    report(6, f"leaf census formulas on tree-like polyominoes ({checked} checked)", failures)


def test_criterion_07_frame_negative_control(P5):
    failures = []
    simple = is_simple(P5)
    if simple.simple or simple.hole != (1, 1):
        failures.append(f"simple check: {simple}")
    balanced = is_balanced(P5)
    if balanced.balanced or (balanced.adm_rank, balanced.ncells) != (9, 8):
        failures.append(f"balanced check: {balanced}")
    if len(inner_minors(P5)) != 20:
        failures.append(f"minor count: {len(inner_minors(P5))}")
    report(7, "frame: not simple (hole (1,1)), not balanced (rank 9 vs 8), 20 minors", failures)


def test_criterion_08_tree_like_modes_agree(small_polyominoes):
    failures = []
    for P in small_polyominoes:
        peel = is_tree_like(P)
        exhaustive = tree_like_oracle(P)
        if peel != (exhaustive is None, exhaustive):
            failures.append(f"peel and exhaustive disagree on {sorted(P.cells)}")
    report(8, f"peel verdict and stuck set match the exhaustive oracle on all {len(small_polyominoes)} polyominoes with <= 7 cells", failures)


def test_criterion_09_block_determinantal_sanity(P4):
    failures = []
    order = canonical_order(P4.num_vertices)
    gb = buchberger(inner_minors(P4), order)
    if {g.key() for g in gb} != {g.key() for g in inner_minors(P4)}:
        failures.append("reduced basis differs from the nine minors")
    cycles = enumerate_cycles(P4, primitive_only=True)
    lengths = sorted(len(c) for c in cycles)
    if len(cycles) != 15 or lengths != [4] * 9 + [6] * 6:
        failures.append(f"cycle census: {len(cycles)} with lengths {lengths}")
    report(9, "2x2 block: reduced basis is the 9 minors; 15 primitive cycles (9 quartic, 6 sextic)", failures)


def test_criterion_10_certificate_validity(P3, P6):
    failures = []
    rng = random.Random(1010)
    tasks = []
    for P in (P3, P6):
        basis = admissible_lattice(P)
        tasks.extend((P, random_admissible_labeling(P, basis, rng)) for _ in range(20))
    while len(tasks) < 100:
        P = random_tree_like(8, rng)
        basis = admissible_lattice(P)
        tasks.extend((P, random_admissible_labeling(P, basis, rng)) for _ in range(6))
    tasks = tasks[:100]
    for P, alpha in tasks:
        cert = balanced_certificate_treelike(P, alpha)
        if expand_certificate(cert) != labeling_binomial(P, alpha):
            failures.append(f"certificate does not expand: {sorted(P.cells)} {alpha}")
    report(10, f"membership certificates expand exactly ({len(tasks)} labelings)", failures)
