"""Cycle enumeration, cycle binomials, and the labeling-to-cycle walk."""

import random
from collections import Counter

import pytest

from polyomino_ideals import (
    HORIZONTAL,
    Cycle,
    NotAdmissibleError,
    ZeroLabelingError,
    admissible_lattice,
    buchberger,
    canonical_order,
    cycle_binomial,
    enumerate_cycles,
    extract_cycle,
    free_polyominoes,
    inner_minors,
    is_admissible,
    normal_form,
    point_key,
)
from conftest import (
    assert_cycle,
    block,
    frame,
    interval_table,
    random_admissible_labeling,
    walk_cycles,
    walk_extract_cycle,
)


def _free(max_cells):
    return [P for level in free_polyominoes(max_cells).values() for P in level]


SIZES = ((3, 3), (4, 3), (4, 4))


def test_enumerate_unit_square(P1):
    cycles = enumerate_cycles(P1)
    assert len(cycles) == 1
    assert cycles[0].vertices == ((0, 0), (1, 0), (1, 1), (0, 1))


def test_enumerate_domino(P2):
    for primitive in (False, True):
        cycles = enumerate_cycles(P2, primitive_only=primitive)
        assert len(cycles) == 3
        assert all(len(c) == 4 for c in cycles)


def test_enumerate_block(P4):
    primitive = enumerate_cycles(P4, primitive_only=True)
    assert len(primitive) == 15
    assert Counter(len(c) for c in primitive) == {4: 9, 6: 6}
    # in a 3x3 vertex grid nothing longer can alternate, so the filter is moot
    assert len(enumerate_cycles(P4)) == 15


def test_enumerated_cycles_are_canonical_and_valid(P4, P6):
    for P in (P4, P6):
        for c in enumerate_cycles(P, primitive_only=True):
            assert_cycle(P, c.vertices)
            assert min(c.vertices, key=point_key) == c.vertices[0]
            assert c.vertices[0][1] == c.vertices[1][1]  # first step horizontal


def test_max_vertices_bound(P4):
    assert (
        enumerate_cycles(P4, max_vertices=4)
        == [c for c in enumerate_cycles(P4) if len(c) == 4]
    )
    with pytest.raises(ValueError):
        enumerate_cycles(P4, max_vertices=5)
    with pytest.raises(ValueError):
        enumerate_cycles(P4, max_vertices=2)


def test_cycle_binomial_unit_square(P1):
    (c,) = enumerate_cycles(P1)
    assert cycle_binomial(P1, c) == inner_minors(P1).generators[0]


def test_cycle_binomial_rejects_non_cycles(P1):
    # a repeated vertex would give an inhomogeneous binomial (x0*x3 - x1)
    with pytest.raises(ValueError, match="not a vertex"):
        cycle_binomial(P1, Cycle(((0, 0), (1, 0), (1, 1), (0, 2))))
    with pytest.raises(ValueError, match="distinct"):
        cycle_binomial(P1, Cycle(((0, 0), (1, 0), (1, 1), (1, 0))))


def test_cycle_binomial_six_cycle(P4):
    c = Cycle(((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)))  # canonical
    assert_cycle(P4, c.vertices)
    f = cycle_binomial(P4, c)
    idx = P4.vertex_index
    odd = [0] * 9
    even = [0] * 9
    for pt in ((0, 0), (1, 1), (2, 2)):
        odd[idx[pt]] = 1
    for pt in ((1, 0), (2, 1), (0, 2)):
        even[idx[pt]] = 1
    assert f.terms == {tuple(odd): 1, tuple(even): -1}


def test_four_cycles_are_inner_minors_up_to_sign(P4):
    minors = {g.key() for g in inner_minors(P4)}
    minors |= {(-g).key() for g in inner_minors(P4)}
    for c in enumerate_cycles(P4, primitive_only=True):
        if len(c) == 4:
            assert cycle_binomial(P4, c).key() in minors


def test_extract_cycle_unit_square(P1):
    alpha = {(0, 0): 1, (1, 1): 1, (1, 0): -1, (0, 1): -1}
    assert extract_cycle(P1, alpha).vertices == ((0, 0), (1, 0), (1, 1), (0, 1))


def test_extract_cycle_domino(P2):
    from polyomino_ideals import labeling_binomial

    alpha = {(0, 0): 1, (2, 1): 1, (0, 1): -1, (2, 0): -1}
    cycle = extract_cycle(P2, alpha)
    assert cycle.vertices == ((0, 0), (2, 0), (2, 1), (0, 1))
    assert cycle_binomial(P2, cycle) == labeling_binomial(P2, alpha)


def test_extract_cycle_block_six(P4):
    alpha = {(0, 0): 1, (1, 1): 1, (2, 2): 1, (1, 0): -1, (2, 1): -1, (0, 2): -1}
    cycle = extract_cycle(P4, alpha)
    assert len(cycle) == 6
    assert_cycle(P4, cycle.vertices)


def test_extract_cycle_alternates_signs(P4, P6):
    from polyomino_ideals import is_admissible

    # values beyond +-1: the sum of the two diagonal cell vectors of the block
    alpha4 = {(0, 0): 1, (1, 1): 2, (2, 2): 1,
              (1, 0): -1, (0, 1): -1, (2, 1): -1, (1, 2): -1}
    alpha6 = {(1, 0): 1, (3, 0): -1, (3, 1): 1, (1, 1): -1}
    for P, alpha in ((P4, alpha4), (P6, alpha6)):
        assert is_admissible(P, alpha)
        cycle = extract_cycle(P, alpha)
        assert_cycle(P, cycle.vertices)
        signs = [alpha.get(v, 0) for v in cycle.vertices]
        assert all(s != 0 for s in signs)
        for a, b in zip(signs, signs[1:] + signs[:1]):
            assert (a > 0) != (b > 0)


def test_extract_cycle_errors(P1):
    with pytest.raises(ZeroLabelingError):
        extract_cycle(P1, {})
    with pytest.raises(NotAdmissibleError):
        extract_cycle(P1, {(0, 0): 1})


def test_cycle_soundness_for_balanced(P2, P3, P4, P6):
    # every cycle binomial lies in the minor ideal when balanced
    for P in (P2, P3, P4, P6):
        order = canonical_order(P.num_vertices)
        gb = buchberger(inner_minors(P), order)
        for c in enumerate_cycles(P):
            assert not normal_form(cycle_binomial(P, c), gb, order)


def test_primitive_filter_bounds_interval_visits(P6):
    table = interval_table(P6)
    for c in enumerate_cycles(P6, primitive_only=True):
        for direction in (HORIZONTAL, "vertical"):
            visits = Counter(table[(v, direction)] for v in c.vertices)
            assert all(count <= 2 for count in visits.values())


@pytest.mark.parametrize("shapes, primitive", [
    ("free7", True),
    ("frames-blocks", True),
    ("free6", False),
    ("frame3x3-blocks3x2-3x3", False),
])
def test_enumerate_cycles_matches_point_walk(shapes, primitive):
    family = {
        "free7": _free(7),
        "free6": _free(6),
        "frames-blocks": [f(w, h) for f in (frame, block) for w, h in SIZES],
        "frame3x3-blocks3x2-3x3": [frame(3, 3), block(3, 2), block(3, 3)],
    }[shapes]
    for P in family:
        found = [c.vertices for c in enumerate_cycles(P, primitive_only=primitive)]
        assert found == walk_cycles(P, primitive_only=primitive), P


def test_enumerate_cycles_bounded_matches_point_walk():
    for P in [*_free(6), frame(3, 3)]:
        for bound in (4, 6, 8):
            for primitive in (False, True):
                found = enumerate_cycles(P, max_vertices=bound, primitive_only=primitive)
                assert [c.vertices for c in found] == walk_cycles(P, bound, primitive), P


def test_extract_cycle_matches_point_walk():
    rng = random.Random(19)
    for P in [*_free(7), *(f(w, h) for f in (frame, block) for w, h in SIZES)]:
        basis = admissible_lattice(P)
        for _ in range(3):
            alpha = random_admissible_labeling(P, basis, rng)
            assert is_admissible(P, alpha)
            assert extract_cycle(P, alpha).vertices == walk_extract_cycle(P, alpha), (P, alpha)
