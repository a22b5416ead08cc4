"""Shape generation and plain-Python geometry oracles for the benchmark.

Nothing here imports the package under test: the benchmark builds its inputs
and its reference answers from these functions alone.  A cell (i, j) is the
unit square with lower left corner (i, j); a shape is a sorted tuple of cells
translated so that min i = min j = 0; vertices are the squares' corner points.
"""

from __future__ import annotations

import random
from fractions import Fraction

# OEIS A000105: free polyominoes with n cells, n = 1..6.
FREE_POLYOMINO_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 12, 6: 35}

STAPLE = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2))


def normalize(cells) -> tuple:
    mi = min(i for i, _ in cells)
    mj = min(j for _, j in cells)
    return tuple(sorted((i - mi, j - mj) for i, j in cells))


def orient(cells, k: int) -> tuple:
    """Image of a shape under dihedral element k in 0..7 (bit 2 transposes,
    bit 0 mirrors i, bit 1 mirrors j), normalized."""
    out = []
    for i, j in cells:
        if k & 4:
            i, j = j, i
        if k & 1:
            i = -i
        if k & 2:
            j = -j
        out.append((i, j))
    return normalize(out)


def free_form(cells) -> tuple:
    """Canonical representative of a shape's dihedral class."""
    return min(orient(cells, k) for k in range(8))


def neighbors(cell):
    i, j = cell
    return ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))


def free_polyominoes(max_cells: int) -> dict[int, list[tuple]]:
    """All free polyominoes up to max_cells, by cell count, each sorted."""
    levels = {1: {((0, 0),)}}
    for n in range(2, max_cells + 1):
        grown = set()
        for shape in levels[n - 1]:
            cells = set(shape)
            for c in shape:
                for nb in neighbors(c):
                    if nb not in cells:
                        grown.add(free_form(cells | {nb}))
        levels[n] = grown
    return {n: sorted(shapes) for n, shapes in levels.items()}


def block(width: int, height: int) -> tuple:
    return tuple(sorted((i, j) for i in range(width) for j in range(height)))


def frame(width: int, height: int) -> tuple:
    """Boundary ring of a width x height rectangle (one hole)."""
    return tuple(
        sorted(
            (i, j)
            for i in range(width)
            for j in range(height)
            if i in (0, width - 1) or j in (0, height - 1)
        )
    )


def vertices(cells) -> list[tuple]:
    """Row-major sorted vertex list."""
    vs = {(i + a, j + b) for i, j in cells for a in (0, 1) for b in (0, 1)}
    return sorted(vs, key=lambda p: (p[1], p[0]))


def has_hole(cells) -> bool:
    """Flood fill of the complement from outside a padded bounding box."""
    cellset = set(cells)
    maxi = max(i for i, _ in cellset) + 1
    maxj = max(j for _, j in cellset) + 1
    outside = {(-1, -1)}
    stack = [(-1, -1)]
    while stack:
        for nb in neighbors(stack.pop()):
            i, j = nb
            if -1 <= i <= maxi and -1 <= j <= maxj and nb not in cellset and nb not in outside:
                outside.add(nb)
                stack.append(nb)
    return (maxi + 2) * (maxj + 2) != len(outside) + len(cellset)


def degree_histogram(cells) -> tuple[int, ...]:
    """(n0, ..., n4): how many cells have k edge neighbours in the shape."""
    cellset = set(cells)
    counts = [0] * 5
    for c in cellset:
        counts[sum(nb in cellset for nb in neighbors(c))] += 1
    return tuple(counts)


def leaf_cells(cells) -> set:
    """Cells with an edge whose two endpoints touch no other cell."""
    cellset = set(cells)
    owners: dict = {}
    for i, j in cellset:
        for v in ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)):
            owners[v] = owners.get(v, 0) + 1
    out = set()
    for i, j in cellset:
        corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
        if any(owners[corners[k]] == 1 and owners[corners[(k + 1) % 4]] == 1 for k in range(4)):
            out.add((i, j))
    return out


def tree_like(cells) -> bool:
    """Leaf peeling: every subpolyomino has a leaf iff peeling reaches one cell."""
    cellset = set(cells)
    while len(cellset) > 1:
        ls = leaf_cells(cellset)
        if not ls:
            return False
        cellset.remove(min(ls))
    return True


def grow_tree_like(n: int, rng: random.Random) -> tuple:
    """A random tree-like shape with n cells: each added cell keeps the shape
    tree-like."""
    cells = {(0, 0)}
    while len(cells) < n:
        boundary = sorted({nb for c in cells for nb in neighbors(c)} - cells)
        rng.shuffle(boundary)
        for c in boundary:
            if tree_like(cells | {c}):
                cells.add(c)
                break
        else:
            cells = {(0, 0)}
    return normalize(cells)


def edge_intervals(cells) -> list[list[tuple]]:
    """Vertex sets of the maximal horizontal and vertical edge intervals."""
    lines: dict = {}
    for i, j in cells:
        for line in ((0, j), (0, j + 1)):
            lines.setdefault(line, set()).add(i)
        for line in ((1, i), (1, i + 1)):
            lines.setdefault(line, set()).add(j)
    out = []
    for (axis, fixed), starts in sorted(lines.items()):
        run: list = []
        for s in sorted(starts) + [None]:
            if run and (s is None or s != run[-1] + 1):
                span = range(run[0], run[-1] + 2)
                out.append([(x, fixed) if axis == 0 else (fixed, x) for x in span])
                run = []
            if s is not None:
                run.append(s)
    return out


def cell_vector(cell) -> dict:
    """The labeling +1 at the lower left and upper right corner of a cell,
    -1 at the other two."""
    i, j = cell
    return {(i, j): 1, (i + 1, j + 1): 1, (i + 1, j): -1, (i, j + 1): -1}


def is_admissible(cells, labeling: dict) -> bool:
    return all(sum(labeling.get(v, 0) for v in iv) == 0 for iv in edge_intervals(cells))


def admissible_rank(cells) -> int:
    """|V| minus the rational rank of the interval incidence matrix."""
    vs = vertices(cells)
    index = {v: k for k, v in enumerate(vs)}
    rows = []
    for iv in edge_intervals(cells):
        row = [Fraction(0)] * len(vs)
        for v in iv:
            row[index[v]] = Fraction(1)
        rows.append(row)
    rank = 0
    for c in range(len(vs)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return len(vs) - rank


def random_labeling(cells, rng: random.Random, bound: int) -> dict:
    """A nonzero integer combination of cell vectors, coefficients in
    [-bound, bound]; admissible by construction."""
    while True:
        total: dict = {}
        for c in cells:
            coeff = rng.randint(-bound, bound)
            for v, x in cell_vector(c).items():
                total[v] = total.get(v, 0) + coeff * x
        total = {v: x for v, x in total.items() if x}
        if total:
            return dict(sorted(total.items()))
