"""Grid text parsing and rendering.

Grid text uses '#' for a present cell and '.' for an absent one; the first
text row is the top row of the grid (highest j).  Lines may have ragged
right edges, which are padded with '.'.
"""

from __future__ import annotations

from .errors import BadCharacterError, EmptyInputError
from .grid import Polyomino


def parse_grid(text: str) -> Polyomino:
    """Polyomino of the '#' cells of a grid drawing."""
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    while lines and not lines[0]:
        lines.pop(0)
    if not lines:
        raise EmptyInputError("empty grid text")
    cells = set()
    height = len(lines)
    for r, line in enumerate(lines):
        for c, ch in enumerate(line):
            if ch == "#":
                cells.add((c, height - 1 - r))
            elif ch != ".":
                raise BadCharacterError(f"unexpected character {ch!r} in grid text")
    if not cells:
        raise EmptyInputError("grid text contains no '#' cells")
    return Polyomino(cells)


def render_grid(P: Polyomino) -> str:
    """Inverse of parse_grid on normalized polyominoes."""
    maxi = max(i for i, _ in P.cells)
    maxj = max(j for _, j in P.cells)
    rows = []
    for j in range(maxj, -1, -1):
        rows.append("".join("#" if (i, j) in P.cells else "." for i in range(maxi + 1)))
    return "\n".join(rows)
