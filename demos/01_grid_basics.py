"""Tour of the geometry layer: cells, intervals, leaves.

Run from the repository root:

    PYTHONPATH=src python3 demos/01_grid_basics.py
"""

from polyomino_ideals import (
    HORIZONTAL,
    VERTICAL,
    inner_intervals,
    leaf_census,
    leaves,
    maximal_cell_interval,
    maximal_edge_intervals,
    parse_grid,
    render_grid,
)

# An L-tromino and the 3x3 frame, straight from ASCII art.
tromino = parse_grid("""
#.
##
""")
frame = parse_grid("""
###
#.#
###
""")

print("The L-tromino:")
print(render_grid(tromino))
print("cells:", sorted(tromino.cells))
print("vertices (row-major):", tromino.vertices)
print()

print("Maximal edge intervals are the rows/columns of unit edges a labeling")
print("must sum to zero on:")
for direction in (HORIZONTAL, VERTICAL):
    for iv in maximal_edge_intervals(tromino, direction):
        print(f"  {direction:10s} {iv.start} .. {iv.end}  ({iv.num_edges} edges)")
print()

print("Inner intervals (rectangles fully inside the shape) generate the ideal:")
for ll, ur in inner_intervals(tromino):
    print(f"  [{ll}, {ur}]")
print()

print("How many cells have 0..4 neighbors, and the leaves (cells with a fully free edge):")
census = leaf_census(tromino)
print(f"  degrees 0..4: {census.n0}, {census.n1}, {census.n2}, {census.n3}, {census.n4}")
for leaf in leaves(tromino):
    iv = maximal_cell_interval(tromino, leaf.cell,
                               HORIZONTAL if leaf.free_edge[0][0] == leaf.free_edge[1][0] else VERTICAL)
    print(f"  leaf {leaf.cell}: free edge {leaf.free_edge}, cell interval {iv.start}..{iv.end}")
print()

print("The frame has a hole, so its middle row is still one unbroken edge interval:")
print(render_grid(frame))
for iv in maximal_edge_intervals(frame, HORIZONTAL):
    print(f"  {iv.start} .. {iv.end}")
