"""Balancedness, primality and dimension: the staple versus the frame.

    PYTHONPATH=src python3 demos/04_balanced_and_prime.py
"""

from polyomino_ideals import (
    admissible_lattice,
    dimension,
    ideal_equal,
    inner_minors,
    is_balanced,
    is_prime,
    lattice_ideal,
    parse_grid,
    render_grid,
)

staple = parse_grid(".##\n##.\n.##")
frame = parse_grid("###\n#.#\n###")

for name, P in (("staple", staple), ("frame", frame)):
    print(f"--- {name}")
    print(render_grid(P))
    cells, nverts = len(P), P.num_vertices
    report = is_balanced(P)
    adm = admissible_lattice(P)
    print(f"cells {cells}, vertices {nverts}")
    print(f"admissible labelings form a lattice of rank {report.adm_rank},"
          f" counted on the interval graph; its basis has {adm.rank} vectors")
    print(f"  the cell lattice has rank {cells}: equal ranks: {report.adm_rank == cells}")

    print(f"balanced: {report.balanced}")
    if not report.balanced:
        print(f"  witness: labeling lattice rank {report.adm_rank} exceeds cell count {report.ncells},")
        print("  so the labeling ideal has larger height than the minor ideal can reach")
    else:
        print(f"  certificate: all {report.cycles_checked} chordless cycles of the interval graph"
              " are inner 4-cycles,")
        print("  and those cycles generate the labeling ideal")
        same = ideal_equal(inner_minors(P), lattice_ideal(P, adm))
        print(f"  minor ideal equals the lattice ideal of the admissible labelings: {same}")

    print(f"prime: {is_prime(P)}")
    dim = dimension(P)
    print(f"dimension {dim}  (vertices - cells = {nverts - cells})")
    print()

print("The frame is a negative control for balancedness, yet its minor ideal")
print("still turns out prime: saturating the 20 minors changes nothing, so the")
print("ideal already equals the (prime) lattice ideal of its cell lattice.")
