"""The exact algebra core: orders, division, Buchberger, saturation.

    PYTHONPATH=src python3 demos/03_groebner_engine.py
"""

from polyomino_ideals import (
    IdealGens,
    MonomialOrder,
    Polynomial,
    buchberger,
    canonical_order,
    initial_ideal,
    inner_minors,
    is_squarefree,
    normal_form,
    parse_grid,
    polynomial_str,
    quotient_dimension,
    saturate,
)

# Two variables x0, x1; compare how orders rank x0 against x1^2.
lex = MonomialOrder("lex", 2)
drl = MonomialOrder("degrevlex", 2)
print("lex:       x0 vs x1^2 ->", lex.compare((1, 0), (0, 2)))
print("degrevlex: x0 vs x1^2 ->", drl.compare((1, 0), (0, 2)))
print()

# Division by pure differences rewrites each term to its standard monomial:
# a term divisible by a leading monomial swaps it for the trailing one.
g1 = Polynomial({(1, 1, 0): 1, (0, 0, 1): -1})   # x0*x1 - x2
g2 = Polynomial({(2, 0, 0): 1, (0, 1, 0): -1})   # x0^2 - x1
f = Polynomial({(3, 1, 0): 1, (0, 0, 2): 5})
order = canonical_order(3)
r = normal_form(f, [g1, g2], order)
leads = initial_ideal([g1, g2], order)
print("f         =", polynomial_str(f))
print("remainder =", polynomial_str(r))
print("no remainder term divisible by a leading monomial:",
      not any(all(a <= b for a, b in zip(lm, t)) for lm in leads for t in r.terms))
print()

# The polyomino ideal of the 2x2 block: its nine 2-minors are already the
# reduced basis under the canonical order, with squarefree leading terms.
block = parse_grid("##\n##")
gens = inner_minors(block)
order = canonical_order(block.num_vertices)
gb = buchberger(gens, order)
print(f"2x2 block: {len(gens)} minors, reduced basis of size {len(gb)}")
print("basis is exactly the minors:", {g.key() for g in gb} == {g.key() for g in gens})
init = initial_ideal(gb, order)
print("initial ideal squarefree:", is_squarefree(init))
print("Krull dimension of the quotient:", quotient_dimension(init, block.num_vertices))
print()

# Saturation peels monomial factors: (x0^2 - x0*x1) : (x0*x1)^inf = (x0 - x1).
F = IdealGens((Polynomial({(2, 0): 1, (1, 1): -1}),), 2)
sat = saturate(F, [0, 1])
print("saturating x0^2 - x0*x1 by all variables:",
      [polynomial_str(g) for g in sat.generators])
print("already saturated ideals are fixed points:",
      [polynomial_str(g) for g in saturate(sat, [0, 1]).generators])
print()

# Membership is order independent: a generator reduces to zero everywhere.
probe = gens.generators[0]
print("NF of a generator modulo the basis:",
      polynomial_str(normal_form(probe, gb, order)))
