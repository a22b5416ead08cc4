"""Buchberger's algorithm, normal forms, saturation and initial ideals.

The pair queue uses the normal selection strategy (smallest lcm first) with
the coprime and chain criteria for pruning, so runs are deterministic and the
returned basis is the unique reduced Groebner basis (monic, auto-reduced,
sorted ascending by leading monomial).  A pair with coprime leads is never
queued (Gebauer-Moeller, J. Symb. Comput. 6, 1988), and the chain criterion
counts it as treated.  Sound, by induction on the order of removal: a pair
leaves the pending set only with a standard representation, since it
reduced to zero or to a new element, its leads are coprime, or the chain
criterion found a lead dividing its lcm whose pairs with both of its
elements had left before.  The S-pairs popped per run are capped; the cap
comes from POLYIDEAL_GB_STEP_LIMIT when set.

A caller may pass a bitmask of variables it has proven regular modulo the
ideal of homogeneous generators.  Then a pair whose two S-terms
x^(lcm - lead_i + trail_i) and x^(lcm - lead_j + trail_j) share a regular
variable is never queued either, the lattice-ideal counterpart of the
Gebauer-Moeller criteria (Hemmecke-Malkin, J. Symb. Comput. 44, 2009).
Sound, by induction on the degree d of the lcm: the S-polynomial is
S = x_r*h with x_r regular; S lies in I, so h does, and deg h < d.  By
induction the final basis is a (d-1)-truncated Groebner basis, so h has a
standard representation and S = x_r*h one below the lcm.  A chain-pruned
pair of degree d then follows by the induction on the order of removal,
since a skipped pair is never pending.  So the run still returns the
unique reduced basis.  The test reads cached support masks: the part of lcm -
lead_i it sees is the support of lead_j outside lead_i, so for leads with
exponents above 1 it skips fewer pairs, never more.

There is one engine, for pure differences: every generator given to
``buchberger`` and every basis element given to ``normal_form`` must be a
scalar multiple of some x^a - x^b, and anything else raises ValueError.
``buchberger`` runs on (lead, trail) exponent pairs: S-pairs and reductions
of such binomials stay pure differences (Eisenbud-Sturmfels, "Binomial
ideals", 1996), so each term is rewritten to its standard monomial on its
own, with no coefficient arithmetic.  An ``IdealGens`` keeps the validated
form of its generators (``_Binomials``) from its first run on, so later
runs, under any order, only orient it.  Cached lead keys and support
bitmasks serve the final interreduction and every divisibility test; keys
are read through ``order.key`` alone (``orders._keyed_once``).
``normal_form`` is the same rewrite: modulo lead - trail, division only
swaps a term's monomial for a smaller one, so each term c*x^m of f becomes
c*x^std(m), std rewriting by the first listed lead dividing it until none
does, and equal monomials merge.

The leads whose support lies inside a monomial's are found in one pass of
big-integer arithmetic, not a loop over the leads.  With n variables, lead
k owns a field of w = bit_length(n + 1) + 1 bits, at bit k*w of three
integers: cw[v] holds 1 there when x_v divides lead k, comp holds
2^(w-1) - |supp(lead k)| and highs holds 2^(w-1).  highs may run ahead
into fields not yet in use; those are 0 in cw and comp.  Summing cw[v]
over the v in supp(m) puts |supp(lead k) & supp(m)| in field k, so in
(sum + comp) & highs field k keeps its top bit exactly when supp(lead k)
lies inside supp(m).  No field exceeds 2^(w-1) < 2^w, so no carry crosses
into the next field.  The set bits, lowest first, are the candidates in
listed order; a lead with exponents above 1 still compares them.  So the
first listed dividing lead is the one chosen, as a scan would choose it.

``saturate`` works one variable at a time: for a homogeneous ideal, a graded
reverse-lex Groebner basis with x_v least, with every element divided by the
largest power of x_v dividing it, generates the saturation by x_v
(Sturmfels, "Groebner Bases and Convex Polytopes", Lemma 12.1).  It skips
the variables proven regular modulo the current ideal, where saturating
changes nothing: a saturated variable stays regular (x_i*f in K : x_w^inf
gives x_w^m*x_i*f in K, so x_w^m*f in K, so f in K : x_w^inf), and if
c*x^a + d*x^b lies in I with every variable of x^b regular, every variable
of x^a is regular (x_i*f in I gives x^a*f, hence x^b*f, hence f in I).
Under any order, a variable x_w dividing no leading monomial of a
Groebner basis of I is regular modulo I.  The leads generate in(I) and x_w
divides none, so x_w*m in in(I) gives m in in(I).  If x_w*f lies in I, so
does x_w*r for the normal form r of f; were r nonzero, x_w*in(r) would lie
in in(I), so in(r) would, and no term of a normal form does.  So f lies in
I.  Under reverse-lex with x_w least this is Bayer-Stillman (Invent. Math.
87, 1987; Eisenbud, Prop. 15.12).  So every Groebner basis that
``saturate`` computes proves its lead-free variables regular.  A run that
divides nothing keeps the ideal, so when none does ``saturate`` returns
its input itself; ``is_prime`` asks only whether some run divides, and
stops the runs at the first that does, whose basis ``dimension`` reads.

A symmetry of the generators proves more.  Let sigma permute the variables
so that it maps the generator set onto itself up to sign.  Then sigma is a
ring automorphism with sigma(I) = I.  If x_v is regular modulo I and
x_sigma(v)*g lies in I, applying sigma^-1 puts x_v*sigma^-1(g) in I, so
sigma^-1(g) lies in I, and so does g: x_sigma(v) is regular too.  So while
no run has divided, the ideal is F's and the regular variables are closed
under the permutations given, then under the two-term rule again, until
they stop growing.  ``is_prime`` gives the symmetries of the square that
map P onto itself (``grid._symmetries``); a permutation that does not map
the generators onto themselves raises ValueError.

Which variable to saturate next is a choice of schedule, not of soundness:
every run is sound whatever x_v it takes.  ``saturate`` takes the x_v whose
run is predicted to prove the most variables regular
(``_predicted_proof``): each current two-term generator is oriented as
that run's order would orient it, and the variables on no predicted lead
join those the two-term rule proves once x_v is saturated, closed under
the same rule.  Ties go to the larger two-term closure, then to the lowest
index.  The closure alone rarely separates the candidates: on the 3x3
frame's minors it holds x_v alone for every v, and the run by x0, the
lowest index, proves 2 variables where the predicted choice's proves 8.
"""

from __future__ import annotations

import heapq
import os
from functools import reduce
from itertools import compress
from operator import add, is_not, or_, sub

from .errors import StepLimitExceededError
from .orders import MonomialOrder, canonical_order
from .polynomials import (
    IdealGens,
    Monomial,
    Polynomial,
    mono_div,
    mono_is_squarefree,
    mono_lcm,
    polynomial_str,
)

DEFAULT_STEP_LIMIT = 10**6
STEP_LIMIT_ENV = "POLYIDEAL_GB_STEP_LIMIT"


def _resolve_step_limit(step_limit):
    """The argument, else POLYIDEAL_GB_STEP_LIMIT, else the default; a value
    below 1 or not an integer raises ValueError naming its source."""
    source = "step_limit"
    if step_limit is None:
        raw = os.environ.get(STEP_LIMIT_ENV)
        if not raw:
            return DEFAULT_STEP_LIMIT
        source = STEP_LIMIT_ENV
        try:
            step_limit = int(raw)
        except ValueError:
            raise ValueError(f"{STEP_LIMIT_ENV} must be an integer, got {raw!r}") from None
    if step_limit < 1:
        raise ValueError(f"{source} must be at least 1, got {step_limit}")
    return step_limit


def _record(lead: Monomial, trail: Monomial, bits) -> tuple:
    """lead - trail as (lead, its support mask, its exponents above 1 as
    (variable, exponent), trail, its support mask, trail - lead)."""
    powers = tuple((v, e) for v, e in enumerate(lead) if e > 1) if max(lead) > 1 else ()
    return (lead, sum(compress(bits, lead)), powers,
            trail, sum(compress(bits, trail)), tuple(map(sub, trail, lead)))


class _Binomials:
    """The validated form of generators c*(x^a - x^b) in nvars variables:
    each generator's two orientations as ``_record``s, a - b and b - a, and
    whether every generator is homogeneous.  Other polynomials, and
    polynomials in another variable count, raise ValueError."""

    __slots__ = ("bits", "pairs", "homogeneous")

    def __init__(self, polys, nvars: int):
        self.bits = bits = tuple(1 << v for v in range(nvars))
        self.pairs = []
        self.homogeneous = True
        for g in polys:
            if len(g.terms) != 2 or sum(g.terms.values()):
                raise ValueError(f"not a pure difference c*(x^a - x^b): {polynomial_str(g)}")
            if g.nvars != nvars:
                raise ValueError(f"the order has {nvars} variables, the polynomials {g.nvars}")
            a, b = g.terms
            self.homogeneous = self.homogeneous and sum(a) == sum(b)
            self.pairs.append((_record(a, b, bits), _record(b, a, bits)))


def _binomial_form(gens, nvars: int) -> _Binomials:
    """The validated form of gens in nvars variables.  An ``IdealGens``
    keeps it from its first use on, so later calls only compare variable
    counts; any other iterable of polynomials is validated on every call.
    A failed validation keeps nothing, so it raises again on the next."""
    if not isinstance(gens, IdealGens):
        return _Binomials(gens, nvars)
    if gens.nvars != nvars:
        raise ValueError(f"the order has {nvars} variables, the polynomials {gens.nvars}")
    return gens.derived("binomial_form", lambda: _Binomials(gens.generators, nvars))


class _BinomialBasis:
    """Pure differences lead - trail as pairs of exponent tuples, with each
    lead's order key (``lkeys``), taken where the pair was oriented, and the
    support bitmasks of each lead (``masks``) and trail (``tmasks``) cached.

    It starts from a validated form, each generator oriented by the keys of
    its two terms.  A lead divides m only if its support lies inside m's;
    for a squarefree lead that decides it, otherwise the exponents above 1
    (``powers``) are compared too.  The support test is the bit-parallel
    index of the module docstring, lead k owning bits [k*width,
    (k+1)*width) of ``cw[v]``, ``comp`` and ``highs``; ``highs`` is doubled
    as the leads grow.  ``standard`` rewrites a monomial by the first
    listed lead dividing it until none does; an S-pair's two terms are
    rewritten on their own.
    """

    def __init__(self, form: _Binomials, key):
        self.bits = form.bits
        self.key = key
        self.leads: list = []
        self.lkeys: list = []
        self.masks: list = []
        self.powers: list = []
        self.trails: list = []
        self.tmasks: list = []
        self.shifts: list = []
        self.variables = range(len(form.bits))
        self.width = (len(form.bits) + 1).bit_length() + 1
        self.top = self.highs = 1 << self.width - 1
        self.cw = [0] * len(form.bits)
        self.comp = 0
        for up, down in form.pairs:
            ka, kb = key(up[0]), key(down[0])
            if ka > kb:
                self.adopt(up, ka)
            else:
                self.adopt(down, kb)

    def adopt(self, record: tuple, lkey) -> None:
        """Append a ``_record`` whose lead has order key lkey, and its field
        to the index."""
        lead, mask, powers, trail, tmask, shift = record
        field = len(self.leads) * self.width
        cw, one = self.cw, 1 << field
        for v in compress(self.variables, lead):
            cw[v] += one
        self.comp += self.top - mask.bit_count() << field
        if field >= self.highs.bit_length():  # double the fields covered
            self.highs |= self.highs << field
        self.leads.append(lead)
        self.lkeys.append(lkey)
        self.masks.append(mask)
        self.powers.append(powers)
        self.trails.append(trail)
        self.tmasks.append(tmask)
        self.shifts.append(shift)

    def divisors(self, m: Monomial):
        """Indices of the leads dividing m, ascending, found lazily."""
        powers, width = self.powers, self.width
        z = (sum(compress(self.cw, m)) + self.comp) & self.highs
        while z:
            low = z & -z
            z ^= low
            k = low.bit_length() // width - 1
            if not (powers[k] and any(m[v] < e for v, e in powers[k])):
                yield k

    def standard(self, m: Monomial) -> Monomial:
        cw, powers, shifts, width = self.cw, self.powers, self.shifts, self.width
        comp, highs = self.comp, self.highs
        while True:
            z = (sum(compress(cw, m)) + comp) & highs
            while z:
                low = z & -z
                k = low.bit_length() // width - 1
                if not (powers[k] and any(m[v] < e for v, e in powers[k])):
                    m = tuple(map(add, m, shifts[k]))
                    break
                z ^= low
            else:
                return m

    def reduce_pair(self, i: int, j: int, lcm: Monomial) -> bool:
        """Append the S-pair's nonzero remainder; False when it is zero."""
        u = self.standard(tuple(map(add, lcm, self.shifts[i])))
        w = self.standard(tuple(map(add, lcm, self.shifts[j])))
        if u == w:
            return False
        ku, kw = self.key(u), self.key(w)
        if ku > kw:
            self.adopt(_record(u, w, self.bits), ku)
        else:
            self.adopt(_record(w, u, self.bits), kw)
        return True


def normal_form(f: Polynomial, basis, order) -> Polynomial:
    """Remainder of f under full division by the listed pure differences:
    each term c*x^m becomes c*x^std(m) (module docstring), so no term of the
    result is divisible by a leading monomial of the basis.  A basis element
    that is not c*(x^a - x^b), a wrong-size order or, checked after those, a
    wrong-size f raises ValueError; an empty basis has the order's size.
    """
    n = order.nvars
    standard = _BinomialBasis(_binomial_form(basis, n), order.key).standard
    if f.terms and f.nvars != n:
        raise ValueError(f"f has a term in {f.nvars} variables, the basis {n}")
    out: dict = {}
    for m, c in f.terms.items():
        m = standard(m)
        out[m] = out.get(m, 0) + c
    return Polynomial(out)


def s_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    # a textbook helper the engine does not call; bench/spans.py LAYERS names it
    f, g = f.monic(order), g.monic(order)
    lmf, lmg = f.leading(order)[0], g.leading(order)[0]
    l = mono_lcm(lmf, lmg)
    return f.term_mul(mono_div(l, lmf)) - g.term_mul(mono_div(l, lmg))


def reduce_groebner_basis(basis: _BinomialBasis) -> list[Polynomial]:
    """The reduced Groebner basis from a binomial one, on the run's own
    cache: rank the leads by their cached keys, keep each lead that no
    smaller kept lead divides, and rewrite each kept trail modulo the whole
    basis, a Groebner basis, so to the standard monomial of the kept leads.
    Monic, sorted ascending by lead.  Each lead - std(trail) skips
    ``Polynomial.__init__``'s zero filter: its coefficients are +-1, and
    std(trail) <= trail < lead, so its two terms never merge.
    """
    leads, masks, powers = basis.leads, basis.masks, basis.powers
    kept: list = []
    for k in sorted(range(len(leads)), key=basis.lkeys.__getitem__):
        lead, outside = leads[k], ~masks[k]
        for i in kept:
            if not masks[i] & outside and not (
                    powers[i] and any(lead[v] < e for v, e in powers[i])):
                break
        else:
            kept.append(k)
    standard, trails, new = basis.standard, basis.trails, Polynomial.__new__
    return [new(Polynomial)._adopt({leads[k]: 1, standard(trails[k]): -1}) for k in kept]


def buchberger(gens, order, step_limit: int | None = None, *,
               regular: int = 0) -> list[Polynomial]:
    """Unique reduced Groebner basis of generators c*(x^a - x^b).

    Other generators and orders on other variable counts raise ValueError.
    ``regular`` is a bitmask of variables the caller has proven regular
    modulo the generators' ideal; a nonzero one needs homogeneous
    generators, else ValueError.  The step limit caps the S-pairs popped.
    Pairs with coprime leads, and pairs whose two S-terms share a regular
    variable, are never queued (module docstring); the basis is the same.
    """
    limit = _resolve_step_limit(step_limit)
    if not isinstance(gens, IdealGens):
        gens = [g for g in gens if g]
    if not gens:
        return []
    form = _binomial_form(gens, order.nvars)
    if regular and not form.homogeneous:
        raise ValueError("regular variables need homogeneous generators")
    basis = _BinomialBasis(form, order.key)
    leads, masks, tmasks = basis.leads, basis.masks, basis.tmasks
    key = order.key

    heap: list = []
    pending: set = set()

    def push_pairs(j: int):
        """Queue each pair (i, j), i < j, whose leads share a variable and
        whose S-terms share no regular one; equal lcms pop in the order
        queued."""
        lead, mask, tmask = leads[j], masks[j], tmasks[j]
        for i in range(j):
            m = masks[i]
            if m & mask and not ((mask & ~m | tmasks[i]) & (m & ~mask | tmask) & regular):
                l = mono_lcm(leads[i], lead)
                heapq.heappush(heap, (key(l), j, i, l))
                pending.add((i, j))

    for j in range(len(leads)):
        push_pairs(j)

    steps = 0
    while heap:
        _, j, i, l = heapq.heappop(heap)
        pending.discard((i, j))
        steps += 1
        if steps > limit:
            raise StepLimitExceededError(
                f"Buchberger exceeded {limit} S-pairs popped (pairs with coprime leads "
                "or with S-terms sharing a regular variable are never queued)"
            )
        skip = False
        for k in basis.divisors(l):
            if k == i or k == j:
                continue
            pik = (i, k) if i < k else (k, i)
            pjk = (j, k) if j < k else (k, j)
            if pik not in pending and pjk not in pending:
                skip = True  # chain criterion
                break
        if skip:
            continue
        if basis.reduce_pair(i, j, l):
            push_pairs(len(leads) - 1)
    return reduce_groebner_basis(basis)


def initial_ideal(gb, order) -> list[Monomial]:
    """Leading monomials of a Groebner basis."""
    return [g.leading(order)[0] for g in gb]


def is_squarefree(monomials) -> bool:
    return all(map(mono_is_squarefree, monomials))


def ideal_equal(F: IdealGens, G: IdealGens, step_limit: int | None = None) -> bool:
    """Ideal equality via reduced Groebner bases under the canonical order."""
    if F.nvars != G.nvars:
        raise ValueError("ideals live in different variable counts")
    order = canonical_order(F.nvars)
    return buchberger(F, order, step_limit) == buchberger(G, order, step_limit)


def _divide_out(g: Polynomial, v: int) -> Polynomial:
    """g divided by the largest power of x_v that divides it."""
    e = min(m[v] for m in g.terms)
    if not e:
        return g
    return Polynomial({m[:v] + (m[v] - e,) + m[v + 1 :]: c for m, c in g.terms.items()})


def _supports(polys, bits) -> list:
    """(first term's support mask, second's, union) of each binomial; each
    element of a reduced basis, divided or not, lists its lead first."""
    masks = ([sum(compress(bits, m)) for m in g.terms] for g in polys)
    return [(a, b, a | b) for a, b in masks]


def _regular_closure(supports, mask: int) -> int:
    """Grow a bitmask of variables regular modulo I by the two-term rule of
    the module docstring, applied both ways until nothing grows; the
    supports are the (x^a mask, x^b mask, union) of generators x^a - x^b
    of I (``_supports``)."""
    live = supports
    while True:
        before, rest = mask, []
        for a, b, ab in live:
            if not a & ~mask or not b & ~mask:
                mask |= ab
            else:
                rest.append((a, b, ab))
        if mask == before:
            return mask
        live = rest


def _predicted_proof(supports, grown: int, v: int, nvars: int) -> int:
    """The variables that saturating x_v is predicted to prove regular.

    Each two-term generator, given by its entry in supports, is oriented
    as the run's graded reverse-lex order would orient it: the term holding
    the support's least variable trails.  That variable is x_v if the
    support holds it, else its highest index not in grown, else its
    highest index (``_saturation_runs`` ranks the variables so).  The
    prediction is the closure of grown and the variables on no predicted
    lead; it only chooses the variable, and proves nothing.
    """
    used, vbit = 0, 1 << v
    for a, b, ab in supports:
        if ab & vbit:
            least = vbit
        else:
            least = 1 << ((ab & ~grown or ab).bit_length() - 1)
        used |= b if a & least else a
    return _regular_closure(supports, grown | ((1 << nvars) - 1) & ~used)


def saturate(F: IdealGens, variables, step_limit: int | None = None) -> IdealGens:
    """Saturation of F by the product of the given variables.

    F must be homogeneous.  One variable at a time (module docstring), by
    graded reverse-lex runs with x_v least whose basis elements are divided
    by the largest power of x_v dividing them (Sturmfels, Lemma 12.1).
    Variables proven regular modulo the current ideal are skipped, and the
    next variable is the one ``_predicted_proof`` picks; its run ranks x_v
    least, then the variables not yet proven regular modulo the saturation
    by x_v, then the proven ones.
    Until a run divides something the ideal is F's, so each run starts
    from F itself, usually fewer generators than the last run's basis, for
    the same reduced basis; only sets that runs start from are validated.
    If no run divides anything, F itself comes back.

    Each Buchberger run is told the variables proven regular so far, modulo
    the ideal it starts from, so it skips the S-pairs whose terms share one
    (module docstring).  Each run gets the step limit on S-pairs popped;
    exceeding it names the variable being saturated and counts the
    requested variables saturated and proven regular before it.
    """
    gens = F
    for gens, _ in _saturation_runs(F, variables, step_limit, ()):
        pass
    return gens


def _permuted(sigma, mask: int) -> int:
    """The image of a bitmask of variables under x_k -> x_sigma[k]."""
    return sum(1 << sigma[k] for k in range(len(sigma)) if mask >> k & 1)


def _saturation_runs(F: IdealGens, variables, step_limit, symmetries):
    """The runs of ``saturate``: after each, the current generators (F until
    a run divides something, then each run's divided basis) and the run's
    reduced basis.  The first step whose generators are not F yields the
    reduced basis of F's own ideal under that run's order; a caller that
    only asks whether any run divides stops there.

    symmetries are permutations sigma of the variables, x_k -> x_sigma[k],
    each mapping F's generators onto themselves up to sign, else
    ValueError.  While the ideal is F's, the regular variables are closed
    under them after each run (module docstring)."""
    n = F.nvars
    vs = sorted(set(variables))
    if any(v < 0 or v >= n for v in vs):
        raise ValueError("variable index out of range")
    form = _binomial_form(F, n)
    if not form.homogeneous:
        raise ValueError("saturation needs homogeneous generators")
    if symmetries:
        # sigma permutes the generators up to sign iff each image (a', b')
        # of a generator x^a - x^b is one of them, either way round: the
        # images of distinct generators are distinct.  Each image exponent
        # tuple is built column by column: a'[sigma[k]] = a[k]
        heads = [up[0] for up, _ in form.pairs]
        tails = [up[3] for up, _ in form.pairs]
        signed = {*zip(heads, tails), *zip(tails, heads)}
        columns = list(zip(*heads)), list(zip(*tails))
    for sigma in symmetries:
        if sorted(sigma) != list(range(n)):
            raise ValueError(f"{sigma} is not a permutation of the {n} variables")
        inverse = sorted(range(n), key=sigma.__getitem__)
        a, b = (zip(*map(cols.__getitem__, inverse)) for cols in columns)
        if not signed.issuperset(zip(a, b)):
            raise ValueError(f"{sigma} does not map the generators onto themselves up to sign")
    step_limit = _resolve_step_limit(step_limit)
    gens = F
    requested = sum(1 << v for v in vs)
    supports = _supports(F.generators, form.bits)
    regular = saturated = 0
    while requested & ~regular:
        grown = {
            v: _regular_closure(supports, regular | 1 << v)
            for v in vs
            if not regular >> v & 1
        }
        v = max(grown, key=lambda v: (_predicted_proof(supports, grown[v], v, n).bit_count(),
                                      grown[v].bit_count(), -v))
        # from the greatest: the proven variables, the others, x_v last
        perm = sorted(range(n), key=lambda w: (w == v, ~grown[v] >> w & 1, w))
        order = MonomialOrder("degrevlex", n, perm=perm)
        try:
            gb = buchberger(gens, order, step_limit, regular=regular)
        except StepLimitExceededError as exc:
            done = (regular & requested).bit_count()
            raise StepLimitExceededError(
                f"saturating by x{v} ({saturated} saturated, {done} regular "
                f"of {len(vs)}): {exc}"
            ) from exc
        quotients = [_divide_out(g, v) for g in gb]
        if gens is not F or any(map(is_not, quotients, gb)):
            gens = IdealGens(tuple(quotients), n)
        saturated += 1
        # the old generators lie in the saturation too, so grown[v] holds
        supports = _supports(quotients, form.bits)
        lead_free = ((1 << n) - 1) & ~reduce(or_, (a for a, _, _ in supports), 0)
        regular = _regular_closure(supports, grown[v] | lead_free)
        while gens is F and (more := reduce(or_, (_permuted(s, regular) for s in symmetries),
                                            regular)) != regular:
            regular = _regular_closure(supports, more)
        yield gens, gb


def quotient_dimension(initial_gens, nvars: int) -> int:
    """Krull dimension of the quotient by a monomial ideal.

    Equals the largest size of a variable subset containing no generator's
    full support; computed as nvars minus a minimum hitting set of the
    supports (exact branch and bound with memoization).
    """
    supports = set()
    for m in initial_gens:
        s = frozenset(v for v, e in enumerate(m) if e)
        if not s:
            raise ValueError("monomial ideal contains a unit")
        supports.add(s)
    minimal = [s for s in supports if not any(t < s for t in supports)]
    minimal.sort(key=lambda s: (len(s), sorted(s)))

    best = len(minimal)  # one variable per support always hits
    seen: dict = {}

    def search(idx: int, removed: frozenset, size: int):
        nonlocal best
        if size >= best:
            return
        while idx < len(minimal) and minimal[idx] & removed:
            idx += 1
        if idx == len(minimal):
            best = size
            return
        state = (idx, removed)
        prior = seen.get(state)
        if prior is not None and prior <= size:
            return
        seen[state] = size
        for v in sorted(minimal[idx]):
            search(idx + 1, removed | {v}, size + 1)

    search(0, frozenset(), 0)
    return nvars - best
