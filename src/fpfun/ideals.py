"""Frobenius bracket powers, Groebner bases over F_p, monomial staircases, and
exact graded length tables of Frobenius-power quotients.

The length pipeline is: bracket power -> Groebner basis of relations plus
bracket generators -> initial ideal -> staircase count of standard monomials
by weighted degree.  Over a ring with relations J, each bracket generator
g^q enters as its Frobenius normal form modulo J, p-th powers of normal forms
reduced level by level and carried from one level to the next
(FrobeniusChain), which gives the same ideal and so the same reduced basis.
Passing to the initial ideal preserves the Hilbert function, so the counts
are exact.  The staircase count is its Hilbert numerator N over
prod(1 - t^w), and the dense table is N's series expansion, taken over the
first two weights as arithmetic runs on residue classes.  Two independent
oracles (direct staircase enumeration and Macaulay-matrix ranks over F_p)
cross-check the pipeline.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import compress, count, repeat
from operator import add, eq, lt, mul
from typing import Iterable, Sequence

from .algebra import (
    ExponentVector,
    Grading,
    Polynomial,
    PrimeField,
    _divides,
    _from_heap_terms,
    _heap_terms,
    _lcm,
    _monic_reducer,
    _reduce,
    _spolynomial,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    normal_form,
    weighted_degree,
)
from .errors import ColengthError, StructureError

# Inclusion-exclusion on the lcm lattice counts staircases of up to this many
# generators; beyond this cap a bounded staircase is enumerated directly instead.
_SUBSET_CAP = 12

# The most entries (degrees 0..max) of the dense count table graded_lengths
# builds for one level; a level that needs more is refused before counting.
MAX_TABLE_ENTRIES = 1 << 20


@dataclass(frozen=True)
class RingPresentation:
    """An ambient weighted polynomial ring modulo homogeneous relations.

    Empty relations mean a weighted polynomial ring.  Every relation must be
    homogeneous of positive weighted degree.
    """

    field: PrimeField
    grading: Grading
    relations: tuple = ()
    variable_names: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(self.relations))
        names = self.variable_names
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(self.grading.var_count))
        else:
            names = tuple(names)
        if len(names) != self.grading.var_count:
            raise StructureError("variable name count does not match the grading")
        if len(set(names)) != len(names):
            raise StructureError("duplicate variable names")
        object.__setattr__(self, "variable_names", names)
        for f in self.relations:
            if f.field != self.field or f.grading != self.grading:
                raise StructureError("relation over a different field or grading")
            if f.is_zero():
                raise StructureError("zero relation")
            if not f.is_homogeneous():
                raise StructureError(f"relation {f!r} is not homogeneous")
            if f.homogeneous_degree() <= 0:
                raise StructureError("relations must have positive weighted degree")


@dataclass(frozen=True)
class HomogeneousIdeal:
    """A nonempty list of homogeneous generators, read in the quotient ring."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise StructureError("an ideal needs at least one generator")
        first = gens[0]
        for g in gens:
            if g.field != first.field or g.grading != first.grading:
                raise StructureError("ideal generators over mixed fields or gradings")
            if g.is_zero():
                raise StructureError("zero ideal generator")
            if not g.is_homogeneous():
                raise StructureError(f"ideal generator {g!r} is not homogeneous")


def bracket_power(ideal: HomogeneousIdeal, n: int) -> HomogeneousIdeal:
    """The n-th Frobenius bracket power: generators raised to the p^n-th power."""
    if n < 0:
        raise StructureError("bracket power level must be non-negative")
    if n == 0:
        return ideal
    q = ideal.generators[0].field.p ** n
    return HomogeneousIdeal(tuple(g.frobenius_power(q) for g in ideal.generators))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generating exponent vectors."""

    generators: tuple

    @classmethod
    def from_exponents(cls, exps: Iterable[ExponentVector]) -> "MonomialIdeal":
        gens = []
        for e in sorted(set(tuple(x) for x in exps)):
            if any(monomial_divides(g, e) for g in gens):
                continue
            gens = [g for g in gens if not monomial_divides(e, g)]
            gens.append(e)
        return cls(tuple(sorted(gens)))

    @property
    def is_unit(self) -> bool:
        return any(all(x == 0 for x in g) for g in self.generators)

    def contains_monomial(self, exps: ExponentVector) -> bool:
        return any(monomial_divides(g, exps) for g in self.generators)

    def pure_power_bounds(self, var_count: int):
        """Per variable, the least pure-power exponent present, or None.

        A pure power of every variable is the finite-colength criterion: the
        staircase then fits in the box prod [0, bound_i).
        """
        bounds = [None] * var_count
        for g in self.generators:
            support = [i for i, e in enumerate(g) if e]
            if len(support) == 1:
                i = support[0]
                if bounds[i] is None or g[i] < bounds[i]:
                    bounds[i] = g[i]
        return bounds


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic, auto-reduced, sorted by leading term."""

    elements: tuple


def buchberger(gens: Sequence[Polynomial]) -> GroebnerBasis:
    """Buchberger's algorithm with the normal selection strategy.

    Pairs come off a heap by least lcm degree, ties broken by index.  Two
    criteria skip pairs whose S-polynomial needs no reduction (Buchberger
    1979; Gebauer and Moeller, JSC 6, 1988): pairs with coprime leading terms,
    and the chain criterion, which skips (i, j) when some other leading term
    divides their lcm and its pairs with i and with j are both processed.
    S-polynomials, and the normal forms of the minimal leading terms that
    give the reduced basis, go through the reduction kernel behind
    ``normal_form``.  The criteria only save work: the result is the reduced
    basis, which is unique, so it does not depend on them or on the input
    order.  The term order is the weighted grevlex order of the generators'
    grading, which all of them must share, as their field.
    """
    gens = list(gens)
    if not gens:
        raise StructureError("Groebner basis of an empty generator list")
    for g in gens:
        gens[0]._check_compatible(g)
        if g.is_zero():
            raise StructureError("zero polynomial among Groebner input generators")
        if not g.is_homogeneous():
            raise StructureError("Groebner input generators must be homogeneous")

    # Basis elements are monic (lead, tail) pairs in the kernel's heap form,
    # where a monomial is (-degree, e_m, ..., e_1).
    field, grading = gens[0].field, gens[0].grading
    p, rweights = field.p, grading.weights[::-1]
    basis = [_monic_reducer(_heap_terms(g), p) for g in gens]
    heap, pending = [], set()

    def add_pairs(new):
        for k in range(new):
            m = _lcm(basis[k][0], basis[new][0], rweights)
            heappush(heap, (-m[0], k, new, m))
            pending.add((k, new))

    def chain(i, j, m):
        return any(
            k != i and k != j and _divides(lead, m)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, (lead, _) in enumerate(basis)
        )

    for j in range(len(basis)):
        add_pairs(j)
    while heap:
        _, i, j, m = heappop(heap)
        pending.remove((i, j))
        if m == tuple(map(add, basis[i][0], basis[j][0])):
            continue  # coprime leading terms: S-polynomial reduces to zero
        if chain(i, j, m):
            continue
        r = _reduce(_spolynomial(basis[i], basis[j], m, p), basis, p)
        if r:
            basis.append(_monic_reducer(r, p))
            add_pairs(len(basis) - 1)

    # The reduced basis is m - NF(m) over the minimal leads m: NF(m) is the
    # unique standard remainder of m, and m - NF(m) lies in the ideal.
    leads = {lead for lead, _ in basis}
    elements = []
    for m in sorted(leads, reverse=True):
        if any(k != m and _divides(k, m) for k in leads):
            continue
        terms = {t: -c % p for t, c in _reduce({m: 1}, basis, p).items()}
        terms[m] = 1
        elements.append(Polynomial(field, grading, _from_heap_terms(terms)))
    return GroebnerBasis(tuple(elements))


def initial_ideal(basis: GroebnerBasis) -> MonomialIdeal:
    """Monomial ideal of leading terms of a reduced Groebner basis."""
    return MonomialIdeal.from_exponents(g.leading_exponents() for g in basis.elements)


class LengthRun(Mapping):
    """A read-only mapping view of a dense run of lengths: degree j has
    length run[j], and the view holds the nonzero ones.

    The run is kept, not copied, and trimmed in place of its zeros at the
    end, so its last entry is nonzero.  Iteration runs in ascending degree,
    ``len`` counts the nonzero degrees, and a view equals any mapping with
    the same nonzero items.
    """

    __slots__ = ("run", "_count")

    def __init__(self, run: list):
        tail = next(compress(count(), reversed(run)), len(run))  # zeros at the end
        del run[len(run) - tail :]
        self.run = run
        self._count = len(run) - run.count(0)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return compress(count(), self.run)

    def __getitem__(self, j):
        if isinstance(j, int) and 0 <= j < len(self.run) and self.run[j]:
            return self.run[j]
        raise KeyError(j)

    def values(self):
        return _RunValues(self)

    def items(self):
        return _RunItems(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, LengthRun):
            return self.run == other.run
        if not isinstance(other, Mapping):
            return NotImplemented
        return len(other) == self._count and all(map(eq, map(other.get, self), self.values()))

    __hash__ = None

    def __repr__(self) -> str:
        return f"LengthRun({dict(self.items())!r})"


class _RunValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return filter(None, self._mapping.run)


class _RunItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping.values())


def _densified(lengths: Mapping, n: int) -> LengthRun:
    """The run of a mapping's lengths from degree 0, its degrees checked
    before it is allocated."""
    degrees = list(lengths)
    if not all(isinstance(j, int) for j in degrees):
        raise StructureError("a length table's degrees must be integers")
    if not all(map(lt, degrees, degrees[1:])):
        raise StructureError("a length table's degrees must be strictly ascending")
    if degrees and degrees[0] < 0:
        raise StructureError("a length table's degrees must be non-negative")
    support = [j for j, v in lengths.items() if v]
    if not support:
        return LengthRun([])
    if support[-1] + 1 > MAX_TABLE_ENTRIES:
        raise _over_budget(n, support[-1] + 1)
    run = [0] * (support[-1] + 1)
    for j in support:
        run[j] = lengths[j]
    return LengthRun(run)


@dataclass(frozen=True)
class GradedLengthTable:
    """Exact graded lengths of one Frobenius-power quotient.

    ``lengths`` is a LengthRun: the (arbitrary precision) k-dimensions of the
    degree pieces as one dense list indexed by degree, from degree 0 to the
    last nonzero one, seen as a read-only mapping of the nonzero degrees in
    ascending order.  A table built from any other mapping is densified once
    here; degrees that are not integers, not strictly ascending or negative,
    or a last nonzero degree at or past MAX_TABLE_ENTRIES, are refused with
    StructureError before the run is allocated.  ``numerator`` maps exponents to the integer
    coefficients of the Hilbert numerator over the ring's ``weights``, so the
    lengths are numerator(t) / prod(1 - t^w); a table built without one is its
    own numerator over no weights.  Only the lengths take part in comparisons.
    """

    n: int
    p: int
    lengths: Mapping
    numerator: Mapping = field(default=None, compare=False, repr=False)
    weights: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.lengths, LengthRun):
            object.__setattr__(self, "lengths", _densified(self.lengths, self.n))
        if self.numerator is None:
            if self.weights:
                raise StructureError("a length table with weights needs their numerator")
            object.__setattr__(self, "numerator", self.lengths)

    @property
    def max_degree(self) -> int:
        return len(self.lengths.run) - 1

    def total(self) -> int:
        """The exact total length, read off the numerator N over the m
        weights w: the value at t = 1 of N(t) / prod(1 - t^w), which is
        (-1)^m N^(m)(1) / (m! prod w), in O(terms of N)."""
        m = len(self.weights)
        top = sum(c * math.perm(e, m) for e, c in self.numerator.items())
        return (-1) ** m * top // (math.factorial(m) * math.prod(self.weights))

    def moment(self, m: int) -> int:
        """The exact integer sum of j^m times the degree-j length."""
        return sum(map(mul, map(pow, count(), repeat(m)), self.lengths.run))

    def items_sorted(self):
        return list(self.lengths.items())


def series_expansion(numerator: Mapping, degrees: Sequence[int], up_to: int) -> list:
    """Coefficients 0..up_to of numerator(t) / prod(1 - t^w) over w in degrees.

    ``numerator`` maps non-negative exponents to integer coefficients.  The
    first k <= 2 weights are divided out in closed form: with L their lcm,
    the sparse numerator times each (1 - t^L) / (1 - t^w) = sum_(a < L/w)
    t^(aw) is P, and P / (1 - t^L)^k is, on each residue class mod L between
    consecutive exponents of P, a constant (k = 1) or an arithmetic
    progression (k = 2), written as one slice.  P has up to terms * L^2 /
    (w1 * w2) exponents over two weights, so k = 2 only while that is at most
    the up_to + 1 outputs; otherwise k = 1, where P is the numerator itself.
    Each later weight is a running sum along each residue class mod w.
    """
    out = [0] * (up_to + 1)
    terms = {e: c for e, c in numerator.items() if e <= up_to and c}
    first = degrees[:2]
    if len(first) == 2 and len(terms) * math.lcm(*first) ** 2 > (up_to + 1) * math.prod(first):
        first = first[:1]
    k, step = len(first), math.lcm(*first)
    for w in first:
        spread: dict = {}
        for e, c in terms.items():
            for f in range(e, min(e + step, up_to + 1), w):
                spread[f] = spread.get(f, 0) + c
        terms = spread
    if not k:
        for e, c in terms.items():
            out[e] = c
        return out
    classes: dict = {}
    for e in sorted(terms):
        classes.setdefault(e % step, []).append(e)
    for exps in classes.values():
        value = slope = 0
        for start, end in zip(exps, [*exps[1:], up_to + 1]):
            value += terms[start]
            if k == 2:
                slope += terms[start]
            count = (end - start + step - 1) // step
            if slope:
                out[start:end:step] = range(value, value + slope * count, slope)
            elif value:
                out[start:end:step] = [value] * count
            value += slope * count
    for w in degrees[k:]:
        for r in range(min(w, up_to + 1)):
            out[r::w] = itertools.accumulate(out[r::w])
    return out


def staircase_numerator(M: MonomialIdeal, grading: Grading) -> dict:
    """Signed degree counts sum over generator subsets of (-1)^|S| t^deg(lcm S).

    This is the inclusion-exclusion numerator of the standard-monomial
    generating function, taken on the lcm lattice: the subsets that share
    an lcm share one coefficient, and a coefficient that cancels to 0 is
    dropped, so the work follows the distinct lcms, not the 2^r subsets.
    """
    lattice = {(0,) * grading.var_count: 1}
    for g in M.generators:
        for m, c in list(lattice.items()):
            key = monomial_lcm(m, g)
            lattice[key] = lattice.get(key, 0) - c
        lattice = {m: c for m, c in lattice.items() if c}
    acc: dict = {}
    for m, c in lattice.items():
        d = weighted_degree(m, grading)
        acc[d] = acc.get(d, 0) + c
    return {d: c for d, c in acc.items() if c}


def staircase_degree_counts(M: MonomialIdeal, grading: Grading, max_degree: int) -> tuple:
    """(numerator, counts) of the standard monomials of M, both exact.

    ``numerator`` maps degrees to the coefficients of the staircase's Hilbert
    numerator N over prod(1 - t^w), and ``counts`` lists the number of
    standard monomials of each weighted degree 0..max_degree.  Above
    _SUBSET_CAP generators, when a pure power of every variable bounds the
    staircase, the bounding box is walked and N is the counts times one
    (1 - t^w) per weight; otherwise N is staircase_numerator's and the counts
    are its series_expansion, whose work past N's few terms is one slice per
    run of the output.
    """
    if M.is_unit:
        return {}, [0] * (max_degree + 1)
    bounds = M.pure_power_bounds(grading.var_count)
    if len(M.generators) <= _SUBSET_CAP or None in bounds:
        numerator = staircase_numerator(M, grading)
        return numerator, series_expansion(numerator, grading.weights, max_degree)
    box = _enumerate_box_counts(M, grading, bounds)
    counts = [box.get(d, 0) for d in range(max_degree + 1)]
    numerator = [box.get(d, 0) for d in range(max(box) + 1)]
    for w in grading.weights:
        numerator = [a - b for a, b in zip(numerator + [0] * w, [0] * w + numerator)]
    return {d: c for d, c in enumerate(numerator) if c}, counts


def _enumerate_box_counts(M: MonomialIdeal, grading: Grading, bounds) -> dict:
    counts: dict = {}
    for exps in itertools.product(*(range(b) for b in bounds)):
        if not M.contains_monomial(exps):
            d = weighted_degree(exps, grading)
            counts[d] = counts.get(d, 0) + 1
    return counts


def enumeration_oracle(M: MonomialIdeal, grading: Grading) -> dict:
    """Independent oracle: walk the finite staircase box and count by degree.

    Requires a pure power of every variable among the generators; otherwise
    the staircase is unbounded and an error is raised.
    """
    if M.is_unit:
        return {}
    bounds = M.pure_power_bounds(grading.var_count)
    missing = [i for i, b in enumerate(bounds) if b is None]
    if missing:
        raise ColengthError(
            f"unbounded staircase: no pure power of variable index {missing[0]}",
            variable=str(missing[0]),
        )
    return _enumerate_box_counts(M, grading, bounds)


def insert_once(store: dict, key, compute):
    """store[key], computed on first use; setdefault keeps the first value,
    so concurrent readers may compute it twice but all see one value."""
    if key not in store:
        store.setdefault(key, compute())
    return store[key]


class FrobeniusChain:
    """The Frobenius normal forms of an ideal's generators over a ring with
    relations J.

    ``relations`` is J's reduced basis G and ``forms(n)`` the nonzero h_n of
    the generators g: h_0 = NF_G(g) and h_(k+1) = NF_G(h_k^p), so h_n =
    g^(p^n) mod J.  Each is built once, on first use, into ``levels``, an
    insert-once dict (G under "G", the forms of level k under k), and level
    n is built from level n - 1, so levels asked in any order take one
    normal form per generator and level.  ``levels`` defaults to a new dict;
    ProblemSpec keeps one per problem.
    """

    def __init__(self, ring: RingPresentation, ideal: HomogeneousIdeal, levels: dict = None):
        self.ring, self.ideal = ring, ideal
        self.levels = {} if levels is None else levels

    @property
    def relations(self) -> tuple:
        J = self.ring.relations
        return insert_once(self.levels, "G", lambda: buchberger(J).elements if J else ())

    def forms(self, n: int) -> list:
        G, p = self.relations, self.ring.field.p
        forms = insert_once(self.levels, 0,
                            lambda: tuple(normal_form(g, G) for g in self.ideal.generators))
        for k in range(1, n + 1):
            forms = insert_once(self.levels, k, lambda last=forms: tuple(
                h if h.is_zero() else normal_form(h.frobenius_power(p), G) for h in last))
        return [h for h in forms if not h.is_zero()]


def graded_lengths(ring: RingPresentation, ideal: HomogeneousIdeal, n: int,
                   levels: dict = None) -> GradedLengthTable:
    """Exact graded lengths of the quotient by the n-th bracket power.

    Monomial relations and generators give the initial ideal directly.
    Otherwise it is a Groebner basis's: of the g^q over a relation-free
    ring, and over a ring with relations J, of J's reduced basis G and the
    nonzero Frobenius normal forms h_n of the generators (FrobeniusChain).
    Over F_p, (a + j)^p = a^p + j^p with j^p in J, so h_n = g^q mod J: the
    ideal J + I^[q], and so its reduced basis, is the same, and a level takes
    reductions of p-th powers of normal forms in place of the S-pairs of the
    relations with the raw g^q.  Without ``levels``, the call builds G and
    h_0..h_n itself; ProblemSpec passes the FrobeniusChain store it keeps for
    this ring and ideal, so G is built once per problem and each level
    continues from the one below it.

    Raises ColengthError (naming a variable with no pure power in the initial
    ideal) when the ideal does not have finite colength in the ring, and
    StructureError when the level's count table would have more than
    MAX_TABLE_ENTRIES entries.  When the Groebner basis is needed, a lower
    bound on the table size is checked first, so a level that is over the
    budget by that bound is refused before Buchberger runs on the bracket
    generators.
    """
    check_ideal_in_ring(ring, ideal)
    if n < 0:
        raise StructureError("level n must be non-negative")
    p = ring.field.p
    if all(f.is_monomial() for f in (*ring.relations, *ideal.generators)):
        polys = [*ring.relations, *bracket_power(ideal, n).generators]
        M = MonomialIdeal.from_exponents(f.single_exponent() for f in polys)
    else:
        chain = FrobeniusChain(ring, ideal, levels)
        relations = chain.relations
        _check_table_floor(ring, ideal, n, relations)
        gens = chain.forms(n) if relations else bracket_power(ideal, n).generators
        M = initial_ideal(buchberger([*relations, *gens]))
    weights = tuple(ring.grading.weights)
    if M.is_unit:
        return GradedLengthTable(n, p, LengthRun([]), {}, weights)
    bounds = M.pure_power_bounds(ring.grading.var_count)
    for i, b in enumerate(bounds):
        if b is None:
            name = ring.variable_names[i]
            raise ColengthError(
                f"ideal does not have finite colength: no pure power of {name!r} "
                "in the initial ideal",
                variable=name,
            )
    max_degree = sum((b - 1) * w for b, w in zip(bounds, ring.grading.weights))
    if max_degree + 1 > MAX_TABLE_ENTRIES:
        raise _over_budget(n, max_degree + 1)
    numerator, counts = staircase_degree_counts(M, ring.grading, max_degree)
    return GradedLengthTable(n, p, LengthRun(counts), numerator, weights)


def _check_table_floor(ring: RingPresentation, ideal: HomogeneousIdeal, n: int, relations):
    """Refuse level n when a lower bound on its table size is over the budget.

    With h the least generator degree of the ideal and q = p^n, the ideal
    J + I^[q] agrees with the relation ideal J below degree q*h.  A variable
    x_i with no pure power in in(J), read off the leading terms of J's
    reduced basis ``relations``, therefore has pure-power bound b_i with
    b_i * w_i >= q*h, and the table needs at least sum over such i of
    (ceil(q*h / w_i) - 1) * w_i, plus one, entries.
    """
    q = ring.field.p ** n
    h = min(g.homogeneous_degree() for g in ideal.generators)
    leads = MonomialIdeal.from_exponents(g.leading_exponents() for g in relations)
    bounds = leads.pure_power_bounds(ring.grading.var_count)
    floor = sum((-(-q * h // w) - 1) * w
                for w, b in zip(ring.grading.weights, bounds) if b is None) + 1
    if floor > MAX_TABLE_ENTRIES:
        raise _over_budget(n, floor, "at least ")


def _over_budget(n: int, entries: int, bound: str = "") -> StructureError:
    """The refusal of level n, whose table needs ``entries`` (``bound`` "at least ") degrees.

    str() refuses an integer of more than 4300 digits; such a size is given as
    a power of ten it reaches, 10^k with k = floor((bit length - 1) * 0.30102),
    and 0.30102 < log10(2).
    """
    try:
        size = f"{bound}{entries}"
    except ValueError:
        size = f"at least 10^{(entries.bit_length() - 1) * 30102 // 100000}"
    return StructureError(
        f"level {n} needs a length table of {size} degrees, over the budget of {MAX_TABLE_ENTRIES}"
    )


def check_ideal_in_ring(ring: RingPresentation, ideal: HomogeneousIdeal):
    """Raise StructureError unless the ideal lives over the ring's field and grading."""
    g = ideal.generators[0]
    if g.field != ring.field or g.grading != ring.grading:
        raise StructureError("ideal and ring live over different fields or gradings")


def monomials_of_degree(grading: Grading, degree: int) -> list:
    """All exponent vectors of the given weighted degree, in a fixed order."""
    m = grading.var_count
    out = []

    def rec(i, rem, prefix):
        if i == m - 1:
            w = grading.weights[i]
            if rem % w == 0:
                out.append(prefix + (rem // w,))
            return
        w = grading.weights[i]
        for e in range(rem // w + 1):
            rec(i + 1, rem - e * w, prefix + (e,))

    if degree >= 0:
        rec(0, degree, ())
    return out


def macaulay_rank_oracle(ring: RingPresentation, gens: Sequence[Polynomial], degree: int) -> int:
    """Second oracle: graded dimension of the quotient by linear algebra.

    The degree-j piece of the quotient has dimension (number of degree-j
    monomials) minus the rank of the matrix whose rows are the degree-j
    monomial multiples of the generators (relations folded in), all over F_p.
    Completely independent of the Groebner machinery.
    """
    polys = list(ring.relations) + list(gens)
    for g in polys:
        if g.field != ring.field or g.grading != ring.grading:
            raise StructureError("generator over a different field or grading")
        if g.is_zero():
            raise StructureError("zero generator in rank oracle")
        if not g.is_homogeneous():
            raise StructureError("rank oracle needs homogeneous generators")
    basis = monomials_of_degree(ring.grading, degree)
    if not basis:
        return 0
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for g in polys:
        d = g.homogeneous_degree()
        if d > degree:
            continue
        for shift in monomials_of_degree(ring.grading, degree - d):
            row = [0] * len(basis)
            for e, c in g.terms.items():
                row[index[monomial_mul(e, shift)]] = c
            rows.append(row)
    return len(basis) - _rank_mod_p(rows, ring.field.p)


def _rank_mod_p(rows, p: int) -> int:
    if not rows:
        return 0
    ncols = len(rows[0])
    pivots = {}  # column -> normalized pivot row
    rank = 0
    for row in rows:
        row = list(row)
        for col in range(ncols):
            c = row[col]
            if not c:
                continue
            piv = pivots.get(col)
            if piv is None:
                inv = pow(c, p - 2, p)
                pivots[col] = [(x * inv) % p for x in row]
                rank += 1
                break
            row = [(a - c * b) % p for a, b in zip(row, piv)]
        # row fully reduced to zero: contributes nothing
    return rank

