"""Frobenius bracket powers, Groebner bases over F_p, monomial staircases, and
exact graded length tables of Frobenius-power quotients.

The length pipeline is: bracket power -> Groebner basis of relations plus
bracket generators -> initial ideal -> staircase count of standard monomials
by weighted degree.  Passing to the initial ideal preserves the Hilbert
function, so the counts are exact.  Two independent oracles (direct staircase
enumeration and Macaulay-matrix ranks over F_p) cross-check the pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add
from typing import Iterable, Mapping, Sequence

from .algebra import (
    ExponentVector,
    Grading,
    Polynomial,
    PrimeField,
    TermOrder,
    _divides,
    _from_heap_terms,
    _heap_terms,
    _lcm,
    _monic_reducer,
    _reduce,
    _spolynomial,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    weighted_degree,
)
from .errors import ColengthError, StructureError

# Inclusion-exclusion walks 2^r generator subsets; beyond this cap the
# staircase is enumerated directly instead.
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

    @property
    def term_order(self) -> TermOrder:
        return TermOrder(self.grading)


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

    @property
    def is_zero(self) -> bool:
        return not self.generators

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
    order: TermOrder


def spolynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """S-polynomial of monic f and g: the leading terms cancel."""
    lf = f.leading_exponents(order)
    lg = g.leading_exponents(order)
    lcm = monomial_lcm(lf, lg)
    return f.mul_monomial(1, monomial_div(lcm, lf)) - g.mul_monomial(1, monomial_div(lcm, lg))


def buchberger(gens: Sequence[Polynomial], order: TermOrder) -> GroebnerBasis:
    """Buchberger's algorithm with the normal selection strategy.

    Pairs come off a heap by least lcm degree, ties broken by index.  Two
    criteria skip pairs whose S-polynomial needs no reduction (Buchberger
    1979; Gebauer and Moeller, JSC 6, 1988): pairs with coprime leading terms,
    and the chain criterion, which skips (i, j) when some other leading term
    divides their lcm and its pairs with i and with j are both processed.
    S-polynomials and the final interreduction go through the reduction
    kernel behind ``normal_form``.  The criteria only save work: the result
    is the reduced basis, which is unique, so it does not depend on them or
    on the input order.
    """
    gens = list(gens)
    if not gens:
        raise StructureError("Groebner basis of an empty generator list")
    for g in gens:
        if g.is_zero():
            raise StructureError("zero polynomial among Groebner input generators")
        if not g.is_homogeneous():
            raise StructureError("Groebner input generators must be homogeneous")

    # Basis elements are monic (lead, tail) pairs in the kernel's heap form,
    # where a monomial is (-degree, e_m, ..., e_1).
    field, weights = gens[0].field, order.grading.weights
    p, rweights = field.p, weights[::-1]
    basis = [_monic_reducer(_heap_terms(g, weights), p) for g in gens]
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

    # Minimalize: drop elements whose leading term another leading term divides
    # (keeping the first of any duplicates).
    leads = [lead for lead, _ in basis]
    minimal = [
        basis[i]
        for i, li in enumerate(leads)
        if not any(
            k != i and _divides(lk, li) and (lk != li or k < i) for k, lk in enumerate(leads)
        )
    ]

    # Interreduce tails so the basis is fully reduced.  A lead stays: no other
    # lead divides it, and every tail term is smaller.
    reduced = []
    for i, (lead, tail) in enumerate(minimal):
        terms = _reduce(dict(tail), minimal[:i] + minimal[i + 1 :], p)
        terms[lead] = 1
        reduced.append((lead, terms))
    reduced.sort(key=lambda item: item[0], reverse=True)
    elements = tuple(
        Polynomial(field, order.grading, _from_heap_terms(terms)) for _, terms in reduced
    )
    return GroebnerBasis(elements, order)


def initial_ideal(basis: GroebnerBasis) -> MonomialIdeal:
    """Monomial ideal of leading terms of a reduced Groebner basis."""
    return MonomialIdeal.from_exponents(
        g.leading_exponents(basis.order) for g in basis.elements
    )


@dataclass(frozen=True)
class GradedLengthTable:
    """Exact graded lengths of one Frobenius-power quotient.

    ``lengths`` maps degree j to the (arbitrary precision) k-dimension of the
    degree-j piece; only nonzero entries are stored.
    """

    n: int
    p: int
    lengths: Mapping

    @property
    def max_degree(self) -> int:
        return max(self.lengths) if self.lengths else -1

    def total(self) -> int:
        return sum(self.lengths.values())

    def moment(self, m: int) -> int:
        """The exact integer sum of j^m times the degree-j length."""
        return sum(j ** m * c for j, c in self.lengths.items())

    def items_sorted(self):
        return sorted(self.lengths.items())


def monomial_count_series(grading: Grading, max_degree: int) -> list:
    """Counts of monomials of each weighted degree 0..max_degree."""
    counts = [0] * (max_degree + 1)
    counts[0] = 1
    for w in grading.weights:
        for d in range(w, max_degree + 1):
            counts[d] += counts[d - w]
    return counts


def staircase_numerator(M: MonomialIdeal, grading: Grading, prune_above=None) -> dict:
    """Signed degree counts sum over generator subsets of (-1)^|S| t^deg(lcm S).

    This is the inclusion-exclusion numerator of the standard-monomial
    generating function.  Subsets whose lcm degree exceeds ``prune_above``
    contribute nothing below that degree and are pruned.
    """
    gens = sorted(M.generators, key=lambda g: weighted_degree(g, grading))
    if prune_above is None and len(gens) > 22:
        raise StructureError(
            f"{len(gens)} minimal generators is too many for an exact subset walk"
        )
    acc: dict = {}
    zero = (0,) * grading.var_count

    def visit(start, lcm, sign):
        d = weighted_degree(lcm, grading)
        if prune_above is not None and d > prune_above:
            return
        acc[d] = acc.get(d, 0) + sign
        for k in range(start, len(gens)):
            visit(k + 1, monomial_lcm(lcm, gens[k]), -sign)

    visit(0, zero, 1)
    return {d: c for d, c in acc.items() if c}


def staircase_degree_counts(M: MonomialIdeal, grading: Grading, max_degree: int) -> list:
    """Standard monomial counts by weighted degree, exact, for 0..max_degree."""
    if M.is_unit:
        return [0] * (max_degree + 1)
    if len(M.generators) > _SUBSET_CAP:
        bounds = M.pure_power_bounds(grading.var_count)
        if all(b is not None for b in bounds):
            box = _enumerate_box_counts(M, grading, bounds)
            out = [0] * (max_degree + 1)
            for d, c in box.items():
                if d <= max_degree:
                    out[d] = c
            return out
        raise StructureError(
            f"more than {_SUBSET_CAP} generators and no bounding box; refusing inclusion-exclusion"
        )
    numerator = staircase_numerator(M, grading, prune_above=max_degree)
    base = monomial_count_series(grading, max_degree)
    counts = [0] * (max_degree + 1)
    for d, c in numerator.items():
        for j in range(d, max_degree + 1):
            counts[j] += c * base[j - d]
    return counts


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


def graded_lengths(ring: RingPresentation, ideal: HomogeneousIdeal, n: int) -> GradedLengthTable:
    """Exact graded lengths of the quotient by the n-th bracket power.

    Raises ColengthError (naming a variable with no pure power in the initial
    ideal) when the ideal does not have finite colength in the ring, and
    StructureError when the level's count table would have more than
    MAX_TABLE_ENTRIES entries.
    """
    check_ideal_in_ring(ring, ideal)
    if n < 0:
        raise StructureError("level n must be non-negative")
    p = ring.field.p
    polys = list(ring.relations) + list(bracket_power(ideal, n).generators)
    if all(f.is_monomial() for f in polys):
        M = MonomialIdeal.from_exponents(f.single_exponent() for f in polys)
    else:
        M = initial_ideal(buchberger(polys, ring.term_order))
    if M.is_unit:
        return GradedLengthTable(n, p, {})
    bounds = M.pure_power_bounds(ring.grading.var_count)
    for i, b in enumerate(bounds):
        if b is None:
            name = ring.variable_names[i]
            raise ColengthError(
                f"ideal does not have finite colength: no pure power of {name!r} in the initial ideal",
                variable=name,
            )
    max_degree = sum((b - 1) * w for b, w in zip(bounds, ring.grading.weights))
    if max_degree + 1 > MAX_TABLE_ENTRIES:
        raise StructureError(
            f"level {n} needs a length table of {max_degree + 1} degrees, "
            f"over the budget of {MAX_TABLE_ENTRIES}"
        )
    counts = staircase_degree_counts(M, ring.grading, max_degree)
    return GradedLengthTable(n, p, {j: c for j, c in enumerate(counts) if c})


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
    if p == 2:
        return _rank_gf2(rows)
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


def _rank_gf2(rows) -> int:
    pivots = {}
    rank = 0
    for row in rows:
        acc = 0
        for i, x in enumerate(row):
            if x & 1:
                acc |= 1 << i
        while acc:
            low = acc.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = acc
                rank += 1
                break
            acc ^= piv
    return rank
