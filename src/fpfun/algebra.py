"""Exact arithmetic foundation: prime fields, weighted monomials, homogeneous
polynomials, the weighted grevlex term order, and multivariate division.

Exponent vectors are plain tuples of non-negative ints.  Coefficients are
canonical residues in [0, p).  All values are immutable after construction and
safe to share across threads; every operation is a pure function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import add, le, mul, sub
from typing import Mapping

from .errors import ParseError, StructureError

ExponentVector = tuple  # tuple[int, ...]


def is_prime(n: int) -> bool:
    """Whether n is a prime below 3317044064679887385961981.

    Miller-Rabin with the bases 2 to 41 is exact below that number, the
    least strong pseudoprime to all of them; no fixed base set certifies
    every larger prime, so every n from it on reads False.
    """
    if n < 2 or n >= 3317044064679887385961981:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in small:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p; elements are canonical residues in [0, p)."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise StructureError(
                f"characteristic must be a prime below 3317044064679887385961981, got {self.p!r}"
            )


@dataclass(frozen=True)
class Grading:
    """Positive integer weights assigning a degree to each variable."""

    weights: tuple

    def __post_init__(self):
        ws = tuple(self.weights)
        object.__setattr__(self, "weights", ws)
        if not ws:
            raise StructureError("a grading needs at least one variable")
        for w in ws:
            if not isinstance(w, int) or w < 1:
                raise StructureError(f"variable weights must be positive integers, got {w!r}")

    @property
    def var_count(self) -> int:
        return len(self.weights)


def weighted_degree(exponents: ExponentVector, grading: Grading) -> int:
    """Weighted degree sum(e_j * w_j) of an exponent vector."""
    if len(exponents) != grading.var_count:
        raise StructureError(
            f"exponent vector of length {len(exponents)} under a grading of "
            f"{grading.var_count} variables"
        )
    return sum(e * w for e, w in zip(exponents, grading.weights))


def monomial_mul(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    if len(a) != len(b):
        raise StructureError("exponent vectors of different lengths")
    return tuple(x + y for x, y in zip(a, b))


def monomial_lcm(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    """Componentwise maximum."""
    if len(a) != len(b):
        raise StructureError("exponent vectors of different lengths")
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_divides(a: ExponentVector, b: ExponentVector) -> bool:
    """True when the monomial with exponents a divides the one with exponents b."""
    return len(a) == len(b) and all(x <= y for x, y in zip(a, b))


class Polynomial:
    """A sparse multivariate polynomial over a prime field with a grading.

    ``terms`` maps exponent vectors to nonzero canonical coefficients; zero
    coefficients are never stored.  Instances are immutable by convention.
    """

    __slots__ = ("field", "grading", "terms")

    def __init__(self, field: PrimeField, grading: Grading, terms: Mapping):
        clean = {}
        m = grading.var_count
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != m:
                raise StructureError(f"exponent vector {exps} under {m} variables")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise StructureError(f"exponents must be non-negative integers: {exps}")
            c = c % field.p
            if c:
                clean[exps] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "grading", grading)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def single_exponent(self) -> ExponentVector:
        if len(self.terms) != 1:
            raise StructureError("polynomial is not a single term")
        return next(iter(self.terms))

    def is_homogeneous(self) -> bool:
        degs = {weighted_degree(e, self.grading) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        """Weighted degree of a nonzero homogeneous polynomial."""
        degs = {weighted_degree(e, self.grading) for e in self.terms}
        if len(degs) != 1:
            raise StructureError("polynomial is zero or not homogeneous")
        return degs.pop()

    def _check_compatible(self, other: "Polynomial"):
        if self.field != other.field or self.grading != other.grading:
            raise StructureError("polynomials over different fields or gradings")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        res = dict(self.terms)
        p = self.field.p
        for e, c in other.terms.items():
            v = (res.get(e, 0) + c) % p
            if v:
                res[e] = v
            else:
                res.pop(e, None)
        return Polynomial(self.field, self.grading, res)

    def __neg__(self) -> "Polynomial":
        p = self.field.p
        return Polynomial(self.field, self.grading, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def frobenius_power(self, q: int) -> "Polynomial":
        """The q-th power for q a power of the characteristic.

        Over F_p the Frobenius is additive and fixes scalars, so raising to
        the q-th power just scales every exponent vector by q.
        """
        if q == 1:
            return self
        return Polynomial(
            self.field,
            self.grading,
            {tuple(e * q for e in exps): c for exps, c in self.terms.items()},
        )

    # -- term order dependent ---------------------------------------------

    def leading_exponents(self) -> ExponentVector:
        if not self.terms:
            raise StructureError("zero polynomial has no leading term")
        weights = self.grading.weights
        return min(self.terms, key=lambda e: _heap_key(e, weights))

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.grading == other.grading
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


def normal_form(f: Polynomial, divisors) -> Polynomial:
    """Remainder of f under multivariate division by the list of divisors.

    The remainder r satisfies: f - r lies in the ideal generated by the
    divisors, and no term of r is divisible by any leading term of a divisor.
    Divisors are scaled monic first; the largest remaining term is always
    taken next, and it is divided by the first divisor in list order whose
    leading term divides it, so the result is deterministic.  The work is
    done by the heap-driven kernel that Buchberger's algorithm also uses.
    """
    divisors = list(divisors)
    if not divisors:
        raise StructureError("division by an empty list of polynomials")
    for g in divisors:
        f._check_compatible(g)
        if g.is_zero():
            raise StructureError("zero divisor polynomial in normal form")
    p = f.field.p
    reducers = [_monic_reducer(_heap_terms(g), p) for g in divisors]
    remainder = _reduce(_heap_terms(f), reducers, p)
    return Polynomial(f.field, f.grading, _from_heap_terms(remainder))


# -- the term order and the reduction kernel ---------------------------------
#
# The term order is the weighted grevlex order of the polynomials' own grading:
# monomials compare first by weighted degree, ties broken reverse
# lexicographically with the last variable smallest.  It is total,
# multiplicative and a well-order, hence admissible, and by Macaulay's theorem
# the initial ideal it gives has the Hilbert function of the ideal, so no
# graded invariant depends on the choice.  Inside the kernel the monomial x^e
# is its key (-deg e, e_m, ..., e_1): ascending keys are descending monomials,
# so a min-heap pops the leading term first, and multiplying two monomials
# adds their keys componentwise.  Polynomials are dicts from keys to nonzero
# residues.


def _heap_key(exponents: ExponentVector, weights) -> tuple:
    """The key of x^exponents under these weights; the least key leads."""
    return (-sum(map(mul, exponents, weights)),) + exponents[::-1]


def _heap_terms(poly: Polynomial) -> dict:
    """The terms of poly keyed by heap-form monomials."""
    weights = poly.grading.weights
    return {_heap_key(e, weights): c for e, c in poly.terms.items()}


def _from_heap_terms(terms: dict) -> dict:
    """Exponent vectors back from heap-form monomials."""
    return {m[:0:-1]: c for m, c in terms.items()}


def _monic_reducer(terms: dict, p: int) -> tuple:
    """The ``(lead, tail)`` form of the monic multiple of nonzero heap terms.

    ``tail`` holds (monomial, coefficient) pairs of every term but the lead.
    """
    lead = min(terms)
    inv = pow(terms[lead], p - 2, p)
    return lead, tuple((m, c * inv % p) for m, c in terms.items() if m != lead)


def _lcm(a: tuple, b: tuple, rweights) -> tuple:
    """The lcm of heap-form monomials; ``rweights`` lists the weights last variable first."""
    body = tuple(map(max, a[1:], b[1:]))
    return (-sum(map(mul, body, rweights)),) + body


def _divides(a: tuple, b: tuple) -> bool:
    """Whether heap-form monomial a divides b."""
    return all(map(le, a[1:], b[1:]))


def _spolynomial(f: tuple, g: tuple, lcm: tuple, p: int) -> dict:
    """Heap terms of the S-polynomial of monic ``(lead, tail)`` reducers f and g.

    ``lcm`` is the lcm of their leads; the leads cancel, so only tails enter.
    """
    (lf, tf), (lg, tg) = f, g
    sf, sg = tuple(map(sub, lcm, lf)), tuple(map(sub, lcm, lg))
    s = {tuple(map(add, e, sf)): c for e, c in tf}
    for e, c in tg:
        t = tuple(map(add, e, sg))
        v = (s.get(t, 0) - c) % p
        if v:
            s[t] = v
        else:
            del s[t]
    return s


def _reduce(terms: dict, reducers, p: int) -> dict:
    """Remainder of heap terms under division by monic ``(lead, tail)`` reducers.

    ``terms`` is consumed.  The largest remaining term comes off a heap and is
    divided by the first reducer in list order whose lead divides it; a term
    that no lead divides moves to the remainder.
    """
    tests = [(lead[1:], lead, tail) for lead, tail in reducers]
    heap = list(terms)
    heapify(heap)
    remainder = {}
    while heap:
        m = heappop(heap)
        c = terms.pop(m, 0)
        if not c:
            continue  # cancelled after it was queued
        body = m[1:]
        for test, lead, tail in tests:
            if all(map(le, test, body)):
                shift = tuple(map(sub, m, lead))
                for e, gc in tail:
                    t = tuple(map(add, e, shift))
                    v = (terms.get(t, 0) - c * gc) % p
                    if v:
                        if t not in terms:
                            heappush(heap, t)
                        terms[t] = v
                    else:
                        del terms[t]
                break
        else:
            remainder[m] = c
    return remainder


# -- text grammar -----------------------------------------------------------
#
# poly   := [sign] term (sign term)*
# term   := factor ('*' factor)*
# factor := INT | NAME | NAME '^' INT
#
# Integer coefficients are reduced mod p; whitespace is insignificant.

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^])|(?P<bad>\S)")


def _tokenize(text: str):
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r} at position {m.start()}")
        yield kind, m.group(), m.start()


def parse_polynomial(text: str, names, field: PrimeField, grading: Grading) -> Polynomial:
    """Parse polynomial text over declared variable names.

    Raises ParseError with the offending position on malformed input.
    """
    names = list(names)
    if len(names) != grading.var_count:
        raise StructureError("variable name list does not match the grading")
    index = {nm: i for i, nm in enumerate(names)}
    tokens = list(_tokenize(text))
    if not tokens:
        raise ParseError("empty polynomial text")

    terms: dict = {}
    pos = 0
    n = len(tokens)
    p = field.p

    def fail(msg, at):
        raise ParseError(f"{msg} at position {at} in {text!r}")

    def integer(digits, at):
        try:
            return int(digits)
        except ValueError:  # more digits than int() reads
            fail(f"integer of {len(digits)} digits is too long", at)

    sign = 1
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        sign = -1 if tokens[0][1] == "-" else 1
        pos = 1

    while True:
        # one term: factors separated by '*'
        coeff = sign
        exps = [0] * grading.var_count
        while True:
            if pos >= n:
                fail("expected a coefficient or variable", len(text))
            kind, val, at = tokens[pos]
            if kind == "int":
                coeff *= integer(val, at)
                pos += 1
            elif kind == "name":
                if val not in index:
                    fail(f"unknown variable {val!r}", at)
                k = 1
                pos += 1
                if pos < n and tokens[pos][0] == "op" and tokens[pos][1] == "^":
                    pos += 1
                    if pos >= n or tokens[pos][0] != "int":
                        fail("expected an integer exponent after '^'", at)
                    k = integer(tokens[pos][1], tokens[pos][2])
                    pos += 1
                exps[index[val]] += k
            else:
                fail(f"unexpected {val!r}", at)
            if pos < n and tokens[pos][0] == "op" and tokens[pos][1] == "*":
                pos += 1
                continue
            break
        key = tuple(exps)
        terms[key] = (terms.get(key, 0) + coeff) % p

        if pos >= n:
            break
        kind, val, at = tokens[pos]
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            pos += 1
        else:
            fail(f"expected '+' or '-' between terms, got {val!r}", at)

    return Polynomial(field, grading, terms)


def format_polynomial(poly: Polynomial, names=None) -> str:
    """Deterministic text form, terms in descending term order."""
    if poly.is_zero():
        return "0"
    if names is None:
        names = [f"x{i + 1}" for i in range(poly.grading.var_count)]
    weights = poly.grading.weights
    parts = []
    for exps in sorted(poly.terms, key=lambda e: _heap_key(e, weights)):
        c = poly.terms[exps]
        factors = [
            nm if e == 1 else f"{nm}^{e}"
            for nm, e in zip(names, exps)
            if e
        ]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)
