"""Ideal-level operations: intersection, saturation, powers, dimension,
colength and Hilbert multiplicity.

Everything runs through reduced Groebner bases.  Intersection and saturation
are each one elimination: a fresh variable s is adjoined, one reduced basis
is computed under the block order that makes s dominate, and the elements
free of s generate the answer (Cox-Little-O'Shea, Ideals, Varieties, and
Algorithms, 3.3 and 4.4).
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement

from .errors import (
    EmptyIdealError,
    InputError,
    NotHomogeneousError,
    VariableMismatchError,
    WrongDimensionError,
)
from .groebner import GroebnerBasis, reduced_groebner_basis
from .polynomials import GREVLEX, BlockOrder, Polynomial, mono_divides

INFINITE = math.inf


class Ideal:
    """A finitely generated ideal with cached reduced Groebner bases per order."""

    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, generators, ring=None):
        gens = [g for g in generators if not (isinstance(g, Polynomial) and g.is_zero())]
        if ring is None:
            if not gens:
                raise EmptyIdealError("cannot infer the ring of a zero ideal")
            ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise VariableMismatchError("generators over different rings")
        self.ring = ring
        self.generators = tuple(gens)
        self._gb = {}

    @classmethod
    def unit(cls, ring):
        return cls([ring.one()], ring=ring)

    def groebner(self, order=GREVLEX) -> GroebnerBasis:
        gb = self._gb.get(order)
        if gb is None:
            gb = reduced_groebner_basis(self.generators, order)
            self._gb[order] = gb
        return gb

    def contains(self, f) -> bool:
        if f.is_zero():
            return True
        return self.groebner().contains(f)

    def is_unit(self) -> bool:
        return self.groebner().is_unit()

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return self.groebner().polynomials == other.groebner().polynomials

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators[:4])
        more = ", ..." if len(self.generators) > 4 else ""
        return f"Ideal({gens}{more})"

    # -- constructions -----------------------------------------------------------

    def intersect(self, other: "Ideal") -> "Ideal":
        """self ∩ other = (s*self + (1 - s)*other) ∩ k[x]."""
        if self.ring != other.ring:
            raise VariableMismatchError("intersection over different rings")
        if self.is_unit():
            return other
        if other.is_unit():
            return self
        return self._eliminate(
            lambda ext, s: [g.lift(ext) * s for g in self.generators]
            + [g.lift(ext) * (ext.one() - s) for g in other.generators])

    def saturation(self, f) -> "Ideal":
        """self : f^infinity = (self + (1 - s*f)) ∩ k[x], for one polynomial f."""
        if f.ring != self.ring:
            raise VariableMismatchError("saturation over different rings")
        return self._eliminate(
            lambda ext, s: [g.lift(ext) for g in self.generators]
            + [ext.one() - s * f.lift(ext)])

    def _eliminate(self, build) -> "Ideal":
        """The ideal of this ring cut out of the ideal ``build(ext, s)`` spans
        in ext = ring[s], s a fresh variable: the elements of its BlockOrder(1)
        reduced basis that are free of s."""
        ring = self.ring
        name = ring.fresh_variable_name("s")
        ext = ring.extend(name)
        gb = reduced_groebner_basis(build(ext, ext.var(name)), BlockOrder(1))
        kept = [p.restrict(ring) for p in gb if not any(m[-1] for m in p.terms)]
        return Ideal(kept, ring=ring)

    def power(self, r: int) -> "Ideal":
        if r < 0:
            raise InputError("ideal power needs a non-negative exponent")
        if r == 0:
            return Ideal.unit(self.ring)
        gens = []
        for combo in combinations_with_replacement(self.generators, r):
            p = combo[0]
            for q in combo[1:]:
                p = p * q
            gens.append(p)
        return Ideal(gens, ring=self.ring)

    # -- numerical invariants ------------------------------------------------------

    def krull_dimension(self) -> int:
        """Dimension of the quotient ring, read off the lead-term ideal; -1 for the unit ideal."""
        gb = self.groebner()
        if gb.is_unit():
            return -1
        leads = gb.lead_monomials
        nv = self.ring.nvars
        for size in range(nv, 0, -1):
            for subset in combinations(range(nv), size):
                inside = set(subset)
                if not any(all(i in inside for i, e in enumerate(lm) if e) for lm in leads):
                    return size
        return 0

    def height(self) -> int:
        return self.ring.nvars - self.krull_dimension()

    def vector_space_dimension(self):
        """Number of standard monomials of the quotient; INFINITE in positive dimension."""
        gb = self.groebner()
        if gb.is_unit():
            return 0
        dim = self.krull_dimension()
        if dim > 0:
            return INFINITE
        leads = gb.lead_monomials
        nv = self.ring.nvars
        bounds = []
        for i in range(nv):
            pures = [lm[i] for lm in leads if all(e == 0 for j, e in enumerate(lm) if j != i)]
            bounds.append(min(pures))
        count = 0
        stack = [(0, ())]
        while stack:
            i, prefix = stack.pop()
            if i == nv:
                m = prefix
                if not any(mono_divides(lm, m) for lm in leads):
                    count += 1
                continue
            for e in range(bounds[i]):
                stack.append((i + 1, prefix + (e,)))
        return count

    def hilbert_multiplicity(self) -> int:
        """Multiplicity of a one-dimensional homogeneous quotient."""
        if not self.is_homogeneous():
            raise NotHomogeneousError("multiplicity needs homogeneous generators")
        dim = self.krull_dimension()
        if dim != 1:
            raise WrongDimensionError(f"quotient has dimension {dim}, expected 1")
        leads = _minimalize(self.groebner().lead_monomials)
        numerator = _hilbert_numerator(frozenset(leads), {})
        # Hilbert series = numerator / (1-t)^nvars; dimension 1 means the
        # numerator is divisible by (1-t)^(nvars-1) and the value of the
        # remaining factor at t = 1 is the multiplicity.
        q = list(numerator)
        for _ in range(self.ring.nvars - 1):
            q = _divide_by_one_minus_t(q)
        e = sum(q)
        if e <= 0:
            raise WrongDimensionError("non-positive multiplicity")
        return e


def intersect_all(ideals) -> Ideal:
    """Left-to-right pairwise intersection, in input order."""
    ideals = list(ideals)
    if not ideals:
        raise EmptyIdealError("nothing to intersect")
    acc = ideals[0]
    for nxt in ideals[1:]:
        acc = acc.intersect(nxt)
    return acc


def _minimalize(monos):
    out = []
    for m in sorted(monos, key=sum):
        if not any(mono_divides(k, m) for k in out):
            out.append(m)
    return out


def _hilbert_numerator(gens: frozenset, memo) -> tuple:
    """Numerator of the Hilbert series of S/(gens) over (1-t)^nvars, as coefficients."""
    got = memo.get(gens)
    if got is not None:
        return got
    if not gens:
        out = (1,)
    elif any(sum(g) == 0 for g in gens):
        out = (0,)
    else:
        supports = [tuple(i for i, e in enumerate(g) if e) for g in gens]
        if all(len(s) == 1 for s in supports) and len({s[0] for s in supports}) == len(gens):
            # pairwise-coprime pure powers: product formula
            out = (1,)
            for g in gens:
                out = _poly_mul_int(out, _one_minus_t_power(sum(g)))
        else:
            # pivot from a mixed-support generator so both branches strictly
            # shrink the total degree
            counts = {}
            for s in supports:
                if len(s) >= 2:
                    for i in s:
                        counts[i] = counts.get(i, 0) + 1
            pivot = max(counts, key=lambda i: (counts[i], -i))
            plus = _minimalize(
                [_unit_mono(len(next(iter(gens))), pivot)]
                + [g for g in gens if g[pivot] == 0]
            )
            colon = _minimalize(
                [g[:pivot] + (max(g[pivot] - 1, 0),) + g[pivot + 1:] for g in gens]
            )
            a = _hilbert_numerator(frozenset(plus), memo)
            b = _hilbert_numerator(frozenset(colon), memo)
            out = _poly_add_int(a, _poly_shift(b, 1))
    memo[gens] = out
    return out


def _unit_mono(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _one_minus_t_power(d):
    out = [1] + [0] * d
    out[d] = -1
    return tuple(out)


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out)


def _poly_add_int(a, b):
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _poly_shift(a, k):
    return (0,) * k + tuple(a)


def _divide_by_one_minus_t(p):
    """Exact division by (1 - t); raises if the remainder is nonzero."""
    out = []
    acc = 0
    for c in p:
        acc += c
        out.append(acc)
    if out and out[-1] != 0:
        raise WrongDimensionError("Hilbert numerator not divisible by (1-t)")
    return out[:-1] if out else out
