"""Ideal-level operations: intersection, saturation, powers, dimension,
colength and Hilbert multiplicity.

Everything runs through reduced Groebner bases.  Intersection and saturation
are each one elimination: a fresh variable s is adjoined, one reduced basis
is computed under the block order that makes s dominate, and the elements
free of s generate the answer (Cox-Little-O'Shea, Ideals, Varieties, and
Algorithms, 3.3 and 4.4).

Colength and multiplicity are read off ``groebner.standard_count``, the one
staircase count of standard monomials.  They serve no criterion route and no
CLI path (``verify`` takes both as #H) and keep their names for the tests,
which use them as oracles, and for the benchmark's tracer.
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
from .groebner import GroebnerBasis, lead_monomial_basis, reduced_groebner_basis, standard_count
from .polynomials import GREVLEX, BlockOrder, Polynomial

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
        reduced basis that are free of s.

        s dominates, so an element is free of s exactly when its lead is.  On
        monomials free of s the block order is grevlex, so the kept elements,
        monic, interreduced and in ascending lead order, are the reduced
        grevlex basis of the result, and the result carries it."""
        ring = self.ring
        name = ring.fresh_variable_name("s")
        ext = ring.extend(name)
        gb = reduced_groebner_basis(build(ext, ext.var(name)), BlockOrder(1))
        kept = [(p.restrict(ring), lm[:-1])
                for p, lm in zip(gb.polynomials, gb.lead_monomials) if not lm[-1]]
        out = Ideal([p for p, _ in kept], ring=ring)
        if kept:
            out._gb[GREVLEX] = GroebnerBasis(ring, GREVLEX, out.generators,
                                             [lm for _, lm in kept])
        return out

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
        """Dimension of the quotient ring, read off the lead-term ideal; -1 for the unit ideal.

        Only the grevlex leads are needed: those of a cached reduced basis,
        else the minimal leads of a completed basis without its tail
        interreduction."""
        gb = self._gb.get(GREVLEX)
        leads = gb.lead_monomials if gb is not None else lead_monomial_basis(self.generators)
        if not all(map(any, leads)):
            return -1
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
        """dim_K S/I, the number of standard monomials; INFINITE in positive dimension.

        In dimension 0 each variable has a pure-power lead, and a standard
        monomial has each exponent below it, so its degree is below D, the
        degree of the lcm of the leads: sum the staircase counts below D."""
        gb = self.groebner()
        if gb.is_unit():
            return 0
        if self.krull_dimension() > 0:
            return INFINITE
        leads = gb.lead_monomials
        top = sum(map(max, zip(*leads)))
        return sum(standard_count(leads, self.ring.nvars, d) for d in range(top))

    def hilbert_multiplicity(self) -> int:
        """Multiplicity e of a one-dimensional homogeneous quotient.

        The Taylor resolution of the grevlex leads puts the Hilbert-series
        numerator of S/in(I) in degrees <= D, the degree of their lcm, so
        from degree D - nvars + 1 on the Hilbert function is the Hilbert
        polynomial, in dimension 1 the constant e.  Grevlex respects degree,
        so S/I and S/in(I) share the Hilbert function: e is the count at D."""
        if not self.is_homogeneous():
            raise NotHomogeneousError("multiplicity needs homogeneous generators")
        leads = self.groebner().lead_monomials
        dim = self.krull_dimension()
        if dim != 1:
            raise WrongDimensionError(f"quotient has dimension {dim}, expected 1")
        return standard_count(leads, self.ring.nvars, sum(map(max, zip(*leads))))


def intersect_all(ideals) -> Ideal:
    """Left-to-right pairwise intersection, in input order."""
    ideals = list(ideals)
    if not ideals:
        raise EmptyIdealError("nothing to intersect")
    acc = ideals[0]
    for nxt in ideals[1:]:
        acc = acc.intersect(nxt)
    return acc
