"""Cross-validation of the Groebner kernel against an independent implementation.

Runs only when sympy is importable.  sympy's reduced bases are converted back
into package polynomials and both sides are normalized to monic (reduced
bases are unique up to unit scaling).
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from helpers import from_dict, lead_term
from symrees.fields import RationalField
from symrees.groebner import reduced_groebner_basis
from symrees.polynomials import GREVLEX, PolyRing

Q = RationalField()
R = PolyRing(Q)
X = sympy.symbols("x y z")


def _to_sympy(p):
    e = sympy.Integer(0)
    for m, c in p.terms.items():
        t = sympy.Rational(c)
        for s, k in zip(X, m):
            t *= s**k
        e += t
    return e


def _from_sympy(expr):
    poly = sympy.Poly(expr, *X)
    terms = {}
    for mono, coeff in poly.terms():
        q = Fraction(coeff.p, coeff.q)
        terms[tuple(int(e) for e in mono)] = Q.from_fraction(q)
    return from_dict(R, terms)


def _monic(p):
    _, lc = lead_term(p, GREVLEX)
    return p.scale(Q.inv(lc))


def _basis_set(polys):
    return frozenset(_monic(p) for p in polys)


def test_reduced_bases_agree_with_sympy_on_random_ideals():
    rnd = random.Random(7)
    checked = 0
    while checked < 40:
        gens = []
        for _ in range(rnd.randint(2, 3)):
            terms = {}
            for _ in range(rnd.randint(1, 3)):
                m = tuple(rnd.randint(0, 3) for _ in range(3))
                terms[m] = Q.from_int(rnd.randint(-5, 5))
            p = from_dict(R, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        mine = _basis_set(reduced_groebner_basis(gens))
        reference = sympy.groebner([_to_sympy(g) for g in gens], *X, order="grevlex")
        theirs = _basis_set(_from_sympy(e) for e in reference.exprs)
        assert mine == theirs
        checked += 1


def test_pencil_intersection_against_sympy():
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    gens = [y**2 - z**2, z**2 - x**2, x + 2 * y + 4 * z]
    mine = _basis_set(reduced_groebner_basis(gens))
    reference = sympy.groebner([_to_sympy(g) for g in gens], *X, order="grevlex")
    theirs = _basis_set(_from_sympy(e) for e in reference.exprs)
    assert mine == theirs
