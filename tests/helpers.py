"""Reference routines that only the tests use.

The S-polynomial, a three-way order comparison, a standard-monomial count by
scanning every monomial and the grevlex truncated colength check the
library's results from outside; the tuple keys below are
the monomial orders written out directly, against which the weight rows of
``symrees.polynomials`` and the packed monomials of ``symrees.groebner`` are
tested.
"""

from symrees.errors import VariableMismatchError, ZeroPolynomialError
from symrees.groebner import lead_monomial_basis
from symrees.polynomials import GREVLEX, mono_divides
from symrees.verifier import _exponents_of_degree, _truncation_inputs


def s_polynomial(f, g, order=GREVLEX):
    """(lcm/lt f)*f - (lcm/lt g)*g; the lead terms cancel by construction."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("S-polynomial of a zero polynomial")
    if f.ring != g.ring:
        raise VariableMismatchError("S-polynomial operands over different rings")
    ring = f.ring
    field = ring.field
    lmf, lcf = f.lead_term(order)
    lmg, lcg = g.lead_term(order)
    l = tuple(map(max, lmf, lmg))
    mf = ring.monomial(tuple(a - b for a, b in zip(l, lmf)), field.inv(lcf))
    mg = ring.monomial(tuple(a - b for a, b in zip(l, lmg)), field.inv(lcg))
    return mf * f - mg * g


def compare(order, a, b):
    """-1, 0 or 1 as a <, =, > b under the order."""
    if len(a) != len(b):
        raise VariableMismatchError("monomials over different variable lists")
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def standard_count_by_scan(leads, nvars, d):
    """Number of degree-d monomials outside the monomial ideal the leads
    span, each monomial tested against each lead."""
    return sum(
        1 for mono in _exponents_of_degree(nvars, d)
        if not any(mono_divides(lm, mono) for lm in leads)
    )


def truncated_colength(gens, ring, n):
    """dim_K S/(J + m^N) from one grevlex run; the reference the local-order
    route is tested against."""
    leads = lead_monomial_basis(_truncation_inputs(gens, ring, n), truncate_degree=n)
    return sum(standard_count_by_scan(leads, ring.nvars, d) for d in range(n))


def _grevlex_key(expo):
    return (sum(expo), tuple(-e for e in reversed(expo)))


def reference_key(order, expo):
    """The order's comparison key written out by hand, as nested tuples."""
    if order.kind == "grevlex":
        return _grevlex_key(expo)
    if order.kind == "lex":
        return tuple(expo)
    if order.kind == "ds":
        return (-sum(expo), tuple(-e for e in reversed(expo)))
    if order.kind == "block":
        k = len(expo) - order.n_elim
        return (_grevlex_key(expo[k:]), _grevlex_key(expo[:k]))
    raise ValueError(f"no reference key for {order!r}")
