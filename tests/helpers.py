"""Reference routines that only the tests use.

The lex order, monomial divisibility on exponent tuples, a polynomial from a
non-canonical mapping, a single monomial and a lead term by the order's key
build test inputs and state expectations; the library itself needs none of
them.

The S-polynomial, a three-way order comparison, a standard-monomial count by
scanning every monomial, the grevlex truncated colength, the DS leads of a
truncated span by Gaussian elimination and the elimination along u by
dividing through its pivot coefficient check the library's results from
outside; the tuple keys below are the monomial orders written out directly,
against which the weight rows of ``symrees.polynomials`` and the packed
monomials of ``symrees.groebner`` are tested.  ``in_point_power_by_shift``
is the per-point coordinate shift that ``symrees.points`` replaced by two
passes of Hasse derivatives.  ``saturation`` and
``meets_positive_dimension`` decide an infinite local length by
eliminations, the test that ``symrees.verifier.local_length_at_origin``
replaced by comparing a colength with the Bezout bound.
"""

from math import comb

from symrees.errors import InputError, VariableMismatchError, ZeroPolynomialError
from symrees.groebner import lead_monomial_basis
from symrees.ideals import Ideal
from symrees.polynomials import DS, GREVLEX, MonomialOrder, PolyRing, Polynomial


class LexOrder(MonomialOrder):
    """Pure lexicographic on the variable list, ignoring total degree.
    Rows: e_1, ..., e_n."""

    kind = "lex"

    def weights(self, nvars):
        return tuple(tuple(int(j == i) for j in range(nvars)) for i in range(nvars))


LEX = LexOrder()


def mono_divides(a, b):
    """True when a divides b."""
    return all(x <= y for x, y in zip(a, b))


def from_dict(ring, mapping):
    """The polynomial of a possibly non-canonical exponent->scalar mapping:
    repeated exponents summed, zero scalars dropped."""
    field = ring.field
    terms = {}
    for m, c in mapping.items():
        m = tuple(m)
        if len(m) != ring.nvars:
            raise VariableMismatchError(f"exponent width {len(m)} != {ring.nvars}")
        if not field.is_zero(c):
            terms[m] = field.add(terms[m], c) if m in terms else c
            if field.is_zero(terms[m]):
                del terms[m]
    return Polynomial(ring, terms)


def monomial(ring, expo, coeff=None):
    """coeff * x^expo in the ring, the coefficient one by default."""
    expo = tuple(expo)
    if len(expo) != ring.nvars or any(e < 0 for e in expo):
        raise InputError(f"bad exponent tuple {expo} for {ring.variables}")
    c = ring.field.one if coeff is None else coeff
    if ring.field.is_zero(c):
        return ring.zero()
    return Polynomial(ring, {expo: c})


def lead_term(f, order=GREVLEX):
    """(lead monomial, lead coefficient) of a nonzero polynomial."""
    if not f.terms:
        raise ZeroPolynomialError("the zero polynomial has no lead term")
    m = max(f.terms, key=order.key)
    return m, f.terms[m]


def s_polynomial(f, g, order=GREVLEX):
    """(lcm/lt f)*f - (lcm/lt g)*g; the lead terms cancel by construction."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("S-polynomial of a zero polynomial")
    if f.ring != g.ring:
        raise VariableMismatchError("S-polynomial operands over different rings")
    ring = f.ring
    field = ring.field
    lmf, lcf = lead_term(f, order)
    lmg, lcg = lead_term(g, order)
    l = tuple(map(max, lmf, lmg))
    mf = monomial(ring, tuple(a - b for a, b in zip(l, lmf)), field.inv(lcf))
    mg = monomial(ring, tuple(a - b for a, b in zip(l, lmg)), field.inv(lcg))
    return mf * f - mg * g


def compare(order, a, b):
    """-1, 0 or 1 as a <, =, > b under the order."""
    if len(a) != len(b):
        raise VariableMismatchError("monomials over different variable lists")
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def exponents_of_degree(nvars, d):
    """Exponent tuples of total degree d, in descending lex order."""
    if nvars == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in exponents_of_degree(nvars - 1, d - e):
            yield (e,) + rest


def standard_count_by_scan(leads, nvars, d):
    """Number of degree-d monomials outside the monomial ideal the leads
    span, each monomial tested against each lead."""
    return sum(
        1 for mono in exponents_of_degree(nvars, d)
        if not any(mono_divides(lm, mono) for lm in leads)
    )


def with_truncation_monomials(gens, ring, n):
    """The generators of J followed by every monomial of degree n: J + m^n."""
    return list(gens) + [monomial(ring, e) for e in exponents_of_degree(ring.nvars, n)]


def truncated_colength(gens, ring, n):
    """dim_K S/(J + m^N) from one grevlex run on J with m^N among its
    generators, untruncated; the reference the local-order route is tested
    against."""
    leads = lead_monomial_basis(with_truncation_monomials(gens, ring, n))
    return sum(standard_count_by_scan(leads, ring.nvars, d) for d in range(n))


def local_leads_by_elimination(generators, n):
    """Minimal DS leads of the span of every x^a * g cut at degree n, for the
    generators g: the reference for
    ``lead_monomial_basis(generators, order=DS, truncate_degree=n)``.

    Each product is reduced against the rows kept so far, columns taken in
    DS order; the leads of the kept rows are the leads of the whole span."""
    ring = generators[0].ring
    field = ring.field
    rows = {}  # lead monomial -> the kept row with that lead
    for g in generators:
        terms = {m: c for m, c in g.terms.items() if sum(m) <= n}
        if not terms:
            continue
        for d in range(n - min(map(sum, terms)) + 1):
            for a in exponents_of_degree(ring.nvars, d):
                row = {tuple(i + j for i, j in zip(a, m)): c
                       for m, c in terms.items() if d + sum(m) <= n}
                while row:
                    lead = max(row, key=lambda m: reference_key(DS, m))
                    kept = rows.get(lead)
                    if kept is None:
                        rows[lead] = row
                        break
                    f = field.div(row[lead], kept[lead])
                    for m, c in kept.items():
                        v = field.sub(row.get(m, field.zero), field.mul(f, c))
                        if field.is_zero(v):
                            row.pop(m, None)
                        else:
                            row[m] = v
    return {lm for lm in rows if not any(o != lm and mono_divides(o, lm) for o in rows)}


def eliminate_by_quotient(coeffs, polys):
    """The images of the polys with the pivot variable of the linear form
    ``coeffs`` replaced by -(the rest of the form) / (its coefficient), the
    pivot chosen as in ``verifier._eliminate_along``.  Built term by term as
    monomial * expr**e in the ring of the two other variables."""
    ring = polys[0].ring
    field = ring.field
    pivot = max((i for i in range(3) if not field.is_zero(field.from_int(coeffs[i]))),
                key=lambda i: (abs(coeffs[i]), i))
    rest = [i for i in range(3) if i != pivot]
    plane = PolyRing(field, [ring.variables[i] for i in rest])
    inv = field.inv(field.from_int(coeffs[pivot]))
    expr = plane.zero()
    for name, i in zip(plane.variables, rest):
        expr = expr + plane.var(name).scale(field.mul(field.from_int(-coeffs[i]), inv))
    images = []
    for p in polys:
        image = plane.zero()
        for m, c in p.terms.items():
            image = image + monomial(plane, [m[i] for i in rest], c) * expr**m[pivot]
        images.append(image)
    return images


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


def _shift_weights(field, a, top, r):
    """weights[i][s] = C(i, s) * a^(i - s), the coefficient of V^s c^(i-s) in
    (V + a*c)^i, for i < ``top`` and s < r."""
    powers = [field.one]
    for _ in range(top):
        powers.append(field.mul(powers[-1], a))
    return [[field.mul(field.from_int(comb(i, s)), powers[i - s]) for s in range(min(i + 1, r))]
            for i in range(top)]


def in_point_power_by_shift(terms, field, point, r):
    """True iff the polynomial with ``terms`` lies in I_P^r, by the change of
    coordinates V = v - a_v*c, W = w - a_w*c that sends P to the origin of
    its chart: every term rewritten in (V, W, c) must have (V, W)-degree at
    least r.  The reference for ``symrees.points.symbolic_power_membership``."""
    coords = point.coords
    c = max(i for i in range(3) if not field.is_zero(coords[i]))
    top = 1 + max(sum(m) for m in terms)
    done = []                               # local variables already shifted
    for v in (v for v in range(3) if v != c):
        if field.is_zero(coords[v]):
            # V = v needs no shift: only the terms still below order r stay
            terms = {m: coeff for m, coeff in terms.items()
                     if m[v] <= r - 1 - sum(m[u] for u in done)}
            done.append(v)
            continue
        weights = _shift_weights(field, coords[v], top, r)
        shifted = {}
        for m, coeff in terms.items():
            i = m[v]
            room = r - 1 - sum(m[u] for u in done)   # highest V-degree still below order r
            for s in range(min(i, room) + 1):
                w = weights[i][s]
                if field.is_zero(w):
                    continue                # C(i, s) = 0 mod p
                e = list(m)
                e[v] = s
                e[c] += i - s
                e = tuple(e)
                term = field.mul(coeff, w)
                prev = shifted.get(e)
                shifted[e] = term if prev is None else field.add(prev, term)
        terms = shifted
        done.append(v)
    return all(field.is_zero(coeff) for coeff in terms.values())


def saturation(I, f):
    """I : f^infinity = (I + (1 - s*f)) ∩ k[x], for one polynomial f, by one
    elimination."""
    if f.ring != I.ring:
        raise VariableMismatchError("saturation over different rings")
    return I._eliminate(
        lambda ext, s: [g.lift(ext) for g in I.generators] + [ext.one() - s * f.lift(ext)])


def meets_positive_dimension(J: Ideal) -> bool:
    """True iff a positive-dimensional component (embedded or not) of V(J)
    passes through the origin, i.e. iff the local length there is infinite.

    That is when the origin lies in V(J : m^infinity).  Since J : m^infinity
    is the intersection of the J : v^infinity over the variables v and
    V(A ∩ B) = V(A) ∪ V(B), it holds iff for some v the saturation
    J : v^infinity lies in m.  A zero-dimensional J never meets one."""
    if J.krull_dimension() < 1:
        return False
    ring = J.ring
    for v in ring.variables:
        sat = saturation(J, ring.var(v))
        if all(ring.field.is_zero(p.constant_term()) for p in sat.generators):
            return True
    return False
