"""Buchberger's algorithm: S-polynomials, normal forms, reduced Groebner bases.

The engine works on plain term lists (exponent tuple, scalar) sorted in
descending monomial order, with a per-computation key cache so order keys are
built once per monomial.  Coefficient growth over Q and Q(zeta_n) is tamed by
rescaling every new basis element to integer content 1; prime-field runs make
elements monic instead.

One division loop, ``_reduce``, serves S-pair reduction, interreduction and
the normal forms.  Against a reducer whose lead coefficient is not one it
cross-multiplies rather than divides, which leaves the remainder right up to
a nonzero scalar and keeps char-0 coefficients integral.  The normal forms
make their divisors monic first, so there it never scales and returns the
exact remainder.

``truncate_degree=N`` silently drops every term of total degree > N.  That is
only sound when the generators include all monomials of degree exactly N (the
drop is then an exact division step against one of them), which is how the
length computations arrange their m-adic truncations.  A local order (DS) is
accepted only with a truncation: the cap is what leaves finitely many live
monomials, so that reduction terminates and the result is a standard basis of
the m-primary ideal.
"""

from __future__ import annotations

import heapq

from .errors import EmptyIdealError, InputError, VariableMismatchError, ZeroPolynomialError
from .polynomials import (
    GREVLEX,
    Polynomial,
    mono_degree,
    mono_divides,
    mono_lcm,
)


class GroebnerBasis:
    """A reduced Groebner basis: monic, interreduced, sorted by lead monomial."""

    __slots__ = ("ring", "order", "polynomials", "lead_monomials")

    def __init__(self, ring, order, polynomials):
        self.ring = ring
        self.order = order
        self.polynomials = tuple(polynomials)
        self.lead_monomials = tuple(p.lead_term(order)[0] for p in self.polynomials)

    def __iter__(self):
        return iter(self.polynomials)

    def __len__(self):
        return len(self.polynomials)

    def is_unit(self):
        return len(self.polynomials) == 1 and self.polynomials[0].is_constant()

    def reduce(self, f):
        return normal_form(f, self, self.order)

    def contains(self, f):
        return self.reduce(f).is_zero()

    def __repr__(self):
        return f"GroebnerBasis({self.order!r}, {len(self.polynomials)} elements)"


def _key_cache(order):
    cache = {}
    okey = order.key

    def key(m):
        k = cache.get(m)
        if k is None:
            k = okey(m)
            cache[m] = k
        return k

    return key


def _prepare(poly, key, cap=None):
    """Descending term list; with a cap, terms of degree > cap are dropped."""
    items = poly.terms.items()
    if cap is not None:
        items = [(m, c) for m, c in items if sum(m) <= cap]
    return sorted(items, key=lambda t: key(t[0]), reverse=True)


def _shifted(terms, shift, key, cap, scale=None, field=None):
    """Descending list of x^shift * terms, optionally scaled, cap-filtered."""
    out = []
    for m, c in terms:
        mm = tuple(a + b for a, b in zip(m, shift))
        if cap is not None and sum(mm) > cap:
            continue
        out.append((mm, c if scale is None else field.mul(scale, c)))
    return out


def _merge(a, b, field, key):
    """Sum of two descending term lists."""
    out = []
    ia = ib = 0
    na, nb = len(a), len(b)
    add, is_zero = field.add, field.is_zero
    while ia < na and ib < nb:
        ma, ca = a[ia]
        mb, cb = b[ib]
        ka, kb = key(ma), key(mb)
        if ka > kb:
            out.append(a[ia])
            ia += 1
        elif kb > ka:
            out.append(b[ib])
            ib += 1
        else:
            v = add(ca, cb)
            if not is_zero(v):
                out.append((ma, v))
            ia += 1
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return out


def _check_order(order, cap=None):
    """Reduction under a local order terminates only below a degree cap."""
    if order.is_local and cap is None:
        raise InputError(f"the local order {order!r} needs a truncate_degree")


def _reduce(terms, reducers, field, key, cap=None, events=None):
    """Normal form of a descending term list against prepared reducers.

    ``reducers`` holds triples (lead_mono, lead_coeff, term_list).  A term is
    cancelled by cross-multiplication: when the reducer's lead coefficient is
    not one, the partial remainder and the rest of the work list are
    multiplied by it instead of dividing by it, so rational and cyclotomic
    runs stay in integer coordinates (content is stripped every 8 scalings).
    The result is then the normal form up to a nonzero scalar, which is all
    S-polynomial reduction and interreduction need.  Against monic reducers
    nothing is scaled and the result is the exact remainder; only then may
    ``events`` be a list, which records every division step as
    (reducer_index, shift, factor) so quotients can be reconstructed.
    """
    rem = []
    work = terms
    start = 0
    one = field.one
    mul, neg = field.mul, field.neg
    char0 = field.characteristic == 0
    scalings = 0
    while start < len(work):
        m, c = work[start]
        hit = -1
        for idx, red in enumerate(reducers):
            lm = red[0]
            ok = True
            for x, y in zip(lm, m):
                if x > y:
                    ok = False
                    break
            if ok:
                hit = idx
                break
        if hit < 0:
            rem.append(work[start])
            start += 1
            continue
        lm, lc, gterms = reducers[hit]
        if events is not None:
            events.append((hit, tuple(x - y for x, y in zip(m, lm)), c))
        if len(gterms) == 1:
            start += 1  # the term is a multiple of a monomial generator: it just dies
            continue
        shift = tuple(x - y for x, y in zip(m, lm))
        tail = work[start + 1:]
        if lc != one:
            rem = [(mm, mul(cc, lc)) for mm, cc in rem]
            tail = [(mm, mul(cc, lc)) for mm, cc in tail]
            scalings += 1
        sub = _shifted(gterms[1:], shift, key, cap, scale=neg(c), field=field)
        work = _merge(tail, sub, field, key)
        start = 0
        if char0 and scalings >= 8:
            scalings = 0
            combined = field.rescale_terms(rem + work)
            rem = combined[: len(rem)]
            work = combined[len(rem):]
    return rem


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
    l = mono_lcm(lmf, lmg)
    mf = ring.monomial(tuple(a - b for a, b in zip(l, lmf)), field.inv(lcf))
    mg = ring.monomial(tuple(a - b for a, b in zip(l, lmg)), field.inv(lcg))
    return mf * f - mg * g


def _monic_reducers(basis, order):
    """Division setup shared by the normal forms: the divisors validated, the
    order taken from a ``GroebnerBasis``, and each divisor made monic so that
    ``_reduce`` never scales.  Returns (key, reducers, inverses), where
    inverses[i] is 1/lc of the i-th divisor, or None when it was monic."""
    polys = basis.polynomials if isinstance(basis, GroebnerBasis) else list(basis)
    if not polys:
        raise InputError("division needs a nonempty basis")
    if any(p.is_zero() for p in polys):
        raise ZeroPolynomialError("division by a zero polynomial")
    if isinstance(basis, GroebnerBasis):
        order = basis.order
    _check_order(order)
    field = polys[0].ring.field
    one, mul = field.one, field.mul
    key = _key_cache(order)
    reducers, inverses = [], []
    for p in polys:
        items = _prepare(p, key)
        inv = None
        if items[0][1] != one:
            inv = field.inv(items[0][1])
            items = [(m, mul(c, inv)) for m, c in items]
        reducers.append((items[0][0], one, items))
        inverses.append(inv)
    return key, reducers, inverses


def normal_form(f, basis, order=GREVLEX):
    """Remainder of full multivariate division of f by the basis."""
    key, reducers, _ = _monic_reducers(basis, order)
    rem = _reduce(_prepare(f, key), reducers, f.ring.field, key)
    return Polynomial(f.ring, dict(rem))


def normal_form_with_quotients(f, basis, order=GREVLEX):
    """(quotients, remainder) with f = sum(q_i * g_i) + remainder."""
    key, reducers, inverses = _monic_reducers(basis, order)
    ring = f.ring
    field = ring.field
    events = []
    rem = _reduce(_prepare(f, key), reducers, field, key, events=events)
    quots = [dict() for _ in reducers]
    for idx, shift, factor in events:
        q = quots[idx]
        if shift in q:
            s = field.add(q[shift], factor)
            if field.is_zero(s):
                del q[shift]
            else:
                q[shift] = s
        else:
            q[shift] = factor
    # the recorded steps divided by g_i / lc_i, not by g_i
    for q, inv in zip(quots, inverses):
        if inv is not None:
            for shift in q:
                q[shift] = field.mul(q[shift], inv)
    return [Polynomial(ring, q) for q in quots], Polynomial(ring, dict(rem))


def divide_exact(f, g):
    """f / g when the division is exact; raises otherwise."""
    if f.is_zero():
        return f
    quots, rem = normal_form_with_quotients(f, [g], GREVLEX)
    if not rem.is_zero():
        raise InputError("division is not exact")
    return quots[0]


def _poly_sort_key(items, key):
    # canonical tie-break so the initial basis never depends on input order
    return tuple((key(m), c) for m, c in items)


def _normalize_element(items, field):
    """Content normalization: integer-primitive in characteristic 0, monic mod p."""
    if field.characteristic:
        lc = items[0][1]
        if lc != 1:
            inv = field.inv(lc)
            p = field.characteristic
            items = [(m, c * inv % p) for m, c in items]
        return items
    return field.rescale_terms(items)


def _completed_basis(generators, order, cap):
    """Run Buchberger to completion; returns (ring, field, key, basis) where
    basis entries are (lead_mono, lead_coeff, terms) and every S-pair reduces
    to zero.  Not yet minimal or interreduced."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise EmptyIdealError("all generators are zero")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise VariableMismatchError("generators over different rings")
    _check_order(order, cap)
    field = ring.field
    key = _key_cache(order)

    prepared = []
    for g in gens:
        items = _prepare(g, key, cap)
        if items:
            prepared.append(_normalize_element(items, field))
    if not prepared:
        raise EmptyIdealError("all generators vanished under the degree cap")
    prepared.sort(key=lambda it: _poly_sort_key(it, key))
    deduped = [prepared[0]]
    for it in prepared[1:]:
        if it != deduped[-1]:
            deduped.append(it)

    basis = []       # (lead_mono, lead_coeff, terms)
    pending = set()  # unordered index pairs awaiting treatment
    heap = []

    def add_element(items):
        lm = items[0][0]
        j = len(basis)
        basis.append((lm, items[0][1], items))
        for i in range(j):
            l = mono_lcm(basis[i][0], lm)
            heapq.heappush(heap, (mono_degree(l), key(l), i, j))
            pending.add((i, j))

    for items in deduped:
        add_element(items)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lmi, lci, ti = basis[i]
        lmj, lcj, tj = basis[j]
        if len(ti) == 1 and len(tj) == 1:
            continue  # S-polynomial of two monomials is identically zero
        l = mono_lcm(lmi, lmj)
        # product criterion: coprime lead monomials reduce to zero
        if all(a + b == c for a, b, c in zip(lmi, lmj, l)):
            continue
        # chain criterion: a third lead divides the lcm and both side pairs
        # have already been treated
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if mono_divides(basis[k][0], l):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        ui = tuple(a - b for a, b in zip(l, lmi))
        uj = tuple(a - b for a, b in zip(l, lmj))
        if lcj == field.one:
            left = _shifted(ti, ui, key, cap)
        else:
            left = _shifted(ti, ui, key, cap, scale=lcj, field=field)
        right = _shifted(tj, uj, key, cap, scale=field.neg(lci), field=field)
        s = _merge(left, right, field, key)
        rem = _reduce(s, basis, field, key, cap)
        if rem:
            add_element(_normalize_element(rem, field))
    return ring, field, key, basis


def _minimalize_basis(basis, key):
    """Drop elements whose lead is divisible by another lead."""
    basis = sorted(basis, key=lambda b: (mono_degree(b[0]), key(b[0])))
    minimal = []
    for lm, lc, items in basis:
        if not any(mono_divides(kept[0], lm) for kept in minimal):
            minimal.append((lm, lc, items))
    return minimal


def lead_monomial_basis(generators, order=GREVLEX, truncate_degree=None):
    """Minimal generating monomials of the lead-term ideal, skipping the tail
    interreduction a reduced basis would pay for; enough for dimension and
    standard-monomial counting."""
    _, _, key, basis = _completed_basis(generators, order, truncate_degree)
    return tuple(b[0] for b in _minimalize_basis(basis, key))


def reduced_groebner_basis(generators, order=GREVLEX, truncate_degree=None):
    """The unique reduced Groebner basis of the ideal the generators span.

    Pair selection follows the normal strategy (smallest lcm first) with
    Buchberger's product and chain criteria.  Deterministic: the result is
    independent of generator permutation.
    """
    cap = truncate_degree
    ring, field, key, basis = _completed_basis(generators, order, cap)
    minimal = _minimalize_basis(basis, key)

    # interreduce tails until stable
    changed = True
    while changed:
        changed = False
        for idx in range(len(minimal)):
            items = minimal[idx][2]
            others = minimal[:idx] + minimal[idx + 1:]
            red = _reduce(items, others, field, key, cap)
            if red != items:
                red = _normalize_element(red, field)
                minimal[idx] = (red[0][0], red[0][1], red)
                changed = True

    final = []
    for lm, lc, items in minimal:
        lc = items[0][1]
        if lc != field.one:
            inv = field.inv(lc)
            mul = field.mul
            items = [(m, mul(c, inv)) for m, c in items]
        final.append(Polynomial(ring, dict(items)))
    final.sort(key=lambda p: key(p.lead_term(order)[0]))
    return GroebnerBasis(ring, order, final)
