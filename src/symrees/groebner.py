"""Buchberger's algorithm: normal forms and reduced Groebner bases.

Inside the engine a monomial is one Python int (``_Packing``): the order key
in the high bits, the exponents and the total degree in guarded fixed-width
fields in the low bits.  A term is a ``(monomial, scalar)`` pair and a
polynomial a list of terms in descending order.  Comparing two monomials is
comparing two ints, multiplying by a monomial is one addition, and testing
divisibility is one subtraction and one mask.  Exponent tuples are packed
when a computation starts and unpacked only in its results.  Every monomial
a computation keeps has total degree at most ``MAX_DEGREE``; one that would
go past it raises BudgetExceededError instead of wrapping a field.

Coefficient growth over Q and Q(zeta_n) is tamed by rescaling every new basis
element to integer content 1 with a positive rational-integer lead
coefficient.  Over Q(zeta_n) that takes one more step: integer content cannot
remove a unit or other algebraic-integer factor of the lead, which the
cross-multiplication in ``_reduce`` would otherwise carry into every later
reduction, so the element is multiplied by the product of the lead's other
conjugates, which takes the lead to its norm, a positive rational integer
(``Field.rationalizing_factor``), before the content is stripped again.  A
rational lead below zero is negated: a lead of -1 would make ``_reduce``
multiply the remainder and the rest of the work list by -1 at every step
against it, where a lead of 1 scales nothing.
Prime-field runs make elements monic instead.

One division loop, ``_reduce``, serves S-pair reduction, interreduction and
``normal_form``.  It returns only the remainder; no caller needs quotients
(intersection is an elimination, see ``ideals``).  Against a reducer whose lead
coefficient is not one it cross-multiplies rather than divides, which leaves
the remainder right up to a nonzero scalar and keeps char-0 coefficients
integral.  ``normal_form`` makes its divisors monic first, so there it never
scales and returns the exact remainder.

Under a global order the remainder is fully reduced.  Under a local order it
is a weak normal form: the loop stops at the first term no lead divides and
keeps the rest of the work list as it stands.  The standard-basis algorithm
needs no more (Greuel-Pfister, A Singular Introduction to Commutative
Algebra, 1.6): an element joins the basis for its lead alone, and the
truncated runs read only leads.  Under a truncation the tails reach degree
N', so reducing them was most of a run's cost.  Global orders keep full
reduction: interreduction needs it, and a lead-only remainder in their
S-pair loop made the symbolic-power eliminations slower, not faster.

``truncate_degree=N`` drops every term of total degree > N, and it is taken
under the local degree order DS alone, which in turn needs it: the cap is what
leaves finitely many live monomials, so that reduction terminates.  The run
computes in S/m^(N+1), exact for any generators: a lead is among its element's
lowest-degree terms, so the S-polynomial with a monomial of degree N + 1 has
no term left.  Its leads and m^(N+1) span the initial ideal of J + m^(N+1), J
the generators' ideal; a J inside m^(N+1) leaves no lead.  The run also ends
at its first covered degree: under DS no term of a pair's S-polynomial or of
its reduction has degree below the pair's lcm, so once the leads cover every
monomial of degree c, no pair of lcm degree >= c can add a lead.  No pair past
N + 1 is queued, and the run stops when the heap's least lcm degree is
covered; the minimal leads are those of the full run.  ``standard_count``, the
staircase count of standard monomials of one degree, decides coverage here,
gives the colengths in ``verifier``, and gives the colength and the Hilbert
multiplicity in ``ideals``; it is the package's one counter of standard
monomials.
"""

from __future__ import annotations

import bisect
import heapq
import operator

from .errors import (
    BudgetExceededError,
    EmptyIdealError,
    InputError,
    VariableMismatchError,
    ZeroPolynomialError,
)
from .polynomials import GREVLEX, Polynomial

EXP_BITS = 16                             # width of each exponent and degree field
MAX_DEGREE = (1 << (EXP_BITS - 1)) - 1    # the top bit of an exponent field is its guard


class GroebnerBasis:
    """A reduced Groebner basis: monic, interreduced, sorted by lead monomial."""

    __slots__ = ("ring", "order", "polynomials", "lead_monomials")

    def __init__(self, ring, order, polynomials, lead_monomials):
        self.ring = ring
        self.order = order
        self.polynomials = tuple(polynomials)
        self.lead_monomials = tuple(lead_monomials)

    def __iter__(self):
        return iter(self.polynomials)

    def __len__(self):
        return len(self.polynomials)

    def is_unit(self):
        return len(self.polynomials) == 1 and self.polynomials[0].is_constant()

    def __repr__(self):
        return f"GroebnerBasis({self.order!r}, {len(self.polynomials)} elements)"


class _Packing:
    """The monomials of one computation (ring, order and degree cap) as ints.

    Fields, from the low bits up: the n exponents and the total degree,
    EXP_BITS wide each, then one field of EXP_BITS + 1 bits per weight row of
    the order, the first row highest, holding the row's dot product plus
    2^EXP_BITS.  Packing is linear up to that offset, ``zero`` = pack(1), so
    pack(a*b) = pack(a) + pack(b) - zero, pack(a) - pack(b) is the shift that
    multiplies by a/b, and comparing packed ints compares the order keys (the
    low fields break no tie: equal keys mean equal monomials).

    A kept monomial has degree <= MAX_DEGREE, so the top bit of each of its
    exponent fields is clear.  In m - lm a field where lm exceeds m borrows
    and sets that bit, so lm divides m iff (m - lm) & guard == 0.  A product
    or lcm of two kept monomials has degree <= 2 * MAX_DEGREE and still fits
    every field (weight rows have entries in {-1, 0, 1}), so the degree
    compare that drops or rejects it reads its true degree.
    """

    __slots__ = ("nvars", "cap", "local", "zero", "units", "guard", "deg_mask", "top")

    def __init__(self, order, nvars, cap=None):
        if cap is not None and cap > MAX_DEGREE:
            raise BudgetExceededError(
                f"truncation degree {cap} exceeds the packed degree limit {MAX_DEGREE}")
        w = EXP_BITS
        rows = order.weights(nvars)
        low = (nvars + 1) * w
        places = [low + (w + 1) * (len(rows) - 1 - r) for r in range(len(rows))]
        self.nvars = nvars
        self.cap = cap
        self.local = order.is_local
        self.zero = sum(1 << (p + w) for p in places)
        self.units = tuple(
            (1 << (i * w)) + (1 << (nvars * w)) + sum(row[i] << p for row, p in zip(rows, places))
            for i in range(nvars)
        )
        self.guard = sum(1 << (i * w + w - 1) for i in range(nvars))
        self.deg_mask = ((1 << w) - 1) << (nvars * w)
        self.top = (MAX_DEGREE if cap is None else cap) << (nvars * w)

    def pack(self, expo):
        return self.zero + sum(map(operator.mul, expo, self.units))

    def unpack(self, m):
        w, mask = EXP_BITS, (1 << EXP_BITS) - 1
        return tuple((m >> (i * w)) & mask for i in range(self.nvars))


def _too_high():
    """The error for a monomial past MAX_DEGREE in a run without a cap."""
    return BudgetExceededError(
        f"a monomial of degree above {MAX_DEGREE} overflows the packed exponent fields")


def _prepare(poly, pk):
    """Descending packed term list; under a cap, terms of degree > cap are dropped."""
    items = []
    for m, c in poly.terms.items():
        d = sum(m)
        if pk.cap is not None and d > pk.cap:
            continue
        if d > MAX_DEGREE:
            raise _too_high()
        items.append((pk.pack(m), c))
    items.sort(key=operator.itemgetter(0), reverse=True)
    return items


def _shifted(terms, shift, pk, scale=None, field=None):
    """Descending list of the terms times the monomial shift, optionally
    scaled; past the cap a term is dropped, past MAX_DEGREE it raises."""
    out = []
    deg, top = pk.deg_mask, pk.top
    for m, c in terms:
        mm = m + shift
        if mm & deg > top:
            if pk.cap is None:
                raise _too_high()
            continue
        out.append((mm, c if scale is None else field.mul(scale, c)))
    return out


def _merge(a, b, field):
    """Sum of two descending term lists."""
    out = []
    ia = ib = 0
    na, nb = len(a), len(b)
    add, is_zero = field.add, field.is_zero
    while ia < na and ib < nb:
        ma, ca = a[ia]
        mb, cb = b[ib]
        if ma > mb:
            out.append(a[ia])
            ia += 1
        elif mb > ma:
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
    """A degree cap goes with a local order and with no other.  Reduction
    under a local order terminates only below a cap.  Under a global order a
    tail can lie below its lead's degree, so dropping the terms past a cap
    gives wrong leads."""
    if order.is_local and cap is None:
        raise InputError(f"the local order {order!r} needs a truncate_degree")
    if cap is not None and not order.is_local:
        raise InputError(f"the global order {order!r} takes no truncate_degree")


def _reduce(terms, reducers, field, pk):
    """Normal form of a descending term list against prepared reducers.

    ``reducers`` holds triples (lead_mono, lead_coeff, term_list).  A term is
    cancelled by cross-multiplication: when the reducer's lead coefficient is
    not one, the partial remainder and the rest of the work list are
    multiplied by it instead of dividing by it, so rational and cyclotomic
    runs stay in integer coordinates (content is stripped every 8 scalings).
    The result is then the normal form up to a nonzero scalar, which is all
    S-polynomial reduction and interreduction need.  Against monic reducers
    nothing is scaled and the result is the exact remainder.

    A term's divisor is the first reducer in the list whose lead divides it;
    under a truncation ``_completed_basis`` lists them by term count, so that
    is the shortest.  Under a local order (``pk.local``) the loop stops at the
    first term no reducer lead divides and returns it with the unreduced rest
    of the work list: a weak normal form.  Its lead monomial is that of the
    full remainder, since full reduction never changes a term once it has
    passed into the remainder, other than by a scalar.
    """
    rem = []
    work = terms
    start = 0
    one = field.one
    mul, neg = field.mul, field.neg
    char0 = field.characteristic == 0
    scalings = 0
    guard, local = pk.guard, pk.local
    while start < len(work):
        m, c = work[start]
        for red in reducers:
            if not (m - red[0]) & guard:
                break
        else:
            if local:
                return work[start:]  # rem is empty: a weak normal form
            rem.append(work[start])
            start += 1
            continue
        lm, lc, gterms = red
        if len(gterms) == 1:
            start += 1  # the term is a multiple of a monomial generator: it just dies
            continue
        tail = work[start + 1:]
        if lc != one:
            rem = [(mm, mul(cc, lc)) for mm, cc in rem]
            tail = [(mm, mul(cc, lc)) for mm, cc in tail]
            scalings += 1
        sub = _shifted(gterms[1:], m - lm, pk, scale=neg(c), field=field)
        work = _merge(tail, sub, field)
        start = 0
        if char0 and scalings >= 8:
            scalings = 0
            combined = field.rescale_terms(rem + work)
            rem = combined[: len(rem)]
            work = combined[len(rem):]
    return rem


def normal_form(f, basis, order=GREVLEX):
    """Remainder of full multivariate division of f by the basis.

    The order is taken from a ``GroebnerBasis``; each divisor is made monic,
    so ``_reduce`` never scales and the remainder is exact."""
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
    pk = _Packing(order, f.ring.nvars)
    reducers = []
    for p in polys:
        items = _prepare(p, pk)
        if items[0][1] != one:
            inv = field.inv(items[0][1])
            items = [(m, mul(c, inv)) for m, c in items]
        reducers.append((items[0][0], one, items))
    rem = _reduce(_prepare(f, pk), reducers, field, pk)
    return Polynomial(f.ring, {pk.unpack(m): c for m, c in rem})


def _normalize_element(items, field):
    """Monic mod p; in characteristic 0 integral with content 1 and a
    positive rational-integer lead coefficient."""
    if field.characteristic:
        lc = items[0][1]
        if lc != 1:
            inv = field.inv(lc)
            p = field.characteristic
            items = [(m, c * inv % p) for m, c in items]
        return items
    items = field.rescale_terms(items)
    scale = field.rationalizing_factor(items[0][1])
    if scale is not None:
        mul = field.mul
        items = field.rescale_terms([(m, mul(c, scale)) for m, c in items])
    if items[0][1] < field.zero:  # a Q(zeta_n) tuple compares on its rational coordinate
        neg = field.neg
        items = [(m, neg(c)) for m, c in items]
    return items


def standard_count(leads, nvars, d):
    """Number of degree-d monomials outside the monomial ideal the leads span.

    Read off the staircase: in two variables x^i y^(d-i) is a multiple of
    x^a y^b exactly when a <= i <= d - b, so the count is d + 1 less the size
    of the union of those intervals.  With more variables each exponent e of
    the first one is fixed in turn, leaving the leads whose first exponent
    is at most e."""
    if nvars > 2:
        return sum(standard_count([lm[1:] for lm in leads if lm[0] <= e], nvars - 1, d - e)
                   for e in range(d + 1))
    if nvars == 1:
        return 0 if any(lm[0] <= d for lm in leads) else 1
    covered, reach = 0, -1
    for lo, hi in sorted((a, d - b) for a, b in leads if a + b <= d):
        lo = max(lo, reach + 1)
        if hi >= lo:
            covered += hi - lo + 1
            reach = hi
    return d + 1 - covered


def _completed_basis(generators, order, cap):
    """Run Buchberger to completion; returns (ring, field, packing, basis)
    where basis entries are (lead_mono, lead_coeff, terms) and every S-pair
    reduces to zero.  Not yet minimal or interreduced.  A cap comes with a
    local order (``_check_order``); when it drops every term the basis is
    empty.

    Under the local order every term of an S-polynomial, and of each reduction
    step after it, has degree at least that of the pair's lcm, since a lead
    is among the lowest-degree terms.  So once the leads cover every monomial
    of some degree c, every pair of lcm degree >= c reduces to zero.  No
    pair of lcm degree past the cap is queued: every term there drops.  Pairs
    pop in non-decreasing lcm degree, so the run ends as soon as the leads,
    the generators' own or later ones, cover the degree of the heap's minimum.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise EmptyIdealError("all generators are zero")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise VariableMismatchError("generators over different rings")
    _check_order(order, cap)
    field = ring.field
    pk = _Packing(order, ring.nvars, cap)

    prepared = []
    for g in gens:
        items = _prepare(g, pk)
        if items:
            prepared.append(_normalize_element(items, field))
    # canonical tie-break so the initial basis never depends on input order
    prepared.sort()
    deduped = [it for k, it in enumerate(prepared) if not k or it != prepared[k - 1]]

    local = order.is_local
    basis = []       # (lead_mono, lead_coeff, terms)
    # under a truncation _reduce gets the same entries by term count, so the
    # first divisor it finds is the shortest
    by_length = [] if local else basis
    exponents = []   # the lead exponent tuples, for the lcms
    pending = set()  # unordered index pairs awaiting treatment
    heap = []        # (degree field of the lcm, lcm, i, j)
    pack, unpack, zero = pk.pack, pk.unpack, pk.zero
    guard, deg = pk.guard, pk.deg_mask
    nvars, shift = ring.nvars, ring.nvars * EXP_BITS
    # degree field of cap + 1: past it every term drops, so no pair is queued
    cut = (cap + 1) << shift if local else deg + 1

    def add_element(items):
        lm = items[0][0]
        e = unpack(lm)
        j = len(basis)
        entry = (lm, items[0][1], items)
        basis.append(entry)
        if local:
            bisect.insort(by_length, entry, key=lambda b: len(b[2]))
        for i in range(j):
            l = pack(map(max, exponents[i], e))
            if l & deg < cut:
                heapq.heappush(heap, (l & deg, l, i, j))
                pending.add((i, j))
        exponents.append(e)

    for items in deduped:
        add_element(items)

    current = None   # degree field of the lcms being popped
    while heap:
        if local and heap[0][0] != current:
            current = heap[0][0]
            if not standard_count(exponents, nvars, current >> shift):
                break  # c drops to the heap's minimum: every pair left reduces to zero
        _, l, i, j = heapq.heappop(heap)
        pending.remove((i, j))
        lmi, lci, ti = basis[i]
        lmj, lcj, tj = basis[j]
        if len(ti) == 1 and len(tj) == 1:
            continue  # S-polynomial of two monomials is identically zero
        # product criterion: coprime lead monomials reduce to zero
        if l == lmi + lmj - zero:
            continue
        # chain criterion: a third lead divides the lcm and both side pairs
        # have already been treated
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if not (l - basis[k][0]) & guard:
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        if lcj == field.one:
            left = _shifted(ti, l - lmi, pk)
        else:
            left = _shifted(ti, l - lmi, pk, scale=lcj, field=field)
        right = _shifted(tj, l - lmj, pk, scale=field.neg(lci), field=field)
        s = _merge(left, right, field)
        rem = _reduce(s, by_length, field, pk)
        if rem:
            add_element(_normalize_element(rem, field))
    return ring, field, pk, basis


def _minimalize_basis(basis, pk):
    """Drop elements whose lead is divisible by another lead."""
    deg, guard = pk.deg_mask, pk.guard
    basis = sorted(basis, key=lambda b: (b[0] & deg, b[0]))
    minimal = []
    for entry in basis:
        lm = entry[0]
        if all((lm - kept[0]) & guard for kept in minimal):
            minimal.append(entry)
    return minimal


def lead_monomial_basis(generators, order=GREVLEX, truncate_degree=None):
    """Minimal generating monomials of the lead-term ideal, skipping the tail
    interreduction a reduced basis would pay for; enough for dimension and
    standard-monomial counting."""
    _, _, pk, basis = _completed_basis(generators, order, truncate_degree)
    return tuple(pk.unpack(b[0]) for b in _minimalize_basis(basis, pk))


def reduced_groebner_basis(generators, order=GREVLEX):
    """The unique reduced Groebner basis of the ideal the generators span.

    Pair selection follows the normal strategy (smallest lcm first) with
    Buchberger's product and chain criteria.  Deterministic: the result is
    independent of generator permutation.
    """
    ring, _, pk, basis = _completed_basis(generators, order, None)
    return _interreduced_basis(ring, order, pk, _minimalize_basis(basis, pk))


def _interreduced_basis(ring, order, pk, minimal):
    """The reduced basis of the ideal the minimal elements span, when they
    are a minimal Groebner basis of it: tails interreduced, monic, unpacked.

    One pass: no lead monomial changes, so a tail reduced against the leads
    stays reduced."""
    field = ring.field
    for idx in range(len(minimal)):
        items = minimal[idx][2]
        others = minimal[:idx] + minimal[idx + 1:]
        red = _reduce(items, others, field, pk)
        if red != items:
            red = _normalize_element(red, field)
            minimal[idx] = (red[0][0], red[0][1], red)

    minimal.sort(key=operator.itemgetter(0))
    final = []
    for lm, lc, items in minimal:
        if lc != field.one:
            inv = field.inv(lc)
            mul = field.mul
            items = [(m, mul(c, inv)) for m, c in items]
        final.append(Polynomial(ring, {pk.unpack(m): c for m, c in items}))
    return GroebnerBasis(ring, order, final, (pk.unpack(b[0]) for b in minimal))
