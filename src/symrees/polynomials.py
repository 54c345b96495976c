"""Sparse multivariate polynomials over an exact field, plus monomial orders.

Monomials are bare exponent tuples over the ring's variable list.
Polynomials are immutable by convention: ``terms`` maps exponent tuples to
nonzero scalars and is never mutated after construction.
"""

from __future__ import annotations

import functools
import operator

from .errors import (
    FieldMismatchError,
    InputError,
    VariableMismatchError,
    ZeroPolynomialError,
)

# --- monomial orders -----------------------------------------------------------

class MonomialOrder:
    """Total multiplicative order on exponent tuples, given by integer weight rows.

    ``weights(nvars)`` returns rows with entries in {-1, 0, 1}: a > b when a
    has the larger dot product with the first row on which the two differ.
    ``key`` is that tuple of dot products, and the Groebner engine packs the
    same rows into its integer monomials, so the order is defined once.

    Global orders (grevlex, block) are well-orders with 1 minimal.  A
    local order (``is_local``, here only DS) has 1 maximal: it is a well-order
    only on the finitely many monomials below a degree bound, so Groebner
    computations accept it only together with ``truncate_degree``, and
    ``truncate_degree`` only with it.
    """

    kind = "?"
    is_local = False

    def weights(self, nvars):
        raise NotImplementedError

    def key(self, expo):
        return tuple([sum(map(operator.mul, row, expo)) for row in _weight_rows(self, len(expo))])

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items(), key=repr))))

    def __repr__(self):
        return self.kind


@functools.lru_cache(maxsize=None)
def _weight_rows(order, nvars):
    return order.weights(nvars)


def _unit_row(nvars, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(nvars))


def _graded_rows(nvars, sign):
    """The total degree times ``sign``, then the exponents from the last
    variable on, negated.  The first variable gets no row: the others and the
    degree determine it."""
    if not nvars:
        return ()
    return (tuple([sign] * nvars),) + tuple(
        _unit_row(nvars, i, -1) for i in range(nvars - 1, 0, -1))


class GrevlexOrder(MonomialOrder):
    """Graded reverse lexicographic; with variables (x, y, z) one has x > y > z.
    Rows: the degree, then -e_n, ..., -e_2."""

    kind = "grevlex"

    def weights(self, nvars):
        return _graded_rows(nvars, 1)


class BlockOrder(MonomialOrder):
    """Elimination order: the trailing ``n_elim`` variables dominate.

    Both blocks are compared grevlex among themselves: the grevlex rows of the
    trailing block come first, then those of the leading block.  Any monomial
    involving an elimination variable is larger than every monomial free of
    them, which is what makes a reduced basis split off the eliminated part.
    """

    kind = "block"

    def __init__(self, n_elim=1):
        if n_elim < 1:
            raise InputError("block order needs at least one elimination variable")
        self.n_elim = n_elim

    def weights(self, nvars):
        k = nvars - self.n_elim
        rows = []
        for block in (range(nvars)[k:], range(nvars)[:k]):
            for sub in _graded_rows(len(block), 1):
                row = [0] * nvars
                for i, w in zip(block, sub):
                    row[i] = w
                rows.append(tuple(row))
        return tuple(rows)

    def __repr__(self):
        return f"block({self.n_elim})"


class NegDegRevlexOrder(MonomialOrder):
    """Negative degree reverse lexicographic (Singular's ``ds``): lower total
    degree is larger, ties broken as in grevlex.  A local order, so the lead
    term of a polynomial is taken among its lowest-degree terms.  Rows: minus
    the degree, then -e_n, ..., -e_2."""

    kind = "ds"
    is_local = True

    def weights(self, nvars):
        return _graded_rows(nvars, -1)


GREVLEX = GrevlexOrder()
DS = NegDegRevlexOrder()


# --- rings and polynomials -------------------------------------------------------

class PolyRing:
    """A coefficient field together with a fixed, ordered variable tuple."""

    __slots__ = ("field", "variables")

    def __init__(self, field, variables=("x", "y", "z")):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise InputError("variable names must be distinct")
        self.field = field
        self.variables = variables

    @property
    def nvars(self):
        return len(self.variables)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def constant(self, scalar):
        if self.field.is_zero(scalar):
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: scalar})

    def from_int(self, k):
        return self.constant(self.field.from_int(k))

    def var(self, name):
        i = self.variables.index(name)
        expo = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {expo: self.field.one})

    def extend(self, *names):
        return PolyRing(self.field, self.variables + tuple(names))

    def fresh_variable_name(self, stem="s"):
        if stem not in self.variables:
            return stem
        i = 1
        while f"{stem}{i}" in self.variables:
            i += 1
        return f"{stem}{i}"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.variables)}]"


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- predicates ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def _degrees(self):
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return [sum(m) for m in self.terms]

    def total_degree(self):
        return max(self._degrees())

    def is_homogeneous(self):
        degs = self._degrees()
        return min(degs) == max(degs)

    def degree_and_homogeneity(self):
        degs = self._degrees()
        return max(degs), min(degs) == max(degs)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            if other.ring.variables != self.ring.variables:
                raise VariableMismatchError(
                    f"{other.ring.variables} vs {self.ring.variables}"
                )
            raise FieldMismatchError(f"{other.ring.field!r} vs {self.ring.field!r}")
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.ring.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            if m in terms:
                s = field.add(terms[m], c)
                if field.is_zero(s):
                    del terms[m]
                else:
                    terms[m] = s
            else:
                terms[m] = c
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.ring.field
        add, mul, is_zero = field.add, field.mul, field.is_zero
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                v = mul(ca, cb)
                if m in out:
                    v = add(out[m], v)
                    if is_zero(v):
                        del out[m]
                        continue
                out[m] = v
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def scale(self, scalar):
        field = self.ring.field
        if field.is_zero(scalar):
            return self.ring.zero()
        mul = field.mul
        return Polynomial(self.ring, {m: mul(c, scalar) for m, c in self.terms.items()})

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise InputError("exponent must be a non-negative integer")
        out = self.ring.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            if e > 1:
                base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- structure ---------------------------------------------------------------

    def sorted_terms(self, order=GREVLEX):
        key = order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def evaluate(self, values):
        """Evaluate at a full scalar tuple, one value per ring variable."""
        field = self.ring.field
        if len(values) != self.ring.nvars:
            raise VariableMismatchError("wrong number of values")
        total = field.zero
        for m, c in self.terms.items():
            v = c
            for val, e in zip(values, m):
                if e:
                    v = field.mul(v, field.pow(val, e))
            total = field.add(total, v)
        return total

    def linear_coefficients(self):
        """Coefficient tuple of a homogeneous linear form, one entry per variable."""
        deg, homog = self.degree_and_homogeneity()
        if deg != 1 or not homog:
            raise InputError("not a homogeneous linear form")
        field = self.ring.field
        out = []
        for i in range(self.ring.nvars):
            expo = tuple(1 if j == i else 0 for j in range(self.ring.nvars))
            out.append(self.terms.get(expo, field.zero))
        return tuple(out)

    # -- ring moves -------------------------------------------------------------

    def lift(self, bigger):
        """Reinterpret in an extension ring whose variables start with ours."""
        pad = bigger.nvars - self.ring.nvars
        if bigger.variables[: self.ring.nvars] != self.ring.variables or pad < 0:
            raise VariableMismatchError("target ring does not extend this one")
        zeros = (0,) * pad
        return Polynomial(bigger, {m + zeros: c for m, c in self.terms.items()})

    def restrict(self, smaller):
        """Drop trailing variables, all of which must be absent from every term."""
        k = smaller.nvars
        if self.ring.variables[:k] != smaller.variables:
            raise VariableMismatchError("target ring is not a prefix of this one")
        terms = {}
        for m, c in self.terms.items():
            if any(m[k:]):
                raise VariableMismatchError("polynomial involves a dropped variable")
            terms[m[:k]] = c
        return Polynomial(smaller, terms)

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        names = self.ring.variables
        pieces = []
        for m, c in self.sorted_terms(GREVLEX):
            vars_part = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e
            )
            if not vars_part:
                cs = field.scalar_str(c)
                piece = f"({cs})" if field.scalar_needs_parens(c) else cs
            elif field.scalar_needs_parens(c):
                piece = f"({field.scalar_str(c)})*{vars_part}"
            elif c == field.one:
                piece = vars_part
            elif c == field.neg(field.one):
                piece = "-" + vars_part
            else:
                piece = f"{field.scalar_str(c)}*{vars_part}"
            pieces.append(piece)
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self):
        return f"Polynomial({self})"
