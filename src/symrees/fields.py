"""Exact coefficient fields: Q, cyclotomic extensions Q(zeta_n), and prime fields F_p.

Scalars are plain Python values rather than wrapper objects, so the polynomial
layer can stay lightweight:

* rational mode      -- ``int`` or ``fractions.Fraction``
* cyclotomic mode    -- tuple of length phi(n) holding int/Fraction coordinates
                        with respect to 1, zeta, ..., zeta^(phi(n)-1)
* prime mode         -- ``int`` residue in [0, p)

Integers are used wherever possible (they interoperate with Fraction and are
much faster); polynomials are regularly rescaled to integer content one
elsewhere, which keeps that property alive through long reductions.

Q(zeta_n) is Galois over Q with group {sigma_k: zeta -> zeta^k, k prime to n},
so no Euclid is needed to invert in it.  For a nonzero a the product
P = prod_{k != 1} sigma_k(a) of its other conjugates gives a * P = N(a), the
norm of a: a nonzero rational, integral when a is.  Hence a^-1 = P / N(a).
For n >= 3 the field is CM (complex conjugation is sigma_(n-1) and commutes
with every sigma_k), so the conjugates pair off as sigma_k(a) and its complex
conjugate and N(a) is a product of squared absolute values: N(a) > 0, and P
is a positive multiple of a^-1.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import InputError, MissingRootsError, NoSuchRootError


def _exact_div(num, den):
    """Quotient of dense integer polynomials (constant term first); den monic."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        if c:
            out[k] = c
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Dense integer coefficients (constant first) of the n-th cyclotomic polynomial.

    Computed by the recursive quotient (t^n - 1) / prod_{d|n, d<n} Phi_d(t).
    """
    if n < 1:
        raise InputError("cyclotomic index must be a positive integer")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:  # deterministic for p < 3.3e24
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _root_of_order(n: int, p: int) -> int:
    """An element of order exactly n mod the prime p = 1 (mod n): a^((p-1)/n)
    for the least a >= 1 that gives order n.  a -> a^((p-1)/n) maps F_p^*
    onto the n-th roots of unity, and a share phi(n)/n of all a land on one
    of order n, so the search takes a few modular powers, not a scan of F_p."""
    qs = prime_divisors(n)
    a = 1
    while True:
        omega = pow(a, (p - 1) // n, p)
        if all(pow(omega, n // q, p) != 1 for q in qs):
            return omega
        a += 1


def embed_root_into_prime_field(n: int, p: int) -> int:
    """Smallest residue of multiplicative order exactly n in F_p.

    Requires p = 1 (mod n) so that the cyclic group F_p^* has an order-n
    element.  The elements of order n are the omega^k with k prime to n, for
    any one omega of them, so the least is found with n modular powers.
    """
    if n < 1:
        raise InputError("root order must be positive")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if (p - 1) % n != 0:
        raise NoSuchRootError(f"F_{p} has no element of order {n}: {p} != 1 mod {n}")
    omega = _root_of_order(n, p)
    return min(pow(omega, k, p) for k in range(1, n + 1) if gcd(k, n) == 1)


REDUCTION_PRIME_FLOOR = 1 << 30


@functools.lru_cache(maxsize=None)
def degree_one_prime(n: int):
    """(p, omega): the least prime p >= 2^30 with p = 1 (mod n), and an element
    omega of order exactly n mod p.

    omega is a root of Phi_n mod p, so zeta_n -> omega is a ring map
    Z[zeta_n] -> F_p; its kernel is a prime of Z[zeta_n] of degree one over p.
    omega is the one ``_root_of_order`` finds.
    """
    p = REDUCTION_PRIME_FLOOR + (1 - REDUCTION_PRIME_FLOOR) % n
    while not is_prime(p):
        p += n
    return p, _root_of_order(n, p)


def json_int(obj, key):
    """The JSON integer at obj[key]: a float, a string or a boolean is bad input."""
    value = obj[key]
    if type(value) is not int:
        raise InputError(f"{key!r} must be a JSON integer, not {value!r}")
    return value


class FieldSpec(namedtuple("FieldSpec", "kind n p", defaults=(None, None))):
    """Serializable description of a coefficient field: ``kind`` is "rational",
    "cyclotomic" or "prime", ``n`` the cyclotomic conductor or the root order
    a prime field carries, ``p`` the prime."""

    __slots__ = ()

    def to_json(self):
        if self.kind == "rational":
            return {"kind": "rational"}
        if self.kind == "cyclotomic":
            return {"kind": "cyclotomic", "n": self.n}
        obj = {"kind": "prime", "p": self.p}
        if self.n:
            obj["n"] = self.n
        return obj

    @staticmethod
    def from_json(obj) -> "FieldSpec":
        if not isinstance(obj, dict):
            raise InputError("a field must be a JSON object with a \"kind\"")
        kind = obj.get("kind")
        if kind == "rational":
            return FieldSpec("rational")
        if kind == "cyclotomic":
            return FieldSpec("cyclotomic", n=json_int(obj, "n"))
        if kind == "prime":
            return FieldSpec("prime", p=json_int(obj, "p"), n=json_int(obj, "n") if "n" in obj else None)
        raise InputError(f"unknown field kind {kind!r}")


class Field:
    """Shared scalar operations; subclasses fix representation and core arithmetic."""

    spec: FieldSpec
    zero = 0
    one = 1
    characteristic = 0
    galois_exponents = (1,)   # the k of the automorphisms zeta -> zeta^k; Q(zeta_n) has more

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == self.zero

    def from_int(self, k):
        raise NotImplementedError

    def from_fraction(self, q):
        raise NotImplementedError

    def pow(self, a, e):
        if e < 0:
            return self.inv(self.pow(a, -e))
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def root_of_unity(self, k):
        """A primitive k-th root of unity, or MissingRootsError."""
        raise MissingRootsError(f"{self} contains no primitive {k}-th root of unity")

    def generator(self):
        """Distinguished root of unity this field was built around, if any."""
        raise MissingRootsError(f"{self} carries no distinguished root of unity")

    def rescale_terms(self, items):
        """Content normalization hook used by the Groebner engine; identity by default."""
        return items

    def rationalizing_factor(self, a):
        """An integral scalar c with c*a a rational integer, for an integral
        nonzero a; None when a is a rational integer already, as every
        integral scalar of Q is."""
        return None

    def scalar_str(self, a) -> str:
        raise NotImplementedError

    def scalar_needs_parens(self, a) -> bool:
        return False

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"Field({self.spec.kind})"


def _num_den(x):
    if isinstance(x, int):
        return x, 1
    return x.numerator, x.denominator


def _int_content_scale(values):
    """(L, g) so that v -> v * L / g maps all values to plain ints with gcd 1,
    or None when they already are.  A Fraction with denominator 1 still needs
    the map: left in place it would keep every later operation in Fraction
    arithmetic."""
    lden = 1
    fractions = False
    for v in values:
        if isinstance(v, Fraction):
            fractions = True
            d = v.denominator
            lden = lden * d // gcd(lden, d)
    g = 0
    for v in values:
        n, d = _num_den(v)
        g = gcd(g, n * (lden // d))
        if g == 1 and not fractions:
            return None
    if not (g or fractions):
        return None
    return lden, (g or 1)


class RationalField(Field):
    spec = FieldSpec("rational")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        n, d = _num_den(a)
        return self.from_fraction(Fraction(d, n))

    def from_int(self, k):
        return k

    def from_fraction(self, q):
        return q if q.denominator != 1 else q.numerator

    def root_of_unity(self, k):
        if k == 1:
            return 1
        if k == 2:
            return -1
        raise MissingRootsError(f"Q contains no primitive {k}-th root of unity")

    def rescale_terms(self, items):
        scale = _int_content_scale([c for _, c in items])
        if scale is None:
            return items
        lden, g = scale
        out = []
        for m, c in items:
            n, d = _num_den(c)
            out.append((m, n * (lden // d) // g))
        return out

    def reduction_mod_prime(self):
        """(F_p, reduce) for the least prime p >= 2^30: ``reduce`` rescales a
        term list to coprime integers and maps it to F_p, dropping zeros."""
        p, _ = degree_one_prime(1)
        return PrimeField(p), lambda items: [
            (m, c % p) for m, c in self.rescale_terms(items) if c % p
        ]

    def scalar_str(self, a):
        return str(a)

    def __repr__(self):
        return "Q"


class CyclotomicField(Field):
    """Q(zeta_n), elements reduced modulo the n-th cyclotomic polynomial at all times."""

    def __init__(self, n: int):
        if n < 1:
            raise InputError("conductor must be a positive integer")
        self.n = n
        self.spec = FieldSpec("cyclotomic", n=n)
        phi = cyclotomic_polynomial(n)
        self.degree = len(phi) - 1
        self._phi = phi
        d = self.degree
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)
        # _red[i] represents zeta^(d+i) in the power basis; entries are integers.
        red = [tuple(-c for c in phi[:d])]
        for _ in range(d - 2):
            prev = red[-1]
            shifted = [0] + list(prev[:-1])
            top = prev[-1]
            if top:
                base = red[0]
                shifted = [s + top * b for s, b in zip(shifted, base)]
            red.append(tuple(shifted))
        self._red = red
        if d == 2:
            # quadratic extensions (n in {3, 4, 6}) carry the heavy runs;
            # closed-form arithmetic avoids the generic convolution loop
            r0, r1 = red[0]
            self.mul = self._make_mul2(r0, r1)
            self.add = lambda a, b: (a[0] + b[0], a[1] + b[1])
            self.sub = lambda a, b: (a[0] - b[0], a[1] - b[1])
            self.neg = lambda a: (-a[0], -a[1])
        # _images[k][i] is sigma_k(zeta^i) = zeta^(k*i mod n) in the power basis
        powers, gen = [self.one], self.generator()
        for _ in range(n - 1):
            powers.append(self.mul(powers[-1], gen))
        self._images = {
            k: [powers[k * i % n] for i in range(d)]
            for k in range(1, max(n, 2)) if gcd(k, n) == 1
        }
        self.galois_exponents = tuple(self._images)   # ascending, k = 1 first

    @staticmethod
    def _make_mul2(r0, r1):
        def mul2(a, b):
            a0, a1 = a
            b0, b1 = b
            t = a1 * b1
            return (a0 * b0 + r0 * t, a0 * b1 + a1 * b0 + r1 * t)

        return mul2

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        d = self.degree
        if d == 1:
            return (a[0] * b[0],)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i, ri in enumerate(self._red[k - d]):
                    if ri:
                        prod[i] += c * ri
        return tuple(prod[:d])

    def conjugate(self, a, k):
        """sigma_k(a): a with zeta replaced by zeta^k, for 1 <= k < n prime
        to n (k = 1 when n = 1)."""
        out = [0] * self.degree
        for ai, image in zip(a, self._images[k]):
            if ai:
                for j, c in enumerate(image):
                    if c:
                        out[j] += ai * c
        return tuple(out)

    def _cofactor(self, a):
        """prod_{k != 1} sigma_k(a): a times it is the norm N(a)."""
        conjugates = [self.conjugate(a, k) for k in self.galois_exponents[1:]]
        return functools.reduce(self.mul, conjugates) if conjugates else self.one

    def inv(self, a):
        """P / N(a) with P the product of the other conjugates of a (see the
        module docstring); coordinates are ints where integral."""
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        cofactor = self._cofactor(a)
        norm = self.mul(a, cofactor)
        if any(norm[1:]):
            raise ArithmeticError("the conjugates of an element multiply to an irrational norm")
        return tuple(self.from_fraction_coord(Fraction(x, norm[0])) for x in cofactor)

    @staticmethod
    def from_fraction_coord(x):
        return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x

    def from_int(self, k):
        return (k,) + (0,) * (self.degree - 1)

    def from_fraction(self, q):
        c = q.numerator if q.denominator == 1 else q
        return (c,) + (0,) * (self.degree - 1)

    def generator(self):
        d = self.degree
        if d == 1:
            return (-self._phi[0],)
        return (0, 1) + (0,) * (d - 2)

    def root_of_unity(self, k):
        n = self.n
        if k >= 1 and n % k == 0:
            return self.pow(self.generator(), n // k)
        if k >= 1 and n % 2 == 1 and (2 * n) % k == 0:
            zeta2n = self.neg(self.pow(self.generator(), (n + 1) // 2))
            return self.pow(zeta2n, (2 * n) // k)
        raise MissingRootsError(f"Q(zeta_{n}) contains no primitive {k}-th root of unity")

    def rescale_terms(self, items):
        coords = [x for _, c in items for x in c]
        scale = _int_content_scale(coords)
        if scale is None:
            return items
        lden, g = scale
        out = []
        for m, c in items:
            vec = []
            for x in c:
                n, d = _num_den(x)
                vec.append(n * (lden // d) // g)
            out.append((m, tuple(vec)))
        return out

    def rationalizing_factor(self, a):
        """The product of the other conjugates of a at integer content one,
        when a is not rational: its product with a is the norm N(a) over
        that content, a rational integer, and positive since the field is CM
        (see the module docstring), so the factor is the positive primitive
        multiple of a^-1.  Integer content alone cannot remove an
        algebraic-integer factor of Z[zeta_n]."""
        if not any(a[1:]):
            return None
        cofactor = self._cofactor(a)
        scale = _int_content_scale(cofactor)
        if scale is None:
            return cofactor
        lden, g = scale
        return tuple(n * (lden // d) // g for n, d in map(_num_den, cofactor))

    def reduction_mod_prime(self):
        """(F_p, reduce) for the degree-one prime P = ker(zeta -> omega) of
        Z[zeta_n] with (p, omega) = ``degree_one_prime(n)``: ``reduce`` rescales
        a term list to integral coordinates with content one and maps each
        coefficient to F_p, dropping zeros."""
        p, omega = degree_one_prime(self.n)
        powers = [pow(omega, i, p) for i in range(self.degree)]

        def reduce(items):
            out = []
            for m, c in self.rescale_terms(items):
                r = sum(x * w for x, w in zip(c, powers)) % p
                if r:
                    out.append((m, r))
            return out

        return PrimeField(p), reduce

    def scalar_str(self, a):
        parts = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            mono = "w" if i == 1 else f"w^{i}"
            if c == 1:
                piece = mono
            elif c == -1:
                piece = "-" + mono
            else:
                piece = f"{c}*{mono}"
            parts.append(piece)
        if not parts:
            return "0"
        s = parts[0]
        for piece in parts[1:]:
            s += piece if piece.startswith("-") else "+" + piece
        return s

    def scalar_needs_parens(self, a):
        return sum(1 for c in a if c != 0) > 1

    def __repr__(self):
        return f"Q(zeta_{self.n})"


class PrimeField(Field):
    """F_p, optionally carrying an order-n root of unity for fast-mode runs."""

    def __init__(self, p: int, root_order: int | None = None):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.root_order = root_order
        self.spec = FieldSpec("prime", p=p, n=root_order)
        self._root = embed_root_into_prime_field(root_order, p) if root_order else None

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, k):
        return k % self.p

    def from_fraction(self, q):
        d = q.denominator % self.p
        if d == 0:
            raise InputError(f"denominator of {q} vanishes in F_{self.p}")
        return q.numerator % self.p * pow(d, self.p - 2, self.p) % self.p

    def generator(self):
        if self._root is None:
            raise MissingRootsError(f"F_{self.p} was built without a distinguished root")
        return self._root

    def root_of_unity(self, k):
        if (self.p - 1) % k != 0:
            raise MissingRootsError(f"F_{self.p} has no primitive {k}-th root of unity")
        return embed_root_into_prime_field(k, self.p)

    def scalar_str(self, a):
        return str(a)

    def __repr__(self):
        return f"F_{self.p}"


def make_field(spec: FieldSpec) -> Field:
    if spec.kind == "rational":
        return RationalField()
    if spec.kind == "cyclotomic":
        return CyclotomicField(spec.n)
    if spec.kind == "prime":
        return PrimeField(spec.p, root_order=spec.n)
    raise InputError(f"unknown field kind {spec.kind!r}")
