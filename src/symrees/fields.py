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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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


def embed_root_into_prime_field(n: int, p: int) -> int:
    """Smallest residue of multiplicative order exactly n in F_p.

    Requires p = 1 (mod n) so that the cyclic group F_p^* has an order-n element.
    """
    if n < 1:
        raise InputError("root order must be positive")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if (p - 1) % n != 0:
        raise NoSuchRootError(f"F_{p} has no element of order {n}: {p} != 1 mod {n}")
    qs = prime_divisors(n)
    for g in range(1, p):
        if pow(g, n, p) == 1 and all(pow(g, n // q, p) != 1 for q in qs):
            return g
    raise NoSuchRootError(f"no order-{n} element found in F_{p}")  # unreachable


@dataclass(frozen=True)
class FieldSpec:
    """Serializable description of a coefficient field."""

    kind: str                 # "rational" | "cyclotomic" | "prime"
    n: int | None = None      # cyclotomic conductor, or the root order a prime field carries
    p: int | None = None

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
        kind = obj.get("kind")
        if kind == "rational":
            return FieldSpec("rational")
        if kind == "cyclotomic":
            return FieldSpec("cyclotomic", n=int(obj["n"]))
        if kind == "prime":
            return FieldSpec("prime", p=int(obj["p"]), n=int(obj["n"]) if "n" in obj else None)
        raise InputError(f"unknown field kind {kind!r}")


class Field:
    """Shared scalar operations; subclasses fix representation and core arithmetic."""

    spec: FieldSpec
    zero = 0
    one = 1
    characteristic = 0

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
        return Fraction(d, n)

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

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid against Phi_n; the gcd is a nonzero constant since
        # Phi_n is irreducible over Q and deg a < deg Phi_n.
        r0 = [Fraction(c) for c in self._phi]
        r1 = [Fraction(c) for c in a]
        while r1 and r1[-1] == 0:
            r1.pop()
        v0, v1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            v0, v1 = v1, _poly_sub(v0, _poly_mul(q, v1))
            if not r1:
                raise ArithmeticError("element shares a factor with the modulus")
        c = r1[0]
        d = self.degree
        out = [x / c for x in v1]
        out += [Fraction(0)] * (d - len(out))
        return tuple(self.from_fraction_coord(x) for x in out[:d])

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


# --- dense univariate helpers over Q (used by the cyclotomic inverse) --------

def _poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] / lead
        if c:
            q[k] = c
            for i, bc in enumerate(b):
                a[k + i] -= c * bc
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    while out and out[-1] == 0:
        out.pop()
    return out
