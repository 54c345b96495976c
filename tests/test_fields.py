import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import symrees
from symrees.errors import InputError, NoSuchRootError
from symrees.fields import (
    CyclotomicField,
    FieldSpec,
    PrimeField,
    RationalField,
    cyclotomic_polynomial,
    degree_one_prime,
    embed_root_into_prime_field,
    is_prime,
    make_field,
    prime_divisors,
)


def test_cyclotomic_polynomial_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)          # t - 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)        # t^2 + 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)       # t^2 - t + 1


def test_cyclotomic_polynomial_degrees_are_euler_phi():
    def phi(n):
        return sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)

    for n in range(1, 25):
        assert len(cyclotomic_polynomial(n)) - 1 == phi(n)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_cyclotomic_polynomial_rejects_nonpositive():
    with pytest.raises(InputError):
        cyclotomic_polynomial(0)


@pytest.mark.parametrize("n", range(1, 13))
def test_generator_is_root_of_its_cyclotomic_polynomial(n):
    F = CyclotomicField(n)
    z = F.generator()
    acc = F.zero
    for k, c in enumerate(cyclotomic_polynomial(n)):
        acc = F.add(acc, F.mul(F.from_int(c), F.pow(z, k)))
    assert acc == F.zero


@pytest.mark.parametrize("n", range(1, 13))
def test_generator_has_multiplicative_order_n(n):
    F = CyclotomicField(n)
    z = F.generator()
    assert F.pow(z, n) == F.one
    for d in range(1, n):
        if n % d == 0:
            assert F.pow(z, d) != F.one


def test_rational_inverse():
    Q = RationalField()
    assert Q.inv(2) == Fraction(1, 2)
    assert Q.mul(Q.inv(Fraction(3, 7)), Fraction(3, 7)) == 1


def test_rational_inverse_of_an_integer_is_an_int():
    from symrees.configs import grid_example

    Q = RationalField()
    assert type(Q.inv(1)) is int and type(Q.inv(-1)) is int
    assert type(Q.inv(Fraction(1, 3))) is int and Q.inv(Fraction(-1, 3)) == -3
    # the grid's points and the coefficients of its witnesses, whose line
    # through the base points is made monic by an inverse, stay plain integers
    cfg = grid_example(2, 2)
    w = cfg.witnesses
    assert all(type(c) is int for P in cfg.points for c in P.coords)
    assert all(type(c) is int for xi in (w.xi1, w.xi2) for c in xi.terms.values())


def test_cyclotomic_inverse_of_generator_order_four():
    F = CyclotomicField(4)
    z = F.generator()
    assert F.inv(z) == (0, -1)  # 1/i = -i


def test_cyclotomic_inverse_one_plus_zeta3():
    # independent check: the inverse must multiply back to 1, and the known
    # relation 1 + z + z^2 = 0 forces (1+z)(-z) = 1
    F = CyclotomicField(3)
    a = F.add(F.one, F.generator())
    inv = F.inv(a)
    assert F.mul(a, inv) == F.one
    assert inv == (0, -1)


@pytest.mark.parametrize("make", [
    lambda: RationalField(),
    lambda: CyclotomicField(4),
    lambda: CyclotomicField(5),
    lambda: PrimeField(13),
])
def test_inverse_of_zero_raises(make):
    F = make()
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


def test_embed_root_examples():
    assert embed_root_into_prime_field(1, 7) == 1
    assert embed_root_into_prime_field(4, 13) == 5
    with pytest.raises(NoSuchRootError):
        embed_root_into_prime_field(3, 5)


def test_embed_root_matches_brute_force_order_search():
    # oracle: smallest residue whose successive powers first return to 1 at n
    def brute(n, p):
        for g in range(1, p):
            acc, order = 1, None
            for k in range(1, n + 1):
                acc = acc * g % p
                if acc == 1:
                    order = k
                    break
            if order == n:
                return g
        return None

    for n, p in [(4, 13), (6, 7), (5, 11), (12, 13), (8, 17), (3, 7)]:
        assert embed_root_into_prime_field(n, p) == brute(n, p)
    for p in filter(is_prime, range(2, 200)):
        for n in range(1, 40):
            if (p - 1) % n == 0:
                assert embed_root_into_prime_field(n, p) == brute(n, p)
    # at p ~ 2^30 the least element of order 5 is out of a scan's reach (a
    # scan from 1 takes minutes); there the oracle is the least of the
    # order-5 powers of a primitive root g, found by testing g^((p-1)/q)
    # for the primes q dividing p - 1
    n, p = 5, 1073741831
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // q, p) != 1 for q in prime_divisors(p - 1)))
    least = min(pow(g, k * (p - 1) // n, p) for k in range(1, n) if gcd(k, n) == 1)
    assert embed_root_into_prime_field(n, p) == least == 287503752


@pytest.mark.parametrize("n,p", [(4, 13), (6, 7), (5, 11), (12, 13), (10, 11)])
def test_embedded_root_has_exact_order(n, p):
    g = embed_root_into_prime_field(n, p)
    assert pow(g, n, p) == 1
    for d in range(1, n):
        if n % d == 0:
            assert pow(g, d, p) != 1


def test_prime_field_validation():
    with pytest.raises(InputError):
        PrimeField(12)
    with pytest.raises(NoSuchRootError):
        PrimeField(5, root_order=3)
    F = PrimeField(13, root_order=4)
    assert F.generator() == 5


def test_field_spec_round_trip():
    for spec in (FieldSpec("rational"), FieldSpec("cyclotomic", n=4),
                 FieldSpec("prime", p=13, n=4), FieldSpec("prime", p=7)):
        assert FieldSpec.from_json(spec.to_json()) == spec
        assert make_field(spec).spec == spec


def test_equal_field_specs_hash_equal():
    assert FieldSpec("prime", p=13, n=4) == FieldSpec("prime", 4, 13)
    assert hash(FieldSpec("prime", p=13, n=4)) == hash(FieldSpec("prime", 4, 13))
    assert hash(FieldSpec("rational")) == hash(FieldSpec.from_json({"kind": "rational"}))
    assert PrimeField(13, root_order=4) == PrimeField(13, root_order=4)
    assert hash(CyclotomicField(5)) == hash(CyclotomicField(5))
    assert FieldSpec("prime", p=7) != FieldSpec("prime", p=7, n=3)
    assert repr(FieldSpec("cyclotomic", n=4)) == "FieldSpec(kind='cyclotomic', n=4, p=None)"


def test_import_loads_no_dataclasses():
    # the package's start-up cost: dataclasses pulls in inspect, ast and dis
    src = str(pathlib.Path(symrees.__file__).resolve().parent.parent)
    code = "import sys, symrees; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


# --- randomized field axioms -------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


def _scalars(field):
    if isinstance(field, RationalField):
        return rationals.map(field.from_fraction)
    if isinstance(field, CyclotomicField):
        return st.tuples(*([st.integers(-9, 9)] * field.degree))
    return st.integers(0, field.p - 1)


@pytest.mark.parametrize("field", [RationalField(), CyclotomicField(3), CyclotomicField(4),
                                   CyclotomicField(5), CyclotomicField(7), CyclotomicField(12),
                                   PrimeField(13)],
                         ids=["Q", "zeta3", "zeta4", "zeta5", "zeta7", "zeta12", "F13"])
def test_field_axioms_on_random_triples(field):
    @given(_scalars(field), _scalars(field), _scalars(field))
    def inner(a, b, c):
        add, mul = field.add, field.mul
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, field.neg(a)) == field.zero
        assert mul(a, field.one) == a
        if a != field.zero:
            assert mul(a, field.inv(a)) == field.one

    inner()


@pytest.mark.parametrize("n", [3, 5, 12])
def test_conjugates_rationalize_and_invert(n):
    # (Z/12)^* = {1, 5, 7, 11} is not cyclic, so no single sigma_k generates it
    F = CyclotomicField(n)
    units = [k for k in range(1, n) if gcd(k, n) == 1]
    integral = st.tuples(*[st.integers(-9, 9)] * F.degree)

    @given(integral, integral)
    def inner(a, b):
        for k in units:
            assert F.conjugate(F.mul(a, b), k) == F.mul(F.conjugate(a, k), F.conjugate(b, k))
        assert F.conjugate(a, 1) == a
        if not any(a[1:]):
            assert F.rationalizing_factor(a) is None
            return
        c = F.rationalizing_factor(a)
        assert all(type(v) is int for v in c) and gcd(*c) == 1
        prod = F.mul(a, c)
        # a positive rational integer: the norm over the content, N(a) > 0 in a CM field
        assert prod[0] > 0 and not any(prod[1:]) and type(prod[0]) is int
        inv = F.inv(a)
        assert F.mul(a, inv) == F.one
        assert all(type(v) is int or v.denominator != 1 for v in inv)

    inner()
    # zeta^j is a unit, and 1 + zeta = (1 - zeta^2) / (1 - zeta) is one for odd n
    zeta = F.generator()
    for j in range(n):
        inv = F.inv(F.pow(zeta, j))
        assert inv == F.pow(zeta, n - j) and all(type(v) is int for v in inv)
    if n % 2:
        inv = F.inv(F.add(F.one, zeta))
        assert F.mul(inv, F.add(F.one, zeta)) == F.one and all(type(v) is int for v in inv)


def test_scalar_strings():
    F = CyclotomicField(4)
    assert F.scalar_str((0, -1)) == "-w"
    assert F.scalar_str((1, 2)) == "1+2*w"
    assert F.scalar_str(F.zero) == "0"
    assert RationalField().scalar_str(Fraction(3, 2)) == "3/2"


def test_rescale_terms_returns_plain_ints():
    # Fraction arithmetic yields Fraction(n, 1) for integer results; a rescaled
    # term list must not carry those on into the Groebner engine
    out = RationalField().rescale_terms([((1, 0), Fraction(3, 1))])
    assert out == [((1, 0), 1)] and type(out[0][1]) is int
    out = RationalField().rescale_terms([((1, 0), Fraction(1, 1)), ((0, 1), 2)])
    assert out == [((1, 0), 1), ((0, 1), 2)]
    assert all(type(c) is int for _, c in out)
    out = CyclotomicField(4).rescale_terms([((1, 0), (Fraction(1, 1), 2))])
    assert out == [((1, 0), (1, 2))]
    assert all(type(v) is int for v in out[0][1])
    plain = [((1, 0), 1), ((0, 1), -2)]
    assert RationalField().rescale_terms(plain) is plain


@pytest.mark.parametrize("n", [1, 3, 4, 5, 6, 12])
def test_degree_one_prime(n):
    p, omega = degree_one_prime(n)
    assert p >= 2**30 and is_prime(p) and (p - 1) % n == 0
    assert not any(is_prime(q) and (q - 1) % n == 0 for q in range(2**30, p))
    assert pow(omega, n, p) == 1
    assert all(pow(omega, n // q, p) != 1 for q in prime_divisors(n))
    # omega is a root of Phi_n mod p, so zeta -> omega is a ring map Z[zeta] -> F_p
    assert sum(c * pow(omega, i, p) for i, c in enumerate(cyclotomic_polynomial(n))) % p == 0


@pytest.mark.parametrize("field", [RationalField(), CyclotomicField(3), CyclotomicField(5)],
                         ids=["Q", "zeta3", "zeta5"])
def test_reduction_mod_prime_is_a_ring_map(field):
    fp, reduce = field.reduction_mod_prime()
    coords = st.integers(-10**6, 10**6)
    scalars = coords if isinstance(field, RationalField) else st.tuples(*[coords] * field.degree)

    def image(c):
        # the unit term keeps the content one, so c is reduced as it stands
        return dict(reduce([((0,), field.one), ((1,), c)])).get((1,), 0)

    @given(scalars, scalars)
    def inner(a, b):
        assert image(field.add(a, b)) == fp.add(image(a), image(b))
        assert image(field.mul(a, b)) == fp.mul(image(a), image(b))

    inner()
    if isinstance(field, CyclotomicField):
        p, omega = degree_one_prime(field.n)
        assert image(field.generator()) == omega
        # zeta - omega lies in the prime, so a term list of its multiples vanishes
        in_prime = field.sub(field.generator(), field.from_int(omega))
        assert reduce([((0,), in_prime), ((1,), field.mul(in_prime, in_prime))]) == []
    else:
        # coefficients are made integral, with content one, before they are mapped
        assert reduce([((0,), Fraction(1, 2)), ((1,), Fraction(3, 2))]) == [((0,), 1), ((1,), 3)]
