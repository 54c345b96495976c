from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symrees.errors import InputError, NoSuchRootError
from symrees.fields import (
    CyclotomicField,
    FieldSpec,
    PrimeField,
    RationalField,
    cyclotomic_polynomial,
    embed_root_into_prime_field,
    make_field,
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


# --- randomized field axioms -------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


def _scalars(field):
    if isinstance(field, RationalField):
        return rationals.map(field.from_fraction)
    if isinstance(field, CyclotomicField):
        return st.tuples(*([st.integers(-9, 9)] * field.degree))
    return st.integers(0, field.p - 1)


@pytest.mark.parametrize("field", [RationalField(), CyclotomicField(3),
                                   CyclotomicField(4), CyclotomicField(5), PrimeField(13)],
                         ids=["Q", "zeta3", "zeta4", "zeta5", "F13"])
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
