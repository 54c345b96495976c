import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import from_dict
from symrees.errors import PolynomialSyntaxError, UnknownSymbolError
from symrees.fields import CyclotomicField, PrimeField, RationalField
from symrees.parsing import parse_polynomial, parse_scalar
from symrees.points import base_ring

Q = RationalField()
R = base_ring(Q)


def test_parse_basic_forms():
    assert parse_polynomial("y^3 - z^3", R) == R.var("y") ** 3 - R.var("z") ** 3
    assert parse_polynomial("2*x^2*y - 1/3*y", R) == (
        2 * R.var("x") ** 2 * R.var("y") - R.var("y").scale(Q.from_fraction(__import__("fractions").Fraction(1, 3)))
    )
    assert parse_polynomial("x + 1", R) == R.var("x") + 1
    assert parse_polynomial("-x", R) == -R.var("x")
    assert parse_polynomial("(x + y)^2", R) == (R.var("x") + R.var("y")) ** 2
    assert parse_polynomial("0", R).is_zero()


def test_parse_generator_token():
    F = CyclotomicField(3)
    S = base_ring(F)
    p = parse_polynomial("w^2*x + y", S)
    w2 = F.pow(F.generator(), 2)
    assert p == S.var("x").scale(w2) + S.var("y")


def test_parse_syntax_error_position():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial("x +* y", R)
    assert err.value.position == 3


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        parse_polynomial("x + q", R)
    with pytest.raises(UnknownSymbolError):
        parse_polynomial("w + x", R)  # no generator over the rationals


def test_parse_whitespace_insensitive():
    a = parse_polynomial("x^2*y - w*z^3 + 1/3*y", base_ring(CyclotomicField(4)))
    b = parse_polynomial("x^2 * y-w * z^3+1/3 * y", base_ring(CyclotomicField(4)))
    assert a == b


def test_parse_scalars():
    assert parse_scalar("3/2", Q) == Q.from_fraction(__import__("fractions").Fraction(3, 2))
    assert parse_scalar("-1", Q) == -1
    F = CyclotomicField(4)
    assert parse_scalar("w", F) == F.generator()
    assert parse_scalar("1+w", F) == F.add(F.one, F.generator())
    P13 = PrimeField(13, root_order=4)
    assert parse_scalar("w^2", P13) == pow(5, 2, 13)


def test_empty_text_rejected():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("   ", R)


def _random_poly(ring, rnd, max_terms=5):
    terms = {}
    for _ in range(rnd.randint(1, max_terms)):
        m = tuple(rnd.randint(0, 4) for _ in range(ring.nvars))
        if isinstance(ring.field, CyclotomicField):
            c = tuple(rnd.randint(-5, 5) for _ in range(ring.field.degree))
        else:
            c = ring.field.from_int(rnd.randint(-9, 9))
        terms[m] = c
    return from_dict(ring, terms)


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_print_parse_round_trip(rnd):
    for field in (Q, CyclotomicField(3), CyclotomicField(4), PrimeField(13, root_order=4)):
        ring = base_ring(field)
        p = _random_poly(ring, rnd)
        assert parse_polynomial(str(p), ring) == p


def test_round_trip_fractional_coefficients():
    from fractions import Fraction

    p = R.var("x").scale(Fraction(7, 3)) - R.var("z").scale(Fraction(1, 2)) + R.one()
    assert parse_polynomial(str(p), R) == p
