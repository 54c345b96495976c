import pytest
from hypothesis import given
from hypothesis import strategies as st

from symrees.errors import (
    FieldMismatchError,
    VariableMismatchError,
    ZeroPolynomialError,
)
from symrees.fields import CyclotomicField, PrimeField, RationalField
from helpers import LEX, compare, from_dict
from symrees.polynomials import (
    GREVLEX,
    BlockOrder,
    PolyRing,
)

Q = RationalField()
R = PolyRing(Q)
x, y, z = R.var("x"), R.var("y"), R.var("z")


def test_grevlex_examples():
    assert compare(GREVLEX, (1, 0, 0), (0, 1, 0)) == 1      # x > y
    assert compare(GREVLEX, (0, 1, 0), (0, 0, 1)) == 1      # y > z
    assert compare(GREVLEX, (2, 1, 0), (1, 1, 1)) == 1      # x^2 y > xyz
    assert compare(GREVLEX, (1, 0, 0), (1, 0, 0)) == 0


def test_lex_ignores_degree():
    assert compare(LEX, (0, 5, 0), (1, 0, 0)) == -1         # y^5 < x


def test_variable_mismatch():
    with pytest.raises(VariableMismatchError):
        compare(GREVLEX, (1, 0), (1, 0, 0))


def test_block_order_elevates_trailing_variables():
    order = BlockOrder(1)
    # s^1 beats any s-free monomial, however large
    assert compare(order, (0, 0, 9, 1), (9, 9, 9, 0)) == 1


def test_arithmetic_examples():
    assert (y - z) + (z - x) == y - x
    assert (y - z) * (y + z) == y**2 - z**2
    assert (x + 1) - (x + 1) == R.zero()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pencil_sum_vanishes(n):
    F = CyclotomicField(n)
    S = PolyRing(F)
    X, Y, Z = S.var("x"), S.var("y"), S.var("z")
    f = Y**n - Z**n
    g = Z**n - X**n
    h = X**n - Y**n
    assert (f + g + h).is_zero()


def test_degree_and_homogeneity_affine():
    assert (x + 1).degree_and_homogeneity() == (1, False)
    assert (x * y + z**2).degree_and_homogeneity() == (2, True)


def test_degree_of_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        R.zero().total_degree()
    with pytest.raises(ZeroPolynomialError):
        R.zero().is_homogeneous()


def test_mixing_fields_raises():
    S = PolyRing(PrimeField(7))
    with pytest.raises(FieldMismatchError):
        x + S.var("x")
    T = PolyRing(Q, ("x", "y"))
    with pytest.raises(VariableMismatchError):
        x + T.var("x")


def test_evaluate():
    f = x**2 + 2 * y - z
    assert f.evaluate((2, 1, 3)) == 3
    F = PrimeField(7)
    S = PolyRing(F)
    g = S.var("x") * S.var("y") - S.one()
    assert g.evaluate((3, 5, 0)) == (3 * 5 - 1) % 7


def test_linear_coefficients():
    u = 2 * x - 3 * y + z
    assert u.linear_coefficients() == (2, -3, 1)


def test_power_and_scale():
    assert (x + y) ** 0 == R.one()
    assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3
    assert x.scale(Q.from_int(0)).is_zero()


# --- randomized properties -----------------------------------------------------------

expo3 = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
orders = st.sampled_from([GREVLEX, LEX, BlockOrder(1)])


@given(orders, expo3, expo3, expo3)
def test_orders_are_total_and_multiplicative(order, a, b, c):
    cab = compare(order, a, b)
    assert cab in (-1, 0, 1)
    assert compare(order, b, a) == -cab
    assert (cab == 0) == (a == b)
    if cab in (0, 1) and compare(order, b, c) in (0, 1):
        assert compare(order, a, c) in (0, 1)
    shifted = tuple(u + v for u, v in zip(a, c))
    shifted2 = tuple(u + v for u, v in zip(b, c))
    assert compare(order, shifted, shifted2) == cab
    assert compare(order, a, (0, 0, 0)) >= 0  # 1 is minimal


def _random_poly(ring, rnd, max_terms=5, max_exp=4):
    terms = {}
    for _ in range(rnd.randint(1, max_terms)):
        m = tuple(rnd.randint(0, max_exp) for _ in range(ring.nvars))
        terms[m] = ring.field.from_int(rnd.randint(-6, 6))
    from symrees.polynomials import Polynomial

    return from_dict(ring, terms)


@given(st.randoms(use_true_random=False))
def test_degree_of_product_adds(rnd):
    for ring in (R, PolyRing(PrimeField(13)), PolyRing(CyclotomicField(4))):
        f = _random_poly(ring, rnd)
        g = _random_poly(ring, rnd)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()


@given(st.randoms(use_true_random=False))
def test_homogeneous_products_are_homogeneous(rnd):
    d1, d2 = rnd.randint(1, 3), rnd.randint(1, 3)
    f = _homogeneous(R, rnd, d1)
    g = _homogeneous(R, rnd, d2)
    if f.is_zero() or g.is_zero():
        return
    assert f.is_homogeneous() and g.is_homogeneous()
    assert (f * g).degree_and_homogeneity() == (d1 + d2, True)


def _homogeneous(ring, rnd, d):
    from symrees.polynomials import Polynomial

    terms = {}
    for _ in range(rnd.randint(1, 4)):
        a = rnd.randint(0, d)
        b = rnd.randint(0, d - a)
        terms[(a, b, d - a - b)] = ring.field.from_int(rnd.randint(1, 5))
    return from_dict(ring, terms)
