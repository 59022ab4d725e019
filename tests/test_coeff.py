"""Ring behavior of the sparse parameter polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from racahverify.coeff import ParamPoly, parse_param_poly

small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))

exponents2 = st.tuples(st.integers(0, 3), st.integers(0, 3))


polys2 = st.dictionaries(exponents2, small_fractions, max_size=4).map(lambda terms: ParamPoly(2, terms))

values2 = st.tuples(small_fractions, small_fractions)


def test_zero_and_const():
    z = ParamPoly(3)
    assert not z
    assert ParamPoly.const(3, 0) == z
    c = ParamPoly.const(3, Fraction(2, 5))
    assert c.is_constant()
    assert c.constant_value() == Fraction(2, 5)


def test_param_basics():
    a1 = ParamPoly.param(2, 1)
    a2 = ParamPoly.param(2, 2)
    assert a1 != a2
    assert not a1.is_constant()
    assert a1.evaluate((Fraction(3), Fraction(7))) == 3
    with pytest.raises(ValueError):
        ParamPoly.param(2, 3)
    with pytest.raises(ValueError):
        ParamPoly.param(2, 0)


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        ParamPoly.param(2, 1) + ParamPoly.param(3, 1)
    with pytest.raises(ValueError):
        ParamPoly.param(2, 1) * ParamPoly(1)


def test_scalar_coercion():
    a = ParamPoly.param(1, 1)
    assert a + 1 == 1 + a
    assert a - 1 == -(1 - a)
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a


def test_constructors_store_fractions():
    p = ParamPoly(2, {(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): Fraction(3)} and type(p.terms[1, 0]) is Fraction


def test_constant_value_requires_constant():
    a = ParamPoly.param(1, 1)
    with pytest.raises(ValueError):
        a.constant_value()


def test_pow():
    a = ParamPoly.param(1, 1)
    assert a ** 0 == 1
    assert a ** 3 == a * a * a
    with pytest.raises(ValueError):
        a ** -1


@given(polys2, polys2, polys2)
def test_add_associative_commutative(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p


@given(polys2, polys2, polys2)
def test_mul_associative_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys2)
def test_additive_inverse(p):
    assert p + (-p) == ParamPoly(2)
    assert p - p == 0


@given(polys2, polys2, values2)
def test_evaluate_is_ring_map(p, q, vals):
    assert (p + q).evaluate(vals) == p.evaluate(vals) + q.evaluate(vals)
    assert (p * q).evaluate(vals) == p.evaluate(vals) * q.evaluate(vals)


@given(polys2)
def test_text_round_trip(p):
    assert parse_param_poly(str(p), 2) == p


def test_str_examples():
    a1 = ParamPoly.param(2, 1)
    a2 = ParamPoly.param(2, 2)
    assert str(ParamPoly(2)) == "0"
    assert parse_param_poly("0", 2) == ParamPoly(2)
    assert str(ParamPoly.const(2, Fraction(-3, 4))) == "-3/4"
    p = a1 * a1 * Fraction(1, 2) + a2 - 1
    assert parse_param_poly(str(p), 2) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_param_poly("a9", 2)
    with pytest.raises(ValueError):
        parse_param_poly("what", 2)
    with pytest.raises(ValueError):
        parse_param_poly("a1^", 1)
    # literals Fraction(str) would read but str never prints
    for text in ("1_0*a1", "1.5*a1", "1e3*a1", "１*a1", "3/-2*a1", "+ 1*a1"):
        with pytest.raises(ValueError):
            parse_param_poly(text, 1)
