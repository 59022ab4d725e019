"""The operator engine: normal ordering, action, printing, axioms."""

import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from racahverify.coeff import ParamPoly
from racahverify.liealg import SO2nContext
from racahverify.oracle import random_polynomial
from racahverify.report import check
from racahverify.weyl import (
    AlgebraSignature,
    Operator,
    Polynomial,
    commutator,
    evaluator,
    parse_operator,
)

SIG2 = AlgebraSignature(2)
LOC1 = AlgebraSignature(1, localized=frozenset({1}))
LOC2 = AlgebraSignature(2, localized=frozenset({1}))
PSIG = AlgebraSignature(2, localized=frozenset({1, 2}), nparams=2)

small_fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


def _mk_op(sig, terms):
    out = Operator.zero(sig)
    for xe, de, c in terms:
        out = out + Operator.monomial(sig, xe, de, c)
    return out


def _min_exp(sig, i, laurent):
    return -2 if laurent and (i + 1) in sig.localized else 0


def param_polys(nparams):
    """Multi-term parameter polynomials with mixed denominators."""
    pexp = st.tuples(*[st.integers(0, 2)] * nparams)
    return st.dictionaries(pexp, small_fractions, min_size=1, max_size=3).map(lambda ts: ParamPoly(nparams, ts))


def operators(sig, laurent=False, coeffs=small_fractions):
    xexp = st.tuples(*[st.integers(_min_exp(sig, i, laurent), 3) for i in range(sig.num_vars)])
    dexp = st.tuples(*[st.integers(0, 3)] * sig.num_vars)
    term = st.tuples(xexp, dexp, coeffs)
    return st.lists(term, max_size=3).map(lambda ts: _mk_op(sig, ts))


def polynomials(sig, laurent=False, coeffs=small_fractions):
    xexp = st.tuples(*[st.integers(_min_exp(sig, i, laurent), 4) for i in range(sig.num_vars)])
    term = st.tuples(xexp, coeffs)
    return st.lists(term, min_size=1, max_size=4).map(
        lambda ts: sum(
            (Polynomial.monomial(sig, xe, c) for xe, c in ts),
            Polynomial.zero(sig),
        )
    )


ops2 = operators(SIG2)
opsL = operators(LOC2, laurent=True)
opsP = operators(PSIG, laurent=True, coeffs=param_polys(PSIG.nparams))
polys2 = polynomials(SIG2)
polysL = polynomials(LOC2, laurent=True)
polysP = polynomials(PSIG, laurent=True, coeffs=param_polys(PSIG.nparams))


def test_signature_validation():
    with pytest.raises(ValueError):
        AlgebraSignature(0)
    with pytest.raises(ValueError):
        AlgebraSignature(2, localized=frozenset({3}))
    with pytest.raises(ValueError):
        AlgebraSignature(2, nparams=-1)
    # sizes and indices are ints, like exponents: a float size used to fail only at the first x
    for build in (
        lambda: AlgebraSignature(2.0),
        lambda: SO2nContext(3.0),
        lambda: AlgebraSignature(2, localized={1.0}),
        lambda: AlgebraSignature(2, nparams=1.0),
        lambda: AlgebraSignature(2, nparams="1"),
    ):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(ValueError):
        Operator.monomial(SIG2, (0, 0), (-1, 0))
    with pytest.raises(ValueError):
        Operator.monomial(SIG2, (-1, 0), (0, 0))
    # localized variables may carry negative position exponents
    Operator.monomial(LOC2, (-2, 0), (0, 0))
    with pytest.raises(ValueError):
        Operator.monomial(LOC2, (0, -2), (0, 0))


def test_canonical_commutation():
    x1, d1 = Operator.x(SIG2, 1), Operator.d(SIG2, 1)
    assert d1 * x1 == x1 * d1 + Operator.constant(SIG2, 1)
    assert commutator(d1, x1 * x1) == 2 * x1
    assert commutator(d1, Operator.x(SIG2, 2)) == Operator.zero(SIG2)


def test_cross_variable_product():
    x1, d1 = Operator.x(SIG2, 1), Operator.d(SIG2, 1)
    x2, d2 = Operator.x(SIG2, 2), Operator.d(SIG2, 2)
    expected = Operator.monomial(SIG2, (1, 1), (1, 1)) + x1 * d1
    assert (x1 * d2) * (x2 * d1) == expected


def test_localized_reorder():
    d1 = Operator.d(LOC1, 1)
    xinv = Operator.x(LOC1, 1, -1)
    assert d1 * xinv == xinv * d1 - Operator.x(LOC1, 1, -2)
    # second derivative past x^{-2}
    lhs = Operator.d(LOC1, 1, 2) * Operator.x(LOC1, 1, -2)
    rhs = (
        Operator.monomial(LOC1, (-2,), (2,))
        + Operator.monomial(LOC1, (-3,), (1,), -4)
        + Operator.monomial(LOC1, (-4,), (0,), 6)
    )
    assert lhs == rhs


def test_rotation_bracket():
    def L(a, b):
        sig = AlgebraSignature(3)
        return Operator.x(sig, a) * Operator.d(sig, b) - Operator.x(sig, b) * Operator.d(sig, a)

    assert commutator(L(1, 2), L(2, 3)) == L(1, 3)
    assert commutator(L(1, 2), L(1, 2)).is_zero()


def test_apply_examples():
    x1, d1 = Operator.x(SIG2, 1), Operator.d(SIG2, 1)
    f = Polynomial.monomial(SIG2, (3, 0))
    assert (x1 * d1).apply(f) == Polynomial.monomial(SIG2, (3, 0), 3)
    assert Operator.d(SIG2, 1, 2).apply(Polynomial.monomial(SIG2, (2, 0))) == Polynomial.monomial(
        SIG2, (0, 0), 2
    )
    L12 = x1 * Operator.d(SIG2, 2) - Operator.x(SIG2, 2) * d1
    g = Polynomial.monomial(SIG2, (1, 1))
    assert L12.apply(g) == Polynomial.monomial(SIG2, (2, 0)) - Polynomial.monomial(SIG2, (0, 2))


def test_apply_laurent():
    d1 = Operator.d(LOC1, 1)
    f = Polynomial.monomial(LOC1, (-1,))
    assert d1.apply(f) == Polynomial.monomial(LOC1, (-2,), -1)


def test_signature_mismatch_rejected():
    with pytest.raises(ValueError):
        Operator.x(SIG2, 1) + Operator.x(AlgebraSignature(3), 1)
    with pytest.raises(ValueError):
        Operator.x(SIG2, 1) * Operator.x(AlgebraSignature(3), 1)
    assert Operator.x(SIG2, 1) != Operator.x(AlgebraSignature(3), 1)


def test_parameter_coefficients():
    a1 = PSIG.param(1)
    op = Operator.x(PSIG, 1, -2) * a1
    d1 = Operator.d(PSIG, 1)
    # [d1, a1/x1^2] = -2 a1 / x1^3
    assert commutator(d1, op) == Operator.monomial(PSIG, (-3, 0), (0, 0), a1 * -2)


def test_specialize_params():
    a1, a2 = PSIG.param(1), PSIG.param(2)
    op = Operator.x(PSIG, 1) * (a1 + 2 * a2) + Operator.constant(PSIG, a1 * a2)
    plain = op.specialize_params((Fraction(1), Fraction(-1)))
    expected_sig = AlgebraSignature(2, localized=frozenset({1, 2}))
    assert plain == Operator.x(expected_sig, 1) * -1 + Operator.constant(expected_sig, -1)
    with pytest.raises(ValueError):
        op.specialize_params((Fraction(1),))


def test_str_and_parse_examples():
    x1, d2 = Operator.x(SIG2, 1), Operator.d(SIG2, 2)
    op = x1 * d2 - Operator.x(SIG2, 2) * Operator.d(SIG2, 1)
    assert str(op) == "1 * x1 * d2 + (-1) * x2 * d1"
    assert parse_operator(str(op), SIG2) == op
    assert str(Operator.zero(SIG2)) == "0"
    for sig in (SIG2, PSIG):
        zero = parse_operator("0", sig)
        assert zero == Operator.zero(sig) and zero.den == 1


def test_printed_forms():
    p = ParamPoly(2, {(2, 1): 3, (1, 0): Fraction(-1, 2), (0, 0): 5, (0, 3): Fraction(2, 3)})
    assert str(p) == "3*a1^2*a2 + 2/3*a2^3 + -1/2*a1 + 5"
    op = Operator.x(PSIG, 1, 2) * p + Operator.d(PSIG, 2) * Fraction(-3, 4)
    assert str(op) == "(3*a1^2*a2 + 2/3*a2^3 + -1/2*a1 + 5) * x1^2 + (-3/4) * d2"


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_operator("x1 * d2", SIG2)  # no leading coefficient
    with pytest.raises(ValueError):
        parse_operator("1 * y1", SIG2)
    with pytest.raises(ValueError):
        parse_operator("1 * x9", SIG2)
    with pytest.raises(ValueError):
        parse_operator("(1 * x1", SIG2)
    # nested, unopened and unclosed parentheses
    for text in ("((a1)) * x1", "(a1 + 1 * x1", "1 * x1) + 2"):
        with pytest.raises(ValueError):
            parse_operator(text, AlgebraSignature(1, nparams=1))
    # empty terms, a caret without a power, and digits int() would read
    for text in ("", " ", "1 +  + x1", "1 * x1^", "1 * x1_0", "1 * x1^0_2"):
        with pytest.raises(ValueError):
            parse_operator(text, SIG2)
    with pytest.raises(ValueError):
        parse_operator("(1*a1^) * x1", AlgebraSignature(1, nparams=1))
    # coefficient literals Fraction(str) would read but str never prints
    for text in ("1_0 * x1", "2.5 * x1", "1e3 * x1", "(1_0*a1) * x1"):
        with pytest.raises(ValueError):
            parse_operator(text, AlgebraSignature(1, nparams=1))


def test_parse_splits_only_outside_parentheses():
    a1, a2 = PSIG.param(1), PSIG.param(2)
    x1, d2 = Operator.x(PSIG, 1), Operator.d(PSIG, 2)
    assert parse_operator("(2 * a1) * x1", PSIG) == x1 * (2 * a1)
    assert parse_operator("(a1 + 1) * x1 + (2*a2 + -1) * d2", PSIG) == x1 * (a1 + 1) + d2 * (2 * a2 - 1)


def test_mixed_operand_types_raise_type_error():
    op, f = Operator.x(SIG2, 1), Polynomial.monomial(SIG2, (1, 0))
    for combine in (lambda: op + f, lambda: f - op, lambda: op + 1, lambda: 1 + op):
        with pytest.raises(TypeError):
            combine()


def test_coefficients_must_be_int_fraction_or_param_poly():
    """Fraction(value) reads strings, floats and Decimals; the coefficient entry points do not."""
    x1 = Operator.x(SIG2, 1)
    for build in (
        lambda: Operator.constant(SIG2, "1_0"),
        lambda: Operator.monomial(SIG2, (1, 0), (0, 0), "2.5"),
        lambda: Operator.constant(SIG2, 0.1),
        lambda: x1.scale(Decimal("0.5")),
        lambda: 2.5 * x1,
        lambda: Polynomial.monomial(SIG2, (1, 0), "3"),
        lambda: ParamPoly.param(1, 1) + "3/4",
        lambda: ParamPoly.param(1, 1) * 0.5,
        lambda: ParamPoly.const(1, "1"),
        lambda: ParamPoly(1, {(0,): 0.5}),
        lambda: ParamPoly(1, {(0,): "1_0"}),
        lambda: 0.5 * ParamPoly.param(1, 1),
        lambda: ParamPoly.param(1, 1) - 0.5,
    ):
        with pytest.raises(TypeError):
            build()
    # nor do the evaluation points
    one = AlgebraSignature(1, nparams=1)
    a1, x1 = ParamPoly.param(1, 1), Operator.x(one, 1)
    square = Polynomial.monomial(one, (2,), a1)
    for point in (
        lambda: square.evaluate([0.1], [1]),
        lambda: square.evaluate(["1_0"], [1]),
        lambda: square.evaluate([1], [Decimal("0.5")]),
        lambda: a1.evaluate(["1_0"]),
        lambda: (x1 * a1).specialize_params(["2.5"]),
        lambda: evaluator(x1)(square, [0.1], [1]),
        lambda: evaluator(x1)(square, [1], ["2"]),
        lambda: Polynomial.zero(one).evaluate([0.1], [1]),
        lambda: evaluator(Operator.zero(one))(square, [1], [0.5]),
    ):
        with pytest.raises(TypeError):
            point()
    assert square.evaluate([Fraction(1, 2)], [3]) == Fraction(3, 4)
    assert evaluator(x1)(square, [Fraction(1, 2)], [3]) == Fraction(3, 8)
    assert Operator.constant(SIG2, Fraction(5, 2)) == Operator.constant(SIG2, 5) * Fraction(1, 2)
    with pytest.raises(ValueError):
        Operator.constant(PSIG, ParamPoly.param(1, 1))


def test_param_poly_times_operator_scales_in_both_orders():
    a1, x1 = PSIG.param(1), Operator.x(PSIG, 1)
    assert a1 * x1 == x1 * a1 == x1.scale(a1)
    assert (a1 + Fraction(1, 2)) * x1 == x1 * (a1 + Fraction(1, 2))
    with pytest.raises(TypeError):
        a1 + x1


def _assert_lowest_terms(value):
    """Nonzero integer numerators over a positive denominator, gcd 1 (so den 1 for zero)."""
    assert value.den >= 1
    assert all(type(q) is int and q for q in value.terms.values())
    assert gcd(value.den, *value.terms.values()) == 1


STORED_FORMS = {
    "plain": (SIG2, ops2, polys2, small_fractions),
    "laurent": (LOC2, opsL, polysL, small_fractions),
    "params": (PSIG, opsP, polysP, param_polys(PSIG.nparams)),
}


@pytest.mark.parametrize("kind", sorted(STORED_FORMS))
@given(data=st.data())
def test_every_result_is_in_lowest_terms(kind, data):
    sig, ops, polys, coeffs = STORED_FORMS[kind]
    a, b = data.draw(ops), data.draw(ops)
    f, g = data.draw(polys), data.draw(polys)
    c = data.draw(coeffs)
    mono = (0,) * (2 * sig.num_vars)
    built = [
        Operator.zero(sig),
        Operator.constant(sig, c),
        Operator.monomial(sig, (1, 0), (0, 2), c),
        Operator(sig, {mono: sig.coeff(c)}),
        Operator.x(sig, 1),
        Operator.d(sig, 2),
        Polynomial.zero(sig),
        Polynomial.monomial(sig, (1, 2), c),
        Polynomial(sig, {(2, 0): sig.coeff(c), (0, 1): sig.coeff(Fraction(1, 6))}),
        random_polynomial(sig, random.Random(data.draw(st.integers(0, 10**6)))),
    ]
    results = [a + b, a - b, a - a, -a, a * b, b * a, commutator(a, b), a.scale(c), a.scale(0), a * c]
    results += [f + g, f - g, f - f, -f, a.apply(f), (a - a).apply(f), a.apply(f - f)]
    for value in built + results:
        _assert_lowest_terms(value)


def test_halves_sum_to_denominator_one():
    x1 = Operator.x(SIG2, 1)
    half = x1 * Fraction(1, 2)
    assert half.den == 2
    total = half + half
    assert total.den == 1
    assert total == x1
    assert (total.terms, total.den) == (x1.terms, x1.den)


def test_term_count_counts_monomials_not_parameter_entries():
    a1, a2 = PSIG.param(1), PSIG.param(2)
    op = Operator.x(PSIG, 1) * (a1 + a2)
    assert len(op.terms) == 2
    assert op.term_count() == 1
    assert repr(op) == "Operator(2 vars, 1 terms)"
    f = Polynomial.monomial(PSIG, (1, 0), a1 + a2)
    assert len(f.terms) == 2
    assert f.term_count() == 1
    assert repr(f) == "Polynomial(2 vars, 1 terms)"
    entry = check("r", (1,), lambda _: op)
    assert not entry.passed and entry.residual_terms == 1


@given(ops2, ops2, ops2)
def test_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(opsP, opsP, opsP)
def test_product_associative_with_parameters(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(ops2, ops2, ops2)
def test_product_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(opsP, opsP, opsP)
def test_product_distributive_with_parameters(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def _jacobi_sum(a, b, c):
    return (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )


@given(ops2, ops2, ops2)
def test_jacobi_identity(a, b, c):
    assert _jacobi_sum(a, b, c).is_zero()


@given(opsP, opsP, opsP)
def test_jacobi_identity_with_parameters(a, b, c):
    assert _jacobi_sum(a, b, c).is_zero()


@given(ops2, ops2)
def test_commutator_antisymmetric(a, b):
    assert commutator(a, b) == -commutator(b, a)


@given(ops2, ops2)
def test_derivative_degree_bound(a, b):
    p = a * b
    assert p.derivative_degree() <= a.derivative_degree() + b.derivative_degree()


@given(ops2)
def test_no_negative_positions_without_localization(a):
    square = a * a
    m = SIG2.num_vars
    for mono in square.coefficients():
        assert all(e >= 0 for e in mono[:m])
        assert all(e >= 0 for e in mono[m:])


@settings(max_examples=60)
@given(ops2, ops2, polys2)
def test_composition_matches_action(a, b, f):
    assert (a * b).apply(f) == a.apply(b.apply(f))


@settings(max_examples=60)
@given(opsL, opsL, polysL)
def test_composition_matches_action_localized(a, b, f):
    assert (a * b).apply(f) == a.apply(b.apply(f))


@settings(max_examples=60)
@given(opsP, opsP, polysP)
def test_composition_matches_action_with_parameters(a, b, f):
    assert (a * b).apply(f) == a.apply(b.apply(f))


@given(ops2)
def test_text_round_trip(a):
    assert parse_operator(str(a), SIG2) == a


@given(opsL)
def test_text_round_trip_localized(a):
    assert parse_operator(str(a), LOC2) == a


@given(polys2, st.tuples(small_fractions, small_fractions))
def test_polynomial_evaluate_additive(f, pt):
    coords = tuple(c if c else Fraction(1) for c in pt)
    g = f + f
    assert g.evaluate(coords) == 2 * f.evaluate(coords)


def test_evaluate_checks_the_parameter_count_of_the_zero_polynomial():
    sig = AlgebraSignature(2, nparams=1)
    coords = (Fraction(1, 2), Fraction(3))
    with pytest.raises(ValueError, match="expected 1 parameter values, got 0"):
        Polynomial.monomial(sig, (1, 0)).evaluate(coords, ())
    with pytest.raises(ValueError, match="expected 1 parameter values, got 0"):
        Polynomial.zero(sig).evaluate(coords, ())
    assert Polynomial.zero(sig).evaluate(coords, (Fraction(2),)) == 0
