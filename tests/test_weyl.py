"""The operator engine: normal ordering, action, printing, axioms."""

import pickle
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from racahverify import weyl
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
    relabel,
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


def _reference_apply(op, f):
    """op f one (operator term, polynomial term) pair at a time, on ParamPoly
    coefficients: d^b x^k = falling(k, b) x^(k-b) per variable."""
    m = op.sig.num_vars
    out = {}
    for mono, c in op.coefficients().items():
        for xe, g in f.coefficients().items():
            factor = 1
            for k, b in zip(xe, mono[m:]):
                for t in range(b):
                    factor *= k - t
            if factor:
                key = tuple(k + a - b for k, a, b in zip(xe, mono[:m], mono[m:]))
                term = c * g * factor
                out[key] = out[key] + term if key in out else term
    return Polynomial(op.sig, {key: c for key, c in out.items() if c})


def _shared_shift_ops(sig, laurent=False, coeffs=small_fractions):
    """Operators whose entries come in groups of one net shift a - b."""
    m = sig.num_vars

    def group(shift, dexps, cs):
        return [(tuple(b + s for b, s in zip(de, shift)), de, c) for de, c in zip(dexps, cs)]

    def valid(term):
        xe = term[0]
        return all(e >= _min_exp(sig, i, laurent) for i, e in enumerate(xe))

    shift = st.tuples(*[st.integers(-2, 2)] * m)
    dexps = st.lists(st.tuples(*[st.integers(0, 3)] * m), min_size=1, max_size=3)
    groups = st.builds(group, shift, dexps, st.lists(coeffs, min_size=3, max_size=3))
    return st.lists(groups, max_size=3).map(lambda gs: _mk_op(sig, [t for g in gs for t in g if valid(t)]))


APPLY_FORMS = {
    "plain": (SIG2, False, small_fractions, polys2),
    "localized": (LOC2, True, small_fractions, polysL),
    "params": (PSIG, True, param_polys(PSIG.nparams), polysP),
}


@pytest.mark.parametrize("kind", sorted(APPLY_FORMS))
@settings(max_examples=150)
@given(data=st.data())
def test_apply_matches_the_term_by_term_reference(kind, data):
    sig, laurent, coeffs, polys = APPLY_FORMS[kind]
    a = data.draw(st.one_of(_shared_shift_ops(sig, laurent, coeffs), operators(sig, laurent, coeffs)))
    f = data.draw(polys)
    for op, g in ((a, f), (a, f - f), (a - a, f), (Operator.zero(sig), Polynomial.zero(sig))):
        assert op.apply(g) == _reference_apply(op, g)


def test_apply_cancels_within_a_shift_group():
    # x1 d1 - 2 and a1 x1 d1 - 2 a1 share the net shift 0 and kill x1^2
    x1, d1 = Operator.x(PSIG, 1), Operator.d(PSIG, 1)
    a1 = PSIG.param(1)
    euler = x1 * d1 - Operator.constant(PSIG, 2)
    square = Polynomial.monomial(PSIG, (2, 0))
    assert euler.apply(square).is_zero()
    assert euler.scale(a1).apply(Polynomial.monomial(PSIG, (2, 1), a1)).is_zero()
    assert euler.apply(square + Polynomial.monomial(PSIG, (3, 0), a1)) == Polynomial.monomial(PSIG, (3, 0), a1)
    # d1 x1 = x1 d1 + 1, both entries of net shift 0: on x1^-1 they cancel
    assert (d1 * x1).apply(Polynomial.monomial(PSIG, (-1, 0))).is_zero()


def test_apply_plan_is_built_once_and_never_pickled(monkeypatch):
    built = []
    original = weyl._apply_plan
    monkeypatch.setattr(weyl, "_apply_plan", lambda op: built.append(op) or original(op))
    op = Operator.x(PSIG, 1) * Operator.d(PSIG, 2) - Operator.x(PSIG, 2, -1) * Operator.d(PSIG, 1) * PSIG.param(2)
    f = Polynomial.monomial(PSIG, (1, 2), PSIG.param(1))
    assert getattr(op, "_plan", None) is None
    first = op.apply(f)
    plan = op._plan
    assert op.apply(f) == first and op.apply(f + f) == _reference_apply(op, f + f)
    point = ((Fraction(2), Fraction(-1, 3)), (Fraction(1, 2), Fraction(0)))
    assert op.apply_at(f, *point) == first.evaluate(*point)
    assert built == [op] and op._plan is plan and op.apply_plan() is plan
    clone = pickle.loads(pickle.dumps(op))
    assert clone == op and getattr(clone, "_plan", None) is None
    assert clone.apply(f) == first


def test_apply_never_reaches_the_product_kernel(monkeypatch):
    op = commutator(Operator.x(PSIG, 1, -1) * Operator.d(PSIG, 2), Operator.x(PSIG, 2, 2) * PSIG.param(1))
    op = op * op + Operator.d(PSIG, 1, 2)
    f = random_polynomial(PSIG, random.Random(3)) + Polynomial.monomial(PSIG, (1, -1), PSIG.param(2))
    expected = _reference_apply(op, f)

    def refuse(*args, **kwargs):
        raise AssertionError("apply reached the product kernel")

    monkeypatch.setattr(weyl, "combination", refuse)
    monkeypatch.setattr(weyl, "_view", refuse)
    assert op.apply(f) == expected
    assert op.apply(op.apply(f)) == _reference_apply(op, expected)


nonzero_fractions = small_fractions.filter(bool)


@pytest.mark.parametrize("kind", sorted(APPLY_FORMS))
@settings(max_examples=150)
@given(data=st.data())
def test_apply_at_matches_apply_then_evaluate(kind, data):
    sig, laurent, coeffs, polys = APPLY_FORMS[kind]
    a = data.draw(st.one_of(_shared_shift_ops(sig, laurent, coeffs), operators(sig, laurent, coeffs)))
    f = data.draw(polys)
    coords = data.draw(st.tuples(*[nonzero_fractions] * sig.num_vars))
    # zero parameter values included
    params = data.draw(st.tuples(*[small_fractions] * sig.nparams))
    for op, g in ((a, f), (a, f - f), (a - a, f), (a, a.apply(f)), (a * a, f)):
        value = op.apply_at(g, coords, params)
        expected = op.apply(g).evaluate(coords, params)
        assert value == expected and type(value) is type(expected) is Fraction


def test_apply_at_on_shared_shifts_zero_parameters_and_zero_coordinates():
    x1, d1, d2 = Operator.x(PSIG, 1), Operator.d(PSIG, 1), Operator.d(PSIG, 2)
    a1 = PSIG.param(1)
    # x1 d1 - 2 and d1 x1 share the net shift 0, d1 and x1 d1^2 the shift -1 in x1
    op = x1 * d1 - Operator.constant(PSIG, 2) + (x1 * d1).scale(a1) + d1 * x1 + d1 + x1 * d1 * d1
    assert len(op.apply_plan()) < len(op.terms)
    f = Polynomial.monomial(PSIG, (2, 1), a1) + Polynomial.monomial(PSIG, (-1, 3), Fraction(-3, 2))
    for coords, params in (((Fraction(1, 2), Fraction(-3)), (Fraction(0), Fraction(0))),
                           ((Fraction(-2, 3), Fraction(5)), (Fraction(3, 4), Fraction(0)))):
        assert op.apply_at(f, coords, params) == op.apply(f).evaluate(coords, params)
        assert op.apply_at(Polynomial.zero(PSIG), coords, params) == 0
        assert Operator.zero(PSIG).apply_at(f, coords, params) == 0
    # every coordinate must be nonzero, localized or not, even where op f is a polynomial
    for coords in ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            d2.apply_at(Polynomial.monomial(PSIG, (1, 1)), coords, (Fraction(1), Fraction(1)))
        with pytest.raises(ZeroDivisionError):
            Operator.zero(SIG2).apply_at(Polynomial.monomial(SIG2, (1, 1)), coords)
    with pytest.raises(ValueError):
        d1.apply_at(Polynomial.monomial(SIG2, (1, 1)), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        d1.apply_at(f, (Fraction(1), Fraction(1)), (Fraction(1),))


def test_apply_at_never_reaches_the_product_kernel_or_the_evaluator(monkeypatch):
    op = commutator(Operator.x(PSIG, 1, -1) * Operator.d(PSIG, 2), Operator.x(PSIG, 2, 2) * PSIG.param(1))
    op = op * op + Operator.d(PSIG, 1, 2)
    f = random_polynomial(PSIG, random.Random(3)) + Polynomial.monomial(PSIG, (1, -1), PSIG.param(2))
    point = ((Fraction(-3, 2), Fraction(2, 5)), (Fraction(0), Fraction(7, 3)))
    expected = op.apply(f).evaluate(*point)

    def refuse(*args, **kwargs):
        raise AssertionError("apply_at reached the product kernel or the evaluator")

    for name in ("combination", "_view", "evaluator"):
        monkeypatch.setattr(weyl, name, refuse)
    monkeypatch.setattr(Polynomial, "evaluate", refuse)
    assert op.apply_at(f, *point) == expected


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


# Relabelling: plain, localized (1 and 3 localized, so 1 <-> 3 is the one
# nontrivial renaming that keeps them) and parameter signatures.
LOC3 = AlgebraSignature(3, localized=frozenset({1, 3}))
RELABEL_FORMS = {
    "plain": (SIG2, ops2),
    "localized": (LOC3, operators(LOC3, laurent=True)),
    "params": (PSIG, opsP),
}


def _renamings(sig):
    """(variable map, parameter map) pairs that keep the localized variables localized."""
    keeps = lambda vs: {vs[v - 1] for v in sig.localized} == sig.localized
    variables = st.permutations(range(1, sig.num_vars + 1)).filter(keeps)
    return st.tuples(variables, st.permutations(range(1, sig.nparams + 1)))


def _inverse(perm):
    out = [0] * len(perm)
    for i, image in enumerate(perm, 1):
        out[image - 1] = i
    return out


@pytest.mark.parametrize("kind", sorted(RELABEL_FORMS))
@given(data=st.data())
def test_relabel_is_an_automorphism_and_inverts(kind, data):
    # the orbit sweep of racah rests on these three facts
    sig, ops = RELABEL_FORMS[kind]
    a, b = data.draw(ops), data.draw(ops)
    variables, params = data.draw(_renamings(sig))
    move = lambda op: relabel(op, variables, params)
    assert move(a * b) == move(a) * move(b)
    assert move(commutator(a, b)) == commutator(move(a), move(b))
    assert relabel(move(a), _inverse(variables), _inverse(params)) == a
    assert move(a).term_count() == a.term_count() and move(a).den == a.den


def test_relabel_examples():
    # x1 d2 with x1 -> x2 and x2 -> x1 is x2 d1; a1 x1^-2 with a1 <-> a2, x1 <-> x2 is a2 x2^-2
    x1d2 = Operator.x(SIG2, 1) * Operator.d(SIG2, 2)
    assert relabel(x1d2, (2, 1)) == Operator.x(SIG2, 2) * Operator.d(SIG2, 1)
    assert relabel(x1d2, (1, 2)) == x1d2
    potential = Operator.x(PSIG, 1, -2) * PSIG.param(1)
    assert relabel(potential, (2, 1), (2, 1)) == Operator.x(PSIG, 2, -2) * PSIG.param(2)
    assert relabel(potential, (2, 1), (1, 2)) == Operator.x(PSIG, 2, -2) * PSIG.param(1)


@pytest.mark.parametrize(
    "sig, variables, params",
    [(SIG2, (1, 1), ()), (SIG2, (1,), ()), (SIG2, (1, 3), ()), (PSIG, (1, 2), (1,)), (LOC2, (2, 1), ())],
)
def test_relabel_refuses_maps_that_are_not_renamings(sig, variables, params):
    # not a permutation, wrong length, or a localized variable sent to a non-localized one
    with pytest.raises(ValueError):
        relabel(Operator.x(sig, 1), variables, params)
