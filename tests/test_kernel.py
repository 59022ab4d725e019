"""The packed and integer fast paths against their references.

``_reference_mul_terms`` below is the product kernel written directly in
``Fraction`` arithmetic, kept verbatim as a test oracle.  The production
kernel (``Operator.__mul__`` and ``commutator``) sweeps monomial pairs
on packed integer keys and works on the flat (monomial, parameter
exponent) -> integer numerator maps operators store, each over its
operand's denominator; every numerator of the result, divided by
den_a * den_b, must equal the reference coefficient exactly, key for
key, so every printed operator and every report built from it stays bit
for bit the same.

``_reference_tuple_product`` and ``_reference_tuple_commutator`` are the
integer sweeps the packed ones replaced, on exponent tuples: one tuple
per pair and per reorder term.  The packed sweeps must give the same
(terms, den), at every field width the packing picks.  ``combination``,
which sums products and brackets in one packed accumulator, must give
the same (terms, den) as the sum taken with ``*``, ``commutator``, ``+``
and ``-``.

``_reference_apply`` and ``_reference_evaluate`` are ``Operator.apply``
and ``Polynomial.evaluate`` as they were written in Fraction arithmetic
over ``exponent -> ParamPoly`` test functions, kept the same way: the
integer versions must give the same coefficients, the same values and
the same value types, so every oracle verdict stays the same.  The
oracle's ``weyl.evaluator``, which computes (A f)(p) without building
A f, is held to both: the integer ``apply`` + ``evaluate`` and the
Fraction references.

The references share no helper with the code they check: the reorder
table, the falling factorial and the grouping by monomial are written
again here, so a wrong reorder coefficient in ``weyl`` cannot cancel
between the two sides.
"""

import itertools
import pickle
import random
from fractions import Fraction
from math import comb
from operator import add
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from racahverify import racah, reduction, weyl
from racahverify._parallel import run_tasks
from racahverify.suites import identity_catalog
from racahverify.coeff import ParamPoly
from racahverify.liealg import SO2nContext
from racahverify.oracle import random_point, random_polynomial
from racahverify.weyl import (
    AlgebraSignature,
    Operator,
    Polynomial,
    _layout_for,
    _width,
    combination,
    commutator,
    evaluator,
)

from test_weyl import (
    LOC1,
    LOC2,
    PSIG,
    SIG2,
    operators,
    ops2,
    opsL,
    opsP,
    param_polys,
    polys2,
    polysL,
    polysP,
    small_fractions,
)

# Three variables, the second localized, two parameters: pairs whose derivatives
# meet positions on several variables at once, in either direction, and rows
# (monomial, parameter exponent) that share a monomial.
SIG3P = AlgebraSignature(3, localized=frozenset({2}), nparams=2)
ops3P = operators(SIG3P, laurent=True, coeffs=param_polys(SIG3P.nparams))


def _reference_falling(k, s):
    """k(k-1)...(k-s+1), stopping at the first zero factor."""
    out = 1
    for t in range(s):
        out *= k - t
        if not out:
            break
    return out


def _reference_reorder_options(b, k):
    """(s, C(b,s) * k(k-1)...(k-s+1)) for s = 0, 1, ... up to b or the first zero factor.

    The falling factorial stays zero once a factor k - t is zero, so the
    loop never walks a large b past a small k >= 0.
    """
    options, falling = [], 1
    for s in itertools.count():
        if s > b or not falling:
            return options
        options.append((s, comb(b, s) * falling))
        falling *= k - s


def _reference_by_monomial(terms):
    """Flat (mono, pexp) -> num entries grouped as [(mono, [(pexp, num), ...]), ...]."""
    grouped: dict[tuple, list] = {}
    for (mono, pe), q in terms.items():
        grouped.setdefault(mono, []).append((pe, q))
    return list(grouped.items())


def _reference_cross(ca, cb):
    """The product of two coefficient polynomials as (pexp, num) pairs."""
    if len(ca) == 1 and len(cb) == 1:
        (pa, fa), = ca
        (pb, fb), = cb
        if any(pa) or any(pb):
            pa = tuple(map(add, pa, pb))
        return ((pa, fa * fb),)
    cross: dict[tuple, int] = {}
    for pa, fa in ca:
        for pb, fb in cb:
            pe = tuple(map(add, pa, pb))
            cross[pe] = cross.get(pe, 0) + fa * fb
    return tuple(cross.items())


def _reference_reorder_into(acc, m, ma, mb, active, cpairs, first, sign):
    """Add sign * (the reorder terms of ma * mb from the first-th on) to acc."""
    base = list(map(add, ma, mb))
    option_lists = [_reference_reorder_options(ma[m + i], mb[i]) for i in active]
    for combo in itertools.islice(itertools.product(*option_lists), first, None):
        factor = sign
        mono_list = base[:]
        for i, (s, f) in zip(active, combo):
            factor *= f
            if s:
                mono_list[i] -= s
                mono_list[m + i] -= s
        mono = tuple(mono_list)
        for pe, q in cpairs:
            key = (mono, pe)
            acc[key] = acc.get(key, 0) + q * factor


def _reference_tuple_product(m, aterms, bterms):
    """The flat numerators of ab over den_a * den_b, swept on exponent tuples."""
    bitems = _reference_by_monomial(bterms)
    acc: dict[tuple, int] = {}
    for ma, ca in _reference_by_monomial(aterms):
        da_nonzero = [i for i in range(m) if ma[m + i]]
        for mb, cb in bitems:
            active = [i for i in da_nonzero if mb[i]]
            _reference_reorder_into(acc, m, ma, mb, active, _reference_cross(ca, cb), 0, 1)
    return {key: q for key, q in acc.items() if q}


def _reference_tuple_commutator(m, aterms, bterms):
    """The flat numerators of ab - ba over den_a * den_b, swept on exponent tuples."""
    bitems = [(mb, cb, [i for i in range(m) if mb[m + i]]) for mb, cb in _reference_by_monomial(bterms)]
    acc: dict[tuple, int] = {}
    for ma, ca in _reference_by_monomial(aterms):
        da_nonzero = [i for i in range(m) if ma[m + i]]
        for mb, cb, db_nonzero in bitems:
            ab = [i for i in da_nonzero if mb[i]]
            ba = [i for i in db_nonzero if ma[i]]
            if not (ab or ba):
                continue
            cpairs = _reference_cross(ca, cb)
            if ab:
                _reference_reorder_into(acc, m, ma, mb, ab, cpairs, 1, 1)
            if ba:
                _reference_reorder_into(acc, m, mb, ma, ba, cpairs, 1, -1)
    return {key: q for key, q in acc.items() if q}


def _tuple_reference(sweep, a, b):
    """The tuple sweep's result as an operator, reduced like the kernel's."""
    return Operator._make(a.sig, sweep(a.sig.num_vars, a.terms, b.terms), a.den * b.den)


def _reference_mul_terms(
    m: int,
    aterms: Mapping[tuple, ParamPoly],
    bterms: Mapping[tuple, ParamPoly],
) -> dict[tuple, dict[tuple, Fraction]]:
    """Multiply two canonical term maps; returns mono -> {pexp: coeff}.

    Accumulates into a flat dict keyed by (monomial, parameter exponent)
    so the massive cancellations in commutators happen during the sweep,
    not in a post-pass.
    """
    acc: dict[tuple, Fraction] = {}
    acc_get = acc.get
    bitems = list(bterms.items())
    for ma, ca in aterms.items():
        da_nonzero = [i for i in range(m) if ma[m + i]]
        ca_items = list(ca.terms.items())
        for mb, cb in bitems:
            # cross products of the two coefficient polynomials
            if len(ca_items) == 1 and len(cb.terms) == 1:
                (pa, fa), = ca_items
                (pb, fb), = cb.terms.items()
                if any(pa) or any(pb):
                    pa = tuple(x + y for x, y in zip(pa, pb))
                cpairs = ((pa, fa * fb),)
            else:
                cross: dict[tuple, Fraction] = {}
                for pa, fa in ca_items:
                    for pb, fb in cb.terms.items():
                        pe = tuple(x + y for x, y in zip(pa, pb))
                        v = cross.get(pe)
                        cross[pe] = fa * fb if v is None else v + fa * fb
                cpairs = tuple(cross.items())

            base = [x + y for x, y in zip(ma, mb)]
            active = [i for i in da_nonzero if mb[i]]
            if not active:
                mono = tuple(base)
                for pe, q in cpairs:
                    key = (mono, pe)
                    v = acc_get(key)
                    acc[key] = q if v is None else v + q
                continue
            option_lists = [_reference_reorder_options(ma[m + i], mb[i]) for i in active]
            for combo in itertools.product(*option_lists):
                factor = 1
                mono_list = base[:]
                for i, (s, f) in zip(active, combo):
                    factor *= f
                    if s:
                        mono_list[i] -= s
                        mono_list[m + i] -= s
                mono = tuple(mono_list)
                for pe, q in cpairs:
                    key = (mono, pe)
                    v = acc_get(key)
                    acc[key] = q * factor if v is None else v + q * factor
    grouped: dict[tuple, dict[tuple, Fraction]] = {}
    for (mono, pe), q in acc.items():
        if q:
            grouped.setdefault(mono, {})[pe] = q
    return grouped


def _flat_fractions(grouped):
    """mono -> {pexp: Fraction} as one (mono, pexp) -> Fraction map."""
    return {(mono, pe): q for mono, d in grouped.items() for pe, q in d.items()}


def _assert_kernels_agree(a, b):
    """a * b against the tuple sweep (as stored) and the Fraction reference (as values)."""
    got = a * b
    assert len(a._packed.rows) == len(a.terms) and len(b._packed.rows) == len(b.terms)
    expected = _tuple_reference(_reference_tuple_product, a, b)
    assert (got.terms, got.den) == (expected.terms, expected.den)
    assert all(type(mono) is tuple and type(pe) is tuple for mono, pe in got.terms)
    assert all(type(q) is int and q for q in got.terms.values())
    values = {key: Fraction(q, got.den) for key, q in got.terms.items()}
    reference = _flat_fractions(_reference_mul_terms(a.sig.num_vars, a.coefficients(), b.coefficients()))
    assert values == reference
    assert all(type(q) is Fraction for q in reference.values())
    return values


STRATEGIES = {"plain": ops2, "laurent": opsL, "params": opsP, "three": ops3P}


@pytest.mark.parametrize("kind", sorted(STRATEGIES))
@settings(max_examples=150)
@given(data=st.data())
def test_kernel_matches_reference(kind, data):
    ops = STRATEGIES[kind]
    a, b = data.draw(ops), data.draw(ops)
    _assert_kernels_agree(a, b)
    _assert_kernels_agree(b, a)
    _assert_kernels_agree(a, a)


@pytest.mark.parametrize("kind", sorted(STRATEGIES))
@given(data=st.data())
def test_one_pass_subtraction_matches_negate_then_add(kind, data):
    ops = STRATEGIES[kind]
    a, b = data.draw(ops), data.draw(ops)
    diff, reference = a - b, a + (-b)
    assert (diff.terms, diff.den) == (reference.terms, reference.den)
    assert diff.coefficients() == reference.coefficients()
    for c, d in zip(a.coefficients().values(), b.coefficients().values()):
        assert list((c - d).terms.items()) == list((c + (-d)).terms.items())


def test_mixed_denominator_parameter_coefficients():
    c = ParamPoly(2, {(1, 0): Fraction(2, 3), (0, 2): Fraction(-5, 4), (0, 0): 7})
    d = ParamPoly(2, {(0, 1): Fraction(1, 6), (1, 0): Fraction(-2, 3)})
    x = Operator.monomial(PSIG, (-2, 1), (1, 2), c) + Operator.monomial(PSIG, (1, 0), (0, 1), d)
    y = Operator.monomial(PSIG, (3, -1), (2, 0), d) + Operator.monomial(PSIG, (0, 2), (1, 1), c)
    got = _assert_kernels_agree(x, y)
    assert got and any(q.denominator > 1 for q in got.values())


def _assert_commutator_matches_reference(a, b):
    """commutator(a, b) against the tuple sweep and a*b - b*a (as stored) and the reference products (as values)."""
    got = commutator(a, b)
    for expected in (_tuple_reference(_reference_tuple_commutator, a, b), a * b - b * a):
        assert (got.terms, got.den) == (expected.terms, expected.den)
    m = a.sig.num_vars
    ab = _flat_fractions(_reference_mul_terms(m, a.coefficients(), b.coefficients()))
    ba = _flat_fractions(_reference_mul_terms(m, b.coefficients(), a.coefficients()))
    difference = {key: ab.get(key, 0) - ba.get(key, 0) for key in ab.keys() | ba.keys()}
    assert {key: Fraction(q, got.den) for key, q in got.terms.items()} == {k: q for k, q in difference.items() if q}
    return got


@pytest.mark.parametrize("kind", sorted(STRATEGIES))
@settings(max_examples=150)
@given(data=st.data())
def test_fused_commutator_matches_product_difference(kind, data):
    ops = STRATEGIES[kind]
    a, b = data.draw(ops), data.draw(ops)
    _assert_commutator_matches_reference(a, b)
    _assert_commutator_matches_reference(b, a)
    assert _assert_commutator_matches_reference(a, a).is_zero()


def test_row_sweep_with_several_active_variables_in_both_directions():
    c = ParamPoly(2, {(1, 0): Fraction(2, 3), (0, 2): -1, (0, 0): Fraction(1, 2)})
    d = ParamPoly(2, {(0, 1): Fraction(-5, 4), (2, 0): 3})
    a = Operator.monomial(SIG3P, (0, -1, 2), (2, 1, 1), c) + Operator.monomial(SIG3P, (1, 0, 0), (0, 0, 2), d)
    b = Operator.monomial(SIG3P, (1, 2, 1), (0, 1, 2), d) + Operator.monomial(SIG3P, (2, -2, 0), (1, 0, 0), c)
    # a's first monomial meets b's first on three variables one way and two the other
    _assert_kernels_agree(a, b)
    _assert_kernels_agree(b, a)
    assert len(a._packed.rows) == 5 and len({mono for mono, *_ in a._packed.rows}) == 2
    _assert_commutator_matches_reference(a, b)
    _assert_commutator_matches_reference(b, a)


def test_fused_commutator_rejects_mixed_signatures():
    with pytest.raises(ValueError):
        commutator(Operator.x(SIG2, 1), Operator.d(LOC2, 1))


def test_n4_f_product_and_bracket_match_reference():
    basis = racah.CommutantBasis(SO2nContext(4))
    f123, f234 = basis.f(1, 2, 3), basis.f(2, 3, 4)
    assert f123.term_count() == f234.term_count() == 72
    assert len(_assert_kernels_agree(f123, f234)) == 4534
    assert len(_assert_kernels_agree(f234, f123)) == 4534
    assert (f123 * f234).term_count() == 4534
    assert _assert_commutator_matches_reference(f123, f234).term_count() == 2072
    assert _assert_commutator_matches_reference(f234, f123).term_count() == 2072


def test_reduced_n5_pair_bracket_matches_reference():
    basis = reduction.ReducedBasis(reduction.ReducedContext(5))
    p12, p23 = basis.p(1, 2), basis.p(2, 3)
    assert any(any(pe) for _, pe in p12.terms)
    assert any(mono[i] < 0 for mono, _ in p12.terms for i in range(5))
    bracket = _assert_commutator_matches_reference(p12, p23)
    assert not bracket.is_zero()
    assert any(any(pe) for _, pe in bracket.terms)


def _arithmetic_sum(terms):
    """The sum combination(terms) stands for, taken with *, commutator, + and -."""
    total = Operator.zero(terms[0][1].sig)
    for c, a, b, bracket in terms:
        term = (commutator(a, b) if bracket else a * b) * abs(c)
        total = total + term if c >= 0 else total - term
    return total


def _assert_combination_matches_arithmetic(terms):
    got = combination(terms)
    expected = _arithmetic_sum(terms)
    assert (got.terms, got.den) == (expected.terms, expected.den)
    return got


@pytest.mark.parametrize("kind", sorted(STRATEGIES))
@settings(max_examples=100)
@given(data=st.data())
def test_combination_matches_operator_arithmetic(kind, data):
    ops = STRATEGIES[kind]
    term = st.tuples(small_fractions, ops, ops, st.booleans())
    terms = data.draw(st.lists(term, min_size=1, max_size=4))
    _assert_combination_matches_arithmetic(terms)
    # the same terms with their signs flipped cancel the sum exactly
    cancelled = combination(terms + [(-c, a, b, bracket) for c, a, b, bracket in terms])
    assert cancelled.is_zero() and cancelled.den == 1


def test_combination_with_mixed_denominators_and_widths():
    a, b = _boundary_operators(2**14)
    x, y = _boundary_operators(3)
    assert _layout_for(((x, y), (y, x))).width == 16
    assert _layout_for(((x, y), (a, b), (y, x))).width == 32
    terms = [
        (Fraction(2, 3), x, y, False),
        (Fraction(-5, 4), a, b, False),
        (Fraction(7, 6), y, x, True),
        (-3, x, x, False),
    ]
    got = _assert_combination_matches_arithmetic(terms)
    assert got.den > 1 and any(mono[0] == -2 * 2**14 for mono, _ in got.terms)


def test_empty_combination_raises_value_error():
    with pytest.raises(ValueError, match="at least one term"):
        combination([])


def test_combination_cancels_to_zero_over_denominator_one():
    x, y = _boundary_operators(3)
    third = Fraction(1, 3)
    zero = combination([(third, x, y, True), (-third, x, y, False), (third, y, x, False)])
    assert zero.is_zero() and zero.den == 1 and zero == Operator.zero(PSIG)


def test_combination_rejects_mixed_signatures():
    with pytest.raises(ValueError):
        combination([(1, Operator.x(SIG2, 1), Operator.d(SIG2, 1), False),
                     (1, Operator.x(LOC2, 1), Operator.d(LOC2, 1), True)])
    with pytest.raises(ValueError):
        combination([(1, Operator.x(SIG2, 1), Operator.d(LOC2, 1), True)])


def test_field_width_rule():
    assert _width(0) == _width(2**14 - 1) == (16, "h")
    assert _width(2**14) == _width(2**30 - 1) == (32, "i")
    assert _width(2**30) == _width(2**62 - 1) == (64, "q")
    with pytest.raises(OverflowError):
        _width(2**62)


def _boundary_operators(e):
    """Two operators whose position, Laurent, derivative and parameter exponents reach e.

    A large derivative exponent only ever meets a small positive position
    exponent, and a negative one only small derivatives, so every pair
    among a*b, b*a and a*a has few reorder terms.  (b*b would not.)
    """
    a1 = PSIG.param(1)
    big = ParamPoly(2, {(e, 0): Fraction(3, 2), (0, 1): -1})
    a = (
        Operator.monomial(PSIG, (e, 1), (2, 0), a1)
        + Operator.monomial(PSIG, (-e, 0), (0, 1), big)
        + Operator.monomial(PSIG, (2, 0), (0, 3), Fraction(-1, 3))
    )
    b = (
        Operator.monomial(PSIG, (-e, 2), (0, 1), Fraction(5, 4))
        + Operator.monomial(PSIG, (1, -3), (0, e), big)
        + Operator.monomial(PSIG, (0, e), (1, 0), a1 * a1)
    )
    return a, b


@pytest.mark.parametrize(
    "e, width", [(2**13 - 1, 16), (2**14, 32), (2**30, 64), (2**40, 64)], ids=["2^13-1", "2^14", "2^30", "2^40"]
)
def test_packed_sweeps_at_the_width_boundaries(e, width):
    a, b = _boundary_operators(e)
    assert _layout_for(((a, b),)).width == width
    for x, y in ((a, b), (b, a), (a, a)):
        _assert_kernels_agree(x, y)
        _assert_commutator_matches_reference(x, y)
    assert any(mono[0] == -2 * e for mono, _ in (a * b).terms)  # Laurent exponents below -e decode intact
    assert any(mono[3] == e for mono, _ in (b * a).terms)
    assert any(pe[0] == 2 * e for _, pe in (a * a).terms)


def test_exponents_beyond_64_bit_fields_raise():
    for sig in (SIG2, PSIG):
        huge = Operator.x(sig, 1, 2**62)
        with pytest.raises(OverflowError):
            huge * Operator.d(sig, 1)
        with pytest.raises(OverflowError):
            commutator(Operator.d(sig, 2), huge)
    a1 = ParamPoly(2, {(2**62, 0): 1})
    with pytest.raises(OverflowError):
        Operator.constant(PSIG, a1) * Operator.d(PSIG, 1)
    # just inside: 2 * (2^61 + 1) < 2^63
    _assert_kernels_agree(Operator.x(SIG2, 1, 2**61), Operator.d(SIG2, 1))


def test_views_are_reused_and_repacked():
    basis = racah.CommutantBasis(SO2nContext(4))
    f, p = basis.f(1, 2, 3), basis.p(1, 2)
    first = _assert_kernels_agree(f, p)
    view = f._packed
    assert _assert_kernels_agree(f, p) == first and f._packed is view
    assert _assert_kernels_agree(f, f)
    assert _assert_commutator_matches_reference(f, f).is_zero()
    assert f._packed is view
    # a wider pair repacks f, and the next narrow pair packs it back
    wide = Operator.x(f.sig, 3, 2**20)
    _assert_kernels_agree(f, wide)
    assert f._packed.width == 32
    assert _assert_kernels_agree(f, p) == first
    assert f._packed.width == 16


def test_pickled_operators_drop_the_view_and_multiply_the_same():
    basis = reduction.ReducedBasis(reduction.ReducedContext(4))
    p12, f123 = basis.p(1, 2), basis.f(1, 2, 3)
    product, bracket = p12 * f123, commutator(p12, f123)
    assert p12._packed is not None
    clone = pickle.loads(pickle.dumps(p12))
    assert clone == p12 and getattr(clone, "_packed", None) is None
    assert len(pickle.dumps(p12)) == len(pickle.dumps(clone))
    for _ in range(2):
        assert clone * f123 == product and commutator(clone, f123) == bracket
        clone = pickle.loads(pickle.dumps(clone))


def test_fork_pool_products_match_serial():
    basis = racah.CommutantBasis(SO2nContext(4))
    ops = [basis.p(1, 2), basis.p(2, 3), basis.f(1, 2, 3), basis.f(2, 3, 4)]
    pairs = [(i, j) for i in range(len(ops)) for j in range(len(ops))]

    def work(pair):
        a, b = ops[pair[0]], ops[pair[1]]
        return a * b, commutator(a, b)

    serial = [work(pair) for pair in pairs]  # caches every view before the fork
    assert run_tasks(work, pairs, jobs=2) == serial


def test_operator_keys_are_validated():
    c = ParamPoly.const(0, 1)
    with pytest.raises(ValueError):
        Operator(SIG2, {(-1, 0, 0, 0): c})  # x1^-1 on a non-localized variable
    with pytest.raises(ValueError):
        Operator(AlgebraSignature(1), {(1, 0, 0): c})  # three exponents for one variable
    with pytest.raises(ValueError):
        Operator(LOC1, {(0, -2): c})  # d1^-2
    with pytest.raises(ValueError):
        Operator(PSIG, {(0, 0, 0, 0): c})  # coefficient arity 0 in a 2-parameter signature
    with pytest.raises(ValueError):
        Operator.monomial(SIG2, (1,), (0, 0, 0))
    with pytest.raises(ValueError):
        Operator.monomial(SIG2, (-1, 0), (0, 0), 0)  # checked even with a zero coefficient
    assert Operator(LOC1, {(-1, 2): c}) == Operator.monomial(LOC1, (-1,), (2,))
    # exponents are ints: 2.0 would print x1^2.0, which does not parse back
    for build in (
        lambda: Operator.x(SIG2, 1, 2.0),
        lambda: Operator.d(SIG2, 2, Fraction(1)),
        lambda: Operator.monomial(SIG2, (0, 0), (1, 0.5)),
        lambda: Operator(LOC1, {(-1.0, 0): c}),
        lambda: Polynomial.monomial(SIG2, (2.0, 0)),
        lambda: Polynomial(SIG2, {(0, "1"): c}),
    ):
        with pytest.raises(TypeError):
            build()


def test_param_poly_exponents_are_validated():
    with pytest.raises(ValueError):
        ParamPoly(1, {(-1,): Fraction(1)})
    with pytest.raises(ValueError):
        ParamPoly(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        ParamPoly(1, {(1,): Fraction(1), (0, 0): Fraction(0)})
    with pytest.raises(TypeError):
        ParamPoly(2, {(1.0, 0): Fraction(1)})
    assert str(ParamPoly(1, {(2,): Fraction(1, 2)})) == "1/2*a1^2"


def _reference_scale(op: Operator, value) -> Operator:
    c = op.sig.coeff(value)
    return Operator(op.sig, {mo: co * c for mo, co in op.coefficients().items()})


SCALARS = {
    "plain": (ops2, small_fractions),
    "laurent": (opsL, small_fractions),
    "params": (opsP, param_polys(PSIG.nparams)),
}


@pytest.mark.parametrize("kind", sorted(SCALARS))
@given(data=st.data())
def test_scale_matches_reference(kind, data):
    ops, scalars = SCALARS[kind]
    a = data.draw(ops)
    for c in (data.draw(scalars), data.draw(small_fractions), data.draw(st.integers(-3, 3))):
        got, expected = a.scale(c), _reference_scale(a, c)
        assert (got.terms, got.den) == (expected.terms, expected.den)


def _reference_apply(op: Operator, fterms: Mapping[tuple, ParamPoly]) -> dict[tuple, ParamPoly]:
    """Act on a (Laurent) polynomial by direct differentiation.

    Independent of the multiplication kernel on purpose: this is the
    semantic oracle the normal-ordering rule is checked against.  The
    operator's integer numerators scale the test function's Fraction
    coefficients, and each output coefficient is divided by den once.
    """
    m = op.sig.num_vars
    acc: dict[tuple, Fraction] = {}
    for (mo, pa), na in op.terms.items():
        xa, da = mo[:m], mo[m:]
        dvars = [i for i in range(m) if da[i]]
        for k, cf in fterms.items():
            factor = 1
            for i in dvars:
                factor *= _reference_falling(k[i], da[i])
                if not factor:
                    break
            if not factor:
                continue
            newexp = tuple(k[i] - da[i] + xa[i] for i in range(m))
            for pb, fb in cf.terms.items():
                pe = tuple(x + y for x, y in zip(pa, pb)) if (any(pa) or any(pb)) else pa
                key = (newexp, pe)
                v = acc.get(key)
                q = fb * (na * factor)
                acc[key] = q if v is None else v + q
    grouped: dict[tuple, dict[tuple, Fraction]] = {}
    for (xe, pe), q in acc.items():
        if q:
            grouped.setdefault(xe, {})[pe] = q / op.den
    nparams = op.sig.nparams
    return {xe: ParamPoly(nparams, d) for xe, d in grouped.items()}


def _reference_evaluate(sig, fterms: Mapping[tuple, ParamPoly], coords, params=()) -> Fraction:
    """Exact value at a rational point; localized coordinates must be nonzero."""
    if len(coords) != sig.num_vars:
        raise ValueError("coordinate count differs from num_vars")
    total = Fraction(0)
    for xe, c in fterms.items():
        v = c.evaluate(params)
        for x, k in zip(coords, xe):
            if k:
                v = v * Fraction(x) ** k
        total += v
    return total


def _outcome(fn, *args):
    """(value, type) of fn(*args), or the type of the exception it raises."""
    try:
        value = fn(*args)
    except ZeroDivisionError as exc:
        return type(exc)
    return value, type(value)


def _assert_evaluations_agree(f, coords, params=()):
    got = _outcome(f.evaluate, coords, params)
    assert got == _outcome(_reference_evaluate, f.sig, f.coefficients(), coords, params)
    return got


POLY_STRATEGIES = {"plain": (ops2, polys2), "laurent": (opsL, polysL), "params": (opsP, polysP)}


@pytest.mark.parametrize("kind", sorted(POLY_STRATEGIES))
@settings(max_examples=150)
@given(data=st.data())
def test_apply_and_evaluate_match_reference(kind, data):
    ops, polys = POLY_STRATEGIES[kind]
    a, f = data.draw(ops), data.draw(polys)
    sig = a.sig
    # zero coordinates included: a negative exponent there must raise in both paths
    coords = data.draw(st.tuples(*[small_fractions] * sig.num_vars))
    params = data.draw(st.tuples(*[small_fractions] * sig.nparams))
    g = a.apply(f)
    assert g.coefficients() == _reference_apply(a, f.coefficients())
    assert all(type(q) is int for q in g.terms.values())
    _assert_evaluations_agree(f, coords, params)
    _assert_evaluations_agree(g, coords, params)
    _assert_evaluations_agree(a.apply(g), coords, params)


def test_evaluate_all_negative_exponents():
    a1, a2 = PSIG.param(1), PSIG.param(2)
    f = Polynomial.monomial(PSIG, (-2, -1), a1 * Fraction(2, 3) + a2 * a2 - 5) + Polynomial.monomial(
        PSIG, (-1, -3), a1 * Fraction(-1, 4)
    )
    assert max(max(xe) for xe in f.coefficients()) < 0
    coords, params = (Fraction(-3, 2), Fraction(2, 7)), (Fraction(1, 2), Fraction(-3))
    value, kind = _assert_evaluations_agree(f, coords, params)
    assert kind is Fraction and value.denominator > 1
    d1 = Operator.d(PSIG, 1)
    assert d1.apply(f).coefficients() == _reference_apply(d1, f.coefficients())


def test_zero_polynomial_evaluates_and_applies_to_zero():
    for sig in (SIG2, LOC2, PSIG):
        zero = Polynomial.zero(sig)
        coords, params = (Fraction(0),) * sig.num_vars, (Fraction(5, 2),) * sig.nparams
        assert _assert_evaluations_agree(zero, coords, params) == (Fraction(0), Fraction)
        assert (zero.terms, zero.den) == ({}, 1)
        assert Operator.d(sig, 1).apply(zero) == zero
        assert Operator.zero(sig).apply(Polynomial.monomial(sig, (1, 1))) == zero
        value = zero.evaluate((Fraction(1, 3),) * sig.num_vars, params)
        assert value == 0 and type(value) is Fraction
        with pytest.raises(ValueError):
            zero.evaluate(coords[1:], params)
        with pytest.raises(TypeError):
            zero.evaluate((0.5,) * sig.num_vars, params)


def test_negative_exponent_at_a_zero_localized_coordinate_raises():
    sig = AlgebraSignature(2, localized=frozenset({1}))
    f = Polynomial.monomial(sig, (-1, 2), Fraction(3, 2)) + Polynomial.monomial(sig, (1, 0))
    assert _assert_evaluations_agree(f, (Fraction(0), Fraction(1, 3))) is ZeroDivisionError
    with pytest.raises(ZeroDivisionError):
        f.evaluate((Fraction(0), Fraction(1, 3)))
    # a zero coordinate under non-negative exponents only is an ordinary point
    g = Polynomial.monomial(sig, (0, 2), Fraction(3, 2)) + Polynomial.monomial(sig, (1, 0))
    assert _assert_evaluations_agree(g, (Fraction(0), Fraction(1, 3))) == (Fraction(1, 6), Fraction)


def _assert_evaluator_agrees(op, f, coords, params=()):
    """The evaluator against apply + evaluate and the Fraction references: same value, same type."""
    got = _outcome(evaluator(op), f, coords, params)
    assert got == _outcome(op.apply(f).evaluate, coords, params)
    reference = _reference_apply(op, f.coefficients())
    assert got == _outcome(_reference_evaluate, op.sig, reference, coords, params)
    value, kind = got
    assert kind is Fraction
    return value


nonzero_fractions = small_fractions.filter(bool)


@pytest.mark.parametrize("kind", sorted(POLY_STRATEGIES))
@settings(max_examples=150)
@given(data=st.data())
def test_evaluator_matches_apply_then_evaluate(kind, data):
    ops, polys = POLY_STRATEGIES[kind]
    a, f = data.draw(ops), data.draw(polys)
    sig = a.sig
    # zero non-localized coordinates and zero parameter values included
    coords = data.draw(
        st.tuples(*[nonzero_fractions if i + 1 in sig.localized else small_fractions for i in range(sig.num_vars)])
    )
    params = data.draw(st.tuples(*[small_fractions] * sig.nparams))
    _assert_evaluator_agrees(a, f, coords, params)
    _assert_evaluator_agrees(a, a.apply(f), coords, params)
    _assert_evaluator_agrees(a * a, f, coords, params)


def _zero_off_localized(sig, coords):
    return tuple(c if i + 1 in sig.localized else Fraction(0) for i, c in enumerate(coords))


def test_evaluator_on_the_oracle_workload():
    ctx = SO2nContext(3)
    product = racah.make_K(ctx, 1, 2) * racah.make_K(ctx, 2, 3)
    name, relation_b, _ = identity_catalog(3)[5]
    assert name == "relation-b"
    assert (product.term_count(), relation_b.term_count()) == (469, 440)
    triple = reduction.make_reduced_J(reduction.ReducedContext(2), 1)
    rng = random.Random(5)
    for op in (product, relation_b, triple.Jm * triple.Jp):
        sig = op.sig
        for _ in range(3):
            f = random_polynomial(sig, rng, max_exp=5)
            coords, params = random_point(sig, rng)
            assert _assert_evaluator_agrees(op, f, coords, params)
            _assert_evaluator_agrees(op, f, _zero_off_localized(sig, coords), (Fraction(0),) * sig.nparams)


def _test_function(sig, count, rng):
    """A test function of exactly count monomials, Laurent on localized
    variables, with parameter coefficients where sig has parameters."""
    monos = set()
    while len(monos) < count:
        monos.add(tuple(rng.randint(-2 if i + 1 in sig.localized else 0, 5) for i in range(sig.num_vars)))
    terms = {}
    for mono in sorted(monos):
        c = sig.coeff(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
        if sig.nparams and rng.random() < 0.5:
            c = c + sig.param(rng.randint(1, sig.nparams)) * rng.randint(1, 2)
        terms[mono] = c
    return Polynomial(sig, terms)


def test_one_evaluator_across_changing_test_functions():
    ctx = SO2nContext(3)
    triple = reduction.make_reduced_J(reduction.ReducedContext(2), 1)
    ops = {
        "K12*K23": racah.make_K(ctx, 1, 2) * racah.make_K(ctx, 2, 3),
        "relation-b": identity_catalog(3)[5][1],
        "J-*J+": triple.Jm * triple.Jp,
        "no differentiated variable": Operator.x(PSIG, 1, -2) * PSIG.param(1) + Operator.x(PSIG, 2, 3) + Operator.constant(PSIG, 4),
        "no varying position column": Operator.d(SIG2, 2, 3),
        "no varying column, two classes": Operator.d(LOC2, 1) * 2 + Operator.d(LOC2, 2, 2),
        "constant": Operator.constant(PSIG, Fraction(-7, 2)),
    }
    rng = random.Random(11)
    for name, op in ops.items():
        sig = op.sig
        value = evaluator(op)
        counts = list(range(1, 9)) * 2
        rng.shuffle(counts)
        for t, count in enumerate(counts):
            f = _test_function(sig, count, rng)
            assert f.term_count() == count
            coords, params = random_point(sig, rng)
            if t % 4 == 3:
                coords, params = _zero_off_localized(sig, coords), (Fraction(0),) * sig.nparams
            got = value(f, coords, params)
            assert (got, type(got)) == (_assert_evaluator_agrees(op, f, coords, params), Fraction), (name, count)


def test_the_evaluator_never_reaches_the_helpers_of_apply(monkeypatch):
    ctx = SO2nContext(3)
    product = racah.make_K(ctx, 1, 2) * racah.make_K(ctx, 2, 3)
    rng = random.Random(2)
    trials = [(random_polynomial(product.sig, rng, max_exp=5), *random_point(product.sig, rng)) for _ in range(8)]
    expected = [product.apply(f).evaluate(coords, params) for f, coords, params in trials]

    def refuse(*args, **kwargs):
        raise AssertionError("the evaluator reached a helper of apply")

    for name in ("_apply_plan", "_FallingColumns", "_term_values"):
        monkeypatch.setattr(weyl, name, refuse)
    value = evaluator(product)
    assert [value(*trial) for trial in trials] == expected


def test_evaluator_of_zero_and_at_zero():
    for sig in (SIG2, LOC2, PSIG):
        coords, params = (Fraction(2, 3),) * sig.num_vars, (Fraction(5, 2),) * sig.nparams
        f = Polynomial.monomial(sig, (2, 1)) + Polynomial.monomial(sig, (0, 3), Fraction(-1, 2))
        assert _assert_evaluator_agrees(Operator.zero(sig), f, coords, params) == 0
        assert _assert_evaluator_agrees(Operator.d(sig, 1), Polynomial.zero(sig), coords, params) == 0
        assert _assert_evaluator_agrees(Operator.d(sig, 2, 3), f, coords, params) == -3


def test_evaluator_rejects_mismatches_and_zero_localized_coordinates():
    value = evaluator(Operator.d(LOC2, 1) * Operator.x(LOC2, 2))
    f = Polynomial.monomial(LOC2, (2, 1))
    with pytest.raises(ValueError):
        value(Polynomial.monomial(SIG2, (2, 1)), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        value(f, (Fraction(1),))
    with pytest.raises(ValueError):
        value(f, (Fraction(1), Fraction(1)), (Fraction(1),))
    # op f = 2 x1 x2^2 has no negative power, yet a zero localized coordinate raises at once
    with pytest.raises(ZeroDivisionError):
        value(f, (Fraction(0), Fraction(1)))
    with pytest.raises(ZeroDivisionError):
        evaluator(Operator.zero(LOC2))(f, (Fraction(0), Fraction(1)))
    assert value(f, (Fraction(3), Fraction(0))) == 0
