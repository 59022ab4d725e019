"""The integer-numerator product kernel against the Fraction reference.

``_reference_mul_terms`` below is the product kernel written directly in
``Fraction`` arithmetic, kept verbatim as a test oracle.  The production
kernel ``weyl._mul_terms`` works on the flat (monomial, parameter
exponent) -> integer numerator maps operators store, each over its
operand's denominator; every numerator it returns, divided by
den_a * den_b, must equal the reference coefficient exactly, key for
key, so every printed operator and every report built from it stays bit
for bit the same.
"""

import itertools
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from racahverify import racah
from racahverify.coeff import ParamPoly
from racahverify.liealg import SO2nContext
from racahverify.weyl import Operator, _mul_terms, _reorder_options, commutator

from test_weyl import PSIG, ops2, opsL, opsP


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
            option_lists = [_reorder_options(ma[m + i], mb[i]) for i in active]
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
    """The kernel's numerators over den_a * den_b, checked against the reference."""
    m = a.sig.num_vars
    got = _mul_terms(m, a.terms, b.terms)
    assert all(type(q) is int and q for q in got.values())
    den = a.den * b.den
    values = {key: Fraction(q, den) for key, q in got.items()}
    reference = _flat_fractions(_reference_mul_terms(m, a.coefficients(), b.coefficients()))
    assert values == reference
    assert all(type(q) is Fraction for q in reference.values())
    return values


STRATEGIES = {"plain": ops2, "laurent": opsL, "params": opsP}


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
    c = ParamPoly.from_terms(2, [((1, 0), Fraction(2, 3)), ((0, 2), Fraction(-5, 4)), ((0, 0), 7)])
    d = ParamPoly.from_terms(2, [((0, 1), Fraction(1, 6)), ((1, 0), Fraction(-2, 3))])
    x = Operator.monomial(PSIG, (-2, 1), (1, 2), c) + Operator.monomial(PSIG, (1, 0), (0, 1), d)
    y = Operator.monomial(PSIG, (3, -1), (2, 0), d) + Operator.monomial(PSIG, (0, 2), (1, 1), c)
    got = _assert_kernels_agree(x, y)
    assert got and any(q.denominator > 1 for q in got.values())


def test_n4_f_product_and_bracket_match_reference():
    basis = racah.CommutantBasis(SO2nContext(4))
    f123, f234 = basis.f(1, 2, 3), basis.f(2, 3, 4)
    assert f123.term_count() == f234.term_count() == 72
    assert len(_assert_kernels_agree(f123, f234)) == 4534
    assert len(_assert_kernels_agree(f234, f123)) == 4534
    assert (f123 * f234).term_count() == 4534
    assert commutator(f123, f234).term_count() == 2072
