"""Rotation generators, the quadratic invariant, su(1,1) triples."""

import itertools
from fractions import Fraction

import pytest

from racahverify.liealg import (
    PairUnion,
    SO2nContext,
    SU11Triple,
    casimir_CA,
    casimir_closed_form,
    casimir_of,
    casimir_sum,
    check_casimir_centrality,
    check_o2n_relations,
    make_JA,
    make_L,
    make_metaplectic,
    rotation_squares,
    sum_triples,
)
from racahverify import liealg, reduction, weyl
from racahverify.weyl import Operator, commutator

CTX3 = SO2nContext(3)

# Coproduct triples: over one union of two variable pairs, and over two
# radial factors with free parameters.
COPRODUCTS = {
    "pair-union": lambda: make_JA(CTX3, PairUnion((1, 2))),
    "radial-pair": lambda: make_JA(reduction.ReducedContext(3), PairUnion((1, 2))),
}
TRIPLES = {"metaplectic": lambda: make_metaplectic(CTX3, 2), **COPRODUCTS}
SUMS = {"all-variables": lambda: sum_triples([make_metaplectic(CTX3, mu) for mu in range(1, 7)]), **COPRODUCTS}


def test_context_validation():
    with pytest.raises(ValueError):
        SO2nContext(2)
    assert CTX3.num_vars == 6
    assert CTX3.signature.num_vars == 6


def test_make_L_examples():
    sig = CTX3.signature
    expected = Operator.x(sig, 1) * Operator.d(sig, 2) - Operator.x(sig, 2) * Operator.d(sig, 1)
    assert make_L(CTX3, 1, 2) == expected
    assert make_L(CTX3, 2, 1) == -expected
    assert commutator(make_L(CTX3, 1, 2), make_L(CTX3, 1, 2)).is_zero()
    with pytest.raises(ValueError):
        make_L(CTX3, 1, 1)
    with pytest.raises(ValueError):
        make_L(CTX3, 0, 2)
    with pytest.raises(ValueError, match=r"^variable index 0 out of range 1\.\.6$"):
        make_L(CTX3, 0, 1)
    with pytest.raises(ValueError, match=r"^variable index 7 out of range 1\.\.6$"):
        make_L(CTX3, 1, 7)


def test_L_action():
    from racahverify.weyl import Polynomial

    sig = CTX3.signature
    x1 = Polynomial.monomial(sig, (1, 0, 0, 0, 0, 0))
    x2 = Polynomial.monomial(sig, (0, 1, 0, 0, 0, 0))
    assert make_L(CTX3, 1, 2).apply(x1) == -x2


def test_bracket_examples():
    assert commutator(make_L(CTX3, 1, 2), make_L(CTX3, 2, 3)) == make_L(CTX3, 1, 3)
    assert commutator(make_L(CTX3, 1, 2), make_L(CTX3, 3, 4)).is_zero()


def test_o2n_relation_sweep_counts():
    report = check_o2n_relations(CTX3)
    # 15 generators at n=3, so C(15,2) unordered pairs
    assert len(report.entries) == 105
    assert report.all_passed()


def test_o2n_relation_sweep_parallel_matches_serial():
    serial = check_o2n_relations(CTX3, jobs=1)
    parallel = check_o2n_relations(CTX3, jobs=2)
    key = lambda e: (e.relation, e.indices, e.passed, e.residual_terms)
    assert list(map(key, serial.entries)) == list(map(key, parallel.entries))


def test_o2n_relation_sweep_builds_each_generator_once(monkeypatch):
    calls = []

    def counted(ctx, mu, nu):
        calls.append((mu, nu))
        return make_L(ctx, mu, nu)

    monkeypatch.setattr(liealg, "make_L", counted)
    assert check_o2n_relations(SO2nContext(4)).all_passed()
    # 28 generators at n=4; the structure constants read them instead of rebuilding them
    assert len(calls) == 28


def test_bracket_expansion_holds_in_every_index_order():
    """The expansion must hold for every order of two distinct generators, not only the two
    orders of the second generator that the sweep reads."""
    m = CTX3.num_vars
    table = {(mu, nu): make_L(CTX3, mu, nu) for mu, nu in itertools.permutations(range(1, m + 1), 2)}
    pairs = [(g, h) for g, h in itertools.permutations(table, 2) if set(g) != set(h)]
    assert len(pairs) == 840
    for g, h in pairs:
        assert commutator(table[g], table[h]) == liealg._bracket_rhs(CTX3, table, *g, *h), (g, h)


def test_o2n_sweep_sees_every_delta_term(monkeypatch):
    """An expansion without delta_{mu,sigma} L_{nu,rho} holds for every ascending pair of
    generators, so only the entries evaluated with a reversed second generator catch it."""

    def without_mu_sigma(ctx, L, mu, nu, rho, sigma):
        out = Operator.zero(ctx.signature)
        if nu == rho:
            out = out + L[mu, sigma]
        if nu == sigma:
            out = out - L[mu, rho]
        if mu == rho:
            out = out - L[nu, sigma]
        return out

    monkeypatch.setattr(liealg, "_bracket_rhs", without_mu_sigma)
    assert not check_o2n_relations(CTX3).all_passed()


def test_quadratic_casimir_contains_expected_term():
    cas = casimir_sum(CTX3, CTX3.num_vars)
    # L_{12}^2 contributes x1^2 d2^2 with coefficient 1
    mono = (2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0)
    assert cas.coefficients()[mono].constant_value() == 1
    assert commutator(cas, cas).is_zero()


def test_casimir_centrality_full_bound():
    report = check_casimir_centrality(CTX3)
    assert report.all_passed()
    assert len(report.entries) == 15


def test_casimir_truncated_bound_fails():
    # summing only up to n gives the invariant of an o(n) subalgebra,
    # which cannot commute with generators mixing the two index ranges
    report = check_casimir_centrality(CTX3, bound=CTX3.n)
    assert not report.all_passed()
    truncated = casimir_sum(CTX3, CTX3.n)
    witness = commutator(truncated, make_L(CTX3, 1, 4))
    assert not witness.is_zero()
    # generators inside the truncated range still commute
    assert commutator(truncated, make_L(CTX3, 1, 2)).is_zero()


def test_casimir_sum_bounds_checked():
    with pytest.raises(ValueError):
        casimir_sum(CTX3, 1)
    with pytest.raises(ValueError):
        casimir_sum(CTX3, 7)


def test_rotation_squares_over_variable_sets():
    l12, l13, l23 = make_L(CTX3, 1, 2), make_L(CTX3, 1, 3), make_L(CTX3, 2, 3)
    assert rotation_squares(CTX3, (1, 2)) == l12 * l12
    assert rotation_squares(CTX3, (3, 1, 2)) == l12 * l12 + l13 * l13 + l23 * l23
    assert rotation_squares(CTX3, (5,)).is_zero()
    assert rotation_squares(CTX3, range(1, 7)) == casimir_sum(CTX3, CTX3.num_vars)
    with pytest.raises(ValueError):
        rotation_squares(CTX3, (6, 7))


def test_metaplectic_triple():
    t = make_metaplectic(CTX3, 1)
    sig = CTX3.signature
    assert t.Jp == Operator.x(sig, 1, 2) * Fraction(1, 2)
    assert t.Jm == Operator.d(sig, 1, 2) * Fraction(1, 2)
    assert commutator(t.J0, t.Jp) == t.Jp
    assert commutator(t.Jp, t.Jm) == -2 * t.J0
    for mu in (0, 7, -1):
        with pytest.raises(ValueError, match=rf"^variable index {mu} out of range 1\.\.6$"):
            make_metaplectic(CTX3, mu)


def test_metaplectic_copies_commute():
    t1 = make_metaplectic(CTX3, 1)
    t2 = make_metaplectic(CTX3, 2)
    assert commutator(t1.Jp, t2.Jp).is_zero()
    assert commutator(t1.Jm, t2.J0).is_zero()


def test_bad_triple_constructs_with_nonzero_residuals():
    sig = CTX3.signature
    x1 = Operator.x(sig, 1)
    t = SU11Triple(x1, x1, x1)
    residuals = dict(t.relation_residuals())
    assert residuals["[J0, J+] - J+"] == -x1
    assert residuals["[J0, J-] + J-"] == x1
    assert residuals["[J+, J-] + 2*J0"] == 2 * x1


def test_metaplectic_casimir_value():
    t = make_metaplectic(CTX3, 1)
    c = casimir_of(t)
    assert c == Operator.constant(CTX3.signature, Fraction(-3, 16))


@pytest.mark.parametrize("kind", sorted(TRIPLES))
def test_casimir_commutes_with_triple(kind):
    t = TRIPLES[kind]()
    c = casimir_of(t)
    for member in (t.Jp, t.Jm, t.J0):
        assert commutator(c, member).is_zero()


def test_pair_casimir_closed_form():
    # two coupled copies: Casimir equals -(L^2 + 1)/4 for the pair rotation
    t = sum_triples([make_metaplectic(CTX3, 1), make_metaplectic(CTX3, 2)])
    c = casimir_of(t)
    l = make_L(CTX3, 1, 2)
    one = Operator.constant(CTX3.signature, 1)
    assert c == (l * l + one) * Fraction(-1, 4)


RCTX4 = reduction.ReducedContext(4)
CLOSED_FORM_CASES = [("radial", c) for k in range(1, 5) for c in itertools.combinations(range(1, 5), k)]
CLOSED_FORM_CASES += [("metaplectic", (mu,)) for mu in range(1, 7)]


@pytest.mark.parametrize("realization, variables", CLOSED_FORM_CASES)
def test_closed_form_matches_built_casimir(realization, variables):
    # Every factor set of the radial model at n=4, and the one-variable
    # metaplectic triples, whose closed form is the constant -3/16.
    if realization == "radial":
        built = casimir_CA(RCTX4, PairUnion(variables))
        closed = reduction.radial_closed_form(RCTX4, variables)
    else:
        built = casimir_of(make_metaplectic(CTX3, *variables))
        closed = casimir_closed_form(CTX3, variables)
    assert built == closed


@pytest.mark.parametrize("kind", sorted(SUMS))
def test_triple_sum_relations_hold(kind):
    for _, residual in SUMS[kind]().relation_residuals():
        assert residual.is_zero()


def test_sum_triples_empty_rejected():
    with pytest.raises(ValueError):
        sum_triples([])


def _kernel_rotation(sig, mu, nu):
    """rotation's former construction through the product kernel, kept as its reference."""
    return Operator.x(sig, mu) * Operator.d(sig, nu) - Operator.x(sig, nu) * Operator.d(sig, mu)


def _kernel_metaplectic(sig, mu):
    """make_metaplectic's former construction, as (J+, J-, J0)."""
    half = Fraction(1, 2)
    jp = Operator.x(sig, mu, 2) * half
    jm = Operator.d(sig, mu, 2) * half
    j0 = (Operator.constant(sig, half) + Operator.x(sig, mu) * Operator.d(sig, mu)) * half
    return jp, jm, j0


def _kernel_reduced_J(ctx, i):
    """reduction.make_reduced_J's former construction, as (J+, J-, J0)."""
    jp, jm, j0 = _kernel_metaplectic(ctx.signature, i)
    return jp, jm + Operator.x(ctx.signature, i, -2) * (ctx.param(i) * Fraction(1, 2)), j0


def test_generators_store_what_their_kernel_construction_stores(monkeypatch):
    """Keys, numerators, den and insertion order of every L_{mu,nu}, radial R_ij
    and triple equal the kernel construction's, and no builder reaches
    weyl.combination."""

    def refuse(*_):
        raise AssertionError("a generator builder reached weyl.combination")

    cases = []  # (built generators, their kernel construction, deferred)
    with monkeypatch.context() as patch:
        patch.setattr(weyl, "combination", refuse)
        for ctx in [SO2nContext(n) for n in (3, 4, 5)] + [reduction.ReducedContext(n) for n in (2, 3, 4, 5)]:
            sig, m = ctx.signature, ctx.signature.num_vars
            for mu, nu in itertools.permutations(range(1, m + 1), 2):
                built = make_L(ctx, mu, nu) if isinstance(ctx, SO2nContext) else liealg.rotation(sig, mu, nu)
                cases.append(([built], lambda sig=sig, mu=mu, nu=nu: [_kernel_rotation(sig, mu, nu)]))
            for mu in range(1, m + 1):
                t = make_metaplectic(ctx, mu)
                cases.append(([t.Jp, t.Jm, t.J0], lambda sig=sig, mu=mu: _kernel_metaplectic(sig, mu)))
                if isinstance(ctx, reduction.ReducedContext):
                    t = reduction.make_reduced_J(ctx, mu)
                    cases.append(([t.Jp, t.Jm, t.J0], lambda ctx=ctx, mu=mu: _kernel_reduced_J(ctx, mu)))
    assert len(cases) == (30 + 56 + 90) + (6 + 8 + 10) + (2 + 6 + 12 + 20) + 2 * (2 + 3 + 4 + 5)
    for built, reference in cases:
        expected = reference()
        assert [(op.sig, list(op.terms.items()), op.den) for op in built] == [
            (op.sig, list(op.terms.items()), op.den) for op in expected
        ]
