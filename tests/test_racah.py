"""Commutant invariants and the five quadratic relations."""

import copy
import itertools
import math
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from racahverify import racah, weyl
from racahverify.liealg import PairUnion, SO2nContext, casimir_CA, make_L
from racahverify.racah import (
    RELATION_ARITY,
    RELATIONS,
    Basis,
    CommutantBasis,
    check_commutant_property,
    covariant,
    dependency_residual,
    factor_relabelling,
    make_G,
    make_K,
    relation_residual,
    sweep_relations,
    verify_dependency,
    verify_racah_relations,
)
from racahverify.reduction import ReducedBasis, ReducedContext
from racahverify.weyl import Operator, commutator

CTX3 = SO2nContext(3)
BASIS3 = CommutantBasis(CTX3)
BASES3 = {"commutant": BASIS3, "reduced": ReducedBasis(ReducedContext(3))}


def test_make_G():
    l12 = make_L(CTX3, 1, 2)
    assert make_G(CTX3, 1) == l12 * l12
    assert commutator(make_G(CTX3, 1), l12).is_zero()
    assert commutator(make_G(CTX3, 1), make_L(CTX3, 3, 4)).is_zero()
    with pytest.raises(ValueError):
        make_G(CTX3, 0)
    with pytest.raises(ValueError):
        make_G(CTX3, 4)


def test_make_K():
    k12 = make_K(CTX3, 1, 2)
    total = Operator.zero(CTX3.signature)
    for a, b in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        l = make_L(CTX3, a, b)
        total = total + l * l
    assert k12 == total
    assert make_K(CTX3, 2, 1) == k12
    assert commutator(k12, make_L(CTX3, 1, 2)).is_zero()
    assert commutator(k12, make_L(CTX3, 5, 6)).is_zero()
    with pytest.raises(ValueError):
        make_K(CTX3, 1, 1)


def test_commutant_property_sweep():
    report = check_commutant_property(CTX3, basis=BASIS3)
    assert report.all_passed()
    # 3 G's and 3 K's, each against 3 rotations
    assert len(report.entries) == 18


def test_rescaled_invariants():
    one = Operator.constant(CTX3.signature, 1)
    assert BASIS3.C1[1] == (BASIS3.G[1] + one) * Fraction(-1, 4)
    assert BASIS3.C2[(1, 2)] == BASIS3.K[(1, 2)] * Fraction(-1, 4)
    combo = (
        BASIS3.K[(1, 2)] * Fraction(-1, 4)
        + (BASIS3.G[1] + BASIS3.G[2]) * Fraction(1, 4)
        + Operator.constant(CTX3.signature, Fraction(1, 2))
    )
    assert BASIS3.P[(1, 2)] == combo


def test_single_casimir_constant_forced_by_relation_b():
    # the shift in C1 is not a convention: replacing -(G+1)/4 by
    # -G/4 + 1/4 changes the C-terms of relation (b) and leaves a
    # nonzero residual equal to P^{ij} - P^{ik}
    half_up = {
        i: BASIS3.G[i] * Fraction(-1, 4) + Operator.constant(CTX3.signature, Fraction(1, 4))
        for i in (1, 2, 3)
    }
    residual = relation_residual(
        "b", (1, 2, 3), BASIS3.p, BASIS3.f, lambda i: half_up[i]
    )
    assert not residual.is_zero()
    assert residual == BASIS3.p(1, 2) - BASIS3.p(1, 3)
    # while the actual pair Casimir value leaves none
    assert relation_residual("b", (1, 2, 3), BASIS3.p, BASIS3.f, BASIS3.c).is_zero()


def _reference_residual(rel, t, p, f, c):
    """The relation formulas in operator arithmetic: every product built, then summed."""
    if rel == "a":
        i, j, k = t
        return commutator(p(i, j), p(j, k)) - 2 * f(i, j, k)
    if rel == "b":
        i, j, k = t
        rhs = p(i, k) * p(j, k) - p(j, k) * p(i, j) + 2 * (p(i, k) * c(j)) - 2 * (p(i, j) * c(k))
        return commutator(p(j, k), f(i, j, k)) - rhs
    if rel == "c":
        i, j, k, l = t
        return commutator(p(k, l), f(i, j, k)) - (p(i, k) * p(j, l) - p(i, l) * p(j, k))
    if rel == "d":
        i, j, k, l = t
        rhs = f(j, k, l) * p(i, j) - f(i, k, l) * (p(j, k) + 2 * c(j)) - f(i, j, k) * p(j, l)
        return commutator(f(i, j, k), f(j, k, l)) - rhs
    i, j, k, l, m = t
    return commutator(f(i, j, k), f(k, l, m)) - (f(i, l, m) * p(j, k) - p(i, k) * f(j, l, m))


@pytest.fixture(scope="module")
def bases5():
    return {"commutant": CommutantBasis(SO2nContext(5)), "reduced": ReducedBasis(ReducedContext(5))}


@pytest.mark.parametrize("kind", ["commutant", "reduced"])
def test_relation_residuals_match_operator_arithmetic(kind, bases5):
    basis = bases5[kind]
    for rel, arity in RELATION_ARITY.items():
        for t in (tuple(range(1, arity + 1)), tuple(range(5, 5 - arity, -1))):
            got = relation_residual(rel, t, basis.p, basis.f, basis.c)
            expected = _reference_residual(rel, t, basis.p, basis.f, basis.c)
            assert (got.terms, got.den) == (expected.terms, expected.den)
            assert got.is_zero() and got.den == 1


def test_wrong_shift_residual_matches_operator_arithmetic(bases5):
    basis = bases5["commutant"]
    quarter = Operator.constant(basis.ctx.signature, Fraction(1, 4))
    half_up = {i: g * Fraction(-1, 4) + quarter for i, g in basis.G.items()}
    for i, j, k in ((1, 2, 3), (5, 3, 1)):
        got = relation_residual("b", (i, j, k), basis.p, basis.f, half_up.__getitem__)
        assert got == _reference_residual("b", (i, j, k), basis.p, basis.f, half_up.__getitem__)
        assert got == basis.p(i, j) - basis.p(i, k) and not got.is_zero()


def test_p_symmetric_access():
    assert BASIS3.p(2, 1) == BASIS3.p(1, 2)


def test_commutant_f_is_the_bracket_of_k():
    # F is bracketed from the C2's; this is the one check that ties it to the K's.
    # Every ordered triple at n=4, descending ones first, so the odd
    # orderings are checked too and K is read at swapped keys.
    basis = CommutantBasis(SO2nContext(4))
    k = lambda i, j: basis.K[(min(i, j), max(i, j))]
    for i, j, l in sorted(itertools.permutations(range(1, 5), 3), reverse=True):
        assert basis.f(i, j, l) == commutator(k(i, j), k(j, l)) * Fraction(1, 32), (i, j, l)
    # F from the K's agrees with the bracket of P's
    assert basis.f(1, 2, 3) == commutator(basis.p(1, 2), basis.p(2, 3)) * Fraction(1, 2)


@pytest.mark.parametrize("kind", list(BASES3))
def test_f_antisymmetric_under_reversal(kind):
    basis = BASES3[kind]
    f123 = basis.f(1, 2, 3)
    assert basis.f(3, 2, 1) == -f123
    # also against the bracket taken at the reversed triple itself
    c2 = lambda i, j: basis.C2[(min(i, j), max(i, j))]
    assert commutator(c2(3, 2), c2(2, 1)) * Fraction(1, 2) == -f123


def test_reduced_f_is_the_bracket_at_every_ordering():
    # F is one bracket per 3-subset, every other ordering its signed copy;
    # here each ordering is held to the bracket built for that ordering.
    basis = ReducedBasis(ReducedContext(4))
    c2 = lambda i, j: basis.C2[(min(i, j), max(i, j))]
    for i, j, l in sorted(itertools.permutations(range(1, 5), 3), reverse=True):
        assert basis.f(i, j, l) == commutator(c2(i, j), c2(j, l)) * Fraction(1, 2), (i, j, l)


@pytest.mark.parametrize("kind", ["commutant", "reduced"])
def test_f_warm_up_takes_one_commutator_per_subset(kind, monkeypatch):
    # F is built during construction, the one place racah brackets C2's
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return commutator(a, b)

    monkeypatch.setattr(racah, "commutator", counted)
    basis = CommutantBasis(SO2nContext(5)) if kind == "commutant" else ReducedBasis(ReducedContext(5))
    assert len(calls) == comb(5, 3) == 10
    for t in itertools.permutations(range(1, 6), 3):
        basis.f(*t)
    assert len(calls) == 10
    # the six orderings of a subset share two objects, F and -F
    orbit = {id(basis.f(*t)) for t in itertools.permutations((2, 4, 5))}
    assert len(orbit) == 2


@pytest.mark.parametrize("kind", ["commutant", "reduced"])
def test_fresh_basis_holds_every_p_and_f_and_looks_them_up(kind, monkeypatch):
    basis = CommutantBasis(SO2nContext(5)) if kind == "commutant" else ReducedBasis(ReducedContext(5))
    assert set(basis._F) == set(itertools.permutations(range(1, 6), 3))
    assert len(basis._F) == 6 * comb(5, 3)
    assert set(basis.P) == set(itertools.permutations(range(1, 6), 2))
    assert all(basis.P[i, j] is basis.P[j, i] for i, j in basis.P)
    calls = []
    kernel = weyl.combination

    def counted(terms):
        calls.append(len(terms))
        return kernel(terms)

    monkeypatch.setattr(weyl, "combination", counted)
    for t in itertools.permutations(range(1, 6), 3):
        basis.f(*t)
    for t in itertools.permutations(range(1, 6), 2):
        basis.p(*t)
    assert calls == []


def test_both_bases_share_one_f_in_their_own_namespace():
    # perfbench/spans.py wraps cls.__dict__["f"] on each basis class
    for cls in (CommutantBasis, ReducedBasis):
        assert issubclass(cls, Basis)
        assert vars(cls)["f"] is Basis.f


def test_single_casimirs_are_central():
    for j, k in ((1, 2), (2, 3), (1, 3)):
        assert commutator(BASIS3.C1[1], BASIS3.p(j, k)).is_zero()


def test_relation_sweep_rank_one():
    report = verify_racah_relations(CTX3, basis=BASIS3)
    assert report.all_passed()
    by_rel = {}
    for e in report.entries:
        by_rel.setdefault(e.relation, []).append(e)
    # 6 ordered triples for each 3-index relation
    assert len(by_rel["a"]) == 6
    assert len(by_rel["b"]) == 6
    # 4- and 5-index relations have no admissible tuples at n=3
    for rel in ("c", "d", "e"):
        (entry,) = by_rel[rel]
        assert entry.note.startswith("skipped")


def test_relation_arity_table():
    assert RELATION_ARITY == {"a": 3, "b": 3, "c": 4, "d": 4, "e": 5}
    with pytest.raises(ValueError):
        relation_residual("z", (1, 2, 3), BASIS3.p, BASIS3.f, BASIS3.c)


def test_relation_sweep_rank_two():
    ctx = SO2nContext(4)
    report = verify_racah_relations(ctx, CommutantBasis(ctx))
    assert report.all_passed()
    counts = {}
    for e in report.entries:
        counts[e.relation] = counts.get(e.relation, 0) + 1
    assert counts == {"a": 24, "b": 24, "c": 24, "d": 24, "e": 1}


def test_dependency_identity():
    assert verify_dependency(CTX3, (1, 2), basis=BASIS3)
    assert verify_dependency(CTX3, (1, 2, 3), basis=BASIS3)
    with pytest.raises(ValueError):
        verify_dependency(CTX3, (1,), basis=BASIS3)
    with pytest.raises(ValueError):
        verify_dependency(CTX3, (1, 4), basis=BASIS3)


def test_dependency_residual_counts_wrong_shift():
    # C1 = -G/4 + 1/4 sits 1/2 above -(G + 1)/4; the weight-one C1 sum
    # of a three-factor subset then leaves exactly the constant 3/2
    basis = CommutantBasis(CTX3)
    quarter = Operator.constant(CTX3.signature, Fraction(1, 4))
    basis.C1 = {i: g * Fraction(-1, 4) + quarter for i, g in basis.G.items()}
    residual = dependency_residual(CTX3, (1, 2, 3), basis)
    assert residual == Operator.constant(CTX3.signature, Fraction(3, 2))
    assert residual.term_count() == 1
    assert dependency_residual(CTX3, (1, 2, 3), BASIS3).is_zero()


def test_dependency_expands_to_pair_sums():
    lhs = casimir_CA(CTX3, PairUnion((1, 2, 3)))
    rhs = (
        BASIS3.C2[(1, 2)]
        + BASIS3.C2[(1, 3)]
        + BASIS3.C2[(2, 3)]
        - BASIS3.C1[1]
        - BASIS3.C1[2]
        - BASIS3.C1[3]
    )
    assert lhs == rhs


def test_dependency_cross_checks_coupled_casimir():
    # the coupled Casimir over all four pairs, given in any factor order
    ctx = SO2nContext(4)
    basis = CommutantBasis(ctx)
    assert verify_dependency(ctx, (1, 2, 3, 4), basis)
    assert verify_dependency(ctx, (3, 1, 4, 2), basis)


def test_dependency_rejects_repeated_factors():
    # (1, 1, 2) must not be read as {1, 2}
    for subset in ((1, 1, 2), (2, 1, 2)):
        with pytest.raises(ValueError):
            dependency_residual(CTX3, subset, BASIS3)
        with pytest.raises(ValueError):
            verify_dependency(CTX3, subset, basis=BASIS3)


def _per_tuple(basis, c):
    """relation_residual at every tuple of every relation, each on its own: the direct sweep's reference."""
    return {
        (rel, t): relation_residual(rel, t, basis.p, basis.f, c)
        for rel, arity in RELATION_ARITY.items()
        for t in itertools.permutations(range(1, basis.ctx.n + 1), arity)
    }


def _assert_sweep_matches_per_tuple(basis, reference, jobs):
    report = sweep_relations(basis, jobs)
    order = list(RELATIONS)
    expected = sorted((order.index(rel), t, r.is_zero(), r.term_count()) for (rel, t), r in reference.items())
    checked = [e for e in report.entries if not e.note.startswith("skipped")]
    got = [(order.index(e.relation), e.indices, e.passed, e.residual_terms) for e in checked]
    assert got == expected
    skipped = [e.relation for e in report.entries[len(checked):]]
    assert skipped == [rel for rel, arity in RELATION_ARITY.items() if arity > basis.ctx.n]
    return report


def _basis(kind, n):
    return CommutantBasis(SO2nContext(n)) if kind == "commutant" else ReducedBasis(ReducedContext(n))


@pytest.mark.parametrize(
    "kind, n", [(kind, n) for kind in ("commutant", "reduced") for n in (3, 4, 5)] + [("reduced", 6)]
)
def test_orbit_sweep_equals_relation_residual_tuple_by_tuple(kind, n, bases5):
    # the per-tuple residuals are the reference; the bases are covariant,
    # so the sweep derives its entries from the canonical tuples
    basis = bases5[kind] if n == 5 else _basis(kind, n)
    assert covariant(basis)
    reference = _per_tuple(basis, basis.c)
    tuples = sum(comb(n, arity) * math.factorial(arity) for arity in RELATION_ARITY.values() if arity <= n)
    assert len(reference) == tuples and all(r.is_zero() for r in reference.values())
    assert _assert_sweep_matches_per_tuple(basis, reference, 2).all_passed()


def test_orbit_sweep_keeps_wrong_shift_residuals(bases5):
    # C = -G/4 + 1/4 breaks (b) and (d), the relations with C-terms; the
    # copy shares P and F, which were built from the right C1
    basis = copy.copy(bases5["commutant"])
    quarter = Operator.constant(basis.ctx.signature, Fraction(1, 4))
    basis.C1 = {i: g * Fraction(-1, 4) + quarter for i, g in basis.G.items()}
    reference = _per_tuple(basis, basis.c)
    broken = {rel for (rel, _), r in reference.items() if not r.is_zero()}
    assert broken == {"b", "d"}
    assert covariant(basis)
    report = _assert_sweep_matches_per_tuple(basis, reference, 3)
    assert {e.relation for e in report.entries if not e.passed} == {"b", "d"}


@pytest.mark.parametrize("t", [(1, 2, 3, 4), (1, 2), (1, 1, 2)])
def test_relation_residual_refuses_a_tuple_of_wrong_length_or_repeated_indices(t):
    message = rf"relation a needs 3 pairwise distinct indices, not \({', '.join(map(str, t))}\)"
    with pytest.raises(ValueError, match=message):
        relation_residual("a", t, BASIS3.p, BASIS3.f, BASIS3.c)


def _generator(name):
    """"Pij" as P^{ij}, "Cj" as C^j."""
    return f"{name[0]}^{name[1]}" if len(name) == 2 else f"{name[0]}^{{{name[1:]}}}"


def _rendered_relations():
    """RELATIONS as one line per relation, every product written out."""
    lines = []
    for rel, (_, bracket, rhs) in RELATIONS.items():
        right = ""
        for r, x, y in rhs:
            sign = "-" if r < 0 else "+"
            term = " ".join(([str(abs(r))] if abs(r) != 1 else []) + [_generator(g) for g in (x, y) if g != "1"])
            right += f" {sign} {term}" if right else ("- " if r < 0 else "") + term
        lines.append(f"{rel}: [{', '.join(map(_generator, bracket))}] = {right}")
    return "\n".join(lines)


def test_relation_lists_in_docstring_and_readme_are_the_table():
    rendered = _rendered_relations()
    assert "d: [F^{ijk}, F^{jkl}] = F^{jkl} P^{ij} - F^{ikl} P^{jk} - 2 F^{ikl} C^j - F^{ijk} P^{jl}" in rendered
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("4. **The quadratic relations**"):readme.index("5. **Radial reduction**")]
    for text in (racah.__doc__, section):
        assert rendered in "\n".join(line.strip() for line in text.splitlines())


@pytest.mark.parametrize("kind", ["commutant", "reduced"])
def test_only_the_p_p_of_b_and_the_f_p_of_d_are_order_sensitive(kind, bases5):
    # the docstring's claim: swapping X Y changes a residual by r [Y, X]
    basis = bases5[kind]
    accessors = {"P": basis.p, "F": basis.f, "C": basis.c}
    sensitive = set()
    for rel, (letters, _, rhs) in RELATIONS.items():
        index = dict(zip(letters, range(1, len(letters) + 1)))
        for r, x, y in rhs:
            if "1" in (x, y):
                continue
            left, right = (accessors[g[0]](*(index[letter] for letter in g[1:])) for g in (x, y))
            if not commutator(left, right).is_zero():
                sensitive.add((rel, x[0] + y[0]))
    assert sensitive == {("b", "PP"), ("d", "FP")}


@pytest.mark.parametrize("kind", ["commutant", "reduced"])
def test_one_wrong_term_in_canonical_f_fails_relation_a_at_six_orderings(kind):
    basis = CommutantBasis(SO2nContext(4)) if kind == "commutant" else ReducedBasis(ReducedContext(4))
    wrong = basis.f(1, 2, 3) + Operator.x(basis.ctx.signature, 1)
    negated = -wrong
    for t in itertools.permutations((1, 2, 3)):
        basis._F[t] = wrong if t in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else negated
    failed = {e.indices for e in sweep_relations(basis).entries if e.relation == "a" and not e.passed}
    assert failed == set(itertools.permutations((1, 2, 3)))


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_group_names_relation_and_tuple(jobs):
    basis = CommutantBasis(CTX3)
    basis.C1 = {}
    # the first failing slice in worker order wins: (1, 2, 3) at one job
    tuple_, key = (r"\(1, 2, 3\)", "2") if jobs == 1 else (r"\(\d, \d, \d\)", r"\d")
    with pytest.raises(RuntimeError, match=rf"^check b {tuple_} raised KeyError\({key}\)$"):
        sweep_relations(basis, jobs)


def _shifted_c1(basis):
    """A copy of basis whose C^1 alone is shifted by 1/2: not covariant, and relations b and d see it."""
    shifted = copy.copy(basis)
    half = Operator.constant(basis.ctx.signature, Fraction(1, 2))
    shifted.C1 = dict(basis.C1) | {1: basis.C1[1] + half}
    return shifted


@pytest.mark.parametrize("kind", ["commutant", "reduced"])
def test_non_covariant_c_takes_the_direct_sweep(kind, bases5):
    basis = _shifted_c1(bases5[kind])
    assert not covariant(basis)
    reference = _per_tuple(basis, basis.c)
    report = _assert_sweep_matches_per_tuple(basis, reference, 1)
    # verdicts differ inside one relation, which no canonical tuple could give
    verdicts = {e.passed for e in report.entries if e.relation == "b"}
    assert verdicts == {True, False}
    assert {e.relation for e in report.entries if not e.passed} == {"b", "d"}


@pytest.mark.parametrize("kind", ["commutant", "reduced"])
def test_direct_sweep_gives_the_same_entries_at_one_two_and_three_jobs(kind, bases5):
    # the forked direct sweep puts every tuple's entry back in order
    basis = _shifted_c1(bases5[kind])
    entries = {
        jobs: [(e.relation, e.indices, e.passed, e.residual_terms) for e in sweep_relations(basis, jobs).entries]
        for jobs in (1, 2, 3)
    }
    assert len(entries[1]) == 480 and sum(not passed for _, _, passed, _ in entries[1]) == 48
    assert entries[1] == entries[2] == entries[3]


@pytest.mark.parametrize("kind", ["commutant", "reduced"])
def test_orbit_sweep_runs_the_kernel_at_the_canonical_tuples_only(kind, bases5, monkeypatch):
    basis = bases5[kind]
    calls = []
    residual = racah.relation_residual

    def counted(rel, t, p, f, c):
        calls.append((rel, t))
        return residual(rel, t, p, f, c)

    monkeypatch.setattr(racah, "relation_residual", counted)
    report = sweep_relations(basis, 1)
    assert calls == [(rel, tuple(range(1, arity + 1))) for rel, arity in RELATION_ARITY.items()]
    assert len(report.entries) == 480 and report.all_passed()
    # each derived entry carries an even share of its canonical check's time
    by_rel = {}
    for e in report.entries:
        by_rel.setdefault(e.relation, set()).add(e.ms)
    assert all(len(times) == 1 for times in by_rel.values())


@pytest.mark.parametrize("kind", ["commutant", "reduced"])
def test_certificate_sees_f_that_is_not_antisymmetric_at_one_ordering(kind):
    # every sorted triple stays covariant; only the stored F^{321} is wrong
    basis = _basis(kind, 3)
    assert covariant(basis)
    basis._F[3, 2, 1] = basis.f(1, 2, 3)
    assert not covariant(basis)
    failed = {e.indices for e in sweep_relations(basis).entries if not e.passed}
    assert (3, 2, 1) in failed and (1, 2, 3) not in failed


@pytest.mark.parametrize("kind", ["commutant", "reduced"])
def test_wrong_canonical_f_is_not_covariant(kind):
    # the basis of test_one_wrong_term_in_canonical_f_fails_relation_a_at_six_orderings
    basis = _basis(kind, 4)
    wrong = basis.f(1, 2, 3) + Operator.x(basis.ctx.signature, 1)
    for t in itertools.permutations((1, 2, 3)):
        basis._F[t] = wrong if t in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -wrong
    assert not covariant(basis)


@pytest.mark.parametrize("certified", [True, False])
def test_sweep_entries_carry_the_certificate_time(certified, monkeypatch):
    # shared over the checked items on the orbit path and the direct path alike
    def slow_certificate(basis):
        time.sleep(0.05)
        return certified

    monkeypatch.setattr(racah, "covariant", slow_certificate)
    report = sweep_relations(BASIS3, 1)
    assert report.all_passed()
    assert sum(e.ms for e in report.entries) >= 50


def test_covariant_is_false_when_an_accessor_raises():
    basis = CommutantBasis(CTX3)
    basis.C1 = {}
    assert not covariant(basis)


def test_factor_relabelling_moves_each_factor_with_its_variables_and_parameter():
    ctx = ReducedContext(3)
    basis = ReducedBasis(ctx)
    cycle = factor_relabelling(ctx, (2, 3, 1))
    assert cycle(basis.c(1)) == basis.c(2) and cycle(basis.p(1, 3)) == basis.p(2, 1)
    assert cycle(basis.f(1, 2, 3)) == basis.f(2, 3, 1)
    swap = factor_relabelling(CTX3, (2, 1, 3))
    assert swap(make_L(CTX3, 1, 2)) == make_L(CTX3, 3, 4)
    assert swap(make_L(CTX3, 2, 5)) == make_L(CTX3, 4, 5)
    assert swap(BASIS3.f(1, 2, 3)) == BASIS3.f(2, 1, 3) == -BASIS3.f(1, 2, 3)
