"""Invariants commuting with the n planar rotations, and their quadratic algebra.

Inside the oscillator realization of o(2n), the operators

    G^i    = L_{2i-1,2i}^2
    K^{ij} = sum of the six L_{mu,nu}^2 with mu < nu drawn from
             {2i-1, 2i, 2j-1, 2j}

commute with every planar rotation L_{2s-1,2s}, so they generate the
commutant of the n-fold rotation subalgebra.  Rescaled and shifted as

    C1^i   = -(G^i + 1)/4          (the su(1,1) Casimir of one coupled pair)
    C2^{ij} = -K^{ij}/4            (the Casimir of two coupled pairs)
    P^{ij}  = C2^{ij} - C1^i - C1^j
    F^{ijk} = (1/2)[C2^{ij}, C2^{jk}]  (= [K^{ij}, K^{jk}]/32)

they close into a quadratic algebra presented by five families of
relations (labelled a..e below), all of which this module verifies by
exact expansion.  Note the constant in C1: the Casimir of a coupled
pair is -(G^i + 1)/4, not -G^i/4 + 1/4; using the latter shift breaks
relation (b) by the offset it induces in the C-terms (demonstrated in
the test suite).

Both realizations share one basis type, Basis: given the one- and
two-factor Casimirs C1^i and C2^{ij}, it builds P and F completely at
construction, so a sweep only looks them up.  CommutantBasis and
reduction.ReducedBasis differ only in how they build C1 and C2.  The
relations are data (``RELATIONS``), read through the basis accessors
p(i,j), f(i,j,k), c(i), so one sweep verifies this realization and the
dimensionally reduced one.  Every check reads the one basis of its
run: sweep_relations takes it as its one argument, and
check_commutant_property, verify_racah_relations, dependency_residual
and verify_dependency as a required argument after the context; none
builds one of its own.

F is antisymmetric in its three indices: C^{ij} + C^{jk} + C^{ik} =
C^{ijk} + C^i + C^j + C^k and C^{ij} commutes with C^{ijk} (De Bie,
Genest, van de Vijver, Vinet, arXiv:1610.02638), so [C2^{ij}, C2^{jk}]
= -[C2^{ij}, C2^{ik}], and the reversal flips the bracket.  Basis makes
it antisymmetric by construction: one bracket F^{ijk} =
(1/2)[C2^{ij}, C2^{jk}] per 3-subset i < j < k, and every other
ordering is that operator times the sign of the permutation.  The
sweep's certificate (``covariant``) checks that identity exactly:
relabelling F^{ijk} by the transposition of i and j gives the bracket
(1/2)[C2^{ij}, C2^{ik}] of the other ordering, which must equal the
stored -F^{ijk}.  Relation (a) then checks F against the brackets of
the P's.

The sweep (``sweep_relations``) rests on S_n covariance.  Relabelling
the n factors by sigma in S_n (their variables, and the a_i of the
radial model) is an algebra automorphism.  When it permutes the stored
C, P and F as their indices say, the residual of a relation at
sigma(1, ..., arity) is sigma applied to the residual at (1, ..., arity),
with the same term count, so each relation is computed once, at its
canonical tuple, and every other tuple's entry is derived from it.  A
basis that is not covariant takes the direct sweep, the reference path:
``relation_residual`` at every tuple, each on its own.

The five relations, all indices pairwise distinct:

    a: [P^{ij}, P^{jk}] = 2 F^{ijk}
    b: [P^{jk}, F^{ijk}] = P^{ik} P^{jk} - P^{jk} P^{ij} + 2 P^{ik} C^j - 2 P^{ij} C^k
    c: [P^{kl}, F^{ijk}] = P^{ik} P^{jl} - P^{il} P^{jk}
    d: [F^{ijk}, F^{jkl}] = F^{jkl} P^{ij} - F^{ikl} P^{jk} - 2 F^{ikl} C^j - F^{ijk} P^{jl}
    e: [F^{ijk}, F^{klm}] = F^{ilm} P^{jk} - P^{ik} F^{jlm}

Products on the right-hand sides are taken in the order written, but
only some orders matter: swapping the two factors of a product changes
the residual only for the P P products of (b) and the F P products of
(d), whose factors share an index.  The factors of every other product
commute: F with 1 in (a), and factors on disjoint index sets in (c),
(e) and the C-terms of (b) and (d).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Sequence

from .liealg import PairUnion, SO2nContext, casimir_CA, decomposition_sum, make_L, rotation_squares
from .report import RelationReport, ReportEntry, run_checks, run_orbits
from .weyl import Operator, combination, commutator, relabel

# Relations (a)-(e) as data: index letters, the left-hand bracket [A, B]
# and the right-hand products (r, X, Y).  A generator is its letter P, F or
# C followed by index letters; "1" is the identity.
RELATIONS = {
    "a": ("ijk", ("Pij", "Pjk"), [(2, "Fijk", "1")]),
    "b": ("ijk", ("Pjk", "Fijk"), [(1, "Pik", "Pjk"), (-1, "Pjk", "Pij"), (2, "Pik", "Cj"), (-2, "Pij", "Ck")]),
    "c": ("ijkl", ("Pkl", "Fijk"), [(1, "Pik", "Pjl"), (-1, "Pil", "Pjk")]),
    "d": ("ijkl", ("Fijk", "Fjkl"), [(1, "Fjkl", "Pij"), (-1, "Fikl", "Pjk"), (-2, "Fikl", "Cj"), (-1, "Fijk", "Pjl")]),
    "e": ("ijklm", ("Fijk", "Fklm"), [(1, "Film", "Pjk"), (-1, "Pik", "Fjlm")]),
}
RELATION_ARITY = {rel: len(letters) for rel, (letters, _, _) in RELATIONS.items()}

PAccessor = Callable[[int, int], Operator]
FAccessor = Callable[[int, int, int], Operator]
CAccessor = Callable[[int], Operator]


def make_G(ctx: SO2nContext, i: int) -> Operator:
    """L_{2i-1,2i}^2, the square of the i-th planar rotation."""
    return rotation_squares(ctx, PairUnion((i,)).variables())


def make_K(ctx: SO2nContext, i: int, j: int) -> Operator:
    """Sum of the six L^2 over index pairs inside {2i-1, 2i, 2j-1, 2j}."""
    return rotation_squares(ctx, PairUnion((i, j)).variables())


def _parity(indices: Sequence[int]) -> int:
    """The sign of the permutation that sorts the distinct indices."""
    inversions = sum(x > y for x, y in itertools.combinations(indices, 2))
    return -1 if inversions % 2 else 1


class Basis:
    """P, C and F of one realization of the relations, complete at construction.

    ctx is the realization's context (its n sizes the sweep); C1 maps i
    to C1^i, and C2 maps i < j to C2^{ij}.  P^{ij} = C2^{ij} - C1^i -
    C1^j is stored under both index orders.  F is antisymmetric by
    construction: each 3-subset i < j < k takes the one commutator
    F^{ijk} = (1/2)[C2^{ij}, C2^{jk}] and its negation, stored under all
    six orderings, the even ones as F^{ijk} and the odd ones as the one
    shared -F^{ijk}.  So C(n, 3) commutators build F, and p, c and f are
    plain lookups.  ``covariant`` checks the orderings against each
    other exactly, and relation (a) checks F against [P, P].
    """

    def __init__(self, ctx, C1: dict[int, Operator], C2: dict[tuple[int, int], Operator]):
        self.ctx = ctx
        self.C1 = C1
        self.C2 = C2
        self.P: dict[tuple[int, int], Operator] = {}
        for (i, j), c in C2.items():
            self.P[i, j] = self.P[j, i] = c - C1[i] - C1[j]
        self._F: dict[tuple[int, int, int], Operator] = {}
        for lo, mid, hi in itertools.combinations(range(1, ctx.n + 1), 3):
            even = commutator(C2[lo, mid], C2[mid, hi]) * Fraction(1, 2)
            odd = -even
            for t in itertools.permutations((lo, mid, hi)):
                self._F[t] = even if _parity(t) > 0 else odd

    def p(self, i: int, j: int) -> Operator:
        return self.P[i, j]

    def c(self, i: int) -> Operator:
        return self.C1[i]

    def f(self, i: int, j: int, k: int) -> Operator:
        return self._F[i, j, k]


class CommutantBasis(Basis):
    """The rescaled invariants of one context: G, K, C1, C2, P and
    F^{ijk} = (1/2)[C2^{ij}, C2^{jk}], all built at construction.

    As C2^{ij} = -K^{ij}/4, F^{ijk} equals [K^{ij}, K^{jk}]/32.  F is
    bracketed from the C2's, not from the P's: the C2's have fewer
    terms, and relation (a) then checks that the C1 terms of the P's
    drop out of the bracket (``covariant`` checks that F is
    antisymmetric).
    """

    # Each subclass keeps f in its own namespace: the benchmark tracer
    # (perfbench/spans.py) wraps cls.__dict__["f"] once per basis class.
    f = Basis.f

    def __init__(self, ctx: SO2nContext):
        n = ctx.n
        one = Operator.constant(ctx.signature, 1)
        quarter = Fraction(-1, 4)
        self.G = {i: make_G(ctx, i) for i in range(1, n + 1)}
        self.K = {(i, j): make_K(ctx, i, j) for i, j in itertools.combinations(range(1, n + 1), 2)}
        C1 = {i: (g + one) * quarter for i, g in self.G.items()}
        C2 = {ij: k * quarter for ij, k in self.K.items()}
        super().__init__(ctx, C1, C2)


def relation_residual(
    rel: str,
    t: Sequence[int],
    p: PAccessor,
    f: FAccessor,
    c: CAccessor,
) -> Operator:
    """Left side minus right side of relation `rel` at the index tuple t.

    Each relation is a bracket [A, B] on the left and a sum of products
    r * X Y on the right (``RELATIONS``), read at t's own operands.  The
    residual is one ``weyl.combination`` of [A, B] and every - r * X Y,
    swept into one packed accumulator, so the right side is never built.
    An unknown relation, a tuple whose length is not the relation's
    arity, and a tuple whose indices repeat raise ValueError.
    """
    if rel not in RELATIONS:
        raise ValueError(f"unknown relation {rel!r}")
    letters, bracket, rhs = RELATIONS[rel]
    if len(t) != len(letters) or len(set(t)) != len(t):
        raise ValueError(f"relation {rel} needs {len(letters)} pairwise distinct indices, not {tuple(t)}")
    index = dict(zip(letters, t))
    accessors = {"P": p, "F": f, "C": c}

    def operand(name: str) -> Operator:
        if name == "1":
            return Operator.constant(left.sig, 1)
        return accessors[name[0]](*(index[letter] for letter in name[1:]))

    left, right = map(operand, bracket)
    return combination([(1, left, right, True), *((-r, operand(x), operand(y), False) for r, x, y in rhs)])


def factor_relabelling(ctx, sigma: Sequence[int]) -> Callable[[Operator], Operator]:
    """The renaming of ctx's variables and parameters that moves factor i to factor sigma[i - 1].

    Each context says which variables and parameters a factor owns
    (``factor_variables``, ``factor_params``), in a fixed order; the
    renaming sends the k-th of factor i's to the k-th of factor
    sigma(i)'s, and ``weyl.relabel`` applies it.
    """
    sig = ctx.signature
    variables, params = [0] * sig.num_vars, [0] * sig.nparams
    for i, image in enumerate(sigma, 1):
        for v, w in zip(ctx.factor_variables(i), ctx.factor_variables(image), strict=True):
            variables[v - 1] = w
        for a, b in zip(ctx.factor_params(i), ctx.factor_params(image), strict=True):
            params[a - 1] = b
    return lambda op: relabel(op, variables, params)


def sn_generators(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transposition (1 2) and the n-cycle (1 2 ... n), which generate S_n, as images of 1..n."""
    return (2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)


def covariant(basis: Basis) -> bool:
    """Whether relabelling the factors permutes the basis: s.C^i = C^{s(i)},
    s.P^{ij} = P^{s(i)s(j)} and s.F^{ijk} = F^{s(i)s(j)s(k)}, exactly.

    It is checked for the transposition (1 2) and the n-cycle
    (1 2 ... n), which generate S_n, at every ordered index tuple, as
    ``==`` of the relabelled stored operator and the stored one.  At
    the orderings of one 3-subset this is also the exact check that F
    is antisymmetric.  It returns False at the first mismatch, and also
    when an accessor raises: such a basis is not certified, and the
    direct sweep raises the error with its relation and tuple named.
    """
    ctx = basis.ctx
    n = ctx.n
    try:
        for s in sn_generators(n):
            move = factor_relabelling(ctx, s)
            for arity, accessor in ((1, basis.c), (2, basis.p), (3, basis.f)):
                for t in itertools.permutations(range(1, n + 1), arity):
                    if move(accessor(*t)) != accessor(*(s[i - 1] for i in t)):
                        return False
    except Exception:
        return False
    return True


def sweep_relations(basis: Basis, jobs: int = 1) -> RelationReport:
    """Check all five relations over every tuple of pairwise distinct indices.

    Each relation's tuples are one orbit of S_n, led by the canonical
    tuple (1, ..., arity), and ``report.run_orbits`` checks them under
    the certificate ``covariant``.  Every injective tuple t is
    sigma(1, ..., arity) for some sigma in S_n.  Relabelling the factors
    by sigma is an algebra automorphism, so it maps the residual at the
    canonical tuple to the residual built from the relabelled operands;
    covariance on the two generators gives covariance for all of S_n (a
    word in them relabels one generator at a time), so those operands
    are the ones stored at t, and the residual at t is sigma applied to
    the canonical one.  Relabelling is injective on monomials, so every
    tuple gets the canonical verdict and ``residual_terms``.

    The trade: the kernel runs only at the canonical tuples.  A kernel
    fault that depends on which variables an operand uses would show in
    the direct sweep; here it shows only where it breaks the covariance
    of the basis, which the kernel built at every index.  So a basis
    that is not covariant, or whose accessors raise, takes the direct
    sweep, the reference the tests keep: ``relation_residual`` at every
    tuple on its own, so an error names the relation and the tuple.

    Entries come in relation order, tuples in permutation order.
    Relations whose arity exceeds n get a single 'skipped' entry after
    them: they have no admissible tuples at that rank, and arities
    ascend, so those entries come last.  The basis holds every P and F
    from its construction, so forked workers inherit them and only look
    them up.
    """
    n = basis.ctx.n
    if n < 3:
        raise ValueError("the relation sweep needs at least three factors")
    p, f, c = basis.p, basis.f, basis.c
    orbits = [
        (rel, list(itertools.permutations(range(1, n + 1), arity)))
        for rel, arity in RELATION_ARITY.items()
        if arity <= n
    ]
    report = run_orbits(orbits, lambda rel, t: relation_residual(rel, t, p, f, c), lambda: covariant(basis), jobs)
    for rel, arity in RELATION_ARITY.items():
        if arity > n:
            report.add(ReportEntry(rel, (), True, 0, 0.0, "skipped: no admissible index tuples at this rank"))
    return report


def verify_racah_relations(ctx: SO2nContext, basis: CommutantBasis, jobs: int = 1) -> RelationReport:
    """Full relation sweep in the commutant realization: sweep_relations over basis,
    every tuple's entry derived from its relation's canonical tuple when
    the basis is covariant, computed tuple by tuple otherwise.

    ctx is not read; it keeps the leading argument every entry point of
    this module takes.  The racah suite calls sweep_relations itself;
    perfbench/workloads.py calls this.
    """
    return sweep_relations(basis, jobs)


def check_commutant_property(ctx: SO2nContext, basis: CommutantBasis, jobs: int = 1) -> RelationReport:
    """[G^i, L_{2s-1,2s}] = 0 and [K^{ij}, L_{2s-1,2s}] = 0 for every i, j, s.

    G entries carry the index tuple (i, s), K entries (i, j, s), read
    from basis, the one CommutantBasis of ctx.
    """
    rotations = {s: make_L(ctx, *ctx.factor_variables(s)) for s in range(1, ctx.n + 1)}
    invariants = {(i,): g for i, g in basis.G.items()} | basis.K
    return run_checks(
        "commutant",
        [ij + (s,) for ij in invariants for s in rotations],
        lambda t: commutator(invariants[t[:-1]], rotations[t[-1]]),
        jobs,
    )


def dependency_residual(ctx: SO2nContext, subset: Sequence[int], basis: CommutantBasis) -> Operator:
    """The subset Casimir minus its decomposition (liealg.decomposition_sum)
    through the basis's C2^{ij} and C1^i.

    The left side is the coupled triple's Casimir (casimir_CA), computed
    independently of C1 and C2.  Repeated or out-of-range factors raise
    ValueError, as does a subset of fewer than two factors.
    """
    union = PairUnion(subset)
    return casimir_CA(ctx, union) - decomposition_sum(union.pairs, lambda i, j: basis.C2[(i, j)], basis.c)


def verify_dependency(ctx: SO2nContext, subset: Sequence[int], basis: CommutantBasis) -> bool:
    """Whether the dependency identity holds (its residual is zero)."""
    return dependency_residual(ctx, subset, basis).is_zero()
