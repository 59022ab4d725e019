"""Sparse normal-ordered differential operators: the noncommutative core.

An operator in m variables is a sparse sum of normal-ordered monomials

    x1^a1 .. xm^am  d1^b1 .. dm^bm        (all positions left of all
                                           derivatives, indices ascending)

stored as a flat dict from (exponent tuple (a1..am, b1..bm), parameter
exponent tuple) to a nonzero integer numerator, over one positive
denominator per operator: every coefficient is num / den, in lowest terms
(gcd(den, *nums) == 1, and den == 1 for zero).  This is the
common-denominator form FLINT's fmpq_poly keeps.  Derivative exponents
are non-negative.  Position exponents may be negative for variables
declared localized in the signature; that is what makes 1/x^2 potential
terms first-class citizens.  The (Laurent) polynomials operators act on
are stored the same way, keyed by (position exponents, parameter
exponent).  ParamPoly is the coefficient type at the edges: constructors
and ``scale`` take it, and ``coefficients()`` returns it (for printing
and callers).

Multiplication renormal-orders with the per-variable rule

    d^b x^k = sum_{s=0..b} C(b,s) * k(k-1)...(k-s+1) * x^(k-s) d^(b-s)

whose falling factorial is valid for negative k as well; distinct
variables commute.  Because the representation is canonical (no zero
terms, exponent-vector keys, reduced denominator), equality compares the
stored maps.

The product kernel and the sums run on integers: the pair sweep
multiplies and accumulates numerators, the product's denominator is
den_a * den_b reduced once by a gcd, and a sum or difference merges the
numerators over lcm(den_a, den_b).  A commutator [a, b] is one sweep
over the same monomial pairs that never builds ab or ba: the s=0 terms
of ma * mb and mb * ma are equal and never emitted, so only the s >= 1
reorder terms of the two directions are accumulated, with opposite
signs, over den_a * den_b.  ``scale`` multiplies the numerators by
those of the constant directly, adding its parameter exponents, with no
sweep.

Both sweeps add m * (their numerators) into an accumulator and layout
the caller passes in, m an integer multiplier applied once per left
entry.  ``combination`` is the one kernel entry, and every product and
commutator is a one-term ``combination``.  It sums products c * a * b
and brackets c * [a, b] with rational c: it picks one layout wide enough
for all of its pairs, brings every term to the common denominator
lcm(den_c * den_a * den_b) and runs every sweep into one accumulator,
so a sum such as a relation residual is decoded and reduced once, and
the intermediates that cancel are never built.

Both pair sweeps run on packed keys: each (monomial, parameter
exponent) key becomes one int of fixed-width offset-binary fields, field
j holding e_j + 2^(w-1) in bits w*j .. w*j + w - 1, in the order x1..xm,
d1..dm, a1..ak.  ``bias`` is the key of the zero exponent vector, so the
s=0 term of a pair is ka + kb - bias, and a reorder by s on variable i
subtracts s * unit_i, unit_i being one in the x_i field plus one in the
d_i field.  The variables to reorder are dmask_a & xmask_b on int
bitmasks.  The width w is the smallest of 16, 32 and 64 bits with
2 * (max|exponent of a| + max|exponent of b|) < 2^(w-1), the largest
over the pairs of a combination, which bounds every exponent of a
result term, so no field carries or borrows; wider exponents raise
OverflowError.  Each result key is decoded back to its exponent tuples
once per product, commutator or combination (the fields of k ^ bias
are two's complement integers).  An operator's packed view (monomials,
masks, packed entries, max |exponent|) is built on its first product
or commutator and cached on the immutable operator, repacked only when
a pair needs another width; pickles leave it out.  The basis operators
of a verification run take part in many products, and packing them on
every call costs about a tenth of the run (BENCH_packed_kernel.json).

Application of an operator to a polynomial (``Operator.apply``) is
implemented by direct differentiation, deliberately independent of the
multiplication kernel, so the two can cross-check each other.  It and
``Polynomial.evaluate`` run on integers too: apply multiplies numerators
by falling factorials over den_op * den_f, and evaluate sums integer
terms built from cached powers of each coordinate's numerator and
denominator (``_power_tables``), building one Fraction at the end.
``evaluator(op)`` gives the value (op f)(p) without building op f: it
groups op's monomials by derivative exponent b once, as
op = sum_b alpha_b(x) d^b, and each call sums alpha_b(p) * (d^b f)(p)
on the same power tables, again by direct differentiation.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod
from operator import add
from typing import Callable, Mapping, Sequence, Union

from .coeff import ParamPoly, parse_param_poly, read_factor, read_rational

CoeffLike = Union[int, Fraction, ParamPoly]


@dataclass(frozen=True)
class AlgebraSignature:
    """Fixes the algebra an operator lives in.

    num_vars:  number of position variables (same count of derivatives).
    localized: 1-based indices of variables allowed negative position
               exponents.
    params:    ordered names of the coefficient parameters a1..ak.
    """

    num_vars: int
    localized: frozenset[int] = field(default_factory=frozenset)
    params: tuple[str, ...] = ()

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be positive")
        object.__setattr__(self, "localized", frozenset(self.localized))
        object.__setattr__(self, "params", tuple(self.params))
        if not all(1 <= i <= self.num_vars for i in self.localized):
            raise ValueError("localized indices must lie in 1..num_vars")

    @property
    def nparams(self) -> int:
        return len(self.params)

    def check_monomial(self, xexp: Sequence[int], dexp: Sequence[int]) -> None:
        if len(xexp) != self.num_vars or len(dexp) != self.num_vars:
            raise ValueError("exponent vector length differs from num_vars")
        for i, b in enumerate(dexp):
            if b < 0:
                raise ValueError(f"negative derivative exponent d{i + 1}^{b}")
        for i, a in enumerate(xexp):
            if a < 0 and (i + 1) not in self.localized:
                raise ValueError(
                    f"negative position exponent x{i + 1}^{a} on a non-localized variable"
                )

    def coeff(self, value: CoeffLike) -> ParamPoly:
        if isinstance(value, ParamPoly):
            if value.nparams != self.nparams:
                raise ValueError(
                    f"coefficient arity {value.nparams} differs from signature arity {self.nparams}"
                )
            return value
        return ParamPoly.const(self.nparams, value)

    def param(self, index: int) -> ParamPoly:
        """The coefficient polynomial a_index (1-based)."""
        return ParamPoly.param(self.nparams, index)


@lru_cache(maxsize=None)
def _falling(k: int, s: int) -> int:
    """k(k-1)...(k-s+1); defined for every integer k, zero when 0 <= k < s."""
    out = 1
    for t in range(s):
        out *= k - t
    return out


@lru_cache(maxsize=None)
def _reorder_options(b: int, k: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (s, C(b,s)*falling(k,s)) pairs for moving d^b past x^k.

    falling(k, s) vanishes for 0 <= k < s, so s stops at k when k >= 0.
    """
    top = b if k < 0 else min(b, k)
    return tuple((s, f) for s in range(top + 1) if (f := comb(b, s) * _falling(k, s)))


def _by_monomial(terms: Mapping[tuple, int]) -> list[tuple[tuple, list[tuple[tuple, int]]]]:
    """Flat entries grouped by monomial: [(mono, [(pexp, num), ...]), ...]."""
    grouped: dict[tuple, list[tuple[tuple, int]]] = {}
    for (mono, pe), q in terms.items():
        grouped.setdefault(mono, []).append((pe, q))
    return list(grouped.items())


def _width(bound: int) -> tuple[int, str]:
    """The smallest field width w of 16, 32, 64 bits with 2 * bound < 2^(w-1), and its struct code."""
    for w, code in ((16, "h"), (32, "i"), (64, "q")):
        if 2 * bound < 1 << (w - 1):
            return w, code
    raise OverflowError(f"exponents up to {bound} do not fit the 64-bit packed fields of the product kernel")


class _Layout:
    """The packed key layout of one signature at one field width.

    Field j (x exponents, then d exponents, then parameter exponents)
    holds e_j + 2^(w-1) in bits w*j .. w*j + w - 1; ``bias`` is the key
    of the zero exponent vector and ``units[i]`` is one in the x_i field
    plus one in the d_i field.  Summing ``xbits`` (``dbits``) compressed
    by a monomial gives its position (derivative) mask.
    """

    __slots__ = ("width", "nvars", "nparams", "bias", "units", "xbits", "dbits", "fields")

    def __init__(self, nvars: int, nparams: int, width: int, code: str):
        nfields = 2 * nvars + nparams
        self.width = width
        self.nvars = nvars
        self.nparams = nparams
        self.bias = sum(1 << (width * j + width - 1) for j in range(nfields))
        self.units = tuple((1 << width * i) | (1 << width * (nvars + i)) for i in range(nvars))
        self.xbits = tuple(1 << i for i in range(nvars))
        self.dbits = (0,) * nvars + self.xbits
        self.fields = struct.Struct(f"<{nfields}{code}")

    def decode(self, acc: dict[int, int]) -> dict[tuple, int]:
        """Packed key -> num as the nonzero (mono, pexp) -> num."""
        bias, nbytes, unpack = self.bias, self.fields.size, self.fields.unpack
        out = {}
        if not self.nparams:
            for k, q in acc.items():
                if q:
                    out[unpack((k ^ bias).to_bytes(nbytes, "little")), ()] = q
            return out
        # One tuple object per distinct monomial and parameter exponent.
        split = 2 * self.nvars
        shared: dict[tuple, tuple] = {}
        for k, q in acc.items():
            if q:
                t = unpack((k ^ bias).to_bytes(nbytes, "little"))
                mono, pe = t[:split], t[split:]
                out[shared.setdefault(mono, mono), shared.setdefault(pe, pe)] = q
        return out


@lru_cache(maxsize=None)
def _layout(nvars: int, nparams: int, width: int, code: str) -> _Layout:
    return _Layout(nvars, nparams, width, code)


class _Packed:
    """An operator's terms in packed form, the operand view of the pair sweeps.

    One column entry per monomial: ``monos`` holds the monomial, bit i
    of ``dmasks`` (``xmasks``) is set when it has a derivative (position)
    exponent on variable i, and ``entries`` holds its (packed key,
    numerator) pairs at ``width``.  ``top`` is the largest |exponent|.
    """

    __slots__ = ("width", "top", "monos", "dmasks", "xmasks", "entries")

    def __init__(self, op: Operator, top: int, layout: _Layout):
        pack, bias, from_bytes = layout.fields.pack, layout.bias, int.from_bytes
        grouped: dict[tuple, list[tuple[int, int]]] = {}
        for (mono, pe), q in op.terms.items():
            grouped.setdefault(mono, []).append((from_bytes(pack(*mono, *pe), "little") ^ bias, q))
        self.width = layout.width
        self.top = top
        self.monos = list(grouped)
        self.dmasks = [sum(itertools.compress(layout.dbits, mono)) for mono in grouped]
        self.xmasks = [sum(itertools.compress(layout.xbits, mono)) for mono in grouped]
        self.entries = [tuple(entries) for entries in grouped.values()]


def _top(op: Operator) -> int:
    """The largest |exponent| of op (0 for zero)."""
    view = getattr(op, "_packed", None)
    if view is not None:
        return view.top
    flat = list(itertools.chain.from_iterable(itertools.chain.from_iterable(op.terms)))
    return max(max(flat, default=0), -min(flat, default=0))


def _view(op: Operator, layout: _Layout) -> _Packed:
    """op's packed view at the layout's width, cached on op."""
    view = getattr(op, "_packed", None)
    if view is None or view.width != layout.width:
        view = op._packed = _Packed(op, _top(op), layout)
    return view


def _layout_for(pairs: Sequence[tuple[Operator, Operator]]) -> _Layout:
    """The one layout every pair (a, b) of a sweep is packed at.

    Every exponent of a reorder term of ma * mb is bounded by
    2 * top_a + top_b (a negative position exponent can drop by up to
    the derivative exponent it meets), so fields of width w with
    2 * max(top_a + top_b) < 2^(w-1) never carry or borrow in any pair.
    """
    sig = pairs[0][0].sig
    bound = max(_top(a) + _top(b) for a, b in pairs)
    return _layout(sig.num_vars, sig.nparams, *_width(bound))


@lru_cache(maxsize=None)
def _shifts(unit: int, b: int, k: int, sign: int) -> tuple[tuple[int, int], ...]:
    """(s * unit, sign * C(b,s) * falling(k,s)) for the s >= 1 options of moving d^b past x^k."""
    return tuple((s * unit, sign * f) for s, f in _reorder_options(b, k)[1:])


def _reorders(layout: _Layout, ma: tuple, mb: tuple, active: int, sign: int) -> tuple[tuple[int, int], ...]:
    """(key shift, sign * factor) of every reorder term of ma * mb but the s=0 one.

    ``active`` has bit i set for the variables where ma's derivative
    meets mb's position.  With one such variable these are its options;
    with several, the terms come in the order of ``itertools.product``
    over the per-variable options, s=0 first.
    """
    m, units = layout.nvars, layout.units
    if not active & (active - 1):
        i = active.bit_length() - 1
        return _shifts(units[i], ma[m + i], mb[i], sign)
    per_var = [((0, 1), *_shifts(units[i], ma[m + i], mb[i], 1)) for i in range(m) if active >> i & 1]
    return tuple(
        (sum(shift for shift, _ in combo), sign * prod(f for _, f in combo))
        for combo in itertools.islice(itertools.product(*per_var), 1, None)
    )


def _product(acc: dict[int, int], layout: _Layout, a: Operator, b: Operator, m: int) -> None:
    """Add m * (the numerators of ab over den_a * den_b) to acc, in one sweep over monomial pairs.

    Each pair adds its s=0 term at key ka + kb - bias and, where a
    derivative of ma meets a position of mb, the reorder terms at that
    key minus their shifts.
    """
    va, vb = _view(a, layout), _view(b, layout)
    bias = layout.bias
    acc_get = acc.get
    for ma, dmask, ea in zip(va.monos, va.dmasks, va.entries):
        ea = [(ka - bias, qa * m) for ka, qa in ea]
        for mb, xmask, eb in zip(vb.monos, vb.xmasks, vb.entries):
            active = dmask & xmask
            shifts = _reorders(layout, ma, mb, active, 1) if active else ()
            for ka, qa in ea:
                for kb, qb in eb:
                    key = ka + kb
                    q = qa * qb
                    acc[key] = acc_get(key, 0) + q
                    for shift, f in shifts:
                        k = key - shift
                        acc[k] = acc_get(k, 0) + q * f


def _commutator(acc: dict[int, int], layout: _Layout, a: Operator, b: Operator, m: int) -> None:
    """Add m * (the numerators of ab - ba over den_a * den_b) to acc, in one pair sweep.

    For each monomial pair the s=0 terms of ma * mb and mb * ma are the
    same monomial ma + mb with the same coefficient (the coefficient
    product commutes), so they cancel and are never emitted.  A pair
    where no derivative of either monomial meets a position of the
    other contributes nothing and is skipped.  Every other pair adds the
    s >= 1 reorder terms of ma * mb and subtracts those of mb * ma.
    """
    va, vb = _view(a, layout), _view(b, layout)
    bias = layout.bias
    acc_get = acc.get
    for ma, da, xa, ea in zip(va.monos, va.dmasks, va.xmasks, va.entries):
        ea = [(ka - bias, qa * m) for ka, qa in ea]
        for mb, db, xb, eb in zip(vb.monos, vb.dmasks, vb.xmasks, vb.entries):
            ab, ba = da & xb, db & xa
            if not (ab or ba):
                continue
            shifts = _reorders(layout, ma, mb, ab, 1) if ab else ()
            if ba:
                shifts += _reorders(layout, mb, ma, ba, -1)
            for ka, qa in ea:
                for kb, qb in eb:
                    key = ka + kb
                    q = qa * qb
                    for shift, f in shifts:
                        k = key - shift
                        acc[k] = acc_get(k, 0) + q * f


class _FlatTerms:
    """The storage Operator and Polynomial share.

    ``terms`` maps (exponent tuple, parameter exponent) to a nonzero
    integer numerator and ``den`` is the common positive denominator, in
    lowest terms; callers must never mutate them.  The form is canonical,
    so equality compares the stored maps.  ``coefficients()`` gives the
    same value as exponent tuple -> ParamPoly.
    """

    __slots__ = ("sig", "terms", "den")

    def __init__(self, sig: AlgebraSignature, terms: Mapping[tuple, ParamPoly] | None = None):
        # Normalized Fractions over the lcm of their denominators are in lowest terms.
        terms = terms or {}
        if any(c.nparams != sig.nparams for c in terms.values()):
            raise ValueError(f"coefficient arity differs from signature arity {sig.nparams}")
        den = lcm(*(q.denominator for c in terms.values() for q in c.terms.values()))
        self.sig = sig
        self.den = den
        self.terms = {
            (mono, pe): q.numerator * (den // q.denominator) for mono, c in terms.items() for pe, q in c.terms.items()
        }

    @classmethod
    def _make(cls, sig: AlgebraSignature, terms: dict[tuple, int], den: int):
        """An instance from nonzero numerators over den, reduced to lowest terms."""
        if den != 1:
            g = gcd(den, *terms.values())  # den itself when terms is empty
            if g != 1:
                den //= g
                terms = {key: q // g for key, q in terms.items()}
        out = cls.__new__(cls)
        out.sig = sig
        out.terms = terms
        out.den = den
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def term_count(self) -> int:
        """Number of monomials (not of (monomial, parameter exponent) entries)."""
        return len({mono for mono, _ in self.terms})

    def coefficients(self) -> dict[tuple, ParamPoly]:
        """Monomial -> nonzero ParamPoly coefficient."""
        grouped: dict[tuple, dict[tuple, Fraction]] = {}
        for (mono, pe), q in self.terms.items():
            grouped.setdefault(mono, {})[pe] = Fraction(q, self.den)
        return {mono: ParamPoly(self.sig.nparams, d) for mono, d in grouped.items()}

    def _check_sig(self, other: _FlatTerms) -> None:
        if self.sig != other.sig:
            raise ValueError("operands live in different algebra signatures")

    def _merge(self, other: _FlatTerms, sign: int):
        """self + sign * other, merged as numerators over lcm(den_a, den_b)."""
        self._check_sig(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = {key: q * fa for key, q in self.terms.items()} if fa != 1 else dict(self.terms)
        for key, q in other.terms.items():
            s = out.get(key, 0) + q * fb
            if s:
                out[key] = s
            else:
                del out[key]
        return self._make(self.sig, out, den)

    def _negated(self):
        return self._make(self.sig, {key: -q for key, q in self.terms.items()}, self.den)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.sig == other.sig and self.den == other.den and self.terms == other.terms

    __hash__ = None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        coefficients = self.coefficients()
        return " + ".join(
            " * ".join([_coeff_str(coefficients[mo]), *self._factors(mo)])
            for mo in sorted(coefficients, key=lambda mo: (sum(mo), mo), reverse=True)
        )


class Operator(_FlatTerms):
    """Immutable sparse operator in canonical normal-ordered form.

    The keys of ``terms`` are (monomial, parameter exponent), the
    monomial being the position exponents followed by the derivative
    exponents.  ``_packed`` caches the packed view the pair sweeps read
    (unset until the first product or commutator); pickles leave it out.
    """

    __slots__ = ("_packed",)

    def __init__(self, sig: AlgebraSignature, terms: Mapping[tuple, ParamPoly] | None = None):
        m = sig.num_vars
        for mono in terms or ():
            sig.check_monomial(mono[:m], mono[m:])
        super().__init__(sig, terms)

    def __getstate__(self):
        return None, {"sig": self.sig, "terms": self.terms, "den": self.den}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sig: AlgebraSignature) -> Operator:
        return cls(sig)

    @classmethod
    def constant(cls, sig: AlgebraSignature, value: CoeffLike) -> Operator:
        c = sig.coeff(value)
        if not c:
            return cls(sig)
        return cls(sig, {(0,) * (2 * sig.num_vars): c})

    @classmethod
    def monomial(
        cls,
        sig: AlgebraSignature,
        xexp: Sequence[int],
        dexp: Sequence[int],
        coeff: CoeffLike = 1,
    ) -> Operator:
        if len(xexp) != len(dexp):
            raise ValueError("exponent vector length differs from num_vars")
        return cls(sig, {(*xexp, *dexp): sig.coeff(coeff)})

    @classmethod
    def x(cls, sig: AlgebraSignature, index: int, power: int = 1) -> Operator:
        """x_index^power (1-based index; negative power needs localization)."""
        xe = [0] * sig.num_vars
        xe[_check_index(sig, index) - 1] = power
        return cls.monomial(sig, xe, [0] * sig.num_vars)

    @classmethod
    def d(cls, sig: AlgebraSignature, index: int, power: int = 1) -> Operator:
        """d_index^power (1-based index)."""
        de = [0] * sig.num_vars
        de[_check_index(sig, index) - 1] = power
        return cls.monomial(sig, [0] * sig.num_vars, de)

    # -- queries -----------------------------------------------------------

    def derivative_degree(self) -> int:
        """Largest total derivative degree over all terms (0 for zero)."""
        m = self.sig.num_vars
        return max((sum(mo[m:]) for mo, _ in self.terms), default=0)

    def constant_value(self) -> ParamPoly:
        """Coefficient of the identity monomial (the rest must vanish)."""
        ident = (0,) * (2 * self.sig.num_vars)
        coefficients = self.coefficients()
        if any(mo != ident for mo in coefficients):
            raise ValueError(f"operator is not a multiple of the identity: {self}")
        return coefficients.get(ident, ParamPoly(self.sig.nparams))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Operator) -> Operator:
        if not isinstance(other, Operator):
            return NotImplemented
        return self._merge(other, 1)

    def __neg__(self) -> Operator:
        return self._negated()

    def __sub__(self, other: Operator) -> Operator:
        if not isinstance(other, Operator):
            return NotImplemented
        return self._merge(other, -1)

    def __mul__(self, other: Union[Operator, CoeffLike]) -> Operator:
        """The normal-ordered product, a one-term ``combination``; OverflowError past 64-bit fields."""
        if isinstance(other, Operator):
            return combination(((1, self, other, False),))
        return self.scale(other)

    def __rmul__(self, other: CoeffLike) -> Operator:
        return self.scale(other)

    def scale(self, value: CoeffLike) -> Operator:
        """value * self on the numerators: c = sum_pc q_c a^pc sends (mono, pe) -> (mono, pe + pc)."""
        c = self.sig.coeff(value)
        den = lcm(*(q.denominator for q in c.terms.values()))
        factors = [(pc, q.numerator * (den // q.denominator)) for pc, q in c.terms.items()]
        if len(factors) == 1 and not any(factors[0][0]):
            f = factors[0][1]
            terms = {key: q * f for key, q in self.terms.items()}
        else:
            terms = {}
            for (mono, pe), q in self.terms.items():
                for pc, f in factors:
                    key = (mono, tuple(map(add, pe, pc)))
                    terms[key] = terms.get(key, 0) + q * f
            terms = {key: q for key, q in terms.items() if q}
        return Operator._make(self.sig, terms, self.den * den)

    def specialize_params(self, values: Sequence[Fraction | int]) -> Operator:
        """Substitute numbers for the coefficient parameters.

        Returns an operator over the parameter-free signature with the
        same variables and localization.
        """
        if len(values) != self.sig.nparams:
            raise ValueError("need one value per parameter")
        new_sig = AlgebraSignature(self.sig.num_vars, self.sig.localized, ())
        return Operator(
            new_sig, {mo: ParamPoly.const(0, c.evaluate(values)) for mo, c in self.coefficients().items()}
        )

    # -- action on test functions -------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """Act on a (Laurent) polynomial by direct differentiation.

        Independent of the multiplication kernel on purpose: this is the
        semantic oracle the normal-ordering rule is checked against.  It
        runs on integers: d^b x^k = falling(k, b) x^(k-b), so each output
        numerator accumulates num_op * num_f * (product of falling
        factorials), over den_op * den_f reduced once by a gcd.
        """
        if self.sig != f.sig:
            raise ValueError("operator and polynomial signatures differ")
        m = self.sig.num_vars
        zero = (0,) * self.sig.nparams
        fitems = _by_monomial(f.terms)
        acc: dict[tuple, int] = {}
        acc_get = acc.get
        for mo, ca in _by_monomial(self.terms):
            dvars = [(i, mo[m + i]) for i in range(m) if mo[m + i]]
            shift = [mo[i] - mo[m + i] for i in range(m)]
            for k, cb in fitems:
                factor = 1
                for i, b in dvars:
                    factor *= _falling(k[i], b)
                    if not factor:
                        break
                if not factor:
                    continue
                xe = tuple(map(add, k, shift))
                for pa, na in ca:
                    nf = na * factor
                    for pb, nb in cb:
                        pe = pb if pa == zero else pa if pb == zero else tuple(map(add, pa, pb))
                        key = (xe, pe)
                        acc[key] = acc_get(key, 0) + nf * nb
        return Polynomial._make(self.sig, {key: q for key, q in acc.items() if q}, self.den * f.den)

    # -- printing ------------------------------------------------------------

    def _factors(self, mo: tuple) -> list[str]:
        m = self.sig.num_vars
        return _powers("x", mo[:m]) + _powers("d", mo[m:])

    def __repr__(self) -> str:
        return f"Operator({self.sig.num_vars} vars, {self.term_count()} terms)"


def _check_index(sig: AlgebraSignature, index: int) -> int:
    if not 1 <= index <= sig.num_vars:
        raise ValueError(f"variable index {index} out of range 1..{sig.num_vars}")
    return index


def _coeff_str(c: ParamPoly) -> str:
    if c.is_constant():
        v = c.constant_value()
        return str(v) if v > 0 else f"({v})"
    return f"({c})"


def _powers(name: str, exps: Sequence[int]) -> list[str]:
    """The printed factors name1^e1 .. of the nonzero exponents."""
    return [f"{name}{i + 1}" + (f"^{k}" if k != 1 else "") for i, k in enumerate(exps) if k]


def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] = ab - ba, the one-term ``combination`` whose sweep never builds ab or ba.

    Like the product, it raises OverflowError when the exponents of a and
    b are too large for 64-bit packed fields (see the module docstring).
    """
    return combination(((1, a, b, True),))


def combination(terms: Sequence[tuple[Fraction | int, Operator, Operator, bool]]) -> Operator:
    """sum c * a * b over the terms (c, a, b, False) plus c * [a, b] over the terms (c, a, b, True).

    Each coefficient c must be an int or a Fraction; its ``numerator``
    and ``denominator`` are read directly.  Every term runs its sweep
    into one packed accumulator, at one layout wide enough for all of
    its pairs and over the common denominator den = lcm(den_c * den_a *
    den_b), each term's numerators multiplied by num_c * den / (den_c *
    den_a * den_b).  Only the sum is decoded and reduced, so
    intermediates that cancel are never built; a zero sum decodes
    nothing.  The result equals the sum of the terms taken one at a
    time (``*`` and ``commutator`` are one-term combinations) and added
    with ``+`` and ``-``, terms and denominator alike.
    Operands in different signatures raise ValueError, and exponents
    too large for 64-bit packed fields OverflowError.
    """
    first = terms[0][1]
    for _, a, b, _ in terms:
        first._check_sig(a)
        first._check_sig(b)
    layout = _layout_for([(a, b) for _, a, b, _ in terms])
    dens = [c.denominator * a.den * b.den for c, a, b, _ in terms]
    den = lcm(*dens)
    acc: dict[int, int] = {}
    for (c, a, b, bracket), d in zip(terms, dens):
        (_commutator if bracket else _product)(acc, layout, a, b, c.numerator * (den // d))
    return Operator._make(first.sig, layout.decode(acc), den)


class Polynomial(_FlatTerms):
    """(Laurent) polynomial in the position variables, parameter coefficients.

    The value type operators act on; also the oracle's test functions.
    The keys of ``terms`` are (position exponents, parameter exponent).
    """

    __slots__ = ()

    def __init__(self, sig: AlgebraSignature, terms: Mapping[tuple, ParamPoly] | None = None):
        for xe in terms or ():
            sig.check_monomial(xe, (0,) * sig.num_vars)
        super().__init__(sig, terms)

    @classmethod
    def zero(cls, sig: AlgebraSignature) -> Polynomial:
        return cls(sig)

    @classmethod
    def monomial(cls, sig: AlgebraSignature, xexp: Sequence[int], coeff: CoeffLike = 1) -> Polynomial:
        return cls(sig, {tuple(xexp): sig.coeff(coeff)})

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._merge(other, 1)

    def __neg__(self) -> Polynomial:
        return self._negated()

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._merge(other, -1)

    def evaluate(self, coords: Sequence[Fraction], params: Sequence[Fraction] = ()) -> Fraction:
        """Exact value at a rational point; localized coordinates must be nonzero.

        Runs on integers: each term is its numerator times one entry of
        each variable's power table over the range of its exponents
        (``_power_tables``), and the integer sum times the tables' common
        factor over den is one Fraction built at the end
        (ZeroDivisionError when a negative exponent meets a zero
        coordinate).
        """
        _check_point(self.sig, coords, params)
        if not self.terms:
            return Fraction(0)
        keys = [xe + pe for xe, pe in self.terms]
        ranges = [(min(exps), max(exps)) for exps in zip(*keys)]
        tables, num, den = _power_tables((*coords, *params), ranges)
        varying = [(j, lo, table) for j, ((lo, hi), table) in enumerate(zip(ranges, tables)) if lo != hi]
        total = 0
        for key, q in zip(keys, self.terms.values()):
            for j, lo, table in varying:
                q *= table[key[j] - lo]
            total += q
        return Fraction(total * num, den * self.den)

    def _factors(self, xe: tuple) -> list[str]:
        return _powers("x", xe)

    def __repr__(self) -> str:
        return f"Polynomial({self.sig.num_vars} vars, {self.term_count()} terms)"


def _check_point(sig: AlgebraSignature, coords: Sequence, params: Sequence) -> None:
    if len(coords) != sig.num_vars:
        raise ValueError("coordinate count differs from num_vars")
    if len(params) != sig.nparams:
        raise ValueError(f"expected {sig.nparams} parameter values, got {len(params)}")


def _power_tables(point: Sequence, ranges: Sequence[tuple[int, int]]) -> tuple[list[list[int]], int, int]:
    """Integer power tables for exact evaluation at a rational point.

    Write point[j] as u/w in lowest terms and let lo..hi be ranges[j].
    Then (u/w)^e = table_j[e - lo] * u^lo w^-hi for lo <= e <= hi, with
    table_j[t] = u^t w^(hi-lo-t) an integer.  Returns the tables and
    num/den = prod_j u^lo w^-hi; den is 0 when some lo < 0 meets u = 0.
    """
    num = den = 1
    tables = []
    for value, (lo, hi) in zip(point, ranges):
        value = Fraction(value)
        u, w = value.numerator, value.denominator
        if lo < 0:
            den *= u ** -lo
        else:
            num *= u ** lo
        if hi > 0:
            den *= w ** hi
        else:
            num *= w ** -hi
        span = hi - lo
        upow, wpow = [1], [1]
        for _ in range(span):
            upow.append(upow[-1] * u)
            wpow.append(wpow[-1] * w)
        tables.append([upow[t] * wpow[span - t] for t in range(span + 1)])
    return tables, num, den


def evaluator(op: Operator) -> Callable[..., Fraction]:
    """value(f, coords, params) = (op f)(p), without building op f.

    Write op as sum_b alpha_b(x) d^b, alpha_b collecting the monomials
    with derivative exponent b; then (op f)(p) = sum_b alpha_b(p) *
    (d^b f)(p).  The grouping is done once, here.  Each call evaluates
    every alpha_b in one pass over op's monomials, and every (d^b f)(p)
    from one row per test-function term and differentiated variable
    whose entry b_i is falling(k_i, b_i) * x_i^(k_i - b_i) at p.  Like
    ``Operator.apply`` it is direct differentiation and never calls the
    product kernel.  It runs on integers through ``_power_tables`` and
    builds one Fraction at the end.

    The value and its type equal ``op.apply(f).evaluate(coords,
    params)`` whenever every localized coordinate is nonzero, zero
    non-localized coordinates and zero parameter values included.  A
    zero localized coordinate raises ZeroDivisionError at once, even
    where op f has no negative power of it.
    """
    sig = op.sig
    m = sig.num_vars
    localized = [i - 1 for i in sorted(sig.localized)]
    # The differentiated variables, and the largest derivative exponent of each.
    dtops = [(i, top) for i in range(m) if (top := max((mono[m + i] for mono, _ in op.terms), default=0))]
    dvars = [i for i, _ in dtops]
    undifferentiated = [j for j in range(m + sig.nparams) if j not in dvars]
    keys = [mono[:m] + pe for mono, pe in op.terms]
    ranges = [(min(exps), max(exps)) for exps in zip(*keys)]
    varying = [j for j, (lo, hi) in enumerate(ranges) if lo != hi]
    # alpha_b as (b on dvars, [(num, table indices on the varying columns)]).
    groups: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}
    for key, ((mono, _), q) in zip(keys, op.terms.items()):
        b = tuple(mono[m + i] for i in dvars)
        groups.setdefault(b, []).append((q, tuple(key[j] - ranges[j][0] for j in varying)))
    groups = list(groups.items())
    getitem = list.__getitem__

    def value(f: Polynomial, coords: Sequence[Fraction], params: Sequence[Fraction] = ()) -> Fraction:
        if f.sig != sig:
            raise ValueError("operator and polynomial signatures differ")
        _check_point(sig, coords, params)
        if any(coords[i] == 0 for i in localized):
            raise ZeroDivisionError("a localized coordinate is zero")
        if not (op.terms and f.terms):
            return Fraction(0)
        point = (*coords, *params)
        tables, num, den = _power_tables(point, ranges)
        tables = [tables[j] for j in varying]
        alphas = []
        for b, entries in groups:
            alpha = 0
            for q, idx in entries:
                alpha += q * prod(map(getitem, tables, idx))
            if alpha:
                alphas.append((b, alpha))
        # x_i^(k_i - b_i) over the test function.  Entries with
        # falling(k_i, b_i) = 0 are never looked up; every other entry of a
        # non-localized variable has k_i >= b_i, so its range starts at 0 or above.
        fkeys = [xe + pe for xe, pe in f.terms]
        franges = [(min(exps), max(exps)) for exps in zip(*fkeys)]
        for i, top in dtops:
            lo, hi = franges[i]
            franges[i] = (lo - top if i in localized else max(lo - top, 0), hi)
        ftables, fnum, fden = _power_tables(point, franges)
        dcols = [(i, top, franges[i][0], ftables[i]) for i, top in dtops]
        fixed = [(j, franges[j][0], ftables[j]) for j in undifferentiated]
        total = 0
        for key, q in zip(fkeys, f.terms.values()):
            for j, lo, table in fixed:
                q *= table[key[j] - lo]
            rows = []
            for i, top, lo, table in dcols:
                k = key[i]
                rows.append([c * table[k - b - lo] if (c := _falling(k, b)) else 0 for b in range(top + 1)])
            total += q * sum(alpha * prod(map(getitem, rows, b)) for b, alpha in alphas)
        return Fraction(total * num * fnum, den * fden * op.den * f.den)

    return value


# -- parsing -----------------------------------------------------------------


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep occurrences outside parentheses."""
    parts = []
    depth = 0
    start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    if depth:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return parts


def parse_operator(text: str, sig: AlgebraSignature) -> Operator:
    """Parse the textual format produced by ``str(Operator)``."""
    text = text.strip()
    if text == "0":
        return Operator.zero(sig)
    m = sig.num_vars
    terms: dict[tuple, ParamPoly] = {}
    for term in _split_top(text, " + "):
        term = term.strip()
        head, *factors = [f.strip() for f in _split_top(term, " * ")]
        if head.startswith("(") and head.endswith(")"):
            coeff = parse_param_poly(head[1:-1], sig.nparams)
        elif head and head[0] in "+-0123456789":
            coeff = ParamPoly.const(sig.nparams, read_rational(head))
        else:
            raise ValueError(f"term {term!r} must start with a coefficient")
        exps = [0] * (2 * m)
        for factor in factors:
            letter, idx, power = read_factor(factor, "xd", m)
            exps[idx - 1 + (m if letter == "d" else 0)] += power
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + coeff
    return Operator(sig, terms)
