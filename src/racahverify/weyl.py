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
and ``scale`` take an int, a Fraction or a ParamPoly (anything else
raises TypeError, see ``ParamPoly.of``), and ``coefficients()`` returns a
ParamPoly (for printing and callers).  Both types share ``_FlatTerms``,
which holds their one ``+``, ``-``, negation, ``zero`` and ``repr``;
mixing an Operator with a Polynomial or a number in a sum raises
TypeError.

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
over the same pairs that never builds ab or ba: the s=0 terms
of ma * mb and mb * ma are equal and never emitted, so only the s >= 1
reorder terms of the two directions are accumulated, with opposite
signs, over den_a * den_b.  ``scale`` multiplies the numerators by
those of the constant directly, adding its parameter exponents, with no
sweep.

Both sweeps add m * (their numerators) into an accumulator and layout
the caller passes in, m an integer multiplier applied once per left
row.  ``combination`` is the one kernel entry.  It takes terms, each a
product c * a * b or a bracket c * [a, b] with rational c, picks one
layout wide enough for every pair of the call and one denominator for
the whole call, lcm(den_c * den_a * den_b) over the terms, and sweeps
every term into one accumulator over it.  The sum is decoded and
reduced once, so the intermediates that cancel are never built.  Every
product and commutator is a one-term ``combination``, and a relation
residual is the ``combination`` of its left-hand bracket and its
negated right-hand products (``racah.relation_residual``).  The
relation sweep of a covariant basis computes one residual per relation
and derives every other tuple's entry from it; the covariance is
certified with ``relabel``, a renaming of variables and parameters that
reindexes the flat terms and never calls the kernel.

Both pair sweeps run on packed keys: each (monomial, parameter
exponent) key becomes one int of fixed-width offset-binary fields, field
j holding e_j + 2^(w-1) in bits w*j .. w*j + w - 1, in the order x1..xm,
d1..dm, a1..ak.  ``bias`` is the key of the zero exponent vector, so the
s=0 term of a pair is ka + kb - bias, and a reorder by s on variable i
subtracts s * unit_i, unit_i being one in the x_i field plus one in the
d_i field.  The variables to reorder are dmask_a & xmask_b on int
bitmasks; when a single bit i is set (most pairs), the sweep reads the
memoized shifts of variable i inline, and only pairs with several
active variables look up the product of per-variable options
(``_reorders``), memoized on each active variable's unit and exponents
like the single-variable shifts.  The width w is the smallest of 16,
32 and 64 bits with 2 * (max|exponent of a| + max|exponent of b|)
< 2^(w-1), the largest over the pairs of a combination, which bounds every exponent of a
result term, so no field carries or borrows; wider exponents raise
OverflowError.  Each nonzero result key is decoded back to its
(monomial, parameter exponent) tuples once per product, commutator or
combination, in one loop for every signature (the fields of k ^ bias
are two's complement integers).  An operator's packed view is one flat
list of rows (monomial, dmask, xmask, packed key, numerator), one per
(monomial, parameter exponent) entry, each row computing its own masks,
so each sweep is one loop over left rows around one loop over right
rows.  The view and max |exponent| are built on the operator's
first product or commutator and cached on the immutable operator,
repacked only when a pair needs another width; pickles leave it out.
The basis operators of a verification run take part in many products,
and packing them on every call costs about a tenth of the run
(BENCH_packed_kernel.json).  The flat rows and the inline
single-variable lookup take about a fifth off a reduced-model run
(BENCH_flat_rows.json).

Application of an operator to a polynomial (``Operator.apply``) is
implemented by direct differentiation, deliberately independent of the
multiplication kernel, so the two can cross-check each other.  It and
``Polynomial.evaluate`` run on integers too: apply multiplies numerators
by falling factorials over den_op * den_f, and evaluate sums integer
terms built from cached powers of each coordinate's numerator and
denominator (``_power_tables``, read through ``_term_values``),
building one Fraction at the end.  Two routes give the value (op f)(p)
without building op f, both again by direct differentiation:

- ``evaluator(op)`` groups op's monomials by derivative exponent b
  once, as op = sum_b alpha_b(x) d^b, and each call sums
  alpha_b(p) * (d^b f)(p) on the same power tables, walking two prefix
  tries built from op alone (``_prefix_trie``): one over the entries'
  exponents, one over the b.
- ``Operator.apply_at(f, coords, params)`` reads apply's plan and
  factors each output power as p^(k + s) = p^k * p^s over f's term k
  and a plan group's net shift s, so it needs every coordinate nonzero
  (ZeroDivisionError otherwise).

All of them work on whole columns with C-level maps, not on terms one
variable at a time: apply, apply_at and evaluate on the exponent
columns of the polynomial (one column per variable over its terms,
``list(zip(*keys))``), the evaluator on one level of a trie at a time
(``_walk``), so that products shared by a prefix are taken once.  ``apply``
groups the operator once, on its first call: its plan (``_apply_plan``,
cached on the operator like the packed view and left out of pickles)
gathers the entries that move a term by the same net shift a - b with
the same parameter exponent, so each call sums one numerator column per
group and shifts the position columns once per group, not once per
entry.  Its falling factorials are products of shifted exponent
columns (``_FallingColumns``), and ``apply_at`` sums the same columns,
weighted by f's terms at p, once per set of differentiated variables.
The evaluator shares only ``_power_tables`` with apply_at and with
apply + evaluate, so a fault in one route shows against the other; none
of them uses the kernel's packed keys, layouts or ``combination``.

``parse_operator`` reads the text ``str(Operator)`` prints: terms joined
by " + ", factors by " * ", both split only outside parentheses (the
format never nests them, so one lookahead pattern per separator does).
"""

from __future__ import annotations

import itertools
import re
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from math import comb, gcd, lcm, prod
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterable, Mapping, Sequence, Union

from .coeff import ParamPoly, ScalarLike, _fraction, _graded, _powers, parse_param_poly, read_factor, read_rational


@dataclass(frozen=True)
class AlgebraSignature:
    """Fixes the algebra an operator lives in.

    num_vars:  number of position variables (same count of derivatives).
    localized: 1-based indices of variables allowed negative position
               exponents.
    nparams:   number of coefficient parameters a1..ak.

    Sizes and indices are ints (TypeError otherwise), as exponents are.
    """

    num_vars: int
    localized: frozenset[int] = field(default_factory=frozenset)
    nparams: int = 0

    def __post_init__(self):
        object.__setattr__(self, "localized", frozenset(self.localized))
        if not all(isinstance(v, int) for v in (self.num_vars, self.nparams, *self.localized)):
            raise TypeError(f"num_vars, nparams and localized indices must be ints: {self!r}")
        if self.num_vars < 1:
            raise ValueError("num_vars must be positive")
        if self.nparams < 0:
            raise ValueError("nparams must be non-negative")
        if not all(1 <= i <= self.num_vars for i in self.localized):
            raise ValueError("localized indices must lie in 1..num_vars")

    def check_monomial(self, xexp: Sequence[int], dexp: Sequence[int]) -> None:
        if len(xexp) != self.num_vars or len(dexp) != self.num_vars:
            raise ValueError("exponent vector length differs from num_vars")
        if not all(isinstance(e, int) for e in (*xexp, *dexp)):
            raise TypeError(f"exponents {tuple(xexp)}, {tuple(dexp)} have a non-integer entry")
        for i, b in enumerate(dexp):
            if b < 0:
                raise ValueError(f"negative derivative exponent d{i + 1}^{b}")
        for i, a in enumerate(xexp):
            if a < 0 and (i + 1) not in self.localized:
                raise ValueError(
                    f"negative position exponent x{i + 1}^{a} on a non-localized variable"
                )

    def coeff(self, value: ScalarLike) -> ParamPoly:
        """value as a coefficient of this signature (``ParamPoly.of``)."""
        return ParamPoly.of(self.nparams, value)

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

    __slots__ = ("width", "nvars", "bias", "units", "xbits", "dbits", "fields")

    def __init__(self, nvars: int, nparams: int, width: int, code: str):
        nfields = 2 * nvars + nparams
        self.width = width
        self.nvars = nvars
        self.bias = sum(1 << (width * j + width - 1) for j in range(nfields))
        self.units = tuple((1 << width * i) | (1 << width * (nvars + i)) for i in range(nvars))
        self.xbits = tuple(1 << i for i in range(nvars))
        self.dbits = (0,) * nvars + self.xbits
        self.fields = struct.Struct(f"<{nfields}{code}")

    def decode(self, acc: dict[int, int]) -> dict[tuple, int]:
        """Packed key -> num as the nonzero (mono, pexp) -> num."""
        bias, nbytes, unpack, split = self.bias, self.fields.size, self.fields.unpack, 2 * self.nvars
        out = {}
        for k, q in acc.items():
            if q:
                t = unpack((k ^ bias).to_bytes(nbytes, "little"))
                out[t[:split], t[split:]] = q
        return out


@lru_cache(maxsize=None)
def _layout(nvars: int, nparams: int, width: int, code: str) -> _Layout:
    return _Layout(nvars, nparams, width, code)


class _Packed:
    """An operator's terms in packed form, the operand view of the pair sweeps.

    One row (mono, dmask, xmask, key, num) per (monomial, parameter
    exponent) entry of ``op.terms``: bit i of dmask (xmask) is set when
    the monomial has a derivative (position) exponent on variable i, and
    key is the entry packed at ``width``.  Each row computes its own
    masks: the operators of a run hold about one entry per monomial.
    ``top`` is the largest |exponent|.
    """

    __slots__ = ("width", "top", "rows")

    def __init__(self, op: Operator, top: int, layout: _Layout):
        pack, bias, from_bytes = layout.fields.pack, layout.bias, int.from_bytes
        dbits, xbits, compress = layout.dbits, layout.xbits, itertools.compress
        self.width = layout.width
        self.top = top
        self.rows = [
            (mono, sum(compress(dbits, mono)), sum(compress(xbits, mono)),
             from_bytes(pack(*mono, *pe), "little") ^ bias, q)
            for (mono, pe), q in op.terms.items()
        ]


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
    """(s * unit, sign * C(b,s) * falling(k,s)) for the s >= 1 terms of moving d^b past x^k.

    s runs up to b, and up to k as well when k >= 0: falling(k, s)
    vanishes for 0 <= k < s and for no other s, so the bound keeps
    exactly the nonzero terms.  Memoized on (unit, b, k, sign); the
    sweeps read it inline for pairs with one active variable, and
    ``_reorder_product`` combines it for several.
    """
    top = b if k < 0 else min(b, k)
    return tuple((s * unit, sign * comb(b, s) * _falling(k, s)) for s in range(1, top + 1))


def _reorders(layout: _Layout, ma: tuple, mb: tuple, active: int, sign: int) -> tuple[tuple[int, int], ...]:
    """(key shift, sign * factor) of every reorder term of ma * mb but the s=0 one.

    ``active`` has bit i set for the variables where ma's derivative
    meets mb's position.  The terms come in the order of
    ``itertools.product`` over the per-variable options, s=0 first.  The
    sweeps call this only when several bits are set; with one bit i they
    read ``_shifts`` for variable i directly.
    """
    m, units = layout.nvars, layout.units
    return _reorder_product(tuple((units[i], ma[m + i], mb[i]) for i in range(m) if active >> i & 1), sign)


@lru_cache(maxsize=None)
def _reorder_product(options: tuple[tuple[int, int, int], ...], sign: int) -> tuple[tuple[int, int], ...]:
    """``_reorders`` memoized on (unit, b, k) of each active variable and the sign."""
    per_var = [((0, 1), *_shifts(unit, b, k, 1)) for unit, b, k in options]
    return tuple(
        (sum(shift for shift, _ in combo), sign * prod(f for _, f in combo))
        for combo in itertools.islice(itertools.product(*per_var), 1, None)
    )


def _product(acc: dict[int, int], layout: _Layout, a: Operator, b: Operator, m: int) -> None:
    """Add m * (the numerators of ab over den_a * den_b) to acc, in one sweep over row pairs.

    Each pair adds its s=0 term at key ka + kb - bias and, where a
    derivative of ma meets a position of mb, the reorder terms at that
    key minus their shifts.  ``- bias`` and ``* m`` are applied once per
    row of a.
    """
    va, vb = _view(a, layout), _view(b, layout)
    bias, nv, units = layout.bias, layout.nvars, layout.units
    acc_get = acc.get
    rows = vb.rows
    for ma, dmask, _, ka, qa in va.rows:
        ka -= bias
        qa *= m
        for mb, _, xmask, kb, qb in rows:
            key = ka + kb
            q = qa * qb
            acc[key] = acc_get(key, 0) + q
            active = dmask & xmask
            if active:
                if active & (active - 1):
                    shifts = _reorders(layout, ma, mb, active, 1)
                else:
                    i = active.bit_length() - 1
                    shifts = _shifts(units[i], ma[nv + i], mb[i], 1)
                for shift, f in shifts:
                    k = key - shift
                    acc[k] = acc_get(k, 0) + q * f


def _commutator(acc: dict[int, int], layout: _Layout, a: Operator, b: Operator, m: int) -> None:
    """Add m * (the numerators of ab - ba over den_a * den_b) to acc, in one sweep over row pairs.

    For each pair the s=0 terms of ma * mb and mb * ma are the same
    monomial ma + mb with the same coefficient (the coefficient product
    commutes), so they cancel and are never emitted.  A pair where no
    derivative of either monomial meets a position of the other
    contributes nothing and is skipped.  Every other pair adds the s >= 1
    reorder terms of ma * mb and subtracts those of mb * ma; a direction
    with one active variable reads its terms from ``_shifts`` directly.
    """
    va, vb = _view(a, layout), _view(b, layout)
    bias, nv, units = layout.bias, layout.nvars, layout.units
    acc_get = acc.get
    rows = vb.rows
    for ma, da, xa, ka, qa in va.rows:
        ka -= bias
        qa *= m
        for mb, db, xb, kb, qb in rows:
            ab, ba = da & xb, db & xa
            if not (ab or ba):
                continue
            shifts = ()
            if ab:
                if ab & (ab - 1):
                    shifts = _reorders(layout, ma, mb, ab, 1)
                else:
                    i = ab.bit_length() - 1
                    shifts = _shifts(units[i], ma[nv + i], mb[i], 1)
            if ba:
                if ba & (ba - 1):
                    shifts += _reorders(layout, mb, ma, ba, -1)
                else:
                    i = ba.bit_length() - 1
                    shifts += _shifts(units[i], mb[nv + i], ma[i], -1)
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
        return {mono: ParamPoly._make(self.sig.nparams, d) for mono, d in grouped.items()}

    def _check_sig(self, other: _FlatTerms) -> None:
        if self.sig != other.sig:
            raise ValueError("operands live in different algebra signatures")

    def _merge(self, other: _FlatTerms, sign: int):
        """self + sign * other, merged as numerators over lcm(den_a, den_b)."""
        self._check_sig(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = {key: q * fa for key, q in self.terms.items()}
        for key, q in other.terms.items():
            s = out.get(key, 0) + q * fb
            if s:
                out[key] = s
            else:
                del out[key]
        return self._make(self.sig, out, den)

    @classmethod
    def zero(cls, sig: AlgebraSignature):
        return cls(sig)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._merge(other, 1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._merge(other, -1)

    def __neg__(self):
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
            for mo in sorted(coefficients, key=_graded, reverse=True)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.sig.num_vars} vars, {self.term_count()} terms)"


class Operator(_FlatTerms):
    """Immutable sparse operator in canonical normal-ordered form.

    The keys of ``terms`` are (monomial, parameter exponent), the
    monomial being the position exponents followed by the derivative
    exponents.  ``_packed`` caches the packed view the pair sweeps read
    (unset until the first product or commutator), and ``_plan`` the
    grouping ``apply`` reads (unset until the first ``apply``); pickles
    leave both out.
    """

    __slots__ = ("_packed", "_plan")

    def __init__(self, sig: AlgebraSignature, terms: Mapping[tuple, ParamPoly] | None = None):
        m = sig.num_vars
        for mono in terms or ():
            sig.check_monomial(mono[:m], mono[m:])
        super().__init__(sig, terms)

    def __getstate__(self):
        return None, {"sig": self.sig, "terms": self.terms, "den": self.den}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, sig: AlgebraSignature, value: ScalarLike) -> Operator:
        return cls(sig, {(0,) * (2 * sig.num_vars): sig.coeff(value)})

    @classmethod
    def monomial(
        cls,
        sig: AlgebraSignature,
        xexp: Sequence[int],
        dexp: Sequence[int],
        coeff: ScalarLike = 1,
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

    # -- arithmetic --------------------------------------------------------

    # The tracer of perfbench/spans.py wraps these two in Operator's own namespace.
    __add__ = _FlatTerms.__add__
    __neg__ = _FlatTerms.__neg__

    def __mul__(self, other: Union[Operator, ScalarLike]) -> Operator:
        """The normal-ordered product, a one-term ``combination``; OverflowError past 64-bit fields."""
        if isinstance(other, Operator):
            return combination(((1, self, other, False),))
        return self.scale(other)

    def __rmul__(self, other: ScalarLike) -> Operator:
        return self.scale(other)

    def scale(self, value: ScalarLike) -> Operator:
        """value * self on the numerators: c = sum_pc q_c a^pc sends (mono, pe) -> (mono, pe + pc)."""
        c = self.sig.coeff(value)
        den = lcm(*(q.denominator for q in c.terms.values()))
        factors = [(pc, q.numerator * (den // q.denominator)) for pc, q in c.terms.items()]
        terms = {}
        for (mono, pe), q in self.terms.items():
            for pc, f in factors:
                key = (mono, tuple(map(add, pe, pc)))
                terms[key] = terms.get(key, 0) + q * f
        return Operator._make(self.sig, {key: q for key, q in terms.items() if q}, self.den * den)

    def specialize_params(self, values: Sequence[Fraction | int]) -> Operator:
        """Substitute numbers for the coefficient parameters.

        Returns an operator over the parameter-free signature with the
        same variables and localization.
        """
        if len(values) != self.sig.nparams:
            raise ValueError("need one value per parameter")
        new_sig = AlgebraSignature(self.sig.num_vars, self.sig.localized, 0)
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

        The operator's entries are grouped once, on the first call, by
        (net shift a - b, parameter exponent) (``_apply_plan``, cached
        in ``_plan``): the entries of a group send each term of f to the
        same key.  Each call splits f's terms by parameter exponent and
        works on the columns of each part (one per variable, over its
        terms).  A group's numerator column is the sum, by C-level maps,
        of its entries' numerators times f's numerators times, for each
        differentiated variable i of order b, the falling factorial
        k_i (k_i - 1) ... (k_i - b + 1), a product of shifted columns of
        k_i (built once per set of (i, b) per part).  The position
        columns are shifted once per group, and a zero-shift group
        reuses f's own keys.  The group's terms are added, zero products
        skipped, into one dict of position tuples per output parameter
        exponent, which the first group to reach it fills with one
        ``dict`` call; the dicts are flattened to (position exponents,
        parameter exponent) keys at the end.
        """
        if self.sig != f.sig:
            raise ValueError("operator and polynomial signatures differ")
        plan = self.apply_plan()
        parts: dict[tuple, list] = {}
        for (xe, pb), q in f.terms.items():
            parts.setdefault(pb, []).append((xe, q))
        out: dict[tuple, dict[tuple, int]] = {}
        for pb, items in parts.items():
            xes, nums = zip(*items)
            xcols = list(zip(*xes))
            columns = _FallingColumns(nums, xcols)
            for (shift, pa), entries in plan:
                col = None
                for na, derivs in entries:
                    term = map(mul, columns[derivs], repeat(na))
                    col = term if col is None else map(add, col, term)
                col = list(col)
                keys = xes
                if any(shift):
                    keys = zip(*[map(add, xc, repeat(s)) if s else xc for xc, s in zip(xcols, shift)])
                pe = tuple(map(add, pa, pb))
                acc = out.get(pe)
                if acc is None:
                    out[pe] = dict(zip(keys, col))
                else:
                    acc_get = acc.get
                    for key, q in compress(zip(keys, col), col):
                        acc[key] = acc_get(key, 0) + q
        terms = {(xe, pe): q for pe, acc in out.items() for xe, q in acc.items() if q}
        return Polynomial._make(self.sig, terms, self.den * f.den)

    def apply_at(self, f: Polynomial, coords: Sequence[Fraction], params: Sequence[Fraction] = ()) -> Fraction:
        """(self f)(p) at the point p = (coords, params), without building self f.

        Equal in value and type to ``self.apply(f).evaluate(coords,
        params)`` wherever every coordinate is nonzero; a zero coordinate
        raises ZeroDivisionError, zero parameter values are fine.  It
        reads the same plan as ``apply`` and factors each output power as
        p^(k + s) = p^k * p^s, k a term of f and s a group's net shift
        (parameter exponents alike, and never negative).  Over f's terms
        it builds the column w = num * p^k (``_term_values``), and for
        each distinct set of differentiated (i, b) pairs the sum S of w
        times the falling factorials, with the columns ``apply`` builds
        (``_FallingColumns``).  Each group then contributes p^s times
        the sum of its entries' numerators times their S, again one
        ``_term_values`` over the groups' (shift, parameter exponent)
        columns.  Direct differentiation like ``apply``: it never calls
        the product kernel or ``evaluator``.
        """
        if self.sig != f.sig:
            raise ValueError("operator and polynomial signatures differ")
        point = _check_point(self.sig, coords, params)
        if not all(point[: self.sig.num_vars]):
            raise ZeroDivisionError("apply_at needs every coordinate nonzero")
        plan = self.apply_plan()
        if not (plan and f.terms):
            return Fraction(0)
        cols = list(zip(*(xe + pe for xe, pe in f.terms)))
        weights, num, den = _term_values(point, cols, f.terms.values())
        columns = _FallingColumns(weights, cols)
        sums = {derivs: sum(columns[derivs]) for derivs in {d for _, entries in plan for _, d in entries}}
        group_sums = [sum(na * sums[derivs] for na, derivs in entries) for _, entries in plan]
        gcols = list(zip(*(shift + pa for (shift, pa), _ in plan)))
        values, gnum, gden = _term_values(point, gcols, group_sums)
        return Fraction(sum(values) * num * gnum, den * gden * self.den * f.den)

    def apply_plan(self) -> list[tuple[tuple[tuple, tuple], list[tuple[int, tuple]]]]:
        """The grouping ``apply`` and ``apply_at`` read (``_apply_plan``), built on the first call and kept in ``_plan``."""
        plan = getattr(self, "_plan", None)
        if plan is None:
            plan = self._plan = _apply_plan(self)
        return plan

    # -- printing ------------------------------------------------------------

    def _factors(self, mo: tuple) -> list[str]:
        m = self.sig.num_vars
        return _powers("x", mo[:m]) + _powers("d", mo[m:])


def _apply_plan(op: Operator) -> list[tuple[tuple[tuple, tuple], list[tuple[int, tuple]]]]:
    """op's entries grouped for ``Operator.apply``: ((net shift a - b, parameter exponent), entries).

    Each entry is (numerator, the (i, b) pairs of its nonzero derivative
    exponents); the entries of one group move a test function's terms to
    the same keys.
    """
    m = op.sig.num_vars
    groups: dict[tuple, list[tuple[int, tuple]]] = {}
    for (mo, pa), na in op.terms.items():
        derivs = tuple((i, b) for i, b in enumerate(mo[m:]) if b)
        groups.setdefault((tuple(map(sub, mo[:m], mo[m:])), pa), []).append((na, derivs))
    return list(groups.items())


class _FallingColumns(dict):
    """derivs -> nums times falling(k_i, b) = k_i (k_i - 1) ... (k_i - b + 1)
    for each (i, b) of derivs, k_i running over the exponent column cols[i].

    Each column is built on its first lookup, as the column of derivs
    without its last pair times shifted exponent columns, so sets that
    share a prefix share its products; ``apply`` and ``apply_at`` both
    read them.
    """

    def __init__(self, nums: Sequence[int], cols: Sequence[Sequence[int]]):
        super().__init__({(): nums})
        self.cols = cols

    def __missing__(self, derivs: tuple) -> list[int]:
        scaled = self[derivs[:-1]]
        i, b = derivs[-1]
        col = self.cols[i]
        for t in range(b):
            scaled = map(mul, scaled, map(sub, col, repeat(t)) if t else col)
        scaled = self[derivs] = list(scaled)
        return scaled


def relabel(op: Operator, variables: Sequence[int], params: Sequence[int] = ()) -> Operator:
    """op with variable v renamed variables[v - 1] and parameter a_p renamed a_{params[p - 1]}.

    Both maps are permutations, 1-based (ValueError otherwise), and the
    variable map must send localized variables to localized ones.  The
    result reindexes the flat terms of op, x_v and d_v alike, and keeps
    its denominator: no product is taken.  Renaming is an algebra
    automorphism of the Weyl algebra over the parameter ring, so it
    commutes with sums, products and brackets, and it is injective on
    monomials, so it keeps ``term_count``.
    """
    sig = op.sig
    m = sig.num_vars
    if sorted(variables) != list(range(1, m + 1)) or sorted(params) != list(range(1, sig.nparams + 1)):
        raise ValueError(f"relabelling needs permutations of 1..{m} and 1..{sig.nparams}")
    if {variables[v - 1] for v in sig.localized} != sig.localized:
        raise ValueError("relabelling must send localized variables to localized ones")
    # Position j of the result reads position source[j] of op: the inverse permutation, 0-based.
    source = sorted(range(m), key=variables.__getitem__)
    mono_of = itemgetter(*source, *(m + v for v in source))
    # Fewer than two parameters have only the identity renaming.
    pe_of = itemgetter(*sorted(range(sig.nparams), key=params.__getitem__)) if sig.nparams > 1 else tuple
    return Operator._make(sig, {(mono_of(mono), pe_of(pe)): q for (mono, pe), q in op.terms.items()}, op.den)


def _check_index(sig: AlgebraSignature, index: int) -> int:
    if not 1 <= index <= sig.num_vars:
        raise ValueError(f"variable index {index} out of range 1..{sig.num_vars}")
    return index


def _coeff_str(c: ParamPoly) -> str:
    if c.is_constant():
        v = c.constant_value()
        return str(v) if v > 0 else f"({v})"
    return f"({c})"


def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] = ab - ba, the one-term ``combination`` whose sweep never builds ab or ba.

    Like the product, it raises OverflowError when the exponents of a and
    b are too large for 64-bit packed fields (see the module docstring).
    """
    return combination(((1, a, b, True),))


Term = tuple[Union[Fraction, int], Operator, Operator, bool]


def combination(terms: Sequence[Term]) -> Operator:
    """sum c * a * b over the terms (c, a, b, False) plus c * [a, b] over the terms (c, a, b, True).

    The one kernel entry.  Each coefficient c must be an int or a
    Fraction; its ``numerator`` and ``denominator`` are read directly.
    Every term is swept at one layout wide enough for all the pairs, into
    one packed accumulator over one denominator den = lcm(den_c * den_a *
    den_b) over the terms, its numerators multiplied by num_c * den /
    (den_c * den_a * den_b).  Only the sum is decoded and reduced to
    lowest terms, so it equals the sum of the terms taken one at a time
    (``*`` and ``commutator`` are one-term combinations) and added with
    ``+`` and ``-``, terms and denominator alike.  No terms raise
    ValueError, operands in different signatures ValueError, and
    exponents too large for 64-bit packed fields OverflowError.
    """
    if not terms:
        raise ValueError("a combination needs at least one term")
    first = terms[0][1]
    for _, a, b, _ in terms:
        first._check_sig(a)
        first._check_sig(b)
    layout = _layout_for([(a, b) for _, a, b, _ in terms])
    den = lcm(*[c.denominator * a.den * b.den for c, a, b, _ in terms])
    acc: dict[int, int] = {}
    for c, a, b, bracket in terms:
        factor = c.numerator * (den // (c.denominator * a.den * b.den))
        (_commutator if bracket else _product)(acc, layout, a, b, factor)
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
    def monomial(cls, sig: AlgebraSignature, xexp: Sequence[int], coeff: ScalarLike = 1) -> Polynomial:
        return cls(sig, {tuple(xexp): sig.coeff(coeff)})

    def evaluate(self, coords: Sequence[Fraction], params: Sequence[Fraction] = ()) -> Fraction:
        """Exact value at a rational point; localized coordinates must be nonzero.

        Coordinates and parameter values are ints or Fractions (anything
        else raises TypeError, as ``Fraction(value)`` would also read
        floats and strings).

        Runs on integers: each term is its numerator times one entry of
        each variable's power table over the range of its exponents
        (``_term_values``), and the integer sum times the tables' common
        factor over den is one Fraction built at the end
        (ZeroDivisionError when a negative exponent meets a zero
        coordinate).
        """
        point = _check_point(self.sig, coords, params)
        cols = list(zip(*(xe + pe for xe, pe in self.terms)))
        values, num, den = _term_values(point, cols, self.terms.values())
        return Fraction(sum(values) * num, den * self.den)

    def _factors(self, xe: tuple) -> list[str]:
        return _powers("x", xe)


def _check_point(sig: AlgebraSignature, coords: Sequence, params: Sequence) -> tuple[Fraction, ...]:
    """The point (*coords, *params) as Fractions: wrong counts raise
    ValueError, and values that are not ints or Fractions TypeError."""
    if len(coords) != sig.num_vars:
        raise ValueError("coordinate count differs from num_vars")
    if len(params) != sig.nparams:
        raise ValueError(f"expected {sig.nparams} parameter values, got {len(params)}")
    return tuple(map(_fraction, (*coords, *params)))


def _power_tables(point: Sequence, ranges: Sequence[tuple[int, int]]) -> tuple[list[list[int]], int, int]:
    """Integer power tables for exact evaluation at a rational point.

    Write point[j], a Fraction, as u/w in lowest terms and let lo..hi be ranges[j].
    Then (u/w)^e = table_j[e - lo] * u^lo w^-hi for lo <= e <= hi, with
    table_j[t] = u^t w^(hi-lo-t) an integer.  Returns the tables and
    num/den = prod_j u^lo w^-hi; den is 0 when some lo < 0 meets u = 0.
    """
    num = den = 1
    tables = []
    for value, (lo, hi) in zip(point, ranges):
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
        tables.append([u**t * w ** (span - t) for t in range(span + 1)])
    return tables, num, den


def _term_values(point: Sequence, cols: Sequence[Sequence[int]], nums: Iterable[int]) -> tuple[list[int], int, int]:
    """The terms with numerators nums and exponent columns cols (one per
    coordinate of point) at point: integers v_t and num, den with term t
    equal to v_t * num / den.

    The sum runs over columns: each v_t is its numerator times one entry
    of each column's power table (``_power_tables``), looked up with
    C-level maps; a column whose range is one value is never looked up,
    its power being in num / den.
    """
    ranges = [(min(exps), max(exps)) for exps in map(set, cols)]
    tables, num, den = _power_tables(point, ranges)
    looked_up = [
        map(table.__getitem__, map(sub, col, repeat(lo)) if lo else col)
        for col, (lo, hi), table in zip(cols, ranges, tables)
        if lo != hi
    ]
    return list(map(prod, zip(nums, *looked_up))), num, den


def _prefix_trie(keys: Iterable[tuple]) -> tuple[list[tuple[list[int], list[int]]], dict[tuple, int]]:
    """The prefix trie of keys, tuples of one width w, level by level.

    Level l (1 <= l <= w) lists the distinct prefixes of length l in
    sorted order as two columns: each prefix's parent, the index on level
    l - 1 of the prefix without its last entry (level 0 being the empty
    prefix), and that last entry.  Returns the levels and each key's
    index on level w, which is its index among the sorted distinct keys.
    """
    keys = set(keys)
    width = len(next(iter(keys), ()))
    index = {(): 0}
    levels = []
    for depth in range(1, width + 1):
        prefixes = sorted({key[:depth] for key in keys})
        levels.append(([index[p[:-1]] for p in prefixes], [p[-1] for p in prefixes]))
        index = {p: t for t, p in enumerate(prefixes)}
    return levels, index


def _walk(levels: Sequence[tuple[list[int], list[int]]], root: int, rows: Iterable[Sequence[int]]) -> list[int]:
    """The values of a ``_prefix_trie``'s last level: root times, along
    each path, the entry of each level's row at the node's label; one
    C-level map per level."""
    values = [root]
    for (parents, labels), row in zip(levels, rows):
        values = list(map(mul, map(values.__getitem__, parents), map(row.__getitem__, labels)))
    return values


def evaluator(op: Operator) -> Callable[..., Fraction]:
    """value(f, coords, params) = (op f)(p), without building op f.

    Write op as sum_b alpha_b(x) d^b, alpha_b collecting the monomials
    with derivative exponent b; then (op f)(p) = sum_b alpha_b(p) *
    (d^b f)(p).  Everything that depends on op alone is laid out once,
    here, as two prefix tries (``_prefix_trie``).  The first runs over
    the table indices of op's entries in their varying exponent columns
    (positions and parameters): each call walks it (``_walk``) through
    the point's power tables, one C-level map per column, so entries that
    share a prefix of exponents share its products.  Each entry is its
    numerator times its leaf, and alpha_b(p) the sum of its class's
    entries.  The second trie runs over the classes b, one level per
    differentiated variable.  Over the test function's terms, each call
    builds the numerators times their undifferentiated factors at p and,
    for each differentiated variable i, the row over b of falling(k_i,
    b) * x_i^(k_i - b) at p (one row per distinct k_i).  Walking the
    classes' trie from a term's numerator through its rows gives that
    term's part of every (d^b f)(p), and the dot product with the
    alpha_b(p) its part of the value.  Like ``Operator.apply`` it is
    direct differentiation and never calls the product kernel.  It runs
    on integers through ``_power_tables`` and builds one Fraction at the
    end.

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
    # alpha_b's entries as (numerator, table indices in the varying columns), class by class in sorted b.
    classes: dict[tuple, list[tuple[int, tuple]]] = {}
    for ((mono, _), q), key in zip(op.terms.items(), keys):
        b = tuple(mono[m + i] for i in dvars)
        classes.setdefault(b, []).append((q, tuple(key[j] - ranges[j][0] for j in varying)))
    classes = dict(sorted(classes.items()))
    entries = [entry for group in classes.values() for entry in group]
    qnums = [q for q, _ in entries]
    alpha_levels, leaf = _prefix_trie(idx for _, idx in entries)
    leaves = [leaf[idx] for _, idx in entries]
    bounds = list(itertools.accumulate(map(len, classes.values()), initial=0))
    spans = list(zip(bounds, bounds[1:]))
    # Its last level lists the classes in sorted order, as alphas does.
    class_levels, _ = _prefix_trie(classes)

    def value(f: Polynomial, coords: Sequence[Fraction], params: Sequence[Fraction] = ()) -> Fraction:
        if f.sig != sig:
            raise ValueError("operator and polynomial signatures differ")
        point = _check_point(sig, coords, params)
        if any(point[i] == 0 for i in localized):
            raise ZeroDivisionError("a localized coordinate is zero")
        if not (op.terms and f.terms):
            return Fraction(0)
        tables, num, den = _power_tables(point, ranges)
        paths = _walk(alpha_levels, 1, [tables[j] for j in varying])
        values = list(map(mul, qnums, map(paths.__getitem__, leaves)))
        alphas = [sum(values[start:stop]) for start, stop in spans]
        # x_i^(k_i - b) over the test function.  Entries with
        # falling(k_i, b) = 0 are never looked up; every other entry of a
        # non-localized variable has k_i >= b, so its range starts at 0 or above.
        fcols = list(zip(*(xe + pe for xe, pe in f.terms)))
        franges = [(min(col), max(col)) for col in fcols]
        for i, top in dtops:
            lo, hi = franges[i]
            franges[i] = (lo - top if i in localized else max(lo - top, 0), hi)
        ftables, fnum, fden = _power_tables(point, franges)
        fixed = (
            map(ftables[j].__getitem__, map(sub, fcols[j], repeat(franges[j][0])))
            for j in undifferentiated
            if franges[j][0] != franges[j][1]
        )
        qs = map(prod, zip(f.terms.values(), *fixed))
        # drows[d] yields, term by term, the row over b of variable dvars[d].
        drows = []
        for i, top in dtops:
            table, lo = ftables[i], franges[i][0]
            rows = {
                k: [c * table[k - b - lo] if (c := _falling(k, b)) else 0 for b in range(top + 1)]
                for k in set(fcols[i])
            }
            drows.append(map(rows.__getitem__, fcols[i]))
        total = sum(sum(map(mul, alphas, _walk(class_levels, q, rows))) for q, *rows in zip(qs, *drows))
        return Fraction(total * num * fnum, den * fden * op.den * f.den)

    return value


# -- parsing -----------------------------------------------------------------


# A separator that meets ")" before any "(" lies inside parentheses, which the
# text format never nests.
_TERM_SEP = re.compile(r" \+ (?![^()]*\))")
_FACTOR_SEP = re.compile(r" \* (?![^()]*\))")


def parse_operator(text: str, sig: AlgebraSignature) -> Operator:
    """Parse the textual format produced by ``str(Operator)``.

    Terms are split on " + " and factors on " * ", both only outside
    parentheses.  Each term starts with its coefficient: an integer or
    p/q literal, or a parenthesized ParamPoly; the factors are x<i> and
    d<i> with an optional ^power.  Anything else, a stray parenthesis
    included, raises ValueError.
    """
    text = text.strip()
    m = sig.num_vars
    terms: dict[tuple, ParamPoly] = {}
    for term in _TERM_SEP.split(text):
        term = term.strip()
        head, *factors = [f.strip() for f in _FACTOR_SEP.split(term)]
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
