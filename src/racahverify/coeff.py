"""Exact coefficient arithmetic: rationals and sparse parameter polynomials.

Every numeric value in the engine is either a plain rational number or a
multivariate polynomial in the model parameters a1..ak with rational
coefficients.  Rationals are ``fractions.Fraction`` (arbitrary precision,
always normalized: positive denominator, gcd 1, zero stored as 0/1).

A ParamPoly stores its terms as a dict from exponent tuples (one entry per
parameter) to Fraction.  Zero coefficients are never stored, so two
polynomials are equal iff their term dicts are equal.  The printed form
sorts terms in a fixed total order (degree, then exponent tuple,
descending), which makes printed reports diffable bit for bit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction

ScalarLike = Union[int, Fraction, "ParamPoly"]


def rational(numerator: int, denominator: int = 1) -> Fraction:
    """Build a normalized rational; raises ZeroDivisionError on p/0."""
    return Fraction(numerator, denominator)


class ParamPoly:
    """Sparse polynomial in the parameters a1..ak over the rationals.

    ``nparams`` fixes the arity: every exponent tuple has exactly that
    length.  With ``nparams == 0`` the only possible exponent is ``()`` and
    the polynomial degenerates to a plain rational, which is how the
    parameter-free algebras share this code path.
    """

    __slots__ = ("nparams", "terms")

    def __init__(self, nparams: int, terms: Mapping[tuple, Fraction] | None = None):
        for e in terms or ():
            if len(e) != nparams or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e} for {nparams} parameters")
        self.nparams = nparams
        self.terms = {e: c for e, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, nparams: int, value: int | Fraction) -> ParamPoly:
        """The constant polynomial ``value``."""
        c = Fraction(value)
        if not c:
            return cls(nparams)
        return cls(nparams, {(0,) * nparams: c})

    @classmethod
    def zero(cls, nparams: int) -> ParamPoly:
        return cls(nparams)

    @classmethod
    def param(cls, nparams: int, index: int) -> ParamPoly:
        """The single parameter a_index (1-based)."""
        if not 1 <= index <= nparams:
            raise ValueError(f"parameter index {index} out of range 1..{nparams}")
        e = [0] * nparams
        e[index - 1] = 1
        return cls(nparams, {tuple(e): Fraction(1)})

    @classmethod
    def from_terms(cls, nparams: int, terms: Iterable[tuple[tuple, int | Fraction]]) -> ParamPoly:
        """Build from (exponent tuple, coefficient) pairs, merging duplicates."""
        acc: dict[tuple, Fraction] = {}
        for e, c in terms:
            e = tuple(e)
            acc[e] = acc.get(e, Fraction(0)) + Fraction(c)
        return cls(nparams, acc)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        """True iff no parameter appears (includes zero)."""
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; raises if a parameter appears."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.terms[(0,) * self.nparams]

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: ScalarLike) -> ParamPoly:
        if isinstance(other, ParamPoly):
            if other.nparams != self.nparams:
                raise ValueError(
                    f"parameter arity mismatch: {self.nparams} vs {other.nparams}"
                )
            return other
        return ParamPoly.const(self.nparams, other)

    def __add__(self, other: ScalarLike) -> ParamPoly:
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        p = ParamPoly.__new__(ParamPoly)
        p.nparams = self.nparams
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self) -> ParamPoly:
        p = ParamPoly.__new__(ParamPoly)
        p.nparams = self.nparams
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other: ScalarLike) -> ParamPoly:
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> ParamPoly:
        return (-self) + other

    def __mul__(self, other: ScalarLike) -> ParamPoly:
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return ParamPoly(self.nparams)
        out: dict[tuple, Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e)
                out[e] = ca * cb if s is None else s + ca * cb
        return ParamPoly(self.nparams, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> ParamPoly:
        if n < 0:
            raise ValueError("negative powers are not defined for ParamPoly")
        out = ParamPoly.const(self.nparams, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(self.nparams, other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.nparams == other.nparams and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; never used as a key

    # -- evaluation --------------------------------------------------------

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        """Substitute rational values for a1..ak."""
        if len(values) != self.nparams:
            raise ValueError(
                f"expected {self.nparams} parameter values, got {len(values)}"
            )
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(values, e):
                if k:
                    v = v * Fraction(x) ** k
            total += v
        return total

    # -- printing / parsing -------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            factors = [str(c)]
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"a{i + 1}")
                elif k:
                    factors.append(f"a{i + 1}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ParamPoly({self.nparams}, {self!s})"


_FACTOR = re.compile(r"([a-z])(\d+)(?:\^(-?\d+))?", re.ASCII)
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?", re.ASCII)


def read_rational(literal: str) -> Fraction:
    """Read one coefficient literal of the text format: ``[+-]p[/q]``.

    Only ASCII digits are accepted: the underscores, decimal points and
    exponents that ``Fraction(str)`` would also read raise ValueError,
    since ``str`` never prints them.  A zero denominator raises
    ZeroDivisionError.
    """
    if not _RATIONAL.fullmatch(literal):
        raise ValueError(f"cannot parse coefficient {literal!r}")
    return Fraction(literal)


def read_factor(factor: str, letters: str, count: int) -> tuple[str, int, int]:
    """Read one ``letter<index>[^power]`` factor of the text format.

    Returns (letter, index, power), power 1 when no ``^`` is written.  A
    letter not in ``letters``, an index outside 1..count, or anything
    but decimal digits in the index or the power (a ``^`` with no power
    included) raises ValueError.
    """
    match = _FACTOR.fullmatch(factor)
    if not match or match[1] not in letters:
        raise ValueError(f"cannot parse factor {factor!r}")
    letter, index, power = match.groups()
    if not 1 <= int(index) <= count:
        raise ValueError(f"index of {factor!r} out of range 1..{count}")
    return letter, int(index), int(power) if power else 1


def parse_param_poly(text: str, nparams: int) -> ParamPoly:
    """Parse the textual format produced by ``str(ParamPoly)``."""
    text = text.strip()
    if text == "0":
        return ParamPoly(nparams)
    acc: dict[tuple, Fraction] = {}
    for term in text.split(" + "):
        coeff = Fraction(1)
        exps = [0] * nparams
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            if factor[0] in "+-0123456789":
                coeff *= read_rational(factor)
            else:
                _, idx, power = read_factor(factor, "a", nparams)
                exps[idx - 1] += power
        e = tuple(exps)
        acc[e] = acc.get(e, Fraction(0)) + coeff
    return ParamPoly(nparams, acc)
