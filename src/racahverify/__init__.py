"""Exact operator verification of a quadratic symmetry algebra.

The package realizes rotation generators on 2n oscillator variables,
extracts the invariants commuting with the n planar rotations, and
mechanically verifies (in exact rational arithmetic, no floating
point anywhere):

  * the o(2n) structure relations and centrality of the quadratic
    invariant (liealg),
  * the five quadratic relations closing on those invariants (racah),
  * the coupled su(1,1) Casimir closed forms and their correspondence
    with the invariants (howe),
  * the radial reduction to n localized variables with inverse-square
    parameters, its conserved quantities, and the same five relations
    with generic parameter coefficients (reduction),
  * a catalog of twelve named identities drawn from every layer, each
    reported by its exact residual (suites.identity_catalog),
  * by applying operators to random test functions at random rational
    points (oracle): the normal-ordered product against nested
    application in two compositions, each reported by the exact
    residual (A B) f - A (B f) at the earliest failing test function.

The computational substrate is a sparse normal-ordered Weyl algebra
with optional localized (Laurent) variables (weyl) over sparse
rational-coefficient parameter polynomials (coeff).
"""

from .coeff import ParamPoly
from .weyl import (
    AlgebraSignature,
    Operator,
    Polynomial,
    commutator,
    parse_operator,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSignature",
    "Operator",
    "ParamPoly",
    "Polynomial",
    "commutator",
    "parse_operator",
    "__version__",
]
