"""Exact-arithmetic models and verifications of maximal curves over binary fields.

The package builds the Hermitian curve y^q + y = x^(q+1) and the trace
curve sum_{i=1..t} y^(q/2^i) = x^(q+1) over GF(q^2), q = 2^t, and checks
their invariants exactly: point counts over GF(q^2) and GF(q^4)
against the L-polynomial of a maximal curve, Weierstrass semigroups,
order sequences of the degree-(q+1) one-point system, Frobenius orders,
reduction of trace-form models to the standard curve, and the degree-2
Hermitian covering.
"""

from .census import (
    AffinePoint,
    CensusLimitError,
    CensusReport,
    CurvePoint,
    InfinitePoint,
    count_rational,
    enumerate_points,
    g1,
    g2,
    genus_bounds,
    hasse_weil_max,
    is_maximal,
)
from .covering import CoveringMap, covering_census_check, covering_map, fiber
from .curves import (
    CoordinateChange,
    NormalizationError,
    PlaneCurve,
    hermitian,
    normalize,
    trace_curve,
    trace_form,
    trace_form_extended,
)
from .fields import (
    BinaryField,
    FieldElement,
    make_field,
    solve_artin_schreier,
)
from .orders import (
    OrderData,
    dp_orders,
    dp_orders_at_infinity,
    frobenius_identity_check,
    frobenius_orders,
    sv_ramification_degree,
)
from .semigroups import NumericalSemigroup, dim_from_semigroup
from .series import TruncatedSeries, expand_y_at

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
