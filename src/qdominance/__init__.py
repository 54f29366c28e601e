"""Exact-arithmetic verification engine for q-product dominance.

Subpackages build truncated q-series for products of binomial factors,
decide coefficientwise dominance between two such products, decompose
differences into per-index addends with positivity splittings, and
cross-check the splittings against rational-function identities and
colored-partition enumeration.
"""

from qdominance.dominance import (
    INEQUALITY_IDS,
    DominanceReport,
    NamedInequality,
    check_named,
    dominates,
)
from qdominance.series import (
    INF,
    Coefficient,
    ProductSpec,
    QSeries,
    first_negative,
    pochhammer,
    product_spec,
    series_mul,
    series_reciprocal,
    series_sub,
    spec_reciprocal,
)

__version__ = "0.1.0"

__all__ = [
    "INEQUALITY_IDS",
    "INF",
    "Coefficient",
    "DominanceReport",
    "NamedInequality",
    "ProductSpec",
    "QSeries",
    "check_named",
    "dominates",
    "first_negative",
    "pochhammer",
    "product_spec",
    "series_mul",
    "series_reciprocal",
    "series_sub",
    "spec_reciprocal",
    "__version__",
]
