"""Exact-arithmetic verification engine for q-product dominance.

Subpackages build truncated q-series for products of binomial factors,
decide coefficientwise dominance between two such products, decompose
differences into per-index addends with positivity splittings, and
cross-check the splittings against rational-function identities and
colored-partition enumeration.
"""

from qdominance.dominance import NamedInequality, check_named

__version__ = "0.1.0"

__all__ = ["NamedInequality", "check_named", "__version__"]
