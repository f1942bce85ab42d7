"""Exact statistics on ordered set partitions.

The package enumerates ordered set partitions, computes the coordinate and
composite statistics whose distributions are q-analogues of k! S(n,k), builds
the bijection onto choice-decorated walks in a triangular digraph, and
verifies the transfer-matrix / determinant identities behind the closed-form
generating functions, all in exact integer Laurent-polynomial arithmetic.
"""

from .opart import OrderedPartition, enumerate_op, enumerate_p, parse
from .qnum import q_binomial, q_eulerian, q_factorial, q_int, q_stirling
from .ring import DEFAULT, InexactDivision, LaurentPoly, SeriesInA, series_from_rational
from .stats import composite, distribution, q_monomial, summarize
from .walks import PathDiagram, psi, psi_inverse

__version__ = "0.1.0"

__all__ = [
    "DEFAULT",
    "InexactDivision",
    "LaurentPoly",
    "OrderedPartition",
    "PathDiagram",
    "SeriesInA",
    "composite",
    "distribution",
    "enumerate_op",
    "enumerate_p",
    "parse",
    "psi",
    "psi_inverse",
    "q_binomial",
    "q_eulerian",
    "q_factorial",
    "q_int",
    "q_monomial",
    "q_stirling",
    "series_from_rational",
    "summarize",
]
