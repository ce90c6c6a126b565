"""Higher-order linking numbers of oriented links from diagrams.

From a PD or Gauss code the package builds exact piecewise-linear Seifert
surfaces, traces the oriented intersection curves between them, and
evaluates the third-order (Massey) linking number, cross-checked by an
independent Magnus-expansion oracle for triple Milnor invariants.  A
simplicial chain/cochain engine validates the underlying relative
intersection calculus on small triangulations.
"""

from .diagram import LinkDiagram, parse_gauss, parse_pd
from .embed import build_embedding, meridian, seifert_circles
from .fixtures import load_fixture
from .magnus import milnor_mu
from .massey import massey3, massey4
from .trace import trace_derived_boundary

__all__ = [
    "LinkDiagram",
    "parse_pd",
    "parse_gauss",
    "seifert_circles",
    "build_embedding",
    "meridian",
    "trace_derived_boundary",
    "massey3",
    "massey4",
    "milnor_mu",
    "load_fixture",
]

__version__ = "0.1.0"
