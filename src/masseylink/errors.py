"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI:
  InputError subclasses   -> exit 1 (bad input)
  UndefinedError subclasses -> exit 2 (invariant not defined for this input)
  InternalError subclasses  -> exit 3 (should never happen on valid input)
"""


class MasseyLinkError(Exception):
    pass


class InputError(MasseyLinkError):
    pass


class UndefinedError(MasseyLinkError):
    pass


class InternalError(MasseyLinkError):
    pass


class MalformedCode(InputError):
    """Syntactically invalid PD or Gauss code."""


class InconsistentDiagram(InputError):
    """Well-formed code that does not describe an oriented link diagram."""


class NonRealizable(InputError):
    """Diagram combinatorics admit no embedding in the plane."""


class UnknownComponent(InputError):
    pass


class MasseyUndefined(UndefinedError):
    """A lower-order product does not vanish, so the product is undefined."""


class NonzeroLinking(MasseyUndefined):
    """Two requested components link (``LinkDiagram.check_unlinked``), so
    no derived boundary, Massey product or Milnor invariant is defined."""


class NotGeneric(InternalError):
    """Exact degeneracy detected; caller should perturb and retry."""


class EmbeddingDegenerate(InternalError):
    """Perturbation/retry budget exhausted while building an embedding."""


class StuckTrace(InternalError):
    """The boundary tracer could not advance; indicates a sign bug."""


class NotManifold(InputError):
    """Complex is not a closed oriented manifold of the expected dimension."""


class DimensionMismatch(InputError):
    pass
