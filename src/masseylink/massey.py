"""Third-order linking numbers from traced boundaries, and the fourth-order
term assembly.

The third-order value for an ordering (i, j, k) is the sum of two signed
counts: the linking of K_i with the traced boundary of the (j, k) surface
pair, and the count against F_k of the derived (i, j) boundary's restriction
to the tube around K_i.  The latter is realized without ever building a
spanning surface: every along-K_i piece of the boundary is pushed off in
the blackboard framing and joined radially back to its endpoints, which is
exactly what any spanning surface cuts out of the tube, up to whole
meridian or longitude twists that the vanishing-linking hypothesis makes
invisible.
"""

from dataclasses import dataclass, field

from .embed import measured, pushoff_cycle, pushoff_points
from .errors import MasseyUndefined
from .plgeom import PLCurve, curve_surface_count
from .trace import trace_derived_boundary


@dataclass(frozen=True)
class MasseyResult:
    ordering: tuple
    term_first: int
    term_second: int
    trace_refs: dict
    embedding: object = field(compare=False, repr=False)

    @property
    def value(self):
        return self.term_first + self.term_second


def _check_ordering(e, ordering, size):
    if len(ordering) != size or len(set(ordering)) != size:
        raise MasseyUndefined("ordering must have %d distinct components" % size)
    for i in ordering:
        e.diagram._check_component(i)
    for a in ordering:
        for b in ordering:
            if a < b and e.diagram.linking_number(a, b) != 0:
                raise MasseyUndefined(
                    "lk(%d,%d) = %d, product undefined"
                    % (a, b, e.diagram.linking_number(a, b))
                )


def first_term(e, db, i):
    """lk(K_i, traced boundary): signed count of the loops through F_i."""
    return sum(curve_surface_count(lc, e.surfaces[i]) for lc in db.loop_curves())


def _along_spans(db, i):
    """(pos0, pos1) spans on K_i of the along-K_i pieces of a boundary."""
    return [piece.span for loop in db.loops for piece in loop
            if piece.kind == "along" and piece.component == i]


def _pushoff_family_count(e, spans, i, surface):
    """Signed count against `surface` of the blackboard pushoffs of the
    (pos0, pos1) spans on K_i; a span with pos0 == pos1 is all of K_i."""
    curve = e.curves[i]
    total = 0
    for pos0, pos1 in spans:
        if pos0 == pos1:
            family = pushoff_cycle(curve, e.tube_radius)
        else:
            family = PLCurve(
                pushoff_points(curve, pos0, pos1, e.tube_radius), closed=False
            )
        total += curve_surface_count(family, surface)
    return total


def second_term(e, db, i, k):
    """Count against F_k of the tube restriction of the (i, j) boundary.

    Framing twists would add whole meridian/longitude copies to the
    pushoff family; by the vanishing-linking hypothesis each copy counts
    zero against F_k, which the property suite verifies.
    """
    return _pushoff_family_count(e, _along_spans(db, i), i, e.surfaces[k])


def massey3(source, ordering, grid_scale=1, perturb_index=0):
    """Third-order linking number of three components in the given order.

    `source` is a LinkDiagram or a prebuilt EmbeddedLink; an exact
    degeneracy is retried once by ``embed.measured``.  The result carries
    the embedding it measured.
    """
    ordering = tuple(ordering)
    return measured(source, lambda e: _massey3_on(e, ordering),
                    grid_scale, perturb_index)[1]


def _massey3_on(e, ordering):
    _check_ordering(e, ordering, 3)
    i, j, k = ordering
    db_jk = trace_derived_boundary(e, j, k)
    db_ij = trace_derived_boundary(e, i, j)
    t1 = first_term(e, db_jk, i)
    t2 = second_term(e, db_ij, i, k)
    return MasseyResult(
        ordering=ordering,
        term_first=t1,
        term_second=t2,
        trace_refs={(j, k): db_jk, (i, j): db_ij},
        embedding=e,
    )


# ---------------------------------------------------------------------------
# fourth order: term assembly with a pluggable derived-surface provider


@dataclass(frozen=True)
class FourthOrderPlan:
    ordering: tuple
    boundaries: dict       # pair/triple key -> DerivedBoundary or None
    schema: tuple          # three summand descriptors
    status: str            # "computed" | "unsupported"
    reason: str
    summands: tuple        # three ints when computed
    value: object          # int or None


_SCHEMA = (
    "tube(i) . F_i . C_jkl",
    "tube(i) . C_ij . C_kl",
    "tube(i) . C_ijk . F_l",
)


def _boundary_empty(db):
    return db is not None and not db.loops


def _surface_k_spans(e, surf, i):
    """Spans on K_i cut out by the boundary of a provided spanning surface."""
    curve = e.curves[i]
    spans = []
    for loop in surf.boundary_curves():
        vs = list(loop.vertices)
        located = [curve.locate(v) for v in vs]
        n = len(vs)
        k0 = next((t for t in range(n) if located[t] is None), None)
        if k0 is None:
            # the whole boundary loop runs along K_i
            spans.append((located[0], located[0]))
            continue
        order = list(range(k0, n)) + list(range(k0))
        run = []
        for t in order:
            if located[t] is not None:
                run.append(located[t])
            elif run:
                if len(run) >= 2:
                    spans.append((run[0], run[-1]))
                run = []
        if len(run) >= 2:
            spans.append((run[0], run[-1]))
    return spans


def massey4(source, ordering, provider=None, grid_scale=1, perturb_index=0):
    """Fourth-order assembly; full computation only in degenerate cases or
    with a provider supplying the derived spanning surfaces.

    `source` is a LinkDiagram or a prebuilt EmbeddedLink; an exact
    degeneracy is retried once by ``embed.measured``.
    """
    ordering = tuple(ordering)
    return measured(source, lambda e: _massey4_on(e, ordering, provider),
                    grid_scale, perturb_index)[1]


def _massey4_on(e, ordering, provider):
    _check_ordering(e, ordering, 4)
    i, j, k, l = ordering
    for triple in ((i, j, k), (i, j, l), (i, k, l), (j, k, l)):
        r = _massey3_on(e, triple)
        if r.value != 0:
            raise MasseyUndefined(
                "third-order product %r = %d, fourth order undefined"
                % (triple, r.value)
            )

    boundaries = {
        (i, j): trace_derived_boundary(e, i, j),
        (j, k): trace_derived_boundary(e, j, k),
        (k, l): trace_derived_boundary(e, k, l),
    }
    provider = provider or (lambda key: None)
    summands = []
    # summand 1: tube(i) . F_i . C_jkl
    if _boundary_empty(boundaries[(j, k)]) and _boundary_empty(boundaries[(k, l)]):
        summands.append(0)
    else:
        C_jkl = provider((j, k, l))
        if C_jkl is None:
            return FourthOrderPlan(
                ordering, boundaries, _SCHEMA, "unsupported",
                "C_%d%d%d spanning surface required" % (j, k, l), (), None,
            )
        summands.append(
            curve_surface_count(pushoff_cycle(e.curves[i], e.tube_radius), C_jkl)
        )
    # summand 2: tube(i) . C_ij . C_kl
    if _boundary_empty(boundaries[(i, j)]) or _boundary_empty(boundaries[(k, l)]):
        summands.append(0)
    else:
        C_kl = provider((k, l))
        if C_kl is None:
            return FourthOrderPlan(
                ordering, boundaries, _SCHEMA, "unsupported",
                "C_%d%d spanning surface required" % (k, l), (), None,
            )
        spans = _along_spans(boundaries[(i, j)], i)
        summands.append(
            _pushoff_family_count(e, spans, i, C_kl)
        )
    # summand 3: tube(i) . C_ijk . F_l
    if _boundary_empty(boundaries[(i, j)]) and _boundary_empty(boundaries[(j, k)]):
        summands.append(0)
    else:
        C_ijk = provider((i, j, k))
        if C_ijk is None:
            return FourthOrderPlan(
                ordering, boundaries, _SCHEMA, "unsupported",
                "C_%d%d%d spanning surface required" % (i, j, k), (), None,
            )
        spans = _surface_k_spans(e, C_ijk, i)
        summands.append(
            _pushoff_family_count(e, spans, i, e.surfaces[l])
        )

    return FourthOrderPlan(
        ordering, boundaries, _SCHEMA, "computed", "",
        tuple(summands), sum(summands),
    )
