"""Third-order linking numbers from traced boundaries, and the fourth-order
term assembly.

The third-order value for an ordering (i, j, k) is the sum of two signed
counts: the linking of K_i with the traced boundary of the (j, k) surface
pair, and the count against F_k of the derived (i, j) boundary's restriction
to the tube around K_i.  The latter is realized without ever building a
spanning surface: every along-K_i piece of the boundary is a run of points
of K_i, as the tracer cut it, and that run is pushed off in the blackboard
framing and joined radially back to its endpoints, which is exactly what
any spanning surface cuts out of the tube, up to whole meridian or
longitude twists that the vanishing-linking hypothesis makes invisible.
The fourth-order summands that meet the tube count the same pushoffs: of
all of K_i, of the (i, j) boundary's along-K_i runs, or of the runs of K_i
on a provided surface's boundary.
"""

from dataclasses import dataclass, field
from itertools import groupby

from .embed import EmbeddedLink, measured, pushoff_cycle, pushoff_run
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


def first_term(e, db, i):
    """lk(K_i, traced boundary): signed count of the loops through F_i."""
    return sum(curve_surface_count(lc, e.surfaces[i]) for lc in db.loop_curves())


def _along_runs(db, i):
    """The points of each along-K_i piece of a boundary."""
    return [piece.points for loop in db.loops for piece in loop
            if piece.kind == "along" and piece.component == i]


def _pushoff_family_count(e, runs, i, surface):
    """Signed count against `surface` of the blackboard pushoffs of the
    point runs on K_i; a run of None is all of K_i."""
    total = 0
    for run in runs:
        if run is None:
            family = pushoff_cycle(e.curves[i], e.tube_radius)
        else:
            family = PLCurve(pushoff_run(run, e.tube_radius), closed=False)
        total += curve_surface_count(family, surface)
    return total


def second_term(e, db, i, k):
    """Count against F_k of the tube restriction of the (i, j) boundary.

    Framing twists would add whole meridian/longitude copies to the
    pushoff family; by the vanishing-linking hypothesis each copy counts
    zero against F_k, which the property suite verifies.
    """
    return _pushoff_family_count(e, _along_runs(db, i), i, e.surfaces[k])


def massey3(source, ordering, grid_scale=1, perturb_index=0):
    """Third-order linking number of three components in the given order.

    `source` is a LinkDiagram or a prebuilt EmbeddedLink; an exact
    degeneracy is retried once by ``embed.measured``.  The result carries
    the embedding it measured.  Before anything is built, the diagram's
    ``check_unlinked`` admits the ordering: InputError when it is not
    three distinct components, NonzeroLinking (a MasseyUndefined) when two
    of them link.
    """
    ordering = tuple(ordering)
    d = source.diagram if isinstance(source, EmbeddedLink) else source
    d.check_unlinked(ordering, 3)
    return measured(source, lambda e: _massey3_on(e, ordering),
                    grid_scale, perturb_index)[1]


def _massey3_on(e, ordering):
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


def _surface_k_runs(e, surf, i):
    """Runs of K_i cut out by the boundary of a provided spanning surface.

    Each stretch of two or more consecutive boundary vertices on K_i gives
    the K_i.subarc from its first to its last.  A boundary loop that runs
    along all of K_i, or a stretch whose ends locate at one position, gives
    None: all of K_i.
    """
    curve = e.curves[i]
    runs = []
    for loop in surf.boundary_curves():
        located = [curve.locate(v) for v in loop.vertices]
        if None not in located:
            runs.append(None)
            continue
        k0 = located.index(None)
        for on_k, stretch in groupby(located[k0:] + located[:k0],
                                     key=lambda pos: pos is not None):
            stretch = list(stretch)
            if on_k and len(stretch) >= 2:
                pos0, pos1 = stretch[0], stretch[-1]
                runs.append(None if pos0 == pos1
                            else tuple(curve.subarc(pos0, pos1)))
    return runs


def massey4(source, ordering, provider=None, grid_scale=1, perturb_index=0):
    """Fourth-order assembly; full computation only in degenerate cases or
    with a provider supplying the derived spanning surfaces.

    `source` is a LinkDiagram or a prebuilt EmbeddedLink; an exact
    degeneracy is retried once by ``embed.measured``.  The diagram's
    ``check_unlinked`` admits the ordering before anything is built, as in
    ``massey3``; a third-order product that does not vanish is a
    MasseyUndefined.
    """
    ordering = tuple(ordering)
    d = source.diagram if isinstance(source, EmbeddedLink) else source
    d.check_unlinked(ordering, 4)
    return measured(source, lambda e: _massey4_on(e, ordering, provider),
                    grid_scale, perturb_index)[1]


def _massey4_on(e, ordering, provider):
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
    empty = {pair: not db.loops for pair, db in boundaries.items()}
    # per summand of _SCHEMA: zero without asking, the provider key, and
    # the count on the provided surface C
    rows = (
        (empty[(j, k)] and empty[(k, l)], (j, k, l),
         lambda C: _pushoff_family_count(e, [None], i, C)),
        (empty[(i, j)] or empty[(k, l)], (k, l),
         lambda C: _pushoff_family_count(
             e, _along_runs(boundaries[(i, j)], i), i, C)),
        (empty[(i, j)] and empty[(j, k)], (i, j, k),
         lambda C: _pushoff_family_count(
             e, _surface_k_runs(e, C, i), i, e.surfaces[l])),
    )
    summands = []
    for zero, key, count in rows:
        if zero:
            summands.append(0)
            continue
        C = provider(key)
        if C is None:
            return FourthOrderPlan(
                ordering, _SCHEMA, "unsupported",
                "C_%s spanning surface required" % "".join("%d" % c for c in key),
                (), None,
            )
        summands.append(count(C))

    return FourthOrderPlan(
        ordering, _SCHEMA, "computed", "",
        tuple(summands), sum(summands),
    )
