"""Span tracer for the traced benchmark run.

The package has no tracing of its own, so the tracer wraps the module
attributes its callers look up (every ``masseylink.*`` binding of each
target function is replaced) and restores them when the run ends.  Spans
are kept in memory as [name, start, end, parent, call] and written out at
the end; self time is a span's duration minus its child spans.  The hot
exact predicate ``plgeom.triangle_triangle`` is counted, not timed.
"""

import sys
import time
from collections import Counter

# (home module, function, span name, stage entered while the span is open)
SPANS = (
    ("drawing", "draw_diagram", "drawing.draw", None),
    ("embed", "build_embedding", "embed.build", None),
    ("embed", "verify_embedding", "embed.verify", "verify"),
    ("trace", "trace_derived_boundary", "trace.trace", "trace"),
    ("massey", "first_term", "massey.count", None),
    ("massey", "second_term", "massey.count", None),
    ("magnus", "milnor_mu", "magnus.milnor", None),
    ("diagram", "parse_pd", "diagram.parse", None),
    ("cli", "main", "cli.main", None),
)

HOOK = "bench.hook"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.call = 0
        self.stage = None
        self.counts = Counter()
        self.bits = 0
        self.embeddings = {}     # distinct (crossings, grid, perturbation) -> e
        self.traced = set()      # distinct (embedding id, a, b)
        self.keep = []           # embeddings kept alive so their ids stay unique
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.call])
        self.stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def root(self, fn, *args):
        """Run one answer under a fresh call id and a root span."""
        self.call += 1
        sid = self._open("bench.answer")
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def _span_wrapper(self, fn, name, stage, hook):
        def wrapper(*args, **kwargs):
            prev = self.stage
            if stage:
                self.stage = stage
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
                self.stage = prev
            if hook:
                hid = self._open(HOOK)
                hook(result, args, kwargs)
                self._close(hid)
            return result
        return wrapper

    def _count_wrapper(self, fn):
        counts = self.counts

        def wrapper(*args):
            counts["tri_tri." + (self.stage or "other")] += 1
            return fn(*args)
        return wrapper

    def _query_wrapper(self, fn):
        counts = self.counts

        def wrapper(index, box):
            found = fn(index, box)
            if self.stage == "verify":
                counts["verify_queries"] += 1
                counts["verify_found"] += len(found)
            return found
        return wrapper

    # -- hooks: counts taken where the work happens ----------------------------

    def _on_build(self, e, args, kwargs):
        self.counts["builds"] += 1
        if e.perturb_index > kwargs.get("perturb_index", 0):
            self.counts["retries"] += 1
        key = (tuple(x.slots for x in e.diagram.crossings), e.grid_scale,
               e.perturb_index)
        if key in self.embeddings:
            return
        self.embeddings[key] = e
        for i, surf in e.surfaces.items():
            self.counts["triangles"] += len(surf.triangles)
            self.counts["band_triangles"] += sum(
                tag.startswith("band:") for tag in e.provenance[i])
            for tri in surf.triangles:
                for p in tri:
                    for c in p:
                        self.bits = max(self.bits, c.numerator.bit_length(),
                                        c.denominator.bit_length())

    def _on_trace(self, db, args, kwargs):
        e, a, b = args[:3]
        self.keep.append(e)
        self.counts["traces"] += 1
        self.traced.add((id(e), a, b))
        self.counts["pierce_points"] += len(db.pierce_points)
        for loop in db.loops:
            for piece in loop:
                if piece.kind == "interior":
                    self.counts["intersection_segments"] += len(piece.points) - 1
                elif piece.kind == "circle":
                    self.counts["intersection_segments"] += len(piece.points)

    # -- installation ----------------------------------------------------------

    def _patch_everywhere(self, orig, repl):
        for name, mod in list(sys.modules.items()):
            if name != "masseylink" and not name.startswith("masseylink."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, repl)

    def install(self):
        hooks = {"embed.build": self._on_build, "trace.trace": self._on_trace}
        for home, fname, name, stage in SPANS:
            mod = sys.modules["masseylink." + home]
            orig = getattr(mod, fname)
            self._patch_everywhere(
                orig, self._span_wrapper(orig, name, stage, hooks.get(name)))
        plgeom = sys.modules["masseylink.plgeom"]
        orig = plgeom.triangle_triangle
        self._patch_everywhere(orig, self._count_wrapper(orig))
        query = plgeom.BoxIndex.query
        self._patches.append((plgeom.BoxIndex, "query", query))
        plgeom.BoxIndex.query = self._query_wrapper(query)

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[sid]
        return out

    def metrics(self, answers):
        s = self.self_times()
        c = self.counts
        return {
            "drawing.draw_s": s["drawing.draw"],
            "embed.build_s": s["embed.build"],
            "embed.verify_s": s["embed.verify"],
            "embed.triangles": c["triangles"],
            "embed.band_triangles": c["band_triangles"],
            "embed.builds_per_answer": c["builds"] / max(answers, 1),
            "plgeom.verify_pairs": (c["verify_found"] - c["verify_queries"]) / 2,
            "plgeom.tri_tri_calls.verify": c["tri_tri.verify"],
            "plgeom.tri_tri_calls.trace": c["tri_tri.trace"],
            "plgeom.max_coord_bits": self.bits,
            "trace.trace_s": s["trace.trace"],
            "trace.calls": c["traces"],
            "trace.distinct_pairs": len(self.traced),
            "trace.pierce_points": c["pierce_points"],
            "trace.intersection_segments": c["intersection_segments"],
            "massey.count_s": s["massey.count"],
            "massey.retries": c["retries"],
            "magnus.oracle_s": s["magnus.milnor"],
            "magnus.calls": sum(1 for sp in self.spans if sp[0] == "magnus.milnor"),
            "diagram.parse_s": s["diagram.parse"],
            "cli.self_s": s["cli.main"],
        }

    def overhead_s(self):
        """Tracer cost: hook time plus calibrated per-wrapper cost."""
        def noop(*args):
            return None

        n = 20000
        other = self.counts["tri_tri.other"]
        cal = {}
        for kind, fn in (("raw", noop),
                         ("span", self._span_wrapper(noop, "cal", None, None)),
                         ("count", self._count_wrapper(noop))):
            t = time.perf_counter()
            for _ in range(n):
                fn(1, 2)
            cal[kind] = (time.perf_counter() - t) / n
        del self.spans[-n:]
        self.counts["tri_tri.other"] = other
        s = self.self_times()
        n_spans = sum(1 for sp in self.spans if sp[0] != HOOK)
        n_counts = sum(v for k, v in self.counts.items() if k.startswith("tri_tri."))
        return (s[HOOK] + n_spans * max(cal["span"] - cal["raw"], 0.0)
                + n_counts * max(cal["count"] - cal["raw"], 0.0))
