"""Batch command line: parse an input diagram, run one computation, print
one JSON document on stdout.

Exit codes: 0 success, 1 malformed or invalid input, 2 invariant undefined
for this input (for example a Massey product with nonzero pairwise
linking), 3 internal error (degeneracy that survived re-perturbation).
Identical arguments produce byte-identical output.
"""

import argparse
import json
import sys

from . import chains
from .diagram import parse_gauss, parse_pd
from .drawing import draw_diagram
from .embed import measured, seifert_circles
from .errors import InputError, InternalError, MasseyLinkError, UndefinedError
from .fixtures import fixture_names, load_fixture
from .magnus import milnor_mu
from .massey import massey3, massey4
from .plgeom import dump_geometry
from .rational import qstr
from .trace import trace_derived_boundary

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _add_input_args(sub):
    g = sub.add_mutually_exclusive_group(required=True)
    g.add_argument("--fixture", help="bundled fixture name (see --list)")
    g.add_argument("--pd", help="inline PD code, X(a,b,c,d) tuples")
    g.add_argument("--gauss", help="inline oriented Gauss code")
    g.add_argument("--input", help="path to a JSON diagram file")


def _add_geometry_args(sub):
    sub.add_argument("--grid-scale", type=int, default=1,
                     help="integer scale applied to all coordinates")
    sub.add_argument("--seed", type=int, default=0,
                     help="perturbation index of the first build")


def _add_dump_args(sub):
    sub.add_argument("--dump-geometry", metavar="PATH",
                     help="also write curves+surfaces as geometry JSON")
    sub.add_argument("--dump-trace", metavar="PATH",
                     help="also write traced boundaries as geometry JSON")


def _load_diagram(args):
    if args.fixture is not None:
        return load_fixture(args.fixture)
    if args.pd is not None:
        return parse_pd(args.pd)
    if args.gauss is not None:
        return parse_gauss(args.gauss)
    with open(args.input) as fh:
        return parse_pd(fh.read())


def _emit(doc):
    doc["schema_version"] = SCHEMA_VERSION
    json.dump(doc, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


def _loops_json(db):
    loops = []
    for loop in db.loops:
        pieces = []
        for piece in loop:
            pieces.append(
                {
                    "kind": piece.kind,
                    "component": piece.component,
                    "points": [[qstr(c) for c in p] for p in piece.points],
                }
            )
        loops.append({"pieces": pieces})
    return {
        "pair": list(db.pair),
        "loops": loops,
        "pierce_points": [
            {
                "label": p.label,
                "position": qstr(p.position),
                "location": [qstr(c) for c in p.location],
            }
            for p in db.pierce_points
        ],
    }


def _maybe_dumps(args, e, traces):
    if args.dump_geometry:
        dump_geometry(
            args.dump_geometry,
            curves=[e.curves[i] for i in sorted(e.curves)],
            surfaces=[e.surfaces[i] for i in sorted(e.surfaces)],
            labels=["component %d" % i for i in sorted(e.curves)],
        )
    if args.dump_trace:
        doc = {"schema_version": SCHEMA_VERSION,
               "traces": [_loops_json(db) for db in traces]}
        with open(args.dump_trace, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")


def _cmd_lk(args):
    d = _load_diagram(args)
    _emit({"command": "lk", "lk": d.linking_matrix()})
    return 0


def _cmd_seifert(args):
    d = _load_diagram(args)
    drawing = draw_diagram(d)
    st = seifert_circles(d, drawing=drawing)
    per = []
    for i in range(1, d.n_components + 1):
        sti = seifert_circles(d, component=i, drawing=drawing)
        per.append(
            {
                "component": i,
                "circles": len(sti.circles),
                "bands": len(sti.bands),
                "euler": len(sti.circles) - len(sti.bands),
            }
        )
    _emit(
        {
            "command": "seifert",
            "circles": len(st.circles),
            "bands": len(st.bands),
            "nesting_depths": sorted(c.depth for c in st.circles),
            "per_component": per,
        }
    )
    return 0


def _cmd_trace(args):
    d = _load_diagram(args)
    pair = _parse_ints(args.pair)
    d.check_unlinked(pair, 2)
    a, b = pair
    e, db = measured(d, lambda e: trace_derived_boundary(e, a, b),
                     args.grid_scale, args.seed)
    _maybe_dumps(args, e, [db])
    doc = {"command": "trace"}
    doc.update(_loops_json(db))
    _emit(doc)
    return 0


def _cmd_massey3(args):
    d = _load_diagram(args)
    order = _parse_ints(args.order)
    r = massey3(d, order, grid_scale=args.grid_scale, perturb_index=args.seed)
    _maybe_dumps(args, r.embedding, list(r.trace_refs.values()))
    _emit(
        {
            "command": "massey3",
            "ordering": list(r.ordering),
            "term_first": r.term_first,
            "term_second": r.term_second,
            "value": r.value,
        }
    )
    return 0


def _cmd_massey4(args):
    d = _load_diagram(args)
    order = _parse_ints(args.order)
    plan = massey4(d, order, grid_scale=args.grid_scale, perturb_index=args.seed)
    _emit(
        {
            "command": "massey4",
            "ordering": list(plan.ordering),
            "status": plan.status,
            "reason": plan.reason,
            "schema": list(plan.schema),
            "summands": list(plan.summands),
            "value": plan.value,
        }
    )
    return 0


def _cmd_milnor(args):
    d = _load_diagram(args)
    idx = _parse_ints(args.indices)
    _emit(
        {
            "command": "milnor",
            "indices": list(idx),
            "value": milnor_mu(d, idx),
        }
    )
    return 0


def _cmd_chains_verify(args):
    rep = chains.verify_suite(
        complex_name=args.complex, seed=args.seed, cases=args.cases
    )
    rep["command"] = "chains-verify"
    _emit(rep)
    return 0 if rep["pass"] else 3


def _cmd_fixtures(args):
    _emit({"command": "fixtures", "names": fixture_names()})
    return 0


def _parse_ints(text):
    """Comma-separated integers; their count is checked by the command's
    ``LinkDiagram.check_unlinked``."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError("expected comma-separated integers")


def build_parser():
    p = _Parser(prog="masseylink",
                description="higher-order linking numbers of link diagrams")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("lk", help="pairwise linking matrix")
    _add_input_args(s)
    s.set_defaults(fn=_cmd_lk)

    s = sub.add_parser("seifert", help="Seifert circle structure")
    _add_input_args(s)
    s.set_defaults(fn=_cmd_seifert)

    s = sub.add_parser("trace", help="derived boundary of a surface pair")
    _add_input_args(s)
    _add_geometry_args(s)
    _add_dump_args(s)
    s.add_argument("--pair", required=True, metavar="a,b")
    s.set_defaults(fn=_cmd_trace)

    s = sub.add_parser("massey3", help="third-order linking number")
    _add_input_args(s)
    _add_geometry_args(s)
    _add_dump_args(s)
    s.add_argument("--order", required=True, metavar="i,j,k")
    s.set_defaults(fn=_cmd_massey3)

    s = sub.add_parser("massey4", help="fourth-order term assembly")
    _add_input_args(s)
    _add_geometry_args(s)
    s.add_argument("--order", required=True, metavar="i,j,k,l")
    s.set_defaults(fn=_cmd_massey4)

    s = sub.add_parser("milnor", help="triple Milnor invariant (oracle)")
    _add_input_args(s)
    s.add_argument("--indices", required=True, metavar="i,j,k")
    s.set_defaults(fn=_cmd_milnor)

    s = sub.add_parser("chains-verify", help="simplicial identity suite")
    s.add_argument("--complex", default="boundary_delta4",
                   choices=sorted(chains.COMPLEXES))
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--cases", type=int, default=200)
    s.set_defaults(fn=_cmd_chains_verify)

    s = sub.add_parser("fixtures", help="list bundled fixtures")
    s.set_defaults(fn=_cmd_fixtures)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UndefinedError as e:
        sys.stderr.write("undefined: %s\n" % e)
        return 2
    except (InputError, OSError, ValueError) as e:
        sys.stderr.write("input error: %s\n" % e)
        return 1
    except InternalError as e:
        sys.stderr.write("internal error: %s\n" % e)
        return 3
    except MasseyLinkError as e:
        sys.stderr.write("error: %s\n" % e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
