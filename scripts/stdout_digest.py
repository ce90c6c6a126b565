#!/usr/bin/env python3
"""One sha256 over what the command line prints and writes.

Runs `lk`, `seifert`, `massey3` in all six orderings and `trace` for the
pairs 1,2 / 2,3 / 3,1 on every bundled fixture, on clasp_family(1..3) and
on the 16 zero-linking 3-braid closures drawn by
tests/test_massey.py::test_random_zero_linking_closures_match_oracle, and
`milnor` in all six orders on those of them with three components.
Every `massey3` and `trace` run also writes --dump-geometry and
--dump-trace files.  Then it runs `massey4 --fixture unlink4 --order
1,2,3,4`, `fixtures`, the refusals of a repeated component (`trace
--pair 2,2`, `massey3 --order 1,2,2` and `milnor --indices 1,1,2` on
borromean, `massey4 --order 1,2,3,3` on unlink4), borromean `massey3
--order 1,2,3` with the geometry options `--seed 1 --grid-scale 3`, with
the out-of-range `--seed 16384` and with `--grid-scale 2**1015` (past the
float range of the box prefilter), and `chains-verify` on each complex at
the default cases (about 6 s).  The hash covers each
command line, exit code, stdout and dump file, in that order, with
temporary paths reduced to their base names; stderr is not hashed.  A
command that argparse rejects is hashed with the code of its SystemExit,
and the run goes on.  The package is imported from <repo>/src, so two
checkouts print equal digests exactly when their outputs agree.

Usage: stdout_digest.py [repo]   (default: the repository of this script)
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile

DUMPS = ("geometry.json", "trace.json")


def _closures(braid_closure):
    """The seeded draw of test_random_zero_linking_closures_match_oracle."""
    rng = random.Random(424242)
    out = []
    while len(out) < 16:
        word = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(6, 12)))
        d = braid_closure(word, 3)
        if d.n_components != 3:
            continue
        if any(d.linking_number(a, b) for a, b in ((1, 2), (2, 3), (1, 3))):
            continue
        out.append(d)
    return out


def _commands(source, components, tmp):
    dumps = ["--dump-geometry", os.path.join(tmp, DUMPS[0]),
             "--dump-trace", os.path.join(tmp, DUMPS[1])]
    yield ["lk"] + source
    yield ["seifert"] + source
    for order in itertools.permutations("123"):
        yield ["massey3"] + source + ["--order", ",".join(order)] + dumps
    for pair in ("1,2", "2,3", "3,1"):
        yield ["trace"] + source + ["--pair", pair] + dumps
    if components == 3:
        for order in itertools.permutations("123"):
            yield ["milnor"] + source + ["--indices", ",".join(order)]


def main():
    repo = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), os.pardir))
    src = os.path.join(repo, "src")
    sys.path.insert(0, src)
    from masseylink import cli
    from masseylink.chains import COMPLEXES
    from masseylink.fixtures import (
        braid_closure, clasp_family, fixture_names, load_fixture)

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit("masseylink was imported from %s, not %s" % (cli.__file__, src))
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        sources = [(["--fixture", name], load_fixture(name))
                   for name in fixture_names()]
        generated = [clasp_family(k) for k in (1, 2, 3)] + _closures(braid_closure)
        for n, d in enumerate(generated):
            path = os.path.join(tmp, "input%02d.json" % n)
            with open(path, "w") as fh:
                json.dump(d.to_json(), fh)
            sources.append((["--input", path], d))
        argvs = [argv for source, d in sources
                 for argv in _commands(source, d.n_components, tmp)]
        argvs += [["massey4", "--fixture", "unlink4", "--order", "1,2,3,4"],
                  ["fixtures"],
                  ["trace", "--fixture", "borromean", "--pair", "2,2"],
                  ["massey3", "--fixture", "borromean", "--order", "1,2,2"],
                  ["milnor", "--fixture", "borromean", "--indices", "1,1,2"],
                  ["massey4", "--fixture", "unlink4", "--order", "1,2,3,3"]]
        borromean = ["massey3", "--fixture", "borromean", "--order", "1,2,3"]
        argvs += [borromean + ["--seed", "1", "--grid-scale", "3"],
                  borromean + ["--seed", "16384"],
                  borromean + ["--grid-scale", str(2**1015)]]
        argvs += [["chains-verify", "--complex", name] for name in sorted(COMPLEXES)]
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            record = [argv, code, out.getvalue()]
            for name in DUMPS:
                path = os.path.join(tmp, name)
                if os.path.exists(path):
                    with open(path) as fh:
                        record.append(fh.read())
                    os.remove(path)
                else:
                    record.append(None)
            text = json.dumps(record).replace(tmp + os.sep, "")
            digest.update(text.encode() + b"\n")
            count += 1
    print(digest.hexdigest(), "%d commands" % count)


if __name__ == "__main__":
    main()
