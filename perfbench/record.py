#!/usr/bin/env python3
"""Record the reference answers into perfbench/expected.json.

    python3 perfbench/record.py

Run once, at the commit that defines the benchmark.  Later commits are
checked against these values (every massey3 value per diagram and ordering,
and mu-bar(1,2,3) of every oracle-pool closure), so re-recording at a later
commit would hide a changed answer.
"""

import json
import sys

from run import HERE, ROOT, git_commit, import_package

import inputs


def main():
    ml, _ = import_package(ROOT)
    diagrams = [inputs.trivial(), inputs.clasp(1), inputs.clasp(2), inputs.knotted()]
    massey3 = {}
    for d in diagrams:
        e = ml.embed.build_embedding(ml.diagram.parse_pd(d.pd))
        massey3[d.name] = {",".join(map(str, o)): ml.massey.massey3(e, o).value
                           for o in inputs.ORDERINGS}
        print(d.name, massey3[d.name], file=sys.stderr, flush=True)
    pool = inputs.oracle_pool()
    mu = [[ml.magnus.milnor_mu(ml.diagram.parse_pd(d.pd), (1, 2, 3)) for d in row]
          for row in pool]
    doc = {
        "recorded_at": git_commit(ROOT),
        "backend": ml.rational.Q.__module__,
        "massey3": massey3,
        "oracle_pool": {"seed": inputs.POOL_SEED, "digest": inputs.pool_digest(pool),
                        "mu123": mu},
    }
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
