"""The three benchmark workloads.

Each workload has a set-up (input generation, plus the shared embeddings on
``orderings_warm``) and a unit of work that the runner repeats: one cycle
of cold ``massey3`` calls, one sweep of warm orderings, or one block of
oracle closures.  Every answer is checked as it is recorded; a wrong or
failed answer is counted as failed and never enters the latency samples.
"""

import contextlib
import io
import json
import os
import random
import time

import inputs
from inputs import ORDERINGS

CYCLIC = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}


def run_cli(cli, argv):
    """One in-process ``masseylink`` command: exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue()


class Samples:
    """Per-answer latencies of correct answers, and the failures."""

    def __init__(self, tracer=None, meter=None):
        self.tracer = tracer
        self.meter = meter       # speed.SpeedMeter of an untraced run
        self.latency = []
        self.crossings = []
        self.fit = []            # (crossings, latency) pairs for the slope
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.log = []            # (label, latency, ok) of every answer

    def call(self, fn, *args):
        """Run and time one answer; returns (latency, result or exception).

        Reference runs of the speed meter that fall inside the call are not
        part of its latency.
        """
        ref0 = self.meter.ref_s if self.meter else 0.0
        t0 = time.perf_counter()
        try:
            out = self.tracer.root(fn, *args) if self.tracer else fn(*args)
        except Exception as exc:  # recorded as a failed answer
            out = exc
        latency = time.perf_counter() - t0
        if self.meter:
            latency -= self.meter.ref_s - ref0
        return latency, out

    def add(self, ok, latency, crossings, fit=False, why=""):
        self.attempted += 1
        self.log.append((why.split(":")[0], latency, ok))
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(why)
            return
        self.latency.append(latency)
        self.crossings.append(crossings)
        if fit:
            self.fit.append((crossings, latency))


def _field(out, key):
    """``key`` of a successful command's JSON output, else None."""
    if isinstance(out, Exception) or out[0] != 0:
        return None
    try:
        return json.loads(out[1])[key]
    except (ValueError, KeyError, TypeError):
        return None


def _oracle_values(ml, diagrams):
    """-milnor_mu for every diagram and ordering: the sign-exact gate."""
    out = {}
    for d in diagrams:
        link = ml.diagram.parse_pd(d.pd)
        out[d.name] = {o: -ml.magnus.milnor_mu(link, o) for o in ORDERINGS}
    return out


def _key(o):
    return ",".join(map(str, o))


class ClaspCold:
    """``masseylink massey3`` through ``cli.main``, a fresh diagram per call."""

    name = "clasp_cold"

    def __init__(self, ml, expected, seed, small, out_dir):
        self.ml, self.small = ml, small
        self.expected = expected.get("massey3", {})
        self.rot = random.Random(seed).randrange(len(ORDERINGS))
        self.dump = os.path.join(out_dir, "dump-trace-%d.json" % os.getpid())

    def setup(self):
        if self.small:
            a = inputs.trivial()
            # (diagram, grid scale, --dump-trace, used for the scaling fit)
            self.calls = [(a, 1, False, True), (a, 2 ** 40, True, False)]
        else:
            c1, c2 = inputs.clasp(1), inputs.clasp(2)
            self.calls = [(c1, 1, False, True), (c2, 1, False, True),
                          (inputs.knotted(), 1, False, False),
                          (c1, 2 ** 40, True, False)]

    def prepare(self):
        self.oracle = _oracle_values(self.ml, [c[0] for c in self.calls])

    def unit(self, u, samples):
        for j, (d, grid, dump, fit) in enumerate(self.calls):
            o = ORDERINGS[(self.rot + u * len(self.calls) + j) % len(ORDERINGS)]
            argv = ["massey3", "--pd", d.pd, "--order", _key(o)]
            if grid != 1:
                argv += ["--grid-scale", str(grid)]
            if dump:
                argv += ["--dump-trace", self.dump]
            latency, out = samples.call(run_cli, self.ml.cli, argv)
            why = self._check(d, o, out, dump)
            samples.add(not why, latency, d.crossings, fit, "%s%s %s: %s" % (
                d.name, " grid %d" % grid if grid != 1 else "", o, why))

    def _check(self, d, o, out, dump):
        if isinstance(out, Exception):
            return "raised %r" % (out,)
        if out[0] != 0:
            return "exit %r" % (out[0],)
        value = _field(out, "value")
        want = self.expected.get(d.name, {}).get(_key(o))
        if value != self.oracle[d.name][o] or value != want:
            return "value %r, -milnor_mu %r, recorded %r" % (
                value, self.oracle[d.name][o], want)
        if dump:
            try:
                with open(self.dump) as fh:
                    traces = json.load(fh)["traces"]
                os.remove(self.dump)
            except (OSError, ValueError, KeyError) as e:
                return "dump unreadable: %s" % e
            if len(traces) != 2:
                return "dump holds %d traces" % len(traces)
        return ""


class OrderingsWarm:
    """Library path: ``massey3(e, order)`` on an embedding built in set-up."""

    name = "orderings_warm"

    def __init__(self, ml, expected, seed, small, out_dir):
        self.ml, self.small = ml, small
        self.expected = expected.get("massey3", {})
        self.rot = random.Random(seed).randrange(len(ORDERINGS))

    def setup(self):
        self.diagram = inputs.trivial() if self.small else inputs.clasp(1)

    def build(self):
        """The shared embedding: part of set-up, outside the timed loop."""
        ml = self.ml
        self.embedding = ml.embed.build_embedding(ml.diagram.parse_pd(self.diagram.pd))

    def prepare(self):
        self.oracle = _oracle_values(self.ml, [self.diagram])

    def unit(self, u, samples):
        d, massey3 = self.diagram, self.ml.massey.massey3
        for j in range(len(ORDERINGS)):
            o = ORDERINGS[(self.rot + u + j) % len(ORDERINGS)]
            latency, r = samples.call(massey3, self.embedding, o)
            if isinstance(r, Exception):
                why = "raised %r" % (r,)
            else:
                want = self.expected.get(d.name, {}).get(_key(o))
                why = "" if r.value == self.oracle[d.name][o] == want else (
                    "value %r, -milnor_mu %r, recorded %r"
                    % (r.value, self.oracle[d.name][o], want))
            samples.add(not why, latency, d.crossings, True,
                        "%s %s: %s" % (d.name, o, why))


class OracleClosures:
    """``milnor`` over all six orders, plus ``lk``, on random closures."""

    name = "oracle_closures"

    def __init__(self, ml, expected, seed, small, out_dir):
        self.ml, self.expected, self.small = ml, expected, small
        self.rng = random.Random(seed)
        self.bad_inputs = ""

    def setup(self):
        self.pool = inputs.oracle_pool()
        rec = self.expected.get("oracle_pool", {})
        self.recorded = rec.get("mu123")
        if rec.get("digest") != inputs.pool_digest(self.pool) or not self.recorded:
            # every answer then fails its recorded-value check
            self.bad_inputs = "oracle pool differs from the recorded pool"
            self.recorded = [[None] * len(row) for row in self.pool]

    def prepare(self):
        pass

    def unit(self, u, samples):
        n = len(self.pool)
        strata = [0, n // 2, n - 1] if self.small else list(range(n))
        self.rng.shuffle(strata)
        for s in strata:
            v = self.rng.randrange(len(self.pool[s]))
            self._closure(self.pool[s][v], self.recorded[s][v], samples)

    def _closure(self, d, recorded, samples):
        cli = self.ml.cli
        got = {}
        for o in ORDERINGS:
            latency, out = samples.call(
                run_cli, cli, ["milnor", "--pd", d.pd, "--indices", _key(o)])
            got[o] = (latency, _field(out, "value"))
        base = got[(1, 2, 3)][1]
        for o, (latency, value) in got.items():
            # cyclic orders agree, a transposition negates, and (1,2,3)
            # matches the value recorded in expected.json
            want = base if o in CYCLIC else (None if base is None else -base)
            ok = value is not None and value == want and base == recorded
            samples.add(ok, latency, d.crossings, True,
                        "%s %s: %r, mu(1,2,3) %r, recorded %r"
                        % (d.name, o, value, base, recorded))
        latency, out = samples.call(run_cli, cli, ["lk", "--pd", d.pd])
        ok = _field(out, "lk") == [[0] * 3] * 3
        samples.add(ok, latency, d.crossings, False, "%s lk: %r" % (d.name, out))


WORKLOADS = {w.name: w for w in (ClaspCold, OrderingsWarm, OracleClosures)}
