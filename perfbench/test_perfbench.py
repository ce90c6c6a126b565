"""Fast self-check of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload once at its smallest size, untraced and traced, and
checks that the reported names match BENCHMARK.json.
"""

import json
import signal
import sys

import pytest

import inputs
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_workload_names_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.workloads.WORKLOADS)


def test_braid_closures_match_the_package():
    ml, _ = run.import_package(run.ROOT)
    from masseylink.fixtures import braid_closure_pd, clasp_family, load_fixture

    for word in [inputs.clasp_word(k) for k in (1, 2, 3)] + [(1, -1, 2, -2)]:
        assert inputs.braid_closure_pd(word) == [tuple(t) for t in braid_closure_pd(word, 3)]
    for k in (1, 2, 3):
        got = ml.diagram.parse_pd(inputs.clasp(k).pd).normalized_pd()
        assert got == clasp_family(k).normalized_pd()
    got = ml.diagram.parse_pd(inputs.knotted().pd).normalized_pd()
    assert got == load_fixture("borromean_knotted").normalized_pd()


def test_oracle_pool_is_the_recorded_pool():
    pool = inputs.oracle_pool()
    expected = json.loads((run.HERE / "expected.json").read_text())
    assert inputs.pool_digest(pool) == expected["oracle_pool"]["digest"]
    ml, _ = run.import_package(run.ROOT)
    for row in pool:
        for d in row:
            assert 12 <= d.crossings <= 60
            link = ml.diagram.parse_pd(d.pd)
            assert link.n_components == 3
            assert link.linking_matrix() == [[0] * 3] * 3


@pytest.mark.parametrize("workload", sorted(run.workloads.WORKLOADS))
def test_smallest_size_reports_every_metric(workload):
    metrics, report = run.measure(run.ROOT, workload, seed=1, seconds=0,
                                  trace=0, small=True)
    assert report["failed"] == 0 and report["attempted"] > 0, report["errors"]
    assert set(metrics) == names("end_to_end")
    assert all(v > 0 for v in metrics.values()), metrics
    for key in ("backend", "nproc", "python"):
        assert report["env"][key]
    tail = report["percentiles"]["latency_tail_s"]
    assert tail["samples"] == report["answers"] and tail["value"] > 0
    # the speed meter's timer is stopped and its handler removed
    assert report["speed"]["samples"] >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


@pytest.mark.parametrize("workload", sorted(run.workloads.WORKLOADS))
def test_traced_run_reports_every_layer_and_restores(workload):
    cli = sys.modules.get("masseylink.cli")
    main = cli.main if cli else None
    metrics, report = run.measure(run.ROOT, workload, seed=1, seconds=0,
                                  trace=1, small=True)
    assert report["failed"] == 0, report["errors"]
    assert set(metrics) == names("per_layer")
    assert report["trace_overhead"]["seconds"] >= 0
    assert main is None or sys.modules["masseylink.cli"].main is main
