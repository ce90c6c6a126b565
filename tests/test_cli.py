import hashlib
import json
import os
import subprocess
import sys

import pytest

from masseylink import drawing, embed
from masseylink.cli import main
from masseylink.errors import NotGeneric
from masseylink.fixtures import load_fixture
from masseylink.massey import massey3


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_lk_hopf(capsys):
    code, doc = _run(capsys, "lk", "--fixture", "hopf_pos")
    assert code == 0
    assert doc["lk"] == [[0, 1], [1, 0]]
    assert doc["schema_version"] == 1


def test_lk_inline_pd(capsys):
    code, doc = _run(capsys, "lk", "--pd", "X(1,3,2,4), X(3,1,4,2)")
    assert code == 0
    assert doc["lk"] == [[0, 1], [1, 0]]


def test_massey3_borromean(capsys):
    code, doc = _run(capsys, "massey3", "--order", "1,2,3", "--fixture", "borromean")
    assert code == 0
    assert doc["value"] == 1
    assert doc["term_first"] == 1
    assert doc["term_second"] == 0


def test_massey3_undefined_exit_code(capsys):
    code, doc = _run(capsys, "massey3", "--order", "1,2,3", "--fixture", "hopf_split")
    assert code == 2
    assert doc is None  # no partial JSON on failure


def test_malformed_input_exit_code(capsys):
    code, doc = _run(capsys, "lk", "--pd", "not a code")
    assert code == 1
    assert doc is None


@pytest.mark.parametrize("pd", [
    '{"components": "3", "crossings": [[1,2,2,1]]}',
    '{"components": 2.5, "crossings": [[1,2,2,1]]}',
    '{"components": true, "crossings": [[1,2,2,1]]}',
    '{"crossings": [[true,2,2,1]]}',
    '{"crossings": [[1,2,2,1.0]]}',
    '{"crossings": [5]}',
    '{"crossings": 5}',
])
def test_malformed_json_diagram_is_an_input_error(capsys, pd):
    code = main(["lk", "--pd", pd])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("option", ["--pd", "--gauss", "--fixture"])
def test_empty_inline_source_is_an_input_error(capsys, option):
    code = main(["lk", option, ""])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("input error:")


def test_milnor(capsys):
    code, doc = _run(capsys, "milnor", "--indices", "1,2,3", "--fixture", "brunn_3")
    assert code == 0
    assert abs(doc["value"]) == 3


def test_seifert_hopf(capsys):
    code, doc = _run(capsys, "seifert", "--fixture", "hopf_pos")
    assert code == 0
    assert doc["circles"] == 2 and doc["bands"] == 2
    assert doc["nesting_depths"] == [0, 1]
    assert all(p["euler"] == 1 for p in doc["per_component"])


def test_trace_output_schema(capsys):
    code, doc = _run(capsys, "trace", "--pair", "2,3", "--fixture", "borromean")
    assert code == 0
    assert doc["pair"] == [2, 3]
    assert doc["loops"]
    kinds = {p["kind"] for loop in doc["loops"] for p in loop["pieces"]}
    assert kinds <= {"along", "interior", "circle"}
    labels = [p["label"] for p in doc["pierce_points"]]
    assert sum(labels) == 0


def test_massey4_unlink(capsys):
    code, doc = _run(capsys, "massey4", "--order", "1,2,3,4", "--fixture", "unlink4")
    assert code == 0
    assert doc["status"] == "computed" and doc["value"] == 0


def test_chains_verify(capsys):
    code, doc = _run(capsys, "chains-verify", "--complex", "torus9", "--cases", "20")
    assert code == 0
    assert doc["pass"] is True


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_chains_verify_rejects_no_cases(cases, capsys):
    # with no cases the randomized identities would check nothing and pass
    code = main(["chains-verify", "--complex", "s1xs2", "--cases", cases])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "cases must be a positive integer" in captured.err


def test_byte_identical_output(capsys):
    main(["massey3", "--order", "1,2,3", "--fixture", "borromean"])
    out1 = capsys.readouterr().out
    main(["massey3", "--order", "1,2,3", "--fixture", "borromean"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_dump_geometry_and_trace(tmp_path, capsys):
    geo = tmp_path / "geo.json"
    tr = tmp_path / "trace.json"
    code, doc = _run(
        capsys,
        "massey3", "--order", "1,2,3", "--fixture", "borromean",
        "--dump-geometry", str(geo), "--dump-trace", str(tr),
    )
    assert code == 0
    gdoc = json.loads(geo.read_text())
    assert gdoc["schema_version"] == 1
    assert len(gdoc["curves"]) == 3 and len(gdoc["surfaces"]) == 3
    tdoc = json.loads(tr.read_text())
    assert len(tdoc["traces"]) == 2


def test_fixture_root_override(tmp_path, capsys, monkeypatch):
    (tmp_path / "mine.json").write_text(
        json.dumps({"components": 1, "crossings": [], "comment": "test"})
    )
    monkeypatch.setenv("MASSEYLINK_FIXTURES", str(tmp_path))
    code, doc = _run(capsys, "lk", "--fixture", "mine")
    assert code == 0
    assert doc["lk"] == [[0]]
    code, _ = _run(capsys, "lk", "--fixture", "borromean")
    assert code == 1  # bundled names are hidden behind the override


# sha256 of `massey3 --fixture borromean --order 1,2,3` with both dumps:
# stdout pins every printed integer, the dumps pin every coordinate
GOLDEN_BORROMEAN = {
    "stdout": "85f7845671b8726366c470c38c63f905d62e8cb2d19d29d48dd2b95a1e342212",
    "geometry": "45407fe98b11d6701832e3413cc9ee9f4fe55c1b6987374157ba493f93cb7b42",
    "trace": "f64ccb5562aec74736399d94acc2fb2a63f5ec3b357e5b22d27251d8016c4dca",
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _massey3_dumps(capsys, tmp_path, tag, *extra):
    return _run_dumps(
        capsys, tmp_path, tag,
        "massey3", "--fixture", "borromean", "--order", "1,2,3", *extra)


def _run_dumps(capsys, tmp_path, tag, *argv):
    geo, tr = tmp_path / (tag + "-geo.json"), tmp_path / (tag + "-trace.json")
    code = main([*argv, "--dump-geometry", str(geo), "--dump-trace", str(tr)])
    out = capsys.readouterr().out
    return code, out, geo.read_bytes(), tr.read_bytes()


def test_massey3_borromean_golden_dumps(tmp_path, capsys):
    code, out, geo, tr = _massey3_dumps(capsys, tmp_path, "golden")
    assert code == 0
    assert {
        "stdout": _sha(out.encode()), "geometry": _sha(geo), "trace": _sha(tr),
    } == GOLDEN_BORROMEAN


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from masseylink.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_runs_without_numpy(tmp_path):
    # the package needs only the standard library
    src = os.path.dirname(os.path.dirname(embed.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    geo, tr = tmp_path / "geo.json", tmp_path / "trace.json"
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY,
         "massey3", "--fixture", "borromean", "--order", "1,2,3",
         "--dump-geometry", str(geo), "--dump-trace", str(tr)],
        capture_output=True, env=env, cwd=tmp_path)
    assert run.returncode == 0, run.stderr.decode()
    assert {
        "stdout": _sha(run.stdout), "geometry": _sha(geo.read_bytes()),
        "trace": _sha(tr.read_bytes()),
    } == GOLDEN_BORROMEAN


# sha256 of `massey3 --fixture borromean_knotted --order 1,2,3` with both
# dumps and of `seifert --fixture borromean_knotted`: unlike borromean, this
# input has self-crossings, so its surfaces carry bypass steps, smoothed
# passages and band stations, which these hashes pin down
GOLDEN_KNOTTED = {
    "stdout": "85f7845671b8726366c470c38c63f905d62e8cb2d19d29d48dd2b95a1e342212",
    "geometry": "a337d7d9b92813eed048ca9a4f9d3a3f2520e49d5e86239b4fcfc2178aced7c3",
    "trace": "420edaf45cdd57c997b6bb0bf1834ee17769ff0125f7eecc0a647ce25f8bc244",
    "seifert": "5253d16cd736ee959ecdbed68cd26a5e04c62e62a7faec03f9421e782617b7f5",
}


def test_borromean_knotted_golden_dumps(tmp_path, capsys):
    code, out, geo, tr = _run_dumps(
        capsys, tmp_path, "knotted",
        "massey3", "--fixture", "borromean_knotted", "--order", "1,2,3")
    assert code == 0
    assert main(["seifert", "--fixture", "borromean_knotted"]) == 0
    seifert = capsys.readouterr().out
    assert {
        "stdout": _sha(out.encode()), "geometry": _sha(geo), "trace": _sha(tr),
        "seifert": _sha(seifert.encode()),
    } == GOLDEN_KNOTTED


def test_seifert_draws_once(capsys, monkeypatch):
    # the whole-diagram and per-component structures share one drawing
    made = []
    real = drawing.Drawing
    monkeypatch.setattr(drawing, "Drawing", lambda **kw: made.append(kw) or real(**kw))
    code, doc = _run(capsys, "seifert", "--fixture", "borromean_knotted")
    assert code == 0 and len(doc["per_component"]) == 3
    assert len(made) == 1


@pytest.mark.parametrize("argv", [
    ("massey3", "--fixture", "borromean", "--order", "1,2,3"),
    ("trace", "--fixture", "borromean", "--pair", "2,3"),
    ("massey4", "--fixture", "unlink4", "--order", "1,2,3,4"),
], ids=lambda argv: argv[0])
def test_retries_first_build_and_dumps_it(argv, tmp_path, capsys, monkeypatch):
    real = embed.verify_embedding
    seen = []

    def flaky(e):
        seen.append(e.perturb_index)
        if len(seen) == 1:
            raise NotGeneric("forced degeneracy in the first build")
        return real(e)

    monkeypatch.setattr(embed, "verify_embedding", flaky)
    if argv[0] == "massey3":
        r = massey3(load_fixture("borromean"), (1, 2, 3))
        assert seen == [0, 1]
        assert r.embedding.perturb_index == 1 and r.value == 1
        seen.clear()

    def run(tag, *extra):
        if argv[0] == "massey4":  # writes no dumps
            code = main([*argv, *extra])
            return code, capsys.readouterr().out, b"", b""
        return _run_dumps(capsys, tmp_path, tag, *argv, *extra)

    code, out, geo, tr = run("retry")
    assert code == 0
    assert seen == [0, 1]  # one failed build, one measured: no extra build
    monkeypatch.undo()
    # the output and dumps are those of the embedding measured, at index 1
    assert (code, out, geo, tr) == run("seed1", "--seed", "1")
    if argv[0] == "massey3":
        assert json.loads(out)["value"] == 1
        assert _sha(geo) != GOLDEN_BORROMEAN["geometry"]


@pytest.mark.parametrize("command", ["lk", "seifert", "milnor"])
@pytest.mark.parametrize("option", [("--seed", "1"), ("--dump-geometry", "g.json")],
                         ids=["seed", "dump-geometry"])
def test_combinatorial_commands_reject_geometry_options(command, option, tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--fixture", "borromean", *option]
    if command == "milnor":
        argv += ["--indices", "1,2,3"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert not (tmp_path / "g.json").exists()
