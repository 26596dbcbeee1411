import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_row.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_row", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(path, commit, wall_s, traced=0, correct=True, workload="theorem1-int"):
    run = {
        "result": {"correct": correct, "attempted": 100, "failed": 0,
                   "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                               "ok_frac": {"value": 1.0, "unit": "ratio"}}},
        "provenance": {"workload": workload, "seed": 0, "commit": commit,
                       "source_sha256": "src-" + commit, "nproc": 2,
                       "cpu": "Some CPU", "python": "3.11.7",
                       "traced_passes": traced},
    }
    path.write_text(json.dumps(run))
    return path


def test_one_row_per_commit_and_workload_with_medians(tmp_path):
    files = [write_run(tmp_path / f"p{i}.json", "aaa", w)
             for i, w in enumerate((0.9, 0.8, 1.0))]
    files += [write_run(tmp_path / f"c{i}.json", "bbb", w, correct=i != 1)
              for i, w in enumerate((0.3, 0.4))]
    files.append(write_run(tmp_path / "s.json", "bbb", 0.5, workload="symbolic"))
    out = tmp_path / "BENCH_x.json"
    assert load_script().main(["--label", "x", "--out", str(out),
                               *map(str, files)]) == 0
    table = json.loads(out.read_text())
    assert table["label"] == "x"
    rows = {(r["commit"], r["workload"]): r for r in table["rows"]}
    assert set(rows) == {("aaa", "theorem1-int"), ("bbb", "theorem1-int"),
                         ("bbb", "symbolic")}
    parent, change = rows["aaa", "theorem1-int"], rows["bbb", "theorem1-int"]
    assert parent["metrics"]["wall_s"] == pytest.approx(
        {"median": 0.9, "q1": 0.85, "q3": 0.95, "unit": "s"})
    assert change["metrics"]["wall_s"]["median"] == pytest.approx(0.35)
    assert (parent["runs"], parent["correct_runs"]) == (3, 3)
    assert (change["runs"], change["correct_runs"]) == (2, 1)
    assert parent["seed"] == 0 and parent["nproc"] == 2
    assert parent["cpu"] == "Some CPU" and parent["python"] == "3.11.7"


def test_traced_run_is_refused(tmp_path, capsys):
    path = write_run(tmp_path / "t.json", "aaa", 1.0, traced=2)
    out = tmp_path / "BENCH_x.json"
    assert load_script().main(["--label", "x", "--out", str(out), str(path)]) == 2
    assert "--trace 1" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_file_is_refused(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"result": {}}))
    assert load_script().main(["--label", "x", "--out", str(tmp_path / "o.json"),
                               str(path)]) == 2


@pytest.mark.parametrize("label", ["", "a/b", "../x"])
def test_label_must_be_a_plain_name(tmp_path, label):
    path = write_run(tmp_path / "p.json", "aaa", 1.0)
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--label", label, str(path)])
    assert exc.value.code == 2


def test_quartiles_tell_unchanged_from_unresolved(tmp_path):
    # both changes move the median by 0.02 s; only the one whose parent runs
    # spread less than that resolves it
    spreads = {"tight": (1.0, 1.001, 0.999, 1.0, 1.0),
               "wide": (0.9, 1.1, 1.0, 0.95, 1.05)}
    files = []
    for name, walls in spreads.items():
        files += [write_run(tmp_path / f"{name}-p{i}.json", f"{name}-p", w)
                  for i, w in enumerate(walls)]
        files += [write_run(tmp_path / f"{name}-c{i}.json", f"{name}-c", w - 0.02)
                  for i, w in enumerate(walls)]
    files.append(write_run(tmp_path / "one.json", "one", 0.5))
    out = tmp_path / "BENCH_q.json"
    assert load_script().main(["--label", "q", "--out", str(out),
                               *map(str, files)]) == 0
    wall = {r["commit"]: r["metrics"]["wall_s"]
            for r in json.loads(out.read_text())["rows"]}
    assert wall["one"] == {"median": 0.5, "q1": 0.5, "q3": 0.5, "unit": "s"}
    for name, resolved in (("tight", True), ("wide", False)):
        parent, change = wall[f"{name}-p"], wall[f"{name}-c"]
        assert parent["q1"] <= parent["median"] <= parent["q3"]
        assert parent["median"] - change["median"] == pytest.approx(0.02)
        spread = parent["q3"] - parent["q1"]
        assert (parent["median"] - change["median"] > spread) == resolved
    assert wall["tight-p"]["q1"] == pytest.approx(1.0)
    assert wall["wide-p"]["q1"] == pytest.approx(0.95)
    assert wall["wide-p"]["q3"] == pytest.approx(1.05)
