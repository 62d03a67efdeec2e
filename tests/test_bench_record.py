"""tools/bench_record.py on synthetic perfbench run records."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def write_record(directory, workload, seed, setup_s, failed=0, trace=0, mtime=None):
    directory.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": 30.0, "trace": bool(trace),
        "smoke": False,
        "result": {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref_s": {"value": 0.002, "unit": "s"},
            "peak_rss_mb": {"value": 80.0 + seed, "unit": "MB"},
        }},
        "env": {"python": "3.11.7", "nproc": 2, "seed": seed, "git": {"commit": "unknown"}},
    }
    path = directory / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record))
    if mtime is not None:
        os.utime(path, (mtime, mtime))


@pytest.fixture
def runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in zip((1, 2, 3, 4), ((0.09, 0.07), (0.10, 0.07), (0.08, 0.06),
                                           (0.07, 0.07))):
        # alternate which side ran first
        first, second = (1000.0, 2000.0) if seed % 2 else (2000.0, 1000.0)
        write_record(parent, "dense_stiff", seed, p, mtime=first)
        write_record(change, "dense_stiff", seed, c, mtime=second)
    write_record(parent, "search", 9, 0.01, failed=2)
    write_record(change, "search", 9, 0.02)
    write_record(change, "search", 10, 0.01)  # no parent partner: ignored
    write_record(change, "dense_stiff", 1, 0.5, trace=1)  # traced run: ignored
    return parent, change


def test_pairs_medians_and_counts(runs):
    parent, change = runs
    out = bench_record.bench_record("x", parent, "aaa", change, "bbb")
    assert (out["parent_commit"], out["change_commit"]) == ("aaa", "bbb")
    assert out["env"] == {"python": "3.11.7", "nproc": 2}  # per-run seed and git dropped
    dense = out["workloads"]["dense_stiff"]
    assert dense["seeds"] == [1, 2, 3, 4]
    assert dense["first"] == ["parent", "change", "parent", "change"]
    setup = dense["metrics"]["setup_s"]
    assert setup["parent"]["runs"] == [0.09, 0.10, 0.08, 0.07]
    assert setup["parent"]["median"] == pytest.approx(0.085)
    assert (setup["parent"]["q1"], setup["parent"]["q3"]) == pytest.approx((0.0775, 0.0925))
    assert setup["change"]["median"] == pytest.approx(0.07)
    assert setup["pairs_better"] == "3/4"  # the tie counts for neither side
    assert not setup["gain_rule_met"]  # 3/4 < 9/10
    assert dense["metrics"]["wall_ref_s"]["pairs_better"] == "0/4"
    search = out["workloads"]["search"]
    assert search["seeds"] == [9]
    assert search["failed"] == {"parent": 2, "change": 0}
    assert search["metrics"]["setup_s"]["pairs_better"] == "0/1"


def test_gain_rule_needs_nine_tenths_and_a_gap_wider_than_the_parents_spread():
    assert bench_record.compare([2.0] * 10, [1.0] * 10, "lower")["gain_rule_met"]
    assert not bench_record.compare([2.0] * 10, [1.0] * 8 + [3.0] * 2, "lower")["gain_rule_met"]
    wide = [1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0, 9.0, 9.0, 9.0]
    assert not bench_record.compare(wide, [x - 0.5 for x in wide], "lower")["gain_rule_met"]
    assert bench_record.compare([1.0] * 10, [2.0] * 10, "higher")["gain_rule_met"]


def test_main_writes_bench_file(runs, tmp_path, capsys):
    parent, change = runs
    code = bench_record.main(["--label", "demo", "--parent", str(parent), "--parent-commit",
                              "aaa", "--change", str(change), "--change-commit", "bbb",
                              "--out-dir", str(tmp_path)])
    assert code == 0
    written = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert written["label"] == "demo"
    assert set(written["workloads"]) == {"dense_stiff", "search"}
    assert "dense_stiff setup_s" in capsys.readouterr().out


def test_no_pairs_is_an_error(tmp_path, capsys):
    write_record(tmp_path / "p", "search", 1, 0.01)
    write_record(tmp_path / "c", "search", 2, 0.01)
    code = bench_record.main(["--label", "none", "--parent", str(tmp_path / "p"),
                              "--parent-commit", "a", "--change", str(tmp_path / "c"),
                              "--change-commit", "b", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "no workload and seed" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_none.json").exists()
