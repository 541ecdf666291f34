"""Tests of the benchmark itself: its arithmetic, its checks and a toy run of every workload.

Run from the root of the repository: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
from spans import Tracer, covered, self_time  # noqa: E402
from workloads import WORKLOADS, grid_oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 99) == 99
    assert metrics.percentile(values, 100) == 100
    assert metrics.percentile(reversed(values), 1) == 1
    assert metrics.percentile([7.5], 99) == 7.5
    assert metrics.percentile([4, 1, 3, 2], 50) == 2
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_end_to_end_takes_medians():
    out = metrics.end_to_end({"kd.build_s": [3.0, 1.0, 2.0], "grid.stats_s": [4.0, 1.0], "vtree.bias": []})
    assert out == {"kd.build_s": (2.0, 3), "grid.stats_s": (2.5, 2)}


def test_query_percentiles_take_each_probes_median_first():
    steady = np.arange(1.0, 101.0)  # probe i takes i us
    stalled = steady.copy()
    stalled[:20] = 1000.0  # one repetition where the machine stalled 20 probes
    out = metrics.query_percentiles({"route": [steady, stalled, steady]})
    assert out == {"query.route_p50_us": (50.0, 3), "query.route_p99_us": (99.0, 3)}
    assert metrics.query_percentiles({"route": []}) == {}


def test_covered_is_the_union_clipped_to_the_span():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5)], 0, 10) == 4  # overlap counted once
    assert covered([(1, 9), (2, 3)], 0, 10) == 8  # nested
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4  # clipped at both ends
    assert covered([(4, 6), (1, 2)], 0, 10) == 3  # any order


def test_self_time_subtracts_children():
    span = {"start": 0.0, "end": 10.0}
    kids = [{"start": 0.0, "end": 3.0}, {"start": 2.0, "end": 4.0}, {"start": 9.0, "end": 12.0}]
    assert self_time(span, kids) == pytest.approx(10 - 4 - 1)
    assert self_time(span, []) == 10


def test_unaccounted_is_wall_minus_import_minus_layer_spans():
    tr = Tracer()
    op = tr.add_op("cli.partition.vtree", 100.0, 110.0)
    tr.add("cli.import", 100.0, 103.0, op, op)
    tr.add("dataio.load_dataset", 103.0, 105.0, op, op, {"bytes_read": 4_000_000})
    tr.add("vtree.build_vtree", 105.0, 108.0, op, op, {"scan_count": 7})
    tr.add("core.write_assignment_csv", 108.5, 109.0, op, op)
    other = tr.add_op("cli.grid-stats", 120.0, 121.0)
    tr.add("dataio.load_dataset", 120.2, 120.4, other, other, {"bytes_read": 1})
    out = metrics.per_layer(tr)
    assert out["cli.unaccounted_s"][0] == pytest.approx(1.5)
    assert out["cli.import_s"][0] == pytest.approx(3.0)
    # only partition operations feed the load metrics
    assert out["dataio.load_dataset_s"] == (pytest.approx(2.0), 1)
    assert out["dataio.load_mb_per_s"][0] == pytest.approx(2.0)
    assert out["vtree.scan_count"] == (7, 1)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics.LAYERS)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert "setup_s" in e2e and all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_assignment_checks(tmp_path):
    import harness
    from spacepart.core import PartitionAssignment

    good = tmp_path / "a.csv"
    good.write_text("0,1,0\n1,0,1\n2,1,0\n")
    rows = harness.read_assignment_csv(good, 3, 2)
    sizes, affected = harness.check_rows("a.csv", rows, 3, 2)
    assert list(sizes) == [1, 2] and affected == 1
    # an in-process assignment gives the rows the CLI writes, whatever its key order
    inproc = harness.assignment_rows(PartitionAssignment(2, {2: 1, 0: 1, 1: 0}, affected=[1]))
    assert np.array_equal(inproc, rows)
    for bad in ("0,1,0\n0,0,1\n2,1,0\n", "0,1,0\n1,2,1\n2,1,0\n", "0,1,0\n1,0,3\n2,1,0\n",
                "0,1,0\n1,0,1\n", "0,1\n1,0\n2,1\n", "0,x,0\n1,0,1\n2,1,0\n"):
        path = tmp_path / "b.csv"
        path.write_text(bad)
        with pytest.raises(harness.CheckFailed):
            harness.read_assignment_csv(path, 3, 2)


def test_digests_must_repeat_within_and_across_runs(tmp_path):
    import harness

    book = harness.Digests(tmp_path / "d.json", "code|w|1")
    book.check("kdtree", "aaa")
    book.check("kdtree", "aaa")
    with pytest.raises(harness.CheckFailed):
        book.check("kdtree", "bbb")
    book.save()
    later = harness.Digests(tmp_path / "d.json", "code|w|1")
    with pytest.raises(harness.CheckFailed):
        later.check("kdtree", "bbb")
    harness.Digests(tmp_path / "d.json", "other-code|w|1").check("kdtree", "bbb")


def test_grid_oracle_agrees_with_the_program():
    from spacepart import Dataset, GridConfig, build_grid, grid_stats

    coords = np.random.default_rng(3).normal(size=(500, 4))
    coords[:, 3] = 1.0  # a flat dimension
    want = grid_oracle(coords)
    got = grid_stats(build_grid(Dataset(coords), GridConfig(2, 1, dims=4))).to_dict()
    assert want == {k: got[k] for k in want}


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0.1",
           "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_toy_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "partition-ld", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
