import gc
import json

import pytest

import spacepart.bench as bench
from spacepart.bench import (
    BenchConfig,
    DatasetSpec,
    comparable_report,
    emit_report,
    standard_grid,
    parse_scheme,
    run_benchmark,
)


def tiny_config(**overrides):
    base = dict(
        datasets=(
            DatasetSpec(name="80x2", n=80, d=2, kind="mixture", clusters=3),
            DatasetSpec(name="60x8", n=60, d=8, kind="uniform"),
        ),
        schemes=("kdtree", "vtree:kmeanspp", "grid-stats"),
        m_values=(4,),
        repetitions=2,
        seed=5,
    )
    base.update(overrides)
    return BenchConfig(**base)


def test_parse_scheme():
    assert parse_scheme("kdtree") == ("kdtree", None)
    assert parse_scheme("vtree:median") == ("vtree", "median")
    assert parse_scheme("grid-stats") == ("grid-stats", None)
    with pytest.raises(ValueError):
        parse_scheme("vtree:alchemy")
    with pytest.raises(ValueError):
        parse_scheme("octree")


def test_standard_grid_sizes():
    names = [d.name for d in standard_grid()]
    assert names == ["100x2", "700x9", "1500x1024", "4000x1024"]
    assert standard_grid(include_large=True)[-1].name == "40000x1024"


def test_every_cell_present():
    report = run_benchmark(tiny_config())
    keys = {(c["scheme"], c["dataset"], c["m"]) for c in report.cells}
    assert ("kdtree", "80x2", 4) in keys
    assert ("vtree(kmeanspp)", "60x8", 4) in keys
    assert ("grid-stats", "80x2", None) in keys
    assert len(keys) == 6
    for cell in report.cells:
        assert cell["status"] == "ok"
        if cell["scheme"] == "grid-stats":
            assert "grid" in cell
        else:
            assert sum(cell["metrics"]["sizes"]) == cell["n"]
            assert cell["counters"]["scan_count"] > 0
            assert cell["counters"]["peak_alloc_mb"] > 0


def test_times_hold_one_entry_per_repetition(monkeypatch):
    real = bench.kd_partition
    gc_on = []

    def kd_partition(*args, **kwargs):
        gc_on.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "kd_partition", kd_partition)
    report = run_benchmark(tiny_config(repetitions=3, schemes=("kdtree", "vtree:kmeanspp")))
    for cell in report.cells:
        assert len(cell["times_s"]) == 3
        assert cell["median_time_s"] == sorted(cell["times_s"])[1]
    # per dataset: one untimed warmup with the GC on, 3 timed builds with it off, then
    # one untimed build under tracemalloc with the GC on again
    assert gc_on == [True, False, False, False, True] * 2
    assert gc.isenabled()


def test_grid_refusal_recorded_not_raised():
    cfg = tiny_config(
        datasets=(DatasetSpec(name="50x64", n=50, d=64, kind="uniform"),),
        schemes=("grid-stats", "kdtree"),
        m_values=(2,),
    )
    report = run_benchmark(cfg)
    by_scheme = {c["scheme"]: c for c in report.cells}
    assert by_scheme["grid-stats"]["status"] == "failed"
    assert by_scheme["grid-stats"]["reason"] == "REFUSED(M=3^64)"
    assert by_scheme["kdtree"]["status"] == "ok"


def test_json_round_trip(tmp_path):
    report = run_benchmark(tiny_config())
    path = tmp_path / "report.json"
    emit_report(report, "json", path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert len(doc["cells"]) == len(report.cells)
    assert doc["config"]["seed"] == 5


def test_csv_layout(tmp_path):
    report = run_benchmark(tiny_config())
    path = tmp_path / "report.csv"
    emit_report(report, "csv", path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "scheme,m,80x2,60x8"
    assert len(lines) == 1 + 3  # kdtree, vtree(kmeanspp), grid-stats
    assert lines[1].startswith("kdtree,4,")


def test_csv_refusal_marker(tmp_path):
    cfg = tiny_config(
        datasets=(DatasetSpec(name="50x64", n=50, d=64, kind="uniform"),),
        schemes=("grid-stats",),
    )
    report = run_benchmark(cfg)
    path = tmp_path / "report.csv"
    emit_report(report, "csv", path)
    assert "REFUSED(M=3^64)" in path.read_text()


def test_reproducible_outputs_modulo_times():
    a = comparable_report(run_benchmark(tiny_config()).to_dict())
    b = comparable_report(run_benchmark(tiny_config()).to_dict())
    assert a == b


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(repetitions=0)
    with pytest.raises(ValueError):
        tiny_config(schemes=())
    with pytest.raises(ValueError):
        tiny_config(schemes=("warp-drive",))
