import json

import numpy as np
import pytest

import spacepart
import spacepart.cli as cli
from spacepart.cli import main
from spacepart.dataio import load_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_binary(tmp_path, capsys):
    out = tmp_path / "data.bin"
    code, stdout, _ = run(capsys, "gen", "--uniform", "-n", "100", "-d", "2", "--seed", "7", "-o", str(out))
    assert code == 0
    assert out.exists()
    ds = load_dataset(out)
    assert (ds.n, ds.dims) == (100, 2)
    assert "--seed=7" in stdout  # effective config echoed


def test_gen_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code, _, _ = run(capsys, "gen", "--mixture", "-n", "30", "-d", "3", "--clusters", "2", "-o", str(out))
    assert code == 0
    assert load_dataset(out).n == 30


def test_partition_writes_assignment_and_tree(tmp_path, capsys):
    data = tmp_path / "data.bin"
    run(capsys, "gen", "--uniform", "-n", "100", "-d", "2", "--seed", "1", "-o", str(data))
    code, stdout, _ = run(
        capsys, "partition", "--scheme", "vtree", "--seeding", "kmeanspp",
        "-m", "4", "--eps", "0.1", "-i", str(data), "-o", str(tmp_path / "run"),
    )
    assert code == 0
    rows = (tmp_path / "run.assignment.csv").read_text().strip().splitlines()
    assert len(rows) == 100
    doc = json.loads((tmp_path / "run.tree.json").read_text())
    assert doc["kind"] == "vtree" and doc["m"] == 4


def test_partition_kdtree(tmp_path, capsys):
    data = tmp_path / "data.bin"
    run(capsys, "gen", "--uniform", "-n", "64", "-d", "3", "-o", str(data))
    code, _, _ = run(capsys, "partition", "--scheme", "kdtree", "-m", "8", "-i", str(data))
    assert code == 0
    doc = json.loads((tmp_path / "data.tree.json").read_text())
    assert doc["kind"] == "kdtree"


@pytest.mark.parametrize("scheme", ["kdtree", "vtree"])
def test_partition_rejects_nan_eps(tmp_path, capsys, scheme):
    data = tmp_path / "data.bin"
    run(capsys, "gen", "--uniform", "-n", "40", "-d", "2", "-o", str(data))
    code, _, stderr = run(capsys, "partition", "--scheme", scheme, "-m", "4", "--eps", "nan", "-i", str(data))
    assert code == 2
    assert "eps must be non-negative" in stderr
    assert not (tmp_path / "data.assignment.csv").exists()


def test_grid_stats_reports_occupancy(tmp_path, capsys):
    data = tmp_path / "data.bin"
    run(capsys, "gen", "--uniform", "-n", "1000", "-d", "8", "--seed", "0", "-o", str(data))
    code, stdout, _ = run(capsys, "grid-stats", "-i", str(data), "-y", "2", "-k", "1")
    assert code == 0
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert doc["M"] == 6561
    assert doc["occupied_fraction"] < 0.15


def test_grid_stats_refuses_high_dims(tmp_path, capsys):
    data = tmp_path / "data64.bin"
    run(capsys, "gen", "--uniform", "-n", "50", "-d", "64", "-o", str(data))
    code, _, stderr = run(capsys, "grid-stats", "-i", str(data), "-y", "2", "-k", "1")
    assert code == 2
    assert "3^64" in stderr


@pytest.mark.parametrize(
    "argv, names",
    [
        (["partition", "--scheme", "kdtree", "-m", "3"], ["kd_partition", "kd_tree_to_json"]),
        (["partition", "--scheme", "vtree", "-m", "3"], ["build_vtree", "vtree_to_json"]),
        (["grid-stats", "-y", "2"], ["build_grid", "grid_stats"]),
    ],
    ids=["kdtree", "vtree", "grid-stats"],
)
def test_commands_call_the_module_attributes(tmp_path, capsys, monkeypatch, argv, names):
    # the names a command imports on first use are still attributes of the cli
    # module, and a replacement is what runs (perfbench/traced_cli.py times
    # each layer this way)
    data = tmp_path / "d.bin"
    run(capsys, "gen", "--uniform", "-n", "60", "-d", "2", "-o", str(data))
    calls = []
    for name in names:
        monkeypatch.setattr(cli, name, lambda *a, _fn=getattr(cli, name), _name=name, **k: calls.append(_name) or _fn(*a, **k))
    code, _, _ = run(capsys, *argv, "-i", str(data), *(["-o", str(tmp_path / "p")] if argv[0] == "partition" else []))
    assert code == 0
    assert calls == names
    with pytest.raises(AttributeError):
        cli.nope


def test_render_creates_svg(tmp_path, capsys):
    data = tmp_path / "d.bin"
    run(capsys, "gen", "--uniform", "-n", "60", "-d", "2", "-o", str(data))
    run(capsys, "partition", "--scheme", "vtree", "-m", "3", "-i", str(data), "-o", str(tmp_path / "p"))
    code, _, _ = run(
        capsys, "render", "-i", str(data), "-a", str(tmp_path / "p.assignment.csv"),
        "-o", str(tmp_path / "plot.svg"),
    )
    assert code == 0
    assert (tmp_path / "plot.svg").read_text().startswith("<?xml")


def test_bench_tiny(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "bench", "--datasets", "60x2,40x4", "--schemes", "kdtree,vtree:median",
        "-m", "2", "--reps", "1", "-o", str(tmp_path / "out"), "--format", "csv",
    )
    assert code == 0
    lines = (tmp_path / "out" / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "scheme,m,60x2,40x4"


@pytest.mark.parametrize(
    "flag, value, token",
    [
        ("--datasets", "100", "100"),
        ("--datasets", "60x2,10x", "10x"),
        ("--datasets", "0x4", "0x4"),
        ("-m", "2,x", "x"),
        ("-m", "0", "0"),
        ("--schemes", "kdtree,vtree:nope", "vtree:nope"),
    ],
)
def test_bench_bad_list_item_is_usage_error(tmp_path, capsys, flag, value, token):
    code, _, stderr = run(capsys, "bench", flag, value, "--reps", "1", "-o", str(tmp_path / "out"))
    assert code == 1
    assert f"argument {flag}: bad item {token!r}" in stderr
    assert not (tmp_path / "out").exists()


def test_unknown_flag_is_usage_error(capsys):
    code, _, stderr = run(capsys, "gen", "--uniform", "-n", "10", "-d", "2", "-o", "x", "--warp")
    assert code == 1
    assert "usage" in stderr.lower()


def test_missing_subcommand_is_usage_error(capsys):
    code, _, stderr = run(capsys)
    assert code == 1


def test_missing_input_file_is_runtime_error(tmp_path, capsys):
    code, _, stderr = run(capsys, "partition", "-i", str(tmp_path / "nope.bin"))
    assert code == 2
    assert "error" in stderr.lower()


def test_invalid_choice_is_usage_error(capsys):
    code, _, _ = run(capsys, "partition", "--scheme", "balloon", "-i", "x")
    assert code == 1


def test_input_format_override(tmp_path, capsys):
    # binary payload behind a .csv suffix: auto-detection and the explicit
    # override must both read it
    path = tmp_path / "mislabelled.csv"
    run(capsys, "gen", "--uniform", "-n", "20", "-d", "2", "-o", str(path), "--data-format", "binary")
    code, _, _ = run(capsys, "partition", "-i", str(path), "-m", "2", "--input-format", "binary")
    assert code == 0
    code, _, _ = run(capsys, "grid-stats", "-i", str(path), "-y", "1", "--input-format", "binary")
    assert code == 0


def test_only_exported_names_bind_here():
    # the package's own attributes are not the cli module's: a __path__ here
    # would make the module look like a package
    for name in ("__path__", "__version__", "_EXPORTS"):
        assert not hasattr(cli, name)
    assert cli.build_vtree is spacepart.build_vtree
