"""What importing the package and running each command loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spacepart
from spacepart.cli import main


# runs the CLI module as ``python -m spacepart.cli`` does, then reports sys.modules
RUN_AS_MAIN = """
import atexit, runpy, sys
atexit.register(lambda: print("loaded:", *sorted(m for m in sys.modules if m.startswith("spacepart.")), file=sys.stderr))
sys.argv[1:] = sys.argv[2:]
runpy.run_module("spacepart.cli", run_name="__main__", alter_sys=True)
"""


def modules_loaded(*argv) -> set:
    """The spacepart submodules that a fresh process running the CLI with ``argv`` has imported by its exit."""
    src = str(Path(spacepart.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", RUN_AS_MAIN, "--", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = next(line for line in proc.stderr.splitlines() if line.startswith("loaded:"))
    return {name.split(".", 1)[1] for name in line.split()[1:]}


@pytest.mark.parametrize(
    "argv, needed, skipped",
    [
        (["partition", "--scheme", "kdtree"], {"kdtree"}, {"vtree", "seeding", "grid", "bench", "render"}),
        (["partition", "--scheme", "vtree"], {"vtree", "seeding", "kdtree"}, {"grid", "bench", "render"}),
        (["grid-stats", "-y", "2"], {"grid", "kdtree"}, {"vtree", "seeding", "bench", "render"}),
    ],
    ids=["partition-kdtree", "partition-vtree", "grid-stats"],
)
def test_each_command_imports_only_what_it_runs(tmp_path, capsys, argv, needed, skipped):
    data = tmp_path / "data.bin"
    assert main(["gen", "--uniform", "-n", "200", "-d", "3", "-o", str(data)]) == 0
    loaded = modules_loaded(*argv, "-i", str(data), *(["-m", "4"] if argv[0] == "partition" else []))
    assert {"core", "dataio"} | needed <= loaded
    assert not loaded & skipped


def test_every_exported_name_resolves():
    assert len(set(spacepart.__all__)) == len(spacepart.__all__)
    for name in spacepart.__all__:
        value = getattr(spacepart, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
    namespace = {}
    exec("from spacepart import *", namespace)
    assert set(spacepart.__all__) <= set(namespace)
    assert set(spacepart.__all__) <= set(dir(spacepart))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        spacepart.nope
