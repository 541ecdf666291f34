"""Benchmark of the spacepart partitioner: one workload, one run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload partition-hd --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed``, sets up, warms up, then runs
repetitions of the workload's closed loop for ``--seconds`` and checks every
output. With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs the same loop with spans around
the calls into each layer and reports the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The lines before it give the environment, each metric with its
sample count and, with tracing, where the spans were written.

``--toy`` shrinks every workload to a size that runs in about a second; the
benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

from launcher import Launcher

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def source_hash(src: Path) -> str:
    """Hash of the program and of the input generator: the key under which digests are kept."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_info(np) -> dict:
    """BLAS library, version and the thread count it runs with (None where it cannot tell)."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    import ctypes

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def llc_bytes():
    """Size of the last-level cache from sysfs, or None."""
    best = None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = int(Path(index, "level").read_text())
            size = Path(index, "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "spacepart" / "__init__.py").is_file():
        print(f"error: no program source at {src}/spacepart", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # started while this process is still small: see launcher.py
    launcher = Launcher(env, ROOT)
    try:
        return measure(args, spec, src, launcher)
    finally:
        launcher.close()


def measure(args, spec, src, launcher) -> int:
    sys.path.insert(0, str(src))
    import numpy as np

    import spacepart
    if Path(spacepart.__file__).resolve().parent != (src / "spacepart").resolve():
        print(f"error: spacepart imported from {spacepart.__file__}, not {src}", file=sys.stderr)
        return 2

    import harness
    import metrics
    from workloads import WORKLOADS, toy

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = toy(workload)

    WORKDIR.mkdir(exist_ok=True)
    rundir = WORKDIR / f"{args.workload}-{os.getpid()}"
    rundir.mkdir()
    prefix = f"{source_hash(src)}|{workload}|{args.seed}"
    digests = harness.Digests(WORKDIR / "digests.json", prefix)
    bench = harness.Bench(workload, args.seed, args.seconds, bool(args.trace), ROOT, rundir, digests,
                          launcher)
    try:
        bench.setup()
        bench.warm_up()
        bench.measure()
        environment = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(np),
            "nproc": os.cpu_count(),
            "llc_bytes": llc_bytes(),
            "input_bytes": {"data": bench.inputs.data_path.stat().st_size,
                            "grid": bench.inputs.grid_path.stat().st_size},
            "workload": {k: getattr(workload, k) for k in ("n", "d", "data", "m", "eps", "probes")},
            "seed": args.seed,
            "repetitions": bench.reps,
        }
        digests.save()
        if args.trace:
            trace_path = WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl"
            bench.tracer.write_jsonl(trace_path)
            values, wanted = metrics.per_layer(bench.tracer), spec["per_layer"]
        else:
            values = {**metrics.end_to_end(bench.samples), **metrics.query_percentiles(bench.latencies)}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    print(json.dumps({"environment": environment}, sort_keys=True))
    if args.trace:
        print(f"# spans: {trace_path.relative_to(ROOT)}")
        for name, layer in metrics.LAYERS.items():
            print(f"# layer {name} moves {layer.moves} on {layer.where}")
        for name, share in metrics.shares(bench.tracer).items():
            print(f"# share {name} {share:.4f}")
    out = {}
    for m in wanted:
        if m["name"] in values:
            value, count = values[m["name"]]
            out[m["name"]] = {"value": value, "unit": m["unit"]}
            how = "per-probe medians over" if m["name"].startswith("query.") else "median of"
            print(f"# {m['name']:34s} {value:14.6g} {m['unit']:8s} {how} n={count}")
        else:
            print(f"# {m['name']}: no sample", file=sys.stderr)
    failed_frac = bench.failed / max(bench.attempted, 1)
    print(f"# failed_frac {failed_frac} ({bench.failed} of {bench.attempted} operations)")
    correct = bench.failed == 0 and len(out) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
