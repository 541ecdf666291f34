"""The closed loop: set-up, warm-up, timed repetitions and the correctness gate.

One client runs one operation at a time. Every operation is checked right
after it ends; an operation that fails a check counts as failed and its time
is not recorded. In-process timed regions run with the garbage collector off,
and the kd and vtree operations swap order on every repetition.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import (FANOUT, GRID_DIMS, GRID_K, GRID_PER_REP, GRID_Y, MIN_REPS, QUERY_TREES, SEEDING,
                       grid_oracle, make_inputs, vtree_seed)

from spacepart import (
    Dataset,
    GridConfig,
    affected_partitions,
    build_grid,
    build_vtree,
    grid_find_median,
    grid_stats,
    kd_partition,
    route_point,
    seeds_gnat,
    seeds_kmeanspp,
    seeds_median,
    seeds_random,
    select_median,
    variance_per_dimension,
)
from spacepart.kdtree import kd_tree_to_json
from spacepart.vtree import route_point_counted, vtree_to_json

SCHEMES = ("kdtree", "vtree")
SETUP_REPEATS = 3
PREFIX = {"kdtree": "kd", "vtree": "vtree"}


class CheckFailed(Exception):
    pass


def timed(fn):
    """Run fn with the garbage collector off; returns (seconds, result, start, end)."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
    finally:
        gc.enable()
    return end - start, out, start, end


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_rows(what: str, rows: np.ndarray, n: int, m: int) -> tuple[np.ndarray, int]:
    """Rows of (id, label, flag): every id 0..n-1 exactly once and in order, labels in [0, m), flags 0/1.

    Returns the partition sizes and the number of affected points.
    """
    if rows.shape != (n, 3):
        raise CheckFailed(f"{what}: expected {n} rows of 3 fields, got shape {rows.shape}")
    ids, labels, flags = rows.T
    if not np.array_equal(ids, np.arange(n)):
        raise CheckFailed(f"{what}: ids are not 0..{n - 1}, each exactly once")
    if labels.min() < 0 or labels.max() >= m:
        raise CheckFailed(f"{what}: label outside [0, {m})")
    if not np.isin(flags, (0, 1)).all():
        raise CheckFailed(f"{what}: affected flag other than 0/1")
    sizes = np.bincount(labels, minlength=m)
    if sizes.sum() != n:
        raise CheckFailed(f"{what}: sizes sum to {sizes.sum()}, not {n}")
    return sizes, int(flags.sum())


def read_assignment_csv(path: Path, n: int, m: int) -> np.ndarray:
    """The rows of an assignment CSV, checked by ``check_rows``."""
    try:
        rows = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    except ValueError as e:
        raise CheckFailed(f"{path.name}: unparseable assignment CSV: {e}") from None
    check_rows(path.name, rows, n, m)
    return rows


def assignment_rows(assignment) -> np.ndarray:
    """The rows the CLI would write for an in-process assignment, ordered by id."""
    labels = assignment.labels
    rows = np.empty((len(labels), 3), dtype=np.int64)
    rows[:, 0] = np.fromiter(labels.keys(), dtype=np.int64, count=len(labels))
    rows[:, 1] = np.fromiter(labels.values(), dtype=np.int64, count=len(labels))
    rows[:, 2] = np.isin(rows[:, 0], np.fromiter(assignment.affected, dtype=np.int64))
    return rows[np.argsort(rows[:, 0], kind="stable")]


class Digests:
    """Output digests: equal within a run and across runs of the same code and seed.

    Digests of earlier runs live in a small JSON file in the work directory,
    keyed by a hash of the program source, so a changed program never meets
    stale entries.
    """

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        try:
            self.stored = json.loads(path.read_text())
        except (OSError, ValueError):
            self.stored = {}
        self.seen: dict[str, str] = {}

    def check(self, key: str, digest: str) -> None:
        full = f"{self.prefix}|{key}"
        expected = self.seen.get(full, self.stored.get(full))
        if expected is None:
            self.seen[full] = digest
        elif expected != digest:
            raise CheckFailed(f"{key}: output digest {digest[:12]} differs from {expected[:12]}")

    def save(self) -> None:
        merged = {**self.stored, **self.seen}
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged, sort_keys=True, indent=0))
        os.replace(tmp, self.path)


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, root: Path, workdir: Path,
                 digests: Digests, launcher):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.workdir = workdir
        self.digests = digests
        self.launcher = launcher
        self.tracer = Tracer() if trace else None
        self.samples: dict[str, list] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.reps = 0
        self.latest: dict[str, tuple] = {}  # scheme -> (tree key, tree, assignment rows) of its last build
        self.latencies: dict[str, list] = {"route": [], "affected": []}  # per repetition, one value per probe

    # ---- operations ---------------------------------------------------------

    def op(self, fn, *args, record=True):
        """Run one checked operation; its samples count only if every check passes.

        Returns what the operation returned, or None if it failed.
        """
        self.attempted += 1
        try:
            samples = fn(*args)
        except CheckFailed as e:
            self.failed += 1
            print(f"check failed: {e}", file=sys.stderr)
            return None
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        if record:
            for name, value in (samples or {}).items():
                self.samples[name].append(value)
        return samples

    def run_cli(self, argv, op_name, traced):
        """Run ``spacepart`` in a child process; returns (wall s, peak RSS MB, stdout)."""
        out_path, err_path = self.workdir / "cli.out", self.workdir / "cli.err"
        span_path = self.workdir / "cli.spans.jsonl"
        if traced:
            cmd = [sys.executable, str(self.root / "perfbench" / "traced_cli.py"), str(span_path),
                   "{spawn}", "--", *argv]
        else:
            cmd = [sys.executable, "-m", "spacepart.cli", *argv]
        done = self.launcher.run(cmd, out_path, err_path)
        start, end = done["start"], done["end"]
        if self.tracer is not None:
            op = self.tracer.add_op(op_name, start, end)
            if traced and span_path.exists():
                for line in span_path.read_text().splitlines():
                    s = json.loads(line)
                    self.tracer.add(s["name"], s["start"], s["end"], op, op, s["counts"])
                span_path.unlink()
        if done["returncode"] != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            raise CheckFailed(f"spacepart {argv[0]} exited with {done['returncode']}: {tail}")
        return end - start, done["maxrss_kb"] * 1024 / 1e6, out_path.read_text()

    def tree_key(self, scheme, tree):
        return "kdtree" if scheme == "kdtree" else f"vtree:{vtree_seed(self.seed, tree)}"

    def build(self, scheme, tree):
        w, ds = self.w, self.ds
        if scheme == "kdtree":
            return lambda: kd_partition(ds, w.m, eps=w.eps)
        return lambda: build_vtree(ds, w.m, fanout=FANOUT, strategy=SEEDING, eps=w.eps,
                                   seed=vtree_seed(self.seed, tree))

    def check_tree(self, scheme, tree_no, tree) -> tuple[np.ndarray, int]:
        """Check the assignment of an in-process build and keep it for the CLI run of the same tree.

        Returns the partition sizes and the affected count.
        """
        key = self.tree_key(scheme, tree_no)
        rows = assignment_rows(tree.assignment if scheme == "kdtree" else tree.leaf_assignment)
        sizes, affected = check_rows(f"in-process {key}", rows, self.w.n, self.w.m)
        self.digests.check(f"inproc:{key}", sha(rows.tobytes()))
        self.latest[scheme] = (key, tree, rows)
        return sizes, affected

    def inproc_build(self, scheme, tree_no, quality=False):
        layer = {"kdtree": "kdtree.kd_partition", "vtree": "vtree.build_vtree"}[scheme]
        seconds, tree, start, end = timed(self.build(scheme, tree_no))
        sizes, affected = self.check_tree(scheme, tree_no, tree)
        if self.tracer is not None:
            op = self.tracer.add_op(f"inproc.build.{scheme}", start, end)
            counts = {"scan_count": tree.scan_count}
            if scheme == "vtree":
                counts.update(levels=tree.levels, empty_leaves=int((sizes == 0).sum()))
            self.tracer.add(layer, start, end, op, op, counts)
        samples = {f"{PREFIX[scheme]}.build_s": seconds}
        if scheme == "kdtree":
            self.kd_split_dim = tree.root.split_dim
        elif quality:
            samples.update(self.quality(sizes, affected))
        return samples

    def quality(self, sizes, affected) -> dict:
        return {"vtree.bias": float(sizes.max()) / (self.w.n / self.w.m), "vtree.affected_frac": affected / self.w.n}

    def check_query_tree(self, tree_no):
        """Check a set-up tree; its balance counts towards ``vtree.bias`` and ``vtree.affected_frac``."""
        return self.quality(*self.check_tree("vtree", tree_no, self.query_trees[tree_no]))

    def cli_partition(self, scheme, tree_no, traced=None, op_name=None):
        """``spacepart partition``; its files must equal the in-process build of the same tree."""
        w = self.w
        out = self.workdir / "part"
        argv = ["partition", "--scheme", scheme, "-m", str(w.m), "--eps", repr(w.eps),
                "-i", str(self.inputs.data_path), "-o", str(out)]
        if scheme == "vtree":
            argv += ["--seeding", SEEDING, "--fanout", str(FANOUT), "--seed", str(vtree_seed(self.seed, tree_no))]
        traced = self.tracer is not None if traced is None else traced
        wall, rss, _ = self.run_cli(argv, op_name or f"cli.partition.{scheme}", traced)
        csv_path, json_path = Path(f"{out}.assignment.csv"), Path(f"{out}.tree.json")
        rows = read_assignment_csv(csv_path, w.n, w.m)
        text = json_path.read_text(encoding="utf-8").removesuffix("\n")
        key = self.tree_key(scheme, tree_no)
        if self.latest.get(scheme, (None,))[0] != key:
            raise CheckFailed(f"{key}: no in-process build to compare the CLI output with")
        _, tree, want = self.latest[scheme]
        if not np.array_equal(rows, want):
            raise CheckFailed(f"{key}: the CLI assignment differs from the in-process build")
        if text != (kd_tree_to_json(tree) if scheme == "kdtree" else vtree_to_json(tree)):
            raise CheckFailed(f"{key}: the CLI tree JSON differs from the in-process build")
        self.digests.check(f"cli:{key}", sha(csv_path.read_bytes()) + sha(text.encode()))
        p = PREFIX[scheme]
        return {f"{p}.partition_s": wall, f"{p}.peak_rss_mb": rss}

    def cli_grid_stats(self):
        argv = ["grid-stats", "-i", str(self.inputs.grid_path), "-y", str(GRID_Y), "-k", str(GRID_K)]
        wall, _, stdout = self.run_cli(argv, "cli.grid-stats", self.tracer is not None)
        try:
            stats = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            raise CheckFailed("grid-stats printed no JSON line") from None
        want = self.grid_expected
        got = {k: stats.get(k) for k in want}
        if got != want:
            raise CheckFailed(f"grid-stats reported {got}, expected {want}")
        if stats["occupied_fraction"] != want["occupied"] / want["M"]:
            raise CheckFailed(f"occupied_fraction {stats['occupied_fraction']} != occupied / M")
        if not np.isclose(stats["mean_nonzero_load"] * want["occupied"], self.w.n, rtol=1e-9, atol=0):
            raise CheckFailed("grid loads do not add up to the point count")
        return {"grid.stats_s": wall}

    def query(self, trees, first, stop, key):
        """Route probes ``first`` to ``stop`` through the trees, in turn, and collect their affected sets.

        The routed leaf must lie in the affected set, and the answers must
        repeat within and across runs. Returns the route and affected-set
        latencies in microseconds.
        """
        eps, tracer = self.w.eps, self.tracer
        route_us, affected_us, spans = [], [], []
        answers = hashlib.sha256()
        bad = 0
        # The operation before this one evicted the trees from the caches; the
        # first probe after it takes about three times the median, which would
        # make every slice's first probe part of the p99. One untimed pass
        # through each tree brings them back.
        for tree in trees:
            affected_partitions(tree, self.inputs.probes[first], eps)
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        try:
            for i in range(first, stop):
                tree, p = trees[i % len(trees)], self.inputs.probes[i]
                t0 = time.perf_counter()
                leaf = route_point(tree, p)
                t1 = time.perf_counter()
                reach = affected_partitions(tree, p, eps)
                t2 = time.perf_counter()
                route_us.append((t1 - t0) * 1e6)
                affected_us.append((t2 - t1) * 1e6)
                if tracer is not None:
                    spans.append(("vtree.route_point", t0, t1, {"comparisons": route_point_counted(tree, p)[1]}))
                    spans.append(("vtree.affected_partitions", t1, t2, {"leaves": len(reach)}))
                bad += leaf not in reach
                answers.update(f"{leaf}:{sorted(reach)};".encode())
        finally:
            gc.enable()
        if tracer is not None:
            op = tracer.add_op("inproc.query", start, time.perf_counter())
            for name, t0, t1, counts in spans:
                tracer.add(name, t0, t1, op, op, counts)
        if bad:
            raise CheckFailed(f"{bad} probes routed outside their own affected set")
        self.digests.check(f"query:{key}", answers.hexdigest())
        return route_us, affected_us

    def layer_probes(self):
        """Time single public calls of the layers that no CLI span isolates (traced run only)."""
        ds, root, tracer = self.ds, self.query_trees[0].root, self.tracer
        spans = []

        def probe(name, fn, **counts):
            seconds, out, start, end = timed(fn)
            spans.append((name, start, end, counts))
            return out

        k = len(root.centers)
        probe("vtree.kernel", lambda: root.squared_distances(ds.coords), flops=(2 * k + 2) * ds.n * ds.dims)
        probe("seeding.seeds_kmeanspp", lambda: seeds_kmeanspp(ds, 2, self.seed))
        probe("seeding.seeds_gnat", lambda: seeds_gnat(ds, 2, self.seed))
        probe("seeding.seeds_random", lambda: seeds_random(ds, 2, self.seed))
        probe("seeding.seeds_median", lambda: seeds_median(ds, 2))
        probe("kdtree.select_median", lambda: select_median(ds.coords[:, self.kd_split_dim]))
        probe("core.variance_per_dimension", lambda: variance_per_dimension(ds))
        cfg = GridConfig(GRID_Y, GRID_K, dims=self.grid_ds.dims)
        grid = probe("grid.build_grid", lambda: build_grid(self.grid_ds, cfg))
        stats = probe("grid.grid_stats", lambda: grid_stats(grid))
        probe("grid.grid_find_median", lambda: grid_find_median(grid, 0))
        spans[-2][3]["occupied_fraction"] = stats.occupied_fraction
        op = tracer.add_op("inproc.layers", spans[0][1], spans[-1][2])
        for name, start, end, counts in spans:
            tracer.add(name, start, end, op, op, counts)

    # ---- the run ------------------------------------------------------------

    def setup(self):
        """Generate the inputs, write the files and build the query vtrees, several times.

        Each set-up must give the same trees; the median of their times is
        ``setup_s``.
        """
        digest = None
        for _ in range(SETUP_REPEATS):
            self.inputs = self.ds = self.query_trees = None
            start = time.perf_counter()
            self.inputs = make_inputs(self.w, self.seed, self.workdir)
            self.ds = Dataset(self.inputs.coords)
            self.query_trees = [self.build("vtree", tree)() for tree in range(QUERY_TREES)]
            self.samples["setup_s"].append(time.perf_counter() - start)
            again = [sha(assignment_rows(tree.leaf_assignment).tobytes()) for tree in self.query_trees]
            if digest not in (None, again):
                raise RuntimeError("two set-ups from one seed built different query trees")
            digest = again
        grid_coords = self.inputs.coords[:, :GRID_DIMS]
        self.grid_ds = Dataset(grid_coords)
        self.grid_expected = grid_oracle(grid_coords)

    def warm_up(self):
        """Untimed and untraced: the set-up trees' checks, one CLI partition (page cache, bytecode cache)
        and one query pass.
        """
        tracer, self.tracer = self.tracer, None
        try:
            for tree_no in reversed(range(QUERY_TREES)):  # tree 0 last: the CLI partition below rebuilds it
                self.op(self.check_query_tree, tree_no)
            self.op(self.cli_partition, "vtree", 0, record=False)
            self.op(self.query, self.query_trees, 0, len(self.inputs.probes), "all", record=False)
        finally:
            self.tracer = tracer

    def measure(self):
        """Repetitions until the time is up, and at least ``MIN_REPS``.

        Repetition r builds vtree ``QUERY_TREES + r``; the query trees stay
        the same. Balance and affected share come from the query trees and
        the trees of the first ``MIN_REPS`` repetitions only, so they are the
        same in every run with the same seed.
        """
        deadline = time.perf_counter() + self.seconds
        rep = 0
        while rep < MIN_REPS or time.perf_counter() < deadline:
            tree_no = QUERY_TREES + rep
            steps = []
            for scheme in SCHEMES if rep % 2 == 0 else SCHEMES[::-1]:
                steps += [(self.inproc_build, scheme, tree_no, rep < MIN_REPS), (self.cli_partition, scheme, tree_no)]
            steps += [(self.cli_grid_stats,)] * GRID_PER_REP
            self.repetition(steps)
            if self.tracer is not None:
                self.op(self.layer_probes)
                self.op(self.cli_partition, "vtree", tree_no, False, "untraced.partition.vtree")
            rep += 1
        self.reps = rep

    def repetition(self, steps):
        """Run the steps with a slice of the probes after each, and keep every probe's latencies.

        Machine speed on a shared host drifts on a scale of seconds, so the
        probes of one repetition are spread over its whole length, like its
        other operations, instead of sampling one moment.
        """
        n = len(self.inputs.probes)
        cuts = np.linspace(0, n, len(steps) + 1).astype(int)
        route, affected = np.empty(n), np.empty(n)
        complete = True
        for i, step in enumerate(steps):
            self.op(*step)
            got = self.op(self.query, self.query_trees, cuts[i], cuts[i + 1], str(i), record=False)
            if got is None:
                complete = False
            else:
                route[cuts[i]:cuts[i + 1]], affected[cuts[i]:cuts[i + 1]] = got
        if complete:
            self.latencies["route"].append(route)
            self.latencies["affected"].append(affected)
