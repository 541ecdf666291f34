"""How each metric is computed, and which end-to-end metric each layer should move.

End-to-end metrics come from the untraced run as medians of per-operation
samples; query latencies are percentiles over the probes of each probe's
median over the repetitions, so a burst of machine noise moves no probe.
Per-layer metrics come from the spans of the traced run. Names, units and
directions live in ``BENCHMARK.json``; this module owns the arithmetic and the
layer map, and the tests check that the two list the same metrics.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(samples: dict[str, list]) -> dict[str, tuple[float, int]]:
    """Metric name -> (median, sample count) from the untraced run's samples."""
    return {name: (statistics.median(values), len(values)) for name, values in samples.items() if values}


def query_percentiles(latencies: dict[str, list]) -> dict[str, tuple[float, int]]:
    """``query.<name>_p50_us`` and ``_p99_us`` -> (value, repetitions).

    ``latencies`` maps a query name to one array per repetition with one
    latency per probe. Each probe's median over the repetitions drops the
    moments the machine stalled it; the percentiles over probes keep the
    probes that are slow because of where they fall in the trees.
    """
    out = {}
    for name, reps in latencies.items():
        if reps:
            per_probe = np.median(np.vstack(reps), axis=0)
            for q in (50, 99):
                out[f"query.{name}_p{q}_us"] = (float(percentile(per_probe, q)), len(reps))
    return out


# ---- per-layer metrics from spans -------------------------------------------

PARTITION_OPS = ("cli.partition.kdtree", "cli.partition.vtree")


class SpanView:
    """Lookups over a finished trace."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.op_name = {s["id"]: s["name"] for s in tracer.spans if s["parent"] is None}
        self.by_name: dict[str, list] = {}
        for s in tracer.spans:
            self.by_name.setdefault(s["name"], []).append(s)

    def spans(self, name, ops=None):
        return [s for s in self.by_name.get(name, ()) if ops is None or self.op_name.get(s["op"]) in ops]

    def durations(self, name, ops=None):
        return [s["end"] - s["start"] for s in self.spans(name, ops)]

    def counts(self, name, key, ops=None):
        return [s["counts"][key] for s in self.spans(name, ops) if key in s["counts"]]

    def rates(self, name, key, scale, ops=None):
        """Per span, the count divided by the span's duration, times ``scale``."""
        return [s["counts"][key] * scale / (s["end"] - s["start"])
                for s in self.spans(name, ops) if key in s["counts"] and s["end"] > s["start"]]


@dataclass(frozen=True)
class Layer:
    compute: Callable[[SpanView], list]
    moves: str  # the end-to-end metric(s) a change in this layer should move
    where: str  # the workload on which it should, and where it should not


def _dur(name, ops=None):
    return lambda v: v.durations(name, ops)


def _count(name, key, ops=None):
    return lambda v: v.counts(name, key, ops)


def _unaccounted(v: SpanView) -> list:
    """Partition wall time minus interpreter start, import and every layer span."""
    return [v.tracer.self_time(op) for op in v.tracer.spans if op["name"] in PARTITION_OPS]


def _overhead(v: SpanView) -> list:
    traced = v.durations("cli.partition.vtree")
    plain = v.durations("untraced.partition.vtree")
    if not traced or not plain:
        return []
    return [statistics.median(traced) - statistics.median(plain)]


LAYERS: dict[str, Layer] = {
    "cli.import_s": Layer(_dur("cli.import"), "*.partition_s, grid.stats_s",
                          "all; the largest share on partition-ld"),
    "cli.unaccounted_s": Layer(_unaccounted, "*.partition_s", "partition-hd and partition-ld"),
    "dataio.load_dataset_s": Layer(_dur("dataio.load_dataset", PARTITION_OPS),
                                   "*.partition_s, *.peak_rss_mb", "partition-hd; ~0 on partition-ld"),
    "dataio.bytes_read": Layer(_count("dataio.load_dataset", "bytes_read", PARTITION_OPS),
                               "*.partition_s, *.peak_rss_mb", "partition-hd; ~0 on partition-ld"),
    "dataio.load_mb_per_s": Layer(lambda v: v.rates("dataio.load_dataset", "bytes_read", 1e-6, PARTITION_OPS),
                                  "*.partition_s (computed: bytes_read / load time)",
                                  "partition-hd; ~0 on partition-ld"),
    "vtree.build_vtree_s": Layer(_dur("vtree.build_vtree"), "vtree.build_s, vtree.partition_s",
                                 "kernel-bound on partition-hd, driver-bound on partition-ld"),
    "vtree.scan_count": Layer(_count("vtree.build_vtree", "scan_count"), "vtree.build_s", "all"),
    "vtree.levels": Layer(_count("vtree.build_vtree", "levels"), "vtree.build_s, vtree.bias", "all"),
    "vtree.empty_leaves": Layer(_count("vtree.build_vtree", "empty_leaves"), "vtree.bias", "all"),
    "vtree.kernel_s": Layer(_dur("vtree.kernel"), "vtree.build_s",
                            "partition-hd; not partition-ld"),
    "vtree.kernel_gflops": Layer(lambda v: v.rates("vtree.kernel", "flops", 1e-9),
                                 "vtree.build_s (computed: (2k+2)*n*d flops / kernel time)",
                                 "partition-hd; not partition-ld"),
    "seeding.seeds_kmeanspp_s": Layer(_dur("seeding.seeds_kmeanspp"), "vtree.build_s", "partition-hd"),
    "seeding.seeds_gnat_s": Layer(_dur("seeding.seeds_gnat"), "none (no end-to-end op uses gnat)",
                                  "partition-hd"),
    "seeding.seeds_random_s": Layer(_dur("seeding.seeds_random"), "none (no end-to-end op uses random)",
                                    "partition-hd"),
    "seeding.seeds_median_s": Layer(_dur("seeding.seeds_median"), "none (no end-to-end op uses median)",
                                    "partition-hd"),
    "kdtree.kd_partition_s": Layer(_dur("kdtree.kd_partition"), "kd.build_s, kd.partition_s", "all"),
    "kdtree.scan_count": Layer(_count("kdtree.kd_partition", "scan_count"), "kd.build_s", "all"),
    "kdtree.select_median_s": Layer(_dur("kdtree.select_median"), "kd.build_s",
                                    "dominates on partition-ld"),
    "core.variance_per_dimension_s": Layer(_dur("core.variance_per_dimension"), "kd.build_s",
                                           "dominates on partition-hd"),
    "vtree.vtree_to_json_s": Layer(_dur("vtree.vtree_to_json"), "vtree.partition_s", "partition-hd"),
    "vtree.json_bytes": Layer(_count("vtree.vtree_to_json", "json_bytes"), "vtree.partition_s",
                              "partition-hd"),
    "kdtree.kd_tree_to_json_s": Layer(_dur("kdtree.kd_tree_to_json"), "kd.partition_s", "partition-hd"),
    "core.write_assignment_csv_s": Layer(_dur("core.write_assignment_csv", PARTITION_OPS), "*.partition_s",
                                         "partition-ld"),
    "core.csv_bytes": Layer(_count("core.write_assignment_csv", "csv_bytes", PARTITION_OPS), "*.partition_s",
                            "partition-ld"),
    "core.compute_metrics_s": Layer(_dur("core.compute_metrics", PARTITION_OPS), "*.partition_s",
                                    "partition-ld"),
    "grid.build_grid_s": Layer(_dur("grid.build_grid"), "grid.stats_s", "partition-ld"),
    "grid.grid_stats_s": Layer(_dur("grid.grid_stats"), "grid.stats_s", "partition-ld"),
    "grid.grid_find_median_s": Layer(_dur("grid.grid_find_median"), "none (no CLI command calls it)",
                                     "partition-ld"),
    "grid.occupied_fraction": Layer(_count("grid.grid_stats", "occupied_fraction"), "grid.stats_s",
                                    "partition-ld (uniform) against the clustered partition-hd"),
    "vtree.route_point_s": Layer(_dur("vtree.route_point"), "query.route_p50_us, query.route_p99_us", "all"),
    "vtree.route_comparisons": Layer(_count("vtree.route_point", "comparisons"),
                                     "query.route_p50_us, query.route_p99_us", "all"),
    "vtree.affected_partitions_s": Layer(_dur("vtree.affected_partitions"),
                                         "query.affected_p50_us, query.affected_p99_us", "all"),
    "vtree.affected_leaves_per_probe": Layer(_count("vtree.affected_partitions", "leaves"),
                                             "query.affected_p50_us, query.affected_p99_us "
                                             "(useful reach is 1 leaf per probe)", "all"),
    "trace.overhead_s": Layer(_overhead, "none (traced minus untraced vtree partition wall time)", "all"),
}


def shares(tracer) -> dict[str, float]:
    """Median layer time as a share of the median time of the operation it serves."""
    v = SpanView(tracer)
    pairs = {
        "dataio.load_dataset/vtree_partition": ("dataio.load_dataset", ["cli.partition.vtree"], "cli.partition.vtree"),
        "vtree.kernel/build_vtree": ("vtree.kernel", None, "vtree.build_vtree"),
        "core.write_assignment_csv/vtree_partition": ("core.write_assignment_csv", ["cli.partition.vtree"],
                                                      "cli.partition.vtree"),
    }
    out = {}
    for label, (part, ops, whole) in pairs.items():
        a, b = v.durations(part, ops), v.durations(whole)
        if a and b:
            out[label] = statistics.median(a) / statistics.median(b)
    return out


def per_layer(tracer) -> dict[str, tuple[float, int]]:
    view = SpanView(tracer)
    out = {}
    for name, layer in LAYERS.items():
        values = layer.compute(view)
        if values:
            out[name] = (statistics.median(values), len(values))
    return out
