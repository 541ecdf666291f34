"""Benchmark harness: times every (scheme, dataset, m) cell and reports quality.

Each cell runs the partitioner once untimed as a warmup, then ``repetitions``
times with a monotonic clock around the partitioning call only (dataset
generation and I/O stay outside, the GC stays off inside) and reports the
median. One more, untimed build runs under ``tracemalloc`` for the cell's
``counters.peak_alloc_mb`` (tracing slows allocation, so it stays out of the
timed builds). Partition outputs are deterministic under the configured seed;
only the times vary. Failed cells (a grid refusing an infeasible cube count,
for instance) are recorded with a reason and the run continues.

Reports round-trip through JSON; the CSV form is the flat table with one row
per scheme/m and one column per dataset.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .core import Dataset, check_strategy, compute_metrics, generate_gaussian_mixture, generate_uniform
from .dataio import load_dataset
from .grid import GridConfig, GridFeasibilityError, build_grid, grid_stats
from .kdtree import kd_partition
from .vtree import build_vtree

__all__ = [
    "SCHEMA_VERSION",
    "DatasetSpec",
    "BenchConfig",
    "BenchReport",
    "standard_grid",
    "parse_scheme",
    "run_benchmark",
    "emit_report",
    "comparable_report",
]

SCHEMA_VERSION = 1

# Standard benchmark sizes (points x dims); the largest is gated separately.
STANDARD_SIZES = ((100, 2), (700, 9), (1500, 1024), (4000, 1024))
STANDARD_SIZE_LARGE = (40000, 1024)


@dataclass(frozen=True)
class DatasetSpec:
    """A dataset to benchmark: synthesized uniform/mixture data or a file path."""

    name: str
    n: int = 0
    d: int = 0
    kind: str = "mixture"
    clusters: int = 8
    spread: float = 5.0
    path: Optional[str] = None

    def materialize(self, seed: int) -> Dataset:
        if self.path is not None:
            return load_dataset(self.path)
        if self.kind == "uniform":
            return generate_uniform(self.n, self.d, seed=seed)
        if self.kind == "mixture":
            return generate_gaussian_mixture(self.n, self.d, k=self.clusters, spread=self.spread, seed=seed)
        raise ValueError(f"unknown dataset kind {self.kind!r}")


def standard_grid(include_large: bool = False, kind: str = "mixture") -> tuple[DatasetSpec, ...]:
    """The benchmark's standard size grid, optionally including the 40000x1024 cell."""
    sizes = STANDARD_SIZES + ((STANDARD_SIZE_LARGE,) if include_large else ())
    return tuple(DatasetSpec(name=f"{n}x{d}", n=n, d=d, kind=kind) for n, d in sizes)


def parse_scheme(token: str) -> tuple[str, Optional[str]]:
    """'kdtree' | 'grid-stats' | 'vtree:<strategy>' -> (scheme, strategy)."""
    token = token.strip()
    if token == "kdtree":
        return "kdtree", None
    if token == "grid-stats":
        return "grid-stats", None
    if token.startswith("vtree:"):
        return "vtree", check_strategy(token.split(":", 1)[1])
    raise ValueError(f"unknown scheme {token!r} (expected kdtree, vtree:<strategy>, or grid-stats)")


def scheme_label(scheme: str, strategy: Optional[str]) -> str:
    return f"vtree({strategy})" if scheme == "vtree" else scheme


@dataclass(frozen=True)
class BenchConfig:
    datasets: tuple[DatasetSpec, ...]
    schemes: tuple[str, ...] = ("kdtree", "vtree:kmeanspp", "vtree:median")
    m_values: tuple[int, ...] = (8,)
    eps: float = 0.0
    fanout: int = 2
    repetitions: int = 5
    seed: int = 0
    grid_splits_y: int = 2
    grid_multiplier_k: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.datasets or not self.schemes:
            raise ValueError("need at least one dataset and one scheme")
        for s in self.schemes:
            parse_scheme(s)

    def to_dict(self) -> dict:
        return {
            "datasets": [
                {"name": d.name, "n": d.n, "d": d.d, "kind": d.kind, "clusters": d.clusters,
                 "spread": d.spread, "path": d.path}
                for d in self.datasets
            ],
            "schemes": list(self.schemes),
            "m_values": list(self.m_values),
            "eps": self.eps,
            "fanout": self.fanout,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "grid_splits_y": self.grid_splits_y,
            "grid_multiplier_k": self.grid_multiplier_k,
        }


@dataclass
class BenchReport:
    environment: dict
    config: dict
    cells: list[dict]
    created: str
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "created": self.created,
            "environment": self.environment,
            "config": self.config,
            "cells": self.cells,
        }


def _environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def _timed_builds(build, repetitions: int):
    """One untimed warmup build, then ``repetitions`` timed ones with the GC off.

    Returns the last result and the per-build seconds.
    """
    result = build()
    times = []
    gc.disable()
    try:
        for _ in range(repetitions):
            gc.collect()
            t0 = time.perf_counter()
            result = build()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return result, times


def _peak_alloc_mb(build) -> float:
    """The tracemalloc peak of one build, in MB (1e6 bytes)."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _run_cell(spec: DatasetSpec, ds: Dataset, scheme: str, strategy: Optional[str],
              m: Optional[int], cfg: BenchConfig) -> dict:
    cell = {
        "scheme": scheme_label(scheme, strategy),
        "strategy": strategy,
        "dataset": spec.name,
        "n": ds.n,
        "d": ds.dims,
        "m": m,
        "status": "ok",
        "reason": None,
    }
    try:
        if scheme == "grid-stats":
            grid_cfg = GridConfig(cfg.grid_splits_y, cfg.grid_multiplier_k, dims=ds.dims)
            t0 = time.perf_counter()
            grid = build_grid(ds, grid_cfg)
            elapsed = time.perf_counter() - t0
            cell["times_s"] = [elapsed]
            cell["median_time_s"] = elapsed
            cell["grid"] = grid_stats(grid).to_dict()
            return cell

        if scheme == "kdtree":
            build = lambda: kd_partition(ds, m, eps=cfg.eps)
        else:
            build = lambda: build_vtree(ds, m, fanout=cfg.fanout, strategy=strategy, eps=cfg.eps,
                                        seed=cfg.seed)
        result, times = _timed_builds(build, cfg.repetitions)
        median_time = statistics.median(times)
        assignment = result.assignment if scheme == "kdtree" else result.leaf_assignment
        metrics = compute_metrics(assignment)
        cell["times_s"] = times
        cell["median_time_s"] = median_time
        cell["metrics"] = {
            "sizes": list(metrics.sizes),
            "bias": metrics.bias,
            "size_cv": metrics.size_cv,
            "affected_count": metrics.affected_count,
        }
        cell["counters"] = {"scan_count": result.scan_count, "peak_alloc_mb": _peak_alloc_mb(build)}
    except GridFeasibilityError as e:
        cell["status"] = "failed"
        cell["reason"] = e.marker()
    except ValueError as e:
        cell["status"] = "failed"
        cell["reason"] = str(e)
    return cell


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Run every configured cell; per-cell failures are recorded, not raised."""
    datasets = [(spec, spec.materialize(cfg.seed)) for spec in cfg.datasets]
    plan = []
    for spec, ds in datasets:
        for scheme_spec in cfg.schemes:
            scheme, strategy = parse_scheme(scheme_spec)
            if scheme == "grid-stats":
                plan.append((spec, ds, scheme, strategy, None))
            else:
                for m in cfg.m_values:
                    plan.append((spec, ds, scheme, strategy, m))

    return BenchReport(
        environment=_environment(),
        config=cfg.to_dict(),
        cells=[_run_cell(*args, cfg) for args in plan],
        created=datetime.now(timezone.utc).isoformat(),
    )


def emit_report(report: BenchReport, format: str, path) -> None:
    """Write the report as JSON (full) or CSV (scheme rows by dataset columns)."""
    if format == "json":
        with open(path, "w", encoding="utf-8", newline="") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        return
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")

    dataset_names = [d["name"] for d in report.config["datasets"]]
    by_key: dict[tuple[str, Optional[int]], dict[str, str]] = {}
    row_order: list[tuple[str, Optional[int]]] = []
    for cell in report.cells:
        key = (cell["scheme"], cell["m"])
        if key not in by_key:
            by_key[key] = {}
            row_order.append(key)
        if cell["status"] == "ok":
            value = f"{cell['median_time_s']:.6f}"
        else:
            value = cell["reason"] or "FAILED"
        by_key[key][cell["dataset"]] = value
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("scheme,m," + ",".join(dataset_names) + "\n")
        for scheme, m in row_order:
            row = [scheme, "" if m is None else str(m)]
            row += [by_key[(scheme, m)].get(name, "") for name in dataset_names]
            f.write(",".join(row) + "\n")


def comparable_report(report_dict: dict) -> dict:
    """Strip times, memory peaks and timestamps so reports can be compared for reproducibility."""
    out = json.loads(json.dumps(report_dict))
    out.pop("created", None)
    out.pop("environment", None)
    for cell in out.get("cells", []):
        cell.pop("times_s", None)
        cell.pop("median_time_s", None)
        cell.get("counters", {}).pop("peak_alloc_mb", None)
    return out
