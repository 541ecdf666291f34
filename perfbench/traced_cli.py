"""Run one ``spacepart`` CLI command with a span around each call it makes into a layer.

Usage: python3 traced_cli.py SPANS_JSONL SPAWN_TIME -- <spacepart arguments>

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started this
process, so the first span covers interpreter start plus ``import
spacepart.cli``. The wrappers replace the names the CLI module imported from
the other modules, so they time each public call from outside without
touching the program. Spans are written to SPANS_JSONL when the command ends.
"""

import sys
import time


def main() -> int:
    span_path, spawn = sys.argv[1], float(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1 :]
    import spacepart.cli as cli

    imported = time.perf_counter()
    import json
    import os

    spans = [{"name": "cli.import", "start": spawn, "end": imported, "counts": {}}]

    compute_metrics = cli.compute_metrics

    count_of = {
        "load_dataset": lambda args, out: {"bytes_read": os.path.getsize(args[0])},
        "kd_partition": lambda args, out: {"scan_count": out.scan_count},
        "build_vtree": lambda args, out: {
            "scan_count": out.scan_count,
            "levels": out.levels,
            "empty_leaves": sum(1 for s in compute_metrics(out.leaf_assignment).sizes if s == 0),
        },
        "kd_tree_to_json": lambda args, out: {"json_bytes": len(out.encode())},
        "vtree_to_json": lambda args, out: {"json_bytes": len(out.encode())},
        "write_assignment_csv": lambda args, out: {"csv_bytes": os.path.getsize(args[1])},
        "compute_metrics": lambda args, out: {},
        "build_grid": lambda args, out: {},
        "grid_stats": lambda args, out: {"occupied_fraction": out.occupied_fraction},
    }

    def wrap(fn, counts):
        layer = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            end = time.perf_counter()
            spans.append({"name": layer, "start": start, "end": end, "counts": counts(args, out)})
            return out

        return traced

    for attr, counts in count_of.items():
        fn = getattr(cli, attr, None)
        if fn is not None:
            setattr(cli, attr, wrap(fn, counts))
    try:
        return cli.main(argv)
    finally:
        with open(span_path, "w", encoding="utf-8") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")


if __name__ == "__main__":
    sys.exit(main())
