"""Command-line entry point: gen, partition, bench, render, grid-stats.

Exit codes: 0 success, 1 usage error, 2 runtime failure (bad files, grid
feasibility refusals). Every run echoes its full effective configuration,
including defaulted seeds, so any invocation can be reproduced from its
output. Each command imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import spacepart

from .core import (
    STRATEGY_KINDS,
    compute_metrics,
    generate_gaussian_mixture,
    generate_uniform,
    read_assignment_csv,
    write_assignment_csv,
)
from .dataio import DatasetFormatError, load_dataset, save_dataset


def __getattr__(name: str):
    """Bind one of the package's exported names here on first use (PEP 562).

    So each command imports only the modules it runs, and from outside the
    name looks like the imports above: perfbench/traced_cli.py looks it up and
    replaces it with a timed wrapper. The commands call it as ``_cli.<name>``,
    which reads this module's binding, so that a replacement is what runs.
    """
    if name not in spacepart.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(spacepart, name)
    return value


_cli = sys.modules[__name__]

__all__ = ["main", "entrypoint"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; this tool reserves 2 for
    # runtime failures, so parser errors are rethrown and mapped to exit 1.
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _comma_list(check):
    """An argparse ``type`` that checks each item of a comma list: a bad one is a usage error naming it."""

    def parse(text: str) -> str:
        for token in (t.strip() for t in text.split(",")):
            try:
                check(token)
            except ValueError as e:
                raise argparse.ArgumentTypeError(f"bad item {token!r}: {e}") from None
        return text

    return parse


def _count(token: str) -> None:
    if not (token.isdecimal() and int(token) > 0):
        raise ValueError("expected a positive integer")


def _size(token: str) -> None:
    n, _, d = token.lower().partition("x")
    if not (n.isdecimal() and d.isdecimal() and int(n) > 0 and int(d) > 0):
        raise ValueError("expected <n>x<d> with positive n and d")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spacepart", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset", add_help=True)
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--uniform", action="store_true", help="i.i.d. uniform coordinates")
    kind.add_argument("--mixture", action="store_true", help="Gaussian mixture around uniform centers")
    gen.add_argument("-n", type=int, required=True, help="number of points")
    gen.add_argument("-d", type=int, required=True, help="dimensionality")
    gen.add_argument("--lo", type=float, default=0.0)
    gen.add_argument("--hi", type=float, default=100.0)
    gen.add_argument("--clusters", type=int, default=8, help="mixture cluster count")
    gen.add_argument("--spread", type=float, default=5.0, help="mixture noise stddev")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--data-format", choices=("binary", "csv"), default=None,
                     help="override the suffix-based output format")
    gen.add_argument("--header", action="store_true", help="write a CSV header row")

    part = sub.add_parser("partition", help="partition a dataset with one scheme")
    part.add_argument("--scheme", choices=("kdtree", "vtree"), default="vtree")
    part.add_argument("--seeding", choices=STRATEGY_KINDS, default="kmeanspp")
    part.add_argument("--fanout", type=int, default=2)
    part.add_argument("-m", type=int, default=8, help="partition count")
    part.add_argument("--eps", type=float, default=0.0)
    part.add_argument("--seed", type=int, default=0)
    part.add_argument("-i", "--input", required=True)
    part.add_argument("-o", "--output", default=None, help="output prefix (default: input stem)")
    part.add_argument("--input-format", choices=("binary", "csv"), default=None,
                    help="override magic-byte auto-detection")
    part.add_argument("--header", action="store_true", help="input CSV has a header row")
    part.add_argument("--id-column", type=int, default=None, help="input CSV column holding point ids")

    bench = sub.add_parser("bench", help="run the benchmark grid and emit reports")
    bench.add_argument("--datasets", type=_comma_list(_size), default=None,
                       help="comma list like 1500x1024,4000x1024 (default: the standard grid)")
    bench.add_argument("--data", choices=("uniform", "mixture"), default="mixture")
    bench.add_argument("--schemes", type=_comma_list(lambda token: _cli.parse_scheme(token)),
                       default="kdtree,vtree:kmeanspp,vtree:median",
                       help="comma list of kdtree, vtree:<strategy>, grid-stats")
    bench.add_argument("-m", type=_comma_list(_count), default="8", help="comma list of partition counts")
    bench.add_argument("--eps", type=float, default=0.0)
    bench.add_argument("--fanout", type=int, default=2)
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--grid-y", type=int, default=2)
    bench.add_argument("--grid-k", type=int, default=1)
    bench.add_argument("--large", action="store_true", help="include the 40000x1024 cell")
    bench.add_argument("--format", choices=("json", "csv"), default="json")
    bench.add_argument("-o", "--output", default="bench_out", help="output directory")

    render = sub.add_parser("render", help="render a 2-D dataset + assignment to SVG")
    render.add_argument("-i", "--input", required=True)
    render.add_argument("-a", "--assignment", required=True)
    render.add_argument("-o", "--output", required=True)
    render.add_argument("--input-format", choices=("binary", "csv"), default=None,
                    help="override magic-byte auto-detection")
    render.add_argument("--header", action="store_true")
    render.add_argument("--id-column", type=int, default=None)

    gstats = sub.add_parser("grid-stats", help="build a grid index and report occupancy")
    gstats.add_argument("-i", "--input", required=True)
    gstats.add_argument("-y", type=int, required=True, help="splits per dimension")
    gstats.add_argument("-k", type=int, default=1, help="split multiplier")
    gstats.add_argument("--cap", type=int, default=2**24, help="maximum total cube count")
    gstats.add_argument("-o", "--output", default=None, help="also write the JSON here")
    gstats.add_argument("--input-format", choices=("binary", "csv"), default=None,
                    help="override magic-byte auto-detection")
    gstats.add_argument("--header", action="store_true")
    gstats.add_argument("--id-column", type=int, default=None)

    return parser


def _echo_config(command: str, args: argparse.Namespace, skip=("command",)) -> None:
    pairs = " ".join(f"--{k.replace('_', '-')}={v}" for k, v in sorted(vars(args).items()) if k not in skip)
    print(f"# spacepart {command} {pairs}")


def _cmd_gen(args) -> int:
    if args.uniform:
        ds = generate_uniform(args.n, args.d, lo=args.lo, hi=args.hi, seed=args.seed)
    else:
        ds = generate_gaussian_mixture(args.n, args.d, k=args.clusters, spread=args.spread, seed=args.seed)
    save_dataset(ds, args.output, format=args.data_format, header=args.header)
    print(f"wrote {ds.n} x {ds.dims} dataset to {args.output}")
    return 0


def _cmd_partition(args) -> int:
    ds = load_dataset(args.input, format=args.input_format, header=args.header, id_column=args.id_column)
    if args.scheme == "kdtree":
        tree = _cli.kd_partition(ds, args.m, eps=args.eps)
        assignment, tree_json = tree.assignment, _cli.kd_tree_to_json(tree)
    else:
        tree = _cli.build_vtree(ds, args.m, fanout=args.fanout, strategy=args.seeding,
                                eps=args.eps, seed=args.seed)
        assignment, tree_json = tree.leaf_assignment, _cli.vtree_to_json(tree)
    prefix = args.output or str(Path(args.input).with_suffix(""))
    csv_path = f"{prefix}.assignment.csv"
    json_path = f"{prefix}.tree.json"
    write_assignment_csv(assignment, csv_path)
    with open(json_path, "w", encoding="utf-8") as f:
        f.write(tree_json + "\n")
    metrics = compute_metrics(assignment)
    print(f"wrote {csv_path} and {json_path}")
    print(f"sizes={list(metrics.sizes)} bias={metrics.bias:.4f} affected={metrics.affected_count}")
    return 0


def _cmd_bench(args) -> int:
    if args.datasets:
        specs = []
        for token in args.datasets.split(","):
            n, d = token.lower().split("x")
            specs.append(_cli.DatasetSpec(name=token.strip(), n=int(n), d=int(d), kind=args.data))
        datasets = tuple(specs)
    else:
        datasets = _cli.standard_grid(include_large=args.large, kind=args.data)
    cfg = _cli.BenchConfig(
        datasets=datasets,
        schemes=tuple(s.strip() for s in args.schemes.split(",")),
        m_values=tuple(int(tok) for tok in str(args.m).split(",")),
        eps=args.eps,
        fanout=args.fanout,
        repetitions=args.reps,
        seed=args.seed,
        grid_splits_y=args.grid_y,
        grid_multiplier_k=args.grid_k,
    )
    report = _cli.run_benchmark(cfg)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"report.{args.format}"
    _cli.emit_report(report, args.format, path)
    print(f"wrote {path}")
    for cell in report.cells:
        t = f"{cell['median_time_s']:.4f}s" if cell["status"] == "ok" else cell["reason"]
        m = "" if cell["m"] is None else f" m={cell['m']}"
        print(f"  {cell['scheme']:18s} {cell['dataset']:12s}{m}: {t}")
    return 0


def _cmd_render(args) -> int:
    ds = load_dataset(args.input, format=args.input_format, header=args.header, id_column=args.id_column)
    assignment = read_assignment_csv(args.assignment)
    _cli.render_2d(ds, assignment, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_grid_stats(args) -> int:
    ds = load_dataset(args.input, format=args.input_format, header=args.header, id_column=args.id_column)
    cfg = _cli.GridConfig(args.y, args.k, dims=ds.dims, cube_cap=args.cap)
    stats = _cli.grid_stats(_cli.build_grid(ds, cfg))
    text = stats.to_json()
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "partition": _cmd_partition,
    "bench": _cmd_bench,
    "render": _cmd_render,
    "grid-stats": _cmd_grid_stats,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(e, file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse exits itself for -h/--help
        return int(e.code or 0)
    _echo_config(args.command, args)
    try:
        return _COMMANDS[args.command](args)
    except (DatasetFormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
