"""Command-line front end.

Subcommands: ``analyze`` (flowchart-driven analysis of a components CSV),
``extract`` (time series to components), ``simulate`` (named simulation
presets or a JSON spec), ``power`` (rate tables over d and N grids) and
``cluster`` (permutation cluster correction over per-node files).

Exit codes: 0 success; otherwise the ``exit_code`` that the raised
``PhasorStatsError`` declares (2 input error, 3 statistical preconditions
unmet), and 2 for an unreadable file or a bad argument.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, clusters
from .clusters import AdjacencyGraph, cluster_correct
from .data import Design, GroupedDataset
from .distributions import ConditionIndexDistribution
from .exceptions import MalformedInput
from .ingest import (
    build_dataset,
    read_components_csv,
    read_timeseries_csv,
    write_components_csv,
    write_csv,
)
from .outliers import DEFAULT_THRESHOLD
from .report import format_text, run_flowchart
from .simulate import (
    RateTable,
    SimulationSpec,
    simulate_amplitude_skew,
    simulate_ci_distribution,
    simulate_grid,
    simulate_rates,
)

EXIT_OK = 0
EXIT_INPUT = 2

_DESIGNS = {
    "one-sample": Design.ONE_SAMPLE,
    "two-sample": Design.TWO_SAMPLE_INDEPENDENT,
    "paired": Design.PAIRED,
    "oneway": Design.ONEWAY_INDEPENDENT,
    "oneway-rm": Design.ONEWAY_REPEATED,
}

_DEFAULT_REPS = SimulationSpec.n_reps

_D_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
_N_GRID = (4, 8, 16, 32, 64)


# argparse type callables: a bad value exits 2 before any file is read
def _parse_mu(text: str) -> complex:
    try:
        real, imag = (float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects two numbers 'RE,IM', got {text!r}") from None
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return complex(real, imag)


def _checked(convert, valid, what: str):
    def parse(text: str):
        value = convert(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # "invalid float value: 'x'"
    return parse


_probability = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_positive = _checked(float, lambda v: v > 0.0, "positive")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")


def _parse_list(text: str, option: str, convert=float, what="numbers") -> list:
    try:
        return [convert(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise MalformedInput(f"{option} expects comma-separated {what}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read_dataset(args) -> tuple[GroupedDataset, str]:
    """The input's dataset and the SHA-256 of the bytes it was built from,
    from one read of the file."""
    with open(args.input, "rb") as f:
        data = f.read()
    rows = read_components_csv(args.input, data)
    dataset = build_dataset(rows, _DESIGNS[args.design], args.mu)
    return dataset, hashlib.sha256(data).hexdigest()


def _cmd_analyze(args) -> int:
    dataset, sha = _read_dataset(args)
    report = run_flowchart(
        dataset,
        alpha=args.alpha,
        seed=args.seed,
        baseline=args.baseline,
        screen_outliers=not args.no_outlier_screen,
        outlier_threshold=args.threshold,
        input_sha256=sha,
    )
    text = report.to_json() if args.format == "json" else format_text(report)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_extract(args) -> int:
    rows = read_timeseries_csv(args.input)
    _emit(write_components_csv(rows), args.out)
    return EXIT_OK


def _rate_grid(spec: dict, reps: int, seed: int, **grid) -> RateTable:
    return simulate_grid(SimulationSpec(**spec, n_reps=reps, seed=seed), **grid)


def _fig2(reps: int, seed: int):
    rows = [(d, simulate_amplitude_skew(d, reps, seed)[1], reps, seed)
            for d in _D_GRID]
    return ["d", "skewness", "n_reps", "seed"], rows


def _fig5a(reps: int, seed: int):
    n = 4
    cis = np.sort(simulate_ci_distribution(n, reps, seed))
    xs = np.linspace(1.0, 20.0, 96)
    columns = (
        xs,
        ConditionIndexDistribution(n, "edelman").pdf(xs),
        ConditionIndexDistribution(n, "modified").pdf(xs),
        np.searchsorted(cis, xs, side="right") / cis.size,  # empirical cdf
    )
    rows = zip(*(c.tolist() for c in columns))
    return ["x", "pdf_edelman", "pdf_modified", "empirical_cdf"], rows


def _fig5b(reps: int, seed: int):
    rows = [
        (n,
         ConditionIndexDistribution(n, "edelman").quantile(0.95),
         ConditionIndexDistribution(n, "modified").quantile(0.95),
         float(np.quantile(simulate_ci_distribution(n, reps, seed), 0.95)))
        for n in _N_GRID
    ]
    return ["n", "threshold_edelman", "threshold_modified", "empirical_p95"], rows


_T2_PAIR = ["T2", "T2circ"]

#: Each preset: a function of (reps, seed) that returns a RateTable (the
#: partials of `_rate_grid`, which also take --json) or a (header, rows)
#: table for `write_csv`.
_PRESETS = {
    "fig2": _fig2,
    "fig3": partial(_rate_grid, {"test": "T2"}, tests=_T2_PAIR,
                    d_values=_D_GRID, n_values=_N_GRID),
    "fig4a": partial(_rate_grid, {"test": "T2"}, tests=_T2_PAIR,
                     correlation_values=[-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9]),
    "fig4b": partial(_rate_grid, {"test": "T2"}, tests=_T2_PAIR,
                     variance_ratio_values=[0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]),
    "fig5a": _fig5a,
    "fig5b": _fig5b,
    "fig6": partial(_rate_grid, {"test": "ANOVA2circ", "k": 3},
                    tests=["ANOVA2circ", "MANOVA"], d_values=_D_GRID,
                    n_values=_N_GRID),
    "outliers": partial(_rate_grid, {"test": "CI_test", "n": 16},
                        n_values=[8, 16, 32],
                        outlier_values=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
}
PRESETS = tuple(_PRESETS)
_JSON_PRESETS = tuple(name for name, run in _PRESETS.items()
                      if isinstance(run, partial))


def _cmd_simulate(args) -> int:
    name = args.preset
    if name in _PRESETS:
        if args.json and name not in _JSON_PRESETS:
            raise MalformedInput(
                f"preset {name!r} writes CSV only; --json is for the "
                f"rate-table presets ({', '.join(_JSON_PRESETS)})")
        reps = _DEFAULT_REPS if args.reps is None else args.reps
        seed = 0 if args.seed is None else args.seed
        table = _PRESETS[name](reps, seed)
        if not isinstance(table, RateTable):
            _emit(write_csv(*table), args.out)
            return EXIT_OK
    else:  # a JSON spec file
        try:
            payload = json.loads(Path(name).read_text())
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"{name}: not valid JSON ({exc})") from None
        # --reps and --seed override the file; absent from both, the
        # SimulationSpec defaults apply, which are the flags' defaults
        given = {k: v for k, v in (("n_reps", args.reps), ("seed", args.seed))
                 if v is not None}
        try:
            spec = SimulationSpec(**{**payload, **given})
        except TypeError as exc:
            raise MalformedInput(f"{name}: bad spec field ({exc})") from None
        table = simulate_rates(spec)
    _emit(table.to_json() if args.json else table.to_csv(), args.out)
    return EXIT_OK


def _cmd_power(args) -> int:
    base = SimulationSpec(
        test=args.test, k=args.k, n_reps=args.reps, seed=args.seed,
        alpha=args.alpha,
    )
    table = simulate_grid(
        base,
        d_values=_parse_list(args.d, "--d"),
        n_values=_parse_list(args.n, "--n", int, "integers"),
    )
    _emit(table.to_json() if args.json else table.to_csv(), args.out)
    return EXIT_OK


def _cmd_cluster(args) -> int:
    design = _DESIGNS[args.design]
    datasets = [
        build_dataset(read_components_csv(path), design, args.mu)
        for path in args.nodes
    ]
    graph = AdjacencyGraph.from_edge_list(args.edges, len(datasets))
    result = cluster_correct(
        datasets,
        graph,
        test=args.test,
        alpha_forming=args.alpha_forming,
        n_perm=args.perms,
        seed=args.seed,
    )
    _emit(result.to_json(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasorstats",
        description="Multivariate tests for complex Fourier components.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="flowchart-driven analysis of a CSV")
    p.add_argument("input")
    p.add_argument("--design", required=True, choices=sorted(_DESIGNS))
    p.add_argument("--mu", type=_parse_mu, default="0,0",
                   help="comparison point RE,IM")
    p.add_argument("--alpha", type=_probability, default=0.05)
    p.add_argument("--baseline", default=None,
                   help="restrict post-hoc tests to baseline vs the rest")
    p.add_argument("--no-outlier-screen", action="store_true")
    p.add_argument("--threshold", type=_positive, default=DEFAULT_THRESHOLD,
                   help="Mahalanobis outlier threshold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("extract", help="time series CSV to components CSV")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser(
        "simulate",
        help=f"run a named preset ({', '.join(PRESETS)}) or a JSON spec file",
    )
    p.add_argument("preset")
    p.add_argument("--reps", type=int, default=None,
                   help=f"default {_DEFAULT_REPS}")
    p.add_argument("--seed", type=int, default=None, help="default 0")
    p.add_argument("--json", action="store_true", help="emit JSON, not CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("power", help="rejection rates over d and N grids")
    p.add_argument("--test", default="T2circ",
                   choices=["T2", "T2circ", "ANOVA2circ", "MANOVA"])
    p.add_argument("--d", default=",".join(map(str, _D_GRID)))
    p.add_argument("--n", default=",".join(map(str, _N_GRID)))
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=_DEFAULT_REPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("cluster", help="permutation cluster correction")
    p.add_argument("nodes", nargs="+", help="one components CSV per node")
    p.add_argument("--edges", required=True, help="edge list file, 'i j' rows")
    p.add_argument("--design", required=True, choices=[
        name for name, design in _DESIGNS.items() if design in clusters.DESIGNS])
    p.add_argument("--mu", type=_parse_mu, default="0,0")
    p.add_argument("--test", default="T2circ", choices=clusters.TESTS)
    p.add_argument("--alpha-forming", type=_probability, default=0.05)
    p.add_argument("--perms", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cluster)

    return parser


#: The parser of `main`, built on its first call; parsing leaves it as it
#: was. Only a process that calls `main` more than once (the test suite,
#: the scripts, a loop of in-process analyses) saves its build; the console
#: script calls `main` once.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # argparse set-up costs about a millisecond a build
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # PhasorStatsError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_INPUT)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
