"""Command-line front end: generate graphs, compute metrics, verify bounds.

Commands
--------
- ``gen SPEC -o FILE``: write a family graph as an edge-list file
- ``metrics INPUT --vat --conductance --lambda2 ...``: compute metrics
  for one graph (a file path or a family spec string)
- ``verify ...``: run the inequality suite over a corpus selection and
  emit one report row per check
- ``corpus -o DIR``: materialize the standard test corpus as edge-list
  files plus a manifest

Exit codes: 0 success (for ``verify``: every non-skipped check holds),
1 verification failure, 2 usage or input error.

JSON and CSV outputs carry the same values; fractions appear as exact
numerator/denominator pairs plus a convenience decimal rounded to 12
significant digits (the exact fields are authoritative).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from itertools import chain
from typing import IO, Iterator, NoReturn

from . import corpus as corpus_mod
from .errors import VattolError
from .generators import _SPEC_USAGE, FamilySpec, parse_family_spec
from .graph import (
    Graph,
    read_edge_list_path,
    regularity,
    restrict_to_largest_component,
    write_edge_list,
    write_edge_list_path,
)
from .metrics import (
    alpha_beta_vat_exact,
    conductance_exact,
    vat_exact,
    weighted_vat_exact,
)
from .spectral import lambda2
from .verify import CHECK_GROUPS, _csv_line, _side_csv, _side_json, normalize_checks, write_reports

METRICS_CSV_COLUMNS = (
    "graph_id",
    "n",
    "m",
    "d",
    "metric",
    "parameters",
    "num",
    "den",
    "real",
    "witness",
)


def _load_input(text: str) -> tuple[str, Graph]:
    """Resolve a CLI input: an existing file path, else a family spec."""
    if os.path.exists(text):
        return text, read_edge_list_path(text)
    spec = parse_family_spec(text)
    return str(spec), spec.build()


def _open_out(path: str | None) -> contextlib.AbstractContextManager[IO[str]]:
    """The output to write in a ``with`` block; stdout is left open."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = parse_family_spec(args.spec)
    g = spec.build()
    with _open_out(args.output) as out:
        write_edge_list(g, out)
    d = regularity(g)
    print(f"n={g.n} m={g.m} d={'-' if d is None else d}", file=sys.stderr)
    return 0


def _decimal(x: float) -> str:
    """The decimal the exact engines read for ``x``, less a trailing ``.0``."""
    return repr(x).removesuffix(".0")


def _metric_rows(args: argparse.Namespace, g: Graph):
    """Yield (metric, parameters, value, witness_vertices) tuples."""
    if args.vat:
        r = vat_exact(g)
        yield "vat", "", r.value, r.witness_vertices
    if args.conductance:
        r = conductance_exact(g)
        yield "conductance", "", r.value, r.witness_vertices
    if args.lambda2:
        s = lambda2(g)
        yield "lambda2", "", s.lambda2, None
        yield "spectral_gap", "", s.gap, None
    if args.alpha_beta:
        alpha, beta = args.alpha_beta
        r = alpha_beta_vat_exact(g, alpha, beta)
        params = f"alpha={_decimal(alpha)} beta={_decimal(beta)}"
        yield "alpha_beta_vat", params, r.value, r.witness_vertices
    if args.weighted:
        r = weighted_vat_exact(g)
        yield "weighted_vat", "", r.value, r.witness_vertices


def _cmd_metrics(args: argparse.Namespace) -> int:
    graph_id, g = _load_input(args.input)
    restricted = False
    if args.restrict_lcc:
        before = g.n
        g = restrict_to_largest_component(g)
        restricted = g.n != before
    if not any([args.vat, args.conductance, args.lambda2, args.alpha_beta, args.weighted]):
        args.vat = args.conductance = True
    rows = list(_metric_rows(args, g))
    d = regularity(g)
    # Render everything before opening the output, so an error leaves it empty.
    if args.format == "json":
        record: dict = {
            "graph_id": graph_id,
            "n": g.n,
            "m": g.m,
            "d": d,
            "restricted_to_largest_component": restricted,
        }
        for metric, params, value, witness in rows:
            entry = _side_json(value)
            if witness is not None:
                entry["witness"] = witness
            if params:
                entry["parameters"] = params
            record[metric] = entry
        text = json.dumps(record, indent=2) + "\n"
    else:
        text = _csv_line(METRICS_CSV_COLUMNS) + "".join(
            _csv_line(
                [
                    graph_id,
                    str(g.n),
                    str(g.m),
                    "" if d is None else str(d),
                    metric,
                    params,
                    *_side_csv(value),
                    "" if witness is None else " ".join(map(str, witness)),
                ]
            )
            for metric, params, value, witness in rows
        )
    with _open_out(args.output) as out:
        out.write(text)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'A..B' or 'A', got {text!r}") from None


def _verify_selection(args: argparse.Namespace) -> Iterator[tuple[str, Graph]]:
    """The graphs of a verify selection, in order; a bad selection raises
    here, before any output is opened.

    The corpora and the ``--family`` members stream; ``--spec`` graphs
    are built and ``--files`` read up front, and
    :func:`corpus.exhaustive_members` checks its bounds at the call.  A
    ``--family`` takes at most one integer, its field count in
    ``_SPEC_USAGE``; each such family builds on an interval of it, so the
    two ends of ``--n`` decide whether every member builds.
    """
    if not (args.corpus or args.family or args.spec or args.exhaustive or args.files):
        raise VattolError(
            "empty selection: use --corpus, --family/--n, --spec, "
            "--exhaustive or --files"
        )
    families = args.family or ()
    for family in families:
        usage = _SPEC_USAGE.get(family)
        if usage is None or usage[1] > 1:
            raise VattolError(f"--family {family} takes no single integer; use --spec")
        if usage[1]:
            if args.n is None or args.n[0] > args.n[1]:
                raise VattolError(f"--family {family} needs --n A..B with A <= B")
            for end in args.n:
                FamilySpec(family, (end,)).build()
    if args.n is not None and not any(_SPEC_USAGE[f][1] for f in families):
        raise VattolError("--n needs a --family that takes one integer")
    if args.seed is not None and args.corpus != "theorem":
        raise VattolError("--seed needs --corpus theorem")
    ints = range(args.n[0], args.n[1] + 1) if args.n else ()
    members = (  # zip(ints) yields the one-integer parameter tuples lazily
        FamilySpec(family, params)
        for family in families
        for params in (zip(ints) if _SPEC_USAGE[family][1] else [()])
    )
    specs = [(str(s), s.build()) for s in map(parse_family_spec, args.spec or ())]
    if args.corpus == "theorem":
        corpus = corpus_mod.theorem_corpus(base_seed=42 if args.seed is None else args.seed)
    else:
        corpus = corpus_mod.standard_corpus() if args.corpus else ()
    return chain(
        corpus,
        ((str(spec), spec.build()) for spec in members),
        specs,
        corpus_mod.exhaustive_members(*args.exhaustive) if args.exhaustive else (),
        [(path, read_edge_list_path(path)) for path in args.files or ()],
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    graphs = _verify_selection(args)
    checks = normalize_checks(args.checks)  # a bad --checks opens no output
    with _open_out(args.output) as out:
        summary = write_reports(graphs, checks, args.jobs, args.format, out)
    sys.stderr.write(summary.lines())
    return 1 if summary.failed else 0


def _safe_name(graph_id: str) -> str:
    return graph_id.translate(str.maketrans(":,=+", "-_--"))


def _cmd_corpus(args: argparse.Namespace) -> int:
    os.makedirs(args.output, exist_ok=True)
    manifest_path = os.path.join(args.output, "manifest.csv")
    with open(manifest_path, "w", encoding="utf-8") as mf:
        mf.write(_csv_line(["id", "file", "n", "m", "d"]))
        for graph_id, g in corpus_mod.standard_corpus():
            fname = _safe_name(graph_id) + ".edges"
            write_edge_list_path(g, os.path.join(args.output, fname))
            d = regularity(g)
            mf.write(_csv_line([graph_id, fname, g.n, g.m, "" if d is None else d]))
    print(f"corpus written to {args.output}", file=sys.stderr)
    return 0


def _alpha_beta(text: str) -> tuple[float, float]:
    try:
        alpha, beta = text.split(",")
        return float(alpha), float(beta)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'alpha,beta', got {text!r}"
        ) from None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error:`` line, exit 2.

    Subparsers are built with the same class.
    """

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vattol",
        description="Exact graph resilience metrics and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a family graph as an edge list")
    p_gen.add_argument("spec", help="family spec, e.g. cycle:6 or random_regular:20,3,seed=42")
    p_gen.add_argument("-o", "--output", help="output file (default or '-': stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_met = sub.add_parser("metrics", help="compute metrics for one graph")
    p_met.add_argument("input", help="edge-list file or family spec string")
    p_met.add_argument("--vat", action="store_true")
    p_met.add_argument("--conductance", action="store_true")
    p_met.add_argument("--lambda2", action="store_true")
    p_met.add_argument("--alpha-beta", type=_alpha_beta, metavar="A,B")
    p_met.add_argument("--weighted", action="store_true")
    p_met.add_argument(
        "--restrict-lcc",
        action="store_true",
        help="restrict a disconnected input to its largest component",
    )
    p_met.add_argument("--format", choices=("json", "csv"), default="json")
    p_met.add_argument("-o", "--output")
    p_met.set_defaults(func=_cmd_metrics)

    p_ver = sub.add_parser("verify", help="run the bound-verification suite")
    p_ver.add_argument("--corpus", choices=("standard", "theorem"))
    p_ver.add_argument("--family", action="append", help="family name; repeatable")
    p_ver.add_argument("--n", type=_parse_range, help="family parameter range A..B")
    p_ver.add_argument("--spec", action="append", help="family spec string; repeatable")
    p_ver.add_argument(
        "--exhaustive",
        nargs=2,
        type=int,
        metavar=("N", "D"),
        help="all labeled connected d-regular graphs on n vertices",
    )
    p_ver.add_argument("--files", nargs="+", help="edge-list files")
    p_ver.add_argument(
        "--checks",
        default="all",
        help=f"comma list of check groups (default all): {', '.join(CHECK_GROUPS)}",
    )
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--format", choices=("json", "csv"), default="csv")
    p_ver.add_argument("--seed", type=int, help="base seed of the theorem corpus (default 42)")
    p_ver.add_argument("-o", "--output")
    p_ver.set_defaults(func=_cmd_verify)

    p_cor = sub.add_parser("corpus", help="materialize the standard corpus")
    p_cor.add_argument("-o", "--output", required=True, help="output directory")
    p_cor.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VattolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
