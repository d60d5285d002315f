"""Command-line front end.

Subcommands::

    count-drawings m n
    enumerate m n [--emit json]
    construct {balanced k | blowup k n | block-cyclic m n k | riskin m n} [-o FILE]
    crossings FILE              (FILE = '-' reads stdin)
    verify-pagenumber m n k [--budget N] [--export-cnf DIR] [--jobs J] [--log FILE]
    bounds k [m] n [--scan]
    oracle m n k
    render FILE -o OUT.svg

Exit codes: 0 success / proven, 1 refuted, 2 inconclusive (budget),
64 usage error, 65 malformed or unreadable input file or unwritable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path

from . import bounds as bounds_mod
from .coloring import (
    BUDGET_EXCEEDED,
    COLORABLE,
    DEFAULT_NODE_BUDGET,
    NOT_COLORABLE,
    PROVEN,
    REFUTED,
    LayoutLog,
    conflict_graph,
    export_cnf,
    verify_positive_crossing,
)
from .constructions import balanced_embedding, block_cyclic, blowup, riskin_drawing
from .drawings import DrawingFormatError, count_crossings, from_json, to_json
from .enumeration import count_formula, layout_from_string, necklace_classes
from .oracle import DEFAULT_LIMITS, OracleLimits, OracleLimitError, brute_force_run
from .render import RenderSpec, render_svg

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class LogFormatError(ValueError):
    """A ``--log`` file that is malformed or belongs to another (m, n, k)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bookcross", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("count-drawings", help="closed-form count of distinct circular layouts")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("enumerate", help="list canonical layout strings, one per orbit")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--emit", choices=["lines", "json"], default="lines")

    p = sub.add_parser("construct", help="emit a drawing as JSON")
    kind = p.add_subparsers(dest="family", required=True, parser_class=_Parser)
    q = kind.add_parser("balanced")
    q.add_argument("k", type=int)
    q = kind.add_parser("blowup")
    q.add_argument("k", type=int)
    q.add_argument("n", type=int)
    q = kind.add_parser("block-cyclic")
    q.add_argument("m", type=int)
    q.add_argument("n", type=int)
    q.add_argument("k", type=int)
    q = kind.add_parser("riskin")
    q.add_argument("m", type=int)
    q.add_argument("n", type=int)
    for q in kind.choices.values():
        q.add_argument("-o", "--output", default="-", help="output file (default stdout)")

    p = sub.add_parser("crossings", help="crossing report of a drawing JSON file")
    p.add_argument("file", help="path or '-' for stdin")

    p = sub.add_parser("verify-pagenumber", help="prove or refute that every k-page drawing crosses")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="search nodes per layout")
    p.add_argument("--export-cnf", metavar="DIR", help="also write one DIMACS file per layout")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="parallel layout checks")
    p.add_argument("--log", metavar="FILE", help="JSONL per-layout log; not_colorable layouts are skipped on rerun")

    p = sub.add_parser("bounds", help="bound table for K_{k+1,n} (2 args) or K_{m,n} (3 args)")
    p.add_argument("params", type=int, nargs="+", metavar="K [M] N")
    p.add_argument("--scan", action="store_true", help="consistency scan over 1..n instead of a table")

    p = sub.add_parser("oracle", help="brute-force minimum crossings on a tiny instance")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--max-vertices", type=int, default=DEFAULT_LIMITS.max_vertices)
    p.add_argument("--max-pages", type=int, default=DEFAULT_LIMITS.max_pages)
    p.add_argument("--node-budget", type=int, default=DEFAULT_LIMITS.node_budget)

    p = sub.add_parser("render", help="render a drawing JSON file to SVG")
    p.add_argument("file", help="path or '-' for stdin")
    p.add_argument("-o", "--output", required=True)

    return parser


def _read_drawing(path: str):
    return from_json(sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8"))


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_count_drawings(args) -> int:
    print(count_formula(args.m, args.n))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    strings = [cls.canonical for cls in necklace_classes(args.m, args.n)]
    if args.emit == "json":
        print(json.dumps(strings))
    else:
        for s in strings:
            print(s)
    return EXIT_OK


def _cmd_construct(args) -> int:
    uneven = False
    if args.family == "balanced":
        drawing = balanced_embedding(args.k)
    elif args.family == "blowup":
        drawing = blowup(balanced_embedding(args.k), args.n)
    elif args.family == "block-cyclic":
        drawing = block_cyclic(args.m, args.n, args.k)
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            drawing = riskin_drawing(args.m, args.n)
        uneven = bool(caught)
    if uneven:
        print("note: uneven distribution (m does not divide n); optimality not guaranteed", file=sys.stderr)
    _write_text(args.output, to_json(drawing) + "\n")
    return EXIT_OK


def _cmd_crossings(args) -> int:
    drawing = _read_drawing(args.file)
    report = count_crossings(drawing)
    print(f"total {report.total}")
    for p, c in enumerate(report.per_page):
        print(f"page {p}: {c}")
    return EXIT_OK


def _load_log(path: str, m: int, n: int, k: int) -> dict[str, LayoutLog]:
    """Every record of a ``--log`` file written for the same (m, n, k).

    Which records are final is ``verify_positive_crossing``'s decision: it
    reuses the ``not_colorable`` ones and checks every other layout again.
    """
    done: dict[str, LayoutLog] = {}
    if not os.path.exists(path):
        return done
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                run = (entry["m"], entry["n"], entry["k"])
                log = LayoutLog(
                    str(entry["canonical_string"]),
                    entry["verdict"],
                    int(entry["nodes"]),
                    float(entry["millis"]),
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise LogFormatError(f"{path}:{lineno}: not a log record ({exc!r})") from exc
            if run != (m, n, k):
                raise LogFormatError(f"{path}:{lineno}: record is for (m, n, k) = {run}, not {(m, n, k)}")
            if log.verdict not in (COLORABLE, NOT_COLORABLE, BUDGET_EXCEEDED):
                raise LogFormatError(f"{path}:{lineno}: unknown verdict {log.verdict!r}")
            done[log.canonical] = log
    return done


def _cmd_verify(args) -> int:
    completed = _load_log(args.log, args.m, args.n, args.k) if args.log else {}
    result = verify_positive_crossing(
        args.m, args.n, args.k, budget=args.budget, jobs=args.jobs, completed=completed
    )
    with open(args.log, "w", encoding="utf-8") if args.log else nullcontext() as log_fh:
        for log in result.logs:
            line = json.dumps({"m": args.m, "n": args.n, "k": args.k, **log.to_dict()})
            print(line)
            if log_fh:
                log_fh.write(line + "\n")
    if args.export_cnf:
        os.makedirs(args.export_cnf, exist_ok=True)
        for log in result.logs:
            g = conflict_graph(layout_from_string(log.canonical))
            name = os.path.join(args.export_cnf, f"layout_{log.canonical}_k{args.k}.cnf")
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(export_cnf(g, args.k))
    if result.status == PROVEN:
        print(f"proven: every {args.k}-page drawing of K_{{{args.m},{args.n}}} has a crossing")
        return EXIT_OK
    if result.status == REFUTED:
        print(f"refuted: K_{{{args.m},{args.n}}} embeds in {args.k} pages")
        print(to_json(result.witness))
        return EXIT_REFUTED
    print(f"inconclusive: budget exhausted on {len(result.unfinished)} layout(s)")
    for s in result.unfinished:
        print(f"unfinished {s}")
    return EXIT_INCONCLUSIVE


def _cmd_bounds(args) -> int:
    params = args.params
    if len(params) == 2:
        k, n = params
        m = k + 1
    elif len(params) == 3:
        k, m, n = params
    else:
        print("bounds expects 2 or 3 integers: K N or K M N", file=sys.stderr)
        return EXIT_USAGE
    if args.scan:
        report = bounds_mod.consistency_scan([k], range(1, n + 1))
        print(
            json.dumps(
                {
                    "rows": [row.to_dict() for row in report.rows],
                    "violations": [v.to_dict() for v in report.violations],
                }
            )
        )
        return EXIT_OK
    rows = bounds_mod.family_rows(k, n) if m == k + 1 else bounds_mod.general_rows(k, m, n)
    print(json.dumps([row.to_dict() for row in rows]))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    limits = OracleLimits(args.max_vertices, args.max_pages, args.node_budget)
    run = brute_force_run(args.m, args.n, args.k, limits)
    print(json.dumps(run.to_dict()))
    return EXIT_OK


def _cmd_render(args) -> int:
    drawing = _read_drawing(args.file)
    _write_text(args.output, render_svg(drawing, RenderSpec()))
    return EXIT_OK


_HANDLERS = {
    "count-drawings": _cmd_count_drawings,
    "enumerate": _cmd_enumerate,
    "construct": _cmd_construct,
    "crossings": _cmd_crossings,
    "verify-pagenumber": _cmd_verify,
    "bounds": _cmd_bounds,
    "oracle": _cmd_oracle,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except DrawingFormatError as exc:
        print(f"malformed drawing file: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"cannot access {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_DATA
    except LogFormatError as exc:
        print(f"malformed log file: {exc}", file=sys.stderr)
        return EXIT_DATA
    except UnicodeDecodeError as exc:
        print(f"input is not UTF-8: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OracleLimitError as exc:
        print(f"oracle limits: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
