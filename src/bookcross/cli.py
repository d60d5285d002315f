"""Command-line front end.

Subcommands::

    count-drawings m n
    enumerate m n [--emit json]
    construct {balanced k | blowup k n | block-cyclic m n k | riskin m n} [-o FILE]
    crossings FILE              (FILE = '-' reads stdin)
    verify-pagenumber m n k [--budget N] [--export-cnf DIR] [--jobs J] [--log FILE]
    bounds k n [--scan] | bounds k m n
    oracle m n k
    render FILE -o OUT.svg

Exit codes: 0 success / proven, 1 refuted, 2 inconclusive (budget),
64 usage error (an input too large for memory among them), 65 malformed or
unreadable input file or unwritable output, 141 stdout closed early (as by
``| head``; 128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path

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
from .drawings import DrawingFormatError, _check_ints, _is_index, count_crossings, from_json, to_json
from .enumeration import _bracelets, canonical_form, count_formula, layout_from_string

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_BROKEN_PIPE = 141


class LogFormatError(ValueError):
    """A ``--log`` file that is malformed or belongs to another (m, n, k)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_jobs() -> int:
    """The CPUs this process may run on, or all CPUs where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    p.add_argument("--jobs", type=int, default=_default_jobs(), help="parallel layout checks")
    p.add_argument("--log", metavar="FILE", help="JSONL per-layout log; not_colorable layouts are skipped on rerun")

    p = sub.add_parser("bounds", help="bound table for K_{k+1,n} (2 args) or K_{m,n} (3 args)")
    p.add_argument("params", type=int, nargs="+", metavar="K [M] N")
    p.add_argument("--scan", action="store_true", help="consistency scan over 1..n instead of a table (K N only)")

    p = sub.add_parser("oracle", help="brute-force minimum crossings on a tiny instance")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    # a limit not given stays out of the namespace, so OracleLimits supplies its default
    for flag in ("--max-vertices", "--max-pages", "--node-budget"):
        p.add_argument(flag, type=int, default=argparse.SUPPRESS)

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
    from decimal import Decimal

    print(Decimal(count_formula(args.m, args.n)))  # exact; str() of an int refuses over 4300 digits
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    strings = (cls.canonical for cls in _bracelets(args.m, args.n))
    if args.emit == "json":
        print(json.dumps(list(strings)))
    else:
        for s in strings:  # each line as soon as its class is found
            print(s)
    return EXIT_OK


def _cmd_construct(args) -> int:
    from .constructions import balanced_embedding, block_cyclic, blowup, riskin_drawing

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
                nodes, millis = entry["nodes"], entry["millis"]
                # type checks, not int() or float(): those read true as 1 and 1.9 as 1
                if not all(map(_is_index, (*run, nodes))) or nodes < 0:
                    raise ValueError("m, n, k and nodes must be integers, nodes at least 0")
                if type(millis) not in (int, float) or not 0 <= millis < float("inf"):
                    raise ValueError("millis must be a finite number, at least 0")
                log = LayoutLog(entry["canonical_string"], entry["verdict"], nodes, float(millis))
            except (ValueError, KeyError, TypeError, RecursionError, OverflowError) as exc:
                raise LogFormatError(f"{path}:{lineno}: not a log record ({exc!r})") from exc
            if run != (m, n, k):
                raise LogFormatError(f"{path}:{lineno}: record is for (m, n, k) = {run}, not {(m, n, k)}")
            if type(log.canonical) is not str or sorted(log.canonical) != ["0"] * n + ["1"] * m:
                raise LogFormatError(f"{path}:{lineno}: canonical_string {log.canonical!r} is not {m} 1s and {n} 0s")
            if canonical_form(log.canonical) != log.canonical:
                raise LogFormatError(f"{path}:{lineno}: canonical_string {log.canonical!r} is not a canonical form")
            if log.verdict not in (COLORABLE, NOT_COLORABLE, BUDGET_EXCEEDED):
                raise LogFormatError(f"{path}:{lineno}: unknown verdict {log.verdict!r}")
            done[log.canonical] = log
    return done


def _cmd_verify(args) -> int:
    completed = _load_log(args.log, args.m, args.n, args.k) if args.log else {}
    # both outputs are opened before the run, so an unusable path fails at
    # once; appending keeps an existing log intact until the run has ended
    if args.export_cnf:
        os.makedirs(args.export_cnf, exist_ok=True)
    with open(args.log, "a", encoding="utf-8") if args.log else nullcontext() as log_fh:
        result = verify_positive_crossing(
            args.m, args.n, args.k, budget=args.budget, jobs=args.jobs, completed=completed
        )
        lines = [json.dumps({"m": args.m, "n": args.n, "k": args.k, **log.to_dict()}) for log in result.logs]
        if log_fh:
            log_fh.truncate(0)
            log_fh.writelines(line + "\n" for line in lines)
    if args.export_cnf:
        for log in result.logs:
            g = conflict_graph(layout_from_string(log.canonical))
            name = os.path.join(args.export_cnf, f"layout_{log.canonical}_k{args.k}.cnf")
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(export_cnf(g, args.k))
    # the log and the CNF files are complete before a reader can close stdout
    for line in lines:
        print(line)
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
    from .bounds import consistency_scan, family_rows, general_rows

    params = args.params
    if len(params) == 2:
        k, n = params
        m = k + 1
    elif len(params) == 3:
        k, m, n = params
    else:
        print("bounds expects 2 or 3 integers: K N or K M N", file=sys.stderr)
        return EXIT_USAGE
    if args.scan and len(params) == 3:
        print("bounds --scan takes K N: it scans the K_{k+1,n} family only", file=sys.stderr)
        return EXIT_USAGE
    if args.scan:
        _check_ints(n=n)
        report = consistency_scan([k], range(1, n + 1))
        print(
            json.dumps(
                {
                    "rows": [row.to_dict() for row in report.rows],
                    "violations": [v.to_dict() for v in report.violations],
                }
            )
        )
        return EXIT_OK
    rows = family_rows(k, n) if m == k + 1 else general_rows(k, m, n)
    print(json.dumps([row.to_dict() for row in rows]))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from dataclasses import fields

    from .oracle import OracleLimitError, OracleLimits, brute_force_run

    limits = OracleLimits(**{f.name: getattr(args, f.name) for f in fields(OracleLimits) if f.name in args})
    try:
        run = brute_force_run(args.m, args.n, args.k, limits)
    except OracleLimitError as exc:
        print(f"oracle limits: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    print(json.dumps(run.to_dict()))
    return EXIT_OK


def _cmd_render(args) -> int:
    from .render import render_svg

    drawing = _read_drawing(args.file)
    _write_text(args.output, render_svg(drawing))
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
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
        return code
    except DrawingFormatError as exc:
        print(f"malformed drawing file: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # the reader has gone; send what is still buffered, and the final
        # flush at exit, to devnull so that neither reports the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"cannot access {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_DATA
    except LogFormatError as exc:
        print(f"malformed log file: {exc}", file=sys.stderr)
        return EXIT_DATA
    except UnicodeDecodeError as exc:
        print(f"input is not UTF-8: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # a size whose tables cannot be allocated
        print("error: not enough memory for this input", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
