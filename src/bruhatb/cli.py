"""Command-line front end: enumeration, posets, chains, verification, export.

Thin adapters over the library; exit status 0 on success, 1 when a
verification suite reports a failure or runs no check, 2 on usage errors
including unsupported ranks or levels and an --out that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import UnsupportedLevelError, format_element
from .orders import (
    PosetOverflowError,
    build_poset,
    check_extrema,
    ground_set,
    maximal_chains,
    poset_to_dot,
    poset_to_json,
)
from .verify import SUITE_NAMES, reports_to_json, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhatb",
        description="Higher Bruhat orders in types A and B at desk scale.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, levels=True):
        p.add_argument("--family", choices=("A", "B"), default="B")
        p.add_argument("--n", type=int, default=3)
        if levels:
            p.add_argument("--k", type=int, default=1)
        p.add_argument("--format", choices=("text", "json", "dot"),
                       default="text")
        p.add_argument("--out", default=None)

    common(sub.add_parser("enumerate", help="list a ground set in standard order"))
    common(sub.add_parser("poset", help="build a flip poset"))
    common(sub.add_parser("chains", help="list maximal chains of a flip poset"))
    common(sub.add_parser("export", help="write a flip poset to a file"))
    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=SUITE_NAMES, default="all")
    v.add_argument("--n", type=int, default=3)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--out", default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from exc


def _cmd_enumerate(args) -> int:
    elems = ground_set(args.family, args.n, args.k)
    if args.format == "json":
        _emit(json.dumps([format_element(e) for e in elems], indent=2), args.out)
    else:
        _emit("\n".join(format_element(e) for e in elems), args.out)
    return 0


def _poset_text(p) -> str:
    rep = check_extrema(p)
    lines = [
        f"family {p.family}  n {p.n}  k {p.k}",
        f"nodes {len(p.nodes)}  edges {len(p.edges)}",
        f"unique_min {rep.unique_min}  unique_max {rep.unique_max}"
        f"  graded {rep.graded}",
    ]
    return "\n".join(lines)


def _cmd_poset(args) -> int:
    p = build_poset(args.family, args.n, args.k)
    if args.format == "json":
        _emit(poset_to_json(p), args.out)
    elif args.format == "dot":
        _emit(poset_to_dot(p), args.out)
    else:
        _emit(_poset_text(p), args.out)
    return 0


def _cmd_chains(args) -> int:
    p = build_poset(args.family, args.n, args.k)
    chains = maximal_chains(p)
    if args.format == "json":
        _emit(json.dumps([[format_element(K) for K in c] for c in chains],
                         indent=2), args.out)
    else:
        _emit("\n".join(" ".join(format_element(K) for K in c)
                        for c in chains), args.out)
    return 0


def _cmd_export(args) -> int:
    if args.out is None:
        print("export needs --out", file=sys.stderr)
        return 2
    if args.format == "text":
        args.format = "dot" if args.out.endswith(".dot") else "json"
    return _cmd_poset(args)


def _cmd_verify(args) -> int:
    if args.n < 2 or args.jobs < 1:
        raise ValueError("verify needs --n >= 2 and --jobs >= 1, "
                         f"got --n {args.n} --jobs {args.jobs}")
    reports = run_suite(args.suite, args.n, args.jobs)
    if args.out is not None:
        _emit(reports_to_json(reports), args.out)
    if not reports:
        print(f"FAIL suite {args.suite} ran no checks")
        return 1
    failures = [r for r in reports if not r["result"]]
    for r in reports:
        status = "ok" if r["result"] else "FAIL"
        print(f"{status:4} {r['check']} {json.dumps(r['params'])}")
    if failures:
        print(json.dumps(failures, indent=2))
        return 1
    print(f"all {len(reports)} checks passed")
    return 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "poset": _cmd_poset,
    "chains": _cmd_chains,
    "export": _cmd_export,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (UnsupportedLevelError, PosetOverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
