"""Command-line interface: ``python -m repro <command> ...``.

One module per command family adds its parsers and binds each handler
with ``set_defaults(handler=...)``: ``transfers`` (run, sweep, trace,
timeline, flame, spans), ``checks`` (verify, fuzz, chaos, lint, bench)
and ``scenarios`` (artifact, mobility, serve-sim, corpus, policies).
``args`` holds what they share.  A usage error is one stderr line and
exit 2, raised by an argparse type or a command's post-parse ``check``;
no command body validates an argument.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from . import checks, scenarios, transfers
from .args import Parser


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="repro",
        description="Byte caching in wireless networks (ICDCS 2012) — "
                    "reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for family in (transfers, scenarios, checks):
        family.add_parsers(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        problem = args.check(args) if "check" in args else None
        if problem:
            parser.error(problem)
    except SystemExit as exited:      # a usage error, or --help
        return int(exited.code or 0)
    return args.handler(args)
