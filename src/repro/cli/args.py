"""What the ``repro`` commands share: the one-line-error parser, the
argparse types, and the single-transfer argument group with its config
builder."""

from __future__ import annotations

import argparse
import json
import math
import os
from typing import Any, Callable, Dict, List, NoReturn, Optional, Sequence

from ..core.policies import ENCODER_POLICIES
from ..experiments import ExperimentConfig
from ..workload import corpus_names


class Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` (and, so, subparsers) whose usage error is
    one stderr line."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


#: "classic" is the paper's name for the first-generation byte caching
#: scheme, which the repo implements as the "naive" policy; "none" (or
#: an empty name) disables DRE.
POLICY_ALIASES: Dict[str, Optional[str]] = {"classic": "naive",
                                            "none": None, "": None}

#: Bounded stall settings for the single-run diagnostics (trace,
#: timeline, spans, flame): a naive-policy livelock exhausts 8 retries
#: at <= 2 s RTO well inside the 120 s limit instead of grinding
#: through the full defaults.
BOUNDED_STALL: Dict[str, Any] = {"time_limit": 120.0, "tcp_max_retries": 8,
                                 "tcp_max_rto": 2.0}


def percent(text: str) -> float:
    """argparse type: a percentage in [0, 100], returned as a rate."""
    value = float(text)
    if not 0.0 <= value <= 100.0:  # NaN fails the test too
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a percentage in [0, 100]")
    return value / 100.0


def number(low: float, high: float = math.inf, *, above: bool = False,
           whole: bool = False) -> Callable[[str], float]:
    """argparse type: a finite number (an int when ``whole``) >= ``low``
    (> ``low`` when ``above``) and <= ``high``."""
    bound = f"> {low:g}" if above else f">= {low:g}"
    if high < math.inf:
        bound = f"in {'(' if above else '['}{low:g}, {high:g}]"

    def parse(text: str) -> float:
        try:
            value = int(text) if whole else float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value <= high
                and (value > low if above else value >= low)):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a {'whole ' if whole else ''}number {bound}")
        return value
    return parse


def comma_list(parse: Callable[[str], Any], what: str
               ) -> Callable[[str], List[Any]]:
    """argparse type: a non-empty comma-separated list of ``parse``d
    items (``what`` names one item)."""
    def items(text: str) -> List[Any]:
        try:
            values = [parse(item.strip()) for item in text.split(",")
                      if item.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a comma-separated list of {what}s") from None
        if not values:
            raise argparse.ArgumentTypeError(f"no {what} given")
        return values
    return items


def one_of(names: Sequence[str], what: str) -> Callable[[str], str]:
    """argparse type: one of ``names``, each a ``what``."""
    def parse(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {text!r}; try: {', '.join(names)}")
        return text
    return parse


def _policy_in(names) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"unknown policy {text!r}; try: "
                f"{', '.join(sorted(ENCODER_POLICIES))}")
        return text
    return parse


#: argparse types: one policy as typed, an encoder policy or an alias
#: (``transfer_config`` resolves it); a list of encoder policies.
policy_name = _policy_in({*ENCODER_POLICIES, *POLICY_ALIASES})
policy_list = comma_list(_policy_in(ENCODER_POLICIES), "policy")
percents = comma_list(percent, "loss rate")
seed_list = comma_list(int, "seed")


def json_file(what: str, check: Callable[[Any], Any]) -> Callable[[str], Any]:
    """argparse type: a readable JSON file, returned loaded, that
    ``check`` (which raises ``ValueError``) accepts as a ``what``."""
    def load(path: str) -> Any:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
            check(doc)
        except OSError as error:
            raise argparse.ArgumentTypeError(
                f"cannot read {path!r}: {error.strerror}") from None
        except (ValueError, KeyError, TypeError) as error:
            raise argparse.ArgumentTypeError(
                f"{path!r} is not a {what}: {error}") from None
        return doc
    return load


def dir_path(text: str) -> str:
    """argparse type: a directory that exists or can be made."""
    probe = os.path.abspath(text)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK)):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a directory that can be written")
    return text


def write_json(path: str, doc: Any, **dump: Any) -> None:
    """Write ``doc`` to ``path`` as JSON, ending in a newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, **dump)
        handle.write("\n")


def add_transfer_args(cmd: argparse.ArgumentParser, *, policy: str,
                      loss: str, size: int) -> None:
    """The arguments of a single-transfer command, with its defaults;
    ``transfer_config`` turns them into the run's config."""
    group = cmd.add_argument_group("transfer")
    group.add_argument(
        "--policy", type=policy_name, default=policy,
        help="encoding policy ('classic' = the paper's §IV naive scheme, "
             "'none' disables DRE)")
    group.add_argument("--loss", type=percent, default=loss,
                       help="packet loss rate in percent (e.g. 5)")
    group.add_argument("--corpus", default="file1", choices=corpus_names())
    group.add_argument("--size", type=number(0, whole=True), default=size,
                       help="object size in bytes (0 = corpus default)")
    group.add_argument("--seed", type=int, default=11)


def transfer_config(args: argparse.Namespace,
                    **overrides: Any) -> ExperimentConfig:
    """The ``ExperimentConfig`` of ``add_transfer_args``' arguments plus
    the command's own fields (stall bound, observers, resilience)."""
    return ExperimentConfig(
        corpus=args.corpus, file_size=args.size,
        policy=POLICY_ALIASES.get(args.policy, args.policy),
        loss_rate=args.loss, seed=args.seed, **overrides)
