"""Transcript of every ``repro`` command: stdout and exit code, pinned.

Each of the sixteen commands runs once through ``repro.cli.main`` on a
small input, from the repo root, and what it prints must match its
block of ``tests/cli_transcript.txt`` line for line, as a fresh
``repro`` process would print it.  Only host-time text is masked
(sweep's ``wall-clock:`` figure and the number of files ``lint`` read);
every simulated number is compared as printed.

To regenerate after an *intended* output change, run this file as a
script (``PYTHONPATH=src python tests/test_cli_transcript.py``); it
rewrites the transcript, and ``git diff`` shows what moved.
"""

import io
import itertools
import os
import re
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.core.fingerprint import anchor_memo_clear
from repro.net import packet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRANSCRIPT = os.path.join(ROOT, "tests", "cli_transcript.txt")

COMMANDS = [
    "run --size 87600 --baseline",
    "sweep --policies cache_flush,tcp_seq --losses 0,2 --seeds 11,23",
    "trace --size 14600",
    "timeline --size 14600",
    "flame --size 14600 --weight count",
    "spans --size 14600 --list",
    "chaos list",
    "chaos run handover-storm --policies cache_flush",
    "fuzz --iterations 3",
    "verify --scale smoke",
    "serve-sim --users 5 --contents 50 --max-requests 10",
    "mobility",
    "artifact headline",
    "corpus file1",
    "policies",
    "lint",
]

#: Host-time text: (pattern, replacement).
MASKS = [
    (re.compile(r"wall-clock: [0-9.]+s"), "wall-clock: <host>s"),
    (re.compile(r"^[0-9]+ files, ", re.M), "<n> files, "),
]


def _block(command: str) -> str:
    """``$ repro <command>``, its masked stdout and ``[exit N]``.

    The command starts from what a fresh process holds: an empty anchor
    memo, and packet ids from 1 (``trace`` and ``spans`` print them).
    """
    anchor_memo_clear()
    next_packet_id, cwd = packet._next_packet_id, os.getcwd()
    packet._next_packet_id = itertools.count(1).__next__
    out = io.StringIO()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out):
            code = main(command.split())
    finally:
        packet._next_packet_id = next_packet_id
        os.chdir(cwd)
    text = out.getvalue()
    for pattern, replacement in MASKS:
        text = pattern.sub(replacement, text)
    return f"$ repro {command}\n{text}[exit {code}]\n"


def _recorded() -> dict:
    with open(TRANSCRIPT, encoding="utf-8") as handle:
        blocks = handle.read().split("\n\n$ repro ")
    blocks[0] = blocks[0][len("$ repro "):]
    return {block.split("\n", 1)[0]: "$ repro " + block.rstrip("\n") + "\n"
            for block in blocks}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_prints_its_transcript(command):
    assert _block(command).splitlines() == \
        _recorded()[command].splitlines()


if __name__ == "__main__":
    with open(TRANSCRIPT, "w", encoding="utf-8") as handle:
        handle.write("\n".join(_block(command) for command in COMMANDS))
    print(f"wrote {TRANSCRIPT}")
