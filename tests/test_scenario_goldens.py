"""Cross-commit goldens for the paper-artifact scenarios and the CLI grids.

Each case runs one scenario of :mod:`repro.experiments.scenarios` (or
one CLI grid command) at a reduced scale and pins a digest of what it
reports: the printed report plus every number the result carries, at
full precision.  A scenario that reorganises how it runs its grid must
keep every digest: the same transfers, the same aggregation order, the
same table.  ``impairment_matrix`` at rate 0 is included because all
three impairment kinds are then the same config, and each must still
get its own row.

To regenerate after an *intended* behaviour change, run this file as a
script (``PYTHONPATH=src python tests/test_scenario_goldens.py``) and
paste what it prints.
"""

import dataclasses
import hashlib
import io
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.experiments import scenarios


def _canonical(value):
    """A repr that does not depend on dict insertion order."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                tuple((f.name, _canonical(getattr(value, f.name)))
                      for f in dataclasses.fields(value)))
    if isinstance(value, dict):
        return tuple(sorted((repr(key), _canonical(item))
                            for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    return repr(value)


def _scenario(result):
    return result.report() + "\n" + repr(_canonical(result))


def _table2(**kwargs):
    """Table II's report and cells at one seed."""
    result = scenarios.table2(seeds=(11,), **kwargs)
    return result.report() + "\n" + repr(_canonical(result.cells))


def _cli(argv, drop=()):
    """stdout of ``repro <argv>`` without the lines starting ``drop``."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return "\n".join(line for line in out.getvalue().splitlines()
                     if not line.startswith(tuple(drop)))


CASES = {
    "figure10_11": lambda: _scenario(scenarios.figure10_11(
        policies=("cache_flush", "tcp_seq"), files=("file1",),
        losses=(0.0, 0.02), seeds=(11,))),
    "figure12": lambda: _scenario(scenarios.figure12(
        ks=(2, 16), losses=(0.05,), seeds=(11, 23))),
    "figure13": lambda: _scenario(scenarios.figure13(
        losses=(0.0, 0.05), seeds=(11,))),
    "table2": _table2,
    # One loss only: the report's rows are not pinned here, the cells are.
    "table2@5": lambda: repr(_canonical(scenarios.table2(
        losses=(0.05,), seeds=(11,)).cells)),
    "impairment_matrix": lambda: _scenario(scenarios.impairment_matrix(
        rates=(0.0, 0.02), seeds=(11,))),
    "extensions": lambda: _scenario(scenarios.extensions(
        losses=(0.0, 0.03), seeds=(11,))),
    "ablation_packet_size": lambda: _scenario(
        scenarios.ablation_packet_size(seeds=(11,))),
    "stall_scaling": lambda: _scenario(scenarios.stall_scaling(
        sizes=(40 * 1024, 160 * 1024), losses=(0.05,), seeds=(11, 23))),
    "cli run --baseline": lambda: _cli(
        ["run", "--baseline", "--loss", "5", "--size", str(60 * 1460)]),
    "cli sweep": lambda: _cli(
        ["sweep", "--policies", "cache_flush,k_distance", "--losses", "0,2",
         "--seeds", "11,23"], drop=("cells:",)),
}

GOLDEN = {
    "ablation_packet_size": "7b3136b2ffdd6d34",
    "cli run --baseline": "35bc588fb079c09d",
    "cli sweep": "00b16f210862ed4a",
    "extensions": "e18845140eab5c48",
    "figure10_11": "b162f84de269530a",
    "figure12": "300e62fb1423db4b",
    "figure13": "9d587b4495931d65",
    "impairment_matrix": "b1509b3ec697941a",
    "stall_scaling": "86d9e63c1990140f",
    "table2": "3846ecf920494463",
    "table2@5": "b339c95ac526ad13",
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CASES))
def test_scenario_matches_golden(name):
    assert _digest(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {_digest(CASES[name]())!r},")
