"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_run_basic(capsys):
    code, out = run_cli(capsys, "run", "--policy", "cache_flush",
                        "--loss", "0", "--size", "87600")
    assert code == 0
    assert "completed" in out
    assert "True" in out


def test_run_with_baseline_ratios(capsys):
    code, out = run_cli(capsys, "run", "--policy", "cache_flush",
                        "--size", "87600", "--baseline")
    assert code == 0
    assert "bytes ratio vs no-DRE" in out


def test_run_profile_prints_stages_and_memo_counters(capsys):
    code, out = run_cli(capsys, "run", "--policy", "cache_flush",
                        "--size", "87600", "--profile")
    assert code == 0
    assert "decode_fingerprint" in out
    assert "anchor memo (this run)" in out and "bytes held" in out
    assert "anchor_memo" not in out         # counters, not a stage row
    # Without DRE there are no stages, and the run still prints.
    code, out = run_cli(capsys, "run", "--policy", "none",
                        "--size", "87600", "--profile")
    assert code == 0 and "anchor memo (this run)" in out


def test_run_no_dre(capsys):
    code, out = run_cli(capsys, "run", "--policy", "none",
                        "--size", "87600")
    assert code == 0
    assert "perceived loss" in out


def test_run_unknown_policy(capsys):
    code = main(["run", "--policy", "wat"])
    assert code == 2


def test_run_k_distance_with_k(capsys):
    code, out = run_cli(capsys, "run", "--policy", "k_distance", "--k", "4",
                        "--size", "87600")
    assert code == 0


def test_sweep(capsys):
    code, out = run_cli(capsys, "sweep", "--policies", "cache_flush",
                        "--losses", "0,2")
    assert code == 0
    assert "bytes ratio" in out
    assert "cache_flush" in out


@pytest.mark.parametrize("argv, error", [
    (["sweep", "--policies", "bogus"], "unknown policy 'bogus'"),
    (["sweep", "--policies", ""], "no policy given"),
    (["sweep", "--losses", ""], "no loss rate given"),
])
def test_sweep_usage_errors_exit_2(capsys, argv, error):
    """A bad or empty policy/loss list is a usage error, not a
    traceback or an empty sweep that exits 0."""
    try:
        code = main(argv)
    except SystemExit as exited:        # argparse rejects the loss list
        code = exited.code
    assert code == 2
    assert error in capsys.readouterr().err


def test_mobility_command(capsys):
    code, out = run_cli(capsys, "mobility", "--mode", "tcp-proxy",
                        "--handoff", "0.25")
    assert code == 0
    assert "STALLED" in out


def test_corpus_listing(capsys):
    code, out = run_cli(capsys, "corpus")
    assert code == 0
    assert "file1" in out and "ebook" in out


def test_corpus_details(capsys):
    code, out = run_cli(capsys, "corpus", "file1")
    assert code == 0
    assert "byte savings" in out


def test_policies_listing(capsys):
    code, out = run_cli(capsys, "policies")
    assert code == 0
    assert "cache_flush" in out
    assert "AckGatedDecoderPolicy" in out


def test_trace_command(capsys):
    code, out = run_cli(capsys, "trace", "--policy", "naive", "--loss", "2",
                        "--size", str(40 * 1460), "--seed", "2")
    assert code == 0
    assert "dependency analysis" in out
    assert "self-dependency livelock" in out


def test_trace_export_round_trips_through_spans_and_flame(capsys, tmp_path):
    """``trace --out`` writes the spans/v1 export the other two commands
    read back with ``--from``, and the graph rebuilt from the file is the
    one the trace command printed."""
    import json
    import re

    from repro.metrics.depgraph import graph_from_spans

    path = str(tmp_path / "trace_run.json")
    code, out = run_cli(capsys, "trace", "--policy", "naive", "--loss", "2",
                        "--size", str(40 * 1460), "--seed", "2",
                        "--out", path)
    assert code == 0
    assert f"wrote spans/v1 export to {path}" in out
    printed = int(re.search(r"encoded packets\s+(\d+)", out).group(1))
    with open(path, encoding="utf-8") as handle:
        graph, _lost = graph_from_spans(json.load(handle))
    assert len(graph.sent) == printed > 0
    code, out = run_cli(capsys, "spans", "--from", path, "--list")
    assert code == 0 and "traces" in out
    code, out = run_cli(capsys, "flame", "--from", path)
    assert code == 0


def test_artifact_headline(capsys):
    code, out = run_cli(capsys, "artifact", "headline")
    assert code == 0
    assert "byte savings" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("argv", [
    ["run", "--loss", "150"],
    ["run", "--loss", "-5"],
    ["run", "--corrupt", "nan"],
    ["run", "--reorder", "101"],
    ["sweep", "--losses", "0,150"],
    ["mobility", "--loss", "-5"],
    ["trace", "--loss", "nan"],
    ["timeline", "--loss", "150"],
    ["flame", "--loss", "inf"],
    ["spans", "--loss", "-0.5"],
    ["serve-sim", "--loss", "150"],
])
def test_percentages_outside_0_100_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        build_parser().parse_args(argv)
    assert exited.value.code == 2
    assert "is not a percentage in [0, 100]" in capsys.readouterr().err


def test_percentages_parse_to_rates():
    parser = build_parser()
    run = parser.parse_args(["run", "--loss", "5", "--reorder", "100"])
    assert (run.loss, run.corrupt, run.reorder) == (0.05, 0.0, 1.0)
    assert parser.parse_args(["sweep", "--losses", "0, 2.5"]).losses \
        == [0.0, 0.025]
    assert parser.parse_args(["sweep"]).losses == [0.0, 0.01, 0.02, 0.05, 0.1]
    assert parser.parse_args(["timeline"]).loss == 0.05
    assert parser.parse_args(["serve-sim"]).loss == 0.01


def test_parser_rejects_bad_artifact():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["artifact", "figure99"])


def test_lint_command_clean_tree(capsys, tmp_path):
    import json
    import os

    out_file = tmp_path / "report.json"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code, out = run_cli(capsys, "lint", "--root", root,
                        "--out", str(out_file))
    assert code == 0
    assert "0 findings" in out
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["schema"] == "repro.lint/v1"


def test_lint_command_select_and_json(capsys):
    import json
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code, out = run_cli(capsys, "lint", "--root", root,
                        "--select", "layering", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rules_run"] == ["layering-cycle", "layering-import"]


def test_lint_command_unknown_selector():
    for selector in ("wat", "taint", "excflow"):
        assert main(["lint", "--select", selector]) == 2


def test_spans_and_timeline_print_their_cost_drivers(capsys):
    """Observed runs say what they paid for: spans per data packet and
    gauge reads per run, both read off the exports."""
    code, out = run_cli(capsys, "spans", "--policy", "cache_flush",
                        "--loss", "0", "--size", "29200")
    assert code == 0
    assert "cost: 139 spans / 20 data packets = 7.0 per packet" in out
    code, out = run_cli(capsys, "timeline", "--policy", "cache_flush",
                        "--loss", "0", "--size", "29200")
    assert code == 0
    assert "gauge reads" in out and "gauges =" in out
