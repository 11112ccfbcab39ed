"""Tests for the command-line interface."""

import collections
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.cli.scenarios import ARTIFACTS
from repro.core.policies.base import EncoderPolicy
from repro.core.policies.cache_flush import CacheFlushPolicy
from repro.experiments import scenarios
from repro.metrics.series import Series
from repro.sim.engine import Simulator


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
    (line,) = capsys.readouterr().err.splitlines()
    assert "unknown policy 'wat'" in line


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
    (["sweep", "--seeds", "abc"], "not a comma-separated list of seeds"),
    (["sweep", "--seeds", ","], "no seed given"),
])
def test_sweep_usage_errors_exit_2(capsys, argv, error):
    """A bad or empty policy/loss/seed list is a usage error, not a
    traceback or an empty sweep that exits 0."""
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert error in line


@pytest.mark.parametrize("argv, error", [
    (["run", "--policy", "k_distance", "--k", "0"],
     "not a whole number >= 1"),
    (["run", "--k", "8"],
     "--k applies to k_distance only, not 'cache_flush'"),
    (["run", "--policy", "none", "--k", "8", "--baseline"],
     "--k applies to k_distance only, not 'none'"),
])
def test_run_k_usage_errors_exit_2(capsys, argv, error):
    """``--k`` below 1 or beside a policy that takes no k is a usage
    error, not a traceback from the policy constructor."""
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert error in line


@pytest.mark.parametrize("argv, error", [
    (["chaos", "run", "no-such-storm"], "unknown campaign 'no-such-storm'"),
    (["chaos", "run", "handover-storm", "--policies", "bogus"],
     "unknown policy 'bogus'"),
    (["chaos", "run", "handover-storm", "--policies", ","],
     "no policy given"),
])
def test_chaos_run_usage_errors_exit_2(capsys, argv, error):
    """A typo is a usage error on one stderr line, never exit 1: that
    code means the campaign ran and its SLOs failed."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert error in err
    assert len(err.splitlines()) == 1


#: Options whose value is a whole number; the rest take any finite one.
WHOLE = {"--iterations", "--shards", "--users", "--contents",
         "--max-requests", "--size", "--mean-object", "--width", "--height",
         "--events", "--rows", "--hops", "--depth", "--sample", "--workers"}


@pytest.mark.parametrize("argv", [
    ["fuzz", "--iterations", "0"],
    ["fuzz", "--iterations", "-3"],
    ["fuzz", "--iterations", "many"],
    ["serve-sim", "--shards", "-2"],
    ["serve-sim", "--users", "0"],
    ["serve-sim", "--contents", "0"],
    ["serve-sim", "--max-requests", "0"],
    ["serve-sim", "--admission", "0"],
    ["serve-sim", "--admission", "1.5"],
    ["serve-sim", "--cache-mb", "0"],
    ["serve-sim", "--arrival-rate", "0"],
    ["serve-sim", "--requests-per-user", "0.5"],
    ["serve-sim", "--alpha", "-1"],
    ["serve-sim", "--alpha", "inf"],
    ["mobility", "--handoff", "-1"],
    ["run", "--size", "-5"],
    ["trace", "--size", "-5"],
    ["timeline", "--size", "-5"],
    ["flame", "--size", "-5"],
    ["spans", "--size", "-5"],
    ["serve-sim", "--mean-object", "0"],
    ["serve-sim", "--mean-object", "300000"],
    ["timeline", "--height", "0"],
    ["timeline", "--height", "-1"],
    ["timeline", "--events", "0"],
    ["timeline", "--width", "-1"],
    ["trace", "--rows", "-1"],
    ["spans", "--hops", "-1"],
    ["flame", "--depth", "-1"],
    ["flame", "--sample", "-1"],
    ["sweep", "--workers", "-1"],
    ["flame", "--min-frac", "2"],
])
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    """Refused at parse time, never a ValueError/SimulationError from a
    constructor or (``--size``) a silent corpus-default run."""
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    noun = "number"
    if argv[1] in WHOLE:
        noun = ("whole number in [" if argv[1] == "--mean-object"
                else "whole number >=")
    assert f"argument {argv[1]}: {argv[2]!r} is not a {noun}" in line


def test_counts_parse_at_their_lower_bound():
    parser = build_parser()
    assert parser.parse_args(["fuzz", "--iterations", "1"]).iterations == 1
    assert parser.parse_args(["serve-sim", "--shards", "0"]).shards == 0
    serve = parser.parse_args(["serve-sim", "--users", "1", "--contents", "1",
                               "--max-requests", "1", "--admission", "1",
                               "--cache-mb", "0.5", "--alpha", "0",
                               "--requests-per-user", "1"])
    assert (serve.users, serve.contents, serve.max_requests) == (1, 1, 1)
    assert (serve.admission, serve.cache_mb, serve.alpha,
            serve.requests_per_user) == (1.0, 0.5, 0.0, 1.0)
    assert parser.parse_args(["mobility", "--handoff", "0"]).handoff == 0.0
    # --size 0 still means "the corpus default".
    for command in ("run", "trace", "timeline", "flame", "spans"):
        assert parser.parse_args([command, "--size", "0"]).size == 0


@pytest.mark.parametrize("argv, error", [
    (["fuzz", "--replay", "{missing}"], "cannot read"),
    (["chaos", "replay", "{missing}"], "cannot read"),
    (["spans", "--from", "{missing}"], "cannot read"),
    (["flame", "--from", "{missing}"], "cannot read"),
    (["fuzz", "--out-dir", "{file}/cases"],
     "is not a directory that can be written"),
    (["fuzz", "--replay", "{file}"], "is not a repro.fuzz/v1 case"),
    (["chaos", "replay", "{file}"], "is not a repro.chaos/v1 report"),
    (["spans", "--from", "{file}"], "is not a spans/v1 export"),
    (["flame", "--from", "{file}"], "is not a spans/v1 export"),
    (["fuzz", "--replay", "{list}"], "is not a repro.fuzz/v1 case"),
    (["chaos", "replay", "{list}"], "is not a repro.chaos/v1 report"),
    (["spans", "--from", "{list}"], "is not a spans/v1 export"),
])
def test_unusable_paths_are_usage_errors(capsys, monkeypatch, tmp_path,
                                         argv, error):
    """A missing, unreadable or wrong-schema input file, or an output
    directory that cannot be made, is refused before anything is
    simulated: exit 2 and one line, not a traceback with exit 1 (which
    these commands use for "diverges" or "violation found")."""
    def simulate(self, *args, **kwargs):
        raise AssertionError("simulated before the usage check")

    monkeypatch.setattr(Simulator, "run", simulate)
    (tmp_path / "file").write_text(json.dumps({"schema": "other/v1"}))
    (tmp_path / "list").write_text("[]")
    paths = {"missing": tmp_path / "missing.json", "file": tmp_path / "file",
             "list": tmp_path / "list"}
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert error in line


def test_corpus_choices_do_not_list_none(capsys):
    assert main(["corpus", "nope"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "invalid choice: 'nope'" in line and "None" not in line
    assert main(["corpus", "--help"]) == 0
    assert "None" not in capsys.readouterr().out


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


_CHECK_LINE = re.compile(r"^(pass |FAIL |xfail|XPASS)  (\S+)$", re.M)


def test_artifact_fails_named_checks_when_cache_flush_never_flushes(
        capsys, monkeypatch):
    """The doctored run: with its flush disabled Cache Flush stalls as
    naive encoding does, and Table II's checks name what broke."""
    monkeypatch.setattr(CacheFlushPolicy, "before_packet",
                        EncoderPolicy.before_packet)
    code, out = run_cli(capsys, "artifact", "table2")
    assert code == 1
    assert [name for status, name in _CHECK_LINE.findall(out)
            if status == "FAIL "] == [
        "table2.slower_than_plain_at_5pct[cache_flush]",
        "table2.cf_le_ts_delay_5pct", "table2.cf_le_ts_delay_10pct"]


def _table2_result(delays):
    """A Table II result without a run: every scheme saves bytes, and
    ``delays`` maps (policy, loss) to its delay ratio."""
    cells = {("Delay", policy, loss): delay
             for (policy, loss), delay in delays.items()}
    cells.update({("Bytes Sent", policy, loss): 0.8
                  for policy, loss in delays})
    return scenarios.Table2Result(
        cells=cells, policies=["cache_flush", "tcp_seq", "k_distance"],
        losses=[0.05, 0.10])


def test_artifact_exits_1_when_an_expected_failure_passes(capsys,
                                                          monkeypatch):
    """A divergence that no longer shows is a finding, as a strict xfail
    is: here Cache Flush has the lowest delay, as in the paper."""
    result = _table2_result({
        ("cache_flush", 0.05): 3.5, ("tcp_seq", 0.05): 4.0,
        ("k_distance", 0.05): 5.0, ("cache_flush", 0.10): 7.0,
        ("tcp_seq", 0.10): 8.0, ("k_distance", 0.10): 9.0})
    monkeypatch.setitem(ARTIFACTS, "table2", (lambda: result, "report"))
    code, out = run_cli(capsys, "artifact", "table2")
    assert code == 1
    assert [(status, name) for status, name in _CHECK_LINE.findall(out)
            if status in ("FAIL ", "XPASS")] == [
        ("XPASS", "table2.cf_lowest_delay")]
    assert out.splitlines()[-1].endswith("0 failed, 1 passed unexpectedly")


#: Per scenario, a result with the lines and rows its checks look up and
#: no measurements: what a check is called does not depend on the data.
_EMPTY_RESULTS = {
    scenarios.table1: lambda: scenarios.Table1Result(rows=[]),
    scenarios.figure6: lambda: scenarios.Figure6Result([], 0.01, 1),
    scenarios.figure10_11: lambda: scenarios.Figure10_11Result(
        *([Series(f"{policy}({corpus})") for policy in ("cache_flush",
                                                       "tcp_seq")
           for corpus in ("file1", "file2")] for _ in range(2)), stalls=0),
    scenarios.figure12: lambda: scenarios.Figure12Result(
        [Series("bytes(5%)")], [Series("delay(5%)")], stalls=0),
    scenarios.figure13: lambda: scenarios.Figure13Result(
        [Series(name) for name in ("cache_flush", "tcp_seq",
                                   "k_distance(k=8)")]),
    scenarios.table2: lambda: _table2_result({}),
    scenarios.headline: lambda: scenarios.HeadlineResult(0.0, 0.0),
    scenarios.ablation_packet_size: lambda: scenarios.AblationResult(
        [("k_distance(k=8)", 0.0, 0), ("k_distance(k=50)", 0.0, 0)]),
    scenarios.extensions: lambda: scenarios.ExtensionsResult(
        [], [Series("ack_gated")], {}),
    scenarios.impairment_matrix: lambda: scenarios.ImpairmentResult(
        {}, [], [], []),
    scenarios.stall_scaling: lambda: scenarios.StallScalingResult(
        {40 * 1024: 0.0}, {}, 0.002),
}


def test_artifact_names_every_check_once(capsys, monkeypatch):
    """Each artifact has checks, no check name repeats across artifacts,
    every check of a result is printed under one of its artifacts, each
    scenario runs once (Figures 10 and 11 share a sweep), and a check
    that looks up a missing point adds none to the shared result."""
    calls = collections.Counter()
    results = {}

    def empty_run(scenario):
        def run():
            calls[scenario] += 1
            results[scenario] = _EMPTY_RESULTS[scenario]()
            return results[scenario]
        return run

    runs = {scenario: empty_run(scenario) for scenario in _EMPTY_RESULTS}
    for name, (scenario, report) in list(ARTIFACTS.items()):
        monkeypatch.setitem(ARTIFACTS, name, (runs[scenario], report))
    _, out = run_cli(capsys, "artifact")
    assert set(calls) == set(_EMPTY_RESULTS)
    assert set(calls.values()) == {1}
    names = [name for _, name in _CHECK_LINE.findall(out)]
    assert {name.partition(".")[0] for name in names} == set(ARTIFACTS)
    assert len(names) == len(set(names))
    assert len(names) == sum(len(result.checks())
                             for result in results.values())
    shared = results[scenarios.figure10_11]
    assert not any(line.points
                   for line in shared.bytes_series + shared.delay_series)


def test_parser_requires_command(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    capsys.readouterr()
    assert main([]) == 2
    assert capsys.readouterr().err == \
        "repro: error: the following arguments are required: command\n"


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
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "is not a percentage in [0, 100]" in line


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
    assert payload["schema"] == "repro.lint/v2"


def test_lint_command_select_and_json(capsys):
    import json
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code, out = run_cli(capsys, "lint", "--root", root,
                        "--select", "layering", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rules_run"] == ["layering-call-site", "layering-cycle",
                                   "layering-import"]


def test_lint_command_unknown_selector(capsys):
    for selector in ("wat", "taint", "excflow"):
        assert main(["lint", "--select", selector]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "unknown rule selector" in line


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


# -- bench pair --------------------------------------------------------------

def _git(repo, *args):
    import subprocess

    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                    "-c", "user.email=t@example.com", *args],
                   check=True, capture_output=True)


@pytest.fixture
def two_commit_repo(tmp_path, monkeypatch):
    """A repository whose HEAD~1 says "parent" and HEAD says "change";
    temporary directories go under ``tmp_path``."""
    import tempfile

    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    for text in ("parent", "change"):
        (repo / "tree.txt").write_text(text)
        _git(repo, "add", "tree.txt")
        _git(repo, "commit", "-q", "-m", text)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    return repo, scratch


def _stub_runner(monkeypatch, calls, fail_on=None):
    """Each tree's ``run.py`` replaced by a stub: the change makes 10 %
    fewer calls than the parent but takes 0.1 cu more host time, which
    also grows with the seed."""
    from repro.metrics import benchpair

    def run(tree, workload, seed):
        which = (tree / "tree.txt").read_text()
        calls.append((which, workload, seed))
        if which == fail_on:
            raise RuntimeError(f"{which} exited 1")
        return {"py_calls_per_op": 1000.0 if which == "parent" else 900.0,
                "host_cu_per_op": (1.0 if which == "parent" else 1.1)
                + seed / 100}

    monkeypatch.setattr(benchpair, "e2e_runner", run)
    monkeypatch.setattr(benchpair, "compile_tree", lambda tree: None)


def _worktrees(repo):
    import subprocess

    listed = subprocess.run(["git", "-C", str(repo), "worktree", "list"],
                            check=True, capture_output=True, text=True)
    return len(listed.stdout.splitlines())


def test_bench_pair_alternates_trees_and_lists_every_pair(
        capsys, monkeypatch, two_commit_repo):
    repo, scratch = two_commit_repo
    # The change tree's bounds: its ~5 % more host time exceeds 3 %.
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "py_calls_per_op", "bound": 0.035},
        {"name": "host_cu_per_op", "bound": 0.03}]}))
    calls = []
    _stub_runner(monkeypatch, calls)
    code, out = run_cli(capsys, "bench", "pair", "HEAD~1", "--workload", "w",
                        "--pairs", "3", "--root", str(repo))
    assert code == 0
    # Parent first in odd pairs (1, 3, ...), change first in even ones.
    assert calls == [("parent", "w", 101), ("change", "w", 101),
                     ("change", "w", 102), ("parent", "w", 102),
                     ("parent", "w", 103), ("change", "w", 103)]
    pairs = [line.split() for line in out.splitlines()
             if re.match(r"^[123] +10[123] ", line)]
    assert [row[:5] for row in pairs] == [
        ["1", "101", "parent", "1000", "900"],
        ["2", "102", "change", "1000", "900"],
        ["3", "103", "parent", "1000", "900"]]
    summary = next(line.split() for line in out.splitlines()
                   if line.startswith("py_calls_per_op"))
    # wins, medians, delta, parent IQR, IQR gap, resolved, bound, within
    assert summary[1:] == ["3/3", "1000", "900", "-10.00", "%", "0", "100",
                           "yes", "+3.50", "%", "yes"]
    host = next(line.split() for line in out.splitlines()
                if line.startswith("host_cu_per_op"))
    assert host[1] == "0/3" and host[-4:] == ["no", "+3.00", "%", "NO"]
    # The worktree is gone, and so is its temporary directory.
    assert _worktrees(repo) == 1
    assert list(scratch.iterdir()) == []


def test_bench_pair_removes_the_worktree_when_a_run_fails(
        capsys, monkeypatch, two_commit_repo):
    repo, scratch = two_commit_repo
    calls = []
    _stub_runner(monkeypatch, calls, fail_on="change")
    code, out = run_cli(capsys, "bench", "pair", "HEAD~1", "--workload", "w",
                        "--root", str(repo))
    assert code == 1
    assert "bench pair failed: change exited 1" in out
    assert _worktrees(repo) == 1
    assert list(scratch.iterdir()) == []
    code, out = run_cli(capsys, "bench", "pair", "no-such-ref",
                        "--workload", "w", "--root", str(repo))
    assert code == 1 and "cannot check out 'no-such-ref'" in out
    assert list(scratch.iterdir()) == []


@pytest.mark.parametrize("correct, failed", [(True, 0), (False, 0), (True, 1)])
def test_bench_pair_reads_the_last_line_of_each_trees_run(
        tmp_path, correct, failed):
    """``e2e_runner`` runs the tree's own ``run.py`` and takes the metric
    values from its last stdout line; a run that was not correct, or
    lost operations, is an error and not a reading."""
    from repro.metrics import benchpair

    script = tmp_path / "benchmarks" / "e2e" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text(
        "import json, sys\n"
        "assert '--seconds' not in sys.argv  # run.py's own length\n"
        "print('# a metric line')\n"
        "print(json.dumps({'correct': %r, 'attempted': 4, 'failed': %d,\n"
        "    'metrics': {'py_calls_per_op': {'value': 7.5, 'unit': 'count'},\n"
        "                'seed': {'value': int(sys.argv[4]), 'unit': ''},\n"
        "                'sim_bytes_sent_ratio': {'value': 0.25,\n"
        "                                         'unit': 'ratio'}}}))\n"
        % (correct, failed))
    if correct and not failed:
        reading = benchpair.e2e_runner(tmp_path, "w", 103)
        assert reading == {"py_calls_per_op": 7.5, "seed": 103,
                           "sim_bytes_sent_ratio": 0.25}
        # Every metric the result line names is summarised, in its
        # order; one without a bound says so.
        table = benchpair.format_pairs(
            "w", [benchpair.Pair(103, True, reading, reading)],
            {"sim_bytes_sent_ratio": 0.03})
        rows = [line.split() for line in table.splitlines()
                if line.split()[:1] in (["py_calls_per_op"], ["seed"],
                                        ["sim_bytes_sent_ratio"])]
        assert [row[0] for row in rows] == list(reading)
        assert rows[1][-2:] == ["-", "-"]
        assert rows[2][1:5] == ["0/1", "0.25", "0.25", "+0.00"]
        assert rows[2][-3:] == ["+3.00", "%", "yes"]
    else:
        with pytest.raises(RuntimeError, match="seed 103 failed"):
            benchpair.e2e_runner(tmp_path, "w", 103)


def test_bench_pair_resolves_only_a_change_that_wins_nine_pairs_in_ten():
    """A median that clears the parent's spread is not resolved while
    the change loses more than one pair in ten."""
    from repro.metrics import benchpair

    def summary(changes):
        pairs = [benchpair.Pair(seed, seed % 2 == 1, {"m": 10.0}, {"m": c})
                 for seed, c in enumerate(changes, benchpair.FIRST_SEED)]
        return benchpair.summarise(pairs, "m")

    lucky = summary([1.0, 1.0, 1.0, 11.0, 11.0, 11.0])
    assert (lucky.wins, lucky.iqr_gap) == (3, 4.0) and not lucky.resolved
    assert summary([9.0] * 6).resolved
    assert summary([9.0] * 9 + [11.0]).resolved
    assert not summary([9.0] * 8 + [11.0] * 2).resolved
