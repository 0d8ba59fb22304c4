"""Self-tests of the benchmark's own arithmetic and naming rules.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
They build no dataset and start no program process (one test runs the
runner in an empty directory, where it must refuse before doing anything).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import loadgen  # noqa: E402
import run  # noqa: E402
from measure import (  # noqa: E402
    ProcessRun,
    Span,
    Tracer,
    percentile,
    result_line,
    self_times,
    stolen_s,
    tail_percentile,
)

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


# -- span arithmetic ---------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),   # overlaps a: covered once
        Span("c", 8.0, 12.0, parent=0),  # runs past the parent: clipped
        Span("leaf", 2.5, 3.0, parent=2),
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - (4.0 + 2.0))
    assert got["a"] == pytest.approx(2.0)
    assert got["b"] == pytest.approx(3.0 - 0.5)
    assert got["c"] == pytest.approx(4.0)
    assert got["leaf"] == pytest.approx(0.5)


def test_self_time_sums_repeated_names():
    spans = [Span("x", 0.0, 1.0), Span("x", 2.0, 4.0), Span("y", 2.5, 3.0, 1)]
    assert self_times(spans) == pytest.approx({"x": 2.5, "y": 0.5})


def test_tracer_records_nesting_and_parents():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
    outer, inner = tracer.spans
    assert outer.parent is None and inner.parent == 0
    assert outer.start <= inner.start <= inner.end <= outer.end
    selfs = tracer.self_times()
    assert selfs["outer"] == pytest.approx(outer.duration - inner.duration)
    assert [d["name"] for d in tracer.to_dicts()] == ["outer", "inner"]


# -- summaries ---------------------------------------------------------------------


def test_percentiles_and_supported_tail():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert tail_percentile(1000) == pytest.approx(99.0)
    assert tail_percentile(10) is None


def test_wall_times_are_taken_less_steal():
    run = ProcessRun(wall_s=8.5, cpu_s=5.8, peak_rss_mb=140.0, returncode=0,
                     steal_s=3.5)
    assert run.unstolen_s == pytest.approx(5.0)
    assert ProcessRun(2.0, 1.0, 1.0, 0).unstolen_s == 2.0  # no steal: wall
    before = stolen_s()
    assert before >= 0.0 and stolen_s() >= before


# -- due-time accounting -----------------------------------------------------------


def _outcome(index, due, free, sent, done, status=200):
    return loadgen.Outcome(index, index, due, free, sent, done, status, b"")


def test_latency_counts_from_due_and_lag_excludes_server_wait():
    # Due at 1.0; the thread was busy with a slow answer until 1.05 and
    # sent at 1.051: 50 ms of that wait is the server's, 1 ms is ours.
    o = _outcome(0, due=1.0, free=1.05, sent=1.051, done=1.052)
    assert o.latency == pytest.approx(0.052)
    assert o.lag == pytest.approx(0.001)
    idle = _outcome(1, due=2.0, free=1.0, sent=2.003, done=2.004)
    assert idle.lag == pytest.approx(0.003)


def test_rate_verdict_marks_a_late_generator_unmet():
    fast = [_outcome(i, i * 0.01, -1.0, i * 0.01, i * 0.01 + 0.001)
            for i in range(100)]
    assert loadgen.rate_verdict(fast, limit_ms=5.0)["met"]
    # The server answers in 1 ms but the generator sent 10 ms late.
    late = [_outcome(i, i * 0.01, -1.0, i * 0.01 + 0.010, i * 0.01 + 0.011)
            for i in range(100)]
    verdict = loadgen.rate_verdict(late, limit_ms=5.0)
    assert verdict["generator_behind"] and not verdict["met"]
    failed = fast[:-1] + [_outcome(99, 0.99, -1.0, 0.99, 0.991, status=503)]
    assert not loadgen.rate_verdict(failed, limit_ms=5.0)["met"]


def test_backlog_growth_is_detected():
    growing = [_outcome(i, i * 0.01, -1.0, i * 0.01, i * 0.01 + i * 0.001)
               for i in range(100)]
    assert loadgen.backlog_growing(growing, limit_ms=5.0)
    # p99 (99 ms) is inside a 150 ms limit, but the queue keeps growing.
    verdict = loadgen.rate_verdict(growing, limit_ms=150.0)
    assert verdict["backlog_growing"] and not verdict["met"]


class _StallingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stall_on = 5
    seen = 0

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).seen += 1
        if type(self).seen == self.stall_on:
            time.sleep(0.2)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    _StallingHandler.seen = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        requests = [(i, b"{}") for i in range(20)]
        outcomes = loadgen.open_loop(server.server_address[1], requests,
                                     rate=200, duration=0.1, threads=1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert len(outcomes) == 20 and all(o.status == 200 for o in outcomes)
    stalled = outcomes[4]
    behind = outcomes[5]
    # Request 5 was due 5 ms after the stalled one but could only be sent
    # once it returned: timed from its due time it waited ~195 ms, timed
    # from its send it looks fast.  Its lag excludes that wait.
    assert stalled.latency >= 0.2
    assert behind.latency >= 0.19
    assert behind.done - behind.sent < behind.latency - 0.1
    assert behind.lag < behind.latency - 0.1


# -- names -------------------------------------------------------------------------


def _declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc


def test_benchmark_json_names_match_the_runner():
    doc = _declared()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layer == run.LAYER_UNITS
    names = [w["name"] for w in doc["workloads"]] + list(e2e) + list(layer)
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_result_line_carries_only_declared_names():
    doc = _declared()
    for units in (run.E2E_UNITS, run.LAYER_UNITS):
        line = result_line(True, 3, 0, {k: (1.5, u) for k, u in units.items()})
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = {m["name"] for m in doc["end_to_end"] + doc["per_layer"]}
        assert set(line["metrics"]) <= declared
        assert all(NAME_RE.match(n) for n in line["metrics"])


def test_runner_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "so-export",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_rules_match_tolerates_only_utility_rounding():
    rule = {"grouping": [1], "intervention": [2], "utility": 1.0,
            "utility_protected": 2.0, "coverage_count": 3}
    near = dict(rule, utility=1.0 + 1e-12)
    assert run.rules_match([near], [rule])
    assert not run.rules_match([dict(rule, utility=1.001)], [rule])
    assert not run.rules_match([dict(rule, coverage_count=4)], [rule])
    assert not run.rules_match([rule, rule], [rule])
