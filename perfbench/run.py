"""End-to-end, layer-by-layer benchmark of the FairCap reproduction.

One command drives the program from outside, as a user runs it::

    python3 perfbench/run.py --workload so-export --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Workloads (see ``perfbench/README.md`` for why each exists):

- ``so-export``: repeated
  ``python -m repro export --dataset stackoverflow --artifact-dir DIR
  --activate`` in a fresh interpreter each time, one dataset seed per
  export derived from ``--seed``;
- ``serve-german``: ``python -m repro serve --artifact-dir DIR`` on the
  German export artifact, scored closed-loop over all 4,000 German rows;
  the traced run also drives it open-loop up a rate ladder with a hot
  reload in the nominal-rate phase.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes a
separate traced run (``perfbench/traced.py``) and prints every per-layer
metric.  Outputs are checked (reference artifacts, serial vs
``--workers 2`` and traced vs untraced bit-identity in the traced run,
per-response reference engines); any miss counts as a failure and makes
the command exit 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program runs with the caller's environment: no BLAS or OpenMP thread
variable is set for it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
REFERENCE = BENCH_DIR / "reference"
sys.path.insert(0, str(BENCH_DIR))

from loadgen import (  # noqa: E402
    MidRunAction,
    closed_loop,
    lags_ms,
    latencies_ms,
    open_loop,
    rate_verdict,
    request,
)
from measure import (  # noqa: E402
    percentile,
    proc_cpu_s,
    reap,
    result_line,
    run_timed,
    stolen_s,
    summarize,
    unstolen,
)

PY = sys.executable
DEFAULT_SEED = 7  # the CLI's generator seed (ExperimentSettings.seed)
SETUP_SAMPLES = 3
DATASET_SEED_STRIDE = 1000
UTILITY_RTOL = 1e-9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Open-loop ladder (req/s, phase seconds); the hot reload fires halfway
#: through the nominal-rate phase, and requests due from its start until
#: SETTLE_S after it returns form the reload window, kept out of the
#: phase's steady-state verdict and reported on their own.
LADDER = ((250, 0.8), (500, 0.8), (1000, 2.5), (1500, 1.0), (2000, 1.0))
NOMINAL_RATE = 1000
SETTLE_S = 0.25
LATENCY_LIMIT_MS = 5.0
LOAD_THREADS = 2
SERVE_JOBS = 3  # closed-loop jobs at least, more while --seconds lasts
#: v2 of a served artifact shifts every utility by this much, so each
#: response says which version answered it (a hybrid is detectable).
UTILITY_SHIFT = 1000.0

WORKLOADS = {
    "so-export": {"dataset": "stackoverflow", "min_exports": 2},
    "serve-german": {"dataset": "german", "serve": True},
}

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "error_rate": "ratio",
    "import.repro_s": "s",
    "import.serve_http_s": "s",
    "datasets.load_s": "s",
    "grouping.mine_s": "s",
    "grouping.patterns": "count",
    "intervention.mine_s": "s",
    "intervention.cpu_s": "s",
    "intervention.nodes": "count",
    "intervention.nodes_per_s": "1/s",
    "causal.columns": "count",
    "causal.factorizations.gram": "count",
    "causal.factorizations.gram_reduced": "count",
    "causal.factorizations.gram_subtracted": "count",
    "causal.factorizations.qr_collinear": "count",
    "causal.scalar_fallbacks": "count",
    "causal.scalar_fallback_rate": "ratio",
    "mining.candidates": "count",
    "mining.pruned": "count",
    "mining.prune_rate": "ratio",
    "cache.estimation.hit_rate": "ratio",
    "cache.factorization.hits": "count",
    "cache.factorization.misses": "count",
    "cache.factorization.evictions": "count",
    "cache.factorization.hit_rate": "ratio",
    "parallel.cpu_per_wall": "ratio",
    "parallel.respawns": "count",
    "parallel.retries": "count",
    "parallel.shm_fallbacks": "count",
    "greedy.select_s": "s",
    "registry.publish_s": "s",
    "registry.activate_s": "s",
    "artifact.load_s": "s",
    "engine.compile_s": "s",
    "engine.prescribe_us": "us",
    "engine.cache_hit_rate": "ratio",
    "index.match_us": "us",
    "service.prescribe_us": "us",
    "service.activate_s": "s",
    "http.server_p99_ms": "ms",
    "http.rejected": "count",
    "http.wait_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "serve.p50_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.max_rps": "1/s",
    "serve.reload_p99_ms": "ms",
    "serve.cpu_ms_per_req": "ms",
    "trace.overhead_s": "s",
}

#: Counts that must repeat exactly across two traced runs of one seed on
#: the serial executor, and that later changes diff against the baseline.
COUNT_KEYS = tuple(
    k for k, unit in LAYER_UNITS.items()
    if unit in ("count", "ratio") and k.split(".")[0] in
    ("grouping", "intervention", "causal", "mining", "cache")
)


PARALLEL_KEYS = tuple(k for k in LAYER_UNITS if k.startswith("parallel."))


class Checks:
    """Attempted / failed tally with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def log(*parts) -> None:
    print(*parts, flush=True)


# -- environment -----------------------------------------------------------------


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def environment_block() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "schedulable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


ENV_NOTE = (
    "note: no BLAS thread variable is set for the program. With OpenBLAS's "
    "default of one thread per CPU, process workers oversubscribe a 2-CPU "
    "box: export --workers 2 on German measured 5.7-7.7 s against ~3 s "
    "serial, SO 42-50 s against ~20 s; with OPENBLAS_NUM_THREADS=1 German "
    "2-worker runs take 3.0-3.3 s and SO serial Step 2 drops from 16.1 s "
    "to 6.6 s. so-export and the traced --workers 2 run read slow for "
    "that reason."
)


# -- mining workloads ------------------------------------------------------------


def cli(*args) -> list[str]:
    return [PY, "-m", "repro", *args]


def measure_setup(env, work, checks) -> list[float]:
    """Spawn-to-exit of ``python -m repro --version``, several times."""
    samples = []
    for i in range(SETUP_SAMPLES):
        log_path = work / f"version-{i}.log"
        run = run_timed(cli("--version"), env, ROOT, log_path)
        ok = run.returncode == 0 and log_path.read_text().startswith("repro ")
        checks.check(ok, f"--version failed: {log_path.read_text()[-300:]}")
        samples.append(run.unstolen_s)
    return samples


def export(env, work, tag, dataset, seed):
    """One ``repro export --activate`` into a fresh registry."""
    registry = work / f"reg-{tag}"
    shutil.rmtree(registry, ignore_errors=True)
    args = ["export", "--dataset", dataset, "--seed", str(seed),
            "--artifact-dir", str(registry), "--activate"]
    run = run_timed(cli(*args), env, ROOT, work / f"export-{tag}.log")
    artifact = None
    if run.returncode == 0:
        artifact = json.loads((registry / "v000001.json").read_text())
    return run, artifact


def reference_artifact(dataset: str) -> dict:
    return json.loads(
        (REFERENCE / f"{dataset}-seed{DEFAULT_SEED}.json").read_text()
    )


def rules_match(got: list, want: list, rtol: float = UTILITY_RTOL) -> bool:
    """Same rules in order; utilities within ``rtol``, the rest exact."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if a.keys() != b.keys():
            return False
        for key in a:
            if key.startswith("utility"):
                if not math.isclose(a[key], b[key], rel_tol=rtol, abs_tol=0.0):
                    return False
            elif a[key] != b[key]:
                return False
    return True


def check_export(checks, run, artifact, dataset, seed, log_path):
    ok = checks.check(
        run.returncode == 0 and artifact is not None
        and artifact["metadata"]["seed"] == seed and len(artifact["rules"]) > 0,
        f"export {dataset} seed={seed} failed: "
        f"{log_path.read_text()[-300:] if log_path.exists() else ''}",
    )
    if ok:
        check_reference(checks, artifact["rules"], dataset, seed)
    return ok


def check_reference(checks, rules, dataset, seed) -> None:
    """At the default seed, compare with the committed reference artifact."""
    if seed == DEFAULT_SEED:
        checks.check(rules_match(rules, reference_artifact(dataset)["rules"]),
                     f"{dataset} seed={seed}: rules differ from reference")


def fits(runs, start, seconds) -> bool:
    """Whether one more sample, as long as the median so far, ends in time.

    Runs then end near ``--seconds`` instead of overshooting it by up to
    one sample, which keeps the whole benchmark inside its time budget.
    """
    expected = statistics.median(r.wall_s for r in runs) if runs else 0.0
    return time.perf_counter() - start + expected <= seconds


def mining_workload(spec, seed, seconds, env, work, checks) -> dict:
    dataset = spec["dataset"]
    setup = measure_setup(env, work, checks)
    runs = []
    start = time.perf_counter()
    i = 0
    while i < spec["min_exports"] or fits(runs, start, seconds):
        ds_seed = seed + DATASET_SEED_STRIDE * i
        run, artifact = export(env, work, f"{i}", dataset, ds_seed)
        check_export(checks, run, artifact, dataset, ds_seed,
                     work / f"export-{i}.log")
        log(f"  export {dataset} seed={ds_seed}: "
            f"wall {run.wall_s:.3f} s (steal {run.steal_s:.2f} s), "
            f"cpu {run.cpu_s:.3f} s, peak rss {run.peak_rss_mb:.0f} MB")
        runs.append(run)
        i += 1
    return {
        "wall_s": statistics.median(r.unstolen_s for r in runs),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "_samples": {"wall_s": [r.unstolen_s for r in runs],
                     "setup_s": setup},
    }


# -- serving ---------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A ``python -m repro serve`` child, timed from spawn.

    :meth:`elapsed` and :attr:`ready_s` are wall time since spawn less the
    time stolen meanwhile (:func:`measure.unstolen`).
    """

    def __init__(self, env, work, registry, tag) -> None:
        self.port = free_port()
        self.log_path = work / f"serve-{tag}.log"
        self._log = open(self.log_path, "wb")
        self.steal_before = stolen_s()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cli("serve", "--artifact-dir", str(registry),
                "--port", str(self.port)),
            env=env, cwd=ROOT, stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self.ready_s = self._wait_ready()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self._log.close()
            raise

    def _wait_ready(self, timeout: float = 60.0) -> float:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited: {self.log_path.read_text()[-500:]}")
            try:
                status, _ = request(self.port, "GET", "/v1/health")
                if status == 200:
                    return self.elapsed()
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server not ready within 60 s")

    def elapsed(self) -> float:
        return unstolen(time.perf_counter() - self.started,
                        stolen_s() - self.steal_before)

    def stop(self):
        """SIGTERM (graceful drain), then reap: returns a ProcessRun."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            return reap(self.proc, self.started, self.steal_before)
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                self.proc.wait()
            self._log.close()


def shifted(artifact: dict) -> dict:
    """``artifact`` with every utility shifted by :data:`UTILITY_SHIFT`."""
    out = json.loads(json.dumps(artifact))
    for rule in out["rules"]:
        for key in ("utility", "utility_protected", "utility_non_protected"):
            rule[key] += UTILITY_SHIFT
    return out


class ServeFixture:
    """Registry, request bodies and per-version expected answers."""

    def __init__(self, work, dataset, rows_seed, artifact, order_seed) -> None:
        from repro.datasets.registry import load_dataset
        from repro.experiments.settings import ExperimentSettings
        from repro.serve.artifact import ServingArtifact
        from repro.serve.engine import PrescriptionEngine
        from repro.serve.registry import ArtifactRegistry
        from repro.serve.schemas import prescription_payload

        n = ExperimentSettings.from_environment().rows_for(dataset)
        table = load_dataset(dataset, n=n, rng=rows_seed).table
        rows = [
            {k: (v.item() if hasattr(v, "item") else v) for k, v in r.items()}
            for r in table.to_rows()
        ]
        order = list(range(len(rows)))
        random.Random(order_seed).shuffle(order)
        self.requests = [
            (i, json.dumps({"individual": rows[i]}).encode()) for i in order
        ]
        self.versions = {1: artifact, 2: shifted(artifact)}
        self.expected = {}
        for version, payload in self.versions.items():
            engine = PrescriptionEngine.from_artifact(
                ServingArtifact.from_dict(payload), cache_size=0)
            self.expected[version] = [
                json.loads(json.dumps(
                    prescription_payload(engine.prescribe(r)).to_payload()))
                for r in rows
            ]
        self.registry_dir = work / "serve-registry"
        shutil.rmtree(self.registry_dir, ignore_errors=True)
        self.registry = ArtifactRegistry(self.registry_dir)
        self.registry.activate(
            self.registry.publish(ServingArtifact.from_dict(artifact)))

    def writer(self, env, work) -> subprocess.Popen:
        """A child that publishes v2 into the registry on request.

        Publishing from a separate interpreter keeps the write's JSON
        encoding and fsync off the load generator's threads.
        """
        source = work / "v2.json"
        source.write_text(json.dumps(self.versions[2]))
        proc = subprocess.Popen(
            [PY, str(BENCH_DIR / "traced.py"), "--publish", str(source),
             "--registry", str(self.registry_dir)],
            env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        if proc.stdout.readline().strip() != "ready":
            raise RuntimeError("artifact writer did not start")
        return proc

    def reset(self) -> None:
        """Back to a registry holding only v1, active."""
        for record in self.registry.list_versions():
            if record.version != 1:
                record.path.unlink()
        self.registry.activate(1)

    def check(self, checks, outcomes, allowed_versions) -> None:
        """Every response against the reference engine of its version.

        ``allowed_versions(outcome)`` says which versions may answer it.
        """
        for o in outcomes:
            allowed = allowed_versions(o)
            ok = o.status == 200
            if ok:
                payload = json.loads(o.body)
                version = payload.get("ruleset_version")
                ok = (
                    version in allowed
                    and payload.get("prescription")
                    == self.expected[version][o.row]
                )
            checks.check(ok, f"row {o.row}: status {o.status} "
                         f"(allowed versions {sorted(allowed)}) "
                         f"body {o.body[:300]!r}")


def run_ladder(env, work, fixture, checks) -> dict:
    """Open-loop rate ladder with a hot reload in the nominal phase."""
    fixture.reset()
    writer = fixture.writer(env, work)
    server = Server(env, work, fixture.registry_dir, "ladder")
    verdicts, reload = {}, {}
    try:
        for rate, duration in LADDER:
            if rate != NOMINAL_RATE:
                outcomes = open_loop(server.port, fixture.requests, rate,
                                     duration, threads=LOAD_THREADS)
                fixture.check(checks, outcomes,
                              lambda o: {2} if reload else {1})
                verdicts[rate] = rate_verdict(outcomes, LATENCY_LIMIT_MS)
                log_rate(rate, duration, verdicts[rate])
                continue

            def activate():
                writer.stdin.write("publish\n")
                writer.stdin.flush()
                version = int(writer.stdout.readline())
                status, body = request(
                    server.port, "POST", "/v1/artifacts/activate",
                    json.dumps({"version": version}).encode())
                if status != 200:
                    raise RuntimeError(f"activate: {status} {body!r}")

            hook = MidRunAction(duration / 2, activate)
            cpu0 = proc_cpu_s(server.proc.pid)
            outcomes = open_loop(server.port, fixture.requests, rate,
                                 duration, threads=LOAD_THREADS, hook=hook)
            cpu = proc_cpu_s(server.proc.pid) - cpu0
            checks.check(hook.error is None, f"hot reload failed: {hook.error!r}")
            lo, hi = hook.window

            def allowed(o):
                # Answered before the swap began: v1.  Sent after the
                # activation returned: v2.  In between: either, whole.
                if o.done < lo:
                    return {1}
                return {2} if o.sent > hi else {1, 2}

            fixture.check(checks, outcomes, allowed)
            window = [o for o in outcomes if lo <= o.due <= hi + SETTLE_S]
            steady = [o for o in outcomes
                      if not lo <= o.due <= hi + SETTLE_S]
            lat = latencies_ms(steady)
            reload = {
                "nominal": summarize(lat),
                "p50_ms": percentile(lat, 50),
                "p99_ms": percentile(lat, 99),
                "lag_p99_ms": percentile(lags_ms(outcomes), 99),
                "reload_window": summarize(latencies_ms(window)),
                "reload_p99_ms": percentile(latencies_ms(window), 99),
                "cpu_ms_per_req": cpu * 1e3 / len(outcomes),
            }
            verdicts[rate] = rate_verdict(steady, LATENCY_LIMIT_MS)
            log_rate(rate, duration, verdicts[rate])
        status, metrics_text = request(server.port, "GET", "/v1/metrics")
        checks.check(status == 200, "/v1/metrics scrape failed")
    finally:
        run = server.stop()
        writer.stdin.close()
        writer.stdout.close()
        checks.check(writer.wait() == 0, "artifact writer failed")
    met = [rate for rate, verdict in verdicts.items() if verdict["met"]]
    return {
        **reload,
        "ready_s": server.ready_s,
        "peak_rss_mb": run.peak_rss_mb,
        "max_rps": float(max(met)) if met else 0.0,
        "prometheus": metrics_text.decode(),
    }


def log_rate(rate, duration, verdict) -> None:
    log(f"  open loop {rate:>5} req/s x {duration:.1f} s: "
        f"p50 {verdict['p50_ms']:.3f} ms, p99 {verdict['p_ms']:.3f} ms, "
        f"lag p99 {verdict['lag_ms']:.3f} ms, failed {verdict['failed']}"
        f"{', backlog growing' if verdict['backlog_growing'] else ''}"
        f"{', generator behind' if verdict['generator_behind'] else ''}"
        f" -> {'met' if verdict['met'] else 'UNMET'}")


def prometheus_p99_ms(text: str, path: str = "/v1/prescribe") -> float:
    """p99 upper bucket bound of ``http.request_seconds`` for ``path``."""
    buckets = []
    for line in text.splitlines():
        if line.startswith("http_request_seconds_bucket{") and \
                f'path="{path}"' in line:
            labels, count = line.rsplit(" ", 1)
            le = labels.split('le="', 1)[1].split('"', 1)[0]
            buckets.append((math.inf if le == "+Inf" else float(le),
                            float(count)))
    if not buckets:
        return math.nan
    buckets.sort()
    total = buckets[-1][1]
    for bound, count in buckets:
        if count >= 0.99 * total:
            return bound * 1e3
    return math.inf


def prometheus_count(text: str, prefix: str, needle: str) -> float:
    return sum(
        float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
        if line.startswith(prefix) and needle in line
    )


def serve_workload(seed, seconds, env, work, checks) -> dict:
    artifact = reference_artifact("german")
    fixture = ServeFixture(work, "german", DEFAULT_SEED, artifact, seed)
    jobs, setup, scored = [], [], []
    start = time.perf_counter()
    while len(jobs) < SERVE_JOBS or fits(jobs, start, seconds):
        fixture.reset()
        server = Server(env, work, fixture.registry_dir, f"job{len(jobs)}")
        try:
            outcomes = closed_loop(server.port, fixture.requests,
                                   threads=LOAD_THREADS)
            # Spawn to the last answer: the server's exit after SIGTERM
            # waits on its accept loop's 0.5 s poll, which is noise here.
            scored.append(server.elapsed())
        finally:
            run = server.stop()
        fixture.check(checks, outcomes, lambda o: {1})
        checks.check(run.returncode == 0,
                     f"server exit code {run.returncode}")
        setup.append(server.ready_s)
        jobs.append(run)
        log(f"  serve job {len(jobs)}: ready {server.ready_s:.3f} s, "
            f"{len(outcomes)} requests closed-loop, last answer "
            f"{scored[-1]:.3f} s, spawn-to-exit {run.wall_s:.3f} s "
            f"(steal {run.steal_s:.2f} s), cpu {run.cpu_s:.3f} s")
    return {
        "wall_s": statistics.median(scored),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(r.cpu_s for r in jobs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in jobs),
        "_samples": {"wall_s": scored, "setup_s": setup},
    }


def report_ladder(ladder: dict) -> None:
    nominal, window = ladder["nominal"], ladder["reload_window"]
    log(f"  nominal {NOMINAL_RATE} req/s outside the reload window: "
        f"p50_ms {ladder['p50_ms']:.3f}, p99_ms {ladder['p99_ms']:.3f}, "
        f"p{nominal['tail_q']:.2f} {nominal['tail']:.3f} ms (n={nominal['n']}); "
        f"max_rps {ladder['max_rps']:.0f} req/s at p99 <= {LATENCY_LIMIT_MS} ms")
    tail = (f"p{window['tail_q']:.1f} {window['tail']:.3f} ms"
            if "tail" in window else "too few for a tail percentile")
    log(f"  reload window: n={window['n']}, p99 "
        f"{ladder['reload_p99_ms']:.3f} ms, {tail}; cpu_ms_per_req "
        f"{ladder['cpu_ms_per_req']:.4f} ms")


# -- traced run ------------------------------------------------------------------


def traced_child(env, work, tag, dataset, seed, workers, untraced=False):
    out = work / f"trace-{tag}.json"
    registry = work / f"trace-reg-{tag}"
    shutil.rmtree(registry, ignore_errors=True)
    argv = [PY, str(BENCH_DIR / "traced.py"), "--dataset", dataset,
            "--seed", str(seed), "--workers", str(workers),
            "--registry", str(registry), "--out", str(out)]
    if untraced:
        argv.append("--untraced")
    run = run_timed(argv, env, ROOT, work / f"trace-{tag}.log")
    return json.loads(out.read_text()) if run.returncode == 0 else None


def traced_workload(spec, seed, env, work, checks) -> dict:
    dataset = spec["dataset"]
    run = run_timed([PY, str(BENCH_DIR / "traced.py"), "--import-only",
                     "repro.serve.http"], env, ROOT, work / "import.log")
    checks.check(run.returncode == 0, "import of repro.serve.http failed")
    import_serve = json.loads((work / "import.log").read_text())["import_s"]

    # Serial with telemetry off, then traced twice: the counts of the two
    # traced runs must come out identical.  On German a traced
    # ``--workers 2`` run covers repro.parallel (on StackOverflow that
    # export takes 42-50 s here, so its parallel.* come from the serial
    # run); every run's rules must equal the untraced serial run's.
    tags = ["untraced", "0", "1"] + (["w2"] if dataset == "german" else [])
    children = {}
    for tag in tags:
        result = traced_child(env, work, tag, dataset, seed,
                              workers=2 if tag == "w2" else 1,
                              untraced=tag == "untraced")
        if not checks.check(result is not None, f"child run {tag} failed"):
            log_tail = (work / f"trace-{tag}.log").read_text()[-1000:]
            raise RuntimeError(f"child run {tag} failed: {log_tail}")
        children[tag] = result
    untraced, result = children["untraced"], children["0"]
    artifact = json.loads(
        (work / "trace-reg-untraced" / "v000001.json").read_text())
    check_reference(checks, artifact["rules"], dataset, seed)
    for tag in tags[1:]:
        checks.check(children[tag]["rules"] == untraced["rules"],
                     f"traced run {tag}: rules not bit-identical to the "
                     "untraced run")
    a = {k: result["counts"][k] for k in COUNT_KEYS}
    b = {k: children["1"]["counts"][k] for k in COUNT_KEYS}
    checks.check(a == b, "counts differ between two traced runs: " + str(
        {k: (a[k], b[k]) for k in a if a[k] != b[k]}))
    if seed == DEFAULT_SEED:
        diff_baseline(dataset, result["counts"])

    metrics = dict(result["metrics"])
    metrics.update(result["counts"])
    parallel = children.get("w2", result)
    for key in PARALLEL_KEYS:
        metrics[key] = {**parallel["metrics"], **parallel["counts"]}[key]
    metrics["import.serve_http_s"] = import_serve
    metrics["trace.overhead_s"] = result["export_s"] - untraced["export_s"]
    log(f"  export phase: traced {result['export_s']:.3f} s, untraced "
        f"{untraced['export_s']:.3f} s")
    log("  self time by span (s): " + ", ".join(
        f"{k} {v:.4f}" for k, v in result["self_times"].items()))

    fixture = ServeFixture(work, dataset, seed, artifact, seed)
    ladder = run_ladder(env, work, fixture, checks)
    report_ladder(ladder)
    text = ladder["prometheus"]
    metrics.update({
        "http.server_p99_ms": prometheus_p99_ms(text),
        "http.rejected": prometheus_count(
            text, "http_requests_total", 'status="503"'),
        "http.wait_ms": ladder["p50_ms"] - metrics["service.prescribe_us"] / 1e3,
        "loadgen.lag_p99_ms": ladder["lag_p99_ms"],
        "serve.p50_ms": ladder["p50_ms"],
        "serve.p99_ms": ladder["p99_ms"],
        "serve.max_rps": ladder["max_rps"],
        "serve.reload_p99_ms": ladder["reload_p99_ms"],
        "serve.cpu_ms_per_req": ladder["cpu_ms_per_req"],
    })
    return metrics


def diff_baseline(dataset: str, counts: dict) -> None:
    """Print how the counts differ from the committed count baseline."""
    path = REFERENCE / "counts.json"
    baseline = json.loads(path.read_text()).get(dataset, {})
    changed = {
        k: (baseline.get(k), counts[k]) for k in COUNT_KEYS
        if baseline.get(k) != counts[k]
    }
    if changed:
        log(f"  count baseline ({path.name}, {dataset}): changed "
            + ", ".join(f"{k} {a} -> {b}" for k, (a, b) in changed.items()))
    else:
        log(f"  count baseline ({path.name}, {dataset}): all "
            f"{len(COUNT_KEYS)} counts match")


# -- runner ----------------------------------------------------------------------


def run_workload(name, seed, seconds, trace) -> dict:
    spec = WORKLOADS[name]
    env = program_env()
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    log(f"== {name} (seed {seed}, {seconds} s, trace {trace})")
    try:
        if trace:
            values = traced_workload(spec, seed, env, work, checks)
            units = LAYER_UNITS
        elif spec.get("serve"):
            values = serve_workload(seed, seconds, env, work, checks)
            units = E2E_UNITS
        else:
            values = mining_workload(spec, seed, seconds, env, work, checks)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values["error_rate"] = (
        checks.failed / checks.attempted if checks.attempted else 1.0
    )
    for key, samples in values.pop("_samples", {}).items():
        log(f"  {key} samples: " + " ".join(f"{v:.4f}" for v in samples))
    for note in checks.notes:
        log(f"  FAIL {note}")
    for key, value in values.items():
        if key in E2E_UNITS or key in LAYER_UNITS:
            unit = E2E_UNITS.get(key) or LAYER_UNITS[key]
            log(f"  {key:<40} {value:.6g} {unit}")
    metrics = {k: (values[k], unit) for k, unit in units.items()}
    return result_line(checks.failed == 0, checks.attempted, checks.failed,
                       metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its children and removes its scratch
    # directory: SystemExit unwinds through every ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env_block = environment_block()
    log("environment: " + json.dumps(env_block))
    log(ENV_NOTE)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        if len(names) > 1:
            log(f"{name}: " + json.dumps(results[name]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
