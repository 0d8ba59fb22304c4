"""Traced child: the export -> serve pipeline, one span per layer call.

Run in a fresh interpreter by ``perfbench/run.py --trace 1``::

    PYTHONPATH=src python3 perfbench/traced.py --dataset german --seed 7 \\
        --workers 1 --registry DIR --out trace.json
    PYTHONPATH=src python3 perfbench/traced.py --import-only repro.serve.http
    PYTHONPATH=src python3 perfbench/traced.py --publish ARTIFACT.json \
        --registry DIR

The last form is the hot-reload writer of the serving ladder: it imports
the registry, prints ``ready``, waits for a line on stdin, publishes the artifact as the next
version and prints the version number, so the write runs beside the
server's reads without stalling the load generator's own interpreter.

It calls each layer's public function in pipeline order -- the same calls
``FairCap.run`` and ``python -m repro export --activate`` make -- with a
span around each, then exercises the serving layers in-process on the
artifact it published.  Counts come from the run report the program emits
under ``FairCapConfig(telemetry=True)``.  Spans stay in memory and are
written once, with the metrics, to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import Tracer, percentile  # noqa: E402

VARIANT = "Group fairness"
MICRO_ROWS = 2000


def _tree_cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _labeled(counters: dict, name: str, **labels) -> float:
    """Sum of a report counter over the series carrying ``labels``."""
    want = {f"{k}={v}" for k, v in labels.items()}
    values = counters.get(name, {}).get("values", {})
    return float(sum(
        v for key, v in values.items()
        if want <= (set(key.split(",")) if key else set())
    ))


def report_counts(report: dict, nodes: int, patterns: int) -> dict:
    """The count-valued per-layer metrics, read from a run report."""
    c = report["counters"]
    derived = report["derived"]

    def rate(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    est_hits = _labeled(c, "cache.lookups", tier="estimation", outcome="hit")
    est_miss = _labeled(c, "cache.lookups", tier="estimation", outcome="miss")
    fac_hits = _labeled(c, "cache.lookups", tier="factorization", outcome="hit")
    fac_miss = _labeled(c, "cache.lookups", tier="factorization", outcome="miss")
    counts = {
        "grouping.patterns": patterns,
        "intervention.nodes": nodes,
        "causal.columns": _labeled(c, "mining.estimated_columns"),
        "causal.scalar_fallbacks": _labeled(c, "estimation.scalar_fallbacks"),
        "causal.scalar_fallback_rate": derived["scalar_fallback_rate"],
        "mining.candidates": _labeled(c, "mining.candidates"),
        "mining.pruned": _labeled(c, "mining.pruned"),
        "mining.prune_rate": derived["prune_rate"],
        "cache.estimation.hit_rate": rate(est_hits, est_miss),
        "cache.factorization.hits": fac_hits,
        "cache.factorization.misses": fac_miss,
        "cache.factorization.evictions": _labeled(
            c, "cache.evictions", tier="factorization"),
        "cache.factorization.hit_rate": rate(fac_hits, fac_miss),
        "parallel.respawns": _labeled(c, "pool.respawns"),
        "parallel.retries": _labeled(c, "retry.attempts"),
        "parallel.shm_fallbacks": _labeled(c, "shm.fallbacks"),
    }
    for route in ("gram", "gram_reduced", "gram_subtracted", "qr_collinear"):
        counts[f"causal.factorizations.{route}"] = _labeled(
            c, "estimation.factorizations", route=route)
    return counts


def _micro(fn, args_list) -> list[float]:
    """Per-call microseconds of ``fn(*args)`` over ``args_list``."""
    out = []
    for args in args_list:
        start = time.perf_counter()
        fn(*args)
        out.append((time.perf_counter() - start) * 1e6)
    return out


def run_pipeline(args) -> dict:
    tracer = Tracer()
    span = tracer.span
    started = time.perf_counter()

    with span("import.repro"):
        import repro  # noqa: F401
    with span("import.pipeline"):
        import dataclasses

        from repro.core.grouping import mine_grouping_patterns
        from repro.core.greedy import greedy_select
        from repro.core.intervention import (
            intervention_items,
            mine_interventions_for_groups,
        )
        from repro.datasets.registry import load_dataset
        from repro.experiments.settings import ExperimentSettings
        from repro.obs import build_report, telemetry_session
        from repro.rules.ruleset import RulesetEvaluator
        from repro.rules.utility import RuleEvaluator
        from repro.serve.artifact import ServingArtifact, rule_to_dict
        from repro.serve.engine import PrescriptionEngine
        from repro.serve.registry import ArtifactRegistry
        from repro.serve.schemas import ActivateRequest, PrescribeRequest
        from repro.serve.service import PrescriptionService

    base = ExperimentSettings.from_environment()
    settings = dataclasses.replace(base, seed=args.seed, n_workers=args.workers)
    with span("datasets.load"):
        bundle = load_dataset(
            args.dataset, n=settings.rows_for(args.dataset), rng=args.seed
        )
    table, schema, dag, protected = (
        bundle.table, bundle.schema, bundle.dag, bundle.protected
    )
    variant = settings.variants_for(bundle)[VARIANT]
    config = dataclasses.replace(
        settings.config_for(bundle, variant), telemetry=not args.untraced
    )
    executor = config.make_executor()
    cache = config.make_cache()

    with telemetry_session(enabled=config.telemetry) as telemetry:
        baseline = cache.tier_stats() if cache is not None else None
        with span("grouping.mine"):
            patterns = mine_grouping_patterns(table, schema, config, protected)
        cpu0 = _tree_cpu()
        with span("intervention.mine") as mine_span:
            evaluator = RuleEvaluator(
                table, schema.outcome_name, dag, protected,
                estimator=config.make_estimator(),
                min_subgroup_size=config.min_subgroup_size,
                cache=cache,
            )
            items = intervention_items(table, schema, dag, config)
            rules, nodes = mine_interventions_for_groups(
                evaluator, patterns, items, config, executor=executor
            )
        intervention_cpu = _tree_cpu() - cpu0
        with span("greedy.select"):
            greedy = greedy_select(
                RulesetEvaluator(table, rules, protected), config
            )
        if cache is not None:
            cache.emit_counters(telemetry.registry, baseline)
        report = build_report(telemetry) if config.telemetry else None

    artifact = ServingArtifact(
        ruleset=greedy.ruleset, schema=schema, protected=protected,
        metadata={
            "dataset": args.dataset, "variant": VARIANT,
            "n_rows": table.n_rows, "seed": args.seed,
            "expected_utility": greedy.metrics.expected_utility,
            "coverage": greedy.metrics.coverage,
        },
    )
    registry = ArtifactRegistry(args.registry)
    with span("registry.publish"):
        version = registry.publish(artifact)
    with span("registry.activate"):
        registry.activate(version)
    export_s = time.perf_counter() - started
    if args.untraced:
        return {"export_s": export_s,
                "rules": [rule_to_dict(r) for r in greedy.ruleset]}

    # -- serving layers, in-process, on the artifact just published ----------
    with span("artifact.load"):
        loaded = ServingArtifact.load(str(registry.path_for(version)))
    with span("engine.compile"):
        engine = PrescriptionEngine.from_artifact(loaded)
    picker = random.Random(args.seed)
    all_rows = table.to_rows()
    rows = [all_rows[picker.randrange(len(all_rows))] for _ in range(MICRO_ROWS)]
    with span("engine.prescribe"):
        prescribe_us = _micro(engine.prescribe, [(r,) for r in rows])
    cache_info = engine.cache_info()
    with span("index.match_row"):
        match_us = _micro(engine.index.match_row, [(r,) for r in rows])
    service = PrescriptionService.from_registry(registry)
    requests = [(PrescribeRequest.parse({"individual": r}),) for r in rows]
    with span("service.prescribe"):
        service_us = _micro(
            lambda req: service.prescribe(req, service.state), requests
        )
    v2 = registry.publish(loaded)
    with span("service.activate"):
        service.activate(ActivateRequest.parse({"version": v2}))

    durations = tracer.durations()
    lookups = cache_info["hits"] + cache_info["misses"]
    metrics = {
        "import.repro_s": durations["import.repro"],
        "datasets.load_s": durations["datasets.load"],
        "grouping.mine_s": durations["grouping.mine"],
        "intervention.mine_s": mine_span.duration,
        "intervention.cpu_s": intervention_cpu,
        "intervention.nodes_per_s": nodes / mine_span.duration,
        "parallel.cpu_per_wall": intervention_cpu / mine_span.duration,
        "greedy.select_s": durations["greedy.select"],
        "registry.publish_s": durations["registry.publish"],
        "registry.activate_s": durations["registry.activate"],
        "artifact.load_s": durations["artifact.load"],
        "engine.compile_s": durations["engine.compile"],
        "engine.prescribe_us": percentile(prescribe_us, 50),
        "engine.cache_hit_rate": cache_info["hits"] / lookups if lookups else 0.0,
        "index.match_us": percentile(match_us, 50),
        "service.prescribe_us": percentile(service_us, 50),
        "service.activate_s": durations["service.activate"],
    }
    counts = report_counts(report, nodes, len(patterns))
    return {
        "metrics": metrics,
        "counts": counts,
        "rules": [rule_to_dict(r) for r in greedy.ruleset],
        "export_s": export_s,
        "self_times": tracer.self_times(),
        "spans": tracer.to_dicts(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--import-only", default=None, metavar="MODULE")
    parser.add_argument("--publish", default=None, metavar="ARTIFACT")
    parser.add_argument("--dataset", default="german")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--registry", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--untraced", action="store_true",
                        help="run telemetry off and stop after the export, "
                             "the baseline for tracing overhead")
    args = parser.parse_args(argv)
    if args.publish:
        from repro.serve.artifact import ServingArtifact
        from repro.serve.registry import ArtifactRegistry

        artifact = ServingArtifact.load(args.publish)
        registry = ArtifactRegistry(args.registry)
        print("ready", flush=True)
        sys.stdin.readline()
        print(registry.publish(artifact), flush=True)
        return 0
    if args.import_only:
        import importlib

        start = time.perf_counter()
        importlib.import_module(args.import_only)
        print(json.dumps({"import_s": time.perf_counter() - start}))
        return 0
    result = run_pipeline(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
