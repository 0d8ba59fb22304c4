"""The mining BLAS cap (:mod:`repro.parallel.blas`).

Mining runs every OpenBLAS copy at one thread: the calls are too narrow to
gain from BLAS threads, and thread count changes GEMM bits.  These tests
pin the scope's bookkeeping, the process-worker cap, the run report's
``meta.blas`` record, and the determinism the cap buys.
"""

from __future__ import annotations

import threading

import pytest

from tests.parallel.test_equivalence import (
    assert_identical_results,
    assert_same_cate,
)
from repro.core.config import FairCapConfig
from repro.core.faircap import FairCap
from repro.core.grouping import mine_grouping_patterns
from repro.core.intervention import (
    intervention_items,
    mine_interventions_for_groups,
)
from repro.datasets import load_german
from repro.parallel import ProcessExecutor, SerialExecutor, blas
from repro.parallel.blas import blas_libraries, single_threaded_blas
from repro.rules.utility import RuleEvaluator


def _threads() -> list[int]:
    return [lib.get_threads() for lib in blas_libraries()]


@pytest.fixture
def two_threads():
    """Every OpenBLAS copy at 2 threads for the test, restored afterwards."""
    libs = blas_libraries()
    if not libs:
        pytest.skip("no OpenBLAS library is loaded in this process")
    saved = [lib.get_threads() for lib in libs]
    for lib in libs:
        lib.set_threads(2)
    assert _threads() == [2] * len(libs)
    yield libs
    for lib, threads in zip(libs, saved):
        lib.set_threads(threads)


def test_scope_caps_every_library_and_restores(two_threads):
    with single_threaded_blas():
        assert _threads() == [1] * len(two_threads)
    assert _threads() == [2] * len(two_threads)


def test_nested_scopes_restore_only_at_the_last_exit(two_threads):
    with single_threaded_blas():
        with single_threaded_blas():
            assert _threads() == [1] * len(two_threads)
        assert _threads() == [1] * len(two_threads)
    assert _threads() == [2] * len(two_threads)


def test_concurrent_scopes_restore_only_at_the_last_exit(two_threads):
    entered, release = threading.Event(), threading.Event()
    seen: list[list[int]] = []

    def other_run() -> None:
        with single_threaded_blas():
            entered.set()
            release.wait(timeout=30)
        seen.append(_threads())

    worker = threading.Thread(target=other_run)
    worker.start()
    assert entered.wait(timeout=30)
    with single_threaded_blas():
        release.set()
        worker.join(timeout=30)
        # The other run has left its scope; this one is still mining.
        assert seen == [[1] * len(two_threads)]
        assert _threads() == [1] * len(two_threads)
    assert _threads() == [2] * len(two_threads)


def test_scope_is_a_no_op_without_openblas(two_threads, monkeypatch):
    monkeypatch.setattr(blas, "blas_libraries", lambda: ())
    with single_threaded_blas():
        assert [lib.get_threads() for lib in two_threads] == [2] * len(two_threads)
    assert blas.blas_info() == []


def _worker_threads(state, item):
    return item, [lib.get_threads() for lib in blas_libraries()]


def _no_state(payload):
    return payload


def test_process_workers_run_single_threaded(two_threads):
    results = ProcessExecutor(2).map_with_state(
        _no_state, None, _worker_threads, [0, 1, 2]
    )
    assert [item for item, _ in results] == [0, 1, 2]
    for _, threads in results:
        assert threads and set(threads) == {1}


def test_run_report_records_single_threaded_blas(two_threads, small_german_bundle):
    bundle = small_german_bundle
    config = FairCapConfig(
        max_grouping_size=1, max_values_per_attribute=3, telemetry=True
    )
    result = FairCap(config).run(
        bundle.table, bundle.schema, bundle.dag, bundle.protected
    )
    recorded = result.telemetry["meta"]["blas"]
    assert [entry["library"] for entry in recorded] == [
        lib.name for lib in two_threads
    ]
    assert {entry["threads"] for entry in recorded} == {1}
    assert _threads() == [2] * len(two_threads)


@pytest.mark.slow
def test_german_run_ignores_the_callers_blas_threads(two_threads):
    """Bit-identical whether the caller left BLAS at 2 threads or 1.

    Each run gets a freshly generated bundle, so no memoised design block
    or Gram product carries bits from one run into the other.
    """
    multi = load_german()
    reference = FairCap().run(multi.table, multi.schema, multi.dag, multi.protected)
    for lib in two_threads:
        lib.set_threads(1)
    single = load_german()
    candidate = FairCap().run(
        single.table, single.schema, single.dag, single.protected
    )
    assert_identical_results(reference, candidate)
    assert candidate.metrics == reference.metrics


@pytest.mark.slow
def test_step2_alone_matches_process_workers(two_threads):
    """Step 2 called as a layer, outside ``FairCap.run``, is capped too.

    Serial mining at the caller's 2 threads must match 2 process workers,
    which cap themselves at start-up.
    """

    def mine(executor):
        bundle = load_german()
        config = FairCapConfig()
        patterns = mine_grouping_patterns(
            bundle.table, bundle.schema, config, bundle.protected
        )
        evaluator = RuleEvaluator(
            bundle.table, bundle.schema.outcome_name, bundle.dag,
            bundle.protected, estimator=config.make_estimator(),
            min_subgroup_size=config.min_subgroup_size,
            cache=config.make_cache(),
        )
        items = intervention_items(bundle.table, bundle.schema, bundle.dag, config)
        return mine_interventions_for_groups(
            evaluator, patterns, items, config, executor=executor
        )

    serial_rules, serial_nodes = mine(SerialExecutor())
    process_rules, process_nodes = mine(ProcessExecutor(2))
    assert serial_nodes == process_nodes
    assert serial_rules == process_rules
    for got, want in zip(process_rules, serial_rules):
        assert_same_cate(got.estimate, want.estimate)
