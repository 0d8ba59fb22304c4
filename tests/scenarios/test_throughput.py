"""The per-context Step-2 engine against the scenario oracle.

The default frontier engine buys its throughput by advancing every
grouping context's lattice in lock-step; ``frontier_batching=False``
keeps the per-context, level-batched engine, which holds one context's
state at a time and is the low-memory choice (the memory-cap probe runs
it).  The differential suite pins it to the frontier engine on toy data
only, so this module certifies it on every grid world: its estimates
must sit inside the same analytic CATE bands, satisfy the same
fairness/coverage constraints, recover the planted ruleset at the
recovery tier, and track the frontier engine within the batch ≡ scalar
tolerance with identical rule selection.
"""

from __future__ import annotations

import pytest

from repro.scenarios import ScenarioWorld, check_cate_recovery, check_fairness
from repro.scenarios.oracle import (
    BATCH_RTOL,
    check_planted_recovery,
    oracle_config,
    run_world,
    _compare_results,
)

from tests.scenarios.conftest import BASE_N, SPECS, ScenarioRun

pytestmark = pytest.mark.scenario


def _build_per_context_run(name: str, n: int) -> ScenarioRun:
    world = ScenarioWorld(SPECS[name])
    bundle = world.bundle(n)
    config = oracle_config(world, frontier_batching=False)
    return ScenarioRun(world, bundle, run_world(world, bundle, config))


@pytest.fixture(scope="module", params=sorted(SPECS), ids=lambda n: n)
def per_context_run(request) -> ScenarioRun:
    """One per-context-engine FairCap run per grid world (base tier)."""
    return _build_per_context_run(request.param, BASE_N)


def test_cate_estimates_match_truth(per_context_run):
    problems = check_cate_recovery(per_context_run.world, per_context_run.result)
    assert not problems, "\n".join(problems)


def test_fairness_constraints_hold(per_context_run):
    problems = check_fairness(per_context_run.result)
    assert not problems, "\n".join(problems)


def test_tracks_default_engine_at_rtol(per_context_run):
    """Same candidates, same selection, utilities within BATCH_RTOL."""
    reference = run_world(per_context_run.world, per_context_run.bundle)
    problems = _compare_results(
        reference,
        per_context_run.result,
        BATCH_RTOL,
        "per-context-vs-frontier",
    )
    assert not problems, "\n".join(problems)


RECOVERY_NAMES = sorted(
    name for name, spec in SPECS.items() if spec.assert_recovery
)


@pytest.mark.parametrize("name", RECOVERY_NAMES)
def test_planted_ruleset_recovered(name):
    run = _build_per_context_run(name, SPECS[name].recovery_n)
    problems = check_planted_recovery(run.world, run.result)
    assert not problems, "\n".join(problems)
