"""Self-test of the macro benchmark, at ``--scale 0.02``.

Run explicitly (tier-1's ``testpaths = ["tests"]`` does not collect it)::

    PYTHONPATH=src python -m pytest macrobench/test_macrobench.py -q

Every run goes through the command line in a child process, exactly as the
acceptance driver calls it, so the contract on the last line of standard
output is what is checked -- and two runs of one seed do not share an
interpreter (or its string-hash seed) when their counts are compared.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from macrobench import catalog, layers, spans, workloads

ROOT = Path(__file__).resolve().parents[1]
SCALE = "0.02"


def _run(workload: str, seed: int, trace: int, tmp: Path) -> dict:
    report = tmp / f"{workload}-{seed}-{trace}.json"
    done = subprocess.run(
        [sys.executable, "-m", "macrobench", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", SCALE, "--report", str(report)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    out = json.loads(report.read_text())
    out["last_line"] = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("macrobench")
    cache = {}

    def get(workload: str, seed: int = 11, trace: int = 0,
            fresh: bool = False) -> dict:
        key = (workload, seed, trace)
        if fresh or key not in cache:
            cache[key] = _run(workload, seed, trace, tmp)
        return cache[key]

    return get


def test_manifest_is_the_catalog():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == catalog.manifest()
    assert set(catalog.WORKLOADS) == set(workloads.NAMES)
    names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    assert len(catalog.PER_LAYER) <= 128 and len(catalog.END_TO_END) <= 16


def test_every_self_time_metric_has_a_span():
    metrics = {m.name for m in catalog.PER_LAYER}
    for target in layers.TARGETS:
        assert target.metric in metrics, target
    for metric in catalog.PER_LAYER:
        if metric.source[0] in ("self", "setup_self"):
            assert layers.spans_of(metric.name), metric.name


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_meets_the_result_contract(runs, workload):
    report = runs(workload)
    result = report["last_line"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m.name: m.unit for m in catalog.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_emits_every_layer_metric(runs, workload):
    metrics = runs(workload, trace=1)["last_line"]["metrics"]
    expected = {m.name: m.unit for m in catalog.PER_LAYER}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    # Workload-specific end-to-end figures: non-zero on exactly the
    # workloads that list them.
    listed = set(workloads.load(workload).HEADLINE)
    for metric in catalog.PER_LAYER:
        if metric.source == ("headline",):
            value = metrics[metric.name]["value"]
            assert (value > 0) == (metric.name in listed), metric.name
    assert metrics["error_rate"]["value"] == 0
    assert metrics["bench.unattributed_share"]["value"] < 0.15


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_counts_repeat_for_a_seed_and_move_with_it(runs, workload):
    first = runs(workload, seed=11, trace=1)["deterministic"]
    again = runs(workload, seed=11, trace=1, fresh=True)["deterministic"]
    other = runs(workload, seed=12, trace=1)["deterministic"]
    assert again == first
    assert other != first


def test_no_wrapper_survives_a_traced_run():
    from macrobench import harness

    workload = workloads.load("twin_mixed")
    harness.run_workload(workload, seed=5, seconds=0.0, trace=True,
                         scale=float(SCALE))
    assert spans.wrappers_present(layers.TARGETS) == []


def test_install_restores_descriptor_kinds():
    from repro.fusion.batch import ObservationBatch

    before = vars(ObservationBatch)["from_observations"]
    recorder = spans.SpanRecorder()
    installed = spans.install(recorder, layers.TARGETS)
    try:
        assert len(installed) == len(layers.TARGETS)
        assert isinstance(
            vars(ObservationBatch)["from_observations"], classmethod
        )
        assert ObservationBatch.from_observations([]) is not None
        assert recorder.calls["ObservationBatch.from_observations"] == 1
    finally:
        installed.remove()
    assert vars(ObservationBatch)["from_observations"] is before
