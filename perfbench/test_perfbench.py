"""Self-tests of the benchmark. Run from the checkout root:

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMOKE_SIZES = {
    "train": workloads.TrainSizes(subjects=2, frames=24, steps=1),
    "reconstruct": workloads.ReconstructSizes(frames=24),
    "long_trajectory": workloads.LongSizes(frames=60),
}


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, None),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("a", 20.0, 22.0, None),
    ]
    assert tracing.self_times(spans) == {"a": 5.0, "b": 2.0, "c": 1.0, "d": 4.0}


def test_layer_metrics_add_one_setup_to_one_operation():
    setup, ops = tracing.Record(), tracing.Record()
    setup.spans = [["simulate.make_phantom", 0.0, 3.0, None]]
    setup.counts["pose.transforms_built"] = 5
    # two operations, each a conv2d forward of 1 s inside a 4 s window
    for start in (10.0, 20.0):
        parent = len(ops.spans)
        ops.spans.append(["network.forward_window", start, start + 4.0, None])
        ops.spans.append(["tensor.conv2d.fwd", start + 1.0, start + 2.0, parent])
    ops.counts["tensor.conv2d.calls"] = 2
    ops.counts["pose.transforms_built"] = 6
    values = tracing.layer_metrics(setup, ops, n_ops=2)
    assert values["simulate.make_phantom_s"] == 3.0
    assert values["network.forward_window_s"] == 3.0
    assert values["tensor.conv2d.fwd_s"] == 1.0
    assert values["tensor.conv2d.calls"] == 1.0
    assert values["pose.transforms_built"] == 8.0
    assert values["correlation.calls"] == 0.0


def test_tracer_restores_every_patched_name():
    import fus3d.network
    import fus3d.nn
    import fus3d.tensor

    before = (fus3d.nn.conv2d, fus3d.network.correlate_batch,
              fus3d.tensor.backward, fus3d.network.MotionNetwork.forward_window)
    tracer = tracing.Tracer()
    tracer.install()
    assert fus3d.nn.conv2d is not before[0]
    assert fus3d.network.correlate_batch is not before[1]
    tracer.uninstall()
    after = (fus3d.nn.conv2d, fus3d.network.correlate_batch,
             fus3d.tensor.backward, fus3d.network.MotionNetwork.forward_window)
    assert after == before
    assert tracer.missing == []


def _smoke(name, trace):
    return harness.run_workload(name, seed=7, seconds=0.01, trace=trace,
                                threads=1, sizes=SMOKE_SIZES[name])


@pytest.mark.parametrize("name", sorted(SMOKE_SIZES))
def test_every_layer_wrapper_fires_where_expected(name):
    result = _smoke(name, trace=True)
    assert result["correct"], result
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    values = {key: metric["value"] for key, metric in result["metrics"].items()}
    workload = workloads.WORKLOADS[name](SMOKE_SIZES[name])
    assert harness.layer_expectation_problems(workload, values) == []


@pytest.mark.parametrize("name", sorted(SMOKE_SIZES))
def test_printed_names_match_benchmark_json(name):
    untraced = _smoke(name, trace=False)
    assert untraced["correct"], untraced
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    printed = {k: m["unit"] for k, m in untraced["metrics"].items()}
    assert printed == declared
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_per_layer_declaration_matches_tracer():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(tracing.PER_LAYER_METRICS)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
