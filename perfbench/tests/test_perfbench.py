"""Guards for the benchmark itself: its declared metrics, its pins, and the
traced run that attributes time to formalitykit's layers."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

run.import_program()


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)


def test_every_pool_op_is_pinned():
    for workload in workloads.WORKLOADS.values():
        assert run.load_pins(workload)
        ids = [op.id for op in workload.ops]
        assert len(ids) == len(set(ids)), workload.name


def test_seed_only_permutes_each_pass():
    ops = workloads.WORKLOADS["tor-config-q"].ops
    a = workloads.pass_order(ops, 3, 0)
    assert a == workloads.pass_order(ops, 3, 0)
    assert sorted(a, key=lambda op: op.id) == sorted(ops, key=lambda op: op.id)
    assert a != workloads.pass_order(ops, 4, 0)


def traced_smoke(name, seed=1):
    record = run.run_workload(name, seed, 0, 1, passes=2, smoke=True)
    record.pop("tracer")
    return record


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_sees_every_busy_layer_and_repeats_its_counts(name):
    # run_workload raises AssertionError from Tracer.check when a busy layer
    # recorded no calls or a span escapes its parent
    first = traced_smoke(name)
    second = traced_smoke(name)
    assert first["failed"] == 0 and second["failed"] == 0, first["failures"]
    for layer in workloads.WORKLOADS[name].busy:
        assert first["layer_calls"][layer] > 0, layer
    assert set(first["metrics"]) == {m for m, _ in spans.LAYER_METRICS}
    for metric in spans.DETERMINISTIC:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["layer_calls"] == second["layer_calls"]


def test_check_fails_loudly_when_a_busy_layer_goes_quiet():
    tracer = spans.Tracer()
    tracer.op = 0
    root = tracer.open(spans.ROOT)
    child = tracer.open("graded.validate")
    tracer.close(child)
    tracer.close(root)
    assert tracer.check(("cli", "graded"))["graded"] == 1
    with pytest.raises(AssertionError, match="linalg"):
        tracer.check(("cli", "linalg"))


def nested_spans(ops=3):
    tracer = spans.Tracer()
    for op in range(ops):
        tracer.op = op
        root = tracer.open(spans.ROOT)
        for _ in range(2):
            outer = tracer.open("hochschild.hh_bar")
            tracer.close(tracer.open("linalg.kernel_rows"))
            tracer.close(outer)
        tracer.close(root)
    return tracer


def test_self_times_of_nested_spans_sum_to_dispatch_time():
    tracer = nested_spans()
    selfs = tracer.self_times()
    assert all(t >= 0 for t in selfs)
    assert sum(selfs) == sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    tracer.check(("cli", "hochschild", "linalg"))


@pytest.mark.parametrize("fault", ["outlasts", "other_op", "outside_dispatch"])
def test_check_fails_when_spans_do_not_nest(fault):
    tracer = nested_spans(ops=1)
    child = tracer.spans[1]
    if fault == "outlasts":
        child[2] = tracer.spans[0][2] + 1
    elif fault == "other_op":
        child[4] += 1
    else:
        child[3] = -1
    with pytest.raises(AssertionError):
        tracer.check()


def test_install_restores_every_binding():
    import formalitykit.hochschild as hochschild
    from formalitykit.fields import FieldSpec

    before = (hochschild.rref_rows, hochschild.validate, FieldSpec.__dict__["field"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hochschild.rref_rows is not before[0]
        assert hochschild.validate is not before[1]
    finally:
        tracer.uninstall()
    assert (hochschild.rref_rows, hochschild.validate, FieldSpec.__dict__["field"]) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no formalitykit sources" in proc.stderr
