"""Tests of the benchmark itself, each workload at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


TINY_OPS = 6


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT", TINY_OPS)
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    monkeypatch.setattr(run, "trace_units", lambda seconds: 1)


def _main(capsys, workload, trace=0, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _printed(lines, name, unit):
    return any(line.split()[:1] == [name] and f" {unit}" in line for line in lines)


def _bindings():
    """Identity snapshot of every chernloc module global and class attribute."""
    snap = {}
    for mod in bench_trace._modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("chernloc"):
                for attr, member in vars(value).items():
                    snap[(mod.__name__, key, attr)] = member
    return snap


def test_workload_names_match_spec():
    assert WORKLOADS == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bench_trace.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(tiny, capsys, workload):
    code, lines, result = _main(capsys, workload)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * TINY_OPS
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert _printed(lines, name, unit), name
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert _printed(lines, "fail_ratio", "ratio")
    assert _printed(lines, "max_residual", "abs")
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"nproc", "python", "numpy", "scipy", "blas_threads", "git_sha"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_and_restores_bindings(tiny, capsys, workload):
    before = _bindings()
    code, lines, result = _main(capsys, workload, trace=1)
    after = _bindings()
    assert code == 0 and result["correct"]
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]] == {"value": metrics[metric["name"]]["value"],
                                           "unit": metric["unit"]}
        assert metrics[metric["name"]]["value"] is not None, metric["name"]
        assert _printed(lines, metric["name"], metric["unit"])
    assert metrics["trace.ops"]["value"] == TINY_OPS
    busy = {"exact-bar": "barcomplex.b0.calls",
            "heat-supertrace": "fredholm.expm.calls",
            "gaussian-localize": "clifford.mul.calls"}[workload]
    assert metrics[busy]["value"] > 0
    assert metrics["scalars.qc_mul.calls"]["value"] > 0


def test_wrong_expected_value_counts_as_failure(tiny, capsys, monkeypatch):
    monkeypatch.setattr(bench_workloads, "EXPECTED_KAPPA", Fraction(1, 2))
    code, lines, result = _main(capsys, "gaussian-localize")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("FAILED op ") and " [kappa: d " in line for line in lines)
    fail_line = next(line for line in lines if line.startswith("fail_ratio"))
    assert float(fail_line.split()[1]) == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_missing_callable_is_reported_not_zero(tiny, capsys, monkeypatch):
    targets = tuple(t if t[0] != "fredholm.expm" else ("fredholm.expm", "fredholm", "_renamed_expm", "span")
                    for t in bench_trace.TARGETS)
    monkeypatch.setattr(bench_trace, "TARGETS", targets)
    code, lines, result = _main(capsys, "heat-supertrace", trace=1)
    assert code == 0
    for name in ("fredholm.expm.calls", "fredholm.expm.self_s",
                 "fredholm.expm.max_side", "fredholm.expm.flops_computed"):
        assert result["metrics"][name]["value"] is None
        assert any(line.split()[:2] == [name, "missing"] for line in lines)
    assert result["metrics"]["fredholm.mckean_singer_check.self_s"]["value"] > 0


def _idempotents(unit):
    """The bismut-op idempotents of an exact-bar unit, by value."""
    return [repr(cell.cell_contents.rows) for op in unit.ops if op.kind == "bismut"
            for cell in op.run.__closure__]


def test_same_seed_same_inputs():
    a = bench_workloads.build("exact-bar", 5).unit()
    b = bench_workloads.build("exact-bar", 5).unit()
    c = bench_workloads.build("exact-bar", 6).unit()
    assert [op.label for op in a.ops] == [op.label for op in b.ops] == [op.label for op in c.ops]
    assert _idempotents(a) == _idempotents(b)
    assert _idempotents(a) != _idempotents(c)


def test_every_unit_has_fresh_equal_inputs():
    workload = bench_workloads.build("heat-supertrace", 5)
    a, b = workload.unit(), workload.unit()
    assert len(a.ops) == len(b.ops) == bench_workloads.UNIT_OPS
    assert all(m is not n and (m.Q == n.Q).all() for m, n in zip(a.models, b.models))


def test_each_op_reports_its_best_pass():
    delays = iter([0.02, 0.001, 0.001, 0.02])

    def op():
        time.sleep(next(delays))
        return bench_workloads.PASS

    unit = bench_workloads.Unit([bench_workloads.Op("sleep", "first", op),
                                 bench_workloads.Op("sleep", "second", op)])
    loop = run.Loop()
    loop.run_unit(unit)
    loop.run_unit(unit)
    assert loop.passes == 2 and loop.attempted == 4
    assert loop.best[0] < 0.015 and loop.best[1] < 0.015
    assert 0 < loop.reference < 1


def test_times_are_scaled_to_the_reference_speed(tiny, capsys, monkeypatch):
    # a kernel that takes at least 10 ms makes the run at least twice as
    # slow as a 5 ms reference
    monkeypatch.setattr(run, "reference_kernel", lambda: time.sleep(0.01))
    monkeypatch.setattr(run, "REFERENCE_MS", 5.0)
    code, lines, result = _main(capsys, "gaussian-localize")
    assert code == 0
    speed = next(line for line in lines if line.startswith("host_speed")).split()
    slowdown = float(speed[speed.index("x") - 1])
    assert slowdown >= 2
    for name in ("ops_per_s", "op_ms_p50", "op_ms_p90"):
        line = next(line for line in lines if line.split()[:1] == [name])
        raw = float(line.split("; ")[-1].split()[0])
        scaled = result["metrics"][name]["value"]
        expected = raw * slowdown if name == "ops_per_s" else raw / slowdown
        assert scaled == pytest.approx(expected, rel=2e-3)


def test_setup_probe_reports_seconds():
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), "exact-bar", "1"],
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout.splitlines()[-1])["setup_s"] > 0


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "exact-bar",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
