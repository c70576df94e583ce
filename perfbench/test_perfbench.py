"""Tests of the pipeline benchmark itself, at toy size on the full code path."""

from __future__ import annotations

import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.core.compiler as compiler_mod
import repro.decode.memory as memory_mod
import repro.estimator.sweep as sweep_mod
from perfbench.harness import ROOT, WORKLOADS, declared_metrics, run_workload
from perfbench.hostclock import REFERENCE_PROBE_S, HostClock
from perfbench.run import WORKLOAD_NAMES

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 5
#: Never used while the expected error rates and bands were chosen.
HELD_OUT_SEED = 90210


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_and_units_are_well_formed():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_declared_metric(name, trace):
    record = run_workload(name, seed=SEED, seconds=0, trace=trace, smoke=True)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
    for key in ("nproc", "python", "numpy", "threads", "seed"):
        assert key in record["env"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_output_checks_pass_on_held_out_seed(name):
    record = run_workload(name, seed=HELD_OUT_SEED, seconds=0, trace=False, smoke=True)
    assert record["result"]["correct"], record["failures"]


def test_traced_self_times_and_residual_add_up_to_wall():
    record = run_workload("lfr_canonical", seed=SEED, seconds=0, trace=True, smoke=True)
    trace = record["trace"]
    root = trace["spans"][0]
    assert root["name"] == "run" and root["parent"] is None
    total = sum(s["self_s"] for s in trace["spans"])
    assert total == pytest.approx(root["duration_s"], rel=1e-9, abs=1e-9)
    assert trace["self_seconds"]["run"] == pytest.approx(root["self_s"])
    # Path accounting: DEM-built graph on the frame engine, one DEM per cell
    # built twice (matching graph and frame sampler each ask for it).
    metrics = record["result"]["metrics"]
    assert metrics["decode.graph_dem"]["value"] == 1
    assert metrics["estimator.engine_frame"]["value"] == 1
    assert metrics["sim.build_dem.calls"]["value"] == 2
    assert metrics["sim.dem_periodic"]["value"] == 1


def test_hooks_restore_every_wrapped_function():
    before = (
        compiler_mod.TISCC.__dict__["compile"],
        compiler_mod.TISCC.__dict__["__init__"],
        compiler_mod.check_circuit,
        memory_mod.build_dem,
        memory_mod.get_decoder,
        memory_mod.MemoryExperiment.__dict__["fault_table"],
        sweep_mod.logical_error_sweep,
    )
    run_workload("lfr_long_simd", seed=SEED, seconds=0, trace=True, smoke=True)
    after = (
        compiler_mod.TISCC.__dict__["compile"],
        compiler_mod.TISCC.__dict__["__init__"],
        compiler_mod.check_circuit,
        memory_mod.build_dem,
        memory_mod.get_decoder,
        memory_mod.MemoryExperiment.__dict__["fault_table"],
        sweep_mod.logical_error_sweep,
    )
    assert after == before


def test_host_clock_rescales_program_time_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with HostClock(period=0.01) as clock:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # The busy loop sampled the host several times; probe time is not program time.
    assert len(clock.samples) > 5
    assert 0 < clock.program_s < clock.wall_s
    assert clock.slowdown == pytest.approx(
        statistics.mean(clock.samples) / REFERENCE_PROBE_S
    )
    assert clock.reference_s == pytest.approx(clock.program_s / clock.slowdown)


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_prints_the_result_as_its_last_line():
    proc = _run_cli(
        ROOT, "--workload", "resource_sweep", "--seed", "1", "--seconds", "0", "--trace", "0",
        "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert any(line.startswith("# env ") for line in lines[:-1])


def test_cli_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "lfr_canonical", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
