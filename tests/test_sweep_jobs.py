"""Crash/resume fault-injection and sharding-equivalence suite for the
sharded sweep engine (``estimator/jobs.py`` + ``estimator/cache.py``).

The contract under test: no matter how a sweep is run in-process,
sharded, killed, or resumed, the merged reports are bit-identical (timing
fields aside) to the plain loops in ``tests/oracles.py``; the checkpoint
manifest never holds duplicate or torn cells; and corrupt result files are
detected by their content hash and recomputed, never served.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from repro.decode import memory
from repro.estimator import sweep
from repro.estimator.cache import CheckpointError, ResultCache, content_hash
from repro.estimator.jobs import (
    execute_cell,
    logical_error_cells,
    merge_shard_payloads,
    new_stats,
    payload_fingerprint,
    resource_cells,
    run_cells,
    shard_cell,
)
from repro.estimator.spec import ExperimentSpec
from repro.estimator.sweep import logical_error_sweep, sweep_operation
from repro.sim.noise import NoiseModel

DISTANCES = [3]
RATES = [1e-3, 3e-3]
SHOTS = 150
MODELS = [NoiseModel.uniform(p) for p in RATES]
SPECS = [ExperimentSpec(d, d) for d in DISTANCES]


def make_cells(**overrides):
    kwargs = dict(shots=SHOTS, seed=0, engine="frame")
    kwargs.update(overrides)
    return logical_error_cells(SPECS, MODELS, **kwargs)


@pytest.fixture(scope="module")
def serial_fingerprints():
    """Fingerprints of the oracle loop's reports for the standard sweep."""
    reports = oracles.logical_error_sweep(DISTANCES, rates=RATES, shots=SHOTS, seed=0)
    return fingerprints(reports)


def fingerprints(reports):
    """Payload fingerprints of a sweep's reports (a dict for ``sweep_all``)."""
    if isinstance(reports, dict):
        return {op: fingerprints(r) for op, r in reports.items()}
    return [payload_fingerprint(r.to_dict()) for r in reports]


def manifest_keys(root):
    """Parsed manifest keys, asserting no line is torn and none repeats."""
    lines = (root / "manifest.jsonl").read_text().splitlines()
    keys = []
    for line in lines:
        rec = json.loads(line)  # raises on torn lines
        keys.append(rec["key"])
    assert len(keys) == len(set(keys)), "manifest contains duplicate cells"
    return keys


class TestFaultInjection:
    def arm(self, monkeypatch, tmp_path, mode, key_prefix):
        monkeypatch.setenv("TISCC_SWEEP_FAULT", mode)
        monkeypatch.setenv("TISCC_SWEEP_FAULT_KEY", key_prefix)
        monkeypatch.setenv("TISCC_SWEEP_FAULT_DIR", str(tmp_path / "fault"))
        os.makedirs(tmp_path / "fault", exist_ok=True)

    def test_sigkilled_worker_degrades_and_matches_serial(
        self, monkeypatch, tmp_path, serial_fingerprints
    ):
        cells = make_cells()
        self.arm(monkeypatch, tmp_path, "kill", cells[0].key()[:16])
        stats = new_stats()
        reports = logical_error_sweep(
            DISTANCES,
            rates=RATES,
            shots=SHOTS,
            seed=0,
            jobs=2,
            checkpoint=str(tmp_path / "ck"),
            stats=stats,
        )
        assert stats["degraded"], "SIGKILL should break the pool"
        assert stats["executed"] == len(cells)
        assert fingerprints(reports) == serial_fingerprints
        assert set(manifest_keys(tmp_path / "ck")) == {c.key() for c in cells}

    def test_raising_worker_is_retried_and_matches_serial(
        self, monkeypatch, tmp_path, serial_fingerprints
    ):
        cells = make_cells()
        self.arm(monkeypatch, tmp_path, "raise", cells[1].key()[:16])
        stats = new_stats()
        reports = logical_error_sweep(
            DISTANCES,
            rates=RATES,
            shots=SHOTS,
            seed=0,
            jobs=2,
            checkpoint=str(tmp_path / "ck"),
            stats=stats,
        )
        assert stats["retried"] == 1 and not stats["degraded"]
        assert fingerprints(reports) == serial_fingerprints

    def test_exhausted_retries_surface_the_worker_error(self, monkeypatch, tmp_path):
        # No marker dir, so the fault fires on *every* attempt: the pool
        # retries, exhausts the budget, hands the cell to the in-process
        # fallback, and the persistent error finally reaches the caller.
        cells = make_cells()
        monkeypatch.setenv("TISCC_SWEEP_FAULT", "raise")
        monkeypatch.setenv("TISCC_SWEEP_FAULT_KEY", cells[0].key()[:16])
        stats = new_stats()
        with pytest.raises(RuntimeError, match="injected fault"):
            run_cells(cells, jobs=2, retries=1, stats=stats)
        assert stats["retried"] == 2  # initial attempt + one retry, both poisoned

    def test_interrupted_driver_resumes_bit_identical(
        self, tmp_path, serial_fingerprints
    ):
        """SIGKILL the whole sweep driver mid-run, then resume the sweep."""
        ck = tmp_path / "ck"
        code = (
            "from repro.estimator.sweep import logical_error_sweep\n"
            f"logical_error_sweep({DISTANCES!r}, rates={RATES!r}, shots={SHOTS},"
            f" seed=0, jobs=1, checkpoint={str(ck)!r})\n"
        )
        env = dict(os.environ, PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
        for var in ("TISCC_SWEEP_FAULT", "TISCC_SWEEP_FAULT_KEY", "TISCC_SWEEP_FAULT_DIR"):
            env.pop(var, None)
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=os.getcwd())
        manifest = ck / "manifest.jsonl"
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and proc.poll() is None:
            if manifest.exists() and manifest.read_text().count("\n") >= 1:
                break
            time.sleep(0.02)
        proc.kill()
        proc.wait(timeout=60)
        assert manifest.exists(), "driver was killed before any cell completed"

        stats = new_stats()
        reports = logical_error_sweep(
            DISTANCES,
            rates=RATES,
            shots=SHOTS,
            seed=0,
            checkpoint=str(ck),
            stats=stats,
        )
        assert stats["cache_hits"] >= 1, "resume should replay completed cells"
        assert fingerprints(reports) == serial_fingerprints
        assert set(manifest_keys(ck)) == {c.key() for c in make_cells()}

    def test_timeout_degrade_terminates_orphaned_workers(
        self, monkeypatch, tmp_path, serial_fingerprints
    ):
        """Satellite regression: a wedged worker used to survive the
        timeout degrade (``cancel_futures`` cannot cancel a *running*
        future) and keep burning CPU on a cell the driver was redoing
        in-process.  The degrade path must now terminate it — and the
        checkpoint manifest must show each cell completed exactly once."""
        cells = make_cells()
        self.arm(monkeypatch, tmp_path, "hang", cells[0].key()[:16])
        stats = new_stats()
        payloads = run_cells(
            cells, jobs=2, timeout=4.0, checkpoint=tmp_path / "ck", stats=stats
        )
        assert stats["degraded"] and stats["timed_out"] >= 1
        assert [payload_fingerprint(p) for p in payloads] == serial_fingerprints

        pid_file = tmp_path / "fault" / "hang-pid"
        assert pid_file.exists(), "the injected hang never started"
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 15
        alive = True
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                alive = False
                break
            time.sleep(0.1)
        assert not alive, f"orphaned worker {pid} still running after degrade"
        # No duplicate work: every cell appears in the manifest exactly once
        # (manifest_keys asserts uniqueness) and nothing extra was recorded.
        assert set(manifest_keys(tmp_path / "ck")) == {c.key() for c in cells}

    def test_corrupted_result_file_is_recomputed(self, tmp_path, serial_fingerprints):
        cells = make_cells()
        ck = tmp_path / "ck"
        run_cells(cells, checkpoint=ck)
        victim = ResultCache(ck).result_path(cells[0].key())
        record = json.loads(victim.read_text())
        record["payload"]["failures"] += 1  # bit rot: hash no longer matches
        victim.write_text(json.dumps(record))

        stats = new_stats()
        reports = logical_error_sweep(
            DISTANCES, rates=RATES, shots=SHOTS, seed=0, checkpoint=str(ck), stats=stats
        )
        assert stats["cache_hits"] == len(cells) - 1
        assert stats["executed"] == 1, "the corrupt cell must be recomputed"
        assert fingerprints(reports) == serial_fingerprints

    def test_torn_manifest_line_is_skipped_and_healed(self, tmp_path):
        cells = make_cells()
        ck = tmp_path / "ck"
        run_cells(cells, checkpoint=ck)
        with open(ck / "manifest.jsonl", "a") as fh:
            fh.write('{"key": "deadbeef", "sha2')  # crash mid-append
        cache = ResultCache(ck)
        assert cache.stats["torn_lines"] == 1
        assert cache.keys() == {c.key() for c in cells}
        # The torn tail never surfaces as a cell; a rerun serves the intact ones.
        stats = new_stats()
        run_cells(cells, checkpoint=ck, stats=stats)
        assert stats["cache_hits"] == len(cells)

    def test_unlisted_result_file_is_rescued(self, tmp_path):
        cells = make_cells()
        ck = tmp_path / "ck"
        run_cells(cells, checkpoint=ck)
        # Simulate a crash between result rename and manifest append: the
        # manifest loses its lines but the result files survive.
        (ck / "manifest.jsonl").unlink()
        cache = ResultCache(ck)
        assert cache.stats["rescued"] == len(cells)
        stats = new_stats()
        run_cells(cells, checkpoint=ck, stats=stats)
        assert stats["cache_hits"] == len(cells)


class TestCheckpointSemantics:
    def test_mismatched_checkpoint_is_one_line_error(self, tmp_path):
        ck = tmp_path / "ck"
        run_cells(make_cells(), checkpoint=ck)
        other = logical_error_cells(
            [ExperimentSpec(3, 3)], [NoiseModel.uniform(5e-3)], shots=SHOTS, seed=0
        )
        with pytest.raises(CheckpointError, match="different sweep"):
            run_cells(other, checkpoint=ck)

    def test_resume_false_refuses_populated_checkpoint(self, tmp_path):
        ck = tmp_path / "ck"
        cells = make_cells()
        run_cells(cells, checkpoint=ck)
        with pytest.raises(CheckpointError, match="--resume"):
            run_cells(cells, checkpoint=ck, resume=False)
        # --no-cache recomputes instead of serving, so it needs no opt-in.
        stats = new_stats()
        run_cells(cells, checkpoint=ck, resume=False, use_cache=False, stats=stats)
        assert stats["executed"] == len(cells)
        manifest_keys(ck)  # refresh must not append duplicate manifest cells

    def test_duplicate_cells_share_one_execution(self, tmp_path):
        cells = make_cells() + make_cells()  # every cell twice
        stats = new_stats()
        payloads = run_cells(cells, checkpoint=tmp_path / "ck", stats=stats)
        assert stats["executed"] == len(cells) // 2
        assert len(payloads) == len(cells)
        assert payloads[: len(cells) // 2] == payloads[len(cells) // 2 :]
        assert len(manifest_keys(tmp_path / "ck")) == len(cells) // 2

    def test_resource_cells_round_trip_exactly(self, tmp_path):
        serial = oracles.sweep_operation("Idle", [2, 3], rounds=1)
        cached = sweep_operation(
            "Idle", [2, 3], rounds=1, checkpoint=str(tmp_path / "ck")
        )
        again = sweep_operation(
            "Idle", [2, 3], rounds=1, checkpoint=str(tmp_path / "ck")
        )
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in cached]
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in again]

    def test_cell_key_ignores_noise_name(self):
        base = make_cells()[0]
        renamed = logical_error_cells(
            SPECS, [NoiseModel.uniform(RATES[0], name="other-name")],
            shots=SHOTS, seed=0,
        )[0]
        assert base.key() == renamed.key()
        different = make_cells(seed=1)[0]
        assert base.key() != different.key()

    def test_resource_and_memory_cells_never_collide(self):
        mem = {c.key() for c in make_cells()}
        specs = [ExperimentSpec(d, d, rounds=1) for d in (2, 3)]
        res = {c.key() for c in resource_cells(["Idle", "PrepareZ"], specs)}
        assert not mem & res


UNIFORM = NoiseModel.uniform(1e-3)
NEAR_TERM = NoiseModel.preset("near_term")

#: Cell builders and their full content keys.  The relational key tests
#: above would pass a refactor that changed every key consistently; these
#: literals catch that, since a changed key orphans every checkpoint
#: holding the cell.  Only the builders may change, never the digests.
GOLDEN_KEYS = [
    pytest.param(
        lambda: logical_error_cells([ExperimentSpec(3, 3)], [UNIFORM], shots=100, seed=0)[0],
        "7df8e5ea9c4e1de67cbfa66836783e8b347f752fdfe8c26738f72439e76f41f9",
        id="memory-default",
    ),
    pytest.param(
        lambda: shard_cell(
            logical_error_cells([ExperimentSpec(3, 3)], [UNIFORM], shots=100, seed=0)[0], 3
        )[1],
        "879b71e012e7cba47528a1bc1c21e732775fb8e00f1f2a94094e6d76bb87becd",
        id="memory-shot-shard",
    ),
    pytest.param(
        lambda: logical_error_cells(
            [ExperimentSpec(7, 7, rounds=21)], [NEAR_TERM], shots=20000, seed=101
        )[0],
        "87a679d6aa6c00b79906c6916e3ced072bf0c69ae2465f4a28a4aeb94914cbeb",
        id="memory-canonical-lfr",
    ),
    pytest.param(
        lambda: logical_error_cells([ExperimentSpec(3, 3)], [None], shots=10)[0],
        "3213162c1502f8e0c5a2456f6d78640bd780822fee07038bda563518847eaee1",
        id="memory-noiseless",
    ),
    pytest.param(
        lambda: logical_error_cells(
            [ExperimentSpec(5, 5, basis="X")], [UNIFORM], shots=10, engine="tableau"
        )[0],
        "a5e16380b2cee8c43b5cb02bc802a3fa134c8840b830daca9a19c4c4080e8bfb",
        id="memory-x-basis-tableau",
    ),
    pytest.param(
        lambda: logical_error_cells(
            [ExperimentSpec(3, 3, profile="slow_junction")],
            [NoiseModel.preset("near_term", profile="slow_junction")],
            shots=10,
        )[0],
        "066aaf251e3849bf887da50d9d7d299f2ad0cdea51b0023599aa03f52248133f",
        id="memory-profile",
    ),
    pytest.param(
        lambda: logical_error_cells(
            [ExperimentSpec(7, 7, rounds=70, simd=True)], [NEAR_TERM], shots=1000
        )[0],
        "8c1256ab2ff32ece58f2536330ad0c888e0abb1d2caa7cd11c18db6a147de103",
        id="memory-simd",
    ),
    pytest.param(
        lambda: logical_error_cells(
            [ExperimentSpec(3, 3, rounds=6, decoder="union_find_windowed", window=4, commit=2)],
            [UNIFORM],
            shots=10,
        )[0],
        "e644111cfd30a52112791fc7d4058f27789aa6b67cc9c519a1fee17e053e5b3e",
        id="memory-windowed",
    ),
    pytest.param(
        lambda: logical_error_cells(
            [ExperimentSpec(3, 3, decoder="lookup")], [UNIFORM], shots=10
        )[0],
        "209fa926563738a40f8ccb75e930c3ed5c8f3e33b62d8ceb92951fc60288229a",
        id="memory-lookup",
    ),
    pytest.param(
        lambda: resource_cells(["Idle"], [ExperimentSpec(3, 3)])[0],
        "80b662962c57706cf31bd141666faa8e241031e4c5f1ee48eacf371381126953",
        id="resource-default",
    ),
    pytest.param(
        lambda: resource_cells(["MeasureZZ"], [ExperimentSpec(5, 5, rounds=2)])[0],
        "c1ab8c696764ac058774984efdae350a90468569bea9502e78db6919c407740c",
        id="resource-rounds",
    ),
    pytest.param(
        lambda: resource_cells(
            ["CNOT"], [ExperimentSpec(3, 3, profile="fast_projected", simd=True)]
        )[0],
        "7bc6fa204dd950a722e89238f750785eee20e22d75d9675ed1c714be97a6fd3e",
        id="resource-profile-simd",
    ),
]


@pytest.mark.parametrize("build, key", GOLDEN_KEYS)
def test_cell_keys_are_pinned(build, key):
    assert build().key() == key


class TestShardingProperty:
    """Any sharding merges to exactly the oracle loop's output.

    Extends the chunk-invariant-seed guarantee to every execution mode:
    worker count (1..4), frame-sampling chunk size (forced through
    ``repro.decode.memory.CHUNK_BYTES``, which forked pool workers
    inherit), and submission order are all drawn by hypothesis, and every
    combination must reproduce the oracle bit-for-bit (timing fields
    aside).
    """

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        jobs=st.integers(min_value=1, max_value=4),
        chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=SHOTS + 10)),
        order=st.permutations(list(range(len(DISTANCES) * len(RATES)))),
    )
    def test_any_sharding_merges_to_serial(self, serial_fingerprints, jobs, chunk, order):
        cells = make_cells()
        shuffled = [cells[i] for i in order]
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                n_detectors = memory.MemoryExperiment.from_spec(SPECS[0]).n_detectors
                mp.setattr(memory, "CHUNK_BYTES", chunk * n_detectors)
            payloads = run_cells(shuffled, jobs=jobs)
        # The oracle's payloads, in submitted order rather than completion order.
        assert [payload_fingerprint(p) for p in payloads] == [
            serial_fingerprints[i] for i in order
        ]


class TestExecuteCell:
    def test_unknown_kind_rejected(self):
        import dataclasses

        bad = dataclasses.replace(make_cells()[0], kind="nope")
        with pytest.raises(ValueError, match="unknown sweep cell kind"):
            execute_cell(bad)

    def test_payload_fingerprint_ignores_timings(self):
        payload = execute_cell(make_cells()[0])
        warped = dict(payload, sim_seconds=123.0, decode_seconds=456.0)
        assert payload_fingerprint(payload) == payload_fingerprint(warped)
        assert content_hash(payload) != content_hash(warped)


class TestShotSharding:
    """Shot-axis sharding: splitting one cell's shots across workers and
    merging the shard payloads must be bit-identical to the unsharded cell
    (the per-shot seed streams make the split seam-free)."""

    def test_shard_cell_partitions_the_shot_axis(self):
        cell = make_cells()[0]
        shards = shard_cell(cell, 4)
        assert sum(s.shots for s in shards) == cell.shots
        assert shards[0].shot_offset == 0
        for prev, nxt in zip(shards, shards[1:]):
            assert nxt.shot_offset == prev.shot_offset + prev.shots
        # Every shard gets its own cache identity; none collides with the
        # unsharded cell.
        keys = {s.key() for s in shards}
        assert len(keys) == len(shards)
        assert cell.key() not in keys

    def test_shard_cell_passthrough_and_validation(self):
        cell = make_cells()[0]
        assert shard_cell(cell, 1) == [cell]
        # Over-sharding clamps to one shot per shard instead of emitting
        # empty cells.
        tiny = shard_cell(cell, cell.shots + 50)
        assert len(tiny) == cell.shots
        assert all(s.shots == 1 for s in tiny)
        import dataclasses

        tableau = dataclasses.replace(cell, engine="tableau")
        with pytest.raises(ValueError, match="frame"):
            shard_cell(tableau, 2)

    def test_unsharded_cell_key_ignores_new_fields(self):
        """Backward compatibility: shot_offset/window/commit enter the
        content-addressed key only when set, so pre-existing checkpoints
        still resolve."""
        cell = make_cells()[0]
        payload = cell.key_payload()
        assert "shot_offset" not in payload
        assert "window" not in payload
        assert "commit" not in payload

    def test_merged_shards_match_unsharded_payload(self):
        cell = make_cells()[0]
        whole = execute_cell(cell)
        merged = merge_shard_payloads([execute_cell(s) for s in shard_cell(cell, 3)])
        assert payload_fingerprint(merged) == payload_fingerprint(whole)

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError, match="payload"):
            merge_shard_payloads([])

    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_sweep_with_shot_shards_matches_serial(
        self, tmp_path, serial_fingerprints, shards
    ):
        # Shards run in-process at jobs=1 like any other cell.
        for jobs in (2, 1):
            ck = tmp_path / f"ck{jobs}"
            stats = new_stats()
            reports = logical_error_sweep(
                DISTANCES,
                rates=RATES,
                shots=SHOTS,
                seed=0,
                jobs=jobs,
                shot_shards=shards,
                checkpoint=str(ck),
                stats=stats,
            )
            assert fingerprints(reports) == serial_fingerprints
            n_cells = len(DISTANCES) * len(RATES)
            assert stats["executed"] == n_cells * shards
            assert len(manifest_keys(ck)) == n_cells * shards


#: (sweep function, positional args, keyword args shared with the oracle,
#: execution-only keyword args the oracle does not take, or ``chunk_bytes``:
#: the frame chunk budget the sweep runs under).
ORACLE_CASES = [
    pytest.param(
        "logical_error_sweep",
        ([3],),
        dict(rates=[3e-3], shots=40, rounds=1, engine="tableau"),
        {},
        id="tableau-engine",
    ),
    pytest.param(
        "logical_error_sweep",
        ([3],),
        dict(rates=[3e-3], shots=SHOTS, rounds=1, decoder="lookup"),
        {},
        id="lookup-decoder",
    ),
    pytest.param(
        "logical_error_sweep",
        ([3],),
        dict(
            rates=[3e-3], shots=SHOTS, rounds=6, decoder="union_find_windowed",
            window=4, commit=2,
        ),
        {},
        id="windowed-decoder",
    ),
    pytest.param(
        "logical_error_sweep",
        ([3],),
        dict(noise_models=["near_term"], shots=SHOTS, rounds=2, simd=True),
        {},
        id="simd",
    ),
    pytest.param(
        "logical_error_sweep",
        ([3],),
        dict(
            noise_models=["near_term", ("near_term", 2.0)], shots=SHOTS, rounds=2,
            profile=["baseline", "fast_projected"],
        ),
        {},
        id="two-profiles-preset-and-scaled-noise",
    ),
    pytest.param(
        "logical_error_sweep",
        ([3],),
        dict(rates=RATES, shots=SHOTS, rounds=2, basis="X"),
        # 37 shots of 12 detectors per frame chunk.
        dict(chunk_bytes=37 * 12),
        id="x-basis-small-chunks",
    ),
    pytest.param(
        "logical_error_sweep",
        ([3, 3],),
        dict(rates=RATES, shots=SHOTS, rounds=2),
        {},
        id="duplicate-distances",
    ),
    pytest.param(
        "logical_error_sweep",
        ([3],),
        dict(noise_models=[None, NoiseModel.uniform(3e-3)], shots=SHOTS, rounds=2),
        dict(jobs=1),
        id="noiseless-jobs1",
    ),
    pytest.param(
        "logical_error_sweep",
        ([3],),
        dict(noise_models=[None, NoiseModel.uniform(3e-3)], shots=SHOTS, rounds=2),
        dict(jobs=2),
        id="noiseless-jobs2",
    ),
    pytest.param(
        "logical_error_sweep",
        ([3],),
        dict(rates=RATES, shots=SHOTS, rounds=2),
        dict(jobs=1, shot_shards=3),
        id="shot-shards-jobs1",
    ),
    pytest.param(
        "sweep_operation",
        ("MeasureZZ", [2, 3]),
        dict(rounds=1, simd=True, profile=["baseline", "slow_junction"]),
        {},
        id="resource-simd-two-profiles",
    ),
    pytest.param("sweep_all", ([2],), dict(rounds=1), {}, id="sweep-all"),
]


@pytest.mark.parametrize("func, args, kwargs, run", ORACLE_CASES)
def test_sweep_matches_oracle(func, args, kwargs, run, monkeypatch):
    """Every sweep mode reproduces the oracle loop bit for bit.

    A ``chunk_bytes`` entry in ``run`` shrinks the frame engine's chunk
    budget for the sweep only; the oracle runs each point as one chunk.
    """
    want = getattr(oracles, func)(*args, **kwargs)
    run = dict(run)
    if "chunk_bytes" in run:
        monkeypatch.setattr(memory, "CHUNK_BYTES", run.pop("chunk_bytes"))
    got = getattr(sweep, func)(*args, **kwargs, **run)
    assert fingerprints(got) == fingerprints(want)
