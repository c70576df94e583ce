"""SIMD beam-pass scheduling: equivalence, key stability, and report gating.

The scheduler's contract is *pure retiming*: the rescheduled circuit must
contain exactly the original instructions, keep every site's instruction
sequence in order, and satisfy the executable reference validity spec.
Its detector error model is therefore structurally identical to the
unscheduled one under idle-free noise: same detector footprints, same
observable masks, and probabilities equal to within a few ULP (retiming
permutes the XOR fold order inside multi-site mechanisms — the only
float-level freedom).  The frame engine thresholds uniform draws against
those probabilities, so fixed-seed logical-error counters stay *exactly*
identical: a count could change only if a draw landed inside a ULP-wide
sliver.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import TISCC
from repro.core.router import lattice_surgery_cnot_program
from repro.decode.memory import MemoryExperiment
from repro.estimator.jobs import SweepCell
from repro.estimator.spec import ExperimentSpec
from repro.estimator.report import format_resource_table
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.profile import DEFAULT_PROFILE, SIMD_MODES, ProfileError, get_profile
from repro.hardware.simd import baseline_beam_passes, simd_schedule
from repro.hardware.validity import check_circuit_reference
from repro.sim.interpreter import replay_stream
from repro.sim.noise import NoiseModel


@lru_cache(maxsize=None)
def compiled_memory(d: int = 3):
    """One unscheduled d×d MeasureZ compile, shared across examples."""
    compiler = TISCC(dx=d, dz=d, tile_rows=1, tile_cols=1)
    program = [("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))]
    compiled = compiler.compile(program, operation="MeasureZ")
    return compiler, compiled


def per_site_order(circuit):
    """Each site's (code, duration, label) sequence in schedule order."""
    cols = circuit.sorted_columns()
    seq: dict[int, list] = {}
    for i in range(cols.n):
        for s in cols.sites[i]:
            seq.setdefault(s, []).append(
                (int(cols.codes[i]), float(cols.duration[i]), cols.labels.get(i))
            )
    return seq


class TestScheduleProperties:
    """Hypothesis sweep over (width, mode, overhead): retiming invariants."""

    @settings(max_examples=24, deadline=None)
    @given(
        width=st.sampled_from([0, 1, 2, 3, 8]),
        mode=st.sampled_from(SIMD_MODES),
        overhead=st.sampled_from([0.0, 5.0]),
    )
    def test_retiming_invariants(self, width, mode, overhead):
        compiler, compiled = compiled_memory(3)
        circuit = compiled.circuit
        scheduled, report = simd_schedule(
            circuit, compiler.grid, width=width, mode=mode, overhead_us=overhead
        )

        # Pure retiming: only the times change.  The rows keep their append
        # order, labels and template-replay records, and every site keeps
        # its instruction order.
        before, after = circuit.columns(), scheduled.columns()
        for name in ("codes", "site0", "site1", "nsites", "duration"):
            assert np.array_equal(getattr(after, name), getattr(before, name))
        assert after.labels == before.labels
        assert circuit.replay_blocks
        assert scheduled.replay_blocks == circuit.replay_blocks
        assert per_site_order(scheduled) == per_site_order(circuit)
        assert scheduled._measure_count == circuit._measure_count

        # The executable validity spec must accept the new schedule
        # (check_circuit_reference raises CircuitValidityError on failure).
        check_circuit_reference(compiler.grid, scheduled, compiled.initial_occupancy)

        # Report arithmetic.
        assert report.baseline_passes == baseline_beam_passes(
            circuit, compiler.profile, width=width
        )
        assert 0 < report.beam_passes <= report.baseline_passes or width > 0
        assert 0.0 <= report.pass_reduction <= 1.0 or width > 0
        assert report.mode == mode and report.width == width
        if mode == "site_parallel" and overhead == 0.0:
            # No overhead, no serial beam constraint: never slower.
            assert report.makespan_us <= report.baseline_makespan_us + 1e-9

    def test_unlimited_width_halves_passes_at_d3(self):
        compiler, compiled = compiled_memory(3)
        _, report = simd_schedule(compiled.circuit, compiler.grid)
        assert report.pass_reduction >= 0.30  # acceptance floor, d=3 already ~0.47

    @pytest.mark.parametrize("width", [True, False, 2.5, 2.0, -1, "2", None])
    def test_bad_width_rejected_in_one_line(self, width):
        # As HardwareProfile rejects a bad simd_width: a bool is not a width,
        # and the native kernel takes an int64.
        compiler, compiled = compiled_memory(3)
        with pytest.raises(ValueError, match=r"^width must be an integer >= 0") as err:
            simd_schedule(compiled.circuit, compiler.grid, width=width)
        assert "\n" not in str(err.value)
        with pytest.raises(ValueError, match=r"^width must be an integer >= 0"):
            baseline_beam_passes(compiled.circuit, compiler.profile, width)

    def test_baseline_passes_is_an_int(self):
        compiler, compiled = compiled_memory(3)
        for width in (0, 2):
            passes = baseline_beam_passes(compiled.circuit, compiler.profile, width)
            assert type(passes) is int and passes > 0

    def test_retimed_rejects_a_wrong_shape(self):
        circuit = compiled_memory(3)[1].circuit
        n = len(circuit)
        for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((n, 1))):
            with pytest.raises(ValueError, match="shape"):
                circuit.retimed(bad)


def schedule_digest(circuit) -> str:
    """SHA-256 of a circuit's executable stream: sites, times, names, labels."""
    cols = circuit.sorted_columns()
    h = hashlib.sha256()
    for arr in (cols.site0, cols.site1, cols.nsites, cols.t, cols.duration):
        h.update(arr.tobytes())
    h.update("\n".join(cols.names).encode("utf-8"))
    h.update(json.dumps(sorted(cols.labels.items())).encode("utf-8"))
    return h.hexdigest()


MEMORY_Z = [("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))]
MEMORY_X = [("PrepareX", (0, 0)), ("MeasureX", (0, 0))]
ONE_TILE = dict(dx=3, dz=3, tile_rows=1, tile_cols=1)


@pytest.mark.parametrize(
    "kwargs, program, expected",
    [
        (
            dict(ONE_TILE, rounds=3),
            MEMORY_Z,
            "38aa427c63590f4206ab210c38de9c8b8399f8e455f0196ec3e959bd3b7a0f2a",
        ),
        (
            dict(ONE_TILE, rounds=10, profile="fast_projected"),
            MEMORY_X,
            "66a3da802b02ac3114bac994418ff415d236cfb67b0722e68262bde17c091fab",
        ),
        (
            dict(ONE_TILE, rounds=10, profile="slow_junction"),
            MEMORY_Z,
            "f5196f31ac165ff84514c9a391d165a7a8191267bd9311f2b49de9515e2d7724",
        ),
        (
            dict(dx=3, dz=3, tile_rows=2, tile_cols=2),
            lattice_surgery_cnot_program(),
            "22c758912dd6f1ca67971f41b3142cf3963db31b6d05f638adf534552902aa3f",
        ),
    ],
    ids=["memory-z", "memory-x-fast_projected", "memory-z-slow_junction", "cnot"],
)
def test_scheduled_circuits_match_golden_digests(kwargs, program, expected):
    """The exact SIMD schedule, pinned: any change to its output shows here."""
    circuit = TISCC(**kwargs).compile(program, simd=True).circuit
    assert schedule_digest(circuit) == expected


NOISE = NoiseModel.uniform(1.5e-3)  # t2-free: idle windows cannot enter the DEM


@lru_cache(maxsize=None)
def plain_dem():
    return MemoryExperiment(distance=3).detector_error_model(NOISE)


class TestDemEquivalence:
    """Scheduled DEM vs the unscheduled oracle across timing modes."""

    @pytest.mark.parametrize(
        "mode, width, overhead",
        [
            ("site_parallel", 0, 0.0),
            ("site_parallel", 0, 5.0),
            ("site_parallel", 3, 0.0),
            ("pass_serial", 0, 0.0),
            ("pass_serial", 16, 5.0),
        ],
    )
    def test_dem_matches_oracle(self, mode, width, overhead):
        prof = replace(
            DEFAULT_PROFILE,
            simd_mode=mode,
            simd_width=width,
            simd_pass_overhead_us=overhead,
        )
        dem = MemoryExperiment(distance=3, profile=prof, simd=True).detector_error_model(
            NOISE
        )
        oracle = plain_dem()
        assert dem.n_detectors == oracle.n_detectors
        assert dem.n_observables == oracle.n_observables
        assert dem.detectors == oracle.detectors
        assert np.array_equal(dem.observables, oracle.observables)
        # Retiming may permute the XOR fold order inside multi-site
        # mechanisms — probabilities agree to within a few ULP, nothing more.
        ulps = np.abs(dem.probs - oracle.probs) / np.spacing(
            np.maximum(dem.probs, oracle.probs)
        )
        assert ulps.max() <= 8.0

    def test_fixed_seed_ler_counters_identical(self):
        """Frame-engine failure counters at a fixed seed match exactly."""
        kwargs = dict(noise=NOISE, seed=7, engine="frame")
        base = MemoryExperiment(distance=3).run(4000, **kwargs)
        simd = MemoryExperiment(distance=3, simd=True).run(4000, **kwargs)
        assert base.engine == simd.engine == "frame"
        assert simd.failures == base.failures
        assert simd.raw_failures == base.raw_failures


class TestCompilerIntegration:
    def test_report_retained(self):
        compiler = TISCC(dx=3, dz=3, tile_rows=1, tile_cols=1)
        program = [("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))]
        compiled = compiler.compile(program, operation="MeasureZ", simd=True)
        assert compiled.simd_report is not None
        assert compiled.simd_report.beam_passes < compiled.simd_report.baseline_passes
        assert compiled.simd_seconds > 0.0
        assert compiled.validity is not None  # validity replay ran on the *scheduled* circuit

    def test_default_compile_untouched(self):
        _, compiled = compiled_memory(3)
        assert compiled.simd_report is None
        assert compiled.simd_seconds == 0.0


class TestIdleClock:
    """Idle-gap accounting, done once by ``replay_stream``: exact float semantics."""

    def test_single_shared_definition(self):
        # The batched sampler and the DEM walks must read the same stream:
        # the drift guard.
        from repro.sim import batch, dem, interpreter

        assert batch.replay_stream is interpreter.replay_stream
        assert dem.replay_stream is interpreter.replay_stream

    def test_gap_semantics_on_compacted_schedule(self):
        # The same ops at original vs compacted times: gaps follow the
        # schedule actually handed in, with exact float arithmetic.
        original = [(0.0, 10.0), (35.0, 45.0), (80.0, 90.0)]
        compacted = [(0.0, 10.0), (10.0, 20.0), (20.5, 30.5)]
        for times, idle in (
            (original, [(), ((0, 25.0, 0),), ((0, 35.0, 1),)]),
            (compacted, [(), (), ((0, 0.5, 1),)]),
        ):
            circuit = HardwareCircuit()
            for start, end in times:
                circuit.append("X_pi/2", (1,), start, end - start)
            assert replay_stream(circuit, {1: 0}).idle == idle

    def test_row_tracking(self):
        # Each gap names the row that last made its qubit busy (-1: none).
        circuit = HardwareCircuit()
        circuit.append("X_pi/2", (1,), 0.0, 5.0)
        circuit.append("X_pi/2", (2,), 2.5, 2.5)
        circuit.append("X_pi/2", (2,), 7.5, 1.0)
        stream = replay_stream(circuit, {1: 10, 2: 20})
        assert stream.qubits == [(0,), (1,), (1,)]
        assert stream.idle == [(), ((1, 2.5, -1),), ((1, 2.5, 1),)]

    def test_uniform_noise_table_has_no_idle_sites(self):
        # Without t2 the stream's gaps never become fault sites.
        exp = MemoryExperiment(distance=3, rounds=2)
        assert "idle" not in exp.fault_table(NoiseModel.uniform(1e-3)).kind_counts()
        assert exp.fault_table(NoiseModel.preset("near_term")).kind_counts()["idle"] > 0


class TestProfileFields:
    def test_defaults_stay_out_of_fingerprint_and_dict(self):
        explicit = replace(
            DEFAULT_PROFILE,
            simd_width=0,
            simd_pass_overhead_us=0.0,
            simd_mode="site_parallel",
        )
        assert explicit.fingerprint == DEFAULT_PROFILE.fingerprint
        assert not any(k.startswith("simd") for k in DEFAULT_PROFILE.to_dict())

    def test_nondefault_changes_fingerprint_and_roundtrips(self):
        prof = replace(DEFAULT_PROFILE, simd_width=8, simd_mode="pass_serial")
        assert prof.fingerprint != DEFAULT_PROFILE.fingerprint
        d = prof.to_dict()
        assert d["simd_width"] == 8 and d["simd_mode"] == "pass_serial"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"simd_width": -1},
            {"simd_width": True},
            {"simd_width": 2.5},
            {"simd_mode": "both"},
            {"simd_pass_overhead_us": -1.0},
            {"simd_pass_overhead_us": float("nan")},
            {"simd_pass_overhead_us": float("inf")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ProfileError):
            replace(DEFAULT_PROFILE, **kwargs)

    def test_shipped_profiles_carry_beam_pass_limits(self):
        assert get_profile("baseline") == DEFAULT_PROFILE
        fast = get_profile("fast_projected")
        assert (fast.simd_width, fast.simd_mode) == (64, "site_parallel")
        slow = get_profile("slow_junction")
        assert (slow.simd_width, slow.simd_mode) == (16, "pass_serial")
        assert slow.simd_pass_overhead_us == 5.0


class TestKeyStability:
    """simd enters cache keys only when enabled: old checkpoints stay valid."""

    def test_memory_cache_key_unchanged_when_off(self):
        base = ExperimentSpec(3, 3).memory_key(NOISE.params)
        assert base == ExperimentSpec(3, 3, simd=False).memory_key(NOISE.params)
        assert "simd" not in base["memory"]
        simd = ExperimentSpec(3, 3, simd=True).memory_key(NOISE.params)
        assert simd == {**base, "memory": base["memory"] + ["simd"]}

    def test_sweep_cell_payloads(self):
        spec = ExperimentSpec(3, 3)
        plain = SweepCell(kind="memory_lfr", op="ZMemory", spec=spec,
                          noise=NOISE.params, shots=100)
        off = replace(plain, spec=replace(spec, simd=False))
        assert plain.key_payload() == off.key_payload()
        assert "simd" not in repr(plain.key_payload())
        assert replace(plain, spec=replace(spec, simd=True)).key() != plain.key()

        res = SweepCell(kind="resource", op="MeasureZ", spec=spec)
        assert "simd" not in res.key_payload()
        assert replace(res, spec=replace(spec, simd=True)).key_payload()["simd"] is True


class TestReportGating:
    def test_default_resource_report_has_no_simd_columns(self):
        compiler = TISCC(dx=3, dz=3, tile_rows=1, tile_cols=1)
        compiled = compiler.compile([("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))],
                                    operation="MeasureZ")
        rep = compiled.resources
        assert rep.beam_passes is None and rep.simd_utilization is None
        assert "beam_passes" not in rep.header()
        assert "beam_passes" not in format_resource_table([rep])
        assert "beam_passes" not in rep.to_dict()

    def test_simd_resource_report_gains_columns(self):
        compiler = TISCC(dx=3, dz=3, tile_rows=1, tile_cols=1)
        compiled = compiler.compile([("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))],
                                    operation="MeasureZ", simd=True)
        rep = compiled.resources
        assert rep.beam_passes == compiled.simd_report.beam_passes
        assert rep.simd_utilization == pytest.approx(compiled.simd_report.utilization)
        table = format_resource_table([rep])
        assert "beam_passes" in table and "simd_util" in table
        assert rep.to_dict()["beam_passes"] == rep.beam_passes


class TestCli:
    def run_cli(self, capsys, *argv):
        from repro.__main__ import main

        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_compile_output_unchanged_without_flag(self, capsys):
        code, out = self.run_cli(
            capsys, "compile", "--op", "MeasureZ", "--resources", "--timings"
        )
        assert code == 0
        assert "simd" not in out and "beam_passes" not in out

    def test_compile_simd_prints_summary_and_phase(self, capsys):
        code, out = self.run_cli(
            capsys, "compile", "--op", "MeasureZ", "--simd", "--resources", "--timings"
        )
        assert code == 0
        assert "# simd: beam passes" in out and "reduction" in out
        assert "beam_passes" in out and "simd_util" in out
        assert ", simd " in out  # phase split in the timings line
