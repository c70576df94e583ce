"""HardwareProfile API: validation, round-trips, default bit-identity,
and cache isolation between physically different profiles.

The profile is the single source of truth for every calibration constant,
so two invariants carry the whole design: (a) the default profile is
bit-identical to the historical module constants (existing results and
checkpoints stay valid), and (b) any physically different profile changes
every cache key it touches (no cross-profile contamination).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.decode.memory import MemoryExperiment
from repro.estimator.jobs import logical_error_cells, resource_cells
from repro.estimator.spec import ExperimentSpec
from repro.estimator.sweep import sweep_operation
from repro.hardware import model as hw_model
from repro.hardware.grid import MOVE_US, JUNCTION_HOP_US, GridManager, grid_for_patch
from repro.hardware.profile import (
    DEFAULT_PROFILE,
    PROFILE_DIR,
    REQUIRED_GATES,
    HardwareProfile,
    ProfileError,
    available_profiles,
    get_profile,
)
from repro.sim.noise import NOISE_PRESETS, NoiseModel


def _variant(**changes) -> HardwareProfile:
    """A validated copy of the default profile with some fields replaced."""
    base = DEFAULT_PROFILE.to_dict()
    base.update(changes)
    return HardwareProfile.from_dict(base)


class TestValidation:
    def test_default_profile_validates(self):
        DEFAULT_PROFILE.validate()

    def test_required_gates_enforced(self):
        times = dict(DEFAULT_PROFILE.gate_times_us)
        times.pop("ZZ")
        with pytest.raises(ProfileError, match="ZZ"):
            _variant(gate_times_us=times)

    def test_negative_gate_time_rejected(self):
        times = dict(DEFAULT_PROFILE.gate_times_us)
        times["ZZ"] = -1.0
        with pytest.raises(ProfileError, match="positive"):
            _variant(gate_times_us=times)

    def test_bad_topology_rejected(self):
        with pytest.raises(ProfileError, match="topology"):
            _variant(topology="hexagonal")

    def test_bad_probability_rejected(self):
        presets = {n: dict(DEFAULT_PROFILE.preset_params(n)) for n in DEFAULT_PROFILE.preset_names}
        presets["near_term"]["p2"] = 1.5
        with pytest.raises(ProfileError, match="not a probability"):
            _variant(noise_presets=presets)

    def test_unknown_key_rejected(self):
        payload = DEFAULT_PROFILE.to_dict()
        payload["zone_pich_um"] = 420.0  # typo'd knob must not pass silently
        with pytest.raises(ProfileError, match="zone_pich_um"):
            HardwareProfile.from_dict(payload)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ProfileError, match="baseline"):
            get_profile("no_such_trap")

    def test_errors_are_one_line(self):
        for build in (
            lambda: get_profile("no_such_trap"),
            lambda: _variant(move_us=-1.0),
            lambda: _variant(topology="hexagonal"),
        ):
            with pytest.raises(ProfileError) as err:
                build()
            assert "\n" not in str(err.value)


class TestRoundTrip:
    def test_shipped_baseline_matches_default(self):
        shipped = HardwareProfile.load(PROFILE_DIR / "baseline.toml")
        assert shipped == DEFAULT_PROFILE
        assert shipped.fingerprint == DEFAULT_PROFILE.fingerprint

    @pytest.mark.parametrize("name", ["baseline", "slow_junction", "fast_projected"])
    def test_shipped_profiles_validate(self, name):
        prof = get_profile(name)
        prof.validate()
        assert prof.name == name

    def test_json_round_trip_exact(self, tmp_path):
        for name in available_profiles():
            prof = get_profile(name)
            path = tmp_path / f"{name}.json"
            prof.dump(path)
            again = HardwareProfile.load(path)
            assert again == prof
            assert again.fingerprint == prof.fingerprint

    def test_dict_round_trip_exact(self):
        prof = get_profile("slow_junction")
        assert HardwareProfile.from_dict(prof.to_dict()) == prof

    def test_fingerprint_ignores_cosmetics(self):
        renamed = _variant(name="same_physics", description="different words")
        assert renamed.fingerprint == DEFAULT_PROFILE.fingerprint

    def test_fingerprint_tracks_physics(self):
        times = dict(DEFAULT_PROFILE.gate_times_us)
        times["ZZ"] = times["ZZ"] + 1.0
        assert _variant(gate_times_us=times).fingerprint != DEFAULT_PROFILE.fingerprint

    def test_fingerprint_is_stable_json(self):
        # The fingerprint must be derived from canonical JSON (sorted keys),
        # so a dict built in any insertion order fingerprints identically.
        payload = DEFAULT_PROFILE.to_dict()
        shuffled = dict(reversed(list(payload.items())))
        assert HardwareProfile.from_dict(shuffled).fingerprint == DEFAULT_PROFILE.fingerprint


class TestDefaultBitIdentity:
    """The default profile IS the historical constants — keys and all."""

    def test_module_constants_are_default_views(self):
        assert MOVE_US == DEFAULT_PROFILE.move_us
        assert JUNCTION_HOP_US == DEFAULT_PROFILE.junction_hop_us
        assert dict(hw_model.GATE_TIMES_US) == dict(DEFAULT_PROFILE.gate_times)
        for name, params in NOISE_PRESETS.items():
            expected = DEFAULT_PROFILE.preset_params(name)
            got = {k: getattr(params, k) for k in expected}
            assert got == expected

    def test_memory_cache_key_unchanged_for_default(self):
        noise = NoiseModel.uniform(1e-3).params
        legacy = ExperimentSpec(3, 3, 3).memory_key(noise)
        threaded = ExperimentSpec(3, 3, 3, profile=DEFAULT_PROFILE).memory_key(noise)
        assert legacy == threaded
        assert all("profile" not in str(part) for part in legacy["memory"])

    def test_default_cells_have_no_profile_in_payload(self):
        (cell,) = resource_cells(["Idle"], [ExperimentSpec(3, 3)])
        assert "profile" not in cell.key_payload()
        (cell,) = logical_error_cells(
            [ExperimentSpec(3, 3)], [NoiseModel.uniform(1e-3)], shots=10
        )
        assert "profile" not in str(cell.key_payload())

    def test_explicit_baseline_equals_implicit_default(self):
        implicit = sweep_operation("Idle", [3])
        explicit = sweep_operation("Idle", [3], profile="baseline")
        assert implicit == explicit


class TestCacheIsolation:
    def test_one_gate_time_changes_every_key(self):
        times = dict(DEFAULT_PROFILE.gate_times_us)
        times["Measure_Z"] = times["Measure_Z"] + 1.0
        tweaked = _variant(name="tweaked", gate_times_us=times)
        assert tweaked.fingerprint != DEFAULT_PROFILE.fingerprint

        noise = NoiseModel.uniform(1e-3)
        default, changed = ExperimentSpec(3, 3), ExperimentSpec(3, 3, profile=tweaked)
        assert default.memory_key(noise.params) != changed.memory_key(noise.params)

        (a,) = resource_cells(["Idle"], [default])
        (b,) = resource_cells(["Idle"], [changed])
        assert a.key_payload() != b.key_payload()

        (a,) = logical_error_cells([default], [noise], shots=10)
        (b,) = logical_error_cells([changed], [noise], shots=10)
        assert a.key_payload() != b.key_payload()

    def test_distinct_profiles_get_distinct_compile_cores(self):
        base = MemoryExperiment(distance=3, basis="Z")
        slow = MemoryExperiment(distance=3, basis="Z", profile="slow_junction")
        assert base.profile.fingerprint != slow.profile.fingerprint
        # Different gate/shuttle durations must reach the compiled schedule.
        base_span = base.compiled.circuit.makespan
        slow_span = slow.compiled.circuit.makespan
        assert slow_span > base_span

    def test_profile_sweep_differs_from_baseline(self):
        reports = sweep_operation("Idle", [3], profile=["baseline", "slow_junction"])
        assert [r.profile for r in reports] == ["baseline", "slow_junction"]
        assert reports[1].computation_time_s > reports[0].computation_time_s
        assert reports[1].n_instructions == reports[0].n_instructions


class TestApiThreading:
    def test_grid_manager_positional_compat(self):
        legacy = GridManager(5, 5)
        assert legacy.profile is DEFAULT_PROFILE
        assert legacy.move_us == MOVE_US

    def test_grid_manager_with_profile(self):
        grid = GridManager(get_profile("slow_junction"), 5, 5)
        assert grid.move_us == 10.5
        assert grid.junction_hop_us == 1050.0

    def test_grid_for_patch_matches_legacy_margins(self):
        grid = grid_for_patch(None, dx=3, dz=3)
        legacy = GridManager(5, 5)
        assert (grid.height, grid.width) == (legacy.height, legacy.width)

    def test_noise_preset_resolves_against_profile(self):
        default = NoiseModel.preset("near_term")
        fast = NoiseModel.preset("near_term", profile="fast_projected")
        assert fast.params.p2 < default.params.p2

    def test_gate_times_mutation_warns(self):
        with pytest.warns(DeprecationWarning, match="HardwareProfile"):
            hw_model.GATE_TIMES_US["ZZ"] = hw_model.GATE_TIMES_US["ZZ"]

    def test_profile_is_hashable_and_picklable(self):
        import pickle

        prof = get_profile("fast_projected")
        assert pickle.loads(pickle.dumps(prof)) == prof
        assert len({prof, get_profile("fast_projected")}) == 1

    def test_toml_and_json_parse_identically(self, tmp_path):
        prof = get_profile("slow_junction")
        json_path = tmp_path / "p.json"
        json_path.write_text(prof.dumps())
        assert HardwareProfile.load(json_path).fingerprint == prof.fingerprint
