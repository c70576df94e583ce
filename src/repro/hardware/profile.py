"""Declarative hardware profiles: one object holds a whole trap scenario.

A :class:`HardwareProfile` bundles everything the compiler, noise model,
and estimator previously read from scattered module constants — the grid
unit topology and zone pitch (§3.1), transport durations (``Move``,
junction crossings, §3.2), the full native gate-time table (Table 5), and
the named noise presets — into one frozen, validated, content-addressed
value.  The profile is the single source of truth: ``GridManager``,
``HardwareModel``, ``NoiseModel.preset``, ``TISCC``, ``MemoryExperiment``,
and the sweep layer all take one, and the legacy module constants
(``GATE_TIMES_US``, ``MOVE_US``, ``JUNCTION_HOP_US``, ``NOISE_PRESETS``)
remain as views of :data:`DEFAULT_PROFILE`.

Profiles load from TOML or JSON files (:meth:`HardwareProfile.load`) or
resolve by registered name (:func:`get_profile`); three ship with the
package (``baseline``, ``slow_junction``, ``fast_projected``) under
:data:`PROFILE_DIR`.  Because scenario comparisons are only meaningful
when results can never be cross-contaminated, every compile/DEM/decoder/
sweep cache key incorporates :attr:`HardwareProfile.fingerprint` — a
SHA-256 over the physical content of the profile (names and descriptions
are cosmetic and excluded), so two profiles differing in a single gate
time can never share a cached artifact, while a renamed-but-identical
profile hits the same entries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Mapping

__all__ = [
    "HardwareProfile",
    "ProfileError",
    "DEFAULT_PROFILE",
    "PROFILE_DIR",
    "REQUIRED_GATES",
    "SIMD_MODES",
    "get_profile",
    "register_profile",
    "available_profiles",
]


class ProfileError(ValueError):
    """A hardware profile failed to load or validate (one-line message)."""


#: Directory of profile files shipped with the package.
PROFILE_DIR = Path(__file__).parent / "profiles"

#: Gate names every profile's time table must price (the compiler emits
#: exactly these; transport is priced by ``move_us``/``junction_us``).
REQUIRED_GATES: tuple[str, ...] = (
    "Prepare_Z",
    "Measure_Z",
    "X_pi/2",
    "X_pi/4",
    "X_-pi/4",
    "Y_pi/2",
    "Y_pi/4",
    "Y_-pi/4",
    "Z_pi/2",
    "Z_pi/4",
    "Z_-pi/4",
    "Z_pi/8",
    "Z_-pi/8",
    "ZZ",
)

#: Grid topologies the geometry layer implements.
SUPPORTED_TOPOLOGIES: tuple[str, ...] = ("2d_junction",)

#: Beam timing disciplines the SIMD scheduler implements
#: (see :mod:`repro.hardware.simd`).
SIMD_MODES: tuple[str, ...] = ("site_parallel", "pass_serial")

#: Field order of one noise preset's canonical tuple form.
_NOISE_FIELDS: tuple[str, ...] = ("p1", "p2", "p_prep", "p_meas", "t2_us")

_BASELINE_GATE_TIMES: tuple[tuple[str, float], ...] = (
    ("Measure_Z", 120.0),
    ("Prepare_Z", 10.0),
    ("X_-pi/4", 10.0),
    ("X_pi/2", 10.0),
    ("X_pi/4", 10.0),
    ("Y_-pi/4", 10.0),
    ("Y_pi/2", 10.0),
    ("Y_pi/4", 10.0),
    ("ZZ", 2000.0),
    ("Z_-pi/4", 3.0),
    ("Z_-pi/8", 3.0),
    ("Z_pi/2", 3.0),
    ("Z_pi/4", 3.0),
    ("Z_pi/8", 3.0),
)

_BASELINE_PRESETS: tuple[tuple[str, tuple[tuple[str, float | None], ...]], ...] = (
    (
        "ideal",
        (("p1", 0.0), ("p2", 0.0), ("p_prep", 0.0), ("p_meas", 0.0), ("t2_us", None)),
    ),
    (
        "near_term",
        (("p1", 2e-4), ("p2", 2e-3), ("p_prep", 2e-3), ("p_meas", 3e-3), ("t2_us", 2e6)),
    ),
    (
        "projected",
        (("p1", 1e-5), ("p2", 2e-4), ("p_prep", 2e-4), ("p_meas", 3e-4), ("t2_us", 2e7)),
    ),
)


def _freeze_gate_times(table: Mapping[str, float]) -> tuple[tuple[str, float], ...]:
    return tuple(sorted((str(k), float(v)) for k, v in dict(table).items()))


def _freeze_presets(presets) -> tuple:
    frozen = []
    for name in sorted(dict(presets)):
        values = dict(dict(presets)[name])
        unknown = sorted(set(values) - set(_NOISE_FIELDS))
        if unknown:
            raise ProfileError(
                f"noise preset {name!r} has unknown parameter(s) {unknown}; "
                f"allowed: {list(_NOISE_FIELDS)}"
            )
        row = tuple(
            (f, None if values.get(f) is None else float(values.get(f, 0.0)))
            for f in _NOISE_FIELDS
        )
        frozen.append((str(name), row))
    return tuple(frozen)


@dataclass(frozen=True)
class HardwareProfile:
    """One declarative trapped-ion hardware scenario (frozen, hashable).

    ``gate_times_us`` and ``noise_presets`` accept plain mappings and are
    canonicalized to sorted tuples, so profiles compare, hash, and pickle
    by value — a :class:`HardwareProfile` can sit inside a frozen
    ``SweepCell`` and travel to pool workers unchanged.

    ``name``/``description`` are cosmetic: they never enter
    :attr:`fingerprint`, so renaming a profile cannot invalidate (or,
    worse, alias) cached results.
    """

    name: str = "baseline"
    description: str = ""
    #: Grid unit topology; only the §3.1 ``{M, O, M, J, M, O, M}`` 2D
    #: junction tiling is implemented today, but the knob is validated so a
    #: file written for a future topology fails loudly, not silently.
    topology: str = "2d_junction"
    #: Trapping-zone pitch in µm (§3.2: 420 µm) — drives grid area.
    zone_pitch_um: float = 420.0
    #: Zone-to-zone transport duration in µs.
    move_us: float = 5.25
    #: One junction operation in µs; a crossing costs two (§3.2).
    junction_us: float = 105.0
    gate_times_us: tuple[tuple[str, float], ...] = _BASELINE_GATE_TIMES
    noise_presets: tuple = _BASELINE_PRESETS
    #: SIMD beam capacity: max gates per beam pass (0 = unlimited width).
    simd_width: int = 0
    #: Per-beam-pass setup overhead in µs (calibration, beam steering).
    simd_pass_overhead_us: float = 0.0
    #: Beam timing discipline: ``site_parallel`` (passes on disjoint sites
    #: overlap freely) or ``pass_serial`` (one global beam serializes all
    #: passes — beam-pass-limited hardware).
    simd_mode: str = "site_parallel"
    #: Extra free-form metadata (citation, calibration date); not fingerprinted.
    meta: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        if not isinstance(self.gate_times_us, tuple):
            object.__setattr__(self, "gate_times_us", _freeze_gate_times(self.gate_times_us))
        if not isinstance(self.noise_presets, tuple):
            object.__setattr__(self, "noise_presets", _freeze_presets(self.noise_presets))
        if not isinstance(self.meta, tuple):
            object.__setattr__(
                self, "meta", tuple(sorted((str(k), str(v)) for k, v in dict(self.meta).items()))
            )
        self.validate()

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Raise :class:`ProfileError` with a one-line message on any defect."""
        if not self.name:
            raise ProfileError("profile name must be a non-empty string")
        if self.topology not in SUPPORTED_TOPOLOGIES:
            raise ProfileError(
                f"unsupported topology {self.topology!r}; "
                f"implemented: {list(SUPPORTED_TOPOLOGIES)}"
            )
        for knob in ("zone_pitch_um", "move_us", "junction_us"):
            v = getattr(self, knob)
            if not isinstance(v, (int, float)) or not v > 0 or v != v:
                raise ProfileError(f"{knob}={v!r} must be a positive number")
        table = dict(self.gate_times_us)
        for reserved in ("Move", "Junction", "Load"):
            if reserved in table:
                raise ProfileError(
                    f"gate_times_us may not contain {reserved!r}; transport is "
                    "priced by move_us/junction_us (Load is instantaneous)"
                )
        missing = [g for g in REQUIRED_GATES if g not in table]
        if missing:
            raise ProfileError(f"gate_times_us is missing required gate(s) {missing}")
        for gate, dur in table.items():
            if not dur > 0 or dur != dur:
                raise ProfileError(f"gate_times_us[{gate!r}]={dur!r} must be a positive duration")
        if (
            isinstance(self.simd_width, bool)
            or not isinstance(self.simd_width, int)
            or self.simd_width < 0
        ):
            raise ProfileError(
                f"simd_width={self.simd_width!r} must be an integer >= 0 (0 = unlimited)"
            )
        ov = self.simd_pass_overhead_us
        if not isinstance(ov, (int, float)) or not (ov >= 0) or ov != ov or ov == float("inf"):
            raise ProfileError(
                f"simd_pass_overhead_us={ov!r} must be a finite number >= 0"
            )
        if self.simd_mode not in SIMD_MODES:
            raise ProfileError(
                f"simd_mode={self.simd_mode!r} must be one of {list(SIMD_MODES)}"
            )
        for preset, row in self.noise_presets:
            for fname, v in row:
                if fname == "t2_us":
                    if v is not None and not v > 0:
                        raise ProfileError(
                            f"noise preset {preset!r}: t2_us={v!r} must be positive (or omitted)"
                        )
                elif not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                    raise ProfileError(
                        f"noise preset {preset!r}: {fname}={v!r} is not a probability"
                    )

    # ------------------------------------------------------------ derived
    @property
    def junction_hop_us(self) -> float:
        """Duration of one junction crossing: two junction operations."""
        return 2.0 * self.junction_us

    @property
    def zone_pitch_m(self) -> float:
        return self.zone_pitch_um * 1e-6

    @cached_property
    def gate_times(self) -> dict[str, float]:
        """Full duration table including transport — treat as read-only.

        Keyed exactly like the legacy ``GATE_TIMES_US`` constant:
        the declared gates plus ``Move`` and ``Junction``.
        """
        table = dict(self.gate_times_us)
        table["Move"] = self.move_us
        table["Junction"] = self.junction_us
        return table

    @property
    def preset_names(self) -> list[str]:
        return [name for name, _ in self.noise_presets]

    def preset_params(self, name: str) -> dict[str, float | None]:
        """Parameter dict of one named noise preset (for ``NoiseParams``)."""
        for preset, row in self.noise_presets:
            if preset == name:
                return dict(row)
        raise ProfileError(
            f"profile {self.name!r} has no noise preset {name!r}; "
            f"available: {self.preset_names}"
        )

    # ------------------------------------------------------------ identity
    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 of the profile's physical content (not its name).

        This string joins every compile/DEM/decoder/sweep cache key, so two
        profiles differing in any physical value can never share a cached
        artifact, while renamed-but-identical profiles do.
        """
        payload = {
            "topology": self.topology,
            "zone_pitch_um": self.zone_pitch_um,
            "move_us": self.move_us,
            "junction_us": self.junction_us,
            "gate_times_us": list(self.gate_times_us),
            "noise_presets": [[name, list(row)] for name, row in self.noise_presets],
        }
        # Appended only when non-default (PR 7/8 pattern): profiles written
        # before SIMD scheduling existed keep their fingerprints, so every
        # pre-existing checkpoint and content-addressed cache entry stays
        # valid.
        if self._simd_nondefault():
            payload["simd"] = {
                "width": self.simd_width,
                "pass_overhead_us": self.simd_pass_overhead_us,
                "mode": self.simd_mode,
            }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _simd_nondefault(self) -> bool:
        return bool(
            self.simd_width
            or self.simd_pass_overhead_us
            or self.simd_mode != "site_parallel"
        )

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        """JSON/TOML-friendly form; :meth:`from_dict` is the exact inverse."""
        out: dict = {
            "name": self.name,
            "description": self.description,
            "topology": self.topology,
            "zone_pitch_um": self.zone_pitch_um,
            "move_us": self.move_us,
            "junction_us": self.junction_us,
            "gate_times_us": dict(self.gate_times_us),
            "noise_presets": {
                name: {f: v for f, v in row if v is not None}
                for name, row in self.noise_presets
            },
        }
        if self._simd_nondefault():
            out["simd_width"] = self.simd_width
            out["simd_pass_overhead_us"] = self.simd_pass_overhead_us
            out["simd_mode"] = self.simd_mode
        if self.meta:
            out["meta"] = dict(self.meta)
        return out

    @classmethod
    def from_dict(cls, payload: Mapping, name: str | None = None) -> "HardwareProfile":
        """Build and validate a profile from a parsed TOML/JSON document.

        Unknown top-level keys are rejected with a one-line error — a typo
        like ``juction_us`` must not silently fall back to the default.
        """
        if not isinstance(payload, Mapping):
            raise ProfileError(f"profile document must be a table/object, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ProfileError(
                f"unknown profile key(s) {unknown}; allowed: {sorted(known)}"
            )
        data = dict(payload)
        if name is not None:
            data.setdefault("name", name)
        try:
            return cls(**data)
        except TypeError as err:
            raise ProfileError(f"bad profile document: {err}") from None

    @classmethod
    def load(cls, path: str | Path) -> "HardwareProfile":
        """Load a profile from a ``.toml`` or ``.json`` file.

        The file's ``name`` key wins; otherwise the file stem names the
        profile.  Every load re-validates, so a hand-edited file fails with
        a one-line :class:`ProfileError`, never a deep traceback.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as err:
            raise ProfileError(f"cannot read profile file {path}: {err}") from None
        if path.suffix.lower() == ".json":
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as err:
                raise ProfileError(f"{path} is not valid JSON: {err}") from None
        else:
            payload = _parse_toml(text, path)
        return cls.from_dict(payload, name=path.stem)

    def dumps(self) -> str:
        """Canonical JSON text of :meth:`to_dict` (loadable by :meth:`load`)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def dump(self, path: str | Path) -> Path:
        """Write the profile as JSON (the stdlib cannot emit TOML)."""
        path = Path(path)
        path.write_text(self.dumps())
        return path

    def renamed(self, name: str, description: str | None = None) -> "HardwareProfile":
        """Cosmetic copy under a new name — same :attr:`fingerprint`."""
        return replace(
            self, name=name, description=self.description if description is None else description
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<HardwareProfile {self.name!r} move={self.move_us:g}us "
            f"junction_hop={self.junction_hop_us:g}us ZZ={self.gate_times['ZZ']:g}us "
            f"presets={self.preset_names} fp={self.fingerprint[:12]}>"
        )


# --------------------------------------------------------------- TOML input
def _parse_toml(text: str, path: Path) -> dict:
    """Parse TOML via stdlib ``tomllib``, or a minimal fallback on 3.10.

    The fallback accepts the subset profile files actually use — dotted
    ``[table.subtable]`` headers, quoted/bare keys, string/number/boolean
    values, full-line comments — and rejects everything else loudly.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        return _parse_toml_minimal(text, path)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as err:
        raise ProfileError(f"{path} is not valid TOML: {err}") from None


def _parse_toml_minimal(text: str, path: Path) -> dict:
    root: dict = {}
    table = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            table = root
            for part in line[1:-1].split("."):
                key = part.strip().strip('"')
                table = table.setdefault(key, {})
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ProfileError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        table[key.strip().strip('"')] = _toml_value(value.strip(), path, lineno)
    return root


def _toml_value(token: str, path: Path, lineno: int):
    if token.startswith('"'):
        if not token.endswith('"') or len(token) < 2:
            raise ProfileError(f"{path}:{lineno}: unterminated string {token!r}")
        return token[1:-1]
    token = token.split("#", 1)[0].strip()  # inline comment after a bare value
    if token in ("true", "false"):
        return token == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise ProfileError(f"{path}:{lineno}: unsupported TOML value {token!r}") from None


# ----------------------------------------------------------------- registry
#: The profile every legacy constructor and module constant reflects —
#: bit-identical to the hard-coded scenario this codebase shipped with.
DEFAULT_PROFILE = HardwareProfile(
    name="baseline",
    description="Paper Table 5 / Fig 5 calibrations on the 2D junction grid (§3.1-§3.2)",
)

_REGISTRY: dict[str, HardwareProfile] = {"baseline": DEFAULT_PROFILE}


def register_profile(profile: HardwareProfile, overwrite: bool = False) -> HardwareProfile:
    """Register ``profile`` under its name for :func:`get_profile` lookup."""
    existing = _REGISTRY.get(profile.name)
    if existing is not None and not overwrite and existing != profile:
        raise ProfileError(
            f"a different profile is already registered as {profile.name!r}; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[profile.name] = profile
    return profile


def available_profiles() -> list[str]:
    """Registered names plus shipped profile files, sorted."""
    names = set(_REGISTRY)
    if PROFILE_DIR.is_dir():
        names.update(p.stem for p in PROFILE_DIR.glob("*.toml"))
        names.update(p.stem for p in PROFILE_DIR.glob("*.json"))
    return sorted(names)


def get_profile(spec: "HardwareProfile | str | Path | None") -> HardwareProfile:
    """Resolve a profile: an instance, a registered/shipped name, or a path.

    ``None`` means :data:`DEFAULT_PROFILE`.  Shipped profiles load once and
    stay registered; an explicit file path loads fresh every call (editing
    the file between calls is honoured — the fingerprint keeps caches safe).
    """
    if spec is None:
        return DEFAULT_PROFILE
    if isinstance(spec, HardwareProfile):
        return spec
    name = str(spec)
    cached = _REGISTRY.get(name)
    if cached is not None:
        return cached
    for suffix in (".toml", ".json"):
        shipped = PROFILE_DIR / f"{name}{suffix}"
        if shipped.is_file():
            return register_profile(HardwareProfile.load(shipped))
    path = Path(name)
    if path.suffix.lower() in (".toml", ".json") or path.is_file():
        if not path.is_file():
            raise ProfileError(f"profile file {name!r} does not exist")
        return HardwareProfile.load(path)
    raise ProfileError(
        f"unknown hardware profile {name!r}; choose from {available_profiles()} "
        "or give a TOML/JSON file path"
    )
