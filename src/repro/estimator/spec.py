"""The axes of one experiment and the cache keys built from them.

An :class:`ExperimentSpec` checks its axes once and is the only place that
turns them into keys: the in-process compile key of
:mod:`repro.decode.memory`, and the experiment's part of a sweep cell's
content key (:meth:`repro.estimator.jobs.SweepCell.key`).  The profile,
SIMD and window axes came after the first checkpoints were written, so
they join a content key only when they are not the default: cells that
leave them at the default, and the checkpoints holding them, keep their
keys.  A new axis is one field here with its key join, one
:class:`~repro.decode.memory.MemoryExperiment` keyword and one
:func:`~repro.estimator.sweep.logical_error_sweep` keyword.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.profile import DEFAULT_PROFILE, HardwareProfile, get_profile
from repro.sim.dem import dem_structure_key
from repro.sim.noise import NoiseParams

__all__ = ["ExperimentSpec"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One memory experiment's or resource compile's axes.

    ``rounds=None`` means ``max(dx, dz)`` (:attr:`n_rounds`); the field keeps
    the value as given because resource-cell keys record it that way.
    ``profile`` is stored resolved.  ``window``/``commit`` shape a windowed
    decoder and are rejected for whole-block decoders, which ignore them;
    unset, they default to :attr:`window_shape`'s.
    """

    dx: int
    dz: int
    rounds: int | None = None
    basis: str = "Z"
    profile: HardwareProfile | str | None = None
    simd: bool = False
    decoder: str = "union_find"
    window: int | None = None
    commit: int | None = None

    def __post_init__(self) -> None:
        if self.basis not in ("Z", "X"):
            raise ValueError(f"memory basis must be 'Z' or 'X', not {self.basis!r}")
        if self.commit is not None and self.window is None:
            raise ValueError("commit without window makes no sense")
        if self.window is not None:
            # Imported here: the repro.decode package imports this module.
            from repro.decode.base import decoder_class

            if not decoder_class(self.decoder).wants_layout:
                raise ValueError(
                    f"window/commit only apply to windowed decoders, not {self.decoder!r}"
                )
            window, commit = self.window_shape
            if self.commit is None and commit >= window:
                raise ValueError(
                    f"window ({window}) must be larger than the default commit, the "
                    f"distance max(dx, dz) = {commit}; give a larger window or a "
                    f"commit below {window}"
                )
        object.__setattr__(self, "profile", get_profile(self.profile))

    @property
    def window_shape(self) -> tuple[int, int]:
        """A windowed decoder's ``(window, commit)`` in time slices.

        Unset, they default to ``2 * d`` and ``d``, with ``d = max(dx, dz)``.
        """
        d = max(self.dx, self.dz)
        return (
            self.window if self.window is not None else 2 * d,
            self.commit if self.commit is not None else d,
        )

    @property
    def n_rounds(self) -> int:
        return self.rounds if self.rounds is not None else max(self.dx, self.dz)

    @property
    def compile_key(self) -> tuple:
        """Key of the compiled memory circuit: the axes a compile depends on."""
        return (self.dx, self.dz, self.n_rounds, self.basis, self.profile.fingerprint, self.simd)

    def _joins(self) -> dict:
        """The axes that join a content key, each only when not the default."""
        default_profile = self.profile.fingerprint == DEFAULT_PROFILE.fingerprint
        joins = {
            "profile": None if default_profile else self.profile.fingerprint,
            "simd": self.simd or None,
            "window": self.window,
            "commit": self.commit,
        }
        return {k: v for k, v in joins.items() if v is not None}

    def memory_key(self, noise: NoiseParams | None) -> dict:
        """The experiment's part of a memory cell's key under ``noise``.

        Noise enters as its :func:`~repro.sim.dem.dem_structure_key` plus the
        raw rates, never its name, so renamed but identical models share keys.
        """
        if noise is None:
            noise_part = ["none"]
        else:
            rates = (noise.p1, noise.p2, noise.p_prep, noise.p_meas, noise.t2_us)
            noise_part = [*dem_structure_key(noise), *rates]
        joins = self._joins()
        memory = ["memory", self.dx, self.dz, self.n_rounds, self.basis, *noise_part]
        # Existing checkpoints fix this layout: profile and SIMD extend the
        # "memory" list, window and commit sit beside it.
        if "profile" in joins:
            memory.append(["profile", joins.pop("profile")])
        if joins.pop("simd", False):
            memory.append("simd")
        return {"memory": memory, "decoder": self.decoder, **joins}

    def resource_key(self) -> dict:
        """The experiment's part of a resource cell's key (no decoder axes)."""
        joins = self._joins()
        extra = {k: joins[k] for k in ("profile", "simd") if k in joins}
        return {"dx": self.dx, "dz": self.dz, "rounds": self.rounds, **extra}
