"""Decoder protocol and registry: the pluggable half of the decode pipeline.

Every decoder consumes a fixed :class:`~repro.decode.graph.MatchingGraph`
and honours one batch contract — :meth:`Decoder.decode_batch` maps a
``(n_shots, n_detectors)`` 0/1 syndrome matrix to a ``(n_shots,)`` uint8
vector of predicted logical-frame flips.  Implementations register under a
string name (``@register_decoder``), and callers select them at run time::

    from repro.decode import get_decoder
    decoder = get_decoder("union_find", graph)
    flips = decoder.decode_batch(syndromes)

Built-in entries:

* ``"union_find"`` — weighted union-find (cluster growth + peeling) with
  batch-level vectorization; respects the graph's log-likelihood edge
  weights (on a unit-weight graph it reduces to the unweighted decoder);
* ``"union_find_unweighted"`` — the same engine forced onto unit weights
  (the ablation arm of weighted-vs-unweighted comparisons);
* ``"lookup"`` — an exact minimum-weight lookup table over the full
  syndrome space, viable only for small graphs (d=3 memories) and used as
  the equivalence oracle of the test suite;
* ``"union_find_windowed"`` — sliding-window (overlapping-commit) driver
  over the weighted union-find engine: O(window) decoder state for
  rounds ≫ d experiments.  It needs the detector layout and window shape
  at construction, which it declares via the class attribute
  ``wants_layout = True`` — callers that know the layout (e.g.
  :meth:`MemoryExperiment.decoder_for`) check
  ``decoder_class(name).wants_layout`` and pass ``n_faces``/``window``/
  ``commit`` through :func:`get_decoder`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.decode.graph import MatchingGraph

__all__ = [
    "Decoder",
    "register_decoder",
    "get_decoder",
    "decoder_class",
    "available_decoders",
    "integer_weights",
]


class Decoder(abc.ABC):
    """A syndrome decoder bound to one :class:`MatchingGraph`.

    Subclasses set the class attribute ``name`` (the registry key) and
    implement :meth:`decode_batch`; :meth:`decode` has a default
    single-shot implementation in terms of the batch path, so both entry
    points always agree.

    Instances may keep preallocated per-shot scratch state (the union-find
    implementations do), so a single instance is **not** safe for
    concurrent ``decode_batch`` calls — parallelize over *instances*
    (``get_decoder`` builds an independent one per call), not over threads
    sharing one.
    """

    #: Registry key; subclasses must override.
    name: str = ""
    #: True when the constructor needs the detector layout (``n_faces``)
    #: and window shape (``window``/``commit``) in addition to the graph.
    wants_layout: bool = False

    def __init__(self, graph: MatchingGraph):
        self.graph = graph
        self.n = graph.n_detectors

    # ------------------------------------------------------------ contract
    @abc.abstractmethod
    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Per-shot predicted logical flips for a ``(n_shots, n_detectors)`` batch."""

    def decode(self, syndrome: np.ndarray) -> int:
        """Predicted logical-frame flip (0/1) for one detector bit vector."""
        syndrome = np.asarray(syndrome)
        if syndrome.shape != (self.n,):
            raise ValueError(
                f"syndrome shape {syndrome.shape} does not match {self.n} detectors"
            )
        return int(self.decode_batch(syndrome[np.newaxis, :])[0])

    # ------------------------------------------------------------- helpers
    def _validate_batch(self, syndromes: np.ndarray) -> np.ndarray:
        syndromes = np.asarray(syndromes)
        if syndromes.ndim != 2 or syndromes.shape[1] != self.n:
            raise ValueError(
                f"syndromes shape {syndromes.shape} does not match "
                f"(n_shots, {self.n})"
            )
        return self._as_bits(syndromes)

    @staticmethod
    def _as_bits(values) -> np.ndarray:
        """``values`` as a uint8 array, rejecting any entry other than 0 or 1.

        A bare uint8 cast would wrap ``-1`` to 255, and a ``2`` counts as two
        defects where rows are summed but as one where nonzeros are found.
        """
        values = np.asarray(values)
        bits = values.astype(np.uint8, copy=False)
        if bits.size and (
            bits.max() > 1 or (bits is not values and not np.array_equal(bits, values))
        ):
            raise ValueError("syndrome entries must be 0 or 1")
        return bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} over {self.graph!r}>"


_REGISTRY: dict[str, type[Decoder]] = {}


def register_decoder(cls: type[Decoder]) -> type[Decoder]:
    """Class decorator: add ``cls`` to the decoder registry under ``cls.name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty registry name")
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_builtin_decoders() -> None:
    """Import the built-in decoder modules so their registrations run."""
    from repro.decode import lookup, union_find, window  # noqa: F401


def available_decoders() -> list[str]:
    """Sorted registry names (``["lookup", "union_find", ...]``)."""
    _ensure_builtin_decoders()
    return sorted(_REGISTRY)


def get_decoder(name: str, graph: MatchingGraph, **kwargs) -> Decoder:
    """Instantiate the registered decoder ``name`` over ``graph``.

    Unknown names raise a one-line :class:`ValueError` listing the
    available choices (the CLI surfaces it verbatim).
    """
    _ensure_builtin_decoders()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown decoder {name!r}; choose from {available_decoders()}"
        ) from None
    return cls(graph, **kwargs)


def decoder_class(name: str) -> type[Decoder]:
    """The registered decoder class for ``name`` without instantiating it.

    Lets callers inspect class-level protocol flags (``wants_layout``)
    before deciding which constructor arguments to supply.
    """
    _ensure_builtin_decoders()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown decoder {name!r}; choose from {available_decoders()}"
        ) from None


def integer_weights(
    weights: np.ndarray, unit: int = 16, max_weight: int = 2048
) -> np.ndarray:
    """Quantize positive edge weights to integer growth capacities.

    The cheapest edge maps to ``unit`` and every other edge to
    ``round(unit * w / w_min)`` clipped to ``max_weight`` — heavier (less
    probable) edges take proportionally longer to traverse.  ``unit`` sets
    the quantization resolution only: the union-find growth is
    event-driven (it fast-forwards to the next edge completion), so finer
    capacities cost nothing, and on a unit-weight graph any ``unit``
    reproduces the classic unweighted half-step growth exactly.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        return np.zeros(0, dtype=np.int64)
    if not (w > 0).all():
        raise ValueError("edge weights must be positive")
    scaled = np.rint(unit * w / w.min())
    return np.clip(scaled, unit, max_weight).astype(np.int64)
