"""Syndrome decoding: matching graphs, pluggable decoders, memory experiments.

Closes the loop from compiled stabilizer schedules to logical error rates:
:mod:`repro.decode.graph` holds the detector structure (graphs built from
detector error models, carrying log-likelihood edge weights),
:mod:`repro.decode.base` defines the :class:`Decoder` protocol
and registry (``get_decoder("union_find" | "union_find_unweighted" |
"lookup")``), :mod:`repro.decode.union_find` implements the batched
weighted union-find hot path, :mod:`repro.decode.lookup` the exact
small-graph table decoder, :mod:`repro.decode.window` the sliding-window
streaming driver (``union_find_windowed``) with O(window) decoder state,
and :mod:`repro.decode.memory` packages the standard memory experiment
that drives distance/rate sweeps and the ``tiscc lfr`` CLI.
"""

from repro.decode.base import (
    Decoder,
    available_decoders,
    decoder_class,
    get_decoder,
    register_decoder,
)
from repro.decode.graph import (
    BOUNDARY,
    DetectorEdge,
    MatchingGraph,
    build_dem_graph,
)
from repro.decode.lookup import LookupDecoder
from repro.decode.memory import MemoryExperiment
from repro.decode.union_find import UnionFindDecoder, UnweightedUnionFindDecoder
from repro.decode.window import WindowedUnionFindDecoder

__all__ = [
    "BOUNDARY",
    "DetectorEdge",
    "MatchingGraph",
    "build_dem_graph",
    "Decoder",
    "available_decoders",
    "decoder_class",
    "get_decoder",
    "register_decoder",
    "UnionFindDecoder",
    "UnweightedUnionFindDecoder",
    "WindowedUnionFindDecoder",
    "LookupDecoder",
    "MemoryExperiment",
]
