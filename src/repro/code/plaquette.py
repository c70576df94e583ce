"""Stabilizer plaquettes and their hardware footprint.

A :class:`Plaquette` "primarily tracks the grid indices (qsites) occupied by
the qubits supported by a stabilizer plaquette" (paper App. B).  Here it also
carries the face's syndrome-extraction infrastructure: the parking site of
its mobile measure qubit, the gate pocket next to each data qubit, and the
private corridor sites used to travel between pockets — everything the
Z/N-pattern scheduler (§3.3, Fig 6) needs.

Corner labels follow Fig 6: ``a`` = NW, ``b`` = NE, ``c`` = SW, ``d`` = SE.
The Z pattern visits ``a, b, c, d``; the N pattern visits ``a, c, b, d``.
Missing corners (weight-2 boundary faces) keep their layer slots, so all
plaquettes of a patch stay layer-synchronized.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.code.pauli import PauliString

__all__ = ["Plaquette", "Z_PATTERN", "N_PATTERN"]

#: Measurement patterns (§3.3): corner visit order per layer.
Z_PATTERN = ("a", "b", "c", "d")
N_PATTERN = ("a", "c", "b", "d")


@dataclass(frozen=True)
class Plaquette:
    """One stabilizer face, fully resolved onto grid qsites.

    ``face`` is the face coordinate (fi, fj) in patch-relative face space;
    ``pauli`` its stabilizer letter; ``corners`` maps present corner labels
    to data-qubit (i, j) indices; ``data_sites``/``pockets`` map the same
    labels to the data qsite and the measure-ion gate position; ``home`` is
    the measure ion's parking site; ``graph`` is the local adjacency of its
    infrastructure sites used to route between pockets.

    Frozen, because one plaquette set serves every patch of the same
    layout in a process (:meth:`PatchLayout.plaquettes`).
    """

    face: tuple[int, int]
    pauli: str
    corners: dict[str, tuple[int, int]]
    data_sites: dict[str, int]
    pockets: dict[str, int]
    home: int
    graph: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.pauli not in ("X", "Z"):
            raise ValueError(f"plaquette letter must be X or Z, got {self.pauli!r}")
        if not self.corners:
            raise ValueError("a plaquette needs at least one corner")
        if set(self.corners) != set(self.data_sites) or set(self.corners) != set(self.pockets):
            raise ValueError("corners, data_sites and pockets must agree on labels")

    # -------------------------------------------------------------- algebra
    @property
    def weight(self) -> int:
        return len(self.corners)

    @property
    def pattern(self) -> tuple[str, ...]:
        """Measure-qubit visit order: Z faces use the Z pattern, X the N (§3.3)."""
        return Z_PATTERN if self.pauli == "Z" else N_PATTERN

    def stabilizer(self) -> PauliString:
        """The face's stabilizer as a Pauli string over data qsites."""
        return PauliString({site: self.pauli for site in self.data_sites.values()})

    def visits(self) -> list[tuple[int, str]]:
        """(layer, corner) pairs in execution order; layers are 1-based."""
        return [
            (layer, corner)
            for layer, corner in enumerate(self.pattern, start=1)
            if corner in self.corners
        ]

    # -------------------------------------------------------------- routing
    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Shortest path from src to dst through this face's private sites.

        The face graph is immutable, so results are memoized — syndrome
        rounds re-request the same pocket-to-pocket hops every round.
        """
        cache = self.__dict__.get("_path_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_path_cache", cache)
        hit = cache.get((src, dst))
        if hit is not None:
            return hit
        out = self._path_uncached(src, dst)
        cache[(src, dst)] = out
        return out

    def _path_uncached(self, src: int, dst: int) -> tuple[int, ...]:
        if src == dst:
            return (src,)
        prev: dict[int, int] = {src: src}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nxt in self.graph.get(cur, ()):
                if nxt in prev:
                    continue
                prev[nxt] = cur
                if nxt == dst:
                    out = [dst]
                    while out[-1] != src:
                        out.append(prev[out[-1]])
                    return tuple(out[::-1])
                queue.append(nxt)
        raise ValueError(f"no route {src} -> {dst} within plaquette {self.face}")

    def all_sites(self) -> set[int]:
        """Every qsite this face's infrastructure can touch (incl. junctions)."""
        sites = set(self.graph)
        for adj in self.graph.values():
            sites.update(adj)
        sites.update(self.data_sites.values())
        return sites

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Plaquette {self.pauli}{self.face} w{self.weight} home={self.home}>"
