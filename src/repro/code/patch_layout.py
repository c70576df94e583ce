"""Mapping a surface-code patch onto the trapped-ion grid (paper §3.1, Fig 1).

Geometry (frozen spec): a patch with X/Z code distances
``dx``/``dz`` anchored at a tile origin places

* data qubit (i, j), 0 <= i < dz (rows), 0 <= j < dx (cols), on the centre
  (O) site of a horizontal segment: relative fine coords ``(4i, 4j + 2)``;
* face (fi, fj), fi in [-1, dz-1], fj in [-1, dx-1], with corner data
  ``a=(fi,fj)  b=(fi,fj+1)  c=(fi+1,fj)  d=(fi+1,fj+1)`` (clipped to the
  patch); the measure ion gates each corner from the pocket M site flanking
  that data qubit (``a/c`` from the east pocket, ``b/d`` from the west), so
  every pocket hangs off one of the face's two junctions
  ``J_N = (4fi, 4fj+4)`` and ``J_S = (4fi+4, 4fj+4)``;
* interior and left/right boundary faces own the vertical three-zone segment
  between their junctions as a private corridor and park their measure ion
  at its centre; top boundary faces park in their ``d`` pocket and bottom
  faces just south of their junction.

A logical tile is ``2*ceil((dz+1)/2)`` unit rows by ``2*ceil((dx+1)/2)``
unit columns (§2.3): one ancilla strip right/below the patch for odd
distances, two for even — two because a seam between even-distance patches
needs an even column offset to keep the face checkerboards of the two
patches aligned.
"""

from __future__ import annotations

from repro.code.arrangements import Arrangement
from repro.code.pauli import PauliString
from repro.code.plaquette import Plaquette
from repro.hardware.grid import GridManager
from repro.util.memo import BoundedMemo

__all__ = ["PatchLayout", "PLAQUETTE_SETS", "tile_unit_rows", "tile_unit_cols"]

#: Plaquette sets per ``(grid height, width, dx, dz, origin, arrangement)``,
#: shared by every layout with that key in the process.  One resource
#: sweep (13 operations at d=3..11) asks for 210 sets of 70 layouts.
#: ``MemoryExperiment.clear_compile_cache()`` empties it.
PLAQUETTE_SETS: BoundedMemo[tuple[Plaquette, ...]] = BoundedMemo(256)


def tile_unit_rows(dz: int) -> int:
    """Hardware-unit rows of a logical tile: 2 * ceil((dz+1)/2) (§2.3)."""
    return 2 * ((dz + 2) // 2)


def tile_unit_cols(dx: int) -> int:
    return 2 * ((dx + 2) // 2)


class PatchLayout:
    """Pure geometry of one patch: data sites, faces, routing infrastructure.

    ``origin`` is the (unit_row, unit_col) of the patch's top-left hardware
    unit.  ``PatchLayout`` performs no scheduling and owns no ions — that is
    :class:`~repro.code.logical_qubit.LogicalQubit`'s job.
    """

    def __init__(
        self,
        grid: GridManager,
        dx: int,
        dz: int,
        origin: tuple[int, int] = (0, 0),
        arrangement: Arrangement = Arrangement.STANDARD,
    ):
        if dx < 2 or dz < 2:
            raise ValueError("code distances below 2 are not supported")
        self.grid = grid
        self.dx = dx
        self.dz = dz
        self.origin = origin
        self.arrangement = arrangement
        self._or = 4 * origin[0]
        self._oc = 4 * origin[1]
        # Fail fast if the tile does not fit on the grid; plaquettes then
        # resolve their sites without bounds checks.
        self._site(4 * (dz - 1), 4 * dx)
        self._site(4 * dz - 1, 0)
        self._site(0, 0)

    # ------------------------------------------------------------ site math
    def _site(self, rel_r: int, rel_c: int) -> int:
        return self.grid.index(self._or + rel_r, self._oc + rel_c)

    def data_site(self, i: int, j: int) -> int:
        if not (0 <= i < self.dz and 0 <= j < self.dx):
            raise ValueError(f"data index ({i}, {j}) outside {self.dz}x{self.dx} patch")
        return self._site(4 * i, 4 * j + 2)

    def data_sites(self) -> dict[tuple[int, int], int]:
        return {
            (i, j): self.data_site(i, j)
            for i in range(self.dz)
            for j in range(self.dx)
        }

    @property
    def n_data(self) -> int:
        return self.dx * self.dz

    @property
    def tile_rows(self) -> int:
        return tile_unit_rows(self.dz)

    @property
    def tile_cols(self) -> int:
        return tile_unit_cols(self.dx)

    # ---------------------------------------------------------------- faces
    def face_exists(self, fi: int, fj: int) -> bool:
        arr = self.arrangement
        interior_i = 0 <= fi <= self.dz - 2
        interior_j = 0 <= fj <= self.dx - 2
        if interior_i and interior_j:
            return True
        letter = arr.face_letter(fi, fj)
        if fi == -1 and interior_j:
            return letter == arr.boundary_letter("top")
        if fi == self.dz - 1 and interior_j:
            return letter == arr.boundary_letter("bottom")
        if fj == -1 and interior_i:
            return letter == arr.boundary_letter("left")
        if fj == self.dx - 1 and interior_i:
            return letter == arr.boundary_letter("right")
        return False

    def face_letter(self, fi: int, fj: int) -> str:
        return self.arrangement.face_letter(fi, fj)

    def face_coords(self) -> list[tuple[int, int]]:
        return [
            (fi, fj)
            for fi in range(-1, self.dz)
            for fj in range(-1, self.dx)
            if self.face_exists(fi, fj)
        ]

    def _corners(self, fi: int, fj: int) -> dict[str, tuple[int, int]]:
        candidates = {
            "a": (fi, fj),
            "b": (fi, fj + 1),
            "c": (fi + 1, fj),
            "d": (fi + 1, fj + 1),
        }
        return {
            label: (i, j)
            for label, (i, j) in candidates.items()
            if 0 <= i < self.dz and 0 <= j < self.dx
        }

    def build_plaquette(self, fi: int, fj: int) -> Plaquette:
        """Resolve face (fi, fj) into a :class:`Plaquette` with routing infra."""
        if not self.face_exists(fi, fj):
            raise ValueError(f"face ({fi}, {fj}) does not exist in this arrangement")
        return self._resolve_plaquette(fi, fj, self.face_letter(fi, fj))

    def build_boundary_plaquette(self, fi: int, fj: int, letter: str) -> Plaquette:
        """Resolve a boundary face regardless of the current arrangement.

        Corner movement (§2.5) measures boundary stabilizers that do not yet
        belong to the patch's face set; this constructor supplies their
        geometry with an explicitly chosen letter.
        """
        on_boundary = fi in (-1, self.dz - 1) or fj in (-1, self.dx - 1)
        if not on_boundary:
            raise ValueError("corner movement can only add boundary stabilizers (§2.5)")
        return self._resolve_plaquette(fi, fj, letter)

    def _resolve_plaquette(self, fi: int, fj: int, letter: str) -> Plaquette:
        # Sites are offsets from the face's junctions J_N = (4fi, 4fj+4) and
        # J_S = (4fi+4, 4fj+4), without GridManager.index: each one used is
        # on the lattice (row 0 mod 4 for data sites, pockets and junctions,
        # column 0 mod 4 for corridor and park sites) and inside the tile
        # whose corners the constructor checked against the grid.
        width = self.grid.width
        j_n = (self._or + 4 * fi) * width + self._oc + 4 * fj + 4
        j_s = j_n + 4 * width
        corners = self._corners(fi, fj)
        data = {"a": j_n - 2, "b": j_n + 2, "c": j_s - 2, "d": j_s + 2}
        pocket = {"a": j_n - 1, "b": j_n + 1, "c": j_s - 1, "d": j_s + 1}
        data_sites = {lab: data[lab] for lab in corners}
        pockets = {lab: pocket[lab] for lab in corners}

        labels = frozenset(corners)
        graph: dict[int, list[int]] = {}

        def link(u: int, v: int) -> None:
            graph.setdefault(u, []).append(v)
            graph.setdefault(v, []).append(u)

        if labels == {"c", "d"}:  # top boundary face
            link(pockets["c"], j_s)
            link(pockets["d"], j_s)
            home = pockets["d"]
        elif labels == {"a", "b"}:  # bottom boundary face
            park = j_n + width
            link(pockets["a"], j_n)
            link(pockets["b"], j_n)
            link(park, j_n)
            home = park
        elif labels in ({"b", "d"}, {"a", "c"}, {"a", "b", "c", "d"}):
            # left boundary, right boundary, or interior: private corridor.
            m_n, hm, m_s = j_n + width, j_n + 2 * width, j_n + 3 * width
            link(j_n, m_n)
            link(m_n, hm)
            link(hm, m_s)
            link(m_s, j_s)
            for lab in labels & {"a", "b"}:
                link(pockets[lab], j_n)
            for lab in labels & {"c", "d"}:
                link(pockets[lab], j_s)
            home = hm
        else:
            raise ValueError(f"unsupported corner combination {sorted(labels)}")

        return Plaquette(
            face=(fi, fj),
            pauli=letter,
            corners=corners,
            data_sites=data_sites,
            pockets=pockets,
            home=home,
            graph={site: tuple(adj) for site, adj in graph.items()},
        )

    def plaquettes(self) -> tuple[Plaquette, ...]:
        """Every face of the patch, resolved; one shared set per layout key."""
        key = (
            self.grid.height, self.grid.width, self.dx, self.dz, tuple(self.origin),
            self.arrangement,
        )
        return PLAQUETTE_SETS.get(
            key, lambda: tuple(self.build_plaquette(fi, fj) for fi, fj in self.face_coords())
        )

    # ------------------------------------------------------------- logicals
    def logical_vertical(self, col: int = 0) -> PauliString:
        """Default-edge vertical logical (letter set by the arrangement)."""
        letter = self.arrangement.vertical_letter
        return PauliString({self.data_site(i, col): letter for i in range(self.dz)})

    def logical_horizontal(self, row: int = 0) -> PauliString:
        letter = self.arrangement.horizontal_letter
        return PauliString({self.data_site(row, j): letter for j in range(self.dx)})

    def logical_z(self) -> PauliString:
        """The logical Z (wherever it runs in this arrangement)."""
        if self.arrangement.vertical_letter == "Z":
            return self.logical_vertical()
        return self.logical_horizontal()

    def logical_x(self) -> PauliString:
        if self.arrangement.vertical_letter == "X":
            return self.logical_vertical()
        return self.logical_horizontal()

    # ------------------------------------------------------------ rendering
    def render_ascii(self) -> str:
        """Fig 1-style map of the tile: site kinds, data qubits, face homes."""
        rows = 4 * self.tile_rows + 1
        cols = 4 * self.tile_cols + 1
        canvas = [[" "] * cols for _ in range(rows)]
        for r in range(rows):
            for c in range(cols):
                if r % 4 == 0 and c % 4 == 0:
                    canvas[r][c] = "J"
                elif r % 4 == 0 and c % 4 != 0:
                    canvas[r][c] = "O" if c % 4 == 2 else "M"
                elif c % 4 == 0:
                    canvas[r][c] = "O" if r % 4 == 2 else "M"
        for (i, j), _site in self.data_sites().items():
            canvas[4 * i][4 * j + 2] = "D"
        for plaq in self.plaquettes():
            r, c = self.grid.coords(plaq.home)
            canvas[r - self._or][c - self._oc] = plaq.pauli.lower()
        return "\n".join("".join(row) for row in canvas)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PatchLayout dx={self.dx} dz={self.dz} origin={self.origin} "
            f"{self.arrangement.name}>"
        )
