"""Geometry shared across compiles: one build per shape, read-only, no effect on output.

Grids of the same ``(height, width)`` share their geometry tables, and
patch layouts with the same key share one plaquette set
(``repro.hardware.grid.GEOMETRY``, ``repro.code.patch_layout.PLAQUETTE_SETS``).
Both memos are process-wide and emptied by
``MemoryExperiment.clear_compile_cache()``.  Shared state must be
read-only, so a mutation fails instead of leaking into the next compile,
and compiling with warm memos must give exactly what cold memos give.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.code.patch_layout import PLAQUETTE_SETS, PatchLayout
from repro.core.compiler import TISCC
from repro.decode.memory import MemoryExperiment
from repro.estimator.sweep import OPERATION_PROGRAMS
from repro.hardware.grid import GEOMETRY, GridManager


@pytest.fixture(autouse=True)
def cold_memos():
    MemoryExperiment.clear_compile_cache()
    yield
    MemoryExperiment.clear_compile_cache()


def test_grids_of_one_shape_share_their_geometry():
    a, b, other = GridManager(3, 4), GridManager(3, 4), GridManager(4, 3)
    assert a._geometry is b._geometry
    assert a.site_kinds() is b.site_kinds()
    assert a.zone_mask() is b.zone_mask()
    assert other._geometry is not a._geometry
    assert len(GEOMETRY) == 2


def test_layouts_with_one_key_share_their_plaquettes():
    grid = GridManager(5, 5)
    first = PatchLayout(grid, 3, 3).plaquettes()
    assert PatchLayout(GridManager(5, 5), 3, 3).plaquettes() is first
    assert PatchLayout(grid, 3, 3, origin=(1, 0)).plaquettes() is not first
    assert PatchLayout(grid, 2, 3).plaquettes() is not first


def test_shared_geometry_is_read_only():
    grid = GridManager(3, 3)
    site = grid.zone_sites()[0]
    with pytest.raises(ValueError):
        grid.site_kinds()[site] = 0
    with pytest.raises(ValueError):
        grid.zone_mask()[site] = False
    with pytest.raises(AttributeError):
        grid.neighbors(site).append(site)
    with pytest.raises(TypeError):
        grid._geometry.neighbors[site] = ()
    # A caller's zone list is its own.
    grid.zone_sites().clear()
    assert grid.zone_sites()


def test_shared_plaquettes_are_read_only():
    plaquettes = PatchLayout(GridManager(5, 5), 3, 3).plaquettes()
    plaq = plaquettes[0]
    with pytest.raises(AttributeError):
        plaquettes.append(plaq)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plaq.home = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        plaq.pauli = "X"
    with pytest.raises(AttributeError):
        next(iter(plaq.graph.values())).append(0)
    src, dst = plaq.pockets[next(iter(plaq.pockets))], plaq.home
    path = plaq.path(src, dst)
    assert isinstance(path, tuple)
    assert plaq.path(src, dst) is path  # memoized on the shared plaquette


def test_clear_compile_cache_drops_both_memos():
    grid = GridManager(5, 5)
    plaquettes = PatchLayout(grid, 3, 3).plaquettes()
    MemoryExperiment.clear_compile_cache()
    assert len(GEOMETRY) == len(PLAQUETTE_SETS) == 0
    again = GridManager(5, 5)
    assert again._geometry is not grid._geometry
    assert again.site_kinds() is not grid.site_kinds()
    assert (again.site_kinds() == grid.site_kinds()).all()
    rebuilt = PatchLayout(again, 3, 3).plaquettes()
    assert rebuilt is not plaquettes
    assert rebuilt == plaquettes


def _outputs(op: str, d: int) -> tuple:
    build, shape = OPERATION_PROGRAMS[op]
    compiled = TISCC(dx=d, dz=d, tile_rows=shape[0], tile_cols=shape[1]).compile(
        build(), operation=op
    )
    cols = compiled.circuit.columns()
    return compiled.circuit.to_text(), cols.labels, compiled.validity, compiled.resources


def test_sharing_changes_no_output():
    """Every operation at d=3 and 5: back to back on warm memos, then each cold."""
    cells = [(op, d) for op in OPERATION_PROGRAMS for d in (3, 5)]
    warm = {cell: _outputs(*cell) for cell in cells}
    assert len(GEOMETRY) < len(cells)  # the warm leg did share
    for cell in cells:
        MemoryExperiment.clear_compile_cache()
        assert _outputs(*cell) == warm[cell], cell
