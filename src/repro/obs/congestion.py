"""Congestion diagnostics derived from a routed diagram.

RoutePlacer's argument (PAPERS.md) is that routability has to be
*observable* to be actionable.  :meth:`CongestionMap.from_diagram` turns
a routed :class:`~repro.core.diagram.Diagram` into per-point wire
occupancy and crossover counts plus per-track (row/column) totals, from
the per-point net counts of :func:`~repro.core.metrics.nets_per_point`,
the same counts Table 6.1's crossover column sums.  Routing builds no
map; a job builds one when it finishes, for its run record.

The map serializes into a :class:`~repro.obs.runlog.RunRecord` (sparse
cell list) and renders two ways:

* :meth:`CongestionMap.to_svg` — a standalone heat grid for the HTML
  diagnostics report, built purely from the recorded matrix;
* :func:`heat_cells` — normalized ``(x, y, intensity)`` cells that
  :func:`repro.render.svg.render_svg` draws as an overlay *behind* the
  schematic when the diagram itself is at hand.

``crossover_total`` equals ``DiagramMetrics.crossovers`` by
construction.  ``occupancy_total`` equals ``sum(plane.index.occ)`` of a
plane that holds the same routes, which checks the router's index
against the diagram (``tests/test_obs.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.diagram import Diagram
from ..core.metrics import nets_per_point


@dataclass
class CongestionMap:
    """Sparse per-point congestion field over the extent of the wires.

    ``cells`` maps ``(x, y)`` to ``(occupancy, crossovers)`` where
    occupancy is how many nets use the point and crossovers is the
    number of unordered net pairs meeting there (``k*(k-1)/2``), which is
    exactly the quantity Table 6.1's crossover column sums.
    """

    x: int = 0
    y: int = 0
    w: int = 0
    h: int = 0
    cells: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)

    @classmethod
    def from_diagram(cls, diagram: Diagram) -> "CongestionMap":
        """The map of a routed diagram, bounded by the extent of the
        points its nets cover."""
        cells = {p: (n, n * (n - 1) // 2) for p, n in nets_per_point(diagram).items()}
        if not cells:
            return cls()
        xs = [x for x, _ in cells]
        ys = [y for _, y in cells]
        x, y = min(xs), min(ys)
        return cls(x=x, y=y, w=max(xs) - x, h=max(ys) - y, cells=cells)

    # -- aggregates -----------------------------------------------------

    @property
    def occupancy_total(self) -> int:
        return sum(occ for occ, _ in self.cells.values())

    @property
    def crossover_total(self) -> int:
        return sum(cross for _, cross in self.cells.values())

    @property
    def max_occupancy(self) -> int:
        return max((occ for occ, _ in self.cells.values()), default=0)

    def row_totals(self) -> dict[int, int]:
        """Wire occupancy per horizontal track (y -> total)."""
        rows: dict[int, int] = {}
        for (_, y), (occ, _) in self.cells.items():
            rows[y] = rows.get(y, 0) + occ
        return rows

    def col_totals(self) -> dict[int, int]:
        """Wire occupancy per vertical track (x -> total)."""
        cols: dict[int, int] = {}
        for (x, _), (occ, _) in self.cells.items():
            cols[x] = cols.get(x, 0) + occ
        return cols

    def hotspots(self, limit: int = 10) -> list[tuple[int, int, int, int]]:
        """The ``limit`` most congested points as ``(x, y, occ, cross)``,
        crossover-heavy first."""
        ranked = sorted(
            ((x, y, occ, cross) for (x, y), (occ, cross) in self.cells.items()),
            key=lambda c: (-c[3], -c[2], c[0], c[1]),
        )
        return ranked[:limit]

    # -- serialization (RunRecord round trip) ---------------------------

    def to_dict(self) -> dict:
        return {
            "bounds": [self.x, self.y, self.w, self.h],
            "cells": sorted(
                [x, y, occ, cross]
                for (x, y), (occ, cross) in self.cells.items()
            ),
            "occupancy_total": self.occupancy_total,
            "crossover_total": self.crossover_total,
            "max_occupancy": self.max_occupancy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CongestionMap":
        x, y, w, h = data.get("bounds", (0, 0, 0, 0))
        return cls(
            x=x,
            y=y,
            w=w,
            h=h,
            cells={
                (cx, cy): (occ, cross)
                for cx, cy, occ, cross in data.get("cells", ())
            },
        )

    # -- rendering ------------------------------------------------------

    def heat_cells(self) -> list[tuple[int, int, float]]:
        """Normalized ``(x, y, intensity)`` cells for the schematic
        overlay; intensity scales with occupancy, saturating at the
        map's own maximum."""
        peak = self.max_occupancy
        if not peak:
            return []
        return [
            (x, y, occ / peak) for (x, y), (occ, _) in sorted(self.cells.items())
        ]

    def to_svg(self, *, unit: int = 10) -> str:
        """Standalone heatmap SVG built purely from the recorded matrix
        (no diagram needed): occupancy as warm fill, crossover points
        ringed."""
        width = max(1, (self.w + 2)) * unit
        height = max(1, (self.h + 2)) * unit

        def sx(x: int) -> float:
            return (x - self.x + 1) * unit

        def sy(y: int) -> float:
            return (self.y + self.h - y + 1) * unit

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="#fdfcf8" '
            'stroke="#cccccc"/>',
        ]
        peak = self.max_occupancy or 1
        half = unit / 2
        for (x, y), (occ, cross) in sorted(self.cells.items()):
            opacity = 0.15 + 0.75 * (occ / peak)
            parts.append(
                f'<rect x="{sx(x) - half:.1f}" y="{sy(y) - half:.1f}" '
                f'width="{unit}" height="{unit}" fill="#d9534f" '
                f'fill-opacity="{opacity:.2f}"><title>'
                f"({x},{y}) occ={occ} cross={cross}</title></rect>"
            )
            if cross:
                parts.append(
                    f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" '
                    f'r="{unit * 0.3:.1f}" fill="none" stroke="#7a1f1c" '
                    'stroke-width="1.2"/>'
                )
        parts.append("</svg>")
        return "\n".join(parts)
