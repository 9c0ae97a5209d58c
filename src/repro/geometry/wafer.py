"""Dies-per-wafer counting: eq. (4) and cross-validating alternatives.

The paper computes the number of complete dies on a circular wafer with
a row-by-row formula credited to Ferris-Prabhu [20]:

.. math::

    N_{ch} = \\sum_{j=0}^{\\lfloor 2R_w/b \\rfloor - 1}
             \\Big\\lfloor \\tfrac{2}{a}\\,\\min(R_j, R_{j+1}) \\Big\\rfloor,
    \\qquad R_j = \\sqrt{R_w^2 - (j\\,b - R_w)^2}

i.e. the wafer is sliced into horizontal rows of die height ``b``;
each row holds as many dies of width ``a`` as fit inside the chord of
the circle at the row's narrower end.  (The supplied paper text prints
``j·a·b`` inside the offset term; dimensional analysis requires ``j·b``
— see DESIGN.md, deviation 2.)

Three independent counts are provided so they can cross-check each
other in tests:

* :func:`dies_per_wafer_maly` — the paper's row formula, exactly as above.
* :func:`dies_per_wafer_exact` — place an axis-aligned grid and count
  rectangles whose four corners all lie inside the circle, optionally
  searching over the grid phase.
* :func:`dies_per_wafer_area_approx` — closed-form area approximations
  (gross, Ferris-Prabhu edge-corrected, and the de-facto-standard
  SEMI/industry variant) useful for fast sweeps and sanity bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from ..errors import GeometryError, ParameterError
from ..units import require_nonnegative, require_positive, wafer_area_cm2
from .die import Die

ApproxKind = Literal["gross", "ferris-prabhu", "industry"]

#: Added to each eq.-(4) row's die count ``2·min(R_j, R_{j+1})/a``
#: before flooring.  Decimal inputs are not exact in binary, so a row
#: whose chord holds exactly k dies can evaluate a few ulps short of k
#: (a 0.8 cm die on a 4 cm-radius wafer gives 5.999999999999998 in the
#: second row, and 61 dies instead of the 64 of the 1 cm die on a 5 cm
#: radius).  1e-9 of a die pitch is far below any physical tolerance.
ROW_FIT_SLACK = 1e-9

#: Most wafer rows, ``2R/b``, that one die may imply in an eq.-(4)
#: count.  The scalar row loop below costs ~0.36 µs per row (Python
#: 3.11 on a 2-vCPU x86-64 VM), so a die at the bound takes ~0.4 s
#: there and ~10 ms in the batch kernel: the worst one admitted point
#: can cost.  A 0.15 µm die pitch on a 7.5 cm wafer reaches it; the
#: paper's figures and tables, the benches, the examples and perfbench
#: stay below 500 rows.
MAX_WAFER_ROWS = 1_000_000

#: Most candidate grid cells, ``(2R/a + 4)·(2R/b + 4)`` for die pitches
#: a × b, that one grid placement may scan (:func:`check_grid_cells`).
#: The placement loop costs ~0.2 µs per cell (Python 3.11 on a 2-vCPU
#: x86-64 VM) and :func:`best_grid_offset` scans 64 phases, so a die
#: at the bound takes ~1.3 s there: the worst one admitted call can
#: cost.  A 0.048 cm die pitch on a 7.5 cm wafer reaches it; the
#: paper's figures and tables, the benches, the examples and perfbench
#: scan at most 2,196 cells (a 0.35 cm die on a 7.5 cm wafer).
MAX_GRID_CELLS = 100_000


@dataclass(frozen=True)
class Wafer:
    """A circular wafer.

    Parameters
    ----------
    radius_cm:
        Physical wafer radius R_w in centimeters.  The paper's scenarios
        use 7.5 cm (a "6 inch" wafer, rounded) and 10 cm (8 inch).
    edge_exclusion_cm:
        Width of the annular edge region unusable for product dies
        (handling damage, process non-uniformity).  Defaults to zero to
        match the paper's idealized eq. (4).
    """

    radius_cm: float
    edge_exclusion_cm: float = 0.0

    def __post_init__(self) -> None:
        require_positive("radius_cm", self.radius_cm)
        require_nonnegative("edge_exclusion_cm", self.edge_exclusion_cm)
        if self.edge_exclusion_cm >= self.radius_cm:
            raise GeometryError(
                f"edge exclusion {self.edge_exclusion_cm} cm consumes the whole "
                f"wafer of radius {self.radius_cm} cm")

    @classmethod
    def from_diameter_inches(cls, diameter_inches: float, *,
                             edge_exclusion_cm: float = 0.0) -> "Wafer":
        """Wafer from a nominal diameter in inches (6, 8, 12, ...)."""
        require_positive("diameter_inches", diameter_inches)
        return cls(radius_cm=diameter_inches * 2.54 / 2.0,
                   edge_exclusion_cm=edge_exclusion_cm)

    @property
    def usable_radius_cm(self) -> float:
        """Radius of the region available for product dies."""
        return self.radius_cm - self.edge_exclusion_cm

    @property
    def area_cm2(self) -> float:
        """Gross wafer area in cm²."""
        return wafer_area_cm2(self.radius_cm)

    @property
    def usable_area_cm2(self) -> float:
        """Area inside the edge exclusion in cm²."""
        return wafer_area_cm2(self.usable_radius_cm)

    def dies(self, die: Die, *, method: str = "maly") -> int:
        """Count complete dies on this wafer with the chosen method.

        ``method`` is one of ``"maly"`` (eq. 4), ``"exact"`` (grid
        placement with phase search), or one of the approximation kinds
        accepted by :func:`dies_per_wafer_area_approx` (whose float
        result is floored here).
        """
        if method == "maly":
            return dies_per_wafer_maly(self, die)
        if method == "exact":
            return dies_per_wafer_exact(self, die, optimize_offset=True)
        return int(dies_per_wafer_area_approx(self, die, kind=method))  # type: ignore[arg-type]


def check_row_count(rows: float) -> None:
    """Refuse an eq.-(4) count over more than :data:`MAX_WAFER_ROWS` rows.

    ``rows`` is the float row count ``2R/b`` before flooring, as both
    :func:`dies_per_wafer_maly` and the batch kernel
    :func:`repro.batch.engine.dies_per_wafer_batch` compute it, so the
    two refuse exactly the same dies.  Raises :class:`ParameterError`
    (a 400 at the HTTP edge) instead of looping for seconds or hours.
    """
    if rows > MAX_WAFER_ROWS:
        raise ParameterError(
            f"the die implies {rows:.3g} wafer rows, more than the "
            f"{MAX_WAFER_ROWS} an eq.-(4) count allows")


def check_grid_cells(radius: float, pitch_x: float, pitch_y: float) -> None:
    """Refuse a grid placement over more than :data:`MAX_GRID_CELLS` cells.

    Called by :func:`dies_per_wafer_exact` and :func:`best_grid_offset`
    before they scan, so a tiny die raises :class:`ParameterError` at
    once instead of looping for minutes.
    """
    cells = (2.0 * radius / pitch_x + 4.0) * (2.0 * radius / pitch_y + 4.0)
    if cells > MAX_GRID_CELLS:
        raise ParameterError(
            f"the die implies {cells:.3g} grid cells, more than the "
            f"{MAX_GRID_CELLS} a grid placement allows")


def dies_per_wafer_maly(wafer: Wafer, die: Die) -> int:
    """Eq. (4): row-by-row die count.

    The wafer is cut into ``floor(2R/b)`` horizontal rows of height
    ``b`` starting at the bottom of the circle; row ``j`` spans
    vertical offsets ``[j·b, (j+1)·b]`` measured from the bottom.  The
    half-chord at offset ``y`` is ``R_j = sqrt(R² − (y − R)²)``, and a
    row holds ``floor(2·min(R_j, R_{j+1}) / a)`` complete dies, counted
    with :data:`ROW_FIT_SLACK` so binary rounding cannot drop a die that
    fits exactly.

    Scribe lanes, if present on the die, are folded into the stepping
    pitch (a die's *pitch* must fit, its active area is irrelevant to
    packing).  Edge exclusion shrinks the effective radius.  A die
    implying more than :data:`MAX_WAFER_ROWS` rows raises
    :class:`ParameterError` (see :func:`check_row_count`).
    """
    radius = wafer.usable_radius_cm
    a = die.pitch_x_cm
    b = die.pitch_y_cm
    if die.width_cm > 2 * radius or die.height_cm > 2 * radius:
        return 0

    rows = 2.0 * radius / b
    check_row_count(rows)
    n_rows = math.floor(rows)
    sqrt, floor = math.sqrt, math.floor
    r2 = radius * radius
    # Half-chord R_j at offset j·b − R.  Row j's upper chord R_{j+1} is
    # row j+1's lower one, so each is computed once and carried over.
    offset = -radius
    inside = r2 - offset * offset
    lower = sqrt(inside) if inside > 0.0 else 0.0
    total = 0
    for j in range(1, n_rows + 1):
        offset = j * b - radius
        inside = r2 - offset * offset
        upper = sqrt(inside) if inside > 0.0 else 0.0
        total += floor(2.0 * (upper if upper < lower else lower) / a
                       + ROW_FIT_SLACK)
        lower = upper
    return total


def dies_per_wafer_exact(wafer: Wafer, die: Die, *,
                         offset_x: float = 0.0, offset_y: float = 0.0,
                         optimize_offset: bool = False,
                         offset_steps: int = 8) -> int:
    """Count dies by explicit grid placement.

    A rectangular grid of pitch ``(pitch_x, pitch_y)`` is laid over the
    wafer with its origin displaced by ``(offset_x, offset_y)`` from the
    wafer center, and every cell whose four corners lie within the
    usable radius is counted.  With ``optimize_offset=True`` the phase
    is searched on an ``offset_steps × offset_steps`` sub-pitch lattice
    and the best count returned — this is how steppers actually place
    reticle grids, and it upper-bounds the fixed-phase counts.  A die
    implying more than :data:`MAX_GRID_CELLS` cells raises
    :class:`ParameterError` (see :func:`check_grid_cells`).
    """
    radius = wafer.usable_radius_cm
    px, py = die.pitch_x_cm, die.pitch_y_cm
    w, h = die.width_cm, die.height_cm
    if math.hypot(w, h) > 2 * radius:
        return 0
    check_grid_cells(radius, px, py)

    def count(ox: float, oy: float) -> int:
        # Candidate cell indices: cells whose x-span may intersect the circle.
        i_lo = math.floor((-radius - ox) / px) - 1
        i_hi = math.ceil((radius - ox) / px) + 1
        j_lo = math.floor((-radius - oy) / py) - 1
        j_hi = math.ceil((radius - oy) / py) + 1
        r2 = radius * radius
        n = 0
        for j in range(j_lo, j_hi + 1):
            y0 = oy + j * py
            y1 = y0 + h
            # The farthest-from-center y of the cell dominates the corner test.
            ymax2 = max(y0 * y0, y1 * y1)
            if ymax2 > r2:
                continue
            # x extent allowed: both x0 and x0+w within the chord at ymax.
            half = math.sqrt(r2 - ymax2)
            for i in range(i_lo, i_hi + 1):
                x0 = ox + i * px
                x1 = x0 + w
                if -half <= x0 and x1 <= half:
                    n += 1
        return n

    if not optimize_offset:
        return count(offset_x, offset_y)
    return best_grid_offset(wafer, die, steps=offset_steps)[2]


def dies_per_wafer_area_approx(wafer: Wafer, die: Die, *,
                               kind: ApproxKind = "industry") -> float:
    """Closed-form approximations of the die count (returns a float).

    ``kind`` selects the correction for partial dies at the wafer edge:

    * ``"gross"`` — no correction: ``π R² / A_die``.  An upper bound.
    * ``"ferris-prabhu"`` — Ferris-Prabhu's effective-radius form
      ``π (R − s/2)² / A_die`` with ``s = sqrt(A_die)``, from the same
      technical report the paper cites [20].
    * ``"industry"`` — the widely used first-order edge correction
      ``π R²/A − π·2R/sqrt(2A)`` (circumference divided by the die
      diagonal-ish pitch), accurate to a few percent for dies much
      smaller than the wafer.
    """
    radius = wafer.usable_radius_cm
    area = die.pitch_x_cm * die.pitch_y_cm
    gross = math.pi * radius * radius / area
    if kind == "gross":
        return gross
    if kind == "ferris-prabhu":
        side = math.sqrt(area)
        effective = max(radius - side / 2.0, 0.0)
        return math.pi * effective * effective / area
    if kind == "industry":
        return max(gross - math.pi * 2.0 * radius / math.sqrt(2.0 * area), 0.0)
    raise ParameterError(f"unknown approximation kind {kind!r}")


def best_grid_offset(wafer: Wafer, die: Die, *, steps: int = 8) -> tuple[float, float, int]:
    """Search grid phases and return ``(offset_x, offset_y, count)`` of the best.

    Exposed separately from :func:`dies_per_wafer_exact` for callers
    that want the winning placement itself (e.g. to draw a wafer map).
    Refuses a die past :data:`MAX_GRID_CELLS` before the first phase.
    """
    px, py = die.pitch_x_cm, die.pitch_y_cm
    check_grid_cells(wafer.usable_radius_cm, px, py)
    best = (0.0, 0.0, -1)
    for si in range(steps):
        for sj in range(steps):
            ox, oy = si * px / steps, sj * py / steps
            n = dies_per_wafer_exact(wafer, die, offset_x=ox, offset_y=oy)
            if n > best[2]:
                best = (ox, oy, n)
    return best
