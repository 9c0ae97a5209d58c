"""Dies-per-wafer: eq. (4), exact grid, and area approximations."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError, ParameterError
from repro.geometry import (
    Die,
    Wafer,
    best_grid_offset,
    dies_per_wafer_area_approx,
    dies_per_wafer_exact,
    dies_per_wafer_maly,
)
from repro.geometry.wafer import MAX_GRID_CELLS, ROW_FIT_SLACK


@pytest.fixture
def paper_wafer():
    """The 7.5 cm wafer of all the paper's scenarios."""
    return Wafer(radius_cm=7.5)


class TestWaferConstruction:
    def test_from_diameter(self):
        w = Wafer.from_diameter_inches(6.0)
        assert w.radius_cm == pytest.approx(7.62)

    def test_rejects_negative_radius(self):
        with pytest.raises(ParameterError):
            Wafer(radius_cm=-1.0)

    def test_rejects_edge_exclusion_consuming_wafer(self):
        with pytest.raises(GeometryError):
            Wafer(radius_cm=5.0, edge_exclusion_cm=5.0)

    def test_usable_radius(self):
        w = Wafer(radius_cm=7.5, edge_exclusion_cm=0.3)
        assert w.usable_radius_cm == pytest.approx(7.2)

    def test_areas(self, paper_wafer):
        assert paper_wafer.area_cm2 == pytest.approx(math.pi * 56.25)
        assert paper_wafer.usable_area_cm2 == paper_wafer.area_cm2


class TestMalyFormula:
    def test_die_as_big_as_wafer_diameter_fits_zero_or_more(self, paper_wafer):
        # A 15x15 cm die cannot fit a radius-7.5 circle (diagonal 21.2 > 15).
        assert dies_per_wafer_maly(paper_wafer, Die.square(15.0)) == 0

    def test_small_die_count_near_area_ratio(self, paper_wafer):
        die = Die.square(0.3)
        count = dies_per_wafer_maly(paper_wafer, die)
        gross = paper_wafer.area_cm2 / die.area_cm2
        # Edge loss for a tiny die is a few percent at most.
        assert 0.9 * gross < count < gross

    def test_monotone_in_die_size(self, paper_wafer):
        counts = [dies_per_wafer_maly(paper_wafer, Die.square(s))
                  for s in (0.5, 0.8, 1.2, 2.0, 3.5)]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]

    def test_monotone_in_wafer_radius(self):
        die = Die.square(1.0)
        counts = [dies_per_wafer_maly(Wafer(radius_cm=r), die)
                  for r in (5.0, 7.5, 10.0, 15.0)]
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_single_huge_die(self):
        # A 1x1 die on a radius-1 wafer: diagonal 1.41 < 2, so a die can fit,
        # and the row formula should find at least one placement... the
        # bottom-anchored rows may or may not capture it; assert it never
        # reports more than area allows.
        count = dies_per_wafer_maly(Wafer(radius_cm=1.0), Die.square(1.0))
        assert 0 <= count <= 3

    def test_rectangle_orientation_matters(self, paper_wafer):
        tall = Die(width_cm=0.5, height_cm=2.0)
        wide = tall.rotated()
        c_tall = dies_per_wafer_maly(paper_wafer, tall)
        c_wide = dies_per_wafer_maly(paper_wafer, wide)
        # Counts are close but generally not equal; both substantial.
        assert c_tall > 100 and c_wide > 100

    def test_scribe_reduces_count(self, paper_wafer):
        plain = dies_per_wafer_maly(paper_wafer, Die.square(1.0))
        scribed = dies_per_wafer_maly(paper_wafer,
                                      Die.square(1.0, scribe_cm=0.05))
        assert scribed < plain

    def test_edge_exclusion_reduces_count(self):
        die = Die.square(1.0)
        full = dies_per_wafer_maly(Wafer(radius_cm=7.5), die)
        excl = dies_per_wafer_maly(Wafer(radius_cm=7.5, edge_exclusion_cm=0.5),
                                   die)
        assert excl < full

    def test_table3_geometry_bicmos_up(self, paper_wafer):
        # Row 1 of Table 3: 3.1M tr, d_d=150, lambda=0.8 -> 2.976 cm^2 die.
        die = Die.from_transistor_count(3.1e6, 150.0, 0.8)
        count = dies_per_wafer_maly(paper_wafer, die)
        # Gross area ratio is 59; eq. (4) must land well below with edge loss.
        assert 35 <= count <= 59


def _maly_reference(wafer, die):
    # The row loop as first written: both half-chords of every row
    # recomputed.  dies_per_wafer_maly carries each row's upper chord
    # over as the next row's lower one and must count identically
    # (with the same per-row slack).
    radius = wafer.usable_radius_cm
    a = die.pitch_x_cm
    b = die.pitch_y_cm
    if die.width_cm > 2 * radius or die.height_cm > 2 * radius:
        return 0

    n_rows = math.floor(2.0 * radius / b)

    def half_chord(j: int) -> float:
        offset = j * b - radius
        inside = radius * radius - offset * offset
        return math.sqrt(inside) if inside > 0.0 else 0.0

    total = 0
    for j in range(n_rows):
        chord = min(half_chord(j), half_chord(j + 1))
        total += math.floor(2.0 * chord / a + ROW_FIT_SLACK)
    return total


class TestMalyRowLoop:
    @settings(max_examples=300, deadline=None)
    @given(radius=st.floats(min_value=2.0, max_value=16.0),
           edge_frac=st.floats(min_value=0.0, max_value=0.5),
           log_area=st.floats(min_value=-3.5, max_value=2.5),
           aspect=st.floats(min_value=0.3, max_value=3.0),
           scribe=st.sampled_from([0.0, 0.005, 0.05]))
    def test_matches_the_recomputing_loop(self, radius, edge_frac,
                                         log_area, aspect, scribe):
        wafer = Wafer(radius_cm=radius, edge_exclusion_cm=edge_frac * radius)
        die = Die.from_area(10.0 ** log_area, aspect_ratio=aspect,
                            scribe_cm=scribe)
        assert dies_per_wafer_maly(wafer, die) == _maly_reference(wafer, die)

    def test_die_exactly_two_radii_tall(self, paper_wafer):
        # One row, both of its chords zero.
        die = Die(width_cm=1.0, height_cm=15.0)
        assert dies_per_wafer_maly(paper_wafer, die) == 0
        assert _maly_reference(paper_wafer, die) == 0

    def test_zero_top_chord(self, paper_wafer):
        # Ten rows of 1.5 cm: row 9's upper chord sits at offset R.
        die = Die.square(1.5)
        assert math.floor(2.0 * 7.5 / die.pitch_y_cm) == 10
        assert dies_per_wafer_maly(paper_wafer, die) \
            == _maly_reference(paper_wafer, die) > 0

    @pytest.mark.parametrize("radius,side", [
        (5.0, 1.0), (4.0, 0.8), (0.5, 0.1), (9.0, 1.8), (11.0, 2.2),
        (2.0, 0.4)])
    def test_exactly_fitting_rows_survive_decimal_rounding(self, radius,
                                                            side):
        # R = 5 pitches: the chords one and two rows in from either pole
        # are exactly 3 and 4 pitches (a 3-4-5 triangle), so by hand the
        # rows hold 0, 6, 8, 9, 9, 9, 9, 8, 6, 0 dies.  Without the
        # slack, 0.8 cm on 4 cm counted 61 and 1.8 cm on 9 cm 63.
        assert dies_per_wafer_maly(Wafer(radius_cm=radius),
                                   Die.square(side)) == 64


class TestExactGrid:
    def test_matches_maly_within_packing_slack(self, paper_wafer):
        # The two independent counters must agree within grid-phase slack.
        for side in (0.5, 1.0, 1.7):
            die = Die.square(side)
            maly = dies_per_wafer_maly(paper_wafer, die)
            exact = dies_per_wafer_exact(paper_wafer, die, optimize_offset=True)
            assert exact >= maly * 0.9
            assert exact <= maly * 1.15 + 4

    def test_optimized_offset_never_worse(self, paper_wafer):
        die = Die.square(1.3)
        fixed = dies_per_wafer_exact(paper_wafer, die)
        optimized = dies_per_wafer_exact(paper_wafer, die, optimize_offset=True)
        assert optimized >= fixed

    def test_zero_when_die_exceeds_wafer(self):
        assert dies_per_wafer_exact(Wafer(radius_cm=1.0), Die.square(2.0)) == 0

    def test_best_grid_offset_reports_consistent_count(self, paper_wafer):
        die = Die.square(1.1)
        ox, oy, n = best_grid_offset(paper_wafer, die)
        recount = dies_per_wafer_exact(paper_wafer, die,
                                       offset_x=ox, offset_y=oy)
        assert recount == n

    def test_tiny_die_refused_before_the_scan(self, paper_wafer):
        # A 10 µm die implies ~2.3e8 cells per phase; scanning 64
        # phases of them would take hours.  All three entry points
        # refuse it at once.
        die = Die.square(0.001)
        t0 = time.perf_counter()
        for scan in (lambda: best_grid_offset(paper_wafer, die),
                     lambda: dies_per_wafer_exact(paper_wafer, die),
                     lambda: dies_per_wafer_exact(paper_wafer, die,
                                                  optimize_offset=True)):
            with pytest.raises(ParameterError, match="grid cells"):
                scan()
        assert time.perf_counter() - t0 < 1.0

    def test_cell_bound_is_the_same_on_both_sides_of_it(self, paper_wafer):
        span = 2.0 * paper_wafer.usable_radius_cm
        pitch = span / (math.sqrt(MAX_GRID_CELLS) - 4.0)
        under = Die.square(pitch * (1.0 + 1e-9))
        over = Die.square(pitch * (1.0 - 1e-9))
        assert dies_per_wafer_exact(paper_wafer, under) \
            >= dies_per_wafer_maly(paper_wafer, under) * 0.9
        with pytest.raises(ParameterError):
            dies_per_wafer_exact(paper_wafer, over)


class TestAreaApproximations:
    def test_gross_upper_bounds_everything(self, paper_wafer):
        die = Die.square(1.0)
        gross = dies_per_wafer_area_approx(paper_wafer, die, kind="gross")
        fp = dies_per_wafer_area_approx(paper_wafer, die, kind="ferris-prabhu")
        ind = dies_per_wafer_area_approx(paper_wafer, die, kind="industry")
        maly = dies_per_wafer_maly(paper_wafer, die)
        assert gross >= fp and gross >= ind and gross >= maly

    def test_industry_approx_close_to_maly_for_small_die(self, paper_wafer):
        die = Die.square(0.5)
        ind = dies_per_wafer_area_approx(paper_wafer, die, kind="industry")
        maly = dies_per_wafer_maly(paper_wafer, die)
        assert abs(ind - maly) / maly < 0.08

    def test_unknown_kind_raises(self, paper_wafer):
        with pytest.raises(ParameterError):
            dies_per_wafer_area_approx(paper_wafer, Die.square(1.0),
                                       kind="bogus")

    def test_industry_never_negative(self):
        # Huge die relative to wafer: correction would go negative; clamped.
        val = dies_per_wafer_area_approx(Wafer(radius_cm=2.0), Die.square(2.5),
                                         kind="industry")
        assert val >= 0.0


class TestDiesDispatch:
    def test_dispatch_methods_agree_with_direct_calls(self, paper_wafer):
        die = Die.square(1.0)
        assert paper_wafer.dies(die) == dies_per_wafer_maly(paper_wafer, die)
        assert paper_wafer.dies(die, method="exact") == dies_per_wafer_exact(
            paper_wafer, die, optimize_offset=True)
        assert paper_wafer.dies(die, method="gross") == int(
            dies_per_wafer_area_approx(paper_wafer, die, kind="gross"))
