"""Fig. 8 — constant-cost contours in the (λ, N_tr) plane.

Paper claims (X = 1.4, C₀ = $500, R_w = 7.5 cm, d_d = 152, D = 1.72,
p = 4.07, fitted from a real fab [26]): the landscape has multiple
local optima; cost changes considerably with either axis; "for each die
size there is different λ_opt"; and the optimum may not be the smallest
feature size.
"""

import numpy as np

from conftest import emit, emit_figure
from repro.analysis import fig8_contours
from repro.analysis.report import render_contour_grid
from repro.core import optimal_feature_size_for_die_area


def _compute():
    return fig8_contours(n_lam=36, n_counts=36)


def test_fig8_cost_landscape(benchmark):
    data, landscape = benchmark(_compute)
    emit_figure(data)

    levels = landscape.contour_levels(8, max_decades=2.5)
    contours = render_contour_grid(
        landscape.grid(), list(levels),
        x_values=list(landscape.feature_sizes_um),
        y_values=list(landscape.transistor_counts))
    emit("Fig. 8 — constant-C_tr contours (digits = levels, . = infeasible)",
         contours)

    # Optimal lambda differs across transistor counts and is interior.
    lam_opt = data.series["lambda_opt [um]"]
    assert len(set(np.round(lam_opt, 2))) >= 3
    assert lam_opt.min() > float(landscape.feature_sizes_um.min())

    # 'The optimum solution may not call for the smallest possible
    # (and expensive) feature size': for a 1 cm^2 die the optimum is
    # far from the aggressive end of the sweep.
    lam_1cm2, _ = optimal_feature_size_for_die_area(1.0)
    assert lam_1cm2 > 0.5

    # Multiple-local-optima structure on the discretized landscape.
    assert len(landscape.local_minima()) >= 1

    # The tiled process-pool sweep path must land bitwise on the same
    # landscape — the repro.batch.sweep parity contract, exercised on
    # the exact grid this figure ships.
    tiled = landscape.grid(workers=2, tile_size=600)
    mismatches = int(np.count_nonzero(tiled != landscape.grid()))
    emit("Fig. 8 — tiled process-pool sweep parity",
         f"grid        : {tiled.shape[0]} x {tiled.shape[1]} cells\n"
         f"mismatches  : {mismatches} (tile_size=600, workers=2)")
    assert mismatches == 0, \
        f"{mismatches} tiled-sweep cells differ from the sequential grid"
