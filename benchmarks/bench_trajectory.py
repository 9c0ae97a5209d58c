"""Extension bench — transistor cost over calendar time.

Temporal restatement of Figs. 6/7: the Scenario-#1 trajectory keeps
falling through the 1990s while the Scenario-#2 trajectory reverses
right around the paper's publication ("Recently the situation has
changed ... the cost per transistor may no longer decrease" — Sec. III,
written 1994).
"""

import numpy as np

from conftest import emit
from repro.analysis import ascii_chart
from repro.core import divergence_year, optimistic_trajectory, realistic_trajectory


def _compute():
    opt = optimistic_trajectory(1.2)
    real = realistic_trajectory(1.8)
    years = np.linspace(1985.0, 2004.0, 39)
    return (
        years,
        np.array([opt.cost_at_year(y) * 1e6 for y in years]),
        np.array([real.cost_at_year(y) * 1e6 for y in years]),
        real.reversal_year(1985.0, 2005.0),
        divergence_year(ratio=4.0),
    )


def test_cost_per_transistor_over_time(benchmark):
    years, opt_costs, real_costs, reversal, diverge = benchmark(_compute)
    emit("Extension — C_tr vs year (Scenario #1 X=1.2 vs Scenario #2 X=1.8)",
         ascii_chart(years, {"optimistic": opt_costs,
                             "realistic": real_costs},
                     log_y=True, x_label="year", y_label="C_tr [$1e-6]")
         + f"\n\nrealistic-trajectory cost reversal year: {reversal}"
         + f"\noptimistic/realistic 4x divergence year: {diverge}")

    # Optimistic: monotone decline through the whole span.
    assert np.all(np.diff(opt_costs) < 0)
    # Realistic: reverses in the paper's era.
    assert reversal is not None and 1988.0 <= reversal <= 1996.0
    assert real_costs[-1] > real_costs[0]  # net rise over the span
    # Divergence precedes the paper: planning on memory economics was
    # already misleading non-memory products by 4x before 1994.
    assert diverge is not None and diverge <= 1994.0
