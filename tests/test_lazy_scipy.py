"""SciPy is imported only by the calls that use it.

Importing SciPy's ``integrate`` package roughly doubles the start-up
time and resident memory of every process this package starts, and
only the critical-area integral and the hierarchical-yield quadrature
call SciPy.  A single module-level ``import scipy`` anywhere in the
package would bring that cost back, so each check runs in a fresh
interpreter: this test process has long since loaded SciPy through
other tests.
"""

import json
import subprocess
import sys

from repro.yieldsim import (
    DefectSizeDistribution,
    HierarchicalYieldModel,
    WirePattern,
    average_critical_area,
)

_PRELUDE = """
import json, sys
import repro, repro.cli, repro.serve.http
from repro.yieldsim import (DefectSizeDistribution, HierarchicalYieldModel,
                            WirePattern, average_critical_area)

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = {"after_import": scipy_modules()}
"""


def _fresh(code: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _pattern_and_distribution():
    return (WirePattern(wire_width_um=0.6, wire_spacing_um=0.9,
                        area_cm2=0.5),
            DefectSizeDistribution(r0_um=0.5, p=4.07))


def test_importing_the_package_loads_no_scipy():
    out = _fresh("print(json.dumps(out))")
    assert out["after_import"] == []


def test_first_critical_area_call_loads_scipy_with_the_same_value():
    out = _fresh("""
pattern = WirePattern(wire_width_um=0.6, wire_spacing_um=0.9, area_cm2=0.5)
dist = DefectSizeDistribution(r0_um=0.5, p=4.07)
out["values"] = [average_critical_area(pattern, dist, mechanism=m).hex()
                 for m in ("short", "open")]
out["after_call"] = "scipy.integrate" in sys.modules
print(json.dumps(out))
""")
    assert out["after_import"] == []
    assert out["after_call"]
    pattern, dist = _pattern_and_distribution()
    assert out["values"] == [
        average_critical_area(pattern, dist, mechanism=m).hex()
        for m in ("short", "open")]


def test_first_hierarchical_yield_call_loads_scipy_with_the_same_value():
    out = _fresh("""
model = HierarchicalYieldModel(lot_alpha=1.5, wafer_alpha=3.0)
out["value"] = model.yield_from_expectation(0.7).hex()
out["after_call"] = "scipy.linalg" in sys.modules
print(json.dumps(out))
""")
    assert out["after_import"] == []
    assert out["after_call"]
    model = HierarchicalYieldModel(lot_alpha=1.5, wafer_alpha=3.0)
    assert out["value"] == model.yield_from_expectation(0.7).hex()
