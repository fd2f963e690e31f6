"""The benchmark's traced mode still finds the library functions it wraps.

``bench/spans.py`` replaces functions by name in the modules that look them
up (``loglog_wls`` in ``sublevel`` and ``carleson``, for one).  A refactor
that moves such a call or drops such an import passes every library test
while ``bench/run.py --trace 1`` crashes or counts nothing.  The spans are
installed in a child process, since they patch the modules for good.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import collections, json, sys
sys.path[:0] = sys.argv[1:]
import spans
collector = spans.Collector()
spans.install(collector)
from polycarleson import TorusPoint, WeightParam, fit_exponent, ratio_growth_scan
from polycarleson.battery import get_symbol
grid = [2.0**-k for k in range(4, 8)]
fit_exponent(get_symbol("product2"), 1.0, WeightParam(0.0), delta_grid=grid,
             budget=4096, seed=1, threads=1)
ratio_growth_scan(get_symbol("identity2"), TorusPoint((0.0, 0.0)), (True, True),
                  WeightParam(0.0), grid, 4096, seed=1, threads=1)
print(json.dumps(collections.Counter(s.name for s in collector.spans)))
"""


def test_traced_fit_and_scan_see_the_library():
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    counts = json.loads(out.stdout.splitlines()[-1])
    assert counts["fitting.loglog_wls"] == 2, counts
    assert counts["sublevel.estimate_indicator"] >= 1, counts
    assert counts["carleson.preimage_box_ratio"] >= 1, counts
    # box denominators: carleson_box_measure, through measure.disc_cap_measure
    assert counts["carleson.carleson_box_measure"] == counts["carleson.preimage_box_ratio"], counts
    assert counts["measure.disc_cap_measure"] == 2 * counts["carleson.preimage_box_ratio"], counts


INSTALL = """
import sys
sys.path[:0] = sys.argv[1:]
import spans
spans.install(spans.Collector())
"""


def test_every_wrapped_name_exists():
    # install looks up each traced name in its module, so a renamed or removed one raises
    out = subprocess.run([sys.executable, "-c", INSTALL, str(ROOT / "bench"), str(ROOT / "src")],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
