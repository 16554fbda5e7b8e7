"""Sweep the step count and compare the measured error to the bound.

Both product-formula orders on the 2x2 lattice with unit couplings,
through the same scan routine as `zngauge trotter-scan`.  The measured
distance is the exact ||step^M - exp(-iHT)||_2; it must sit below the
analytic bound at every sampled M and fall with the advertised slope.
"""

import numpy as np

from zngauge.algebra import Couplings
from zngauge.drivers import SCAN_STEPS, trotter_errors
from zngauge.lattice import LatticeGeometry, build_layout


def main():
    layout = build_layout(LatticeGeometry(2, 2), 3)
    for order in (1, 2):
        print(f"order {order}:")
        print("     M     distance        bound      ratio")
        errors = trotter_errors(layout, Couplings(), 1.0, SCAN_STEPS, order, "choreography")
        for m, (dist, bound, _) in zip(SCAN_STEPS, errors):
            print(f"  {m:4d}     {dist:.3e}    {bound:.3e}    {dist / bound:.4f}")
        dists = [dist for dist, _, _ in errors]
        slope = np.polyfit(np.log(SCAN_STEPS), np.log(dists), 1)[0]
        print(f"  fitted slope {slope:+.4f} (target {-order:+d})")


if __name__ == "__main__":
    main()
