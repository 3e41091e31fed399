"""One fresh-interpreter start for setup_s: import the library, return one verdict.

Usage: python3 probe.py decide|fixpoints INPUT.json

run.py writes the small input before the clock starts and times this
process from spawn to exit.
"""

import json
import sys

if __name__ == "__main__":
    with open(sys.argv[2], encoding="utf-8") as fh:
        data = json.load(fh)
    import numpy as np

    import bisyncgames as bg

    if sys.argv[1] == "decide":
        d = bg.Density(np.array(data["p"]))
        result = bg.local_bisync_membership(d)
        if isinstance(result, bg.Infeasible):
            bg.separation_margins(d, result)
        else:
            bg.mixture_density(result)
    else:
        pairs = np.array(data["grid"])
        system = bg.ProjectiveSystem((pairs[..., 0] + 1j * pairs[..., 1],), (1.0,))
        if not bg.fix_equivalence_check(system).report.passed:
            sys.exit(1)
