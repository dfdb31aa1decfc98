"""One cold start of the package, as a user's first run pays it.

Imports ``freqbin.scenarios``, loads the stock config and makes the first
``hwp_angle_for_phase`` call (which builds the lazy waveplate calibration
table), then prints the three stage times as one JSON line.  Run it as a
fresh interpreter from the repository root:

    python3 perfbench/setup_probe.py
"""

import json
import os
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    import freqbin.scenarios  # noqa: F401
    from freqbin.config import load_config
    from freqbin.states import hwp_angle_for_phase

    t1 = time.perf_counter()
    load_config(None)
    t2 = time.perf_counter()
    hwp_angle_for_phase(0.0)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1,
                      "hwp_first_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
