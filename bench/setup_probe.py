"""Set-up time of a fresh interpreter: import loopwalk's CLI, parse one config.

    python3 bench/setup_probe.py SRC CONFIG      # prints seconds
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import loopwalk.cli  # noqa: E402

loopwalk.cli.parse_config(sys.argv[2])
print(repr(time.perf_counter() - start))
