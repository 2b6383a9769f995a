"""Print the seconds a fresh interpreter spends importing tracesig.cli and
loading the named bundled signatures: the fixed cost a CLI user pays before
the first evidence byte is read.

    PYTHONPATH=src python3 perfbench/probe.py ie8_open msn2009_open
"""

import sys
import time

started = time.perf_counter()
import tracesig.cli  # noqa: E402,F401
from tracesig.signatures import bundled_signature  # noqa: E402

for name in sys.argv[1:]:
    bundled_signature(name)
print(repr(time.perf_counter() - started))
