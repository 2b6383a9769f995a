"""A fixed pure-Python task timed beside the ops, as a gauge of host speed.

On a shared host the speed of a core moves by up to half between phases
lasting seconds to minutes, and timings taken at different moments move with
it.  The benchmark therefore runs this task after every timed op and reports
times *at the reference speed*: the op's time multiplied by
``REFERENCE_S / the task's time`` measured beside it, as ratios of totals over
the whole run.  A program change that adds or removes work still moves the
result in full, since the task never calls tracesig; what cancels out is the
host's speed in the moments the run happened to get.

The task does what tracesig spends its time on: CSV parsing, regular
expressions over registry and file paths, timestamp parsing, dict grouping,
set intersection, and building and sorting a table keyed by tuples, on fixed
data independent of any seed.  Of the mixes tried, this one tracked the ops of
all three workloads most closely; a search over interval combinations, like
``matching``'s, tracked them worse.
"""

from __future__ import annotations

import csv
import gc
import io
import random
import re
from datetime import datetime
from time import perf_counter

# About the task's median wall time on the 2-vCPU x86-64 host the benchmark
# was tuned on (Python 3.11): the speed that "seconds at the reference speed"
# refers to.
REFERENCE_S = 0.03

_ROWS = 3000
_KEYS = 5000
_PATH = re.compile(r"^HKEY_USERS\\(S-1-5-21-\d+)\\Software\\Microsoft\\(\w+)\\(\w+)$")


class Reference:
    def __init__(self) -> None:
        rng = random.Random(0)
        buf = io.StringIO()
        writer = csv.writer(buf)
        for i in range(_ROWS):
            if i % 3:
                path = (f"HKEY_USERS\\S-1-5-21-{rng.randrange(4)}\\Software\\Microsoft\\"
                        f"App{rng.randrange(40)}\\Key{rng.randrange(500)}")
            else:
                path = f"C:\\WINDOWS\\Prefetch\\PROG{rng.randrange(900)}.EXE-{rng.randrange(16**8):08X}.pf"
            stamp = f"2010-04-{rng.randrange(1, 29):02d} {rng.randrange(24):02d}:{rng.randrange(60):02d}:00"
            writer.writerow([i, path, stamp])
        self.text = buf.getvalue()

    def _task(self) -> int:
        groups: dict[str, list[tuple[datetime, str]]] = {}
        for _, path, stamp in csv.reader(io.StringIO(self.text)):
            found = _PATH.match(path)
            if found is None:
                continue
            when = datetime.strptime(stamp, "%Y-%m-%d %H:%M:%S")
            groups.setdefault(found.group(1), []).append((when, found.group(3).lower()))
        names = [{name for _, name in rows} for rows in groups.values()]
        common = set.intersection(*names) if names else set()
        newest = [max(rows)[0] for _, rows in sorted(groups.items())]
        rng = random.Random(1)
        table = {}
        for i in range(_KEYS):
            table[(f"k{rng.randrange(10**6)}", i % 7)] = [i, str(i)]
        return len(common) + len(newest) + len(sorted(table.items()))

    def time(self) -> float:
        """Wall seconds of one run of the task, with the cyclic collector off
        so that the heap the program left behind does not weigh on it."""
        gc.disable()
        try:
            started = perf_counter()
            self._task()
            return perf_counter() - started
        finally:
            gc.enable()
