"""Machine-speed probe: scales measured times to a fixed machine speed.

On a shared host a CPU's speed is not constant: here it switches between a
fast and a slow state (about 1.7x apart) every fraction of a second to
several seconds, because of other tenants' work on the same physical core.
CPU time slows with it, so it is no remedy.  A fixed calibration routine,
with no gaussid code in it, slows by about the same factor.  So the
benchmark runs on one CPU (``run.py`` pins itself, and every child process
inherits it), a :class:`Probe` thread times the calibration on that CPU every
``PERIOD_S`` seconds while the run goes on, and :meth:`Probe.scaled` turns
the wall time of an operation into the time it would have taken at the
nominal speed::

    scaled = wall * NOMINAL_S / (mean calibration time during the operation)

``NOMINAL_S`` is a constant (the calibration's time in this host's fast
state), so a change in the program moves scaled times exactly as it moves
wall times, while a change in machine speed cancels.  The calibration mixes
what gaussid spends its time on: building and walking dicts and lists,
evaluating an expression tree recursively, and small dense linear algebra.
Each part was chosen because its time follows the time of warm solves on
``golden`` and ``mixed_expr`` closely as the speed changes; parsing and
compiling Python source, tried as well, follows it poorly.
"""

from __future__ import annotations

import bisect
import json
import threading
from time import perf_counter, thread_time

import numpy as np

# Seconds between calibration runs, and the calibration's nominal time.
PERIOD_S = 0.1
NOMINAL_S = 0.0017
# Probe samples this far outside an operation still count for it, so even
# a millisecond operation has at least one.
PAD_S = 0.1

_DOC = {"nodes": [{"id": f"n{i}", "mean": i / 7.0, "cov": [float(i)] * 4} for i in range(60)]}
_MATRIX = np.random.default_rng(0).standard_normal((40, 40))


def _tree(depth: int):
    """A binary expression tree of nested tuples, like a parsed formula."""
    if depth <= 1:
        return 1.0 + 0.5 * depth
    return ("+" if depth % 2 else "*", _tree(depth - 1), _tree(depth - 2))


def _evaluate(node) -> float:
    if not isinstance(node, tuple):
        return node
    op, a, b = node
    x, y = _evaluate(a), _evaluate(b)
    return x + y if op == "+" else x * y


_TREE = _tree(13)


def calibrate() -> float:
    """Run the fixed calibration once; return its thread CPU time in seconds."""
    t0 = thread_time()
    for _ in range(4):
        json.loads(json.dumps(_DOC))
        np.linalg.svd(_MATRIX)
        _evaluate(_TREE)
    return thread_time() - t0


class Probe:
    """A thread that times :func:`calibrate` every ``PERIOD_S`` seconds."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = perf_counter()
            self.samples.append(calibrate())
            self.times.append(start)

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, t0: float, t1: float) -> float:
        """Mean calibration time over ``[t0, t1]``; ``NOMINAL_S`` if none ran."""
        i = bisect.bisect_left(self.times, t0 - PAD_S)
        j = bisect.bisect_right(self.times, t1 + PAD_S)
        window = self.samples[i:j]
        return sum(window) / len(window) if window else NOMINAL_S

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of an operation over ``[t0, t1]`` at the nominal speed."""
        return (t1 - t0) * NOMINAL_S / self.speed(t0, t1)
