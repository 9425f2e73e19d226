"""Speed calibration: why and how timings are normalised.

The sandbox this benchmark is accepted on is a shared VM whose CPU speed
drifts: a fixed pure-Python loop measured for a minute took 21-62 ms per
pass, the 5-second medians wandered between 24 and 34 ms, and process CPU
time moved with wall time (the vCPU slows; the process is not descheduled).
In such periods the raw wall times of one workload spread by 0.2-0.6 of
their median between runs -- wider than any regression bound the benchmark
could set.  The slowdown is mostly common to all code, though: over
one-second blocks a Python kernel and a numpy kernel interleaved with it
kept their ratio within 0.05 while each spread by 0.28.

So the harness takes a calibration sample before the first frame and after
every frame, and divides every timing by the local *slowdown*: the mean of
the samples in a window around the frame.  A sample is the time of the
small fixed kernel below over ``REFERENCE_NS``.  Reported seconds are thus
*seconds at reference speed*.  The kernel touches nothing of the program
under test, so a change to the program cannot move it; raw times are kept
in the detailed report beside the normalised ones.

The kernel is deliberately small and cache-resident, and each sample is the
second of two passes.  A large cache-missing kernel was tried beside it
(scattered lookups in a 40k-entry table): on a quiet sandbox its own
run-to-run spread was 0.10 against 0.02 for the raw wall it was meant to
steady, while this one stayed at 0.01-0.02 -- it adds no noise when there is
none to remove.  It is not a perfect proxy: over several disturbed periods
the workloads slowed by 0.6-1.1 of what the kernel did.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

#: The kernel's time between frames when the sandbox is quiet, so that a
#: reported second is about a raw second on a quiet sandbox.  Only ratios
#: against it are used: it fixes the unit, not any comparison.
REFERENCE_NS = 860_000

#: Calibration samples averaged around a frame: the frame's own two
#: neighbours and two more on either side (~0.15 s of the run).
WINDOW = 3

_VALUES = np.linspace(0.0, 1.0, 4096)
_CODES = (np.arange(4096) * 7919 % 64).astype(np.intp)


def _pass() -> int:
    """A fixed mix of what the program does: dict and tuple churn on string
    keys, a sort, and a numpy group-by.  Returns its duration in ns."""
    start = perf_counter_ns()
    table: dict[str, tuple] = {}
    for i in range(1500):
        key = f"ent/{i * 37 % 997:05d}"
        previous = table.get(key)
        table[key] = (i, previous[0] if previous else 0)
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    total = 0
    for key, (a, b) in ordered:
        total += a - b
    for _ in range(8):
        sums = np.bincount(_CODES, weights=_VALUES, minlength=64)
        total += int(sums[_CODES].sum())
    return perf_counter_ns() - start


def sample() -> float:
    """One calibration sample: the current slowdown against reference
    speed.  The first pass only refills the caches, so that the sample does
    not depend on what the program left in them."""
    _pass()
    return _pass() / REFERENCE_NS


def windowed(samples: list[float]) -> list[float]:
    """Per-frame slowdown from the ``len(frames) + 1`` samples taken
    before the first frame and after each one."""
    out = []
    for i in range(len(samples) - 1):
        window = samples[max(0, i - WINDOW + 1): i + 1 + WINDOW]
        out.append(sum(window) / len(window))
    return out
