"""Host-speed probe: rescales measured CPU times to a fixed reference speed.

On a shared host the speed of one vCPU drifts by 30% and more within
minutes, as other tenants load the same cores, and the thread's CPU time
drifts with it.  The benchmark therefore runs a fixed piece of pure-Python
work, the probe, between ops and reports every time rescaled to the speed
at which the probe takes ``REFERENCE_PROBE_S``:

    reported = measured CPU time * REFERENCE_PROBE_S / mean probe CPU time

The probe is the benchmark's own code, not the library's, so a change to
the library moves the reported times and leaves the probe alone.  Its mix
of tuple keys, dict updates and Fraction arithmetic is the mix of the
library's inner loops, so its time tracks the host's speed for them.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import thread_time

# Probe CPU time at the reference speed: about the median probe time on
# the 2-vCPU Xeon host of perfbench/baseline.json, whose probe took 0.23
# to 0.49 ms.
REFERENCE_PROBE_S = 0.4e-3
# A probe runs after any op that completes this much op CPU time since
# the last probe, so the probes sample the host once per interval of work.
PROBE_EVERY_S = 0.010
# The most op CPU time one probe sample stands for.  The host changes
# speed every 0.1 to 1 s, so one sample after a long op says little about
# the whole op; uncapped, the few longest ops of pfaffinant-cold decided
# its slowdown and doubled the run-to-run variation of its round time.
PROBE_WEIGHT_CAP_S = 0.050
# Probes around a set-up step, which has no ops to interleave with.
SETUP_PROBES = 5


def probe() -> tuple:
    d = {}
    acc = Fraction(0)
    for i in range(100):
        key = (i % 13, i % 7)
        d[key] = d.get(key, 0) + i * 3
        acc += Fraction(i, 7)
    return acc, len(d)


def probe_s() -> float:
    """CPU time of one probe.

    The garbage collector is off during the probe: a full collection of
    the objects the ops left behind would otherwise land in some probes
    and measure the heap, not the host.
    """
    gc.disable()
    try:
        c0 = thread_time()
        probe()
        return thread_time() - c0
    finally:
        gc.enable()


class SpeedMeter:
    """Samples the probe between ops, each sample weighted by the op CPU
    time it covers up to PROBE_WEIGHT_CAP_S, and gives the host's slowdown
    against the reference."""

    def __init__(self) -> None:
        self.samples = []   # (probe CPU time, op CPU time it stands for)
        self.since = 0.0

    def after_op(self, op_cpu_s: float) -> None:
        self.since += op_cpu_s
        if self.since >= PROBE_EVERY_S:
            self.samples.append((probe_s(), min(self.since, PROBE_WEIGHT_CAP_S)))
            self.since = 0.0

    def slowdown(self) -> float:
        """Weighted mean probe time over the reference probe time."""
        if self.since > 0 or not self.samples:
            self.samples.append((probe_s(), min(self.since, PROBE_WEIGHT_CAP_S) or 1.0))
            self.since = 0.0
        covered = sum(w for _, w in self.samples)
        return sum(p * w for p, w in self.samples) / covered / REFERENCE_PROBE_S


def timed_step(step) -> tuple:
    """Run ``step()`` between two bursts of probes.

    Returns (result, CPU time at the reference speed).
    """
    before = [probe_s() for _ in range(SETUP_PROBES)]
    c0 = thread_time()
    result = step()
    cpu = thread_time() - c0
    after = [probe_s() for _ in range(SETUP_PROBES)]
    slowdown = sum(before + after) / len(before + after) / REFERENCE_PROBE_S
    return result, cpu / slowdown
