"""The host's speed, sampled while a party process works.

The benchmark runs on shared hosts whose speed changes by up to a factor
of two from one second to the next, as other tenants come and go. Every
timing of a run moves with it, far more than a change to the program
would. So each timed section of a party process samples the host's speed
as it goes: a timer interrupts it every INTERVAL_S and runs `probe_work`,
a fixed piece of interpreter work that shares no code with tabverify.
The section's time, less the probes' own time, is then also given at the
reference speed: scaled by the mean of REF_S / (probe time) over the
section's probes, which is what it would have taken on a host where the
probe takes REF_S.

Nothing of tabverify is imported here.
"""

import hashlib
import signal
import statistics
import time

REF_S = 0.0015  # probe time that the scaled timings refer to
INTERVAL_S = 0.03  # time between two probes of a section


def probe_work():
    """About REF_S of pure-CPython work, like the program's own mix.

    Small-integer arithmetic, tuple, list and dict traffic, and SHA-256 of
    short strings. The same work on every call.
    """
    table, acc = {}, 1
    wires = [0, 1] * 32
    h = hashlib.sha256()
    for i in range(1200):
        k = (i * 2654435761) & 0xFF
        table[(k, i & 7)] = table.get((k, i & 7), 0) ^ (acc & 0xFFFF)
        acc = (acc * 31 + k) & 0xFFFFFFFF
        wires.append((k >> (2 * wires[i] + wires[i + 1])) & 1)
        if i % 32 == 0:
            h.update(str(acc).encode())
    return h.hexdigest(), len(table), sum(wires)


def probe():
    """Seconds one `probe_work` takes now."""
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


class Meter:
    """Times one section of a party process, sampling speed as it goes.

        with Meter() as m:
            work()
        m.elapsed_s, m.ref_s

    `elapsed_s` is the section's wall time less the probes' own; `ref_s`
    is that time at the reference speed. One probe runs just before the
    section and one just after it, outside its time, so a section shorter
    than INTERVAL_S still has samples. `spent_s` is the probes' time so
    far, for callers that time parts of the section themselves. With
    `sample=False` (traced processes, whose spans must not hold probes)
    the meter only times the section, and `ref_s` equals `elapsed_s`.
    """

    def __init__(self, sample=True):
        self.sample = sample
        self.samples = []
        self.spent_s = 0.0
        self.elapsed_s = self.ref_s = 0.0
        if sample:
            probe()  # warm: the first call of a fresh process is slower

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        if self.sample:
            self.samples.append(probe())
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.spent_s = 0.0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
            self.samples.append(probe())
        self.elapsed_s = t1 - self._t0 - self.spent_s
        self.ref_s = self.elapsed_s * self.factor()
        return False

    def factor(self):
        """Mean speed over the section, relative to the reference."""
        if not self.samples:
            return 1.0
        return statistics.fmean(REF_S / p for p in self.samples)
