"""Corrections of a timing for the load of a shared host.

On a shared cloud VM two things outside the program stretch its wall time,
in phases of tens of seconds, as long as a run: the hypervisor runs other
guests on the VM's CPUs (stolen time, ~15 % of busy time in some phases on
a 2-vCPU VM), and the CPU runs slower while it does (caches and memory
shared with the other guests).  Left alone, they set the run-to-run spread
of every timing.
So a timing is corrected for both:

- each call reads the CPU tick counters of /proc/stat before and after, and
  the share of the VM's busy CPU time that was stolen in between is
  taken off its wall time;
- ``run.py`` runs this file as a sampler process next to the worker: every
  100 ms it times a fixed probe (a pure-Python loop and a numpy pass over an
  array that fits in L2) in its own thread CPU time, which leaves stolen
  time out.  The remaining seconds are rescaled to the speed at which the
  probe takes ``REFERENCE_PROBE_S``, using the median probe time around the
  call.

A corrected timing is wall seconds x (1 - stolen share) x
``REFERENCE_PROBE_S`` / probe seconds.  Neither correction runs geomix code,
so a change to the program changes them only through the CPUs and caches it
shares with them.

Run as a script, the file samples until its stdin closes, then prints the
samples as one JSON list of [monotonic time, probe seconds].
"""

import json
import select
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.1
# median probe seconds on a 2-vCPU Xeon VM while the benchmark ran; only the
# unit of the rescaled timings depends on it
REFERENCE_PROBE_S = 0.00095
# the host speed of an interval is the median of the samples from MARGIN_S
# before it to MARGIN_S after it: enough samples for a short call, and much
# shorter than the tens of seconds a speed phase lasts
MARGIN_S = 2.0


def cpu_ticks():
    """(busy, stolen) clock ticks summed over the machine's CPUs since boot.

    Stolen ticks are those in which the hypervisor ran another guest on a
    CPU of this machine that had work.  Without /proc/stat both read 0.
    """
    try:
        with open("/proc/stat", encoding="ascii") as f:
            user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, f.readline().split()[1:9])
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


def stolen_share(before, after):
    """Share of the CPU time this machine had work for that was stolen, between two ``cpu_ticks``."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return stolen / (busy + stolen) if busy + stolen > 0 else 0.0


def probe(values):
    import numpy as np
    t0 = time.thread_time()
    total = 0
    for i in range(5000):
        total += i * i
    np.exp(values).sum()
    return time.thread_time() - t0


def sample():
    import numpy as np
    values = np.random.default_rng(0).random(100_000)
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        t = time.monotonic()
        samples.append([t, probe(values)])
    print(json.dumps(samples))


class Sampler:
    """The sampler process; use as a context manager, then read ``samples``."""

    def __enter__(self):
        self.samples = []
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self.proc.communicate("", timeout=10)
            self.samples = json.loads(out) if self.proc.returncode == 0 else []
        except (subprocess.TimeoutExpired, ValueError):
            self.proc.kill()
            self.proc.communicate()
        return False

    def probe_s(self, start, end):
        """Median probe seconds around [start, end], in time.monotonic()."""
        inside = [p for t, p in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        if not inside:
            raise ValueError(f"no host speed samples around [{start:.2f}, {end:.2f}]")
        return statistics.median(inside)

    def seconds(self, timing):
        """A [seconds, start, end, stolen] timing without the stolen share, at the reference speed."""
        seconds, start, end, stolen = timing
        return seconds * (1.0 - stolen) * REFERENCE_PROBE_S / self.probe_s(start, end)


if __name__ == "__main__":
    sample()
