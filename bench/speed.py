"""How fast the machine runs Python right now, from a fixed calibration kernel.

On a shared host the speed of one core drifts by a third over minutes and
jumps by half within seconds (other tenants, frequency changes), and a
fixed piece of pure Python slows with it as ccring does.  Every worker
process therefore times this kernel between its ops, outside the timed
region, and run.py scales each raw time by ``REFERENCE_MS / kernel time``
measured around it: a time at reference speed, the speed at which the
kernel takes REFERENCE_MS.  The kernel uses no ccring code, so a change
to ccring cannot move the scale.
"""

from __future__ import annotations

import statistics
import time

# the kernel's median time on the 2-vCPU machine the benchmark was tuned on
REFERENCE_MS = 3.0
# a sample is taken before an op once this much time has passed since the last
SAMPLE_EVERY_S = 0.05
WARMUP = 3
FIRST_SAMPLES = 5


def kernel() -> int:
    """Fixed work in the style of ccring: list polynomials over F_p,
    multiplied and reduced modulo a monic polynomial, a dict of counts, and
    a product of big integers."""
    p = 10007
    a = [(7 * i + 3) % p for i in range(128)]
    b = [(11 * i + 5) % p for i in range(128)]
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    f = [1] + [(3 * i + 1) % p for i in range(1, 24)] + [1]  # monic, degree 24
    while len(prod) >= len(f):
        c = prod[-1]
        shift = len(prod) - len(f)
        for k, fk in enumerate(f):
            prod[shift + k] = (prod[shift + k] - c * fk) % p
        prod.pop()
    counts: dict[int, int] = {}
    for v in prod:
        counts[v % 97] = counts.get(v % 97, 0) + 1
    big = 1
    for k in range(1, 400):
        big *= 10 ** 12 + k
    return (sum(prod) + len(counts) + big % p) % p


class Speedometer:
    """Kernel times (ms) of one process, taken between ops, and the clock
    readings at which each sample ended."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[float] = []
        self.times: list[float] = []
        self.last = clock()

    def start(self):
        for _ in range(WARMUP):
            kernel()
        self.burst()

    def burst(self):
        for _ in range(FIRST_SAMPLES):
            self.sample()

    def sample(self):
        t = self.clock()
        kernel()
        self.last = self.clock()
        self.samples.append((self.last - t) * 1e3)
        self.times.append(self.last)

    def tick(self):
        """Sample if SAMPLE_EVERY_S has passed since the last sample."""
        if self.clock() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def record(self) -> dict:
        return {"cal_ms": self.samples, "cal_t": self.times}


def process_scale(cal_ms: list[float]) -> float:
    """Factor from a process's raw times to times at reference speed."""
    return REFERENCE_MS / statistics.median(cal_ms)


def local_scales(cal_ms: list[float], cal_t: list[float], spans) -> list[float]:
    """Factor to reference speed for each (start, seconds) span: from the
    last sample before it and the first after it, the speed around it."""
    scales = []
    i = 0
    for start, secs in spans:
        while i < len(cal_t) and cal_t[i] <= start:
            i += 1
        near = cal_ms[max(0, i - 1):i]  # the sample before the span
        j = i
        while j < len(cal_t) and cal_t[j] < start + secs:
            j += 1
        near += cal_ms[j:j + 1]  # the sample after it
        scales.append(REFERENCE_MS / (sum(near) / len(near)) if near else process_scale(cal_ms))
    return scales
