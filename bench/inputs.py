"""Seeded inputs for every workload, built without importing ccring.

The same (workload, seed, seconds) always gives the same op list.  Each
workload samples within cost strata: a pool is listed in order of its
measured cost at the baseline commit, and a run takes an evenly spaced
sample from it with a seeded offset, so the cost of a run changes
little from seed to seed while the rings themselves do.
"""

from __future__ import annotations

import json
import math
import random

from spec import BASE_SECONDS

# -- ring shapes in plain integers -----------------------------------------


def mult_order(a: int, n: int) -> int:
    """Order of a modulo n, for gcd(a, n) = 1."""
    if n == 1:
        return 1
    k, x = 1, a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k


def lam_order(p: int, m: int, lam) -> int:
    """Multiplicative order of lambda; m > 1 rings use only lambda = +-1."""
    if m == 1:
        return mult_order(lam % p, p)
    if lam == [1] + [0] * (m - 1):
        return 1
    if lam == [p - 1] + [0] * (m - 1):
        return 1 if p == 2 else 2
    raise ValueError(f"no order for lambda {lam} over F_{p}^{m}")


def factor_degrees(p: int, m: int, n: int, order: int) -> list[int]:
    """Degrees of the irreducible factors of x^n - lambda0 over F_q.

    The roots are beta^j for j = 1 (mod order) in Z/(n*order), with beta
    a primitive (n*order)-th root of unity; Frobenius multiplies j by q,
    so the degrees are the sizes of the q-cyclotomic cosets of that set.
    lambda0 has the order of lambda, because raising to p^s permutes
    the units of F_q.
    """
    q, M = p ** m, n * order
    seen: set[int] = set()
    degrees = []
    for t in range(n):
        j = (1 + order * t) % M
        if j in seen:
            continue
        d, x = 0, j
        while True:
            seen.add(x)
            d += 1
            x = x * q % M
            if x == j:
                break
        degrees.append(d)
    return sorted(degrees)


def shape(ring, order=None) -> dict:
    p, m, s, n, lam = ring
    if order is None:
        order = lam_order(p, m, lam)
    degrees = factor_degrees(p, m, n, order)
    return {"N": n * p ** s, "e": p ** s, "r": len(degrees), "degrees": degrees}


def ring_args(ring) -> list[str]:
    p, m, s, n, lam = ring
    return ["--p", str(p), "--m", str(m), "--s", str(s), "--n", str(n), "--lambda", json.dumps(lam)]


# -- sampling -------------------------------------------------------------------


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def spread(rng: random.Random, pool: list, k: int) -> list:
    """k evenly spaced picks from pool (k <= len(pool) gives distinct picks)."""
    u = rng.random()
    return [pool[int((i + u) * len(pool) / k) % len(pool)] for i in range(k)]


def scaled(base: int, seconds: float) -> int:
    """base is the size at --seconds BASE_SECONDS."""
    return max(1, round(base * seconds / BASE_SECONDS))


# -- count_info -------------------------------------------------------------------

# (op, ring) with e = p^s from 101 to 1024 and the count under 4300 digits,
# 5 to 100 ms per op
DEEP = [
    ("count", (13, 1, 2, 1, 2)), ("info", (13, 1, 2, 1, 12)),
    ("count", (13, 1, 2, 1, 1)), ("info", (5, 1, 3, 2, 4)),
    ("count", (5, 1, 3, 2, 1)), ("count", (2, 1, 8, 1, 1)),
    ("info", (11, 1, 2, 2, 1)), ("count", (101, 1, 1, 2, 100)),
    ("count", (3, 1, 5, 1, 2)), ("count", (13, 1, 2, 2, 2)),
    ("info", (3, 1, 5, 1, 1)), ("info", (101, 1, 1, 2, 1)),
    ("info", (2, 1, 7, 3, 1)), ("count", (5, 1, 3, 4, 4)),
    ("info", (13, 1, 2, 4, 2)), ("count", (13, 1, 2, 3, 2)),
    ("info", (101, 1, 1, 4, 100)), ("count", (5, 1, 3, 3, 4)),
    ("info", (5, 1, 3, 3, 2)), ("info", (5, 1, 3, 3, 1)),
    ("count", (3, 1, 5, 2, 2)), ("count", (11, 1, 2, 3, 10)),
    ("count", (101, 1, 1, 3, 100)), ("info", (11, 1, 2, 3, 2)),
    ("info", (101, 1, 1, 3, 1)), ("count", (2, 1, 7, 5, 1)),
    ("info", (11, 1, 2, 3, 1)), ("count", (13, 1, 2, 2, 1)),
    ("count", (13, 1, 2, 2, 12)), ("info", (11, 1, 2, 4, 1)),
    ("info", (101, 1, 1, 3, 2)), ("info", (211, 1, 1, 1, 210)),
    ("count", (211, 1, 1, 1, 2)), ("count", (5, 1, 3, 7, 2)),
    ("count", (211, 1, 1, 1, 1)), ("info", (211, 1, 1, 5, 2)),
    ("count", (5, 1, 3, 4, 1)), ("info", (5, 1, 3, 7, 1)),
    ("info", (5, 1, 3, 7, 4)), ("count", (17, 1, 2, 1, 2)),
    ("info", (17, 1, 2, 1, 16)), ("count", (3, 1, 5, 2, 1)),
    ("info", (17, 1, 2, 1, 1)), ("count", (101, 1, 1, 7, 1)),
    ("info", (211, 1, 1, 3, 2)), ("count", (101, 1, 1, 4, 1)),
    ("count", (101, 1, 1, 7, 100)), ("info", (211, 1, 1, 2, 210)),
    ("count", (11, 1, 2, 4, 10)), ("count", (7, 1, 3, 1, 2)),
    ("info", (13, 1, 2, 4, 12)), ("count", (7, 1, 3, 1, 1)),
    ("info", (11, 1, 2, 4, 2)), ("count", (211, 1, 1, 2, 2)),
    ("info", (7, 1, 3, 1, 6)), ("info", (101, 1, 1, 7, 2)),
    ("info", (211, 1, 1, 7, 2)), ("info", (2, 1, 7, 7, 1)),
    ("count", (11, 1, 2, 5, 1)), ("count", (13, 1, 2, 3, 12)),
    ("count", (101, 1, 1, 5, 100)), ("info", (13, 1, 2, 3, 1)),
    ("info", (11, 1, 2, 5, 10)), ("count", (7, 1, 3, 3, 2)),
    ("info", (101, 1, 1, 5, 1)), ("info", (19, 1, 2, 1, 18)),
    ("count", (19, 1, 2, 1, 2)), ("info", (19, 1, 2, 1, 1)),
    ("count", (2, 1, 9, 1, 1)), ("info", (2, 1, 8, 3, 1)),
    ("count", (19, 1, 2, 3, 2)), ("info", (7, 1, 3, 2, 6)),
    ("count", (13, 1, 2, 5, 2)), ("count", (13, 1, 2, 4, 1)),
    ("info", (13, 1, 2, 5, 1)), ("info", (13, 1, 2, 5, 12)),
    ("count", (3, 1, 5, 5, 2)), ("count", (3, 1, 5, 5, 1)),
    ("info", (307, 1, 1, 1, 306)), ("info", (211, 1, 1, 2, 1)),
    ("count", (2, 1, 8, 5, 1)), ("count", (307, 1, 1, 1, 1)),
    ("info", (3, 1, 5, 4, 1)), ("info", (307, 1, 1, 1, 2)),
    ("info", (3, 1, 5, 7, 1)), ("count", (19, 1, 2, 2, 2)),
    ("count", (3, 1, 5, 7, 2)), ("count", (19, 1, 2, 2, 18)),
    ("info", (17, 1, 2, 2, 2)), ("count", (17, 1, 2, 2, 16)),
    ("info", (17, 1, 2, 3, 2)), ("info", (11, 1, 2, 7, 10)),
    ("count", (11, 1, 2, 7, 2)), ("count", (17, 1, 2, 3, 16)),
    ("info", (11, 1, 2, 7, 1)), ("info", (17, 1, 2, 2, 1)),
    ("count", (7, 1, 3, 2, 2)), ("info", (307, 1, 1, 2, 306)),
    ("info", (307, 1, 1, 2, 2)), ("count", (7, 1, 3, 4, 1)),
    ("count", (7, 1, 3, 2, 1)), ("info", (3, 1, 5, 4, 2)),
    ("count", (211, 1, 1, 3, 210)), ("info", (401, 1, 1, 5, 2)),
    ("count", (211, 1, 1, 3, 1)), ("count", (2, 1, 8, 7, 1)),
    ("info", (211, 1, 1, 4, 1)), ("info", (17, 1, 2, 4, 2)),
    ("count", (5, 1, 4, 1, 1)), ("count", (17, 1, 2, 5, 16)),
    ("info", (5, 1, 4, 1, 4)), ("count", (5, 1, 4, 1, 2)),
    ("info", (17, 1, 2, 5, 2)), ("count", (5, 1, 4, 2, 2)),
    ("info", (17, 1, 2, 5, 1)), ("info", (23, 1, 2, 2, 22)),
    ("count", (401, 1, 1, 1, 400)), ("count", (17, 1, 2, 7, 16)),
    ("count", (401, 1, 1, 1, 1)), ("count", (23, 1, 2, 1, 22)),
    ("info", (19, 1, 2, 2, 1)), ("info", (17, 1, 2, 7, 1)),
    ("info", (17, 1, 2, 7, 2)), ("count", (13, 1, 2, 7, 12)),
    ("count", (23, 1, 2, 1, 1)), ("info", (7, 1, 3, 5, 1)),
    ("count", (3, 1, 6, 1, 2)), ("info", (7, 1, 3, 5, 6)),
    ("count", (23, 1, 2, 1, 2)), ("info", (3, 1, 6, 1, 1)),
    ("info", (401, 1, 1, 1, 2)), ("info", (7, 1, 3, 5, 2)),
    ("count", (13, 1, 2, 7, 2)), ("count", (7, 1, 3, 3, 1)),
    ("info", (2, 1, 10, 1, 1)), ("info", (7, 1, 3, 3, 6)),
    ("info", (2, 1, 9, 3, 1)), ("info", (13, 1, 2, 7, 1)),
    ("count", (3, 1, 6, 2, 2)), ("count", (17, 1, 2, 3, 1)),
    ("count", (401, 1, 1, 2, 2)), ("info", (307, 1, 1, 2, 1)),
    ("count", (503, 1, 1, 2, 502)), ("info", (7, 1, 3, 4, 2)),
    ("count", (211, 1, 1, 4, 2)), ("info", (211, 1, 1, 4, 210)),
    ("info", (23, 1, 2, 2, 2)), ("count", (17, 1, 2, 4, 16)),
    ("count", (5, 1, 4, 3, 4)), ("count", (19, 1, 2, 3, 18)),
    ("count", (503, 1, 1, 1, 1)), ("info", (23, 1, 2, 5, 22)),
    ("info", (17, 1, 2, 4, 1)), ("count", (211, 1, 1, 5, 210)),
    ("count", (29, 1, 2, 1, 2)), ("info", (307, 1, 1, 5, 1)),
    ("info", (19, 1, 2, 7, 1)), ("count", (307, 1, 1, 5, 2)),
    ("count", (5, 1, 4, 3, 2)), ("count", (23, 1, 2, 3, 2)),
    ("count", (307, 1, 1, 5, 306)), ("info", (19, 1, 2, 7, 18)),
    ("info", (503, 1, 1, 1, 2)), ("info", (307, 1, 1, 3, 306)),
    ("info", (19, 1, 2, 4, 1)), ("count", (5, 1, 4, 3, 1)),
    ("info", (19, 1, 2, 7, 2)), ("info", (601, 1, 1, 1, 2)),
    ("info", (7, 1, 3, 4, 6)),
]

# (op, ring) with many factors of x^n - lambda0 (n = 15 .. 255), 5 to 100 ms
# per op
MANY = [
    ("count", (2, 1, 1, 15, 1)), ("info", (2, 1, 1, 21, 1)),
    ("count", (3, 1, 1, 31, 1)), ("info", (3, 1, 1, 31, 2)),
    ("count", (3, 1, 2, 31, 1)), ("count", (3, 1, 2, 31, 2)),
    ("info", (7, 1, 1, 15, 1)), ("info", (7, 1, 1, 15, 6)),
    ("count", (13, 1, 1, 31, 1)), ("count", (5, 1, 1, 24, 4)),
    ("info", (13, 1, 1, 31, 12)), ("count", (11, 1, 1, 31, 1)),
    ("count", (13, 1, 1, 15, 12)), ("info", (11, 1, 1, 15, 1)),
    ("info", (11, 1, 1, 31, 10)), ("info", (11, 1, 1, 15, 10)),
    ("count", (2, 1, 1, 31, 1)), ("info", (13, 1, 1, 15, 1)),
    ("count", (5, 1, 1, 24, 1)), ("count", (11, 1, 1, 21, 10)),
    ("count", (5, 1, 2, 24, 4)), ("info", (2, 1, 2, 31, 1)),
    ("info", (2, 1, 1, 45, 1)), ("count", (7, 1, 1, 24, 6)),
    ("info", (5, 1, 1, 21, 1)), ("count", (5, 1, 1, 21, 4)),
    ("info", (2, 1, 2, 45, 1)), ("info", (7, 1, 1, 24, 1)),
    ("count", (3, 1, 1, 35, 2)), ("info", (11, 1, 1, 21, 1)),
    ("count", (3, 1, 1, 35, 1)), ("info", (2, 1, 2, 35, 1)),
    ("count", (11, 1, 1, 24, 10)), ("count", (3, 1, 1, 40, 2)),
    ("count", (13, 1, 1, 24, 1)), ("info", (3, 1, 2, 35, 2)),
    ("info", (3, 1, 1, 40, 1)), ("count", (13, 1, 1, 24, 12)),
    ("info", (3, 1, 2, 35, 1)), ("info", (2, 1, 1, 35, 1)),
    ("count", (7, 1, 2, 15, 6)), ("count", (11, 1, 1, 24, 1)),
    ("count", (5, 1, 2, 21, 1)), ("info", (3, 1, 2, 40, 2)),
    ("count", (5, 1, 1, 31, 4)), ("count", (5, 1, 2, 24, 1)),
    ("count", (13, 1, 1, 21, 12)), ("info", (13, 1, 1, 21, 1)),
    ("info", (5, 1, 2, 21, 4)), ("info", (3, 1, 2, 40, 1)),
    ("info", (5, 1, 1, 31, 1)), ("info", (7, 1, 2, 15, 1)),
    ("count", (2, 1, 1, 33, 1)), ("count", (5, 1, 1, 48, 1)),
    ("info", (2, 1, 2, 33, 1)), ("info", (5, 1, 1, 33, 4)),
    ("count", (2, 1, 1, 51, 1)), ("count", (2, 1, 2, 51, 1)),
    ("info", (2, 1, 1, 63, 1)), ("count", (2, 1, 2, 63, 1)),
    ("info", (5, 1, 1, 33, 1)), ("count", (13, 1, 1, 45, 12)),
    ("info", (7, 1, 1, 40, 1)), ("count", (5, 1, 2, 31, 4)),
    ("count", (5, 1, 2, 31, 1)), ("info", (5, 1, 1, 48, 4)),
    ("info", (7, 1, 1, 48, 6)), ("count", (5, 1, 2, 33, 4)),
    ("count", (3, 1, 1, 80, 1)), ("info", (11, 1, 1, 40, 10)),
    ("count", (13, 1, 1, 35, 12)), ("info", (7, 1, 1, 40, 6)),
    ("count", (11, 1, 1, 35, 10)), ("count", (7, 1, 1, 48, 1)),
    ("count", (11, 1, 1, 35, 1)), ("info", (5, 1, 2, 33, 1)),
    ("count", (11, 1, 1, 40, 1)), ("count", (2, 1, 2, 65, 1)),
    ("info", (2, 1, 2, 105, 1)), ("info", (2, 1, 1, 65, 1)),
    ("info", (13, 1, 1, 35, 1)), ("count", (3, 1, 1, 80, 2)),
    ("info", (7, 1, 1, 31, 1)), ("count", (7, 1, 2, 24, 1)),
    ("count", (11, 1, 1, 48, 1)), ("count", (5, 1, 2, 48, 4)),
    ("info", (7, 1, 2, 24, 6)), ("count", (3, 1, 2, 80, 1)),
    ("info", (2, 1, 1, 121, 1)), ("count", (7, 1, 1, 121, 6)),
    ("info", (7, 1, 1, 45, 1)), ("info", (7, 1, 1, 45, 6)),
    ("count", (7, 1, 1, 121, 1)), ("info", (2, 1, 2, 121, 1)),
    ("info", (3, 1, 1, 65, 2)), ("info", (3, 1, 1, 65, 1)),
    ("info", (13, 1, 1, 45, 1)), ("count", (2, 1, 1, 91, 1)),
    ("count", (3, 1, 2, 65, 1)), ("info", (3, 1, 2, 80, 2)),
    ("count", (7, 1, 2, 31, 1)), ("info", (13, 1, 1, 48, 1)),
    ("info", (3, 1, 2, 65, 2)), ("count", (2, 1, 2, 91, 1)),
    ("info", (7, 1, 2, 33, 6)), ("count", (13, 1, 1, 121, 1)),
    ("count", (5, 1, 2, 48, 1)), ("count", (5, 1, 1, 63, 4)),
    ("count", (13, 1, 1, 51, 12)), ("info", (11, 1, 2, 31, 10)),
    ("count", (7, 1, 2, 45, 6)), ("info", (3, 1, 1, 91, 1)),
    ("count", (7, 1, 2, 45, 1)), ("info", (11, 1, 2, 21, 10)),
    ("info", (11, 1, 2, 31, 1)), ("info", (7, 1, 2, 33, 1)),
    ("count", (7, 1, 2, 40, 1)), ("count", (13, 1, 1, 63, 12)),
    ("info", (13, 1, 2, 31, 12)), ("count", (13, 1, 1, 51, 1)),
    ("info", (13, 1, 1, 40, 12)), ("count", (7, 1, 1, 33, 6)),
    ("info", (11, 1, 2, 21, 1)), ("info", (7, 1, 2, 48, 6)),
    ("info", (11, 1, 1, 45, 1)), ("info", (7, 1, 2, 40, 6)),
    ("info", (3, 1, 1, 91, 2)), ("count", (13, 1, 2, 31, 1)),
    ("count", (5, 1, 1, 63, 1)), ("info", (7, 1, 1, 31, 6)),
    ("info", (13, 1, 1, 40, 1)), ("count", (3, 1, 2, 91, 1)),
    ("count", (2, 1, 1, 105, 1)), ("count", (2, 1, 1, 127, 1)),
    ("count", (7, 1, 1, 80, 6)), ("info", (13, 1, 1, 48, 12)),
    ("info", (3, 1, 2, 91, 2)), ("info", (13, 1, 1, 63, 1)),
    ("count", (7, 1, 1, 80, 1)), ("count", (13, 1, 1, 33, 12)),
    ("info", (13, 1, 2, 15, 12)), ("count", (7, 1, 2, 31, 6)),
    ("info", (5, 1, 1, 51, 4)), ("info", (7, 1, 1, 33, 1)),
    ("info", (11, 1, 1, 45, 10)), ("count", (11, 1, 2, 24, 10)),
    ("info", (11, 1, 1, 80, 1)), ("info", (13, 1, 2, 24, 12)),
    ("count", (13, 1, 2, 15, 1)), ("count", (3, 1, 1, 127, 2)),
    ("info", (5, 1, 2, 51, 4)), ("count", (13, 1, 1, 33, 1)),
    ("count", (3, 1, 1, 127, 1)), ("count", (11, 1, 1, 63, 1)),
    ("count", (11, 1, 1, 63, 10)), ("info", (11, 1, 1, 48, 10)),
    ("count", (7, 1, 2, 121, 6)), ("info", (3, 1, 2, 127, 2)),
    ("count", (11, 1, 2, 15, 10)), ("info", (3, 1, 2, 127, 1)),
    ("info", (5, 1, 2, 63, 4)), ("info", (11, 1, 2, 15, 1)),
]


def small_pool() -> list:
    """m = 1, 2, 3 rings with short chains; a few ms per op."""
    pool = []
    for p in (2, 3, 5, 7, 11, 13):
        for s in (1, 2):
            if p ** s > 25:
                continue
            for n in range(1, 9):
                if math.gcd(n, p) == 1:
                    pool.extend((p, 1, s, n, lam) for lam in sorted({1, p - 1}))
    for p, m in ((2, 2), (3, 2), (5, 2), (2, 3), (3, 3)):
        for n in range(1, 7):
            if math.gcd(n, p) == 1:
                for lam in ([1] + [0] * (m - 1), [p - 1] + [0] * (m - 1)):
                    ring = (p, m, 1, n, lam)
                    if ring not in pool:
                        pool.append(ring)
    pool.sort(key=lambda r: (r[3] * r[0] ** r[2] * r[1], r[0], r[1], r[3]))
    return pool


# In every run: the deep chain (2,1,10,7,1) named in the workload's
# definition, which has the largest memory of the run, and ten more deep
# or many-factor rings at 0.1-0.3 s per op, above every pooled op.
COUNT_ANCHORS = [
    {"kind": "info", "ring": (2, 1, 10, 7, 1)},
    {"kind": "count", "ring": (401, 1, 1, 7, 1)},
    {"kind": "count", "ring": (401, 1, 1, 3, 400)},
    {"kind": "info", "ring": (503, 1, 1, 5, 502)},
    {"kind": "count", "ring": (701, 1, 1, 2, 700)},
    {"kind": "count", "ring": (809, 1, 1, 3, 808)},
    {"kind": "count", "ring": (13, 1, 1, 80, 1)},
    {"kind": "count", "ring": (7, 1, 1, 51, 6)},
    {"kind": "count", "ring": (13, 1, 2, 24, 1)},
    {"kind": "count", "ring": (5, 1, 1, 51, 1)},
    {"kind": "count", "ring": (13, 1, 1, 105, 1)},
]


def count_info_ops(rng, seconds):
    small = spread(rng, small_pool(), scaled(100, seconds))
    flip = rng.randrange(2)
    ops = list(COUNT_ANCHORS)
    ops += [{"kind": "info" if (i + flip) % 2 else "count", "ring": r} for i, r in enumerate(small)]
    for pool in (DEEP, MANY):
        ops += [{"kind": kind, "ring": ring} for kind, ring in spread(rng, pool, scaled(100, seconds))]
    rng.shuffle(ops)
    return ops


# -- code_stream ------------------------------------------------------------------

# named in the workload's definition, in every run: per-document dual cost
# about 40, 30 and 17 ms at the baseline
STREAM_ANCHORS = [(7, 1, 1, 48, 6), (2, 1, 4, 7, 1), (3, 2, 1, 8, [1, 0])]
# sampled: per-document dual cost 12-17 ms, then 7-10 ms
STREAM_STRATA = [
    [(2, 3, 1, 7, [1, 0, 0]), (5, 1, 1, 24, 4), (5, 1, 1, 12, 1), (2, 1, 1, 45, 1),
     (5, 1, 2, 4, 1), (2, 1, 3, 15, 1), (7, 1, 1, 12, 1)],
    [(2, 2, 2, 3, [1, 0]), (5, 1, 1, 6, 4), (3, 1, 2, 4, 2), (3, 1, 2, 8, 1),
     (3, 2, 1, 4, [2, 0]), (2, 1, 3, 7, 1)],
]


def code_stream_ops(rng, seconds):
    limit = scaled(54, seconds)
    rings = STREAM_ANCHORS + spread(rng, STREAM_STRATA[0], 5) + spread(rng, STREAM_STRATA[1], 4)
    rng.shuffle(rings)
    return [{"kind": "enumerate", "ring": ring, "limit": limit} for ring in rings]


# the dual probe at N = 726: a code document without "factors", so the
# ring's own factor order applies; zero b parameters are valid in every
# window, which lets the benchmark write specs for all five cases
# without knowing the factors
DUAL_726_RING = (3, 1, 1, 242, 2)


def dual_726_doc(rng) -> str:
    r = shape(DUAL_726_RING)["r"]
    specs = [
        {"case": "I", "b": []},
        {"case": "II", "k": 1, "b": []},
        {"case": "III", "k": 0},
        {"case": "III", "k": 2},
        {"case": "IV", "t": 2, "b": []},
        {"case": "V", "k": 1, "t": 1, "b": []},
    ]
    p, m, s, n, lam = DUAL_726_RING
    params = {"p": p, "m": m, "s": s, "n": n, "lambda": lam}
    return json.dumps({"params": params, "components": [rng.choice(specs) for _ in range(r)]})


# -- selfdual ---------------------------------------------------------------------

# (p, s, n, nu) with m = 1.  Anchors, in every run, are the rings named in
# the workload's definition; (3,2,4,-1) and (2,3,7,1) are the slowest
# (0.8 and 0.37 s per op at the baseline).
SELFDUAL_ANCHORS = [(3, 2, 4, -1), (2, 3, 7, 1), (5, 1, 6, -1), (5, 1, 12, -1)]
# sampled, each in order of cost: 2-15 ms, 25-110 ms, 150-700 ms per op
SELFDUAL_STRATA = [
    [(2, 1, 1, 1), (3, 1, 1, 1), (3, 1, 1, -1), (2, 2, 1, 1), (3, 1, 4, -1),
     (5, 1, 2, -1), (2, 1, 3, 1), (3, 1, 2, -1), (2, 1, 7, 1), (3, 1, 2, 1),
     (3, 1, 8, -1), (2, 1, 5, 1), (3, 1, 13, -1), (3, 1, 8, 1), (3, 1, 10, -1),
     (3, 1, 4, 1), (2, 2, 7, 1), (2, 1, 21, 1), (5, 1, 1, 1), (2, 1, 15, 1),
     (3, 1, 20, -1), (2, 2, 3, 1), (2, 1, 9, 1), (3, 1, 16, 1)],
    [(3, 1, 40, -1), (5, 1, 4, -1), (5, 1, 4, 1), (5, 1, 2, 1), (2, 1, 63, 1),
     (3, 1, 28, -1), (5, 1, 8, 1), (3, 1, 26, -1), (2, 1, 35, 1)],
    [(3, 2, 1, 1), (2, 2, 21, 1), (3, 1, 10, 1), (3, 1, 20, 1), (2, 2, 5, 1),
     (3, 1, 16, -1), (2, 3, 3, 1), (2, 1, 51, 1), (2, 1, 17, 1), (2, 2, 15, 1)],
]


def selfdual_ops(rng, seconds):
    rings = list(SELFDUAL_ANCHORS)
    for pool, k in zip(SELFDUAL_STRATA, (120, 24, 6)):
        rings += spread(rng, pool, scaled(k, seconds))
    rng.shuffle(rings)
    # each ring's count runs before its stream, which is checked against it
    ops = []
    for p, s, n, nu in rings:
        ring = (p, 1, s, n, nu)
        ops.append({"kind": "selfdual_count", "ring": ring})
        ops.append({"kind": "selfdual_stream", "ring": ring, "limit": 5})
    return ops


# -- oracle -----------------------------------------------------------------------

DUAL, SUB, AMB = "brute_dual", "brute_submodules", "brute_ambient_ideals"

# (ring, order of lambda, the brute-force calls the ring gets); every
# code of the ring goes through code_space + brute_dual.
# (3, 2, 1, 2, 5): lambda = 2 + g with g^2 = -1 in F_9 = F_3[g]/(g^2 + 1)
# (the default modulus), and (2 + g)^2 = g has order 4, so lambda has order 8.
ORACLE_RINGS = [
    ((2, 2, 1, 3, 1), 1, (DUAL,)),
    ((3, 2, 1, 2, 5), 8, (DUAL,)),
    ((2, 1, 1, 3, 1), 1, (DUAL, SUB, AMB)),
    ((2, 1, 2, 1, 1), 1, (DUAL, SUB, AMB)),
    ((2, 2, 1, 1, 1), 1, (DUAL, SUB, AMB)),
    ((2, 3, 1, 1, 1), 1, (DUAL, SUB, AMB)),
    ((3, 1, 1, 1, 1), 1, (DUAL, SUB, AMB)),
    ((2, 1, 1, 5, 1), 1, (DUAL, SUB)),
    ((5, 1, 1, 1, 1), 1, (DUAL,)),
]


def oracle_ops(rng, seconds):
    """One task per (ring, call); the worker expands brute_dual to every code."""
    passes = scaled(4, seconds)
    tasks = [
        {"kind": call, "ring": ring, "order": order}
        for _ in range(passes)
        for ring, order, calls in ORACLE_RINGS
        for call in calls
    ]
    rng.shuffle(tasks)
    return tasks


BUILDERS = {
    "count_info": count_info_ops,
    "code_stream": code_stream_ops,
    "selfdual": selfdual_ops,
    "oracle": oracle_ops,
}


def build(workload: str, seed: int, seconds: float) -> list[dict]:
    return BUILDERS[workload](rng_for(workload, seed), seconds)
