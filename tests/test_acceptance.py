"""Acceptance gate: frozen reference values and brute-force cross-checks.

Every test prints one pass/fail line; timed criteria assert their
budget.  Reference counts, factor tables and idempotent vectors are
frozen here on purpose, so regressions surface as exact mismatches.
"""

import json
import random
import time
from contextlib import contextmanager
from math import gcd

from ccring.chain import ChainCtx
from ccring.cli import main, parse_code
from ccring.decomp import AmbientParams, build_factor_data
from ccring.dual import count_self_dual, is_self_dual
from ccring.gf import field_new
from ccring.ideals import (
    CodeSpec,
    IdealSpec,
    case_counts,
    count_codes,
    count_ideals_params,
    count_ideals_sumform_params,
)
from ccring.oracle import (
    _chain_check,
    _dual_check,
    _selfdual_check,
    brute_dual,
    code_space,
)
from ccring.poly import Poly, factor_squarefree
from test_decomp import mulmod


@contextmanager
def criterion(num, limit=None):
    t0 = time.monotonic()
    info = {"detail": ""}
    try:
        yield info
        elapsed = time.monotonic() - t0
        if limit is not None and elapsed >= limit:
            raise AssertionError(f"took {elapsed:.1f}s, budget {limit}s")
    except BaseException as ex:
        print(f"criterion {num:2d}: FAIL  {ex}")
        raise
    print(f"criterion {num:2d}: PASS  {elapsed:6.2f}s  {info['detail']}")


def test_criterion_01_negacyclic_length_thirty_counts():
    with criterion(1, limit=5.0) as info:
        fd = build_factor_data(AmbientParams.of_ints(5, 1, 1, 6, 4))
        total = count_codes(fd)
        selfdual = count_self_dual(fd, -1)
        assert total == 62190883161, total
        assert selfdual == 249381, selfdual
        info["detail"] = f"total={total} selfdual={selfdual}"


def test_criterion_02_length_twenty_breakdown():
    with criterion(2, limit=1.0) as info:
        fd = build_factor_data(AmbientParams.of_ints(5, 1, 1, 4, 3))
        assert fd.r == 1 and fd.chain(0).d == 4
        total = count_codes(fd)
        assert total == 1176261, total
        counts = case_counts(5, 1, 4, 1)
        assert counts == {
            "I": 390625,
            "II": 391876,
            "III": 6,
            "IV": 391876,
            "V": 1878,
        }, counts
        assert sum(counts.values()) == total
        info["detail"] = f"total={total} breakdown={counts}"


def test_criterion_03_bigint_counts():
    with criterion(3) as info:
        single_quartic_13 = count_ideals_params(13, 1, 4, 1)
        linear_13 = count_ideals_params(13, 1, 1, 1)
        quadratic_13 = count_ideals_params(13, 1, 2, 1)
        linear_19 = count_ideals_params(19, 1, 1, 1)
        quadratic_19 = count_ideals_params(19, 1, 2, 1)

        values = {
            "13,quartic": (single_quartic_13, 1628535353189467891702213785),
            "13,linear^4": (linear_13 ** 4, 92300403860395414742363374161),
            "13,quadratic^2": (quadratic_13 ** 2, 5022317475223730190748850625),
            "19,quadratic^2": (
                quadratic_19 ** 2,
                98853624946129979125010756140470464728908752100,
            ),
            "19,linear^2*quadratic": (
                linear_19 ** 2 * quadratic_19,
                378733991979096789784301581334490215632932864000,
            ),
        }
        for name, (got, want) in values.items():
            assert got == want, f"{name}: {got} != {want}"

        # the same products through whole rings of length 4p
        ring_products = [
            ((13, 1, 1, 4, 2), single_quartic_13),  # x^4 - 2 irreducible
            ((13, 1, 1, 4, 1), linear_13 ** 4),  # x^4 - 1 splits fully
            ((13, 1, 1, 4, 4), quadratic_13 ** 2),  # x^4 - 4 = two quadratics
            ((19, 1, 1, 4, 2), quadratic_19 ** 2),
            ((19, 1, 1, 4, 4), linear_19 ** 2 * quadratic_19),
        ]
        for args, want in ring_products:
            fd = build_factor_data(AmbientParams.of_ints(*args))
            assert count_codes(fd) == want, args
        info["detail"] = "5 values, each tied to a length-4p ring"


QUARTIC_PAIRS_19 = {
    2: ((13, 8, 1), (13, 11, 1)),
    3: ((15, 12, 1), (15, 7, 1)),
    8: ((12, 10, 1), (12, 9, 1)),
    10: ((3, 5, 1), (3, 14, 1)),
    12: ((8, 4, 1), (8, 15, 1)),
    13: ((14, 16, 1), (14, 3, 1)),
    14: ((10, 18, 1), (10, 1, 1)),
    15: ((2, 17, 1), (2, 2, 1)),
    18: ((18, 13, 1), (18, 6, 1)),
}

QUARTIC_PAIRS_13 = {
    4: ((11, 0, 1), (2, 0, 1)),
    10: ((6, 0, 1), (7, 0, 1)),
    12: ((8, 0, 1), (5, 0, 1)),
}


def test_criterion_04_factorization_vectors():
    with criterion(4) as info:
        F5 = field_new(5, 1)
        got = factor_squarefree(Poly(F5, [1, 0, 0, 0, 0, 0, 1]))
        assert [f.coeffs for f in got] == [(2, 1), (3, 1), (4, 2, 1), (4, 3, 1)]

        F19 = field_new(19, 1)
        nonsquares = {a for a in range(1, 19) if all(b * b % 19 != a for b in range(1, 19))}
        assert set(QUARTIC_PAIRS_19) == nonsquares
        for a, pair in QUARTIC_PAIRS_19.items():
            quartic = Poly(F19, [(-a) % 19, 0, 0, 0, 1])
            assert Poly(F19, pair[0]) * Poly(F19, pair[1]) == quartic, a
            got = {f.coeffs for f in factor_squarefree(quartic)}
            assert got == set(pair), f"x^4 - {a} over F_19"

        F13 = field_new(13, 1)
        for a, pair in QUARTIC_PAIRS_13.items():
            quartic = Poly(F13, [(-a) % 13, 0, 0, 0, 1])
            assert Poly(F13, pair[0]) * Poly(F13, pair[1]) == quartic, a
            got = {f.coeffs for f in factor_squarefree(quartic)}
            assert got == set(pair), f"x^4 - {a} over F_13"
        info["detail"] = "sextic over F_5, 9 quartics over F_19, 3 over F_13"


IDEMPOTENTS_30 = [
    {0: 1, 5: 2, 10: 4, 15: 3, 20: 1, 25: 2},
    {0: 2, 5: 2, 10: 1, 15: 4, 20: 4, 25: 2},
    {0: 1, 5: 3, 10: 4, 15: 2, 20: 1, 25: 3},
    {0: 2, 5: 3, 10: 1, 15: 1, 20: 4, 25: 3},
]


def test_criterion_05_idempotent_vectors():
    with criterion(5) as info:
        fd = build_factor_data(AmbientParams.of_ints(5, 1, 1, 6, 4))
        assert [f.coeffs for f in fd.factors] == [(2, 1), (4, 2, 1), (3, 1), (4, 3, 1)]
        for eps, table in zip(fd.idempotents, IDEMPOTENTS_30):
            coeffs = [0] * 26
            for i, c in table.items():
                coeffs[i] = c
            assert eps == Poly(fd.params.field, coeffs)
        info["detail"] = "4 idempotents of the length-30 negacyclic ring"


def test_criterion_06_closed_form_vs_sum_form():
    with criterion(6) as info:
        checked = 0
        for p in (2, 3, 5, 7, 13, 19):
            for m in (1, 2):
                for d in (1, 2, 4):
                    for s in (1, 2):
                        a = count_ideals_params(p, m, d, s)
                        b = count_ideals_sumform_params(p, m, d, s)
                        assert a == b, (p, m, d, s, a, b)
                        checked += 1
        info["detail"] = f"{checked} grid points agree"


def test_criterion_07_chain_oracle_suite():
    with criterion(7, limit=120.0) as info:
        details = []
        for p, m, d, s in [
            (2, 1, 1, 1),
            (2, 1, 2, 1),
            (2, 1, 1, 2),
            (3, 1, 1, 1),
            (3, 1, 2, 1),
            (5, 1, 1, 1),
        ]:
            ok, detail = _chain_check(p, m, d, s)
            assert ok, f"({p},{m},{d},{s}): {detail}"
            details.append(detail.split(",")[0])
        info["detail"] = "; ".join(details)


def test_criterion_08_dual_exhaustive():
    with criterion(8, limit=300.0) as info:
        details = []
        for p, m, s, n in [(3, 1, 1, 1), (3, 1, 1, 2)]:
            for lam in (1, 2):  # 2 encodes -1 over F_3
                ok, detail = _dual_check(p, m, s, n, lam)
                assert ok, f"({p},{m},{s},{n},lam={lam}): {detail}"
                details.append(detail)
        info["detail"] = "; ".join(details)


def test_criterion_09_self_dual_fixed_points():
    with criterion(9) as info:
        ok, detail = _selfdual_check(3, 1, 1, 2, -1)
        assert ok, detail

        # the <u> code is its own annihilator even when lambda^2 != 1
        params = AmbientParams.of_ints(5, 1, 1, 1, 3)
        fd = build_factor_data(params)
        code = CodeSpec(fd, (IdealSpec("I", b=Poly.zero(params.field)),))
        space = code_space(code)
        assert brute_dual(space, params) == space
        info["detail"] = f"{detail}; <u> at lambda=3 confirmed"


def test_criterion_10_idempotent_identities_random():
    with criterion(10) as info:
        rng = random.Random(20260819)
        seen = 0
        while seen < 25:
            p = rng.choice([2, 3, 5, 7])
            m = rng.choice([1, 2])
            s = rng.choice([1, 2])
            n = rng.randrange(1, 13)
            if gcd(n, p) != 1:
                continue
            field = field_new(p, m)
            lam = rng.randrange(1, field.q)
            fd = build_factor_data(AmbientParams(field, s, n, lam))
            total = Poly.zero(field)
            for j, eps in enumerate(fd.idempotents):
                total = total + eps
                assert mulmod(fd, eps, eps) == eps, (p, m, s, n, lam, j)
                for l in range(j):
                    assert mulmod(fd, eps, fd.idempotents[l]).is_zero(), (p, m, s, n, lam, j, l)
            assert total == Poly.one(field), (p, m, s, n, lam)
            seen += 1
        info["detail"] = "25 parameter draws"


def negacyclic_f5_self_dual_count(s: int, t: int) -> int:
    """The paper's count of self-dual negacyclic codes of length
    2 * 3^t * 5^s over F_5 + u F_5: prod_{j <= t} N(d_j), with d_0 = 1,
    d_j = 2 * 3^(j-1), N(d) = sum_{i <= h} (3 + 4i) 5^(d (h - i)) and
    h = (5^s - 1)/2."""
    h = (5 ** s - 1) // 2
    total = 1
    for d in [1] + [2 * 3 ** (j - 1) for j in range(1, t + 1)]:
        total *= sum((3 + 4 * i) * 5 ** (d * (h - i)) for i in range(h + 1))
    return total


def test_criterion_11_negacyclic_self_dual_family_over_f5(capsys):
    with criterion(11, limit=5.0) as info:
        details = []
        for s, top in [(1, 3), (2, 2)]:
            for t in range(top + 1):
                ring = ["--p", "5", "--s", str(s), "--n", str(2 * 3 ** t), "--nu", "-1"]
                assert main(["selfdual", *ring, "--count-only"]) == 0
                got = capsys.readouterr().out
                assert got == f"{negacyclic_f5_self_dual_count(s, t)}\n", (s, t, got)
            details.append(f"s={s}: t <= {top}")
        for s in (1, 2):
            assert main(["selfdual", "--p", "5", "--s", str(s), "--n", "6", "--nu", "-1", "--limit", "20"]) == 0
            codes = [parse_code(json.loads(line)) for line in capsys.readouterr().out.splitlines()]
            assert len(codes) == 20 and all(map(is_self_dual, codes)), s
        info["detail"] = "; ".join(details) + "; 20 codes self-dual at t = 1"
