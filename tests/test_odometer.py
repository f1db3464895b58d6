"""One lazy odometer behind residue sets, codes and self-dual codes.

Each order is checked against a reference that does not use the
odometer: the f-adic digit definition for residue_set, itertools.product
over built lists for enumerate_codes, and the list-based product for
enumerate_self_dual.
"""

import time
from itertools import islice, product

import pytest

from ccring.chain import ChainCtx, odometer
from ccring.cli import main
from ccring.decomp import AmbientParams, build_factor_data
from ccring.dual import (
    dual_component,
    enumerate_self_dual,
    is_self_dual,
    self_dual_component_options,
)
from ccring.gf import field_new
from ccring.ideals import CodeSpec, enumerate_codes, enumerate_ideals, spec_product
from ccring.poly import Poly


def test_odometer_moves_position_zero_fastest():
    lists = [[1, 2], [], [3, 4, 5]]
    streams = [lists[0].__iter__, lists[2].__iter__]
    got = list(odometer(streams, lambda high, item, i: high + ((i, item),), ()))
    want = [((1, a), (0, b)) for a, b in product(lists[2], lists[0])]
    assert got == want
    assert list(odometer([], None, "origin")) == ["origin"]
    assert list(odometer([lists[0].__iter__, lists[1].__iter__], None, ())) == []


def test_spec_product_is_product_order():
    lists = [["a", "b"], [1, 2, 3], ["x"], [True, False]]
    assert list(spec_product([lst.__iter__ for lst in lists])) == list(product(*lists))


# -- residue_set against its f-adic digits -------------------------------------


@pytest.mark.parametrize(
    "p,m,coeffs,e",
    [(5, 1, (2, 1), 5), (3, 1, (2, 0, 1), 3), (2, 2, (2, 1), 4), (3, 2, (1, 1), 3), (2, 1, (1, 1, 1), 4)],
)
def test_residue_set_follows_the_digit_counter(p, m, coeffs, e):
    """The k-th element has f-adic digits k written in base q^d, position a lowest."""
    ctx = ChainCtx(Poly(field_new(p, m), coeffs), e)
    index = {dg: i for i, dg in enumerate(ctx.digit_polys())}
    radix = len(index)
    for a in range(e + 1):
        for b in range(a, e + 1):
            if ctx.residue_set_size(a, b) > 2048:
                continue
            count = 0
            for k, z in enumerate(ctx.residue_set(a, b)):
                digits = ctx.f_adic(z)
                assert all(dg.is_zero() for i, dg in enumerate(digits) if not a <= i < b)
                assert sum(index[digits[i]] * radix ** (i - a) for i in range(a, b)) == k
                count += 1
            assert count == ctx.residue_set_size(a, b)


# -- enumerate_codes against itertools.product ---------------------------------

CODE_RINGS = [(3, 1, 1, 2, 1), (2, 2, 1, 3, 1), (5, 1, 1, 4, 4), (3, 2, 1, 2, 8), (2, 1, 2, 3, 1)]


@pytest.mark.parametrize("ring", CODE_RINGS)
def test_enumerate_codes_is_product_of_spec_lists(ring):
    fd = build_factor_data(AmbientParams.of_ints(*ring))
    lists = [list(enumerate_ideals(fd.chain(j))) for j in range(fd.r)]
    want = list(islice(product(*lists), 3000))
    assert [code.components for code in enumerate_codes(fd, limit=3000)] == want
    assert [code.components for code in enumerate_codes(fd, limit=7)] == want[:7]


# -- enumerate_self_dual against the list-based product --------------------------


def listed_self_dual(fd):
    """The free pair factors as built lists, product over everything."""
    rho = fd.rho
    fixed = [self_dual_component_options(j, fd) for j in range(rho)]
    free = [list(enumerate_ideals(fd.chain(rho + i))) for i in range(fd.pair_count)]
    for choice in product(*fixed, *free):
        comps = list(choice[:rho]) + [None] * (fd.r - rho)
        for a in range(rho, rho + fd.pair_count):
            comps[a] = choice[a]
            comps[fd.tau[a]] = dual_component(choice[a], a, fd, fd.chain(fd.tau[a]))
        yield CodeSpec(fd, tuple(comps))


# (p, m, s, n, nu); the comment gives (rho, pair_count)
SELF_DUAL_RINGS = [
    (5, 1, 1, 4, 1),  # (2, 1)
    (5, 1, 1, 4, -1),  # (0, 1)
    (2, 2, 1, 3, 1),  # (1, 1)
    (3, 2, 1, 2, -1),  # (0, 1)
    (3, 2, 1, 2, 1),  # (2, 0)
    (3, 1, 1, 2, -1),  # (1, 0)
    (2, 1, 2, 7, 1),  # (1, 1)
]


def nu_fd(p, m, s, n, nu):
    field = field_new(p, m)
    return build_factor_data(AmbientParams(field, s, n, 1 if nu == 1 else field.neg(1)))


def test_self_dual_rings_cover_fixed_and_paired_factors():
    fds = [nu_fd(*ring) for ring in SELF_DUAL_RINGS]
    shapes = {(fd.rho > 0, fd.pair_count > 0) for fd in fds}
    assert shapes == {(True, True), (False, True), (True, False)}
    assert {ring[1] for ring in SELF_DUAL_RINGS} == {1, 2}
    assert {ring[4] for ring in SELF_DUAL_RINGS} == {1, -1}


@pytest.mark.parametrize("ring", SELF_DUAL_RINGS)
def test_enumerate_self_dual_matches_listed_product(ring):
    fd = nu_fd(*ring)
    nu = ring[4]
    want = [code.components for code in islice(listed_self_dual(fd), 5000)]
    got = [code.components for code in islice(enumerate_self_dual(fd, nu), 5000)]
    assert got == want and want
    assert all(is_self_dual(CodeSpec(fd, comps)) for comps in got[:50])


def test_first_self_dual_code_builds_few_digits(monkeypatch):
    """At (13,1,1,4), nu = -1, one reciprocal pair of quadratics has
    70868310797025 ideals; the first code reads one window of digits."""
    fd = nu_fd(13, 1, 1, 4, -1)
    assert (fd.rho, fd.pair_count) == (0, 1)
    built = []
    digit_polys = ChainCtx.digit_polys

    def counted(self):
        for dg in digit_polys(self):
            built.append(dg)
            yield dg

    monkeypatch.setattr(ChainCtx, "digit_polys", counted)
    codes = enumerate_self_dual(fd, -1)
    first = next(codes)
    assert is_self_dual(first)
    assert len(built) <= fd.params.e  # one digit per position of case I's window
    next(codes)
    assert len(built) <= fd.params.e + 1


def test_selfdual_limit_streams(capsys):
    start = time.perf_counter()
    assert main(["selfdual", "--p", "13", "--s", "1", "--n", "4", "--nu", "-1", "--limit", "1"]) == 0
    assert time.perf_counter() - start < 2
    assert len(capsys.readouterr().out.splitlines()) == 1
