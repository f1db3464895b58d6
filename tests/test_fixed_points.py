"""Self-dual components from ker(T - I), against the filter over all specs.

dual.self_dual_component_options builds the fixed specs of a tau-fixed
factor from the kernel of the transport minus the identity on each
fixed shape's digit window; oracle.brute_self_dual_options runs every
spec through dual_component instead.  They must agree spec for spec and
in order wherever the filter finishes.  Where it does not finish, the
counts are frozen and the codes are checked one by one with
is_self_dual.

count_self_dual_params takes each kernel's dimension from a closed form
and the factor degrees from the cyclotomic cosets; it is checked here
against the kernel route, and the streams against the route that
solved every kernel before the first code.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from functools import partial
from itertools import islice
from math import gcd

import pytest

from ccring import cli, decomp, dual
from ccring.chain import ChainCtx
from ccring.cli import main, parse_code
from ccring.decomp import AmbientParams, build_factor_data, tau_degrees
from ccring.dual import (
    count_self_dual,
    count_self_dual_params,
    dual_component,
    enumerate_self_dual,
    is_self_dual,
    nu_value,
    self_dual_component_options,
)
from ccring.errors import NotSelfPairedLambda
from ccring.gf import field_new
from ccring.ideals import CodeSpec, count_ideals_params, enumerate_ideals, spec_product
from ccring.oracle import brute_self_dual_options
from ccring.poly import Poly


def nu_fd(p, m, s, n, nu):
    field = field_new(p, m)
    return build_factor_data(AmbientParams(field, s, n, nu_value(field, nu)))


# (p, m, s, n, nu): every ring of the test suite with lambda^2 = 1 and a
# tau-fixed factor whose filter finishes, plus five m > 1 rings
FILTER_RINGS = [
    (5, 1, 1, 6, 1),
    (5, 1, 1, 2, 1),
    (5, 1, 1, 4, 1),
    (2, 1, 1, 1, 1),
    (2, 1, 1, 3, 1),
    (2, 1, 2, 3, 1),
    (2, 1, 2, 7, 1),
    (3, 1, 1, 1, 1),
    (3, 1, 1, 1, -1),
    (3, 1, 1, 2, 1),
    (3, 1, 1, 2, -1),
    (3, 1, 2, 2, -1),
    (3, 1, 1, 242, 1),
    (3, 1, 1, 242, -1),
    (2, 2, 1, 3, 1),
    (3, 2, 1, 2, 1),
    (2, 3, 2, 7, 1),
    (3, 2, 1, 8, 1),
    (2, 2, 1, 5, 1),
    (2, 3, 1, 7, 1),
    (5, 2, 1, 2, 1),
    (2, 2, 2, 3, 1),
]


@pytest.mark.parametrize("ring", FILTER_RINGS)
def test_kernel_route_is_the_filter_in_order(ring):
    fd = nu_fd(*ring)
    assert fd.rho > 0
    lengths = []
    for j in range(fd.rho):
        got = self_dual_component_options(j, fd)
        assert got == brute_self_dual_options(j, fd)
        lengths.append(len(got))
    want = 1
    for n_fixed in lengths:
        want *= n_fixed
    p, m, s = ring[:3]
    for i in range(fd.pair_count):
        want *= count_ideals_params(p, m, fd.chain(fd.rho + i).d, s)
    assert count_self_dual(fd, ring[4]) == want


def test_count_and_stream_scan_no_spec(monkeypatch):
    """Neither route runs dual_component on a tau-fixed factor, nor the
    list builders: (5,1,2,6,+1) has 305175781 fixed specs per quadratic."""
    fd = nu_fd(5, 1, 2, 6, 1)
    assert fd.rho == 4 and fd.pair_count == 0

    def refuse(*args):
        raise AssertionError("the fixed specs were scanned or listed")

    for name in ("dual_component", "self_dual_component_options"):
        monkeypatch.setattr(dual, name, refuse)
    assert count_self_dual(fd, 1) == 51156894126910567279814209
    assert next(enumerate_self_dual(fd, 1)).fd is fd


# the filter over all specs runs for more than 30 s on each of these
TIMEOUT_RINGS = [
    ((13, 1, 1, 4), "114498055894629"),
    (
        (7, 1, 1, 48),
        "4598010335653895785894970052068188411518226777375787232264192000000",
    ),
    ((5, 1, 2, 6), "51156894126910567279814209"),
    (
        (41, 1, 1, 4),
        "113715175552373785033222174356229101767963324004706425915000228223",
    ),
]


def timed_cli(argv):
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), time.perf_counter() - start


@pytest.mark.parametrize("ring,count", TIMEOUT_RINGS)
def test_former_timeout_rings(ring, count):
    p, m, s, n = ring
    argv = ["selfdual", "--p", str(p), "--m", str(m), "--s", str(s), "--n", str(n), "--nu", "1"]
    code, out, elapsed = timed_cli(argv + ["--count-only"])
    assert code == 0 and out == count + "\n"
    assert elapsed < 1
    decomp.clear_memo()  # the stream is timed from a cold start too
    code, out, elapsed = timed_cli(argv + ["--limit", "30"])
    assert code == 0 and elapsed < 1
    lines = out.splitlines()
    assert len(lines) == 30
    for line in lines:
        assert is_self_dual(parse_code(json.loads(line)))


def test_fixed_specs_per_factor_frozen():
    fd = nu_fd(5, 1, 2, 6, 1)
    field = fd.params.field
    sizes = [
        sum(1 if basis is None else field.p ** len(basis) for _, basis in dual._fixed_windows(j, fd))
        for j in range(fd.rho)
    ]
    assert sizes == [23437, 23437, 305175781, 305175781]


def kernel_size(j, fd):
    """Self-dual specs on tau-fixed factor j by the kernel route: [e even]
    plus p^dim ker(T - I) per window, as count_self_dual took them when
    it solved the kernels."""
    p = fd.params.p
    return sum(1 if basis is None else p ** len(basis) for _, basis in dual._fixed_windows(j, fd))


def kernel_route_count(fd, sizes=None):
    """The ring's count from fd's factors: sizes (the kernel route's by
    default) per tau-fixed factor, the ideals of one factor per pair."""
    total = 1
    for size in [kernel_size(j, fd) for j in range(fd.rho)] if sizes is None else sizes:
        total *= size
    p, m, s = fd.params.p, fd.params.m, fd.params.s
    for i in range(fd.pair_count):
        total *= count_ideals_params(p, m, fd.chain(fd.rho + i).d, s)
    return total


def assert_split_is_the_factor_data(fd):
    fixed, pairs = tau_degrees(fd.params)
    assert len(fixed) == fd.rho and len(pairs) == fd.pair_count
    assert all(fd.tau[j] == j for j in range(fd.rho))
    assert fixed == sorted(f.degree for f in fd.factors[: fd.rho])
    assert pairs == sorted(f.degree for f in fd.factors[fd.rho : fd.rho + fd.pair_count])
    assert pairs == sorted(fd.factors[fd.tau[a]].degree for a in range(fd.rho, fd.rho + fd.pair_count))


@pytest.mark.parametrize("ring", FILTER_RINGS + [(*ring, 1) for ring, _ in TIMEOUT_RINGS])
def test_closed_form_is_the_kernel_route(ring):
    fd = nu_fd(*ring)
    assert_split_is_the_factor_data(fd)
    p, m, s = ring[:3]
    for j, f in enumerate(fd.factors[: fd.rho]):
        assert kernel_size(j, fd) == dual._fixed_count(p, m, f.degree, s)
    assert count_self_dual_params(fd.params, ring[4]) == kernel_route_count(fd)


def grid_rings():
    """The rings of the random set the closed form was first checked on:
    p^(ms) <= 400 with m <= 3 (m <= 2 for p >= 5), s <= 4 for p = 2 and
    s <= 2 otherwise, n <= 24 prime to p, nu = +-1."""
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, 4 if p < 5 else 3):
            for s in range(1, 5 if p == 2 else 3):
                if p ** (m * s) > 400:
                    continue
                for n in range(1, 25):
                    if gcd(n, p) == 1:
                        out += [(p, m, s, n, nu) for nu in ((1,) if p == 2 else (1, -1))]
    return out


# the kernel route costs about (m d e)^3 per tau-fixed factor, seconds
# each past this size on the grid; a larger factor takes the closed form
# into the ring count, which is still checked against the factor data
KERNEL_ROUTE_SIZE = 120


@pytest.mark.parametrize("ring", random.Random(22).sample(grid_rings(), 60))
def test_closed_form_is_the_kernel_route_on_the_grid(ring):
    fd = nu_fd(*ring)
    assert_split_is_the_factor_data(fd)
    p, m, s = ring[:3]
    sizes = []
    for j, f in enumerate(fd.factors[: fd.rho]):
        sizes.append(dual._fixed_count(p, m, f.degree, s))
        if m * f.degree * p**s <= KERNEL_ROUTE_SIZE:
            assert kernel_size(j, fd) == sizes[-1]
    assert count_self_dual_params(fd.params, ring[4]) == count_self_dual(fd, ring[4]) == kernel_route_count(fd, sizes)


def test_grid_sample_covers_each_branch():
    seen = set()
    for p, m, s, n, nu in random.Random(22).sample(grid_rings(), 60):
        field = field_new(p, m)
        fixed, pairs = tau_degrees(AmbientParams(field, s, n, nu_value(field, nu)))
        seen |= {("p = 2" if p == 2 else "odd p", "d even" if d % 2 == 0 else "d = 1") for d in fixed}
        seen |= {name for name, hit in (("nu = -1", nu == -1), ("m > 1", m > 1), ("pairs", pairs)) if hit}
    want = {("p = 2", "d = 1"), ("p = 2", "d even"), ("odd p", "d = 1"), ("odd p", "d even"), "nu = -1", "m > 1", "pairs"}
    assert want <= seen


def test_p2_closed_form_is_the_fitted_count():
    """At d = 1 the window form rewrites the count fitted to the kernel
    route: q + 1 for s = 1, (q^(k+2) + q^(k+1) - q^2 - 1)/(q - 1) with
    k = 2^(s-2) for s >= 2."""
    for m in range(1, 5):
        q = 2**m
        assert dual._fixed_count(2, m, 1, 1) == q + 1
        for s in range(2, 10):
            k = 2 ** (s - 2)
            assert dual._fixed_count(2, m, 1, s) == (q ** (k + 2) + q ** (k + 1) - q**2 - 1) // (q - 1)


def test_wrong_lambda_rejected_by_the_params_count():
    field = field_new(5, 1)
    with pytest.raises(NotSelfPairedLambda):
        count_self_dual_params(AmbientParams(field, 1, 2, 2), -1)
    with pytest.raises(NotSelfPairedLambda):
        count_self_dual_params(AmbientParams(field, 1, 2, 4), 1)


def refuse_set_up(monkeypatch, products=True):
    """Make ring set-up, chain rings, kernels and, with products, Poly
    products and divisions raise, wherever a ccring module binds them."""

    def refuse(*args, **kwargs):
        raise AssertionError("the count set up a ring")

    for module in (decomp, cli):
        monkeypatch.setattr(module, "build_factor_data", refuse)
    for name in ("factor_data_for", "factor_squarefree"):
        monkeypatch.setattr(decomp, name, refuse)
    monkeypatch.setattr(dual, "kernel", refuse)
    monkeypatch.setattr(ChainCtx, "__init__", refuse)
    if products:
        monkeypatch.setattr(Poly, "__mul__", refuse)
        monkeypatch.setattr(Poly, "__divmod__", refuse)


@pytest.mark.parametrize(
    "ring,count",
    [
        ((2, 1, 9, 1, 1), str(3 * 2**129 - 5)),
        ((2, 1, 8, 1, 1), str(3 * 2**65 - 5)),
        ((5, 1, 2, 6, 1), "51156894126910567279814209"),
        ((41, 1, 1, 4, 1), TIMEOUT_RINGS[3][1]),
        ((41, 1, 2, 4, 1), None),
        # x + 1 by the count fitted at p = 2 (k = 2^10), times a pair of cubics
        ((2, 1, 12, 7, 1), str((3 * 2**1025 - 5) * count_ideals_params(2, 1, 3, 12))),
        ((3, 2, 1, 8, 1), "kernel route"),
    ],
)
def test_count_only_sets_up_no_ring(monkeypatch, ring, count):
    p, m, s, n, nu = ring
    argv = ["selfdual", "--p", str(p), "--m", str(m), "--s", str(s), "--n", str(n), "--nu", str(nu), "--count-only"]
    if count == "kernel route":
        count = str(kernel_route_count(nu_fd(*ring)))
        decomp.clear_memo()
    # a field with m > 1 tests its modulus for irreducibility with products
    refuse_set_up(monkeypatch, products=m == 1)
    code, out, _ = timed_cli(argv)
    assert code == 0 and out.strip().isdigit()
    assert count is None or out == count + "\n"


def counted_kernel(monkeypatch):
    calls = []
    real = dual.kernel
    monkeypatch.setattr(dual, "kernel", lambda *a: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("ring", [(2, 1, 9, 1), (41, 1, 2, 4), (5, 1, 1, 6), (3, 1, 2, 127)])
def test_limit_one_solves_no_kernel(monkeypatch, ring):
    p, m, s, n = ring
    calls = counted_kernel(monkeypatch)
    argv = ["selfdual", "--p", str(p), "--m", str(m), "--s", str(s), "--n", str(n), "--nu", "1", "--limit", "1"]
    code, out, _ = timed_cli(argv)
    assert code == 0 and len(out.splitlines()) == 1
    assert calls == []
    doc = json.loads(out)
    assert all(c["case"] == "I" and c["b"] == [] for c in doc["components"][: nu_fd(*ring, 1).rho])


def enumerate_self_dual_eager(fd, nu):
    """The stream as it was when every kernel was solved before the first
    code: the same product, over _fixed_windows built up front."""
    rho, field = fd.rho, fd.params.field
    streams = [partial(dual._fixed_specs, dual._fixed_windows(j, fd), field) for j in range(rho)]
    streams += [partial(enumerate_ideals, fd.chain(a)) for a in range(rho, rho + fd.pair_count)]
    for choice in spec_product(streams):
        comps = list(choice) + [None] * (fd.r - len(choice))
        for a in range(rho, rho + fd.pair_count):
            comps[fd.tau[a]] = dual_component(choice[a], a, fd, fd.chain(fd.tau[a]))
        yield CodeSpec.trusted(fd, tuple(comps))


STREAM_RINGS = [
    (5, 1, 1, 6, 1),
    (3, 1, 1, 2, 1),
    (3, 1, 2, 2, -1),
    (2, 1, 2, 7, 1),
    (2, 2, 1, 5, 1),
    (3, 2, 1, 8, 1),
    (7, 1, 1, 48, 1),
    (13, 1, 1, 4, -1),
]


@pytest.mark.parametrize("ring", STREAM_RINGS)
def test_lazy_stream_is_the_eager_stream(monkeypatch, ring):
    fd = nu_fd(*ring)
    want = [c.components for c in islice(enumerate_self_dual_eager(fd, ring[4]), 300)]
    fd = nu_fd(*ring)
    calls = counted_kernel(monkeypatch)
    got = [c.components for c in islice(enumerate_self_dual(fd, ring[4]), 300)]
    assert got == want
    # a factor that moved past I with b = 0 solved its kernels, once for
    # all its restarts; one that did not solved none
    moved = {j for c in got for j, spec in enumerate(c[: fd.rho]) if spec != got[0][j]}
    assert {j for j in range(fd.rho) if fd._fixed[j] is not None} == moved
    solved = len(calls)
    again = [c.components for c in islice(enumerate_self_dual(fd, ring[4]), 300)]
    assert again == got and len(calls) == solved


def test_stream_after_count_is_the_stream_from_a_cold_start(monkeypatch):
    """--count-only leaves nothing for the stream: the stream sets the
    ring up itself, and prints what a fresh process prints."""
    argv = ["selfdual", "--p", "5", "--s", "1", "--n", "6", "--nu", "1"]
    code, count, _ = timed_cli(argv + ["--count-only"])
    assert code == 0 and int(count) > 20
    calls = counted_kernel(monkeypatch)
    code, stream, _ = timed_cli(argv + ["--limit", "20"])
    assert code == 0 and len(stream.splitlines()) == 20
    assert calls  # the last factor moved past b = 0
    decomp.clear_memo()
    code, again, _ = timed_cli(argv + ["--limit", "20"])
    assert code == 0 and again == stream
