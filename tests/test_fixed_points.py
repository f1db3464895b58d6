"""Self-dual components from ker(T - I), against the filter over all specs.

dual.self_dual_component_options builds the fixed specs of a tau-fixed
factor from the kernel of the transport minus the identity on each
fixed shape's digit window; oracle.brute_self_dual_options runs every
spec through dual_component instead.  They must agree spec for spec and
in order wherever the filter finishes.  Where it does not finish, the
counts are frozen and the codes are checked one by one with
is_self_dual.
"""

import io
import json
import time
from contextlib import redirect_stdout

import pytest

from ccring import decomp, dual
from ccring.cli import main, parse_code
from ccring.decomp import AmbientParams, build_factor_data
from ccring.dual import (
    count_self_dual,
    enumerate_self_dual,
    is_self_dual,
    nu_value,
    self_dual_component_options,
)
from ccring.gf import field_new
from ccring.ideals import count_ideals_params
from ccring.oracle import brute_self_dual_options


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
    cache = {}
    for line in lines:
        assert is_self_dual(parse_code(json.loads(line), cache=cache))


def test_fixed_specs_per_factor_frozen():
    fd = nu_fd(5, 1, 2, 6, 1)
    field = fd.params.field
    sizes = [
        sum(1 if basis is None else field.p ** len(basis) for _, basis in dual._fixed_windows(j, fd))
        for j in range(fd.rho)
    ]
    assert sizes == [23437, 23437, 305175781, 305175781]


def test_stream_after_count_reuses_the_kernels(monkeypatch):
    """selfdual --limit after --count-only on one ring finds the ring,
    and the kernels its count built, in the memo."""
    argv = ["selfdual", "--p", "5", "--s", "1", "--n", "6", "--nu", "1"]
    code, count, _ = timed_cli(argv + ["--count-only"])
    assert code == 0 and int(count) > 20
    calls = []
    real = dual.kernel
    monkeypatch.setattr(dual, "kernel", lambda *a: calls.append(1) or real(*a))
    code, stream, _ = timed_cli(argv + ["--limit", "20"])
    assert code == 0 and len(stream.splitlines()) == 20
    assert calls == []
    decomp.clear_memo()
    code, again, _ = timed_cli(argv + ["--limit", "20"])
    assert code == 0 and again == stream and calls
