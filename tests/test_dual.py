import gc
import hashlib
import io
import random
import time
import types
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ccring import decomp
from ccring import dual as dual_module
from ccring.cli import main as cli_main
from ccring.decomp import AmbientParams, build_factor_data, factor_data
from ccring.dual import (
    _reflect,
    _transport_b,
    count_self_dual,
    dual_code,
    dual_code_nu,
    dual_component,
    dual_factor_data,
    enumerate_self_dual,
    is_self_dual,
    self_dual_component_options,
)
from ccring.errors import NotSelfPairedLambda
from ccring.gf import field_new
from ccring.ideals import (
    CodeSpec,
    IdealSpec,
    b_window,
    code_size,
    enumerate_codes,
    enumerate_ideals,
)
from ccring.oracle import brute_dual, code_space
from ccring.poly import Poly, reciprocal
from test_chain import from_digits


def fd_of(p, m, s, n, lam):
    return build_factor_data(AmbientParams.of_ints(p, m, s, n, lam))


def test_case_transport_table():
    fd = fd_of(3, 1, 1, 1, 1)  # single factor x + 2, e = 3
    ctx = fd.chain(0)
    zero = Poly.zero(fd.params.field)

    def image(spec):
        return dual_component(spec, 0, fd, ctx)

    assert image(IdealSpec("III", k=0)) == IdealSpec("III", k=3)
    assert image(IdealSpec("III", k=2)) == IdealSpec("III", k=1)
    assert image(IdealSpec("I", b=zero)).case == "I"
    assert image(IdealSpec("II", k=1, b=zero)) == IdealSpec("IV", t=2, b=zero)
    assert image(IdealSpec("II", k=2, b=zero)) == IdealSpec("IV", t=1, b=zero)
    assert image(IdealSpec("IV", t=2, b=zero)) == IdealSpec("II", k=1, b=zero)
    got = image(IdealSpec("V", k=1, t=1, b=zero))
    assert (got.case, got.k, got.t) == ("V", 1, 1)


def test_dual_is_kernel_dual_sampled():
    fd = fd_of(5, 1, 1, 2, 4)  # two linear factors, e = 5, 14641 codes
    params = fd.params
    rng = random.Random(23)
    codes = list(enumerate_codes(fd))
    for code in rng.sample(codes, 40):
        dc = dual_code(code)
        assert isinstance(dc, CodeSpec)
        assert code_space(dc).key() == brute_dual(code_space(code), params).key()


def test_scalar_is_constant_term_not_its_inverse():
    """Replacing f_j(0) by f_j(0)^(-1) in the b transport breaks duality."""
    fd = fd_of(5, 1, 1, 2, 4)
    params = fd.params
    ctx0 = fd.chain(0)
    b = ctx0.f_pows[2]  # valuation 2, inside the case I window [2, 4)
    code = CodeSpec(fd, (IdealSpec("I", b=b), IdealSpec("III", k=5)))
    dc = dual_code(code)
    kernel = brute_dual(code_space(code), params)
    assert code_space(dc).key() == kernel.key()

    f0 = fd.factors[0](0)
    ratio = params.field.inv(params.field.mul(f0, f0))
    target = dc.fd.chain(0)
    bhat = dc.components[0].b
    variant_b = target.reduce(bhat.scale(ratio))
    assert variant_b != bhat
    variant = CodeSpec(
        dc.fd, (replace(dc.components[0], b=variant_b),) + dc.components[1:]
    )
    assert code_size(variant) == code_size(dc)
    assert code_space(variant).key() != kernel.key()


def test_dual_factor_data_is_built_once_per_factor_data():
    fd = fd_of(3, 1, 1, 8, 2)  # x^8 + 1: two quartic factors
    dfd = dual_factor_data(fd)
    assert dual_factor_data(fd) is dfd
    assert all(dual_code(code).fd is dfd for code in enumerate_codes(fd, 5))
    # another FactorData of the same ring finds the same dual in the memo
    assert dual_factor_data(fd_of(3, 1, 1, 8, 2)) is dfd
    # with the memo cleared, it gets its own, equal dual
    decomp.clear_memo()
    other = dual_factor_data(fd_of(3, 1, 1, 8, 2))
    assert other is not dfd and other.factors == dfd.factors


def _reaches(src, target) -> bool:
    """Whether target is reachable from src through object references
    (types, modules and functions not followed)."""
    seen, todo = set(), [src]
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType)
    while todo:
        obj = todo.pop()
        if obj is target:
            return True
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        todo.extend(gc.get_referents(obj))
    return False


@pytest.mark.parametrize("ring", [(3, 1, 1, 8, 2), (5, 1, 1, 6, 4)])
def test_the_dual_ring_holds_no_link_to_its_source(ring):
    fd = fd_of(*ring)
    code = next(iter(enumerate_codes(fd, 1)))
    dual = dual_code(code)
    # only the decomp memo keeps rings: neither ring holds the other
    assert not _reaches(fd, dual.fd) and not _reaches(dual, fd)
    # dualizing again builds the lambda ring through the memo: not fd,
    # which build_factor_data built afresh, but the memo's, with fd's factors
    back = dual_factor_data(dual.fd)
    assert back is not fd and back.factors == fd.factors
    assert dual_code(dual).components == code.components
    # so a source from the memo is the dual of its dual
    assert factor_data(fd.params) is back and dual_factor_data(back) is dual.fd
    # with the memo cleared, the ring is built afresh
    decomp.clear_memo()
    assert factor_data(fd.params) is not back


STREAM_RING = (7, 1, 1, 48, 6)  # r = 12 quartic factors


def dual_code_nu_by_placement(code):
    """The same-ring dual by its own transport loop: the component built
    from position j placed at position tau(j)."""
    fd = code.fd
    comps = [None] * fd.r
    for j, spec in enumerate(code.components):
        tj = fd.tau[j]
        comps[tj] = dual_component(spec, j, fd, fd.chain(tj))
    return tuple(comps)


# the rings of the tests with lambda = +-1 and at most 15000 codes
NU_RINGS = [
    (2, 1, 1, 1, 1),
    (2, 1, 1, 3, 1),
    (2, 1, 2, 3, 1),
    (3, 1, 1, 1, 1),
    (3, 1, 1, 1, 2),
    (3, 1, 1, 2, 1),
    (3, 1, 1, 2, 2),
    (5, 1, 1, 2, 1),
    (5, 1, 1, 2, 4),
    (2, 2, 1, 1, 1),
    (2, 2, 1, 3, 1),
    (2, 2, 1, 5, 1),
    (3, 2, 1, 2, 1),
]


@pytest.mark.parametrize("ring", NU_RINGS)
def test_dual_code_nu_is_the_placement_loop(ring):
    fd = fd_of(*ring)
    assert fd.tau is not None
    for code in enumerate_codes(fd):
        dual = dual_code_nu(code)
        assert dual.fd is fd and dual.components == dual_code_nu_by_placement(code)


def test_nu_rings_cover_both_signs_and_m_above_one():
    rings = [fd_of(*ring) for ring in NU_RINGS]
    assert {fd.params.lam == 1 for fd in rings} == {True, False}
    assert max(fd.params.m for fd in rings) > 1
    assert any(fd.pair_count for fd in rings) and any(fd.rho for fd in rings)


@pytest.mark.parametrize("ring", [STREAM_RING, (2, 2, 1, 3, 1)])  # pairs only; a fixed factor and a pair
def test_dual_code_nu_builds_no_ring(ring):
    """dual_code_nu and is_self_dual stay in the code's own ring: along a
    stream they set up no FactorData, and the dual ring is never built."""
    fd = fd_of(*ring)
    assert fd.pair_count
    lookups = decomp._kept_ring.cache_info()[:2]
    for code in enumerate_codes(fd, 200):
        dual = dual_code_nu(code)
        assert dual.fd is fd and dual.components == dual_code_nu_by_placement(code)
        is_self_dual(code)
    # no ring is looked up in the memo, the dual ring included
    assert decomp._kept_ring.cache_info()[:2] == lookups


def test_dual_of_dual_restores_a_whole_stream():
    """Dualizing back restores every code of a stream, and streams of a
    ring and its dual interleaved get the component route's duals."""
    fd = factor_data(AmbientParams.of_ints(*STREAM_RING))
    for code in enumerate_codes(fd, 200):
        dual = dual_code(code)
        back = dual_code(dual)
        assert back.fd is fd and back.components == code.components
    for pair in zip(enumerate_codes(fd, 200), enumerate_codes(dual_factor_data(fd), 200)):
        for code in pair:
            target = dual_factor_data(code.fd)
            want = tuple(dual_component(x, j, code.fd, target.chain(j)) for j, x in enumerate(code.components))
            assert dual_code(code).components == want


def test_dual_stream_twice_through_one_process(capsys, monkeypatch):
    ring = ["--p", "7", "--s", "1", "--n", "48", "--lambda", "6"]
    assert cli_main(["enumerate", *ring, "--limit", "200"]) == 0
    stream = capsys.readouterr().out
    dual = run_dual(capsys, monkeypatch, stream)
    assert dual.count("\n") == 200 and dual != stream
    assert run_dual(capsys, monkeypatch, dual) == stream


def test_inv_x_image_roundtrip():
    fd = fd_of(5, 1, 1, 2, 2)  # x^2 - 2 irreducible, lambda not self-paired
    dfd = dual_factor_data(fd)
    ctx, dctx = fd.chain(0), dfd.chain(0)
    rng = random.Random(5)
    for _ in range(20):
        a = ctx.reduce(Poly(fd.params.field, [rng.randrange(5) for _ in range(10)]))
        img = dctx.reduce(_reflect(a, 0, fd.params))
        back = ctx.reduce(_reflect(img, 0, dfd.params))
        assert back == a


def test_f_power_image():
    fd = fd_of(5, 1, 1, 2, 2)
    dfd = dual_factor_data(fd)
    ctx, dctx = fd.chain(0), dfd.chain(0)
    params = fd.params
    F = params.field
    f, fhat = fd.factors[0], dfd.factors[0]
    d = f.degree
    for l in range(ctx.e + 1):
        fl = Poly.one(F)
        for _ in range(l):
            fl = fl * f
        img = dctx.reduce(_reflect(ctx.reduce(fl), 0, params))
        # f^l lands on lambda x^(N - l d) (f(0) fhat)^l
        expect = dctx.reduce(Poly.monomial(F, params.N - l * d, params.lam))
        expect = dctx.mul(expect, Poly.const(F, pow_scalar(F, f(0), l)))
        for _ in range(l):
            expect = dctx.mul(expect, fhat)
        assert img == expect, l


def pow_scalar(F, c, l):
    out = 1
    for _ in range(l):
        out = F.mul(out, c)
    return out


def test_u_ideal_dualizes_to_itself_across_rings():
    fd = fd_of(5, 1, 1, 1, 3)  # lambda = 3, inverse ring has lambda = 2
    params = fd.params
    code = CodeSpec(fd, (IdealSpec("I", b=Poly.zero(params.field)),))
    dc = dual_code(code)
    assert dc.fd.params.lam == 2
    assert dc.components[0] == IdealSpec("I", b=Poly.zero(params.field))
    space = code_space(code)
    assert brute_dual(space, params).key() == space.key() == code_space(dc).key()


def test_cross_ring_size_identity():
    fd = fd_of(5, 1, 1, 1, 3)
    for code in enumerate_codes(fd):
        assert code_size(code) * code_size(dual_code(code)) == fd.params.ring_size()


def test_double_dual_restores_everything():
    fd = fd_of(5, 1, 1, 2, 4)
    rng = random.Random(31)
    codes = list(enumerate_codes(fd))
    for code in rng.sample(codes, 25):
        dd = dual_code(dual_code(code))
        assert dd.components == code.components
        assert dd.fd.factors == fd.factors
        assert dd.fd.params.lam == fd.params.lam


def test_code_spec_keeps_b_as_its_residue_mod_f_e():
    """A b given with a multiple of f^e added is the same ideal, so the
    code must still be self-dual and dualize back to itself."""
    fd = fd_of(3, 1, 1, 2, 2)
    code = next(c for c in enumerate_self_dual(fd, -1) if any(x.b is not None for x in c.components))
    j = next(j for j, x in enumerate(code.components) if x.b is not None)
    comps = list(code.components)
    comps[j] = replace(comps[j], b=comps[j].b + fd.chain(j).modulus)
    padded = CodeSpec(fd, tuple(comps))
    assert padded.components == code.components
    assert is_self_dual(padded)
    assert dual_code(dual_code(padded)).components == padded.components


def test_self_dual_count_anchors():
    assert count_self_dual(fd_of(5, 1, 1, 6, 4), -1) == 249381
    assert count_self_dual(fd_of(5, 1, 1, 2, 4), -1) == 121


def test_self_dual_enumeration_matches_brute_filter():
    fd = fd_of(3, 1, 1, 2, 2)  # x^2 + 1 stays irreducible, tau-fixed
    params = fd.params
    got = list(enumerate_self_dual(fd, -1))
    assert len(got) == count_self_dual(fd, -1) == 4
    brute = [c for c in enumerate_codes(fd) if is_self_dual(c)]
    assert {c.components for c in got} == {c.components for c in brute}
    for code in got:
        space = code_space(code)
        assert brute_dual(space, params).key() == space.key()


def test_self_dual_with_nu_plus_one():
    fd = fd_of(3, 1, 1, 2, 1)  # two tau-fixed linear factors
    assert fd.rho == 2 and fd.pair_count == 0
    got = list(enumerate_self_dual(fd, 1))
    assert len(got) == count_self_dual(fd, 1)
    brute = [c for c in enumerate_codes(fd) if is_self_dual(c)]
    assert {c.components for c in got} == {c.components for c in brute}
    per_factor = self_dual_component_options(0, fd)
    assert len(got) == len(per_factor) * len(self_dual_component_options(1, fd))
    for spec in per_factor:
        assert spec.case in ("I", "V")  # e = 3 is odd, so no III fixed point


def test_self_dual_pairs_force_partner():
    fd = fd_of(5, 1, 1, 2, 4)  # one reciprocal pair, nothing tau-fixed
    assert fd.rho == 0 and fd.pair_count == 1
    for code in enumerate_self_dual(fd, -1):
        assert dual_code_nu(code).components == code.components


@pytest.mark.parametrize(
    "ring,nu",
    [((5, 1, 1, 6, 4), -1), ((7, 1, 1, 48, 6), -1), ((3, 1, 1, 8, 1), 1), ((2, 2, 1, 3, 1), 1)],
)
def test_self_dual_partners_are_transported_once_per_change(ring, nu, monkeypatch):
    """Along a self-dual stream, dual_component runs once per change of
    a pair factor's spec, and the partner stays the same object until
    then; every code is its own dual."""
    fd = fd_of(*ring)
    assert fd.pair_count
    calls = []
    real = dual_module.dual_component
    monkeypatch.setattr(dual_module, "dual_component", lambda *a: calls.append(a) or real(*a))
    codes = list(islice(enumerate_self_dual(fd, nu), 300))
    firsts = range(fd.rho, fd.rho + fd.pair_count)
    changes = 0
    for last, code in zip([None] + codes, codes):
        for a in firsts:
            moved = last is None or code.components[a] is not last.components[a]
            changes += moved
            if not moved:
                assert code.components[fd.tau[a]] is last.components[fd.tau[a]]
    assert len(calls) == changes
    # a lone pair factor streams last, so it moves on every code
    assert changes < len(codes) * fd.pair_count or fd.pair_count == 1
    monkeypatch.undo()
    for code in codes:
        assert dual_code_nu(code).components == code.components


def test_wrong_lambda_rejected():
    fd = fd_of(5, 1, 1, 2, 2)  # 2^2 = 4 != 1
    code = next(enumerate_codes(fd, limit=1))
    with pytest.raises(NotSelfPairedLambda):
        dual_code_nu(code)
    with pytest.raises(NotSelfPairedLambda):
        count_self_dual(fd, -1)
    fd_neg = fd_of(5, 1, 1, 2, 4)
    with pytest.raises(NotSelfPairedLambda):
        count_self_dual(fd_neg, 1)  # built for -1, asked about +1


def test_dual_factor_data_layout():
    fd = fd_of(5, 1, 1, 6, 4)
    dfd = dual_factor_data(fd)
    assert dfd.params.lam == fd.params.lam_inv()
    for f, g in zip(fd.factors, dfd.factors):
        assert g == reciprocal(f).monic()


# -- the transport against the Horner route it replaced ------------------------


def horner_inv_x_image(a, target, params):
    """a(x^(-1)) by Horner's rule with X = lambda x^(N-1), reducing every step."""
    field = params.field
    X = target.reduce(Poly.monomial(field, params.N - 1, params.lam))
    out = Poly.zero(field)
    for c in reversed(a.coeffs):
        out = target.mul(out, X)
        if c:
            out = out + Poly.const(field, c)
    return target.reduce(out)


def horner_dual_component(spec, j, fd, target):
    """dual_component through horner_inv_x_image, a product by x^(N-d) and
    an f-adic digit cut."""
    params = fd.params
    field = params.field
    e = params.e
    shape = {
        "I": lambda: IdealSpec("I"),
        "II": lambda: IdealSpec("IV", t=e - spec.k),
        "IV": lambda: IdealSpec("II", k=e - spec.t),
        "V": lambda: IdealSpec("V", k=e - spec.k - spec.t, t=spec.t),
    }[spec.case]()
    d = fd.factors[j].degree
    img = horner_inv_x_image(spec.b, target, params)
    img = target.mul(img, Poly.monomial(field, params.N - d))
    scal = field.neg(field.mul(params.lam, fd.factors[j](0)))
    raw = target.reduce(img.scale(scal))
    lo, hi = b_window(shape, e)
    digits = target.f_adic(raw)
    assert all(digits[k].is_zero() for k in range(lo))
    cut = [dg if lo <= k < hi else Poly.zero(field) for k, dg in enumerate(digits)]
    return replace(shape, b=from_digits(target, cut))


def encoded_fd(p, m, s, n, lam):
    """fd_of with lambda given as its F_p coefficient list when m > 1."""
    if isinstance(lam, list):
        lam = field_new(p, m).encode(lam)
    return fd_of(p, m, s, n, lam)


TRANSPORT_RINGS = [
    (5, 1, 1, 2, 2),  # lambda^2 != 1
    (3, 2, 1, 8, [1, 0]),
    (3, 2, 1, 8, [0, 1]),  # lambda^2 != 1 over F_9
    (2, 3, 1, 7, [1, 0, 0]),
    (2, 3, 1, 7, [0, 1, 0]),  # lambda^2 != 1 over F_8
    (7, 1, 1, 48, 6),
    (3, 1, 2, 2, 2),  # e = 9, lambda = -1
]


def random_window_b(ctx, lo, hi, rng):
    digits = [Poly.zero(ctx.field)] * ctx.e
    for k in range(lo, hi):
        digits[k] = Poly(ctx.field, [rng.randrange(ctx.field.q) for _ in range(ctx.d)])
    return from_digits(ctx, digits)


@pytest.mark.parametrize("ring", TRANSPORT_RINGS)
def test_inv_x_image_matches_horner(ring):
    fd = encoded_fd(*ring)
    dfd = dual_factor_data(fd)
    params = fd.params
    rng = random.Random(41)
    for j in range(fd.r):
        target = dfd.chain(j)
        for length in (0, 1, 2, target.d * target.e, params.N, params.N + 1, 2 * params.N + 3):
            a = Poly(params.field, [rng.randrange(params.field.q) for _ in range(length)])
            assert target.reduce(_reflect(a, 0, params)) == horner_inv_x_image(a, target, params)


@pytest.mark.parametrize("ring", TRANSPORT_RINGS)
def test_dual_component_matches_horner(ring):
    fd = encoded_fd(*ring)
    dfd = dual_factor_data(fd)
    e = fd.params.e
    rng = random.Random(43)
    shapes = [IdealSpec("I")]
    shapes += [IdealSpec("II", k=k) for k in range(1, e)]
    shapes += [IdealSpec("IV", t=t) for t in range(1, e)]
    shapes += [IdealSpec("V", k=k, t=t) for k in range(1, e - 1) for t in range(1, e - k)]
    for j in range(fd.r):
        ctx, target = fd.chain(j), dfd.chain(j)
        for shape in rng.sample(shapes, min(len(shapes), 12)):
            b = random_window_b(ctx, *b_window(shape, e), rng)
            variants = [b]
            if j == 0:  # the same b plus a multiple of f^e, of degree past N
                pad = Poly(ctx.field, [rng.randrange(ctx.field.q) for _ in range(fd.params.N)])
                variants.append(b + pad * ctx.modulus)
            for b in variants:
                spec = replace(shape, b=b)
                got = dual_component(spec, j, fd, target)
                assert got == horner_dual_component(spec, j, fd, target), (j, spec)


def test_transport_rings_cover_both_pairings():
    paired = [encoded_fd(*ring).params.lam_self_paired() for ring in TRANSPORT_RINGS]
    assert True in paired and False in paired
    assert {ring[1] for ring in TRANSPORT_RINGS} == {1, 2, 3}


def test_large_e_documents_dualize_quickly(capsys, monkeypatch):
    """At (41,1,2,4,1), e = 1681: the Horner transport took 16-20 s to
    dualize each of these documents and 119-134 s to dualize the result."""
    ring = ["--p", "41", "--s", "2", "--n", "4", "--lambda", "1"]
    assert cli_main(["enumerate", *ring, "--limit", "30"]) == 0
    docs = capsys.readouterr().out.splitlines()
    assert len(docs) == 30
    start = time.perf_counter()
    for i in (10, 20, 29):
        dual_doc = run_dual(capsys, monkeypatch, docs[i])
        assert hashlib.sha256(dual_doc.encode()).hexdigest()[:16] == LARGE_E_DUALS[i]
        assert run_dual(capsys, monkeypatch, dual_doc) == docs[i] + "\n"
    assert time.perf_counter() - start < 10.0


# sha256 prefixes of the dual documents, as the Horner transport wrote them
LARGE_E_DUALS = {10: "518bcefcfdf7df91", 20: "e0146bb2e6d51f6d", 29: "a88fcb0c0f976736"}


def run_dual(capsys, monkeypatch, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert cli_main(["dual"]) == 0
    return capsys.readouterr().out


# -- the transport against the reflection route ---------------------------------


def reference_transport_b(b, j, fd, target):
    """-lambda f_j(0) x^(N - d_j) b(x^(-1)) by the reflection route, for
    any b: each term c x^i lands at x^(N - d_j - i) = lambda^(-q) x^r with
    (q, r) = divmod(N - d_j - i, N), as x^N = lambda^(-1) in the target,
    and the polynomial of length N is reduced once."""
    params = fd.params
    field, N = params.field, params.N
    out = [0] * N
    for i, c in enumerate(b.coeffs):
        q, r = divmod(N - fd.factors[j].degree - i, N)
        out[r] = field.add(out[r], field.mul(c, field.pow(params.lam, -q)))
    scal = field.neg(field.mul(params.lam, fd.factors[j](0)))
    return target.reduce(Poly(field, out).scale(scal))


# p in {2, 3, 5, 7}, m in {1, 2}, lambda of order 1, 2 and more, n = 1
# included, and factors with n >= 3 d (the unit route) and n < 3 d
UNIT_RINGS = [
    (2, 1, 1, 7, 1),
    (2, 1, 2, 1, 1),
    (2, 2, 1, 3, [0, 1]),
    (2, 2, 2, 5, [1, 0]),
    (3, 1, 1, 4, 2),
    (3, 1, 2, 8, 1),
    (3, 2, 1, 8, [0, 1]),
    (3, 2, 1, 1, [0, 1]),
    (5, 1, 1, 6, 4),
    (5, 1, 1, 1, 3),
    (5, 1, 2, 3, 1),
    (5, 2, 1, 3, [0, 1]),
    (7, 1, 1, 48, 6),
    (7, 1, 1, 3, 2),
    (7, 1, 1, 1, 3),
    (7, 2, 1, 4, [0, 1]),
]


def lam_order(params):
    field, lam, k = params.field, params.lam, 1
    while field.pow(lam, k) != 1:
        k += 1
    return k


def test_unit_rings_cover_the_dispatch():
    rings = [encoded_fd(*ring) for ring in UNIT_RINGS]
    assert {(fd.params.p, fd.params.m) for fd in rings} == {(p, m) for p in (2, 3, 5, 7) for m in (1, 2)}
    assert {min(lam_order(fd.params), 3) for fd in rings} == {1, 2, 3}
    assert any(fd.params.n == 1 for fd in rings)
    cut = dual_module._UNIT_CUTOFF
    degrees = [(fd.params.n, f.degree) for fd in rings for f in fd.factors]
    assert any(n >= cut * d for n, d in degrees) and any(n < cut * d for n, d in degrees)


@st.composite
def transport_case(draw):
    """A ring, a factor j of it and a b: of degree < d_j e, or a parsed
    b of any degree up to 2N + 2."""
    fd = encoded_fd(*draw(st.sampled_from(UNIT_RINGS)))
    j = draw(st.integers(0, fd.r - 1))
    params = fd.params
    size = fd.factors[j].degree * params.e
    length = draw(st.one_of(st.integers(0, size), st.integers(size + 1, 2 * params.N + 3)))
    coeffs = draw(st.lists(st.integers(0, params.field.q - 1), min_size=length, max_size=length))
    return fd, j, Poly(params.field, coeffs)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=transport_case())
def test_transport_is_the_reflection_route(case):
    fd, j, b = case
    target = dual_factor_data(fd).chain(j)
    assert _transport_b(b, j, fd, target) == reference_transport_b(b, j, fd, target)
    # a tau-fixed or paired factor's self-dual target is the same ring
    if fd.tau is not None:
        same = fd.chain(fd.tau[j])
        assert _transport_b(b, j, fd, same) == reference_transport_b(b, j, fd, same)
