"""Set-up that follows the question: twisted idempotents, written
from their length-n roots, lazy f^k, degree-only counts from cyclotomic
cosets, the binomial power map and lazy residue sets, each against a
route that does not share its shortcut."""

import hashlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ccring import cli, decomp, poly
from ccring.chain import ChainCtx
from ccring.cli import main
from ccring.decomp import AmbientParams, build_factor_data, factor_degrees, root_binomial
from ccring.gf import field_new
from ccring.ideals import count_codes, count_codes_by_degree
from ccring.poly import (
    Poly,
    _power_map,
    factor_squarefree,
    frobenius,
    is_irreducible,
    poly_gcd,
    poly_modpow,
    poly_xgcd,
)

TWIST_RINGS = [
    (5, 1, 1, 6, 4),
    (5, 1, 2, 6, 4),
    (3, 2, 1, 8, 1),
    (2, 3, 2, 7, 1),
    (7, 1, 1, 48, 6),
    (2, 2, 3, 5, 2),
    (3, 2, 2, 4, 5),
]


def power_by_products(f: Poly, k: int) -> Poly:
    out = Poly.one(f.ctx)
    for _ in range(k):
        out = out * f
    return out


@pytest.mark.parametrize("ring", TWIST_RINGS)
def test_twisted_idempotents_equal_modpow_definition(ring):
    """eps_j = (v_j F_j)^(p^s) mod (x^N - lambda), computed by poly_modpow."""
    params = AmbientParams.of_ints(*ring)
    fd = build_factor_data(params)
    field = params.field
    base = root_binomial(params)
    binomial = Poly(field, (field.neg(params.lam),) + (0,) * (params.N - 1) + (1,))
    for j, f in enumerate(fd.factors):
        cof = base // f
        _, v, _ = poly_xgcd(cof, f)
        assert fd.idempotents[j] == poly_modpow(v * cof, params.e, binomial)
        assert fd.chain(j).modulus == power_by_products(f, params.e)


def test_frobenius_is_the_pth_power():
    rng = random.Random(3)
    for p, m in ((2, 1), (3, 1), (2, 3), (3, 2), (5, 2)):
        field = field_new(p, m)
        for _ in range(5):
            a = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 7))])
            assert frobenius(a) == power_by_products(a, p)
            assert frobenius(a, 2) == power_by_products(a, p * p)


def degree_sweep():
    rng = random.Random(11)
    rings = []
    for p, m in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)):
        field = field_new(p, m)
        for s in (1, 2):
            for n in (k for k in range(1, 16) if k % p):
                lams = sorted({1, field.q - 1, rng.randrange(1, field.q)})
                rings.extend((p, m, s, n, lam) for lam in lams)
    return rings


def test_ddf_degrees_and_count_match_full_factorization():
    sweep = degree_sweep()
    assert any(r[1] == 3 for r in sweep) and any(r[1] == 2 for r in sweep)
    seen_other_lambda = False
    for ring in sweep:
        params = AmbientParams.of_ints(*ring)
        base = root_binomial(params)
        full = sorted(f.degree for f in factor_squarefree(base))
        degrees = factor_degrees(params)
        assert degrees == full, ring
        if params.lam not in (1, params.field.neg(1)):
            seen_other_lambda = True
        if params.e <= 9:
            fd = build_factor_data(params)
            assert count_codes_by_degree(params, degrees) == count_codes(fd), ring
    assert seen_other_lambda


@st.composite
def binomial_rings(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    m = draw(st.integers(1, 3))
    s = draw(st.integers(1, 2))
    n = draw(st.integers(1, 60).filter(lambda k: k % p))
    lam = draw(st.integers(1, p**m - 1))
    return p, m, s, n, lam


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ring=binomial_rings())
def test_coset_degrees_match_the_factors(ring):
    """The integer-only coset sizes against the polynomial factorization,
    which never reads them: same degrees, irreducible factors, and their
    product is x^n - lambda0."""
    params = AmbientParams.of_ints(*ring)
    base = root_binomial(params)
    factors = factor_squarefree(base)
    assert factor_degrees(params) == [f.degree for f in factors]
    prod = Poly.one(params.field)
    for f in factors:
        assert f.is_monic() and is_irreducible(f)
        prod = prod * f
    assert prod == base


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (13, 1), (2, 3), (3, 2), (5, 2)])
def test_binomial_power_map_is_modpow(p, m):
    rng = random.Random(p * 10 + m)
    field = field_new(p, m)
    for _ in range(6):
        n = rng.choice([k for k in range(2, 40) if k % p])
        c = rng.randrange(1, field.q)
        f = Poly(field, (field.neg(c),) + (0,) * (n - 1) + (1,))
        power = _power_map(field, n, c)
        for k in range(2 * m + 2):
            a = Poly(field, [rng.randrange(field.q) for _ in range(n)])
            assert power(a, k) == poly_modpow(a, p**k, f), (n, c, k)


def ddf_every_degree(f: Poly) -> list:
    """Distinct-degree parts of a monic squarefree f, one gcd for every
    d up to half of what is left: the loop any non-binomial f takes."""
    x, q = Poly.x(f.ctx), f.ctx.q
    parts, rem, h, d = [], f, x, 0
    while 2 * (d + 1) <= rem.degree:
        d += 1
        h = poly_modpow(h, q, rem)
        g = poly_gcd(h - x, rem)
        if g.degree > 0:
            parts.append((d, g))
            rem = rem // g
    return parts + [(rem.degree, rem)] if rem.degree > 0 else parts


def test_binomial_ddf_matches_the_every_degree_loop():
    """_ddf_binomial takes a binomial's degrees from its cyclotomic cosets
    and runs one gcd per distinct degree but the largest; its parts are
    those of the loop over every degree, except that the largest
    degree's part may hold several factors."""
    for ring in [(3, 1, 2, 127, 2)] + degree_sweep()[::7]:
        params = AmbientParams.of_ints(*ring)
        lam0, base = params.lam0, root_binomial(params)
        *head, (top, rest) = poly._ddf_binomial(base, lam0)
        want = ddf_every_degree(base)
        assert head == want[: len(head)], ring
        prod = Poly.one(params.field)
        for d, part in want[len(head):]:
            assert d == top, ring
            prod = prod * part
        assert prod == rest, ring


def test_binomial_ddf_runs_one_gcd_per_distinct_degree_but_the_largest(monkeypatch):
    params = AmbientParams.of_ints(3, 1, 2, 127, 2)  # x - lambda0 and one of degree 126
    lam0, base = params.lam0, root_binomial(params)
    assert factor_degrees(params) == [1, 126]
    calls = []
    real = poly.poly_gcd
    monkeypatch.setattr(poly, "poly_gcd", lambda a, b: calls.append(1) or real(a, b))
    parts = poly._ddf_binomial(base, lam0)
    assert len(calls) == 1  # the every-degree loop runs 63
    assert [(d, part.degree) for d, part in parts] == [(1, 1), (126, 126)]


# lambda = x in F_(2^m); its order, and so that of lambda0, can reach
# q - 1, and 2^61 - 1 is prime.  The counts are as printed when the
# degrees came from distinct-degree factorization.
LARGE_FIELD_COUNTS = [
    (24, 3, "4722366482869645213701"),
    (32, 7, "26959946698536148471600418909601401462846269263399312657526036627581"),
    (61, 3, "12259964326927110893451336132900790938555269229144178713"),
]


@pytest.mark.parametrize("m,n,want", LARGE_FIELD_COUNTS)
def test_factor_degrees_cost_does_not_grow_with_the_field(m, n, want):
    lam = "[" + ",".join(["0", "1"] + ["0"] * (m - 2)) + "]"
    argv = ["count", "--p", "2", "--m", str(m), "--s", "1", "--n", str(n), "--lambda", lam]
    # a subprocess, so factoring q - 1 by trial division fails by the timeout, not by a hang
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-m", "ccring.cli", *argv], env=env, capture_output=True, timeout=30)
    assert (done.returncode, done.stdout.decode().strip(), done.stderr) == (0, want, b"")
    params = AmbientParams.of_ints(2, m, 1, n, 2)
    tracemalloc.start()
    try:
        degrees = factor_degrees(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a table over Z/(n t) would take n * ord(lambda0) bytes
    assert peak < 1 << 16
    assert degrees == [f.degree for f in factor_squarefree(root_binomial(params))]


def test_count_makes_no_polynomial_product_or_division(capsys, monkeypatch):
    calls = []
    mul, divmod_ = Poly.__mul__, Poly.__divmod__

    def counted_mul(a, b):
        calls.append("mul")
        return mul(a, b)

    def counted_divmod(a, b):
        calls.append("divmod")
        return divmod_(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(Poly, "__divmod__", counted_divmod)
    out = cli_out(capsys, monkeypatch, ["count", "--p", "3", "--s", "1", "--n", "87380", "--lambda", "2"])
    assert calls == []
    # as printed when the degrees came from distinct-degree factorization
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "cb2aed866ed6e531"


def test_f_pows_builds_only_what_is_read():
    F2 = field_new(2, 1)
    ctx = ChainCtx(Poly(F2, (1, 1)), 4096)
    assert len(ctx.f_pows) == 4097
    # a new context has built no power, the modulus f^4096 included
    assert ctx.f_pows._built == {}
    # reducing an element of degree < d e reads no modulus
    assert ctx.reduce(Poly(F2, (1,) * 4096)) == Poly(F2, (1,) * 4096)
    assert ctx.f_pows._built == {}
    assert ctx.modulus is ctx.f_pows[4096]
    assert sorted(ctx.f_pows._built) == [4096]
    assert ctx.f_pows[3] == Poly(F2, (1, 1, 1, 1))
    # (x + 1)^(2^12 - 1) = (x^4096 + 1) / (x + 1) = 1 + x + ... + x^4095
    assert ctx.f_pows[4095] == Poly(F2, (1,) * 4096)
    assert ctx.f_pows[3] is ctx.f_pows[3]
    assert sorted(ctx.f_pows._built) == [3, 4095, 4096]
    assert ctx.modulus == Poly(F2, (1,) + (0,) * 4095 + (1,))
    with pytest.raises(IndexError):
        ctx.f_pows[4097]


@pytest.mark.parametrize("ring", [(2, 1, 12, 7, 1), (5, 1, 1, 6, 4), (3, 2, 1, 8, [0, 1]), (2, 3, 2, 7, [1, 0, 0])])
def test_info_document_builds_no_power_of_f(ring):
    """info reads no chain ring, so no context builds its modulus f^(p^s)."""
    p, m, s, n, lam = ring
    field = field_new(p, m)
    fd = build_factor_data(AmbientParams(field, s, n, field.encode(lam) if m > 1 else lam))
    assert cli.factor_data_json(fd).startswith("{")
    assert len(fd.chain_ctxs) == fd.r
    assert all(ctx.f_pows._built == {} for ctx in fd.chain_ctxs)


@pytest.mark.parametrize("p,m,coeffs,e", [(3, 1, (2, 0, 1), 9), (3, 1, (1, 1), 5), (2, 2, (2, 1, 1), 8), (5, 1, (2, 1), 3)])
def test_f_pows_equal_repeated_products(p, m, coeffs, e):
    f = Poly(field_new(p, m), coeffs)
    ctx = ChainCtx(f, e)
    assert list(ctx.f_pows) == [power_by_products(f, k) for k in range(e + 1)]
    assert ctx.f_pows[-1] == ctx.modulus == power_by_products(f, e)


def eager_residue_set(ctx: ChainCtx, a: int, b: int) -> list:
    """The odometer written out: counter digits, position a fastest."""
    digits = list(ctx.digit_polys())
    radix = len(digits)
    out = []
    for counter in range(radix ** (b - a)):
        z = Poly.zero(ctx.field)
        for k in range(b - a):
            z = z + power_by_products(ctx.f, a + k) * digits[counter // radix**k % radix]
        out.append(z)
    return out


def test_residue_set_order_unchanged():
    cases = [(5, 1, (2, 1), 4), (3, 1, (1, 0, 1), 3), (2, 2, (2, 1), 4)]
    for p, m, coeffs, e in cases:
        ctx = ChainCtx(Poly(field_new(p, m), coeffs), e)
        for a in range(e + 1):
            for b in range(a, e + 1):
                if ctx.field.q ** (ctx.d * (b - a)) <= 4096:
                    assert list(ctx.residue_set(a, b)) == eager_residue_set(ctx, a, b)


def test_residue_set_first_element_is_cheap(monkeypatch):
    params = AmbientParams.of_ints(3, 1, 1, 242, 2)
    base = root_binomial(params)
    f = next(g for g in factor_squarefree(base) if g.degree == 10)
    ctx = ChainCtx(f, params.e)
    assert ctx.field.q ** (ctx.d * (2 - 1)) == 3**10  # the size of window [1, 2)
    built = []
    digit_polys = ChainCtx.digit_polys

    def counted(self):
        for dg in digit_polys(self):
            built.append(dg)
            yield dg

    monkeypatch.setattr(ChainCtx, "digit_polys", counted)
    stream = ctx.residue_set(1, 2)
    assert next(stream).is_zero()
    assert next(stream) == f
    assert len(built) <= 3


def test_wide_residue_window_streams():
    F2 = field_new(2, 1)
    ctx = ChainCtx(Poly(F2, (1, 1)), 4096)
    stream = ctx.residue_set(1, 4096)
    firsts = [next(stream) for _ in range(4)]
    f = ctx.f
    assert firsts == [Poly.zero(F2), f, f * f, f + f * f]
    # the digits read f^1 and f^2; the modulus f^4096 is never read
    assert sorted(ctx.f_pows._built) == [1, 2]


# -- idempotents on first read -------------------------------------------------


@pytest.fixture
def xgcd_calls(monkeypatch):
    """Counts poly_xgcd calls through every ccring module that binds it."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return poly_xgcd(a, b)

    for name, mod in list(sys.modules.items()):
        if name.startswith("ccring") and getattr(mod, "poly_xgcd", None) is poly_xgcd:
            monkeypatch.setattr(mod, "poly_xgcd", counted)
    return calls


def cli_out(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == 0
    return capsys.readouterr().out


RING_ARGS = ["--p", "5", "--s", "1", "--n", "6", "--lambda", "-1"]


def test_dual_and_enumerate_run_no_xgcd(capsys, monkeypatch, xgcd_calls):
    docs = cli_out(capsys, monkeypatch, ["enumerate", *RING_ARGS, "--limit", "5"])
    assert len(docs.splitlines()) == 5
    assert xgcd_calls == []
    duals = cli_out(capsys, monkeypatch, ["dual"], docs)
    assert cli_out(capsys, monkeypatch, ["dual"], duals) == docs
    assert xgcd_calls == []
    cli_out(capsys, monkeypatch, ["selfdual", "--p", "5", "--s", "1", "--n", "6", "--limit", "5"])
    assert xgcd_calls == []


# criterion 05's frozen idempotents of (5,1,1,6,4), as {degree: coefficient}
IDEMPOTENTS_30 = [
    {0: 1, 5: 2, 10: 4, 15: 3, 20: 1, 25: 2},
    {0: 2, 5: 2, 10: 1, 15: 4, 20: 4, 25: 2},
    {0: 1, 5: 3, 10: 4, 15: 2, 20: 1, 25: 3},
    {0: 2, 5: 3, 10: 1, 15: 1, 20: 4, 25: 3},
]


@pytest.fixture
def idempotent_builds(monkeypatch):
    """Counts builds of a ring's idempotents."""
    builds = []
    real = decomp._idempotents

    def counted(params, *args):
        builds.append(params)
        return real(params, *args)

    monkeypatch.setattr(decomp, "_idempotents", counted)
    return builds


def test_idempotents_built_on_first_read(idempotent_builds, xgcd_calls):
    fd = build_factor_data(AmbientParams.of_ints(5, 1, 1, 6, 4))
    assert idempotent_builds == []
    eps = fd.idempotents
    assert len(idempotent_builds) == 1 and len(eps) == fd.r == 4
    assert fd.idempotents is eps
    assert len(idempotent_builds) == 1
    assert xgcd_calls == []  # inverses from x f'(x), not from a gcd
    # criterion 05's frozen vectors, read after the factor data was built
    for e, table in zip(eps, IDEMPOTENTS_30):
        coeffs = [0] * 26
        for i, c in table.items():
            coeffs[i] = c
        assert e == Poly(fd.params.field, coeffs)


def test_root_idempotents_built_on_every_read(idempotent_builds):
    """No command reads the w_j twice, so a ring keeps only their twists."""
    fd = build_factor_data(AmbientParams.of_ints(5, 1, 1, 6, 4))
    first, second = fd.root_idempotents, fd.root_idempotents
    assert first == second and first is not second and len(idempotent_builds) == 2
    eps = fd.idempotents
    assert fd.idempotents is eps and len(idempotent_builds) == 3


# p^s-th roots of lambda each command takes: one per step that reads
# lambda0 (the coset degrees, the factoring, the info document, the
# idempotents), none for a ring the memo set up or a derived factor list
LAM0_ROOTS = {
    "count": (["count", *RING_ARGS], 1),
    "info": (["info", *RING_ARGS], 3),
    "idempotents": (["idempotents", *RING_ARGS], 2),
    "enumerate": (["enumerate", *RING_ARGS, "--limit", "3"], 1),
    "selfdual": (["selfdual", *RING_ARGS[:-2], "--nu", "-1", "--limit", "3"], 1),
    "dual": (["dual"], 2),  # the document's ring, checked, and its dual ring
}


@pytest.mark.parametrize("name", sorted(LAM0_ROOTS))
def test_each_command_takes_lambda0_once_per_reader(capsys, monkeypatch, name):
    doc = cli_out(capsys, monkeypatch, ["enumerate", *RING_ARGS, "--limit", "1"])
    decomp.clear_memo()
    roots = []
    real = decomp.ps_root
    monkeypatch.setattr(decomp, "ps_root", lambda *args: roots.append(args) or real(*args))
    argv, want = LAM0_ROOTS[name]
    assert cli_out(capsys, monkeypatch, argv, doc)
    assert len(roots) == want


# sha256 prefixes of info and idempotents output, as written when the
# idempotents were built with the factor data
FROZEN_OUTPUTS = {
    ("info", "5,1,1,6,4"): "7aa71fa2ccf1bf6a",
    ("idempotents", "5,1,1,6,4"): "98fd1d71969cc348",
    ("info", "3,2,1,8,[0,1]"): "5a36e739df9cb510",
    ("idempotents", "3,2,1,8,[0,1]"): "d2a6820a05f2daa5",
    ("info", "2,3,2,7,[1,0,0]"): "a56a4136a9f9f639",
    ("idempotents", "2,3,2,7,[1,0,0]"): "dce1a5918c5f4370",
}


@pytest.mark.parametrize("cmd,ring", sorted(FROZEN_OUTPUTS))
def test_info_and_idempotents_unchanged(capsys, monkeypatch, cmd, ring):
    p, m, s, n, lam = ring.split(",", 4)
    argv = [cmd, "--p", p, "--m", m, "--s", s, "--n", n, "--lambda", lam]
    out = cli_out(capsys, monkeypatch, argv)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == FROZEN_OUTPUTS[cmd, ring]


# -- idempotents written from their roots ----------------------------------------


def reference_idempotents_text(fd) -> str:
    """The idempotents' text as the twisted list through json: the
    writer that idempotents_json replaced."""
    field = fd.params.field
    return cli._dumps([cli.poly_json(field, e) for e in fd.idempotents])


def writer_rings(p: int, m: int, s: int):
    """n = 1 and one longer n prime to p, each with lambda = 1 and with
    a lambda outside {1, -1} where the field has one (the generator
    x of F_q over F_p when m > 1, else 2)."""
    n = next(k for k in (6, 5, 4) if k % p)
    other = p if m > 1 else 2
    lams = (1, other) if other < p ** m else (1,)
    return [(p, m, s, k, lam) for k in (1, n) for lam in lams]


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_idempotents_text_is_the_twisted_lists_json(p, m, s):
    rings = writer_rings(p, m, s)
    assert any(r[3] == 1 for r in rings)
    if p ** m > 3:
        assert any(r[4] not in (1, p ** m - 1) for r in rings)
    for ring in rings:
        params = AmbientParams.of_ints(*ring)
        fd = build_factor_data(params)
        assert all(w.degree < params.n for w in fd.root_idempotents), ring
        text = cli.idempotents_json(fd)
        assert text == reference_idempotents_text(fd), ring
        doc = cli.factor_data_json(fd)
        assert f',"idempotents":{text},"total":' in doc, ring


def test_info_never_builds_the_twisted_list(capsys, monkeypatch):
    def refuse(fd):
        raise AssertionError("the twisted idempotents were built")

    monkeypatch.setattr(decomp.FactorData, "idempotents", property(refuse))
    monkeypatch.setattr(decomp, "frobenius", refuse)
    for ring in ("2,1,12,7,1", "5,1,1,6,4", "3,2,1,8,[0,1]", "2,3,2,7,[1,0,0]"):
        p, m, s, n, lam = ring.split(",", 4)
        for cmd in ("info", "idempotents"):
            argv = [cmd, "--p", p, "--m", m, "--s", s, "--n", n, "--lambda", lam]
            assert cli_out(capsys, monkeypatch, argv).startswith(("{", "[["))
