import random

import pytest

from ccring.cli import main as cli_main
from ccring.errors import BadModulus, NotPrime, ReducibleModulus
from ccring.gf import FieldCtx, field_new, ps_root


def test_prime_field_arithmetic():
    F = field_new(7, 1)
    assert F.q == 7
    assert F.add(3, 5) == 1
    assert F.sub(2, 5) == 4
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(0) == 0
    assert F.pow(3, 6) == 1


def test_f4_multiplication_table():
    # F_4 = F_2[g]/(g^2 + g + 1); elements encoded 0,1,2,3 with g = 2
    F = field_new(2, 2)
    g = 2
    assert F.mul(g, g) == F.add(g, 1)  # g^2 = g + 1
    assert F.mul(g, F.add(g, 1)) == 1  # g * (g+1) = g^2 + g = 1
    assert F.pow(g, 3) == 1


def test_gen_is_root_of_the_modulus():
    for p, m in [(3, 2), (2, 3), (5, 2)]:
        F = field_new(p, m)
        g = F.gen()
        assert F.decode(g) == (0, 1) + (0,) * (m - 2)
        acc = 0
        gp = 1
        for c in F.modulus:
            acc = F.add(acc, F.mul(c % p, gp))
            gp = F.mul(gp, g)
        assert acc == 0
        # powers 1, g, .., g^(m-1) form an F_p-basis: p^m distinct sums
        span = {0}
        for l in range(m):
            base = F.pow(g, l)
            span = {F.add(v, F.mul(c, base)) for v in span for c in range(p)}
        assert len(span) == F.q


def test_encode_decode_roundtrip():
    F = field_new(5, 3)
    rng = random.Random(11)
    for _ in range(50):
        digits = [rng.randrange(5) for _ in range(3)]
        assert list(F.decode(F.encode(digits))) == digits


def test_field_axioms_sampled():
    rng = random.Random(23)
    for p, m in [(2, 3), (3, 2), (13, 1), (7, 2)]:
        F = field_new(p, m)
        for _ in range(40):
            a, b, c = (rng.randrange(F.q) for _ in range(3))
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            if a:
                assert F.mul(a, F.inv(a)) == 1
                assert F.pow(a, F.q - 1) == 1
                assert F.pow(a, -1) == F.inv(a)


def test_custom_modulus_accepted():
    # x^2 + 1 is irreducible over F_3
    F = field_new(3, 2, (1, 0, 1))
    g = 3  # the class of x
    assert F.mul(g, g) == F.neg(1)


def test_validation_errors():
    with pytest.raises(NotPrime):
        field_new(6, 1)
    with pytest.raises(BadModulus):
        field_new(2, 2, (1, 1))  # wrong degree
    with pytest.raises(ReducibleModulus):
        field_new(3, 2, (2, 0, 1))  # x^2 + 2 = (x+1)(x+2)


def test_ps_root_known_values():
    F5 = field_new(5, 1)
    # 5th roots in F_5: z -> z^5 is the identity, so the root of 4 is 4
    assert ps_root(F5, 4, 1) == 4
    assert ps_root(F5, 3, 1) == 3
    F3 = field_new(3, 1)
    # e = 3, q - 1 = 2, 3 = 1 mod 2: again the identity on units
    assert ps_root(F3, 2, 1) == 2


def test_ps_root_is_inverse_of_powering():
    rng = random.Random(5)
    for p, m, s in [(5, 1, 2), (3, 2, 1), (7, 1, 1), (2, 4, 3)]:
        F = field_new(p, m)
        for _ in range(20):
            lam = rng.randrange(1, F.q)
            root = ps_root(F, lam, s)
            assert F.pow(root, p**s) == lam


def test_count_builds_no_field_table(monkeypatch, capsys):
    """ps_root takes its one power without the q-entry exp/log table,
    which at q = 2^16 costs seconds; count needs nothing else from it."""

    def refuse(self):
        raise AssertionError("count built a field table")

    monkeypatch.setattr(FieldCtx, "_build_tables", refuse)
    lam = "[" + ",".join(["1"] + ["0"] * 15) + "]"
    code = cli_main(["count", "--p", "2", "--m", "16", "--s", "1", "--n", "3", "--lambda", lam])
    assert code == 0 and capsys.readouterr().out == "281539406135421\n"


# the lexicographically smallest monic irreducibles, frozen so that a change
# to the modulus search cannot silently change every field's encoding
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (3, 2): (1, 0, 1),
    (5, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (3, 3): (1, 0, 2, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (13, 3): (1, 0, 4, 1),
    (101, 2): (1, 1, 1),
}


@pytest.mark.parametrize("pm", sorted(DEFAULT_MODULI))
def test_default_modulus_frozen(pm):
    assert field_new(*pm).modulus == DEFAULT_MODULI[pm]


# the default moduli of the other fields with m > 1 that tests/ builds,
# computed when the candidates were still drawn from itertools.product
TEST_FIELD_MODULI = {
    (2, 4): (1, 0, 0, 1, 1),
    (2, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (7, 2): (1, 0, 1),
    (11, 2): (1, 0, 1),
    (13, 2): (1, 3, 1),
    (17, 2): (1, 1, 1),
    (17, 3): (1, 0, 3, 1),
    (19, 2): (1, 0, 1),
}


def test_default_moduli_of_the_test_fields_are_unchanged():
    assert {pm: field_new(*pm).modulus for pm in TEST_FIELD_MODULI} == TEST_FIELD_MODULI


def test_modulus_search_over_a_large_p_copies_no_range():
    """The candidates are walked one at a time: copying range(p) whole,
    as itertools.product does, ran out of memory before the first test.
    p = 4294967291 is 3 mod 4, so x^2 + 1 is the first irreducible."""
    assert field_new(4294967291, 2).modulus == (1, 0, 1)


def test_reducible_modulus_with_nonzero_constant_rejected():
    # (x^2 + x + 1)^2: no root over F_2, yet reducible
    with pytest.raises(ReducibleModulus):
        field_new(2, 4, (1, 0, 1, 0, 1))


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5) for m in range(1, 5)])
def test_tables_equal_the_product_walk(p, m):
    """exp/log, walked with no product, are the powers of the least
    generator that repeated _mul_raw gives."""
    F = field_new(p, m)
    F._build_tables()
    q, g = F.q, F._exp[1 % (F.q - 1)]
    assert next(c for c in range(1, q) if F.order(c) == q - 1) == g
    acc = 1
    for i in range(q - 1):
        assert F._exp[i] == F._exp[i + q - 1] == acc and F._log[acc] == i
        acc = F._mul_raw(acc, g)
    assert acc == 1


def test_tables_at_q_2_16_make_no_product_per_element(monkeypatch):
    """The walk used one _mul_raw per element, 65535 at q = 2^16; only
    the generator search multiplies now."""
    F = field_new(2, 16)
    calls = []
    real = FieldCtx._mul_raw
    monkeypatch.setattr(FieldCtx, "_mul_raw", lambda self, a, b: calls.append(1) or real(self, a, b))
    F._build_tables()
    assert len(calls) < 1000
    rng = random.Random(16)
    for _ in range(200):
        a, b = rng.randrange(1, F.q), rng.randrange(1, F.q)
        assert F.mul(a, b) == real(F, a, b)


# -- p = 2 on the encoded bits ---------------------------------------------------


def coord_mul(F, a, b):
    """The product through coordinate lists: a schoolbook product of the
    coordinate polynomials reduced by the modulus, as F_(p^m) multiplied
    before p = 2 took the bitset route."""
    p, m = F.p, F.m
    av, bv = F.decode(a), F.decode(b)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(av):
        if ai:
            for j, bj in enumerate(bv):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(m):
                prod[i - m + j] = (prod[i - m + j] - c * F.modulus[j]) % p
    return F.encode(prod[:m])


def coord_pow(F, a, e):
    out = 1
    while e:
        if e & 1:
            out = coord_mul(F, out, a)
        a = coord_mul(F, a, a)
        e >>= 1
    return out


# x^8 + x^4 + x^3 + x + 1, not the default modulus of F_256
BINARY_FIELDS = [(m, None) for m in (2, 3, 8, 17, 24, 61)] + [(8, (1, 1, 0, 1, 1, 0, 0, 0, 1))]


@pytest.mark.parametrize("m, modulus", BINARY_FIELDS)
def test_binary_field_arithmetic_equals_the_coordinate_route(m, modulus):
    F = field_new(2, m, modulus)
    if modulus is not None:
        assert F.modulus == modulus != field_new(2, m).modulus
    rng = random.Random(m)
    picks = [0, 1, F.q - 1] + [rng.randrange(F.q) for _ in range(60)]
    for a in picks:
        assert F.neg(a) == a == F.encode([-c for c in F.decode(a)])
        for b in picks[:12]:
            assert F.add(a, b) == F.sub(a, b) == F.encode([x + y for x, y in zip(F.decode(a), F.decode(b))])
            assert F.mul(a, b) == F._mul_raw(a, b) == coord_mul(F, a, b)
    for a in picks[:8]:
        for e in (0, 1, 2, 3, 7, F.q - 2, F.q - 1, F.q, rng.randrange(F.q)):
            assert F.pow(a, e) == coord_pow(F, a, e)
        if a:
            assert F.mul(F.inv(a), a) == 1 and F.pow(a, -5) == coord_pow(F, F.inv(a), 5)


def test_powers_of_one_and_zero_make_no_product(monkeypatch):
    F = field_new(2, 61)
    calls = []
    monkeypatch.setattr(FieldCtx, "_mul_raw", lambda self, a, b: calls.append(1))
    assert [F.pow(1, e) for e in (0, 1, 5, F.q - 2, F.q + 3)] == [1] * 5
    assert [F.pow(0, e) for e in (0, 1, F.q - 2)] == [1, 0, 0]
    assert not calls
