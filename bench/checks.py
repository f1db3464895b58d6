"""Output checks, run outside the timed region of each op.

Counts are checked against an independent route: factor degrees come
from cyclotomic cosets in plain integers (inputs.factor_degrees), and
the per-factor count from the five-case sum form, not the closed form
ccring prints from.  Decimal outputs are compared by length and by
residues modulo a few primes computed digit by digit, so the check
never converts a long count to a string and never needs the
interpreter's int-to-string limit raised.

Each check returns None when the output is right, else a message.
"""

from __future__ import annotations

import json
from functools import lru_cache

import inputs
from ccring.ideals import count_ideals_sumform_params

PRIMES = (1_000_000_007, 998_244_353, (1 << 61) - 1)

# frozen values of the acceptance gate (tests/test_acceptance.py)
FROZEN_COUNTS = {
    (5, 1, 1, 6, 4): 62190883161,
    (5, 1, 1, 4, 3): 1176261,
    (13, 1, 1, 4, 2): 1628535353189467891702213785,
    (13, 1, 1, 4, 1): 92300403860395414742363374161,
    (13, 1, 1, 4, 4): 5022317475223730190748850625,
    (19, 1, 1, 4, 2): 98853624946129979125010756140470464728908752100,
    (19, 1, 1, 4, 4): 378733991979096789784301581334490215632932864000,
}
FROZEN_SELF_DUAL = {(5, 1, 1, 6, -1): 249381}

# the sum form has e^2/2 terms; past this chain length use its O(e)
# regrouping (pinned equal to count_ideals_sumform_params by the tests)
SUMFORM_MAX_E = 128


@lru_cache(maxsize=None)
def ideals_per_factor(p: int, m: int, d: int, s: int) -> int:
    e = p ** s
    if e <= SUMFORM_MAX_E:
        return count_ideals_sumform_params(p, m, d, s)
    return sumform_regrouped(p, m, d, s)


def sumform_regrouped(p: int, m: int, d: int, s: int) -> int:
    """The five-case sum with terms of equal exponent collected.

    Cases I and II give the sum over w = 1..e of p^(floor(w/2) md), cases
    IV and V the sum over t = 1..e-1 of (e - t) p^(floor(t/2) md), and
    case III adds e + 1.
    """
    e, md = p ** s, m * d
    total = 1 + e
    for w in range(1, e + 1):
        total += p ** ((w // 2) * md)
    for t in range(1, e):
        total += (e - t) * p ** ((t // 2) * md)
    return total


def expected_total(ring, degrees) -> int:
    p, m, s, _, _ = ring
    total = 1
    for d in degrees:
        total *= ideals_per_factor(p, m, d, s)
    return total


def decimal_digits(value: int) -> int:
    k = max(1, int(value.bit_length() * 0.30102999566398120))
    while 10 ** k <= value:
        k += 1
    while k > 1 and 10 ** (k - 1) > value:
        k -= 1
    return k


def residues_of_text(text: str) -> tuple[int, ...]:
    out = []
    for prime in PRIMES:
        r = 0
        for i in range(0, len(text), 9):
            chunk = text[i : i + 9]
            r = (r * 10 ** len(chunk) + int(chunk)) % prime
        out.append(r)
    return tuple(out)


def check_decimal(text: str, value: int, what: str):
    text = text.strip()
    if not text.isdigit() or (len(text) > 1 and text[0] == "0"):
        return f"{what}: not a decimal: {text[:40]!r}"
    if len(text) != decimal_digits(value):
        return f"{what}: {len(text)} digits, want {decimal_digits(value)}"
    if residues_of_text(text) != tuple(value % prime for prime in PRIMES):
        return f"{what}: residues differ from the independent count"
    return None


def _params_echo(doc, ring):
    p, m, s, n, _ = ring
    got = (doc.get("p"), doc.get("m"), doc.get("s"), doc.get("n"))
    return None if got == (p, m, s, n) else f"params echo {got} != {(p, m, s, n)}"


# -- count_info ---------------------------------------------------------------


def _frozen(table: dict, ring):
    return table.get(tuple(ring)) if all(isinstance(x, int) for x in ring) else None


def check_count(ring, shape, out: str):
    want = expected_total(ring, shape["degrees"])
    frozen = _frozen(FROZEN_COUNTS, ring)
    if frozen is not None and frozen != want:
        return "frozen count disagrees with the independent route"
    return check_decimal(out, want, "count")


def check_info(ring, shape, out: str):
    p, m, s, _, _ = ring
    doc = json.loads(out)
    bad = _params_echo(doc["params"], ring)
    if bad:
        return bad
    factors = doc["factors"]
    if sorted(f["degree"] for f in factors) != shape["degrees"]:
        return "factor degrees differ from the cyclotomic cosets"
    for f in factors:
        if len(f["poly"]) != f["degree"] + 1:
            return "factor polynomial length does not match its degree"
        bad = check_decimal(f["count"], ideals_per_factor(p, m, f["degree"], s), "factor count")
        if bad:
            return bad
    if len(doc["idempotents"]) != shape["r"]:
        return "one idempotent per factor expected"
    return check_decimal(doc["total"], expected_total(ring, shape["degrees"]), "total")


# -- code documents -------------------------------------------------------------


def spec_size_exponent(spec, e: int) -> int:
    """log_{q^d} of the ideal size, from the case table."""
    case = spec["case"]
    if case == "I":
        return e
    if case == "II":
        return e - spec["k"]
    if case == "III":
        return 2 * (e - spec["k"])
    if case == "IV":
        return 2 * e - spec["t"]
    return 2 * e - 2 * spec["k"] - spec["t"]


def code_size(doc) -> int:
    params = doc["params"]
    q, e = params["p"] ** params["m"], params["p"] ** params["s"]
    size = 1
    for factor, spec in zip(doc["factors"], doc["components"]):
        size *= (q ** (len(factor) - 1)) ** spec_size_exponent(spec, e)
    return size


def check_code_doc(ring, shape, line: str):
    doc = json.loads(line)
    bad = _params_echo(doc["params"], ring)
    if bad:
        return bad
    if len(doc["factors"]) != shape["r"] or len(doc["components"]) != shape["r"]:
        return "one component per factor expected"
    if sorted(len(f) - 1 for f in doc["factors"]) != shape["degrees"]:
        return "factor degrees differ from the cyclotomic cosets"
    return check_decimal(doc["size"], code_size(doc), "size")


def check_enumerate(ring, shape, out: str, limit: int):
    lines = out.splitlines()
    want = min(limit, expected_total(ring, shape["degrees"]))
    if len(lines) != want:
        return f"{len(lines)} documents, want {want}"
    for line in lines:
        bad = check_code_doc(ring, shape, line)
        if bad:
            return bad
    return None


def check_dual(src: str, out: str, ring_size: int, factors_from_dual=False):
    """One dual: the size product |C| |C^perp| = |R|^N.

    A source document without factors (and so without a size the
    benchmark could trust) takes its factor degrees from the dual's
    factors, which are the reciprocals in the same order.
    """
    a, b = json.loads(src), json.loads(out)
    size = code_size(dict(a, factors=b["factors"])) if factors_from_dual else int(a["size"])
    if size * int(b["size"]) != ring_size:
        return "size product differs from |R|^N"
    if code_size(b) != int(b["size"]):
        return "dual size differs from its own components"
    return None


def check_dual_stream(src: str, out: str, ring_size: int):
    """dual on an NDJSON stream: one dual per input line, in order."""
    lines, duals = src.splitlines(), out.splitlines()
    if len(duals) != len(lines):
        return f"{len(duals)} duals for {len(lines)} documents"
    for line, dual in zip(lines, duals):
        bad = check_dual(line, dual, ring_size)
        if bad:
            return bad
    return None


def ring_size(ring) -> int:
    p, m, s, n, _ = ring
    return p ** (2 * m * n * p ** s)


# -- selfdual ---------------------------------------------------------------------


def check_selfdual_stream(ring, shape, out: str, count: int, limit: int):
    """Each emitted code has |C| = |R|^(N/2) = q^N, and no more than count."""
    lines = out.splitlines()
    if len(lines) != min(limit, count):
        return f"{len(lines)} self-dual codes, want min({limit}, {count})"
    p, m, s, n, _ = ring
    for line in lines:
        doc = json.loads(line)
        if int(doc["size"]) != p ** (m * n * p ** s):
            return "self-dual code of the wrong size"
        if code_size(doc) != int(doc["size"]):
            return "size differs from the components"
    return None


@lru_cache(maxsize=None)
def oracle_self_dual_count(ring) -> int:
    """Fixed points of the kernel dual over every code (small rings only)."""
    from ccring.decomp import AmbientParams, build_factor_data
    from ccring.ideals import enumerate_codes
    from ccring.oracle import brute_dual, code_space

    p, m, s, n, nu = ring
    params = AmbientParams.of_ints(p, m, s, n, nu % p)
    fd = build_factor_data(params)
    fixed = 0
    for code in enumerate_codes(fd):
        space = code_space(code)
        if brute_dual(space, params) == space:
            fixed += 1
    return fixed


# rings whose full code list is small enough for the oracle cross-check
ORACLE_CHECKED = 200


def check_selfdual_count(ring, shape, out: str):
    text = out.strip()
    if not text.isdigit():
        return f"not a decimal: {text[:40]!r}"
    got = int(text)
    frozen = _frozen(FROZEN_SELF_DUAL, ring)
    if frozen is not None and got != frozen:
        return f"self-dual count {got} != frozen {frozen}"
    if expected_total(ring, shape["degrees"]) <= ORACLE_CHECKED:
        want = oracle_self_dual_count(tuple(ring))
        if got != want:
            return f"self-dual count {got} != {want} oracle fixed points"
    return None


# -- oracle ---------------------------------------------------------------------------


def submodule_count(p: int, m: int, d: int, s: int) -> int:
    """K-submodules of K^2 for a chain ring with residue field of size q^d."""
    q, e = p ** (m * d), p ** s
    return sum((2 * j + 1) * q ** (e - j) for j in range(e + 1))
