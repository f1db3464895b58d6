import functools
import gc
import io
import json
import os
import select
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from itertools import chain
from pathlib import Path

import pytest

import ccring
import ccring.decomp
from ccring import cli, gf
from ccring.cli import code_json, main, parse_code
from ccring.decomp import MAX_LENGTH, AmbientParams, build_factor_data, factor_data
from ccring.dual import dual_code, dual_code_nu, dual_component
from ccring.errors import CcringError, TooLarge
from ccring.ideals import CASES, enumerate_codes, validate_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err



def test_info_leaves_no_reference_cycle(capsys):
    """A factorization frees its field, its PRNG and its power map when it
    returns, so after info the cyclic collector finds nothing to free."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for p, m, s, n, lam in ((11, 1, 1, 80, 1), (2, 1, 1, 63, 1)):
            code, out, _ = run(capsys, "info", "--p", str(p), "--m", str(m), "--s", str(s), "--n", str(n), "--lambda", str(lam))
            assert code == 0 and out
            gc.collect()
            assert gc.garbage == [], (p, n)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()

def test_count_anchors(capsys):
    code, out, _ = run(capsys, "count", "--p", "5", "--s", "1", "--n", "6", "--lambda", "-1")
    assert code == 0 and out == "62190883161\n"
    code, out, _ = run(capsys, "count", "--p", "5", "--s", "1", "--n", "4", "--lambda", "3")
    assert code == 0 and out == "1176261\n"


def test_info_document(capsys):
    code, out, _ = run(capsys, "info", "--p", "5", "--s", "1", "--n", "6", "--lambda", "-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"p": 5, "m": 1, "s": 1, "n": 6, "lambda": 4}
    assert doc["lambda0"] == 4
    assert [f["poly"] for f in doc["factors"]] == [
        [2, 1],
        [4, 2, 1],
        [3, 1],
        [4, 3, 1],
    ]
    assert [f["count"] for f in doc["factors"]] == ["121", "2061", "121", "2061"]
    assert doc["total"] == "62190883161"
    assert doc["tau"] == [3, 4, 1, 2]  # 1-based
    assert doc["rho"] == 0 and doc["pair_count"] == 2
    fd = build_factor_data(AmbientParams.of_ints(5, 1, 1, 6, 4))
    assert doc["idempotents"] == [list(e.coeffs) for e in fd.idempotents]


def test_idempotents_command(capsys):
    code, out, _ = run(capsys, "idempotents", "--p", "5", "--s", "1", "--n", "6", "--lambda", "-1")
    assert code == 0
    fd = build_factor_data(AmbientParams.of_ints(5, 1, 1, 6, 4))
    assert json.loads(out) == [list(e.coeffs) for e in fd.idempotents]


def test_enumerate_stream_roundtrips(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--p", "5", "--s", "1", "--n", "2", "--lambda", "-1", "--limit", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    for line in lines:
        doc = json.loads(line)
        parsed = parse_code(doc)
        assert code_json(parsed) == doc


def test_dual_from_file_then_stdin(capsys, tmp_path, monkeypatch):
    code, out, _ = run(
        capsys,
        "enumerate", "--p", "5", "--s", "1", "--n", "2", "--lambda", "-1", "--limit", "9",
    )
    line = out.splitlines()[8]
    src = tmp_path / "code.json"
    src.write_text(line)
    code, out, _ = run(capsys, "dual", "--input", str(src))
    assert code == 0
    mid = json.loads(out)
    assert mid["params"]["lambda"] == 4  # inverse of -1 is itself
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "dual")
    assert code == 0
    assert out2.strip() == line  # double dual restores the document byte for byte


def test_selfdual_count_only_default_nu(capsys):
    code, out, _ = run(
        capsys, "selfdual", "--p", "5", "--s", "1", "--n", "6", "--count-only"
    )
    assert code == 0 and out == "249381\n"


def test_selfdual_stream(capsys):
    code, out, _ = run(
        capsys, "selfdual", "--p", "3", "--s", "1", "--n", "2", "--limit", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    for line in lines:
        parsed = parse_code(json.loads(line))
        assert dual_code_nu(parsed).components == parsed.components


def test_selfdual_nu_plus_one(capsys):
    code, out, _ = run(
        capsys, "selfdual", "--p", "3", "--s", "1", "--n", "2", "--nu", "1", "--count-only"
    )
    assert code == 0
    assert int(out) > 0


def test_selfdual_nu_plus_one_over_an_extension_field(capsys):
    """lambda = +1 is the field's one, not the text "1", so m > 1 works."""
    ring = ["--p", "3", "--m", "2", "--s", "1", "--n", "8", "--nu", "1"]
    code, out, _ = run(capsys, "selfdual", *ring, "--count-only")
    assert code == 0 and out == "157216\n"
    code, out, _ = run(capsys, "selfdual", *ring, "--limit", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines:
        parsed = parse_code(json.loads(line))
        assert parsed.fd.params.lam == 1
        assert dual_code_nu(parsed).components == parsed.components


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1] == "OK (0 failures)"


def test_output_file(capsys, tmp_path):
    dest = tmp_path / "count.txt"
    code, out, _ = run(
        capsys,
        "count", "--p", "5", "--s", "1", "--n", "6", "--lambda", "-1",
        "--output", str(dest),
    )
    assert code == 0 and out == ""
    assert dest.read_text() == "62190883161\n"


def test_validation_failures_exit_2(capsys):
    code, _, err = run(capsys, "count", "--p", "2", "--s", "1", "--n", "2", "--lambda", "1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "count", "--p", "5", "--s", "1", "--n", "6", "--lambda", "abc")
    assert code == 2
    code, _, err = run(capsys, "count", "--p", "5", "--s", "1", "--n", "6", "--lambda", "0")
    assert code == 2


def test_bad_dual_input_exits_2(capsys, monkeypatch):
    doc = {
        "params": {"p": 5, "m": 1, "s": 1, "n": 2, "lambda": 4},
        "components": [{"case": "X"}, {"case": "III", "k": 0}],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, _, err = run(capsys, "dual")
    assert code == 2 and "error" in err
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, _, err = run(capsys, "dual")
    assert code == 2 and "bad JSON" in err


def test_dual_component_with_k_out_of_range_exits_2(capsys, monkeypatch):
    # e = 5 at (5,1,1,2): case II needs 1 <= k <= 4
    doc = {
        "params": {"p": 5, "m": 1, "s": 1, "n": 2, "lambda": 4},
        "components": [{"case": "II", "k": 7, "b": []}, {"case": "III", "k": 0}],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "dual")
    assert code == 2 and out == ""
    assert err.startswith("error: case ") and err.count("\n") == 1 and "Traceback" not in err


def test_seed_env_is_accepted(capsys, monkeypatch):
    monkeypatch.setenv("CCRING_SEED", "7")
    code, out, _ = run(capsys, "info", "--p", "5", "--s", "1", "--n", "6", "--lambda", "-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["tau"] == [3, 4, 1, 2]


def parse_long_decimal(text):
    """int(text) in 1000-digit chunks, under any int-to-str digit limit."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_counts_past_4300_digits_print(capsys):
    from ccring.decomp import factor_degrees
    from ccring.ideals import count_ideals_params

    for p, s, n in ((2, 12, 7), (41, 2, 4)):
        code, out, _ = run(capsys, "count", "--p", str(p), "--s", str(s), "--n", str(n), "--lambda", "1")
        assert code == 0
        text = out.strip()
        assert len(text) > 4300 and text.isdigit()
        params = AmbientParams.of_ints(p, 1, s, n, 1)
        want = 1
        for d in factor_degrees(params):
            want *= count_ideals_params(p, 1, d, s)
        assert parse_long_decimal(text) == want
    code, out, _ = run(capsys, "info", "--p", "41", "--s", "2", "--n", "4", "--lambda", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["total"]) > 4300 and all(len(f["count"]) > 1000 for f in doc["factors"])


def test_decimal_matches_str_below_the_limit():
    import random

    from ccring.cli import decimal

    rng = random.Random(5)
    for bits in (1, 60, 1000, 9000, 14000):
        n = rng.getrandbits(bits)
        assert decimal(n) == str(n)
    big = 7 ** 20000 + 10 ** 5000  # a run of zeros across a split point
    assert parse_long_decimal(decimal(big)) == big


def test_dual_reads_an_ndjson_stream(capsys, monkeypatch):
    ring = ("--p", "5", "--s", "1", "--n", "6", "--lambda", "-1")
    code, out, _ = run(capsys, "enumerate", *ring, "--limit", "3")
    docs = out.splitlines()
    singles = []
    for doc in docs:
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, dual, _ = run(capsys, "dual")
        assert code == 0
        singles.append(dual)
    import ccring.decomp

    calls = []
    real = ccring.decomp.factor_data_for
    monkeypatch.setattr(ccring.decomp, "factor_data_for", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, stream, _ = run(capsys, "dual")
    assert code == 0 and stream == "".join(singles)
    assert calls == []  # the single-document runs left both rings in the memo
    ccring.decomp.clear_memo()
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, again, _ = run(capsys, "dual")
    assert code == 0 and again == stream
    assert len(calls) == 2  # one ring: its factor data and its dual's
    # one pretty-printed document is a stream of one
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(json.loads(docs[1]), indent=2)))
    code, pretty, _ = run(capsys, "dual")
    assert code == 0 and pretty == singles[1]
    # indented documents, and documents sharing a line, read as their NDJSON form
    indented = "\n".join(json.dumps(json.loads(doc), indent=2) for doc in docs)
    for text in (indented, " ".join(docs), docs[0] + "\n" + docs[1] + " " + docs[2]):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, again, _ = run(capsys, "dual")
        assert code == 0 and again == stream


def library_dual(doc: str) -> str:
    return cli._dumps(code_json(dual_code(parse_code(json.loads(doc))))) + "\n"


@pytest.mark.parametrize(
    "ring",
    [
        ("--p", "7", "--s", "1", "--n", "48", "--lambda", "6"),  # 12 factors
        ("--p", "3", "--m", "2", "--s", "1", "--n", "8", "--lambda", "[1,0]"),
        ("--p", "2", "--s", "4", "--n", "7", "--lambda", "1"),  # factors on both transport routes
    ],
)
def test_dual_writes_the_library_route_line_for_line(capsys, monkeypatch, ring):
    """dual transports only the components that changed since the ring's
    last document, and writes what code_json(dual_code(parse_code(doc)))
    gives, fed a 200-document stream at once or one document per call."""
    _, out, _ = run(capsys, "enumerate", *ring, "--limit", "200")
    docs = out.splitlines(keepends=True)
    assert len(docs) == 200
    want = [library_dual(doc) for doc in docs]
    # the components that differ from the previous document's: all r on the first
    comps = [json.loads(doc)["components"] for doc in docs]
    before = [[None] * len(comps[0])] + comps
    changed = [sum(c != b for c, b in zip(now, last)) for now, last in zip(comps, before)]
    assert changed[0] == len(comps[0]) and min(changed) == 1
    calls = _count_calls(monkeypatch, dual_component, validate_spec)
    ccring.decomp.clear_memo()
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert run(capsys, "dual") == (0, "".join(want), "")
    assert calls == {"dual_component": sum(changed), "validate_spec": sum(changed)}
    ccring.decomp.clear_memo()
    for doc, line, n in zip(docs, want, changed):
        calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert run(capsys, "dual") == (0, line, "")
        assert calls == {"dual_component": n, "validate_spec": n}


def _documents_of_7(capsys):
    """(2,1,1,7,1) documents: the second one's last component is I, b = [1]."""
    _, out, _ = run(capsys, "enumerate", "--p", "2", "--s", "1", "--n", "7", "--lambda", "1", "--limit", "2")
    return [json.loads(line) for line in out.splitlines()]


def with_component(doc, j, comp):
    out = json.loads(json.dumps(doc))
    out["components"][j] = comp
    return out


def _retyped_cases(capsys):
    docs = _documents_of_7(capsys)
    kept = with_component(docs[1], 0, {"case": "III", "k": 1})
    return [
        (kept, with_component(kept, 0, {"case": "III", "k": True}), "error: component field 'k' must be int, got True\n"),
        (kept, with_component(kept, 0, {"case": "III", "k": 1.0}), "error: component field 'k' must be int, got 1.0\n"),
        (docs[1], with_component(docs[1], 2, {"case": "I", "b": [True]}), "error: field element must be an integer, got True\n"),
    ]


def _misordered_cases(capsys):
    first = _documents_of_7(capsys)[0]
    invalid = with_component(first, 0, {"case": "III", "k": 9})
    short = dict(first, components=first["components"][:2])
    return [
        (first, with_component(invalid, 2, {"case": "I", "b": "x"}), "error: polynomial must be a coefficient array\n"),
        (first, invalid, "error: case III has no ideal with (k, t) = (9, 0) when e = 2\n"),
        (first, dict(short, components=[{"case": "I", "b": []}, {"case": 5}]), "error: component field 'case' must be str, got 5\n"),
        (first, short, "error: need 3 components, got 2\n"),
    ]


@pytest.mark.parametrize("case", range(7))
def test_dual_refuses_what_the_parent_refused(capsys, monkeypatch, case):
    """A component equal, as a Python value, to the one remembered at its
    factor but with true or 1.0 for an int is refused, not answered from
    the memo; parse errors come before the component count, and that
    before validation.  Each stderr is the one the library route wrote."""
    good, bad, err = (_retyped_cases(capsys) + _misordered_cases(capsys))[case]
    text = json.dumps(good) + "\n" + json.dumps(bad) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "dual") == (2, library_dual(json.dumps(good)), err)


def test_dual_input_interleaving_more_rings_than_the_memo_holds(capsys, monkeypatch):
    """An input that interleaves more rings than the memo holds gets, for
    each document, the answer of one process per document, and dual
    again restores the input byte for byte."""
    import ccring.decomp

    rings = [(n, lam) for n in (1, 2, 3, 4, 6, 7, 8) for lam in (1, 2, 3, 4)][: ccring.decomp.MEMO_SIZE + 2]
    streams = []
    for n, lam in rings:
        _, out, _ = run(capsys, "enumerate", "--p", "5", "--s", "1", "--n", str(n), "--lambda", str(lam), "--limit", "2")
        streams.append(out.splitlines(keepends=True))
    assert all(len(docs) == 2 for docs in streams)
    docs = [doc for pair in zip(*streams) for doc in pair]
    singles = []
    for doc in docs:
        with _cli_process("dual", stdin=subprocess.PIPE) as proc:
            dual, err = proc.communicate(doc.encode(), timeout=60)
        assert (proc.returncode, err) == (0, b"")
        singles.append(dual.decode())
    ccring.decomp.clear_memo()
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(docs)))
    code, out, _ = run(capsys, "dual")
    assert code == 0 and out.splitlines(keepends=True) == singles
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, back, _ = run(capsys, "dual")
    assert code == 0 and back == "".join(docs)


def test_every_code_of_a_chain_ring_round_trips():
    """Every code of (5,1,1,1,1), one factor x - 1 with e = 5, so all five
    cases: its document reads back to itself, and dual twice restores it."""
    fd = factor_data(AmbientParams.of_ints(5, 1, 1, 1, 1))
    cases = set()
    for code in enumerate_codes(fd):
        doc = json.loads(json.dumps(code_json(code)))
        assert code_json(parse_code(doc)) == doc
        assert code_json(dual_code(dual_code(parse_code(doc)))) == doc
        cases.update(c.case for c in code.components)
    assert cases == set(CASES)


def test_dual_of_a_non_integer_modulus_exits_2(capsys, monkeypatch):
    _, out, _ = run(capsys, "enumerate", "--p", "2", "--m", "2", "--s", "1", "--n", "3", "--lambda", "[0,1]", "--limit", "1")
    doc = json.loads(out)
    doc["params"]["modulus"][0] = "1"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, dual, err = run(capsys, "dual")
    assert code == 2 and dual == "" and err == "error: params field 'modulus' must hold integers\n"


def _count_calls(monkeypatch, *fns):
    """Calls to each of fns by name, wherever a ccring module binds it."""
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn in fns:
        wrapper = counted(fn)
        for name, module in list(sys.modules.items()):
            if name == "ccring" or name.startswith("ccring."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_dual_sets_up_a_ring_once_per_process(capsys, monkeypatch):
    """After the first document of a ring, no later one, in the same
    input or another, builds a field (with m = 2, a modulus test), checks
    factor degrees or builds factor data; the answers are those of one
    process per document."""
    ring = ("--p", "2", "--m", "2", "--s", "1", "--n", "3", "--lambda", "[0,1]")
    _, out, _ = run(capsys, "enumerate", *ring, "--limit", "4")
    docs = out.splitlines(keepends=True)
    assert len(docs) == 4
    singles = []
    for doc in docs:
        with _cli_process("dual", stdin=subprocess.PIPE) as proc:
            dual, err = proc.communicate(doc.encode(), timeout=60)
        assert (proc.returncode, err) == (0, b"")
        singles.append(dual.decode())
    ccring.decomp.clear_memo()
    calls = _count_calls(monkeypatch, gf.field_new, ccring.decomp.factor_degrees, ccring.decomp.factor_data_for)
    after_first = []

    def stdin():
        yield docs[0]
        after_first.append(dict(calls))
        yield from docs[1:]

    monkeypatch.setattr("sys.stdin", stdin())
    code, first, _ = run(capsys, "dual")
    # the first document set up its ring and the dual ring
    assert after_first == [{"field_new": 1, "factor_degrees": 1, "factor_data_for": 2}]
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code2, second, _ = run(capsys, "dual")
    assert dict(calls) == after_first[0]
    assert code == code2 == 0 and first == second == "".join(singles)


def test_rejected_factors_exit_2_each_time(capsys, monkeypatch):
    """A failed set-up is not memoized: a bad factor list is refused on
    every call, and a good document of the same ring still works."""
    _, out, _ = run(capsys, "enumerate", "--p", "5", "--s", "1", "--n", "6", "--lambda", "-1", "--limit", "1")
    doc = json.loads(out)
    # x + 1 does not divide x^6 + 1 over F_5, but the degrees still match
    bad = json.dumps(dict(doc, factors=[[1, 1]] + doc["factors"][1:]))
    for _ in range(2):
        monkeypatch.setattr("sys.stdin", io.StringIO(bad))
        code, dual, err = run(capsys, "dual")
        assert code == 2 and dual == "" and err == "error: factor list does not multiply out to x^n - lambda0\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, dual, _ = run(capsys, "dual")
    monkeypatch.setattr("sys.stdin", io.StringIO(dual))
    code2, back, _ = run(capsys, "dual")
    assert code == code2 == 0 and back == out


def test_null_factors_are_refused_after_a_document_without_factors(capsys, monkeypatch):
    """A document without factors and one with "factors": null are
    different rings to the memo: the second is refused, as on its own."""
    doc = {"params": {"p": 5, "m": 1, "s": 1, "n": 2, "lambda": 4}, "components": [{"case": "III", "k": 0}] * 2}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc) + "\n" + json.dumps(dict(doc, factors=None))))
    code, out, err = run(capsys, "dual")
    assert code == 2 and len(out.splitlines()) == 1
    assert err == "error: document field 'factors' must be list, got None\n"


@pytest.mark.parametrize("stdin", ["{}", "[]", ""])
def test_dual_rejects_non_code_documents(capsys, monkeypatch, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, "dual")
    assert code == 2 and out == "" and err.startswith("error:")


def test_bad_modulus_exits_2(capsys):
    code, out, err = run(
        capsys, "count", "--p", "3", "--m", "2", "--s", "1", "--n", "2", "--modulus", "a", "--lambda", "[1,0]"
    )
    assert code == 2 and out == "" and "error:" in err


def test_negative_limit_exits_2(capsys):
    code, out, err = run(
        capsys, "enumerate", "--p", "5", "--s", "1", "--n", "2", "--lambda", "-1", "--limit", "-3"
    )
    assert code == 2 and out == "" and "error:" in err
    code, out, _ = run(
        capsys, "enumerate", "--p", "5", "--s", "1", "--n", "2", "--lambda", "-1", "--limit", "0"
    )
    assert code == 0 and out == ""


def test_dual_rejects_a_reducible_factor(capsys, monkeypatch):
    # x^2 - 1 given as one factor: its product is right, but it is not irreducible
    doc = {
        "params": {"p": 5, "m": 1, "s": 1, "n": 2, "lambda": 1},
        "factors": [[4, 0, 1]],
        "components": [{"case": "I", "b": []}],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "dual")
    assert code == 2 and out == "" and err.startswith("error:")


def test_dual_rejects_factors_split_into_quadratics(capsys, monkeypatch):
    # x^4 - 1 = (x^2 + 2x + 2)(x^2 + 3x + 2) over F_5, but it splits into linears
    doc = {
        "params": {"p": 5, "m": 1, "s": 1, "n": 4, "lambda": 1},
        "factors": [[2, 2, 1], [2, 3, 1]],
        "components": [{"case": "III", "k": 0}, {"case": "III", "k": 0}],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "dual")
    assert code == 2 and out == "" and err.startswith("error:")


def test_seed_flag_is_refused(capsys):
    # the factors come out sorted, so there is no factorization seed to set
    code, out, err = run(capsys, "--seed", "1", "count", "--p", "5", "--s", "1", "--n", "6", "--lambda", "-1")
    assert code == 2 and out == "" and "error:" in err


def test_dual_of_a_non_utf8_file_exits_2(capsys, tmp_path):
    path = tmp_path / "code.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "dual", "--input", str(path))
    assert code == 2 and out == "" and err.startswith("error:")


def test_unopenable_paths_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "no" / "such" / "file")
    code, out, err = run(capsys, "dual", "--input", missing)
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, err = run(
        capsys, "count", "--p", "5", "--s", "1", "--n", "6", "--lambda", "-1", "--output", missing
    )
    assert code == 2 and out == "" and err.startswith("error:")


def test_deeply_nested_dual_input_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000))
    code, out, err = run(capsys, "dual")
    assert code == 2 and out == "" and err.startswith("error:")


def test_rejected_command_line_prints_usage_and_one_error(capsys):
    code, out, err = run(capsys, "count", "--p", "x", "--s", "1", "--n", "6", "--lambda", "-1")
    assert code == 2 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: ccring count ")
    assert error == "ccring count: error: argument --p: invalid int value: 'x'"
    code, out, err = run(capsys)
    assert code == 2 and out == "" and err.splitlines()[1] == "ccring: error: the following arguments are required: command"


@pytest.mark.parametrize("token", ["-x", "-1x", "-1_0", "-1.", "-1 ", "-x y", "--", "-hh", "-h=x", "--help=x"])
def test_dash_led_tokens_are_flags_not_values(capsys, token):
    """A dash-led token that is not a plain negative number is never a
    flag's value, and no such token is a flag of count here."""
    ring = ["--p", "5", "--s", "1", "--n", "6"]
    for argv in (["count", *ring, "--lambda", token], ["count", *ring, "--lambda", "-1", token]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("usage: ccring count "), argv
    code, out, _ = run(capsys, "count", *ring, "--lambda", "-1")
    assert code == 0 and out == "62190883161\n"


@pytest.mark.parametrize("command", [None, "info", "idempotents", "count", "enumerate", "dual", "selfdual", "verify"])
def test_help_exits_0(capsys, command):
    code, out, err = run(capsys, *filter(None, [command, "-h"]))
    assert code == 0 and err == "" and out.startswith("usage: ccring ")
    assert all(name in out for name in cli._parser().commands) if command is None else "--output" in out


def test_cli_import_leaves_argparse_out():
    src = str(Path(ccring.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ccring.cli; print('argparse' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "False\n"


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            code, out, _ = run(capsys, "count", "--p", "5", "--s", "1", "--n", "4", "--lambda", "3")
            assert code == 0 and out == "1176261\n"
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


# -- rings too long to build and unchecked field coordinates --------------------


LONG_RING = ("--p", "13", "--s", "21", "--n", "4", "--lambda", "2")


@pytest.mark.parametrize("command", ["count", "info"])
def test_too_long_ring_exits_2_at_once(capsys, command):
    start = time.perf_counter()
    code, out, err = run(capsys, command, *LONG_RING)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "exceeds" in err


def test_too_long_dual_document_exits_2_at_once(capsys, monkeypatch):
    code, out, _ = run(capsys, "enumerate", "--p", "13", "--s", "1", "--n", "4", "--lambda", "2", "--limit", "1")
    doc = json.loads(out)
    doc["params"]["s"] = 21
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    start = time.perf_counter()
    code, out, err = run(capsys, "dual")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "exceeds" in err


def test_length_bound_admits_every_tested_ring(capsys):
    assert MAX_LENGTH >= 7 * 2**12  # (2,1,12,7,1), the longest ring in tests and bench
    code, _, err = run(capsys, "count", "--p", "2", "--s", str(MAX_LENGTH.bit_length()), "--n", "1", "--lambda", "1")
    assert code == 2 and "exceeds" in err


HUGE_P = 1000000000000000003  # prime: trial division takes 5 * 10^8 steps


def test_huge_p_exits_2_before_the_field_is_built(capsys, monkeypatch):
    def refuse(p):
        raise AssertionError(f"primality test of p = {p}")

    monkeypatch.setattr(gf, "_is_prime", refuse)
    # s and n are checked first, with the messages AmbientParams gives
    for s, n, message in [
        (1, 1, f"error: length n*p^s = 1*{HUGE_P}^1 exceeds {MAX_LENGTH}\n"),
        (0, 1, "error: s = 0 must be >= 1\n"),
        (1, 0, "error: n = 0 must be >= 1\n"),
    ]:
        code, out, err = run(capsys, "count", "--p", str(HUGE_P), "--s", str(s), "--n", str(n), "--lambda", "1")
        assert (code, out, err) == (2, "", message)
        doc = {"params": {"p": HUGE_P, "m": 1, "s": s, "n": n, "lambda": 1}, "components": [{"case": "III", "k": 0}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "dual")
        assert (code, out, err) == (2, "", message)
    with pytest.raises(TooLarge):
        AmbientParams.of_ints(HUGE_P, 1, 1, 1, 1)


def test_field_past_the_size_bound_exits_2_before_the_modulus_search(capsys, monkeypatch):
    assert gf.field_new(2, gf.MAX_FIELD_BITS).q == 1 << gf.MAX_FIELD_BITS  # the bound itself is a field

    def refuse(*args):
        raise AssertionError(f"modulus search or test for {args}")

    monkeypatch.setattr(gf, "_smallest_irreducible", refuse)
    monkeypatch.setattr(gf, "_modulus_irreducible", refuse)
    for p, m, modulus in [(2, 200000, None), (2, gf.MAX_FIELD_BITS + 1, None), (5, 28, [1] * 29)]:
        message = f"error: field size p^m = {p}^{m} exceeds 2^{gf.MAX_FIELD_BITS}\n"
        flags = ["--modulus", ",".join(map(str, modulus))] if modulus else []
        code, out, err = run(capsys, "count", "--p", str(p), "--m", str(m), *flags, "--s", "1", "--n", "1", "--lambda", "1")
        assert (code, out, err) == (2, "", message)
        params = {"p": p, "m": m, "s": 1, "n": 1, "lambda": [1] + [0] * (m - 1)}
        if modulus:
            params["modulus"] = modulus
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"params": params, "components": []})))
        code, out, err = run(capsys, "dual")
        assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "lam,unreduced,reduced,dual_b",
    [(1, [1, 1, 0, 1], [2, 1], [1, 2]), (2, [2, 1, 0, 1], [1, 1], [2, 2])],
)
def test_dual_of_an_unreduced_b(capsys, monkeypatch, lam, unreduced, reduced, dual_b):
    """At (3,1,1,1) the factor is f = x - lambda, e = 3 and N = 3, so
    unreduced = f^3 + f reduces to reduced = f in the case I window; its
    degree 3 passes N - deg f = 2, and the transport wraps its top term
    through x^N = lambda^(-1)."""

    def dual_of(b):
        doc = {"params": {"p": 3, "m": 1, "s": 1, "n": 1, "lambda": lam}, "components": [{"case": "I", "b": b}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "dual")
        assert code == 0 and err == ""
        return out

    out = dual_of(unreduced)
    assert out == dual_of(reduced)
    assert json.loads(out)["components"] == [{"case": "I", "b": dual_b}]


def f4_document(capsys):
    ring = ("--p", "2", "--m", "2", "--s", "1", "--n", "3", "--lambda", "[0,1]")
    code, out, _ = run(capsys, "enumerate", *ring, "--limit", "1")
    assert code == 0
    return json.loads(out)


def test_non_integer_lambda_coordinate_exits_2(capsys, monkeypatch):
    doc = f4_document(capsys)
    doc["params"]["lambda"] = [0.5, 1]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "dual")
    assert code == 2 and out == "" and err.startswith("error:")


def test_text_b_coordinate_exits_2(capsys, monkeypatch):
    doc = f4_document(capsys)
    assert "b" in doc["components"][0]
    doc["components"][0]["b"] = [[1, "a"]]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "dual")
    assert code == 2 and out == "" and err.startswith("error:")


def test_text_lambda_coordinate_exits_2(capsys):
    code, out, err = run(capsys, "count", "--p", "2", "--m", "2", "--s", "1", "--n", "1", "--lambda", '[1,"a"]')
    assert code == 2 and out == "" and err.startswith("error:")


def test_boolean_lambda_exits_2(capsys):
    code, out, err = run(capsys, "count", "--p", "5", "--s", "1", "--n", "1", "--lambda", "true")
    assert code == 2 and out == "" and err.startswith("error:")


def test_deeply_nested_lambda_exits_2(capsys):
    code, out, err = run(capsys, "count", "--p", "3", "--s", "1", "--n", "4", "--lambda", "[" * 3000)
    assert code == 2 and out == "" and err.startswith("error:")


def _cli_process(*argv, stdin=None, stdout=subprocess.PIPE, **env):
    """`python -m ccring.cli argv` with its stdout (unless given) and
    stderr on pipes, and env added to the environment."""
    src = str(Path(ccring.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "ccring.cli", *argv],
        env={**os.environ, "PYTHONPATH": path, **env},
        stdin=stdin,
        stdout=stdout,
        stderr=subprocess.PIPE,
    )


def test_dual_of_non_utf8_stdin_exits_2():
    proc = _cli_process("dual", stdin=subprocess.PIPE, PYTHONIOENCODING="utf-8:strict")
    out, err = proc.communicate(b"\xff\xfe{}", timeout=60)
    assert proc.returncode == 2 and out == b"" and err.startswith(b"error:")


def test_dual_answers_each_document_while_the_pipe_stays_open(capsys, monkeypatch):
    _, doc, _ = run(capsys, "enumerate", "--p", "5", "--s", "1", "--n", "6", "--lambda", "-1", "--limit", "1")
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    _, want, _ = run(capsys, "dual")
    # leaving the block closes stdin, so a failed check still ends the process
    with _cli_process("dual", stdin=subprocess.PIPE) as proc:
        proc.stdin.write(doc.encode())
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        assert ready, "no dual within 10 s of its document"
        line = proc.stdout.readline()
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
    assert line.decode() == want


def test_reader_closing_the_pipe_ends_the_run_quietly():
    # far more output than a pipe buffer holds, so the writer meets EPIPE
    proc = _cli_process("enumerate", "--p", "3", "--s", "2", "--n", "4", "--lambda", "1", "--limit", "100000")
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert json.loads(first)["params"]["p"] == 3
    assert err == b""


def test_reader_closing_before_a_count_prints_exits_0():
    proc = _cli_process("count", "--p", "3", "--s", "2", "--n", "4", "--lambda", "1")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


SMALL_RING = ("--p", "5", "--s", "1", "--n", "6", "--lambda", "-1")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv,to_stdout",
    [
        (("count", *SMALL_RING, "--output", "/dev/full"), False),
        (("count", *SMALL_RING), True),
        (("enumerate", *SMALL_RING, "--limit", "3"), True),
    ],
)
def test_output_write_error_exits_2_with_one_line(argv, to_stdout):
    with open("/dev/full", "wb") as full:
        proc = _cli_process(*argv, stdout=full if to_stdout else subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == b"error: cannot write output: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_write_error_in_process_exits_2(capsys):
    code, out, err = run(capsys, "count", *SMALL_RING, "--output", "/dev/full")
    assert (code, out, err) == (2, "", "error: cannot write output: No space left on device\n")


def _verify_into_a_closed_pipe(monkeypatch, suite, buffering):
    """main(["verify"]) on a fake suite, stdout a pipe whose reader left."""
    monkeypatch.setattr(cli, "verify_suite", lambda level: iter(suite))
    r, w = os.pipe()
    os.close(r)
    out = open(w, "w", buffering=buffering)
    monkeypatch.setattr(sys, "stdout", out)
    try:
        return main(["verify"])
    finally:
        out.close()


PASSING = [("a", True, "ok"), ("b", True, "ok")]


def test_verify_cut_off_by_the_reader_exits_3(monkeypatch):
    # line buffered: the first line meets the closed pipe, mid-suite
    assert _verify_into_a_closed_pipe(monkeypatch, PASSING, buffering=1) == 3


@pytest.mark.parametrize("suite,status", [(PASSING, 0), (PASSING + [("c", False, "no")], 3)])
def test_verify_that_ran_to_its_end_keeps_its_status(monkeypatch, suite, status):
    # the whole report fits the buffer: the pipe shows up at the last flush
    assert _verify_into_a_closed_pipe(monkeypatch, suite, buffering=1 << 16) == status


def padded_stream(capsys):
    """Three enumerate documents, each padded with spaces to 219 bytes
    plus its newline: 660 bytes."""
    _, out, _ = run(capsys, "enumerate", "--p", "5", "--s", "1", "--n", "2", "--lambda", "1", "--limit", "3")
    return "".join(line.ljust(219) + "\n" for line in out.splitlines()).encode()


def byte_stdin(data: bytes):
    """A text stdin with a binary buffer under it, as the interpreter's is."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict", newline="\n")


def test_non_utf8_offset_counts_from_the_start_of_the_input(capsys, monkeypatch, tmp_path):
    block = padded_stream(capsys)
    assert len(block) == 660
    data = block * 40 + b"\xff"
    path = tmp_path / "stream.ndjson"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", byte_stdin(data))
    for argv in (["dual"], ["dual", "--input", str(path)]):
        code, out, err = run(capsys, *argv)
        # every document before the bad byte is answered, then the run stops
        assert code == 2 and len(out.splitlines()) == 120
        assert err == "error: input is not utf-8 text: invalid start byte at byte 26400\n"


def test_crlf_input_keeps_its_error_positions(capsys, monkeypatch, tmp_path):
    data = padded_stream(capsys).replace(b"\n", b"\r\n") + b'{"params": [1,\r\n 2,, 3]}\r\n'
    path = tmp_path / "stream.ndjson"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", byte_stdin(data))
    code, out, err = run(capsys, "dual")
    assert code == 2 and len(out.splitlines()) == 3
    assert err == "error: bad JSON input: Expecting value: line 5 column 4 (char 682)\n"
    # a file is read in text mode, which turns \r\n into \n
    code, out, err = run(capsys, "dual", "--input", str(path))
    assert code == 2 and len(out.splitlines()) == 3
    assert err == "error: bad JSON input: Expecting value: line 5 column 4 (char 678)\n"


def reference_documents(lines):
    """cli._documents with every line read by the bracket scan: the route
    each line took before a line was first decoded on its own."""
    decoder = json.JSONDecoder()
    buf, depth = "", 0
    base_chars = base_lines = 0
    found = False
    for line in chain(lines, [None]):
        if line is not None:
            buf += line
            bare = cli._STRING.sub("", line)
            depth += bare.count("[") + bare.count("{") - bare.count("]") - bare.count("}")
            if depth > 0:
                continue
        pos = cli._SPACE.match(buf).end()
        while pos < len(buf):
            try:
                doc, pos = decoder.raw_decode(buf, pos)
            except RecursionError:
                raise CcringError("JSON input nested too deeply") from None
            except json.JSONDecodeError as ex:
                raise CcringError(
                    f"bad JSON input: {ex.msg}: line {base_lines + ex.lineno} "
                    f"column {ex.colno} (char {base_chars + ex.pos})"
                ) from None
            found = True
            yield doc
            pos = cli._SPACE.match(buf, pos).end()
        base_chars += len(buf)
        base_lines += buf.count("\n")
        buf, depth = "", 0
    if not found:
        raise CcringError("no JSON document in the input")


STREAM_FLAGS = ("--p", "7", "--s", "1", "--n", "48", "--lambda", "6")


@functools.cache
def reading_shapes() -> dict:
    """Inputs of every shape dual reads, by name, as bytes: documents of
    a ring with m = 2 and of one with 12 factors."""
    docs = []
    for ring in (("--p", "3", "--m", "2", "--s", "1", "--n", "8", "--lambda", "[1,0]"), STREAM_FLAGS):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["enumerate", *ring, "--limit", "3"]) == 0
        docs += out.getvalue().splitlines()
    ndjson = "".join(doc + "\n" for doc in docs)
    indented = "".join(json.dumps(json.loads(doc), indent=2) + "\n" for doc in docs)
    deep = "[" * 100000
    split = docs[1].replace(',"factors"', ',\n"factors"')  # a line break outside any string
    texts = {
        "ndjson": ndjson,
        "no final newline": ndjson.rstrip("\n"),
        "crlf": ndjson.replace("\n", "\r\n"),
        "indented": indented,
        "indented, tabs": indented.replace("  ", "\t"),
        "two per line": "".join(" ".join(docs[i : i + 2]) + "\n" for i in range(0, len(docs), 2)),
        "one line": " ".join(docs),
        "a document begun after another": docs[0] + " " + split + "\n" + "\n".join(docs[2:]),
        "blank lines": "\n\n" + "\n \t\n".join(docs) + "\n\n\n",
        "only blanks": " \n\n\t\n",
        "empty": "",
        "scalar": docs[0] + "\n5\n",
        "brackets in a string": docs[0] + '\n{"params": "[[{"}\n',
        "unclosed string": docs[0] + '\n{"params": "[[{\n',
        "bad JSON": docs[0] + "\n" + docs[1][:-3] + "\n" + docs[2] + "\n",
        "bad JSON, indented": indented + '{\n  "params": [1,\n 2,, 3]\n}\n',
        "trailing junk": docs[0] + " x\n" + docs[1] + "\n",
        "trailing bracket": docs[0] + "]\n" + docs[1] + "\n",
        "too deep, open": docs[0] + "\n" + deep + "\n",
        "too deep, closed": docs[0] + "\n" + deep + "]" * 100000 + "\n",
    }
    shapes = {name: text.encode() for name, text in texts.items()}
    shapes["not utf-8"] = (ndjson + docs[0]).encode() + b"\xff\n" + docs[1].encode() + b"\n"
    return shapes


READING_SHAPES = [
    "ndjson",
    "no final newline",
    "crlf",
    "indented",
    "indented, tabs",
    "two per line",
    "one line",
    "a document begun after another",
    "blank lines",
    "only blanks",
    "empty",
    "scalar",
    "brackets in a string",
    "unclosed string",
    "bad JSON",
    "bad JSON, indented",
    "trailing junk",
    "trailing bracket",
    "too deep, open",
    "too deep, closed",
    "not utf-8",
]
# the shapes that hold the six documents and nothing else
WELL_FORMED = {
    "ndjson",
    "no final newline",
    "crlf",
    "indented",
    "indented, tabs",
    "two per line",
    "one line",
    "a document begun after another",
    "blank lines",
}


@pytest.mark.parametrize("shape", READING_SHAPES)
def test_documents_are_those_of_the_bracket_scan(capsys, monkeypatch, shape):
    """Each input shape gives the documents, answers, exit code and error
    text that reading every line by the bracket scan gives."""
    shapes = reading_shapes()
    assert list(shapes) == READING_SHAPES

    def outcome(documents):
        try:
            return list(documents(shapes[shape].decode().splitlines(keepends=True))), None
        except (CcringError, UnicodeDecodeError) as ex:
            return None, str(ex)

    assert outcome(cli._documents) == outcome(reference_documents)
    answers = []
    for documents in (cli._documents, reference_documents):
        monkeypatch.setattr(cli, "_documents", documents)
        for data in (shapes[shape], shapes["ndjson"]):
            monkeypatch.setattr("sys.stdin", byte_stdin(data))
            answers.append(run(capsys, "dual"))
    assert answers[0] == answers[2]
    if shape in WELL_FORMED:
        assert answers[0] == answers[1] == answers[3]
    else:
        assert answers[0][0] == 2 and answers[0][2].startswith("error: ")


def test_ndjson_dual_input_is_read_with_no_bracket_scan(capsys, monkeypatch):
    """A line that holds one whole document is decoded on its own: the
    bracket scan's string pattern is never run on it."""
    _, out, _ = run(capsys, "enumerate", *STREAM_FLAGS, "--limit", "50")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    want = run(capsys, "dual")
    assert want[0] == 0 and want[1].count("\n") == 50

    class NoScan:
        def sub(self, *args):
            raise AssertionError("bracket scan of an NDJSON line")

    monkeypatch.setattr(cli, "_STRING", NoScan())
    for stdin in (io.StringIO(out), byte_stdin(out.encode()), byte_stdin(out.replace("\n", "\r\n").encode())):
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(capsys, "dual") == want


def test_fields_are_kept_across_commands(capsys, monkeypatch):
    """Commands of one field, by flags or by documents, build it once
    per (p, m, modulus) until clear_memo; a refused field is refused on
    every call."""
    calls = _count_calls(monkeypatch, gf.field_new)
    f9 = ("--p", "3", "--m", "2", "--s", "1")
    commands = (
        ["count", "--n", "8"],
        ["info", "--n", "8"],
        ["enumerate", "--n", "4", "--limit", "3"],
        ["count", "--n", "2"],
    )
    for argv in commands:
        assert run(capsys, *argv, *f9, "--lambda", "[1,0]")[0] == 0
    assert calls == {"field_new": 1}
    # documents name the default modulus x^2 + 1: the same field
    _, out, _ = run(capsys, "enumerate", *f9, "--n", "8", "--lambda", "[1,0]", "--limit", "3")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert run(capsys, "dual")[0] == 0
    assert calls == {"field_new": 1}
    # another modulus, x^2 + x + 2: one more field, which dual keeps too
    _, out, _ = run(capsys, "enumerate", *f9, "--n", "8", "--modulus", "2,1,1", "--lambda", "[1,0]", "--limit", "3")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert run(capsys, "dual")[0] == 0
    assert calls == {"field_new": 2}
    ccring.decomp.clear_memo()
    assert run(capsys, "count", *f9, "--n", "8", "--lambda", "[1,0]")[0] == 0
    assert calls == {"field_new": 3}
    for _ in range(2):
        code, out, err = run(capsys, "count", "--p", "6", "--s", "1", "--n", "1", "--lambda", "1")
        assert (code, out, err) == (2, "", "error: p = 6 is not prime\n")
    assert calls == {"field_new": 5}


@pytest.mark.parametrize("field", [("--p", "2", "--m", "2", "--lambda", "[0,1]"), ("--p", "3", "--m", "2", "--lambda", "[1,0]")])
def test_enumerate_then_dual_tabulate_the_field_once(capsys, monkeypatch, field):
    """The flags without --modulus and the documents, which name the
    default modulus, share one kept field: after enumerate, dual on the
    documents of another ring of F_4 or F_9 builds no second table."""
    _, docs, _ = run(capsys, "enumerate", *field, "--s", "1", "--n", "7", "--limit", "20")
    ccring.decomp.clear_memo()
    calls = Counter()
    build = gf.FieldCtx._build_tables

    def counted(self):
        calls[self.p, self.m, self.modulus] += 1
        build(self)

    monkeypatch.setattr(gf.FieldCtx, "_build_tables", counted)
    assert run(capsys, "enumerate", *field, "--s", "1", "--n", "5", "--limit", "20")[0] == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(docs))
    assert run(capsys, "dual")[0] == 0
    assert list(calls.values()) == [1]


LONG_INT = "1" * 5000  # past the interpreter's int-to-str digit limit, 4300 by default


@pytest.mark.parametrize("fresh", [False, True])
def test_integers_past_the_digit_limit_exit_2(capsys, monkeypatch, fresh):
    """json refuses an integer past sys.get_int_max_str_digits() digits
    with a plain ValueError; a dual document or a --lambda holding one
    ends the run with one error line and exit 2, and the answers written
    before it stay."""
    ring = ("--p", "5", "--s", "1", "--n", "6")
    _, doc, _ = run(capsys, "enumerate", *ring, "--lambda", "-1", "--limit", "1")
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    _, answer, _ = run(capsys, "dual")
    err = f"error: bad JSON input: an integer of more than {sys.get_int_max_str_digits()} digits\n"
    cases = [(["dual"], f"{doc}[{LONG_INT}]\n", answer), (["count", *ring, "--lambda", LONG_INT], "", "")]
    for argv, stdin, out in cases:
        if fresh:
            with _cli_process(*argv, stdin=subprocess.PIPE) as proc:
                got = proc.communicate(stdin.encode(), timeout=60)
            assert (proc.returncode, *got) == (2, out.encode(), err.encode())
        else:
            monkeypatch.setattr("sys.stdin", byte_stdin(stdin.encode()))
            assert run(capsys, *argv) == (2, out, err)
