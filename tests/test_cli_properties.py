"""Property tests: malformed command lines and dual documents never escape.

Every run of cli.main must end with exit code 0, 2 (bad input, including
argparse's SystemExit(2)) or 3 (a failed verify); any other exception is
a bug.  Rings stay small (p <= 13, s <= 2, n <= 12) so each example runs
in milliseconds; selfdual, whose fixed-point kernels cost about m*d*p^(2s)/4
transports per self-reciprocal factor of degree d, gets p <= 5 and s = 1.
"""

import contextlib
import copy
import functools
import io
import json
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ccring.cli import main

EXIT_CODES = {0, 2, 3}

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

junk = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "-", "x", "1.5", "[1,0]", "[]", "{}", "1,0,1", "nan", "--p"]),
)


def int_or_junk(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), junk)


def lambda_text():
    return st.one_of(
        st.integers(-3, 14).map(str),
        st.lists(st.integers(-2, 14), max_size=4).map(json.dumps),
        junk,
    )


@st.composite
def argv(draw):
    command = draw(st.sampled_from(["info", "idempotents", "count", "enumerate", "selfdual"]))
    small = command == "selfdual"
    flags = {
        "--p": int_or_junk(-2, 5 if small else 13),
        "--m": int_or_junk(-1, 3),
        "--s": int_or_junk(-1, 1 if small else 2),
        "--n": int_or_junk(-1, 4 if small else 12),
        "--modulus": st.one_of(
            st.lists(st.integers(-2, 13), max_size=4).map(lambda cs: ",".join(map(str, cs))),
            junk,
        ),
    }
    if command == "selfdual":
        flags["--nu"] = int_or_junk(-2, 2)
    else:
        flags["--lambda"] = lambda_text()
    out = [command]
    for flag, values in flags.items():
        # most flags present, so that validation past argparse is reached
        if draw(st.integers(0, 4)):
            out += [flag, draw(values)]
    if command in ("enumerate", "selfdual"):
        # an unlimited stream would not end at these sizes
        out += ["--limit", draw(int_or_junk(-3, 3))]
    if draw(st.booleans()):
        out.insert(draw(st.integers(0, len(out))), draw(junk))
    return out


def fieldelem():
    coordinate = st.one_of(st.integers(-3, 14), st.floats(allow_nan=False), st.text(max_size=2), st.booleans())
    return st.one_of(st.integers(-3, 30), st.lists(coordinate, max_size=4), st.text(max_size=3), st.none())


def poly_doc():
    return st.one_of(st.lists(fieldelem(), max_size=5), fieldelem())


def component():
    keys = {
        "case": st.one_of(st.sampled_from(["I", "II", "III", "IV", "V"]), st.text(max_size=2), st.integers()),
        "k": st.one_of(st.integers(-1, 5), st.text(max_size=2)),
        "t": st.one_of(st.integers(-1, 5), st.text(max_size=2)),
        "b": poly_doc(),
    }
    return st.one_of(st.fixed_dictionaries({}, optional=keys), fieldelem())


@st.composite
def dual_document(draw):
    params = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "p": st.one_of(st.integers(-2, 13), st.text(max_size=2), st.booleans()),
                "m": st.one_of(st.integers(-1, 3), st.none()),
                "s": st.one_of(st.integers(-1, 2), st.floats(allow_nan=False)),
                "n": st.integers(-1, 12),
                "lambda": fieldelem(),
                "modulus": st.one_of(st.lists(st.integers(-2, 13), max_size=5), st.text(max_size=3)),
            },
        )
    )
    doc = {"params": params}
    if draw(st.booleans()):
        doc["factors"] = draw(st.one_of(st.lists(poly_doc(), max_size=4), fieldelem()))
    doc["components"] = draw(st.one_of(st.lists(component(), max_size=4), fieldelem()))
    return draw(st.one_of(st.just(doc), st.just([doc]), fieldelem()))


VALID_RINGS = [
    ("--p", "5", "--s", "1", "--n", "4", "--lambda", "1"),
    ("--p", "3", "--s", "2", "--n", "2", "--lambda", "-1"),
    ("--p", "2", "--m", "2", "--s", "1", "--n", "3", "--lambda", "[0,1]"),
    ("--p", "13", "--s", "1", "--n", "4", "--lambda", "2"),
]


@functools.lru_cache(maxsize=None)
def valid_documents():
    docs = []
    for ring in VALID_RINGS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["enumerate", *ring, "--limit", "40"]) == 0
        docs += [json.loads(line) for line in out.getvalue().splitlines()[::8]]
    return docs


@st.composite
def mutated_document(draw):
    """A valid code document with one value replaced or removed."""
    doc = copy.deepcopy(draw(st.sampled_from(valid_documents())))
    paths = [("params", key) for key in doc["params"]]
    paths += [("factors", i) for i in range(len(doc["factors"]))]
    paths += [("components", i, key) for i, c in enumerate(doc["components"]) for key in c]
    paths += [("components",), ("factors",), ("params",)]
    *head, last = draw(st.sampled_from(paths))
    owner = doc
    for key in head:
        owner = owner[key]
    if draw(st.booleans()) and isinstance(owner, dict):
        del owner[last]
    else:
        owner[last] = draw(st.one_of(fieldelem(), poly_doc(), st.lists(poly_doc(), max_size=3)))
    return doc


def exit_code(argv, stdin=""):
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    except SystemExit as ex:  # argparse rejects a command line this way
        return ex.code
    finally:
        sys.stdin = old_stdin


@SETTINGS
@given(args=argv())
def test_malformed_argv_exits_cleanly(args):
    assert exit_code(args) in EXIT_CODES, args


# a (13,1,1,4,2) document with s raised to 21: N = 4*13^21 used to run
# frobenius out of memory
LONG_RING_DOCUMENT = {
    "params": {"p": 13, "m": 1, "s": 21, "n": 4, "lambda": 2},
    "factors": [[11, 0, 0, 0, 1]],
    "components": [{"case": "I", "b": []}],
    "size": "8415003868347247618489696679505181495471801448798649088081",
}


@SETTINGS
@given(docs=st.lists(st.one_of(dual_document(), mutated_document()), min_size=1, max_size=3))
@example(docs=[LONG_RING_DOCUMENT])
def test_malformed_dual_documents_exit_cleanly(docs):
    text = "\n".join(json.dumps(d) for d in docs)
    assert exit_code(["dual"], text) in EXIT_CODES, text
