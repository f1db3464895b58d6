"""Property tests: command lines and dual documents never escape, and
the flag table reads every command line as argparse does.

Every run of cli.main must end with exit code 0, 2 (bad input, a
rejected command line included) or 3 (a failed verify); any other
exception is a bug.  Rings stay small (p <= 13, s <= 2, n <= 12) so each
example runs in milliseconds; selfdual, whose fixed-point kernels cost
about m*d*p^(2s)/4 transports per self-reciprocal factor of degree d,
gets p <= 5 and s = 1.

reference_parser() is the argparse parser the command line was read
with before the flag table, kept as the reference.  Both must reach the
same outcome on each generated line: the same value for every dest, or
help, or rejection.  The comparison leaves out the few dash-led tokens
that are no fixed reference (see portable).
"""

import argparse
import contextlib
import copy
import functools
import io
import json
import re
import sys
from itertools import islice

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ccring import cli
from ccring.cli import main
from ccring.decomp import AmbientParams, factor_data
from ccring.dual import dual_code, enumerate_self_dual
from ccring.errors import CcringError
from ccring.ideals import enumerate_codes

EXIT_CODES = {0, 2, 3}

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

junk = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ["", "-", "x", "1.5", "[1,0]", "[]", "{}", "1,0,1", "nan", "--p", "-x", "-.5", "--lam", "-h", "--he"]
    ),
)


def portable(token):
    """False for a dash-led token that is no fixed reference.  argparse
    has changed between Python versions how it reads "--" and what
    follows it, -h run together with more text, and a "-" and a digit
    or point that make no plain negative number (such as -1x or -1_0);
    and it reads a dash-led token with a space as a value.  The flag
    table reads each of them as a flag (test_cli.py checks that)."""
    if token[:1] != "-":
        return True
    if token == "--" or (token.startswith("-h") and token != "-h") or any(c.isspace() for c in token):
        return False
    if token[1:2].isdigit() or token[1:2] == ".":
        return re.fullmatch(r"-\d+|-\d*\.\d+", token) is not None
    return True


def int_or_junk(lo, hi, junk=junk):
    return st.one_of(st.integers(lo, hi).map(str), junk)


def lambda_text(junk=junk):
    return st.one_of(
        st.integers(-3, 14).map(str),
        st.lists(st.integers(-2, 14), max_size=4).map(json.dumps),
        junk,
    )


RING_COMMANDS = ["info", "idempotents", "count", "enumerate", "selfdual"]
COMMANDS = RING_COMMANDS + ["dual", "verify"]


@st.composite
def argv(draw, commands=RING_COMMANDS + ["dual"], junk=junk, files=False):
    """A command line of one of commands, mostly well formed: each flag
    most often once, sometimes missing or repeated, spelled in full or
    by a prefix, with its value next or after "=".  With files, --input
    and --output are drawn too; they name files, so only a line that is
    parsed and not run may hold them."""
    command = draw(st.sampled_from(commands))
    small = command == "selfdual"
    flags = {}
    if command in RING_COMMANDS:
        flags = {
            "--p": int_or_junk(-2, 5 if small else 13, junk),
            "--m": int_or_junk(-1, 3, junk),
            "--s": int_or_junk(-1, 1 if small else 2, junk),
            "--n": int_or_junk(-1, 4 if small else 12, junk),
            "--modulus": st.one_of(
                st.lists(st.integers(-2, 13), max_size=4).map(lambda cs: ",".join(map(str, cs))),
                junk,
            ),
        }
    if command == "selfdual":
        flags["--nu"] = int_or_junk(-2, 2, junk)
        flags["--count-only"] = None  # a switch
    elif command in RING_COMMANDS:
        flags["--lambda"] = lambda_text(junk)
    if command == "verify":
        flags["--level"] = st.one_of(st.sampled_from(["quick", "full", "qu", ""]), junk)
    if files:
        flags["--input" if command == "dual" else "--output"] = st.one_of(st.just("-"), junk)
    out = [command]
    for flag, values in flags.items():
        # most flags present, so that validation past the parser is reached
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
            out += spell(draw, flag, values, junk)
    if command in ("enumerate", "selfdual"):
        # an unlimited stream would not end at these sizes
        out += spell(draw, "--limit", int_or_junk(-3, 3, junk), junk)
    if draw(st.booleans()):
        out.insert(draw(st.integers(0, len(out))), draw(junk))
    if draw(st.integers(0, 5)) == 0:
        out.insert(draw(st.integers(0, len(out))), draw(st.sampled_from(["-h", "--help", "--h"])))
    return out


def spell(draw, flag, values, junk):
    """flag and a value drawn from values, as one or two tokens; a
    switch (values None) sometimes with junk after "="."""
    if draw(st.booleans()):
        flag = flag[: draw(st.integers(3, len(flag)))]
    if values is None:
        return [flag] if draw(st.integers(0, 5)) else [f"{flag}={draw(junk)}"]
    value = draw(values)
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


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
    return run_main(argv, stdin)[0]


def run_main(argv, stdin=""):
    """main(argv)'s exit code, stdout and stderr."""
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv), out.getvalue(), err.getvalue()
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


def int_spots(doc):
    """(owner, key) of each int of doc's components: a k, a t or a
    coordinate of b."""
    spots = []
    for comp in doc["components"]:
        spots += [(comp, key) for key in ("k", "t") if key in comp]
        for i, coeff in enumerate(comp.get("b", [])):
            spots += [(coeff, x) for x in range(len(coeff))] if isinstance(coeff, list) else [(comp["b"], i)]
    return spots


@st.composite
def remembered_then_retyped(draw):
    """A valid document, then a copy with one int of a component given
    as a float or a bool of equal value, which == takes for the int."""
    doc = draw(st.sampled_from([doc for doc in valid_documents() if int_spots(doc)]))
    copied = copy.deepcopy(doc)
    owner, key = draw(st.sampled_from(int_spots(copied)))
    value = owner[key]
    owner[key] = draw(st.sampled_from([float(value)] + [bool(value)] * (value in (0, 1))))
    return [doc, copied]


def library_dual(docs):
    """dual's exit code, stdout and stderr as the library route gives
    them: code_json(dual_code(parse_code(doc))) per document."""
    out = ""
    for doc in docs:
        try:
            out += cli._dumps(cli.code_json(dual_code(cli.parse_code(doc)))) + "\n"
        except CcringError as ex:
            return 2, out, f"error: {ex}\n"
    return 0, out, ""


@SETTINGS
@given(
    runs=st.lists(
        st.one_of(
            st.sampled_from(valid_documents()).map(lambda doc: [doc]),
            mutated_document().map(lambda doc: [doc]),
            remembered_then_retyped(),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_dual_answers_as_the_library_route(runs):
    """Whatever dual remembers of earlier documents, each document gets
    the library route's answer or error."""
    text = "".join(json.dumps(doc) + "\n" for run in runs for doc in run)
    docs = [json.loads(line) for line in text.splitlines()]
    assert run_main(["dual"], text) == library_dual(docs), text


# (p, m, s, n, lambda as its encoded int) of rings whose streams are
# written: m > 1, r = 1, and lambda = +-1 rings with reciprocal pairs
STREAM_RINGS = [
    (3, 2, 1, 8, 1),  # F_9, lambda = 1: two fixed factors and three pairs
    (3, 2, 1, 8, 3),  # F_9, lambda = x: two factors
    (2, 2, 1, 3, 1),  # F_4: one fixed factor and one pair
    (3, 1, 2, 1, 2),  # r = 1, e = 9
    (2, 1, 1, 1, 1),  # r = 1
    (5, 1, 1, 6, 4),  # two pairs
    (7, 1, 1, 48, 6),  # six pairs of quartics
    (3, 1, 1, 8, 1),  # three fixed factors and a pair
]


@SETTINGS
@given(
    ring=st.sampled_from(STREAM_RINGS),
    selfdual=st.booleans(),
    limit=st.integers(0, 150),
)
@example(ring=(3, 2, 1, 8, 1), selfdual=True, limit=0)
@example(ring=(7, 1, 1, 48, 6), selfdual=True, limit=150)
def test_stream_lines_are_the_code_json_of_each_code(ring, selfdual, limit):
    """enumerate and selfdual --limit write, line for line,
    _dumps(code_json(code)) of each code the library streams."""
    params = AmbientParams.of_ints(*ring)
    field = params.field
    flags = ["--p", str(ring[0]), "--m", str(ring[1]), "--s", str(ring[2]), "--n", str(ring[3])]
    fd = factor_data(params)
    if selfdual and params.lam_self_paired():
        nu = 1 if params.lam == 1 else -1
        argv = ["selfdual", *flags, "--nu", str(nu)]
        codes = islice(enumerate_self_dual(fd, nu), limit)
    else:
        argv = ["enumerate", *flags, "--lambda", json.dumps(cli.fieldelem_json(field, params.lam))]
        codes = enumerate_codes(fd, limit)
    want = "".join(cli._dumps(cli.code_json(code)) + "\n" for code in codes)
    assert run_main([*argv, "--limit", str(limit)]) == (0, want, "")


# -- the flag table against argparse -------------------------------------------


def _ring_args(sub, need_lambda=True):
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--m", type=int, default=1)
    sub.add_argument("--s", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--modulus", type=cli._modulus_arg, default=None)
    if need_lambda:
        sub.add_argument("--lambda", dest="lam", type=str, required=True)


@functools.cache
def reference_parser():
    """The argparse parser the CLI read its command line with before
    cli.build_parser's flag table."""
    ap = argparse.ArgumentParser(prog="ccring")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in [("info", cli.cmd_info), ("idempotents", cli.cmd_idempotents), ("count", cli.cmd_count)]:
        sp = sub.add_parser(name)
        _ring_args(sp)
        sp.add_argument("--output", default="-")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("enumerate")
    _ring_args(sp)
    sp.add_argument("--limit", type=cli._limit_arg, default=None)
    sp.add_argument("--output", default="-")
    sp.set_defaults(fn=cli.cmd_enumerate)

    sp = sub.add_parser("dual")
    sp.add_argument("--input", default="-")
    sp.add_argument("--output", default="-")
    sp.set_defaults(fn=cli.cmd_dual)

    sp = sub.add_parser("selfdual")
    _ring_args(sp, need_lambda=False)
    sp.add_argument("--nu", type=int, choices=(1, -1), default=-1)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--limit", type=cli._limit_arg, default=None)
    sp.add_argument("--output", default="-")
    sp.set_defaults(fn=cli.cmd_selfdual)

    sp = sub.add_parser("verify")
    sp.add_argument("--level", choices=("quick", "full"), default="quick")
    sp.add_argument("--output", default="-")
    sp.set_defaults(fn=cli.cmd_verify)
    return ap


def outcome(parse, line):
    """vars() of what parse makes of line, or "help", or "rejected"."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = parse(line)
    except SystemExit as ex:  # argparse ends a help request or a rejection this way
        return "help" if ex.code == 0 else "rejected"
    except cli.UsageError:
        return "rejected"
    return "help" if args.fn is cli._print_help else vars(args)


portable_junk = junk.filter(portable)


@settings(SETTINGS, max_examples=400)
@given(line=argv(commands=COMMANDS, junk=portable_junk, files=True))
@example(line=["count", "--p", "5", "--s", "1", "--n", "6", "--lam", "-1"])
@example(line=["count", "--p=5", "--s=1", "--n=6", "--lambda=-1", "--p", "7"])
@example(line=["count", "--p", "5", "--s", "1", "--n", "6", "--lambda", "-x"])
@example(line=["selfdual", "--p", "3", "--s", "1", "--n", "8", "--c", "--nu", "2"])
@example(line=["enumerate", "-h", "--l", "1"])
@example(line=["--bogus", "count", "-h"])
@example(line=["-h", "bogus"])
@example(line=["verify", "--level", "nope"])
@example(line=[])
def test_flag_table_reads_every_line_as_argparse(line):
    expected = outcome(reference_parser().parse_args, line)
    assert outcome(cli._parser().parse, line) == expected, line
    if expected == "help":
        code, out, err = run_main(line)
        assert code == 0 and out.startswith("usage:") and err == ""
    elif expected == "rejected":
        code, out, err = run_main(line)
        assert code == 2 and out == "" and err.startswith("usage:") and " error: " in err
        assert err.count("\n") == 2, err
