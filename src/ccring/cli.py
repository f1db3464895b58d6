"""Command line front end.

Commands take the ring parameters as flags and print JSON (single
documents) or NDJSON (streams).  Counts are printed as decimal strings
since they overflow 64-bit integers quickly, and may run past the
interpreter's int-to-str digit limit (see decimal).

The command line is read by one table of each command's flags (see
build_parser), which also gives the -h text and the usage line of a
rejected line; the parser is built once per process.  A flag's value
follows it or an "=", and a flag may be cut to any prefix that begins
no other flag of its command.  A rejected line prints the usage line
and one "ccring <command>: error: ..." line to stderr.

Exit codes: 0 on success (and for -h), 2 for a rejected command line,
parameters that fail validation or output that cannot be written, 3
when a verify run reports a failure.  A
reader that closes the pipe early (`ccring enumerate ... | head`) chose
to stop: the run ends with exit code 0 and writes nothing to stderr.
verify still exits 3 then, unless the whole suite ran and passed, since
a cut-off run proves nothing.
"""

from __future__ import annotations

import codecs
import functools
import io
import json
import os
import re
import sys
import time
from collections import Counter
from contextlib import nullcontext
from itertools import chain, islice
from math import prod
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .decomp import (
    AmbientParams,
    FactorData,
    build_factor_data,
    factor_data,
    factor_degrees,
    memoized,
    ring_field,
)
from .dual import count_self_dual_params, dual_component, dual_factor_data, enumerate_self_dual, nu_value
from .errors import CcringError
from .gf import FieldCtx
from .ideals import (
    CodeSpec,
    IdealSpec,
    code_size,
    count_codes_by_degree,
    count_ideals_params,
    enumerate_codes,
    ideal_size,
    validate_spec,
)
from .oracle import verify_suite
from .poly import Poly


# -- JSON encoding -------------------------------------------------------------


def decimal(n: int) -> str:
    """str(n) for an int of any size.

    Python 3.11+ refuses str() past sys.get_int_max_str_digits() digits
    (4300 by default).  Past that limit the number is split by a power
    of ten into halves that are converted on their own; below it the
    result is plain str(n).
    """
    try:
        return str(n)
    except ValueError:
        return _split_decimal(n, 3 * sys.get_int_max_str_digits())


def _split_decimal(n: int, max_bits: int) -> str:
    # max_bits bits make at most 0.302 * max_bits digits: under the limit
    if n.bit_length() <= max_bits:
        return str(n)
    k = int(n.bit_length() * 0.30103) // 2
    hi, lo = divmod(n, 10**k)
    return _split_decimal(hi, max_bits) + _split_decimal(lo, max_bits).rjust(k, "0")


def _member(doc, key: str, kind=None, what: str = "document"):
    """doc[key] with a CcringError, not a KeyError or TypeError, on bad input."""
    if not isinstance(doc, dict):
        raise CcringError(f"{what} must be a JSON object")
    if key not in doc:
        raise CcringError(f"{what} lacks {key!r}")
    value = doc[key]
    if kind is not None and not _is_kind(value, kind):
        raise CcringError(f"{what} field {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _is_kind(value, kind) -> bool:
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def fieldelem_json(field: FieldCtx, v: int):
    if field.m == 1:
        return v
    return list(field.decode(v))


def parse_fieldelem(field: FieldCtx, doc) -> int:
    if field.m == 1:
        if not _is_kind(doc, int):
            raise CcringError(f"field element must be an integer, got {doc!r}")
        return doc % field.p
    if not isinstance(doc, list) or len(doc) != field.m or not all(_is_kind(c, int) for c in doc):
        raise CcringError(f"field element must be a list of {field.m} integers, got {doc!r}")
    return field.encode([c % field.p for c in doc])


def poly_json(field: FieldCtx, a: Poly):
    if field.m == 1:  # an F_p element is its own JSON integer
        return list(a.coeffs)
    return [fieldelem_json(field, c) for c in a.coeffs]


def parse_poly(field: FieldCtx, doc) -> Poly:
    if not isinstance(doc, list):
        raise CcringError("polynomial must be a coefficient array")
    return Poly(field, [parse_fieldelem(field, c) for c in doc])


def params_json(params: AmbientParams):
    doc = {
        "p": params.p,
        "m": params.m,
        "s": params.s,
        "n": params.n,
        "lambda": fieldelem_json(params.field, params.lam),
    }
    if params.m > 1:
        doc["modulus"] = list(params.field.modulus)
    return doc


def parse_params(doc) -> AmbientParams:
    p, m, s, n = (_member(doc, key, int, "params") for key in ("p", "m", "s", "n"))
    modulus = None
    if "modulus" in doc:
        modulus = _member(doc, "modulus", list, "params")
        if not all(_is_kind(c, int) for c in modulus):
            raise CcringError("params field 'modulus' must hold integers")
        modulus = tuple(modulus)
    field = ring_field(p, m, s, n, modulus)
    return AmbientParams(field, s, n, parse_fieldelem(field, _member(doc, "lambda", what="params")))


def ideal_json(field: FieldCtx, spec: IdealSpec):
    doc = {"case": spec.case}
    if spec.k is not None:
        doc["k"] = spec.k
    if spec.t is not None:
        doc["t"] = spec.t
    if spec.b is not None:
        doc["b"] = poly_json(field, spec.b)
    return doc


def parse_ideal(field: FieldCtx, doc) -> IdealSpec:
    case = _member(doc, "case", str, "component")
    return IdealSpec(
        case,
        k=_member(doc, "k", int, "component") if "k" in doc else None,
        t=_member(doc, "t", int, "component") if "t" in doc else None,
        b=parse_poly(field, doc["b"]) if "b" in doc else None,
    )


def code_json(code: CodeSpec):
    """The document of a code as a dict; enumerate and selfdual write
    its text with _write_codes."""
    fd = code.fd
    field = fd.params.field
    return {
        "params": params_json(fd.params),
        "factors": [poly_json(field, f) for f in fd.factors],
        "components": [ideal_json(field, c) for c in code.components],
        "size": decimal(code_size(code)),
    }


def parse_code(doc) -> CodeSpec:
    """The code a document describes, over the ring decomp.factor_data
    keeps for its params and factors, so a later document of the ring,
    in this input or another, builds and checks no ring again."""
    fd = _parse_ring(doc)
    comps = tuple(parse_ideal(fd.params.field, c) for c in _member(doc, "components", list))
    return CodeSpec(fd, comps)


def _parse_ring(doc) -> FactorData:
    params = parse_params(_member(doc, "params"))
    if "factors" not in doc:
        return factor_data(params)
    return factor_data(params, [parse_poly(params.field, f) for f in _member(doc, "factors", list)])


def _ring_key(doc) -> str:
    params = _member(doc, "params")  # a ring is kept by this text of its params and factors
    return _dumps([params, doc["factors"]] if "factors" in doc else [params])


def _head(fd: FactorData) -> str:
    """The text of a code document of fd's ring up to its first
    component: {"params":...,"factors":[...],"components":[."""
    field = fd.params.field
    head = _dumps({"params": params_json(fd.params), "factors": [poly_json(field, f) for f in fd.factors]})
    return head[:-1] + ',"components":['


def _component(key, spec: IdealSpec, fd: FactorData, j: int) -> tuple:
    """What a writer keeps of component j of a code of fd's ring: key,
    the component's text and its ideal's size."""
    return key, _dumps(ideal_json(fd.params.field, spec)), ideal_size(spec, fd.chain(j))


def _line(head: str, kept) -> str:
    """The text of the code document whose head and components are kept,
    as _dumps(code_json(code)) writes it."""
    size = decimal(prod(entry[2] for entry in kept))
    return f'{head}{",".join(entry[1] for entry in kept)}],"size":"{size}"}}'


def _write_codes(fd: FactorData, codes, out) -> None:
    """One line per code of fd's ring, _dumps(code_json(code)), from the
    ring's head text and per position the text and size of the last
    component written there, made again only when the position holds
    another spec object: the streams keep every component they do not
    move."""
    head, kept = _head(fd), [None] * fd.r
    for code in codes:
        for j, spec in enumerate(code.components):
            if kept[j] is None or kept[j][0] is not spec:
                kept[j] = _component(spec, spec, fd, j)
        print(_line(head, kept), file=out)


@memoized
def _dual_memo(key: str):
    """For the _ring_key text of a document, whose ring it fixes: the
    ring's FactorData and its dual's, the dual document's head, and per
    factor the last component document read, its dual's text and size."""
    fd = _parse_ring(dict(zip(("params", "factors"), json.loads(key))))
    dfd = dual_factor_data(fd)
    return fd, dfd, _head(dfd), [None] * fd.r


def _ints(comp) -> bool:
    """Whether the k, t and b of a component document hold ints only:
    == takes JSON true and 1.0 for 1, which parse_ideal refuses."""
    nums = [comp.get("k", 0), comp.get("t", 0), *comp.get("b", ())]
    return all(type(v) is int or type(v) is list and all(type(c) is int for c in v) for v in nums)


def _dual_text(doc) -> str:
    """_dumps(code_json(dual_code(parse_code(doc)))), errors in order, at the
    cost of the components that differ from the ring's last document: all
    are parsed, then validated and transported; the others reuse their text."""
    fd, dfd, head, kept = _dual_memo(_ring_key(doc))
    comps = _member(doc, "components", list)
    if len(comps) != fd.r:
        parse_code(doc)  # raises the parse error or the component count's
    changed = [j for j, c in enumerate(comps) if kept[j] is None or kept[j][0] != c or not _ints(c)]
    specs = [parse_ideal(fd.params.field, comps[j]) for j in changed]
    specs = [validate_spec(spec, fd.chain(j)) for j, spec in zip(changed, specs)]
    for j, spec in zip(changed, specs):
        kept[j] = _component(comps[j], dual_component(spec, j, fd, dfd.chain(j)), dfd, j)
    return _line(head, kept)


def factor_data_json(fd: FactorData) -> str:
    """The text of info's document.

    count_ideals_params runs once per distinct factor degree, and the
    total is the product of those counts.  The idempotents' text comes
    from idempotents_json, spliced in between "factors" and "total".
    """
    params, field = fd.params, fd.params.field
    degrees = Counter(f.degree for f in fd.factors)
    counts = {d: count_ideals_params(params.p, params.m, d, params.s) for d in degrees}
    texts = {d: decimal(c) for d, c in counts.items()}
    head = {
        "params": params_json(params),
        "lambda0": fieldelem_json(field, fd.lam0),
        "factors": [
            {"poly": poly_json(field, f), "degree": f.degree, "count": texts[f.degree]}
            for f in fd.factors
        ],
    }
    tail = {"total": decimal(prod(counts[d] ** k for d, k in degrees.items()))}
    if fd.tau is not None:
        tail["tau"] = [t + 1 for t in fd.tau]
        tail["delta"] = [fieldelem_json(field, d) for d in fd.delta]
        tail["rho"] = fd.rho
        tail["pair_count"] = fd.pair_count
    return f'{_dumps(head)[:-1]},"idempotents":{idempotents_json(fd)},{_dumps(tail)[1:]}'


def idempotents_json(fd: FactorData) -> str:
    """The text of [poly_json(field, eps_j) for each j], written from
    the untwisted w_j (decomp): eps_j = frobenius(w_j, s) has c^(p^s) at
    x^(i p^s) for each coefficient c = w_j[i] and the zero element
    between, so its text is those coefficients' texts joined by runs of
    p^s - 1 zeros, and no list of length N is built."""
    field, e = fd.params.field, fd.params.e
    if field.m == 1:  # c^(p^s) = c on F_p
        sep, text = "," + "0," * (e - 1), str
    else:
        sep = "," + (_dumps(fieldelem_json(field, 0)) + ",") * (e - 1)

        def text(c):
            return _dumps(fieldelem_json(field, field.pow(c, e)))

    return "[" + ",".join("[" + sep.join(map(text, w.coeffs)) + "]" for w in fd.root_idempotents) + "]"


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


_SPACE = re.compile(r"[ \t\n\r]*")
# a JSON string, or the rest of the line after an unclosed quote
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"?')


def _documents(lines):
    """The whitespace-separated JSON documents of a text read line by
    line: NDJSON, pretty-printed documents, or several on one line.

    A line that starts no document held over from earlier lines is
    decoded at once; when one document takes all of it but whitespace,
    as each line of NDJSON does, that document is yielded and the line
    is read no further.  Any other line goes to the scan: lines are
    decoded once they close every bracket they open (a JSON string holds
    no newline), so each document is yielded as soon as its last line is
    read, and errors are placed from the start of the text.  A text
    without any document is bad input.
    """
    decoder = json.JSONDecoder()
    buf, depth = "", 0  # the lines not decoded yet, and their bracket depth
    base_chars = base_lines = 0  # the text before buf, for error positions
    found = False
    for line in chain(lines, [None]):  # None: the end of the text
        if line is not None:
            if not buf:
                try:
                    doc, end = decoder.raw_decode(line, _SPACE.match(line).end())
                except (ValueError, RecursionError):  # the scan meets it again
                    end = 0
                if end and _SPACE.match(line, end).end() == len(line):
                    base_chars += len(line)
                    base_lines += line.count("\n")
                    found = True
                    yield doc
                    continue
            buf += line
            bare = _STRING.sub("", line)  # brackets inside strings do not count
            depth += bare.count("[") + bare.count("{") - bare.count("]") - bare.count("}")
            if depth > 0:
                continue
        pos = _SPACE.match(buf).end()
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
            except ValueError:
                raise _long_int() from None
            found = True
            yield doc
            pos = _SPACE.match(buf, pos).end()
        base_chars += len(buf)
        base_lines += buf.count("\n")
        buf, depth = "", 0
    if not found:
        raise CcringError("no JSON document in the input")


def _long_int() -> CcringError:
    # json raises a plain ValueError for an int it may not convert: the
    # limit guards the parser against quadratic-time conversions
    return CcringError(f"bad JSON input: an integer of more than {sys.get_int_max_str_digits()} digits")


# -- argument plumbing ---------------------------------------------------------


def _modulus_arg(text: str):
    if not text:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise UsageError(f"not comma-separated integers: {text!r}") from None


def _limit_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"not an integer: {text!r}") from None
    if value < 0:
        raise UsageError(f"must be >= 0, got {value}")
    return value


def _parse_lambda(field: FieldCtx, text: str) -> int:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise CcringError("--lambda nested too deeply") from None
    except json.JSONDecodeError as ex:
        raise CcringError(f"bad JSON input: {ex}") from None
    except ValueError:
        raise _long_int() from None
    if isinstance(doc, int) and doc == -1:
        return field.neg(1)
    return parse_fieldelem(field, doc)


def _params(args, nu=None) -> AmbientParams:
    """The ring of the flags; lambda = nu when nu is given, else --lambda."""
    field = ring_field(args.p, args.m, args.s, args.n, args.modulus)
    lam = _parse_lambda(field, args.lam) if nu is None else nu_value(field, nu)
    return AmbientParams(field, args.s, args.n, lam)


def _stream(path: str, mode: str):
    """The file at path, or stdin or stdout (by mode) for "-"."""
    if not path or path == "-":
        return nullcontext(sys.stdin if mode == "r" else sys.stdout)
    try:
        return open(path, mode)
    except OSError as ex:
        raise CcringError(f"cannot open {path!r}: {ex.strerror}") from None


def _text_lines(fh, universal: bool):
    """The lines of fh as they arrive; bytes that do not decode are bad input.

    A stream with a binary buffer is read from the buffer a line at a
    time and decoded here, so such a byte is placed from the start of
    the input, not from the start of a text layer's read-ahead chunk.
    universal translates \\r\\n and \\r to \\n, as a file opened in
    text mode does; stdin does not.
    """
    raw = getattr(fh, "buffer", None)
    if raw is None:  # a text-only stream, such as io.StringIO
        yield from fh
        return
    inner = codecs.getincrementaldecoder(fh.encoding)(fh.errors)
    decoder = io.IncrementalNewlineDecoder(inner, universal)
    read = 0  # bytes read so far; the decoder may hold the last few back
    for line in chain(raw, [b""]):  # b"": the end of the input
        start = read - len(decoder.getstate()[0])  # offset of the bytes it decodes next
        try:
            text = decoder.decode(line, final=not line)
        except UnicodeDecodeError as ex:
            raise CcringError(
                f"input is not {ex.encoding} text: {ex.reason} at byte {start + ex.start}"
            ) from None
        read += len(line)
        if text:
            yield text


# -- commands ------------------------------------------------------------------


def cmd_info(args) -> int:
    # built afresh: the root idempotents it reads, r polynomials of
    # length n, would otherwise stay in the memo with the ring for the
    # rest of the process
    fd = build_factor_data(_params(args))
    with _stream(args.output, "w") as out:
        print(factor_data_json(fd), file=out)
    return 0


def cmd_idempotents(args) -> int:
    fd = build_factor_data(_params(args))  # afresh, as for info
    with _stream(args.output, "w") as out:
        print(idempotents_json(fd), file=out)
    return 0


def cmd_count(args) -> int:
    # the count depends on the factor degrees only: no factors, no idempotents
    params = _params(args)
    total = count_codes_by_degree(params, factor_degrees(params))
    with _stream(args.output, "w") as out:
        print(decimal(total), file=out)
    return 0


def cmd_enumerate(args) -> int:
    # through the memo: `dual` on the output comes back to this ring
    fd = factor_data(_params(args))
    with _stream(args.output, "w") as out:
        _write_codes(fd, enumerate_codes(fd, args.limit), out)
    return 0


def cmd_dual(args) -> int:
    # a document pays for the components that changed from the last
    # document of its ring, which keeps their dual texts (_dual_text)
    with _stream(args.input, "r") as src, _stream(args.output, "w") as out:
        for doc in _documents(_text_lines(src, universal=src is not sys.stdin)):
            # flushed per document, so a pipe gets each answer at once
            print(_dual_text(doc), file=out, flush=True)
    return 0


def cmd_selfdual(args) -> int:
    params = _params(args, args.nu)
    if args.count_only:
        # the count depends on the factor degrees only: no factors, no kernels
        total = count_self_dual_params(params, args.nu)
        with _stream(args.output, "w") as out:
            print(decimal(total), file=out)
        return 0
    # through the memo: `dual` on the output comes back to this ring
    fd = factor_data(params)
    with _stream(args.output, "w") as out:
        _write_codes(fd, islice(enumerate_self_dual(fd, args.nu), args.limit), out)
    return 0


def cmd_verify(args) -> int:
    """One line per check, ending with the check's wall time."""
    failures = 0
    with _stream(args.output, "w") as out:
        start = time.perf_counter()
        for name, ok, detail in verify_suite(args.level):
            tag = "PASS" if ok else "FAIL"
            print(f"{tag}  {name}: {detail} ({time.perf_counter() - start:.2f} s)", file=out)
            if not ok:
                failures += 1
            start = time.perf_counter()
        print(f"{'OK' if not failures else 'FAILED'} ({failures} failures)", file=out)
    return 3 if failures else 0


# -- command line ----------------------------------------------------------------


class UsageError(ValueError):
    """A command line, or a flag value, that the parser rejects; main
    prints the usage line and the message, and returns 2."""


class Flag(NamedTuple):
    """One flag of a command: its converted value goes to dest.

    convert is None for a switch, which takes no value and stores True.
    A required flag's default is None, which no converter returns.
    """

    name: str
    dest: str
    convert: Callable[[str], object] | None
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str = ""


class Command(NamedTuple):
    fn: Callable
    help: str
    flags: tuple[Flag, ...]


_HELP = Flag("--help", "help", None, help="show this help message and exit")

# a negative number is a value, not a flag
_NUMBER = re.compile(r"-\d*\.?\d+")


def _is_flag(token: str) -> bool:
    return token[:1] == "-" and (token[1:2] == "-" or (len(token) > 1 and not _NUMBER.fullmatch(token)))


def _lookup(flags) -> dict:
    """Each name of flags and of _HELP, and each prefix of one from "--"
    on, mapped to the flag it names, or to the names it could begin."""
    names = {"-h": _HELP, "--help": _HELP}
    names.update((f.name, f) for f in flags)
    begun: dict[str, list] = {}
    for name in names:
        for k in range(2, len(name)):
            begun.setdefault(name[:k], []).append(name)
    lookup = {prefix: names[ms[0]] if len(ms) == 1 else tuple(ms) for prefix, ms in begun.items()}
    lookup.update(names)  # a whole name wins over the longer names it begins
    return lookup


class Parser:
    """Reads a command line by the flag table of its command.

    The first token that is not a flag names the command; only -h may
    come before it.  A flag takes its value as the next token or after
    "=", and may be abbreviated to any prefix that begins no other flag
    of its command; the last of a repeated flag wins.  A token that
    starts with "-" and is not a negative number is a flag, never a
    value.  A line is rejected for a missing command or required flag,
    an unknown token, or a value its converter or choices refuse; -h
    asks for help unless an error comes before it (an unknown token
    counts only at the end, an ambiguous prefix anywhere), as argparse
    decides.
    """

    def __init__(self, description: str, commands: dict[str, Command]):
        self.description = description
        self.commands = commands
        self._lookups = {name: _lookup(c.flags) for name, c in commands.items()}
        self._lookups[None] = _lookup(())
        self._defaults = {name: {f.dest: f.default for f in c.flags} for name, c in commands.items()}
        self._required = {name: [f for f in c.flags if f.required] for name, c in commands.items()}

    def parse(self, argv) -> SimpleNamespace:
        """The command and the value of every flag (command and fn
        included), or for -h a namespace whose fn prints the help;
        UsageError for a rejected line."""
        argv = list(argv)
        start = 0
        while start < len(argv) and _is_flag(argv[start]):
            start += 1
        extras: list[str] = []  # unknown tokens, refused once no -h follows
        if start and self._read(None, argv[:start], {}, extras):
            return SimpleNamespace(command=None, fn=_print_help, help=self.help(None))
        if start == len(argv):
            raise self._error(None, "the following arguments are required: command")
        name = argv[start]
        command = self.commands.get(name)
        if command is None:
            choices = ", ".join(map(repr, self.commands))
            raise self._error(None, f"argument command: invalid choice: {name!r} (choose from {choices})")
        values = dict(self._defaults[name])
        if self._read(name, argv[start + 1 :], values, extras):
            return SimpleNamespace(command=None, fn=_print_help, help=self.help(name))
        missing = [f.name for f in self._required[name] if values[f.dest] is None]
        if missing:
            raise self._error(name, "the following arguments are required: " + ", ".join(missing))
        if extras:
            raise self._error(name, "unrecognized arguments: " + " ".join(extras))
        return SimpleNamespace(command=name, fn=command.fn, **values)

    def _read(self, name, tokens: list[str], values: dict, extras: list[str]) -> bool:
        """Store the flags of tokens in values; True when -h asks for help."""
        lookup = self._lookups[name]
        # per token, None for a value, else (flag or None, the text after
        # "=" or None); every flag is looked up before the first one
        # acts, so an ambiguous prefix is refused wherever it stands
        hits = []
        for token in tokens:
            if not _is_flag(token):
                hits.append(None)
                continue
            key, eq, text = token.partition("=")
            flag = lookup.get(key)
            if type(flag) is tuple:
                raise self._error(name, f"ambiguous option: {token} could match {', '.join(flag)}")
            hits.append((flag, text if eq else None))
        i = 0
        while i < len(tokens):
            hit = hits[i]
            i += 1
            if hit is None or hit[0] is None:  # a stray value or an unknown flag
                extras.append(tokens[i - 1])
                continue
            flag, text = hit
            if flag.convert is None:
                if text is not None:
                    raise self._error(name, f"argument {flag.name}: ignored explicit argument {text!r}")
                if flag is _HELP:
                    return True
                values[flag.dest] = True
                continue
            if text is None:
                if i == len(tokens) or hits[i] is not None:
                    raise self._error(name, f"argument {flag.name}: expected one argument")
                text = tokens[i]
                i += 1
            try:
                value = flag.convert(text)
            except ValueError as ex:
                why = str(ex) if isinstance(ex, UsageError) else f"invalid {flag.convert.__name__} value: {text!r}"
                raise self._error(name, f"argument {flag.name}: {why}") from None
            if flag.choices is not None and value not in flag.choices:
                choices = ", ".join(map(repr, flag.choices))
                raise self._error(name, f"argument {flag.name}: invalid choice: {value!r} (choose from {choices})")
            values[flag.dest] = value
        return False

    def _error(self, name, message: str) -> UsageError:
        prog = "ccring" if name is None else f"ccring {name}"
        return UsageError(f"{self.usage(name)}\n{prog}: error: {message}")

    def usage(self, name) -> str:
        if name is None:
            return "usage: ccring [-h] {" + ",".join(self.commands) + "} ..."
        parts = [f"usage: ccring {name} [-h]"]
        for flag in self.commands[name].flags:
            part = f"{flag.name} {_metavar(flag)}".rstrip()
            parts.append(part if flag.required else f"[{part}]")
        return " ".join(parts)

    def help(self, name) -> str:
        if name is None:
            about, heading = self.description, "commands:"
            rows = [(command, c.help) for command, c in self.commands.items()]
        else:
            about, heading = self.commands[name].help, "options:"
            rows = [("-h, --help", _HELP.help)]
            for flag in self.commands[name].flags:
                default = "" if flag.required or flag.default is None else f" (default: {flag.default})"
                rows.append((f"{flag.name} {_metavar(flag)}".rstrip(), flag.help + default))
        width = max(len(row[0]) for row in rows) + 2
        lines = [self.usage(name), "", about, "", heading]
        lines += [f"  {left.ljust(width)}{right}".rstrip() for left, right in rows]
        return "\n".join(lines) + "\n"


def _metavar(flag: Flag) -> str:
    if flag.convert is None:
        return ""
    if flag.choices is not None:
        return "{" + ",".join(map(str, flag.choices)) + "}"
    return flag.name[2:].upper().replace("-", "_")


def _print_help(args) -> int:
    sys.stdout.write(args.help)
    return 0


def _ring_flags(need_lambda=True) -> list[Flag]:
    flags = [
        Flag("--p", "p", int, required=True, help="characteristic (prime)"),
        Flag("--m", "m", int, 1, help="extension degree of the residue field"),
        Flag("--s", "s", int, required=True, help="exponent in the length n*p^s"),
        Flag("--n", "n", int, required=True, help="prime-to-p part of the length"),
        Flag(
            "--modulus",
            "modulus",
            _modulus_arg,
            help="field modulus as comma-separated F_p coefficients, little-endian",
        ),
    ]
    if need_lambda:
        flags.append(
            Flag(
                "--lambda",
                "lam",
                str,
                required=True,
                help="unit of the residue field: integer for m=1 (-1 allowed), JSON array for m>1",
            )
        )
    return flags


def build_parser() -> Parser:
    output = Flag("--output", "output", str, "-", help="path of the output, - for stdout")
    limit = Flag("--limit", "limit", _limit_arg, help="stop after this many codes")

    def command(fn, about, *flags):
        return Command(fn, about, tuple(flags) + (output,))

    return Parser(
        "classify, count, enumerate and dualize constacyclic codes over F_{p^m} + u F_{p^m}",
        {
            "info": command(cmd_info, "factors, idempotents, pairing and counts", *_ring_flags()),
            "idempotents": command(cmd_idempotents, "the primitive idempotents", *_ring_flags()),
            "count": command(cmd_count, "number of codes in the ambient ring", *_ring_flags()),
            "enumerate": command(cmd_enumerate, "stream codes as NDJSON", *_ring_flags(), limit),
            "dual": command(
                cmd_dual,
                "dual of a code spec read as JSON",
                Flag("--input", "input", str, "-", help="path of the code JSON, - for stdin"),
            ),
            "selfdual": command(
                cmd_selfdual,
                "self-dual codes for lambda = nu",
                *_ring_flags(need_lambda=False),
                Flag("--nu", "nu", int, -1, choices=(1, -1), help="lambda of the self-dual codes"),
                Flag("--count-only", "count_only", None, False, help="print the number of codes only"),
                limit,
            ),
            "verify": command(
                cmd_verify,
                "run the brute-force oracle suite",
                Flag("--level", "level", str, "quick", choices=("quick", "full"), help="which suite to run"),
            ),
        },
    )


@functools.cache
def _parser() -> Parser:
    """build_parser() at the first main() call, shared by later calls."""
    return build_parser()


def _drop_stdout() -> None:
    """Point stdout at devnull, so the flush of what it still buffers at
    interpreter exit cannot raise again; an in-memory stdout is left."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return
    os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def main(argv=None) -> int:
    try:
        args = _parser().parse(sys.argv[1:] if argv is None else argv)
    except UsageError as ex:
        print(ex, file=sys.stderr)
        return 2
    status = None
    try:
        status = args.fn(args)
        # a closed pipe shows up here, not at interpreter exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader stopped reading: end quietly
        _drop_stdout()
        if status is None and args.command == "verify":
            return 3  # a suite cut off before its end did not pass
        return status or 0
    except OSError as ex:
        # a full disk or a failing device: the output is lost, so say so once
        _drop_stdout()
        print(f"error: cannot write output: {ex.strerror or ex}", file=sys.stderr)
        return 2
    except CcringError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
