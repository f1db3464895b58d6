"""Command line front end.

Commands take the ring parameters as flags and print JSON (single
documents) or NDJSON (streams).  Counts are printed as decimal strings
since they overflow 64-bit integers quickly, and may run past the
interpreter's int-to-str digit limit (see decimal).

Exit codes: 0 on success, 2 when parameters fail validation or the
output cannot be written, 3 when a verify run reports a failure.  A
reader that closes the pipe early (`ccring enumerate ... | head`) chose
to stop: the run ends with exit code 0 and writes nothing to stderr.
verify still exits 3 then, unless the whole suite ran and passed, since
a cut-off run proves nothing.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import io
import json
import os
import re
import sys
import time
from contextlib import nullcontext
from itertools import chain, islice

from .decomp import (
    AmbientParams,
    FactorData,
    build_factor_data,
    factor_data,
    factor_degrees,
    memoized,
    ring_field,
)
from .dual import count_self_dual_params, dual_code, enumerate_self_dual, nu_value
from .errors import CcringError
from .gf import FieldCtx
from .ideals import (
    CodeSpec,
    IdealSpec,
    code_size,
    count_codes,
    count_codes_by_degree,
    count_ideals_params,
    enumerate_codes,
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
    fd = code.fd
    field = fd.params.field
    return {
        "params": params_json(fd.params),
        "factors": [poly_json(field, f) for f in fd.factors],
        "components": [ideal_json(field, c) for c in code.components],
        "size": decimal(code_size(code)),
    }


def parse_code(doc, cache: dict | None = None) -> CodeSpec:
    """The code a document describes.

    Its ring is keyed on the compact text of its params and factors, and
    set up once while the process keeps that text (decomp.MEMO_SIZE
    texts, cleared with decomp.clear_memo), so a later document of the
    ring, in this input or another, does no parsing or checking of the
    ring.  cache, when given, also maps each text to its FactorData, so
    documents of one input share their ring however many rings come
    between them.
    """
    params = _member(doc, "params")
    key = _dumps([params, doc["factors"]] if "factors" in doc else [params])
    cache = {} if cache is None else cache
    if key not in cache:
        cache[key] = _ring(key)
    fd = cache[key]
    comps = tuple(parse_ideal(fd.params.field, c) for c in _member(doc, "components", list))
    return CodeSpec(fd, comps)


@memoized
def _ring(key: str) -> FactorData:
    """The FactorData of the params and factors in key, set up through
    the decomp memo; key holds the whole ring, so it fixes the result."""
    return _parse_factor_data(dict(zip(("params", "factors"), json.loads(key))))


def _parse_factor_data(doc) -> FactorData:
    params = parse_params(doc["params"])
    if "factors" not in doc:
        return factor_data(params)
    factors = [parse_poly(params.field, f) for f in _member(doc, "factors", list)]
    # x^n - lambda0 is squarefree, so monic factors with its product and
    # its factor degrees are its irreducible factors
    degrees = sorted(f.degree for f in factors)
    if degrees != factor_degrees(params) or not all(f.is_monic() for f in factors):
        raise CcringError("'factors' must be the monic irreducible factors of x^n - lambda0")
    return factor_data(params, factors)


def factor_data_json(fd: FactorData):
    params, field = fd.params, fd.params.field
    doc = {
        "params": params_json(params),
        "lambda0": fieldelem_json(field, fd.lam0),
        "factors": [
            {
                "poly": poly_json(field, f),
                "degree": f.degree,
                "count": decimal(count_ideals_params(params.p, params.m, f.degree, params.s)),
            }
            for f in fd.factors
        ],
        "idempotents": [poly_json(field, e) for e in fd.idempotents],
        "total": decimal(count_codes(fd)),
    }
    if fd.tau is not None:
        doc["tau"] = [t + 1 for t in fd.tau]
        doc["delta"] = [fieldelem_json(field, d) for d in fd.delta]
        doc["rho"] = fd.rho
        doc["pair_count"] = fd.pair_count
    return doc


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


_SPACE = re.compile(r"[ \t\n\r]*")
# a JSON string, or the rest of the line after an unclosed quote
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"?')


def _documents(lines):
    """The whitespace-separated JSON documents of a text read line by
    line: NDJSON, pretty-printed documents, or several on one line.

    Lines are decoded once they close every bracket they open (a JSON
    string holds no newline), so each document is yielded as soon as its
    last line is read.  A text without any document is bad input.
    """
    decoder = json.JSONDecoder()
    buf, depth = "", 0  # the lines not decoded yet, and their bracket depth
    base_chars = base_lines = 0  # the text before buf, for error positions
    found = False
    for line in chain(lines, [None]):  # None: the end of the text
        if line is not None:
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
            found = True
            yield doc
            pos = _SPACE.match(buf, pos).end()
        base_chars += len(buf)
        base_lines += buf.count("\n")
        buf, depth = "", 0
    if not found:
        raise CcringError("no JSON document in the input")


# -- argument plumbing ---------------------------------------------------------


def _ring_args(sub, need_lambda=True):
    sub.add_argument("--p", type=int, required=True, help="characteristic (prime)")
    sub.add_argument("--m", type=int, default=1, help="extension degree of the residue field")
    sub.add_argument("--s", type=int, required=True, help="exponent in the length n*p^s")
    sub.add_argument("--n", type=int, required=True, help="prime-to-p part of the length")
    sub.add_argument(
        "--modulus",
        type=_modulus_arg,
        default=None,
        help="field modulus as comma-separated F_p coefficients, little-endian",
    )
    if need_lambda:
        sub.add_argument(
            "--lambda",
            dest="lam",
            type=str,
            required=True,
            help="unit of the residue field: integer for m=1 (-1 allowed), JSON array for m>1",
        )


def _modulus_arg(text: str):
    if not text:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _limit_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_lambda(field: FieldCtx, text: str) -> int:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise CcringError("--lambda nested too deeply") from None
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
    # built afresh: the idempotents it reads are r polynomials of length
    # N, which the memo would keep for the rest of the process
    fd = build_factor_data(_params(args))
    with _stream(args.output, "w") as out:
        print(_dumps(factor_data_json(fd)), file=out)
    return 0


def cmd_idempotents(args) -> int:
    fd = build_factor_data(_params(args))  # afresh, as for info
    field = fd.params.field
    with _stream(args.output, "w") as out:
        print(_dumps([poly_json(field, e) for e in fd.idempotents]), file=out)
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
        for code in enumerate_codes(fd, args.limit):
            print(_dumps(code_json(code)), file=out)
    return 0


def cmd_dual(args) -> int:
    # documents of one ring share its FactorData, and so the dual's:
    # within this input through fds, which the memo's bound does not
    # limit, and across calls through parse_code's memo of ring texts
    fds: dict = {}
    with _stream(args.input, "r") as src, _stream(args.output, "w") as out:
        for doc in _documents(_text_lines(src, universal=src is not sys.stdin)):
            # flushed per document, so a pipe gets each answer at once
            print(_dumps(code_json(dual_code(parse_code(doc, fds)))), file=out, flush=True)
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
        for code in islice(enumerate_self_dual(fd, args.nu), args.limit):
            print(_dumps(code_json(code)), file=out)
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ccring",
        description="classify, count, enumerate and dualize constacyclic codes "
        "over F_{p^m} + u F_{p^m}",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="factors, idempotents, pairing and counts")
    _ring_args(sp)
    sp.add_argument("--output", default="-")
    sp.set_defaults(fn=cmd_info)

    sp = sub.add_parser("idempotents", help="the primitive idempotents")
    _ring_args(sp)
    sp.add_argument("--output", default="-")
    sp.set_defaults(fn=cmd_idempotents)

    sp = sub.add_parser("count", help="number of codes in the ambient ring")
    _ring_args(sp)
    sp.add_argument("--output", default="-")
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("enumerate", help="stream codes as NDJSON")
    _ring_args(sp)
    sp.add_argument("--limit", type=_limit_arg, default=None)
    sp.add_argument("--output", default="-")
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("dual", help="dual of a code spec read as JSON")
    sp.add_argument("--input", default="-", help="path of the code JSON, - for stdin")
    sp.add_argument("--output", default="-")
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("selfdual", help="self-dual codes for lambda = nu")
    _ring_args(sp, need_lambda=False)
    sp.add_argument("--nu", type=int, choices=(1, -1), default=-1)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--limit", type=_limit_arg, default=None)
    sp.add_argument("--output", default="-")
    sp.set_defaults(fn=cmd_selfdual)

    sp = sub.add_parser("verify", help="run the brute-force oracle suite")
    sp.add_argument("--level", choices=("quick", "full"), default="quick")
    sp.add_argument("--output", default="-")
    sp.set_defaults(fn=cmd_verify)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    args = _parser().parse_args(argv)
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
    except json.JSONDecodeError as ex:
        print(f"error: bad JSON input: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
