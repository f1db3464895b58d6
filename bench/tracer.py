"""Tracing from outside the program.

The tracer replaces chosen ccring functions with wrappers at every
module attribute and class attribute that binds them (``from .x import
y`` copies a binding, so patching only the defining module would miss
callers), records spans and counters while installed, and puts every
original back on ``remove()``.  Nothing under ``src/`` is edited.

Three wrapper kinds:

* ``span``: inclusive time (``total_s``, outermost call of a name only,
  so recursion is not double counted), self time (``self_s``: the
  span's duration minus the part covered by child spans) and calls.
  Spans marked ``record`` are also kept as (name, start, end, parent,
  op id) rows and written out at the end of a run.
* ``count``: call counter only, for functions called millions of times
  (field arithmetic), where a span per call would cost more than the
  work it measures.
* ``gen``: generator functions; records calls, items yielded and the
  time spent producing the first item of each call (``first_yield_s``,
  summed over calls).
"""

from __future__ import annotations

import functools
import sys
import time

clock = time.perf_counter

# (metric prefix, wrapper kind, module, qualified name, record spans)
TARGETS = [
    ("gf.field_new", "span", "ccring.gf", "field_new", True),
    ("gf.mul", "gfmul", "ccring.gf", "FieldCtx.mul", False),
    ("gf.add", "count", "ccring.gf", "FieldCtx.add", False),
    ("gf.inv", "count", "ccring.gf", "FieldCtx.inv", False),
    ("poly.mul", "span", "ccring.poly", "Poly.__mul__", False),
    ("poly.mul_school", "count", "ccring.poly", "_mul_school", False),
    ("poly.mul_conv", "count", "ccring.poly", "_mul_conv", False),
    ("poly.divmod", "span", "ccring.poly", "Poly.__divmod__", False),
    ("poly.modpow", "span", "ccring.poly", "poly_modpow", False),
    ("poly.xgcd", "span", "ccring.poly", "poly_xgcd", False),
    ("poly.factor", "span", "ccring.poly", "factor_squarefree", True),
    ("chain.init", "span", "ccring.chain", "ChainCtx.__init__", True),
    ("chain.residue_set", "gen", "ccring.chain", "ChainCtx.residue_set", False),
    ("chain.digit_polys", "gen", "ccring.chain", "ChainCtx.digit_polys", False),
    ("chain.f_adic", "span", "ccring.chain", "ChainCtx.f_adic", False),
    ("chain.window_reduce", "span", "ccring.chain", "ChainCtx.window_reduce", False),
    ("decomp.build_factor_data", "span", "ccring.decomp", "build_factor_data", True),
    ("decomp.factor_data_for", "span", "ccring.decomp", "factor_data_for", True),
    ("ideals.enumerate_codes", "gen", "ccring.ideals", "enumerate_codes", False),
    ("ideals.enumerate_ideals", "gen", "ccring.ideals", "enumerate_ideals", False),
    ("ideals.validate_spec", "span", "ccring.ideals", "validate_spec", False),
    ("ideals.count_codes", "span", "ccring.ideals", "count_codes", True),
    ("ideals.code_size", "count", "ccring.ideals", "code_size", False),
    ("dual.dual_code", "span", "ccring.dual", "dual_code", True),
    ("dual.dual_factor_data", "span", "ccring.dual", "dual_factor_data", True),
    ("dual.dual_component", "span", "ccring.dual", "dual_component", False),
    ("dual.count_self_dual", "span", "ccring.dual", "count_self_dual", True),
    ("dual.fixed_point", "span", "ccring.dual", "self_dual_component_options", True),
    ("dual.enumerate_self_dual", "gen", "ccring.dual", "enumerate_self_dual", False),
    ("oracle.code_space", "span", "ccring.oracle", "code_space", True),
    ("oracle.brute_dual", "span", "ccring.oracle", "brute_dual", True),
    ("oracle.brute_submodules", "span", "ccring.oracle", "brute_submodules", True),
    ("oracle.brute_ambient_ideals", "span", "ccring.oracle", "brute_ambient_ideals", True),
    ("cli.main", "span", "ccring.cli", "main", True),
    ("cli.build_parser", "span", "ccring.cli", "build_parser", True),
    ("cli.code_json", "span", "ccring.cli", "code_json", False),
    ("cli.parse_code", "span", "ccring.cli", "parse_code", True),
    ("cli.factor_data_json", "span", "ccring.cli", "factor_data_json", True),
]

# recorded spans kept in memory at most; later ones only aggregate
SPAN_CAP = 200_000


def _resolve(module: str, qualname: str):
    owner = sys.modules[module]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.stack: list[list] = []  # frames: [start, child_s, recorded span index]
        self.active: dict[str, int] = {}
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.dropped_spans = 0
        self.op_id = None
        self.paused = False  # set while the benchmark itself calls ccring
        self._op_first_span = 0
        self._patches: list[tuple] = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for prefix, kind, module, qualname, record in TARGETS:
            owner, attr = _resolve(module, qualname)
            orig = owner.__dict__[attr]
            wrapper = self._wrap(prefix, kind, orig, record)
            if owner is sys.modules[module]:
                # a module-level function: patch it wherever it is bound
                for name, mod in list(sys.modules.items()):
                    if name == "ccring" or name.startswith("ccring."):
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                self._patch(mod, key, orig, wrapper)
            else:
                self._patch(owner, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        wrapper.__bench_wrapper__ = True
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def remove(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, prefix, kind, fn, record):
        if kind == "gen":
            return self._gen(prefix, fn)
        if kind == "count":
            return self._count(prefix, fn)
        if kind == "gfmul":
            return self._gf_mul(fn)
        return self._span(prefix, fn, record, _BEFORE.get(prefix), _AFTER.get(prefix))

    def _span(self, name, fn, record, before, after):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack, active, spans = self.stack, self.active, self.spans
        active.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            parent = stack[-1] if stack else None
            start = clock()
            index = parent[2] if parent else None
            own = record and len(spans) < SPAN_CAP
            if own:
                spans.append([name, start, None, index, self.op_id])
                index = len(spans) - 1
            elif record:
                self.dropped_spans += 1
            frame = [start, 0.0, index]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = end - start
                agg[0] += 1
                if not active[name]:
                    agg[1] += dur
                agg[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if own:
                    spans[index][2] = end
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        key = name + ".calls"
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gf_mul(self, fn):
        from ccring.gf import _TABLE_LIMIT

        counts = self.counts
        for path in ("m1", "table", "raw"):
            counts[f"gf.mul.{path}.calls"] = 0

        @functools.wraps(fn)
        def wrapper(ctx, a, b):
            if self.paused:
                pass
            elif ctx.m == 1:
                counts["gf.mul.m1.calls"] += 1
            elif ctx.q <= _TABLE_LIMIT:
                counts["gf.mul.table.calls"] += 1
            else:
                counts["gf.mul.raw.calls"] += 1
            return fn(ctx, a, b)

        return wrapper

    def _gen(self, name, fn):
        counts = self.counts
        calls, yields, first = name + ".calls", name + ".yields", name + ".first_yield_s"
        counts[calls] = counts[yields] = 0
        counts[first] = 0.0

        def relay(gen):
            start = clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                counts[first] += clock() - start
            counts[yields] += 1
            yield item
            for item in gen:
                counts[yields] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            counts[calls] += 1
            return relay(fn(*args, **kwargs))

        return wrapper

    # -- per-op bookkeeping ------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        self._op_first_span = len(self.spans)

    def end_op(self) -> None:
        """Close whatever an op left open (an alarm can land in a wrapper)."""
        end = clock()
        for span in self.spans[self._op_first_span :]:
            if span[2] is None:
                span[2] = end
        self.stack.clear()
        for name in self.active:
            self.active[name] = 0

    def calls(self, name: str) -> int:
        return self.agg[name][0] if name in self.agg else int(self.counts.get(name + ".calls", 0))

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def wrapped_bindings() -> int:
    """How many ccring module or class attributes hold a tracer wrapper."""
    found = 0
    for name, mod in list(sys.modules.items()):
        if name == "ccring" or name.startswith("ccring."):
            for val in vars(mod).values():
                members = vars(val).values() if isinstance(val, type) else (val,)
                found += sum(1 for v in members if getattr(v, "__bench_wrapper__", False))
    return found


def _poly_mul_before(tracer, args):
    a, b = args
    tracer.add("poly.mul.coeff_products", len(a.coeffs) * len(b.coeffs))


def _dual_component_before(tracer, args):
    if tracer.active.get("dual.fixed_point"):
        tracer.add("dual.fixed_point.specs_scanned", 1)


def _chain_init_after(tracer, args, result):
    tracer.add("chain.f_pows.len", len(args[0].f_pows))


def _fixed_point_after(tracer, args, result):
    tracer.add("dual.fixed_point.kept", len(result))


_BEFORE = {"poly.mul": _poly_mul_before, "dual.dual_component": _dual_component_before}
_AFTER = {"chain.init": _chain_init_after, "dual.fixed_point": _fixed_point_after}
