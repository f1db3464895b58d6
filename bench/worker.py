"""One workload process: set up, run the timed ops, check them, run the probes.

Started by run.py, once per sample of set-up time and once per measured
pass, always as a fresh process.  It prints ``READY`` as soon as ccring
is imported and the inputs are built, and its result as one JSON line
prefixed ``RESULT`` at the end.  The result carries the times of the
calibration kernel (speed.py), sampled just before set-up, just after
it and between ops, from which run.py scales the process's times to
reference speed; READY carries the seconds spent on the first samples,
which set-up time leaves out.

Ops form a closed loop with one client: the next op starts only after
the previous one returned and its output was checked.  A CLI op is one
call of ``ccring.cli.main(argv)`` with stdin, stdout and stderr swapped
for in-memory buffers; an oracle op is one call into ``ccring.oracle``.
Each op runs under a per-op timeout (SIGALRM, so one process and no
threads); a timed-out op counts at its timeout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

import checks
import inputs
import spec
from speed import Speedometer

clock = time.perf_counter


class OpTimeout(BaseException):
    """Raised by the per-op alarm; not an Exception, so no handler in the
    program under test can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def timed_call(fn, timeout: float):
    """Run fn under the alarm: (value, error, seconds, first output time).

    error is None, "timeout" or the escaped exception; a timed-out call
    is charged exactly its timeout.
    """
    start = clock()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return None, "timeout", timeout, start
    except Exception as ex:  # the op failed; the run goes on
        return None, f"{type(ex).__name__}: {str(ex)[:160]}", clock() - start, start
    return value, None, clock() - start, start


class Capture(io.StringIO):
    """stdout buffer that notes when the first output was written."""

    first = None

    def write(self, text):
        if self.first is None and text:
            self.first = clock()
        return super().write(text)


def call_main(main, argv):
    try:
        return main(argv)
    except SystemExit as ex:  # argparse rejects argv this way
        return ex.code if isinstance(ex.code, int) else 1


class Runner:
    """Runs ops, checks outputs and keeps one record per op."""

    def __init__(self, tracer=None, budget: float = 150.0, speed: Speedometer | None = None):
        from ccring.cli import main

        self.main = main
        self.tracer = tracer
        self.t0 = clock()
        self.budget = budget
        self.timeout_scale = 1 if tracer is None else spec.TRACE_TIMEOUT_SCALE
        self.speed = speed or Speedometer(clock)
        self.records: list[dict] = []
        self.probes: list[dict] = []
        self.bytes_out = 0
        self.dual_docs = 0
        self.dual_factor_data_calls = 0
        self.pipes: list[tuple] = []  # (ring, two NDJSON lines) for the pipe probes
        self._shapes: dict[str, dict] = {}

    def out_of_time(self) -> bool:
        return clock() - self.t0 > self.budget

    def shape(self, ring, order=None) -> dict:
        key = json.dumps(ring)
        if key not in self._shapes:
            sh = inputs.shape(ring, order)
            sh["count_digits"] = checks.decimal_digits(checks.expected_total(ring, sh["degrees"]))
            self._shapes[key] = sh
        return self._shapes[key]

    def _begin(self):
        if self.tracer is not None:
            self.tracer.begin_op(len(self.records) + len(self.probes))
            return self.tracer.calls("decomp.factor_data_for")
        return 0

    def _end(self):
        if self.tracer is not None:
            self.tracer.end_op()

    # -- op kinds ---------------------------------------------------------------

    def cli(self, kind, argv, stdin="", ring=None, order=None, timeout=spec.OP_TIMEOUT_S):
        """One CLI call; returns (record, stdout text)."""
        out, err = Capture(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        self.speed.tick()
        fdf_before = self._begin()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
        try:
            rc, error, secs, start = timed_call(
                lambda: call_main(self.main, argv), timeout * self.timeout_scale
            )
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        self._end()
        text = out.getvalue()
        if error is None and rc != 0:
            error = f"exit {rc}: {err.getvalue().strip()[:160]}"
        rec = self._record(kind, ring, order, secs, error, start)
        rec["first_ms"] = None if out.first is None else (out.first - start) * 1e3
        rec["items"] = text.count("\n")
        rec["bytes"] = len(text.encode())
        self.bytes_out += rec["bytes"]
        if kind == "dual" and error is None:
            self.dual_docs += 1
            if self.tracer is not None:
                self.dual_factor_data_calls += self.tracer.calls("decomp.factor_data_for") - fdf_before
        return rec, text

    def call(self, kind, fn, ring=None, order=None, timeout=spec.OP_TIMEOUT_S):
        """One library call; returns (record, value)."""
        self.speed.tick()
        self._begin()
        value, error, secs, start = timed_call(fn, timeout * self.timeout_scale)
        self._end()
        rec = self._record(kind, ring, order, secs, error, start)
        rec["first_ms"] = rec["ms"]
        return rec, value

    def _record(self, kind, ring, order, secs, error, start) -> dict:
        rec = {"kind": kind, "ms": secs * 1e3, "status": error or "ok", "t": start}
        if ring is not None:
            rec["ring"] = list(ring)
            rec["shape"] = self.shape(ring, order)
        return rec

    def check(self, rec, problem, timed=True) -> bool:
        """Keep rec; problem() runs only for ops that returned normally."""
        if rec["status"] == "ok":
            if self.tracer is not None:
                self.tracer.paused = True  # checks may call ccring; keep them out of the trace
            try:
                bad = problem()
            except Exception as ex:  # a malformed output is a wrong output
                bad = f"{type(ex).__name__} while checking: {ex}"
            finally:
                if self.tracer is not None:
                    self.tracer.paused = False
            if bad:
                rec["status"] = "wrong: " + bad
        (self.records if timed else self.probes).append(rec)
        return rec["status"] == "ok"

    def skip(self, kind, ring=None):
        self.records.append({"kind": kind, "ring": list(ring) if ring else None,
                             "ms": 0.0, "status": "skipped: run budget spent", "t": clock()})


# -- workloads ----------------------------------------------------------------------


def run_count_info(R: Runner, ops):
    for op in ops:
        kind, ring = op["kind"], op["ring"]
        if R.out_of_time():
            R.skip(kind, ring)
            continue
        rec, out = R.cli(kind, [kind, *inputs.ring_args(ring)], ring=ring)
        sh = rec["shape"]
        if kind == "count":
            R.check(rec, lambda: checks.check_count(ring, sh, out))
        else:
            R.check(rec, lambda: checks.check_info(ring, sh, out))


def run_code_stream(R: Runner, ops):
    for op in ops:
        ring, limit = op["ring"], op["limit"]
        if R.out_of_time():
            R.skip("enumerate", ring)
            continue
        rec, out = R.cli("enumerate", ["enumerate", *inputs.ring_args(ring), "--limit", str(limit)], ring=ring)
        sh = rec["shape"]
        if not R.check(rec, lambda: checks.check_enumerate(ring, sh, out, limit)):
            continue
        docs = out.splitlines(keepends=True)
        R.pipes.append((ring, "".join(docs[:2])))
        size = checks.ring_size(ring)
        for doc in docs:
            if R.out_of_time():
                R.skip("dual", ring)
                continue
            rec, dual = R.cli("dual", ["dual"], stdin=doc, ring=ring)
            if not R.check(rec, lambda: checks.check_dual(doc, dual, size)):
                continue
            rec, back = R.cli("dual", ["dual"], stdin=dual, ring=ring)
            R.check(rec, lambda: None if back == doc else "double dual is not byte-identical")


def _selfdual_argv(ring):
    p, _, s, n, nu = ring
    return ["selfdual", "--p", str(p), "--s", str(s), "--n", str(n), "--nu", str(nu)]


def run_selfdual(R: Runner, ops):
    counts = {}
    for op in ops:
        kind, ring = op["kind"], op["ring"]
        if R.out_of_time():
            R.skip(kind, ring)
            continue
        if kind == "selfdual_count":
            rec, out = R.cli(kind, _selfdual_argv(ring) + ["--count-only"], ring=ring)
            sh = rec["shape"]
            if R.check(rec, lambda: checks.check_selfdual_count(ring, sh, out)):
                counts[ring] = int(out)
        else:
            limit = op["limit"]
            rec, out = R.cli(kind, _selfdual_argv(ring) + ["--limit", str(limit)], ring=ring)
            sh = rec["shape"]
            if ring in counts:
                R.check(rec, lambda: checks.check_selfdual_stream(ring, sh, out, counts[ring], limit))
            else:
                R.check(rec, lambda: "no count to check the stream against")


def run_oracle(R: Runner, tasks):
    from ccring.decomp import AmbientParams, build_factor_data
    from ccring.dual import dual_code
    from ccring.ideals import enumerate_codes
    from ccring.oracle import brute_ambient_ideals, brute_dual, brute_submodules, code_space

    # (ring, code index) -> hash of the classified dual's rows, the same in
    # every pass; a hash, so that the checks add little to peak_rss_mb
    classified = {}
    for task in tasks:
        kind, ring, order = task["kind"], task["ring"], task["order"]
        if R.out_of_time():
            R.skip(kind, ring)
            continue
        # set-up of the task's inputs through ccring, outside the timed ops
        params = AmbientParams.of_ints(*ring)
        fd = build_factor_data(params)
        p, m, s, _, _ = ring
        if kind == inputs.DUAL:
            size = params.ring_size()
            for i, code in enumerate(list(enumerate_codes(fd))):
                rec, val = R.call(kind, lambda: _space_and_dual(code_space, brute_dual, code, params), ring, order)

                def problem():
                    space, dual = val
                    if dual.size * space.size != size:
                        return "kernel dual breaks |C| |C^perp| = |R|^N"
                    key = (json.dumps(ring), i)
                    if key not in classified:
                        classified[key] = hash(code_space(dual_code(code)).key())
                    if hash(dual.key()) != classified[key]:
                        return "kernel dual differs from the classified dual"
                    return None

                R.check(rec, problem)
        elif kind == inputs.SUB:
            for j in range(fd.r):
                ctx = fd.chain(j)
                rec, val = R.call(kind, lambda: brute_submodules(ctx), ring, order)
                want = checks.submodule_count(p, m, ctx.d, s)
                R.check(rec, lambda: None if len(val) == want else f"{len(val)} submodules, want {want}")
        else:
            rec, val = R.call(kind, lambda: brute_ambient_ideals(fd), ring, order)
            want = checks.expected_total(ring, rec["shape"]["degrees"])
            R.check(rec, lambda: None if len(val) == want else f"{len(val)} ambient ideals, want {want}")


def _space_and_dual(code_space, brute_dual, code, params):
    space = code_space(code)
    return space, brute_dual(space, params)


RUNNERS = {
    "count_info": run_count_info,
    "code_stream": run_code_stream,
    "selfdual": run_selfdual,
    "oracle": run_oracle,
}


# -- probes: ROADMAP's slow or broken rows, outside the timed ops --------------------

# A probe expected to run far past the per-op timeout gets a short one, so
# its outcome ("timeout") does not depend on machine speed; the others get
# the normal timeout, far above their current time.
SLOW_PROBE_TIMEOUT_S = 2.0


def run_probes(R: Runner, workload: str, seed: int):
    from ccring.decomp import AmbientParams, build_factor_data
    from ccring.dual import count_self_dual

    def traced(run):
        before = layer_metrics(R) if R.tracer is not None else None
        rec, out = run()
        if before is not None:
            rec["layers"] = _diff(layer_metrics(R), before)
        return rec, out

    def lib(name, ring, fn, timeout=SLOW_PROBE_TIMEOUT_S):
        rec, _ = traced(lambda: R.call(name, fn, ring, timeout=timeout))
        R.check(rec, lambda: None, timed=False)

    def cli(name, argv, ring, problem, stdin="", timeout=spec.OP_TIMEOUT_S):
        rec, out = traced(lambda: R.cli(name, argv, stdin=stdin, ring=ring, timeout=timeout))
        R.check(rec, lambda: problem(rec, out), timed=False)

    if workload == "count_info":
        big = (2, 1, 12, 7, 1)
        lib("build_factor_data", big, lambda: build_factor_data(AmbientParams.of_ints(*big)))
        cli("count", ["count", *inputs.ring_args(big)], big,
            lambda rec, out: checks.check_count(big, rec["shape"], out), timeout=SLOW_PROBE_TIMEOUT_S)
        for ring in ((41, 1, 2, 4, 1), (13, 1, 3, 4, 1)):
            cli("count", ["count", *inputs.ring_args(ring)], ring,
                lambda rec, out, ring=ring: checks.check_count(ring, rec["shape"], out))
    elif workload == "code_stream":
        ring = inputs.DUAL_726_RING
        cli("enumerate --limit 200", ["enumerate", *inputs.ring_args(ring), "--limit", "200"], ring,
            lambda rec, out: checks.check_enumerate(ring, rec["shape"], out, 200),
            timeout=SLOW_PROBE_TIMEOUT_S)
        doc = inputs.dual_726_doc(inputs.rng_for("dual_726", seed))
        size = checks.ring_size(ring)
        cli("dual N=726", ["dual"], ring,
            lambda rec, out: checks.check_dual(doc, out, size, factors_from_dual=True), stdin=doc + "\n")
        for ring, stream in R.pipes:
            cli("enumerate | dual", ["dual"], ring,
                lambda rec, out, ring=ring, stream=stream: checks.check_dual_stream(stream, out, checks.ring_size(ring)),
                stdin=stream)
    elif workload == "selfdual":
        for ring in ((5, 1, 2, 6, 4), (7, 1, 1, 48, 6)):
            lib("count_self_dual", ring,
                lambda ring=ring: count_self_dual(build_factor_data(AmbientParams.of_ints(*ring)), -1))


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(R: Runner) -> dict:
    tr = R.tracer
    out = {}
    for name, _, _ in spec.PER_LAYER:
        if name in tr.counts:
            out[name] = tr.counts[name]
            continue
        prefix, stat = name.rsplit(".", 1)
        if prefix in tr.agg and stat in ("calls", "total_s", "self_s"):
            out[name] = tr.agg[prefix][("calls", "total_s", "self_s").index(stat)]
        else:
            out[name] = 0
    digit = out["chain.digit_polys.yields"]
    out["chain.residue_set.useful_ratio"] = out["chain.residue_set.yields"] / digit if digit else 0
    scanned = out["dual.fixed_point.specs_scanned"]
    out["dual.fixed_point.useful_ratio"] = out["dual.fixed_point.kept"] / scanned if scanned else 0
    out["decomp.factor_data_for.per_dual_doc"] = (
        R.dual_factor_data_calls / R.dual_docs if R.dual_docs else 0
    )
    out["cli.bytes_out"] = R.bytes_out
    out.pop("trace.overhead", None)  # filled in by run.py from two processes
    return out


def _diff(after: dict, before: dict) -> dict:
    """Counters and times one probe added (ratios do not subtract)."""
    return {k: v - before[k] for k, v in after.items()
            if v != before[k] and not k.endswith(("ratio", "per_dual_doc"))}


# -- main ------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--probes", type=int, default=1)
    ap.add_argument("--budget", type=float, default=150.0)
    ap.add_argument("--spans", default=None, help="file for the recorded spans (traced mode)")
    args = ap.parse_args(argv)

    speed = Speedometer(clock)
    t = clock()
    speed.start()
    calibrating_s = clock() - t

    import ccring.cli  # noqa: F401  (numpy comes with it)

    src = Path.cwd() / "src"
    if not Path(ccring.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"ccring imported from {ccring.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    ops = inputs.build(args.workload, args.seed, args.seconds)
    print(f"READY {calibrating_s:.6f}", flush=True)
    speed.burst()
    setup_samples = len(speed.samples)
    if args.mode == "setup":
        print("RESULT " + json.dumps({"mode": "setup", "setup_samples": setup_samples, **speed.record()}),
              flush=True)
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    R = Runner(tracer, args.budget, speed)
    try:
        RUNNERS[args.workload](R, ops)
        R.speed.sample()  # the speed after the last op
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layers = layer_metrics(R) if tracer is not None else None
        if args.probes and not R.out_of_time():
            run_probes(R, args.workload, args.seed)
    finally:
        if tracer is not None:
            tracer.remove()

    import numpy

    result = {
        "mode": args.mode,
        "ops": R.records,
        "probes": R.probes,
        "peak_rss_mb": peak_rss_mb,
        "setup_samples": setup_samples,
        **R.speed.record(),
        "layers": layers,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "int_max_str_digits": sys.get_int_max_str_digits(),
        },
    }
    if tracer is not None and args.spans:
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans"] = {"file": args.spans, "kept": len(tracer.spans), "dropped": tracer.dropped_spans}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
