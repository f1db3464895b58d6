"""Tests of the benchmark itself: inputs, tracer, failure accounting.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, wrapped_bindings  # noqa: E402

from ccring.decomp import AmbientParams, build_factor_data  # noqa: E402
from ccring.ideals import count_ideals_sumform_params, enumerate_codes  # noqa: E402


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, worker._alarm)
    yield
    signal.signal(signal.SIGALRM, old)


# -- inputs ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", [w for w, _ in spec.WORKLOADS])
def test_same_seed_same_inputs(workload):
    a = inputs.build(workload, 7, spec.RUN_SECONDS)
    b = inputs.build(workload, 7, spec.RUN_SECONDS)
    assert json.dumps(a) == json.dumps(b)
    assert inputs.dual_726_doc(inputs.rng_for("dual_726", 7)) == inputs.dual_726_doc(
        inputs.rng_for("dual_726", 7)
    )


@pytest.mark.parametrize("workload", ["count_info", "code_stream", "selfdual"])
def test_other_seed_other_inputs(workload):
    assert json.dumps(inputs.build(workload, 1, 15)) != json.dumps(inputs.build(workload, 2, 15))


def test_count_info_rings_are_distinct_and_plenty():
    ops = inputs.build("count_info", 3, spec.RUN_SECONDS)
    rings = [json.dumps(op["ring"]) for op in ops]
    assert len(rings) >= 100 and len(set(rings)) == len(rings)


@pytest.mark.parametrize(
    "ring", [(5, 1, 1, 6, 4), (3, 1, 1, 242, 2), (7, 1, 1, 48, 6), (3, 2, 1, 8, [1, 0]), (2, 3, 1, 7, [1, 0, 0])]
)
def test_coset_degrees_match_the_factorization(ring):
    p, m, s, n, lam = ring
    enc = lam if m == 1 else sum(c * p ** i for i, c in enumerate(lam))
    fd = build_factor_data(AmbientParams.of_ints(p, m, s, n, enc))
    assert sorted(f.degree for f in fd.factors) == inputs.shape(ring)["degrees"]


def test_regrouped_sum_form_equals_the_sum_form():
    for p, m, d, s in [(2, 1, 1, 3), (2, 1, 3, 4), (3, 1, 2, 2), (3, 2, 1, 3), (5, 1, 1, 2), (7, 2, 2, 1)]:
        assert checks.sumform_regrouped(p, m, d, s) == count_ideals_sumform_params(p, m, d, s)


def test_decimal_check_needs_no_int_to_str():
    value = 7 ** 9000  # about 7600 digits, past the default limit
    assert checks.check_decimal(format_decimal(value), value, "x") is None
    assert checks.check_decimal(format_decimal(value + 1), value, "x") is not None


def format_decimal(value: int) -> str:
    digits = []
    while value:
        value, r = divmod(value, 10 ** 9)
        digits.append(r)
    return str(digits[-1]) + "".join(f"{d:09d}" for d in reversed(digits[:-1]))


def test_dual_stream_check_pairs_lines_in_order(alarm):
    R = worker.Runner()
    ring = (5, 1, 1, 6, 4)
    _, stream = R.cli("enumerate", ["enumerate", *inputs.ring_args(ring), "--limit", "2"])
    duals = "".join(R.cli("dual", ["dual"], stdin=line)[1] for line in stream.splitlines(keepends=True))
    size = checks.ring_size(ring)
    assert checks.check_dual_stream(stream, duals, size) is None
    assert checks.check_dual_stream(stream, duals.splitlines(keepends=True)[0], size) is not None


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


# -- tracer ---------------------------------------------------------------------------


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "ccring" or name.startswith("ccring."):
            for key, val in vars(mod).items():
                out[(name, key)] = val
                if isinstance(val, type) and val.__module__.startswith("ccring"):
                    for attr, member in vars(val).items():
                        out[(name, key, attr)] = member
    return out


def test_tracer_counts_exactly_and_restores_every_binding():
    import ccring.cli
    import ccring.decomp
    import ccring.ideals

    before = _bindings()
    fd_plain = build_factor_data(AmbientParams.of_ints(2, 1, 1, 3, 1))
    tr = Tracer()
    tr.install()
    try:
        assert ccring.cli.build_factor_data is not before[("ccring.cli", "build_factor_data")]
        assert wrapped_bindings() > 0
        # through the modules: the tracer patches ccring's bindings, not this file's
        fd = ccring.decomp.build_factor_data(AmbientParams.of_ints(2, 1, 1, 3, 1))
        ctx = fd.chain(1)  # x^2 + x + 1 over F_2, e = 2
        for _ in range(3):
            ctx.f_adic(ctx.f)
        f_adic_calls = tr.agg["chain.f_adic"][0]
        residues = list(ctx.residue_set(0, 1))
        codes = list(ccring.ideals.enumerate_codes(fd, limit=5))
    finally:
        tr.remove()
    assert _bindings() == before
    assert wrapped_bindings() == 0
    assert [f.coeffs for f in fd.factors] == [f.coeffs for f in fd_plain.factors]
    assert tr.agg["decomp.build_factor_data"][0] == 1
    assert tr.agg["decomp.factor_data_for"][0] == 1
    assert tr.agg["chain.init"][0] == 2
    assert tr.counts["chain.f_pows.len"] == 2 * 3
    assert f_adic_calls == 3
    assert len(residues) == 4
    # the residue_set call above, and one window per component spec yielded
    assert tr.counts["chain.residue_set.yields"] >= 4
    assert tr.counts["ideals.enumerate_codes.calls"] == 1
    assert tr.counts["ideals.enumerate_codes.yields"] == len(codes) == 5
    spans = [s for s in tr.spans if s[0] == "chain.init"]
    assert len(spans) == 2 and all(s[2] >= s[1] for s in spans)
    parent = tr.spans[spans[0][3]]
    assert parent[0] == "decomp.factor_data_for"
    bfd = tr.agg["decomp.build_factor_data"]
    assert bfd[2] <= bfd[1]  # self time never exceeds inclusive time


def test_tracer_self_time_excludes_children():
    tr = Tracer()
    outer = tr._span("outer", lambda: inner() or time.sleep(0.02), True, None, None)
    inner = tr._span("inner", lambda: time.sleep(0.05), True, None, None)
    outer()
    calls, total, self_s = tr.agg["outer"]
    assert calls == 1 and total >= 0.07
    assert 0.015 <= self_s <= total - 0.045


# -- failure accounting -----------------------------------------------------------------


def test_exception_exit_and_timeout_each_count_as_failed(alarm):
    R = worker.Runner()
    rec, _ = R.call("boom", lambda: 1 / 0)
    R.check(rec, lambda: None)
    rec, _ = R.cli("count", ["count", "--p", "4", "--s", "1", "--n", "3", "--lambda", "1"])
    R.check(rec, lambda: None)
    rec, _ = R.call("spin", _spin, timeout=0.05)
    R.check(rec, lambda: None)
    rec, out = R.cli("count", ["count", "--p", "5", "--s", "1", "--n", "6", "--lambda", "-1"])
    R.check(rec, lambda: None if out.strip() == "62190883161" else "wrong")
    rec, out = R.cli("count", ["count", "--p", "5", "--s", "1", "--n", "6", "--lambda", "-1"])
    R.check(rec, lambda: "deliberately wrong")
    statuses = [r["status"] for r in R.records]
    assert statuses[0].startswith("ZeroDivisionError")
    assert statuses[1].startswith("exit 2")
    assert statuses[2] == "timeout" and R.records[2]["ms"] == pytest.approx(50)
    assert statuses[3] == "ok"
    assert statuses[4].startswith("wrong")
    _, extra = run.end_to_end(R.records, [], 1.0)
    assert extra["failed_ratio"] == pytest.approx(4 / 5)


def test_each_op_is_scaled_by_the_speed_around_it():
    def op(t, ms):
        return {"kind": "count", "t": t, "ms": ms, "first_ms": ms / 2, "status": "ok", "items": 1}

    ref = speed.REFERENCE_MS
    # kernel at reference speed before t = 2, at half speed after it
    worker_result = {
        "cal_ms": [ref, ref, 2 * ref, 2 * ref],
        "cal_t": [0.0, 1.0, 2.0, 3.0],
        "ops": [op(0.5, 10.0), op(1.5, 20.0), op(2.5, 40.0)],
    }
    ops = run.at_reference(worker_result)
    assert [o["raw_ms"] for o in ops] == [10.0, 20.0, 40.0]
    assert [o["ms"] for o in ops] == pytest.approx([10.0, 20.0 / 1.5, 20.0])
    assert ops[2]["first_ms"] == pytest.approx(10.0)
    metrics, _ = run.end_to_end(ops, [], 40.0)
    assert metrics["wall_s"] == pytest.approx((10 + 20 / 1.5 + 20) / 1e3)
    assert metrics["op_p90_ms"] == pytest.approx(20.0)


def test_calibration_kernel_is_fixed_work():
    assert speed.kernel() == speed.kernel()
    meter = speed.Speedometer()
    meter.start()
    assert len(meter.samples) == len(meter.times) == speed.FIRST_SAMPLES
    assert all(ms > 0 for ms in meter.samples)


def _spin():
    while True:
        pass


def test_untraced_run_installs_no_wrapper(alarm):
    R = worker.Runner()
    ops = inputs.build("count_info", 1, 15)[:5]
    seen = []
    R.check = lambda rec, problem, timed=True: seen.append(wrapped_bindings()) or True
    worker.run_count_info(R, ops)
    assert seen == [0] * 5
