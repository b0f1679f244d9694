"""Tests of the benchmark's own code: tracer accounting, the answer oracle,
seeded input generation, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import dense  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def child():
        clock.now += 5.0

    wrapped_child = tr.span("child", child)

    def parent():
        clock.now += 3.0
        wrapped_child()
        clock.now += 2.0

    tr.job(7, "toy", tr.span("parent", parent))
    job, par, ch = tr.spans
    assert (job.name, par.name, ch.name) == ("job", "parent", "child")
    assert par.parent == job.id and ch.parent == par.id
    assert {sp.job for sp in tr.spans} == {7}
    assert par.end - par.start == 10.0
    assert par.self_s == 5.0
    assert ch.self_s == 5.0
    assert job.self_s == 0.0


def test_counters_aggregate_under_the_enclosing_span():
    clock = FakeClock()
    tr = Tracer(clock)

    def hot(x):
        clock.now += 1.0
        return x > 0

    wrapped_hot = tr.counter("hot", hot,
                             lambda args, result, exc: {"grew": int(result)})

    def parent():
        clock.now += 4.0
        for x in (1, 0, 2):
            wrapped_hot(x)

    tr.job(0, "toy", tr.span("parent", parent))
    assert tr.counters == {(0, "parent", "hot"):
                           {"calls": 3, "self_s": 3.0, "grew": 2}}
    assert tr.spans[1].self_s == 4.0
    assert len(tr.spans) == 2


def test_exception_still_closes_the_frame():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ArithmeticError("denominator vanished")

    wrapped = tr.counter("boom", boom, layers._reduction_failure)

    def parent():
        try:
            wrapped()
        except ArithmeticError:
            clock.now += 2.0

    tr.job(0, "toy", tr.span("parent", parent))
    assert tr.counters[(0, "parent", "boom")]["failures"] == 1
    assert tr.spans[1].self_s == 2.0
    assert not tr._frames and not tr._open


def test_patching_reaches_names_imported_elsewhere_and_restores():
    from taftlab import hmodule, linalg

    original = linalg.kernel
    tr = Tracer()
    tr.patch_function(linalg, "kernel", lambda fn: tr.counter("k", fn),
                      "taftlab")
    try:
        assert hmodule.kernel is linalg.kernel is not original
    finally:
        tr.restore()
    assert hmodule.kernel is linalg.kernel is original


def test_patching_a_method_covers_its_aliases():
    from taftlab.cyclotomic import CycNum

    original = CycNum.__dict__["__mul__"]
    tr = Tracer()
    tr.patch_method(CycNum, "__mul__", lambda fn: tr.counter("mul", fn))
    try:
        assert CycNum.__dict__["__rmul__"] is CycNum.__dict__["__mul__"]
        assert CycNum.__dict__["__mul__"] is not original
        CycNum.one(3) * CycNum.one(3)
        assert tr.counters[(None, None, "mul")]["calls"] == 1
    finally:
        tr.restore()
    assert CycNum.__dict__["__mul__"] is original


def _job(kind_argv, expect):
    return workloads.Job(tuple(kind_argv), expect)


def _doc(**fields):
    return json.dumps(dict(fields, format="taftlab/1"))


def test_oracle_accepts_right_and_flags_wrong_answers():
    codim = _job(["codim"], {"kind": "codim", "n": 3, "c": 105})
    assert workloads.check(codim, 0, _doc(n=3, c=105), "") is None
    assert workloads.check(codim, 0, _doc(n=3, c=104), "") is not None
    assert workloads.check(codim, 2, _doc(n=3, c=105), "") is not None
    assert workloads.check(codim, 0, _doc(n=3, c=105),
                           '{"error": "internal-error"}\n') is not None
    assert workloads.check(codim, 0, "", "") is not None

    simple = _job(["simple"], {"kind": "simple", "dim": 4})
    assert workloads.check(simple, 0, _doc(verdict="certified_simple",
                                           operator_algebra_dim=16), "") is None
    assert workloads.check(simple, 0, _doc(verdict="certified_simple",
                                           operator_algebra_dim=15), "")
    assert workloads.check(simple, 0, _doc(verdict="inconclusive"), "")

    negative = _job(["simple"], {"kind": "not_simple", "dim": 8})
    assert workloads.check(negative, 0, _doc(verdict="not_simple",
                                             witness_dim=4), "") is None
    assert workloads.check(negative, 0, _doc(verdict="not_simple",
                                             witness_dim=8), "")

    iso = _job(["iso"], {"kind": "iso", "isomorphic": False})
    assert workloads.check(iso, 0, _doc(verdict="no_witness_found"), "") is None
    assert workloads.check(iso, 0, _doc(verdict="isomorphic"), "")

    qbinom = _job(["qbinom"], {"kind": "qbinom", "m": 3})
    assert workloads.check(qbinom, 0, _doc(value={"m": 3, "coeffs": ["0", "0"]}),
                           "") is None
    assert workloads.check(qbinom, 0, _doc(value={"m": 3, "coeffs": ["0", "1"]}),
                           "")


def test_every_job_has_a_known_answer_kind(tmp_path):
    for workload in workloads.WORKLOADS:
        jobs = workloads.jobs(workload, str(tmp_path))
        assert jobs
        for job in jobs:
            assert job.expect["kind"] in (
                "verify", "simple", "not_simple", "codim", "iso_ss", "iso",
                "recover", "hopf", "qbinom", "radical", "construct",
                "fixtures")


def _sweedler_doc():
    from taftlab.fixtures import sweedler_two_dim
    from taftlab.serialize import hma_to_json
    return hma_to_json(sweedler_two_dim())


def _gamma3_doc():
    from taftlab.constructions import build_semisimple
    from taftlab.fixtures import ss_specs
    from taftlab.serialize import hma_to_json
    return hma_to_json(build_semisimple(ss_specs()["sweedler_p_gamma3"]))


def test_dense_copy_is_seeded_and_byte_identical():
    doc = _gamma3_doc()
    first = dense.dumps(dense.dense_copy(doc, 5, "ss_sweedler_p_gamma3"))
    again = dense.dumps(dense.dense_copy(doc, 5, "ss_sweedler_p_gamma3"))
    other = dense.dumps(dense.dense_copy(doc, 6, "ss_sweedler_p_gamma3"))
    assert first == again
    assert first != other


def test_dense_copy_passes_the_module_algebra_laws():
    from taftlab.hmodule import hma_verify, is_h_simple
    from taftlab.serialize import json_to_hma, loads

    for name, doc in (("sweedler2dim", _sweedler_doc()),
                      ("ss_sweedler_p_gamma3", _gamma3_doc())):
        text = dense.dumps(dense.dense_copy(doc, workloads.DEFAULT_SEED, name))
        copy = json_to_hma(loads(text))
        assert hma_verify(copy).ok, name
        assert is_h_simple(copy).operator_algebra_dim == copy.algebra.dim ** 2
        coeffs = [c for row in loads(text)["algebra"]["mult"]
                  for cell in row for x in cell for c in x["coeffs"]]
        assert sum(c != "0" for c in coeffs) > len(coeffs) // 2, name


def test_basis_change_is_invertible():
    import random
    rng = random.Random(0)
    for n in (1, 2, 4, 8):
        t, t_inv = dense.draw_basis_change(rng, n)
        for i in range(n):
            for j in range(n):
                assert sum(t[i][k] * t_inv[k][j] for k in range(n)) == (i == j)


def _trace_codim_counts(tmp_path):
    from taftlab import cli

    work = str(tmp_path)
    workloads.write_inputs("codim", 1, work)
    job = [j for j in workloads.jobs("codim", work)
           if j.expect["n"] == 2][0]
    tr = Tracer()
    layers.install(tr)
    try:
        rc, out, err = tr.job(0, job.label,
                              lambda: workloads.call(cli.main, job.argv))
    finally:
        tr.restore()
    assert workloads.check(job, rc, out, err) is None
    metrics = layers.layer_metrics(tr, workloads.written_bytes([job]))
    assert set(metrics) == {name for name, _, _ in layers.METRICS}
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_traced_counts_repeat_exactly(tmp_path):
    first = _trace_codim_counts(tmp_path / "a")
    second = _trace_codim_counts(tmp_path / "b")
    assert first == second
    assert first["cli.main.calls"] == 1
    assert first["identities.codim.calls"] == 1
    assert first["identities.codim.rows_nominal"] == 32
    assert first["cyclotomic.mul.calls"] > 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == layers.METRICS + [("trace.overhead_s", "s", "lower")]


def test_calibration_scales_by_the_sampled_speed():
    probe = speed.SpeedProbe()
    nominal = speed.NOMINAL_S
    probe.stamps = [1.0, 2.0, 3.0, 4.0]
    probe.chunks = [nominal, 2 * nominal, 2 * nominal, nominal]
    # samples at 2.0 and 3.0 say the machine ran at half speed
    assert probe.calibrate(1.5, 3.5, 10.0) == 5.0
    # no sample inside: the nearest later one stands in
    assert probe.calibrate(0.2, 0.4, 10.0) == 10.0
    assert probe.calibrate(4.5, 4.6, 10.0) == 10.0


def test_probe_samples_while_work_runs():
    with speed.SpeedProbe(interval=0.005) as probe:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.1:
            speed.reference_chunk()
        ended = time.perf_counter()
    assert len(probe.chunks) >= 5
    assert 0.0 < probe.spent < ended - started
    assert probe.calibrate(started, ended, ended - started) > 0.0
