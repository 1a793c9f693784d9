"""Tests of the benchmark itself: span arithmetic, failure accounting, seeds.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import signal
import time
import types

import pytest

import hostspeed
import run
import workloads
from tracing import SpanSet, Tracer, named, prefixed, self_times


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    tr = Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tr.open("root")
    a = tr.open("a")
    b = tr.open("b")
    tr.close(b)
    tr.close(a)
    c = tr.open("c")
    tr.close(c)
    tr.close(root)
    assert (b.parent, a.parent, c.parent, root.parent) == (a.id, root.id, root.id, None)
    st = self_times(tr.spans)
    # root 0..10 minus children a 1..4 and c 5..9; a 1..4 minus b 2..3
    assert st == {root.id: 3, a.id: 2, b.id: 1, c.id: 4}
    ss = SpanSet(tr.spans)
    assert ss.total(named("a", "b")) == 3          # b nested in a counts once
    assert ss.total(named("b", "c")) == 5
    assert ss.self_total(named("root", "a")) == 5


def test_instrumented_wraps_the_resolved_attribute_and_restores_it():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tr = Tracer(clock=fake_clock(*range(8)))
    targets = [(mod, "outer", "m.outer", None),
               (mod, "inner", "m.inner", lambda a, k, r: {"arg": a[0], "out": r})]
    with tr.instrumented(targets):
        tr.active = True
        assert mod.outer(3) == 8
        tr.active = False
        assert mod.outer(1) == 4                   # inactive: nothing recorded
    assert mod.inner is original
    outer, inner = tr.spans
    assert (outer.name, inner.name, inner.parent) == ("m.outer", "m.inner", outer.id)
    assert inner.attrs == {"arg": 3, "out": 4}
    assert SpanSet(tr.spans).total(prefixed("m.")) == outer.duration == 5
    # clock reads: outer enters 0, opens 1; inner enters 2, opens 3, closes 4,
    # leaves 5; outer closes 6, leaves 7 -> 2 + 2 outside the spans
    assert tr.overhead_s == 4


def test_host_speed_scale_and_sampling_restores_the_timer():
    # references at 4 ms: the host runs at half the reference speed
    assert hostspeed.at_reference(10.0, [0.003, 0.005]) == pytest.approx(5.0)
    assert len(hostspeed.block(3)) == 3
    hs = hostspeed.HostSpeed(interval=0.01)
    before = signal.getsignal(signal.SIGALRM)
    with hs.sampling():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(hs.samples) >= 5
    start, secs = hs.samples[1]
    assert hs.within(start, start + secs) == [secs]


def published_table1_payload():
    rows = []
    for rid, pub in workloads.TABLE1_PUBLISHED.items():
        zeros = list(pub.get("zeros", ("0", "0", pub.get("z3"))))
        rows.append({"function": rid, "n_complex_pairs": pub["pairs"],
                     "on_critical_line": pub["pairs"] == 0,
                     "A": pub.get("A", "1"), "c": pub.get("c", "0"),
                     "z3_estimated": zeros[2], "estimated_zeros": zeros})
    return {"N": 16, "precision": 60, "rows": rows}


def judge(op, stdout, rc=0):
    v = run.judge(op, rc, stdout, None)
    return v.problems, v.zero_rel_errs


def test_table1_check_passes_published_values_and_fails_tampered_ones():
    op = workloads.make_ops("table1", 0, None)[0]
    payload = published_table1_payload()
    reasons, errs = judge(op, json.dumps(payload))
    assert reasons == [] and max(errs) < 1e-12
    payload["rows"][1]["n_complex_pairs"] = 0     # riemann's pair called real
    payload["rows"][6]["z3_estimated"] = "5.9"    # bessel_k's z3 moved
    reasons, _ = judge(op, json.dumps(payload))
    assert len(reasons) == 2
    assert any(r.startswith("riemann:") for r in reasons)
    assert any(r.startswith("bessel_k: z3") for r in reasons)


def cubic_solve_payload(roots):
    """A solve --json payload for (b - 1)(b - 2)(b - 3) with the given roots."""
    return {"precision": 30, "params": {"N": 3},
            "q": {"coeffs": ["-6", "11", "-6", "1"]},
            "roots": {"roots": [{"re": str(r), "im": "0", "is_real": True,
                                 "residual": "0"} for r in roots]}}


def test_solve_check_fails_a_tampered_root():
    good = json.dumps(cubic_solve_payload([1, 2, 3]))
    ok = workloads.check_solve(good, 30, 3, (3, 0), (1.0, 2.0, 3.0), criterion9=True)
    assert ok.problems == [] and ok.notes == [] and ok.zero_rel_errs == [0.0]
    moved = json.dumps(cubic_solve_payload([1, 2, "3.0001"]))
    bad = workloads.check_solve(moved, 30, 3, (3, 0), None, criterion9=True)
    assert any(p.startswith("reconstruction error") for p in bad.problems)
    assert any(p.startswith("backward error") for p in bad.problems)
    assert any("digits allow" in p for p in bad.problems)
    # without criterion 9 its bound is a note; the per-root checks still fail
    bad = workloads.check_solve(moved, 30, 3, (3, 0), None, criterion9=False)
    assert len(bad.problems) == 2 and bad.notes[0].startswith("reconstruction error")
    # a root off by far less than the backward-error target allows, but more
    # than 30 digits do
    off = json.dumps(cubic_solve_payload([1, 2, "3.00000000000000000001"]))
    bad = workloads.check_solve(off, 30, 3, (3, 0), None, criterion9=False)
    assert len(bad.problems) == 1 and "digits allow" in bad.problems[0]


def test_solve_check_fails_a_root_found_twice():
    """Roots 1, 2, 2 each have zero residual; the missing 3 shows only as a
    repeated root."""
    twice = json.dumps(cubic_solve_payload([1, 2, 2]))
    bad = workloads.check_solve(twice, 30, 3, None, None, criterion9=False)
    assert any("not isolated" in p for p in bad.problems)


def stub_runner(outputs):
    """A Runner whose CLI returns canned (exit code, stdout) per call."""
    calls = iter(outputs)

    def main(argv):
        rc, text = next(calls)
        print(text)
        return rc

    xilab = types.SimpleNamespace(cli=types.SimpleNamespace(main=main))
    return run.Runner(xilab, None, Tracer())


def test_tampered_output_counts_as_failed_and_the_run_goes_on():
    table1 = workloads.make_ops("table1", 0, None)
    saddle = workloads.Op("saddle", (), workloads.check_saddle)
    good = json.dumps(published_table1_payload())
    tampered = published_table1_payload()
    tampered["rows"][0]["estimated_zeros"][0] = "-2.2"
    runner = stub_runner([(0, good), (0, json.dumps(tampered)), (0, "not json"),
                          (3, "")])
    runner.ops = table1 * 3 + [saddle]
    runner.run_pass("untraced")
    fails = [r["failures"] for r in runner.records]
    assert fails[0] == [] and fails[1][0].startswith("airy: z1")
    assert fails[2][0].startswith("output check raised")
    assert fails[3] == ["exit 3"]
    correct, attempted, failed = run.summarize(runner.records)
    assert (correct, attempted, failed) == (False, 4, 3)
    # the documented seed-commit failure alone leaves the run correct
    assert run.summarize(runner.records[3:]) == (True, 1, 1)


@pytest.fixture(scope="module")
def xilab():
    return run.load_xilab()


def test_same_seed_gives_same_inputs(xilab):
    for wl in workloads.WORKLOADS:
        a = [op.argv for op in workloads.make_ops(wl, 11, xilab)]
        b = [op.argv for op in workloads.make_ops(wl, 11, xilab)]
        c = [op.argv for op in workloads.make_ops(wl, 12, xilab)]
        assert a == b
        assert a != c
    order = workloads.table1_order(11)
    assert sorted(order) == sorted(workloads.TABLE1_ROWS)

