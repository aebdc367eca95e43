"""Tests of the benchmark's tracer, workload checks and metric lists.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import WRAPS, Tracer, _resolve  # noqa: E402
from workloads import (WORKLOADS, binomial_ok, check_jsonl,  # noqa: E402
                       flip_probability)

CLI = bench.load_cli()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_nested_self_times_sum_to_root_duration():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        leaf()
        leaf()
        clock.advance(0.5)

    def root():
        clock.advance(3.0)
        middle()
        leaf()

    leaf, middle, root = (tr.wrap(f, f.__name__) for f in (leaf, middle, root))
    root()

    assert tr.total("root") == pytest.approx(8.5)
    self_sum = sum(v[2] for v in tr.stats.values())
    assert self_sum == pytest.approx(tr.total("root"))
    assert tr.total("root", field=2) == pytest.approx(3.0)
    assert tr.total("middle", field=2) == pytest.approx(2.5)
    assert tr.calls("leaf") == 3
    assert tr.calls("leaf", parents=("middle",)) == 2
    # spans: (op, name, start, end, parent index), root has no parent
    spans = [s for s in tr.spans if s is not None]
    assert len(spans) == 5
    root_span = next(s for s in spans if s[1] == "root")
    assert root_span[4] is None and root_span[3] - root_span[2] == 8.5
    assert all(tr.spans[s[4]][1] in ("root", "middle")
               for s in spans if s[4] is not None)


def test_wrapper_preserves_results_and_exceptions():
    tr = Tracer()
    marker = object()
    ok = tr.wrap(lambda x, *, y: (x, y, marker), "ok")
    assert ok(1, y=2) == (1, 2, marker)

    def boom():
        raise ValueError("kept")

    boom = tr.wrap(boom, "boom")
    with pytest.raises(ValueError, match="kept"):
        boom()
    assert tr.calls("boom") == 1
    assert tr._stack == []
    assert boom.__name__ == "boom"


def test_install_restores_every_attribute():
    before = [_resolve(w)[2] for w in WRAPS]
    with Tracer():
        during = [_resolve(w)[2] for w in WRAPS]
    after = [_resolve(w)[2] for w in WRAPS]
    assert after == before
    assert all(d is not b for d, b in zip(during, before))


def test_missing_attribute_fails_loudly():
    from tracer import Wrap
    original = _resolve(WRAPS[0])[2]
    tr = Tracer()
    with pytest.raises(AttributeError):
        tr.install(WRAPS[:3] + (Wrap("qkdnet.states", "no_such_fn",
                                     "states.no_such_fn", "p1-eavesdrop"),))
    assert tr._installed == []
    assert _resolve(WRAPS[0])[2] is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_wrap_records_calls_on_its_workload(name, tmp_path):
    wl = WORKLOADS[name]
    runner = bench.Runner(CLI, wl)
    ops = wl.ops(7, str(tmp_path))
    tr = Tracer()
    with tr:
        # two blocks: every kind of the workload runs at least twice
        for op in itertools.islice(ops, 2 * len(wl.kinds)):
            tr.new_op(op.index)
            runner.run(op)
    assert runner.failures == []
    assert tr.uncovered(name) == []


def test_flip_probability_composes_independent_xors():
    assert flip_probability("") == 0.0
    assert flip_probability("intercept@m1") == pytest.approx(0.25)
    assert flip_probability("depolarize:p=0.1@m3") == pytest.approx(0.05)
    combined = "intercept@m1,depolarize:p=0.1@m3,lie-outcome:p=0.1@m4"
    assert flip_probability(combined) == pytest.approx(
        (1 - 0.5 * 0.9 * 0.8) / 2)


def test_binomial_ok_uses_exact_tails():
    # a normal 5-sigma band rejects this, though it occurs ~1e-3 per op
    assert binomial_ok(4, 10, 0.05)
    assert not binomial_ok(9, 10, 0.05)
    assert binomial_ok(0, 10, 0.0) and not binomial_ok(1, 10, 0.0)
    assert binomial_ok(50, 100, 0.5) and not binomial_ok(20, 100, 0.5)
    # pooled intercept rate with Z among Eve's bases (1/3, not 1/4)
    assert binomial_ok(290, 1145, 0.25) and not binomial_ok(384, 1145, 0.25)


def test_check_jsonl_counts_records_against_aborts():
    lines = ([{"header": {}}] + [{"record": {}}] * 4
             + [{"abort": {}}, {"summary": {"aborted_rounds": 1}}])
    text = "\n".join(json.dumps(d) for d in lines) + "\n"
    assert check_jsonl(text, rounds=3, t=2) == ""
    assert "expected" in check_jsonl(text, rounds=4, t=2)
    swapped = lines[:1] + lines[5:6] + lines[1:5] + lines[6:]
    assert "order" in check_jsonl(
        "\n".join(json.dumps(d) for d in swapped), rounds=3, t=2)


def test_benchmark_json_mirrors_the_metric_lists():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
