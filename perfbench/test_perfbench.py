"""Tests of the benchmark's own machinery: the span fold, the wrapping
guard, and the import-time parser.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import importtime, layers, tracing  # noqa: E402
from perfbench.layers import SpanSpec  # noqa: E402


class FakeClock:
    """A clock that reads back a scripted sequence of times."""

    def __init__(self, *ticks: float):
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def span(rec: tracing.Recorder, name: str, body=lambda: None, units=None):
    return rec.call(name, lambda: body(), (), {}, units)


def test_self_time_excludes_children():
    # a: 0..10, containing b: 2..5 and c: 6..8
    rec = tracing.Recorder(FakeClock(0, 2, 5, 6, 8, 10))
    span(rec, "a", lambda: (span(rec, "b"), span(rec, "c")))
    fold = rec.fold()
    assert fold["a"] == {"calls": 1, "total": 10, "self": 5, "units": 1}
    assert fold["b"]["self"] == 3 and fold["c"]["self"] == 2
    assert sum(row["self"] for row in fold.values()) == fold["a"]["total"]


def test_grandchild_time_is_charged_once():
    # a: 0..10 > b: 1..9 > c: 2..8
    rec = tracing.Recorder(FakeClock(0, 1, 2, 8, 9, 10))
    span(rec, "a", lambda: span(rec, "b", lambda: span(rec, "c")))
    fold = rec.fold()
    assert (fold["a"]["self"], fold["b"]["self"], fold["c"]["self"]) == (2, 2, 6)


def test_same_name_call_is_part_of_the_open_span():
    rec = tracing.Recorder(FakeClock(0, 4))
    span(rec, "a", lambda: span(rec, "a"))
    assert rec.fold()["a"] == {"calls": 1, "total": 4, "self": 4, "units": 1}


def test_self_time_is_never_negative():
    # A clock that steps back makes the child outlast its parent.
    rec = tracing.Recorder(FakeClock(10, 0, 50, 20))
    span(rec, "a", lambda: span(rec, "b"))
    fold = rec.fold()
    assert fold["a"]["self"] == 0
    assert all(row["self"] >= 0 for row in fold.values())


def test_units_count_work_from_the_result():
    rec = tracing.Recorder(FakeClock(0, 1))
    span(rec, "read", lambda: {0: "x", 1: "y", 2: "z"}, units=len)
    assert rec.fold()["read"]["units"] == 3


def test_exception_still_closes_the_span():
    rec = tracing.Recorder(FakeClock(0, 3))
    with pytest.raises(ValueError):
        span(rec, "a", lambda: (_ for _ in ()).throw(ValueError()))
    assert rec.fold()["a"] == {"calls": 1, "total": 3, "self": 3, "units": 0}


def test_threads_keep_separate_stacks_and_fold_together():
    rec = tracing.Recorder()
    started = threading.Barrier(2)

    def work():
        started.wait(timeout=10)
        span(rec, "t", lambda: span(rec, "u"))

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    fold = rec.fold()
    assert fold["t"]["calls"] == 2 and fold["u"]["calls"] == 2
    assert fold["t"]["self"] >= 0


def test_merge_sums_processes():
    one = {"a": {"calls": 1, "total": 2.0, "self": 1.0, "units": 1}}
    two = {
        "a": {"calls": 3, "total": 4.0, "self": 2.5, "units": 3},
        "b": {"calls": 1, "total": 1.0, "self": 1.0, "units": 7},
    }
    merged = tracing.merge([one, two])
    assert merged["a"] == {"calls": 4, "total": 6.0, "self": 3.5, "units": 4}
    assert merged["b"]["units"] == 7
    assert tracing.merge([]) == {}


@pytest.fixture
def fake_program():
    """Two modules: one defines ``f``, the other imports it by name."""
    a = types.ModuleType("repro_pbtest_a")
    exec("def f(x):\n    return x + 1\nclass K:\n    def m(self):\n        return 2\n", a.__dict__)
    b = types.ModuleType("repro_pbtest_b")
    b.f = a.f
    sys.modules.update({a.__name__: a, b.__name__: b})
    try:
        yield a, b
    finally:
        del sys.modules[a.__name__], sys.modules[b.__name__]


def test_install_rebinds_by_name_imports(fake_program):
    a, b = fake_program
    rec = tracing.Recorder()
    bindings = tracing.install(
        rec, [SpanSpec("x.f", ("repro_pbtest_a:f",)), SpanSpec("x.m", ("repro_pbtest_a:K.m",))]
    )
    assert bindings == {"repro_pbtest_a:f": 2, "repro_pbtest_a:K.m": 1}
    assert b.f(1) == 2 and a.K().m() == 2
    fold = rec.fold()
    assert fold["x.f"]["calls"] == 1 and fold["x.m"]["calls"] == 1


def test_install_refuses_a_stale_table(fake_program):
    with pytest.raises(LookupError, match="repro_pbtest_a:gone"):
        tracing.install(
            tracing.Recorder(),
            [SpanSpec("x", ("repro_pbtest_a:f", "repro_pbtest_a:gone", "repro_pbtest_a:K.gone"))],
        )


def test_every_table_target_exists_in_the_program():
    for spec in layers.SPANS:
        for target in spec.targets:
            tracing.resolve(target)


def test_every_span_metric_names_a_table_span():
    names = {s.name for s in layers.SPANS}
    for metric, (span_name, field) in layers.SPAN_METRICS.items():
        assert field in tracing.FIELDS
        base = "experiments" if span_name.startswith("experiments.") else span_name
        assert base in names, metric


def test_derived_metrics():
    merged = {
        "fading.kernel_build": {"calls": 4, "total": 1, "self": 1, "units": 4},
        "fading.kernel_eval": {"calls": 10, "total": 2, "self": 2, "units": 10},
        "engine.map_tasks": {"calls": 1, "total": 5.0, "self": 1.0, "units": 1},
        "engine.task": {"calls": 8, "total": 8.0, "self": 8.0, "units": 8},
    }
    assert layers.span_metrics(merged)["fading.evals_per_build"] == 2.5
    assert layers.span_metrics({})["fading.evals_per_build"] == 0
    assert layers.useful_ratio(merged, 2) == 0.8


def test_importtime_sums_self_time_by_package():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:        50 |        150 |     numpy",
            "import time:        20 |         20 |         scipy.sparse._base",
            "import time:        30 |         50 |       scipy",
            "import time:        40 |         40 |     networkx",
            "import time:         5 |          5 |   numpyish",
            "import time:        10 |        295 | repro",
        ]
    )
    out = importtime.parse(log)
    assert out["import.modules"] == 7
    assert out["import.total_s"] == pytest.approx(255e-6)
    assert out["import.numpy_s"] == pytest.approx(150e-6)
    assert out["import.scipy_sparse_s"] == pytest.approx(50e-6)
    assert out["import.networkx_s"] == pytest.approx(40e-6)
    assert out["import.repro_self_s"] == pytest.approx(10e-6)
