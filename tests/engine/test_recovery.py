"""The task-recovery state machine, driven without processes.

A fake transport issues due attempts and the test reports each
attempt's fate by hand; a fake clock makes retry backoff observable
without sleeping.  One case per transition of :class:`TaskRecovery`.
"""

import pytest

from repro.engine.backends.base import RunState, TaskRecovery
from repro.engine.executor import Task
from repro.engine.faults import RetryPolicy, is_failure

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

RETRY = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=1.0, jitter=0.0)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class FakeJournal:
    """In-memory stand-in for the journal calls the machine makes."""

    def __init__(self, crashes=None):
        self.crashes = dict(crashes or {})
        self.settled: "list[int]" = []

    def crash_counts(self, stage):
        return dict(self.crashes)

    def record_crash(self, stage, index):
        self.crashes[index] = self.crashes.get(index, 0) + 1
        return self.crashes[index]

    def record(self, stage, index, value):
        self.settled.append(index)

    def log_failure(self, failure):
        self.settled.append(failure.index)


class FakeTransport:
    """Issues every due task, as a real transport's poll would."""

    def __init__(self, recovery: TaskRecovery):
        self.recovery = recovery

    def issue_due(self) -> "dict[int, int]":
        return {idx: self.recovery.issue(idx) for idx in self.recovery.due()}


def _machine(n=3, on_error="skip", crashes=None, quarantine_after=3):
    journal = FakeJournal(crashes)
    state = RunState(
        fn=None, stage="s", context=None, on_error=on_error, retry=RETRY,
        timeout=None, journal=journal, report=None,
        quarantine_after=quarantine_after,
    )
    results: "dict[int, object]" = {}
    clock = FakeClock()
    recovery = TaskRecovery(state, [Task(i, i) for i in range(n)], results, clock)
    return recovery, FakeTransport(recovery), results, clock, journal


def test_stale_attempt_is_ignored():
    recovery, transport, results, clock, _ = _machine(on_error="retry")
    transport.issue_due()
    recovery.error(0, 1, ValueError("first attempt"))
    clock.now += 10.0
    assert transport.issue_due() == {0: 2}
    recovery.complete(0, 1, "late result of attempt 1")
    recovery.complete(7, 1, "unknown task")
    assert 0 not in results and 7 not in results
    recovery.complete(0, 2, "attempt 2")
    assert results == {0: "attempt 2"}


def test_retry_becomes_due_only_after_its_delay():
    recovery, transport, _, clock, _ = _machine(on_error="retry")
    transport.issue_due()
    recovery.error(1, 1, ValueError("transient"))
    delay = RETRY.delay(1, 1)
    assert recovery.due() == []
    clock.now += delay / 2
    assert recovery.due() == []
    clock.now += delay / 2
    assert transport.issue_due() == {1: 2}


def test_skip_settles_a_failure():
    recovery, transport, results, _, _ = _machine(on_error="skip")
    transport.issue_due()
    recovery.error(1, 1, ValueError("bad payload"))
    recovery.complete(0, 1, "a")
    recovery.complete(2, 1, "c")
    assert recovery.finished
    assert results[0] == "a" and results[2] == "c"
    failure = results[1]
    assert is_failure(failure)
    assert (failure.kind, failure.error_type, failure.attempts) == ("error", "ValueError", 1)
    assert failure.message == "bad payload"


def test_raise_reraises_the_task_exception():
    recovery, transport, _, _, _ = _machine(on_error="raise")
    transport.issue_due()
    exc = ValueError("boom")
    with pytest.raises(ValueError) as caught:
        recovery.error(0, 1, exc)
    assert caught.value is exc


def test_timeout_under_raise_raises_timeout_error():
    recovery, transport, _, _, _ = _machine(on_error="raise")
    transport.issue_due()
    with pytest.raises(TimeoutError, match="task 2 .* 2.5s wall-clock budget"):
        recovery.timeout(2, 1, 2.5)


def test_loss_reissues_the_same_attempt():
    recovery, transport, results, _, journal = _machine(on_error="retry")
    transport.issue_due()
    assert recovery.lost(0) is False
    assert journal.crashes == {0: 1}
    assert transport.issue_due() == {0: 1}
    recovery.complete(0, 1, "survived")
    assert results[0] == "survived"


def test_kth_loss_quarantines():
    recovery, transport, results, _, journal = _machine(quarantine_after=2)
    transport.issue_due()
    assert recovery.lost(1) is False
    assert transport.issue_due() == {1: 1}
    assert recovery.lost(1) is True
    assert recovery.due() == [] and journal.crashes == {1: 2}
    recovery.complete(0, 1, "a")
    assert results[1].kind == "quarantined" and results[1].attempts == 2


def test_kth_loss_raises_under_raise():
    recovery, transport, _, _, _ = _machine(on_error="raise", quarantine_after=1)
    transport.issue_due()
    with pytest.raises(RuntimeError, match="killed 1 worker.*quarantined"):
        recovery.lost(0)


def test_resumed_crash_counts_prequarantine():
    recovery, transport, results, _, _ = _machine(crashes={1: 3}, quarantine_after=3)
    assert transport.issue_due() == {0: 1, 2: 1}
    recovery.complete(0, 1, "a")
    assert results[1].kind == "quarantined"
    # Under raise nothing is settled up front: the next loss will raise.
    strict, strict_transport, _, _, _ = _machine(on_error="raise", crashes={1: 3})
    assert strict_transport.issue_due() == {0: 1, 1: 1, 2: 1}


def test_out_of_order_completion_settles_in_task_order():
    recovery, transport, results, _, journal = _machine(n=4)
    transport.issue_due()
    recovery.complete(2, 1, "c")
    recovery.complete(3, 1, "d")
    assert results == {} and journal.settled == []
    recovery.complete(0, 1, "a")
    assert journal.settled == [0]
    recovery.error(1, 1, ValueError("late failure"))
    assert journal.settled == [0, 1, 2, 3]
    assert list(results) == [0, 1, 2, 3]
