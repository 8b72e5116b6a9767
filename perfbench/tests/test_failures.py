"""Wrong values and service errors count into the failure ratio."""

from perfbench import inproc, measure, oracle
from perfbench.probes import Case, ServiceLatencies
from perfbench.programs import program


def test_injected_wrong_value_counts_as_failed(monkeypatch):
    monkeypatch.setattr(oracle, "primes_output", lambda n: "-1")
    tally = measure.Tally()
    w = inproc.LazyRun(seed=1, tally=tally)
    w.setup()
    records = inproc.Records()
    w.loop(0.0, records, count=3)
    assert (tally.attempted, tally.failed) == (3, 3)
    assert records.op == []          # a wrong answer is never a latency sample


def test_correct_values_do_not_fail():
    tally = measure.Tally()
    w = inproc.LazyRun(seed=1, tally=tally)
    w.setup()
    records = inproc.Records()
    w.loop(0.0, records, count=3)
    assert (tally.attempted, tally.failed) == (3, 0)
    assert len(records.op) == 3


class StubClient:
    def __init__(self, outcome):
        self.outcome = outcome

    def specialize(self, *args, **kwargs):
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome


def ask(outcome):
    tally = measure.Tally()
    case = Case("lazy", program("lazy"), "()", ["4"], ["11"])
    ServiceLatencies(tally).ask(StubClient(outcome), case, 0, "bench")
    return tally


def test_service_errors_busy_included_count_as_failed():
    from repro.serve import ServiceError

    busy = ServiceError({"type": "error", "code": "BUSY", "retryable": True})
    assert (ask(busy).attempted, ask(busy).failed) == (1, 1)


def test_transport_errors_count_as_failed():
    assert ask(ConnectionResetError("peer reset")).failed == 1


def test_wrong_served_value_counts_as_failed():
    response = {
        "value": "13", "provenance": "l1", "elapsed_ms": 0.1,
        "fingerprint_digest": "0" * 64,
    }
    assert ask(response).failed == 1
    response["value"] = "11"
    assert ask(response).failed == 0
