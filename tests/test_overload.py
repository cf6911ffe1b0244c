"""Overload behaviour: bounded admission, deadline shedding, lanes, slowloris.

The service must stay *predictable* past saturation: a full queue answers
``429`` with honest backoff advice instead of queueing unboundedly, a
request whose budget burned in the queue is answered structurally without
costing pool time, a client that hangs up frees its queue slot, a giant
batch on one lane cannot starve a priority request on another, and a
drip-feeding client cannot hold a connection slot forever.  Everything here
drives the real service (and, where it matters, the real HTTP server over
real sockets); the dispatcher is held in place with a gate where tests need
a deterministically full queue.
"""

from __future__ import annotations

import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import FailureInfo
from repro.core.config import ProverConfig
from repro.core.result import ProofResult
from repro.logic.parser import parse_entailment
from repro.server import ProofServer, ProofService
from repro.server.service import ServiceOverloaded

FAST = ProverConfig(record_proof=False).with_timeout(5.0)


def _line(tag: str) -> str:
    return "{0}a |-> {0}b * {0}b |-> nil |- lseg({0}a, nil)".format(tag)


def _ent(tag: str):
    return parse_entailment(_line(tag))


class _Gate:
    """Hold the first dispatch inside ``prove_all`` until released.

    Submitting the blocker occupies the (single) lane, so everything
    submitted afterwards is *deterministically queued* — which is what the
    admission and deadline tests need.  Later calls pass straight through;
    ``calls`` counts how many requests actually reached the prover.
    """

    def __init__(self, service: ProofService):
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()
        self._original = service.batch.prove_all
        service.batch.prove_all = self._gated  # type: ignore[method-assign]
        self.blocker = service.submit([_ent("blocker")])
        assert self.entered.wait(10)

    def _gated(self, entailments, **kwargs):
        self.calls += 1
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(30)
        return self._original(entailments, **kwargs)


def _post(base: str, payload: dict, timeout: float = 30.0):
    request = urllib.request.Request(
        base + "/prove",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.status, json.loads(response.read())


class TestAdmissionControl:
    def test_shed_past_high_water_with_retry_after(self):
        service = ProofService(FAST, jobs=1, max_queue_requests=2)
        try:
            gate = _Gate(service)
            queued = [service.submit([_ent("q{}".format(i))]) for i in range(2)]
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.submit([_ent("refused")])
            assert 1.0 <= excinfo.value.retry_after <= 120.0
            assert service.stats()["shed"] == 1
            assert service.health()["status"] == "overloaded"
            gate.release.set()
            for future in [gate.blocker] + queued:
                outcomes = future.result(timeout=30)
                assert isinstance(outcomes[0], ProofResult)
        finally:
            gate.release.set()
            service.close()

    def test_entailment_cap_sheds_independently_of_request_cap(self):
        service = ProofService(
            FAST, jobs=1, max_queue_requests=100, max_queue_entailments=3
        )
        try:
            gate = _Gate(service)
            wide = service.submit([_ent("w{}".format(i)) for i in range(3)])
            with pytest.raises(ServiceOverloaded):
                service.submit([_ent("one_too_many")])
            gate.release.set()
            assert len(wide.result(timeout=30)) == 3
        finally:
            gate.release.set()
            service.close()

    def test_http_429_carries_retry_after_header(self):
        service = ProofService(FAST, jobs=1, max_queue_requests=1)
        server = ProofServer(service, port=0).serve_in_thread()
        gate = _Gate(service)
        try:
            base = "http://127.0.0.1:{}".format(server.port)
            queued = service.submit([_ent("held")])
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, {"entailment": _line("refused")})
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            body = json.loads(excinfo.value.read())
            assert body["retry_after"] >= 1.0
            # The shed flips /healthz to 503 overloaded for the hold window.
            with pytest.raises(urllib.error.HTTPError) as health_info:
                _get(base, "/healthz")
            assert health_info.value.code == 503
            health = json.loads(health_info.value.read())
            assert health["status"] == "overloaded" and not health["accepting"]
            assert "retry_after" in health
            gate.release.set()
            queued.result(timeout=30)
        finally:
            gate.release.set()
            server.shutdown()

    def test_healthz_503_draining_after_close(self):
        service = ProofService(FAST, jobs=1)
        server = ProofServer(service, port=0).serve_in_thread()
        try:
            base = "http://127.0.0.1:{}".format(server.port)
            service.close()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base, "/healthz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["status"] == "draining"
            # /prove maps the closed service to 503, not a hung future.
            with pytest.raises(urllib.error.HTTPError) as prove_info:
                _post(base, {"entailment": _line("late")})
            assert prove_info.value.code == 503
        finally:
            server.shutdown()


class TestDeadlineShedding:
    def test_expired_in_queue_is_answered_without_touching_the_pool(self):
        service = ProofService(FAST, jobs=1)
        try:
            gate = _Gate(service)
            doomed = service.submit([_ent("doomed")], timeout=0.05)
            time.sleep(0.2)  # burn the whole budget in the queue
            dispatched_before = gate.calls
            gate.release.set()
            outcomes = doomed.result(timeout=30)
            assert isinstance(outcomes[0], FailureInfo)
            assert outcomes[0].kind == "timeout"
            assert "expired in queue" in outcomes[0].detail
            gate.blocker.result(timeout=30)
            # Only the blocker ever reached the prover.
            assert gate.calls == dispatched_before == 1
            stats = service.stats()
            assert stats["expired_in_queue"] == 1
            # The expired request still shows up in the latency split, as
            # pure queue-wait (that is what makes shedding tunable).
            assert stats["queue_wait"]["count"] >= 2
        finally:
            gate.release.set()
            service.close()

    def test_disconnect_cancels_still_queued_future(self):
        service = ProofService(FAST, jobs=1)
        server = ProofServer(service, port=0).serve_in_thread()
        gate = _Gate(service)
        try:
            payload = json.dumps({"entailment": _line("abandoned")}).encode("utf-8")
            raw = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            raw.sendall(
                b"POST /prove HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                + "Content-Length: {}\r\n\r\n".format(len(payload)).encode("latin-1")
                + payload
            )
            time.sleep(0.3)  # let the request land in the queue
            raw.close()  # the client gives up while still queued
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if service.stats()["cancelled"] == 1:
                    break
                if service.stats()["queue_depth"] > 0:
                    pass  # still waiting for the monitor to notice the hangup
                time.sleep(0.05)
                if service.stats()["cancelled"] == 1:
                    break
            gate.release.set()
            gate.blocker.result(timeout=30)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and service.stats()["cancelled"] != 1:
                time.sleep(0.05)
            stats = service.stats()
            assert stats["cancelled"] == 1
            # The abandoned request never reached the prover.
            assert gate.calls == 1
        finally:
            gate.release.set()
            server.shutdown()


class TestLaneIsolation:
    def test_priority_request_lands_within_5x_unloaded_p50(self):
        service = ProofService(FAST, jobs=2)
        try:
            # Warm the pool, then measure the unloaded p50 of a singleton.
            service.submit([_ent("warm")]).result(timeout=60)
            unloaded = []
            for i in range(5):
                started = time.perf_counter()
                service.submit([_ent("u{}".format(i))]).result(timeout=60)
                unloaded.append(time.perf_counter() - started)
            p50 = statistics.median(unloaded)
            # A floor absorbs scheduler noise on very fast machines: the
            # bound stays "5x unloaded", never tighter than 250ms.
            bound = 5.0 * max(p50, 0.05)
            big = service.submit(
                [_ent("big{}".format(i)) for i in range(200)], priority=0
            )
            started = time.perf_counter()
            outcomes = service.submit([_ent("vip")], priority=1).result(timeout=60)
            elapsed = time.perf_counter() - started
            assert isinstance(outcomes[0], ProofResult)
            assert elapsed < bound, (
                "priority request took {:.3f}s next to a 200-entailment batch; "
                "unloaded p50 {:.3f}s allows {:.3f}s".format(elapsed, p50, bound)
            )
            assert len(big.result(timeout=120)) == 200
        finally:
            service.close()


class TestSlowloris:
    def test_drip_fed_headers_get_408(self):
        service = ProofService(FAST, jobs=1)
        server = ProofServer(service, port=0)
        server.read_timeout = 0.3
        server.serve_in_thread()
        try:
            raw = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            raw.sendall(b"POST /prove HTTP/1.1\r\nHost: x\r\n")  # ... and stall
            raw.settimeout(5)
            response = raw.recv(4096)
            assert response.startswith(b"HTTP/1.1 408")
            raw.close()
        finally:
            server.shutdown()

    def test_idle_keepalive_is_reaped(self):
        service = ProofService(FAST, jobs=1)
        server = ProofServer(service, port=0)
        server.idle_timeout = 0.3
        server.serve_in_thread()
        try:
            raw = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            raw.settimeout(5)
            assert raw.recv(4096) == b""  # server closed the idle connection
            raw.close()
        finally:
            server.shutdown()

    def test_header_count_cap_rejects_not_hangs(self):
        service = ProofService(FAST, jobs=1)
        server = ProofServer(service, port=0).serve_in_thread()
        try:
            raw = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            flood = "".join("X-Pad-{}: x\r\n".format(i) for i in range(150))
            raw.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                + flood.encode("latin-1")
                + b"\r\n"
            )
            raw.settimeout(5)
            response = raw.recv(4096)
            assert response.startswith(b"HTTP/1.1 400")
            raw.close()
        finally:
            server.shutdown()


class TestAccountingInvariant:
    @settings(max_examples=10, deadline=None)
    @given(
        plan=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=5)),
            min_size=1,
            max_size=12,
        )
    )
    def test_shed_plus_answered_plus_cancelled_equals_submitted(self, plan):
        """Every submission is accounted for exactly once, whatever happens.

        Under a held lane with a tiny queue, a random interleaving of
        submissions and client cancellations must satisfy::

            attempted == shed + answered + cancelled

        with no future left unresolved and no double counting.
        """
        service = ProofService(FAST, jobs=1, max_queue_requests=3)
        gate = None
        try:
            gate = _Gate(service)
            accepted = [gate.blocker]
            shed_seen = 0
            for index, (cancel, priority) in enumerate(plan):
                try:
                    future = service.submit(
                        [_ent("p{}".format(index))], priority=priority
                    )
                except ServiceOverloaded:
                    shed_seen += 1
                    continue
                accepted.append(future)
                if cancel:
                    future.cancel()  # may lose the race with the lane; fine
            gate.release.set()
            service.close()  # drains: every accepted future resolves now
            answered = 0
            cancelled = 0
            for future in accepted:
                if future.cancelled():
                    cancelled += 1
                else:
                    outcomes = future.result(timeout=30)
                    assert all(
                        isinstance(o, (ProofResult, FailureInfo)) for o in outcomes
                    )
                    answered += 1
            attempted = len(plan) + 1  # + the blocker
            assert shed_seen + answered + cancelled == attempted
            stats = service.stats()
            assert stats["shed"] == shed_seen
            assert stats["cancelled"] == cancelled
            assert stats["requests"] == answered
        finally:
            if gate is not None:
                gate.release.set()
            service.close()
