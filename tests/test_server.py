"""The entailment service: queue, HTTP front, persistent store, shutdown.

These are integration tests in the tier-1 suite: they boot the real server
on an ephemeral port (event loop on a background thread), speak real HTTP
over sockets, and exercise the properties the service exists for — warm
cache across requests, per-request budgets, priority scheduling, graceful
drain, and a warm restart from the persistent store.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.batch import FailureInfo
from repro.core.config import ProverConfig
from repro.core.result import ProofResult
from repro.core.store import ProofStore
from repro.logic.parser import parse_entailment
from repro.server import ProofServer, ProofService

FAST = ProverConfig(record_proof=False).with_timeout(5.0)


def _post(base: str, path: str, payload: dict):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.status, json.loads(response.read())


@pytest.fixture()
def server():
    service = ProofService(FAST, jobs=1)
    instance = ProofServer(service, port=0).serve_in_thread()
    try:
        yield instance
    finally:
        instance.shutdown()


class TestHttpApi:
    def test_healthz_and_stats(self, server):
        base = "http://127.0.0.1:{}".format(server.port)
        status, health = _get(base, "/healthz")
        assert status == 200 and health["status"] == "healthy"
        status, stats = _get(base, "/stats")
        assert status == 200
        assert stats["requests"] == 0 and "pool" in stats and "cache" in stats

    def test_prove_aligns_results_with_input_lines(self, server):
        base = "http://127.0.0.1:{}".format(server.port)
        status, body = _post(
            base,
            "/prove",
            {
                "entailments": [
                    "x |-> y * y |-> nil |- lseg(x, nil)",
                    "lseg(x, y) |- next(x, y)",
                    "this does not parse",
                ],
                "counterexample": True,
            },
        )
        assert status == 200
        first, second, third = body["results"]
        assert first["status"] == "ok" and first["verdict"] == "valid"
        assert second["status"] == "ok" and second["verdict"] == "invalid"
        assert second["counterexample"]  # invalid verdicts ship their witness
        assert third["status"] == "parse_error" and "expected" in third["error"]

    def test_alpha_renamed_repeat_is_answered_from_cache(self, server):
        base = "http://127.0.0.1:{}".format(server.port)
        _, cold = _post(base, "/prove", {"entailment": "a |-> b * b |-> nil |- lseg(a, nil)"})
        assert cold["results"][0]["from_cache"] is False
        _, warm = _post(base, "/prove", {"entailment": "p |-> q * q |-> nil |- lseg(p, nil)"})
        assert warm["results"][0]["status"] == "ok"
        assert warm["results"][0]["from_cache"] is True
        _, stats = _get(base, "/stats")
        assert stats["cache"]["hits"] >= 1

    def test_proof_on_request_only(self, server):
        base = "http://127.0.0.1:{}".format(server.port)
        _, body = _post(
            base, "/prove", {"entailment": "k |-> nil |- lseg(k, nil)", "proof": True}
        )
        entry = body["results"][0]
        assert entry["verdict"] == "valid" and entry["proof"]
        _, plain = _post(base, "/prove", {"entailment": "m |-> nil |- lseg(m, nil)"})
        assert "proof" not in plain["results"][0]

    def test_proof_request_is_not_answered_by_a_proofless_hit(self, server):
        base = "http://127.0.0.1:{}".format(server.port)
        _, plain = _post(base, "/prove", {"entailment": "p |-> q * q |-> nil |- lseg(p, nil)"})
        assert plain["results"][0]["verdict"] == "valid"
        _, asked = _post(
            base,
            "/prove",
            {"entailment": "s |-> t * t |-> nil |- lseg(s, nil)", "proof": True},
        )
        entry = asked["results"][0]
        assert entry["verdict"] == "valid" and entry["proof"]
        assert entry["from_cache"] is False

    def test_per_request_timeout_is_honoured(self, server):
        base = "http://127.0.0.1:{}".format(server.port)
        hard = "lseg(x, y) * lseg(y, z) * lseg(z, x) * x != z |- lseg(x, z)"
        _, budgeted = _post(base, "/prove", {"entailment": hard, "timeout": 1e-9})
        assert budgeted["results"][0]["status"] == "timeout"
        # The same instance decides fine under the server's default budget.
        _, free = _post(base, "/prove", {"entailment": hard})
        assert free["results"][0]["status"] == "ok"

    def test_malformed_requests_are_rejected_not_fatal(self, server):
        base = "http://127.0.0.1:{}".format(server.port)
        for payload in ({}, {"entailments": "not-a-list"}, {"entailments": []},
                        {"entailment": "x |-> nil |- lseg(x, nil)", "timeout": -1}):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, "/prove", payload)
            assert excinfo.value.code == 400
        status, health = _get(base, "/healthz")  # the server survived all of it
        assert status == 200 and health["status"] == "healthy"

    def test_concurrent_clients(self, server):
        base = "http://127.0.0.1:{}".format(server.port)
        answers = []
        errors = []

        def client(tag: int) -> None:
            line = "c{0} |-> d{0} * d{0} |-> nil |- lseg(c{0}, nil)".format(tag)
            try:
                _, body = _post(base, "/prove", {"entailment": line})
                answers.append(body["results"][0]["verdict"])
            except Exception as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        threads = [threading.Thread(target=client, args=(tag,)) for tag in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert answers == ["valid"] * 12
        _, stats = _get(base, "/stats")
        assert stats["requests"] == 12
        assert stats["latency"]["count"] == 12 and "p99_ms" in stats["latency"]


class TestProofService:
    def test_timeout_clamped_to_configured_ceiling(self):
        with ProofService(FAST, jobs=1) as service:
            assert service.clamp_timeout(None) is None
            assert service.clamp_timeout(0.5) == 0.5
            assert service.clamp_timeout(500.0) == FAST.max_seconds
            with pytest.raises(ValueError):
                service.clamp_timeout(0.0)

    def test_priority_jumps_the_queue(self, monkeypatch):
        service = ProofService(FAST, jobs=1)
        try:
            original = service.batch.prove_all
            first_started = threading.Event()
            release = threading.Event()

            def gated(entailments, **kwargs):
                if not first_started.is_set():
                    first_started.set()
                    assert release.wait(10)
                return original(entailments, **kwargs)

            monkeypatch.setattr(service.batch, "prove_all", gated)
            finished = []
            blocker = service.submit([parse_entailment("b |-> nil |- lseg(b, nil)")])
            assert first_started.wait(10)
            # Both queue up while the dispatcher is held; high priority wins
            # despite being submitted last.
            low = service.submit(
                [parse_entailment("lo |-> nil |- lseg(lo, nil)")], priority=0
            )
            high = service.submit(
                [parse_entailment("hi |-> nil |- lseg(hi, nil)")], priority=5
            )
            low.add_done_callback(lambda _: finished.append("low"))
            high.add_done_callback(lambda _: finished.append("high"))
            release.set()
            for future in (blocker, low, high):
                future.result(timeout=30)
            assert finished == ["high", "low"]
        finally:
            service.close()

    def test_close_drains_accepted_work(self):
        service = ProofService(FAST, jobs=1)
        futures = [
            service.submit([parse_entailment("d{0} |-> nil |- lseg(d{0}, nil)".format(i))])
            for i in range(5)
        ]
        service.close()  # the sentinel sorts after every accepted request
        for future in futures:
            outcomes = future.result(timeout=1)  # already resolved by the drain
            assert isinstance(outcomes[0], ProofResult) and outcomes[0].is_valid
        with pytest.raises(RuntimeError):
            service.submit([parse_entailment("x |-> nil |- lseg(x, nil)")])

    def test_internal_error_fails_one_request_not_the_service(self, monkeypatch):
        service = ProofService(FAST, jobs=1)
        try:
            original = service.batch.prove_all
            calls = {"count": 0}

            def flaky(entailments, **kwargs):
                calls["count"] += 1
                if calls["count"] == 1:
                    raise RuntimeError("injected dispatcher fault")
                return original(entailments, **kwargs)

            monkeypatch.setattr(service.batch, "prove_all", flaky)
            doomed = service.submit([parse_entailment("x |-> nil |- lseg(x, nil)")])
            with pytest.raises(RuntimeError, match="injected"):
                doomed.result(timeout=30)
            healthy = service.submit([parse_entailment("y |-> nil |- lseg(y, nil)")])
            assert healthy.result(timeout=30)[0].is_valid
            assert service.stats()["internal_errors"] == 1
        finally:
            service.close()

    def test_kill_and_restart_answers_warm_from_store(self, tmp_path):
        store_path = str(tmp_path / "proofs.store")
        lines = [
            "a |-> b * b |-> nil |- lseg(a, nil)",
            "lseg(u, v) * lseg(v, nil) |- lseg(u, nil)",
        ]
        with ProofService(FAST, jobs=1, store_path=store_path) as first:
            outcomes = first.submit([parse_entailment(line) for line in lines]).result(30)
            assert all(isinstance(o, ProofResult) for o in outcomes)
        # The store is one file at the given path, holding every stored key.
        with ProofStore(store_path) as store:
            assert len(store) == len(lines)
        # A fresh service over the same path answers alpha-renamed repeats
        # from disk without proving anything.
        renamed = [
            "p |-> q * q |-> nil |- lseg(p, nil)",
            "lseg(m, n) * lseg(n, nil) |- lseg(m, nil)",
        ]
        with ProofService(FAST, jobs=1, store_path=store_path) as second:
            warm = second.submit([parse_entailment(line) for line in renamed]).result(30)
            assert all(o.from_cache for o in warm)
            assert second.cache.disk is not None
            assert second.cache.disk_hits == len(renamed)
            assert second.batch.statistics.proved == 0

    def test_timeout_echoes_to_duplicates_but_is_not_persisted(self, tmp_path):
        """A timeout is budget-relative; persisting it would poison warmer runs."""
        store_path = str(tmp_path / "proofs.store")
        hard = parse_entailment("lseg(x, y) * lseg(y, z) * lseg(z, x) * x != z |- lseg(x, z)")
        with ProofService(FAST, jobs=1, store_path=store_path) as service:
            outcomes = service.submit([hard], timeout=1e-9).result(30)
            assert isinstance(outcomes[0], FailureInfo)
            assert outcomes[0].kind == "timeout"
            disk = service.cache.disk
            assert len(disk) == 0
