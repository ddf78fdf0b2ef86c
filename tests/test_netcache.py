"""The networked proof-cache tier (repro.verify.netcache).

Two layers of contract:

* wire level — the daemon (``repro cache serve``, the asyncio server it
  shares with ``repro serve``) serves/accepts verdict objects over the
  batched JSON protocol, answers malformed or oversized requests with
  4xx, and multiple upstreams shard by digest prefix;
* failure level — the client is *strictly fail-open*: a refused port, a
  wedged socket, a corrupt response, or a daemon dying mid-suite all
  degrade to cache misses, never exceptions, and the final verification
  report is byte-identical to a cache-off run.

The end-to-end tests drive real ``verify_suite`` runs through a real
daemon on a loopback socket and compare canonical reports.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.api import ProverOptions, VerifyOptions, verify_suite
from repro.opts import const_fold, const_prop
from repro.service.server import CACHE_MAX_BODY, MAX_BATCH_KEYS, CacheServer
from repro.verify.cache import SCHEMA_VERSION, ProofCache
from repro.verify.netcache import CacheClient
from repro.verify.cas import ShardedStore

from tests.servers import BackgroundServer

FAST = ProverOptions(timeout_s=60.0)
MINI_SUITE = dict(analyses=[], optimizations=[const_prop, const_fold])


def _entry(proved=True, config="", backend="internal"):
    return {"proved": proved, "elapsed_s": 0.1, "context": [],
            "config": config, "backend": backend}


def _start(tmp_path, name="store"):
    return BackgroundServer(CacheServer(tmp_path / name))


@pytest.fixture()
def daemon(tmp_path):
    with _start(tmp_path) as running:
        yield running.server


def _raw(server, method, path, body=b""):
    """One raw request: ``(status, parsed JSON body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request(method, path, body=body or None)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestWireProtocol:
    def test_batched_round_trip(self, daemon):
        client = CacheClient(daemon.url)
        entries = {f"aa{i:04x}": _entry() for i in range(8)}
        assert client.publish(entries)
        found = client.multi_get(list(entries) + ["ffffff"])
        assert set(found) == set(entries)
        assert client.stats.published == 8

    def test_consecutive_batches_on_one_client(self, daemon):
        # The daemon answers one request per connection; the client's
        # connection object must reopen by itself, never mark it dead.
        client = CacheClient(daemon.url)
        assert client.publish({"aa1111": _entry()})
        for _ in range(5):
            assert set(client.multi_get(["aa1111", "bb2222"])) == {"aa1111"}
        assert client.stats.requests == 6
        assert client.stats.errors == 0
        assert client.alive

    def test_two_upstreams_shard_by_digest_prefix(self, tmp_path):
        with _start(tmp_path, "even") as even, _start(tmp_path, "odd") as odd:
            client = CacheClient(f"{even.url},{odd.url}")
            # 0x00 % 2 == 0, 0xff % 2 == 1: one key per shard.
            assert client.publish({"00aaaa": _entry(), "ffbbbb": _entry()})
            even_store, odd_store = even.server.store, odd.server.store
            assert even_store.get("00aaaa") and not even_store.get("ffbbbb")
            assert odd_store.get("ffbbbb") and not odd_store.get("00aaaa")
            # Reads fan out to the right shard and merge.
            assert set(client.multi_get(["00aaaa", "ffbbbb"])) == {
                "00aaaa", "ffbbbb"}

    def test_schema_mismatch_is_a_miss_not_poison(self, daemon):
        daemon.store.put("aa1234", _entry())
        client = CacheClient(daemon.url)
        daemon.schema = SCHEMA_VERSION + 1  # daemon now speaks v(N+1)
        assert client.multi_get(["aa1234"]) == {}
        # A 404 is an honest miss; the upstream is not marked dead.
        assert client.alive

    def test_unsafe_keys_rejected_by_daemon(self, daemon):
        body = json.dumps({"entries": {"../escape": _entry(),
                                       "aa0001": _entry()}}).encode()
        status, payload = _raw(daemon, "POST",
                               f"/v{SCHEMA_VERSION}/multi-put", body)
        assert (status, payload["stored"]) == (200, 1)
        assert not (daemon.store.root / ".." / "escape.json").exists()
        assert not list(daemon.store.root.rglob("escape.json"))
        assert daemon.store.get("aa0001") is not None
        # Unsafe keys read as absent too.
        body = json.dumps({"keys": ["../escape", "aa0001"]}).encode()
        status, payload = _raw(daemon, "POST",
                               f"/v{SCHEMA_VERSION}/multi-get", body)
        assert status == 200 and set(payload["entries"]) == {"aa0001"}

    def test_stats_counts_objects(self, daemon):
        daemon.store.put("aa1234", _entry())
        status, payload = _raw(daemon, "GET", f"/v{SCHEMA_VERSION}/stats")
        assert status == 200
        assert payload == {"schema": SCHEMA_VERSION, "objects": 1}


class TestBadRequests:
    """Malformed input is a 4xx response, and the daemon keeps serving."""

    def _still_serving(self, daemon):
        assert _raw(daemon, "GET", f"/v{SCHEMA_VERSION}/stats")[0] == 200

    def test_malformed_json_is_400(self, daemon):
        status, payload = _raw(daemon, "POST",
                               f"/v{SCHEMA_VERSION}/multi-get", b"{nope")
        assert status == 400
        assert "malformed JSON" in payload["error"]
        self._still_serving(daemon)

    def test_wrong_batch_shape_is_400(self, daemon):
        body = json.dumps({"keys": {"not": "a list"}}).encode()
        assert _raw(daemon, "POST", f"/v{SCHEMA_VERSION}/multi-get",
                    body)[0] == 400
        body = json.dumps({"entries": ["not", "a", "dict"]}).encode()
        assert _raw(daemon, "POST", f"/v{SCHEMA_VERSION}/multi-put",
                    body)[0] == 400
        self._still_serving(daemon)

    def test_too_many_keys_is_400(self, daemon):
        keys = [f"k{i}" for i in range(MAX_BATCH_KEYS + 1)]
        body = json.dumps({"keys": keys}).encode()
        status, _ = _raw(daemon, "POST", f"/v{SCHEMA_VERSION}/multi-get", body)
        assert status == 400
        self._still_serving(daemon)

    def test_body_over_64_mib_is_413(self, daemon):
        # Announce the oversized body without sending it: the cap is
        # enforced on Content-Length, before a byte of body is read.
        assert CACHE_MAX_BODY == 64 * 1024 * 1024
        with socket.create_connection(("127.0.0.1", daemon.port), 10) as sock:
            sock.sendall(
                f"POST /v{SCHEMA_VERSION}/multi-put HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {CACHE_MAX_BODY + 1}\r\n\r\n".encode()
            )
            response = sock.recv(4096)
        assert b"413" in response.split(b"\r\n", 1)[0]
        self._still_serving(daemon)

    @pytest.mark.parametrize("method,path", [
        ("GET", "/v{schema}/nope"),
        ("GET", "/v{schema}/multi-get"),
        ("POST", "/v{schema}/stats"),
        # the retired single-object routes
        ("GET", "/v{schema}/objects/aa1111"),
        ("PUT", "/v{schema}/objects/aa1111"),
        ("GET", "/nope"),
    ])
    def test_unknown_route_is_404(self, daemon, method, path):
        body = b"{}" if method in ("POST", "PUT") else b""
        status, _ = _raw(daemon, method, path.format(schema=SCHEMA_VERSION),
                         body)
        assert status == 404
        self._still_serving(daemon)


class _GarbageHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002
        pass

    def _garbage(self):
        length = int(self.headers.get("Content-Length", 0))
        if length:
            self.rfile.read(length)
        body = b"<html>definitely not the cache protocol</html>"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _garbage
    do_POST = _garbage


class TestFailOpen:
    def test_refused_connection(self):
        client = CacheClient("http://127.0.0.1:1", timeout_s=0.5)
        assert client.multi_get(["aa1111"]) == {}
        assert not client.publish({"aa1111": _entry()})
        assert not client.alive
        # Dead upstreams are skipped without further round trips.
        before = client.stats.requests
        assert client.multi_get(["bb2222"]) == {}
        assert client.stats.requests == before

    def test_wedged_socket_costs_one_timeout(self):
        wedge = socket.socket()
        wedge.bind(("127.0.0.1", 0))
        wedge.listen(1)  # accepts, never answers
        try:
            url = f"http://127.0.0.1:{wedge.getsockname()[1]}"
            client = CacheClient(url, timeout_s=0.3)
            start = time.monotonic()
            assert client.multi_get(["aa1111"]) == {}
            elapsed = time.monotonic() - start
            assert elapsed < 2.0  # one timeout, no retry storm
            assert not client.alive
        finally:
            wedge.close()

    def test_corrupt_response_poisons_upstream(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _GarbageHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            client = CacheClient(url, timeout_s=1.0)
            assert client.multi_get(["aa1111"]) == {}
            assert not client.alive
            assert client.stats.errors >= 1
        finally:
            server.shutdown()
            server.server_close()

    def test_prefetch_and_publish_survive_dead_remote(self, tmp_path):
        cache = ProofCache(
            tmp_path, remote=CacheClient("http://127.0.0.1:1", timeout_s=0.3)
        )
        cache.put("aa1111", proved=True, elapsed_s=0.1)
        cache.prefetch(["bb2222"])
        cache.save()  # publish fails silently; L1 still written
        assert ShardedStore(tmp_path, SCHEMA_VERSION).get("aa1111") is not None


class TestEndToEnd:
    def _canonical_off(self):
        return verify_suite(VerifyOptions(prover=FAST), **MINI_SUITE).canonical()

    def test_warm_l2_only_replay(self, tmp_path, daemon):
        baseline = self._canonical_off()

        # Cold run: local L1 plus the daemon; fresh proofs are published.
        cold = verify_suite(
            VerifyOptions(prover=FAST, cache_dir=str(tmp_path / "l1"),
                          cache_url=daemon.url),
            **MINI_SUITE,
        )
        assert cold.canonical() == baseline
        assert cold.cache.remote.stats.published > 0
        assert daemon.store.count() == cold.cache.remote.stats.published

        # Warm run with *no* local cache directory: every verdict must come
        # from the network tier, in at most two round trips (one batched
        # suite prefetch; nothing new to publish), byte-identically.
        warm = verify_suite(
            VerifyOptions(prover=FAST, cache_url=daemon.url), **MINI_SUITE
        )
        assert warm.canonical() == baseline

        def results(report):
            for dep in report.dependencies:
                yield from results(dep)
            yield from report.results

        assert all(r.cached for rep in warm.reports for r in results(rep))
        assert warm.cache.remote.stats.requests <= 2
        assert warm.cache.remote.stats.hits > 0

    def test_l2_pulls_are_persisted_to_l1(self, tmp_path, daemon):
        verify_suite(
            VerifyOptions(prover=FAST, cache_dir=str(tmp_path / "a"),
                          cache_url=daemon.url),
            **MINI_SUITE,
        )
        # A different machine (fresh L1) warms from the network...
        verify_suite(
            VerifyOptions(prover=FAST, cache_dir=str(tmp_path / "b"),
                          cache_url=daemon.url),
            **MINI_SUITE,
        )
        # ...and read-through persists the pulled verdicts locally.
        store = ShardedStore(tmp_path / "b", SCHEMA_VERSION)
        assert store.count() > 0

    def test_wrong_typed_l2_entry_is_reproved(self, tmp_path, daemon):
        # A truthy string is not a proof: an entry whose ``proved`` is the
        # string "false" reads as a miss and the obligation is re-proved.
        baseline = self._canonical_off()
        verify_suite(VerifyOptions(prover=FAST, cache_url=daemon.url),
                     **MINI_SUITE)
        key = sorted(daemon.store.keys())[0]
        poisoned = dict(daemon.store.get(key), proved="false", context="abc")
        assert daemon.store.put(key, poisoned)

        warm = verify_suite(VerifyOptions(prover=FAST, cache_url=daemon.url),
                            **MINI_SUITE)
        assert warm.canonical() == baseline
        assert warm.cache.stats.misses >= 1
        assert warm.cache.stats.stores == 1
        assert not all(r.cached for rep in warm.reports for r in rep.results)

    def test_daemon_killed_mid_suite_fails_open(self, tmp_path):
        baseline = self._canonical_off()
        running = _start(tmp_path)
        killed = threading.Event()

        def kill_after_first(report):
            if not killed.is_set():
                killed.set()
                running.stop()

        suite = verify_suite(
            VerifyOptions(prover=FAST, cache_url=running.url),
            progress=kill_after_first,
            **MINI_SUITE,
        )  # must not raise
        assert killed.is_set()
        assert suite.canonical() == baseline


class TestCacheServeCommand:
    def test_sigterm_exits_zero(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "cache", "serve",
             "--dir", str(tmp_path / "store"), "--port", str(port)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "[cache-serve] listening on" in banner, banner
            client = CacheClient(f"http://127.0.0.1:{port}")
            assert client.publish({"aa1111": _entry()})
            assert set(client.multi_get(["aa1111"])) == {"aa1111"}
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
