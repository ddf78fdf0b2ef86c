"""service-replay: the ``repro serve`` daemon under a seeded job stream.

Set-up builds a warm L1 cache directory with one cold ``verify_suite``
and computes the library answer for every named suite subset the stream
replays.  The daemon then starts on a fresh copy of that directory with
``--jobs`` at most ``nproc`` and rate limiting off (``--burst 0``: both
clients share one peer address, so 429s would measure the limiter, not the
service).  One client process drives it in a closed loop over 2 loopback
connections.  One job in 25 is a novel Cobalt source that misses the
cache; the rest must all be cache hits.  After the window the
client reads ``/v1/stats`` and stops the daemon with SIGTERM, which must
exit cleanly; the novel jobs' library answers are computed afterwards, in
a separate process with no cache.

    python3 perfbench/wl_service.py --setup --seed N --warm DIR
    python3 perfbench/wl_service.py --reference   (a JSON list of sources on stdin)
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from measure import (
    HERE, ROOT, WORK, Tally, child_env, emit, enable_src, median,
    peak_rss_mb, quantile, ratio, run_child,
)

#: jobs per replay in the traced run (the untraced and traced replays run
#: the same jobs so their wall times compare)
TRACE_JOBS = 240
CLIENTS = 2


# -- children -------------------------------------------------------------------


def _setup_child(args) -> None:
    """Warm the L1 directory and answer every suite subset of the stream."""
    enable_src()
    from repro.api import VerifyOptions, verify_suite
    from repro import opts

    import inputs

    options = VerifyOptions(cache_dir=args.warm)
    # the smoke run warms only the subsets it replays (answered below)
    sound = args.smoke or verify_suite(options).sound
    by_name = {x.name: x for x in opts.ALL_ANALYSES + opts.ALL_OPTIMIZATIONS}
    stream = inputs.JobStream(args.seed, args.smoke)
    answers = []
    for analyses, optimizations in stream.subsets:
        report = verify_suite(
            options,
            analyses=[by_name[n] for n in analyses],
            optimizations=[by_name[n] for n in optimizations],
        )
        answers.append(report.canonical())
    emit({"sound": sound, "answers": answers})


def _reference_child(args) -> None:
    """Library answers for Cobalt sources, with no cache at all."""
    enable_src()
    from repro.api import verify_suite
    from repro.service.jobs import _split_blocks

    answers = []
    for source in json.loads(sys.stdin.read()):
        analyses, optimizations = _split_blocks(source)
        answers.append(verify_suite(
            analyses=analyses, optimizations=optimizations).canonical())
    emit({"answers": answers})


# -- the daemon -----------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Daemon:
    """One ``repro serve`` child process (optionally traced)."""

    def __init__(self, cache_dir: Path, log: Path,
                 trace_out: Optional[Path] = None) -> None:
        self.port = _free_port()
        jobs = max(1, min(2, os.cpu_count() or 1))
        serve = ["--jobs", str(jobs), "--cache-dir", str(cache_dir), "serve",
                 "--host", "127.0.0.1", "--port", str(self.port),
                 "--burst", "0"]
        if trace_out is None:
            argv = ["-m", "repro", *serve]
        else:
            argv = [str(HERE / "traced_serve.py"), "--out", str(trace_out),
                    "--", *serve]
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=str(ROOT), env=child_env(),
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60
        while True:
            try:
                status, _ = request(self.port, "GET", "/v1/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"daemon failed to start (see {log})")
            time.sleep(0.05)

    def stats(self) -> dict:
        status, body = request(self.port, "GET", "/v1/stats")
        return json.loads(body) if status == 200 else {}

    def stop(self) -> Optional[int]:
        """SIGTERM, then wait; returns the exit code (None if killed)."""
        code = None
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()
        return code


def request(port: int, method: str, path: str, body: bytes = b""):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body or None, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# -- the client -----------------------------------------------------------------


class Replay:
    """Closed-loop clients over one seeded job stream."""

    def __init__(self, stream, port: int) -> None:
        self.stream = stream
        self.port = port
        self.records: List[Dict] = []
        self._next = 0
        self._lock = threading.Lock()

    def _take(self, limit: Optional[int]) -> Optional[int]:
        with self._lock:
            if limit is not None and self._next >= limit:
                return None
            i = self._next
            self._next += 1
            return i

    def _client(self, deadline: Optional[float], limit: Optional[int]) -> None:
        while deadline is None or time.perf_counter() < deadline:
            i = self._take(limit)
            if i is None:
                return
            job = self.stream.job(i)
            body = json.dumps(job).encode()
            record = {"i": i, "novel": "source" in job}
            start = time.perf_counter()
            try:
                status, raw = request(self.port, "POST", "/v1/jobs", body)
            except OSError as exc:
                status, raw = 0, str(exc).encode()
            end = time.perf_counter()
            record.update(status=status, start=start, end=end)
            if status == 200:
                try:
                    self._decode(raw, record)
                except (ValueError, KeyError, TypeError) as exc:
                    record["job_status"] = f"undecodable: {exc}"
            else:
                record["error"] = raw[:200].decode("utf-8", "replace")
            with self._lock:
                self.records.append(record)

    @staticmethod
    def _decode(raw: bytes, record: Dict) -> None:
        from repro.api import SuiteReport

        doc = json.loads(raw)
        record["job_status"] = doc.get("status")
        result = doc.get("result") or {}
        if "suite" not in result:
            return
        t = time.perf_counter()
        suite = SuiteReport.from_wire(result["suite"])
        record["decode_s"] = time.perf_counter() - t
        record["canonical"] = result.get("canonical")
        record["server_s"] = suite.elapsed_s
        results = list(_all_results(suite.reports))
        record["uncached"] = sum(1 for r in results if not r.cached)
        record["results"] = len(results)

    def run(self, seconds: Optional[float] = None,
            jobs: Optional[int] = None) -> float:
        """Drive the daemon; returns the window's wall time."""
        start = time.perf_counter()
        deadline = None if seconds is None else start + seconds
        threads = [threading.Thread(target=self._client, args=(deadline, jobs))
                   for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.records.sort(key=lambda r: r["i"])
        return max((r["end"] for r in self.records), default=start) - start


def _all_results(reports):
    for report in reports:
        yield from _all_results(report.dependencies)
        yield from report.results


# -- checks ---------------------------------------------------------------------


def _references(sources: List[str]) -> List[Optional[str]]:
    """Library answers for ``sources``, split over one child per core."""
    width = max(1, min(2, os.cpu_count() or 1))
    parts = [sources[k::width] for k in range(width)]
    answers: List[List[str]] = [[] for _ in parts]

    def work(k: int) -> None:
        try:
            answers[k] = run_child(
                [str(HERE / "wl_service.py"), "--reference"],
                stdin=json.dumps(parts[k]))["answers"]
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"perfbench: reference run failed: {exc}", file=sys.stderr)
            answers[k] = [None] * len(parts[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(width)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    out: List[Optional[str]] = [None] * len(sources)
    for k, part in enumerate(answers):
        out[k::width] = part
    return out


def check(replay: Replay, answers: List[str], stats: dict, exit_code,
          plant: Optional[str]) -> Tally:
    """Every job against its library answer, plus the daemon's own view."""
    stream = replay.stream
    tally = Tally()
    novel = [r for r in replay.records if r["novel"]]
    novel_answer = dict(zip((r["i"] for r in novel), _references(
        [stream.novel_source(r["i"]) for r in novel])))
    expected_misses = 0
    for r in replay.records:
        i = r["i"]
        if r["status"] != 200 or r.get("job_status") != "done":
            tally.op(False, f"job {i}: HTTP {r['status']} "
                            f"{r.get('job_status')} {r.get('error', '')}")
            continue
        uncached = r.get("uncached", -1)
        if r["novel"]:
            want = novel_answer[i]
            expected_misses += max(0, uncached)
            hit_ok = uncached > 0
        else:
            want = answers[i % len(answers)]
            hit_ok = uncached == 0
        if plant == "canonical" and i == 0:
            want += "\n<planted>"
        same = r.get("canonical") == want
        tally.op(same and hit_ok,
                 f"job {i} ({'novel' if r['novel'] else 'hit'}): canonical "
                 f"{'matches' if same else 'differs'}, {r.get('uncached')}/"
                 f"{r.get('results')} obligation(s) uncached")
    misses = stats.get("cache", {}).get("misses")
    if misses != expected_misses:
        tally.fail(f"/v1/stats reports {misses} cache miss(es), "
                   f"the novel jobs account for {expected_misses}")
    if exit_code != 0:
        tally.fail(f"daemon exited with {exit_code} after SIGTERM")
    return tally


# -- the workload ---------------------------------------------------------------


def _replay(stream, warm: Path, tag: str, *, seconds=None, jobs=None,
            traced=False):
    cache = WORK / f"svc-{tag}"
    shutil.rmtree(cache, ignore_errors=True)
    shutil.copytree(warm, cache)
    trace_out = WORK / f"svc-{tag}.trace.json" if traced else None
    start = time.perf_counter()
    daemon = Daemon(cache, WORK / f"svc-{tag}.log", trace_out)
    started_s = time.perf_counter() - start
    try:
        replay = Replay(stream, daemon.port)
        wall = replay.run(seconds=seconds, jobs=jobs)
        stats = daemon.stats()
        rss = peak_rss_mb(daemon.proc.pid)
    finally:
        exit_code = daemon.stop()
        shutil.rmtree(cache, ignore_errors=True)
    layers = json.loads(trace_out.read_text()) if traced else None
    return replay, wall, stats, rss, exit_code, layers, started_s


def run(seed: int, seconds: float, trace: bool, smoke: bool,
        plant=None) -> tuple:
    enable_src()
    WORK.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    import inputs

    stream = inputs.JobStream(seed, smoke)
    warm = WORK / f"svc-warm-{seed}"
    shutil.rmtree(warm, ignore_errors=True)
    argv = [str(HERE / "wl_service.py"), "--setup", "--seed", str(seed),
            "--warm", str(warm)] + ["--smoke"] * smoke
    prepared = run_child(argv)
    setup_s = time.perf_counter() - t0
    answers = prepared["answers"]
    tally = Tally()
    if not prepared["sound"]:
        tally.fail("set-up: the shipped suite did not verify SOUND")

    try:
        if trace:
            jobs = 40 if smoke else TRACE_JOBS
            base = _replay(stream, warm, f"{seed}-plain", jobs=jobs)
            traced = _replay(stream, warm, f"{seed}-traced", jobs=jobs,
                             traced=True)
        else:
            base = _replay(stream, warm, f"{seed}", seconds=seconds)
    finally:
        shutil.rmtree(warm, ignore_errors=True)

    replay, wall, stats, rss, exit_code, _, started_s = base
    tally.merge(check(replay, answers, stats, exit_code, plant))
    hits = [r["end"] - r["start"] for r in replay.records if not r["novel"]]
    misses = [r["end"] - r["start"] for r in replay.records if r["novel"]]
    table = {
        "jobs": len(replay.records),
        "novel_jobs": len(misses),
        "jobs_per_s": ratio(len(replay.records), wall),
        "hit_p50_ms": 1000 * median(hits),
        "hit_p90_ms": 1000 * quantile(hits, 0.9),
        "miss_p50_ms": 1000 * median(misses),
        "miss_mean_ms": 1000 * ratio(sum(misses), len(misses)),
    }
    if not trace:
        metrics = {
            "setup_s": setup_s + started_s,  # warm-up, answers, daemon start
            "peak_rss_mb": rss,
            "ops_per_s": table["jobs_per_s"],
            "main_p50_ms": table["hit_p50_ms"],
            "main_p90_ms": table["hit_p90_ms"],
            "side_mean_ms": table["miss_mean_ms"],
        }
        return tally, metrics, table

    t_replay, t_wall, t_stats, _rss, t_exit, layers, _ = traced
    tally.merge(check(t_replay, answers, t_stats, t_exit, plant))
    done = [r for r in t_replay.records if r["status"] == 200 and "server_s" in r]
    broker = t_stats.get("broker", {})
    layers.update({
        "broker.enqueued": broker.get("enqueued", 0),
        "broker.dispatches": broker.get("dispatches", 0),
        "broker.coalesced": broker.get("coalesced", 0),
        "http.requests": len(t_replay.records),
        "http.non200": sum(r["status"] != 200 for r in t_replay.records),
        "http.overhead_ms": 1000 * ratio(
            sum(r["end"] - r["start"] - r["server_s"] for r in done), len(done)),
        "wire.decode_ms": 1000 * ratio(sum(r["decode_s"] for r in done),
                                       len(done)),
        "trace.wall_s": t_wall,
        "trace.untraced_s": wall,
        "trace.overhead_s": t_wall - wall,
    })
    return tally, layers, table


def main(argv=None) -> None:
    p = argparse.ArgumentParser()
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup", action="store_true")
    mode.add_argument("--reference", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warm")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.setup:
        _setup_child(args)
    else:
        _reference_child(args)


if __name__ == "__main__":
    sys.exit(main())
