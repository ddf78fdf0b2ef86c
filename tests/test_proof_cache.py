"""The persistent content-addressed proof cache (repro.verify.cache).

Covers the cache contract the parallel/cached checker relies on:

* miss-then-hit round trips through a real checker, with identical verdicts;
* key stability across *processes* (keys are content hashes of
  deterministically rendered formulas, not interned ids);
* invalidation when an optimization's guards, witness, or the background
  axiom set change (the key covers all proof inputs);
* ``unknown`` verdicts are config-scoped while ``proved`` ones are not;
* a corrupted, wrong-schema or wrong-typed cache object is recovered
  from, never fatal (it reads as absent and the obligation is re-proved);
* the sharded on-disk store (one file per verdict) is the only on-disk
  format and unions concurrent writers instead of clobbering;
* the per-process memo of keys and the axiom digest returns exactly the
  unmemoized hashes (pinned as literals, so stores written before the memo
  stay warm), discriminates every key input, and is safe to share across
  threads.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cobalt.dsl import ForwardPattern
from repro.cobalt.guards import GNot, GLabel
from repro.cobalt.labels import standard_registry
from repro.cobalt.patterns import VarPat
from repro.prover import ProverConfig
from repro.api import VerifyOptions
from repro.logic import intern
from repro.logic.terms import App
from repro.verify import ProofCache, SoundnessChecker
from repro.verify import cache as cache_mod
from repro.verify.cache import (
    SCHEMA_VERSION,
    CachedVerdict,
    axioms_digest,
    config_fingerprint,
    obligation_key,
)
from repro.verify.encode import CONSTRUCTORS, all_axioms
from repro.verify.obligations import ObligationBuilder
from repro.opts import ALL_ANALYSES, ALL_OPTIMIZATIONS, const_fold, const_prop

FAST = ProverConfig(timeout_s=60.0)


def _obligations(pattern):
    return ObligationBuilder(standard_registry()).forward_obligations(pattern)


def _suite_obligations():
    """Every obligation of the shipped suite, by (item, obligation) name."""
    builder = ObligationBuilder(
        standard_registry(), {a.label_name: a for a in ALL_ANALYSES}
    )
    out = {}
    for analysis in ALL_ANALYSES:
        for ob in builder.analysis_obligations(analysis):
            out[analysis.name, ob.name] = ob
    for opt in ALL_OPTIMIZATIONS:
        if isinstance(opt.pattern, ForwardPattern):
            obs = builder.forward_obligations(opt.pattern)
        else:
            obs = builder.backward_obligations(opt.pattern)
        for ob in obs:
            out[opt.name, ob.name] = ob
    return out


@pytest.fixture()
def digest():
    return axioms_digest(all_axioms(), CONSTRUCTORS)


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cold = SoundnessChecker(
            config=FAST, options=VerifyOptions(cache_dir=str(tmp_path))
        )
        report_cold = cold.check_optimization(const_fold)
        assert report_cold.sound
        assert cold.cache.stats.hits == 0
        # One content-addressed object per *distinct* verdict (constFold's
        # F2/F3 share a goal, hence a key — the identical re-put is
        # skipped), sharded by key prefix.
        digest = axioms_digest(all_axioms(), CONSTRUCTORS)
        distinct = {obligation_key(ob, digest)
                    for ob in _obligations(const_fold.pattern)}
        assert cold.cache.stats.stores == len(distinct)
        objects = tmp_path / "objects"
        assert objects.is_dir()
        stored = list(objects.glob("*/*.json"))
        assert len(stored) == len(distinct)
        assert all(p.parent.name == p.stem[:2] for p in stored)

        warm = SoundnessChecker(
            config=FAST, options=VerifyOptions(cache_dir=str(tmp_path))
        )
        report_warm = warm.check_optimization(const_fold)
        assert report_warm.sound
        assert warm.cache.stats.misses == 0
        assert warm.cache.stats.hits == len(report_warm.results)
        assert all(r.cached for r in report_warm.results)
        # Same verdicts, same canonical report, near-zero replay time.
        assert report_warm.canonical() == report_cold.canonical()
        assert report_warm.elapsed_s < report_cold.elapsed_s

    def test_cache_shared_across_checker_instances(self, tmp_path):
        cache = ProofCache(tmp_path)
        a = SoundnessChecker(config=FAST, proof_cache=cache)
        a.check_optimization(const_fold)
        b = SoundnessChecker(config=FAST, proof_cache=cache)
        report = b.check_optimization(const_fold)
        assert all(r.cached for r in report.results)


class TestKeyStability:
    def test_same_obligation_same_key(self, digest):
        keys1 = [obligation_key(ob, digest) for ob in _obligations(const_fold.pattern)]
        keys2 = [obligation_key(ob, digest) for ob in _obligations(const_fold.pattern)]
        assert keys1 == keys2

    def test_keys_stable_across_processes(self, digest):
        keys = [obligation_key(ob, digest) for ob in _obligations(const_prop.pattern)]
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "from repro.verify.cache import axioms_digest, obligation_key\n"
            "from repro.verify.encode import CONSTRUCTORS, all_axioms\n"
            "from repro.verify.obligations import ObligationBuilder\n"
            "from repro.cobalt.labels import standard_registry\n"
            "from repro.opts import const_prop\n"
            "digest = axioms_digest(all_axioms(), CONSTRUCTORS)\n"
            "obs = ObligationBuilder(standard_registry())"
            ".forward_obligations(const_prop.pattern)\n"
            "print('\\n'.join(obligation_key(ob, digest) for ob in obs))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == keys


class TestInvalidation:
    def test_guard_change_invalidates_affected_obligations(self, digest):
        # The innocuous guard psi2 occurs in F2 only, so editing it must
        # invalidate F2 — and *only* F2: F1/F3 verdicts survive the edit.
        base = {ob.name: obligation_key(ob, digest)
                for ob in _obligations(const_prop.pattern)}
        weakened = dataclasses.replace(
            const_prop.pattern, psi2=GNot(GLabel("syntacticDef", (VarPat("Y"),)))
        )
        changed = {ob.name: obligation_key(ob, digest)
                   for ob in _obligations(weakened)}
        assert changed["F2"] != base["F2"]
        assert changed["F1"] == base["F1"]
        assert changed["F3"] == base["F3"]

    def test_witness_change_changes_keys(self, digest):
        from repro.cobalt.witness import TrueWitness

        base = _obligations(const_prop.pattern)
        rewitnessed = dataclasses.replace(const_prop.pattern, witness=TrueWitness())
        changed = _obligations(rewitnessed)
        assert {obligation_key(ob, digest) for ob in base}.isdisjoint(
            obligation_key(ob, digest) for ob in changed
        )

    def test_axiom_set_change_changes_keys(self):
        ob = _obligations(const_fold.pattern)[0]
        full = axioms_digest(all_axioms(), CONSTRUCTORS)
        truncated = axioms_digest(all_axioms()[:-1], CONSTRUCTORS)
        assert full != truncated
        assert obligation_key(ob, full) != obligation_key(ob, truncated)

    def test_name_does_not_participate(self, digest):
        ob = _obligations(const_fold.pattern)[0]
        renamed = dataclasses.replace(ob, name="somethingElse")
        assert obligation_key(ob, digest) == obligation_key(renamed, digest)


class TestConfigScoping:
    def test_unknown_only_replayed_under_same_config(self, tmp_path):
        cache = ProofCache(tmp_path)
        fp_small = config_fingerprint(ProverConfig(timeout_s=1.0))
        fp_big = config_fingerprint(ProverConfig(timeout_s=300.0))
        cache.put("k", proved=False, elapsed_s=1.0, context=["<resource limit>"],
                  config_fp=fp_small)
        assert cache.get("k", fp_big) is None  # a bigger budget might prove it
        hit = cache.get("k", fp_small)
        assert hit is not None and not hit.proved

    def test_proved_replayed_under_any_config(self, tmp_path):
        cache = ProofCache(tmp_path)
        fp_small = config_fingerprint(ProverConfig(timeout_s=1.0))
        fp_big = config_fingerprint(ProverConfig(timeout_s=300.0))
        cache.put("k", proved=True, elapsed_s=1.0, config_fp=fp_small)
        hit = cache.get("k", fp_big)
        assert hit is not None and hit.proved

    def test_hard_timeout_scopes_unknown_verdicts(self, tmp_path):
        # A hard-timeout ``unknown`` produced under a tiny per-obligation
        # wall-clock limit must never replay for a caller running under
        # the default limit — in the daemon, where one shared cache serves
        # every client, that would let one client's timeout flip another
        # client's obligations to unproved.
        cache = ProofCache(tmp_path)
        cfg = ProverConfig(timeout_s=60.0)
        fp_tiny = config_fingerprint(cfg, hard_timeout_s=0.001)
        fp_default = config_fingerprint(cfg)
        assert fp_tiny != fp_default
        cache.put("k", proved=False, elapsed_s=0.001,
                  context=["<hard timeout>"], config_fp=fp_tiny)
        assert cache.get("k", fp_default) is None
        hit = cache.get("k", fp_tiny)
        assert hit is not None and not hit.proved

    def test_checker_fingerprint_covers_hard_timeout(self):
        default = SoundnessChecker(config=FAST)
        limited = SoundnessChecker(
            config=FAST, options=VerifyOptions(obligation_timeout_s=0.5)
        )
        assert default._config_fp != limited._config_fp


class TestPrefetchLocking:
    def test_get_not_blocked_by_slow_remote(self):
        # The daemon shares one cache across every job thread: a wedged L2
        # round trip must stall only overlapping prefetches, never get/put.
        import threading

        entered = threading.Event()
        release = threading.Event()

        class SlowRemote:
            alive = True

            def multi_get(self, keys):
                entered.set()
                release.wait(10)
                return {}

        cache = ProofCache(None, remote=SlowRemote())
        cache.put("hot", proved=True, elapsed_s=0.1)
        fetcher = threading.Thread(target=cache.prefetch, args=(["cold"],))
        fetcher.start()
        try:
            assert entered.wait(10), "prefetch never reached the remote"
            done = threading.Event()

            def read():
                if cache.get("hot", "") is not None:
                    done.set()

            reader = threading.Thread(target=read)
            reader.start()
            assert done.wait(2), "get() blocked behind the remote multi_get"
            reader.join(10)
        finally:
            release.set()
            fetcher.join(10)


class TestBoundedMemory:
    """The L0 map and the asked-of-L2 key set stay bounded in a
    long-running process, without losing pending verdicts or changing any
    answer."""

    LIMIT = 8

    class _EmptyRemote:
        alive = True

        def __init__(self):
            self.published = {}

        def multi_get(self, keys):
            return {}

        def publish(self, batch):
            self.published.update(batch)
            return True

    def _drive(self, cache, reference):
        """Novel keys forever: puts, saves, gets of old and new keys."""
        for i in range(200):
            key = f"k{i:04d}"
            cache.prefetch([key, f"absent{i}"])
            for c in (cache, reference):
                c.put(key, proved=i % 3 != 0, elapsed_s=0.0,
                      context=[f"ctx {i}"], config_fp="fp")
            if i % 5 == 4:
                cache.save()
                reference.save()
            probe = f"k{(i * 7) % (i + 1):04d}"
            got = cache.get(probe, "fp")
            want = reference.get(probe, "fp")
            assert (got and got.to_json()) == (want and want.to_json()), probe
            assert len(cache._entries) <= self.LIMIT + 5
            assert len(cache._remote_seen) <= self.LIMIT + 2

    def test_sizes_stay_bounded_and_answers_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "L0_LIMIT", self.LIMIT)
        remote = self._EmptyRemote()
        cache = ProofCache(tmp_path / "bounded", remote=remote)
        reference = ProofCache(tmp_path / "reference")
        self._drive(cache, reference)
        cache.save()
        # Every verdict reached L1 and every proof was published, although
        # L0 dropped most of them along the way.
        reread = ProofCache(tmp_path / "bounded")
        for i in range(200):
            entry = reread.get(f"k{i:04d}", "fp")
            assert entry is not None and entry.context == [f"ctx {i}"]
        assert sorted(remote.published) == [
            f"k{i:04d}" for i in range(200) if i % 3 != 0
        ]

    def test_pending_entries_survive_a_trim(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "L0_LIMIT", 2)
        cache = ProofCache(tmp_path)
        for i in range(10):  # all dirty: nothing may be dropped before save
            cache.put(f"p{i}", proved=True, elapsed_s=0.0)
        assert len(cache._entries) == 10
        cache.save()
        cache.put("next", proved=True, elapsed_s=0.0)
        assert len(cache._entries) <= 3
        assert all(cache.get(f"p{i}", "") is not None for i in range(10))


class TestRobustness:
    def test_corrupted_file_recovered(self, tmp_path):
        # A stray (here: corrupt) single-file store from before the CAS is
        # neither read, imported nor touched; the CAS works beside it.
        path = tmp_path / "proof-cache.json"
        path.write_text('{"schema": 1, "entries": {truncated')
        cache = ProofCache(tmp_path)
        assert len(cache) == 0
        cache.put("k", proved=True, elapsed_s=0.5)
        cache.save()
        assert path.read_text() == '{"schema": 1, "entries": {truncated'
        assert len(ProofCache(tmp_path)) == 1

    def test_single_file_store_not_imported(self, tmp_path):
        # Its verdicts are re-proved once, then live in the CAS.
        entry = {"proved": True, "elapsed_s": 0.1, "context": [],
                 "config": "", "backend": "internal"}
        (tmp_path / "proof-cache.json").write_text(json.dumps(
            {"schema": SCHEMA_VERSION, "entries": {"aaaa": entry}}))
        cache = ProofCache(tmp_path)
        assert cache.get("aaaa", "") is None
        assert (cache.stats.misses, len(cache)) == (1, 0)

    def test_corrupted_object_treated_as_absent(self, tmp_path):
        cache = ProofCache(tmp_path)
        cache.put("deadbeef", proved=True, elapsed_s=0.5)
        cache.save()
        obj = tmp_path / "objects" / "de" / "deadbeef.json"
        obj.write_text("{not json")
        fresh = ProofCache(tmp_path)
        assert fresh.get("deadbeef", "") is None
        assert fresh.stats.misses == 1

    def test_wrong_schema_ignored(self, tmp_path):
        obj = tmp_path / "objects" / "aa" / "aaaa.json"
        obj.parent.mkdir(parents=True)
        obj.write_text(json.dumps({"schema": 999, "entry": {
            "proved": True, "elapsed_s": 0.1, "context": []}}))
        cache = ProofCache(tmp_path)
        assert cache.get("aaaa", "") is None
        assert cache.stats.misses == 1

    def test_missing_directory_created_on_save(self, tmp_path):
        root = tmp_path / "deep" / "nested"
        cache = ProofCache(root)
        cache.put("k", proved=True, elapsed_s=0.1)
        cache.save()
        assert (root / "objects" / "k" / "k.json").exists()
        assert len(ProofCache(root)) == 1

    def test_save_without_changes_is_noop(self, tmp_path):
        cache = ProofCache(tmp_path)
        cache.save()
        assert not any(tmp_path.iterdir())

    def test_existing_plain_file_fails_open(self, tmp_path, capsys):
        # ``--cache-dir some-existing-file`` cannot hold the store: no
        # crash, one warning, the file untouched, and verdicts are still
        # answered from memory for the rest of the process.
        path = tmp_path / "cachefile"
        path.write_text("not json at all")
        cache = ProofCache(path)
        assert len(cache) == 0
        cache.put("k1", proved=True, elapsed_s=0.1)
        cache.put("k2", proved=True, elapsed_s=0.1)
        cache.save()  # must not raise
        err = capsys.readouterr().err
        assert err.count("[proof-cache] not persisted") == 1
        assert path.read_text() == "not json at all"
        assert cache.get("k1", "") is not None
        assert cache.get("k2", "") is not None

    def test_unwritable_location_degrades_to_warning(self, tmp_path, capsys):
        # Persisting into a location whose parent is a plain file cannot
        # succeed; verification results must survive anyway.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cache = ProofCache(blocker / "sub")  # parent path is a file
        cache.put("k", proved=True, elapsed_s=0.1)
        cache.save()  # must not raise
        assert "[proof-cache] not persisted" in capsys.readouterr().err


class TestWrongTypedEntries:
    """Entries come from disk and the network: a truthy string is not a
    proof, and a string context is not a list of lines."""

    POISONED = {"proved": "false", "elapsed_s": 0.1, "context": "abc",
                "config": "", "backend": "internal"}

    def test_from_json_rejects_wrong_types(self):
        with pytest.raises(ValueError):
            CachedVerdict.from_json(self.POISONED)
        with pytest.raises(ValueError):
            CachedVerdict.from_json(dict(self.POISONED, context=[]))
        with pytest.raises(ValueError):
            CachedVerdict.from_json(dict(self.POISONED, proved=False))

    def _poison(self, obj):
        data = json.loads(obj.read_text())
        data["entry"].update(proved="false", context="abc")
        obj.write_text(json.dumps(data))

    def test_l1_object_is_a_miss_and_reproved(self, tmp_path):
        options = VerifyOptions(cache_dir=str(tmp_path))
        cold = SoundnessChecker(config=FAST, options=options)
        baseline = cold.check_optimization(const_fold).canonical()
        obj = sorted((tmp_path / "objects").glob("*/*.json"))[0]
        self._poison(obj)

        warm = SoundnessChecker(config=FAST, options=options)
        report = warm.check_optimization(const_fold)
        assert report.canonical() == baseline
        # one key re-proved (constFold's F2/F3 share it: one or two misses)
        assert warm.cache.stats.misses >= 1
        assert warm.cache.stats.stores == 1
        assert not all(r.cached for r in report.results)
        # The re-proved verdict replaced the poisoned object.
        assert json.loads(obj.read_text())["entry"]["proved"] is True

    def test_gc_drop_failures_reclaims_it(self, tmp_path, capsys):
        from repro.cli import main

        cache = ProofCache(tmp_path)
        cache.put("aaaa", proved=True, elapsed_s=0.1)
        cache.put("bbbb", proved=True, elapsed_s=0.1)
        cache.save()
        self._poison(tmp_path / "objects" / "bb" / "bbbb.json")
        assert main(["cache", "gc", "--dir", str(tmp_path),
                     "--drop-failures"]) == 0
        assert "dropped 1, kept 1" in capsys.readouterr().out
        fresh = ProofCache(tmp_path)
        assert fresh.get("aaaa", "") is not None
        assert not (tmp_path / "objects" / "bb" / "bbbb.json").exists()


class TestConcurrentWriters:
    """Two caches over one directory must union, not clobber."""

    def test_cas_interleaved_saves_union(self, tmp_path):
        a = ProofCache(tmp_path)
        b = ProofCache(tmp_path)
        a.put("ka", proved=True, elapsed_s=0.1)
        b.put("kb", proved=True, elapsed_s=0.2)
        a.save()
        b.save()
        merged = ProofCache(tmp_path)
        assert merged.get("ka", "") is not None
        assert merged.get("kb", "") is not None


class TestIdempotentPut:
    def test_identical_put_skips_store(self, tmp_path):
        cache = ProofCache(tmp_path)
        cache.put("k", proved=True, elapsed_s=0.5)
        cache.save()
        obj = tmp_path / "objects" / "k" / "k.json"
        before = obj.stat().st_mtime_ns
        # Same verdict, different timing: semantically identical.
        cache.put("k", proved=True, elapsed_s=9.9)
        assert cache.stats.stores == 1
        cache.save()
        assert obj.stat().st_mtime_ns == before

    def test_changed_verdict_still_stored(self, tmp_path):
        cache = ProofCache(tmp_path)
        cache.put("k", proved=False, elapsed_s=0.5, config_fp="a")
        cache.put("k", proved=False, elapsed_s=0.5, config_fp="b")
        assert cache.stats.stores == 2
        assert cache.get("k", "b") is not None


class TestStatsSplit:
    def test_absent_counts_as_miss(self, tmp_path):
        cache = ProofCache(tmp_path)
        assert cache.get("nope", "fp") is None
        assert (cache.stats.misses, cache.stats.stale) == (1, 0)

    def test_unreplayable_counts_as_stale(self, tmp_path):
        cache = ProofCache(tmp_path)
        cache.put("k", proved=False, elapsed_s=0.1, config_fp="small")
        assert cache.get("k", "big") is None
        assert (cache.stats.misses, cache.stats.stale) == (0, 1)
        assert "1 stale" in str(cache.stats)


class TestKeyMemo:
    """Keys and the axiom digest are memoized per process; the memo must
    be invisible in the hash stream."""

    #: Captured before the memo existed: stores written then stay warm.
    DIGEST = "c46d99fd01e1795c6a83259a389d299f2b838486481ea187296427aa54b0d986"
    KEYS = {
        # forward, no kind split
        ("constProp", "F3"):
            "5a65da8e43af4e86003c673441c30a477f4e6913d68a1bb09e864e649ce8d53a",
        # backward, split over the statement kind
        ("deadAssignElim", "B2"):
            "cbd992530e1088339ff3a96b6870a935ee2a5499bc757ae26c06d29930a34034",
        # pure analysis
        ("taintedness", "F1"):
            "3a691e6d6c0bc6bb491f3023b632f55807054859fa718b4fbf320811408c95f7",
    }

    def test_pinned_digest_and_keys(self):
        obs = _suite_obligations()
        for _ in range(2):  # the second round answers from the memo
            assert axioms_digest(all_axioms(), CONSTRUCTORS) == self.DIGEST
            for name, key in self.KEYS.items():
                assert obligation_key(obs[name], self.DIGEST) == key, name

    def test_memoized_keys_equal_structural_reference(self, digest):
        obs = list(_suite_obligations().values())
        memoized = [obligation_key(ob, digest) for ob in obs]
        assert memoized == [obligation_key(ob, digest) for ob in obs]
        with intern.structural_reference():
            assert axioms_digest(all_axioms(), CONSTRUCTORS) == digest
            assert [obligation_key(ob, digest) for ob in obs] == memoized

    def test_structural_reference_bypasses_memo(self, digest):
        ob = _obligations(const_fold.pattern)[0]
        with intern.structural_reference():
            obligation_key(ob, digest)
            axioms_digest(all_axioms(), CONSTRUCTORS)
            assert not cache_mod._KEY_MEMO
            assert not cache_mod._DIGEST_MEMO
        obligation_key(ob, digest)
        assert cache_mod._KEY_MEMO

    def test_seeds_and_split_term_discriminate(self, digest):
        ob = _suite_obligations()["deadAssignElim", "B2"]
        assert ob.seeds and ob.split_term is not None
        variants = [
            ob,
            dataclasses.replace(ob, seeds=ob.seeds[:-1]),
            dataclasses.replace(ob, seeds=ob.seeds[::-1]),
            dataclasses.replace(ob, split_term=None),
            dataclasses.replace(ob, split_term=App("otherStmt")),
        ]
        keys = [obligation_key(v, digest) for v in variants]
        assert len(set(keys)) == len(keys)
        assert obligation_key(ob, "other-digest") not in keys

    def test_concurrent_keys_agree_with_serial(self, digest):
        obs = list(_suite_obligations().values())
        serial = [obligation_key(ob, digest) for ob in obs]
        done = threading.Event()
        results, errors = [], []

        def compute():
            try:
                for _ in range(5):
                    results.append(
                        (axioms_digest(all_axioms(), CONSTRUCTORS),
                         [obligation_key(ob, digest) for ob in obs])
                    )
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        def clear():
            while not done.is_set():
                intern.clear_memos()

        clearer = threading.Thread(target=clear)
        workers = [threading.Thread(target=compute) for _ in range(8)]
        clearer.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        done.set()
        clearer.join()
        assert not errors
        assert len(results) == 8 * 5
        assert all(r == (digest, serial) for r in results)
