"""Seeded inputs and their known answers.

The workload seed is a benchmark argument; the program under test only
ever sees what is generated here.  The same seed gives the same inputs.
"""

from __future__ import annotations

import random
import re
import string
from typing import Dict, List, Optional, Sequence, Tuple

from measure import ROOT

#: The obligations each seeded-bug variant must fail at
#: (benchmarks/results/E3_bug_catching.txt).
BUGGY_FAILS_AT: Dict[str, Tuple[str, ...]] = {
    "buggyConstPropNoPointers": ("F2",),
    "buggyLoadElimDirectAssign": ("F2",),
    "buggyDaeNoUseCheck": ("B3",),
    "buggyCopyPropNoTargetCheck": ("F2",),
    "buggyCseSelfReferential": ("F1", "F2"),
    "buggyConstPropWrongWitness": ("F1", "F2", "F3"),
    "buggyAssignRemovalOverbroad": ("F3",),
    "buggyPreDuplicateNoUnchanged": ("B0b",),
    "buggyConstFoldWrongResult": ("F3",),
}

#: One service-replay job in this many (at a seeded phase) is a novel
#: Cobalt source that misses the cache; the rest replay named subsets of
#: the shipped suite.
NOVEL_EVERY = 25


# -- verify-cold --------------------------------------------------------------


def rejection_items(seed: int, smoke: bool = False):
    """The known-unsound rules in a seeded order.

    Returns ``(label, rule, options_kind, expected)`` tuples: ``expected``
    is the failing-obligation tuple for ``opts.buggy`` variants and the
    corpus entry for ``corpus/unsound-rule-*`` rules."""
    from repro.fuzz.corpus import load_entries
    from repro.fuzz.rules import rule_from_json
    from repro.opts.buggy import ALL_BUGGY

    items = [(opt.name, opt, "default", BUGGY_FAILS_AT[opt.name])
             for opt in ALL_BUGGY]
    for path, entry in load_entries(ROOT / "corpus"):
        if entry.kind == "unsound-rule":
            items.append((path.stem, rule_from_json(entry.data["rule"]),
                          "frontier", entry))
    if smoke:
        keep = {"buggyAssignRemovalOverbroad", "buggyConstFoldWrongResult"}
        items = [it for it in items if it[0] in keep] + [
            it for it in items if it[2] == "frontier"][:1]
    random.Random(seed).shuffle(items)
    return items


def cold_suite(smoke: bool = False):
    """``(analyses, optimizations)`` of the suite the cold run verifies."""
    from repro import opts

    if not smoke:
        return list(opts.ALL_ANALYSES), list(opts.ALL_OPTIMIZATIONS)
    keep = {"constProp", "addZeroRight"}
    return [], [o for o in opts.ALL_OPTIMIZATIONS if o.name in keep]


# -- service-replay -----------------------------------------------------------

def _perturbations(block: str) -> List[str]:
    """Every single-step weakening of one Cobalt block: drop one guard
    conjunct, or weaken one ``mayDef`` to ``syntacticDef``."""
    out = []
    for m in re.finditer(r"mayDef\(", block):
        out.append(block[: m.start()] + "syntacticDef(" + block[m.end():])
    for line in block.splitlines():
        text = line.strip()
        if " && " not in text or text.startswith("//"):
            continue
        parts = text.split(" && ")
        for j in range(len(parts)):
            shorter = " && ".join(parts[:j] + parts[j + 1:])
            out.append(block.replace(text, shorter, 1))
    return out


def perturbation_pool() -> List[str]:
    """All perturbed blocks of ``cobalt/suite.cobalt``, in file order."""
    from repro.cli import split_blocks

    source = (ROOT / "cobalt" / "suite.cobalt").read_text()
    pool: List[str] = []
    for block in split_blocks(source):
        for variant in _perturbations(block):
            if variant not in pool:
                pool.append(variant)
    return pool


def _rename(block: str, rng: random.Random, tag: str) -> str:
    """Rename the block and one of its metavariables: every obligation
    that mentions it gets a new content key, so the job misses the cache."""
    block = re.sub(r"\b(optimization|analysis)\s+(\w+)",
                   lambda m: f"{m.group(1)} {m.group(2)}_{tag}", block, count=1)
    metas = sorted(set(re.findall(r"\b([A-Z])\b", block)))
    if metas:
        old = rng.choice(metas)
        fresh = old + "".join(rng.choice(string.ascii_lowercase)
                              for _ in range(3))
        block = re.sub(rf"\b{old}\b", fresh, block)
    return block


class JobStream:
    """The seeded, endless service-replay job stream.

    Hit jobs cycle through a pool of named suite subsets in which every
    optimization appears equally often; the novel jobs, one in
    ``NOVEL_EVERY``, cycle through every perturbation of
    ``cobalt/suite.cobalt``, each under fresh names.
    ``job(i)`` is a pure function of (seed, i)."""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        from repro import opts

        self.seed = seed
        rng = random.Random(seed)
        names = [o.name for o in opts.ALL_OPTIMIZATIONS]
        analyses = [a.name for a in opts.ALL_ANALYSES]
        if smoke:
            names = names[:4]
        # Two rounds, each covering every optimization once in a seeded
        # order, cut into subsets of 1, 2, 3, 1, 2, 3, ... names; every
        # third subset also names both analyses.  The sizes are fixed so
        # that every seed replays the same amount of work per round.
        self.subsets: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []
        for _round in range(2):
            order = names[:]
            rng.shuffle(order)
            at = 0
            while at < len(order):
                size = 1 + len(self.subsets) % 3
                chosen = tuple(order[at: at + size])
                at += size
                with_analyses = () if len(self.subsets) % 3 else tuple(analyses)
                self.subsets.append((with_analyses, chosen))
        self.perturbed = perturbation_pool()
        self._phase = rng.randrange(NOVEL_EVERY)

    def is_novel(self, i: int) -> bool:
        return i % NOVEL_EVERY == self._phase

    def job(self, i: int) -> dict:
        """The request body of job ``i``."""
        body = {"schema_version": 1, "kind": "job-request", "wait": True}
        if self.is_novel(i):
            body["source"] = self.novel_source(i)
        else:
            analyses, optimizations = self.subsets[i % len(self.subsets)]
            body["analyses"] = list(analyses)
            body["optimizations"] = list(optimizations)
        return body

    def novel_source(self, i: int) -> str:
        """The source of novel job ``i``.

        The perturbations come in one fixed order for every seed, so every
        run replays the same mix of miss costs; the seed picks the names."""
        k = i // NOVEL_EVERY
        rng = random.Random(f"{self.seed}:{i}")
        return _rename(self.perturbed[k % len(self.perturbed)], rng, f"j{i}")


# -- engine-run ---------------------------------------------------------------

#: procedure body sizes (statements before the return): the first four are
#: the "main" class, the last two the large "side" class (E4: engine cost
#: grows with procedure size)
ENGINE_SIZES = (8, 12, 16, 24, 64, 96)
ENGINE_SMALL_MAX = 24
#: arguments each output is run on against the original
ENGINE_ARGS = tuple(range(-3, 5))


def engine_programs(seed: int, copies: int, smoke: bool = False):
    """Seeded pointer programs of mixed size: ``copies`` per size."""
    from repro.il.generator import GeneratorConfig, ProgramGenerator

    rng = random.Random(seed)
    sizes = (ENGINE_SIZES[0], ENGINE_SIZES[-2]) if smoke else ENGINE_SIZES
    out = []
    for _copy in range(copies):
        for size in sizes:
            config = GeneratorConfig(
                num_vars=4,
                num_stmts=size,
                num_branches=max(1, size // 8),
                allow_pointers=True,
            )
            out.append((size, ProgramGenerator(config, rng=rng).gen_program()))
    return out


def fails_at_expected(name: str, plant: Optional[str]) -> Sequence[str]:
    """The E3 answer for ``name`` (``plant`` is the tests' wrong-answer hook)."""
    if plant == "buggy" and name == "buggyAssignRemovalOverbroad":
        return ("F1",)  # deliberately wrong: E3 says F3
    return BUGGY_FAILS_AT[name]
