"""The two seeded workloads: input generation, the timed operation and the
independent output check.

A workload is a fixed *round* of input slots that repeats the size mix
exactly; every slot of every round gets a fresh input generated from
``(workload, seed, round, slot)``.  ``make`` is set-up (untimed), ``run`` is
the timed operation and calls the package through module attributes, so the
traced run sees the patched functions; ``check`` re-verifies the output with
the benchmark's own references, captured before any patching.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from transversal import cli, embed
from transversal.core import PatternGraph
from transversal.core import verify_transversal_embedding as _verify
from transversal.embed import LADDER_DEGENERATE, SplitPlan
from transversal.generators import GenSpec, random_collection


@dataclass
class Outcome:
    """What one operation produced, as the benchmark checked it."""

    record: object  # JSON-able, hashed into the digest
    success: bool  # a success that passed the independent check
    path: str | None = None  # path taken by a success
    failure: str | None = None  # "stage:reason" of a typed failure
    error: str | None = None  # an exception or a success that failed the check


def _failure_outcome(stage: str, reason: str) -> Outcome:
    tag = f"{stage}:{reason}"
    return Outcome(record={"failure": tag}, success=False, failure=tag)


def _quasi_path(stats: dict) -> str:
    if stats.get("path") == LADDER_DEGENERATE:
        return LADDER_DEGENERATE
    if stats.get("blowup", {}).get("path") == "one-shot":
        return "one-shot"
    return "main"


# ---------------------------------------------------------------------------


class QuasiMatching:
    """``quasi_embed`` of a perfect matching into random_collection(n, n/2, 0.8)."""

    name = "quasi-matching"
    # two n = 120 slots in eight put op_ms.p90 near the median of the n = 120
    # times, which is steadier than their low edge
    slots = [60] * 6 + [120] * 2

    def make(self, rng: random.Random, n: int, workdir: Path):
        gc = random_collection(GenSpec(n=n, n_colours=n // 2, density=0.8,
                                       seed=rng.getrandbits(32)))
        H = PatternGraph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
        return gc, H, rng.getrandbits(32)

    def run(self, inp):
        gc, H, seed = inp
        return embed.quasi_embed(gc, H, SplitPlan(), seed)

    def check(self, inp, out) -> Outcome:
        gc, H, _ = inp
        if not out.ok:
            return _failure_outcome(out.failure.stage, out.failure.reason)
        emb = out.embedding
        record = {"tau": sorted(emb.tau.items()),
                  "sigma": sorted([u, v, c] for (u, v), c in emb.sigma.items())}
        rep = _verify(gc, H, emb)
        if not rep.ok:
            return Outcome(record, False, error=f"unverified success: {rep.violations[:3]}")
        return Outcome(record, True, path=_quasi_path(out.stats))


class ExpandCli:
    """CLI ``embed --pipeline expand`` on random dense 3-graphs written at set-up."""

    name = "expand-cli"
    # two n = 90 slots in nine put op_ms.p90 inside the n = 90 times rather
    # than on their lower edge, where slow n = 60 operations mix in
    slots = [60] * 7 + [90] * 2

    def __init__(self):
        self._count = 0
        self._all_triples: dict[int, np.ndarray] = {}  # every 3-subset of range(n)

    def make(self, rng: random.Random, n: int, workdir: Path):
        self._count += 1
        stem = workdir / f"op{self._count}"
        if n not in self._all_triples:
            self._all_triples[n] = np.array(list(itertools.combinations(range(n), 3)))
        coins = np.random.default_rng(rng.getrandbits(64)).random(len(self._all_triples[n]))
        triples = self._all_triples[n][coins < 0.6].tolist()
        k = n // 3
        inst, pat, rep = (Path(f"{stem}-{s}.json") for s in ("host", "cycle", "report"))
        inst.write_text(json.dumps({"n": n, "edges": triples}))
        pat.write_text(json.dumps({"n": k, "edges": [[i, (i + 1) % k] for i in range(k)]}))
        argv = ["embed", "--pipeline", "expand", "--instance", str(inst),
                "--pattern", str(pat), "--seed", str(rng.getrandbits(32)), "--out", str(rep)]
        return argv, k, (inst, pat, rep)

    def run(self, inp):
        return cli.main(inp[0])

    def check(self, inp, code) -> Outcome:
        _, k, (inst, pat, rep) = inp
        # the host is read back here rather than kept from set-up, so the
        # reference does not count towards the run's peak resident set
        host = set(map(tuple, json.loads(inst.read_text())["edges"]))
        report = json.loads(rep.read_text())
        for p in (inst, pat, rep):
            p.unlink()
        outcome = report["outcome"]
        if outcome["status"] != "success":
            o = _failure_outcome(outcome["stage"], outcome["reason"])
            if code != 1:
                o.error = f"failure report with exit code {code}"
            return o
        vimg = {int(v): w for v, w in outcome["vertex_images"].items()}
        eimg = {tuple(int(x) for x in key.split(",")): c
                for key, c in outcome["edge_images"].items()}
        record = {"v": sorted(vimg.items()), "e": sorted([*e, c] for e, c in eimg.items())}
        images = list(vimg.values()) + list(eimg.values())
        edges = {(i, (i + 1) % k) for i in range(k)}
        errors = []
        if code != 0:
            errors.append(f"success report with exit code {code}")
        if set(vimg) != set(range(k)) or {tuple(sorted(e)) for e in eimg} != {
                tuple(sorted(e)) for e in edges}:
            errors.append("expansion map does not cover the pattern")
        if len(set(images)) != len(images):
            errors.append("expansion map is not injective")
        for (u, v), c in eimg.items():
            if tuple(sorted((vimg[u], vimg[v], c))) not in host:
                errors.append(f"expansion triple of edge ({u},{v}) missing from the host")
                break
        if errors:
            return Outcome(record, False, error="; ".join(errors))
        return Outcome(record, True, path=_quasi_path(report["stats"].get("quasi", {})))


WORKLOADS = {w.name: w for w in (QuasiMatching, ExpandCli)}
