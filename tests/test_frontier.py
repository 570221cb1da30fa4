"""Pinned outcomes of two grids that later changes are measured on.

The frontier: ``quasi_embed`` with the default ``SplitPlan`` on
``random_collection(n = v(H), |C| = e(H))`` for four pattern families at
v(H) = 60, host densities 0.4 and 0.8, seeds 1-3 (host and run seed alike).
The oracle row: the same call on five patterns of 8-10 vertices at host
density 0.3, seeds 0-19, against ``exact_transversal_embed``'s verdict.
"""

import random
from collections import Counter

import pytest

from transversal.core import PatternGraph
from transversal.embed import LADDER_DEGENERATE, SplitPlan, quasi_embed
from transversal.generators import GenSpec, random_collection, separable_family
from transversal.oracle import exact_transversal_embed

PLAN = SplitPlan()


def _cycle(n, base=0):
    return [(base + i, base + (i + 1) % n) for i in range(n)]


def _ladder(n):
    """P_{n/2} x K_2: two paths joined by rungs (i, n/2 + i)."""
    m = n // 2
    rails = [(i, i + 1) for i in range(m - 1)] + [(m + i, m + i + 1) for i in range(m - 1)]
    return PatternGraph(n, rails + [(i, m + i) for i in range(m)])


def _max_degree_3(n, seed):
    rng = random.Random(seed)
    deg, edges = [0] * n, set()
    for _ in range(20 * n):
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges and deg[u] < 3 and deg[v] < 3:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return PatternGraph(n, sorted(edges))


FAMILIES = {
    "cycle": lambda n, seed: PatternGraph(n, _cycle(n)),
    "ladder": lambda n, seed: _ladder(n),
    "squared-cycle": lambda n, seed: separable_family("hamilton-power", n=n, power=2).graph,
    "max-degree-3": _max_degree_3,
}


def _path(out):
    """The path of a success, or "stage:reason:step" of a failure, with the
    vertices taken out of a candidate-set step: "(3,1)" -> "(x,1)"."""
    if not out.ok:
        f = out.failure
        step = f.diagnostics.get("step", "")
        if step.startswith("("):
            step = "(x," + step.split(",")[-1]
        return f"{f.stage}:{f.reason}:{step}"
    if out.stats.get("path") == LADDER_DEGENERATE:
        return "ladder-degenerate"
    return out.stats["blowup"].get("path", "main")


# (family, host density, seed) -> outcome at v(H) = 60: every run succeeds
# through the one-shot pass with its buffer finish (before that finish, ten
# of the twelve density-0.4 runs failed: all but the cycle's seeds 1 and 2)
FRONTIER_60 = {(family, density, seed): "one-shot"
               for family in FAMILIES for density in (0.4, 0.8) for seed in (1, 2, 3)}


@pytest.mark.parametrize("family, density, seed", sorted(FRONTIER_60))
def test_frontier_at_60_vertices(family, density, seed):
    H = FAMILIES[family](60, seed)
    gc = random_collection(GenSpec(n=H.n, n_colours=H.e, density=density, seed=seed))
    out = quasi_embed(gc, H, PLAN, seed=seed)
    assert _path(out) == FRONTIER_60[family, density, seed]
    assert out.verification.ok


ORACLE_PATTERNS = {
    "C8": PatternGraph(8, _cycle(8)),
    "P10": PatternGraph(10, [(i, i + 1) for i in range(9)]),
    "C10": PatternGraph(10, _cycle(10)),
    "2C5": PatternGraph(10, _cycle(5) + _cycle(5, 5)),
    "M5": PatternGraph(10, [(2 * i, 2 * i + 1) for i in range(5)]),
}

# outcomes of the density-0.3 row (100 runs); the oracle finds every
# instance feasible, so each failure is the pipeline's, not the instance's
ORACLE_ROW_03 = {
    "success": 42,
    "one-shot:MatchingTooSmall:buffer-vertices": 43,
    "one-shot:CandidateExhausted:(x,1)": 12,
    "quasi:PreconditionViolated:": 3,
}


def test_oracle_gap_at_density_0_3():
    outcomes, feasible = Counter(), 0
    for H in ORACLE_PATTERNS.values():
        for seed in range(20):
            gc = random_collection(GenSpec(n=H.n, n_colours=H.e, density=0.3, seed=seed))
            feasible += exact_transversal_embed(gc, H).feasible
            out = quasi_embed(gc, H, PLAN, seed=seed)
            outcomes["success" if out.ok else _path(out)] += 1
    assert feasible == 100
    assert dict(outcomes) == ORACLE_ROW_03
