"""Pinned outcomes of two grids that later changes are measured on.

The frontier: ``quasi_embed`` with the default ``SplitPlan`` on
``random_collection(n = v(H), |C| = e(H))`` for four pattern families at
v(H) = 60, host densities 0.4 and 0.8, seeds 1-3 (host and run seed alike),
and at host densities 0.2 and 0.3 on v(H) = 60, seeds 1-2, and v(H) = 120,
seed 1; for three families of maximum degree 5 and more at v(H) = 60 and
120, host densities 0.1, 0.2 and 0.5, seeds 1-3; and for two small
ladders.  The oracle rows: the same call on five patterns of 8-10 vertices
at host densities 0.1, 0.15, 0.2, 0.3 and 0.5, seeds 0-19, and on five of
maximum degree 3 and 4 at host densities 0.15 and 0.2, seeds 0-9, against
``exact_transversal_embed``'s verdict.  The spanning expansions:
``expand_embed_3graph`` of the 30-cycle in random 3-graphs on 60 vertices
at triple densities 0.15 and 0.1, seeds 1-3, and on density-0.4 hosts with
a few low-degree vertices; and of six patterns in random 3-graphs on
v(H) + e(H) vertices at triple densities 0.3, 0.15 and 0.1, seeds 1-3.
"""

import random
from collections import Counter
from itertools import combinations

import pytest

from transversal.core import PatternGraph, ThreeGraph
from transversal.embed import SplitPlan, expand_embed_3graph, quasi_embed
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
    return out.stats["blowup"]["path"]


# (family, host density, seed) -> outcome at v(H) = 60: every run succeeds
# through the one-shot pass with its buffer finish (before that finish, ten
# of the twelve density-0.4 runs failed: all but the cycle's seeds 1 and 2)
FRONTIER_60 = {(family, density, seed): "one-shot"
               for family in FAMILIES for density in (0.4, 0.8) for seed in (1, 2, 3)}


def _frontier_path(family, n, density, seed):
    H = FAMILIES[family](n, seed)
    gc = random_collection(GenSpec(n=H.n, n_colours=H.e, density=density, seed=seed))
    out = quasi_embed(gc, H, PLAN, seed=seed)
    assert not out.ok or out.verification.ok
    return _path(out)


@pytest.mark.parametrize("family, density, seed", sorted(FRONTIER_60))
def test_frontier_at_60_vertices(family, density, seed):
    assert _frontier_path(family, 60, density, seed) == FRONTIER_60[family, density, seed]


# (family, host density, v(H), seed) -> outcome: every run succeeds through
# the one-shot pass.  Until the dense classes shared one pool of colours in
# place of a random split, 7 of these 24 failed at (x,1): the squared cycle
# at 0.2 (v(H) = 60 seeds 1-2, v(H) = 120 seed 1) and at 0.3 (v(H) = 60 seeds
# 1-2), and max-degree-3 at 0.2 (v(H) = 60 seeds 1-2), the slowest in 1.8 s
FRONTIER_LOW = {(family, density, n, seed): "one-shot" for family in FAMILIES
                for density in (0.2, 0.3) for n, seed in ((60, 1), (60, 2), (120, 1))}


@pytest.mark.parametrize("family, density, n, seed", sorted(FRONTIER_LOW))
def test_frontier_at_host_density_0_2_and_0_3(family, density, n, seed):
    assert _frontier_path(family, n, density, seed) == FRONTIER_LOW[family, density, n, seed]


# (family, v(H)) -> its pattern, maximum degree 6-9: a random tree, the
# cube of a path (bandwidth 3) and the cube of a cycle
DELTA_5_FAMILIES = {
    "tree": lambda n, seed: separable_family("tree", seed=seed, n=n).graph,
    "bandwidth-3": lambda n, seed: separable_family("bandwidth", n=n, b=3).graph,
    "cycle-cube": lambda n, seed: separable_family("hamilton-power", n=n, power=3).graph,
}


# every run at host densities 0.1, 0.2 and 0.5, seeds 1-3 (host and run seed
# alike), succeeds through the one-shot pass.  While a delta ladder split
# quasi's pairs of parts into sparse and dense ones, 5 of these 54 runs
# succeeded, all by the ladder-degenerate pass (bandwidth-3 at 0.5: v(H) =
# 60 seeds 1-2, v(H) = 120 seeds 1-3); the other 49 failed on the sparse
# side's candidate-set pass, at (x,4.1) for bandwidth-3 at 0.1, else at (x,1)
@pytest.mark.parametrize("n", [60, 120])
@pytest.mark.parametrize("family", sorted(DELTA_5_FAMILIES))
def test_frontier_of_maximum_degree_5_and_more(family, n):
    for density in (0.1, 0.2, 0.5):
        for seed in (1, 2, 3):
            H = DELTA_5_FAMILIES[family](n, seed)
            assert H.max_degree >= 5
            gc = random_collection(GenSpec(n=H.n, n_colours=H.e, density=density, seed=seed))
            out = quasi_embed(gc, H, PLAN, seed=seed)
            assert out.ok and _path(out) == "one-shot", (density, seed, _path(out))


# P_12 x K_2 and P_15 x K_2 at host densities 0.4 and 0.5, seeds 1-3: every
# run succeeds through the one-shot pass.  While the delta ladder split
# quasi's pairs, every pair of parts of these ladders was sparse, and 7 of
# the 12 runs failed at (x,1) in the ladder-degenerate pass, which had no
# buffer finish (_ladder(24) at 0.4 seeds 1-2, _ladder(30) at 0.4, and at
# 0.5 seeds 1-2)
@pytest.mark.parametrize("n", [24, 30])
def test_small_ladders(n):
    H = _ladder(n)
    for density in (0.4, 0.5):
        for seed in (1, 2, 3):
            gc = random_collection(GenSpec(n=H.n, n_colours=H.e, density=density, seed=seed))
            out = quasi_embed(gc, H, PLAN, seed=seed)
            assert out.ok and _path(out) == "one-shot", (density, seed, _path(out))


ORACLE_PATTERNS = {
    "C8": PatternGraph(8, _cycle(8)),
    "P10": PatternGraph(10, [(i, i + 1) for i in range(9)]),
    "C10": PatternGraph(10, _cycle(10)),
    "2C5": PatternGraph(10, _cycle(5) + _cycle(5, 5)),
    "M5": PatternGraph(10, [(2 * i, 2 * i + 1) for i in range(5)]),
}

# outcomes of the density-0.3 row (100 runs); the oracle finds every
# instance feasible, so each failure is the pipeline's, not the instance's.
# Re-recorded when quasi_embed stopped sparsifying its slices: the row held
# 42 successes, 43 buffer-vertices, 12 (x,1) and 3 precondition failures;
# and when its fixed density floors went: those 3 refusals became 2
# successes and a buffer-vertices failure.  When the templates' d became
# half the host's density over its colours, the counts held; 2C5 seeds 2
# and 19 still succeed, with other embeddings.  When the dense classes
# shared one pool of colours in place of a random split, the 8
# buffer-vertices and 3 (x,1) failures became successes (89 -> 100).
ORACLE_ROW_03 = {"success": 100}


def test_oracle_gap_at_density_0_3():
    outcomes, feasible = Counter(), 0
    for H in ORACLE_PATTERNS.values():
        for seed in range(20):
            gc = random_collection(GenSpec(n=H.n, n_colours=H.e, density=0.3, seed=seed))
            feasible += exact_transversal_embed(gc, H).feasible
            out = quasi_embed(gc, H, PLAN, seed=seed)
            outcomes["success" if out.ok else _path(out)] += 1
            assert not out.ok or _path(out) == "one-shot"  # every success takes the one-shot passes
    assert feasible == 100
    assert dict(outcomes) == ORACLE_ROW_03


# (pattern, outcome) -> runs of the density-0.15, 0.2 and 0.5 rows (20
# runs per pattern); the oracle finds 95, 100 and 100 instances feasible
# (ORACLE_FEASIBLE).  Recorded when quasi_embed took the host collection
# itself in place of sparsified slices; with them the 0.2 and 0.5 rows held
# 22 and 97 successes.  Re-recorded when quasi_embed's fixed density floors
# went: at 0.2 their 38 refusals became 5 successes, 27 buffer-vertices,
# 5 (x,1) and 1 (x,4.1) failures.  Re-recorded when the templates' d became
# half the host's density over its colours, read once per call: at 0.2,
# C8 seed 17 went (x,4.1) -> (x,1) (C8's (x,1) 5 -> 6).  The 0.15 row was
# recorded before that change with the same 21 succeeding instances (C8
# seed 9, P10 seed 16, M5 all seeds but 17); there C8's 2 (x,4.1) went to
# (x,1) (4 -> 6), 2C5's 3 (x,4.1) to buffer-vertices (15 -> 18) and P10's
# 1 (x,4.1) to buffer-vertices (16 -> 17).  Re-recorded when the dense
# classes shared one pool of colours in place of a random split, old ->
# new successes: 0.15 21 -> 88 (2C5 0 -> 18, C10 0 -> 19, C8 1 -> 13, M5
# 19 -> 19, P10 1 -> 19), 0.2 34 -> 100; every run that succeeded still
# does.  The 0.1 row was pinned then, with 64 feasible instances: 22
# successes against 10 before (2C5 0 -> 3, C10 0 -> 4, C8 0 -> 1, M5 10
# -> 10, P10 0 -> 4), and 42 feasible runs fail; C8's 8 refusals are
# colours with no edge.
ORACLE_FEASIBLE = {0.1: 64, 0.15: 95, 0.2: 100, 0.5: 100}
ORACLE_ROWS = {
    0.1: {
        ("2C5", "success"): 3,
        ("2C5", "one-shot:CandidateExhausted:(x,1)"): 2,
        ("2C5", "one-shot:MatchingTooSmall:buffer-vertices"): 15,
        ("C10", "success"): 4,
        ("C10", "one-shot:CandidateExhausted:(x,1)"): 2,
        ("C10", "one-shot:CandidateExhausted:(x,4.1)"): 2,
        ("C10", "one-shot:MatchingTooSmall:buffer-vertices"): 12,
        ("C8", "success"): 1,
        ("C8", "one-shot:CandidateExhausted:(x,1)"): 2,
        ("C8", "one-shot:MatchingTooSmall:buffer-vertices"): 9,
        ("C8", "quasi:PreconditionViolated:"): 8,
        ("M5", "success"): 10,
        ("M5", "one-shot:MatchingTooSmall:buffer-vertices"): 10,
        ("P10", "success"): 4,
        ("P10", "one-shot:CandidateExhausted:(x,1)"): 1,
        ("P10", "one-shot:MatchingTooSmall:buffer-vertices"): 15,
    },
    0.15: {
        ("2C5", "success"): 18,
        ("2C5", "one-shot:MatchingTooSmall:buffer-vertices"): 2,
        ("C10", "success"): 19,
        ("C10", "one-shot:CandidateExhausted:(x,1)"): 1,
        ("C8", "success"): 13,
        ("C8", "one-shot:CandidateExhausted:(x,1)"): 2,
        ("C8", "one-shot:MatchingTooSmall:buffer-vertices"): 4,
        ("C8", "quasi:PreconditionViolated:"): 1,
        ("M5", "success"): 19,
        ("M5", "one-shot:MatchingTooSmall:buffer-colours"): 1,
        ("P10", "success"): 19,
        ("P10", "one-shot:MatchingTooSmall:buffer-vertices"): 1,
    },
    0.2: {(name, "success"): 20 for name in ORACLE_PATTERNS},
    0.5: {(name, "success"): 20 for name in ORACLE_PATTERNS},
}


@pytest.mark.parametrize("density", sorted(ORACLE_ROWS))
def test_oracle_rows_by_pattern(density):
    outcomes, feasible = Counter(), 0
    for name, H in ORACLE_PATTERNS.items():
        for seed in range(20):
            gc = random_collection(GenSpec(n=H.n, n_colours=H.e, density=density, seed=seed))
            feasible += exact_transversal_embed(gc, H).feasible
            out = quasi_embed(gc, H, PLAN, seed=seed)
            outcomes[name, "success" if out.ok else _path(out)] += 1
            assert not out.ok or _path(out) == "one-shot"  # every success takes the one-shot passes
    assert feasible == ORACLE_FEASIBLE[density]
    assert dict(outcomes) == ORACLE_ROWS[density]


def _cube():
    return [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]


K4 = list(combinations(range(4), 2))
# patterns of maximum degree 3 and 4 on 8 and 10 vertices
DELTA_3_4_PATTERNS = {
    "Q3": PatternGraph(8, _cube()),
    "2K4": PatternGraph(8, K4 + [(u + 4, v + 4) for u, v in K4]),
    "prism": PatternGraph(10, _cycle(5) + _cycle(5, 5) + [(i, i + 5) for i in range(5)]),
    "Petersen": PatternGraph(10, _cycle(5) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                             + [(i, i + 5) for i in range(5)]),
    "C8^2": separable_family("hamilton-power", n=8, power=2).graph,
}
# (pattern, the oracle's verdict, outcome) -> runs of the density-0.15 and
# 0.2 rows (10 runs per pattern, seeds 0-9).  Pinned first while a delta
# ladder split quasi's pairs into sparse and dense ones, with 47 successes;
# re-pinned when the ladder and quasi's sparse side went, old -> new: at
# 0.15, C8^2's 7 (x,1) and 2 (x,4.1) failures in the sparse side's
# candidate-set pass became 4 successes, 3 (x,1) and 2 buffer-vertices
# failures, and the prism's 8 (x,1) and 2 (x,4.1) became 10 successes; at
# 0.2, C8^2's 8 (x,1) and 1 (x,4.1) and the prism's 9 (x,1) became
# successes (1 -> 10 each).  Every other run held, and every run that
# succeeded still does (47 -> 79 successes).  Three refusals are colours
# with no edge, and the oracle finds those instances and 6 more infeasible
DELTA_3_4_ROWS = {
    0.15: {
        ("2K4", "feasible", "success"): 3,
        ("2K4", "feasible", "one-shot:CandidateExhausted:(x,1)"): 1,
        ("2K4", "infeasible", "one-shot:CandidateExhausted:(x,1)"): 5,
        ("2K4", "infeasible", "quasi:PreconditionViolated:"): 1,
        ("C8^2", "feasible", "success"): 4,
        ("C8^2", "feasible", "one-shot:CandidateExhausted:(x,1)"): 3,
        ("C8^2", "feasible", "one-shot:MatchingTooSmall:buffer-vertices"): 2,
        ("C8^2", "infeasible", "quasi:PreconditionViolated:"): 1,
        ("Petersen", "feasible", "success"): 10,
        ("Q3", "feasible", "success"): 5,
        ("Q3", "feasible", "one-shot:CandidateExhausted:(x,1)"): 1,
        ("Q3", "feasible", "one-shot:MatchingTooSmall:buffer-vertices"): 2,
        ("Q3", "infeasible", "one-shot:MatchingTooSmall:buffer-vertices"): 1,
        ("Q3", "infeasible", "quasi:PreconditionViolated:"): 1,
        ("prism", "feasible", "success"): 10,
    },
    0.2: {
        ("2K4", "feasible", "success"): 8,
        ("2K4", "feasible", "one-shot:MatchingTooSmall:buffer-vertices"): 2,
        ("C8^2", "feasible", "success"): 10,
        ("Petersen", "feasible", "success"): 10,
        ("Q3", "feasible", "success"): 9,
        ("Q3", "feasible", "one-shot:MatchingTooSmall:buffer-colours"): 1,
        ("prism", "feasible", "success"): 10,
    },
}


@pytest.mark.parametrize("density", sorted(DELTA_3_4_ROWS))
def test_oracle_rows_of_maximum_degree_3_and_4(density):
    outcomes = Counter()
    for name, H in DELTA_3_4_PATTERNS.items():
        assert H.max_degree in (3, 4)
        for seed in range(10):
            gc = random_collection(GenSpec(n=H.n, n_colours=H.e, density=density, seed=seed))
            verdict = exact_transversal_embed(gc, H).status
            out = quasi_embed(gc, H, PLAN, seed=seed)
            outcomes[name, verdict, "success" if out.ok else _path(out)] += 1
            assert not out.ok or _path(out) == "one-shot"
    assert dict(outcomes) == DELTA_3_4_ROWS[density]


def test_the_default_path_runs_no_line_of_steps_0_to_5(monkeypatch):
    # M5 at host density 0.1, seed 0, fails every one-shot pass of every
    # attempt; each failing attempt used to fall through to up to 20
    # Steps 0-5 attempts.  With the lemma's entry point and each of its
    # steps made to raise, the call still returns its one-shot failure
    from transversal import embed

    def ran(*args, **kwargs):
        raise AssertionError("Steps 0-5 ran on the default path")

    monkeypatch.setattr(embed, "lemma_blowup", ran)
    monkeypatch.setattr(embed, "_pipeline_once", ran)
    for step in embed._STEPS:
        monkeypatch.setattr(embed, step.__name__, ran)
    monkeypatch.setattr(embed, "_STEPS", (ran,) * len(embed._STEPS))
    H = ORACLE_PATTERNS["M5"]
    gc = random_collection(GenSpec(n=H.n, n_colours=H.e, density=0.1, seed=0))
    out = quasi_embed(gc, H, PLAN, seed=0)
    assert _path(out).startswith("one-shot:MatchingTooSmall:")


# (triple density, seed) -> outcome of the spanning 1-expansion of C30; with
# sparsified slices all three at 0.15 failed: (x,1) on seeds 1 and 2,
# buffer-vertices on seed 3.  Until the dense classes shared one pool of
# colours in place of a random split, seed 2 at 0.15 failed at (x,1), and
# at 0.1 seeds 1 and 2 at (x,1) and seed 3 at buffer-vertices
SPANNING_C30 = {(density, seed): "success" for density in (0.15, 0.1) for seed in (1, 2, 3)}


def _spanning_c30(density, seed):
    rng = random.Random(seed)
    g = ThreeGraph(60, [t for t in combinations(range(60), 3) if rng.random() < density])
    out = expand_embed_3graph(g, PatternGraph(30, _cycle(30)), PLAN, seed=seed)
    assert not out.ok or out.stats["quasi"]["blowup"]["path"] == "one-shot"
    return "success" if out.ok else _path(out)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spanning_cycle_expansion_at_triple_density_0_15(seed):
    assert _spanning_c30(0.15, seed) == SPANNING_C30[0.15, seed]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spanning_cycle_expansion_at_triple_density_0_1(seed):
    assert _spanning_c30(0.1, seed) == SPANNING_C30[0.1, seed]


# spanning expansions: each pattern H in a random 3-graph on v(H) + e(H)
# vertices at triple densities 0.3, 0.15 and 0.1, seeds 1-3
SPANNING_PATTERNS = {
    "C30": lambda seed: PatternGraph(30, _cycle(30)),
    "ladder-24": lambda seed: _ladder(24),
    "5C5": lambda seed: PatternGraph(25, [e for k in range(5) for e in _cycle(5, 5 * k)]),
    "C20^2": lambda seed: separable_family("hamilton-power", n=20, power=2).graph,
    "tree-30": lambda seed: separable_family("tree", seed=seed, n=30).graph,
    "4K4": lambda seed: PatternGraph(16, [(u + 4 * k, v + 4 * k) for k in range(4) for u, v in K4]),
}
# (pattern, triple density, seed) -> outcome: 53 of the 54 succeed.  While a
# delta ladder split quasi's pairs into sparse and dense ones, 39 did: 6 of
# the ladder's runs (all at 0.15 and 0.1) and 8 of the tree's (all but seed 2
# at 0.3) failed at (x,1) on the sparse side, and 4K4 at 0.1 seed 2 failed
# at (x,1) as it still does
SPANNING = {(name, density, seed): "success" for name in SPANNING_PATTERNS
            for density in (0.3, 0.15, 0.1) for seed in (1, 2, 3)}
SPANNING["4K4", 0.1, 2] = "one-shot:CandidateExhausted:(x,1)"


@pytest.mark.parametrize("name", sorted(SPANNING_PATTERNS))
def test_spanning_expansions(name):
    for density in (0.3, 0.15, 0.1):
        for seed in (1, 2, 3):
            H = SPANNING_PATTERNS[name](seed)
            rng = random.Random(seed)
            n = H.n + H.e
            g = ThreeGraph(n, [t for t in combinations(range(n), 3) if rng.random() < density])
            out = expand_embed_3graph(g, H, PLAN, seed=seed)
            assert not out.ok or out.stats["quasi"]["blowup"]["path"] == "one-shot"
            assert ("success" if out.ok else _path(out)) == SPANNING[name, density, seed], (
                density, seed)


def _low_degree_host(k, q, seed, n=60, density=0.4):
    """A random 3-graph on n vertices with triple density ``density``, except
    that every triple at k seeded vertices is kept with probability q; with
    the k vertices.  Each of them has degree about q * C(n-1, 2)."""
    rng = random.Random(seed)
    weak = rng.sample(range(n), k)
    keep = [t for t in combinations(range(n), 3)
            if rng.random() < (q if set(weak).intersection(t) else density)]
    return ThreeGraph(n, keep), weak


# (k, q) rows of low-degree hosts whose spanning C30 expansions a fixed floor
# on each draw's vertex degrees and colour sizes refused (0 of 9 succeeded);
# the application theorem asks for a minimum vertex degree of Omega(n^2)
# with any positive constant, and the least here is about 0.016 * C(59, 2)
LOW_DEGREE_ROWS = [(3, 0.05), (10, 0.1), (3, 0.02)]


@pytest.mark.parametrize("k, q", LOW_DEGREE_ROWS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spanning_cycle_expansion_on_a_low_degree_host(k, q, seed):
    g, _ = _low_degree_host(k, q, seed)
    out = expand_embed_3graph(g, PatternGraph(30, _cycle(30)), PLAN, seed=seed)
    assert out.ok and out.stats["quasi"]["blowup"]["path"] == "one-shot"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_host_vertex_in_no_triple_is_refused_before_any_draw(monkeypatch, seed):
    # the spanning expansion takes all 60 host vertices, so the isolated one
    # is in every draw; without this refusal every draw ran and failed
    import types

    from transversal import embed

    def no_draw(seed):
        raise AssertionError(f"a draw with seed {seed}")

    g, [isolated] = _low_degree_host(1, 0.0, seed)
    monkeypatch.setattr(embed, "random", types.SimpleNamespace(Random=no_draw))
    f = expand_embed_3graph(g, PatternGraph(30, _cycle(30)), PLAN, seed=seed).failure
    assert (f.stage, f.reason, f.seed) == ("expand", "PreconditionViolated", seed)
    assert f.diagnostics["vertex"] == isolated
    assert f.diagnostics["min_degree_ratio"] == 0.0
    assert f.diagnostics["triple_density"] == g.e / 34220
