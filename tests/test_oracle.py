import random
from itertools import combinations

import pytest

from transversal import oracle
from transversal.core import GraphCollection, PatternGraph, ThreeGraph
from transversal.generators import (
    GenSpec,
    cyclic_triangle_collection,
    mantel_extremal,
    parity_threegraph,
    random_collection,
)
from transversal.oracle import (
    BUDGET_EXCEEDED,
    FEASIBLE,
    INFEASIBLE,
    SearchBudget,
    count_rainbow_copies,
    exact_transversal_embed,
    monochromatic_triangle_count,
    tight_hamilton_search,
)
from transversal import UnverifiedOutput
from transversal.core import VerificationReport, verify_transversal_embedding

TRIANGLE = PatternGraph(3, [(0, 1), (1, 2), (0, 2)])


def test_rainbow_triangle_in_complete_three_colours():
    gc = random_collection(GenSpec(n=3, n_colours=3, density=1.0, seed=0))
    res = exact_transversal_embed(gc, TRIANGLE)
    assert res.feasible
    assert verify_transversal_embedding(gc, TRIANGLE, res.embedding).ok


def test_triangle_infeasible_with_two_colours():
    gc = random_collection(GenSpec(n=6, n_colours=2, density=1.0, seed=0))
    res = exact_transversal_embed(gc, TRIANGLE)
    assert res.status == INFEASIBLE


def test_mantel_witness_boundary():
    gc = mantel_extremal(6)
    assert exact_transversal_embed(gc, TRIANGLE).status == INFEASIBLE
    # adding any single missing edge creates a triangle
    layer = set(gc.edges(0))
    missing = [
        (u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) not in layer
    ]
    for extra in missing:
        aug = {c: list(layer) + [extra] for c in range(3)}
        gc2 = GraphCollection(6, 3, aug)
        assert exact_transversal_embed(gc2, TRIANGLE).feasible


def test_target_sets_respected():
    gc = random_collection(GenSpec(n=6, n_colours=4, density=1.0, seed=1))
    H = PatternGraph(2, [(0, 1)], targets={0: [3], 1: [5]})
    res = exact_transversal_embed(gc, H)
    assert res.feasible
    assert res.embedding.tau[0] == 3 and res.embedding.tau[1] == 5


def test_budget_exceeded_reported_and_monotone():
    gc = random_collection(GenSpec(n=10, n_colours=8, density=0.5, seed=3))
    H = PatternGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    tiny = exact_transversal_embed(gc, H, budget=SearchBudget(node_limit=3))
    assert tiny.status == BUDGET_EXCEEDED
    big = exact_transversal_embed(gc, H, budget=SearchBudget(node_limit=10**6))
    assert big.status in (FEASIBLE, INFEASIBLE)
    # budget-monotone: a definite answer never flips with more budget
    bigger = exact_transversal_embed(gc, H, budget=SearchBudget(node_limit=2 * 10**6))
    assert big.status == bigger.status


def _brute_force_feasible(gc, H):
    """Independent enumeration: every injective vertex map that respects the
    target sets, with every injective colour assignment of the edges."""
    from itertools import permutations

    targets, edges = H.targets or {}, list(H.edges())
    for tau in permutations(range(gc.n), H.n):
        if any(tau[v] not in ts for v, ts in targets.items()):
            continue
        for sigma in permutations(range(gc.n_colours), len(edges)):
            if all(gc.has_edge(c, tau[u], tau[v]) for (u, v), c in zip(edges, sigma)):
                return True
    return False


def _oracle_grid():
    """A seeded grid of hosts with n <= 5 and |C| <= 4 and patterns with at
    most 3 edges, half of them with target sets; then the path 0-1-2 on a
    host where the middle vertex, which the search places first, must take
    the largest host."""
    rng = random.Random(11)
    for case in range(240):
        n, K = rng.randint(2, 5), rng.randint(1, 4)
        density = rng.choice([0.3, 0.6, 0.9])
        gc = GraphCollection(n, K, {c: [e for e in combinations(range(n), 2)
                                        if rng.random() < density] for c in range(K)})
        h = rng.randint(2, n) if case % 12 else min(n + 1, 5)  # some past the pigeonhole
        pairs = list(combinations(range(h), 2))
        edges = rng.sample(pairs, rng.randint(1, min(3, len(pairs))))
        targets = None
        if case % 2:
            marked = rng.sample(range(h), rng.randint(1, h))
            targets = {v: rng.sample(range(n), rng.randint(1, n)) for v in marked}
        yield gc, PatternGraph(h, edges, targets=targets)
    host = GraphCollection(3, 2, {0: [(2, 0), (2, 1)], 1: [(2, 0), (2, 1)]})
    yield host, PatternGraph(3, [(0, 1), (1, 2)])


def test_oracle_verdict_matches_brute_force_enumeration():
    verdicts = set()
    for case, (gc, H) in enumerate(_oracle_grid()):
        res = exact_transversal_embed(gc, H)
        assert res.status in (FEASIBLE, INFEASIBLE), case
        assert res.feasible == _brute_force_feasible(gc, H), case
        if res.feasible:
            assert verify_transversal_embedding(gc, H, res.embedding).ok, case
        verdicts.add((res.status, bool(H.targets)))
    # both verdicts, with and without target sets
    assert verdicts == {(s, t) for s in (FEASIBLE, INFEASIBLE) for t in (False, True)}
    assert res.feasible and res.embedding.tau[1] == 2  # the path bends at host 2


def test_an_oracle_embedding_the_verifier_rejects_raises(monkeypatch):
    # an explicit raise, so it also fires under python -O
    monkeypatch.setattr(oracle, "verify_transversal_embedding",
                        lambda *args: VerificationReport(ok=False, violations=("stub",)))
    gc = random_collection(GenSpec(n=3, n_colours=3, density=1.0, seed=0))
    with pytest.raises(UnverifiedOutput, match=r"oracle embedding failed verification"):
        exact_transversal_embed(gc, TRIANGLE)


def test_oracle_deterministic():
    gc = random_collection(GenSpec(n=8, n_colours=6, density=0.6, seed=5))
    H = PatternGraph(4, [(0, 1), (1, 2), (2, 3)])
    a = exact_transversal_embed(gc, H)
    b = exact_transversal_embed(gc, H)
    assert a.status == b.status and a.nodes == b.nodes
    if a.feasible:
        assert a.embedding.tau == b.embedding.tau


# ---------------------------------------------------------------------------
# counting


def test_count_rainbow_triangles_complete_n3():
    gc = random_collection(GenSpec(n=3, n_colours=3, density=1.0, seed=0))
    res = count_rainbow_copies(gc, TRIANGLE)
    # hand enumeration: one vertex triangle, 3! labelled vertex maps times
    # 3! colour systems, divided by |Aut(K3)| = 6
    assert res.automorphisms == 6
    assert res.labelled == 36
    assert res.count == 6


def test_count_refuses_a_pattern_with_target_sets_before_any_search(monkeypatch):
    # the embedder reads the target sets and finds no host 7 among three;
    # the counter does not read them, so it refuses the pattern
    gc = random_collection(GenSpec(n=3, n_colours=3, density=1.0, seed=0))
    H = PatternGraph(3, TRIANGLE.edges(), targets={0: [7]})
    assert exact_transversal_embed(gc, H).status == INFEASIBLE
    monkeypatch.setattr(oracle, "_search", lambda *args: pytest.fail("searched"))
    with pytest.raises(ValueError, match="copy counting does not support target sets"):
        count_rainbow_copies(gc, H)


def test_count_not_divisible_by_the_automorphisms_raises(monkeypatch):
    # an explicit raise, so it also fires under python -O
    gc = random_collection(GenSpec(n=3, n_colours=3, density=1.0, seed=0))
    monkeypatch.setattr(oracle, "_automorphism_count", lambda F: 5)  # 36 labelled copies
    with pytest.raises(AssertionError, match="36 labelled copies, not a multiple of"):
        count_rainbow_copies(gc, TRIANGLE)


def test_count_zero_when_too_few_colours():
    gc = random_collection(GenSpec(n=5, n_colours=2, density=1.0, seed=0))
    assert count_rainbow_copies(gc, TRIANGLE).count == 0


def test_count_matches_brute_force_enumeration():
    rng = random.Random(2)
    gc = random_collection(GenSpec(n=5, n_colours=4, density=0.7, seed=9))
    F = PatternGraph(3, [(0, 1), (1, 2)])  # path, Aut = 2
    res = count_rainbow_copies(gc, F)
    # independent brute force over all injections and colour pairs
    from itertools import permutations

    count = 0
    for tau in permutations(range(5), 3):
        for c1 in range(4):
            for c2 in range(4):
                if c1 == c2:
                    continue
                if gc.has_edge(c1, tau[0], tau[1]) and gc.has_edge(c2, tau[1], tau[2]):
                    count += 1
    assert res.labelled == count
    assert res.count == count // 2


def test_count_stops_at_its_node_budget_and_finishes_on_the_default():
    gc = random_collection(GenSpec(n=6, n_colours=3, density=0.9, seed=1))
    tiny = count_rainbow_copies(gc, TRIANGLE, budget=SearchBudget(node_limit=2))
    assert tiny.status == BUDGET_EXCEEDED and tiny.nodes == 2
    # budget-monotone: more budget turns the exit into the full count
    full = count_rainbow_copies(gc, TRIANGLE)
    assert full.status == "exact" and full.count == 90 and full.labelled == 540


def test_a_stopped_count_is_a_lower_bound_and_a_finished_one_is_exact():
    gc = random_collection(GenSpec(n=6, n_colours=3, density=0.9, seed=1))
    part = count_rainbow_copies(gc, TRIANGLE, budget=SearchBudget(node_limit=40))
    # 131 labelled copies found: they belong to at least ceil(131 / 6) copies
    assert (part.status, part.labelled, part.count, part.nodes) == (BUDGET_EXCEEDED, 131, 22, 40)
    assert part.count <= count_rainbow_copies(gc, TRIANGLE).count
    assert "lower bound" in part.convention
    # a finished count of 0 is exact, not a verdict on existence
    none = count_rainbow_copies(random_collection(GenSpec(5, 2, 1.0, 0)), TRIANGLE)
    assert (none.status, none.count) == ("exact", 0)


def test_mono_triangle_count_cyclic_construction():
    gc = cyclic_triangle_collection(12, seed=3)
    assert monochromatic_triangle_count(gc) == 0


# ---------------------------------------------------------------------------
# tight Hamilton search


def test_tight_cycle_in_complete_three_graph():
    g = ThreeGraph(6, list(combinations(range(6), 3)))
    res = tight_hamilton_search(g)
    assert res.status == FEASIBLE
    cyc = res.cycle
    for i in range(6):
        tr = tuple(sorted((cyc[i], cyc[(i + 1) % 6], cyc[(i + 2) % 6])))
        assert tr in g.edges


def test_tight_search_stops_at_its_node_budget_and_finishes_on_the_default():
    g = ThreeGraph(7, list(combinations(range(7), 3)))
    tiny = tight_hamilton_search(g, budget=SearchBudget(node_limit=2))
    assert tiny.status == BUDGET_EXCEEDED and tiny.cycle is None and tiny.nodes == 2
    full = tight_hamilton_search(g)
    assert full.status == FEASIBLE and full.cycle == tuple(range(7))


def test_isolated_vertex_infeasible():
    g = ThreeGraph(6, [t for t in combinations(range(5), 3)])
    assert tight_hamilton_search(g).status == INFEASIBLE


def test_parity_obstruction_infeasible():
    # |X ∩ V_1| odd forces infeasibility of the tight Hamilton cycle
    g = parity_threegraph(4, {0}, seed=0)
    res = tight_hamilton_search(g, budget=SearchBudget(node_limit=5_000_000))
    assert res.status == INFEASIBLE
