import math
import random

import pytest

from transversal import vizing
from transversal.core import SimpleGraph
from transversal.vizing import EdgeColouring, extract_matching, proper_edge_colouring


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return SimpleGraph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_colouring_proper_and_within_delta_plus_one():
    for seed in range(120):
        rng = random.Random(seed)
        g = random_graph(rng.randrange(3, 16), rng.random(), seed)
        ec = proper_edge_colouring(g)
        assert len(ec.col) == g.e
        seen = set()
        for (u, v), c in ec.col.items():
            assert 0 <= c <= g.max_degree
            assert (u, c) not in seen and (v, c) not in seen
            seen.add((u, c))
            seen.add((v, c))


def test_matching_bound_and_disjointness():
    for seed in range(60):
        g = random_graph(12, 0.4, 1000 + seed)
        if g.e == 0:
            continue
        m = extract_matching(g)
        assert len(m) >= math.ceil(g.e / (g.max_degree + 1))
        used = [v for e in m for v in e]
        assert len(set(used)) == len(used)
        for (u, v) in m:
            assert g.has_edge(u, v)


def test_thirty_edge_delta3_example():
    # a Delta=3 graph with 30 edges yields a matching of at least ceil(30/4)=8
    rng = random.Random(5)
    while True:
        n = 24
        deg = [0] * n
        edges = []
        cands = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(cands)
        for (u, v) in cands:
            if deg[u] < 3 and deg[v] < 3:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
            if len(edges) == 30:
                break
        g = SimpleGraph(n, edges)
        if g.e == 30 and g.max_degree == 3:
            break
    assert len(extract_matching(g)) >= 8


# the two invariant checks are explicit raises, so they also fire under python -O


def test_no_free_colour_raises_rather_than_uncolouring():
    ec = EdgeColouring(SimpleGraph(3, [(0, 1), (0, 2)]), 1)
    ec.set_colour(0, 1, 0)
    with pytest.raises(AssertionError, match="no free colour"):
        ec.free_colour(0)


def test_a_fan_without_its_free_end_raises(monkeypatch):
    # with no colour free anywhere, no prefix of the fan ends where d is free
    monkeypatch.setattr(vizing.EdgeColouring, "is_free", lambda self, v, c: False)
    with pytest.raises(AssertionError, match="Misra-Gries invariant violated"):
        proper_edge_colouring(SimpleGraph(2, [(0, 1)]))
