import dataclasses
import json
import random
import re

import pytest

from transversal.core import GraphCollection, SimpleGraph
from transversal.regularity import ledger_slice, make_ledger
from transversal.templates import ledger_to_json, make_template, thick_graph, thick_host_graph


def one_edge_template(n_side=6, k=8, density=1.0, seed=0, d="0.5", eps="0.2",
                      klass="super", mode="super"):
    rng = random.Random(seed)
    edges = {
        c: [
            (u, v)
            for u in range(n_side)
            for v in range(n_side, 2 * n_side)
            if rng.random() < density
        ]
        for c in range(k)
    }
    gc = GraphCollection(2 * n_side, k, edges)
    R = SimpleGraph(2, [(0, 1)])
    led = make_ledger(n_side, eps, d, "0.5", mode=mode)
    return make_template(
        R, [range(n_side), range(n_side, 2 * n_side)], {(0, 1): range(k)},
        gc, led, rainbow=True, klass=klass,
    )


def test_thick_graph_identity_and_empty():
    t = one_edge_template()
    tk = thick_graph(t, 0.99)
    # identical layers: thick graph equals any single layer
    assert tk.graph.e == 36
    # each edge in exactly one colour, threshold above 1/k -> empty
    edges = {c: [(c % 6, 6 + (c // 6) % 6)] for c in range(8)}
    gc = GraphCollection(12, 8, edges)
    led = make_ledger(6, "0.2", "0.1", "0.5")
    t2 = make_template(
        SimpleGraph(2, [(0, 1)]), [range(6), range(6, 12)], {(0, 1): range(8)},
        gc, led, rainbow=True, klass="regular",
    )
    tk2 = thick_graph(t2, 0.2)  # threshold 1.6 colours > multiplicity 1
    assert tk2.graph.e == 0


def test_thick_graph_multiplicity_recount():
    t = one_edge_template(density=0.5, seed=11, d="0.3", klass="regular")
    lam = 0.4
    tk = thick_graph(t, lam)
    rng = random.Random(0)
    cs = t.colours_of_edge(0, 1)
    need = lam * len(cs)
    for _ in range(1000):
        u = rng.randrange(6)
        v = rng.randrange(6, 12)
        mult = sum(1 for c in cs if t.gc.has_edge(c, u, v))
        assert tk.graph.has_edge(u, v) == (mult >= need)


def test_thick_host_graph_on_subset_pools_is_the_threshold_graph():
    # the embedders build thick graphs over slices of the clusters and over
    # the colours still unused, so parts and pools are strict subsets; the
    # builder stops counting a pair's colours at lam*|pool|, so the reference
    # counts them all, with lam*|pool| <= 0 (every pair an edge), empty pools
    # and whole-number thresholds among the cases
    for seed in range(20):
        rng = random.Random(seed)
        n, k = 18, 9
        gc = GraphCollection(n, k, {
            c: [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            for c in range(k)
        })
        clusters = [range(0, 6), range(6, 12), range(12, 18)]
        parts = [sorted(rng.sample(cl, rng.randrange(1, 6))) for cl in clusters]
        pools = {key: sorted(rng.sample(range(k), rng.randrange(0, k)))
                 for key in [(0, 1), (0, 2), (1, 2)] if rng.random() < 0.8}
        for lam in (-0.5, 0.0, 0.1, 0.3, 0.5, 0.9, 1.0, 1.5, rng.random()):
            want = set()
            for (i, j), pool in pools.items():
                for u in parts[i]:
                    for v in parts[j]:
                        if sum(gc.has_edge(c, u, v) for c in pool) >= lam * len(pool):
                            want.add((min(u, v), max(u, v)))
            got = thick_host_graph(gc, parts, pools, lam)
            assert got.n == n and set(got.edges()) == want, (seed, lam)


def test_thick_graph_degree_report_matches_recount():
    rng = random.Random(5)
    gc = GraphCollection(18, 7, {
        c: [(u, v) for u in range(18) for v in range(u + 1, 18) if rng.random() < 0.5]
        for c in range(7)
    })
    R = SimpleGraph(3, [(0, 1), (0, 2), (1, 2)])
    clusters = [range(0, 6), range(6, 12), range(12, 18)]
    cc = {(0, 1): range(3), (1, 2): range(2, 7), (0, 2): (5,)}
    t = make_template(R, clusters, cc, gc, make_ledger(6, "0.05", "0.5", "0.5"),
                      klass="semi-super")
    for lam in (0.1, 0.4, 0.7):
        tk = thick_graph(t, lam)
        want = []
        for (i, j) in sorted(cc):
            for side, other in ((i, j), (j, i)):
                for u in clusters[side]:
                    deg = sum(tk.graph.has_edge(u, v) for v in clusters[other])
                    if deg < 0.25 * 6:
                        want.append((side, u, deg, 0.25 * 6))
        assert list(tk.min_degree_violations) == want
        assert tk.min_degree_ok == (not want)


def test_thick_graph_semi_super_min_degree():
    t = one_edge_template(density=0.6, seed=3, d="0.4", eps="0.45", klass="semi-super",
                          mode="semi-super")
    tk = thick_graph(t, 0.05)
    # the declared-class degree bound is checked and reported
    if tk.min_degree_ok:
        for u in range(6):
            assert tk.graph.degree(u) >= 0.2 * 6


def test_ledger_to_json_keeps_exact_values_and_lineage():
    led = make_ledger(8, "0.02", "0.4", "0.5", mode="super")
    led = ledger_slice(led, "template-i", alpha="0.5", k=1)
    doc = ledger_to_json(led)
    assert json.loads(json.dumps(doc)) == doc
    assert doc == {
        "m": "4", "eps": "1/25", "d": "1/5", "delta": "1/2", "mode": "regular",
        "initial": ["8", "1/50", "2/5", "1/2", "super"],
        "lineage": [{"rule": "template-i", "args": ["1/2", "1", None],
                     "params": ["4", "1/25", "1/5", "1/2"], "mode": "regular"}],
    }


@pytest.mark.parametrize("change, message", [
    ({"klass": "hyper"}, "unknown template class"),
    ({"clusters": ((0, 1, 2), (2, 3, 4))}, "vertex clusters must be disjoint"),
    ({"R": SimpleGraph(2)}, "colour cluster for non-edge (0, 1) of R"),
], ids=["klass", "overlapping-clusters", "colour-cluster-off-R"])
def test_template_rejects_malformed_fields(change, message):
    t = one_edge_template()
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(t, **change)


@pytest.mark.parametrize("lam", [0, 1, -0.5, 1.5])
def test_thick_graph_rejects_lam_outside_the_open_unit_interval(lam):
    with pytest.raises(ValueError, match=re.escape("lam must lie in (0,1)")):
        thick_graph(one_edge_template(), lam)
