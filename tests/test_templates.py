import random

import pytest

from transversal.core import GraphCollection, SimpleGraph
from transversal.regularity import DensitySpec, classify_collection, make_ledger, replay_lineage
from transversal.templates import (
    PreconditionViolated,
    SliceSelection,
    make_template,
    slice_template,
    thick_graph,
    thick_host_graph,
    validate_template,
)


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


def test_validate_complete_template():
    t = one_edge_template()
    rep = validate_template(t)
    assert rep.ok and rep.stamp == "exhaustive"


def test_validate_rainbow_overlap_reported():
    t = one_edge_template()
    R3 = SimpleGraph(3, [(0, 1), (1, 2)])
    gc3 = GraphCollection(
        9, 4,
        {c: [(u, v) for u in range(3) for v in range(3, 6)]
         + [(u, v) for u in range(3, 6) for v in range(6, 9)] for c in range(4)},
    )
    led = make_ledger(3, "0.34", "0.5", "0.5")
    t3 = make_template(
        R3, [range(3), range(3, 6), range(6, 9)],
        {(0, 1): [0, 1, 2], (1, 2): [2, 3]}, gc3, led, rainbow=True,
    )
    rep = validate_template(t3)
    assert not rep.ok and rep.rainbow_violations


def test_validation_agrees_with_direct_classify():
    t = one_edge_template(density=0.6, seed=5, d="0.3", eps="0.45", klass="regular")
    rep = validate_template(t, seed=1)
    spec = DensitySpec(d=0.3, epsilon=0.45, mode="regular")
    direct = classify_collection(
        t.gc, t.clusters[0], t.clusters[1], spec, seed=1,
        colours=t.colours_of_edge(0, 1),
    )
    assert rep.per_edge[(0, 1)].ok == direct.ok


def test_slice_case_ii_ledger_and_class():
    t = one_edge_template()
    t2 = slice_template(
        t, "ii",
        SliceSelection(clusters=t.clusters, colour_clusters=t.colour_clusters),
        alpha=0.1,
    )
    m, eps, d, delta = t.ledger.params
    assert t2.ledger.params == (m / 2, 2 * eps, d / 2, delta / 2)
    assert t2.klass == "super"
    assert replay_lineage(t2.ledger)


def test_slice_case_i_ledger():
    t = one_edge_template()
    t1 = slice_template(
        t, "i",
        SliceSelection(clusters=[range(3), range(6, 9)], colour_clusters={(0, 1): range(4)}),
        alpha=0.5, k=1,
    )
    m, eps, d, delta = t.ledger.params
    assert t1.ledger.params == (m / 2, 2 * eps, d / 2, delta)
    # induced subtemplate really restricts the clusters
    assert t1.clusters == ((0, 1, 2), (6, 7, 8))


def test_slice_case_i_precondition():
    t = one_edge_template()
    with pytest.raises(PreconditionViolated):
        slice_template(
            t, "i",
            SliceSelection(clusters=[range(1), range(6, 9)], colour_clusters={(0, 1): range(4)}),
            alpha=0.5, k=1,
        )


def test_slice_case_iii_random_super():
    t = one_edge_template()
    t3 = slice_template(
        t, "iii",
        SliceSelection(cluster_sizes=[3, 3], colour_sizes={(0, 1): 4}),
        alpha=0.5, k=1, seed=7,
    )
    assert t3.klass == "super"
    assert all(len(c) == 3 for c in t3.clusters)
    assert len(t3.colours_of_edge(0, 1)) == 4
    # deterministic under the seed
    t3b = slice_template(
        t, "iii",
        SliceSelection(cluster_sizes=[3, 3], colour_sizes={(0, 1): 4}),
        alpha=0.5, k=1, seed=7,
    )
    assert t3b.clusters == t3.clusters


def test_slice_case_iv_sparsifies_half_super():
    t = one_edge_template(n_side=8, density=1.0, d="0.5", eps="0.45",
                          klass="half-super", mode="half-super")
    t4 = slice_template(t, "iv", eps_prime=0.45, seed=3)
    assert t4.klass == "super"
    m, eps, d, delta = t.ledger.params
    assert t4.ledger.d == d * d / 2
    # per-edge slices pass super classification at the weakened density
    rep = validate_template(t4)
    assert rep.ok, rep.per_edge[(0, 1)]
    # never adds edges
    for c in range(t.gc.n_colours):
        assert set(t4.gc.edges(c)) <= set(t.gc.edges(c))


def test_slice_case_iv_builds_no_threegraph(monkeypatch):
    from transversal.core import ThreeGraph

    built = []
    real_init = ThreeGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ThreeGraph, "__init__", counting_init)
    t = one_edge_template(n_side=8, density=0.9, seed=2, d="0.5", eps="0.45",
                          klass="half-super", mode="half-super")
    t4 = slice_template(t, "iv", eps_prime=0.45, seed=3)
    assert t4.klass == "super" and t4.gc.total_edge_count() < t.gc.total_edge_count()
    assert built == []


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
    # the colours still unused, so parts and pools are strict subsets
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
        lam = rng.choice([0.1, 0.3, 0.5, 0.9])
        want = set()
        for (i, j), pool in pools.items():
            for u in parts[i]:
                for v in parts[j]:
                    if sum(gc.has_edge(c, u, v) for c in pool) >= lam * len(pool):
                        want.add((min(u, v), max(u, v)))
        got = thick_host_graph(gc, parts, pools, lam)
        assert got.n == n and set(got.edges()) == want


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


def test_ledger_chain_replay_after_slices():
    t = one_edge_template()
    t2 = slice_template(
        t, "ii",
        SliceSelection(clusters=t.clusters, colour_clusters=t.colour_clusters),
        alpha=0.1,
    )
    t3 = slice_template(
        t2, "iii",
        SliceSelection(cluster_sizes=[3, 3], colour_sizes={(0, 1): 4}),
        alpha=0.5, k=1, seed=2,
    )
    assert replay_lineage(t3.ledger)


def test_template_json_round_trip():
    from transversal.templates import template_from_json, template_to_json
    from transversal.templates import SliceSelection, slice_template

    t = one_edge_template(density=0.7, seed=2, d="0.4", klass="regular")
    t2 = slice_template(
        t, "ii",
        SliceSelection(clusters=t.clusters, colour_clusters=t.colour_clusters),
        alpha=0.1,
    )
    doc = template_to_json(t2)
    back = template_from_json(doc)
    assert back.clusters == t2.clusters
    assert back.colour_clusters == t2.colour_clusters
    assert back.gc == t2.gc
    assert back.ledger.params == t2.ledger.params
    assert back.ledger.lineage == t2.ledger.lineage
    assert replay_lineage(back.ledger)
    assert back.klass == t2.klass and back.rainbow == t2.rainbow
