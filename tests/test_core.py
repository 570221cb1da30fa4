import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transversal import core
from transversal.core import (
    EdgeStraddlesSides,
    GraphCollection,
    NotCertified,
    PatternGraph,
    SeparabilityCertificate,
    SimpleGraph,
    ThreeGraph,
    TransversalEmbedding,
    collection_from_json,
    collection_to_json,
    embedding_from_json,
    embedding_to_json,
    from_three_graph,
    pattern_from_json,
    pattern_to_json,
    separability_certificate,
    threegraph_from_json,
    verify_transversal_embedding,
)


def random_gc(n, k, density, seed):
    rng = random.Random(seed)
    edges = {
        c: [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        for c in range(k)
    }
    return GraphCollection(n, k, edges)


# ---------------------------------------------------------------------------
# three-graph conversions


def test_three_graph_edge_count_equals_colour_sum():
    gc = random_gc(8, 5, 0.4, seed=1)
    tg = ThreeGraph(8 + 5, [(u, v, 8 + c) for c in range(5) for u, v in gc.edges(c)])
    # independent recount straight from the edge lists
    recount = sum(len(list(gc.edges(c))) for c in range(gc.n_colours))
    assert tg.e == recount == gc.total_edge_count()


def test_round_trip_identity_small():
    for seed in range(10):
        gc = random_gc(6, 4, 0.5, seed)
        tg = ThreeGraph(6 + 4, [(u, v, 6 + c) for c in range(4) for u, v in gc.edges(c)])
        back = from_three_graph(tg, range(6), range(6, 10))
        assert back == gc


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 7),
    k=st.integers(1, 5),
    seed=st.integers(0, 10**6),
    density=st.floats(0, 1),
)
def test_round_trip_identity_property(n, k, seed, density):
    gc = random_gc(n, k, density, seed)
    tg = ThreeGraph(n + k, [(u, v, n + c) for c in range(k) for u, v in gc.edges(c)])
    assert from_three_graph(tg, range(n), range(n, n + k)) == gc


def test_from_three_graph_single():
    tg = ThreeGraph(3, [(0, 1, 2)])
    gc = from_three_graph(tg, [0, 1], [2])
    assert list(gc.edges(0)) == [(0, 1)]


def test_from_three_graph_straddle_rejected():
    tg = ThreeGraph(4, [(0, 1, 2)])
    with pytest.raises(EdgeStraddlesSides):
        from_three_graph(tg, [0, 1, 2], [3])
    with pytest.raises(EdgeStraddlesSides):
        from_three_graph(tg, [0], [1, 2, 3])


def test_from_three_graph_straddle_names_the_triple():
    tg = ThreeGraph(5, [(0, 1, 4), (0, 3, 4)])
    with pytest.raises(EdgeStraddlesSides, match=r"\(0, 3, 4\) has 2 vertices"):
        from_three_graph(tg, [0, 1, 2], [3, 4])


# ---------------------------------------------------------------------------
# ThreeGraph's pair-mask table against the frozenset of sorted triples it
# replaced


def _frozenset_reference(n, triples):
    """The frozenset of sorted triples ThreeGraph used to store, with its checks."""
    eset = set()
    for e in triples:
        t = tuple(sorted(e))
        if len(set(t)) != 3:
            raise ValueError(f"3-edge {e} has repeated vertices")
        if not all(0 <= x < n for x in t):
            raise ValueError(f"3-edge {e} out of range for n={n}")
        eset.add(t)
    return frozenset(eset)


def _random_triples(rng, n, m):
    """m triples of distinct vertices in random vertex order; about one in
    five is repeated in another order."""
    out = []
    for _ in range(m):
        t = tuple(rng.sample(range(n), 3))
        out.append(t)
        if rng.random() < 0.2:
            out.append(tuple(rng.sample(t, 3)))
    return out


@pytest.mark.parametrize("seed", range(25))
def test_pair_table_views_match_the_frozenset(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    triples = _random_triples(rng, n, rng.randint(0, 3 * n))
    ref = _frozenset_reference(n, triples)
    g = ThreeGraph(n, triples)
    assert g.edges == ref and g.e == len(ref)
    for v in range(-2, n + 2):
        assert g.degree(v) == sum(1 for t in ref if v in t)
    # repeated and out-of-range arguments included
    for t in itertools.product(range(-1, n + 1), repeat=3):
        assert g.has(*t) == (tuple(sorted(t)) in ref)
    assert g == ThreeGraph(n, [p for t in ref for p in itertools.permutations(t)])
    assert g == ThreeGraph(n, [list(t) for t in reversed(triples)])
    assert g != ThreeGraph(n + 1, triples)
    for t in ref:
        assert g != ThreeGraph(n, ref - {t})


@pytest.mark.parametrize("bad", [(0, 0, 1), (2, 1, 2), (0, 1), (0, 1, 2, 3), (1, 2, 9),
                                 (-1, 0, 1), (3, 3, 9)])
def test_pair_table_error_messages_are_the_frozensets(bad):
    rng = random.Random(str(bad))
    triples = _random_triples(rng, 9, 12)
    triples.insert(rng.randrange(len(triples) + 1), bad)
    with pytest.raises(ValueError) as ref:
        _frozenset_reference(9, triples)
    with pytest.raises(ValueError) as new:
        ThreeGraph(9, triples)
    assert str(new.value) == str(ref.value)
    # the loader takes the JSON lists as they are and reports the same triple
    with pytest.raises(ValueError) as loaded:
        threegraph_from_json({"n": 9, "edges": [list(t) for t in triples]})
    assert str(loaded.value) == str(ref.value)


def _scan_link_collection(g, v_side, c_side):
    """The scan over every host triple that expand_embed_3graph made once per
    attempt before ThreeGraph.link_collection."""
    vidx = {w: i for i, w in enumerate(v_side)}
    cidx = {w: j for j, w in enumerate(c_side)}
    col_edges = {j: [] for j in range(len(c_side))}
    for tr in g.edges:
        on_c = [x for x in tr if x in cidx]
        on_v = [x for x in tr if x in vidx]
        if len(on_c) == 1 and len(on_v) == 2:
            col_edges[cidx[on_c[0]]].append((vidx[on_v[0]], vidx[on_v[1]]))
    return GraphCollection(len(v_side), len(c_side), col_edges)


@pytest.mark.parametrize("seed", range(25))
def test_link_collection_matches_the_triple_scan(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 40)
    density = rng.random()
    g = ThreeGraph(n, [t for t in itertools.combinations(range(n), 3) if rng.random() < density])
    draw = rng.sample(range(n), rng.randint(2, n))
    k = rng.randint(1, len(draw) - 1)
    v_side, c_side = draw[:k], draw[k:]
    if seed % 2:
        v_side, c_side = sorted(v_side), sorted(c_side)
    gc = g.link_collection(v_side, c_side)
    ref = _scan_link_collection(g, v_side, c_side)
    assert gc == ref
    assert [gc.edge_count(c) for c in gc.colours] == [ref.edge_count(c) for c in ref.colours]


def test_threegraph_footprint_is_linear_in_edges():
    # a dense n x n pair table would take about 72 MB at this n
    tracemalloc.start()
    try:
        g = ThreeGraph(3000, [(0, 1, 2)])
        assert g.has(2, 0, 1) and g.degree(2999) == 0 and g.edges == {(0, 1, 2)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------------------
# ThreeGraph's bulk numpy build against the per-triple loop it replaced


def _per_triple_build(n, edges):
    """The pair table and edge count of the per-triple loop ThreeGraph used to
    build with, checks and error messages included."""
    pairs = {}
    get = pairs.get
    count = 0
    for t in edges:
        try:
            a, b, c = t
        except ValueError:
            raise ValueError(f"3-edge {tuple(t)} has repeated vertices") from None
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        if not (int is type(a) is type(b) is type(c) and 0 <= a < b < c < n):
            t = tuple(t)
            if any(type(x) is not int for x in t):
                raise ValueError(f"3-edge {t} has a vertex that is not an integer")
            if len(set(t)) != 3:
                raise ValueError(f"3-edge {t} has repeated vertices")
            raise ValueError(f"3-edge {t} out of range for n={n}")
        ab = a * n + b
        m = get(ab, 0)
        if m >> c & 1:
            continue
        pairs[ab] = m | 1 << c
        ac = a * n + c
        pairs[ac] = get(ac, 0) | 1 << b
        bc = b * n + c
        pairs[bc] = get(bc, 0) | 1 << a
        count += 1
    return pairs, count


def _mixed_rows(rng, triples):
    """The triples as a random mix of list and tuple rows."""
    return [list(t) if rng.random() < 0.5 else tuple(t) for t in triples]


@pytest.mark.parametrize("chunk", [None, 1, 5])  # None: the module's chunk size
@pytest.mark.parametrize("n", [3, 63, 64, 65, 128, 129, 200])
def test_bulk_build_matches_the_per_triple_loop(n, chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(core, "_CHUNK_ROWS", chunk)
    rng = random.Random(f"{n}/{chunk}")
    for m in (0, 1, 2, rng.randint(3, 4 * n)):
        # random vertex order within rows, about one row in five repeated
        rows = _mixed_rows(rng, _random_triples(rng, n, m))
        g = ThreeGraph(n, rows)
        assert (g._pairs, g.e) == _per_triple_build(n, rows)
        assert g == ThreeGraph(n, iter(rows[::-1]))


def test_bulk_build_over_several_chunks():
    rng = random.Random(1)
    rows = _mixed_rows(rng, _random_triples(rng, 200, (5 * core._CHUNK_ROWS) // 2))
    g = ThreeGraph(200, rows)
    assert len(rows) > 2 * core._CHUNK_ROWS
    assert (g._pairs, g.e) == _per_triple_build(200, rows)


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("n, low", [(3_000_000, 2_999_970), (3_000_000, 0), (10**12, 0)])
def test_bulk_build_past_the_int64_sort_key(n, low, chunk, monkeypatch):
    # (pair * n + third) overflows int64 from n = 2**21; these vertices lie in
    # [low, low + 30) plus a few rows that span 0 .. n - 1 where the masks fit
    if chunk:
        monkeypatch.setattr(core, "_CHUNK_ROWS", chunk)
    rng = random.Random(f"{n}/{low}")
    top = min(n - 1, 3_000_000 - 1)
    rows = [tuple(low + x for x in t) for t in _random_triples(rng, 30, 12)]
    rows += [(0, 1, top), (top, 5, 0), (top - 64, top, 1)]
    rows = _mixed_rows(rng, rows)
    g = ThreeGraph(n, rows)
    assert (g._pairs, g.e) == _per_triple_build(n, rows)
    assert g.has(1, top, 0) and not g.has(1, top, 2)


_BAD_ROWS = [(0, 1, 99), (0.5, 1, 2), (3, 3, 4), (0, 1), (True, 1, 2), (1, 2, 2**70),
             (-1, 0, 1), (0, 1, 2, 3)]


# (rows from the first bad row to the second, chunk size): with chunks of 4
# the two bad rows share a chunk at gap 1 and not at gap 9
@pytest.mark.parametrize("gap, chunk", [(1, None), (1, 4), (9, 4)])
@pytest.mark.parametrize("first, second", list(itertools.permutations(_BAD_ROWS, 2)))
def test_first_bad_row_in_input_order_decides_the_message(first, second, gap, chunk,
                                                          monkeypatch):
    if chunk:
        monkeypatch.setattr(core, "_CHUNK_ROWS", chunk)
    rng = random.Random(f"{first}/{second}")
    rows = _mixed_rows(rng, _random_triples(rng, 9, 14))[:14]
    rows[2], rows[2 + gap] = first, second
    with pytest.raises(ValueError) as ref:
        _per_triple_build(9, rows)
    with pytest.raises(ValueError) as new:
        ThreeGraph(9, rows)
    assert str(new.value) == str(ref.value) and str(tuple(first)) in str(new.value)
    with pytest.raises(ValueError) as loaded:
        threegraph_from_json({"n": 9, "edges": [list(t) for t in rows]})
    assert str(loaded.value) == str(ref.value)


def test_rows_the_int64_build_cannot_take_are_value_errors():
    with pytest.raises(ValueError, match="below 2"):
        ThreeGraph(2**70, [(0, 1, 2**65)])
    with pytest.raises(ValueError, match="sized sequences"):
        ThreeGraph(5, [iter((0, 1, 2))])


def test_dense_build_peak_is_bounded_by_the_chunk():
    # a dense n = 90 host like the expand-cli benchmark's; built in one chunk,
    # the numpy temporaries of its ~70k rows peak at about 12 MB
    rng = random.Random(0)
    rows = [list(t) for t in itertools.combinations(range(90), 3) if rng.random() < 0.6]
    tracemalloc.start()
    try:
        g = ThreeGraph(90, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.e == len(rows) > 70_000
    assert peak < 5 << 20, peak


def test_threegraph_rejects_overlapping_parts():
    # overlapping parts used to pass, and `check --three-density` then
    # divided by the wrong product of part sizes
    with pytest.raises(ValueError, match="disjoint"):
        ThreeGraph(3, [(0, 1, 2)], parts=[[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="cover"):
        ThreeGraph(3, [(0, 1, 2)], parts=[[0], [1]])
    assert ThreeGraph(3, [(0, 1, 2)], parts=[[2], [1, 0]]).parts == ((2,), (0, 1))


@pytest.mark.parametrize("triple", [[0.0, 1, 2], [True, 0, 2], [0, 1, 2.5],
                                    ["0", "1", "2"], [[0], [1], [2]]])
def test_threegraph_vertices_must_be_json_integers(triple):
    # [0.0, 1, 2] used to load and be written back as 0.0; [True, 0, 2] loaded
    # as vertex 1
    with pytest.raises(ValueError, match="not an integer"):
        threegraph_from_json({"n": 3, "edges": [[0, 1, 2], triple]})


# ---------------------------------------------------------------------------
# verifier


def rainbow_triangle_fixture():
    gc = GraphCollection(3, 3, {0: [(0, 1)], 1: [(1, 2)], 2: [(0, 2)]})
    H = PatternGraph(3, [(0, 1), (1, 2), (0, 2)])
    emb = TransversalEmbedding(
        tau={0: 0, 1: 1, 2: 2}, sigma={(0, 1): 0, (1, 2): 1, (0, 2): 2}
    )
    return gc, H, emb


def test_verify_accepts_rainbow_triangle():
    gc, H, emb = rainbow_triangle_fixture()
    assert verify_transversal_embedding(gc, H, emb).ok


def test_verify_rejects_sigma_collision():
    gc, H, _ = rainbow_triangle_fixture()
    emb = TransversalEmbedding(
        tau={0: 0, 1: 1, 2: 2}, sigma={(0, 1): 0, (1, 2): 0, (0, 2): 2}
    )
    rep = verify_transversal_embedding(gc, H, emb)
    assert not rep.ok
    assert any("injective" in v for v in rep.violations)


def test_verify_rejects_wrong_colour():
    gc, H, _ = rainbow_triangle_fixture()
    emb = TransversalEmbedding(
        tau={0: 0, 1: 1, 2: 2}, sigma={(0, 1): 1, (1, 2): 0, (0, 2): 2}
    )
    assert not verify_transversal_embedding(gc, H, emb).ok


def test_verify_reports_host_images_out_of_range():
    # an image outside the host is a violation, not an IndexError
    gc, H, _ = rainbow_triangle_fixture()
    for bad in (gc.n, gc.n + 5, -1):
        emb = TransversalEmbedding(
            tau={0: bad, 1: 1, 2: 2}, sigma={(0, 1): 0, (1, 2): 1, (0, 2): 2}
        )
        rep = verify_transversal_embedding(gc, H, emb)
        assert not rep.ok
        assert f"tau image {bad} outside host vertex range" in rep.violations


def test_verify_checks_target_sets():
    gc, H, emb = rainbow_triangle_fixture()
    H2 = PatternGraph(3, H.edges(), targets={0: [2]})
    assert not verify_transversal_embedding(gc, H2, emb).ok


def naive_verify(gc, H, emb):
    """Independent re-implementation used to cross-check the verifier."""
    tau, sigma = emb.tau, emb.sigma
    if sorted(tau) != list(range(H.n)) or set(sigma) != set(H.edges()):
        return False
    if len(set(tau.values())) != H.n or len(set(sigma.values())) != len(sigma):
        return False
    for (u, v) in H.edges():
        c = sigma[(u, v)]
        if not (0 <= c < gc.n_colours):
            return False
        if (tau[u], tau[v]) not in set(gc.edges(c)) and (tau[v], tau[u]) not in set(
            gc.edges(c)
        ):
            return False
    if H.targets:
        for x, T in H.targets.items():
            if tau[x] not in T:
                return False
    return True


def test_verifier_agrees_with_independent_path():
    rng = random.Random(7)
    from transversal.oracle import exact_transversal_embed

    for seed in range(25):
        gc = random_gc(7, 6, rng.uniform(0.3, 1.0), seed)
        H = PatternGraph(4, [(0, 1), (1, 2), (2, 3)])
        res = exact_transversal_embed(gc, H)
        if res.feasible:
            emb = res.embedding
            assert verify_transversal_embedding(gc, H, emb).ok == naive_verify(gc, H, emb)
            assert naive_verify(gc, H, emb)
        # scrambled embeddings must agree too
        emb_bad = TransversalEmbedding(
            tau={0: 0, 1: 1, 2: 2, 3: 3},
            sigma={(0, 1): 0, (1, 2): 1, (2, 3): 2},
        )
        assert (
            verify_transversal_embedding(gc, H, emb_bad).ok
            == naive_verify(gc, H, emb_bad)
        )


# ---------------------------------------------------------------------------
# separability


def test_disjoint_cycles_certified_with_empty_separator():
    edges = []
    for k in range(10):
        b = 4 * k
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b)]
    H = SimpleGraph(40, edges)
    cert = separability_certificate(H, 0.2)
    assert isinstance(cert, SeparabilityCertificate)
    assert cert.separator == ()
    assert all(len(c) <= 8 for c in cert.components)


def test_path_certificate_cuts():
    H = SimpleGraph(100, [(i, i + 1) for i in range(99)])
    cert = separability_certificate(H, 0.1)
    assert isinstance(cert, SeparabilityCertificate)
    assert len(cert.separator) <= 10
    # independent component scan
    sep = set(cert.separator)
    seen = set()
    for comp in cert.components:
        assert len(comp) <= 10
        assert not set(comp) & sep
        seen.update(comp)
    assert seen | sep == set(range(100))


def test_complete_graph_not_certified():
    H = SimpleGraph(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])
    assert isinstance(separability_certificate(H, 0.2), NotCertified)


def test_supplied_separator_validated():
    H = SimpleGraph(10, [(i, i + 1) for i in range(9)])
    good = separability_certificate(H, 0.3, supplied_separator=[3, 6])
    assert isinstance(good, SeparabilityCertificate)
    bad = separability_certificate(H, 0.3, supplied_separator=[])
    assert isinstance(bad, NotCertified)


# ---------------------------------------------------------------------------
# induced subgraphs, against the per-stage copies the primitive replaced


def _filtered_edges(H, vertices):
    return [(u, v) for (u, v) in H.edges() if u in vertices and v in vertices]


def _components_within(H, active):
    seen: set[int] = set()
    comps = []
    for s in sorted(active):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in H.neighbours(v):
                if w in active and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _bfs_order_within(H, vertices):
    order: list[int] = []
    seen: set[int] = set()
    for s in sorted(vertices):
        if s in seen:
            continue
        queue = [s]
        seen.add(s)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(H.neighbours(v)):
                if w in vertices and w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


def _bfs_ordering(H):
    order, seen = [], [False] * H.n
    for s in range(H.n):
        if seen[s]:
            continue
        queue = [s]
        seen[s] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(H.neighbours(v)):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order


def _induced_case(seed):
    """A seeded graph on 0-40 vertices whose edges avoid a random tail of
    isolated vertices, and vertex subsets: empty, full, random, and random
    plus every isolated vertex."""
    rng = random.Random(seed)
    n = seed % 41
    p = rng.choice([0.05, 0.15, 0.4, 0.8])
    m = rng.randint(0, n)
    H = SimpleGraph(n, [e for e in itertools.combinations(range(m), 2) if rng.random() < p])
    isolated = {v for v in range(n) if H.degree(v) == 0}
    half = {v for v in range(n) if rng.random() < 0.5}
    return H, [set(), set(range(n)), half, half | isolated]


@pytest.mark.parametrize("seed", range(0, 82, 3))
def test_edges_within_is_the_filtered_edge_list(seed):
    H, subsets = _induced_case(seed)
    for S in subsets:
        want = _filtered_edges(H, S)
        assert H.edges_within(S) == want
        assert H.edges_within(sorted(S, reverse=True)) == want
    assert H.edges_within(range(H.n)) == list(H.edges())


@pytest.mark.parametrize("seed", range(1, 82, 3))
def test_components_of_a_vertex_set_match_the_component_scan(seed):
    H, subsets = _induced_case(seed)
    for S in subsets:
        assert H.components(S) == _components_within(H, S)


@pytest.mark.parametrize("seed", range(2, 82, 3))
def test_bfs_order_matches_both_former_orders(seed):
    H, subsets = _induced_case(seed)
    for S in subsets:
        assert core._bfs_order(H, S) == _bfs_order_within(H, S)
    assert core._bfs_order(H, range(H.n)) == _bfs_ordering(H)


# ---------------------------------------------------------------------------
# json round trips


def test_json_round_trips():
    gc = random_gc(6, 3, 0.5, 3)
    assert collection_from_json(collection_to_json(gc)) == gc
    H = PatternGraph(4, [(0, 1), (2, 3)], phi=[0, 1, 0, 1], targets={1: [5, 6]})
    H2 = pattern_from_json(pattern_to_json(H))
    assert H2.edges() == H.edges() and H2.phi == H.phi and H2.targets == H.targets
    emb = TransversalEmbedding(tau={0: 3, 1: 4}, sigma={(0, 1): 2})
    back = embedding_from_json(embedding_to_json(emb))
    assert back.tau == emb.tau and back.sigma == emb.sigma


def test_bipartition_invariant_enforced():
    with pytest.raises(ValueError):
        GraphCollection(
            4, 1, {0: [(0, 1)]}, bipartition={0: ([0, 1], [2, 3])}
        )
    gc = GraphCollection(4, 1, {0: [(0, 2)]}, bipartition={0: ([0, 1], [2, 3])})
    assert gc.bipartition is not None


# ---------------------------------------------------------------------------
# JSON loaders on malformed documents

_KEYS = st.sampled_from(["n", "colours", "edges", "bipartition", "parts", "phi",
                         "targets", "tau", "sigma", "0", "1", "0,1", "1,2", "x"])
# numbers stay small: a large integer n is a valid request, and it allocates
# n x |C| adjacency cells before anything else is checked
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 9), st.floats(-3, 12),
                    st.sampled_from([float("nan"), float("inf"), "", "1", "0,1", "a"]))
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_KEYS, inner, max_size=5)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(_DOCS, st.dictionaries(_KEYS, _DOCS, max_size=5)))
def test_json_loaders_return_or_raise_value_or_key_error(doc):
    for load in (collection_from_json, pattern_from_json, embedding_from_json,
                 threegraph_from_json):
        try:
            load(doc)
        except (ValueError, KeyError):
            pass


@pytest.mark.parametrize("n", [3.7, 3.0, True, "3", None, [3]])
def test_json_loaders_take_n_only_as_a_json_integer(n):
    # {"n": 3.7} used to become n=3; a float such as 1e9 used to size the
    # adjacency before any other check
    docs = {
        collection_from_json: {"n": n, "colours": [0], "edges": {}},
        pattern_from_json: {"n": n, "edges": []},
        threegraph_from_json: {"n": n, "edges": []},
    }
    for load, doc in docs.items():
        with pytest.raises(ValueError, match="JSON integer"):
            load(doc)
        assert load({**doc, "n": 3}).n == 3
