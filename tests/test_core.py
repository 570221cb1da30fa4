import functools
import itertools
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    verify_expansion,
    verify_transversal_embedding,
)
from transversal.embed import expand_embed_3graph, quasi_embed


def random_gc(n, k, density, seed):
    rng = random.Random(seed)
    edges = {
        c: [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        for c in range(k)
    }
    return GraphCollection(n, k, edges)


# ---------------------------------------------------------------------------
# pick_bit against rng.choice over the listed bits


@pytest.mark.parametrize("seed", range(20))
def test_pick_bit_is_rng_choice_over_the_bits(seed):
    masks = random.Random(seed)
    ours, ref = random.Random(seed), random.Random(seed)
    for mask in (
        1 << masks.randrange(200),  # one bit, at times above 64
        core.mask_of(masks.sample(range(64), 20)),
        core.mask_of(masks.sample(range(300), 20)),  # most bits above 64
        masks.getrandbits(200) | 1 << 199,
    ):
        for _ in range(5):
            assert core.pick_bit(ours, mask) == ref.choice(list(core.bits_of(mask)))
            assert ours.getstate() == ref.getstate()


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


def test_from_three_graph_checks_its_sides():
    tg = ThreeGraph(4, [(0, 1, 2)])
    with pytest.raises(ValueError, match="^v_side and c_side overlap$"):
        from_three_graph(tg, [0, 1, 2], [2, 3])
    with pytest.raises(ValueError, match="^v_side and c_side must partition the vertex set$"):
        from_three_graph(tg, [0, 1], [2])


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
        if len(t) != 3:
            raise ValueError(f"3-edge {e} has {len(t)} vertices, not 3")
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
    assert g.degrees() == [sum(1 for t in ref if v in t) for v in range(n)]
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


@pytest.mark.parametrize("seed", range(37))
def test_link_collection_matches_the_triple_scan(seed):
    rng = random.Random(seed)
    if seed < 25:
        n = rng.randint(4, 40)
        density = rng.random()
        g = ThreeGraph(n, [t for t in itertools.combinations(range(n), 3) if rng.random() < density])
        draw = rng.sample(range(n), rng.randint(2, n))
        k = rng.randint(1, len(draw) - 1)
    else:
        # masks of several words, n not a multiple of 8, rows wider than one
        # word, and (every third seed) an empty colour side
        n = rng.choice([65, 71, 97, 130, 133])
        g = ThreeGraph(n, [rng.sample(range(n), 3) for _ in range(rng.randint(n, 20 * n))])
        draw = rng.sample(range(n), n)
        k = n if seed % 3 == 0 else rng.randint(n // 2, n - 1)
    v_side, c_side = draw[:k], draw[k:]
    if seed % 2:
        v_side, c_side = sorted(v_side), sorted(c_side)
    gc = g.link_collection(v_side, c_side)
    ref = _scan_link_collection(g, v_side, c_side)
    assert gc == ref
    assert [gc.edge_count(c) for c in gc.colours] == [ref.edge_count(c) for c in ref.colours]


def test_link_collection_memory_is_bounded_by_its_chunks():
    # unpacking all 100 x 100 pair masks at once would take 200 MB at this n
    rng = random.Random(3)
    n = 20_000
    sides = rng.sample(range(n), 200)
    g = ThreeGraph(n, [rng.sample(sides, 3) for _ in range(3000)]
                   + [rng.sample(range(n), 3) for _ in range(3000)])
    tracemalloc.start()
    try:
        gc = g.link_collection(sides[:100], sides[100:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gc == _scan_link_collection(g, sides[:100], sides[100:])
    assert peak < 8 << 20, peak


def test_threegraph_footprint_is_linear_in_edges():
    # a dense n x n pair table would take about 72 MB at this n
    tracemalloc.start()
    try:
        g = ThreeGraph(3000, [(0, 1, 2)])
        assert g.has(2, 0, 1) and g.degrees()[2999] == 0 and g.edges == {(0, 1, 2)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------------------
# GraphCollection.degree_reaches, which stops summing at the threshold,
# against the full sum of degree_into


@pytest.mark.parametrize("n", [1, 2, 9, 64, 65, 130])
def test_degree_reaches_is_degree_into_at_least_thr(n):
    rng = random.Random(n)
    k = rng.randint(1, 12)
    gc = random_gc(n, k, rng.uniform(0.1, 0.9), n)
    for trial in range(40):
        v = rng.randrange(n)
        colours = rng.sample(range(k), rng.randint(0, k))  # unsorted, maybe empty
        mask = [0, (1 << n) - 1, rng.getrandbits(n)][trial % 3]
        full = gc.degree_into(v, mask, colours)
        for thr in (-1, 0, 0.5, full - 1, full - 0.5, full, full + 0.5, full + 1):
            assert gc.degree_reaches(v, mask, colours, thr) == (full >= thr), (trial, thr)
        # a generator of colours is read only up to the colour that decides
        read = []
        assert gc.degree_reaches(v, mask, (read.append(c) or c for c in colours), 0)
        assert read == colours[:1]


# ---------------------------------------------------------------------------
# GraphCollection.degree_screen (packed colour rows) against degree_into, and
# colour_screen against a per-colour count


def _screen_reference(gc, cands, mask, colours, thr):
    return core.mask_of(v for v in core.bits_of(cands) if gc.degree_into(v, mask, colours) >= thr)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 9, 31, 63, 64, 65, 71, 100, 127, 130])
def test_degree_screen_keeps_what_degree_into_keeps(n):
    rng = random.Random(n)
    k = rng.randint(1, 9)
    warm = random_gc(n, k, rng.uniform(0.1, 0.9), n)
    rows = [[warm.adj(c, v) for v in range(n)] for c in warm.colours]
    full = (1 << n) - 1
    for trial in range(30):
        colours = rng.sample(range(k), rng.randint(0, k))  # unsorted, maybe empty
        # empty, full, random, and random with bits above n (cut off)
        mask = [0, full, rng.getrandbits(n), rng.getrandbits(n + 70)][trial % 4]
        cands = full if trial % 3 == 0 else rng.getrandbits(n)
        degrees = sorted({warm.degree_into(v, mask, colours) for v in range(n)})
        # a threshold equal to a degree keeps that degree, one just above drops it
        some = rng.sample(degrees, min(3, len(degrees)))
        for thr in {-1, 0, degrees[-1] + 1, *some, *(x + 0.5 for x in some)}:
            want = _screen_reference(warm, cands, mask, colours, thr)
            cold = GraphCollection.from_rows(n, rows)
            word = cold.colour_word(colours)
            assert cold.degree_screen(cands, mask, word, thr) == want, (trial, thr)
            assert set(cold._row_cache) == set(core.bits_of(cands))
            assert warm.degree_screen(cands, mask, word, thr) == want, (trial, thr)
    # the warm rows are the cold ones: one n-bit field per colour
    for v, row in warm._row_cache.items():
        assert row == sum(rows[c][v] << c * n for c in range(k))


@pytest.mark.parametrize("n", [1, 2, 9, 64, 65, 130])
def test_colour_screen_keeps_the_colours_with_enough_neighbours(n):
    rng = random.Random(n)
    k = rng.randint(1, 40)
    gc = random_gc(n, k, rng.uniform(0.1, 0.9), n)
    for trial in range(40):
        v, colours = rng.randrange(n), rng.getrandbits(k)
        mask = [0, (1 << n) - 1, rng.getrandbits(n)][trial % 3]
        for thr in (-1, 0, 0.5, rng.randint(0, n), n + 1):
            want = core.mask_of(c for c in core.bits_of(colours)
                                if (gc.adj(c, v) & mask).bit_count() >= thr)
            assert gc.colour_screen(v, colours, mask, thr) == want, (trial, thr)


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
            t = tuple(t)
            raise ValueError(f"3-edge {t} has {len(t)} vertices, not 3") from None
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


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 127, 128, 129, 200])
def test_masks_of_words_matches_from_bytes(n):
    rng = random.Random(n)
    top = 1 << n - 1 if n else 0
    masks = [0, (1 << n) - 1, top, 0] + [rng.getrandbits(n) | top for _ in range(9)]
    size = 8 * ((n + 63) // 64)  # bytes per mask, in whole words
    raw = b"".join(m.to_bytes(size, "little") for m in masks)
    # the reference: one int.from_bytes per mask
    ref = [int.from_bytes(raw[i * size : i * size + size], "little") for i in range(len(masks))]
    assert ref == masks
    words = np.frombuffer(raw, "<u8").reshape(len(masks), size // 8)
    for shaped in (words, words.reshape(1, len(masks), -1), words.astype(">u8")):
        out = core.masks_of_words(shaped)
        assert out == ref and {type(m) for m in out} == {int}
    assert core.masks_of_words(words[:0]) == []


def _sort_calls(monkeypatch) -> list:
    """The list of the sort route's ``_pair_words`` calls (one per chunk)."""
    calls = []
    sort = core._pair_words
    monkeypatch.setattr(core, "_pair_words", lambda *a: calls.append(a) or sort(*a))
    return calls


def _on_each_route(monkeypatch):
    """Yields the name of each ThreeGraph build route, with ``_TABLE_CELLS``
    and ``_TABLE_FILL`` set so that every n up to 200 takes it (the table
    route from one row up), and the list of the sort route's ``_pair_words``
    calls, emptied for each route."""
    calls = _sort_calls(monkeypatch)
    for name, cells in (("sort", 0), ("table", 200**3 + 1)):
        monkeypatch.setattr(core, "_TABLE_CELLS", cells)
        monkeypatch.setattr(core, "_TABLE_FILL", cells)
        calls.clear()
        yield name, calls


@pytest.mark.parametrize("chunk", [None, 1, 5])  # None: the module's chunk size
@pytest.mark.parametrize("n", [3, 63, 64, 65, 128, 129, 200])
def test_bulk_build_matches_the_per_triple_loop(n, chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(core, "_CHUNK_ROWS", chunk)
    for route, calls in _on_each_route(monkeypatch):
        rng = random.Random(f"{n}/{chunk}")
        for m in (0, 1, 2, rng.randint(3, 4 * n)):
            # random vertex order within rows, about one row in five repeated
            rows = _mixed_rows(rng, _random_triples(rng, n, m))
            calls.clear()
            g = ThreeGraph(n, rows)
            assert bool(calls) == (route == "sort" and m > 0)
            assert (g._pairs, g.e) == _per_triple_build(n, rows)
            assert list(g.pair_masks()) == sorted(g._pairs.items())  # key order on both routes
            assert g == ThreeGraph(n, iter(rows[::-1]))
            assert g == ThreeGraph(n, np.array(rows, np.int64).reshape(-1, 3))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_build_below_three_vertices(n, monkeypatch):
    for _ in _on_each_route(monkeypatch):
        for rows in ([], np.zeros((0, 3), np.int64)):
            g = ThreeGraph(n, rows)
            assert (g._pairs, g.e, g.edges, g.degrees()) == ({}, 0, frozenset(), [0] * n)
        with pytest.raises(ValueError) as ref:
            _per_triple_build(n, [(0, 1, 2)])
        with pytest.raises(ValueError) as new:
            ThreeGraph(n, [(0, 1, 2)])
        assert str(new.value) == str(ref.value) == f"3-edge (0, 1, 2) out of range for n={n}"


@pytest.mark.parametrize("dtype", ["int8", "int16", "int32", "int64",
                                   "uint8", "uint16", "uint32", "uint64"])
def test_build_from_any_integer_array(dtype, monkeypatch):
    rows = [(0, 1, 2), (4, 3, 1), (2, 1, 0), (5, 6, 0)]
    for _ in _on_each_route(monkeypatch):
        g = ThreeGraph(7, np.array(rows, dtype))
        assert (g._pairs, g.e) == _per_triple_build(7, rows)
        bad = rows + [(1, 2, 9)]
        with pytest.raises(ValueError, match=r"^3-edge \(1, 2, 9\) out of range for n=7$"):
            ThreeGraph(7, np.array(bad, dtype))


@pytest.mark.parametrize("big", [1 << 63, (1 << 64) - 1])
def test_uint64_vertex_past_int64_is_out_of_range(big, monkeypatch):
    # cast to int64, it wraps negative; the message names the value itself
    rows = [(0, 1, 2), (1, 2, big)]
    for _ in _on_each_route(monkeypatch):
        with pytest.raises(ValueError) as ref:
            ThreeGraph(7, rows)
        with pytest.raises(ValueError) as new:
            ThreeGraph(7, np.array(rows, np.uint64))
        assert str(new.value) == str(ref.value) == f"3-edge (1, 2, {big}) out of range for n=7"


def test_bool_array_is_refused_as_a_list_of_bools(monkeypatch):
    rows = [[False, True, True]]
    for _ in _on_each_route(monkeypatch):
        with pytest.raises(ValueError) as ref:
            ThreeGraph(3, rows)
        with pytest.raises(ValueError) as new:
            ThreeGraph(3, np.array(rows, bool))
        assert str(new.value) == str(ref.value) == \
            "3-edge (False, True, True) has a vertex that is not an integer"


def test_bulk_build_over_several_chunks(monkeypatch):
    rng = random.Random(1)
    rows = _mixed_rows(rng, _random_triples(rng, 200, (5 * core._CHUNK_ROWS) // 2))
    assert len(rows) > 2 * core._CHUNK_ROWS
    chunks = -(-len(rows) // core._CHUNK_ROWS)
    for route, calls in _on_each_route(monkeypatch):
        g = ThreeGraph(200, rows)
        assert len(calls) == (chunks if route == "sort" else 0)
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
    for _ in _on_each_route(monkeypatch):
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


def test_dense_build_peak_is_bounded_by_the_chunk(monkeypatch):
    # a dense n = 90 host like the expand-cli benchmark's; built in one chunk,
    # the numpy temporaries of its ~70k rows peak at about 12 MB
    calls = _sort_calls(monkeypatch)
    rng = random.Random(0)
    rows = [list(t) for t in itertools.combinations(range(90), 3) if rng.random() < 0.6]
    tracemalloc.start()
    try:
        g = ThreeGraph(90, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.e == len(rows) > 70_000 and calls == []  # built in the table
    assert peak < 5 << 20, peak


def test_table_route_peak_is_the_table(monkeypatch):
    # the largest host built in a table, then a sparse host of that size and
    # the smallest host of one row sorted instead
    calls = _sort_calls(monkeypatch)
    n = max(k for k in range(1000) if k**3 < core._TABLE_CELLS)
    table = n * n * ((n + 63) & ~63)  # bool cells, rows padded to whole words
    fill = -(-(n**3) // core._TABLE_FILL)  # the fewest rows that take the table
    first = list(itertools.islice(itertools.combinations(range(n - 1), 2), fill))
    for size, k, bound in ((n, fill, table + (1 << 20)), (n, fill - 1, 1 << 21),
                           (n, 10, 1 << 18), (n + 1, 1, 1 << 20)):
        rows = [(size - 1, a, b) for a, b in first[:k]]
        calls.clear()
        tracemalloc.start()
        try:
            g = ThreeGraph(size, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bool(calls) == (k < fill or size > n), (size, k)
        assert g.e == k and g.has(first[0][0], size - 1, first[0][1])
        assert peak < bound, (size, k, peak)


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


def _triangle_report(mutate):
    gc, H, emb = rainbow_triangle_fixture()
    tau, sigma = dict(emb.tau), dict(emb.sigma)
    mutate(tau, sigma)
    return verify_transversal_embedding(gc, H, TransversalEmbedding(tau=tau, sigma=sigma))


def _spare_colour_report(mutate):
    # the rainbow triangle with a fourth colour that holds only the pair 12
    gc = GraphCollection(3, 4, {0: [(0, 1)], 1: [(1, 2)], 2: [(0, 2)], 3: [(1, 2)]})
    _, H, emb = rainbow_triangle_fixture()
    tau, sigma = dict(emb.tau), dict(emb.sigma)
    mutate(tau, sigma)
    return verify_transversal_embedding(gc, H, TransversalEmbedding(tau=tau, sigma=sigma))


def _marked_report(mutate):
    # every pair in every colour, so only the target set of vertex 0 can fail
    gc = GraphCollection(3, 3, {c: [(0, 1), (1, 2), (0, 2)] for c in range(3)})
    H = PatternGraph(3, [(0, 1), (1, 2), (0, 2)], targets={0: [0]})
    tau, sigma = {0: 0, 1: 1, 2: 2}, {(0, 1): 0, (1, 2): 1, (0, 2): 2}
    mutate(tau, sigma)
    return verify_transversal_embedding(gc, H, TransversalEmbedding(tau=tau, sigma=sigma))


def _expansion_report(mutate):
    # the edge 01 of H expands to the host triple {0, 1, 2}
    vertex_images, edge_images = {0: 0, 1: 1}, {(0, 1): 2}
    mutate(vertex_images, edge_images)
    return core.verify_expansion(ThreeGraph(3, [(0, 1, 2)]), SimpleGraph(2, [(0, 1)]),
                                 vertex_images, edge_images)


# one row per rejection: a mutation of a verified embedding and the exact
# violations it must produce
VERIFIER_MUTATIONS = [
    ("tau misses a vertex, whose edges are skipped", _triangle_report,
     lambda tau, sigma: tau.pop(2), ("tau domain is not V(H): [0, 1]",)),
    ("tau maps a vertex outside V(H)", _triangle_report,
     lambda tau, sigma: tau.update({3: 0}),
     ("tau domain is not V(H): [0, 1, 2, 3]", "tau is not injective")),
    ("sigma misses an edge, which is skipped", _triangle_report,
     lambda tau, sigma: sigma.pop((0, 2)), ("sigma domain is not E(H)",)),
    ("tau is not injective", _triangle_report, lambda tau, sigma: tau.update({2: 1}),
     ("tau is not injective",
      "pattern edge (0,2) maps to (0,1) absent from colour 2",
      "pattern edge (1,2) maps to (1,1) absent from colour 1")),
    ("sigma image out of range", _triangle_report,
     lambda tau, sigma: sigma.update({(0, 2): 3}),
     ("sigma image 3 outside colour range",
      "pattern edge (0,2) maps to (0,2) absent from colour 3")),
    ("an edge recoloured to a colour that lacks it", _spare_colour_report,
     lambda tau, sigma: sigma.update({(0, 1): 3}),
     ("pattern edge (0,1) maps to (0,1) absent from colour 3",)),
    ("two sigma images merged", _triangle_report,
     lambda tau, sigma: sigma.update({(0, 1): 1}),
     ("sigma is not injective", "pattern edge (0,1) maps to (0,1) absent from colour 1")),
    ("a marked vertex moved outside its target set", _marked_report,
     lambda tau, sigma: tau.update({0: 1, 1: 0}),
     ("marked vertex 0 embedded at 1 outside its target set",)),
    ("an edge key reversed, whose edge is skipped", _triangle_report,
     lambda tau, sigma: sigma.update({(1, 0): sigma.pop((0, 1))}),
     ("sigma domain is not E(H)",)),
    ("expansion edge key reversed", _expansion_report,
     lambda vertex_images, edge_images: edge_images.update({(1, 0): edge_images.pop((0, 1))}),
     ("the images do not cover the pattern",)),
    ("expansion images miss an edge", _expansion_report,
     lambda vertex_images, edge_images: edge_images.clear(),
     ("the images do not cover the pattern",)),
    ("expansion images miss a vertex", _expansion_report,
     lambda vertex_images, edge_images: vertex_images.pop(1),
     ("the images do not cover the pattern",
      "expansion triple of edge (0,1) is missing from the host")),
]


@pytest.mark.parametrize("name, report, mutate, want", VERIFIER_MUTATIONS,
                         ids=[row[0] for row in VERIFIER_MUTATIONS])
def test_each_verifier_mutation_gives_its_violation(name, report, mutate, want):
    assert report(lambda *maps: None).ok
    rep = report(mutate)
    assert not rep.ok and rep.violations == want


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


def _drop_tau_key(draw, gc, H, tau, sigma):
    tau.pop(draw(st.sampled_from(sorted(tau))))


def _add_tau_key(draw, gc, H, tau, sigma):
    tau[H.n] = draw(st.integers(0, gc.n - 1))


def _merge_images(draw, gc, H, tau, sigma):
    u, v = draw(st.lists(st.sampled_from(sorted(tau)), min_size=2, max_size=2, unique=True))
    tau[u] = tau[v]


def _recolour_edge(draw, gc, H, tau, sigma):
    # up to one past the last colour, so the range check is reached too
    sigma[draw(st.sampled_from(sorted(sigma)))] = draw(st.integers(0, gc.n_colours))


def _merge_colours(draw, gc, H, tau, sigma):
    e, f = draw(st.lists(st.sampled_from(sorted(sigma)), min_size=2, max_size=2, unique=True))
    sigma[e] = sigma[f]


def _reverse_edge_key(draw, gc, H, tau, sigma):
    u, v = draw(st.sampled_from(sorted(sigma)))
    sigma[(v, u)] = sigma.pop((u, v))


def _move_marked_vertex(draw, gc, H, tau, sigma):
    tau[0] = draw(st.integers(0, gc.n - 1))


def _swap_marked_vertex(draw, gc, H, tau, sigma):
    # keeps tau injective: in a spanning embedding, a move collides
    v = draw(st.sampled_from(sorted(tau)))
    tau[0], tau[v] = tau[v], tau[0]


MUTATIONS = [_drop_tau_key, _add_tau_key, _merge_images, _recolour_edge, _merge_colours,
             _reverse_edge_key, _move_marked_vertex, _swap_marked_vertex]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 50), density=st.sampled_from([0.4, 0.7, 1.0]), marked=st.sets(
    st.integers(0, 6), min_size=2), mutate=st.sampled_from(MUTATIONS), data=st.data())
def test_verifier_agrees_with_the_naive_check_on_a_mutated_oracle_embedding(
        seed, density, marked, mutate, data):
    # one generic mutation of a verified embedding: the verifier and the
    # independent re-implementation must give the same verdict
    from transversal.oracle import exact_transversal_embed

    gc = random_gc(7, 6, density, seed)
    H = PatternGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], targets={0: marked})
    res = exact_transversal_embed(gc, H)
    assume(res.feasible)
    assert verify_transversal_embedding(gc, H, res.embedding).ok
    assert naive_verify(gc, H, res.embedding)
    tau, sigma = dict(res.embedding.tau), dict(res.embedding.sigma)
    mutate(data.draw, gc, H, tau, sigma)
    emb = TransversalEmbedding(tau=tau, sigma=sigma)
    assert verify_transversal_embedding(gc, H, emb).ok == naive_verify(gc, H, emb)


# _quasi_instance seeds (tests/test_embed.py) whose successes take each
# path, as QUASI_REPLAY pins them (the main path's with its dense side
# embedded by lemma_blowup: lemma_dense_side), and _expand_instance seeds whose
# expansions succeed (a path, a matching with isolated vertices, a cycle)
QUASI_PATH_SEEDS = {"main": 0, "one-shot": 1, "ladder-degenerate": 2}
EXPAND_SEEDS = (1, 2, 4)


@functools.lru_cache(maxsize=None)
def _quasi_success(path):
    from test_embed import _quasi_instance, _quasi_path, lemma_dense_side

    seed = QUASI_PATH_SEEDS[path]
    gc, H, plan = _quasi_instance(seed)
    with pytest.MonkeyPatch.context() as mp:
        if path == "main":
            lemma_dense_side(mp)
        out = quasi_embed(gc, H, plan, seed=seed)
    assert _quasi_path(out) == path
    return gc, H, out.embedding


@functools.lru_cache(maxsize=None)
def _expansion(seed):
    from test_embed import PLAN, _expand_instance

    g, H = _expand_instance(seed)
    out = expand_embed_3graph(g, H, PLAN, seed=seed)
    assert out.ok
    return g, H, out.vertex_images, out.edge_images


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(sorted(QUASI_PATH_SEEDS)), marked=st.sets(st.integers(0, 23)),
       mutate=st.sampled_from(MUTATIONS), data=st.data())
def test_verifier_agrees_with_the_naive_check_on_a_mutated_pipeline_embedding(
        path, marked, mutate, data):
    # the same mutations of a quasi_embed success; vertex 0 is marked with
    # its own host and the drawn ones, so moving it can break the target set
    gc, H, emb = _quasi_success(path)
    H = PatternGraph(H.n, H.edges(), targets={0: marked | {emb.tau[0]}})
    assert verify_transversal_embedding(gc, H, emb).ok
    assert naive_verify(gc, H, emb)
    tau, sigma = dict(emb.tau), dict(emb.sigma)
    mutate(data.draw, gc, H, tau, sigma)
    emb = TransversalEmbedding(tau=tau, sigma=sigma)
    assert verify_transversal_embedding(gc, H, emb).ok == naive_verify(gc, H, emb)


def naive_expansion_check(g, H, vertex_images, edge_images):
    """Independent re-implementation of the expansion check, on g's triples."""
    if sorted(vertex_images) != list(range(H.n)) or set(edge_images) != set(H.edges()):
        return False
    images = list(vertex_images.values()) + list(edge_images.values())
    if len(set(images)) != len(images) or not all(0 <= w < g.n for w in images):
        return False
    triples = g.edges
    return all(tuple(sorted((vertex_images[u], vertex_images[v], c))) in triples
               for (u, v), c in edge_images.items())


@settings(max_examples=100, deadline=None)
@given(seed=st.sampled_from(EXPAND_SEEDS), mutate=st.sampled_from(MUTATIONS), data=st.data())
def test_expansion_check_agrees_with_the_naive_check_on_a_mutated_expansion(
        seed, mutate, data):
    # an edge's image is a host vertex: the mutations draw vertex and edge
    # images from V(g), up to one past its last vertex
    g, H, vertex_images, edge_images = _expansion(seed)
    assert verify_expansion(g, H, vertex_images, edge_images).ok
    assert naive_expansion_check(g, H, vertex_images, edge_images)
    tau, sigma = dict(vertex_images), dict(edge_images)
    mutate(data.draw, SimpleNamespace(n=g.n, n_colours=g.n), H, tau, sigma)
    assert verify_expansion(g, H, tau, sigma).ok == naive_expansion_check(g, H, tau, sigma)


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


def _cycle(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def _ladder(m):
    return SimpleGraph(2 * m, [(i, i + 1) for i in range(m - 1)]
                       + [(m + i, m + i + 1) for i in range(m - 1)]
                       + [(i, m + i) for i in range(m)])


def _tree(n, seed):
    rng = random.Random(seed)
    return SimpleGraph(n, [(rng.randrange(i), i) for i in range(1, n)])


SEPARATOR_FAMILIES = {
    "matching": [SimpleGraph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)]) for k in (1, 5, 30)],
    "path": [SimpleGraph(n, [(i, i + 1) for i in range(n - 1)]) for n in (2, 10, 40, 100)],
    "cycle": [_cycle(n) for n in (3, 10, 20, 30, 60, 120)],
    "ladder": [_ladder(m) for m in (3, 10, 30, 60)],
    "tree": [_tree(n, seed) for n in (10, 30, 80) for seed in (1, 2)],
    "complete": [SimpleGraph(n, list(itertools.combinations(range(n), 2))) for n in (1, 4, 10)],
}
SEPARATOR_MUS = (0.05, 0.1, 0.2, 0.3, 0.5, 1.0)


@pytest.mark.parametrize("family", sorted(SEPARATOR_FAMILIES))
def test_separator_bound_never_fires_where_the_search_certifies(monkeypatch, family):
    fired = 0
    for H in SEPARATOR_FAMILIES[family]:
        for mu in SEPARATOR_MUS:
            got = separability_certificate(H, mu)
            with monkeypatch.context() as m:
                m.setattr(core, "_separator_lower_bound", lambda H, limit, comps: 0)
                searched = separability_certificate(H, mu)
            limit = int(mu * H.n)
            need = core._separator_lower_bound(
                H, limit, core._components_masks(H._adj, (1 << H.n) - 1))
            if need > limit:
                fired += 1
                assert not searched, (H, mu)
                assert isinstance(got, NotCertified) and got.reason.startswith("proof:")
            else:
                assert (got == searched) if searched else not got, (H, mu)
            if searched:
                assert len(searched.separator) >= need, (H, mu)
    assert fired  # every family has a size and a mu that the bound decides


@pytest.mark.parametrize("n, outcome", [(20, "proof"), (30, "proof"), (60, "searched"),
                                        (120, "certified")])
def test_separator_bound_decides_the_short_cycles_at_mu_one_tenth(n, outcome):
    # a cycle needs v / (1 + mu v) separator vertices, more than mu v for every
    # v below 90; the bound asks v / (1 + 2 mu v), which decides v = 20 and 30
    cert = separability_certificate(_cycle(n), 0.1)
    if outcome == "certified":
        assert cert
    else:
        assert cert.reason.startswith("proof:") == (outcome == "proof")


def test_windows_are_built_only_when_the_greedy_peel_fails(monkeypatch):
    built = []
    real_window, real_bfs = core._window_separator, core._bfs_order
    monkeypatch.setattr(core, "_window_separator",
                        lambda *args: built.append("window") or real_window(*args))
    monkeypatch.setattr(core, "_bfs_order", lambda *args: built.append("bfs") or real_bfs(*args))
    matching = SimpleGraph(60, [(2 * i, 2 * i + 1) for i in range(30)])
    cert = separability_certificate(matching, 0.1)
    assert cert.separator == () and len(cert.components) == 30
    assert built == []
    # the greedy peel cuts a path into pieces of 10 with at most 10 cuts
    assert separability_certificate(SimpleGraph(100, [(i, i + 1) for i in range(99)]), 0.1)
    assert built == []
    # on a 10-rung ladder at mu 0.3 the peel fails, the natural order is too
    # wide for a window, and the first window along the BFS order certifies
    assert separability_certificate(_ladder(10), 0.3)
    assert built == ["window", "window", "bfs", "window"]
    # on K_10 the bound fails to decide, so every strategy runs
    built.clear()
    assert not separability_certificate(SEPARATOR_FAMILIES["complete"][-1], 0.3)
    assert built == ["window", "window", "bfs", "window", "window"]


def test_separability_scans_the_components_once_when_that_decides(monkeypatch):
    scans = []
    real = core._components_masks
    monkeypatch.setattr(core, "_components_masks",
                        lambda adj, alive: scans.append(alive) or real(adj, alive))
    # every component fits: the certificate comes from the one scan
    matching = SimpleGraph(60, [(2 * i, 2 * i + 1) for i in range(30)])
    cert = separability_certificate(matching, 0.1)
    assert cert.separator == () and len(scans) == 1
    assert cert.components == tuple((2 * i, 2 * i + 1) for i in range(30))
    # the bound's proof reads the same scan
    scans.clear()
    assert separability_certificate(_cycle(20), 0.1).reason.startswith("proof:")
    assert len(scans) == 1
    # the peel's first round reads it too: every later scan has a separator
    scans.clear()
    assert separability_certificate(SimpleGraph(100, [(i, i + 1) for i in range(99)]), 0.1)
    assert scans[0] == (1 << 100) - 1 and all(alive != scans[0] for alive in scans[1:])


def test_supplied_separator_validated():
    H = SimpleGraph(10, [(i, i + 1) for i in range(9)])
    good = separability_certificate(H, 0.3, supplied_separator=[3, 6])
    assert isinstance(good, SeparabilityCertificate)
    bad = separability_certificate(H, 0.3, supplied_separator=[])
    assert isinstance(bad, NotCertified)
    # on P6 at mu = 0.34 a separator may hold int(0.34 * 6) = 2 vertices
    P6 = SimpleGraph(6, [(i, i + 1) for i in range(5)])
    big = separability_certificate(P6, 0.34, supplied_separator=[0, 1, 2, 3])
    assert isinstance(big, NotCertified) and big.reason == "separator larger than 2"


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


def test_a_declared_bipartition_survives_the_json_round_trip():
    gc = GraphCollection(5, 2, {0: [(0, 2), (3, 1)], 1: [(4, 0)]},
                         bipartition={0: ([0, 1], [2, 3, 4]), 1: ([0], [4])})
    doc = collection_to_json(gc)
    assert doc["bipartition"] == {"0": [[0, 1], [2, 3, 4]], "1": [[0], [4]]}
    back = collection_from_json(doc)
    assert back == gc and back.bipartition == gc.bipartition
    doc["edges"]["0"].append([1, 0])  # both ends on side a
    with pytest.raises(ValueError, match=r"^edge \(0,1\) of colour 0 does not cross the declared"):
        collection_from_json(doc)
    doc["edges"]["0"].pop()
    doc["bipartition"]["1"] = [[0, 4], [4]]
    with pytest.raises(ValueError, match="^bipartition sides of colour 1 overlap$"):
        collection_from_json(doc)


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


@pytest.mark.parametrize("n", [-1, -3])
def test_json_loaders_refuse_a_negative_n(n):
    # pattern_from_json and threegraph_from_json used to build a graph with n < 0
    docs = {
        collection_from_json: {"n": n, "colours": [0], "edges": {}},
        pattern_from_json: {"n": n, "edges": []},
        threegraph_from_json: {"n": n, "edges": []},
    }
    for load, doc in docs.items():
        with pytest.raises(ValueError, match=f"n must be non-negative, not {n}"):
            load(doc)
        assert load({**doc, "n": 0}).n == 0
