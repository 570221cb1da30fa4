import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from transversal.core import (
    _COINS_NUMPY_MIN,
    GraphCollection,
    SimpleGraph,
    ThreeGraph,
    bits_of,
    mask_of,
)
from transversal.generators import GenSpec, random_collection
from transversal.regularity import (
    DensitySpec,
    EmptyPart,
    PromiseViolated,
    density,
    irregularity_witness,
    partition_collection,
    sparsify_to_superregular,
    typical_elements,
)

SPEC = DensitySpec(d=0.4, epsilon=0.3)


def complete_bipartite(a, b):
    """K_{a,b} on {0..a-1} and {a..a+b-1} as a one-colour collection."""
    return GraphCollection(a + b, 1, {0: [(u, v) for u in range(a) for v in range(a, a + b)]})


def one_colour(n, edges):
    return GraphCollection(n, 1, {0: edges})


# ---------------------------------------------------------------------------
# density


def test_density_complete_bipartite():
    g = complete_bipartite(2, 3)
    assert density(g, ([0, 1], [2, 3, 4], [0])) == 1
    assert density(g, (iter([0, 1]), iter([2, 3, 4]), iter([0]))) == 1  # parts read once


# A 3-graph is read through its link collection: colour k of
# ``link_collection(V1 + V2, C)`` is the link of C[k], with V1 + V2 renumbered from 0.


def test_density_empty_tripartite():
    link = ThreeGraph(6, []).link_collection([0, 1, 2, 3], [4, 5])
    assert density(link, ([0, 1], [2, 3], [0, 1])) == 0


def test_density_single_three_edge():
    link = ThreeGraph(4, [(0, 1, 2)]).link_collection([0, 1], [2, 3])
    assert density(link, ([0], [1], [0, 1])) == Fraction(1, 2)


def test_density_empty_part_rejected():
    with pytest.raises(EmptyPart):
        density(complete_bipartite(2, 2), ([], [2, 3], [0]))


# On a 4-vertex collection with the one edge 0-3, a negative index used to
# wrap (vertex -1 read as 3), a repeat to count on one side only, and an index
# past the end to raise IndexError.
EDGE_03 = GraphCollection(4, 1, {0: [(0, 3)]})


@pytest.mark.parametrize("call", [
    lambda: density(EDGE_03, ([-1], [0], [0])),
    lambda: density(EDGE_03, ([0], [-1], [0])),
    lambda: density(EDGE_03, ([0], [1, 1], [0])),
    lambda: density(EDGE_03, ([0, 0], [1], [0])),
    lambda: density(EDGE_03, ([0], [3], [0, 0])),
    lambda: density(EDGE_03, ([4], [0], [0])),
    lambda: density(EDGE_03, ([0], [3], [1])),
    lambda: irregularity_witness(EDGE_03, ([-1], [0], [0]), SPEC),
    lambda: sparsify_to_superregular(EDGE_03, ([0, 1], [2, 3], [-1]), None),
    lambda: sparsify_to_superregular(EDGE_03, ([0, 1], [2, 2], [0]), None),
    lambda: sparsify_to_superregular(EDGE_03, ([0, 1], [2, 4], [0]), None),
    lambda: typical_elements(EDGE_03, [0, 0], [3], SPEC, spot_check=False),
    lambda: typical_elements(EDGE_03, [7], [0], SPEC, spot_check=False),
], ids=["neg-v1", "neg-v2", "repeat-v2", "repeat-v1", "repeat-colour", "big-vertex",
        "big-colour", "witness-neg-v1", "sparsify-neg-colour", "sparsify-repeat-v2",
        "sparsify-big-vertex", "typical-repeat-v1", "typical-big-vertex"])
def test_slice_indices_are_checked(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("obj, parts", [
    (ThreeGraph(4, [(0, 1, 3)]), ([0], [1], [3])),
    (SimpleGraph(4, [(0, 3)]), ([0], [3])),
], ids=["threegraph", "simplegraph"])
def test_density_and_witness_read_only_collection_slices(obj, parts):
    with pytest.raises(TypeError):
        density(obj, parts)
    with pytest.raises(TypeError):
        irregularity_witness(obj, parts, SPEC)


# The layer builders as they were before every view went through one slice
# reader, kept as the reference the views must match.
def _ref_collection_layers(gc, A, B, CC):
    mats = np.zeros((len(CC), len(A), len(B)), dtype=np.int64)
    bpos = {v: j for j, v in enumerate(B)}
    for l, c in enumerate(CC):
        for i, u in enumerate(A):
            for v in bits_of(gc.adj(c, u) & mask_of(B)):
                mats[l, i, bpos[v]] = 1
    return mats


def _ref_threegraph_layers(g, A, B, C):
    ai = {v: i for i, v in enumerate(A)}
    bi = {v: i for i, v in enumerate(B)}
    ci = {v: i for i, v in enumerate(C)}
    mats = np.zeros((len(C), len(A), len(B)), dtype=np.int64)
    for t in g.edges:
        for x, y, z in ((t[0], t[1], t[2]), (t[0], t[2], t[1]), (t[1], t[2], t[0])):
            for (u, v) in ((x, y), (y, x)):
                if u in ai and v in bi and z in ci:
                    mats[ci[z], ai[u], bi[v]] = 1
    return mats


def _random_view(form, seed):
    """A random collection, or a 3-graph read through its link collection,
    on 3..40 vertices, a slice of unsorted disjoint parts of a random vertex
    subset, and the reference layers.  Edge probabilities start at 0, so
    some layers are empty."""
    rng = random.Random(seed)
    n = rng.randint(3, 40)
    p = rng.choice([0.0, 0.05, rng.random()])
    verts = rng.sample(range(n), rng.randint(3, n))
    cuts = sorted(rng.sample(range(1, len(verts)), 2))
    parts = [verts[a:b] for a, b in zip([0] + cuts, cuts + [len(verts)])]
    if form == "collection":
        K = rng.randint(1, 8)
        gc = GraphCollection(n, K, {
            c: [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p * (c % 3 > 0)]
            for c in range(K)
        })
        parts[2] = rng.sample(range(K), rng.randint(1, K))
        return gc, parts, _ref_collection_layers(gc, *parts)
    g = ThreeGraph(n, [t for t in itertools.combinations(range(n), 3) if rng.random() < p])
    A, B, C = parts
    link = g.link_collection(A + B, C)
    slice_ = [list(range(len(A))), list(range(len(A), len(A) + len(B))), list(range(len(C)))]
    return link, slice_, _ref_threegraph_layers(g, A, B, C)


@pytest.mark.parametrize("form", ["collection", "threegraph"])
def test_layer_view_matches_the_per_type_builders(form):
    from transversal.regularity import _slice_layers

    for seed in range(120):
        gc, parts, ref = _random_view(form, seed)
        mats = _slice_layers(gc, parts)
        assert mats.dtype == np.int64 and mats.shape == ref.shape, seed
        assert np.array_equal(mats, ref), seed


# ---------------------------------------------------------------------------
# irregularity witnesses


def test_complete_pair_has_no_witness():
    g = complete_bipartite(5, 5)
    res = irregularity_witness(g, (range(5), range(5, 10), [0]), DensitySpec(d=1, epsilon=0.1))
    assert res.witness is None and res.proof


def test_split_pair_witness_found_and_rescored():
    g = one_colour(
        8,
        [(u, v) for u in (0, 1) for v in (4, 5)]
        + [(u, v) for u in (2, 3) for v in (6, 7)],
    )
    res = irregularity_witness(g, ([0, 1, 2, 3], [4, 5, 6, 7], [0]),
                               DensitySpec(d=0.5, epsilon=0.3))
    assert res.witness is not None
    w = res.witness
    assert abs(w.deviation) >= Fraction(3, 10)
    # re-scoring by density() reproduces the recorded deviation exactly
    assert density(g, w.subsets) == w.observed
    assert w.observed - w.reference == w.deviation


def test_sampled_witness_is_genuine_and_consistent_with_exhaustive():
    g = one_colour(
        16,
        [(u, v) for u in range(4) for v in range(8, 12)]
        + [(u, v) for u in range(4, 8) for v in range(12, 16)],
    )
    spec = DensitySpec(d=0.5, epsilon=0.3)
    parts = (range(8), range(8, 16), [0])
    sampled = irregularity_witness(g, parts, spec, budget=400, seed=1, exhaustive_limit=4)
    exhaustive = irregularity_witness(g, parts, spec)
    assert exhaustive.exhaustive and not sampled.exhaustive
    if sampled.witness is not None:
        assert density(g, sampled.witness.subsets) == sampled.witness.observed
        # a sampled witness implies the exhaustive check also finds one
        assert exhaustive.witness is not None


def test_random_dense_pair_regular_at_loose_eps():
    hits = 0
    for seed in range(5):
        rng2 = random.Random(seed)
        edges = [
            (u, v)
            for u in range(12)
            for v in range(12, 24)
            if rng2.random() < 0.5
        ]
        g = one_colour(24, edges)
        res = irregularity_witness(
            g, (range(12), range(12, 24), [0]), DensitySpec(d=0.3, epsilon=0.45)
        )
        if res.witness is not None:
            assert density(g, res.witness.subsets) == res.witness.observed
            hits += 1
    assert hits <= 1  # high-probability regularity at this tolerance


# ---------------------------------------------------------------------------
# typical elements


def test_typical_elements_matches_direct_recount():
    gc = random_collection(GenSpec(n=20, n_colours=10, density=0.5, seed=11))
    V1, V2 = list(range(10)), list(range(10, 20))
    spec = DensitySpec(d=0.7, epsilon=0.2)
    te = typical_elements(gc, V1, V2, spec, spot_check=False)
    floor = spec.d - spec.epsilon
    # independent recount of the degree and colour floors
    flagged = []
    for i, (side, others) in enumerate(((V1, V2), (V2, V1))):
        for v in side:
            tot = sum(
                sum(1 for w in others if gc.has_edge(c, v, w)) for c in range(10)
            )
            flagged.append(v in te.atypical_vertices[i])
            assert flagged[-1] == (tot < floor * len(others) * 10)
    for c in range(10):
        cnt = sum(1 for u in V1 for w in V2 if gc.has_edge(c, u, w))
        flagged.append(c in te.atypical_colours)
        assert flagged[-1] == (cnt < floor * len(V1) * len(V2))
    assert any(flagged) and not all(flagged)


def test_typical_elements_complete_and_planted():
    edges = [(u, v) for u in range(5) for v in range(5, 10)]
    gc = GraphCollection(10, 4, {c: edges for c in range(4)})
    te = typical_elements(gc, range(5), range(5, 10), DensitySpec(d=0.8, epsilon=0.2))
    assert te.atypical_vertices == ((), ()) and te.atypical_colours == ()
    # plant an isolated vertex
    edges2 = [(u, v) for u in range(5) for v in range(5, 10) if u != 0]
    gc2 = GraphCollection(10, 4, {c: edges2 for c in range(4)})
    te2 = typical_elements(gc2, range(5), range(5, 10), DensitySpec(d=0.5, epsilon=0.2))
    assert 0 in te2.atypical_vertices[0]


# ---------------------------------------------------------------------------
# sparsification


def complete_tripartite():
    """The complete 3-partite 3-graph on {0,1,2}, {3,4,5}, {6,7,8} as the
    slice TRIPARTITE of its link collection: colour c is the link of 6 + c."""
    tg = ThreeGraph(9, [(a, b, c) for a in range(3) for b in range(3, 6) for c in range(6, 9)])
    return tg.link_collection(list(range(6)), [6, 7, 8])


TRIPARTITE = ([0, 1, 2], [3, 4, 5], [0, 1, 2])


def tripartite_degrees(gc):
    """The 3-graph degrees of the slice's vertices 0..5, then of its colours."""
    return gc.total_degrees()[:6] + [gc.edge_count(c) for c in range(3)]


def test_sparsify_never_adds_and_degrees_monotone():
    gc = complete_tripartite()
    out = sparsify_to_superregular(gc, TRIPARTITE, d=0.5, seed=3)
    for c in range(3):
        assert set(out.edges(c)) <= set(gc.edges(c))
    for x, y in zip(tripartite_degrees(out), tripartite_degrees(gc)):
        assert x <= y


def test_sparsify_density_and_degree_floor():
    gc = complete_tripartite()
    out = sparsify_to_superregular(gc, TRIPARTITE, d=0.5, seed=1)
    dens = out.total_edge_count() / 27
    assert 0.4 <= dens <= 0.75  # target 0.5 at desk scale, wide tolerance
    floor = 0.5 * 0.5 / 2 * 27 / 3
    assert all(x >= floor for x in tripartite_degrees(out))


def test_sparsify_identity_when_target_is_density():
    gc = complete_tripartite()
    out = sparsify_to_superregular(gc, TRIPARTITE, d=1.0, seed=5)
    assert out == gc


def test_sparsify_deterministic():
    gc = complete_tripartite()
    a = sparsify_to_superregular(gc, TRIPARTITE, 0.5, seed=9)
    b = sparsify_to_superregular(gc, TRIPARTITE, 0.5, seed=9)
    assert a == b
    c = sparsify_to_superregular(gc, TRIPARTITE, 0.5, seed=10)
    assert a != c


def test_sparsify_promise_violation_raises():
    # a graph with an isolated vertex can never meet the degree floor
    gc = ThreeGraph(9, [(0, 3, 6)]).link_collection(list(range(6)), [6, 7, 8])
    with pytest.raises(PromiseViolated):
        sparsify_to_superregular(gc, TRIPARTITE, d=0.5, seed=0, retries=3)


def test_sparsify_takes_only_a_collection_slice():
    with pytest.raises(TypeError):
        sparsify_to_superregular(ThreeGraph(9, [(0, 3, 6)]), ([0, 1, 2], [3, 4, 5], [6, 7, 8]), 0.5)
    with pytest.raises(TypeError):
        sparsify_to_superregular(SimpleGraph(6, [(u, v) for u in range(3) for v in range(3, 6)]),
                                 ([0, 1, 2], [3, 4, 5]), 0.5)


def _weighted_slice(seed, n=24, k=10):
    """A collection whose vertices are sparse (weight 0.2) or dense (1.0), so
    cell densities differ and the 0.6-of-the-mean floor of the d=None target
    binds, and a slice (V1, V2, colours) of it with unsorted parts."""
    rng = random.Random(seed)
    weight = [rng.choice([0.2, 1.0]) for _ in range(n)]
    gc = GraphCollection(n, k, {
        c: [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < weight[u] * weight[v]]
        for c in range(k)
    })
    verts = rng.sample(range(n), n)
    V1, V2 = verts[: n // 2 - 1], verts[n // 2 - 1 :]
    colours = rng.sample(range(k), k - 2)  # not sorted: the case-iv token order
    return gc, (V1, V2, colours)


# sha256 prefixes of the sorted kept (u, v, c) triples as the ThreeGraph form
# gave them before the slice form existed, so seeded replay stays bit for bit
REPLAY = {
    (0, None, 2): "955f5b668891d855",
    (0, 0.3, 2): "d41c54472b9e856d",
    (0, None, 3): "3990f2cd94d65460",
    (0, 0.3, 3): "ebca2068d7c5031f",
    (1, None, 2): "0ed7488262fb4d49",
    (1, 0.3, 2): "ae00548f627e2cdb",
    (1, None, 3): "53ec4d0697dbe105",
    (1, 0.3, 3): "3c20fa919133cecc",
    (2, None, 2): "ce02f3b00a5432b8",
    (2, 0.3, 2): "bede042d517eb04d",
    (2, None, 3): "eb8ede59622dc846",
    (2, 0.3, 3): "0d21fed26260cb59",
    (3, None, 2): "80fc91b1ebd98e1f",
    (3, 0.3, 2): "72067e61dbb596f7",
    (3, None, 3): "511fd738286fa9f6",
    (3, 0.3, 3): "2e61431f84cfaead",
    (4, None, 2): "69659f2dd5024660",
    (4, 0.3, 2): "8fa22fbe4a29ec06",
    (4, None, 3): "0ed420af19d4c3bc",
    (4, 0.3, 3): "8da2f4d75949759f",
}


@pytest.mark.parametrize("chunks", [2, 3])
@pytest.mark.parametrize("d", [None, 0.3])
@pytest.mark.parametrize("seed", range(5))
def test_sparsify_slice_keeps_the_threegraph_forms_edges(seed, d, chunks):
    gc, (V1, V2, colours) = _weighted_slice(seed)
    kw = dict(d=d, seed=seed, chunks=chunks, retries=40)
    out = sparsify_to_superregular(gc, (V1, V2, colours), **kw)
    kept = {(min(u, v), max(u, v), c) for c in range(gc.n_colours) for u, v in out.edges(c)}
    triples = sum(gc.edges_into(c, V1, mask_of(V2)) for c in colours)
    assert 0 < len(kept) < triples  # the coins really ran
    assert hashlib.sha256(repr(sorted(kept)).encode()).hexdigest()[:16] == REPLAY[(seed, d, chunks)]


def test_sparsify_slice_raises_after_its_retries(monkeypatch):
    from transversal import regularity

    gc, (V1, V2, colours) = _weighted_slice(1)
    # an isolated vertex of V1 can never meet the degree floor
    rows = [[gc.adj(c, v) & ~(1 << V1[0]) for v in range(gc.n)] for c in range(gc.n_colours)]
    for c in range(gc.n_colours):
        rows[c][V1[0]] = 0
    gc = GraphCollection.from_rows(gc.n, rows)
    calls = []
    real = regularity._sparsify_slice
    monkeypatch.setattr(regularity, "_sparsify_slice", lambda *a: calls.append(1) or real(*a))
    with pytest.raises(PromiseViolated):
        sparsify_to_superregular(gc, (V1, V2, colours), d=None, seed=0, retries=3)
    assert len(calls) == 3


def test_sparsify_slice_rejects_overlapping_parts():
    gc, (V1, V2, colours) = _weighted_slice(0)
    with pytest.raises(ValueError):
        sparsify_to_superregular(gc, (V1, V2 + V1[:1], colours), d=None)
    with pytest.raises(ValueError):
        sparsify_to_superregular(gc, (V1, V2, colours + colours[:1]), d=None)


def _per_coin_sparsify_slice(gc, parts, d, rng, chunks):
    """The slice sparsifier as it was before the array kernel: one
    ``rng.random()`` per candidate triple, in nested loops.  Kept as the
    reference the kernel must match bit for bit."""
    from transversal.core import bits_of, mask_of
    from transversal.regularity import _part_chunks, _target_density

    Vi, Vj, colours = parts
    ch_i = _part_chunks(Vi, chunks, rng)
    ch_j = _part_chunks(Vj, chunks, rng)
    ch_c = [sorted(ch) for ch in _part_chunks(list(range(len(colours))), chunks, rng)]
    masks_i = [mask_of(ch) for ch in ch_i]
    masks_j = [mask_of(ch) for ch in ch_j]
    adj = gc.adj
    cells = []  # (chunk of V_i, chunk of V_j, positions, density) in sorted cell order
    for a, b, pos in itertools.product(range(len(ch_i)), range(len(ch_j)), ch_c):
        count = sum((adj(colours[k], u) & masks_j[b]).bit_count() for k in pos for u in ch_i[a])
        if count:
            cells.append((a, b, pos, count / (len(ch_i[a]) * len(ch_j[b]) * len(pos))))
    if d is None:
        d = _target_density([dens for *_, dens in cells]) if cells else 0.0
    rows = [[0] * gc.n for _ in range(gc.n_colours)]
    for a, b, pos, dens in cells:
        if dens <= d:  # the cell is kept whole
            for c in (colours[k] for k in pos):
                for u in ch_i[a]:
                    rows[c][u] |= adj(c, u) & masks_j[b]
                for v in ch_j[b]:
                    rows[c][v] |= adj(c, v) & masks_i[a]
            continue
        p_keep = d / dens
        # coins in sorted-triple order: x = min(u, v), then y, then position
        for x in sorted(ch_i[a] + ch_j[b]):
            other = masks_j[b] if masks_i[a] >> x & 1 else masks_i[a]
            above = other >> (x + 1) << (x + 1)
            nbrs = [(colours[k], adj(colours[k], x) & above) for k in pos]
            union = 0
            for _, m in nbrs:
                union |= m
            for y in bits_of(union):
                for c, m in nbrs:
                    if m >> y & 1 and rng.random() < p_keep:
                        rows[c][x] |= 1 << y
                        rows[c][y] |= 1 << x
    degrees = [[sum(rows[c][v].bit_count() for c in colours) for v in p] for p in (Vi, Vj)]
    degrees.append([sum(rows[c][u].bit_count() for u in Vi) for c in colours])
    return rows, d, degrees


def _random_slice(seed):
    """A random collection (n 9..90, 1..12 colours, edge density 0.2..0.8)
    and a slice of it with unsorted parts and an unsorted colour subset.
    Every third seed takes V_1 of one or two vertices, so its chunks hold
    one vertex each; every third seed (offset by one) slices two colours,
    one of them empty, so with chunks >= 2 that colour's cells are empty."""
    rng = random.Random(seed)
    n, k = rng.randint(9, 90), rng.randint(2, 12)
    p = rng.uniform(0.2, 0.8)
    edges = {c: [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
             for c in range(1, k)}
    gc = GraphCollection(n, k, edges)  # colour 0 has no edge
    verts = rng.sample(range(n), n)
    cut = rng.randint(1, 2) if seed % 3 == 0 else rng.randint(1, n - 1)
    V1, V2 = verts[:cut], verts[cut:]
    if seed % 3 == 1:
        colours = rng.sample([0, rng.randrange(1, k)], 2)
    else:
        colours = rng.sample(range(1, k), rng.randint(1, k - 1))
    return gc, (V1, V2, colours), rng.choice([None, 0.3, 0.6]), rng.randint(1, 3)


@pytest.mark.parametrize("seed", range(120))
def test_sparsify_slice_kernel_matches_the_per_coin_loop(seed):
    from transversal.regularity import _sparsify_slice

    gc, parts, d, chunks = _random_slice(seed)
    ref_rng, rng = random.Random(seed), random.Random(seed)
    rows, d_used, degrees = _sparsify_slice(gc, parts, d, rng, chunks)
    ref_rows, ref_d, ref_degrees = _per_coin_sparsify_slice(gc, parts, d, ref_rng, chunks)
    assert rows == ref_rows
    assert type(d_used) is type(ref_d) and d_used == ref_d
    assert degrees == ref_degrees
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("k", [0, 1, _COINS_NUMPY_MIN - 1, _COINS_NUMPY_MIN, 10_000])
def test_coins_are_the_next_k_random_calls(k, monkeypatch):
    from transversal.core import _coins

    if k < _COINS_NUMPY_MIN:  # small draws are plain calls, with no RandomState built

        def no_random_state(*args, **kwargs):
            raise AssertionError("RandomState built for a small draw")

        monkeypatch.setattr(np.random, "RandomState", no_random_state)
    rng, ref = random.Random(k), random.Random(k)
    for r in (rng, ref):  # start mid-stream, with a cached gauss value in the state
        r.random()
        r.gauss(0.0, 1.0)
    coins = _coins(rng, k)
    assert coins.tolist() == [ref.random() for _ in range(k)]
    assert rng.getstate() == ref.getstate()
    assert rng.random() == ref.random()


def test_quasi_embed_builds_no_threegraph(monkeypatch):
    from transversal.core import PatternGraph
    from transversal.embed import SplitPlan, quasi_embed

    built = []
    real_init = ThreeGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ThreeGraph, "__init__", counting_init)
    gc = random_collection(GenSpec(n=24, n_colours=12, density=0.8, seed=3))
    H = PatternGraph(24, [(2 * i, 2 * i + 1) for i in range(12)])
    assert quasi_embed(gc, H, SplitPlan(), seed=3).ok
    assert built == []


# ---------------------------------------------------------------------------
# partition


def test_partition_identical_complete_collection():
    edges = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    gc = GraphCollection(12, 12, {c: edges for c in range(12)})
    part = partition_collection(gc, DensitySpec(d=0.5, epsilon=0.25), L0=3, seed=0)
    assert part.converged
    props = part.diagnostics["properties"]
    assert all(props.values())
    # every triple regular: reduced collection complete
    for R in part.reduced:
        assert R.e == part.L * (part.L - 1) // 2


def test_partition_two_blocks_and_energy_monotone():
    blockA, blockB = list(range(6)), list(range(6, 12))
    edges = [(u, v) for u in blockA for v in blockA if u < v] + [
        (u, v) for u in blockB for v in blockB if u < v
    ]
    gc = GraphCollection(12, 12, {c: edges for c in range(12)})
    part = partition_collection(gc, DensitySpec(d=0.4, epsilon=0.2), L0=2, seed=1)
    e = part.energy_history
    assert all(b >= a - 1e-12 for a, b in zip(e, e[1:]))
    # refinement separates the blocks
    for cl in part.v_clusters:
        assert not (set(cl) & set(blockA) and set(cl) & set(blockB))
    assert part.converged
    assert all(part.diagnostics["properties"].values())


def test_partition_structural_properties_random():
    gc = random_collection(GenSpec(n=18, n_colours=18, density=0.6, seed=4))
    spec = DensitySpec(d=0.3, epsilon=0.3)
    part = partition_collection(gc, spec, L0=3, seed=2)
    props = part.diagnostics["properties"]
    # the five Lemma-style properties hold literally on converged runs
    if part.converged:
        assert all(props.values())
    # these two hold by construction on every run
    assert props["equal_sizes"] and props["intra_cluster_exile"] and props["regular_or_empty"]
    # pruned never adds edges
    for c in range(18):
        assert set(part.pruned.edges(c)) <= set(gc.edges(c))


def test_partition_rounds_count_the_refinements_on_every_exit():
    gc = random_collection(GenSpec(16, 16, 0.7, 3))
    spec = DensitySpec(d=0.3, epsilon=0.3)
    exits = {}
    for max_rounds, max_clusters in ((None, 48), (1, 48), (None, 4), (None, 8)):
        part = partition_collection(gc, spec, L0=3, seed=2, max_rounds=max_rounds,
                                    max_clusters=max_clusters)
        assert part.rounds == len(part.energy_history) - 1
        exits[max_rounds, max_clusters] = (part.diagnostics["refinement_converged"], part.rounds)
    # converged; the round cap after one refinement; the cluster cap (4 and
    # 8 clusters) before any refinement and after one
    assert exits == {(None, 48): (True, 3), (1, 48): (False, 1),
                     (None, 4): (False, 0), (None, 8): (False, 1)}


def test_partition_without_colours_has_no_energy_to_sum():
    part = partition_collection(GraphCollection(5, 0, {}), SPEC, L0=2, seed=0)
    assert part.converged and (part.L, part.M, part.m) == (1, 0, 5)
    assert part.energy_history == (0.0,) and part.rounds == 0
    assert part.reduced == () and part.pruned.n_colours == 0


# ---------------------------------------------------------------------------
# sampled witness search


def test_sampled_mode_confidence_metadata():
    # the complete 15 x 15 slice: no sub-slice deviates, so the sampled
    # search spends its whole budget and finds no witness
    g = one_colour(30, [(u, v) for u in range(15) for v in range(15, 30)])
    spec = DensitySpec(d=0.3, epsilon=0.2)
    res = irregularity_witness(g, (range(15), range(15, 30), [0]), spec, budget=100, seed=0)
    assert not res.exhaustive and res.witness is None
    assert res.budget_exhausted and res.samples == 100
