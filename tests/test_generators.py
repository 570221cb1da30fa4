import math
import random
import tracemalloc
from itertools import combinations

import pytest

from transversal import generators
from transversal.core import GraphCollection, SeparabilityCertificate, SimpleGraph
from transversal.generators import (
    AHARONI_TRIANGLE_CONSTANT,
    GenSpec,
    cyclic_triangle_collection,
    mantel_extremal,
    one_expansion,
    parity_threegraph,
    random_collection,
    separable_family,
)
from transversal.oracle import monochromatic_triangle_count


def test_random_collection_extremes():
    spec = GenSpec(n=6, n_colours=4, density=1.0, seed=0)
    gc = random_collection(spec)
    assert gc.total_edge_count() == 4 * 15
    empty = random_collection(GenSpec(n=6, n_colours=4, density=0.0, seed=0))
    assert empty.total_edge_count() == 0


def _per_coin_random_collection(spec):
    """random_collection by one ``rng.random()`` call per (pair, colour)
    incidence, colour-major, then pairs u < v in row-major order."""
    rng = random.Random(spec.seed)
    edges = {}
    for c in range(spec.n_colours):
        edges[c] = [(u, v) for u in range(spec.n) for v in range(u + 1, spec.n)
                    if rng.random() < spec.density]
    return GraphCollection(spec.n, spec.n_colours, edges)


@pytest.mark.parametrize("chunk", [None, 700])  # 700 coins: several chunks, the last one short
@pytest.mark.parametrize("density", [0.0, 0.5, 0.8, 1.0])
# 0 to 42,840 coins; with the default chunk, (1, 3), (2, 5), (5, 4) and
# (60, 2) draw fewer than _COINS_NUMPY_MIN = 4,096, so by plain calls, and
# the rest by one numpy call
@pytest.mark.parametrize("n, k", [(1, 3), (2, 5), (2, 5000), (5, 4), (5, 500),
                                  (60, 2), (60, 3), (120, 1), (120, 6)])
def test_random_collection_matches_the_per_coin_loop(n, k, density, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(generators, "_CHUNK_COINS", chunk)
    spec = GenSpec(n=n, n_colours=k, density=density, seed=n * k)
    gc, ref = random_collection(spec), _per_coin_random_collection(spec)
    assert gc == ref
    assert gc._ecount == ref._ecount


def test_random_collection_peak_follows_the_chunk(monkeypatch):
    chunk = 1 << 16
    monkeypatch.setattr(generators, "_CHUNK_COINS", chunk)
    n, k = 64, 1024
    spec = GenSpec(n=n, n_colours=k, density=0.5, seed=1)
    tracemalloc.start()
    try:
        gc = random_collection(spec)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gc.n_colours == k
    # above the collection itself: a chunk's coins, bools and table, and the
    # lists of the k * n rows; drawn at once, the coins alone take 16.5 MB
    assert peak - current < 16 * (chunk + k * n) < 8 * k * math.comb(n, 2) / 4


@pytest.mark.parametrize("field", ["n", "n_colours"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, False, "4"])
def test_genspec_refuses_a_size_that_is_not_an_int(field, value):
    sizes = {"n": 4, "n_colours": 3, field: value}
    with pytest.raises(ValueError, match="must be positive integers"):
        GenSpec(**sizes)


def test_random_collection_concentration():
    spec = GenSpec(n=20, n_colours=20, density=0.5, seed=7)
    gc = random_collection(spec)
    trials = math.comb(20, 2) * 20
    mean = 0.5 * trials
    sigma = math.sqrt(trials * 0.25)
    assert abs(gc.total_edge_count() - mean) <= 3 * sigma


def test_generators_seed_deterministic():
    a = random_collection(GenSpec(n=10, n_colours=5, density=0.5, seed=3))
    b = random_collection(GenSpec(n=10, n_colours=5, density=0.5, seed=3))
    assert a == b
    c = cyclic_triangle_collection(10, seed=4)
    d = cyclic_triangle_collection(10, seed=4)
    assert c == d
    e = parity_threegraph(3, {0, 1}, seed=5)
    f = parity_threegraph(3, {0, 1}, seed=5)
    assert e == f


def _per_coin_cyclic_triangle_collection(n, seed, k):
    """cyclic_triangle_collection by one ``rng.random()`` call per
    orientation (u ascending, then v from u + 1; colour c is vertex n + c)
    and one cyclic test per colour and vertex pair."""
    rng = random.Random(seed)
    total = n + k
    arc = [[False] * total for _ in range(total)]
    for u in range(n):
        for v in range(u + 1, total):
            fwd = rng.random() < 0.5
            arc[u][v], arc[v][u] = fwd, not fwd
    edges = {}
    for c in range(k):
        w = n + c
        edges[c] = [(x, y) for x in range(n) for y in range(x + 1, n)
                    if (arc[x][y] and arc[y][w] and arc[w][x])
                    or (arc[y][x] and arc[x][w] and arc[w][y])]
    return GraphCollection(n, k, edges)


@pytest.mark.parametrize("chunk", [None, 50])  # 50 coins: a chunk per colour
@pytest.mark.parametrize("n", [3, 4, 10, 40])
# n = 40 with 120 colours draws 5,580 coins, more than _COINS_NUMPY_MIN, so
# by one numpy call; the other cases by plain calls
@pytest.mark.parametrize("k", [None, 0, 1, 2, 7, 65, 120])
def test_cyclic_triangle_matches_the_per_coin_loop(n, k, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(generators, "_CHUNK_COINS", chunk)
    seed = 10 * n + (k or 0)
    gc = cyclic_triangle_collection(n, seed=seed, n_colours=k)
    ref = _per_coin_cyclic_triangle_collection(n, seed, n if k is None else k)
    assert gc == ref and gc._ecount == ref._ecount


@pytest.mark.parametrize("n, k", [(2, None), (0, 3), (3.0, None), (5, 2.0), (True, 3),
                                  (5, False), (5, -1), ("5", None)])
def test_cyclic_triangle_refuses_bad_sizes(n, k):
    with pytest.raises(ValueError, match="need at least 3 vertices"):
        cyclic_triangle_collection(n, seed=0, n_colours=k)


def test_cyclic_triangle_no_monochromatic_triangle_exhaustive():
    gc = cyclic_triangle_collection(12, seed=1)
    assert monochromatic_triangle_count(gc) == 0
    # at most two edges of any colour inside any vertex triple
    for c in range(gc.n_colours):
        for (x, y, z) in combinations(range(12), 3):
            inside = (
                gc.has_edge(c, x, y) + gc.has_edge(c, y, z) + gc.has_edge(c, x, z)
            )
            assert inside <= 2


def test_cyclic_triangle_density_quarter():
    vals = []
    for seed in range(5):
        gc = cyclic_triangle_collection(30, seed=seed)
        pairs = math.comb(30, 2)
        vals.append(gc.total_edge_count() / (pairs * 30))
    mean = sum(vals) / len(vals)
    assert abs(mean - 0.25) <= 0.05


def test_cyclic_triangle_reversal_symmetry():
    # a cyclic triangle stays cyclic when every arc is reversed, so the
    # reversed orientation reproduces the construction exactly; rebuild the
    # seeded orientation independently and compare
    n = 10
    seed = 2
    gc = cyclic_triangle_collection(n, seed=seed)
    rng = random.Random(seed)
    total = 2 * n
    arc = [[False] * total for _ in range(total)]
    for u in range(n):
        for v in range(u + 1, total):
            fwd = rng.random() < 0.5
            arc[u][v] = fwd
            arc[v][u] = not fwd
    rev = [[not arc[u][v] if u != v else False for v in range(total)] for u in range(total)]

    def edges_from(a):
        out = {}
        for c in range(n):
            cv = n + c
            out[c] = sorted(
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if (a[u][v] and a[v][cv] and a[cv][u])
                or (a[v][u] and a[u][cv] and a[cv][v])
            )
        return out

    forward = edges_from(arc)
    reversed_ = edges_from(rev)
    assert forward == reversed_
    for c in range(n):
        assert sorted(gc.edges(c)) == forward[c]


def test_parity_threegraph_x_empty_density():
    g = parity_threegraph(6, frozenset(), seed=3)
    # only triangles of J survive; density near 1/8
    dens = g.e / (6 * 6 * 6)
    assert abs(dens - 0.125) <= 0.08


def test_parity_threegraph_complement_swap():
    n_per = 3
    n = 3 * n_per
    X = frozenset({0, 4})
    a = parity_threegraph(n_per, X, seed=9)
    b = parity_threegraph(n_per, frozenset(range(n)) - X, seed=9)
    # complementing X swaps the parity criterion: the two edge sets are
    # disjoint and their union is (triangles of J) + (independent triples)
    assert not (a.edges & b.edges)
    rng = random.Random(9)
    j_adj = [[False] * n for _ in range(n)]
    parts = [list(range(0, 3)), list(range(3, 6)), list(range(6, 9))]
    for pi in range(3):
        for pj in range(pi + 1, 3):
            for u in parts[pi]:
                for v in parts[pj]:
                    e = rng.random() < 0.5
                    j_adj[u][v] = e
                    j_adj[v][u] = e
    expected_union = set()
    for x in parts[0]:
        for y in parts[1]:
            for z in parts[2]:
                tri = j_adj[x][y] and j_adj[y][z] and j_adj[x][z]
                indep = not (j_adj[x][y] or j_adj[y][z] or j_adj[x][z])
                if tri or indep:
                    expected_union.add(tuple(sorted((x, y, z))))
    assert a.edges | b.edges == expected_union


def test_one_expansion_counts_and_linearity():
    H = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    g = one_expansion(H)
    assert g.n == H.n + H.e
    assert g.e == H.e
    # linear: every pair of 3-edges shares at most one vertex
    for e, f in combinations(g.edges, 2):
        assert len(set(e) & set(f)) <= 1


def test_one_expansion_single_edge():
    H = SimpleGraph(2, [(0, 1)])
    g = one_expansion(H)
    assert g.n == 3 and g.e == 1


def test_one_expansion_loose_cycle():
    k = 5
    H = SimpleGraph(k, [(i, (i + 1) % k) for i in range(k)])
    g = one_expansion(H)
    assert g.n == 2 * k and g.e == k
    # loose cycle: consecutive 3-edges intersect in one vertex, others in none
    for e, f in combinations(g.edges, 2):
        assert len(set(e) & set(f)) <= 1


def test_separable_family_certificates():
    fac = separable_family("f-factor", copies=5, size=3, mu=0.3)
    assert fac.graph.n == 15
    assert isinstance(fac.certificate, SeparabilityCertificate)
    assert fac.certificate.separator == ()

    ham = separable_family("hamilton-power", n=20, power=2, mu=0.3)
    assert isinstance(ham.certificate, SeparabilityCertificate)

    bw = separable_family("bandwidth", n=30, b=2, mu=0.25)
    # ordering witness: |i-j| <= 2 along the natural labelling
    assert all(abs(u - v) <= 2 for (u, v) in bw.graph.edges())

    tree = separable_family("tree", n=24, seed=3, mu=0.25)
    assert tree.graph.e == 23


def test_separable_family_cycle_union():
    lengths = [3, 5, 8]
    cu = separable_family("cycle-union", lengths=lengths, mu=0.3)
    H = cu.graph
    assert H.n == sum(lengths) and H.e == sum(lengths)
    comps = H.components(range(H.n))
    assert [len(comp) for comp in comps] == lengths
    for comp in comps:  # connected and 2-regular: a cycle of its length
        assert all(H.degree(x) == 2 for x in comp)
    cert = cu.certificate
    assert isinstance(cert, SeparabilityCertificate)
    # the 5- and 8-cycles exceed 0.3 * 16 vertices, so each is cut
    limit = 0.3 * H.n
    assert 0 < len(cert.separator) <= limit
    assert all(len(comp) <= limit for comp in cert.components)
    rest = set(range(H.n)) - set(cert.separator)
    assert sorted(x for comp in cert.components for x in comp) == sorted(rest)


def test_mantel_extremal_counts():
    for n in (6, 7):
        gc = mantel_extremal(n)
        assert gc.edge_count(0) == n * n // 4
        assert monochromatic_triangle_count(gc) == 0


def test_aharoni_constant_value():
    assert abs(AHARONI_TRIANGLE_CONSTANT - 0.2557) < 5e-4
    assert AHARONI_TRIANGLE_CONSTANT > 0.25
