"""Seeded instance generators: random collections, the cyclic-triangle and
parity constructions, expansions, separable pattern families and the Mantel
extremal graph.

Every generator is deterministic given its spec and seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .core import (
    GraphCollection,
    NotCertified,
    PatternGraph,
    SeparabilityCertificate,
    SimpleGraph,
    ThreeGraph,
    _coins,
    masks_of_words,
    separability_certificate,
)

#: Rainbow-triangle size threshold constant of Aharoni, DeVos, de la Maza,
#: Montejano and Samal: collections with e(G_c) > a*n^2 for all three colours
#: contain a rainbow triangle, and a cannot be decreased.  Shipped for
#: threshold experiments; the extremal construction itself is out of scope.
AHARONI_TRIANGLE_CONSTANT = (26 - 2 * math.sqrt(7)) / 81

_CHUNK_COINS = 1 << 20  # about this many coins, in whole colours, per chunk of random_collection


@dataclass(frozen=True)
class GenSpec:
    n: int
    n_colours: int
    density: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.density <= 1:
            raise ValueError("density must lie in [0,1]")
        if any(type(x) is not int or x < 1 for x in (self.n, self.n_colours)):  # not a bool
            raise ValueError("n and colour count must be positive integers")


def random_collection(spec: GenSpec) -> GraphCollection:
    """Each (pair, colour) incidence kept independently when its coin is
    below the density.  The coins go to the colours in order and, within
    one, to the pairs u < v in row-major order; :func:`_coins` draws them in
    chunks of whole colours, each scattered into a bool table and packed."""
    n, k = spec.n, spec.n_colours
    u, v = np.triu_indices(n, 1)
    step = max(1, _CHUNK_COINS // max(1, len(u)))  # colours per chunk
    rng = random.Random(spec.seed)
    masks = []
    for s in range(0, k, step):
        colours = min(step, k - s)
        kept = _coins(rng, colours * len(u)).reshape(colours, len(u)) < spec.density
        table = np.zeros((colours, n, (n + 63) & ~63), bool)  # rows of whole words
        table[:, u, v] = table[:, v, u] = kept
        masks += masks_of_words(np.packbits(table, axis=2, bitorder="little").view("<u8"))
    return GraphCollection.from_rows(n, [masks[c * n : c * n + n] for c in range(k)])


def cyclic_triangle_collection(
    n: int, seed: int = 0, n_colours: int | None = None
) -> GraphCollection:
    """Uniformly dense collection with no monochromatic triangle.

    Orient every V-V and V-colour pair uniformly at random; xy lands in G_c
    exactly when the triple xyc is a cyclic triangle.  For any vertex triple
    and colour, at most two of the three pairs can be edges of that colour
    (the three anchor arcs would need each endpoint pair oppositely oriented
    around c, a parity impossibility), so the guarantee is structural and
    holds at every n.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    k = n_colours if n_colours is not None else n
    rng = random.Random(seed)
    # arc[u][v] True means u -> v; vertices 0..n-1, colours n..n+k-1.
    # Both V-V and V-colour pairs get a uniform orientation.
    total = n + k
    arc = [[False] * total for _ in range(total)]
    for u in range(n):
        for v in range(u + 1, total):
            fwd = rng.random() < 0.5
            arc[u][v] = fwd
            arc[v][u] = not fwd

    def cyclic(x: int, y: int, cv: int) -> bool:
        return (arc[x][y] and arc[y][cv] and arc[cv][x]) or (
            arc[y][x] and arc[x][cv] and arc[cv][y]
        )

    edges: dict[int, list[tuple[int, int]]] = {}
    for c in range(k):
        cv = n + c
        es = []
        for u in range(n):
            for v in range(u + 1, n):
                if cyclic(u, v, cv):
                    es.append((u, v))
        edges[c] = es
    return GraphCollection(n, k, edges)


def parity_threegraph(
    n_per_part: int, X: set[int] | frozenset[int], seed: int = 0
) -> ThreeGraph:
    """The parity construction: three parts of equal size, a random tripartite
    2-graph J with edge probability 1/2, and a 3-edge abc included iff
    |{a,b,c} cap X| is even and abc spans a triangle of J, or odd and abc is
    independent in J.  With |X cap V_1| odd the result has no tight Hamilton
    cycle."""
    n = 3 * n_per_part
    parts = [
        list(range(0, n_per_part)),
        list(range(n_per_part, 2 * n_per_part)),
        list(range(2 * n_per_part, n)),
    ]
    X = frozenset(X)
    if not X <= set(range(n)):
        raise ValueError("X must be a subset of the vertex set")
    rng = random.Random(seed)
    j_adj = [[False] * n for _ in range(n)]
    for pi in range(3):
        for pj in range(pi + 1, 3):
            for a in parts[pi]:
                for b in parts[pj]:
                    e = rng.random() < 0.5
                    j_adj[a][b] = e
                    j_adj[b][a] = e
    triples = []
    for a in parts[0]:
        for b in parts[1]:
            for c in parts[2]:
                inter = (a in X) + (b in X) + (c in X)
                tri = j_adj[a][b] and j_adj[b][c] and j_adj[a][c]
                indep = not (j_adj[a][b] or j_adj[b][c] or j_adj[a][c])
                if (inter % 2 == 0 and tri) or (inter % 2 == 1 and indep):
                    triples.append((a, b, c))
    return ThreeGraph(n, triples, parts=parts)


def one_expansion(H: SimpleGraph, t_per_edge: int | dict[tuple[int, int], int] = 1) -> ThreeGraph:
    """Expand every 2-edge xy into 3-edges xyc_1..xyc_t with fresh vertices.

    t = 1 gives the 1-expansion, which is linear and has v(H)+e(H) vertices.
    """
    if isinstance(t_per_edge, int):
        tmap = {e: t_per_edge for e in H.edges()}
    else:
        tmap = {(min(e), max(e)): t for e, t in t_per_edge.items()}
    if any(t < 1 for t in tmap.values()):
        raise ValueError("each edge needs at least one expansion vertex")
    nxt = H.n
    triples = []
    for e in H.edges():
        for _ in range(tmap[e]):
            triples.append((e[0], e[1], nxt))
            nxt += 1
    return ThreeGraph(nxt, triples)


def _path_power(n: int, b: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, min(i + b, n - 1) + 1)]


@dataclass(frozen=True)
class SeparablePattern:
    graph: PatternGraph
    certificate: SeparabilityCertificate | NotCertified


def separable_family(kind: str, seed: int = 0, mu: float = 0.2, **params) -> SeparablePattern:
    """Pattern families with their computed separability certificate attached.

    kinds: 'f-factor' (copies x size of complete F), 'cycle-union',
    'hamilton-power', 'bandwidth' (path power, width b), 'tree' (random).
    """
    rng = random.Random(seed)
    if kind == "f-factor":
        copies = params.get("copies", 5)
        size = params.get("size", 3)
        edges = []
        for k in range(copies):
            base = k * size
            edges.extend(
                (base + a, base + b) for a in range(size) for b in range(a + 1, size)
            )
        H = PatternGraph(copies * size, edges)
    elif kind == "cycle-union":
        lengths = params.get("lengths", [4, 4, 4])
        edges, base = [], 0
        for L in lengths:
            edges.extend((base + i, base + (i + 1) % L) for i in range(L))
            base += L
        H = PatternGraph(base, edges)
    elif kind == "hamilton-power":
        n = params.get("n", 20)
        power = params.get("power", 2)
        edges = set()
        for i in range(n):
            for s in range(1, power + 1):
                edges.add(tuple(sorted((i, (i + s) % n))))
        H = PatternGraph(n, sorted(edges))
    elif kind == "bandwidth":
        n = params.get("n", 30)
        b = params.get("b", 2)
        H = PatternGraph(n, _path_power(n, b))
    elif kind == "tree":
        n = params.get("n", 20)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        H = PatternGraph(n, edges)
    else:
        raise ValueError(f"unknown family {kind!r}")
    cert = separability_certificate(H, mu)
    return SeparablePattern(graph=H, certificate=cert)


def mantel_extremal(n: int, n_colours: int = 3) -> GraphCollection:
    """Complete balanced bipartite graph (floor(n^2/4) edges, triangle-free)
    replicated across all requested colours: the boundary case below which a
    triangle cannot be forced."""
    if n < 2:
        raise ValueError("need at least two vertices")
    half = n // 2
    edges = [(u, v) for u in range(half) for v in range(half, n)]
    return GraphCollection(n, n_colours, {c: edges for c in range(n_colours)})
