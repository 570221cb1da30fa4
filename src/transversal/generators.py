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


def _chunked_collection(n: int, k: int, kept_of) -> GraphCollection:
    """The collection on n vertices with k colours whose colours in the
    slice ``cs`` keep the pairs u[i] < v[i] (row-major order) where
    ``kept_of(u, v, cs)[c, i]`` holds.  It is called on chunks of whole
    colours, of about ``_CHUNK_COINS`` incidences each, in colour order;
    each chunk is written both ways into a bool table, a vertex's row and
    column each by one slice, packed with ``np.packbits`` and turned into
    rows by ``masks_of_words``."""
    u, v = np.triu_indices(n, 1)
    step = max(1, _CHUNK_COINS // max(1, len(u)))  # colours per chunk
    masks = []
    for s in range(0, k, step):
        kept = kept_of(u, v, slice(s, min(s + step, k)))
        table = np.zeros((len(kept), n, (n + 63) & ~63), bool)  # rows of whole words
        start = 0
        for a in range(n - 1):  # the pairs a < v are one run of kept's columns
            stop = start + n - 1 - a
            table[:, a, a + 1 : n] = table[:, a + 1 : n, a] = kept[:, start:stop]
            start = stop
        masks += masks_of_words(np.packbits(table, axis=2, bitorder="little").view("<u8"))
    return GraphCollection.from_rows(n, [masks[c * n : c * n + n] for c in range(k)])


def random_collection(spec: GenSpec) -> GraphCollection:
    """Each (pair, colour) incidence kept independently when its coin is
    below the density.  The coins go to the colours in order and, within
    one, to the pairs u < v in row-major order; :func:`_coins` draws them
    chunk by chunk."""
    rng = random.Random(spec.seed)

    def kept_of(u, v, cs):
        colours = cs.stop - cs.start
        return _coins(rng, colours * len(u)).reshape(colours, len(u)) < spec.density

    return _chunked_collection(spec.n, spec.n_colours, kept_of)


def cyclic_triangle_collection(
    n: int, seed: int = 0, n_colours: int | None = None
) -> GraphCollection:
    """Uniformly dense collection with no monochromatic triangle.

    Orient every V-V and V-colour pair uniformly at random; xy lands in G_c
    exactly when the triple xyc is a cyclic triangle.  For any vertex triple
    and colour, at most two of the three pairs can be edges of that colour
    (the three anchor arcs would need each endpoint pair oppositely oriented
    around c, a parity impossibility), so the guarantee is structural and
    holds at every n.  The orientation coins go to the vertices u in order
    and, within one, to v = u + 1, ..., n + k - 1 (colour c is n + c).
    """
    k = n if n_colours is None else n_colours
    if type(n) is not int or type(k) is not int or n < 3 or k < 0:  # not a bool
        raise ValueError("need at least 3 vertices and a colour count >= 0, as integers")
    later = np.arange(n + k) > np.arange(n)[:, None]  # the pairs u < v at a vertex u
    arc = np.zeros(later.shape, bool)  # arc[u, v]: u -> v, for u < v
    arc[later] = _coins(random.Random(seed), int(later.sum())) < 0.5  # row-major order
    to_colour = arc[:, n:]  # to_colour[x, c]: x -> c, so c -> x when it is False

    def kept_of(u, v, cs):
        # xyc is cyclic as x -> y -> c -> x or as y -> x -> c -> y
        fwd, tu, tv = arc[u, v][:, None], to_colour[u, cs], to_colour[v, cs]
        return ((fwd & tv & ~tu) | (~fwd & tu & ~tv)).T

    return _chunked_collection(n, k, kept_of)


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


def one_expansion(H: SimpleGraph) -> ThreeGraph:
    """The 1-expansion of H: every 2-edge xy becomes the 3-edge xyc with a
    fresh vertex c, so it is linear and has v(H)+e(H) vertices."""
    triples = [(u, v, H.n + i) for i, (u, v) in enumerate(H.edges())]
    return ThreeGraph(H.n + len(triples), triples)


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
