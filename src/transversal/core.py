"""Graph collections and their three equivalent representations.

A graph collection is a family of graphs, one per colour, all sharing a
vertex set.  The same data can be viewed as a 3-uniform hypergraph on
``vertices + colours`` (a 3-edge xyc whenever xy is an edge of colour c), or
as an edge-coloured multigraph.  This module holds the canonical types, the
conversions between views, the transversal-embedding verifier and a greedy
separability certifier.

Vertices and colours are dense integer indices assigned at construction;
external names map through optional symbol tables.  Adjacency is stored as
per-vertex bitmasks so that neighbourhood intersections are single ``&``
operations.  All values are immutable after construction and safe to share
across concurrent readers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


class EdgeStraddlesSides(ValueError):
    """A 3-edge does not have exactly one vertex on the colour side."""


def mask_of(bits: Iterable[int]) -> int:
    m = 0
    for b in bits:
        m |= 1 << b
    return m


def bits_of(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SimpleGraph:
    """Plain undirected graph on ``n`` dense vertices with bitmask adjacency."""

    __slots__ = ("n", "_adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        adj = [0] * n
        eset = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in eset:
                continue
            eset.add((a, b))
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        self.n = n
        self._adj = tuple(adj)
        self._edges = tuple(sorted(eset))

    def adj(self, v: int) -> int:
        return self._adj[v]

    def neighbours(self, v: int) -> Iterator[int]:
        return bits_of(self._adj[v])

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def e(self) -> int:
        return len(self._edges)

    @property
    def max_degree(self) -> int:
        return max((a.bit_count() for a in self._adj), default=0)

    def edges_within(self, vertices: Iterable[int]) -> list[tuple[int, int]]:
        """The edges uv (u < v) with both ends in ``vertices``, in the order
        of :meth:`edges`: the edge list of the induced subgraph."""
        inside = mask_of(vertices)
        adj = self._adj
        return [
            (u, v)
            for u in bits_of(inside)
            for v in bits_of(adj[u] & (inside >> (u + 1) << (u + 1)))
        ]

    def components(self, vertices: Iterable[int]) -> list[list[int]]:
        """Components of the subgraph induced on ``vertices``, each sorted,
        in the order of their smallest vertices."""
        return [list(bits_of(c)) for c in _components_masks(self._adj, mask_of(vertices))]

    def __eq__(self, other):
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self.n, self._edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, e={self.e})"


class PatternGraph(SimpleGraph):
    """A bounded-degree graph to be embedded.

    Optionally carries a homomorphism ``phi`` into a cluster graph R (one
    cluster index per vertex) and target sets (vertex -> admissible host
    vertices) for marked vertices.
    """

    __slots__ = ("phi", "targets")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        phi: Sequence[int] | None = None,
        targets: Mapping[int, Iterable[int]] | None = None,
    ):
        super().__init__(n, edges)
        self.phi = tuple(phi) if phi is not None else None
        if self.phi is not None and len(self.phi) != n:
            raise ValueError("phi must assign a cluster to every vertex")
        self.targets = (
            {int(v): frozenset(ts) for v, ts in targets.items()} if targets else None
        )

    def __repr__(self):
        return f"PatternGraph(n={self.n}, e={self.e}, Delta={self.max_degree})"


class GraphCollection:
    """Colour-indexed family of graphs (G_c : c in colours) on one vertex set.

    ``edges`` maps a colour index to its edge list.  The same pair may appear
    in several colours (the edge-coloured view has a multiset of colours).
    A bipartition may be declared per colour as a pair of vertex iterables;
    every edge of that colour must cross it.
    """

    __slots__ = (
        "n",
        "n_colours",
        "_adj",
        "_ecount",
        "bipartition",
        "colour_names",
        "_pair_cache",
    )

    def __init__(
        self,
        n: int,
        n_colours: int,
        edges: Mapping[int, Iterable[tuple[int, int]]] | None = None,
        bipartition: Mapping[int, tuple[Iterable[int], Iterable[int]]] | None = None,
        colour_names: Sequence[str] | None = None,
    ):
        if n < 0 or n_colours < 0:
            raise ValueError("sizes must be non-negative")
        adj = [[0] * n for _ in range(n_colours)]
        ecount = [0] * n_colours
        for c, elist in (edges or {}).items():
            c = int(c)
            if not 0 <= c < n_colours:
                raise ValueError(f"colour {c} out of range")
            for u, v in elist:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise ValueError(f"loop at vertex {u} in colour {c}")
                if not adj[c][u] >> v & 1:
                    adj[c][u] |= 1 << v
                    adj[c][v] |= 1 << u
                    ecount[c] += 1
        self.n = n
        self.n_colours = n_colours
        self._adj = tuple(tuple(rows) for rows in adj)
        self._ecount = tuple(ecount)
        self.colour_names = tuple(colour_names) if colour_names else None
        self._pair_cache: dict[tuple[int, int], int] = {}
        if bipartition:
            bp = {}
            for c, (a, b) in bipartition.items():
                c = int(c)
                ma, mb = mask_of(a), mask_of(b)
                if ma & mb:
                    raise ValueError(f"bipartition sides of colour {c} overlap")
                for u, v in self.edges(c):
                    if not ((ma >> u & 1 and mb >> v & 1) or (mb >> u & 1 and ma >> v & 1)):
                        raise ValueError(
                            f"edge ({u},{v}) of colour {c} does not cross the declared bipartition"
                        )
                bp[c] = (ma, mb)
            self.bipartition = bp
        else:
            self.bipartition = None

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[Sequence[int]]) -> GraphCollection:
        """Collection whose colour c has the adjacency bitmasks ``rows[c]``
        (one per vertex), which must be symmetric and loop-free."""
        gc = cls(n, 0)
        gc.n_colours = len(rows)
        gc._adj = tuple(tuple(r) for r in rows)
        gc._ecount = tuple(sum(m.bit_count() for m in r) // 2 for r in rows)
        return gc

    def add_slice_to(self, rows: Sequence[list[int]], A, B, colours) -> int:
        """OR the edges between A and B of the given colours into the
        per-colour adjacency ``rows``; returns how many (u, v, c) were read."""
        ma, mb = mask_of(A), mask_of(B)
        count = 0
        for c in colours:
            row, adj = rows[c], self._adj[c]
            for u in A:
                m = adj[u] & mb
                row[u] |= m
                count += m.bit_count()
            for v in B:
                row[v] |= adj[v] & ma
        return count

    @property
    def colours(self) -> range:
        return range(self.n_colours)

    def adj(self, c: int, v: int) -> int:
        return self._adj[c][v]

    def total_degree(self, v: int) -> int:
        """Sum of deg_{G_c}(v) over all colours: the 3-graph degree of v."""
        return sum(rows[v].bit_count() for rows in self._adj)

    def has_edge(self, c: int, u: int, v: int) -> bool:
        return bool(self._adj[c][u] >> v & 1)

    def degree_into(self, v: int, mask: int, colours: Iterable[int]) -> int:
        """Sum over ``colours`` of v's neighbours inside the vertex ``mask``:
        v's degree into mask in the 3-graph view restricted to those colours."""
        adj = self._adj
        return sum((adj[c][v] & mask).bit_count() for c in colours)

    def edges_into(self, c: int, vertices: Iterable[int], mask: int) -> int:
        """Edges of colour c from ``vertices`` into the vertex ``mask`` (an
        edge with both ends in both sets counts twice)."""
        rows = self._adj[c]
        return sum((rows[u] & mask).bit_count() for u in vertices)

    def edges(self, c: int) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            m = self._adj[c][u] >> (u + 1) << (u + 1)
            for v in bits_of(m):
                yield (u, v)

    def edge_count(self, c: int) -> int:
        return self._ecount[c]

    def total_edge_count(self) -> int:
        return sum(self._ecount)

    def colour_mask(self, u: int, v: int) -> int:
        """Bitmask over colours c with uv in G_c (the multiset of colours of uv)."""
        key = (u, v) if u < v else (v, u)
        m = self._pair_cache.get(key)
        if m is None:
            m = 0
            for c in range(self.n_colours):
                if self._adj[c][u] >> v & 1:
                    m |= 1 << c
            self._pair_cache[key] = m
        return m

    def __eq__(self, other):
        return (
            isinstance(other, GraphCollection)
            and self.n == other.n
            and self.n_colours == other.n_colours
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.n, self.n_colours, self._adj))

    def __repr__(self):
        return (
            f"GraphCollection(n={self.n}, colours={self.n_colours}, "
            f"edges={self.total_edge_count()})"
        )


class ThreeGraph:
    """3-uniform hypergraph on dense vertices, optionally k-partitioned.

    Stored as a pair-mask table: for each pair u < v that lies in an edge,
    ``_pairs[u * n + v]`` is the bitmask of the third vertices w with uvw an
    edge.  The footprint is O(e), and the link graph of a vertex on a vertex
    set is one mask per vertex (:meth:`link_collection`).  ``edges``, the
    frozenset of sorted triples, is built from the table on first use.

    The rows are checked, sorted and grouped into mask words with numpy, in
    chunks of ``_CHUNK_ROWS``; a bad row raises ``ValueError`` naming the
    first bad row in input order.
    """

    __slots__ = ("n", "e", "parts", "_pairs", "_edges")

    def __init__(
        self,
        n: int,
        edges: Iterable[Sequence[int]],
        parts: Sequence[Iterable[int]] | None = None,
    ):
        pairs: dict[int, int] = {}
        get = pairs.get
        rows = iter(edges)
        # bounded chunks keep the numpy temporaries small; rebuilding a mask
        # bit is idempotent, so chunks need no dedup between them
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            t = _int_rows(chunk)
            if t is None:
                raise _first_bad_row(chunk, n)
            # sort each triple by a min/max network; a < b < c also rules out repeats
            x, y, z = t.T
            lo, hi = np.minimum(x, y), np.maximum(x, y)
            a, b, c = np.minimum(lo, z), np.maximum(lo, np.minimum(hi, z)), np.maximum(hi, z)
            if not ((0 <= a) & (a < b) & (b < c) & (c < n)).all():
                raise _first_bad_row(chunk, n)
            for key, word, bits in zip(*_pair_words(a, b, c, n)):
                pairs[key] = get(key, 0) | bits << (word << 6)
        self.n = n
        # each edge abc is counted once, in the mask of ab, as the bit c above b
        self.e = sum((m >> key % n >> 1).bit_count() for key, m in pairs.items())
        self._pairs = pairs
        self._edges = None
        if parts is not None:
            pt = tuple(tuple(sorted(p)) for p in parts)
            labels = [x for p in pt for x in p]
            if len(set(labels)) != len(labels):
                raise ValueError("parts must be pairwise disjoint")
            if set(labels) != set(range(n)):
                raise ValueError("partition labels must cover all vertices exactly")
            self.parts = pt
        else:
            self.parts = None

    @property
    def edges(self) -> frozenset[tuple[int, int, int]]:
        """The 3-edges as sorted triples."""
        if self._edges is None:
            triples = []
            for key, m in self._pairs.items():
                a, b = divmod(key, self.n)
                # the third vertices above b, so each triple comes once
                triples.extend((a, b, c) for c in bits_of(m >> b << b))
            self._edges = frozenset(triples)
        return self._edges

    def pair_masks(self) -> list[tuple[int, int]]:
        """The table's ``(u * n + v, mask)`` items in key order, a canonical
        form of the edge set."""
        return sorted(self._pairs.items())

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            return 0
        n, get = self.n, self._pairs.get
        # each edge uvw is seen twice, in the masks of uv and of vw
        return sum(get(u * n + v if u < v else v * n + u, 0).bit_count() for u in range(n)) // 2

    def has(self, a: int, b: int, c: int) -> bool:
        """True when abc is a 3-edge; False for repeated or out-of-range vertices."""
        a, b, c = sorted((a, b, c))
        return 0 <= a and c < self.n and bool(self._pairs.get(a * self.n + b, 0) >> c & 1)

    def link_collection(self, v_side: Sequence[int], c_side: Sequence[int]) -> GraphCollection:
        """Collection whose colour j is the link graph of vertex ``c_side[j]``
        restricted to ``v_side``, reindexed: ij is an edge of colour j iff
        ``{v_side[i], v_side[j'], c_side[j]}`` is a 3-edge.  The sides are
        disjoint lists of distinct vertices of this 3-graph."""
        n, get = self.n, self._pairs.get
        local = {1 << w: 1 << i for i, w in enumerate(v_side)}  # host bit -> local bit
        vmask = mask_of(v_side)
        rows = []
        for c in c_side:
            row = []
            for u in v_side:
                m = get(u * n + c if u < c else c * n + u, 0) & vmask
                r = 0
                while m:
                    low = m & -m
                    r |= local[low]
                    m ^= low
                row.append(r)
            rows.append(row)
        return GraphCollection.from_rows(len(v_side), rows)

    def __eq__(self, other):
        return (
            isinstance(other, ThreeGraph)
            and self.n == other.n
            and self._pairs == other._pairs
        )

    def __repr__(self):
        return f"ThreeGraph(n={self.n}, e={self.e})"


_CHUNK_ROWS = 1 << 14  # rows per chunk of the ThreeGraph build


def _int_rows(chunk: list) -> np.ndarray | None:
    """The rows as a k x 3 int64 array, or None unless every row is a sized
    sequence of three ints (a bool is not an int here) that fit in int64."""
    try:
        if set(map(len, chunk)) == {3}:
            flat = list(chain.from_iterable(chunk))
            if set(map(type, flat)) == {int}:
                return np.fromiter(flat, np.int64, len(flat)).reshape(-1, 3)
    except (TypeError, OverflowError):  # an unsized row or a huge vertex
        pass
    return None


def _first_bad_row(rows: list, n: int) -> ValueError:
    """The error for the first row, in input order, that is not a 3-edge."""
    for t in map(tuple, rows):
        if why := _triple_error(t, n):
            return ValueError(why)
    return ValueError("3-edges must be sized sequences of vertices below 2**63")


def _triple_error(t: tuple, n: int) -> str | None:
    """Why the row ``t`` is not a 3-edge of a :class:`ThreeGraph` on ``n``
    vertices, or None when it is one."""
    if len(t) != 3:
        return f"3-edge {t} has repeated vertices"
    if any(type(x) is not int for x in t):
        return f"3-edge {t} has a vertex that is not an integer"
    if len(set(t)) != 3:
        return f"3-edge {t} has repeated vertices"
    if not all(0 <= x < n for x in t):
        return f"3-edge {t} out of range for n={n}"
    return None


def _pair_words(a: np.ndarray, b: np.ndarray, c: np.ndarray, n: int):
    """The pair-mask bits of the sorted triples ``a < b < c``, grouped by
    (pair, 64-bit word of the third vertex): the lists of pair keys
    ``u * n + v``, word indices and ORed words, one entry per group.

    Each triple gives its three (pair uv, third w) incidences the sort key
    ``(u * base + v) * width + w``, with ``width`` a multiple of 64 so that
    ``key >> 6`` names the group.  Where that overflows int64 (n above about
    2**21), u and v stand for their ranks among the chunk's vertices and the
    word of w for its rank among the chunk's words."""
    width = (n + 63) & ~63
    if n * n * width < 1 << 63:
        ends = words = None
        base, ra, rb, rc, ta, tb, tc = n, a, b, c, a, b, c
    else:
        ends = np.unique(np.concatenate((a, b, c)))
        words = np.unique(ends >> 6)
        base, width = len(ends), 64 * len(words)
        ra, rb, rc = (np.searchsorted(ends, v) for v in (a, b, c))
        ta, tb, tc = (np.searchsorted(words, v >> 6) << 6 | v & 63 for v in (a, b, c))
    key = np.concatenate(((ra * base + rb) * width + tc,
                          (ra * base + rc) * width + tb,
                          (rb * base + rc) * width + ta))
    key.sort()
    group = key >> 6
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    bits = np.left_shift(np.uint64(1), (key & 63).astype(np.uint64))
    pair, word = np.divmod(group[starts], width >> 6)
    ored = np.bitwise_or.reduceat(bits, starts).tolist()
    if ends is None:
        return pair.tolist(), word.tolist(), ored
    u, v = np.divmod(pair, base)
    keys = [x * n + y for x, y in zip(ends[u].tolist(), ends[v].tolist())]
    return keys, words[word].tolist(), ored


@dataclass(frozen=True)
class TransversalEmbedding:
    """Injective vertex map tau and injective edge-colour map sigma.

    ``sigma`` is keyed by sorted pattern-edge tuples.
    """

    tau: Mapping[int, int]
    sigma: Mapping[tuple[int, int], int]

    def colour_of(self, u: int, v: int) -> int:
        return self.sigma[(u, v) if u < v else (v, u)]


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class SeparabilityCertificate:
    """A separator X plus the component list of H - X, both of size <= mu*v(H)."""

    mu_num: int
    mu_den: int
    separator: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


class NotCertified:
    """The greedy search found no certificate; not a proof of non-separability."""

    def __init__(self, reason: str = ""):
        self.reason = reason

    def __bool__(self):
        return False

    def __repr__(self):
        return f"NotCertified({self.reason!r})"


# ---------------------------------------------------------------------------
# Representation conversions


def from_three_graph(
    g: ThreeGraph, v_side: Iterable[int], c_side: Iterable[int]
) -> GraphCollection:
    """Collection from a 3-graph and a (vertex side, colour side) split.

    The sides must partition V(g); every 3-edge must have exactly one vertex
    on the colour side, else :class:`EdgeStraddlesSides` is raised.  Vertices
    and colours are reindexed densely in sorted order of the given sides.
    """
    vs = sorted(set(v_side))
    cs = sorted(set(c_side))
    if set(vs) & set(cs):
        raise ValueError("v_side and c_side overlap")
    if set(vs) | set(cs) != set(range(g.n)):
        raise ValueError("v_side and c_side must partition the vertex set")
    gc = g.link_collection(vs, cs)
    if gc.total_edge_count() != g.e:
        # a 3-edge with 0, 2 or 3 vertices on the colour side is in no link graph
        cset = set(cs)
        for t in sorted(g.edges):
            k = sum(x in cset for x in t)
            if k != 1:
                raise EdgeStraddlesSides(f"3-edge {t} has {k} vertices on the colour side")
    return gc


# ---------------------------------------------------------------------------
# Embedding verification


def verify_transversal_embedding(
    gc: GraphCollection, H: PatternGraph, emb: TransversalEmbedding
) -> VerificationReport:
    """Accept iff tau and sigma are injective, tau/sigma cover V(H)/E(H) exactly,
    every pattern edge lands in its assigned colour graph, and marked vertices
    land in their target sets.  Violations are report entries, not faults."""
    bad: list[str] = []
    tau, sigma = emb.tau, emb.sigma
    if set(tau) != set(range(H.n)):
        bad.append(f"tau domain is not V(H): {sorted(tau)}")
    if set(sigma) != set(H.edges()):
        bad.append("sigma domain is not E(H)")
    images = list(tau.values())
    if len(set(images)) != len(images):
        bad.append("tau is not injective")
    for w in images:
        if not 0 <= w < gc.n:
            bad.append(f"tau image {w} outside host vertex range")
    cols = list(sigma.values())
    if len(set(cols)) != len(cols):
        bad.append("sigma is not injective")
    for c in cols:
        if not 0 <= c < gc.n_colours:
            bad.append(f"sigma image {c} outside colour range")
    for (u, v) in H.edges():
        if u not in tau or v not in tau or (u, v) not in sigma:
            continue
        c, a, b = sigma[(u, v)], tau[u], tau[v]
        in_range = 0 <= c < gc.n_colours and 0 <= a < gc.n and 0 <= b < gc.n
        if not in_range or not gc.has_edge(c, a, b):
            bad.append(f"pattern edge ({u},{v}) maps to ({a},{b}) absent from colour {c}")
    if H.targets:
        for x, T in H.targets.items():
            if x in tau and tau[x] not in T:
                bad.append(f"marked vertex {x} embedded at {tau[x]} outside its target set")
    return VerificationReport(ok=not bad, violations=tuple(bad))


def verify_expansion(
    g: ThreeGraph,
    H: SimpleGraph,
    vertex_images: Mapping[int, int],
    edge_images: Mapping[tuple[int, int], int],
) -> VerificationReport:
    """Accept iff the images cover V(H) and E(H) exactly, lie in V(g), are
    pairwise distinct, and every edge uv of H with image c spans the host
    triple {vertex_images[u], vertex_images[v], c}."""
    bad: list[str] = []
    if set(vertex_images) != set(range(H.n)) or set(edge_images) != set(H.edges()):
        bad.append("the images do not cover the pattern")
    images = [*vertex_images.values(), *edge_images.values()]
    if len(set(images)) != len(images) or not all(0 <= w < g.n for w in images):
        bad.append("the expansion map is not injective into V(g)")
    for (u, v), c in edge_images.items():
        if not g.has(vertex_images.get(u, -1), vertex_images.get(v, -1), c):
            bad.append(f"expansion triple of edge ({u},{v}) is missing from the host")
    return VerificationReport(ok=not bad, violations=tuple(bad))


# ---------------------------------------------------------------------------
# Separability


def _components_masks(adj: Sequence[int], alive: int) -> list[int]:
    comps = []
    todo = alive
    while todo:
        low = todo & -todo
        comp = low
        frontier = low
        while frontier:
            nxt = 0
            for v in bits_of(frontier):
                nxt |= adj[v] & alive & ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        todo &= ~comp
    return comps


def _greedy_peel_separator(H: SimpleGraph, limit: int) -> int:
    """Repeatedly remove the vertex of the largest component that peels off
    the most mass into small-enough components, tie-breaking by the smallest
    resulting largest component."""
    n = H.n
    sep = 0
    while sep.bit_count() < limit:
        alive = ((1 << n) - 1) & ~sep
        comps = _components_masks(H._adj, alive)
        big = max(comps, key=lambda m: m.bit_count(), default=0)
        if big.bit_count() <= limit:
            break
        best = None  # (peeled, -worst, -v)
        for v in bits_of(big):
            sub = _components_masks(H._adj, big & ~(1 << v))
            peeled = sum(c.bit_count() for c in sub if c.bit_count() <= limit)
            worst = max((c.bit_count() for c in sub), default=0)
            score = (peeled, -worst, -v)
            if best is None or score > best[0]:
                best = (score, v)
        if best is None:
            break
        sep |= 1 << best[1]
    return sep


def _window_separator(H: SimpleGraph, limit: int, order: Sequence[int], cyclic: bool) -> int | None:
    """Cut bandwidth-wide windows along an ordering, spaced so chunks fit."""
    if H.e == 0:
        return 0
    n = H.n
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    if cyclic:
        b = max(min(abs(pos[u] - pos[v]), n - abs(pos[u] - pos[v])) for u, v in H.edges())
    else:
        b = max(abs(pos[u] - pos[v]) for u, v in H.edges())
    if b == 0 or b > limit:
        return None
    for chunk in range(limit, 0, -1):
        sep = 0
        p = 0 if cyclic else chunk
        count = 0
        while p < n:
            for i in range(p, min(p + b, n)):
                sep |= 1 << order[i]
                count += 1
            p += b + chunk
        if count <= limit:
            return sep
    return None


def _bfs_order(H: SimpleGraph, vertices: Iterable[int]) -> list[int]:
    """Breadth-first order of the subgraph of H induced on ``vertices``: each
    component from its smallest vertex, neighbours in increasing order."""
    adj = H._adj
    todo = mask_of(vertices)
    order: list[int] = []
    head = 0
    while todo:
        low = todo & -todo
        todo ^= low
        order.append(low.bit_length() - 1)
        while head < len(order):
            fresh = adj[order[head]] & todo
            todo ^= fresh
            order.extend(bits_of(fresh))
            head += 1
    return order


def separability_certificate(
    H: SimpleGraph,
    mu: float,
    supplied_separator: Iterable[int] | None = None,
) -> SeparabilityCertificate | NotCertified:
    """Search for a separator X with |X| <= mu*v(H) leaving components of at
    most mu*v(H) vertices.

    Strategies, in order: greedy peeling (remove the vertex of the largest
    component that splits off the most small components, tie-break by the
    smallest resulting largest component), then bandwidth-window cuts along
    the natural and BFS orderings, linear and cyclic.  Every candidate is
    re-validated by a component scan.  A user-supplied separator is validated
    instead of searched.  NotCertified is not a proof of non-separability.
    """
    if not 0 < mu <= 1:
        raise ValueError("mu must lie in (0, 1]")
    n = H.n
    limit = int(mu * n)  # both |X| and component sizes must be <= mu*v(H)
    from fractions import Fraction

    fr = Fraction(str(mu)).limit_denominator(10**6)

    def finish(sep_mask: int) -> SeparabilityCertificate | NotCertified:
        alive = ((1 << n) - 1) & ~sep_mask
        comps = _components_masks(H._adj, alive)
        if sep_mask.bit_count() > limit:
            return NotCertified(f"separator larger than {limit}")
        if any(c.bit_count() > limit for c in comps):
            return NotCertified(f"a component exceeds {limit} vertices")
        return SeparabilityCertificate(
            mu_num=fr.numerator,
            mu_den=fr.denominator,
            separator=tuple(sorted(bits_of(sep_mask))),
            components=tuple(
                tuple(sorted(bits_of(c))) for c in sorted(comps, key=lambda m: -m.bit_count())
            ),
        )

    if supplied_separator is not None:
        return finish(mask_of(supplied_separator))

    candidates: list[int] = [_greedy_peel_separator(H, limit)]
    orders = [list(range(n)), _bfs_order(H, range(n))]
    for order in orders:
        for cyclic in (False, True):
            w = _window_separator(H, limit, order, cyclic)
            if w is not None:
                candidates.append(w)
    for sep in candidates:
        cert = finish(sep)
        if isinstance(cert, SeparabilityCertificate):
            return cert
    return NotCertified("no strategy found a separator within budget")


# ---------------------------------------------------------------------------
# JSON instance formats


def json_loader(load):
    """Make a ``*_from_json`` loader raise ValueError on a document of the
    wrong shape (a list where an object belongs, a string where a number
    belongs, ...), as it does on wrong values; a missing key stays KeyError."""

    @functools.wraps(load)
    def checked(d):
        try:
            return load(d)
        except (TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"{load.__name__}: malformed document: {exc}") from exc

    return checked


def _vertex_count(d: Mapping) -> int:
    """The document's ``n``, which must be a JSON integer: a float, bool or
    string is rejected before anything is sized by it."""
    n = d["n"]
    if type(n) is not int:
        raise ValueError(f"n must be a JSON integer, not {n!r}")
    return n


def collection_to_json(gc: GraphCollection) -> dict:
    d: dict = {
        "n": gc.n,
        "colours": list(gc.colour_names) if gc.colour_names else list(range(gc.n_colours)),
        "edges": {str(c): [list(e) for e in gc.edges(c)] for c in range(gc.n_colours)},
    }
    if gc.bipartition is not None:
        d["bipartition"] = {
            str(c): [sorted(bits_of(a)), sorted(bits_of(b))]
            for c, (a, b) in gc.bipartition.items()
        }
    return d


@json_loader
def collection_from_json(d: Mapping) -> GraphCollection:
    n = _vertex_count(d)
    colours = d["colours"]
    names = [str(c) for c in colours]
    edges = {int(c): [tuple(e) for e in es] for c, es in d.get("edges", {}).items()}
    bip = None
    if "bipartition" in d and d["bipartition"]:
        bip = {int(c): (a, b) for c, (a, b) in d["bipartition"].items()}
    return GraphCollection(n, len(colours), edges, bipartition=bip, colour_names=names)


def pattern_to_json(H: PatternGraph) -> dict:
    d: dict = {"n": H.n, "edges": [list(e) for e in H.edges()]}
    if H.phi is not None:
        d["phi"] = list(H.phi)
    if H.targets:
        d["targets"] = {str(v): sorted(t) for v, t in H.targets.items()}
    return d


@json_loader
def pattern_from_json(d: Mapping) -> PatternGraph:
    return PatternGraph(
        _vertex_count(d),
        [tuple(e) for e in d.get("edges", [])],
        phi=d.get("phi"),
        targets={int(v): t for v, t in d["targets"].items()} if d.get("targets") else None,
    )


def embedding_to_json(emb: TransversalEmbedding) -> dict:
    return {
        "tau": {str(v): int(w) for v, w in emb.tau.items()},
        "sigma": {f"{u},{v}": int(c) for (u, v), c in emb.sigma.items()},
    }


@json_loader
def embedding_from_json(d: Mapping) -> TransversalEmbedding:
    tau = {int(v): int(w) for v, w in d["tau"].items()}
    sigma = {}
    for key, c in d["sigma"].items():
        u, v = (int(x) for x in key.split(","))
        sigma[(u, v) if u < v else (v, u)] = int(c)
    return TransversalEmbedding(tau=tau, sigma=sigma)


def threegraph_to_json(g: ThreeGraph) -> dict:
    d: dict = {"n": g.n, "edges": [list(t) for t in sorted(g.edges)]}
    if g.parts is not None:
        d["parts"] = [list(p) for p in g.parts]
    return d


@json_loader
def threegraph_from_json(d: Mapping) -> ThreeGraph:
    return ThreeGraph(_vertex_count(d), d.get("edges", []), parts=d.get("parts"))
