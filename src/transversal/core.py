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
import math
import random
import threading
from dataclasses import dataclass
from itertools import chain, islice
from typing import ItemsView, Iterable, Iterator, Mapping, Sequence

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


def masks_of_words(words: np.ndarray) -> list[int]:
    """The bitmasks whose little-endian uint64 words lie along the last axis
    of ``words`` (word j holds bits 64j to 64j + 63), one per row, in row
    order: one ``tolist`` when a mask is one word, else an object-array
    shift-or from the top word down."""
    *lead, width = words.shape
    words = words.reshape(math.prod(lead), width)
    if width <= 1:
        return words[:, 0].tolist() if width else [0] * len(words)
    masks = words[:, -1].astype(object)
    for j in range(width - 2, -1, -1):
        masks <<= 64
        masks |= words[:, j].astype(object)
    return masks.tolist()


def pick_bit(rng, mask: int) -> int:
    """A set bit of the non-zero ``mask`` drawn by ``rng``: the one, and the
    one draw, of ``rng.choice(list(bits_of(mask)))``."""
    for _ in range(rng.randrange(mask.bit_count())):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


# loading a RandomState's state costs about 2,500 plain calls, and building
# one (once per thread) 2,000-8,000 more
_COINS_NUMPY_MIN = 4096
_THREAD = threading.local()  # the calling thread's RandomState for _coins


def _coins(rng: random.Random, k: int) -> np.ndarray:
    """The next k values of ``rng.random()``, with ``rng`` left where k calls
    would leave it.  Below ``_COINS_NUMPY_MIN`` they are k plain calls;
    above, one call: both generators are MT19937 and RandomState's
    ``random_sample`` builds the same 53-bit doubles as ``random.random``,
    and NEP 19 freezes that stream, so the values do not depend on the numpy
    version.  Each thread keeps one RandomState, built on its first such
    call; every call overwrites its whole state before drawing, so no draw
    depends on an earlier caller."""
    if k < _COINS_NUMPY_MIN:
        draw = rng.random
        return np.fromiter([draw() for _ in range(k)], float, k)
    version, internal, gauss = rng.getstate()
    mt = getattr(_THREAD, "mt", None)
    if mt is None:
        mt = _THREAD.mt = np.random.RandomState()
    mt.set_state(("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]))
    out = mt.random_sample(k)
    _, key, pos, *_ = mt.get_state()
    rng.setstate((version, (*key.tolist(), pos), gauss))
    return out


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
            if (later := adj[u] & (inside >> (u + 1) << (u + 1)))  # skip u with no later neighbour
            for v in bits_of(later)
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
        "_row_cache",
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
        self._row_cache: dict[int, int] = {}
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
        gc._ecount = tuple(sum(map(int.bit_count, r)) // 2 for r in rows)
        return gc

    @property
    def colours(self) -> range:
        return range(self.n_colours)

    def adj(self, c: int, v: int) -> int:
        return self._adj[c][v]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The adjacency bitmasks: ``rows[c][v]`` is v's row in colour c."""
        return self._adj

    def total_degrees(self) -> list[int]:
        """Each vertex's sum of deg_{G_c}(v) over all colours, its 3-graph
        degree, in one pass over the colour rows."""
        degrees = map(sum, zip(*(map(int.bit_count, rows) for rows in self._adj)))
        return list(degrees) if self.n_colours else [0] * self.n

    def has_edge(self, c: int, u: int, v: int) -> bool:
        return bool(self._adj[c][u] >> v & 1)

    def degree_into(self, v: int, mask: int, colours: Iterable[int]) -> int:
        """Sum over ``colours`` of v's neighbours inside the vertex ``mask``:
        v's degree into mask in the 3-graph view restricted to those colours."""
        adj = self._adj
        return sum((adj[c][v] & mask).bit_count() for c in colours)

    def degree_reaches(self, v: int, mask: int, colours: Iterable[int], thr: float) -> bool:
        """:meth:`degree_into` >= ``thr``, summing colours only until it holds."""
        adj, total = self._adj, 0
        for c in colours:
            total += (adj[c][v] & mask).bit_count()
            if total >= thr:
                return True
        return total >= thr

    def colour_word(self, colours: Iterable[int]) -> int:
        """Colour c as bit c * n, so ``mask * word`` puts mask in each colour's field."""
        return mask_of(c * self.n for c in colours)

    def degree_screen(self, cands: int, mask: int, word: int, thr: float) -> int:
        """The vertices of ``cands`` whose :meth:`degree_into` ``mask`` over the
        colours of ``word`` (a :meth:`colour_word`) is at least ``thr``: one AND
        and one popcount per vertex on its packed row (its adjacency in every
        colour, one n-bit field each), built on its first screen and cached."""
        n, rows = self.n, self._row_cache
        spread = (mask & (1 << n) - 1) * word
        keep = cands
        while cands:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            row = rows.get(v)
            if row is None:
                row = rows[v] = sum(a[v] << c * n for c, a in enumerate(self._adj))
            if (row & spread).bit_count() < thr:
                keep ^= low
        return keep

    def colour_screen(self, v: int, colours: int, mask: int, thr: float) -> int:
        """The colours of the bitmask ``colours`` in which v has at least
        ``thr`` neighbours inside the vertex ``mask``."""
        adj, keep = self._adj, colours
        while colours:
            low = colours & -colours
            colours ^= low
            if (adj[low.bit_length() - 1][v] & mask).bit_count() < thr:
                keep ^= low
        return keep

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

    The rows (an iterable, or an integer ``k x 3`` array) are checked with
    numpy in chunks of ``_CHUNK_ROWS``; a bad row raises ``ValueError``
    naming the first bad row in input order.  With ``n**3`` below
    ``_TABLE_CELLS`` and at least ``n**3 / _TABLE_FILL`` rows (or rows of
    unknown count), the chunks' incidences are scattered into one bool
    table that is packed into the masks at the end; otherwise each chunk's
    are sorted and grouped into mask words, in O(e) memory.
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
        width = (n + 63) & ~63  # the table's rows pack into whole words
        # an iterator's row count is unknown, so it is not taken for sparse
        sparse = hasattr(edges, "__len__") and len(edges) * _TABLE_FILL < n**3
        table = np.zeros(n * n * width, bool) if 0 < n**3 < _TABLE_CELLS and not sparse else None
        # bounded chunks keep the numpy temporaries small; rebuilding a mask
        # bit is idempotent, so chunks need no dedup between them
        if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (3,):
            chunks = (edges[s : s + _CHUNK_ROWS] for s in range(0, len(edges), _CHUNK_ROWS))
        else:  # any other array is read as its rows of Python scalars, like a list
            rows = iter(edges.tolist() if isinstance(edges, np.ndarray) else edges)
            chunks = iter(lambda: list(islice(rows, _CHUNK_ROWS)), [])
        for chunk in chunks:
            arr = isinstance(chunk, np.ndarray)
            # a uint64 vertex of 2**63 or more wraps negative, so fails the range check
            t = chunk.astype(np.int64, copy=False) if arr else _int_rows(chunk)
            if t is None:
                raise _first_bad_row(chunk, n)
            # sort each triple by a min/max network; a < b < c also rules out repeats
            x, y, z = t.T
            lo, hi = np.minimum(x, y), np.maximum(x, y)
            a, b, c = np.minimum(lo, z), np.maximum(lo, np.minimum(hi, z)), np.maximum(hi, z)
            if not ((0 <= a) & (a < b) & (b < c) & (c < n)).all():
                # as Python ints, the rows read as they did in the file
                raise _first_bad_row((chunk if arr else t).tolist(), n)
            if table is None:
                for key, word, bits in zip(*_pair_words(a, b, c, n)):
                    pairs[key] = get(key, 0) | bits << (word << 6)
            else:  # cell (pair uv, third w) of each of the edge's three incidences
                for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
                    table[(u * n + v) * width + w] = True
        self.n = n
        if table is None:
            # each edge abc is counted once, in the mask of ab, as the bit c above b
            self.e = sum((m >> key % n >> 1).bit_count() for key, m in pairs.items())
            pairs = dict(sorted(pairs.items()))  # in key order, as the table route's
        else:
            self.e = int(np.count_nonzero(table)) // 3
            rows = np.packbits(table.reshape(n * n, width), axis=1, bitorder="little").view("<u8")
            del table  # freed before the masks are built
            keys = np.flatnonzero(rows.any(axis=1))
            pairs = dict(zip(keys.tolist(), masks_of_words(rows[keys])))
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

    def pair_masks(self) -> ItemsView[int, int]:
        """The table's ``(u * n + v, mask)`` items in key order (both build
        routes keep it), a canonical form of the edge set: a read-only view,
        whose ``mapping`` reads the keys and masks without pairing them."""
        return self._pairs.items()

    def degrees(self) -> list[int]:
        """Every vertex's degree, in one pass over the pair masks."""
        twice = [0] * self.n
        for key, m in self._pairs.items():
            u, v = divmod(key, self.n)
            # each edge uvw is seen twice at v, in the masks of uv and of vw
            twice[u] += m.bit_count()
            twice[v] += m.bit_count()
        return [d // 2 for d in twice]

    def has(self, a: int, b: int, c: int) -> bool:
        """True when abc is a 3-edge; False for repeated or out-of-range vertices."""
        a, b, c = sorted((a, b, c))
        return 0 <= a and c < self.n and bool(self._pairs.get(a * self.n + b, 0) >> c & 1)

    def link_collection(self, v_side: Sequence[int], c_side: Sequence[int]) -> GraphCollection:
        """Collection whose colour j is the link graph of vertex ``c_side[j]``
        restricted to ``v_side``, reindexed: ij is an edge of colour j iff
        ``{v_side[i], v_side[j'], c_side[j]}`` is a 3-edge.  The sides are
        disjoint lists of distinct vertices of this 3-graph."""
        n, get, k = self.n, self._pairs.get, len(v_side)
        nb, kb = (n + 7) // 8, (k + 7) // 8
        kw = (k + 63) // 64  # words per link row
        keys = [u * n + c if u < c else c * n + u for c in c_side for u in v_side]
        cols = np.array(v_side, dtype=np.intp)
        flat = []  # the rows of every colour, end to end
        # each pair mask unpacks to n bytes, so a chunk holds _CHUNK_BYTES / n masks
        step = max(1, _CHUNK_BYTES // (8 * nb))
        for s in range(0, len(keys), step):
            raw = b"".join(get(key, 0).to_bytes(nb, "little") for key in keys[s : s + step])
            masks = np.frombuffer(raw, np.uint8).reshape(-1, nb)
            bits = np.unpackbits(masks, axis=1, bitorder="little")
            words = np.zeros((len(masks), 8 * kw), np.uint8)
            words[:, :kb] = np.packbits(bits[:, cols], axis=1, bitorder="little")
            flat += masks_of_words(words.view("<u8"))
        return GraphCollection.from_rows(k, [flat[j * k : j * k + k] for j in range(len(c_side))])

    def __eq__(self, other):
        return (
            isinstance(other, ThreeGraph)
            and self.n == other.n
            and self._pairs == other._pairs
        )

    def __repr__(self):
        return f"ThreeGraph(n={self.n}, e={self.e})"


_CHUNK_ROWS = 1 << 14  # rows per chunk of the ThreeGraph build
_TABLE_CELLS = 1 << 22  # a ThreeGraph with n**3 below this is built in a bool table (n <= 161)
_TABLE_FILL = 1 << 10  # ... unless it has fewer than n**3 / _TABLE_FILL rows, which sort faster
_CHUNK_BYTES = 1 << 20  # unpacked pair-mask bytes per chunk of a link collection


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
        return f"3-edge {t} has {len(t)} vertices, not 3"
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


class UnverifiedOutput(AssertionError):
    """An entry point's own check rejected the output it built: a defect in
    the library, never a property of the input.  Raised by explicit checks,
    so it also fires under ``python -O``."""


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class SeparabilityCertificate:
    """A separator X plus the component list of H - X, both of size <= mu*v(H)."""

    separator: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


class NotCertified:
    """No certificate: a proof of non-separability only if ``reason`` says so."""

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


def _greedy_peel_separator(H: SimpleGraph, limit: int, comps: list[int]) -> int:
    """Repeatedly remove the vertex of the largest component that peels off
    the most mass into small-enough components, tie-breaking by the smallest
    resulting largest component.  ``comps`` are H's components."""
    n = H.n
    sep = 0
    while sep.bit_count() < limit:
        if sep:
            comps = _components_masks(H._adj, ((1 << n) - 1) & ~sep)
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


def _separator_lower_bound(H: SimpleGraph, limit: int, comps: list[int]) -> int:
    """Vertices that any X leaving components of at most ``limit`` vertices
    has: each component of C - X, for C one of H's components ``comps``
    larger than limit, touches X, so |C| <= |X & C| * (1 + Delta(H) * limit)."""
    per = 1 + H.max_degree * limit
    return sum(-(-k // per) for c in comps if (k := c.bit_count()) > limit)


def separability_certificate(
    H: SimpleGraph,
    mu: float,
    supplied_separator: Iterable[int] | None = None,
) -> SeparabilityCertificate | NotCertified:
    """Search for a separator X with |X| <= mu*v(H) leaving components of at
    most mu*v(H) vertices.

    One scan of H's components gives X = {} when each fits; else it feeds a
    counting bound (:func:`_separator_lower_bound`), whose NotCertified above
    mu*v(H) says it is a proof, and the greedy peel's first round.  The
    strategies run lazily until a component scan validates one: greedy
    peeling (remove the vertex of the largest component that splits off the
    most small components, tie-break by the smallest resulting largest
    component), then bandwidth-window cuts along the natural and BFS
    orderings, linear and cyclic, built only when the peel fails.  A
    user-supplied separator is validated instead of searched.
    """
    if not 0 < mu <= 1:
        raise ValueError("mu must lie in (0, 1]")
    n = H.n
    limit = int(mu * n)  # both |X| and component sizes must be <= mu*v(H)

    def finish(sep_mask: int, comps=None) -> SeparabilityCertificate | NotCertified:
        if comps is None:
            comps = _components_masks(H._adj, ((1 << n) - 1) & ~sep_mask)
        if sep_mask.bit_count() > limit:
            return NotCertified(f"separator larger than {limit}")
        if any(c.bit_count() > limit for c in comps):
            return NotCertified(f"a component exceeds {limit} vertices")
        return SeparabilityCertificate(
            separator=tuple(sorted(bits_of(sep_mask))),
            components=tuple(
                tuple(sorted(bits_of(c))) for c in sorted(comps, key=lambda m: -m.bit_count())
            ),
        )

    if supplied_separator is not None:
        return finish(mask_of(supplied_separator))
    comps = _components_masks(H._adj, (1 << n) - 1)
    if all(c.bit_count() <= limit for c in comps):
        return finish(0, comps)
    if (need := _separator_lower_bound(H, limit, comps)) > limit:
        return NotCertified(f"proof: a separator leaving no component above {limit} "
                            f"vertices has at least {need} > {limit}")

    def candidates() -> Iterator[int | None]:
        yield _greedy_peel_separator(H, limit, comps)
        for bfs in (False, True):
            order = _bfs_order(H, range(n)) if bfs else list(range(n))
            for cyclic in (False, True):
                yield _window_separator(H, limit, order, cyclic)

    for sep in candidates():
        if sep is not None and (cert := finish(sep)):
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
    """The document's ``n``, which must be a non-negative JSON integer: a
    float, bool, string or negative number is rejected before anything is
    sized by it."""
    n = d["n"]
    if type(n) is not int:
        raise ValueError(f"n must be a JSON integer, not {n!r}")
    if n < 0:
        raise ValueError(f"n must be non-negative, not {n}")
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


_MAX_DIGITS = 18  # every decimal of 18 digits fits in int64


def threegraph_from_bytes(raw: bytes) -> ThreeGraph | None:
    """The 3-graph of a file holding ``{"n": N, "edges": [[a, b, c], ...]}``
    and nothing else (either key order, any JSON whitespace, every number a
    non-negative integer of at most ``_MAX_DIGITS`` digits without a leading
    zero), read into int64 rows in chunks of about ``_CHUNK_ROWS`` rows with
    no Python lists; None for any other file, which is left to
    :func:`threegraph_from_json`.  A bad row raises the same ``ValueError``."""
    digit = (np.frombuffer(raw, np.uint8) - 48) < 10  # other bytes wrap round to 10 or more
    runs = np.count_nonzero(digit[1:] > digit[:-1]) + digit[:1].sum()
    del digit
    s = raw.translate(None, b" \t\n\r")  # JSON's whitespace
    if s.startswith(b'{"n":'):
        i = s.find(b",")
        num, lo, end = s[5:i], i + 10, len(s) - 2
        ok = s[i : i + 10] == b',"edges":[' and s.endswith(b"]}")
    else:
        i = s.rfind(b'],"n":')
        num, lo, end = s[i + 6 : -1], 10, i
        ok = i >= 10 and s.startswith(b'{"edges":[') and s.endswith(b"}")
    # whitespace may not split a key (nor, below, join two numbers); "edges" may not end in ","
    if not (ok and b'"n"' in raw and b'"edges"' in raw and num.isdigit()
            and len(num) <= _MAX_DIGITS and (len(num) == 1 or num[0] != 48)
            and not s.endswith(b",", lo, end)):
        return None
    out = np.empty(((runs - 1) // 3, 3), np.int64)  # a row for each 3 digit runs after n's
    r = 0
    while lo < end:  # rows s[lo:end], each "[a,b,c]", then the "]" of "edges"
        hi = s.find(b"],", lo + 8 * _CHUNK_ROWS, end)  # a row takes at least 8 bytes
        hi = end + 1 if hi < 0 else hi + 2
        t = _digit_rows(np.frombuffer(s, np.uint8, hi - lo, lo))
        if t is None or r + len(t) > len(out):
            return None
        out[r : r + len(t)], r, lo = t, r + len(t), hi
    del s  # the parse's buffers are freed before the build
    # as many digit runs in the file as numbers read: whitespace joined none
    return ThreeGraph(int(num), out) if runs == 3 * r + 1 else None


def _digit_rows(buf: np.ndarray) -> np.ndarray | None:
    """The rows ``[a,b,c]`` of ``buf``, each followed by one more byte
    (``,``, or the ``]`` that closes ``edges``), as a k x 3 integer array;
    None unless every row and number is one :func:`threegraph_from_bytes` takes.
    The shape is checked where the digit runs stop: 3k runs, the last
    ending 2 bytes before the end; ``,`` ``,`` ``]`` after a row's numbers,
    then ``,[`` unless the row is the last; ``[`` first; 5k non-digit bytes,
    so none but those named: the gaps between runs are 1, 1, 3."""
    d = buf - 48  # a digit's value; other bytes wrap round to 10 or more
    digit = d < 10
    last = np.flatnonzero(digit[:-1] > digit[1:])  # each number's last digit
    k, odd = divmod(len(last), 3)
    after = buf[last + 1]  # the byte after each number
    if (odd or not k or buf[0] != 91 or digit[-1] or last[-1] != len(buf) - 3
            or np.count_nonzero(digit) != len(buf) - 5 * k
            or (after[2::3] != 93).any() or np.count_nonzero(after == 44) != 2 * k
            or (buf[last[2:-1:3] + 2] != 44).any() or (buf[last[2:-1:3] + 3] != 91).any()
            or ((buf[1:-1] == 48) & ~digit[:-2] & digit[2:]).any()):  # a leading zero
        return None
    pair = d * digit  # 0 for every byte that is no digit
    pair[1:] += pair[:-1] * 10  # at a number's last digit, the value of its last two
    value = pair.take(last)
    if (digit[:-2] & digit[1:-1] & digit[2:]).any():  # a number of three digits or more
        width = last - np.flatnonzero(digit[1:] > digit[:-1])
        if (w := int(width.max())) > _MAX_DIGITS:
            return None
        for back in range(2, w, 2):  # two digits more, where a number has them
            more = np.where(width > back, pair.take(last - back), 0).astype(np.int64)
            value = value + more * 10**back
    return value.reshape(-1, 3)
