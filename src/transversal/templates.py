"""R-templates: the transversal analogue of reduced graphs.

A template carries disjoint vertex clusters V_1..V_r, a colour cluster per
edge of the cluster graph R on [r] (R's edges are the keys of
``colour_clusters``), the collection restricted to each R-edge's bipartite
slice, and the exact numbers d, eps and m that its embedders read.
Templates declare their class (regular / semi-super / super / half-super) as
a promise that is not checked here; the embedding stages check the floors
they rely on, and every embedding is verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .core import GraphCollection, SimpleGraph, mask_of
# sparsify_to_superregular is unused here, but perfbench/layers.py also
# patches the sparsifier at this name
from .regularity import frac, sparsify_to_superregular  # noqa: F401

TEMPLATE_CLASSES = ("regular", "semi-super", "super", "half-super")


@dataclass(frozen=True)
class Template:
    """(clusters, colour clusters, collection) with exact d, eps and m."""

    clusters: tuple[tuple[int, ...], ...]
    colour_clusters: Mapping[tuple[int, int], tuple[int, ...]]
    gc: GraphCollection
    d: Fraction
    eps: Fraction
    m: Fraction
    rainbow: bool = False
    klass: str = "regular"

    def __post_init__(self):
        if self.klass not in TEMPLATE_CLASSES:
            raise ValueError(f"unknown template class {self.klass!r}")
        seen: set[int] = set()
        for cl in self.clusters:
            if seen & set(cl):
                raise ValueError("vertex clusters must be disjoint")
            seen.update(cl)
        for e in self.colour_clusters:
            i, j = e
            if not 0 <= i < j < self.r:
                raise ValueError(f"colour cluster key {e} is not a pair i < j < r = {self.r}")

    @property
    def r(self) -> int:
        return len(self.clusters)

    @cached_property
    def cluster_masks(self) -> tuple[int, ...]:
        return tuple(map(mask_of, self.clusters))

    @cached_property
    def colour_cluster_masks(self) -> dict[tuple[int, int], int]:
        return {e: mask_of(cs) for e, cs in self.colour_clusters.items()}

    @cached_property
    def colour_cluster_words(self) -> dict[tuple[int, int], int]:  # see gc.colour_word
        return {e: self.gc.colour_word(cs) for e, cs in self.colour_clusters.items()}

    def colours_of_edge(self, i: int, j: int) -> tuple[int, ...]:
        return self.colour_clusters[(i, j) if i < j else (j, i)]

    def all_colours(self) -> list[int]:
        out: set[int] = set()
        for cs in self.colour_clusters.values():
            out.update(cs)
        return sorted(out)


def make_template(
    clusters: Sequence[Iterable[int]],
    colour_clusters: Mapping[tuple[int, int], Iterable[int]],
    gc: GraphCollection,
    d,
    eps,
    m,
    rainbow: bool = False,
    klass: str = "regular",
) -> Template:
    """The template with sorted clusters, colour clusters keyed (i, j) with
    i < j, and d, eps and m as exact fractions (``regularity.frac``)."""
    cc = {
        (min(e), max(e)): tuple(sorted(cs)) for e, cs in colour_clusters.items()
    }
    return Template(
        clusters=tuple(tuple(sorted(c)) for c in clusters),
        colour_clusters=cc,
        gc=gc,
        d=frac(d),
        eps=frac(eps),
        m=frac(m),
        rainbow=rainbow,
        klass=klass,
    )


@dataclass(frozen=True)
class ThickGraph:
    """Pairs lying in at least lam*|C_ij| of their cluster pair's colours,
    for the ``lam`` given to :func:`thick_graph`."""

    graph: SimpleGraph
    min_degree_ok: bool
    min_degree_violations: tuple[tuple[int, int, int, float], ...]


def thick_host_graph(
    gc: GraphCollection,
    parts: Sequence[Sequence[int]],
    pools: Mapping[tuple[int, int], Sequence[int]],
    lam: float,
) -> SimpleGraph:
    """The lam-thick graph: for each (i, j) in ``pools``, the pairs u in
    parts[i], v in parts[j] whose colour multiset meets at least
    lam*|pools[(i, j)]| colours of that pool, counted only until that many
    are found (so every pair is an edge when lam*|pool| <= 0)."""
    edges = []
    for (i, j), pool in pools.items():
        need = lam * len(pool)
        rows = [gc.rows[c] for c in pool]
        for u in parts[i]:
            for v in parts[j]:
                found = 0
                for row in rows:
                    found += row[u] >> v & 1
                    if found >= need:
                        break
                if found >= need:
                    edges.append((u, v))
    return SimpleGraph(gc.n, edges)


def thick_graph(t: Template, lam: float) -> ThickGraph:
    """Exact threshold graph; when the template is semi-super and lam << d the
    per-slice min degree should be >= (d/2)|V_j| (checked, reported if violated)."""
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0,1)")
    g = thick_host_graph(t.gc, t.clusters, t.colour_clusters, lam)
    d = float(t.d)
    viol = []
    if t.klass in ("semi-super", "super"):
        for i, j in sorted(t.colour_clusters):
            for side, other in ((i, j), (j, i)):
                floor = d / 2 * len(t.clusters[other])
                for u in t.clusters[side]:
                    deg = (g.adj(u) & t.cluster_masks[other]).bit_count()
                    if deg < floor:
                        viol.append((side, u, deg, floor))
    return ThickGraph(graph=g, min_degree_ok=not viol, min_degree_violations=tuple(viol))
