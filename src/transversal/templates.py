"""R-templates: the transversal analogue of reduced graphs.

A template carries a cluster graph R on [r], disjoint vertex clusters
V_1..V_r, a colour cluster per R-edge, and the collection restricted to each
R-edge's bipartite slice, together with an exact parameter ledger
(m, eps, d, delta).  Templates declare their class (regular / semi-super /
super / half-super) as a promise that is not checked here; the embedding
stages check the floors they rely on, and every embedding is verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import GraphCollection, SimpleGraph, mask_of
# unused here, but perfbench/layers.py also patches the sparsifier at this name
from .regularity import ParameterLedger, sparsify_to_superregular  # noqa: F401

TEMPLATE_CLASSES = ("regular", "semi-super", "super", "half-super")


@dataclass(frozen=True)
class Template:
    """(R, clusters, colour clusters, collection) with a parameter ledger."""

    R: SimpleGraph
    clusters: tuple[tuple[int, ...], ...]
    colour_clusters: Mapping[tuple[int, int], tuple[int, ...]]
    gc: GraphCollection
    ledger: ParameterLedger
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
            if not self.R.has_edge(i, j):
                raise ValueError(f"colour cluster for non-edge {e} of R")

    @property
    def r(self) -> int:
        return self.R.n

    def colours_of_edge(self, i: int, j: int) -> tuple[int, ...]:
        return self.colour_clusters[(i, j) if i < j else (j, i)]

    def all_colours(self) -> list[int]:
        out: set[int] = set()
        for cs in self.colour_clusters.values():
            out.update(cs)
        return sorted(out)


def make_template(
    R: SimpleGraph,
    clusters: Sequence[Iterable[int]],
    colour_clusters: Mapping[tuple[int, int], Iterable[int]],
    gc: GraphCollection,
    ledger: ParameterLedger,
    rainbow: bool = False,
    klass: str = "regular",
) -> Template:
    cc = {
        (min(e), max(e)): tuple(sorted(cs)) for e, cs in colour_clusters.items()
    }
    return Template(
        R=R,
        clusters=tuple(tuple(sorted(c)) for c in clusters),
        colour_clusters=cc,
        gc=gc,
        ledger=ledger,
        rainbow=rainbow,
        klass=klass,
    )


def ledger_to_json(ledger: ParameterLedger) -> dict:
    return {
        "m": str(ledger.m),
        "eps": str(ledger.eps),
        "d": str(ledger.d),
        "delta": str(ledger.delta),
        "mode": ledger.mode,
        "initial": [str(x) for x in ledger.initial[:4]] + [ledger.initial[4]]
        if ledger.initial
        else [],
        "lineage": [
            {
                "rule": e.rule,
                "args": [None if a is None else str(a) for a in e.args],
                "params": [str(x) for x in e.params],
                "mode": e.mode,
            }
            for e in ledger.lineage
        ],
    }


@dataclass(frozen=True)
class ThickGraph:
    """Pairs lying in at least lam*|C_ij| of their cluster pair's colours."""

    lam: float
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
    lam*|pools[(i, j)]| colours of that pool."""
    edges = []
    for (i, j), pool in pools.items():
        need = lam * len(pool)
        cmask = mask_of(pool)
        for u in parts[i]:
            for v in parts[j]:
                if (gc.colour_mask(u, v) & cmask).bit_count() >= need:
                    edges.append((u, v))
    return SimpleGraph(gc.n, edges)


def thick_graph(t: Template, lam: float) -> ThickGraph:
    """Exact threshold graph; when the template is semi-super and lam << d the
    per-slice min degree should be >= (d/2)|V_j| (checked, reported if violated)."""
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0,1)")
    g = thick_host_graph(t.gc, t.clusters, t.colour_clusters, lam)
    d = float(t.ledger.d)
    viol = []
    if t.klass in ("semi-super", "super"):
        for i, j in sorted(t.colour_clusters):
            for side, other in ((i, j), (j, i)):
                floor = d / 2 * len(t.clusters[other])
                other_mask = mask_of(t.clusters[other])
                for u in t.clusters[side]:
                    deg = (g.adj(u) & other_mask).bit_count()
                    if deg < floor:
                        viol.append((side, u, deg, floor))
    return ThickGraph(
        lam=lam, graph=g, min_degree_ok=not viol, min_degree_violations=tuple(viol)
    )
