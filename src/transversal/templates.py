"""R-templates: the transversal analogue of reduced graphs.

A template carries a cluster graph R on [r], disjoint vertex clusters
V_1..V_r, a colour cluster per R-edge, and the collection restricted to each
R-edge's bipartite slice, together with an exact parameter ledger
(m, eps, d, delta).  Templates declare their class (regular / semi-super /
super / half-super) as a promise; validation stamps record how far that
promise has actually been checked (exhaustive / sampled / unchecked), since
exhaustive verification is impossible at pipeline scale and silent trust
would hide failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import GraphCollection, SimpleGraph, json_loader, mask_of
from .regularity import (
    ClassificationReport,
    DensitySpec,
    ParameterLedger,
    RuleInapplicable,
    classify_collection,
    frac,
    ledger_slice,
    sparsify_to_superregular,
)

TEMPLATE_CLASSES = ("regular", "semi-super", "super", "half-super")


class PreconditionViolated(ValueError):
    """A slicing case's size precondition failed."""


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
    stamps: Mapping[str, str] = field(default_factory=dict)

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
    stamps: Mapping[str, str] | None = None,
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
        stamps=dict(stamps or {}),
    )


@dataclass(frozen=True)
class TemplateReport:
    ok: bool
    size_violations: tuple[str, ...]
    rainbow_violations: tuple[str, ...]
    per_edge: Mapping[tuple[int, int], ClassificationReport]
    stamp: str


def validate_template(t: Template, budget: int = 200, seed: int = 0) -> TemplateReport:
    """Check cluster size bands, rainbow disjointness and, per R-edge, the
    declared class via classify_collection.  Aggregates failures; never raises."""
    m = float(t.ledger.m)
    delta = float(t.ledger.delta)
    size_bad: list[str] = []
    for i, cl in enumerate(t.clusters):
        if not (m <= len(cl) <= (m / delta if delta > 0 else float("inf"))):
            size_bad.append(f"cluster {i} size {len(cl)} outside [{m}, {m/delta:.2f}]")
    for e, cs in t.colour_clusters.items():
        if len(cs) < delta * m:
            size_bad.append(f"colour cluster {e} size {len(cs)} < delta*m = {delta*m:.2f}")
    rainbow_bad: list[str] = []
    if t.rainbow:
        seen: dict[int, tuple[int, int]] = {}
        for e, cs in sorted(t.colour_clusters.items()):
            for c in cs:
                if c in seen:
                    rainbow_bad.append(f"colour {c} in clusters {seen[c]} and {e}")
                else:
                    seen[c] = e
    spec = DensitySpec(d=float(t.ledger.d), epsilon=float(t.ledger.eps), mode=t.klass)
    per_edge: dict[tuple[int, int], ClassificationReport] = {}
    stamps = set()
    for (i, j), cs in sorted(t.colour_clusters.items()):
        rep = classify_collection(
            t.gc, t.clusters[i], t.clusters[j], spec,
            budget=budget, seed=seed, colours=cs,
        )
        per_edge[(i, j)] = rep
        stamps.add(rep.stamp)
    ok = not size_bad and not rainbow_bad and all(r.ok for r in per_edge.values())
    stamp = "exhaustive" if stamps == {"exhaustive"} else ("sampled" if stamps else "unchecked")
    return TemplateReport(
        ok=ok,
        size_violations=tuple(size_bad),
        rainbow_violations=tuple(rainbow_bad),
        per_edge=per_edge,
        stamp=stamp,
    )


@dataclass(frozen=True)
class SliceSelection:
    """Sub-clusters and sub-colour-clusters for deterministic slicing cases.

    For the random case (iii) give target sizes instead of explicit sets.
    """

    clusters: Sequence[Iterable[int]] | None = None
    colour_clusters: Mapping[tuple[int, int], Iterable[int]] | None = None
    cluster_sizes: Sequence[int] | None = None
    colour_sizes: Mapping[tuple[int, int], int] | None = None


def _rebuild(t: Template, clusters, colour_clusters, ledger, klass, stamp_note,
             sources=None) -> Template:
    """Template on the (clusters[i], clusters[j], colour cluster) slices,
    each read from ``sources[(i, j)]`` when given, else from t.gc."""
    rows = [[0] * t.gc.n for _ in range(t.gc.n_colours)]
    for (i, j), cs in colour_clusters.items():
        src = sources[(i, j)] if sources else t.gc
        src.add_slice_to(rows, clusters[i], clusters[j], cs)
    gc2 = GraphCollection.from_rows(t.gc.n, rows)
    stamps = dict(t.stamps)
    stamps["last_slice"] = stamp_note
    return make_template(
        t.R, clusters, colour_clusters, gc2, ledger,
        rainbow=t.rainbow, klass=klass, stamps=stamps,
    )


def slice_template(
    t: Template,
    rule: str,
    selection: SliceSelection | None = None,
    alpha: float | None = None,
    k: int = 1,
    eps_prime: float | None = None,
    seed: int = 0,
) -> Template:
    """Template slicing, cases i-iv.

    i:   induced subtemplate, |C'_e| >= alpha|C_e|/k and alpha|V_i| <= |V_i'|
         <= k*alpha|V_i|  ->  (alpha*m, eps/alpha, d/2, delta/k)
    ii:  small deletions, |C_e \\ C'_e| <= alpha*m and |V_i \\ V_i'| <= alpha*m
         ->  (m/2, 2*eps, d/2, delta/2), super-preserving
    iii: uniform random subsets of the given sizes (super in, super out whp)
         ->  (alpha*m, eps/alpha, d^2/16, delta/k)
    iv:  per-edge sparsification of a half-super template into a super one
         ->  (m, eps', d^2/2, delta)
    """
    if rule not in ("i", "ii", "iii", "iv"):
        raise ValueError("rule must be one of 'i'..'iv'")
    ledger = ledger_slice(t.ledger, f"template-{rule}", alpha=alpha, k=k, eps_prime=eps_prime)
    m = float(t.ledger.m)
    if rule in ("i", "ii"):
        if selection is None or selection.clusters is None or selection.colour_clusters is None:
            raise ValueError("cases i and ii need explicit subsets in the selection")
        clusters = [tuple(sorted(c)) for c in selection.clusters]
        ccs = {
            (min(e), max(e)): tuple(sorted(cs))
            for e, cs in selection.colour_clusters.items()
        }
        for i, (old, new) in enumerate(zip(t.clusters, clusters)):
            if not set(new) <= set(old):
                raise PreconditionViolated(f"cluster {i} selection is not a subset")
            if rule == "i":
                if not alpha:
                    raise PreconditionViolated("case i needs alpha")
                if not (alpha * len(old) <= len(new) <= k * alpha * len(old)):
                    raise PreconditionViolated(
                        f"cluster {i}: |V'|={len(new)} outside [{alpha*len(old)}, {k*alpha*len(old)}]"
                    )
            else:
                if len(old) - len(new) > (alpha or 0) * m:
                    raise PreconditionViolated(
                        f"cluster {i}: removed {len(old)-len(new)} > alpha*m"
                    )
        for e, old in t.colour_clusters.items():
            new = ccs.get(e, ())
            if not set(new) <= set(old):
                raise PreconditionViolated(f"colour cluster {e} selection is not a subset")
            if rule == "i":
                if len(new) < alpha * len(old) / k:
                    raise PreconditionViolated(
                        f"colour cluster {e}: {len(new)} < alpha|C_e|/k"
                    )
            else:
                if len(old) - len(new) > (alpha or 0) * m:
                    raise PreconditionViolated(
                        f"colour cluster {e}: removed {len(old)-len(new)} > alpha*m"
                    )
        klass = t.klass if rule == "ii" else "regular"
        return _rebuild(t, clusters, ccs, ledger, klass, f"case {rule}")
    if rule == "iii":
        if t.klass != "super":
            raise RuleInapplicable("case iii requires a super template")
        if selection is None or selection.cluster_sizes is None or selection.colour_sizes is None:
            raise ValueError("case iii needs target sizes in the selection")
        rng = random.Random(seed)
        clusters = []
        for i, cl in enumerate(t.clusters):
            ni = selection.cluster_sizes[i]
            if not (alpha * len(cl) <= ni <= k * alpha * len(cl)):
                raise PreconditionViolated(f"cluster {i}: random size {ni} out of band")
            clusters.append(tuple(sorted(rng.sample(list(cl), ni))))
        ccs = {}
        for e, cs in t.colour_clusters.items():
            he = selection.colour_sizes[(min(e), max(e))]
            if he < alpha * len(cs) / k:
                raise PreconditionViolated(f"colour cluster {e}: random size {he} too small")
            ccs[e] = tuple(sorted(rng.sample(list(cs), he)))
        return _rebuild(t, clusters, ccs, ledger, "super", "case iii (random)")
    # rule == "iv": sparsify each R-edge slice
    if t.klass != "half-super":
        raise RuleInapplicable("case iv sparsifies a half-super template")
    sparse = {
        (i, j): sparsify_to_superregular(
            t.gc, (list(t.clusters[i]), list(t.clusters[j]), list(cs)),
            eps=float(t.ledger.eps), eps_prime=float(eps_prime or t.ledger.eps),
            d=float(t.ledger.d), seed=seed + 7919 * (i * t.r + j),
        )
        for (i, j), cs in sorted(t.colour_clusters.items())
    }
    return _rebuild(t, t.clusters, t.colour_clusters, ledger, "super",
                    "case iv (sparsified)", sparse)


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


@json_loader
def ledger_from_json(d: dict) -> ParameterLedger:
    from .regularity import LineageEntry

    init = d.get("initial") or []
    initial = tuple(frac(x) for x in init[:4]) + ((init[4],) if init else ())
    lineage = tuple(
        LineageEntry(
            rule=e["rule"],
            args=tuple(None if a is None else frac(a) for a in e["args"]),
            params=tuple(frac(x) for x in e["params"]),
            mode=e["mode"],
        )
        for e in d.get("lineage", [])
    )
    return ParameterLedger(
        frac(d["m"]), frac(d["eps"]), frac(d["d"]), frac(d["delta"]),
        mode=d.get("mode"), initial=initial, lineage=lineage,
    )


def template_to_json(t: Template) -> dict:
    from .core import collection_to_json

    return {
        "r": t.r,
        "R_edges": [list(e) for e in t.R.edges()],
        "clusters": [list(c) for c in t.clusters],
        "colour_clusters": {f"{i},{j}": list(cs) for (i, j), cs in sorted(t.colour_clusters.items())},
        "collection": collection_to_json(t.gc),
        "ledger": ledger_to_json(t.ledger),
        "rainbow": t.rainbow,
        "class": t.klass,
        "stamps": dict(t.stamps),
    }


@json_loader
def template_from_json(d: dict) -> Template:
    from .core import collection_from_json

    R = SimpleGraph(int(d["r"]), [tuple(e) for e in d["R_edges"]])
    cc = {}
    for key, cs in d["colour_clusters"].items():
        i, j = (int(x) for x in key.split(","))
        cc[(i, j)] = cs
    return make_template(
        R,
        d["clusters"],
        cc,
        collection_from_json(d["collection"]),
        ledger_from_json(d["ledger"]),
        rainbow=bool(d.get("rainbow", False)),
        klass=d.get("class", "regular"),
        stamps=d.get("stamps"),
    )


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
