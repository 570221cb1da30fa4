"""Embedding procedures: partial embedding with candidate sets, prescribed
colours via induced matchings, the classical blow-up embedder, the chunked
extra-colours embedder, colour absorbers, the transversal blow-up pipeline
and the two applications (uniformly dense collections, 1-expansions in
3-graphs).

Every success returned by any routine here carries a verification stamp from
the core verifier (or a structural check for the uncoloured blow-up); there
is no way to construct an unverified success.  Probabilistic "we may assume"
steps from the underlying analysis become check-and-retry loops with typed
failures when the budget runs out, since concentration events can fail at
small scale.  All randomness flows through explicit seeds; identical
(instance, params, seed) gives identical outcomes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .core import (
    GraphCollection,
    PatternGraph,
    SeparabilityCertificate,
    SimpleGraph,
    ThreeGraph,
    TransversalEmbedding,
    VerificationReport,
    _bfs_order,
    bits_of,
    mask_of,
    separability_certificate,
    verify_expansion,
    verify_transversal_embedding,
)
from .matching import max_bipartite_matching, perfect_matching
from .regularity import frac, make_ledger
from .templates import Template, ledger_to_json, make_template, thick_host_graph
from .vizing import extract_matching

# failure reason tags
CANDIDATE_EXHAUSTED = "CandidateExhausted"
MATCHING_TOO_SMALL = "MatchingTooSmall"
EMBEDDING_FAILED = "EmbeddingFailed"
CHUNKING_FAILED = "ChunkingFailed"
CHERNOFF_RETRY_EXHAUSTED = "ChernoffRetryExhausted"
COLOUR_EXHAUSTED = "ColourExhausted"
ABSORBER_UNVERIFIABLE = "AbsorberUnverifiable"
PRECONDITION = "PreconditionViolated"
PADDING_IMPOSSIBLE = "PaddingImpossible"
UNBALANCEABLE = "Unbalanceable"


def _mix(seed: int, *tags: int) -> int:
    h = seed & 0xFFFFFFFF
    for t in tags:
        h = (h * 1_000_003 ^ (t & 0xFFFFFFFF)) & 0xFFFFFFFF
    return h


def _retry(seed: int, tag: int, budget: int, default: Failure, attempt):
    """The one check-and-retry loop: call ``attempt(sub_seed, k)`` with
    ``sub_seed = _mix(seed, tag, k)`` for k = 0, 1, ... until it returns
    something other than a ``Failure``, and return that with the number of
    attempts made.  When the budget runs out, return the last failure
    (``default`` if no attempt ran) and the budget."""
    out = default
    for k in range(budget):
        out = attempt(_mix(seed, tag, k), k)
        if not isinstance(out, Failure):
            return out, k + 1
    return out, budget


@dataclass(frozen=True)
class SplitPlan:
    """Concrete constants replacing the paper-style parameter hierarchy.

    The analysis only fixes the order of quantifiers; desk-scale runs need
    numbers.  Honesty is preserved because every output is verified and every
    failed assumption surfaces as a typed failure.  All fields overridable.
    """

    eps: float = 0.05
    mu: float = 0.1
    alpha: float = 0.05
    lambda1: float = 0.1
    lambda3: float = 0.2
    nu_prime: float = 0.1
    zeta: float = 0.1
    p_abs: float = 0.05
    p_col: float = 0.08
    p_vx: float = 0.15
    gamma: float = 0.1
    mu_prime: float = 0.05
    lambda_thick: float = 0.05
    ladder_base: float = 0.02
    ladder_ratio: float = 3.0
    retries: int = 20
    blowup_restarts: int = 30
    blowup_reserve: float = 0.25
    approx_retries: int = 10
    absorber_retries: int = 30
    absorber_exhaustive_cap: int = 100_000
    absorber_samples: int = 200

    @property
    def p_app(self) -> float:
        return 1.0 - (self.p_vx + self.p_abs + self.p_col)

    def delta_ladder(self, level: int) -> float:
        return self.ladder_base * self.ladder_ratio**level

    def __post_init__(self):
        for p in (self.p_abs, self.p_col, self.p_vx):
            if not 0 < p < 1:
                raise ValueError("split probabilities must lie in (0,1)")
        if self.p_app <= 0:
            raise ValueError("p_app must stay positive")
        if self.ladder_ratio <= 1:
            raise ValueError("the delta ladder must be strictly increasing")


class UnverifiedOutput(AssertionError):
    """An entry point's own check rejected the output it built: a defect in
    the library, never a property of the input.  Raised by explicit checks,
    so it also fires under ``python -O``."""


class Failure:
    """Typed pipeline failure: stage, reason tag, seed, free-form diagnostics."""

    __slots__ = ("stage", "reason", "seed", "diagnostics")

    def __init__(self, stage: str, reason: str, seed: int, diagnostics: dict | None = None, **diag):
        self.stage = stage
        self.reason = reason
        self.seed = seed
        self.diagnostics = dict(diagnostics or {})
        self.diagnostics.update(diag)

    def with_stage(self, stage: str) -> "Failure":
        return Failure(stage, self.reason, self.seed, self.diagnostics)

    def __str__(self):
        return f"[{self.stage}] {self.reason}: {self.diagnostics}"

    def __repr__(self):
        return f"Failure({self.stage!r}, {self.reason!r}, seed={self.seed}, {self.diagnostics})"


@dataclass
class EmbedOutcome:
    embedding: TransversalEmbedding | None
    failure: Failure | None
    verification: VerificationReport | None
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.embedding is not None

    @classmethod
    def success(cls, gc: GraphCollection, H: PatternGraph, tau, sigma, stats=None, view=None):
        """The embedding (tau, sigma) of H with its verification report;
        raises UnverifiedOutput if the verifier rejects it.  With a
        ``_PatternView`` of H, the check runs on the view's relabelled
        pattern instead."""
        emb = TransversalEmbedding(tau=dict(tau), sigma=dict(sigma))
        pattern, checked = (H, emb) if view is None else (view.pattern, _relabel(view, emb))
        rep = verify_transversal_embedding(gc, pattern, checked)
        if not rep.ok:
            raise UnverifiedOutput(
                f"constructed embedding failed verification: {rep.violations}"
            )
        return cls(embedding=emb, failure=None, verification=rep, stats=stats or {})

    @classmethod
    def fail(cls, stage: str, reason: str, seed: int, stats=None, **diag):
        return cls(
            embedding=None,
            failure=Failure(stage=stage, reason=reason, seed=seed, diagnostics=diag),
            verification=None,
            stats=stats or {},
        )


# ---------------------------------------------------------------------------
# Equitable colouring


@dataclass
class EquitableColouring:
    parts: tuple[tuple[int, ...], ...]
    proper: bool
    balanced: bool
    rounds: int


def equitable_colouring(H: SimpleGraph, r: int, seed: int = 0, cap: int | None = None) -> EquitableColouring:
    """Proper colouring into r >= Delta+1 independent sets with sizes differing
    by at most one: greedy assignment plus iterative balancing moves (single
    moves, then two-step chains), with internal restarts.  If the round cap
    is exceeded the best colouring found is returned with balanced=False."""
    if r < H.max_degree + 1:
        raise ValueError("need r >= Delta(H) + 1 colour classes")
    cap = cap if cap is not None else 12 * H.n + 60
    best: list[list[int]] | None = None
    rounds_used = 0
    for restart in range(8):
        rng = random.Random(_mix(seed, 11, restart))
        order = sorted(range(H.n), key=lambda v: (-H.degree(v), v))
        if restart:
            rng.shuffle(order)
        cls = [-1] * H.n
        parts: list[set[int]] = [set() for _ in range(r)]
        for v in order:
            blocked = {cls[w] for w in H.neighbours(v) if cls[w] >= 0}
            choice = min(
                (k for k in range(r) if k not in blocked),
                key=lambda k: (len(parts[k]), k),
            )
            cls[v] = choice
            parts[choice].add(v)

        def movable(v, k):
            return all(cls[w] != k for w in H.neighbours(v))

        rounds = 0
        while rounds < cap:
            sizes = [len(p) for p in parts]
            hi = max(range(r), key=lambda k: (sizes[k], k))
            lo = min(range(r), key=lambda k: (sizes[k], k))
            if sizes[hi] - sizes[lo] <= 1:
                break
            rounds += 1
            moved = False
            for v in sorted(parts[hi]):
                if movable(v, lo):
                    parts[hi].discard(v)
                    parts[lo].add(v)
                    cls[v] = lo
                    moved = True
                    break
            if moved:
                continue
            # two-step chain through a middle class
            for mid in range(r):
                if mid in (hi, lo):
                    continue
                done = False
                for v in sorted(parts[hi]):
                    if not movable(v, mid):
                        continue
                    for w in sorted(parts[mid]):
                        if w != v and movable(w, lo):
                            parts[hi].discard(v)
                            parts[mid].add(v)
                            cls[v] = mid
                            parts[mid].discard(w)
                            parts[lo].add(w)
                            cls[w] = lo
                            done = True
                            break
                    if done:
                        break
                if done:
                    moved = True
                    break
            if not moved:
                # jiggle: random legal move out of the largest class
                cands = [
                    (v, k)
                    for v in sorted(parts[hi])
                    for k in range(r)
                    if k != hi and movable(v, k)
                ]
                if not cands:
                    break
                v, k = rng.choice(cands)
                parts[hi].discard(v)
                parts[k].add(v)
                cls[v] = k
        sizes = [len(p) for p in parts]
        balanced = max(sizes) - min(sizes) <= 1
        rounds_used = rounds
        if balanced or best is None:
            best = [sorted(p) for p in parts]
        if balanced:
            return EquitableColouring(
                parts=tuple(tuple(p) for p in best), proper=True, balanced=True, rounds=rounds
            )
    return EquitableColouring(
        parts=tuple(tuple(p) for p in (best or [[]] * r)),
        proper=True,
        balanced=False,
        rounds=rounds_used,
    )


# ---------------------------------------------------------------------------
# Small helpers over (H, phi) views


def _class_key(phi, u, v):
    a, b = phi[u], phi[v]
    return (a, b) if a < b else (b, a)


def _class_edges(H: SimpleGraph, phi, active) -> dict[tuple[int, int], list[tuple[int, int]]]:
    out: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (u, v) in H.edges_within(active):
        out.setdefault(_class_key(phi, u, v), []).append((u, v))
    return out


def _sub_template(t: Template, clusters, colour_clusters, klass=None, ledger=None) -> Template:
    """Index-level subtemplate sharing the parent's collection (no pruning)."""
    return make_template(
        t.R,
        clusters,
        colour_clusters,
        t.gc,
        ledger if ledger is not None else t.ledger,
        rainbow=t.rainbow,
        klass=klass if klass is not None else t.klass,
    )


def _filling_entry(stage: str, t: Template, H: SimpleGraph, phi, targets, seed: int, active):
    """Shared entry checks of the rainbow stages: the normalised ``(active,
    targets)``, or the typed failure when the template is not rainbow or the
    active part of H does not fill every cluster exactly."""
    active = set(active) if active is not None else set(range(H.n))
    targets = {v: set(ts) for v, ts in (targets or {}).items() if v in active}
    if not t.rainbow:
        return EmbedOutcome.fail(stage, PRECONDITION, seed, detail="template must be rainbow")
    filled = dict.fromkeys(range(t.r), 0)
    for v in active:
        filled[phi[v]] += 1
    for i in range(t.r):
        if filled[i] != len(t.clusters[i]):
            return EmbedOutcome.fail(
                stage, PRECONDITION, seed, cluster=i,
                detail="pattern must fill every cluster exactly",
            )
    return active, targets


# ---------------------------------------------------------------------------
# Partial embedding with candidate sets (vertex-by-vertex loop)


@dataclass
class PartialEmbedding:
    tau: dict[int, int]
    sigma: dict[tuple[int, int], int]
    candidates: dict[int, frozenset[int]]


def partial_embed(
    t: Template,
    H: PatternGraph,
    phi,
    X,
    Y,
    targets: dict[int, set[int]] | None,
    plan: SplitPlan,
    seed: int = 0,
) -> PartialEmbedding | Failure:
    """Embed X and fix colours for every edge incident to X, maintaining
    candidate sets for the unembedded independent set Y.

    The loop per embedded vertex x: prune its candidate set by the
    colour-sum test against each later neighbour, pick tau(x), remove the
    used host everywhere, then per later neighbour prune colours with a
    small neighbourhood overlap, pick the edge colour, retire it globally,
    and intersect the neighbour's candidates with the chosen colour
    neighbourhood.  Only the subgraph induced on X + Y is touched; edges
    inside Y must be absent.  Success requires final vertex candidate sets
    of size >= nu'*m and never-empty colour candidates.
    """
    rng = random.Random(_mix(seed, 23))
    X, Y = list(X), list(Y)
    xy_set = set(X) | set(Y)
    if len(xy_set) != len(X) + len(Y):
        return Failure("partial", PRECONDITION, seed, detail="X and Y overlap")
    inside_y = H.edges_within(Y)
    if inside_y:
        u, v = inside_y[0]
        return Failure("partial", PRECONDITION, seed, detail=f"edge ({u},{v}) inside Y")
    targets = targets or {}
    cluster_sets = [set(cl) for cl in t.clusters]
    d = float(t.ledger.d)
    eps = float(t.ledger.eps)
    m = float(t.ledger.m)
    floor = max(1, math.ceil(plan.nu_prime * m))

    order = X + Y
    pos = {v: i for i, v in enumerate(order)}
    cand_v: dict[int, set[int]] = {}
    for w in order:
        base = cluster_sets[phi[w]]
        tw = targets.get(w)
        cand_v[w] = set(base) & set(tw) if tw is not None else set(base)
        if not cand_v[w]:
            return Failure(
                "partial", CANDIDATE_EXHAUSTED, seed,
                element=("vertex", w), step="init", detail="empty target within cluster",
            )
    edges_live = H.edges_within(xy_set)
    cand_c: dict[tuple[int, int], set[int]] = {}
    for (u, v) in edges_live:
        key = _class_key(phi, u, v)
        if key not in t.colour_clusters:
            return Failure(
                "partial", PRECONDITION, seed,
                detail=f"phi is not a homomorphism: edge ({u},{v}) -> non-edge {key}",
            )
        cand_c[(u, v)] = set(t.colours_of_edge(*key))

    tau: dict[int, int] = {}
    sigma: dict[tuple[int, int], int] = {}

    def later_neighbours(x):
        return sorted(
            (y for y in H.neighbours(x) if y in xy_set and pos[y] > pos[x]),
            key=lambda y: pos[y],
        )

    for x in X:
        # (x,1) colour-sum pruning of the vertex candidate set
        for y in later_neighbours(x):
            e = (x, y) if x < y else (y, x)
            Cxy, Cy = cand_c[e], cand_v[y]
            if not Cxy or not Cy:
                return Failure(
                    "partial", CANDIDATE_EXHAUSTED, seed,
                    element=("edge", e), step=f"({x},1)",
                )
            cy_mask = mask_of(Cy)
            thr = (d - eps) * len(Cxy) * len(Cy)
            bad = [v for v in cand_v[x] if t.gc.degree_into(v, cy_mask, Cxy) < thr]
            cand_v[x] -= set(bad)
        if not cand_v[x]:
            return Failure(
                "partial", CANDIDATE_EXHAUSTED, seed,
                element=("vertex", x), step=f"({x},1)",
            )
        # (x,2) choose the image
        tau[x] = rng.choice(sorted(cand_v[x]))
        # (x,3) retire the host vertex everywhere
        for w in order:
            cand_v[w].discard(tau[x])
        # (x,4) colours towards later neighbours
        for y in later_neighbours(x):
            e = (x, y) if x < y else (y, x)
            Cy = cand_v[y]
            cy_mask = mask_of(Cy)
            thr = d * len(Cy) / 2
            cand_c[e] = {
                c for c in cand_c[e] if (t.gc.adj(c, tau[x]) & cy_mask).bit_count() >= thr
            }
            if not cand_c[e]:
                return Failure(
                    "partial", CANDIDATE_EXHAUSTED, seed,
                    element=("edge", e), step=f"({x},{y},4.1)",
                )
            sigma[e] = rng.choice(sorted(cand_c[e]))
            for other in cand_c:
                cand_c[other].discard(sigma[e])
            cand_v[y] &= {v for v in Cy if t.gc.adj(sigma[e], tau[x]) >> v & 1}
            if not cand_v[y]:
                return Failure(
                    "partial", CANDIDATE_EXHAUSTED, seed,
                    element=("vertex", y), step=f"({x},{y},4.4)",
                )

    low = [(y, len(cand_v[y])) for y in Y if len(cand_v[y]) < floor]
    if low:
        return Failure(
            "partial", CANDIDATE_EXHAUSTED, seed,
            element=("vertex", low[0][0]), step="final-floor",
            detail=f"candidate sets below nu'*m = {floor}: {low}",
        )
    return PartialEmbedding(
        tau=tau,
        sigma=sigma,
        candidates={y: frozenset(cand_v[y]) for y in Y},
    )


# ---------------------------------------------------------------------------
# Induced matchings (Vizing extraction + distance-3 greedy selection)


def find_induced_matching(
    H: SimpleGraph,
    phi,
    sizes: dict[tuple[int, int], int],
    forbidden: set[int] | None = None,
    seed: int = 0,
    active: set[int] | None = None,
) -> dict[tuple[int, int], list[tuple[int, int]]] | Failure:
    """Per requested R-edge class, a matching of the requested size such that
    the union M is induced in H, avoids the forbidden set, and every vertex
    outside V(M) has all its V(M)-neighbours inside a single matching edge.

    Extraction: proper edge colouring of each class subgraph (so a matching
    of size >= ceil(e/(Delta+1)) exists), then greedy selection keeping new
    endpoints at H-distance >= 3 from everything selected so far.
    """
    rng = random.Random(_mix(seed, 37))
    forbidden = set(forbidden or ())
    active = active if active is not None else set(range(H.n))
    by_class = _class_edges(H, phi, active)
    selected: dict[tuple[int, int], list[tuple[int, int]]] = {}
    ball = set()  # vertices within H-distance <= 2 of selected endpoints

    def grow_ball(v):
        ball.add(v)
        for w in H.neighbours(v):
            ball.add(w)
            for z in H.neighbours(w):
                ball.add(z)

    for key in sorted(sizes):
        want = sizes[key]
        selected[key] = []
        if want == 0:
            continue
        class_edges = by_class.get(key, [])
        sub = SimpleGraph(H.n, class_edges)
        base = extract_matching(sub)
        rng.shuffle(base)
        for (u, v) in base:
            if len(selected[key]) == want:
                break
            if u in forbidden or v in forbidden or u in ball or v in ball:
                continue
            selected[key].append((u, v))
            grow_ball(u)
            grow_ball(v)
        if len(selected[key]) < want:
            return Failure(
                "matching", MATCHING_TOO_SMALL, seed,
                edge_class=key, wanted=want, got=len(selected[key]),
            )
    return selected


# ---------------------------------------------------------------------------
# Prescribed-colour embedding


def embed_prescribed_colours(
    t: Template,
    H: PatternGraph,
    phi,
    targets: dict[int, set[int]] | None,
    prescribed: dict[tuple[int, int], list[int]],
    plan: SplitPlan,
    seed: int = 0,
    active: set[int] | None = None,
    prescribed_density_floor: float | None = None,
) -> EmbedOutcome:
    """Full transversal embedding of H (restricted to ``active``) that uses
    every prescribed colour: induced matching sized to the deduplicated
    prescription, greedy matched-edge embedding through degree-filtered host
    sets, then the candidate-set loop for the remainder."""
    active = set(active) if active is not None else set(range(H.n))
    targets = {v: set(ts) for v, ts in (targets or {}).items() if v in active}
    d = float(t.ledger.d)
    floor_d = prescribed_density_floor if prescribed_density_floor is not None else d
    # deduplicate the prescription in sorted class order
    seen: set[int] = set()
    dmap: dict[tuple[int, int], list[int]] = {}
    for key in sorted(prescribed):
        fresh = [c for c in prescribed[key] if c not in seen]
        seen.update(fresh)
        dmap[key] = fresh
    all_prescribed = set(seen)
    # density precondition for prescribed colours, surfaced before embedding
    for key, cs in dmap.items():
        i, j = key
        vi, vj = t.clusters[i], t.clusters[j]
        mj = mask_of(vj)
        need = floor_d * len(vi) * len(vj)
        for c in cs:
            cnt = t.gc.edges_into(c, vi, mj)
            if cnt < need:
                return EmbedOutcome.fail(
                    "prescribed", PRECONDITION, seed,
                    colour=c, edges=cnt, need=need,
                    detail="prescribed colour graph too sparse",
                )
    for key, cs in t.colour_clusters.items():
        rest = len(set(cs) - all_prescribed)
        if rest < d * len(cs):
            return EmbedOutcome.fail(
                "prescribed", PRECONDITION, seed,
                edge_class=key, detail="too few unprescribed colours",
            )

    sizes = {key: len(cs) for key, cs in dmap.items()}

    def attempt(sub_seed, _):
        matching = find_induced_matching(
            H, phi, sizes, forbidden=set(targets), seed=sub_seed, active=active
        )
        if isinstance(matching, Failure):
            return matching
        return _embed_matched_then_rest(
            t, H, phi, targets, dmap, matching, plan, sub_seed, active, random.Random(sub_seed)
        )

    out, attempts = _retry(
        seed, 41, plan.retries, Failure("prescribed", EMBEDDING_FAILED, seed), attempt
    )
    if isinstance(out, Failure):
        return EmbedOutcome(None, out, None, stats={"attempts": attempts})
    tau, sigma = out
    done = EmbedOutcome.success(
        t.gc, H, tau, sigma,
        stats={"attempts": attempts, "prescribed_used": sorted(all_prescribed)},
        view=_pattern_view(H, phi, active, targets),
    )
    if not all_prescribed <= set(sigma.values()):
        raise UnverifiedOutput("a prescribed colour was not used")
    return done


@dataclass
class _PatternView:
    """Relabelled active-induced pattern, for verification of partial pipelines."""

    pattern: PatternGraph
    to_local: dict[int, int]
    to_global: dict[int, int]


def _pattern_view(H: SimpleGraph, phi, active: set[int], targets=None) -> _PatternView:
    ordered = sorted(active)
    to_local = {v: i for i, v in enumerate(ordered)}
    edges = [(to_local[u], to_local[v]) for (u, v) in H.edges_within(ordered)]
    tg = (
        {to_local[v]: frozenset(ts) for v, ts in targets.items() if v in active}
        if targets
        else None
    )
    pat = PatternGraph(len(ordered), edges, targets=tg)
    return _PatternView(pattern=pat, to_local=to_local, to_global=dict(enumerate(ordered)))


def _relabel(view: _PatternView, emb: TransversalEmbedding) -> TransversalEmbedding:
    tau = {view.to_local[v]: w for v, w in emb.tau.items()}
    sigma = {}
    for (u, v), c in emb.sigma.items():
        lu, lv = view.to_local[u], view.to_local[v]
        sigma[(lu, lv) if lu < lv else (lv, lu)] = c
    return TransversalEmbedding(tau=tau, sigma=sigma)


def _embed_matched_then_rest(
    t, H, phi, targets, dmap, matching, plan, seed, active, rng
):
    """Greedy embedding of the induced matching with its prescribed colours
    plus colours and candidate sets for all matched-edge neighbours, then the
    candidate-set loop on the remainder."""
    d = float(t.ledger.d)
    used_hosts: set[int] = set()
    used_colours: set[int] = set()
    tau: dict[int, int] = {}
    sigma: dict[tuple[int, int], int] = {}
    pend_targets: dict[int, set[int]] = {}
    mvertices = {v for es in matching.values() for e in es for v in e}
    all_prescribed = {c for cs in dmap.values() for c in cs}

    def cluster_free(i):
        return [v for v in t.clusters[i] if v not in used_hosts]

    def fresh_colour_towards(zset, a_cluster, key):
        """A colour of class `key`, unused and unprescribed, dense from zset
        into cluster a_cluster; returns (colour, filtered zset)."""
        va = [v for v in t.clusters[a_cluster] if v not in used_hosts]
        if not va:
            return None
        va_mask = mask_of(va)
        pool = [
            c
            for c in t.colours_of_edge(*key)
            if c not in used_colours and c not in all_prescribed
        ]
        rng.shuffle(pool)
        need_edges = d / 3 * len(zset) * len(va)
        for c in pool:
            cnt = t.gc.edges_into(c, zset, va_mask)
            if cnt < need_edges:
                continue
            z2 = [z for z in zset if (t.gc.adj(c, z) & va_mask).bit_count() >= d / 6 * len(va)]
            if z2:
                return c, z2
        return None

    def place(v, z, edge, tag):
        """Give each unmatched neighbour of the matched vertex v a fresh
        colour dense from z (narrowing z each time), embed v in what is left
        of z and narrow those neighbours' targets; a Failure when stuck."""
        if not z:
            return Failure(
                "prescribed", CANDIDATE_EXHAUSTED, seed,
                element=("matched-edge", edge), step=f"Z({tag})",
            )
        chosen: list[tuple[int, int]] = []  # (neighbour, colour)
        for y in H.neighbours(v):
            if y not in active or y in mvertices:
                continue
            got = fresh_colour_towards(z, phi[y], _class_key(phi, v, y))
            if got is None:
                return Failure(
                    "prescribed", COLOUR_EXHAUSTED, seed,
                    element=("matched-vertex", v), step=f"N({tag}) colours",
                )
            cy, z = got
            used_colours.add(cy)
            chosen.append((y, cy))
        tau[v] = rng.choice(sorted(z))
        used_hosts.add(tau[v])
        for (y, cy) in chosen:
            sigma[(v, y) if v < y else (y, v)] = cy
            nb = {
                w
                for w in bits_of(t.gc.adj(cy, tau[v]))
                if w not in used_hosts and w in set(t.clusters[phi[y]])
            }
            pend_targets[y] = pend_targets[y] & nb if y in pend_targets else nb
        return None

    for key in sorted(matching):
        cs = list(dmap[key])
        for idx, (x, xp) in enumerate(matching[key]):
            cstar = cs[idx]
            j, jp = phi[x], phi[xp]
            if (j, jp) != key and (jp, j) != key:
                j, jp = jp, j
            Ujp_mask = mask_of(cluster_free(jp))
            z_x = [
                v
                for v in cluster_free(j)
                if (t.gc.adj(cstar, v) & Ujp_mask).bit_count()
                >= d / 4 * Ujp_mask.bit_count()
            ]
            stuck = place(x, z_x, (x, xp), "x")
            if stuck:
                return stuck
            sigma[(x, xp) if x < xp else (xp, x)] = cstar
            used_colours.add(cstar)
            z_xp = [
                v for v in bits_of(t.gc.adj(cstar, tau[x]) & Ujp_mask) if v not in used_hosts
            ]
            stuck = place(xp, z_xp, (x, xp), "x'")
            if stuck:
                return stuck

    # remainder: everything outside the matching, via the candidate-set loop
    rest = sorted(active - mvertices)
    rest_targets: dict[int, set[int]] = {}
    for w in rest:
        tw = set(t.clusters[phi[w]]) - used_hosts
        if w in targets:
            tw &= targets[w]
        if w in pend_targets:
            tw &= pend_targets[w]
        if not tw:
            return Failure(
                "prescribed", CANDIDATE_EXHAUSTED, seed,
                element=("vertex", w), step="rest-targets",
            )
        rest_targets[w] = tw
    sub_clusters = [tuple(v for v in cl if v not in used_hosts) for cl in t.clusters]
    sub_colours = {
        key: tuple(c for c in cs if c not in used_colours and c not in all_prescribed)
        for key, cs in t.colour_clusters.items()
    }
    t_rest = _sub_template(t, sub_clusters, sub_colours)
    part = partial_embed(
        t_rest, H, phi, X=rest, Y=[], targets=rest_targets, plan=plan, seed=seed
    )
    if isinstance(part, Failure):
        return part
    tau.update(part.tau)
    sigma.update(part.sigma)
    return tau, sigma


# ---------------------------------------------------------------------------
# Classical blow-up embedder (uncoloured)


@dataclass
class BlowupResult:
    tau: dict[int, int] | None
    failure: Failure | None
    restarts: int = 0
    verified: bool = False

    @property
    def ok(self) -> bool:
        return self.tau is not None


def blowup_embed(
    host: SimpleGraph,
    clusters,
    R: SimpleGraph,
    H: SimpleGraph,
    phi,
    targets: dict[int, set[int]] | None,
    plan: SplitPlan,
    seed: int = 0,
    active: set[int] | None = None,
) -> BlowupResult:
    """Spanning (or partial) embedding of H into a host graph whose per-R-edge
    bipartite slices are dense: randomized greedy in reverse-degeneracy order
    with candidate tracking, reserving an independent buffer (about a fifth
    of each cluster) for a final maximum-matching completion phase, with
    global restarts.  The output is structurally verified."""
    active = set(active) if active is not None else set(range(H.n))
    targets = {v: set(ts) for v, ts in (targets or {}).items() if v in active}
    by_cluster: dict[int, list[int]] = {}
    for v in sorted(active):
        by_cluster.setdefault(phi[v], []).append(v)
    cluster_masks = [mask_of(cl) for cl in clusters]
    for i, vs in by_cluster.items():
        if len(vs) > len(clusters[i]):
            return BlowupResult(
                None,
                Failure("blowup", PRECONDITION, seed, cluster=i,
                        detail=f"{len(vs)} pattern vertices > {len(clusters[i])} hosts"),
            )

    def candidates(v, tau, used):
        """Free hosts of v's cluster inside its target set that are adjacent
        to the images of all of v's embedded neighbours."""
        cand = cluster_masks[phi[v]] & ~used
        if v in targets:
            cand &= mask_of(targets[v])
        for w in H.neighbours(v):
            if w in tau:
                cand &= host.adj(tau[w])
        return cand

    def attempt(sub_seed, restart):
        rng = random.Random(sub_seed)
        # buffer: independent in H (within active), low degree preferred
        buffer: set[int] = set()
        for i, vs in by_cluster.items():
            quota = int(plan.blowup_reserve * len(vs))
            cands = sorted(vs, key=lambda v: (H.degree(v), rng.random()))
            for v in cands:
                if len([b for b in buffer if phi[b] == i]) >= quota:
                    break
                if all(w not in buffer for w in H.neighbours(v)):
                    buffer.add(v)
        todo = [v for v in sorted(active) if v not in buffer]
        # reverse elimination order: repeatedly remove a minimum-degree vertex
        todo_mask = mask_of(todo)
        deg = {v: (H.adj(v) & todo_mask).bit_count() for v in todo}
        alive = set(todo)
        elim = []
        while alive:
            v = min(alive, key=lambda u: (deg[u], rng.random()))
            elim.append(v)
            alive.discard(v)
            for w in H.neighbours(v):
                if w in alive:
                    deg[w] -= 1
        order = list(reversed(elim))
        tau: dict[int, int] = {}
        used = 0
        for v in order:
            cand = candidates(v, tau, used)
            if not cand:
                return Failure("blowup", EMBEDDING_FAILED, seed, restart=restart, phase="greedy")
            pick = rng.choice(list(bits_of(cand)))
            tau[v] = pick
            used |= 1 << pick
        # completion: per cluster, match buffer vertices to free hosts
        for i, vs in by_cluster.items():
            bvs = [v for v in vs if v in buffer]
            if not bvs:
                continue
            adj = {}
            for b in bvs:
                adj[b] = list(bits_of(candidates(b, tau, used)))
                rng.shuffle(adj[b])
            m = max_bipartite_matching(adj)
            if len(m) < len(bvs):
                return Failure("blowup", EMBEDDING_FAILED, seed, restart=restart, phase="matching")
            for b, w in m.items():
                tau[b] = w
                used |= 1 << w
        return tau

    tau, attempts = _retry(
        seed, 53, plan.blowup_restarts, Failure("blowup", EMBEDDING_FAILED, seed), attempt
    )
    if isinstance(tau, Failure):
        return BlowupResult(None, tau, restarts=attempts)
    # structural verification
    if len(set(tau.values())) != len(tau):
        raise UnverifiedOutput("blow-up map is not injective")
    for (u, v) in H.edges_within(active):
        if not host.has_edge(tau[u], tau[v]):
            raise UnverifiedOutput("blow-up produced a non-edge")
    if any(tau[v] not in T for v, T in targets.items()):
        raise UnverifiedOutput("blow-up left a target set")
    return BlowupResult(tau=tau, failure=None, restarts=attempts - 1, verified=True)


# ---------------------------------------------------------------------------
# Extra-colours embedder (component chunking + thick-graph blow-up rounds)


def _chunk_components(comps, phi, r, sizes, mu_floor, gamma_floor, q_stop):
    """Partition component indices into B_0 (suffix) and rounds B_1..B_s."""
    tcomp = len(comps)
    a = [[0] * r for _ in range(tcomp)]
    for h, comp in enumerate(comps):
        for v in comp:
            a[h][phi[v]] += 1
    suffix = [0] * r
    tstar = 0
    for t in range(tcomp, -1, -1):
        suf = [0] * r
        for h in range(t, tcomp):
            for j in range(r):
                suf[j] += a[h][j]
        if all(suf[j] >= mu_floor for j in range(r)):
            tstar = t
            suffix = suf
            break
    rounds: list[list[int]] = []
    pos = 0
    used = [0] * r
    while pos < tstar:
        remaining = [sizes[j] - used[j] for j in range(r)]
        if any(remaining[j] <= q_stop for j in range(r)):
            rounds.append(list(range(pos, tstar)))
            pos = tstar
            break
        cur = []
        got = [0] * r
        while pos < tstar and any(got[j] < gamma_floor for j in range(r)):
            cur.append(pos)
            for j in range(r):
                got[j] += a[pos][j]
            pos += 1
        rounds.append(cur)
        for j in range(r):
            used[j] += got[j]
    b0 = list(range(tstar, tcomp))
    return b0, rounds


def approx_embed(
    t: Template,
    H: PatternGraph,
    phi,
    targets: dict[int, set[int]] | None,
    plan: SplitPlan,
    seed: int = 0,
    active: set[int] | None = None,
    beta: float | None = None,
) -> EmbedOutcome:
    """Transversal embedding of a spanning union of small components into a
    rainbow semi-super template with a colour surplus.

    Components are chunked into rounds; each round embeds its chunk into the
    thick graph of the round's subtemplate via the blow-up embedder and
    greedily assigns distinct unused colours (thick edges see more colours
    than the round needs); the final chunk lands in the leftover vertices
    using a reserved colour buffer.  Chunk-size statistics are recorded.
    """
    entry = _filling_entry("approx", t, H, phi, targets, seed, active)
    if isinstance(entry, EmbedOutcome):
        return entry
    active, targets = entry
    r = t.r
    m = float(t.ledger.m)
    eps = float(t.ledger.eps)
    d = float(t.ledger.d)
    class_e = _class_edges(H, phi, active)
    surplus_floor = max(0, math.ceil((beta if beta is not None else 0.0) * m))
    for key, cs in t.colour_clusters.items():
        h_e = len(class_e.get(key, ()))
        if h_e > len(cs) - surplus_floor:
            return EmbedOutcome.fail(
                "approx", PRECONDITION, seed, edge_class=key,
                detail=f"colour surplus below beta*m: {len(cs)}-{h_e} < {surplus_floor}",
            )
    comps = H.components(active)
    n_active = len(active)
    oversize = [len(c) for c in comps if len(c) > max(1, plan.mu * n_active)]
    stats: dict = {"component_count": len(comps), "oversize_components": oversize}

    sizes = [len(t.clusters[i]) for i in range(r)]
    mu_floor = max(1, round(plan.mu_prime * m))
    gamma_floor = max(1, round(plan.gamma * m))
    delta_h = max(1, H.max_degree)
    q_stop = 2 * (delta_h + 1) ** (r - 1) * gamma_floor
    stated = round(r * eps ** (1 / 3) * m)

    def attempt(sub_seed, _):
        rng = random.Random(sub_seed)
        order = list(range(len(comps)))
        rng.shuffle(order)
        comps_o = [comps[i] for i in order]
        b0_idx, round_idx = _chunk_components(
            comps_o, phi, r, sizes, mu_floor, gamma_floor, q_stop
        )
        s = len(round_idx)
        B0 = [v for h in b0_idx for v in comps_o[h]]
        Bs = [[v for h in idxs for v in comps_o[h]] for idxs in round_idx]
        b = [[sum(1 for v in B if phi[v] == j) for j in range(r)] for B in Bs]
        b0 = [sum(1 for v in B0 if phi[v] == j) for j in range(r)]
        stats["chunks"] = {"s": s, "b0": b0, "b": b, "mu_floor": mu_floor,
                           "gamma_floor": gamma_floor, "q_stop": q_stop}
        # slack: as much of the stated r*eps^(1/3)*m as the B_0 part affords
        slack = [0] * r
        if s:
            for j in range(r):
                afford = (b0[j] - max(1, mu_floor // 2)) // s
                slack[j] = max(0, min(stated, afford))
        # vertex partition: V_j -> V^0_j, V^1_j..V^s_j
        part_v: list[list[list[int]]] = []
        for j in range(r):
            pool = list(t.clusters[j])
            rng.shuffle(pool)
            parts_j = []
            pos = 0
            for i in range(s):
                size = b[i][j] + slack[j]
                parts_j.append(pool[pos : pos + size])
                pos += size
            parts_j.insert(0, pool[pos:])  # V^0_j, size b0[j] - s*slack[j]
            if len(parts_j[0]) != b0[j] - s * slack[j] or (not parts_j[0] and b0[j] > 0):
                return Failure("approx", CHUNKING_FAILED, sub_seed, detail="vertex partition sizes")
            part_v.append(parts_j)
        # colour buffer per class, clamped so that every stage fits
        h_b0 = {key: 0 for key in t.colour_clusters}
        for (u, v) in H.edges_within(B0):
            h_b0[_class_key(phi, u, v)] += 1
        pools: dict[tuple[int, int], list[int]] = {}
        buffers: dict[tuple[int, int], list[int]] = {}
        for key, cs in t.colour_clusters.items():
            cs = list(cs)
            h_e = len(class_e.get(key, ()))
            if s == 0:
                buffers[key] = []
                pools[key] = cs
                continue
            lo = h_b0[key]
            hi = len(cs) - (h_e - h_b0[key])
            if lo > hi:
                return Failure("approx", COLOUR_EXHAUSTED, sub_seed, detail="buffer sizing")
            want = round(plan.zeta * len(cs))
            size0 = min(max(want, lo), hi)
            rng.shuffle(cs)
            buffers[key] = sorted(cs[:size0])
            pools[key] = sorted(cs[size0:])
        tau: dict[int, int] = {}
        sigma: dict[tuple[int, int], int] = {}
        used_colours: set[int] = set()
        leftovers: list[list[int]] = [[] for _ in range(r)]
        for i in range(1, s + 1):
            Bi = Bs[i - 1]
            cur_pools = {
                key: [c for c in pools[key] if c not in used_colours]
                for key in t.colour_clusters
            }
            res = _round_embed(
                t, H, phi, Bi, [part_v[j][i] for j in range(r)],
                cur_pools, targets, plan, rng, trim_to=[b[i - 1][j] for j in range(r)],
                leftovers=leftovers, d=d, seed=sub_seed,
            )
            if isinstance(res, Failure):
                return res
            tau.update(res[0])
            sigma.update(res[1])
            used_colours.update(res[1].values())
        # final round: B_0 into V^0 plus leftovers, buffer colours only
        z_parts = [part_v[j][0] + leftovers[j] for j in range(r)]
        final_pools = (
            {key: [c for c in buffers[key] if c not in used_colours] for key in buffers}
            if s
            else {key: [c for c in pools[key] if c not in used_colours] for key in pools}
        )
        res = _round_embed(
            t, H, phi, B0, z_parts, final_pools, targets, plan, rng,
            trim_to=None, leftovers=None, d=d, seed=sub_seed,
        )
        if isinstance(res, Failure):
            return res
        tau.update(res[0])
        sigma.update(res[1])
        return tau, sigma

    out, attempts = _retry(
        seed, 67, plan.approx_retries, Failure("approx", EMBEDDING_FAILED, seed), attempt
    )
    if isinstance(out, Failure):
        return EmbedOutcome(None, out, None, stats=stats)
    stats["attempts"] = attempts
    return EmbedOutcome.success(
        t.gc, H, *out, stats=stats, view=_pattern_view(H, phi, active, targets)
    )


def _round_embed(t, H, phi, B, v_parts, pools, targets, plan, rng, trim_to, leftovers, d, seed=0):
    """One blow-up round: degree-screen the round's vertex slices, build the
    thick graph over the remaining pool, embed the chunk, then greedily give
    every embedded edge a distinct unused pool colour."""
    r = t.r
    Bset = set(B)
    if not B:
        if trim_to is not None and leftovers is not None:
            for j in range(r):
                leftovers[j].extend(v_parts[j])
        return {}, {}
    # degree screen against the pool (intermediate rounds only, where the
    # slack allows discards), then trim to the exact chunk size
    slices: list[list[int]] = []
    for j in range(r):
        vs = list(v_parts[j])
        bad: set[int] = set()
        if trim_to is not None:
            for jp in range(r):
                key = (j, jp) if j < jp else (jp, j)
                if key not in pools or j == jp:
                    continue
                other = mask_of(v_parts[jp])
                pool = pools[key]
                if not pool:
                    continue
                thr = 2 * d / 3 * len(v_parts[jp]) * len(pool)
                bad.update(v for v in vs if t.gc.degree_into(v, other, pool) < thr)
        good = [v for v in vs if v not in bad]
        needj = trim_to[j] if trim_to is not None else len([x for x in B if phi[x] == j])
        if len(good) < needj:
            return Failure(
                "approx", CHERNOFF_RETRY_EXHAUSTED, seed,
                cluster=j, detail="degree screen removed too many vertices",
            )
        rng.shuffle(good)
        keep = sorted(good[:needj])
        if leftovers is not None:
            spill = [v for v in vs if v not in set(keep)]
            leftovers[j].extend(spill)
        slices.append(keep)
    # thick graph over the pool; an empty pool gives no edges
    thick = thick_host_graph(
        t.gc, slices, {key: pool for key, pool in pools.items() if pool}, plan.lambda_thick
    )
    res = blowup_embed(
        thick, slices, t.R, H, phi,
        {v: ts for v, ts in targets.items() if v in Bset},
        plan, seed=rng.randrange(1 << 30), active=Bset,
    )
    if not res.ok:
        return res.failure
    tau = res.tau
    sigma: dict[tuple[int, int], int] = {}
    used: set[int] = set()
    edges = H.edges_within(B)
    rng.shuffle(edges)
    for (u, v) in edges:
        key = _class_key(phi, u, v)
        pool = pools.get(key, ())
        avail = [
            c for c in pool
            if c not in used and t.gc.has_edge(c, tau[u], tau[v])
        ]
        if not avail:
            return Failure(
                "approx", COLOUR_EXHAUSTED, seed, edge=(u, v), edge_class=key,
            )
        c = rng.choice(avail)
        used.add(c)
        sigma[(u, v) if u < v else (v, u)] = c
    return tau, sigma


# ---------------------------------------------------------------------------
# Colour absorber


@dataclass
class AbsorberEdge:
    Z: tuple[tuple[int, int], ...]  # embedded host edges
    A: tuple[int, ...]  # committed colours, |A| = |Z| - l
    B: tuple[int, ...]  # flexible colour pool
    l: int
    verified: str  # 'exhaustive' | 'sampled'
    subsets_checked: int


@dataclass
class Absorber:
    per_edge: dict[tuple[int, int], AbsorberEdge]

    def matching_for(self, gc: GraphCollection, key, B0) -> dict | None:
        """Perfect matching between Z and A + B0 in the edge-colour incidence
        graph, or None."""
        ent = self.per_edge[key]
        allowed = set(ent.A) | set(B0)
        adj = {
            zi: [c for c in bits_of(gc.colour_mask(*z)) if c in allowed]
            for zi, z in enumerate(ent.Z)
        }
        m = perfect_matching(adj)
        if m is None or set(m.values()) != allowed:
            return None
        return {ent.Z[zi]: c for zi, c in m.items()}


def _flexibility_check(gc, Z, A, B, l, cap, samples, rng):
    """All (or sampled) l-subsets B0 of B admit a perfect matching between Z
    and A + B0.  Returns (ok, mode, count)."""
    zmasks = [gc.colour_mask(*z) for z in Z]
    amask = mask_of(A)

    def check(B0) -> bool:
        allowed = amask | mask_of(B0)
        adj = {i: list(bits_of(zmasks[i] & allowed)) for i in range(len(Z))}
        m = max_bipartite_matching(adj)
        return len(m) == len(Z)

    total = math.comb(len(B), l)
    if total <= cap:
        for B0 in combinations(B, l):
            if not check(B0):
                return False, "exhaustive", total
        return True, "exhaustive", total
    count = 0
    for _ in range(samples):
        B0 = rng.sample(list(B), l)
        count += 1
        if not check(B0):
            return False, "sampled", count
    return True, "sampled", count


def build_absorber(
    t: Template,
    z_edges: dict[tuple[int, int], list[tuple[int, int]]],
    plan: SplitPlan,
    seed: int = 0,
    l_sizes: dict[tuple[int, int], int] | None = None,
    b_sizes: dict[tuple[int, int], int] | None = None,
    pools: dict[tuple[int, int], list[int]] | None = None,
) -> Absorber | Failure:
    """Per R-edge: disjoint colour sets (A, B) with |A| = |Z| - l such that A
    plus ANY l-subset of B perfectly colours the embedded edges Z.

    B is drawn randomly, l flexible elements of Z with at least lambda3|B|/2
    colour-neighbours in B are designated, the rest are matched into A by
    maximum matching, and flexibility is then verified (exhaustively when
    C(|B|, l) is small, sampled otherwise).  Verification failure reseeds;
    after half the budget B is drawn greedily from the flexible elements'
    common colours.  Unverifiable constructions are a typed failure.
    """
    per_edge: dict[tuple[int, int], AbsorberEdge] = {}
    for key in sorted(z_edges):
        Z = [tuple(z) for z in z_edges[key]]
        pool = list(pools[key]) if pools else list(t.colours_of_edge(*key))
        l = (
            l_sizes[key]
            if l_sizes is not None
            else min(len(Z), max(1, round(plan.lambda1 * len(Z))) if Z else 0)
        )
        bsize = (
            b_sizes[key]
            if b_sizes is not None
            else max(l, round(plan.p_vx * len(pool)))
        )
        if bsize > len(pool) or len(Z) - l > len(pool) - bsize:
            return Failure(
                "absorber", PRECONDITION, seed, edge_class=key,
                detail="colour pool too small for the requested A and B sizes",
            )
        zmasks = [t.gc.colour_mask(*z) & mask_of(pool) for z in Z]
        thick_floor = plan.lambda3 * len(pool)
        weak = [i for i, zm in enumerate(zmasks) if zm.bit_count() < thick_floor]
        built = None
        for attempt in range(plan.absorber_retries):
            rng = random.Random(_mix(seed, 71, attempt, key[0], key[1]))
            if attempt < plan.absorber_retries // 2 or l == 0:
                B = sorted(rng.sample(pool, bsize))
            else:
                # greedy fallback: draw B from the most-covered colours
                ranked = sorted(
                    pool,
                    key=lambda c: -sum(1 for zm in zmasks if zm >> c & 1),
                )
                B = sorted(ranked[:bsize])
            bmask = mask_of(B)
            flex_ok = [
                i for i, zm in enumerate(zmasks)
                if (zm & bmask).bit_count() >= plan.lambda3 * len(B) / 2
            ]
            if len(flex_ok) < l:
                continue
            flex = sorted(rng.sample(flex_ok, l))
            rest = [i for i in range(len(Z)) if i not in set(flex)]
            adj = {
                i: [c for c in bits_of(zmasks[i] & ~bmask)] for i in rest
            }
            m = perfect_matching(adj)
            if m is None:
                continue
            A = sorted(set(m.values()))
            ok, mode, count = _flexibility_check(
                t.gc, Z, A, B, l, plan.absorber_exhaustive_cap, plan.absorber_samples, rng
            )
            if ok:
                built = AbsorberEdge(
                    Z=tuple(Z), A=tuple(A), B=tuple(B), l=l,
                    verified=mode, subsets_checked=count,
                )
                break
        if built is None:
            return Failure(
                "absorber", ABSORBER_UNVERIFIABLE, seed, edge_class=key,
                weak_edges=len(weak), retries=plan.absorber_retries,
            )
        per_edge[key] = built
    return Absorber(per_edge=per_edge)


# ---------------------------------------------------------------------------
# Transversal blow-up pipeline (Steps 0-5)


def transversal_blowup(
    t: Template,
    H: PatternGraph,
    phi,
    targets: dict[int, set[int]] | None,
    plan: SplitPlan,
    seed: int = 0,
    active: set[int] | None = None,
    separator: list[int] | None = None,
) -> EmbedOutcome:
    """Verified transversal embedding using every template colour exactly once.

    Step 0 embeds the separator graph and shrinks target sets to candidate
    sets; Step 1 embeds the absorber part into the lambda3-thick graph and
    builds the colour absorber (A, B); Steps 2-4 split the remaining clusters
    and colours, run the extra-colours embedder, the prescribed-colour
    embedder (on the app stage's leftover colours) and the extra-colours
    embedder again on the flexible pool; Step 5 closes by matching the
    absorber edges to A plus the leftover B-subset, whose size must equal the
    flexibility count exactly (an explicit check: a mismatch is a typed
    ``step5`` failure).  Set-up that draws nothing is computed once; a
    component split that the component counts already rule out is not
    retried.
    """
    entry = _filling_entry("pipeline", t, H, phi, targets, seed, active)
    if isinstance(entry, EmbedOutcome):
        return entry
    active, targets = entry
    class_e = _class_edges(H, phi, active)
    for key, cs in t.colour_clusters.items():
        if len(class_e.get(key, ())) != len(cs):
            return EmbedOutcome.fail(
                "pipeline", PRECONDITION, seed, edge_class=key,
                detail=f"e(H class)={len(class_e.get(key, ()))} != |C_e|={len(cs)}",
            )
    for key in class_e:
        if key not in t.colour_clusters:
            return EmbedOutcome.fail(
                "pipeline", PRECONDITION, seed, edge_class=key,
                detail="pattern edge class outside R",
            )
    # separator: supplied, or greedy on the active induced subgraph
    view = _pattern_view(H, phi, active)
    if separator is not None:
        X = sorted(set(separator) & active)
    else:
        cert = separability_certificate(
            view.pattern, plan.mu if len(active) * plan.mu >= 1 else 1.0
        )
        if isinstance(cert, SeparabilityCertificate):
            X = sorted(view.to_global[v] for v in cert.separator)
        else:
            X = []  # proceed with an empty separator; chunking will cope or fail typed

    # set-up shared by every attempt: the components outside X with their
    # class edge counts
    Xset = set(X)
    outside_x = active - Xset
    comps = H.components(outside_x)
    comp_of = {v: h for h, comp in enumerate(comps) for v in comp}
    class_of_comp: list[dict[tuple[int, int], int]] = [{} for _ in comps]
    for (u, v) in H.edges_within(outside_x):
        counts = class_of_comp[comp_of[u]]
        key = _class_key(phi, u, v)
        counts[key] = counts.get(key, 0) + 1
    if _split_decided(comps, class_of_comp, t.colour_clusters):
        out = _no_split(seed)
    else:
        # Step 0's connecting graph: the edges incident to X (Y-Y edges wait)
        Y = sorted({y for x in X for y in H.neighbours(x) if y in active} - Xset)
        con_targets = {w: targets.get(w) or set(t.clusters[phi[w]]) for w in X + Y}
        H_con = PatternGraph(H.n, set(H.edges_within(X + Y)) - set(H.edges_within(Y)))
        out, attempts = _retry(
            seed, 83, plan.retries, Failure("pipeline", EMBEDDING_FAILED, seed),
            lambda sub_seed, _: _pipeline_once(
                t, H, phi, targets, plan, sub_seed, X, class_e,
                comps, class_of_comp, Y, H_con, con_targets,
            ),
        )
    # small instances can lack the components to fill all five stages; a
    # one-shot candidate-set pass still yields sigma onto the colour set
    # (class sizes equal class edge counts), so try that before giving up
    if isinstance(out, Failure) and sum(len(es) for es in class_e.values()) <= 64:
        bfs = _bfs_order(H, active)

        def one_shot(sub_seed, attempt):
            order = list(bfs)
            if attempt % 2:
                random.Random(sub_seed).shuffle(order)
            part = partial_embed(
                t, H, phi, X=order, Y=[], targets=targets, plan=plan, seed=sub_seed,
            )
            if isinstance(part, Failure):
                return part.with_stage("one-shot")
            return part.tau, part.sigma, {"path": "one-shot"}

        out, attempts = _retry(seed, 89, plan.retries, out, one_shot)
    if isinstance(out, Failure):
        return EmbedOutcome(embedding=None, failure=out, verification=None)
    tau, sigma, run_stats = out
    run_stats["attempts"] = attempts
    done = EmbedOutcome.success(t.gc, H, tau, sigma, stats=run_stats, view=view)
    if sorted(sigma.values()) != t.all_colours():
        raise UnverifiedOutput(
            f"colour conservation violated on the {run_stats.get('path', 'main')} path"
        )
    return done


def _no_split(seed: int) -> Failure:
    return Failure("split", CHERNOFF_RETRY_EXHAUSTED, seed,
                   detail="no component split meets the per-class minima")


def _split_decided(comps, class_of_comp, keys) -> bool:
    """True when ``_split_components`` fails whatever it draws.  abs and col
    each need an edge of every class, so every class needs edges in two
    components; abs, app and one col component per class are distinct
    components, so there must be len(keys) + 2 of them (one, for app, when
    there is no class)."""
    spread = dict.fromkeys(keys, 0)
    for counts in class_of_comp:
        for key in counts:
            spread[key] += 1
    need = len(spread) + 2 if spread else 1
    return len(comps) < need or any(c < 2 for c in spread.values())


def _split_components(comps, class_of_comp, plan, rng, keys):
    """Random abs/app/col/vx split of components with post-adjustment so every
    colour class keeps at least one absorber edge and one col edge."""
    stages = ["abs", "app", "col", "vx"]
    probs = [plan.p_abs, plan.p_app, plan.p_col, plan.p_vx]
    assign: dict[int, str] = {}
    for h in range(len(comps)):
        x = rng.random()
        acc = 0.0
        assign[h] = "vx"
        for st, p in zip(stages, probs):
            acc += p
            if x < acc:
                assign[h] = st
                break

    def class_counts(stage):
        out = {key: 0 for key in keys}
        for h, st in assign.items():
            if st != stage:
                continue
            for key, cnt in class_of_comp[h].items():
                out[key] += cnt
        return out

    # post-adjust: abs and col need edges in every class
    for need_stage in ("abs", "col"):
        for key in keys:
            counts = class_counts(need_stage)
            if counts[key] >= 1:
                continue
            donors = [
                h
                for h, st in assign.items()
                if st == "app" and class_of_comp[h].get(key, 0) >= 1
            ]
            if not donors:
                donors = [
                    h
                    for h, st in assign.items()
                    if st == "vx" and class_of_comp[h].get(key, 0) >= 1
                ]
            if not donors:
                return None
            assign[rng.choice(donors)] = need_stage
    # the prescribed-colour matching hosts one induced edge per component, so
    # the col stage needs at least one component per colour class
    while sum(1 for st in assign.values() if st == "col") < len(keys):
        donors = [h for h, st in assign.items() if st == "app"]
        if not donors:
            donors = [h for h, st in assign.items() if st == "vx"]
        if not donors:
            return None
        assign[rng.choice(donors)] = "col"
    if not any(st == "app" for st in assign.values()):
        # app must be nonempty to anchor the leftover-colour bridge
        cands = [h for h, st in assign.items() if st == "vx"]
        if not cands:
            return None
        assign[rng.choice(cands)] = "app"
    return assign


def _pipeline_once(t, H, phi, targets, plan, seed, X, class_e,
                   comps, class_of_comp, Y, H_con, con_targets):
    """One attempt of Steps 0-5 from the set-up ``transversal_blowup``
    computes once: the components outside the separator X with their class
    edge counts, and Step 0's neighbours Y, graph and targets."""
    rng = random.Random(seed)
    r = t.r
    keys = sorted(t.colour_clusters)
    gc = t.gc
    Xset = set(X)
    assign = _split_components(comps, class_of_comp, plan, rng, keys)
    if assign is None:
        return _no_split(seed)
    stage_sets = {st: set() for st in ("abs", "app", "col", "vx")}
    for h, st in assign.items():
        stage_sets[st].update(comps[h])
    h_counts = {
        st: {key: 0 for key in keys} for st in ("con", "abs", "app", "col", "vx")
    }
    for key, es in class_e.items():
        for (u, v) in es:
            if u in Xset or v in Xset:
                h_counts["con"][key] += 1
            else:
                for st in ("abs", "app", "col", "vx"):
                    if u in stage_sets[st]:
                        h_counts[st][key] += 1
                        break
    n_stage = {
        st: [sum(1 for v in stage_sets[st] if phi[v] == i) for i in range(r)]
        for st in ("abs", "app", "col", "vx")
    }

    # ---- Step 0: the connecting graph
    part = partial_embed(
        t, H_con, phi, X=list(X), Y=Y, targets=con_targets, plan=plan, seed=seed
    )
    if isinstance(part, Failure):
        return part.with_stage("step0")
    tau: dict[int, int] = dict(part.tau)
    sigma: dict[tuple[int, int], int] = dict(part.sigma)
    T1: dict[int, set[int]] = {}
    for y in Y:
        T1[y] = set(part.candidates[y])
    for v, ts in targets.items():
        if v not in tau and v not in T1:
            T1[v] = set(ts)
    used_hosts = set(tau.values())
    used_cols = set(sigma.values())
    Vp = [tuple(v for v in t.clusters[i] if v not in used_hosts) for i in range(r)]
    Cp = {
        key: tuple(c for c in t.colour_clusters[key] if c not in used_cols)
        for key in keys
    }
    for key in keys:
        total = sum(h_counts[st][key] for st in ("abs", "app", "col", "vx"))
        if len(Cp[key]) != total:
            return Failure("step0", PRECONDITION, seed, edge_class=key,
                           detail="colour bookkeeping identity broken")

    # ---- Step 1: absorber embedding + colour absorber
    v_abs = []
    for i in range(r):
        pool = [v for v in Vp[i]]
        if n_stage["abs"][i] > len(pool):
            return Failure("step1", PRECONDITION, seed, cluster=i)
        rng.shuffle(pool)
        v_abs.append(sorted(pool[: n_stage["abs"][i]]))
    thick = thick_host_graph(gc, v_abs, Cp, plan.lambda3)
    abs_targets = {
        v: (T1[v] & set(v_abs[phi[v]]))
        for v in stage_sets["abs"]
        if v in T1
    }
    if any(not ts for ts in abs_targets.values()):
        return Failure("step1", CANDIDATE_EXHAUSTED, seed, detail="target misses the absorber slice")
    bres = blowup_embed(
        thick, v_abs, t.R, H, phi, abs_targets, plan,
        seed=_mix(seed, 2), active=stage_sets["abs"],
    )
    if not bres.ok:
        return bres.failure.with_stage("step1")
    tau_abs = bres.tau
    z_edges = {key: [] for key in keys}
    abs_edges = {key: [] for key in keys}  # the pattern edge embedded on each z
    for (u, v) in H.edges_within(stage_sets["abs"]):
        key = _class_key(phi, u, v)
        z = (tau_abs[u], tau_abs[v])
        z_edges[key].append((min(z), max(z)))
        abs_edges[key].append((u, v))
    # a prescribed colour needs its own induced-matching edge, and one small
    # col component can host only one such edge in total (its 2-ball swallows
    # the component), so the per-class prescriptions are capped individually
    # by the components containing that class and jointly by the component
    # count
    comp_col = {key: 0 for key in keys}
    comp_total = 0
    for h, st in assign.items():
        if st != "col":
            continue
        comp_total += 1
        for key, cnt in class_of_comp[h].items():
            if cnt >= 1:
                comp_col[key] += 1
    p_cap = {}
    for key in keys:
        hcol = h_counts["col"][key]
        p_cap[key] = min(
            max(1, round(plan.p_abs * len(Cp[key]))), hcol, max(1, comp_col[key])
        )
    while sum(p_cap.values()) > comp_total:
        widest = max(keys, key=lambda k_: p_cap[k_])
        if p_cap[widest] <= 1:
            return Failure("split", PRECONDITION, seed,
                           detail="too few col components for the prescriptions")
        p_cap[widest] -= 1
    l_sizes, b_sizes = {}, {}
    for key in keys:
        habs = h_counts["abs"][key]
        hcol = h_counts["col"][key]
        hvx = h_counts["vx"][key]
        l_e = min(habs, max(1, round(plan.lambda1 * habs)))
        P_e = p_cap[key]
        b_e = hvx + hcol - P_e + l_e
        if b_e < l_e or b_e > len(Cp[key]) - (habs - l_e):
            return Failure("step1", PRECONDITION, seed, edge_class=key,
                           detail="absorber size ledger infeasible")
        l_sizes[key], b_sizes[key] = l_e, b_e
    absorber = build_absorber(
        t, z_edges, plan, seed=_mix(seed, 3),
        l_sizes=l_sizes, b_sizes=b_sizes,
        pools={key: list(Cp[key]) for key in keys},
    )
    if isinstance(absorber, Failure):
        return absorber.with_stage("step1")
    tau.update(tau_abs)
    used_hosts.update(tau_abs.values())

    # ---- preparation for Steps 2-4: vertex split of the remaining clusters
    Vpp = [tuple(v for v in Vp[i] if v not in used_hosts) for i in range(r)]
    n_colvx = [n_stage["col"][i] + n_stage["vx"][i] for i in range(r)]
    v_colvx, v_app = [], []
    for i in range(r):
        pool = list(Vpp[i])
        # screen vertices with weak B-degree before drawing the col/vx slice
        scores = []
        for v in pool:
            s = 0
            for j in range(r):
                key = (i, j) if i < j else (j, i)
                ent = absorber.per_edge.get(key)
                if ent is None or i == j:
                    continue
                other = mask_of(Vpp[j])
                s += gc.degree_into(v, other, ent.B)
            scores.append((s, rng.random(), v))
        scores.sort(reverse=True)
        ranked = [v for (_, _, v) in scores]
        take = n_colvx[i]
        if take > len(ranked):
            return Failure("prep", PRECONDITION, seed, cluster=i)
        head = ranked[: max(take, min(len(ranked), take * 2))]
        rng.shuffle(head)
        chosen = sorted(head[:take])
        v_colvx.append(chosen)
        v_app.append(sorted(set(pool) - set(chosen)))
    T2 = {
        v: (T1[v] & set((v_app if v in stage_sets["app"] else v_colvx)[phi[v]]))
        for v in T1
        if v not in tau
    }
    if any(not ts for ts in T2.values()):
        return Failure("prep", CANDIDATE_EXHAUSTED, seed, detail="target misses its stage slice")

    # ---- Step 2: the app stage with surplus P_e
    c_app = {
        key: tuple(
            c
            for c in Cp[key]
            if c not in set(absorber.per_edge[key].A) | set(absorber.per_edge[key].B)
        )
        for key in keys
    }
    for key in keys:
        if len(c_app[key]) != h_counts["app"][key] + p_cap[key]:
            return Failure("step2", PRECONDITION, seed, edge_class=key,
                           detail="app colour pool does not match the ledger")
    # app-stage parameters per the (F1)-style transform: (m/4, 4e, d/4, delta/4)
    ledger_app = make_ledger(
        max(Fraction(1), t.ledger.m / 4), 4 * t.ledger.eps,
        t.ledger.d / 4, t.ledger.delta / 4, mode="semi-super",
    )
    t_app = _sub_template(t, v_app, c_app, ledger=ledger_app, klass="semi-super")
    out2 = approx_embed(
        t_app, H, phi, T2, plan, seed=_mix(seed, 4), active=stage_sets["app"], beta=0.0
    )
    if not out2.ok:
        return out2.failure.with_stage("step2")
    sigma_app = dict(out2.embedding.sigma)
    tau.update(out2.embedding.tau)
    used_hosts.update(out2.embedding.tau.values())

    # ---- Step 3: prescribed colours (the app leftovers) on the col stage
    used_app = set(sigma_app.values())
    D = {key: [c for c in c_app[key] if c not in used_app] for key in keys}
    for key in keys:
        if len(D[key]) != p_cap[key]:
            return Failure("step3", PRECONDITION, seed, edge_class=key,
                           detail="leftover-app colour count drifted")
    c_col = {key: tuple(sorted(set(absorber.per_edge[key].B) | set(D[key]))) for key in keys}
    ledger_col = make_ledger(
        t.ledger.m, t.ledger.eps, t.ledger.d / 4, t.ledger.delta, mode="regular"
    )
    t_col = _sub_template(t, v_colvx, c_col, klass="regular", ledger=ledger_col)
    out3 = embed_prescribed_colours(
        t_col, H, phi, T2, D, plan, seed=_mix(seed, 5), active=stage_sets["col"],
        prescribed_density_floor=float(t.ledger.d) / 22,
    )
    if not out3.ok:
        return out3.failure.with_stage("step3")
    sigma_col = dict(out3.embedding.sigma)
    tau.update(out3.embedding.tau)
    used_hosts.update(out3.embedding.tau.values())

    # ---- Step 4: the vx stage inside B's leftovers
    used_col = set(sigma_col.values())
    c_vx = {
        key: tuple(c for c in absorber.per_edge[key].B if c not in used_col)
        for key in keys
    }
    for key in keys:
        if len(c_vx[key]) - h_counts["vx"][key] != l_sizes[key]:
            return Failure("step4", PRECONDITION, seed, edge_class=key,
                           detail="vx colour surplus is not the flexibility count")
    v_vx = [
        tuple(v for v in v_colvx[i] if v not in used_hosts) for i in range(r)
    ]
    # vx-stage parameters per the (F3)-style transform: (m', sqrt(e), d/13, delta/24)
    m_prime = max(Fraction(1), frac(plan.p_vx) * t.ledger.m / 8)
    ledger_vx = make_ledger(
        m_prime, frac(str(round(float(t.ledger.eps) ** 0.5, 9))),
        t.ledger.d / 13, t.ledger.delta / 24, mode="semi-super",
    )
    t_vx = _sub_template(t, v_vx, c_vx, ledger=ledger_vx, klass="semi-super")
    out4 = approx_embed(
        t_vx, H, phi, T2, plan, seed=_mix(seed, 6), active=stage_sets["vx"], beta=0.0
    )
    if not out4.ok:
        return out4.failure.with_stage("step4")
    sigma_vx = dict(out4.embedding.sigma)
    tau.update(out4.embedding.tau)

    # ---- Step 5: close the absorber on the exact leftover B-subset
    leftover_stats = {}
    used_vx = set(sigma_vx.values())
    for key in keys:
        ent = absorber.per_edge[key]
        c_abs = sorted(set(ent.A) | (set(c_vx[key]) - used_vx))
        b0 = sorted(set(c_abs) & set(ent.B))
        if len(b0) != ent.l:
            return Failure("step5", PRECONDITION, seed, edge_class=key,
                           detail=f"leftover identity broken: {len(b0)} != {ent.l}")
        leftover_stats[str(key)] = len(b0)
        m = absorber.matching_for(gc, key, b0)
        if m is None:
            return Failure("step5", ABSORBER_UNVERIFIABLE, seed, edge_class=key,
                           detail="sampled absorber missed the realised subset")
        # distribute over the pattern edges embedded on those host edges
        for e, z in zip(abs_edges[key], z_edges[key]):
            sigma[e] = m[z]
    sigma.update(sigma_app)
    sigma.update(sigma_col)
    sigma.update(sigma_vx)
    stats = {
        "X": list(X),
        "h_counts": {st: {str(k): v for k, v in d.items()} for st, d in h_counts.items()},
        "l_sizes": {str(k): v for k, v in l_sizes.items()},
        "leftover": leftover_stats,
        "absorber_verified": {
            str(k): (e.verified, e.subsets_checked) for k, e in absorber.per_edge.items()
        },
    }
    return tau, sigma, stats


# ---------------------------------------------------------------------------
# Application 1: transversal embedding in a uniformly dense collection


LADDER_DEGENERATE = "LadderDegenerate"


def quasi_embed(
    gc: GraphCollection,
    H: PatternGraph,
    plan: SplitPlan,
    seed: int = 0,
) -> EmbedOutcome:
    """Transversal copy of H in a uniformly dense collection with |C| = e(H).

    Pipeline: equitable colouring into Delta+1 independent parts; random
    balanced vertex partition with degree checks; per-pair sparsification of
    each slice; pigeonhole on the pair densities against the delta ladder to
    split sparse pairs (embedded first through candidate sets) from dense
    pairs (embedded by the transversal blow-up with the candidate sets as
    targets); a random colour split sized exactly to the dense classes.
    """
    from .regularity import PromiseViolated, sparsify_to_superregular

    n, K = gc.n, gc.n_colours
    if K != H.e:
        return EmbedOutcome.fail(
            "quasi", PRECONDITION, seed, detail=f"|C|={K} != e(H)={H.e}"
        )
    if H.n > n:
        return EmbedOutcome.fail("quasi", PRECONDITION, seed, detail="pattern too large")
    if H.e == 0:
        tau = {v: v for v in range(H.n)}
        return EmbedOutcome.success(gc, H, tau, {}, stats={"path": "empty"})
    # declared super-uniform-density floors, reported (not assumed) on failure
    alpha = plan.alpha
    weak_v = [v for v in range(n) if gc.total_degree(v) < alpha * K * n]
    weak_c = [c for c in range(K) if gc.edge_count(c) < alpha * n * n]
    if weak_v or weak_c:
        return EmbedOutcome.fail(
            "quasi", PRECONDITION, seed,
            weak_vertices=weak_v[:5], weak_colours=weak_c[:5],
            detail="declared degree/size floors fail",
        )
    delta_h = H.max_degree
    r = max(2, delta_h + 1)
    eq = equitable_colouring(H, r, seed=seed)
    if not eq.balanced:
        return EmbedOutcome.fail("quasi", UNBALANCEABLE, seed)
    A = [list(p) for p in eq.parts]
    phi = [0] * H.n
    for i, part in enumerate(A):
        for v in part:
            phi[v] = i
    # pair densities of H against the delta ladder
    class_all = _class_edges(H, phi, range(H.n))
    d_ij = {
        (i, j): len(class_all.get((i, j), ())) / H.n for i in range(r) for j in range(i + 1, r)
    }
    level = next(
        (ell for ell in range(1, len(d_ij) + 2)
         if all(x <= plan.delta_ladder(ell) or x >= plan.delta_ladder(ell + 1)
                for x in d_ij.values())),
        None,
    )
    if level is None:
        return EmbedOutcome.fail("quasi", PRECONDITION, seed, detail="no ladder level (unexpected)")
    sparse_pairs = {key for key, x in d_ij.items() if x <= plan.delta_ladder(level)}
    dense_pairs = set(d_ij) - sparse_pairs
    base_stats = {
        "ladder_level": level,
        "pair_densities": {str(k): v for k, v in d_ij.items()},
        "sparse_pairs": sorted(str(k) for k in sparse_pairs),
    }
    colours = list(range(K))
    R = SimpleGraph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])
    # the sparse side X (embedded first through candidate sets), its
    # neighbours Y and the rest, which the transversal blow-up embeds
    X = sorted({v for key in sparse_pairs for e in class_all.get(key, ()) for v in e})
    Xset = set(X)
    Y = sorted({y for x in X for y in H.neighbours(x)} - Xset)
    H_lt = PatternGraph(H.n, set(H.edges_within(X + Y)) - set(H.edges_within(Y)))
    active = set(range(H.n)) - Xset
    class_rest = _class_edges(H, phi, active)

    def attempt(sub_seed, _):
        rng = random.Random(sub_seed)
        hosts = list(range(n))
        rng.shuffle(hosts)
        V: list[list[int]] = []
        pos = 0
        for i in range(r):
            V.append(sorted(hosts[pos : pos + len(A[i])]))
            pos += len(A[i])
        # per-pair sparsification of the (V_i, V_j, C) slice
        rows = [[0] * n for _ in colours]
        dens_pairs = []
        for i in range(r):
            for j in range(i + 1, r):
                try:
                    out = sparsify_to_superregular(
                        gc, (V[i], V[j], colours),
                        eps=plan.eps, eps_prime=plan.eps, d=None,
                        seed=_mix(sub_seed, i, j),
                    )
                except PromiseViolated:
                    out = gc  # keep the raw slice; downstream checks decide
                cnt = out.add_slice_to(rows, V[i], V[j], colours)
                dens_pairs.append(cnt / max(1, len(V[i]) * len(V[j]) * K))
        jgc = GraphCollection.from_rows(n, rows)
        d_eff = max(0.05, 0.5 * min(dens_pairs)) if dens_pairs else 0.05
        ledger = make_ledger(
            min(len(v) for v in V), plan.eps,
            Fraction(str(round(d_eff, 6))), Fraction(1, 2), mode="super",
        )
        tmpl = make_template(
            R, V, {(i, j): colours for i in range(r) for j in range(i + 1, r)},
            jgc, ledger, rainbow=False, klass="super",
        )
        stats = dict(base_stats)
        if not dense_pairs:
            # every pair sparse: the run degenerates to one candidate-set pass
            order = _bfs_order(H, range(H.n))
            part = partial_embed(
                tmpl, H, phi, X=order, Y=[], targets=None, plan=plan, seed=sub_seed
            )
            if isinstance(part, Failure):
                return part.with_stage("quasi-sparse")
            stats["path"] = LADDER_DEGENERATE
            return EmbedOutcome.success(gc, H, part.tau, part.sigma, stats=stats)
        tau: dict[int, int] = {}
        sigma: dict[tuple[int, int], int] = {}
        cand: dict[int, set[int]] = {}
        if X:
            part = partial_embed(
                tmpl, H_lt, phi, X=_bfs_order(H, X), Y=Y,
                targets=None, plan=plan, seed=sub_seed,
            )
            if isinstance(part, Failure):
                return part.with_stage("quasi-sparse")
            tau.update(part.tau)
            sigma.update(part.sigma)
            cand = {y: set(part.candidates[y]) for y in part.candidates}
        used_cols = set(sigma.values())
        used_hosts = set(tau.values())
        rest_cols = [c for c in colours if c not in used_cols]
        rng.shuffle(rest_cols)
        Vp = [tuple(v for v in V[i] if v not in used_hosts) for i in range(r)]
        split: dict[tuple[int, int], tuple[int, ...]] = {}
        pos = 0
        for key in sorted(dense_pairs):
            need = len(class_rest.get(key, ()))
            split[key] = tuple(sorted(rest_cols[pos : pos + need]))
            pos += need
        if pos != len(rest_cols):
            return Failure("quasi", PRECONDITION, sub_seed, detail="colour split sizing mismatch")
        stats["colour_split_sizes"] = {str(k): len(v) for k, v in split.items()}
        stats["e_sparse"] = len(sigma)
        stats["colours_total"] = K
        tmpl2 = make_template(
            R, Vp, split, jgc, ledger, rainbow=True, klass="super",
        )
        out = transversal_blowup(
            tmpl2, H, phi, cand, plan, seed=_mix(sub_seed, 7),
            active=active,
        )
        if not out.ok:
            return out.failure
        tau.update(out.embedding.tau)
        sigma.update(out.embedding.sigma)
        stats["blowup"] = out.stats
        stats["ledger"] = ledger_to_json(tmpl2.ledger)
        return EmbedOutcome.success(gc, H, tau, sigma, stats=stats)

    out, _ = _retry(seed, 97, plan.retries, Failure("quasi", EMBEDDING_FAILED, seed), attempt)
    return EmbedOutcome(None, out, None) if isinstance(out, Failure) else out


# ---------------------------------------------------------------------------
# Application 2: 1-expansions in uniformly dense 3-graphs


@dataclass
class ExpansionOutcome:
    vertex_images: dict[int, int] | None
    edge_images: dict[tuple[int, int], int] | None
    failure: Failure | None
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.vertex_images is not None

    def rho(self, x):
        if isinstance(x, tuple):
            return self.edge_images[(min(x), max(x))]
        return self.vertex_images[x]


def expand_embed_3graph(
    g: ThreeGraph,
    H: PatternGraph,
    plan: SplitPlan,
    seed: int = 0,
) -> ExpansionOutcome:
    """Copy of the 1-expansion of H inside a dense 3-graph.

    Pads H with edges between isolated vertices (existing isolates first,
    fresh ones if needed) until e > n/4 - 1, restricts to non-isolated
    vertices, draws disjoint random vertex and colour sides, builds the
    induced collection and runs the uniformly-dense pipeline; the expansion
    map sends pattern vertices to the vertex side and pattern edges to the
    colour side.  Left-over isolated pattern vertices take unused host
    vertices.
    """
    n = g.n
    if H.n + H.e > n:
        return ExpansionOutcome(None, None, Failure(
            "expand", PRECONDITION, seed, detail="v(H)+e(H) > v(G)"
        ))
    if H.e == 0:
        rng = random.Random(_mix(seed, 101))
        hosts = rng.sample(range(n), H.n)
        return ExpansionOutcome(
            vertex_images={v: hosts[v] for v in range(H.n)},
            edge_images={},
            failure=None,
            stats={"path": "edgeless"},
        )
    iso = [v for v in range(H.n) if H.degree(v) == 0]
    edges = list(H.edges())
    fresh = 0
    pads: list[tuple[int, int]] = []
    pool = iso[:]
    next_id = H.n
    while len(edges) + len(pads) <= n / 4 - 1:
        if len(pool) >= 2:
            a, b = pool.pop(0), pool.pop(0)
        else:
            a, b = next_id, next_id + 1
            next_id += 2
            fresh += 2
        pads.append((a, b))
    all_edges = edges + pads
    touched = sorted({v for e in all_edges for v in e})
    touched_set = set(touched)
    leftover_iso = [v for v in range(H.n) if H.degree(v) == 0 and v not in touched_set]
    consumption = len(touched) + len(all_edges) + len(leftover_iso)
    if consumption > n:
        return ExpansionOutcome(None, None, Failure(
            "expand", PADDING_IMPOSSIBLE, seed,
            detail=f"padding needs {consumption} > {n} host vertices",
            padded_edges=len(pads), fresh_vertices=fresh,
        ))
    relabel = {v: i for i, v in enumerate(touched)}
    Hp = PatternGraph(len(touched), [(relabel[u], relabel[v]) for (u, v) in all_edges])
    # a draw's link collection has at most g.e edges over its Hp.e colours, so
    # below this count quasi_embed's per-colour floor fails on every draw
    need = plan.alpha * Hp.n**2 * Hp.e
    if g.e < need:
        return ExpansionOutcome(None, None, Failure(
            "expand", PRECONDITION, seed, host_edges=g.e, need=need,
            detail="too few host edges for the declared colour floor",
        ))

    def attempt(sub_seed, _):
        rng = random.Random(sub_seed)
        draw = rng.sample(range(n), Hp.n + Hp.e)
        v_side, c_side = sorted(draw[: Hp.n]), sorted(draw[Hp.n :])
        coll = g.link_collection(v_side, c_side)
        out = quasi_embed(coll, Hp, plan, seed=_mix(sub_seed, 5))
        if not out.ok:
            return out.failure
        tau_local = out.embedding.tau
        sigma_local = out.embedding.sigma
        vertex_images: dict[int, int] = {}
        for v in range(H.n):
            if v in relabel:
                vertex_images[v] = v_side[tau_local[relabel[v]]]
        edge_images: dict[tuple[int, int], int] = {}
        for (u, v) in H.edges():
            lu, lv = relabel[u], relabel[v]
            key = (lu, lv) if lu < lv else (lv, lu)
            edge_images[(u, v)] = c_side[sigma_local[key]]
        used = set(vertex_images.values()) | set(edge_images.values())
        free = [w for w in range(n) if w not in used]
        for v in leftover_iso:
            vertex_images[v] = free.pop()
        rep = verify_expansion(g, H, vertex_images, edge_images)
        if not rep.ok:
            raise UnverifiedOutput(f"expansion failed verification: {rep.violations}")
        return ExpansionOutcome(
            vertex_images=vertex_images,
            edge_images=edge_images,
            failure=None,
            stats={"padded_edges": len(pads), "fresh_vertices": fresh,
                   "quasi": out.stats},
        )

    out, _ = _retry(
        seed, 103, max(1, plan.retries // 4), Failure("expand", EMBEDDING_FAILED, seed), attempt
    )
    return ExpansionOutcome(None, None, out) if isinstance(out, Failure) else out
