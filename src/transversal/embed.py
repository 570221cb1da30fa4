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
from collections import Counter
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
    pick_bit,
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
        try:
            return self.ladder_base * self.ladder_ratio**level
        except OverflowError:  # the power is past the largest float
            return self.ladder_base * math.inf if self.ladder_base else 0.0

    def __post_init__(self):
        for p in (self.p_abs, self.p_col, self.p_vx):
            if not 0 < p < 1:
                raise ValueError("split probabilities must lie in (0,1)")
        if self.p_app <= 0:
            raise ValueError("p_app must stay positive")
        if not (math.isfinite(self.ladder_base) and math.isfinite(self.ladder_ratio)):
            raise ValueError("the delta ladder's base and ratio must be finite")
        if self.ladder_ratio <= 1:
            raise ValueError("the delta ladder must be strictly increasing")
        # retry loops run range(count): a float, a bool or a count below 1
        # would crash, pass for another count or report a failure no attempt saw
        for name, low in (("retries", 1), ("blowup_restarts", 1), ("approx_retries", 1),
                          ("absorber_retries", 1), ("absorber_samples", 1),
                          ("absorber_exhaustive_cap", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # not a bool
                raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")


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

    Vertex and colour candidate sets are bitmasks.  Used hosts and retired
    colours are kept in one mask each and taken out whenever a set is read,
    so "remove everywhere" is one bit.  Each pick is ``rng.choice`` over the
    set in ascending order, so the draws are those of the set-based loop.
    The colour-sum test is ``GraphCollection.degree_screen`` on packed rows
    cached on ``t.gc`` (at most n * |C| * n bits, built for screened hosts
    only); the cluster and class colour masks are cached on ``t``.
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
    d = float(t.ledger.d)
    eps = float(t.ledger.eps)
    m = float(t.ledger.m)
    floor = max(1, math.ceil(plan.nu_prime * m))

    order = X + Y
    pos = {v: i for i, v in enumerate(order)}
    cand_v: dict[int, int] = {}
    for w in order:
        tw = targets.get(w)
        if tw is None:
            cand_v[w] = t.cluster_masks[phi[w]]
        else:  # a target outside the cluster is ignored
            tw = set(tw)
            cand_v[w] = mask_of(v for v in t.clusters[phi[w]] if v in tw)
        if not cand_v[w]:
            return Failure(
                "partial", CANDIDATE_EXHAUSTED, seed,
                element=("vertex", w), step="init", detail="empty target within cluster",
            )
    # colour candidates per edge, later neighbours per x (no edge is inside Y)
    class_masks = t.colour_cluster_masks
    cand_c: dict[tuple[int, int], int] = {}
    later: dict[int, list[tuple[int, int, tuple[int, int]]]] = {x: [] for x in X}
    for u, v in H.edges_within(xy_set):
        key = _class_key(phi, u, v)
        if key not in class_masks:
            return Failure(
                "partial", PRECONDITION, seed,
                detail=f"phi is not a homomorphism: edge ({u},{v}) -> non-edge {key}",
            )
        cand_c[u, v] = class_masks[key]
        a, b = (u, v) if pos[u] < pos[v] else (v, u)
        later[a].append((pos[b], b, (u, v)))
    for ys in later.values():
        ys.sort()

    tau: dict[int, int] = {}
    sigma: dict[tuple[int, int], int] = {}
    used = 0  # hosts taken by tau
    retired = 0  # colours taken by sigma
    adj = t.gc.adj

    for x in X:
        # (x,1) colour-sum pruning of the vertex candidate set
        cx = cand_v[x] & ~used
        for _, y, e in later[x]:
            Cxy, Cy = cand_c[e] & ~retired, cand_v[y] & ~used
            if not Cxy or not Cy:
                return Failure(
                    "partial", CANDIDATE_EXHAUSTED, seed,
                    element=("edge", e), step=f"({x},1)",
                )
            thr = (d - eps) * Cxy.bit_count() * Cy.bit_count()
            cx = t.gc.degree_screen(cx, Cy, bits_of(Cxy), thr)
        if not cx:
            return Failure(
                "partial", CANDIDATE_EXHAUSTED, seed,
                element=("vertex", x), step=f"({x},1)",
            )
        # (x,2) choose the image; (x,3) retire the host vertex everywhere
        tau[x] = tx = pick_bit(rng, cx)
        used |= 1 << tx
        # (x,4) colours towards later neighbours
        for _, y, e in later[x]:
            Cy = cand_v[y] & ~used
            thr = d * Cy.bit_count() / 2
            Cxy = 0
            for c in bits_of(cand_c[e] & ~retired):
                if (adj(c, tx) & Cy).bit_count() >= thr:
                    Cxy |= 1 << c
            if not Cxy:
                return Failure(
                    "partial", CANDIDATE_EXHAUSTED, seed,
                    element=("edge", e), step=f"({x},{y},4.1)",
                )
            sigma[e] = c = pick_bit(rng, Cxy)
            retired |= 1 << c
            cand_v[y] = Cy & adj(c, tx)
            if not cand_v[y]:
                return Failure(
                    "partial", CANDIDATE_EXHAUSTED, seed,
                    element=("vertex", y), step=f"({x},{y},4.4)",
                )

    final = {y: cand_v[y] & ~used for y in Y}
    low = [(y, final[y].bit_count()) for y in Y if final[y].bit_count() < floor]
    if low:
        return Failure(
            "partial", CANDIDATE_EXHAUSTED, seed,
            element=("vertex", low[0][0]), step="final-floor",
            detail=f"candidate sets below nu'*m = {floor}: {low}",
        )
    return PartialEmbedding(
        tau=tau,
        sigma=sigma,
        candidates={y: frozenset(bits_of(final[y])) for y in Y},
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
            pick = pick_bit(rng, cand)
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
    l_sizes: dict[tuple[int, int], int],
    b_sizes: dict[tuple[int, int], int],
    seed: int = 0,
    pools: dict[tuple[int, int], list[int]] | None = None,
) -> Absorber | Failure:
    """Per R-edge: disjoint colour sets (A, B) with |B| = ``b_sizes[key]``
    and |A| = |Z| - l, l = ``l_sizes[key]``, such that A plus ANY l-subset
    of B perfectly colours the embedded edges Z.

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
        l, bsize = l_sizes[key], b_sizes[key]
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

_STAGES = ("abs", "app", "col", "vx")


def _identity(held: bool, step: str, what: str, **where) -> None:
    """Check a count that the split's bookkeeping fixes: a broken one is a
    library defect, not a run outcome, and raises even under ``python -O``."""
    if not held:
        raise UnverifiedOutput(f"{step}: {what} broken at {where}")


def _connecting_graph(H: PatternGraph, X: list[int], active) -> tuple[list[int], PatternGraph]:
    """The neighbours Y of X inside ``active`` (X excluded) and the graph of
    the edges at X, embedded first (the edges inside Y wait)."""
    Y = sorted({y for x in X for y in H.neighbours(x) if y in active}.difference(X))
    return Y, PatternGraph(H.n, set(H.edges_within(X + Y)) - set(H.edges_within(Y)))


@dataclass(frozen=True)
class _BlowupSetup:
    """What Steps 0-5 need that no draw changes, for one (H, phi, active):
    the verification view, the class edges, the separator X with Step 0's
    neighbours Y and connecting graph, the components outside X with their
    class edge counts, the template's class keys and whether those counts
    rule every split out (``decided``)."""

    view: _PatternView
    class_e: dict[tuple[int, int], list[tuple[int, int]]]
    X: list[int]
    Y: list[int]
    H_con: PatternGraph
    comps: list[list[int]]
    class_of_comp: list[dict[tuple[int, int], int]]
    keys: list[tuple[int, int]]
    decided: bool


def _blowup_setup(H: PatternGraph, phi, active: set[int], plan: SplitPlan,
                  keys: list[tuple[int, int]]) -> _BlowupSetup:
    """The set-up of ``transversal_blowup`` over ``active`` for a template
    with the sorted class keys ``keys``.  X is the certifier's separator of
    the active induced pattern, or empty when it certifies none (chunking
    then copes or fails typed)."""
    view = _pattern_view(H, phi, active)
    mu = plan.mu if view.pattern.n * plan.mu >= 1 else 1.0
    cert = separability_certificate(view.pattern, mu)
    X = (sorted(view.to_global[v] for v in cert.separator)
         if isinstance(cert, SeparabilityCertificate) else [])
    outside_x = set(active).difference(X)
    comps = H.components(outside_x)
    class_of_comp = [Counter(_class_key(phi, u, v) for (u, v) in H.edges_within(comp))
                     for comp in comps]
    return _BlowupSetup(view, _class_edges(H, phi, active), X,
                        *_connecting_graph(H, X, active), comps, class_of_comp,
                        keys, _split_decided(comps, class_of_comp, keys))


def transversal_blowup(
    t: Template,
    H: PatternGraph,
    phi,
    targets: dict[int, set[int]] | None,
    plan: SplitPlan,
    seed: int = 0,
    active: set[int] | None = None,
    setup: _BlowupSetup | None = None,
) -> EmbedOutcome:
    """Verified transversal embedding using every template colour exactly once.

    Step 0 embeds the separator graph and shrinks target sets to candidate
    sets; Step 1 embeds the absorber part into the lambda3-thick graph and
    builds the colour absorber (A, B); Steps 2-4 split the remaining clusters
    and colours, run the extra-colours embedder, the prescribed-colour
    embedder (on the app stage's leftover colours) and the extra-colours
    embedder again on the flexible pool; Step 5 closes by matching the
    absorber edges to A plus the leftover B-subset.  Counts that the split's
    bookkeeping fixes, such as that subset's size, are identities: a broken
    one raises ``UnverifiedOutput``.  Set-up that draws nothing, the split
    decision included, is built once (``setup``: ``_blowup_setup(H, phi,
    active, plan, sorted(t.colour_clusters))``, which a caller may pass in),
    and a split that the component counts rule out is not retried.
    Whenever Steps 0-5 give no embedding, at any pattern size, one
    candidate-set pass over a BFS order of the active vertices runs instead
    (``"path": "one-shot"``).  When that pass fails too, its failure is
    returned with ``diagnostics["main"]`` saying why Steps 0-5 gave none:
    ``"split-decided"`` when the component counts ruled the split out, else
    the last attempt's ``stage:reason``.
    """
    entry = _filling_entry("pipeline", t, H, phi, targets, seed, active)
    if isinstance(entry, EmbedOutcome):
        return entry
    active, targets = entry
    keys = sorted(t.colour_clusters)
    if setup is None:
        setup = _blowup_setup(H, phi, active, plan, keys)
    _identity(setup.keys == keys, "pipeline", "set-up class keys = template classes")
    class_e = setup.class_e
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
    if setup.decided:
        out = _no_split(seed)
    else:
        out, attempts = _retry(
            seed, 83, plan.retries, Failure("pipeline", EMBEDDING_FAILED, seed),
            lambda sub_seed, _: _pipeline_once(t, H, phi, targets, plan, sub_seed, setup),
        )
    main = out
    # class sizes equal class edge counts, so one pass can use every colour
    if isinstance(out, Failure):
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
    if isinstance(out, Failure):  # say why Steps 0-5 gave no embedding
        why = "split-decided" if setup.decided else f"{main.stage}:{main.reason}"
        out.diagnostics["main"] = why
        return EmbedOutcome(embedding=None, failure=out, verification=None)
    tau, sigma, run_stats = out
    run_stats["attempts"] = attempts
    done = EmbedOutcome.success(t.gc, H, tau, sigma, stats=run_stats, view=setup.view)
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
    spread = Counter(key for counts in class_of_comp for key in counts)
    need = len(keys) + 2 if keys else 1
    return len(comps) < need or any(spread[key] < 2 for key in keys)


def _stage_class_counts(assign, class_of_comp, keys, stage) -> dict[tuple[int, int], int]:
    """The class edge counts of the components that ``assign`` puts in
    ``stage``, over ``keys`` in their order."""
    out = dict.fromkeys(keys, 0)
    for h, st in assign.items():
        if st == stage:
            for key, cnt in class_of_comp[h].items():
                out[key] += cnt
    return out


def _split_components(comps, class_of_comp, plan, rng, keys):
    """Random abs/app/col/vx split of components with post-adjustment so every
    colour class keeps at least one absorber edge and one col edge."""
    probs = [plan.p_abs, plan.p_app, plan.p_col, plan.p_vx]
    assign: dict[int, str] = {}
    for h in range(len(comps)):
        x = rng.random()
        acc = 0.0
        assign[h] = "vx"
        for st, p in zip(_STAGES, probs):
            acc += p
            if x < acc:
                assign[h] = st
                break

    def donors(stage, key=None):
        return [h for h, st in assign.items()
                if st == stage and (key is None or class_of_comp[h].get(key, 0) >= 1)]

    # post-adjust: abs and col need edges in every class
    for need_stage in ("abs", "col"):
        for key in keys:
            if _stage_class_counts(assign, class_of_comp, keys, need_stage)[key] >= 1:
                continue
            pool = donors("app", key) or donors("vx", key)
            if not pool:
                return None
            assign[rng.choice(pool)] = need_stage
    # the prescribed-colour matching hosts one induced edge per component, so
    # the col stage needs at least one component per colour class
    while sum(1 for st in assign.values() if st == "col") < len(keys):
        pool = donors("app") or donors("vx")
        if not pool:
            return None
        assign[rng.choice(pool)] = "col"
    if "app" not in assign.values():
        # app must be nonempty to anchor the leftover-colour bridge
        pool = donors("vx")
        if not pool:
            return None
        assign[rng.choice(pool)] = "app"
    return assign


class _Attempt:
    """The run state of one attempt of Steps 0-5: the call's inputs, its
    set-up and rng, and the attributes each step sets for the later ones."""

    def __init__(self, t: Template, H: PatternGraph, phi, targets, plan: SplitPlan,
                 seed: int, setup: _BlowupSetup):
        self.t, self.H, self.phi, self.targets = t, H, phi, targets
        self.plan, self.seed, self.setup, self.rng = plan, seed, setup, random.Random(seed)
        self.keys = setup.keys
        self.sigmas = {}  # Steps 2-4: stage -> its colouring


def _split(run: _Attempt) -> Failure | None:
    """The random abs/app/col/vx split of the components outside X, with
    each stage's vertices, its class edge counts (row ``con``: the edges at
    X) and its vertex count per cluster."""
    s, keys = run.setup, run.keys
    assign = _split_components(s.comps, s.class_of_comp, run.plan, run.rng, keys)
    if assign is None:
        return _no_split(run.seed)
    run.assign = assign
    run.stage_sets = {st: set() for st in _STAGES}
    for h, st in assign.items():
        run.stage_sets[st].update(s.comps[h])
    rows = {st: _stage_class_counts(assign, s.class_of_comp, keys, st) for st in _STAGES}
    con = {key: len(s.class_e.get(key, ())) - sum(rows[st][key] for st in _STAGES)
           for key in keys}
    run.h_counts = {"con": con, **rows}
    run.n_stage = {st: [0] * run.t.r for st in _STAGES}
    for st, vs in run.stage_sets.items():
        for v in vs:
            run.n_stage[st][run.phi[v]] += 1


def _step0(run: _Attempt) -> Failure | None:
    """Step 0: embed the connecting graph, shrink the targets of its
    neighbours Y to their candidate sets, and leave the free hosts ``Vp``
    and colours ``Cp``: exactly the stage vertices and stage edges."""
    t, s, phi = run.t, run.setup, run.phi
    con_targets = {w: run.targets.get(w) or set(t.clusters[phi[w]]) for w in s.X + s.Y}
    part = partial_embed(t, s.H_con, phi, X=s.X, Y=s.Y, targets=con_targets, plan=run.plan,
                         seed=run.seed)
    if isinstance(part, Failure):
        return part.with_stage("step0")
    run.tau, run.sigma = dict(part.tau), dict(part.sigma)
    run.T1 = {y: set(part.candidates[y]) for y in s.Y}
    for v, ts in run.targets.items():
        if v not in run.tau and v not in run.T1:
            run.T1[v] = set(ts)
    run.used_hosts = set(run.tau.values())
    used_cols = set(run.sigma.values())
    run.Vp = [tuple(v for v in t.clusters[i] if v not in run.used_hosts) for i in range(t.r)]
    run.Cp = {key: tuple(c for c in t.colour_clusters[key] if c not in used_cols)
              for key in run.keys}
    for i in range(t.r):
        _identity(len(run.Vp[i]) == sum(run.n_stage[st][i] for st in _STAGES),
                  "step0", "free hosts = stage vertices", cluster=i)
    for key in run.keys:
        _identity(len(run.Cp[key]) == sum(run.h_counts[st][key] for st in _STAGES),
                  "step0", "free colours = stage edges", edge_class=key)


def _prescription_caps(run: _Attempt) -> dict[tuple[int, int], int]:
    """P_e, the colours prescribed per class in Step 3.  A prescribed colour
    needs its own induced-matching edge, and one small col component can
    host only one such edge in total (its 2-ball swallows the component), so
    the caps are individual (the col components containing the class) and
    joint (the col component count)."""
    keys = run.keys
    col = [h for h, st in run.assign.items() if st == "col"]
    comp_col = dict.fromkeys(keys, 0)
    for h in col:
        for key in run.setup.class_of_comp[h]:
            comp_col[key] += 1
    # with a col component per class, a sum above the count has a cap >= 2
    comp_total = len(col)
    _identity(comp_total >= len(keys), "step1", "a col component per class", col=comp_total)
    p_cap = {
        key: min(max(1, round(run.plan.p_abs * len(run.Cp[key]))),
                 run.h_counts["col"][key], max(1, comp_col[key]))
        for key in keys
    }
    while sum(p_cap.values()) > comp_total:
        p_cap[max(keys, key=lambda k_: p_cap[k_])] -= 1
    return p_cap


def _step1(run: _Attempt) -> Failure | None:
    """Step 1: embed the abs stage into the lambda3-thick graph on a random
    slice of the free hosts, and build the colour absorber on its host
    edges, sized so that Steps 2-4 leave exactly l colours of each B."""
    t, H, phi, plan, keys = run.t, run.H, run.phi, run.plan, run.keys
    v_abs = []
    for i in range(t.r):
        pool = list(run.Vp[i])
        run.rng.shuffle(pool)
        v_abs.append(sorted(pool[: run.n_stage["abs"][i]]))
    thick = thick_host_graph(t.gc, v_abs, run.Cp, plan.lambda3)
    abs_set = run.stage_sets["abs"]
    abs_targets = {v: run.T1[v] & set(v_abs[phi[v]]) for v in abs_set if v in run.T1}
    if any(not ts for ts in abs_targets.values()):
        return Failure("step1", CANDIDATE_EXHAUSTED, run.seed,
                       detail="target misses the absorber slice")
    bres = blowup_embed(thick, v_abs, t.R, H, phi, abs_targets, plan, seed=_mix(run.seed, 2),
                        active=abs_set)
    if not bres.ok:
        return bres.failure.with_stage("step1")
    tau_abs = bres.tau
    run.z_edges = {key: [] for key in keys}
    run.abs_edges = {key: [] for key in keys}  # the pattern edge embedded on each z
    for (u, v) in H.edges_within(abs_set):
        key = _class_key(phi, u, v)
        z = (tau_abs[u], tau_abs[v])
        run.z_edges[key].append((min(z), max(z)))
        run.abs_edges[key].append((u, v))
    run.p_cap = _prescription_caps(run)
    run.l_sizes, b_sizes = {}, {}
    for key in keys:
        habs, hcol, hvx = (run.h_counts[st][key] for st in ("abs", "col", "vx"))
        l_e = min(habs, max(1, round(plan.lambda1 * habs)))
        b_e = hvx + hcol - run.p_cap[key] + l_e
        _identity(l_e <= b_e <= len(run.Cp[key]) - (habs - l_e),
                  "step1", "absorber size ledger", edge_class=key)
        run.l_sizes[key], b_sizes[key] = l_e, b_e
    absorber = build_absorber(t, run.z_edges, plan, run.l_sizes, b_sizes, seed=_mix(run.seed, 3),
                              pools={key: list(run.Cp[key]) for key in keys})
    if isinstance(absorber, Failure):
        return absorber.with_stage("step1")
    run.absorber = absorber
    run.tau.update(tau_abs)
    run.used_hosts.update(tau_abs.values())


def _prep(run: _Attempt) -> Failure | None:
    """Preparation for Steps 2-4: split each cluster's free hosts into the
    app slice and the col/vx slice, drawn from the hosts of highest B-degree
    towards the other clusters, and shrink the targets to those slices."""
    r, rng, gc, n_stage = run.t.r, run.rng, run.t.gc, run.n_stage
    per_edge = run.absorber.per_edge
    Vpp = [tuple(v for v in run.Vp[i] if v not in run.used_hosts) for i in range(r)]
    masks = [mask_of(vs) for vs in Vpp]
    v_colvx, v_app = [], []
    for i in range(r):
        pool = list(Vpp[i])
        take = n_stage["col"][i] + n_stage["vx"][i]
        _identity(len(pool) == take + n_stage["app"][i],
                  "prep", "free hosts = app, col and vx vertices", cluster=i)
        # screen vertices with weak B-degree before drawing the col/vx slice
        scores = []
        for v in pool:
            s = 0
            for j in range(r):
                key = (i, j) if i < j else (j, i)
                ent = per_edge.get(key)
                if ent is None or i == j:
                    continue
                s += gc.degree_into(v, masks[j], ent.B)
            scores.append((s, rng.random(), v))
        scores.sort(reverse=True)
        ranked = [v for (_, _, v) in scores]
        head = ranked[: max(take, min(len(ranked), take * 2))]
        rng.shuffle(head)
        chosen = sorted(head[:take])
        v_colvx.append(chosen)
        v_app.append(sorted(set(pool) - set(chosen)))
    app_set = run.stage_sets["app"]
    T2 = {v: ts & set((v_app if v in app_set else v_colvx)[run.phi[v]])
          for v, ts in run.T1.items() if v not in run.tau}
    if any(not ts for ts in T2.values()):
        return Failure("prep", CANDIDATE_EXHAUSTED, run.seed,
                       detail="target misses its stage slice")
    run.v_colvx, run.v_app, run.T2 = v_colvx, v_app, T2


def _stage_embed(run: _Attempt, step: str, stage: str, embedder, t_stage: Template, tag: int,
                 **kw) -> Failure | None:
    """Embed one stage of Steps 2-4 on its sub-template and keep its
    colouring in ``run.sigmas``; the failure, tagged with the step."""
    out = embedder(t_stage, run.H, run.phi, run.T2, plan=run.plan, seed=_mix(run.seed, tag),
                   active=run.stage_sets[stage], **kw)
    if not out.ok:
        return out.failure.with_stage(step)
    run.sigmas[stage] = dict(out.embedding.sigma)
    run.tau.update(out.embedding.tau)
    run.used_hosts.update(out.embedding.tau.values())


def _step2(run: _Attempt) -> Failure | None:
    """Step 2: the app stage on the colours outside A and B, which leaves
    P_e of them per class."""
    t = run.t
    run.c_app = {}
    for key in run.keys:
        ent = run.absorber.per_edge[key]
        held = set(ent.A) | set(ent.B)
        run.c_app[key] = tuple(c for c in run.Cp[key] if c not in held)
        _identity(len(run.c_app[key]) == run.h_counts["app"][key] + run.p_cap[key],
                  "step2", "app colours = app edges + P_e", edge_class=key)
    # app-stage parameters per the (F1)-style transform: (m/4, 4e, d/4, delta/4)
    led = t.ledger
    ledger_app = make_ledger(max(Fraction(1), led.m / 4), 4 * led.eps, led.d / 4, led.delta / 4,
                             mode="semi-super")
    t_app = _sub_template(t, run.v_app, run.c_app, ledger=ledger_app, klass="semi-super")
    return _stage_embed(run, "step2", "app", approx_embed, t_app, 4, beta=0.0)


def _step3(run: _Attempt) -> Failure | None:
    """Step 3: the col stage on B plus the app stage's leftover colours D,
    every colour of D prescribed."""
    t = run.t
    used_app = set(run.sigmas["app"].values())
    D = {key: [c for c in run.c_app[key] if c not in used_app] for key in run.keys}
    for key in run.keys:
        _identity(len(D[key]) == run.p_cap[key], "step3", "app leftovers = P_e", edge_class=key)
    c_col = {key: tuple(sorted({*run.absorber.per_edge[key].B, *D[key]})) for key in run.keys}
    ledger_col = make_ledger(t.ledger.m, t.ledger.eps, t.ledger.d / 4, t.ledger.delta,
                             mode="regular")
    t_col = _sub_template(t, run.v_colvx, c_col, klass="regular", ledger=ledger_col)
    return _stage_embed(run, "step3", "col", embed_prescribed_colours, t_col, 5, prescribed=D,
                        prescribed_density_floor=float(t.ledger.d) / 22)


def _step4(run: _Attempt) -> Failure | None:
    """Step 4: the vx stage inside B's leftovers, which exceed the vx edges
    by the flexibility count l."""
    t = run.t
    used_col = set(run.sigmas["col"].values())
    run.c_vx = {}
    for key in run.keys:
        run.c_vx[key] = tuple(c for c in run.absorber.per_edge[key].B if c not in used_col)
        _identity(len(run.c_vx[key]) - run.h_counts["vx"][key] == run.l_sizes[key],
                  "step4", "vx colours = vx edges + l", edge_class=key)
    v_vx = [tuple(v for v in run.v_colvx[i] if v not in run.used_hosts) for i in range(t.r)]
    # vx-stage parameters per the (F3)-style transform: (m', sqrt(e), d/13, delta/24)
    m_prime = max(Fraction(1), frac(run.plan.p_vx) * t.ledger.m / 8)
    ledger_vx = make_ledger(m_prime, frac(str(round(float(t.ledger.eps) ** 0.5, 9))),
                            t.ledger.d / 13, t.ledger.delta / 24, mode="semi-super")
    t_vx = _sub_template(t, v_vx, run.c_vx, ledger=ledger_vx, klass="semi-super")
    return _stage_embed(run, "step4", "vx", approx_embed, t_vx, 6, beta=0.0)


def _step5(run: _Attempt) -> Failure | None:
    """Step 5: close each absorber on its leftover B-subset (exactly l
    colours) and colour the abs stage's edges by the matching."""
    used_vx = set(run.sigmas["vx"].values())
    run.leftover = {}
    for key in run.keys:
        ent = run.absorber.per_edge[key]
        b0 = sorted(set(run.c_vx[key]) - used_vx)
        _identity(len(b0) == ent.l, "step5", "B leftovers = l", edge_class=key)
        run.leftover[str(key)] = len(b0)
        m = run.absorber.matching_for(run.t.gc, key, b0)
        if m is None:
            return Failure("step5", ABSORBER_UNVERIFIABLE, run.seed, edge_class=key,
                           detail="sampled absorber missed the realised subset")
        # distribute over the pattern edges embedded on those host edges
        for e, z in zip(run.abs_edges[key], run.z_edges[key]):
            run.sigma[e] = m[z]
    for st in ("app", "col", "vx"):
        run.sigma.update(run.sigmas[st])


_STEPS = (_split, _step0, _step1, _prep, _step2, _step3, _step4, _step5)


def _run_steps(run, steps) -> Failure | None:
    """The one step loop of an attempt: run ``steps`` in turn on the run
    state ``run``, each returning a typed failure or None, and return the
    first failure (None when every step ran)."""
    for step in steps:
        failure = step(run)
        if failure is not None:
            return failure
    return None


def _pipeline_once(t, H, phi, targets, plan, seed, setup):
    """One attempt of Steps 0-5 over the set-up that ``transversal_blowup``
    builds once: the steps through ``_run_steps``, then (tau, sigma, stats)."""
    run = _Attempt(t, H, phi, targets, plan, seed, setup)
    failure = _run_steps(run, _STEPS)
    if failure is not None:
        return failure
    return run.tau, run.sigma, {
        "X": list(setup.X),
        "h_counts": {st: {str(k): v for k, v in d.items()} for st, d in run.h_counts.items()},
        "l_sizes": {str(k): v for k, v in run.l_sizes.items()},
        "leftover": run.leftover,
        "absorber_verified": {
            str(k): (e.verified, e.subsets_checked) for k, e in run.absorber.per_edge.items()
        },
    }


# ---------------------------------------------------------------------------
# Application 1: transversal embedding in a uniformly dense collection


LADDER_DEGENERATE = "LadderDegenerate"


class _Run:
    """The run state of one attempt of ``quasi_embed`` or
    ``expand_embed_3graph``: its inputs, set-up, sub-seed and rng, and the
    attributes each step sets for the later ones."""

    def __init__(self, setup, seed: int, **inputs):
        self.__dict__.update(inputs)
        self.setup, self.seed, self.rng = setup, seed, random.Random(seed)


@dataclass(frozen=True)
class _QuasiSetup:
    """What the attempts of ``quasi_embed`` share, none of it drawn.  The
    blow-up's set-up is None when no pair is dense."""

    r: int
    parts: list[list[int]]
    phi: list[int]
    R: SimpleGraph
    level: int
    base_stats: dict
    dense_keys: list[tuple[int, int]]
    sparse_H: PatternGraph
    order: list[int]
    Y: list[int]
    active: set[int]
    blowup: _BlowupSetup | None


def _quasi_setup(H: PatternGraph, plan: SplitPlan, seed: int) -> _QuasiSetup | Failure:
    """Colour H equitably into Delta+1 parts, split the pairs of parts by
    density against the delta ladder, and fix the sparse side: all of H when
    no pair is dense, else the vertices X of the sparse classes with their
    neighbours Y and ``H_lt``, the edges at X.  Or the typed failure."""
    r = max(2, H.max_degree + 1)
    eq = equitable_colouring(H, r, seed=seed)
    if not eq.balanced:
        return Failure("quasi", UNBALANCEABLE, seed)
    parts = [list(p) for p in eq.parts]
    phi = [0] * H.n
    for i, part in enumerate(parts):
        for v in part:
            phi[v] = i
    pairs = list(combinations(range(r), 2))
    class_all = _class_edges(H, phi, range(H.n))
    d_ij = {key: len(class_all.get(key, ())) / H.n for key in pairs}
    # the len(d_ij) densities cannot meet all len(d_ij) + 1 disjoint gaps
    # between consecutive rungs of a finite ladder: one level is free of them
    level = next(
        (ell for ell in range(1, len(d_ij) + 2)
         if all(x <= plan.delta_ladder(ell) or x >= plan.delta_ladder(ell + 1)
                for x in d_ij.values())),
        None,
    )
    _identity(level is not None, "quasi", "a ladder level free of pair densities",
              densities=sorted(d_ij.values()))
    sparse_pairs = {key for key, x in d_ij.items() if x <= plan.delta_ladder(level)}
    dense_keys = sorted(set(d_ij) - sparse_pairs)
    base_stats = {
        "ladder_level": level,
        "pair_densities": {str(k): v for k, v in d_ij.items()},
        "sparse_pairs": sorted(str(k) for k in sparse_pairs),
    }
    X = sorted({v for key in sparse_pairs for e in class_all.get(key, ()) for v in e})
    active = set(range(H.n)).difference(X)
    if dense_keys:
        Y, sparse_H = _connecting_graph(H, X, range(H.n))
        order, blowup = _bfs_order(H, X), _blowup_setup(H, phi, active, plan, dense_keys)
    else:  # the run degenerates to one candidate-set pass over all of H
        Y, sparse_H, order, blowup = [], H, _bfs_order(H, range(H.n)), None
    return _QuasiSetup(r, parts, phi, SimpleGraph(r, pairs), level, base_stats, dense_keys,
                       sparse_H, order, Y, active, blowup)


def _quasi_draw(run: _Run) -> None:
    """Draw V_i: a random vertex partition of the hosts with |V_i| = |A_i|."""
    hosts = list(range(run.gc.n))
    run.rng.shuffle(hosts)
    run.V, pos = [], 0
    for part in run.setup.parts:
        run.V.append(sorted(hosts[pos : pos + len(part)]))
        pos += len(part)


def _quasi_sparsify(run: _Run) -> None:
    """Sparsify each (V_i, V_j, C) slice, or keep it raw when it breaks the
    promise (downstream checks decide); the collection is their union."""
    # a call-time import: the benchmark's tracer patches the regularity module
    from .regularity import PromiseViolated, sparsify_to_superregular

    gc, V, K = run.gc, run.V, run.gc.n_colours
    colours = list(range(K))
    slices, densities = [], []
    for i, j in combinations(range(run.setup.r), 2):
        try:
            out = sparsify_to_superregular(gc, (V[i], V[j], colours), eps=run.plan.eps,
                                           eps_prime=run.plan.eps, d=None,
                                           seed=_mix(run.seed, i, j))
        except PromiseViolated:
            rows = [[0] * gc.n for _ in colours]
            gc.add_slice_to(rows, V[i], V[j], colours)
            out = GraphCollection.from_rows(gc.n, rows)
        slices.append(out)
        densities.append(out.total_edge_count() / max(1, len(V[i]) * len(V[j]) * K))
    run.jgc = GraphCollection.union(slices)
    run.d_eff = max(0.05, 0.5 * min(densities))  # r >= 2 gives a pair


def _quasi_template(run: _Run) -> None:
    """The super template on the V_i with every colour on every pair."""
    s, colours = run.setup, list(range(run.gc.n_colours))
    run.ledger = make_ledger(
        min(len(v) for v in run.V), run.plan.eps,
        Fraction(str(round(run.d_eff, 6))), Fraction(1, 2), mode="super",
    )
    run.tmpl = make_template(s.R, run.V, {key: colours for key in combinations(range(s.r), 2)},
                             run.jgc, run.ledger, rainbow=False, klass="super")


def _quasi_sparse(run: _Run) -> Failure | None:
    """Embed the sparse side (if any) through candidate sets; those of Y
    are the dense side's targets."""
    s = run.setup
    if not s.order:
        return None
    part = partial_embed(run.tmpl, s.sparse_H, s.phi, X=s.order, Y=s.Y, targets=None,
                         plan=run.plan, seed=run.seed)
    if isinstance(part, Failure):
        return part.with_stage("quasi-sparse")
    run.tau.update(part.tau)
    run.sigma.update(part.sigma)
    run.cand = {y: set(part.candidates[y]) for y in part.candidates}


def _quasi_dense(run: _Run) -> Failure | None:
    """Embed the dense side (if any) by the transversal blow-up on the
    hosts left and a random colour split sized to the dense classes."""
    s, K = run.setup, run.gc.n_colours
    if s.blowup is None:
        run.stats["path"] = LADDER_DEGENERATE
        return None
    used_cols, used_hosts = set(run.sigma.values()), set(run.tau.values())
    rest_cols = [c for c in range(K) if c not in used_cols]
    run.rng.shuffle(rest_cols)
    Vp = [tuple(v for v in part if v not in used_hosts) for part in run.V]
    split: dict[tuple[int, int], tuple[int, ...]] = {}
    pos = 0
    for key in s.dense_keys:
        need = len(s.blowup.class_e.get(key, ()))
        split[key] = tuple(sorted(rest_cols[pos : pos + need]))
        pos += need
    # every edge inside active lies in a dense pair
    _identity(pos == len(rest_cols), "quasi", "colour split = dense class edges")
    run.stats.update(colour_split_sizes={str(k): len(v) for k, v in split.items()},
                     e_sparse=len(run.sigma), colours_total=K)
    tmpl = make_template(s.R, Vp, split, run.jgc, run.ledger, rainbow=True, klass="super")
    out = transversal_blowup(tmpl, run.H, s.phi, run.cand, run.plan, seed=_mix(run.seed, 7),
                             active=s.active, setup=s.blowup)
    if not out.ok:
        return out.failure
    run.tau.update(out.embedding.tau)
    run.sigma.update(out.embedding.sigma)
    run.stats.update(blowup=out.stats, ledger=ledger_to_json(tmpl.ledger))


_QUASI_STEPS = (_quasi_draw, _quasi_sparsify, _quasi_template, _quasi_sparse, _quasi_dense)


def quasi_embed(
    gc: GraphCollection,
    H: PatternGraph,
    plan: SplitPlan,
    seed: int = 0,
) -> EmbedOutcome:
    """Transversal copy of H in a uniformly dense collection with |C| = e(H).

    After the precondition checks, the set-up that no draw changes is built
    once (``_quasi_setup``): an equitable colouring into Delta+1 independent
    parts, the pigeonhole on the pair densities against the delta ladder
    that splits sparse pairs from dense ones, the sparse side and, when a
    pair is dense, the blow-up's set-up with its split decision.  Each
    attempt then runs ``_QUASI_STEPS`` through ``_run_steps``: draw the
    balanced vertex partition V_i, sparsify each pair's slice, build the
    template, embed the sparse side through candidate sets, and embed the
    dense side by the transversal blow-up with the candidate sets as
    targets on a random colour split sized exactly to the dense classes.
    """
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
    weak_v = [v for v, deg in enumerate(gc.total_degrees()) if deg < alpha * K * n]
    weak_c = [c for c in range(K) if gc.edge_count(c) < alpha * n * n]
    if weak_v or weak_c:
        return EmbedOutcome.fail(
            "quasi", PRECONDITION, seed,
            weak_vertices=weak_v[:5], weak_colours=weak_c[:5],
            detail="declared degree/size floors fail",
        )
    setup = _quasi_setup(H, plan, seed)
    if isinstance(setup, Failure):
        return EmbedOutcome(None, setup, None)

    def attempt(sub_seed, _):
        run = _Run(setup, sub_seed, gc=gc, H=H, plan=plan, tau={}, sigma={}, cand={},
                   stats=dict(setup.base_stats))
        failure = _run_steps(run, _QUASI_STEPS)
        if failure is not None:
            return failure
        return EmbedOutcome.success(gc, H, run.tau, run.sigma, stats=run.stats)

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


@dataclass(frozen=True)
class _ExpandSetup:
    """What the attempts of ``expand_embed_3graph`` share, none of it
    drawn: the padded pattern Hp on the touched vertices, H's relabelling
    into it, H's isolated vertices that no pad took and the padding stats."""

    Hp: PatternGraph
    relabel: dict[int, int]
    leftover_iso: list[int]
    stats: dict


def _expand_setup(g: ThreeGraph, H: PatternGraph, plan: SplitPlan,
                  seed: int) -> _ExpandSetup | Failure:
    """Pad H with edges between isolated vertices (existing isolates first,
    fresh ones if needed) until e > n/4 - 1 and relabel it onto the touched
    vertices; or the typed failure when g is too small for that."""
    n, edges = g.n, list(H.edges())
    pool = [v for v in range(H.n) if H.degree(v) == 0]  # the isolates left
    pads: list[tuple[int, int]] = []
    next_id = H.n
    while len(edges) + len(pads) <= n / 4 - 1:
        if len(pool) >= 2:
            pads.append((pool.pop(0), pool.pop(0)))
        else:
            pads.append((next_id, next_id + 1))
            next_id += 2
    all_edges = edges + pads
    touched = sorted({v for e in all_edges for v in e})
    consumption = len(touched) + len(all_edges) + len(pool)
    fresh = next_id - H.n
    if consumption > n:
        return Failure("expand", PADDING_IMPOSSIBLE, seed,
                       detail=f"padding needs {consumption} > {n} host vertices",
                       padded_edges=len(pads), fresh_vertices=fresh)
    relabel = {v: i for i, v in enumerate(touched)}
    Hp = PatternGraph(len(touched), [(relabel[u], relabel[v]) for (u, v) in all_edges])
    # a draw's link collection has at most g.e edges over its Hp.e colours, so
    # below this count quasi_embed's per-colour floor fails on every draw
    need = plan.alpha * Hp.n**2 * Hp.e
    if g.e < need:
        return Failure("expand", PRECONDITION, seed, host_edges=g.e, need=need,
                       detail="too few host edges for the declared colour floor")
    return _ExpandSetup(Hp, relabel, pool, {"padded_edges": len(pads), "fresh_vertices": fresh})


def _expand_draw(run: _Run) -> None:
    """Draw the disjoint vertex side and colour side of the host."""
    Hp = run.setup.Hp
    draw = run.rng.sample(range(run.g.n), Hp.n + Hp.e)
    run.v_side, run.c_side = sorted(draw[: Hp.n]), sorted(draw[Hp.n :])


def _expand_link(run: _Run) -> None:
    """The link collection of the vertex side over the colour side."""
    run.coll = run.g.link_collection(run.v_side, run.c_side)


def _expand_quasi(run: _Run) -> Failure | None:
    """Embed Hp in the link collection by ``quasi_embed``, map it back to
    the sides (left-over isolates to unused hosts) and verify the result."""
    s, H = run.setup, run.H
    out = quasi_embed(run.coll, s.Hp, run.plan, seed=_mix(run.seed, 5))
    if not out.ok:
        return out.failure
    tau, sigma = out.embedding.tau, out.embedding.sigma
    vertex_images = {v: run.v_side[tau[s.relabel[v]]] for v in range(H.n) if v in s.relabel}
    edge_images: dict[tuple[int, int], int] = {}
    for (u, v) in H.edges():
        lu, lv = s.relabel[u], s.relabel[v]
        edge_images[(u, v)] = run.c_side[sigma[(lu, lv) if lu < lv else (lv, lu)]]
    used = set(vertex_images.values()) | set(edge_images.values())
    free = [w for w in range(run.g.n) if w not in used]
    for v in s.leftover_iso:
        vertex_images[v] = free.pop()
    rep = verify_expansion(run.g, H, vertex_images, edge_images)
    if not rep.ok:
        raise UnverifiedOutput(f"expansion failed verification: {rep.violations}")
    run.out = ExpansionOutcome(vertex_images, edge_images, None,
                               stats={**s.stats, "quasi": out.stats})


_EXPAND_STEPS = (_expand_draw, _expand_link, _expand_quasi)


def expand_embed_3graph(
    g: ThreeGraph,
    H: PatternGraph,
    plan: SplitPlan,
    seed: int = 0,
) -> ExpansionOutcome:
    """Copy of the 1-expansion of H inside a dense 3-graph.

    The set-up that no draw changes is built once (``_expand_setup``): H is
    padded with edges between isolated vertices until e > n/4 - 1 and
    restricted to its non-isolated vertices.  Each attempt then runs
    ``_EXPAND_STEPS`` through ``_run_steps``: draw disjoint random vertex
    and colour sides, build the induced link collection, and run the
    uniformly-dense pipeline, whose embedding maps pattern vertices to the
    vertex side and pattern edges to the colour side; left-over isolated
    pattern vertices take unused host vertices.
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
    setup = _expand_setup(g, H, plan, seed)
    if isinstance(setup, Failure):
        return ExpansionOutcome(None, None, setup)

    def attempt(sub_seed, _):
        run = _Run(setup, sub_seed, g=g, H=H, plan=plan)
        failure = _run_steps(run, _EXPAND_STEPS)
        return run.out if failure is None else failure

    out, _ = _retry(
        seed, 103, max(1, plan.retries // 4), Failure("expand", EMBEDDING_FAILED, seed), attempt
    )
    return ExpansionOutcome(None, None, out) if isinstance(out, Failure) else out
