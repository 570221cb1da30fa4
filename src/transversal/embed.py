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
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .core import (
    GraphCollection,
    PatternGraph,
    SeparabilityCertificate,
    SimpleGraph,
    ThreeGraph,
    TransversalEmbedding,
    UnverifiedOutput,
    VerificationReport,
    _bfs_order,
    bits_of,
    mask_of,
    pick_bit,
    separability_certificate,
    verify_expansion,
    verify_transversal_embedding,
)
from .matching import koenig_set, max_bipartite_matching, perfect_matching
from .regularity import frac
from .templates import Template, make_template, thick_host_graph
from .vizing import extract_matching

# failure reason tags
CANDIDATE_EXHAUSTED = "CandidateExhausted"
MATCHING_TOO_SMALL = "MatchingTooSmall"
EMBEDDING_FAILED = "EmbeddingFailed"
CHERNOFF_RETRY_EXHAUSTED = "ChernoffRetryExhausted"
COLOUR_EXHAUSTED = "ColourExhausted"
ABSORBER_UNVERIFIABLE = "AbsorberUnverifiable"
PRECONDITION = "PreconditionViolated"
PADDING_IMPOSSIBLE = "PaddingImpossible"
UNBALANCEABLE = "Unbalanceable"

# constants of the stages that a plan does not override
NU_PRIME = 0.1  # partial_embed: each final candidate set keeps >= nu'*m hosts
ZETA = 0.1  # approx_embed: the final round's buffer share of each class's colours
P_VX = 0.15  # Steps 0-5: the vx stage's share of the component split
GAMMA = 0.1  # approx_embed: a round wants gamma*m vertices of each cluster
MU_PRIME = 0.05  # approx_embed: B_0 keeps mu'*m vertices of each cluster
LAMBDA_THICK = 0.05  # approx_embed: the thick-graph threshold of each round
ABSORBER_RETRIES = 30  # build_absorber's attempts per class, greedy B after half
LEMMA_RETRIES = 20  # lemma_blowup's Steps 0-5 attempts, embed_prescribed_colours' attempts
ABSORBER_SAMPLES = 200  # sampled B-subsets when C(|B|, l) exceeds the exhaustive cap
SPARSE_HOST_SHARE = 0.05  # expand: a host needs this * v(Hp)^2 * e(Hp) triples


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


class _Run:
    """The run state of one attempt: its sub-seed and rng, the inputs and
    set-up it is given, and the attributes each step sets for the later
    ones."""

    def __init__(self, seed: int, **state):
        self.__dict__.update(state)
        self.seed, self.rng = seed, random.Random(seed)


def _run_steps(run: _Run, steps) -> Failure | None:
    """The one step loop of an attempt: run ``steps`` in turn on the run
    state ``run``, each returning a typed failure or None, and return the
    first failure (None when every step ran)."""
    for step in steps:
        failure = step(run)
        if failure is not None:
            return failure
    return None


def _steps(steps, **state):
    """The ``_retry`` attempt that runs ``steps`` on a fresh ``_Run`` of its
    sub-seed and ``state``: the run once every step ran, else the first
    failure.  A step, not ``state``, makes what an attempt mutates."""

    def attempt(sub_seed, _):
        run = _Run(sub_seed, **state)
        failure = _run_steps(run, steps)
        return run if failure is None else failure

    return attempt


def _check_plan(plan, counts) -> None:
    """Refuse a float field that is not a finite number (a nan fails every
    comparison, so a floor it reaches never fires) and a count of
    ``counts``, (name, least value), that is not an int of that value or
    more: a retry loop runs range(count)."""
    for f in fields(plan):
        value = getattr(plan, f.name)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if isinstance(f.default, float) and not (number and math.isfinite(value)):
            raise ValueError(f"{f.name} must be a finite number, not {value!r}")
    for name, low in counts:
        value = getattr(plan, name)
        if type(value) is not int or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")


@dataclass(frozen=True)
class SplitPlan:
    """The concrete settings of the default path (``quasi_embed``,
    ``expand_embed_3graph``, ``transversal_blowup``): the template's eps,
    the delta ladder that splits pairs into sparse and dense ones and the
    retry budget.  Every output is verified, so the numbers need no
    asymptotic justification; one no pipeline can run raises ValueError."""

    eps: float = 0.05
    ladder_base: float = 0.02
    ladder_ratio: float = 3.0
    retries: int = 20

    def delta_ladder(self, level: int) -> float:
        try:
            return self.ladder_base * self.ladder_ratio**level
        except OverflowError:  # the power is past the largest float
            return self.ladder_base * math.inf if self.ladder_base else 0.0

    def __post_init__(self):
        _check_plan(self, (("retries", 1),))
        if self.ladder_ratio <= 1:
            raise ValueError("the delta ladder must be strictly increasing")


@dataclass(frozen=True)
class LemmaPlan:
    """The settings of the blow-up lemma (``lemma_blowup``, Steps 0-5) and
    its stage embedders, which a ``SplitPlan`` lacks.  One no pipeline can
    run raises ValueError."""

    mu: float = 0.1
    lambda1: float = 0.1
    lambda3: float = 0.2
    p_abs: float = 0.05
    p_col: float = 0.08
    blowup_restarts: int = 30
    blowup_reserve: float = 0.25
    approx_retries: int = 10
    absorber_exhaustive_cap: int = 100_000

    @property
    def p_app(self) -> float:
        return 1.0 - (P_VX + self.p_abs + self.p_col)

    def __post_init__(self):
        _check_plan(self, (("blowup_restarts", 1), ("approx_retries", 1),
                           ("absorber_exhaustive_cap", 0)))
        if not 0 < self.mu <= 1:
            raise ValueError("mu must lie in (0,1]")
        for p in (self.p_abs, self.p_col):
            if not 0 < p < 1:
                raise ValueError("split probabilities must lie in (0,1)")
        if self.p_app <= 0:
            raise ValueError("p_app must stay positive")


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
    def fail(cls, stage: str, reason: str, seed: int, **diag):
        return cls(embedding=None, verification=None,
                   failure=Failure(stage=stage, reason=reason, seed=seed, diagnostics=diag))


# ---------------------------------------------------------------------------
# Equitable colouring


@dataclass
class EquitableColouring:
    parts: tuple[tuple[int, ...], ...]
    balanced: bool
    rounds: int


def equitable_colouring(H: SimpleGraph, r: int, seed: int = 0, cap: int | None = None) -> EquitableColouring:
    """Proper colouring into r >= Delta+1 independent sets with sizes differing
    by at most one: greedy assignment plus iterative balancing moves
    (``_balancing_move``), with internal restarts on shuffled orders.  If no
    restart balances within the round cap, the first restart's colouring is
    returned with balanced=False.  The classes are bitmasks."""
    if r < H.max_degree + 1:
        raise ValueError("need r >= Delta(H) + 1 colour classes")
    cap = cap if cap is not None else 12 * H.n + 60
    adj, by_degree = H.adj, sorted(range(H.n), key=lambda v: (-H.degree(v), v))
    best = None
    for restart in range(8):
        rng = random.Random(_mix(seed, 11, restart))
        order = list(by_degree)
        if restart:
            rng.shuffle(order)
        parts = [0] * r
        for v in order:
            nv, k = adj(v), None  # the least-loaded free class, ties to the lowest
            for j in range(r):
                if not nv & parts[j] and (k is None or parts[j].bit_count() < parts[k].bit_count()):
                    k = j
            parts[k] |= 1 << v
        rounds = 0
        while rounds < cap:
            sizes = [p.bit_count() for p in parts]
            hi = max(range(r), key=lambda k: (sizes[k], k))
            lo = min(range(r), key=lambda k: (sizes[k], k))
            if sizes[hi] - sizes[lo] <= 1:
                break
            rounds += 1
            moves = _balancing_move(adj, parts, hi, lo, rng)
            if not moves:
                break
            for v, a, b in moves:
                parts[a] &= ~(1 << v)
                parts[b] |= 1 << v
        colouring = tuple(tuple(bits_of(p)) for p in parts)
        sizes = [p.bit_count() for p in parts]
        if max(sizes) - min(sizes) <= 1:
            return EquitableColouring(parts=colouring, balanced=True, rounds=rounds)
        best = best or EquitableColouring(parts=colouring, balanced=False, rounds=rounds)
    return best


def _balancing_move(adj, parts: list[int], hi: int, lo: int, rng) -> list[tuple[int, int, int]]:
    """One balancing round's moves out of the largest class hi, as (vertex,
    from, to): the first vertex that fits the smallest class lo, else the
    first two-step chain hi -> mid -> lo, else a random legal move of a
    vertex of hi; none when no vertex of hi can move."""
    for v in bits_of(parts[hi]):
        if not adj(v) & parts[lo]:
            return [(v, hi, lo)]
    for mid in range(len(parts)):
        if mid not in (hi, lo):
            v = next((v for v in bits_of(parts[hi]) if not adj(v) & parts[mid]), None)
            w = next((w for w in bits_of(parts[mid]) if not adj(w) & parts[lo]), None)
            if v is not None and w is not None:
                return [(v, hi, mid), (w, mid, lo)]
    cands = [(v, hi, k) for v in bits_of(parts[hi]) for k in range(len(parts))
             if k != hi and not adj(v) & parts[k]]
    return [rng.choice(cands)] if cands else []


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


def _sub_template(t: Template, clusters, colour_clusters, **change) -> Template:
    """Index-level subtemplate sharing the parent's collection (no pruning);
    ``change`` overrides its d, eps or m."""
    kept = {"d": t.d, "eps": t.eps, "m": t.m}
    return make_template(clusters, colour_clusters, t.gc, **{**kept, **change})


def _filling_entry(stage: str, t: Template, H: SimpleGraph, phi, targets, seed: int, active):
    """Shared entry checks of the filling stages: the normalised ``(active,
    targets)``, or the typed failure when the active part of H does not
    fill every cluster exactly."""
    active = set(active) if active is not None else set(range(H.n))
    targets = {v: set(ts) for v, ts in (targets or {}).items() if v in active}
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


def _exhausted(seed: int, element, step: str, **detail) -> Failure:
    return Failure("partial", CANDIDATE_EXHAUSTED, seed, element=element, step=step, **detail)


def partial_embed(
    t: Template,
    H: PatternGraph,
    phi,
    X,
    Y,
    targets: dict[int, set[int]] | None,
    seed: int = 0,
) -> PartialEmbedding | Failure:
    """Embed X and fix colours for every edge incident to X, maintaining
    candidate sets for the unembedded independent set Y.

    After the draw-free set-up (``_partial_setup``), the pass per embedded
    vertex x: prune its candidate set by the colour-sum test against each
    later neighbour, pick tau(x), remove the used host everywhere, then per
    later neighbour prune colours with a small neighbourhood overlap, pick
    the edge colour, retire it globally, and intersect the neighbour's
    candidates with the chosen colour neighbourhood.  Only the subgraph
    induced on X + Y is touched; edges inside Y must be absent.  Success
    requires final vertex candidate sets of size >= nu'*m and never-empty
    colour candidates.

    Candidate sets are bitmasks; used hosts and retired colours are one mask
    each, taken out whenever a set is read.  The colour-sum test is
    ``GraphCollection.degree_screen`` with the class's colour word less the
    retired word, the colour test ``GraphCollection.colour_screen``.
    """
    X, Y = list(X), list(Y)
    setup = _partial_setup(t, H, phi, X, Y, targets or {}, seed)
    if isinstance(setup, Failure):
        return setup
    cand_v, later = setup
    d, eps, m = float(t.d), float(t.eps), float(t.m)
    rng = random.Random(_mix(seed, 23))
    tau, sigma = {}, {}
    used = retired = retired_w = 0  # hosts taken by tau, colours taken by sigma, their word
    degree_screen, colour_screen, adj, n = t.gc.degree_screen, t.gc.colour_screen, t.gc.adj, t.gc.n
    for x in X:
        # (x,1) colour-sum pruning of the vertex candidate set
        cx = cand_v[x] & ~used
        for _, y, e, ce, we in later[x]:
            Cxy, Cy = ce & ~retired, cand_v[y] & ~used
            if not Cxy or not Cy:
                return _exhausted(seed, ("edge", e), f"({x},1)")
            cx = degree_screen(cx, Cy, we & ~retired_w,
                               (d - eps) * Cxy.bit_count() * Cy.bit_count())
        if not cx:
            return _exhausted(seed, ("vertex", x), f"({x},1)")
        # (x,2) choose the image; (x,3) retire the host vertex everywhere
        tau[x] = tx = pick_bit(rng, cx)
        used |= 1 << tx
        # (x,4) colours towards later neighbours
        for _, y, e, ce, _ in later[x]:
            Cy = cand_v[y] & ~used
            Cxy = colour_screen(tx, ce & ~retired, Cy, d * Cy.bit_count() / 2)
            if not Cxy:
                return _exhausted(seed, ("edge", e), f"({x},{y},4.1)")
            sigma[e] = c = pick_bit(rng, Cxy)
            retired |= 1 << c
            retired_w |= 1 << c * n
            cand_v[y] = Cy & adj(c, tx)
            if not cand_v[y]:
                return _exhausted(seed, ("vertex", y), f"({x},{y},4.4)")
    final = {y: cand_v[y] & ~used for y in Y}
    floor = max(1, math.ceil(NU_PRIME * m))
    if low := [(y, final[y].bit_count()) for y in Y if final[y].bit_count() < floor]:
        return _exhausted(seed, ("vertex", low[0][0]), "final-floor",
                          detail=f"candidate sets below nu'*m = {floor}: {low}")
    return PartialEmbedding(tau, sigma, {y: frozenset(bits_of(final[y])) for y in Y})


def _partial_setup(t: Template, H: PatternGraph, phi, X: list[int], Y: list[int], targets,
                   seed: int):
    """The checks and the draw-free start of ``partial_embed``: each vertex's
    initial candidate mask (its cluster, cut to its target) and each x's
    later neighbours in the order X + Y, as (position, y, edge, class colour
    mask, class colour word) ascending; or the typed failure."""
    pos = {v: i for i, v in enumerate(X + Y)}
    if len(pos) != len(X) + len(Y):
        return Failure("partial", PRECONDITION, seed, detail="X and Y overlap")
    if inside_y := H.edges_within(Y):
        u, v = inside_y[0]
        return Failure("partial", PRECONDITION, seed, detail=f"edge ({u},{v}) inside Y")
    cand_v: dict[int, int] = {}
    for w in pos:
        tw = targets.get(w)
        if tw is None:
            cand_v[w] = t.cluster_masks[phi[w]]
        else:  # a target outside the cluster is ignored
            tw = set(tw)
            cand_v[w] = mask_of(v for v in t.clusters[phi[w]] if v in tw)
        if not cand_v[w]:
            return _exhausted(seed, ("vertex", w), "init", detail="empty target within cluster")
    later: dict[int, list[tuple[int, int, tuple[int, int], int, int]]] = {x: [] for x in X}
    class_masks, class_words = t.colour_cluster_masks, t.colour_cluster_words
    for u, v in H.edges_within(pos):  # no edge is inside Y
        key = _class_key(phi, u, v)
        if key not in class_masks:
            return Failure("partial", PRECONDITION, seed,
                           detail=f"phi is not a homomorphism: edge ({u},{v}) -> non-edge {key}")
        a, b = (u, v) if pos[u] < pos[v] else (v, u)
        later[a].append((pos[b], b, (u, v), class_masks[key], class_words[key]))
    for ys in later.values():
        ys.sort()
    return cand_v, later


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


def _target_masks(targets, active, n: int) -> dict[int, int]:
    """Each active vertex's target set as a mask of its hosts in range(n):
    hosts outside the range are ignored, as by ``partial_embed``."""
    return {v: mask_of(w for w in ts if 0 <= w < n) for v, ts in targets.items() if v in active}


def embed_prescribed_colours(
    t: Template,
    H: PatternGraph,
    phi,
    targets: dict[int, set[int]] | None,
    prescribed: dict[tuple[int, int], list[int]],
    plan: LemmaPlan,
    seed: int = 0,
    active: set[int] | None = None,
) -> EmbedOutcome:
    """Full transversal embedding of H (restricted to ``active``) that uses
    every prescribed colour.

    The set-up draws nothing: it deduplicates the prescription (within and
    across classes, in sorted class order) and checks the prescribed
    colours' density (at least 2d/11: Step 3 quarters its parent's d, and
    the floor is the parent's d/22) and the number of unprescribed colours.
    Each attempt then runs ``_PRESCRIBED_STEPS`` through ``_run_steps``:
    ``_prescribed_matching`` finds an induced matching sized to the
    prescription, ``_prescribed_matched`` embeds its edges greedily with
    their prescribed colours through degree-filtered host masks, giving each
    unmatched neighbour a fresh colour, and ``_prescribed_rest`` runs the
    candidate-set loop on the remainder.
    Used hosts, used colours and the prescribed colours are a mask each;
    target hosts outside the host range are ignored (``_target_masks``).
    """
    active = set(active) if active is not None else set(range(H.n))
    targets = {v: set(ts) for v, ts in (targets or {}).items() if v in active}
    d = float(t.d)
    floor_d = float(4 * t.d) / 22  # t.d is exact, so this is the parent's float(d) / 22
    # deduplicate the prescription in sorted class order, each class in its order
    seen: set[int] = set()
    dmap: dict[tuple[int, int], list[int]] = {}
    for key in sorted(prescribed):
        dmap[key] = [c for c in dict.fromkeys(prescribed[key]) if c not in seen]
        seen.update(dmap[key])
    # density precondition for prescribed colours, surfaced before embedding
    for (i, j), cs in dmap.items():
        need = floor_d * len(t.clusters[i]) * len(t.clusters[j])
        for c in cs:
            cnt = t.gc.edges_into(c, t.clusters[i], t.cluster_masks[j])
            if cnt < need:
                return EmbedOutcome.fail(
                    "prescribed", PRECONDITION, seed,
                    colour=c, edges=cnt, need=need,
                    detail="prescribed colour graph too sparse",
                )
    all_prescribed = mask_of(seen)
    for key, cs in t.colour_clusters.items():
        if (t.colour_cluster_masks[key] & ~all_prescribed).bit_count() < d * len(cs):
            return EmbedOutcome.fail(
                "prescribed", PRECONDITION, seed,
                edge_class=key, detail="too few unprescribed colours",
            )
    run, attempts = _retry(
        seed, 41, LEMMA_RETRIES, Failure("prescribed", EMBEDDING_FAILED, seed),
        _steps(_PRESCRIBED_STEPS, t=t, H=H, phi=phi, plan=plan, active=active, targets=targets,
               target_masks=_target_masks(targets, active, t.gc.n), d=d, dmap=dmap,
               prescribed=all_prescribed),
    )
    if isinstance(run, Failure):
        return EmbedOutcome(None, run, None, stats={"attempts": attempts})
    done = EmbedOutcome.success(
        t.gc, H, run.tau, run.sigma,
        stats={"attempts": attempts, "prescribed_used": sorted(seen)},
        view=_pattern_view(H, active, targets),
    )
    if all_prescribed & ~mask_of(run.sigma.values()):
        raise UnverifiedOutput("a prescribed colour was not used")
    return done


@dataclass
class _PatternView:
    """Relabelled active-induced pattern, for verification of partial pipelines."""

    pattern: PatternGraph
    to_local: dict[int, int]
    to_global: dict[int, int]


def _pattern_view(H: SimpleGraph, active: set[int], targets=None) -> _PatternView:
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


def _prescribed_matching(run: _Run) -> Failure | None:
    """The induced matching, one edge per prescribed colour of its class,
    that avoids the targeted vertices."""
    sizes = {key: len(cs) for key, cs in run.dmap.items()}
    matching = find_induced_matching(run.H, run.phi, sizes, forbidden=set(run.targets),
                                     seed=run.seed, active=run.active)
    if isinstance(matching, Failure):
        return matching
    run.matching = matching
    run.matched = {v for es in matching.values() for e in es for v in e}


def _prescribed_matched(run: _Run) -> Failure | None:
    """Embed each matching edge xx' with its prescribed colour c*: x on a
    free host of its cluster with c*-degree at least d/4 into the free
    hosts of the other cluster, then x' on a free c*-neighbour of tau(x)
    there; ``_prescribed_place`` first colours each one's unmatched
    neighbours."""
    t, phi, d, adj = run.t, run.phi, run.d, run.t.gc.adj
    run.tau, run.sigma, run.pending = {}, {}, {}
    run.used = run.retired = 0  # hosts taken by tau, colours taken by sigma
    for key in sorted(run.matching):
        for (x, xp), cstar in zip(run.matching[key], run.dmap[key]):
            free_xp = t.cluster_masks[phi[xp]] & ~run.used
            z_x = [v for v in bits_of(t.cluster_masks[phi[x]] & ~run.used)
                   if (adj(cstar, v) & free_xp).bit_count() >= d / 4 * free_xp.bit_count()]
            failure = _prescribed_place(run, x, z_x, (x, xp), "x")
            if failure is not None:
                return failure
            run.sigma[(x, xp) if x < xp else (xp, x)] = cstar
            run.retired |= 1 << cstar
            z_xp = list(bits_of(adj(cstar, run.tau[x]) & free_xp & ~run.used))
            failure = _prescribed_place(run, xp, z_xp, (x, xp), "x'")
            if failure is not None:
                return failure


def _prescribed_place(run: _Run, v: int, z: list[int], edge, tag: str) -> Failure | None:
    """Give each unmatched neighbour y of the matched vertex v a fresh
    colour dense from the hosts z (ascending) into y's free hosts
    (``_fresh_colour``, narrowing z each time), embed v in what is left of
    z and narrow y's pending targets to that colour's neighbourhood of
    tau(v); a typed failure when stuck."""
    if not z:
        return Failure("prescribed", CANDIDATE_EXHAUSTED, run.seed,
                       element=("matched-edge", edge), step=f"Z({tag})")
    t, phi = run.t, run.phi
    chosen: list[tuple[int, int]] = []  # (neighbour, colour)
    for y in run.H.neighbours(v):
        if y not in run.active or y in run.matched:
            continue
        free = t.cluster_masks[phi[y]] & ~run.used
        got = _fresh_colour(run, z, free, _class_key(phi, v, y)) if free else None
        if got is None:
            return Failure("prescribed", COLOUR_EXHAUSTED, run.seed,
                           element=("matched-vertex", v), step=f"N({tag}) colours")
        c, z = got
        run.retired |= 1 << c
        chosen.append((y, c))
    run.tau[v] = tv = run.rng.choice(z)
    run.used |= 1 << tv
    for y, c in chosen:
        run.sigma[(v, y) if v < y else (y, v)] = c
        near = t.gc.adj(c, tv) & t.cluster_masks[phi[y]] & ~run.used
        run.pending[y] = run.pending.get(y, -1) & near
    return None


def _fresh_colour(run: _Run, z: list[int], free: int, key) -> tuple[int, list[int]] | None:
    """The first colour of class ``key``, unused and unprescribed, in a
    shuffled order, with at least d/3 |z| |free| edges from the hosts z into
    the host mask ``free`` and a host of z with at least d/6 |free| of them,
    and those hosts; None when no colour qualifies."""
    d, gc = run.d, run.t.gc
    pool = list(bits_of(run.t.colour_cluster_masks[key] & ~(run.retired | run.prescribed)))
    run.rng.shuffle(pool)
    n_free = free.bit_count()
    for c in pool:
        if gc.edges_into(c, z, free) < d / 3 * len(z) * n_free:
            continue
        dense = [w for w in z if (gc.adj(c, w) & free).bit_count() >= d / 6 * n_free]
        if dense:
            return c, dense
    return None


def _prescribed_rest(run: _Run) -> Failure | None:
    """The vertices outside the matching, by the candidate-set loop on the
    free hosts and the unused unprescribed colours, each within its target
    and the pending targets that the matched vertices left."""
    t, phi, used = run.t, run.phi, run.used
    rest = sorted(run.active - run.matched)
    rest_targets: dict[int, set[int]] = {}
    for w in rest:
        free = t.cluster_masks[phi[w]] & ~used
        tw = free & run.target_masks.get(w, -1) & run.pending.get(w, -1)
        if not tw:
            return Failure("prescribed", CANDIDATE_EXHAUSTED, run.seed,
                           element=("vertex", w), step="rest-targets")
        if tw != free:  # else w's cluster in t_rest is its target
            rest_targets[w] = set(bits_of(tw))
    off = run.retired | run.prescribed
    t_rest = _sub_template(t, [bits_of(mask & ~used) for mask in t.cluster_masks],
                           {key: bits_of(mask & ~off) for key, mask in t.colour_cluster_masks.items()})
    part = partial_embed(t_rest, run.H, phi, X=rest, Y=[], targets=rest_targets, seed=run.seed)
    if isinstance(part, Failure):
        return part
    run.tau.update(part.tau)
    run.sigma.update(part.sigma)


_PRESCRIBED_STEPS = (_prescribed_matching, _prescribed_matched, _prescribed_rest)


# ---------------------------------------------------------------------------
# Classical blow-up embedder (uncoloured)


@dataclass
class BlowupResult:
    tau: dict[int, int] | None
    failure: Failure | None
    restarts: int = 0

    @property
    def ok(self) -> bool:
        return self.tau is not None


def blowup_embed(
    host: SimpleGraph,
    clusters,
    H: SimpleGraph,
    phi,
    targets: dict[int, set[int]] | None,
    plan: LemmaPlan,
    seed: int = 0,
    active: set[int] | None = None,
) -> BlowupResult:
    """Spanning (or partial) embedding of H into a host graph whose bipartite
    slices are dense between the clusters that ``phi`` maps H's edges to:
    randomized greedy in reverse-degeneracy order with candidate tracking,
    reserving an independent buffer (about a fifth of each cluster) for a
    final maximum-matching completion phase, with global restarts.  The
    output is structurally verified.

    The set-up draws nothing and is built once per call: each vertex's start
    mask (cluster cut to ``_target_masks``) and neighbours in ``active``, the
    reserve quotas and the active edges.  Each restart runs ``_BLOWUP_STEPS``
    on ``_retry``'s sub-seed.  If a pattern edge uv has no host edge from u's
    cluster to v's, no restart can succeed (whichever end comes second,
    greedy or matched, has no candidate; the independent reserve never holds
    both), so only the last restart runs and fails as the full budget would.
    A forced call (each cluster used holds one host) with a nonzero budget
    returns its only map, with no restart or draw, if the final check passes.
    ``restarts``: failed restarts before a success, else the budget."""
    active = set(active) if active is not None else set(range(H.n))
    ordered = sorted(active)
    by_cluster: dict[int, list[int]] = {}
    for v in ordered:
        by_cluster.setdefault(phi[v], []).append(v)
    for i, vs in by_cluster.items():
        if len(vs) > len(clusters[i]):
            return BlowupResult(
                None,
                Failure("blowup", PRECONDITION, seed, cluster=i,
                        detail=f"{len(vs)} pattern vertices > {len(clusters[i])} hosts"),
            )
    inside = mask_of(ordered)
    target_masks = _target_masks(targets or {}, active, host.n)
    nbrs = {v: list(bits_of(H.adj(v) & inside)) for v in ordered}
    edges = [(u, w) for u in ordered for w in nbrs[u] if w > u]  # H.edges_within(active)
    if plan.blowup_restarts >= 1 and all(len(clusters[i]) == 1 for i in by_cluster):
        tau = {v: clusters[phi[v]][0] for v in ordered}
        if _blowup_violation(host, tau, edges, target_masks) is None:
            return BlowupResult(tau=tau, failure=None, restarts=0)
    cluster_masks = {i: mask_of(clusters[i]) for i in by_cluster}
    start = {v: cluster_masks[phi[v]] & target_masks.get(v, -1) for v in ordered}
    quotas = [(vs, int(plan.blowup_reserve * len(vs))) for vs in by_cluster.values()]
    hopeless = any(not any(host.adj(w) & cluster_masks[phi[v]] for w in clusters[phi[u]])
                   for u, v in edges)
    default, last = Failure("blowup", EMBEDDING_FAILED, seed), plan.blowup_restarts - 1

    def attempt(sub_seed, k):
        if hopeless and k < last:  # no draw: the last restart alone is run
            return default
        run = _Run(sub_seed, H=H, ordered=ordered, start=start, nbrs=nbrs, quotas=quotas,
                   host_adj=host.adj)
        failure = _run_steps(run, _BLOWUP_STEPS)
        if failure is not None:  # reported with the call's seed and the restart
            return Failure("blowup", EMBEDDING_FAILED, seed, restart=k, **failure.diagnostics)
        return run

    run, attempts = _retry(seed, 53, plan.blowup_restarts, default, attempt)
    if isinstance(run, Failure):
        return BlowupResult(None, run, restarts=attempts)
    if (violation := _blowup_violation(host, run.tau, edges, target_masks)) is not None:
        raise UnverifiedOutput(violation)
    return BlowupResult(tau=run.tau, failure=None, restarts=attempts - 1)


def _blowup_violation(host: SimpleGraph, tau, edges, target_masks) -> str | None:
    """The structural check of a blow-up map: the first way ``tau`` is not
    injective, sends an active edge to a non-edge or leaves a target set,
    else None."""
    if len(set(tau.values())) != len(tau):
        return "blow-up map is not injective"
    if any(not host.has_edge(tau[u], tau[v]) for u, v in edges):
        return "blow-up produced a non-edge"
    if any(not mask >> tau[v] & 1 for v, mask in target_masks.items()):
        return "blow-up left a target set"
    return None


def _blowup_candidates(run: _Run, v: int, used: int) -> int:
    """The hosts of v's start mask outside ``used``, adjacent to the images
    of its embedded neighbours."""
    tau, host_adj = run.tau, run.host_adj
    cand = run.start[v] & ~used
    for w in run.nbrs[v]:
        if w in tau:
            cand &= host_adj(tau[w])
    return cand


def _blowup_buffer(run: _Run) -> None:
    """The reserve: per cluster, up to its quota of vertices independent in
    H (within active), low degree preferred, ties drawn."""
    draw, degree, nbrs = run.rng.random, run.H.degree, run.nbrs
    run.buffer = buffer = set()
    for vs, quota in run.quotas:
        if not quota:  # the sort keys are drawn all the same
            for _ in vs:
                draw()
            continue
        taken = 0
        for v in sorted(vs, key=lambda v: (degree(v), draw())):
            if taken >= quota:
                break
            if all(w not in buffer for w in nbrs[v]):
                buffer.add(v)
                taken += 1


def _blowup_order(run: _Run) -> None:
    """The elimination order of the vertices outside the buffer: repeatedly
    remove one of least degree among those left, ties drawn."""
    draw, adj, nbrs, buffer = run.rng.random, run.H.adj, run.nbrs, run.buffer
    todo = [v for v in run.ordered if v not in buffer]
    todo_mask = mask_of(todo)
    deg = {v: (adj(v) & todo_mask).bit_count() for v in todo}
    alive = set(todo)
    run.elim = elim = []
    while alive:
        v = min(alive, key=lambda u: (deg[u], draw()))
        elim.append(v)
        alive.discard(v)
        for w in nbrs[v]:
            if w in alive:
                deg[w] -= 1


def _blowup_greedy(run: _Run) -> Failure | None:
    """Embed the vertices outside the buffer in reverse elimination order,
    each on a random candidate."""
    rng, start, nbrs, host_adj = run.rng, run.start, run.nbrs, run.host_adj
    run.tau = tau = {}
    used = 0
    for v in reversed(run.elim):
        cand = start[v] & ~used  # as _blowup_candidates, inlined in this hot loop
        for w in nbrs[v]:
            if w in tau:
                cand &= host_adj(tau[w])
        if not cand:
            return Failure("blowup", EMBEDDING_FAILED, run.seed, phase="greedy")
        tau[v] = pick = pick_bit(rng, cand)
        used |= 1 << pick
    run.used = used


def _blowup_complete(run: _Run) -> Failure | None:
    """Per cluster, match the buffer vertices to free candidate hosts by
    maximum matching (its size, and so success, does not depend on which
    candidate is tried first)."""
    tau, used, buffer = run.tau, run.used, run.buffer
    for vs, _ in run.quotas:
        bvs = [v for v in vs if v in buffer]
        if not bvs:
            continue
        m = max_bipartite_matching({b: _blowup_candidates(run, b, used) for b in bvs})
        if len(m) < len(bvs):
            return Failure("blowup", EMBEDDING_FAILED, run.seed, phase="matching")
        for b, w in m.items():
            tau[b] = w
            used |= 1 << w


_BLOWUP_STEPS = (_blowup_buffer, _blowup_order, _blowup_greedy, _blowup_complete)


# ---------------------------------------------------------------------------
# Extra-colours embedder (component chunking + thick-graph blow-up rounds)


def _chunk_components(comps, phi, r, sizes, mu_floor, gamma_floor, q_stop):
    """Partition component indices into B_0 (suffix) and rounds B_1..B_s."""
    tcomp = len(comps)
    a = [[0] * r for _ in range(tcomp)]
    for h, comp in enumerate(comps):
        for v in comp:
            a[h][phi[v]] += 1
    tstar, suf = 0, [0] * r  # suf: cluster counts of components t..tcomp-1
    for t in range(tcomp, -1, -1):
        if t < tcomp:
            suf = [x + y for x, y in zip(suf, a[t])]
        if all(x >= mu_floor for x in suf):
            tstar = t
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
    plan: LemmaPlan,
    seed: int = 0,
    active: set[int] | None = None,
) -> EmbedOutcome:
    """Transversal embedding of a spanning union of small components into a
    rainbow semi-super template with at least as many colours per class as
    class edges; a template that is not rainbow fails PreconditionViolated.

    The entry checks and the components draw nothing and run once.  Each
    attempt then runs ``_APPROX_STEPS`` through ``_run_steps``:
    ``_approx_chunk`` shuffles the components and chunks them into rounds
    B_1..B_s and a final chunk B_0; ``_approx_slices`` splits each cluster
    into a slice per round and V^0, and each class's colours into the
    rounds' pool and a buffer; ``_approx_rounds`` embeds each round into the
    thick graph of its subtemplate via the blow-up embedder and greedily
    assigns distinct unused pool colours (thick edges see more colours than
    the round needs); ``_approx_final`` lands B_0 in V^0 plus the rounds'
    leftover vertices on the buffer colours.  Chunk-size statistics are
    recorded.
    """
    if not t.rainbow:
        return EmbedOutcome.fail("approx", PRECONDITION, seed, detail="template must be rainbow")
    entry = _filling_entry("approx", t, H, phi, targets, seed, active)
    if isinstance(entry, EmbedOutcome):
        return entry
    active, targets = entry
    m = float(t.m)
    class_e = _class_edges(H, phi, active)
    for key, cs in t.colour_clusters.items():
        if (h_e := len(class_e.get(key, ()))) > len(cs):
            return EmbedOutcome.fail(
                "approx", PRECONDITION, seed, edge_class=key,
                detail=f"fewer colours than class edges: {len(cs)} < {h_e}",
            )
    comps = H.components(active)
    oversize = [len(c) for c in comps if len(c) > max(1, plan.mu * len(active))]
    stats: dict = {"component_count": len(comps), "oversize_components": oversize}
    gamma_floor = max(1, round(GAMMA * m))
    run, attempts = _retry(seed, 67, plan.approx_retries, Failure("approx", EMBEDDING_FAILED, seed),
                           _steps(_APPROX_STEPS, t=t, H=H, phi=phi, targets=targets, plan=plan,
                                  class_e=class_e, comps=comps, stats=stats, d=float(t.d),
                                  mu_floor=max(1, round(MU_PRIME * m)),
                                  gamma_floor=gamma_floor,
                                  q_stop=2 * (max(1, H.max_degree) + 1) ** (t.r - 1) * gamma_floor,
                                  stated=round(t.r * float(t.eps) ** (1 / 3) * m)))
    if isinstance(run, Failure):
        return EmbedOutcome(None, run, None, stats=stats)
    stats["attempts"] = attempts
    return EmbedOutcome.success(t.gc, H, run.tau, run.sigma, stats=stats,
                                view=_pattern_view(H, active, targets))


def _approx_chunk(run: _Run) -> None:
    """Shuffle the components and chunk them into the rounds B_1..B_s and
    the final chunk B_0, with their vertex counts per cluster."""
    r, phi = run.t.r, run.phi
    comps = list(run.comps)
    run.rng.shuffle(comps)
    b0_idx, round_idx = _chunk_components(comps, phi, r, [len(run.t.clusters[j]) for j in range(r)],
                                          run.mu_floor, run.gamma_floor, run.q_stop)
    run.B0 = [v for h in b0_idx for v in comps[h]]
    run.Bs = [[v for h in idxs for v in comps[h]] for idxs in round_idx]
    run.b = [[sum(1 for v in B if phi[v] == j) for j in range(r)] for B in run.Bs]
    run.b0 = [sum(1 for v in run.B0 if phi[v] == j) for j in range(r)]
    run.stats["chunks"] = {"s": len(run.Bs), "b0": run.b0, "b": run.b, "mu_floor": run.mu_floor,
                           "gamma_floor": run.gamma_floor, "q_stop": run.q_stop}


def _approx_slices(run: _Run) -> None:
    """Split each cluster V_j at random into V^0_j and a slice per round
    (its vertices plus a slack: as much of the stated r*eps^(1/3)*m as the
    B_0 part affords), and each class's colours into the rounds' pool and
    the final round's buffer, clamped so that every stage fits (all of them
    when there is no round)."""
    t, s, b, b0 = run.t, len(run.Bs), run.b, run.b0
    slack = [max(0, min(run.stated, (b0[j] - max(1, run.mu_floor // 2)) // s)) if s else 0
             for j in range(t.r)]
    run.part_v = []
    for j in range(t.r):
        pool = list(t.clusters[j])
        run.rng.shuffle(pool)
        parts_j, pos = [], 0
        for i in range(s):
            parts_j.append(pool[pos : pos + b[i][j] + slack[j]])
            pos += b[i][j] + slack[j]
        parts_j.insert(0, pool[pos:])
        # |V_j| = sum(b) + b0, and slack > 0 only where s * slack <= b0 - 1
        _identity(len(parts_j[0]) == b0[j] - s * slack[j] and (parts_j[0] or not b0[j]),
                  "approx", "vertex partition sizes", cluster=j)
        run.part_v.append(parts_j)
    h_b0 = dict.fromkeys(t.colour_clusters, 0)
    for (u, v) in run.H.edges_within(run.B0):
        h_b0[_class_key(run.phi, u, v)] += 1
    run.pools, run.buffers = {}, {}
    for key, cs in t.colour_clusters.items():
        if not s:
            run.buffers[key] = list(cs)
            continue
        lo, hi = h_b0[key], len(cs) - (len(run.class_e.get(key, ())) - h_b0[key])
        # the entry check keeps h_e <= |C_e|, which is lo <= hi
        _identity(lo <= hi, "approx", "buffer sizing", edge_class=key)
        size0 = min(max(round(ZETA * len(cs)), lo), hi)
        cs = list(cs)
        run.rng.shuffle(cs)
        run.buffers[key], run.pools[key] = sorted(cs[:size0]), sorted(cs[size0:])


def _approx_rounds(run: _Run) -> Failure | None:
    """Embed each round B_i into its slices on the pool colours that the
    earlier rounds left, collecting the hosts that the rounds leave over."""
    r = run.t.r
    run.tau, run.sigma, run.leftovers = {}, {}, [[] for _ in range(r)]
    for i, B in enumerate(run.Bs, 1):
        used = set(run.sigma.values())
        pools = {key: [c for c in pool if c not in used] for key, pool in run.pools.items()}
        failure = _round_embed(run, B, [run.part_v[j][i] for j in range(r)], pools, run.leftovers)
        if failure is not None:
            return failure


def _approx_final(run: _Run) -> Failure | None:
    """The final round: B_0 into V^0 plus the rounds' leftovers, on the
    buffer colours (which no round uses)."""
    return _round_embed(run, run.B0, [run.part_v[j][0] + run.leftovers[j] for j in range(run.t.r)],
                        run.buffers, None)


_APPROX_STEPS = (_approx_chunk, _approx_slices, _approx_rounds, _approx_final)


def _round_embed(run: _Run, B, v_parts, pools, leftovers) -> Failure | None:
    """One blow-up round of ``approx_embed``: trim each cluster's slice to
    B's vertex count there, build the thick graph over the pool, embed B
    into it, then greedily give every embedded edge a distinct unused pool
    colour.  The rounds before the final one pass ``leftovers``: their
    slices are first screened for degree against the pool (the slack
    allows discards), and the hosts not kept go to ``leftovers``."""
    if not B:
        return None
    t, H, phi, rng, d, r = run.t, run.H, run.phi, run.rng, run.d, run.t.r
    slices: list[list[int]] = []
    for j in range(r):
        vs = list(v_parts[j])
        bad: set[int] = set()
        if leftovers is not None:
            for jp in range(r):
                pool = pools.get((j, jp) if j < jp else (jp, j))
                if j == jp or not pool:
                    continue
                other = mask_of(v_parts[jp])
                thr = 2 * d / 3 * len(v_parts[jp]) * len(pool)
                bad.update(v for v in vs if not t.gc.degree_reaches(v, other, pool, thr))
        good = [v for v in vs if v not in bad]
        needj = len([x for x in B if phi[x] == j])
        if len(good) < needj:
            return Failure(
                "approx", CHERNOFF_RETRY_EXHAUSTED, run.seed,
                cluster=j, detail="degree screen removed too many vertices",
            )
        rng.shuffle(good)
        keep = sorted(good[:needj])
        if leftovers is not None:
            kept = set(keep)
            leftovers[j].extend(v for v in vs if v not in kept)
        slices.append(keep)
    # thick graph over the pool; an empty pool gives no edges
    thick = thick_host_graph(
        t.gc, slices, {key: pool for key, pool in pools.items() if pool}, LAMBDA_THICK
    )
    Bset = set(B)
    res = blowup_embed(thick, slices, H, phi,
                       {v: ts for v, ts in run.targets.items() if v in Bset},
                       run.plan, seed=rng.randrange(1 << 30), active=Bset)
    if not res.ok:
        return res.failure
    run.tau.update(res.tau)
    edges = H.edges_within(B)
    rng.shuffle(edges)
    used: set[int] = set()
    rows = t.gc.rows
    for (u, v) in edges:
        key, a, b = _class_key(phi, u, v), res.tau[u], res.tau[v]
        avail = [c for c in pools.get(key, ()) if c not in used and rows[c][a] >> b & 1]
        if not avail:
            return Failure("approx", COLOUR_EXHAUSTED, run.seed, edge=(u, v), edge_class=key)
        used.add(c := rng.choice(avail))
        run.sigma[(u, v) if u < v else (v, u)] = c
    return None


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
        allowed = mask_of(ent.A) | mask_of(B0)
        m = _colour_matching(dict(enumerate(gc.colour_mask(*z) for z in ent.Z)), allowed)
        if m is None or mask_of(m.values()) != allowed:
            return None
        return {ent.Z[zi]: c for zi, c in m.items()}


def _colour_matching(zmasks: dict, allowed: int) -> dict | None:
    """A matching of every key of ``zmasks`` to a colour of its mask inside
    ``allowed`` (Kuhn's, each key's colours ascending), or None."""
    return perfect_matching({i: zm & allowed for i, zm in zmasks.items()})


def _flexibility_check(gc, Z, A, B, l, cap, samples, rng):
    """All (or sampled) l-subsets B0 of B admit a perfect matching between Z
    and A + B0.  Returns (ok, mode, count)."""
    zmasks, amask = dict(enumerate(gc.colour_mask(*z) for z in Z)), mask_of(A)
    total = math.comb(len(B), l)
    if total <= cap:
        for B0 in combinations(B, l):
            if _colour_matching(zmasks, amask | mask_of(B0)) is None:
                return False, "exhaustive", total
        return True, "exhaustive", total
    for count in range(1, samples + 1):
        if _colour_matching(zmasks, amask | mask_of(rng.sample(list(B), l))) is None:
            return False, "sampled", count
    return True, "sampled", samples


def build_absorber(
    t: Template,
    z_edges: dict[tuple[int, int], list[tuple[int, int]]],
    plan: LemmaPlan,
    l_sizes: dict[tuple[int, int], int],
    b_sizes: dict[tuple[int, int], int],
    seed: int = 0,
    pools: dict[tuple[int, int], list[int]] | None = None,
) -> Absorber | Failure:
    """Per R-edge: disjoint colour sets (A, B) with |B| = ``b_sizes[key]``
    and |A| = |Z| - l, l = ``l_sizes[key]``, such that A plus ANY l-subset
    of B perfectly colours the embedded edges Z (``_absorber_edge``, on the
    class's colour pool: ``pools[key]``, else the template's colours)."""
    per_edge: dict[tuple[int, int], AbsorberEdge] = {}
    for key in sorted(z_edges):
        pool = list(pools[key]) if pools else list(t.colours_of_edge(*key))
        built = _absorber_edge(t.gc, key, [tuple(z) for z in z_edges[key]], pool,
                               l_sizes[key], b_sizes[key], plan, seed)
        if isinstance(built, Failure):
            return built
        per_edge[key] = built
    return Absorber(per_edge=per_edge)


def _absorber_edge(gc, key, Z, pool, l, bsize, plan, seed) -> AbsorberEdge | Failure:
    """The absorber of one class.  B is drawn randomly, l flexible elements
    of Z with at least lambda3|B|/2 colour-neighbours in B are designated,
    the rest are matched into A by maximum matching, and flexibility is then
    verified (exhaustively when C(|B|, l) is small, sampled otherwise).
    Verification failure reseeds; after half the budget B is drawn greedily
    from the flexible elements' common colours.  Unverifiable constructions
    are a typed failure."""
    if bsize > len(pool) or len(Z) - l > len(pool) - bsize:
        return Failure(
            "absorber", PRECONDITION, seed, edge_class=key,
            detail="colour pool too small for the requested A and B sizes",
        )
    zmasks = [gc.colour_mask(*z) & mask_of(pool) for z in Z]
    for attempt in range(ABSORBER_RETRIES):
        rng = random.Random(_mix(seed, 71, attempt, key[0], key[1]))
        if attempt < ABSORBER_RETRIES // 2 or l == 0:
            B = sorted(rng.sample(pool, bsize))
        else:  # greedy fallback: draw B from the most-covered colours
            B = sorted(sorted(pool, key=lambda c: -sum(1 for zm in zmasks if zm >> c & 1))[:bsize])
        bmask = mask_of(B)
        flex_ok = [i for i, zm in enumerate(zmasks)
                   if (zm & bmask).bit_count() >= plan.lambda3 * len(B) / 2]
        if len(flex_ok) < l:
            continue
        flex = set(rng.sample(flex_ok, l))
        m = _colour_matching({i: zm for i, zm in enumerate(zmasks) if i not in flex}, ~bmask)
        if m is None:
            continue
        A = sorted(set(m.values()))
        ok, mode, count = _flexibility_check(
            gc, Z, A, B, l, plan.absorber_exhaustive_cap, ABSORBER_SAMPLES, rng
        )
        if ok:
            return AbsorberEdge(Z=tuple(Z), A=tuple(A), B=tuple(B), l=l,
                                verified=mode, subsets_checked=count)
    weak = sum(1 for zm in zmasks if zm.bit_count() < plan.lambda3 * len(pool))
    return Failure("absorber", ABSORBER_UNVERIFIABLE, seed, edge_class=key,
                   weak_edges=weak, retries=ABSORBER_RETRIES)


# ---------------------------------------------------------------------------
# Transversal blow-up: the one-shot passes


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
    """What a blow-up needs that no draw changes, for one (H, phi, active):
    the class edges ``_class_edges(H, phi, active)`` and the template's
    sorted class keys; then, each on first use:
    ``_bfs_order(H, active)`` (``bfs``) and the verification view of the
    active induced pattern (``view``; a success over all of H is verified
    on H itself)."""

    class_e: dict[tuple[int, int], list[tuple[int, int]]]
    keys: list[tuple[int, int]]
    H: PatternGraph
    active: set[int]

    @cached_property
    def bfs(self) -> list[int]:
        return _bfs_order(self.H, self.active)

    @cached_property
    def view(self) -> _PatternView:
        return _pattern_view(self.H, self.active)


def _buffer(H: SimpleGraph, order) -> int:
    """The one-shot pass's buffer, as a mask: ``order`` scanned from the back,
    taking each vertex with no H-neighbour taken yet (a maximal independent
    set of the vertices of ``order``)."""
    B = 0
    for v in reversed(order):
        B |= 0 if H.adj(v) & B else 1 << v
    return B


def _greedy_finish(rows, hosts, near) -> tuple[dict, dict] | None:
    """The buffer finish as one greedy pass over ``_finish_buffer``'s
    ``near``: (b -> host, edge -> colour), or None when some b finds no
    host.  Each b, in turn, takes the lowest untaken host of ``hosts[b]`` at
    which each of its edges, in turn, has an untaken colour of its free mask
    joining its neighbour's image to that host; each edge takes the lowest."""
    taken_h = taken_c = 0
    placed, coloured = {}, {}
    for b, nbrs in near:
        cand = hosts[b] & ~taken_h
        while cand:
            h, took, got = (cand & -cand).bit_length() - 1, taken_c, {}
            for x, free, e in nbrs:
                avail = free & ~took
                while avail and not rows[(avail & -avail).bit_length() - 1][x] >> h & 1:
                    avail &= avail - 1
                if not avail:
                    break
                got[e] = (avail & -avail).bit_length() - 1
                took |= 1 << got[e]
            else:  # every edge found a colour: b goes to h
                break
            cand &= cand - 1
        else:  # no host of b works
            return None
        taken_h, taken_c, placed[b] = taken_h | 1 << h, took, h
        coloured.update(got)
    return placed, coloured


def _short_matching(step: str, adj: dict, matched: dict, seed: int, label) -> Failure:
    """The finish's typed failure for a matching ``matched`` of ``adj`` that
    misses some left vertex.  Its Hall witness is left pending under
    ``"witness"`` (with ``label`` for its left vertices) for
    ``_hall_witness``, so only the failure that a call returns builds it."""
    return Failure("one-shot", MATCHING_TOO_SMALL, seed, step=step,
                   deficiency=len(adj) - len(matched), witness=(adj, matched, label))


def _hall_witness(failure: Failure) -> Failure:
    """``failure`` with a short matching's pending ``"witness"`` replaced by
    König's set: the ``hall_set`` (its left vertices, labelled) and its
    ``neighbourhood``, both sorted.  Any other failure is left as it is."""
    pending = failure.diagnostics.pop("witness", None)
    if pending is not None:
        adj, matched, label = pending
        hall, nbhd = koenig_set(adj, matched)
        failure.diagnostics.update(hall_set=sorted(map(label, hall)),
                                   neighbourhood=list(bits_of(nbhd)))
    return failure


def _finish_buffer(t: Template, H: PatternGraph, phi, B: list[int], part: PartialEmbedding,
                   targets, seed: int):
    """Finish a one-shot pass on its buffer B (ascending, independent, every
    neighbour embedded by ``part``).  ``_greedy_finish`` places and colours
    B in one pass over the unused hosts of each b's cluster and target and
    the unused colours of each edge's class; most dense finishes end there
    (``"finish": "greedy"``).  When it sticks, ``_matched_finish`` runs the
    matchings (``"finish": "matching"``): they decide tau on B, every
    failure and its deficiency, and whether the colours complete depends on
    tau alone, so the greedy pass loses no finish that they make.  This is
    the finish of every one-shot pass of ``transversal_blowup``."""
    tau, sigma = dict(part.tau), dict(part.sigma)
    retired, used = mask_of(sigma.values()), mask_of(tau.values())
    free = {key: mask & ~retired for key, mask in t.colour_cluster_masks.items()}
    target = _target_masks(targets, set(B), t.gc.n)
    hosts = {b: ~used & t.cluster_masks[phi[b]] & target.get(b, -1) for b in B}
    # each b with its edges to embedded neighbours a: (tau(a), free colours
    # of the class of ab, the edge)
    near = [(b, [(tau[a], free[_class_key(phi, a, b)], (a, b) if a < b else (b, a))
                 for a in H.neighbours(b) if a in tau]) for b in B]
    out, finish = _greedy_finish(t.gc.rows, hosts, near), "greedy"
    if out is None:
        out, finish = _matched_finish(t.gc, hosts, near, seed), "matching"
        if isinstance(out, Failure):
            return out
    tau.update(out[0])
    sigma.update(out[1])
    return tau, sigma, {"path": "one-shot", "finish": finish}


def _matched_finish(gc: GraphCollection, hosts, near, seed: int):
    """``_finish_buffer``'s matchings, on its ``hosts`` and ``near``: each b
    to a host by a lowest-first matching over the hosts that each of its
    edges reaches in some free colour; then the edges' colours by
    ``_greedy_finish`` with each b on its matched host or, when that sticks,
    by a matching over each edge's free colours AND its images'
    ``colour_mask``.  (b -> host, edge -> colour), or a short matching's
    typed failure (``_short_matching``)."""
    rows = gc.rows
    for b, nbrs in near:
        for x, free, _ in nbrs:
            reach = 0
            for c in bits_of(free):
                reach |= rows[c][x]
                if not hosts[b] & ~reach:  # every host of b is reached
                    break
            hosts[b] &= reach
    placed = max_bipartite_matching(hosts)
    if len(placed) < len(hosts):
        return _short_matching("buffer-vertices", hosts, placed, seed, int)
    out = _greedy_finish(rows, {b: 1 << h for b, h in placed.items()}, near)
    if out is not None:
        return out
    fits = dict(sorted((e, free & gc.colour_mask(x, placed[b]))
                       for b, nbrs in near for x, free, e in nbrs))
    coloured = max_bipartite_matching(fits)
    if len(coloured) < len(fits):
        return _short_matching("buffer-colours", fits, coloured, seed, list)
    return placed, coloured


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

    Classes may share colours (``_class_count_mismatch`` says how many they
    need), since a pass retires each colour it uses in every class.  Up to ``retries`` one-shot passes run (``"path": "one-shot"``, tag 89),
    over a BFS order of the active vertices and, on odd retries, a shuffle
    of it: each holds back the buffer B of ``_buffer``, runs the
    candidate-set pass on the rest and finishes B with ``_finish_buffer``
    (one greedy pass over B's hosts and colours, the matchings only when it
    sticks; ``"finish"`` names which).  Entry checks, set-up (which a caller
    may pass in) and verification are ``_blowup``'s.  The paper's blow-up
    lemma, Steps 0-5, is ``lemma_blowup``: no call here runs it.
    """
    return _blowup(t, H, phi, targets, seed, active, setup, lambda s, targets: _retry(
        seed, 89, plan.retries, Failure("one-shot", EMBEDDING_FAILED, seed),
        _one_shot(t, H, phi, targets, s.bfs)))


def _blowup(t: Template, H: PatternGraph, phi, targets, seed: int, active, setup,
            attempts) -> EmbedOutcome:
    """What both blow-ups share: the entry checks, the set-up (unless given)
    and then ``attempts(setup, targets)``, a ``_retry`` pair: the last
    failure, its ``_hall_witness`` built, or (tau, sigma, stats), verified
    against the target sets too (on H itself when ``active`` is all of H
    and there are none) and checked to use every colour once."""
    entry = _filling_entry("pipeline", t, H, phi, targets, seed, active)
    if isinstance(entry, EmbedOutcome):
        return entry
    active, targets = entry
    keys = sorted(t.colour_clusters)
    if setup is None:
        setup = _BlowupSetup(_class_edges(H, phi, active), keys, H, active)
    _identity(setup.keys == keys, "pipeline", "set-up class keys = template classes")
    if (mismatch := _class_count_mismatch(t, setup.class_e, seed)) is not None:
        return mismatch
    out, count = attempts(setup, targets)
    if isinstance(out, Failure):
        return EmbedOutcome(embedding=None, failure=_hall_witness(out), verification=None)
    tau, sigma, run_stats = out
    run_stats["attempts"] = count
    # over all of H, with no target set to drop, the view would be H itself
    whole = len(active) == H.n and not H.targets
    view = _pattern_view(H, active, targets) if targets else None if whole else setup.view
    done = EmbedOutcome.success(t.gc, H, tau, sigma, stats=run_stats, view=view)
    if sorted(sigma.values()) != t.all_colours():
        raise UnverifiedOutput(
            f"colour conservation violated on the {run_stats['path']} path"
        )
    return done


def _class_count_mismatch(t: Template, class_e, seed: int) -> EmbedOutcome | None:
    """The entry failure when a class has fewer colours than edges, a pattern
    edge class lies outside R, or the template's distinct colours are not as
    many as the edges (on a rainbow template: when a class's size is not its
    edge count); else None."""
    for key, cs in t.colour_clusters.items():
        if len(class_e.get(key, ())) > len(cs):
            return EmbedOutcome.fail(
                "pipeline", PRECONDITION, seed, edge_class=key,
                detail=f"e(H class)={len(class_e.get(key, ()))} > |C_e|={len(cs)}",
            )
    for key in class_e:
        if key not in t.colour_clusters:
            return EmbedOutcome.fail(
                "pipeline", PRECONDITION, seed, edge_class=key,
                detail="pattern edge class outside R",
            )
    if (e := sum(map(len, class_e.values()))) != (k := len(t.all_colours())):
        return EmbedOutcome.fail("pipeline", PRECONDITION, seed,
                                 detail=f"e(H)={e} != |C|={k}")
    return None


def _one_shot(t: Template, H: PatternGraph, phi, targets, bfs: list[int]):
    """The ``_retry`` attempt of the one-shot passes: over ``bfs``, shuffled
    on odd attempts by a generator of the sub-seed, hold back ``_buffer``'s
    B, run the candidate-set pass on the rest and finish B by
    ``_finish_buffer``."""

    def attempt(sub_seed, k):
        order = list(bfs)
        if k % 2:
            random.Random(sub_seed).shuffle(order)
        B = _buffer(H, order)
        part = partial_embed(t, H, phi, X=[v for v in order if not B >> v & 1], Y=[],
                             targets=targets, seed=sub_seed)
        if isinstance(part, Failure):
            return part.with_stage("one-shot")
        return _finish_buffer(t, H, phi, list(bits_of(B)), part, targets, sub_seed)

    return attempt


# ---------------------------------------------------------------------------
# The blow-up lemma (Steps 0-5)

_STAGES = ("abs", "app", "col", "vx")


@dataclass(frozen=True)
class _LemmaSetup:
    """What the Steps 0-5 attempts of a ``lemma_blowup`` call share, none of
    it drawn: the blow-up set-up ``base``, the separator X (empty when none
    is certified: chunking then copes or fails typed), Step 0's neighbours Y
    and connecting graph, the components outside X with their class edge
    counts, and whether those rule every split out (``decided``)."""

    base: _BlowupSetup
    X: list[int]
    Y: list[int]
    H_con: PatternGraph
    comps: list[list[int]]
    class_of_comp: list[Counter]
    decided: bool


def _lemma_setup(base: _BlowupSetup, phi, mu: float) -> _LemmaSetup:
    """The set-up of ``lemma_blowup`` on the blow-up set-up ``base``: a
    separator of at most mu * |active| vertices (any size when that is
    below one)."""
    H, active, view = base.H, base.active, base.view
    cert = separability_certificate(view.pattern, mu if len(active) * mu >= 1 else 1.0)
    X = (sorted(view.to_global[v] for v in cert.separator)
         if isinstance(cert, SeparabilityCertificate) else [])
    Y, H_con = _connecting_graph(H, X, active)
    comps = H.components(active.difference(X))
    class_of_comp = [Counter(_class_key(phi, u, v) for u, v in H.edges_within(comp))
                     for comp in comps]
    return _LemmaSetup(base, X, Y, H_con, comps, class_of_comp,
                       _split_decided(comps, class_of_comp, base.keys))


def lemma_blowup(
    t: Template,
    H: PatternGraph,
    phi,
    targets: dict[int, set[int]] | None,
    plan: LemmaPlan,
    seed: int = 0,
    active: set[int] | None = None,
) -> EmbedOutcome:
    """Verified transversal embedding using every template colour exactly
    once, by the paper's blow-up lemma: up to ``LEMMA_RETRIES`` attempts of
    Steps 0-5 (``"path": "main"``, tag 83), each ``_STEPS`` through
    ``_run_steps`` on the set-up of ``_lemma_setup``: a random abs/app/col/vx
    split of the components outside the separator; Step 0 embeds the
    separator graph and shrinks target sets to candidate sets; Step 1 embeds
    the absorber part in the lambda3-thick graph and builds the colour
    absorber (A, B); Steps 2-4 run the extra-colours embedder, the
    prescribed-colour embedder (on the app stage's leftover colours) and the
    extra-colours embedder again on the flexible pool; Step 5 matches the
    absorber edges to A plus the leftover B-subset.  A broken count that the
    split fixes raises ``UnverifiedOutput``.  A template that is not rainbow
    (two colour clusters share a colour) fails PreconditionViolated first;
    when the component counts rule out every split, the call fails so at
    once, with no draw; the rest is ``_blowup``'s."""
    if not t.rainbow:
        return EmbedOutcome.fail("pipeline", PRECONDITION, seed, detail="template must be rainbow")

    def attempts(base, targets):
        setup = _lemma_setup(base, phi, plan.mu)
        if setup.decided:
            return Failure("split", PRECONDITION, seed, separator=len(setup.X),
                           components=len(setup.comps), classes=len(setup.base.keys),
                           detail="the component counts rule out every split"), 0
        return _retry(seed, 83, LEMMA_RETRIES, Failure("pipeline", EMBEDDING_FAILED, seed),
                      lambda k_seed, _: _pipeline_once(t, H, phi, targets, plan, k_seed, setup))

    return _blowup(t, H, phi, targets, seed, active, None, attempts)


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
    probs = [plan.p_abs, plan.p_app, plan.p_col, P_VX]
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


def _split(run: _Run) -> Failure | None:
    """The random abs/app/col/vx split of the components outside X, with
    each stage's vertices, its class edge counts (row ``con``: the edges at
    X) and its vertex count per cluster."""
    s = run.setup
    run.keys = keys = s.base.keys
    assign = _split_components(s.comps, s.class_of_comp, run.plan, run.rng, keys)
    if assign is None:
        return Failure("split", CHERNOFF_RETRY_EXHAUSTED, run.seed,
                       detail="no component split meets the per-class minima")
    run.assign = assign
    run.stage_sets = {st: set() for st in _STAGES}
    for h, st in assign.items():
        run.stage_sets[st].update(s.comps[h])
    rows = {st: _stage_class_counts(assign, s.class_of_comp, keys, st) for st in _STAGES}
    con = {key: len(s.base.class_e.get(key, ())) - sum(rows[st][key] for st in _STAGES)
           for key in keys}
    run.h_counts = {"con": con, **rows}
    run.n_stage = {st: [0] * run.t.r for st in _STAGES}
    for st, vs in run.stage_sets.items():
        for v in vs:
            run.n_stage[st][run.phi[v]] += 1


def _step0(run: _Run) -> Failure | None:
    """Step 0: embed the connecting graph (its vertices cut to their target
    sets, an empty one admitting no host), shrink the targets of its
    neighbours Y to their candidate sets, and leave the free hosts ``Vp``
    and colours ``Cp``: exactly the stage vertices and stage edges."""
    t, s, phi = run.t, run.setup, run.phi
    con_targets = {w: run.targets[w] for w in s.X + s.Y if w in run.targets}
    part = partial_embed(t, s.H_con, phi, X=s.X, Y=s.Y, targets=con_targets, seed=run.seed)
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


def _prescription_caps(run: _Run) -> dict[tuple[int, int], int]:
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


def _step1(run: _Run) -> Failure | None:
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
    bres = blowup_embed(thick, v_abs, H, phi, abs_targets, plan, seed=_mix(run.seed, 2),
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


def _prep(run: _Run) -> Failure | None:
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
    run.sigmas = {}  # Steps 2-4: stage -> its colouring


def _stage_embed(run: _Run, step: str, stage: str, embedder, t_stage: Template, tag: int,
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


def _step2(run: _Run) -> Failure | None:
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
    # app-stage parameters per the (F1)-style transform: (m/4, 4e, d/4)
    t_app = _sub_template(t, run.v_app, run.c_app, d=t.d / 4, eps=4 * t.eps,
                          m=max(Fraction(1), t.m / 4))
    return _stage_embed(run, "step2", "app", approx_embed, t_app, 4)


def _step3(run: _Run) -> Failure | None:
    """Step 3: the col stage on B plus the app stage's leftover colours D,
    every colour of D prescribed."""
    t = run.t
    used_app = set(run.sigmas["app"].values())
    D = {key: [c for c in run.c_app[key] if c not in used_app] for key in run.keys}
    for key in run.keys:
        _identity(len(D[key]) == run.p_cap[key], "step3", "app leftovers = P_e", edge_class=key)
    c_col = {key: tuple(sorted({*run.absorber.per_edge[key].B, *D[key]})) for key in run.keys}
    t_col = _sub_template(t, run.v_colvx, c_col, d=t.d / 4)
    return _stage_embed(run, "step3", "col", embed_prescribed_colours, t_col, 5, prescribed=D)


def _step4(run: _Run) -> Failure | None:
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
    # vx-stage parameters per the (F3)-style transform: (m', sqrt(e), d/13)
    t_vx = _sub_template(t, v_vx, run.c_vx, d=t.d / 13,
                         eps=frac(str(round(float(t.eps) ** 0.5, 9))),
                         m=max(Fraction(1), frac(P_VX) * t.m / 8))
    return _stage_embed(run, "step4", "vx", approx_embed, t_vx, 6)


def _step5(run: _Run) -> Failure | None:
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


def _pipeline_once(t, H, phi, targets, plan, seed, setup):
    """One attempt of Steps 0-5 over the set-up that ``lemma_blowup`` builds
    once: the steps through ``_run_steps``, then (tau, sigma, stats)."""
    run = _Run(seed, setup=setup, t=t, H=H, phi=phi, targets=targets, plan=plan)
    failure = _run_steps(run, _STEPS)
    if failure is not None:
        return failure
    return run.tau, run.sigma, {
        "path": "main",
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
_NO_TARGETS = "target sets are not supported by this pipeline"


@dataclass(frozen=True)
class _QuasiSetup:
    """What the attempts of ``quasi_embed`` share, none of it drawn.  The
    blow-up's set-up (its keys the dense pairs, its active vertices those
    outside the sparse classes) is None when no pair is dense."""

    r: int
    parts: list[list[int]]
    phi: list[int]
    numbers: dict  # every template's d, eps and m, read once per call
    base_stats: dict
    sparse_H: PatternGraph
    order: list[int]
    Y: list[int]
    blowup: _BlowupSetup | None


def _quasi_setup(gc: GraphCollection, H: PatternGraph, plan: SplitPlan,
                 seed: int) -> _QuasiSetup | Failure:
    """Colour H equitably into Delta+1 parts, split the pairs of parts by
    density against the delta ladder, and fix the sparse side: all of H when
    no pair is dense, else the vertices X of the sparse classes with their
    neighbours Y and ``H_lt``, the edges at X; d is half the host's density
    over its colours (at least 0.05).  Or the typed failure."""
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
    d = max(0.05, gc.total_edge_count() / max(1, gc.n_colours * math.comb(gc.n, 2)) / 2)
    numbers = {"d": Fraction(str(round(d, 6))), "eps": plan.eps, "m": min(map(len, parts))}
    base_stats = {
        "ladder_level": level,
        "pair_densities": {str(k): v for k, v in d_ij.items()},
        "sparse_pairs": sorted(str(k) for k in sparse_pairs),
        "template": {key: str(frac(x)) for key, x in numbers.items()},
    }
    X = sorted({v for key in sparse_pairs for e in class_all.get(key, ()) for v in e})
    active = set(range(H.n)).difference(X)
    if dense_keys:
        Y, sparse_H = _connecting_graph(H, X, range(H.n))
        order = _bfs_order(H, X)
        # with X empty, active is all of H and its class edges are class_all
        blowup = _BlowupSetup(_class_edges(H, phi, active) if X else class_all, dense_keys, H,
                              active)
    else:  # the run degenerates to one candidate-set pass over all of H
        Y, sparse_H, order, blowup = [], H, _bfs_order(H, range(H.n)), None
    return _QuasiSetup(r, parts, phi, numbers, base_stats, sparse_H, order, Y, blowup)


def _quasi_draw(run: _Run) -> None:
    """Draw V_i: a random vertex partition of the hosts with |V_i| = |A_i|."""
    run.tau, run.sigma, run.cand, run.stats = {}, {}, {}, dict(run.setup.base_stats)
    hosts = list(range(run.gc.n))
    run.rng.shuffle(hosts)
    run.V, pos = [], 0
    for part in run.setup.parts:
        run.V.append(sorted(hosts[pos : pos + len(part)]))
        pos += len(part)


def _quasi_sparse(run: _Run) -> Failure | None:
    """Embed the sparse side (if any) through candidate sets, on the
    template with every colour on every pair; those of Y are the dense
    side's targets."""
    s = run.setup
    if not s.order:
        return None
    tmpl = make_template(run.V, dict.fromkeys(combinations(range(s.r), 2), range(run.gc.n_colours)),
                         run.gc, **s.numbers)
    part = partial_embed(tmpl, s.sparse_H, s.phi, X=s.order, Y=s.Y, targets=None, seed=run.seed)
    if isinstance(part, Failure):
        return part.with_stage("quasi-sparse")
    run.tau.update(part.tau)
    run.sigma.update(part.sigma)
    run.cand = {y: set(part.candidates[y]) for y in part.candidates}


def _quasi_dense(run: _Run) -> Failure | None:
    """Embed the dense side (if any) by the transversal blow-up on the
    hosts left, every dense pair taking the one pool of colours left."""
    s, K = run.setup, run.gc.n_colours
    if s.blowup is None:
        run.stats["path"] = LADDER_DEGENERATE
        return None
    used_cols, used_hosts = set(run.sigma.values()), set(run.tau.values())
    pool = [c for c in range(K) if c not in used_cols]
    Vp = [tuple(v for v in part if v not in used_hosts) for part in run.V]
    run.stats.update(e_sparse=len(run.sigma), colours_total=K)
    tmpl = make_template(Vp, dict.fromkeys(s.blowup.keys, pool), run.gc, **s.numbers)
    out = transversal_blowup(tmpl, run.H, s.phi, run.cand, run.plan, seed=_mix(run.seed, 7),
                             active=s.blowup.active, setup=s.blowup)
    if not out.ok:
        return out.failure
    run.tau.update(out.embedding.tau)
    run.sigma.update(out.embedding.sigma)
    run.stats.update(path=out.stats["path"], blowup=out.stats)


_QUASI_STEPS = (_quasi_draw, _quasi_sparse, _quasi_dense)


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
    that splits sparse pairs from dense ones, the templates' d, eps and m (d
    from the colours' edge counts), the sparse side and, when a pair is
    dense, the blow-up's set-up.  Each attempt then runs ``_QUASI_STEPS``
    through ``_run_steps``: draw the balanced vertex partition V_i, embed
    the sparse side through candidate sets on a template with every colour
    on every pair, and embed the dense side by the one-shot passes of
    ``transversal_blowup`` (never Steps 0-5) with the candidate sets as
    targets, every dense pair taking the one pool of colours that the
    sparse side left (no colour is split between the dense classes).
    Both templates take ``gc`` itself as their collection: no slice is
    sparsified or copied, and every step reads only edges between two
    clusters, so the edges inside a V_i are never read.  A success's
    ``stats["path"]`` names its path: ``one-shot``, ``LadderDegenerate`` or
    ``empty``; all but ``empty`` carry ``stats["template"]``, the d, eps and
    m as exact-fraction strings.  A pattern with target sets (``H.targets``)
    fails PreconditionViolated before any draw: no step honours them.  So
    does a colour with no edge, which the diagnostics name: |C| = e(H), so
    the copy uses every colour.
    """
    n, K = gc.n, gc.n_colours
    if K != H.e:
        return EmbedOutcome.fail(
            "quasi", PRECONDITION, seed, detail=f"|C|={K} != e(H)={H.e}"
        )
    if H.n > n:
        return EmbedOutcome.fail("quasi", PRECONDITION, seed, detail="pattern too large")
    if H.targets:
        return EmbedOutcome.fail("quasi", PRECONDITION, seed, detail=_NO_TARGETS)
    if H.e == 0:
        tau = {v: v for v in range(H.n)}
        return EmbedOutcome.success(gc, H, tau, {}, stats={"path": "empty"})
    bare = next((c for c in range(K) if not gc.edge_count(c)), None)
    if bare is not None:
        return EmbedOutcome.fail("quasi", PRECONDITION, seed, colour=bare,
                                 detail="a colour has no edge")
    setup = _quasi_setup(gc, H, plan, seed)
    if isinstance(setup, Failure):
        return EmbedOutcome(None, setup, None)

    run, _ = _retry(seed, 97, plan.retries, Failure("quasi", EMBEDDING_FAILED, seed),
                    _steps(_QUASI_STEPS, setup=setup, gc=gc, H=H, plan=plan))
    if isinstance(run, Failure):
        return EmbedOutcome(None, run, None)
    return EmbedOutcome.success(gc, H, run.tau, run.sigma, stats=run.stats)


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


def _expand_setup(g: ThreeGraph, H: PatternGraph, seed: int) -> _ExpandSetup | Failure:
    """Pad H with edges between isolated vertices (existing isolates first,
    fresh ones if needed) until e > n/4 - 1 and relabel it onto the touched
    vertices; or the typed failure when g cannot host that padded pattern
    Hp.  Both refusals below come before any link collection is built.  A
    host with fewer than ``SPARSE_HOST_SHARE`` * v(Hp)^2 * e(Hp) triples is
    too sparse for Hp: a draw's link collection costs O(n^2) however few
    triples g has (at n = 20000, 3 triples and no such rule, the draws grew
    past 2.1 GB).  When v(Hp) + e(Hp) = n, a host vertex in no triple is in
    every draw, so every draw fails: the failure names that vertex."""
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
    need = SPARSE_HOST_SHARE * Hp.n**2 * Hp.e
    if g.e < need:
        return Failure("expand", PRECONDITION, seed, host_edges=g.e, need=need,
                       detail="too few host edges for the padded pattern")
    if Hp.n + Hp.e == n:  # every draw takes every host vertex
        bare = next((v for v, d in enumerate(g.degrees()) if not d), None)
        if bare is not None:
            return Failure("expand", PRECONDITION, seed, vertex=bare,
                           detail="a host vertex in no triple is in every draw")
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
    run.out = _verified_expansion(run.g, H, vertex_images, edge_images,
                                  {**s.stats, "quasi": out.stats})


def _verified_expansion(g: ThreeGraph, H: PatternGraph, vertex_images, edge_images,
                        stats: dict) -> ExpansionOutcome:
    """The successful outcome with these images; raises UnverifiedOutput if
    ``verify_expansion`` rejects them (an explicit raise, so also under
    ``python -O``)."""
    rep = verify_expansion(g, H, vertex_images, edge_images)
    if not rep.ok:
        raise UnverifiedOutput(f"expansion failed verification: {rep.violations}")
    return ExpansionOutcome(vertex_images, edge_images, None, stats=stats)


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
    pattern vertices take unused host vertices.  An edgeless H takes a
    random sample of hosts instead.  Every success, that one too, passes
    ``verify_expansion`` (``_verified_expansion``).  A pattern with target
    sets fails PreconditionViolated before any draw, as in ``quasi_embed``.
    A failure's diagnostics carry the host quantities of the application
    theorem: ``min_degree_ratio``, the least vertex degree over C(n-1, 2),
    and ``triple_density``, e over C(n, 3).
    """
    n = g.n
    if H.n + H.e > n:
        run = Failure("expand", PRECONDITION, seed, detail="v(H)+e(H) > v(G)")
    elif H.targets:
        run = Failure("expand", PRECONDITION, seed, detail=_NO_TARGETS)
    elif H.e == 0:
        hosts = random.Random(_mix(seed, 101)).sample(range(n), H.n)
        return _verified_expansion(g, H, dict(enumerate(hosts)), {}, {"path": "edgeless"})
    else:
        setup = _expand_setup(g, H, seed)
        run = setup if isinstance(setup, Failure) else _retry(
            seed, 103, max(1, plan.retries // 4), Failure("expand", EMBEDDING_FAILED, seed),
            _steps(_EXPAND_STEPS, setup=setup, g=g, H=H, plan=plan))[0]
    if not isinstance(run, Failure):
        return run.out
    m = max(n, 3)  # below 3 vertices there is no triple, and both read 0
    run.diagnostics.update(min_degree_ratio=min(g.degrees(), default=0) / math.comb(m - 1, 2),
                           triple_density=g.e / math.comb(m, 3))
    return ExpansionOutcome(None, None, run)
