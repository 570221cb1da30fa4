import dataclasses
import hashlib
import json
import math
import random
from itertools import combinations, groupby

import pytest

from transversal.core import (
    GraphCollection,
    PatternGraph,
    SimpleGraph,
    ThreeGraph,
    TransversalEmbedding,
    bits_of,
    collection_from_json,
    collection_to_json,
    mask_of,
    verify_transversal_embedding,
)
from transversal.embed import (
    CANDIDATE_EXHAUSTED,
    PADDING_IMPOSSIBLE,
    PRECONDITION,
    EquitableColouring,
    Failure,
    PartialEmbedding,
    SplitPlan,
    _class_key,
    _flexibility_check,
    _mix,
    approx_embed,
    blowup_embed,
    build_absorber,
    embed_prescribed_colours,
    equitable_colouring,
    expand_embed_3graph,
    find_induced_matching,
    partial_embed,
    quasi_embed,
    transversal_blowup,
)
from transversal.generators import GenSpec, random_collection, separable_family
from transversal.matching import max_bipartite_matching
from transversal.oracle import exact_transversal_embed
from transversal.templates import make_template

PLAN = SplitPlan()


def bip_template(n_side, k, density=1.0, seed=0, d="0.7", eps="0.05",
                 klass="super", rainbow=True):
    rng = random.Random(seed)
    edges = {
        c: [
            (u, v)
            for u in range(n_side)
            for v in range(n_side, 2 * n_side)
            if rng.random() < density
        ]
        for c in range(k)
    }
    gc = GraphCollection(2 * n_side, k, edges)
    return make_template(
        [range(n_side), range(n_side, 2 * n_side)], {(0, 1): range(k)},
        gc, d=d, eps=eps, m=n_side, rainbow=rainbow, klass=klass,
    )


# ---------------------------------------------------------------------------
# equitable colouring


def test_equitable_empty_graph():
    H = PatternGraph(9, [])
    eq = equitable_colouring(H, 3)
    assert sorted(len(p) for p in eq.parts) == [3, 3, 3]
    assert eq.balanced


def test_equitable_c6():
    H = PatternGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    eq = equitable_colouring(H, 3, seed=1)
    assert eq.balanced and all(len(p) == 2 for p in eq.parts)
    for p in eq.parts:
        for a in p:
            for b in p:
                assert a == b or not H.has_edge(a, b)


def test_equitable_random_delta3():
    rng = random.Random(4)
    while True:
        edges = [
            (u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.07
        ]
        H = PatternGraph(30, edges)
        if H.max_degree == 3:
            break
    eq = equitable_colouring(H, 4, seed=0)
    assert sorted(len(p) for p in eq.parts) == [7, 7, 8, 8]
    for p in eq.parts:
        for a in p:
            for b in p:
                assert a == b or not H.has_edge(a, b)


# Patterns whose greedy colouring into r = Delta + 1 classes is unbalanced, so
# the balancing loop runs, and which a line tracer showed reach exactly one
# kind of move.  The first two are G(n, p) draws (n=6, p=0.2, random.Random(266)
# and n=11, p=0.3, random.Random(218)); the third is a 4-regular graph on 8
# vertices whose jiggle has more than one legal move, so its pinned colouring
# depends on the seeded draw.  Each pins its seed-0 colouring.
BALANCING = {
    "single-move": (
        [(0, 5), (1, 4), (2, 3), (3, 4)],
        ((3, 5), (2, 4), (0, 1)),
    ),
    "two-step-chain": (
        [(0, 2), (0, 5), (0, 7), (0, 10), (1, 3), (1, 7), (1, 8), (1, 10), (2, 4), (2, 8),
         (3, 5), (3, 8), (4, 10), (5, 6), (5, 7), (5, 8), (6, 8), (6, 9), (6, 10), (7, 9)],
        ((5, 10), (8, 9), (0, 3), (1, 2), (4, 6), (7,)),
    ),
    "random-jiggle": (
        [(0, 1), (0, 3), (0, 4), (0, 6), (1, 2), (1, 4), (1, 5), (2, 3), (2, 6), (2, 7),
         (3, 5), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7)],
        ((0, 5), (1, 7), (2,), (3, 6), (4,)),
    ),
}


@pytest.mark.parametrize("move", sorted(BALANCING))
def test_equitable_balancing_moves(move):
    edges, pinned = BALANCING[move]
    H = PatternGraph(1 + max(max(e) for e in edges), edges)
    r = H.max_degree + 1
    eq = equitable_colouring(H, r, seed=0)
    assert eq.proper and eq.balanced and eq.rounds >= 1
    assert sorted(v for p in eq.parts for v in p) == list(range(H.n))
    assert max(map(len, eq.parts)) - min(map(len, eq.parts)) <= 1
    for p in eq.parts:
        assert not any(H.has_edge(a, b) for a, b in combinations(p, 2))
    assert eq.parts == pinned
    assert equitable_colouring(H, r, seed=0) == eq


# G(n, p) draws (random.Random(691), (386) and (1641) draw n, then p, then the
# edges) whose first greedy pass into r = Delta + 1 classes is unbalanced:
# with no balancing round allowed, a later restart's shuffled order gives the
# colouring.
RESHUFFLED = [
    ([(0, 1), (0, 5), (1, 4), (2, 5), (3, 4)], ((1, 5), (2, 4), (0, 3))),
    ([(0, 3), (0, 7), (1, 2), (2, 3), (3, 7), (4, 5), (4, 6)], ((2, 4), (3, 5), (0, 6), (1, 7))),
    ([(0, 3), (1, 4), (1, 5), (2, 5), (2, 6), (3, 8), (4, 8), (5, 7), (6, 7)],
     ((2, 4), (0, 7), (3, 5, 6), (1, 8))),
]


@pytest.mark.parametrize("edges, pinned", RESHUFFLED)
def test_equitable_restart_shuffles_the_order(edges, pinned):
    H = PatternGraph(1 + max(max(e) for e in edges), edges)
    r = H.max_degree + 1
    assert equitable_colouring(H, r, seed=0).rounds >= 1  # the first pass needs a round
    assert equitable_colouring(H, r, seed=0, cap=0) == EquitableColouring(
        parts=pinned, proper=True, balanced=True, rounds=0)


def test_equitable_returns_the_first_colouring_when_no_restart_balances():
    # a union of small blocks, relabelled, found by a seeded search: none of
    # the eight greedy passes at seed 1 is balanced, and no round may run
    edges = [(0, 2), (0, 11), (1, 5), (1, 9), (1, 10), (2, 4), (2, 7), (3, 5), (3, 9), (3, 10),
             (4, 11), (5, 6), (6, 9), (6, 10), (7, 11)]
    H = PatternGraph(12, edges)
    eq = equitable_colouring(H, H.max_degree + 1, seed=1, cap=0)
    assert eq == EquitableColouring(parts=((0, 1, 6, 7), (2, 8, 9), (3, 11), (4, 5, 10)),
                                    proper=True, balanced=False, rounds=0)


def test_equitable_needs_enough_classes():
    H = PatternGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError):
        equitable_colouring(H, 2)


# ---------------------------------------------------------------------------
# partial embedding


def test_partial_single_edge_complete():
    t = bip_template(6, 6)
    H = PatternGraph(2, [(0, 1)])
    out = partial_embed(t, H, [0, 1], X=[0], Y=[1], targets=None, plan=PLAN, seed=0)
    assert isinstance(out, PartialEmbedding)
    assert out.tau[0] in set(range(6))
    # complete host: candidate set is the whole opposite cluster minus nothing
    assert len(out.candidates[1]) == 6


def test_partial_path_candidate_invariant():
    t = bip_template(6, 6)
    H = PatternGraph(3, [(0, 1), (1, 2)])
    out = partial_embed(t, H, [0, 1, 0], X=[0, 2], Y=[1], targets=None, plan=PLAN, seed=1)
    assert isinstance(out, PartialEmbedding)
    for v in out.candidates[1]:
        for x in (0, 2):
            e = (x, 1) if x < 1 else (1, x)
            assert t.gc.has_edge(out.sigma[e], out.tau[x], v)


def test_partial_pigeonhole_colour_exhaustion():
    t = bip_template(6, 1)
    H = PatternGraph(4, [(0, 1), (2, 3)])
    out = partial_embed(t, H, [0, 1, 0, 1], X=[0, 1, 2, 3], Y=[], targets=None, plan=PLAN, seed=0)
    assert isinstance(out, Failure)
    assert out.reason == "CandidateExhausted"


def test_partial_rejects_edges_inside_y():
    t = bip_template(6, 6)
    H = PatternGraph(2, [(0, 1)])
    out = partial_embed(t, H, [0, 1], X=[], Y=[0, 1], targets=None, plan=PLAN, seed=0)
    assert isinstance(out, Failure) and out.reason == "PreconditionViolated"


def test_partial_deterministic():
    t = bip_template(6, 8, density=0.7, seed=2, d="0.4")
    H = PatternGraph(4, [(0, 1), (1, 2), (2, 3)])
    a = partial_embed(t, H, [0, 1, 0, 1], X=[0, 1, 2, 3], Y=[], targets=None, plan=PLAN, seed=9)
    b = partial_embed(t, H, [0, 1, 0, 1], X=[0, 1, 2, 3], Y=[], targets=None, plan=PLAN, seed=9)
    assert type(a) == type(b)
    if isinstance(a, PartialEmbedding):
        assert a.tau == b.tau and a.sigma == b.sigma


def test_partial_refuses_overlapping_x_and_y():
    t = bip_template(6, 8, density=0.7, seed=2, d="0.4")
    H = PatternGraph(4, [(0, 1), (2, 3)])
    f = partial_embed(t, H, [0, 1, 0, 1], X=[0, 1, 2], Y=[2], targets=None, plan=PLAN, seed=4)
    assert (f.stage, f.reason, f.seed) == ("partial", PRECONDITION, 4)
    assert f.diagnostics == {"detail": "X and Y overlap"}


def test_partial_refuses_a_phi_that_is_not_a_homomorphism():
    # R has the pair (0, 1) only, so the edge (1, 2) between clusters 0 and 2
    # maps to a non-edge
    gc = GraphCollection(9, 4, {c: [(u, v) for u in range(3) for v in range(3, 6)]
                                for c in range(4)})
    t = make_template([range(3), range(3, 6), range(6, 9)], {(0, 1): range(4)}, gc,
                      d="0.5", eps="0.05", m=3, rainbow=True)
    H = PatternGraph(3, [(0, 1), (1, 2)])
    f = partial_embed(t, H, [1, 0, 2], X=[0, 1, 2], Y=[], targets=None, plan=PLAN, seed=5)
    assert (f.stage, f.reason, f.seed) == ("partial", PRECONDITION, 5)
    assert f.diagnostics == {"detail": "phi is not a homomorphism: edge (1,2) -> non-edge (0, 2)"}


def _set_partial_embed(t, H, phi, X, Y, targets, plan, seed: int = 0, ties=None):
    """The set-based candidate loop that the bitmask ``partial_embed``
    replaced, kept as its reference: same draws, same results.  A list
    ``ties`` collects the vertices whose (x,1) degree equals the threshold."""
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
    d, eps, m = float(t.d), float(t.eps), float(t.m)
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
            degree = {v: t.gc.degree_into(v, cy_mask, Cxy) for v in cand_v[x]}
            if ties is not None:
                ties += [v for v, deg in degree.items() if deg == thr]
            cand_v[x] -= {v for v, deg in degree.items() if deg < thr}
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


def _random_pattern(rng, n, max_deg):
    """A random graph on n vertices with maximum degree <= max_deg."""
    deg = [0] * n
    edges = set()
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        if deg[u] < max_deg and deg[v] < max_deg and (min(u, v), max(u, v)) not in edges:
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    return PatternGraph(n, sorted(edges))


def _greedy_phi(H, r):
    phi = []
    for v in range(H.n):
        taken = {phi[u] for u in H.neighbours(v) if u < v}
        phi.append(min(set(range(r)) - taken))
    return phi


def _kr_template(rng, r, side, k, density, d, shared, eps="0.05"):
    """Template on K_r with clusters of ``side`` hosts; colours are shared by
    every pair (``shared``) or split into disjoint groups of k per pair."""
    clusters = [range(i * side, (i + 1) * side) for i in range(r)]
    pairs = list(combinations(range(r), 2))
    groups = {p: list(range(k)) if shared else list(range(h * k, (h + 1) * k))
              for h, p in enumerate(pairs)}
    n_colours = k if shared else k * len(pairs)
    edges = {c: [] for c in range(n_colours)}
    for (i, j), cs in groups.items():
        for c in cs:
            edges[c] += [(u, v) for u in clusters[i] for v in clusters[j]
                         if rng.random() < density]
    gc = GraphCollection(r * side, n_colours, edges)
    return make_template(clusters, groups, gc, d=d, eps=eps, m=side, rainbow=not shared,
                         klass="super")


def _partial_case(case, numbers=None):
    """One seeded partial_embed input: (t, H, phi, X, Y, targets, seed).
    A ``numbers`` {"d": ..., "eps": ...} replaces the drawn d and eps 0.05."""
    rng = random.Random(case)
    kind = case % 4
    if kind == 0:  # a bipartite pattern on the two-cluster template
        side, k, density = rng.randint(4, 9), rng.randint(2, 12), rng.uniform(0.4, 1.0)
        led = numbers or {"d": rng.choice(["0", "0.3", "0.5", "0.7"])}
        t = bip_template(side, k, density=density, seed=case, **led)
        n = rng.randint(2, 8)
        H = PatternGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if (u + v) % 2 and rng.random() < 0.5])
        phi = [v % 2 for v in range(n)]
    else:  # cycles (kind 1) or random max-degree-3 patterns on K_3 / K_4
        n = rng.randint(3, 12)
        H = (PatternGraph(n, [(i, (i + 1) % n) for i in range(n)]) if kind == 1
             else _random_pattern(rng, n, 3))
        r = 3 if kind == 1 else 4
        phi = _greedy_phi(H, r)
        side, k, density = rng.randint(3, 8), rng.randint(2, 10), rng.uniform(0.3, 1.0)
        led = numbers or {"d": rng.choice(["0", "0.2", "0.4", "0.6"])}
        t = _kr_template(rng, r, side, k, density, shared=kind != 3, **led)
    # Y: an independent set, the rest in X (shuffled, or BFS-like order)
    Y = []
    if rng.random() < 0.6:
        for v in rng.sample(range(n), n):
            if rng.random() < 0.5 and not any(H.has_edge(v, y) for y in Y):
                Y.append(v)
    X = [v for v in range(n) if v not in Y]
    rng.shuffle(X)
    targets = None
    if rng.random() < 0.5:
        hosts = t.gc.n
        targets = {v: set(rng.sample(range(hosts + 3), rng.randint(hosts // 4, hosts)))
                   for v in range(n) if rng.random() < 0.4}
    return t, H, phi, X, Y, targets, rng.getrandbits(32)


def _partial_fingerprint(out):
    if isinstance(out, Failure):
        return ("failure", out.stage, out.reason, out.seed, out.diagnostics)
    return ("ok", list(out.tau.items()), list(out.sigma.items()), out.candidates)


# (d, eps) with d - eps a binary fraction: whole (x,1) thresholds, so some
# degrees equal them and a screen that drops those vertices shows
TIE_NUMBERS = [{"d": d, "eps": eps} for d, eps in
               [("0.5", "0.25"), ("0.75", "0.25"), ("0.625", "0.125"), ("0.375", "0.125")]]


def test_bitmask_partial_embed_matches_the_set_reference():
    steps, ties = set(), []
    cases = [(case, None) for case in range(240)]
    cases += [(case, TIE_NUMBERS[case // 4 % 4]) for case in range(160)]
    for case, numbers in cases:
        t, H, phi, X, Y, targets, seed = _partial_case(case, numbers)
        new = partial_embed(t, H, phi, X, Y, targets, PLAN, seed=seed)
        ref = _set_partial_embed(t, H, phi, X, Y, targets, PLAN, seed=seed, ties=ties)
        assert _partial_fingerprint(new) == _partial_fingerprint(ref), (case, numbers)
        # "ok", or the failing step without its vertices: "(3,1)" -> "1)"
        steps.add("ok" if isinstance(ref, PartialEmbedding)
                  else ref.diagnostics["step"].split(",")[-1])
    # successes and a failure at every step are among the cases, and so are
    # degrees equal to the (x,1) threshold
    assert steps == {"ok", "init", "1)", "4.1)", "4.4)", "final-floor"}, steps
    assert len(ties) >= 20, len(ties)


def test_targets_outside_the_host_range_are_ignored():
    for case in range(48):
        t, H, phi, X, Y, _, seed = _partial_case(case)
        n = t.gc.n
        targets = {v: {*t.clusters[phi[v]][v % 2::2], -1, n + 5} for v in range(H.n)}
        if case % 3 == 0:  # only hosts outside the collection: an empty target
            targets[case % H.n] = {-1, n + 5}
        new = partial_embed(t, H, phi, X, Y, targets, PLAN, seed=seed)
        ref = _set_partial_embed(t, H, phi, X, Y, targets, PLAN, seed=seed)
        assert _partial_fingerprint(new) == _partial_fingerprint(ref), case


def test_one_shot_outcome_does_not_depend_on_cached_rows(monkeypatch):
    # the 30-cycle's template takes the one-shot pass, whose first 4
    # passes fail; the captured call runs again on that template (its masks
    # and the collection's packed rows already built) and once on a template
    # over a fresh copy of the collection
    from transversal import embed

    calls = []
    real = embed.transversal_blowup
    monkeypatch.setattr(embed, "transversal_blowup",
                        lambda *a, **k: calls.append((a, k)) or real(*a, **k))
    H = PatternGraph(30, [(i, (i + 1) % 30) for i in range(30)])
    gc = random_collection(GenSpec(n=30, n_colours=30, density=0.4, seed=2))
    first = quasi_embed(gc, H, PLAN, seed=2).stats["blowup"]
    assert first == {"path": "one-shot", "attempts": 5}
    (t, *args), kwargs = calls[0]
    assert t.gc._row_cache
    fresh = dataclasses.replace(t, gc=collection_from_json(collection_to_json(t.gc)))
    outs = [real(t, *args, **kwargs), real(t, *args, **kwargs), real(fresh, *args, **kwargs)]
    assert {repr((o.stats, o.embedding.tau, o.embedding.sigma)) for o in outs} == {
        repr((first, outs[0].embedding.tau, outs[0].embedding.sigma))
    }
    assert fresh.gc._row_cache.items() <= t.gc._row_cache.items()


# ---------------------------------------------------------------------------
# the one-shot pass's buffer and its matching finish


def test_buffer_is_an_independent_set_maximal_over_the_order():
    # property: over random patterns of maximum degree <= 4, random vertex
    # subsets and random orders of them, the buffer lies in the order, has no
    # edge inside, and each vertex of the order outside it has a neighbour in
    # it that comes later (the back-to-front greedy took that one first)
    from transversal.embed import _buffer

    rng = random.Random(5)
    for case in range(300):
        H = _random_pattern(rng, rng.randint(2, 30), rng.randint(1, 4))
        order = rng.sample(range(H.n), rng.randint(0, H.n))
        B = set(bits_of(_buffer(H, order)))
        assert B <= set(order) and not H.edges_within(B), case
        for i, v in enumerate(order):
            assert v in B or set(H.neighbours(v)) & B & set(order[i + 1:]), (case, v)


def _set_finish(t, H, phi, B, part, targets):
    """The buffer finish over sets of hosts and colours: (tau, sigma), or the
    failing step and deficiency."""
    tau, sigma = dict(part.tau), dict(part.sigma)
    free = {key: set(cs) - set(sigma.values()) for key, cs in t.colour_clusters.items()}
    hosts = {}
    for b in B:
        hosts[b] = [v for v in t.clusters[phi[b]] if v not in tau.values()
                    and (b not in targets or v in targets[b])
                    and all(any(t.gc.has_edge(c, tau[a], v) for c in free[_class_key(phi, a, b)])
                            for a in H.neighbours(b) if a in part.tau)]
    matched = max_bipartite_matching({b: sorted(vs) for b, vs in hosts.items()})
    if len(matched) < len(B):
        return "buffer-vertices", len(B) - len(matched)
    tau.update(matched)
    edges = sorted(tuple(sorted((a, b))) for b in B for a in H.neighbours(b) if a in part.tau)
    matched = max_bipartite_matching({
        e: sorted(c for c in free[_class_key(phi, *e)] if t.gc.has_edge(c, tau[e[0]], tau[e[1]]))
        for e in edges})
    if len(matched) < len(edges):
        return "buffer-colours", len(edges) - len(matched)
    sigma.update(matched)
    return tau, sigma


def test_buffer_finish_matches_the_set_reference():
    # the finish's masks against plain sets, on the seeded partial_embed
    # inputs: Y is independent, so embed X greedily and finish Y
    from transversal.embed import _finish_buffer

    outcomes = set()
    for case in range(400):
        t, H, phi, X, Y, targets, seed = _partial_case(case)
        part = partial_embed(t, H, phi, X, [], targets, PLAN, seed=seed)
        if not isinstance(part, PartialEmbedding):
            continue
        targets = {v: set(ts) for v, ts in (targets or {}).items()}
        new = _finish_buffer(t, H, phi, sorted(Y), part, targets, seed)
        ref = _set_finish(t, H, phi, sorted(Y), part, targets)
        if isinstance(new, Failure):
            assert (new.stage, new.reason) == ("one-shot", "MatchingTooSmall")
            assert (new.diagnostics["step"], new.diagnostics["deficiency"]) == ref, case
            outcomes.add(ref[0])
        else:
            assert new[:2] == ref and new[2] == {"path": "one-shot"}, case
            emb = TransversalEmbedding(tau=new[0], sigma=new[1])
            assert verify_transversal_embedding(t.gc, PatternGraph(H.n, H.edges()), emb).ok
            outcomes.add("ok" if Y else "ok, empty buffer")
    assert outcomes == {"ok", "ok, empty buffer", "buffer-vertices", "buffer-colours"}, outcomes


def _captured_blowup(monkeypatch, gc, H, seed):
    """quasi_embed's first transversal_blowup call: (t, H, phi, targets, plan), kwargs."""
    from transversal import embed

    calls = []
    real = embed.transversal_blowup
    monkeypatch.setattr(embed, "transversal_blowup",
                        lambda *a, **k: calls.append((a, k)) or real(*a, **k))
    out = quasi_embed(gc, H, PLAN, seed=seed)
    monkeypatch.setattr(embed, "transversal_blowup", real)
    return out, calls[0]


def test_buffered_pass_succeeds_where_every_greedy_pass_fails(monkeypatch):
    # on this 30-cycle's template the greedy pass over the whole order (the
    # one-shot pass before its buffer) fails on all 20 sub-seeds; the
    # buffered pass succeeds on its first, verified, and replays bit for bit
    H = PatternGraph(30, [(i, (i + 1) % 30) for i in range(30)])
    gc = random_collection(GenSpec(n=30, n_colours=30, density=0.4, seed=3))
    out, ((t, H, phi, targets, plan), kwargs) = _captured_blowup(monkeypatch, gc, H, 3)
    assert out.ok and out.stats["blowup"] == {"path": "one-shot", "attempts": 1}
    bfs = kwargs["setup"].bfs
    for k in range(PLAN.retries):
        sub_seed, order = _mix(kwargs["seed"], 89, k), list(bfs)
        if k % 2:
            random.Random(sub_seed).shuffle(order)
        greedy = partial_embed(t, H, phi, order, [], targets, PLAN, seed=sub_seed)
        assert isinstance(greedy, Failure) and greedy.reason == CANDIDATE_EXHAUSTED, k
    # the finish draws nothing: the same seed gives the same output twice
    runs = [transversal_blowup(t, H, phi, targets, plan, **kwargs) for _ in range(2)]
    assert all(o.ok and o.verification.ok for o in runs)
    assert len({repr((o.embedding, o.stats)) for o in runs}) == 1


def _path_template(c0, c1):
    """The path 0-1-2 with phi = [0, 1, 0] on clusters {0, 1} and {2} and two
    colours of class (0, 1), with host edges (u, 2) for u in c0 in colour 0
    and for u in c1 in colour 1.  Every pass puts 1 on host 2 and buffers 0
    and 2."""
    gc = GraphCollection(3, 2, {0: [(u, 2) for u in c0], 1: [(u, 2) for u in c1]})
    t = make_template([range(2), range(2, 3)], {(0, 1): range(2)}, gc, d="0.5", eps="0.05",
                      m=1, rainbow=True, klass="super")
    return t, PatternGraph(3, [(0, 1), (1, 2)]), [0, 1, 0]


@pytest.mark.parametrize("c0, c1, step", [
    ((0,), (0,), "buffer-vertices"),  # host 1 meets host 2 in no colour
    ((0, 1), (), "buffer-colours"),  # both edges need colour 0
])
def test_buffer_finish_fails_typed(c0, c1, step):
    t, H, phi = _path_template(c0, c1)
    out = transversal_blowup(t, H, phi, None, PLAN, seed=4)
    assert not out.ok
    f = out.failure
    assert (f.stage, f.reason, f.diagnostics["step"], f.diagnostics["deficiency"]) == (
        "one-shot", "MatchingTooSmall", step, 1)
    assert f.diagnostics["main"] == "split-decided"


def test_buffer_keeps_the_sparse_sides_targets(monkeypatch):
    # QUASI_REPLAY seed 9 (the finer ladder) embeds its sparse side first;
    # the dense side's one-shot pass buffers vertices whose targets are the
    # sparse side's candidate sets, and the finish keeps them inside
    from transversal import embed

    seen = []
    real = embed._finish_buffer

    def recorded(t, H, phi, B, part, targets, seed):
        out = real(t, H, phi, B, part, targets, seed)
        seen.append((B, targets, out))
        return out

    monkeypatch.setattr(embed, "_finish_buffer", recorded)
    gc, H, plan = _quasi_instance(9)
    assert plan is MIXED_PLAN
    out = quasi_embed(gc, H, plan, seed=9)
    assert out.ok and _quasi_path(out) == "one-shot+sparse"
    B, targets, (tau, _, _) = seen[-1]
    held = [b for b in B if b in targets]
    assert held and all(tau[b] in targets[b] for b in held)
    assert all(out.embedding.tau[b] == tau[b] for b in B)


def test_a_broken_finish_is_caught_by_the_last_check(monkeypatch):
    # a finish that maps two buffer vertices to one host: EmbedOutcome.success
    # raises UnverifiedOutput (an explicit raise, so also under python -O)
    from transversal import embed
    from transversal.embed import UnverifiedOutput

    real = embed._finish_buffer

    def broken(t, H, phi, B, part, targets, seed):
        tau, sigma, stats = real(t, H, phi, B, part, targets, seed)
        tau[B[0]] = tau[B[1]]
        return tau, sigma, stats

    monkeypatch.setattr(embed, "_finish_buffer", broken)
    t, H, phi = matching_pipeline_fixture(m=2)  # two components: the split is decided
    with pytest.raises(UnverifiedOutput, match="failed verification: .*tau is not injective"):
        transversal_blowup(t, H, phi, None, PLAN, seed=0)


def test_a_pipeline_success_is_verified_against_its_target_sets(monkeypatch):
    # a finish that swaps the images of vertices 0 and 1: every colour joins
    # every cross pair, so the copy stays transversal, but vertex 0 leaves
    # its target set {1}
    from transversal import embed
    from transversal.embed import UnverifiedOutput

    real = embed._finish_buffer

    def swapped(t, H, phi, B, part, targets, seed):
        tau, sigma, stats = real(t, H, phi, B, part, targets, seed)
        tau[0], tau[1] = tau[1], tau[0]
        return tau, sigma, stats

    t, H, phi = matching_pipeline_fixture(m=2)
    assert transversal_blowup(t, H, phi, {0: {1}}, PLAN, seed=0).embedding.tau[0] == 1
    monkeypatch.setattr(embed, "_finish_buffer", swapped)
    with pytest.raises(UnverifiedOutput, match="marked vertex 0 embedded at 0 outside"):
        transversal_blowup(t, H, phi, {0: {1}}, PLAN, seed=0)


def test_target_hosts_outside_the_host_range_are_ignored_by_the_masks():
    # host -1 used to stop blowup_embed and embed_prescribed_colours with
    # "negative shift count"; next to in-range hosts it changes nothing, and
    # alone it leaves a target set that admits no host
    n = 8
    host = SimpleGraph(2 * n, [(u, v) for u in range(n) for v in range(n, 2 * n)])
    clusters = [list(range(n)), list(range(n, 2 * n))]
    H = PatternGraph(4, [(0, 2), (1, 3)])
    runs = [blowup_embed(host, clusters, H, [0, 0, 1, 1], {0: ts}, PLAN, seed=1)
            for ts in ({5, 6}, {-1, 5, 6}, {-1})]
    assert runs[0].ok and runs[1].tau == runs[0].tau and not runs[2].ok
    t = bip_template(8, 10, density=0.9, seed=6, d="0.4")
    H = PatternGraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    outs = [embed_prescribed_colours(t, H, [0, 1] * 4, {0: ts}, {(0, 1): [7]}, PLAN, seed=3)
            for ts in ({1, 2}, {-1, 1, 2})]
    assert outs[0].ok and outs[0].embedding.tau[0] in {1, 2}
    assert (outs[1].embedding.tau, outs[1].embedding.sigma) == (
        outs[0].embedding.tau, outs[0].embedding.sigma)


def test_an_unused_prescribed_colour_is_caught(monkeypatch):
    # every colour joins every cross pair, so moving the prescribed colour 7
    # to a free colour still verifies; the prescription check then raises
    from transversal import embed
    from transversal.embed import UnverifiedOutput

    def skip_seven(run):  # a last step of each attempt
        free = next(c for c in range(10) if c not in run.sigma.values())
        run.sigma = {e: free if c == 7 else c for e, c in run.sigma.items()}

    monkeypatch.setattr(embed, "_PRESCRIBED_STEPS", (*embed._PRESCRIBED_STEPS, skip_seven))
    t = bip_template(8, 10, density=1.0, seed=6, d="0.4")
    H = PatternGraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    with pytest.raises(UnverifiedOutput, match="a prescribed colour was not used"):
        embed_prescribed_colours(t, H, [0, 1] * 4, None, {(0, 1): [7]}, PLAN, seed=3)


def test_prescribed_colour_named_twice_in_one_class_is_prescribed_once():
    # a colour listed twice in one class is prescribed once, on one matching edge
    t = bip_template(8, 10, density=1.0, seed=6, d="0.4")
    H = PatternGraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    out = embed_prescribed_colours(t, H, [0, 1] * 4, None, {(0, 1): [7, 7]}, PLAN, seed=3)
    assert out.ok and out.verification.ok
    assert out.stats["prescribed_used"] == [7] and 7 in out.embedding.sigma.values()


def test_prescribed_refuses_too_few_unprescribed_colours():
    # four of ten colours prescribed leave six, below d * 10 = 7
    t = bip_template(8, 10, density=1.0, seed=6, d="0.7")
    H = PatternGraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    out = embed_prescribed_colours(t, H, [0, 1] * 4, None, {(0, 1): [1, 3, 5, 7]}, PLAN, seed=3)
    f = out.failure
    assert not out.ok and (f.stage, f.reason, f.seed) == ("prescribed", PRECONDITION, 3)
    assert f.diagnostics == {"edge_class": (0, 1), "detail": "too few unprescribed colours"}


# ---------------------------------------------------------------------------
# induced matchings


def induced_matching_ok(H, matching, forbidden):
    """Brute post-predicate: induced, forbidden-avoiding, and every outside
    vertex sees at most one matching edge."""
    mv = {v for e in matching for v in e}
    if mv & forbidden:
        return False
    medges = {tuple(sorted(e)) for e in matching}
    for u in mv:
        for v in mv:
            if u < v and H.has_edge(u, v) and (u, v) not in medges:
                return False
    for y in range(H.n):
        if y in mv:
            continue
        touched = {v for v in H.neighbours(y) if v in mv}
        if not touched:
            continue
        if not any(touched <= set(e) for e in medges):
            return False
    return True


def test_matching_on_perfect_matching_pattern():
    H = PatternGraph(6, [(0, 3), (1, 4), (2, 5)])
    got = find_induced_matching(H, [0, 1, 0, 1, 0, 1], {(0, 1): 1}, seed=0)
    assert not isinstance(got, Failure)
    assert len(got[(0, 1)]) == 1


def test_matching_c8_predicate():
    H = PatternGraph(8, [(i, (i + 1) % 8) for i in range(8)])
    phi = [0, 1] * 4
    got = find_induced_matching(H, phi, {(0, 1): 1}, seed=3)
    flat = [e for es in got.values() for e in es]
    assert induced_matching_ok(H, flat, set())
    # brute scan over all outside vertices
    mv = {v for e in flat for v in e}
    for y in range(8):
        if y in mv:
            continue
        touched = {w for w in H.neighbours(y) if w in mv}
        assert not touched or any(touched <= set(e) for e in flat)


def test_matching_too_small():
    H = PatternGraph(4, [(0, 1), (1, 2), (2, 3)])  # a path: one induced edge max
    got = find_induced_matching(H, [0, 1, 0, 1], {(0, 1): 3}, seed=0)
    assert isinstance(got, Failure) and got.reason == "MatchingTooSmall"


def test_matching_avoids_forbidden():
    H = PatternGraph(6, [(0, 3), (1, 4), (2, 5)])
    got = find_induced_matching(H, [0, 1, 0, 1, 0, 1], {(0, 1): 2}, forbidden={0, 3}, seed=1)
    flat = [e for es in got.values() for e in es]
    assert induced_matching_ok(H, flat, {0, 3})


# ---------------------------------------------------------------------------
# prescribed colours


def test_prescribed_empty_reduces_to_partial():
    t = bip_template(8, 10, density=0.8, seed=4, d="0.4")
    H = PatternGraph(6, [(0, 1), (2, 3), (4, 5)])
    phi = [0, 1, 0, 1, 0, 1]
    out = embed_prescribed_colours(t, H, phi, None, {}, PLAN, seed=5)
    assert out.ok
    assert verify_transversal_embedding(
        t.gc,
        PatternGraph(6, H.edges()),
        out.embedding,
    ).ok
    # with no prescription the run is exactly one candidate-set pass: the
    # direct partial embedding with the derived seed agrees on a fixed seed
    from transversal.embed import _mix

    direct = partial_embed(
        t, H, phi, X=[0, 1, 2, 3, 4, 5], Y=[], targets=None, plan=PLAN,
        seed=_mix(5, 41, 0),
    )
    assert isinstance(direct, PartialEmbedding)
    assert direct.tau == dict(out.embedding.tau)
    assert direct.sigma == dict(out.embedding.sigma)


def test_prescribed_colour_is_used():
    t = bip_template(8, 10, density=0.9, seed=6, d="0.4")
    H = PatternGraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    phi = [0, 1] * 4
    out = embed_prescribed_colours(t, H, phi, None, {(0, 1): [7]}, PLAN, seed=3)
    assert out.ok
    assert 7 in set(out.embedding.sigma.values())


def test_prescribed_empty_colour_graph_rejected():
    rng = random.Random(0)
    edges = {c: [(u, v) for u in range(6) for v in range(6, 12)] for c in range(5)}
    edges[4] = []
    gc = GraphCollection(12, 5, edges)
    t = make_template([range(6), range(6, 12)], {(0, 1): range(5)}, gc, d="0.5", eps="0.05",
                      m=6, rainbow=True, klass="super")
    H = PatternGraph(4, [(0, 1), (2, 3)])
    out = embed_prescribed_colours(t, H, [0, 1, 0, 1], None, {(0, 1): [4]}, PLAN, seed=0)
    assert not out.ok
    assert out.failure.reason == "PreconditionViolated"


# ---------------------------------------------------------------------------
# blow-up embedder


def test_blowup_complete_host_spanning():
    n = 12
    host = SimpleGraph(2 * n, [(u, v) for u in range(n) for v in range(n, 2 * n)])
    H = PatternGraph(2 * n, [(i, n + i) for i in range(n)] + [(n + i, (i + 1) % n) for i in range(n)])
    phi = [0] * n + [1] * n
    res = blowup_embed(host, [list(range(n)), list(range(n, 2 * n))], H, phi, None, PLAN, seed=0)
    assert res.ok and res.verified
    for (u, v) in H.edges():
        assert host.has_edge(res.tau[u], res.tau[v])


def test_blowup_respects_targets():
    n = 8
    host = SimpleGraph(2 * n, [(u, v) for u in range(n) for v in range(n, 2 * n)])
    H = PatternGraph(4, [(0, 2), (1, 3)])
    res = blowup_embed(
        host, [list(range(n)), list(range(n, 2 * n))], H, [0, 0, 1, 1],
        {0: {5}, 2: {9, 10}}, PLAN, seed=1,
    )
    assert res.ok
    assert res.tau[0] == 5 and res.tau[2] in {9, 10}


def test_blowup_isolated_host_vertex_fails_spanning():
    n = 6
    edges = [(u, v) for u in range(n) for v in range(n, 2 * n) if u != 0]
    host = SimpleGraph(2 * n, edges)
    H = PatternGraph(2 * n, [(i, n + i) for i in range(n)])  # perfect matching
    phi = [0] * n + [1] * n
    plan = SplitPlan(blowup_restarts=6)
    res = blowup_embed(host, [list(range(n)), list(range(n, 2 * n))], H, phi, None, plan, seed=2)
    assert not res.ok
    assert res.failure.reason == "EmbeddingFailed"


def test_blowup_corrupted_output_raises_without_asserts(monkeypatch):
    # an explicit check, so it also fires under python -O
    from transversal import embed

    monkeypatch.setattr(embed, "max_bipartite_matching", lambda adj: {b: 0 for b in adj})
    n = 12
    host = SimpleGraph(2 * n, [(u, v) for u in range(n) for v in range(n, 2 * n)])
    H = PatternGraph(2 * n, [(i, n + i) for i in range(n)])
    with pytest.raises(embed.UnverifiedOutput):
        blowup_embed(host, [list(range(n)), list(range(n, 2 * n))], H,
                     [0] * n + [1] * n, None, PLAN, seed=0)


def _blowup_with_bad_completion(monkeypatch, extras_adjacent, targets):
    # the stubbed matching sends every buffer vertex to its own extra host
    # vertex, outside both clusters: injective, but only adjacent to the
    # clusters when ``extras_adjacent``
    import itertools

    from transversal import embed

    n = 12
    extras = itertools.count(2 * n)
    monkeypatch.setattr(embed, "max_bipartite_matching",
                        lambda adj: {b: next(extras) for b in adj})
    edges = [(u, v) for u in range(n) for v in range(n, 2 * n)]
    if extras_adjacent:
        edges += [(u, w) for u in range(2 * n) for w in range(2 * n, 4 * n)]
    host = SimpleGraph(4 * n, edges)
    H = PatternGraph(2 * n, [(i, n + i) for i in range(n)])
    blowup_embed(host, [list(range(n)), list(range(n, 2 * n))], H,
                 [0] * n + [1] * n, targets, PLAN, seed=0)


def test_blowup_completion_onto_a_non_edge_raises(monkeypatch):
    from transversal.embed import UnverifiedOutput

    with pytest.raises(UnverifiedOutput, match="blow-up produced a non-edge"):
        _blowup_with_bad_completion(monkeypatch, extras_adjacent=False, targets=None)


def test_blowup_completion_outside_a_target_set_raises(monkeypatch):
    from transversal.embed import UnverifiedOutput

    # each pattern vertex's target is its whole cluster, so only the stub leaves it
    targets = {v: set(range(12)) if v < 12 else set(range(12, 24)) for v in range(24)}
    with pytest.raises(UnverifiedOutput, match="blow-up left a target set"):
        _blowup_with_bad_completion(monkeypatch, extras_adjacent=True, targets=targets)


def test_blowup_with_more_pattern_vertices_than_hosts_fails_typed():
    host = SimpleGraph(5, [(u, v) for u in range(2) for v in range(2, 5)])
    H = PatternGraph(6, [(i, 3 + i) for i in range(3)])
    res = blowup_embed(host, [[0, 1], [2, 3, 4]], H, [0] * 3 + [1] * 3, None, PLAN, seed=0)
    assert not res.ok and res.failure.stage == "blowup"
    assert res.failure.reason == PRECONDITION
    assert res.failure.diagnostics == {"cluster": 0, "detail": "3 pattern vertices > 2 hosts"}


def test_blowup_deterministic():
    rng = random.Random(8)
    host = SimpleGraph(24, [(u, v) for u in range(12) for v in range(12, 24) if rng.random() < 0.7])
    H = PatternGraph(24, [(i, 12 + i) for i in range(12)])
    phi = [0] * 12 + [1] * 12
    a = blowup_embed(host, [list(range(12)), list(range(12, 24))], H, phi, None, PLAN, seed=5)
    b = blowup_embed(host, [list(range(12)), list(range(12, 24))], H, phi, None, PLAN, seed=5)
    assert a.ok == b.ok
    if a.ok:
        assert a.tau == b.tau


def _reference_blowup_embed(host, clusters, H, phi, targets, plan, seed=0, active=None):
    # the per-restart blow-up embedder, kept as the reference: every restart
    # builds its own set-up and every restart of the budget runs
    from transversal.core import bits_of, pick_bit
    from transversal.embed import (
        EMBEDDING_FAILED, BlowupResult, UnverifiedOutput, _retry, max_bipartite_matching,
    )

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
        cand = cluster_masks[phi[v]] & ~used
        if v in targets:
            cand &= mask_of(targets[v])
        for w in H.neighbours(v):
            if w in tau:
                cand &= host.adj(tau[w])
        return cand

    def attempt(sub_seed, restart):
        rng = random.Random(sub_seed)
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
        tau: dict[int, int] = {}
        used = 0
        for v in reversed(elim):
            cand = candidates(v, tau, used)
            if not cand:
                return Failure("blowup", EMBEDDING_FAILED, seed, restart=restart, phase="greedy")
            pick = pick_bit(rng, cand)
            tau[v] = pick
            used |= 1 << pick
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
    if len(set(tau.values())) != len(tau):
        raise UnverifiedOutput("blow-up map is not injective")
    for (u, v) in H.edges_within(active):
        if not host.has_edge(tau[u], tau[v]):
            raise UnverifiedOutput("blow-up produced a non-edge")
    if any(tau[v] not in T for v, T in targets.items()):
        raise UnverifiedOutput("blow-up left a target set")
    return BlowupResult(tau=tau, failure=None, restarts=attempts - 1, verified=True)


def _random_blowup_case(rng):
    # r clusters of 1-7 hosts each, a pattern filling part of each, a host
    # whose cluster pairs have density 0 (no restart can succeed), sparse,
    # dense or complete, and targets on some vertices
    r = rng.randint(1, 4)
    sizes = [rng.randint(1, 7) for _ in range(r)]
    starts = [sum(sizes[:i]) for i in range(r)]
    clusters = [list(range(s, s + k)) for s, k in zip(starts, sizes)]
    n_host = sum(sizes) + rng.randint(0, 3)  # hosts outside every cluster too
    density = {(i, j): rng.choice((0.0, 0.3, 0.7, 1.0)) for i in range(r) for j in range(i, r)}
    host = SimpleGraph(n_host, [
        (u, v) for i in range(r) for j in range(i, r) for u in clusters[i] for v in clusters[j]
        if u < v and rng.random() < density[(i, j)]
    ])
    phi = [i for i in range(r) for _ in range(rng.randint(0, sizes[i]))]
    rng.shuffle(phi)
    n = len(phi)
    H = PatternGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < 0.3])
    active = None if rng.random() < 0.5 else {v for v in range(n) if rng.random() < 0.8}
    targets = {v: set(rng.sample(range(n_host), rng.randint(1, n_host)))
               for v in range(n) if rng.random() < 0.3}
    return host, clusters, H, phi, targets or None, active


def _blowup_fields(res):
    f = res.failure
    failure = None if f is None else (f.stage, f.reason, f.seed, f.diagnostics)
    return res.tau, failure, res.restarts, res.verified


@pytest.mark.parametrize("restarts, reserve", [(0, 0.25), (1, 0.25), (1, 0.5), (3, 0.4),
                                               (30, 0.25), (30, 0.5)])
def test_blowup_matches_the_per_restart_reference(restarts, reserve):
    import types

    # SplitPlan refuses a budget of 0, which blowup_embed still honours
    plan = types.SimpleNamespace(blowup_restarts=restarts, blowup_reserve=reserve)
    rng = random.Random(restarts * 100 + int(reserve * 100))
    seen = set()
    for case in range(150):
        host, clusters, H, phi, targets, active = _random_blowup_case(rng)
        seed = rng.randrange(1 << 30)
        got = blowup_embed(host, clusters, H, phi, targets, plan, seed=seed, active=active)
        want = _reference_blowup_embed(host, clusters, H, phi, targets, plan, seed=seed,
                                       active=active)
        assert _blowup_fields(got) == _blowup_fields(want), case
        inside = set(range(H.n)) if active is None else active
        reach = [mask_of(w for u in cl for w in host.neighbours(u)) for cl in clusters]
        seen.add(want.failure.diagnostics.get("phase") if want.failure else "ok")
        if any(not reach[phi[u]] & mask_of(clusters[phi[v]]) for u, v in H.edges_within(inside)):
            seen.add("hopeless")
        if targets and inside & set(targets):
            seen.add("targets")
        if any(int(reserve * sum(phi[v] == i for v in inside)) for i in range(len(clusters))):
            seen.add("reserve")
        if inside and all(len(clusters[phi[v]]) == 1 for v in inside):
            seen.add("forced")
    # every failing phase, a call no restart can help, targets, a reserve and
    # a forced call (one active vertex and one host in each cluster used)
    runs = {"ok", "greedy", "matching"} if restarts else {None}
    assert seen == runs | {"hopeless", "targets", "reserve", "forced"}


def test_a_hopeless_blowup_call_seeds_one_generator(monkeypatch):
    import types

    from transversal import embed

    seeded = []

    class Counted(random.Random):
        def __init__(self, x):
            seeded.append(x)
            super().__init__(x)

    def run(host, targets=None):
        seeded.clear()
        with monkeypatch.context() as m:
            m.setattr(embed, "random", types.SimpleNamespace(Random=Counted))
            got = blowup_embed(host, clusters, H, phi, targets, PLAN, seed=9)
        assert _blowup_fields(got) == _blowup_fields(
            _reference_blowup_embed(host, clusters, H, phi, targets, PLAN, seed=9))
        assert not got.ok and got.restarts == PLAN.blowup_restarts
        return got

    # clusters 0 and 1 are dense between them; no host edge reaches cluster 2
    clusters = [list(range(4)), list(range(4, 8)), list(range(8, 12))]
    H = PatternGraph(6, [(0, 2), (1, 3), (4, 5)])
    phi = [0, 0, 1, 1, 1, 2]
    dense = [(u, v) for u in range(4) for v in range(4, 8)]
    got = run(SimpleGraph(12, dense))
    assert seeded == [_mix(9, 53, PLAN.blowup_restarts - 1)]
    assert got.failure.diagnostics["restart"] == PLAN.blowup_restarts - 1
    # with one host edge from cluster 1 to cluster 2, a target set outside
    # that edge still fails every restart, but the budget runs in full
    run(SimpleGraph(12, dense + [(7, 11)]), targets={5: {10}})
    assert seeded == [_mix(9, 53, k) for k in range(PLAN.blowup_restarts)]


@pytest.mark.parametrize("clusters, host_edges, targets, restarts, seeds", [
    # the forced map 0 -> 0, 1 -> 1, 2 -> 2 passes the check: no restart, no draw
    ([[0], [1], [2]], [(0, 1), (1, 2)], {1: {1, 3}}, 30, 0),
    # the pattern edge 12 has no host edge, so only the last restart runs
    ([[0], [1], [2]], [(0, 1)], None, 30, 1),
    # the target set of vertex 1 excludes its only host
    ([[0], [1], [2]], [(0, 1), (1, 2)], {1: {3}}, 30, 30),
    # clusters 0 and 2 share their host, so the forced map is not injective
    ([[0], [1], [0]], [(0, 1)], None, 30, 30),
    # a valid forced map, but a budget of no restart
    ([[0], [1], [2]], [(0, 1), (1, 2)], None, 0, 0),
], ids=["forced-success", "missing-host-edge", "target-excludes-host", "shared-host",
        "no-restart-budget"])
def test_a_forced_blowup_call(monkeypatch, clusters, host_edges, targets, restarts, seeds):
    import types

    from transversal import embed

    seeded = []

    class Counted(random.Random):
        def __init__(self, x):
            seeded.append(x)
            super().__init__(x)

    # a path on three clusters of one host each; host 3 lies outside them
    host = SimpleGraph(4, host_edges)
    H, phi = PatternGraph(3, [(0, 1), (1, 2)]), [0, 1, 2]
    plan = types.SimpleNamespace(blowup_restarts=restarts, blowup_reserve=PLAN.blowup_reserve)
    with monkeypatch.context() as m:
        m.setattr(embed, "random", types.SimpleNamespace(Random=Counted))
        got = blowup_embed(host, clusters, H, phi, targets, plan, seed=9)
    assert _blowup_fields(got) == _blowup_fields(
        _reference_blowup_embed(host, clusters, H, phi, targets, plan, seed=9))
    assert len(seeded) == seeds
    if seeds == 0 and restarts:
        assert got.ok and got.verified and got.restarts == 0
        assert got.tau == {0: 0, 1: 1, 2: 2}
    else:
        assert not got.ok and got.restarts == restarts


# ---------------------------------------------------------------------------
# absorbers


def dense_incidence_template(n_pairs=6, k=14, density=0.8, seed=3):
    pairs = [(i, 10 + i) for i in range(n_pairs)]
    rng = random.Random(seed)
    edges = {c: [e for e in pairs if rng.random() < density] for c in range(k)}
    gc = GraphCollection(20, k, edges)
    t = make_template([range(10), range(10, 20)], {(0, 1): range(k)}, gc, d="0.5", eps="0.1",
                      m=10, rainbow=True)
    return t, pairs


def test_absorber_exhaustive_flexibility():
    t, pairs = dense_incidence_template()
    ab = build_absorber(t, {(0, 1): pairs}, PLAN, seed=1,
                        l_sizes={(0, 1): 2}, b_sizes={(0, 1): 8})
    assert not isinstance(ab, Failure)
    ent = ab.per_edge[(0, 1)]
    assert len(ent.A) == len(pairs) - 2 and len(ent.B) == 8
    assert set(ent.A).isdisjoint(ent.B)
    assert ent.verified == "exhaustive" and ent.subsets_checked == 28
    for B0 in combinations(ent.B, 2):
        assert ab.matching_for(t.gc, (0, 1), B0) is not None


def test_flexibility_check_rejects_a_sampled_subset():
    # z0 = (0, 2) has colours 1 and 2, z1 = (1, 3) only colour 0 = A, so of
    # the 1-subsets of B = [1, 2, 3] only {3} leaves z0 unmatched
    gc = GraphCollection(4, 4, {0: [(1, 3)], 1: [(0, 2)], 2: [(0, 2)], 3: []})
    Z = [(0, 2), (1, 3)]
    assert _flexibility_check(gc, Z, [0], [1, 2, 3], 1, 10, 200, random.Random(0)) == (
        False, "exhaustive", 3)
    # cap 0 samples; the first draw of {3} is the 5th at seed 0, the 2nd at seed 1
    for seed, count in ((0, 5), (1, 2)):
        assert _flexibility_check(gc, Z, [0], [1, 2, 3], 1, 0, 200, random.Random(seed)) == (
            False, "sampled", count)
    assert _flexibility_check(gc, Z, [0], [1, 2], 1, 0, 200, random.Random(0)) == (
        True, "sampled", 200)


def test_absorber_l_zero_is_distinct_colour_system():
    t, pairs = dense_incidence_template(seed=5)
    ab = build_absorber(t, {(0, 1): pairs}, PLAN, seed=2,
                        l_sizes={(0, 1): 0}, b_sizes={(0, 1): 4})
    ent = ab.per_edge[(0, 1)]
    assert len(ent.A) == len(pairs)
    m = ab.matching_for(t.gc, (0, 1), ())
    assert m is not None and len(set(m.values())) == len(pairs)


def test_absorber_complete_incidence_any_split_works():
    t, pairs = dense_incidence_template(density=1.0, seed=7)
    ab = build_absorber(t, {(0, 1): pairs}, PLAN, seed=3,
                        l_sizes={(0, 1): 3}, b_sizes={(0, 1): 6})
    ent = ab.per_edge[(0, 1)]
    assert ent.verified == "exhaustive"
    assert ent.subsets_checked == 20


@pytest.mark.parametrize("l_size, b_size", [(1, 15), (0, 10)])
def test_absorber_refuses_a_colour_pool_too_small(l_size, b_size):
    # 14 colours: B cannot hold 15, and A (|Z| - l = 6) does not fit beside
    # a B of 10
    t, pairs = dense_incidence_template()
    f = build_absorber(t, {(0, 1): pairs}, PLAN, seed=4,
                       l_sizes={(0, 1): l_size}, b_sizes={(0, 1): b_size})
    assert (f.stage, f.reason, f.seed) == ("absorber", PRECONDITION, 4)
    assert f.diagnostics == {"edge_class": (0, 1),
                             "detail": "colour pool too small for the requested A and B sizes"}


# ---------------------------------------------------------------------------
# approx embedding (extra colours)


def four_cycles_fixture(k_extra=8):
    n = 24
    edges_all = [(u, v) for u in range(12) for v in range(12, 24)]
    K = 24 + k_extra
    gc = GraphCollection(n, K, {c: edges_all for c in range(K)})
    t = make_template([range(12), range(12, 24)], {(0, 1): range(K)}, gc, d="0.7", eps="0.05",
                      m=12, rainbow=True, klass="semi-super")
    edges = []
    for k in range(6):
        a, b = 2 * k, 2 * k + 1
        c, d = 12 + 2 * k, 12 + 2 * k + 1
        edges += [(a, c), (c, b), (b, d), (d, a)]
    H = PatternGraph(24, edges)
    phi = [0] * 12 + [1] * 12
    return t, H, phi, K


def test_approx_four_cycles_with_surplus():
    t, H, phi, K = four_cycles_fixture()
    out = approx_embed(t, H, phi, None, PLAN, seed=0, beta=0.2)
    assert out.ok
    used = set(out.embedding.sigma.values())
    assert len(used) == 24 and K - len(used) == 8


def test_approx_empty_pattern():
    t, H, phi, K = four_cycles_fixture()
    out = approx_embed(t, PatternGraph(24, []), phi, None, PLAN, seed=1, beta=0.0)
    assert out.ok and not out.embedding.sigma
    # all vertices placed
    assert len(out.embedding.tau) == 24


def test_approx_chunk_bounds_recorded():
    t, H, phi, K = four_cycles_fixture()
    out = approx_embed(t, H, phi, None, PLAN, seed=2, beta=0.2)
    ch = out.stats["chunks"]
    m = 12
    delta_h = max(1, H.max_degree)
    r = 2
    if ch["s"] >= 1:
        for i, row in enumerate(ch["b"][:-1]):
            for bij in row:
                assert ch["gamma_floor"] <= bij <= 2 * (delta_h + 1) ** (2 * r - 2) * ch["gamma_floor"]
        assert ch["s"] <= max(1, round(1 / (0.5 * (PLAN.gamma))))


def test_approx_surplus_precondition():
    t, H, phi, K = four_cycles_fixture(k_extra=0)
    out = approx_embed(t, H, phi, None, PLAN, seed=0, beta=0.5)
    assert not out.ok and out.failure.reason == "PreconditionViolated"


@pytest.mark.parametrize("entry, stage", [(approx_embed, "approx"),
                                          (transversal_blowup, "pipeline")])
def test_rainbow_stages_refuse_a_template_that_is_not_rainbow(entry, stage):
    t, H, phi = matching_pipeline_fixture(m=4)
    out = entry(dataclasses.replace(t, rainbow=False), H, phi, None, PLAN, seed=2)
    f = out.failure
    assert not out.ok and (f.stage, f.reason, f.seed) == (stage, PRECONDITION, 2)
    assert f.diagnostics == {"detail": "template must be rainbow"}


def test_approx_vertex_partition_sizes_are_an_identity(monkeypatch):
    # the sizes hold whenever the chunks cover every component, so only a
    # chunking that drops one (a library defect) reaches the check
    from transversal import embed

    real = embed._chunk_components
    monkeypatch.setattr(embed, "_chunk_components",
                        lambda *args: (lambda b0, rounds: (b0[:-1], rounds))(*real(*args)))
    t, H, phi, K = four_cycles_fixture()
    with pytest.raises(embed.UnverifiedOutput, match="vertex partition sizes"):
        approx_embed(t, H, phi, None, PLAN, seed=0, beta=0.2)


def test_approx_buffer_sizing_is_an_identity(monkeypatch):
    # lo <= hi is h_e <= |C_e|, which the entry check holds, so only a
    # template that loses colours after that check reaches it
    from transversal import embed

    t, H, phi, K = four_cycles_fixture()
    real = embed._chunk_components

    def shrinking(*args):
        t.colour_clusters[(0, 1)] = t.colour_clusters[(0, 1)][:10]
        return real(*args)

    monkeypatch.setattr(embed, "_chunk_components", shrinking)
    with pytest.raises(embed.UnverifiedOutput, match="buffer sizing"):
        approx_embed(t, H, phi, None, PLAN, seed=0, beta=0.2)


def _reference_chunk_components(comps, phi, r, sizes, mu_floor, gamma_floor, q_stop):
    # the reference: each t's suffix summed afresh, O(t^2 r)
    from transversal.embed import _chunk_components

    tcomp = len(comps)
    a = [[sum(phi[v] == j for v in comp) for j in range(r)] for comp in comps]
    tstar = 0
    for t in range(tcomp, -1, -1):
        suf = [sum(a[h][j] for h in range(t, tcomp)) for j in range(r)]
        if all(suf[j] >= mu_floor for j in range(r)):
            tstar = t
            break
    # the rounds after t* are the same code: cut the components at t*
    b0, rounds = _chunk_components(comps[:tstar], phi, r, sizes, -1, gamma_floor, q_stop)
    return list(range(tstar, tcomp)), rounds


def test_chunk_components_matches_the_per_suffix_reference():
    from transversal.embed import _chunk_components

    rng = random.Random(5)
    for _ in range(300):
        r = rng.randint(1, 4)
        comps = [[rng.randrange(60) for _ in range(rng.randint(1, 5))]
                 for _ in range(rng.randint(0, 25))]
        phi = [rng.randrange(r) for _ in range(60)]
        sizes = [rng.randint(5, 40) for _ in range(r)]
        args = (r, sizes, rng.randint(0, 12), rng.randint(1, 6), rng.randint(0, 20))
        assert _chunk_components(comps, phi, *args) == \
            _reference_chunk_components(comps, phi, *args)


def _ladder_pattern(m):
    return PatternGraph(2 * m, [(i, i + 1) for i in range(m - 1)]
                        + [(m + i, m + i + 1) for i in range(m - 1)]
                        + [(i, m + i) for i in range(m)])


@pytest.mark.parametrize("name", ["matching", "ladder-mu-0.3", "ladder-mu-0.1", "random",
                                  "random-part"])
def test_blowup_setup_matches_the_per_component_reference(name):
    from collections import Counter

    from transversal.embed import _blowup_setup, _class_edges

    rng = random.Random(name)
    plan = PLAN
    if name == "matching":
        H, phi = PatternGraph(60, [(i, 30 + i) for i in range(30)]), [0] * 30 + [1] * 30
    elif name.startswith("ladder"):
        m = 30
        H, phi = _ladder_pattern(m), [(v % m + v // m) % 2 for v in range(2 * m)]
        plan = SplitPlan(mu=float(name.rsplit("-", 1)[1]))
    else:
        H = PatternGraph(50, [(u, v) for u in range(50) for v in range(u + 1, 50)
                              if rng.random() < 0.06])
        phi = [rng.randrange(3) for _ in range(50)]
    active = set(range(H.n)) if name != "random-part" else set(rng.sample(range(H.n), 35))
    keys = sorted(_class_edges(H, phi, range(H.n)))
    setup = _blowup_setup(H, phi, active, plan, keys)
    if name in ("matching", "ladder-mu-0.3"):  # X is empty on a matching, not on a ladder
        assert bool(setup.X) == (name != "matching")
    outside = active.difference(setup.X)
    assert setup.comps == H.components(outside)
    want_e = _class_edges(H, phi, active)
    assert list(setup.class_e.items()) == list(want_e.items())
    want = [Counter(_class_key(phi, u, v) for (u, v) in H.edges_within(comp))
            for comp in setup.comps]
    assert [list(c.items()) for c in setup.class_of_comp] == [list(c.items()) for c in want]


# ---------------------------------------------------------------------------
# the transversal blow-up pipeline


def matching_pipeline_fixture(m=24, density=1.0, seed=0):
    n = 2 * m
    rng = random.Random(seed)
    edges = {
        c: [
            (u, v) for u in range(m) for v in range(m, n) if rng.random() < density
        ]
        for c in range(m)
    }
    gc = GraphCollection(n, m, edges)
    t = make_template([range(m), range(m, n)], {(0, 1): range(m)}, gc,
                      d="0.6" if density < 1 else "0.8", eps="0.05", m=m, rainbow=True,
                      klass="super")
    H = PatternGraph(n, [(i, m + i) for i in range(m)])
    phi = [0] * m + [1] * m
    return t, H, phi


def test_pipeline_perfect_matching_complete():
    t, H, phi = matching_pipeline_fixture()
    out = transversal_blowup(t, H, phi, None, PLAN, seed=0)
    assert out.ok
    # colour conservation: sigma is a bijection onto the colour set
    assert sorted(out.embedding.sigma.values()) == list(range(24))


def test_pipeline_leftover_identity():
    t, H, phi = matching_pipeline_fixture()
    out = transversal_blowup(t, H, phi, None, PLAN, seed=3)
    assert out.ok
    if "leftover" in out.stats:  # main pipeline path
        for key, leftover in out.stats["leftover"].items():
            assert leftover == out.stats["l_sizes"][key]


def test_pipeline_union_of_paths_seeded():
    m = 24
    n = 2 * m
    edges = []
    for k in range(12):
        a, b = 2 * k, 2 * k + 1
        ap, bp = m + 2 * k, m + 2 * k + 1
        edges += [(a, ap), (ap, b), (b, bp)]
    H = PatternGraph(n, edges)
    phi = [0] * m + [1] * m
    K = len(edges)
    rng = random.Random(17)
    gedges = {
        c: [(u, v) for u in range(m) for v in range(m, n) if rng.random() < 0.7]
        for c in range(K)
    }
    gc = GraphCollection(n, K, gedges)
    t = make_template([range(m), range(m, n)], {(0, 1): range(K)}, gc, d="0.4", eps="0.05",
                      m=m, rainbow=True, klass="super")
    out = transversal_blowup(t, H, phi, None, PLAN, seed=4)
    assert out.ok
    assert sorted(out.embedding.sigma.values()) == list(range(K))
    # oracle spot-check on a shrunken instance of the same make
    small_gc = GraphCollection(
        8, 4, {c: [(u, v) for u in range(4) for v in range(4, 8)] for c in range(4)}
    )
    small_H = PatternGraph(8, [(0, 4), (4, 1), (1, 5), (2, 6), (6, 3), (3, 7)][:4])
    assert exact_transversal_embed(small_gc, small_H).feasible


def test_pipeline_class_count_mismatch_rejected():
    t, H, phi = matching_pipeline_fixture()
    H_bad = PatternGraph(48, H.edges()[:-1])
    out = transversal_blowup(t, H_bad, phi, None, PLAN, seed=0)
    assert not out.ok and out.failure.reason == "PreconditionViolated"


def test_pipeline_unfilled_cluster_rejected():
    t, H, phi = matching_pipeline_fixture()
    phi = [1] + phi[1:]  # cluster 0 gets 23 pattern vertices for its 24 hosts
    f = transversal_blowup(t, H, phi, None, PLAN, seed=0).failure
    assert (f.stage, f.reason) == ("pipeline", PRECONDITION)
    assert f.diagnostics == {"cluster": 0, "detail": "pattern must fill every cluster exactly"}


def test_pipeline_edge_class_outside_r_rejected():
    t, H, phi = matching_pipeline_fixture()
    # an edge inside cluster 0 is of class (0, 0), which R lacks; class (0, 1) still fits
    H = PatternGraph(48, H.edges() + ((0, 1),))
    f = transversal_blowup(t, H, phi, None, PLAN, seed=0).failure
    assert (f.stage, f.reason) == ("pipeline", PRECONDITION)
    assert f.diagnostics == {"edge_class": (0, 0), "detail": "pattern edge class outside R"}


def test_pipeline_deterministic():
    t, H, phi = matching_pipeline_fixture(density=0.8, seed=2)
    a = transversal_blowup(t, H, phi, None, PLAN, seed=11)
    b = transversal_blowup(t, H, phi, None, PLAN, seed=11)
    assert a.ok == b.ok
    if a.ok:
        assert a.embedding.tau == b.embedding.tau
        assert a.embedding.sigma == b.embedding.sigma


# ---------------------------------------------------------------------------
# quasi pipeline


def test_quasi_empty_pattern():
    gc = random_collection(GenSpec(n=8, n_colours=1, density=1.0, seed=0))
    H = PatternGraph(5, [])
    out = quasi_embed(gc, H, PLAN, seed=0)
    assert not out.ok  # |C| != e(H) = 0 is a hard precondition
    gc0 = GraphCollection(8, 0)
    out0 = quasi_embed(gc0, H, PLAN, seed=0)
    assert out0.ok and len(out0.embedding.tau) == 5


def test_quasi_perfect_matching_complete():
    gc = random_collection(GenSpec(n=12, n_colours=6, density=1.0, seed=1))
    H = PatternGraph(12, [(2 * i, 2 * i + 1) for i in range(6)])
    out = quasi_embed(gc, H, PLAN, seed=0)
    assert out.ok
    assert exact_transversal_embed(gc, H).feasible


def test_quasi_colour_split_sizing():
    gc = random_collection(GenSpec(n=24, n_colours=24, density=0.85, seed=3))
    edges = []
    for k in range(6):
        b = 4 * k
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b)]
    H = PatternGraph(24, edges)
    out = quasi_embed(gc, H, PLAN, seed=1)
    assert out.ok
    if "colour_split_sizes" in out.stats:
        # sum over classes of the split sizes equals |C| minus the colours
        # consumed by the sparse-pair phase (i.e. e(H) - e(H^<)), exactly
        total = sum(out.stats["colour_split_sizes"].values())
        assert total == out.stats["colours_total"] - out.stats["e_sparse"]


def test_quasi_precondition_failures_reported():
    gc = random_collection(GenSpec(n=10, n_colours=4, density=1.0, seed=0))
    H = PatternGraph(10, [(0, 1), (2, 3), (4, 5)])
    out = quasi_embed(gc, H, PLAN, seed=0)
    assert not out.ok and out.failure.reason == "PreconditionViolated"


def test_quasi_pattern_larger_than_host_rejected():
    gc = random_collection(GenSpec(n=4, n_colours=2, density=1.0, seed=0))
    H = PatternGraph(6, [(0, 1), (2, 3)])  # |C| = e(H), but 6 pattern vertices for 4 hosts
    f = quasi_embed(gc, H, PLAN, seed=0).failure
    assert (f.stage, f.reason) == ("quasi", PRECONDITION)
    assert f.diagnostics == {"detail": "pattern too large"}


@pytest.mark.parametrize("pipeline, n, edges", [
    ("quasi", 20, [(2 * i, 2 * i + 1) for i in range(10)]),
    ("expand", 4, [(i, (i + 1) % 4) for i in range(4)]),
    ("expand", 3, []),
], ids=["quasi-matching", "expand-c4", "expand-edgeless"])
def test_a_pattern_with_target_sets_is_refused_before_any_draw(monkeypatch, pipeline, n, edges):
    # no step of either pipeline honours H.targets: quasi_embed would build
    # an embedding that its check against them rejects, and expand_embed_3graph
    # one that ignores them
    import types

    from transversal import embed

    def no_draw(seed):
        raise AssertionError(f"a draw with seed {seed}")

    monkeypatch.setattr(embed, "random", types.SimpleNamespace(Random=no_draw))
    H = PatternGraph(n, edges, targets={0: [5]})
    if pipeline == "quasi":
        gc = random_collection(GenSpec(n=20, n_colours=10, density=1.0, seed=1))
        out = quasi_embed(gc, H, PLAN, seed=1)
    else:
        out = expand_embed_3graph(ThreeGraph(16, list(combinations(range(16), 3))), H, PLAN,
                                  seed=1)
    f = out.failure
    assert not out.ok and (f.stage, f.reason, f.seed) == (pipeline, PRECONDITION, 1)
    assert f.diagnostics == {"detail": "target sets are not supported by this pipeline"}


# ---------------------------------------------------------------------------
# 1-expansion pipeline


def test_expand_single_edge_complete_8():
    g = ThreeGraph(8, list(combinations(range(8), 3)))
    H = PatternGraph(2, [(0, 1)])
    out = expand_embed_3graph(g, H, PLAN, seed=0)
    assert out.ok
    tr = tuple(sorted((out.vertex_images[0], out.vertex_images[1], out.edge_images[(0, 1)])))
    assert tr in g.edges


def test_expand_c4_uses_eight_distinct_vertices():
    g = ThreeGraph(8, list(combinations(range(8), 3)))
    H = PatternGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    out = expand_embed_3graph(g, H, PLAN, seed=1)
    assert out.ok
    imgs = list(out.vertex_images.values()) + list(out.edge_images.values())
    assert len(set(imgs)) == 8


def test_expand_triples_verified_against_host():
    rng = random.Random(5)
    tris = [t for t in combinations(range(24), 3) if rng.random() < 0.5]
    g = ThreeGraph(24, tris)
    H = PatternGraph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    out = expand_embed_3graph(g, H, PLAN, seed=2)
    assert out.ok
    for (u, v) in H.edges():
        tr = tuple(sorted((out.rho(u), out.rho(v), out.rho((u, v)))))
        assert tr in g.edges


def _swap_two_images(monkeypatch):
    """Make quasi_embed hand back an embedding with two vertex images equal."""
    from transversal import embed

    real = embed.quasi_embed

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        tau = dict(out.embedding.tau)
        tau[1] = tau[0]
        return embed.EmbedOutcome(
            embedding=embed.TransversalEmbedding(tau=tau, sigma=out.embedding.sigma),
            failure=None, verification=out.verification, stats=out.stats,
        )

    monkeypatch.setattr(embed, "quasi_embed", corrupted)


def test_expand_corrupted_output_raises_without_asserts(monkeypatch):
    from transversal.embed import UnverifiedOutput

    _swap_two_images(monkeypatch)
    g = ThreeGraph(8, list(combinations(range(8), 3)))
    with pytest.raises(UnverifiedOutput):
        expand_embed_3graph(g, PatternGraph(2, [(0, 1)]), PLAN, seed=0)


def test_corrupted_output_checks_survive_python_O():
    """The two tests above, rerun by an interpreter that strips asserts."""
    import os
    import pathlib
    import subprocess
    import sys

    import transversal

    pkg_parent = str(pathlib.Path(transversal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [pkg_parent, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         __file__, "-k", "corrupted_output_raises"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and "2 passed" in proc.stdout, proc.stdout + proc.stderr


def test_expand_checks_its_own_output(monkeypatch):
    from transversal import embed
    from transversal.core import VerificationReport
    from transversal.embed import UnverifiedOutput

    monkeypatch.setattr(embed, "verify_expansion",
                        lambda *args: VerificationReport(ok=False, violations=("stub",)))
    g = ThreeGraph(8, list(combinations(range(8), 3)))
    with pytest.raises(UnverifiedOutput, match=r"expansion failed verification: \('stub',\)"):
        expand_embed_3graph(g, PatternGraph(2, [(0, 1)]), PLAN, seed=0)


def test_expand_checks_its_edgeless_output(monkeypatch):
    # the edgeless pattern's random sample of hosts goes through the same
    # explicit check as the pipeline's output
    from transversal import embed
    from transversal.core import VerificationReport
    from transversal.embed import UnverifiedOutput

    monkeypatch.setattr(embed, "verify_expansion",
                        lambda *args: VerificationReport(ok=False, violations=("stub",)))
    g = ThreeGraph(8, list(combinations(range(8), 3)))
    with pytest.raises(UnverifiedOutput, match=r"expansion failed verification: \('stub',\)"):
        expand_embed_3graph(g, PatternGraph(3, []), PLAN, seed=0)


def test_expand_padding_that_needs_more_hosts_is_refused():
    # one edge and 9 isolated vertices fit 12 hosts, but e > 12/4 - 1 takes
    # two pads of isolates: 6 touched vertices, 3 edges and 5 isolates left
    g = ThreeGraph(12, list(combinations(range(12), 3)))
    f = expand_embed_3graph(g, PatternGraph(11, [(0, 1)]), PLAN, seed=0).failure
    assert (f.stage, f.reason) == ("expand", PADDING_IMPOSSIBLE)
    assert f.diagnostics == {"detail": "padding needs 14 > 12 host vertices",
                             "padded_edges": 2, "fresh_vertices": 0}


def test_expand_too_large_rejected():
    g = ThreeGraph(6, list(combinations(range(6), 3)))
    H = PatternGraph(5, [(i, (i + 1) % 5) for i in range(5)])  # 5 + 5 > 6
    out = expand_embed_3graph(g, H, PLAN, seed=0)
    assert not out.ok and out.failure.reason == "PreconditionViolated"


def test_expand_isolated_vertices_padded_and_mapped():
    g = ThreeGraph(16, list(combinations(range(16), 3)))
    H = PatternGraph(6, [(0, 1)])  # 4 isolated vertices
    out = expand_embed_3graph(g, H, PLAN, seed=3)
    assert out.ok
    assert len(set(out.vertex_images.values())) == 6



def _expand_instance(seed):
    """A seeded random host (n = 24-60; density 0.2 for every fifth seed, so
    some attempts fail, else 0.5-0.7) and a cycle, a path, a matching with
    isolated vertices or a 3-vertex path (padded with fresh vertices)."""
    rng = random.Random(seed)
    n = 24 + 6 * (seed % 7)
    p = rng.uniform(0.5, 0.7) if seed % 5 else 0.2
    g = ThreeGraph(n, [t for t in combinations(range(n), 3) if rng.random() < p])
    k = n // 3
    H = [
        PatternGraph(k, [(i, (i + 1) % k) for i in range(k)]),
        PatternGraph(k, [(i, i + 1) for i in range(k - 1)]),
        PatternGraph(k, [(2 * i, 2 * i + 1) for i in range(k // 4)]),
        PatternGraph(4, [(0, 1), (1, 2)]),
    ][seed % 4]
    return g, H


# sha256 prefixes of the expansion maps (or "stage:reason" of the failure)
# that the scan over every host triple gave before ThreeGraph.link_collection,
# so seeded replay stays bit for bit; the seeds decided by the one-shot pass
# (1, 4, 5, 8, 9, 10, 12, 13, 16, 17) were re-recorded when that pass gained
# its buffer finish
EXPAND_REPLAY = {
    0: "99847fde6143c98b",
    1: "9b8616478cde4b3e",
    2: "378a8b5b936bc698",
    3: "51a006e49337b0eb",
    4: "2dbe444179a62f16",
    5: "0f59787cf5009c18",
    6: "273aec7a209da847",
    7: "c49e93e459ca9a49",
    8: "08d192522453491b",
    9: "e7aad798c120588c",
    10: "62c5e4b95eac7a2a",
    11: "f4df615b5f36e83f",
    12: "3e2fa268602faea5",
    13: "7180875cbae88b24",
    14: "65763ca7c558427c",
    15: "759853e7ea21c07e",
    16: "c0c046ab05d7f7b0",
    17: "d4309ee8269f8698",
    18: "70a8132caa4d841d",
    19: "9f3d274288556716",
}


@pytest.mark.parametrize("seed", sorted(EXPAND_REPLAY))
def test_expand_replays_the_triple_scans_outputs(seed):
    g, H = _expand_instance(seed)
    out = expand_embed_3graph(g, H, PLAN, seed=seed)
    if out.ok:
        record = {"v": sorted(out.vertex_images.items()),
                  "e": sorted([u, v, c] for (u, v), c in out.edge_images.items())}
    else:
        record = {"failure": f"{out.failure.stage}:{out.failure.reason}"}
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]
    assert digest == EXPAND_REPLAY[seed]


MIXED_PLAN = SplitPlan(ladder_base=0.03, ladder_ratio=1.5)


def _quasi_instance(seed):
    """A seeded uniformly dense collection (density 0.2 for every seventh
    seed, so some runs fail, else 0.8) and a perfect matching (every fourth
    seed) or a random pattern of maximum degree 2 or 3 on 12-24 vertices.
    Odd seeds use the finer ladder that splits pairs into sparse and dense."""
    rng = random.Random(seed)
    n = rng.choice([12, 16, 20, 24])
    if seed % 4 == 0:
        H = PatternGraph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    else:
        max_deg = rng.choice([2, 3])
        want = rng.randint(n // 4, n)
        deg, edges = [0] * n, set()
        for _ in range(20 * n):
            if len(edges) == want:
                break
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) not in edges and deg[u] < max_deg and deg[v] < max_deg:
                edges.add((u, v))
                deg[u] += 1
                deg[v] += 1
        H = PatternGraph(n, sorted(edges))
    density = 0.2 if seed % 7 == 6 else 0.8
    gc = random_collection(GenSpec(n=n, n_colours=H.e, density=density, seed=seed))
    return gc, H, (MIXED_PLAN if seed % 2 else PLAN)


def _quasi_path(out):
    if not out.ok:
        return f"{out.failure.stage}:{out.failure.reason}"
    if out.stats.get("path") == "LadderDegenerate":
        return "ladder-degenerate"
    path = "one-shot" if out.stats["blowup"].get("path") == "one-shot" else "main"
    return path + ("+sparse" if out.stats["e_sparse"] else "")


# (path, sha256 prefix of the embedding or of the failure and its
# diagnostics) of quasi_embed on _quasi_instance(seed), recorded before the
# embedders shared one induced-subgraph primitive; the table runs the main
# pipeline, the ladder-degenerate pass, the mixed sparse/dense split and the
# one-shot fallback, so seeded replay of each path stays bit for bit.  The
# one-shot entries (1, 3, 7, 9, 11, 15, 17, 18, 19, 21, 26, 27) were
# re-recorded when that pass gained its buffer finish.  Seed 27's failure
# diagnostics are step "buffer-vertices", deficiency 5 and "main":
# "split-decided" (the digest without that key is 8f572f99300b7eb3).
QUASI_REPLAY = {
    0: ("main", "5b4c5ebbcc5aa26c"),
    1: ("one-shot", "7b2d55561d3ccc27"),
    2: ("ladder-degenerate", "b79ce2478c059c95"),
    3: ("one-shot", "5ef81646fcb83827"),
    4: ("main", "5411fe8c9ecafdc8"),
    5: ("ladder-degenerate", "3a333930a0425118"),
    6: ("quasi-sparse:CandidateExhausted", "9e632d30ed218239"),
    7: ("one-shot", "af5ed7719389a61b"),
    8: ("main", "fd77b206960f6ae8"),
    9: ("one-shot+sparse", "651fd3e48f66958d"),
    10: ("ladder-degenerate", "bc3f5fce1fc02648"),
    11: ("one-shot+sparse", "98af5575af158dc7"),
    12: ("main", "b9e3a7fd5389e626"),
    13: ("quasi-sparse:CandidateExhausted", "073faaec55230385"),
    14: ("ladder-degenerate", "6c8228c03085cb75"),
    15: ("one-shot", "bece8659473cf7d4"),
    16: ("main", "7aefed4ba5e5ca85"),
    17: ("one-shot", "45b81ecf770abdee"),
    18: ("one-shot", "eae1807baf853919"),
    19: ("one-shot", "184b230612608afa"),
    20: ("main", "7b62ad4f461cf166"),
    21: ("one-shot+sparse", "a10d8d66a067bb11"),
    22: ("ladder-degenerate", "12c35f5215b8ec6d"),
    23: ("main", "750c363870ebeec6"),
    24: ("main", "68b4dc7aa2447ed2"),
    25: ("main", "1269ea98405d45a1"),
    26: ("one-shot", "42f788dcc3fff8b7"),
    27: ("one-shot:MatchingTooSmall", "ab7ebad56b0523bb"),
}


@pytest.mark.parametrize("seed", sorted(QUASI_REPLAY))
def test_quasi_replays_every_path(seed):
    gc, H, plan = _quasi_instance(seed)
    out = quasi_embed(gc, H, plan, seed=seed)
    if out.ok:
        record = {"tau": sorted(out.embedding.tau.items()),
                  "sigma": sorted([u, v, c] for (u, v), c in out.embedding.sigma.items())}
    else:
        record = {"failure": f"{out.failure.stage}:{out.failure.reason}",
                  "diag": out.failure.diagnostics}
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]
    assert (_quasi_path(out), digest) == QUASI_REPLAY[seed]


# (calls in a row, embedder, r, sorted colour-cluster keys, d, eps, m,
# rainbow, klass) of the templates passed to partial_embed, approx_embed,
# embed_prescribed_colours and transversal_blowup on a main-path quasi run,
# the mixed sparse/dense quasi run and an expansion; recorded from the
# templates' parameter ledgers before a template held d, eps and m itself
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K4_12 = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
K3 = [(0, 1), (0, 2), (1, 2)]
TEMPLATE_PIN = {
    "quasi-0": [
        (1, "transversal_blowup", 2, [(0, 1)], "95269/250000", "1/20", "12", True, "super"),
        (1, "partial_embed", 2, [(0, 1)], "95269/250000", "1/20", "12", True, "super"),
        (1, "approx_embed", 2, [(0, 1)], "95269/1000000", "1/5", "3", True, "semi-super"),
        (1, "embed_prescribed_colours", 2, [(0, 1)], "95269/1000000", "1/20", "12", True,
         "regular"),
        (1, "partial_embed", 2, [(0, 1)], "95269/1000000", "1/20", "12", True, "regular"),
        (1, "approx_embed", 2, [(0, 1)], "95269/3250000", "111803399/500000000", "1", True,
         "semi-super"),
    ],
    "quasi-9": [
        (1, "partial_embed", 4, K4, "169643/500000", "1/20", "6", False, "super"),
        (1, "transversal_blowup", 4, K4_12, "169643/500000", "1/20", "6", True, "super"),
        (1, "partial_embed", 4, K4_12, "169643/500000", "1/20", "6", True, "super"),
    ],
    "expand-1": [
        (1, "transversal_blowup", 3, K3, "12963/100000", "1/20", "3", True, "super"),
        (20, "partial_embed", 3, K3, "12963/100000", "1/20", "3", True, "super"),
        (1, "transversal_blowup", 3, K3, "5353/31250", "1/20", "3", True, "super"),
        (20, "partial_embed", 3, K3, "5353/31250", "1/20", "3", True, "super"),
        (1, "transversal_blowup", 3, K3, "80247/500000", "1/20", "3", True, "super"),
        (20, "partial_embed", 3, K3, "80247/500000", "1/20", "3", True, "super"),
        (1, "transversal_blowup", 3, K3, "80247/500000", "1/20", "3", True, "super"),
        (20, "partial_embed", 3, K3, "80247/500000", "1/20", "3", True, "super"),
        (1, "transversal_blowup", 3, K3, "138889/1000000", "1/20", "3", True, "super"),
        (2, "partial_embed", 3, K3, "138889/1000000", "1/20", "3", True, "super"),
    ],
}


def test_each_embedder_reads_the_pinned_template_numbers(monkeypatch):
    from transversal import embed

    seen = []

    def record(name):
        real = getattr(embed, name)

        def recorded(t, *args, **kwargs):
            seen.append((name, t.r, sorted(t.colour_clusters), str(t.d), str(t.eps), str(t.m),
                         t.rainbow, t.klass))
            return real(t, *args, **kwargs)

        monkeypatch.setattr(embed, name, recorded)

    for name in ("partial_embed", "approx_embed", "embed_prescribed_colours",
                 "transversal_blowup"):
        record(name)
    runs = {
        "quasi-0": lambda: quasi_embed(*_quasi_instance(0), seed=0),
        "quasi-9": lambda: quasi_embed(*_quasi_instance(9), seed=9),
        "expand-1": lambda: expand_embed_3graph(*_expand_instance(1), PLAN, seed=1),
    }
    for label, run in runs.items():
        seen.clear()
        assert run().ok, label
        assert [(len(list(calls)), *rec) for rec, calls in groupby(seen)] == TEMPLATE_PIN[label]


# ---------------------------------------------------------------------------
# the shared check-and-retry loop


def test_retry_counts_attempts_and_keeps_the_last_failure():
    from transversal.embed import _mix, _retry

    seen = []

    def attempt(sub_seed, k):
        seen.append((sub_seed, k))
        return "done" if k == 2 else Failure("s", "Tried", sub_seed, k=k)

    default = Failure("s", "Default", 7)
    assert _retry(7, 5, 10, default, attempt) == ("done", 3)
    assert seen == [(_mix(7, 5, k), k) for k in range(3)]
    out, attempts = _retry(7, 5, 2, default, attempt)
    assert attempts == 2 and out.reason == "Tried"
    assert out.diagnostics == {"k": 1} and out.seed == _mix(7, 5, 1)
    assert _retry(7, 5, 0, default, attempt) == (default, 0)


def _count_pipeline_calls(monkeypatch):
    from transversal import embed

    calls = []
    real = embed._pipeline_once

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(embed, "_pipeline_once", counted)
    return calls


def test_split_decided_by_component_counts_is_not_retried(monkeypatch):
    # no separator is certified for a 70-cycle at the default mu, so the
    # cycle stays one component and no abs/app/col split exists: Steps 0-5
    # never run and the one-shot pass embeds the cycle instead
    calls = _count_pipeline_calls(monkeypatch)
    H = PatternGraph(70, [(i, (i + 1) % 70) for i in range(70)])
    gc = random_collection(GenSpec(n=70, n_colours=70, density=0.8, seed=1))
    out = quasi_embed(gc, H, PLAN, seed=1)
    assert out.ok and out.verification.ok
    assert out.stats["blowup"]["path"] == "one-shot"
    assert len(calls) == 0


def test_failure_says_the_split_was_decided(monkeypatch):
    # two matching edges are two components, one short of a split, and a
    # collection with no edges fails the one-shot pass too
    calls = _count_pipeline_calls(monkeypatch)
    t, H, phi = matching_pipeline_fixture(m=2, density=0.0)
    out = transversal_blowup(t, H, phi, None, PLAN, seed=0)
    assert not out.ok and len(calls) == 0
    assert out.failure.stage == "one-shot"
    assert out.failure.diagnostics["main"] == "split-decided"


def test_failure_names_the_last_main_attempt(monkeypatch):
    from transversal import embed

    reasons = iter(f"Reason{k}" for k in range(PLAN.retries))
    monkeypatch.setattr(embed, "_pipeline_once",
                        lambda *args: Failure("step3", next(reasons), 0))
    t, H, phi = matching_pipeline_fixture(m=4, density=0.0)  # four components
    out = transversal_blowup(t, H, phi, None, PLAN, seed=0)
    assert not out.ok and out.failure.stage == "one-shot"
    assert out.failure.diagnostics["main"] == f"step3:Reason{PLAN.retries - 1}"


def _ladder(m):
    """P_m x K_2: two paths 0..m-1 and m..2m-1 joined by rungs (i, m + i)."""
    rails = [(i, i + 1) for i in range(m - 1)] + [(m + i, m + i + 1) for i in range(m - 1)]
    return PatternGraph(2 * m, rails + [(i, m + i) for i in range(m)])


def _max_degree_3(n, seed):
    rng = random.Random(seed)
    deg, edges = [0] * n, set()
    for _ in range(20 * n):
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges and deg[u] < 3 and deg[v] < 3:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return PatternGraph(n, sorted(edges))


@pytest.mark.parametrize("H", [
    _ladder(30),
    separable_family("bandwidth", n=60, b=2).graph,
    _max_degree_3(60, 1),
    PatternGraph(70, [(i, (i + 1) % 70) for i in range(70)]),
], ids=["ladder-30", "path-square-60", "max-degree-3-60", "cycle-70"])
def test_one_shot_backs_up_steps_0_to_5_at_any_pattern_size(H):
    # at the default mu no split of the certified components exists for
    # these 70-117 edge patterns; the one-shot pass embeds them whatever
    # their size
    gc = random_collection(GenSpec(n=H.n, n_colours=H.e, density=0.8, seed=1))
    out = quasi_embed(gc, H, PLAN, seed=1)
    assert out.ok and out.verification.ok
    assert out.stats["blowup"]["path"] == "one-shot"


def test_main_path_still_runs_the_pipeline(monkeypatch):
    calls = _count_pipeline_calls(monkeypatch)
    gc, H, plan = _quasi_instance(0)
    assert _quasi_path(quasi_embed(gc, H, plan, seed=0)) == "main"
    assert len(calls) >= 1


def test_a_quasi_call_builds_the_blowup_setup_once(monkeypatch):
    # each of seed 27's 20 attempts calls transversal_blowup; the set-up, its
    # pattern view, the separator certificate and the split decision are
    # built once for all
    from transversal import embed

    counts = dict.fromkeys(("setup", "view", "certificate", "decided", "blowup"), 0)

    def count(name, attr, only=lambda *a: True):
        real = getattr(embed, attr)

        def counted(*args, **kwargs):
            counts[name] += only(*args)
            return real(*args, **kwargs)

        monkeypatch.setattr(embed, attr, counted)

    count("setup", "_blowup_setup")
    # the graphs the BFS orders are built on, and the blow-up's set-up
    bfs_graphs, setups = [], []
    real_bfs, real_setup = embed._bfs_order, embed._blowup_setup
    monkeypatch.setattr(embed, "_bfs_order",
                        lambda G, vs: bfs_graphs.append(G) or real_bfs(G, vs))
    monkeypatch.setattr(embed, "_blowup_setup",
                        lambda *args: setups.append(real_setup(*args)) or setups[-1])
    count("view", "_pattern_view", only=lambda H, active, targets=None: targets is None)
    count("certificate", "separability_certificate")
    count("decided", "_split_decided")
    count("blowup", "transversal_blowup")
    gc, H, plan = _quasi_instance(27)
    out = quasi_embed(gc, H, plan, seed=27)
    assert not out.ok and out.failure.diagnostics["main"] == "split-decided"
    assert counts == {"setup": 1, "view": 1, "certificate": 1, "decided": 1,
                      "blowup": PLAN.retries}
    # every attempt took the one-shot passes, over one BFS order for all,
    # and that order is the active vertices' BFS order in H
    (setup,) = setups
    assert out.failure.stage == "one-shot" and bfs_graphs.count(setup.view.pattern) == 1
    assert setup.bfs == real_bfs(H, setup.view.to_local)


def test_quasi_colour_split_sizing_is_an_identity(monkeypatch):
    # seed 21 embeds its sparse side first; with one of those edges left
    # uncoloured, a colour is left over that no dense class takes
    from transversal import embed
    from transversal.embed import UnverifiedOutput

    real = embed.partial_embed

    def one_colour_short(*args, **kwargs):
        part = real(*args, **kwargs)
        if isinstance(part, PartialEmbedding) and part.sigma:
            del part.sigma[next(iter(part.sigma))]
        return part

    monkeypatch.setattr(embed, "partial_embed", one_colour_short)
    gc, H, plan = _quasi_instance(21)
    with pytest.raises(UnverifiedOutput, match="quasi: colour split"):
        quasi_embed(gc, H, plan, seed=21)


def test_quasi_mixed_path_reports_a_sparse_side_failure(monkeypatch):
    # seed 9 splits its pairs into sparse and dense ones; when the sparse
    # side's candidate-set pass fails, the attempt ends before the blow-up
    from transversal import embed

    sparse_graphs, blowups = [], []

    def stuck(t, graph, *args, **kwargs):
        sparse_graphs.append(graph)
        return Failure("partial", CANDIDATE_EXHAUSTED, 0, detail="stub")

    monkeypatch.setattr(embed, "partial_embed", stuck)
    monkeypatch.setattr(embed, "transversal_blowup", lambda *a, **kw: blowups.append(a))
    gc, H, plan = _quasi_instance(9)
    f = quasi_embed(gc, H, plan, seed=9).failure
    assert (f.stage, f.reason, f.diagnostics) == ("quasi-sparse", CANDIDATE_EXHAUSTED,
                                                  {"detail": "stub"})
    # one pass per attempt, on the edges at the sparse side X, not on all of H
    assert len(sparse_graphs) == plan.retries
    assert all(0 < g.e < H.e for g in sparse_graphs)
    assert blowups == []


def test_blowup_checks_colour_conservation(monkeypatch):
    # a main-path attempt that gives two edges one colour, passed by a
    # stubbed verifier, is caught by the colour count
    from transversal import embed
    from transversal.core import VerificationReport
    from transversal.embed import UnverifiedOutput

    real = embed._pipeline_once

    def one_colour_twice(*args):
        out = real(*args)
        if isinstance(out, Failure):
            return out
        tau, sigma, stats = out
        e, f = list(sigma)[:2]
        return tau, {**sigma, e: sigma[f]}, stats

    monkeypatch.setattr(embed, "_pipeline_once", one_colour_twice)
    monkeypatch.setattr(embed, "verify_transversal_embedding",
                        lambda *args: VerificationReport(ok=True))
    gc, H, plan = _quasi_instance(0)  # the main path
    with pytest.raises(UnverifiedOutput, match="colour conservation violated on the main path"):
        quasi_embed(gc, H, plan, seed=0)


def test_quasi_collection_is_the_union_of_its_slices(monkeypatch):
    # a cycle has Delta = 2, so three parts and three slices; the second
    # slice's sparsification fails and that slice is kept raw
    from transversal import embed, regularity
    from transversal.regularity import PromiseViolated

    gc = random_collection(GenSpec(n=30, n_colours=30, density=0.8, seed=1))
    H = PatternGraph(30, [(i, (i + 1) % 30) for i in range(30)])
    real_sparsify, real_template = regularity.sparsify_to_superregular, embed.make_template
    slices, collections = [], []

    def sparsify(g, parts, **kw):
        V1, V2, _ = parts
        if len(slices) == 1:
            slices.append((V1, V2, g))
            raise PromiseViolated("stubbed")
        out = real_sparsify(g, parts, **kw)
        slices.append((V1, V2, out))
        return out

    def template(V, classes, jgc, *args, **kwargs):
        collections.append(jgc)
        return real_template(V, classes, jgc, *args, **kwargs)

    monkeypatch.setattr(regularity, "sparsify_to_superregular", sparsify)
    monkeypatch.setattr(embed, "make_template", template)
    quasi_embed(gc, H, dataclasses.replace(PLAN, retries=1), seed=2)
    jgc = collections[0]
    assert len(slices) == 3 and slices[1][2] is gc
    for V1, V2, source in slices:
        m2 = mask_of(V2)
        for c in range(gc.n_colours):
            assert [jgc.adj(c, u) & m2 for u in V1] == [source.adj(c, u) & m2 for u in V1]
    # and nothing besides the three slices
    assert jgc.total_edge_count() == sum(source.edges_into(c, V1, mask_of(V2))
                                         for V1, V2, source in slices for c in gc.colours)


def test_quasi_lone_slice_is_the_collection(monkeypatch):
    # a matching has two parts: the attempt's collection is the one slice
    from transversal import embed, regularity

    real_sparsify, real_template = regularity.sparsify_to_superregular, embed.make_template
    outs, collections = [], []
    monkeypatch.setattr(regularity, "sparsify_to_superregular",
                        lambda *a, **k: outs.append(real_sparsify(*a, **k)) or outs[-1])
    monkeypatch.setattr(embed, "make_template",
                        lambda *a, **k: collections.append(a[2]) or real_template(*a, **k))
    gc = random_collection(GenSpec(n=24, n_colours=12, density=0.8, seed=3))
    H = PatternGraph(24, [(2 * i, 2 * i + 1) for i in range(12)])
    assert quasi_embed(gc, H, PLAN, seed=3).ok
    assert collections[0] is outs[0]


def test_quasi_unbalanceable_colouring_is_reported(monkeypatch):
    from transversal import embed
    from transversal.embed import UNBALANCEABLE, EquitableColouring

    monkeypatch.setattr(embed, "equitable_colouring",
                        lambda H, r, seed=0: EquitableColouring(((),) * r, True, False, 0))
    gc = random_collection(GenSpec(n=12, n_colours=6, density=1.0, seed=1))
    H = PatternGraph(12, [(2 * i, 2 * i + 1) for i in range(6)])
    f = quasi_embed(gc, H, PLAN, seed=4).failure
    assert (f.stage, f.reason, f.seed) == ("quasi", UNBALANCEABLE, 4)


@pytest.mark.parametrize("ladder", [{"ladder_ratio": math.nan}, {"ladder_base": math.nan},
                                    {"ladder_base": 0, "ladder_ratio": math.inf},
                                    {"ladder_base": -math.inf}])
def test_split_plan_rejects_a_non_finite_ladder(ladder):
    with pytest.raises(ValueError, match="finite"):
        SplitPlan(**ladder)


@pytest.mark.parametrize("fields, message", [
    ({"p_abs": 0.0}, r"split probabilities must lie in \(0,1\)"),
    ({"p_col": 1.0}, r"split probabilities must lie in \(0,1\)"),
    ({"p_vx": -0.1}, r"split probabilities must lie in \(0,1\)"),
    ({"p_abs": 0.5, "p_col": 0.25, "p_vx": 0.25}, "p_app must stay positive"),  # p_app = 0
    ({"p_abs": 0.4, "p_col": 0.4, "p_vx": 0.3}, "p_app must stay positive"),
    ({"ladder_ratio": 1.0}, "the delta ladder must be strictly increasing"),
    ({"ladder_ratio": 0.5}, "the delta ladder must be strictly increasing"),
], ids=["p_abs=0", "p_col=1", "p_vx<0", "p_app=0", "p_app<0", "ratio=1", "ratio<1"])
def test_split_plan_refuses_a_field_out_of_range(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SplitPlan(**fields)


_COUNTS = ["retries", "blowup_restarts", "approx_retries", "absorber_retries",
           "absorber_samples"]


@pytest.mark.parametrize("field", _COUNTS)
@pytest.mark.parametrize("value", [2.5, 2.0, True, False, 0, -3, "2", None])
def test_split_plan_refuses_a_retry_count_that_is_not_an_int_of_one_or_more(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1"):
        SplitPlan(**{field: value})


@pytest.mark.parametrize("value", [-1, 0.0, 1.5, True, None])
def test_split_plan_refuses_an_exhaustive_cap_that_is_not_an_int_of_zero_or_more(value):
    with pytest.raises(ValueError, match="^absorber_exhaustive_cap must be an integer >= 0"):
        SplitPlan(absorber_exhaustive_cap=value)


def test_split_plan_takes_the_least_counts():
    plan = SplitPlan(**dict.fromkeys(_COUNTS, 1), absorber_exhaustive_cap=0)
    assert [getattr(plan, f) for f in _COUNTS] == [1] * 5 and plan.absorber_exhaustive_cap == 0


def test_a_ladder_past_the_largest_float_still_gives_a_level():
    # 1e155**2 overflows, so rungs 2 on are infinite: the densities lie in
    # level 1's gap, and level 2's gap is empty
    plan = SplitPlan(ladder_base=1e-300, ladder_ratio=1e155)
    assert plan.delta_ladder(1) < 1e-144 and plan.delta_ladder(2) == math.inf
    assert SplitPlan(ladder_base=0.0, ladder_ratio=1e155).delta_ladder(3) == 0.0
    gc = random_collection(GenSpec(n=30, n_colours=30, density=0.8, seed=1))
    H = PatternGraph(30, [(i, (i + 1) % 30) for i in range(30)])
    out = quasi_embed(gc, H, plan, seed=1)
    assert out.ok and out.stats["ladder_level"] == 2


# ---------------------------------------------------------------------------
# module-wide invariants


def test_every_success_carries_verification():
    t, H, phi = matching_pipeline_fixture(density=0.9, seed=5)
    out = transversal_blowup(t, H, phi, None, PLAN, seed=6)
    if out.ok:
        assert out.verification is not None and out.verification.ok


def test_outcomes_deterministic_across_ops():
    gc = random_collection(GenSpec(n=16, n_colours=12, density=0.8, seed=6))
    edges = [(2 * i, 2 * i + 1) for i in range(6)] + [(1, 2), (5, 6), (9, 10), (13, 14), (3, 4), (7, 8)]
    H = PatternGraph(16, edges[:12])
    a = quasi_embed(gc, H, PLAN, seed=21)
    b = quasi_embed(gc, H, PLAN, seed=21)
    assert a.ok == b.ok
    if a.ok:
        assert a.embedding.tau == b.embedding.tau and a.embedding.sigma == b.embedding.sigma
    else:
        assert a.failure.stage == b.failure.stage and a.failure.reason == b.failure.reason


def test_absorber_sampled_mode_records_count():
    # C(|B|, l) above the exhaustive cap forces sampled verification
    rng = random.Random(1)
    pairs = [(i, 10 + i) for i in range(8)]
    k = 60
    edges = {c: [e for e in pairs if rng.random() < 0.9] for c in range(k)}
    gc = GraphCollection(20, k, edges)
    t = make_template([range(10), range(10, 20)], {(0, 1): range(k)}, gc, d="0.5", eps="0.1",
                      m=10, rainbow=True)
    ab = build_absorber(t, {(0, 1): pairs}, PLAN, seed=2,
                        l_sizes={(0, 1): 4}, b_sizes={(0, 1): 45})
    assert hasattr(ab, "per_edge")
    ent = ab.per_edge[(0, 1)]
    assert ent.verified == "sampled"
    assert ent.subsets_checked == PLAN.absorber_samples


def test_pipeline_r3_triangle_template():
    # three clusters, six 6-cycles each visiting all clusters twice
    m = 12
    clusters = [list(range(0, 12)), list(range(12, 24)), list(range(24, 36))]
    phi = [0] * 12 + [1] * 12 + [2] * 12
    edges = []
    for k in range(6):
        a0, a1 = 2 * k, 2 * k + 1
        b0, b1 = 12 + 2 * k, 12 + 2 * k + 1
        c0, c1 = 24 + 2 * k, 24 + 2 * k + 1
        edges += [(a0, b0), (b0, c0), (c0, a1), (a1, b1), (b1, c1), (c1, a0)]
    H = PatternGraph(36, edges)
    from collections import Counter

    cls = Counter(_cls_key(phi, u, v) for (u, v) in H.edges())
    rng = random.Random(42)
    gedges, colour_clusters, cid = {}, {}, 0
    for key, cnt in sorted(cls.items()):
        i, j = key
        cc = []
        for _ in range(cnt):
            gedges[cid] = [
                (u, v) for u in clusters[i] for v in clusters[j] if rng.random() < 0.8
            ]
            cc.append(cid)
            cid += 1
        colour_clusters[key] = cc
    gc = GraphCollection(36, cid, gedges)
    t = make_template(clusters, colour_clusters, gc, d="0.5", eps="0.05", m=m, rainbow=True,
                      klass="super")
    out = transversal_blowup(t, H, phi, None, PLAN, seed=1)
    assert out.ok
    assert sorted(out.embedding.sigma.values()) == list(range(cid))
    assert out.stats.get("path") != "one-shot"  # the main pipeline carries it


def _cls_key(phi, u, v):
    a, b = phi[u], phi[v]
    return (a, b) if a < b else (b, a)
