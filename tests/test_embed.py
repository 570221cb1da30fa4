import dataclasses
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
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
    ABSORBER_SAMPLES,
    CANDIDATE_EXHAUSTED,
    GAMMA,
    NU_PRIME,
    PADDING_IMPOSSIBLE,
    PRECONDITION,
    EquitableColouring,
    Failure,
    LemmaPlan,
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
    lemma_blowup,
    partial_embed,
    quasi_embed,
    transversal_blowup,
)
from transversal.generators import GenSpec, random_collection, separable_family
from transversal.matching import koenig_set, max_bipartite_matching
from transversal.oracle import exact_transversal_embed
from transversal.templates import make_template

PLAN = SplitPlan()
LEMMA_PLAN = LemmaPlan()


def lemma_quasi_blowup(mp):
    """Make each ``transversal_blowup`` call of the default path (quasi's
    blow-up, also inside an expansion) call ``lemma_blowup`` on the same
    arguments and seed, with the default ``LemmaPlan``: Steps 0-5 then run
    on the tag-83 sub-seeds of that seed, as they did when they followed
    failed one-shot passes.  The lemma takes a rainbow template, so the
    colours are split as quasi split them before its classes pooled them:
    shuffled by the attempt's generator just before the blow-up and sliced
    to each class's edge count in key order.  The way a test reaches Steps
    0-5 through a quasi run (``mp`` is a MonkeyPatch)."""
    from transversal import embed

    split = {}
    real_blowup = embed._quasi_blowup

    def blowup(run):
        s = run.setup.blowup
        pool = list(range(run.gc.n_colours))
        run.rng.shuffle(pool)
        for key in s.keys:
            need = len(s.class_e[key])
            split[key], pool = pool[:need], pool[need:]
        return real_blowup(run)

    def lemma(t, H, phi, targets, plan, seed=0, setup=None):
        t = make_template(t.clusters, split, t.gc, d=t.d, eps=t.eps, m=t.m)
        return embed.lemma_blowup(t, H, phi, targets, LEMMA_PLAN, seed)

    assert embed._QUASI_STEPS[-1] is real_blowup
    mp.setattr(embed, "_QUASI_STEPS", (*embed._QUASI_STEPS[:-1], blowup))
    mp.setattr(embed, "transversal_blowup", lemma)


def bip_template(n_side, k, density=1.0, seed=0, d="0.7", eps="0.05"):
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
        gc, d=d, eps=eps, m=n_side,
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
    assert eq.balanced and eq.rounds >= 1
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
        parts=pinned, balanced=True, rounds=0)


def test_equitable_returns_the_first_colouring_when_no_restart_balances():
    # a union of small blocks, relabelled, found by a seeded search: none of
    # the eight greedy passes at seed 1 is balanced, and no round may run
    edges = [(0, 2), (0, 11), (1, 5), (1, 9), (1, 10), (2, 4), (2, 7), (3, 5), (3, 9), (3, 10),
             (4, 11), (5, 6), (6, 9), (6, 10), (7, 11)]
    H = PatternGraph(12, edges)
    eq = equitable_colouring(H, H.max_degree + 1, seed=1, cap=0)
    assert eq == EquitableColouring(parts=((0, 1, 6, 7), (2, 8, 9), (3, 11), (4, 5, 10)),
                                    balanced=False, rounds=0)


def test_equitable_reports_the_rounds_of_the_colouring_it_returns(monkeypatch):
    # the same pattern: restart 0 stops after one round, and every later
    # restart runs no-op rounds up to the cap; the returned colouring is
    # restart 0's, so its round count is 1, not the last restart's cap
    from transversal import embed

    def stop_then_stall(adj, parts, hi, lo, rng):
        calls.append(hi)
        return [] if len(calls) == 1 else [(parts[hi].bit_length() - 1, hi, hi)]

    calls = []
    monkeypatch.setattr(embed, "_balancing_move", stop_then_stall)
    H = PatternGraph(12, [(0, 2), (0, 11), (1, 5), (1, 9), (1, 10), (2, 4), (2, 7), (3, 5),
                          (3, 9), (3, 10), (4, 11), (5, 6), (6, 9), (6, 10), (7, 11)])
    eq = equitable_colouring(H, H.max_degree + 1, seed=1, cap=5)
    assert len(calls) == 1 + 7 * 5
    assert eq == EquitableColouring(parts=((0, 1, 6, 7), (2, 8, 9), (3, 11), (4, 5, 10)),
                                    balanced=False, rounds=1)


def test_equitable_needs_enough_classes():
    H = PatternGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError):
        equitable_colouring(H, 2)


# ---------------------------------------------------------------------------
# partial embedding


def test_partial_single_edge_complete():
    t = bip_template(6, 6)
    H = PatternGraph(2, [(0, 1)])
    out = partial_embed(t, H, [0, 1], X=[0], Y=[1], targets=None, seed=0)
    assert isinstance(out, PartialEmbedding)
    assert out.tau[0] in set(range(6))
    # complete host: candidate set is the whole opposite cluster minus nothing
    assert len(out.candidates[1]) == 6


def test_partial_path_candidate_invariant():
    t = bip_template(6, 6)
    H = PatternGraph(3, [(0, 1), (1, 2)])
    out = partial_embed(t, H, [0, 1, 0], X=[0, 2], Y=[1], targets=None, seed=1)
    assert isinstance(out, PartialEmbedding)
    for v in out.candidates[1]:
        for x in (0, 2):
            e = (x, 1) if x < 1 else (1, x)
            assert t.gc.has_edge(out.sigma[e], out.tau[x], v)


def test_partial_pigeonhole_colour_exhaustion():
    t = bip_template(6, 1)
    H = PatternGraph(4, [(0, 1), (2, 3)])
    out = partial_embed(t, H, [0, 1, 0, 1], X=[0, 1, 2, 3], Y=[], targets=None, seed=0)
    assert isinstance(out, Failure)
    assert out.reason == "CandidateExhausted"


def test_partial_rejects_edges_inside_y():
    t = bip_template(6, 6)
    H = PatternGraph(2, [(0, 1)])
    out = partial_embed(t, H, [0, 1], X=[], Y=[0, 1], targets=None, seed=0)
    assert isinstance(out, Failure) and out.reason == "PreconditionViolated"


def test_partial_deterministic():
    t = bip_template(6, 8, density=0.7, seed=2, d="0.4")
    H = PatternGraph(4, [(0, 1), (1, 2), (2, 3)])
    a = partial_embed(t, H, [0, 1, 0, 1], X=[0, 1, 2, 3], Y=[], targets=None, seed=9)
    b = partial_embed(t, H, [0, 1, 0, 1], X=[0, 1, 2, 3], Y=[], targets=None, seed=9)
    assert type(a) == type(b)
    if isinstance(a, PartialEmbedding):
        assert a.tau == b.tau and a.sigma == b.sigma


def test_partial_refuses_overlapping_x_and_y():
    t = bip_template(6, 8, density=0.7, seed=2, d="0.4")
    H = PatternGraph(4, [(0, 1), (2, 3)])
    f = partial_embed(t, H, [0, 1, 0, 1], X=[0, 1, 2], Y=[2], targets=None, seed=4)
    assert (f.stage, f.reason, f.seed) == ("partial", PRECONDITION, 4)
    assert f.diagnostics == {"detail": "X and Y overlap"}


def test_partial_refuses_a_phi_that_is_not_a_homomorphism():
    # R has the pair (0, 1) only, so the edge (1, 2) between clusters 0 and 2
    # maps to a non-edge
    gc = GraphCollection(9, 4, {c: [(u, v) for u in range(3) for v in range(3, 6)]
                                for c in range(4)})
    t = make_template([range(3), range(3, 6), range(6, 9)], {(0, 1): range(4)}, gc,
                      d="0.5", eps="0.05", m=3)
    H = PatternGraph(3, [(0, 1), (1, 2)])
    f = partial_embed(t, H, [1, 0, 2], X=[0, 1, 2], Y=[], targets=None, seed=5)
    assert (f.stage, f.reason, f.seed) == ("partial", PRECONDITION, 5)
    assert f.diagnostics == {"detail": "phi is not a homomorphism: edge (1,2) -> non-edge (0, 2)"}


def _set_partial_embed(t, H, phi, X, Y, targets, seed: int = 0, ties=None):
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
    floor = max(1, math.ceil(NU_PRIME * m))

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
    return make_template(clusters, groups, gc, d=d, eps=eps, m=side)


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
        new = partial_embed(t, H, phi, X, Y, targets, seed=seed)
        ref = _set_partial_embed(t, H, phi, X, Y, targets, seed=seed, ties=ties)
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
        new = partial_embed(t, H, phi, X, Y, targets, seed=seed)
        ref = _set_partial_embed(t, H, phi, X, Y, targets, seed=seed)
        assert _partial_fingerprint(new) == _partial_fingerprint(ref), case


def test_one_shot_outcome_does_not_depend_on_cached_rows(monkeypatch):
    # the 30-cycle's template at host density 0.2, seed 15, takes the
    # one-shot pass, whose first two passes fail (at density 0.4, seed 2,
    # the first pass failed until the dense classes shared one colour
    # pool); the captured call runs again on that template (its masks and
    # the collection's packed rows already built) and once on a template
    # over a fresh copy of the collection
    from transversal import embed

    calls = []
    real = embed.transversal_blowup
    monkeypatch.setattr(embed, "transversal_blowup",
                        lambda *a, **k: calls.append((a, k)) or real(*a, **k))
    H = PatternGraph(30, [(i, (i + 1) % 30) for i in range(30)])
    gc = random_collection(GenSpec(n=30, n_colours=30, density=0.2, seed=15))
    first = quasi_embed(gc, H, PLAN, seed=15).stats["blowup"]
    assert first == {"path": "one-shot", "finish": "matching", "attempts": 3}
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


def _set_cover(t, H, phi, B, part, targets):
    """The buffer finish's inputs over sets: the free colours of each class,
    each b's unused hosts in its cluster and target, and its embedded
    neighbours."""
    free = {key: set(cs) - set(part.sigma.values()) for key, cs in t.colour_clusters.items()}
    hosts = {b: [v for v in t.clusters[phi[b]] if v not in part.tau.values()
                 and (b not in targets or v in targets[b])] for b in B}
    near = {b: [a for a in H.neighbours(b) if a in part.tau] for b in B}
    return free, hosts, near


def _set_fits(t, phi, free, a, b, x, y):
    """The free colours of the class of ab joining hosts x and y, ascending."""
    return sorted(c for c in free[_class_key(phi, a, b)] if t.gc.has_edge(c, x, y))


def _set_greedy(t, phi, tau, free, hosts, near):
    """The greedy finish over sets: each b, ascending, on the lowest untaken
    host of hosts[b] where each of its edges, in turn, finds an untaken
    fitting colour, each edge on the lowest; (placed, coloured) or None."""
    placed, coloured = {}, {}
    for b in sorted(hosts):
        for v in sorted(set(hosts[b]) - set(placed.values())):
            got = {}
            for a in near[b]:
                taken = set(coloured.values()) | set(got.values())
                c = next((c for c in _set_fits(t, phi, free, a, b, tau[a], v)
                          if c not in taken), None)
                if c is None:
                    break
                got[tuple(sorted((a, b)))] = c
            else:
                placed[b] = v
                coloured.update(got)
                break
        else:
            return None
    return placed, coloured


def _set_matchings(t, H, phi, B, part, targets, colours):
    """The buffer finish's matchings over sets, which the greedy pass falls
    back on: the hosts matched lowest-first on the reach sets, then the
    edges coloured by ``colours`` (tau, free, near, fits -> coloured or
    None) or, when that sticks, by the lowest-first matching over every
    fitting colour.  (tau, sigma, branch) with branch "colours" or "kuhn",
    or (step, deficiency, the matching's sets)."""
    tau, sigma = dict(part.tau), dict(part.sigma)
    free, hosts, near = _set_cover(t, H, phi, B, part, targets)
    reach = {b: [v for v in hosts[b]
                 if all(_set_fits(t, phi, free, a, b, tau[a], v) for a in near[b])] for b in B}
    matched = max_bipartite_matching({b: mask_of(vs) for b, vs in reach.items()})
    if len(matched) < len(B):
        return "buffer-vertices", len(B) - len(matched), reach
    tau.update(matched)
    fits = {tuple(sorted((a, b))): _set_fits(t, phi, free, a, b, tau[a], tau[b])
            for b in B for a in near[b]}
    fits = dict(sorted(fits.items()))
    greedy = colours(tau, free, near, fits)
    if greedy is not None:
        return tau, {**sigma, **greedy}, "colours"
    kuhn = max_bipartite_matching({e: mask_of(cs) for e, cs in fits.items()})
    if len(kuhn) < len(fits):
        return "buffer-colours", len(fits) - len(kuhn), fits
    return tau, {**sigma, **kuhn}, "kuhn"


def _set_reference(t, H, phi, B, part, targets):
    """The finish before the greedy pass, over sets: the host matching, then
    each edge, in sorted order, on the lowest untaken fitting colour."""

    def sorted_edges(tau, free, near, fits):
        greedy = {}
        for e, cs in fits.items():
            c = next((c for c in cs if c not in greedy.values()), None)
            if c is None:
                return None
            greedy[e] = c
        return greedy

    return _set_matchings(t, H, phi, B, part, targets, sorted_edges)


def _set_finish(t, H, phi, B, part, targets):
    """The buffer finish over sets: (tau, sigma, branch) with branch
    "greedy" (the greedy pass), "colours" (the host matching, then the
    greedy pass with each b on its matched host) or "kuhn" (the colour
    matching too), or the failing step, its deficiency and the matching's
    sets."""
    free, hosts, near = _set_cover(t, H, phi, B, part, targets)
    greedy = _set_greedy(t, phi, part.tau, free, hosts, near)
    if greedy is not None:
        return {**part.tau, **greedy[0]}, {**part.sigma, **greedy[1]}, "greedy"

    def matched_hosts(tau, free, near, fits):
        out = _set_greedy(t, phi, tau, free, {b: [tau[b]] for b in near}, near)
        return out and out[1]

    return _set_matchings(t, H, phi, B, part, targets, matched_hosts)


def _assert_hall_witness(f, sets):
    """A short matching's failure leaves its Hall witness pending until
    ``_hall_witness`` builds it: König's set as sorted JSON lists, whose
    neighbourhood is the union of the hall set's ``sets`` (a buffer vertex's
    hosts or an edge's colours) and has deficiency fewer members."""
    from transversal.embed import _hall_witness

    assert "witness" in f.diagnostics and "hall_set" not in f.diagnostics
    f = _hall_witness(f)
    hall, nbhd = f.diagnostics["hall_set"], f.diagnostics["neighbourhood"]
    keys = [tuple(h) if isinstance(h, list) else h for h in hall]
    assert hall == sorted(hall) and nbhd == sorted({v for h in keys for v in sets[h]})
    assert len(nbhd) == len(hall) - f.diagnostics["deficiency"], f.diagnostics
    assert json.loads(json.dumps(f.diagnostics)) == f.diagnostics


def _finish_cases():
    """The seeded partial_embed inputs that embed X: (case, t, H, phi, B,
    part, targets, seed) with Y as the buffer."""
    for case in range(400):
        t, H, phi, X, Y, targets, seed = _partial_case(case)
        part = partial_embed(t, H, phi, X, [], targets, seed=seed)
        if isinstance(part, PartialEmbedding):
            targets = {v: set(ts) for v, ts in (targets or {}).items()}
            yield case, t, H, phi, sorted(Y), part, targets, seed


def test_buffer_finish_matches_the_set_reference():
    # the finish's masks against plain sets, on the seeded partial_embed
    # inputs: Y is independent, so embed X greedily and finish Y; tau, sigma,
    # the step, the deficiency and the stats are compared exactly, on every
    # branch, and each failure's Hall witness is checked against the sets
    from transversal.embed import _finish_buffer

    branches = Counter()
    for case, t, H, phi, B, part, targets, seed in _finish_cases():
        new = _finish_buffer(t, H, phi, B, part, targets, seed)
        ref = _set_finish(t, H, phi, B, part, targets)
        if isinstance(new, Failure):
            assert (new.stage, new.reason) == ("one-shot", "MatchingTooSmall")
            assert (new.diagnostics["step"], new.diagnostics["deficiency"]) == ref[:2], case
            _assert_hall_witness(new, ref[2])
            branches[ref[0]] += 1
        else:
            finish = "greedy" if ref[2] == "greedy" else "matching"
            assert new == (*ref[:2], {"path": "one-shot", "finish": finish}), case
            emb = TransversalEmbedding(tau=new[0], sigma=new[1])
            assert verify_transversal_embedding(t.gc, PatternGraph(H.n, H.edges()), emb).ok
            branches[ref[2] if B else "empty buffer"] += 1
    # "colours": the greedy pass stuck and the matched hosts took their
    # colours greedily; "kuhn": that stuck too, and the colour matching ran
    assert branches == {"greedy": 106, "colours": 1, "kuhn": 1, "buffer-colours": 40,
                        "buffer-vertices": 23, "empty buffer": 63}, branches


def _dense_passes(monkeypatch):
    """The args of every ``_finish_buffer`` call that quasi_embed makes on 40
    seeded perfect matchings in dense collections (n = 24-60)."""
    from transversal import embed

    calls = []
    real = embed._finish_buffer
    monkeypatch.setattr(embed, "_finish_buffer", lambda *a: calls.append(a) or real(*a))
    for seed in range(40):
        n = 24 + 12 * (seed % 4)
        gc = random_collection(GenSpec(n=n, n_colours=n // 2, density=0.8, seed=seed))
        quasi_embed(gc, PatternGraph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)]), PLAN,
                    seed=seed)
    monkeypatch.setattr(embed, "_finish_buffer", real)
    return calls


def test_the_greedy_pass_loses_no_finish_of_the_matchings(monkeypatch):
    # property, per pass, over the seeded partial_embed inputs and every
    # pass of quasi_embed on 40 dense perfect matchings, with the finish
    # before the greedy pass (_set_reference) as the reference: wherever it
    # finishes the finish does, verified; when the greedy pass sticks, tau
    # on B, the failing step and its deficiency are the reference's
    from transversal.embed import _finish_buffer

    passes = [(t, H, phi, B, part, targets, seed)
              for _, t, H, phi, B, part, targets, seed in _finish_cases()]
    passes += _dense_passes(monkeypatch)
    seen = Counter()
    for i, (t, H, phi, B, part, targets, seed) in enumerate(passes):
        new = _finish_buffer(t, H, phi, B, part, targets, seed)
        ref = _set_reference(t, H, phi, B, part, targets)
        if isinstance(new, tuple):
            emb = TransversalEmbedding(tau=new[0], sigma=new[1])
            assert verify_transversal_embedding(t.gc, PatternGraph(H.n, H.edges()), emb).ok, i
        if isinstance(new, tuple) and new[2]["finish"] == "greedy":
            seen["greedy, reference " + ("ok" if isinstance(ref[0], dict) else ref[0])] += 1
            continue
        if isinstance(ref[0], dict):
            assert isinstance(new, tuple), i
            assert {b: new[0][b] for b in B} == {b: ref[0][b] for b in B}, i
            seen["matching"] += 1
        else:
            assert isinstance(new, Failure), i
            assert (new.diagnostics["step"], new.diagnostics["deficiency"]) == ref[:2], i
            seen[ref[0]] += 1
    # 211 partial_embed passes (63 with an empty buffer) and 63 dense ones;
    # the greedy pass finishes one that the reference's colours miss
    assert len(passes) == 274 and seen == {
        "greedy, reference ok": 202, "greedy, reference buffer-colours": 1, "matching": 8,
        "buffer-colours": 40, "buffer-vertices": 23}, (len(passes), seen)


def _finish_calls(monkeypatch):
    """The (calls, result) of every ``_finish_buffer`` call from now on, with
    the ``max_bipartite_matching`` ("match") and ``colour_mask`` ("mask")
    calls that it made."""
    from transversal import embed

    counts, finishes = Counter(), []
    real_match, real_mask, real_finish = (embed.max_bipartite_matching,
                                          GraphCollection.colour_mask, embed._finish_buffer)
    monkeypatch.setattr(embed, "max_bipartite_matching",
                        lambda adj: counts.update(["match"]) or real_match(adj))
    monkeypatch.setattr(GraphCollection, "colour_mask",
                        lambda gc, u, v: counts.update(["mask"]) or real_mask(gc, u, v))

    def finish(*args):
        counts.clear()
        out = real_finish(*args)
        finishes.append((dict(counts), out))
        return out

    monkeypatch.setattr(embed, "_finish_buffer", finish)
    return finishes


def test_a_dense_finish_colours_its_buffer_without_a_colour_matching(monkeypatch):
    # a perfect matching in a dense collection whose one finish misses in
    # the greedy pass: it matches its hosts, then colours each edge on them
    # greedily, with no colour_mask call
    finishes = _finish_calls(monkeypatch)
    H = PatternGraph(60, [(2 * i, 2 * i + 1) for i in range(30)])
    gc = random_collection(GenSpec(n=60, n_colours=30, density=0.8, seed=1))
    out = quasi_embed(gc, H, PLAN, seed=1)
    assert out.ok and out.stats["path"] == "one-shot"
    assert out.stats["blowup"] == {"path": "one-shot", "finish": "matching", "attempts": 1}
    assert finishes and all(calls == {"match": 1} for calls, _ in finishes), finishes


def test_a_stuck_greedy_finish_makes_the_full_colour_matching(monkeypatch):
    # _partial_case 125: the greedy pass sticks, and so does the greedy
    # colouring on the matched hosts, so the colour matching runs on each of
    # the buffer's 4 edges' colour_mask, as before either greedy step, and
    # completes
    from transversal import embed

    finishes = _finish_calls(monkeypatch)
    t, H, phi, X, Y, targets, seed = _partial_case(125)
    part = partial_embed(t, H, phi, X, [], targets, seed=seed)
    targets = {v: set(ts) for v, ts in (targets or {}).items()}
    embed._finish_buffer(t, H, phi, sorted(Y), part, targets, seed)
    ref = _set_finish(t, H, phi, sorted(Y), part, targets)
    assert ref[2] == "kuhn"
    ((calls, out),) = finishes
    assert calls == {"match": 2, "mask": 4}
    assert out == (*ref[:2], {"path": "one-shot", "finish": "matching"})


def test_a_round_of_dense_matchings_mostly_ends_in_the_greedy_pass(monkeypatch):
    # one round of the benchmark's quasi-matching mix (perfect matchings in
    # random_collection(n, n/2, 0.8), n = 60 six times and 120 twice) with
    # fixed seeds: the greedy pass finishes 6 of the 8 operations, and the
    # two it misses make all 3 Kuhn matchings of the round (two host
    # matchings and one colour matching)
    from transversal import embed

    real, kuhn = embed.max_bipartite_matching, Counter()
    monkeypatch.setattr(embed, "max_bipartite_matching",
                        lambda adj: kuhn.update(["calls"]) or real(adj))
    rng, finishes = random.Random(1), Counter()
    for n in [60] * 6 + [120] * 2:
        gc = random_collection(GenSpec(n=n, n_colours=n // 2, density=0.8,
                                       seed=rng.getrandbits(32)))
        H = PatternGraph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
        out = quasi_embed(gc, H, PLAN, seed=rng.getrandbits(32))
        assert out.ok and out.stats["path"] == "one-shot"
        finishes[out.stats["blowup"]["finish"]] += 1
    assert (finishes, kuhn["calls"]) == ({"greedy": 6, "matching": 2}, 3)


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
    assert out.ok and out.stats["blowup"] == {"path": "one-shot", "finish": "matching",
                                              "attempts": 1}
    bfs = kwargs["setup"].bfs
    for k in range(PLAN.retries):
        sub_seed, order = _mix(kwargs["seed"], 89, k), list(bfs)
        if k % 2:
            random.Random(sub_seed).shuffle(order)
        greedy = partial_embed(t, H, phi, order, [], targets, seed=sub_seed)
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
                      m=1)
    return t, PatternGraph(3, [(0, 1), (1, 2)]), [0, 1, 0]


@pytest.mark.parametrize("c0, c1, step", [
    ((0,), (0,), "buffer-vertices"),  # host 1 meets host 2 in no colour
    ((0, 1), (), "buffer-colours"),  # both edges need colour 0
])
def test_buffer_finish_fails_typed(c0, c1, step, monkeypatch):
    # each step's failure carries its deficiency and König's set, whose
    # neighbourhood is smaller by the deficiency: buffer vertices 0 and 2
    # both need host 0, or edges 01 and 12 both need colour 0.  Every pass
    # fails, but König's set is built once, for the failure returned
    from transversal import embed

    built = []
    monkeypatch.setattr(embed, "koenig_set",
                        lambda *a: built.append(a) or koenig_set(*a))
    t, H, phi = _path_template(c0, c1)
    out = transversal_blowup(t, H, phi, None, PLAN, seed=4)
    assert not out.ok and len(built) == 1
    f = out.failure
    assert (f.stage, f.reason, f.diagnostics["step"], f.diagnostics["deficiency"]) == (
        "one-shot", "MatchingTooSmall", step, 1)
    hall_set = [0, 2] if step == "buffer-vertices" else [[0, 1], [1, 2]]
    assert (f.diagnostics["hall_set"], f.diagnostics["neighbourhood"]) == (hall_set, [0])
    assert "main" not in f.diagnostics  # no Steps 0-5 ran


@pytest.mark.parametrize("seed, finish", [(1, "matching"), (2, "greedy")])
def test_the_buffer_finish_keeps_the_target_sets(monkeypatch, seed, finish):
    # the blow-up of a quasi run on a 30-cycle, called again with a target
    # set, half its cluster, on each odd vertex: the one-shot pass buffers
    # vertices that have one, and both finishes keep them inside
    from transversal import embed

    H = PatternGraph(30, [(i, (i + 1) % 30) for i in range(30)])
    gc = random_collection(GenSpec(n=30, n_colours=30, density=0.8, seed=seed))
    _, ((t, H, phi, _, plan), kwargs) = _captured_blowup(monkeypatch, gc, H, seed)
    rng = random.Random(seed)
    targets = {v: {h for h in t.clusters[phi[v]] if rng.random() < 0.5} for v in range(1, 30, 2)}
    seen = []
    real = embed._finish_buffer

    def recorded(t, H, phi, B, part, targets, seed):
        out = real(t, H, phi, B, part, targets, seed)
        seen.append((B, targets, out))
        return out

    monkeypatch.setattr(embed, "_finish_buffer", recorded)
    out = transversal_blowup(t, H, phi, targets, plan, **kwargs)
    assert out.ok and out.stats["finish"] == finish
    B, _, (tau, _, _) = seen[-1]
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
    runs = [blowup_embed(host, clusters, H, [0, 0, 1, 1], {0: ts}, LEMMA_PLAN, seed=1)
            for ts in ({5, 6}, {-1, 5, 6}, {-1})]
    assert runs[0].ok and runs[1].tau == runs[0].tau and not runs[2].ok
    t = bip_template(8, 10, density=0.9, seed=6, d="0.4")
    H = PatternGraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    outs = [embed_prescribed_colours(t, H, [0, 1] * 4, {0: ts}, {(0, 1): [7]}, LEMMA_PLAN, seed=3)
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
        embed_prescribed_colours(t, H, [0, 1] * 4, None, {(0, 1): [7]}, LEMMA_PLAN, seed=3)


def test_prescribed_colour_named_twice_in_one_class_is_prescribed_once():
    # a colour listed twice in one class is prescribed once, on one matching edge
    t = bip_template(8, 10, density=1.0, seed=6, d="0.4")
    H = PatternGraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    out = embed_prescribed_colours(t, H, [0, 1] * 4, None, {(0, 1): [7, 7]}, LEMMA_PLAN, seed=3)
    assert out.ok and out.verification.ok
    assert out.stats["prescribed_used"] == [7] and 7 in out.embedding.sigma.values()


def test_prescribed_refuses_too_few_unprescribed_colours():
    # four of ten colours prescribed leave six, below d * 10 = 7
    t = bip_template(8, 10, density=1.0, seed=6, d="0.7")
    H = PatternGraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    out = embed_prescribed_colours(t, H, [0, 1] * 4, None, {(0, 1): [1, 3, 5, 7]}, LEMMA_PLAN,
                                   seed=3)
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
    out = embed_prescribed_colours(t, H, phi, None, {}, LEMMA_PLAN, seed=5)
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
        t, H, phi, X=[0, 1, 2, 3, 4, 5], Y=[], targets=None, seed=_mix(5, 41, 0),
    )
    assert isinstance(direct, PartialEmbedding)
    assert direct.tau == dict(out.embedding.tau)
    assert direct.sigma == dict(out.embedding.sigma)


def test_prescribed_colour_is_used():
    t = bip_template(8, 10, density=0.9, seed=6, d="0.4")
    H = PatternGraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    phi = [0, 1] * 4
    out = embed_prescribed_colours(t, H, phi, None, {(0, 1): [7]}, LEMMA_PLAN, seed=3)
    assert out.ok
    assert 7 in set(out.embedding.sigma.values())


def test_prescribed_empty_colour_graph_rejected():
    rng = random.Random(0)
    edges = {c: [(u, v) for u in range(6) for v in range(6, 12)] for c in range(5)}
    edges[4] = []
    gc = GraphCollection(12, 5, edges)
    t = make_template([range(6), range(6, 12)], {(0, 1): range(5)}, gc, d="0.5", eps="0.05",
                      m=6)
    H = PatternGraph(4, [(0, 1), (2, 3)])
    out = embed_prescribed_colours(t, H, [0, 1, 0, 1], None, {(0, 1): [4]}, LEMMA_PLAN, seed=0)
    assert not out.ok
    assert out.failure.reason == "PreconditionViolated"


# ---------------------------------------------------------------------------
# blow-up embedder


def test_blowup_complete_host_spanning():
    n = 12
    host = SimpleGraph(2 * n, [(u, v) for u in range(n) for v in range(n, 2 * n)])
    H = PatternGraph(2 * n, [(i, n + i) for i in range(n)] + [(n + i, (i + 1) % n) for i in range(n)])
    phi = [0] * n + [1] * n
    res = blowup_embed(host, [list(range(n)), list(range(n, 2 * n))], H, phi, None, LEMMA_PLAN,
                       seed=0)
    assert res.ok
    for (u, v) in H.edges():
        assert host.has_edge(res.tau[u], res.tau[v])


def test_blowup_respects_targets():
    n = 8
    host = SimpleGraph(2 * n, [(u, v) for u in range(n) for v in range(n, 2 * n)])
    H = PatternGraph(4, [(0, 2), (1, 3)])
    res = blowup_embed(
        host, [list(range(n)), list(range(n, 2 * n))], H, [0, 0, 1, 1],
        {0: {5}, 2: {9, 10}}, LEMMA_PLAN, seed=1,
    )
    assert res.ok
    assert res.tau[0] == 5 and res.tau[2] in {9, 10}


def test_blowup_isolated_host_vertex_fails_spanning():
    n = 6
    edges = [(u, v) for u in range(n) for v in range(n, 2 * n) if u != 0]
    host = SimpleGraph(2 * n, edges)
    H = PatternGraph(2 * n, [(i, n + i) for i in range(n)])  # perfect matching
    phi = [0] * n + [1] * n
    plan = LemmaPlan(blowup_restarts=6)
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
                     [0] * n + [1] * n, None, LEMMA_PLAN, seed=0)


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
                 [0] * n + [1] * n, targets, LEMMA_PLAN, seed=0)


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
    res = blowup_embed(host, [[0, 1], [2, 3, 4]], H, [0] * 3 + [1] * 3, None, LEMMA_PLAN, seed=0)
    assert not res.ok and res.failure.stage == "blowup"
    assert res.failure.reason == PRECONDITION
    assert res.failure.diagnostics == {"cluster": 0, "detail": "3 pattern vertices > 2 hosts"}


def test_blowup_deterministic():
    rng = random.Random(8)
    host = SimpleGraph(24, [(u, v) for u in range(12) for v in range(12, 24) if rng.random() < 0.7])
    H = PatternGraph(24, [(i, 12 + i) for i in range(12)])
    phi = [0] * 12 + [1] * 12
    a = blowup_embed(host, [list(range(12)), list(range(12, 24))], H, phi, None, LEMMA_PLAN, seed=5)
    b = blowup_embed(host, [list(range(12)), list(range(12, 24))], H, phi, None, LEMMA_PLAN, seed=5)
    assert a.ok == b.ok
    if a.ok:
        assert a.tau == b.tau


def _reference_blowup_embed(host, clusters, H, phi, targets, plan, seed=0, active=None):
    # the per-restart blow-up embedder, kept as the reference: every restart
    # builds its own set-up and every restart of the budget runs
    from transversal.core import pick_bit
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
            m = max_bipartite_matching({b: candidates(b, tau, used) for b in bvs})
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
    return BlowupResult(tau=tau, failure=None, restarts=attempts - 1)


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
    return res.tau, failure, res.restarts


@pytest.mark.parametrize("restarts, reserve", [(0, 0.25), (1, 0.25), (1, 0.5), (3, 0.4),
                                               (30, 0.25), (30, 0.5)])
def test_blowup_matches_the_per_restart_reference(restarts, reserve):
    import types

    # LemmaPlan refuses a budget of 0, which blowup_embed still honours
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


def test_blowup_completion_succeeds_whatever_order_it_tries_hosts_in(monkeypatch):
    # the completion's matching tries each buffer vertex's hosts lowest
    # first; with the hosts of every vertex shuffled (the list reference of
    # tests/test_matching.py) each call succeeds or fails as before, at the
    # same restart, and only the buffer vertices' hosts may move
    from test_matching import recursive_matching

    from transversal import embed

    order_rng = random.Random(0)

    def shuffled(adj):
        lists = {b: list(bits_of(m)) for b, m in adj.items()}
        for hosts in lists.values():
            order_rng.shuffle(hosts)
        return recursive_matching(lists)

    plan = LemmaPlan(blowup_restarts=3, blowup_reserve=0.5)
    rng = random.Random(38)
    seen = set()
    for case in range(300):
        host, clusters, H, phi, targets, active = _random_blowup_case(rng)
        seed = rng.randrange(1 << 30)
        want = blowup_embed(host, clusters, H, phi, targets, plan, seed=seed, active=active)
        with monkeypatch.context() as mp:
            mp.setattr(embed, "max_bipartite_matching", shuffled)
            got = blowup_embed(host, clusters, H, phi, targets, plan, seed=seed, active=active)
        assert _blowup_fields(got)[1:] == _blowup_fields(want)[1:], case
        seen.add(want.failure.diagnostics.get("phase") if want.failure else "ok")
        moved = {v for v in (want.tau or {}) if got.tau[v] != want.tau[v]}
        assert not H.edges_within(moved), case  # the buffer is independent
        seen.update(["moved"] if moved else [])
    assert seen == {"ok", "greedy", "matching", "moved"}


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
            got = blowup_embed(host, clusters, H, phi, targets, LEMMA_PLAN, seed=9)
        assert _blowup_fields(got) == _blowup_fields(
            _reference_blowup_embed(host, clusters, H, phi, targets, LEMMA_PLAN, seed=9))
        assert not got.ok and got.restarts == LEMMA_PLAN.blowup_restarts
        return got

    # clusters 0 and 1 are dense between them; no host edge reaches cluster 2
    clusters = [list(range(4)), list(range(4, 8)), list(range(8, 12))]
    H = PatternGraph(6, [(0, 2), (1, 3), (4, 5)])
    phi = [0, 0, 1, 1, 1, 2]
    dense = [(u, v) for u in range(4) for v in range(4, 8)]
    got = run(SimpleGraph(12, dense))
    assert seeded == [_mix(9, 53, LEMMA_PLAN.blowup_restarts - 1)]
    assert got.failure.diagnostics["restart"] == LEMMA_PLAN.blowup_restarts - 1
    # with one host edge from cluster 1 to cluster 2, a target set outside
    # that edge still fails every restart, but the budget runs in full
    run(SimpleGraph(12, dense + [(7, 11)]), targets={5: {10}})
    assert seeded == [_mix(9, 53, k) for k in range(LEMMA_PLAN.blowup_restarts)]


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
    plan = types.SimpleNamespace(blowup_restarts=restarts, blowup_reserve=LEMMA_PLAN.blowup_reserve)
    with monkeypatch.context() as m:
        m.setattr(embed, "random", types.SimpleNamespace(Random=Counted))
        got = blowup_embed(host, clusters, H, phi, targets, plan, seed=9)
    assert _blowup_fields(got) == _blowup_fields(
        _reference_blowup_embed(host, clusters, H, phi, targets, plan, seed=9))
    assert len(seeded) == seeds
    if seeds == 0 and restarts:
        assert got.ok and got.restarts == 0
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
                      m=10)
    return t, pairs


def test_absorber_exhaustive_flexibility():
    t, pairs = dense_incidence_template()
    ab = build_absorber(t, {(0, 1): pairs}, LEMMA_PLAN, seed=1,
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
    ab = build_absorber(t, {(0, 1): pairs}, LEMMA_PLAN, seed=2,
                        l_sizes={(0, 1): 0}, b_sizes={(0, 1): 4})
    ent = ab.per_edge[(0, 1)]
    assert len(ent.A) == len(pairs)
    m = ab.matching_for(t.gc, (0, 1), ())
    assert m is not None and len(set(m.values())) == len(pairs)


def test_absorber_complete_incidence_any_split_works():
    t, pairs = dense_incidence_template(density=1.0, seed=7)
    ab = build_absorber(t, {(0, 1): pairs}, LEMMA_PLAN, seed=3,
                        l_sizes={(0, 1): 3}, b_sizes={(0, 1): 6})
    ent = ab.per_edge[(0, 1)]
    assert ent.verified == "exhaustive"
    assert ent.subsets_checked == 20


@pytest.mark.parametrize("l_size, b_size", [(1, 15), (0, 10)])
def test_absorber_refuses_a_colour_pool_too_small(l_size, b_size):
    # 14 colours: B cannot hold 15, and A (|Z| - l = 6) does not fit beside
    # a B of 10
    t, pairs = dense_incidence_template()
    f = build_absorber(t, {(0, 1): pairs}, LEMMA_PLAN, seed=4,
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
                      m=12)
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
    out = approx_embed(t, H, phi, None, LEMMA_PLAN, seed=0)
    assert out.ok
    used = set(out.embedding.sigma.values())
    assert len(used) == 24 and K - len(used) == 8


def test_approx_empty_pattern():
    t, H, phi, K = four_cycles_fixture()
    out = approx_embed(t, PatternGraph(24, []), phi, None, LEMMA_PLAN, seed=1)
    assert out.ok and not out.embedding.sigma
    # all vertices placed
    assert len(out.embedding.tau) == 24


def test_approx_chunk_bounds_recorded():
    t, H, phi, K = four_cycles_fixture()
    out = approx_embed(t, H, phi, None, LEMMA_PLAN, seed=2)
    ch = out.stats["chunks"]
    m = 12
    delta_h = max(1, H.max_degree)
    r = 2
    if ch["s"] >= 1:
        for i, row in enumerate(ch["b"][:-1]):
            for bij in row:
                assert ch["gamma_floor"] <= bij <= 2 * (delta_h + 1) ** (2 * r - 2) * ch["gamma_floor"]
        assert ch["s"] <= max(1, round(1 / (0.5 * GAMMA)))


def test_approx_surplus_precondition():
    # 23 colours for the 24 edges of the class
    t, H, phi, K = four_cycles_fixture(k_extra=-1)
    out = approx_embed(t, H, phi, None, LEMMA_PLAN, seed=0)
    assert not out.ok and out.failure.reason == "PreconditionViolated"
    assert out.failure.diagnostics == {"edge_class": (0, 1),
                                       "detail": "fewer colours than class edges: 23 < 24"}


@pytest.mark.parametrize("entry, stage", [(approx_embed, "approx"),
                                          (lemma_blowup, "pipeline")])
def test_rainbow_stages_refuse_a_template_that_is_not_rainbow(entry, stage):
    # every pair of the three clusters takes the same two colours
    t = _kr_template(random.Random(0), 3, 2, 2, 1.0, "0.5", shared=True)
    assert not t.rainbow
    assert _kr_template(random.Random(0), 3, 2, 2, 1.0, "0.5", shared=False).rainbow
    H, phi = PatternGraph(6, [(0, 2), (3, 4), (5, 1)]), [0, 0, 1, 1, 2, 2]
    out = entry(t, H, phi, None, LEMMA_PLAN, seed=2)
    f = out.failure
    assert not out.ok and (f.stage, f.reason, f.seed) == (stage, PRECONDITION, 2)
    assert f.diagnostics == {"detail": "template must be rainbow"}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_transversal_blowup_takes_a_pooled_template(k):
    # every pair of the three clusters takes the same k colours: a pool of
    # the matching's three edges is embedded, verified, with each pool
    # colour used once; a pool of another size is refused before any pass
    t = _kr_template(random.Random(0), 3, 2, k, 1.0, "0.5", shared=True)
    assert not t.rainbow
    H, phi = PatternGraph(6, [(0, 2), (3, 4), (5, 1)]), [0, 0, 1, 1, 2, 2]
    out = transversal_blowup(t, H, phi, None, PLAN, seed=2)
    if k == 3:
        assert out.ok and out.verification.ok and out.stats["path"] == "one-shot"
        assert sorted(out.embedding.sigma.values()) == [0, 1, 2]
    else:
        f = out.failure
        assert not out.ok and (f.stage, f.reason, f.seed) == ("pipeline", PRECONDITION, 2)
        assert f.diagnostics == {"detail": f"e(H)=3 != |C|={k}"}


def test_transversal_blowup_refuses_a_class_short_of_colours():
    # a rainbow template with one colour per class, as many colours as H
    # has edges, but two edges in the class (0, 1)
    t = _kr_template(random.Random(0), 3, 2, 1, 1.0, "0.5", shared=False)
    H, phi = PatternGraph(6, [(0, 2), (1, 3), (2, 5)]), [0, 0, 1, 1, 2, 2]
    f = transversal_blowup(t, H, phi, None, PLAN, seed=2).failure
    assert (f.stage, f.reason) == ("pipeline", PRECONDITION)
    assert f.diagnostics == {"edge_class": (0, 1), "detail": "e(H class)=2 > |C_e|=1"}


def test_approx_vertex_partition_sizes_are_an_identity(monkeypatch):
    # the sizes hold whenever the chunks cover every component, so only a
    # chunking that drops one (a library defect) reaches the check
    from transversal import embed

    real = embed._chunk_components
    monkeypatch.setattr(embed, "_chunk_components",
                        lambda *args: (lambda b0, rounds: (b0[:-1], rounds))(*real(*args)))
    t, H, phi, K = four_cycles_fixture()
    with pytest.raises(embed.UnverifiedOutput, match="vertex partition sizes"):
        approx_embed(t, H, phi, None, LEMMA_PLAN, seed=0)


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
        approx_embed(t, H, phi, None, LEMMA_PLAN, seed=0)


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
    from transversal.embed import _BlowupSetup, _class_edges, _lemma_setup

    rng = random.Random(name)
    plan = LEMMA_PLAN
    if name == "matching":
        H, phi = PatternGraph(60, [(i, 30 + i) for i in range(30)]), [0] * 30 + [1] * 30
    elif name.startswith("ladder"):
        m = 30
        H, phi = _ladder_pattern(m), [(v % m + v // m) % 2 for v in range(2 * m)]
        plan = LemmaPlan(mu=float(name.rsplit("-", 1)[1]))
    else:
        H = PatternGraph(50, [(u, v) for u in range(50) for v in range(u + 1, 50)
                              if rng.random() < 0.06])
        phi = [rng.randrange(3) for _ in range(50)]
    active = set(range(H.n)) if name != "random-part" else set(rng.sample(range(H.n), 35))
    keys = sorted(_class_edges(H, phi, range(H.n)))
    setup = _lemma_setup(_BlowupSetup(_class_edges(H, phi, active), keys, H, active), phi, plan.mu)
    if name in ("matching", "ladder-mu-0.3"):  # X is empty on a matching, not on a ladder
        assert bool(setup.X) == (name != "matching")
    outside = active.difference(setup.X)
    assert setup.comps == H.components(outside)
    want_e = _class_edges(H, phi, active)
    assert list(setup.base.class_e.items()) == list(want_e.items())
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
                      d="0.6" if density < 1 else "0.8", eps="0.05", m=m)
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
    out = lemma_blowup(t, H, phi, None, LEMMA_PLAN, seed=3)
    assert out.ok and out.stats["path"] == "main"
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
                      m=m)
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


def test_quasi_colour_split_sizing(monkeypatch):
    # every class takes the one pool of all |C| colours, each used once
    from transversal import embed

    seen = []
    real = embed.transversal_blowup
    monkeypatch.setattr(embed, "transversal_blowup",
                        lambda t, *a, **k: seen.append(t) or real(t, *a, **k))
    gc = random_collection(GenSpec(n=24, n_colours=24, density=0.85, seed=3))
    edges = []
    for k in range(6):
        b = 4 * k
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b)]
    H = PatternGraph(24, edges)
    out = quasi_embed(gc, H, PLAN, seed=1)
    assert out.ok and out.verification.ok
    (pool,) = {cs for t in seen for cs in t.colour_clusters.values()}
    assert pool == tuple(range(gc.n_colours))
    assert len(seen[-1].colour_clusters) > 1 and not seen[-1].rainbow


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
    host = {"min_degree_ratio": 1.0, "triple_density": 1.0} if pipeline == "expand" else {}
    assert f.diagnostics == {"detail": "target sets are not supported by this pipeline", **host}


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
                             "padded_edges": 2, "fresh_vertices": 0,
                             "min_degree_ratio": 1.0, "triple_density": 1.0}


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
# its buffer finish, every success but seed 11's when the quasi attempts
# took the link collection itself in place of its sparsified slices, and
# the main-path seeds (2, 6, 14, 18) when the one-shot passes ran first;
# seed 0 ran its draws when quasi_embed's fixed density floors went, which
# refused it as quasi:PreconditionViolated; it now ends one-shot:CandidateExhausted.
# Seeds 6 and 16 were re-recorded when the buffer finish took each edge's
# colour greedily: only their edge images moved.  Seeds 1, 2, 6, 16 and 18
# were re-recorded when the finish first ran one greedy pass over hosts and
# colours, the matchings only when it sticks.  When the dense classes came
# to share one pool of colours in place of a random split, these moved,
# old -> new: 0 5ca76cbd6c3b252f -> 424ca8a70f0ee3df (a success since), 1
# bc9844ba541d3ad5 -> 34f1a966a4d7a6ff, 4 5a646517d02d473b ->
# d853fda0c2260caf, 5 36a55aea6101782a -> afadccdb54df1b56, 8
# 535378fbd89bc915 -> 99dc930989ead1f1, 9 274012f6a4e72565 ->
# 9aa975d870fc631a, 12 10c5457c1322aa8a -> 66fff48265a1d543, 13
# b8e2dad1972e3b58 -> 972e8ca2640e92da, 16 f2c82f2de7c04dd6 ->
# 6b62237bf8789d7b, 17 14e40b77c9d6df7c -> b94cadf684f0b420.  When the
# delta ladder went, the ladder-degenerate seeds (a matching of two edges)
# moved to one-shot successes, old -> new: 3 a9f9b86aab809213 ->
# 859e1509b3c047c4, 7 b63483a80fa39128 -> d91c512a819fe5d7, 11
# f4df615b5f36e83f -> b40268aad07975d8, 15 42dee28877efc26a ->
# be613b9af282d31a, 19 83d95142fc1d69ce -> f3602fdf4e82ebce
EXPAND_REPLAY = {
    0: "424ca8a70f0ee3df",
    1: "34f1a966a4d7a6ff",
    2: "cd32866d2d27be92",
    3: "859e1509b3c047c4",
    4: "d853fda0c2260caf",
    5: "afadccdb54df1b56",
    6: "29b3d7ee9c66897e",
    7: "d91c512a819fe5d7",
    8: "99dc930989ead1f1",
    9: "9aa975d870fc631a",
    10: "c8118f8706404dce",
    11: "b40268aad07975d8",
    12: "66fff48265a1d543",
    13: "972e8ca2640e92da",
    14: "4f71470e46b5a224",
    15: "be613b9af282d31a",
    16: "6b62237bf8789d7b",
    17: "b94cadf684f0b420",
    18: "f0423dce79afad9b",
    19: "f3602fdf4e82ebce",
}


# the main-path expansions before the one-shot passes ran first, replayed
# with quasi's blow-up run by lemma_blowup on the same seed
# (lemma_quasi_blowup): Steps 0-5 give the maps they gave then
EXPAND_MAIN_REPLAY = {
    2: "432c6e4437a7cf62",
    6: "efaf4a8340e9d91c",
    14: "47e0a8bb35f6af28",
    18: "a06491f662c53666",
}


def _expand_digest(seed):
    g, H = _expand_instance(seed)
    out = expand_embed_3graph(g, H, PLAN, seed=seed)
    if out.ok:
        record = {"v": sorted(out.vertex_images.items()),
                  "e": sorted([u, v, c] for (u, v), c in out.edge_images.items())}
    else:
        record = {"failure": f"{out.failure.stage}:{out.failure.reason}"}
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(EXPAND_REPLAY))
def test_expand_replays_the_triple_scans_outputs(seed):
    assert _expand_digest(seed) == EXPAND_REPLAY[seed]


@pytest.mark.parametrize("seed", sorted(EXPAND_MAIN_REPLAY))
def test_expand_replays_the_main_path(seed, monkeypatch):
    lemma_quasi_blowup(monkeypatch)
    assert _expand_digest(seed) == EXPAND_MAIN_REPLAY[seed]


def _quasi_instance(seed):
    """A seeded uniformly dense collection (density 0.2 for every seventh
    seed, so some runs fail, else 0.8) and a perfect matching (every fourth
    seed) or a random pattern of maximum degree 2 or 3 on 12-24 vertices."""
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
    return gc, H


def _failing_matching():
    """M5 on 10 hosts at host density 0.1, seed 0: every one-shot pass of
    every quasi attempt on seed 0 fails."""
    H = PatternGraph(10, [(2 * i, 2 * i + 1) for i in range(5)])
    return random_collection(GenSpec(n=10, n_colours=5, density=0.1, seed=0)), H


def _quasi_path(out):
    if not out.ok:
        return f"{out.failure.stage}:{out.failure.reason}"
    return out.stats["path"]


# (path, sha256 prefix of the embedding or of the failure and its
# diagnostics) of quasi_embed on _quasi_instance(seed), recorded before the
# embedders shared one induced-subgraph primitive; the table ran the
# ladder-degenerate pass, the mixed sparse/dense split and the one-shot
# passes, so seeded replay of each path stays bit for bit.  The
# one-shot entries (1, 3, 7, 9, 11, 15, 17, 18, 19, 21, 26, 27) were
# re-recorded when that pass gained its buffer finish.  Every entry but
# seeds 1-3 was re-recorded when the attempts took the host collection
# itself in place of sparsified slices; seeds 6, 13 and 27, which failed
# until then, succeed since, so the failures of seeds 90 (step
# "buffer-colours", deficiency 2) and 97 (step "buffer-vertices",
# deficiency 5) joined; each failure's diagnostics then also said why
# Steps 0-5, which ran after the one-shot passes, failed too.
# The main entries (0, 4, 8, 12, 16, 20, 23-25) were re-recorded when the
# one-shot passes ran first and settled them; QUASI_MAIN_REPLAY keeps what
# Steps 0-5 give on them.  Seeds 3, 8, 9, 11, 12, 15, 17, 18, 20, 23 and
# 26 were re-recorded when the buffer finish took each edge's colour
# greedily: only their sigma moved.  Seeds 0, 3, 4, 7, 9, 11, 12, 15, 17-19,
# 23, 24, 26 and 90 were re-recorded when the finish first ran one greedy
# pass over hosts and colours, the matchings only when it sticks; seed 90,
# whose host matching leaves no colouring, is a greedy success since.  Seed
# 97 was re-recorded when a short matching's failure gained its Hall
# witness (``hall_set`` and ``neighbourhood``), and again (72033e755603cee6
# -> 8d306a13151248d2) when Steps 0-5 left the default path: its
# diagnostics lost ``"main": "split-decided"``, and nothing else moved.
# When the dense classes came to share one pool of colours in place of a
# random split, every entry with more than one dense class moved, old ->
# new: 1 7b2d55561d3ccc27 -> 0c1b5902928d69fb, 3 8bbadfe81e3a36cd ->
# 297c26058b7ea8f6, 7 ccebca82ca1b41fc -> 674861dff3b5abc8, 9
# ecd6d717e02d95f0 -> 12e2c69140549b67, 11 eacae683de13f1c0 ->
# 4f3845b41a6c1f69, 15 839a6071fa07611d -> 18b8a6a1a4848e17, 17
# f9cb87d80ef99236 -> 2cd129cc7e180c73, 18 34c2158fd6e6b834 ->
# 9f2db0b75543e527, 19 21aeb7e77bae4ced -> ac7fecf908ba74ce, 21
# ceff394ec202c20a -> 61f748696fb467ff, 25 d9a1e106a6188b98 ->
# 172ef2756aa311d0, 26 e24cd994ebe58c3b -> 307d20a44b480fb7, 27
# c9c56a9d7ccf81a7 -> 89ad19d3d975602b, 90 3005ba851dcb7f50 ->
# a36e73c9a7d1cf50; seed 97 (one-shot:MatchingTooSmall, 8d306a13151248d2)
# succeeds since, and seed 230, whose sparse side fails, joined as the
# table's failure (no density-0.2 seed below 400 fails on the dense side).
# When the delta ladder and quasi's sparse side went, every ladder-degenerate
# and sparse-and-dense entry moved to a one-shot success, old -> new: 2
# b79ce2478c059c95 -> 12f208be61c09f1e, 5 6e108d90a4e27fc8 ->
# e59b660d55016bac, 6 e539581acc2c85a9 -> cc6d738eaa4d4977, 9
# 12e2c69140549b67 -> 4d8971f51aefab74, 10 78e48c5df3d8244c ->
# b3e8ff97509c23db, 11 4f3845b41a6c1f69 -> a5fc5392f470c94d, 13
# 68d969f0fe296146 -> 3c5dc11f68514ec5, 14 f4aac5e915ec04bd ->
# a76b12b271c11dfa, 21 61f748696fb467ff -> 01abd7e9c5aab6e9, 22
# 1c3f1021affa5778 -> 09823e6186fa956d, 27 89ad19d3d975602b ->
# d2ec17c40eb77050, 97 2f5e953c76566417 -> 3bef6135b5f28d40 and 230
# (quasi-sparse:CandidateExhausted) b56b7bba0feed7b1 -> 1df1bf16c1e6cad2;
# every other entry held.  No density-0.2 seed below 3000 fails since, so
# the table holds no failure (the tests take theirs from _failing_matching)
QUASI_REPLAY = {
    0: ("one-shot", "15a733a9da16d6ab"),
    1: ("one-shot", "0c1b5902928d69fb"),
    2: ("one-shot", "12f208be61c09f1e"),
    3: ("one-shot", "297c26058b7ea8f6"),
    4: ("one-shot", "69b8447c82090a93"),
    5: ("one-shot", "e59b660d55016bac"),
    6: ("one-shot", "cc6d738eaa4d4977"),
    7: ("one-shot", "674861dff3b5abc8"),
    8: ("one-shot", "edd12f0bd77a7ef5"),
    9: ("one-shot", "4d8971f51aefab74"),
    10: ("one-shot", "b3e8ff97509c23db"),
    11: ("one-shot", "a5fc5392f470c94d"),
    12: ("one-shot", "91620117f3f23fa1"),
    13: ("one-shot", "3c5dc11f68514ec5"),
    14: ("one-shot", "a76b12b271c11dfa"),
    15: ("one-shot", "18b8a6a1a4848e17"),
    16: ("one-shot", "a1ebb246e7a5aca9"),
    17: ("one-shot", "2cd129cc7e180c73"),
    18: ("one-shot", "9f2db0b75543e527"),
    19: ("one-shot", "ac7fecf908ba74ce"),
    20: ("one-shot", "4180e3fdeaae87be"),
    21: ("one-shot", "01abd7e9c5aab6e9"),
    22: ("one-shot", "09823e6186fa956d"),
    23: ("one-shot", "5045754d149cd143"),
    24: ("one-shot", "e8468af3de31cb68"),
    25: ("one-shot", "172ef2756aa311d0"),
    26: ("one-shot", "307d20a44b480fb7"),
    27: ("one-shot", "d2ec17c40eb77050"),
    90: ("one-shot", "a36e73c9a7d1cf50"),
    97: ("one-shot", "3bef6135b5f28d40"),
    230: ("one-shot", "1df1bf16c1e6cad2"),
}


# the main-path entries of QUASI_REPLAY before the one-shot passes ran
# first, replayed with quasi's blow-up run by lemma_blowup on the same
# seed (lemma_quasi_blowup): Steps 0-5 give the embeddings they gave then
QUASI_MAIN_REPLAY = {
    0: ("main", "09b0b69a4f28bd56"),
    4: ("main", "ceaecced790ec9f1"),
    8: ("main", "a216eee595920f2c"),
    12: ("main", "629959988a31bb32"),
    16: ("main", "4e573d06a1d4b04a"),
    20: ("main", "9ecf763400604dcb"),
    23: ("main", "d501c3347858b824"),
    24: ("main", "81032f4a1d131a76"),
    25: ("main", "f961ca68f9d31493"),
}


def _quasi_replay(seed):
    gc, H = _quasi_instance(seed)
    out = quasi_embed(gc, H, PLAN, seed=seed)
    if out.ok:
        record = {"tau": sorted(out.embedding.tau.items()),
                  "sigma": sorted([u, v, c] for (u, v), c in out.embedding.sigma.items())}
    else:
        record = {"failure": f"{out.failure.stage}:{out.failure.reason}",
                  "diag": out.failure.diagnostics}
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]
    return _quasi_path(out), digest


@pytest.mark.parametrize("seed", sorted(QUASI_REPLAY))
def test_quasi_replays_every_path(seed):
    assert _quasi_replay(seed) == QUASI_REPLAY[seed]


@pytest.mark.parametrize("seed", sorted(QUASI_MAIN_REPLAY))
def test_quasi_replays_the_main_path(seed, monkeypatch):
    lemma_quasi_blowup(monkeypatch)
    assert _quasi_replay(seed) == QUASI_MAIN_REPLAY[seed]


# (calls in a row, embedder, r, sorted colour-cluster keys, d, eps, m,
# rainbow) of the templates passed to partial_embed, approx_embed,
# embed_prescribed_colours and transversal_blowup on a main-path quasi run
# (embedded by lemma_blowup: lemma_quasi_blowup), a one-shot quasi run on
# six classes (seed 9) and an expansion; recorded from the
# templates' parameter ledgers before a template held d, eps and m itself,
# and re-recorded when the quasi templates took the host collection itself
# in place of sparsified slices (d is read off the raw pair densities, and
# the expansion succeeds on its first draw); rainbow, a declared flag when
# recorded, is read off the colour clusters since, with the same values.
# Re-recorded when d became half the host's density over its colours, read
# once per call, in place of half the least density between two V_i of the
# attempt: d went 99971/250000 -> 398853/1000000 (quasi-0, and its quarter
# and /13 stages with it: 99971/1000000 -> 398853/4000000, 99971/3250000 ->
# 30681/1000000), 393849/1000000 -> 403209/1000000 (quasi-9) and
# 263889/1000000 -> 54321/200000 (expand-1); every eps, m and call stayed.
# When the dense side's classes came to share one pool of colours in place
# of a random split, the dense templates of quasi-9 and expand-1 (several
# dense classes) stopped being rainbow (True -> False); quasi-0 has one
# dense class, whose pool is its own.  When the delta ladder and quasi's
# sparse side went, quasi-9 lost the sparse side's all-colour
# partial_embed call ahead of its blow-up, and its blow-up and one-shot
# pass took every class, K4, in place of the five dense ones, K4 less
# (1, 2); every d, eps, m and rainbow flag held
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K3 = [(0, 1), (0, 2), (1, 2)]
TEMPLATE_PIN = {
    "quasi-0": [
        (1, "transversal_blowup", 2, [(0, 1)], "398853/1000000", "1/20", "12", True),
        (1, "partial_embed", 2, [(0, 1)], "398853/1000000", "1/20", "12", True),
        (1, "approx_embed", 2, [(0, 1)], "398853/4000000", "1/5", "3", True),
        (1, "embed_prescribed_colours", 2, [(0, 1)], "398853/4000000", "1/20", "12", True),
        (1, "partial_embed", 2, [(0, 1)], "398853/4000000", "1/20", "12", True),
        (1, "approx_embed", 2, [(0, 1)], "30681/1000000", "111803399/500000000", "1", True),
    ],
    "quasi-9": [
        (1, "transversal_blowup", 4, K4, "403209/1000000", "1/20", "6", False),
        (1, "partial_embed", 4, K4, "403209/1000000", "1/20", "6", False),
    ],
    "expand-1": [
        (1, "transversal_blowup", 3, K3, "54321/200000", "1/20", "3", False),
        (1, "partial_embed", 3, K3, "54321/200000", "1/20", "3", False),
    ],
}


def test_each_embedder_reads_the_pinned_template_numbers(monkeypatch):
    from transversal import embed

    seen = []

    def record(mp, name):
        real = getattr(embed, name)

        def recorded(t, *args, **kwargs):
            seen.append((name, t.r, sorted(t.colour_clusters), str(t.d), str(t.eps), str(t.m),
                         t.rainbow))
            return real(t, *args, **kwargs)

        mp.setattr(embed, name, recorded)

    runs = {
        "quasi-0": lambda: quasi_embed(*_quasi_instance(0), PLAN, seed=0),
        "quasi-9": lambda: quasi_embed(*_quasi_instance(9), PLAN, seed=9),
        "expand-1": lambda: expand_embed_3graph(*_expand_instance(1), PLAN, seed=1),
    }
    for label, run in runs.items():
        with pytest.MonkeyPatch.context() as mp:
            if label == "quasi-0":  # the main path: recorded as the blow-up call it replaces
                lemma_quasi_blowup(mp)
            for name in ("partial_embed", "approx_embed", "embed_prescribed_colours",
                         "transversal_blowup"):
                record(mp, name)
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
    # cycle stays one component and no abs/app/col split exists: with its
    # blow-up run by the lemma, every quasi attempt fails typed at once
    # and no Steps 0-5 attempt runs; the one-shot passes embed the cycle
    H = PatternGraph(70, [(i, (i + 1) % 70) for i in range(70)])
    gc = random_collection(GenSpec(n=70, n_colours=70, density=0.8, seed=1))
    out = quasi_embed(gc, H, PLAN, seed=1)
    assert out.ok and out.verification.ok
    assert out.stats["blowup"]["path"] == "one-shot"
    calls = _count_pipeline_calls(monkeypatch)
    lemma_quasi_blowup(monkeypatch)
    f = quasi_embed(gc, H, PLAN, seed=1).failure
    assert (f.stage, f.reason) == ("split", PRECONDITION) and len(calls) == 0
    assert f.diagnostics == {"separator": 0, "components": 1, "classes": 3,
                             "detail": "the component counts rule out every split"}


def test_failure_says_the_split_was_decided(monkeypatch):
    # two matching edges are two components, one short of a split: the
    # lemma fails typed at once, with no attempt; a collection with no
    # edges fails the one-shot pass too, which names no lemma outcome
    calls = _count_pipeline_calls(monkeypatch)
    t, H, phi = matching_pipeline_fixture(m=2, density=0.0)
    f = lemma_blowup(t, H, phi, None, LEMMA_PLAN, seed=0).failure
    assert (f.stage, f.reason, f.seed) == ("split", PRECONDITION, 0) and len(calls) == 0
    assert f.diagnostics == {"separator": 0, "components": 2, "classes": 1,
                             "detail": "the component counts rule out every split"}
    out = transversal_blowup(t, H, phi, None, PLAN, seed=0)
    assert not out.ok and out.failure.stage == "one-shot"
    assert "main" not in out.failure.diagnostics and len(calls) == 0


def test_failure_names_the_last_main_attempt(monkeypatch):
    from transversal import embed

    reasons = iter(f"Reason{k}" for k in range(embed.LEMMA_RETRIES))
    monkeypatch.setattr(embed, "_pipeline_once",
                        lambda *args: Failure("step3", next(reasons), 0))
    t, H, phi = matching_pipeline_fixture(m=4, density=0.0)  # four components
    f = lemma_blowup(t, H, phi, None, LEMMA_PLAN, seed=0).failure
    assert (f.stage, f.reason) == ("step3", f"Reason{embed.LEMMA_RETRIES - 1}")


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
    lemma_quasi_blowup(monkeypatch)
    gc, H = _quasi_instance(0)
    assert _quasi_path(quasi_embed(gc, H, PLAN, seed=0)) == "main"
    assert len(calls) >= 1


def test_a_quasi_call_builds_the_blowup_setup_once(monkeypatch):
    # each of the 20 attempts of a perfect matching on 10 vertices at host
    # density 0.1, seed 0, calls transversal_blowup and fails (_quasi_instance
    # seed 97 did until the dense classes shared one colour pool); the
    # set-up is built once for all, its pattern view at most once, and no
    # separator certificate or split decision, which only Steps 0-5 read
    from transversal import embed

    counts = dict.fromkeys(("setup", "view", "certificate", "decided", "blowup"), 0)

    def count(name, attr, only=lambda *a: True):
        real = getattr(embed, attr)

        def counted(*args, **kwargs):
            counts[name] += only(*args)
            return real(*args, **kwargs)

        monkeypatch.setattr(embed, attr, counted)

    count("setup", "_BlowupSetup")
    # the vertex sets the BFS orders are built on, and the blow-up's set-up
    bfs_sets, setups = [], []
    real_bfs, real_setup = embed._bfs_order, embed._BlowupSetup
    monkeypatch.setattr(embed, "_bfs_order",
                        lambda G, vs: bfs_sets.append((G, set(vs))) or real_bfs(G, vs))
    monkeypatch.setattr(embed, "_BlowupSetup",
                        lambda *args: setups.append(real_setup(*args)) or setups[-1])
    count("view", "_pattern_view", only=lambda H, active, targets=None: targets is None)
    count("certificate", "separability_certificate")
    count("decided", "_split_decided")
    count("blowup", "transversal_blowup")
    gc, H = _failing_matching()
    out = quasi_embed(gc, H, PLAN, seed=0)
    assert not out.ok and "main" not in out.failure.diagnostics
    assert counts["certificate"] == counts["decided"] == 0 and counts["view"] <= 1
    assert {k: counts[k] for k in ("setup", "blowup")} == {"setup": 1, "blowup": PLAN.retries}
    # every attempt took the one-shot passes, over one BFS order for all,
    # the active vertices' in H, which is the view's BFS order relabelled
    (setup,) = setups
    assert out.failure.stage == "one-shot" and bfs_sets.count((H, setup.active)) == 1
    view = setup.view
    assert setup.bfs == [view.to_global[v] for v in real_bfs(view.pattern, range(view.pattern.n))]


def test_a_one_shot_success_over_all_of_H_builds_no_pattern_copy(monkeypatch):
    # seed 0 (a perfect matching) succeeds on a one-shot pass over all of
    # H: its class edges are built once, by _quasi_setup, and it is
    # verified on H itself, with no pattern view
    from transversal import embed

    calls = Counter()
    for name in ("_class_edges", "_pattern_view"):
        real = getattr(embed, name)
        monkeypatch.setattr(embed, name, lambda *a, real=real, name=name, **k:
                            calls.update([name]) or real(*a, **k))
    gc, H = _quasi_instance(0)
    out = quasi_embed(gc, H, PLAN, seed=0)
    assert out.ok and out.stats["path"] == "one-shot"
    assert sorted(out.stats) == ["blowup", "path", "template"]
    assert calls == {"_class_edges": 1}


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
    lemma_quasi_blowup(monkeypatch)
    gc, H = _quasi_instance(0)  # the main path
    with pytest.raises(UnverifiedOutput, match="colour conservation violated on the main path"):
        quasi_embed(gc, H, PLAN, seed=0)


def _outcome_record(out):
    """The outcome and stats of a quasi run, as one comparable value."""
    if not out.ok:
        return repr((out.failure.stage, out.failure.reason, out.failure.diagnostics))
    return repr((sorted(out.embedding.tau.items()), sorted(out.embedding.sigma.items()),
                 out.stats))


@pytest.mark.parametrize("seed, skip_one_shot", [
    (0, False), (1, False), (2, False), (9, False), (20, False), (69, False), (6, False),
    (27, False), (230, False), (None, False), (0, True), (20, True), (90, True)], ids=[
    "main", "one-shot", "ladder-degenerate", "mixed", "main-0.2", "one-shot-0.2",
    "ladder-degenerate-0.2", "mixed-0.2", "failure-0.2", "one-shot-failure", "steps",
    "steps-0.2", "steps-failure-0.2"])
def test_quasi_templates_take_the_callers_collection(monkeypatch, seed, skip_one_shot):
    # every template of the run holds the caller's collection itself, and
    # no step of an attempt reads an edge inside a part: an attempt whose
    # templates hold only the edges between two of its parts V_i, spliced in
    # right after the draw, gives the same run, on host density 0.8 and on
    # 0.2 (d is read once per call, before any draw, off the caller's colour
    # edge counts; the stripped collection replaces the caller's before any
    # embedding step).  The ids name the path each seed took when it was
    # chosen, while a delta ladder split quasi's pairs into sparse and dense
    # ones; every seed takes the one-shot passes since, seed 230 (whose
    # sparse side failed) too, and _failing_matching fails each of them.
    # The "steps" ids embed H by lemma_blowup (lemma_quasi_blowup): Steps
    # 0-5 then embed seeds 0 and 20, and fail on seed 90 at Step 1
    from transversal import embed

    if skip_one_shot:
        lemma_quasi_blowup(monkeypatch)
    if seed is None:  # the failing matching, on run seed 0
        (gc, H), seed = _failing_matching(), 0
    else:
        gc, H = _quasi_instance(seed)
    held = []
    real_template = embed.make_template
    monkeypatch.setattr(embed, "make_template",
                        lambda V, cc, g, *a, **k: held.append(g) or real_template(V, cc, g, *a, **k))
    out = quasi_embed(gc, H, PLAN, seed=seed)
    assert held and all(g is gc for g in held)
    if skip_one_shot:  # Steps 0-5 ran
        f = out.failure
        ran = out.stats["blowup"]["path"] if out.ok else f"{f.stage}:{f.reason}"
        assert ran == ("step1:EmbeddingFailed" if seed == 90 else "main")

    def between_parts(run):
        part_of = {v: i for i, part in enumerate(run.V) for v in part}
        masks, hosts = [mask_of(part) for part in run.V], mask_of(part_of)
        run.gc = GraphCollection.from_rows(gc.n, [
            [row & hosts & ~masks[part_of[v]] if v in part_of else 0
             for v, row in enumerate(rows)]
            for rows in gc.rows])
        assert run.gc.total_edge_count() < gc.total_edge_count()

    draw, *steps = embed._QUASI_STEPS
    assert draw is embed._quasi_draw
    monkeypatch.setattr(embed, "_QUASI_STEPS", (draw, between_parts, *steps))
    held.clear()
    stripped = quasi_embed(gc, H, PLAN, seed=seed)
    assert held and not any(g is gc for g in held)
    assert _outcome_record(stripped) == _outcome_record(out)


def _half_host_density(gc):
    """The templates' d: half the host's edges over |C| * C(n, 2), at least
    0.05, rounded to 6 places, as an exact fraction."""
    density = gc.total_edge_count() / (gc.n_colours * math.comb(gc.n, 2))
    return Fraction(str(round(max(0.05, density / 2), 6)))


def _record_templates(monkeypatch):
    """The (d, eps, m) of every template ``make_template`` builds in embed."""
    from transversal import embed

    seen = []
    real = embed.make_template

    def recorded(*args, **kwargs):
        t = real(*args, **kwargs)
        seen.append((t.d, t.eps, t.m))
        return t

    monkeypatch.setattr(embed, "make_template", recorded)
    return seen


def test_every_failing_quasi_attempt_takes_the_same_template_numbers(monkeypatch):
    # M5 at host density 0.1, seed 0, fails every attempt: each one's
    # templates carry the call's d, eps and m, d read once off the host
    seen = _record_templates(monkeypatch)
    gc, H = _failing_matching()
    out = quasi_embed(gc, H, PLAN, seed=0)
    assert not out.ok and out.failure.stage == "one-shot"
    assert len(seen) >= PLAN.retries
    assert set(seen) == {(_half_host_density(gc), Fraction(1, 20), Fraction(5))}


def test_a_two_vertex_host_embeds_its_edge():
    # one colour, one pair: the host's density is 1, so d is 1/2
    gc = GraphCollection(2, 1, {0: [(0, 1)]})
    out = quasi_embed(gc, PatternGraph(2, [(0, 1)]), PLAN, seed=0)
    assert out.ok and out.verification.ok
    assert out.stats["template"] == {"d": "1/2", "eps": "1/20", "m": "1"}


# a perfect matching and two random patterns (seeds 2 and 9 took the
# ladder-degenerate and the sparse-and-dense paths while quasi had them)
@pytest.mark.parametrize("seed", [0, 2, 9])
def test_every_quasi_success_reports_its_template_numbers(monkeypatch, seed):
    seen = _record_templates(monkeypatch)
    gc, H = _quasi_instance(seed)
    out = quasi_embed(gc, H, PLAN, seed=seed)
    assert out.ok and _quasi_path(out) == QUASI_REPLAY[seed][0]
    [(d, eps, m)] = set(seen)
    assert d == _half_host_density(gc)
    assert out.stats["template"] == {"d": str(d), "eps": str(eps), "m": str(m)}


def test_quasi_unbalanceable_colouring_is_reported(monkeypatch):
    from transversal import embed
    from transversal.embed import UNBALANCEABLE, EquitableColouring

    monkeypatch.setattr(embed, "equitable_colouring",
                        lambda H, r, seed=0: EquitableColouring(((),) * r, False, 0))
    gc = random_collection(GenSpec(n=12, n_colours=6, density=1.0, seed=1))
    H = PatternGraph(12, [(2 * i, 2 * i + 1) for i in range(6)])
    f = quasi_embed(gc, H, PLAN, seed=4).failure
    assert (f.stage, f.reason, f.seed) == ("quasi", UNBALANCEABLE, 4)


@pytest.mark.parametrize("ladder", [{"ladder_ratio": math.nan}, {"ladder_base": math.nan},
                                    {"ladder_base": 0, "ladder_ratio": math.inf},
                                    {"ladder_base": -math.inf}])
def test_split_plan_rejects_a_non_finite_ladder(ladder):
    # the delta ladder is no SplitPlan field since quasi stopped splitting
    # its pairs of parts: a value for one, finite or not, is refused by name
    with pytest.raises(TypeError, match="unexpected keyword argument 'ladder_(base|ratio)'"):
        SplitPlan(**ladder)


@pytest.mark.parametrize("fields, message", [
    ({"p_abs": 0.0}, r"split probabilities must lie in \(0,1\)"),
    ({"p_col": 1.0}, r"split probabilities must lie in \(0,1\)"),
    ({"p_abs": 0.5, "p_col": 0.35}, "p_app must stay positive"),  # p_app = 0
    ({"p_abs": 0.5, "p_col": 0.4}, "p_app must stay positive"),
], ids=["p_abs=0", "p_col=1", "p_app=0", "p_app<0"])
def test_split_plan_refuses_a_field_out_of_range(fields, message):
    # the split shares are LemmaPlan fields
    with pytest.raises(ValueError, match=f"^{message}$"):
        LemmaPlan(**fields)


_PLANS = (SplitPlan, LemmaPlan)
_COUNTS = ["retries", "blowup_restarts", "approx_retries"]


def _field_names(plan):
    return {f.name for f in dataclasses.fields(plan)}


def test_the_plans_share_no_field():
    # SplitPlan holds what the default path reads, LemmaPlan what Steps 0-5
    # and their stage embedders read; their retry budgets are constants
    assert _field_names(SplitPlan) == {"eps", "retries"}
    assert len(_field_names(LemmaPlan)) == 9
    assert not _field_names(SplitPlan) & _field_names(LemmaPlan)


@pytest.mark.parametrize("field", _COUNTS)
@pytest.mark.parametrize("value", [2.5, 2.0, True, False, 0, -3, "2", None])
def test_split_plan_refuses_a_retry_count_that_is_not_an_int_of_one_or_more(field, value):
    # retries is SplitPlan's count, the other two LemmaPlan's
    for plan in (cls for cls in _PLANS if field in _field_names(cls)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1"):
            plan(**{field: value})


@pytest.mark.parametrize("value", [-1, 0.0, 1.5, True, None])
def test_split_plan_refuses_an_exhaustive_cap_that_is_not_an_int_of_zero_or_more(value):
    with pytest.raises(ValueError, match="^absorber_exhaustive_cap must be an integer >= 0"):
        LemmaPlan(absorber_exhaustive_cap=value)


def test_split_plan_takes_the_least_counts():
    plan = LemmaPlan(blowup_restarts=1, approx_retries=1, absorber_exhaustive_cap=0)
    assert (plan.blowup_restarts, plan.approx_retries, plan.absorber_exhaustive_cap) == (1, 1, 0)
    assert SplitPlan(retries=1).retries == 1


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
                      m=10)
    ab = build_absorber(t, {(0, 1): pairs}, LEMMA_PLAN, seed=2,
                        l_sizes={(0, 1): 4}, b_sizes={(0, 1): 45})
    assert hasattr(ab, "per_edge")
    ent = ab.per_edge[(0, 1)]
    assert ent.verified == "sampled"
    assert ent.subsets_checked == ABSORBER_SAMPLES


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
    t = make_template(clusters, colour_clusters, gc, d="0.5", eps="0.05", m=m)
    assert transversal_blowup(t, H, phi, None, PLAN, seed=1).stats["path"] == "one-shot"
    out = lemma_blowup(t, H, phi, None, LEMMA_PLAN, seed=1)  # the lemma carries it too
    assert out.ok
    assert sorted(out.embedding.sigma.values()) == list(range(cid))
    assert out.stats["path"] == "main"


def _cls_key(phi, u, v):
    a, b = phi[u], phi[v]
    return (a, b) if a < b else (b, a)
