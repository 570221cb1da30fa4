"""Exact brute-force solvers used as ground truth.

The transversal embedder and the copy counter run one backtracking search
over injective vertex images (``_search``).  The embedder never branches on
colours: an injective colour assignment exists for the currently completed
pattern edges iff the bipartite edge/colour incidence graph has a matching
saturating the edges, so a matching check per node replaces colour
branching entirely and makes Infeasible a genuine proof within budget.

The budget counts search nodes only, so results are deterministic and
budget-monotone: raising a budget can only turn BudgetExceeded into a
definite answer, never flip feasible/infeasible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    GraphCollection,
    PatternGraph,
    ThreeGraph,
    TransversalEmbedding,
    UnverifiedOutput,
    bits_of,
    verify_transversal_embedding,
)
from .matching import max_bipartite_matching

FEASIBLE = "feasible"
EXACT = "exact"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = 2_000_000

    def __post_init__(self):
        if self.node_limit <= 0:
            raise ValueError("node limit must be positive")


@dataclass
class OracleResult:
    status: str
    embedding: TransversalEmbedding | None = None
    nodes: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


class _Clock:
    def __init__(self, budget: SearchBudget):
        self.limit = budget.node_limit
        self.nodes = 0

    def tick(self) -> bool:
        """Allow one more node, counting it, unless the node budget is
        spent; a refused tick is not counted."""
        if self.nodes >= self.limit:
            return False
        self.nodes += 1
        return True


def _connected_order(H: PatternGraph) -> list[int]:
    # max-adjacency-to-placed order, highest degree first among ties
    order: list[int] = []
    placed: set[int] = set()
    remaining = set(range(H.n))
    while remaining:
        best = max(
            remaining,
            key=lambda v: (sum(1 for w in H.neighbours(v) if w in placed), H.degree(v), -v),
        )
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    return order


def _edge_colours(edge_avail: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """A maximum matching of the edges to their available colours (each a
    mask, tried ascending): an injective colouring when it matches all."""
    return max_bipartite_matching(edge_avail)


def _search(gc: GraphCollection, H: PatternGraph, targets, clock: _Clock, forward: bool, leaf):
    """The backtracking over injective vertex images that both oracles run.

    Vertices go in ``_connected_order``; one with a set in ``targets`` tries
    its hosts in range ascending, any other every host.  Each host tried is a
    node on ``clock``.  A host is skipped when an edge to a placed neighbour
    has no colour, and with ``forward`` also when the edges placed so far
    have no injective colouring (``_edge_colours``).  ``leaf(tau, avail)``
    sees each complete map with every edge's colour mask, in placement order,
    and returns False to go on or a value to stop with (not None).  The
    result is that value, False when the search ran to the end, or None when
    the node budget ran out.
    """
    order = _connected_order(H)
    tau: dict[int, int] = {}
    used: set[int] = set()
    avail: dict[tuple[int, int], int] = {}

    def place(i: int):
        if i == len(order):
            return leaf(tau, avail)
        v = order[i]
        cand = targets.get(v)
        for w in sorted(cand) if cand is not None else range(gc.n):
            if w in used or not 0 <= w < gc.n:
                continue
            if not clock.tick():
                return None
            new = [((u, v) if u < v else (v, u), gc.colour_mask(tau[u], w))
                   for u in H.neighbours(v) if u in tau]
            if not all(m for _, m in new):
                continue
            tau[v] = w
            used.add(w)
            avail.update(new)
            if not (forward and new) or len(_edge_colours(avail)) == len(avail):
                res = place(i + 1)
                if res is not False:
                    return res
            for e, _ in new:
                del avail[e]
            used.discard(w)
            del tau[v]
        return False

    return place(0)


def exact_transversal_embed(
    gc: GraphCollection, H: PatternGraph, budget: SearchBudget = SearchBudget()
) -> OracleResult:
    """``_search`` with the matching-based forward check, stopped at its
    first complete map, whose sigma is ``_edge_colours`` of the edges' masks;
    a vertex with a target set in ``H.targets`` tries only those hosts.  The
    embedding is verified, and one the verifier rejects raises
    ``UnverifiedOutput``.  Intended for v(H) <= 12, |C| <= 14."""
    if H.e > gc.n_colours or H.n > gc.n:
        return OracleResult(INFEASIBLE)
    clock = _Clock(budget)
    emb = _search(gc, H, H.targets or {}, clock, True,
                  lambda tau, avail: TransversalEmbedding(dict(tau), _edge_colours(avail)))
    if emb is None:
        return OracleResult(BUDGET_EXCEEDED, nodes=clock.nodes)
    if emb is False:
        return OracleResult(INFEASIBLE, nodes=clock.nodes)
    rep = verify_transversal_embedding(gc, H, emb)
    if not rep.ok:
        raise UnverifiedOutput(f"oracle embedding failed verification: {rep.violations}")
    return OracleResult(FEASIBLE, embedding=emb, nodes=clock.nodes)


def _automorphism_count(F: PatternGraph) -> int:
    edges = set(F.edges())
    count = 0
    for perm in itertools.permutations(range(F.n)):
        if all(
            ((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])) in edges
            for (u, v) in edges
        ):
            count += 1
    return count


def _count_colour_systems(edge_masks) -> int:
    """Number of injective colour assignments (systems of distinct
    representatives) of the colour masks, by DP over them keyed by the mask
    of colours used."""
    states: dict[int, int] = {0: 1}
    for m in edge_masks:
        nxt: dict[int, int] = {}
        for used, ways in states.items():
            for b in bits_of(m & ~used):
                key = used | (1 << b)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
        if not states:
            return 0
    return sum(states.values())


@dataclass
class CountResult:
    count: int
    labelled: int
    automorphisms: int
    nodes: int
    status: str
    convention: str = "labelled (tau, sigma) pairs divided by |Aut(F)|"


def count_rainbow_copies(
    gc: GraphCollection, F: PatternGraph, budget: SearchBudget = SearchBudget()
) -> CountResult:
    """Transversal-copy count, up to F-automorphism; intended for v(F) <= 5.

    Runs ``_search`` without the forward check, adding
    ``_count_colour_systems`` of each complete map's edge masks to the
    labelled (tau, sigma) pairs, and divides by |Aut(F)|.  A
    finished search has status ``"exact"`` (also for a count of 0).  A
    search stopped by its budget has status ``"budget-exceeded"`` and
    ``count`` = ceil(labelled / |Aut(F)|) of the pairs found so far: a
    lower bound, since every copy has exactly |Aut(F)| labelled versions.
    A pattern with target sets (``F.targets``) is refused with ValueError
    before any search: the count is of copies with no target sets.
    """
    if F.n > 8:
        raise ValueError("copy counting is intended for small patterns")
    if F.targets:
        raise ValueError("copy counting does not support target sets")
    aut = _automorphism_count(F)
    clock = _Clock(budget)
    labelled = 0

    def add(tau, avail) -> bool:
        nonlocal labelled
        labelled += _count_colour_systems(avail.values())
        return False

    if _search(gc, F, {}, clock, False, add) is None:
        return CountResult(-(-labelled // aut), labelled, aut, clock.nodes, BUDGET_EXCEEDED,
                           "labelled (tau, sigma) pairs found so far divided by |Aut(F)|, "
                           "rounded up: a lower bound")
    if labelled % aut:
        raise AssertionError(f"{labelled} labelled copies, not a multiple of |Aut| = {aut}")
    return CountResult(labelled // aut, labelled, aut, clock.nodes, EXACT)


def monochromatic_triangle_count(gc: GraphCollection) -> int:
    """Exhaustive count of (triple, colour) pairs forming a one-colour triangle."""
    total = 0
    for c in range(gc.n_colours):
        for u in range(gc.n):
            au = gc.adj(c, u)
            for v in bits_of(au >> (u + 1) << (u + 1)):
                common = au & gc.adj(c, v)
                total += (common >> (v + 1)).bit_count()
    return total


@dataclass
class HamiltonResult:
    status: str
    cycle: tuple[int, ...] | None = None
    nodes: int = 0


def tight_hamilton_search(
    g: ThreeGraph, budget: SearchBudget = SearchBudget()
) -> HamiltonResult:
    """Backtracking over cyclic vertex orders in which every three consecutive
    vertices form an edge.  Intended for v(g) <= 15."""
    n = g.n
    if n < 3:
        return HamiltonResult(INFEASIBLE)
    edges = g.edges
    clock = _Clock(budget)
    order = [0]
    used = [False] * n
    used[0] = True

    def extend() -> bool | None:
        if len(order) == n:
            a, b = order[-2], order[-1]
            if order[1] > order[-1]:
                return False  # reflection symmetry: keep one orientation
            if (
                tuple(sorted((a, b, order[0]))) in edges
                and tuple(sorted((b, order[0], order[1]))) in edges
            ):
                return True
            return False
        for v in range(1, n):
            if used[v]:
                continue
            if not clock.tick():
                return None
            if len(order) >= 2 and tuple(sorted((order[-2], order[-1], v))) not in edges:
                continue
            order.append(v)
            used[v] = True
            res = extend()
            if res:
                return True
            if res is None:
                return None
            used[v] = False
            order.pop()
        return False

    res = extend()
    if res is None:
        return HamiltonResult(BUDGET_EXCEEDED, nodes=clock.nodes)
    if res:
        return HamiltonResult(FEASIBLE, cycle=tuple(order), nodes=clock.nodes)
    return HamiltonResult(INFEASIBLE, nodes=clock.nodes)
