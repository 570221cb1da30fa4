"""Seeded digests of the weak-regularity results on GraphCollection slices.

Each digest is a sha256 prefix of the repr of everything a call returns, so
a change to the density, witness, typical-element or partition code that
moves any seeded result (a subset, a Fraction, a float of the energy
history, a pruned row) fails here.  The slices cover exhaustive and sampled
witness searches, with and without a witness, and slices whose V_2 is one
vertex; the partitions cover the four inputs of acceptance criterion 11 and
seeded collections that run both refinement and pruning.
"""

import hashlib
import random

import pytest

from transversal.core import GraphCollection
from transversal.generators import GenSpec, random_collection
from transversal.regularity import (
    DensitySpec,
    density,
    irregularity_witness,
    partition_collection,
    typical_elements,
)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _pin_slice(seed):
    """A collection with sparse and dense vertices and colours, a slice
    (V1, V2, colours) of it with unsorted parts, a spec and a budget.  By
    seed % 4 the slice is at most 8 x 8 (exhaustive), has more than 8
    vertices in V1 (sampled), has one vertex in V2, or has more than 8
    vertices in V2 (sampled)."""
    rng = random.Random(seed)
    kind = seed % 4
    if kind == 0:
        a, b = rng.randint(1, 8), rng.randint(1, 8)
    elif kind == 1:
        a, b = rng.randint(9, 14), rng.randint(2, 10)
    elif kind == 2:
        a, b = rng.randint(6, 12), 1
    else:
        a, b = rng.randint(1, 8), rng.randint(9, 12)
    n, K = a + b + rng.randint(0, 4), rng.randint(1, 10)
    weight = [rng.choice([0.15, 0.9]) for _ in range(n)]
    cweight = [rng.choice([0.3, 1.0]) for _ in range(K)]
    gc = GraphCollection(n, K, {
        c: [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < weight[u] * weight[v] * cweight[c]]
        for c in range(K)
    })
    verts = rng.sample(range(n), n)
    colours = rng.sample(range(K), rng.randint(1, K))
    spec = DensitySpec(d=rng.choice([0.2, 0.4, 0.6]), epsilon=rng.choice([0.1, 0.2, 0.3, 0.45]))
    return gc, (verts[:a], verts[a : a + b], colours), spec, rng.choice([20, 60])


def _witness_fields(res):
    w = res.witness
    found = None if w is None else (w.subsets, w.observed, w.reference, w.deviation)
    return found, res.exhaustive, res.proof, res.samples, res.budget_exhausted


def _slice_results(seed):
    gc, (V1, V2, colours), spec, budget = _pin_slice(seed)
    res = irregularity_witness(gc, (V1, V2, colours), spec, budget=budget, seed=seed)
    te = typical_elements(gc, V1, V2, spec)
    typical = (te.atypical_vertices, te.atypical_colours, te.vertex_threshold,
               te.colour_threshold, te.regularity_spot_check)
    return density(gc, (V1, V2, colours)), _witness_fields(res), typical


SLICE_PINS = {
    0: "3b6148fa7476ee99", 1: "eeb8f78654494224", 2: "06230f6ff7dea95e", 3: "dd6ee1f50829318e",
    4: "ea4177ab4284fc4f", 5: "673d0ffae16d5e8b", 6: "29b7142c0b7bf2c6", 7: "ed5f4a8a86e0b32f",
    8: "07648733861ced00", 9: "8e95a598345d76dc", 10: "6a9a8f3dde5a4d7e", 11: "d06bcf15cda5be91",
    12: "c33ffcc2411ff167", 13: "c500d64c0ff01475", 14: "0fb4e4265ad67273", 15: "b52c2db89ffa1465",
    16: "6550b7f24b8ff6bb", 17: "785794d76e446713", 18: "a74fa8896a5c279c", 19: "496b25bdc92a8431",
    20: "1b13c07468e413c4", 21: "5838b8dc4f62aabf", 22: "548c2e29f0684a02", 23: "870d028bfa6bbfb4",
    24: "a4428d4a138f8158", 25: "5817b513d9542016", 26: "c86892de5c552a37", 27: "445095b037eb1b9d",
    28: "44c9dfb3e036cb24", 29: "a871a06b5833cf17", 30: "81ae11ed96283a52", 31: "69536f4682a2dde9",
    32: "5f1735eed1a4d9f9", 33: "439df477196b7bcd", 34: "a3107270197fc1dc", 35: "581acf09c9234786",
    36: "8aa8d1f93dce283f", 37: "887816de48c8a815", 38: "3927151089e5f9a3", 39: "a75d6e58f4d20a40",
    40: "483d48637e70b226", 41: "81d04bfe6c1c5470", 42: "9783b4f6a596ab3e", 43: "eeefac84720d82b6",
    44: "65b0effdb06e394f", 45: "09d2d5ea328bcfc6", 46: "dcc062edba4921fd", 47: "1899a40146fd4ba4",
    48: "a83f86074af04985", 49: "62a82985d52bd0b6",
}


@pytest.mark.parametrize("seed", sorted(SLICE_PINS))
def test_slice_results_are_pinned(seed):
    assert _digest(_slice_results(seed)) == SLICE_PINS[seed]


def test_pinned_slices_cover_every_search():
    """The pinned slices run exhaustive and sampled searches that both find
    and miss a witness, and exhaustive searches with one vertex in V2 and
    9 to 12 in V1."""
    seen = set()
    for seed in SLICE_PINS:
        gc, (V1, V2, colours), spec, budget = _pin_slice(seed)
        res = irregularity_witness(gc, (V1, V2, colours), spec, budget=budget, seed=seed)
        seen.add((res.exhaustive, res.witness is not None))
        if len(V2) == 1 and len(V1) >= 9:
            assert res.exhaustive
            seen.add("one-vertex V2")
    assert seen == {(True, True), (True, False), (False, True), (False, False), "one-vertex V2"}


def _blocky(seed, n, K):
    """Two hidden vertex blocks: pairs inside a block, and every pair in each
    third colour, are edges with probability 0.9; the rest with 0.1."""
    rng = random.Random(seed)
    side = [rng.randrange(2) for _ in range(n)]
    return GraphCollection(n, K, {
        c: [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < (0.9 if side[u] == side[v] or c % 3 == 0 else 0.1)]
        for c in range(K)
    })


def _complete(n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return GraphCollection(n, n, {c: edges for c in range(n)})


def _two_blocks(n):
    half = n // 2
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u < half) == (v < half)]
    return GraphCollection(n, n, {c: edges for c in range(n)})


# (collection, d, epsilon, L0, seed, max_rounds): the four inputs of
# acceptance criterion 11 with its seeds, then blocky collections that
# refine and prune with exhaustive checks (16 and, cut after one round, 30
# vertices) or with sampled checks (36 vertices)
PARTITION_CASES = {
    "complete-12": (lambda: _complete(12), 0.5, 0.25, 3, 0, None),
    "two-blocks-12": (lambda: _two_blocks(12), 0.4, 0.2, 2, 1, None),
    "random-16": (lambda: random_collection(GenSpec(16, 16, 0.7, 3)), 0.3, 0.3, 3, 2, None),
    "random-18": (lambda: random_collection(GenSpec(18, 18, 0.8, 5)), 0.3, 0.3, 3, 3, None),
    "blocky-16": (lambda: _blocky(0, 16, 12), 0.3, 0.3, 3, 0, None),
    "blocky-30-cut": (lambda: _blocky(1, 30, 10), 0.4, 0.35, 3, 1, 1),
    "blocky-36-sampled": (lambda: _blocky(2, 36, 12), 0.3, 0.3, 2, 2, 2),
}

PARTITION_PINS = {
    "complete-12": "ac200ba0ade65bf0",
    "two-blocks-12": "e12dd0b5c8ac4fc8",
    "random-16": "464a3540a77b5078",
    "random-18": "abc0b1083c349f63",
    "blocky-16": "35c39b91ad462178",
    "blocky-30-cut": "61fec08922c98f5b",
    "blocky-36-sampled": "f929576838b36d5e",
}


def _partition_results(name):
    make, d, eps, L0, seed, max_rounds = PARTITION_CASES[name]
    gc = make()
    part = partition_collection(gc, DensitySpec(d=d, epsilon=eps), L0=L0, seed=seed,
                                max_rounds=max_rounds)
    pruned_rows = [[part.pruned.adj(c, v) for v in range(gc.n)] for c in range(gc.n_colours)]
    return (
        part.v_clusters, part.v_exceptional, part.c_clusters, part.c_exceptional,
        part.m, part.converged, part.rounds, part.energy_history, pruned_rows,
        [R.edges() for R in part.reduced], part.diagnostics,
    )


@pytest.mark.parametrize("name", sorted(PARTITION_CASES))
def test_partition_results_are_pinned(name):
    assert _digest(_partition_results(name)) == PARTITION_PINS[name]


def test_pinned_partitions_refine_and_prune():
    """The blocky partitions refine (rounds > 0) and prune a triple away,
    with exhaustive and with sampled checks."""
    refined, pruned_by = 0, set()
    for name in ("blocky-16", "blocky-30-cut", "blocky-36-sampled"):
        make, d, eps, L0, seed, max_rounds = PARTITION_CASES[name]
        part = partition_collection(make(), DensitySpec(d=d, epsilon=eps), L0=L0, seed=seed,
                                    max_rounds=max_rounds)
        refined += part.rounds > 0
        if any(R.e < part.L * (part.L - 1) // 2 for R in part.reduced):
            pruned_by.update(k for k, v in part.diagnostics["triple_stamps"].items() if v)
    assert refined == 2 and pruned_by == {"exhaustive", "sampled"}
