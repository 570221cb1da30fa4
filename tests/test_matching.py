import random

from hypothesis import given, settings
from hypothesis import strategies as st

from transversal.core import bits_of, mask_of
from transversal.matching import koenig_set, max_bipartite_matching, perfect_matching


def recursive_matching(adj):
    """Kuhn's algorithm on neighbour lists with a recursive augmenting-path
    search: the reference the iterative mask implementation must reproduce
    exactly when each list is ascending."""
    pair_left, pair_right = {}, {}
    neigh = {u: list(vs) for u, vs in adj.items()}

    def try_augment(u, seen):
        for v in neigh[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in pair_right or try_augment(pair_right[v], seen):
                pair_left[u] = v
                pair_right[v] = u
                return True
        return False

    for u in neigh:
        if u not in pair_left:
            try_augment(u, set())
    return pair_left


def test_long_chain_needs_no_recursion():
    # left i -> {i-1, i}, from n-1 down: each takes i-1, its lowest, and the
    # last left vertex displaces every earlier one, an augmenting path of
    # length n that overflows a recursive search
    n = 1200
    adj = {i: mask_of(j for j in (i - 1, i) if j >= 0) for i in reversed(range(n))}
    m = max_bipartite_matching(adj)
    assert m == {i: i for i in range(n)}
    assert perfect_matching(adj) == m


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 9),
    st.integers(0, 9),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_matches_recursive_reference(n_left, n_right, p, seed):
    rng = random.Random(seed)
    adj = {}
    for u in rng.sample(range(100), n_left):
        adj[u] = mask_of(v for v in range(n_right) if rng.random() < p)
    got = max_bipartite_matching(adj)
    want = recursive_matching({u: list(bits_of(m)) for u, m in adj.items()})
    assert got == want
    assert list(got.items()) == list(want.items())


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 9),
    st.integers(0, 9),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_koenig_set_is_a_hall_witness(n_left, n_right, p, seed):
    # property: König's set of a maximum matching holds every unmatched left
    # vertex, its neighbourhood is the union of its masks, all of it matched
    # into the set, and it is smaller than the set by the deficiency
    rng = random.Random(seed)
    adj = {u: mask_of(v for v in range(n_right) if rng.random() < p)
           for u in rng.sample(range(100), n_left)}
    m = max_bipartite_matching(adj)
    hall, nbhd = koenig_set(adj, m)
    assert len(set(hall)) == len(hall) and set(adj) - set(m) <= set(hall) <= set(adj)
    union = 0
    for u in hall:
        union |= adj[u]
    assert nbhd == union
    assert {u for u, v in m.items() if nbhd >> v & 1} <= set(hall)
    assert nbhd.bit_count() == len(hall) - (len(adj) - len(m))
