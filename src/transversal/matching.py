"""Maximum bipartite matching via augmenting paths (Kuhn's algorithm).

Left vertices are arbitrary hashables; right vertices are arbitrary
hashables.  Deterministic: left vertices are processed in the order given
and their neighbours are tried in the order given.  Each augmenting-path
search is a depth-first search on an explicit stack, so path length is not
limited by Python's recursion limit.  The O(V*E) running time is fine at the
sizes used in this package (at most a few hundred vertices per side).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping


def max_bipartite_matching(
    adj: Mapping[Hashable, Iterable[Hashable]],
) -> dict[Hashable, Hashable]:
    """Return a maximum matching as a left->right dict."""
    pair_left: dict = {}
    pair_right: dict = {}
    neigh = {u: list(vs) for u, vs in adj.items()}

    def augment(root) -> None:
        # stack[k] is the k-th left vertex of the current alternating path
        # with its untried neighbours; path[k] is the right vertex it chose
        seen: set = set()
        stack = [(root, iter(neigh[root]))]
        path: list = []
        while stack:
            u, untried = stack[-1]
            for v in untried:
                if v in seen:
                    continue
                seen.add(v)
                path.append(v)
                if v not in pair_right:
                    for (w, _), x in zip(reversed(stack), reversed(path)):
                        pair_left[w] = x
                        pair_right[x] = w
                    return
                stack.append((pair_right[v], iter(neigh[pair_right[v]])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()

    for u in neigh:
        if u not in pair_left:
            augment(u)
    return pair_left


def perfect_matching(
    adj: Mapping[Hashable, Iterable[Hashable]],
) -> dict[Hashable, Hashable] | None:
    """Matching saturating every left vertex, or None if none exists."""
    m = max_bipartite_matching(adj)
    return m if len(m) == len(adj) else None
