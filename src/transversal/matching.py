"""Maximum bipartite matching via augmenting paths (Kuhn's algorithm), and
König's set of a maximum matching as a Hall witness of its deficiency.

Left vertices are arbitrary hashables; each one's right neighbours are the
set bits of an int mask, so right vertices are non-negative ints.
Deterministic: left vertices are processed in the order given, and at each
step the search tries the lowest right vertex it has not reached yet (the
same traversal as on ascending neighbour lists).  Each augmenting-path
search is a depth-first search on an explicit stack, so path length is not
limited by Python's recursion limit.  The O(V*E) running time is fine at the
sizes used in this package (at most a few hundred vertices per side); the
buffer finish of the one-shot passes calls it only when its greedy pass
sticks.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from .core import bits_of


def max_bipartite_matching(adj: Mapping[Hashable, int]) -> dict[Hashable, int]:
    """Return a maximum matching as a left->right dict (no left vertex is None)."""
    pair_left: dict = {}
    pair_right = [None] * max((m.bit_length() for m in adj.values()), default=0)
    for root in adj:
        # stack[k] is the k-th left vertex of the alternating path, path[k]
        # the right vertex it chose; avail lacks the right vertices reached
        avail, stack, path, untried = -1, [root], [], adj[root]
        while True:
            untried &= avail
            if not untried:
                stack.pop()
                if not stack:
                    break
                path.pop()
                untried = adj[stack[-1]]
                continue
            low = untried & -untried
            avail ^= low
            v = low.bit_length() - 1
            path.append(v)
            w = pair_right[v]
            if w is None:
                for w, x in zip(stack, path):
                    pair_left[w] = x
                    pair_right[x] = w
                break
            stack.append(w)
            untried = adj[w]
    return pair_left


def perfect_matching(adj: Mapping[Hashable, int]) -> dict[Hashable, int] | None:
    """Matching saturating every left vertex, or None if none exists."""
    m = max_bipartite_matching(adj)
    return m if len(m) == len(adj) else None


def koenig_set(adj: Mapping[Hashable, int], matching: Mapping[Hashable, int]) -> tuple[list, int]:
    """König's set of a maximum ``matching`` of ``adj``: the left vertices an
    alternating path reaches from an unmatched left vertex, with their right
    neighbourhood as a mask.  Each right vertex of it is matched into the set
    (else the matching would augment), so the neighbourhood has
    len(adj) - len(matching) fewer vertices than the set: Hall's condition
    fails there by the deficiency."""
    pair_right = {x: w for w, x in matching.items()}
    reached, nbhd = [w for w in adj if w not in matching], 0
    for w in reached:  # grows while it is read: each new right vertex adds its mate
        new = adj[w] & ~nbhd
        nbhd |= new
        reached += [pair_right[x] for x in bits_of(new)]
    return reached, nbhd
