"""Proper edge colouring with Delta+1 colours (Misra-Gries) and matching
extraction.

A proper edge colouring of a graph with e edges into Delta+1 classes has a
largest class of size at least ceil(e/(Delta+1)); that class is a matching.
"""

from __future__ import annotations

from .core import SimpleGraph, bits_of

_UNCOLOURED = -1


class EdgeColouring:
    def __init__(self, g: SimpleGraph, n_colours: int):
        self.g = g
        self.n_colours = n_colours
        self.col: dict[tuple[int, int], int] = {}
        # incident[v] = bitmask of colours present at v
        self.incident = [0] * g.n

    def _key(self, u, v):
        return (u, v) if u < v else (v, u)

    def colour(self, u, v) -> int:
        return self.col.get(self._key(u, v), _UNCOLOURED)

    def set_colour(self, u, v, c):
        k = self._key(u, v)
        old = self.col.get(k, _UNCOLOURED)
        if old != _UNCOLOURED:
            self.incident[u] &= ~(1 << old)
            self.incident[v] &= ~(1 << old)
        if c == _UNCOLOURED:
            self.col.pop(k, None)
        else:
            self.col[k] = c
            self.incident[u] |= 1 << c
            self.incident[v] |= 1 << c

    def free_colour(self, v) -> int:
        m = ~self.incident[v] & ((1 << self.n_colours) - 1)
        if not m:
            raise AssertionError("no free colour; colour budget too small")
        return (m & -m).bit_length() - 1

    def is_free(self, v, c) -> bool:
        return not self.incident[v] >> c & 1

    def classes(self) -> list[list[tuple[int, int]]]:
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.n_colours)]
        for e, c in self.col.items():
            out[c].append(e)
        return out


def proper_edge_colouring(g: SimpleGraph) -> EdgeColouring:
    """Misra-Gries: colour the edges of a simple graph with max(1, Delta+1)
    colours so that edges sharing a vertex get distinct colours."""
    n_colours = max(1, g.max_degree + 1)
    ec = EdgeColouring(g, n_colours)
    for (u, v) in g.edges():
        _colour_one(ec, u, v)
    return ec


def _maximal_fan(ec: EdgeColouring, u: int, v: int) -> list[int]:
    fan = [v]
    in_fan = {v}
    nbrs = [w for w in bits_of(ec.g.adj(u))]
    while True:
        last = fan[-1]
        for w in nbrs:
            if w in in_fan:
                continue
            c = ec.colour(u, w)
            if c != _UNCOLOURED and ec.is_free(last, c):
                fan.append(w)
                in_fan.add(w)
                break
        else:
            return fan


def _invert_cd_path(ec: EdgeColouring, u: int, c: int, d: int):
    # walk the maximal path from u alternating colours d, c and swap them
    prev, cur, want = None, u, d
    path = []
    while True:
        nxt = None
        for w in bits_of(ec.g.adj(cur)):
            if w != prev and ec.colour(cur, w) == want:
                nxt = w
                break
        if nxt is None:
            break
        path.append((cur, nxt, want))
        prev, cur = cur, nxt
        want = c if want == d else d
    for (a, b, col) in path:
        ec.set_colour(a, b, _UNCOLOURED)
    for (a, b, col) in path:
        ec.set_colour(a, b, d if col == c else c)


def _colour_one(ec: EdgeColouring, u: int, v: int):
    fan = _maximal_fan(ec, u, v)
    c = ec.free_colour(u)
    d = ec.free_colour(fan[-1])
    if c != d:
        _invert_cd_path(ec, u, c, d)
    # pick the first prefix of the fan (still a fan after inversion) whose
    # end vertex has d free
    idx = None
    for i, w in enumerate(fan):
        if i > 0:
            cw = ec.colour(u, fan[i])
            if cw == _UNCOLOURED or not ec.is_free(fan[i - 1], cw):
                break
        if ec.is_free(w, d):
            idx = i
            break
    if idx is None:
        raise AssertionError("Misra-Gries invariant violated")
    # rotate the prefix: uncolour first so the incident bitmasks never see
    # two edges of one colour at u
    shifted = [ec.colour(u, fan[j + 1]) for j in range(idx)]
    for j in range(idx + 1):
        ec.set_colour(u, fan[j], _UNCOLOURED)
    for j in range(idx):
        ec.set_colour(u, fan[j], shifted[j])
    ec.set_colour(u, fan[idx], d)


def extract_matching(g: SimpleGraph) -> list[tuple[int, int]]:
    """Largest colour class of a proper (Delta+1)-edge-colouring: a matching
    of size at least ceil(e(g)/(Delta+1))."""
    if g.e == 0:
        return []
    ec = proper_edge_colouring(g)
    best = max(ec.classes(), key=len)
    return sorted(best)
