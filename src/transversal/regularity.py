"""Weak-regularity machinery for graph collections.

Everything here reads a GraphCollection slice (V1, V2, colours): the 3-graph
of the triples (u, v, c) with u in V1, v in V2 and uv in G_c, the 3-uniform
hypergraph the paper applies weak regularity to.  A slice is regular when
every large sub-slice has density close to the whole slice's density.
Exhaustive checking enumerates subsets of V1 and V2 and handles the colours
exactly by an extremal argument (for fixed vertex subsets, the densest or
sparsest colour subset of a given size consists of the top or bottom colours
by edge count), so "exhaustive" results are proofs.  Beyond the enumeration
limits a sampled mode draws subset tuples of size exactly ceil(eps*|V_i|); a
sampled witness is always genuine, while NoneFound is only evidence.

Parameter bookkeeping is exact rational arithmetic via a ledger that records
the lineage of rules applied.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import GraphCollection, SimpleGraph, _coins, bits_of, mask_of, masks_of_words


class EmptyPart(ValueError):
    """A density computation received an empty part."""


class RuleInapplicable(ValueError):
    """A ledger rule's mode prerequisites are not met."""


class PromiseViolated(RuntimeError):
    """A caller promise (e.g. half-superregularity) failed a post-hoc check."""


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


@dataclass(frozen=True)
class DensitySpec:
    """Target density d and tolerance epsilon for a collection slice: a
    witness is a sub-slice whose density differs from the slice's by at
    least epsilon; typical elements are counted against the d - epsilon
    floors, and ``partition_collection`` empties triples below d."""

    d: float
    epsilon: float


# ---------------------------------------------------------------------------
# Slices: checked parts and their adjacency


def _check_indices(parts, bound: int, what: str) -> None:
    """Raise ValueError unless the parts' entries are distinct, within and
    across parts, and lie in range(bound)."""
    flat = [x for p in parts for x in p]
    if len(set(flat)) != len(flat):
        raise ValueError(f"a {what} appears twice in the parts")
    bad = [x for x in flat if not 0 <= x < bound]
    if bad:
        raise ValueError(f"{what} {bad[0]} out of range 0..{bound - 1}")


def _check_slice(gc: GraphCollection, parts) -> None:
    """Raise ValueError unless ``parts`` is a slice (V_1, V_2, colours) of
    ``gc``: disjoint vertex parts with no repeats, distinct colours, every
    index in range (a negative index would wrap, a repeat count twice)."""
    if len(parts) != 3:
        raise ValueError("a slice needs parts (V1, V2, colours)")
    _check_indices(parts[:2], gc.n, "vertex")
    _check_indices(parts[2:], gc.n_colours, "colour")


def _slice_rows(gc: GraphCollection, I, colours) -> np.ndarray:
    """The adjacency rows of the vertices I in the given colours as a 0/1
    uint8 array indexed (colour, position in I, host vertex), read with one
    bytes join and one unpack; the host axis is padded to a multiple of 8."""
    nb = (gc.n + 7) // 8
    adj = gc.adj
    raw = b"".join(adj(c, x).to_bytes(nb, "little") for c in colours for x in I)
    bits = np.frombuffer(raw, np.uint8).reshape(len(colours), len(I), nb)
    return np.unpackbits(bits, axis=2, bitorder="little")


def _slice_layers(gc: GraphCollection, parts) -> np.ndarray:
    """The checked slice ``parts = [V1, V2, colours]`` (lists) as a 0/1
    int64 array indexed (colour, position in V1, position in V2)."""
    if not isinstance(gc, GraphCollection):
        raise TypeError(
            f"expected a GraphCollection slice (V1, V2, colours), got {type(gc).__name__}"
        )
    _check_slice(gc, parts)
    if any(len(p) == 0 for p in parts):
        raise EmptyPart("all parts must be nonempty")
    V1, V2, colours = parts
    return _slice_rows(gc, V1, colours)[:, :, V2].astype(np.int64)


def density(gc: GraphCollection, parts: Sequence[Iterable[int]]) -> Fraction:
    """Exact density e(V1, V2, colours) / (|V1| |V2| |colours|) of the
    GraphCollection slice ``parts``: the share of the triples (u, v, c) with
    uv in G_c.  Parts must be nonempty, with disjoint vertex parts and
    distinct colours, all in range (ValueError otherwise); any other type of
    ``gc`` raises TypeError.
    """
    mats = _slice_layers(gc, [list(p) for p in parts])
    return Fraction(int(mats.sum()), mats.size)


# ---------------------------------------------------------------------------
# Irregularity witnesses


@dataclass(frozen=True)
class IrregularityWitness:
    """Subsets (aligned with the input parts), exact observed and reference
    densities, and their deviation (observed - reference, a Fraction)."""

    subsets: tuple[tuple[int, ...], ...]
    observed: Fraction
    reference: Fraction
    deviation: Fraction


@dataclass(frozen=True)
class WitnessSearchResult:
    witness: IrregularityWitness | None
    exhaustive: bool
    proof: bool  # exhaustive and no witness: a proof of regularity
    samples: int = 0
    budget_exhausted: bool = False


def _subset_rows(size: int, min_k: int) -> tuple[np.ndarray, np.ndarray]:
    masks = np.arange(1 << size, dtype=np.uint32)
    pop = np.zeros(1 << size, dtype=np.int64)
    for b in range(size):
        pop += (masks >> b) & 1
    keep = pop >= min_k
    rows = np.zeros((int(keep.sum()), size), dtype=np.int64)
    kept_masks = masks[keep]
    for b in range(size):
        rows[:, b] = (kept_masks >> b) & 1
    return rows, kept_masks


def _exhaustive_search(mats: np.ndarray, eps: float) -> list[tuple[int, int, int, str]]:
    """Exact extremal scan of the slice layers ``mats`` (colour, V1, V2).
    Returns the densest ('top') and then the sparsest ('bottom') sub-slice
    with at least ceil(eps * size) elements per side, as (V1 mask, V2 mask,
    colour count, side), each only if its float deviation from the slice's
    density reaches eps."""
    L, a, b = mats.shape
    amin = max(1, math.ceil(eps * a))
    bmin = max(1, math.ceil(eps * b)) if b > 1 else 1
    kmin = max(1, math.ceil(eps * L))
    SA, amasks = _subset_rows(a, amin)
    SB, bmasks = _subset_rows(b, bmin)
    counts = np.empty((SA.shape[0], SB.shape[0], L), dtype=np.int64)
    for l in range(L):
        counts[:, :, l] = SA @ mats[l] @ SB.T
    sa = SA.sum(axis=1)
    sb = SB.sum(axis=1)
    total = int(mats.sum())
    ref = total / (a * b * L)
    srt = np.sort(counts, axis=2)
    cum = np.cumsum(srt, axis=2)
    totals = cum[:, :, -1]
    all_ks = np.arange(kmin, L + 1)
    # sweep the admissible layer-subset sizes in chunks that bound the
    # working tensor to a few tens of MB
    chunk = max(1, int(2e7 // max(1, cum.shape[0] * cum.shape[1])))
    best = {"top": None, "bottom": None}
    for start in range(0, len(all_ks), chunk):
        ks = all_ks[start : start + chunk]
        bot = cum[:, :, ks - 1]
        top = totals[:, :, None] - np.where(
            ks[None, None, :] < L, cum[:, :, L - ks - 1], 0
        )
        vol = sa[:, None, None] * sb[None, :, None] * ks[None, None, :]
        for side, dev in (("top", top / vol - ref), ("bottom", ref - bot / vol)):
            mx = float(dev.max())
            if best[side] is None or mx > best[side][0]:
                idx = np.unravel_index(int(dev.argmax()), dev.shape)
                best[side] = (
                    mx, (int(amasks[idx[0]]), int(bmasks[idx[1]]), int(ks[idx[2]]), side)
                )
    return [cand for mx, cand in filter(None, best.values()) if mx >= eps - 1e-9]


def _materialise(mats, parts, a_mask: int, b_mask: int, k: int, side: str):
    """Turn an engine candidate into the subsets (V1', V2', colours') of the
    input parts: the masked vertices and the k colours with the most
    ('top') or fewest ('bottom') edges between them."""
    a_idx, b_idx = list(bits_of(a_mask)), list(bits_of(b_mask))
    per_layer = [int(layer[np.ix_(a_idx, b_idx)].sum()) for layer in mats]
    order = sorted(range(len(mats)), key=per_layer.__getitem__)
    layer_idx = order[:k] if side == "bottom" else order[-k:]
    V1, V2, colours = parts
    return (tuple(V1[i] for i in a_idx), tuple(V2[i] for i in b_idx),
            tuple(colours[l] for l in sorted(layer_idx)))


# With one vertex in V2 the scan enumerates subsets of V1 only, so V1 may be
# larger than ``exhaustive_limit`` allows when both sides are enumerated.
_ONE_VERTEX_V1_LIMIT = 12


def irregularity_witness(
    gc: GraphCollection,
    parts: Sequence[Iterable[int]],
    spec: DensitySpec,
    budget: int = 200,
    seed: int = 0,
    exhaustive_limit: int = 8,
) -> WitnessSearchResult:
    """Search the GraphCollection slice ``parts = (V1, V2, colours)`` for a
    sub-slice whose density differs from the slice's by at least
    ``spec.epsilon``, above or below.

    Exhaustive (a proof when nothing is found) when |V1| and |V2| are at
    most ``exhaustive_limit``, or |V2| = 1 and |V1| is at most 12; otherwise
    ``budget`` sampled tuples of size exactly ceil(eps*|V_i|), drawn with
    ``random.Random(seed)``.  Slices are checked as in :func:`density`.
    """
    parts = [list(p) for p in parts]
    mats = _slice_layers(gc, parts)
    ref = Fraction(int(mats.sum()), mats.size)
    eps = frac(spec.epsilon)
    _, a, b = mats.shape
    if (a <= _ONE_VERTEX_V1_LIMIT) if b == 1 else (max(a, b) <= exhaustive_limit):
        for cand in _exhaustive_search(mats, spec.epsilon):
            subsets = _materialise(mats, parts, *cand)
            obs = density(gc, subsets)
            if abs(obs - ref) >= eps:
                return WitnessSearchResult(
                    IrregularityWitness(subsets, obs, ref, obs - ref), True, False
                )
        return WitnessSearchResult(None, True, True)
    rng = random.Random(seed)
    sizes = [max(1, math.ceil(spec.epsilon * len(p))) for p in parts]
    for trial in range(budget):
        subsets = tuple(tuple(rng.sample(p, size)) for p, size in zip(parts, sizes))
        obs = density(gc, subsets)
        if abs(obs - ref) >= eps:
            return WitnessSearchResult(
                IrregularityWitness(subsets, obs, ref, obs - ref),
                exhaustive=False,
                proof=False,
                samples=trial + 1,
            )
    return WitnessSearchResult(
        None, exhaustive=False, proof=False, samples=budget, budget_exhausted=True
    )


# ---------------------------------------------------------------------------
# Typical vertices and colours


@dataclass(frozen=True)
class TypicalElements:
    """Exactly the atypical vertices per side and atypical colours, counted
    against the (d-eps) floors."""

    atypical_vertices: tuple[tuple[int, ...], tuple[int, ...]]
    atypical_colours: tuple[int, ...]
    vertex_threshold: tuple[float, float]
    colour_threshold: float
    regularity_spot_check: bool | None = None


def typical_elements(
    gc: GraphCollection,
    V1: Iterable[int],
    V2: Iterable[int],
    spec: DensitySpec,
    spot_check: bool = True,
) -> TypicalElements:
    """Vertices with total degree below (d-eps)|V_other||C| and colours with
    fewer than (d-eps)|V1||V2| edges, by exact counting."""
    V1, V2 = list(V1), list(V2)
    colours = list(range(gc.n_colours))
    _check_slice(gc, (V1, V2, colours))
    d_eps = spec.d - spec.epsilon
    v_need = (d_eps * len(V2) * len(colours), d_eps * len(V1) * len(colours))
    c_need = d_eps * len(V1) * len(V2)
    other = (mask_of(V2), mask_of(V1))
    out_v = tuple(
        tuple(v for v in side if not gc.degree_reaches(v, other[i], colours, v_need[i]))
        for i, side in enumerate((V1, V2))
    )
    bad_c = tuple(c for c in colours if gc.edges_into(c, V1, other[0]) < c_need)
    spot = None
    if spot_check:
        res = irregularity_witness(gc, (V1, V2, colours), spec, budget=40, seed=0)
        spot = res.witness is None
    return TypicalElements(
        atypical_vertices=out_v,
        atypical_colours=bad_c,
        vertex_threshold=v_need,
        colour_threshold=c_need,
        regularity_spot_check=spot,
    )


# ---------------------------------------------------------------------------
# Parameter ledger


@dataclass(frozen=True)
class LineageEntry:
    rule: str
    args: tuple
    params: tuple  # (m, eps, d, delta) after the step
    mode: str | None


@dataclass(frozen=True)
class ParameterLedger:
    """Exact (m, eps, d, delta) with the lineage of transformations applied."""

    m: Fraction
    eps: Fraction
    d: Fraction
    delta: Fraction
    mode: str | None = None
    initial: tuple = ()
    lineage: tuple[LineageEntry, ...] = ()

    @property
    def params(self) -> tuple:
        return (self.m, self.eps, self.d, self.delta)


def make_ledger(m, eps, d, delta, mode: str | None = None) -> ParameterLedger:
    m, eps, d, delta = frac(m), frac(eps), frac(d), frac(delta)
    return ParameterLedger(m, eps, d, delta, mode, initial=(m, eps, d, delta, mode))


def _apply_rule(
    m: Fraction, eps: Fraction, d: Fraction, delta: Fraction, mode, rule: str, args: dict
):
    alpha = frac(args["alpha"]) if args.get("alpha") is not None else None
    k = frac(args.get("k", 1))
    eps_prime = frac(args["eps_prime"]) if args.get("eps_prime") is not None else None
    if rule == "proportional-slice":
        return (m, eps / alpha, d / 2, delta), "regular"
    if rule == "near-spanning-slice":
        if mode != "super":
            raise RuleInapplicable("near-spanning-slice preserves super; input must be super")
        return (m, 2 * eps, d / 2, delta), "super"
    if rule == "random-slice":
        if mode != "super":
            raise RuleInapplicable("random-slice requires a super input")
        return (m, eps / alpha, d * d / 16, delta), "super"
    if rule == "sparsify":
        if mode != "half-super":
            raise RuleInapplicable("sparsify turns half-super into super")
        return (m, eps_prime, d * d / 2, delta), "super"
    if rule == "template-i":
        return (alpha * m, eps / alpha, d / 2, delta / k), "regular"
    if rule == "template-ii":
        return (m / 2, 2 * eps, d / 2, delta / 2), mode
    if rule == "template-iii":
        if mode != "super":
            raise RuleInapplicable("random template slicing requires a super template")
        return (alpha * m, eps / alpha, d * d / 16, delta / k), "super"
    if rule == "template-iv":
        if mode != "half-super":
            raise RuleInapplicable("template sparsification requires a half-super template")
        return (m, eps_prime, d * d / 2, delta), "super"
    raise RuleInapplicable(f"unknown rule {rule!r}")


def ledger_slice(
    ledger: ParameterLedger,
    rule: str,
    alpha=None,
    k=1,
    eps_prime=None,
) -> ParameterLedger:
    """Apply one closed-form transformation and append it to the lineage.

    Rules: proportional-slice(alpha) -> (eps/alpha, d/2); near-spanning-slice
    -> (2*eps, d/2) super-preserving; random-slice(alpha) -> (eps/alpha,
    d^2/16) super-preserving; sparsify(eps') -> (eps', d^2/2); and the four
    template cases 'template-i'..'template-iv'.
    """
    args = {"alpha": alpha, "k": k, "eps_prime": eps_prime}
    (m, eps, d, delta), mode = _apply_rule(
        ledger.m, ledger.eps, ledger.d, ledger.delta, ledger.mode, rule, args
    )
    norm = (
        frac(alpha) if alpha is not None else None,
        frac(k),
        frac(eps_prime) if eps_prime is not None else None,
    )
    entry = LineageEntry(rule, norm, (m, eps, d, delta), mode)
    return ParameterLedger(
        m, eps, d, delta, mode, initial=ledger.initial, lineage=ledger.lineage + (entry,)
    )


# ---------------------------------------------------------------------------
# Half-super -> super sparsification (random equalisation on a refined grid)


def _part_chunks(part: list[int], chunks: int, rng: random.Random) -> list[list[int]]:
    part = part[:]
    rng.shuffle(part)
    q = max(1, min(chunks, len(part)))
    size = len(part) // q
    extra = len(part) % q
    out, pos = [], 0
    for i in range(q):
        s = size + (1 if i < extra else 0)
        out.append(part[pos : pos + s])
        pos += s
    return [c for c in out if c]


def _target_density(densities: list[float]) -> float:
    """The d=None target from the populated cells' densities (listed in
    sorted cell order): equalise down to the sparsest populated cell, but not
    below 0.6 of the mean (an empty cell would otherwise wipe the graph)."""
    return max(min(densities), 0.6 * (sum(densities) / len(densities)))


def _meets_degree_floor(part_degrees: Sequence[Sequence[int]], d: float) -> bool:
    """The superregular degree floor: each element of part i has degree
    at least d^2/2 * prod_j |V_j| / |V_i| (``part_degrees[i]`` lists them)."""
    floor_target = d * d / 2
    vol_all = math.prod(len(p) for p in part_degrees)
    return all(
        x >= floor_target * vol_all / len(degs) for degs in part_degrees for x in degs
    )


def _chunk_index(chunk_list: list[list[int]]) -> np.ndarray:
    """Each element's chunk number, with the chunks laid end to end."""
    return np.repeat(np.arange(len(chunk_list)), [len(ch) for ch in chunk_list])


def _runs(lengths: list[int]) -> list[slice]:
    """Consecutive slices of the given lengths, from 0."""
    ends = list(itertools.accumulate(lengths))
    return [slice(end - k, end) for k, end in zip(lengths, ends)]


def _thin(by_pair: np.ndarray, cells: list[tuple], d: float, rng: random.Random) -> None:
    """Keep each triple of each cell (pair run, colour run, count, density)
    with probability d / density, in place: the coins go to the cells in list
    order and, within a cell, to its block's set entries row by row."""
    coins = _coins(rng, sum(count for _, _, count, _ in cells))
    used = 0
    for pair_run, colour_run, count, dens in cells:
        block = by_pair[pair_run, colour_run]
        block[block == 1] = coins[used : used + count] < d / dens
        used += count


def _sparsify_slice(
    gc: GraphCollection,
    parts: Sequence[Sequence[int]],
    d: float | None,
    rng: random.Random,
    chunks: int,
):
    """One attempt of :func:`sparsify_to_superregular`, in its chunk, cell
    and coin order, read from the slice's bitmasks without building a
    triple.  Returns the kept edges as per-colour adjacency rows, the target
    density, and the kept degrees of V_i, V_j and the colours (list order).
    One :func:`_coins` call draws the coins of every cell above the target."""
    Vi, Vj, colours = parts
    ch_i = _part_chunks(Vi, chunks, rng)
    ch_j = _part_chunks(Vj, chunks, rng)
    ch_c = [sorted(ch) for ch in _part_chunks(list(range(len(colours))), chunks, rng)]
    I = np.array([x for ch in ch_i for x in ch], dtype=np.intp)
    J = np.array([y for ch in ch_j for y in ch], dtype=np.intp)
    cols = [colours[k] for ch in ch_c for k in ch]
    n = gc.n
    # the pairs (u, v) of V_i x V_j, grouped by (chunk of u, chunk of v) in
    # sorted order and, within a group, in coin order: min(u, v), then max(u, v)
    u, v = np.repeat(I, len(J)), np.tile(J, len(I))
    group = np.add.outer(_chunk_index(ch_i) * len(ch_j), _chunk_index(ch_j)).ravel()
    order = np.argsort((group * n + np.minimum(u, v)) * n + np.maximum(u, v))  # distinct keys
    pi, pj = np.divmod(order, len(J))  # each pair's index in I and in J
    u, v = I[pi], J[pj]
    # the slice as 0/1 by (pair in the order above, colour in chunk order):
    # a cell is the block of one run of pairs and one run of colours
    slab = _slice_rows(gc, I.tolist(), cols).transpose(1, 2, 0)[pi, v]
    colour_runs = _runs([len(ch) for ch in ch_c])
    cells = []  # (pair run, colour run, count, density) in sorted cell order
    for pr in _runs([len(a) * len(b) for a in ch_i for b in ch_j]):
        for cr in colour_runs:
            count = int(np.count_nonzero(slab[pr, cr]))
            if count:
                cells.append((pr, cr, count, count / ((pr.stop - pr.start) * (cr.stop - cr.start))))
    if d is None:
        d = _target_density([dens for *_, dens in cells]) if cells else 0.0
    _thin(slab, [cell for cell in cells if cell[3] > d], d, rng)
    # the kept rows of every host vertex, by vertex, then colour in chunk order
    kept = np.zeros((n, len(cols), 64 * ((n + 63) // 64)), np.uint8)
    kept[u, :, v] = slab
    kept[v, :, u] = slab
    masks = masks_of_words(np.packbits(kept, axis=2, bitorder="little").view("<u8"))
    rows = [[0] * n for _ in range(gc.n_colours)]
    for k, c in enumerate(cols):
        rows[c] = masks[k :: len(cols)]
    verts = I.tolist() + J.tolist()
    per_pair = slab.sum(axis=1)  # each pair's kept colours, summed onto its two ends
    deg_i, deg_j = np.bincount(pi, per_pair, len(I)), np.bincount(pj, per_pair, len(J))
    deg = dict(zip(verts, np.concatenate((deg_i, deg_j)).astype(int).tolist()))
    deg_c = dict(zip(cols, slab.sum(axis=0).tolist()))
    return rows, d, [[deg[x] for x in Vi], [deg[y] for y in Vj], [deg_c[c] for c in colours]]


def sparsify_to_superregular(
    g,
    parts: Sequence[Sequence[int]],
    d: float | None,
    seed: int = 0,
    chunks: int = 2,
    retries: int = 20,
):
    """Spanning sub-slice of the GraphCollection slice ``parts = (V_i, V_j,
    colours)`` equalising cell densities down to d.

    The slice is the 3-graph of triples (u, v, c) with u in V_i, v in V_j
    and uv in G_c; the result is a GraphCollection holding the kept slice
    edges.  Refines each part into chunks, then in each refined cell of
    density d' > d deletes triples independently with probability 1 - d/d'.
    With d=None the target is derived from the cells themselves (the
    sparsest populated cell, floored at 0.6 of the mean over the populated
    cells, summed in sorted cell order).  The parts are shuffled into chunks
    in the order V_i, V_j, colours (in list order); cells are visited in
    sorted (chunk of V_i, chunk of V_j, chunk of colours) order; within a
    cell the coins go to x = min(u, v) ascending, then y = max(u, v)
    ascending, then colour by list position.  The output is re-checked by
    degree counting against the superregular degree floor d^2/2 (not for
    regularity); the construction is retried with derived seeds and raises
    :class:`PromiseViolated` when every retry fails.  Never adds edges.

    A 3-graph is sparsified through its link collection: slice it with
    ``ThreeGraph.link_collection(V_i + V_j, C)`` first.  Any other type of
    ``g`` raises TypeError; a malformed slice raises ValueError.
    """
    if not isinstance(g, GraphCollection):
        raise TypeError("sparsify expects a GraphCollection slice (V_i, V_j, colours)")
    parts = [list(p) for p in parts]
    _check_slice(g, parts)
    last = None
    for attempt in range(max(1, retries)):
        rng = random.Random((seed * 1_000_003 + attempt) & 0x7FFFFFFF)
        rows, d_used, degrees = _sparsify_slice(g, parts, d, rng, chunks)
        if _meets_degree_floor(degrees, d_used):
            return GraphCollection.from_rows(g.n, rows)
        last = f"degree floor {d_used * d_used / 2:.4f} violated on attempt {attempt}"
    raise PromiseViolated(
        f"sparsification never met the superregular degree floor after {retries} retries: {last}"
    )


# ---------------------------------------------------------------------------
# Regularity lemma for collections

_WITNESS_SAMPLES = 80  # tuples drawn by a witness search too large to be exhaustive


@dataclass
class RegularityPartition:
    v_clusters: tuple[tuple[int, ...], ...]
    v_exceptional: tuple[int, ...]
    c_clusters: tuple[tuple[int, ...], ...]
    c_exceptional: tuple[int, ...]
    m: int
    pruned: GraphCollection
    reduced: tuple[SimpleGraph, ...]
    converged: bool
    rounds: int
    energy_history: tuple[float, ...]
    diagnostics: dict

    @property
    def L(self) -> int:
        return len(self.v_clusters)

    @property
    def M(self) -> int:
        return len(self.c_clusters)


def _energy(gc: GraphCollection, v_clusters, c_clusters) -> float:
    """Mean-square density index over ordered cluster pairs (incl. diagonal)
    and colour clusters, normalised by n^2 * |C|; non-decreasing under
    refinement.  Clusters are never empty, so only n = 0 or |C| = 0 has
    nothing to sum."""
    n, K = gc.n, gc.n_colours
    if n == 0 or K == 0:
        return 0.0
    masks = [mask_of(cl) for cl in v_clusters]
    total = 0.0
    for Vh in v_clusters:
        for Vi, mi in zip(v_clusters, masks):
            size_prod = len(Vh) * len(Vi)
            for Cj in c_clusters:
                dens = sum(gc.edges_into(c, Vh, mi) for c in Cj) / (size_prod * len(Cj))
                total += size_prod * len(Cj) * dens * dens
    return total / (n * n * K)


def _initial_clusters(n: int, K: int, L0: int, rng: random.Random):
    """The shuffled vertices, then the shuffled colours, cut into clusters
    of m0 = n // L0; the remainders are the exceptional sets.  When either
    side has no whole cluster, all vertices and all colours are one
    cluster each.  Returns (v_clusters, v0, c_clusters, c0)."""
    m0 = max(1, n // max(1, L0))
    verts, cols = list(range(n)), list(range(K))
    rng.shuffle(verts)
    rng.shuffle(cols)

    def cut(items):
        whole = len(items) - len(items) % m0
        return [items[i : i + m0] for i in range(0, whole, m0)], items[whole:]

    (v_clusters, v0), (c_clusters, c0) = cut(verts), cut(cols)
    if not v_clusters or not c_clusters:
        return [verts], [], [cols], []
    return v_clusters, v0, c_clusters, c0


def _witness_splits(gc, spec, v_clusters, c_clusters, seed):
    """One refinement round's witness search over every triple (V_h, V_i,
    C_j) with h < i: the first witness subset found for each vertex and
    colour cluster, as (vertex splits, colour splits) keyed by index."""
    splits_v: dict[int, set] = {}
    splits_c: dict[int, set] = {}
    for h, i in itertools.combinations(range(len(v_clusters)), 2):
        for j, Cj in enumerate(c_clusters):
            res = irregularity_witness(gc, (v_clusters[h], v_clusters[i], Cj), spec,
                                       budget=_WITNESS_SAMPLES, seed=seed)
            if res.witness is not None:
                sh, si, sj = res.witness.subsets
                splits_v.setdefault(h, set(sh))
                splits_v.setdefault(i, set(si))
                splits_c.setdefault(j, set(sj))
    return splits_v, splits_c


def _split(clusters, splits) -> list:
    """Each cluster with a witness subset split in two: the part on the
    side of the subset that holds the cluster's first element, then the
    rest (when not empty)."""
    out = []
    for idx, cl in enumerate(clusters):
        sub = splits.get(idx, ())
        first = cl[0] in sub
        out += filter(None, ([x for x in cl if (x in sub) == first],
                             [x for x in cl if (x in sub) != first]))
    return out


def _refine(gc, spec, v_clusters, c_clusters, seed, max_rounds, max_clusters):
    """Witness refinement: round r searches with seed ``seed + 31 r`` and
    splits every cluster a witness cut.  Stops converged when a round finds
    no witness, or unconverged after ``max_rounds`` refinements or when a
    round with witnesses starts with ``max_clusters`` clusters or more.
    Returns (v_clusters, c_clusters, energy history, converged); the
    history holds one entry more than there were refinements."""
    energies = [_energy(gc, v_clusters, c_clusters)]
    while len(energies) <= max_rounds:
        splits_v, splits_c = _witness_splits(gc, spec, v_clusters, c_clusters,
                                             seed + 31 * len(energies))
        if not splits_v:
            return v_clusters, c_clusters, energies, True
        if len(v_clusters) + len(c_clusters) >= max_clusters:
            break
        v_clusters, c_clusters = _split(v_clusters, splits_v), _split(c_clusters, splits_c)
        energies.append(_energy(gc, v_clusters, c_clusters))
    return v_clusters, c_clusters, energies, False


def _chunk_size(sizes: list[int], exceptional: int, budget: float) -> int:
    """The largest common chunk size m whose waste (the exceptional elements
    plus every cluster's remainder mod m) fits ``budget``; if none fits, the
    waste-minimising size, the larger on ties."""
    def waste(m):
        return exceptional + sum(s % m for s in sizes)

    candidates = range(max(sizes), 0, -1)
    fits = next((m for m in candidates if waste(m) <= budget), None)
    return fits if fits is not None else min(candidates, key=waste, default=1)


def _chop(clusters, exceptional, m: int):
    """Each cluster sorted and cut into chunks of m, the remainders added to
    the exceptional set: (chunks, sorted exceptional set), both tuples."""
    chunks, exc = [], list(exceptional)
    for cl in clusters:
        cl = sorted(cl)
        whole = len(cl) - len(cl) % m
        chunks += [tuple(cl[i : i + m]) for i in range(0, whole, m)]
        exc += cl[whole:]
    return tuple(chunks), tuple(sorted(exc))


def _prune(gc, spec, v_final, c_final, seed):
    """Exile and prune the rows of G_c: a clustered colour loses its
    intra-cluster edges, and every colour of a failing triple (a witness
    found with seed ``seed + 977``, or density below d) its edges across
    the pair.  Returns (pruned collection, pass of each triple (h, i, j),
    exhaustive and sampled check counts)."""
    masks = [mask_of(cl) for cl in v_final]
    rows = [list(r) for r in gc.rows]
    for c in itertools.chain.from_iterable(c_final):
        for cl, mask in zip(v_final, masks):
            for v in cl:
                rows[c][v] &= ~mask
    d_floor = frac(spec.d)
    passes: dict[tuple[int, int, int], bool] = {}
    stamps = {"exhaustive": 0, "sampled": 0}
    for h, i in itertools.combinations(range(len(v_final)), 2):
        for j, Cj in enumerate(c_final):
            triple = (v_final[h], v_final[i], Cj)
            res = irregularity_witness(gc, triple, spec, budget=_WITNESS_SAMPLES, seed=seed + 977)
            ok = res.witness is None and density(gc, triple) >= d_floor
            stamps["exhaustive" if res.exhaustive else "sampled"] += 1
            passes[(h, i, j)] = ok
            if not ok:
                for c in Cj:
                    for u in v_final[h]:
                        rows[c][u] &= ~masks[i]
                    for v in v_final[i]:
                        rows[c][v] &= ~masks[h]
    return GraphCollection.from_rows(gc.n, rows), passes, stamps


def _checks(gc, pruned, spec, m, v_final, v0, c_final, c0, passes) -> dict:
    """The five structural properties as literal checks, with the measured
    delta = min(|C|/n, n/|C|) and the degree-loss bound they use."""
    n, K, eps, d = gc.n, gc.n_colours, spec.epsilon, spec.d
    masks = [mask_of(cl) for cl in v_final]
    delta_measured = min(K / n, n / K) if n and K else 1.0
    loss_bound = (3 * d / delta_measured**2 + eps) * n * n
    lost = zip(gc.total_degrees(), pruned.total_degrees())
    properties = {
        "exceptional_bound": len(v0) + len(c0) <= eps * n,
        "equal_sizes": all(len(cl) == m for cl in v_final + c_final),
        "degree_loss": all(x - y < loss_bound for x, y in lost) and all(
            gc.edge_count(c) - pruned.edge_count(c) < loss_bound for c in range(K)),
        "intra_cluster_exile": all(
            not pruned.adj(c, v) & mask
            for c in itertools.chain.from_iterable(c_final)
            for cl, mask in zip(v_final, masks) for v in cl),
        "regular_or_empty": all(
            not pruned.adj(c, u) & masks[i]
            for (h, i, j), ok in passes.items() if not ok
            for c in c_final[j] for u in v_final[h]),
    }
    return {"properties": properties, "delta_measured": delta_measured,
            "loss_bound": loss_bound}


def partition_collection(
    gc: GraphCollection,
    spec: DensitySpec,
    L0: int,
    seed: int = 0,
    max_rounds: int | None = None,
    max_clusters: int = 48,
) -> RegularityPartition:
    """Witness-driven refinement plus the standard cleanup, as plain steps.

    ``_initial_clusters`` shuffles the vertices and colours (with
    ``random.Random(seed)``) into clusters of n // L0; ``_refine``
    intersects clusters with witness subsets until no witness is found, the
    round cap ``max_rounds`` (default ceil(eps^-3), at most 60) is hit or
    the clusters number ``max_clusters``; ``_chunk_size`` picks the common
    size m whose remainder waste fits eps*n, and ``_chop`` cuts vertex and
    colour clusters alike into chunks of m, the remainders joining the
    exceptional sets; ``_prune`` removes intra-cluster edges and empties
    irregular or sparse triples; ``_checks`` tests the five properties.
    A witness search too large to be exhaustive samples ``_WITNESS_SAMPLES``.
    ``rounds`` counts the refinements, one less than ``energy_history``'s
    entries, on every exit.  Non-convergence is reported in the result,
    never raised.
    """
    eps = spec.epsilon
    if max_rounds is None:
        max_rounds = min(60, math.ceil(eps**-3) if eps > 0 else 60)
    v_clusters, v0, c_clusters, c0 = _initial_clusters(gc.n, gc.n_colours, L0,
                                                       random.Random(seed))
    v_clusters, c_clusters, energies, refined = _refine(
        gc, spec, v_clusters, c_clusters, seed, max_rounds, max_clusters)
    m = _chunk_size([len(cl) for cl in v_clusters + c_clusters], len(v0) + len(c0),
                    max(eps * gc.n, 0))
    (v_final, v0), (c_final, c0) = _chop(v_clusters, v0, m), _chop(c_clusters, c0, m)
    pruned, passes, stamps = _prune(gc, spec, v_final, c_final, seed)
    checks = _checks(gc, pruned, spec, m, v_final, v0, c_final, c0, passes)
    converged = (refined and checks["properties"]["exceptional_bound"]
                 and checks["properties"]["degree_loss"])
    reduced = tuple(
        SimpleGraph(len(v_final), [(h, i) for (h, i, jj), ok in passes.items() if jj == j and ok])
        for j in range(len(c_final))
    )
    diagnostics = {"refinement_converged": refined, **checks, "triple_stamps": stamps,
                   "reason": None if converged else "DidNotConverge"}
    return RegularityPartition(
        v_clusters=v_final, v_exceptional=v0, c_clusters=c_final, c_exceptional=c0, m=m,
        pruned=pruned, reduced=reduced, converged=converged, rounds=len(energies) - 1,
        energy_history=tuple(energies), diagnostics=diagnostics,
    )
