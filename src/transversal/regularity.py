"""Weak-regularity machinery for graph collections and small hypergraphs.

Everything here treats a bipartite graph collection through its 3-graph view:
a triple (V1, V2, colours) is regular when every large sub-triple has density
close to the whole triple's density.  Exhaustive checking enumerates subsets
of the two smallest sides and handles the third side exactly by an extremal
argument (for fixed vertex subsets, the densest/sparsest colour subset of a
given size consists of the top/bottom colours by edge count), so "exhaustive"
results are proofs.  Beyond the enumeration limits a sampled mode draws
subset tuples of size exactly ceil(eps*|V_i|); a sampled witness is always
genuine, while NoneFound is only evidence.

Parameter bookkeeping is exact rational arithmetic via a ledger that records
the lineage of rules applied.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import GraphCollection, SimpleGraph, ThreeGraph, mask_of


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


MODES = ("regular", "semi-super", "super", "half-super", "uniformly-dense")


@dataclass(frozen=True)
class DensitySpec:
    """Target density d, uniform-density slack eta, tolerance eps, and mode."""

    d: float
    epsilon: float
    eta: float = 0.0
    mode: str = "regular"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Layered views: every density object becomes (layer matrices over A x B)


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


def _collection_layers(gc: GraphCollection, A, B, CC) -> np.ndarray:
    return _slice_rows(gc, A, CC)[:, :, B].astype(np.int64)


def _layer_view(obj, parts):
    """Normalise (obj, parts) to (mats, axes), always through a collection
    slice.  mats has shape (L, a, b): L scored layers over an a x b grid;
    ``axes`` names which input part landed on which engine axis ('a', 'b',
    'layers').  A ThreeGraph is read through its link collection, coloured
    by the largest part; a bipartite SimpleGraph as a one-colour collection
    whose V2 side plays the layers."""
    parts = [list(p) for p in parts]
    if any(len(p) == 0 for p in parts):
        raise EmptyPart("all parts must be nonempty")
    if isinstance(obj, GraphCollection):
        _check_slice(obj, parts)
        return _collection_layers(obj, *parts), ("a", "b", "layers")
    if isinstance(obj, ThreeGraph):
        if len(parts) != 3:
            raise ValueError("a 3-graph view needs three parts")
        _check_indices(parts, obj.n, "vertex")
        # score the largest part; enumerate the two smallest
        ia, ib, il = sorted(range(3), key=lambda i: len(parts[i]))
        a, b = len(parts[ia]), len(parts[ib])
        link = obj.link_collection(parts[ia] + parts[ib], parts[il])
        mats = _collection_layers(link, range(a), range(a, a + b), range(link.n_colours))
        axes = [None] * 3
        axes[ia], axes[ib], axes[il] = "a", "b", "layers"
        return mats, tuple(axes)
    if isinstance(obj, SimpleGraph):
        if len(parts) != 2:
            raise ValueError("a 2-graph view needs parts (V1, V2)")
        _check_indices(parts, obj.n, "vertex")
        one = GraphCollection.from_rows(obj.n, [[obj.adj(v) for v in range(obj.n)]])
        return _collection_layers(one, *parts, [0]).transpose(2, 1, 0), ("a", "layers")
    raise TypeError(f"unsupported object {type(obj).__name__}")


def density(obj, parts: Sequence[Iterable[int]]) -> Fraction:
    """Exact density e(U_1,...,U_k) / prod |U_i| of the induced tuple.

    Parts must be nonempty, with distinct entries in range (disjoint vertex
    parts, distinct colours), and their count must match the uniformity of
    ``obj`` (2 for a plain graph, 3 for collections/3-graphs).
    """
    mats, _ = _layer_view(obj, parts)
    return Fraction(int(mats.sum()), mats.size)  # mats.size = prod |U_i|


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

    def __bool__(self):
        return self.witness is not None

    def miss_probability(self, per_draw: float) -> float:
        """Confidence companion for sampled NoneFound results: if witnessing
        tuples occurred with probability at least ``per_draw`` under the
        sampling distribution, the chance the whole budget missed them is at
        most this bound.  Zero for exhaustive runs."""
        if self.exhaustive:
            return 0.0
        if not 0 < per_draw <= 1:
            raise ValueError("per-draw probability must lie in (0,1]")
        return (1 - per_draw) ** self.samples


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


def _exhaustive_search(mats: np.ndarray, eps: float, mode: str, d: float, eta_abs: float):
    """Exact extremal scan.  Returns (best_candidates, reference) where each
    candidate is (a_mask, b_mask, k, 'top'|'bottom', float_density)."""
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
        dens_top = top / vol
        dens_bot = bot / vol
        if mode == "two-sided":
            pairs = ((dens_top - ref, dens_top, "top"), (ref - dens_bot, dens_bot, "bottom"))
        else:  # one-sided lower bound: density >= d - eta_abs/vol
            thr = d - eta_abs / vol if eta_abs else d
            pairs = ((thr - dens_bot, dens_bot, "bottom"),)
        for arr, dens, side in pairs:
            mx = float(arr.max())
            if best[side] is None or mx > best[side][0]:
                idx = np.unravel_index(int(arr.argmax()), arr.shape)
                best[side] = (
                    mx,
                    (int(amasks[idx[0]]), int(bmasks[idx[1]]), int(ks[idx[2]]), side,
                     float(dens[idx])),
                )
    out = []
    if mode == "two-sided":
        for side in ("top", "bottom"):
            if best[side] is not None and best[side][0] >= eps - 1e-9:
                out.append(best[side][1])
    else:
        if best["bottom"] is not None and best["bottom"][0] > -1e-12:
            out.append(best["bottom"][1])
    return out, ref


def _materialise(mats, parts, axes, a_mask, b_mask, k, side):
    """Turn an engine candidate into concrete subsets in input-part order."""
    L = mats.shape[0]
    a_idx = [i for i in range(mats.shape[1]) if a_mask >> i & 1]
    b_idx = [i for i in range(mats.shape[2]) if b_mask >> i & 1] if "b" in axes else [0]
    per_layer = [int(mats[l][np.ix_(a_idx, b_idx)].sum()) for l in range(L)]
    order = sorted(range(L), key=lambda l: per_layer[l])
    layer_idx = order[:k] if side == "bottom" else order[-k:]
    chosen = {"a": a_idx, "b": b_idx, "layers": sorted(layer_idx)}
    subsets = []
    for part, ax in zip(parts, axes):
        part = list(part)
        subsets.append(tuple(part[i] for i in chosen[ax]))
    return tuple(subsets)


def irregularity_witness(
    obj,
    parts: Sequence[Iterable[int]],
    spec: DensitySpec,
    budget: int = 200,
    seed: int = 0,
    exhaustive_limit: int = 8,
    pair_limit: int = 12,
) -> WitnessSearchResult:
    """Search for a subset tuple violating the spec.

    Two-sided deviation for mode 'regular' (and the regular half of the super
    modes); one-sided lower-bound violation for 'half-super'/'uniformly-dense'.
    Exhaustive whenever the enumerated sides fit the limits (a proof);
    otherwise ``budget`` sampled tuples of size exactly ceil(eps*|V_i|).
    """
    parts = [list(p) for p in parts]
    mats, axes = _layer_view(obj, parts)
    one_sided = spec.mode in ("half-super", "uniformly-dense")
    n_total = sum(len(p) for p in parts)
    eta_abs = spec.eta * n_total**3 if (one_sided and spec.eta) else 0.0
    a, b = mats.shape[1], mats.shape[2]
    limit = pair_limit if b == 1 else exhaustive_limit
    if a <= limit and (b == 1 or b <= exhaustive_limit):
        cands, _ = _exhaustive_search(
            mats, spec.epsilon, "bottom" if one_sided else "two-sided", spec.d, eta_abs
        )
        ref = density(obj, parts)
        for (am, bm, k, side, _dens) in cands:
            subsets = _materialise(mats, parts, axes, am, bm, k, side)
            obs = density(obj, subsets)
            dev = obs - ref
            if one_sided:
                thr = frac(spec.d) - (
                    Fraction(str(eta_abs)).limit_denominator(10**9)
                    / math.prod(len(s) for s in subsets)
                    if eta_abs
                    else 0
                )
                if obs < thr:
                    return WitnessSearchResult(
                        IrregularityWitness(subsets, obs, ref, dev), True, False
                    )
            else:
                if abs(dev) >= frac(spec.epsilon):
                    return WitnessSearchResult(
                        IrregularityWitness(subsets, obs, ref, dev), True, False
                    )
        return WitnessSearchResult(None, True, True)
    # sampled mode
    rng = random.Random(seed)
    ref = density(obj, parts)
    sizes = [max(1, math.ceil(spec.epsilon * len(p))) for p in parts]
    for trial in range(budget):
        subsets = tuple(tuple(rng.sample(p, sizes[i])) for i, p in enumerate(parts))
        obs = density(obj, subsets)
        dev = obs - ref
        if one_sided:
            vol = math.prod(sizes)
            thr = frac(spec.d) - (
                Fraction(str(eta_abs)).limit_denominator(10**9) / vol if eta_abs else 0
            )
            hit = obs < thr
        else:
            hit = abs(dev) >= frac(spec.epsilon)
        if hit:
            return WitnessSearchResult(
                IrregularityWitness(subsets, obs, ref, dev),
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
        tuple(v for v in side if gc.degree_into(v, other[i], colours) < v_need[i])
        for i, side in enumerate((V1, V2))
    )
    bad_c = tuple(c for c in colours if gc.edges_into(c, V1, other[0]) < c_need)
    spot = None
    if spot_check:
        res = irregularity_witness(gc, (V1, V2, colours), replace(spec, mode="regular"),
                                   budget=40, seed=0)
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
    """The (eps', d^2/2)-superregular floor: each element of part i has degree
    at least d^2/2 * prod_j |V_j| / |V_i| (``part_degrees[i]`` lists them)."""
    floor_target = d * d / 2
    vol_all = math.prod(len(p) for p in part_degrees)
    return all(
        x >= floor_target * vol_all / len(degs) for degs in part_degrees for x in degs
    )


def _coins(rng: random.Random, k: int) -> np.ndarray:
    """The next k values of ``rng.random()``, drawn in one call, with ``rng``
    left where k calls would leave it.  Both generators are MT19937 and
    RandomState's ``random_sample`` builds the same 53-bit doubles as
    ``random.random``; NEP 19 freezes that stream, so the values do not
    depend on the numpy version.  The RandomState is made per call, so no
    generator is shared between callers."""
    if not k:
        return np.empty(0)
    version, internal, gauss = rng.getstate()
    mt = np.random.RandomState()
    mt.set_state(("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]))
    out = mt.random_sample(k)
    _, key, pos, *_ = mt.get_state()
    rng.setstate((version, (*key.tolist(), pos), gauss))
    return out


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
    n, nb = gc.n, (gc.n + 7) // 8
    # the pairs (u, v) of V_i x V_j, grouped by (chunk of u, chunk of v) in
    # sorted order and, within a group, in coin order: min(u, v), then max(u, v)
    u, v = np.repeat(I, len(J)), np.tile(J, len(I))
    group = np.add.outer(_chunk_index(ch_i) * len(ch_j), _chunk_index(ch_j)).ravel()
    order = np.lexsort((np.maximum(u, v), np.minimum(u, v), group))
    pi, pj = np.divmod(order, len(J))  # each pair's index in I and in J
    u, v = I[pi], J[pj]
    # the slice as 0/1 by (colour in chunk order, pair in the order above):
    # a cell is the block of one run of pairs and one run of colours
    slab = _slice_rows(gc, I.tolist(), cols)[:, pi, v]
    colour_runs = _runs([len(ch) for ch in ch_c])
    cells = []  # (pair run, colour run, count, density) in sorted cell order
    for pr in _runs([len(a) * len(b) for a in ch_i for b in ch_j]):
        for cr in colour_runs:
            count = int(np.count_nonzero(slab[cr, pr]))
            if count:
                cells.append((pr, cr, count, count / ((pr.stop - pr.start) * (cr.stop - cr.start))))
    if d is None:
        d = _target_density([dens for *_, dens in cells]) if cells else 0.0
    _thin(slab.T, [cell for cell in cells if cell[3] > d], d, rng)
    # the kept rows of the slice's vertices, V_i then V_j in chunk order
    kept = np.zeros((len(cols), len(I) + len(J), 8 * nb), np.uint8)
    kept[:, pi, v] = slab
    kept[:, len(I) + pj, u] = slab
    packed = np.packbits(kept, axis=2, bitorder="little")
    rows = [[0] * n for _ in range(gc.n_colours)]
    verts = I.tolist() + J.tolist()
    for c, blob in zip(cols, map(bytes, packed)):
        row = rows[c]
        for x, s in zip(verts, range(0, len(blob), nb)):
            row[x] = int.from_bytes(blob[s : s + nb], "little")
    deg = dict(zip(verts, kept.sum(axis=(0, 2)).tolist()))
    deg_c = dict(zip(cols, slab.sum(axis=1).tolist()))
    return rows, d, [[deg[x] for x in Vi], [deg[y] for y in Vj], [deg_c[c] for c in colours]]


def sparsify_to_superregular(
    g,
    parts: Sequence[Sequence[int]],
    eps: float,
    eps_prime: float,
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
    degree counting against the (eps', d^2/2)-superregular floor; the
    construction is retried with derived seeds and raises
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
    refinement."""
    n, K = gc.n, gc.n_colours
    if n == 0 or K == 0:
        return 0.0
    masks = [mask_of(cl) for cl in v_clusters]
    total = 0.0
    for hi, Vh in enumerate(v_clusters):
        for ii, mi in enumerate(masks):
            size_prod = len(Vh) * len(v_clusters[ii])
            if size_prod == 0:
                continue
            for Cj in c_clusters:
                cnt = sum(gc.edges_into(c, Vh, mi) for c in Cj)
                if cnt:
                    dens = cnt / (size_prod * len(Cj))
                    total += size_prod * len(Cj) * dens * dens
    return total / (n * n * K)


def _triple_regular(gc, Vh, Vi, Cj, eps, d, budget, seed):
    spec = DensitySpec(d=d, epsilon=eps, mode="regular")
    res = irregularity_witness(gc, (Vh, Vi, Cj), spec, budget=budget, seed=seed)
    dens = density(gc, (Vh, Vi, Cj))
    return res, dens


def partition_collection(
    gc: GraphCollection,
    spec: DensitySpec,
    L0: int,
    seed: int = 0,
    sample_budget: int = 80,
    max_rounds: int | None = None,
    max_clusters: int = 48,
) -> RegularityPartition:
    """Witness-driven refinement plus the standard cleanup.

    Refines by intersecting clusters with witness subsets until no witness is
    found or the round cap ceil(eps^-3) is hit, then chops clusters into
    equal chunks of a common size m (vertex and colour clusters alike),
    absorbs remainders into the exceptional sets, prunes each retained colour
    graph (intra-cluster edges removed, irregular or sparse triples emptied)
    and attaches the reduced collection.  Non-convergence is reported in the
    result, never raised.
    """
    rng = random.Random(seed)
    n, K = gc.n, gc.n_colours
    eps, d = spec.epsilon, spec.d
    if max_rounds is None:
        max_rounds = min(60, math.ceil(eps**-3) if eps > 0 else 60)
    m0 = max(1, n // max(1, L0))
    verts = list(range(n))
    rng.shuffle(verts)
    nv = (n // m0) * m0
    v_clusters = [verts[i : i + m0] for i in range(0, nv, m0)]
    v0 = verts[nv:]
    cols = list(range(K))
    rng.shuffle(cols)
    nc = (K // m0) * m0
    c_clusters = [cols[i : i + m0] for i in range(0, nc, m0)]
    c0 = cols[nc:]
    if not v_clusters or not c_clusters:
        v_clusters, v0 = [verts], []
        c_clusters, c0 = [cols], []

    energies = [_energy(gc, v_clusters, c_clusters)]
    converged_refine = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        splits_v: dict[int, list[set]] = {}
        splits_c: dict[int, list[set]] = {}
        found = 0
        for h in range(len(v_clusters)):
            for i in range(h + 1, len(v_clusters)):
                for j in range(len(c_clusters)):
                    res, dens = _triple_regular(
                        gc, v_clusters[h], v_clusters[i], c_clusters[j],
                        eps, d, sample_budget, seed + 31 * rounds,
                    )
                    if res.witness is None:
                        continue
                    found += 1
                    sh, si, sj = res.witness.subsets
                    splits_v.setdefault(h, []).append(set(sh))
                    splits_v.setdefault(i, []).append(set(si))
                    splits_c.setdefault(j, []).append(set(sj))
        if not found:
            converged_refine = True
            rounds -= 1
            break
        if len(v_clusters) + len(c_clusters) >= max_clusters:
            break

        def refine(clusters, splits):
            out = []
            for idx, cl in enumerate(clusters):
                subs = splits.get(idx, [])[:1]  # one split per cluster per round
                if not subs:
                    out.append(cl)
                    continue
                groups: dict[tuple, list] = {}
                for v in cl:
                    sig = tuple(v in s for s in subs)
                    groups.setdefault(sig, []).append(v)
                out.extend(groups.values())
            return out

        v_clusters = refine(v_clusters, splits_v)
        c_clusters = refine(c_clusters, splits_c)
        energies.append(_energy(gc, v_clusters, c_clusters))

    # --- cleanup: common cluster size, exceptional absorption
    # largest common chunk size whose remainder waste fits the exceptional
    # budget eps*n; if none fits, the waste-minimising size (ties -> larger m)
    sizes = [len(c) for c in v_clusters] + [len(c) for c in c_clusters]
    budget_exc = max(eps * n, 0)
    m = 1
    best_waste = None
    for m_cand in range(max(sizes), 0, -1):
        waste = len(v0) + len(c0) + sum(s % m_cand for s in sizes)
        if waste <= budget_exc:
            m = m_cand
            best_waste = waste
            break
        if best_waste is None or waste < best_waste:
            m, best_waste = m_cand, waste

    def chop(clusters, exceptional):
        chunks, exc = [], list(exceptional)
        for cl in clusters:
            cl = sorted(cl)
            for i in range(0, len(cl) - len(cl) % m, m):
                chunks.append(tuple(cl[i : i + m]))
            exc.extend(cl[len(cl) - len(cl) % m :])
        return chunks, tuple(sorted(exc))

    v_final, v0_final = chop(v_clusters, v0)
    c_final, c0_final = chop(c_clusters, c0)
    L, M = len(v_final), len(c_final)

    cluster_of = [-1] * n
    for ci, cl in enumerate(v_final):
        for v in cl:
            cluster_of[v] = ci
    colour_cluster_of = [-1] * K
    for cj, cl in enumerate(c_final):
        for c in cl:
            colour_cluster_of[c] = cj

    # prune: start from G_c, remove intra-cluster edges for retained colours
    pruned_edges: dict[int, list[tuple[int, int]]] = {c: [] for c in range(K)}
    for c in range(K):
        keep_all = colour_cluster_of[c] == -1
        for (u, v) in gc.edges(c):
            cu, cv = cluster_of[u], cluster_of[v]
            if keep_all or cu == -1 or cv == -1 or cu != cv:
                pruned_edges[c].append((u, v))

    # per-triple regularity: empty failing slices
    triple_pass: dict[tuple[int, int, int], bool] = {}
    stamps = {"exhaustive": 0, "sampled": 0}
    for h in range(L):
        for i in range(h + 1, L):
            mi, mh = mask_of(v_final[i]), mask_of(v_final[h])
            for j in range(M):
                res, dens = _triple_regular(
                    gc, v_final[h], v_final[i], c_final[j], eps, d,
                    sample_budget, seed + 977,
                )
                ok = res.witness is None and dens >= frac(str(d))
                stamps["exhaustive" if res.exhaustive else "sampled"] += 1
                triple_pass[(h, i, j)] = ok
                if not ok:
                    for c in c_final[j]:
                        pruned_edges[c] = [
                            (u, v)
                            for (u, v) in pruned_edges[c]
                            if not (
                                (mh >> u & 1 and mi >> v & 1)
                                or (mi >> u & 1 and mh >> v & 1)
                            )
                        ]
    pruned = GraphCollection(n, K, pruned_edges)
    reduced = tuple(
        SimpleGraph(L, [(h, i) for (h, i, jj), ok in triple_pass.items() if jj == j and ok])
        for j in range(M)
    )

    # --- the five structural properties as literal checks
    delta_measured = min(K / n, n / K) if n and K else 1.0
    loss_bound = (3 * d / delta_measured**2 + eps) * n * n
    prop_i = len(v0_final) + len(c0_final) <= eps * n
    prop_ii = all(len(cl) == m for cl in v_final) and all(len(cl) == m for cl in c_final)
    prop_iii = all(
        gc.total_degree(v) - pruned.total_degree(v) < loss_bound for v in range(n)
    ) and all(
        gc.edge_count(c) - pruned.edge_count(c) < loss_bound for c in range(K)
    )
    prop_iv = True
    for c in range(K):
        if colour_cluster_of[c] == -1:
            continue
        for (u, v) in pruned.edges(c):
            if cluster_of[u] != -1 and cluster_of[u] == cluster_of[v]:
                prop_iv = False
    prop_v = True
    for (h, i, j), ok in triple_pass.items():
        if not ok:
            mh, mi = mask_of(v_final[h]), mask_of(v_final[i])
            for c in c_final[j]:
                for (u, v) in pruned.edges(c):
                    if (mh >> u & 1 and mi >> v & 1) or (mi >> u & 1 and mh >> v & 1):
                        prop_v = False

    converged = converged_refine and prop_i and prop_iii
    diagnostics = {
        "refinement_converged": converged_refine,
        "properties": {
            "exceptional_bound": prop_i,
            "equal_sizes": prop_ii,
            "degree_loss": prop_iii,
            "intra_cluster_exile": prop_iv,
            "regular_or_empty": prop_v,
        },
        "delta_measured": delta_measured,
        "loss_bound": loss_bound,
        "triple_stamps": stamps,
        "reason": None if converged else "DidNotConverge",
    }
    return RegularityPartition(
        v_clusters=tuple(tuple(sorted(c)) for c in v_final),
        v_exceptional=v0_final,
        c_clusters=tuple(tuple(sorted(c)) for c in c_final),
        c_exceptional=c0_final,
        m=m,
        pruned=pruned,
        reduced=reduced,
        converged=converged,
        rounds=rounds,
        energy_history=tuple(energies),
        diagnostics=diagnostics,
    )
