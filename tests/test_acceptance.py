"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are pinned here, not calibrated elsewhere.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from transversal.core import (
    GraphCollection,
    PatternGraph,
    SimpleGraph,
    verify_transversal_embedding,
)
from transversal.embed import (
    LemmaPlan,
    SplitPlan,
    approx_embed,
    blowup_embed,
    build_absorber,
    lemma_blowup,
    quasi_embed,
    transversal_blowup,
)
from transversal.generators import (
    GenSpec,
    cyclic_triangle_collection,
    mantel_extremal,
    parity_threegraph,
    random_collection,
)
from transversal.oracle import (
    INFEASIBLE,
    SearchBudget,
    exact_transversal_embed,
    monochromatic_triangle_count,
    tight_hamilton_search,
)
from transversal.regularity import (
    DensitySpec,
    density,
    irregularity_witness,
    ledger_slice,
    make_ledger,
    partition_collection,
    typical_elements,
)
from transversal.templates import make_template, thick_graph
from transversal.vizing import extract_matching

FAST_PLAN = SplitPlan(retries=6)
FAST_LEMMA = LemmaPlan(approx_retries=5, blowup_restarts=15)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _bip_collection(m, k, dens, seed):
    rng = random.Random(seed)
    edges = {
        c: [(u, v) for u in range(m) for v in range(m, 2 * m) if rng.random() < dens]
        for c in range(k)
    }
    return GraphCollection(2 * m, k, edges)


def _bip_template(m, k, dens, seed, d="0.5"):
    gc = _bip_collection(m, k, dens, seed)
    return make_template(
        [range(m), range(m, 2 * m)], {(0, 1): range(k)}, gc, d=d, eps="0.05", m=m,
    )


def _matching_pattern(m):
    return PatternGraph(2 * m, [(i, m + i) for i in range(m)]), [0] * m + [1] * m


def _paths_pattern(m):
    edges = []
    for k in range(m // 2):
        a, b = 2 * k, 2 * k + 1
        ap, bp = m + 2 * k, m + 2 * k + 1
        edges += [(a, ap), (ap, b), (b, bp)]
    return PatternGraph(2 * m, edges), [0] * m + [1] * m


def test_criterion_01_verifier_soundness():
    """>= 200 seeded pipeline runs; every success verified; <= 2 min."""
    t0 = time.monotonic()
    runs = 0
    successes = 0
    unverified = 0
    # quasi runs
    for seed in range(60):
        n = (12, 16, 20, 24)[seed % 4]
        dens = (0.6, 0.8, 1.0)[seed % 3]
        gc = random_collection(GenSpec(n=n, n_colours=n // 2, density=dens, seed=seed))
        H = PatternGraph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
        out = quasi_embed(gc, H, FAST_PLAN, seed=seed)
        runs += 1
        if out.ok:
            successes += 1
            if not verify_transversal_embedding(gc, H, out.embedding).ok:
                unverified += 1
    # transversal blow-up runs, including the full stated scale and sparse
    # hosts that exercise the typed-failure paths
    for seed in range(60):
        m = (12, 16, 24, 30)[seed % 4]
        dens = (0.45, 0.7, 0.85, 1.0)[seed % 4]
        if seed % 2:
            H, phi = _matching_pattern(m)
        else:
            H, phi = _paths_pattern(m)
        k = H.e
        t = _bip_template(m, k, dens, seed)
        out = transversal_blowup(t, H, phi, None, FAST_PLAN, seed=seed)
        runs += 1
        if out.ok:
            successes += 1
            view = PatternGraph(2 * m, H.edges())
            if not verify_transversal_embedding(t.gc, view, out.embedding).ok:
                unverified += 1
    # large quasi runs at the top of the stated scale (n=60, |C| up to 120)
    for seed in range(20):
        n = 60
        dens = (0.5, 0.8)[seed % 2]
        gc = random_collection(GenSpec(n=n, n_colours=n // 2, density=dens, seed=seed))
        H = PatternGraph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
        out = quasi_embed(gc, H, FAST_PLAN, seed=seed)
        runs += 1
        if out.ok:
            successes += 1
            if not verify_transversal_embedding(gc, H, out.embedding).ok:
                unverified += 1
    # approx runs
    for seed in range(40):
        m = 12
        K = 2 * m + 8
        t = _bip_template(m, K, (0.8, 1.0)[seed % 2], seed, d="0.6")
        t = make_template(t.clusters, t.colour_clusters, t.gc, d="0.5", eps="0.05", m=m)
        edges = []
        for j in range(m // 2):
            a, b = 2 * j, 2 * j + 1
            c, d_ = m + 2 * j, m + 2 * j + 1
            edges += [(a, c), (c, b), (b, d_), (d_, a)]
        H = PatternGraph(2 * m, edges)
        phi = [0] * m + [1] * m
        out = approx_embed(t, H, phi, None, FAST_LEMMA, seed=seed)
        runs += 1
        if out.ok:
            successes += 1
            view = PatternGraph(2 * m, H.edges())
            if not verify_transversal_embedding(t.gc, view, out.embedding).ok:
                unverified += 1
    # uncoloured blow-up runs (structural verification)
    for seed in range(40):
        rng = random.Random(1000 + seed)
        n_side = 20
        host = SimpleGraph(
            2 * n_side,
            [(u, v) for u in range(n_side) for v in range(n_side, 2 * n_side)
             if rng.random() < 0.65],
        )
        H, phi = _matching_pattern(n_side)
        res = blowup_embed(host, [list(range(n_side)), list(range(n_side, 2 * n_side))],
                           H, phi, None, FAST_LEMMA, seed=seed)
        runs += 1
        if res.ok:
            successes += 1
            for (u, v) in H.edges():
                if not host.has_edge(res.tau[u], res.tau[v]):
                    unverified += 1
                    break
    wall = time.monotonic() - t0
    ok = runs >= 200 and unverified == 0 and wall <= 120
    _report(1, "verifier soundness on seeded pipeline runs", ok,
            f"{runs} runs, {successes} successes, {unverified} unverified, {wall:.1f}s")


def test_criterion_02_oracle_agreement():
    """Exhaustive small grid: every pipeline success is oracle-feasible."""
    patterns = [
        PatternGraph(6, [(0, 3), (1, 4), (2, 5)]),
        PatternGraph(4, [(0, 1), (1, 2), (2, 3)]),
        PatternGraph(6, [(i, (i + 1) % 6) for i in range(6)]),
        PatternGraph(8, [(i, (i + 1) % 8) for i in range(8)]),
        PatternGraph(8, [(i, i + 1) for i in range(7)]),
    ]
    densities = (0.5, 0.75, 1.0)
    runs = successes = disagreements = 0
    seed = 0
    while runs < 50:
        H = patterns[runs % len(patterns)]
        dens = densities[runs % len(densities)]
        assert H.n <= 8 and H.e <= 8 and H.max_degree <= 2
        gc = random_collection(GenSpec(n=8, n_colours=H.e, density=dens, seed=seed))
        out = quasi_embed(gc, H, FAST_PLAN, seed=seed)
        if out.ok:
            successes += 1
            assert verify_transversal_embedding(gc, H, out.embedding).ok
            oracle = exact_transversal_embed(gc, H)
            if not oracle.feasible:
                disagreements += 1
        runs += 1
        seed += 1
    ok = disagreements == 0
    _report(2, "pipeline successes agree with the exact oracle", ok,
            f"{runs} grid runs, {successes} successes, {disagreements} disagreements")


def test_criterion_03_cyclic_triangle_construction():
    t0 = time.monotonic()
    gc12 = cyclic_triangle_collection(12, seed=1)
    mono = monochromatic_triangle_count(gc12)
    dens_ok = True
    for seed in range(20):
        gc = cyclic_triangle_collection(60, seed=seed)
        pairs = math.comb(60, 2)
        dens = gc.total_edge_count() / (pairs * 60)
        if abs(dens - 0.25) > 0.05:
            dens_ok = False
    wall = time.monotonic() - t0
    ok = mono == 0 and dens_ok and wall <= 30
    _report(3, "cyclic-triangle construction: no mono triangle, density 1/4", ok,
            f"mono={mono}, 20 seeds at n=60, {wall:.1f}s")


def test_criterion_04_parity_three_graph():
    g = parity_threegraph(4, {0}, seed=0)  # |X ∩ V_1| = 1, odd
    res = tight_hamilton_search(g, budget=SearchBudget(node_limit=5_000_000))
    infeasible = res.status == INFEASIBLE
    g2 = parity_threegraph(20, frozenset(), seed=1)
    dens = g2.e / (20 * 20 * 20)
    dens_ok = abs(dens - 0.125) <= 0.05
    ok = infeasible and dens_ok
    _report(4, "parity 3-graph: odd-X obstruction and 1/8 density", ok,
            f"status={res.status}, density={dens:.4f}")


def test_criterion_05_mantel_boundary():
    ok = True
    detail = []
    for n in (6, 7):
        gc = mantel_extremal(n)
        edges_ok = gc.edge_count(0) == n * n // 4
        tri_free = monochromatic_triangle_count(gc) == 0
        K3 = PatternGraph(3, [(0, 1), (1, 2), (0, 2)])
        base_infeasible = exact_transversal_embed(gc, K3).status == INFEASIBLE
        layer = set(gc.edges(0))
        missing = [
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in layer
        ]
        all_flip = all(
            exact_transversal_embed(
                GraphCollection(n, 3, {c: list(layer) + [e] for c in range(3)}), K3
            ).feasible
            for e in missing
        )
        ok = ok and edges_ok and tri_free and base_infeasible and all_flip
        detail.append(f"n={n}: {len(missing)} flips")
    _report(5, "Mantel boundary exact at n=6,7", ok, "; ".join(detail))


def test_criterion_06_ledger_arithmetic():
    led = make_ledger(10, "0.01", "0.4", "0.5", mode="super")
    led_h = make_ledger(10, "0.01", "0.4", "0.5", mode="half-super")
    checks = [
        ledger_slice(led, "proportional-slice", alpha="0.5").params[1:3]
        == (Fraction(1, 50), Fraction(1, 5)),
        ledger_slice(led, "near-spanning-slice", alpha="0.1").params[1:3]
        == (Fraction(1, 50), Fraction(1, 5)),
        ledger_slice(led, "random-slice", alpha="0.5").params[1:3]
        == (Fraction(1, 50), Fraction(1, 100)),
        ledger_slice(led_h, "sparsify", eps_prime="0.05").params[1:3]
        == (Fraction(1, 20), Fraction(2, 25)),
        ledger_slice(led, "template-i", alpha="0.5", k=2).params
        == (Fraction(5), Fraction(1, 50), Fraction(1, 5), Fraction(1, 4)),
        ledger_slice(led, "template-ii").params
        == (Fraction(5), Fraction(1, 50), Fraction(1, 5), Fraction(1, 4)),
        ledger_slice(led, "template-iii", alpha="0.5", k=1).params
        == (Fraction(5), Fraction(1, 50), Fraction(1, 100), Fraction(1, 2)),
        ledger_slice(led_h, "template-iv", eps_prime="0.1").params
        == (Fraction(10), Fraction(1, 10), Fraction(2, 25), Fraction(1, 2)),
    ]
    _report(6, "ledger closed forms exact as rational arithmetic", all(checks),
            f"{sum(checks)}/8 forms")


def test_criterion_07_typical_elements():
    spec = DensitySpec(d=0.45, epsilon=0.45)
    certified = 0
    violations = 0
    seed = 0
    while certified < 50 and seed < 300:
        gc = random_collection(GenSpec(n=16, n_colours=8, density=0.55, seed=seed))
        seed += 1
        V1, V2 = list(range(8)), list(range(8, 16))
        res = irregularity_witness(gc, (V1, V2, list(range(8))), spec)
        dens = density(gc, (V1, V2, list(range(8))))
        if not (res.proof and res.witness is None and dens >= Fraction(45, 100)):
            continue
        certified += 1
        te = typical_elements(gc, V1, V2, spec)
        if (
            len(te.atypical_vertices[0]) > spec.epsilon * 8
            or len(te.atypical_vertices[1]) > spec.epsilon * 8
            or len(te.atypical_colours) > spec.epsilon * 8
        ):
            violations += 1
    ok = certified == 50 and violations == 0
    _report(7, "typical-element bounds on 50 certified regular instances", ok,
            f"{certified} certified, {violations} violations")


def test_criterion_08_thick_graph_degree_bound():
    d, lam = 0.4, 0.05
    good = 0
    violations = 0
    seed = 0
    while good < 20 and seed < 200:
        m, k = 10, 12
        gc = _bip_collection(m, k, 0.6, 5000 + seed)
        seed += 1
        # exact semi-super degree screen
        semi = True
        for side, other in ((range(m), range(m, 2 * m)), (range(m, 2 * m), range(m))):
            for v in side:
                tot = sum(
                    sum(1 for w in other if gc.has_edge(c, v, w)) for c in range(k)
                )
                if tot < d * m * k:
                    semi = False
        if not semi:
            continue
        good += 1
        t = make_template([range(m), range(m, 2 * m)], {(0, 1): range(k)},
                          gc, d=str(d), eps="0.45", m=m)
        tk = thick_graph(t, lam)
        for v in range(2 * m):
            if tk.graph.degree(v) < 0.2 * m:
                violations += 1
    ok = good == 20 and violations == 0
    _report(8, "thick-graph min degree >= 0.2|V_j| on semi-super instances", ok,
            f"{good} instances, {violations} vertex violations")


def test_criterion_09_vizing_matching_bound():
    rng = random.Random(0)
    failures = 0
    built = 0
    while built < 100:
        n = rng.randrange(8, 26)
        g_edges = []
        deg = [0] * n
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(candidates)
        for (u, v) in candidates:
            if deg[u] < 4 and deg[v] < 4 and rng.random() < 0.5:
                g_edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
        g = SimpleGraph(n, g_edges)
        if g.e == 0 or g.max_degree > 4:
            continue
        built += 1
        matching = extract_matching(g)
        if len(matching) < math.ceil(g.e / (g.max_degree + 1)):
            failures += 1
        mv = [v for e in matching for v in e]
        if len(set(mv)) != len(mv):
            failures += 1
    _report(9, "Vizing extraction meets ceil(e/(Delta+1)) on 100 graphs",
            failures == 0, f"{failures} failures")


def test_criterion_10_absorber_flexibility():
    rng = random.Random(7)
    built = 0
    failures = 0
    attempt = 0
    while built < 30 and attempt < 120:
        attempt += 1
        n_pairs = rng.randrange(5, 9)
        k = rng.randrange(10, 15)
        l = rng.randrange(1, 4)
        bsize = rng.randrange(max(6, l + 3), 13)
        pairs = [(i, 10 + i) for i in range(n_pairs)]
        edges = {c: [e for e in pairs if rng.random() < 0.8] for c in range(k)}
        gc = GraphCollection(20, k, edges)
        t = make_template([range(10), range(10, 20)], {(0, 1): range(k)},
                          gc, d="0.5", eps="0.1", m=10)
        if bsize > k or n_pairs - l > k - bsize:
            continue
        ab = build_absorber(t, {(0, 1): pairs}, LemmaPlan(), seed=attempt,
                            l_sizes={(0, 1): l}, b_sizes={(0, 1): bsize})
        if not hasattr(ab, "per_edge"):
            continue  # construction reported a typed failure; draw a new instance
        ent = ab.per_edge[(0, 1)]
        if len(ent.B) > 12 or ent.l > 3:
            continue
        built += 1
        assert ent.verified == "exhaustive"
        for B0 in combinations(ent.B, ent.l):
            if ab.matching_for(gc, (0, 1), B0) is None:
                failures += 1
    ok = built == 30 and failures == 0
    _report(10, "absorber flexibility exhaustive over all B-subsets", ok,
            f"{built} absorbers, {failures} failing subsets")


def test_criterion_11_partition_structure():
    configs = []
    edges_c = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    configs.append((GraphCollection(12, 12, {c: edges_c for c in range(12)}),
                    DensitySpec(d=0.5, epsilon=0.25), 3))
    blockA, blockB = list(range(6)), list(range(6, 12))
    eb = [(u, v) for u in blockA for v in blockA if u < v] + [
        (u, v) for u in blockB for v in blockB if u < v
    ]
    configs.append((GraphCollection(12, 12, {c: eb for c in range(12)}),
                    DensitySpec(d=0.4, epsilon=0.2), 2))
    configs.append((random_collection(GenSpec(n=16, n_colours=16, density=0.7, seed=3)),
                    DensitySpec(d=0.3, epsilon=0.3), 3))
    configs.append((random_collection(GenSpec(n=18, n_colours=18, density=0.8, seed=5)),
                    DensitySpec(d=0.3, epsilon=0.3), 3))
    converged = 0
    bad_props = 0
    non_monotone = 0
    for seed, (gc, spec, L0) in enumerate(configs):
        part = partition_collection(gc, spec, L0=L0, seed=seed)
        e = part.energy_history
        if not all(b >= a - 1e-12 for a, b in zip(e, e[1:])):
            non_monotone += 1
        if part.converged:
            converged += 1
            if not all(part.diagnostics["properties"].values()):
                bad_props += 1
    ok = converged >= 2 and bad_props == 0 and non_monotone == 0
    _report(11, "partition structural properties + monotone energy", ok,
            f"{converged}/{len(configs)} converged, {bad_props} property failures")


def test_criterion_12_blowup_success_rate():
    t0 = time.monotonic()
    n_side = 30
    successes = 0
    for seed in range(50):
        rng = random.Random(9000 + seed)
        host = SimpleGraph(
            2 * n_side,
            [(u, v) for u in range(n_side) for v in range(n_side, 2 * n_side)
             if rng.random() < 0.6],
        )
        kind = seed % 3
        if kind == 0:  # spanning 60-cycle, Delta 2
            edges = [(i, n_side + i) for i in range(n_side)] + [
                (n_side + i, (i + 1) % n_side) for i in range(n_side)
            ]
        elif kind == 1:  # two disjoint perfect matchings: even-cycle union
            edges = [(i, n_side + i) for i in range(n_side)] + [
                (i, n_side + (i + 7) % n_side) for i in range(n_side)
            ]
        else:  # cycle plus a half matching, Delta 3
            edges = [(i, n_side + i) for i in range(n_side)] + [
                (n_side + i, (i + 1) % n_side) for i in range(n_side)
            ] + [(i, n_side + (i + 11) % n_side) for i in range(0, n_side, 2)]
        H = PatternGraph(2 * n_side, sorted(set(tuple(sorted(e)) for e in edges)))
        assert H.max_degree <= 3
        phi = [0] * n_side + [1] * n_side
        res = blowup_embed(
            host, [list(range(n_side)), list(range(n_side, 2 * n_side))],
            H, phi, None, LemmaPlan(blowup_restarts=40), seed=seed,
        )
        if res.ok:
            for (u, v) in H.edges():
                assert host.has_edge(res.tau[u], res.tau[v])
            successes += 1
    wall = time.monotonic() - t0
    ok = successes >= 45 and wall <= 60
    _report(12, "blow-up success rate on density-0.6 hosts", ok,
            f"{successes}/50 successes, {wall:.1f}s")


def test_criterion_13_colour_conservation():
    # every seed runs on the one-shot passes, then on Steps 0-5 (lemma_blowup)
    main_path = 0
    checked = {False: 0, True: 0}
    bad = 0
    for steps_only in (False, True):
        for seed in range(30):
            m = 24
            dens = (0.8, 1.0)[seed % 2]
            if seed % 2:
                H, phi = _matching_pattern(m)
            else:
                H, phi = _paths_pattern(m)
            t = _bip_template(m, H.e, dens, 300 + seed)
            if steps_only:
                out = lemma_blowup(t, H, phi, None, LemmaPlan(), seed=seed)
            else:
                out = transversal_blowup(t, H, phi, None, SplitPlan(), seed=seed)
            if not out.ok:
                continue
            checked[steps_only] += 1
            if sorted(out.embedding.sigma.values()) != list(range(H.e)):
                bad += 1
            if "leftover" in out.stats:
                main_path += 1
                for key, leftover in out.stats["leftover"].items():
                    if leftover != out.stats["l_sizes"][key]:
                        bad += 1
    ok = min(checked.values()) >= 15 and main_path >= 10 and bad == 0
    _report(13, "sigma bijective onto colours + Step-5 leftover identity", ok,
            f"{checked[False]} and {checked[True]} successes, {main_path} main-path, "
            f"{bad} violations")
