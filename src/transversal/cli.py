"""Batch command-line front end.

Subcommands: generate, check, partition, embed, oracle, verify, bench.
Exit codes: 0 success/feasible, 1 verified-infeasible or typed pipeline
failure, 2 usage error.  Reports are JSON (bench also writes CSV); every
embed report embeds the verifier verdict, and reports are self-contained:
re-running `verify` on a report's embedding against the referenced instance
reproduces the stamp.  The default report directory comes from
TRANSVERSAL_REPORT_DIR (default: current directory).
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc as _gc
import hashlib
import json
import math
import os
import random
import sys
import time
from dataclasses import fields

from . import core, embed, generators, oracle
from .core import (
    GraphCollection,
    SimpleGraph,
    ThreeGraph,
    collection_from_json,
    collection_to_json,
    embedding_from_json,
    embedding_to_json,
    pattern_from_json,
    pattern_to_json,
    threegraph_from_bytes,
    threegraph_from_json,
    threegraph_to_json,
    verify_expansion,
    verify_transversal_embedding,
)
from .embed import SplitPlan, blowup_embed, expand_embed_3graph, quasi_embed
from .regularity import DensitySpec, partition_collection


def _digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)  # a str is its own text
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def instance_digest(inst: GraphCollection | ThreeGraph) -> str:
    """Digest of the validated instance, not of its file: equal instances get
    equal digests whatever the order, repeats and vertex order of the rows.
    A 3-graph's masks go in hex (linear time, and no digit limit on hosts of
    tens of thousands of vertices) into the JSON text of ``[n, parts, keys,
    masks]``, joined by hand: an int list prints as its JSON."""
    if isinstance(inst, ThreeGraph):
        table = inst.pair_masks().mapping
        masks = '["' + '", "'.join(map(hex, table.values())) + '"]' if table else "[]"
        return _digest(f"[{inst.n}, {json.dumps(inst.parts)}, {list(table)}, {masks}]")
    return _digest(collection_to_json(inst))


def _load(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def _dump(obj: dict, path: str | None):
    if path:
        outdir = os.environ.get("TRANSVERSAL_REPORT_DIR", ".")
        full = path if os.path.isabs(path) or os.path.dirname(path) else os.path.join(outdir, path)
        with open(full, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
    else:
        json.dump(obj, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _call(fn, params: dict, what: str, **fixed):
    """``fn(**fixed, **params)``, with an unknown, repeated or mistyped
    parameter reported as a usage error."""
    try:
        return fn(**fixed, **params)
    except TypeError as exc:
        raise ValueError(f"bad {what} parameters: {exc}") from exc


def _plan_from(params: dict | None, plan=SplitPlan, user: str = "embed"):
    """The ``plan`` (a class) with ``params`` as its overrides; a LemmaPlan
    field, where a SplitPlan is built, is refused by name."""
    params = params or {}
    if plan is SplitPlan and isinstance(params, dict):
        if moved := [f.name for f in fields(embed.LemmaPlan) if f.name in params]:
            raise ValueError(f"{user} does not take LemmaPlan fields ({', '.join(moved)}): "
                             "only Steps 0-5 (lemma_blowup) read them")
    return _call(plan, params, plan.__name__)


def _failure_outcome(failure) -> dict:
    # diagnostics as JSON values (tuples become lists); any other value as its str
    return {"status": "failure", "stage": failure.stage, "reason": failure.reason,
            "diagnostics": json.loads(json.dumps(failure.diagnostics, default=str))}


def _load_instance(path: str) -> GraphCollection | ThreeGraph:
    """Read an instance file, a plain 3-graph host straight from its bytes,
    with the cyclic garbage collector paused until the parsed document is
    freed (README, CLI): json's row lists cannot form a cycle, yet every
    collection their allocation triggers walks them all."""
    was_enabled = _gc.isenabled()
    _gc.disable()
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        inst = threegraph_from_bytes(raw)
        if inst is None:
            d = _load(path)  # read again, as text, exactly as before
            inst = collection_from_json(d) if "colours" in d else threegraph_from_json(d)
            del d
        return inst
    finally:
        if was_enabled:
            _gc.enable()


# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.construction == "random":
        gc = generators.random_collection(
            generators.GenSpec(
                n=args.n, n_colours=args.n if args.colours is None else args.colours,
                density=args.density, seed=args.seed,
            )
        )
        doc = collection_to_json(gc)
    elif args.construction == "cyclic-triangle":
        gc = generators.cyclic_triangle_collection(args.n, seed=args.seed,
                                                   n_colours=args.colours)
        doc = collection_to_json(gc)
    elif args.construction == "mantel":
        gc = generators.mantel_extremal(
            args.n, n_colours=3 if args.colours is None else args.colours)
        doc = collection_to_json(gc)
    else:  # "parity", the last of the parser's choices
        X = set(range(args.x_size or 0))
        g = generators.parity_threegraph(args.n, X, seed=args.seed)
        doc = threegraph_to_json(g)
    _dump(doc, args.out)
    return 0


def cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    report: dict = {"command": "check", "instance_digest": instance_digest(inst)}
    if args.mono_triangles:
        if not isinstance(inst, GraphCollection):
            print("mono-triangle check needs a collection instance", file=sys.stderr)
            return 2
        count = oracle.monochromatic_triangle_count(inst)
        report["monochromatic_triangles"] = count
    if args.three_density:
        # edges over the places for one; 0.0 where there is no place at all
        if isinstance(inst, GraphCollection):
            edges, places = inst.total_edge_count(), math.comb(inst.n, 2) * inst.n_colours
        elif inst.parts and len(inst.parts) == 3:
            edges, places = inst.e, math.prod(map(len, inst.parts))
        else:
            edges, places = inst.e, math.comb(inst.n, 3)
        report["density"] = edges / places if places else 0.0
    _dump(report, args.out)
    return 0


def cmd_partition(args) -> int:
    inst = _load_instance(args.instance)
    if not isinstance(inst, GraphCollection):
        print("partition needs a collection instance", file=sys.stderr)
        return 2
    spec = DensitySpec(d=args.d, epsilon=args.epsilon)
    t0 = time.monotonic()
    part = partition_collection(inst, spec, L0=args.l0, seed=args.seed)
    report = {
        "command": "partition",
        "instance_digest": instance_digest(inst),
        "seed": args.seed,
        "params": {"epsilon": args.epsilon, "d": args.d, "L0": args.l0},
        "timings": {"wall_ms": round((time.monotonic() - t0) * 1000, 1)},
        "outcome": {
            "converged": part.converged,
            "L": part.L,
            "M": part.M,
            "m": part.m,
            "rounds": part.rounds,
            "energy": list(part.energy_history),
            "properties": part.diagnostics["properties"],
        },
        "clusters": [list(c) for c in part.v_clusters],
        "colour_clusters": [list(c) for c in part.c_clusters],
        "exceptional": {
            "vertices": list(part.v_exceptional),
            "colours": list(part.c_exceptional),
        },
        "reduced": [
            {"colour_cluster": j, "edges": [list(e) for e in R.edges()]}
            for j, R in enumerate(part.reduced)
        ],
    }
    _dump(report, args.out)
    return 0 if part.converged else 1


def cmd_embed(args) -> int:
    params = _load(args.params) if args.params else None
    plan = _plan_from(params)
    pattern = pattern_from_json(_load(args.pattern))
    inst = _load_instance(args.instance)
    t0 = time.monotonic()
    if args.pipeline == "quasi":
        if not isinstance(inst, GraphCollection):
            print("quasi needs a collection instance", file=sys.stderr)
            return 2
        out = quasi_embed(inst, pattern, plan, seed=args.seed)
        verified = bool(out.ok and verify_transversal_embedding(inst, pattern, out.embedding).ok)
        outcome = (
            {"status": "success", "embedding": embedding_to_json(out.embedding)}
            if out.ok
            else _failure_outcome(out.failure)
        )
        stats = out.stats
    else:  # "expand", the last of the parser's choices
        if not isinstance(inst, ThreeGraph):
            print("expand needs a 3-graph instance", file=sys.stderr)
            return 2
        out = expand_embed_3graph(inst, pattern, plan, seed=args.seed)
        verified = bool(out.ok and verify_expansion(
            inst, pattern, out.vertex_images, out.edge_images).ok)
        outcome = (
            {
                "status": "success",
                "vertex_images": {str(k): v for k, v in out.vertex_images.items()},
                "edge_images": {f"{u},{v}": c for (u, v), c in out.edge_images.items()},
            }
            if out.ok
            else _failure_outcome(out.failure)
        )
        stats = out.stats
    report = {
        "command": "embed",
        "pipeline": args.pipeline,
        "instance_digest": instance_digest(inst),
        "pattern_digest": _digest(pattern_to_json(pattern)),
        "seed": args.seed,
        "params": params or {},
        "timings": {"wall_ms": round((time.monotonic() - t0) * 1000, 1)},
        "outcome": outcome,
        "verified": verified,
        "stats": stats,
    }
    _dump(report, args.out)
    return 0 if outcome["status"] == "success" else 1


def cmd_oracle(args) -> int:
    inst = _load_instance(args.instance)
    if not isinstance(inst, GraphCollection):
        print("oracle needs a collection instance", file=sys.stderr)
        return 2
    pattern = pattern_from_json(_load(args.pattern))
    budget = oracle.SearchBudget(node_limit=args.node_limit)
    t0 = time.monotonic()
    if args.count:
        res = oracle.count_rainbow_copies(inst, pattern, budget)
        outcome = {"status": res.status, "count": res.count, "nodes": res.nodes,
                   "convention": res.convention}
        code = 0
    else:
        res = oracle.exact_transversal_embed(inst, pattern, budget=budget)
        outcome = {"status": res.status, "nodes": res.nodes}
        if res.feasible:
            outcome["embedding"] = embedding_to_json(res.embedding)
        code = 0 if res.feasible else 1
    report = {
        "command": "oracle",
        "instance_digest": instance_digest(inst),
        "pattern_digest": _digest(pattern_to_json(pattern)),
        "timings": {"wall_ms": round((time.monotonic() - t0) * 1000, 1)},
        "outcome": outcome,
    }
    _dump(report, args.out)
    return code


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    if not isinstance(inst, GraphCollection):
        print("verify needs a collection instance", file=sys.stderr)
        return 2
    pattern = pattern_from_json(_load(args.pattern))
    emb_doc = _load(args.embedding)
    if isinstance(outcome := emb_doc.get("outcome"), dict):  # a full embed report
        if "embedding" not in outcome:
            raise ValueError(f"{args.embedding}: the report holds no embedding "
                             f"(status {outcome.get('status')!r})")
        emb_doc = outcome["embedding"]
    emb = embedding_from_json(emb_doc)
    rep = verify_transversal_embedding(inst, pattern, emb)
    report = {
        "command": "verify",
        "instance_digest": instance_digest(inst),
        "ok": rep.ok,
        "violations": list(rep.violations),
    }
    _dump(report, args.out)
    return 0 if rep.ok else 1


def _bench_one(run: dict, seed: int):
    kind = run["construction"].get("kind", "random")
    cparams = {k: v for k, v in run["construction"].items() if k != "kind"}
    # a blowup run calls a stage embedder of Steps 0-5, which takes a LemmaPlan
    plan = _plan_from(run.get("params"),
                      embed.LemmaPlan if run["pipeline"] == "blowup" else SplitPlan,
                      f"a {run['pipeline']} bench run")
    pattern = pattern_from_json(run["pattern"])
    t0 = time.monotonic()
    if run["pipeline"] == "quasi":
        if kind == "random":
            gc = generators.random_collection(
                _call(generators.GenSpec, cparams, kind, seed=seed)
            )
        elif kind == "cyclic-triangle":
            gc = _call(generators.cyclic_triangle_collection, cparams, kind, seed=seed)
        elif kind == "mantel":
            gc = _call(generators.mantel_extremal, cparams, kind)
        else:
            raise ValueError(f"unknown construction {kind!r}")
        out = quasi_embed(gc, pattern, plan, seed=seed)
        ok, failure, st = out.ok, out.failure, out.stats
        attempts = st.get("attempts", "")
        path = st["path"] if ok else ""
    elif run["pipeline"] == "blowup":
        def bipartite(n=30, density=0.6):
            rng = random.Random(seed)
            sides = [list(range(n)), list(range(n, 2 * n))]
            return sides, SimpleGraph(
                2 * n, [(u, v) for u in sides[0] for v in sides[1] if rng.random() < density]
            )

        sides, host = _call(bipartite, cparams, "blowup")
        phi = run.get("phi") or pattern.phi
        if not (isinstance(phi, (list, tuple)) and len(phi) == pattern.n
                and all(isinstance(i, int) and i in (0, 1) for i in phi)):
            raise ValueError("a blowup run needs phi: one cluster, 0 or 1, per pattern vertex")
        res = blowup_embed(host, sides, pattern, phi, pattern.targets, plan, seed=seed)
        ok, failure, path = res.ok, res.failure, "main"
        attempts = res.restarts + 1 if res.ok else res.restarts
    else:
        raise ValueError(f"unknown pipeline {run['pipeline']!r}")
    wall = round((time.monotonic() - t0) * 1000, 1)
    return {
        "name": run.get("name", run["pipeline"]),
        "seed": seed,
        "success": int(ok),
        "stage": failure.stage if failure else "",
        "reason": failure.reason if failure else "",
        "attempts": attempts,
        "path": path if ok else "",
        "wall_ms": wall,
    }


def cmd_bench(args) -> int:
    suite = _load(args.suite)
    rows = []
    for run in suite.get("runs", []):
        for seed in run.get("seeds", [0]):
            rows.append(_bench_one(run, seed))
    rows.sort(key=lambda r: (r["name"], r["seed"]))
    fields = ["name", "seed", "success", "stage", "reason", "attempts", "path", "wall_ms"]
    out = args.out or "bench.csv"
    with open(out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        for r in rows:
            w.writerow(r)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="transversal",
                                description="transversal embedding toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="generate an instance")
    g.add_argument("--construction", required=True,
                   choices=["random", "cyclic-triangle", "mantel", "parity"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--colours", type=int)
    g.add_argument("--density", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--x-size", type=int, default=0, help="|X| for the parity construction")
    g.add_argument("--out")
    g.set_defaults(fn=cmd_generate)

    c = sub.add_parser("check", help="structural checks on an instance")
    c.add_argument("--instance", required=True)
    c.add_argument("--mono-triangles", action="store_true")
    c.add_argument("--three-density", action="store_true")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_check)

    pa = sub.add_parser("partition", help="regularity partition of a collection")
    pa.add_argument("--instance", required=True)
    pa.add_argument("--epsilon", type=float, default=0.25)
    pa.add_argument("--d", type=float, default=0.3)
    pa.add_argument("--l0", type=int, default=3)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out")
    pa.set_defaults(fn=cmd_partition)

    e = sub.add_parser("embed", help="run an embedding pipeline")
    e.add_argument("--pipeline", required=True, choices=["quasi", "expand"])
    e.add_argument("--instance", required=True)
    e.add_argument("--pattern", required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--params", help="JSON file with SplitPlan overrides")
    e.add_argument("--out")
    e.set_defaults(fn=cmd_embed)

    o = sub.add_parser("oracle", help="exact brute-force solve")
    o.add_argument("--instance", required=True)
    o.add_argument("--pattern", required=True)
    o.add_argument("--count", action="store_true")
    o.add_argument("--node-limit", type=int, default=2_000_000)
    o.add_argument("--out")
    o.set_defaults(fn=cmd_oracle)

    v = sub.add_parser("verify", help="verify an embedding against an instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--pattern", required=True)
    v.add_argument("--embedding", required=True)
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("--suite", required=True)
    b.add_argument("--out")
    b.set_defaults(fn=cmd_bench)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use (about 2 ms) and then kept."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:  # a file that cannot be opened, read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
