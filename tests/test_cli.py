import csv
import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import transversal
from transversal import embed
from transversal.cli import _load_instance, instance_digest, main
from transversal.core import (
    GraphCollection,
    PatternGraph,
    ThreeGraph,
    collection_to_json,
    pattern_to_json,
)
from transversal.embed import LemmaPlan, SplitPlan
from transversal.generators import parity_threegraph


def write_json(path, obj):
    path.write_text(json.dumps(obj))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # bare --out names must land in tmp_path (the documented default, the
    # current directory), whatever report directory the caller's shell sets
    monkeypatch.delenv("TRANSVERSAL_REPORT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _child_env():
    """Environment in which a child interpreter imports the same `transversal`
    as this process, from any working directory (a relative PYTHONPATH entry
    such as `src` stops resolving once the test has changed directory)."""
    env = dict(os.environ)
    pkg_parent = str(pathlib.Path(transversal.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_parent, env.get("PYTHONPATH")]))
    return env


def test_generate_check_cycle(workdir):
    assert main([
        "generate", "--construction", "cyclic-triangle", "--n", "12",
        "--seed", "1", "--out", "g.json",
    ]) == 0
    assert main(["check", "--instance", "g.json", "--mono-triangles", "--out", "c.json"]) == 0
    rep = json.loads((workdir / "c.json").read_text())
    assert rep["monochromatic_triangles"] == 0


@pytest.mark.parametrize("construction, flags, check", [
    ("mantel", ["--n", "8", "--colours", "3"], "--mono-triangles"),
    ("parity", ["--n", "4", "--x-size", "1", "--seed", "2"], "--three-density"),
])
def test_generate_mantel_and_parity_then_check(workdir, construction, flags, check):
    reports = []
    for run in range(2):
        assert main(["generate", "--construction", construction, *flags,
                     "--out", f"g{run}.json"]) == 0
        assert main(["check", "--instance", f"g{run}.json", check,
                     "--out", f"c{run}.json"]) == 0
        reports.append(json.loads((workdir / f"c{run}.json").read_text()))
    assert reports[0]["instance_digest"] == reports[1]["instance_digest"]
    if construction == "mantel":
        # K_{4,4} in every colour is triangle-free
        assert reports[0]["monochromatic_triangles"] == 0
    else:
        g = parity_threegraph(4, {0}, seed=2)
        assert reports[0]["density"] == g.e / 4 ** 3


def test_embed_feasible_and_verify_round_trip(workdir):
    assert main([
        "generate", "--construction", "random", "--n", "12", "--colours", "6",
        "--density", "1.0", "--seed", "1", "--out", "inst.json",
    ]) == 0
    H = PatternGraph(12, [(2 * i, 2 * i + 1) for i in range(6)])
    write_json(workdir / "h.json", pattern_to_json(H))
    code = main([
        "embed", "--pipeline", "quasi", "--instance", "inst.json",
        "--pattern", "h.json", "--seed", "7", "--out", "rep.json",
    ])
    assert code == 0
    rep = json.loads((workdir / "rep.json").read_text())
    assert rep["verified"] is True
    assert rep["outcome"]["status"] == "success"
    # the templates' numbers: half the complete host's density, quasi's eps
    # (embed.EPS) and the least of the two parts' sizes; the report carries
    # quasi's stats as they are
    assert rep["stats"]["template"] == {"d": "1/2", "eps": "1/20", "m": "6"}
    assert sorted(rep["stats"]) == ["attempts", "blowup", "path", "template"]
    # re-running verify on the report's embedding reproduces the stamp
    assert main([
        "verify", "--instance", "inst.json", "--pattern", "h.json",
        "--embedding", "rep.json", "--out", "v.json",
    ]) == 0
    v = json.loads((workdir / "v.json").read_text())
    assert v["ok"] is True
    assert v["instance_digest"] == rep["instance_digest"]


def test_oracle_infeasible_exit_code(workdir):
    assert main([
        "generate", "--construction", "random", "--n", "6", "--colours", "2",
        "--density", "1.0", "--seed", "1", "--out", "tri.json",
    ]) == 0
    K3 = PatternGraph(3, [(0, 1), (1, 2), (0, 2)])
    write_json(workdir / "k3.json", pattern_to_json(K3))
    code = main([
        "oracle", "--instance", "tri.json", "--pattern", "k3.json", "--out", "o.json",
    ])
    assert code == 1
    rep = json.loads((workdir / "o.json").read_text())
    assert rep["outcome"]["status"] == "infeasible"


def test_oracle_count_report(workdir):
    # both colours complete on three vertices: each of the 3 paths P_3 takes
    # its two colours in either order, so 6 copies up to automorphism
    write_json(workdir / "inst.json", collection_to_json(
        GraphCollection(3, 2, {c: [(0, 1), (1, 2), (0, 2)] for c in range(2)})))
    write_json(workdir / "p3.json", pattern_to_json(PatternGraph(3, [(0, 1), (1, 2)])))
    assert main(["oracle", "--instance", "inst.json", "--pattern", "p3.json", "--count",
                 "--out", "o.json"]) == 0
    outcome = json.loads((workdir / "o.json").read_text())["outcome"]
    assert (outcome["status"], outcome["count"]) == ("exact", 6)
    assert outcome["convention"] == "labelled (tau, sigma) pairs divided by |Aut(F)|"


def test_oracle_count_refuses_a_pattern_with_target_sets(workdir, capsys):
    # the complete 3-vertex, 3-colour collection, where the triangle has 6
    # copies, and a target host that the embedder finds nowhere
    write_json(workdir / "inst.json", collection_to_json(
        GraphCollection(3, 3, {c: [(0, 1), (1, 2), (0, 2)] for c in range(3)})))
    write_json(workdir / "k3.json", pattern_to_json(
        PatternGraph(3, [(0, 1), (1, 2), (0, 2)], targets={0: [7]})))
    assert main(["oracle", "--instance", "inst.json", "--pattern", "k3.json",
                 "--out", "o.json"]) == 1
    assert json.loads((workdir / "o.json").read_text())["outcome"]["status"] == "infeasible"
    assert main(["oracle", "--instance", "inst.json", "--pattern", "k3.json", "--count",
                 "--out", "c.json"]) == 2
    assert "copy counting does not support target sets" in capsys.readouterr().err
    assert not (workdir / "c.json").exists()


def test_feasible_oracle_report_carries_a_verified_embedding(workdir):
    write_json(workdir / "inst.json", collection_to_json(
        GraphCollection(4, 2, {0: [(0, 1)], 1: [(1, 2), (2, 3)]})))
    write_json(workdir / "p3.json", pattern_to_json(PatternGraph(3, [(0, 1), (1, 2)])))
    assert main(["oracle", "--instance", "inst.json", "--pattern", "p3.json",
                 "--out", "o.json"]) == 0
    outcome = json.loads((workdir / "o.json").read_text())["outcome"]
    assert outcome["status"] == "feasible"
    # the only rainbow P_3 is 0-1-2 (either way round): edge 01 in colour 0, 12 in colour 1
    tau = {int(v): w for v, w in outcome["embedding"]["tau"].items()}
    assert {tau[0], tau[2]} == {0, 2} and tau[1] == 1
    assert sorted(outcome["embedding"]["sigma"].values()) == [0, 1]
    # verify reads the embedding out of the oracle report
    assert main(["verify", "--instance", "inst.json", "--pattern", "p3.json",
                 "--embedding", "o.json", "--out", "v.json"]) == 0
    assert json.loads((workdir / "v.json").read_text())["ok"] is True


def test_three_density_of_a_collection(workdir):
    # 3 edges of colour 0 and none of colour 1, over C(4, 2) = 6 pairs per colour
    write_json(workdir / "inst.json", collection_to_json(
        GraphCollection(4, 2, {0: [(0, 1), (1, 2), (2, 3)]})))
    assert main(["check", "--instance", "inst.json", "--three-density", "--out", "c.json"]) == 0
    assert json.loads((workdir / "c.json").read_text())["density"] == 3 / 12


@pytest.mark.parametrize("doc", [
    {"n": 2, "edges": []},
    {"n": 2, "edges": [], "parts": [[0], [1], []]},
    {"n": 3, "colours": [], "edges": {}},
], ids=["n-below-3", "empty-part", "no-colours"])
def test_three_density_with_no_places_is_zero(workdir, doc):
    # these used to exit 1 with a ZeroDivisionError traceback
    write_json(workdir / "inst.json", doc)
    assert main(["check", "--instance", "inst.json", "--three-density", "--out", "c.json"]) == 0
    assert json.loads((workdir / "c.json").read_text())["density"] == 0.0


def test_partition_report(workdir):
    assert main([
        "generate", "--construction", "random", "--n", "12", "--colours", "12",
        "--density", "1.0", "--seed", "0", "--out", "inst.json",
    ]) == 0
    code = main([
        "partition", "--instance", "inst.json", "--epsilon", "0.25", "--d", "0.5",
        "--l0", "3", "--out", "p.json",
    ])
    assert code == 0
    rep = json.loads((workdir / "p.json").read_text())
    assert rep["outcome"]["converged"] is True
    assert rep["outcome"]["properties"]["equal_sizes"] is True


def test_bench_rows_and_determinism(workdir):
    H = PatternGraph(12, [(2 * i, 2 * i + 1) for i in range(6)])
    suite = {
        "runs": [
            {
                "name": "tiny",
                "construction": {"kind": "random", "n": 12, "n_colours": 6, "density": 1.0},
                "pipeline": "quasi",
                "pattern": pattern_to_json(H),
                "seeds": [0, 1, 2],
            }
        ]
    }
    write_json(workdir / "suite.json", suite)
    assert main(["bench", "--suite", "suite.json", "--out", "b1.csv"]) == 0
    assert main(["bench", "--suite", "suite.json", "--out", "b2.csv"]) == 0
    rows1 = list(csv.DictReader(open(workdir / "b1.csv")))
    rows2 = list(csv.DictReader(open(workdir / "b2.csv")))
    assert len(rows1) == 3
    for a, b in zip(rows1, rows2):
        assert a["success"] == b["success"] and a["seed"] == b["seed"]


def test_empty_suite_gives_header_only(workdir):
    write_json(workdir / "s.json", {"runs": []})
    assert main(["bench", "--suite", "s.json", "--out", "e.csv"]) == 0
    content = (workdir / "e.csv").read_text().strip().splitlines()
    assert len(content) == 1 and content[0].startswith("name,")


MATCHING_12 = pattern_to_json(PatternGraph(12, [(2 * i, 2 * i + 1) for i in range(6)]))
# an 8-cycle across the two clusters of the blow-up host
CYCLE_8 = PatternGraph(8, [(i, 4 + i) for i in range(4)] + [(4 + i, (i + 1) % 4) for i in range(4)])


def test_bench_runs_every_construction_and_pipeline(workdir):
    suite = {"runs": [
        {"name": "cyclic", "construction": {"kind": "cyclic-triangle", "n": 12, "n_colours": 6},
         "pipeline": "quasi", "pattern": MATCHING_12, "seeds": [0]},
        {"name": "mantel", "construction": {"kind": "mantel", "n": 12, "n_colours": 6},
         "pipeline": "quasi", "pattern": MATCHING_12, "seeds": [0, 1]},
        {"name": "blowup", "construction": {"n": 6, "density": 0.9}, "pipeline": "blowup",
         "pattern": pattern_to_json(PatternGraph(8, CYCLE_8.edges(), phi=[0] * 4 + [1] * 4)),
         "seeds": [0, 1]},
        {"name": "blowup-run-phi", "construction": {"n": 6}, "pipeline": "blowup",
         "pattern": pattern_to_json(CYCLE_8), "phi": [0] * 4 + [1] * 4, "seeds": [3]},
        {"name": "blowup-sparse", "construction": {"n": 6, "density": 0.1}, "pipeline": "blowup",
         "pattern": pattern_to_json(CYCLE_8), "phi": [0] * 4 + [1] * 4, "seeds": [0],
         "params": {"blowup_restarts": 3}},
        # a 3-vertex path on 12 vertices, which took the ladder-degenerate
        # pass while quasi split its pairs of parts by a delta ladder
        {"name": "path", "construction": {"kind": "random", "n": 12, "n_colours": 2,
                                          "density": 0.8},
         "pipeline": "quasi", "pattern": pattern_to_json(PatternGraph(12, [(0, 1), (1, 2)])),
         "seeds": [0]},
    ]}
    write_json(workdir / "suite.json", suite)
    assert main(["bench", "--suite", "suite.json", "--out", "b.csv"]) == 0
    rows = list(csv.DictReader(open(workdir / "b.csv")))
    assert [(r["name"], r["seed"], r["success"], r["path"]) for r in rows] == [
        ("blowup", "0", "1", "main"), ("blowup", "1", "1", "main"),
        ("blowup-run-phi", "3", "1", "main"), ("blowup-sparse", "0", "0", ""),
        ("cyclic", "0", "1", "one-shot"),
        ("mantel", "0", "1", "one-shot"), ("mantel", "1", "1", "one-shot"),
        ("path", "0", "1", "one-shot"),
    ]
    # a failed blow-up run reports its whole budget of attempts, no more
    assert [r["attempts"] for r in rows[:4]] == ["1", "1", "5", "3"]
    assert (rows[3]["stage"], rows[3]["reason"]) == ("blowup", "EmbeddingFailed")


def test_bench_quasi_rows_report_the_draws_made(workdir):
    # a quasi row's attempts column is the number of V_i draws that
    # quasi_embed made (its stats["attempts"]); seed 0's one draw took 13
    # one-shot passes, which the column does not count
    spec = {"kind": "random", "n": 12, "n_colours": 6, "density": 0.15}
    write_json(workdir / "suite.json", {"runs": [
        {"construction": spec, "pipeline": "quasi", "pattern": MATCHING_12, "seeds": [0, 3, 8]}]})
    assert main(["bench", "--suite", "suite.json", "--out", "b.csv"]) == 0
    rows = list(csv.DictReader(open(workdir / "b.csv")))
    assert [(r["seed"], r["success"], r["attempts"], r["path"]) for r in rows] == [
        ("0", "1", "1", "one-shot"), ("3", "1", "5", "one-shot"), ("8", "1", "3", "one-shot")]


def test_bench_failed_quasi_rows_report_the_whole_budget(workdir):
    # at density 0.05 every V_i draw fails; a failed row reads the draws
    # made, the plan's whole budget, as a failed blowup row reads its own
    spec = {"kind": "random", "n": 12, "n_colours": 6, "density": 0.05}
    write_json(workdir / "suite.json", {"runs": [
        {"construction": spec, "pipeline": "quasi", "pattern": MATCHING_12,
         "seeds": [0, 1, 2, 3]}]})
    assert main(["bench", "--suite", "suite.json", "--out", "b.csv"]) == 0
    rows = list(csv.DictReader(open(workdir / "b.csv")))
    budget = str(SplitPlan().retries)
    assert [(r["success"], r["stage"], r["reason"], r["attempts"], r["path"]) for r in rows] == [
        ("0", "one-shot", "MatchingTooSmall", budget, "")] * 4


def test_bench_blowup_honours_the_pattern_target_sets(workdir):
    # vertex 0 lies in cluster 0 (hosts 0-5) and may only go to host 11
    targets = {"free": None, "outside-its-cluster": {0: [11]}}
    suite = {"runs": [
        {"name": name, "construction": {"n": 6, "density": 0.9}, "pipeline": "blowup",
         "pattern": pattern_to_json(PatternGraph(8, CYCLE_8.edges(), phi=[0] * 4 + [1] * 4,
                                                 targets=ts)),
         "seeds": [0], "params": {"blowup_restarts": 2}}
        for name, ts in targets.items()]}
    write_json(workdir / "suite.json", suite)
    assert main(["bench", "--suite", "suite.json", "--out", "b.csv"]) == 0
    rows = list(csv.DictReader(open(workdir / "b.csv")))
    assert [(r["name"], r["success"], r["reason"]) for r in rows] == [
        ("free", "1", ""), ("outside-its-cluster", "0", "EmbeddingFailed")]


def test_bench_blowup_ignores_target_hosts_outside_the_host_range(workdir):
    # host -1 used to end the run with "negative shift count" (exit 2): it is
    # ignored, so next to vertex 0's cluster (hosts 0-5) it changes nothing,
    # and alone it leaves a target set that admits no host
    targets = {"cluster-and-minus-one": {0: [-1, *range(6)]}, "minus-one": {0: [-1]}}
    suite = {"runs": [
        {"name": name, "construction": {"n": 6, "density": 0.9}, "pipeline": "blowup",
         "pattern": pattern_to_json(PatternGraph(8, CYCLE_8.edges(), phi=[0] * 4 + [1] * 4,
                                                 targets=ts)),
         "seeds": [0], "params": {"blowup_restarts": 2}}
        for name, ts in targets.items()]}
    write_json(workdir / "suite.json", suite)
    assert main(["bench", "--suite", "suite.json", "--out", "b.csv"]) == 0
    rows = list(csv.DictReader(open(workdir / "b.csv")))
    assert [(r["name"], r["success"], r["reason"]) for r in rows] == [
        ("cluster-and-minus-one", "1", ""), ("minus-one", "0", "EmbeddingFailed")]


@pytest.mark.parametrize("construction, code, colours", [
    ("random", 2, None),  # GenSpec refuses 0 colours
    ("mantel", 0, 0),
])
def test_generate_keeps_an_explicit_zero_colour_count(workdir, construction, code, colours):
    # --colours 0 used to be replaced by the default (n for random, 3 for mantel)
    argv = ["generate", "--construction", construction, "--n", "4", "--colours", "0",
            "--out", "g.json"]
    assert main(argv) == code
    if colours is not None:
        assert len(json.loads((workdir / "g.json").read_text())["colours"]) == colours


@pytest.mark.parametrize("run", [
    {"construction": {"kind": "random", "n": 12, "n_colours": 6, "dens": 1.0}},
    {"construction": {"kind": "random", "n": 12, "n_colours": 6, "construction": "parity"}},
    {"construction": {"kind": "random", "n": 12, "n_colours": 6, "seed": 3}},
    {"construction": {"kind": "mantel", "colours": 2}},
    {"construction": {"kind": "cyclic-triangle", "n": 12, "colours": 6}},
    {"construction": {"n": 6, "dens": 0.9}, "pipeline": "blowup", "phi": [0] * 4 + [1] * 4},
    {"construction": {"n": "6"}, "pipeline": "blowup", "phi": [0] * 4 + [1] * 4},
    {"construction": {"n": 6}, "pipeline": "blowup"},
    {"construction": {"n": 6}, "pipeline": "blowup", "phi": [0] * 7},
    {"construction": {"n": 6}, "pipeline": "blowup", "phi": [0] * 4 + [2] * 4},
    {"construction": {"n": 6}, "pipeline": "blowup", "phi": [0] * 4 + [0.5] * 4},
    {"construction": {"n": 6}, "pipeline": "blowup", "phi": 3},
    {"construction": {"kind": "parity"}},  # unknown construction
    {"construction": {}, "pipeline": "expand"},  # unknown pipeline
])
def test_bad_bench_suite_is_a_usage_error(workdir, capsys, run):
    run = {"pipeline": "quasi", "pattern": pattern_to_json(CYCLE_8), **run}
    write_json(workdir / "suite.json", {"runs": [run]})
    assert main(["bench", "--suite", "suite.json", "--out", "b.csv"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_usage_error_exit_2(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "transversal.cli", "embed", "--pipeline", "nope"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 2, proc.stderr
    # the 2 comes from argument parsing, not from some other crash
    assert "invalid choice" in proc.stderr, proc.stderr
    # missing file is also a usage-level error
    assert main(["check", "--instance", "missing.json"]) == 2


@pytest.mark.parametrize("path", ["missing.json", "."])
def test_unreadable_instance_path_exits_2(workdir, capsys, path):
    # a directory used to escape as an IsADirectoryError traceback, exit 1
    assert main(["check", "--instance", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.fixture
def collections_started():
    """The generations of the collections the cyclic garbage collector
    starts while the test runs, with the collector switched on."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        yield started
    finally:
        gc.callbacks.remove(hook)
        if not was_enabled:
            gc.disable()


def test_loading_a_host_starts_no_collection(workdir, collections_started):
    rows = random.Random(0).sample([list(t) for t in combinations(range(60), 3)], 20_000)
    write_json(workdir / "g.json", {"n": 60, "edges": rows})
    del rows
    gc.collect()
    collections_started.clear()
    host = _load_instance("g.json")
    assert collections_started == []
    assert host.e == 20_000 and gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("edges, code", [([[0, 1, 2]], 0), ([[0, 1, 9]], 2)])
def test_main_leaves_the_collector_as_it_found_it(workdir, enabled, edges, code):
    write_json(workdir / "g.json", {"n": 4, "edges": edges})
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["check", "--instance", "g.json", "--out", "c.json"]) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_verify_on_a_report_without_an_embedding_is_a_usage_error(workdir, capsys):
    # an embed failure report and an infeasible oracle report hold no
    # embedding: exit 2 names the report's status, not a parse error
    assert main([
        "generate", "--construction", "random", "--n", "6", "--colours", "3",
        "--density", "1.0", "--seed", "1", "--out", "inst.json",
    ]) == 0
    write_json(workdir / "h.json", pattern_to_json(PatternGraph(6, [(0, 1), (2, 3)])))
    # four edges and three colours: no transversal copy
    P4 = PatternGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    write_json(workdir / "p4.json", pattern_to_json(P4))
    assert main(["embed", "--pipeline", "quasi", "--instance", "inst.json",
                 "--pattern", "h.json", "--out", "fail.json"]) == 1
    assert main(["oracle", "--instance", "inst.json", "--pattern", "p4.json",
                 "--out", "oracle.json"]) == 1
    for report, pattern in (("fail.json", "h.json"), ("oracle.json", "p4.json")):
        status = json.loads((workdir / report).read_text())["outcome"]["status"]
        capsys.readouterr()
        assert main(["verify", "--instance", "inst.json", "--pattern", pattern,
                     "--embedding", report]) == 2
        assert capsys.readouterr().err == (
            f"usage error: {report}: the report holds no embedding (status {status!r})\n")


def test_verify_malformed_embedding_is_a_usage_error(workdir):
    # exit 1 would read as "verified infeasible"; a malformed file is exit 2
    assert main([
        "generate", "--construction", "random", "--n", "6", "--colours", "3",
        "--density", "1.0", "--seed", "1", "--out", "inst.json",
    ]) == 0
    write_json(workdir / "h.json", pattern_to_json(PatternGraph(6, [(0, 1), (2, 3), (4, 5)])))
    write_json(workdir / "e.json", {"sigma": [[0, 1, 0]], "tau": []})
    proc = subprocess.run(
        [sys.executable, "-m", "transversal.cli", "verify", "--instance", "inst.json",
         "--pattern", "h.json", "--embedding", "e.json"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "usage error" in proc.stderr, proc.stderr
    write_json(workdir / "e.json", [1, 2])
    assert main(["verify", "--instance", "inst.json", "--pattern", "h.json",
                 "--embedding", "e.json"]) == 2
    write_json(workdir / "p.json", {"no_such_field": 1})
    assert main(["embed", "--pipeline", "quasi", "--instance", "inst.json",
                 "--pattern", "h.json", "--params", "p.json"]) == 2


@pytest.mark.parametrize("params", ['{"retries": 2.5}', '{"retries": 0}', '{"retries": -3}',
                                    '{"retries": true}', '{"approx_retries": 0}',
                                    '{"absorber_exhaustive_cap": -1}'])
def test_a_retry_count_in_params_that_is_not_a_count_is_a_usage_error(workdir, params):
    # range() in a retry loop would raise TypeError, and a count below 1
    # would report a failure that no attempt saw; a LemmaPlan count goes to
    # a bench blowup run, which takes it, and the others to embed
    assert main([
        "generate", "--construction", "random", "--n", "6", "--colours", "3",
        "--density", "1.0", "--seed", "1", "--out", "inst.json",
    ]) == 0
    write_json(workdir / "h.json", pattern_to_json(PatternGraph(6, [(0, 1), (2, 3), (4, 5)])))
    (workdir / "p.json").write_text(params)
    if _lemma_only(params):
        _blowup_suite(workdir, params)
        argv = ["bench", "--suite", "suite.json", "--out", "b.csv"]
    else:
        argv = ["embed", "--pipeline", "quasi", "--instance", "inst.json", "--pattern", "h.json",
                "--params", "p.json"]
    proc = subprocess.run([sys.executable, "-m", "transversal.cli", *argv],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "must be an integer" in proc.stderr, proc.stderr


@pytest.mark.parametrize("params", ['{"mu": NaN}', '{"blowup_reserve": Infinity}'])
def test_a_non_finite_float_in_params_is_a_usage_error(workdir, capsys, params):
    # json reads NaN and Infinity; LemmaPlan, whose float fields these are,
    # refuses them before a bench blowup run starts
    _blowup_suite(workdir, params)
    capsys.readouterr()
    assert main(["bench", "--suite", "suite.json", "--out", "b.csv"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("pipeline", ["quasi", "expand"])
def test_embed_reports_a_pattern_with_target_sets_as_a_failure(workdir, pipeline):
    # neither pipeline honours target sets: a typed failure report and exit 1,
    # where quasi used to end in a traceback and expand to ignore them
    if pipeline == "quasi":
        assert main(["generate", "--construction", "random", "--n", "20", "--colours", "10",
                     "--density", "1.0", "--seed", "1", "--out", "inst.json"]) == 0
        H = PatternGraph(20, [(2 * i, 2 * i + 1) for i in range(10)], targets={0: [5]})
    else:
        write_json(workdir / "inst.json",
                   {"n": 16, "edges": [list(t) for t in combinations(range(16), 3)]})
        H = PatternGraph(4, [(i, (i + 1) % 4) for i in range(4)], targets={0: [15]})
    write_json(workdir / "h.json", pattern_to_json(H))
    proc = subprocess.run(
        [sys.executable, "-m", "transversal.cli", "embed", "--pipeline", pipeline,
         "--instance", "inst.json", "--pattern", "h.json", "--seed", "1", "--out", "rep.json"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    rep = json.loads((workdir / "rep.json").read_text())
    assert rep["verified"] is False
    # an expand failure also reports its complete host's degree and density
    host = {"min_degree_ratio": 1.0, "triple_density": 1.0} if pipeline == "expand" else {}
    assert rep["outcome"] == {
        "status": "failure", "stage": pipeline, "reason": "PreconditionViolated",
        "diagnostics": {"detail": "target sets are not supported by this pipeline", **host}}


@pytest.mark.parametrize("params, message", [
    ('{"blowup_reserve": NaN}', "blowup_reserve must be a finite number, not nan"),
    ('{"mu": NaN}', "mu must be a finite number, not nan"),
    ('{"mu": Infinity}', "mu must be a finite number, not inf"),
    ('{"blowup_reserve": -Infinity}', "blowup_reserve must be a finite number, not -inf"),
    ('{"mu": "0.1"}', "mu must be a finite number, not '0.1'"),
    ('{"blowup_reserve": true}', "blowup_reserve must be a finite number, not True"),
    ('{"mu": 2.0}', r"mu must lie in \(0,1\]"),
    ('{"mu": 0.0}', r"mu must lie in \(0,1\]"),
])
def test_a_plan_value_no_pipeline_can_run_is_refused(workdir, capsys, params, message):
    # a nan fails every comparison, so it would switch off any check that
    # reads it, a string would raise TypeError from the first arithmetic on
    # it, mu = 2 would raise from the separator search and mu = 0 would be
    # replaced by 1.  The plan refuses each, and so does a bench blowup run,
    # which builds it
    with pytest.raises(ValueError, match=f"^{message}$"):
        LemmaPlan(**json.loads(params))
    _blowup_suite(workdir, params)
    capsys.readouterr()
    assert main(["bench", "--suite", "suite.json", "--out", "b.csv"]) == 2
    assert message.replace("\\", "") in capsys.readouterr().err


def _lemma_only(params: str) -> bool:
    """Whether the JSON overrides ``params`` name a field of LemmaPlan alone."""
    split = {f.name for f in dataclasses.fields(SplitPlan)}
    return not set(json.loads(params)) <= split


def _blowup_suite(workdir, params: str):
    """Write suite.json: one bench blowup run with the JSON overrides
    ``params`` (json reads and writes NaN and Infinity as they stand)."""
    write_json(workdir / "suite.json", {"runs": [
        {"construction": {"n": 6, "density": 0.9}, "pipeline": "blowup", "seeds": [0],
         "pattern": pattern_to_json(PatternGraph(8, CYCLE_8.edges(), phi=[0] * 4 + [1] * 4)),
         "params": json.loads(params)}]})


@pytest.mark.parametrize("params", ['{"mu": 0.2}', '{"retries": 3, "blowup_restarts": 2}'])
def test_embed_refuses_a_lemma_plan_field(workdir, capsys, params):
    # only Steps 0-5 and their stage embedders read a LemmaPlan, and embed
    # runs neither: the message names the plan and the field
    assert main([
        "generate", "--construction", "random", "--n", "6", "--colours", "3",
        "--density", "1.0", "--seed", "1", "--out", "inst.json",
    ]) == 0
    write_json(workdir / "h.json", pattern_to_json(PatternGraph(6, [(0, 1), (2, 3), (4, 5)])))
    (workdir / "p.json").write_text(params)
    capsys.readouterr()
    assert main(["embed", "--pipeline", "quasi", "--instance", "inst.json",
                 "--pattern", "h.json", "--params", "p.json"]) == 2
    field = "mu" if "mu" in params else "blowup_restarts"
    assert f"embed does not take LemmaPlan fields ({field})" in capsys.readouterr().err


def test_a_bench_run_builds_the_plan_of_its_pipeline(workdir, capsys, monkeypatch):
    # a blowup run calls blowup_embed, a stage embedder of Steps 0-5, with a
    # LemmaPlan of its params; a quasi run takes a SplitPlan, so each
    # refuses the other plan's own fields
    from transversal import cli

    plans, real = [], cli.blowup_embed
    monkeypatch.setattr(cli, "blowup_embed", lambda *a, **k: plans.append(a[5]) or real(*a, **k))
    _blowup_suite(workdir, '{"mu": 0.5, "blowup_restarts": 2}')
    assert main(["bench", "--suite", "suite.json", "--out", "b.csv"]) == 0
    assert plans == [LemmaPlan(mu=0.5, blowup_restarts=2)]
    _blowup_suite(workdir, '{"retries": 3}')
    capsys.readouterr()
    assert main(["bench", "--suite", "suite.json", "--out", "b.csv"]) == 2
    assert "bad LemmaPlan parameters" in capsys.readouterr().err
    write_json(workdir / "suite.json", {"runs": [
        {"construction": {"kind": "random", "n": 12, "n_colours": 6, "density": 1.0},
         "pipeline": "quasi", "pattern": MATCHING_12, "seeds": [0], "params": {"mu": 0.5}}]})
    assert main(["bench", "--suite", "suite.json", "--out", "b.csv"]) == 2
    assert "a quasi bench run does not take LemmaPlan fields (mu)" in capsys.readouterr().err


def test_a_deleted_plan_field_is_a_usage_error(workdir, capsys):
    # alpha, the fixed density floor of quasi_embed, and ladder_base and
    # ladder_ratio, the delta ladder that split its pairs of parts, are no
    # SplitPlan fields
    write_json(workdir / "inst.json",
               {"n": 4, "colours": [0, 1], "edges": {"0": [[0, 1]], "1": [[2, 3]]}})
    write_json(workdir / "h.json", pattern_to_json(PatternGraph(4, [(0, 1), (2, 3)])))
    for field in ("alpha", "ladder_base", "ladder_ratio"):
        write_json(workdir / "p.json", {field: 0.05})
        capsys.readouterr()
        assert main(["embed", "--pipeline", "quasi", "--instance", "inst.json",
                     "--pattern", "h.json", "--params", "p.json"]) == 2
        assert f"unexpected keyword argument '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["eps", "lambda1", "lambda3", "p_abs", "p_col"])
def test_a_plan_field_made_a_constant_is_refused_by_name(workdir, capsys, field):
    # quasi's eps, the absorber's lambda1 and lambda3 and the split shares
    # p_abs and p_col are module constants of embed (EPS, LAMBDA1, ...):
    # neither plan takes them, even at the constant's own value, and embed
    # and a bench blowup run refuse them as an unknown field
    params = {field: getattr(embed, field.upper())}
    for plan in (SplitPlan, LemmaPlan):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            plan(**params)
    write_json(workdir / "inst.json",
               {"n": 4, "colours": [0, 1], "edges": {"0": [[0, 1]], "1": [[2, 3]]}})
    write_json(workdir / "h.json", pattern_to_json(PatternGraph(4, [(0, 1), (2, 3)])))
    write_json(workdir / "p.json", params)
    _blowup_suite(workdir, json.dumps(params))
    for argv in (["embed", "--pipeline", "quasi", "--instance", "inst.json",
                  "--pattern", "h.json", "--params", "p.json"],
                 ["bench", "--suite", "suite.json", "--out", "b.csv"]):
        capsys.readouterr()
        assert main(argv) == 2
        assert f"unexpected keyword argument '{field}'" in capsys.readouterr().err


def test_failure_diagnostics_are_json_native(workdir):
    # |C| = e(H) = 6, and colour 4 has no edge, so no copy can use it
    edges = {str(c): [[u, v] for u, v in combinations(range(12), 2)] for c in range(6)}
    edges["4"] = []
    write_json(workdir / "bare.json", {"n": 12, "colours": list(range(6)), "edges": edges})
    H = PatternGraph(12, [(2 * i, 2 * i + 1) for i in range(6)])
    write_json(workdir / "h.json", pattern_to_json(H))
    assert main([
        "embed", "--pipeline", "quasi", "--instance", "bare.json",
        "--pattern", "h.json", "--out", "rep.json",
    ]) == 1
    outcome = json.loads((workdir / "rep.json").read_text())["outcome"]
    assert (outcome["stage"], outcome["reason"]) == ("quasi", "PreconditionViolated")
    assert outcome["diagnostics"] == {"colour": 4, "detail": "a colour has no edge"}
    # an expand failure keeps its diagnostics too, with the host's least
    # vertex degree over C(n-1, 2) and its triple density
    write_json(workdir / "g.json", {"n": 6, "edges": [list(t) for t in combinations(range(6), 3)]})
    write_json(workdir / "c5.json", {"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]})
    assert main([
        "embed", "--pipeline", "expand", "--instance", "g.json",
        "--pattern", "c5.json", "--out", "rep2.json",
    ]) == 1
    rep = json.loads((workdir / "rep2.json").read_text())
    assert rep["outcome"]["diagnostics"] == {"detail": "v(H)+e(H) > v(G)",
                                             "min_degree_ratio": 1.0, "triple_density": 1.0}
    assert rep["verified"] is False


def test_an_expand_failure_reports_the_hosts_degree_and_density(workdir):
    # every triple of vertices 0-6, and vertex 7 in none; the 4-cycle's
    # expansion takes all 8 vertices, so vertex 7 is in every draw
    write_json(workdir / "g.json", {"n": 8, "edges": [list(t) for t in combinations(range(7), 3)]})
    write_json(workdir / "c4.json", {"n": 4, "edges": [[i, (i + 1) % 4] for i in range(4)]})
    assert main(["embed", "--pipeline", "expand", "--instance", "g.json",
                 "--pattern", "c4.json", "--out", "rep.json"]) == 1
    outcome = json.loads((workdir / "rep.json").read_text())["outcome"]
    assert (outcome["stage"], outcome["reason"]) == ("expand", "PreconditionViolated")
    assert outcome["diagnostics"] == {
        "vertex": 7, "detail": "a host vertex in no triple is in every draw",
        "min_degree_ratio": 0.0, "triple_density": 35 / 56}


def test_expand_report_rechecks_the_triples(workdir, monkeypatch):
    from transversal import cli

    write_json(workdir / "g.json", {"n": 8, "edges": [list(t) for t in combinations(range(8), 3)]})
    write_json(workdir / "e.json", {"n": 2, "edges": [[0, 1]]})
    argv = ["embed", "--pipeline", "expand", "--instance", "g.json",
            "--pattern", "e.json", "--out", "rep.json"]
    assert main(argv) == 0
    assert json.loads((workdir / "rep.json").read_text())["verified"] is True
    real = cli.expand_embed_3graph

    def wrong_edge_image(*args, **kwargs):
        out = real(*args, **kwargs)
        out.edge_images[(0, 1)] = out.vertex_images[0]  # not injective any more
        return out

    monkeypatch.setattr(cli, "expand_embed_3graph", wrong_edge_image)
    main(argv)
    assert json.loads((workdir / "rep.json").read_text())["verified"] is False



def _expand_hosts():
    """Seeded random 3-graph hosts and patterns for the expand round trip:
    a cycle, a path with isolated vertices (padding and left-over isolates)
    and an edgeless pattern."""
    for n, density, pattern in (
            (12, 0.7, PatternGraph(3, [(0, 1), (1, 2), (0, 2)])),
            (20, 0.6, PatternGraph(6, [(i, (i + 1) % 6) for i in range(6)])),
            (30, 0.6, PatternGraph(9, [(0, 1), (1, 2), (2, 3)])),
            (16, 0.5, PatternGraph(3, []))):
        rng = random.Random(n)
        yield ({"n": n, "edges": [list(t) for t in combinations(range(n), 3)
                                  if rng.random() < density]}, pattern)


def test_verify_checks_every_expand_success(workdir):
    verify = ["verify", "--instance", "g.json", "--pattern", "h.json", "--embedding", "rep.json",
              "--out", "v.json"]
    successes = broken = 0
    for host, pattern in _expand_hosts():
        write_json(workdir / "g.json", host)
        write_json(workdir / "h.json", pattern_to_json(pattern))
        for seed in range(5):
            if main(["embed", "--pipeline", "expand", "--instance", "g.json", "--pattern",
                     "h.json", "--seed", str(seed), "--out", "rep.json"]) != 0:
                continue
            successes += 1
            report = json.loads((workdir / "rep.json").read_text())
            assert main(verify) == 0
            checked = json.loads((workdir / "v.json").read_text())
            assert (checked["ok"], checked["violations"]) == (True, [])
            assert checked["instance_digest"] == report["instance_digest"]
            edges = report["outcome"]["edge_images"]
            if not edges:
                continue
            # one edge image moved onto a vertex image: the map is not injective
            edges[min(edges)] = report["outcome"]["vertex_images"]["0"]
            write_json(workdir / "rep.json", report)
            assert main(verify) == 1
            assert json.loads((workdir / "v.json").read_text())["ok"] is False
            broken += 1
    assert successes >= 10 and broken >= 8, (successes, broken)


def test_verify_pairs_each_instance_type_with_its_report(workdir, capsys):
    # an expand report against a collection, and a quasi report, a bare
    # embedding or an expand failure against a 3-graph, are usage errors
    host, pattern = next(_expand_hosts())
    write_json(workdir / "g.json", host)
    write_json(workdir / "h.json", pattern_to_json(pattern))
    assert main(["embed", "--pipeline", "expand", "--instance", "g.json", "--pattern", "h.json",
                 "--out", "expand.json"]) == 0
    write_json(workdir / "gc.json", collection_to_json(
        GraphCollection(3, 3, {0: [(0, 1)], 1: [(1, 2)], 2: [(0, 2)]})))
    assert main(["embed", "--pipeline", "quasi", "--instance", "gc.json", "--pattern", "h.json",
                 "--out", "quasi.json"]) == 0
    write_json(workdir / "bare.json", json.loads((workdir / "quasi.json").read_text())
               ["outcome"]["embedding"])
    write_json(workdir / "failed.json", {"outcome": {"status": "failure"}})
    for instance, report, message in (
            ("gc.json", "expand.json", "the report holds no embedding (status 'success')"),
            ("g.json", "quasi.json", "the report holds no expansion (status 'success')"),
            ("g.json", "bare.json", "verify needs a collection instance"),
            ("g.json", "failed.json", "the report holds no expansion (status 'failure')")):
        capsys.readouterr()
        assert main(["verify", "--instance", instance, "--pattern", "h.json",
                     "--embedding", report]) == 2
        assert message in capsys.readouterr().err
    assert main(["verify", "--instance", "gc.json", "--pattern", "h.json",
                 "--embedding", "quasi.json"]) == 0


def test_expand_builds_no_python_int_per_host_pair(workdir, monkeypatch):
    # the CLI expand path reads the host's packed table alone: neither the
    # per-pair masks nor the edge frozenset is built
    def refuse(*_):
        raise AssertionError("a per-pair Python view of the host was built")

    monkeypatch.setattr(ThreeGraph, "pair_masks", refuse)
    monkeypatch.setattr(ThreeGraph, "edges", property(refuse))
    rng = random.Random(60)
    write_json(workdir / "g.json", {"n": 60, "edges": [
        list(t) for t in combinations(range(60), 3) if rng.random() < 0.6]})
    write_json(workdir / "h.json", {"n": 20, "edges": [[i, (i + 1) % 20] for i in range(20)]})
    assert main(["embed", "--pipeline", "expand", "--instance", "g.json", "--pattern", "h.json",
                 "--seed", "1", "--out", "rep.json"]) == 0
    assert json.loads((workdir / "rep.json").read_text())["verified"] is True


def _digest_of(argv, out):
    assert main([*argv, "--out", out]) in (0, 1)
    return json.loads(pathlib.Path(out).read_text())["instance_digest"]


def test_instance_digest_hashes_the_instance_not_the_file(workdir):
    rng = random.Random(3)
    triples = [list(t) for t in combinations(range(9), 3) if rng.random() < 0.7]
    # the same 3-graph with shuffled rows, permuted vertices and repeated rows
    variant = [rng.sample(t, 3) for t in triples] + rng.sample(triples, 6)
    rng.shuffle(variant)
    write_json(workdir / "e.json", {"n": 2, "edges": [[0, 1]]})
    digests = set()
    for edges in (triples, variant):
        write_json(workdir / "g.json", {"n": 9, "edges": edges})
        digests.add(_digest_of(["check", "--instance", "g.json"], "c.json"))
        digests.add(_digest_of(["embed", "--pipeline", "expand", "--instance", "g.json",
                                "--pattern", "e.json"], "r.json"))
    assert len(digests) == 1
    # a different instance has a different digest
    for doc in ({"n": 9, "edges": triples[1:]}, {"n": 10, "edges": triples},
                {"n": 9, "edges": triples, "parts": [list(range(9))]}):
        write_json(workdir / "g.json", doc)
        digests.add(_digest_of(["check", "--instance", "g.json"], "c.json"))
    assert len(digests) == 4


_PINNED_EDGES = [[0, 1, 2], [3, 2, 1], [2, 5, 6], [6, 4, 0], [1, 3, 5]]
# literal digests: any change to the bytes that instance_digest hashes moves
# them.  The 3-graph pins moved when the digest went from the JSON text of
# the hex pair masks to the packed table's bytes: 961a165b3e13e9d1 ->
# 2a52d61c821a798a, f67c26fe3fd0a2be -> 12b756e838bfd398, 35cf9aac0a64b365
# -> 5f29180167a00103; the collection's is the JSON text still
PINNED_DIGESTS = [
    ({"n": 7, "edges": _PINNED_EDGES}, "2a52d61c821a798a"),
    ({"n": 7, "edges": _PINNED_EDGES, "parts": [[0, 1, 2], [3, 4], [5, 6]]}, "12b756e838bfd398"),
    ({"n": 5, "edges": []}, "5f29180167a00103"),
    ({"n": 4, "colours": ["a", "b"], "edges": {"0": [[0, 1], [1, 2]], "1": [[3, 2]]}},
     "1b765d1f867a755b"),
]


@pytest.mark.parametrize("doc,digest", PINNED_DIGESTS)
def test_instance_digest_is_pinned(workdir, doc, digest):
    write_json(workdir / "g.json", doc)
    assert instance_digest(_load_instance("g.json")) == digest
    assert _digest_of(["check", "--instance", "g.json"], "c.json") == digest


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 140), density=st.sampled_from([0.0, 0.02, 0.3]), parted=st.booleans(),
       seed=st.integers(0, 99))
def test_threegraph_digest_hashes_the_bytes_of_its_table(n, density, parted, seed):
    # the layout, rebuilt from the triples alone: the JSON text of [n, parts,
    # pairs, words per pair], the sorted pair keys u * n + v as little-endian
    # int64, then each pair's mask of third vertices in that many
    # little-endian 64-bit words, as few as the largest vertex of an edge needs
    rng = random.Random(seed)
    triples = [t for t in combinations(range(n), 3) if rng.random() < density]
    parts = [range(0, n, 2), range(1, n, 2)] if parted else None
    g = ThreeGraph(n, triples, parts=parts)
    masks = {}
    for a, b, c in triples:
        for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
            masks[u * n + v] = masks.get(u * n + v, 0) | 1 << w
    words = max((c for _, _, c in triples), default=-1) // 64 + 1
    head = json.dumps([n, parts and [list(p) for p in parts], len(masks), words])
    body = b"".join(k.to_bytes(8, "little") for k in sorted(masks))
    body += b"".join(masks[k].to_bytes(8 * words, "little") for k in sorted(masks))
    assert instance_digest(g) == hashlib.sha256(head.encode() + body).hexdigest()[:16]


def test_digest_of_a_large_sparse_host(workdir):
    # a pair mask with bit 19999 set has more decimal digits than Python
    # converts to a string; the digest must not depend on that conversion
    rows = [[0, 1, 19999], [19998, 2, 5], [3, 19997, 4]]
    variant = [rows[2][::-1], rows[0], rows[1][::-1], rows[0]]
    # an edgeless pattern takes the embedder's shortest path; the one-edge
    # pattern's run on this host is timed by the test below
    write_json(workdir / "e.json", {"n": 2, "edges": []})
    digests = set()
    for edges in (rows, variant):
        write_json(workdir / "g.json", {"n": 20000, "edges": edges})
        digests.add(_digest_of(["check", "--instance", "g.json"], "c.json"))
        digests.add(_digest_of(["embed", "--pipeline", "expand", "--instance", "g.json",
                                "--pattern", "e.json"], "r.json"))
    assert len(digests) == 1


def test_expand_on_a_host_too_sparse_for_the_colour_floor_fails_fast(workdir):
    # padded to n/4 edges, the pattern has 10^4 vertices and 5000 edges, so
    # quasi_embed's colour floor needs alpha * 10^8 * 5000 host triples; the
    # 3-edge host is rejected before any draw builds a link collection, whose
    # size is quadratic in n (minutes at n = 20000)
    rows = [[0, 1, 19999], [19998, 2, 5], [3, 19997, 4]]
    write_json(workdir / "g.json", {"n": 20000, "edges": rows})
    write_json(workdir / "p.json", {"n": 2, "edges": [[0, 1]]})
    start = time.perf_counter()
    code = main(["embed", "--pipeline", "expand", "--instance", "g.json",
                 "--pattern", "p.json", "--out", "r.json"])
    elapsed = time.perf_counter() - start
    outcome = json.loads(pathlib.Path("r.json").read_text())["outcome"]
    assert code == 1
    assert (outcome["stage"], outcome["reason"]) == ("expand", "PreconditionViolated")
    assert elapsed < 20


def test_collection_digest_hashes_the_collection_not_the_file(workdir):
    rng = random.Random(4)
    edges = {str(c): [[u, v] for u, v in combinations(range(7), 2) if rng.random() < 0.5]
             for c in range(3)}
    variant = {c: [e[::-1] for e in es] + es[:2] for c, es in edges.items()}
    digests = set()
    for es in (edges, variant):
        write_json(workdir / "inst.json", {"n": 7, "colours": [0, 1, 2], "edges": es})
        digests.add(_digest_of(["check", "--instance", "inst.json"], "c.json"))
    assert len(digests) == 1


@pytest.mark.parametrize("edges, message", [
    ([[0, 1, 2], [0, 1, 99], [0.5, 1, 2]], "3-edge (0, 1, 99) out of range for n=8"),
    ([[0, 1, 2], [0.5, 1, 2], [0, 1, 99]], "3-edge (0.5, 1, 2) has a vertex that is not an integer"),
    ([[0, 1, 2], [7, 8, 1]], "3-edge (7, 8, 1) out of range for n=8"),
    ([[0, 1, 2], [3, 1, 3]], "3-edge (3, 1, 3) has repeated vertices"),
    ([[0, 1, 2], [0, 1]], "3-edge (0, 1) has 2 vertices, not 3"),
    ([[0, 1, 2], [0, 1, 2, 3]], "3-edge (0, 1, 2, 3) has 4 vertices, not 3"),
])
def test_malformed_threegraph_exits_2_under_python_O(workdir, edges, message):
    # the bulk row check must not rest on assert statements
    write_json(workdir / "g.json", {"n": 8, "edges": edges})
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "transversal.cli", "check", "--instance", "g.json"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"usage error: {message}\n"


def test_non_integer_n_is_a_usage_error(workdir):
    write_json(workdir / "inst.json", {"n": 4, "colours": [0], "edges": {"0": [[0, 1]]}})
    write_json(workdir / "h.json", {"n": 2, "edges": [[0, 1]]})
    write_json(workdir / "e.json", {"tau": {"0": 0, "1": 1}, "sigma": {"0,1": 0}})
    verify = ["verify", "--instance", "inst.json", "--pattern", "h.json", "--embedding", "e.json"]
    assert main(verify) == 0
    write_json(workdir / "h.json", {"n": 2.5, "edges": [[0, 1]]})
    assert main(verify) == 2
    write_json(workdir / "h.json", {"n": 2, "edges": [[0, 1]]})
    write_json(workdir / "inst.json", {"n": 4.0, "colours": [0], "edges": {"0": [[0, 1]]}})
    assert main(verify) == 2


@pytest.mark.parametrize("negative", ["pattern", "host"])
def test_a_negative_n_is_a_usage_error(workdir, capsys, negative):
    # a pattern with n = -3 used to exit 2 with random.sample's message, and a
    # host with n = -3 to fail typed as expand:PreconditionViolated
    edges = [list(t) for t in combinations(range(8), 3)]
    write_json(workdir / "g.json", {"n": 8, "edges": edges})
    write_json(workdir / "e.json", {"n": 2, "edges": [[0, 1]]})
    expand = ["embed", "--pipeline", "expand", "--instance", "g.json",
              "--pattern", "e.json", "--out", "rep.json"]
    assert main(expand) == 0
    bad = {"n": -3, "edges": []}
    write_json(workdir / ("e.json" if negative == "pattern" else "g.json"), bad)
    capsys.readouterr()
    assert main(expand) == 2
    assert capsys.readouterr().err == "usage error: n must be non-negative, not -3\n"


@pytest.mark.parametrize("triple", [[0.0, 1, 2], [True, 0, 2], [0, 1, "2"]])
def test_non_integer_triple_vertex_is_a_usage_error(workdir, triple):
    edges = [list(t) for t in combinations(range(8), 3)]
    write_json(workdir / "g.json", {"n": 8, "edges": edges})
    write_json(workdir / "e.json", {"n": 2, "edges": [[0, 1]]})
    expand = ["embed", "--pipeline", "expand", "--instance", "g.json",
              "--pattern", "e.json", "--out", "rep.json"]
    check = ["check", "--instance", "g.json", "--three-density", "--out", "c.json"]
    assert main(expand) == 0 and main(check) == 0
    write_json(workdir / "g.json", {"n": 8, "edges": [*edges, triple]})
    assert main(expand) == 2
    assert main(check) == 2


def test_overlapping_parts_are_a_usage_error(workdir):
    check = ["check", "--instance", "g.json", "--three-density", "--out", "c.json"]
    write_json(workdir / "g.json", {"n": 3, "edges": [[0, 1, 2]], "parts": [[0], [1], [2]]})
    assert main(check) == 0
    assert json.loads((workdir / "c.json").read_text())["density"] == 1.0
    write_json(workdir / "g.json", {"n": 3, "edges": [[0, 1, 2]], "parts": [[0, 1], [1], [2]]})
    assert main(check) == 2


# ---------------------------------------------------------------------------
# CLI fuzz: a malformed input file is a usage error (exit 2), never a verdict
# (exit 1) and never an escaping exception

_NOT_OBJECT = st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.floats(-5, 5),
                        st.text(max_size=4), st.lists(st.integers(0, 5), max_size=3))
_BAD_N = st.one_of(st.floats(-2, 12), st.booleans(), st.text(max_size=3), st.none(),
                   st.lists(st.integers(0, 5), max_size=2))
_BAD_EDGE = st.sampled_from([[0, 4], [1, 1], [-1, 2], [0], [0, 1, 2], "ab", 3, None])
_BAD_DOCS = {
    "instance": st.one_of(
        _NOT_OBJECT,
        st.builds(lambda n: {"n": n, "colours": [0, 1], "edges": {}}, _BAD_N),
        st.builds(lambda cs: {"n": 4, "colours": cs, "edges": {}},
                  st.one_of(st.none(), st.booleans(), st.integers(-2, 5))),
        st.builds(lambda e: {"n": 4, "colours": [0, 1], "edges": {"0": [e]}}, _BAD_EDGE),
        st.sampled_from([
            {"colours": [0]},
            {"n": 4, "colours": [0], "edges": {"x": []}},
            {"n": 4, "colours": [0], "edges": {"5": [[0, 1]]}},
            {"n": 4, "edges": [[0, 1, 2]]},  # a 3-graph where a collection is needed
        ]),
    ),
    "pattern": st.one_of(
        _NOT_OBJECT,
        st.builds(lambda n: {"n": n, "edges": []}, _BAD_N),
        st.builds(lambda e: {"n": 4, "edges": [e]}, _BAD_EDGE),
        st.sampled_from([{"edges": []}, {"n": 4, "phi": [0]},
                         {"n": 4, "targets": {"x": [1]}}]),
    ),
    "embedding": st.one_of(
        _NOT_OBJECT,
        st.builds(lambda tau: {"tau": tau, "sigma": {}},
                  st.one_of(st.none(), st.integers(), st.text(max_size=3),
                            st.lists(st.integers(0, 3), max_size=3))),
        st.builds(lambda key: {"tau": {}, "sigma": {key: 0}},
                  st.sampled_from(["x", "0", "0,1,2", "a,b", ""])),
        st.sampled_from([{"tau": {}}, {"sigma": {}}, {"tau": {"0": "a"}, "sigma": {}},
                         {"tau": {"a": 0}, "sigma": {}}, {"outcome": {"status": "failure"}}]),
    ),
}
_VALID_DOCS = {
    "instance": collection_to_json(GraphCollection(4, 2, {0: [(0, 1)], 1: [(1, 2)]})),
    "pattern": pattern_to_json(PatternGraph(3, [(0, 1), (1, 2)])),
    "embedding": {"tau": {"0": 0, "1": 1, "2": 2}, "sigma": {"0,1": 0, "1,2": 1}},
}
_FILES = ["--instance", "instance.json", "--pattern", "pattern.json"]
_COMMANDS = {
    "verify": ["verify", *_FILES, "--embedding", "embedding.json"],
    "embed": ["embed", "--pipeline", "quasi", *_FILES],
    "oracle": ["oracle", *_FILES],
}


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exits_2_on_malformed_files(workdir, data):
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    roles = ["instance", "pattern"] + (["embedding"] if command == "verify" else [])
    role = data.draw(st.sampled_from(roles))
    bad = data.draw(_BAD_DOCS[role])
    for name, doc in _VALID_DOCS.items():
        write_json(workdir / f"{name}.json", bad if name == role else doc)
    assert main(_COMMANDS[command]) == 2


@pytest.mark.parametrize("argv, message", [
    (["check", "--instance", "tg.json", "--mono-triangles"],
     "mono-triangle check needs a collection instance"),
    (["partition", "--instance", "tg.json"], "partition needs a collection instance"),
    (["embed", "--pipeline", "quasi", "--instance", "tg.json", "--pattern", "h.json"],
     "quasi needs a collection instance"),
    (["embed", "--pipeline", "expand", "--instance", "gc.json", "--pattern", "h.json"],
     "expand needs a 3-graph instance"),
    (["oracle", "--instance", "tg.json", "--pattern", "h.json"],
     "oracle needs a collection instance"),
    (["verify", "--instance", "tg.json", "--pattern", "h.json", "--embedding", "e.json"],
     "verify needs a collection instance"),
], ids=["check-mono-triangles", "partition", "embed-quasi", "embed-expand", "oracle", "verify"])
def test_wrong_instance_type_exits_2(workdir, capsys, argv, message):
    write_json(workdir / "gc.json", _VALID_DOCS["instance"])
    write_json(workdir / "tg.json", {"n": 4, "edges": [[0, 1, 2]]})
    write_json(workdir / "h.json", _VALID_DOCS["pattern"])
    write_json(workdir / "e.json", _VALID_DOCS["embedding"])
    assert main(argv) == 2
    assert message in capsys.readouterr().err
