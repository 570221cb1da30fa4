"""Steps 0-5 of the blow-up lemma (``lemma_blowup``), one step at a time.

Each test replays the successful attempt of a 120-cycle run with a
10-vertex separator up to one step, changes the run state that step reads,
and runs the step: its typed failure, or ``UnverifiedOutput`` when the
change breaks a count that the split's bookkeeping fixes.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from transversal import embed
from transversal.core import PatternGraph
from transversal.embed import (
    ABSORBER_UNVERIFIABLE,
    CANDIDATE_EXHAUSTED,
    LemmaPlan,
    SplitPlan,
    UnverifiedOutput,
    lemma_blowup,
    quasi_embed,
)
from transversal.generators import GenSpec, random_collection

from test_embed import lemma_dense_side

PLAN = SplitPlan()
LEMMA_PLAN = LemmaPlan()
CYCLE = PatternGraph(120, [(i, (i + 1) % 120) for i in range(120)])


def _cycle_run(seed):
    """The 120-cycle run of ``seed``, its dense side embedded by
    ``lemma_blowup``."""
    gc = random_collection(GenSpec(n=120, n_colours=120, density=0.8, seed=seed))
    with pytest.MonkeyPatch.context() as mp:
        lemma_dense_side(mp)
        return quasi_embed(gc, CYCLE, PLAN, seed=seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_main_path_with_a_separator(seed):
    out = _cycle_run(seed)
    assert out.ok and out.verification.ok
    blowup = out.stats["blowup"]
    assert out.stats["path"] == blowup["path"] == "main"
    assert len(blowup["X"]) == 10
    assert sum(blowup["h_counts"]["con"].values()) > 0


@pytest.fixture(scope="module")
def attempt_args():
    """The arguments of the last (successful) Steps 0-5 attempt of seed 1."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        real = embed._pipeline_once
        mp.setattr(embed, "_pipeline_once", lambda *a: calls.append(a) or real(*a))
        assert _cycle_run(1).ok
    return calls[-1]


def _run_to(step, args):
    """A fresh run state of the attempt with every step before ``step`` run."""
    t, H, phi, targets, plan, seed, setup = args
    run = embed._Run(seed, setup=setup, t=t, H=H, phi=phi, targets=targets, plan=plan)
    for earlier in embed._STEPS[: embed._STEPS.index(step)]:
        assert earlier(run) is None
    return run


def _host_outside(run, v):
    """A host of a cluster other than v's."""
    return run.t.clusters[(run.phi[v] + 1) % run.t.r][0]


def test_the_captured_attempt_runs_every_step(attempt_args):
    run = _run_to(embed._step5, attempt_args)
    assert embed._step5(run) is None
    assert sorted(run.sigma.values()) == run.t.all_colours()
    assert run.setup.X and run.setup.Y


def test_main_path_keeps_targets_on_and_off_the_connecting_graph(attempt_args):
    # a target on a separator vertex, on one of its neighbours and on a
    # vertex outside the connecting graph, whose target Step 0 passes on
    t, H, phi, _, plan, _, setup = attempt_args
    active = set(setup.X).union(*setup.comps)
    v = next(u for u in sorted(active) if u not in setup.X and u not in setup.Y)
    targets = {u: set(t.clusters[phi[u]][k % 2::2])
               for k, u in enumerate((setup.X[0], setup.Y[0], v))}
    out = lemma_blowup(t, H, phi, targets, plan, seed=0, active=active)
    assert out.ok and out.verification.ok
    assert out.stats["path"] == "main"
    assert all(out.embedding.tau[u] in ts for u, ts in targets.items())


def test_an_empty_target_set_on_the_separator_admits_no_host(attempt_args):
    # Step 0 used to widen an empty target set to the whole cluster, and the
    # main path then placed the vertex anyway
    t, H, phi, _, plan, _, setup = attempt_args
    active = set(setup.X).union(*setup.comps)
    x = setup.X[0]
    out = lemma_blowup(t, H, phi, {x: set()}, plan, seed=0, active=active)
    assert not out.ok
    assert (out.failure.stage, out.failure.reason) == ("step0", CANDIDATE_EXHAUSTED)


# ---------------------------------------------------------------------------
# typed exits


class _Draws:
    """An rng stand-in: ``random`` returns the given draws in turn, ``choice``
    the first candidate."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)

    def choice(self, seq):
        return seq[0]


def test_split_fails_when_col_cannot_get_a_component_per_class():
    # four components, each with edges of both classes: draws of 0 put three
    # in abs and 0.99 one in vx, which col takes; then no donor is left for
    # the second col component
    keys = [(0, 1), (0, 2)]
    class_of_comp = [dict.fromkeys(keys, 1) for _ in range(4)]
    assert not embed._split_decided(range(4), class_of_comp, keys)
    rng = _Draws([0.0, 0.0, 0.0, 0.99])
    assert embed._split_components(range(4), class_of_comp, LEMMA_PLAN, rng, keys) is None


def test_step0_fails_typed_when_a_separator_vertex_has_no_target(attempt_args):
    run = _run_to(embed._step0, attempt_args)
    x = run.setup.X[0]
    run.targets = {**run.targets, x: {_host_outside(run, x)}}  # ignored: none left
    out = embed._step0(run)
    assert (out.stage, out.reason) == ("step0", CANDIDATE_EXHAUSTED)


def test_step1_fails_typed_when_a_target_misses_the_absorber_slice(attempt_args):
    run = _run_to(embed._step1, attempt_args)
    v = min(run.stage_sets["abs"])
    run.T1[v] = {_host_outside(run, v)}
    out = embed._step1(run)
    assert (out.stage, out.reason) == ("step1", CANDIDATE_EXHAUSTED)


def test_prep_fails_typed_when_a_target_misses_its_stage_slice(attempt_args):
    run = _run_to(embed._prep, attempt_args)
    v = min(run.stage_sets["col"])
    run.T1[v] = {_host_outside(run, v)}
    out = embed._prep(run)
    assert (out.stage, out.reason) == ("prep", CANDIDATE_EXHAUSTED)


def test_step5_fails_typed_when_the_absorber_misses_the_subset(attempt_args):
    run = _run_to(embed._step5, attempt_args)
    key = next(k for k, e in run.absorber.per_edge.items() if e.A)
    ent = run.absorber.per_edge[key]
    run.absorber.per_edge[key] = dataclasses.replace(ent, A=ent.A[1:])  # one colour short
    out = embed._step5(run)
    assert (out.stage, out.reason) == ("step5", ABSORBER_UNVERIFIABLE)
    assert out.diagnostics["edge_class"] == key


# ---------------------------------------------------------------------------
# bookkeeping identities


def _drop_one(sigma, colours=None):
    """Uncolour the first edge of ``sigma`` (whose colour is in ``colours``)."""
    e = next(e for e, c in sigma.items() if colours is None or c in colours)
    del sigma[e]


@pytest.mark.parametrize("what", ["colour", "host"])
def test_identity_step0_free_hosts_and_colours(attempt_args, monkeypatch, what):
    real = embed.partial_embed

    def short(*a, **k):  # Step 0's embedding, one colour or one host short
        part = real(*a, **k)
        if what == "colour":
            _drop_one(part.sigma)
        else:
            del part.tau[next(iter(part.tau))]
        return part

    run = _run_to(embed._step0, attempt_args)
    monkeypatch.setattr(embed, "partial_embed", short)
    with pytest.raises(UnverifiedOutput, match="step0"):
        embed._step0(run)


def test_identity_step1_col_component_per_class(attempt_args):
    run = _run_to(embed._step1, attempt_args)
    col = [h for h, st in run.assign.items() if st == "col"]
    for h in col[len(run.keys) - 1:]:  # one col component fewer than classes
        run.assign[h] = "app"
    with pytest.raises(UnverifiedOutput, match="col component"):
        embed._step1(run)


def test_identity_step1_absorber_ledger(attempt_args):
    # the ledger's upper bound has slack happ + P_e <= happ + hcol, so the
    # vx row grows by that plus one
    run = _run_to(embed._step1, attempt_args)
    key = run.keys[0]
    rows = run.h_counts
    rows["vx"] = {**rows["vx"], key: rows["vx"][key] + rows["app"][key] + rows["col"][key] + 1}
    with pytest.raises(UnverifiedOutput, match="absorber size ledger"):
        embed._step1(run)


def test_identity_prep_free_hosts(attempt_args):
    run = _run_to(embed._prep, attempt_args)
    i = run.phi[min(run.stage_sets["app"])]
    host = next(v for v in run.Vp[i] if v not in run.used_hosts)
    run.Vp[i] = tuple(v for v in run.Vp[i] if v != host)
    with pytest.raises(UnverifiedOutput, match="prep"):
        embed._prep(run)


def test_identity_step2_app_colours(attempt_args):
    run = _run_to(embed._step2, attempt_args)
    key = run.keys[0]
    ent = run.absorber.per_edge[key]
    run.absorber.per_edge[key] = dataclasses.replace(ent, B=ent.B[1:])
    with pytest.raises(UnverifiedOutput, match="step2"):
        embed._step2(run)


@pytest.mark.parametrize("step, stage", [("_step3", "app"), ("_step4", "col")])
def test_identity_stage_leftovers(attempt_args, step, stage):
    # the previous stage leaves one colour of its pool unused; Step 4 reads
    # only B's leftovers, so the col edge uncoloured there has a B colour
    run = _run_to(getattr(embed, step), attempt_args)
    b = {c for e in run.absorber.per_edge.values() for c in e.B}
    _drop_one(run.sigmas[stage], b if stage == "col" else None)
    with pytest.raises(UnverifiedOutput, match=step[1:]):
        getattr(embed, step)(run)


def test_identity_step5_b_leftovers(attempt_args):
    # the vx stage of this run has no edges, so Step 4's pool itself is one
    # colour short
    run = _run_to(embed._step5, attempt_args)
    key = run.keys[0]
    run.c_vx[key] = run.c_vx[key][1:]
    with pytest.raises(UnverifiedOutput, match="step5"):
        embed._step5(run)


def test_identities_survive_python_O():
    """The exit and identity tests above, rerun by an interpreter that strips
    asserts: the identities raise explicitly."""
    pkg_parent = str(pathlib.Path(embed.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [pkg_parent, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         __file__, "-k", "identity or fails_typed"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and "13 passed" in proc.stdout, proc.stdout + proc.stderr
