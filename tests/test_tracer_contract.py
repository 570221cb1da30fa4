"""The benchmark's per-layer tracer (perfbench/layers.py) patches package
functions by (namespace, attribute) name.  A refactor that renames or stops
importing one of them would silently break ``perfbench/run.py --trace 1``;
these tests pin every name the tracer uses."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("layers")
    for name in ("layers", "workloads"):
        sys.modules.pop(name, None)


def test_every_traced_function_resolves_to_one_object(layers):
    for layer, sites in layers.FUNCTIONS.items():
        first = getattr(*sites[0], None)
        assert callable(first), (layer, sites[0])
        for ns, attr in sites[1:]:
            # the tracer wraps the first site's function and installs that
            # wrapper at every site, so all sites must hold the same function
            assert getattr(ns, attr, None) is first, (layer, ns.__name__, attr)


def test_every_traced_method_is_defined_on_its_class(layers):
    for layer, (cls, attr) in layers.METHODS.items():
        assert callable(cls.__dict__.get(attr)), (layer, cls.__name__, attr)


def test_the_tracer_counts_every_layer_of_the_application_paths(layers):
    # the tests above check that each name resolves; this one checks that
    # the code looks each name up where the tracer patches it, so a layer
    # that a refactor binds elsewhere (an import at module level, say)
    # would read zero calls here
    from test_embed import PLAN, _expand_instance, _quasi_instance

    from transversal import embed

    tracer = layers.Tracer()
    tracer.install()
    try:
        quasi = embed.quasi_embed(*_quasi_instance(9), PLAN, seed=9)
        expand = embed.expand_embed_3graph(*_expand_instance(1), PLAN, seed=1)
    finally:
        tracer.uninstall()
    assert quasi.ok and expand.ok
    for layer in ("templates.make_template", "embed.partial", "embed.blowup_pipeline",
                  "embed.equitable", "embed.quasi", "embed.expand", "core.verify"):
        assert tracer.layers[layer].calls >= 1, layer
    # the one-shot passes settle both calls, so no separator is certified
    assert tracer.layers["core.separability"].calls == 0
    # the attempts embed on the host collection itself: no slice is sparsified
    assert tracer.layers["regularity.sparsify"].calls == 0
    assert tracer.layers["embed.quasi"].calls == 2  # the direct call and expansion's
    assert embed.quasi_embed.__name__ == "quasi_embed"  # uninstalled


def test_the_tracer_counts_the_stage_embedders_of_the_main_path(layers):
    # Steps 0-5, called directly (lemma_blowup) on the blow-up of the
    # first attempt of quasi seed 12, certify the separator and call the
    # blow-up embedder (Step 1 and every round of the extra-colours
    # embedder), the absorber and the extra-colours embedder; the tracer
    # adds up each blow-up call's BlowupResult.restarts
    from test_embed import LEMMA_PLAN, PLAN, _quasi_instance

    from transversal import embed

    calls, real = [], embed.transversal_blowup
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embed, "transversal_blowup",
                   lambda *a, **k: calls.append((a, k)) or real(*a, **k))
        embed.quasi_embed(*_quasi_instance(12), PLAN, seed=12)
    (t, H, phi, targets, _), kwargs = calls[0]
    tracer = layers.Tracer()
    tracer.install()
    try:  # one blow-up call fails after its full budget
        out = embed.lemma_blowup(t, H, phi, targets, LEMMA_PLAN, kwargs["seed"])
    finally:
        tracer.uninstall()
    assert out.ok and out.stats["path"] == "main"
    for layer in ("core.separability", "embed.blowup_embed", "embed.absorber", "embed.approx"):
        assert tracer.layers[layer].calls >= 1, layer
    assert tracer.layers["embed.blowup_embed"].fail == 1
    assert tracer.extra["restarts"] == LEMMA_PLAN.blowup_restarts
