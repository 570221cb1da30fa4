"""Per-layer timing for the traced run, done from outside the package.

Each traced function is replaced, for the duration of one operation, by a
wrapper that counts calls, inclusive time and self time (inclusive time
minus the time of wrapped calls nested inside it).  Functions are patched in
every module namespace they are looked up from, and the three hot
``core`` methods are patched on their classes, so ``isinstance`` checks
against ``GraphCollection`` and ``ThreeGraph`` keep working.
"""

from __future__ import annotations

from time import perf_counter_ns

from transversal import cli, core, embed, matching, regularity, templates, vizing
from transversal.core import GraphCollection, ThreeGraph
from transversal.embed import LADDER_DEGENERATE, Failure
from workloads import _quasi_path

# layer name -> the (namespace, attribute) pairs it is looked up through
FUNCTIONS = {
    "regularity.sparsify": [(regularity, "sparsify_to_superregular"),
                            (templates, "sparsify_to_superregular")],
    "core.threegraph_from_json": [(cli, "threegraph_from_json"),
                                  (core, "threegraph_from_json")],
    "core.separability": [(embed, "separability_certificate"),
                          (core, "separability_certificate")],
    "core.verify": [(embed, "verify_transversal_embedding"),
                    (cli, "verify_transversal_embedding"),
                    (core, "verify_transversal_embedding")],
    "templates.make_template": [(embed, "make_template"), (templates, "make_template")],
    "matching.max_bipartite": [(embed, "max_bipartite_matching"),
                               (matching, "max_bipartite_matching")],
    "matching.perfect": [(embed, "perfect_matching"), (matching, "perfect_matching")],
    "vizing.extract_matching": [(embed, "extract_matching"), (vizing, "extract_matching")],
    "embed.expand": [(cli, "expand_embed_3graph"), (embed, "expand_embed_3graph")],
    "embed.quasi": [(cli, "quasi_embed"), (embed, "quasi_embed")],
    "embed.equitable": [(embed, "equitable_colouring")],
    "embed.blowup_pipeline": [(embed, "transversal_blowup")],
    "embed.approx": [(embed, "approx_embed")],
    "embed.blowup_embed": [(embed, "blowup_embed")],
    "embed.absorber": [(embed, "build_absorber")],
    "embed.prescribed": [(embed, "embed_prescribed_colours")],
    "embed.induced_matching": [(embed, "find_induced_matching")],
    "embed.partial": [(embed, "partial_embed")],
    "cli.main": [(cli, "main")],
}

METHODS = {
    "core.collection_init": (GraphCollection, "__init__"),
    "core.threegraph_init": (ThreeGraph, "__init__"),
    "core.colour_mask": (GraphCollection, "colour_mask"),
}


def _failed(result) -> bool:
    """A typed failure: a ``Failure`` return or an outcome carrying one."""
    return isinstance(result, Failure) or getattr(result, "failure", None) is not None


# quasi_embed path, as the workloads label it -> its counter
QUASI_PATHS = {"main": "quasi.main", LADDER_DEGENERATE: "quasi.ladder_degenerate",
               "one-shot": "quasi.one_shot"}


class LayerStats:
    __slots__ = ("calls", "ns", "self_ns", "fail")

    def __init__(self):
        self.calls = self.ns = self.self_ns = self.fail = 0


class Tracer:
    """Accumulates per-layer counts over every traced operation of a run."""

    def __init__(self):
        self.layers = {name: LayerStats() for name in (*FUNCTIONS, *METHODS)}
        self.extra = {
            "restarts": 0,
            "pipeline_successes": 0,
            "pipeline_attempts": 0,
            "pipeline_one_shot": 0,
            "quasi.main": 0,
            "quasi.ladder_degenerate": 0,
            "quasi.one_shot": 0,
        }
        self.successes = 0  # verified successes of the traced operations
        self.ops = 0
        self._children = []  # stack of nested wrapped-call time
        self._saved = []

    def _observe(self, name: str, result) -> None:
        x = self.extra
        if name == "embed.blowup_embed":
            x["restarts"] += result.restarts
        elif name == "embed.blowup_pipeline" and result.ok:
            x["pipeline_successes"] += 1
            x["pipeline_attempts"] += result.stats.get("attempts", 0)
            x["pipeline_one_shot"] += result.stats.get("path") == "one-shot"
        elif name == "embed.quasi" and result.ok:
            x[QUASI_PATHS[_quasi_path(result.stats)]] += 1

    def _wrap(self, name: str, fn):
        st = self.layers[name]
        children = self._children
        may_fail = "fail" in REPORTED.get(name, ())

        def traced(*args, **kwargs):
            children.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if may_fail:
                    st.fail += 1
                raise
            finally:
                dt = perf_counter_ns() - t0
                nested = children.pop()
                if children:
                    children[-1] += dt
                st.calls += 1
                st.ns += dt
                st.self_ns += dt - nested
            if may_fail and _failed(result):
                st.fail += 1
            self._observe(name, result)
            return result

        return traced

    def install(self) -> None:
        for name, sites in FUNCTIONS.items():
            original = getattr(*sites[0])
            wrapper = self._wrap(name, original)
            for ns, attr in sites:
                self._saved.append((ns, attr, getattr(ns, attr)))
                setattr(ns, attr, wrapper)
        for name, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, original = self._saved.pop()
            setattr(ns, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, normalised per traced operation."""
        ops = max(1, self.ops)
        out: dict[str, tuple[float, str]] = {}
        for name, fields in REPORTED.items():
            st = self.layers[name]
            value = {"calls": st.calls, "ms": st.ns / 1e6, "self_ms": st.self_ns / 1e6,
                     "fail": st.fail}
            for f in fields:
                out[f"{name}.{f}"] = (value[f] / ops, UNITS[f])
        x, lay = self.extra, self.layers
        out["cli.overhead.ms"] = ((lay["cli.main"].ns - lay["embed.expand"].ns) / 1e6 / ops, "ms/op")
        out["embed.blowup_embed.restarts"] = (x["restarts"] / ops, "restarts/op")
        out["embed.blowup_pipeline.attempts_per_success"] = (
            _share(x["pipeline_attempts"], x["pipeline_successes"]), "attempts/success")
        out["embed.blowup_pipeline.one_shot"] = (x["pipeline_one_shot"] / ops, "count/op")
        out["core.verify.calls_per_success"] = (
            _share(lay["core.verify"].calls, self.successes), "calls/success")
        for path in ("main", "ladder_degenerate", "one_shot"):
            out[f"embed.quasi.path.{path}"] = (x[f"quasi.{path}"] / ops, "count/op")
        return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


UNITS = {"calls": "calls/op", "ms": "ms/op", "self_ms": "ms/op", "fail": "fails/op"}

# layer -> the generic fields it reports; "fail" counts typed failures
REPORTED = {
    "regularity.sparsify": ("calls", "ms", "self_ms", "fail"),
    "core.threegraph_init": ("calls", "ms"),
    "core.collection_init": ("calls", "ms"),
    "core.threegraph_from_json": ("calls", "ms"),
    "embed.expand": ("calls", "ms", "self_ms"),
    "cli.main": ("calls", "ms"),
    "embed.approx": ("calls", "ms", "self_ms", "fail"),
    "embed.blowup_embed": ("calls", "ms", "self_ms", "fail"),
    "embed.absorber": ("calls", "ms", "self_ms", "fail"),
    "embed.prescribed": ("calls", "ms", "self_ms", "fail"),
    "embed.induced_matching": ("calls", "ms", "self_ms", "fail"),
    "embed.partial": ("calls", "ms", "self_ms", "fail"),
    "core.colour_mask": ("calls", "ms"),
    "core.separability": ("calls", "ms"),
    "matching.max_bipartite": ("calls", "ms"),
    "matching.perfect": ("calls", "ms"),
    "vizing.extract_matching": ("calls", "ms"),
    "embed.blowup_pipeline": ("calls", "ms", "self_ms", "fail"),
    "core.verify": ("calls", "ms"),
    "embed.quasi": ("calls", "ms", "self_ms"),
    "embed.equitable": ("calls", "ms"),
    "templates.make_template": ("calls", "ms"),
}
