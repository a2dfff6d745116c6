"""Span tracing of deltan's public functions, patched in from outside the program.

``Tracer.install()`` wraps every public function of each deltan module (and
``Ring.__init__`` and the claim checkers) so that each call records a span:
its name, its parent span, and its duration.  Spans are aggregated in memory
by (name, parent); a span's self time is its duration minus the time its
child spans cover.  ``layer_metrics`` turns the aggregate into the per-layer
metrics of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("rings", "ideals", "expansions", "predicates", "constructions",
          "claims", "verifier", "dsl", "cli")

# the claims whose self time is reported on its own (the slowest ones)
SLOW_CLAIMS = ("prop-compose-n-ideal", "prop-loc-backward", "prop-loc-forward",
               "prop-hom-image", "prop-hom-epi-pushforward", "lem-colon-stable",
               "thm-four-equivalents")


class SpanAggregate:
    """Aggregated spans: (name, parent) -> [calls, total seconds, self seconds]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # frames: [name, child seconds]
        self.spans = {}

    def enter(self, name):
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame, self.clock()

    def leave(self, frame, start):
        duration = self.clock() - start
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += duration
        key = (frame[0], parent[0] if parent is not None else None)
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[1]

    def by_name(self):
        """name -> (calls, self seconds), summed over parents."""
        out = {}
        for (name, _), (calls, _, self_s) in self.spans.items():
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + calls, s + self_s)
        return out

    def to_json(self):
        return [{"name": name, "parent": parent, "calls": c,
                 "total_s": total, "self_s": self_s}
                for (name, parent), (c, total, self_s) in sorted(
                    self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]


class Tracer:
    """Patches deltan with span-recording wrappers; counts a few extra facts."""

    def __init__(self):
        self.agg = SpanAggregate()
        self.ring_builds = 0
        self.claim_instances = 0
        self.delta_n_keys = set()
        self._undo = []

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn):
        agg = self.agg

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, start = agg.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                agg.leave(frame, start)

        return traced

    def _wrap_delta_n(self, name, fn):
        traced = self._wrap(name, fn)
        keys = self.delta_n_keys

        @functools.wraps(fn)
        def recorded(I, delta, method="definition"):
            if I.mask is not None and I.mask in delta.table:
                keys.add((I.ring.key, I.mask, delta.table[I.mask], method))
            return traced(I, delta, method)

        return recorded

    def _wrap_checker(self, name, checker):
        agg, tracer = self.agg, self

        def traced(*args, **kwargs):
            gen = checker(*args, **kwargs)
            while True:
                frame, start = agg.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    agg.leave(frame, start)
                tracer.claim_instances += 1
                yield item

        return traced

    def _wrap_ring_init(self, init):
        traced = self._wrap("rings.Ring", init)
        tracer = self

        @functools.wraps(init)
        def counted(ring, spec, *args, **kwargs):
            if kwargs.get("elements") is not None:
                tracer.ring_builds += 1
            return traced(ring, spec, *args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap the public functions of every deltan module, in every module
        that binds them, plus Ring.__init__ and the claim checkers."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "deltan" or name.startswith("deltan."))}
        originals = {}
        for layer in LAYERS:
            mod = modules[f"deltan.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name == "predicates.is_delta_n_ideal":
                    originals[id(fn)] = (fn, self._wrap_delta_n(name, fn))
                else:
                    originals[id(fn)] = (fn, self._wrap(name, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))

        ring_cls = modules["deltan.rings"].Ring
        init = ring_cls.__init__
        ring_cls.__init__ = self._wrap_ring_init(init)
        self._undo.append((ring_cls, "__init__", init))

        checkers = modules["deltan.claims"].CHECKERS
        self._undo.append((checkers, None, dict(checkers)))
        for claim_id, checker in list(checkers.items()):
            checkers[claim_id] = self._wrap_checker(f"claims.{claim_id}", checker)

    def uninstall(self):
        for target, attr, value in reversed(self._undo):
            if attr is None:
                target.clear()
                target.update(value)
            else:
                setattr(target, attr, value)
        self._undo.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_EXPANSION_BUILDERS = ("delta0", "delta1", "full_expansion", "delta_plus",
                       "delta_star", "compose_expansions", "make_expansion")
_DERIVERS = ("derive_quotient_expansion", "derive_product_expansion",
             "derive_idealization_expansion", "derive_localized_expansion",
             "localization_value_collisions")
_DELTA_N = ("is_delta_n_ideal", "delta_n_witness", "is_n_ideal", "n_ideal_witness",
            "is_quasi_n_ideal", "quasi_n_witness")


def layer_metrics(tracer):
    """The per-layer metrics, {name: (value, unit)}, from one traced run.

    trace.overhead_s needs an untraced run as well; run.py adds it.
    """
    table = tracer.agg.by_name()

    def calls(layer, names=None):
        return sum(c for n, (c, _) in table.items()
                   if n.startswith(layer + ".") and (names is None or n[len(layer) + 1:] in names))

    def self_s(layer, names=None, exclude=()):
        return sum(s for n, (_, s) in table.items()
                   if n.startswith(layer + ".")
                   and (names is None or n[len(layer) + 1:] in names)
                   and n[len(layer) + 1:] not in exclude)

    dn_calls = calls("predicates", ("is_delta_n_ideal",))
    rings_other = ("check_ring_axioms", "classify_ring", "classify_element")
    ideals_other = ("enumerate_ideals", "classify_ideal")
    claim_ids = [n[len("claims."):] for n in table if n.startswith("claims.")]
    m = {
        "rings.builds": (tracer.ring_builds, "count"),
        "rings.build_s": (self_s("rings", exclude=rings_other), "s"),
        "rings.axiom_check_s": (self_s("rings", ("check_ring_axioms",)), "s"),
        "rings.classify_s": (self_s("rings", ("classify_ring", "classify_element")), "s"),
        "ideals.lattice_calls": (calls("ideals", ("enumerate_ideals",)), "count"),
        "ideals.lattice_s": (self_s("ideals", ("enumerate_ideals",)), "s"),
        "ideals.ops_calls": (calls("ideals") - calls("ideals", ideals_other), "count"),
        "ideals.ops_s": (self_s("ideals", exclude=ideals_other), "s"),
        "ideals.classify_calls": (calls("ideals", ("classify_ideal",)), "count"),
        "ideals.classify_s": (self_s("ideals", ("classify_ideal",)), "s"),
        "expansions.build_calls": (calls("expansions", _EXPANSION_BUILDERS), "count"),
        "expansions.build_s": (self_s("expansions", _EXPANSION_BUILDERS), "s"),
        "expansions.derive_calls": (calls("expansions", _DERIVERS), "count"),
        "expansions.derive_s": (self_s("expansions", _DERIVERS), "s"),
        "expansions.apply_calls": (calls("expansions", ("apply_expansion",)), "count"),
        "expansions.apply_s": (self_s("expansions", ("apply_expansion",)), "s"),
        "expansions.profile_s": (self_s("expansions", ("profile_expansion",)), "s"),
        "predicates.delta_n_calls": (dn_calls, "count"),
        "predicates.delta_n_s": (self_s("predicates", _DELTA_N), "s"),
        "predicates.delta_n_distinct_ratio": (
            len(tracer.delta_n_keys) / dn_calls if dn_calls else 0.0, "ratio"),
        "predicates.primary_calls": (
            calls("predicates", ("is_delta_primary", "delta_primary_witness")), "count"),
        "predicates.primary_s": (
            self_s("predicates", ("is_delta_primary", "delta_primary_witness")), "s"),
        "predicates.spectrum_s": (
            self_s("predicates", ("delta_n_spectrum", "delta_nilpotents")), "s"),
        "constructions.calls": (calls("constructions"), "count"),
        "constructions.quotient_s": (self_s("constructions", ("quotient_ring",)), "s"),
        "constructions.localize_s": (
            self_s("constructions", ("localize", "mult_set", "mult_closure")), "s"),
        "constructions.idealization_s": (
            self_s("constructions", ("idealization", "make_module",
                                     "enumerate_submodules")), "s"),
        "constructions.hom_s": (
            self_s("constructions", ("make_homomorphism", "image_ideal",
                                     "preimage_ideal", "is_delta_gamma_homomorphism")), "s"),
        "claims.instances": (tracer.claim_instances, "count"),
        "claims.checker_s": (self_s("claims", claim_ids), "s"),
    }
    for claim_id in SLOW_CLAIMS:
        m[f"claims.{claim_id}_s"] = (self_s("claims", (claim_id,)), "s")
    m.update({
        "verifier.corpus_s": (
            self_s("verifier", ("builtin_corpus", "catalog", "load_corpus")), "s"),
        "verifier.render_s": (self_s("verifier", ("render_text", "render_json")), "s"),
        "dsl.parse_calls": (
            calls("dsl", ("parse_spec", "parse_ideal_text", "parse_expansion_text",
                          "parse_ring")), "count"),
        "dsl.parse_s": (
            self_s("dsl", ("parse_spec", "parse_ideal_text", "parse_expansion_text",
                           "parse_ring")), "s"),
        "dsl.bind_s": (
            self_s("dsl", ("bind_ring", "bind_element", "bind_ideal", "bind_expansion")), "s"),
        "cli.queries": (calls("cli", ("main",)), "count"),
        "cli.main_s": (self_s("cli"), "s"),
    })
    return m


def layer_shares(tracer):
    """Each layer's share of the traced self time."""
    table = tracer.agg.by_name()
    per_layer = {}
    for name, (_, s) in table.items():
        layer = name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + s
    total = sum(per_layer.values()) or 1.0
    return {layer: per_layer.get(layer, 0.0) / total for layer in LAYERS}
