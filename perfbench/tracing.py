"""Per-layer tracing of the program from outside it.

`Tracer.install(dsmfuse)` wraps the public functions at each layer boundary,
at the attribute the caller looks up (several callers bind their callees
by name at import time), and `Tracer.remove()` puts every original back.
A wrapper records a span (name, start, end, parent span, request id) and,
for some layers, counts taken from the call's arguments and result. Spans
stay in memory, in flat arrays, until the run ends.

A layer's self time is the time its spans cover minus the part of each
span that its child spans cover; `self_times` computes it. Layer names are
the program's module names: the first part of each span name.
"""

import functools
from array import array
from collections import defaultdict
from math import prod
from time import perf_counter

LAYERS = ("scenario", "rules", "mass", "neutro", "lattice", "decision", "cli")

RULES = ("dsm_classic", "dsm_hybrid", "dsm_classic_imprecise", "dsm_hybrid_imprecise",
         "dempster", "smets", "yager", "dubois_prade", "disjunctive", "dsmc_improved",
         "dsmh_improved", "disjunctive_improved", "tnorm_fusion", "tconorm_fusion")
NEUTRO = ("nnorm_fusion", "nconorm_fusion")

# (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("rules.fuse_ms", "ms/req"), ("rules.share", "ratio"), ("rules.tuples", "count/req"),
    ("rules.tuples_per_s", "1/s"), ("rules.landing_sites", "count/req"),
    ("rules.tuples_per_site", "ratio"), ("rules.errors", "count/req"),
    ("lattice.alive_ms", "ms/req"), ("lattice.alive_calls", "count/req"),
    ("lattice.alive_elements", "count/req"), ("lattice.alive_repeat_ratio", "ratio"),
    ("decision.bel_pl_ms", "ms/req"), ("decision.gpt_ms", "ms/req"),
    ("decision.decide_ms", "ms/req"), ("decision.spread_pairs", "count/req"),
    ("mass.validate_ms", "ms/req"), ("mass.admissible_ms", "ms/req"),
    ("mass.fused_pieces", "count/req"),
    ("neutro.fuse_ms", "ms/req"), ("neutro.pairs", "count/req"),
    ("scenario.load_ms", "ms/req"), ("scenario.run_self_ms", "ms/req"),
    ("cli.self_ms", "ms/req"), ("cli.output_bytes", "bytes/req"),
    ("trace.overhead", "ratio"),
)


class Spans:
    """Spans in flat arrays, indexed by span number; parent -1 is a root."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.stack = []
        self.request_id = -1

    def __len__(self):
        return len(self.start)

    def add(self, name, start, end, parent, request):
        """Append a finished span; returns its number."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(self._ids[name])
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.request.append(request)
        return len(self.start) - 1

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        i = self.add(name, perf_counter(), 0.0, parent, self.request_id)
        self.stack.append(i)
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def name_of(self, i):
        return self.names[self.name[i]]

    def open_layers(self):
        return [self.name_of(i).split(".", 1)[0] for i in self.stack]

    def dump(self, path):
        """Write the spans as tab-separated rows, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\trequest\tstart\tend\tname\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.request[i]}\t{self.start[i]:.9f}"
                         f"\t{self.end[i]:.9f}\t{self.name_of(i)}\n")


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals,
    each clipped to the span."""
    children = defaultdict(list)
    for i, p in enumerate(spans.parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(spans)):
        s, e = spans.start[i], spans.end[i]
        covered = 0.0
        run_s = run_e = None
        for c in sorted(children.get(i, ()), key=lambda c: spans.start[c]):
            cs, ce = max(spans.start[c], s), min(spans.end[c], e)
            if ce <= cs:
                continue
            if run_e is not None and cs <= run_e:
                run_e = max(run_e, ce)
                continue
            if run_e is not None:
                covered += run_e - run_s
            run_s, run_e = cs, ce
        if run_e is not None:
            covered += run_e - run_s
        out.append(e - s - covered)
    return out


def _sources_arg(args, kwargs):
    if "sources" in kwargs:
        return kwargs["sources"]
    return next((a for a in args if isinstance(a, (list, tuple))), ())


class Tracer:
    """Installs span wrappers on an imported dsmfuse package and turns the
    spans and counts into the per-layer metrics."""

    def __init__(self):
        self.spans = Spans()
        self.counts = defaultdict(int)
        self.models = set()
        self.missing = []
        self._undo = []

    # --- installing and removing ---------------------------------------------------

    def install(self, dsm):
        """Wrap the layer boundaries of dsm, the imported dsmfuse package."""
        self._wrap(dsm.cli, "load_scenario", "scenario.load_scenario")
        self._wrap(dsm.cli, "run", "scenario.run")
        for name, span in (("bel", "decision.bel"), ("pl", "decision.pl"),
                           ("gpt", "decision.gpt"), ("decide_fn", "decision.decide")):
            self._wrap(dsm.scenario, name, span, self._after_gpt if name == "gpt" else None)
        self._wrap(dsm.rules, "is_admissible", "mass.is_admissible")
        for name in RULES:
            self._wrap(dsm.rules, name, f"rules.{name}", self._after_rule, errors="rules.errors")
        for name in NEUTRO:
            self._wrap(dsm.neutro, name, f"neutro.{name}", self._after_neutro)
        for cls in (dsm.mass.PreciseMass, dsm.mass.ImpreciseMass):
            self._wrap(cls, "validate", "mass.validate")
        # the imprecise walk's set sums and products count as mass time
        for op in ("__add__", "__mul__"):
            self._wrap(dsm.mass.SubunitarySet, op, "mass.set_arithmetic")
        self._wrap(dsm.lattice.Model, "alive_elements", "lattice.alive_elements",
                   self._after_alive_elements)
        self._wrap_steps(dsm.lattice.Model, "iter_alive_elements", "lattice.iter_alive_elements")

    def remove(self):
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _remember(self, owner, attr):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return None
        own = not isinstance(owner, type) or attr in vars(owner)
        self._undo.append((owner, attr, vars(owner)[attr] if own else original, own))
        return original

    def _wrap(self, owner, attr, span, after=None, errors=None):
        original = self._remember(owner, attr)
        if original is None:
            return
        spans = self.spans
        layer = span.split(".", 1)[0]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer = layer not in spans.open_layers()
            i = spans.open(span)
            try:
                result = original(*args, **kwargs)
            except Exception:
                if errors and outer:
                    self.counts[errors] += 1
                raise
            finally:
                spans.close(i)
            if after is not None and outer:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def _wrap_steps(self, owner, attr, span):
        """Wrap a generator method so each step is a span of its own."""
        original = self._remember(owner, attr)
        if original is None:
            return
        spans = self.spans

        @functools.wraps(original)
        def wrapper(model, *args, **kwargs):
            # nested in alive_elements, which counts the whole list itself
            outer = "lattice" not in spans.open_layers()
            if outer:
                self._count_enumeration(model, 0)
            it = original(model, *args, **kwargs)
            while True:
                i = spans.open(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    spans.close(i)
                if outer:
                    self.counts["lattice.alive_elements"] += 1
                yield item

        setattr(owner, attr, wrapper)

    # --- counts ----------------------------------------------------------------------

    def _count_enumeration(self, model, elements):
        self.counts["lattice.alive_calls"] += 1
        self.counts["lattice.alive_elements"] += elements
        self.models.add(model)

    def _after_alive_elements(self, args, kwargs, result):
        self._count_enumeration(args[0], len(result))

    def _after_rule(self, args, kwargs, report):
        sources = _sources_arg(args, kwargs)
        self.counts["rules.tuples"] += prod(len(m) for m in sources)
        self.counts["rules.landing_sites"] += len(report.mass)
        for _, value in report.mass.items():
            self.counts["mass.fused_pieces"] += len(getattr(value, "pieces", ()))

    def _after_neutro(self, args, kwargs, report):
        sources = _sources_arg(args, kwargs)
        self.counts["neutro.pairs"] += prod(len(m) for m in sources)

    def _after_gpt(self, args, kwargs, dist):
        self.counts["decision.spread_pairs"] += len(args[1]) * len(dist.values)

    # --- requests and results --------------------------------------------------------

    def call(self, request_id, fn, *args):
        """Run one request under a root span named cli.main."""
        self.spans.request_id = request_id
        i = self.spans.open("cli.main")
        try:
            return fn(*args)
        finally:
            self.spans.close(i)

    def layer_self_ms(self):
        """Self time in milliseconds per span name."""
        out = defaultdict(float)
        for i, t in enumerate(self_times(self.spans)):
            out[self.spans.name_of(i)] += t * 1000.0
        return out

    def metrics(self, requests, output_bytes, overhead):
        """Every per-layer metric as {name: (value, unit)}; counts and
        times are per request over the traced requests."""
        by_name = self.layer_self_ms()
        layer = defaultdict(float)
        for name, ms in by_name.items():
            layer[name.split(".", 1)[0]] += ms
        total_ms = sum(layer.values())
        c = self.counts
        per = 1.0 / max(requests, 1)
        values = {
            "rules.fuse_ms": layer["rules"] * per,
            "rules.share": layer["rules"] / total_ms if total_ms else 0.0,
            "rules.tuples": c["rules.tuples"] * per,
            "rules.tuples_per_s": c["rules.tuples"] / (layer["rules"] / 1000.0)
            if layer["rules"] else 0.0,
            "rules.landing_sites": c["rules.landing_sites"] * per,
            "rules.tuples_per_site": c["rules.tuples"] / c["rules.landing_sites"]
            if c["rules.landing_sites"] else 0.0,
            "rules.errors": c["rules.errors"] * per,
            "lattice.alive_ms": layer["lattice"] * per,
            "lattice.alive_calls": c["lattice.alive_calls"] * per,
            "lattice.alive_elements": c["lattice.alive_elements"] * per,
            "lattice.alive_repeat_ratio": c["lattice.alive_calls"] / len(self.models)
            if self.models else 0.0,
            "decision.bel_pl_ms": (by_name["decision.bel"] + by_name["decision.pl"]) * per,
            "decision.gpt_ms": by_name["decision.gpt"] * per,
            "decision.decide_ms": by_name["decision.decide"] * per,
            "decision.spread_pairs": c["decision.spread_pairs"] * per,
            "mass.validate_ms": by_name["mass.validate"] * per,
            "mass.admissible_ms": by_name["mass.is_admissible"] * per,
            "mass.fused_pieces": c["mass.fused_pieces"] * per,
            "neutro.fuse_ms": layer["neutro"] * per,
            "neutro.pairs": c["neutro.pairs"] * per,
            "scenario.load_ms": by_name["scenario.load_scenario"] * per,
            "scenario.run_self_ms": by_name["scenario.run"] * per,
            "cli.self_ms": layer["cli"] * per,
            "cli.output_bytes": output_bytes * per,
            "trace.overhead": overhead,
        }
        return {name: (values[name], unit) for name, unit in METRICS}, layer
