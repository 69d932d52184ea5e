"""Per-layer counts and spans, recorded from outside the program.

The tracer wraps public functions and constructors of each layer while a
traced run is in progress and restores the originals afterwards.  A
function is wrapped under every name any package module holds for it
(``cli`` and ``ring`` import names from other modules), except where a
metric is defined by one module's call sites: ``setpart.labels_enumerated``
counts only the labels ``ring`` enumerates.  Times are inclusive span times
in raw seconds; the caller corrects them for host speed.  Spans (name,
start, end, parent) of the first traced round are kept in memory for the
trace file, from which self times are derived.

Anything the program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import collections
import functools
import time

# metric name -> unit, better direction; the per-layer metric list.
PER_LAYER = {
    "qcoeff.laurent_built": ("count", "lower"),
    "qcoeff.cyclotomic_built": ("count", "lower"),
    "setpart.partitions_built": ("count", "lower"),
    "setpart.indices_built": ("count", "lower"),
    "setpart.labels_enumerated": ("count", "lower"),
    "ring.restrict_s": ("s", "lower"),
    "ring.restrict_calls": ("count", "lower"),
    "ring.restrict_combo_s": ("s", "lower"),
    "ring.restrict_combo_calls": ("count", "lower"),
    "ring.tensor_s": ("s", "lower"),
    "ring.tensor_calls": ("count", "lower"),
    "ring.straighten_s": ("s", "lower"),
    "ring.straighten_calls": ("count", "lower"),
    "ring.straighten_rewrites": ("count", "lower"),
    "ring.superinduce_s": ("s", "lower"),
    "ring.superinduce_calls": ("count", "lower"),
    "ring.superinduce_candidates": ("count", "lower"),
    "ring.superinduce_restricts": ("count", "lower"),
    "ring.superinduce_terms": ("count", "lower"),
    "ring.superinduce_yield": ("ratio", "higher"),
    "ring.combos_built": ("count", "lower"),
    "ring.char_value_hits": ("count", "higher"),
    "ring.char_value_misses": ("count", "lower"),
    "oracle.groups_built": ("count", "lower"),
    "oracle.group_elements": ("count", "lower"),
    "oracle.superclass_table_s": ("s", "lower"),
    "oracle.character_table_s": ("s", "lower"),
    "oracle.action_tables_s": ("s", "lower"),
    "oracle.brute_superinduce_s": ("s", "lower"),
    "oracle.brute_superinduce_calls": ("count", "lower"),
    "ncsym.star_product_s": ("s", "lower"),
    "ncsym.star_products": ("count", "lower"),
    "ncsym.expand_s": ("s", "lower"),
    "ncsym.basis_change_s": ("s", "lower"),
    "ncsym.words_built": ("count", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.main_ms": ("ms", "lower"),
    "cli.process_ms": ("ms", "lower"),
    "cli.cache_hit_ms": ("ms", "lower"),
    "cli.cache_miss_ms": ("ms", "lower"),
    "cli.cache_hits": ("count", "higher"),
    "cli.cache_misses": ("count", "lower"),
    "traced.total_s": ("s", "lower"),
}

# Inclusive spans: (module, owner class or None, attribute) -> span name.
# The span name doubles as the prefix of its ``_s``/``_calls`` metrics.
SPANS = {
    ("ring", None, "restrict"): "ring.restrict",
    ("ring", None, "restrict_combo"): "ring.restrict_combo",
    ("ring", None, "tensor"): "ring.tensor",
    ("ring", None, "straighten"): "ring.straighten",
    ("ring", None, "superinduce"): "ring.superinduce",
    ("oracle", "PatternGroup", "superclass_table"): "oracle.superclass_table",
    ("oracle", "PatternGroup", "character_table"): "oracle.character_table",
    ("oracle", "PatternGroup", "action_tables"): "oracle.action_tables",
    ("oracle", None, "brute_superinduce"): "oracle.brute_superinduce",
    ("ncsym", None, "star_K_product"): "ncsym.star_product",
    ("ncsym", "NCSymElem", "expand"): "ncsym.expand",
    ("ncsym", None, "p_from_m"): "ncsym.basis_change",
    ("ncsym", None, "m_from_p"): "ncsym.basis_change",
    ("cli", None, "main"): "cli.main",
}

# Constructor calls: (module, class) -> count metric.
CONSTRUCTORS = {
    ("qcoeff", "LaurentPoly"): "qcoeff.laurent_built",
    ("qcoeff", "Cyclotomic"): "qcoeff.cyclotomic_built",
    ("setpart", "LabeledSetPartition"): "setpart.partitions_built",
    ("setpart", "PartitionIndex"): "setpart.indices_built",
    ("ring", "CharCombo"): "ring.combos_built",
    ("oracle", "PatternGroup"): "oracle.groups_built",
    ("ncsym", "WordExpansion"): None,  # counts words built instead, see _init
}

# Metrics derived from spans: a span name -> (time metric, call metric).
SPAN_METRICS = {
    "ring.restrict": ("ring.restrict_s", "ring.restrict_calls"),
    "ring.restrict_combo": ("ring.restrict_combo_s", "ring.restrict_combo_calls"),
    "ring.tensor": ("ring.tensor_s", "ring.tensor_calls"),
    "ring.straighten": ("ring.straighten_s", "ring.straighten_calls"),
    "ring.superinduce": ("ring.superinduce_s", "ring.superinduce_calls"),
    "oracle.superclass_table": ("oracle.superclass_table_s", None),
    "oracle.character_table": ("oracle.character_table_s", None),
    "oracle.action_tables": ("oracle.action_tables_s", None),
    "oracle.brute_superinduce": ("oracle.brute_superinduce_s", "oracle.brute_superinduce_calls"),
    "ncsym.star_product": ("ncsym.star_product_s", "ncsym.star_products"),
    "ncsym.expand": ("ncsym.expand_s", None),
    "ncsym.basis_change": ("ncsym.basis_change_s", None),
}


class Tracer:
    """Counters and inclusive span times of one round at a time."""

    def __init__(self):
        self.counts = collections.Counter()
        self.seconds = collections.Counter()
        self.spans = []          # [name, start, end, parent index]
        self.keep_spans = True
        self._stack = []
        self._in_superinduce = 0
        self._restore = []
        self._cache_fn = None
        self._cache_start = None

    # -- installing ---------------------------------------------------------

    def install(self, modules):
        """Wrap the layers in ``modules`` (short name -> module object)."""
        for (mod, cls, attr), name in SPANS.items():
            owner = self._owner(modules, mod, cls)
            if owner is not None:
                self._patch(modules, owner, attr, lambda f, n=name: self.span(n, f), cls is None)
        for (mod, cls), metric in CONSTRUCTORS.items():
            owner = self._owner(modules, mod, cls)
            if owner is not None and "__init__" in vars(owner):
                self._patch(modules, owner, "__init__",
                            lambda f, m=metric, c=cls: self._init(m, c, f), False)
        ring = modules.get("ring")
        if ring is not None:
            self._patch(modules, ring, "tensor_pair",
                        lambda f: self._count("ring.straighten_rewrites", f), True)
            for attr in ("enumerate_compatible", "enumerate_labeled"):
                # only ring's own name: the metric counts ring's call sites
                self._patch({}, ring, attr, self._labels, False)
            self._cache_fn = getattr(ring, "_char_value_std", None)
            if not hasattr(self._cache_fn, "cache_info"):
                self._cache_fn = None

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    @staticmethod
    def _owner(modules, mod, cls):
        module = modules.get(mod)
        if module is None or cls is None:
            return module
        return getattr(module, cls, None)

    def _patch(self, modules, owner, attr, make, everywhere):
        original = vars(owner).get(attr)
        if original is None:
            return
        wrapped = make(original)
        targets = [owner]
        if everywhere:
            targets += [m for m in modules.values() if m is not owner]
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    self._restore.append((target, name, value))
                    setattr(target, name, wrapped)

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn):
        """``fn`` wrapped in a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            keep = tracer.keep_spans
            if keep:
                tracer.spans.append([name, 0.0, 0.0, parent])
            tracer._stack.append(idx if keep else parent)
            sind = name == "ring.superinduce"
            if sind:
                tracer._in_superinduce += 1
            elif name == "ring.restrict_combo" and tracer._in_superinduce:
                tracer.counts["ring.superinduce_restricts"] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                if sind:
                    tracer._in_superinduce -= 1
                if keep:
                    tracer.spans[idx][1:3] = [t0, t1]
                tracer.seconds[name] += t1 - t0
                tracer.counts[name] += 1
            if sind:
                tracer.counts["ring.superinduce_terms"] += len(result)
            return result

        return wrapper

    def _init(self, metric, cls, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            if metric is not None:
                tracer.counts[metric] += 1
            if cls == "PatternGroup":
                tracer.counts["oracle.group_elements"] += getattr(obj, "size", 0)
            elif cls == "WordExpansion":
                tracer.counts["ncsym.words_built"] += len(getattr(obj, "coeffs", ()))

        return wrapper

    def _count(self, metric, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _labels(self, fn):
        tracer = self
        candidates = fn.__name__ == "enumerate_compatible"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts["setpart.labels_enumerated"] += 1
                if candidates and tracer._in_superinduce:
                    tracer.counts["ring.superinduce_candidates"] += 1
                yield item

        return wrapper

    # -- rounds -------------------------------------------------------------

    def begin_round(self):
        self.counts.clear()
        self.seconds.clear()
        if self._cache_fn is not None:
            self._cache_start = self._cache_fn.cache_info()

    def end_round(self):
        """Raw per-round metrics: counts, and span seconds by span name."""
        counts = dict(self.counts)
        if self._cache_fn is not None:
            info = self._cache_fn.cache_info()
            counts["ring.char_value_hits"] = info.hits - self._cache_start.hits
            counts["ring.char_value_misses"] = info.misses - self._cache_start.misses
        self.keep_spans = False
        return counts, dict(self.seconds)


def layer_metrics(counts, seconds):
    """Per-layer metrics of one round from its raw counts and (already
    corrected) span seconds.  Metrics with no data read 0."""
    out = {name: 0 for name in PER_LAYER}
    for span, (time_metric, call_metric) in SPAN_METRICS.items():
        out[time_metric] += seconds.get(span, 0.0)
        if call_metric:
            out[call_metric] += counts.get(span, 0)
    for name in out:
        if name in counts:
            out[name] = counts[name]
    cand = out["ring.superinduce_candidates"]
    out["ring.superinduce_yield"] = out["ring.superinduce_terms"] / cand if cand else 0
    return out


def self_times(spans):
    """Self time per span name: its duration minus the time its child spans
    cover (children never overlap in a single thread)."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = collections.Counter()
    for k, (name, t0, t1, _) in enumerate(spans):
        out[name] += (t1 - t0) - child[k]
    return dict(out)
