"""Outside-in tracing of nilcrit: spans and counters patched in from the benchmark.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` replaces the
public functions and methods of each traced module with wrappers, and
``Tracer.uninstall`` puts the originals back.  Because nilcrit modules import
names from each other directly (``from .group import normal_closure``), a
function is patched in every ``nilcrit.*`` namespace that binds it, not just
in the module that defines it.

A span records the time between entry and exit of one call.  A layer's self
time is the sum over its spans of their duration minus the time covered by
child spans, so each second is charged to exactly one layer.  Calls that run
millions of times per operation are counted, not timed, because a span around
them would distort the run; their cost shows in their callers' self time.
The one exception is ``IndexedGroup.row``: the call that builds a row is
timed, so building rows is charged to ``indexed``, and the lookups that find
it built are only counted.  ``nilcrit.perm`` is not wrapped at all.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("chain", "group", "indexed", "structure", "words", "criterion", "lemmas",
          "corpus", "cli")

# Per-element accessors: wrapped with a counter only, or left alone entirely.
COUNTED = {
    ("StabilizerChain", "contains"): "chain.sifts",
    ("IndexedGroup", "row"): "indexed.row_calls",
    ("PermGroup", "memo"): "group.memo_calls",
}
UNWRAPPED = {
    "PermGroup": {"chain", "order", "contains", "is_trivial", "elements", "element_set"},
    "StabilizerChain": {"order"},
    "ElementSet": {"from_iterable", "intersection", "with_flags"},
    "IndexedGroup": {"mul", "conj", "comm", "perms"},
    "CosetMap": {"coset_key", "coset_index"},
}
# Constructors and call operators that are spans in their own right.
DUNDER_SPANS = {("StabilizerChain", "__init__"), ("IndexedGroup", "__init__"),
                ("CosetMap", "__call__")}
SERIES_MEMO_KEYS = {"derived_series", "lower_central_series", "lower_fitting_series"}
COUNTERS = ("chain.builds", "chain.sifts", "chain.elements_enumerated",
            "group.coset_map_calls", "group.quotients", "group.memo_calls",
            "group.memo_misses", "group.normal_closures", "structure.series_built",
            "indexed.views", "indexed.row_calls", "indexed.rows_built", "words.value_sets",
            "words.values_total", "criterion.scans", "criterion.pairs_checked",
            "lemmas.checks", "lemmas.inadmissible", "corpus.loads")


class Tracer:
    """Collects per-layer self time and work counters while installed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter[str] = Counter()
        self.max_closure_generators = 0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # results

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {f"{layer}.self_s": s for layer, s in self.self_s.items()}
        out.update((name, self.counts[name]) for name in COUNTERS)
        out["group.max_closure_generators"] = self.max_closure_generators
        return out

    # wrappers

    def _spanned(self, layer: str, fn, observe=None):
        stack = self._stack
        self_s = self.self_s

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(result, args)
            return result

        return span

    def _spanned_generator(self, layer: str, fn):
        """Generators do their work in next(), so each step is its own span."""
        spanned = self._spanned

        def wrapper(*args, **kwargs):
            step = spanned(layer, next)
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        if name == "indexed.row_calls":
            build = self._spanned("indexed", fn)

            def row(iv, i):
                counts[name] += 1
                if iv._rows[i] is None:
                    counts["indexed.rows_built"] += 1
                    return build(iv, i)
                return fn(iv, i)
            return row
        if name == "group.memo_calls":
            def memo(group, key, compute):
                counts[name] += 1

                def miss():
                    counts["group.memo_misses"] += 1
                    if key[0] in SERIES_MEMO_KEYS:
                        counts["structure.series_built"] += 1
                    return compute()
                return fn(group, key, miss)
            return memo

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _observer(self, layer: str, qualname: str):
        """Per-call counters read from a span's arguments and result."""
        counts = self.counts

        def bump(name, amount=1):
            counts[name] += amount

        if qualname == "StabilizerChain.__init__":
            return lambda r, a: bump("chain.builds")
        if qualname == "StabilizerChain.elements":
            return lambda r, a: bump("chain.elements_enumerated", len(r))
        if qualname == "IndexedGroup.__init__":
            return lambda r, a: bump("indexed.views")
        if qualname == "CosetMap.__call__":
            return lambda r, a: bump("group.coset_map_calls")
        if qualname == "quotient":
            return lambda r, a: bump("group.quotients")
        if qualname == "normal_closure":
            def closure(r, a):
                bump("group.normal_closures")
                self.max_closure_generators = max(self.max_closure_generators,
                                                  len(r.generators))
            return closure
        if layer == "words" and qualname in ("delta_values", "gamma_values",
                                              "delta_values_bruteforce"):
            def values(r, a):
                bump("words.value_sets")
                bump("words.values_total", len(r))
            return values
        if qualname == "coprime_product_criterion":
            def scan(r, a):
                bump("criterion.scans")
                bump("criterion.pairs_checked", r.pairs_checked)
            return scan
        if layer == "lemmas" and qualname.startswith("check_"):
            return lambda r, a: bump("lemmas.checks")
        if qualname == "load_group":
            return lambda r, a: bump("corpus.loads")
        return None

    def _lemma_check(self, fn):
        """Count checks that reject their instance as inadmissible."""
        from nilcrit.errors import HypothesisNotSatisfied
        counts = self.counts

        def check(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except HypothesisNotSatisfied:
                counts["lemmas.inadmissible"] += 1
                raise
        return check

    # patching

    def _wrap_function(self, layer: str, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._spanned_generator(layer, fn)
        wrapped = self._spanned(layer, fn, self._observer(layer, name))
        if layer == "lemmas" and name.startswith("check_"):
            wrapped = self._lemma_check(wrapped)
        return wrapped

    def _wrap_class(self, layer: str, cls) -> None:
        skip = UNWRAPPED.get(cls.__name__, set())
        for attr, value in list(vars(cls).items()):
            key = (cls.__name__, attr)
            if not inspect.isfunction(value) or attr in skip:
                continue
            if key in COUNTED:
                wrapped = self._counted(COUNTED[key], value)
            elif attr.startswith("_") and key not in DUNDER_SPANS:
                continue
            else:
                wrapped = self._spanned(layer, value,
                                        self._observer(layer, f"{cls.__name__}.{attr}"))
            self._patches.append((cls, attr, value))
            setattr(cls, attr, wrapped)

    def install(self) -> None:
        import nilcrit.cli  # noqa: F401  (loads every traced module)

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "nilcrit" or n.startswith("nilcrit."))]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"nilcrit.{layer}"]
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(layer, value)
                elif inspect.isfunction(value):
                    replacements[value] = self._wrap_function(layer, name, value)
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patches.append((ns, name, value))
                    setattr(ns, name, replacements[value])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
