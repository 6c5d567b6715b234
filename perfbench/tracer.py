"""Outside-in layer tracer for bairekit.

The tracer wraps public functions and methods of the traced modules after
import; the program itself carries no instrumentation.  A name reaches
other modules both as a module attribute (``cy.is_empty``) and as a copy
made by ``from ... import`` (``minimal_antichain`` in ``lusin`` and
``spaces``), so every binding of a traced object in every ``bairekit``
module is replaced, and ``install`` checks that none is left.

Spans are aggregated on exit by (span name, caller layer) into call
counts, inclusive time and self time; no raw span is kept, so the traced
run's memory stays bounded.  A layer's self time is the time its spans
ran minus the time their traced children ran.

The tracer never calls ``cylinder.mentions``: that cache lives for the
whole process, so a tracer call would change both the cache's hit ratio
and the run's memory.  Expression sizes come from the tracer's own walk,
and the cache statistics are read once, after the command returns.
``selector`` and ``seq`` are not traced; ``seq`` helpers are too
fine-grained to wrap without distorting the run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter
from types import FunctionType

# module-level functions traced in each layer
FUNCTIONS = {
    "cylinder": ("is_empty", "subset", "equal", "intersects",
                 "contains_branch", "witness_cylinder", "strict_witness",
                 "minimal_antichain", "nd_witness", "trace_window"),
    "spaces": ("all_topologies",),
    "scheme": ("check_covers", "check_partitions",
               "check_relabel_identities", "relabel", "standard_scheme",
               "fruit_prefix", "strict_branch_probe", "pi_net_probe",
               "dense_in_itself_probe", "branch_nodes", "preimage_table",
               "dump_scheme"),
    "lusin": ("build_lusin", "check_lusin_conditions", "base_from_lines",
              "standard_base"),
    "choquet": ("validate_history", "remove_redundant", "copy_strategy",
                "cylinder_strategy", "modify_strategy", "run_game",
                "extract_schemes", "replay_branch", "transcript_json"),
    "grammar": ("parse_expr", "expr_to_text", "expr_to_json",
                "expr_from_json"),
}

# classes whose public methods (and constructor) are traced: (module,
# class, span prefix)
CLASSES = (
    ("spaces", "FiniteSpaceModel", "spaces.finite"),
    ("spaces", "BaireSpaceModel", "spaces.baire"),
)


class Tracer:
    def __init__(self):
        # (span name, caller layer) -> [calls, inclusive s, self s]
        self.stats: dict[tuple[str, str], list] = {}
        # open spans: [name, layer, time spent in traced children]
        self.stack: list[list] = [["other.main", "other", 0.0]]
        self.mention_sizes: Counter = Counter()
        self.pairs_in = 0
        self._originals: dict[int, object] = {}

    # -- spans ----------------------------------------------------------------

    def _record(self, name: str, caller: str, frame: list, dt: float) -> None:
        key = (name, caller)
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[2]

    def span(self, name: str, layer: str, fn):
        stack = self.stack
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1]
            frame = [name, layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                caller[2] += dt
                record(name, caller[1], frame, dt)

        return traced

    def run(self, fn):
        """Call ``fn()`` as the root span, whose self time is ``other``."""
        root = self.stack[0]
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self._record(root[0], "other", root, perf_counter() - t0)

    # -- hooks ------------------------------------------------------------------

    def _is_empty(self, fn):
        """Records the mention count of every argument, walk time excluded."""
        inner = self.span("cylinder.is_empty", "cylinder", fn)
        sizes = self.mention_sizes
        stack = self.stack

        @functools.wraps(fn)
        def traced(e):
            t0 = perf_counter()
            sizes[_mention_count(e)] += 1
            stack[-1][2] += perf_counter() - t0
            return inner(e)

        return traced

    def _remove_redundant(self, fn):
        inner = self.span("choquet.remove_redundant", "choquet", fn)

        @functools.wraps(fn)
        def traced(space, history):
            self.pairs_in += len(history)
            return inner(space, history)

        return traced

    def _modify_strategy(self, fn):
        """The returned reply rule is a span named after the span that
        asked for it, so extraction replies can be told from replays."""
        inner = self.span("choquet.modify_strategy", "choquet", fn)

        @functools.wraps(fn)
        def traced(strategy):
            reply = inner(strategy)
            return self.span(f"choquet.reply@{self.stack[-1][0]}", "choquet",
                             reply)

        return traced

    def _scheme_init(self, fn):
        """A scheme's rule runs in the layer of the span that built the
        scheme: the Lusin plans in ``lusin``, ``pair_at`` in ``choquet``.
        Rule calls are exactly the memo misses of ``Scheme.node``."""
        @functools.wraps(fn)
        def traced(scheme, space, rule, *args, **kwargs):
            owner, layer = self.stack[-1][0], self.stack[-1][1]
            fn(scheme, space, self.span(f"{owner}.rule", layer, rule),
               *args, **kwargs)

        return traced

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced name in every bairekit module."""
        import bairekit.cli  # noqa: F401  (loads every traced module)
        mods = _package_modules()
        hooks = {"is_empty": self._is_empty,
                 "remove_redundant": self._remove_redundant,
                 "modify_strategy": self._modify_strategy}
        replace: dict[int, object] = {}
        for layer, names in FUNCTIONS.items():
            home = mods[f"bairekit.{layer}"]
            for attr in names:
                fn = getattr(home, attr)
                hook = hooks.get(attr)
                replace[id(fn)] = hook(fn) if hook else \
                    self.span(f"{layer}.{attr}", layer, fn)
                self._originals[id(fn)] = fn
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])

        for mod_name, cls_name, prefix in CLASSES:
            cls = getattr(mods[f"bairekit.{mod_name}"], cls_name)
            for attr, value in list(vars(cls).items()):
                if isinstance(value, FunctionType) and (
                        not attr.startswith("_") or attr == "__init__"):
                    setattr(cls, attr, self.span(f"{prefix}.{attr}", "spaces",
                                                 value))
        lazy = mods["bairekit.spaces"].LazySeq
        lazy.__getitem__ = self.span("spaces.LazySeq.getitem", "spaces",
                                     lazy.__getitem__)
        scheme_cls = mods["bairekit.scheme"].Scheme
        scheme_cls.node = self.span("scheme.Scheme.node", "scheme",
                                    scheme_cls.node)
        scheme_cls.__init__ = self._scheme_init(scheme_cls.__init__)
        self._check_installed(mods)

    def _check_installed(self, mods: dict) -> None:
        for name, mod in mods.items():
            for attr, value in vars(mod).items():
                if self._originals.get(id(value)) is value:
                    raise RuntimeError(f"{name}.{attr} escaped the tracer")

    # -- results ------------------------------------------------------------------

    def _calls(self, name: str, caller_layer: str) -> int:
        rec = self.stats.get((name, caller_layer))
        return rec[0] if rec else 0

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``."""
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        layer_self: Counter = Counter()
        for (name, _caller), (n, inclusive, own) in self.stats.items():
            calls[name] += n
            incl[name] += inclusive
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own

        def total(pred) -> int:
            return sum(n for name, n in calls.items() if pred(name))

        m: dict[str, float] = {}
        for fn in ("is_empty", "subset", "equal", "intersects",
                   "contains_branch", "witness_cylinder", "minimal_antichain"):
            m[f"cylinder.{fn}.calls"] = calls[f"cylinder.{fn}"]
        m["cylinder.self_s"] = layer_self["cylinder"]
        m["cylinder.is_empty.mentions_p50"] = _median(self.mention_sizes)
        m["cylinder.is_empty.mentions_max"] = max(self.mention_sizes, default=0)
        info = sys.modules["bairekit.cylinder"].mentions.cache_info()
        looked = info.hits + info.misses
        m["cylinder.mentions.cache_entries"] = info.currsize
        m["cylinder.mentions.hit_ratio"] = info.hits / looked if looked else 0.0

        m["spaces.baire.calls"] = total(lambda s: s.startswith("spaces.baire."))
        m["spaces.finite.calls"] = total(lambda s: s.startswith("spaces.finite."))
        m["spaces.pi_base_enum.calls"] = total(
            lambda s: s.startswith("spaces.") and s.endswith(".pi_base_enum"))
        m["spaces.self_s"] = layer_self["spaces"]

        built = total(lambda s: s.endswith(".rule"))
        node_calls = calls["scheme.Scheme.node"]
        m["scheme.node.calls"] = node_calls
        m["scheme.node.built"] = built
        m["scheme.node.hit_ratio"] = 1 - built / node_calls if node_calls else 0.0
        for fn in ("check_covers", "check_partitions",
                   "check_relabel_identities"):
            m[f"scheme.{fn}.s"] = incl[f"scheme.{fn}"]
        m["scheme.self_s"] = layer_self["scheme"]

        # a Lusin plan carves with one strict witness and splits with one
        # minimal antichain; no other lusin code calls either
        m["lusin.nodes.carved"] = self._calls("cylinder.strict_witness", "lusin")
        m["lusin.nodes.split"] = self._calls("cylinder.minimal_antichain", "lusin")
        m["lusin.synth_self_s"] = (self_s["lusin.build_lusin"]
                                   + self_s["lusin.build_lusin.rule"])
        m["lusin.check_lusin_conditions.s"] = incl["lusin.check_lusin_conditions"]

        m["choquet.reply.calls"] = total(lambda s: s.startswith("choquet.reply@"))
        m["choquet.remove_redundant.calls"] = calls["choquet.remove_redundant"]
        m["choquet.remove_redundant.pairs_in"] = self.pairs_in
        # extraction asks the modified reply exactly once per pair it builds
        m["choquet.extract.pairs_built"] = \
            calls["choquet.reply@choquet.extract_schemes"]
        m["choquet.replay_branch.calls"] = calls["choquet.replay_branch"]
        m["choquet.self_s"] = layer_self["choquet"]

        m["grammar.parse_expr.calls"] = calls["grammar.parse_expr"]
        m["grammar.self_s"] = layer_self["grammar"]
        m["other.self_s"] = layer_self["other"]
        return m


def _package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "bairekit"
                                    or name.startswith("bairekit."))}


def _mention_count(e) -> int:
    """Distinct atom sequences of an expression, by an iterative walk over
    its shared subterms (``cylinder.mentions`` must not be called)."""
    atoms = set()
    seen = set()
    todo = [e]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        entries = getattr(x, "entries", None)
        if entries is not None:
            atoms.add(entries)
        elif hasattr(x, "left"):
            todo.append(x.left)
            todo.append(x.right)
    return len(atoms)


def _median(hist: Counter) -> float:
    n = sum(hist.values())
    if not n:
        return 0
    lo, hi = (n - 1) // 2, n // 2
    out = []
    seen = 0
    for size in sorted(hist):
        for idx in (lo, hi):
            if seen <= idx < seen + hist[size]:
                out.append(size)
        seen += hist[size]
    return sum(out) / 2
