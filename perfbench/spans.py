"""Span tracing of ``slotauction`` from outside the package.

``Tracer.install()`` swaps each traced public function for a wrapper in
every ``slotauction`` module namespace that bound it (``from .x import f``
copies the name, so patching one module is not enough).  The wrappers record
one span per call: (name, start, end, parent, op id).  Spans stay in memory;
when the run ends they are reduced to per-layer numbers and written out.  ``uninstall()``
restores the originals, so untimed and timed code paths are the library's
own.

Only the boundaries named below are traced; everything else a traced function
calls counts towards that function's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("core", "linfrac", "mnl_wdp", "cascade_wdp", "oracle",
          "distributions", "mechanisms", "cli")

# Public functions traced per layer: the package exports plus the
# cross-module helpers the per-layer metrics name.
FUNCTIONS = {
    "core": ("mnl_ctr", "cascade_ctr", "welfare"),
    "linfrac": ("build_charnes_cooper", "solve_lp", "recover_allocation"),
    "mnl_wdp": ("solve_mnl_wdp", "dinkelbach_check", "max_weight_matching"),
    "cascade_wdp": ("restricted_ctr", "budgeted_ctr", "zero_suppress",
                    "exact_budgeted_matching", "ptas_restricted_welfare",
                    "bucketize", "greedy_bucket", "optimal_permutation",
                    "combined_cascade_candidates", "combined_cascade_solver"),
    "oracle": ("enumerate_matchings", "brute_force_wdp_mnl",
               "brute_force_wdp_cascade", "brute_force_restricted"),
    "distributions": ("sample", "is_regular"),
    "mechanisms": ("vcg", "myerson", "monotone_grid_sum",
                   "monotonicity_audit"),
    "cli": ("main",),
}
# Factories whose returned SolverHandle.solve is traced as mechanisms.handle.
HANDLE_FACTORIES = ("exact_mnl_solver", "brute_cascade_solver",
                    "greedy_cascade_solver", "threshold_dropping_solver")
# Frozen result types whose construction is traced as core.construct.
CORE_OBJECTS = ("Allocation", "Permutation", "AugmentedAllocation")
# Root span the benchmark opens around every op and every output check.
OP = "bench.op"
GATE = "bench.gate"


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.args: dict[int, object] = {}  # span index -> computed size
        self.current_op = -1
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, sizes=None):
        """Return ``fn`` wrapped in a span; ``sizes(arguments)``, given the
        call's bound arguments by parameter name, may keep a number derived
        from the input sizes for computed counts."""
        nid = self._id(name)
        keep = None
        if sizes is not None:
            signature = inspect.signature(fn)

            def keep(args, kwargs):
                return sizes(signature.bind(*args, **kwargs).arguments)
        if inspect.isgeneratorfunction(fn):
            # One span per resume, so the consumer's work between items is
            # not charged to the generator.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                idx = self._open(nid)
                try:
                    it = fn(*args, **kwargs)
                    if keep is not None:
                        self.args[idx] = keep(args, kwargs)
                finally:
                    self._close(idx)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                if keep is not None:
                    self.args[idx] = keep(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def _plan_patch(self, owner, attr: str, replacement) -> None:
        self._plan.append((owner, attr, getattr(owner, attr), replacement))

    def _plan_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "slotauction" and not modname.startswith("slotauction."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._plan_patch(module, attr, replacement)

    def _build_plan(self, sizes: dict) -> None:
        import slotauction  # noqa: F401  (loads every submodule)

        mods = {layer: sys.modules[f"slotauction.{layer}"] for layer in LAYERS}
        for layer, funcs in FUNCTIONS.items():
            for func in funcs:
                name = f"{layer}.{func}"
                original = getattr(mods[layer], func)
                self._plan_everywhere(
                    original, self.wrap(name, original, sizes.get(name)))
        for factory in HANDLE_FACTORIES:
            original = getattr(mods["mechanisms"], factory)
            self._plan_everywhere(original, self._wrap_factory(original))
        for cls_name in CORE_OBJECTS:
            cls = getattr(mods["core"], cls_name)
            self._plan_patch(cls, "__init__",
                             self.wrap("core.construct", cls.__init__))
        base = mods["distributions"].ValueDistribution
        self._plan_patch(base, "virtual_value",
                         self.wrap("distributions.virtual_value",
                                   base.virtual_value))

    def _wrap_factory(self, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            handle = factory(*args, **kwargs)
            return type(handle)(
                solve=self.wrap("mechanisms.handle", handle.solve),
                kind=handle.kind)

        return traced_factory

    def install(self, sizes: dict | None = None) -> None:
        """Swap the traced functions in; ``sizes`` maps a span name to the
        ``sizes`` argument of :meth:`wrap`."""
        if not self._plan:
            self._build_plan(sizes or {})
        for owner, attr, _original, replacement in self._plan:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _replacement in reversed(self._plan):
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time in seconds: duration minus child durations."""
        total = len(self.name)
        own = [self.end[i] - self.start[i] for i in range(total)]
        for i in range(total):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def dump(self, path) -> None:
        """Write every span to ``path`` as a compressed numpy archive with
        columns name (index into ``names``), start, end, parent and op."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent), op=np.array(self.op))
