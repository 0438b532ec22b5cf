"""Per-layer tracing of cayleycount, done from outside the package.

`Tracer.install` wraps public functions of each layer at every binding the
package's callers use: the defining module, every module that imported the
function by name, dict tables such as `verify.ALL_SUITES`, and class
attributes for methods.  A timed span records inclusive time and a call
count; the time a span spends outside its child spans is added to its
layer's self time.  The two hottest entry points, `groups.add_ids` and
`Graph.nbhd`, get a call counter only, so their time stays with the caller.

Metrics are collected per job; `Tracer.job_metrics` turns one job's raw
records into the named per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# (span name, module, attribute path).  The layer is the first part of the name.
SPANS = (
    ("groups.enumerate_abelian_groups", "groups", "enumerate_abelian_groups"),
    ("groups.make_group", "groups", "make_group"),
    ("groups.parse_group", "groups", "parse_group"),
    ("groups.symmetrize", "groups", "symmetrize"),
    ("groups.subgroup_generated", "groups", "subgroup_generated"),
    ("groups.bipartition", "groups", "bipartition"),
    ("groups.GeneratorSet", "groups", "GeneratorSet.__init__"),
    ("groups.d2", "groups", "GeneratorSet.d2"),
    ("graphs.build_cayley", "graphs", "build_cayley"),
    ("graphs.closure", "graphs", "closure"),
    ("graphs.is_connected", "graphs", "Graph.is_connected"),
    ("graphs.graph_from_json", "graphs", "graph_from_json"),
    ("graphs.graph_to_json", "graphs", "graph_to_json"),
    ("counting.count_independent_sets", "counting", "count_independent_sets"),
    ("counting.count_independent_sets_bruteforce", "counting",
     "count_independent_sets_bruteforce"),
    ("counting.enumerate_small_2linked_closed", "counting", "enumerate_small_2linked_closed"),
    ("counting.count_closure_preimages", "counting", "count_closure_preimages"),
    ("counting.container_table", "counting", "container_table"),
    ("sumsets.sumset", "sumsets", "sumset"),
    ("sumsets.olson_check", "sumsets", "olson_check"),
    ("sumsets.prp_witness_search", "sumsets", "prp_witness_search"),
    ("sumsets.chain_witness_search", "sumsets", "chain_witness_search"),
    ("sumsets.iterated_growth_check", "sumsets", "iterated_growth_check"),
    ("sumsets.thin_generators", "sumsets", "thin_generators"),
    ("containers.boundary_container", "containers", "boundary_container"),
    ("containers.phi_approx_sample", "containers", "phi_approx_sample"),
    ("containers.check_phi", "containers", "check_phi"),
    ("containers.psi_approx", "containers", "psi_approx"),
    ("containers.check_psi", "containers", "check_psi"),
    ("containers.greedy_cover", "containers", "greedy_cover"),
    ("constructions.build_gadget_ring", "constructions", "build_gadget_ring"),
    ("constructions.build_odd_circulant", "constructions", "build_odd_circulant"),
    ("verify.sweep_olson", "verify", "sweep_olson"),
    ("verify.sweep_prp", "verify", "sweep_prp"),
    ("verify.sweep_chain", "verify", "sweep_chain"),
    ("verify.sweep_growth", "verify", "sweep_growth"),
    ("verify.sweep_thinning", "verify", "sweep_thinning"),
    ("cli.main", "cli", "main"),
    ("cli.build", "cli", "cmd_build"),
    ("cli.count", "cli", "cmd_count"),
    ("cli.table", "cli", "cmd_table"),
    ("cli.containers", "cli", "cmd_containers"),
)

# Called millions of times per job: a counter only, since a timer would cost
# more than the call.
COUNTERS = (
    ("groups.add_ids", "groups", "add_ids"),
    ("graphs.nbhd", "graphs", "Graph.nbhd"),
)

LAYERS = ("groups", "graphs", "counting", "sumsets", "containers", "constructions",
          "verify", "cli")

# Every reported per-layer metric, with the workloads on which it must be
# nonzero.  The comment after each group names the end-to-end metric it moves.
PER_LAYER = {
    # wall_s on witness; item_p50_ms on census through Cayley builds
    "groups.add_ids.calls": ("census", "witness"),
    "groups.self_s": ("census", "witness"),
    # item_p50_ms on census; wall_s on reference
    "graphs.build_cayley.s": ("census",),
    "graphs.nbhd.calls": ("reference",),
    "graphs.closure.s": ("reference",),
    "graphs.self_s": ("census", "reference"),
    # item_p50_ms, item_p99_ms on census; wall_s, peak_rss_mb on reference
    "counting.count_independent_sets.s": ("census", "reference"),
    "counting.count_independent_sets_bruteforce.s": ("census", "reference"),
    "counting.enumerate_small_2linked_closed.s": ("reference",),
    "counting.enumerate_small_2linked_closed.records": ("reference",),
    "counting.count_closure_preimages.s": ("reference",),
    "counting.self_s": ("census", "reference"),
    # wall_s on witness; wall_s on reference through boundary_container
    "sumsets.sumset.calls": ("witness", "reference"),
    "sumsets.sumset.s": ("witness", "reference"),
    "sumsets.olson_check.s": ("witness",),
    "sumsets.prp_witness_search.s": ("witness",),
    "sumsets.chain_witness_search.s": ("witness", "reference"),
    "sumsets.iterated_growth_check.s": ("witness",),
    "sumsets.thin_generators.s": ("witness",),
    "sumsets.self_s": ("witness", "reference"),
    # wall_s on reference.  The phi sampler takes its degenerate branch
    # (p = 60 log2 d / |2D| >= 1) on every graph small enough to enumerate,
    # so it makes no sampling attempts and its retry counts stay at zero.
    "containers.boundary_container.s": ("reference",),
    "containers.phi_approx_sample.s": ("reference",),
    "containers.psi_approx.s": ("reference",),
    "containers.greedy_cover.calls": ("reference",),
    "containers.phi.retries": (),
    "containers.phi.accept_ratio": (),
    "containers.self_s": ("reference",),
    # wall_s on reference
    "constructions.build_gadget_ring.s": ("reference",),
    "constructions.build_odd_circulant.s": ("reference",),
    "constructions.self_s": ("reference",),
    # wall_s on witness
    "verify.sweep_olson.s": ("witness",),
    "verify.sweep_prp.s": ("witness",),
    "verify.sweep_chain.s": ("witness",),
    "verify.sweep_growth.s": ("witness",),
    "verify.sweep_thinning.s": ("witness",),
    "verify.self_s": ("witness",),
    # wall_s on reference; self time is argparse, JSON/CSV and file I/O
    "cli.build.s": ("reference",),
    "cli.count.s": ("reference",),
    "cli.table.s": ("reference",),
    "cli.containers.s": ("reference",),
    "cli.self_s": ("reference",),
}

# Exact counts: identical on every job of one seed (see tests/).
EXACT = ("groups.add_ids.calls", "graphs.nbhd.calls", "sumsets.sumset.calls",
         "counting.enumerate_small_2linked_closed.records", "containers.greedy_cover.calls",
         "containers.phi.retries")


def unit(metric: str) -> str:
    if metric.endswith("accept_ratio"):
        return "ratio"
    if metric.endswith((".s", "_s")):
        return "s"
    return "count"


def _resolve(owner, path: str):
    """(object holding the attribute, attribute name) for 'f' or 'Class.method'."""
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self, cc):
        self.cc = cc
        self.stack: list[list[float]] = []
        self.incl: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.incl, self.calls, self.self_s, self.counts):
            table.clear()

    # -- wrappers -------------------------------------------------------------

    def _close_span(self, name: str, layer: str, child: list[float], dur: float) -> None:
        self.stack.pop()
        self.incl[name] += dur
        self.self_s[layer] += dur - child[0]
        if self.stack:
            self.stack[-1][0] += dur

    def _timed(self, name: str, fn):
        layer = name.split(".", 1)[0]
        clock = time.perf_counter
        stack, calls, close = self.stack, self.calls, self._close_span
        on_return = self._phi_report if name == "containers.phi_approx_sample" else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, layer, child, clock() - t0)
                calls[name] += 1
            if on_return is not None:
                on_return(result)
            return result

        return span

    def _timed_generator(self, name: str, fn):
        """Each resumption of the generator is one span segment."""
        layer = name.split(".", 1)[0]
        clock = time.perf_counter
        stack, calls, counts, close = self.stack, self.calls, self.counts, self._close_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[name] += 1
            gen = fn(*args, **kwargs)
            while True:
                child = [0.0]
                stack.append(child)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(name, layer, child, clock() - t0)
                counts[name + ".records"] += 1
                yield item

        return span

    def _counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def count(*args):
            counts[key] += 1
            return fn(*args)

        return count

    def _phi_report(self, result) -> None:
        report = result[1]
        self.counts["containers.phi.retries"] += report.retries
        self.counts["containers.phi.degenerate"] += report.degenerate

    # -- installation -----------------------------------------------------------

    def _patch(self, holder, attr: str, new) -> None:
        self._undo.append((holder, attr, getattr(holder, attr) if not isinstance(holder, dict)
                           else holder[attr]))
        if isinstance(holder, dict):
            holder[attr] = new
        else:
            setattr(holder, attr, new)

    def _bind_everywhere(self, original, wrapped) -> None:
        """Replace `original` in every module global and module-level dict."""
        for mod in self.cc.modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patch(value, k, wrapped)

    def install(self) -> None:
        for entries, make in ((SPANS, None), (COUNTERS, self._counter)):
            for name, module, path in entries:
                holder, attr = _resolve(getattr(self.cc, module), path)
                original = vars(holder)[attr] if isinstance(holder, type) else getattr(holder, attr)
                if isinstance(original, property):
                    self._patch(holder, attr, property(self._timed(name, original.fget)))
                    continue
                if make is not None:
                    wrapped = make(name, original)
                elif inspect.isgeneratorfunction(original):
                    wrapped = self._timed_generator(name, original)
                else:
                    wrapped = self._timed(name, original)
                if isinstance(holder, type):
                    self._patch(holder, attr, wrapped)
                else:
                    self._bind_everywhere(original, wrapped)
        self._check_no_unwrapped_bindings()

    def _check_no_unwrapped_bindings(self) -> None:
        originals = {id(orig) for _, _, orig in self._undo}
        for mod in self.cc.modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(f"{mod.__name__}.{key} still bound to an untraced function")

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)

    # -- metrics ----------------------------------------------------------------

    def job_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the job run since the last reset."""
        out: dict[str, float] = {}
        for metric in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = self.self_s[base]
            elif kind == "s":
                out[metric] = self.incl[base]
            elif kind == "calls" and base in self.calls:
                out[metric] = self.calls[base]
            else:
                out[metric] = self.counts[metric]
        attempts = self.counts["containers.phi.retries"]
        sampled = self.calls["containers.phi_approx_sample"] - self.counts["containers.phi.degenerate"]
        out["containers.phi.accept_ratio"] = sampled / attempts if attempts else 0.0
        return out
