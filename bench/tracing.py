"""Outside-in tracing of arisim's public functions for the benchmark's traced run.

`Tracer.install` wraps each function in TARGETS and rebinds every attribute
of an `arisim` module that refers to it, so calls made through the names the
callers imported (`arisim.cli.monte_carlo_rate`, `arisim.ga.compute_stats`)
are seen as well.  Spans (name, start, end, parent) are kept in memory; the
per-layer metrics are derived from them after the traced call.  A target
that no longer exists, or whose arguments an observer can no longer read,
makes the metrics that need it absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# (module, function, observer method or None); the observer sees the call's
# arguments and result after the span has closed.
TARGETS = (
    ("arisim.channel", "make_geometry", None),
    ("arisim.channel", "los_components", None),
    ("arisim.channel", "array_response", None),
    ("arisim.channel", "sample_channel_batch", "_on_draw"),
    ("arisim.channel", "crandn", "_on_crandn"),
    ("arisim.transceiver", "monte_carlo_rate", "_on_mc"),
    ("arisim.analytic", "compute_stats", "_on_stats"),
    ("arisim.analytic", "closed_form_rates", None),
    ("arisim.ga", "optimize_phases", "_on_ga"),
    ("arisim.budget", "resolve_budget", None),
    ("arisim.cli", "main", None),
    ("arisim.cli", "write_csv", "_on_csv"),
)

DRAW = "sample_channel_batch"
LOS = ("los_components", "array_response")

# Every per-layer metric: name, unit, better, the wrapped functions it needs,
# and the end-to-end metric and workload it should move.
METRICS = (
    ("channel.redraw_ratio", "ratio", "lower", (DRAW,),
     "wall_s on power_sweep; fading batches drawn per distinct (seed, stream, batch, M, N, K), base channel.draw_calls"),
    ("channel.crandn_s", "s", "lower", ("crandn",), "wall_s on power_sweep"),
    ("channel.crandn_mb", "MB", "lower", ("crandn",), "peak_rss_mb on size_sweep"),
    ("channel.los_calls", "count", "lower", LOS, "wall_s on ga_search"),
    ("channel.los_s", "s", "lower", LOS, "wall_s on ga_search"),
    ("channel.draw_calls", "count", "lower", (DRAW,), "informational"),
    ("channel.draw_self_s", "s", "lower", (DRAW, "crandn", "los_components"), "informational"),
    ("channel.geometry_s", "s", "lower", ("make_geometry",), "informational"),
    ("transceiver.mc_self_s", "s", "lower", ("monte_carlo_rate", DRAW),
     "wall_s on power_sweep and size_sweep (the SINR kernel)"),
    ("transceiver.mc_calls", "count", "lower", ("monte_carlo_rate",), "informational"),
    ("transceiver.trial_points", "count", "higher", ("monte_carlo_rate",), "informational"),
    ("transceiver.kernel_ns_per_trial_point", "ns", "lower", ("monte_carlo_rate", DRAW),
     "informational; base transceiver.trial_points"),
    ("analytic.stats_calls", "count", "lower", ("compute_stats",),
     "wall_s on ga_search; no change on the sweeps"),
    ("analytic.stats_self_s", "s", "lower", ("compute_stats",) + LOS,
     "wall_s on ga_search; no change on the sweeps"),
    ("analytic.rates_calls", "count", "lower", ("closed_form_rates",),
     "wall_s on ga_search; no change on the sweeps"),
    ("analytic.rates_s", "s", "lower", ("closed_form_rates",),
     "wall_s on ga_search; no change on the sweeps"),
    ("analytic.eval_us", "us", "lower", ("compute_stats", "closed_form_rates"),
     "wall_s on ga_search; no change on the sweeps; base analytic.rates_calls"),
    ("ga.self_s", "s", "lower", ("optimize_phases", "compute_stats", "closed_form_rates"),
     "wall_s on ga_search (selection, crossover, mutation)"),
    ("ga.dup_eval_ratio", "ratio", "lower", ("optimize_phases", "compute_stats"),
     "wall_s on ga_search; base ga.evals"),
    ("ga.generations", "count", "higher", ("optimize_phases",), "informational"),
    ("ga.evals", "count", "lower", ("optimize_phases", "compute_stats"),
     "informational; equals ga.generations x n_total"),
    ("budget.resolve_calls", "count", "lower", ("resolve_budget",), "guard: no change anywhere"),
    ("budget.resolve_s", "s", "lower", ("resolve_budget",), "guard: no change anywhere"),
    ("cli.points", "count", "higher", ("write_csv",), "guard: no change anywhere"),
    ("cli.self_s", "s", "lower", ("main", "write_csv"), "guard: no change anywhere"),
    ("cli.csv_bytes", "bytes", "lower", ("write_csv",), "guard: no change anywhere"),
    ("trace.spans", "count", "lower", (), "informational; tracing cost grows with it"),
    ("trace.untraced_wall_s", "s", "lower", (), "base of trace.overhead_ratio"),
    ("trace.overhead_s", "s", "lower", (), "traced wall_s minus untraced wall_s"),
    ("trace.overhead_ratio", "ratio", "lower", (), "trace.overhead_s / trace.untraced_wall_s"),
)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Tracer:
    """Spans and counters of one traced call; create one per call."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self._patches = []
        self.absent = set()      # wrapped functions missing, or unreadable by their observer
        self.draw_keys = []
        self.crandn_bytes = 0
        self.trial_points = 0
        self.generations = 0
        self.evals = 0
        self.dup_evals = 0
        self._scored = set()
        self.csv_rows = 0
        self.csv_bytes = 0

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "arisim" or n.startswith("arisim."))]
        for module, name, observer in TARGETS:
            fn = getattr(sys.modules.get(module), name, None)
            if not callable(fn):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, fn, observer)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is fn]:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _wrap(self, name, fn, observer):
        spans, stack = self.spans, self._stack
        observe = getattr(self, observer) if observer else None
        params = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None and name not in self.absent:
                def arg(key):
                    i = params.index(key)
                    return args[i] if i < len(args) else kwargs[key]
                try:
                    observe(arg, result)
                except Exception as exc:  # a refactor changed what the observer reads
                    self.absent.add(name)
                    print(f"trace: {name} observer failed ({exc!r}); its metrics are absent",
                          file=sys.stderr)
            return result

        return traced

    # -- observers --------------------------------------------------------

    def _on_draw(self, arg, result):
        seq = arg("rng").bit_generator.seed_seq
        cfg = arg("cfg")
        self.draw_keys.append((seq.entropy, tuple(seq.spawn_key), cfg.M, cfg.N, cfg.K))

    def _on_crandn(self, arg, result):
        self.crandn_bytes += result.nbytes

    def _on_mc(self, arg, result):
        self.trial_points += result.trials_used

    def _on_stats(self, arg, result):
        if any(self.spans[i][0] == "optimize_phases" for i in self._stack):
            key = arg("phases").theta.tobytes()
            self.evals += 1
            self.dup_evals += key in self._scored
            self._scored.add(key)

    def _on_ga(self, arg, result):
        self.generations += result[1].generations

    def _on_csv(self, arg, result):
        with open(arg("path"), "rb") as fh:
            data = fh.read()
        self.csv_bytes += len(data)
        self.csv_rows += max(data.count(b"\n") - 1, 0)

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced call; those needing an absent
        target are left out.  The trace.* overhead metrics are the caller's."""
        names = [s[0] for s in self.spans]
        own = self_times(self.spans)
        # a span nested in a span of the same set is already counted by that one
        def inclusive(group):
            nested = [False] * len(names)
            total = 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                nested[i] = parent >= 0 and (nested[parent] or names[parent] in group)
                if name in group and not nested[i]:
                    total += end - start
            return total

        def calls(*group):
            return sum(n in group for n in names)

        def self_s(*group):
            return sum(t for n, t in zip(names, own) if n in group)

        mc_self = self_s("monte_carlo_rate")
        rates_calls = calls("closed_form_rates")
        values = {
            "channel.redraw_ratio": len(self.draw_keys) / max(len(set(self.draw_keys)), 1),
            "channel.crandn_s": inclusive({"crandn"}),
            "channel.crandn_mb": self.crandn_bytes / 1e6,
            "channel.los_calls": calls(*LOS),
            "channel.los_s": inclusive(set(LOS)),
            "channel.draw_calls": calls(DRAW),
            "channel.draw_self_s": self_s(DRAW),
            "channel.geometry_s": inclusive({"make_geometry"}),
            "transceiver.mc_self_s": mc_self,
            "transceiver.mc_calls": calls("monte_carlo_rate"),
            "transceiver.trial_points": self.trial_points,
            "transceiver.kernel_ns_per_trial_point": mc_self / max(self.trial_points, 1) * 1e9,
            "analytic.stats_calls": calls("compute_stats"),
            "analytic.stats_self_s": self_s("compute_stats"),
            "analytic.rates_calls": rates_calls,
            "analytic.rates_s": inclusive({"closed_form_rates"}),
            "analytic.eval_us": inclusive({"compute_stats", "closed_form_rates"})
            / rates_calls * 1e6 if rates_calls else 0.0,
            "ga.self_s": self_s("optimize_phases"),
            "ga.dup_eval_ratio": self.dup_evals / max(self.evals, 1),
            "ga.generations": self.generations,
            "ga.evals": self.evals,
            "budget.resolve_calls": calls("resolve_budget"),
            "budget.resolve_s": inclusive({"resolve_budget"}),
            "cli.points": self.csv_rows,
            "cli.self_s": self_s("main", "write_csv"),
            "cli.csv_bytes": self.csv_bytes,
            "trace.spans": len(self.spans),
        }
        needs = {name: set(deps) for name, _, _, deps, _ in METRICS}
        return {k: v for k, v in values.items() if not needs[k] & self.absent}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")
