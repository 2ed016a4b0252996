"""In-memory span recorder for the traced benchmark run.

The tracer wraps qagg's public functions from the outside, in the
modules that define them and in every namespace where callers look them
up (``qagg.bench``, ``qagg.cli``, ``qagg.aggregate``, ...), plus the
``SpectralFamily.spectral_coords`` method.  Nothing under ``src/`` is
changed: the original attributes are restored when the tracer's ``with``
block ends.

Each span records (name, start, end, parent span, iteration, config
label, replicate id).  Spans stay in memory until the run ends and are
then written to a gzip-compressed CSV file.  A span's self time is its duration minus
the time its direct children cover; calls are single-threaded and
properly nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
import time

# (owner path, attribute).  An owner path is the module that defines the
# function, or "module:Class" for a method.  The span name is the layer
# (the module's last component) and the attribute.  A function is wrapped
# in its own module and under every name a qagg module binds it to, so a
# call is traced whichever namespace the caller looks it up in.  A hook
# whose owner lacks the attribute is listed in ``Tracer.missing``; the
# traced run counts each one as a failed check.
HOOKS = (
    ("qagg.spectral", "build_tikhonov_family"),
    ("qagg.spectral:SpectralFamily", "spectral_coords"),
    ("qagg.spectral", "apply_member"),
    ("qagg.spectral", "apply_weights"),
    ("qagg.spectral", "recover_coefficients"),
    ("qagg.aggregate", "solve_q_aggregation"),
    ("qagg.aggregate", "member_fits"),
    ("qagg.aggregate", "make_weights"),
    ("qagg.aggregate", "cp_values"),
    ("qagg.aggregate", "select_cp"),
    ("qagg.aggregate", "select_gcv"),
    ("qagg.aggregate", "exponential_weights"),
    ("qagg.smoother", "member_risks"),
    ("qagg.smoother", "oracle_index"),
    ("qagg.smoother", "check_ordered"),
    ("qagg.bench", "build_instance"),
    ("qagg.bench", "run_experiment"),
    ("qagg.bench", "regret_vs_M_sweep"),
    ("qagg.bench", "regret_vs_q_sweep"),
    ("qagg.bench", "write_report_json"),
    ("qagg.bench", "write_reports_csv"),
    ("qagg.cli", "main"),
)

# Every replicate of the Monte Carlo loop draws its noise through this
# helper with its global replicate index; the tracer reads the index from
# it to tag spans.
REPLICATE_MARKER = ("qagg.bench", "_replicate_rng")


def span_name(path: str, attr: str) -> str:
    return f"{path.partition(':')[0].rsplit('.', 1)[-1]}.{attr}"


NAME, START, END, PARENT, GROUP, LABEL, REPLICATE = range(7)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls, None) if cls else owner


def _bindings(owner, attr: str, original) -> list:
    """``owner`` itself, then every loaded qagg module that binds ``original`` to a name."""
    found = [(owner, attr)]
    if isinstance(owner, type):
        return found
    for name, module in list(sys.modules.items()):
        if module is owner or not (name == "qagg" or name.startswith("qagg.")):
            continue
        found += [(module, key) for key, value in vars(module).items() if value is original]
    return found


class Tracer:
    """Records spans around qagg's public functions while installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.solves: list[tuple] = []  # (group, label, pivots, support, kkt, converged)
        self.replicates: dict[str, int] = {}  # config label -> replicates per run
        self.missing: list[str] = []
        self.group = None
        self.label = None
        self.replicate = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        for path, attr in HOOKS:
            self._wrap(path, attr, span_name(path, attr))
        path, attr = REPLICATE_MARKER
        self._wrap(path, attr, None)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, path: str, attr: str, name: str | None) -> None:
        owner = _resolve(path)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{path}.{attr}")
            return
        if name is None:
            wrapper = self._marker(original)
        else:
            wrapper = self._span_wrapper(original, name)
        for target, key in _bindings(owner, attr, original):
            setattr(target, key, wrapper)
            self._patches.append((target, key, original))

    def _marker(self, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.replicate = int(args[1]) if len(args) > 1 else kwargs.get("index")
            return original(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, original, name: str):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        is_experiment = name == "bench.run_experiment"
        is_solve = name == "aggregate.solve_q_aggregation"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer_label = tracer.label
            if is_experiment:
                config = args[0] if args else kwargs["config"]
                tracer.label = config.label
                tracer.replicates[config.label] = config.replicates
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.group, tracer.label, tracer.replicate]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if is_experiment:
                    tracer.label = outer_label
                    tracer.replicate = None
            if is_solve:
                theta = result.weights.theta
                tracer.solves.append((
                    tracer.group, tracer.label, int(result.iterations),
                    int((theta > 0).sum()), float(result.kkt_residual),
                    bool(result.converged),
                ))
            return result

        return wrapper

    # -- output -------------------------------------------------------

    def write_csv(self, path) -> None:
        """Write every span as one gzip-compressed CSV row."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,workload,iteration,label,replicate\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{self.workload},"
                    f"{s[GROUP]},{s[LABEL] or ''},{'' if s[REPLICATE] is None else s[REPLICATE]}\n"
                )


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def summarize(tracer: Tracer, iterations: int) -> dict:
    """Per-layer numbers from the spans of ``iterations`` traced calls.

    Times are per iteration (one traced workload call), as the median
    over iterations.  Counts are exact and repeat for a fixed seed.
    """
    groups = range(iterations)
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]

    incl: dict[tuple, float] = {}
    own: dict[tuple, float] = {}
    calls: dict[tuple, int] = {}
    label_calls: dict[tuple, int] = {}
    solve_us: list[float] = []
    for i, s in enumerate(spans):
        g, name = s[GROUP], s[NAME]
        dur = s[END] - s[START]
        incl[g, name] = incl.get((g, name), 0.0) + dur
        own[g, name] = own.get((g, name), 0.0) + dur - child[i]
        calls[g, name] = calls.get((g, name), 0) + 1
        if s[LABEL] in tracer.replicates:
            label_calls[g, s[LABEL], name] = label_calls.get((g, s[LABEL], name), 0) + 1
        if name == "aggregate.solve_q_aggregation":
            solve_us.append(dur * 1e6)

    names = sorted({span_name(path, attr) for path, attr in HOOKS})
    labels = sorted(tracer.replicates)

    def per_replicate(name, label):
        return _median([label_calls.get((g, label, name), 0) / tracer.replicates[label]
                        for g in groups])

    metrics = {}
    for name in names:
        metrics[f"{name}.s"] = _median([incl.get((g, name), 0.0) for g in groups])
        metrics[f"{name}.self_s"] = _median([own.get((g, name), 0.0) for g in groups])
        metrics[f"{name}.calls"] = _median([calls.get((g, name), 0) for g in groups])
        metrics[f"{name}.calls_per_replicate"] = (
            sum(per_replicate(name, lb) for lb in labels) / len(labels) if labels else 0.0)

    def solver_stats(rows):
        pivots = [r[2] for r in rows]
        return {
            "solves": len(rows),
            "pivots_per_solve.mean": sum(pivots) / len(pivots) if rows else 0.0,
            "pivots_per_solve.max": max(pivots) if rows else 0,
            "support_size.max": max(r[3] for r in rows) if rows else 0,
            "kkt_residual.min": min(r[4] for r in rows) if rows else 0.0,
            "converged.ratio": sum(r[5] for r in rows) / len(rows) if rows else 0.0,
        }

    # solver counters are per solve and identical in every iteration
    first_solves = [r for r in tracer.solves if r[0] == 0]
    metrics.update({f"aggregate.{k}": v for k, v in solver_stats(first_solves).items()})
    metrics["aggregate.solve_q_aggregation.p50_us"] = _percentile(solve_us, 50)
    metrics["aggregate.solve_q_aggregation.p99_us"] = _percentile(solve_us, 99)

    per_config = {}
    for label in labels:
        counters = {f"{name}.calls_per_replicate": per_replicate(name, label) for name in names}
        mine = [r for r in first_solves if r[1] == label]
        counters.update({f"aggregate.{k}": v for k, v in solver_stats(mine).items()})
        per_config[label] = counters

    return {
        "metrics": metrics,
        "per_config": per_config,
        "iterations": iterations,
        "solve_samples": len(solve_us),
        "missing_hooks": list(tracer.missing),
    }
