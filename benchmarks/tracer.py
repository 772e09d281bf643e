"""In-memory span tracer for the traced benchmark pass.

``Tracer.install`` replaces, from outside the package, every module
binding of the public functions of the layers ``special_fn``, ``dist``,
``frac_ops``, ``sample``, ``verify`` and ``cli`` with a wrapper that
records a span (name, start, end, parent, request id).  ``dist`` and
``verify`` import ``special_fn`` names directly, so every binding of a
wrapped function is replaced, not only the one in its own module.  It
also wraps ``mpmath.gamma``/``rgamma``/``workdps`` to count, inside
``special_fn`` calls, gamma evaluations, the largest precision used, and
escalations: ``workdps`` entries beyond the first within one outermost
``special_fn`` call.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import time

import mpmath

LAYERS = ("special_fn", "dist", "frac_ops", "sample", "verify", "cli")
PROCESSES = ("space", "time", "space-time", "composed")

# metric name -> traced functions whose self time it sums
SELF_TIMES = {
    "special_fn.ml.self_s": ("special_fn.mittag_leffler",),
    "special_fn.rows.self_s": ("special_fn.wright_psi11_weighted_rows",
                               "special_fn.wright_psi11_kernel"),
    "dist.pmf_row.self_s": ("dist.pmf_row",),
    "dist.pgf.self_s": ("dist.pgf",),
    "dist.passage.self_s": ("dist.first_passage_cdf",
                            "dist.first_passage_density"),
    "verify.gof.self_s": ("verify.gof_pmf", "verify.gof_two_sample"),
    "verify.min_uniform.self_s": ("verify.check_min_uniform_space",
                                  "verify.check_min_uniform_space_time"),
    "verify.ode.self_s": ("verify.check_ode_residual",),
    "verify.fixture.self_s": ("verify.check_fixture", "verify.load_fixture"),
}
COUNTS = ("special_fn.terms", "special_fn.gamma_calls", "special_fn.dps_max",
          "special_fn.escalations", "dist.clamped_rows",
          "verify.second_stage")


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, request, info]
        self.request = None
        self.counts = collections.Counter()
        self._stack = []
        self._series = None      # index of the open outermost special_fn span
        self._series_dps_entries = 0
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"fracpois.{name}")
                   for name in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod in (importlib.import_module("fracpois"), *modules):
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, name, wrapped[value])
        for name in ("gamma", "rgamma"):
            self._patch(mpmath, name, self._count_gamma(getattr(mpmath, name)))
        self._patch(mpmath, "workdps", self._count_workdps(mpmath.workdps))

    def uninstall(self):
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)

    def _patch(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        two_stage = name == "verify.two_stage"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if two_stage:
                args = (self._count_reruns(args[0]), *args[1:])
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self, self.spans[idx], args, kwargs, result)
            return result

        return traced

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.request, None])
        self._stack.append(idx)
        if self._series is None and name.startswith("special_fn."):
            self._series = idx
            self._series_dps_entries = 0
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        if self._series == idx:
            self.counts["special_fn.escalations"] += max(
                0, self._series_dps_entries - 1)
            self._series = None

    def _count_reruns(self, run):
        def counted(n, attempt):
            if attempt:
                self.counts["verify.second_stage"] += 1
            return run(n, attempt)
        return counted

    def _count_gamma(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._series is not None:
                self.counts["special_fn.gamma_calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def _count_workdps(self, fn):
        @functools.wraps(fn)
        def counted(n, *args, **kwargs):
            if self._series is not None:
                self._series_dps_entries += 1
                self.counts["special_fn.dps_max"] = max(
                    self.counts["special_fn.dps_max"], int(n))
            return fn(n, *args, **kwargs)
        return counted

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, formats, output_bytes):
        """Per-layer metrics of the traced pass.

        ``formats`` maps request id to the CLI output format and
        ``output_bytes`` is the size of everything the requests wrote.
        A rate over a layer the workload never calls reports 0.
        """
        own = self.self_times()
        by_name = collections.defaultdict(float)
        cli = {"csv": 0.0, "json": 0.0}
        frac_ops_s, frac_ops_calls = 0.0, 0
        for (name, *_, request, _info), s in zip(self.spans, own):
            by_name[name] += s
            if name.startswith("cli."):
                cli[formats[request]] += s
            elif name.startswith("frac_ops."):
                frac_ops_s += s
                frac_ops_calls += 1
        m = {metric: sum(by_name[n] for n in names)
             for metric, names in SELF_TIMES.items()}
        m.update({name: self.counts[name] for name in COUNTS})
        rows = pmf_row_s = 0.0
        draws = {p: [0, 0.0] for p in PROCESSES}
        redraws = 0
        for name, start, end, *_, info in self.spans:
            if name == "dist.pmf_row":
                rows += info["rows"]
                pmf_row_s += end - start
            elif name == "sample.sample_batch":
                draws[info["process"]][0] += info["n"]
                draws[info["process"]][1] += end - start
                redraws += info["redraws"]
        m["dist.rows_per_s"] = rows / pmf_row_s if pmf_row_s else 0.0
        m["frac_ops.self_s"] = frac_ops_s
        m["frac_ops.calls"] = frac_ops_calls
        for process, (n, seconds) in draws.items():
            m[f"sample.{process}.draws_per_s"] = n / seconds if seconds else 0.0
        total_draws = sum(n for n, _ in draws.values())
        m["sample.redraw_ratio"] = redraws / total_draws if total_draws else 0.0
        m["cli.csv.self_s"] = cli["csv"]
        m["cli.json.self_s"] = cli["json"]
        m["cli.bytes"] = output_bytes
        return m


def _observe_series(tracer, span, args, kwargs, result):
    first = result[0] if isinstance(result, list) else result
    tracer.counts["special_fn.terms"] += first.terms_used


def _observe_pmf_row(tracer, span, args, kwargs, result):
    span[5] = {"rows": len(result)}
    tracer.counts["dist.clamped_rows"] += sum(
        not 0.0 <= row.p <= 1.0 for row in result)


def _observe_sample_batch(tracer, span, args, kwargs, result):
    process = kwargs["process"] if "process" in kwargs else args[0]
    span[5] = {"process": process, "n": result.n, "redraws": result.redraws}


_OBSERVERS = {
    "special_fn.mittag_leffler": _observe_series,
    "special_fn.wright_psi11_kernel": _observe_series,
    "special_fn.wright_psi11_weighted_rows": _observe_series,
    "dist.pmf_row": _observe_pmf_row,
    "sample.sample_batch": _observe_sample_batch,
}
