"""Span tracer for the benchmark's traced run.

The library has no tracing of its own, so this module wraps the public
functions and methods of each layer from the outside, and only while a
``Tracer`` is installed.  A wrapped function is replaced in every
``limsupdim`` module namespace that binds it (``mc`` imports
``partial_sums``, ``log_phi_rows`` and ``cover_rectangle`` by name, ``cli``
imports the mc and spaces entry points by name), and methods are replaced on
their classes.  Untraced runs never import this module's wrappers, so
tracing costs nothing when it is off.

Each call records a span (name, start, end, parent); counters record the
work done at the same boundary.  A span's self time is its duration minus
the time covered by its child spans.  Per-layer metrics sum self time and
counters over the spans of one round.  Peak memory (``*.peak_mb``) is taken
with tracemalloc in a separate round, because tracemalloc slows every
allocation (``math.fsum`` over an array allocates one float per term) and
would distort the self times.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import numpy as np

from limsupdim import cli, manifests, mc, rng, spaces, svf

_MB = 1024.0 * 1024.0


def _rows(result) -> int:
    return int(np.shape(result)[0])


def _count_words(c, args, kwargs, result):
    c["rng.words"] += int(np.size(result))


def _count_log_radii(c, args, kwargs, result):
    c["svf.log_radii.rows"] += _rows(result)


def _count_log_phi_rows(c, args, kwargs, result):
    c["svf.log_phi_rows.rows"] += _rows(result)


def _count_partial_sum(c, args, kwargs, result):
    c["svf.partial_sums.calls"] += 1
    c["svf.partial_sums.terms"] += int(args[3])


def _count_partial_sums(c, args, kwargs, result):
    c["svf.partial_sums.calls"] += 1
    c["svf.partial_sums.terms"] += max((int(n) for n in args[3]), default=0)


def _count_calls(metric):
    def count(c, args, kwargs, result):
        c[metric] += 1
    return count


def _count_net(c, args, kwargs, result):
    c["spaces.net.points"] += len(result[0])


def _count_sparse(c, args, kwargs, result):
    c["spaces.sparse.points"] += len(result)


def _count_cover(c, args, kwargs, result):
    c["spaces.cover.centres"] += result.count
    c["spaces.cover.count_over_bound"] = max(
        c["spaces.cover.count_over_bound"], result.count / result.bound)


def _count_fiber(c, args, kwargs, result):
    c["mc.fiber_hit_sum.terms"] += result.checkpoints[-1]
    c["mc.fiber_hit_sum.hits"] += result.hit_count


def _count_density(c, args, kwargs, result):
    c["mc.density_check.samples"] += sum(result.horizons)


def _count_divergence(c, args, kwargs, result):
    c["mc.divergence.draws"] += result.trials * len(args[0])


def _count_tail_cover(c, args, kwargs, result):
    c["mc.tail_cover_sum.rects"] += result.window[1] - result.window[0] + 1


def _count_csv(c, args, kwargs, result):
    c["manifests.csv_body.bytes"] += len(result.encode("utf-8"))


# (owner, attribute, layer metric prefix, counter, track tracemalloc peak)
_TARGETS = [
    (rng, "words", "rng", _count_words, False),
    (rng, "uniform01", "rng", None, False),
    (rng, "bits", "rng", None, False),
    (svf.PowerLawSchedule, "log_radii", "svf.log_radii", _count_log_radii, False),
    (svf.ExplicitSchedule, "log_radii", "svf.log_radii", _count_log_radii, False),
    (svf, "log_phi_rows", "svf.log_phi_rows", _count_log_phi_rows, False),
    (svf, "partial_sum", "svf.partial_sums", _count_partial_sum, True),
    (svf, "partial_sums", "svf.partial_sums", _count_partial_sums, True),
    (svf, "critical_exponent_series", "svf.critical_exponent",
     _count_calls("svf.critical_exponent.calls"), False),
    (svf, "closed_form_dimension", "svf.critical_exponent",
     _count_calls("svf.critical_exponent.calls"), False),
    (spaces.Interval, "ball_measure", "spaces.ball_measure",
     _count_calls("spaces.ball_measure.calls"), False),
    (spaces.Circle, "ball_measure", "spaces.ball_measure",
     _count_calls("spaces.ball_measure.calls"), False),
    (spaces.Cantor, "ball_measure", "spaces.ball_measure",
     _count_calls("spaces.ball_measure.calls"), False),
    (spaces.Interval, "net", "spaces.net", _count_net, False),
    (spaces.Circle, "net", "spaces.net", _count_net, False),
    (spaces.Cantor, "net", "spaces.net", _count_net, False),
    (spaces, "max_sparse_subset", "spaces.sparse", _count_sparse, False),
    (spaces, "cover_ball", "spaces.cover", _count_cover, False),
    (spaces, "cover_rectangle", "spaces.cover", _count_cover, False),
    (spaces, "verify_cover", "spaces.verify_cover",
     _count_calls("spaces.verify_cover.calls"), False),
    (mc, "fiber_hit_sum", "mc.fiber_hit_sum", _count_fiber, False),
    (mc, "density_check", "mc.density_check", _count_density, False),
    (mc, "divergence_tail_bound_test", "mc.divergence", _count_divergence, True),
    (mc, "tail_cover_sum", "mc.tail_cover_sum", _count_tail_cover, False),
    (mc, "dimension_verdict", "mc.dimension_verdict", None, False),
    (cli, "run", "cli.run", None, False),
    (manifests, "csv_body", "manifests.csv_body", _count_csv, False),
]

# Every per-layer metric the traced run reports, with its unit.  cli.import.*
# come from ``python -X importtime`` in run.py, not from spans.
METRICS = {
    "rng.s": "s", "rng.words": "count",
    "svf.log_radii.s": "s", "svf.log_radii.rows": "count",
    "svf.log_phi_rows.s": "s", "svf.log_phi_rows.rows": "count",
    "svf.partial_sums.s": "s", "svf.partial_sums.calls": "count",
    "svf.partial_sums.terms": "count", "svf.partial_sums.peak_mb": "MB",
    "svf.critical_exponent.s": "s", "svf.critical_exponent.calls": "count",
    "spaces.ball_measure.s": "s", "spaces.ball_measure.calls": "count",
    "spaces.net.s": "s", "spaces.net.points": "count",
    "spaces.sparse.s": "s", "spaces.sparse.points": "count",
    "spaces.cover.s": "s", "spaces.cover.centres": "count",
    "spaces.cover.count_over_bound": "ratio",
    "spaces.verify_cover.s": "s", "spaces.verify_cover.calls": "count",
    "mc.fiber_hit_sum.s": "s", "mc.fiber_hit_sum.terms": "count",
    "mc.fiber_hit_sum.hit_frac": "ratio",
    "mc.density_check.s": "s", "mc.density_check.samples": "count",
    "mc.divergence.s": "s", "mc.divergence.draws": "count",
    "mc.divergence.peak_mb": "MB",
    "mc.tail_cover_sum.s": "s", "mc.tail_cover_sum.rects": "count",
    "mc.dimension_verdict.s": "s",
    "cli.run.s": "s",
    "manifests.csv_body.s": "s", "manifests.csv_body.bytes": "count",
    "cli.import.s": "s", "cli.import.deps_s": "s",
}


class Tracer:
    """Records spans and counters while installed; one round at a time."""

    def __init__(self):
        self.spans: list = []      # (layer, start, end, parent index)
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.peak_round = False
        self._saved: list = []

    def _wrap(self, fn, layer, counter, peak):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            measure = peak and tracer.peak_round
            if measure:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)
                if measure:
                    peak_mb = tracemalloc.get_traced_memory()[1] / _MB
                    tracemalloc.stop()
                    key = layer + ".peak_mb"
                    tracer.counters[key] = max(tracer.counters[key], peak_mb)
            if counter is not None:
                counter(tracer.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each target in its owner and in every limsupdim module
        namespace that binds the same object."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "limsupdim"
                                         or name.startswith("limsupdim."))]
        for owner, attr, layer, counter, peak in _TARGETS:
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, layer, counter, peak)
            homes = [owner] + [m for m in modules if m is not owner
                               and m.__dict__.get(attr) is original]
            for home in homes:
                self._saved.append((home, attr, original))
                setattr(home, attr, wrapped)
        self.reset()

    def uninstall(self) -> None:
        for home, attr, original in reversed(self._saved):
            setattr(home, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters = {name: 0 for name, unit in METRICS.items() if unit != "s"}
        self.counters["mc.fiber_hit_sum.hits"] = 0

    def round_metrics(self) -> dict[str, float]:
        """Self time per layer and the counters, for the spans recorded
        since the last reset."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name, unit in METRICS.items() if unit == "s"}
        for (layer, start, end, parent), inner in zip(self.spans, child):
            out[layer + ".s"] += (end - start) - inner
        out.update(self.counters)
        hits = out.pop("mc.fiber_hit_sum.hits")
        terms = out["mc.fiber_hit_sum.terms"]
        out["mc.fiber_hit_sum.hit_frac"] = hits / terms if terms else 0.0
        for name in ("cli.import.s", "cli.import.deps_s"):
            out.pop(name)
        return out
