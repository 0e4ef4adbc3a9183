"""Span tracing and work counters around ctfm_lab's public functions.

The tracer patches the functions named in ``TRACED`` inside the benchmark
process only: every module or class attribute that is bound to the original
function object (the defining module, the package namespace, and names that
``cli`` imports directly) is replaced by a wrapper that records one span per
call.  Nothing in ``src/`` changes.

A span is ``(span_id, parent_id, op_id, name, start, end, error)``.  Spans
stay in memory and are written out once, at the end of the run.  Work
counters are derived from each call's arguments and result, but only after
the op has finished, so computing them adds nothing to the traced op time.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

import ctfm_lab
from ctfm_lab import cli, config, demod, phase_analysis, scene, spectrum, waveform

# Where the public function is defined, as (owner, attribute, span name).
TRACED = (
    (config, "parse_config", "config.parse_config"),
    (config, "load_config", "config.load_config"),
    (waveform, "synthesize_transmit", "waveform.synthesize_transmit"),
    (waveform, "synthesize_lo", "waveform.synthesize_lo"),
    (waveform, "time_slice", "waveform.time_slice"),
    (scene, "synthesize_received", "scene.synthesize_received"),
    (demod, "demodulate", "demod.demodulate"),
    (demod, "ctfm_demodulate", "demod.ctfm_demodulate"),
    (spectrum, "dft_magnitude", "spectrum.dft_magnitude"),
    (spectrum, "find_peak", "spectrum.find_peak"),
    (spectrum, "sidelobe_report", "spectrum.sidelobe_report"),
    (spectrum.Spectrum, "to_csv", "spectrum.Spectrum.to_csv"),
    (phase_analysis, "phase_table", "phase_analysis.phase_table"),
    (phase_analysis.PhaseReport, "to_table", "phase_analysis.PhaseReport.to_table"),
    (cli, "run_compare", "cli.run_compare"),
)

# Namespaces that may hold a second binding of a traced function.
_ALIAS_OWNERS = (ctfm_lab, cli, config, waveform, scene, demod, spectrum, phase_analysis)

SYNTHESIS = (
    "waveform.synthesize_transmit",
    "waveform.synthesize_lo",
    "scene.synthesize_received",
)

COUNT_METRICS = (
    ("waveform.samples_synthesized", "count", "lower"),
    ("waveform.synthesis_passes", "count", "lower"),
    ("scene.echo_samples", "count", "lower"),
    ("demod.fir_macs", "count", "lower"),
    ("spectrum.fft_points", "count", "lower"),
    ("spectrum.inband_bin_ratio", "ratio", "higher"),
    ("spectrum.sidelobe_scan_ratio", "ratio", "higher"),
    ("cli.files_written", "count", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.unique_content_ratio", "ratio", "higher"),
)

TRACE_METRICS = (
    ("trace.op_latency_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Slack when checking that an op's self times add up to its duration.
SELF_SUM_TOL_S = 1e-6


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    metrics = []
    for _, _, name in TRACED:
        metrics += [
            (f"{name}.busy_s", "s", "lower"),
            (f"{name}.calls", "count", "lower"),
            (f"{name}.errors", "count", "lower"),
        ]
        if name == "cli.run_compare":
            metrics.append((f"{name}.self_s", "s", "lower"))
    return metrics + list(COUNT_METRICS) + list(TRACE_METRICS)


def _count_synthesized(counts, args, result):
    counts["waveform.samples_synthesized"] += len(result)


def _count_received(counts, args, result):
    n = len(result)
    counts["waveform.samples_synthesized"] += n
    fs = args["sample_rate"]
    for echo in args["scene"].echoes:
        counts["scene.echo_samples"] += max(0, n - math.ceil(echo.delay * fs))


def _count_demodulate(counts, args, result):
    taps = args["lowpass"].tap_count
    counts["demod.fir_macs"] += (len(result.channel1) + len(result.channel2)) * taps


def _count_ctfm(counts, args, result):
    counts["demod.fir_macs"] += len(result) * args["lowpass"].tap_count


def _count_dft(counts, args, result):
    counts["spectrum.fft_points"] += args["zero_pad_factor"] * len(args["signal"])
    counts["spectrum.bins_computed"] += result.magnitudes.size


def _count_peak(counts, args, result):
    freqs = args["spec"].bin_frequencies
    low, high = args["band"]
    counts["spectrum.inband_bins"] += int(np.count_nonzero((freqs >= low) & (freqs <= high)))


def _count_sidelobes(counts, args, result):
    # sidelobe_report visits every interior bin of the spectrum it is given.
    interior = args["spec"].bin_frequencies[1:-1]
    center = args["peak"].frequency
    span = args["search_span"]
    counts["spectrum.span_bins"] += int(np.count_nonzero(np.abs(interior - center) <= span))
    counts["spectrum.scanned_bins"] += interior.size


_COUNTERS = {
    "waveform.synthesize_transmit": _count_synthesized,
    "waveform.synthesize_lo": _count_synthesized,
    "scene.synthesize_received": _count_received,
    "demod.demodulate": _count_demodulate,
    "demod.ctfm_demodulate": _count_ctfm,
    "spectrum.dft_magnitude": _count_dft,
    "spectrum.find_peak": _count_peak,
    "spectrum.sidelobe_report": _count_sidelobes,
}


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.ops = 0
        self._op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._calls: list[tuple] = []  # (name, args, kwargs, result) of the open op
        self._patched: list[tuple] = []
        self._signatures: dict[str, inspect.Signature] = {}

    def install(self) -> None:
        for owner, attr, name in TRACED:
            original = getattr(owner, attr)
            self._signatures[name] = inspect.signature(original)
            wrapper = self._wrap(name, original)
            owners = [owner] + [
                alias
                for alias in _ALIAS_OWNERS
                if alias is not owner and getattr(alias, attr, None) is original
            ]
            for target in owners:
                self._patched.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, tracer._op, name, start, end, error))
            tracer._calls.append((name, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one op; returns its span id."""
        self._op = op_id
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def end_op(self, span_id: int, start: float, end: float, failed: bool) -> None:
        """Close the root span with the op's own timer readings."""
        self._stack.pop()
        self.spans.append((span_id, None, self._op, "op", start, end, failed))
        self.ops += 1
        for name, args, kwargs, result in self._calls:
            counter = _COUNTERS.get(name)
            if counter is not None:
                bound = self._signatures[name].bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
        self._calls.clear()
        self._op = None

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child_time = defaultdict(float)
        for span_id, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return {s[0]: (s[5] - s[4]) - child_time[s[0]] for s in self.spans}

    def summary(self, untraced_latency: float) -> tuple[dict[str, float], list[str]]:
        """Per-op layer metrics plus any problems with the span tree itself."""
        ops = max(self.ops, 1)
        self_time = self.self_times()
        busy = defaultdict(float)
        calls = Counter()
        errors = Counter()
        self_by_name = defaultdict(float)
        op_duration = {}
        op_self_sum = defaultdict(float)
        synth_calls = defaultdict(Counter)
        for span_id, parent, op, name, start, end, error in self.spans:
            busy[name] += end - start
            calls[name] += 1
            errors[name] += error
            self_by_name[name] += self_time[span_id]
            op_self_sum[op] += self_time[span_id]
            if parent is None:
                op_duration[op] = end - start
            if name in SYNTHESIS:
                synth_calls[op][name] += 1

        problems = []
        for op, duration in op_duration.items():
            if abs(op_self_sum[op] - duration) > SELF_SUM_TOL_S:
                problems.append(
                    f"op {op}: self times sum to {op_self_sum[op]!r} s, "
                    f"op took {duration!r} s"
                )

        values = {}
        for _, _, name in TRACED:
            values[f"{name}.busy_s"] = busy[name] / ops
            values[f"{name}.calls"] = calls[name] / ops
            values[f"{name}.errors"] = errors[name] / ops
        values["cli.run_compare.self_s"] = self_by_name["cli.run_compare"] / ops

        c = self.counts
        values["waveform.samples_synthesized"] = c["waveform.samples_synthesized"] / ops
        values["waveform.synthesis_passes"] = (
            sum(max(per_op.values()) for per_op in synth_calls.values()) / ops
        )
        values["scene.echo_samples"] = c["scene.echo_samples"] / ops
        values["demod.fir_macs"] = c["demod.fir_macs"] / ops
        values["spectrum.fft_points"] = c["spectrum.fft_points"] / ops
        values["spectrum.inband_bin_ratio"] = _ratio(
            c["spectrum.inband_bins"], c["spectrum.bins_computed"]
        )
        values["spectrum.sidelobe_scan_ratio"] = _ratio(
            c["spectrum.span_bins"], c["spectrum.scanned_bins"]
        )
        values["cli.files_written"] = c["cli.files_written"] / ops
        values["cli.bytes_written"] = c["cli.bytes_written"] / ops
        values["cli.unique_content_ratio"] = _ratio(
            c["cli.unique_files"], c["cli.files_written"]
        )
        traced_latency = statistics.median(op_duration.values())
        values["trace.op_latency_s"] = traced_latency
        values["trace.unattributed_s"] = self_by_name["op"] / ops
        values["trace.overhead_s"] = traced_latency - untraced_latency
        return values, problems

    def write(self, path, metadata: dict) -> None:
        """Write the run metadata and every span as JSON lines."""
        epoch = min((s[4] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"metadata": metadata}) + "\n")
            for span_id, parent, op, name, start, end, error in self.spans:
                record = {
                    "span": span_id,
                    "parent": parent,
                    "op": op,
                    "name": name,
                    "start_s": start - epoch,
                    "end_s": end - epoch,
                    "error": error,
                }
                fh.write(json.dumps(record) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
