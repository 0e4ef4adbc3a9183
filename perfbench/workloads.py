"""The benchmark's three workloads: seeded inputs, one op each, output checks.

Every workload drives ``ctfm_lab`` through its public functions, looked up
on the module at call time so that the tracer's wrappers see each call.
The seeded generators hand the package nothing but config text, which goes
through ``parse_config`` like a user's file would.

Each op's output is checked against closed forms with tolerances that were
fixed before the benchmark was tuned; a failed check counts the op as
failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
from pathlib import Path

import numpy as np

from ctfm_lab import cli, config, demod, phase_analysis, scene, spectrum, waveform

# Output-check tolerances, fixed before any tuning.
COMB_TOL_HZ = 0.05  # peak to its nearest sweep-comb line n/T
IDEAL_PEAK_TOL_HZ = 0.01  # ideal mode's peak to rate * delay
WIDTH_REL_TOL = 0.05  # -3 dB width to 0.886 / window length
RECT_WIDTH_3DB = 0.886  # -3 dB mainlobe width of a rectangular window, in bins
LEDGER_TOL_RAD = 1e-9  # ledger jump to the closed form
TONE_REL_TOL = 0.01  # fitted echo beat amplitude to 0.5 * A * |H(f_b)|

# Readout settings the package's own reports use (cli.SIDELOBE_FLOOR_DB and
# cli.WIDTH_PAD_FACTOR); the sidelobe search spans three comb lines.
SIDELOBE_FLOOR_DB = -12.0
WIDTH_PAD_FACTOR = 64

# The sweep, oscillator, receiver and analysis settings of configs/paper.cfg;
# the generators vary only the echoes, tx.phase0 and the cycle count.
PERIOD_S = 0.3
BANDWIDTH_HZ = 100.0
_FIXED_KEYS = (
    "tx.f_start = 100\n"
    "tx.f_end = 200\n"
    "tx.duration = 0.3\n"
    "lo.f_end = 240\n"
    "lo.duration = 0.12\n"
)
_ANALYSIS_KEYS = (
    "sample_rate = 4000\n"
    "lowpass.cutoff = 50\n"
    "lowpass.taps = 257\n"
    "spectrum.zero_pad_factor = 4\n"
    "spectrum.band_low = 10\n"
    "spectrum.band_high = 50\n"
    "sound_speed = 1500\n"
)

CSV_HEADERS = {
    "time_s,value": (
        "transmit.csv",
        "local_oscillator.csv",
        "received.csv",
        "channel1.csv",
        "channel2.csv",
        "output.csv",
    ),
    "freq_hz,magnitude": ("spectrum.csv",),
    "label,instant_s,unwrapped_pi,wrapped_pi": ("phase_table.csv",),
    "time_s,freq_hz": ("freq_track_tx.csv", "freq_track_lo.csv", "freq_track_echo.csv"),
    "mode,peak_freq_hz,mainlobe_width_3db_hz,strongest_sidelobe_db": ("compare.csv",),
}
_HEADER_BY_FILE = {name: header for header, names in CSV_HEADERS.items() for name in names}


def _compare_layout() -> frozenset[str]:
    """The 31 files ``compare`` writes, relative to its output directory."""
    common = (
        "transmit.csv",
        "local_oscillator.csv",
        "received.csv",
        "output.csv",
        "spectrum.csv",
        "phase_table.csv",
        "freq_track_tx.csv",
        "freq_track_lo.csv",
        "freq_track_echo.csv",
    )
    extra = {"ctfm": ("channel1.csv",), "ddctfm": ("channel1.csv", "channel2.csv"), "ideal": ()}
    paths = {"compare.csv"}
    for mode, own in extra.items():
        paths.update(f"{mode}/{name}" for name in common + own)
    return frozenset(paths)


COMPARE_LAYOUT = _compare_layout()


def config_text(cycles: int, phase0: float, echoes: list[tuple[float, float]]) -> str:
    """A config near paper.cfg with the given cycles, phase and (delay, amplitude) echoes."""
    lines = [_FIXED_KEYS, f"tx.phase0 = {phase0!r}\n", f"cycles = {cycles}\n"]
    for n, (delay, amplitude) in enumerate(echoes):
        lines.append(f"echoes.{n}.delay = {delay!r}\n")
        lines.append(f"echoes.{n}.amplitude = {amplitude!r}\n")
    lines.append(_ANALYSIS_KEYS)
    return "".join(lines)


def _rate(cfg) -> float:
    return (cfg.tx.f_end - cfg.tx.f_start) / cfg.tx.duration


def _record_samples(cfg) -> int:
    return round(cfg.cycles * cfg.tx.duration * cfg.sample_rate)


def _comb_problems(label: str, peak: float, cfg) -> list[str]:
    """The peak sits on the sweep comb n/T, within one line of rate * delay."""
    period = cfg.tx.duration
    comb = round(peak * period) / period
    beat = _rate(cfg) * cfg.echoes[0].delay
    problems = []
    if abs(peak - comb) > COMB_TOL_HZ:
        problems.append(f"{label} peak {peak!r} Hz is off the comb line {comb!r} Hz")
    if abs(peak - beat) > 1.0 / period:
        problems.append(f"{label} peak {peak!r} Hz is over 1/T from the beat {beat!r} Hz")
    return problems


def _width_problems(label: str, width: float, window_s: float) -> list[str]:
    expected = RECT_WIDTH_3DB / window_s
    if abs(width - expected) > WIDTH_REL_TOL * expected:
        return [f"{label} -3 dB width {width!r} Hz, expected {expected!r} Hz"]
    return []


def _wrapped(theta: float) -> float:
    return math.remainder(theta, 2.0 * math.pi)


class ComparePaper:
    """``ctfm-lab compare`` on configs/paper.cfg, in-process through ``cli.main``.

    The reference run users make; its time goes mostly to text export.  The
    seed is unused.
    """

    name = "compare-paper"
    pool_size = 1

    def __init__(self, seed: int, root: Path, work: Path):
        self.config_path = root / "configs" / "paper.cfg"
        self.work = work
        self.cfg = config.load_config(self.config_path)
        self.samples_per_op = 3 * _record_samples(self.cfg)
        self.reference: dict[str, str] | None = None

    def setup_probe(self) -> tuple[str, list[str], str]:
        code = "import sys\nfrom ctfm_lab import cli\ncli.load_config(sys.argv[1])\n"
        return code, [str(self.config_path)], ""

    def samples(self, i: int) -> int:
        return self.samples_per_op

    def run(self, i: int) -> Path:
        out = self.work / f"op{i}"
        argv = ["compare", "--config", str(self.config_path), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv, standalone_mode=False)
        return out

    def check(self, i: int, out: Path) -> tuple[list[str], dict]:
        try:
            return self._check(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path) -> tuple[list[str], dict]:
        files = {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}
        problems = []
        if set(files) != COMPARE_LAYOUT:
            missing = sorted(COMPARE_LAYOUT - set(files))
            extra = sorted(set(files) - COMPARE_LAYOUT)
            problems.append(f"file layout differs: missing {missing}, unexpected {extra}")
        digests = {}
        size = 0
        for rel, path in files.items():
            digest = hashlib.blake2b()
            with open(path, "rb") as fh:
                header = fh.readline()
                digest.update(header)
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            digests[rel] = digest.hexdigest()
            size += path.stat().st_size
            expected = _HEADER_BY_FILE.get(rel.rsplit("/", 1)[-1])
            if header.decode(errors="replace").rstrip("\n") != expected:
                problems.append(f"{rel}: header {header[:60]!r}, expected {expected!r}")
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(k for k in digests if digests[k] != self.reference.get(k))
            problems.append(f"contents differ from the first op: {changed}")
        if "compare.csv" in files:
            problems += self._readout_problems(files["compare.csv"])
        counts = {
            "cli.files_written": len(files),
            "cli.bytes_written": size,
            "cli.unique_files": len(set(digests.values())),
        }
        return problems, counts

    def _readout_problems(self, path: Path) -> list[str]:
        cfg = self.cfg
        period = cfg.tx.duration
        delay = cfg.echoes[0].delay
        settle = cfg.lowpass.group_delay + cfg.lowpass.impulse_duration
        windows = {
            "ctfm": period - delay,
            "ddctfm": period,
            "ideal": cfg.cycles * period - settle,
        }
        rows = {}
        for line in path.read_text().splitlines()[1:]:
            mode, peak, width, _ = line.split(",")
            rows[mode] = (float(peak), float(width))
        if set(rows) != set(windows):
            return [f"compare.csv has modes {sorted(rows)}, expected {sorted(windows)}"]
        problems = []
        for mode in ("ctfm", "ddctfm"):
            problems += _comb_problems(mode, rows[mode][0], cfg)
        beat = _rate(cfg) * delay
        if abs(rows["ideal"][0] - beat) > IDEAL_PEAK_TOL_HZ:
            problems.append(f"ideal peak {rows['ideal'][0]!r} Hz, expected {beat!r} Hz")
        for mode, window_s in windows.items():
            problems += _width_problems(mode, rows[mode][1], window_s)
        return problems


class _SeededPool:
    """A shuffled pool of generated config texts that ops cycle through."""

    name: str

    def __init__(self, seed: int, root: Path, work: Path):
        rng = random.Random(f"{self.name}:{seed}")
        texts = self.generate(rng)
        rng.shuffle(texts)
        self.texts = texts
        self.pool_size = len(texts)
        self.configs = [config.parse_config(text) for text in texts]

    def generate(self, rng: random.Random) -> list[str]:
        raise NotImplementedError

    def setup_probe(self) -> tuple[str, list[str], str]:
        code = "import sys\nimport ctfm_lab\nctfm_lab.parse_config(sys.stdin.read())\n"
        return code, [], self.texts[0]

    def samples(self, i: int) -> int:
        return _record_samples(self.configs[i % self.pool_size])


class AnalysisSweep(_SeededPool):
    """Single-echo configs near paper.cfg through the full in-memory analysis.

    Delay, tx.phase0 and the cycle count come from the seed, so record
    lengths and FFT sizes vary.  Every cycle count from 8 to 16 appears the
    same number of times in the pool, so each seed has the same mix of sizes.
    """

    name = "analysis-sweep"
    cycle_counts = range(8, 17)
    per_cycle_count = 7

    def generate(self, rng: random.Random) -> list[str]:
        texts = []
        for cycles in self.cycle_counts:
            for _ in range(self.per_cycle_count):
                delay = rng.uniform(0.036, 0.114)
                phase0 = rng.uniform(-math.pi, math.pi)
                texts.append(config_text(cycles, phase0, [(delay, 1.0)]))
        return texts

    def run(self, i: int) -> dict:
        cfg = config.parse_config(self.texts[i % self.pool_size])
        schedule = cfg.schedule
        fs = cfg.sample_rate
        tx = waveform.synthesize_transmit(schedule, fs)
        lo = waveform.synthesize_lo(schedule, fs)
        rx = scene.synthesize_received(schedule, cfg.scene, fs)
        stitched = demod.demodulate(tx, lo, rx, cfg.lowpass).sum

        shift = cfg.lowpass.group_delay
        settle = shift + cfg.lowpass.impulse_duration
        span = 3.0 / cfg.tx.duration
        record = waveform.time_slice(stitched, settle, stitched.duration)
        spec = spectrum.dft_magnitude(record, cfg.zero_pad_factor)
        peak = spectrum.find_peak(spec, cfg.band)
        report = spectrum.sidelobe_report(spec, peak, span, SIDELOBE_FLOOR_DB)

        delay = cfg.echoes[0].delay
        ledger = phase_analysis.phase_table(schedule, delay)

        # ddctfm observes coherently between consecutive handoffs, one period.
        period = cfg.tx.duration
        start = (cfg.cycles // 2) * period + delay + shift
        window = waveform.time_slice(stitched, start, start + period)
        wspec = spectrum.dft_magnitude(window, max(cfg.zero_pad_factor, WIDTH_PAD_FACTOR))
        wpeak = spectrum.find_peak(wspec, cfg.band)
        width = spectrum.sidelobe_report(wspec, wpeak, span, SIDELOBE_FLOOR_DB)
        # The width is part of the op's work but not checked: across delays it
        # strays up to 6% from 0.886 / T, past the 5% held on compare-paper.
        return {
            "peak": report.peak_frequency,
            "jump": ledger.discontinuities[0][1],
            "width": width.mainlobe_width_3db,
        }

    def check(self, i: int, result: dict) -> tuple[list[str], dict]:
        cfg = self.configs[i % self.pool_size]
        problems = _comb_problems("ddctfm", result["peak"], cfg)
        bandwidth = cfg.tx.f_end - cfg.tx.f_start
        f_center = 0.5 * (cfg.tx.f_start + cfg.tx.f_end)
        closed = _wrapped(-2.0 * math.pi * (bandwidth * cfg.echoes[0].delay + f_center * cfg.tx.duration))
        if abs(_wrapped(result["jump"] - closed)) > LEDGER_TOL_RAD:
            problems.append(f"ledger jump {result['jump']!r} rad, closed form {closed!r} rad")
        return problems, {}


class ReceiverLong(_SeededPool):
    """Long multi-echo records through synthesis and the dual-channel receiver.

    3 to 6 echoes with beats in 12-40 Hz, at least 5 Hz apart, amplitudes
    0.3-1, and 80-120 sweep cycles.  The pool holds every cycle count from
    80 to 120 once, with echo counts assigned in rotation, so each seed has
    the same mix of record sizes; the seed draws beats, amplitudes and phase.
    """

    name = "receiver-long"
    cycle_counts = range(80, 121)
    echo_counts = (3, 4, 5, 6)
    beat_range = (12.0, 40.0)
    beat_gap = 5.0

    def generate(self, rng: random.Random) -> list[str]:
        texts = []
        for j, cycles in enumerate(self.cycle_counts):
            count = self.echo_counts[j % len(self.echo_counts)]
            beats = self._beats(rng, count)
            echoes = [(b * PERIOD_S / BANDWIDTH_HZ, rng.uniform(0.3, 1.0)) for b in beats]
            texts.append(config_text(cycles, rng.uniform(-math.pi, math.pi), echoes))
        return texts

    def _beats(self, rng: random.Random, count: int) -> list[float]:
        """``count`` beats, uniform over the sets whose neighbours are >= beat_gap apart."""
        low, high = self.beat_range
        slack = high - low - self.beat_gap * (count - 1)
        offsets = sorted(rng.uniform(0.0, slack) for _ in range(count))
        return [low + u + self.beat_gap * n for n, u in enumerate(offsets)]

    def run(self, i: int):
        cfg = self.configs[i % self.pool_size]
        schedule = cfg.schedule
        fs = cfg.sample_rate
        tx = waveform.synthesize_transmit(schedule, fs)
        lo = waveform.synthesize_lo(schedule, fs)
        rx = scene.synthesize_received(schedule, cfg.scene, fs)
        return demod.demodulate(tx, lo, rx, cfg.lowpass)

    def check(self, i: int, out) -> tuple[list[str], dict]:
        """Least-squares tone per echo in the settled middle of one valid segment.

        In cycle k, channel 1 carries every echo's beat from k*T + max delay
        until (k+1)*T.  Outputs whose whole FIR support lies in that span are
        a sum of steady tones, each of amplitude 0.5 * A * |H(f_b)|.
        """
        cfg = self.configs[i % self.pool_size]
        fs = cfg.sample_rate
        period = cfg.tx.duration
        k = cfg.cycles // 2
        taps = demod.design_lowpass(cfg.lowpass)
        first = math.ceil((k * period + max(e.delay for e in cfg.echoes)) * fs) + taps.size - 1
        stop = math.floor((k + 1) * period * fs)
        n = np.arange(first, stop)
        t = n / fs
        beats = np.array([_rate(cfg) * e.delay for e in cfg.echoes])
        basis = np.concatenate(
            [np.cos(2.0 * np.pi * np.outer(t, beats)), np.sin(2.0 * np.pi * np.outer(t, beats))],
            axis=1,
        )
        coef, *_ = np.linalg.lstsq(basis, out.channel1.samples[first:stop], rcond=None)
        fitted = np.hypot(coef[: beats.size], coef[beats.size :])
        gain = np.abs(np.exp(-2j * np.pi * np.outer(beats, np.arange(taps.size)) / fs) @ taps)
        expected = 0.5 * np.array([e.amplitude for e in cfg.echoes]) * gain
        problems = []
        for beat, got, want in zip(beats, fitted, expected):
            if abs(got - want) > TONE_REL_TOL * want:
                problems.append(
                    f"beat {float(beat)!r} Hz: amplitude {float(got)!r}, expected {float(want)!r}"
                )
        return problems, {}


WORKLOADS = {w.name: w for w in (ComparePaper, AnalysisSweep, ReceiverLong)}
