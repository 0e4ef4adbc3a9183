"""Configuration-driven experiment runner and the ``ctfm-lab`` command.

``measure`` takes every readout and writes no file; the subcommands export:

    phase-table  evaluate the stitch-boundary phase ledger
    simulate     compare's walk for one mode, with CSV artifacts
    compare      run ctfm, ddctfm, and ideal side by side

Exit codes: 0 success, 2 configuration error, 3 analysis error, 4 output error
(an ``--out`` that cannot be made or written).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import click
import numpy as np

from . import demod, scene, spectrum, waveform
from .config import SimConfig, load_config
from .errors import ConfigLoadError, ConfigurationError, CtfmLabError
from .phase_analysis import PhaseReport, phase_table
from .waveform import SampledSignal

MODES = ("ddctfm", "ctfm", "ideal")

# Relative floor for sidelobe detection in the standard reports.  Kept well
# above the rectangular window's first leakage ripple (-13.3 dB) so only
# genuine artifact lines are cataloged.
SIDELOBE_FLOOR_DB = -12.0


@dataclass(frozen=True)
class ReportBundle:
    """Everything a run produces: reports plus the written artifact paths."""

    phase_report: PhaseReport
    spectrum_report: spectrum.SpectrumReport
    manifest: tuple[str, ...]


@dataclass(frozen=True)
class Readout:
    """One mode's readout from ``measure``; the jump is in ``Measurement.ledger``.

    ``spec`` is the settled record's spectrum on the band plus the 3/T
    sidelobe span and one bin either side, the one ``spectrum.csv`` holds,
    and ``report`` its peak and sidelobes.  The report's -3 dB width
    is read on the mode's observation window instead, on a transform
    ``width_pad_factor`` times finer than its native grid.
    """

    mode: str
    spec: spectrum.Spectrum
    report: spectrum.SpectrumReport

    @property
    def peak_frequency(self) -> float:
        return self.report.peak_frequency

    @property
    def mainlobe_width_3db(self) -> float:
        return self.report.mainlobe_width_3db

    @property
    def strongest_sidelobe_db(self) -> float | None:
        return max((lobe.ratio_db for lobe in self.report.sidelobes), default=None)


CompareRow = Readout  # the public name of ``run_compare``'s rows


def _ideal_output(config: SimConfig) -> SampledSignal:
    """The desired demodulator output: one continuous beat per echo.

    Each echo contributes its beat at the mixer's product amplitude, with
    no phase discontinuities; this is the yardstick the stitched output is
    judged against.  The sum starts from the first echo's term, so a
    single echo gives that term exactly.  On the keys' decimal values a beat
    advances p/q cycles a sample, so the sum repeats every lcm(q) samples: only
    that run (or the record, if shorter) is evaluated, and the signal tiles it.
    """
    from fractions import Fraction  # imported on first use: it costs ~3 ms

    tx, fs = config.tx, config.sample_rate
    rate, count = waveform.sweep_rate(tx), waveform.sample_count(config.schedule, fs)
    per_delay = Fraction(repr(tx.f_end)) - Fraction(repr(tx.f_start))  # beat cycles a sample
    per_delay /= Fraction(repr(tx.duration)) * Fraction(repr(fs))  # per second of delay
    run = math.lcm(*((per_delay * Fraction(repr(e.delay))).denominator for e in config.echoes))
    t = np.arange(min(run, count)) / fs
    beats = (
        0.5 * echo.amplitude * np.cos(2.0 * math.pi * scene.beat_frequency(rate, echo.delay) * t)
        for echo in config.echoes
    )
    return SampledSignal._fresh(fs, functools.reduce(np.add, beats), count=count)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}; expected one of {MODES}")


@dataclass(frozen=True, eq=False)
class Measurement:
    """One receiver pass, every mode a view of it, its ledger and readouts.

    ``grid`` is the pass's ``waveform.sample_grid``: delay 0's row, which
    gives tx and lo, then each echo's.  With several echoes, ``ledger`` (and
    every ``phase_table.csv``) describes ``echoes[0]`` only."""

    grid: waveform.SampleGrid
    tx: SampledSignal
    lo: SampledSignal
    rx: SampledSignal
    receiver: demod.DemodOutput
    ideal: SampledSignal
    ledger: PhaseReport
    readouts: tuple[Readout, ...]

    def output(self, mode: str) -> SampledSignal:
        """ctfm reads channel 1, ddctfm the stitched sum, ideal the yardstick."""
        _check_mode(mode)
        views = {"ctfm": self.receiver.channel1, "ddctfm": self.receiver.sum, "ideal": self.ideal}
        return views[mode]


def measure(config: SimConfig, modes: tuple[str, ...] = ()) -> Measurement:
    """One receiver pass, its ledger and a ``Readout`` of each of ``modes``
    (checked first) on ``SimConfig.analysis_spans``; no file is written.
    The pass samples one grid, with one cosine pass for tx and every echo,
    and gives each signal bit for bit as its ``synthesize_*`` function does.
    Each record is read on ``spectrum.band_magnitude`` of the band +/- the
    3/T sidelobe span, as on the full grid (see there); the records have one
    length, so they share one chirp-z plan from the process-wide cache."""
    for mode in modes:
        _check_mode(mode)
    schedule, fs = config.schedule, config.sample_rate
    grid = waveform.sample_grid(schedule, fs, (0.0, *(echo.delay for echo in config.echoes)))
    copies = grid.copies(schedule.tx)  # the transmit sweep's row, then every echo's
    tx = waveform._transmit(schedule, fs, grid, copies)
    lo = waveform._oscillator(schedule, fs, grid)
    rx = scene._received(schedule, config.scene, fs, grid, copies[1:])
    receiver = demod.demodulate(tx, lo, rx, config.lowpass)
    ledger = phase_table(schedule, config.echoes[0].delay)
    state = Measurement(grid, tx, lo, rx, receiver, _ideal_output(config), ledger, ())
    spans, span = config.analysis_spans(), 3.0 / config.tx.duration
    reach = (config.band[0] - span, config.band[1] + span)
    readouts = []
    for mode in modes:
        output = state.output(mode)
        record = waveform.time_slice(output, *spans["record"])
        spec = spectrum.band_magnitude(record, config.zero_pad_factor, reach)
        peak = spectrum.find_peak(spec, config.band)
        report = spectrum.sidelobe_report(spec, peak, span, SIDELOBE_FLOOR_DB)
        window = waveform.time_slice(output, *spans[mode])
        width = spectrum.mainlobe_width(window, config.band, config.width_pad_factor)
        readouts.append(Readout(mode, spec, replace(report, mainlobe_width_3db=width)))
    return replace(state, readouts=tuple(readouts))


def _frequency_tracks(config: SimConfig, grid: waveform.SampleGrid):
    """Analytic instantaneous-frequency tracks for plotting.

    Three ``(times, rows, freq_hz)`` tracks on the record's time axis
    ``times``: the repeating transmit sweep on every row, the oscillator
    extension on its active rows, and the first echo on the rows from its
    arrival.  Each is read off the local times of ``grid``, the receiver
    pass's (``Measurement.grid``), at which its signals are sampled.  Each
    ``freq_hz`` is a ``waveform.Rows``: a block on the grid's first ``stop``
    rows (zero where the track has none), read at the track's rows of the
    grid's run tiled over the record.
    """
    schedule, f = config.schedule, waveform.instantaneous_frequency
    (_, local), (arrival, echo_local), *_ = grid.rows(grid.local)
    active = local < schedule.lo.duration
    index = waveform._tile(np.arange(grid.stop), grid.start, grid.count)
    lo = np.zeros(grid.stop)
    lo[active] = f(schedule.lo, local[active])
    echo = np.concatenate([np.zeros(arrival), f(schedule.tx, echo_local)])
    t = np.arange(grid.count) / config.sample_rate
    blocks = (f(schedule.tx, local), slice(None)), (lo, active[index]), (echo, slice(arrival, None))
    return tuple((t, rows, waveform.Rows(block, index[rows])) for block, rows in blocks)


def _layout(state: Measurement, readout: Readout, tracks, out_dir: Path):
    """The (path, source) pairs one mode's directory holds, in manifest order."""
    files = [
        ("transmit.csv", state.tx),
        ("local_oscillator.csv", state.lo),
        ("received.csv", state.rx),
    ]
    if readout.mode != "ideal":
        files.append(("channel1.csv", state.receiver.channel1))
    if readout.mode == "ddctfm":
        files.append(("channel2.csv", state.receiver.channel2))
    files += [
        ("output.csv", state.output(readout.mode)),
        ("spectrum.csv", readout.spec),
        ("phase_table.csv", state.ledger),
        ("freq_track_tx.csv", tracks[0]),
        ("freq_track_lo.csv", tracks[1]),
        ("freq_track_echo.csv", tracks[2]),
    ]
    return [(out_dir / name, source) for name, source in files]


def _text(source, columns: dict) -> str:
    if isinstance(source, str):
        return source
    if isinstance(source, SampledSignal):
        return waveform.csv_columns("time_s,value", source.times(), source, cache=columns)
    if isinstance(source, spectrum.Spectrum):
        return source.to_csv(columns)
    if isinstance(source, PhaseReport):
        return source.to_table()
    t, rows, freq_hz = source
    return waveform.csv_columns("time_s,freq_hz", waveform.Rows(t, rows), freq_hz, cache=columns)


def _export(files) -> None:
    """Format each distinct source once and write it to every path showing it;
    the one place the package makes a directory or writes a file.

    Sources are grouped by identity, so a signal two modes share (or one
    mode lists twice) is formatted once; each text is dropped once written.
    Columns are keyed by their bytes, so the time column of the signals, or
    the frequency column of the spectra, is formatted once.  A signal's
    samples are formatted over their run alone (``waveform.csv_columns``).
    A track carries its rows of that time column and takes those rows'
    texts.
    """
    groups: dict[int, tuple[object, list[Path]]] = {}
    for path, source in files:
        groups.setdefault(id(source), (source, []))[1].append(path)
    for directory in dict.fromkeys(path.parent for path, _ in files):
        directory.mkdir(parents=True, exist_ok=True)
    columns: dict = {}
    for source, paths in groups.values():
        text = _text(source, columns)
        for path in paths:
            path.write_text(text)


def _walk(config: SimConfig, layout: dict[str, Path]):
    """Measure every mode of ``layout``, a ``{mode: out_dir}``; returns the
    measurement and the (path, source) pairs its directories hold."""
    state, files = measure(config, tuple(layout)), []
    tracks = _frequency_tracks(config, state.grid)
    for readout, out_dir in zip(state.readouts, layout.values()):
        files += _layout(state, readout, tracks, out_dir)
    return state, files


def run(config: SimConfig, mode: str, out_dir: str | Path) -> ReportBundle:
    """Synthesize, demodulate per ``mode``, analyze, and write artifacts."""
    state, files = _walk(config, {mode: Path(out_dir)})
    _export(files)
    return ReportBundle(state.ledger, state.readouts[0].report, tuple(str(p) for p, _ in files))


def run_compare(config: SimConfig, out_dir: str | Path) -> tuple[Readout, ...]:
    """Run every mode on one configuration and tabulate the comparison."""
    out = Path(out_dir)
    state, files = _walk(config, {mode: out / mode for mode in ("ctfm", "ddctfm", "ideal")})
    rows = state.readouts
    table = waveform.csv_columns(
        "mode,peak_freq_hz,mainlobe_width_3db_hz,strongest_sidelobe_db",
        [row.mode for row in rows],
        [row.peak_frequency for row in rows],
        [row.mainlobe_width_3db for row in rows],
        [row.strongest_sidelobe_db for row in rows],  # None: an empty cell
    )
    _export([(out / "compare.csv", table)] + files)
    return rows


def _command(config_path: str, action) -> None:
    """Load ``config_path``, exiting 2 if it is refused, then run
    ``action(config)``, exiting 3 on an analysis error and 4 when ``_export``
    cannot make a directory or write a file."""
    try:
        config = load_config(config_path)
    except (ConfigLoadError, ConfigurationError, OSError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    try:
        action(config)
    except CtfmLabError as exc:
        click.echo(f"analysis error: {exc}", err=True)
        sys.exit(3)
    except OSError as exc:
        click.echo(f"output error: {exc}", err=True)
        sys.exit(4)


@click.group()
def main():
    """Simulate CTFM and dual-demodulator CTFM receiver processing."""


@main.command("phase-table")
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--out", "out_dir", required=True, type=click.Path())
def phase_table_command(config_path: str, out_dir: str):
    """Evaluate the stitch-boundary phase ledger and write it as CSV."""

    def action(config):
        ledger = phase_table(config.schedule, config.echoes[0].delay)
        table = ledger.to_table()
        _export([(Path(out_dir) / "phase_table.csv", table)])
        click.echo(table, nl=False)
        jump = ledger.discontinuities[0][1]
        click.echo(f"# handoff jump: {jump / math.pi:.6g} pi rad at every handoff")

    _command(config_path, action)


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(MODES), default="ddctfm", show_default=True)
def simulate_command(config_path: str, out_dir: str, mode: str):
    """Run the full pipeline for one mode and export CSV artifacts."""

    def action(config):
        bundle = run(config, mode, out_dir)
        report = bundle.spectrum_report
        click.echo(f"mode: {mode}")
        click.echo(f"peak: {report.peak_frequency:.4f} Hz")
        click.echo(f"mainlobe width (-3 dB): {report.mainlobe_width_3db:.4f} Hz")
        for lobe in report.sidelobes:
            offset = lobe.frequency - report.peak_frequency
            click.echo(
                f"sidelobe: {lobe.frequency:.4f} Hz ({offset:+.4f}) {lobe.ratio_db:.2f} dB"
            )
        click.echo(f"artifacts: {len(bundle.manifest)} files in {out_dir}")

    _command(config_path, action)


@main.command("compare")
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--out", "out_dir", required=True, type=click.Path())
def compare_command(config_path: str, out_dir: str):
    """Run ctfm, ddctfm, and ideal and report them side by side."""

    def action(config):
        rows = run_compare(config, out_dir)
        click.echo("mode     peak_hz    width_hz   strongest_sidelobe_db")
        for row in rows:
            strongest = (
                "-" if row.strongest_sidelobe_db is None else f"{row.strongest_sidelobe_db:.2f}"
            )
            click.echo(
                f"{row.mode:<8} {row.peak_frequency:<10.4f} "
                f"{row.mainlobe_width_3db:<10.4f} {strongest}"
            )

    _command(config_path, action)


if __name__ == "__main__":
    main()
