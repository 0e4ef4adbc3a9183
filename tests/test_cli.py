import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ctfm_lab as lab
from ctfm_lab import cli, demod, scene, spectrum, waveform
from ctfm_lab.cli import main, run, run_compare
from full_grid import assert_same_readout, full_grid_report, full_rfft, main_record, main_report
from oracles import exact_ideal_beat


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def read_csv_columns(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRunApi:
    def test_artifacts_exist_and_reports_are_populated(
        self, paper_config_path, tmp_path
    ):
        config = lab.load_config(paper_config_path)
        bundle = run(config, "ddctfm", tmp_path / "out")
        assert bundle.manifest
        for path in bundle.manifest:
            assert Path(path).exists(), path
        names = {Path(p).name for p in bundle.manifest}
        assert {
            "transmit.csv",
            "local_oscillator.csv",
            "received.csv",
            "channel1.csv",
            "channel2.csv",
            "output.csv",
            "spectrum.csv",
            "phase_table.csv",
            "freq_track_tx.csv",
            "freq_track_lo.csv",
            "freq_track_echo.csv",
        } <= names
        assert bundle.phase_report.entries
        assert bundle.spectrum_report.peak_frequency > 0

    def test_stitched_output_peaks_on_the_sweep_comb(self, paper_config_path, tmp_path):
        """The stitched sum repeats every sweep period, so its peak falls on
        the 1/period comb line nearest the beat: 33.33 Hz for the 96 ms
        echo, not the 32 Hz beat itself."""
        config = lab.load_config(paper_config_path)
        bundle = run(config, "ddctfm", tmp_path / "out")
        assert bundle.spectrum_report.peak_frequency == pytest.approx(
            10.0 / 0.3, abs=0.05
        )

    def test_ideal_mode_peaks_at_the_beat(self, paper_config_path, tmp_path):
        config = lab.load_config(paper_config_path)
        bundle = run(config, "ideal", tmp_path / "out")
        assert bundle.spectrum_report.peak_frequency == pytest.approx(32.0, abs=0.05)
        # A continuous beat has no artifact lines at the cycle-rate offsets.
        for lobe in bundle.spectrum_report.sidelobes:
            offset = abs(lobe.frequency - bundle.spectrum_report.peak_frequency)
            assert not (
                abs(offset - 10.0 / 3.0) < 0.3 and lobe.ratio_db > -13.0
            ), lobe

    def test_ctfm_mode_omits_channel2(self, paper_config_path, tmp_path):
        config = lab.load_config(paper_config_path)
        bundle = run(config, "ctfm", tmp_path / "out")
        names = {Path(p).name for p in bundle.manifest}
        assert "channel2.csv" not in names

    def test_waveform_csv_schema(self, paper_config_path, tmp_path):
        config = lab.load_config(paper_config_path)
        bundle = run(config, "ddctfm", tmp_path / "out")
        by_name = {Path(p).name: p for p in bundle.manifest}
        header, rows = read_csv_columns(by_name["transmit.csv"])
        assert header == ["time_s", "value"]
        assert len(rows) == 14400
        assert float(rows[0][1]) == 1.0
        header, rows = read_csv_columns(by_name["freq_track_tx.csv"])
        assert header == ["time_s", "freq_hz"]
        assert float(rows[0][1]) == 100.0

    def test_deterministic_artifacts(self, paper_config_path, tmp_path):
        config = lab.load_config(paper_config_path)
        first = run(config, "ddctfm", tmp_path / "a")
        second = run(config, "ddctfm", tmp_path / "b")
        for p1, p2 in zip(first.manifest, second.manifest):
            assert Path(p1).read_bytes() == Path(p2).read_bytes(), (p1, p2)


def tree_bytes(root):
    root = Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestFrequencyTracks:
    def test_tracks_sit_on_the_synthesizers_grid(self, paper_config_path, tmp_path):
        """The tx and echo tracks are read off the very local times at which
        synthesize_transmit and synthesize_received evaluate the sweep."""
        config = lab.load_config(paper_config_path)
        schedule, fs = config.schedule, config.sample_rate
        index = np.arange(waveform.sample_count(schedule, fs), dtype=float)
        local = waveform.local_times_on_grid(index, fs, schedule.period)
        tx = lab.synthesize_transmit(schedule, fs)
        assert np.array_equal(np.cos(lab.tx_phase(schedule.tx, local)), tx.samples)

        delay = config.echoes[0].delay
        src = index - delay * fs
        arrived = src >= 0.0
        echo_local = waveform.local_times_on_grid(src[arrived], fs, schedule.period)
        rx = lab.synthesize_received(schedule, lab.Scene((lab.Echo(delay),)), fs)
        assert np.array_equal(
            np.cos(lab.tx_phase(schedule.tx, echo_local)), rx.samples[arrived]
        )

        run(config, "ideal", tmp_path)
        _, rows = read_csv_columns(tmp_path / "freq_track_tx.csv")
        track = np.array([float(row[1]) for row in rows])
        assert np.array_equal(track, lab.instantaneous_frequency(schedule.tx, local))
        _, rows = read_csv_columns(tmp_path / "freq_track_echo.csv")
        track = np.array([float(row[1]) for row in rows])
        assert np.array_equal(
            track, lab.instantaneous_frequency(schedule.tx, echo_local)
        )


class TestCompare:
    def test_one_receiver_pass_serves_every_mode(
        self, paper_config_path, tmp_path, monkeypatch
    ):
        calls = {}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(waveform, "sample_grid")
        counting(waveform, "synthesize_transmit")
        counting(waveform, "synthesize_lo")
        counting(scene, "synthesize_received")
        counting(demod, "demodulate")
        counting(demod, "ctfm_demodulate")
        run_compare(lab.load_config(paper_config_path), tmp_path / "cmp")
        assert calls == {"sample_grid": 1, "demodulate": 1}

    def test_each_output_directory_is_made_once(
        self, paper_config_path, tmp_path, monkeypatch
    ):
        """``compare.csv`` in the output directory and 30 files in three mode
        directories: four ``mkdir`` calls, the output directory's first.  It
        exists, so ``parents=True`` recurses into none."""
        (tmp_path / "cmp").mkdir()
        made = []
        mkdir = Path.mkdir

        def counted(path, *args, **kwargs):
            made.append(path)
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counted)
        run_compare(lab.load_config(paper_config_path), tmp_path / "cmp")
        out = tmp_path / "cmp"
        assert made == [out] + [out / mode for mode in ("ctfm", "ddctfm", "ideal")]

    def test_mode_directories_match_single_mode_runs(
        self, paper_config_path, tmp_path
    ):
        config = lab.load_config(paper_config_path)
        run_compare(config, tmp_path / "cmp")
        for mode in ("ctfm", "ddctfm", "ideal"):
            run(config, mode, tmp_path / "single" / mode)
            compared = tree_bytes(tmp_path / "cmp" / mode)
            assert compared == tree_bytes(tmp_path / "single" / mode), mode
            assert len(compared) == {"ctfm": 10, "ddctfm": 11, "ideal": 9}[mode]

    def test_resolution_ordering_and_ratio(self, paper_config_path, tmp_path):
        config = lab.load_config(paper_config_path)
        rows = {row.mode: row for row in run_compare(config, tmp_path / "cmp")}
        ideal = rows["ideal"].mainlobe_width_3db
        stitched = rows["ddctfm"].mainlobe_width_3db
        single = rows["ctfm"].mainlobe_width_3db
        assert ideal <= stitched <= single
        expected_ratio = 0.3 / (0.3 - 0.096)
        assert single / stitched == pytest.approx(expected_ratio, rel=0.2)
        assert (tmp_path / "cmp" / "compare.csv").exists()

    def test_compare_csv_schema(self, paper_config_path, tmp_path):
        config = lab.load_config(paper_config_path)
        run_compare(config, tmp_path / "cmp")
        header, rows = read_csv_columns(tmp_path / "cmp" / "compare.csv")
        assert header == [
            "mode",
            "peak_freq_hz",
            "mainlobe_width_3db_hz",
            "strongest_sidelobe_db",
        ]
        assert [row[0] for row in rows] == ["ctfm", "ddctfm", "ideal"]


class TestMeasure:
    """``measure`` reads out with no file written: one receiver pass, one
    ledger and one ``Readout`` per mode asked for, the walk's own readouts."""

    PASS = (
        (waveform, "sample_grid"),
        (waveform, "synthesize_transmit"),
        (waveform, "synthesize_lo"),
        (scene, "synthesize_received"),
        (demod, "demodulate"),
    )
    READOUT = (
        (np.fft, "rfft"),
        (spectrum, "dft_magnitude"),
        (spectrum, "band_magnitude"),
        (spectrum, "mainlobe_width"),
    )

    @staticmethod
    def counting(monkeypatch, targets):
        calls = {name: 0 for _, name in targets}
        for module, name in targets:
            original = getattr(module, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_writes_no_file(self, paper_config_path, monkeypatch):
        config = lab.load_config(paper_config_path)

        def refuse(*args, **kwargs):
            raise AssertionError("measure touched the file system")

        monkeypatch.setattr(Path, "write_text", refuse)
        monkeypatch.setattr(Path, "mkdir", refuse)
        monkeypatch.setattr(cli, "_export", refuse)
        state = cli.measure(config, cli.MODES)
        assert [readout.mode for readout in state.readouts] == list(cli.MODES)
        assert state.ledger.to_table() == lab.phase_table(config.schedule, 0.096).to_table()

    def test_readouts_are_run_compares_rows_bit_for_bit(self, paper_config_path, tmp_path):
        config = lab.load_config(paper_config_path)
        rows = run_compare(config, tmp_path / "cmp")
        readouts = cli.measure(config, tuple(row.mode for row in rows)).readouts
        for row, readout in zip(rows, readouts, strict=True):
            assert readout.mode == row.mode
            for name in ("peak_frequency", "mainlobe_width_3db"):
                assert getattr(readout, name).hex() == getattr(row, name).hex(), name
            assert readout.strongest_sidelobe_db is not None or row.mode == "ideal"
            assert readout.strongest_sidelobe_db == row.strongest_sidelobe_db
            for name in ("bin_frequencies", "magnitudes"):
                ours, theirs = getattr(readout.spec, name), getattr(row.spec, name)
                assert ours.tobytes() == theirs.tobytes(), name

    @pytest.mark.parametrize(
        "name, delay",
        [("paper.cfg", None), ("paper_phase.cfg", None), ("paper.cfg", "0.0961234")],
        ids=["paper", "paper_phase", "fractional-delay"],
    )
    def test_one_plan_serves_every_record(self, paper_config_path, monkeypatch, name, delay):
        """Chirp-z plans come from one process-wide cache: from a cleared
        cache ``measure`` builds one plan per distinct key, and a plan is
        keyed by its record's split into a lead-in and copies of one run
        (``SampledSignal._copies``).  ctfm's and ddctfm's records have one
        split, so their band spectra share one key; the ideal record's run
        is its own (125 samples on ``paper.cfg``), so it builds its own plan,
        and the width zooms key their own.  A second ``measure`` builds none.
        Each spectrum is bit for bit its record's own ``band_magnitude``, and
        every plan array is read-only."""
        config = lab.load_config(Path(paper_config_path).with_name(name))
        if delay:
            config = lab.derive(config, {"echoes.0.delay": delay})
        plan, keys = spectrum._zoom_plan, []

        def recording_plan(*key):
            keys.append(key)
            return plan(*key)

        monkeypatch.setattr(spectrum, "_zoom_plan", recording_plan)
        plan.cache_clear()
        state = cli.measure(config, cli.MODES)
        built = plan.cache_info().misses
        assert built == len(set(keys)) == plan.cache_info().currsize
        points = config.zero_pad_factor * len(main_record(config, state.tx))
        band_keys = [key for key in keys if key[3] == points]
        splits = [main_record(config, state.output(mode))._copies() for mode in cli.MODES]
        assert [key[:3] for key in band_keys] == splits
        ddctfm, ctfm, ideal = band_keys
        assert ddctfm == ctfm != ideal and ideal[:3] != ctfm[:3]
        if name == "paper.cfg" and not delay:
            assert splits == [(815, 1200, 11)] * 2 + [(15, 125, 112)]
        assert all(not array.flags.writeable for key in keys for array in plan(*key))
        cli.measure(config, cli.MODES)
        assert plan.cache_info().misses == built
        span = 3.0 / config.tx.duration
        reach = (config.band[0] - span, config.band[1] + span)
        for readout in state.readouts:
            record = waveform.time_slice(
                state.output(readout.mode), *config.analysis_spans()["record"]
            )
            alone = spectrum.band_magnitude(record, config.zero_pad_factor, reach)
            for field in ("bin_frequencies", "magnitudes"):
                ours, theirs = getattr(readout.spec, field), getattr(alone, field)
                assert ours.tobytes() == theirs.tobytes(), (readout.mode, field)

    @pytest.mark.parametrize(
        "name, band",
        [("paper.cfg", None), ("paper_phase.cfg", None), ("paper.cfg", (31, 35))],
        ids=["paper", "paper_phase", "paper-band-31-35-hz"],
    )
    def test_readouts_match_the_full_grid(self, paper_config_path, name, band):
        """The band spectrum, and ``dft_magnitude``'s spectrum (read on its
        low-bin head, of 56,060 points), read each bundled configuration's peak and
        sidelobes as the full rfft grid does.  With the band narrowed to
        31-35 Hz, the ddctfm lobes at 30.0 and 36.7 Hz lie outside it, inside
        the 3/T sidelobe span the band spectrum also covers."""
        config = lab.derive(
            lab.load_config(Path(paper_config_path).with_name(name)),
            dict(zip(("spectrum.band_low", "spectrum.band_high"), band or ())),
        )
        state = cli.measure(config, cli.MODES)
        for readout in state.readouts:
            reference = full_grid_report(config, state.output(readout.mode))
            assert reference.sidelobes or readout.mode == "ideal"
            assert_same_readout(readout.report, reference)
            record = main_record(config, state.output(readout.mode))
            whole = spectrum.dft_magnitude(record, config.zero_pad_factor)
            assert_same_readout(main_report(config, whole), reference)
            if band and readout.mode == "ddctfm":
                lobes = [lobe.frequency for lobe in reference.sidelobes]
                assert len(lobes) == 2 and not any(band[0] <= f <= band[1] for f in lobes)

    @pytest.mark.parametrize("modes, readouts", [((), 0), (("ddctfm",), 1)])
    def test_one_pass_and_one_readout_per_mode(
        self, paper_config_path, monkeypatch, modes, readouts
    ):
        config = lab.load_config(paper_config_path)
        calls = self.counting(monkeypatch, self.PASS + self.READOUT)
        state = cli.measure(config, modes)
        assert len(state.readouts) == readouts
        assert calls == {
            "sample_grid": 1,
            "synthesize_transmit": 0,
            "synthesize_lo": 0,
            "synthesize_received": 0,
            "demodulate": 1,
            "rfft": 0,
            "dft_magnitude": 0,
            "band_magnitude": 2 * readouts,  # the record's, and one width zoom
            "mainlobe_width": readouts,
        }

    # (delay in s, amplitude) of up to six echoes at fractional delays, in no
    # order of delay; the first lies within lo.duration, as the ledger needs.
    ECHOES = (
        (0.0961234, 1.0),
        (0.0123457, -0.5),
        (0.1100003, 0.25),
        (0.0481234, -0.6),
        (0.1999999, 0.45),
        (0.0732167, 0.8),
    )

    @pytest.mark.parametrize("echoes", [1, 3, 6])
    @pytest.mark.parametrize("base", ["paper", "two-cycle-run"])
    def test_the_pass_is_the_public_synthesizers(self, paper_config_path, base, echoes):
        """The pass's tx, lo and rx, from one grid and one cosine pass, are
        bit for bit, run included, what ``synthesize_*`` give on their own."""
        config = lab.load_config(paper_config_path)
        if base == "two-cycle-run":
            config = two_cycle_run_config(paper_config_path)
        values = {}
        for n, (delay, amplitude) in enumerate(self.ECHOES[:echoes]):
            values.update({f"echoes.{n}.delay": delay, f"echoes.{n}.amplitude": amplitude})
        config = lab.derive(config, values)
        state = cli.measure(config)
        schedule, fs = config.schedule, config.sample_rate
        expected = {
            "tx": lab.synthesize_transmit(schedule, fs),
            "lo": lab.synthesize_lo(schedule, fs),
            "rx": lab.synthesize_received(schedule, config.scene, fs),
        }
        assert state.grid.firsts[0] == 0 and len(state.grid.firsts) == echoes + 1
        for name, want in expected.items():
            got = getattr(state, name)
            assert (got._repeat, len(got)) == (want._repeat, len(want)), name
            bits = got.samples.view(np.int64), want.samples.view(np.int64)
            np.testing.assert_array_equal(*bits, err_msg=name)

    @pytest.mark.parametrize(
        "modes", [("sonar",), ("ddctfm", "record"), ("CTFM",)], ids=["name", "span-key", "case"]
    )
    def test_an_unknown_mode_is_refused_before_any_work(
        self, paper_config_path, monkeypatch, modes
    ):
        config = lab.load_config(paper_config_path)
        calls = self.counting(monkeypatch, self.PASS + self.READOUT)
        message = f"unknown mode {modes[-1]!r}; expected one of {cli.MODES}"
        with pytest.raises(lab.ConfigurationError, match=re.escape(message)):
            cli.measure(config, modes)
        assert not any(calls.values()), calls

    @pytest.mark.parametrize("mode", ["sonar", "CTFM", "record"])
    def test_output_refuses_an_unknown_mode(self, paper_config_path, mode):
        """No unknown mode falls through to the ideal yardstick."""
        state = cli.measure(lab.load_config(paper_config_path))
        message = f"unknown mode {mode!r}; expected one of {cli.MODES}"
        with pytest.raises(lab.ConfigurationError, match=re.escape(message)):
            state.output(mode)

    def test_run_refuses_an_unknown_mode_before_any_work(
        self, paper_config_path, tmp_path, monkeypatch
    ):
        config = lab.load_config(paper_config_path)
        calls = self.counting(monkeypatch, self.PASS + self.READOUT)
        message = f"unknown mode 'record'; expected one of {cli.MODES}"
        with pytest.raises(lab.ConfigurationError, match=re.escape(message)):
            run(config, "record", tmp_path / "out")
        assert not any(calls.values()), calls
        assert not (tmp_path / "out").exists()


def formula_beat(config, count):
    """The sum of 0.5 * A * cos(2 pi rate tau t) over the first ``count``
    samples, started from the first echo's term."""
    rate = (config.tx.f_end - config.tx.f_start) / config.tx.duration
    t = np.arange(count) / config.sample_rate
    beats = [0.5 * e.amplitude * np.cos(2.0 * np.pi * (rate * e.delay) * t) for e in config.echoes]
    return functools.reduce(np.add, beats)


def two_echo_config(paper_config_path):
    """paper.cfg plus a second echo at 60 ms (a 20 Hz beat), amplitude 0.7."""
    paper = lab.load_config(paper_config_path)
    return lab.derive(paper, {"echoes.1.delay": 0.06, "echoes.1.amplitude": 0.7})


class TestMultiEcho:
    @pytest.fixture(scope="class")
    def compared(self, paper_config_path, tmp_path_factory):
        out = tmp_path_factory.mktemp("two-echo")
        config = two_echo_config(paper_config_path)
        return config, run_compare(config, out), out

    def test_ideal_spectrum_has_a_line_at_each_beat(self, compared):
        config, rows, out = compared
        ideal = cli.measure(config).ideal
        record = waveform.time_slice(ideal, *config.analysis_spans()["record"])
        spec = spectrum.dft_magnitude(record, 4)
        lines = {
            beat: spectrum.find_peak(spec, (beat - 2.0, beat + 2.0))
            for beat in (20.0, 32.0)
        }
        for beat, peak in lines.items():
            assert peak.frequency == pytest.approx(beat, abs=0.01)
        assert lines[20.0].magnitude / lines[32.0].magnitude == pytest.approx(0.7, rel=0.01)
        assert {row.mode: row for row in rows}["ideal"].peak_frequency == pytest.approx(
            32.0, abs=0.01
        )

    def test_single_echo_ideal_is_the_one_beat_exactly(
        self, paper_config_path, paper_phase_config_path
    ):
        """The beat advances p/q cycles a sample on the decimal values, so
        it repeats every q samples.  The first run is bit-equal to
        0.5 * A * cos(2 pi rate tau t), the sum started from the first term,
        not from zero (which would turn -0.0 into 0.0), and every later
        sample to the one a run earlier.  At 0.0961234 s (480,617/60,000,000
        cycles a sample) the run would outlast the record, so the whole
        record is that formula."""
        paper = lab.load_config(paper_config_path)
        cases = (
            (paper, 125),  # 32 Hz at 4 kHz: 1/125 cycles a sample
            (lab.load_config(paper_phase_config_path), 4000),  # 31 Hz: 31/4000
            (lab.derive(paper, {"echoes.0.delay": 0.0961234}), 14_400),
        )
        for config, run in cases:
            ideal = cli._ideal_output(config)
            assert ideal._repeat == (0, run)
            assert ideal.samples[:run].tobytes() == formula_beat(config, run).tobytes()
            assert ideal.samples[run:].tobytes() == ideal.samples[:-run].tobytes()

    def test_two_echo_ideal_repeats_over_the_lcm_of_its_runs(self, compared):
        """32 Hz repeats every 125 samples and 20 Hz every 200: the sum
        every 1,000, its first run the formula's."""
        config = compared[0]
        ideal = cli._ideal_output(config)
        assert ideal._repeat == (0, 1000)
        assert ideal.samples[:1000].tobytes() == formula_beat(config, 1000).tobytes()
        assert ideal.samples[1000:].tobytes() == ideal.samples[:-1000].tobytes()

    @pytest.mark.parametrize("name", ["paper.cfg", "paper_phase.cfg"])
    def test_ideal_is_within_4e_14_of_the_exact_decimal_beat(self, name, paper_config_path):
        """Every sample against ``oracles.exact_ideal_beat``: a beat evaluated
        over the whole record at t up to 3.6 s rounds its phase far more."""
        config = lab.load_config(paper_config_path.with_name(name))
        tx, echoes = config.tx, [(echo.delay, echo.amplitude) for echo in config.echoes]
        exact = exact_ideal_beat(
            14_400, config.sample_rate, tx.f_start, tx.f_end, tx.duration, echoes
        )
        error = np.abs(cli._ideal_output(config).samples - np.array(exact))
        assert error.max() <= 4e-14

    def test_ledger_and_windows_follow_the_first_echo(self, compared, paper_config_path):
        """A later echo moves neither the phase ledger nor the ctfm and
        ddctfm observation windows: both stay keyed to ``echoes[0]``."""
        config, _, out = compared
        single = lab.load_config(paper_config_path)
        ledger = lab.phase_table(config.schedule, 0.096).to_table()
        for mode in ("ctfm", "ddctfm", "ideal"):
            assert (out / mode / "phase_table.csv").read_text() == ledger
        state, alone = cli.measure(config), cli.measure(single)
        for mode in ("ctfm", "ddctfm"):
            window = waveform.time_slice(state.output(mode), *config.analysis_spans()[mode])
            reference = waveform.time_slice(alone.output(mode), *single.analysis_spans()[mode])
            assert (window.t0, len(window)) == (reference.t0, len(reference))
            start = 6 * 0.3 + 0.096 + config.lowpass.group_delay
            assert window.t0 == pytest.approx(start, abs=0.5 / config.sample_rate)


def assert_per_row_csv(path, header, first, second):
    """``path`` holds one ``.17g`` row per value pair, formatted row by row."""
    expected = [header] + ["{:.17g},{:.17g}".format(a, b) for a, b in zip(first, second)]
    text = Path(path).read_text()
    assert text.endswith("\n"), path
    lines = text[:-1].split("\n")
    assert len(lines) == len(expected), path
    bad = next((i for i, pair in enumerate(zip(lines, expected)) if pair[0] != pair[1]), None)
    assert bad is None, (path, bad, lines[bad], expected[bad])


class TestCompareReadouts:
    """Tolerances fixed before tuning: each width within 1e-9 relative of a
    64x ``dft_magnitude`` + ``sidelobe_report`` readout of the same window,
    the grid it is read on; each peak and sidelobe within
    ``full_grid.READOUT_TOL`` of the full-grid readout of the record."""

    WIDTH_RTOL = 1e-9

    @pytest.fixture(scope="class")
    def compared(self, paper_config_path, tmp_path_factory):
        """Also records every rfft, and the spectra each width is read on."""
        config = lab.load_config(paper_config_path)
        out = tmp_path_factory.mktemp("cmp")
        spies = {"rfft": [], "width": []}
        reading = []
        rfft, width, extent = np.fft.rfft, spectrum.mainlobe_width, spectrum._mainlobe_extent

        def recording_rfft(a, n=None, *args, **kwargs):
            spies["rfft"].append((len(a), n))
            return rfft(a, n, *args, **kwargs)

        def recording_width(signal, *args):
            spies["width"].append((len(signal), []))
            reading.append(True)
            try:
                return width(signal, *args)
            finally:
                reading.pop()

        def recording_extent(spec, index):
            if reading:
                spies["width"][-1][1].append(spec)
            return extent(spec, index)

        np.fft.rfft = recording_rfft
        spectrum.mainlobe_width, spectrum._mainlobe_extent = recording_width, recording_extent
        try:
            rows = run_compare(config, out)
        finally:
            np.fft.rfft = rfft
            spectrum.mainlobe_width, spectrum._mainlobe_extent = width, extent
        _, table = read_csv_columns(out / "compare.csv")
        references = {mode: self.reference(config, mode) for mode in cli.MODES}
        return config, {row.mode: row for row in rows}, table, spies, references

    @staticmethod
    def reference(config, mode):
        """(full-grid main report, 64x window width, record length, window length)."""
        output = cli.measure(config).output(mode)
        span = 3.0 / config.tx.duration

        def report(signal, pad):
            spec = spectrum.dft_magnitude(signal, pad)
            peak = spectrum.find_peak(spec, config.band)
            return spectrum.sidelobe_report(spec, peak, span, cli.SIDELOBE_FLOOR_DB)

        record = waveform.time_slice(output, *config.analysis_spans()["record"])
        window = waveform.time_slice(output, *config.analysis_spans()[mode])
        width = report(window, 64).mainlobe_width_3db
        return report(record, config.zero_pad_factor), width, len(record), len(window)

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_width_within_tolerance_of_the_64x_readout(self, compared, mode):
        _, rows, table, _, references = compared
        width = references[mode][1]
        assert rows[mode].mainlobe_width_3db == pytest.approx(width, rel=self.WIDTH_RTOL)
        line = {row[0]: row for row in table}[mode]
        assert float(line[2]) == rows[mode].mainlobe_width_3db

    def test_paper_phase_widths_are_the_64x_readouts(self, paper_phase_config_path):
        config = lab.load_config(paper_phase_config_path)
        for readout in cli.measure(config, cli.MODES).readouts:
            width = self.reference(config, readout.mode)[1]
            assert readout.mainlobe_width_3db == pytest.approx(width, rel=self.WIDTH_RTOL)

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_peak_and_sidelobe_columns_are_the_main_readouts(self, compared, mode):
        _, rows, table, _, references = compared
        assert_same_readout(rows[mode].report, references[mode][0])
        strongest = rows[mode].strongest_sidelobe_db
        line = {row[0]: row for row in table}[mode]
        assert float(line[1]) == rows[mode].peak_frequency
        if strongest is None:
            assert line[3] == ""
        else:
            assert float(line[3]) == strongest

    @staticmethod
    def assert_on_bins(grid, n, samples, sample_rate):
        """``grid`` is a run of the bins k * fs / n of an n-point transform
        of ``samples`` samples, an integer factor of them."""
        assert type(grid.zero_pad_factor) is int and grid.zero_pad_factor * samples == n
        step = 1.0 / (n * (1.0 / sample_rate))
        first = round(grid.bin_frequencies[0] / step)
        bins = np.arange(first, first + grid.bin_frequencies.size)
        np.testing.assert_array_equal(grid.bin_frequencies, bins * step)

    def test_width_transforms_are_width_pad_factor_times_the_window(self, compared):
        """Each width is read on bins k * fs / n of the n = 64 N point
        transform of its N-sample window; each main spectrum on the bins
        k * fs / (4 N) of its N-sample record.  Both are zooms: a run takes
        no rfft at all."""
        config, rows, _, spies, references = compared
        windows = [references[mode][3] for mode in rows]
        assert [window for window, _ in spies["width"]] == windows
        for window, grids in spies["width"]:
            assert grids, window
            for grid in grids:
                n = config.width_pad_factor * window
                assert round(config.sample_rate / grid.bin_spacing) == n == 64 * window
                self.assert_on_bins(grid, n, window, config.sample_rate)
        for mode, row in rows.items():
            record = references[mode][2]
            n = config.zero_pad_factor * record
            self.assert_on_bins(row.spec, n, record, config.sample_rate)
        assert spies["rfft"] == []


TRACKS = ("tx", "lo", "echo")


class TestExportBytes:
    """Every two-column file ``compare`` writes, in every mode directory,
    equals a per-row ``.17g`` rendering of its source."""

    @pytest.fixture(scope="class")
    def compared(self, paper_config_path, tmp_path_factory):
        config = lab.load_config(paper_config_path)
        out = tmp_path_factory.mktemp("cmp")
        run_compare(config, out)
        return config, out, cli.measure(config, cli.MODES)

    @staticmethod
    def signals(state, mode):
        """The signal files of one mode directory, with their sources."""
        receiver = state.receiver
        files = {
            "transmit.csv": state.tx,
            "local_oscillator.csv": state.lo,
            "received.csv": state.rx,
        }
        if mode != "ideal":
            files["channel1.csv"] = receiver.channel1
        if mode == "ddctfm":
            files["channel2.csv"] = receiver.channel2
        files["output.csv"] = {
            "ctfm": receiver.channel1, "ddctfm": receiver.sum, "ideal": state.ideal
        }[mode]
        return files

    def test_every_two_column_file_is_checked(self, compared):
        _, out, state = compared
        for mode in cli.MODES:
            checked = {*self.signals(state, mode), "spectrum.csv"}
            checked |= {f"freq_track_{name}.csv" for name in TRACKS}
            names = {path.name for path in (out / mode).iterdir()}
            assert names == checked | {"phase_table.csv"}, mode

    def test_signals(self, compared):
        _, out, state = compared
        for mode in cli.MODES:
            for name, signal in self.signals(state, mode).items():
                assert_per_row_csv(
                    out / mode / name, "time_s,value", signal.times(), signal.samples
                )

    def test_spectra(self, compared):
        """Each file is its ``Readout.spec``: the band 10-50 Hz plus the 3/T
        = 10 Hz sidelobe span and one bin either side, clipped at 0 Hz, so 842
        bins from 0 to 60.007 Hz.  Those are the full rfft grid's bins bit
        for bit, with magnitudes within 1e-12 of its band peak."""
        config, out, state = compared
        for readout in state.readouts:
            spec = readout.spec
            assert_per_row_csv(
                out / readout.mode / "spectrum.csv",
                "freq_hz,magnitude",
                spec.bin_frequencies,
                spec.magnitudes,
            )
            record = main_record(config, state.output(readout.mode))
            full = full_rfft(record, config.zero_pad_factor * len(record))
            assert spec.bin_frequencies.size == 842
            assert spec.bin_frequencies[0] == 0.0
            assert spec.bin_frequencies[-1] == pytest.approx(60.007, abs=5e-4)
            freqs, rows = full.bin_frequencies, slice(0, spec.bin_frequencies.size)
            np.testing.assert_array_equal(spec.bin_frequencies, freqs[rows])
            band = spectrum.band_bins(freqs.size, freqs.__getitem__, config.band)
            peak = full.magnitudes[band.start : band.stop].max()
            error = np.max(np.abs(spec.magnitudes - full.magnitudes[rows]))
            assert error <= 1e-12 * peak, readout.mode

    def test_frequency_tracks(self, compared):
        """Each track's frequencies are the ``waveform.Rows`` of a block
        shorter than the column; the file is the per-row rendering of its
        rows' times and those rows' values."""
        config, out, state = compared
        tracks = cli._frequency_tracks(config, state.grid)
        # The lo track's rows are a subset of the shared time column's.
        times, rows, _ = tracks[1]
        assert 0 < len(times[rows]) < len(times)
        for mode in cli.MODES:
            for name, (times, rows, f) in zip(TRACKS, tracks):
                assert isinstance(f, waveform.Rows) and len(f.values) < len(f.values[f.rows])
                path = out / mode / f"freq_track_{name}.csv"
                assert_per_row_csv(path, "time_s,freq_hz", times[rows], f.values[f.rows])

    @pytest.mark.parametrize(
        "case",
        [
            "every third row",
            "rows in reverse",
            "an arbitrary index array",
            "a single row",
            "no rows",
            "a mask of active rows",
        ],
    )
    def test_tracks_take_the_texts_of_the_rows_they_carry(self, tmp_path, case):
        """A track hands over its rows of the shared time column and gets
        those rows' texts: the same as a per-row rendering of its times."""
        t = np.arange(60) / 4000.0
        rows = {
            "every third row": slice(None, None, 3),
            "rows in reverse": slice(None, None, -1),
            "an arbitrary index array": np.array([7, 3, 3, 59, 0, 41]),
            "a single row": np.array([17]),
            "no rows": np.array([], dtype=int),
            "a mask of active rows": np.arange(60) % 7 < 3,
        }[case]
        freqs = 100.0 + 50.0 * t[rows]
        signal = lab.SampledSignal(4000.0, np.cos(t))  # its time column is t
        files = [
            (tmp_path / "signal.csv", signal),
            (tmp_path / "track.csv", (t, rows, freqs)),
        ]
        cli._export(files)
        assert_per_row_csv(tmp_path / "signal.csv", "time_s,value", t, signal.samples)
        assert_per_row_csv(tmp_path / "track.csv", "time_s,freq_hz", t[rows], freqs)


def per_row_csv(header, *columns):
    """CSV text rendered row by row: text as it stands, ``None`` as an empty
    cell, numbers as ``.17g`` f-strings."""

    def cell(x):
        return x if isinstance(x, str) else "" if x is None else f"{x:.17g}"

    return header + "\n" + "".join(
        ",".join(cell(x) for x in row) + "\n" for row in zip(*columns, strict=True)
    )


def two_cycle_run_config(paper_config_path):
    """``paper.cfg`` with a 1,200.5-sample period: its signals repeat every
    2,401 samples, two sweep cycles."""
    values = {"sample_rate": "4802", "tx.duration": "0.25", "lo.f_end": "248"}
    return lab.derive(lab.load_config(paper_config_path), values)


class TestExportTwoCycleRun:
    """Every file ``compare`` writes for a configuration whose run spans two
    sweep cycles equals a test-side per-row rendering of its source."""

    def test_every_file_is_its_per_row_rendering(self, paper_config_path, tmp_path):
        config = two_cycle_run_config(paper_config_path)
        rows = run_compare(config, tmp_path)
        state = cli.measure(config, cli.MODES)
        assert state.tx._repeat == (0, 2401) and state.receiver.sum._repeat[1] == 2401
        tracks = cli._frequency_tracks(config, state.grid)
        assert all(f.values.size < len(f.values[f.rows]) for _, _, f in tracks)
        assert tracks[0][2].values.size == state.grid.start + 2401
        expected = {"compare.csv": compare_rendering(rows)}
        ledger = ledger_rendering(state.ledger)
        for readout in state.readouts:
            mode = readout.mode
            for name, signal in TestExportBytes.signals(state, mode).items():
                expected[f"{mode}/{name}"] = per_row_csv(
                    "time_s,value", signal.times(), signal.samples
                )
            spec = readout.spec
            expected[f"{mode}/spectrum.csv"] = per_row_csv(
                "freq_hz,magnitude", spec.bin_frequencies, spec.magnitudes
            )
            expected[f"{mode}/phase_table.csv"] = ledger
            for name, (times, picked, f) in zip(TRACKS, tracks):
                expected[f"{mode}/freq_track_{name}.csv"] = per_row_csv(
                    "time_s,freq_hz", times[picked], f.values[f.rows]
                )
        written = {
            path.relative_to(tmp_path).as_posix(): path.read_text()
            for path in tmp_path.rglob("*.csv")
        }
        assert len(expected) == 31 and sorted(written) == sorted(expected)
        for name, text in expected.items():
            got, want = written[name].split("\n"), text.split("\n")
            bad = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
            assert bad is None and len(got) == len(want), (name, bad)


def ledger_rendering(report):
    """The ledger CSV rendered row by row with f-strings."""
    lines = ["label,instant_s,unwrapped_pi,wrapped_pi"]
    for e in report.entries:
        lines.append(
            f"{e.label},{e.instant:.17g},{e.unwrapped / np.pi:.17g},{e.wrapped / np.pi:.17g}"
        )
    return "\n".join(lines) + "\n"


def compare_rendering(rows):
    """``compare.csv`` rendered row by row with f-strings; no sidelobe is
    an empty cell."""
    lines = ["mode,peak_freq_hz,mainlobe_width_3db_hz,strongest_sidelobe_db"]
    for row in rows:
        strongest = row.strongest_sidelobe_db
        cell = "" if strongest is None else f"{strongest:.17g}"
        lines.append(
            f"{row.mode},{row.peak_frequency:.17g},{row.mainlobe_width_3db:.17g},{cell}"
        )
    return "\n".join(lines) + "\n"


class TestOneWriter:
    """The ledger and ``compare.csv`` go through the one CSV writer and read
    byte for byte as a per-row f-string rendering of the same values."""

    @pytest.fixture(scope="class", params=["paper.cfg", "paper_phase.cfg"])
    def compared(self, request, paper_config_path, tmp_path_factory):
        config = lab.load_config(paper_config_path.parent / request.param)
        out = tmp_path_factory.mktemp("cmp")
        return config, run_compare(config, out), out

    def test_ledger_table(self, compared):
        config, _, out = compared
        report = lab.phase_table(config.schedule, config.echoes[0].delay)
        assert report.to_table() == ledger_rendering(report)
        for mode in cli.MODES:
            assert (out / mode / "phase_table.csv").read_text() == ledger_rendering(report)

    def test_compare_table(self, compared):
        _, rows, out = compared
        assert (out / "compare.csv").read_text() == compare_rendering(rows)
        # The ideal beat has no sidelobe, so its last cell is empty.
        assert {row.mode: row for row in rows}["ideal"].strongest_sidelobe_db is None
        assert (out / "compare.csv").read_text().splitlines()[3].endswith(",")


class TestCommandLine:
    def test_module_entry_point_runs_the_cli(self):
        src = str(Path(lab.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "ctfm_lab.cli", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "Usage:" in result.stdout
        assert "compare" in result.stdout

    def test_simulate_success(self, runner, paper_config_path, tmp_path):
        result = runner.invoke(
            main,
            [
                "simulate",
                "--config",
                str(paper_config_path),
                "--out",
                str(tmp_path / "out"),
                "--mode",
                "ddctfm",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "peak:" in result.output
        assert (tmp_path / "out" / "spectrum.csv").exists()

    def test_phase_table_output(self, runner, paper_phase_config_path, tmp_path):
        result = runner.invoke(
            main,
            [
                "phase-table",
                "--config",
                str(paper_phase_config_path),
                "--out",
                str(tmp_path / "pt"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "channel 2 phase at handoff" in result.output
        assert "-0.6 pi rad" in result.output
        assert (tmp_path / "pt" / "phase_table.csv").exists()

    def test_compare_command(self, runner, paper_config_path, tmp_path):
        result = runner.invoke(
            main,
            ["compare", "--config", str(paper_config_path), "--out", str(tmp_path / "c")],
        )
        assert result.exit_code == 0, result.output
        assert "ideal" in result.output

    @pytest.mark.parametrize("command", ["simulate", "compare", "phase-table"])
    def test_echo_delay_past_the_oscillator_window_exits_2(
        self, runner, paper_config_path, tmp_path, command
    ):
        late = tmp_path / "late.cfg"
        late.write_text(
            paper_config_path.read_text().replace(
                "echoes.0.delay = 0.096", "echoes.0.delay = 0.15"
            )
        )
        result = runner.invoke(
            main, [command, "--config", str(late), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert "echoes.0.delay" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare", "phase-table"])
    def test_undecodable_config_exits_2(self, runner, tmp_path, command):
        """A file that is not UTF-8 is a configuration error, not a crash."""
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfe\x00bad")
        result = runner.invoke(
            main, [command, "--config", str(bad), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert "configuration error: not UTF-8: undecodable byte at offset 0" in result.output
        assert not (tmp_path / "o").exists()

    def test_config_with_a_byte_order_mark_runs(self, runner, paper_config_path, tmp_path):
        """A UTF-8 file saved with a byte-order mark loads past it."""
        marked = tmp_path / "paper.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + paper_config_path.read_bytes())
        result = runner.invoke(
            main, ["compare", "--config", str(marked), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "o" / "compare.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["sound_speed", "sample_rate"])
    def test_non_finite_value_exits_2(self, runner, paper_config_path, tmp_path, key, value):
        lines = paper_config_path.read_text().splitlines()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "\n".join(f"{key} = {value}" if line.startswith(key) else line for line in lines)
        )
        result = runner.invoke(
            main, ["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert f"configuration error: {key}:" in result.output
        assert not (tmp_path / "o").exists()

    def test_config_error_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("tx.f_start = 100\n")
        result = runner.invoke(
            main, ["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "configuration error" in result.output

    def test_missing_config_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["simulate", "compare", "phase-table"])
    def test_zero_amplitude_scene_exits_2(self, runner, paper_config_path, tmp_path, command):
        """A silent scene has no spectral peak, so the loader refuses it."""
        cfg = tmp_path / "silent.cfg"
        text = paper_config_path.read_text()
        cfg.write_text(text.replace("echoes.0.amplitude = 1.0", "echoes.0.amplitude = 0"))
        result = runner.invoke(
            main, [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert "configuration error: echoes.0.amplitude:" in result.output
        assert not (tmp_path / "o").exists()

    def test_analysis_error_exits_3(self, runner, paper_config_path, tmp_path, monkeypatch):
        def no_peak(*args):
            raise lab.NoPeakError("no spectral energy inside band (10.0, 50.0)")

        monkeypatch.setattr(cli, "measure", no_peak)
        result = runner.invoke(
            main, ["simulate", "--config", str(paper_config_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 3
        assert "analysis error: no spectral energy" in result.output

    @pytest.mark.parametrize("command", ["simulate", "compare", "phase-table"])
    def test_unwritable_out_exits_4(self, runner, paper_config_path, tmp_path, command):
        """An ``--out`` that is an existing file: one line, no traceback."""
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        result = runner.invoke(
            main, [command, "--config", str(paper_config_path), "--out", str(taken)]
        )
        assert result.exit_code == 4, result.output
        assert result.output.startswith("output error: ")
        assert result.output.count("\n") == 1, result.output
        assert "Traceback" not in result.output
        assert taken.read_text() == "kept\n"

    def test_unknown_mode_rejected_by_click(self, runner, paper_config_path, tmp_path):
        result = runner.invoke(
            main,
            [
                "simulate",
                "--config",
                str(paper_config_path),
                "--out",
                str(tmp_path),
                "--mode",
                "both",
            ],
        )
        assert result.exit_code == 2


class TestOneWalk:
    """``simulate`` is ``compare``'s walk restricted to one mode, and both
    commands print the readout record their walk returned."""

    @staticmethod
    def recording(monkeypatch, name):
        results = []
        original = getattr(cli, name)

        def wrapper(*args):
            results.append(original(*args))
            return results[-1]

        monkeypatch.setattr(cli, name, wrapper)
        return results

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_simulate_prints_the_run_report(
        self, runner, paper_config_path, tmp_path, monkeypatch, mode
    ):
        bundles = self.recording(monkeypatch, "run")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["simulate", "--config", str(paper_config_path), "--out", str(out), "--mode", mode],
        )
        assert result.exit_code == 0, result.output
        (bundle,) = bundles
        report = bundle.spectrum_report
        assert report.sidelobes or mode == "ideal"
        expected = [
            f"mode: {mode}",
            f"peak: {report.peak_frequency:.4f} Hz",
            f"mainlobe width (-3 dB): {report.mainlobe_width_3db:.4f} Hz",
        ]
        for lobe in report.sidelobes:
            offset = lobe.frequency - report.peak_frequency
            expected.append(
                f"sidelobe: {lobe.frequency:.4f} Hz ({offset:+.4f}) {lobe.ratio_db:.2f} dB"
            )
        expected.append(f"artifacts: {len(bundle.manifest)} files in {out}")
        assert result.stdout.splitlines() == expected

    def test_compare_prints_the_returned_rows(
        self, runner, paper_config_path, tmp_path, monkeypatch
    ):
        returned = self.recording(monkeypatch, "run_compare")
        result = runner.invoke(
            main, ["compare", "--config", str(paper_config_path), "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        (rows,) = returned
        expected = ["mode     peak_hz    width_hz   strongest_sidelobe_db"]
        for row in rows:
            strongest = (
                "-" if row.strongest_sidelobe_db is None else f"{row.strongest_sidelobe_db:.2f}"
            )
            expected.append(
                f"{row.mode:<8} {row.peak_frequency:<10.4f} "
                f"{row.mainlobe_width_3db:<10.4f} {strongest}"
            )
        assert result.stdout.splitlines() == expected

    @pytest.mark.parametrize("name", ["paper.cfg", "paper_phase.cfg"])
    def test_simulate_prints_compares_width(self, runner, paper_config_path, tmp_path, name):
        """Both commands print the mode's observation-window width, never
        the record spectrum's mainlobe, which would read finer than ideal."""
        config = str(paper_config_path.parent / name)
        result = runner.invoke(main, ["compare", "--config", config, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        widths = {line.split()[0]: line.split()[2] for line in result.stdout.splitlines()[1:]}
        for mode in cli.MODES:
            out = str(tmp_path / mode)
            result = runner.invoke(
                main, ["simulate", "--config", config, "--out", out, "--mode", mode]
            )
            assert result.exit_code == 0, result.output
            assert f"mainlobe width (-3 dB): {widths[mode]} Hz" in result.stdout.splitlines()

    def test_run_reports_the_compare_readout(self, paper_config_path, tmp_path):
        config = lab.load_config(paper_config_path)
        rows = {row.mode: row for row in run_compare(config, tmp_path / "cmp")}
        for mode in cli.MODES:
            bundle = run(config, mode, tmp_path / mode)
            assert bundle.spectrum_report == rows[mode].report, mode
            strongest = max((lobe.ratio_db for lobe in bundle.spectrum_report.sidelobes), default=None)
            assert rows[mode].strongest_sidelobe_db == strongest
            assert rows[mode].peak_frequency == bundle.spectrum_report.peak_frequency
        assert cli.CompareRow is cli.Readout

    @pytest.mark.parametrize("case", ["settle", "window"])
    @pytest.mark.parametrize(
        "command",
        [["simulate", "--mode", mode] for mode in cli.MODES] + [["compare"]],
        ids=[f"simulate-{mode}" for mode in cli.MODES] + ["compare"],
    )
    def test_empty_analysis_window_exits_2(
        self, runner, empty_window_configs, tmp_path, case, command
    ):
        out = tmp_path / "o"
        result = runner.invoke(
            main, [*command, "--config", str(empty_window_configs[case]), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "configuration error: lowpass.taps:" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("taps, code", [(1279, 2), (1201, 0)])
    @pytest.mark.parametrize(
        "command",
        [["simulate", "--mode", mode] for mode in cli.MODES] + [["compare"]],
        ids=[f"simulate-{mode}" for mode in cli.MODES] + ["compare"],
    )
    def test_windows_short_of_three_band_bins_exit_2(
        self, runner, short_window_config, tmp_path, command, taps, code
    ):
        out = tmp_path / "o"
        result = runner.invoke(
            main, [*command, "--config", str(short_window_config(taps)), "--out", str(out)]
        )
        assert result.exit_code == code, result.output
        if code:
            assert "configuration error: lowpass.taps:" in result.output
            assert not out.exists()

    @pytest.mark.parametrize(
        "command, factor, on_last_bin, code",
        [(["simulate", "--mode", mode], 1, False, 2) for mode in cli.MODES]
        + [(["compare"], 1, False, 2), (["compare"], 4, False, 2), (["compare"], 4, True, 0)],
        ids=[f"simulate-{mode}" for mode in cli.MODES]
        + ["compare", "compare-nyquist", "compare-loads"],
    )
    def test_band_past_the_last_bin_exits_2(
        self, runner, band_high_config, tmp_path, command, factor, on_last_bin, code
    ):
        """At pad factor 1 every mode used to load and then exit 3 in
        ``find_peak``; at 4 Nyquist lies past the ctfm window's last bin,
        and a band that ends on it loads."""
        config = band_high_config(factor, on_last_bin)
        out = tmp_path / "o"
        result = runner.invoke(main, [*command, "--config", str(config), "--out", str(out)])
        assert result.exit_code == code, result.output
        if code:
            assert "configuration error: spectrum.band_high:" in result.output
            assert not out.exists()
