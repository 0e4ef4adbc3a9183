import dataclasses
import importlib.util
import math
import re
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ctfm_lab as lab
from ctfm_lab import cli
from ctfm_lab import config as config_module
from ctfm_lab.config import derive, parse_config, serialize_config


MINIMAL = """
tx.f_start = 100
tx.f_end = 200
tx.duration = 0.3
lo.f_end = 240
lo.duration = 0.12
cycles = 12
echoes.0.delay = 0.096
"""


class TestParseConfig:
    def test_shipped_spectrum_config(self, paper_config_path):
        config = lab.load_config(paper_config_path)
        assert config.tx == lab.ChirpSpec(100.0, 200.0, 0.3, 0.0)
        assert config.lo_f_end == 240.0
        assert config.lo_duration == 0.12
        assert config.cycles == 12
        assert config.echoes == (lab.Echo(0.096, 1.0),)
        assert config.sample_rate == 4000.0
        assert config.lowpass.cutoff == 50.0
        assert config.lowpass.tap_count == 257
        assert config.zero_pad_factor == 4
        assert config.band == (10.0, 50.0)
        assert config.sound_speed == 1500.0

    def test_a_leading_byte_order_mark_is_read_past(self, paper_config_path, tmp_path):
        marked = tmp_path / "paper.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + paper_config_path.read_bytes())
        expected = serialize_config(lab.load_config(paper_config_path))
        assert serialize_config(lab.load_config(marked)) == expected

    def test_shipped_ledger_config(self, paper_phase_config_path):
        config = lab.load_config(paper_phase_config_path)
        assert config.echoes == (lab.Echo(0.093, 1.0),)

    def test_defaults_applied(self):
        config = parse_config(MINIMAL)
        assert config.tx.phase0 == 0.0
        assert config.sample_rate == 4000.0
        assert config.lowpass.tap_count == 257
        assert config.band == (10.0, 50.0)
        assert config.echoes[0].amplitude == 1.0

    def test_derived_schedule_and_scene(self):
        config = parse_config(MINIMAL)
        schedule = config.schedule
        assert schedule.lo.f_start == 200.0
        assert schedule.cycles == 12
        assert config.scene.sound_speed == 1500.0

    def test_loaded_schedule_and_scene_are_kept(self, paper_config_path, monkeypatch):
        """Reading them builds nothing: they are the objects the loader validated."""
        config = lab.load_config(paper_config_path)
        calls = []

        def counted(factory):
            def build(*args, **kwargs):
                calls.append(factory.__name__)
                return factory(*args, **kwargs)

            return build

        monkeypatch.setattr("ctfm_lab.config.make_schedule", counted(lab.make_schedule))
        monkeypatch.setattr("ctfm_lab.config.Scene", counted(lab.Scene))
        schedule, scene = config.schedule, config.scene
        assert config.schedule is schedule and config.scene is scene
        assert calls == []
        assert (schedule.cycles, scene.echoes) == (12, config.echoes)

    def test_a_replaced_copy_builds_its_own_schedule_and_scene(self, paper_config_path):
        config = lab.load_config(paper_config_path)
        assert (config.schedule.cycles, len(config.scene.echoes)) == (12, 1)  # read first
        copy = dataclasses.replace(config, cycles=5, echoes=(lab.Echo(0.05, 0.5),))
        assert copy.schedule.cycles == 5
        assert copy.scene.echoes == (lab.Echo(0.05, 0.5),)
        assert copy.schedule == lab.make_schedule(config.tx, config.lo_f_end, config.lo_duration, 5)

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL + "\nsound_speed = 340 # inline\n"
        assert parse_config(text).sound_speed == 340.0

    def test_unknown_key_named(self):
        with pytest.raises(lab.ConfigLoadError, match="unknown key"):
            parse_config(MINIMAL + "\nturbo = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(lab.ConfigLoadError, match="duplicate"):
            parse_config(MINIMAL + "\ncycles = 12\n")

    def test_missing_required_key_named(self):
        for key in ("tx.f_start", "tx.f_end", "tx.duration", "lo.f_end", "lo.duration", "cycles"):
            lines = [line for line in MINIMAL.splitlines() if not line.startswith(key + " ")]
            with pytest.raises(lab.ConfigLoadError, match=key) as excinfo:
                parse_config("\n".join(lines))
            assert excinfo.value.field == key
            assert "missing required key" in str(excinfo.value)

    def test_malformed_line(self):
        with pytest.raises(lab.ConfigLoadError, match="key = value"):
            parse_config(MINIMAL + "\nnot a pair\n")

    def test_non_numeric_value(self):
        with pytest.raises(lab.ConfigLoadError, match="number"):
            parse_config(MINIMAL.replace("0.096", "fast"))

    def test_integer_fields_reject_fractions(self):
        for key, value in [("cycles", "11.5"), ("lowpass.taps", "257.0"), ("spectrum.zero_pad_factor", "4.5")]:
            lines = [line for line in MINIMAL.splitlines() if not line.startswith(key + " ")]
            with pytest.raises(lab.ConfigLoadError, match="integer") as excinfo:
                parse_config("\n".join(lines) + f"\n{key} = {value}\n")
            assert excinfo.value.field == key

    def test_at_least_one_echo(self):
        text = MINIMAL.replace("echoes.0.delay = 0.096", "")
        with pytest.raises(lab.ConfigLoadError, match="at least one echo"):
            parse_config(text)

    def test_echo_indices_contiguous(self):
        with pytest.raises(lab.ConfigLoadError, match="contiguous"):
            parse_config(MINIMAL + "\nechoes.2.delay = 0.05\n")

    @pytest.mark.parametrize(
        "lines, key",
        [
            (["echoes.00.delay = 0.05"], "echoes.00.delay"),
            (["echoes.01.delay = 0.05"], "echoes.01.delay"),
            (["echoes.1.delay = 0.05", "echoes.01.amplitude = 0.3"], "echoes.01.amplitude"),
            (["echoes.1.delay = 0.05", "echoes.\u0661.amplitude = 0.3"], "echoes.\u0661.amplitude"),
            (["echoes.\u00b2.delay = 0.05"], "echoes.\u00b2.delay"),
        ],
        ids=["00", "01-delay", "01-amplitude", "arabic-indic-1", "superscript-2"],
    )
    def test_non_canonical_echo_index_is_an_unknown_key(self, lines, key):
        """Only plain ASCII decimal without a leading zero names an echo:
        another spelling would map onto a canonical key or be dropped."""
        with pytest.raises(lab.ConfigLoadError) as excinfo:
            parse_config(MINIMAL + "\n".join(lines) + "\n")
        assert excinfo.value.field == key
        assert "unknown key" in str(excinfo.value)

    def test_canonical_echo_index_past_a_gap_is_not_contiguous(self):
        with pytest.raises(lab.ConfigLoadError, match=r"contiguous from 0, got \[0, 10\]"):
            parse_config(MINIMAL + "echoes.10.delay = 0.05\n")

    def test_echo_delay_bounded_by_the_sweep(self):
        text = MINIMAL.replace("echoes.0.delay = 0.096", "echoes.0.delay = 0.35")
        with pytest.raises(lab.ConfigLoadError, match="echo delay must be <"):
            parse_config(text)

    def test_oscillator_start_is_not_configurable(self):
        with pytest.raises(lab.ConfigLoadError, match="not configurable"):
            parse_config(MINIMAL + "\nlo.f_start = 210\n")

    def test_oscillator_phase_is_not_configurable(self):
        with pytest.raises(lab.ConfigLoadError, match="not configurable"):
            parse_config(MINIMAL + "\nlo.phase0 = 0\n")

    def test_slope_mismatch_reported_on_the_lo_field(self):
        text = MINIMAL.replace("lo.f_end = 240", "lo.f_end = 300")
        with pytest.raises(lab.ConfigLoadError, match="lo.f_end: must be 240.0, ") as excinfo:
            parse_config(text)
        assert excinfo.value.field == "lo.f_end"

    def test_no_echo_is_a_missing_first_delay(self):
        with pytest.raises(lab.ConfigLoadError, match="missing required key") as excinfo:
            parse_config(MINIMAL.replace("echoes.0.delay = 0.096", ""))
        assert excinfo.value.field == "echoes.0.delay"

    @pytest.mark.parametrize(
        "phase0, loads",
        [(8388607, True), (-8388607.999999999, True), (8388608, False), (-8388608, False),
         (1e17, False)],
    )
    def test_phase0_is_held_to_the_continuity_tolerance(self, phase0, loads):
        """At |phase0| >= 2**23 rad float64 spaces the phase by more than the
        1e-9 rad continuity tolerance, so the sweeps lose their phase."""
        text = MINIMAL + f"tx.phase0 = {phase0!r}\n"
        if loads:
            assert parse_config(text).tx.phase0 == phase0
            return
        with pytest.raises(lab.ConfigLoadError, match="below 2\\*\\*23 rad") as excinfo:
            parse_config(text)
        assert excinfo.value.field == "tx.phase0"

    def test_infeasible_cutoff_rejected_at_load(self):
        with pytest.raises(lab.ConfigLoadError, match="feasible"):
            parse_config(MINIMAL + "\nlowpass.cutoff = 39\n")

    def test_undersampled_rate_rejected(self):
        with pytest.raises(lab.ConfigLoadError, match="sample_rate"):
            parse_config(MINIMAL + "\nsample_rate = 900\n")

    def test_band_ordering_enforced(self):
        with pytest.raises(lab.ConfigLoadError, match="band"):
            parse_config(MINIMAL + "\nspectrum.band_low = 60\n")

    @pytest.mark.parametrize("delay", ["0.1200001", "0.15", "0.29"])
    def test_first_echo_delay_past_the_oscillator_window_rejected(self, delay, tmp_path):
        """Below the period but past lo.duration: the handoff ledger every
        mode reports cannot exist, so the loader names the key and the bound."""
        path = tmp_path / "late.cfg"
        path.write_text(MINIMAL.replace("0.096", delay))
        with pytest.raises(lab.ConfigLoadError) as excinfo:
            lab.load_config(path)
        assert excinfo.value.field == "echoes.0.delay"
        assert "must not exceed the oscillator window 0.12 s" in str(excinfo.value)

    def test_first_echo_delay_at_the_oscillator_window_accepted(self):
        assert parse_config(MINIMAL.replace("0.096", "0.12")).echoes[0].delay == 0.12

    def test_later_echoes_may_pass_the_oscillator_window(self):
        config = parse_config(MINIMAL + "echoes.1.delay = 0.2\n")
        assert config.echoes[1].delay == 0.2

    def test_cycles_lower_bound(self):
        with pytest.raises(lab.ConfigLoadError, match="cycles"):
            parse_config(MINIMAL.replace("cycles = 12", "cycles = 1"))


class TestNonFiniteValues:
    """nan and inf load nowhere: each is refused under its own key."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["sound_speed", "sample_rate"])
    def test_refused_under_the_key(self, key, value):
        with pytest.raises(lab.ConfigLoadError) as excinfo:
            parse_config(MINIMAL + f"{key} = {value}\n")
        assert excinfo.value.field == key
        assert "finite" in str(excinfo.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        [
            "tx.f_start", "tx.f_end", "tx.duration", "tx.phase0", "lo.f_end",
            "lo.duration", "echoes.0.delay", "echoes.0.amplitude", "sample_rate",
            "lowpass.cutoff", "spectrum.band_low", "spectrum.band_high", "sound_speed",
        ],
    )
    def test_every_number_key_refuses_them(self, key, value):
        lines = [line for line in MINIMAL.splitlines() if not line.startswith(key + " ")]
        with pytest.raises(lab.ConfigLoadError):
            parse_config("\n".join(lines) + f"\n{key} = {value}\n")


class TestValueGrammar:
    """Values are plain ASCII decimal, the grammar ``serialize_config``
    writes: other spellings that ``int()`` or ``float()`` take are refused
    under the key as written."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("cycles", "1_2"),
            ("sound_speed", "1_500.0"),
            ("echoes.0.delay", "0.0_96"),
            ("cycles", "\u0661\u0662"),
            ("sound_speed", "\u0661\u0665\u0660\u0660"),
            ("lowpass.taps", "\uff12\uff15\uff17"),
            ("sound_speed", "\uff11\uff15\uff10\uff10"),
            ("sound_speed", "1e999"),
            ("sound_speed", "Infinity"),
        ],
        ids=["underscore-int", "underscore-float", "underscore-fraction",
             "arabic-indic-int", "arabic-indic-float", "fullwidth-int",
             "fullwidth-float", "overflow", "infinity"],
    )
    def test_refused_under_the_key(self, key, value):
        lines = [line for line in MINIMAL.splitlines() if not line.startswith(key + " ")]
        with pytest.raises(lab.ConfigLoadError) as excinfo:
            parse_config("\n".join(lines) + f"\n{key} = {value}\n")
        assert excinfo.value.field == key
        assert f"got {value!r}" in str(excinfo.value)

    @pytest.mark.parametrize("value", ["1500", "+1500", "1500.", "1.5e3", ".15E+4", "15000e-1"])
    def test_plain_decimal_spellings_load(self, value):
        assert parse_config(MINIMAL + f"sound_speed = {value}\n").sound_speed == 1500.0

    def test_exponent_texts_round_trip(self):
        config = parse_config(MINIMAL + "tx.phase0 = 1e-05\nechoes.0.amplitude = -2.5e-07\n")
        text = serialize_config(config)
        assert "tx.phase0 = 1e-05\n" in text and "echoes.0.amplitude = -2.5e-07\n" in text
        assert parse_config(text) == config


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self, paper_config_path):
        config = lab.load_config(paper_config_path)
        assert parse_config(serialize_config(config)) == config

    def test_round_trip_preserves_multiple_echoes(self):
        config = parse_config(
            MINIMAL + "\nechoes.1.delay = 0.11\nechoes.1.amplitude = -0.5\n"
        )
        again = parse_config(serialize_config(config))
        assert again == config
        assert again.echoes[1] == lab.Echo(0.11, -0.5)

    def test_every_key_round_trips_in_the_canonical_order(self):
        """Every optional key off its default, and echo 1's amplitude left
        to its default, read in scrambled order and written in table order."""
        config = parse_config(
            "sound_speed = 343\nechoes.2.amplitude = -0.5\nspectrum.band_high = 45\n"
            "cycles = 12\nechoes.1.delay = 0.05\nlowpass.taps = 255\ntx.phase0 = 0.25\n"
            "spectrum.band_low = 12.5\nechoes.0.amplitude = 0.8\ntx.f_start = 100\n"
            "spectrum.zero_pad_factor = 8\nlo.duration = 0.12\nsample_rate = 8000\n"
            "echoes.2.delay = 0.2\ntx.f_end = 200\nlowpass.cutoff = 45\n"
            "echoes.0.delay = 0.096\ntx.duration = 0.3\nlo.f_end = 240\n"
        )
        text = serialize_config(config)
        assert text == (
            "tx.f_start = 100.0\n"
            "tx.f_end = 200.0\n"
            "tx.duration = 0.3\n"
            "tx.phase0 = 0.25\n"
            "lo.f_end = 240.0\n"
            "lo.duration = 0.12\n"
            "cycles = 12\n"
            "echoes.0.delay = 0.096\n"
            "echoes.0.amplitude = 0.8\n"
            "echoes.1.delay = 0.05\n"
            "echoes.1.amplitude = 1.0\n"
            "echoes.2.delay = 0.2\n"
            "echoes.2.amplitude = -0.5\n"
            "sample_rate = 8000.0\n"
            "lowpass.cutoff = 45.0\n"
            "lowpass.taps = 255\n"
            "spectrum.zero_pad_factor = 8\n"
            "spectrum.band_low = 12.5\n"
            "spectrum.band_high = 45.0\n"
            "sound_speed = 343.0\n"
        )
        assert parse_config(text) == config


# (key, value, the key the loader names): single values of ``paper.cfg``
# outside the range of their sweep or echo, each refused under a key.
OUT_OF_RANGE = [
    ("tx.duration", 0, "tx.duration"),
    ("tx.f_start", -1, "tx.f_start"),
    ("tx.f_end", -1, "tx.f_end"),
    ("tx.phase0", 1e17, "tx.phase0"),
    ("tx.duration", 1e308, "tx.duration"),  # the sweep's end phase overflows
    ("lo.duration", 0, "lo.duration"),
    ("lo.duration", 0.5, "lo.duration"),
    ("lo.f_end", -5, "lo.f_end"),
    ("tx.f_end", 300, "lo.f_end"),
    ("echoes.0.delay", -0.01, "echoes.0.delay"),
]


class TestDerive:
    """``derive`` edits the canonical text and loads it, so a derived
    configuration is the one its file edit would load, and a refusal is the
    loader's own."""

    @pytest.fixture(scope="class")
    def paper(self, paper_config_path):
        return lab.load_config(paper_config_path)

    @pytest.mark.parametrize("name", ["paper.cfg", "paper_phase.cfg"])
    def test_no_values_is_the_same_configuration(self, paper_config_path, name):
        config = lab.load_config(paper_config_path.with_name(name))
        assert serialize_config(derive(config, {})) == serialize_config(config)

    def test_delay_lattice_matches_its_text_edit(self, paper, paper_config_path):
        """The 41 delays of ``tests/test_delay_lattice.py``, against the
        regular-expression edit of ``paper.cfg`` they were built by."""
        text = paper_config_path.read_text()
        for ms in range(80, 121):
            line = f"echoes.0.delay = {ms / 1000}"
            edited = re.sub(r"^echoes\.0\.delay = .*$", line, text, flags=re.M)
            derived = derive(paper, {"echoes.0.delay": ms / 1000})
            assert serialize_config(derived) == serialize_config(parse_config(edited)), ms

    def test_no_other_key_is_adjusted(self, paper):
        """Doubling B at a fixed cutoff fails the cutoff check; the cutoff
        stays at 50 Hz."""
        with pytest.raises(lab.ConfigLoadError) as excinfo:
            derive(paper, {"tx.f_end": 300, "lo.f_end": 380})
        assert excinfo.value.field == "lowpass.cutoff"
        assert "cutoff 50.0 Hz outside the feasible interval (80.0, 120.0) Hz" in str(
            excinfo.value
        )

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("bogus", 1.0, "bogus"),
            ("lo.f_start", 100.0, "lo.f_start"),
            ("cycles", "1_2", "cycles"),
            ("tx.f_end", float("nan"), "tx.f_end"),
            ("echoes.2.delay", 0.05, "echoes.1.delay"),
            ("echoes.0.amplitude", 0, "echoes.0.amplitude"),
            ("lowpass.taps", 4, "lowpass.taps"),
            ("lowpass.cutoff", -1.0, "lowpass.cutoff"),
            *OUT_OF_RANGE,
        ],
        ids=["unknown", "derived", "underscore", "nan", "echo-gap", "silent", "even-taps",
             "negative-cutoff", *(f"{key}={value}" for key, value, _ in OUT_OF_RANGE)],
    )
    def test_refusal_is_the_loaders(self, paper, key, value, field):
        """Each refusal is the one the loader gives the edited file."""
        lines = serialize_config(paper).splitlines()
        edited = [line for line in lines if not line.startswith(key + " ")]
        with pytest.raises(lab.ConfigLoadError) as loaded:
            parse_config("\n".join(edited) + f"\n{key} = {value}\n")
        with pytest.raises(lab.ConfigLoadError) as excinfo:
            derive(paper, {key: value})
        assert excinfo.value.field == loaded.value.field == field
        assert str(excinfo.value) == str(loaded.value)

    def test_a_zero_amplitude_beside_a_nonzero_one_loads(self, paper):
        config = derive(paper, {"echoes.0.amplitude": 0, "echoes.1.delay": 0.06})
        assert config.echoes == (lab.Echo(0.096, 0.0), lab.Echo(0.06, 1.0))

    @pytest.mark.parametrize(
        "values, field",
        [
            ({"echoes.1.delay": 0.096, "echoes.1.amplitude": -1.0}, "echoes.1.amplitude"),
            (
                {
                    "echoes.0.amplitude": 0.5,
                    "echoes.1.delay": 0.096,
                    "echoes.1.amplitude": 0.25,
                    "echoes.2.delay": 0.096,
                    "echoes.2.amplitude": -0.75,
                },
                "echoes.2.amplitude",
            ),
            (
                {
                    "echoes.1.delay": 0.06,
                    "echoes.1.amplitude": 0.0,
                    "echoes.2.delay": 0.096,
                    "echoes.2.amplitude": -1.0,
                },
                "echoes.2.amplitude",
            ),
        ],
        ids=["opposite-pair", "three-way", "cancel-beside-a-silent-echo"],
    )
    def test_echoes_that_cancel_at_every_delay_are_refused(self, paper, values, field):
        """Amplitudes summing to exactly zero at each delay leave no signal:
        the loader refuses them, as it refuses a single zero amplitude."""
        with pytest.raises(lab.ConfigLoadError, match="sum to zero at every delay") as excinfo:
            derive(paper, values)
        assert excinfo.value.field == field

    def test_a_record_too_long_to_count_is_refused(self, paper, paper_config_path, tmp_path):
        """A 1e305 s sweep continued to ``lo.f_end = 200`` ends on a finite
        phase, but its record's sample count overflows: the loader refuses
        it under ``tx.duration``, and ``simulate`` exits 2."""
        values = {"tx.duration": 1e305, "lo.f_end": 200}
        with pytest.raises(lab.ConfigLoadError, match="sample count is finite") as excinfo:
            derive(paper, values)
        assert excinfo.value.field == "tx.duration"
        text = paper_config_path.read_text()
        for key, value in values.items():
            text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
        path = tmp_path / "long.cfg"
        path.write_text(text)
        result = CliRunner().invoke(
            cli.main, ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2, result.output
        assert "tx.duration" in result.output

    @pytest.mark.parametrize(
        "key, value",
        [("cycles", 10**15), ("spectrum.zero_pad_factor", 10**16), ("sample_rate", 1e17)],
    )
    def test_a_transform_too_large_to_index_is_refused(self, paper, key, value):
        """The ideal window's width transform, 64 times the record, has more
        bins than ``sys.maxsize``: ``band_bins`` failed with an
        ``OverflowError``, and the loader now refuses the record under
        ``tx.duration``, as it refuses one too long to count."""
        with pytest.raises(lab.ConfigLoadError, match="more than sys.maxsize") as excinfo:
            derive(paper, {key: value})
        assert excinfo.value.field == "tx.duration"
        assert "lower cycles, sample_rate or zero_pad_factor" in str(excinfo.value)

    def test_a_long_record_that_can_be_indexed_loads(self, paper):
        assert derive(paper, {"cycles": 30000}).cycles == 30000

    def test_compare_refuses_a_transform_too_large_to_index(self, paper_config_path, tmp_path):
        text = re.sub(
            r"^sample_rate = .*$", "sample_rate = 1e20", paper_config_path.read_text(), flags=re.M
        )
        path = tmp_path / "fast.cfg"
        path.write_text(text)
        result = CliRunner().invoke(
            cli.main, ["compare", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("configuration error: tx.duration: ")
        assert len(result.output.splitlines()) == 1, result.output

    def test_an_end_phase_that_overflows_is_refused_without_a_warning(self, paper):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lab.ConfigLoadError) as excinfo:
                derive(paper, {"tx.duration": "1e308"})
        assert excinfo.value.field == "tx.duration"

    def test_echoes_that_cancel_at_one_delay_beside_another_load(self, paper):
        values = {"echoes.1.delay": 0.096, "echoes.1.amplitude": -1.0, "echoes.2.delay": 0.06}
        config = derive(paper, values)
        assert [echo.amplitude for echo in config.echoes] == [1.0, -1.0, 1.0]

    def test_amplitudes_are_summed_exactly(self, paper):
        """0.1 + 0.2 - 0.3 is not zero in binary, exactly or rounded, and
        1e16 + 1 - 1e16 rounds to zero but is 1: both leave a signal."""
        for amplitudes in ((0.1, 0.2, -0.3), (1e16, 1.0, -1e16)):
            values = {}
            for n, amplitude in enumerate(amplitudes):
                values.update({f"echoes.{n}.delay": 0.096, f"echoes.{n}.amplitude": amplitude})
            assert [e.amplitude for e in derive(paper, values).echoes] == list(amplitudes)

    def test_a_new_echo_index_adds_an_echo(self, paper):
        config = derive(paper, {"echoes.1.delay": 0.06, "echoes.1.amplitude": 0.7})
        assert config.echoes == (lab.Echo(0.096, 1.0), lab.Echo(0.06, 0.7))
        assert derive(paper, {"echoes.1.delay": 0.06}).echoes[1] == lab.Echo(0.06, 1.0)


def benchmark_pools():
    """The seeded config pools of the benchmark's parse-bound workloads."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.AnalysisSweep, workloads.ReceiverLong


class TestAnalysisWindowBound:
    """A configuration that loads must run in every mode, so one whose
    settled record or observation windows hold no sample is refused."""

    @pytest.mark.parametrize("case", ["settle", "window"])
    def test_empty_analysis_window_rejected_at_load(self, empty_window_configs, case):
        with pytest.raises(lab.ConfigLoadError) as excinfo:
            lab.load_config(empty_window_configs[case])
        assert excinfo.value.field == "lowpass.taps"
        assert "analysis window is empty" in str(excinfo.value)

    @pytest.mark.parametrize("taps, loads", [(1279, False), (1201, True)])
    def test_windows_need_three_band_bins(self, short_window_config, taps, loads):
        """With 1279 taps the ctfm and ddctfm windows hold one sample, and
        their width transforms put no bin in the band; 1201 taps leave
        enough."""
        path = short_window_config(taps)
        if loads:
            assert lab.load_config(path).lowpass.tap_count == taps
            return
        with pytest.raises(lab.ConfigLoadError) as excinfo:
            lab.load_config(path)
        assert excinfo.value.field == "lowpass.taps"
        assert "0 transform bins in band (10.0, 50.0)" in str(excinfo.value)

    def test_spans_of_the_shipped_config(self, paper_config_path):
        spans = lab.load_config(paper_config_path).analysis_spans()
        settle = 256 / 8000 + 257 / 4000
        assert spans["record"] == spans["ideal"]
        assert spans["record"] == pytest.approx((settle, 3.6), abs=1e-12)
        start = 6 * 0.3 + 0.096 + 256 / 8000
        assert spans["ddctfm"] == pytest.approx((start, start + 0.3), abs=1e-12)
        assert spans["ctfm"] == pytest.approx((start, 7 * 0.3 + 256 / 8000), abs=1e-12)

    @pytest.mark.parametrize("pool", benchmark_pools(), ids=lambda pool: pool.name)
    def test_every_benchmark_config_for_seeds_1_to_10_loads(self, pool, tmp_path):
        for seed in range(1, 11):
            assert pool(seed, tmp_path, tmp_path).configs


@st.composite
def derived_values(draw):
    """Keys ``derive`` changes in ``paper.cfg``: a sweep of B over T with the
    oscillator on its slope, cycles, rate, filter, pad factor, band, and 1-3
    echoes, a pair of which may cancel exactly at one delay; one draw in ten
    sets a value of ``OUT_OF_RANGE`` or leaves a gap in the echo indices."""
    bandwidth = draw(st.floats(50.0, 400.0))
    period = draw(st.floats(0.1, 0.6))
    lo_duration = period * draw(st.floats(0.02, 0.45))  # a cutoff exists below T / 2
    f_end = 100.0 + bandwidth
    low, high = bandwidth * lo_duration / period, bandwidth * (1.0 - lo_duration / period)
    values = {
        "tx.f_end": f_end,
        "tx.duration": period,
        "lo.duration": lo_duration,
        "lo.f_end": f_end + bandwidth / period * lo_duration,
        "cycles": draw(st.integers(2, 12)),
        "sample_rate": draw(st.sampled_from(["4000", "4001", "4802", "8000"])),
        "lowpass.cutoff": low + (high - low) * draw(st.floats(0.05, 0.95)),
        "lowpass.taps": draw(st.integers(1, 256).map(lambda k: 2 * k + 1) | st.integers(3, 513)),
        "spectrum.zero_pad_factor": draw(st.integers(1, 8)),
    }
    width = draw(st.floats(0.5, 150.0))
    if draw(st.booleans()):  # a band ending at Nyquist
        nyquist = float(values["sample_rate"]) / 2.0
        band = (nyquist - width, nyquist)
    else:
        band = (draw(st.floats(0.0, 150.0)),)
        band += (band[0] + width,)
    values.update(zip(("spectrum.band_low", "spectrum.band_high"), band))
    amplitudes = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 1e-3])
    echoes = [(lo_duration * draw(st.floats(0.0, 1.1)), draw(amplitudes))]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):  # cancels the echo before it exactly
            echoes.append((echoes[-1][0], -echoes[-1][1]))
        else:
            echoes.append((period * draw(st.floats(0.0, 1.0)), draw(amplitudes)))
    for n, (delay, amplitude) in enumerate(echoes):
        values.update({f"echoes.{n}.delay": delay, f"echoes.{n}.amplitude": amplitude})
    if draw(st.integers(0, 9)) == 0:  # one value out of its range, or an echo gap
        key, value, _ = draw(st.sampled_from([*OUT_OF_RANGE, ("echoes.4.delay", 0.05, None)]))
        values[key] = value
    return values


class TestLoadOrRefuse:
    """A configuration that loads runs in every mode: each draw is refused
    under a key of the key table or an echo key, or ``measure`` reads finite
    peaks and widths on the grids the loader checked."""

    @given(values=derived_values())
    @settings(max_examples=150, deadline=None)
    def test_a_derived_config_loads_and_runs_or_names_its_key(self, paper_config_path, values):
        try:
            config = derive(lab.load_config(paper_config_path), values)
        except lab.ConfigLoadError as exc:
            event(f"refused: {exc.field}")
            assert exc.field in config_module._KEYS or config_module._ECHO_KEY.fullmatch(
                exc.field or ""
            ), exc
            return
        event("ran")
        for readout in cli.measure(config, cli.MODES).readouts:
            assert math.isfinite(readout.peak_frequency), readout.mode
            assert math.isfinite(readout.mainlobe_width_3db), readout.mode


class TestBandHighBound:
    """``find_peak`` refuses a band reaching past its grid's last bin, so
    the loader holds ``spectrum.band_high`` to every readout grid's."""

    def test_band_past_the_records_last_bin_rejected(self, band_high_config):
        with pytest.raises(lab.ConfigLoadError) as excinfo:
            lab.load_config(band_high_config(1))
        assert excinfo.value.field == "spectrum.band_high"
        assert "last bin (1999.857" in str(excinfo.value)
        assert "record analysis window" in str(excinfo.value)

    def test_band_on_the_last_bin_loads(self, band_high_config):
        config = lab.load_config(band_high_config(4, on_last_bin=True))
        assert config.band == (10.0, 1999.9999999999998)

    def test_nyquist_past_a_windows_last_bin_rejected(self, band_high_config):
        """At pad factor 4 the record's grid reaches 2000 Hz, but the ctfm
        window's 64 x 816-point width grid ends one ulp under it."""
        with pytest.raises(lab.ConfigLoadError) as excinfo:
            lab.load_config(band_high_config(4))
        assert excinfo.value.field == "spectrum.band_high"
        assert "last bin (1999.9999999999998 Hz)" in str(excinfo.value)
        assert "ctfm analysis window's readout grid (816 samples)" in str(excinfo.value)
