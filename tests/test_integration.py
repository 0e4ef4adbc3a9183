"""End-to-end scenarios across synthesis, demodulation, and analysis."""

import pytest

import ctfm_lab as lab
from ctfm_lab.cli import run
from ctfm_lab.config import parse_config
from oracles import SAMPLE_RATE


def settled_sum(schedule, tx, lo, scene, lowpass):
    rx = lab.synthesize_received(schedule, scene, SAMPLE_RATE)
    out = lab.demodulate(tx, lo, rx, lowpass)
    start = lowpass.group_delay + lowpass.impulse_duration
    return lab.time_slice(out.sum, start, out.sum.duration)


class TestContinuityPositiveControl:
    """Delays whose handoff jump wraps to zero leave no artifacts at all.

    For the reference sweep the jump is wrap(-2*pi*(B*tau + 45)); whenever
    B*tau is an integer the stitched output is a genuinely continuous tone,
    so the spectrum must collapse to a single line exactly at the beat."""

    @pytest.mark.parametrize("tau", [0.02, 0.05, 0.08, 0.11])
    def test_integer_cycle_delays_leave_a_pure_tone(
        self, reference_schedule, reference_tx, reference_lo, reference_lowpass, tau
    ):
        jump = lab.boundary_jump(reference_schedule, tau, 1)
        assert abs(jump) < 1e-9
        record = settled_sum(
            reference_schedule,
            reference_tx,
            reference_lo,
            lab.Scene((lab.Echo(tau),)),
            reference_lowpass,
        )
        spec = lab.dft_magnitude(record, 4)
        peak = lab.find_peak(spec, (5.0, 45.0))
        beat = lab.beat_frequency(lab.sweep_rate(reference_schedule.tx), tau)
        assert peak.frequency == pytest.approx(beat, abs=0.05)
        report = lab.sidelobe_report(spec, peak, search_span=10.0, floor_db=-15.0)
        assert report.sidelobes == ()


class TestMultiEchoScene:
    def test_each_reflector_contributes_its_own_lines(
        self, reference_schedule, reference_tx, reference_lo, reference_lowpass
    ):
        """A continuous-beat echo at 60 ms dominates; the half-amplitude
        96 ms echo adds its comb lines around 32 Hz at reduced level."""
        scene = lab.Scene((lab.Echo(0.06, 1.0), lab.Echo(0.096, 0.5)))
        record = settled_sum(
            reference_schedule, reference_tx, reference_lo, scene, reference_lowpass
        )
        spec = lab.dft_magnitude(record, 4)
        peak = lab.find_peak(spec, (10.0, 50.0))
        assert peak.frequency == pytest.approx(20.0, abs=0.05)
        report = lab.sidelobe_report(spec, peak, search_span=15.0, floor_db=-15.0)
        frequencies = sorted(lobe.frequency for lobe in report.sidelobes)
        assert frequencies == pytest.approx([30.0, 100.0 / 3.0], abs=0.05)
        strongest = max(lobe.ratio_db for lobe in report.sidelobes)
        assert strongest == pytest.approx(-9.3, abs=1.0)


class TestAwkwardConfigurations:
    BASE = """
tx.f_start = 100
tx.f_end = 200
tx.duration = 0.3
lo.f_end = 240
lo.duration = 0.12
cycles = {cycles}
echoes.0.delay = {delay}
"""

    def test_delay_beyond_the_oscillator_window_is_a_config_error(self):
        """Below the period, but past the oscillator window no handoff ledger
        exists, so the loader rejects the delay instead of every mode failing
        later."""
        with pytest.raises(lab.ConfigLoadError) as excinfo:
            parse_config(self.BASE.format(cycles=12, delay=0.15))
        assert excinfo.value.field == "echoes.0.delay"
        assert "oscillator window 0.12 s" in str(excinfo.value)

    def test_delay_at_the_oscillator_window_runs(self, tmp_path):
        config = parse_config(self.BASE.format(cycles=12, delay=0.12))
        bundle = run(config, "ddctfm", tmp_path / "out")
        assert bundle.phase_report.discontinuities

    def test_minimal_two_cycle_run(self, tmp_path):
        config = parse_config(self.BASE.format(cycles=2, delay=0.096))
        bundle = run(config, "ddctfm", tmp_path / "out")
        assert len(bundle.phase_report.discontinuities) == 1

    def test_nonzero_initial_phase_shifts_nothing_that_matters(self, tmp_path):
        """The transmit initial phase cancels out of both channel
        differences, so the jump and the spectrum peak are unchanged."""
        base = parse_config(self.BASE.format(cycles=12, delay=0.096))
        rotated = parse_config(
            self.BASE.format(cycles=12, delay=0.096) + "tx.phase0 = 1.2345\n"
        )
        assert lab.boundary_jump(
            rotated.schedule, 0.096, 1
        ) == pytest.approx(lab.boundary_jump(base.schedule, 0.096, 1), abs=1e-9)
        bundle = run(rotated, "ddctfm", tmp_path / "out")
        assert bundle.spectrum_report.peak_frequency == pytest.approx(
            10.0 / 0.3, abs=0.05
        )
