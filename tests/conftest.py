from pathlib import Path

import pytest

import ctfm_lab as lab
from ctfm_lab import spectrum, waveform
from oracles import (
    CYCLES,
    F_END,
    F_START,
    LEDGER_DELAY,
    LO_DURATION,
    LO_F_END,
    PERIOD,
    SAMPLE_RATE,
    SPECTRUM_DELAY,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def reference_schedule() -> lab.SweepSchedule:
    return lab.make_schedule(
        lab.ChirpSpec(F_START, F_END, PERIOD), LO_F_END, LO_DURATION, CYCLES
    )


@pytest.fixture(scope="session")
def grid_schedule():
    """Builds a 100 -> 200 Hz sweep over a given period, 0.1 s extension."""

    def build(period, cycles, phase0=0.0):
        tx = lab.ChirpSpec(F_START, F_END, period, phase0)
        return lab.make_schedule(tx, F_END + 10.0 / period, 0.1, cycles)

    return build


@pytest.fixture(scope="session")
def reference_lowpass() -> lab.LowpassSpec:
    return lab.LowpassSpec(cutoff=50.0, tap_count=257, sample_rate=SAMPLE_RATE)


@pytest.fixture(scope="session")
def reference_tx(reference_schedule) -> lab.SampledSignal:
    return lab.synthesize_transmit(reference_schedule, SAMPLE_RATE)


@pytest.fixture(scope="session")
def reference_lo(reference_schedule) -> lab.SampledSignal:
    return lab.synthesize_lo(reference_schedule, SAMPLE_RATE)


def _received(schedule, delay):
    return lab.synthesize_received(
        schedule, lab.Scene(echoes=(lab.Echo(delay=delay),)), SAMPLE_RATE
    )


@pytest.fixture(scope="session")
def received_096(reference_schedule) -> lab.SampledSignal:
    return _received(reference_schedule, SPECTRUM_DELAY)


@pytest.fixture(scope="session")
def received_093(reference_schedule) -> lab.SampledSignal:
    return _received(reference_schedule, LEDGER_DELAY)


@pytest.fixture(scope="session")
def demod_096(
    reference_tx, reference_lo, received_096, reference_lowpass
) -> lab.DemodOutput:
    return lab.demodulate(reference_tx, reference_lo, received_096, reference_lowpass)


@pytest.fixture(scope="session")
def demod_093(
    reference_tx, reference_lo, received_093, reference_lowpass
) -> lab.DemodOutput:
    return lab.demodulate(reference_tx, reference_lo, received_093, reference_lowpass)


@pytest.fixture(scope="session")
def settled_sum_096(demod_096, reference_lowpass) -> lab.SampledSignal:
    """The dual-channel sum with the filter settling prefix removed."""
    start = reference_lowpass.group_delay + reference_lowpass.impulse_duration
    signal = demod_096.sum
    return lab.time_slice(signal, start, signal.duration)


@pytest.fixture(scope="session")
def spectrum_096(settled_sum_096) -> lab.Spectrum:
    return lab.dft_magnitude(settled_sum_096, 4)


@pytest.fixture(scope="session")
def paper_config_path() -> Path:
    return CONFIG_DIR / "paper.cfg"


@pytest.fixture(scope="session")
def paper_phase_config_path() -> Path:
    return CONFIG_DIR / "paper_phase.cfg"


# Two-cycle 100 -> 200 Hz configurations whose analysis windows hold no
# sample of the 0.6 s record.  "settle": the filter's delay plus ring-in,
# 0.67525 s, outlasts the record.  "window": the mid-record windows start at
# T + delay + group delay = 0.61 s, past it, though the settled record exists.
EMPTY_WINDOW_KEYS = {
    "settle": "lo.f_end = 240\nlo.duration = 0.12\nechoes.0.delay = 0.1\nlowpass.taps = 1801\n",
    "window": (
        "lo.f_end = 248.33333333333334\nlo.duration = 0.145\n"
        "echoes.0.delay = 0.14\nlowpass.taps = 1361\n"
    ),
}


@pytest.fixture(scope="session")
def empty_window_configs(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("empty-windows")
    paths = {}
    for name, keys in EMPTY_WINDOW_KEYS.items():
        paths[name] = root / f"{name}.cfg"
        paths[name].write_text(
            "tx.f_start = 100\ntx.f_end = 200\ntx.duration = 0.3\ncycles = 2\n" + keys
        )
    return paths


@pytest.fixture(scope="session")
def short_window_config(tmp_path_factory):
    """The "window" configuration with a given filter length: 1279 taps
    leave the ctfm and ddctfm windows one sample, 1201 taps enough."""
    root = tmp_path_factory.mktemp("short-windows")

    def build(taps: int) -> Path:
        path = root / f"taps-{taps}.cfg"
        keys = EMPTY_WINDOW_KEYS["window"].replace("1361", str(taps))
        path.write_text("tx.f_start = 100\ntx.f_end = 200\ntx.duration = 0.3\ncycles = 2\n" + keys)
        return path

    return build


def last_readout_bin(config: lab.SimConfig) -> float:
    """The lowest last bin of the readout grids ``config``'s walk reads: the
    record's at ``zero_pad_factor``, each window's at ``width_pad_factor``."""
    count, fs = waveform.sample_count(config.schedule, config.sample_rate), config.sample_rate
    tops = []
    for name, span in config.analysis_spans().items():
        i0, i1 = waveform._slice_indices(count, fs, *span)
        factor = config.zero_pad_factor if name == "record" else config.width_pad_factor
        _, size, freq = spectrum.readout_grid(i1 - i0, fs, factor)
        tops.append(freq(size - 1))
    return min(tops)


@pytest.fixture(scope="session")
def band_high_config(tmp_path_factory):
    """``paper.cfg`` with a given pad factor and ``spectrum.band_high`` at
    Nyquist, 2000 Hz, or on ``last_readout_bin``.  At 1 the record's odd
    14,015-point transform has no bin at Nyquist; at 4 its 56,060 points
    do, but the ctfm window's 52,224-point width grid ends one ulp under it,
    at 1999.9999999999998 Hz."""
    root = tmp_path_factory.mktemp("band-high")
    text = (CONFIG_DIR / "paper.cfg").read_text()

    def build(factor: int, on_last_bin: bool = False) -> Path:
        path = root / f"pad-{factor}-{'last-bin' if on_last_bin else 'nyquist'}.cfg"
        padded = text.replace(
            "spectrum.zero_pad_factor = 4", f"spectrum.zero_pad_factor = {factor}"
        )
        high = repr(last_readout_bin(lab.parse_config(padded))) if on_last_bin else "2000"
        path.write_text(padded.replace("spectrum.band_high = 50", f"spectrum.band_high = {high}"))
        return path

    return build
