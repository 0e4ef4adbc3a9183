"""The paper's claim that DD-CTFM's range resolution "is still limited by the
signal bandwidth", as a law over sweep bandwidth B, sweep period T and record
length.

Each cell is ``paper.cfg`` with the keys below changed by ``derive``, with one
echo stepped over 80-120 ms in 2.5 ms steps.  The delay error is
|peak / rate - delay|, rate = B / T, as ``measure`` reads the peak.  The
stitched output is T-periodic, so the ctfm and ddctfm peaks lie on the comb
n / T, a delay step of 1 / B: their worst error is at most half a step,
1 / (2B), and over 17 delays it comes close to it, whatever T and the number
of cycles are.  The ideal beat has no comb.  Tolerances were fixed before the
readouts were taken: 0.01 Hz of peak (0.01 / rate in delay) above 1 / (2B) for
ctfm and ddctfm, with 0.9 / (2B) as the floor, and 0.01 Hz for ideal.
"""

import pytest

import ctfm_lab as lab
from ctfm_lab import cli

PEAK_TOL_HZ = 0.01
FLOOR = 0.9  # least worst error of ctfm and ddctfm, in units of 1 / (2B)
DELAYS = [(800 + 25 * i) / 10000 for i in range(17)]  # 80-120 ms

# (B, T, cycles): keys changed in paper.cfg (B = 100 Hz, T = 0.3 s, 12 cycles).
# Each cell keeps lo.duration = 0.12 s on the sweep's slope and puts the
# lattice's beats, B / T * delay, inside the band and under the cutoff.
CELLS = {
    (100, 0.3, 12): {},
    (200, 0.3, 12): {
        "tx.f_end": 300, "lo.f_end": 380, "lowpass.cutoff": 100,
        "spectrum.band_low": 20, "spectrum.band_high": 100,
    },
    (100, 0.6, 12): {
        "tx.duration": 0.6, "lo.f_end": 220, "lowpass.cutoff": 25,
        "spectrum.band_low": 5, "spectrum.band_high": 25,
    },
    (100, 0.3, 6): {"cycles": 6},
    (100, 0.3, 24): {"cycles": 24},
}

CELL_IDS = [f"B{b}-T{t}-c{c}" for b, t, c in CELLS]


@pytest.fixture(scope="module")
def errors(paper_config_path):
    """{(B, T, cycles): {mode: worst delay error in s}} over the lattice."""
    paper = lab.load_config(paper_config_path)
    worst = {}
    for cell, values in CELLS.items():
        cell_config = lab.derive(paper, values)
        tx = cell_config.tx
        assert (tx.f_end - tx.f_start, tx.duration, cell_config.cycles) == cell
        rate = lab.sweep_rate(tx)
        worst[cell] = dict.fromkeys(cli.MODES, 0.0)
        for delay in DELAYS:
            config = lab.derive(cell_config, {"echoes.0.delay": delay})
            for readout in cli.measure(config, cli.MODES).readouts:
                error = abs(readout.peak_frequency / rate - delay)
                worst[cell][readout.mode] = max(worst[cell][readout.mode], error)
    return worst


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
@pytest.mark.parametrize("mode", ["ctfm", "ddctfm"])
def test_receiver_error_is_half_a_bandwidth_step(errors, cell, mode):
    """Neither a longer sweep nor more cycles beats 1 / (2B)."""
    bandwidth, period, _ = cell
    half_step = 1.0 / (2.0 * bandwidth)
    worst = errors[cell][mode]
    assert FLOOR * half_step <= worst <= half_step + PEAK_TOL_HZ * period / bandwidth, (
        f"{mode}: worst error {worst * 1e3:.4f} ms, 1/(2B) = {half_step * 1e3:.4f} ms"
    )


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_ideal_error_is_under_the_peak_tolerance(errors, cell):
    bandwidth, period, _ = cell
    assert errors[cell]["ideal"] <= PEAK_TOL_HZ * period / bandwidth
