"""The paper's claim that DD-CTFM's range resolution "is still limited by the
signal bandwidth", pinned as single-target delay accuracy: a law over sweep
bandwidth B, sweep period T and record length.  Two-target resolution, the
separation at which two echoes read as two peaks, is not tested here.

Each cell is ``paper.cfg`` with the keys of ``sweeps.CELLS`` changed by
``derive``, with one echo stepped over ``sweeps.DELAYS``, 80-120 ms in 2.5 ms
steps.  The delay error is |peak / rate - delay|, rate = B / T, as
``measure`` reads the peak.  The stitched output is T-periodic, so the ctfm
and ddctfm peaks lie on the comb n / T, a delay step of 1 / B: their worst
error is at most half a step, 1 / (2B), and over 17 delays it comes close to
it, whatever T and the number of cycles are.  The ideal beat has no comb.
Tolerances were fixed before the readouts were taken: 0.01 Hz of peak
(0.01 / rate in delay) above 1 / (2B) for ctfm and ddctfm, with 0.9 / (2B)
as the floor, and 0.01 Hz for ideal.
"""

import pytest

import ctfm_lab as lab
from sweeps import CELLS, worst_delay_errors

PEAK_TOL_HZ = 0.01
FLOOR = 0.9  # least worst error of ctfm and ddctfm, in units of 1 / (2B)

CELL_IDS = [f"B{b}-T{t}-c{c}" for b, t, c in CELLS]


@pytest.fixture(scope="module")
def errors(paper_config_path):
    """{(B, T, cycles): {mode: worst delay error in s}} over the lattice."""
    paper = lab.load_config(paper_config_path)
    worst = {}
    for cell, values in CELLS.items():
        config = lab.derive(paper, values)
        tx = config.tx
        assert (tx.f_end - tx.f_start, tx.duration, config.cycles) == cell
        worst[cell] = worst_delay_errors(config)
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
