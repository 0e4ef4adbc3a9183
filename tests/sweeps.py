"""The law tests' one derive -> measure loop, and the cells they share.

``CELLS`` holds the (B, T, cycles) variants of ``paper.cfg`` and ``DELAYS``
the echo lattice each is read over; ``sweep`` steps one key of a
configuration over values and reads each variant out through
``cli.measure``, and ``worst_delay_errors`` is the bandwidth law's
quantity.  ``tools/law_tables.py`` prints the README's law table from them.
"""

import ctfm_lab as lab
from ctfm_lab import cli

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

DELAYS = [(800 + 25 * i) / 10000 for i in range(17)]  # 80-120 ms


def sweep(config: lab.SimConfig, key: str, values, modes=cli.MODES):
    """``config`` with ``key`` set to each of ``values`` by ``derive``: one
    (config, {mode: Readout}, Measurement) per value, in order, each
    measured as it is drawn."""
    for value in values:
        variant = lab.derive(config, {key: value})
        state = cli.measure(variant, modes)
        yield variant, {readout.mode: readout for readout in state.readouts}, state


def worst_delay_errors(config: lab.SimConfig, delays=DELAYS) -> dict[str, float]:
    """{mode: worst |peak / rate - delay| in s} with ``config``'s first echo
    stepped over ``delays``; rate = B / T."""
    rate = lab.sweep_rate(config.tx)
    worst = dict.fromkeys(cli.MODES, 0.0)
    for delay, (_, by_mode, _) in zip(delays, sweep(config, "echoes.0.delay", delays)):
        for mode, readout in by_mode.items():
            worst[mode] = max(worst[mode], abs(readout.peak_frequency / rate - delay))
    return worst
