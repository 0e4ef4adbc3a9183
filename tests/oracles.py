"""Independent reference calculations used to freeze expected test values.

Everything here is computed with exact rational arithmetic (or mpmath where
transcendental functions are needed) so the expectations do not inherit any
behavior from the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction


def frac(x) -> Fraction:
    """Exact decimal reading of a number ('0.093' -> 93/1000)."""
    return Fraction(str(x))


def sweep_phase_pi(f_start, f_end, duration, t_local, phase0_pi=0) -> Fraction:
    """Unwrapped sweep phase divided by pi, as an exact rational.

    phase/pi = phase0/pi + 2 * (f_start * t + (rate / 2) * t^2)
    """
    f_start, f_end, duration, t = map(frac, (f_start, f_end, duration, t_local))
    rate = (f_end - f_start) / duration
    return frac(phase0_pi) + 2 * (f_start * t + rate * t * t / 2)


def wrap_pi_units(phase_pi: Fraction) -> Fraction:
    """Reduce a phase (in pi units) to (-1, 1], exactly."""
    reduced = phase_pi % 2
    if reduced > 1:
        reduced -= 2
    return reduced


def cos_of_pi_units(phase_pi: Fraction) -> float:
    """cos(phase_pi * pi) evaluated after exact range reduction."""
    return math.cos(float(wrap_pi_units(phase_pi)) * math.pi)


# Reference sweep used throughout the suite: 100 -> 200 Hz over 0.3 s,
# oscillator extension 200 -> 240 Hz over 0.12 s, 12 cycles at 4 kHz.
F_START = 100.0
F_END = 200.0
PERIOD = 0.3
LO_F_END = 240.0
LO_DURATION = 0.12
CYCLES = 12
SAMPLE_RATE = 4000.0
SPECTRUM_DELAY = 0.096  # delay used for the spectrum study
LEDGER_DELAY = 0.093  # delay used for the phase-ledger walkthrough


# (period, sample rate) pairs whose period spans 1,200 samples, 1,200.5 (two
# cycles span whole samples) and fl(0.3 * 4001) = 1200.3000000000002, whose
# shortest whole-sample run of cycles is longer than any record.
SYNTHESIS_GRIDS = ((0.3, 4000.0), (0.25, 4802.0), (0.3, 4001.0))


def reference_ledger_pi() -> dict[str, Fraction]:
    """Exact ledger for the reference sweep with the 93 ms echo, in pi units."""
    tau = frac(LEDGER_DELAY)
    period = frac(PERIOD)
    tx_end = sweep_phase_pi(F_START, F_END, PERIOD, PERIOD)
    echo_at_end = sweep_phase_pi(F_START, F_END, PERIOD, period - tau)
    lo_initial = tx_end
    lo_at_handoff = sweep_phase_pi(
        F_END, LO_F_END, LO_DURATION, tau, phase0_pi=tx_end
    )
    tx_restarted = sweep_phase_pi(F_START, F_END, PERIOD, tau)
    echo_at_handoff = tx_end
    return {
        "tx phase at sweep end": tx_end,
        "echo phase at sweep end": echo_at_end,
        "lo initial phase": lo_initial,
        "channel 1 phase at sweep end": tx_end - echo_at_end,
        "channel 2 phase at sweep end": lo_initial - echo_at_end,
        "tx phase at handoff (restarted sweep)": tx_restarted,
        "echo phase at handoff": echo_at_handoff,
        "lo phase at handoff": lo_at_handoff,
        "channel 1 phase at handoff": tx_restarted - echo_at_handoff,
        "channel 2 phase at handoff": lo_at_handoff - echo_at_handoff,
    }


def received_on_index_grid(
    indices, sample_rate, period, cycles, f_start, f_end, phase0, echoes
) -> list[float]:
    """Received samples at integer ``indices`` under the index-space model.

    Every quantity the package derives in floating point enters as that
    double, read exactly: D = fl(delay * fs) and P = fl(period * fs).  An
    echo is zero before n - D >= 0; there its local time is
    (n - D - k * P) / fs, with k = floor((n - D) / P) clipped to
    [0, cycles - 1].  Everything after that is evaluated in mpmath at 40
    digits, so the result carries no rounding of the package's own.
    ``echoes`` is a sequence of (delay, amplitude) pairs.
    """
    import mpmath

    with mpmath.workdps(40):
        fs, per_cycle = mpmath.mpf(sample_rate), mpmath.mpf(period * sample_rate)
        f0 = mpmath.mpf(f_start)
        rate = (mpmath.mpf(f_end) - f0) / mpmath.mpf(period)
        shifts = [(mpmath.mpf(d * sample_rate), mpmath.mpf(a)) for d, a in echoes]
        values = []
        for n in indices:
            total = mpmath.mpf(0)
            for shift, amplitude in shifts:
                src = n - shift
                if src < 0:
                    continue
                k = min(max(mpmath.floor(src / per_cycle), 0), cycles - 1)
                t = (src - k * per_cycle) / fs
                phase = phase0 + 2 * mpmath.pi * (f0 * t + rate * t * t / 2)
                total += amplitude * mpmath.cos(phase)
            values.append(float(total))
    return values


def exact_ideal_beat(count, sample_rate, f_start, f_end, period, echoes) -> list[float]:
    """The ideal output, sum of 0.5 * a * cos(2 pi * rate * delay * n / fs),
    on samples n = 0 .. count - 1 of the decimal values as written.

    Each echo's beat advances (f_end - f_start) * delay / (period * fs)
    cycles a sample, an exact rational; its phase at sample n is reduced mod
    1 in ``Fraction``, and only then is the cosine taken, in mpmath at 40
    digits.  So no sample inherits the rounding of a large phase, and the
    result carries no rounding of the package's own.  ``echoes`` is a
    sequence of (delay, amplitude) pairs.
    """
    import mpmath

    per_delay = (frac(f_end) - frac(f_start)) / (frac(period) * frac(sample_rate))
    cosines: dict[Fraction, object] = {}
    values = []
    with mpmath.workdps(40):
        steps = [(per_delay * frac(d), mpmath.mpf(str(a)) / 2) for d, a in echoes]
        for n in range(count):
            total = mpmath.mpf(0)
            for step, half_amplitude in steps:
                cycles = step * n % 1
                if cycles not in cosines:
                    turn = mpmath.mpf(cycles.numerator) / cycles.denominator
                    cosines[cycles] = mpmath.cos(2 * mpmath.pi * turn)
                total += half_amplitude * cosines[cycles]
            values.append(float(total))
    return values


def dft_magnitudes(samples, points, bins, dps=40) -> list[float]:
    """|X[k]| of the ``points``-point DFT of ``samples`` (zero padded), at
    each bin k of ``bins``, summed directly over every sample in mpmath at
    ``dps`` digits.

    X[k] = sum_n x[n] z^n with z = e^(-2 pi i k / points), by Horner's rule
    from the last sample.  Each sample enters as the double it is, read
    exactly, and z from the exact turn (k mod points) / points, so the sums
    carry no rounding of the package's own and never use a repetition in
    the record.
    """
    import mpmath

    magnitudes = []
    with mpmath.workdps(dps):
        values = [mpmath.mpf(float(x)) for x in reversed(samples)]
        for k in bins:
            z = mpmath.expjpi(-2 * mpmath.mpf(k % points) / points)
            total = mpmath.mpc(0)
            for x in values:
                total = total * z + x
            magnitudes.append(float(abs(total)))
    return magnitudes
