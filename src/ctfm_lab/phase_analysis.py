"""Closed-form channel phases and the boundary-discontinuity ledger.

The demodulated difference signal is stitched from channel 2 (during each
blind interval) and channel 1 (for the rest of each cycle).  The stitch at
a cycle start is phase-continuous by construction of the oscillator.  At
the end of each blind interval the ledger's jump is the reference-phase
difference tx(delay) - lo(delay), a fixed wrapped angle

    wrap(-2*pi*(bandwidth*delay + center_frequency*period))

independent of the cycle index.  The stitched output itself steps there by
wrap(-2*pi*bandwidth*delay): the echo channel 1 mixes just after the
handoff belongs to the new sweep, whose phase differs from the old one's by
2*pi*center_frequency*period.  The two agree only when
center_frequency*period is an integer.  This module evaluates the ledger
exactly from the sweep formulas, without touching sampled data.

Convention at exact instants: a phase evaluated exactly on a sweep reset
belongs to the sweep that is completing there (left-continuous), except
that the oscillator window of the new cycle opens at that same instant
(its local time starts at zero).  This is the reading under which the
stitched segments meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedRangeError
from .scene import check_delay
# wrap_phase is defined with the sweeps and re-exported from here.
from .waveform import TWO_PI, SweepSchedule, csv_columns, cycle_split
from .waveform import lo_phase, tx_phase, wrap_phase


def _boundary_tol(t: float, period: float) -> float:
    """Absolute slack under which ``t`` counts as lying on a cycle boundary.

    A few ulps of the quantities involved: instants assembled as k*T + tau
    or t - tau land within this of the exact boundary they mean.
    """
    eps = np.finfo(float).eps
    return 16.0 * eps * max(1.0, abs(t), period)


def _split_snapped(t: float, period: float) -> tuple[int, float]:
    """``cycle_split`` with boundary-proximate inputs snapped onto the
    boundary (local time exactly 0)."""
    k, local = cycle_split(t, period)
    tol = _boundary_tol(t, period)
    if local <= tol:
        return k, 0.0
    if period - local <= tol:
        return k + 1, 0.0
    return k, local


def _split_left(t: float, period: float) -> tuple[int, float]:
    """Cycle index and local time, assigning boundary instants to the
    completing cycle (local time = period instead of 0)."""
    k, local = _split_snapped(t, period)
    if local == 0.0 and k > 0:
        return k - 1, period
    return k, local


def _check_instant(schedule: SweepSchedule, tau: float, t: float) -> None:
    check_delay(tau, schedule.period)
    if not 0.0 <= t <= schedule.total_duration:
        raise DomainError(
            f"t = {t} s outside the simulated span [0, {schedule.total_duration}] s"
        )


def _echo_phase(schedule: SweepSchedule, tau: float, t: float) -> float:
    """Unwrapped phase of the delayed transmit stream at global time ``t``.

    The echo keeps following the sweep it belongs to, so during the first
    ``tau`` seconds of a cycle this evaluates the previous sweep's formula.
    """
    t_src = t - tau
    if t_src < 0.0:
        raise DomainError(f"no echo has arrived yet at t = {t} s (delay {tau} s)")
    _, local = _split_left(t_src, schedule.period)
    return tx_phase(schedule.tx, local)


def channel1_phase(schedule: SweepSchedule, tau: float, t: float) -> float:
    """Unwrapped phase of the filtered transmit-mixer output at time ``t``."""
    _check_instant(schedule, tau, t)
    _, local_tx = _split_left(t, schedule.period)
    return tx_phase(schedule.tx, local_tx) - _echo_phase(schedule, tau, t)


def channel2_phase(schedule: SweepSchedule, tau: float, t: float) -> float:
    """Unwrapped phase of the filtered oscillator-mixer output at time ``t``.

    Defined only while the oscillator is active: t in [kT, kT + window].
    """
    _check_instant(schedule, tau, t)
    k, local = _split_snapped(t, schedule.period)
    if k >= schedule.cycles:
        raise DomainError(f"t = {t} s lies beyond the last oscillator window")
    window = schedule.lo.duration
    if local > window:
        # Absorb float fuzz in t before rejecting.
        if local - window <= _boundary_tol(t, schedule.period):
            local = window
        else:
            raise DomainError(
                f"t = {t} s is outside the oscillator window "
                f"[{k * schedule.period}, {k * schedule.period + window}] s"
            )
    return lo_phase(schedule.lo, local) - _echo_phase(schedule, tau, t)


def boundary_jump(schedule: SweepSchedule, tau: float, k: int) -> float:
    """Wrapped reference-phase jump where channel 1 takes over from
    channel 2: tx_phase(tau) - lo_phase(tau).

    At t = k*period + tau channel 1 reopens on the restarted sweep while
    channel 2 closes on the oscillator.  The two channels' echo terms are
    not common: channel 1 mixes the new sweep's echo, which differs from the
    old one by 2*pi*center_frequency*period (mod 2*pi).  So the stitched
    output steps by this jump plus that, wrap(-2*pi*B*tau), and the two agree
    only when center_frequency*period is an integer.  The result is the same
    for every valid ``k``; the index only asserts that the handoff exists.
    Past the oscillator window none exists: ``check_ledger_delay`` refuses
    such a delay with ``UnsupportedRangeError``.
    """
    check_ledger_delay(schedule, tau)
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= schedule.cycles - 1:
        raise DomainError(
            f"cycle index must satisfy 1 <= k <= {schedule.cycles - 1}, got {k}"
        )
    return wrap_phase(tx_phase(schedule.tx, tau) - lo_phase(schedule.lo, tau))


def boundary_jump_closed_form(schedule: SweepSchedule, tau: float) -> float:
    """The jump predicted algebraically: wrap(-2*pi*(B*tau + f_center*T))."""
    check_delay(tau, schedule.period)
    bandwidth = schedule.tx.f_end - schedule.tx.f_start
    f_center = 0.5 * (schedule.tx.f_start + schedule.tx.f_end)
    return wrap_phase(-TWO_PI * (bandwidth * tau + f_center * schedule.period))


@dataclass(frozen=True)
class PhaseLedgerEntry:
    """One named phase value: unwrapped radians plus its wrapped form."""

    label: str
    instant: float
    unwrapped: float
    wrapped: float


@dataclass(frozen=True)
class PhaseReport:
    """The boundary phase ledger plus every stitch discontinuity."""

    entries: tuple[PhaseLedgerEntry, ...]
    discontinuities: tuple[tuple[float, float], ...]

    def value(self, label: str) -> PhaseLedgerEntry:
        for entry in self.entries:
            if entry.label == label:
                return entry
        raise KeyError(label)

    def to_table(self) -> str:
        """CSV text: label, instant, value in multiples of pi, wrapped."""
        return csv_columns(
            "label,instant_s,unwrapped_pi,wrapped_pi",
            [e.label for e in self.entries],
            [e.instant for e in self.entries],
            [e.unwrapped / math.pi for e in self.entries],
            [e.wrapped / math.pi for e in self.entries],
        )


def check_ledger_delay(schedule: SweepSchedule, tau: float) -> None:
    """The one window rule: refuse a delay that ``scene.check_delay`` refuses,
    or whose handoff falls after the oscillator window closes.  The loader
    applies it to the first echo, so every loaded configuration has a ledger."""
    check_delay(tau, schedule.period)
    if tau > schedule.lo.duration:
        raise UnsupportedRangeError(
            f"echo delay {tau} s must not exceed the oscillator window "
            f"{schedule.lo.duration} s for the handoff ledger"
        )


def phase_table(schedule: SweepSchedule, tau: float) -> PhaseReport:
    """Evaluate the stitch-boundary ledger at the first handoff pair.

    Reports every constituent phase at t = T (the first sweep reset) and
    t = T + tau (the end of the first true blind interval), plus the jump
    at every later handoff.  By the jump law the jump is the same at every
    handoff, so ``boundary_jump`` is evaluated once and repeated at each
    k*T + tau.
    """
    check_ledger_delay(schedule, tau)
    if schedule.cycles < 2:
        raise DomainError("the ledger needs at least two cycles")
    period = schedule.period
    t_reset = period
    t_handoff = period + tau
    # At the reset both channels read the completing sweep's end and the
    # opening window's start, so their rows are plain differences.  The
    # channel 2 handoff row keeps ``channel2_phase``: it snaps window fuzz.
    tx_end, echo_end = tx_phase(schedule.tx, period), _echo_phase(schedule, tau, t_reset)
    lo_start, tx_tau = lo_phase(schedule.lo, 0.0), tx_phase(schedule.tx, tau)
    echo_tau = _echo_phase(schedule, tau, t_handoff)
    rows = (
        ("tx phase at sweep end", t_reset, tx_end),
        ("echo phase at sweep end", t_reset, echo_end),
        ("lo initial phase", t_reset, lo_start),
        ("channel 1 phase at sweep end", t_reset, tx_end - echo_end),
        ("channel 2 phase at sweep end", t_reset, lo_start - echo_end),
        ("tx phase at handoff (restarted sweep)", t_handoff, tx_tau),
        ("echo phase at handoff", t_handoff, echo_tau),
        ("lo phase at handoff", t_handoff, lo_phase(schedule.lo, tau)),
        ("channel 1 phase at handoff", t_handoff, tx_tau - echo_tau),
        ("channel 2 phase at handoff", t_handoff, channel2_phase(schedule, tau, t_handoff)),
    )
    wrapped = wrap_phase(np.array([row[2] for row in rows])).tolist()
    entries = tuple(PhaseLedgerEntry(*row, w) for row, w in zip(rows, wrapped))
    jump = boundary_jump(schedule, tau, 1)
    discontinuities = tuple((k * period + tau, jump) for k in range(1, schedule.cycles))
    return PhaseReport(entries=entries, discontinuities=discontinuities)
