"""Print the sha256 of every CSV artifact the bundled configurations produce,
of each command's stdout, of the receiver signals of fixed cases, and of
canonical configuration texts.

Run from anywhere in a checkout:

    python3 tools/artifact_digests.py > digests.txt

For ``configs/paper.cfg`` and ``configs/paper_phase.cfg`` it runs ``compare``,
``simulate`` in every mode and ``phase-table`` through the command line, into
a temporary directory.  It also runs ``compare`` on each case of
``EXPORT_CASES``, ``paper.cfg`` with a few keys changed by ``derive`` and
written as ``serialize_config`` text: at 4,802 Hz and a 0.25 s sweep a
period spans 1,200.5 samples, so every signal and track repeats over a
two-cycle run of 2,401 samples; at a 96.1234 ms delay the ideal beat
advances 480,617/60,000,000 cycles a sample, so it has no run shorter
than the record.  It prints one ``path digest`` line per CSV file (186 in
all), one ``stdout:path digest`` line per command (12 in all), and one
``readout:case/mode peak width sidelobe`` line per row of each ``compare.csv``,
each number in ``repr`` (12 in all), so a moved readout shows how far it moved.  It
also reads ``paper.cfg`` at every cycle count from 8 to 16, each built with
``derive``, as the benchmark's ``analysis-sweep`` reads it: the ddctfm
settled record at ``zero_pad_factor`` and the ddctfm window at 64x, each
through ``dft_magnitude``, ``find_peak`` and ``sidelobe_report`` (a 3/T
span and a -12 dB floor), and prints one ``readout:dft/cycles-NN/record``
and ``/window`` line each, with the peak, width and strongest sidelobe in
``repr`` (18 in all).  Paths are relative to that directory, and each
stdout has the directory replaced by ``<out>``.  The bundled configurations have whole-sample delays, so it
also builds the cases of ``RECEIVER_CASES`` with the library, fractional
delays on the 1,200-sample and the 1,200.5-sample grid, over 12 cycles and
over 120, from one echo to six, and prints one ``receiver:case/signal
digest`` line per tx, lo, rx, channel1, channel2 and sum signal (24 in all).  Each signal is also cut with
``time_slice`` to the settled record (past the filter's delay and ring-in, as
``SimConfig.analysis_spans`` cuts it) and to a one-period window mid-record,
from the first echo's arrival (the ddctfm window), and one
``receiver:case/signal/record`` and ``/window`` line gives the sha256 of each
cut's samples followed by ``repr`` of its start time (48 in all).  It prints
one ``serialize:name digest`` line for the canonical text ``serialize_config``
writes of each bundled configuration and of ``SERIALIZE_TEXT`` (3 in all).  Lines are sorted, so the output of two
checkouts can be compared with ``diff``.  The package is imported from ``src/`` next
to this directory, never from an installed copy.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ctfm_lab as lab  # noqa: E402
from ctfm_lab.cli import MODES, SIDELOBE_FLOOR_DB, main, measure  # noqa: E402

CONFIGS = ("paper.cfg", "paper_phase.cfg")

# name: {key: value} that ``derive`` changes in paper.cfg for one ``compare``
# export.
EXPORT_CASES = {
    "paper-1200.5": {"sample_rate": "4802", "tx.duration": "0.25", "lo.f_end": "248"},
    "paper-delay-0.0961234": {"echoes.0.delay": "0.0961234"},
}

# name: (sweep period in s at 4 kHz, cycles, (delay in s, amplitude) per
# echo).  The 100 -> 200 Hz sweep spans 1,200 samples at 0.3 s and 1,200.5 at
# 0.300125 s.  The 120-cycle case is tiled far past its run, as the long
# multi-echo receiver records of the benchmark are.  The six-echo case, in no
# order of delay, holds a delay-0 echo and a zero-amplitude one.
RECEIVER_CASES = {
    "three-echoes-1200": (0.3, 12, ((0.0123457, 1.0), (0.0961234, 0.5), (0.1100003, 0.25))),
    "one-echo-1200.5": (0.300125, 12, ((0.0961234, 1.0),)),
    "three-echoes-1200-long": (0.3, 120, ((0.045, 0.9), (0.0732167, 0.6), (0.105, 0.35))),
    "six-echoes-1200.5": (
        0.300125,
        12,
        (
            (0.0481234, -0.6),
            (0.0, 0.8),
            (0.0235, 0.0),
            (0.1123456, -0.3),
            (0.075, 0.45),
            (0.0999999, 1.0),
        ),
    ),
}

# Three echoes and every optional key off its default, in no canonical order.
SERIALIZE_TEXT = """\
sound_speed = 343
echoes.2.amplitude = -0.25
spectrum.band_high = 45
cycles = 12
echoes.1.delay = 0.05
echoes.1.amplitude = 0.5
lowpass.taps = 255
tx.phase0 = 0.25
spectrum.band_low = 12.5
echoes.0.amplitude = 0.8
tx.f_start = 100
spectrum.zero_pad_factor = 8
lo.duration = 0.12
sample_rate = 8000
echoes.2.delay = 0.2
tx.f_end = 200
lowpass.cutoff = 45
echoes.0.delay = 0.096
tx.duration = 0.3
lo.f_end = 240
"""


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main_digests() -> None:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)

        def invoke(target: Path, *args: str) -> None:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                main.main([*args, "--out", str(target)], standalone_mode=False)
            text = stdout.getvalue().replace(str(out), "<out>")
            lines.append(f"stdout:{target.relative_to(out).as_posix()} {_digest(text.encode())}")

        for name in CONFIGS:
            config = str(ROOT / "configs" / name)
            stem = Path(name).stem
            invoke(out / stem / "compare", "compare", "--config", config)
            for mode in MODES:
                invoke(out / stem / "simulate" / mode, "simulate", "--config", config, "--mode", mode)
            invoke(out / stem / "phase-table", "phase-table", "--config", config)
        paper = lab.load_config(ROOT / "configs" / "paper.cfg")
        for case, values in EXPORT_CASES.items():
            config = out / f"{case}.cfg"
            config.write_text(lab.serialize_config(lab.derive(paper, values)))
            invoke(out / case / "compare", "compare", "--config", str(config))
        lines += [
            f"{path.relative_to(out).as_posix()} {_digest(path.read_bytes())}"
            for path in out.rglob("*.csv")
        ]
        lines += readout_lines(out)
    lines += dft_readout_lines(paper)
    lines += receiver_digests()
    texts = {name: (ROOT / "configs" / name).read_text() for name in CONFIGS}
    texts["three-echoes"] = SERIALIZE_TEXT
    lines += [
        f"serialize:{name} {_digest(lab.serialize_config(lab.parse_config(text)).encode())}"
        for name, text in texts.items()
    ]
    print("\n".join(sorted(lines)))


def readout_lines(out: Path) -> list[str]:
    """One ``readout:case/mode peak width sidelobe`` line per row of each
    ``compare.csv`` under ``out``, each number in ``repr`` (``-`` for no
    sidelobe), so that a moved readout shows how far it moved."""
    lines = []
    for path in out.glob("*/compare/compare.csv"):
        for row in path.read_text().splitlines()[1:]:
            mode, *cells = row.split(",")
            numbers = " ".join(repr(float(cell)) if cell else "-" for cell in cells)
            lines.append(f"readout:{path.parent.parent.name}/{mode} {numbers}")
    return lines


def dft_readout_lines(paper) -> list[str]:
    """One ``readout:dft/cycles-NN/record`` and ``/window`` line per cycle
    count from 8 to 16: ``dft_magnitude``'s peak, width and strongest
    sidelobe (``-`` for none) of the ddctfm record and window, in ``repr``."""
    lines = []
    for cycles in range(8, 17):
        config = lab.derive(paper, {"cycles": cycles})
        output, spans = measure(config).output("ddctfm"), config.analysis_spans()
        cuts = {
            "record": (spans["record"], config.zero_pad_factor),
            "window": (spans["ddctfm"], config.width_pad_factor),
        }
        for cut, (span, factor) in cuts.items():
            spec = lab.dft_magnitude(lab.time_slice(output, *span), factor)
            peak = lab.find_peak(spec, config.band)
            report = lab.sidelobe_report(spec, peak, 3.0 / config.tx.duration, SIDELOBE_FLOOR_DB)
            lobe = max((lobe.ratio_db for lobe in report.sidelobes), default=None)
            numbers = (report.peak_frequency, report.mainlobe_width_3db, lobe)
            text = " ".join("-" if x is None else repr(x) for x in numbers)
            lines.append(f"readout:dft/cycles-{cycles:02d}/{cut} {text}")
    return lines


def receiver_digests() -> list[str]:
    """One ``receiver:case/signal digest`` line per signal of each case, and
    one ``receiver:case/signal/record`` and ``/window`` line per cut of it."""
    fs = 4000.0
    lines = []
    for case, (period, cycles, echoes) in RECEIVER_CASES.items():
        tx = lab.ChirpSpec(100.0, 200.0, period)
        schedule = lab.make_schedule(tx, 200.0 + 0.12 * lab.sweep_rate(tx), 0.12, cycles)
        scene = lab.Scene(tuple(lab.Echo(delay, amplitude) for delay, amplitude in echoes))
        signals = {
            "tx": lab.synthesize_transmit(schedule, fs),
            "lo": lab.synthesize_lo(schedule, fs),
            "rx": lab.synthesize_received(schedule, scene, fs),
        }
        lowpass = lab.LowpassSpec(50.0, 257, fs)
        out = lab.demodulate(*signals.values(), lowpass)
        signals.update(channel1=out.channel1, channel2=out.channel2, sum=out.sum)
        shift, k, delay = lowpass.group_delay, cycles // 2, echoes[0][0]
        cuts = {
            "record": (shift + lowpass.impulse_duration, cycles * period),
            "window": (k * period + delay + shift, (k + 1) * period + delay + shift),
        }
        for name, signal in signals.items():
            for cut, span in cuts.items():  # cut before the source is read
                part = lab.time_slice(signal, *span)
                data = part.samples.tobytes() + repr(part.t0).encode()
                lines.append(f"receiver:{case}/{name}/{cut} {_digest(data)}")
            lines.append(f"receiver:{case}/{name} {_digest(signal.samples.tobytes())}")
    return lines


if __name__ == "__main__":
    main_digests()
