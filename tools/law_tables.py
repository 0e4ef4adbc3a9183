"""Print the README's bandwidth-law table: single-target delay accuracy per
(B, T, cycles) cell of ``tests/sweeps.py``.

Run from anywhere in a checkout:

    python3 tools/law_tables.py

Each cell is ``paper.cfg`` with the keys of ``sweeps.CELLS`` changed by
``derive``, its echo stepped over ``sweeps.DELAYS``, and each row gives B,
T, cycles, 1/(2B) and the worst ctfm, ddctfm and ideal delay error
|peak/rate - delay| (``sweeps.worst_delay_errors``, the quantity
``tests/test_bandwidth_law.py`` pins), each in ms and in metres of range at
the configuration's ``sound_speed``.  The output is the Markdown table the
README holds; regenerate the README's table from it, never by hand.  The
package is imported from ``src/`` next to this directory, never from an
installed copy.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import ctfm_lab as lab  # noqa: E402
from sweeps import CELLS, worst_delay_errors  # noqa: E402

HEADER = ("B", "T", "cycles", "1/(2B)", "ctfm worst", "ddctfm worst", "ideal worst")


def bandwidth_rows(paper: lab.SimConfig):
    """One row of cell texts per cell of ``CELLS``."""
    for values in CELLS.values():
        config = lab.derive(paper, values)
        tx = config.tx
        bandwidth = tx.f_end - tx.f_start
        errors = worst_delay_errors(config)
        delays = [1.0 / (2.0 * bandwidth)] + [errors[mode] for mode in ("ctfm", "ddctfm", "ideal")]
        yield [f"{bandwidth:g} Hz", f"{tx.duration:g} s", str(config.cycles)] + [
            f"{delay * 1e3:.3f} ms, {lab.delay_to_range(delay, config.sound_speed):.3f} m"
            for delay in delays
        ]


def markdown(header, rows) -> str:
    """A left-aligned Markdown table, each column padded to its widest text."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]

    def line(cells):
        return "| " + " | ".join(cell.ljust(w) for cell, w in zip(cells, widths)) + " |"

    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(header), rule] + [line(row) for row in rows])


def main() -> None:
    paper = lab.load_config(ROOT / "configs" / "paper.cfg")
    print(markdown(HEADER, list(bandwidth_rows(paper))))


if __name__ == "__main__":
    main()
