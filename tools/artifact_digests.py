"""Print the sha256 of every CSV artifact the bundled configurations produce.

Run from anywhere in a checkout:

    python3 tools/artifact_digests.py > digests.txt

For ``configs/paper.cfg`` and ``configs/paper_phase.cfg`` it runs ``compare``
and ``simulate`` in every mode through the command line, into a temporary
directory, and prints one ``path digest`` line per CSV file (122 in all),
sorted by path; the commands' own reports go to stderr.  Paths are
relative to that directory, so the output of two checkouts can be compared
with ``diff``.  The package is imported from ``src/`` next to this
directory, never from an installed copy.
"""

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctfm_lab.cli import MODES, main  # noqa: E402

CONFIGS = ("paper.cfg", "paper_phase.cfg")


def _invoke(*args: str) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        main.main(list(args), standalone_mode=False)


def main_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name in CONFIGS:
            config = str(ROOT / "configs" / name)
            stem = Path(name).stem
            _invoke("compare", "--config", config, "--out", str(out / stem / "compare"))
            for mode in MODES:
                _invoke(
                    "simulate",
                    "--config",
                    config,
                    "--mode",
                    mode,
                    "--out",
                    str(out / stem / "simulate" / mode),
                )
        lines = [
            f"{path.relative_to(out).as_posix()} "
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}"
            for path in sorted(out.rglob("*.csv"))
        ]
    print("\n".join(lines))


if __name__ == "__main__":
    main_digests()
