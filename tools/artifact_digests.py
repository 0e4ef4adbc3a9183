"""Print the sha256 of every CSV artifact the bundled configurations produce,
and of each command's stdout.

Run from anywhere in a checkout:

    python3 tools/artifact_digests.py > digests.txt

For ``configs/paper.cfg`` and ``configs/paper_phase.cfg`` it runs ``compare``,
``simulate`` in every mode and ``phase-table`` through the command line, into
a temporary directory, and prints one ``path digest`` line per CSV file (124
in all) and one ``stdout:path digest`` line per command (10 in all), sorted
by path.  Paths are relative to that directory, and each stdout has the
directory replaced by ``<out>``, so the output of two checkouts can be
compared with ``diff``.  The package is imported from ``src/`` next to
this directory, never from an installed copy.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctfm_lab.cli import MODES, main  # noqa: E402

CONFIGS = ("paper.cfg", "paper_phase.cfg")


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
        lines += [
            f"{path.relative_to(out).as_posix()} {_digest(path.read_bytes())}"
            for path in out.rglob("*.csv")
        ]
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main_digests()
