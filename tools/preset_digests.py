"""SHA-256 digests of every output file the shipped presets write.

Runs each preset through `bipexp.cli.main` into a temporary directory
(`simulate` and `sweep` with `--workers 2`) and prints one line per
output file, provenance included, in `sha256sum` format:

    <sha256>  <preset>/<file>

The five presets write 13 files. The package is imported from the `src/`
directory of the checkout this script lives in, so two checkouts can be
compared by running each one's copy and diffing the output:

    python3 tools/preset_digests.py [--presets simple-example ...]

`--check FILE` compares the run presets' lines with those FILE holds for
them instead of printing all of them. `tools/preset_digests.sha256` holds
the 13 lines that the output files must keep while a change is meant to
leave them byte-identical:

    python3 tools/preset_digests.py --check tools/preset_digests.sha256

Each line that differs is printed, the expected one after `-` and the
computed one after `+`, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bipexp.cli import _POOLED, PRESETS, load_config, main as cli_main  # noqa: E402


def preset_digests(preset: str, out_dir: Path) -> list[str]:
    """Run one preset into out_dir and return its `sha256  preset/file` lines."""
    command = load_config(preset)[0]["command"]
    argv = [command, "--config", preset, "--out", str(out_dir)]
    if command in _POOLED:
        argv += ["--workers", "2"]
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{preset}: exit {code}\n{log.getvalue()}")
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {preset}/{path.name}"
        for path in sorted(out_dir.iterdir())
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--presets", nargs="+", choices=PRESETS, default=list(PRESETS))
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare with FILE's lines and exit 1 if any differs")
    args = parser.parse_args(argv)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for preset in args.presets:
            out_dir = Path(tmp) / preset
            out_dir.mkdir()
            lines += preset_digests(preset, out_dir)
    if args.check is None:
        print("\n".join(lines))
        return 0
    expected = [line for line in args.check.read_text().splitlines()
                if line.split("  ")[-1].split("/")[0] in args.presets]
    differ = [f"- {line}" for line in expected if line not in lines]
    differ += [f"+ {line}" for line in lines if line not in expected]
    print("\n".join(differ) if differ else f"{len(lines)} digests match {args.check}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
