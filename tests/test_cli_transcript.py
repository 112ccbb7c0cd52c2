"""CLI stdout and exit codes, byte for byte, against a pinned transcript.

Each command in COMMANDS runs through `cli.main` in-process, from a scratch
working directory, so the files `construct -o` writes are named relative to
it; `data/NAME` stands for a file shipped under symdesign/data.  The
transcript is `cli_transcript.txt` beside this module: each command as
`$ symdesign ...`, its stdout, then `[exit N]`.  After a deliberate change of
CLI output, regenerate it from the repository root with

    PYTHONPATH=src python tests/test_cli_transcript.py > tests/cli_transcript.txt
"""

import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

from symdesign.cli import main

TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.txt"

_DATA = resources.files("symdesign.data")
_WITH_GROUP = (
    "fano_complement", "paley_11_5_2", "paley_complement_11_6_3",
    "unitary_45_12_3", "imprimitive_45_12_3",
)
_WITHOUT_GROUP = ("biplane16_ea", "biplane16_z2z8", "biplane16_q8z2")

COMMANDS = (
    [["construct", name] for name in _WITH_GROUP + _WITHOUT_GROUP]
    + [
        ["construct", "diffset", ambient, k, lam]
        for ambient, k, lam in (
            ("cyclic7", "3", "1"), ("cyclic11", "5", "2"), ("ea16", "6", "2"),
            ("z2z8", "6", "2"), ("q8z2", "6", "2"),
            # exit 1: k = |G| develops into repeated blocks; no (11,4,1) set exists
            ("cyclic7", "7", "7"), ("cyclic11", "4", "1"),
        )
    ]
    + [["construct", "pg", n, q] for n, q in (("3", "2"), ("4", "3"), ("3", "4"))]
    + [
        ["group", query, f"data/{name}"]
        for name in ("psl2_7.grp", "psl2_11.grp", "psu4_2.grp", "sigma45.grp")
        for query in ("order", "orbits", "subdegrees", "primitive")
    ]
    + [
        cmd
        for name in _WITH_GROUP
        for cmd in (
            ["construct", name, "-o", f"{name}.design", "--group-out", f"{name}.grp"],
            ["flagtest", f"{name}.grp", f"{name}.design"],
        )
    ]
    + [["eliminate", "--table", "all"]]
    + [["families", "--lambda", lam] for lam in ("2", "3", "5", "7")]
)


def _resolved(arg: str) -> str:
    """`data/NAME` names a file shipped under symdesign/data."""
    return str(_DATA.joinpath(arg[5:])) if arg.startswith("data/") else arg


def transcript() -> str:
    """Every command's stdout and exit code, run from the current directory."""
    out = []
    for argv in COMMANDS:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main([_resolved(arg) for arg in argv])
        out.append(f"$ symdesign {' '.join(argv)}\n{buf.getvalue()}[exit {code}]\n")
    return "".join(out)


def test_cli_transcript_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert transcript() == TRANSCRIPT.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        sys.stdout.write(transcript())
