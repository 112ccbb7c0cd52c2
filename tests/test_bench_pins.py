"""The names that bench/tracing.py patches must stay where it looks for them.

`tracing.install` reads each entry point through `owner.__dict__[name]`, so
renaming or deleting one breaks every traced benchmark run.  The install
runs in a child process, so a failure halfway through cannot leave this
process's library patched.
"""

import os
import subprocess
import sys
from pathlib import Path

import symdesign

BENCH = Path(__file__).resolve().parent.parent / "bench"

CHILD = """
import importlib
import symdesign
import tracing

for layer in tracing.LAYERS:
    importlib.import_module(f"symdesign.{layer}")
saved = tracing.install(tracing.Tracer(), symdesign)
for owner, attr, old in saved:
    assert owner.__dict__[attr] is not old, f"{owner.__name__}.{attr} not patched"
tracing.uninstall(saved)
for owner, attr, old in saved:
    assert owner.__dict__[attr] is old, f"{owner.__name__}.{attr} not restored"
    print(f"{owner.__name__}.{attr}")
"""


def test_tracer_install_patches_and_restores_every_pinned_name():
    src = Path(symdesign.__file__).parent.parent
    # -B: importing tracing must not write bytecode under bench/
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(BENCH)])),
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert "symdesign.cli.main" in proc.stdout.split()
