"""The benchmark tracer finds every seqchain name it wraps.

``perfbench/tracer.py`` rebinds public functions and methods by attribute
name, so renaming or deleting one of them breaks every traced benchmark
run; installing the tracer once in a fresh interpreter catches that."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_over_the_current_names():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
