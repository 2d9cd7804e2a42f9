"""The benchmark's tracer wraps program functions by name: each must exist,
and uninstalling must put back the very objects it replaced.  The
benchmark's output checks read program attributes by name too: its
self-test must pass."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    # no __pycache__ under perfbench/: a stray .pyc would spare one side
    # of a benchmark comparison its compile time
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def pycache():
    return set((TRACER.parent / "__pycache__").glob("*"))


def test_install_wraps_and_uninstall_restores_every_attribute():
    cached = pycache()
    tracer = load_tracer()
    t = tracer.Tracer(None)
    try:
        tracer.install(t)  # AttributeError if a wrapped name is gone
        wrapped = list(t._undo)
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        t.uninstall()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, (owner, attr)
    assert pycache() == cached


def test_benchmark_self_test_passes():
    # perfbench/checks.py reads HornTable.members, .zero_dim and .point,
    # InequalitySystem.constraints() and .cycles, and more: deleting one
    # of them fails its self-test
    pytest.importorskip("scipy")
    cached = pycache()
    proc = subprocess.run(
        [sys.executable, str(TRACER.parent / "selftest.py")],
        cwd=TRACER.parent.parent, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert pycache() == cached
