"""One run of each CLI command at its defaults, on one CPU, shared by every
test that checks such a run, with all their spies installed while it runs;
and a check, after every test, that no thread but the main one and the row
pool's, and no child process, is left running."""

import os
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

from scap import cli, kernels, model, tensor

# the calls a default run counts: name -> (owner, attribute)
COUNTED = {
    "kernels.sparse_fc": (kernels, "sparse_fc"),
    "kernels.matmul": (kernels, "matmul"),
    "tensor.silu": (kernels, "silu"),
    "tensor.swiglu": (kernels, "swiglu"),
    "tensor.gelu": (kernels, "gelu"),
    "model._rmsnorm": (model, "_rmsnorm"),
    "SparseStack.forward": (model.SparseStack, "forward"),
    "os.fork": (os, "fork"),
}
# commands run as in a fresh process, with no compiled source loaded, so
# that their ``cc`` calls are seen; each build takes about 0.25 s
FRESH_BUILD = ("sweep",)


@dataclass
class DefaultRun:
    out: Path  # the artifacts, written with ``--out out`` from out's parent
    reads: set  # the keys read through ``RunConfig``
    row_shapes: list  # the input shape of each ``tensor._row_product`` call
    compiles: list  # the program of each ``subprocess.run`` (FRESH_BUILD only)
    calls: Counter  # COUNTED name -> calls


def _run(command: str, directory: Path) -> DefaultRun:
    run = DefaultRun(directory / "out", set(), [], [], Counter())

    class Spy(dict):
        def __getitem__(self, key):
            run.reads.add(key)
            return super().__getitem__(key)

    def counted(name, real):
        return lambda *a, **k: run.calls.update([name]) or real(*a, **k)

    resolve, product = cli.resolve_config, tensor._row_product
    subprocess_run = tensor.subprocess.run
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        # one CPU runs every walk in this process, where the spies see it;
        # ``test_golden.py`` checks the bytes of forked runs
        mp.setattr(tensor, "_cpus", lambda: 1)
        spy_config = lambda args: cli.RunConfig(args.command, Spy(resolve(args).values))
        mp.setattr(cli, "resolve_config", spy_config)
        spy_product = lambda *a: run.row_shapes.append(a[0].shape) or product(*a)
        mp.setattr(tensor, "_row_product", spy_product)
        for name, (owner, attr) in COUNTED.items():
            mp.setattr(owner, attr, counted(name, getattr(owner, attr)))
        if command in FRESH_BUILD:
            mp.setattr(tensor, "_libs", {})
            spy = lambda cmd, **kw: run.compiles.append(cmd[0]) or subprocess_run(cmd, **kw)
            mp.setattr(tensor.subprocess, "run", spy)
        assert cli.main([command, "--out", "out"]) == 0
    return run


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """command -> its ``DefaultRun``, made the first time it is asked for."""
    runs = {}

    def get(command: str) -> DefaultRun:
        if command not in runs:
            runs[command] = _run(command, tmp_path_factory.mktemp(command))
        return runs[command]

    return get


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child ``os.fork`` makes during the test (a child
    appends to its own copy)."""
    pids, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(pid := fork()) or pid)
    return pids


@pytest.fixture(autouse=True)
def no_thread_or_child_left():
    """Fails a test that leaves a thread alive other than the main thread
    and the row pool's (``tensor._row_pool``, named ``scap-row``), the only
    threads the package starts, or a child process unreaped."""
    yield
    left = [
        t.name for t in threading.enumerate()
        if t is not threading.main_thread() and not t.name.startswith("scap-row")
    ]
    assert not left, f"threads outlived their test: {left}"
    with pytest.raises(ChildProcessError):  # every forked share is reaped
        os.waitpid(-1, os.WNOHANG)
