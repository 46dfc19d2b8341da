"""Sweep rows on forked workers: the same CSV bytes, the same errors, no child left behind.

``cli._map_rows`` computes row i on worker i mod n, where n is the number of
usable CPUs capped by the number of rows; worker 0 is the calling process.
Each test pins the CPU count by monkeypatching ``cli._usable_cpus``, so the
forked path runs on a one-CPU host as well, and a count of 1 gives the
in-process path every comparison is made against.
"""

import io
import os
import re
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from skewflow import cli

ROOT = Path(__file__).resolve().parent.parent
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')

SWEEPS = [
    # the sweep calls of tests/test_golden.py; the first, second and last are sweep-mixed's three
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-1,0,0.5,1,2"),
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-1,0,0.5,1,2", "--eval-cap", "2000"),
    ("sweep", "--system", "diag3", "--sweep", "alpha1=-1,1", "--param", "l=1.5"),
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-4"),
    ("sweep", "--system", "diag3", "--sweep", "alpha1=-1,1", "--sweep", "alpha2=-1,1"),
]

# each call's error: row 1 (c=0.5) fails on a child; row 0 (c=0.5) fails in the calling process;
# a custom system has no parameters, so every row fails
FAILING = {
    ("sweep", "--system", "bounded_ratio", "--sweep", "c=2,0.5,3,0.7"): "InvalidParams: c must exceed 1",
    ("sweep", "--system", "bounded_ratio", "--sweep", "c=0.5,2"): "InvalidParams: c must exceed 1",
    ("sweep", "--config", str(ROOT / "tests/data/custom_l2_dim2.json"), "--sweep", "k=1,2,3"):
        "InvalidParams: a custom system has no parameter k; it takes none",
}


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls made in this process."""
    calls = []
    real = os.fork

    def counting():
        pid = real()
        if pid:
            calls.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return calls


def run(argv, monkeypatch, cpus):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, _TIMESTAMP.sub('"timestamp": ""', buf.getvalue())


def rows_of(argv):
    n = 1
    for i, a in enumerate(argv):
        if a == "--sweep":
            n *= len(argv[i + 1].split("=", 1)[1].split(","))
    return n


@pytest.mark.parametrize("argv", SWEEPS + list(FAILING), ids=" ".join)
def test_forked_rows_give_the_in_process_output(argv, monkeypatch, forks):
    serial = run(argv, monkeypatch, 1)
    assert forks == []
    forked = run(argv, monkeypatch, 2)
    assert forked == serial
    assert len(forks) == min(2, rows_of(argv)) - 1


@pytest.mark.parametrize("argv", list(FAILING), ids=" ".join)
def test_the_failing_row_gives_the_error_document(argv, monkeypatch):
    code, text = run(argv, monkeypatch, 2)
    assert code == cli.EXIT_CONFIG
    assert f'"error": "{FAILING[argv]}"' in text


def square(i):
    return [i, i * i]


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("n_items", [0, 1, 2, 5])
def test_rows_keep_their_order_and_fork_count(cpus, n_items, monkeypatch, forks):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    items = list(range(n_items))
    assert cli._map_rows(square, items) == [square(i) for i in items]
    assert len(forks) == (min(cpus, n_items) - 1 if cpus >= 2 and n_items >= 2 else 0)


class Unpicklable(Exception):
    def __init__(self, item, why):
        super().__init__(f"item {item}: {why}")


@pytest.mark.parametrize("failing", [{1}, {2, 3}, {0, 3}, {4}, {1, 2}])
@pytest.mark.parametrize("exc_type", [ValueError, Unpicklable])
def test_the_lowest_failing_item_raises(failing, exc_type, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)

    def row(i):
        if i in failing:
            raise exc_type(i, "bad") if exc_type is Unpicklable else exc_type(f"item {i}: bad")
        return [i]

    with pytest.raises(Exception) as info:
        cli._map_rows(row, list(range(6)))
    assert type(info.value).__name__ == exc_type.__name__
    assert str(info.value) == f"item {min(failing)}: bad"


def test_a_child_that_dies_gives_the_error_document(monkeypatch):
    parent = os.getpid()
    real_build = cli.gallery.build

    def build(name, params):
        if os.getpid() != parent:
            os._exit(3)
        return real_build(name, params)

    monkeypatch.setattr(cli.gallery, "build", build)
    code, text = run(("sweep", "--system", "bounded_ratio", "--sweep", "c=2,3"), monkeypatch, 2)
    assert code == cli.EXIT_CONFIG
    assert '"error": "RuntimeError: a sweep worker ended without a result"' in text


def test_no_fork_while_another_thread_runs(monkeypatch, forks):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert cli._map_rows(square, list(range(4))) == [square(i) for i in range(4)]
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert forks == []


def test_no_fork_where_the_platform_has_none(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert cli._map_rows(square, list(range(4))) == [square(i) for i in range(4)]


@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="counts open descriptors in /proc")
def test_a_failed_fork_runs_the_rows_here(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", no_fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    assert cli._map_rows(square, list(range(7))) == [square(i) for i in range(7)]
    assert len(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity call")
def test_usable_cpus_follow_the_affinity_mask():
    assert cli._usable_cpus() == len(os.sched_getaffinity(0))
