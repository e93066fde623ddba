"""``verify("all")`` runs the Monte-Carlo suite in a forked child beside the
other five: the same lines and outcome as six single-suite runs, a failed
line for a child that raises or dies, and no child process or pipe end left
behind on any path."""

import os
import signal
import time

import pytest

import muonlab.experiments as exp
from muonlab.cli import main

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _open_fds():
    """This process's open file descriptors, where the platform lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture(autouse=True)
def leaves_no_child_or_fd():
    before = _open_fds()
    yield
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == before


@pytest.fixture(scope="module")
def single_lines():
    """Each suite's line from a run of that suite alone, which forks nothing."""
    return {name: exp.verify(name).lines for name in exp._SUITE_NAMES}


def _forked_line(monkeypatch, suite) -> list[str]:
    """``verify("all")``'s lines with ``_suite_montecarlo`` replaced."""
    monkeypatch.setattr(exp, "_suite_montecarlo", suite)
    return exp.verify("all").lines


def test_all_is_the_single_suites_in_order(single_lines):
    report = exp.verify("all")
    assert report.passed
    assert report.lines == [line for name in exp._SUITE_NAMES for line in single_lines[name]]


def test_without_fork_the_suites_run_in_order(single_lines, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert exp.verify("all").lines == [line for name in exp._SUITE_NAMES for line in single_lines[name]]


def test_a_single_suite_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert exp.verify("montecarlo").passed


@pytest.mark.parametrize("message", ["boom", "café \udcff"])  # any str crosses the pipe
def test_a_raising_forked_suite_fails(message, monkeypatch):
    def boom():
        raise RuntimeError(message)

    monkeypatch.setattr(exp, "_suite_montecarlo", boom)
    report = exp.verify("all")
    assert not report.passed
    assert report.lines[-1] == f"SUITE montecarlo FAIL raised RuntimeError: {message}"


def test_the_cli_exits_1_on_a_raising_forked_suite(monkeypatch, capsys):
    def boom():
        raise RuntimeError("boom")

    monkeypatch.setattr(exp, "_suite_montecarlo", boom)
    assert main(["verify", "--suite", "all"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "SUITE montecarlo FAIL raised RuntimeError: boom"


def test_a_result_larger_than_the_pipe_buffer_arrives_whole(monkeypatch):
    # the child blocks on a full pipe until this process reads it
    detail = "x" * 300_000
    assert _forked_line(monkeypatch, lambda: (True, detail))[-1] == f"SUITE montecarlo PASS {detail}"


def test_a_child_that_exits_without_a_result_fails_naming_its_status(single_lines, monkeypatch):
    lines = _forked_line(monkeypatch, lambda: os._exit(3))
    assert lines[-1] == "SUITE montecarlo FAIL forked child exited with status 3 without sending a result"
    assert lines[:-1] == [line for name in exp._SUITE_NAMES[:-1] for line in single_lines[name]]


def test_a_killed_child_fails_naming_its_signal(monkeypatch):
    lines = _forked_line(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert lines[-1] == (f"SUITE montecarlo FAIL forked child was killed by signal {int(signal.SIGKILL)} "
                         "without sending a result")


def test_a_raising_parent_kills_the_child_first(monkeypatch):
    # KeyboardInterrupt is no suite failure: it leaves verify, which must not
    # wait a minute for the child to finish
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(exp, "_suite_montecarlo", lambda: (time.sleep(60), (True, ""))[1])
    monkeypatch.setattr(exp, "_suite_msign", interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        exp.verify("all")
    assert time.perf_counter() - start < 30.0
