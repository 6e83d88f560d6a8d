"""`arith.pair`: the same answers and errors whether or not its helper process serves."""

import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from fairex import arith
from fairex.arith import Rng, mod_exp, pair
from fairex.harness import SHIPPED_FAULT_SCRIPTS, run_session, shipped_script, default_payload
from fairex.keys import generate_system_params
from fairex.protocol import Protocol, SessionConfig

BITS = 512  # above arith.PAIR_MIN_BITS
P = 2**521 - 1
JOB = (mod_exp, (3, 2**400 + 1, P))


def _dies_in_helper(x: int) -> int:
    if os.getpid() != arith._OWNER:
        os._exit(1)
    return 2 * x


def _raises(x: int) -> int:
    raise ValueError(f"no job for {x}")


def _slow_in_helper(x: int) -> int:
    if os.getpid() != arith._OWNER:
        time.sleep(0.2)
    return 2 * x


def _slowly(job, *args):
    """job(*args) after a pause long enough for any helper to answer within it."""
    time.sleep(0.05)
    return job(*args)


def _pids() -> tuple[int, int]:
    """The pids that run the two halves of a pair made where this runs."""
    return pair((os.getpid, ()), (os.getpid, ()), BITS)


@pytest.fixture
def two_cpus(monkeypatch):
    """Serve pairs from the helper from the first one, even on a 1-CPU host; record every fork."""
    forks, fork = [], os.fork
    monkeypatch.setattr(arith, "_solo_pairs", 0)
    monkeypatch.setattr(arith, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _helper_pid() -> int:
    assert arith._helper is not None
    return arith._helper[0]


def _reaped(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestPairHelper:
    def test_second_job_runs_in_the_helper(self, two_cpus):
        assert pair((_slowly, (mod_exp, 5, 7, P)), JOB, BITS) == (pow(5, 7, P), mod_exp(*JOB[1]))
        here, there = pair((_slowly, (os.getpid,)), (os.getpid, ()), BITS)
        assert here == os.getpid() != there == _helper_pid()
        assert len(two_cpus) == 1  # forked once, then kept

    def test_first_pairs_of_a_process_run_alone(self, two_cpus, monkeypatch):
        monkeypatch.setattr(arith, "_solo_pairs", 3)
        for _ in range(5):
            assert pair((abs, (-1,)), (abs, (-2,)), 24) == (1, 2)  # below PAIR_MIN_BITS: not counted
        for _ in range(3):
            assert pair((abs, (-1,)), JOB, BITS) == (1, mod_exp(*JOB[1]))
        assert two_cpus == [] and arith._helper is None
        assert pair((abs, (-1,)), JOB, BITS) == (1, mod_exp(*JOB[1]))
        assert len(two_cpus) == 1 and arith._helper is not None

    def test_helper_that_dies_mid_request_is_retired(self, two_cpus):
        pair((_slowly, (abs, 1)), JOB, BITS)
        pid = _helper_pid()
        assert pair((_slowly, (abs, -1)), (_dies_in_helper, (3,)), BITS) == (1, 6)
        assert arith._helper is None and _reaped(pid)
        assert pair((abs, (-1,)), JOB, BITS) == (1, mod_exp(*JOB[1]))  # a new helper
        assert len(two_cpus) == 2

    def test_job_that_raises_raises_in_the_caller(self, two_cpus):
        pair((_slowly, (abs, 1)), JOB, BITS)
        pid = _helper_pid()
        with pytest.raises(ValueError, match="no job for 3"):
            pair((_slowly, (abs, -1)), (_raises, (3,)), BITS)
        assert arith._helper is None and _reaped(pid)

    def test_caller_error_keeps_the_helper_in_step(self, two_cpus):
        with pytest.raises(ValueError, match="no job for 1"):
            pair((_raises, (1,)), JOB, BITS)
        pid = _helper_pid()
        assert pair((abs, (-1,)), (abs, (-2,)), BITS) == (1, 2)
        assert _helper_pid() == pid

    def test_late_reply_is_dropped_and_the_job_runs_in_the_caller(self, two_cpus, monkeypatch):
        assert pair((abs, (-1,)), (_slow_in_helper, (3,)), BITS) == (1, 6)
        assert arith._busy == 2 and arith._solo_pairs == 8  # it owes its reply; 8 pairs run here
        monkeypatch.setattr(arith, "_solo_pairs", 0)
        assert pair((abs, (-1,)), (abs, (-2,)), BITS) == (1, 2)  # runs here: the helper is busy
        time.sleep(0.3)
        assert pair((_slowly, (abs, -1)), (_pids, ()), BITS) == (1, (_helper_pid(), _helper_pid()))
        assert arith._busy == 0 and len(two_cpus) == 1

    def test_job_that_cannot_be_pickled_runs_in_the_caller(self, two_cpus):
        pair((_slowly, (abs, 1)), JOB, BITS)
        pid, ran_in = _helper_pid(), []
        closure = lambda x: ran_in.append(os.getpid()) or 2 * x  # noqa: E731
        assert pair((abs, (-1,)), (closure, (3,)), BITS) == (1, 6)
        assert ran_in == [os.getpid()]
        assert arith._helper is None and _reaped(pid)

    def test_nested_pair_runs_in_its_caller(self, two_cpus):
        (inner_here, inner_there), helper = pair((_slowly, (_pids,)), (os.getpid, ()), BITS)
        assert inner_here == inner_there == os.getpid() != helper
        assert len(two_cpus) == 1

    def test_pair_made_in_the_helper_runs_there(self, two_cpus):
        here, there = pair((_slowly, (os.getpid,)), (_pids, ()), BITS)
        assert there == (_helper_pid(), _helper_pid()) and here == os.getpid()

    def test_forked_child_drops_the_helper_and_pairs_alone(self, two_cpus):
        pair((_slowly, (abs, 1)), JOB, BITS)
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                here, there = _pids()
                os.write(w, pickle.dumps((arith._helper, here == there == os.getpid())))
            finally:
                os._exit(0)
        os.close(w)
        with open(r, "rb") as pipe:
            reply = pipe.read()
        os.waitpid(pid, 0)
        assert pickle.loads(reply) == (None, True)
        assert len(two_cpus) == 2 and pair((abs, (-1,)), (abs, (-2,)), BITS) == (1, 2)

    def test_threaded_process_never_starts_a_helper(self, monkeypatch):
        monkeypatch.setattr(arith, "_solo_pairs", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked in a threaded process"))
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            assert pair((abs, (-1,)), JOB, BITS) == (1, mod_exp(*JOB[1]))
        finally:
            release.set()
            worker.join(timeout=10)
        assert arith._helper is None

    def test_toy_sessions_never_start_a_helper(self, two_cpus, monkeypatch):
        monkeypatch.setattr(arith, "_solo_pairs", -1)  # as if larger pairs had been made already
        params = generate_system_params("toy", Rng.from_material(b"test_pair toy"))
        for protocol in Protocol:
            for script in sorted(SHIPPED_FAULT_SCRIPTS):
                cfg = SessionConfig(protocol, params, default_payload(protocol), seed=bytes(32))
                run_session(cfg, shipped_script(script))
        assert two_cpus == [] and arith._helper is None

    def test_exiting_process_leaves_no_helper_running(self):
        pairs = (
            "arith._solo_pairs = 0\n"
            f"assert arith.pair((abs, (-1,)), (arith.mod_exp, (3, 5, {P})), {BITS}) == (1, 243)\n"
        )
        keygen = "keys.generate_system_params(keys.BitProfile(128, 256), arith.Rng(bytes(32)))\n"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for work in (pairs, keygen):
            code = f"from fairex import arith, keys\narith._usable_cpus = lambda: 2\n{work}print(arith._helper[0])\n"
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert out.returncode == 0, out.stderr
            with pytest.raises(ProcessLookupError):
                os.kill(int(out.stdout), 0)
