"""Polling runnable-set oracle: what the wake-on-write machine is tested against.

:class:`~repro.sim.machine.Machine` keeps its runnable list across steps
and re-checks a blocked thread only when a write lands on the word it
waits on.  This module keeps the plain rule that bookkeeping must agree
with: at every step, walk every thread and evaluate every waiter's
predicate afresh against the value it would observe — memory read
through the checked byte path, overlaid with the thread's own buffered
stores on TSO.  It is test-only: nothing under ``src/`` calls it.
"""

from typing import List

from repro.sim.machine import _DRAIN_BASE, Machine, SimThread, ThreadState


def observed_value(machine: Machine, thread: SimThread, addr: int, size: int) -> int:
    """The value ``thread`` would load at ``[addr, addr+size)`` now."""
    data = bytearray(machine.memory.read_bytes(addr, size))
    if machine.consistency == "tso":
        for offset, byte in enumerate(machine.buffered_bytes(thread, addr, size)):
            if byte is not None:
                data[offset] = byte
    return int.from_bytes(bytes(data), "little")


def polling_runnable_ids(machine: Machine) -> List[int]:
    """Runnable agent ids in scheduler order, every predicate re-evaluated."""
    runnable = []
    for thread in machine._threads:
        if thread.state in (ThreadState.NEW, ThreadState.READY):
            runnable.append(thread.thread_id)
        elif thread.state is ThreadState.WAITING:
            wait = thread.wait
            if wait.predicate(observed_value(machine, thread, wait.addr, wait.size)):
                runnable.append(thread.thread_id)
        if thread.store_buffer:
            runnable.append(_DRAIN_BASE + thread.thread_id)
    return runnable


def assert_matches_oracle(machine: Machine) -> List[int]:
    """Check the machine's runnable bookkeeping against polling; returns
    the oracle's list.

    A cached list must already equal the oracle (it is never stale), and
    a list rebuilt from the cached wait verdicts must too.
    """
    expected = polling_runnable_ids(machine)
    cached = machine._runnable
    assert cached is None or cached == expected, (cached, expected)
    assert machine._collect_runnable() == expected
    for agent in expected:
        assert machine._agent_runnable(agent)
    return expected


def check_every_step(machine: Machine) -> List[int]:
    """Assert oracle agreement before every step ``machine`` takes.

    Wraps the instance's ``_step`` so bulk-stepped runs, whose extra
    steps bypass the scheduler, are checked too.  Returns the list of
    stepped agent ids, appended to as the machine runs.
    """
    step = machine._step
    stepped: List[int] = []

    def checked(agent: int) -> None:
        runnable = assert_matches_oracle(machine)
        assert agent in runnable, (agent, runnable)
        stepped.append(agent)
        step(agent)

    machine._step = checked
    return stepped
