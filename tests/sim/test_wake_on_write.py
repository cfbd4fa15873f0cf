"""Wake-on-write bookkeeping against the polling oracle.

The machine keeps its runnable list across steps and re-checks a
blocked thread's predicate only when its word is written.  These tests
assert that the list it hands the scheduler equals the polling oracle
(:mod:`tests.sim.polling_oracle`) before every step — over random SC and
TSO programs with sub-word stores to watched words, x86 flushes and
restores mid-run, over the three lock algorithms, and under bulk
stepping — and pin trace digests recorded with the polling machine.
"""

import functools
import hashlib
import io
import itertools
import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.queue import run_insert_workload
from repro.sim import (
    SCHEDULER_KINDS,
    Machine,
    RandomScheduler,
    make_lock,
    make_scheduler,
)
from repro.trace.io import dump

from tests.sim.polling_oracle import (
    assert_matches_oracle,
    check_every_step,
    polling_runnable_ids,
)

#: Watched words per program: two volatile, two persistent (flushable).
_WORDS = 4

#: Pure predicates ``(constant, value) -> bool``, bound with partial.
_PREDICATES = (
    operator.eq,
    operator.le,  # constant <= value
    lambda constant, value: value & constant != 0,
    lambda constant, value: value != constant,
)


def _sub_word(draw_size, draw_slot):
    size = (1, 2, 4, 8)[draw_size]
    return size, (draw_slot % (8 // size)) * size


_op = st.one_of(
    st.tuples(
        st.just("store"), st.integers(0, _WORDS - 1), st.integers(0, 3),
        st.integers(0, 7), st.integers(0, 3),
    ),
    st.tuples(
        st.just("load"), st.integers(0, _WORDS - 1), st.integers(0, 3),
        st.integers(0, 7),
    ),
    st.tuples(
        st.just("wait"), st.integers(0, _WORDS - 1), st.integers(0, 3),
        st.integers(0, 7), st.integers(0, len(_PREDICATES) - 1),
        st.integers(0, 3),
    ),
    st.tuples(st.just("fetch_add"), st.integers(0, _WORDS - 1), st.integers(1, 2)),
    st.tuples(
        st.just("cas"), st.integers(0, _WORDS - 1), st.integers(0, 2),
        st.integers(0, 3),
    ),
    st.tuples(st.just("swap"), st.integers(0, _WORDS - 1), st.integers(0, 3)),
    st.tuples(
        st.sampled_from(["clflush", "clflushopt", "clwb"]),
        st.integers(_WORDS // 2, _WORDS - 1),
    ),
    st.tuples(st.sampled_from(["fence", "sfence", "persist_barrier"])),
)

_programs = st.lists(st.lists(_op, min_size=1, max_size=8), min_size=2, max_size=4)


def _body(ctx, program, words):
    for op in program:
        kind = op[0]
        if kind == "store":
            size, offset = _sub_word(op[2], op[3])
            yield from ctx.store(words[op[1]] + offset, op[4], size)
        elif kind == "load":
            size, offset = _sub_word(op[2], op[3])
            yield from ctx.load(words[op[1]] + offset, size)
        elif kind == "wait":
            size, offset = _sub_word(op[2], op[3])
            predicate = functools.partial(_PREDICATES[op[4]], op[5])
            yield from ctx.wait_until(words[op[1]] + offset, predicate, size)
        elif kind == "fetch_add":
            yield from ctx.fetch_add(words[op[1]], op[2])
        elif kind == "cas":
            yield from ctx.cas(words[op[1]], op[2], op[3])
        elif kind == "swap":
            yield from ctx.swap(words[op[1]], op[2])
        elif kind in ("clflush", "clflushopt", "clwb"):
            yield from getattr(ctx, kind)(words[op[1]])
        else:
            yield from getattr(ctx, kind)()


def _build(programs, consistency, scheduler):
    machine = Machine(scheduler=scheduler, consistency=consistency)
    words = [machine.volatile_heap.malloc(8) for _ in range(_WORDS // 2)]
    words += [machine.persistent_heap.malloc(64) for _ in range(_WORDS // 2)]
    for program in programs:
        machine.spawn(_body, program, words)
    return machine


def _run_checked(machine, **run_kwargs):
    """Run with oracle checks before every step; returns "done" or
    "deadlock" (after checking the oracle agrees nothing can run)."""
    check_every_step(machine)
    try:
        machine.run(**run_kwargs)
    except DeadlockError:
        assert polling_runnable_ids(machine) == []
        return "deadlock"
    assert polling_runnable_ids(machine) == []
    return "done"


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRandomPrograms:
    @_SETTINGS
    @given(
        programs=_programs,
        consistency=st.sampled_from(["sc", "tso"]),
        kind=st.sampled_from(SCHEDULER_KINDS),
        seed=st.integers(0, 2**16),
    )
    def test_runnable_list_matches_polling(self, programs, consistency, kind, seed):
        machine = _build(programs, consistency, make_scheduler(kind, seed))
        _run_checked(machine)

    @_SETTINGS
    @given(
        programs=_programs,
        consistency=st.sampled_from(["sc", "tso"]),
        seed=st.integers(0, 2**16),
    )
    def test_bulk_quantum_matches_polling(self, programs, consistency, seed):
        machine = _build(programs, consistency, RandomScheduler(seed))
        _run_checked(machine, bulk_quantum=4)

    @_SETTINGS
    @given(
        programs=_programs,
        consistency=st.sampled_from(["sc", "tso"]),
        seed=st.integers(0, 2**16),
        first=st.integers(0, 12),
        extra=st.integers(1, 12),
    )
    def test_restore_mid_run_matches_polling(
        self, programs, consistency, seed, first, extra
    ):
        machine = _build(programs, consistency, RandomScheduler(seed))
        machine.enable_snapshots()
        check_every_step(machine)
        try:
            machine.run(max_steps=first)
        except SimulationError:
            pass  # stopped at the step budget, or deadlocked early
        snap = machine.snapshot()
        try:
            machine.run(max_steps=first + extra)
        except SimulationError:
            pass
        machine.restore(snap)
        # restore rebuilt the watch index before any run() entry.
        assert_matches_oracle(machine)
        try:
            machine.run()
        except DeadlockError:
            pass
        assert polling_runnable_ids(machine) == []


@pytest.mark.parametrize("consistency", ["sc", "tso"])
@pytest.mark.parametrize("lock_kind", ["mcs", "ticket", "test_and_set"])
@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
@pytest.mark.parametrize("bulk_quantum", [None, 4])
def test_locks_match_polling(consistency, lock_kind, kind, bulk_quantum):
    machine = Machine(scheduler=make_scheduler(kind, 3), consistency=consistency)
    lock = make_lock(machine, lock_kind)
    counter = machine.volatile_heap.malloc(8)

    def body(ctx):
        for _ in range(3):
            yield from lock.acquire(ctx)
            value = yield from ctx.load(counter)
            yield from ctx.store(counter, value + 1)
            yield from lock.release(ctx)

    for _ in range(3):
        machine.spawn(body)
    assert _run_checked(machine, bulk_quantum=bulk_quantum) == "done"
    assert machine.memory.read(counter, 8) == 9


class TestTransitions:
    def test_deadlock_still_raised(self):
        machine = Machine()
        flag = machine.volatile_heap.malloc(8)

        def waiter(ctx):
            yield from ctx.wait_equals(flag, 1)

        def other(ctx):
            yield from ctx.store(flag, 2)

        machine.spawn(waiter)
        machine.spawn(other)
        assert _run_checked(machine) == "deadlock"

    def test_sub_word_store_wakes_word_waiter(self):
        """A 1-byte store re-checks a waiter on the enclosing 8-byte word
        (and on a different byte of it)."""
        machine = Machine(consistency="tso")
        word = machine.volatile_heap.malloc(8)

        def waiter(ctx):
            yield from ctx.wait_until(word, lambda value: value >> 40 == 5)
            yield from ctx.wait_until(word + 2, lambda value: value == 0, 1)

        def writer(ctx):
            yield from ctx.store(word + 5, 5, 1)

        machine.spawn(waiter)
        machine.spawn(writer)
        assert _run_checked(machine) == "done"

    def test_direct_write_between_runs_is_seen(self):
        """Setup code writes memory without the machine: run() entry
        re-checks every waiter."""
        machine = Machine()
        flag = machine.volatile_heap.malloc(8)

        def waiter(ctx):
            value = yield from ctx.wait_equals(flag, 1)
            return value

        thread = machine.spawn(waiter)
        with pytest.raises(DeadlockError):
            machine.run()
        machine.memory.write(flag, 8, 1)
        _run_checked(machine)
        assert thread.result == 1

    def test_drains_wake_waiters(self):
        """TSO: a waiter sees its own buffered store, and waiters wake
        when a drain, not the store itself, makes a store visible."""
        machine = Machine(scheduler=RandomScheduler(4), consistency="tso")
        flag = machine.volatile_heap.malloc(8)

        def first(ctx):
            yield from ctx.store(flag, 1)
            value = yield from ctx.wait_equals(flag, 2)  # forwarded 1: blocks
            return value

        def second(ctx):
            yield from ctx.wait_equals(flag, 1)  # woken by first's drain
            yield from ctx.store(flag, 2)

        thread = machine.spawn(first)
        machine.spawn(second)
        assert _run_checked(machine) == "done"
        assert thread.result == 2


#: sha256 of ``repro.trace.io.dump`` of each insert workload below,
#: recorded with the polling machine (every waiter re-checked per step).
_TRACE_DIGESTS = {
    "cwl-sc-mcs-1": "470b77757f21623c5764431907cfe2f36c3990fda2e862c4f1a4f037e9bcf055",
    "cwl-sc-mcs-7": "e58b6943f3cf58a7d837f3296a5760b5b12516c1fa1d9ab433cb1cc6086e4559",
    "cwl-sc-ticket-1": "7465192c61c880a8862adea9c9b4e095cb9ef2f66b9d550b3602e99b90c5a136",
    "cwl-sc-ticket-7": "b4166876c9de0468802c0bb10eb033c91c6d3e1c162a406e729702f82c1e6cc5",
    "cwl-sc-test_and_set-1": "b5c692a42bf791fa4e61152ddac856f0103e1da726f788b4515ec4e50de92fce",
    "cwl-sc-test_and_set-7": "dec77c0694f5b2742d6fe725535a509a21a698b0e08d61b5dd1e309ee5d43613",
    "cwl-tso-mcs-1": "fd634af89640a7120ee0e84e5884c8eddfe754fcbf1b9ee4df765fb4b3a16dd2",
    "cwl-tso-mcs-7": "eb1ee9c863e95d8cf1ed27322ed35a93942d6011b27f96cc216689cdafc6da0a",
    "cwl-tso-ticket-1": "fc2405b1a0c22a676407ed3cb705a8b68e391d59b26d48c70b44f5ace280a91d",
    "cwl-tso-ticket-7": "458aec92496684633ea54ad8e4cceccbbe400d995616123e36610e81478873ca",
    "cwl-tso-test_and_set-1": "ed3e179a90e4aeff9bc0e942eac67bf80ae75644ee8001d0a1423958bdd945a5",
    "cwl-tso-test_and_set-7": "62c19bb22e5eb36af017d217c5aaca98c07d8a3afdcef05d735563f5bf9ac9d7",
    "2lc-sc-mcs-1": "70a8bff3de2e47c5fbddfe4be592c363075606d1fec35fdeb2e1cd2122f71111",
    "2lc-sc-mcs-7": "4865a2dfddfc7818638ee5ca61bd32b4381f81d5c5493a0d9ef04a503c315a36",
    "2lc-sc-ticket-1": "a3fa514612fc5fecf7f3b3039e871d1368e9abca61da9e7c25ff2cc65877f2a9",
    "2lc-sc-ticket-7": "9e9696deafca6dc54b2590db8cd691b86c2fb4e0738e5eff0b33318b9ea2365c",
    "2lc-sc-test_and_set-1": "5729d7366dbed7c7c5cb20a3706e9f0d44ec61a52816d27d2eb737baafdb99ee",
    "2lc-sc-test_and_set-7": "513646287b2d53d341f9a536af1e4a0c9f3ea3a100a58b7533757a2fe800c31c",
    "2lc-tso-mcs-1": "320151d166b3b3d67a92a1da62bbff3f73cce77cf1224d981f791728f4591445",
    "2lc-tso-mcs-7": "83f820049256aaae902d0b37614ebb028cb23d8faf02944e956315190a62e6ed",
    "2lc-tso-ticket-1": "2fce8096441020bdce2e6bafb364f9619cd0a8f5b1380d98d1ec35a91c23db2b",
    "2lc-tso-ticket-7": "37675e66533d4b123a2c4312d6b3ed8a818123d6d4db8c30ebe0c028deab394d",
    "2lc-tso-test_and_set-1": "bc535c5e2510c1343dcf5dfd681406620e7106f8e06d8de6804d54d65ffb926f",
    "2lc-tso-test_and_set-7": "092959d24db087d4501140935d65033b6ff0250a5b401528a5e88e03aa3c4a76",
}


@pytest.mark.parametrize(
    "design,consistency,lock_kind,seed",
    list(
        itertools.product(
            ("cwl", "2lc"), ("sc", "tso"), ("mcs", "ticket", "test_and_set"), (1, 7)
        )
    ),
)
def test_insert_trace_digests_pinned(design, consistency, lock_kind, seed):
    result = run_insert_workload(
        design=design,
        threads=4,
        inserts_per_thread=6,
        lock_kind=lock_kind,
        seed=seed,
        consistency=consistency,
    )
    buffer = io.StringIO()
    dump(result.trace, buffer)
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    assert digest == _TRACE_DIGESTS[f"{design}-{consistency}-{lock_kind}-{seed}"]
