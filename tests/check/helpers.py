"""Shared program factories for the checker tests.

Small two-thread machines with tunable conflict structure: the DPOR
tests need programs whose Mazurkiewicz class counts are computable by
hand, and the equivalence tests need the publish idiom from the verify
suite rebuilt behind a ``run(scheduler)`` adapter.
"""

from repro.errors import RecoveryError
from repro.memory import NvramImage
from repro.sim import Machine


def disjoint_factory(ops_per_thread):
    """Two threads, each storing ``ops_per_thread`` times to its own
    volatile cell — every pair of cross-thread steps is independent."""

    def build(scheduler):
        machine = Machine(scheduler=scheduler)
        cells = [machine.volatile_heap.malloc(8) for _ in range(2)]

        def body(ctx, cell):
            for i in range(ops_per_thread):
                yield from ctx.store(cell, i + 1)

        for cell in cells:
            machine.spawn(body, cell)
        return machine

    return build


def conflicting_factory(ops_per_thread):
    """Two threads hammering the *same* volatile cell — every pair of
    cross-thread steps conflicts, so no reduction is possible."""

    def build(scheduler):
        machine = Machine(scheduler=scheduler)
        cell = machine.volatile_heap.malloc(8)

        def body(ctx, value):
            for i in range(ops_per_thread):
                yield from ctx.store(cell, value * 100 + i + 1)

        machine.spawn(body, 1)
        machine.spawn(body, 2)
        return machine

    return build


def publish_pair_factory(with_barrier):
    """Cross-thread publish idiom: t0 writes a two-word record then a
    volatile ready flag; t1 waits on the flag and publishes durably."""

    def build(scheduler):
        machine = Machine(scheduler=scheduler)
        base = machine.persistent_heap.malloc(64)
        ready = machine.volatile_heap.malloc(8)
        machine.memory.write(ready, 8, 0)
        machine.record_base = base

        def writer(ctx):
            yield from ctx.store(base, 0xAAAA)
            yield from ctx.store(base + 8, 0xBBBB)
            if with_barrier:
                yield from ctx.persist_barrier()
            yield from ctx.store(ready, 1)

        def publisher(ctx):
            yield from ctx.wait_equals(ready, 1)
            yield from ctx.store(base + 16, 1)

        machine.spawn(writer)
        machine.spawn(publisher)
        return machine

    return build


def check_publication(image: NvramImage, machine: Machine) -> None:
    """Recovery invariant: a published record must not be torn."""
    base = machine.record_base
    if image.read(base + 16, 8) == 1:
        if image.read(base, 8) != 0xAAAA or image.read(base + 8, 8) != 0xBBBB:
            raise RecoveryError("published record is torn")


def run_of(build):
    """Adapt a machine factory to the engine's ``run(scheduler)`` shape."""

    def run(scheduler):
        machine = build(scheduler)
        trace = machine.run()
        return trace, machine

    return run


def program_of(build):
    """Adapt a machine factory to the two-phase ``CheckProgram`` shape,
    so the engine can share prefixes (``replay="share"``)."""

    class Program:
        def build(self, scheduler):
            return build(scheduler)

        def finish(self, machine):
            return machine.trace, machine

    return Program()
