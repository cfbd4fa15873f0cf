"""Copy-on-write NVRAM images against a flat-bytearray oracle.

:class:`~repro.memory.nvram.NvramImage` keeps a shared immutable base
plus copy-on-write pages.  :class:`FlatImage` below is the slower,
obviously-correct reference: one flat ``bytearray`` copied whole on
every fork.  Random operation sequences run on both and must agree on
every byte, every ``persists_applied`` and every error.  A separate
``tracemalloc`` guard pins the cost model: imaging over a huge region
allocates in proportion to the pages touched, not the region size.
"""

import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GraphDomain, full_cut, image_at_cut
from repro.errors import MemoryAccessError
from repro.memory import AddressSpace, NvramImage, layout
from repro.memory.nvram import PAGE_SIZE
from repro.trace import EventKind, make_access

BASE = 0x8000_0000


class FlatImage:
    """Reference image: one flat byte array, deep-copied on fork."""

    def __init__(self, base, size, initial=b"", persist_granularity=8):
        self._base = base
        self._data = bytearray(initial) if initial else bytearray(size)
        self._granularity = persist_granularity
        self.persists_applied = 0

    @property
    def end(self):
        return self._base + len(self._data)

    def _check_range(self, addr, size):
        if size <= 0:
            raise MemoryAccessError(f"persist size must be positive, got {size}")
        if addr < self._base or addr + size > self.end:
            raise MemoryAccessError(
                f"range [{addr:#x}, {addr + size:#x}) outside image "
                f"[{self._base:#x}, {self.end:#x})"
            )
        return addr - self._base

    def apply_persist(self, addr, data):
        offset = self._check_range(addr, len(data))
        first, last = layout.block_range(addr, len(data), self._granularity)
        if first != last:
            raise MemoryAccessError(
                f"persist at {addr:#x} size {len(data)} spans multiple "
                f"{self._granularity}-byte atomic blocks"
            )
        self._data[offset : offset + len(data)] = data
        self.persists_applied += 1

    def apply_raw(self, addr, data):
        offset = self._check_range(addr, len(data))
        self._data[offset : offset + len(data)] = data

    def flip_bits(self, addr, mask):
        if not 0 <= mask <= 0xFF:
            raise MemoryAccessError(f"bit mask {mask:#x} is not a byte")
        self._data[self._check_range(addr, 1)] ^= mask

    def read_bytes(self, addr, size):
        offset = self._check_range(addr, size)
        return bytes(self._data[offset : offset + size])

    def read(self, addr, size):
        layout.validate_access(addr, size)
        return int.from_bytes(self.read_bytes(addr, size), "little")

    def copy(self):
        clone = FlatImage(
            self._base, len(self._data), bytes(self._data), self._granularity
        )
        clone.persists_applied = self.persists_applied
        return clone


def outcome(method, *args):
    """A call's result, or its error's type and message."""
    try:
        return ("ok", method(*args))
    except MemoryAccessError as exc:
        return ("error", type(exc), str(exc))


def assert_same(pairs, size):
    """Every image matches its oracle: whole, page by page, across each
    page boundary, and in its persist count."""
    windows = [(0, size)]
    for start in range(0, size, PAGE_SIZE):
        windows.append((start, min(PAGE_SIZE, size - start)))
        if start:
            windows.append((start - 24, min(48, size - start + 24)))
    for image, flat in pairs:
        for start, length in windows:
            addr = BASE + start
            assert image.read_bytes(addr, length) == flat.read_bytes(
                addr, length
            )
        assert image.persists_applied == flat.persists_applied


#: Region sizes: page-aligned, with a partial last page, and sub-page.
SIZES = [2 * PAGE_SIZE, 3 * PAGE_SIZE + 100, PAGE_SIZE + 8, 200]


def spans(size, longest):
    """(offset, length) pairs biased toward page boundaries and the ends.

    One branch always straddles a page boundary; the others land near
    the region's end (its partial last page, and out of range) or
    anywhere, including just outside the image.
    """
    pages = (size - 1) // PAGE_SIZE + 1
    lengths = st.integers(-1, longest)
    straddle = st.builds(
        lambda page, before, after: (
            page * PAGE_SIZE - before,
            before + after,
        ),
        st.integers(1, pages),
        st.integers(1, longest // 2),
        st.integers(1, longest // 2),
    )
    near_end = st.tuples(st.integers(-80, 8).map(lambda d: size + d), lengths)
    anywhere = st.tuples(st.integers(-16, size + 16), lengths)
    return st.one_of(straddle, near_end, anywhere)


def payload(span, fill):
    """``max(length, 0)`` bytes of data for ``span``."""
    return bytes((fill + i) % 256 for i in range(max(span[1], 0)))


@st.composite
def scenarios(draw):
    size = draw(st.sampled_from(SIZES))
    granularity = draw(st.sampled_from([8, 16, 64]))
    seed = draw(st.integers(0, 99))
    initial = draw(st.sampled_from([b"", random.Random(seed).randbytes(size)]))
    target = st.integers(0, 7)

    def call(method, longest, arg):
        """``(method, image, offset, arg(span, value))`` operations."""
        return st.builds(
            lambda who, span, value: (method, who, span[0], arg(span, value)),
            target,
            spans(size, longest),
            st.integers(-2, 0x101),
        )

    ops = st.one_of(
        call("apply_persist", 72, payload),
        call("apply_raw", 140, payload),
        call("flip_bits", 2, lambda span, mask: mask),
        call("read_bytes", 140, lambda span, _: span[1]),
        call("read", 9, lambda span, _: span[1]),
        st.tuples(st.just("copy"), target),
    )
    return size, granularity, initial, draw(st.lists(ops, max_size=40))


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_matches_flat_oracle(scenario):
    size, granularity, initial, ops = scenario
    pairs = [
        (
            NvramImage(BASE, size, initial, persist_granularity=granularity),
            FlatImage(BASE, size, initial, persist_granularity=granularity),
        )
    ]
    for op in ops:
        image, flat = pairs[op[1] % len(pairs)]
        if op[0] == "copy":
            # Every pair is compared after every step, so a write to
            # either side of a fork showing through to the other, in
            # either direction, fails the test.
            pairs.append((image.copy(), flat.copy()))
        else:
            method, _, offset, arg = op
            addr = BASE + offset
            assert outcome(getattr(image, method), addr, arg) == outcome(
                getattr(flat, method), addr, arg
            )
        assert_same(pairs, size)


@settings(max_examples=50, deadline=None)
@given(
    size=st.sampled_from(SIZES),
    seed=st.integers(0, 99),
    writes=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=20
    ),
)
def test_snapshot_never_sees_later_region_writes(size, seed, writes):
    space = AddressSpace.with_default_layout(persistent_size=size)
    region = space.region("persistent")
    contents = random.Random(seed).randbytes(size)
    region.write_bytes(region.base, contents)
    image = NvramImage.from_region(region, blank=False)
    assert image.read_bytes(region.base, size) == contents
    for where, value in writes:
        region.write_bytes(region.base + where % size, bytes([value]))
    assert image.read_bytes(region.base, size) == contents
    clone = image.copy()
    clone.apply_raw(region.base, b"\xaa")
    assert image.read_bytes(region.base, size) == contents


#: A 64 MiB region: copying it even once would dwarf the allocation bar.
HUGE = 64 << 20


def scattered_graph():
    """Four independent persists spread across the huge region."""
    domain = GraphDomain()
    for offset in (0, 17 << 20, 40 << 20, HUGE - 8):
        event = make_access(
            len(domain.nodes), 0, EventKind.STORE, BASE + offset, 8, 0x5A, True
        )
        domain.persist(frozenset(), event)
    return domain


def peak_allocation(work):
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_imaging_allocates_pages_not_the_region():
    graph = scattered_graph()
    blank = NvramImage(BASE, HUGE)
    initial = bytes(HUGE)
    based = NvramImage(BASE, HUGE, initial)

    def work():
        for base_image in (blank, based):
            image = image_at_cut(graph, full_cut(graph), base_image)
            image.copy().apply_persist(BASE + (33 << 20), b"\x01" * 8)
            assert image.read(BASE + HUGE - 8, 8) == 0x5A

    assert peak_allocation(work) < 1 << 20


def test_snapshot_is_taken_once():
    initial = bytes(HUGE)

    def work():
        image = NvramImage(BASE, HUGE, initial)
        for _ in range(8):
            image = image.copy()
            image.apply_raw(BASE, b"\x02")

    assert peak_allocation(work) < 1 << 20
