"""Unit tests for the simulated address space."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryAccessError
from repro.memory import AddressSpace, Region


@pytest.fixture
def space():
    return AddressSpace.with_default_layout(
        volatile_size=4096, persistent_size=4096
    )


class TestRegions:
    def test_default_layout_has_two_regions(self, space):
        names = [region.name for region in space.regions]
        assert names == ["volatile", "persistent"]

    def test_region_lookup_by_name(self, space):
        assert space.region("volatile").persistent is False
        assert space.region("persistent").persistent is True

    def test_unknown_region_name(self, space):
        with pytest.raises(MemoryAccessError):
            space.region("nvdimm")

    def test_is_persistent(self, space):
        volatile = space.region("volatile")
        persistent = space.region("persistent")
        assert not space.is_persistent(volatile.base)
        assert space.is_persistent(persistent.base)

    def test_rejects_overlapping_regions(self):
        with pytest.raises(MemoryAccessError):
            AddressSpace(
                [
                    Region("a", 0x1000, 0x100, False),
                    Region("b", 0x1080, 0x100, False),
                ]
            )

    def test_rejects_duplicate_names(self):
        with pytest.raises(MemoryAccessError):
            AddressSpace(
                [
                    Region("a", 0x1000, 0x100, False),
                    Region("a", 0x2000, 0x100, False),
                ]
            )

    def test_rejects_unaligned_base(self):
        with pytest.raises(MemoryAccessError):
            Region("odd", 0x1001, 0x100, False)

    def test_region_end_boundary(self, space):
        region = space.region("volatile")
        with pytest.raises(MemoryAccessError):
            space.read(region.end - 4, 8)


class TestReadWrite:
    def test_roundtrip_word(self, space):
        base = space.region("volatile").base
        space.write(base, 8, 0xDEADBEEFCAFE)
        assert space.read(base, 8) == 0xDEADBEEFCAFE

    def test_roundtrip_subword(self, space):
        base = space.region("volatile").base
        space.write(base + 4, 4, 0x1234)
        assert space.read(base + 4, 4) == 0x1234

    def test_little_endian_layout(self, space):
        base = space.region("volatile").base
        space.write(base, 8, 0x0102030405060708)
        assert space.read_bytes(base, 8) == bytes(
            [8, 7, 6, 5, 4, 3, 2, 1]
        )

    def test_memory_starts_zeroed(self, space):
        base = space.region("persistent").base
        assert space.read(base, 8) == 0

    def test_value_too_large(self, space):
        base = space.region("volatile").base
        with pytest.raises(MemoryAccessError):
            space.write(base, 4, 1 << 32)

    def test_negative_value(self, space):
        base = space.region("volatile").base
        with pytest.raises(MemoryAccessError):
            space.write(base, 8, -1)

    def test_unmapped_address(self, space):
        with pytest.raises(MemoryAccessError):
            space.read(0x10, 8)

    def test_word_crossing_rejected(self, space):
        base = space.region("volatile").base
        with pytest.raises(MemoryAccessError):
            space.read(base + 4, 8)


def _scan_region_of(regions, addr, size):
    """The linear lookup region_of's bisection must agree with."""
    for region in regions:
        if region.contains(addr, size):
            return region.name
        if region.base <= addr < region.end:
            return "runs past"
    return "unmapped"


class TestRegionLookup:
    def test_bulk_access_running_past_region_rejected(self, space):
        end = space.region("volatile").end
        with pytest.raises(MemoryAccessError, match="runs past region"):
            space.read_bytes(end - 4, 8)
        with pytest.raises(MemoryAccessError, match="runs past region"):
            space.write_bytes(end - 2, b"abcd")

    def test_word_access_past_region_end_rejected(self):
        space = AddressSpace([Region("odd", 0x1000, 12, False)])
        assert space.read(0x1008, 4) == 0
        with pytest.raises(MemoryAccessError, match="runs past region"):
            space.read(0x1008, 8)
        with pytest.raises(MemoryAccessError, match="unmapped"):
            space.write(0x1010, 8, 1)

    @given(
        extents=st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 40)), min_size=1, max_size=5
        ),
        addr=st.integers(0, 400),
        size=st.integers(1, 16),
    )
    def test_bisection_agrees_with_linear_scan(self, extents, addr, size):
        regions, cursor = [], 0
        for index, (gap, length) in enumerate(extents):
            base = cursor + 8 * gap
            regions.append(Region(f"r{index}", base, length, index % 2 == 0))
            cursor = base + length + (-(base + length) % 8)
        space = AddressSpace(list(reversed(regions)))
        expected = _scan_region_of(regions, addr, size)
        if expected in ("runs past", "unmapped"):
            with pytest.raises(MemoryAccessError, match=expected):
                space.region_of(addr, size)
        else:
            assert space.region_of(addr, size).name == expected


class TestBulkAccess:
    def test_bytes_roundtrip(self, space):
        base = space.region("persistent").base
        payload = bytes(range(100))
        space.write_bytes(base + 8, payload)
        assert space.read_bytes(base + 8, 100) == payload

    def test_empty_bulk_ops(self, space):
        base = space.region("volatile").base
        space.write_bytes(base, b"")
        assert space.read_bytes(base, 0) == b""

    def test_negative_size_rejected(self, space):
        base = space.region("volatile").base
        with pytest.raises(MemoryAccessError):
            space.read_bytes(base, -1)

    def test_bulk_ignores_word_alignment(self, space):
        base = space.region("volatile").base
        space.write_bytes(base + 3, b"xyz")
        assert space.read_bytes(base + 3, 3) == b"xyz"
