"""Flat simulated address space with volatile and persistent regions.

The paper assumes "memory provides both volatile and persistent address
spaces" on a DRAM-like bus (Section 2.1).  We model a single flat address
space partitioned into named regions, each byte-backed so that recovery
can inspect actual persistent contents.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import MemoryAccessError
from repro.memory import layout

#: Default bases chosen far apart so volatile/persistent never collide.
DEFAULT_VOLATILE_BASE = 0x1000_0000
DEFAULT_PERSISTENT_BASE = 0x8000_0000

#: Default region sizes.  Traces in this repo are small; 4 MiB is plenty.
DEFAULT_REGION_SIZE = 4 * 1024 * 1024


@dataclass
class Region:
    """A contiguous, byte-backed slice of the simulated address space."""

    name: str
    base: int
    size: int
    persistent: bool
    data: bytearray = field(repr=False, default_factory=bytearray)

    def __post_init__(self) -> None:
        if self.base < 0 or self.size <= 0:
            raise MemoryAccessError(
                f"region {self.name!r} has invalid extent "
                f"base={self.base:#x} size={self.size}"
            )
        if not layout.is_aligned(self.base, layout.WORD_SIZE):
            raise MemoryAccessError(
                f"region {self.name!r} base {self.base:#x} is not word aligned"
            )
        if not self.data:
            self.data = bytearray(self.size)
        elif len(self.data) != self.size:
            raise MemoryAccessError(
                f"region {self.name!r} backing store has {len(self.data)} "
                f"bytes, expected {self.size}"
            )

    @property
    def end(self) -> int:
        """One past the last mapped address."""
        return self.base + self.size

    def contains(self, addr: int, size: int = 1) -> bool:
        """Return True when [addr, addr+size) lies wholly inside this region."""
        return self.base <= addr and addr + size <= self.end

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read raw bytes; the caller is responsible for range checks."""
        offset = addr - self.base
        return bytes(self.data[offset : offset + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write raw bytes; the caller is responsible for range checks."""
        offset = addr - self.base
        self.data[offset : offset + len(data)] = data


class AddressSpace:
    """The simulated machine's memory: a set of non-overlapping regions.

    Values are stored little-endian.  Word-level `read`/`write` enforce the
    access rules in :func:`repro.memory.layout.validate_access`; raw
    `read_bytes`/`write_bytes` only enforce mapping, for bulk inspection.
    """

    def __init__(self, regions: Optional[List[Region]] = None) -> None:
        self._regions: List[Region] = []
        self._by_name: Dict[str, Region] = {}
        #: Region bases and ends in ``_regions`` order, for bisection.
        self._bases: List[int] = []
        self._ends: List[int] = []
        for region in regions or []:
            self.add_region(region)

    @classmethod
    def with_default_layout(
        cls,
        volatile_size: int = DEFAULT_REGION_SIZE,
        persistent_size: int = DEFAULT_REGION_SIZE,
    ) -> "AddressSpace":
        """Build the standard two-region layout used by the machine."""
        return cls(
            [
                Region("volatile", DEFAULT_VOLATILE_BASE, volatile_size, False),
                Region("persistent", DEFAULT_PERSISTENT_BASE, persistent_size, True),
            ]
        )

    @property
    def regions(self) -> List[Region]:
        """Regions in ascending base order (copy; safe to iterate)."""
        return list(self._regions)

    def add_region(self, region: Region) -> None:
        """Map a region, rejecting overlaps and duplicate names."""
        if region.name in self._by_name:
            raise MemoryAccessError(f"duplicate region name {region.name!r}")
        for existing in self._regions:
            if region.base < existing.end and existing.base < region.end:
                raise MemoryAccessError(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        self._by_name[region.name] = region
        self._bases = [r.base for r in self._regions]
        self._ends = [r.end for r in self._regions]

    def region(self, name: str) -> Region:
        """Look a region up by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise MemoryAccessError(f"no region named {name!r}") from None

    def region_of(self, addr: int, size: int = 1) -> Region:
        """Return the region wholly containing [addr, addr+size).

        Runs on every simulated access (``read``, ``write``,
        ``is_persistent``), so a mapped range is found by one bisection
        over the region bases: regions never overlap, so only the last
        one based at or below ``addr`` can hold it.  The scan below only
        runs to raise the precise error.
        """
        if size > 0:
            index = bisect_right(self._bases, addr) - 1
            if index >= 0 and addr + size <= self._ends[index]:
                return self._regions[index]
        for region in self._regions:
            if region.contains(addr, size):
                return region
            if region.base <= addr < region.end:
                raise MemoryAccessError(
                    f"access at {addr:#x} size {size} runs past region "
                    f"{region.name!r}"
                )
        raise MemoryAccessError(f"unmapped address {addr:#x}")

    def is_persistent(self, addr: int) -> bool:
        """True when ``addr`` lies in a persistent region."""
        return self.region_of(addr).persistent

    def read(self, addr: int, size: int) -> int:
        """Load an unsigned little-endian value of 1-8 bytes."""
        layout.validate_access(addr, size)
        region = self.region_of(addr, size)
        return int.from_bytes(region.read_bytes(addr, size), "little")

    def write(self, addr: int, size: int, value: int) -> None:
        """Store an unsigned little-endian value of 1-8 bytes."""
        layout.validate_access(addr, size)
        if value < 0 or value >= 1 << (8 * size):
            raise MemoryAccessError(
                f"value {value} does not fit in {size} bytes"
            )
        region = self.region_of(addr, size)
        region.write_bytes(addr, value.to_bytes(size, "little"))

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Bulk read for inspection/recovery; no word-atomicity rules."""
        if size < 0:
            raise MemoryAccessError(f"negative read size {size}")
        if size == 0:
            return b""
        region = self.region_of(addr, size)
        return region.read_bytes(addr, size)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Bulk write for test setup; no word-atomicity rules."""
        if not data:
            return
        region = self.region_of(addr, len(data))
        region.write_bytes(addr, data)
