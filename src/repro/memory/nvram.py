"""NVRAM image: the recovery observer's view of persistent memory.

The paper reasons about failure via a *recovery observer* that atomically
reads all of persistent memory at the moment of failure (Section 4).  An
:class:`NvramImage` is that snapshot: it starts from the persistent
region's initial contents and has persists applied to it one atomic
persist at a time.  Failure injection builds images from consistent cuts
of the persist partial order and hands them to recovery code.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.errors import MemoryAccessError
from repro.memory import layout
from repro.memory.address_space import Region

#: Copy-on-write page size in bytes.  An image materialises a private
#: copy of a page on its first write to that page; every other byte is
#: read from the shared, immutable initial contents (or is zero).
PAGE_SIZE = 4096


class NvramImage:
    """Byte-backed snapshot of a persistent region.

    Persists are applied with the paper's atomicity rule: each persist
    must fall within one aligned block of the configured atomic persist
    granularity (default eight bytes), so a persist either fully occurred
    or did not occur at all — never partially.

    The bytes live in two parts: one shared, immutable base (the initial
    contents, or none for a blank image, which reads as zeros) and a dict
    of :data:`PAGE_SIZE`-byte pages written since, each materialised on
    its first write.  Copying an image copies only its written pages, so
    imaging a failure cut costs the pages the cut touches, not the size
    of the region.
    """

    def __init__(
        self,
        base: int,
        size: int,
        initial: bytes = b"",
        persist_granularity: int = layout.DEFAULT_PERSIST_GRANULARITY,
    ) -> None:
        if size <= 0:
            raise MemoryAccessError(f"image size must be positive, got {size}")
        if not layout.is_power_of_two(persist_granularity):
            raise MemoryAccessError(
                f"persist granularity must be a power of two, got "
                f"{persist_granularity}"
            )
        if initial and len(initial) != size:
            raise MemoryAccessError(
                f"initial contents have {len(initial)} bytes, expected {size}"
            )
        self._base = base
        self._size = size
        # ``bytes`` of a ``bytes`` object is the object itself, so an
        # immutable initial image is shared, never copied.
        self._initial: Optional[bytes] = bytes(initial) if initial else None
        self._pages: Dict[int, bytearray] = {}
        self._granularity = persist_granularity
        self._applied = 0

    @classmethod
    def from_region(
        cls,
        region: Region,
        persist_granularity: int = layout.DEFAULT_PERSIST_GRANULARITY,
        blank: bool = True,
    ) -> "NvramImage":
        """Build an image covering ``region``.

        With ``blank=True`` (the default) the image starts zeroed — the
        state NVRAM held before execution — so that only applied persists
        are visible, which is what failure injection needs.  With
        ``blank=False`` the image snapshots the region's current contents
        (i.e., the fully persisted end state) once, here; later writes to
        the region never show through.
        """
        initial = b"" if blank else bytes(region.data)
        return cls(region.base, region.size, initial, persist_granularity)

    @property
    def base(self) -> int:
        """First mapped address."""
        return self._base

    @property
    def size(self) -> int:
        """Image size in bytes."""
        return self._size

    @property
    def end(self) -> int:
        """One past the last mapped address."""
        return self._base + self._size

    @property
    def persist_granularity(self) -> int:
        """Atomic persist granularity in bytes."""
        return self._granularity

    @property
    def persists_applied(self) -> int:
        """Number of persists applied so far."""
        return self._applied

    def _check_range(self, addr: int, size: int) -> int:
        if size <= 0:
            raise MemoryAccessError(f"persist size must be positive, got {size}")
        if addr < self._base or addr + size > self.end:
            raise MemoryAccessError(
                f"range [{addr:#x}, {addr + size:#x}) outside image "
                f"[{self._base:#x}, {self.end:#x})"
            )
        return addr - self._base

    def _page(self, index: int) -> bytearray:
        """The writable page ``index``, materialised on first use."""
        page = self._pages.get(index)
        if page is None:
            start = index * PAGE_SIZE
            stop = min(start + PAGE_SIZE, self._size)
            if self._initial is None:
                page = bytearray(stop - start)
            else:
                page = bytearray(memoryview(self._initial)[start:stop])
            self._pages[index] = page
        return page

    def _write(self, offset: int, data: bytes) -> None:
        index, start = divmod(offset, PAGE_SIZE)
        stop = start + len(data)
        if stop <= PAGE_SIZE:
            self._page(index)[start:stop] = data
            return
        view = memoryview(data)
        while view:
            take = min(PAGE_SIZE - start, len(view))
            self._page(index)[start : start + take] = view[:take]
            view = view[take:]
            index += 1
            start = 0

    def apply_persist(self, addr: int, data: bytes) -> None:
        """Apply one atomic persist.

        Raises:
            MemoryAccessError: when the persist crosses an aligned
                atomic-persist block or falls outside the image.
        """
        offset = self._check_range(addr, len(data))
        first, last = layout.block_range(addr, len(data), self._granularity)
        if first != last:
            raise MemoryAccessError(
                f"persist at {addr:#x} size {len(data)} spans multiple "
                f"{self._granularity}-byte atomic blocks"
            )
        self._write(offset, data)
        self._applied += 1

    def apply_all(self, persists: Iterable[Tuple[int, bytes]]) -> None:
        """Apply a sequence of (addr, data) persists in order."""
        for addr, data in persists:
            self.apply_persist(addr, data)

    def apply_raw(self, addr: int, data: bytes) -> None:
        """Apply a device-level sub-persist, bypassing the atomicity rule.

        Fault injection uses this to model *torn* persists: a device
        whose real write unit is smaller than the model's atomic persist
        granularity can land any aligned fragment of a persist.  Raw
        applies do not count toward :attr:`persists_applied` — they are
        fragments, not persists.

        Raises:
            MemoryAccessError: when the range falls outside the image.
        """
        self._write(self._check_range(addr, len(data)), data)

    def flip_bits(self, addr: int, mask: int) -> None:
        """XOR one byte with ``mask``, modeling in-cell bit corruption.

        Raises:
            MemoryAccessError: when ``addr`` is outside the image or the
                mask is not a byte value.
        """
        if not 0 <= mask <= 0xFF:
            raise MemoryAccessError(f"bit mask {mask:#x} is not a byte")
        index, start = divmod(self._check_range(addr, 1), PAGE_SIZE)
        self._page(index)[start] ^= mask

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read raw bytes from the snapshot."""
        offset = self._check_range(addr, size)
        index, start = divmod(offset, PAGE_SIZE)
        if start + size <= PAGE_SIZE:
            page = self._pages.get(index)
            if page is not None:
                return bytes(page[start : start + size])
            if self._initial is None:
                return bytes(size)
            return self._initial[offset : offset + size]
        # Spans pages: start from the base, then overlay written pages.
        if self._initial is None:
            out = bytearray(size)
        else:
            out = bytearray(memoryview(self._initial)[offset : offset + size])
        end = offset + size
        for index in range(index, (end - 1) // PAGE_SIZE + 1):
            page = self._pages.get(index)
            if page is not None:
                page_start = index * PAGE_SIZE
                lo = max(offset, page_start)
                hi = min(end, page_start + len(page))
                out[lo - offset : hi - offset] = page[
                    lo - page_start : hi - page_start
                ]
        return bytes(out)

    def read(self, addr: int, size: int) -> int:
        """Read an unsigned little-endian value of 1-8 bytes."""
        layout.validate_access(addr, size)
        return int.from_bytes(self.read_bytes(addr, size), "little")

    def copy(self) -> "NvramImage":
        """Fork the image (e.g., to explore alternative failure states).

        Costs O(pages written): the clone shares the immutable base and
        gets private copies of this image's written pages, so neither
        image's later writes are visible to the other.
        """
        clone = NvramImage.__new__(NvramImage)
        clone._base = self._base
        clone._size = self._size
        clone._initial = self._initial
        clone._pages = {
            index: bytearray(page) for index, page in self._pages.items()
        }
        clone._granularity = self._granularity
        clone._applied = self._applied
        return clone
