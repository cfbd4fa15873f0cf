"""The recovery observer: consistent cuts and failure injection.

The paper models failure as a *recovery observer* that atomically reads
all of persistent memory (Section 4).  The states the observer may see
are exactly the downward-closed subsets ("consistent cuts") of the
persist partial order, applied atomically persist-by-persist.  This
module samples and enumerates those cuts over a
:class:`~repro.core.lattice.GraphDomain` DAG and materialises the
corresponding NVRAM images, which recovery code is then run against.

Cuts have two interchangeable representations:

* a set/iterable of persist ids (the original form, accepted everywhere);
* a packed int bitmask (bit ``pid`` set ⇔ persist ``pid`` included),
  accepted by every cut-consuming function here and produced by the
  ``*_mask`` enumerators.

On a mask-capable graph (one exposing ``dep_masks`` — see
:class:`~repro.core.bitgraph.BitsetGraphDomain`) the mask forms run on
single big-int operations and a cached per-graph address→persist write
index instead of rescanning every node; results are identical to the
set-based reference paths, which remain in place as the oracle.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Union,
)

from repro.core.bitgraph import iter_bits
from repro.core.lattice import GraphDomain
from repro.errors import RecoveryError
from repro.memory.nvram import NvramImage

#: A consistent cut: persist ids as a set/iterable, or a packed bitmask.
Cut = Union[int, Iterable[int]]


def _dep_masks(graph: GraphDomain) -> Optional[List[int]]:
    """The graph's per-node dependency masks, when mask-capable."""
    return getattr(graph, "dep_masks", None)


def cut_members(cut: Cut) -> List[int]:
    """The cut's persist ids in ascending order, whatever its form."""
    if isinstance(cut, int):
        return list(iter_bits(cut))
    return sorted(cut)


def cut_size(cut: Cut) -> int:
    """Number of persists in a cut of either representation."""
    if isinstance(cut, int):
        return bin(cut).count("1")
    return len(cut) if isinstance(cut, (set, frozenset)) else len(set(cut))


def is_consistent_cut(graph: GraphDomain, included: Cut) -> bool:
    """True when ``included`` is downward-closed under persist order."""
    if isinstance(included, int):
        deps = _dep_masks(graph)
        if included < 0 or included >> len(graph.nodes):
            return False
        if deps is not None:
            return all(
                deps[pid] & ~included == 0 for pid in iter_bits(included)
            )
        included = set(iter_bits(included))
    cut = set(included)
    for pid in cut:
        if pid < 0 or pid >= len(graph.nodes):
            return False
        if not graph.nodes[pid].deps <= cut:
            return False
    return True


def full_cut(graph: GraphDomain) -> FrozenSet[int]:
    """The cut containing every persist (no failure)."""
    return frozenset(range(len(graph.nodes)))


def prefix_cut(graph: GraphDomain, count: int) -> FrozenSet[int]:
    """The first ``count`` persists in creation order.

    Creation (pid) order is a linear extension of persist order, so every
    prefix is a consistent cut.
    """
    if count < 0 or count > len(graph.nodes):
        raise RecoveryError(
            f"prefix length {count} outside [0, {len(graph.nodes)}]"
        )
    return frozenset(range(count))


def sample_cut(
    graph: GraphDomain,
    rng: random.Random,
    include_probability: float = 0.5,
) -> FrozenSet[int]:
    """Sample a random consistent cut.

    Walks persists in creation order, including each with the given
    probability when all of its dependences are already included.  The
    result is downward-closed by construction and covers both sparse and
    dense failure states across seeds.
    """
    included: Set[int] = set()
    for node in graph.nodes:
        if node.deps <= included and rng.random() < include_probability:
            included.add(node.pid)
    return frozenset(included)


def minimal_cut(graph: GraphDomain, pid: int) -> FrozenSet[int]:
    """The smallest consistent cut containing persist ``pid``.

    This is the most adversarial legal failure state for ``pid``: the
    persist and its ancestors completed, *nothing else* did.  Testing
    recovery at every persist's minimal cut deterministically exposes
    missing-ordering bugs that random sampling almost never reaches
    (a random cut includes a deep node only if every one of its ancestors
    was independently included).
    """
    if pid < 0 or pid >= len(graph.nodes):
        raise RecoveryError(f"no persist with id {pid}")
    if _dep_masks(graph) is not None:
        # Straight from the mask: going through ancestors() would memoise
        # one frozenset per visited persist, O(n^2) memory over a sweep.
        return frozenset(iter_bits(graph.ancestor_mask(pid) | 1 << pid))
    return frozenset(graph.ancestors(pid) | {pid})


def minimal_cut_mask(graph: GraphDomain, pid: int) -> int:
    """:func:`minimal_cut` as a bitmask (mask-capable graphs only)."""
    if pid < 0 or pid >= len(graph.nodes):
        raise RecoveryError(f"no persist with id {pid}")
    return graph.ancestor_mask(pid) | (1 << pid)


def linear_extension_cut(
    graph: GraphDomain, rng: random.Random
) -> FrozenSet[int]:
    """A random prefix of a random linear extension of persist order.

    Unlike :func:`sample_cut`, prefix depth is uniform in the number of
    persists, so deep-but-sparse failure states appear with useful
    probability.

    On mask-capable graphs the draw runs on :func:`_extension_index`,
    which counts down once per distinct frontier instead of once per
    edge; it consumes ``rng`` identically and returns the same cut.
    """
    if _dep_masks(graph) is not None:
        return _grouped_extension_cut(graph, rng)
    nodes = graph.nodes
    remaining_deps = {node.pid: set(node.deps) for node in nodes}
    dependents = {node.pid: [] for node in nodes}
    for node in nodes:
        for dep in node.deps:
            dependents[dep].append(node.pid)
    ready = [pid for pid, deps in remaining_deps.items() if not deps]
    target = rng.randint(0, len(nodes))
    included: Set[int] = set()
    while ready and len(included) < target:
        index = rng.randrange(len(ready))
        ready[index], ready[-1] = ready[-1], ready[index]
        pid = ready.pop()
        included.add(pid)
        for successor in dependents[pid]:
            deps = remaining_deps[successor]
            deps.discard(pid)
            if not deps:
                ready.append(successor)
    return frozenset(included)


def _extension_index(graph: GraphDomain) -> tuple:
    """Persists grouped by frontier mask, cached on the graph.

    Returns ``(roots, members, sizes, waiting)``: the frontier-0 persists,
    each non-root group's persists (ascending pid) and frontier size, and
    per persist the ids of the groups whose frontier names it (ascending
    group id).  Stamped ``(len(nodes), _version)`` like
    :func:`_write_index`, so a later ``persist`` or ``rollback``
    rebuilds it.
    """
    stamp = (len(graph.nodes), graph._version)
    cached = getattr(graph, "_extension_cache", None)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    groups: Dict[int, List[int]] = {}
    for pid, mask in enumerate(graph.dep_masks):
        groups.setdefault(mask, []).append(pid)
    roots = groups.pop(0, [])
    members: List[List[int]] = []
    sizes: List[int] = []
    waiting: List[List[int]] = [[] for _ in graph.nodes]
    for group, (mask, pids) in enumerate(groups.items()):
        members.append(pids)
        sizes.append(bin(mask).count("1"))
        for dep in iter_bits(mask):
            waiting[dep].append(group)
    index = (roots, members, sizes, waiting)
    graph._extension_cache = (stamp, index)
    return index


def _grouped_extension_cut(
    graph: GraphDomain, rng: random.Random
) -> FrozenSet[int]:
    """:func:`linear_extension_cut`'s set-path draw over frontier groups.

    Same RNG calls in the same order: one ``randint`` for the depth, one
    ``randrange`` per step with swap-pop.  A persist's last dependency
    completes its whole group at once, and the set path would append
    those persists in ascending pid; when several groups complete in one
    step their members are merged in ascending pid for the same reason.
    """
    roots, members, sizes, waiting = _extension_index(graph)
    remaining = list(sizes)
    ready = list(roots)
    target = rng.randint(0, len(graph.nodes))
    included: List[int] = []
    while ready and len(included) < target:
        index = rng.randrange(len(ready))
        ready[index], ready[-1] = ready[-1], ready[index]
        pid = ready.pop()
        included.append(pid)
        done = []
        for group in waiting[pid]:
            remaining[group] -= 1
            if not remaining[group]:
                done.append(group)
        if len(done) == 1:
            ready.extend(members[done[0]])
        elif done:
            ready.extend(sorted(p for group in done for p in members[group]))
    return frozenset(included)


def enumerate_cut_masks(
    graph: GraphDomain, limit: int = 100_000
) -> Iterator[int]:
    """Enumerate every consistent cut as a bitmask (mask fast path).

    Visits cuts in exactly the order :func:`enumerate_cuts` does — the
    same BFS with the same ascending-pid extension loop — so the two
    enumerations correspond element-for-element; only the membership and
    downward-closure tests run on single big-int operations.  Requires a
    mask-capable graph (``dep_masks``).

    Raises:
        RecoveryError: same ``limit`` overrun as :func:`enumerate_cuts`.
    """
    deps = _dep_masks(graph)
    if deps is None:
        raise RecoveryError(
            "graph does not expose dep_masks; use enumerate_cuts or the "
            "bitset domain"
        )
    count = len(graph.nodes)
    seen: Set[int] = {0}
    frontier: Deque[int] = deque((0,))
    produced = 0
    while frontier:
        cut = frontier.popleft()
        produced += 1
        if produced > limit:
            raise RecoveryError(
                f"more than {limit} consistent cuts; graph too large to "
                f"enumerate"
            )
        yield cut
        for pid in range(count):
            bit = 1 << pid
            if not cut & bit and deps[pid] & ~cut == 0:
                extended = cut | bit
                if extended not in seen:
                    seen.add(extended)
                    frontier.append(extended)


def enumerate_cuts(
    graph: GraphDomain, limit: int = 100_000
) -> Iterator[FrozenSet[int]]:
    """Enumerate every consistent cut (small graphs only).

    Yields cuts in non-decreasing size order starting from the empty cut.
    On mask-capable graphs the walk runs on :func:`enumerate_cut_masks`
    (identical order) and converts each mask at yield time.

    Raises:
        RecoveryError: when more than ``limit`` cuts would be produced —
            the count is exponential in the antichain width, so callers
            must keep graphs tiny.
    """
    if _dep_masks(graph) is not None:
        for mask in enumerate_cut_masks(graph, limit=limit):
            yield frozenset(iter_bits(mask))
        return
    seen: Set[FrozenSet[int]] = {frozenset()}
    frontier: Deque[FrozenSet[int]] = deque((frozenset(),))
    produced = 0
    while frontier:
        cut = frontier.popleft()
        produced += 1
        if produced > limit:
            raise RecoveryError(
                f"more than {limit} consistent cuts; graph too large to "
                f"enumerate"
            )
        yield cut
        for node in graph.nodes:
            if node.pid not in cut and node.deps <= cut:
                extended = cut | {node.pid}
                if extended not in seen:
                    seen.add(extended)
                    frontier.append(extended)


def _write_index(graph: GraphDomain) -> List[Dict[int, int]]:
    """Per-persist {byte address: value} maps, cached on the graph.

    Built once per graph version; merging the maps of a cut's members in
    pid order reproduces exactly the byte map the legacy full-node scan
    computes.  The cache is stamped with ``(len(nodes), _version)`` so
    any ``persist``/``coalesce`` after indexing rebuilds it.
    """
    stamp = (len(graph.nodes), getattr(graph, "_version", None))
    cached = getattr(graph, "_recovery_index", None)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    index: List[Dict[int, int]] = []
    for node in graph.nodes:
        written: Dict[int, int] = {}
        for addr, data in node.writes:
            for offset, byte in enumerate(data):
                written[addr + offset] = byte
        index.append(written)
    graph._recovery_index = (stamp, index)
    return index


def cut_content_key(graph: GraphDomain, cut: Cut) -> str:
    """Content hash of the NVRAM bytes a cut writes over the base image.

    Applies the cut's persists in pid order (a linear extension of
    persist order, so a legal application order for any consistent cut)
    and hashes the resulting byte map.  Two cuts with equal keys
    materialise byte-identical images from any common base, so recovery
    needs to be checked at only one of them — the deduplication
    :func:`unique_cuts` and the ``repro.check`` cut memo are built on.

    Accepts a bitmask cut; on mask-capable graphs the byte map comes from
    the cached per-graph write index instead of a full node scan.  The
    digest is byte-identical either way.
    """
    if isinstance(cut, int) or _dep_masks(graph) is not None:
        index = _write_index(graph)
        written: Dict[int, int] = {}
        members = (
            iter_bits(cut) if isinstance(cut, int) else sorted(set(cut))
        )
        count = len(index)
        for pid in members:
            if 0 <= pid < count:
                written.update(index[pid])
        buffer = bytearray()
        append = buffer.extend
        for addr in sorted(written):
            append(addr.to_bytes(8, "little"))
            buffer.append(written[addr])
        return hashlib.sha256(bytes(buffer)).hexdigest()
    written = {}
    cut_set = set(cut)
    for node in graph.nodes:
        if node.pid in cut_set:
            for addr, data in node.writes:
                for offset, byte in enumerate(data):
                    written[addr + offset] = byte
    digest = hashlib.sha256()
    for addr in sorted(written):
        digest.update(addr.to_bytes(8, "little"))
        digest.update(written[addr].to_bytes(1, "little"))
    return digest.hexdigest()


@dataclass
class CutStats:
    """Deduplication counters for one :func:`unique_cuts` sweep.

    ``enumerated`` counts every consistent cut visited; ``unique`` the
    distinct content keys among them.  The gap is the re-imaging work a
    caller skips by checking representatives only.
    """

    enumerated: int = 0
    unique: int = 0

    @property
    def deduplicated(self) -> int:
        """Cuts skipped because an earlier cut had identical content."""
        return self.enumerated - self.unique


def unique_cuts(
    graph: GraphDomain,
    limit: int = 100_000,
    stats: Optional[CutStats] = None,
) -> Iterator[FrozenSet[int]]:
    """Enumerate one representative cut per distinct NVRAM content.

    Wraps :func:`enumerate_cuts`, yielding only the first cut of each
    :func:`cut_content_key` equivalence class (the smallest, since
    enumeration is in non-decreasing size order).  Checking recovery at
    the representatives covers every observable failure image while
    skipping redundant :func:`image_at_cut` materialisations; pass
    ``stats`` to observe the enumerated/unique gap.

    Raises:
        RecoveryError: when more than ``limit`` cuts would be
            enumerated (same bound as :func:`enumerate_cuts`).
    """
    stats = stats if stats is not None else CutStats()
    seen: Set[str] = set()
    for cut in enumerate_cuts(graph, limit=limit):
        stats.enumerated += 1
        key = cut_content_key(graph, cut)
        if key in seen:
            continue
        seen.add(key)
        stats.unique += 1
        yield cut


def unique_cut_masks(
    graph: GraphDomain,
    limit: int = 100_000,
    stats: Optional[CutStats] = None,
) -> Iterator[int]:
    """:func:`unique_cuts` on the all-mask pipeline (mask-capable graphs).

    Same representatives as :func:`unique_cuts` (identical enumeration
    order, identical content keys), yielded as bitmasks.
    """
    stats = stats if stats is not None else CutStats()
    seen: Set[str] = set()
    for mask in enumerate_cut_masks(graph, limit=limit):
        stats.enumerated += 1
        key = cut_content_key(graph, mask)
        if key in seen:
            continue
        seen.add(key)
        stats.unique += 1
        yield mask


def image_at_cut(
    graph: GraphDomain,
    cut: Cut,
    base_image: NvramImage,
    check: bool = True,
) -> NvramImage:
    """Apply the persists in ``cut`` to a copy of ``base_image``.

    Persists are applied in creation order (a linear extension); writes
    to the same address are always ordered by strong persist atomicity,
    so any linear extension yields the same bytes.  Accepts a bitmask
    cut; either way only the cut's members are visited (ascending pid),
    not the whole node list.  The copy is copy-on-write
    (:meth:`NvramImage.copy`), so an image costs O(pages the base and
    the cut's persists touch), not O(region size).

    Raises:
        RecoveryError: when ``check`` is set and the cut is inconsistent.
    """
    if check and not is_consistent_cut(graph, cut):
        raise RecoveryError("cut is not downward-closed under persist order")
    members = cut_members(cut)
    image = base_image.copy()
    nodes = graph.nodes
    count = len(nodes)
    for pid in members:
        if 0 <= pid < count:
            for addr, data in nodes[pid].writes:
                image.apply_persist(addr, data)
    return image


class FailureInjector:
    """Generates failure-state NVRAM images for recovery testing."""

    def __init__(self, graph: GraphDomain, base_image: NvramImage) -> None:
        self._graph = graph
        self._base = base_image

    @property
    def persist_count(self) -> int:
        """Number of persists available to cut."""
        return len(self._graph.nodes)

    def image_for(self, cut: Cut) -> NvramImage:
        """Materialise the image for an explicit cut (ids or bitmask)."""
        return image_at_cut(self._graph, cut, self._base)

    def faulty_image_for(self, cut: Cut, plan) -> tuple:
        """Materialise the image for ``cut`` with device faults injected.

        ``plan`` is a :class:`repro.inject.plan.FaultPlan`; returns the
        (image, injected faults) pair from
        :func:`repro.inject.engine.materialize_faulty`.  An empty fault
        list means the image equals :meth:`image_for` byte-for-byte.
        """
        from repro.inject.engine import materialize_faulty

        cut_set = set(cut_members(cut)) if isinstance(cut, int) else set(cut)
        if not is_consistent_cut(self._graph, cut_set):
            raise RecoveryError(
                "cut is not downward-closed under persist order"
            )
        return materialize_faulty(self._graph, cut_set, self._base, plan)

    def random_images(
        self,
        samples: int,
        seed: int = 0,
        include_probability: Optional[float] = None,
        min_probability: float = 0.05,
        max_probability: float = 0.95,
    ) -> Iterator[tuple]:
        """Yield ``samples`` (cut, image) pairs from seeded random cuts.

        When ``include_probability`` is None, each sample draws its own
        probability uniformly from ``[min_probability, max_probability]``
        (default ``[0.05, 0.95]``), covering sparse through dense failures
        while avoiding the degenerate all-empty/all-full extremes.

        Raises:
            RecoveryError: when the probability bounds are not an
                ascending pair within ``[0, 1]``.
        """
        if not 0.0 <= min_probability <= max_probability <= 1.0:
            raise RecoveryError(
                f"probability bounds [{min_probability}, {max_probability}] "
                f"must be ascending within [0, 1]"
            )
        rng = random.Random(seed)
        for _ in range(samples):
            probability = (
                include_probability
                if include_probability is not None
                else rng.uniform(min_probability, max_probability)
            )
            cut = sample_cut(self._graph, rng, probability)
            yield cut, image_at_cut(self._graph, cut, self._base, check=False)

    def minimal_images(self, step: int = 1) -> Iterator[tuple]:
        """Yield (cut, image) at every ``step``-th persist's minimal cut."""
        if step <= 0:
            raise RecoveryError(f"step must be positive, got {step}")
        for pid in range(0, len(self._graph.nodes), step):
            cut = minimal_cut(self._graph, pid)
            yield cut, image_at_cut(self._graph, cut, self._base, check=False)

    def extension_images(self, samples: int, seed: int = 0) -> Iterator[tuple]:
        """Yield (cut, image) from random linear-extension prefixes."""
        rng = random.Random(seed)
        for _ in range(samples):
            cut = linear_extension_cut(self._graph, rng)
            yield cut, image_at_cut(self._graph, cut, self._base, check=False)

    def prefix_images(self, step: int = 1) -> Iterator[tuple]:
        """Yield (cut, image) for every ``step``-th prefix cut, plus full."""
        if step <= 0:
            raise RecoveryError(f"step must be positive, got {step}")
        total = len(self._graph.nodes)
        for count in range(0, total + 1, step):
            cut = prefix_cut(self._graph, count)
            yield cut, image_at_cut(self._graph, cut, self._base, check=False)
        if total % step:
            cut = full_cut(self._graph)
            yield cut, image_at_cut(self._graph, cut, self._base, check=False)
