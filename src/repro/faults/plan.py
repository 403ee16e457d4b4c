"""Deterministic fault schedules: a FaultSpec turned into decisions.

The whole fault subsystem rests on one property: *the schedule is a pure
function of the spec*.  A sequential PRNG cannot give that — whether
packet 512 drops would depend on how many random draws preceded it, which
differs between the serial and ``--jobs N`` paths and between an MLFFR
search's probes.  Instead every decision hashes ``(seed, fault kind,
packet index)`` through a splitmix64-style integer mixer into a uniform
[0, 1) value and compares it against the spec's rate.  Consequences:

* examining packets in any order (or not at all) yields the same answers;
* every MLFFR probe of one scenario sees the identical fault pattern;
* two processes never need to share RNG state to agree.

This is the "injected seeded FaultPlan RNG" that scrlint SCR006 requires
all fault/recovery code to route randomness through.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .spec import FaultSpec

__all__ = ["FaultPlan"]

_MASK64 = (1 << 64) - 1
#: Domain-separation tags: one per fault kind, so a packet's drop decision
#: is independent of its duplicate/reorder/truncate decisions.
_TAG_DROP = 0x1D
_TAG_POP_DROP = 0x2D
_TAG_DUPLICATE = 0x3D
_TAG_REORDER = 0x4D
_TAG_REORDER_OFFSET = 0x5D
_TAG_TRUNCATE = 0x6D


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 output mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _unit(seed: int, tag: int, index: int) -> float:
    """Uniform [0, 1) as a pure function of (seed, tag, index)."""
    h = _splitmix64((seed & _MASK64) ^ (tag * 0xA24BAED4963EE407 & _MASK64))
    h = _splitmix64(h ^ (index & _MASK64))
    # Top 53 bits → an exactly representable double in [0, 1).
    return (h >> 11) / float(1 << 53)


def _splitmix64_batch(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` over a uint64 column (numpy wraps mod 2**64)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _unit_batch(seed: int, tag: int, count: int) -> np.ndarray:
    """:func:`_unit` for indices ``0..count-1``, bit for bit."""
    h = _splitmix64((seed & _MASK64) ^ (tag * 0xA24BAED4963EE407 & _MASK64))
    z = _splitmix64_batch(np.arange(count, dtype=np.uint64) ^ np.uint64(h))
    return (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)


class FaultPlan:
    """Order-independent fault decisions for one :class:`FaultSpec`.

    Stateless by design: every method is a pure function of the spec and
    its arguments, so one plan can be shared (or rebuilt) freely across
    the NIC model, the event simulator, and the functional harness and
    still describe one single schedule.  (The only thing a plan keeps is
    a memo of :meth:`drop_column`, which is itself such a function.)
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._drop_ix = frozenset(spec.drop_indices)
        self._pop_ix = frozenset(spec.pop_drop_indices)
        self._dup_ix = frozenset(spec.duplicate_indices)
        self._reorder_ix = frozenset(spec.reorder_indices)
        self._trunc_seqs = frozenset(spec.truncate_seqs)
        self._stalls: Dict[int, List[Tuple[int, float]]] = {}
        for core, from_index, stall_ns in spec.core_stalls:
            self._stalls.setdefault(core, []).append((from_index, stall_ns))
        for stalls in self._stalls.values():
            stalls.sort()
        self._kills: Dict[int, int] = {}
        for core, from_index in spec.core_kills:
            prev = self._kills.get(core)
            self._kills[core] = from_index if prev is None else min(prev, from_index)
        self._drop_columns: Dict[int, np.ndarray] = {}

    @property
    def any_faults(self) -> bool:
        return self.spec.any_faults

    @property
    def drops_only(self) -> bool:
        """Are wire→ring drops the only faults the simulator acts on?

        History truncation is sequencer-only, so it does not count; any
        pop-drop, duplicate, reorder, stall or kill does.
        """
        s = self.spec
        return not (
            s.pop_drop_rate or s.pop_drop_indices or s.duplicate_rate
            or s.duplicate_indices or s.reorder_rate or s.reorder_indices
            or s.core_stalls or s.core_kills
        )

    # -- per-packet decisions (0-based arrival index) -------------------------

    def drops(self, index: int) -> bool:
        """Does packet ``index`` drop between wire admission and its ring?"""
        if index in self._drop_ix:
            return True
        rate = self.spec.drop_rate
        return bool(rate) and _unit(self.spec.seed, _TAG_DROP, index) < rate

    def drop_column(self, num_packets: int) -> np.ndarray:
        """:meth:`drops` for packets ``0..num_packets-1`` as a read-only
        bool column.  Memoized: the schedule is rate-independent, so every
        MLFFR probe of a search reuses one column."""
        column = self._drop_columns.get(num_packets)
        if column is None:
            rate = self.spec.drop_rate
            if rate:
                column = _unit_batch(self.spec.seed, _TAG_DROP, num_packets) < rate
            else:
                column = np.zeros(num_packets, dtype=bool)
            column[[i for i in self._drop_ix if 0 <= i < num_packets]] = True
            column.flags.writeable = False
            self._drop_columns[num_packets] = column
        return column

    def pop_drops(self, index: int) -> bool:
        """Is packet ``index`` discarded at the ring-pop (after dispatch)?"""
        if index in self._pop_ix:
            return True
        rate = self.spec.pop_drop_rate
        return bool(rate) and _unit(self.spec.seed, _TAG_POP_DROP, index) < rate

    def duplicates(self, index: int) -> bool:
        """Is packet ``index`` delivered twice?"""
        if index in self._dup_ix:
            return True
        rate = self.spec.duplicate_rate
        return bool(rate) and _unit(self.spec.seed, _TAG_DUPLICATE, index) < rate

    def reorder_offset(self, index: int) -> int:
        """0 (in order) or 1..reorder_window packets of displacement."""
        window = self.spec.reorder_window
        if index in self._reorder_ix:
            return 1 + int(_unit(self.spec.seed, _TAG_REORDER_OFFSET, index) * window)
        rate = self.spec.reorder_rate
        if not rate or _unit(self.spec.seed, _TAG_REORDER, index) >= rate:
            return 0
        return 1 + int(_unit(self.spec.seed, _TAG_REORDER_OFFSET, index) * window)

    # -- sequencer decisions (1-based sequence numbers) -----------------------

    def truncate_depth(self, seq: int) -> int:
        """How many oldest history rows of emission ``seq`` are lost."""
        if seq in self._trunc_seqs:
            return self.spec.truncate_depth
        rate = self.spec.truncate_rate
        if rate and _unit(self.spec.seed, _TAG_TRUNCATE, seq) < rate:
            return self.spec.truncate_depth
        return 0

    # -- per-core schedules ---------------------------------------------------

    def stalls_for(self, core: int) -> Tuple[Tuple[int, float], ...]:
        """Sorted (from_index, stall_ns) schedule for ``core``."""
        return tuple(self._stalls.get(core, ()))

    def kill_index(self, core: int) -> Optional[int]:
        """The packet index at which ``core`` dies, or None."""
        return self._kills.get(core)

    # -- introspection --------------------------------------------------------

    def schedule(self, num_packets: int) -> Dict[str, List[int]]:
        """The firing indices over ``num_packets`` packets, per kind.

        Tests use this to assert determinism (same spec ⇒ same schedule)
        and artifacts use it to report exactly what was injected.
        """
        return {
            "drop": [i for i in range(num_packets) if self.drops(i)],
            "pop_drop": [i for i in range(num_packets) if self.pop_drops(i)],
            "duplicate": [i for i in range(num_packets) if self.duplicates(i)],
            "reorder": [i for i in range(num_packets) if self.reorder_offset(i)],
            "truncate": [s for s in range(1, num_packets + 1)
                         if self.truncate_depth(s)],
        }
