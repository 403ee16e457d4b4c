"""Relaxed SCR: pruned single-delta history for commutative state.

When every state field a program writes is *commutative* (pure
accumulate-add / OR / max, declared via ``SCR_COMMUTATIVE_FIELDS`` and
machine-checked by scrlint rule SCR007), replicas converge under any
interleaving — the order in which deltas are applied no longer matters.
The relaxed-consistency line of work ("Relaxing constraints in stateful
network data plane design") exploits this: instead of piggybacking the
last ``k-1`` per-packet history items, the sequencer folds them into a
**single merged delta**.  Two costs shrink at once:

* **fast-forward**: each packet applies at most one merged item, so the
  Appendix A service time drops from ``t + (k-1)·c2`` to
  ``t + min(k-1, 1)·c2`` — per-core throughput stops degrading with k;
* **bytes**: the wire prefix carries one history slot instead of ``k-1``,
  so the NIC-bandwidth ceiling of Figure 10a recedes.

For a program with *any* non-commutative written field the relaxation is
unsound, and this engine degenerates to plain SCR (full history, full
cost) rather than silently corrupting state.  Loss recovery is modeled
identically to strict SCR in both modes — a conservative choice, since a
merged delta could also cover wider gaps.
"""

from __future__ import annotations

from ..core.packet_format import ScrPacketCodec
from ..programs.base import SCR_COMMUTATIVE_FIELDS_ATTR
from .scr_technique import ScrEngine

__all__ = ["RelaxedScrEngine"]


class RelaxedScrEngine(ScrEngine):
    """SCR with the history pruned to one merged delta when state commutes."""

    name = "relaxed_scr"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        fields = getattr(self.program, SCR_COMMUTATIVE_FIELDS_ATTR, ())
        #: True when the program declares all written state commutative and
        #: the single-delta pruning is sound.
        self.relaxed = bool(fields)
        if self.relaxed:
            # One wire slot carries the merged delta.  ``self.num_slots``
            # keeps the *logical* coverage window (>= num_cores) used by the
            # gap-recovery math; only the frame layout shrinks.
            self.codec = ScrPacketCodec(
                meta_size=self.program.metadata_size,
                num_slots=1,
                dummy_eth=self.codec.dummy_eth,
            )

    def history_cap(self) -> int:
        """One merged delta when relaxed (the clamp both hot paths
        apply to the history depth)."""
        cap = super().history_cap()
        if self.relaxed:
            return min(cap, 1)
        return cap
