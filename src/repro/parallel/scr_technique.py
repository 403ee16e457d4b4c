"""The SCR performance engine (§3).

Round-robin spraying, per-core private replicas — no serialization points,
no bouncing.  What SCR pays instead:

* **history fast-forward**: each packet's service grows by ``h × c2``
  where ``h`` is the number of piggybacked history items (``k-1`` in steady
  state) — the Appendix A model ``t + (k-1)·c2``;
* **bytes**: the sequencer's prefix enlarges every frame on the wire and
  across PCIe, which is what eventually caps scaling at the NIC
  (Figure 10a) — ``wire_len`` reports the enlarged frame;
* **memory**: every core holds *all* flows, so SCR's replicas spill out of
  L2 before a sharded layout would (scaling limit (ii), §3.1);
* optionally, **loss-recovery costs** (Figure 10b): per-packet log writes,
  and — when losses are injected — spinning on other cores' logs plus the
  catch-up transitions for each recovered sequence.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..core.packet_format import ScrPacketCodec
from ..cpu.costmodel import CPU_FREQ_GHZ
from ..cpu.simulator import PerfPacket
from ..telemetry.events import (
    EV_FAST_FORWARD,
    EV_HISTORY_DEPTH,
    EV_QUARANTINE,
    EV_RESYNC,
    EV_SPRAY,
)
from .base import INVALID, VALID, BaseEngine, Cost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.simulator import PerfTrace

__all__ = ["ScrEngine"]


class ScrEngine(BaseEngine):
    """Performance model of state-compute replication across cores."""

    name = "scr"
    catches_up = True

    def __init__(
        self,
        *args,
        num_slots: Optional[int] = None,
        dummy_eth: bool = True,
        with_recovery: bool = False,
        loss_rate: float = 0.0,
        seed: int = 0,
        extra_compute_ns: float = 0.0,
        count_wire_overhead: bool = True,
        fault_epoch_len: int = 32,
        **kwargs,
    ) -> None:
        """``extra_compute_ns`` inflates both ``c1`` and ``c2`` — the knob the
        Figure 9 compute-latency sweep turns.

        ``count_wire_overhead`` controls whether the sequencer's prefix adds
        to each frame's wire size.  The Figure 6/7 methodology truncates
        packets to a fixed size *including* the piggybacked history ("the
        packet size limits the number of items of history metadata", §4.2),
        so those sweeps pass False; Figure 10a feeds bare 64-byte packets
        and lets SCR alone inflate them, so it keeps the default True.

        ``fault_epoch_len`` is the sequencer's checkpoint epoch for the
        quarantine-resync cost model (see ``note_fault_drop``): a
        resyncing core replays on average half an epoch past the gap.
        """
        super().__init__(*args, **kwargs)
        if loss_rate and not with_recovery:
            raise ValueError("loss injection requires with_recovery=True")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.num_slots = num_slots if num_slots is not None else self.num_cores
        if self.num_slots < self.num_cores:
            raise ValueError("history slots must cover the core count")
        self.codec = ScrPacketCodec(
            meta_size=self.program.metadata_size,
            num_slots=self.num_slots,
            dummy_eth=dummy_eth,
        )
        self.count_wire_overhead = count_wire_overhead
        self.with_recovery = with_recovery
        self.loss_rate = loss_rate
        self.seed = seed
        self.extra_compute_ns = extra_compute_ns
        if fault_epoch_len < 1:
            raise ValueError("fault_epoch_len must be >= 1")
        self.fault_epoch_len = fault_epoch_len
        self._rng = random.Random(seed)
        self._rr = 0
        self._seq = 0
        #: per-core count of sequences lost ahead of the next delivery;
        #: their recovery cost lands on that next packet's service.
        self._pending_lost = [0] * self.num_cores
        self.injected = 0
        #: per-core count of *fault-injected* drops (repro.faults) awaiting
        #: gap handling on the core's next service.
        self._fault_gap = [0] * self.num_cores
        self.fault_gaps = 0
        self.fault_gaps_covered = 0
        self.quarantines = 0
        self.resyncs = 0
        self.resync_replayed = 0
        self.resync_ns_total = 0.0
        #: memo of :meth:`loss_batch`: (key, fault column, loss column,
        #: losses, rng state after the draws).
        self._loss_memo = None

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed)
        self._rr = 0
        self._seq = 0
        self._pending_lost = [0] * self.num_cores
        self.injected = 0
        self._fault_gap = [0] * self.num_cores
        self.fault_gaps = 0
        self.fault_gaps_covered = 0
        self.quarantines = 0
        self.resyncs = 0
        self.resync_replayed = 0
        self.resync_ns_total = 0.0

    # -- protocol -----------------------------------------------------------------

    def fits_in_frame(self, frame_bytes: int) -> bool:
        """Can this core count's history ride inside a fixed frame size?"""
        return self.codec.overhead_bytes <= frame_bytes

    @cached_property
    def _prefix_bytes(self) -> Tuple[int, int]:
        """Sequencer prefix bytes every frame gains: (wire, host
        interconnect).

        The prefix rides the wire when ``count_wire_overhead`` says so.
        With a ToR-switch sequencer the wire and PCIe see the same frame;
        with a NIC-resident sequencer (``dummy_eth=False``) the history is
        appended *after* the MAC, so PCIe carries it even when the wire
        does not — the §4.2 PCIe-transaction overhead.  First read after
        construction, so it sees a subclass's codec (relaxed SCR's).
        """
        overhead = self.codec.overhead_bytes
        wire = overhead if self.count_wire_overhead else 0
        dma = overhead if self.count_wire_overhead or not self.codec.dummy_eth else 0
        return wire, dma

    def wire_len(self, pp: PerfPacket) -> int:
        return pp.wire_len + self._prefix_bytes[0]

    def dma_len(self, pp: PerfPacket) -> int:
        """Bytes crossing the host interconnect per packet."""
        return pp.wire_len + self._prefix_bytes[1]

    def steer(self, pp: PerfPacket) -> int:
        self._seq += 1
        core = self._rr
        self._rr = (self._rr + 1) % self.num_cores
        if self.tracer.enabled:
            self.tracer.emit(EV_SPRAY, core=core, seq=self._seq, index=pp.index)
        return core

    def pre_enqueue(self, pp: PerfPacket, core: int) -> bool:
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self._pending_lost[core] += 1
            self.injected += 1
            return False
        return True

    def note_fault_drop(self, core: int, pp: PerfPacket) -> None:
        """A repro.faults drop stole a packet already sprayed to ``core``.

        The replica will see a sequence hole on its next delivery; the
        recovery work (window catch-up, or an epoch-checkpoint resync
        when the hole exceeds the history window) is charged to that
        next packet's service time.
        """
        self._fault_gap[core] += 1

    def fault_summary(self) -> dict:
        """Recovery-cost counters for SimResult.fault_stats."""
        return {
            "fault_gaps": self.fault_gaps,
            "fault_gaps_covered": self.fault_gaps_covered,
            "quarantines": self.quarantines,
            "resyncs": self.resyncs,
            "resync_replayed": self.resync_replayed,
            "resync_ns_total": self.resync_ns_total,
            "resync_cycles_total": self.resync_ns_total * CPU_FREQ_GHZ,
        }

    def _history_items(self) -> int:
        """Fast-forward work per packet: the cap in steady state, fewer
        early."""
        return min(max(self._seq - 1, 0), self.history_cap())

    # -- columnar hot-path hooks (docs/HOTPATH.md) --------------------------------

    def columnar_eligible(self) -> bool:
        """Batched replay is exact, loss injection included: the losses
        are drawn up front (:meth:`loss_batch`) and, like fault drops,
        become stolen rows whose recovery the next delivery on their core
        pays (:meth:`pending_service`).  Only an engine drawing losses it
        never recovers (``loss_rate`` set after construction without
        ``with_recovery``) stays on the event loop."""
        return self.with_recovery or not self.loss_rate

    def wire_len_batch(self, trace: "PerfTrace") -> np.ndarray:
        return trace.wire_lens + self._prefix_bytes[0]

    def dma_len_batch(self, trace: "PerfTrace") -> np.ndarray:
        return trace.wire_lens + self._prefix_bytes[1]

    def steer_batch(self, trace: "PerfTrace") -> np.ndarray:
        """Round-robin spraying as pure row math (state advances in
        :meth:`commit_steer_batch`)."""
        offsets = np.arange(len(trace), dtype=np.int64)
        return (self._rr + offsets) % self.num_cores

    def commit_steer_batch(self, count: int) -> None:
        self._seq += count
        self._rr = (self._rr + count) % self.num_cores

    def history_cap(self) -> int:
        return self.num_cores - 1

    def loss_batch(self, trace: "PerfTrace",
                   fault_dropped: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """The rows :meth:`pre_enqueue` loses, as a bool column.

        Drawn from a fresh ``random.Random(seed)`` — the state
        :meth:`reset` leaves — one draw per row that reaches
        ``pre_enqueue`` (fault-dropped rows never do), in index order.
        Pure: ``_rng`` advances in :meth:`commit_stolen`.  The draws do
        not depend on the rate, so the column is memoized per trace
        length and fault column.
        """
        if not self.loss_rate:
            return None
        n = len(trace)
        key = (n, self.seed, self.loss_rate)
        memo = self._loss_memo
        if memo is not None and memo[0] == key and memo[1] is fault_dropped:
            return memo[2]
        rng = random.Random(self.seed)
        draws = n if fault_dropped is None else n - int(np.count_nonzero(fault_dropped))
        hits = np.array([rng.random() for _ in range(draws)]) < self.loss_rate
        if fault_dropped is None:
            lost = hits
        else:
            lost = np.zeros(n, dtype=bool)
            lost[~fault_dropped] = hits
        self._loss_memo = (key, fault_dropped, lost, int(np.count_nonzero(lost)),
                           rng.getstate())
        return lost

    def pending_service(self, h: int, miss_frac: float, spill_ns: float,
                        lost: int, gap: int):
        """Service time of a valid delivery that finds ``lost`` injected
        losses and ``gap`` fault drops queued on its core, and the
        ``recovery`` terms it pays (python floats, as in
        :meth:`service_ns`)."""
        recovery = self._recovery_cost(h, lost, gap)[0]
        return self._service_cost(VALID, h, miss_frac, spill_ns, recovery)[0], recovery

    def commit_stolen(self, consumers, pending_lost, fault_gap) -> None:
        """Commit a columnar run's stolen rows: the loss draws of the last
        :meth:`loss_batch`, the gap recoveries of ``consumers`` (``(h,
        lost, gap)`` per consuming delivery, in service order) and the
        per-core counts nobody consumed."""
        if self.loss_rate:
            self.injected += self._loss_memo[3]
            self._rng.setstate(self._loss_memo[4])
        for h, lost, gap in consumers:
            if gap:
                recovery, _, replay = self._recovery_cost(h, lost, gap)
                self._book_gap(recovery[1], replay)
        self._pending_lost = pending_lost
        self._fault_gap = fault_gap

    def _service_cost(self, kind: int, h, miss_frac, spill_ns,
                      recovery=None) -> Cost:
        """The Appendix A row math ``d + c1 + h·c2 (+ spill + log)``.

        ``recovery`` is ``None`` or the four terms of
        :meth:`_recovery_cost` — ``(loss_ns, gap_ns, recovery_ns,
        recovery_misses)``, floats or columns: catch-up over injected
        losses (charged as log work), fault-gap fast-forward or resync
        replay, cross-core probes and checkpoint fetches, and the extra
        L2 misses.  The terms are non-negative, so a row that owes
        nothing adds exact zeros and stays bit-identical.
        """
        c = self.costs
        extra = self.extra_compute_ns
        if kind == INVALID:
            compute = c.c1 + extra
            return c.d + compute, compute, 0.0, 0, 0.0, compute, 0.0
        history = h * (c.c2 + extra)
        compute = (c.c1 + extra) + history
        if recovery is not None:
            loss_ns, gap_ns, recovery_ns, recovery_misses = recovery
            history = (history + loss_ns) + gap_ns
            compute = compute + gap_ns
        total = (c.d + compute) + spill_ns
        charged = compute + spill_ns
        if self.with_recovery:
            # Logging the h history items plus the packet's own entry.
            log_ns = (h + 1) * self.contention.log_write_ns
            if recovery is not None:
                log_ns = log_ns + loss_ns
            total = total + log_ns
            charged = charged + log_ns
        if recovery is None:
            return total, charged, 0.0, 1, miss_frac, charged, history
        return (total + recovery_ns, charged, recovery_ns, 1,
                miss_frac + recovery_misses, charged + recovery_ns, history)

    def _recovery_cost(self, h: int, lost: int, gap: int):
        """What a delivery at history depth ``h`` owes for ``lost``
        injected losses and ``gap`` fault drops queued ahead of it on its
        core: the four ``recovery`` terms of :meth:`_service_cost`, then
        the gap's ``missed`` sequences and its resync ``replay`` (0 when
        the history window still covers the gap)."""
        c = self.costs
        c2 = c.c2 + self.extra_compute_ns
        loss_ns = gap_ns = recovery_ns = recovery_misses = 0.0
        missed = replay = 0
        if lost:
            # Reading another core's log line (a cross-core transfer per
            # probe) and fast-forwarding through each recovered sequence.
            probes = 1 + (self.num_cores - 1) / 2
            recovery_ns = lost * probes * self.contention.recovery_probe_ns
            loss_ns = lost * c2
            recovery_misses = float(lost)
        if gap:
            # Round-robin spraying turns ``gap`` stolen packets into
            # (gap+1)*k - 1 sequences the replica must account for.
            missed = (gap + 1) * self.num_cores - 1
            if missed <= self.num_slots:
                # A widened history window (num_slots > k) still covers
                # the hole: extra fast-forward items beyond the natural h.
                gap_ns = (missed - h) * c2
            else:
                # Quarantine: fetch the sequencer's newest epoch
                # checkpoint and replay, on average, half an epoch of
                # logged metadata on top of the missed sequences.
                replay = missed + self.fault_epoch_len // 2
                gap_ns = replay * c2
                recovery_ns += self.contention.checkpoint_fetch_ns
                recovery_misses += 1.0  # the restored snapshot is cold
        return (loss_ns, gap_ns, recovery_ns, recovery_misses), missed, replay

    def _book_gap(self, gap_ns: float, replay: int) -> None:
        """Count one delivery's fault-gap recovery (``replay`` as returned
        by :meth:`_recovery_cost`)."""
        self.fault_gaps += 1
        if not replay:
            self.fault_gaps_covered += 1
            return
        self.quarantines += 1
        self.resyncs += 1
        self.resync_replayed += replay
        self.resync_ns_total += gap_ns + self.contention.checkpoint_fetch_ns

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        if not pp.valid:
            return self._charge(core, self._service_cost(INVALID, 0, 0.0, 0.0))
        c = self.costs
        extra = self.extra_compute_ns
        h = self._history_items()
        if self.tracer.enabled:
            self.tracer.emit(EV_HISTORY_DEPTH, ts_ns=start_ns, core=core, depth=h)
        spans = self.spans
        pp_sampled = spans.enabled and spans.sampled(pp.index)
        if pp_sampled:
            # Observational only: span timestamps re-derive the cost model's
            # own intervals, they never feed back into service time.
            history = h * (c.c2 + extra)
            spans.emit("history_ff", pp.index, ts_ns=start_ns + c.d,
                       dur_ns=history, core=core, depth=h)
            spans.emit("transition", pp.index,
                       ts_ns=start_ns + c.d + history,
                       dur_ns=c.c1 + extra, core=core)
        # Every core holds every flow, so spill is judged against the full
        # (replicated) working set.
        miss_frac, spill = self.l2.access(core, pp.key)
        lost = self._pending_lost[core] if self.with_recovery else 0
        gap = self._fault_gap[core]
        if not (lost or gap):
            return self._charge(core, self._service_cost(
                VALID, h, miss_frac, spill))
        hp = self.hostprof
        hp_t0 = hp.now() if gap and hp.enabled else 0
        recovery, missed, replay = self._recovery_cost(h, lost, gap)
        if lost:
            self._pending_lost[core] = 0
            if self.tracer.enabled:
                self.tracer.emit(EV_FAST_FORWARD, ts_ns=start_ns, core=core,
                                 length=lost)
        if gap:
            self._fault_gap[core] = 0
            catchup = recovery[1]
            self._book_gap(catchup, replay)
            if not replay:
                if self.tracer.enabled:
                    self.tracer.emit(EV_FAST_FORWARD, ts_ns=start_ns,
                                     core=core, length=missed - h)
            else:
                fetch = self.contention.checkpoint_fetch_ns
                if self.tracer.enabled:
                    self.tracer.emit(EV_QUARANTINE, ts_ns=start_ns,
                                     core=core, gap=gap, missed=missed)
                    self.tracer.emit(EV_RESYNC, ts_ns=start_ns, core=core,
                                     dur_ns=catchup + fetch, replayed=replay)
                if pp_sampled:
                    spans.emit("quarantine", pp.index, ts_ns=start_ns,
                               core=core, gap=gap, missed=missed)
                    spans.emit("checkpoint_fetch", pp.index, ts_ns=start_ns,
                               dur_ns=fetch, core=core)
                    spans.emit("replay", pp.index, ts_ns=start_ns + fetch,
                               dur_ns=catchup, core=core, replayed=replay)
                    spans.emit("resync", pp.index,
                               ts_ns=start_ns + fetch + catchup, core=core)
            if hp.enabled:
                # Wall cost of gap-recovery fast-forward/resync modeling
                # (steady-state history replay is pure arithmetic).
                hp.charge("scr.history_ff", hp_t0)
        return self._charge(core, self._service_cost(
            VALID, h, miss_frac, spill, recovery))
