"""Common machinery for the scaling-technique performance engines.

Each engine implements the :class:`~repro.cpu.simulator.PerfEngine` protocol
for one technique from §2/§3: shared state (atomics or locks), sharding (RSS
or RSS++), or SCR.  The engines translate a technique's mechanism into
per-packet service time and counter charges using the Table 4 cost
parameters and the contention constants in ``repro.cpu.costmodel``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, List, Optional, Tuple, Union

import numpy as np

from ..cpu.cache import L2Model
from ..cpu.costmodel import (
    DEFAULT_CONTENTION,
    TABLE4_PARAMS,
    ContentionParams,
    CostParams,
)
from ..cpu.counters import CoreCounters, SystemCounters
from ..cpu.simulator import PerfPacket
from ..hostprof.clock import NULL_HOSTPROF, PhaseClock
from ..obs.spans import NULL_SPANS, SpanEmitter
from ..programs.base import PacketProgram
from ..telemetry.events import NULL_TRACER, EventTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.simulator import PerfTrace

__all__ = ["BaseEngine", "hash_for_program", "INVALID", "VALID"]

#: Service kinds every engine's cost formula knows: a packet the program
#: does not parse (dispatch plus compute, no state) and a parsed one.
#: Engines with several kinds of valid packet (hybrid) add their own.
INVALID, VALID = range(2)

#: One packet's cost: ``(total, compute, transfer, state_accesses,
#: l2_misses, program, history)`` as Python floats or numpy columns.
Cost = Tuple[Any, Any, Any, Any, Any, Any, Any]


def hash_for_program(program: PacketProgram, packets: Union[PerfPacket, "PerfTrace"]):
    """The RSS hash a NIC would use to shard this program correctly.

    Table 1's "RSS hash fields" column: IP-pair programs hash L3 only;
    5-tuple programs hash L4; bidirectional programs need the symmetric key
    so both directions land on one core [70].  ``packets`` is one packet
    (an int hash) or a whole trace (its uint32 hash column): both expose
    the same ``hash_*`` names.
    """
    if program.bidirectional:
        return packets.hash_sym
    if program.rss_fields == "src & dst IP":
        return packets.hash_l3
    return packets.hash_l4


class BaseEngine(ABC):
    """Shared state for the per-technique engines."""

    name = "base"
    #: Does a stolen row — a steered packet that never reached its ring
    #: (injected loss, fault drop) — cost the core's next delivery?  SCR's
    #: per-core replicas catch up on it (:meth:`pending_service`); for
    #: every other technique a stolen packet is just a lost packet.
    catches_up = False

    def __init__(
        self,
        program: PacketProgram,
        num_cores: int,
        costs: Optional[CostParams] = None,
        contention: ContentionParams = DEFAULT_CONTENTION,
        tracer: EventTracer = NULL_TRACER,
        spans: SpanEmitter = NULL_SPANS,
        hostprof: PhaseClock = NULL_HOSTPROF,
    ) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.program = program
        self.num_cores = num_cores
        #: telemetry event sink; the default disabled tracer is free.
        self.tracer = tracer
        #: causal span emitter for sampled packets (disabled by default).
        self.spans = spans
        #: host wall-clock phase sink (disabled by default; never feeds
        #: simulated time — see docs/PROFILING.md).
        self.hostprof = hostprof
        if costs is None:
            try:
                costs = TABLE4_PARAMS[program.name]
            except KeyError:
                raise KeyError(
                    f"no Table 4 cost parameters for program {program.name!r}; "
                    "pass costs= explicitly"
                ) from None
        self.costs = costs
        self.contention = contention
        self.counters = SystemCounters()
        self.l2 = L2Model(num_cores, spill_ns=contention.l2_spill_ns)
        self._build_counters()

    def _build_counters(self) -> None:
        self.counters.cores = [CoreCounters(core_id=i) for i in range(self.num_cores)]

    def reset(self) -> None:
        """Clear run state; subclasses extend."""
        self._build_counters()
        self.l2.reset()

    # Default protocol pieces; engines override what differs. ------------------

    def wire_len(self, pp: PerfPacket) -> int:
        return pp.wire_len

    def pre_enqueue(self, pp: PerfPacket, core: int) -> bool:
        return True

    def bind_trace(self, trace: "PerfTrace") -> None:
        """The simulator is about to run ``trace`` (called right after
        :meth:`reset`).  Engines whose steering is a pure function of the
        trace precompute it here (hybrid's steering plan)."""

    def note_fault_drop(self, core: int, pp: PerfPacket) -> None:
        """The simulator fault-dropped a packet already steered to ``core``.

        Techniques with per-core replicas (SCR) override this to charge
        gap recovery on the core's next service; for shared-state and
        sharded techniques a lost packet is just a lost packet.
        """

    @abstractmethod
    def steer(self, pp: PerfPacket) -> int:
        ...

    @abstractmethod
    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        ...

    # The cost model: one formula per engine, two drivers. ---------------------

    def _service_cost(self, kind: int, h, miss_frac, spill_ns) -> Cost:
        """One packet's service time and counter charges as a :data:`Cost`.

        Pure arithmetic over its inputs, so it evaluates identically on
        Python floats (the scalar ``service_ns``) and on numpy columns of
        rows of one ``kind`` (the batch hooks below) — the additions run
        in the same order either way.  ``h`` is the history depth.
        """
        raise NotImplementedError(f"{self.name} has no cost formula")

    def _charge(self, core: int, cost: Cost) -> float:
        """Charge one packet's :data:`Cost` to ``core``; its service time."""
        total, compute, transfer, accesses, misses, program, history = cost
        # Positional (dispatch, compute, wait, transfer, ...): this runs
        # once per scalar packet.
        self.counters.cores[core].charge_packet(
            self.costs.d, compute, 0.0, transfer, accesses, misses, program,
            history)
        return total

    def _tally(self, kind: int, count: int) -> None:
        """``count`` packets of ``kind`` were serviced (hybrid's
        elephant/mice counters; nothing elsewhere)."""

    # Columnar hot-path hooks (see repro.cpu.columnar / docs/HOTPATH.md).
    # An engine is ineligible until it opts in with ``columnar_eligible``,
    # a ``_service_cost`` formula and ``steer_batch``.

    def columnar_eligible(self) -> bool:
        """Can whole runs be replayed as batched row math?

        Only true when steering and service time are pure functions of the
        packet row (plus replay-invariant engine state) — no time-dependent
        contention, no RNG, no mutable steering tables.
        """
        return False

    def wire_len_batch(self, trace: "PerfTrace") -> np.ndarray:
        """Per-packet wire bytes for the whole trace (``wire_len`` rowwise)."""
        return trace.wire_lens

    def dma_len_batch(self, trace: "PerfTrace") -> np.ndarray:
        """Per-packet host-interconnect bytes (defaults to wire bytes,
        mirroring the simulator's scalar ``dma_len -> wire_len`` fallback)."""
        return self.wire_len_batch(trace)

    def steer_batch(self, trace: "PerfTrace") -> np.ndarray:
        """Target core per packet for the whole trace, without mutating
        steer state (the driver calls :meth:`commit_steer_batch` once the
        speculative run is known to commit)."""
        raise NotImplementedError(f"{self.name} has no batched steering")

    def commit_steer_batch(self, count: int) -> None:
        """Advance steer state as if ``count`` packets were steered."""

    def state_access_batch(self, trace: "PerfTrace") -> np.ndarray:
        """Rows whose service touches flow state, hence the L2 model
        (default: every valid row)."""
        return trace.valid

    def history_cap(self) -> int:
        """Upper bound on piggybacked history items per packet (0 for
        techniques that carry no history)."""
        return 0

    def loss_batch(self, trace: "PerfTrace",
                   fault_dropped: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Rows the engine's own loss injection (``pre_enqueue``) steals,
        as a bool column, given the rows a fault plan drops before it;
        ``None`` when the engine injects no loss.  Pure: state advances
        in :meth:`commit_stolen`."""
        return None

    def pending_service(self, h: int, miss_frac: float, spill_ns: float,
                        lost: int, gap: int) -> Tuple[float, Tuple[float, ...]]:
        """``(service_ns, recovery)`` of a delivery that consumes ``lost``
        injected losses and ``gap`` fault drops queued on its core, where
        ``recovery`` is the extra terms :meth:`_service_cost` takes.  Only
        called when :attr:`catches_up`."""
        raise NotImplementedError(f"{self.name} does not catch up on stolen rows")

    def commit_stolen(self, consumers, pending_lost: List[int],
                      fault_gap: List[int]) -> None:
        """Commit a columnar run's stolen rows: ``consumers`` lists ``(h,
        lost, gap)`` per consuming delivery in service order, and
        ``pending_lost`` / ``fault_gap`` what each core still owes at the
        end."""

    def _row_kinds(self, trace: "PerfTrace", rows: np.ndarray):
        """``(kind, mask over rows)`` pairs covering every row once."""
        valid = trace.valid[rows]
        return (VALID, valid), (INVALID, ~valid)

    def _kind_cost(self, trace: "PerfTrace", kind: int, rows: np.ndarray,
                   h: np.ndarray, miss_frac: np.ndarray,
                   spill_ns: np.ndarray, recovery=None) -> Cost:
        """:meth:`_service_cost` over ``rows``, all of one ``kind``."""
        if recovery is None:
            return self._service_cost(kind, h, miss_frac, spill_ns)
        return self._service_cost(kind, h, miss_frac, spill_ns, recovery)

    def _batch_cost(self, trace: "PerfTrace", rows: np.ndarray, h: np.ndarray,
                    miss_frac: np.ndarray, spill_ns: np.ndarray,
                    kinds, recovery=None) -> List[np.ndarray]:
        """The :data:`Cost` columns of ``rows``, one kind at a time
        (``recovery``: optional columns over ``rows``, see
        :meth:`service_batch`)."""
        m = len(rows)
        out: List[np.ndarray] = []
        for kind, mask in kinds:
            if mask.all():  # one kind covers every row: no gather, no scatter
                cost = self._kind_cost(trace, kind, rows, h, miss_frac, spill_ns,
                                       recovery)
                return [value if isinstance(value, np.ndarray)
                        else np.full(m, value) for value in cost]
            sel = np.flatnonzero(mask)
            if not len(sel):
                continue
            if not out:
                out = [np.zeros(m, dtype=np.float64) for _ in range(7)]
                out[3] = np.zeros(m, dtype=np.int64)
            cost = self._kind_cost(
                trace, kind, rows[sel], h[sel], miss_frac[sel], spill_ns[sel],
                None if recovery is None else [col[sel] for col in recovery])
            for column, value in zip(out, cost):
                column[sel] = value
        return out

    def service_rows(
        self,
        trace: "PerfTrace",
        rows: np.ndarray,
        miss_frac: np.ndarray,
        spill_ns: np.ndarray,
        history_items: np.ndarray,
    ) -> np.ndarray:
        """Pure service times (ns) for ``rows``, given each row's L2
        outcome and history depth; charges nothing."""
        return self._batch_cost(trace, rows, history_items, miss_frac,
                                spill_ns, self._row_kinds(trace, rows))[0]

    def service_batch(
        self,
        trace: "PerfTrace",
        rows: np.ndarray,
        cores: np.ndarray,
        start_ns: np.ndarray,
        steered_before: np.ndarray,
        recovery=None,
    ) -> np.ndarray:
        """Service a burst of packets and charge counters, returning each
        packet's service time.  ``rows`` are trace indices in service
        order; ``steered_before`` is how many packets had been steered
        when each one reached its core (what SCR's history depth reads);
        ``recovery``, when given, holds the extra :meth:`_service_cost`
        terms per row (zeros for rows that consume no stolen row).
        Commits the L2 model, so it runs once per freshly reset run."""
        from ..cpu.columnar import l2_spill_rows

        miss_frac, spill = l2_spill_rows(
            self.l2, trace, rows, cores, self.num_cores, commit=True,
            touches=self.state_access_batch(trace))
        h = np.minimum(np.maximum(steered_before - 1, 0), self.history_cap())
        kinds = self._row_kinds(trace, rows)
        total, compute, transfer, accesses, misses, program, history = (
            self._batch_cost(trace, rows, h, miss_frac, spill, kinds, recovery))
        dispatch = np.full(len(rows), self.costs.d, dtype=np.float64)
        for core in range(self.num_cores):
            sel = np.flatnonzero(cores == core)
            if len(sel) == 0:
                continue
            self.counters.cores[core].charge_batch(
                dispatch_ns=dispatch[sel],
                compute_ns=compute[sel],
                transfer_ns=transfer[sel],
                state_accesses=accesses[sel],
                l2_misses=misses[sel],
                program_ns=program[sel],
                history_ns=history[sel],
            )
        for kind, mask in kinds:
            self._tally(kind, int(np.count_nonzero(mask)))
        return total
