"""Hybrid placement engine: SCR for elephants, RSS sharding for mice.

The paper's techniques are all-or-nothing: pure SCR replicates *every*
flow to every core (paying ``(k-1)·c2`` fast-forward on every packet),
pure RSS pins every flow to one core (capping any elephant at a single
core's rate).  With millions of concurrent flows and Zipf-skewed sizes,
neither is right: only a handful of flows are hot enough for replication
to pay for itself, and everyone else is cheapest left sharded.

:class:`HybridEngine` routes per flow, online:

* an :class:`~repro.placement.ElephantClassifier` watches the stream and
  promotes flows above the (hysteretic) elephant threshold;
* **promoted** flows ride the SCR path — round-robin spray over all
  cores, history fast-forward at the elephant stream's own depth;
* **everyone else** rides RSS sharding through an indirection table
  keyed by the placement layer's seeded FNV over the flow key — the same
  hash family that picks the flow's state shard, so a mouse's packets
  and its state entry stay co-located — with flow state resident in a
  tenant-namespaced :class:`~repro.state.ShardedStateMap` under
  per-tenant quotas (quota exhaustion degrades that tenant to stateless
  forwarding, never drops the packet, and is recorded as a per-tenant
  drop cause);
* every placement change charges its **migration protocol** to the
  packet that triggered it — promotion replicates the flow's state entry
  into all ``k`` replicas (drain-or-replicate handoff), demotion drains
  one replica entry back to the owning shard — so MLFFR numbers include
  the cost of deciding, not just the steady state.

Steering is a pure function of (seed, admitted packet order), so the
first run on a trace records a :class:`SteeringPlan` — one pass of the
live classifier and mice map over the whole trace in arrival order —
and every later MLFFR probe replays it instead of re-deciding:

* the **columnar** hot path reads the plan's columns (core, elephant
  flag, history depth, stateless flag, migration charge), so hybrid is
  columnar-eligible like scr/rss;
* the **scalar** event loop reads plan rows while every earlier packet
  was admitted; at the first wire/PCIe drop the order diverges from the
  plan, so the engine rebuilds its live steering state by replaying the
  admitted prefix and steers live from there (counters and L2 are left
  alone — they are mid-run).

With a tracer enabled the plan is skipped and every packet steers live.
The per-packet cost formula (:meth:`HybridEngine._service_cost`) is
written once and evaluated on Python floats by ``service_ns`` and on
numpy columns by the shared batch driver in ``BaseEngine``.  See
docs/MULTITENANT.md and docs/HOTPATH.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..core.packet_format import ScrPacketCodec
from ..cpu.simulator import PerfPacket
from ..nic.rss import RssIndirection
from ..placement import ElephantClassifier, PlacementSpec, tenant_of
from ..placement.classifier import PROMOTE
from ..state.cuckoo import _fnv1a, _key_bytes
from ..state.sharded import ShardedStateMap
from ..telemetry.events import EV_HISTORY_DEPTH, EV_SPRAY
from .base import INVALID, VALID, BaseEngine, Cost, hash_for_program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.simulator import PerfTrace

__all__ = ["HybridEngine", "SteeringPlan"]

#: Service kinds of a valid packet, beside the base ``INVALID`` (see
#: :meth:`HybridEngine._service_cost`).
_ELEPHANT, _MOUSE, _STATELESS = range(VALID + 1, VALID + 4)

#: One packet's steering decision: (core, elephant, history depth,
#: stateless, migration ns charged to it, placement events it fired).
_Decision = Tuple[int, bool, int, bool, float, int]


@dataclass(frozen=True)
class SteeringPlan:
    """Every packet of one trace steered in arrival order, all admitted.

    Columns are read-only numpy arrays indexed by trace row; ``steps``
    is their row-major view for the scalar loop, ``(core, route,
    migration_ns)`` with ``route = (elephant, h, stateless)``.
    ``summary`` holds the steer-time placement counters after the last
    row (the steer half of ``placement_summary``).
    """

    trace: "PerfTrace"
    core: np.ndarray
    elephant: np.ndarray
    h: np.ndarray
    stateless: np.ndarray
    migration_ns: np.ndarray
    migrations: np.ndarray
    #: was the flow already promoted when this packet reached the wire?
    promoted_before: np.ndarray
    steps: List[Tuple[int, Tuple[bool, int, bool], float]]
    summary: Dict[str, object]


class HybridEngine(BaseEngine):
    """Per-flow SCR/RSS placement with modeled migration costs."""

    name = "hybrid"

    def __init__(
        self,
        *args,
        placement: Optional[PlacementSpec] = None,
        indirection_size: int = 128,
        state_shards: int = 8,
        state_capacity: int = 1 << 16,
        count_wire_overhead: bool = False,
        **kwargs,
    ) -> None:
        """``placement`` configures the classifier, tenancy, and quotas
        (default: a single-tenant :class:`PlacementSpec`).  The scenario
        layer injects it from ``Scenario.placement``, like tracers.

        ``count_wire_overhead`` mirrors :class:`ScrEngine`: when True,
        *promoted* flows' frames carry the sequencer prefix on the wire;
        the Figure 6/7-style in-frame methodology (the suites' default)
        keeps it False.
        """
        super().__init__(*args, **kwargs)
        self.placement = placement if placement is not None else PlacementSpec()
        self.classifier = ElephantClassifier(self.placement)
        #: never rewritten (no RSS++-style migration), so per-flow queue
        #: memos stay valid for the engine's lifetime.
        self.indirection = RssIndirection(
            self.num_cores, table_size=indirection_size
        )
        self.state_shards = state_shards
        self.state_capacity = state_capacity
        #: the mice state map, allocated on first live use.
        self.mice_state: Optional[ShardedStateMap] = None
        self.codec = ScrPacketCodec(
            meta_size=self.program.metadata_size,
            num_slots=self.num_cores,
        )
        self.count_wire_overhead = count_wire_overhead
        #: per-flow memos of the pure placement hashes.
        self._tenant_memo: Dict[Hashable, int] = {}
        self._queue_memo: Dict[Hashable, int] = {}
        #: live steering state: elephant stream round-robin cursor and
        #: sequence counter (the history depth is the *elephant* stream's,
        #: not the whole trace's: only promoted packets are sprayed and
        #: fast-forwarded), and the migration tallies.
        self._rr = 0
        self._eseq = 0
        self.migrations = 0
        self.migration_ns_total = 0.0
        #: the live state above (plus classifier and mice map) no longer
        #: starts a run: rebuild it before the next live steer.
        self._live_stale = False
        self._plan: Optional[SteeringPlan] = None
        #: this run replays ``_plan``; ``_cursor`` packets steered so far.
        self._replaying = False
        self._cursor = 0
        #: per-packet routing decision, recorded at steer time so service
        #: charges match the placement the packet was actually steered
        #: under (placement may move on between steer and service).
        self._route: Dict[int, Tuple[bool, int, bool]] = {}
        #: per-packet migration charge (promotions/demotions this packet
        #: triggered), folded into its service time.
        self._migration_ns: Dict[int, float] = {}
        self.elephant_packets = 0
        self.mice_packets = 0
        self.stateless_packets = 0

    def reset(self) -> None:
        """Clear run state.  Live steering state is only marked stale —
        a run that replays the plan never touches it."""
        super().reset()
        self._live_stale = True
        self._replaying = False
        self._cursor = 0
        self._route = {}
        self._migration_ns = {}
        self.elephant_packets = 0
        self.mice_packets = 0
        self.stateless_packets = 0

    def bind_trace(self, trace: "PerfTrace") -> None:
        """Replay this trace's steering plan in the run about to start,
        building it on first sight.  Traced runs steer live."""
        if self.tracer.enabled:
            return
        self._plan_for(trace)
        self._replaying = True

    # -- live steering ------------------------------------------------------

    def _mice(self) -> ShardedStateMap:
        if self.mice_state is None:
            self.mice_state = ShardedStateMap(
                num_shards=self.state_shards,
                capacity=self.state_capacity,
                tenant_quota=self.placement.tenant_quota,
                seed=self.placement.seed,
            )
        return self.mice_state

    def _restart_live(self) -> None:
        """Live steering state back to the start of a run."""
        self.classifier.reset()
        if self.mice_state is not None:
            self.mice_state.reset()
        self._rr = 0
        self._eseq = 0
        self.migrations = 0
        self.migration_ns_total = 0.0
        self._live_stale = False

    def _tenant_of(self, key: Hashable) -> int:
        tenant = self._tenant_memo.get(key)
        if tenant is None:
            tenant = tenant_of(key, self.placement.num_tenants,
                               self.placement.seed)
            self._tenant_memo[key] = tenant
        return tenant

    def _mice_queue(self, key: Hashable) -> int:
        """Mice steering: the indirection table keyed by the placement
        layer's seeded FNV over the flow key (symmetric by construction —
        both directions share the state key), so a flow's packets land
        with its state shard."""
        queue = self._queue_memo.get(key)
        if queue is None:
            queue = self.indirection.queue_of(
                _fnv1a(_key_bytes(key), self.placement.seed))
            self._queue_memo[key] = queue
        return queue

    def _steer_live(self, pp: PerfPacket) -> _Decision:
        """Decide one packet's placement from the live classifier and
        mice map, advancing them; records nothing per packet."""
        if not pp.valid:
            # Stateless packets never touch the classifier: plain RSS
            # on the program's NIC hash.
            core = self.indirection.queue_of(hash_for_program(self.program, pp))
            return core, False, 0, True, 0.0, 0
        promoted, events = self.classifier.observe(pp.key)
        migration_ns = 0.0
        for event in events:
            if event.kind == PROMOTE:
                # Drain-or-replicate handoff: the flow's entry leaves its
                # shard and is installed into all k per-core replicas.
                migration_ns += self.num_cores * self.contention.line_transfer_ns
                self._mice().delete(event.key, self._tenant_of(event.key))
            else:
                # Demotion drains one replica's entry back to the shard.
                migration_ns += self.contention.line_transfer_ns
        if events:
            self.migrations += len(events)
            self.migration_ns_total += migration_ns
        if promoted:
            self._eseq += 1
            h = min(max(self._eseq - 1, 0), self.num_cores - 1)
            core = self._rr
            self._rr = (self._rr + 1) % self.num_cores
            return core, True, h, False, migration_ns, len(events)
        # Quota-exhausted tenants degrade to stateless forwarding; the
        # packet still ships (the drop cause names the *state entry*).
        resident = self._mice().increment(pp.key, self._tenant_of(pp.key))
        return (self._mice_queue(pp.key), False, 0, not resident,
                migration_ns, len(events))

    def _steer_summary(self) -> Dict[str, object]:
        """Steer-time placement counters of the live state."""
        clf = self.classifier.snapshot()
        state = self._mice().stats_snapshot()
        return {
            "promotions": clf["promotions"],
            "demotions": clf["demotions"],
            "decays": clf["decays"],
            "promoted_now": clf["promoted_now"],
            "migrations": self.migrations,
            "migration_ns_total": self.migration_ns_total,
            "statemap_entries": state["entries"],
            "statemap_grow_events": state["grow_events"],
            "tenant_quota_drops": state["quota_drops"],
            "tenant_quota_drops_total": sum(state["quota_drops"].values()),
        }

    # -- the steering plan --------------------------------------------------

    def _plan_for(self, trace: "PerfTrace") -> SteeringPlan:
        plan = self._plan
        if plan is None or plan.trace is not trace:
            with self.hostprof.phase("hybrid.plan"):
                plan = self._plan = self._build_plan(trace)
        return plan

    def _build_plan(self, trace: "PerfTrace") -> SteeringPlan:
        """Steer every row live, in arrival order, recording each decision."""
        self._restart_live()
        is_promoted = self.classifier.is_promoted
        decisions: List[_Decision] = []
        promoted_before: List[bool] = []
        for pp in trace.records:
            promoted_before.append(is_promoted(pp.key))
            decisions.append(self._steer_live(pp))
        self._live_stale = True
        core, elephant, h, stateless, migration_ns, migrations = (
            zip(*decisions) if decisions else ((),) * 6)
        columns = dict(
            core=np.array(core, dtype=np.int64),
            elephant=np.array(elephant, dtype=bool),
            h=np.array(h, dtype=np.int64),
            stateless=np.array(stateless, dtype=bool),
            migration_ns=np.array(migration_ns, dtype=np.float64),
            migrations=np.array(migrations, dtype=np.int64),
            promoted_before=np.array(promoted_before, dtype=bool),
        )
        for column in columns.values():
            column.setflags(write=False)
        steps = [(d[0], (d[1], d[2], d[3]), d[4]) for d in decisions]
        return SteeringPlan(trace=trace, steps=steps,
                            summary=self._steer_summary(), **columns)

    def _go_live(self) -> None:
        """Admission diverged from the plan after ``_cursor`` packets:
        rebuild live steering state from that admitted prefix."""
        self._replaying = False
        self._restart_live()
        if self._cursor:
            with self.hostprof.phase("hybrid.live_replay"):
                for pp in self._plan.trace.records[:self._cursor]:
                    self._steer_live(pp)

    def _replay_row(self, pp: PerfPacket) -> bool:
        """True while ``pp`` is the next plan row (every earlier packet
        was steered); otherwise leave replay for live steering."""
        if pp.index == self._cursor:
            return True
        self._go_live()
        return False

    # -- protocol -----------------------------------------------------------

    def wire_len(self, pp: PerfPacket) -> int:
        """Promoted flows' frames carry the sequencer prefix (when the
        wire methodology counts it).  Read-only: the simulator calls this
        before ``steer``, so a packet that *causes* a promotion is framed
        under its pre-promotion placement — the sequencer can only tag
        what it already knows."""
        if not (self.count_wire_overhead and pp.valid):
            return pp.wire_len
        if self._replaying and self._replay_row(pp):
            promoted = self._plan.promoted_before[pp.index]
        else:
            if self._live_stale:
                self._restart_live()
            promoted = self.classifier.is_promoted(pp.key)
        if promoted:
            return pp.wire_len + self.codec.overhead_bytes
        return pp.wire_len

    def steer(self, pp: PerfPacket) -> int:
        i = pp.index
        if self._replaying and self._replay_row(pp):
            self._cursor = i + 1
            core, route, migration_ns = self._plan.steps[i]
            self._route[i] = route
            if migration_ns:
                self._migration_ns[i] = migration_ns
            return core
        if self._live_stale:
            self._restart_live()
        core, elephant, h, stateless, migration_ns, _ = self._steer_live(pp)
        self._route[i] = (elephant, h, stateless)
        if migration_ns:
            self._migration_ns[i] = migration_ns
        if elephant and self.tracer.enabled:
            self.tracer.emit(EV_SPRAY, core=core, seq=self._eseq, index=i)
        return core

    def note_fault_drop(self, core: int, pp: PerfPacket) -> None:
        """A fault stole a steered packet: forget its routing record (any
        migration it triggered has already been charged globally)."""
        self._route.pop(pp.index, None)
        self._migration_ns.pop(pp.index, None)

    def _service_cost(self, kind: int, h, miss_frac, spill_ns,
                      migration_ns=0.0) -> Cost:
        """Every valid kind pays one sketch update (an uncontended atomic)
        and its migration charge; stateless mice never touch state or
        L2."""
        c = self.costs
        if kind == INVALID:
            return c.d + c.c1, c.c1, 0.0, 0, 0.0, c.c1, 0.0
        classify_ns = self.contention.atomic_ns
        if kind == _ELEPHANT:
            history = h * c.c2
            compute = (c.c1 + history) + classify_ns
            charged = compute + spill_ns
            total = ((c.d + compute) + spill_ns) + migration_ns
            return (total, charged, migration_ns, 1,
                    miss_frac + (migration_ns != 0), charged + migration_ns,
                    history)
        if kind == _MOUSE:
            compute = (c.c1 + classify_ns) + spill_ns
            return ((c.d + compute) + migration_ns, compute, migration_ns, 1,
                    miss_frac + (migration_ns != 0), compute + migration_ns,
                    0.0)
        compute = c.c1 + classify_ns
        return ((c.d + compute) + migration_ns, compute, migration_ns, 0,
                0.0, compute + migration_ns, 0.0)

    def _tally(self, kind: int, count: int) -> None:
        if kind == _ELEPHANT:
            self.elephant_packets += count
        elif kind != INVALID:
            self.mice_packets += count
            if kind == _STATELESS:
                self.stateless_packets += count

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        if not pp.valid:
            return self._charge(core, self._service_cost(INVALID, 0, 0.0, 0.0))
        elephant, h, stateless = self._route.pop(
            pp.index, (False, 0, False)
        )
        migration_ns = self._migration_ns.pop(pp.index, 0.0)
        if elephant:
            kind = _ELEPHANT
            if self.tracer.enabled:
                self.tracer.emit(EV_HISTORY_DEPTH, ts_ns=start_ns, core=core,
                                 depth=h)
        else:
            kind = _STATELESS if stateless else _MOUSE
        self._tally(kind, 1)
        miss_frac, spill = ((0.0, 0.0) if kind == _STATELESS
                            else self.l2.access(core, pp.key))
        return self._charge(core, self._service_cost(
            kind, h, miss_frac, spill, migration_ns))

    # -- columnar hot-path hooks (docs/HOTPATH.md) --------------------------

    def columnar_eligible(self) -> bool:
        """Steering is a plan replay and the history depth is fixed at
        steer time (``history_cap`` stays 0), so batched replay is exact
        — except with a tracer, where the plan is skipped."""
        return not self.tracer.enabled

    def wire_len_batch(self, trace: "PerfTrace") -> np.ndarray:
        if not self.count_wire_overhead:
            return trace.wire_lens
        promoted = trace.valid & self._plan_for(trace).promoted_before
        return trace.wire_lens + self.codec.overhead_bytes * promoted

    def steer_batch(self, trace: "PerfTrace") -> np.ndarray:
        return self._plan_for(trace).core

    def commit_steer_batch(self, count: int) -> None:
        self._cursor += count

    def state_access_batch(self, trace: "PerfTrace") -> np.ndarray:
        return trace.valid & ~self._plan_for(trace).stateless

    def _row_kinds(self, trace: "PerfTrace", rows: np.ndarray):
        plan = self._plan_for(trace)
        valid = trace.valid[rows]
        elephant = plan.elephant[rows]
        stateless = plan.stateless[rows]
        return (
            (INVALID, ~valid),
            (_ELEPHANT, valid & elephant),
            (_MOUSE, valid & ~elephant & ~stateless),
            (_STATELESS, valid & ~elephant & stateless),
        )

    def _kind_cost(self, trace: "PerfTrace", kind: int, rows: np.ndarray,
                   h: np.ndarray, miss_frac: np.ndarray,
                   spill_ns: np.ndarray, recovery=None) -> Cost:
        """History depth and migration charge were fixed at steer time:
        both come from the plan, not the caller.  ``recovery`` is never
        given: hybrid does not catch up on stolen rows."""
        plan = self._plan_for(trace)
        return self._service_cost(kind, plan.h[rows], miss_frac, spill_ns,
                                  plan.migration_ns[rows])

    def placement_summary(self) -> dict:
        """Placement/quota counters for ``SimResult.placement_stats``
        (the hook ``simulate`` probes, mirroring ``fault_summary``)."""
        if self._replaying and self._cursor == len(self._plan.trace):
            steer = dict(self._plan.summary)
            steer["tenant_quota_drops"] = dict(steer["tenant_quota_drops"])
        else:
            if self._replaying:
                # Trailing packets never reached steering.
                self._go_live()
            elif self._live_stale:
                self._restart_live()
            steer = self._steer_summary()
        return {
            "promotions": steer["promotions"],
            "demotions": steer["demotions"],
            "decays": steer["decays"],
            "promoted_now": steer["promoted_now"],
            "migrations": steer["migrations"],
            "migration_ns_total": steer["migration_ns_total"],
            "elephant_packets": self.elephant_packets,
            "mice_packets": self.mice_packets,
            "stateless_packets": self.stateless_packets,
            "statemap_entries": steer["statemap_entries"],
            "statemap_grow_events": steer["statemap_grow_events"],
            "tenant_quota_drops": steer["tenant_quota_drops"],
            "tenant_quota_drops_total": steer["tenant_quota_drops_total"],
        }
