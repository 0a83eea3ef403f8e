//! The event-driven flow-level network simulator.
//!
//! [`FlowNetwork`] owns a [`Topology`] and a set of in-flight flows.
//! Rates come from the persistent incremental allocator
//! ([`crate::solver::FairShareSolver`]): injections and completions are
//! handed to the solver as deltas and *coalesced* — the solver runs
//! lazily at the next [`FlowNetwork::next_event`] /
//! [`FlowNetwork::advance_to`], so all set changes at one timestamp
//! cost a single (component-local) refill. Between refills every flow
//! progresses linearly at its assigned rate, so each flow's drain time
//! is known in closed form the moment its rate is assigned; drain
//! predictions sit in a heap instead of being rediscovered by scanning
//! the active set every event.
//!
//! A flow's lifecycle:
//!
//! 1. *injected* — starts draining immediately at its allocated rate;
//! 2. *drained* — all bytes have left the source; the flow stops
//!    consuming bandwidth;
//! 3. *completed* — one route-latency later the tail arrives at the
//!    destination and a [`CompletedFlow`] record is emitted.
//!
//! The separation of (2) and (3) models store-and-forward-free
//! (cut-through) pipelining: bandwidth is held only while bytes are being
//! pushed, and the constant propagation delay is appended at the end.
//!
//! Byte accounting is lazy to match: each flow carries an `updated_at`
//! watermark and bytes are debited only when its rate changes or it
//! drains, so a rate refill touches exactly the flows whose rate
//! changed. Statistics queries ([`FlowNetwork::link_carried_bytes`],
//! [`FlowNetwork::link_utilization`]) fold the in-flight contribution
//! back in on demand.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use fred_telemetry::event::{TraceEvent, Track};
use fred_telemetry::sink::{NullSink, TraceSink};

use crate::codec::{SnapshotError, Value};
use crate::ensure;
use crate::flow::{FlowId, FlowSpec, Priority};
use crate::snapshot::{
    arr_of, bools, bools_of, dur_of, f64_of, f64s, f64s_of, field, non_null, priority_from_value,
    priority_to_value, tenant_of, time_of, tuple_of, u64_of, usize_of, usizes, usizes_of, v_dur,
    v_f64, v_time, v_u64,
};
use crate::solver::{FairShareSolver, FlowKey, SolverStats};
use crate::time::{Duration, Time};
use crate::topology::{LinkId, Route, RouteError, Topology};

/// Maps a priority class to its telemetry display track.
pub fn track_of(priority: Priority) -> Track {
    match priority {
        Priority::Mp => Track::Mp,
        Priority::Pp => Track::Pp,
        Priority::Dp => Track::Dp,
        Priority::Control | Priority::Bulk => Track::Bulk,
    }
}

/// Bytes below which a flow is considered fully drained (guards against
/// floating-point residue).
const DRAIN_EPS: f64 = 1e-6;

/// Default minimum drain-heap size before lazy-deletion garbage is
/// compacted away (below this, stale entries are cheaper than a
/// rebuild).
const HEAP_COMPACTION_MIN: usize = 64;

/// Lifecycle events (injections, drains, completions) processed by all
/// [`FlowNetwork`] instances in this process. Benchmarks read it to
/// report `events_per_sec` without threading counters through every
/// harness.
static GLOBAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Drain-heap compactions performed by all networks in this process
/// (see [`FlowNetwork::heap_compactions`]).
static GLOBAL_COMPACTIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide lifecycle event count (injections + drains +
/// completions) across every [`FlowNetwork`] ever constructed.
/// Monotonic; sample before and after a workload and subtract.
pub fn global_events_processed() -> u64 {
    GLOBAL_EVENTS.load(Ordering::Relaxed)
}

/// Process-wide drain-heap compaction count across every
/// [`FlowNetwork`] ever constructed. Monotonic; exported as
/// `sim.solver/heap_compactions` in bench reports.
pub fn global_heap_compactions() -> u64 {
    GLOBAL_COMPACTIONS.load(Ordering::Relaxed)
}

#[derive(Debug, Clone)]
struct ActiveFlow {
    id: FlowId,
    /// Route as raw link indices (allocator-friendly).
    links: Vec<usize>,
    priority: Priority,
    tenant: u8,
    tag: u64,
    /// Bytes left as of `updated_at` (lazy accounting).
    remaining: f64,
    rate: f64,
    /// Watermark of the last byte settlement / rate change.
    updated_at: Time,
    /// Generation of this flow's live drain-heap entry; entries with a
    /// stale generation are discarded on pop.
    generation: u64,
    injected_at: Time,
    latency: Duration,
    ledger: ByteLedger,
}

impl ActiveFlow {
    /// Debits `moved` bytes sent since the last settlement.
    fn debit(&mut self, moved: f64) {
        self.remaining -= moved;
        self.ledger.settle(moved);
    }
}

/// Debug-build byte ledger of one flow: the bytes it held when it
/// entered this network (at injection, or at restore for a revived
/// flow) and the bytes debited from it since. Eviction asserts
/// conservation — entered = settled + returned — so a debit that skips
/// `remaining`, or counts bytes twice, fails every debug test run.
/// Release builds compile it to a zero-sized no-op.
#[derive(Debug, Clone, Copy)]
struct ByteLedger {
    #[cfg(debug_assertions)]
    entered: f64,
    #[cfg(debug_assertions)]
    settled: f64,
}

impl ByteLedger {
    fn new(_bytes: f64) -> ByteLedger {
        ByteLedger {
            #[cfg(debug_assertions)]
            entered: _bytes,
            #[cfg(debug_assertions)]
            settled: 0.0,
        }
    }

    fn settle(&mut self, _moved: f64) {
        #[cfg(debug_assertions)]
        {
            self.settled += _moved;
        }
    }

    fn assert_conserved(&self, _returned: f64) {
        #[cfg(debug_assertions)]
        debug_assert!(
            (self.settled + _returned - self.entered).abs() <= 1e-9 * self.entered.max(1.0),
            "byte conservation: entered {} != settled {} + returned {_returned}",
            self.entered,
            self.settled,
        );
    }
}

/// A flow forcibly removed from the network by [`FlowNetwork::fail_link`]
/// because its route crossed the failed link. The caller (the trainer's
/// fault handler, or any re-planning layer) is expected to re-route the
/// remaining bytes and re-inject them.
#[derive(Debug, Clone, PartialEq)]
pub struct EvictedFlow {
    /// The id the flow had while in flight.
    pub id: FlowId,
    /// The tag from the [`FlowSpec`].
    pub tag: u64,
    /// The flow's priority class.
    pub priority: Priority,
    /// The flow's tenant rank (preserve it when re-injecting, or the
    /// flow loses its isolation class).
    pub tenant: u8,
    /// Bytes still unsent when the link died (the payload to re-inject).
    pub remaining_bytes: f64,
    /// The route the flow was using (crosses the failed link).
    pub route: Route,
    /// When the flow was originally injected.
    pub injected_at: Time,
}

/// Record of a finished flow.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedFlow {
    /// The id returned by [`FlowNetwork::inject`].
    pub id: FlowId,
    /// The tag from the [`FlowSpec`].
    pub tag: u64,
    /// The flow's priority class.
    pub priority: Priority,
    /// When the flow was injected.
    pub injected_at: Time,
    /// When the last byte arrived at the destination.
    pub completed_at: Time,
}

#[derive(Debug, Clone, PartialEq)]
struct PendingNotice {
    at: Time,
    seq: u64,
    flow: CompletedFlow,
}

impl Eq for PendingNotice {}
impl Ord for PendingNotice {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for PendingNotice {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A scheduled drain instant: `(when, flow id, generation, slot)`. The
/// generation pins the entry to one rate assignment; re-pushing on
/// every rate change plus discarding stale generations implements a
/// decrease-key-free priority queue (lazy deletion). Ties at one
/// instant break on the *flow id*, which is stable under solver-slot
/// reuse, so the pop order — and with it the order in which drained
/// flows settle and complete — never depends on how generation numbers
/// or slots were handed out.
type DrainEntry = Reverse<(Time, u64, u64, u32)>;

/// Flow-level network simulator over a fixed [`Topology`].
///
/// See the [crate-level example](crate) for basic usage.
#[derive(Debug)]
pub struct FlowNetwork {
    topo: Topology,
    now: Time,
    next_id: u64,
    /// Bandwidth-consuming flows, indexed by solver [`FlowKey`]. The
    /// solver's slab and this one allocate keys in lockstep (one
    /// `add_flow`/`remove_flow` per slot transition), so the key is
    /// shared.
    flows: Vec<Option<ActiveFlow>>,
    active_count: usize,
    solver: FairShareSolver,
    /// Predicted drain instants (lazy deletion via generations).
    drains: BinaryHeap<DrainEntry>,
    /// Entries in `drains` whose generation is still live (one per
    /// flow with a positive rate); the rest is lazy-deletion garbage
    /// that compaction reclaims.
    live_drains: usize,
    /// Heap size below which compaction never runs.
    compaction_min: usize,
    compactions: u64,
    next_generation: u64,
    /// Drained flows waiting out their tail latency.
    pending: BinaryHeap<Reverse<PendingNotice>>,
    completed: Vec<CompletedFlow>,
    /// Bytes settled per link (statistics; excludes the in-flight
    /// contribution since each flow's `updated_at`).
    link_bytes: Vec<f64>,
    capacities: Vec<f64>,
    /// Links killed by [`FlowNetwork::fail_link`]; failed links reject
    /// new injections and are what routing layers must detour around.
    failed: Vec<bool>,
    events: u64,
    /// Telemetry sink; [`NullSink`] (zero overhead) by default.
    sink: Rc<dyn TraceSink>,
    /// `sink.enabled()`, read once at construction.
    tracing: bool,
    /// Last emitted per-link allocated rate (telemetry scratch; only
    /// maintained while tracing).
    link_alloc: Vec<f64>,
    /// Reusable buffer for the changed-flow keys of a refill.
    changed_scratch: Vec<FlowKey>,
    /// Clock at the last settlement point (debug builds assert it
    /// never runs backwards).
    #[cfg(debug_assertions)]
    clock_watermark: Time,
}

impl FlowNetwork {
    /// Creates a simulator over `topo` with the clock at zero and
    /// tracing disabled.
    pub fn new(topo: Topology) -> FlowNetwork {
        FlowNetwork::with_sink(topo, Rc::new(NullSink))
    }

    /// Creates a simulator that records structured events into `sink`.
    ///
    /// With any sink, simulation results are bit-identical to an
    /// untraced run: instrumentation only observes state.
    pub fn with_sink(topo: Topology, sink: Rc<dyn TraceSink>) -> FlowNetwork {
        let net = FlowNetwork::idle(topo, sink);
        net.record_topology();
        net
    }

    /// An idle network at time zero that has not yet emitted its
    /// segment marker (shared by [`FlowNetwork::with_sink`] and
    /// [`FlowNetwork::from_value`]).
    fn idle(topo: Topology, sink: Rc<dyn TraceSink>) -> FlowNetwork {
        let capacities: Vec<f64> = topo.links().map(|(_, l)| l.bandwidth).collect();
        let n = capacities.len();
        FlowNetwork {
            topo,
            now: Time::ZERO,
            next_id: 0,
            flows: Vec::new(),
            active_count: 0,
            solver: FairShareSolver::new(capacities.clone()),
            drains: BinaryHeap::new(),
            live_drains: 0,
            compaction_min: HEAP_COMPACTION_MIN,
            compactions: 0,
            next_generation: 0,
            pending: BinaryHeap::new(),
            completed: Vec::new(),
            link_bytes: vec![0.0; n],
            failed: vec![false; n],
            capacities,
            events: 0,
            tracing: sink.enabled(),
            sink,
            link_alloc: vec![0.0; n],
            changed_scratch: Vec::new(),
            #[cfg(debug_assertions)]
            clock_watermark: Time::ZERO,
        }
    }

    /// Marks the start of a simulation segment within the recording
    /// and gives the analysis layer the capacities it needs to re-cost
    /// flows at their contention-free rate.
    fn record_topology(&self) {
        if self.tracing {
            self.sink.record(TraceEvent::Topology {
                t: self.now.as_secs(),
                capacities: self.capacities.clone().into_boxed_slice(),
            });
        }
    }

    /// The telemetry sink events are recorded into. Higher layers
    /// (collective execution, the trainer) emit their span events
    /// through this same sink so one trace holds the whole story.
    pub fn sink(&self) -> &Rc<dyn TraceSink> {
        &self.sink
    }

    /// The current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of flows currently consuming bandwidth or waiting out their
    /// tail latency.
    pub fn in_flight(&self) -> usize {
        self.active_count + self.pending.len()
    }

    /// Lifecycle events (injections, drains, completions) this instance
    /// has processed.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Drain-heap compactions this instance has performed (see
    /// [`global_heap_compactions`] for the process-wide counter behind
    /// the `sim.solver/heap_compactions` report key).
    pub fn heap_compactions(&self) -> u64 {
        self.compactions
    }

    /// Sets the incremental solver's global-refill threshold; see
    /// [`FairShareSolver::set_refill_fraction`]. `0.0` forces a full
    /// from-scratch refill on every set change (the pre-incremental
    /// behaviour), which `solver_bench` uses as its baseline.
    pub fn set_refill_fraction(&mut self, fraction: f64) {
        self.solver.set_refill_fraction(fraction);
    }

    /// The incremental solver's cost counters (solves, global
    /// fallbacks, refilled flows).
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    fn count_event(&mut self) {
        self.events += 1;
        GLOBAL_EVENTS.fetch_add(1, Ordering::Relaxed);
    }

    /// Injects a flow at the current time. The solver delta is deferred:
    /// all injections and completions at one timestamp are flushed as a
    /// single refill by the next [`FlowNetwork::next_event`] /
    /// [`FlowNetwork::advance_to`].
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if the route is not a contiguous path in
    /// the topology or crosses a link killed by
    /// [`FlowNetwork::fail_link`]. The network is unchanged on error.
    pub fn inject(&mut self, spec: FlowSpec) -> Result<FlowId, RouteError> {
        self.topo.validate_route(&spec.route)?;
        if let Some(&dead) = spec.route.iter().find(|l| self.failed[l.0]) {
            return Err(RouteError::FailedLink(dead));
        }
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let latency = self.topo.route_latency(&spec.route);
        let flow = ActiveFlow {
            id,
            links: spec.route.iter().map(|l| l.0).collect(),
            priority: spec.priority,
            tenant: spec.tenant,
            tag: spec.tag,
            remaining: spec.bytes,
            rate: 0.0,
            updated_at: self.now,
            generation: 0,
            injected_at: self.now,
            latency,
            ledger: ByteLedger::new(spec.bytes),
        };
        self.count_event();
        if self.tracing {
            self.sink.record(TraceEvent::FlowInjected {
                t: self.now.as_secs(),
                id: id.0,
                tag: flow.tag,
                bytes: spec.bytes,
                track: track_of(flow.priority),
                links: flow.links.iter().map(|&l| l as u32).collect(),
            });
        }
        if flow.remaining <= DRAIN_EPS || flow.links.is_empty() {
            // Nothing to drain (or node-local): completes after latency.
            self.count_event(); // its drain is implicit
            self.push_pending(flow);
        } else {
            // Single-tenant runs hit the same solver arithmetic as
            // before tenancy existed (see `ActiveFlow::class`).
            let key = self.solver.add_flow_class(&flow.links, flow.class());
            let slot = key.0 as usize;
            if slot == self.flows.len() {
                self.flows.push(Some(flow));
            } else {
                debug_assert!(self.flows[slot].is_none(), "solver key collision");
                self.flows[slot] = Some(flow);
            }
            self.active_count += 1;
        }
        Ok(id)
    }

    /// Injects several flows at the current time. Since the solver runs
    /// lazily, this is equivalent to repeated [`FlowNetwork::inject`]
    /// calls; it is kept as the idiomatic entry point for starting a
    /// collective phase.
    ///
    /// # Errors
    ///
    /// Returns the first [`RouteError`] among the specs. Every route is
    /// validated up front, so on error *no* flow has been injected —
    /// a phase either starts whole or not at all.
    pub fn inject_batch(&mut self, specs: Vec<FlowSpec>) -> Result<Vec<FlowId>, RouteError> {
        let _prof = fred_telemetry::prof::scope("netsim.inject_batch");
        fred_telemetry::prof::record_value("netsim.inject_batch_flows", specs.len() as f64);
        for spec in &specs {
            self.topo.validate_route(&spec.route)?;
            if let Some(&dead) = spec.route.iter().find(|l| self.failed[l.0]) {
                return Err(RouteError::FailedLink(dead));
            }
        }
        specs.into_iter().map(|spec| self.inject(spec)).collect()
    }

    /// Current capacity of a link (bytes/s): the topology bandwidth,
    /// reduced by [`FlowNetwork::degrade_link`], zero after
    /// [`FlowNetwork::fail_link`].
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.capacities[link.0]
    }

    /// Whether `link` has been killed by [`FlowNetwork::fail_link`].
    pub fn is_link_failed(&self, link: LinkId) -> bool {
        self.failed[link.0]
    }

    /// All links killed so far, in id order.
    pub fn failed_links(&self) -> Vec<LinkId> {
        self.failed
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| LinkId(i))
            .collect()
    }

    /// Whether any link has been killed (cheap guard: the zero-fault
    /// fast paths branch on this to stay bit-identical to a fault-free
    /// build).
    pub fn any_link_failed(&self) -> bool {
        self.failed.iter().any(|&f| f)
    }

    /// Kills `link` at the current instant: its capacity drops to zero,
    /// new injections across it are rejected, and every in-flight flow
    /// crossing it is *evicted* — returned with its unsent byte count so
    /// the caller can re-route and re-inject. Byte accounting of evicted
    /// flows is settled at their pre-fault rate up to now. Surviving
    /// flows that shared a bottleneck with the dead link's flows are
    /// re-solved by the incremental allocator at the next event.
    ///
    /// Idempotent: failing an already-dead link evicts nothing.
    pub fn fail_link(&mut self, link: LinkId) -> Vec<EvictedFlow> {
        if self.failed[link.0] {
            return Vec::new();
        }
        self.failed[link.0] = true;
        self.capacities[link.0] = 0.0;
        self.solver.set_capacity(link.0, 0.0);
        let evicted = self.evict_where(|f| f.links.contains(&link.0));
        if self.tracing {
            self.sink.record(TraceEvent::Fault {
                t: self.now.as_secs(),
                link: link.0 as u32,
                capacity_fraction: 0.0,
                evicted: evicted.len() as u32,
            });
        }
        evicted
    }

    /// Degrades `link` to `fraction` of its topology bandwidth (a lossy
    /// port surviving at reduced width). Flows crossing it keep flowing
    /// at the re-solved lower rate; nothing is evicted. A `fraction` of
    /// `0.0` is a full failure — use [`FlowNetwork::fail_link`], which
    /// also evicts.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0.0, 1.0]`.
    pub fn degrade_link(&mut self, link: LinkId, fraction: f64) {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "degrade fraction must be in (0, 1], got {fraction} (use fail_link for 0)"
        );
        let cap = self.topo.link(link).bandwidth * fraction;
        self.capacities[link.0] = cap;
        self.solver.set_capacity(link.0, cap);
        if self.tracing {
            self.sink.record(TraceEvent::Fault {
                t: self.now.as_secs(),
                link: link.0 as u32,
                capacity_fraction: fraction,
                evicted: 0,
            });
        }
    }

    /// Forcibly evicts every bandwidth-consuming flow whose tag
    /// satisfies `pred`, settling moved bytes exactly like a link-fault
    /// eviction but leaving link capacities untouched — the preemption
    /// entry point for a scheduling layer that owns disjoint tag ranges
    /// per job. Flows already drained and waiting out their tail latency
    /// are *not* recalled; their completions still surface and the
    /// caller is expected to drop retired tags.
    pub fn evict_flows_matching(&mut self, mut pred: impl FnMut(u64) -> bool) -> Vec<EvictedFlow> {
        self.evict_where(|f| pred(f.tag))
    }

    /// Evicts every live flow matching `pred`, in slot order.
    fn evict_where(&mut self, mut pred: impl FnMut(&ActiveFlow) -> bool) -> Vec<EvictedFlow> {
        let mut evicted = Vec::new();
        for slot in 0..self.flows.len() {
            if self.flows[slot].as_ref().is_some_and(&mut pred) {
                evicted.push(self.evict_slot(slot));
            }
        }
        evicted
    }

    /// Removes the flow in `slot` from the active set, settling the
    /// bytes it moved at its pre-eviction rate up to now. The stale
    /// drain prediction is discarded on pop (empty slot / bumped
    /// generation).
    fn evict_slot(&mut self, slot: usize) -> EvictedFlow {
        let mut f = self.flows[slot].take().expect("evict_slot on a dead slot");
        self.active_count -= 1;
        if f.rate > 0.0 {
            // Its live drain entry just went stale.
            self.live_drains -= 1;
        }
        let moved = self.in_flight_bytes(&f);
        f.debit(moved);
        f.ledger.assert_conserved(f.remaining);
        for &l in &f.links {
            self.link_bytes[l] += moved;
        }
        self.solver.remove_flow(FlowKey(slot as u32));
        self.count_event();
        EvictedFlow {
            id: f.id,
            tag: f.tag,
            priority: f.priority,
            tenant: f.tenant,
            remaining_bytes: f.remaining,
            route: f.links.iter().map(|&l| LinkId(l)).collect(),
            injected_at: f.injected_at,
        }
    }

    fn push_pending(&mut self, f: ActiveFlow) {
        let at = self.now + f.latency;
        let seq = f.id.0;
        self.pending.push(Reverse(PendingNotice {
            at,
            seq,
            flow: CompletedFlow {
                id: f.id,
                tag: f.tag,
                priority: f.priority,
                injected_at: f.injected_at,
                completed_at: at,
            },
        }));
    }

    /// Flushes pending solver deltas: one component-local refill
    /// covering every injection/completion since the last flush.
    /// Settles byte accounting and re-predicts drain times for exactly
    /// the flows whose rate changed.
    fn flush_rates(&mut self) {
        self.assert_monotone_clock();
        if !self.solver.solve() {
            return;
        }
        // Feasibility: no touched link carries more than its capacity.
        debug_assert!(
            self.solver
                .touched_links()
                .iter()
                .all(|&l| self.solver.link_allocated(l) <= self.capacities[l] * (1.0 + 1e-9)),
            "refill over-allocated a link"
        );
        let mut changed = std::mem::take(&mut self.changed_scratch);
        changed.clear();
        changed.extend_from_slice(self.solver.changed_flows());
        let now = self.now;
        for &key in &changed {
            let f = self.flows[key.0 as usize]
                .as_mut()
                .expect("solver changed a dead flow");
            // Debit bytes moved at the old rate up to now.
            let dt = (now - f.updated_at).as_secs();
            if f.rate > 0.0 && dt > 0.0 {
                let moved = (f.rate * dt).min(f.remaining);
                f.debit(moved);
                for &l in &f.links {
                    self.link_bytes[l] += moved;
                }
            }
            if f.rate > 0.0 {
                // The generation bump below invalidates its live entry.
                self.live_drains -= 1;
            }
            f.updated_at = now;
            f.rate = self.solver.rate(key);
            // Feasibility: no allocation can beat the flow's solo
            // (bottleneck-capacity) rate — the ideal rate the analysis
            // layer re-costs against.
            debug_assert!(
                f.rate <= crate::fairshare::solo_rate(&self.capacities, &f.links) + 1e-9,
                "allocated rate exceeds contention-free rate"
            );
            // Re-predict the drain. The old heap entry (if any) is
            // invalidated by the generation bump and discarded on pop.
            self.next_generation += 1;
            f.generation = self.next_generation;
            if f.rate > 0.0 {
                let eta = Duration::from_secs((f.remaining / f.rate).max(0.0));
                self.drains
                    .push(Reverse((now + eta, f.id.0, f.generation, key.0)));
                self.live_drains += 1;
            }
        }
        if self.tracing && !changed.is_empty() {
            self.emit_rate_epoch(changed.len() as u32);
        }
        // Heap depth after re-prediction: stale (lazy-deleted) entries
        // included, which is exactly the garbage compaction reclaims.
        fred_telemetry::prof::record_value("netsim.drain_heap_depth", self.drains.len() as f64);
        self.changed_scratch = changed;
        self.maybe_compact();
    }

    /// Debug builds: asserts the clock has not moved backwards since
    /// the last settlement point and advances the watermark.
    fn assert_monotone_clock(&mut self) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.now >= self.clock_watermark,
                "clock ran backwards: {} < {}",
                self.now,
                self.clock_watermark
            );
            self.clock_watermark = self.now;
        }
    }

    /// Rebuilds the drain heap without its lazy-deletion garbage once
    /// dead entries exceed half the heap (and the heap is big enough
    /// for the rebuild to pay for itself). Pop order is untouched: a
    /// binary heap's pop sequence is a pure function of the entry
    /// *set*, and only provably-stale entries are dropped.
    fn maybe_compact(&mut self) {
        if self.drains.len() < self.compaction_min || self.drains.len() <= 2 * self.live_drains {
            return;
        }
        let mut entries = std::mem::take(&mut self.drains).into_vec();
        entries.retain(|&Reverse((_, _, generation, slot))| {
            self.flows[slot as usize]
                .as_ref()
                .is_some_and(|f| f.generation == generation)
        });
        debug_assert_eq!(entries.len(), self.live_drains, "live-entry count drifted");
        self.drains = BinaryHeap::from(entries);
        self.compactions += 1;
        GLOBAL_COMPACTIONS.fetch_add(1, Ordering::Relaxed);
    }

    /// Emits a rate-reallocation epoch: the active-flow count, how many
    /// flows actually changed rate, plus a utilization sample for every
    /// touched link whose allocated rate moved. Only called while
    /// tracing and only when the refill changed something — a delta
    /// that leaves every rate intact emits nothing.
    fn emit_rate_epoch(&mut self, changed: u32) {
        let t = self.now.as_secs();
        self.sink.record(TraceEvent::RateEpoch {
            t,
            active_flows: self.active_count as u32,
            changed,
        });
        for &l in self.solver.touched_links() {
            let new = self.solver.link_allocated(l);
            if (new - self.link_alloc[l]).abs() > 1e-9 * self.capacities[l].max(1.0) {
                // A dead link (capacity 0) reports utilization 0, not NaN.
                let utilization = if self.capacities[l] > 0.0 {
                    new / self.capacities[l]
                } else {
                    0.0
                };
                self.sink.record(TraceEvent::LinkUtil {
                    t,
                    link: l as u32,
                    utilization,
                });
            }
            self.link_alloc[l] = new;
        }
    }

    /// Earliest valid drain prediction, discarding entries orphaned by
    /// rate changes or completed flows.
    fn peek_drain(&mut self) -> Option<Time> {
        while let Some(&Reverse((at, _, generation, slot))) = self.drains.peek() {
            let live = self.flows[slot as usize]
                .as_ref()
                .is_some_and(|f| f.generation == generation);
            if live {
                // Predictions never precede the clock: they are pushed
                // as `now + eta` with `eta >= 0`.
                return Some(at.max(self.now));
            }
            self.drains.pop();
        }
        None
    }

    /// The next instant at which simulator state changes on its own
    /// (a drain finishing or a tail latency expiring), if any.
    ///
    /// Takes `&mut self` because it is also the solver flush point:
    /// deltas accumulated since the last call are folded into one
    /// refill here, which is what coalesces same-timestamp injections
    /// and completions.
    pub fn next_event(&mut self) -> Option<Time> {
        self.flush_rates();
        let drain = self.peek_drain();
        let notice = self.pending.peek().map(|Reverse(p)| p.at);
        match (drain, notice) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances the clock to `t`, processing every internal event on the
    /// way. Completions are buffered; retrieve them with
    /// [`FlowNetwork::drain_completed`].
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: Time) {
        assert!(
            t >= self.now,
            "cannot advance backwards: {t} < {}",
            self.now
        );
        loop {
            match self.next_event() {
                Some(te) if te <= t => {
                    self.now = te;
                    self.settle_at(te);
                }
                _ => break,
            }
        }
        self.now = t;
    }

    /// Processes drained flows and expired tail latencies at the current
    /// instant. Termination is structural: every due drain entry either
    /// removes a flow or is a stale discard, so the event loop always
    /// makes progress (no Zeno stalls even when many near-equal flows
    /// finish within float residue of each other).
    fn settle_at(&mut self, t: Time) {
        debug_assert_eq!(t, self.now);
        self.assert_monotone_clock();
        while let Some(&Reverse((at, _, generation, slot))) = self.drains.peek() {
            if at > self.now {
                break;
            }
            self.drains.pop();
            let slot = slot as usize;
            let stale = self.flows[slot]
                .as_ref()
                .is_none_or(|f| f.generation != generation);
            if stale {
                continue;
            }
            let f = self.flows[slot].take().expect("checked live");
            self.active_count -= 1;
            self.live_drains -= 1;
            // The prediction is exact for a constant rate, so the
            // un-debited bytes are the flow's full `remaining` (modulo
            // float residue, which we settle here rather than simulate).
            for &l in &f.links {
                self.link_bytes[l] += f.remaining;
            }
            self.solver.remove_flow(FlowKey(slot as u32));
            self.count_event();
            if self.tracing {
                self.sink.record(TraceEvent::FlowDrained {
                    t: self.now.as_secs(),
                    id: f.id.0,
                });
            }
            self.push_pending(f);
        }
        // Expired latency tails become completions.
        while let Some(Reverse(p)) = self.pending.peek() {
            if p.at <= self.now {
                let Reverse(p) = self.pending.pop().expect("peeked");
                self.count_event();
                if self.tracing {
                    self.sink.record(TraceEvent::FlowCompleted {
                        t: p.flow.completed_at.as_secs(),
                        id: p.flow.id.0,
                        tag: p.flow.tag,
                        injected_at: p.flow.injected_at.as_secs(),
                        track: track_of(p.flow.priority),
                    });
                }
                self.completed.push(p.flow);
            } else {
                break;
            }
        }
    }

    /// Removes and returns all buffered completions, ordered by
    /// completion time.
    pub fn drain_completed(&mut self) -> Vec<CompletedFlow> {
        let mut out = std::mem::take(&mut self.completed);
        out.sort_by(|a, b| a.completed_at.cmp(&b.completed_at).then(a.id.cmp(&b.id)));
        out
    }

    /// Runs until every in-flight flow has completed and returns all
    /// completions ordered by completion time.
    ///
    /// # Panics
    ///
    /// Panics if progress stalls (e.g. every remaining flow has rate
    /// zero), which would otherwise loop forever.
    pub fn run_to_completion(&mut self) -> Vec<CompletedFlow> {
        while self.in_flight() > 0 {
            let te = self
                .next_event()
                .expect("in-flight flows but no next event: simulation stalled");
            self.advance_to(te);
        }
        self.drain_completed()
    }

    /// Bytes a live flow has moved since its last settlement watermark.
    fn in_flight_bytes(&self, f: &ActiveFlow) -> f64 {
        let dt = (self.now - f.updated_at).as_secs();
        if f.rate > 0.0 && dt > 0.0 {
            (f.rate * dt).min(f.remaining)
        } else {
            0.0
        }
    }

    /// Cumulative bytes carried by a link since construction, including
    /// the in-flight contribution of active flows.
    pub fn link_carried_bytes(&self, link: LinkId) -> f64 {
        let mut total = self.link_bytes[link.0];
        for f in self.flows.iter().flatten() {
            if f.links.contains(&link.0) {
                total += self.in_flight_bytes(f);
            }
        }
        total
    }

    /// Link utilisation over `[Time::ZERO, now]`: carried bytes divided
    /// by capacity × elapsed. Returns 0 when no time has elapsed (or the
    /// link has no capacity), never NaN.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        let elapsed = self.now.as_secs();
        let denom = self.capacities[link.0] * elapsed;
        if denom <= 0.0 {
            0.0
        } else {
            self.link_carried_bytes(link) / denom
        }
    }

    /// Test hook: lowers the drain-heap compaction floor so small
    /// workloads can exercise the rebuild path (`usize::MAX` disables
    /// compaction entirely).
    pub fn set_heap_compaction_min(&mut self, min: usize) {
        self.compaction_min = min;
    }

    /// Tags of every flow not yet handed back by
    /// [`FlowNetwork::drain_completed`] (draining, waiting out their
    /// tail latency, or buffered), for drivers that route completions
    /// by tag to check their bookkeeping on restore.
    pub fn in_flight_tags(&self) -> impl Iterator<Item = u64> + '_ {
        let pending = self.pending.iter().map(|Reverse(p)| &p.flow);
        let done = pending.chain(&self.completed).map(|c| c.tag);
        self.flows.iter().flatten().map(|f| f.tag).chain(done)
    }

    /// Encodes the simulator's complete mutable state; restoring it with
    /// [`FlowNetwork::from_value`] resumes bit-identically. The slab
    /// keeps its holes (slot = solver [`FlowKey`]); the drain heap and
    /// pending completions are sorted entry sets (a heap's pop order is
    /// a pure function of its entries). The topology, sink and
    /// process-wide counters are not simulation state.
    pub fn to_value(&self) -> Value {
        let flows = self.flows.iter().map(|slot| match slot {
            None => Value::Null,
            Some(f) => f.to_value(),
        });
        let mut drains: Vec<_> = self.drains.iter().map(|&Reverse(e)| e).collect();
        drains.sort();
        let drains = drains.iter().map(|&(at, id, generation, slot)| {
            let slot = u64::from(slot);
            Value::Arr(vec![v_time(at), v_u64(id), v_u64(generation), v_u64(slot)])
        });
        let mut pending: Vec<_> = self.pending.iter().map(|Reverse(p)| p).collect();
        pending.sort();
        let pending = pending.iter().map(|p| {
            let (at, seq) = (v_time(p.at), v_u64(p.seq));
            Value::Obj(vec![
                ("at".into(), at),
                ("seq".into(), seq),
                ("flow".into(), p.flow.to_value()),
            ])
        });
        let completed = self.completed.iter().map(CompletedFlow::to_value);
        Value::Obj(vec![
            ("now".into(), v_time(self.now)),
            ("next_id".into(), v_u64(self.next_id)),
            ("flows".into(), Value::Arr(flows.collect())),
            ("active_count".into(), v_u64(self.active_count as u64)),
            ("solver".into(), self.solver.to_value()),
            ("drains".into(), Value::Arr(drains.collect())),
            ("live_drains".into(), v_u64(self.live_drains as u64)),
            ("compaction_min".into(), v_u64(self.compaction_min as u64)),
            ("compactions".into(), v_u64(self.compactions)),
            ("next_generation".into(), v_u64(self.next_generation)),
            ("pending".into(), Value::Arr(pending.collect())),
            ("completed".into(), Value::Arr(completed.collect())),
            ("link_bytes".into(), f64s(&self.link_bytes)),
            ("capacities".into(), f64s(&self.capacities)),
            ("failed".into(), bools(&self.failed)),
            ("events".into(), v_u64(self.events)),
            ("link_alloc".into(), f64s(&self.link_alloc)),
        ])
    }

    /// Rebuilds a simulator from [`FlowNetwork::to_value`] over `topo`
    /// (the topology the capture was taken from), recording into
    /// `sink`. An enabled sink gets a fresh [`TraceEvent::Topology`]
    /// segment marker at the restored clock, as at construction.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] when a field is missing or ill-typed,
    /// the per-link vectors do not match `topo`, or the state breaks an
    /// invariant the next event relies on (DESIGN.md §12.1), so a
    /// restored run can neither panic nor stall.
    pub fn from_value(
        topo: Topology,
        sink: Rc<dyn TraceSink>,
        v: &Value,
    ) -> Result<FlowNetwork, SnapshotError> {
        let ctx = "net";
        let get = |key: &str| field(v, key, ctx);
        let mut net = FlowNetwork::idle(topo, sink);
        net.now = time_of(get("now")?, ctx)?;
        net.next_id = u64_of(get("next_id")?, ctx)?;
        for slot in arr_of(get("flows")?, ctx)? {
            net.flows
                .push(non_null(slot).map(ActiveFlow::from_value).transpose()?);
        }
        net.active_count = usize_of(get("active_count")?, ctx)?;
        net.solver = FairShareSolver::from_value(get("solver")?)?;
        for e in arr_of(get("drains")?, ctx)? {
            let e = tuple_of(e, 4, "net.drain")?;
            let slot = u32::try_from(u64_of(&e[3], ctx)?);
            let slot = slot.map_err(|_| SnapshotError::Mismatch("net.drain: slot".into()))?;
            let (id, generation) = (u64_of(&e[1], ctx)?, u64_of(&e[2], ctx)?);
            net.drains
                .push(Reverse((time_of(&e[0], ctx)?, id, generation, slot)));
        }
        net.live_drains = usize_of(get("live_drains")?, ctx)?;
        net.compaction_min = usize_of(get("compaction_min")?, ctx)?;
        net.compactions = u64_of(get("compactions")?, ctx)?;
        net.next_generation = u64_of(get("next_generation")?, ctx)?;
        for p in arr_of(get("pending")?, ctx)? {
            net.pending.push(Reverse(PendingNotice {
                at: time_of(field(p, "at", ctx)?, ctx)?,
                seq: u64_of(field(p, "seq", ctx)?, ctx)?,
                flow: CompletedFlow::from_value(field(p, "flow", ctx)?)?,
            }));
        }
        let completed = arr_of(get("completed")?, ctx)?.iter();
        net.completed = completed
            .map(CompletedFlow::from_value)
            .collect::<Result<_, _>>()?;
        net.link_bytes = f64s_of(get("link_bytes")?, ctx)?;
        net.capacities = f64s_of(get("capacities")?, ctx)?;
        net.failed = bools_of(get("failed")?, ctx)?;
        net.events = u64_of(get("events")?, ctx)?;
        net.link_alloc = f64s_of(get("link_alloc")?, ctx)?;
        #[cfg(debug_assertions)]
        {
            net.clock_watermark = net.now;
        }
        net.check_restored()?;
        net.record_topology();
        Ok(net)
    }

    /// The invariants [`FlowNetwork::from_value`] promises, on a freshly
    /// decoded network.
    fn check_restored(&self) -> Result<(), SnapshotError> {
        let n = self.topo.links().count();
        let per_link = [&self.link_bytes, &self.capacities, &self.link_alloc].map(Vec::len);
        let shaped = per_link == [n; 3] && self.failed.len() == n;
        ensure!(shaped, "net: per-link vectors not {n} long");
        for ((l, link), &cap) in self.topo.links().zip(&self.capacities) {
            let ok = (0.0..=link.bandwidth).contains(&cap);
            ensure!(ok, "net: link {} capacity {cap}", l.0);
        }
        let same = self.solver.shape_is(&self.capacities, self.flows.len());
        ensure!(same, "net: shape differs from solver");
        let mut live_entries = vec![0usize; self.flows.len()];
        for &Reverse((at, id, generation, slot)) in self.drains.iter() {
            let Some(f) = self.flows.get(slot as usize) else {
                return Err(SnapshotError::Mismatch(format!("net: drain slot {slot}")));
            };
            let ok = at >= self.now && generation <= self.next_generation;
            ensure!(ok, "net: drain entry {at} generation {generation}");
            if let Some(f) = f.as_ref().filter(|f| f.generation == generation) {
                ensure!(f.id.0 == id, "net: drain entry names flow {id}");
                live_entries[slot as usize] += 1;
            }
        }
        // A zero-rate flow is woken by the pending re-solve of a seed
        // link it crosses, or by a draining flow on a shared link.
        let mut wakes = vec![false; n];
        for &l in self.solver.seed_links() {
            wakes[l] = true;
        }
        for (slot, f) in self.flows.iter().enumerate() {
            let view = f.as_ref().map(|f| (&f.links[..], f.class(), f.rate));
            let agrees = self.solver.slot_is(slot, view);
            ensure!(agrees, "net: slot {slot} differs from solver");
            let Some(f) = f else { continue };
            let live = |&l: &usize| !self.failed[l] && self.capacities[l] > 0.0;
            let routed = !f.links.is_empty() && f.links.iter().all(live);
            let sane = f.remaining >= 0.0 && f.rate.is_finite();
            let past = f.updated_at.max(f.injected_at) <= self.now;
            let fresh = f.generation <= self.next_generation;
            let draining = live_entries[slot] == usize::from(f.rate > 0.0);
            let id = f.id.0;
            ensure!(routed && sane && past, "net: flow {id} malformed");
            ensure!(fresh && draining, "net: flow {id} drain out of step");
            if f.rate > 0.0 {
                f.links.iter().for_each(|&l| wakes[l] = true);
            }
        }
        let live: Vec<&ActiveFlow> = self.flows.iter().flatten().collect();
        let draining = live.iter().filter(|f| f.rate > 0.0).count();
        let counts = (live.len(), draining) == (self.active_count, self.live_drains);
        ensure!(counts, "net: live counts disagree with the slab");
        for f in live.iter().filter(|f| f.rate == 0.0) {
            let woken = f.links.iter().any(|&l| wakes[l]);
            ensure!(woken, "net: flow {} starved for good", f.id.0);
        }
        let early = self.pending.iter().any(|Reverse(p)| p.at < self.now);
        ensure!(!early, "net: a completion is due before the clock");
        Ok(())
    }
}

impl ActiveFlow {
    /// The solver fill class: (tenant, priority) lexicographic, so
    /// tenant 0 yields exactly the priority rank.
    fn class(&self) -> u8 {
        self.tenant * Priority::ALL.len() as u8 + self.priority.rank() as u8
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), v_u64(self.id.0)),
            ("links".into(), usizes(&self.links)),
            ("priority".into(), priority_to_value(self.priority)),
            ("tenant".into(), v_u64(u64::from(self.tenant))),
            ("tag".into(), v_u64(self.tag)),
            ("remaining".into(), v_f64(self.remaining)),
            ("rate".into(), v_f64(self.rate)),
            ("updated_at".into(), v_time(self.updated_at)),
            ("generation".into(), v_u64(self.generation)),
            ("injected_at".into(), v_time(self.injected_at)),
            ("latency".into(), v_dur(self.latency)),
        ])
    }

    fn from_value(v: &Value) -> Result<ActiveFlow, SnapshotError> {
        let ctx = "net.flow";
        let get = |key: &str| field(v, key, ctx);
        let remaining = f64_of(get("remaining")?, ctx)?;
        ensure!(remaining.is_finite(), "{ctx}: {remaining} bytes left");
        Ok(ActiveFlow {
            id: FlowId(u64_of(get("id")?, ctx)?),
            links: usizes_of(get("links")?, ctx)?,
            priority: priority_from_value(get("priority")?, ctx)?,
            tenant: tenant_of(get("tenant")?, ctx)?,
            tag: u64_of(get("tag")?, ctx)?,
            remaining,
            rate: f64_of(get("rate")?, ctx)?,
            updated_at: time_of(get("updated_at")?, ctx)?,
            generation: u64_of(get("generation")?, ctx)?,
            injected_at: time_of(get("injected_at")?, ctx)?,
            latency: dur_of(get("latency")?, ctx)?,
            ledger: ByteLedger::new(remaining),
        })
    }
}

impl CompletedFlow {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), v_u64(self.id.0)),
            ("tag".into(), v_u64(self.tag)),
            ("priority".into(), priority_to_value(self.priority)),
            ("injected_at".into(), v_time(self.injected_at)),
            ("completed_at".into(), v_time(self.completed_at)),
        ])
    }

    fn from_value(v: &Value) -> Result<CompletedFlow, SnapshotError> {
        let ctx = "net.completed";
        let get = |key: &str| field(v, key, ctx);
        Ok(CompletedFlow {
            id: FlowId(u64_of(get("id")?, ctx)?),
            tag: u64_of(get("tag")?, ctx)?,
            priority: priority_from_value(get("priority")?, ctx)?,
            injected_at: time_of(get("injected_at")?, ctx)?,
            completed_at: time_of(get("completed_at")?, ctx)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NodeKind, Topology};

    fn two_node_net(bw: f64, lat: f64) -> (FlowNetwork, crate::topology::LinkId) {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let l = topo.add_link(a, b, bw, lat);
        (FlowNetwork::new(topo), l)
    }

    #[test]
    fn single_flow_takes_bytes_over_bandwidth() {
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 500.0)).unwrap();
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!((done[0].completed_at.as_secs() - 5.0).abs() < 1e-9);
        assert!((net.link_carried_bytes(l) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn latency_is_appended_after_drain() {
        let (mut net, l) = two_node_net(100.0, 0.5);
        net.inject(FlowSpec::new(vec![l], 100.0)).unwrap();
        let done = net.run_to_completion();
        assert!((done[0].completed_at.as_secs() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        // f0: 100 B, f1: 300 B on a 100 B/s link.
        // Phase 1: both at 50 B/s until f0 drains at t=2 (100 B each).
        // Phase 2: f1 alone at 100 B/s for its remaining 200 B -> t=4.
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 100.0).with_tag(0))
            .unwrap();
        net.inject(FlowSpec::new(vec![l], 300.0).with_tag(1))
            .unwrap();
        let done = net.run_to_completion();
        assert_eq!(done[0].tag, 0);
        assert!((done[0].completed_at.as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(done[1].tag, 1);
        assert!((done[1].completed_at.as_secs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn priority_preemption_starves_then_releases() {
        // MP flow (100 B) and DP flow (100 B) on the same 100 B/s link:
        // MP finishes at t=1, DP at t=2.
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(
            FlowSpec::new(vec![l], 100.0)
                .with_priority(Priority::Dp)
                .with_tag(3),
        )
        .unwrap();
        net.inject(
            FlowSpec::new(vec![l], 100.0)
                .with_priority(Priority::Mp)
                .with_tag(1),
        )
        .unwrap();
        let done = net.run_to_completion();
        assert_eq!(done[0].tag, 1);
        assert!((done[0].completed_at.as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(done[1].tag, 3);
        assert!((done[1].completed_at.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn late_injection_reallocates() {
        // f0 alone for 1 s (100 B drained), then f1 joins; both at 50 B/s.
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 200.0).with_tag(0))
            .unwrap();
        net.advance_to(Time::from_secs(1.0));
        net.inject(FlowSpec::new(vec![l], 100.0).with_tag(1))
            .unwrap();
        let done = net.run_to_completion();
        // f0 remaining 100 at t=1 -> drains at t=3; f1 100 B -> t=3 too.
        assert!((done[0].completed_at.as_secs() - 3.0).abs() < 1e-9);
        assert!((done[1].completed_at.as_secs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_flow_completes_after_latency_only() {
        let (mut net, l) = two_node_net(100.0, 0.25);
        net.inject(FlowSpec::new(vec![l], 0.0)).unwrap();
        let done = net.run_to_completion();
        assert!((done[0].completed_at.as_secs() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn node_local_flow_completes_immediately() {
        let (mut net, _) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![], 1e9)).unwrap();
        let done = net.run_to_completion();
        assert_eq!(done[0].completed_at, Time::ZERO);
    }

    #[test]
    fn utilization_accounts_busy_fraction() {
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 100.0)).unwrap();
        net.advance_to(Time::from_secs(2.0));
        // Busy 1 s out of 2 s.
        assert!((net.link_utilization(l) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_zero_not_nan_before_time_advances() {
        let (mut net, l) = two_node_net(100.0, 0.0);
        // No time has elapsed and a flow is mid-injection: the elapsed
        // divisor is zero and the result must be 0.0, never NaN.
        net.inject(FlowSpec::new(vec![l], 100.0)).unwrap();
        let u = net.link_utilization(l);
        assert_eq!(u, 0.0);
        assert!(!u.is_nan());
    }

    #[test]
    fn in_flight_bytes_visible_mid_drain() {
        // Lazy accounting must not hide bytes between settlements: half
        // way through a lone flow, the link has carried half the bytes
        // even though no rate change has settled them.
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 100.0)).unwrap();
        net.advance_to(Time::from_secs(0.5));
        assert!((net.link_carried_bytes(l) - 50.0).abs() < 1e-9);
        assert!((net.link_utilization(l) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_hop_flow_bounded_by_slowest_link() {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::SwitchL1, "s");
        let c = topo.add_node(NodeKind::Npu, "c");
        let l0 = topo.add_link(a, b, 100.0, 0.0);
        let l1 = topo.add_link(b, c, 25.0, 0.0);
        let mut net = FlowNetwork::new(topo);
        net.inject(FlowSpec::new(vec![l0, l1], 100.0)).unwrap();
        let done = net.run_to_completion();
        assert!((done[0].completed_at.as_secs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn inject_batch_matches_sequential_injects() {
        let (mut a, la) = two_node_net(100.0, 0.0);
        let (mut b, lb) = two_node_net(100.0, 0.0);
        let specs_a: Vec<FlowSpec> = (0..5)
            .map(|i| FlowSpec::new(vec![la], 100.0).with_tag(i))
            .collect();
        for s in specs_a {
            a.inject(s).unwrap();
        }
        let specs_b: Vec<FlowSpec> = (0..5)
            .map(|i| FlowSpec::new(vec![lb], 100.0).with_tag(i))
            .collect();
        b.inject_batch(specs_b).unwrap();
        let da = a.run_to_completion();
        let db = b.run_to_completion();
        assert_eq!(da.len(), db.len());
        for (x, y) in da.iter().zip(&db) {
            assert_eq!(x.tag, y.tag);
            assert!((x.completed_at.as_secs() - y.completed_at.as_secs()).abs() < 1e-12);
        }
    }

    #[test]
    fn inject_batch_handles_mixed_empty_and_real_flows() {
        let (mut net, l) = two_node_net(100.0, 0.0);
        let ids = net
            .inject_batch(vec![
                FlowSpec::new(vec![], 1e6).with_tag(0),
                FlowSpec::new(vec![l], 100.0).with_tag(1),
                FlowSpec::new(vec![l], 0.0).with_tag(2),
            ])
            .unwrap();
        assert_eq!(ids.len(), 3);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 3);
        // The node-local and zero-byte flows complete instantly.
        assert_eq!(done[0].completed_at, Time::ZERO);
        assert_eq!(done[1].completed_at, Time::ZERO);
        assert!((done[2].completed_at.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zeno_guard_terminates_near_equal_flows() {
        // Hundreds of nearly-identical flows completing at nearly the
        // same instant: each due drain prediction removes its flow, so
        // the event loop terminates structurally even when predictions
        // collide within float residue of one another.
        let (mut net, l) = two_node_net(1e12, 2e-8);
        let flows: Vec<FlowSpec> = (0..256)
            .map(|i| FlowSpec::new(vec![l], 1e9 + (i as f64) * 1e-3).with_tag(i))
            .collect();
        net.inject_batch(flows).unwrap();
        let done = net.run_to_completion();
        assert_eq!(done.len(), 256);
    }

    #[test]
    fn deferred_solve_coalesces_same_timestamp_deltas() {
        // 10 separate injects at t=0 must cost one solver refill, not 10.
        let (mut net, l) = two_node_net(100.0, 0.0);
        for i in 0..10 {
            net.inject(FlowSpec::new(vec![l], 100.0).with_tag(i))
                .unwrap();
        }
        assert_eq!(net.solver_stats().solves, 0, "solve must be lazy");
        net.next_event();
        assert_eq!(net.solver_stats().solves, 1, "deltas must coalesce");
        let done = net.run_to_completion();
        assert_eq!(done.len(), 10);
    }

    #[test]
    fn event_counters_track_lifecycle() {
        let before_global = global_events_processed();
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 100.0)).unwrap();
        net.inject(FlowSpec::new(vec![], 1.0)).unwrap();
        net.run_to_completion();
        // 2 injections + 2 drains (one implicit) + 2 completions.
        assert_eq!(net.events_processed(), 6);
        assert!(global_events_processed() >= before_global + 6);
    }

    #[test]
    fn forced_global_refill_matches_incremental() {
        let run = |fraction: Option<f64>| {
            let (mut net, l) = two_node_net(100.0, 1e-6);
            if let Some(f) = fraction {
                net.set_refill_fraction(f);
            }
            for i in 0..20 {
                net.inject(FlowSpec::new(vec![l], 50.0 + i as f64).with_tag(i))
                    .unwrap();
            }
            net.run_to_completion()
                .iter()
                .map(|c| (c.tag, c.completed_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(None), run(Some(0.0)));
    }

    #[test]
    fn heap_compaction_triggers_and_preserves_results() {
        // Repeated same-link churn: every injection re-rates the
        // survivor set, orphaning heap entries. With the floor lowered
        // the garbage crosses 50% and compaction must fire — without
        // changing a single completion time relative to a run where
        // compaction is disabled.
        let run = |compaction_min: usize| {
            let (mut net, l) = two_node_net(100.0, 1e-6);
            net.set_heap_compaction_min(compaction_min);
            for i in 0..64u64 {
                net.inject(FlowSpec::new(vec![l], 40.0 + i as f64).with_tag(i))
                    .unwrap();
                net.next_event();
            }
            let done = net.run_to_completion();
            let times: Vec<(u64, Time)> = done.iter().map(|c| (c.tag, c.completed_at)).collect();
            (times, net.heap_compactions())
        };
        let (baseline, none) = run(usize::MAX);
        let (compacted, some) = run(8);
        assert_eq!(none, 0);
        assert!(some > 0, "compaction never fired");
        assert_eq!(baseline, compacted, "compaction changed results");
    }

    #[test]
    fn compaction_counter_is_global_and_monotone() {
        let before = global_heap_compactions();
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.set_heap_compaction_min(4);
        for i in 0..32u64 {
            net.inject(FlowSpec::new(vec![l], 60.0 + i as f64).with_tag(i))
                .unwrap();
            net.next_event();
        }
        net.run_to_completion();
        assert!(net.heap_compactions() > 0);
        assert!(global_heap_compactions() >= before + net.heap_compactions());
    }

    #[test]
    fn traced_run_matches_untraced_and_records_lifecycle() {
        use fred_telemetry::event::TraceEvent;
        use fred_telemetry::sink::RingRecorder;
        use std::rc::Rc;

        let build = || {
            let mut topo = Topology::new();
            let a = topo.add_node(NodeKind::Npu, "a");
            let b = topo.add_node(NodeKind::Npu, "b");
            let c = topo.add_node(NodeKind::Npu, "c");
            let ab = topo.add_link(a, b, 100.0, 1e-6);
            let bc = topo.add_link(b, c, 50.0, 1e-6);
            (topo, ab, bc)
        };
        let run = |mut net: FlowNetwork| {
            let (_, ab, bc) = build();
            net.inject(
                FlowSpec::new(vec![ab], 100.0)
                    .with_tag(0)
                    .with_priority(Priority::Mp),
            )
            .unwrap();
            net.inject(FlowSpec::new(vec![ab, bc], 300.0).with_tag(1))
                .unwrap();
            net.inject(
                FlowSpec::new(vec![bc], 40.0)
                    .with_tag(2)
                    .with_priority(Priority::Dp),
            )
            .unwrap();
            let mut done = net.run_to_completion();
            done.sort_by_key(|c| c.tag);
            done.iter()
                .map(|c| (c.tag, c.completed_at))
                .collect::<Vec<_>>()
        };

        let (topo, ..) = build();
        let plain = run(FlowNetwork::new(topo));

        let rec = Rc::new(RingRecorder::new());
        let (topo, ..) = build();
        let traced = run(FlowNetwork::with_sink(topo, rec.clone()));

        // Identical simulation results, bit for bit.
        assert_eq!(plain, traced);

        // The recorder saw the full lifecycle of each flow.
        let events = rec.events();
        let injected = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FlowInjected { .. }))
            .count();
        let drained = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FlowDrained { .. }))
            .count();
        let completed = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FlowCompleted { .. }))
            .count();
        assert_eq!(injected, 3);
        assert_eq!(drained, 3);
        assert_eq!(completed, 3);
        // Every rate epoch reports a non-zero changed count (delta-aware
        // emission: epochs where nothing changed are suppressed).
        let epochs: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RateEpoch { changed, .. } => Some(*changed),
                _ => None,
            })
            .collect();
        assert!(!epochs.is_empty());
        assert!(epochs.iter().all(|&c| c > 0));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::LinkUtil { .. })));
        // Tracks follow the flow priorities.
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::FlowInjected {
                track: fred_telemetry::event::Track::Mp,
                ..
            }
        )));
    }

    #[test]
    fn discontiguous_route_is_a_clean_error() {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let c = topo.add_node(NodeKind::Npu, "c");
        let ab = topo.add_link(a, b, 1.0, 0.0);
        let ca = topo.add_link(c, a, 1.0, 0.0);
        let mut net = FlowNetwork::new(topo);
        let err = net.inject(FlowSpec::new(vec![ab, ca], 1.0)).unwrap_err();
        assert!(matches!(err, RouteError::Discontiguous { .. }));
        // Nothing was injected.
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn inject_batch_is_all_or_nothing() {
        let (mut net, l) = two_node_net(100.0, 0.0);
        let err = net
            .inject_batch(vec![
                FlowSpec::new(vec![l], 100.0).with_tag(0),
                FlowSpec::new(vec![LinkId(99)], 100.0).with_tag(1),
            ])
            .unwrap_err();
        assert_eq!(err, RouteError::UnknownLink(LinkId(99)));
        assert_eq!(net.in_flight(), 0, "no partial phase on error");
    }

    #[test]
    fn fail_link_evicts_and_survivors_speed_up() {
        // Two parallel a->b links; one flow on each. Killing link 0
        // mid-drain evicts its flow with the unsent bytes settled, and
        // the other flow is untouched.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let l0 = topo.add_link(a, b, 100.0, 0.0);
        let l1 = topo.add_link(a, b, 100.0, 0.0);
        let mut net = FlowNetwork::new(topo);
        net.inject(FlowSpec::new(vec![l0], 200.0).with_tag(7))
            .unwrap();
        net.inject(FlowSpec::new(vec![l1], 200.0).with_tag(8))
            .unwrap();
        net.advance_to(Time::from_secs(1.0));
        let evicted = net.fail_link(l0);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].tag, 7);
        assert!((evicted[0].remaining_bytes - 100.0).abs() < 1e-9);
        assert_eq!(evicted[0].route, vec![l0]);
        assert!(net.is_link_failed(l0));
        assert_eq!(net.failed_links(), vec![l0]);
        assert!(net.any_link_failed());
        assert_eq!(net.link_capacity(l0), 0.0);
        // Re-failing is a no-op.
        assert!(net.fail_link(l0).is_empty());
        // New injections across the dead link are rejected…
        let err = net.inject(FlowSpec::new(vec![l0], 1.0)).unwrap_err();
        assert_eq!(err, RouteError::FailedLink(l0));
        // …while the survivor finishes on schedule (200 B at 100 B/s).
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 8);
        assert!((done[0].completed_at.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fail_link_reallocates_shared_bottleneck() {
        // Flows f0 (l0) and f1 (l1) both continue through shared l2.
        // Killing l0 evicts f0 and f1 inherits the freed l2 share.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let c = topo.add_node(NodeKind::SwitchL1, "s");
        let d = topo.add_node(NodeKind::Npu, "d");
        let l0 = topo.add_link(a, c, 100.0, 0.0);
        let l1 = topo.add_link(b, c, 100.0, 0.0);
        let l2 = topo.add_link(c, d, 100.0, 0.0);
        let mut net = FlowNetwork::new(topo);
        net.inject(FlowSpec::new(vec![l0, l2], 100.0).with_tag(0))
            .unwrap();
        net.inject(FlowSpec::new(vec![l1, l2], 150.0).with_tag(1))
            .unwrap();
        // Both run at 50 B/s on the l2 bottleneck for 1 s.
        net.advance_to(Time::from_secs(1.0));
        let evicted = net.fail_link(l0);
        assert_eq!(evicted.len(), 1);
        assert!((evicted[0].remaining_bytes - 50.0).abs() < 1e-9);
        // f1 has 100 B left and now owns l2: done at t=2.
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert!((done[0].completed_at.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn evict_flows_matching_preempts_by_tag_and_keeps_tenant() {
        // Two flows on one link, tags 10 and 20. Preempting tag 10 at
        // t=1 settles its half of the shared link and leaves tag 20 to
        // finish alone at full rate.
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 200.0).with_tag(10).with_tenant(2))
            .unwrap();
        net.inject(FlowSpec::new(vec![l], 200.0).with_tag(20).with_tenant(2))
            .unwrap();
        net.advance_to(Time::from_secs(1.0));
        let evicted = net.evict_flows_matching(|tag| tag == 10);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].tag, 10);
        assert_eq!(evicted[0].tenant, 2, "tenant survives eviction");
        // 1 s at 50 B/s each: 150 B unsent.
        assert!((evicted[0].remaining_bytes - 150.0).abs() < 1e-9);
        // No link was failed — this is preemption, not a fault.
        assert!(!net.any_link_failed());
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 20);
        // Remaining 150 B at 100 B/s from t=1.
        assert!((done[0].completed_at.as_secs() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn tenant_ranks_isolate_bandwidth_strictly() {
        // A tenant-1 MP flow yields entirely to a tenant-0 Bulk flow:
        // inter-tenant precedence dominates intra-job priority.
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 100.0).with_tag(1))
            .unwrap();
        net.inject(
            FlowSpec::new(vec![l], 100.0)
                .with_priority(Priority::Mp)
                .with_tag(2)
                .with_tenant(1),
        )
        .unwrap();
        let done = net.run_to_completion();
        assert_eq!(done[0].tag, 1);
        assert!((done[0].completed_at.as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(done[1].tag, 2);
        assert!((done[1].completed_at.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degrade_link_slows_without_evicting() {
        let (mut net, l) = two_node_net(100.0, 0.0);
        net.inject(FlowSpec::new(vec![l], 100.0)).unwrap();
        net.advance_to(Time::from_secs(0.5));
        // Half the bytes are out; the link drops to quarter width.
        net.degrade_link(l, 0.25);
        assert!(!net.is_link_failed(l));
        assert_eq!(net.link_capacity(l), 25.0);
        let done = net.run_to_completion();
        // Remaining 50 B at 25 B/s -> t = 0.5 + 2.0.
        assert_eq!(done.len(), 1);
        assert!((done[0].completed_at.as_secs() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn fault_events_reach_the_sink() {
        use fred_telemetry::sink::RingRecorder;

        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Npu, "a");
        let b = topo.add_node(NodeKind::Npu, "b");
        let l0 = topo.add_link(a, b, 100.0, 0.0);
        let l1 = topo.add_link(a, b, 100.0, 0.0);
        let rec = Rc::new(RingRecorder::new());
        let mut net = FlowNetwork::with_sink(topo, rec.clone());
        net.inject(FlowSpec::new(vec![l0], 100.0)).unwrap();
        net.next_event();
        net.fail_link(l0);
        net.degrade_link(l1, 0.5);
        let faults: Vec<(u32, f64, u32)> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Fault {
                    link,
                    capacity_fraction,
                    evicted,
                    ..
                } => Some((*link, *capacity_fraction, *evicted)),
                _ => None,
            })
            .collect();
        assert_eq!(faults, vec![(l0.0 as u32, 0.0, 1), (l1.0 as u32, 0.5, 0)]);
    }

    #[test]
    fn snapshot_restore_mid_fault_is_bit_identical() {
        // A run with staggered injections, a mid-run link failure and a
        // re-injection of the evicted bytes. Snapshot immediately after
        // the fault (evicted flows in hand, completions buffered,
        // pending deltas unsolved), restore into a fresh network, and
        // the remainder must match the uninterrupted run bit for bit.
        let build = || {
            let mut topo = Topology::new();
            let a = topo.add_node(NodeKind::Npu, "a");
            let b = topo.add_node(NodeKind::Npu, "b");
            let l0 = topo.add_link(a, b, 100.0, 1e-6);
            let l1 = topo.add_link(a, b, 80.0, 2e-6);
            (topo, l0, l1)
        };
        let phase1 = |net: &mut FlowNetwork, l0: LinkId, l1: LinkId| {
            for i in 0..6u64 {
                let l = if i % 2 == 0 { l0 } else { l1 };
                net.inject(FlowSpec::new(vec![l], 120.0 + i as f64).with_tag(i))
                    .unwrap();
            }
            net.advance_to(Time::from_secs(1.0));
            net.inject(FlowSpec::new(vec![l0], 300.0).with_tag(100))
                .unwrap();
            net.advance_to(Time::from_secs(1.5));
            net.fail_link(l0)
        };
        let finish = |net: &mut FlowNetwork, l1: LinkId, evicted: Vec<EvictedFlow>| {
            // Re-route the evicted bytes over the surviving link.
            for ev in evicted {
                net.inject(
                    FlowSpec::new(vec![l1], ev.remaining_bytes)
                        .with_priority(ev.priority)
                        .with_tag(ev.tag + 1000),
                )
                .unwrap();
            }
            let mut done = net.run_to_completion();
            done.sort_by_key(|c| c.tag);
            done.iter()
                .map(|c| (c.tag, c.completed_at.as_secs().to_bits()))
                .collect::<Vec<_>>()
        };

        let (topo, l0, l1) = build();
        let mut base = FlowNetwork::new(topo);
        let ev = phase1(&mut base, l0, l1);
        let uninterrupted = finish(&mut base, l1, ev.clone());

        let (topo, l0b, l1b) = build();
        let mut paused = FlowNetwork::new(topo);
        let ev2 = phase1(&mut paused, l0b, l1b);
        assert_eq!(ev, ev2);
        let state = paused.to_value();
        drop(paused);
        let (topo, _, l1c) = build();
        let mut resumed = FlowNetwork::from_value(topo, Rc::new(NullSink), &state).unwrap();
        // A snapshot of the restored (untouched) network is stable.
        assert_eq!(resumed.to_value(), state);
        assert_eq!(finish(&mut resumed, l1c, ev2), uninterrupted);
    }
}
