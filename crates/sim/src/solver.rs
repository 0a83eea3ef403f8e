//! Persistent, incrementally-updated max-min fair-share solver.
//!
//! [`FairShareSolver`] owns the link ↔ flow incidence structure of the
//! active flow set and recomputes rates *incrementally*: an
//! [`FairShareSolver::add_flow`] / [`FairShareSolver::remove_flow`]
//! delta marks the touched links dirty, and the next
//! [`FairShareSolver::solve`] re-runs progressive filling only over the
//! *connected component* of links and flows transitively reachable from
//! the dirty links (through shared links, across every priority class).
//! Rates outside the component are provably unchanged — no flow outside
//! the component shares a link with any flow inside it, so the
//! progressive-filling solution decomposes exactly — and stay frozen.
//!
//! This turns the simulator's hot path from O(flows × links) per event
//! into O(component) per event: with the mostly-local traffic of a
//! wafer-scale fabric, a completing flow typically disturbs only its
//! own neighbourhood. When churn *is* global (a wafer-wide collective
//! phase boundary) the dirty component approaches the whole active set
//! and the solver falls back to a global refill, which costs the same
//! as the from-scratch allocator (see
//! [`FairShareSolver::set_refill_fraction`]).
//!
//! Within a component, progressive filling picks each bottleneck from a
//! lazy min-heap of `(share, link)` entries and freezes exactly the
//! flows on that link's incidence list. A component of F flows over
//! routes of P links costs O(F·P·log L) per priority class, where the
//! scan-based allocator pays O(iterations × (L + F·P)) for L used links.
//!
//! The correctness contract is *rate identity*: after any sequence of
//! deltas, [`FairShareSolver`] rates equal, bit for bit, a from-scratch
//! [`crate::fairshare::max_min_rates`] run over the current active set
//! (`tests/property_fairshare_incremental.rs` compares `to_bits()`
//! under randomized, tie-heavy churn). Both pick the same bottleneck
//! (lowest share, ties to the lowest link index), and every link loses
//! the same share once per frozen crossing, so the order flows freeze
//! in within one bottleneck cannot change a bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::codec::{SnapshotError, Value};
use crate::ensure;
use crate::flow::Priority;
use crate::snapshot::{
    arr_of, bool_of, f64_of, f64s, f64s_of, field, u32s, u32s_of, u64_of, usize_of, usizes,
    usizes_of, v_f64, v_u64,
};

/// Same drained-capacity clamp as the from-scratch allocator
/// ([`crate::fairshare::max_min_rates`]); keeping them identical is
/// part of the rate-identity contract.
const EPS: f64 = 1e-9;

/// Handle to a flow registered with a [`FairShareSolver`]. Keys are
/// reused after [`FairShareSolver::remove_flow`]; holders must not
/// dereference a key they removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey(pub u32);

#[derive(Debug, Clone)]
struct SolverFlow {
    links: Box<[usize]>,
    /// Strict fill class, 0 filled first. Single-tenant callers pass
    /// [`Priority::rank`]; the cluster layer composes tenant × priority
    /// into one ordinal (see [`FairShareSolver::add_flow_class`]).
    class: u8,
    rate: f64,
}

/// Running cost counters, exposed for benchmarks and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Total solves that ran (dirty deltas flushed).
    pub solves: u64,
    /// Solves that fell back to a global refill.
    pub global_solves: u64,
    /// Flows whose rate was recomputed, summed over all solves (the
    /// work actually done; compare against `solves × live flows` for
    /// the from-scratch cost).
    pub refilled_flows: u64,
    /// Largest single dirty component refilled (flows) — how close the
    /// incremental solver comes to its global-fallback threshold.
    pub max_component: u64,
}

// Process-wide mirrors of the per-solver counters, so bench harnesses
// can report solver cost without a handle on every network built
// inside a run (same pattern as `netsim::global_events_processed`).
static TOTAL_SOLVES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static TOTAL_GLOBAL_SOLVES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static TOTAL_REFILLED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static MAX_COMPONENT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Solver cost counters accumulated across every [`FairShareSolver`]
/// in the process since start (monotone; diff two readings to scope a
/// run).
pub fn global_solver_stats() -> SolverStats {
    use std::sync::atomic::Ordering::Relaxed;
    SolverStats {
        solves: TOTAL_SOLVES.load(Relaxed),
        global_solves: TOTAL_GLOBAL_SOLVES.load(Relaxed),
        refilled_flows: TOTAL_REFILLED.load(Relaxed),
        max_component: MAX_COMPONENT.load(Relaxed),
    }
}

/// Persistent max-min fair allocator over a fixed set of links.
///
/// See the [module docs](self) for the incremental algorithm and the
/// rate-identity contract.
#[derive(Debug)]
pub struct FairShareSolver {
    capacities: Vec<f64>,
    flows: Vec<Option<SolverFlow>>,
    free: Vec<u32>,
    live: usize,
    /// Flow keys crossing each link.
    link_flows: Vec<Vec<u32>>,
    /// Current allocated rate sum per link (kept for telemetry and
    /// feasibility checks).
    link_alloc: Vec<f64>,
    /// Links touched by deltas since the last solve (may repeat).
    seed_links: Vec<usize>,
    dirty: bool,
    refill_fraction: f64,
    // Persistent scratch (epoch-stamped so nothing is ever cleared).
    epoch: u64,
    link_mark: Vec<u64>,
    flow_mark: Vec<u64>,
    /// `epoch` once the flow's rate is fixed in the current refill.
    frozen_mark: Vec<u64>,
    /// `freeze_stamp` once the link is queued in `reshared`.
    share_mark: Vec<u64>,
    /// Bottleneck iterations since construction (stamps `share_mark`).
    freeze_stamp: u64,
    remaining: Vec<f64>,
    counts: Vec<usize>,
    new_rate: Vec<f64>,
    // Per-solve buffers, kept so a solve allocates nothing.
    comp_flows: Vec<u32>,
    stack: Vec<usize>,
    classes: Vec<u8>,
    /// Lazy min-heap of `(share_key, link)` bottleneck candidates.
    shares: BinaryHeap<Reverse<(u64, usize)>>,
    /// Links whose share moved in the current bottleneck iteration.
    reshared: Vec<usize>,
    // Outputs of the last solve (`touched_links` doubles as the
    // component's link list while the solve runs).
    changed: Vec<FlowKey>,
    touched_links: Vec<usize>,
    stats: SolverStats,
}

impl FairShareSolver {
    /// Default fraction of the live flow set beyond which a dirty
    /// component triggers a global refill instead of component-local
    /// bookkeeping.
    pub const DEFAULT_REFILL_FRACTION: f64 = 0.5;

    /// Creates a solver over links with the given capacities (bytes/s,
    /// indexed by `LinkId.0`).
    pub fn new(capacities: Vec<f64>) -> FairShareSolver {
        let n = capacities.len();
        FairShareSolver {
            capacities,
            flows: Vec::new(),
            free: Vec::new(),
            live: 0,
            link_flows: vec![Vec::new(); n],
            link_alloc: vec![0.0; n],
            seed_links: Vec::new(),
            dirty: false,
            refill_fraction: Self::DEFAULT_REFILL_FRACTION,
            epoch: 0,
            link_mark: vec![0; n],
            flow_mark: Vec::new(),
            frozen_mark: Vec::new(),
            share_mark: vec![0; n],
            freeze_stamp: 0,
            remaining: vec![0.0; n],
            counts: vec![0; n],
            new_rate: Vec::new(),
            comp_flows: Vec::new(),
            stack: Vec::new(),
            classes: Vec::new(),
            shares: BinaryHeap::new(),
            reshared: Vec::new(),
            changed: Vec::new(),
            touched_links: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// Sets the dirty-component size (as a fraction of live flows)
    /// beyond which [`FairShareSolver::solve`] falls back to a global
    /// refill. `0.0` forces every solve global (the from-scratch
    /// behaviour, useful as a benchmark baseline); values ≥ 1.0
    /// effectively disable the fallback.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is NaN or negative.
    pub fn set_refill_fraction(&mut self, fraction: f64) {
        assert!(
            fraction >= 0.0,
            "refill fraction must be non-negative, got {fraction}"
        );
        self.refill_fraction = fraction;
    }

    /// Number of flows currently registered.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether deltas are pending a [`FairShareSolver::solve`].
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Cost counters accumulated since construction.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Registers a flow crossing `links` (indices into the capacity
    /// table, multiset semantics identical to
    /// [`crate::fairshare::AllocFlow`]). The flow's rate is `0.0`
    /// (or `f64::INFINITY` for an empty, node-local route) until the
    /// next [`FairShareSolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if a link index is out of range.
    pub fn add_flow(&mut self, links: &[usize], priority: Priority) -> FlowKey {
        self.add_flow_class(links, priority.rank() as u8)
    }

    /// Registers a flow under an explicit numeric fill class (0 filled
    /// first; classes are strict, exactly like [`Priority`] ranks).
    /// [`FairShareSolver::add_flow`] delegates here with
    /// `priority.rank()`, so single-tenant callers see identical
    /// arithmetic; multi-tenant callers compose
    /// `tenant_rank × Priority::ALL.len() + priority.rank()` to give
    /// higher tenants strict precedence on shared links.
    ///
    /// # Panics
    ///
    /// Panics if a link index is out of range.
    pub fn add_flow_class(&mut self, links: &[usize], class: u8) -> FlowKey {
        for &l in links {
            assert!(
                l < self.capacities.len(),
                "flow references unknown link index {l}"
            );
        }
        let flow = SolverFlow {
            links: links.into(),
            class,
            rate: if links.is_empty() { f64::INFINITY } else { 0.0 },
        };
        let key = match self.free.pop() {
            Some(k) => {
                self.flows[k as usize] = Some(flow);
                k
            }
            None => {
                self.flows.push(Some(flow));
                self.flow_mark.push(0);
                self.frozen_mark.push(0);
                self.new_rate.push(0.0);
                (self.flows.len() - 1) as u32
            }
        };
        self.live += 1;
        for &l in links {
            self.link_flows[l].push(key);
            self.seed_links.push(l);
            self.dirty = true;
        }
        FlowKey(key)
    }

    /// Removes a flow; its links become dirty seeds for the next
    /// [`FairShareSolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `key` does not name a live flow.
    pub fn remove_flow(&mut self, key: FlowKey) {
        let flow = self.flows[key.0 as usize]
            .take()
            .expect("remove_flow on a dead key");
        self.live -= 1;
        self.free.push(key.0);
        for &l in flow.links.iter() {
            // A flow crossing the same link twice holds two incidence
            // slots; drop exactly one per traversal.
            let pos = self.link_flows[l]
                .iter()
                .position(|&k| k == key.0)
                .expect("incidence list out of sync");
            self.link_flows[l].swap_remove(pos);
            self.seed_links.push(l);
            self.dirty = true;
        }
    }

    /// The rate assigned at the last [`FairShareSolver::solve`]
    /// (`0.0` for a flow added since, `f64::INFINITY` for node-local
    /// flows).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not name a live flow.
    pub fn rate(&self, key: FlowKey) -> f64 {
        self.flows[key.0 as usize]
            .as_ref()
            .expect("rate of a dead key")
            .rate
    }

    /// Flows whose rate changed in the last [`FairShareSolver::solve`]
    /// (removed flows are never reported).
    pub fn changed_flows(&self) -> &[FlowKey] {
        &self.changed
    }

    /// Links whose allocation was recomputed in the last
    /// [`FairShareSolver::solve`] (a superset of the links whose
    /// allocated sum actually changed).
    pub fn touched_links(&self) -> &[usize] {
        &self.touched_links
    }

    /// Current allocated rate sum on a link.
    ///
    /// # Panics
    ///
    /// Panics if the link index is out of range.
    pub fn link_allocated(&self, link: usize) -> f64 {
        self.link_alloc[link]
    }

    /// Current capacity of a link (bytes/s).
    ///
    /// # Panics
    ///
    /// Panics if the link index is out of range.
    pub fn capacity(&self, link: usize) -> f64 {
        self.capacities[link]
    }

    /// Changes a link's capacity (the fault-injection entry point:
    /// `0.0` models a dead link, intermediate values a degraded one).
    /// The link becomes a dirty seed, so the next
    /// [`FairShareSolver::solve`] re-runs progressive filling over its
    /// component and every flow crossing it picks up the new share.
    ///
    /// # Panics
    ///
    /// Panics if the link index is out of range or `capacity` is
    /// negative/NaN.
    pub fn set_capacity(&mut self, link: usize, capacity: f64) {
        assert!(
            link < self.capacities.len(),
            "set_capacity on unknown link index {link}"
        );
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "link capacity must be finite and non-negative, got {capacity}"
        );
        if self.capacities[link] == capacity {
            return;
        }
        self.capacities[link] = capacity;
        self.seed_links.push(link);
        self.dirty = true;
    }

    /// Flushes pending deltas: recomputes the dirty component (or
    /// everything, past the refill threshold) and freezes the rest.
    /// Returns `true` when a solve actually ran; inspect
    /// [`FairShareSolver::changed_flows`] /
    /// [`FairShareSolver::touched_links`] afterwards.
    pub fn solve(&mut self) -> bool {
        if !self.dirty {
            return false;
        }
        let _prof = fred_telemetry::prof::scope("solver.solve");
        self.dirty = false;
        self.stats.solves += 1;
        self.epoch += 1;
        let epoch = self.epoch;

        // Component discovery: BFS from the dirty seed links through
        // the incidence structure, aborting into a global refill when
        // the component outgrows the threshold.
        let threshold = (self.refill_fraction * self.live as f64) as usize;
        let comp_links = &mut self.touched_links;
        let comp_flows = &mut self.comp_flows;
        let stack = &mut self.stack;
        comp_links.clear();
        comp_flows.clear();
        stack.clear();
        for &l in &self.seed_links {
            if self.link_mark[l] != epoch {
                self.link_mark[l] = epoch;
                stack.push(l);
            }
        }
        self.seed_links.clear();
        let mut global = false;
        'bfs: while let Some(l) = stack.pop() {
            comp_links.push(l);
            for &fk in &self.link_flows[l] {
                if self.flow_mark[fk as usize] == epoch {
                    continue;
                }
                self.flow_mark[fk as usize] = epoch;
                comp_flows.push(fk);
                if comp_flows.len() > threshold {
                    global = true;
                    break 'bfs;
                }
                let flow = self.flows[fk as usize].as_ref().expect("live incidence");
                for &l2 in flow.links.iter() {
                    if self.link_mark[l2] != epoch {
                        self.link_mark[l2] = epoch;
                        stack.push(l2);
                    }
                }
            }
        }
        if global {
            self.stats.global_solves += 1;
            // Every link, not just populated ones: a link whose last
            // flow was removed must still have its allocation zeroed.
            comp_links.clear();
            comp_links.extend(0..self.capacities.len());
            comp_flows.clear();
            for (k, f) in self.flows.iter().enumerate() {
                if let Some(f) = f {
                    if !f.links.is_empty() {
                        comp_flows.push(k as u32);
                    }
                }
            }
        } else {
            // Ascending order makes the filling arithmetic identical
            // to the from-scratch allocator (rate identity) and the
            // solve deterministic regardless of delta history.
            comp_links.sort_unstable();
            comp_flows.sort_unstable();
        }
        let comp = comp_flows.len() as u64;
        self.stats.refilled_flows += comp;
        if comp > self.stats.max_component {
            self.stats.max_component = comp;
        }
        {
            use std::sync::atomic::Ordering::Relaxed;
            TOTAL_SOLVES.fetch_add(1, Relaxed);
            TOTAL_REFILLED.fetch_add(comp, Relaxed);
            MAX_COMPONENT.fetch_max(comp, Relaxed);
            if global {
                TOTAL_GLOBAL_SOLVES.fetch_add(1, Relaxed);
            }
        }
        if fred_telemetry::prof::enabled() {
            fred_telemetry::prof::record_value("solver.component_flows", comp as f64);
            if global {
                fred_telemetry::prof::record_value("solver.global_fallback", 1.0);
            }
        }
        self.refill();
        true
    }

    /// Encodes the solver's complete mutable state, structurally: slab
    /// holes, free-key order and incidence order feed future
    /// tie-breaking, and pending deltas (`seed_links`, `dirty`) let a
    /// capture between a delta and its solve resume exactly. Scratch is
    /// not encoded: restore zeroes it, and the encoded `epoch` keeps
    /// those zero marks stale.
    pub fn to_value(&self) -> Value {
        let flows = self.flows.iter().map(|slot| match slot {
            None => Value::Null,
            Some(f) => Value::Obj(vec![
                ("links".into(), usizes(&f.links)),
                ("class".into(), v_u64(u64::from(f.class))),
                ("rate".into(), v_f64(f.rate)),
            ]),
        });
        Value::Obj(vec![
            ("capacities".into(), f64s(&self.capacities)),
            ("flows".into(), Value::Arr(flows.collect())),
            ("free".into(), u32s(&self.free)),
            ("live".into(), v_u64(self.live as u64)),
            (
                "link_flows".into(),
                Value::Arr(self.link_flows.iter().map(|ks| u32s(ks)).collect()),
            ),
            ("link_alloc".into(), f64s(&self.link_alloc)),
            ("seed_links".into(), usizes(&self.seed_links)),
            ("dirty".into(), Value::Bool(self.dirty)),
            ("refill_fraction".into(), v_f64(self.refill_fraction)),
            ("epoch".into(), v_u64(self.epoch)),
            ("solves".into(), v_u64(self.stats.solves)),
            ("global_solves".into(), v_u64(self.stats.global_solves)),
            ("refilled_flows".into(), v_u64(self.stats.refilled_flows)),
            ("max_component".into(), v_u64(self.stats.max_component)),
        ])
    }

    /// Rebuilds a solver from [`FairShareSolver::to_value`]. Continuing
    /// the restored solver is bit-identical to continuing the captured
    /// one.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] when a field is missing or ill-typed,
    /// or the state breaks an invariant the next solve relies on
    /// (DESIGN.md §12.1).
    pub fn from_value(v: &Value) -> Result<FairShareSolver, SnapshotError> {
        let ctx = "solver";
        let get = |key: &str| field(v, key, ctx);
        let mut s = FairShareSolver::new(f64s_of(get("capacities")?, ctx)?);
        let n = s.capacities.len();
        let caps_ok = s.capacities.iter().all(|c| c.is_finite() && *c >= 0.0);
        ensure!(caps_ok, "{ctx}: negative or non-finite capacity");
        for slot in arr_of(get("flows")?, ctx)? {
            if *slot == Value::Null {
                s.flows.push(None);
                continue;
            }
            let links = usizes_of(field(slot, "links", ctx)?, ctx)?;
            let class = u64_of(field(slot, "class", ctx)?, ctx)?;
            let rate = f64_of(field(slot, "rate", ctx)?, ctx)?;
            let ok = class <= u64::from(u8::MAX) && rate >= 0.0 && links.iter().all(|&l| l < n);
            ensure!(ok, "{ctx}: flow {} malformed", s.flows.len());
            let (links, class) = (links.into(), class as u8);
            s.flows.push(Some(SolverFlow { links, class, rate }));
        }
        let slab = s.flows.len();
        s.free = u32s_of(get("free")?, ctx)?;
        s.live = usize_of(get("live")?, ctx)?;
        let link_flows = arr_of(get("link_flows")?, ctx)?.iter();
        s.link_flows = link_flows
            .map(|ks| u32s_of(ks, ctx))
            .collect::<Result<_, _>>()?;
        s.link_alloc = f64s_of(get("link_alloc")?, ctx)?;
        s.seed_links = usizes_of(get("seed_links")?, ctx)?;
        s.dirty = bool_of(get("dirty")?, ctx)?;
        s.refill_fraction = f64_of(get("refill_fraction")?, ctx)?;
        s.epoch = u64_of(get("epoch")?, ctx)?;
        s.stats = SolverStats {
            solves: u64_of(get("solves")?, ctx)?,
            global_solves: u64_of(get("global_solves")?, ctx)?,
            refilled_flows: u64_of(get("refilled_flows")?, ctx)?,
            max_component: u64_of(get("max_component")?, ctx)?,
        };
        (s.flow_mark, s.frozen_mark, s.new_rate) = (vec![0; slab], vec![0; slab], vec![0.0; slab]);

        let shaped = s.link_flows.len() == n && s.link_alloc.len() == n;
        ensure!(shaped, "{ctx}: per-link vectors not {n} long");
        let seeds_ok = s.seed_links.iter().all(|&l| l < n);
        let pending = s.dirty != s.seed_links.is_empty();
        ensure!(seeds_ok && pending, "{ctx}: pending seeds malformed");
        ensure!(s.refill_fraction >= 0.0, "{ctx}: bad refill fraction");
        let mut holes: Vec<u32> = (0..slab as u32)
            .filter(|&k| s.flows[k as usize].is_none())
            .collect();
        let mut free = s.free.clone();
        free.sort_unstable();
        holes.sort_unstable();
        let live = slab - holes.len();
        ensure!(
            free == holes && s.live == live,
            "{ctx}: free stack or live count off"
        );
        let mut crossings: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (k, f) in s.flows.iter().enumerate() {
            for &l in f.iter().flat_map(|f| f.links.iter()) {
                crossings[l].push(k as u32);
            }
        }
        for (l, (want, have)) in crossings.iter_mut().zip(&s.link_flows).enumerate() {
            let mut have = have.clone();
            have.sort_unstable();
            want.sort_unstable();
            ensure!(have == *want, "{ctx}: link {l} incidence out of sync");
        }
        Ok(s)
    }

    /// The pending-delta seed links (the network's restore check wakes
    /// zero-rate flows through them).
    pub(crate) fn seed_links(&self) -> &[usize] {
        &self.seed_links
    }

    /// Whether slot `key` holds exactly `flow` — `(links, class, rate
    /// bits)` — or is a hole when `flow` is `None`.
    pub(crate) fn slot_is(&self, key: usize, flow: Option<(&[usize], u8, f64)>) -> bool {
        match (self.flows.get(key), flow) {
            (Some(None), None) => true,
            (Some(Some(f)), Some((links, class, rate))) => {
                *f.links == *links && f.class == class && f.rate.to_bits() == rate.to_bits()
            }
            _ => false,
        }
    }

    /// Whether the solver has exactly these link capacities (bitwise)
    /// and a slab of `slab` slots.
    pub(crate) fn shape_is(&self, capacities: &[f64], slab: usize) -> bool {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&self.capacities) == bits(capacities) && self.flows.len() == slab
    }

    /// Progressive filling restricted to one component:
    /// `touched_links` must hold every link crossed by a flow in
    /// `comp_flows` and no link crossed by any other flow, both sorted
    /// ascending.
    ///
    /// Each bottleneck iteration pops the minimum `(share, link)` from
    /// a lazy heap and freezes the flows on that link's incidence
    /// list, so it costs the frozen flows' route lengths (plus a log
    /// factor) instead of a scan over every used link and unfrozen
    /// flow. The pick and the arithmetic match the ascending scan of
    /// [`crate::fairshare::max_min_rates`] bit for bit: ties go to the
    /// lowest link index, and a link loses the same `share` once per
    /// frozen crossing whatever order the flows freeze in.
    fn refill(&mut self) {
        let epoch = self.epoch;
        for &l in &self.touched_links {
            self.remaining[l] = self.capacities[l];
            debug_assert_eq!(self.counts[l], 0, "scratch counts not clean");
        }
        // Strict classes fill highest (lowest ordinal) first. Only the
        // classes present in the component are visited, in ascending
        // order — the same subsequence the old fixed `Priority::ALL`
        // walk produced (absent classes were skipped there too), so the
        // filling arithmetic is unchanged for single-tenant flow sets.
        self.classes.clear();
        for &fk in &self.comp_flows {
            let f = self.flows[fk as usize].as_ref().expect("live component");
            self.classes.push(f.class);
        }
        self.classes.sort_unstable();
        self.classes.dedup();
        for ci in 0..self.classes.len() {
            let class = self.classes[ci];
            let mut unfrozen = 0usize;
            self.reshared.clear();
            for &fk in &self.comp_flows {
                let f = self.flows[fk as usize].as_ref().expect("live component");
                if f.class != class {
                    continue;
                }
                debug_assert!(!f.links.is_empty(), "node-local flow in a component");
                unfrozen += 1;
                for &l in f.links.iter() {
                    if self.counts[l] == 0 {
                        self.reshared.push(l);
                    }
                    self.counts[l] += 1;
                }
            }
            let mut heap = std::mem::take(&mut self.shares).into_vec();
            heap.clear();
            heap.extend(
                self.reshared
                    .iter()
                    .map(|&l| Reverse((self.share_key(l), l))),
            );
            self.shares = BinaryHeap::from(heap);
            while unfrozen > 0 {
                let Some(Reverse((key, bl))) = self.shares.pop() else {
                    break;
                };
                // Lazy deletion: a drained link or an outdated share.
                if self.counts[bl] == 0 || self.share_key(bl) != key {
                    continue;
                }
                let share = self.share(bl).max(0.0);
                self.freeze_stamp += 1;
                let stamp = self.freeze_stamp;
                self.reshared.clear();
                for &fk in &self.link_flows[bl] {
                    let fk = fk as usize;
                    let f = self.flows[fk].as_ref().expect("live incidence");
                    // A flow crossing `bl` twice is listed twice but
                    // freezes once.
                    if f.class != class || self.frozen_mark[fk] == epoch {
                        continue;
                    }
                    self.frozen_mark[fk] = epoch;
                    unfrozen -= 1;
                    self.new_rate[fk] = share;
                    for &l in f.links.iter() {
                        self.remaining[l] -= share;
                        if self.remaining[l] < EPS {
                            self.remaining[l] = 0.0;
                        }
                        self.counts[l] -= 1;
                        if self.share_mark[l] != stamp {
                            self.share_mark[l] = stamp;
                            self.reshared.push(l);
                        }
                    }
                }
                debug_assert_eq!(self.counts[bl], 0, "bottleneck link kept flows");
                for &l in &self.reshared {
                    if self.counts[l] > 0 {
                        self.shares.push(Reverse((self.share_key(l), l)));
                    }
                }
            }
        }

        // Commit: report changed rates and rebuild the allocation sums
        // of every touched link.
        self.changed.clear();
        for &l in &self.touched_links {
            self.link_alloc[l] = 0.0;
        }
        for &fk in &self.comp_flows {
            let f = self.flows[fk as usize].as_mut().expect("live component");
            let new = self.new_rate[fk as usize];
            if new != f.rate {
                f.rate = new;
                self.changed.push(FlowKey(fk));
            }
            for &l in f.links.iter() {
                self.link_alloc[l] += f.rate;
            }
        }
    }

    /// Fair share of a link among its unfrozen flows (`counts[l] > 0`),
    /// computed exactly as [`crate::fairshare::max_min_rates`] does.
    fn share(&self, l: usize) -> f64 {
        self.remaining[l].max(0.0) / self.counts[l] as f64
    }

    /// Heap key of a link's share. Shares are finite and never below
    /// zero, and once `-0.0` is mapped to `+0.0` their bit patterns
    /// order exactly like the values, so `(key, link)` pops the lowest
    /// share with ties going to the lowest link index — the
    /// `share < best` ascending scan's pick.
    fn share_key(&self, l: usize) -> u64 {
        let share = self.share(l) + 0.0;
        debug_assert!(share >= 0.0 && share.is_finite(), "bad share {share}");
        share.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairshare::{max_min_rates, AllocFlow};

    fn oracle(caps: &[f64], specs: &[(Vec<usize>, Priority)]) -> Vec<f64> {
        let flows: Vec<AllocFlow<'_>> = specs
            .iter()
            .map(|(links, p)| AllocFlow {
                links,
                priority: *p,
            })
            .collect();
        max_min_rates(caps, &flows)
    }

    #[test]
    fn matches_oracle_on_static_set() {
        let caps = vec![10.0, 4.0];
        let specs = vec![
            (vec![0, 1], Priority::Bulk),
            (vec![1], Priority::Bulk),
            (vec![0], Priority::Bulk),
        ];
        let mut s = FairShareSolver::new(caps.clone());
        let keys: Vec<FlowKey> = specs.iter().map(|(l, p)| s.add_flow(l, *p)).collect();
        assert!(s.solve());
        let want = oracle(&caps, &specs);
        for (k, w) in keys.iter().zip(&want) {
            assert_eq!(s.rate(*k), *w);
        }
    }

    #[test]
    fn flow_crossing_the_bottleneck_twice_freezes_once() {
        // Link 0 carries three crossings (a twice, b once): share 4/3.
        // `a` is listed twice on link 0 but must freeze, and debit the
        // links it crosses, exactly once per traversal.
        let caps = vec![4.0, 10.0];
        let specs = vec![
            (vec![0usize, 1, 0], Priority::Bulk),
            (vec![0], Priority::Bulk),
            (vec![1], Priority::Bulk),
        ];
        let mut s = FairShareSolver::new(caps.clone());
        let keys: Vec<FlowKey> = specs.iter().map(|(l, p)| s.add_flow(l, *p)).collect();
        s.solve();
        let want = oracle(&caps, &specs);
        for (k, w) in keys.iter().zip(&want) {
            assert_eq!(s.rate(*k).to_bits(), w.to_bits());
        }
        assert!(
            s.counts.iter().all(|&c| c == 0),
            "scratch counts left dirty"
        );
    }

    #[test]
    fn equal_shares_freeze_in_ascending_link_order() {
        // Both links share 5/3 exactly. Freezing link 0 first leaves
        // `only1` with (5 − 2·(5/3))/1 and `only0` with 5/3; link 1
        // first would swap those two rates, which differ in the last
        // bits. The heap must pick the lower link index, as the scan does.
        let caps = vec![5.0, 5.0];
        let specs = vec![
            (vec![0usize, 1], Priority::Bulk),
            (vec![1], Priority::Bulk),
            (vec![0], Priority::Bulk),
            (vec![0, 1], Priority::Bulk),
        ];
        let mut s = FairShareSolver::new(caps.clone());
        let keys: Vec<FlowKey> = specs.iter().map(|(l, p)| s.add_flow(l, *p)).collect();
        s.solve();
        let got: Vec<u64> = keys.iter().map(|&k| s.rate(k).to_bits()).collect();
        let want: Vec<u64> = oracle(&caps, &specs).iter().map(|r| r.to_bits()).collect();
        assert_eq!(got, want);
        assert_ne!(got[1], got[2], "case must make the tie order visible");
    }

    #[test]
    fn removal_updates_only_the_component() {
        // Two disjoint pairs of contending flows on separate links.
        let caps = vec![100.0, 60.0];
        let mut s = FairShareSolver::new(caps);
        let a0 = s.add_flow(&[0], Priority::Bulk);
        let a1 = s.add_flow(&[0], Priority::Bulk);
        let b0 = s.add_flow(&[1], Priority::Bulk);
        let b1 = s.add_flow(&[1], Priority::Bulk);
        s.solve();
        assert_eq!(s.rate(a0), 50.0);
        assert_eq!(s.rate(b0), 30.0);
        // Removing a0 only disturbs link 0's component.
        s.remove_flow(a0);
        assert!(s.solve());
        assert_eq!(s.rate(a1), 100.0);
        assert_eq!(s.changed_flows(), &[a1]);
        assert!(s.touched_links().contains(&0));
        assert!(!s.touched_links().contains(&1));
        assert_eq!(s.rate(b0), 30.0);
        assert_eq!(s.rate(b1), 30.0);
    }

    #[test]
    fn priority_classes_fill_strictly() {
        let mut s = FairShareSolver::new(vec![100.0]);
        let hi = s.add_flow(&[0], Priority::Mp);
        let lo = s.add_flow(&[0], Priority::Dp);
        s.solve();
        assert_eq!(s.rate(hi), 100.0);
        assert_eq!(s.rate(lo), 0.0);
        s.remove_flow(hi);
        s.solve();
        assert_eq!(s.rate(lo), 100.0);
    }

    #[test]
    fn tenant_composed_classes_fill_strictly_across_tenants() {
        // Tenant 0 Bulk (class 4) still outranks tenant 1 Mp (class
        // 5·1+1 = 6): tenants are the outer key of the composite class.
        let classes = Priority::ALL.len() as u8;
        let mut s = FairShareSolver::new(vec![100.0]);
        let t0_bulk = s.add_flow_class(&[0], Priority::Bulk.rank() as u8);
        let t1_mp = s.add_flow_class(&[0], classes + Priority::Mp.rank() as u8);
        let t1_dp = s.add_flow_class(&[0], classes + Priority::Dp.rank() as u8);
        s.solve();
        assert_eq!(s.rate(t0_bulk), 100.0);
        assert_eq!(s.rate(t1_mp), 0.0);
        assert_eq!(s.rate(t1_dp), 0.0);
        // Within the starved tenant, its own priorities still order.
        s.remove_flow(t0_bulk);
        s.solve();
        assert_eq!(s.rate(t1_mp), 100.0);
        assert_eq!(s.rate(t1_dp), 0.0);
    }

    #[test]
    fn rank_class_delegation_matches_explicit_class() {
        // add_flow(links, p) and add_flow_class(links, p.rank()) are the
        // same operation — the tenant-0 bit-identity contract.
        let specs = [
            (vec![0usize, 1], Priority::Dp),
            (vec![1], Priority::Mp),
            (vec![0], Priority::Bulk),
        ];
        let caps = vec![9.0, 6.0];
        let via_priority = {
            let mut s = FairShareSolver::new(caps.clone());
            let keys: Vec<FlowKey> = specs.iter().map(|(l, p)| s.add_flow(l, *p)).collect();
            s.solve();
            keys.iter().map(|&k| s.rate(k)).collect::<Vec<f64>>()
        };
        let via_class = {
            let mut s = FairShareSolver::new(caps);
            let keys: Vec<FlowKey> = specs
                .iter()
                .map(|(l, p)| s.add_flow_class(l, p.rank() as u8))
                .collect();
            s.solve();
            keys.iter().map(|&k| s.rate(k)).collect::<Vec<f64>>()
        };
        assert_eq!(via_priority, via_class);
    }

    #[test]
    fn empty_route_is_infinite_and_not_dirty() {
        let mut s = FairShareSolver::new(vec![10.0]);
        let k = s.add_flow(&[], Priority::Bulk);
        assert_eq!(s.rate(k), f64::INFINITY);
        assert!(!s.is_dirty());
        s.remove_flow(k);
        assert!(!s.is_dirty());
    }

    #[test]
    fn coalesced_deltas_solve_once() {
        let mut s = FairShareSolver::new(vec![100.0]);
        let a = s.add_flow(&[0], Priority::Bulk);
        let _b = s.add_flow(&[0], Priority::Bulk);
        s.remove_flow(a);
        assert!(s.solve());
        assert_eq!(s.stats().solves, 1);
        assert!(!s.solve(), "clean solver must not re-solve");
    }

    #[test]
    fn global_fallback_matches_incremental() {
        let caps = vec![7.0, 5.0, 3.0];
        let specs = vec![
            (vec![0usize, 1], Priority::Bulk),
            (vec![1, 2], Priority::Bulk),
            (vec![0, 2], Priority::Bulk),
            (vec![2], Priority::Mp),
        ];
        let run = |fraction: f64| {
            let mut s = FairShareSolver::new(caps.clone());
            s.set_refill_fraction(fraction);
            let keys: Vec<FlowKey> = specs.iter().map(|(l, p)| s.add_flow(l, *p)).collect();
            s.solve();
            keys.iter().map(|&k| s.rate(k)).collect::<Vec<f64>>()
        };
        let incremental = run(10.0);
        let forced_global = run(0.0);
        assert_eq!(incremental, forced_global);
        assert_eq!(incremental, oracle(&caps, &specs));
    }

    #[test]
    fn key_reuse_after_removal() {
        let mut s = FairShareSolver::new(vec![10.0, 20.0]);
        let a = s.add_flow(&[0], Priority::Bulk);
        s.solve();
        s.remove_flow(a);
        let b = s.add_flow(&[1], Priority::Bulk);
        assert_eq!(a.0, b.0, "slab reuses freed keys");
        s.solve();
        assert_eq!(s.rate(b), 20.0);
        assert_eq!(s.link_allocated(0), 0.0);
        assert_eq!(s.link_allocated(1), 20.0);
    }

    #[test]
    fn set_capacity_reallocates_component() {
        let mut s = FairShareSolver::new(vec![100.0, 60.0]);
        let a = s.add_flow(&[0], Priority::Bulk);
        let b = s.add_flow(&[1], Priority::Bulk);
        s.solve();
        assert_eq!(s.rate(a), 100.0);
        // Halving link 0 only disturbs link 0's component.
        s.set_capacity(0, 50.0);
        assert!(s.solve());
        assert_eq!(s.rate(a), 50.0);
        assert_eq!(s.rate(b), 60.0);
        assert_eq!(s.changed_flows(), &[a]);
        assert_eq!(s.capacity(0), 50.0);
        // A dead link starves its flows entirely.
        s.set_capacity(0, 0.0);
        s.solve();
        assert_eq!(s.rate(a), 0.0);
        // No-op capacity writes stay clean.
        s.set_capacity(1, 60.0);
        assert!(!s.is_dirty());
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically_mid_dirty() {
        // Build history that exercises slab holes, free-key reuse order
        // and swap_remove incidence order, then capture with deltas
        // still pending and compare continuations bitwise.
        let caps = vec![9.0, 6.0, 4.0];
        let mut s = FairShareSolver::new(caps);
        let a = s.add_flow(&[0, 1], Priority::Bulk);
        let _b = s.add_flow(&[1], Priority::Mp);
        let c = s.add_flow(&[0, 2], Priority::Bulk);
        s.solve();
        s.remove_flow(a);
        s.set_capacity(2, 2.0); // pending deltas at capture time
        let state = s.to_value();
        assert_eq!(state.get("dirty"), Some(&Value::Bool(true)));
        let mut r = FairShareSolver::from_value(&state).unwrap();
        assert_eq!(r.to_value(), state, "snapshot of a restore is stable");

        // Identical continuation on both: solve, new flow (must reuse
        // the same freed key), solve again.
        let continue_run = |s: &mut FairShareSolver| -> Vec<(u32, u64)> {
            s.solve();
            let d = s.add_flow(&[0, 1, 2], Priority::Dp);
            s.solve();
            let mut out = vec![(d.0, s.rate(d).to_bits()), (c.0, s.rate(c).to_bits())];
            out.push((u32::MAX, s.stats().solves));
            for l in 0..3 {
                out.push((l as u32, s.link_allocated(l).to_bits()));
            }
            out
        };
        assert_eq!(continue_run(&mut s), continue_run(&mut r));
    }

    #[test]
    fn link_alloc_tracks_feasibility() {
        let caps = vec![9.0, 6.0];
        let mut s = FairShareSolver::new(caps.clone());
        for i in 0..5 {
            let links: Vec<usize> = if i % 2 == 0 { vec![0, 1] } else { vec![1] };
            s.add_flow(&links, Priority::Bulk);
        }
        s.solve();
        for (l, cap) in caps.iter().enumerate() {
            assert!(s.link_allocated(l) <= cap + 1e-6);
        }
    }
}
