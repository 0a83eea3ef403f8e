//! Differential property test for the incremental fair-share solver.
//!
//! The rate-identity contract (DESIGN.md §7): after any sequence of
//! add/remove/capacity deltas, the persistent `FairShareSolver` must
//! produce bitwise the same per-flow rates as a from-scratch
//! `max_min_rates` run over the current live set, regardless of how the
//! deltas were batched and regardless of the global-refill threshold.
//! Every allocation must also respect the solo-rate upper bound (no
//! flow can beat its bottleneck-link capacity).

use fred::sim::fairshare::{max_min_rates, solo_rate, AllocFlow};
use fred::sim::flow::Priority;
use fred::sim::rng::Rng64;
use fred::sim::solver::{FairShareSolver, FlowKey};

const REL_TOL: f64 = 1e-9;

/// Fill classes per tenant (the composite class is
/// `tenant × CLASSES + priority rank`).
const CLASSES: u8 = Priority::ALL.len() as u8;

/// One live flow as the harness tracks it (mirrors the solver's view).
#[derive(Debug, Clone)]
struct LiveFlow {
    key: FlowKey,
    links: Vec<usize>,
    /// Composite fill class; below [`CLASSES`] it is a priority rank.
    class: u8,
}

impl LiveFlow {
    /// The priority the oracle sees, if the class is a tenant-0 one.
    fn priority(&self) -> Option<Priority> {
        Priority::ALL.get(self.class as usize).copied()
    }
}

/// A random route of 1–4 hops, occasionally node-local (empty). With
/// `repeats`, a route may cross the same link more than once.
fn random_links(rng: &mut Rng64, n_links: usize, repeats: bool) -> Vec<usize> {
    if rng.gen_range(0, 16) == 0 {
        return Vec::new();
    }
    let hops = rng.gen_range_inclusive(1, 4);
    let mut links = Vec::with_capacity(hops);
    for _ in 0..hops {
        let l = rng.gen_range(0, n_links);
        if repeats || !links.contains(&l) {
            links.push(l);
        }
    }
    links
}

fn random_priority(rng: &mut Rng64) -> Priority {
    Priority::ALL[rng.gen_range(0, Priority::ALL.len())]
}

/// Compares the solver's rates bitwise against a from-scratch oracle
/// run over the live set (oracle flows ordered by ascending solver key,
/// matching the solver's own fill order). Every live class must be a
/// priority rank.
fn assert_rate_identity(solver: &FairShareSolver, live: &[LiveFlow], caps: &[f64], context: &str) {
    let mut sorted: Vec<&LiveFlow> = live.iter().collect();
    sorted.sort_by_key(|f| f.key.0);
    let alloc: Vec<AllocFlow<'_>> = sorted
        .iter()
        .map(|f| AllocFlow {
            links: &f.links,
            priority: f.priority().expect("oracle needs priority-rank classes"),
        })
        .collect();
    let want = max_min_rates(caps, &alloc);
    for (f, w) in sorted.iter().zip(&want) {
        let got = solver.rate(f.key);
        assert_eq!(
            got.to_bits(),
            w.to_bits(),
            "{context}: flow {:?} (links {:?}, class {}): incremental {got} vs oracle {w}",
            f.key,
            f.links,
            f.class,
        );
        // Solo-rate upper bound: no allocation beats the flow's
        // bottleneck capacity.
        assert!(
            got <= solo_rate(caps, &f.links) + REL_TOL * solo_rate(caps, &f.links).min(1e30),
            "{context}: flow {:?} rate {got} exceeds solo rate {}",
            f.key,
            solo_rate(caps, &f.links),
        );
    }
}

/// Drives `steps` random churn operations through the solver with the
/// given refill threshold, checking rate identity after every solve.
fn churn_case(seed: u64, n_links: usize, steps: usize, refill_fraction: Option<f64>) {
    let mut rng = Rng64::seed_from_u64(seed);
    let caps: Vec<f64> = (0..n_links)
        .map(|_| 1e9 * (1.0 + rng.gen_f64() * 999.0))
        .collect();
    let mut solver = FairShareSolver::new(caps.clone());
    if let Some(f) = refill_fraction {
        solver.set_refill_fraction(f);
    }
    let mut live: Vec<LiveFlow> = Vec::new();

    for step in 0..steps {
        // 1–4 deltas per solve: exercises coalescing of adds and
        // removes into one dirty set.
        let deltas = rng.gen_range_inclusive(1, 4);
        for _ in 0..deltas {
            let adding = live.is_empty() || rng.gen_range(0, 5) < 3;
            if adding {
                let links = random_links(&mut rng, n_links, false);
                let priority = random_priority(&mut rng);
                let key = solver.add_flow(&links, priority);
                live.push(LiveFlow {
                    key,
                    links,
                    class: priority.rank() as u8,
                });
            } else {
                let victim = rng.gen_range(0, live.len());
                let f = live.swap_remove(victim);
                solver.remove_flow(f.key);
            }
        }
        solver.solve();
        let ctx = format!(
            "seed {seed} fraction {refill_fraction:?} step {step} ({} live)",
            live.len()
        );
        assert_rate_identity(&solver, &live, &caps, &ctx);
    }
}

#[test]
fn incremental_matches_oracle_under_churn_default_threshold() {
    for seed in [1u64, 2, 3, 0xFEED] {
        churn_case(seed, 48, 120, None);
    }
}

#[test]
fn incremental_matches_oracle_with_global_fallback_forced() {
    // fraction 0.0: every solve takes the global path.
    for seed in [7u64, 8] {
        churn_case(seed, 48, 80, Some(0.0));
    }
}

#[test]
fn incremental_matches_oracle_with_fallback_disabled() {
    // A huge fraction never falls back: pure component-local refills.
    for seed in [11u64, 12] {
        churn_case(seed, 48, 80, Some(1e9));
    }
}

#[test]
fn incremental_matches_oracle_on_sparse_disjoint_traffic() {
    // Few flows over many links: components stay tiny, maximising the
    // frozen-rate reuse the incremental path is supposed to get right.
    for seed in [21u64, 22] {
        churn_case(seed, 256, 100, None);
    }
}

/// Tie-heavy churn: capacities from a small integer set (so equal
/// shares on different links are common), routes that may cross a
/// link twice, links dying (`set_capacity(l, 0.0)`) and reviving, and
/// — with `tenants > 1` — tenant-composed classes. Solvers at the
/// default, never-global and always-global thresholds see the same
/// deltas. After every solve all three must agree bitwise, and whenever
/// every live class is a priority rank they must also match the oracle.
/// Returns how many solves the oracle checked.
fn tie_churn_case(seed: u64, n_links: usize, steps: usize, tenants: u8) -> usize {
    const CAPS: [f64; 4] = [1.0, 2.0, 3.0, 6.0];
    let mut rng = Rng64::seed_from_u64(seed);
    let mut caps: Vec<f64> = (0..n_links)
        .map(|_| CAPS[rng.gen_range(0, CAPS.len())])
        .collect();
    let mut solvers: Vec<FairShareSolver> = [None, Some(1e9), Some(0.0)]
        .into_iter()
        .map(|fraction| {
            let mut s = FairShareSolver::new(caps.clone());
            if let Some(f) = fraction {
                s.set_refill_fraction(f);
            }
            s
        })
        .collect();
    let mut live: Vec<LiveFlow> = Vec::new();
    let mut oracle_checks = 0;

    for step in 0..steps {
        for _ in 0..rng.gen_range_inclusive(1, 4) {
            let roll = rng.gen_range(0, 10);
            if roll == 0 {
                // Kill a link, or revive it at a capacity from the set.
                let l = rng.gen_range(0, n_links);
                caps[l] = if caps[l] == 0.0 {
                    CAPS[rng.gen_range(0, CAPS.len())]
                } else {
                    0.0
                };
                for s in &mut solvers {
                    s.set_capacity(l, caps[l]);
                }
            } else if live.is_empty() || roll < 7 {
                let links = random_links(&mut rng, n_links, true);
                let tenant = rng.gen_range(0, tenants as usize) as u8;
                let class = tenant * CLASSES + random_priority(&mut rng).rank() as u8;
                let keys: Vec<FlowKey> = solvers
                    .iter_mut()
                    .map(|s| s.add_flow_class(&links, class))
                    .collect();
                assert!(
                    keys.iter().all(|&k| k == keys[0]),
                    "key allocation diverged"
                );
                live.push(LiveFlow {
                    key: keys[0],
                    links,
                    class,
                });
            } else {
                let f = live.swap_remove(rng.gen_range(0, live.len()));
                for s in &mut solvers {
                    s.remove_flow(f.key);
                }
            }
        }
        for s in &mut solvers {
            s.solve();
        }
        let ctx = format!(
            "seed {seed} tenants {tenants} step {step} ({} live)",
            live.len()
        );
        let (reference, others) = solvers.split_last().expect("three solvers");
        for f in &live {
            let want = reference.rate(f.key).to_bits();
            for s in others {
                assert_eq!(
                    s.rate(f.key).to_bits(),
                    want,
                    "{ctx}: flow {:?} (links {:?}, class {}) differs from the global refill",
                    f.key,
                    f.links,
                    f.class,
                );
            }
        }
        if live.iter().all(|f| f.priority().is_some()) {
            oracle_checks += 1;
            for s in &solvers {
                assert_rate_identity(s, &live, &caps, &ctx);
            }
        }
    }
    oracle_checks
}

#[test]
fn incremental_matches_oracle_under_tie_heavy_churn() {
    for seed in [31u64, 32, 33, 34, 35, 36] {
        assert_eq!(tie_churn_case(seed, 6, 150, 1), 150, "seed {seed}");
    }
}

#[test]
fn incremental_matches_global_refill_under_tenant_classes() {
    for seed in [41u64, 42, 43] {
        tie_churn_case(seed, 6, 150, 3);
    }
}

#[test]
fn changed_flows_reports_are_sound() {
    // Rates of flows NOT reported as changed must be bitwise stable
    // across a solve — the delta-aware telemetry depends on it.
    let mut rng = Rng64::seed_from_u64(99);
    let n_links = 32;
    let caps: Vec<f64> = (0..n_links).map(|_| 1e9 * (1.0 + rng.gen_f64())).collect();
    let mut solver = FairShareSolver::new(caps.clone());
    let mut live: Vec<LiveFlow> = Vec::new();
    for _ in 0..40 {
        let links = random_links(&mut rng, n_links, false);
        let priority = random_priority(&mut rng);
        let key = solver.add_flow(&links, priority);
        live.push(LiveFlow {
            key,
            links,
            class: priority.rank() as u8,
        });
    }
    solver.solve();
    for round in 0..30 {
        let before: Vec<(FlowKey, f64)> =
            live.iter().map(|f| (f.key, solver.rate(f.key))).collect();
        let victim = rng.gen_range(0, live.len());
        let f = live.swap_remove(victim);
        solver.remove_flow(f.key);
        solver.solve();
        let changed: Vec<FlowKey> = solver.changed_flows().to_vec();
        for (key, old_rate) in before {
            if key == f.key || changed.contains(&key) {
                continue;
            }
            assert_eq!(
                solver.rate(key),
                old_rate,
                "round {round}: unchanged flow {key:?} moved without being reported"
            );
        }
        assert_rate_identity(&solver, &live, &caps, &format!("round {round}"));
    }
}

// ---------------------------------------------------------------------------
// Drain-heap compaction (DESIGN.md §7).
//
// Compaction drops provably-stale lazy-deletion entries from the drain
// heap. A binary heap's pop order is a pure function of its entry set,
// so the threshold at which compaction runs must never change a
// result: completions, evictions, rejections, makespan, the RateEpoch
// stream and per-link carried bytes are all compared bitwise, through
// mid-run link faults and multi-tenant preemption.
// ---------------------------------------------------------------------------

use std::rc::Rc;

use fred::mesh::topology::MeshFabric;
use fred::sim::flow::FlowSpec;
use fred::sim::netsim::FlowNetwork;
use fred::sim::topology::LinkId;
use fred::telemetry::event::TraceEvent;
use fred::telemetry::sink::RingRecorder;

/// Everything one run produces, in bitwise-comparable form.
#[derive(Debug, PartialEq)]
struct Transcript {
    /// `(completed_at bits, tag)` per completion, sorted.
    completions: Vec<(u64, u64)>,
    /// Per eviction op: `(tag, remaining-bytes bits)` sorted by tag —
    /// the settled-bytes check (settlement happens at eviction).
    evictions: Vec<Vec<(u64, u64)>>,
    /// Which injections were rejected (routes over failed links).
    rejected: Vec<u64>,
    /// Final clock, bitwise.
    makespan_bits: u64,
    /// RateEpoch stream: `(t bits, changed, active)` in emission order.
    epochs: Vec<(u64, u32, u32)>,
    /// Per-link carried bytes at the end of the run, bitwise.
    link_bytes: Vec<u64>,
}

/// Drives a deterministic mixed workload — random flows over an 8×8
/// mesh, a mid-run link failure and degradation, and a
/// tenant-targeted preemption — through `net`, returning the
/// comparable transcript.
fn drive(mesh: &MeshFabric, net: &mut FlowNetwork, rec: &RingRecorder, seed: u64) -> Transcript {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut seq = 0u64;
    let mut completions: Vec<(u64, u64)> = Vec::new();
    let mut evictions = Vec::new();
    let mut rejected = Vec::new();
    let n_links = mesh.topology().link_count();

    let mut draw = |rng: &mut Rng64| -> FlowSpec {
        let src = rng.gen_range(0, 64);
        let dst = loop {
            let d = rng.gen_range(0, 64);
            if d != src {
                break d;
            }
        };
        let tenant = rng.gen_range(0, 3) as u8;
        let pri = Priority::ALL[rng.gen_range(0, Priority::ALL.len())];
        let tag = ((tenant as u64) << 56) | seq;
        seq += 1;
        FlowSpec::new(mesh.xy_route(src, dst), 1e5 + rng.gen_f64() * 4e6)
            .with_priority(pri)
            .with_tenant(tenant)
            .with_tag(tag)
    };

    for round in 0..12 {
        for _ in 0..rng.gen_range_inclusive(2, 6) {
            let spec = draw(&mut rng);
            let tag = spec.tag;
            if net.inject(spec).is_err() {
                rejected.push(tag);
            }
        }
        if round == 4 {
            let link = LinkId(rng.gen_range(0, n_links));
            let mut ev: Vec<(u64, u64)> = net
                .fail_link(link)
                .iter()
                .map(|e| (e.tag, e.remaining_bytes.to_bits()))
                .collect();
            ev.sort_unstable();
            evictions.push(ev);
        }
        if round == 6 {
            let link = LinkId(rng.gen_range(0, n_links));
            net.degrade_link(link, 0.25 + 0.5 * rng.gen_f64());
        }
        // Tenant preemption mid-run: evict every tenant-1 and tenant-2
        // flow, leaving most drain-heap entries dead at once.
        if round == 8 {
            let mut ev: Vec<(u64, u64)> = net
                .evict_flows_matching(|tag| tag >> 56 != 0)
                .iter()
                .map(|e| (e.tag, e.remaining_bytes.to_bits()))
                .collect();
            ev.sort_unstable();
            evictions.push(ev);
        }
        // Let some events play out before the next burst.
        for _ in 0..rng.gen_range_inclusive(1, 3) {
            let Some(t) = net.next_event() else { break };
            net.advance_to(t);
            completions.extend(
                net.drain_completed()
                    .iter()
                    .map(|c| (c.completed_at.as_secs().to_bits(), c.tag)),
            );
        }
    }
    completions.extend(
        net.run_to_completion()
            .iter()
            .map(|c| (c.completed_at.as_secs().to_bits(), c.tag)),
    );
    completions.sort_unstable();

    let epochs = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RateEpoch {
                t,
                active_flows,
                changed,
            } => Some((t.to_bits(), *changed, *active_flows)),
            _ => None,
        })
        .collect();
    Transcript {
        completions,
        evictions,
        rejected,
        makespan_bits: net.now().as_secs().to_bits(),
        epochs,
        link_bytes: (0..n_links)
            .map(|l| net.link_carried_bytes(LinkId(l)).to_bits())
            .collect(),
    }
}

#[test]
fn heap_compaction_threshold_is_result_invariant() {
    // Aggressive compaction (threshold 1) vs disabled (huge threshold):
    // bitwise-identical transcripts, and the aggressive run must
    // actually compact.
    let mesh = MeshFabric::new(8, 8, 750e9, 128e9, 20e-9);
    for seed in [0xC0DEC0u64, 0xC0DEC1] {
        let run = |min: usize| -> (Transcript, u64) {
            let rec = Rc::new(RingRecorder::new());
            let mut net = FlowNetwork::with_sink(mesh.clone_topology(), rec.clone());
            net.set_heap_compaction_min(min);
            let t = drive(&mesh, &mut net, &rec, seed);
            (t, net.heap_compactions())
        };
        let (aggressive, compactions) = run(1);
        let (disabled, none) = run(usize::MAX);
        assert_eq!(aggressive, disabled, "seed {seed:#x}");
        assert_eq!(none, 0, "usize::MAX disables compaction");
        assert!(
            compactions > 0,
            "seed {seed:#x}: threshold 1 never compacted"
        );
    }

    // And aggressive compaction must fire under heavy eviction churn:
    // 3/4 of the heap goes dead in one preemption, tripping the
    // dead-majority trigger at threshold 1.
    let mut net = FlowNetwork::new(mesh.clone_topology());
    net.set_heap_compaction_min(1);
    for i in 0..64u64 {
        let x = (i % 4) as usize;
        let y = ((i / 4) % 4) as usize;
        let route = mesh.xy_route(mesh.npu_at(x, y), mesh.npu_at((x + 1) % 4, y));
        net.inject(FlowSpec::new(route, 1e6).with_tag(i))
            .expect("mesh routes are valid");
    }
    // Force a solver flush so every flow holds a live heap entry
    // before the preemption marks 3/4 of them dead.
    net.next_event();
    let evicted = net.evict_flows_matching(|tag| tag % 4 != 0);
    assert_eq!(evicted.len(), 48);
    net.run_to_completion();
    assert!(
        net.heap_compactions() > 0,
        "threshold 1 with 75% dead heap entries must trigger compactions"
    );
}
