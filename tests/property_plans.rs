//! Property-based tests on collective plans and backends: traffic
//! conservation laws that hold for any group and payload.
//!
//! Randomised via the deterministic `fred::sim::rng::Rng64` generator
//! (see `property_tests.rs` for the rationale).

use std::collections::BTreeSet;

use fred::collectives::cost;
use fred::collectives::ring::{self, Direction};
use fred::core::params::FabricConfig;
use fred::sim::rng::Rng64;
use fred::sim::topology::Route;
use fred::workloads::backend::FabricBackend;

fn no_routes() -> impl fred::collectives::plan::RouteProvider {
    |_s: usize, _d: usize| -> Route { vec![].into() }
}

/// A random strictly increasing group of NPU indices in `[0, 20)`.
fn arb_group(rng: &mut Rng64, min_len: usize) -> Vec<usize> {
    let mut set = BTreeSet::new();
    let target = rng.gen_range_inclusive(min_len, 19);
    while set.len() < target {
        set.insert(rng.gen_range(0, 20));
    }
    set.into_iter().collect()
}

/// Ring All-Reduce moves exactly n · 2(n−1)/n · D bytes in total, in
/// either chunking mode, and the per-endpoint share is uniform.
#[test]
fn ring_allreduce_traffic_law() {
    let mut rng = Rng64::seed_from_u64(0x9_1A1);
    for case in 0..48 {
        let n = rng.gen_range_inclusive(2, 15);
        let d = 1.0 + rng.gen_f64() * 1e9;
        let dir = if rng.gen_bool(0.5) {
            Direction::Bidirectional
        } else {
            Direction::Unidirectional
        };
        let order: Vec<usize> = (0..n).collect();
        let plan = ring::all_reduce(&order, d, dir, &no_routes());
        let expected = n as f64 * cost::endpoint_all_reduce_traffic(n, d);
        assert!(
            (plan.total_bytes() - expected).abs() < 1e-6 * expected,
            "case {case}: total {} != {expected}",
            plan.total_bytes()
        );
        for i in 0..n {
            let per = plan.bytes_sent_by(i);
            assert!(
                (per - expected / n as f64).abs() < 1e-6 * expected,
                "case {case}: endpoint {i} sent {per}, expected {}",
                expected / n as f64
            );
        }
    }
}

/// Reduce-Scatter + All-Gather traffic equals All-Reduce traffic.
#[test]
fn rs_plus_ag_equals_ar() {
    let mut rng = Rng64::seed_from_u64(0x9_1A2);
    for case in 0..48 {
        let n = rng.gen_range_inclusive(2, 11);
        let d = 1.0 + rng.gen_f64() * 1e9;
        let order: Vec<usize> = (0..n).collect();
        let routes = no_routes();
        let rs = ring::reduce_scatter(&order, d, Direction::Unidirectional, &routes);
        let ag = ring::all_gather(&order, d, Direction::Unidirectional, &routes);
        let ar = ring::all_reduce(&order, d, Direction::Unidirectional, &routes);
        let total = ar.total_bytes();
        assert!(
            (rs.total_bytes() + ag.total_bytes() - total).abs() < 1e-9 * total.max(1.0),
            "case {case}: RS+AG != AR for n={n}"
        );
    }
}

/// In-network All-Reduce on any FRED group: every NPU sends exactly D
/// and the spine carries D per touched L1 — half (asymptotically) of
/// the endpoint traffic.
#[test]
fn in_network_traffic_halves_endpoint() {
    let mut rng = Rng64::seed_from_u64(0x9_1A3);
    for case in 0..48 {
        let group = arb_group(&mut rng, 2);
        let d = 1e3 + rng.gen_f64() * 1e9;
        let fred_d = FabricBackend::new(FabricConfig::FredD);
        let plan = fred_d.all_reduce(&group, d);
        let n = group.len() as f64;
        let npu_bytes = 2.0 * n * d;
        let slack = 1e-9 * npu_bytes;
        assert!(
            plan.total_bytes() >= npu_bytes - slack,
            "case {case}: below endpoint lower bound"
        );
        assert!(
            plan.total_bytes() <= npu_bytes + 2.0 * 5.0 * d + slack,
            "case {case}: above spine upper bound"
        );
    }
}

/// All backends produce route-valid plans for arbitrary groups.
#[test]
fn plans_always_route_valid() {
    let mut rng = Rng64::seed_from_u64(0x9_1A4);
    for case in 0..48 {
        let group = arb_group(&mut rng, 1);
        let d = 1e3 + rng.gen_f64() * 1e8;
        for config in FabricConfig::ALL {
            let b = FabricBackend::new(config);
            let topo = b.topology();
            for plan in [b.all_reduce(&group, d), b.all_to_all(&group, d)] {
                for phase in &plan.phases {
                    for t in &phase.transfers {
                        assert!(
                            topo.validate_route(&t.route).is_ok(),
                            "case {case}: {}: invalid route in {}",
                            config.name(),
                            plan.label
                        );
                    }
                }
            }
        }
    }
}
