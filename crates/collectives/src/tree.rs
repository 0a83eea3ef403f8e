//! Binomial-tree multicast and reduce (the endpoint MPI-style patterns
//! of Fig 4).
//!
//! The weight-streaming broadcast of Fig 4(A) follows the MPI
//! one-to-many pattern: in each step every holder forwards the payload
//! to one new endpoint, doubling the holder set — ⌈log₂ n⌉ phases. The
//! reverse direction (gradient summing, Fig 4 caption) is the mirrored
//! reduce tree.

use crate::plan::{CommPlan, Phase, RouteProvider, Transfer};

/// Binomial-tree multicast of `bytes` from `root` to every member of
/// `group` (root may or may not be listed in `group`).
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn multicast(
    root: usize,
    group: &[usize],
    bytes: f64,
    routes: &impl RouteProvider,
) -> CommPlan {
    assert!(!group.is_empty(), "multicast group must not be empty");
    let mut plan = CommPlan::new("tree-multicast");
    let mut holders = vec![root];
    let mut pending: Vec<usize> = group.iter().copied().filter(|&g| g != root).collect();
    while !pending.is_empty() {
        let mut phase = Phase::default();
        let mut new_holders = Vec::new();
        for &h in &holders {
            if let Some(next) = pending.first().copied() {
                pending.remove(0);
                phase.transfers.push(Transfer {
                    src: h,
                    dst: next,
                    bytes,
                    route: routes.route(h, next),
                });
                new_holders.push(next);
            }
        }
        holders.extend(new_holders);
        plan.phases.push(phase);
    }
    plan
}

/// Binomial-tree reduce of `bytes` from every member of `group` onto
/// `root`: the mirror of [`multicast`] — in each step half the
/// remaining holders send their partial sums to a peer.
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn reduce(root: usize, group: &[usize], bytes: f64, routes: &impl RouteProvider) -> CommPlan {
    assert!(!group.is_empty(), "reduce group must not be empty");
    let mut plan = CommPlan::new("tree-reduce");
    let mut active: Vec<usize> = group.to_vec();
    if !active.contains(&root) {
        active.push(root);
    }
    // Keep the root at the front so it survives every pairing round.
    active.retain(|&x| x != root);
    active.insert(0, root);
    while active.len() > 1 {
        let mut phase = Phase::default();
        let mut survivors = Vec::new();
        let mut i = 0;
        while i < active.len() {
            if i + 1 < active.len() {
                let (dst, src) = (active[i], active[i + 1]);
                phase.transfers.push(Transfer {
                    src,
                    dst,
                    bytes,
                    route: routes.route(src, dst),
                });
                survivors.push(dst);
                i += 2;
            } else {
                survivors.push(active[i]);
                i += 1;
            }
        }
        active = survivors;
        plan.phases.push(phase);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_sim::topology::Route;

    fn no_routes() -> impl RouteProvider {
        |_s: usize, _d: usize| -> Route { vec![].into() }
    }

    #[test]
    fn multicast_doubles_holders_each_phase() {
        let group: Vec<usize> = (0..8).collect();
        let plan = multicast(0, &group, 100.0, &no_routes());
        // 7 receivers with doubling: 1,2,4 -> 3 phases.
        assert_eq!(plan.phase_count(), 3);
        assert_eq!(plan.phases[0].transfers.len(), 1);
        assert_eq!(plan.phases[1].transfers.len(), 2);
        assert_eq!(plan.phases[2].transfers.len(), 4);
        // Every member receives exactly once.
        let mut receivers: Vec<usize> = plan
            .phases
            .iter()
            .flat_map(|p| p.transfers.iter().map(|t| t.dst))
            .collect();
        receivers.sort_unstable();
        assert_eq!(receivers, (1..8).collect::<Vec<_>>());
    }

    #[test]
    fn multicast_root_outside_group() {
        let plan = multicast(99, &[0, 1, 2], 10.0, &no_routes());
        let total: usize = plan.phases.iter().map(|p| p.transfers.len()).sum();
        assert_eq!(total, 3);
        assert_eq!(plan.phases[0].transfers[0].src, 99);
    }

    #[test]
    fn reduce_halves_active_set_each_phase() {
        let group: Vec<usize> = (0..8).collect();
        let plan = reduce(0, &group, 100.0, &no_routes());
        assert_eq!(plan.phase_count(), 3);
        assert_eq!(plan.phases[0].transfers.len(), 4);
        assert_eq!(plan.phases[1].transfers.len(), 2);
        assert_eq!(plan.phases[2].transfers.len(), 1);
        // The final transfer lands on the root.
        assert_eq!(plan.phases[2].transfers[0].dst, 0);
        // Every non-root member sends exactly once.
        let mut senders: Vec<usize> = plan
            .phases
            .iter()
            .flat_map(|p| p.transfers.iter().map(|t| t.src))
            .collect();
        senders.sort_unstable();
        assert_eq!(senders, (1..8).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_with_odd_group() {
        let plan = reduce(2, &[0, 1, 2, 3, 4], 10.0, &no_routes());
        let senders: usize = plan.phases.iter().map(|p| p.transfers.len()).sum();
        assert_eq!(senders, 4);
        assert_eq!(plan.phases.last().unwrap().transfers[0].dst, 2);
    }

    #[test]
    fn single_member_plans_are_empty() {
        assert_eq!(multicast(0, &[0], 10.0, &no_routes()).phase_count(), 0);
        assert_eq!(reduce(0, &[0], 10.0, &no_routes()).phase_count(), 0);
    }
}
