//! Heap-allocation budget of the simulated data path.
//!
//! A route is computed once per fabric and shared from the plan to the
//! solver, and the executor borrows the schedule, so running an
//! iteration allocates per event batch, never per transfer. A counting
//! global allocator checks that on two Fig 10 workloads: one
//! `run_iteration` must make fewer heap allocations than a quarter of
//! the schedule's transfer count. The bound holds in debug builds too,
//! so debug-only checks on the per-flow path must not allocate either.
//!
//! This binary holds a single test: the counter is per thread, but a
//! lone test keeps the measured thread free of any other work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fred::core::params::FabricConfig;
use fred::core::placement::{Placement, PlacementPolicy};
use fred::workloads::backend::FabricBackend;
use fred::workloads::model::DnnModel;
use fred::workloads::schedule::{build_schedule, Schedule, ScheduleParams, TaskBody};
use fred::workloads::trainer::run_iteration;

/// The system allocator, counting allocation calls (including
/// reallocations) made by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Point-to-point transfers over every phase of every comm task.
fn transfer_count(schedule: &Schedule) -> usize {
    let plans = schedule.tasks.iter().filter_map(|t| match &t.body {
        TaskBody::Comm { plan, .. } => Some(plan),
        TaskBody::Compute { .. } => None,
    });
    plans
        .flat_map(|p| &p.phases)
        .map(|ph| ph.transfers.len())
        .sum()
}

#[test]
fn run_iteration_allocates_per_batch_not_per_transfer() {
    let cases = [
        (DnnModel::gpt3(), FabricConfig::FredD),
        (DnnModel::transformer_1t(), FabricConfig::BaselineMesh),
    ];
    for (model, config) in cases {
        let backend = FabricBackend::new(config);
        let strategy = model.default_strategy;
        let policy = if config.is_fred() {
            PlacementPolicy::MpPpDp
        } else {
            PlacementPolicy::MpDpPp
        };
        let placement = Placement::new(strategy, policy);
        let params = ScheduleParams::paper_default(&model, strategy);
        let schedule = build_schedule(&model, strategy, &placement, &backend, params);
        let transfers = transfer_count(&schedule);

        let before = allocations();
        let timing = run_iteration(&schedule, &backend).expect("iteration completes");
        let made = allocations() - before;

        assert!(timing.makespan.as_secs() > 0.0);
        let per_transfer = made as f64 / transfers as f64;
        println!(
            "{}/{}: {made} allocations for {transfers} transfers ({per_transfer:.3} each)",
            model.name,
            config.name()
        );
        assert!(
            per_transfer < 0.25,
            "{}/{}: {made} allocations for {transfers} transfers ({per_transfer:.3} each)",
            model.name,
            config.name()
        );
    }
}
