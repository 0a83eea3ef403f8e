//! Property tests for the design-space-exploration sweep contract
//! (DESIGN.md §13): enumeration is deterministic, results are
//! independent of worker-thread count, and a killed sweep resumed from
//! its chunk checkpoint is bit-identical — in the exact rows the
//! `BENCH_dse.json` report carries — to one that never stopped.

use std::sync::atomic::{AtomicU64, Ordering};

use fred::dse::runner::{PointOutcome, RunOpts};
use fred::dse::{bench_metrics, pareto_front, run_sweep, SweepSpec, Workload};

/// The smoke grid shrunk to the cheap rn152 workload so the suite
/// stays fast while still crossing every axis and chunk boundary.
fn spec() -> SweepSpec {
    let mut spec = SweepSpec::smoke();
    spec.jobs = 3;
    spec.workload = vec![Workload::Rn152];
    spec.chunk = 3;
    spec
}

fn ckpt(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "fred_prop_dse_{tag}_{}_{}.bin",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Exact-bits comparison of what the report would contain.
fn report_rows(spec: &SweepSpec, opts: &RunOpts) -> Vec<(String, u64)> {
    let rows = run_sweep(spec, opts).expect("sweep runs").rows;
    let front = pareto_front(&rows);
    bench_metrics(&rows, &front)
        .into_iter()
        .map(|(k, v)| (k, v.to_bits()))
        .collect()
}

#[test]
fn enumeration_is_deterministic_and_covers_the_grid() {
    let spec = SweepSpec::smoke();
    let a = spec.enumerate();
    let b = spec.enumerate();
    assert_eq!(a, b, "double enumeration is identical");
    assert_eq!(a.len(), spec.point_count());
    for (i, p) in a.iter().enumerate() {
        assert_eq!(p.index, i, "points are indexed in enumeration order");
    }
    // Per-point RNG streams are distinct splits of the root seed.
    let mut states: Vec<u64> = a.iter().map(|p| p.rng_state).collect();
    states.sort_unstable();
    states.dedup();
    assert_eq!(states.len(), a.len(), "every point gets its own stream");
}

#[test]
fn thread_count_does_not_change_the_report() {
    let spec = spec();
    let one = report_rows(
        &spec,
        &RunOpts {
            threads: 1,
            ..RunOpts::default()
        },
    );
    let four = report_rows(
        &spec,
        &RunOpts {
            threads: 4,
            ..RunOpts::default()
        },
    );
    assert_eq!(one, four, "FRED_THREADS is purely a wall-clock knob");
}

#[test]
fn killed_and_resumed_sweep_is_bit_identical_to_uninterrupted() {
    let spec = spec();
    let straight = report_rows(&spec, &RunOpts::default());

    let path = ckpt("resume");
    // Kill after the first chunk...
    let partial = run_sweep(
        &spec,
        &RunOpts {
            checkpoint: Some(path.clone()),
            stop_after_chunks: Some(1),
            ..RunOpts::default()
        },
    )
    .expect("partial sweep runs");
    assert_eq!(partial.rows.len(), spec.chunk, "stopped mid-sweep");

    // ...then resume from the checkpoint file.
    let resumed = report_rows(
        &spec,
        &RunOpts {
            checkpoint: Some(path.clone()),
            resume: true,
            ..RunOpts::default()
        },
    );
    let _ = std::fs::remove_file(&path);
    assert_eq!(resumed, straight, "resume is bit-identical");
}

#[test]
fn injected_panic_is_contained_to_one_error_row() {
    let spec = spec();
    let rows = run_sweep(
        &spec,
        &RunOpts {
            threads: 2,
            panic_at: Some(1),
            ..RunOpts::default()
        },
    )
    .expect("sweep survives a crashing point")
    .rows;
    assert_eq!(rows.len(), spec.point_count());
    for row in &rows {
        let is_err = matches!(row.outcome, PointOutcome::Error(_));
        assert_eq!(is_err, row.point.index == 1, "exactly point 1 errored");
    }
}
