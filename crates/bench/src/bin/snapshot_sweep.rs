//! Snapshot/fork study: one mid-run capture, N divergent futures.
//!
//! The point of a snapshotable simulator is not just crash recovery —
//! it is *counterfactual exploration*: run a shared cluster to time T
//! once, then fork the frozen state into several futures that differ
//! only in what goes wrong after T. Because restore is bit-identical,
//! every divergence between forks is attributable to the injected
//! fault plan, never to replay noise.
//!
//! The scenario is a Fred-D wafer under a seeded Poisson job stream.
//! The sweep:
//!
//! 1. runs the cluster uninterrupted to completion (the baseline),
//! 2. re-runs it to 40% of the baseline makespan and captures a
//!    [`SimState`] snapshot (timing the capture and both encodings),
//! 3. fork 0 — restores with the *original* job list and hard-asserts
//!    the completed run is bit-identical to the baseline (makespan and
//!    every job's first-start/completion/preemption count),
//! 4. forks 1..N — restore with a post-capture fault plan appended to
//!    one of the jobs running at the capture point (a different victim
//!    job, link set and fire time per fork) and report how each
//!    future's makespan diverges.
//!
//! Report keys (`--report BENCH_snapshot.json`):
//! `snapshot/baseline_makespan_secs`, `snapshot/capture_at_secs`,
//! `snapshot/bin_bytes`, `snapshot/json_bytes`, `snapshot/capture_ms`,
//! `snapshot/restore_ms`, `snapshot/fork0_identical`,
//! `snapshot/fork<k>/makespan_secs`, `snapshot/fork<k>/faults`.

use std::time::Instant;

use fred_bench::table::{fmt_secs, Table};
use fred_bench::traceopt::TraceOpts;
use fred_cluster::arrivals::{paper_mix, poisson_arrivals, DEFAULT_CLASS_MIX};
use fred_cluster::{Cluster, ClusterConfig, ClusterReport, JobSpec};
use fred_core::params::FabricConfig;
use fred_core::snapshot::SimState;
use fred_sim::fault::FaultPlan;
use fred_sim::time::Time;
use fred_workloads::backend::FabricBackend;

/// Arrival-trace seed (fixed: the whole study is reproducible).
const SEED: u64 = 0x54AF_0007;

/// Jobs offered to the cluster.
const JOBS: usize = 10;

/// Arrival rate in jobs per simulated second — dense enough that the
/// capture point lands mid-queue with several jobs running.
const RATE: f64 = 10.0;

/// Divergent futures forked from the capture (fork 0 is the
/// no-new-faults identity check).
const FORKS: usize = 4;

/// Fraction of fabric links each divergent fork fails — high enough
/// that the victim's carve-out almost surely loses links it routes
/// over (the plan generator keeps the fabric survivable regardless).
const FAULT_FRACTION: f64 = 0.2;

fn scenario() -> (ClusterConfig, Vec<JobSpec>) {
    let jobs = poisson_arrivals(&paper_mix(), RATE, JOBS, DEFAULT_CLASS_MIX, SEED);
    (ClusterConfig::new(FabricConfig::FredD), jobs)
}

fn run_all(cfg: &ClusterConfig, jobs: &[JobSpec], opts: &TraceOpts) -> ClusterReport {
    let mut c = Cluster::new(cfg.clone(), jobs.to_vec(), opts.sink()).expect("scenario jobs admit");
    c.run_to_completion().expect("cluster run completes");
    c.into_report()
}

fn assert_identical(a: &ClusterReport, b: &ClusterReport) {
    assert_eq!(
        a.makespan.as_secs().to_bits(),
        b.makespan.as_secs().to_bits(),
        "FORK VIOLATION: no-fault fork diverged from the uninterrupted baseline"
    );
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(
            ra.first_start.as_secs().to_bits(),
            rb.first_start.as_secs().to_bits(),
            "FORK VIOLATION: {} first-start diverged",
            ra.name
        );
        assert_eq!(
            ra.completion.as_secs().to_bits(),
            rb.completion.as_secs().to_bits(),
            "FORK VIOLATION: {} completion diverged",
            ra.name
        );
        assert_eq!(
            ra.preemptions, rb.preemptions,
            "FORK VIOLATION: {} preemption count diverged",
            ra.name
        );
    }
}

fn main() {
    let mut opts = TraceOpts::from_args("snapshot_sweep");
    let (cfg, jobs) = scenario();
    let backend = FabricBackend::new(cfg.fabric);
    opts.name_links(&backend.topology());

    // 1. Uninterrupted baseline.
    let baseline = run_all(&cfg, &jobs, &opts);
    let baseline_secs = baseline.makespan.as_secs();
    opts.metric("snapshot/baseline_makespan_secs", baseline_secs);

    // 2. Run to the capture point and freeze.
    let capture_at = baseline_secs * 0.4;
    let mut cluster =
        Cluster::new(cfg.clone(), jobs.clone(), opts.sink()).expect("scenario jobs admit");
    cluster
        .run_until(Time::from_secs(capture_at))
        .expect("run to the capture point completes");
    assert!(!cluster.is_done(), "capture point fell past the run");
    let t0 = Instant::now();
    let state = cluster.snapshot();
    let mut sim = SimState::new();
    sim.insert("cluster", state.to_value());
    let bin = sim.to_binary();
    let capture_ms = t0.elapsed().as_secs_f64() * 1e3;
    let json = sim.to_json();
    let running_jobs = cluster.running_jobs();
    assert!(
        !running_jobs.is_empty(),
        "capture point must land with jobs on the fabric"
    );
    opts.metric("snapshot/capture_at_secs", cluster.now().as_secs());
    opts.metric("snapshot/bin_bytes", bin.len() as f64);
    opts.metric("snapshot/json_bytes", json.len() as f64);
    opts.metric("snapshot/capture_ms", capture_ms);

    let mut table = Table::new(vec![
        "fork",
        "new faults",
        "victim job",
        "makespan",
        "vs baseline",
    ]);

    // 3 + 4. Fork the frozen state into divergent futures. Every fork
    // decodes the *same* bytes; fork 0 must reproduce the baseline.
    let mut restore_ms_total = 0.0;
    for k in 0..FORKS {
        let t0 = Instant::now();
        let decoded = SimState::from_binary(&bin).expect("snapshot bytes decode");
        let st = fred_cluster::ClusterState::from_value(
            decoded.section("cluster").expect("cluster section present"),
        )
        .expect("cluster state decodes");
        let mut fork_jobs = jobs.clone();
        let (faults, victim) = if k == 0 {
            (0, None)
        } else {
            // Fault one of the jobs running at the capture point:
            // job-relative fire time safely after its progress so far,
            // different link set per fork.
            let victim = running_jobs[(k - 1) % running_jobs.len()];
            let started = cluster
                .first_start(victim)
                .expect("running job has started")
                .as_secs();
            let rel = (cluster.now().as_secs() - started) + baseline_secs * 0.01 * k as f64;
            let plan = FaultPlan::seeded_link_failures(
                &backend.topology(),
                FAULT_FRACTION,
                Time::from_secs(rel),
                SEED ^ k as u64,
            );
            let n = plan.len();
            fork_jobs[victim].faults = plan;
            (n, Some(victim))
        };
        let mut fork = Cluster::restore(cfg.clone(), fork_jobs, opts.sink(), st)
            .expect("snapshot pairs with the scenario");
        restore_ms_total += t0.elapsed().as_secs_f64() * 1e3;
        fork.run_to_completion().expect("forked run completes");
        let report = fork.into_report();
        let secs = report.makespan.as_secs();
        if k == 0 {
            assert_identical(&report, &baseline);
            opts.metric("snapshot/fork0_identical", 1.0);
        } else {
            opts.metric(format!("snapshot/fork{k}/makespan_secs"), secs);
            opts.metric(format!("snapshot/fork{k}/faults"), faults as f64);
        }
        table.row(vec![
            k.to_string(),
            faults.to_string(),
            victim.map_or("-".into(), |v| v.to_string()),
            fmt_secs(secs),
            if k == 0 {
                "bit-identical".into()
            } else {
                format!("{:+.2}%", (secs / baseline_secs - 1.0) * 100.0)
            },
        ]);
    }
    opts.metric("snapshot/restore_ms", restore_ms_total / FORKS as f64);

    table.print(&format!(
        "snapshot_sweep — {FORKS} futures forked from one capture at {} \
         (baseline {}, snapshot {} B binary / {} B JSON)",
        fmt_secs(capture_at),
        fmt_secs(baseline_secs),
        bin.len(),
        json.len()
    ));
    println!(
        "\nreading: fork 0 resumes with no new faults and is hard-asserted \
         bit-identical to the uninterrupted baseline — so the fault-induced \
         divergence in forks 1..{FORKS} is exactly the counterfactual cost of \
         each failure, with zero replay noise."
    );
    opts.finish();
}
