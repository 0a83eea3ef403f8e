//! End-to-end attribution integration: a traced training iteration's
//! critical-path attribution must account for every nanosecond of the
//! makespan (the invariant the bench reports are validated against).

use std::rc::Rc;

use fred::core::params::FabricConfig;
use fred::core::placement::Strategy3D;
use fred::sim::fault::FaultPlan;
use fred::sim::time::Time;
use fred::telemetry::analysis::Analysis;
use fred::telemetry::sink::RingRecorder;
use fred::workloads::backend::FabricBackend;
use fred::workloads::model::DnnModel;
use fred::workloads::schedule::ScheduleParams;
use fred::workloads::trainer::{simulate, simulate_faulted, simulate_traced};

fn analyze(config: FabricConfig, strategy: Strategy3D) -> (Analysis, f64) {
    let model = DnnModel::transformer_17b();
    let backend = FabricBackend::new(config);
    let params = ScheduleParams::sweep_default(&model, strategy);
    let rec = Rc::new(RingRecorder::new());
    let report = simulate_traced(&model, strategy, &backend, params, rec.clone()).unwrap();
    assert_eq!(rec.overwritten(), 0, "trace must not overflow in this test");
    let analysis = Analysis::from_events(&rec.events());
    (analysis, report.total.as_secs())
}

/// The acceptance-criterion invariant: Σ attribution buckets ==
/// makespan within 1e-6 relative, on a real 3D-parallel iteration.
#[test]
fn attribution_sums_to_makespan_on_traced_training_run() {
    for config in [FabricConfig::BaselineMesh, FabricConfig::FredD] {
        let (analysis, total_secs) = analyze(config, Strategy3D::new(2, 5, 2));
        assert!(!analysis.runs.is_empty(), "expected at least one segment");
        let makespan = analysis.total_makespan();
        let attributed = analysis.totals().total();
        let rel = (attributed - makespan).abs() / makespan.max(f64::MIN_POSITIVE);
        assert!(
            rel < 1e-6,
            "{config:?}: attribution {attributed} != makespan {makespan} (rel {rel:.3e})"
        );
        // The analysis makespan covers the simulated iteration.
        assert!(
            makespan >= total_secs * (1.0 - 1e-6),
            "{config:?}: makespan {makespan} < simulated total {total_secs}"
        );
        // A 3D-parallel run must show both compute and communication on
        // the critical path.
        let totals = analysis.totals();
        assert!(totals.get(fred::telemetry::Bucket::Compute) > 0.0);
        assert!(
            totals.exposed_comm_total() + totals.get(fred::telemetry::Bucket::Contention) > 0.0
        );
    }
}

/// Per-run invariant holds too (each Topology segment independently).
#[test]
fn every_segment_attribution_matches_its_makespan() {
    let (analysis, _) = analyze(FabricConfig::BaselineMesh, Strategy3D::new(5, 2, 2));
    for (i, run) in analysis.runs.iter().enumerate() {
        let rel =
            (run.attribution.total() - run.makespan).abs() / run.makespan.max(f64::MIN_POSITIVE);
        assert!(
            rel < 1e-6,
            "segment {i}: {} != {} (rel {rel:.3e})",
            run.attribution.total(),
            run.makespan
        );
    }
}

/// Contention leaves are a pure function of the recorded events: two
/// analyses of one recording in one process (each with freshly seeded
/// hash maps) agree to the last bit. The attribution buckets come from
/// the critical path and must agree too.
#[test]
fn contention_leaves_are_bit_identical_across_analyses() {
    // The fault_sweep scenario: detours around 5% failed links pile
    // several culprits onto one (link, victim) pair, where summation
    // order shows in the last bits.
    let model = DnnModel::transformer_17b();
    let backend = FabricBackend::new(FabricConfig::FredD);
    let strategy = Strategy3D::new(2, 5, 2);
    let params = ScheduleParams::sweep_default(&model, strategy);
    let healthy = simulate(&model, strategy, &backend, params).unwrap();
    let at = Time::from_secs(healthy.total.as_secs() * 0.25);
    let faults = FaultPlan::seeded_link_failures(&backend.topology(), 0.05, at, 0xF4ED);
    let rec = Rc::new(RingRecorder::new());
    simulate_faulted(&model, strategy, &backend, params, &faults, rec.clone()).unwrap();
    assert_eq!(rec.overwritten(), 0, "trace must not overflow in this test");
    let events = rec.events();
    let leaves = |a: &Analysis| {
        a.runs
            .iter()
            .map(|r| {
                let contention: Vec<_> = r
                    .contention
                    .iter()
                    .map(|c| {
                        let bits = (c.overlap_secs.to_bits(), c.slowdown_secs.to_bits());
                        (c.link, c.victim.clone(), c.culprit.clone(), bits)
                    })
                    .collect();
                let buckets: Vec<u64> = fred::telemetry::Bucket::ALL
                    .iter()
                    .map(|&b| r.attribution.get(b).to_bits())
                    .collect();
                (contention, buckets)
            })
            .collect::<Vec<_>>()
    };
    let first = leaves(&Analysis::from_events(&events));
    assert!(
        first.iter().any(|(c, _)| !c.is_empty()),
        "no contention to check"
    );
    for _ in 0..8 {
        assert_eq!(leaves(&Analysis::from_events(&events)), first);
    }
}
