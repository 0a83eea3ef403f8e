//! `dse_pareto`: the full capacity-planning grid plus seeded random
//! points, run with `run_sweep` on every available core, then
//! `pareto_front`. The only multi-threaded workload.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fred_dse::{
    design_cost, evaluate_point, pareto_front, run_sweep, PointOutcome, PointRow, RunOpts,
    SweepPoint, SweepSpec,
};
use fred_sim::rng::Rng64;
use fred_telemetry::prof;

use crate::check::{fnv64, Op};
use crate::ledger::{ratio, Ledger};
use crate::Workload;

/// Seeded random points added to the 216-point grid.
const RANDOM_POINTS: usize = 1200;

/// The sweep and its enumerated points.
pub struct DsePareto {
    spec: SweepSpec,
    points: Vec<SweepPoint>,
    threads: usize,
}

impl DsePareto {
    /// Builds the spec from the seed and enumerates it.
    pub fn setup(seed: u64, threads: usize, ledger: &mut Ledger) -> DsePareto {
        let spec = SweepSpec {
            name: "perfbench".into(),
            seed: Rng64::seed_from_u64(seed).split().state(),
            random_points: RANDOM_POINTS,
            ..SweepSpec::full()
        };
        let points = ledger.span("dse.enumerate_s", || spec.enumerate());
        DsePareto {
            spec,
            points,
            threads,
        }
    }

    fn sweep(&self, ledger: &mut Ledger) -> Vec<Op> {
        let opts = RunOpts {
            threads: self.threads,
            ..RunOpts::default()
        };
        let rows = match ledger.span("dse.run_sweep_s", || run_sweep(&self.spec, &opts)) {
            Ok(outcome) => outcome.rows,
            Err(e) => return vec![Op::failed("dse/sweep", format!("{e}"))],
        };
        let front = ledger.span("dse.pareto_s", || pareto_front(&rows));
        let mut ops = row_ops(&rows);
        let accounted = front.front.len() + front.dominated + front.infeasible + front.errors;
        let mut summary = Op::ok(
            "dse/front",
            vec![
                fnv64(front.front.iter().map(|&i| i as u64)),
                front.dominated as u64,
                front.infeasible as u64,
                front.errors as u64,
            ],
        );
        if accounted != rows.len() || rows.len() != self.points.len() {
            summary.fail(format!(
                "front + dominated + infeasible + errors = {accounted}, rows {}, points {}",
                rows.len(),
                self.points.len()
            ));
        }
        ops.push(summary);
        let sweep_s = ledger.get("dse.run_sweep_s");
        ledger.set("dse.points_per_s", ratio(rows.len() as f64, sweep_s));
        ledger.set("dse.front_size", front.front.len() as f64);
        ledger.set("dse.infeasible", front.infeasible as f64);
        ledger.set("dse.errors", front.errors as f64);
        ops
    }
}

/// One op per row: a digest of its outcome's bit patterns. Error rows
/// fail.
fn row_ops(rows: &[PointRow]) -> Vec<Op> {
    rows.iter()
        .map(|row| {
            let key = format!("dse/{}", row.point.index);
            match &row.outcome {
                PointOutcome::Metrics(m) => Op::ok(
                    key,
                    vec![fnv64(
                        [
                            m.makespan_secs,
                            m.norm_makespan_secs,
                            m.mean_stretch,
                            m.p99_stretch,
                            m.fairness,
                            m.utilization,
                            m.area_mm2,
                            m.power_w,
                            m.tco_dollars,
                        ]
                        .map(f64::to_bits),
                    )],
                ),
                PointOutcome::Infeasible { hub_gb_required } => {
                    Op::ok(key, vec![fnv64([u64::MAX, hub_gb_required.to_bits()])])
                }
                PointOutcome::Error(e) => Op::failed(key, e.message.clone()),
            }
        })
        .collect()
}

impl Workload for DsePareto {
    fn ops_per_pass(&self) -> u64 {
        self.points.len() as u64 + 1
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn pass(&self, steps: &mut Ledger) -> Vec<Op> {
        self.sweep(steps)
    }

    fn traced_pass(&self, ledger: &mut Ledger) -> Vec<Op> {
        let ops = self.sweep(ledger);
        // Σ point time from the profiler's per-point scopes (the worker
        // threads flush them when the sweep joins).
        let busy = prof::snapshot().get("dse.point").map_or(0.0, |st| st.total);
        let capacity = self.threads as f64 * ledger.get("dse.run_sweep_s");
        ledger.set("dse.thread_busy_frac", ratio(busy, capacity));
        ops
    }

    /// Per-point host times: the benchmark's own work queue over
    /// `evaluate_point` on the same thread count, each call timed. Its
    /// rows must equal the sweep's. Also times the hardware cost model
    /// over every point.
    fn probe(&self, ledger: &mut Ledger) -> Vec<Op> {
        let slots: Vec<Mutex<Option<(PointRow, f64)>>> =
            self.points.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(self.points.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(point) = self.points.get(i) else {
                        break;
                    };
                    let t = Instant::now();
                    let row = catch_unwind(AssertUnwindSafe(|| evaluate_point(&self.spec, point)));
                    let dt = t.elapsed().as_secs_f64();
                    if let Ok(row) = row {
                        *slots[i].lock().expect("slot lock poisoned") = Some((row, dt));
                    }
                });
            }
        });
        let mut rows = Vec::with_capacity(self.points.len());
        let mut ops = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().expect("slot lock poisoned") {
                Some((row, dt)) => {
                    ledger.item("dse.point", dt);
                    rows.push(row);
                }
                None => ops.push(Op::failed(format!("dse/{i}"), "evaluate_point panicked")),
            }
        }
        ops.extend(row_ops(&rows));
        ledger.span("hwmodel.design_cost_s", || {
            for p in &self.points {
                std::hint::black_box(design_cost(std::hint::black_box(p)));
            }
        });
        ops
    }
}
