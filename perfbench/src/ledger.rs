//! Per-layer measurements, taken from outside the program.
//!
//! The benchmark wraps its own calls into each crate's public functions
//! in spans ([`Ledger::span`]) and reads the counters the program
//! already exposes: the solver's process-wide [`global_solver_stats`]
//! and the `fred_telemetry::prof` site table, which is switched on only
//! for traced passes. Nothing is added inside the program.
//!
//! Every value is kept per pass; a reported value is the median over
//! the passes that measured it, so counts (identical in every pass) come
//! out exact and times come out robust to one slow pass.

use std::collections::BTreeMap;
use std::time::Instant;

use fred_sim::solver::{global_solver_stats, SolverStats};
use fred_telemetry::prof;

use crate::pace;

/// Every per-layer metric, with its unit, in output order. The list in
/// `BENCHMARK.json` (`per_layer`) names exactly these. A workload that
/// never calls into a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.solves", "count"),
    ("sim.global_solves", "count"),
    ("sim.global_solve_frac", "ratio"),
    ("sim.refilled_flows", "count"),
    ("sim.max_component", "flows"),
    ("sim.solve_s", "s"),
    ("sim.inject_batch_s", "s"),
    ("sim.drain_heap_depth_max", "count"),
    ("sim.host_us_per_solve", "us"),
    ("workloads.backend_build_s", "s"),
    ("core.placement_s", "s"),
    ("workloads.schedule_build_s", "s"),
    ("workloads.run_iteration_s", "s"),
    ("workloads.breakdown_s", "s"),
    ("workloads.flush_staged_s", "s"),
    ("workloads.comm_tasks", "count"),
    ("workloads.iteration_p50_ms", "ms"),
    ("workloads.iteration_tail_ms", "ms"),
    ("workloads.iteration_tail_pct", "%"),
    ("workloads.iteration_samples", "count"),
    ("telemetry.record_overhead_s", "s"),
    ("telemetry.events_recorded", "count"),
    ("telemetry.events_dropped", "count"),
    ("telemetry.analysis_s", "s"),
    ("telemetry.flight_s", "s"),
    ("telemetry.encode_s", "s"),
    ("telemetry.report_bytes", "bytes"),
    ("telemetry.unattributed_frac", "ratio"),
    ("cluster.calibrate_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.events", "count"),
    ("cluster.dispatch_s", "s"),
    ("cluster.preempt_window_s", "s"),
    ("cluster.preemptions", "count"),
    ("cluster.sim_s_per_host_s", "s/s"),
    ("cluster.snapshot_s", "s"),
    ("cluster.restore_s", "s"),
    ("cluster.report_s", "s"),
    ("core.codec_encode_s", "s"),
    ("core.codec_decode_s", "s"),
    ("core.snapshot_bytes", "bytes"),
    ("dse.enumerate_s", "s"),
    ("dse.run_sweep_s", "s"),
    ("dse.points_per_s", "1/s"),
    ("dse.point_p50_ms", "ms"),
    ("dse.point_tail_ms", "ms"),
    ("dse.point_tail_pct", "%"),
    ("dse.point_samples", "count"),
    ("dse.thread_busy_frac", "ratio"),
    ("dse.pareto_s", "s"),
    ("dse.front_size", "count"),
    ("dse.infeasible", "count"),
    ("dse.errors", "count"),
    ("hwmodel.design_cost_s", "s"),
    ("unaccounted_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// Per-pass span times and counters, plus per-item samples.
#[derive(Debug, Default)]
pub struct Ledger {
    cur: BTreeMap<&'static str, f64>,
    /// Σ of this pass's span times: the wall time some layer accounts for.
    covered: f64,
    passes: Vec<BTreeMap<&'static str, f64>>,
    items: BTreeMap<&'static str, Vec<f64>>,
    steps: Vec<f64>,
    /// Whether each span is followed by the reference kernel (see
    /// `pace.rs`), with `steps` then in units of the kernel's time.
    paced: bool,
    /// Σ and samples of the kernel's time, when paced.
    pace_s: f64,
    pace_times: Vec<f64>,
    solver_at_start: SolverStats,
    profiling: bool,
}

impl Ledger {
    /// A ledger that runs the reference kernel now and after each span;
    /// `steps` holds each span's time divided by the mean of the
    /// kernel's times just before and just after it.
    pub fn paced() -> Ledger {
        let r = pace::kernel();
        Ledger {
            paced: true,
            pace_s: r,
            pace_times: vec![r],
            ..Ledger::default()
        }
    }

    /// Starts a pass. With `profile`, the program's `prof` site table is
    /// cleared and switched on for the pass.
    pub fn begin(&mut self, profile: bool) {
        self.cur.clear();
        self.covered = 0.0;
        self.profiling = profile;
        if profile {
            prof::reset();
            prof::set_enabled(true);
        }
        self.solver_at_start = global_solver_stats();
    }

    /// Ends a pass that took `wall` seconds: folds in the solver deltas
    /// and profiler sites, and the share of `wall` no span covered.
    pub fn end(&mut self, wall: f64) {
        let s = global_solver_stats();
        let s0 = self.solver_at_start;
        let solves = (s.solves - s0.solves) as f64;
        let global = (s.global_solves - s0.global_solves) as f64;
        self.set("sim.solves", solves);
        self.set("sim.global_solves", global);
        self.set("sim.global_solve_frac", ratio(global, solves));
        self.set(
            "sim.refilled_flows",
            (s.refilled_flows - s0.refilled_flows) as f64,
        );
        self.set("sim.max_component", s.max_component as f64);
        if self.profiling {
            prof::set_enabled(false);
            let sites = prof::snapshot();
            let total = |site: &str| sites.get(site).map_or(0.0, |st| st.total);
            let solve_s = total("solver.solve");
            self.set("sim.solve_s", solve_s);
            self.set("sim.inject_batch_s", total("netsim.inject_batch"));
            self.set(
                "sim.drain_heap_depth_max",
                sites
                    .get("netsim.drain_heap_depth")
                    .map_or(0.0, |st| st.max),
            );
            self.set("sim.host_us_per_solve", 1e6 * ratio(solve_s, solves));
            self.set("workloads.flush_staged_s", total("exec.flush_staged"));
            self.set("cluster.dispatch_s", total("cluster.dispatch"));
            self.set("cluster.preempt_window_s", total("cluster.preempt_window"));
            prof::reset();
        }
        self.set("unaccounted_frac", ratio(wall - self.covered, wall));
        self.passes.push(std::mem::take(&mut self.cur));
    }

    /// Times `f` as one span of layer metric `name`; span times add up
    /// within a pass. Spans must not nest.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let dt = t.elapsed().as_secs_f64();
        *self.cur.entry(name).or_default() += dt;
        self.covered += dt;
        if let (true, Some(&before)) = (self.paced, self.pace_times.last()) {
            let after = pace::kernel();
            self.pace_s += after;
            self.pace_times.push(after);
            self.steps.push(dt / (0.5 * (before + after)));
        } else {
            self.steps.push(dt);
        }
        out
    }

    /// Every span's time so far, in call order (in kernel units when
    /// paced).
    pub fn steps(&self) -> &[f64] {
        &self.steps
    }

    /// Σ of span times so far.
    pub fn covered(&self) -> f64 {
        self.covered
    }

    /// Σ of the reference kernel's times so far (0 unless paced).
    pub fn pace_s(&self) -> f64 {
        self.pace_s
    }

    /// Median of the reference kernel's times so far (0 unless paced).
    pub fn pace_median(&self) -> f64 {
        median(&self.pace_times)
    }

    /// Adds `v` to this pass's value of `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.cur.entry(name).or_default() += v;
    }

    /// Sets this pass's value of `name`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.cur.insert(name, v);
    }

    /// This pass's value of `name` so far (0 if unset).
    pub fn get(&self, name: &str) -> f64 {
        self.cur.get(name).copied().unwrap_or(0.0)
    }

    /// Records one sample of a per-item distribution (kept across passes).
    pub fn item(&mut self, name: &'static str, v: f64) {
        self.items.entry(name).or_default().push(v);
    }

    /// Median over passes of `name` (0 if no pass measured it).
    pub fn median(&self, name: &str) -> f64 {
        let vals: Vec<f64> = self
            .passes
            .iter()
            .filter_map(|p| p.get(name).copied())
            .collect();
        median(&vals)
    }

    /// Whether any pass measured `name`.
    pub fn has(&self, name: &str) -> bool {
        self.passes.iter().any(|p| p.contains_key(name))
    }

    /// Samples recorded for the per-item distribution `name`.
    pub fn items(&self, name: &str) -> &[f64] {
        self.items.get(name).map_or(&[], Vec::as_slice)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest whole percentile with at least ten samples above it,
/// and the nearest-rank value at that percentile; `None` with fewer
/// than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank r = ceil(p/100 · n) leaves n − r samples above it.
    let pct = (1..100)
        .rev()
        .find(|&p| n - (p * n).div_ceil(100) >= 10)
        .unwrap_or(1);
    let rank = (pct * n).div_ceil(100).max(1);
    Some((pct as f64, v[rank - 1]))
}
