//! `train_paper` and `train_traced`: the paper's training simulations.
//!
//! `train_paper` runs one iteration of each of the 42 simulations behind
//! Fig 10 (4 models × mesh/Fred-C/Fred-D) and Fig 11 (15 strategies ×
//! mesh/Fred-D) through `simulate`. `train_traced` runs the 12 Fig 10
//! simulations through `simulate_traced` into a ring recorder teed with
//! a flight recorder, then analyses the trace and encodes the report
//! JSON, as a figure binary's `--report` does. Both are fixed paper
//! configurations and ignore the seed.

use std::rc::Rc;
use std::time::Instant;

use fred_bench::report::BenchReport;
use fred_core::params::FabricConfig;
use fred_core::placement::{Placement, PlacementPolicy, Strategy3D};
use fred_telemetry::analysis::Analysis;
use fred_telemetry::attribution::Bucket;
use fred_telemetry::sink::{NullSink, RingRecorder, TeeSink, TraceSink};
use fred_telemetry::timeseries::FlightRecorder;
use fred_workloads::backend::FabricBackend;
use fred_workloads::error::TrainError;
use fred_workloads::model::DnnModel;
use fred_workloads::report::{CommType, TrainingReport};
use fred_workloads::schedule::{build_schedule, ScheduleParams};
use fred_workloads::trainer::{breakdown, run_iteration_traced, simulate, simulate_traced};

use crate::check::Op;
use crate::ledger::{ratio, Ledger};
use crate::Workload;

/// Paper Fig 10 Fred-D speedups over the baseline mesh.
const PAPER_FIG10: [(&str, f64); 4] = [
    ("ResNet-152", 1.76),
    ("Transformer-17B", 1.87),
    ("GPT-3", 1.34),
    ("Transformer-1T", 1.40),
];

const FIG10_CONFIGS: [FabricConfig; 3] = [
    FabricConfig::BaselineMesh,
    FabricConfig::FredC,
    FabricConfig::FredD,
];

/// One training simulation of the batch.
struct Sim {
    key: String,
    model: DnnModel,
    strategy: Strategy3D,
    params: ScheduleParams,
    backend: usize,
}

/// The training batch: fabrics built once, simulations run back to back.
pub struct Training {
    backends: Vec<FabricBackend>,
    sims: Vec<Sim>,
    /// Record every simulation and produce the `--report` output.
    report: bool,
}

fn fig11_strategies() -> [(DnnModel, Vec<Strategy3D>); 2] {
    let s = Strategy3D::new;
    [
        (
            DnnModel::transformer_17b(),
            vec![
                s(20, 1, 1),
                s(10, 2, 1),
                s(5, 4, 1),
                s(5, 2, 2),
                s(4, 5, 1),
                s(2, 5, 2),
                s(2, 2, 5),
                s(1, 20, 1),
            ],
        ),
        (
            DnnModel::transformer_1t(),
            vec![
                s(20, 1, 1),
                s(10, 1, 2),
                s(5, 1, 4),
                s(5, 4, 1),
                s(4, 1, 5),
                s(2, 5, 2),
                s(1, 20, 1),
            ],
        ),
    ]
}

impl Training {
    /// Builds the fabrics and the simulation list: Fig 10 alone when
    /// `report` (the `train_traced` batch), Fig 10 and Fig 11 otherwise.
    pub fn setup(report: bool, ledger: &mut Ledger) -> Training {
        let backends = ledger.span("workloads.backend_build_s", || {
            FIG10_CONFIGS.map(FabricBackend::new).to_vec()
        });
        let mut sims = Vec::new();
        for model in DnnModel::all_paper_workloads() {
            let strategy = model.default_strategy;
            let params = ScheduleParams::paper_default(&model, strategy);
            for (backend, config) in FIG10_CONFIGS.iter().enumerate() {
                sims.push(Sim {
                    key: format!("train/fig10/{}/{}", model.name, config.name()),
                    model: model.clone(),
                    strategy,
                    params,
                    backend,
                });
            }
        }
        if !report {
            for (model, strategies) in fig11_strategies() {
                for strategy in strategies {
                    let params = ScheduleParams::sweep_default(&model, strategy);
                    for backend in [0, 2] {
                        sims.push(Sim {
                            key: format!(
                                "train/fig11/{}/{strategy}/{}",
                                model.name,
                                FIG10_CONFIGS[backend].name()
                            ),
                            model: model.clone(),
                            strategy,
                            params,
                            backend,
                        });
                    }
                }
            }
        }
        Training {
            backends,
            sims,
            report,
        }
    }

    /// One simulation split into its public steps, each in its own span.
    fn stepped(
        &self,
        sim: &Sim,
        sink: Rc<dyn TraceSink>,
        ledger: &mut Ledger,
    ) -> Result<TrainingReport, TrainError> {
        let backend = &self.backends[sim.backend];
        let t = Instant::now();
        let policy = if backend.config().is_fred() {
            PlacementPolicy::MpPpDp
        } else {
            PlacementPolicy::MpDpPp
        };
        let placement = ledger.span("core.placement_s", || Placement::new(sim.strategy, policy));
        let schedule = ledger.span("workloads.schedule_build_s", || {
            build_schedule(&sim.model, sim.strategy, &placement, backend, sim.params)
        });
        ledger.add("workloads.comm_tasks", schedule.comm_task_count() as f64);
        let timing = ledger.span("workloads.run_iteration_s", || {
            run_iteration_traced(&schedule, backend, sink)
        })?;
        let report = ledger.span("workloads.breakdown_s", || {
            breakdown(&schedule, &timing, &sim.model.name, backend.config().name())
        });
        ledger.item("iteration", t.elapsed().as_secs_f64());
        Ok(report)
    }

    fn recorders() -> (Rc<RingRecorder>, Rc<FlightRecorder>, Rc<dyn TraceSink>) {
        let ring = Rc::new(RingRecorder::new());
        let flight = Rc::new(FlightRecorder::new());
        let sink: Rc<dyn TraceSink> = Rc::new(TeeSink(ring.clone(), flight.clone()));
        (ring, flight, sink)
    }

    /// Analyses the recording and encodes the report, as `--report`
    /// does; returns the attribution op and the report size.
    fn finish_report(
        &self,
        ring: &RingRecorder,
        flight: &FlightRecorder,
        ops: &[Op],
        started: Instant,
        ledger: &mut Ledger,
    ) -> Op {
        let analysis = ledger.span("telemetry.analysis_s", || {
            Analysis::from_events(&ring.events()).with_dropped(ring.overwritten())
        });
        let timeseries = ledger.span("telemetry.flight_s", || flight.snapshot().to_json());
        let totals = analysis.totals();
        let makespan = analysis.total_makespan();
        let mut op = Op::ok(
            "train/fig10/attribution",
            Bucket::ALL
                .iter()
                .map(|&b| totals.get(b).to_bits())
                .chain([makespan.to_bits(), ring.len() as u64, ring.overwritten()])
                .collect(),
        );
        if (totals.total() - makespan).abs() > 1e-6 * makespan.max(1e-12) {
            op.fail(format!(
                "attribution sums to {} but makespan is {makespan}",
                totals.total()
            ));
        }
        ledger.set("telemetry.events_recorded", ring.len() as f64);
        ledger.set("telemetry.events_dropped", ring.overwritten() as f64);
        ledger.set(
            "telemetry.unattributed_frac",
            ratio(totals.get(Bucket::Unattributed), makespan),
        );
        let json = ledger.span("telemetry.encode_s", || {
            let mut report = BenchReport::new("fig10");
            report.wall_secs = started.elapsed().as_secs_f64();
            for o in ops.iter().filter(|o| !o.words.is_empty()) {
                report.metric(format!("{}/total_secs", o.key), f64::from_bits(o.words[0]));
            }
            report.analysis = Some(analysis);
            report.timeseries_json = Some(timeseries);
            report.to_json()
        });
        ledger.set("telemetry.report_bytes", json.len() as f64);
        if json.is_empty() {
            op.fail("empty report JSON");
        }
        op
    }
}

/// The output words of one training simulation: iteration time,
/// compute, and exposed time per communication type, as bit patterns.
fn words(r: &TrainingReport) -> Vec<u64> {
    [r.total.as_secs(), r.compute.as_secs()]
        .into_iter()
        .chain(CommType::ALL.iter().map(|&c| r.exposed_for(c).as_secs()))
        .map(f64::to_bits)
        .collect()
}

fn op_of(key: &str, r: Result<TrainingReport, TrainError>) -> Op {
    match r {
        Ok(r) => Op::ok(key, words(&r)),
        Err(e) => Op::failed(key, format!("{e}")),
    }
}

/// Mean absolute relative error, in percent, of the Fig 10 Fred-D
/// speedups against the paper's.
pub fn paper_err_pct(ops: &[Op]) -> Option<f64> {
    let total = |model: &str, config: FabricConfig| {
        let key = format!("train/fig10/{model}/{}", config.name());
        let op = ops.iter().find(|o| o.key == key && o.error.is_none())?;
        Some(f64::from_bits(op.words[0]))
    };
    let mut err = 0.0;
    for (model, paper) in PAPER_FIG10 {
        let speedup =
            total(model, FabricConfig::BaselineMesh)? / total(model, FabricConfig::FredD)?;
        err += (speedup - paper).abs() / paper;
    }
    Some(100.0 * err / PAPER_FIG10.len() as f64)
}

impl Workload for Training {
    fn ops_per_pass(&self) -> u64 {
        self.sims.len() as u64 + u64::from(self.report)
    }

    fn pass(&self, steps: &mut Ledger) -> Vec<Op> {
        if !self.report {
            return self
                .sims
                .iter()
                .map(|s| {
                    let backend = &self.backends[s.backend];
                    let r = steps.span("simulate", || {
                        simulate(&s.model, s.strategy, backend, s.params)
                    });
                    op_of(&s.key, r)
                })
                .collect();
        }
        let started = Instant::now();
        let (ring, flight, sink) = Training::recorders();
        let mut ops: Vec<Op> = self
            .sims
            .iter()
            .map(|s| {
                let backend = &self.backends[s.backend];
                let r = steps.span("simulate", || {
                    simulate_traced(&s.model, s.strategy, backend, s.params, sink.clone())
                });
                op_of(&s.key, r)
            })
            .collect();
        let attribution = self.finish_report(&ring, &flight, &ops, started, steps);
        ops.push(attribution);
        ops
    }

    fn traced_pass(&self, ledger: &mut Ledger) -> Vec<Op> {
        let started = Instant::now();
        let (ring, flight, sink) = if self.report {
            let (r, f, s) = Training::recorders();
            (Some(r), Some(f), s)
        } else {
            (None, None, Rc::new(NullSink) as Rc<dyn TraceSink>)
        };
        let mut ops: Vec<Op> = self
            .sims
            .iter()
            .map(|s| op_of(&s.key, self.stepped(s, sink.clone(), ledger)))
            .collect();
        if let (Some(ring), Some(flight)) = (ring, flight) {
            let attribution = self.finish_report(&ring, &flight, &ops, started, ledger);
            ops.push(attribution);
        }
        ops
    }

    /// `train_traced` only: recording overhead, as the run-iteration
    /// time of the 12 simulations into the recorders minus the same
    /// simulations into a `NullSink`, interleaved.
    fn probe(&self, ledger: &mut Ledger) -> Vec<Op> {
        if !self.report {
            return Vec::new();
        }
        let (_ring, _flight, sink) = Training::recorders();
        let mut quiet = Ledger::default();
        let mut loud = Ledger::default();
        quiet.begin(false);
        loud.begin(false);
        let mut ops = Vec::new();
        for s in &self.sims {
            ops.push(op_of(
                &s.key,
                self.stepped(s, Rc::new(NullSink), &mut quiet),
            ));
            ops.push(op_of(&s.key, self.stepped(s, sink.clone(), &mut loud)));
        }
        let overhead =
            loud.get("workloads.run_iteration_s") - quiet.get("workloads.run_iteration_s");
        ledger.set("telemetry.record_overhead_s", overhead);
        ops
    }

    fn notes(&self, ops: &[Op]) -> Vec<(&'static str, f64, &'static str)> {
        paper_err_pct(ops)
            .map(|e| vec![("paper_err_pct", e, "%")])
            .unwrap_or_default()
    }
}
