//! `cluster_churn`: a seeded Poisson stream of `paper_mix` jobs on the
//! mesh and on Fred-D.
//!
//! Offered load is ρ = 0.9 of the fabric's NPU-seconds, calibrated from
//! Fred-D solo makespans as `cluster_sweep` does; classes follow the
//! 20/60/20 mix; preemption is on. A seeded share of the jobs carries a
//! link-failure plan. All plans shuffle links with one fixed seed, so the
//! failed sets are nested and the fabric stays connected however many
//! fire.
//!
//! Each fabric runs to the arrival of its middle job, captures a
//! `ClusterState`, encodes it with the binary codec, continues to
//! completion, then decodes and restores the capture and runs that to
//! completion too. The restored run must match the uninterrupted one
//! bit for bit.

use std::rc::Rc;

use fred_cluster::arrivals::{paper_mix, poisson_arrivals, DEFAULT_CLASS_MIX};
use fred_cluster::{Cluster, ClusterConfig, ClusterError, ClusterReport, ClusterState, JobSpec};
use fred_core::codec::SnapshotError;
use fred_core::params::FabricConfig;
use fred_core::snapshot::SimState;
use fred_sim::fault::FaultPlan;
use fred_sim::rng::Rng64;
use fred_sim::time::Time;
use fred_telemetry::sink::{NullSink, TraceSink};
use fred_workloads::backend::FabricBackend;
use fred_workloads::trainer::simulate;

use crate::check::{fnv64, Op};
use crate::ledger::{ratio, Ledger};
use crate::Workload;

/// Jobs offered to each fabric.
const JOBS: usize = 3000;
/// Offered load, as a fraction of the fabric's NPU-seconds.
const RHO: f64 = 0.9;
/// Share of jobs that carry a link-failure plan.
const FAULT_SHARE: f64 = 0.05;
/// Failure fractions a faulty job draws from (nested under one seed).
const FAULT_FRACTIONS: [f64; 3] = [0.01, 0.02, 0.04];
/// A plan fires this far into its job, as a share of the job's solo
/// makespan on Fred-D.
const FAULT_AT: f64 = 0.25;
/// Link-shuffle seed of every failure plan. It is fixed, so every
/// `--seed` fails the same nested link set: which links die moved run
/// time by about ±10% across seeds, against about ±1% for the arrivals.
/// The seed still picks which jobs carry plans, their sizes and times.
const FAULT_LINK_SEED: u64 = 0xFA17;

const FABRICS: [FabricConfig; 2] = [FabricConfig::BaselineMesh, FabricConfig::FredD];
const SECTION: &str = "cluster";

/// The generated job streams, one per fabric (same arrivals; fault
/// plans name each fabric's own links).
pub struct ClusterChurn {
    jobs: [Vec<JobSpec>; 2],
}

impl ClusterChurn {
    /// Calibrates the arrival rate and generates the seeded streams.
    pub fn setup(seed: u64, ledger: &mut Ledger) -> ClusterChurn {
        let templates = paper_mix();
        let backends = ledger.span("workloads.backend_build_s", || {
            FABRICS.map(FabricBackend::new)
        });
        let fredd = &backends[1];
        let solo: Vec<f64> = ledger.span("cluster.calibrate_s", || {
            templates
                .iter()
                .map(|t| {
                    simulate(&t.model, t.strategy, fredd, t.params)
                        .expect("solo calibration run completes")
                        .total
                        .as_secs()
                })
                .collect()
        });
        let mean_work = templates
            .iter()
            .zip(&solo)
            .map(|(t, s)| t.npus() as f64 * s)
            .sum::<f64>()
            / templates.len() as f64;
        let rate = RHO * fredd.npu_count() as f64 / mean_work;

        let mut rng = Rng64::seed_from_u64(seed);
        let arrival_seed = rng.split().state();
        let jobs = poisson_arrivals(&templates, rate, JOBS, DEFAULT_CLASS_MIX, arrival_seed);
        // Which jobs fail links, how many, and when: one draw per job,
        // shared by both fabrics.
        let plans: Vec<Option<(f64, f64)>> = jobs
            .iter()
            .map(|j| {
                if !rng.gen_bool(FAULT_SHARE) {
                    return None;
                }
                let fraction = FAULT_FRACTIONS[rng.gen_range(0, FAULT_FRACTIONS.len())];
                let tpl = templates
                    .iter()
                    .position(|t| t.model.name == j.model.name && t.strategy == j.strategy)
                    .expect("every job comes from a template");
                Some((fraction, FAULT_AT * solo[tpl]))
            })
            .collect();
        let per_fabric = |backend: &FabricBackend| {
            let topo = backend.topology();
            jobs.iter()
                .zip(&plans)
                .map(|(j, plan)| match plan {
                    Some((fraction, at)) => j.clone().with_faults(FaultPlan::seeded_link_failures(
                        &topo,
                        *fraction,
                        Time::from_secs(*at),
                        FAULT_LINK_SEED,
                    )),
                    None => j.clone(),
                })
                .collect::<Vec<_>>()
        };
        ClusterChurn {
            jobs: [per_fabric(&backends[0]), per_fabric(&backends[1])],
        }
    }

    /// Runs one fabric with a mid-run capture and restore; returns the
    /// uninterrupted and the restored reports. `stepwise` drives the
    /// cluster one event at a time instead of with `run_until`.
    fn run_fabric(
        &self,
        k: usize,
        stepwise: bool,
        ledger: &mut Ledger,
    ) -> Result<(ClusterReport, ClusterReport), String> {
        let cfg = ClusterConfig::new(FABRICS[k]);
        let jobs = &self.jobs[k];
        let mid = jobs[jobs.len() / 2].arrival;
        let sink = || Rc::new(NullSink) as Rc<dyn TraceSink>;
        let err = |e: ClusterError| format!("cluster error: {e}");
        let codec = |e: SnapshotError| format!("snapshot error: {e}");

        let (mut cluster, events) = ledger
            .span("cluster.run_s", || {
                let mut c = Cluster::new(cfg.clone(), jobs.clone(), sink())?;
                let events = drive(&mut c, Some(mid), stepwise)?;
                Ok((c, events))
            })
            .map_err(err)?;
        ledger.add("cluster.events", events as f64);
        let state = ledger.span("cluster.snapshot_s", || cluster.snapshot());
        let captured_at = cluster.now();
        let bytes = ledger.span("core.codec_encode_s", || {
            let mut sim = SimState::new();
            sim.insert(SECTION, state.to_value());
            sim.to_binary()
        });
        ledger.add("core.snapshot_bytes", bytes.len() as f64);
        let (full_events, full) = ledger
            .span("cluster.run_s", || {
                let events = drive(&mut cluster, None, stepwise)?;
                Ok((events, cluster))
            })
            .map_err(err)?;
        ledger.add("cluster.events", full_events as f64);
        let full = ledger.span("cluster.report_s", || full.into_report());

        let decoded = ledger
            .span("core.codec_decode_s", || {
                ClusterState::from_value(SimState::from_binary(&bytes)?.section(SECTION)?)
            })
            .map_err(codec)?;
        if decoded != state {
            return Err("decoded snapshot differs from the capture".into());
        }
        let mut resumed = ledger
            .span("cluster.restore_s", || {
                Cluster::restore(cfg, jobs.clone(), sink(), decoded)
            })
            .map_err(err)?;
        let events = ledger
            .span("cluster.run_s", || drive(&mut resumed, None, stepwise))
            .map_err(err)?;
        ledger.add("cluster.events", events as f64);
        let resumed = ledger.span("cluster.report_s", || resumed.into_report());
        ledger.add("cluster.preemptions", full.preemptions as f64);
        ledger.add(
            "cluster.simulated_s",
            full.makespan.as_secs() + (resumed.makespan.as_secs() - captured_at.as_secs()),
        );
        Ok((full, resumed))
    }

    fn fabric_ops(&self, k: usize, stepwise: bool, ledger: &mut Ledger) -> Vec<Op> {
        let name = FABRICS[k].name();
        let jobs = &self.jobs[k];
        let (full, resumed) = match self.run_fabric(k, stepwise, ledger) {
            Ok(r) => r,
            Err(e) => {
                return (0..jobs.len())
                    .map(|j| Op::failed(format!("cluster/{name}/{j}"), e.clone()))
                    .collect();
            }
        };
        let mut ops: Vec<Op> = full
            .records
            .iter()
            .zip(&resumed.records)
            .enumerate()
            .map(|(j, (r, again))| {
                let (start, done) = (r.first_start.as_secs(), r.completion.as_secs());
                let mut op = Op::ok(
                    format!("cluster/{name}/{j}"),
                    vec![fnv64([start.to_bits(), done.to_bits()])],
                );
                if r.first_start < r.arrival || r.completion <= r.arrival {
                    op.fail(format!(
                        "arrives {} but starts {start} and completes {done}",
                        r.arrival.as_secs()
                    ));
                }
                if again.first_start.as_secs().to_bits() != start.to_bits()
                    || again.completion.as_secs().to_bits() != done.to_bits()
                    || again.preemptions != r.preemptions
                {
                    op.fail("restored run diverged from the uninterrupted run");
                }
                op
            })
            .collect();
        if ops.len() != jobs.len() || resumed.records.len() != jobs.len() {
            ops.push(Op::failed(
                format!("cluster/{name}/records"),
                "report does not cover every job",
            ));
        }
        ops.push(Op::ok(
            format!("cluster/{name}/summary"),
            vec![
                full.makespan.as_secs().to_bits(),
                u64::from(full.preemptions),
                fnv64(full.records.iter().map(|r| u64::from(r.preemptions))),
            ],
        ));
        ops
    }
}

/// Runs `c` up to and including `until` (to completion when `None`).
/// `stepwise` goes one event instant at a time through `next_event`
/// and counts the instants; otherwise it calls `run_until` /
/// `run_to_completion` and counts nothing.
fn drive(c: &mut Cluster, until: Option<Time>, stepwise: bool) -> Result<u64, ClusterError> {
    if !stepwise {
        match until {
            Some(t) => c.run_until(t)?,
            None => c.run_to_completion()?,
        }
        return Ok(0);
    }
    let mut events = 0;
    while !c.is_done() {
        let Some(t) = c.next_event() else {
            // Out of events with jobs unfinished: let the scheduler
            // report the stall.
            c.run_to_completion()?;
            break;
        };
        if until.is_some_and(|u| t > u) {
            break;
        }
        c.run_until(t)?;
        events += 1;
    }
    Ok(events)
}

impl Workload for ClusterChurn {
    fn ops_per_pass(&self) -> u64 {
        self.jobs.iter().map(|j| j.len() as u64 + 1).sum()
    }

    fn pass(&self, steps: &mut Ledger) -> Vec<Op> {
        (0..FABRICS.len())
            .flat_map(|k| self.fabric_ops(k, false, steps))
            .collect()
    }

    fn traced_pass(&self, ledger: &mut Ledger) -> Vec<Op> {
        let ops = (0..FABRICS.len())
            .flat_map(|k| self.fabric_ops(k, true, ledger))
            .collect();
        let per_host = ratio(
            ledger.get("cluster.simulated_s"),
            ledger.get("cluster.run_s"),
        );
        ledger.set("cluster.sim_s_per_host_s", per_host);
        ops
    }
}
