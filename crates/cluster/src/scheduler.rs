//! The cluster event loop: many jobs, one fabric, one clock.
//!
//! [`run_cluster`] interleaves per-job [`ScheduleExecutor`]s through a
//! single shared [`FlowNetwork`]. Each placed job gets a disjoint
//! correlation-tag range (completions route back by tag alone) and a
//! tenant rank equal to its [`JobClass`], so the fair-share solver
//! isolates classes in bandwidth: High traffic is served strictly
//! before Normal, Normal before Low, on every contended link. Job
//! starts and finishes are solver *deltas* (`inject_batch` /
//! completion drains) — the world is never re-solved from scratch.
//!
//! ## Dispatch and preemption
//!
//! Queued jobs wait in per-class FIFO queues. Dispatch walks classes
//! High→Low placing each queue's head until it no longer fits, then
//! lets lower classes backfill — a narrow Low job may start ahead of a
//! blocked wide High job (this favours utilization; the stranded
//! head's delay is visible in the p99 queueing metric). When enabled,
//! preemption evicts strictly-lower-class jobs from a slot window when
//! the head cannot be placed any other way: victims lose their
//! in-flight iteration, return to the *front* of their class queue,
//! and restart from scratch on fresh tags (retired tags still in the
//! completion pipeline are dropped on arrival).
//!
//! ## Determinism contract
//!
//! A cluster run is a pure function of its inputs: jobs are processed
//! in arrival order (submission order on ties), running executors in
//! placement order, and every random choice lives in the seeded
//! arrival generator. A single High-class job arriving at time zero
//! reproduces [`fred_workloads::trainer::simulate`] *bit-identically*:
//! same placement base, same tag namespace, same tenant rank, same
//! network-operation order.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use fred_core::params::FabricConfig;
use fred_core::placement::{Placement, PlacementPolicy};
use fred_sim::codec::{SnapshotError, Value};
use fred_sim::ensure;
use fred_sim::flow::FlowSpec;
use fred_sim::netsim::FlowNetwork;
use fred_sim::snapshot::{
    arr_of, f64_of, field, non_null, time_of, times, times_of, tuple_of, u32s, u32s_of, u64_of,
    usize_of, usizes, usizes_of, v_f64, v_time, v_u64,
};
use fred_sim::time::Time;
use fred_telemetry::event::TraceEvent;
use fred_telemetry::sink::{NullSink, TraceSink};
use fred_workloads::backend::FabricBackend;
use fred_workloads::error::TrainError;
use fred_workloads::exec::{repair_flows, ExecConfig, ScheduleExecutor};
use fred_workloads::schedule::build_schedule;
use fred_workloads::trainer::simulate;

use crate::job::{JobClass, JobSpec};
use crate::metrics::{ClusterReport, JobRecord};
use crate::placement::{FitPolicy, SlotMap};

/// Cluster-wide policy knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The fabric every job shares.
    pub fabric: FabricConfig,
    /// How contiguous slot windows are chosen.
    pub fit: FitPolicy,
    /// Whether higher classes may evict strictly-lower-class jobs.
    pub preemption: bool,
}

impl ClusterConfig {
    /// First-fit placement with preemption enabled.
    pub fn new(fabric: FabricConfig) -> ClusterConfig {
        ClusterConfig {
            fabric,
            fit: FitPolicy::FirstFit,
            preemption: true,
        }
    }

    /// Sets the fit policy.
    pub fn with_fit(mut self, fit: FitPolicy) -> ClusterConfig {
        self.fit = fit;
        self
    }

    /// Enables or disables preemption.
    pub fn with_preemption(mut self, preemption: bool) -> ClusterConfig {
        self.preemption = preemption;
        self
    }
}

/// Why a cluster run could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A job's model is weight-streaming: it streams layer windows to
    /// every NPU and cannot share the fabric (see
    /// [`JobSpec::is_schedulable`]).
    UnsupportedExecution {
        /// The offending job's name.
        job: String,
    },
    /// A job needs more NPU slots than the fabric has, so it can never
    /// be placed.
    JobTooWide {
        /// The offending job's name.
        job: String,
        /// Slots the job needs.
        npus: usize,
        /// Slots the fabric offers.
        slots: usize,
    },
    /// A job's executor failed (stall, unroutable transfer, rejected
    /// flow — see [`TrainError`]).
    Train {
        /// The failing job's name (or a scheduler-internal label for
        /// fault re-injection failures that cross jobs).
        job: String,
        /// The underlying trainer error.
        err: TrainError,
    },
    /// A snapshot could not be restored: it is damaged, or it does not
    /// pair with the config and job list it was handed.
    Snapshot(SnapshotError),
    /// The cluster ran out of pending events with jobs unfinished — a
    /// scheduling deadlock.
    Stalled {
        /// Jobs still queued.
        queued: usize,
        /// Jobs still running.
        running: usize,
        /// Jobs that did complete.
        completed: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnsupportedExecution { job } => write!(
                f,
                "job `{job}` is weight-streaming and cannot share the fabric"
            ),
            ClusterError::JobTooWide { job, npus, slots } => write!(
                f,
                "job `{job}` needs {npus} NPU slots but the fabric has {slots}"
            ),
            ClusterError::Train { job, err } => write!(f, "job `{job}` failed: {err}"),
            ClusterError::Snapshot(err) => write!(f, "{err}"),
            ClusterError::Stalled {
                queued,
                running,
                completed,
            } => write!(
                f,
                "cluster stalled with no pending events: {queued} queued, {running} running, \
                 {completed} completed"
            ),
        }
    }
}

impl Error for ClusterError {}

impl From<SnapshotError> for ClusterError {
    fn from(err: SnapshotError) -> ClusterError {
        ClusterError::Snapshot(err)
    }
}

/// One placed job mid-flight (its slots are recorded in the
/// [`SlotMap`], keyed by job id).
struct Running {
    /// Index into the submitted job list.
    job: usize,
    /// First slot of the job's contiguous carve-out (restores rebuild
    /// the schedule from the same placement base).
    base: usize,
    exec: ScheduleExecutor,
}

/// Runs `jobs` to completion on one shared fabric and reports per-job
/// SLO metrics. Untraced (zero-overhead [`NullSink`]).
///
/// # Errors
///
/// See [`ClusterError`].
pub fn run_cluster(cfg: &ClusterConfig, jobs: Vec<JobSpec>) -> Result<ClusterReport, ClusterError> {
    run_cluster_traced(cfg, jobs, Rc::new(NullSink))
}

/// [`run_cluster`] with telemetry recorded into `sink`: per-job spans
/// are label-prefixed with the job name, and job lifecycle marks
/// (queued, started, preempted, finished) land on the iteration track.
///
/// # Errors
///
/// See [`ClusterError`].
pub fn run_cluster_traced(
    cfg: &ClusterConfig,
    jobs: Vec<JobSpec>,
    sink: Rc<dyn TraceSink>,
) -> Result<ClusterReport, ClusterError> {
    let mut cluster = Cluster::new(cfg.clone(), jobs, sink)?;
    cluster.run_to_completion()?;
    Ok(cluster.into_report())
}

/// A resumable cluster simulation: [`run_cluster`] is
/// [`Cluster::new`] + [`Cluster::run_to_completion`] +
/// [`Cluster::into_report`], but the pieces compose — a driver can run
/// to a chosen instant, [`Cluster::snapshot`] the whole stack
/// (scheduler, every in-flight executor, the shared network), and
/// later [`Cluster::restore`] it to resume bit-identically, including
/// mid-fault and mid-preemption.
pub struct Cluster {
    cfg: ClusterConfig,
    jobs: Vec<JobSpec>,
    backend: FabricBackend,
    policy: PlacementPolicy,
    net: FlowNetwork,
    sink: Rc<dyn TraceSink>,
    tracing: bool,
    /// [`TraceSink::dropped`] reading when this run began.
    dropped_baseline: u64,
    slotmap: SlotMap,
    /// Pending job indices, one FIFO per class rank.
    queues: [VecDeque<usize>; 3],
    running: Vec<Running>,
    /// Job indices sorted by arrival.
    order: Vec<usize>,
    arrival_cursor: usize,
    /// Monotonic: every (re)start gets a fresh disjoint tag range, so
    /// retired ranges never collide and stale completions are dropped.
    next_tag_base: u64,
    first_start: Vec<Option<Time>>,
    completion: Vec<Time>,
    preempt_count: Vec<u32>,
    /// Per-job cursor into its fault plan (survives preemption: fired
    /// events are never re-fired on restart).
    fault_cursor: Vec<usize>,
    done_count: usize,
    busy_npu_secs: f64,
}

/// Validates `jobs` against the fabric and derives the arrival order
/// and placement policy shared by [`Cluster::new`] and
/// [`Cluster::restore`].
fn validate_and_order(
    cfg: &ClusterConfig,
    jobs: &[JobSpec],
    backend: &FabricBackend,
) -> Result<(Vec<usize>, PlacementPolicy), ClusterError> {
    let slots = backend.npu_count();
    for j in jobs {
        if !j.is_schedulable() {
            return Err(ClusterError::UnsupportedExecution {
                job: j.name.clone(),
            });
        }
        if j.npus() > slots {
            return Err(ClusterError::JobTooWide {
                job: j.name.clone(),
                npus: j.npus(),
                slots,
            });
        }
    }
    // Arrival order; stable sort keeps submission order on ties.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .arrival
            .partial_cmp(&jobs[b].arrival)
            .expect("finite arrival time")
    });
    let policy = if cfg.fabric.is_fred() {
        PlacementPolicy::MpPpDp
    } else {
        PlacementPolicy::MpDpPp
    };
    Ok((order, policy))
}

impl Cluster {
    /// Validates `jobs`, builds the shared network, and admits and
    /// places everything due at time zero. Nothing has advanced yet.
    ///
    /// # Errors
    ///
    /// See [`ClusterError`].
    pub fn new(
        cfg: ClusterConfig,
        jobs: Vec<JobSpec>,
        sink: Rc<dyn TraceSink>,
    ) -> Result<Cluster, ClusterError> {
        let backend = FabricBackend::new(cfg.fabric);
        let slots = backend.npu_count();
        let (order, policy) = validate_and_order(&cfg, &jobs, &backend)?;
        let n = jobs.len();
        let net = FlowNetwork::with_sink(backend.topology(), sink.clone());
        let tracing = sink.enabled();
        // Baseline, not zero: the caller may hand us a sink that
        // already dropped events in an earlier run; the report carries
        // this run's losses only.
        let dropped_baseline = sink.dropped();
        let mut cluster = Cluster {
            cfg,
            jobs,
            backend,
            policy,
            net,
            sink,
            tracing,
            dropped_baseline,
            slotmap: SlotMap::new(slots),
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            running: Vec::new(),
            order,
            arrival_cursor: 0,
            next_tag_base: 0,
            first_start: vec![None; n],
            completion: vec![Time::ZERO; n],
            preempt_count: vec![0; n],
            fault_cursor: vec![0; n],
            done_count: 0,
            busy_npu_secs: 0.0,
        };
        cluster.admit_arrivals(Time::ZERO);
        cluster.dispatch()?;
        cluster.emit_sched_samples(Time::ZERO);
        Ok(cluster)
    }

    /// The shared clock.
    pub fn now(&self) -> Time {
        self.net.now()
    }

    /// Whether every job has completed.
    pub fn is_done(&self) -> bool {
        self.done_count == self.jobs.len()
    }

    /// The instant of the next pending event (arrival, compute finish,
    /// network event or fault horizon), if any. (`&mut` because the
    /// network prunes stale drain predictions lazily while peeking.)
    pub fn next_event(&mut self) -> Option<Time> {
        let now = self.net.now();
        let ta = self
            .order
            .get(self.arrival_cursor)
            .map(|&j| self.jobs[j].arrival);
        let tc = self
            .running
            .iter()
            .filter_map(|r| r.exec.next_compute_time())
            .min();
        let tn = self.net.next_event();
        let tf = self.next_fault_time(now);
        [ta, tc, tn, tf].into_iter().flatten().min()
    }

    fn stalled(&self) -> ClusterError {
        ClusterError::Stalled {
            queued: self.queues.iter().map(VecDeque::len).sum(),
            running: self.running.len(),
            completed: self.done_count,
        }
    }

    /// Processes exactly one event instant: advances the clock to
    /// `next`, fires due faults, routes completions, settles every
    /// executor, retires finished jobs and dispatches the queues.
    fn step_at(&mut self, next: Time) -> Result<(), ClusterError> {
        let now = self.net.now();
        // Occupancy integrates between event instants (membership only
        // changes at instants).
        self.busy_npu_secs +=
            self.slotmap.used() as f64 * (next.as_secs() - now.as_secs()).max(0.0);
        self.net.advance_to(next);
        self.fire_faults(next)?;
        for c in self.net.drain_completed() {
            self.route_completion(c.tag)?;
        }
        for k in 0..self.running.len() {
            let job = self.running[k].job;
            if let Err(e) = self.running[k]
                .exec
                .flush_staged(&mut self.net, &self.backend)
            {
                return Err(self.train_err(job, e));
            }
            self.running[k].exec.release_computes_due(next);
            if let Err(e) = self.running[k].exec.settle(&mut self.net, &self.backend) {
                return Err(self.train_err(job, e));
            }
        }
        self.retire_finished();
        self.admit_arrivals(next);
        self.dispatch()?;
        self.emit_sched_samples(next);
        Ok(())
    }

    /// Runs until every job completes.
    ///
    /// # Errors
    ///
    /// See [`ClusterError`]; [`ClusterError::Stalled`] when events run
    /// out with jobs unfinished.
    pub fn run_to_completion(&mut self) -> Result<(), ClusterError> {
        while !self.is_done() {
            let Some(next) = self.next_event() else {
                return Err(self.stalled());
            };
            self.step_at(next)?;
        }
        Ok(())
    }

    /// Processes every event at or before `t`, leaving the clock at
    /// the last processed instant — a clean capture point for
    /// [`Cluster::snapshot`]. Returns early (Ok) once the next event
    /// lies beyond `t` or the run completes.
    ///
    /// # Errors
    ///
    /// See [`Cluster::run_to_completion`].
    pub fn run_until(&mut self, t: Time) -> Result<(), ClusterError> {
        while !self.is_done() {
            let Some(next) = self.next_event() else {
                return Err(self.stalled());
            };
            if next > t {
                return Ok(());
            }
            self.step_at(next)?;
        }
        Ok(())
    }

    /// Indices of the jobs running now, in placement order.
    pub fn running_jobs(&self) -> Vec<usize> {
        self.running.iter().map(|r| r.job).collect()
    }

    /// When `job` (an index into the job list) first started, if it has.
    pub fn first_start(&self, job: usize) -> Option<Time> {
        self.first_start[job]
    }

    /// Captures the entire cluster stack — scheduler bookkeeping,
    /// every in-flight executor, and the shared network. The job list
    /// and config are *not* captured; [`Cluster::restore`] is handed
    /// the same ones again.
    pub fn snapshot(&self) -> ClusterState {
        let opt = |v: Option<Value>| v.unwrap_or(Value::Null);
        let owners = self.slotmap.owners().iter();
        let owners = owners.map(|o| opt(o.map(|j| v_u64(j as u64))));
        let queues = self.queues.iter().map(|q| usizes(&Vec::from(q.clone())));
        let running = self.running.iter().map(|r| {
            Value::Obj(vec![
                ("job".into(), v_u64(r.job as u64)),
                ("base".into(), v_u64(r.base as u64)),
                ("exec".into(), r.exec.to_value()),
            ])
        });
        let first_start = self.first_start.iter().map(|t| opt(t.map(v_time)));
        ClusterState(Value::Obj(vec![
            ("net".into(), self.net.to_value()),
            ("slot_owners".into(), Value::Arr(owners.collect())),
            ("queues".into(), Value::Arr(queues.collect())),
            ("running".into(), Value::Arr(running.collect())),
            ("arrival_cursor".into(), v_u64(self.arrival_cursor as u64)),
            ("next_tag_base".into(), v_u64(self.next_tag_base)),
            ("first_start".into(), Value::Arr(first_start.collect())),
            ("completion".into(), times(&self.completion)),
            ("preempt_count".into(), u32s(&self.preempt_count)),
            ("fault_cursor".into(), usizes(&self.fault_cursor)),
            ("done_count".into(), v_u64(self.done_count as u64)),
            ("busy_npu_secs".into(), v_f64(self.busy_npu_secs)),
        ]))
    }

    /// Rebuilds a cluster from a [`Cluster::snapshot`], the same
    /// config and the same job list it was captured against. Running
    /// forward from here is bit-identical to the uninterrupted run
    /// (telemetry excepted: traces restart at the restore point).
    ///
    /// # Errors
    ///
    /// The same job-validation errors as [`Cluster::new`], and
    /// [`ClusterError::Snapshot`] when the state is damaged or does not
    /// pair with `cfg`/`jobs` (DESIGN.md §12.1).
    pub fn restore(
        cfg: ClusterConfig,
        jobs: Vec<JobSpec>,
        sink: Rc<dyn TraceSink>,
        state: ClusterState,
    ) -> Result<Cluster, ClusterError> {
        let backend = FabricBackend::new(cfg.fabric);
        let slots = backend.npu_count();
        let (order, policy) = validate_and_order(&cfg, &jobs, &backend)?;
        let ctx = "cluster";
        let get = |key: &str| field(&state.0, key, ctx);
        let net = FlowNetwork::from_value(backend.topology(), sink.clone(), get("net")?)?;
        let mut running = Vec::new();
        for r in arr_of(get("running")?, ctx)? {
            let job = usize_of(field(r, "job", ctx)?, ctx)?;
            let base = usize_of(field(r, "base", ctx)?, ctx)?;
            let fits = jobs
                .get(job)
                .is_some_and(|spec| base <= slots - spec.npus());
            ensure!(fits, "{ctx}: running job {job} at slot {base}");
            let spec = &jobs[job];
            let placement = Placement::with_base(spec.strategy, policy, base);
            let schedule = build_schedule(
                &spec.model,
                spec.strategy,
                &placement,
                &backend,
                spec.params,
            );
            let exec = field(r, "exec", ctx)?;
            let exec = ScheduleExecutor::from_value(Rc::new(schedule), sink.clone(), exec)?;
            running.push(Running { job, base, exec });
        }
        let queues = tuple_of(get("queues")?, 3, ctx)?;
        let queue = |rank: usize| usizes_of(&queues[rank], ctx).map(VecDeque::from);
        let slot_owners = arr_of(get("slot_owners")?, ctx)?.iter().map(non_null);
        let slot_owners = slot_owners
            .map(|o| o.map(|j| usize_of(j, ctx)).transpose())
            .collect::<Result<_, _>>()?;
        let first_start = arr_of(get("first_start")?, ctx)?.iter().map(non_null);
        let first_start = first_start
            .map(|t| t.map(|t| time_of(t, ctx)).transpose())
            .collect::<Result<_, _>>()?;
        let tracing = sink.enabled();
        let dropped_baseline = sink.dropped();
        let cluster = Cluster {
            cfg,
            jobs,
            backend,
            policy,
            net,
            sink,
            tracing,
            dropped_baseline,
            slotmap: SlotMap::new(slots),
            queues: [queue(0)?, queue(1)?, queue(2)?],
            running,
            order,
            arrival_cursor: usize_of(get("arrival_cursor")?, ctx)?,
            next_tag_base: u64_of(get("next_tag_base")?, ctx)?,
            first_start,
            completion: times_of(get("completion")?, ctx)?,
            preempt_count: u32s_of(get("preempt_count")?, ctx)?,
            fault_cursor: usizes_of(get("fault_cursor")?, ctx)?,
            done_count: usize_of(get("done_count")?, ctx)?,
            busy_npu_secs: f64_of(get("busy_npu_secs")?, ctx)?,
        };
        Ok(cluster.check_restored(slot_owners)?)
    }

    /// The cross-layer invariants [`Cluster::restore`] promises, on a
    /// freshly decoded cluster; adopts `slot_owners` once they agree
    /// with the running jobs.
    fn check_restored(mut self, slot_owners: Vec<Option<usize>>) -> Result<Cluster, SnapshotError> {
        let n = self.jobs.len();
        let per_job = [
            self.first_start.len(),
            self.completion.len(),
            self.preempt_count.len(),
            self.fault_cursor.len(),
        ];
        let shaped = per_job == [n; 4] && self.arrival_cursor <= n;
        ensure!(shaped, "cluster: per-job state not {n} long");
        // Every admitted job is exactly one of running, queued or done;
        // running jobs own exactly their carve-outs.
        let mut admitted = vec![false; n];
        for &j in &self.order[..self.arrival_cursor] {
            admitted[j] = true;
        }
        let mut placed = vec![false; n];
        let mut owners = vec![None; self.slotmap.slots()];
        for r in &self.running {
            let j = r.job;
            let ok = admitted[j] && !placed[j] && self.first_start[j].is_some();
            ensure!(ok, "cluster: running job {j} not admitted once");
            placed[j] = true;
            for owner in &mut owners[r.base..r.base + self.jobs[j].npus()] {
                ensure!(owner.replace(j).is_none(), "cluster: job {j} overlaps");
            }
        }
        ensure!(owners == slot_owners, "cluster: slot owners disagree");
        self.slotmap = SlotMap::from_owners(owners);
        for &j in self.queues.iter().flatten() {
            let idle = j < n && admitted[j] && !placed[j];
            ensure!(idle, "cluster: queued job {j} not admitted once");
            placed[j] = true;
        }
        let done = (0..n).filter(|&j| admitted[j] && !placed[j]);
        let started = done.clone().all(|j| self.first_start[j].is_some());
        ensure!(
            started && done.count() == self.done_count,
            "cluster: done count"
        );
        let now = self.net.now();
        let past = self.first_start.iter().flatten().all(|&t| t <= now);
        ensure!(past, "cluster: a job started after the clock");
        for (j, spec) in self.jobs.iter().enumerate() {
            let ok = self.fault_cursor[j] <= spec.faults.events().len();
            ensure!(ok, "cluster: job {j} fault cursor");
        }
        // Executors: disjoint tag ranges in placement order, no compute
        // finish before the clock, and exactly the flows they await in
        // the network.
        let mut in_flight: BTreeMap<u64, usize> = BTreeMap::new();
        for tag in self.net.in_flight_tags() {
            *in_flight.entry(tag).or_default() += 1;
        }
        let mut tag_floor = 0;
        for r in &self.running {
            let end = r.exec.tag_end();
            let base = end - r.exec.total_tasks() as u64;
            let timely = r.exec.next_compute_time().is_none_or(|t| t >= now);
            let disjoint = base >= tag_floor && end <= self.next_tag_base;
            ensure!(timely && disjoint, "cluster: job {} out of step", r.job);
            tag_floor = end;
            let mine = in_flight.range(base + 1..).take_while(|(&t, _)| t <= end);
            let carried: BTreeMap<u64, usize> = mine.map(|(&t, &c)| (t, c)).collect();
            let awaited = carried == r.exec.awaited_tags();
            ensure!(awaited, "cluster: job {} flows out of step", r.job);
        }
        Ok(self)
    }

    /// Scheduler-state gauges for the flight recorder: per-class queue
    /// depth, running jobs, occupied slots and the cumulative
    /// preemption count. One sample per event instant — the recorder
    /// coalesces same-window updates, so this stays cheap even on
    /// event-dense runs.
    fn emit_sched_samples(&self, now: Time) {
        if !self.tracing {
            return;
        }
        let t = now.as_secs();
        for (rank, q) in self.queues.iter().enumerate() {
            let class = JobClass::ALL[rank].name();
            self.sink.record(TraceEvent::Sample {
                t,
                key: format!("queue_depth/{class}").into(),
                value: q.len() as f64,
            });
        }
        self.sink.record(TraceEvent::Sample {
            t,
            key: "running_jobs".into(),
            value: self.running.len() as f64,
        });
        self.sink.record(TraceEvent::Sample {
            t,
            key: "slots_used".into(),
            value: self.slotmap.used() as f64,
        });
        self.sink.record(TraceEvent::Sample {
            t,
            key: "preemptions_total".into(),
            value: self.preempt_count.iter().map(|&c| c as u64).sum::<u64>() as f64,
        });
    }

    fn train_err(&self, job: usize, err: TrainError) -> ClusterError {
        ClusterError::Train {
            job: self.jobs[job].name.clone(),
            err,
        }
    }

    /// Moves every job with `arrival <= now` from the arrival stream
    /// into its class queue.
    fn admit_arrivals(&mut self, now: Time) {
        while let Some(&j) = self.order.get(self.arrival_cursor) {
            if self.jobs[j].arrival > now {
                break;
            }
            self.arrival_cursor += 1;
            let rank = self.jobs[j].class.tenant_rank() as usize;
            self.queues[rank].push_back(j);
            if self.tracing {
                self.sink.record(TraceEvent::IterStage {
                    t: now.as_secs(),
                    label: format!(
                        "job {} queued ({})",
                        self.jobs[j].name,
                        self.jobs[j].class.name()
                    )
                    .into(),
                });
            }
        }
    }

    /// Places queued jobs: classes High→Low, FIFO head-of-line within
    /// a class, lower classes backfilling past a blocked head. Falls
    /// back to preemption for the highest blocked head when enabled.
    fn dispatch(&mut self) -> Result<(), ClusterError> {
        let _prof = fred_telemetry::prof::scope("cluster.dispatch");
        loop {
            let mut placed_any = false;
            for rank in 0..self.queues.len() {
                while let Some(&job) = self.queues[rank].front() {
                    let width = self.jobs[job].npus();
                    let Some(base) = self.slotmap.find(width, self.cfg.fit) else {
                        break;
                    };
                    self.queues[rank].pop_front();
                    self.start_job(job, base, width)?;
                    placed_any = true;
                }
            }
            if placed_any {
                continue;
            }
            if self.cfg.preemption {
                // The highest-class blocked head gets one preemption
                // attempt per round.
                let head =
                    (0..self.queues.len()).find_map(|r| self.queues[r].front().map(|&j| (r, j)));
                if let Some((rank, job)) = head {
                    if self.try_preempt_for(rank, job)? {
                        continue;
                    }
                }
            }
            return Ok(());
        }
    }

    /// Searches for a `width`-slot window freeable by evicting only
    /// strictly-lower-class jobs, minimizing (victim count, base).
    fn preempt_window(&self, width: usize, rank: usize) -> Option<(usize, Vec<usize>)> {
        let _prof = fred_telemetry::prof::scope("cluster.preempt_window");
        let slots = self.slotmap.slots();
        let mut best: Option<(usize, usize, Vec<usize>)> = None;
        for base in 0..=slots.saturating_sub(width) {
            let mut victims: BTreeSet<usize> = BTreeSet::new();
            let mut ok = true;
            for s in base..base + width {
                match self.slotmap.owner_of(s) {
                    None => {}
                    Some(j) => {
                        if (self.jobs[j].class.tenant_rank() as usize) > rank {
                            victims.insert(j);
                        } else {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if !ok || victims.is_empty() {
                continue;
            }
            let cand = (victims.len(), base, victims.into_iter().collect::<Vec<_>>());
            if best.as_ref().is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                best = Some(cand);
            }
        }
        best.map(|(_, base, victims)| (base, victims))
    }

    /// Preempts strictly-lower-class jobs to place the head `job` of
    /// class-rank `rank`. Returns whether a placement happened.
    fn try_preempt_for(&mut self, rank: usize, job: usize) -> Result<bool, ClusterError> {
        let width = self.jobs[job].npus();
        let Some((base, mut victims)) = self.preempt_window(width, rank) else {
            return Ok(false);
        };
        // Requeue victims at the *front* of their class queues so they
        // restart before anything that arrived after them; pushing in
        // reverse arrival order keeps the earliest arrival frontmost.
        victims.sort_by(|&a, &b| {
            self.jobs[a]
                .arrival
                .partial_cmp(&self.jobs[b].arrival)
                .expect("finite arrival time")
                .then(a.cmp(&b))
        });
        for &v in victims.iter().rev() {
            self.preempt(v);
        }
        let head = self.queues[rank].pop_front();
        debug_assert_eq!(head, Some(job));
        self.start_job(job, base, width)?;
        Ok(true)
    }

    /// Evicts a running job: its in-flight flows are removed from the
    /// network (bytes moved so far are lost — the iteration restarts
    /// from scratch), its slots freed, and the job requeued at the
    /// front of its class.
    fn preempt(&mut self, job: usize) {
        let pos = self
            .running
            .iter()
            .position(|r| r.job == job)
            .expect("victim is running");
        let r = self.running.remove(pos);
        // Drop the evictees: a preempted job does not resume mid-flow,
        // and its retired tag range routes to no executor, so any
        // completion notices already in the pipeline are dropped too.
        let _ = self.net.evict_flows_matching(|tag| r.exec.owns_tag(tag));
        self.slotmap.release(job);
        self.preempt_count[job] += 1;
        let rank = self.jobs[job].class.tenant_rank() as usize;
        self.queues[rank].push_front(job);
        if self.tracing {
            self.sink.record(TraceEvent::IterStage {
                t: self.net.now().as_secs(),
                label: format!("job {} preempted", self.jobs[job].name).into(),
            });
        }
    }

    /// Builds, places and settles one job at `base`, on a fresh tag
    /// range.
    fn start_job(&mut self, job: usize, base: usize, width: usize) -> Result<(), ClusterError> {
        let spec = &self.jobs[job];
        let placement = Placement::with_base(spec.strategy, self.policy, base);
        let schedule = build_schedule(
            &spec.model,
            spec.strategy,
            &placement,
            &self.backend,
            spec.params,
        );
        let cfg = ExecConfig {
            tag_base: self.next_tag_base,
            tenant: spec.class.tenant_rank(),
            label: Some(spec.name.clone()),
        };
        let mut exec = ScheduleExecutor::new(Rc::new(schedule), cfg, self.sink.clone());
        self.next_tag_base = exec.tag_end();
        self.slotmap.occupy(base, width, job);
        if self.first_start[job].is_none() {
            self.first_start[job] = Some(self.net.now());
        }
        if self.tracing {
            self.sink.record(TraceEvent::IterStage {
                t: self.net.now().as_secs(),
                label: format!(
                    "job {} start @ slots {}..{}",
                    self.jobs[job].name,
                    base,
                    base + width
                )
                .into(),
            });
        }
        if let Err(e) = exec.settle(&mut self.net, &self.backend) {
            return Err(self.train_err(job, e));
        }
        self.running.push(Running { job, base, exec });
        Ok(())
    }

    /// Earliest pending fault across running jobs. Due times are
    /// job-relative offsets from *first* start; overdue events (a
    /// restart catching up) clamp to `now`.
    fn next_fault_time(&self, now: Time) -> Option<Time> {
        self.running
            .iter()
            .filter_map(|r| {
                let j = r.job;
                let ev = self.jobs[j].faults.events().get(self.fault_cursor[j])?;
                let start = self.first_start[j].expect("running job has started");
                Some(Time::from_secs(start.as_secs() + ev.at.as_secs()).max(now))
            })
            .min()
    }

    /// Fires every fault due by `now` across running jobs; evicted
    /// flows are re-routed over surviving links and re-injected with
    /// their remaining bytes, tags and tenants intact (they may belong
    /// to *any* job whose route crossed the failed link).
    fn fire_faults(&mut self, now: Time) -> Result<(), ClusterError> {
        let mut evicted: Vec<FlowSpec> = Vec::new();
        for k in 0..self.running.len() {
            let j = self.running[k].job;
            if self.jobs[j].faults.is_empty() {
                continue;
            }
            let start = self.first_start[j].expect("running job has started");
            while let Some(ev) = self.jobs[j].faults.events().get(self.fault_cursor[j]) {
                if Time::from_secs(start.as_secs() + ev.at.as_secs()) > now {
                    break;
                }
                self.fault_cursor[j] += 1;
                evicted.extend(ev.apply(&mut self.net).into_iter().map(|e| {
                    FlowSpec::new(e.route, e.remaining_bytes)
                        .with_priority(e.priority)
                        .with_tag(e.tag)
                        .with_tenant(e.tenant)
                }));
            }
        }
        if !evicted.is_empty() {
            let flows = repair_flows(&self.net, &self.backend, evicted)
                .map_err(|e| self.train_err_anon(e))?;
            self.net
                .inject_batch(flows)
                .map_err(|e| self.train_err_anon(TrainError::Route(e)))?;
        }
        Ok(())
    }

    /// A train error not attributable to a single job (fault
    /// re-injection can carry many jobs' flows).
    fn train_err_anon(&self, err: TrainError) -> ClusterError {
        ClusterError::Train {
            job: "<fault re-injection>".into(),
            err,
        }
    }

    /// Routes a flow completion to the owning executor by tag range.
    /// Unowned tags (foreign, or retired by preemption) are dropped.
    fn route_completion(&mut self, tag: u64) -> Result<(), ClusterError> {
        if tag == 0 {
            return Ok(());
        }
        let Some(k) = self.running.iter().position(|r| r.exec.owns_tag(tag)) else {
            return Ok(());
        };
        let job = self.running[k].job;
        if let Err(e) = self.running[k].exec.handle_completion(tag) {
            return Err(self.train_err(job, e));
        }
        Ok(())
    }

    /// Frees the slots of every executor that just finished and
    /// records its completion.
    fn retire_finished(&mut self) {
        let mut k = 0;
        while k < self.running.len() {
            if !self.running[k].exec.is_done() {
                k += 1;
                continue;
            }
            let r = self.running.remove(k);
            self.slotmap.release(r.job);
            self.completion[r.job] = r.exec.completion_time();
            self.done_count += 1;
            if self.tracing {
                self.sink.record(TraceEvent::IterStage {
                    t: self.net.now().as_secs(),
                    label: format!("job {} finished", self.jobs[r.job].name).into(),
                });
            }
        }
    }

    /// Builds the report; solo makespans (the stretch denominator) run
    /// each distinct (model, strategy, params) once on a private
    /// network of the same fabric. Meaningful once
    /// [`Cluster::is_done`].
    pub fn into_report(self) -> ClusterReport {
        let mut solo_cache: BTreeMap<String, f64> = BTreeMap::new();
        let mut records = Vec::with_capacity(self.jobs.len());
        let mut makespan = Time::ZERO;
        for (j, spec) in self.jobs.iter().enumerate() {
            let key = format!(
                "{}|{}|{}x{}",
                spec.model.name, spec.strategy, spec.params.minibatch, spec.params.microbatches
            );
            let solo_secs = *solo_cache.entry(key).or_insert_with(|| {
                simulate(&spec.model, spec.strategy, &self.backend, spec.params)
                    .expect("solo reference run completes on a healthy fabric")
                    .total
                    .as_secs()
            });
            let completion = self.completion[j];
            makespan = makespan.max(completion);
            records.push(JobRecord {
                name: spec.name.clone(),
                class: spec.class,
                npus: spec.npus(),
                arrival: spec.arrival,
                first_start: self.first_start[j].expect("every job completed"),
                completion,
                preemptions: self.preempt_count[j],
                solo_secs,
            });
        }
        if self.tracing {
            // Per-tenant stretch is only knowable here (the solo
            // denominator was just computed); emit one sample per job
            // completion, time-ordered so series stay monotone.
            let mut by_completion: Vec<&JobRecord> = records.iter().collect();
            by_completion.sort_by(|a, b| {
                a.completion
                    .as_secs()
                    .partial_cmp(&b.completion.as_secs())
                    .expect("finite completion")
            });
            for r in by_completion {
                self.sink.record(TraceEvent::Sample {
                    t: r.completion.as_secs(),
                    key: format!("stretch/{}", r.class.name()).into(),
                    value: r.stretch(),
                });
            }
        }
        let dropped_events = self.sink.dropped().saturating_sub(self.dropped_baseline);
        if dropped_events > 0 {
            eprintln!(
                "warning: cluster trace dropped {dropped_events} events (ring full); \
                 stretch/queue series and traces are truncated"
            );
        }
        ClusterReport {
            fabric: self.cfg.fabric.name().into(),
            fit: self.cfg.fit.name().into(),
            preemption: self.cfg.preemption,
            records,
            makespan,
            npu_slots: self.slotmap.slots(),
            busy_npu_secs: self.busy_npu_secs,
            preemptions: self.preempt_count.iter().sum(),
            dropped_events,
        }
    }
}

/// A captured [`Cluster`]: the [`Value`] tree [`Cluster::snapshot`]
/// writes — the shared network, scheduler bookkeeping, and every
/// running job's executor with its placement base. It pairs with the
/// config and job list it was captured under; [`Cluster::restore`]
/// decodes it against them.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterState(Value);

impl ClusterState {
    /// The snapshot's value tree, for the shared codec.
    pub fn to_value(&self) -> Value {
        self.0.clone()
    }

    /// Wraps a decoded value tree; [`Cluster::restore`] checks its
    /// contents against the config and job list.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] unless `v` is an object.
    pub fn from_value(v: &Value) -> Result<ClusterState, SnapshotError> {
        ensure!(matches!(v, Value::Obj(_)), "cluster: expected an object");
        Ok(ClusterState(v.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;
    use fred_core::placement::Strategy3D;
    use fred_workloads::model::DnnModel;
    use fred_workloads::schedule::ScheduleParams;

    fn resnet_job(name: &str, dp: usize) -> JobSpec {
        let model = DnnModel::resnet152();
        let strategy = Strategy3D::new(1, dp, 1);
        let params = ScheduleParams::sweep_default(&model, strategy);
        JobSpec::new(name, model, strategy, params)
    }

    #[test]
    fn solo_high_job_matches_standalone_trainer_bit_for_bit() {
        for fabric in [FabricConfig::BaselineMesh, FabricConfig::FredD] {
            let job = resnet_job("solo", 4).with_class(JobClass::High);
            let backend = FabricBackend::new(fabric);
            let solo = simulate(&job.model, job.strategy, &backend, job.params).unwrap();
            let report = run_cluster(&ClusterConfig::new(fabric), vec![job]).unwrap();
            let rec = &report.records[0];
            assert_eq!(
                rec.service_secs(),
                solo.total.as_secs(),
                "{} cluster-of-one diverged from simulate()",
                fabric.name()
            );
            assert_eq!(rec.queueing_delay_secs(), 0.0);
            assert_eq!(rec.stretch(), 1.0);
            assert_eq!(report.preemptions, 0);
        }
    }

    #[test]
    fn two_disjoint_jobs_run_concurrently() {
        let jobs = vec![resnet_job("a", 4), resnet_job("b", 4)];
        let report = run_cluster(&ClusterConfig::new(FabricConfig::FredD), jobs).unwrap();
        // Both start at t=0 (20 slots, 4+4 fit side by side).
        for rec in &report.records {
            assert_eq!(rec.queueing_delay_secs(), 0.0);
        }
        assert!(report.utilization() > 0.0);
    }

    #[test]
    fn queueing_delay_appears_when_the_fabric_is_full() {
        // Three 8-wide jobs on 20 slots: two fit, the third queues.
        let jobs = vec![resnet_job("a", 8), resnet_job("b", 8), resnet_job("c", 8)];
        let report = run_cluster(&ClusterConfig::new(FabricConfig::FredD), jobs).unwrap();
        let delayed: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.queueing_delay_secs() > 0.0)
            .collect();
        assert_eq!(delayed.len(), 1, "exactly one job should queue");
        assert_eq!(delayed[0].name, "c");
    }

    #[test]
    fn high_arrival_preempts_a_low_job() {
        // Fill the fabric with Low jobs, then a High job arrives.
        let low_a = resnet_job("low-a", 10).with_class(JobClass::Low);
        let low_b = resnet_job("low-b", 10).with_class(JobClass::Low);
        let backend = FabricBackend::new(FabricConfig::FredD);
        let solo = simulate(&low_a.model, low_a.strategy, &backend, low_a.params).unwrap();
        let high = resnet_job("high", 10)
            .with_class(JobClass::High)
            .with_arrival(Time::from_secs(solo.total.as_secs() * 0.25));
        let report = run_cluster(
            &ClusterConfig::new(FabricConfig::FredD),
            vec![low_a, low_b, high],
        )
        .unwrap();
        assert_eq!(report.preemptions, 1);
        let high_rec = report.records.iter().find(|r| r.name == "high").unwrap();
        assert_eq!(
            high_rec.queueing_delay_secs(),
            0.0,
            "preemption should start the High job immediately"
        );
        let victim = report
            .records
            .iter()
            .find(|r| r.preemptions == 1)
            .expect("one victim");
        assert_eq!(victim.class, JobClass::Low);
        // The victim restarted and still finished.
        assert!(victim.completion > high_rec.first_start);
    }

    #[test]
    fn preemption_disabled_queues_the_high_job_instead() {
        let low_a = resnet_job("low-a", 10).with_class(JobClass::Low);
        let low_b = resnet_job("low-b", 10).with_class(JobClass::Low);
        let backend = FabricBackend::new(FabricConfig::FredD);
        let solo = simulate(&low_a.model, low_a.strategy, &backend, low_a.params).unwrap();
        let high = resnet_job("high", 10)
            .with_class(JobClass::High)
            .with_arrival(Time::from_secs(solo.total.as_secs() * 0.25));
        let report = run_cluster(
            &ClusterConfig::new(FabricConfig::FredD).with_preemption(false),
            vec![low_a, low_b, high],
        )
        .unwrap();
        assert_eq!(report.preemptions, 0);
        let high_rec = report.records.iter().find(|r| r.name == "high").unwrap();
        assert!(high_rec.queueing_delay_secs() > 0.0);
    }

    #[test]
    fn weight_streaming_jobs_are_rejected() {
        let model = DnnModel::gpt3();
        let strategy = Strategy3D::new(1, 1, 2);
        let params = ScheduleParams::sweep_default(&model, strategy);
        let err = run_cluster(
            &ClusterConfig::new(FabricConfig::FredD),
            vec![JobSpec::new("g", model, strategy, params)],
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::UnsupportedExecution { .. }));
    }

    #[test]
    fn too_wide_jobs_are_rejected() {
        let err = run_cluster(
            &ClusterConfig::new(FabricConfig::FredD),
            vec![resnet_job("wide", 21)],
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::JobTooWide { npus: 21, .. }));
    }

    #[test]
    fn snapshot_restore_mid_preemption_run_is_bit_identical() {
        use fred_telemetry::sink::NullSink;
        // Same shape as the preemption test: the High arrival at 25%
        // of the Low solo time forces an eviction; capturing right
        // before it exercises restore with queued + running jobs and
        // in-flight flows.
        let low_a = resnet_job("low-a", 10).with_class(JobClass::Low);
        let low_b = resnet_job("low-b", 10).with_class(JobClass::Low);
        let backend = FabricBackend::new(FabricConfig::FredD);
        let solo = simulate(&low_a.model, low_a.strategy, &backend, low_a.params).unwrap();
        let high_at = solo.total.as_secs() * 0.25;
        let mk = || {
            vec![
                low_a.clone(),
                low_b.clone(),
                resnet_job("high", 10)
                    .with_class(JobClass::High)
                    .with_arrival(Time::from_secs(high_at)),
            ]
        };
        let cfg = ClusterConfig::new(FabricConfig::FredD);
        let reference = run_cluster(&cfg, mk()).unwrap();
        for frac in [0.2, 0.5] {
            let mut cluster = Cluster::new(cfg.clone(), mk(), Rc::new(NullSink)).unwrap();
            cluster
                .run_until(Time::from_secs(high_at * frac / 0.25))
                .unwrap();
            let state = cluster.snapshot();
            // Through the full codec: Value -> binary -> Value -> state.
            let bytes = fred_sim::codec::to_binary(&state.to_value());
            let decoded =
                ClusterState::from_value(&fred_sim::codec::from_binary(&bytes).unwrap()).unwrap();
            assert_eq!(decoded, state);
            let mut resumed =
                Cluster::restore(cfg.clone(), mk(), Rc::new(NullSink), decoded).unwrap();
            // The restored stack re-captures identically.
            assert_eq!(resumed.snapshot(), state);
            resumed.run_to_completion().unwrap();
            let report = resumed.into_report();
            assert_eq!(report.makespan, reference.makespan, "frac {frac}");
            assert_eq!(report.busy_npu_secs, reference.busy_npu_secs);
            assert_eq!(report.preemptions, reference.preemptions);
            for (a, b) in report.records.iter().zip(&reference.records) {
                assert_eq!(a.first_start, b.first_start);
                assert_eq!(
                    a.completion.as_secs().to_bits(),
                    b.completion.as_secs().to_bits(),
                    "job {} diverged after restore at frac {frac}",
                    a.name
                );
                assert_eq!(a.preemptions, b.preemptions);
            }
        }
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let mk = || {
            vec![
                resnet_job("a", 4).with_class(JobClass::Normal),
                resnet_job("b", 8).with_class(JobClass::Low),
                resnet_job("c", 10)
                    .with_class(JobClass::High)
                    .with_arrival(Time::from_secs(1e-4)),
            ]
        };
        let cfg = ClusterConfig::new(FabricConfig::FredD).with_fit(FitPolicy::BestFit);
        let r1 = run_cluster(&cfg, mk()).unwrap();
        let r2 = run_cluster(&cfg, mk()).unwrap();
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.busy_npu_secs, r2.busy_npu_secs);
        for (a, b) in r1.records.iter().zip(&r2.records) {
            assert_eq!(a.first_start, b.first_start);
            assert_eq!(a.completion, b.completion);
            assert_eq!(a.preemptions, b.preemptions);
        }
    }
}
