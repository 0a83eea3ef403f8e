//! Resumable schedule execution against a shared network.
//!
//! [`ScheduleExecutor`] is the trainer's event loop factored into a
//! state machine that does not own the clock: it reacts to flow
//! completions and due compute finishes pushed in by a driver, and
//! stages/injects its own flows into a [`FlowNetwork`] it is handed by
//! reference. Two drivers exist:
//!
//! * [`crate::trainer::run_iteration_faulted`] — one executor, one
//!   private network: the classic single-job iteration. The driver is a
//!   thin loop around the executor, so the refactor is structurally
//!   bit-identical to the pre-executor trainer.
//! * `fred-cluster`'s scheduler — many executors interleaved through
//!   one shared network under a single global clock, each namespaced by
//!   a disjoint correlation-tag range and a tenant rank.
//!
//! Namespacing: flows are tagged `tag_base + task_index + 1` (tag 0
//! stays the "foreign flow" sentinel) and carry the executor's tenant
//! rank, so the allocator isolates tenants and completions route back
//! to the owning executor by tag range alone.

use std::collections::BTreeMap;
use std::rc::Rc;

use fred_sim::codec::{SnapshotError, Value};
use fred_sim::ensure;
use fred_sim::events::EventQueue;
use fred_sim::flow::FlowSpec;
use fred_sim::netsim::FlowNetwork;
use fred_sim::snapshot::{
    arr_of, bools, bools_of, field, flow_spec_from_value, flow_spec_to_value, tenant_of, time_of,
    times, times_of, tuple_of, u64_of, usize_of, usizes, usizes_of, v_time, v_u64,
};
use fred_sim::time::Time;
use fred_sim::topology::LinkId;
use fred_telemetry::event::{next_span_id, TraceEvent, Track};
use fred_telemetry::sink::TraceSink;

use crate::backend::FabricBackend;
use crate::error::{PendingTask, TrainError};
use crate::schedule::{Schedule, TaskBody, TaskId};
use crate::trainer::track_of_comm;

/// Per-task timing from one simulated iteration.
#[derive(Debug, Clone)]
pub struct IterationTiming {
    /// Start time per task.
    pub start: Vec<Time>,
    /// Finish time per task.
    pub finish: Vec<Time>,
    /// End-to-end iteration time.
    pub makespan: Time,
}

#[derive(Debug)]
struct CommState {
    phase: usize,
    outstanding: usize,
}

/// Maps a flow-completion tag back to the comm-task index. The trainer
/// tags flows with `task index + 1`; tag 0 is reserved for untagged
/// (foreign) flows and maps to no task.
pub fn comm_task_of_tag(tag: u64) -> Option<usize> {
    tag.checked_sub(1).map(|v| v as usize)
}

/// Re-routes any of `flows` whose route crosses a failed link onto a
/// surviving path (fabric-aware when both endpoints are NPUs, generic
/// BFS otherwise). A no-op returning the flows untouched when the
/// network has no failed links — the zero-fault code path stays
/// bit-identical. Priority, tag and tenant are preserved.
pub fn repair_flows(
    net: &FlowNetwork,
    backend: &FabricBackend,
    flows: Vec<FlowSpec>,
) -> Result<Vec<FlowSpec>, TrainError> {
    if !net.any_link_failed() {
        return Ok(flows);
    }
    let blocked = |l: LinkId| net.is_link_failed(l);
    let topo = net.topology();
    let mut out = Vec::with_capacity(flows.len());
    for f in flows {
        if !f.route.iter().any(|&l| blocked(l)) {
            out.push(f);
            continue;
        }
        let task = comm_task_of_tag(f.tag).map(TaskId);
        let src = topo.link(f.route[0]).src;
        let dst = topo.link(*f.route.last().expect("non-empty route")).dst;
        let detour = match (backend.npu_index(src), backend.npu_index(dst)) {
            (Some(a), Some(b)) => backend.npu_route_avoiding(a, b, blocked),
            _ => topo.shortest_path_avoiding(src, dst, blocked),
        }
        .ok_or(TrainError::Unroutable { task })?;
        out.push(
            FlowSpec::new(detour, f.bytes)
                .with_priority(f.priority)
                .with_tag(f.tag)
                .with_tenant(f.tenant),
        );
    }
    Ok(out)
}

/// Identity of one executor within a shared network: its tag namespace,
/// tenant rank and (optional) telemetry label prefix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecConfig {
    /// Flows are tagged `tag_base + task_index + 1`; drivers sharing a
    /// network give each executor a disjoint range of
    /// `schedule.tasks.len()` tags starting at `tag_base + 1`. Zero for
    /// single-job runs (the classic trainer tags).
    pub tag_base: u64,
    /// Tenant rank stamped on every flow (0 = highest precedence; see
    /// [`FlowSpec::tenant`]). Zero for single-job runs.
    pub tenant: u8,
    /// Telemetry span-label prefix (`"<prefix>/<label>"`), so per-job
    /// attribution stays readable in shared traces. `None` keeps the
    /// classic single-job labels byte-for-byte.
    pub label: Option<String>,
}

/// The trainer's dependency-driven event loop as a resumable state
/// machine over an external clock. See the [module docs](self) for the
/// driver contract.
#[derive(Debug)]
pub struct ScheduleExecutor {
    schedule: Rc<Schedule>,
    cfg: ExecConfig,
    sink: Rc<dyn TraceSink>,
    tracing: bool,
    indegree: Vec<usize>,
    dependents: Vec<Vec<TaskId>>,
    start: Vec<Time>,
    finish: Vec<Time>,
    done: Vec<bool>,
    comm: BTreeMap<usize, CommState>,
    compute_queue: EventQueue<usize>,
    completed: usize,
    // Open span per running task / persistent span id per task
    // (telemetry only; the id survives PhaseEnd so dependency edges can
    // reference predecessors that already finished).
    spans: Vec<Option<u64>>,
    span_ids: Vec<u64>,
    ready_stack: Vec<usize>,
    finished_now: Vec<usize>,
    /// Flows staged by comm tasks at the current timestep, injected as
    /// one batch (one solver delta) by the next flush.
    staged: Vec<FlowSpec>,
}

impl ScheduleExecutor {
    /// Creates an executor with every dependency-free task ready to
    /// start. Nothing touches the network until the first
    /// [`ScheduleExecutor::settle`].
    pub fn new(schedule: Rc<Schedule>, cfg: ExecConfig, sink: Rc<dyn TraceSink>) -> Self {
        let n = schedule.tasks.len();
        let indegree: Vec<usize> = schedule.tasks.iter().map(|t| t.deps.len()).collect();
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (i, t) in schedule.tasks.iter().enumerate() {
            for d in &t.deps {
                dependents[d.0].push(TaskId(i));
            }
        }
        // Tasks with no dependencies start in schedule order; the stack
        // pops them back-to-front exactly like the classic trainer.
        let ready_stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        for &i in &ready_stack {
            debug_assert_eq!(indegree[i], 0);
        }
        let tracing = sink.enabled();
        ScheduleExecutor {
            schedule,
            cfg,
            sink,
            tracing,
            indegree,
            dependents,
            start: vec![Time::ZERO; n],
            finish: vec![Time::ZERO; n],
            done: vec![false; n],
            comm: BTreeMap::new(),
            compute_queue: EventQueue::new(),
            completed: 0,
            spans: vec![None; n],
            span_ids: vec![0; n],
            ready_stack,
            finished_now: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// Encodes every piece of mutable executor state; restoring it with
    /// [`ScheduleExecutor::from_value`] against the same schedule
    /// resumes bit-identically. Telemetry spans are not encoded: traces
    /// restart at the restore point, so running tasks resume without an
    /// open span (dependency edges skip the zero sentinel).
    pub fn to_value(&self) -> Value {
        let comm = self.comm.iter().map(|(&i, c)| {
            Value::Arr(vec![
                v_u64(i as u64),
                v_u64(c.phase as u64),
                v_u64(c.outstanding as u64),
            ])
        });
        let queue = self
            .compute_queue
            .entries()
            .into_iter()
            .map(|(at, seq, task)| Value::Arr(vec![v_time(at), v_u64(seq), v_u64(task as u64)]));
        let label = match &self.cfg.label {
            Some(l) => Value::Str(l.clone()),
            None => Value::Null,
        };
        Value::Obj(vec![
            ("tag_base".into(), v_u64(self.cfg.tag_base)),
            ("tenant".into(), v_u64(u64::from(self.cfg.tenant))),
            ("label".into(), label),
            ("indegree".into(), usizes(&self.indegree)),
            ("start".into(), times(&self.start)),
            ("finish".into(), times(&self.finish)),
            ("done".into(), bools(&self.done)),
            ("comm".into(), Value::Arr(comm.collect())),
            ("compute_queue".into(), Value::Arr(queue.collect())),
            (
                "compute_next_seq".into(),
                v_u64(self.compute_queue.next_seq()),
            ),
            ("completed".into(), v_u64(self.completed as u64)),
            ("ready_stack".into(), usizes(&self.ready_stack)),
            ("finished_now".into(), usizes(&self.finished_now)),
            (
                "staged".into(),
                Value::Arr(self.staged.iter().map(flow_spec_to_value).collect()),
            ),
        ])
    }

    /// Rebuilds an executor from [`ScheduleExecutor::to_value`] and the
    /// schedule it was captured against.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] when a field is missing or ill-typed,
    /// or the state does not pair with `schedule` (DESIGN.md §12.1).
    pub fn from_value(
        schedule: Rc<Schedule>,
        sink: Rc<dyn TraceSink>,
        v: &Value,
    ) -> Result<Self, SnapshotError> {
        let ctx = "exec";
        let get = |key: &str| field(v, key, ctx);
        let label = match get("label")? {
            Value::Null => None,
            Value::Str(s) => Some(s.clone()),
            _ => return Err(SnapshotError::Mismatch("exec.label: not a string".into())),
        };
        let tag_base = u64_of(get("tag_base")?, ctx)?;
        let tenant = tenant_of(get("tenant")?, ctx)?;
        let n = schedule.tasks.len();
        let fits = tag_base.checked_add(n as u64 + 1).is_some();
        ensure!(fits, "{ctx}: tag base {tag_base} overflows");
        let cfg = ExecConfig {
            tag_base,
            tenant,
            label,
        };
        let mut exec = ScheduleExecutor::new(schedule, cfg, sink);
        exec.indegree = usizes_of(get("indegree")?, ctx)?;
        exec.start = times_of(get("start")?, ctx)?;
        exec.finish = times_of(get("finish")?, ctx)?;
        exec.done = bools_of(get("done")?, ctx)?;
        let per_task = [
            exec.indegree.len(),
            exec.start.len(),
            exec.finish.len(),
            exec.done.len(),
        ];
        ensure!(per_task == [n; 4], "{ctx}: per-task vectors not {n} long");
        exec.completed = usize_of(get("completed")?, ctx)?;
        exec.ready_stack = usizes_of(get("ready_stack")?, ctx)?;
        exec.finished_now = usizes_of(get("finished_now")?, ctx)?;
        let staged = arr_of(get("staged")?, ctx)?.iter();
        exec.staged = staged
            .map(|f| flow_spec_from_value(f, ctx))
            .collect::<Result<_, _>>()?;
        let (tasks, done) = (&exec.schedule.tasks, &exec.done);
        let is_comm =
            |i: usize| matches!(tasks.get(i).map(|t| &t.body), Some(TaskBody::Comm { .. }));
        // Tasks underway: in-flight comm cursors and queued computes; the
        // ready stack must not restart one.
        let mut started = vec![false; n];
        for e in arr_of(get("comm")?, ctx)? {
            let e = tuple_of(e, 3, ctx)?;
            let (i, phase, outstanding) = (
                usize_of(&e[0], ctx)?,
                usize_of(&e[1], ctx)?,
                usize_of(&e[2], ctx)?,
            );
            let phases = match tasks.get(i).map(|t| &t.body) {
                Some(TaskBody::Comm { plan, .. }) => Some(plan.phases.len()),
                _ => None,
            };
            let cursor = phases.is_some_and(|p| phase <= p) && !started[i];
            ensure!(cursor, "{ctx}: comm cursor {i}");
            started[i] = true;
            exec.comm.insert(i, CommState { phase, outstanding });
        }
        let mut queued = Vec::new();
        for e in arr_of(get("compute_queue")?, ctx)? {
            let e = tuple_of(e, 3, ctx)?;
            let i = usize_of(&e[2], ctx)?;
            let pending = i < n && !is_comm(i) && !done[i] && !started[i];
            ensure!(pending, "{ctx}: queued compute {i}");
            started[i] = true;
            queued.push((time_of(&e[0], ctx)?, u64_of(&e[1], ctx)?, i));
        }
        let next_seq = u64_of(get("compute_next_seq")?, ctx)?;
        exec.compute_queue = EventQueue::from_entries(queued, next_seq);
        for &i in &exec.ready_stack {
            let ready = i < n && !started[i] && !done[i] && exec.indegree[i] == 0;
            ensure!(ready, "{ctx}: ready task {i}");
            started[i] = true;
        }
        let unfinished = exec.finished_now.iter().all(|&i| i < n && !done[i]);
        ensure!(unfinished, "{ctx}: finished-now task out of range or done");
        for (i, t) in tasks.iter().enumerate() {
            let waiting = t.deps.iter().filter(|d| !done[d.0]).count();
            ensure!(exec.indegree[i] == waiting, "{ctx}: task {i} indegree");
        }
        let done = done.iter().filter(|&&d| d).count();
        ensure!(exec.completed == done, "{ctx}: completed count {done}");
        // Every staged flow belongs to a comm phase still awaiting it.
        let outstanding = exec
            .comm
            .values()
            .fold(0, |n, c| c.outstanding.saturating_add(n));
        let awaited = exec
            .awaited_tags()
            .values()
            .fold(0, |n, &a| a.saturating_add(n));
        let staged_ok = awaited.saturating_add(exec.staged.len()) == outstanding;
        ensure!(staged_ok, "{ctx}: a staged flow no comm phase awaits");
        Ok(exec)
    }

    /// Flows each in-flight comm phase still awaits from the network,
    /// keyed by flow tag: its outstanding count less the flows it has
    /// staged but not yet injected. A driver sharing a network checks
    /// these against [`FlowNetwork::in_flight_tags`] on restore.
    pub fn awaited_tags(&self) -> BTreeMap<u64, usize> {
        let tag = |i: usize| self.cfg.tag_base + i as u64 + 1;
        let mut awaited: BTreeMap<u64, usize> = self
            .comm
            .iter()
            .map(|(&i, c)| (tag(i), c.outstanding))
            .collect();
        for f in &self.staged {
            if let Some(left) = awaited.get_mut(&f.tag) {
                *left = left.saturating_sub(1);
            }
        }
        awaited.retain(|_, left| *left > 0);
        awaited
    }

    /// The schedule being executed.
    pub fn schedule(&self) -> &Rc<Schedule> {
        &self.schedule
    }

    /// Tasks finished so far.
    pub fn completed_count(&self) -> usize {
        self.completed
    }

    /// Total tasks in the schedule.
    pub fn total_tasks(&self) -> usize {
        self.schedule.tasks.len()
    }

    /// Whether every task has finished.
    pub fn is_done(&self) -> bool {
        self.completed == self.schedule.tasks.len()
    }

    /// Whether `tag` belongs to this executor's namespace.
    pub fn owns_tag(&self, tag: u64) -> bool {
        tag > self.cfg.tag_base && tag <= self.cfg.tag_base + self.schedule.tasks.len() as u64
    }

    /// One past the last tag this executor uses (`tag_base +
    /// task_count`); the next executor sharing the network starts its
    /// namespace here.
    pub fn tag_end(&self) -> u64 {
        self.cfg.tag_base + self.schedule.tasks.len() as u64
    }

    /// The earliest pending compute finish, if any.
    pub fn next_compute_time(&self) -> Option<Time> {
        self.compute_queue.peek_time()
    }

    /// Every unfinished task with its unfinished dependencies — the
    /// stall diagnostic payload.
    pub fn pending_tasks(&self) -> Vec<PendingTask> {
        (0..self.schedule.tasks.len())
            .filter(|&i| !self.done[i])
            .map(|i| PendingTask {
                id: TaskId(i),
                blocked_on: self.schedule.tasks[i]
                    .deps
                    .iter()
                    .copied()
                    .filter(|d| !self.done[d.0])
                    .collect(),
            })
            .collect()
    }

    /// The stall error for the current state (no pending events but
    /// unfinished tasks).
    pub fn stalled(&self) -> TrainError {
        TrainError::Stalled {
            completed: self.completed,
            total: self.schedule.tasks.len(),
            pending: self.pending_tasks(),
        }
    }

    /// Per-task timing collected so far. Meaningful once
    /// [`ScheduleExecutor::is_done`]; times are absolute on the shared
    /// clock (a cluster driver subtracts the job's start).
    pub fn timing(&self) -> IterationTiming {
        let makespan = self.finish.iter().copied().max().unwrap_or(Time::ZERO);
        IterationTiming {
            start: self.start.clone(),
            finish: self.finish.clone(),
            makespan,
        }
    }

    /// The instant the last task finished (absolute).
    pub fn completion_time(&self) -> Time {
        self.finish.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// Routes a flow completion with `tag` back into the owning comm
    /// task; the task's next phase is staged when its last outstanding
    /// transfer lands. Tags at or below `tag_base` (foreign/sentinel)
    /// are ignored.
    ///
    /// # Errors
    ///
    /// [`TrainError::UnknownCommTag`] if the tag is in this executor's
    /// namespace arithmetic but maps to no in-flight comm task.
    pub fn handle_completion(&mut self, tag: u64) -> Result<(), TrainError> {
        let Some(i) = tag
            .checked_sub(self.cfg.tag_base)
            .and_then(comm_task_of_tag)
        else {
            return Ok(());
        };
        let Some(state) = self.comm.get_mut(&i) else {
            return Err(TrainError::UnknownCommTag { tag });
        };
        state.outstanding -= 1;
        if state.outstanding == 0 && self.advance_comm(i) {
            self.finished_now.push(i);
        }
        Ok(())
    }

    /// Moves every compute task due exactly at `now` into the
    /// finished-now set; a following [`ScheduleExecutor::settle`]
    /// completes them.
    pub fn release_computes_due(&mut self, now: Time) {
        while self.compute_queue.peek_time() == Some(now) {
            let ev = self.compute_queue.pop().expect("peeked");
            self.finished_now.push(ev.event);
        }
    }

    /// Releases staged flows into `net` as one batch, re-planned around
    /// failed links first when faults are active. No-op when nothing is
    /// staged.
    ///
    /// # Errors
    ///
    /// [`TrainError::Unroutable`] / [`TrainError::Route`] as in
    /// [`repair_flows`] and injection.
    pub fn flush_staged(
        &mut self,
        net: &mut FlowNetwork,
        backend: &FabricBackend,
    ) -> Result<(), TrainError> {
        if !self.staged.is_empty() {
            let _prof = fred_telemetry::prof::scope("exec.flush_staged");
            let flows = repair_flows(net, backend, std::mem::take(&mut self.staged))?;
            net.inject_batch(flows)?;
        }
        Ok(())
    }

    /// Runs the zero-time cascade at the current instant: starts every
    /// ready task, injects staged flows, settles finished tasks and the
    /// tasks those releases make ready, until the state is quiescent and
    /// only the clock can make progress. This is the classic trainer's
    /// inner loop verbatim — same network-operation order, so solo runs
    /// through a driver are bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates staged-flow injection failures (see
    /// [`ScheduleExecutor::flush_staged`]).
    pub fn settle(
        &mut self,
        net: &mut FlowNetwork,
        backend: &FabricBackend,
    ) -> Result<(), TrainError> {
        loop {
            // Start everything that became ready at the current time.
            while let Some(i) = self.ready_stack.pop() {
                self.start_task(i, net);
            }
            // Release every flow staged by the ready tasks as one batch.
            self.flush_staged(net, backend)?;
            // Settle zero-duration completions before advancing time.
            if self.finished_now.is_empty() {
                return Ok(());
            }
            let mut finished = std::mem::take(&mut self.finished_now);
            for i in finished.drain(..) {
                self.finish_task(i, net);
            }
            self.finished_now = finished;
        }
    }

    /// Stages the next non-empty phase of comm task `i`; returns true
    /// if the task is finished instead (no phases left). All flows
    /// staged at one timestep are released with a single `inject_batch`
    /// (one solver delta).
    fn advance_comm(&mut self, i: usize) -> bool {
        let schedule = self.schedule.clone();
        let TaskBody::Comm { plan, priority, .. } = &schedule.tasks[i].body else {
            unreachable!("advance_comm on a compute task")
        };
        let state = self.comm.get_mut(&i).expect("comm state exists");
        while state.phase < plan.phases.len() {
            let transfers = &plan.phases[state.phase].transfers;
            state.phase += 1;
            if !transfers.is_empty() {
                // The tag is the task index shifted by one past the
                // namespace base: tag 0 stays the "no owner" sentinel.
                let tag = self.cfg.tag_base + i as u64 + 1;
                self.staged.extend(transfers.iter().map(|t| {
                    FlowSpec::new(t.route.clone(), t.bytes)
                        .with_priority(*priority)
                        .with_tag(tag)
                        .with_tenant(self.cfg.tenant)
                }));
                state.outstanding = transfers.len();
                return false;
            }
        }
        true
    }

    /// Starts task `i` at the network's current time.
    fn start_task(&mut self, i: usize, net: &FlowNetwork) {
        let t = net.now();
        self.start[i] = t;
        if self.tracing {
            self.emit_phase_begin(i, t);
        }
        let schedule = self.schedule.clone();
        match &schedule.tasks[i].body {
            TaskBody::Compute { duration, .. } => {
                self.compute_queue.schedule(t + *duration, i);
            }
            TaskBody::Comm { .. } => {
                self.comm.insert(
                    i,
                    CommState {
                        phase: 0,
                        outstanding: 0,
                    },
                );
                if self.advance_comm(i) {
                    self.finished_now.push(i);
                }
            }
        }
    }

    /// Marks task `i` finished at the current time and releases its
    /// dependents.
    fn finish_task(&mut self, i: usize, net: &FlowNetwork) {
        if self.done[i] {
            return;
        }
        self.done[i] = true;
        self.finish[i] = net.now();
        self.completed += 1;
        if let Some(span) = self.spans[i].take() {
            let track = match &self.schedule.tasks[i].body {
                TaskBody::Compute { .. } => Track::Compute,
                TaskBody::Comm { ctype, .. } => track_of_comm(*ctype),
            };
            self.sink.record(TraceEvent::PhaseEnd {
                t: net.now().as_secs(),
                track,
                span,
            });
        }
        let deps = std::mem::take(&mut self.dependents[i]);
        for &dep in &deps {
            self.indegree[dep.0] -= 1;
            if self.indegree[dep.0] == 0 {
                self.ready_stack.push(dep.0);
            }
        }
        self.dependents[i] = deps;
    }

    /// Telemetry for a task start: its span, correlation tag and
    /// happens-before edges.
    fn emit_phase_begin(&mut self, i: usize, t: Time) {
        let (track, label, bytes, npus) = match &self.schedule.tasks[i].body {
            TaskBody::Compute { worker, .. } => {
                (Track::Compute, format!("compute w{}", worker.0), 0.0, 0)
            }
            TaskBody::Comm { plan, ctype, .. } => {
                let mut srcs: Vec<usize> = plan
                    .phases
                    .iter()
                    .flat_map(|p| p.transfers.iter().map(|tr| tr.src))
                    .collect();
                srcs.sort_unstable();
                srcs.dedup();
                (
                    track_of_comm(*ctype),
                    plan.label.clone(),
                    plan.total_bytes(),
                    srcs.len() as u32,
                )
            }
        };
        let label = match &self.cfg.label {
            Some(prefix) => format!("{prefix}/{label}"),
            None => label,
        };
        let span = next_span_id();
        self.spans[i] = Some(span);
        self.span_ids[i] = span;
        // Comm spans claim their flows through the namespaced
        // correlation tag (see advance_comm).
        let tag = match &self.schedule.tasks[i].body {
            TaskBody::Comm { .. } => self.cfg.tag_base + i as u64 + 1,
            TaskBody::Compute { .. } => 0,
        };
        self.sink.record(TraceEvent::PhaseBegin {
            t: t.as_secs(),
            track,
            span,
            label: label.into(),
            bytes,
            npus,
            tag,
        });
        // The schedule's dependency edges become the trace's
        // happens-before DAG.
        for d in &self.schedule.tasks[i].deps {
            let pred = self.span_ids[d.0];
            if pred != 0 {
                self.sink.record(TraceEvent::SpanDep {
                    t: t.as_secs(),
                    span,
                    pred,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DnnModel;
    use crate::schedule::{build_schedule, ScheduleParams};
    use fred_core::params::FabricConfig;
    use fred_core::placement::{Placement, PlacementPolicy, Strategy3D};
    use fred_sim::codec;
    use fred_telemetry::sink::NullSink;

    fn schedule(backend: &FabricBackend, dp: usize) -> Rc<Schedule> {
        let model = DnnModel::resnet152();
        let strategy = Strategy3D::new(1, dp, 1);
        let params = ScheduleParams::sweep_default(&model, strategy);
        let placement = Placement::new(strategy, PlacementPolicy::MpPpDp);
        Rc::new(build_schedule(
            &model, strategy, &placement, backend, params,
        ))
    }

    /// Drives an executor over a private network for `events` event
    /// instants (the trainer's loop, minus faults).
    fn drive(
        ex: &mut ScheduleExecutor,
        net: &mut FlowNetwork,
        backend: &FabricBackend,
        events: usize,
    ) {
        for _ in 0..events {
            let tc = ex.next_compute_time();
            let Some(next) = [tc, net.next_event()].into_iter().flatten().min() else {
                return;
            };
            net.advance_to(next);
            for c in net.drain_completed() {
                ex.handle_completion(c.tag).unwrap();
            }
            ex.release_computes_due(next);
            ex.settle(net, backend).unwrap();
        }
    }

    #[test]
    fn executor_round_trips_through_value_and_resumes_identically() {
        let backend = FabricBackend::new(FabricConfig::FredD);
        let sched = schedule(&backend, 4);
        let cfg = ExecConfig {
            tag_base: 64,
            tenant: 2,
            label: Some("job3".into()),
        };
        let mut net = FlowNetwork::new(backend.topology());
        let mut ex = ScheduleExecutor::new(sched.clone(), cfg, Rc::new(NullSink));
        ex.settle(&mut net, &backend).unwrap();
        drive(&mut ex, &mut net, &backend, 6);
        assert!(ex.completed_count() > 0 && !ex.is_done());

        // Through the binary codec, then back: the re-encoding is stable.
        let v = codec::from_binary(&codec::to_binary(&ex.to_value())).unwrap();
        let mut restored = ScheduleExecutor::from_value(sched, Rc::new(NullSink), &v).unwrap();
        assert_eq!(restored.to_value(), v);
        let awaited: usize = restored.awaited_tags().values().sum();
        assert_eq!(
            awaited,
            net.in_flight_tags().filter(|&t| ex.owns_tag(t)).count()
        );

        let mut net2 =
            FlowNetwork::from_value(backend.topology(), Rc::new(NullSink), &net.to_value())
                .unwrap();
        drive(&mut ex, &mut net, &backend, usize::MAX);
        drive(&mut restored, &mut net2, &backend, usize::MAX);
        assert!(ex.is_done() && restored.is_done());
        assert_eq!(
            ex.completion_time().as_secs().to_bits(),
            restored.completion_time().as_secs().to_bits()
        );
    }

    #[test]
    fn pairing_with_another_schedule_is_a_typed_error() {
        let backend = FabricBackend::new(FabricConfig::FredD);
        let ex = ScheduleExecutor::new(
            schedule(&backend, 4),
            ExecConfig::default(),
            Rc::new(NullSink),
        );
        let err =
            ScheduleExecutor::from_value(schedule(&backend, 8), Rc::new(NullSink), &ex.to_value())
                .unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err:?}");
    }
}
