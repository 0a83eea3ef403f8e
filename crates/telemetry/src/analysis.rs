//! Critical-path and contention attribution over a recorded trace.
//!
//! [`AnalysisSink`] folds an event stream, one event at a time, into
//! one [`RunAnalysis`] per simulation *segment* (segments are delimited
//! by [`TraceEvent::Topology`] markers — one per `FlowNetwork`
//! construction). It finalises a segment at the next marker and at
//! [`AnalysisSink::finish`], so teed into a live simulation it holds
//! one segment's flows and spans at a time and never loses an event;
//! [`Analysis::from_events`] runs the same sink over a recorded slice.
//! Per segment it reconstructs the causal DAG of the run:
//!
//! * **nodes** are spans ([`TraceEvent::PhaseBegin`]/`PhaseEnd` pairs:
//!   trainer compute/comm tasks, or the serial phases of a standalone
//!   collective plan);
//! * **edges** are the recorded [`TraceEvent::SpanDep`] happens-before
//!   constraints (trainer task dependencies, plan phase ordering);
//! * **flows** attach to the span whose correlation `tag` they carry.
//!
//! From the DAG it computes the **critical path** — walking backwards
//! from the last-finishing span through, at each step, the predecessor
//! that finished last — and charges every second of the makespan to an
//! [`Attribution`] bucket. Communication spans are split by *ideal-rate
//! re-costing*: each flow is re-costed at the rate it would get running
//! alone (the bottleneck-link capacity from the segment's
//! [`TraceEvent::Topology`] record), giving the span's contention-free
//! duration; that part is exposed communication for the span's
//! dimension, the remainder is [`Bucket::Contention`].
//!
//! It also builds the per-link **contention matrix**: for every link,
//! which span pairs had flows active on it simultaneously, for how
//! long, and how much of each victim's slowdown (observed drain time
//! minus contention-free drain time) each culprit inflicted. Span
//! labels are interned to integer ids in string order per segment, so
//! the matrix accumulates into flat per-link vectors instead of
//! string-keyed maps while every sum runs in the same order as a
//! string-keyed fold would; the work is linear in events plus the
//! number of overlapping flow pairs per link.
//!
//! An analysis over a truncated trace (ring overflow) is flagged, not
//! silently produced — attribution over missing events is wrong.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

use crate::attribution::{Attribution, Bucket};
use crate::event::{TraceEvent, Track};
use crate::json::{push_num, push_str_lit};
use crate::sink::TraceSink;

/// Spans/steps closer in time than this are considered simultaneous.
const T_EPS: f64 = 1e-12;

/// Maximum critical-path steps and contention entries serialised into
/// JSON (the in-memory structures always hold everything).
const JSON_PATH_CAP: usize = 64;
/// Maximum contention-matrix entries serialised into JSON.
const JSON_CONTENTION_CAP: usize = 32;

/// One step of a run's critical path, latest first.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalStep {
    /// Span label.
    pub label: String,
    /// Display track.
    pub track: Track,
    /// Span begin time (seconds).
    pub begin: f64,
    /// Seconds this step contributes to the makespan.
    pub secs: f64,
    /// The step's contention-free duration (== `secs` for compute).
    pub ideal_secs: f64,
}

/// One cell of the per-link contention matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionEntry {
    /// Link index (`LinkId.0`).
    pub link: u32,
    /// Label of the span whose flows were slowed.
    pub victim: String,
    /// Label of the span sharing the link.
    pub culprit: String,
    /// Seconds the two spans had flows simultaneously active on the
    /// link.
    pub overlap_secs: f64,
    /// Victim slowdown seconds attributed to this culprit on this link
    /// (observed minus contention-free drain time, blamed
    /// proportionally to overlap).
    pub slowdown_secs: f64,
}

/// The analysis of one simulation segment.
#[derive(Debug, Clone, Default)]
pub struct RunAnalysis {
    /// End-to-end duration of the segment (latest span end / flow
    /// completion).
    pub makespan: f64,
    /// Where every makespan second went. `attribution.total()` equals
    /// `makespan` by construction.
    pub attribution: Attribution,
    /// The critical path, last-finishing step first.
    pub critical_path: Vec<CriticalStep>,
    /// Contention matrix entries, largest slowdown first.
    pub contention: Vec<ContentionEntry>,
    /// Flows observed in the segment.
    pub flows: usize,
    /// Spans observed in the segment.
    pub spans: usize,
    /// Fault events (link failures/degradations) in the segment —
    /// non-zero means part of the contention/exposed-comm attribution
    /// is fault-induced (flows re-routed over detours).
    pub faults: usize,
}

/// The full analysis of a recording: one [`RunAnalysis`] per segment
/// plus aggregate totals.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Per-segment analyses, in recording order.
    pub runs: Vec<RunAnalysis>,
    /// Events that were overwritten in the ring recorder before this
    /// analysis ran. Non-zero means [`Analysis::truncated`] — treat
    /// every number with suspicion.
    pub dropped_events: u64,
}

#[derive(Debug, Clone)]
struct FlowRec {
    bytes: f64,
    links: Rc<[u32]>,
    track: Track,
    injected: f64,
    drained: Option<f64>,
    completed: Option<f64>,
    /// Index into [`Segment::spans`] of the span the flow joined.
    span: Option<usize>,
}

#[derive(Debug, Clone)]
struct SpanRec {
    id: u64,
    label: Box<str>,
    track: Track,
    begin: f64,
    end: f64,
    closed: bool,
    preds: Vec<u64>,
    flow_idx: Vec<usize>,
}

/// The open segment of an [`AnalysisSink`]: everything recorded since
/// the last [`TraceEvent::Topology`] marker.
#[derive(Debug, Default)]
struct Segment {
    /// Whether any event was folded into this segment yet.
    started: bool,
    capacities: Vec<f64>,
    /// Spans in first-`PhaseBegin` order; a repeated span id replaces
    /// its record in place.
    spans: Vec<SpanRec>,
    span_slot: HashMap<u64, usize>,
    flows: Vec<FlowRec>,
    flow_by_id: HashMap<u64, usize>,
    /// tag -> currently open span claiming that tag.
    open_tag: HashMap<u64, u64>,
    /// span -> every tag its `PhaseBegin`s claimed, released at its
    /// `PhaseEnd`.
    claims: HashMap<u64, Vec<u64>>,
    last_t: f64,
    faults: usize,
}

/// A [`TraceSink`] that analyses the stream as it arrives: it keeps
/// only the open segment's spans and flows, finalises a
/// [`RunAnalysis`] at each [`TraceEvent::Topology`] marker, and hands
/// every run over at [`AnalysisSink::finish`]. It never drops an
/// event, so its analysis is never truncated.
#[derive(Debug, Default)]
pub struct AnalysisSink {
    state: RefCell<(Segment, Vec<RunAnalysis>)>,
}

impl AnalysisSink {
    /// An empty sink.
    pub fn new() -> AnalysisSink {
        AnalysisSink::default()
    }

    fn fold(&self, e: &TraceEvent) {
        let mut state = self.state.borrow_mut();
        let (segment, runs) = &mut *state;
        if segment.started && matches!(e, TraceEvent::Topology { .. }) {
            runs.extend(std::mem::take(segment).finish());
        }
        segment.fold(e);
    }

    /// Finalises the open segment and returns the analysis of every
    /// segment recorded so far, leaving the sink empty.
    pub fn finish(&self) -> Analysis {
        let mut state = self.state.borrow_mut();
        let (segment, runs) = &mut *state;
        runs.extend(std::mem::take(segment).finish());
        Analysis {
            runs: std::mem::take(runs),
            dropped_events: 0,
        }
    }
}

impl TraceSink for AnalysisSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, ev: TraceEvent) {
        self.fold(&ev);
    }
}

impl Analysis {
    /// Analyses a recording, splitting it into segments at every
    /// [`TraceEvent::Topology`] marker: the events fed one by one
    /// through an [`AnalysisSink`].
    pub fn from_events(events: &[TraceEvent]) -> Analysis {
        let sink = AnalysisSink::new();
        for e in events {
            sink.fold(e);
        }
        sink.finish()
    }

    /// Records how many events the ring recorder overwrote before the
    /// trace was read (see [`crate::sink::RingRecorder::overwritten`]).
    pub fn with_dropped(mut self, dropped: u64) -> Analysis {
        self.dropped_events = dropped;
        self
    }

    /// Whether the underlying trace lost events to ring overflow. A
    /// truncated trace yields an untrustworthy attribution.
    pub fn truncated(&self) -> bool {
        self.dropped_events > 0
    }

    /// Attribution summed over every segment. The invariant
    /// `totals().total() == total_makespan()` holds within float
    /// tolerance.
    pub fn totals(&self) -> Attribution {
        let mut t = Attribution::default();
        for r in &self.runs {
            t.merge(&r.attribution);
        }
        t
    }

    /// Sum of segment makespans.
    pub fn total_makespan(&self) -> f64 {
        self.runs.iter().map(|r| r.makespan).sum()
    }

    /// Renders the analysis as a JSON object (critical paths capped at
    /// 64 steps and contention matrices at 32 entries per segment; the
    /// in-memory structures are complete).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"trace_truncated\":");
        s.push_str(if self.truncated() { "true" } else { "false" });
        s.push_str(",\"dropped_events\":");
        push_num(&mut s, self.dropped_events as f64);
        s.push_str(",\"total_makespan_secs\":");
        push_num(&mut s, self.total_makespan());
        s.push_str(",\"attribution\":");
        self.totals().push_json(&mut s);
        s.push_str(",\"runs\":[");
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            r.push_json(&mut s);
        }
        s.push_str("]}");
        s
    }

    /// A short human-readable bottleneck summary for stderr reporting.
    pub fn summary(&self) -> String {
        let totals = self.totals();
        let mut out = String::new();
        if self.truncated() {
            out.push_str(&format!(
                "WARNING: trace truncated ({} events dropped by ring overflow); \
                 attribution is unreliable\n",
                self.dropped_events
            ));
        }
        let makespan = self.total_makespan();
        out.push_str(&format!(
            "attribution over {} run(s), {:.6} s total:",
            self.runs.len(),
            makespan
        ));
        for b in Bucket::ALL {
            let v = totals.get(b);
            if v > 0.0 {
                out.push_str(&format!(
                    "\n  {:<13} {:.6} s ({:.1}%)",
                    b.key(),
                    v,
                    100.0 * v / makespan.max(f64::MIN_POSITIVE)
                ));
            }
        }
        let faults: usize = self.runs.iter().map(|r| r.faults).sum();
        if faults > 0 {
            out.push_str(&format!(
                "\n  {faults} fault(s) injected — contention/exposed-comm \
                 above includes fault-induced detours"
            ));
        }
        out
    }
}

impl RunAnalysis {
    fn push_json(&self, s: &mut String) {
        s.push_str("{\"makespan_secs\":");
        push_num(s, self.makespan);
        s.push_str(",\"spans\":");
        push_num(s, self.spans as f64);
        s.push_str(",\"flows\":");
        push_num(s, self.flows as f64);
        s.push_str(",\"faults\":");
        push_num(s, self.faults as f64);
        s.push_str(",\"attribution\":");
        self.attribution.push_json(s);
        s.push_str(",\"critical_path\":[");
        for (i, c) in self.critical_path.iter().take(JSON_PATH_CAP).enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"label\":");
            push_str_lit(s, &c.label);
            s.push_str(",\"track\":");
            push_str_lit(s, c.track.name());
            s.push_str(",\"begin_secs\":");
            push_num(s, c.begin);
            s.push_str(",\"secs\":");
            push_num(s, c.secs);
            s.push_str(",\"ideal_secs\":");
            push_num(s, c.ideal_secs);
            s.push('}');
        }
        s.push_str("],\"critical_path_steps\":");
        push_num(s, self.critical_path.len() as f64);
        s.push_str(",\"contention\":[");
        for (i, c) in self.contention.iter().take(JSON_CONTENTION_CAP).enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"link\":");
            push_num(s, c.link as f64);
            s.push_str(",\"victim\":");
            push_str_lit(s, &c.victim);
            s.push_str(",\"culprit\":");
            push_str_lit(s, &c.culprit);
            s.push_str(",\"overlap_secs\":");
            push_num(s, c.overlap_secs);
            s.push_str(",\"slowdown_secs\":");
            push_num(s, c.slowdown_secs);
            s.push('}');
        }
        s.push_str("],\"contention_pairs\":");
        push_num(s, self.contention.len() as f64);
        s.push('}');
    }
}

/// The rate a flow over `links` gets with the network to itself: the
/// bottleneck-link capacity. `None` when any link is outside the known
/// capacity table (re-costing is then impossible).
fn solo_rate(capacities: &[f64], links: &[u32]) -> Option<f64> {
    if links.is_empty() {
        return Some(f64::INFINITY);
    }
    let mut rate = f64::INFINITY;
    for &l in links {
        rate = rate.min(*capacities.get(l as usize)?);
    }
    Some(rate)
}

/// The contention-free completion time of a flow: bytes over the solo
/// rate, plus the (contention-independent) observed tail latency.
/// Falls back to the observed completion time when re-costing is
/// impossible.
fn ideal_fct(f: &FlowRec, capacities: &[f64]) -> f64 {
    let observed = f
        .completed
        .or(f.drained)
        .map(|t| (t - f.injected).max(0.0))
        .unwrap_or(0.0);
    let Some(rate) = solo_rate(capacities, &f.links) else {
        return observed;
    };
    let ideal_drain = if rate.is_finite() && rate > 0.0 {
        f.bytes / rate
    } else {
        0.0
    };
    let tail = match (f.drained, f.completed) {
        (Some(d), Some(c)) => (c - d).max(0.0),
        _ => 0.0,
    };
    (ideal_drain + tail).min(observed.max(ideal_drain + tail))
}

/// Observed minus contention-free drain time of a flow, clamped at
/// zero. `None` when the flow never drained or re-costing is
/// impossible.
fn flow_slowdown(f: &FlowRec, capacities: &[f64]) -> Option<f64> {
    let drained = f.drained?;
    let rate = solo_rate(capacities, &f.links)?;
    if !rate.is_finite() || rate <= 0.0 {
        return None;
    }
    Some(((drained - f.injected) - f.bytes / rate).max(0.0))
}

impl Segment {
    fn fold(&mut self, e: &TraceEvent) {
        self.started = true;
        self.last_t = self.last_t.max(e.time());
        match e {
            TraceEvent::Topology { capacities, .. } => self.capacities = capacities.to_vec(),
            TraceEvent::PhaseBegin {
                t,
                track,
                span,
                label,
                tag,
                ..
            } => {
                let rec = SpanRec {
                    id: *span,
                    label: label.clone(),
                    track: *track,
                    begin: *t,
                    end: *t,
                    closed: false,
                    preds: Vec::new(),
                    flow_idx: Vec::new(),
                };
                match self.span_slot.entry(*span) {
                    Entry::Occupied(slot) => self.spans[*slot.get()] = rec,
                    Entry::Vacant(slot) => {
                        slot.insert(self.spans.len());
                        self.spans.push(rec);
                    }
                }
                if *tag != 0 {
                    self.open_tag.insert(*tag, *span);
                    self.claims.entry(*span).or_default().push(*tag);
                }
            }
            TraceEvent::PhaseEnd { t, span, .. } => {
                if let Some(&i) = self.span_slot.get(span) {
                    let s = &mut self.spans[i];
                    s.end = (*t).max(s.begin);
                    s.closed = true;
                }
                // Release the span's tags unless a later span re-claimed
                // them.
                for tag in self.claims.remove(span).unwrap_or_default() {
                    if self.open_tag.get(&tag) == Some(span) {
                        self.open_tag.remove(&tag);
                    }
                }
            }
            TraceEvent::SpanDep { span, pred, .. } => {
                if let Some(&i) = self.span_slot.get(span) {
                    self.spans[i].preds.push(*pred);
                }
            }
            TraceEvent::FlowInjected {
                t,
                id,
                tag,
                bytes,
                track,
                links,
            } => {
                let span = if *tag != 0 {
                    self.open_tag
                        .get(tag)
                        .and_then(|sid| self.span_slot.get(sid))
                        .copied()
                } else {
                    None
                };
                let idx = self.flows.len();
                self.flows.push(FlowRec {
                    bytes: *bytes,
                    links: links.clone(),
                    track: *track,
                    injected: *t,
                    drained: None,
                    completed: None,
                    span,
                });
                self.flow_by_id.insert(*id, idx);
                if let Some(s) = span {
                    self.spans[s].flow_idx.push(idx);
                }
            }
            TraceEvent::FlowDrained { t, id } => {
                if let Some(&i) = self.flow_by_id.get(id) {
                    self.flows[i].drained = Some(*t);
                }
            }
            TraceEvent::FlowCompleted { t, id, .. } => {
                if let Some(&i) = self.flow_by_id.get(id) {
                    self.flows[i].completed = Some(*t);
                }
            }
            TraceEvent::Fault { .. } => self.faults += 1,
            TraceEvent::RateEpoch { .. }
            | TraceEvent::LinkUtil { .. }
            | TraceEvent::IterStage { .. }
            | TraceEvent::Sample { .. } => {}
        }
    }

    /// The segment's analysis, or `None` for a segment with no spans,
    /// flows or makespan.
    fn finish(mut self) -> Option<RunAnalysis> {
        if !self.started {
            return None;
        }
        // Close truncated spans at the last observed time so downstream
        // arithmetic stays finite.
        for s in &mut self.spans {
            if !s.closed {
                s.end = s.end.max(self.last_t);
            }
        }
        let mut run = RunAnalysis {
            flows: self.flows.len(),
            spans: self.spans.len(),
            faults: self.faults,
            ..RunAnalysis::default()
        };
        if self.spans.is_empty() {
            analyze_bare_flows(&self.flows, &self.capacities, &mut run);
        } else {
            attribute_critical_path(&self, &mut run);
        }
        run.contention = contention_matrix(&self.spans, &self.flows, &self.capacities);
        (run.makespan > 0.0 || run.spans > 0 || run.flows > 0).then_some(run)
    }
}

/// Attribution for segments with spans: walk the critical path from
/// the last-finishing span backwards through latest-finishing
/// predecessors, charging each covered interval to its span's bucket
/// (split ideal/contention for communication spans).
fn attribute_critical_path(seg: &Segment, run: &mut RunAnalysis) {
    let spans = &seg.spans;
    let last = spans
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.end.total_cmp(&b.1.end).then(b.1.id.cmp(&a.1.id)))
        .map(|(i, _)| i);
    let Some(mut current) = last else { return };
    run.makespan = spans[current].end;
    let mut cursor = run.makespan;
    let mut visited = vec![false; spans.len()];

    loop {
        visited[current] = true;
        let s = &spans[current];
        // An unexplained gap between this span's end and the time the
        // critical successor started.
        if s.end < cursor - T_EPS {
            run.attribution.add(Bucket::Unattributed, cursor - s.end);
            cursor = s.end;
        }
        let step = (cursor.min(s.end) - s.begin).max(0.0);
        if step > 0.0 {
            let (ideal, bucket) = span_ideal(s, &seg.flows, &seg.capacities, step);
            run.attribution.add(bucket, ideal);
            run.attribution.add(Bucket::Contention, step - ideal);
            run.critical_path.push(CriticalStep {
                label: s.label.to_string(),
                track: s.track,
                begin: s.begin,
                secs: step,
                ideal_secs: ideal,
            });
        }
        cursor = s.begin.min(cursor);
        if cursor <= T_EPS {
            break;
        }
        // The binding predecessor: the one that finished last.
        let next = s
            .preds
            .iter()
            .filter_map(|p| seg.span_slot.get(p).map(|&i| (*p, i, spans[i].end)))
            .max_by(|a, b| a.2.total_cmp(&b.2).then(b.0.cmp(&a.0)))
            .map(|(_, i, _)| i);
        match next {
            Some(i) if !visited[i] => current = i,
            _ => {
                // Root span that still started after t = 0 with no
                // recorded cause, or a dependency cycle (only damaged
                // or hand-built streams have one): the rest is
                // unexplained.
                run.attribution.add(Bucket::Unattributed, cursor);
                break;
            }
        }
    }
    run.critical_path.shrink_to_fit();
}

/// The contention-free duration of `span` (capped at its attributed
/// share `seg`) and the bucket its ideal time belongs to.
///
/// Flows of the span are grouped into serial injection batches (one
/// per plan phase — a batch is every flow injected at the same
/// instant); the ideal duration is the sum over batches of the slowest
/// re-costed flow.
fn span_ideal(s: &SpanRec, flows: &[FlowRec], capacities: &[f64], seg: f64) -> (f64, Bucket) {
    let bucket = Bucket::for_track(s.track);
    if bucket == Bucket::Compute || s.flow_idx.is_empty() {
        return (seg, bucket);
    }
    let mut batches: Vec<(f64, f64)> = Vec::new(); // (inject_t, max ideal fct)
    for &fi in &s.flow_idx {
        let f = &flows[fi];
        let fct = ideal_fct(f, capacities);
        match batches.last_mut() {
            Some((t, m)) if (f.injected - *t).abs() <= T_EPS => *m = m.max(fct),
            _ => batches.push((f.injected, fct)),
        }
    }
    let ideal: f64 = batches.iter().map(|(_, m)| m).sum();
    (ideal.min(seg), bucket)
}

/// Attribution fallback for segments that inject flows without any
/// span structure (raw microbenchmarks): batches of simultaneous
/// injections are treated as serial phases, each charged to the track
/// of its slowest re-costed flow; the rest of the makespan is
/// contention.
fn analyze_bare_flows(flows: &[FlowRec], capacities: &[f64], run: &mut RunAnalysis) {
    run.makespan = flows
        .iter()
        .filter_map(|f| f.completed.or(f.drained))
        .fold(0.0, f64::max);
    if run.makespan <= 0.0 {
        return;
    }
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by(|&a, &b| flows[a].injected.total_cmp(&flows[b].injected));
    let mut remaining = run.makespan;
    let mut batch_start = None::<f64>;
    let mut batch_best: Option<(f64, Track)> = None;
    let flush = |best: &mut Option<(f64, Track)>, remaining: &mut f64, run: &mut RunAnalysis| {
        if let Some((fct, track)) = best.take() {
            let charged = fct.min(*remaining);
            run.attribution.add(Bucket::for_track(track), charged);
            *remaining -= charged;
        }
    };
    for &i in &order {
        let f = &flows[i];
        if batch_start.is_none_or(|t| (f.injected - t).abs() > T_EPS) {
            flush(&mut batch_best, &mut remaining, run);
            batch_start = Some(f.injected);
        }
        let fct = ideal_fct(f, capacities);
        if batch_best.is_none_or(|(m, _)| fct > m) {
            batch_best = Some((fct, f.track));
        }
    }
    flush(&mut batch_best, &mut remaining, run);
    run.attribution.add(Bucket::Contention, remaining);
}

/// One flow's interval on one link: the flow, its route position
/// (`base[flow] + position`), and its `[injected, drained)` window.
#[derive(Clone, Copy)]
struct Interval {
    flow: usize,
    pos: usize,
    start: f64,
    end: f64,
}

/// Adds `w` to `label`'s weight in a culprit accumulator.
fn accumulate(acc: &mut Vec<(u32, f64)>, label: u32, w: f64) {
    match acc.iter_mut().find(|(l, _)| *l == label) {
        Some((_, v)) => *v += w,
        None => acc.push((label, w)),
    }
}

/// Builds the per-link contention matrix: overlap seconds per (link,
/// victim span, culprit span) triple, plus each victim's slowdown
/// blamed proportionally to overlap.
///
/// Labels are interned to ids assigned in string order, so ordering by
/// id is ordering by label. Per (link, victim flow) the culprit weights
/// accumulate in pair-enumeration order into a small vector, which is
/// then sorted by culprit; each victim's slowdown is spread over its
/// route in route order and culprit order.
fn contention_matrix(
    spans: &[SpanRec],
    flows: &[FlowRec],
    capacities: &[f64],
) -> Vec<ContentionEntry> {
    let untracked: Vec<String> = Track::ALL
        .iter()
        .map(|t| format!("untracked ({t})"))
        .collect();
    let mut labels: Vec<&str> = spans
        .iter()
        .map(|s| &*s.label)
        .chain(untracked.iter().map(String::as_str))
        .collect();
    labels.sort_unstable();
    labels.dedup();
    let id_of = |l: &str| labels.binary_search(&l).expect("interned label") as u32;
    let span_label: Vec<u32> = spans.iter().map(|s| id_of(&s.label)).collect();
    let untracked_label: Vec<u32> = untracked.iter().map(|l| id_of(l)).collect();
    let label: Vec<u32> = flows
        .iter()
        .map(|f| match f.span {
            Some(s) => span_label[s],
            None => untracked_label[f.track.index() as usize],
        })
        .collect();

    // Route position `base[i] + p` names flow i's p-th link.
    let mut base = Vec::with_capacity(flows.len() + 1);
    base.push(0usize);
    for f in flows {
        base.push(base.last().unwrap() + f.links.len());
    }

    // Per link: active intervals.
    let mut per_link: HashMap<u32, Vec<Interval>> = HashMap::new();
    for (i, f) in flows.iter().enumerate() {
        let Some(d) = f.drained else { continue };
        if d <= f.injected {
            continue;
        }
        for (p, &l) in f.links.iter().enumerate() {
            per_link.entry(l).or_default().push(Interval {
                flow: i,
                pos: base[i] + p,
                start: f.injected,
                end: d,
            });
        }
    }

    // Culprit weights per (link, victim flow), sorted by culprit label:
    // `weights[ranges[pos].0..][..ranges[pos].1]` for route position
    // `pos`. A route that crosses a link twice shares one accumulator
    // between both positions.
    let mut weights: Vec<(u32, f64)> = Vec::new();
    let mut ranges: Vec<(usize, usize)> = vec![(0, 0); *base.last().unwrap()];
    let mut slot_of: Vec<usize> = Vec::new();
    let mut accs: Vec<Vec<(u32, f64)>> = Vec::new();
    for intervals in per_link.values_mut() {
        intervals.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.flow.cmp(&b.flow)));
        // One accumulator per distinct flow; a flow's repeated
        // intervals on this link sort next to each other.
        slot_of.clear();
        let mut slots = 0;
        for (k, iv) in intervals.iter().enumerate() {
            if k == 0 || intervals[k - 1].flow != iv.flow {
                slots += 1;
            }
            slot_of.push(slots - 1);
        }
        if accs.len() < slots {
            accs.resize_with(slots, Vec::new);
        }
        for acc in &mut accs[..slots] {
            acc.clear();
        }
        for (i, a) in intervals.iter().enumerate() {
            for (j, b) in intervals.iter().enumerate().skip(i + 1) {
                if b.start >= a.end {
                    break; // sorted by start: nothing later overlaps a
                }
                let ov = a.end.min(b.end) - b.start.max(a.start);
                if ov <= 0.0 {
                    continue;
                }
                accumulate(&mut accs[slot_of[i]], label[b.flow], ov);
                accumulate(&mut accs[slot_of[j]], label[a.flow], ov);
            }
        }
        for (k, iv) in intervals.iter().enumerate() {
            let acc = &mut accs[slot_of[k]];
            if k == 0 || slot_of[k - 1] != slot_of[k] {
                acc.sort_unstable_by_key(|&(l, _)| l);
                ranges[iv.pos] = (weights.len(), acc.len());
                weights.extend_from_slice(acc);
            } else {
                ranges[iv.pos] = ranges[intervals[k - 1].pos];
            }
        }
    }

    // Distribute each flow's slowdown over its (link, culprit) overlap
    // weights; accumulate per (link, victim label, culprit label).
    let mut cells: HashMap<(u32, u32, u32), (f64, f64)> = HashMap::new();
    for (i, f) in flows.iter().enumerate() {
        let culprits = |p: usize| {
            let (at, len) = ranges[base[i] + p];
            &weights[at..at + len]
        };
        let total_w: f64 = (0..f.links.len()).flat_map(culprits).map(|&(_, w)| w).sum();
        let slowdown = flow_slowdown(f, capacities).unwrap_or(0.0);
        for (p, &l) in f.links.iter().enumerate() {
            for &(culprit, w) in culprits(p) {
                let cell = cells.entry((l, label[i], culprit)).or_insert((0.0, 0.0));
                cell.0 += w;
                if total_w > 0.0 {
                    cell.1 += slowdown * w / total_w;
                }
            }
        }
    }

    let mut cells: Vec<_> = cells.into_iter().collect();
    cells.sort_by(|(ka, a), (kb, b)| {
        b.1.total_cmp(&a.1)
            .then(b.0.total_cmp(&a.0))
            .then(ka.cmp(kb))
    });
    cells
        .into_iter()
        .map(
            |((link, victim, culprit), (overlap, slow))| ContentionEntry {
                link,
                victim: labels[victim as usize].to_string(),
                culprit: labels[culprit as usize].to_string(),
                overlap_secs: overlap,
                slowdown_secs: slow,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(t: f64, track: Track, span: u64, label: &str, tag: u64) -> TraceEvent {
        TraceEvent::PhaseBegin {
            t,
            track,
            span,
            label: label.into(),
            bytes: 0.0,
            npus: 0,
            tag,
        }
    }

    fn end(t: f64, track: Track, span: u64) -> TraceEvent {
        TraceEvent::PhaseEnd { t, track, span }
    }

    fn dep(t: f64, span: u64, pred: u64) -> TraceEvent {
        TraceEvent::SpanDep { t, span, pred }
    }

    #[test]
    fn serial_plan_path_equals_makespan() {
        // Three chained compute spans: 0-1, 1-3, 3-6.
        let evs = vec![
            begin(0.0, Track::Compute, 1, "a", 0),
            end(1.0, Track::Compute, 1),
            begin(1.0, Track::Compute, 2, "b", 0),
            dep(1.0, 2, 1),
            end(3.0, Track::Compute, 2),
            begin(3.0, Track::Compute, 3, "c", 0),
            dep(3.0, 3, 2),
            end(6.0, Track::Compute, 3),
        ];
        let a = Analysis::from_events(&evs);
        assert_eq!(a.runs.len(), 1);
        let r = &a.runs[0];
        assert!((r.makespan - 6.0).abs() < 1e-12);
        assert_eq!(r.critical_path.len(), 3);
        // Path time == makespan; every second is compute.
        let path_secs: f64 = r.critical_path.iter().map(|c| c.secs).sum();
        assert!((path_secs - 6.0).abs() < 1e-12);
        assert!((r.attribution.get(Bucket::Compute) - 6.0).abs() < 1e-12);
        assert!((r.attribution.total() - r.makespan).abs() < 1e-12);
    }

    #[test]
    fn independent_phases_path_is_max() {
        // Two independent spans 0-2 and 0-5: the path is the longer
        // one, and the attribution covers exactly the makespan.
        let evs = vec![
            begin(0.0, Track::Mp, 1, "short", 0),
            begin(0.0, Track::Dp, 2, "long", 0),
            end(2.0, Track::Mp, 1),
            end(5.0, Track::Dp, 2),
        ];
        let a = Analysis::from_events(&evs);
        let r = &a.runs[0];
        assert!((r.makespan - 5.0).abs() < 1e-12);
        assert_eq!(r.critical_path.len(), 1);
        assert_eq!(r.critical_path[0].label, "long");
        // No flows recorded: the whole span charges to its dimension.
        assert!((r.attribution.get(Bucket::CommDp) - 5.0).abs() < 1e-12);
        assert_eq!(r.attribution.get(Bucket::CommMp), 0.0);
        assert!((r.attribution.total() - r.makespan).abs() < 1e-12);
    }

    #[test]
    fn unexplained_start_is_unattributed() {
        // A single span starting at t=2 with no predecessor: the lead-in
        // is unattributed, keeping the sum == makespan invariant.
        let evs = vec![
            begin(2.0, Track::Compute, 1, "late", 0),
            end(3.0, Track::Compute, 1),
        ];
        let a = Analysis::from_events(&evs);
        let r = &a.runs[0];
        assert!((r.makespan - 3.0).abs() < 1e-12);
        assert!((r.attribution.get(Bucket::Compute) - 1.0).abs() < 1e-12);
        assert!((r.attribution.get(Bucket::Unattributed) - 2.0).abs() < 1e-12);
        assert!((r.attribution.total() - r.makespan).abs() < 1e-12);
    }

    /// Two single-flow phases sharing one 100 B/s link: each flow has
    /// 100 bytes, both run 0→2 s at the 50 B/s fair share. Solo, each
    /// would finish in 1 s, so each suffers 1 s of slowdown — blamed
    /// entirely on the other phase.
    fn shared_link_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Topology {
                t: 0.0,
                capacities: Box::new([100.0]),
            },
            begin(0.0, Track::Mp, 1, "phase-a", 11),
            begin(0.0, Track::Dp, 2, "phase-b", 22),
            TraceEvent::FlowInjected {
                t: 0.0,
                id: 0,
                tag: 11,
                bytes: 100.0,
                track: Track::Mp,
                links: [0].into(),
            },
            TraceEvent::FlowInjected {
                t: 0.0,
                id: 1,
                tag: 22,
                bytes: 100.0,
                track: Track::Dp,
                links: [0].into(),
            },
            TraceEvent::FlowDrained { t: 2.0, id: 0 },
            TraceEvent::FlowDrained { t: 2.0, id: 1 },
            TraceEvent::FlowCompleted {
                t: 2.0,
                id: 0,
                tag: 11,
                injected_at: 0.0,
                track: Track::Mp,
            },
            TraceEvent::FlowCompleted {
                t: 2.0,
                id: 1,
                tag: 22,
                injected_at: 0.0,
                track: Track::Dp,
            },
            end(2.0, Track::Mp, 1),
            end(2.0, Track::Dp, 2),
        ]
    }

    #[test]
    fn contention_matrix_blames_the_sharing_phase() {
        let a = Analysis::from_events(&shared_link_events());
        let r = &a.runs[0];
        assert!((r.makespan - 2.0).abs() < 1e-12);

        // The matrix has both directed pairs on link 0, each with 2 s
        // of overlap and 1 s of inflicted slowdown.
        let find = |victim: &str, culprit: &str| {
            r.contention
                .iter()
                .find(|c| c.victim == victim && c.culprit == culprit)
                .unwrap_or_else(|| panic!("no ({victim}, {culprit}) cell: {:?}", r.contention))
        };
        let ab = find("phase-a", "phase-b");
        assert_eq!(ab.link, 0);
        assert!((ab.overlap_secs - 2.0).abs() < 1e-9, "{ab:?}");
        assert!((ab.slowdown_secs - 1.0).abs() < 1e-9, "{ab:?}");
        let ba = find("phase-b", "phase-a");
        assert!((ba.slowdown_secs - 1.0).abs() < 1e-9, "{ba:?}");
    }

    #[test]
    fn ideal_recosting_splits_comm_and_contention() {
        let a = Analysis::from_events(&shared_link_events());
        let r = &a.runs[0];
        // Critical path: one of the two phases (2 s observed, 1 s
        // ideal): 1 s exposed comm + 1 s contention.
        let comm = r.attribution.get(Bucket::CommMp) + r.attribution.get(Bucket::CommDp);
        assert!((comm - 1.0).abs() < 1e-9, "{:?}", r.attribution);
        assert!(
            (r.attribution.get(Bucket::Contention) - 1.0).abs() < 1e-9,
            "{:?}",
            r.attribution
        );
        assert!((r.attribution.total() - r.makespan).abs() < 1e-9);
    }

    #[test]
    fn segments_split_on_topology_markers() {
        let mut evs = shared_link_events();
        evs.extend(shared_link_events());
        let a = Analysis::from_events(&evs);
        assert_eq!(a.runs.len(), 2);
        assert!((a.total_makespan() - 4.0).abs() < 1e-9);
        assert!((a.totals().total() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bare_flow_segment_still_attributes() {
        // A flow with no span structure at all.
        let evs = vec![
            TraceEvent::Topology {
                t: 0.0,
                capacities: Box::new([100.0]),
            },
            TraceEvent::FlowInjected {
                t: 0.0,
                id: 0,
                tag: 0,
                bytes: 200.0,
                track: Track::Bulk,
                links: [0].into(),
            },
            TraceEvent::FlowDrained { t: 2.0, id: 0 },
            TraceEvent::FlowCompleted {
                t: 2.5,
                id: 0,
                tag: 0,
                injected_at: 0.0,
                track: Track::Bulk,
            },
        ];
        let a = Analysis::from_events(&evs);
        let r = &a.runs[0];
        assert!((r.makespan - 2.5).abs() < 1e-12);
        // Solo: 200 B / 100 B/s + 0.5 s tail = 2.5 s — all ideal bulk.
        assert!((r.attribution.get(Bucket::CommBulk) - 2.5).abs() < 1e-9);
        assert_eq!(r.attribution.get(Bucket::Contention), 0.0);
        assert!((r.attribution.total() - r.makespan).abs() < 1e-9);
    }

    #[test]
    fn dependency_cycle_ends_the_walk() {
        // a <-> b: a damaged stream whose walk would revisit spans
        // forever; the walk stops at the revisit and the sum holds.
        let evs = vec![
            begin(1.0, Track::Compute, 1, "a", 0),
            dep(1.0, 1, 2),
            end(2.0, Track::Compute, 1),
            begin(2.0, Track::Compute, 2, "b", 0),
            dep(2.0, 2, 1),
            end(3.0, Track::Compute, 2),
        ];
        let r = &Analysis::from_events(&evs).runs[0];
        assert_eq!(r.critical_path.len(), 2);
        assert!((r.attribution.get(Bucket::Compute) - 2.0).abs() < 1e-12);
        assert!((r.attribution.get(Bucket::Unattributed) - 1.0).abs() < 1e-12);
        assert!((r.attribution.total() - r.makespan).abs() < 1e-12);
    }

    #[test]
    fn truncation_is_flagged() {
        let a = Analysis::from_events(&[]).with_dropped(42);
        assert!(a.truncated());
        assert!(a.to_json().contains("\"trace_truncated\":true"));
        assert!(a.summary().contains("WARNING"));
    }

    #[test]
    fn json_is_balanced() {
        let a = Analysis::from_events(&shared_link_events());
        let j = a.to_json();
        let braces: i64 = j
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0);
        assert!(j.contains("\"attribution\""));
        assert!(j.contains("\"contention\""));
    }
}
