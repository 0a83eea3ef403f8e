//! Differential property test for the trace analyser.
//!
//! Seeded random event streams — several `Topology` segments (and a
//! leading segment before the first marker), flows overlapping on
//! shared links, routes crossing a link twice or leaving the capacity
//! table, repeated span ids, re-claimed and untracked (tag 0) flow
//! tags, zero-length and never-drained flows — are analysed two ways:
//!
//! * the contention matrix of every segment must equal, bit for bit,
//!   the straightforward pairwise algorithm below (string-keyed
//!   ordered maps per (link, victim flow) and per (link, victim,
//!   culprit) cell), which the interned matrix replaces;
//! * feeding the events one at a time into an [`AnalysisSink`] (teed
//!   with a ring recorder, as `--report` does) must give the same
//!   leaves as [`Analysis::from_events`] over the recorded slice.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use fred::sim::rng::Rng64;
use fred::telemetry::analysis::{Analysis, AnalysisSink, RunAnalysis};
use fred::telemetry::sink::{RingRecorder, TeeSink, TraceSink};
use fred::telemetry::{Bucket, TraceEvent, Track};

const SEEDS: u64 = 200;

/// Span labels. Several spans share each label, and one label collides
/// with the analyser's name for untracked bulk flows.
const LABELS: [&str; 5] = [
    "mp-ar",
    "dp-ar",
    "pp-send",
    "compute",
    "untracked (bulk / streaming)",
];

fn random_track(rng: &mut Rng64) -> Track {
    Track::ALL[rng.gen_range(0, Track::ALL.len())]
}

/// A time on a coarse grid, so starts, ends and overlaps often tie. The
/// step is not a power of two, so sums round and their order shows.
fn grid(rng: &mut Rng64, steps: usize) -> f64 {
    rng.gen_range(0, steps + 1) as f64 * 0.1
}

/// One segment's events, in time order.
fn segment(rng: &mut Rng64, marker: bool, events: &mut Vec<TraceEvent>) {
    let n_links = rng.gen_range_inclusive(1, 6);
    if marker {
        let capacities: Box<[f64]> = (0..n_links)
            .map(|_| [50.0, 100.0, 250.0][rng.gen_range(0, 3)])
            .collect();
        events.push(TraceEvent::Topology { t: 0.0, capacities });
    }
    // (time, event) pairs, emitted in time order (stable on ties).
    let mut timed: Vec<(f64, TraceEvent)> = Vec::new();
    let mut span_ids: Vec<u64> = Vec::new();
    let n_spans = rng.gen_range(0, 6);
    for _ in 0..n_spans {
        // Repeated span ids replace the earlier record.
        let span = if !span_ids.is_empty() && rng.gen_bool(0.2) {
            span_ids[rng.gen_range(0, span_ids.len())]
        } else {
            100 + rng.gen_range(0, 1000) as u64
        };
        span_ids.push(span);
        let begin = grid(rng, 8);
        let end = begin + grid(rng, 8);
        let track = random_track(rng);
        let tag = rng.gen_range(0, 4) as u64; // small pool: re-claimed tags
        timed.push((
            begin,
            TraceEvent::PhaseBegin {
                t: begin,
                track,
                span,
                label: LABELS[rng.gen_range(0, LABELS.len())].into(),
                bytes: 0.0,
                npus: 0,
                tag,
            },
        ));
        if rng.gen_bool(0.9) {
            timed.push((
                end,
                TraceEvent::PhaseEnd {
                    t: end,
                    track,
                    span,
                },
            ));
        }
        if span_ids.len() > 1 && rng.gen_bool(0.5) {
            let pred = span_ids[rng.gen_range(0, span_ids.len() - 1)];
            timed.push((
                begin,
                TraceEvent::SpanDep {
                    t: begin,
                    span,
                    pred,
                },
            ));
        }
    }
    let n_flows = rng.gen_range(0, 24);
    for id in 0..n_flows as u64 {
        let t = grid(rng, 12);
        // Routes of 0–4 hops; hops may repeat, and link `n_links` is
        // outside the capacity table.
        let hops = rng.gen_range(0, 5);
        let links: Rc<[u32]> = (0..hops)
            .map(|_| rng.gen_range(0, n_links + 1) as u32)
            .collect();
        let track = random_track(rng);
        let tag = rng.gen_range(0, 4) as u64;
        timed.push((
            t,
            TraceEvent::FlowInjected {
                t,
                id,
                tag,
                bytes: rng.gen_range(0, 400) as f64,
                track,
                links,
            },
        ));
        if rng.gen_bool(0.9) {
            // Zero-length flows drain at their injection instant.
            let drained = if rng.gen_bool(0.15) {
                t
            } else {
                t + grid(rng, 8)
            };
            timed.push((drained, TraceEvent::FlowDrained { t: drained, id }));
            let completed = drained + grid(rng, 2);
            timed.push((
                completed,
                TraceEvent::FlowCompleted {
                    t: completed,
                    id,
                    tag,
                    injected_at: t,
                    track,
                },
            ));
        }
    }
    if rng.gen_bool(0.2) {
        let t = grid(rng, 12);
        timed.push((
            t,
            TraceEvent::Fault {
                t,
                link: 0,
                capacity_fraction: 0.0,
                evicted: 1,
            },
        ));
    }
    timed.sort_by(|a, b| a.0.total_cmp(&b.0));
    events.extend(timed.into_iter().map(|(_, e)| e));
}

/// A stream of 1–4 segments; sometimes the first has no marker.
fn random_stream(seed: u64) -> Vec<TraceEvent> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut events = Vec::new();
    let segments = rng.gen_range_inclusive(1, 4);
    for i in 0..segments {
        let marker = i > 0 || rng.gen_bool(0.8);
        segment(&mut rng, marker, &mut events);
    }
    events
}

// ---------------------------------------------------------------------
// Oracle: the pairwise, string-keyed contention matrix.
// ---------------------------------------------------------------------

type Cell = (u32, String, String, u64, u64);

struct OracleFlow {
    bytes: f64,
    links: Rc<[u32]>,
    track: Track,
    injected: f64,
    drained: Option<f64>,
    span: Option<u64>,
}

fn oracle_slowdown(f: &OracleFlow, capacities: &[f64]) -> Option<f64> {
    let drained = f.drained?;
    let mut rate = f64::INFINITY;
    for &l in f.links.iter() {
        rate = rate.min(*capacities.get(l as usize)?);
    }
    if !rate.is_finite() || rate <= 0.0 {
        return None;
    }
    Some(((drained - f.injected) - f.bytes / rate).max(0.0))
}

/// Per segment with any span or flow: (spans, flows, contention cells
/// sorted largest slowdown first).
fn oracle(events: &[TraceEvent]) -> Vec<(usize, usize, Vec<Cell>)> {
    let mut cuts = vec![0];
    cuts.extend((1..events.len()).filter(|&i| matches!(events[i], TraceEvent::Topology { .. })));
    cuts.push(events.len());
    cuts.windows(2)
        .map(|w| oracle_segment(&events[w[0]..w[1]]))
        .filter(|(spans, flows, _)| *spans > 0 || *flows > 0)
        .collect()
}

fn oracle_segment(events: &[TraceEvent]) -> (usize, usize, Vec<Cell>) {
    let mut capacities: Vec<f64> = Vec::new();
    let mut labels: HashMap<u64, String> = HashMap::new();
    let mut open_tag: HashMap<u64, u64> = HashMap::new();
    let mut flows: Vec<OracleFlow> = Vec::new();
    let mut flow_by_id: HashMap<u64, usize> = HashMap::new();
    for e in events {
        match e {
            TraceEvent::Topology { capacities: c, .. } => capacities = c.to_vec(),
            TraceEvent::PhaseBegin {
                span, label, tag, ..
            } => {
                labels.insert(*span, label.to_string());
                if *tag != 0 {
                    open_tag.insert(*tag, *span);
                }
            }
            TraceEvent::PhaseEnd { span, .. } => open_tag.retain(|_, v| v != span),
            TraceEvent::FlowInjected {
                t,
                id,
                tag,
                bytes,
                track,
                links,
            } => {
                flow_by_id.insert(*id, flows.len());
                flows.push(OracleFlow {
                    bytes: *bytes,
                    links: links.clone(),
                    track: *track,
                    injected: *t,
                    drained: None,
                    span: if *tag != 0 {
                        open_tag.get(tag).copied()
                    } else {
                        None
                    },
                });
            }
            TraceEvent::FlowDrained { t, id } => {
                if let Some(&i) = flow_by_id.get(id) {
                    flows[i].drained = Some(*t);
                }
            }
            _ => {}
        }
    }
    let label_of = |f: &OracleFlow| match f.span {
        Some(s) => labels[&s].clone(),
        None => format!("untracked ({})", f.track),
    };

    let mut per_link: HashMap<u32, Vec<(usize, f64, f64)>> = HashMap::new();
    for (i, f) in flows.iter().enumerate() {
        let Some(d) = f.drained else { continue };
        if d <= f.injected {
            continue;
        }
        for &l in f.links.iter() {
            per_link.entry(l).or_default().push((i, f.injected, d));
        }
    }
    let mut overlap_w: HashMap<(u32, usize), BTreeMap<String, f64>> = HashMap::new();
    for (l, intervals) in per_link.iter_mut() {
        intervals.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        for i in 0..intervals.len() {
            let (fi, si, ei) = intervals[i];
            for &(fj, sj, ej) in intervals.iter().skip(i + 1) {
                if sj >= ei {
                    break;
                }
                let ov = ei.min(ej) - sj.max(si);
                if ov <= 0.0 {
                    continue;
                }
                *overlap_w
                    .entry((*l, fi))
                    .or_default()
                    .entry(label_of(&flows[fj]))
                    .or_insert(0.0) += ov;
                *overlap_w
                    .entry((*l, fj))
                    .or_default()
                    .entry(label_of(&flows[fi]))
                    .or_insert(0.0) += ov;
            }
        }
    }
    let mut cells: BTreeMap<(u32, String, String), (f64, f64)> = BTreeMap::new();
    for (i, f) in flows.iter().enumerate() {
        let victim = label_of(f);
        let total_w: f64 = f
            .links
            .iter()
            .filter_map(|l| overlap_w.get(&(*l, i)))
            .flat_map(|m| m.values())
            .sum();
        let slowdown = oracle_slowdown(f, &capacities).unwrap_or(0.0);
        for &l in f.links.iter() {
            let Some(m) = overlap_w.get(&(l, i)) else {
                continue;
            };
            for (culprit, w) in m {
                let cell = cells
                    .entry((l, victim.clone(), culprit.clone()))
                    .or_insert((0.0, 0.0));
                cell.0 += w;
                if total_w > 0.0 {
                    cell.1 += slowdown * w / total_w;
                }
            }
        }
    }
    let mut out: Vec<Cell> = cells
        .into_iter()
        .map(|((l, v, c), (ov, slow))| (l, v, c, ov.to_bits(), slow.to_bits()))
        .collect();
    out.sort_by(|a, b| {
        f64::from_bits(b.4)
            .total_cmp(&f64::from_bits(a.4))
            .then(f64::from_bits(b.3).total_cmp(&f64::from_bits(a.3)))
            .then((a.0, &a.1, &a.2).cmp(&(b.0, &b.1, &b.2)))
    });
    (labels.len(), flows.len(), out)
}

fn cells(r: &RunAnalysis) -> Vec<Cell> {
    r.contention
        .iter()
        .map(|c| {
            (
                c.link,
                c.victim.clone(),
                c.culprit.clone(),
                c.overlap_secs.to_bits(),
                c.slowdown_secs.to_bits(),
            )
        })
        .collect()
}

/// Every leaf of an analysis, floats as bit patterns.
fn leaves(a: &Analysis) -> Vec<String> {
    let mut out = vec![format!("dropped {}", a.dropped_events)];
    for r in &a.runs {
        let buckets: Vec<u64> = Bucket::ALL
            .iter()
            .map(|&b| r.attribution.get(b).to_bits())
            .collect();
        out.push(format!(
            "run makespan {:x} flows {} spans {} faults {} buckets {buckets:x?}",
            r.makespan.to_bits(),
            r.flows,
            r.spans,
            r.faults
        ));
        out.extend(r.critical_path.iter().map(|c| {
            format!(
                "step {} {} {:x} {:x} {:x}",
                c.label,
                c.track.short(),
                c.begin.to_bits(),
                c.secs.to_bits(),
                c.ideal_secs.to_bits()
            )
        }));
        out.extend(cells(r).iter().map(|c| format!("cell {c:?}")));
    }
    out
}

#[test]
fn contention_matrix_matches_pairwise_oracle_bit_for_bit() {
    let mut compared = 0;
    for seed in 0..SEEDS {
        let events = random_stream(seed);
        let got = Analysis::from_events(&events);
        let want = oracle(&events);
        assert_eq!(got.runs.len(), want.len(), "seed {seed}: segment count");
        for (i, (run, (spans, flows, cells_want))) in got.runs.iter().zip(&want).enumerate() {
            assert_eq!(
                (run.spans, run.flows),
                (*spans, *flows),
                "seed {seed} run {i}"
            );
            assert_eq!(&cells(run), cells_want, "seed {seed} run {i}: contention");
            compared += cells_want.len();
        }
    }
    assert!(compared > 1000, "only {compared} contention cells compared");
}

#[test]
fn streaming_sink_equals_from_events() {
    let mut runs = 0;
    for seed in 0..SEEDS {
        let events = random_stream(seed);
        let ring = Rc::new(RingRecorder::with_capacity(events.len().max(1)));
        let sink = Rc::new(AnalysisSink::new());
        let tee = TeeSink(ring.clone(), sink.clone());
        for e in &events {
            tee.record(e.clone());
        }
        assert_eq!(tee.dropped(), 0);
        let streamed = sink.finish();
        assert!(!streamed.truncated());
        let batch = Analysis::from_events(&ring.events());
        assert_eq!(leaves(&streamed), leaves(&batch), "seed {seed}");
        // A finished sink starts over empty.
        assert!(sink.finish().runs.is_empty());
        for r in &streamed.runs {
            let rel = (r.attribution.total() - r.makespan).abs() / r.makespan.max(1e-12);
            assert!(
                rel < 1e-9,
                "seed {seed}: {:?} vs {}",
                r.attribution,
                r.makespan
            );
        }
        runs += streamed.runs.len();
    }
    assert!(runs > SEEDS as usize, "only {runs} runs compared");
}
