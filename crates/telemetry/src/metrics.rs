//! Aggregate metrics computed from a recorded event stream.
//!
//! Where the Perfetto export answers "what happened when", this layer
//! answers "how much, overall": per-link busy time and peak/mean
//! utilization, the flow-completion-time distribution, and effective
//! bandwidth per phase in GB/s per NPU — the unit the paper reports in
//! §8.1.

use std::collections::HashMap;

use crate::event::{TraceEvent, Track};
use crate::json::{push_num, push_str_lit};

/// Number of log₁₀ buckets in the completion-time histogram
/// (`[1 ns, 10 ns)`, …, `[100 s, ∞)`).
pub const FCT_BUCKETS: usize = 12;
/// Lower edge of the first histogram bucket, in seconds.
const FCT_FLOOR: f64 = 1e-9;

/// Per-link utilization summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkMetrics {
    /// Link index (`LinkId.0`).
    pub link: u32,
    /// Seconds with nonzero allocated rate.
    pub busy_secs: f64,
    /// Time-weighted mean utilization over the link's observed time.
    /// Observed time sums every interval between consecutive samples
    /// of this link, so it stays well-defined even when one recording
    /// spans several simulations that each restart at `t = 0`.
    pub mean_utilization: f64,
    /// Peak utilization observed.
    pub peak_utilization: f64,
}

/// Flow-completion-time distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct FctHistogram {
    /// Count per log₁₀ bucket; bucket `i` covers
    /// `[1e-9 × 10^i, 1e-9 × 10^(i+1))` seconds, the last is open.
    pub buckets: [u64; FCT_BUCKETS],
    /// Completed-flow count.
    pub count: u64,
    /// Shortest completion time (seconds).
    pub min_secs: f64,
    /// Longest completion time (seconds).
    pub max_secs: f64,
    /// Sum of completion times (for the mean).
    pub total_secs: f64,
}

impl Default for FctHistogram {
    fn default() -> FctHistogram {
        FctHistogram {
            buckets: [0; FCT_BUCKETS],
            count: 0,
            min_secs: f64::INFINITY,
            max_secs: 0.0,
            total_secs: 0.0,
        }
    }
}

impl FctHistogram {
    fn add(&mut self, secs: f64) {
        let secs = secs.max(0.0);
        let idx = if secs < FCT_FLOOR {
            0
        } else {
            (((secs / FCT_FLOOR).log10()) as usize).min(FCT_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.min_secs = self.min_secs.min(secs);
        self.max_secs = self.max_secs.max(secs);
        self.total_secs += secs;
    }

    /// Mean completion time in seconds (0 when empty).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_secs / self.count as f64
        }
    }
}

/// One completed phase span.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetrics {
    /// Phase label.
    pub label: String,
    /// Display track (parallelism dimension).
    pub track: Track,
    /// Phase duration in seconds.
    pub secs: f64,
    /// Bytes the phase moved.
    pub bytes: f64,
    /// Participating endpoints.
    pub npus: u32,
}

impl PhaseMetrics {
    /// Effective bandwidth in GB/s per NPU (the §8.1 metric);
    /// 0 when duration, bytes or NPU count is unknown.
    pub fn effective_gbps_per_npu(&self) -> f64 {
        if self.secs > 0.0 && self.npus > 0 {
            self.bytes / self.secs / self.npus as f64 / 1e9
        } else {
            0.0
        }
    }
}

/// The full aggregation of one recorded run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Per-link summaries, densest first (sorted by busy time).
    pub links: Vec<LinkMetrics>,
    /// Completion-time histogram over all flows.
    pub fct: FctHistogram,
    /// Completed phases, in end order.
    pub phases: Vec<PhaseMetrics>,
    /// Rate-reallocation epochs observed.
    pub rate_epochs: u64,
    /// Flows injected.
    pub flows_injected: u64,
    /// Fault events observed (link failures + degradations).
    pub faults: u64,
    /// Flows evicted by link failures (re-routed by the caller).
    pub flows_evicted: u64,
    /// Last event timestamp (the observation window end), seconds.
    pub end_time: f64,
    /// Events the ring recorder overwrote before aggregation (see
    /// [`crate::sink::RingRecorder::overwritten`]). Non-zero means
    /// every aggregate here was computed over a truncated trace.
    pub dropped_events: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct LinkAccum {
    last_t: f64,
    last_util: f64,
    busy: f64,
    util_integral: f64,
    observed: f64,
    peak: f64,
    seen: bool,
}

impl Metrics {
    /// Aggregates `events` (oldest first, as returned by
    /// `RingRecorder::events`).
    pub fn from_events(events: &[TraceEvent]) -> Metrics {
        let mut m = Metrics::default();
        let mut links: HashMap<u32, LinkAccum> = HashMap::new();
        struct Open {
            label: Box<str>,
            track: Track,
            t: f64,
            bytes: f64,
            npus: u32,
        }
        let mut open: HashMap<u64, Open> = HashMap::new();

        for e in events {
            m.end_time = m.end_time.max(e.time());
            match e {
                TraceEvent::FlowInjected { .. } => m.flows_injected += 1,
                TraceEvent::FlowDrained { .. } => {}
                TraceEvent::FlowCompleted { t, injected_at, .. } => {
                    m.fct.add(t - injected_at);
                }
                TraceEvent::RateEpoch { .. } => m.rate_epochs += 1,
                TraceEvent::LinkUtil {
                    t,
                    link,
                    utilization,
                } => {
                    let a = links.entry(*link).or_default();
                    if a.seen {
                        // A negative step means a new simulation
                        // restarted the clock; skip that interval.
                        let dt = (t - a.last_t).max(0.0);
                        if a.last_util > 0.0 {
                            a.busy += dt;
                        }
                        a.util_integral += a.last_util * dt;
                        a.observed += dt;
                    }
                    a.seen = true;
                    a.last_t = *t;
                    a.last_util = *utilization;
                    a.peak = a.peak.max(*utilization);
                }
                TraceEvent::PhaseBegin {
                    t,
                    track,
                    span,
                    label,
                    bytes,
                    npus,
                    ..
                } => {
                    open.insert(
                        *span,
                        Open {
                            label: label.clone(),
                            track: *track,
                            t: *t,
                            bytes: *bytes,
                            npus: *npus,
                        },
                    );
                }
                TraceEvent::PhaseEnd { t, span, .. } => {
                    if let Some(o) = open.remove(span) {
                        m.phases.push(PhaseMetrics {
                            label: o.label.into(),
                            track: o.track,
                            secs: (t - o.t).max(0.0),
                            bytes: o.bytes,
                            npus: o.npus,
                        });
                    }
                }
                TraceEvent::Fault { evicted, .. } => {
                    m.faults += 1;
                    m.flows_evicted += *evicted as u64;
                }
                TraceEvent::IterStage { .. }
                | TraceEvent::Topology { .. }
                | TraceEvent::SpanDep { .. }
                | TraceEvent::Sample { .. } => {}
            }
        }

        // Close the utilization integrals at the window end.
        let window = m.end_time;
        m.links = links
            .into_iter()
            .map(|(link, mut a)| {
                let dt = (window - a.last_t).max(0.0);
                if a.last_util > 0.0 {
                    a.busy += dt;
                }
                a.util_integral += a.last_util * dt;
                a.observed += dt;
                LinkMetrics {
                    link,
                    busy_secs: a.busy,
                    mean_utilization: if a.observed > 0.0 {
                        a.util_integral / a.observed
                    } else {
                        0.0
                    },
                    peak_utilization: a.peak,
                }
            })
            .collect();
        m.links.sort_by(|a, b| {
            b.busy_secs
                .partial_cmp(&a.busy_secs)
                .unwrap()
                .then(a.link.cmp(&b.link))
        });
        m
    }

    /// Records how many events the ring recorder overwrote before the
    /// trace was aggregated.
    pub fn with_dropped(mut self, dropped: u64) -> Metrics {
        self.dropped_events = dropped;
        self
    }

    /// Whether the underlying trace lost events to ring overflow.
    pub fn truncated(&self) -> bool {
        self.dropped_events > 0
    }

    /// Renders the metrics as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"window_secs\":");
        push_num(&mut s, self.end_time);
        s.push_str(",\"trace_truncated\":");
        s.push_str(if self.truncated() { "true" } else { "false" });
        s.push_str(",\"dropped_events\":");
        push_num(&mut s, self.dropped_events as f64);
        s.push_str(",\"flows_injected\":");
        push_num(&mut s, self.flows_injected as f64);
        s.push_str(",\"rate_epochs\":");
        push_num(&mut s, self.rate_epochs as f64);
        s.push_str(",\"faults\":");
        push_num(&mut s, self.faults as f64);
        s.push_str(",\"flows_evicted\":");
        push_num(&mut s, self.flows_evicted as f64);

        s.push_str(",\"fct\":{\"count\":");
        push_num(&mut s, self.fct.count as f64);
        s.push_str(",\"min_secs\":");
        push_num(
            &mut s,
            if self.fct.count == 0 {
                0.0
            } else {
                self.fct.min_secs
            },
        );
        s.push_str(",\"mean_secs\":");
        push_num(&mut s, self.fct.mean_secs());
        s.push_str(",\"max_secs\":");
        push_num(&mut s, self.fct.max_secs);
        s.push_str(",\"log10_buckets_from_1ns\":[");
        for (i, b) in self.fct.buckets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_num(&mut s, *b as f64);
        }
        s.push_str("]}");

        s.push_str(",\"links\":[");
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"link\":");
            push_num(&mut s, l.link as f64);
            s.push_str(",\"busy_secs\":");
            push_num(&mut s, l.busy_secs);
            s.push_str(",\"mean_utilization\":");
            push_num(&mut s, l.mean_utilization);
            s.push_str(",\"peak_utilization\":");
            push_num(&mut s, l.peak_utilization);
            s.push('}');
        }
        s.push(']');

        s.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"label\":");
            push_str_lit(&mut s, &p.label);
            s.push_str(",\"track\":");
            push_str_lit(&mut s, p.track.name());
            s.push_str(",\"secs\":");
            push_num(&mut s, p.secs);
            s.push_str(",\"bytes\":");
            push_num(&mut s, p.bytes);
            s.push_str(",\"npus\":");
            push_num(&mut s, p.npus as f64);
            s.push_str(",\"eff_GBps_per_npu\":");
            push_num(&mut s, p.effective_gbps_per_npu());
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PhaseBegin {
                t: 0.0,
                track: Track::Dp,
                span: 1,
                label: "dp-allreduce".into(),
                bytes: 4e9,
                npus: 2,
                tag: 0,
            },
            TraceEvent::FlowInjected {
                t: 0.0,
                id: 0,
                tag: 0,
                bytes: 2e9,
                track: Track::Dp,
                links: [2, 3].into(),
            },
            TraceEvent::RateEpoch {
                t: 0.0,
                active_flows: 1,
                changed: 1,
            },
            TraceEvent::LinkUtil {
                t: 0.0,
                link: 3,
                utilization: 0.8,
            },
            TraceEvent::FlowDrained { t: 1.0, id: 0 },
            TraceEvent::LinkUtil {
                t: 1.0,
                link: 3,
                utilization: 0.0,
            },
            TraceEvent::RateEpoch {
                t: 1.0,
                active_flows: 0,
                changed: 1,
            },
            TraceEvent::FlowCompleted {
                t: 1.5,
                id: 0,
                tag: 0,
                injected_at: 0.0,
                track: Track::Dp,
            },
            TraceEvent::PhaseEnd {
                t: 2.0,
                track: Track::Dp,
                span: 1,
            },
        ]
    }

    #[test]
    fn aggregates_links_flows_and_phases() {
        let m = Metrics::from_events(&events());
        assert_eq!(m.flows_injected, 1);
        assert_eq!(m.rate_epochs, 2);
        assert_eq!(m.end_time, 2.0);

        assert_eq!(m.links.len(), 1);
        let l = &m.links[0];
        assert_eq!(l.link, 3);
        assert!((l.busy_secs - 1.0).abs() < 1e-12, "busy {}", l.busy_secs);
        // 0.8 for 1 s out of a 2 s window.
        assert!((l.mean_utilization - 0.4).abs() < 1e-12);
        assert!((l.peak_utilization - 0.8).abs() < 1e-12);

        assert_eq!(m.fct.count, 1);
        assert!((m.fct.mean_secs() - 1.5).abs() < 1e-12);

        assert_eq!(m.phases.len(), 1);
        let p = &m.phases[0];
        assert!((p.secs - 2.0).abs() < 1e-12);
        // 4e9 bytes / 2 s / 2 npus = 1 GB/s per NPU.
        assert!((p.effective_gbps_per_npu() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fct_buckets_are_log_scale() {
        let mut h = FctHistogram::default();
        h.add(5e-9); // bucket 0: [1ns, 10ns)
        h.add(5e-6); // bucket 3: [1us, 10us)
        h.add(5.0); // bucket 9: [1s, 10s)
        h.add(1e9); // clamped to the last bucket
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[9], 1);
        assert_eq!(h.buckets[FCT_BUCKETS - 1], 1);
        assert_eq!(h.count, 4);
    }

    #[test]
    fn json_roundtrip_structure() {
        let m = Metrics::from_events(&events());
        let j = m.to_json();
        assert!(j.contains("\"links\""));
        assert!(j.contains("\"phases\""));
        assert!(j.contains("dp-allreduce"));
        let braces: i64 = j
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0);
    }

    #[test]
    fn dropped_events_surface_in_json() {
        let m = Metrics::from_events(&events()).with_dropped(7);
        assert!(m.truncated());
        let j = m.to_json();
        assert!(j.contains("\"trace_truncated\":true"));
        assert!(j.contains("\"dropped_events\":7"));
        let clean = Metrics::from_events(&events());
        assert!(!clean.truncated());
        assert!(clean.to_json().contains("\"trace_truncated\":false"));
    }

    #[test]
    fn empty_events_give_empty_metrics() {
        let m = Metrics::from_events(&[]);
        assert_eq!(m.flows_injected, 0);
        assert!(m.links.is_empty());
        assert!(m.phases.is_empty());
        assert_eq!(m.fct.mean_secs(), 0.0);
        let _ = m.to_json();
    }
}
