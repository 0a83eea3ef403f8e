//! Property tests for the snapshot/restore contract (DESIGN.md §12):
//! capturing at *any* event boundary of a faulted, evicted or
//! preempted run and resuming — through the full binary and JSON
//! codecs — must be bit-identical to never having stopped, damaged
//! snapshot files must fail with typed errors or restore and run,
//! never panic, and the wire format is pinned byte for byte.

use std::rc::Rc;

use fred::cluster::{Cluster, ClusterConfig, ClusterError, ClusterState, JobClass, JobSpec};
use fred::core::codec::{self, SnapshotError};
use fred::core::params::FabricConfig;
use fred::core::placement::Strategy3D;
use fred::core::snapshot::{SimState, SIM_STATE_VERSION};
use fred::mesh::topology::MeshFabric;
use fred::sim::fault::FaultPlan;
use fred::sim::flow::{FlowSpec, Priority};
use fred::sim::netsim::FlowNetwork;
use fred::sim::time::Time;
use fred::telemetry::sink::NullSink;
use fred::workloads::backend::FabricBackend;
use fred::workloads::model::DnnModel;
use fred::workloads::schedule::ScheduleParams;
use fred::workloads::trainer::simulate;

/// One banked observation: completions (kind 0, completed-at bits) and
/// settled evictions (kind 1, remaining-bytes bits), in arrival order.
type Banked = Vec<(u8, u64, u64)>;

fn mesh() -> MeshFabric {
    MeshFabric::new(4, 4, 750e9, 128e9, 20e-9)
}

fn flow(
    m: &MeshFabric,
    s: (usize, usize),
    d: (usize, usize),
    mb: f64,
    p: Priority,
    tag: u64,
) -> FlowSpec {
    FlowSpec::new(m.xy_route(m.npu_at(s.0, s.1), m.npu_at(d.0, d.1)), mb * 1e6)
        .with_priority(p)
        .with_tag(tag)
}

/// Wave 1: spread over the mesh, several flows crossing the link that
/// the script later kills (so the fault mid-run evicts live traffic).
fn wave1(m: &MeshFabric) -> Vec<FlowSpec> {
    vec![
        flow(m, (0, 0), (2, 2), 4.0, Priority::Mp, 0),
        flow(m, (3, 0), (3, 2), 6.0, Priority::Dp, 1),
        flow(m, (3, 0), (3, 3), 8.0, Priority::Bulk, 2),
        flow(m, (1, 1), (0, 3), 3.0, Priority::Mp, 3),
        flow(m, (2, 0), (0, 1), 5.0, Priority::Dp, 4),
        flow(m, (3, 1), (1, 3), 7.0, Priority::Bulk, 5),
        flow(m, (0, 2), (2, 3), 2.0, Priority::Mp, 6),
        flow(m, (2, 2), (3, 3), 9.0, Priority::Dp, 7),
    ]
}

/// Wave 2 (injected mid-run): confined to columns 0–2, so XY routes
/// never touch the column-3 link failed at step 3.
fn wave2(m: &MeshFabric) -> Vec<FlowSpec> {
    vec![
        flow(m, (0, 0), (2, 1), 3.0, Priority::Mp, 8),
        flow(m, (1, 2), (0, 0), 6.0, Priority::Dp, 9),
        flow(m, (2, 3), (0, 2), 4.0, Priority::Bulk, 10),
        flow(m, (0, 1), (1, 3), 5.0, Priority::Mp, 11),
        flow(m, (2, 1), (1, 0), 2.0, Priority::Dp, 12),
    ]
}

fn bank_evicted(banked: &mut Banked, evicted: Vec<fred::sim::netsim::EvictedFlow>) {
    for e in evicted {
        banked.push((1, e.tag, e.remaining_bytes.to_bits()));
    }
}

/// Scripted mutations keyed by event-boundary index, applied *before*
/// the boundary's event is processed. The resume loop re-enters here
/// with the step counter carried by the test, so an uninterrupted run
/// and any capture/resume split replay the same script.
fn plain_actions(net: &mut FlowNetwork, m: &MeshFabric, step: usize, banked: &mut Banked) {
    match step {
        3 => {
            let dead = m.xy_route(m.npu_at(3, 0), m.npu_at(3, 1))[0];
            bank_evicted(banked, net.fail_link(dead));
        }
        4 => {
            net.inject_batch(wave2(m))
                .expect("wave 2 avoids the dead link");
        }
        7 => {
            let slow = m.xy_route(m.npu_at(0, 0), m.npu_at(0, 1))[0];
            net.degrade_link(slow, 0.5);
        }
        9 => {
            bank_evicted(banked, net.evict_flows_matching(|tag| tag % 4 == 1));
        }
        _ => {}
    }
}

/// Drives the faulted/evicted plain-network script from `*step`,
/// stopping before boundary `stop_before` (`None` = run dry).
fn drive_plain(
    net: &mut FlowNetwork,
    m: &MeshFabric,
    step: &mut usize,
    banked: &mut Banked,
    stop_before: Option<usize>,
) {
    loop {
        if stop_before == Some(*step) {
            return;
        }
        plain_actions(net, m, *step, banked);
        let Some(te) = net.next_event() else { return };
        net.advance_to(te);
        for c in net.drain_completed() {
            banked.push((0, c.tag, c.completed_at.as_secs().to_bits()));
        }
        *step += 1;
    }
}

#[test]
fn every_boundary_of_a_faulted_evicted_run_resumes_bit_identically() {
    let m = mesh();
    // Uninterrupted reference.
    let mut reference = FlowNetwork::new(m.clone_topology());
    reference.inject_batch(wave1(&m)).unwrap();
    let mut ref_banked = Banked::new();
    let mut ref_step = 0;
    drive_plain(&mut reference, &m, &mut ref_step, &mut ref_banked, None);
    let ref_now = reference.now().as_secs().to_bits();
    assert!(ref_step > 10, "script too short to be interesting");

    for boundary in 0..=ref_step {
        let mut net = FlowNetwork::new(m.clone_topology());
        net.inject_batch(wave1(&m)).unwrap();
        let mut banked = Banked::new();
        let mut step = 0;
        drive_plain(&mut net, &m, &mut step, &mut banked, Some(boundary));
        // Capture through the versioned container and BOTH codecs.
        let mut sim = SimState::new();
        sim.insert("net", net.to_value());
        let from_bin = SimState::from_binary(&sim.to_binary()).unwrap();
        let from_json = SimState::from_json(&sim.to_json()).unwrap();
        assert_eq!(
            from_bin, sim,
            "binary codec not lossless at boundary {boundary}"
        );
        assert_eq!(
            from_json, sim,
            "JSON codec not lossless at boundary {boundary}"
        );
        let state = from_bin.section("net").unwrap();
        let mut resumed =
            FlowNetwork::from_value(m.clone_topology(), Rc::new(NullSink), state).unwrap();
        assert_eq!(
            &resumed.to_value(),
            state,
            "re-encoding a restore moved at boundary {boundary}"
        );
        drive_plain(&mut resumed, &m, &mut step, &mut banked, None);
        assert_eq!(
            resumed.now().as_secs().to_bits(),
            ref_now,
            "clock diverged resuming from boundary {boundary}"
        );
        assert_eq!(
            banked, ref_banked,
            "completions/evictions diverged resuming from boundary {boundary}"
        );
    }
}

/// Two Low jobs fill the wafer; the High arrival at `solo × 0.25`
/// forces a preemption; the fault plan on low-a fires while it runs.
/// Returns the config, the job list and the solo makespan.
fn cluster_scenario() -> (ClusterConfig, Vec<JobSpec>, f64) {
    let model = DnnModel::resnet152();
    let strategy = Strategy3D::new(1, 10, 1);
    let params = ScheduleParams::sweep_default(&model, strategy);
    let job = |name: &str| JobSpec::new(name, model.clone(), strategy, params);
    let backend = FabricBackend::new(FabricConfig::FredD);
    let solo = simulate(&model, strategy, &backend, params)
        .unwrap()
        .total
        .as_secs();
    let faults = FaultPlan::seeded_link_failures(
        &backend.topology(),
        0.03,
        Time::from_secs(solo * 0.35),
        0xFA_17,
    );
    assert!(!faults.is_empty());
    let jobs = vec![
        job("low-a").with_class(JobClass::Low).with_faults(faults),
        job("low-b").with_class(JobClass::Low),
        job("high")
            .with_class(JobClass::High)
            .with_arrival(Time::from_secs(solo * 0.25)),
    ];
    (ClusterConfig::new(FabricConfig::FredD), jobs, solo)
}

#[test]
fn cluster_boundaries_with_faults_and_preemption_resume_bit_identically() {
    let (cfg, jobs, _) = cluster_scenario();
    let mk = || jobs.clone();

    let mut reference = Cluster::new(cfg.clone(), mk(), Rc::new(NullSink)).unwrap();
    reference.run_to_completion().unwrap();
    let baseline = reference.into_report();

    // Walk one cluster forward, capturing at every event boundary;
    // resume a sampled subset to completion (every boundary would be
    // O(n²) full runs — the stride still lands captures mid-fault,
    // mid-preemption, and mid-queue).
    let mut walker = Cluster::new(cfg.clone(), mk(), Rc::new(NullSink)).unwrap();
    let mut boundary = 0usize;
    while let Some(t) = walker.next_event() {
        let state = walker.snapshot();
        let mut sim = SimState::new();
        sim.insert("cluster", state.to_value());
        let decoded = SimState::from_binary(&sim.to_binary()).unwrap();
        assert_eq!(
            decoded, sim,
            "binary codec not lossless at boundary {boundary}"
        );
        if boundary.is_multiple_of(7) {
            let section = decoded.section("cluster").unwrap();
            let st = ClusterState::from_value(section).unwrap();
            let mut resumed = Cluster::restore(cfg.clone(), mk(), Rc::new(NullSink), st).unwrap();
            assert_eq!(
                &resumed.snapshot().to_value(),
                section,
                "re-encoding a restore moved at boundary {boundary}"
            );
            resumed.run_to_completion().unwrap();
            let report = resumed.into_report();
            assert_eq!(
                report.makespan.as_secs().to_bits(),
                baseline.makespan.as_secs().to_bits(),
                "makespan diverged resuming from boundary {boundary}"
            );
            assert_eq!(report.preemptions, baseline.preemptions);
            for (a, b) in report.records.iter().zip(&baseline.records) {
                assert_eq!(
                    a.completion.as_secs().to_bits(),
                    b.completion.as_secs().to_bits(),
                    "job {} diverged resuming from boundary {boundary}",
                    a.name
                );
                assert_eq!(a.preemptions, b.preemptions);
            }
        }
        walker.run_until(t).unwrap();
        boundary += 1;
    }
    assert!(boundary > 20, "cluster script too short to be interesting");
    assert!(baseline.preemptions > 0, "scenario must actually preempt");
}

/// The scripted network capture the damage and wire-format tests
/// share: the faulted script run to boundary 4, then wave 2 injected —
/// a failed link, evicted flows, in-flight drains, pending completions
/// and solver deltas still unsolved.
fn net_capture(m: &MeshFabric) -> SimState {
    let mut net = FlowNetwork::new(m.clone_topology());
    net.inject_batch(wave1(m)).unwrap();
    let (mut banked, mut step) = (Banked::new(), 0);
    drive_plain(&mut net, m, &mut step, &mut banked, Some(4));
    plain_actions(&mut net, m, step, &mut banked);
    let mut sim = SimState::new();
    sim.insert("net", net.to_value());
    sim
}

/// The scripted cluster capture: [`cluster_scenario`] run to 30% of the
/// solo makespan (after the preemption, before the fault fires).
fn cluster_capture() -> SimState {
    let (cfg, jobs, solo) = cluster_scenario();
    let mut cluster = Cluster::new(cfg, jobs, Rc::new(NullSink)).unwrap();
    cluster.run_until(Time::from_secs(solo * 0.3)).unwrap();
    let mut sim = SimState::new();
    sim.insert("cluster", cluster.snapshot().to_value());
    sim
}

/// Decodes a network snapshot, restores it and runs it dry. Any panic
/// fails the calling test.
fn restore_and_run_net(m: &MeshFabric, bytes: &[u8]) -> Result<(), SnapshotError> {
    let sim = SimState::from_binary(bytes)?;
    let state = sim.section("net")?;
    let mut net = FlowNetwork::from_value(m.clone_topology(), Rc::new(NullSink), state)?;
    net.run_to_completion();
    Ok(())
}

#[test]
fn damaged_snapshot_files_yield_typed_errors_not_panics() {
    // A real snapshot to damage.
    let m = mesh();
    let sim = net_capture(&m);
    let good = sim.to_binary();
    assert_eq!(restore_and_run_net(&m, &good), Ok(()));

    // Every single-byte corruption of the network snapshot either fails
    // typed or restores and runs to completion — it must never panic.
    let mut typed = 0;
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] = !bad[i];
        typed += usize::from(restore_and_run_net(&m, &bad).is_err());
    }
    assert!(
        typed > good.len() / 2,
        "only {typed} corruptions were caught"
    );

    // Every 13th byte of a cluster snapshot: typed, or restore and run
    // to completion (a damaged run may end in a typed cluster error).
    let (cfg, jobs, _) = cluster_scenario();
    let cluster_bin = cluster_capture().to_binary();
    for i in (0..cluster_bin.len()).step_by(13) {
        let mut bad = cluster_bin.clone();
        bad[i] = !bad[i];
        let Ok(state) = SimState::from_binary(&bad)
            .and_then(|sim| ClusterState::from_value(sim.section("cluster")?))
        else {
            continue;
        };
        if let Ok(mut cluster) =
            Cluster::restore(cfg.clone(), jobs.clone(), Rc::new(NullSink), state)
        {
            let _ = cluster.run_to_completion();
        }
    }

    // Wrong magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        SimState::from_binary(&bad),
        Err(SnapshotError::BadMagic)
    ));

    // Wrong version.
    let mut bad = good.clone();
    bad[8] = bad[8].wrapping_add(1);
    assert!(matches!(
        SimState::from_binary(&bad),
        Err(SnapshotError::BadVersion { .. })
    ));

    // Truncation at every prefix length must error, never panic.
    for len in 0..good.len().min(64) {
        assert!(SimState::from_binary(&good[..len]).is_err());
    }
    assert!(SimState::from_binary(&good[..good.len() - 1]).is_err());

    // JSON damage: wrong magic/version are typed, truncation is a
    // parse error, and a structurally-valid but wrong-shaped document
    // is a typed mismatch.
    let json = sim.to_json();
    assert!(SimState::from_json(&json[..json.len() / 2]).is_err());
    let wrong_magic = json.replacen("FREDSNAP", "NOTASNAP", 1);
    assert!(matches!(
        SimState::from_json(&wrong_magic),
        Err(SnapshotError::BadMagic)
    ));
    let wrong_shape =
        format!(r#"{{"magic":"FREDSNAP","version":{SIM_STATE_VERSION},"sections":{{"net":42}}}}"#);
    let decoded = SimState::from_json(&wrong_shape).unwrap();
    assert!(matches!(
        FlowNetwork::from_value(
            m.clone_topology(),
            Rc::new(NullSink),
            decoded.section("net").unwrap()
        ),
        Err(SnapshotError::Mismatch(_))
    ));

    // A sound snapshot paired with the wrong topology or job list is a
    // typed mismatch too.
    let other = MeshFabric::new(4, 3, 750e9, 128e9, 20e-9);
    assert!(matches!(
        FlowNetwork::from_value(
            other.clone_topology(),
            Rc::new(NullSink),
            sim.section("net").unwrap()
        ),
        Err(SnapshotError::Mismatch(_))
    ));
    let state = ClusterState::from_value(
        SimState::from_binary(&cluster_bin)
            .unwrap()
            .section("cluster")
            .unwrap(),
    )
    .unwrap();
    let err = Cluster::restore(cfg, jobs[..2].to_vec(), Rc::new(NullSink), state).err();
    assert!(
        matches!(
            err,
            Some(ClusterError::Snapshot(SnapshotError::Mismatch(_)))
        ),
        "{err:?}"
    );

    // Codec-level detail: a valid header followed by a string whose
    // claimed length exceeds the buffer is typed, not an allocation.
    let mut claim = Vec::new();
    claim.extend_from_slice(&codec::SNAPSHOT_MAGIC);
    claim.extend_from_slice(&codec::SNAPSHOT_VERSION.to_le_bytes());
    claim.extend_from_slice(&[4, 0xFF, 0xFF, 0xFF, 0x7F]);
    assert!(codec::from_binary(&claim).is_err());
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn wire_format_is_pinned_byte_for_byte() {
    // Length and FNV-1a digest of the binary encodings of the two
    // scripted captures. The values were computed by the build that
    // predates per-layer `to_value`/`from_value` (the snapshot mirror
    // structs and their converters), so they prove the refactor kept
    // every field name, order and encoding. Any deliberate wire-format
    // change must bump `SIM_STATE_VERSION` or `SNAPSHOT_VERSION` and
    // re-pin these.
    let net = net_capture(&mesh()).to_binary();
    assert_eq!((net.len(), fnv1a(&net)), (8925, 0xec13_73c5_9472_9c27));
    let cluster = cluster_capture().to_binary();
    assert_eq!(
        (cluster.len(), fnv1a(&cluster)),
        (16058, 0x8c31_d2f6_7b80_5d3e)
    );
    assert_eq!((SIM_STATE_VERSION, codec::SNAPSHOT_VERSION), (2, 1));
}

#[test]
fn truncation_at_every_fixed_width_boundary_is_typed_truncated() {
    use fred::core::codec::Value;
    // A document whose binary image exercises every fixed-width field
    // the format has — the 8-byte magic, the 4-byte version, and 8-byte
    // f64 payloads (including negative-zero and non-finite bit
    // patterns) — interleaved with variable-width strings and varints.
    let v = Value::Obj(vec![
        (
            "nums".into(),
            Value::Arr(vec![
                Value::Num(0.0),
                Value::Num(-0.0),
                Value::Num(1.5e300),
                Value::Num(f64::NEG_INFINITY),
                Value::Num(f64::from_bits(0x7FF8_0000_DEAD_BEEF)),
            ]),
        ),
        ("s".into(), Value::Str("tail".into())),
        ("b".into(), Value::Bool(true)),
    ]);
    let bytes = codec::to_binary(&v);
    assert!(codec::from_binary(&bytes).is_ok());

    // Every strict prefix — cutting inside the magic, inside the
    // version word, inside any f64 payload, or anywhere else — must be
    // exactly `Truncated`: never a panic, never mis-typed.
    for len in 0..bytes.len() {
        let err = codec::from_binary(&bytes[..len]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated),
            "prefix of {len}/{} bytes gave {err:?}, expected Truncated",
            bytes.len()
        );
    }

    // Targeted minimal buffers: a version word cut at each of its four
    // byte boundaries, and a number tag followed by 0..8 payload bytes.
    for cut in 0..4 {
        let mut short = Vec::new();
        short.extend_from_slice(&codec::SNAPSHOT_MAGIC);
        short.extend_from_slice(&codec::SNAPSHOT_VERSION.to_le_bytes()[..cut]);
        assert!(
            matches!(codec::from_binary(&short), Err(SnapshotError::Truncated)),
            "version cut at byte {cut}"
        );
    }
    for cut in 0..8 {
        let mut short = Vec::new();
        short.extend_from_slice(&codec::SNAPSHOT_MAGIC);
        short.extend_from_slice(&codec::SNAPSHOT_VERSION.to_le_bytes());
        short.push(3); // TAG_NUM
        short.extend_from_slice(&1.25f64.to_bits().to_le_bytes()[..cut]);
        assert!(
            matches!(codec::from_binary(&short), Err(SnapshotError::Truncated)),
            "f64 payload cut at byte {cut}"
        );
    }
}
