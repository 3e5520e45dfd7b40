//! The telemetry plane's determinism contract: the rendered summary and
//! the JSONL event stream are *byte-identical* across worker counts and
//! across both transport backends. Worker count cannot matter because
//! shards record locally and merge in shard-key order; the transport
//! cannot matter because only transport-independent observables (packet
//! walks, probe RTTs, attempt counts, byte counts) enter the plane —
//! transfer durations, where the backends differ in the low bits, never
//! do.
//!
//! The tests run concurrently: each run carries its own fault schedule
//! and transport, so the heavy-fault fleet case cannot leak its schedule
//! into a sibling's fault-free campaign.

use roam_bench::CampaignRunner;
use roamsim::fleet::FleetRunner;
use roamsim::netsim::{FaultSpec, TransportKind};
use roamsim::telemetry::TelemetryMode;

const SEED: u64 = 17;

const MATRIX: [(usize, TransportKind); 4] = [
    (1, TransportKind::ClosedForm),
    (4, TransportKind::ClosedForm),
    (1, TransportKind::Engine),
    (4, TransportKind::Engine),
];

#[test]
fn telemetry_bytes_survive_workers_and_transports() {
    let mut device = Vec::new();
    let mut survey = Vec::new();
    for (workers, transport) in MATRIX {
        let run = CampaignRunner::new(SEED)
            .scale(0.02)
            .parallel(workers)
            .transport(transport)
            .telemetry(TelemetryMode::Jsonl)
            .run();
        device.push((workers, transport, run.telemetry.render()));

        // The Table-2 shape: the eSIM survey across every measured country.
        let s = CampaignRunner::new(SEED)
            .parallel(workers)
            .transport(transport)
            .telemetry(TelemetryMode::Jsonl)
            .run_survey(6);
        survey.push((workers, transport, s.telemetry.render()));
    }

    let (_, _, device_base) = &device[0];
    // Not trivially empty: the stream carries flow events and the summary
    // carries non-zero counters.
    assert!(device_base.contains("\"ev\":\"rtt\""));
    assert!(device_base.contains("\"ev\":\"plan\""));
    assert!(device_base.contains("\"ev\":\"shard\""));
    assert!(device_base.contains("packets_sent"));
    for (workers, transport, render) in &device[1..] {
        assert_eq!(
            device_base, render,
            "device-campaign telemetry diverged at workers={workers}, {transport:?}"
        );
    }

    let (_, _, survey_base) = &survey[0];
    assert!(survey_base.contains("shards_merged"));
    for (workers, transport, render) in &survey[1..] {
        assert_eq!(
            survey_base, render,
            "survey telemetry diverged at workers={workers}, {transport:?}"
        );
    }
}

#[test]
fn summary_mode_is_equally_stable_and_keeps_no_events() {
    let a = CampaignRunner::new(SEED)
        .scale(0.02)
        .telemetry(TelemetryMode::Summary)
        .run();
    let b = CampaignRunner::new(SEED)
        .scale(0.02)
        .parallel(4)
        .transport(TransportKind::Engine)
        .telemetry(TelemetryMode::Summary)
        .run();
    assert_eq!(a.telemetry.render(), b.telemetry.render());
    assert!(a
        .telemetry
        .render()
        .starts_with("== roam-telemetry summary"));
    assert!(a.telemetry.events().is_empty(), "summary keeps no events");
}

/// Digest of a degraded, observed fleet run: heavy faults, summary
/// telemetry, 4 shards. The report alone cannot catch a drifting packet
/// or calendar counter, so the pinned bytes are the report *and* the
/// telemetry summary. Recorded when every probe walk under summary
/// telemetry still went through the packet-building calendar walk; the
/// arithmetic walk must reproduce it exactly.
const DEGRADED_FLEET_DIGEST: u64 = 0x8827_cf9f_63a0_ae4f;

#[test]
fn degraded_fleet_telemetry_bytes_are_pinned() {
    let run = FleetRunner::new(SEED)
        .users(2_000)
        .shards(4)
        .faults(FaultSpec::heavy())
        .telemetry(TelemetryMode::Summary)
        .run();
    let report = run.report.render();
    let telemetry = run.telemetry.render();
    for needle in ["packets_forwarded", "calendar_events", "fault_drops"] {
        assert!(telemetry.contains(needle), "summary lost its {needle} line");
    }
    let digest = roam_codec::hash64(format!("{report}{telemetry}").as_bytes());
    assert_eq!(
        digest, DEGRADED_FLEET_DIGEST,
        "degraded fleet bytes drifted (digest {digest:#018x}):\n{report}{telemetry}"
    );
}
