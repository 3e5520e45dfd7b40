//! The degraded-run determinism contract: with a fixed fault schedule,
//! campaign exports and fleet reports are byte-identical across
//! `ROAM_PARALLEL` × `ROAM_TRANSPORT` × `ROAM_FLEET_SHARDS`, runs
//! complete with explicit `failed` rows instead of aborting, and the
//! degradation summary is populated. Each run carries its schedule by
//! value, so the matrix never leaks into concurrently running tests.

use roam_bench::CampaignRunner;
use roamsim::fleet::FleetRunner;
use roamsim::measure::{Dataset, Exporter};
use roamsim::netsim::{FaultSpec, TransportKind};

const SEED: u64 = 31;

/// Every dataset a campaign exports, concatenated — the byte-identity
/// boundary for the campaign half of the matrix.
fn campaign_bytes(workers: usize, transport: TransportKind) -> (String, u64, u64) {
    let run = CampaignRunner::new(SEED)
        .scale(0.05)
        .parallel(workers)
        .transport(transport)
        .faults(FaultSpec::heavy())
        .run();
    let mut bytes = String::new();
    for ds in [
        Dataset::Speedtests,
        Dataset::Traces,
        Dataset::Cdn,
        Dataset::Dns,
        Dataset::Videos,
    ] {
        bytes.push_str(&run.data.export(ds));
    }
    let d = run.data.degradation();
    (bytes, d.failed(), d.degraded())
}

#[test]
fn degraded_runs_are_matrix_invariant_and_explicit() {
    // -- campaign half: workers × transport under a heavy schedule --
    let (base, failed, degraded) = campaign_bytes(1, TransportKind::ClosedForm);
    assert!(
        failed > 0,
        "heavy faults must surface explicit failed rows, not silent gaps"
    );
    assert!(degraded >= failed);
    // Failed rows are explicit rows: empty metric cells, typed status.
    assert!(
        base.lines()
            .any(|l| l.ends_with(",timeout") || l.ends_with(",unreachable")),
        "no failed row made it into the exports"
    );
    for (workers, transport) in [
        (4, TransportKind::ClosedForm),
        (1, TransportKind::Engine),
        (4, TransportKind::Engine),
    ] {
        let (bytes, f, d) = campaign_bytes(workers, transport);
        assert_eq!(
            base, bytes,
            "campaign exports diverged at workers={workers}, {transport:?}"
        );
        assert_eq!((failed, degraded), (f, d));
    }

    // -- fleet half: shards × workers × transport, 1.5k users --
    let fleet = |shards: usize, workers: usize, transport: TransportKind| {
        FleetRunner::new(SEED)
            .users(1_500)
            .shards(shards)
            .parallel(workers)
            .transport(transport)
            .faults(FaultSpec::heavy())
            .run()
    };
    let base_run = fleet(1, 1, TransportKind::ClosedForm);
    let base_render = base_run.report.render();
    assert!(
        base_render.contains("degradation:"),
        "heavy fleet run must render its degradation summary"
    );
    assert!(base_run.report.degraded.degraded() > 0);
    // The per-shard summaries fold exactly into the report's total.
    for (shards, workers, transport) in [
        (3, 1, TransportKind::ClosedForm),
        (3, 4, TransportKind::Engine),
        (5, 2, TransportKind::Engine),
    ] {
        let run = fleet(shards, workers, transport);
        assert_eq!(
            base_render,
            run.report.render(),
            "fleet report diverged at shards={shards}, workers={workers}, {transport:?}"
        );
        assert_eq!(run.degraded.len(), shards, "one summary per shard");
        let mut total = roamsim::measure::DegradationSummary::default();
        for (_, d) in &run.degraded {
            total.merge(*d);
        }
        assert_eq!(total, run.report.degraded);
    }

    // -- off-spec pin: the fault plane must stay fully dormant --
    let quiet = FleetRunner::new(SEED)
        .users(300)
        .faults(FaultSpec::off())
        .run();
    assert!(!quiet.report.render().contains("degradation:"));
    assert_eq!(quiet.report.degraded.degraded(), 0);
}
