//! The `campaign-paper` workload: the paper's 10-country device campaign
//! (speedtests, mtr traceroutes, CDN, DNS and video) on the campaign
//! shard executor.

use crate::trace::span;
use crate::{env, stats, Ctx, Layers, Outcome, Work};
use roam_bench::{scaled, CampaignRunner};
use roam_measure::campaign::{run_device_campaign, DeviceCampaignSpec};
use roam_measure::{run_shards, CampaignData, Exporter, RunMode};
use roam_netsim::{FaultSpec, TransportKind};
use roam_telemetry::TelemetryMode;
use roam_world::{DeviceCountrySpec, World};
use std::time::Instant;

/// Scale on the paper's Table-4 sample counts.
pub const SCALE: f64 = 0.25;

/// The workload.
pub struct Paper;

/// Day-chunks a country's shard runs (the campaign re-attaches both
/// SIMs once per chunk).
fn chunks(spec: &DeviceCountrySpec) -> u32 {
    spec.days.clamp(2, 6)
}

/// One chunk's sample counts: the scaled Table-4 counts split over the
/// country's chunks, as the campaign runner splits them.
fn chunk_spec(spec: &DeviceCountrySpec) -> DeviceCampaignSpec {
    let scale = SCALE / f64::from(chunks(spec));
    let s = |pair: (u32, u32)| (scaled(pair.0, scale), scaled(pair.1, scale));
    DeviceCampaignSpec {
        ookla: s(spec.spec.ookla),
        mtr_per_target: s(spec.spec.mtr_per_target),
        cdn_per_provider: s(spec.spec.cdn_per_provider),
        dns: s(spec.spec.dns),
        video: s(spec.spec.video),
    }
}

/// Device attachments (a physical SIM and an eSIM per chunk) and
/// planned measurements of one full campaign.
fn planned() -> (u64, u64) {
    use roam_cellular::SimType;
    let mut attaches = 0u64;
    let mut plans = 0u64;
    for spec in World::device_campaign_specs() {
        let n = u64::from(chunks(&spec));
        let c = chunk_spec(&spec);
        attaches += 2 * n;
        plans += n * (c.plan(SimType::Physical).len() + c.plan(SimType::Esim).len()) as u64;
    }
    (attaches, plans)
}

fn runner(seed: u64, threads: usize) -> CampaignRunner {
    CampaignRunner::new(seed)
        .scale(SCALE)
        .parallel(threads)
        .faults(FaultSpec::off())
        .telemetry(TelemetryMode::Off)
        .transport(TransportKind::ClosedForm)
}

/// Digest of the campaign's exported datasets, in export order.
fn output_digest(data: &CampaignData) -> u64 {
    let tables = data.export_all();
    env::digest(tables.iter().map(|(_, csv)| csv.as_bytes()))
}

impl crate::Workload for Paper {
    /// The same campaign run sequentially: shard results merge in
    /// shard-key order, so the thread count must not change the bytes.
    fn reference(&self, _ctx: &Ctx, seed: u64) -> Option<u64> {
        Some(output_digest(&runner(seed, 1).run().data))
    }

    fn main_call(&self, ctx: &Ctx, seed: u64, _tag: &str) -> Option<(f64, Work, u64)> {
        let r = runner(seed, ctx.threads);
        let started = Instant::now();
        let run = r.run();
        let wall = started.elapsed().as_secs_f64();
        let (attaches, plans) = planned();
        let work = Work {
            users: attaches,
            events: plans,
            measurements: run.data.len() as u64,
        };
        Some((wall, work, output_digest(&run.data)))
    }

    /// One day-chunk per country, on the same threads.
    fn setup_call(&self, ctx: &Ctx, seed: u64, _tag: &str) -> Option<f64> {
        let _pins = crate::replay::Pins::install(FaultSpec::off(), TransportKind::ClosedForm);
        let specs = World::device_campaign_specs();
        let started = Instant::now();
        let records = run_shards(RunMode::Parallel(ctx.threads), specs.len(), |i| {
            let mut world = World::build(seed);
            let sim = world.attach_physical(specs[i].country);
            let esim = world.attach_esim(specs[i].country);
            let c = chunk_spec(&specs[i]);
            run_device_campaign(&mut world.net, &sim, &esim, &c, &world.internet.targets).len()
        });
        std::hint::black_box(records);
        Some(started.elapsed().as_secs_f64())
    }
}

/// The campaign replayed country by country and chunk by chunk through
/// the public calls, sequentially; returns the merged data.
fn replay(seed: u64) -> CampaignData {
    let _pins = crate::replay::Pins::install(FaultSpec::off(), TransportKind::ClosedForm);
    let mut data = CampaignData::default();
    for spec in World::device_campaign_specs() {
        let mut world = span("world.build", || World::build(seed));
        let c = chunk_spec(&spec);
        for _ in 0..chunks(&spec) {
            let (sim, esim) = span("campaign.attach", || {
                (
                    world.attach_physical(spec.country),
                    world.attach_esim(spec.country),
                )
            });
            let d = span("campaign.chunk", || {
                run_device_campaign(&mut world.net, &sim, &esim, &c, &world.internet.targets)
            });
            data.extend(d);
        }
    }
    data
}

/// The traced run.
///
/// # Errors
/// Span-file I/O.
pub fn traced(ctx: &Ctx) -> std::io::Result<Outcome> {
    let mut layers = Layers::default();
    let seed = ctx.seeds[0];
    // Untraced: the runner on its threads (per-shard walls) and
    // sequentially (the wall the sequential replay is compared with).
    let run = runner(seed, ctx.threads).run();
    let shard_ms: Vec<f64> = run.timings.iter().map(|t| t.wall_ms).collect();
    layers.set(
        "campaign.shard_p50_ms",
        stats::median(&shard_ms).unwrap_or(0.0),
    );
    layers.set(
        "campaign.shard_max_ms",
        shard_ms.iter().copied().fold(0.0, f64::max),
    );
    let want = output_digest(&run.data);
    let mut seq_walls = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let seq = runner(seed, 1).run();
        seq_walls.push(started.elapsed().as_secs_f64());
        layers.check(
            output_digest(&seq.data) == want,
            "sequential campaign differs from the threaded one",
        );
    }
    let mut outs = Vec::new();
    let spans_path = ctx.scratch.join("spans.tsv");
    let passes = crate::traced_passes(ctx.seconds, "campaign.replay", &spans_path, |_| {
        let started = Instant::now();
        let data = replay(seed);
        let tables = span("campaign.export", || data.export_all());
        let digest = env::digest(tables.iter().map(|(_, csv)| csv.as_bytes()));
        outs.push((started.elapsed().as_secs_f64(), digest));
    })?;
    for (i, &(_, digest)) in outs.iter().enumerate() {
        layers.check(
            digest == want,
            format!("pass {i}: replayed datasets differ from the runner's"),
        );
    }
    layers.set(
        "world.build_ms",
        crate::per_call_ns(&passes, "world.build") / 1e6,
    );
    layers.set(
        "world.builds",
        passes[0].get("world.build").map_or(0.0, |t| t.count as f64),
    );
    layers.set(
        "campaign.attach_ms",
        crate::per_call_ns(&passes, "campaign.attach") / 1e6,
    );
    layers.set(
        "campaign.chunk_ms",
        crate::per_call_ns(&passes, "campaign.chunk") / 1e6,
    );
    layers.set(
        "campaign.chunks",
        passes[0]
            .get("campaign.chunk")
            .map_or(0.0, |t| t.count as f64),
    );
    layers.set(
        "campaign.export_ms",
        crate::per_call_ns(&passes, "campaign.export") / 1e6,
    );
    layers.set("campaign.records", run.data.len() as f64);
    let walls: Vec<f64> = outs.iter().map(|o| o.0).collect();
    if let (Some(w), Some(s)) = (stats::median(&walls), stats::median(&seq_walls)) {
        layers.set("trace.overhead_share", w / s - 1.0);
    }
    layers.set(
        "trace.unattributed_share",
        crate::unattributed_share(&passes, "campaign.replay"),
    );
    layers.notes.push(format!(
        "replayed {} countries sequentially in {} traced passes",
        World::device_campaign_specs().len(),
        passes.len()
    ));
    crate::fleet::host_layers(&mut layers, ctx);
    Ok(layers.into_outcome(passes.len() as u64))
}
