//! The two fleet workloads: `fleet-healthy` (the headline hot path) and
//! `fleet-degraded` (heavy faults, summary telemetry, supervised worker
//! processes and checkpointing).

use crate::replay::{probe_cost_ns, replay_shard, Pins, ShardReplay};
use crate::{env, stats, Ctx, Layers, Outcome, Work};
use roam_fleet::checkpoint::shard_file;
use roam_fleet::{
    FleetConfig, FleetReport, FleetRun, FleetRunner, UserBatch, WorkerFaultSpec,
    DEFAULT_WORKER_DEADLINE_MS, DEFAULT_WORKER_RETRIES,
};
use roam_netsim::{FaultSpec, TransportKind};
use roam_telemetry::TelemetryMode;
use std::path::PathBuf;
use std::time::Instant;

/// Shards the population splits into, on both fleet workloads.
pub const SHARDS: usize = 8;
/// Population of `fleet-healthy`, per sub-seed.
pub const HEALTHY_USERS: u64 = 15_000;
/// Population of `fleet-degraded`, per sub-seed.
pub const DEGRADED_USERS: u64 = 6_000;
/// Checkpoint cadence of `fleet-degraded`, accumulated sim-days per
/// shard: the default cadence scaled to this population, so each shard
/// writes one checkpoint (at user 500 of its 750) as a shard of a
/// 50k-user run does at the default.
pub const DEGRADED_CKPT_EVERY: u64 = 30_000;

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Faults off, telemetry off, in-process threads.
    Healthy,
    /// Heavy faults, summary telemetry, supervised workers, checkpoints.
    Degraded,
}

impl Kind {
    fn users(self) -> u64 {
        match self {
            Kind::Healthy => HEALTHY_USERS,
            Kind::Degraded => DEGRADED_USERS,
        }
    }

    fn faults(self) -> FaultSpec {
        match self {
            Kind::Healthy => FaultSpec::off(),
            Kind::Degraded => FaultSpec::heavy(),
        }
    }

    fn telemetry(self) -> TelemetryMode {
        match self {
            Kind::Healthy => TelemetryMode::Off,
            Kind::Degraded => TelemetryMode::Summary,
        }
    }
}

fn config(users: u64) -> FleetConfig {
    FleetConfig {
        users,
        shards: SHARDS,
        ..FleetConfig::default()
    }
}

/// The workload's runner for `users`, every knob set explicitly.
/// `ckpt` is the checkpoint directory (degraded only); `in_process`
/// swaps the worker backend for the same number of threads.
fn runner(
    ctx: &Ctx,
    seed: u64,
    kind: Kind,
    users: u64,
    ckpt: Option<PathBuf>,
    in_process: bool,
) -> FleetRunner {
    let base = FleetRunner::new(seed)
        .config(config(users))
        .faults(kind.faults())
        .telemetry(kind.telemetry())
        .transport(TransportKind::ClosedForm);
    match kind {
        Kind::Healthy => base.parallel(ctx.threads),
        Kind::Degraded => {
            let r = base
                .checkpoint_dir(ckpt.expect("degraded runs checkpoint"))
                .checkpoint_every(DEGRADED_CKPT_EVERY);
            if in_process {
                r.parallel(ctx.workers)
            } else {
                r.parallel(1)
                    .workers(ctx.workers)
                    .worker_bin(&ctx.worker_bin)
                    .worker_faults(WorkerFaultSpec::off())
                    .worker_retries(DEFAULT_WORKER_RETRIES)
                    .worker_deadline_ms(DEFAULT_WORKER_DEADLINE_MS)
            }
        }
    }
}

/// Users simulated, session attempts, and session records (every
/// session with an outcome: delivered, or failed under the fault plane —
/// the rows a session sink would receive).
fn work(report: &FleetReport) -> Work {
    let d = &report.degraded;
    Work {
        users: report.users,
        events: report.sessions,
        measurements: report.rtt_probes
            + report.dns_lookups
            + report.transfers
            + d.timeout
            + d.unreachable,
    }
}

/// One run of the main call for `seed` into a fresh checkpoint
/// directory: wall seconds and the run, or `None` when it errored.
fn run_once(
    ctx: &Ctx,
    seed: u64,
    kind: Kind,
    users: u64,
    tag: &str,
    in_process: bool,
) -> Option<(f64, FleetRun)> {
    let ckpt = match kind {
        Kind::Healthy => None,
        Kind::Degraded => Some(env::fresh_dir(&ctx.scratch, tag).ok()?),
    };
    let r = runner(ctx, seed, kind, users, ckpt, in_process);
    let started = Instant::now();
    let run = r.try_run().ok()?;
    Some((started.elapsed().as_secs_f64(), run))
}

/// The run is clean: nothing halted, and a worker plane with no
/// injected faults needed no recovery.
fn clean(run: &FleetRun) -> bool {
    !run.halted && !run.supervision.recovered() && run.supervision.respawns == 0
}

impl crate::Workload for Kind {
    /// Three shards on in-process threads: a different partitioning and
    /// backend from the main call, which must not change the bytes.
    fn reference(&self, ctx: &Ctx, seed: u64) -> Option<u64> {
        let kind = *self;
        let mut r = FleetRunner::new(seed)
            .config(FleetConfig {
                shards: 3,
                ..config(kind.users())
            })
            .faults(kind.faults())
            .telemetry(kind.telemetry())
            .transport(TransportKind::ClosedForm)
            .parallel(ctx.threads);
        if kind == Kind::Degraded {
            let dir = env::fresh_dir(&ctx.scratch, "reference").ok()?;
            r = r.checkpoint_dir(dir).checkpoint_every(DEGRADED_CKPT_EVERY);
        }
        let run = r.try_run().ok()?;
        clean(&run).then(|| env::digest([run.report.render().as_bytes()]))
    }

    fn main_call(&self, ctx: &Ctx, seed: u64, tag: &str) -> Option<(f64, Work, u64)> {
        let (wall, run) = run_once(ctx, seed, *self, self.users(), tag, false)?;
        clean(&run).then(|| {
            (
                wall,
                work(&run.report),
                env::digest([run.report.render().as_bytes()]),
            )
        })
    }

    /// The same workload with one user per shard.
    fn setup_call(&self, ctx: &Ctx, seed: u64, tag: &str) -> Option<f64> {
        run_once(ctx, seed, *self, SHARDS as u64, tag, false).map(|(wall, _)| wall)
    }
}

/// Slowest over median shard wall of one run.
fn shard_skew(run: &FleetRun) -> f64 {
    let walls: Vec<f64> = run.timings.iter().map(|t| t.wall_ms).collect();
    let max = walls.iter().copied().fold(0.0, f64::max);
    stats::median(&walls).map_or(0.0, |m| max / m)
}

/// The traced run: untraced comparisons, then traced replays of shard 0.
///
/// # Errors
/// Scratch-directory or span-file I/O.
pub fn traced(ctx: &Ctx, kind: Kind) -> std::io::Result<Outcome> {
    let mut layers = Layers::default();
    let seed = ctx.seeds[0];
    let users = kind.users();
    let (lo, hi) = (0, users / SHARDS as u64);

    // Untraced: two full runs for shard skew (and, degraded, the worker
    // tax against the same configuration on threads).
    let mut skews = Vec::new();
    let mut walls = Vec::new();
    let mut restarts = 0u64;
    let mut run_frame = None;
    for i in 0..2 {
        let Some((wall, run)) = run_once(ctx, seed, kind, users, &format!("full-{i}"), false)
        else {
            layers.check(false, "the untraced main call failed");
            continue;
        };
        layers.check(clean(&run), "the untraced run needed recovery");
        skews.push(shard_skew(&run));
        walls.push(wall);
        restarts += run.supervision.respawns;
        if kind == Kind::Degraded {
            run_frame =
                std::fs::read(ctx.scratch.join(format!("full-{i}")).join(shard_file(0))).ok();
        }
    }
    layers.set("fleet.shard_skew", stats::median(&skews).unwrap_or(0.0));
    layers.set("fleet.restarts", restarts as f64);
    if kind == Kind::Degraded {
        let threads: Vec<f64> = (0..2)
            .filter_map(|i| run_once(ctx, seed, kind, users, &format!("threads-{i}"), true))
            .map(|(wall, _)| wall)
            .collect();
        if let (Some(w), Some(t)) = (stats::median(&walls), stats::median(&threads)) {
            layers.set("fleet.worker_tax", w / t - 1.0);
        }
    }

    // The library's own call on the same user range: the counts the
    // replay must reproduce, and the untraced wall it is compared with.
    let batch = UserBatch {
        telemetry: kind.telemetry(),
        ..UserBatch::new(seed, config(users), lo, hi)
    };
    let (lib_report, lib_wall) = {
        let _pins = Pins::install(kind.faults(), TransportKind::ClosedForm);
        let mut walls = Vec::new();
        let mut report = None;
        for _ in 0..3 {
            let started = Instant::now();
            let run = batch.run();
            walls.push(started.elapsed().as_secs_f64());
            report = Some(run.report);
        }
        (
            report.expect("three runs"),
            stats::median(&walls).unwrap_or(0.0),
        )
    };

    let mut outs = Vec::new();
    let spans_path = ctx.scratch.join("spans.tsv");
    let passes = crate::traced_passes(ctx.seconds, "fleet.replay", &spans_path, |i| {
        let ckpt = (kind == Kind::Degraded).then(|| {
            let dir =
                env::fresh_dir(&ctx.scratch, &format!("replay-{}", i % 2)).expect("scratch dir");
            (0usize, dir, DEGRADED_CKPT_EVERY)
        });
        let _pins = Pins::install(kind.faults(), TransportKind::ClosedForm);
        let r = ShardReplay {
            seed,
            config: config(users),
            lo,
            hi,
            telemetry: kind.telemetry(),
            checkpoint: ckpt,
        };
        outs.push(replay_shard(&r));
    })?;
    let outs: Vec<_> = outs.into_iter().collect::<std::io::Result<Vec<_>>>()?;
    let first = &outs[0];
    let rep = &first.report;
    for (i, o) in outs.iter().enumerate() {
        layers.check(
            o.report == lib_report,
            format!("replay pass {i} report differs from UserBatch::run on users {lo}..{hi}"),
        );
        layers.check(
            o.codec_mismatches == 0,
            format!("replay pass {i}: a checkpoint state did not round-trip"),
        );
    }
    for (what, a, b) in [
        ("users", rep.users, lib_report.users),
        ("purchases", rep.purchases, lib_report.purchases),
        ("sessions", rep.sessions, lib_report.sessions),
        ("rtt_probes", rep.rtt_probes, lib_report.rtt_probes),
        ("dns_lookups", rep.dns_lookups, lib_report.dns_lookups),
        ("transfers", rep.transfers, lib_report.transfers),
        ("lost_sessions", rep.lost_sessions, lib_report.lost_sessions),
    ] {
        layers.check(a == b, format!("replay {what} {a} != untraced {b}"));
    }
    if let Some(frame) = &run_frame {
        layers.check(
            *frame == first.last_frame,
            "replay's last checkpoint frame differs from the run's shard-000.ckpt",
        );
    }
    layers.notes.push(format!(
        "replayed shard 0 (users {lo}..{hi}) in {} traced passes; counts match the untraced run: {}",
        passes.len(),
        layers.mismatches.is_empty()
    ));

    fill_fleet_layers(&mut layers, &passes, first);
    layers.set("fleet.users", rep.users as f64);
    let replay_walls: Vec<f64> = outs.iter().map(|o| o.wall_s).collect();
    layers.set(
        "trace.overhead_share",
        stats::median(&replay_walls).unwrap_or(0.0) / lib_wall - 1.0,
    );
    layers.set(
        "trace.unattributed_share",
        crate::unattributed_share(&passes, "fleet.replay"),
    );

    // The probe micro-replays: the same probe set under each plane.
    let per = 200;
    let off = probe_cost_ns(seed, kind.faults(), TelemetryMode::Off, per);
    let summary = probe_cost_ns(seed, kind.faults(), TelemetryMode::Summary, per);
    layers.set("telemetry.probe_tax", summary / off);
    layers.set(
        "netsim.faulted_rtt_ns",
        probe_cost_ns(seed, FaultSpec::heavy(), TelemetryMode::Off, per),
    );
    host_layers(&mut layers, ctx);
    Ok(layers.into_outcome(passes.len() as u64))
}

/// Layer metrics every fleet-shard replay yields (also used for the
/// agent's cohort batches).
pub fn fill_fleet_layers(
    layers: &mut Layers,
    passes: &[crate::PassTimes],
    out: &crate::replay::ReplayOut,
) {
    use crate::{per_call_ns, total_ns};
    let rep = &out.report;
    layers.set("world.build_ms", per_call_ns(passes, "world.build") / 1e6);
    layers.set(
        "world.builds",
        passes[0].get("world.build").map_or(0.0, |t| t.count as f64),
    );
    layers.set("econ.market_ms", per_call_ns(passes, "econ.market") / 1e6);
    layers.set("fleet.pool_ms", total_ns(passes, "fleet.pool") / 1e6);
    layers.set("fleet.synth_ns", per_call_ns(passes, "fleet.synth"));
    layers.set("econ.purchase_ns", per_call_ns(passes, "econ.purchase"));
    layers.set("econ.purchases", rep.purchases as f64);
    layers.set("measure.rtt_ns", per_call_ns(passes, "measure.rtt"));
    layers.set("measure.rtt_probes", out.rtt_calls as f64);
    layers.set("measure.dns_ns", per_call_ns(passes, "measure.dns"));
    layers.set("measure.dns_lookups", out.dns_calls as f64);
    layers.set("measure.lost_sessions", rep.lost_sessions as f64);
    layers.set(
        "measure.loss_share",
        rep.lost_sessions as f64 / rep.sessions.max(1) as f64,
    );
    layers.set("netsim.transfer_ns", per_call_ns(passes, "netsim.transfer"));
    layers.set("netsim.transfers", rep.transfers as f64);
    layers.set("netsim.fault_drops", out.fault_drops as f64);
    layers.set("netsim.fault_failovers", out.fault_failovers as f64);
    layers.set("stats.observe_ns", per_call_ns(passes, "stats.observe"));
    layers.set("stats.observes", out.observes as f64);
    layers.set("fleet.merge_ms", per_call_ns(passes, "fleet.merge") / 1e6);
    layers.set("fleet.render_ms", per_call_ns(passes, "fleet.render") / 1e6);
    layers.set("codec.frame_bytes", out.last_frame.len() as f64);
    layers.set("codec.encode_us", per_call_ns(passes, "codec.encode") / 1e3);
    layers.set("codec.decode_us", per_call_ns(passes, "codec.decode") / 1e3);
    layers.set(
        "fleet.ckpt_write_ms",
        per_call_ns(passes, "fleet.ckpt_write") / 1e6,
    );
    layers.set("fleet.ckpt_writes", out.ckpt_writes as f64);
}

/// Record the host's cores and the parallelism the run used.
pub fn host_layers(layers: &mut Layers, ctx: &Ctx) {
    layers.set("host.nproc", ctx.nproc as f64);
    layers.set("run.threads", ctx.threads as f64);
    layers.set("run.workers", ctx.workers as f64);
}
