//! The `agent-soak` workload: the resident agent over a multi-week
//! horizon, wired like `roam_agent` (sessions streamed through the
//! bounded queue into a durable CSV file with a sync hook, checkpoints
//! into a fresh directory).

use crate::replay::{replay_shard, Pins, ShardReplay};
use crate::trace::span;
use crate::{env, stats, Ctx, Layers, Outcome, Work};
use roam_fleet::UserBatch;
use roam_measure::{CellValue, DataSink, Dataset, RunMode, SharedSink};
use roam_netsim::{FaultSpec, TransportKind};
use roam_service::{
    Agent, AgentRun, AgentState, CsvFile, Horizon, Outcome as AgentOutcome, ServiceConfig,
};
use roam_telemetry::TelemetryMode;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Simulated horizon, days: three weeks.
pub const SOAK_DAYS: u64 = 21;

/// Sub-shards the agent splits each cohort batch into (the agent's own
/// fixed batch shape), used when the traced run replays a tick.
const BATCH_SHARDS: usize = 4;

/// The workload.
pub struct Soak;

fn config() -> ServiceConfig {
    ServiceConfig::default()
}

/// An agent for `seed` streaming into `sink`, syncing `csv` (the durable
/// file behind it) at each checkpoint, and checkpointing into `dir/ckpt`.
fn wired_agent(seed: u64, dir: &Path, sink: SharedSink, csv: Arc<Mutex<CsvFile>>) -> Option<Agent> {
    let hook = move || {
        span("service.csv_sync", || {
            csv.lock().expect("csv sink poisoned").sync()
        })
    };
    Some(
        Agent::new(seed, config())
            .ok()?
            .mode(RunMode::Sequential)
            .sink(sink)
            .sync_hook(hook)
            .checkpoint(dir.join("ckpt")),
    )
}

fn open_csv(dir: &Path) -> Option<Arc<Mutex<CsvFile>>> {
    std::fs::create_dir_all(dir.join("ckpt")).ok()?;
    let csv = CsvFile::create(&dir.join("sessions.csv"), Dataset::Sessions).ok()?;
    Some(Arc::new(Mutex::new(csv)))
}

/// Digest of the agent's byte-stable output: render plus session CSV.
fn output_digest(run: &AgentRun, csv: &[u8]) -> u64 {
    env::digest([run.render().as_bytes(), csv])
}

fn completed(run: &AgentRun) -> bool {
    matches!(run.outcome, AgentOutcome::Completed) && run.sink_error.is_none()
}

fn work(run: &AgentRun) -> Work {
    Work {
        users: run.report.users,
        events: run.fires + run.streamed,
        measurements: run.streamed,
    }
}

impl crate::Workload for Soak {
    /// A different queue capacity (the queue must never change the
    /// bytes), an in-memory CSV and no checkpoint plane.
    fn reference(&self, _ctx: &Ctx, seed: u64) -> Option<u64> {
        let rows = Arc::new(Mutex::new(String::new()));
        let mut agent = Agent::new(
            seed,
            ServiceConfig {
                queue_cap: 16,
                ..config()
            },
        )
        .ok()?
        .mode(RunMode::Sequential)
        .sink(rows.clone());
        let run = agent.run(Horizon::SimDays(SOAK_DAYS), None).ok()?;
        drop(agent);
        let csv = Dataset::Sessions.header_csv() + &rows.lock().ok()?;
        completed(&run).then(|| output_digest(&run, csv.as_bytes()))
    }

    fn main_call(&self, ctx: &Ctx, seed: u64, tag: &str) -> Option<(f64, Work, u64)> {
        let dir = env::fresh_dir(&ctx.scratch, tag).ok()?;
        let csv = open_csv(&dir)?;
        let mut agent = wired_agent(seed, &dir, csv.clone(), csv)?;
        let started = Instant::now();
        let run = agent.run(Horizon::SimDays(SOAK_DAYS), None).ok()?;
        let wall = started.elapsed().as_secs_f64();
        drop(agent);
        let bytes = std::fs::read(dir.join("sessions.csv")).ok()?;
        completed(&run).then(|| (wall, work(&run), output_digest(&run, &bytes)))
    }

    /// `Agent::new` plus the sim-instant-0 batch.
    fn setup_call(&self, ctx: &Ctx, seed: u64, tag: &str) -> Option<f64> {
        let dir = env::fresh_dir(&ctx.scratch, tag).ok()?;
        let csv = open_csv(&dir)?;
        let started = Instant::now();
        let mut agent = wired_agent(seed, &dir, csv.clone(), csv)?;
        let run = agent.run(Horizon::SimDays(0), None).ok()?;
        let wall = started.elapsed().as_secs_f64();
        completed(&run).then_some(wall)
    }
}

/// A CSV sink that times every row the agent's export queue hands it.
struct TracedCsv(Arc<Mutex<CsvFile>>);

impl DataSink for TracedCsv {
    fn row(&mut self, ds: Dataset, cells: &[CellValue<'_>]) {
        span("service.sink_row", || {
            self.0.lock().expect("csv sink poisoned").row(ds, cells);
        });
    }
}

/// Identity of the checkpoint file, to count atomic rewrites.
fn ckpt_identity(dir: &Path) -> Option<(u64, std::time::SystemTime)> {
    use std::os::unix::fs::MetadataExt as _;
    let meta = std::fs::metadata(dir.join("ckpt").join(roam_service::AGENT_FILE)).ok()?;
    Some((meta.ino(), meta.modified().ok()?))
}

/// What one traced pass observed.
struct Pass {
    day_ms: Vec<f64>,
    saves: u64,
    run: Option<AgentRun>,
    csv: Vec<u8>,
    replay: Option<crate::replay::ReplayOut>,
    batch_report: Option<roam_fleet::FleetReport>,
}

/// One traced pass: the agent stepped one sim-day per `Agent::run` call,
/// a checkpoint save of its own state, each cohort's tick replayed
/// through `UserBatch::run`, and cohort 0's range replayed layer by layer.
fn pass(ctx: &Ctx, seed: u64, i: usize) -> Option<Pass> {
    let dir = env::fresh_dir(&ctx.scratch, &format!("traced-{}", i % 2)).ok()?;
    let csv = open_csv(&dir)?;
    let sink: SharedSink = Arc::new(Mutex::new(TracedCsv(csv.clone())));
    let mut agent = span("service.new", || wired_agent(seed, &dir, sink, csv.clone()))?;
    let mut out = Pass {
        day_ms: Vec::new(),
        saves: 0,
        run: None,
        csv: Vec::new(),
        replay: None,
        batch_report: None,
    };
    let mut last = ckpt_identity(&dir);
    for day in 0..=SOAK_DAYS {
        let started = Instant::now();
        let run = span("service.day", || agent.run(Horizon::SimDays(day), None)).ok()?;
        out.day_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let now = ckpt_identity(&dir);
        if now != last {
            out.saves += 1;
            last = now;
        }
        out.run = Some(run);
    }
    drop(agent);
    out.csv = std::fs::read(dir.join("sessions.csv")).ok()?;
    let state = AgentState::load(&dir.join("ckpt")).ok().flatten()?;
    let save_dir = env::fresh_dir(&ctx.scratch, "ckpt-save").ok()?;
    span("service.ckpt_save", || state.save(&save_dir)).ok()?;
    let run = out.run.as_ref()?;
    let fleet = config().fleet();
    for c in &run.cohorts {
        let (lo, hi) = c.live_range();
        let batch = UserBatch {
            shards: BATCH_SHARDS,
            record_sessions: true,
            ..UserBatch::new(seed, fleet, lo, hi)
        };
        std::hint::black_box(span("service.tick", || batch.run()));
    }
    let (lo, hi) = run.cohorts[0].live_range();
    let _pins = Pins::install(FaultSpec::off(), TransportKind::ClosedForm);
    out.batch_report = Some(UserBatch::new(seed, fleet, lo, hi).run().report);
    out.replay = replay_shard(&ShardReplay {
        seed,
        config: fleet,
        lo,
        hi,
        telemetry: TelemetryMode::Off,
        checkpoint: None,
    })
    .ok();
    Some(out)
}

/// The traced run.
///
/// # Errors
/// Scratch-directory or span-file I/O.
pub fn traced(ctx: &Ctx) -> std::io::Result<Outcome> {
    use crate::Workload as _;
    let mut layers = Layers::default();
    let seed = ctx.seeds[0];
    let untraced = Soak.main_call(ctx, seed, "untraced");
    layers.check(untraced.is_some(), "the untraced agent run failed");
    let reference = Soak.reference(ctx, seed);
    let mut passes_out = Vec::new();
    let spans_path = ctx.scratch.join("spans.tsv");
    let passes = crate::traced_passes(ctx.seconds, "agent.replay", &spans_path, |i| {
        passes_out.push(pass(ctx, seed, i));
    })?;
    let mut walls = Vec::new();
    for (i, p) in passes_out.iter().enumerate() {
        let Some(p) = p else {
            layers.check(false, format!("traced pass {i} failed"));
            continue;
        };
        let run = p.run.as_ref().expect("a completed pass has a run");
        layers.check(
            completed(run),
            format!("pass {i}: stepped agent did not complete cleanly"),
        );
        layers.check(
            Some(output_digest(run, &p.csv)) == reference,
            format!("pass {i}: stepped render + CSV differ from the single-call reference"),
        );
        layers.check(
            p.replay.as_ref().map(|r| &r.report) == p.batch_report.as_ref(),
            format!("pass {i}: cohort replay report differs from UserBatch::run"),
        );
        walls.push(p.day_ms.iter().sum::<f64>() / 1e3);
    }
    let Some(first) = passes_out.iter().flatten().next() else {
        return Ok(layers.into_outcome(passes.len() as u64));
    };
    let run = first.run.as_ref().expect("a completed pass has a run");
    if let Some(replay) = &first.replay {
        crate::fleet::fill_fleet_layers(&mut layers, &passes, replay);
        layers.set("fleet.users", replay.report.users as f64);
    }
    // Day walls pooled over every pass; p90 needs ten samples beyond it.
    let days: Vec<f64> = passes_out
        .iter()
        .flatten()
        .flat_map(|p| p.day_ms.iter().copied())
        .collect();
    let p90 = stats::percentile(&days, 90.0).unwrap_or(0.0);
    let beyond = days.iter().filter(|&&d| d > p90).count();
    layers.check(
        days.len() >= 100,
        format!(
            "only {} day walls: p90 has fewer than ten beyond it",
            days.len()
        ),
    );
    layers.set("service.day_p50_ms", stats::median(&days).unwrap_or(0.0));
    layers.set("service.day_p90_ms", p90);
    layers.set("service.days", days.len() as f64);
    layers.set(
        "service.tick_ms",
        crate::per_call_ns(&passes, "service.tick") / 1e6,
    );
    layers.set(
        "service.ticks",
        run.cohorts.iter().map(|c| c.ticks).sum::<u64>() as f64,
    );
    layers.set("service.fires", run.fires as f64);
    layers.set("service.streamed", run.streamed as f64);
    layers.set(
        "service.sink_row_ns",
        crate::per_call_ns(&passes, "service.sink_row"),
    );
    layers.set("service.csv_bytes", first.csv.len() as f64);
    layers.set(
        "service.csv_sync_ms",
        crate::per_call_ns(&passes, "service.csv_sync") / 1e6,
    );
    layers.set(
        "service.ckpt_ms",
        crate::per_call_ns(&passes, "service.ckpt_save") / 1e6,
    );
    layers.set("service.ckpt_saves", first.saves as f64);
    if let (Some((wall, _, _)), Some(w)) = (untraced, stats::median(&walls)) {
        layers.set("trace.overhead_share", w / wall - 1.0);
    }
    layers.set(
        "trace.unattributed_share",
        crate::unattributed_share(&passes, "agent.replay"),
    );
    layers.notes.push(format!(
        "stepped {} sim-days per pass over {} passes; day walls n={} p50={:.3} ms p90={p90:.3} ms ({beyond} beyond)",
        SOAK_DAYS,
        passes.len(),
        days.len(),
        stats::median(&days).unwrap_or(0.0)
    ));
    crate::fleet::host_layers(&mut layers, ctx);
    Ok(layers.into_outcome(passes.len() as u64))
}
