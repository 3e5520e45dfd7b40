//! perfbench: the roamsim workload benchmark.
//!
//! Four workloads ([`WORKLOADS`]) each run for a fixed measuring time
//! with tracing off and report the end-to-end metrics in [`END_TO_END`];
//! a separate traced run replays the same work through the library's
//! public functions and attributes wall time to layers ([`PER_LAYER`]).
//! Every timed repetition's byte-stable output is compared with a
//! reference computed for the same seed along an independent execution
//! path; any mismatch, error or panic counts as a failed repetition.

pub mod agent;
pub mod campaign;
pub mod env;
pub mod fleet;
pub mod replay;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Seed used when none is given on the command line.
pub const DEFAULT_SEED: u64 = 42;

/// The named workloads.
pub const WORKLOADS: [&str; 4] = [
    "fleet-healthy",
    "fleet-degraded",
    "agent-soak",
    "campaign-paper",
];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("users_per_s", "users/s"),
    ("events_per_s", "events/s"),
    ("measurements_per_s", "records/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not exercise reports 0 (the benchmark made no call into it).
pub const PER_LAYER: [(&str, &str); 57] = [
    ("world.build_ms", "ms"),
    ("world.builds", "count"),
    ("econ.market_ms", "ms"),
    ("fleet.pool_ms", "ms"),
    ("fleet.synth_ns", "ns"),
    ("fleet.users", "count"),
    ("econ.purchase_ns", "ns"),
    ("econ.purchases", "count"),
    ("measure.rtt_ns", "ns"),
    ("measure.rtt_probes", "count"),
    ("measure.dns_ns", "ns"),
    ("measure.dns_lookups", "count"),
    ("measure.lost_sessions", "count"),
    ("measure.loss_share", "fraction"),
    ("netsim.transfer_ns", "ns"),
    ("netsim.transfers", "count"),
    ("netsim.faulted_rtt_ns", "ns"),
    ("netsim.fault_drops", "count"),
    ("netsim.fault_failovers", "count"),
    ("telemetry.probe_tax", "ratio"),
    ("stats.observe_ns", "ns"),
    ("stats.observes", "count"),
    ("fleet.merge_ms", "ms"),
    ("fleet.render_ms", "ms"),
    ("fleet.shard_skew", "ratio"),
    ("fleet.worker_tax", "ratio"),
    ("fleet.restarts", "count"),
    ("codec.frame_bytes", "bytes"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("fleet.ckpt_write_ms", "ms"),
    ("fleet.ckpt_writes", "count"),
    ("service.day_p50_ms", "ms"),
    ("service.day_p90_ms", "ms"),
    ("service.days", "count"),
    ("service.tick_ms", "ms"),
    ("service.ticks", "count"),
    ("service.fires", "count"),
    ("service.streamed", "count"),
    ("service.sink_row_ns", "ns"),
    ("service.csv_bytes", "bytes"),
    ("service.csv_sync_ms", "ms"),
    ("service.ckpt_ms", "ms"),
    ("service.ckpt_saves", "count"),
    ("campaign.shard_p50_ms", "ms"),
    ("campaign.shard_max_ms", "ms"),
    ("campaign.attach_ms", "ms"),
    ("campaign.chunk_ms", "ms"),
    ("campaign.chunks", "count"),
    ("campaign.export_ms", "ms"),
    ("campaign.records", "count"),
    ("trace.unattributed_share", "fraction"),
    ("trace.overhead_share", "fraction"),
    ("trace.passes", "count"),
    ("host.nproc", "count"),
    ("run.threads", "count"),
    ("run.workers", "count"),
];

/// Everything a workload needs to know about its run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// The `--seed` argument.
    pub seed: u64,
    /// The workload seeds it expands to (see [`sub_seeds`]).
    pub seeds: Vec<u64>,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Cores available to the process.
    pub nproc: usize,
    /// Threads a workload may use (capped at `nproc`).
    pub threads: usize,
    /// Worker processes a workload may use (capped at `nproc`).
    pub workers: usize,
    /// Scratch root for checkpoint and CSV directories.
    pub scratch: PathBuf,
    /// The fleet worker executable.
    pub worker_bin: PathBuf,
}

/// One metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// No output mismatch and no check failed.
    pub correct: bool,
    /// Timed repetitions attempted.
    pub attempted: u64,
    /// Repetitions that errored, panicked or mismatched the reference.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The final result line: one JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Work counts of one timed repetition of a workload's main call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Users simulated (fleet population, agent user-ticks, campaign
    /// device attachments).
    pub users: u64,
    /// Events (agent job fires plus session records, fleet session
    /// attempts, campaign planned measurements).
    pub events: u64,
    /// Measurement records produced.
    pub measurements: u64,
}

/// One timed repetition (the main call once per input set): its wall
/// times, its work, and whether its output matched the reference.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time of the main calls, seconds.
    pub wall_s: f64,
    /// Wall time of each main call, seconds, in input-set order.
    pub calls: Vec<f64>,
    /// Work it did.
    pub work: Work,
    /// Output matched the reference and no check failed.
    pub ok: bool,
    /// Share of the host's CPU time stolen by the hypervisor meanwhile.
    pub steal: f64,
}

/// Input sets per run: each `--seed` expands to this many workload
/// seeds, and one timed repetition runs the main call on every one. The
/// cost of a main call varies by ±20% from one generated world to the
/// next (path lengths, fault calendars), so a run averages over several
/// worlds instead of hanging on one.
#[must_use]
pub fn sub_seed_count(workload: &str) -> u64 {
    match workload {
        "fleet-healthy" | "campaign-paper" => 16,
        _ => 8,
    }
}

/// The workload seeds `--seed` expands to: `seed·64 + j`, so distinct
/// `--seed` values never share an input set.
#[must_use]
pub fn sub_seeds(seed: u64, count: u64) -> Vec<u64> {
    debug_assert!(count <= 64);
    (0..count)
        .map(|j| seed.wrapping_mul(64).wrapping_add(j))
        .collect()
}

/// A workload as the end-to-end loop sees it.
pub trait Workload {
    /// The reference output digest for `seed`, computed along an
    /// execution path independent of the main call's (`None` when the
    /// reference run failed).
    fn reference(&self, ctx: &Ctx, seed: u64) -> Option<u64>;
    /// One main call on `seed` with fresh scratch directories named
    /// after `tag`: its wall seconds, its work, and its output digest.
    /// `None` when it errored or a clean-run check failed.
    fn main_call(&self, ctx: &Ctx, seed: u64, tag: &str) -> Option<(f64, Work, u64)>;
    /// The workload cut to its smallest unit of work: wall seconds.
    fn setup_call(&self, ctx: &Ctx, seed: u64, tag: &str) -> Option<f64>;
}

/// Set-up samples per sub-seed.
const SETUP_ROUNDS: usize = 3;
/// Minimum timed repetitions per run.
const MIN_REPS: usize = 3;

/// Run the timed loop for `--seconds`, checking every main call against
/// the reference for its seed, and assemble the end-to-end outcome.
/// `golden` is the recorded digest over all sub-seed references for
/// this `--seed`, when one was recorded.
pub fn measure(ctx: &Ctx, w: &dyn Workload, golden: Option<u64>) -> Outcome {
    let refs: Vec<Option<u64>> = ctx.seeds.iter().map(|&s| w.reference(ctx, s)).collect();
    let ref_bytes: Vec<[u8; 8]> = refs.iter().map(|r| r.unwrap_or(0).to_le_bytes()).collect();
    let combined = env::digest(ref_bytes.iter().map(|b| &b[..]));
    let reference_ok = refs.iter().all(Option::is_some) && golden.is_none_or(|g| g == combined);
    let mut setups = Vec::new();
    let mut setup_failures = 0;
    for round in 0..SETUP_ROUNDS {
        for &s in &ctx.seeds {
            match catch_unwind(AssertUnwindSafe(|| {
                w.setup_call(ctx, s, &format!("setup-{round}"))
            })) {
                Ok(Some(wall)) => setups.push(wall),
                _ => setup_failures += 1,
            }
        }
    }
    let mut n = 0usize;
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < ctx.seconds {
        n += 1;
        let tag = format!("run-{}", n % 2);
        let ticks = env::cpu_ticks();
        let rep = catch_unwind(AssertUnwindSafe(|| {
            let mut rep = Rep {
                wall_s: 0.0,
                calls: Vec::with_capacity(ctx.seeds.len()),
                work: Work::default(),
                ok: true,
                steal: 0.0,
            };
            for (&s, want) in ctx.seeds.iter().zip(&refs) {
                match w.main_call(ctx, s, &tag) {
                    Some((wall, work, digest)) => {
                        rep.wall_s += wall;
                        rep.calls.push(wall);
                        rep.work.users += work.users;
                        rep.work.events += work.events;
                        rep.work.measurements += work.measurements;
                        rep.ok &= Some(digest) == *want;
                    }
                    None => rep.ok = false,
                }
            }
            rep
        }));
        let mut rep = rep.unwrap_or(Rep {
            wall_s: f64::NAN,
            calls: Vec::new(),
            work: Work::default(),
            ok: false,
            steal: 0.0,
        });
        if let (Some((t0, s0)), Some((t1, s1))) = (ticks, env::cpu_ticks()) {
            rep.steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        }
        reps.push(rep);
    }
    let mut out = end_to_end(ctx, &reps, &setups, reference_ok && setup_failures == 0);
    out.metrics.push(Metric {
        name: "peak_rss_mb",
        value: rss_probe_mib(ctx).unwrap_or(0.0),
        unit: "MiB",
    });
    out.notes.push(format!(
        "sub-seeds {:?}; reference digest {combined:016x}{}",
        ctx.seeds,
        match golden {
            None => " (no golden digest recorded for this seed)",
            Some(g) if g == combined => " (matches the recorded golden digest)",
            Some(_) => " MISMATCHES the recorded golden digest",
        }
    ));
    if setup_failures > 0 {
        out.notes
            .push(format!("{setup_failures} set-up calls failed"));
    }
    out
}

/// Child processes the peak-memory probe runs.
const RSS_PROBES: usize = 3;

/// Peak memory of a process that ran only this workload: the median
/// `VmHWM` over [`RSS_PROBES`] child processes, each running the main
/// call once and nothing else.
fn rss_probe_mib(ctx: &Ctx) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let mut values = Vec::new();
    for i in 0..RSS_PROBES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &ctx.workload, "--seed", &ctx.seed.to_string()])
            .args(["--rss-probe", "1", "--scratch"])
            .arg(ctx.scratch.join(format!("rss-{i}")))
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        let text = String::from_utf8_lossy(&out.stdout);
        values.push(text.trim().parse::<f64>().ok()?);
    }
    stats::median(&values)
}

/// The child side of the memory probe: the main call on the first
/// sub-seed, then `VmHWM`.
#[must_use]
pub fn rss_child(ctx: &Ctx, w: &dyn Workload) -> Option<f64> {
    w.main_call(ctx, ctx.seeds[0], "rss")?;
    env::peak_rss_mib()
}

/// Wall of one repetition as the sum over input sets of each set's
/// median call wall across the successful repetitions: a stall in one
/// call (an fsync, a neighbour's burst) moves one sample of one set, not
/// a whole repetition. `steal` scales each call by one minus its
/// repetition's steal share.
fn typical_wall(reps: &[Rep], steal: bool) -> f64 {
    let ok: Vec<&Rep> = reps.iter().filter(|r| r.ok).collect();
    let sets = ok.first().map_or(0, |r| r.calls.len());
    (0..sets)
        .map(|j| {
            let v: Vec<f64> = ok
                .iter()
                .map(|r| {
                    let kept = if steal {
                        1.0 - r.steal.clamp(0.0, 0.9)
                    } else {
                        1.0
                    };
                    r.calls[j] * kept
                })
                .collect();
            stats::median(&v).unwrap_or(0.0)
        })
        .sum()
}

/// Assemble the end-to-end outcome (all metrics but peak memory) from
/// timed repetitions and set-up samples: throughput is one repetition's
/// work over its typical wall (see [`typical_wall`]). `reference_ok` is false when a
/// reference run failed, or its digest mismatches the golden one.
#[must_use]
pub fn end_to_end(ctx: &Ctx, reps: &[Rep], setups: &[f64], reference_ok: bool) -> Outcome {
    let attempted = reps.len() as u64;
    // Every repetition matched the in-run reference; when that reference
    // is itself wrong (golden mismatch, failed reference or set-up run),
    // every repetition's output is wrong with it.
    let failed = if reference_ok {
        reps.iter().filter(|r| !r.ok).count() as u64
    } else {
        attempted
    };
    // Throughput is work over the wall time the hypervisor let this
    // machine run: on a shared host, time stolen for a neighbour is not
    // the program's. The raw figure is printed alongside.
    let work = reps
        .iter()
        .find(|r| r.ok)
        .map_or(Work::default(), |r| r.work);
    let wall = typical_wall(reps, true);
    let rate = |count: u64| if wall > 0.0 { count as f64 / wall } else { 0.0 };
    let values = [
        rate(work.users),
        rate(work.events),
        rate(work.measurements),
        stats::median(setups).unwrap_or(0.0),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let walls: Vec<f64> = reps.iter().filter(|r| r.ok).map(|r| r.wall_s).collect();
    let raw = work.users as f64 / typical_wall(reps, false);
    let mut notes = vec![
        format!(
            "host nproc={} threads={} workers={} seed={}",
            ctx.nproc, ctx.threads, ctx.workers, ctx.seed
        ),
        format!(
            "failed_share {} fraction ({failed} of {attempted} repetitions)",
            failed as f64 / attempted.max(1) as f64
        ),
        wall_line("repetition wall", &walls),
        format!("users_per_s over raw wall (steal not excluded): {raw:.3}"),
        wall_line("set-up wall", setups),
    ];
    notes.push(format!(
        "repetition walls, s (steal share): {}",
        reps.iter()
            .map(|r| format!("{:.4} ({:.3})", r.wall_s, r.steal))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "work per repetition: users={} events={} measurements={}",
        work.users, work.events, work.measurements
    ));
    Outcome {
        correct: failed == 0 && reference_ok,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// `"<what>: n=… median=… s q1=… q3=… s [pXX=… s]"`.
fn wall_line(what: &str, walls: &[f64]) -> String {
    let mut s = format!(
        "{what}: n={} median={:.6} s",
        walls.len(),
        stats::median(walls).unwrap_or(f64::NAN)
    );
    if let Some((q1, q3)) = stats::quartiles(walls) {
        let _ = write!(s, " q1={q1:.6} q3={q3:.6} s");
    }
    if let Some((p, v)) = stats::tail_percentile(walls) {
        let _ = write!(s, " p{p}={v:.6} s");
    }
    s
}

/// Per-layer values being collected by a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Checks that failed; any entry marks the trace invalid.
    pub mismatches: Vec<String>,
    /// Human-readable lines.
    pub notes: Vec<String>,
}

impl Layers {
    /// Record `value` for metric `name` (must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.mismatches.push(what.into());
        }
    }

    /// Every [`PER_LAYER`] metric (0 for layers not exercised) as an
    /// outcome. The trace is valid only when no check failed.
    #[must_use]
    pub fn into_outcome(mut self, passes: u64) -> Outcome {
        self.set("trace.passes", passes as f64);
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
        let attempted = passes.max(1);
        // An invalid trace invalidates every pass it aggregates.
        let failed = if self.mismatches.is_empty() {
            0
        } else {
            attempted
        };
        let mut notes = self.notes;
        notes.extend(
            self.mismatches
                .iter()
                .map(|m| format!("TRACE INVALID: {m}")),
        );
        Outcome {
            correct: self.mismatches.is_empty(),
            attempted,
            failed,
            metrics,
            notes,
        }
    }
}

/// Self-time summary of one traced pass: per layer, calls and self ns.
pub type PassTimes = BTreeMap<&'static str, trace::LayerTime>;

/// Median over passes of a layer's mean self time per call, in ns.
#[must_use]
pub fn per_call_ns(passes: &[PassTimes], layer: &str) -> f64 {
    let v: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.get(layer))
        .filter(|t| t.count > 0)
        .map(|t| t.self_ns as f64 / t.count as f64)
        .collect();
    stats::median(&v).unwrap_or(0.0)
}

/// Median over passes of a layer's inclusive time (self plus children),
/// in ns.
#[must_use]
pub fn total_ns(passes: &[PassTimes], layer: &str) -> f64 {
    let v: Vec<f64> = passes
        .iter()
        .map(|p| p.get(layer).map_or(0.0, |t| t.total_ns as f64))
        .collect();
    stats::median(&v).unwrap_or(0.0)
}

/// Spans under the pass root that no layer claims, as a share of the
/// root's wall: the root's own self time over its duration.
#[must_use]
pub fn unattributed_share(passes: &[PassTimes], root: &str) -> f64 {
    let v: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.get(root))
        .filter(|t| t.total_ns > 0)
        .map(|t| t.self_ns as f64 / t.total_ns as f64)
        .collect();
    stats::median(&v).unwrap_or(0.0)
}

/// Run traced passes of `pass` until `seconds` elapse (at least one),
/// each under a fresh recorder with a root span named `root`. Returns
/// each pass's self-time summary; the last pass's spans are written to
/// `spans_path`.
///
/// # Errors
/// Writing the span file.
pub fn traced_passes(
    seconds: f64,
    root: &'static str,
    spans_path: &std::path::Path,
    mut pass: impl FnMut(usize),
) -> std::io::Result<Vec<PassTimes>> {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut last = Vec::new();
    while out.is_empty() || started.elapsed().as_secs_f64() < seconds {
        trace::start();
        let n = out.len();
        trace::span(root, || pass(n));
        last = trace::finish();
        out.push(trace::self_times(&last));
    }
    trace::write_tsv(&last, spans_path)?;
    Ok(out)
}
