//! perfbench command line.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scratch DIR]
//! ```
//!
//! (`--rss-probe 1` is the peak-memory probe's child mode: one main call,
//! then `VmHWM` in MiB on stdout.)
//!
//! Prints human-readable lines, then one JSON result line last on
//! stdout. Exits 2 on a usage error or a `ROAM_*` variable in the
//! environment, 1 when the run could not complete.

use perfbench::{agent, campaign, env, fleet, Ctx, Outcome, Workload, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Golden digests: `workload seed digest` lines, for seeds whose
/// reference output has been recorded.
const GOLDEN: &str = include_str!("../reference.tsv");

fn golden(workload: &str, seed: u64) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(f.next()?, 16).ok())
            .flatten()
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rss_probe: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut rss_probe = false;
    let mut scratch = PathBuf::from(".bench_run");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed: not a u64".to_string())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: not a positive number")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                }
            }
            "--scratch" => scratch = PathBuf::from(value),
            "--rss-probe" => rss_probe = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rss_probe,
        scratch,
    })
}

fn context(args: &Args) -> Result<Ctx, String> {
    let nproc = env::nproc();
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    Ok(Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seeds: perfbench::sub_seeds(args.seed, perfbench::sub_seed_count(&args.workload)),
        seconds: args.seconds,
        nproc,
        threads: env::cap_parallel(env::WANT_PARALLEL, nproc),
        workers: env::cap_parallel(env::WANT_PARALLEL, nproc),
        scratch: env::fresh_dir(&args.scratch, &args.workload)
            .map_err(|e| format!("scratch {}: {e}", args.scratch.display()))?,
        worker_bin: exe.with_file_name("perfbench_worker"),
    })
}

fn workload(name: &str) -> &'static dyn Workload {
    match name {
        "fleet-healthy" => &fleet::Kind::Healthy,
        "fleet-degraded" => &fleet::Kind::Degraded,
        "agent-soak" => &agent::Soak,
        "campaign-paper" => &campaign::Paper,
        _ => unreachable!("workload validated in parse_args"),
    }
}

fn run(args: &Args, ctx: &Ctx) -> Result<Outcome, String> {
    let io = |e: std::io::Error| e.to_string();
    let outcome = match (args.workload.as_str(), args.trace) {
        (name, false) => perfbench::measure(ctx, workload(name), golden(name, args.seed)),
        ("fleet-healthy", true) => fleet::traced(ctx, fleet::Kind::Healthy).map_err(io)?,
        ("fleet-degraded", true) => fleet::traced(ctx, fleet::Kind::Degraded).map_err(io)?,
        ("agent-soak", true) => agent::traced(ctx).map_err(io)?,
        ("campaign-paper", true) => campaign::traced(ctx).map_err(io)?,
        _ => unreachable!("workload validated in parse_args"),
    };
    // Leave nothing behind but the span file of a traced run.
    if let Ok(entries) = std::fs::read_dir(&ctx.scratch) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    if let Err(msg) = env::refuse_roam_overrides() {
        eprintln!("perfbench: {msg}");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let ctx = match context(&args) {
        Ok(ctx) => ctx,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(1);
        }
    };
    if args.rss_probe {
        // Child side of the peak-memory probe: one main call, then VmHWM.
        let peak = perfbench::rss_child(&ctx, workload(&args.workload));
        let _ = std::fs::remove_dir_all(&ctx.scratch);
        return match peak {
            Some(mib) => {
                println!("{mib}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("perfbench: memory probe run failed");
                ExitCode::from(1)
            }
        };
    }
    match run(&args, &ctx) {
        Ok(outcome) => {
            println!(
                "== {} (seed {}, trace {}) ==",
                args.workload,
                args.seed,
                u8::from(args.trace)
            );
            for line in &outcome.notes {
                println!("  {line}");
            }
            for m in &outcome.metrics {
                println!("  {:<26} {:>18.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(1)
        }
    }
}
