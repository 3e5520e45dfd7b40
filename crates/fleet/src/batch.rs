//! Cohort batches: the service-facing slice of the fleet plane.
//!
//! A long-running agent (roam-service) does not run one big population
//! once — it ticks *cohorts*: named groups of users, each owning a
//! contiguous uid range inside the shared per-seed uid namespace, each
//! ticked repeatedly as sim-time advances. [`run_user_batch`] is the
//! hook that makes one such tick a first-class fleet operation: it
//! drives an arbitrary `[lo, hi)` uid range through the exact same
//! plan/exec/merge pipeline `FleetRunner` uses, splitting the range
//! into sub-shards for thread-level parallelism and folding the
//! outcomes in sub-shard order. The sub-shards share one
//! [`ShardBase`] (world, market, endpoint pool), built once per batch —
//! or once per run of batches, when the caller keeps it across ticks
//! with [`UserBatch::run_reusing`].
//!
//! Determinism is inherited wholesale from the shard contract: every
//! per-user observable derives from `flow_seed(seed, "fleet/…/<uid>")`,
//! so a batch's report and session stream depend only on
//! `(seed, config, faults, lo, hi)` — not on the sub-shard count, the thread
//! count, the transport backend, or which other cohorts tick in the
//! same process. Two cohorts with disjoint uid ranges draw from
//! disjoint stream families by construction.

use crate::config::FleetConfig;
use crate::exec::{run_fleet_shard, RunSpec, ShardBase, ShardSpec};
use crate::report::FleetReport;
use crate::sink::SessionRecord;
use roam_measure::{run_shards, RunMode};
use roam_netsim::{FaultSpec, TransportKind};
use roam_telemetry::{merge_shards, TelemetryMode, TelemetryReport};

/// One cohort tick's work order: drive users `[lo, hi)` of `seed`'s
/// population through a full calendar window.
#[derive(Debug, Clone)]
pub struct UserBatch {
    /// Master seed — must be shared by every batch in a run so all
    /// cohorts see the same world, market and endpoint pool.
    pub seed: u64,
    /// Sizing knobs. `users`/`shards` are ignored (the range and
    /// sub-shard split come from this struct); `days`, `mix` and
    /// `sample` apply per user.
    pub config: FleetConfig,
    /// First uid (inclusive).
    pub lo: u64,
    /// One past the last uid.
    pub hi: u64,
    /// Sub-shards to split the range into (clamped to the range size).
    pub shards: usize,
    /// Thread-level execution mode for the sub-shards.
    pub mode: RunMode,
    /// What the telemetry plane records.
    pub telemetry: TelemetryMode,
    /// The fault schedule; `None` takes the process default
    /// ([`FaultSpec::current`]) when [`UserBatch::run`] starts.
    pub faults: Option<FaultSpec>,
    /// Record per-session [`SessionRecord`]s (the service's export
    /// stream) in addition to the aggregates.
    pub record_sessions: bool,
}

/// What one batch hands back: the merged aggregates plus the per-session
/// records in uid order (empty unless requested).
pub struct BatchRun {
    /// Exactly-merged aggregates for the range.
    pub report: FleetReport,
    /// Telemetry merged in sub-shard order.
    pub telemetry: TelemetryReport,
    /// Per-session records, in uid order (sessions within a user keep
    /// session order) — invariant across `shards`/`mode`.
    pub sessions: Vec<SessionRecord>,
}

impl UserBatch {
    /// A sequential, telemetry-off batch of users `[lo, hi)`.
    #[must_use]
    pub fn new(seed: u64, config: FleetConfig, lo: u64, hi: u64) -> Self {
        UserBatch {
            seed,
            config,
            lo,
            hi,
            shards: 1,
            mode: RunMode::Sequential,
            telemetry: TelemetryMode::Off,
            faults: None,
            record_sessions: false,
        }
    }

    /// The contiguous uid range of sub-shard `i` of `n` — the same
    /// proportional split `FleetRunner` uses, offset into the batch.
    fn sub_range(&self, i: usize, n: usize) -> (u64, u64) {
        let span = self.hi - self.lo;
        (
            self.lo + span * i as u64 / n as u64,
            self.lo + span * (i as u64 + 1) / n as u64,
        )
    }

    /// Execute the batch: split the range, run the sub-shards on `mode`,
    /// fold reports / telemetry / sessions in sub-shard order.
    ///
    /// An empty range (`lo >= hi`) is a no-op batch: empty report, empty
    /// stream — the expired-cohort case in the service.
    #[must_use]
    pub fn run(&self) -> BatchRun {
        self.run_reusing(&mut None)
    }

    /// [`UserBatch::run`], with the sub-shards' setup cached in `base`
    /// across calls: a cached base whose run (seed, config, telemetry,
    /// transport, faults) equals this batch's is reused as is, anything
    /// else is replaced by a fresh build. An empty range builds nothing
    /// and leaves `base` untouched. The result equals [`UserBatch::run`]'s
    /// byte for byte.
    #[must_use]
    pub fn run_reusing(&self, base: &mut Option<ShardBase>) -> BatchRun {
        let span = self.hi.saturating_sub(self.lo);
        if span == 0 {
            return BatchRun {
                report: FleetReport::new(self.config.sample),
                telemetry: TelemetryReport::new(self.telemetry),
                sessions: Vec::new(),
            };
        }
        let n = (self.shards.max(1) as u64).min(span) as usize;
        let run = RunSpec {
            seed: self.seed,
            config: self.config,
            telemetry: self.telemetry,
            transport: TransportKind::current(),
            faults: self.faults.unwrap_or_else(FaultSpec::current),
        };
        let base = match base {
            Some(cached) if cached.run == run => cached,
            slot => slot.insert(ShardBase::build(&run)),
        };
        let mut outcomes = run_shards(self.mode, n, |i| {
            let (lo, hi) = self.sub_range(i, n);
            let spec = ShardSpec {
                index: i,
                lo,
                hi,
                resume: None,
                attempt: 0,
            };
            run_fleet_shard(base, spec, None, self.record_sessions)
        });
        outcomes.sort_by_key(|o| o.index);
        let mut report = FleetReport::new(self.config.sample);
        let mut snaps = Vec::with_capacity(outcomes.len());
        let mut sessions = Vec::new();
        for outcome in outcomes {
            report.merge(&outcome.report);
            snaps.push((format!("batch/{:03}", outcome.index), outcome.snap));
            sessions.extend(outcome.sessions);
        }
        BatchRun {
            report,
            telemetry: merge_shards(self.telemetry, snaps),
            sessions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(lo: u64, hi: u64, shards: usize, parallel: usize) -> UserBatch {
        let config = FleetConfig {
            days: 3,
            ..FleetConfig::default()
        };
        UserBatch {
            shards,
            mode: if parallel <= 1 {
                RunMode::Sequential
            } else {
                RunMode::Parallel(parallel)
            },
            record_sessions: true,
            ..UserBatch::new(99, config, lo, hi)
        }
    }

    #[test]
    fn batch_bytes_are_invariant_across_subshards_and_threads() {
        let base = batch(40, 120, 1, 1).run();
        assert_eq!(base.report.users, 80);
        assert!(!base.sessions.is_empty());
        for (shards, parallel) in [(4, 1), (4, 4), (3, 2)] {
            let other = batch(40, 120, shards, parallel).run();
            assert_eq!(
                other.report.render(),
                base.report.render(),
                "shards={shards} parallel={parallel}"
            );
            assert_eq!(other.sessions, base.sessions);
        }
    }

    #[test]
    fn disjoint_batches_tile_like_one_run() {
        // Users [0, 60) in one batch vs two disjoint batches: the merged
        // aggregates and concatenated streams must be identical — the
        // cohort property the service leans on.
        let whole = batch(0, 60, 2, 2).run();
        let left = batch(0, 25, 1, 1).run();
        let right = batch(25, 60, 3, 2).run();
        let mut merged = FleetReport::new(FleetConfig::default().sample);
        merged.merge(&left.report);
        merged.merge(&right.report);
        assert_eq!(merged.render(), whole.report.render());
        let mut stream = left.sessions.clone();
        stream.extend(right.sessions.clone());
        assert_eq!(stream, whole.sessions);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let run = batch(10, 10, 4, 4).run();
        assert_eq!(run.report.users, 0);
        assert!(run.sessions.is_empty());
    }

    /// What a caller can observe of a batch.
    fn observed(run: &BatchRun) -> (String, String, Vec<SessionRecord>) {
        (
            run.report.render(),
            run.telemetry.render(),
            run.sessions.clone(),
        )
    }

    /// The cached base's market allocation: equal across calls exactly
    /// when the base was reused rather than rebuilt (a rebuild allocates
    /// its market while the old base is still alive).
    fn base_identity(slot: &Option<ShardBase>) -> *const roam_econ::EsimOffer {
        slot.as_ref().expect("base cached").market.offers().as_ptr()
    }

    #[test]
    fn run_reusing_rebuilds_a_base_cached_for_another_run() {
        let target = UserBatch {
            telemetry: TelemetryMode::Summary,
            faults: Some(FaultSpec::light()),
            ..batch(20, 50, 3, 2)
        };
        let others = [
            UserBatch {
                seed: 98,
                ..target.clone()
            },
            UserBatch {
                faults: Some(FaultSpec::heavy()),
                ..target.clone()
            },
        ];
        for other in others {
            let mut slot = None;
            let _ = other.run_reusing(&mut slot);
            let stale = base_identity(&slot);
            let reused = target.run_reusing(&mut slot);
            assert_ne!(base_identity(&slot), stale, "stale base was reused");
            assert_eq!(observed(&reused), observed(&target.run()));
        }
    }

    #[test]
    fn consecutive_ticks_on_one_base_equal_fresh_runs() {
        let ticks = [batch(0, 30, 4, 2), batch(10, 45, 4, 1), batch(30, 60, 2, 2)];
        let mut slot = None;
        let mut identity = None;
        for tick in &ticks {
            let reused = tick.run_reusing(&mut slot);
            assert_eq!(observed(&reused), observed(&tick.run()));
            let id = base_identity(&slot);
            assert_eq!(*identity.get_or_insert(id), id, "base was rebuilt");
        }
    }

    #[test]
    fn empty_range_builds_no_base() {
        let mut slot = None;
        let run = batch(10, 10, 4, 4).run_reusing(&mut slot);
        assert_eq!(run.report.users, 0);
        assert!(slot.is_none());
    }
}
