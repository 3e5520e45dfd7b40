//! roam-service: the long-running deterministic measurement agent.
//!
//! Everything below the fleet plane simulates one bounded run: build a
//! world, drive a population through it once, render a report. A real
//! measurement operation is not bounded — it is a *service*: recurring
//! campaigns, cohorts of devices that join and leave, exports that
//! stream continuously, processes that get restarted. This crate adds
//! that mode without giving up a byte of determinism:
//!
//! * [`task`] — a virtual-clock task scheduler on the netsim timing
//!   wheel. Recurring jobs fire in strict `(sim-time, registration)`
//!   order, and every fire owns a keyed RNG stream derived from
//!   `(master seed, job id, fire index)` alone — registering or
//!   cancelling one job can never perturb another's draws, and a
//!   resumed schedule replays the uninterrupted one exactly.
//! * [`cohort`] — cohort lifecycle over the fleet plane: each cohort
//!   owns a disjoint uid namespace and ticks through
//!   [`UserBatch`](roam_fleet::UserBatch); churn and TTL move the uid
//!   window without touching any user's streams.
//! * [`export`] — backpressured sink streaming: a bounded queue in
//!   front of any [`DataSink`](roam_measure::DataSink) whose overflow
//!   policy is to block the virtual clock, never to drop records.
//! * [`agent`] + [`checkpoint`] — the [`Agent`] event loop tying the
//!   three together, with SIGTERM-drain checkpoints through the fleet
//!   checkpoint plane (`agent.ckpt`, frame kind [`KIND_AGENT`]) and
//!   resume that picks up mid-schedule.
//!
//! The determinism contract is the repo-wide one: the agent's report,
//! session stream and soak table are byte-identical across thread
//! counts, transport backends, and any kill-at-a-checkpoint/resume
//! split of the run.
//!
//! [`KIND_AGENT`]: roam_fleet::checkpoint::KIND_AGENT

pub mod agent;
pub mod checkpoint;
pub mod cohort;
pub mod config;
pub mod export;
pub mod task;

pub use agent::{Agent, AgentRun, Horizon, Outcome, ServiceError};
pub use checkpoint::{AgentState, SoakRow, AGENT_FILE};
pub use cohort::{Cohort, COHORT_STRIDE};
pub use config::{ServiceConfig, ServiceConfigError};
pub use export::{BoundedSink, CsvFile};
pub use task::{days, Fire, JobHandle, Scheduler};
