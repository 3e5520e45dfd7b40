//! Shard execution: drive one contiguous user range through the full
//! stack, optionally starting from a checkpoint and writing new ones.
//!
//! This is the hot half of the fleet plane (the planner/merger halves
//! live in [`crate::plan`] and [`crate::merge`]). Every shard of a run
//! starts from the same setup — the seeded world, the market, the fixed
//! endpoint pool and the offer shelves — so that setup is built once per
//! run as a [`ShardBase`] and shared by reference. One call to
//! [`run_fleet_shard`] owns one shard: it clones the base's post-setup
//! network, then streams its user range into the report. With a
//! [`CheckpointPolicy`] it also serializes its partial state every
//! `every_days` accumulated sim-days, at a user boundary (the only point
//! where no batched work is in flight), so a killed process can resume
//! mid-shard without replaying.

use crate::checkpoint::{self, CheckpointPolicy, ShardState};
use crate::config::{FleetConfig, SessionMix};
use crate::population::{synthesize, TravelerClass, UserId};
use crate::report::{FleetReport, JourneySample};
use crate::sink::{SessionKind, SessionRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roam_econ::{EsimOffer, Market};
use roam_geo::Country;
use roam_measure::campaign::RecordTag;
use roam_measure::{resolve_timing, Endpoint, MeasureError, MeasureStatus, ResolverPlan, Service};
use roam_netsim::engine::flow_seed;
use roam_netsim::{FaultSpec, Network, NodeId, TransferSpec, TransportKind};
use roam_telemetry::{Counter, Sink, TelemetryMode, TelemetrySnapshot};
use roam_world::World;
use std::time::Instant;

/// The values every shard of one run shares, resolved once at run entry
/// and handed to each shard by value: a shard never reads the
/// environment or a process-wide override.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RunSpec {
    /// Master seed.
    pub seed: u64,
    /// Population and session knobs.
    pub config: FleetConfig,
    /// What the telemetry plane records.
    pub telemetry: TelemetryMode,
    /// The transport every shard's network times transfers with.
    pub transport: TransportKind,
    /// The fault schedule every shard's network carries.
    pub faults: FaultSpec,
}

/// One shard's work order: its index, its user range, and (when
/// resuming) the partial state to continue from.
#[derive(Debug, Clone)]
pub(crate) struct ShardSpec {
    /// Shard index (stable across runs; names the checkpoint file).
    pub index: usize,
    /// First user id (inclusive).
    pub lo: u64,
    /// One past the last user id.
    pub hi: u64,
    /// Partial state to resume from, if a checkpoint exists.
    pub resume: Option<ShardState>,
    /// Execution attempt, counted from 0. Supervision metadata only: it
    /// keys the worker-fault injection draws (`ROAM_WORKER_FAULTS`) so a
    /// retried shard re-rolls its chaos, and it never reaches
    /// [`run_fleet_shard`]'s outputs — a shard's outcome is a pure
    /// function of `(seed, config, index, lo, hi, resume)`.
    pub attempt: u32,
}

/// What one shard hands back to the merger.
#[derive(Debug)]
pub(crate) struct ShardOutcome {
    /// Shard index, for merge ordering.
    pub index: usize,
    /// The shard's aggregates.
    pub report: FleetReport,
    /// The shard's telemetry.
    pub snap: TelemetrySnapshot,
    /// Wall-clock milliseconds this shard took, from the clone of the
    /// run's [`ShardBase`] on (the shared setup is not included).
    pub wall_ms: f64,
    /// `false` when the shard stopped early because the checkpoint
    /// policy's `halt_after` tripped (harness use only).
    pub completed: bool,
    /// Per-session export records, in session order (empty unless the
    /// run carries a sink — see [`crate::FleetRunner::sink`]).
    pub sessions: Vec<SessionRecord>,
}

/// Tally a successful probe's fault-plane outcome. Gated on the fault
/// plane being active so undisturbed runs keep an all-zero summary (and
/// therefore unchanged report bytes).
fn count_delivered(report: &mut FleetReport, net: &Network, status: MeasureStatus) {
    if !net.faults_enabled() {
        return;
    }
    if status == MeasureStatus::Failover {
        report.degraded.failover += 1;
    } else {
        report.degraded.ok += 1;
    }
}

/// Tally a failed probe. `NoTarget` is a scenario gap, not a fault, and
/// stays out of the summary just like in campaign records.
fn count_failed(report: &mut FleetReport, net: &Network, e: &MeasureError) {
    if matches!(e, MeasureError::NoTarget) || !net.faults_enabled() {
        return;
    }
    match e.status() {
        MeasureStatus::Timeout => report.degraded.timeout += 1,
        _ => report.degraded.unreachable += 1,
    }
}

/// One measured country's fixed probe stage: two eSIM attachments
/// (capturing the §4.1 provider alternation) plus their precomputed probe
/// targets and resolver plans — everything session-invariant is resolved
/// here once instead of once per session.
#[derive(Debug)]
pub struct CountrySlot {
    /// The two attachments, alternated by uid (fleet) or fire index
    /// (agent vantage probes).
    pub endpoints: [Endpoint; 2],
    /// Nearest Google edge from each attachment's breakout city.
    pub rtt_targets: [Option<NodeId>; 2],
    /// Each attachment's resolver plan.
    pub dns_plans: [ResolverPlan; 2],
}

/// The fixed endpoint pool: one [`CountrySlot`] per entry of `countries`,
/// in order. Attaches first (mutable world), then resolves probe targets
/// (immutable), so the world's network ends in the same state for every
/// caller that builds a pool from the same seed.
pub fn endpoint_pool(world: &mut World, countries: &[Country]) -> Vec<CountrySlot> {
    let attached: Vec<[Endpoint; 2]> = countries
        .iter()
        .map(|&c| [world.attach_esim(c), world.attach_esim(c)])
        .collect();
    attached
        .into_iter()
        .map(|endpoints| {
            let rtt_targets = [0, 1].map(|i| {
                world.internet.targets.nearest(
                    &world.net,
                    Service::Google,
                    endpoints[i].att.breakout_city,
                )
            });
            let dns_plans = [0, 1]
                .map(|i| ResolverPlan::new(&world.net, &endpoints[i], &world.internet.targets));
            CountrySlot {
                endpoints,
                rtt_targets,
                dns_plans,
            }
        })
        .collect()
}

/// One seller's shelf for a destination, preprocessed for the per-leg
/// purchase decision: offers sorted by value (per-GB price, catalogue
/// order breaking ties) so "cheapest plan covering the need" is a short
/// forward scan with no per-leg divisions, plus the precomputed
/// biggest-plan fallback.
#[derive(Debug)]
struct OfferLane {
    /// `(data_gb, offer index)` sorted ascending by `(per_gb, index)`.
    by_value: Vec<(f64, usize)>,
    /// The biggest plan on the shelf (ties break on catalogue order).
    biggest: Option<usize>,
}

impl OfferLane {
    fn build(offers: &[EsimOffer], idxs: impl Iterator<Item = usize>) -> Self {
        let mut by_value: Vec<(f64, f64, usize)> = idxs
            .map(|i| (offers[i].per_gb(), offers[i].data_gb, i))
            .collect();
        by_value.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        let biggest = by_value
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.2.cmp(&a.2)))
            .map(|&(_, _, i)| i);
        OfferLane {
            by_value: by_value.into_iter().map(|(_, gb, i)| (gb, i)).collect(),
            biggest,
        }
    }

    /// The cheapest per-GB plan covering `need_gb`, else the biggest plan.
    fn pick(&self, need_gb: f64) -> Option<usize> {
        self.by_value
            .iter()
            .find(|&&(gb, _)| gb >= need_gb)
            .map(|&(_, i)| i)
            .or(self.biggest)
    }
}

/// Offer lanes for one destination, split by seller for the purchase
/// preference draw.
#[derive(Debug)]
struct CountryOffers {
    airalo: OfferLane,
    all: OfferLane,
}

impl CountryOffers {
    /// `country`'s shelf of `market`.
    fn build(market: &Market, country: Country) -> Self {
        let offers = market.offers();
        let on_shelf: Vec<usize> = (0..offers.len())
            .filter(|&i| offers[i].country == country)
            .collect();
        let airalo = OfferLane::build(
            offers,
            on_shelf
                .iter()
                .copied()
                .filter(|&i| offers[i].provider == market.airalo()),
        );
        let all = OfferLane::build(offers, on_shelf.into_iter());
        CountryOffers { airalo, all }
    }
}

/// Everything a shard reads that does not depend on its user range,
/// built once per run and shared by reference: the resolved [`RunSpec`],
/// the post-setup network (built with the run's telemetry mode, faults
/// and transport, after the endpoint pool attached), the market, and the
/// measured countries with their endpoint pool and offer shelves.
///
/// The setup is deterministic and independent of the shard's user range,
/// so a shard starting from a clone of the base's network produces the
/// same bytes as one that ran the setup itself — setup telemetry records,
/// warm route cache and lazily filled fault calendars included.
///
/// Outside the crate it is an opaque cache handle: a caller that runs
/// many batches of one run keeps one in an `Option` and hands it to
/// [`crate::UserBatch::run_reusing`].
#[derive(Debug)]
pub struct ShardBase {
    pub(crate) run: RunSpec,
    net: Network,
    pub(crate) market: Market,
    countries: Vec<Country>,
    pool: Vec<CountrySlot>,
    shelves: Vec<CountryOffers>,
}

impl ShardBase {
    /// Run every shard's setup once for `run`.
    pub(crate) fn build(run: &RunSpec) -> Self {
        let mut world = World::build(run.seed);
        world.net.set_telemetry_mode(run.telemetry);
        world.net.set_faults(run.faults);
        world.net.set_transport(run.transport);
        let market = Market::generate(run.seed);
        let countries = world.measured_countries();
        let pool = endpoint_pool(&mut world, &countries);
        let shelves = countries
            .iter()
            .map(|&c| CountryOffers::build(&market, c))
            .collect();
        ShardBase {
            run: *run,
            net: world.net,
            market,
            countries,
            pool,
            shelves,
        }
    }
}

/// Pick an offer deterministically: prefer Airalo's shelf when the user
/// does (and it can cover the need), then the cheapest per-GB plan that
/// covers the need, falling back to the biggest plan on the shelf. Ties
/// break on catalogue order.
fn choose_offer<'m>(
    offers: &'m [EsimOffer],
    shelf: &CountryOffers,
    prefer_airalo: bool,
    need_gb: f64,
) -> Option<&'m EsimOffer> {
    if prefer_airalo {
        if let Some(i) = shelf.airalo.pick(need_gb) {
            return Some(&offers[i]);
        }
    }
    shelf.all.pick(need_gb).map(|i| &offers[i])
}

/// Append `v` in decimal without going through the `fmt` machinery —
/// label derivation is hot enough at population scale that `Display`'s
/// formatter setup shows up in profiles.
fn push_dec(buf: &mut String, mut v: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.push_str(std::str::from_utf8(&tmp[i..]).expect("decimal digits are ASCII"));
}

/// The export tag of a fleet endpoint — the same four context columns
/// every campaign record carries.
fn session_tag(ep: &Endpoint) -> RecordTag {
    RecordTag {
        country: ep.country,
        sim_type: ep.sim_type,
        arch: ep.att.arch,
        rat: ep.rat(),
    }
}

/// A metric-free session record; delivered sessions fill in their one
/// metric with struct-update syntax at the push site.
fn session_record(ep: &Endpoint, kind: SessionKind, status: MeasureStatus) -> SessionRecord {
    SessionRecord {
        tag: session_tag(ep),
        kind,
        rtt_ms: None,
        lookup_ms: None,
        mb: None,
        status,
    }
}

fn draw_kind(rng: &mut SmallRng, mix: SessionMix) -> SessionKind {
    let roll = rng.gen_range(0..mix.total());
    if roll < mix.rtt {
        SessionKind::Rtt
    } else if roll < mix.rtt + mix.dns {
        SessionKind::Dns
    } else {
        SessionKind::Transfer
    }
}

/// Drive one shard through the stack.
///
/// The shard starts from a clone of `base`'s post-setup network and
/// borrows the base's market, endpoint pool and shelves; it never builds
/// a world itself. Its [`ShardOutcome::wall_ms`] therefore covers the
/// clone and the user loop, not the setup (and neither do the run's
/// per-shard timings and skew built from it).
///
/// With `spec.resume` set, the report and telemetry are restored
/// wholesale from the checkpoint over the cloned setup, and the user
/// loop starts at `next_uid` — because every per-user observable derives
/// from the user's own keyed RNG stream, the byte stream from there on
/// is exactly what the uninterrupted run would have produced.
///
/// With `ckpt` set, the shard serializes its partial state to
/// `shard-NNN.ckpt` atomically each time `every_days` sim-days
/// accumulate, always at a user boundary so the batched-transfer queue
/// is empty and the report is a clean prefix aggregate.
///
/// With `record_sessions` set, every measurement session additionally
/// lands in the outcome's [`SessionRecord`] buffer (delivered sessions
/// with their metric, failed sessions with status only; `NoTarget` is
/// a scenario gap and stays out, matching the degradation tallies).
pub(crate) fn run_fleet_shard(
    base: &ShardBase,
    spec: ShardSpec,
    ckpt: Option<&CheckpointPolicy>,
    record_sessions: bool,
) -> ShardOutcome {
    let started = Instant::now();
    let RunSpec {
        seed,
        config,
        transport,
        ..
    } = base.run;
    let mut net = base.net.clone();
    let ShardBase {
        market,
        countries,
        pool,
        shelves,
        ..
    } = base;
    let country_index = |c: Country| {
        countries
            .iter()
            .position(|&x| x == c)
            .expect("legs only visit measured countries")
    };

    // Resume point: restore the prefix aggregates over the cloned setup
    // so the restored telemetry (which already contains the original
    // run's setup records) replaces the clone's, never duplicates it.
    let (start_uid, mut report) = match spec.resume {
        Some(state) => {
            debug_assert_eq!(
                state.index, spec.index,
                "resume state routed to wrong shard"
            );
            net.telemetry_mut().restore(state.telemetry);
            (state.next_uid, state.report)
        }
        None => (spec.lo, FleetReport::new(config.sample)),
    };

    // Stream the users. No per-record buffering — every
    // observation lands in a sketch, a counter or the reservoir.
    // Transfers batch per user: their durations are discarded (see the
    // comment at the push site), so the specs accumulate and run through
    // the transport in one `transfer_ms_batch` call per user.
    let transport = transport.transport();
    let mut pending_transfers: Vec<TransferSpec> = Vec::new();
    let mut transfer_out: Vec<f64> = Vec::new();
    // Checkpoint cadence: sim-days accumulated since the last write.
    // Resets to zero at each write, so a resumed shard naturally starts
    // a fresh accumulation window.
    let mut days_acc: u64 = 0;
    let mut checkpoints_written: u32 = 0;
    let mut completed = true;
    let mut sessions: Vec<SessionRecord> = Vec::new();
    // Reusable label buffer: every per-user / per-session key is built by
    // appending into this one allocation.
    let mut label = String::with_capacity(48);
    for uid in start_uid..spec.hi {
        let profile = synthesize(seed, UserId(uid), countries, config.days);
        label.clear();
        label.push_str("fleet/act/");
        push_dec(&mut label, uid);
        let mut act = SmallRng::seed_from_u64(flow_seed(seed, &label));
        report.count_user(profile.class);
        net.telemetry_mut().add(Counter::FleetUsers, 1);
        let mut spend_micro = 0u128;
        for (li, leg) in profile.legs.iter().enumerate() {
            let ci = country_index(leg.country);
            let slot = &pool[ci];
            let prefer_airalo = act.gen_bool(0.6);
            let offer = choose_offer(
                market.offers(),
                &shelves[ci],
                prefer_airalo,
                profile.need_gb,
            )
            .expect("every measured country has offers");
            let price = market.price_on_day(offer, leg.arrival_day);
            spend_micro += (price * 1e6).round() as u128;
            report.purchases += 1;
            report.price_per_gb.observe(price / offer.data_gb);
            net.telemetry_mut().add(Counter::FleetPurchases, 1);
            let which = (uid % 2) as usize;
            let ep = &slot.endpoints[which];
            let target = slot.rtt_targets[which];
            // The per-session label only varies in its trailing session
            // index — build the prefix once per leg.
            label.clear();
            label.push_str("fleet/u");
            push_dec(&mut label, uid);
            label.push_str("/l");
            push_dec(&mut label, li as u64);
            label.push_str("/s");
            let prefix_len = label.len();
            for s in 0..leg.sessions {
                report.sessions += 1;
                net.telemetry_mut().add(Counter::FleetSessions, 1);
                label.truncate(prefix_len);
                push_dec(&mut label, u64::from(s));
                match draw_kind(&mut act, config.mix) {
                    SessionKind::Rtt => {
                        let Some(t) = target else {
                            report.lost_sessions += 1;
                            continue;
                        };
                        let mut probe = ep.probe(&mut net, &label);
                        match probe.rtt_checked(t) {
                            Ok(sample) => {
                                report.rtt_probes += 1;
                                report.rtt_ms.observe(sample.rtt_ms);
                                count_delivered(&mut report, &net, sample.status());
                                if record_sessions {
                                    sessions.push(SessionRecord {
                                        rtt_ms: Some(sample.rtt_ms),
                                        ..session_record(ep, SessionKind::Rtt, sample.status())
                                    });
                                }
                            }
                            Err(e) => {
                                report.lost_sessions += 1;
                                count_failed(&mut report, &net, &e);
                                if record_sessions && !matches!(e, MeasureError::NoTarget) {
                                    sessions.push(session_record(ep, SessionKind::Rtt, e.status()));
                                }
                            }
                        }
                    }
                    SessionKind::Dns => {
                        match resolve_timing(&mut net, ep, &slot.dns_plans[which], &label) {
                            Ok(r) => {
                                report.dns_lookups += 1;
                                report.dns_ms.observe(r.lookup_ms);
                                count_delivered(&mut report, &net, r.status);
                                if record_sessions {
                                    sessions.push(SessionRecord {
                                        lookup_ms: Some(r.lookup_ms),
                                        ..session_record(ep, SessionKind::Dns, r.status)
                                    });
                                }
                            }
                            Err(e) => {
                                report.lost_sessions += 1;
                                count_failed(&mut report, &net, &e);
                                if record_sessions && !matches!(e, MeasureError::NoTarget) {
                                    sessions.push(session_record(ep, SessionKind::Dns, e.status()));
                                }
                            }
                        }
                    }
                    SessionKind::Transfer => {
                        let mb = match profile.class {
                            TravelerClass::Tourist => act.gen_range(1.0..200.0),
                            TravelerClass::Business => act.gen_range(5.0..500.0),
                            TravelerClass::IotDevice => act.gen_range(0.05..1.0),
                        };
                        let Some(t) = target else {
                            report.lost_sessions += 1;
                            continue;
                        };
                        let mut probe = ep.probe(&mut net, &label);
                        let sample = match probe.rtt_checked(t) {
                            Ok(s) => s,
                            Err(e) => {
                                report.lost_sessions += 1;
                                count_failed(&mut report, &net, &e);
                                if record_sessions && !matches!(e, MeasureError::NoTarget) {
                                    sessions.push(session_record(
                                        ep,
                                        SessionKind::Transfer,
                                        e.status(),
                                    ));
                                }
                                continue;
                            }
                        };
                        let cqi = ep.channel.sample(probe.rng());
                        // The transfer runs through the selected transport
                        // to exercise it, but its *duration* is discarded:
                        // the backends agree only to sub-microsecond
                        // rounding, and the report must not depend on the
                        // backend. The drawn size is the recorded
                        // observable — so the spec only queues here and
                        // the batch runs once per user.
                        net.telemetry_mut()
                            .add(Counter::TransferBytes, (mb * 1e6) as u64);
                        pending_transfers.push(TransferSpec {
                            bytes: mb * 1e6,
                            rtt_ms: sample.rtt_ms,
                            policy_rate_mbps: ep.effective_down_mbps(cqi),
                            loss: ep.loss,
                            setup_rtts: 1.0,
                            parallel: 1,
                        });
                        report.transfers += 1;
                        report.session_mb.observe(mb);
                        count_delivered(&mut report, &net, sample.status());
                        if record_sessions {
                            sessions.push(SessionRecord {
                                mb: Some(mb),
                                ..session_record(ep, SessionKind::Transfer, sample.status())
                            });
                        }
                    }
                }
            }
        }
        if !pending_transfers.is_empty() {
            transport.transfer_ms_batch(&pending_transfers, &mut transfer_out);
            pending_transfers.clear();
        }
        report.spend_micro_usd += spend_micro;
        label.clear();
        label.push_str("fleet/sample/");
        push_dec(&mut label, uid);
        report.journeys.offer(
            flow_seed(seed, &label),
            uid,
            JourneySample {
                uid,
                class: profile.class.label(),
                legs: profile.legs.len() as u32,
                first: profile.legs[0].country.alpha3(),
                spend_micro_usd: spend_micro,
            },
        );
        if let Some(policy) = ckpt {
            days_acc += u64::from(config.days);
            // Write at the cadence boundary, but not after the final user:
            // the shard's own result supersedes a final checkpoint.
            if days_acc >= policy.every_days && uid + 1 < spec.hi {
                days_acc = 0;
                let state = ShardState {
                    index: spec.index,
                    next_uid: uid + 1,
                    report: report.clone(),
                    telemetry: net.telemetry_mut().snapshot().clone(),
                };
                checkpoint::write_shard(&policy.dir, &state).expect("checkpoint shard write");
                checkpoints_written += 1;
                if policy.halt_after.is_some_and(|n| checkpoints_written >= n) {
                    completed = false;
                    break;
                }
            }
        }
    }
    let snap = net.take_telemetry();
    ShardOutcome {
        index: spec.index,
        report,
        snap,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        completed,
        sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_econ::Market;

    /// A small heavy-fault run observed in `telemetry`.
    fn heavy_run(telemetry: TelemetryMode) -> RunSpec {
        RunSpec {
            seed: 11,
            config: FleetConfig {
                days: 3,
                ..FleetConfig::default()
            },
            telemetry,
            transport: TransportKind::ClosedForm,
            faults: FaultSpec::heavy(),
        }
    }

    /// Everything a shard hands the merger, minus wall time.
    #[derive(Debug, PartialEq)]
    struct Observed {
        index: usize,
        users: u64,
        report: String,
        snap: TelemetrySnapshot,
        sessions: Vec<SessionRecord>,
        completed: bool,
    }

    fn observe(o: ShardOutcome) -> Observed {
        Observed {
            index: o.index,
            users: o.report.users,
            report: o.report.render(),
            snap: o.snap,
            sessions: o.sessions,
            completed: o.completed,
        }
    }

    /// Three shards over users `[0, 36)`; the last resumes mid-range from
    /// the state a shard over its prefix left behind.
    fn shard_specs(run: &RunSpec) -> Vec<ShardSpec> {
        let spec = |index, lo, hi, resume| ShardSpec {
            index,
            lo,
            hi,
            resume,
            attempt: 0,
        };
        let prefix = run_fleet_shard(&ShardBase::build(run), spec(2, 24, 30, None), None, false);
        let state = ShardState {
            index: 2,
            next_uid: 30,
            report: prefix.report,
            telemetry: prefix.snap,
        };
        vec![
            spec(0, 0, 12, None),
            spec(1, 12, 24, None),
            spec(2, 24, 36, Some(state)),
        ]
    }

    #[test]
    fn shards_on_a_shared_base_equal_shards_on_their_own() {
        for telemetry in [TelemetryMode::Summary, TelemetryMode::Jsonl] {
            let run = heavy_run(telemetry);
            let specs = shard_specs(&run);
            for record in [false, true] {
                let own: Vec<Observed> = specs
                    .iter()
                    .map(|s| {
                        let base = ShardBase::build(&run);
                        observe(run_fleet_shard(&base, s.clone(), None, record))
                    })
                    .collect();
                let base = ShardBase::build(&run);
                let forward: Vec<Observed> = specs
                    .iter()
                    .map(|s| observe(run_fleet_shard(&base, s.clone(), None, record)))
                    .collect();
                let mut reverse: Vec<Observed> = specs
                    .iter()
                    .rev()
                    .map(|s| observe(run_fleet_shard(&base, s.clone(), None, record)))
                    .collect();
                reverse.reverse();
                assert_eq!(forward, own, "{telemetry:?} record={record}");
                assert_eq!(reverse, own, "{telemetry:?} record={record}");

                // The comparison has teeth: faults bit, telemetry and
                // sessions were recorded, and the resumed shard carried
                // its prefix.
                assert!(own
                    .iter()
                    .any(|o| o.report.contains("timeout") || o.report.contains("failover")));
                assert!(own.iter().all(|o| o.snap.counters.iter().any(|&c| c > 0)));
                assert_eq!(own.iter().all(|o| !o.sessions.is_empty()), record);
                assert!(own.iter().all(|o| o.users == 12 && o.completed));
                if telemetry == TelemetryMode::Jsonl {
                    assert!(own.iter().all(|o| !o.snap.events.is_empty()));
                }
            }
        }
    }

    /// The pre-lane `choose_offer`, kept as the reference model: filter /
    /// `min_by` / `max_by` straight over the index lists.
    fn reference_choose<'m>(
        offers: &'m [EsimOffer],
        airalo: &[usize],
        all: &[usize],
        prefer_airalo: bool,
        need_gb: f64,
    ) -> Option<&'m EsimOffer> {
        let pick = |idxs: &[usize]| -> Option<usize> {
            let covering = idxs
                .iter()
                .filter(|&&i| offers[i].data_gb >= need_gb)
                .min_by(|&&a, &&b| {
                    offers[a]
                        .per_gb()
                        .total_cmp(&offers[b].per_gb())
                        .then(a.cmp(&b))
                });
            covering
                .or_else(|| {
                    idxs.iter().max_by(|&&a, &&b| {
                        offers[a]
                            .data_gb
                            .total_cmp(&offers[b].data_gb)
                            .then(b.cmp(&a))
                    })
                })
                .copied()
        };
        if prefer_airalo {
            if let Some(i) = pick(airalo) {
                return Some(&offers[i]);
            }
        }
        pick(all).map(|i| &offers[i])
    }

    #[test]
    fn offer_lanes_match_the_reference_scan() {
        let market = Market::generate(42);
        let offers = market.offers();
        for country in roam_geo::Country::MEASURED {
            let all_idx: Vec<usize> = offers
                .iter()
                .enumerate()
                .filter(|(_, o)| o.country == country)
                .map(|(i, _)| i)
                .collect();
            let airalo_idx: Vec<usize> = all_idx
                .iter()
                .copied()
                .filter(|&i| offers[i].provider == market.airalo())
                .collect();
            let shelf = CountryOffers::build(&market, country);
            // Sweep needs across and beyond every shelf size, both
            // preference branches.
            for tenth_gb in 0..400u32 {
                let need = f64::from(tenth_gb) / 10.0;
                for prefer in [false, true] {
                    let fast = choose_offer(offers, &shelf, prefer, need);
                    let slow = reference_choose(offers, &airalo_idx, &all_idx, prefer, need);
                    assert_eq!(
                        fast.map(|o| o as *const _),
                        slow.map(|o| o as *const _),
                        "{country:?} need={need} prefer={prefer}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_lane_yields_no_offer() {
        let market = Market::generate(7);
        let offers = market.offers();
        let shelf = CountryOffers {
            airalo: OfferLane::build(offers, std::iter::empty()),
            all: OfferLane::build(offers, std::iter::empty()),
        };
        assert!(choose_offer(offers, &shelf, true, 1.0).is_none());
        assert!(choose_offer(offers, &shelf, false, 1.0).is_none());
    }
}
