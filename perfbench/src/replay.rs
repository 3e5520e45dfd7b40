//! Traced replay of one fleet shard through the library's public calls.
//!
//! The fleet executor is private to `roam-fleet`, so the traced run
//! drives the same user loop from here: the same seeded world and
//! endpoint pool, the same per-user RNG streams and flow labels, and the
//! same public functions (`World::build`, `Market::generate`,
//! `attach_esim`, `ServiceTargets::nearest`, `ResolverPlan::new`,
//! `synthesize`, `Market::price_on_day`, `Endpoint::probe` +
//! `rtt_checked`, `resolve_timing`, `Transport::transfer_ms_batch`,
//! `QuantileSketch::observe`, `ShardState::to_frame` / decode and
//! `checkpoint::write_atomic`), each timed as its own span. The replay's
//! report must equal the library's for the same user range; the caller
//! checks that and marks the trace invalid otherwise.

use crate::trace::span;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roam_codec::{Decoder, Frame};
use roam_econ::{EsimOffer, Market};
use roam_fleet::checkpoint::{shard_file, write_atomic, KIND_SHARD};
use roam_fleet::{
    synthesize, FleetConfig, FleetReport, JourneySample, SessionKind, SessionMix, ShardState,
    TravelerClass, UserId,
};
use roam_measure::{resolve_timing, Endpoint, MeasureError, MeasureStatus, ResolverPlan, Service};
use roam_netsim::engine::flow_seed;
use roam_netsim::{FaultSpec, Network, NodeId, TransferSpec, TransportKind};
use roam_telemetry::{Counter, Sink as _, TelemetryMode};
use roam_world::World;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Pins the process-wide fault schedule and transport for a scope, the
/// way the fleet runner does for its in-process backend, restoring the
/// previous values on drop.
pub struct Pins {
    faults: Option<FaultSpec>,
    transport: Option<TransportKind>,
}

impl Pins {
    /// Pin `faults` and `transport` until the value drops.
    #[must_use]
    pub fn install(faults: FaultSpec, transport: TransportKind) -> Self {
        Pins {
            faults: FaultSpec::override_faults(Some(faults)),
            transport: TransportKind::override_transport(Some(transport)),
        }
    }
}

impl Drop for Pins {
    fn drop(&mut self) {
        FaultSpec::override_faults(self.faults);
        TransportKind::override_transport(self.transport);
    }
}

/// What to replay.
#[derive(Debug, Clone)]
pub struct ShardReplay {
    /// Master seed.
    pub seed: u64,
    /// Population shape (users/shards are ignored; `lo..hi` is the range).
    pub config: FleetConfig,
    /// First user id.
    pub lo: u64,
    /// One past the last user id.
    pub hi: u64,
    /// Telemetry mode of the probe network.
    pub telemetry: TelemetryMode,
    /// Shard index and checkpoint directory + cadence (accumulated
    /// sim-days), when the workload checkpoints.
    pub checkpoint: Option<(usize, PathBuf, u64)>,
}

/// What a replay produced besides its spans.
#[derive(Debug)]
pub struct ReplayOut {
    /// The shard's aggregates.
    pub report: FleetReport,
    /// `probe` + `rtt_checked` calls made (RTT and transfer sessions).
    pub rtt_calls: u64,
    /// `resolve_timing` calls made.
    pub dns_calls: u64,
    /// `QuantileSketch::observe` calls made.
    pub observes: u64,
    /// Checkpoint frames written.
    pub ckpt_writes: u64,
    /// The last checkpoint frame written (or, without checkpointing, the
    /// frame of the final shard state, encoded for the codec layer).
    pub last_frame: Vec<u8>,
    /// Fault-plane drops and failover detours on the replay's network.
    pub fault_drops: u64,
    /// See [`ReplayOut::fault_drops`].
    pub fault_failovers: u64,
    /// Decoded checkpoint states that did not re-encode to the same bytes.
    pub codec_mismatches: u64,
    /// Wall time of the whole replay, seconds.
    pub wall_s: f64,
}

/// One seller's shelf for a destination, sorted by value — the same
/// purchase rule the fleet executor applies (cheapest per-GB plan
/// covering the need, ties on catalogue order, else the biggest plan).
struct Lane {
    by_value: Vec<(f64, usize)>,
    biggest: Option<usize>,
}

impl Lane {
    fn build(offers: &[EsimOffer], idxs: impl Iterator<Item = usize>) -> Self {
        let mut v: Vec<(f64, f64, usize)> = idxs
            .map(|i| (offers[i].per_gb(), offers[i].data_gb, i))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        let biggest = v
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.2.cmp(&a.2)))
            .map(|&(_, _, i)| i);
        Lane {
            by_value: v.into_iter().map(|(_, gb, i)| (gb, i)).collect(),
            biggest,
        }
    }

    fn pick(&self, need_gb: f64) -> Option<usize> {
        self.by_value
            .iter()
            .find(|&&(gb, _)| gb >= need_gb)
            .map(|&(_, i)| i)
            .or(self.biggest)
    }
}

struct Slot {
    endpoints: [Endpoint; 2],
    rtt_targets: [Option<NodeId>; 2],
    dns_plans: [ResolverPlan; 2],
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

fn count_failed(report: &mut FleetReport, net: &Network, e: &MeasureError) {
    if matches!(e, MeasureError::NoTarget) || !net.faults_enabled() {
        return;
    }
    match e.status() {
        MeasureStatus::Timeout => report.degraded.timeout += 1,
        _ => report.degraded.unreachable += 1,
    }
}

/// Build the fixed per-country endpoint pool every shard builds, timing
/// each public call.
fn build_pool(world: &mut World) -> (Vec<roam_geo::Country>, Vec<Slot>) {
    let countries = world.measured_countries();
    span("fleet.pool", || {
        let eps: Vec<[Endpoint; 2]> = countries
            .iter()
            .map(|&c| {
                span("world.attach", || {
                    [world.attach_esim(c), world.attach_esim(c)]
                })
            })
            .collect();
        let slots = eps
            .into_iter()
            .map(|endpoints| {
                let rtt_targets = [0, 1].map(|i| {
                    span("measure.nearest", || {
                        world.internet.targets.nearest(
                            &world.net,
                            Service::Google,
                            endpoints[i].att.breakout_city,
                        )
                    })
                });
                let dns_plans = [0, 1].map(|i| {
                    span("measure.resolver_plan", || {
                        ResolverPlan::new(&world.net, &endpoints[i], &world.internet.targets)
                    })
                });
                Slot {
                    endpoints,
                    rtt_targets,
                    dns_plans,
                }
            })
            .collect();
        (countries, slots)
    })
}

/// Encode `state`, decode it back, and count a mismatch when the
/// round trip does not reproduce the frame.
fn codec_round_trip(state: &ShardState) -> (Vec<u8>, bool) {
    let frame = span("codec.encode", || state.to_frame());
    let same = span("codec.decode", || {
        Frame::parse(&frame)
            .ok()
            .filter(|(f, _)| f.kind == KIND_SHARD)
            .and_then(|(f, _)| ShardState::decode_fields(&mut Decoder::new(f.payload)).ok())
            .is_some_and(|back| back.to_frame() == frame)
    });
    (frame, same)
}

/// Replay one shard. Must run with the fault schedule and transport
/// pinned (see [`Pins`]) and, for spans, with the recorder started.
///
/// # Errors
/// A checkpoint write failure.
pub fn replay_shard(r: &ShardReplay) -> std::io::Result<ReplayOut> {
    let started = Instant::now();
    let mut world = span("world.build", || World::build(r.seed));
    world.net.set_telemetry_mode(r.telemetry);
    let market = span("econ.market", || Market::generate(r.seed));
    let (countries, pool) = build_pool(&mut world);
    let offers = market.offers();
    let shelves: Vec<(Lane, Lane)> = span("econ.shelves", || {
        countries
            .iter()
            .map(|&c| {
                let on_shelf: Vec<usize> = (0..offers.len())
                    .filter(|&i| offers[i].country == c)
                    .collect();
                let airalo = Lane::build(
                    offers,
                    on_shelf
                        .iter()
                        .copied()
                        .filter(|&i| offers[i].provider == market.airalo()),
                );
                (airalo, Lane::build(offers, on_shelf.into_iter()))
            })
            .collect()
    });
    let transport = TransportKind::current().transport();
    let mut report = FleetReport::new(r.config.sample);
    let mut out = ReplayOut {
        report: FleetReport::new(r.config.sample),
        rtt_calls: 0,
        dns_calls: 0,
        observes: 0,
        ckpt_writes: 0,
        last_frame: Vec::new(),
        fault_drops: 0,
        fault_failovers: 0,
        codec_mismatches: 0,
        wall_s: 0.0,
    };
    let mut pending: Vec<TransferSpec> = Vec::new();
    let mut transfer_out: Vec<f64> = Vec::new();
    let mut days_acc = 0u64;
    let mut label = String::with_capacity(48);
    let observe = |sketch: &mut roam_stats::QuantileSketch, v: f64, n: &mut u64| {
        span("stats.observe", || sketch.observe(v));
        *n += 1;
    };
    for uid in r.lo..r.hi {
        let profile = span("fleet.synth", || {
            synthesize(r.seed, UserId(uid), &countries, r.config.days)
        });
        label.clear();
        let _ = write!(label, "fleet/act/{uid}");
        let mut act = SmallRng::seed_from_u64(flow_seed(r.seed, &label));
        report.count_user(profile.class);
        world.net.telemetry_mut().add(Counter::FleetUsers, 1);
        let mut spend_micro = 0u128;
        for (li, leg) in profile.legs.iter().enumerate() {
            let ci = countries
                .iter()
                .position(|&x| x == leg.country)
                .expect("legs only visit measured countries");
            let slot = &pool[ci];
            let prefer_airalo = act.gen_bool(0.6);
            let (airalo, all) = &shelves[ci];
            let pick = prefer_airalo
                .then(|| airalo.pick(profile.need_gb))
                .flatten()
                .or_else(|| all.pick(profile.need_gb))
                .expect("every measured country has offers");
            let offer = &offers[pick];
            let price = span("econ.purchase", || {
                market.price_on_day(offer, leg.arrival_day)
            });
            spend_micro += (price * 1e6).round() as u128;
            report.purchases += 1;
            observe(
                &mut report.price_per_gb,
                price / offer.data_gb,
                &mut out.observes,
            );
            world.net.telemetry_mut().add(Counter::FleetPurchases, 1);
            let which = (uid % 2) as usize;
            let ep = &slot.endpoints[which];
            let target = slot.rtt_targets[which];
            label.clear();
            let _ = write!(label, "fleet/u{uid}/l{li}/s");
            let prefix_len = label.len();
            for s in 0..leg.sessions {
                report.sessions += 1;
                world.net.telemetry_mut().add(Counter::FleetSessions, 1);
                label.truncate(prefix_len);
                let _ = write!(label, "{s}");
                match draw_kind(&mut act, r.config.mix) {
                    SessionKind::Rtt => {
                        let Some(t) = target else {
                            report.lost_sessions += 1;
                            continue;
                        };
                        out.rtt_calls += 1;
                        let res = span("measure.rtt", || {
                            ep.probe(&mut world.net, &label).rtt_checked(t)
                        });
                        match res {
                            Ok(sample) => {
                                report.rtt_probes += 1;
                                observe(&mut report.rtt_ms, sample.rtt_ms, &mut out.observes);
                                count_delivered(&mut report, &world.net, sample.status());
                            }
                            Err(e) => {
                                report.lost_sessions += 1;
                                count_failed(&mut report, &world.net, &e);
                            }
                        }
                    }
                    SessionKind::Dns => {
                        out.dns_calls += 1;
                        let res = span("measure.dns", || {
                            resolve_timing(&mut world.net, ep, &slot.dns_plans[which], &label)
                        });
                        match res {
                            Ok(t) => {
                                report.dns_lookups += 1;
                                observe(&mut report.dns_ms, t.lookup_ms, &mut out.observes);
                                count_delivered(&mut report, &world.net, t.status);
                            }
                            Err(e) => {
                                report.lost_sessions += 1;
                                count_failed(&mut report, &world.net, &e);
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
                        out.rtt_calls += 1;
                        let res = span("measure.rtt", || {
                            let mut probe = ep.probe(&mut world.net, &label);
                            probe
                                .rtt_checked(t)
                                .map(|sample| (sample, ep.channel.sample(probe.rng())))
                        });
                        let (sample, cqi) = match res {
                            Ok(x) => x,
                            Err(e) => {
                                report.lost_sessions += 1;
                                count_failed(&mut report, &world.net, &e);
                                continue;
                            }
                        };
                        world
                            .net
                            .telemetry_mut()
                            .add(Counter::TransferBytes, (mb * 1e6) as u64);
                        pending.push(TransferSpec {
                            bytes: mb * 1e6,
                            rtt_ms: sample.rtt_ms,
                            policy_rate_mbps: ep.effective_down_mbps(cqi),
                            loss: ep.loss,
                            setup_rtts: 1.0,
                            parallel: 1,
                        });
                        report.transfers += 1;
                        observe(&mut report.session_mb, mb, &mut out.observes);
                        count_delivered(&mut report, &world.net, sample.status());
                    }
                }
            }
        }
        if !pending.is_empty() {
            span("netsim.transfer", || {
                transport.transfer_ms_batch(&pending, &mut transfer_out);
            });
            std::hint::black_box(&transfer_out);
            pending.clear();
        }
        report.spend_micro_usd += spend_micro;
        label.clear();
        let _ = write!(label, "fleet/sample/{uid}");
        let key = flow_seed(r.seed, &label);
        span("stats.reservoir", || {
            report.journeys.offer(
                key,
                uid,
                JourneySample {
                    uid,
                    class: profile.class.label(),
                    legs: profile.legs.len() as u32,
                    first: profile.legs[0].country.alpha3(),
                    spend_micro_usd: spend_micro,
                },
            );
        });
        if let Some((index, dir, every)) = &r.checkpoint {
            days_acc += u64::from(r.config.days);
            if days_acc >= *every && uid + 1 < r.hi {
                days_acc = 0;
                let state = ShardState {
                    index: *index,
                    next_uid: uid + 1,
                    report: report.clone(),
                    telemetry: world.net.telemetry_mut().snapshot().clone(),
                };
                let (frame, same) = codec_round_trip(&state);
                out.codec_mismatches += u64::from(!same);
                span("fleet.ckpt_write", || {
                    write_atomic(&dir.join(shard_file(*index)), &frame)
                })?;
                out.ckpt_writes += 1;
                out.last_frame = frame;
            }
        }
    }
    if r.checkpoint.is_none() {
        // No cadence states: exercise the codec on the final state.
        let state = ShardState {
            index: 0,
            next_uid: r.hi,
            report: report.clone(),
            telemetry: world.net.telemetry_mut().snapshot().clone(),
        };
        let (frame, same) = codec_round_trip(&state);
        out.codec_mismatches += u64::from(!same);
        out.last_frame = frame;
    }
    out.fault_drops = world.net.fault_drops();
    out.fault_failovers = world.net.fault_failovers();
    let merged = span("fleet.merge", || {
        let mut m = FleetReport::new(r.config.sample);
        m.merge(&report);
        m
    });
    std::hint::black_box(span("fleet.render", || merged.render()));
    out.report = merged;
    out.wall_s = started.elapsed().as_secs_f64();
    Ok(out)
}

/// Nanoseconds per `probe` + `rtt_checked` over a fixed probe set (both
/// pool endpoints of every measured country, `per_endpoint` labels
/// each), on a world built under `faults` with telemetry `mode`. A first
/// round on other labels warms the route caches; the second is timed.
/// The same probes run in every configuration, so ratios between calls
/// isolate the fault plane and the telemetry recorder.
#[must_use]
pub fn probe_cost_ns(seed: u64, faults: FaultSpec, mode: TelemetryMode, per_endpoint: u32) -> f64 {
    let _pins = Pins::install(faults, TransportKind::ClosedForm);
    let mut world = World::build(seed);
    world.net.set_telemetry_mode(mode);
    let (_, pool) = build_pool(&mut world);
    let mut label = String::with_capacity(32);
    let mut timed_ns = 0.0;
    let mut probes = 0u64;
    for round in ["warm", "timed"] {
        let started = Instant::now();
        let mut n = 0u64;
        for (ci, slot) in pool.iter().enumerate() {
            for which in 0..2 {
                let Some(t) = slot.rtt_targets[which] else {
                    continue;
                };
                for i in 0..per_endpoint {
                    label.clear();
                    let _ = write!(label, "perfbench/{round}/{ci}/{which}/{i}");
                    let res = slot.endpoints[which]
                        .probe(&mut world.net, &label)
                        .rtt_checked(t);
                    std::hint::black_box(&res);
                    n += 1;
                }
            }
        }
        timed_ns = started.elapsed().as_nanos() as f64;
        probes = n;
    }
    timed_ns / probes.max(1) as f64
}
