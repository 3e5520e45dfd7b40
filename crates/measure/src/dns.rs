//! DNS resolution timing and resolver discovery (§5.1 "DNS Lookup Time").
//!
//! Behaviour by configuration, exactly as the paper reports it:
//!
//! * physical SIMs, native eSIMs and HR eSIMs resolve at **their operator's
//!   resolver** ("DNS resolution occurs locally within the b-MNO") over
//!   plain Do53 — MNO resolvers "mostly do not support DoH";
//! * IHBO eSIMs use **Google Public DNS** via anycast, which lands on a
//!   resolver near the *PGW* (74% same-country in the paper), and — because
//!   recent Android defaults it on and the authors "forgot" to disable it —
//!   pay the **DoH** TLS setup on top.
//!
//! The query itself round-trips a real RFC 1035 message through the wire
//! codec, so malformed-response bugs would surface here.

use crate::endpoint::Endpoint;
use crate::error::{MeasureError, MeasureStatus};
use crate::targets::ServiceTargets;
use rand::rngs::SmallRng;
use rand::Rng;
use roam_geo::City;
use roam_ipx::DnsMode;
use roam_netsim::wire::DnsMessage;
use roam_netsim::{Network, NodeId};
use std::net::Ipv4Addr;

/// Outcome of one resolver lookup.
#[derive(Debug, Clone)]
pub struct DnsResult {
    /// Total lookup time, ms.
    pub lookup_ms: f64,
    /// Echo attempts the resolver RTT phase consumed.
    pub attempts: u32,
    /// The resolver that answered.
    pub resolver: NodeId,
    /// Resolver's (unicast) address — what the NextDNS trick uncovers.
    pub resolver_ip: Ipv4Addr,
    /// Resolver's city.
    pub resolver_city: City,
    /// Was DoH used?
    pub doh: bool,
    /// The answer records.
    pub answers: Vec<Ipv4Addr>,
    /// How the lookup ended (ok, or ok-via-failover).
    pub status: MeasureStatus,
}

/// The precomputed resolver selection for one endpoint: which resolver(s)
/// its queries can land on, with the anycast pair already ordered by
/// distance. Everything in [`select_resolver`] except the per-lookup
/// anycast coin is a pure function of the topology and the endpoint's DNS
/// mode, so population-scale callers build one plan per endpoint and skip
/// the per-lookup clone-and-sort of the whole Google site list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolverPlan {
    choice: ResolverChoice,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResolverChoice {
    /// No resolver registered for this mode — every lookup is `NoTarget`.
    Unreachable,
    /// A single resolver; no draw is consumed picking it.
    Fixed(NodeId),
    /// Nearest and second-nearest anycast sites; each lookup draws the
    /// instability coin.
    Anycast(NodeId, NodeId),
}

impl ResolverPlan {
    /// Resolve the endpoint's DNS mode against the registry once.
    #[must_use]
    pub fn new(net: &Network, endpoint: &Endpoint, targets: &ServiceTargets) -> Self {
        let choice = match endpoint.att.dns {
            DnsMode::OperatorResolver => match targets.operator_dns(endpoint.att.b_mno) {
                Some(n) => ResolverChoice::Fixed(n),
                None => ResolverChoice::Unreachable,
            },
            DnsMode::GooglePublic { .. } => {
                let ordered = targets.google_dns_by_distance(net, endpoint.att.breakout_city);
                match ordered.len() {
                    0 => ResolverChoice::Unreachable,
                    1 => ResolverChoice::Fixed(ordered[0]),
                    _ => ResolverChoice::Anycast(ordered[0], ordered[1]),
                }
            }
        };
        ResolverPlan { choice }
    }

    /// The resolver one lookup lands on, drawing the anycast coin from the
    /// flow's stream exactly as [`select_resolver`] does.
    #[must_use]
    pub fn pick(&self, rng: &mut SmallRng) -> Option<NodeId> {
        match self.choice {
            ResolverChoice::Unreachable => None,
            ResolverChoice::Fixed(n) => Some(n),
            ResolverChoice::Anycast(near, next) => {
                Some(if rng.gen_bool(0.25) { next } else { near })
            }
        }
    }
}

/// Pick the resolver an endpoint's queries land on.
///
/// Anycast instability: with probability ~0.25 the query lands on the
/// *second*-nearest Google site instead of the nearest — reproducing the
/// paper's Dallas-PGW eSIM flipping between Fort Worth (20 km) and Tulsa
/// (380 km), and the overall "74% of queries in the same country as the
/// PGW".
pub fn select_resolver(
    net: &Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    rng: &mut SmallRng,
) -> Option<NodeId> {
    ResolverPlan::new(net, endpoint, targets).pick(rng)
}

/// Resolve `qname` from the endpoint as the flow named by `label`,
/// returning timing and resolver identity. `None` when no resolver is
/// reachable.
pub fn resolve(
    net: &mut Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    qname: &str,
    label: &str,
) -> Option<DnsResult> {
    resolve_checked(net, endpoint, targets, qname, label).ok()
}

/// [`resolve`] with typed failure semantics: a scenario without a
/// resolver is [`MeasureError::NoTarget`]; a blackholed or unreachable
/// resolver surfaces the probe's error.
///
/// # Errors
/// Propagates [`crate::endpoint::Probe::rtt_checked`] failures.
pub fn resolve_checked(
    net: &mut Network,
    endpoint: &Endpoint,
    targets: &ServiceTargets,
    qname: &str,
    label: &str,
) -> Result<DnsResult, MeasureError> {
    let mut probe = endpoint.probe(net, label);
    let resolver = {
        let (net_ref, flow) = probe.parts();
        select_resolver(net_ref, endpoint, targets, flow.rng()).ok_or(MeasureError::NoTarget)?
    };
    let sample = probe.rtt_checked(resolver)?;
    let rtt = sample.rtt_ms;

    let doh = matches!(endpoint.att.dns, DnsMode::GooglePublic { doh: true });
    let (query_id, answer_ip, lookup_ms) = draw_lookup_tail(probe.rng(), rtt, doh);

    // Encode the query and the response through the real codec.
    let query = DnsMessage::query(query_id, qname);
    let wire = query.encode();
    let parsed = DnsMessage::decode(&wire).expect("self-encoded query");
    let response = DnsMessage::response(&parsed, vec![answer_ip]);
    let decoded = DnsMessage::decode(&response.encode()).expect("self-encoded response");

    // Only two fields of the node are needed — copy them instead of
    // cloning the whole node (its name is a heap String) per lookup.
    let (resolver_ip, resolver_city) = {
        let (net_ref, _) = probe.parts();
        let n = net_ref.node(resolver);
        (n.ip, n.city)
    };
    Ok(DnsResult {
        lookup_ms,
        attempts: sample.attempts,
        resolver,
        resolver_ip,
        resolver_city,
        doh,
        answers: decoded.answers,
        status: sample.status(),
    })
}

/// The draws every lookup makes after its resolver RTT, in order: query
/// id, two answer octets, server think time, DoH setup coin. Shared by
/// the full and lean paths so their flow streams cannot drift.
#[inline]
fn draw_lookup_tail(rng: &mut SmallRng, rtt: f64, doh: bool) -> (u16, Ipv4Addr, f64) {
    let query_id: u16 = rng.gen();
    let answer_ip = Ipv4Addr::new(93, 184, rng.gen(), rng.gen::<u8>().max(1));
    // Server-side resolution work (cache fill, upstream fetch) 2–9 ms.
    let server_ms = 2.0 + rng.gen::<f64>() * 7.0;
    // DoH: TCP + TLS1.3 handshake (2 RTTs) before the query can go out —
    // but Android keeps the DoH connection warm, so only a fraction of
    // lookups pay the full setup; warm queries pay record-layer overhead.
    let doh_ms = if doh {
        if rng.gen_bool(0.4) {
            2.0 * rtt + 4.0
        } else {
            4.0
        }
    } else {
        0.0
    };
    (query_id, answer_ip, rtt + server_ms + doh_ms)
}

/// What the lean resolve path reports: the timing observables and nothing
/// that needs a node lookup or an allocation.
#[derive(Debug, Clone, Copy)]
pub struct DnsTiming {
    /// Total lookup time, ms — identical to [`DnsResult::lookup_ms`].
    pub lookup_ms: f64,
    /// Echo attempts the resolver RTT phase consumed.
    pub attempts: u32,
    /// How the lookup ended (ok, or ok-via-failover).
    pub status: MeasureStatus,
}

/// The population-scale resolve path: a precomputed [`ResolverPlan`], a
/// `format_args!` label, and no wire-codec round trip (the query/response
/// encoding is pure ceremony when nobody reads the answer records — the
/// lean path draws the *same* query-id and answer octets so the flow's
/// RNG stream, and therefore `lookup_ms`, is bit-identical to
/// [`resolve_checked`] with the same label).
///
/// # Errors
/// Exactly [`resolve_checked`]'s: `NoTarget` without a resolver,
/// otherwise the probe's failure.
pub fn resolve_timing_args(
    net: &mut Network,
    endpoint: &Endpoint,
    plan: &ResolverPlan,
    label: std::fmt::Arguments<'_>,
) -> Result<DnsTiming, MeasureError> {
    let probe = endpoint.probe_args(net, label);
    resolve_timing_probe(probe, endpoint, plan)
}

/// [`resolve_timing_args`] with a plain `&str` label — for callers that
/// already hold the label bytes (hashing them skips the `fmt` machinery
/// entirely).
///
/// # Errors
/// Exactly [`resolve_checked`]'s.
pub fn resolve_timing(
    net: &mut Network,
    endpoint: &Endpoint,
    plan: &ResolverPlan,
    label: &str,
) -> Result<DnsTiming, MeasureError> {
    let probe = endpoint.probe(net, label);
    resolve_timing_probe(probe, endpoint, plan)
}

fn resolve_timing_probe(
    mut probe: crate::endpoint::Probe<'_>,
    endpoint: &Endpoint,
    plan: &ResolverPlan,
) -> Result<DnsTiming, MeasureError> {
    let resolver = plan.pick(probe.rng()).ok_or(MeasureError::NoTarget)?;
    let sample = probe.rtt_checked(resolver)?;
    let doh = matches!(endpoint.att.dns, DnsMode::GooglePublic { doh: true });
    let (_, _, lookup_ms) = draw_lookup_tail(probe.rng(), sample.rtt_ms, doh);
    Ok(DnsTiming {
        lookup_ms,
        attempts: sample.attempts,
        status: sample.status(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_cellular::{ChannelSampler, MnoId, Rat, SimType};
    use roam_geo::Country;
    use roam_ipx::{Attachment, PgwProviderId, RoamingArch};
    use roam_netsim::link::{LatencyModel, LinkClass};
    use roam_netsim::NodeKind;

    /// Build: ue —(20ms)— cgnat(AMS) —— resolvers in AMS + SGP.
    fn world(dns: DnsMode) -> (Network, Endpoint, ServiceTargets) {
        let mut net = Network::new(5);
        let ue = net.add_node(
            "ue",
            NodeKind::Host,
            City::Berlin,
            "10.0.0.2".parse().unwrap(),
        );
        let nat = net.add_node(
            "nat",
            NodeKind::CgNat,
            City::Amsterdam,
            "147.75.81.1".parse().unwrap(),
        );
        net.link_with(
            ue,
            nat,
            LinkClass::Tunnel,
            LatencyModel::fixed(20.0, 0.0),
            0.0,
        );
        let dns_ams = net.add_node(
            "gdns-ams",
            NodeKind::DnsResolver,
            City::Amsterdam,
            "8.8.8.10".parse().unwrap(),
        );
        let dns_sgp = net.add_node(
            "gdns-sgp",
            NodeKind::DnsResolver,
            City::Singapore,
            "8.8.8.20".parse().unwrap(),
        );
        let op_dns = net.add_node(
            "op-dns",
            NodeKind::DnsResolver,
            City::Amsterdam,
            "165.21.83.88".parse().unwrap(),
        );
        net.link_with(
            nat,
            dns_ams,
            LinkClass::Metro,
            LatencyModel::fixed(1.0, 0.0),
            0.0,
        );
        net.link_with(
            nat,
            dns_sgp,
            LinkClass::Backbone,
            LatencyModel::fixed(80.0, 0.0),
            0.0,
        );
        net.link_with(
            nat,
            op_dns,
            LinkClass::Metro,
            LatencyModel::fixed(1.0, 0.0),
            0.0,
        );
        let mut targets = ServiceTargets::new();
        targets.add_google_dns(dns_ams);
        targets.add_google_dns(dns_sgp);
        targets.set_operator_dns(MnoId(1), op_dns);
        let endpoint = Endpoint {
            att: Attachment {
                ue,
                ran: ue,
                sgw: ue,
                cgnat: nat,
                public_ip: "147.75.81.1".parse().unwrap(),
                arch: RoamingArch::IpxHubBreakout,
                provider: PgwProviderId(0),
                breakout_city: City::Amsterdam,
                tunnel_km: 600.0,
                dns,
                teid: 1,
                v_mno: MnoId(0),
                b_mno: MnoId(1),
                rat: Rat::Lte,
                private_hops: 3,
                flow_stamp: 0xD45,
            },
            sim_type: SimType::Esim,
            country: Country::DEU,
            label: "test".into(),
            policy_down_mbps: 10.0,
            policy_up_mbps: 5.0,
            youtube_cap_mbps: None,
            loss: 0.0,
            channel: ChannelSampler::default(),
        };
        (net, endpoint, targets)
    }

    #[test]
    fn ihbo_uses_google_resolver_near_pgw() {
        let (mut net, ep, targets) = world(DnsMode::GooglePublic { doh: false });
        let mut ams = 0;
        let mut sgp = 0;
        for i in 0..200 {
            let r = resolve(&mut net, &ep, &targets, "google.com", &format!("d/{i}")).unwrap();
            match r.resolver_city {
                City::Amsterdam => ams += 1,
                City::Singapore => sgp += 1,
                other => panic!("unexpected resolver in {other}"),
            }
        }
        // ~75% nearest, ~25% anycast flip.
        assert!(ams > 120 && sgp > 20, "ams={ams} sgp={sgp}");
    }

    #[test]
    fn operator_mode_uses_bmno_resolver() {
        let (mut net, ep, targets) = world(DnsMode::OperatorResolver);
        let r = resolve(&mut net, &ep, &targets, "google.com", "d/0").unwrap();
        assert_eq!(r.resolver_ip, "165.21.83.88".parse::<Ipv4Addr>().unwrap());
        assert!(!r.doh, "operator resolvers do not speak DoH");
        assert_eq!(r.attempts, 1, "lossless resolver path needs one echo");
    }

    #[test]
    fn doh_costs_extra_round_trips() {
        let (mut net, ep_doh, targets) = world(DnsMode::GooglePublic { doh: true });
        let mut doh_times = vec![];
        let mut plain_times = vec![];
        for i in 0..50 {
            let r = resolve(&mut net, &ep_doh, &targets, "x.com", &format!("doh/{i}")).unwrap();
            if r.resolver_city == City::Amsterdam {
                doh_times.push(r.lookup_ms);
            }
        }
        let (mut net2, ep_plain, targets2) = world(DnsMode::GooglePublic { doh: false });
        for i in 0..50 {
            let r = resolve(&mut net2, &ep_plain, &targets2, "x.com", &format!("p/{i}")).unwrap();
            if r.resolver_city == City::Amsterdam {
                plain_times.push(r.lookup_ms);
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // Cold DoH setups (≈40% of lookups) average out to a clear penalty
        // over a 20 ms resolver path.
        assert!(
            avg(&doh_times) > avg(&plain_times) + 12.0,
            "DoH {:.1} vs Do53 {:.1}",
            avg(&doh_times),
            avg(&plain_times)
        );
    }

    #[test]
    fn answers_survive_the_wire_codec() {
        let (mut net, ep, targets) = world(DnsMode::GooglePublic { doh: false });
        let r = resolve(&mut net, &ep, &targets, "cdn.example.org", "d/0").unwrap();
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn missing_resolver_returns_none() {
        let (mut net, ep, _) = world(DnsMode::OperatorResolver);
        let empty = ServiceTargets::new();
        assert!(resolve(&mut net, &ep, &empty, "x.com", "d/0").is_none());
    }

    #[test]
    fn lean_path_matches_full_resolve_bit_for_bit() {
        for dns in [
            DnsMode::OperatorResolver,
            DnsMode::GooglePublic { doh: false },
            DnsMode::GooglePublic { doh: true },
        ] {
            let (mut net, ep, targets) = world(dns);
            let plan = ResolverPlan::new(&net, &ep, &targets);
            for i in 0..100 {
                let full = resolve_checked(
                    &mut net,
                    &ep,
                    &targets,
                    "fleet.airalo.com",
                    &format!("eq/{i}"),
                )
                .unwrap();
                let lean =
                    resolve_timing_args(&mut net, &ep, &plan, format_args!("eq/{i}")).unwrap();
                assert_eq!(
                    full.lookup_ms.to_bits(),
                    lean.lookup_ms.to_bits(),
                    "{dns:?} lookup {i} diverged: {} vs {}",
                    full.lookup_ms,
                    lean.lookup_ms
                );
                assert_eq!(full.attempts, lean.attempts);
                assert_eq!(full.status, lean.status);
            }
        }
    }

    #[test]
    fn lean_path_reports_missing_resolver_as_no_target() {
        let (mut net, ep, _) = world(DnsMode::OperatorResolver);
        let empty = ServiceTargets::new();
        let plan = ResolverPlan::new(&net, &ep, &empty);
        assert!(matches!(
            resolve_timing_args(&mut net, &ep, &plan, format_args!("d/0")),
            Err(MeasureError::NoTarget)
        ));
    }
}
