//! A cloned network is an exact, independent copy of the original.
//!
//! The fleet plane sets a run's world up once and hands every shard a
//! clone of the post-setup network, so a clone must walk every later
//! probe exactly as a fresh rebuild driven through the same calls would:
//! same network RNG state, same warm route cache, same lazily filled
//! fault calendars, same telemetry accumulated so far. These tests warm a
//! network under the heavy fault schedule with observed telemetry, then
//! run one probe script on the original, on its clone and on a rebuild,
//! and compare RTT bits, fault tallies and telemetry bytes.

use roam_geo::City;
use roam_netsim::engine::flow_seed;
use roam_netsim::link::{LatencyModel, LinkClass};
use roam_netsim::{
    FaultSpec, Flow, Network, NodeId, NodeKind, ProbeError, SimTime, TracerouteOpts,
};
use roam_telemetry::{TelemetryMode, TelemetryReport};

/// The probe endpoints of the test topology.
struct Nodes {
    ue: NodeId,
    nat: NodeId,
    dns: NodeId,
    edge: NodeId,
}

/// `ue – nat – core – {edge, dns}` with lossy links and a failover
/// detour on the CG-NAT, under heavy faults and `mode`.
fn topology(seed: u64, mode: TelemetryMode) -> (Network, Nodes) {
    let mut net = Network::new(seed);
    net.set_faults(FaultSpec::heavy());
    net.set_telemetry_mode(mode);
    let ue = net.add_node(
        "ue",
        NodeKind::Host,
        City::Doha,
        "10.0.0.2".parse().unwrap(),
    );
    let nat = net.add_node(
        "nat",
        NodeKind::CgNat,
        City::Lille,
        "141.95.2.2".parse().unwrap(),
    );
    let core = net.add_node(
        "core",
        NodeKind::Router,
        City::Paris,
        "141.95.9.1".parse().unwrap(),
    );
    let edge = net.add_node(
        "edge",
        NodeKind::SpEdge,
        City::Paris,
        "142.250.3.3".parse().unwrap(),
    );
    let dns = net.add_node(
        "dns",
        NodeKind::DnsResolver,
        City::Frankfurt,
        "8.8.8.8".parse().unwrap(),
    );
    let tunnel = LatencyModel::fixed(45.0, 2.0).with_spikes(0.05, 30.0);
    net.link_with(ue, nat, LinkClass::Tunnel, tunnel, 0.02);
    net.link_with(
        nat,
        core,
        LinkClass::Backbone,
        LatencyModel::fixed(3.0, 0.4),
        0.01,
    );
    net.link_with(
        core,
        edge,
        LinkClass::Peering,
        LatencyModel::fixed(1.0, 0.2),
        0.0,
    );
    net.link_with(
        core,
        dns,
        LinkClass::Peering,
        LatencyModel::fixed(6.0, 0.8),
        0.01,
    );
    net.set_failover(nat, SimTime::from_ms(11.0));
    (net, Nodes { ue, nat, dns, edge })
}

/// [`topology`], warmed up: routes resolved, fault calendars filled by
/// probes, one traced walk on the network's shared RNG.
fn warmed(seed: u64, mode: TelemetryMode) -> (Network, Nodes) {
    let (mut net, n) = topology(seed, mode);
    for (a, b) in [(n.ue, n.edge), (n.ue, n.dns), (n.edge, n.ue), (n.dns, n.ue)] {
        net.route(a, b);
    }
    let mut flow = Flow::open(flow_seed(seed, "clone/warmup"));
    for _ in 0..24 {
        let _ = net.rtt_probe_checked(n.ue, n.edge, &mut flow);
        let _ = net.rtt_probe_checked(n.ue, n.dns, &mut flow);
    }
    net.enable_tracing();
    let _ = net.ping(n.ue, n.edge);
    let _ = net.take_trace();
    net.disable_tracing();
    (net, n)
}

/// One fixed probe script: keyed-flow probes, shared-RNG probes and a
/// traceroute, rendered with RTT bits, then the fault tallies.
fn script(net: &mut Network, n: &Nodes, seed: u64) -> Vec<String> {
    let render = |r: Result<roam_netsim::RttSample, ProbeError>| match r {
        Ok(s) => format!("ok:{:016x}:{}", s.rtt_ms.to_bits(), s.attempts),
        Err(e) => format!("{e:?}"),
    };
    let mut out = Vec::new();
    let mut flow = Flow::open(flow_seed(seed, "clone/script"));
    for i in 0..64 {
        let dst = if i % 3 == 0 { n.dns } else { n.edge };
        out.push(render(net.rtt_probe_checked(n.ue, dst, &mut flow)));
        out.push(format!("{:?}", net.rtt_ms(n.ue, dst).map(f64::to_bits)));
    }
    let trace = net.traceroute_flow(n.ue, n.edge, TracerouteOpts::default(), &mut flow);
    for hop in &trace.hops {
        let rtts: Vec<u64> = hop.rtts.iter().map(|r| r.to_bits()).collect();
        out.push(format!("hop {} {:?} {rtts:?}", hop.ttl, hop.ip));
    }
    out.push(format!(
        "nat rtt {:?}",
        net.rtt_ms(n.ue, n.nat).map(f64::to_bits)
    ));
    out.push(format!(
        "drops={} failovers={}",
        net.fault_drops(),
        net.fault_failovers()
    ));
    out
}

/// The network's telemetry so far, rendered the way a run emits it.
fn telemetry_bytes(net: &mut Network, mode: TelemetryMode) -> String {
    let mut report = TelemetryReport::new(mode);
    report.absorb(net.take_telemetry());
    report.render()
}

#[test]
fn clone_of_a_warmed_network_equals_a_rebuild() {
    let mut perturbed = false;
    for mode in [TelemetryMode::Summary, TelemetryMode::Jsonl] {
        for seed in [3u64, 17, 4242, 0x00C0_FFEE] {
            let (mut original, nodes) = warmed(seed, mode);
            let mut clone = original.clone();
            let (mut rebuilt, _) = warmed(seed, mode);
            assert_eq!(clone.telemetry().snapshot(), rebuilt.telemetry().snapshot());

            // The clone runs first: were any mutable state shared, the
            // original's run below would see the clone's side effects.
            let from_clone = script(&mut clone, &nodes, seed);
            let from_original = script(&mut original, &nodes, seed);
            let from_rebuild = script(&mut rebuilt, &nodes, seed);
            assert_eq!(from_clone, from_rebuild, "{mode:?} seed {seed}");
            assert_eq!(from_original, from_rebuild, "{mode:?} seed {seed}");

            let tel = telemetry_bytes(&mut rebuilt, mode);
            assert!(
                tel.contains("packets_sent"),
                "{mode:?}: telemetry recorded nothing"
            );
            assert_eq!(
                telemetry_bytes(&mut clone, mode),
                tel,
                "{mode:?} seed {seed}"
            );
            assert_eq!(
                telemetry_bytes(&mut original, mode),
                tel,
                "{mode:?} seed {seed}"
            );
            perturbed |= clone.fault_drops() > 0 || clone.fault_failovers() > 0;
        }
    }
    assert!(perturbed, "heavy schedule never perturbed any probe");
}

#[test]
fn probe_script_depends_on_the_warm_up() {
    // Guard against a vacuous pass: a clone that silently dropped the
    // warm state would behave like a cold network, and the script tells
    // the two apart.
    let (mut cold, nodes) = topology(17, TelemetryMode::Summary);
    let (warm, _) = warmed(17, TelemetryMode::Summary);
    assert_ne!(
        script(&mut cold, &nodes, 17),
        script(&mut warm.clone(), &nodes, 17)
    );
}
