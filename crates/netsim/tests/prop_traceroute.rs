//! Oracle for the arithmetic TTL sweep.
//!
//! With the packet story off, both legs of every traceroute probe take
//! the arithmetic walk: the forward leg stops where the probe's TTL runs
//! out and books a TTL expiry instead of a delivery, and the answer walks
//! back from the responder. With the packet story on, the same sweep
//! encodes real echo and ICMP answer packets and walks them through the
//! event calendar, decrementing the TTL in the bytes. The two must be
//! indistinguishable: same hops, responders, RTT bits and `reached`,
//! same fault-plane tallies, and the same telemetry snapshot down to
//! every counter, histogram bucket and the exact bits of every histogram
//! sum — on random chains with ICMP-silent middle nodes, random TTL
//! limits (including ones shorter than the path), random probe counts,
//! every fault preset plus random specs, with and without failovers, and
//! every telemetry mode.

use proptest::prelude::*;
use roam_geo::City;
use roam_netsim::link::{LatencyModel, LinkClass};
use roam_netsim::{FaultSpec, Flow, Network, NodeId, NodeKind, SimTime, TracerouteOpts};
use roam_telemetry::{TelemetryMode, TelemetrySnapshot};

/// One random chain topology and sweep schedule.
#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    /// Kinds of the nodes between the source host and the far edge, and
    /// whether each answers ICMP.
    middle: Vec<(NodeKind, bool)>,
    /// Per link: base delay ms, jitter ms, spike probability, loss.
    links: Vec<(f64, f64, f64, f64)>,
    faults: FaultSpec,
    failover: bool,
    /// `(from, to, flow seed, max_ttl, probes_per_hop)`; node indices
    /// wrap modulo the chain.
    sweeps: Vec<(usize, usize, u64, u8, u32)>,
    mode: TelemetryMode,
}

fn node_kind() -> impl Strategy<Value = NodeKind> {
    prop_oneof![
        Just(NodeKind::Router),
        Just(NodeKind::CgNat),
        Just(NodeKind::DnsResolver),
        Just(NodeKind::SpEdge),
    ]
}

/// A middle node's kind, ICMP-silent one time in four.
fn middle_node() -> impl Strategy<Value = (NodeKind, bool)> {
    (node_kind(), 0u8..4).prop_map(|(kind, r)| (kind, r != 0))
}

/// `off`, the presets, or a random spec that goes through the same
/// parser `ROAM_FAULTS` uses.
fn fault_spec() -> impl Strategy<Value = FaultSpec> {
    let custom = (
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        (0.0f64..1.0, 0.0f64..1.0),
        (20.0f64..600.0, 20.0f64..600.0, 50.0f64..5_000.0),
    )
        .prop_map(
            |((flap, burst, outage), (dns, rebind), (up, dark, period))| {
                let text = format!(
                    "flap={flap:.3},burst={burst:.3},outage={outage:.3},dns={dns:.3},\
                 rebind={rebind:.3},outage_up_ms={up:.1},outage_dark_ms={dark:.1},\
                 rebind_up_ms={up:.1},rebind_dark_ms={dark:.1},period_ms={period:.1}"
                );
                FaultSpec::parse(&text).expect("generated spec parses")
            },
        );
    prop_oneof![
        Just(FaultSpec::off()),
        Just(FaultSpec::light()),
        Just(FaultSpec::heavy()),
        custom,
    ]
}

fn case() -> impl Strategy<Value = Case> {
    let topology = (
        any::<u64>(),
        proptest::collection::vec(middle_node(), 1..8),
        proptest::collection::vec((1.0f64..80.0, 0.0f64..6.0, 0.0f64..0.2, 0.0f64..0.25), 9),
    );
    (
        topology,
        fault_spec(),
        any::<bool>(),
        proptest::collection::vec(
            (0usize..16, 0usize..16, any::<u64>(), 1u8..14, 1u32..4),
            1..24,
        ),
        prop_oneof![
            Just(TelemetryMode::Off),
            Just(TelemetryMode::Summary),
            Just(TelemetryMode::Jsonl),
        ],
    )
        .prop_map(
            |((seed, middle, links), faults, failover, sweeps, mode)| Case {
                seed,
                middle,
                links,
                faults,
                failover,
                sweeps,
                mode,
            },
        )
}

/// Build the chain `ue – middle… – edge`, run every sweep with
/// `traceroute_flow`, and return what an observer can see.
fn run(case: &Case, trace_packets: bool) -> (Vec<String>, TelemetrySnapshot, u64, u64) {
    let mut net = Network::new(case.seed);
    let mut nodes: Vec<NodeId> = Vec::new();
    let kinds = std::iter::once((NodeKind::Host, true))
        .chain(case.middle.iter().copied())
        .chain(std::iter::once((NodeKind::SpEdge, true)));
    for (i, (kind, responds)) in kinds.enumerate() {
        let city = City::ALL[i % City::ALL.len()];
        let ip = format!("10.9.{i}.1").parse().unwrap();
        let id = net.add_node(&format!("n{i}"), kind, city, ip);
        net.set_icmp_responds(id, responds);
        nodes.push(id);
    }
    for (i, pair) in nodes.windows(2).enumerate() {
        let (base, jitter, spike, loss) = case.links[i];
        let latency = LatencyModel::fixed(base, jitter).with_spikes(spike, 30.0);
        net.link_with(pair[0], pair[1], LinkClass::Backbone, latency, loss);
    }
    net.set_faults(case.faults);
    if case.failover {
        for (i, &n) in nodes.iter().enumerate() {
            if net.node(n).kind == NodeKind::CgNat {
                net.set_failover(n, SimTime::from_ms(4.0 + i as f64));
            }
        }
    }
    net.set_telemetry_mode(case.mode);
    if trace_packets {
        net.enable_tracing();
    }
    let outcomes = case
        .sweeps
        .iter()
        .map(|&(a, b, key, max_ttl, probes_per_hop)| {
            let (src, dst) = (nodes[a % nodes.len()], nodes[b % nodes.len()]);
            let opts = TracerouteOpts {
                max_ttl,
                probes_per_hop,
            };
            let tr = net.traceroute_flow(src, dst, opts, &mut Flow::open(key));
            let hops: Vec<String> = tr
                .hops
                .iter()
                .map(|h| {
                    let rtts: Vec<String> = h
                        .rtts
                        .iter()
                        .map(|r| format!("{:016x}", r.to_bits()))
                        .collect();
                    format!("{}:{:?}:{:?}:[{}]", h.ttl, h.node, h.ip, rtts.join(","))
                })
                .collect();
            format!("reached={} {}", tr.reached, hops.join(" "))
        })
        .collect();
    (
        outcomes,
        net.take_telemetry(),
        net.fault_drops(),
        net.fault_failovers(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arithmetic_sweep_matches_the_packet_sweep(case in case()) {
        let (fast_out, fast_snap, fast_drops, fast_failovers) = run(&case, false);
        let (slow_out, slow_snap, slow_drops, slow_failovers) = run(&case, true);
        prop_assert_eq!(&fast_out, &slow_out, "sweeps diverged: {:?}", case);
        prop_assert_eq!(
            (fast_drops, fast_failovers),
            (slow_drops, slow_failovers),
            "fault tallies diverged: {:?}",
            case
        );
        prop_assert_eq!(fast_snap.counters, slow_snap.counters, "counters: {:?}", case);
        prop_assert_eq!(fast_snap.hists.len(), slow_snap.hists.len());
        for (f, s) in fast_snap.hists.iter().zip(&slow_snap.hists) {
            prop_assert_eq!(f.series(), s.series());
            prop_assert_eq!(f.buckets(), s.buckets(), "{:?} buckets", f.series());
            prop_assert_eq!(f.count(), s.count());
            prop_assert_eq!(f.sum().to_bits(), s.sum().to_bits(), "{:?} sum", f.series());
        }
        prop_assert_eq!(fast_snap.events, slow_snap.events);
    }
}
