//! The network graph and its packet-walking engine.
//!
//! A [`Network`] is a set of nodes (hosts, routers, CG-NATs, service-provider
//! edges, DNS servers) joined by [`Link`]s. Probes are real encoded packets:
//! the traceroute engine builds an IPv4+ICMP echo, and every router on the
//! way decrements the TTL *in the encoded bytes* (recomputing the checksum),
//! exactly as `mtr` would experience it. When the TTL expires the router
//! answers with an ICMP time-exceeded quoting the offending header, and the
//! probe's RTT is the event-queue timestamp difference — jitter, loss and
//! unresponsive hops included.

use crate::engine::{Flow, TransportKind};
use crate::event::EventQueue;
use crate::faults::{FaultPlane, FaultSpec, NodeFaultState};
use crate::ip::is_private;
use crate::link::{LatencyModel, Link, LinkClass};
use crate::registry::IpRegistry;
use crate::time::SimTime;
use crate::wire::{IcmpMessage, IpProto, Ipv4Header};
use bytes::{BufMut, Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roam_geo::City;
use roam_telemetry::{Counter, Hist, Recorder, Sink, TelemetryMode, TelemetrySnapshot};
use std::collections::{BinaryHeap, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Identifier of a node in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// What role a node plays. The kind does not change forwarding behaviour —
/// it exists so scenario builders and reports can reason about topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host (measurement endpoint / UE).
    Host,
    /// A forwarding router.
    Router,
    /// Carrier-grade NAT: owns the public address the outside world sees.
    CgNat,
    /// A service-provider edge (Google, Facebook, CDN, speedtest server).
    SpEdge,
    /// A DNS resolver.
    DnsResolver,
}

/// A node in the network.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable name (shows up in traces and error messages).
    pub name: String,
    /// Role of the node.
    pub kind: NodeKind,
    /// Where the node physically sits.
    pub city: City,
    /// The node's address (private hops carry RFC1918/RFC6598 space).
    pub ip: Ipv4Addr,
    /// Whether the node answers ICMP (time-exceeded / echo). The paper sees
    /// silent hops where "the PGW provider's CG-NAT fails to respond
    /// within the traceroute timeout" (§4.3.3); scenario builders set this
    /// to false to reproduce that.
    pub icmp_responds: bool,
}

/// Result of a ping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingResult {
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
}

/// Why a probe failed, as the network saw it. The measurement layer maps
/// these onto its typed `MeasureError` so failed rows carry a cause
/// instead of a silent gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeError {
    /// No route exists between the endpoints.
    NoRoute,
    /// The destination never answers ICMP (silent host) — retrying is
    /// pointless.
    Silent,
    /// The probe (or its reply) was lost on every retry.
    Lost,
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::NoRoute => write!(f, "no route"),
            ProbeError::Silent => write!(f, "destination is ICMP-silent"),
            ProbeError::Lost => write!(f, "probe lost after every retry"),
        }
    }
}

/// An RTT measurement with its probe cost: how many echo attempts the
/// client needed before one round trip survived. Probe loss is data — the
/// campaign CSVs report it rather than silently absorbing retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttSample {
    /// Round-trip time of the successful echo, milliseconds.
    pub rtt_ms: f64,
    /// Echo attempts consumed, including the successful one (1..=3).
    pub attempts: u32,
}

/// One TTL step of a traceroute.
#[derive(Debug, Clone)]
pub struct TraceHop {
    /// The TTL this row corresponds to (1-based).
    pub ttl: u8,
    /// Responding node, when any probe got an answer.
    pub node: Option<NodeId>,
    /// Responding address (as reported in the ICMP source).
    pub ip: Option<Ipv4Addr>,
    /// RTTs of the probes that were answered, in ms.
    pub rtts: Vec<f64>,
}

impl TraceHop {
    /// Best (minimum) RTT across probes — the value `mtr` reports as "Best"
    /// and the one the paper uses for PGW RTT CDFs (Figs. 8–9).
    #[must_use]
    pub fn best_rtt(&self) -> Option<f64> {
        self.rtts.iter().copied().min_by(|a, b| a.total_cmp(b))
    }

    /// Mean RTT across answered probes — unlike [`TraceHop::best_rtt`],
    /// this keeps transient congestion in view, which matters when judging
    /// how much of the end-to-end latency the public path contributes.
    #[must_use]
    pub fn avg_rtt(&self) -> Option<f64> {
        if self.rtts.is_empty() {
            None
        } else {
            Some(self.rtts.iter().sum::<f64>() / self.rtts.len() as f64)
        }
    }

    /// Did any probe at this TTL get an answer?
    #[must_use]
    pub fn responded(&self) -> bool {
        self.ip.is_some()
    }
}

/// A full traceroute.
#[derive(Debug, Clone)]
pub struct Traceroute {
    /// Hops in TTL order, one entry per TTL probed.
    pub hops: Vec<TraceHop>,
    /// True when the destination itself answered.
    pub reached: bool,
}

impl Traceroute {
    /// The responding IPs in order (unresponsive hops skipped).
    #[must_use]
    pub fn hop_ips(&self) -> Vec<Ipv4Addr> {
        self.hops.iter().filter_map(|h| h.ip).collect()
    }

    /// Index (into `hops`) of the first hop that answered with a public IP —
    /// the paper's private/public demarcation point (§4.3).
    #[must_use]
    pub fn first_public_hop(&self) -> Option<usize> {
        self.hops
            .iter()
            .position(|h| h.ip.is_some_and(|ip| !is_private(ip)))
    }

    /// Best RTT at the final responding hop, ms.
    #[must_use]
    pub fn final_rtt(&self) -> Option<f64> {
        self.hops.iter().rev().find_map(|h| h.best_rtt())
    }

    /// Mean RTT at the final responding hop, ms.
    #[must_use]
    pub fn final_avg_rtt(&self) -> Option<f64> {
        self.hops.iter().rev().find_map(|h| h.avg_rtt())
    }
}

/// Options controlling a traceroute run.
#[derive(Debug, Clone, Copy)]
pub struct TracerouteOpts {
    /// Maximum TTL to probe.
    pub max_ttl: u8,
    /// Probes per TTL (mtr default is 3… we follow).
    pub probes_per_hop: u32,
}

impl Default for TracerouteOpts {
    fn default() -> Self {
        TracerouteOpts {
            max_ttl: 30,
            probes_per_hop: 3,
        }
    }
}

/// An immutable resolved route: the node sequence plus, for every
/// consecutive pair, the index of the link a packet traverses. Shared
/// behind an [`Arc`] so cache hits and probe loops never copy the path.
#[derive(Debug)]
struct RouteEntry {
    nodes: Vec<NodeId>,
    /// `hop_links[i]` joins `nodes[i]` and `nodes[i + 1]` (the
    /// lowest-latency link when parallel links exist).
    hop_links: Vec<u32>,
    /// Dense per-hop walk state baked at route-build time.
    plan: WalkPlan,
}

impl PartialEq for RouteEntry {
    fn eq(&self, other: &Self) -> bool {
        // The plan is derived from (nodes, hop_links) and the link table,
        // so identity is fully captured by the path itself.
        self.nodes == other.nodes && self.hop_links == other.hop_links
    }
}
impl Eq for RouteEntry {}

/// The packet walk's hot state in structure-of-arrays form, baked once per
/// cached route: the walk loop is index-chasing over these dense arrays
/// instead of pointer-hopping through [`Link`]/[`Node`] structs. Entries
/// `[i]` describe the link joining path positions `i` and `i + 1`
/// (`fault_kind` is per *node*, so it has one more element). Any mutation
/// that can invalidate a plan (new links, [`Network::set_link_loss`])
/// clears the route cache.
#[derive(Debug)]
struct WalkPlan {
    /// Per-hop deterministic delay, ms.
    base_ms: Vec<f64>,
    /// Per-hop jitter bound, ms.
    jitter_ms: Vec<f64>,
    /// Per-hop congestion-spike probability.
    spike_prob: Vec<f64>,
    /// Per-hop spike magnitude bound, ms.
    spike_ms: Vec<f64>,
    /// Per-hop base loss probability.
    loss: Vec<f64>,
    /// Per-node fault classification along the path (see [`FaultClass`]).
    fault_kind: Vec<FaultClass>,
}

/// How the fault plane treats a node on the walk path — precomputed so the
/// hot loop matches on a byte instead of re-deriving it from [`NodeKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    /// No fault calendar applies.
    Plain,
    /// CG-NAT: rebind/outage calendars with possible failover.
    CgNat,
    /// DNS resolver: blackhole calendar.
    Dns,
}

impl WalkPlan {
    fn build(nodes: &[NodeId], hop_links: &[u32], links: &[Link], all: &[Node]) -> Self {
        let mut plan = WalkPlan {
            base_ms: Vec::with_capacity(hop_links.len()),
            jitter_ms: Vec::with_capacity(hop_links.len()),
            spike_prob: Vec::with_capacity(hop_links.len()),
            spike_ms: Vec::with_capacity(hop_links.len()),
            loss: Vec::with_capacity(hop_links.len()),
            fault_kind: Vec::with_capacity(nodes.len()),
        };
        for &li in hop_links {
            let link = &links[li as usize];
            plan.base_ms.push(link.latency.base_ms);
            plan.jitter_ms.push(link.latency.jitter_ms);
            plan.spike_prob.push(link.latency.spike_prob);
            plan.spike_ms.push(link.latency.spike_ms);
            plan.loss.push(link.loss);
        }
        for &id in nodes {
            plan.fault_kind.push(match all[id.0 as usize].kind {
                NodeKind::CgNat => FaultClass::CgNat,
                NodeKind::DnsResolver => FaultClass::Dns,
                _ => FaultClass::Plain,
            });
        }
        plan
    }

    /// Sample one traversal of hop `i` — exactly [`LatencyModel::sample`]'s
    /// draw sequence (jitter first, then the spike gate) over the baked
    /// arrays, so fast and slow walks consume identical RNG streams.
    /// `inline(always)`: this runs per hop, and the call frame alone is
    /// measurable at population scale (the `#[inline]` hint was not taken).
    #[inline(always)]
    fn sample_ms(&self, i: usize, rng: &mut SmallRng) -> f64 {
        let jitter = if self.jitter_ms[i] > 0.0 {
            rng.gen_range(0.0..self.jitter_ms[i])
        } else {
            0.0
        };
        let spike = if self.spike_prob[i] > 0.0 && rng.gen_bool(self.spike_prob[i]) {
            rng.gen_range(0.0..self.spike_ms[i].max(f64::MIN_POSITIVE))
        } else {
            0.0
        };
        self.base_ms[i] + jitter + spike
    }
}

/// Hasher for route-cache keys — a `(src, dst)` node-id pair packed into
/// one word and finished with a SplitMix64 avalanche. The default SipHash
/// costs more than a packet hop's RNG draws, and the cache is only ever
/// probed by key (never iterated), so DoS resistance buys nothing here.
#[derive(Debug, Default, Clone)]
struct RouteKeyHasher(u64);

type BuildRouteKeyHasher = std::hash::BuildHasherDefault<RouteKeyHasher>;

impl std::hash::Hasher for RouteKeyHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not reachable from `(u32, u32)` keys, but keep it correct for
        // any future key shape.
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 << 32) | u64::from(v);
    }
}

/// A handle to a cached route. Cheap to clone (it is an [`Arc`] bump) and
/// derefs to the node sequence, so slice operations (`len`, indexing,
/// `iter`, `windows`) work directly on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePath {
    entry: Arc<RouteEntry>,
}

impl RoutePath {
    /// The node sequence, source and destination inclusive.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.entry.nodes
    }
}

impl std::ops::Deref for RoutePath {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        &self.entry.nodes
    }
}

impl PartialEq<Vec<NodeId>> for RoutePath {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        self.entry.nodes == *other
    }
}

impl PartialEq<[NodeId]> for RoutePath {
    fn eq(&self, other: &[NodeId]) -> bool {
        self.entry.nodes == other
    }
}

/// Which way a packet walks a [`RouteEntry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalkDir {
    /// `nodes[0] → nodes[upto]`.
    Forward,
    /// `nodes[upto] → nodes[0]` (ICMP answers retrace the path).
    Reverse,
}

/// How an arithmetic leg ends at its last node, `nodes[upto]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LegEnd {
    /// The packet is delivered there.
    Deliver,
    /// Its TTL runs out there (a traceroute probe short of the far end).
    Expire,
}

/// The simulated network.
///
/// `Clone` is a deep, exact copy: the RNG state, the route cache, the
/// lazily filled fault calendars and the telemetry accumulated so far
/// all carry over, so a clone walks every later probe exactly as the
/// original (or a fresh rebuild driven through the same calls) would.
/// Cached routes are immutable and shared behind their [`Arc`].
#[derive(Debug, Clone)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adj: Vec<Vec<u32>>, // node index -> indices into `links`
    name_to_id: HashMap<String, u32>,
    registry: IpRegistry,
    rng: SmallRng,
    master_seed: u64,
    route_cache: HashMap<(u32, u32), Option<RoutePath>, BuildRouteKeyHasher>,
    icmp_ident: u16,
    /// The telemetry plane: counters, histograms, events and the packet
    /// story all accumulate here. Disabled by default (one branch per
    /// call site, no allocation).
    telemetry: Recorder,
    /// Persistent calendar driving packet walks: reset (allocation kept)
    /// at the start of each walk, so hop scheduling never reallocates.
    walk_queue: EventQueue<usize>,
    /// Reusable packet buffer: probes are encoded here and mutated in
    /// place while walking, so the hot loops never allocate.
    pkt_buf: BytesMut,
    /// Reusable scratch for ICMP bodies (encoded before the IP header,
    /// whose `total_len` needs the body length).
    icmp_buf: BytesMut,
    /// The fault-injection plane: keyed-seed calendars of link flaps,
    /// gateway outages, DNS blackholes and CG-NAT rebinds, plus the
    /// failover detours the session layer registers. Disabled (one bool
    /// check per walk) unless the run's fault spec enables it.
    faults: FaultPlane,
    /// The backend that times bulk transfers on this network's flows.
    transport: TransportKind,
}

/// One packet-level event, recorded when tracing is enabled — the
/// simulator's analogue of a pcap line.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketEvent {
    /// When it happened.
    pub at: SimTime,
    /// Node where it happened.
    pub node: NodeId,
    /// What happened.
    pub kind: PacketEventKind,
}

/// The kinds of packet events a trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketEventKind {
    /// Sent from the source host.
    Sent,
    /// Forwarded onward with the remaining TTL.
    Forwarded {
        /// TTL after decrement.
        ttl: u8,
    },
    /// TTL hit zero here (a time-exceeded answer follows if the node talks).
    TtlExpired,
    /// Delivered to the final node.
    Delivered,
    /// Dropped by a lossy link leaving this node.
    Dropped,
}

impl PacketEventKind {
    /// Encode as the `(code, arg)` pair the telemetry plane stores.
    fn code(self) -> (u8, u8) {
        match self {
            PacketEventKind::Sent => (0, 0),
            PacketEventKind::Forwarded { ttl } => (1, ttl),
            PacketEventKind::TtlExpired => (2, 0),
            PacketEventKind::Delivered => (3, 0),
            PacketEventKind::Dropped => (4, 0),
        }
    }

    /// Decode from a stored `(code, arg)` pair.
    fn from_code(code: u8, arg: u8) -> Self {
        match code {
            0 => PacketEventKind::Sent,
            1 => PacketEventKind::Forwarded { ttl: arg },
            2 => PacketEventKind::TtlExpired,
            3 => PacketEventKind::Delivered,
            _ => PacketEventKind::Dropped,
        }
    }

    /// The counter this packet event bumps.
    fn counter(self) -> Counter {
        match self {
            PacketEventKind::Sent => Counter::PacketsSent,
            PacketEventKind::Forwarded { .. } => Counter::PacketsForwarded,
            PacketEventKind::TtlExpired => Counter::TtlExpired,
            PacketEventKind::Delivered => Counter::PacketsDelivered,
            PacketEventKind::Dropped => Counter::PacketsDropped,
        }
    }
}

impl std::fmt::Display for PacketEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            PacketEventKind::Sent => "sent".to_string(),
            PacketEventKind::Forwarded { ttl } => format!("forwarded (ttl {ttl})"),
            PacketEventKind::TtlExpired => "ttl expired".to_string(),
            PacketEventKind::Delivered => "delivered".to_string(),
            PacketEventKind::Dropped => "DROPPED".to_string(),
        };
        write!(f, "{} node#{} {what}", self.at, self.node.0)
    }
}

impl Network {
    /// An empty network with a deterministic RNG seeded by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            adj: Vec::new(),
            name_to_id: HashMap::new(),
            registry: IpRegistry::new(),
            rng: SmallRng::seed_from_u64(seed),
            master_seed: seed,
            route_cache: HashMap::default(),
            icmp_ident: 1,
            telemetry: Recorder::off(),
            walk_queue: EventQueue::new(),
            pkt_buf: BytesMut::with_capacity(128),
            icmp_buf: BytesMut::with_capacity(64),
            faults: FaultPlane::new(FaultSpec::current()),
            transport: TransportKind::current(),
        }
    }

    /// Swap the fault schedule in place (calendars rebuild lazily). The
    /// default is the process default ([`FaultSpec::current`]) when the
    /// network was built; runners set their own spec right after building.
    pub fn set_faults(&mut self, spec: FaultSpec) {
        self.faults.set_spec(spec);
    }

    /// Select the transport backend this network's flows time bulk
    /// transfers with. The default is the process default
    /// ([`TransportKind::current`]) when the network was built.
    pub fn set_transport(&mut self, kind: TransportKind) {
        self.transport = kind;
    }

    /// The transport backend this network's flows use.
    #[must_use]
    pub fn transport(&self) -> TransportKind {
        self.transport
    }

    /// Read access to the fault plane (spec, drop/failover tallies).
    #[must_use]
    pub fn faults(&self) -> &FaultPlane {
        &self.faults
    }

    /// Is the fault plane injecting anything?
    #[must_use]
    pub fn faults_enabled(&self) -> bool {
        self.faults.enabled()
    }

    /// Packets the fault plane has killed so far (dark gateways, DNS
    /// blackholes, rebind windows). Deterministic and independent of the
    /// telemetry mode, so clients can classify failures cheaply.
    #[must_use]
    pub fn fault_drops(&self) -> u64 {
        self.faults.drops()
    }

    /// Failover detours packets have taken so far. Clients snapshot this
    /// around a probe to tag results that survived via the next-nearest
    /// gateway.
    #[must_use]
    pub fn fault_failovers(&self) -> u64 {
        self.faults.failovers()
    }

    /// Register the failover detour for a gateway node: the extra one-way
    /// delay packets pay when the gateway is dark but the session can
    /// break out at the next-nearest site. The session layer computes the
    /// detour from provider geography at attach time.
    pub fn set_failover(&mut self, node: NodeId, detour: SimTime) {
        self.faults.set_failover(node.0, detour);
    }

    /// The seed this network was built from — the master every flow key
    /// derives its stream from (see [`crate::engine::flow_seed`]).
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Start recording packet events (pcap-style). Any previously recorded
    /// events are discarded. The story flows through the telemetry sink:
    /// unlike the old consume-once buffer, reading it does not erase it.
    pub fn enable_tracing(&mut self) {
        self.telemetry.enable_packet_trace();
    }

    /// Stop recording packet events. The captured story remains readable
    /// through [`Network::take_trace`].
    pub fn disable_tracing(&mut self) {
        self.telemetry.disable_packet_trace();
    }

    /// The packet story captured since [`Network::enable_tracing`].
    ///
    /// Historically this consumed the trace buffer — a second call was
    /// silently empty. The records now live in the telemetry sink, so the
    /// call is repeatable: it returns everything captured so far, and
    /// recording continues until [`Network::disable_tracing`]. The name is
    /// kept for API continuity.
    pub fn take_trace(&mut self) -> Vec<PacketEvent> {
        self.telemetry
            .packet_records()
            .iter()
            .map(|r| PacketEvent {
                at: SimTime::from_nanos(r.at_ns),
                node: NodeId(r.node),
                kind: PacketEventKind::from_code(r.code, r.arg),
            })
            .collect()
    }

    /// Select what the telemetry plane records (counters/histograms/events).
    pub fn set_telemetry_mode(&mut self, mode: TelemetryMode) {
        self.telemetry.set_mode(mode);
    }

    /// Read access to the recorder (mode checks, packet story).
    #[must_use]
    pub fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    /// Write access to the recorder, for the layers above (probes record
    /// their latencies and events through the network they run on).
    pub fn telemetry_mut(&mut self) -> &mut Recorder {
        &mut self.telemetry
    }

    /// Drain the accumulated telemetry into a mergeable snapshot (the
    /// shard hand-off point). The recorder's mode and packet story stay.
    pub fn take_telemetry(&mut self) -> TelemetrySnapshot {
        self.telemetry.take()
    }

    fn record(&mut self, at: SimTime, node: NodeId, kind: PacketEventKind) {
        self.telemetry.add(kind.counter(), 1);
        let (code, arg) = kind.code();
        self.telemetry.packet(at.as_nanos(), node.0, code, arg);
    }

    /// Add a node. The name is interned in a lookup table, so scenario
    /// builders resolve names to dense ids once instead of scanning.
    pub fn add_node(&mut self, name: &str, kind: NodeKind, city: City, ip: Ipv4Addr) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name: name.to_string(),
            kind,
            city,
            ip,
            icmp_responds: true,
        });
        self.adj.push(Vec::new());
        self.name_to_id.insert(name.to_string(), id.0);
        id
    }

    /// Resolve a node name to its id (O(1); last writer wins when names
    /// repeat).
    #[must_use]
    pub fn node_id_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_to_id.get(name).copied().map(NodeId)
    }

    /// Node accessor.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Make a node ICMP-silent (or responsive again).
    pub fn set_icmp_responds(&mut self, id: NodeId, responds: bool) {
        self.nodes[id.0 as usize].icmp_responds = responds;
    }

    /// Connect two nodes with a link whose latency derives from their
    /// cities' geography and the link class. Returns the link index.
    pub fn link_geo(&mut self, a: NodeId, b: NodeId, class: LinkClass) -> usize {
        let model = LatencyModel::from_geo(
            self.node(a).city.location(),
            self.node(b).city.location(),
            class,
        );
        self.link_with(a, b, class, model, 0.0)
    }

    /// Connect two nodes with an explicit latency model and loss rate.
    pub fn link_with(
        &mut self,
        a: NodeId,
        b: NodeId,
        class: LinkClass,
        latency: LatencyModel,
        loss: f64,
    ) -> usize {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        assert_ne!(a, b, "self-links are not allowed");
        let idx = self.links.len();
        self.links.push(Link {
            a: a.0,
            b: b.0,
            class,
            latency,
            loss,
        });
        self.adj[a.0 as usize].push(idx as u32);
        self.adj[b.0 as usize].push(idx as u32);
        self.route_cache.clear(); // topology changed
        idx
    }

    /// Set a link's loss probability (fault injection). Drops the route
    /// cache: cached walk plans bake per-hop loss in, and a stale plan
    /// would keep sampling the old rate.
    pub fn set_link_loss(&mut self, link_idx: usize, loss: f64) {
        assert!((0.0..=1.0).contains(&loss));
        self.links[link_idx].loss = loss;
        self.route_cache.clear();
    }

    /// The IP registry (ipinfo analogue).
    #[must_use]
    pub fn registry(&self) -> &IpRegistry {
        &self.registry
    }

    /// Mutable registry access, for scenario builders.
    pub fn registry_mut(&mut self) -> &mut IpRegistry {
        &mut self.registry
    }

    /// Least-latency route from `src` to `dst` (Dijkstra over base delays),
    /// inclusive of both endpoints. Cached until the topology changes;
    /// cache hits hand back a shared handle without copying the path.
    pub fn route(&mut self, src: NodeId, dst: NodeId) -> Option<RoutePath> {
        if let Some(cached) = self.route_cache.get(&(src.0, dst.0)) {
            return cached.clone();
        }
        let entry = self.dijkstra(src.0, dst.0).and_then(|p| {
            // A hop pair without a shared link means the predecessor map
            // and adjacency disagree — treat it as unroutable rather than
            // panicking mid-campaign.
            let hop_links: Vec<u32> = p
                .windows(2)
                .map(|w| self.best_link_index(w[0], w[1]))
                .collect::<Option<_>>()?;
            let nodes: Vec<NodeId> = p.into_iter().map(NodeId).collect();
            let plan = WalkPlan::build(&nodes, &hop_links, &self.links, &self.nodes);
            Some(RoutePath {
                entry: Arc::new(RouteEntry {
                    nodes,
                    hop_links,
                    plan,
                }),
            })
        });
        self.route_cache.insert((src.0, dst.0), entry.clone());
        entry
    }

    fn dijkstra(&self, src: u32, dst: u32) -> Option<Vec<u32>> {
        const UNSEEN: u64 = u64::MAX;
        let n = self.nodes.len();
        let mut dist = vec![UNSEEN; n];
        let mut prev = vec![u32::MAX; n];
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
        dist[src as usize] = 0;
        heap.push(std::cmp::Reverse((0, src)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if u == dst {
                break;
            }
            for &li in &self.adj[u as usize] {
                let link = &self.links[li as usize];
                let Some(v) = link.other(u) else {
                    continue; // stale adjacency entry: skip, don't panic
                };
                let w = SimTime::from_ms(link.latency.base_ms).as_nanos().max(1);
                let nd = d.saturating_add(w);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    prev[v as usize] = u;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        if dist[dst as usize] == UNSEEN {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = prev[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Index of the lowest-latency link joining two adjacent nodes, or
    /// `None` when they share none. Resolved once per route (the result
    /// lives in the route cache's `hop_links`), not once per forwarded
    /// packet.
    fn best_link_index(&self, a: u32, b: u32) -> Option<u32> {
        self.adj[a as usize]
            .iter()
            .copied()
            .filter(|&li| self.links[li as usize].other(a) == Some(b))
            .min_by(|&x, &y| {
                let (lx, ly) = (&self.links[x as usize], &self.links[y as usize]);
                lx.latency.base_ms.total_cmp(&ly.latency.base_ms)
            })
    }

    /// The public address the outside world sees for traffic from `src`
    /// toward `dst` — the first public IP along the route (the CG-NAT /
    /// breakout address). This is "the device's public IP" in the paper's
    /// methodology.
    pub fn egress_public_ip(&mut self, src: NodeId, dst: NodeId) -> Option<Ipv4Addr> {
        let path = self.route(src, dst)?;
        path.iter()
            .map(|&id| self.node(id).ip)
            .find(|ip| !is_private(*ip))
    }

    /// Sum of base one-way delays along the route, ms (no jitter) — the
    /// deterministic component of the RTT/2.
    pub fn base_one_way_ms(&mut self, src: NodeId, dst: NodeId) -> Option<f64> {
        let path = self.route(src, dst)?;
        Some(
            path.entry
                .hop_links
                .iter()
                .map(|&li| self.links[li as usize].latency.base_ms)
                .sum(),
        )
    }

    /// ICMP echo from `src` to `dst`. Returns `None` when there is no route
    /// or the probe (or its reply) is lost.
    ///
    /// Draws loss/jitter from the network's shared RNG — results depend on
    /// call order. Measurement clients use [`Network::ping_flow`] instead.
    pub fn ping(&mut self, src: NodeId, dst: NodeId) -> Option<PingResult> {
        // An ICMP-silent destination never answers echo, matching the
        // traceroute engine's handling of silent hops.
        if !self.node(dst).icmp_responds {
            return None;
        }
        let path = self.route(src, dst)?;
        let ident = self.next_ident();
        let mut pkt = std::mem::take(&mut self.pkt_buf);
        let mut rng = self.rng.clone();
        let result = self.ping_with(&path, ident, &mut pkt, &mut rng);
        self.rng = rng;
        self.pkt_buf = pkt;
        result
    }

    /// [`Network::ping`] on a flow's private RNG stream: the result is a
    /// function of the flow, not of whatever ran before it.
    pub fn ping_flow(&mut self, src: NodeId, dst: NodeId, flow: &mut Flow) -> Option<PingResult> {
        self.ping_flow_checked(src, dst, flow).ok()
    }

    /// [`Network::ping_flow`] with a typed failure cause instead of a
    /// silent `None`.
    pub fn ping_flow_checked(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flow: &mut Flow,
    ) -> Result<PingResult, ProbeError> {
        if !self.node(dst).icmp_responds {
            return Err(ProbeError::Silent);
        }
        let Some(path) = self.route(src, dst) else {
            return Err(ProbeError::NoRoute);
        };
        let ident = self.next_ident();
        let mut pkt = std::mem::take(&mut self.pkt_buf);
        let result = self.ping_with(&path, ident, &mut pkt, flow.rng());
        self.pkt_buf = pkt;
        result.ok_or(ProbeError::Lost)
    }

    fn ping_with(
        &mut self,
        path: &RoutePath,
        ident: u16,
        pkt: &mut BytesMut,
        rng: &mut SmallRng,
    ) -> Option<PingResult> {
        let last = path.len() - 1;
        // Fast path: unless the packet story is being recorded, and with
        // the path far shorter than the echo TTL of 64 (so expiry is
        // impossible), the encoded packet bytes are pure ceremony — the
        // walk's only observable outputs are its RNG draws, the arrival
        // clock and the packet/calendar counters, all of which follow
        // from the baked plan arrays arithmetically. The draw sequence is
        // identical, so results and summary telemetry are bit-for-bit
        // those of the calendar walk below (pinned by the
        // `fast_and_slow_ping_walks_agree_exactly` test and the
        // `prop_walk_telemetry` oracle).
        if !self.telemetry.traces_packets() && last < 64 {
            return if self.telemetry.mode().enabled() {
                self.ping_fast::<true>(path, last, rng)
            } else {
                self.ping_fast::<false>(path, last, rng)
            };
        }
        let (src, dst) = (path[0], path[last]);
        self.build_echo_into(pkt, src, dst, ident, 0, 64);
        let (arrived, t_fwd, _expired_at) =
            self.walk(path, last, WalkDir::Forward, pkt, SimTime::ZERO, rng)?;
        if !arrived {
            return None;
        }
        // Reply retraces the path in reverse.
        self.build_echo_into(pkt, dst, src, ident, 1, 64);
        let (arrived, t_total, _) = self.walk(path, last, WalkDir::Reverse, pkt, t_fwd, rng)?;
        arrived.then_some(PingResult {
            rtt_ms: t_total.as_ms(),
        })
    }

    /// Both legs of an echo on the arithmetic walk; `COUNT` books the
    /// walks' packet and calendar counters (see [`Network::walk_fast`]).
    fn ping_fast<const COUNT: bool>(
        &mut self,
        path: &RoutePath,
        last: usize,
        rng: &mut SmallRng,
    ) -> Option<PingResult> {
        let t_fwd = self.walk_fast::<COUNT>(
            path,
            last,
            WalkDir::Forward,
            LegEnd::Deliver,
            SimTime::ZERO,
            rng,
        )?;
        let t_total =
            self.walk_fast::<COUNT>(path, last, WalkDir::Reverse, LegEnd::Deliver, t_fwd, rng)?;
        Some(PingResult {
            rtt_ms: t_total.as_ms(),
        })
    }

    /// `mtr`-style traceroute: probe each TTL, record responder and RTTs.
    ///
    /// Shared-RNG variant; see [`Network::traceroute_flow`] for the
    /// order-insensitive one the measurement clients use.
    pub fn traceroute(&mut self, src: NodeId, dst: NodeId, opts: TracerouteOpts) -> Traceroute {
        let Some(path) = self.route(src, dst) else {
            return Traceroute {
                hops: vec![],
                reached: false,
            };
        };
        let mut pkt = std::mem::take(&mut self.pkt_buf);
        let mut rng = self.rng.clone();
        let result = self.traceroute_with(&path, opts, &mut pkt, &mut rng);
        self.rng = rng;
        self.pkt_buf = pkt;
        result
    }

    /// [`Network::traceroute`] on a flow's private RNG stream.
    pub fn traceroute_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        opts: TracerouteOpts,
        flow: &mut Flow,
    ) -> Traceroute {
        let Some(path) = self.route(src, dst) else {
            return Traceroute {
                hops: vec![],
                reached: false,
            };
        };
        let mut pkt = std::mem::take(&mut self.pkt_buf);
        let result = self.traceroute_with(&path, opts, &mut pkt, flow.rng());
        self.pkt_buf = pkt;
        result
    }

    fn traceroute_with(
        &mut self,
        path: &RoutePath,
        opts: TracerouteOpts,
        pkt: &mut BytesMut,
        rng: &mut SmallRng,
    ) -> Traceroute {
        let last = path.len() - 1;
        let (src, dst) = (path[0], path[last]);
        // Same gate as the echo fast path: without the packet story, and
        // with the path too short for the answer's TTL of 64 to run out,
        // both legs of every probe ride the arithmetic walk. The TTL
        // decrement draws nothing, so a forward leg that stops where the
        // probe's TTL runs out makes exactly the calendar walk's draws
        // (pinned by `fast_and_slow_traceroutes_agree_exactly` and the
        // `prop_traceroute` oracle).
        let fast = !self.telemetry.traces_packets() && last < 64;
        let count = self.telemetry.mode().enabled();
        let leg = |net: &mut Self, upto, dir, end, start, rng: &mut SmallRng| {
            if count {
                net.walk_fast::<true>(path, upto, dir, end, start, rng)
            } else {
                net.walk_fast::<false>(path, upto, dir, end, start, rng)
            }
        };
        let mut hops = Vec::new();
        let mut reached = false;
        // TTL 1 expires at the first node *after* the source.
        for ttl in 1..=opts.max_ttl {
            let mut hop = TraceHop {
                ttl,
                node: None,
                ip: None,
                rtts: vec![],
            };
            let mut hit_dst = false;
            for probe in 0..opts.probes_per_hop {
                // Advanced on either walk, so the ident counter a clone
                // carries does not depend on the packet story.
                let ident = self.next_ident();
                // `(pos, t_fwd)`: the responder's index on the path (the
                // far end, or where the TTL ran out) and the arrival time.
                let forward = if fast {
                    let upto = usize::from(ttl).min(last);
                    let end = if upto == last {
                        LegEnd::Deliver
                    } else {
                        LegEnd::Expire
                    };
                    leg(self, upto, WalkDir::Forward, end, SimTime::ZERO, rng).map(|t| (upto, t))
                } else {
                    self.build_echo_into(pkt, src, dst, ident, probe as u16, ttl);
                    match self.walk(path, last, WalkDir::Forward, pkt, SimTime::ZERO, rng) {
                        Some((true, t, _)) => Some((last, t)),
                        Some((false, t, Some(n))) => Some((n, t)),
                        _ => None,
                    }
                };
                let Some((pos, t_fwd)) = forward else {
                    continue; // probe lost on the way out
                };
                let arrived = pos == last;
                let responder = path[pos];
                let (r_ip, r_responds) = {
                    let n = self.node(responder);
                    (n.ip, n.icmp_responds)
                };
                if !r_responds {
                    continue; // silent hop: no time-exceeded, probe times out
                }
                // The ICMP answer (echo reply or time exceeded) retraces the
                // path from the responder back to the source.
                let back = if fast {
                    leg(self, pos, WalkDir::Reverse, LegEnd::Deliver, t_fwd, rng)
                } else {
                    self.build_answer_into(pkt, responder, src, arrived);
                    match self.walk(path, pos, WalkDir::Reverse, pkt, t_fwd, rng) {
                        Some((true, t, _)) => Some(t),
                        _ => None,
                    }
                };
                let Some(t_total) = back else {
                    continue; // reply lost
                };
                hop.node = Some(responder);
                hop.ip = Some(r_ip);
                hop.rtts.push(t_total.as_ms());
                if arrived {
                    hit_dst = true;
                }
            }
            hops.push(hop);
            if hit_dst {
                reached = true;
                break;
            }
            // mtr also stops when the path simply ends (host unreachable
            // beyond the last hop); the TTL walk covers path length anyway.
            if ttl as usize >= path.len() + 2 {
                break;
            }
        }
        Traceroute { hops, reached }
    }

    /// Round-trip time measured by a single ping with retries (up to 3).
    /// Shared-RNG variant retained for scenario tooling; measurement
    /// clients use [`Network::rtt_probe`], which also reports how many
    /// probes the retries burned.
    pub fn rtt_ms(&mut self, src: NodeId, dst: NodeId) -> Option<f64> {
        for attempt in 1..=3u32 {
            if let Some(r) = self.ping(src, dst) {
                self.telemetry
                    .add(Counter::EchoAttempts, u64::from(attempt));
                self.telemetry
                    .add(Counter::ProbeRetransmits, u64::from(attempt - 1));
                return Some(r.rtt_ms);
            }
        }
        self.telemetry.add(Counter::EchoAttempts, 3);
        self.telemetry.add(Counter::ProbeRetransmits, 2);
        self.telemetry.add(Counter::ProbesLost, 1);
        None
    }

    /// RTT with retries (up to 3) on a flow's private stream, reporting the
    /// attempt count so probe loss surfaces in campaign datasets instead of
    /// being silently swallowed.
    pub fn rtt_probe(&mut self, src: NodeId, dst: NodeId, flow: &mut Flow) -> Option<RttSample> {
        self.rtt_probe_checked(src, dst, flow).ok()
    }

    /// [`Network::rtt_probe`] with a typed failure cause. Permanent
    /// conditions (no route, ICMP-silent destination) return immediately
    /// — retrying cannot help — but book the same probe cost as a full
    /// retry burn, matching the untyped path's counter arithmetic.
    pub fn rtt_probe_checked(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flow: &mut Flow,
    ) -> Result<RttSample, ProbeError> {
        let mut cause = ProbeError::Lost;
        for attempt in 1..=3u32 {
            match self.ping_flow_checked(src, dst, flow) {
                Ok(r) => {
                    self.telemetry
                        .add(Counter::EchoAttempts, u64::from(attempt));
                    self.telemetry
                        .add(Counter::ProbeRetransmits, u64::from(attempt - 1));
                    return Ok(RttSample {
                        rtt_ms: r.rtt_ms,
                        attempts: attempt,
                    });
                }
                Err(e @ (ProbeError::NoRoute | ProbeError::Silent)) => {
                    cause = e;
                    break;
                }
                Err(ProbeError::Lost) => {}
            }
        }
        self.telemetry.add(Counter::EchoAttempts, 3);
        self.telemetry.add(Counter::ProbeRetransmits, 2);
        self.telemetry.add(Counter::ProbesLost, 1);
        Err(cause)
    }

    // -- internals ---------------------------------------------------------

    fn next_ident(&mut self) -> u16 {
        self.icmp_ident = self.icmp_ident.wrapping_add(1);
        self.icmp_ident
    }

    /// Encode an IPv4+ICMP echo request into `pkt` (replacing its
    /// contents). Uses the persistent ICMP scratch buffer, so steady-state
    /// probe construction performs no allocation.
    fn build_echo_into(
        &mut self,
        pkt: &mut BytesMut,
        src: NodeId,
        dst: NodeId,
        ident: u16,
        seq: u16,
        ttl: u8,
    ) {
        let mut icmp = std::mem::take(&mut self.icmp_buf);
        icmp.clear();
        IcmpMessage::EchoRequest {
            ident,
            seq,
            payload: Bytes::from_static(&[0u8; 32]),
        }
        .encode_into(&mut icmp);
        let hdr = Ipv4Header {
            dscp_ecn: 0,
            total_len: (Ipv4Header::LEN + icmp.len()) as u16,
            ident,
            ttl,
            proto: IpProto::Icmp,
            src: self.node(src).ip,
            dst: self.node(dst).ip,
        };
        pkt.clear();
        hdr.encode(pkt);
        pkt.put_slice(&icmp);
        self.icmp_buf = icmp;
    }

    /// Encode the ICMP answer a responder sends (echo reply when the probe
    /// was delivered, time-exceeded when its TTL ran out) into `pkt`.
    fn build_answer_into(
        &mut self,
        pkt: &mut BytesMut,
        from: NodeId,
        to: NodeId,
        was_delivered: bool,
    ) {
        let mut icmp = std::mem::take(&mut self.icmp_buf);
        icmp.clear();
        if was_delivered {
            IcmpMessage::EchoReply {
                ident: 0,
                seq: 0,
                payload: Bytes::new(),
            }
            .encode_into(&mut icmp);
        } else {
            IcmpMessage::TimeExceeded {
                original: Bytes::new(),
            }
            .encode_into(&mut icmp);
        }
        let hdr = Ipv4Header {
            dscp_ecn: 0,
            total_len: (Ipv4Header::LEN + icmp.len()) as u16,
            ident: 0,
            ttl: 64,
            proto: IpProto::Icmp,
            src: self.node(from).ip,
            dst: self.node(to).ip,
        };
        pkt.clear();
        hdr.encode(pkt);
        pkt.put_slice(&icmp);
        self.icmp_buf = icmp;
    }

    /// Walk the encoded packet in `bytes` along `route`, starting at
    /// `start` time, drawing loss/jitter from `rng`.
    ///
    /// `Forward` visits `nodes[0..=upto]` in order; `Reverse` visits
    /// `nodes[upto..=0]` (how ICMP answers retrace the path) — neither
    /// direction materializes a path copy. Each intermediate node
    /// decrements the TTL in the encoded bytes in place. Hop arrivals go
    /// through the persistent event calendar: each traversed link
    /// schedules the arrival at the next node, and popping the heap
    /// advances the clock — the discrete-event core that future work
    /// extends with competing in-flight packets. Returns `None` when a
    /// link drops the packet; otherwise `(delivered_to_last_node,
    /// arrival_time, path_index_where_ttl_expired)`.
    ///
    /// Only the packet story (and paths of 64 hops or more) take this
    /// walk; every other echo and traceroute leg rides the arithmetic
    /// [`Network::walk_fast`], with this walk as its oracle.
    fn walk(
        &mut self,
        route: &RoutePath,
        upto: usize,
        dir: WalkDir,
        bytes: &mut [u8],
        start: SimTime,
        rng: &mut SmallRng,
    ) -> Option<(bool, SimTime, Option<usize>)> {
        let entry = &*route.entry;
        let faults_on = self.faults.enabled();
        // One phase draw per walk from the caller's own stream: different
        // flows (and retries) land on different regions of the cyclic
        // fault calendars, the alignment is a pure function of flow
        // identity, and the draw sequence is untouched when the plane is
        // off — preserving bit-identical behaviour with `ROAM_FAULTS=off`.
        let phase = if faults_on {
            rng.gen_range(0..self.faults.spec().period_ns())
        } else {
            0
        };
        let master = self.master_seed;
        // The hollow stand-in `take` leaves behind is an unallocated wheel
        // that is never scheduled on.
        let mut q = std::mem::take(&mut self.walk_queue);
        q.rewind();
        q.schedule(start, 0usize); // the packet leaves the first node
        let mut outcome: Option<Option<(bool, SimTime, Option<usize>)>> = None;
        while let Some((now, step)) = q.pop() {
            let phys = match dir {
                WalkDir::Forward => step,
                WalkDir::Reverse => upto - step,
            };
            let here = entry.nodes[phys];
            // Fault plane: a dark node (gateway outage, DNS blackhole,
            // rebind window) disposes of the packet before it is
            // forwarded or delivered there; a dark gateway with a
            // registered failover detours instead, paying extra delay on
            // its outgoing hop.
            let mut detour = SimTime::ZERO;
            if faults_on && step != 0 {
                let at = SimTime::from_nanos(phase.wrapping_add(now.as_nanos()));
                let state = match entry.plan.fault_kind[phys] {
                    FaultClass::CgNat => self.faults.cgnat_state(master, here.0, at),
                    FaultClass::Dns => {
                        if self.faults.dns_dark(master, here.0, at) {
                            NodeFaultState::Dark
                        } else {
                            NodeFaultState::Up
                        }
                    }
                    FaultClass::Plain => NodeFaultState::Up,
                };
                match state {
                    NodeFaultState::Up => {}
                    NodeFaultState::Failover(d) => {
                        detour = d;
                        self.telemetry.add(Counter::FaultFailovers, 1);
                    }
                    NodeFaultState::Dark => {
                        self.telemetry.add(Counter::FaultDrops, 1);
                        self.record(now, here, PacketEventKind::Dropped);
                        outcome = Some(None); // the fault ate the packet
                        break;
                    }
                }
            }
            if step == upto {
                self.record(now, here, PacketEventKind::Delivered);
                outcome = Some(Some((true, now, None)));
                break;
            }
            // Intermediate forwarding: routers (not the source host itself)
            // decrement the TTL before sending the packet onward.
            if step == 0 {
                self.record(now, here, PacketEventKind::Sent);
            } else {
                match Ipv4Header::decrement_ttl(bytes) {
                    Ok(0) => {
                        self.record(now, here, PacketEventKind::TtlExpired);
                        outcome = Some(Some((false, now, Some(phys))));
                        break;
                    }
                    Ok(ttl) => self.record(now, here, PacketEventKind::Forwarded { ttl }),
                    Err(_) => {
                        outcome = Some(Some((false, now, Some(phys))));
                        break;
                    }
                }
            }
            let hop = match dir {
                WalkDir::Forward => step,
                WalkDir::Reverse => upto - 1 - step,
            };
            let mut loss = entry.plan.loss[hop];
            if faults_on {
                // A flapping link in its Gilbert–Elliott bad window loses
                // in bursts: the burst rate replaces the base rate.
                let at = SimTime::from_nanos(phase.wrapping_add(now.as_nanos()));
                let li = entry.hop_links[hop];
                if let Some(burst) = self.faults.link_burst_loss(master, li, at) {
                    loss = loss.max(burst);
                }
            }
            if loss > 0.0 && rng.gen_bool(loss) {
                self.record(now, here, PacketEventKind::Dropped);
                outcome = Some(None); // dropped on this link
                break;
            }
            let delay = SimTime::from_ms(entry.plan.sample_ms(hop, rng)) + detour;
            q.schedule_after(delay, step + 1);
            if self.telemetry.active() {
                self.telemetry.add(Counter::CalendarEvents, 1);
                self.telemetry.observe(Hist::CalendarDepth, q.len() as f64);
            }
        }
        let result = outcome.unwrap_or(Some((false, q.now(), None)));
        self.walk_queue = q;
        result
    }

    /// The allocation- and packet-free walk: identical RNG draws, fault
    /// consults and clock arithmetic to [`Network::walk`], minus the
    /// encoded packet and the event calendar. Valid only when the packet
    /// story is off (there are no packet records to write) and
    /// `upto < 64` (a TTL of 64 cannot run out, so the in-byte decrement
    /// is unobservable). A traceroute probe whose smaller TTL runs out at
    /// `nodes[upto]` walks with [`LegEnd::Expire`]: the decrement draws
    /// nothing, so stopping there is the calendar walk's expiry. Returns
    /// the arrival time at `nodes[upto]`, or `None` when a lossy link or
    /// a dark node ate the packet — the fault plane's own drop/failover
    /// tallies still advance, because they live in [`FaultPlane`], not in
    /// telemetry.
    ///
    /// With `COUNT` the walk tallies what the calendar walk would have
    /// booked — packets sent, forwarded, delivered, expired and dropped,
    /// fault drops and failovers, one calendar event per scheduled hop — and
    /// flushes the tally once at the end. A linear walk holds exactly one
    /// pending arrival after each schedule, so every calendar-depth
    /// observation is 1.0. Without `COUNT` the tally compiles away and
    /// the loop is the bare arithmetic walk.
    fn walk_fast<const COUNT: bool>(
        &mut self,
        route: &RoutePath,
        upto: usize,
        dir: WalkDir,
        end: LegEnd,
        start: SimTime,
        rng: &mut SmallRng,
    ) -> Option<SimTime> {
        let entry = &*route.entry;
        let plan = &entry.plan;
        let faults_on = self.faults.enabled();
        // Same per-walk phase draw as the calendar walk.
        let phase = if faults_on {
            rng.gen_range(0..self.faults.spec().period_ns())
        } else {
            0
        };
        let master = self.master_seed;
        let mut tally = WalkTally::default();
        let arrival = 'walk: {
            let mut now = start;
            for step in 0..=upto {
                let phys = match dir {
                    WalkDir::Forward => step,
                    WalkDir::Reverse => upto - step,
                };
                let mut detour = SimTime::ZERO;
                if faults_on && step != 0 && plan.fault_kind[phys] != FaultClass::Plain {
                    let at = SimTime::from_nanos(phase.wrapping_add(now.as_nanos()));
                    let node = entry.nodes[phys].0;
                    let state = match plan.fault_kind[phys] {
                        FaultClass::CgNat => self.faults.cgnat_state(master, node, at),
                        FaultClass::Dns => {
                            if self.faults.dns_dark(master, node, at) {
                                NodeFaultState::Dark
                            } else {
                                NodeFaultState::Up
                            }
                        }
                        FaultClass::Plain => NodeFaultState::Up,
                    };
                    match state {
                        NodeFaultState::Up => {}
                        NodeFaultState::Failover(d) => {
                            detour = d;
                            if COUNT {
                                tally.failovers += 1;
                            }
                        }
                        NodeFaultState::Dark => {
                            if COUNT {
                                tally.fault_drops += 1;
                            }
                            break 'walk None;
                        }
                    }
                }
                if step == upto {
                    if COUNT {
                        match end {
                            LegEnd::Deliver => tally.delivered += 1,
                            LegEnd::Expire => tally.expired += 1,
                        }
                    }
                    break 'walk Some(now);
                }
                if COUNT {
                    // Routers forward; the source host itself sends.
                    if step == 0 {
                        tally.sent += 1;
                    } else {
                        tally.forwarded += 1;
                    }
                }
                let hop = match dir {
                    WalkDir::Forward => step,
                    WalkDir::Reverse => upto - 1 - step,
                };
                let mut loss = plan.loss[hop];
                if faults_on {
                    let at = SimTime::from_nanos(phase.wrapping_add(now.as_nanos()));
                    if let Some(burst) =
                        self.faults
                            .link_burst_loss(master, entry.hop_links[hop], at)
                    {
                        loss = loss.max(burst);
                    }
                }
                if loss > 0.0 && rng.gen_bool(loss) {
                    if COUNT {
                        tally.link_drops += 1;
                    }
                    break 'walk None;
                }
                now = now.after(SimTime::from_ms(plan.sample_ms(hop, rng)) + detour);
                if COUNT {
                    tally.scheduled += 1;
                }
            }
            unreachable!("the loop breaks at step == upto")
        };
        if COUNT {
            tally.flush(&mut self.telemetry);
        }
        arrival
    }
}

/// What one arithmetic walk would have booked through the calendar walk's
/// telemetry hooks, flushed once per walk by [`WalkTally::flush`].
#[derive(Default)]
struct WalkTally {
    sent: u64,
    forwarded: u64,
    delivered: u64,
    expired: u64,
    link_drops: u64,
    fault_drops: u64,
    failovers: u64,
    /// Hops scheduled onto the (virtual) calendar.
    scheduled: u64,
}

impl WalkTally {
    fn flush(&self, telemetry: &mut Recorder) {
        telemetry.add(Counter::PacketsSent, self.sent);
        telemetry.add(Counter::PacketsForwarded, self.forwarded);
        telemetry.add(Counter::PacketsDelivered, self.delivered);
        telemetry.add(Counter::TtlExpired, self.expired);
        telemetry.add(Counter::PacketsDropped, self.link_drops + self.fault_drops);
        telemetry.add(Counter::FaultDrops, self.fault_drops);
        telemetry.add(Counter::FaultFailovers, self.failovers);
        telemetry.add(Counter::CalendarEvents, self.scheduled);
        telemetry.observe_n(Hist::CalendarDepth, 1.0, self.scheduled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// A small chain: host(private) - router(private) - cgnat(public) -
    /// router(public) - spedge(public), with geography spanning Europe.
    fn chain() -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new(99);
        let ue = net.add_node("ue", NodeKind::Host, City::Berlin, ip("10.55.0.2"));
        let r1 = net.add_node("core-r1", NodeKind::Router, City::Berlin, ip("10.55.0.1"));
        let nat = net.add_node("cgnat", NodeKind::CgNat, City::Amsterdam, ip("131.188.1.1"));
        let r2 = net.add_node("transit", NodeKind::Router, City::Amsterdam, ip("80.1.2.3"));
        let sp = net.add_node(
            "google",
            NodeKind::SpEdge,
            City::Frankfurt,
            ip("142.250.1.1"),
        );
        net.link_with(
            ue,
            r1,
            LinkClass::RadioAccess,
            LatencyModel::fixed(12.0, 0.0),
            0.0,
        );
        net.link_geo(r1, nat, LinkClass::Backbone);
        net.link_with(
            nat,
            r2,
            LinkClass::Metro,
            LatencyModel::fixed(0.4, 0.0),
            0.0,
        );
        net.link_geo(r2, sp, LinkClass::Peering);
        (net, ue, sp, nat)
    }

    #[test]
    fn route_follows_the_chain() {
        let (mut net, ue, sp, _) = chain();
        let path = net.route(ue, sp).unwrap();
        assert_eq!(path.len(), 5);
        assert_eq!(path[0], ue);
        assert_eq!(path[4], sp);
    }

    #[test]
    fn no_route_between_disconnected_nodes() {
        let mut net = Network::new(1);
        let a = net.add_node("a", NodeKind::Host, City::Paris, ip("10.0.0.1"));
        let b = net.add_node("b", NodeKind::Host, City::London, ip("10.0.0.2"));
        assert!(net.route(a, b).is_none());
        assert!(net.ping(a, b).is_none());
        let tr = net.traceroute(a, b, TracerouteOpts::default());
        assert!(tr.hops.is_empty() && !tr.reached);
    }

    #[test]
    fn ping_rtt_is_about_twice_one_way() {
        let (mut net, ue, sp, _) = chain();
        let one_way = net.base_one_way_ms(ue, sp).unwrap();
        let r = net.ping(ue, sp).unwrap();
        // RTT within [2*base, 2*base + total jitter bound].
        assert!(
            r.rtt_ms >= 2.0 * one_way,
            "rtt {} vs base {}",
            r.rtt_ms,
            one_way
        );
        assert!(r.rtt_ms < 2.0 * one_way + 40.0);
    }

    #[test]
    fn traceroute_visits_every_hop_in_order() {
        let (mut net, ue, sp, _) = chain();
        let tr = net.traceroute(ue, sp, TracerouteOpts::default());
        assert!(tr.reached);
        assert_eq!(tr.hops.len(), 4, "four hops beyond the source");
        let ips = tr.hop_ips();
        assert_eq!(ips[0], ip("10.55.0.1"));
        assert_eq!(ips[1], ip("131.188.1.1"));
        assert_eq!(ips[2], ip("80.1.2.3"));
        assert_eq!(ips[3], ip("142.250.1.1"));
        // RTTs are monotonically non-decreasing in expectation; check best
        // RTTs are at least ordered between first and last hop.
        assert!(tr.hops[0].best_rtt().unwrap() < tr.hops[3].best_rtt().unwrap());
    }

    #[test]
    fn first_public_hop_is_the_cgnat() {
        let (mut net, ue, sp, nat) = chain();
        let tr = net.traceroute(ue, sp, TracerouteOpts::default());
        let idx = tr.first_public_hop().unwrap();
        assert_eq!(tr.hops[idx].node, Some(nat));
        assert_eq!(net.egress_public_ip(ue, sp), Some(ip("131.188.1.1")));
    }

    #[test]
    fn silent_hop_shows_as_no_response() {
        let (mut net, ue, sp, nat) = chain();
        net.set_icmp_responds(nat, false);
        let tr = net.traceroute(ue, sp, TracerouteOpts::default());
        assert!(tr.reached, "silent middle hop must not stop the trace");
        let silent = &tr.hops[1];
        assert!(!silent.responded());
        assert!(silent.rtts.is_empty());
    }

    #[test]
    fn lossy_link_loses_probes_but_trace_completes() {
        let (mut net, ue, sp, _) = chain();
        // 40% loss on the radio link.
        net.set_link_loss(0, 0.4);
        let tr = net.traceroute(
            ue,
            sp,
            TracerouteOpts {
                max_ttl: 30,
                probes_per_hop: 20,
            },
        );
        assert!(tr.reached);
        let h = &tr.hops[0];
        assert!(h.rtts.len() < 20, "some probes must be lost");
        assert!(!h.rtts.is_empty(), "not all probes lost at 40%");
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = |seed: u64| {
            let mut net = Network::new(seed);
            let a = net.add_node("a", NodeKind::Host, City::Paris, ip("10.0.0.1"));
            let b = net.add_node("b", NodeKind::SpEdge, City::Tokyo, ip("1.2.3.4"));
            net.link_geo(a, b, LinkClass::Backbone);
            (0..20)
                .map(|_| net.ping(a, b).unwrap().rtt_ms.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn dijkstra_prefers_lower_latency_path() {
        let mut net = Network::new(3);
        let a = net.add_node("a", NodeKind::Host, City::Paris, ip("10.0.0.1"));
        let m1 = net.add_node("m1", NodeKind::Router, City::Frankfurt, ip("80.0.0.1"));
        let m2 = net.add_node("m2", NodeKind::Router, City::Tokyo, ip("80.0.0.2"));
        let b = net.add_node("b", NodeKind::SpEdge, City::Amsterdam, ip("90.0.0.1"));
        // Fast two-hop path via Frankfurt vs slow detour via Tokyo.
        net.link_with(
            a,
            m1,
            LinkClass::Backbone,
            LatencyModel::fixed(5.0, 0.0),
            0.0,
        );
        net.link_with(
            m1,
            b,
            LinkClass::Backbone,
            LatencyModel::fixed(5.0, 0.0),
            0.0,
        );
        net.link_with(
            a,
            m2,
            LinkClass::Backbone,
            LatencyModel::fixed(100.0, 0.0),
            0.0,
        );
        net.link_with(
            m2,
            b,
            LinkClass::Backbone,
            LatencyModel::fixed(100.0, 0.0),
            0.0,
        );
        let path = net.route(a, b).unwrap();
        assert_eq!(path, vec![a, m1, b]);
    }

    #[test]
    fn route_cache_invalidated_by_new_links() {
        let mut net = Network::new(3);
        let a = net.add_node("a", NodeKind::Host, City::Paris, ip("10.0.0.1"));
        let m = net.add_node("m", NodeKind::Router, City::Tokyo, ip("80.0.0.2"));
        let b = net.add_node("b", NodeKind::SpEdge, City::Amsterdam, ip("90.0.0.1"));
        net.link_with(
            a,
            m,
            LinkClass::Backbone,
            LatencyModel::fixed(100.0, 0.0),
            0.0,
        );
        net.link_with(
            m,
            b,
            LinkClass::Backbone,
            LatencyModel::fixed(100.0, 0.0),
            0.0,
        );
        assert_eq!(net.route(a, b).unwrap().len(), 3);
        // Add a direct cheap link; the cached 3-hop route must be dropped.
        net.link_with(
            a,
            b,
            LinkClass::Backbone,
            LatencyModel::fixed(1.0, 0.0),
            0.0,
        );
        assert_eq!(net.route(a, b).unwrap(), vec![a, b]);
    }

    #[test]
    fn pinging_a_silent_node_times_out() {
        let (mut net, ue, sp, nat) = chain();
        assert!(
            net.ping(ue, nat).is_some(),
            "responsive CG-NAT answers echo"
        );
        net.set_icmp_responds(nat, false);
        assert!(net.ping(ue, nat).is_none(), "silent node must not answer");
        assert!(net.rtt_ms(ue, nat).is_none());
        // Transit *through* the silent node still works.
        assert!(net.ping(ue, sp).is_some());
    }

    #[test]
    fn tracing_records_the_packet_story() {
        let (mut net, ue, sp, _) = chain();
        net.enable_tracing();
        let r = net.ping(ue, sp);
        assert!(r.is_some());
        let events = net.take_trace();
        // Forward + reply legs: sent, forwards, delivered, twice.
        let sent = events
            .iter()
            .filter(|e| e.kind == PacketEventKind::Sent)
            .count();
        let delivered = events
            .iter()
            .filter(|e| e.kind == PacketEventKind::Delivered)
            .count();
        assert_eq!(sent, 2, "echo + reply each get a Sent");
        assert_eq!(delivered, 2);
        assert!(
            events
                .windows(2)
                .all(|w| w[0].at <= w[1].at || w[1].kind == PacketEventKind::Sent),
            "events within a leg are time-ordered"
        );
        // The trace is repeatable: a second take tells the same story.
        assert_eq!(net.take_trace(), events);
        // Further traffic extends it while tracing stays on.
        net.ping(ue, sp);
        assert!(net.take_trace().len() > events.len());
        // disable_tracing freezes the story: still readable, no longer fed.
        net.disable_tracing();
        let frozen = net.take_trace();
        net.ping(ue, sp);
        assert_eq!(net.take_trace(), frozen, "no recording after disable");
        // Display is human-readable.
        assert!(events[0].to_string().contains("sent"));
    }

    #[test]
    fn telemetry_counts_packets_and_probes() {
        use roam_telemetry::TelemetryMode;
        let (mut net, ue, sp, _) = chain();
        net.set_telemetry_mode(TelemetryMode::Summary);
        assert!(net.ping(ue, sp).is_some());
        assert!(net.rtt_ms(ue, sp).is_some());
        let snap = net.take_telemetry();
        assert_eq!(snap.counters[Counter::PacketsSent as usize], 4);
        assert_eq!(snap.counters[Counter::PacketsDelivered as usize], 4);
        assert!(snap.counters[Counter::CalendarEvents as usize] > 0);
        assert!(snap.counters[Counter::EchoAttempts as usize] >= 1);
        assert_eq!(snap.counters[Counter::ProbesLost as usize], 0);
        // Taking resets the tallies but keeps recording.
        assert!(net.ping(ue, sp).is_some());
        let again = net.take_telemetry();
        assert_eq!(again.counters[Counter::PacketsSent as usize], 2);
    }

    #[test]
    fn tracing_shows_ttl_expiry() {
        let (mut net, ue, sp, _) = chain();
        net.enable_tracing();
        let _ = net.traceroute(
            ue,
            sp,
            TracerouteOpts {
                max_ttl: 1,
                probes_per_hop: 1,
            },
        );
        let events = net.take_trace();
        assert!(
            events.iter().any(|e| e.kind == PacketEventKind::TtlExpired),
            "TTL-1 probe must expire at the first router"
        );
    }

    #[test]
    fn flow_probes_are_order_insensitive() {
        use crate::engine::{flow_seed, Flow};
        let (mut net, ue, sp, _) = chain();
        net.set_link_loss(0, 0.2);
        let open = |key: &str| Flow::open(flow_seed(99, key));
        let first = net.ping_flow(ue, sp, &mut open("p/a"));
        // Perturb the shared stream and run unrelated flows in between:
        // the repeat of flow "p/a" must not notice.
        let _ = net.ping(ue, sp);
        let _ = net.ping_flow(ue, sp, &mut open("p/b"));
        let _ = net.rtt_probe(ue, sp, &mut open("p/c"));
        let again = net.ping_flow(ue, sp, &mut open("p/a"));
        assert_eq!(first, again);
        let s1 = net.rtt_probe(ue, sp, &mut open("p/c"));
        let s2 = net.rtt_probe(ue, sp, &mut open("p/c"));
        assert_eq!(s1, s2);
    }

    /// A chain with every stochastic feature armed (jitter, spikes, loss)
    /// — the workload where a draw-order divergence between the fast and
    /// calendar walks would show immediately.
    fn spiky_chain() -> (Network, NodeId, NodeId) {
        let (mut net, ue, sp, _) = chain();
        net.set_link_loss(0, 0.15);
        let li = net.link_with(
            ue,
            sp,
            LinkClass::IpxBackbone,
            LatencyModel::fixed(200.0, 6.0).with_spikes(0.2, 40.0),
            0.05,
        );
        // Make the detour link irrelevant for routing but keep the chain
        // stochastic end to end.
        net.set_link_loss(li, 0.05);
        (net, ue, sp)
    }

    #[test]
    fn fast_and_slow_ping_walks_agree_exactly() {
        use crate::engine::{flow_seed, Flow};
        // Same flows, same network build: without the packet story the
        // echo takes the arithmetic fast path, with it the calendar walk.
        // The draw sequences must be identical, so every outcome
        // (including which probes are lost) matches bit for bit.
        let run = |trace: bool| {
            let (mut net, ue, sp) = spiky_chain();
            if trace {
                net.enable_tracing();
            }
            (0..200u32)
                .map(|i| {
                    let mut flow = Flow::open(flow_seed(7, &format!("eq/{i}")));
                    net.ping_flow(ue, sp, &mut flow).map(|r| r.rtt_ms.to_bits())
                })
                .collect::<Vec<_>>()
        };
        let fast = run(false);
        let slow = run(true);
        assert_eq!(fast, slow);
        assert!(fast.iter().any(Option::is_some));
        assert!(fast.iter().any(Option::is_none), "loss must fire at 15%");
    }

    #[test]
    fn fast_and_slow_traceroutes_agree_exactly() {
        use crate::engine::{flow_seed, Flow};
        use roam_telemetry::TelemetryMode;
        // The traceroute twin of the ping test: same sweeps with and
        // without the packet story, under Summary telemetry so the
        // expiring legs' counters are compared too. The first router is
        // ICMP-silent, so every sweep also crosses a silent hop.
        let run = |trace: bool| {
            let (mut net, ue, sp) = spiky_chain();
            let r1 = net.node_id_by_name("core-r1").unwrap();
            net.set_icmp_responds(r1, false);
            net.set_telemetry_mode(TelemetryMode::Summary);
            if trace {
                net.enable_tracing();
            }
            let sweeps = (0..60u32)
                .map(|i| {
                    let mut flow = Flow::open(flow_seed(7, &format!("tr/{i}")));
                    let opts = TracerouteOpts {
                        max_ttl: 2 + (i % 6) as u8,
                        probes_per_hop: 1 + i % 3,
                    };
                    let tr = net.traceroute_flow(ue, sp, opts, &mut flow);
                    let hops = tr
                        .hops
                        .iter()
                        .map(|h| {
                            let rtts = h.rtts.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                            (h.ttl, h.node, h.ip, rtts)
                        })
                        .collect::<Vec<_>>();
                    (hops, tr.reached)
                })
                .collect::<Vec<_>>();
            (sweeps, net.take_telemetry().counters, net.icmp_ident)
        };
        let (fast, fast_counters, fast_ident) = run(false);
        let (slow, slow_counters, slow_ident) = run(true);
        assert_eq!(fast, slow);
        assert_eq!(fast_counters, slow_counters);
        assert_eq!(fast_ident, slow_ident, "one ident per probe on either walk");
        let c = |k: Counter| fast_counters[k as usize];
        assert!(c(Counter::PacketsDropped) > 0, "loss must fire at 15%");
        assert!(
            c(Counter::TtlExpired) > 0,
            "short TTLs must expire en route"
        );
        assert!(
            fast.iter().any(|(hops, _)| hops[0].1.is_none()),
            "the silent first router must leave its hop empty"
        );
        assert!(fast.iter().any(|(_, reached)| *reached));
        assert!(fast.iter().any(|(_, reached)| !*reached));
    }

    #[test]
    fn walk_reuse_never_reallocates_the_calendar() {
        use roam_telemetry::TelemetryMode;
        let (mut net, ue, sp, _) = chain();
        // The packet story forces the calendar walk (the allocation-prone
        // path); Summary mode books calendar depth per scheduled hop.
        net.enable_tracing();
        net.set_telemetry_mode(TelemetryMode::Summary);
        // Warm-up: jittered arrival times land in different wheel slots,
        // and each slot's bucket is allocated lazily on first touch, so
        // capacity climbs until the walk's reachable slot set is covered.
        for _ in 0..400 {
            assert!(net.ping(ue, sp).is_some());
        }
        let cap = net.walk_queue.capacity();
        assert!(cap > 0, "warm walk must have reserved slots");
        // Steady state: reuse must be allocation-free, walk after walk.
        for _ in 0..100 {
            assert!(net.ping(ue, sp).is_some());
            assert!(net.rtt_ms(ue, sp).is_some());
            assert_eq!(
                net.walk_queue.capacity(),
                cap,
                "a walk grew the calendar: per-walk allocation"
            );
        }
        // The calendar-depth histogram confirms walks ran through the
        // event core one in-flight hop at a time: depth stays at 1.
        let snap = net.take_telemetry();
        let depth = &snap.hists[Hist::CalendarDepth as usize];
        assert!(depth.count() > 0, "calendar depth must be booked");
        assert_eq!(
            depth.sum(),
            depth.count() as f64,
            "walks keep exactly one scheduled arrival in flight"
        );
    }

    #[test]
    fn set_link_loss_invalidates_baked_plans() {
        let (mut net, ue, sp, _) = chain();
        let mut ok = 0;
        for _ in 0..50 {
            ok += u32::from(net.ping(ue, sp).is_some());
        }
        assert_eq!(ok, 50, "lossless chain never drops");
        // Route is cached now; cranking loss to 1.0 must still take effect.
        net.set_link_loss(0, 1.0);
        assert!(net.ping(ue, sp).is_none(), "stale plan kept the old loss");
        net.set_link_loss(0, 0.0);
        assert!(net.ping(ue, sp).is_some());
    }

    #[test]
    fn rtt_retries_through_loss() {
        let (mut net, ue, sp, _) = chain();
        // 20% per-traversal loss; a ping crosses the lossy link twice, so
        // each attempt succeeds w.p. 0.64 and 3 retries w.p. ~95%.
        net.set_link_loss(0, 0.2);
        let mut got = 0;
        for _ in 0..20 {
            if net.rtt_ms(ue, sp).is_some() {
                got += 1;
            }
        }
        assert!(got >= 15, "expected ~19 of 20 successes, got {got}/20");
    }
}
