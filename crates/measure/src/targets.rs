//! Service targets: where the things we measure against live.
//!
//! The world builder registers the edge/server nodes of every service the
//! campaigns touch; measurement clients then ask for "the nearest Ookla
//! server to this city" etc. Selection by proximity to the *egress* city is
//! deliberate: Ookla, fast.com and anycast DNS all pick servers near the
//! client's **public IP geolocation**, which for a roaming eSIM is the PGW,
//! not the user (§5.1 — the source of much of the measured inflation).

use crate::cdn::CdnProvider;
use roam_geo::City;
use roam_netsim::{Network, NodeId};
use std::collections::HashMap;

/// A measurable service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Service {
    /// Google front-end (traceroute + RTT target).
    Google,
    /// Facebook edge (traceroute + RTT target).
    Facebook,
    /// YouTube front-end (traceroute target + video source).
    YouTube,
    /// Ookla speedtest server.
    Ookla,
    /// Netflix fast.com server (web campaign).
    FastCom,
    /// A CDN edge.
    Cdn(CdnProvider),
}

impl Service {
    /// The service's name as it appears in exported datasets — identical
    /// to the `Debug` rendering the CSV emitters have always used, so the
    /// columnar `service` dictionary and the historical CSV column hold
    /// the same strings (pinned by a test).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Service::Google => "Google",
            Service::Facebook => "Facebook",
            Service::YouTube => "YouTube",
            Service::Ookla => "Ookla",
            Service::FastCom => "FastCom",
            Service::Cdn(CdnProvider::Cloudflare) => "Cdn(Cloudflare)",
            Service::Cdn(CdnProvider::GoogleCdn) => "Cdn(GoogleCdn)",
            Service::Cdn(CdnProvider::JsDelivr) => "Cdn(JsDelivr)",
            Service::Cdn(CdnProvider::JQuery) => "Cdn(JQuery)",
            Service::Cdn(CdnProvider::MicrosoftAjax) => "Cdn(MicrosoftAjax)",
        }
    }
}

/// Registry of service nodes, plus DNS resolvers.
#[derive(Debug, Default)]
pub struct ServiceTargets {
    nodes: HashMap<Service, Vec<NodeId>>,
    /// CDN origin servers (used on cache misses), one per provider.
    origins: HashMap<CdnProvider, NodeId>,
    /// Google Public DNS anycast sites.
    google_dns: Vec<NodeId>,
    /// Operator-run resolvers, keyed by the MNO id that runs them.
    operator_dns: HashMap<u32, NodeId>,
}

impl ServiceTargets {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a service node.
    pub fn add(&mut self, service: Service, node: NodeId) {
        self.nodes.entry(service).or_default().push(node);
    }

    /// Register a CDN origin.
    pub fn set_origin(&mut self, provider: CdnProvider, node: NodeId) {
        self.origins.insert(provider, node);
    }

    /// Register a Google Public DNS anycast site.
    pub fn add_google_dns(&mut self, node: NodeId) {
        self.google_dns.push(node);
    }

    /// Register an operator resolver.
    pub fn set_operator_dns(&mut self, mno: roam_cellular::MnoId, node: NodeId) {
        self.operator_dns.insert(mno.0, node);
    }

    /// All nodes of a service.
    #[must_use]
    pub fn all(&self, service: Service) -> &[NodeId] {
        self.nodes.get(&service).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The service node geographically nearest to `city`.
    #[must_use]
    pub fn nearest(&self, net: &Network, service: Service, city: City) -> Option<NodeId> {
        Self::nearest_of(net, self.all(service), city)
    }

    /// The CDN origin for a provider.
    #[must_use]
    pub fn origin(&self, provider: CdnProvider) -> Option<NodeId> {
        self.origins.get(&provider).copied()
    }

    /// Google DNS sites ordered by distance from `city` (anycast routing
    /// approximation; the caller may flip between the closest two to model
    /// anycast instability).
    #[must_use]
    pub fn google_dns_by_distance(&self, net: &Network, city: City) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.google_dns.clone();
        let here = city.location();
        v.sort_by(|a, b| {
            let da = net.node(*a).city.location().distance_km(here);
            let db = net.node(*b).city.location().distance_km(here);
            da.partial_cmp(&db).expect("no NaN distances")
        });
        v
    }

    /// The registry as the clients of one endpoint whose traffic breaks
    /// out in `city` see it: each service narrowed to its node nearest to
    /// `city`, the Google DNS sites narrowed to the nearest two in
    /// distance order, and every origin and operator resolver kept. Every
    /// [`ServiceTargets::nearest`], [`ServiceTargets::google_dns_by_distance`]
    /// (first two entries) and resolver plan asked from `city` answers as
    /// on the full registry, without rescanning it per measurement.
    #[must_use]
    pub fn narrowed_to(&self, net: &Network, city: City) -> ServiceTargets {
        let nodes = self
            .nodes
            .iter()
            .filter_map(|(&service, nodes)| {
                Some((service, vec![Self::nearest_of(net, nodes, city)?]))
            })
            .collect();
        let mut google_dns = self.google_dns_by_distance(net, city);
        google_dns.truncate(2);
        ServiceTargets {
            nodes,
            origins: self.origins.clone(),
            google_dns,
            operator_dns: self.operator_dns.clone(),
        }
    }

    /// The resolver run by `mno`, if registered.
    #[must_use]
    pub fn operator_dns(&self, mno: roam_cellular::MnoId) -> Option<NodeId> {
        self.operator_dns.get(&mno.0).copied()
    }

    /// The first of the nearest `nodes` (each distance computed once).
    fn nearest_of(net: &Network, nodes: &[NodeId], city: City) -> Option<NodeId> {
        let here = city.location();
        nodes
            .iter()
            .map(|&n| (net.node(n).city.location().distance_km(here), n))
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN distances"))
            .map(|(_, n)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_netsim::NodeKind;

    fn net_with_edges() -> (Network, ServiceTargets, NodeId, NodeId) {
        let mut net = Network::new(1);
        let fra = net.add_node(
            "g-fra",
            NodeKind::SpEdge,
            City::Frankfurt,
            "142.250.1.1".parse().unwrap(),
        );
        let sgp = net.add_node(
            "g-sgp",
            NodeKind::SpEdge,
            City::Singapore,
            "142.250.2.1".parse().unwrap(),
        );
        let mut t = ServiceTargets::new();
        t.add(Service::Google, fra);
        t.add(Service::Google, sgp);
        (net, t, fra, sgp)
    }

    #[test]
    fn nearest_picks_by_geography() {
        let (net, t, fra, sgp) = net_with_edges();
        assert_eq!(t.nearest(&net, Service::Google, City::Berlin), Some(fra));
        assert_eq!(
            t.nearest(&net, Service::Google, City::KualaLumpur),
            Some(sgp)
        );
    }

    #[test]
    fn missing_service_yields_none() {
        let (net, t, _, _) = net_with_edges();
        assert!(t.nearest(&net, Service::Ookla, City::Berlin).is_none());
        assert!(t.all(Service::Facebook).is_empty());
    }

    #[test]
    fn google_dns_ordering() {
        let mut net = Network::new(1);
        let ams = net.add_node(
            "dns-ams",
            NodeKind::DnsResolver,
            City::Amsterdam,
            "8.8.8.1".parse().unwrap(),
        );
        let sgp = net.add_node(
            "dns-sgp",
            NodeKind::DnsResolver,
            City::Singapore,
            "8.8.8.2".parse().unwrap(),
        );
        let mut t = ServiceTargets::new();
        t.add_google_dns(ams);
        t.add_google_dns(sgp);
        let ordered = t.google_dns_by_distance(&net, City::Lille);
        assert_eq!(ordered, vec![ams, sgp]);
        let ordered = t.google_dns_by_distance(&net, City::Bangkok);
        assert_eq!(ordered, vec![sgp, ams]);
    }

    #[test]
    fn operator_dns_lookup() {
        let mut net = Network::new(1);
        let r = net.add_node(
            "singtel-dns",
            NodeKind::DnsResolver,
            City::Singapore,
            "165.21.83.88".parse().unwrap(),
        );
        let mut t = ServiceTargets::new();
        t.set_operator_dns(roam_cellular::MnoId(4), r);
        assert_eq!(t.operator_dns(roam_cellular::MnoId(4)), Some(r));
        assert!(t.operator_dns(roam_cellular::MnoId(5)).is_none());
    }

    #[test]
    fn service_names_match_the_debug_rendering() {
        // The trace CSV has always written `{:?}`; `name()` must stay
        // byte-identical so columnar dictionaries agree with old exports.
        let all = [
            Service::Google,
            Service::Facebook,
            Service::YouTube,
            Service::Ookla,
            Service::FastCom,
            Service::Cdn(CdnProvider::Cloudflare),
            Service::Cdn(CdnProvider::GoogleCdn),
            Service::Cdn(CdnProvider::JsDelivr),
            Service::Cdn(CdnProvider::JQuery),
            Service::Cdn(CdnProvider::MicrosoftAjax),
        ];
        for s in all {
            assert_eq!(s.name(), format!("{s:?}"));
        }
    }
}
