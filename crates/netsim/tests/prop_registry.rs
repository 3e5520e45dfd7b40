//! Oracle for the indexed longest-prefix lookup.
//!
//! `IpRegistry::lookup` probes an exact-match index once per registered
//! prefix length. It must answer exactly like the linear scan it
//! replaced — the longest containing prefix, and among equal prefixes
//! the last registration — on random registries packed with overlapping
//! and duplicate prefixes.

use proptest::prelude::*;
use roam_geo::City;
use roam_netsim::{Asn, IpRegistry, Ipv4Net, PrefixInfo};
use std::net::Ipv4Addr;

/// The scan the index replaced: `max_by_key` keeps the last maximum.
fn linear_lookup(reg: &IpRegistry, ip: Ipv4Addr) -> Option<&PrefixInfo> {
    reg.prefixes()
        .iter()
        .filter(|p| p.net.contains(ip))
        .max_by_key(|p| p.net.prefix_len())
}

/// An address in one of four /8s, so prefixes overlap often.
fn addr() -> impl Strategy<Value = u32> {
    (0u32..4, any::<u32>()).prop_map(|(hi, lo)| ((10 + hi) << 24) | (lo & 0x00ff_ffff))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_lookup_matches_the_linear_scan(
        regs in proptest::collection::vec((addr(), 0u8..33), 1..60),
        dups in proptest::collection::vec(0usize..60, 0..20),
        probes in proptest::collection::vec((0usize..60, any::<u32>(), addr()), 1..80),
    ) {
        let mut reg = IpRegistry::new();
        let mut nets = Vec::new();
        for (i, &(a, len)) in regs.iter().enumerate() {
            let net = Ipv4Net::new(Ipv4Addr::from(a), len);
            reg.register(net, Asn(i as u32), &format!("r{i}"), City::Amsterdam);
            nets.push(net);
        }
        // Re-register some prefixes: the later registration must win.
        for (j, &d) in dups.iter().enumerate() {
            let net = nets[d % nets.len()];
            reg.register(net, Asn(1000 + j as u32), &format!("dup{j}"), City::London);
        }
        for &(k, host, other) in &probes {
            // Half the probes land inside a registered prefix, half
            // anywhere in the four /8s.
            let ip = if k % 2 == 0 {
                let net = nets[k % nets.len()];
                let span = (net.size() - 1) as u32;
                Ipv4Addr::from(u32::from(net.network()) | (host & span))
            } else {
                Ipv4Addr::from(other)
            };
            let fast = reg.lookup(ip).map(|p| p.org.as_str());
            let slow = linear_lookup(&reg, ip).map(|p| p.org.as_str());
            prop_assert_eq!(fast, slow, "lookup of {}", ip);
        }
    }
}
