//! Fault-plane contracts: the Gilbert–Elliott realisation must converge
//! to its stationary distribution, and the fault windows a run observes
//! must be a pure function of (seed, spec) — in particular, identical
//! under both transport implementations.

use proptest::prelude::*;
use roam_netsim::engine::flow_seed;
use roam_netsim::link::{LatencyModel, LinkClass};
use roam_netsim::{
    FaultPlane, FaultSpec, Flow, GilbertElliott, Network, NodeKind, ProbeError, SimTime,
    TransportKind,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over a period covering thousands of dwell cycles, the calendar
    /// realisation's bad-time fraction converges to `stationary_bad()`,
    /// and therefore the implied long-run loss to `stationary_loss()`.
    #[test]
    fn gilbert_elliott_converges_to_stationary(
        seed in any::<u64>(),
        mean_good_ms in 50.0f64..400.0,
        mean_bad_ms in 20.0f64..150.0,
        good_loss in 0.0f64..0.05,
        bad_loss in 0.3f64..1.0,
    ) {
        let model = GilbertElliott { mean_good_ms, mean_bad_ms, good_loss, bad_loss };
        // ~2000 mean cycles: the empirical fraction's relative sd is
        // ~sqrt(2/n) ≈ 3%, so a 15% relative (plus small absolute)
        // tolerance leaves no flake room while still detecting a broken
        // dwell distribution.
        let cycles = 2_000.0;
        let cal = model.calendar(seed, (mean_good_ms + mean_bad_ms) * cycles);
        let pb = cal.bad_fraction();
        let expect = model.stationary_bad();
        prop_assert!(
            (pb - expect).abs() < 0.15 * expect + 0.01,
            "bad fraction {pb} vs stationary {expect}"
        );
        let loss = pb * bad_loss + (1.0 - pb) * good_loss;
        let expect_loss = model.stationary_loss();
        prop_assert!(
            (loss - expect_loss).abs() < 0.15 * expect_loss + 0.01,
            "empirical loss {loss} vs stationary {expect_loss}"
        );
        // The realisation is internally consistent: sorted, disjoint,
        // in-period windows (the fraction above is derived from them).
        let mut prev_end = 0u64;
        for &(s, e) in cal.windows() {
            prop_assert!(s >= prev_end && e > s);
            prev_end = e;
        }
    }

    /// Calendar queries are pure functions of (seed, spec, entity):
    /// lazily materialised planes answer identically regardless of query
    /// order, which is what makes shard decomposition sound. Ids mix a
    /// dense low range with sparse high ones, and the planes are queried
    /// forward, in reverse and in descending id order, so the id-indexed
    /// tables grow both one slot at a time and in one jump to a high id
    /// whose lower slots are filled afterwards. Failover registrations on
    /// a subset of gateways ride the same grow paths.
    #[test]
    fn fault_plane_answers_are_query_order_free(
        master in any::<u64>(),
        entities in proptest::collection::vec(
            (prop_oneof![0u32..32, 1_000u32..8_192], 0u64..20_000),
            1..24,
        ),
        failover_every in 2usize..5,
    ) {
        let spec = FaultSpec::heavy();
        let gateways: Vec<u32> = entities
            .iter()
            .step_by(failover_every)
            .map(|&(id, _)| id)
            .collect();
        let plane = |registration: &mut dyn Iterator<Item = &u32>| {
            let mut p = FaultPlane::new(spec);
            for &id in registration {
                p.set_failover(id, SimTime::from_ms(f64::from(id % 17) + 1.0));
            }
            p
        };
        let answer = |plane: &mut FaultPlane, &(id, ms): &(u32, u64)| {
            let at = SimTime::from_ms(ms as f64);
            (
                plane.link_burst_loss(master, id, at).map(f64::to_bits),
                plane.cgnat_state(master, id, at),
                plane.dns_dark(master, id, at),
            )
        };
        let mut forward = plane(&mut gateways.iter());
        let fwd: Vec<_> = entities.iter().map(|e| answer(&mut forward, e)).collect();

        let mut reverse = plane(&mut gateways.iter().rev());
        let mut rev: Vec<_> = entities.iter().rev().map(|e| answer(&mut reverse, e)).collect();
        rev.reverse();
        prop_assert_eq!(&fwd, &rev);

        let mut by_id: Vec<usize> = (0..entities.len()).collect();
        by_id.sort_by_key(|&i| std::cmp::Reverse(entities[i].0));
        let mut descending = plane(&mut gateways.iter().rev());
        let mut desc = vec![None; entities.len()];
        for &i in &by_id {
            desc[i] = Some(answer(&mut descending, &entities[i]));
        }
        let desc: Vec<_> = desc.into_iter().map(Option::unwrap).collect();
        prop_assert_eq!(&fwd, &desc);

        // Each answer also equals a fresh plane's: no state leaks between
        // entities sharing a table.
        for (e, got) in entities.iter().zip(&fwd) {
            prop_assert_eq!(got, &answer(&mut plane(&mut gateways.iter()), e));
        }
        // The tallies are order-free too.
        prop_assert_eq!(
            (forward.drops(), forward.failovers()),
            (descending.drops(), descending.failovers())
        );
    }
}

/// Build a small lossy topology with a dark-able gateway and run a fixed
/// probe schedule under the heavy fault schedule and `transport`,
/// returning every typed outcome plus the fault plane's tallies.
fn probe_trace(seed: u64, transport: TransportKind) -> (Vec<String>, u64, u64) {
    let mut net = Network::new(seed);
    net.set_faults(FaultSpec::heavy());
    net.set_transport(transport);
    let ue = net.add_node(
        "ue",
        NodeKind::Host,
        roam_geo::City::Doha,
        "10.0.0.2".parse().unwrap(),
    );
    let nat = net.add_node(
        "nat",
        NodeKind::CgNat,
        roam_geo::City::Lille,
        "141.95.2.2".parse().unwrap(),
    );
    let dst = net.add_node(
        "edge",
        NodeKind::SpEdge,
        roam_geo::City::Paris,
        "142.250.3.3".parse().unwrap(),
    );
    net.link_with(
        ue,
        nat,
        LinkClass::Tunnel,
        LatencyModel::fixed(45.0, 2.0),
        0.02,
    );
    net.link_with(
        nat,
        dst,
        LinkClass::Peering,
        LatencyModel::fixed(4.0, 0.5),
        0.01,
    );
    net.set_failover(nat, SimTime::from_ms(11.0));
    let mut flow = Flow::open(flow_seed(seed, "prop/faults/windows"));
    let outcomes: Vec<String> = (0..96)
        .map(|_| match net.rtt_probe_checked(ue, dst, &mut flow) {
            Ok(s) => format!("ok:{}:{}", s.rtt_ms.to_bits(), s.attempts),
            Err(ProbeError::Lost) => "lost".into(),
            Err(ProbeError::NoRoute) => "noroute".into(),
            Err(ProbeError::Silent) => "silent".into(),
        })
        .collect();
    (outcomes, net.fault_drops(), net.fault_failovers())
}

/// The fault windows — and everything a probe observes through them — are
/// transport-independent: the exact per-probe outcome sequence, drop tally
/// and failover tally agree bit-for-bit under both backends.
#[test]
fn fault_windows_identical_under_both_transports() {
    let mut perturbed = false;
    for seed in [3u64, 17, 4242, 0x00C0_FFEE] {
        let closed = probe_trace(seed, TransportKind::ClosedForm);
        let engine = probe_trace(seed, TransportKind::Engine);
        assert_eq!(
            closed, engine,
            "seed {seed}: transports disagree on fault windows"
        );
        // Heavy's entity selection is fractional, so one seed may roll an
        // entirely healthy topology — but not all of them.
        perturbed |= closed.1 > 0 || closed.2 > 0 || closed.0.iter().any(|o| o == "lost");
    }
    assert!(perturbed, "heavy schedule never perturbed any probe");
}
