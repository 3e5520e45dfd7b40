//! The per-endpoint target view: a device campaign narrows the service
//! registry to each endpoint's breakout city once, and its clients must
//! pick exactly the targets the full registry would have given them.

use roamsim::geo::{City, Country};
use roamsim::measure::{CdnProvider, ResolverPlan, Service};
use roamsim::world::World;

#[test]
fn narrowed_views_answer_like_the_full_registry() {
    let mut world = World::build(21);
    // An operator-resolver (HR) and a Google-DNS (IHBO) endpoint, so both
    // resolver plan kinds are compared.
    let probes = [
        world.attach_esim(Country::PAK),
        world.attach_esim(Country::GEO),
    ];
    let targets = &world.internet.targets;
    let net = &world.net;
    let services: Vec<Service> = [
        Service::Google,
        Service::Facebook,
        Service::YouTube,
        Service::Ookla,
        Service::FastCom,
    ]
    .into_iter()
    .chain(CdnProvider::ALL.into_iter().map(Service::Cdn))
    .collect();
    let mut anycast_pairs = 0;
    for &city in City::ALL {
        let view = targets.narrowed_to(net, city);
        for &service in &services {
            assert_eq!(
                view.nearest(net, service, city),
                targets.nearest(net, service, city),
                "{service:?} from {city:?}"
            );
        }
        let full = targets.google_dns_by_distance(net, city);
        let near = view.google_dns_by_distance(net, city);
        assert_eq!(
            near[..],
            full[..full.len().min(2)],
            "DNS sites from {city:?}"
        );
        anycast_pairs += usize::from(near.len() == 2);
        for provider in CdnProvider::ALL {
            assert_eq!(view.origin(provider), targets.origin(provider));
        }
        for probe in &probes {
            let mut ep = probe.clone();
            ep.att.breakout_city = city;
            assert_eq!(
                ResolverPlan::new(net, &ep, &view),
                ResolverPlan::new(net, &ep, targets),
                "{} resolver plan from {city:?}",
                ep.label
            );
        }
    }
    assert_eq!(
        anycast_pairs,
        City::ALL.len(),
        "every view keeps two DNS sites"
    );
}
