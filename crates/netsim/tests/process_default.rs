//! The process defaults a `Network` starts with: `ROAM_FAULTS` and
//! `ROAM_TRANSPORT`, overridden process-wide by
//! `FaultSpec::override_faults` / `TransportKind::override_transport`.
//!
//! These tests change process state, so they live in their own test
//! binary, where no sibling test builds a network from a default that is
//! being changed. Each global has one test, so the two never race.

use roam_netsim::{FaultSpec, Network, TransportKind};

#[test]
fn fault_default_follows_env_then_override() {
    std::env::remove_var("ROAM_FAULTS");
    assert_eq!(FaultSpec::from_env(), FaultSpec::off());
    std::env::set_var("ROAM_FAULTS", "light");
    assert_eq!(FaultSpec::from_env(), FaultSpec::light());
    std::env::set_var("ROAM_FAULTS", "heavy");
    assert_eq!(FaultSpec::from_env(), FaultSpec::heavy());
    std::env::set_var("ROAM_FAULTS", "flap=0.4,burst=0.8");
    assert_eq!(FaultSpec::from_env().link_flap_rate, 0.4);
    std::env::remove_var("ROAM_FAULTS");

    let prev = FaultSpec::override_faults(Some(FaultSpec::heavy()));
    assert_eq!(FaultSpec::current(), FaultSpec::heavy());
    let mut net = Network::new(1);
    assert!(net.faults_enabled(), "a network starts with the default");
    net.set_faults(FaultSpec::off());
    assert!(!net.faults_enabled());
    let inner = FaultSpec::override_faults(Some(FaultSpec::off()));
    assert_eq!(inner, Some(FaultSpec::heavy()));
    assert!(!FaultSpec::current().enabled());
    FaultSpec::override_faults(prev);
}

#[test]
fn transport_default_follows_env_then_override() {
    std::env::remove_var("ROAM_TRANSPORT");
    assert_eq!(TransportKind::from_env(), TransportKind::ClosedForm);
    std::env::set_var("ROAM_TRANSPORT", "engine");
    assert_eq!(TransportKind::from_env(), TransportKind::Engine);
    std::env::set_var("ROAM_TRANSPORT", "closed");
    assert_eq!(TransportKind::from_env(), TransportKind::ClosedForm);
    std::env::remove_var("ROAM_TRANSPORT");
    assert_eq!(TransportKind::Engine.transport().name(), "engine");
    assert_eq!(TransportKind::ClosedForm.transport().name(), "closed-form");

    let prev = TransportKind::override_transport(Some(TransportKind::Engine));
    assert_eq!(TransportKind::current(), TransportKind::Engine);
    let mut net = Network::new(1);
    assert_eq!(
        net.transport(),
        TransportKind::Engine,
        "a network starts with the default"
    );
    net.set_transport(TransportKind::ClosedForm);
    assert_eq!(net.transport(), TransportKind::ClosedForm);
    let inner = TransportKind::override_transport(Some(TransportKind::ClosedForm));
    assert_eq!(inner, Some(TransportKind::Engine));
    assert_eq!(TransportKind::current(), TransportKind::ClosedForm);
    TransportKind::override_transport(prev);
}
