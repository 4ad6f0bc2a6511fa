//! Integration: attested inter-CVM shared-memory channels — the
//! measurement-pair handshake policy, lifecycle teardown, and doorbell
//! fault idempotence, end to end through the system builder.

use cg_core::experiments::ivc::IVC_CHANNEL;
use cg_core::{System, SystemConfig, VmId, VmSpec};
use cg_sim::{FaultPlan, SimDuration};
use cg_workloads::ivc::{IvcConsumer, IvcProducer};
use cg_workloads::kernel::GuestKernel;

fn config() -> SystemConfig {
    let mut c = SystemConfig::paper_default();
    c.seed = 11;
    c.rmm = cg_rmm::RmmConfig::core_gapped();
    c.num_host_cores = 1;
    c.machine.num_cores = 4;
    c
}

/// Two core-gapped realms joined by a channel: a producer streaming
/// `count` messages and a consumer expecting them.
fn stream_pair(c: &SystemConfig, count: u64) -> (System, VmId, VmId) {
    let mut system = System::new(c.clone());
    let prod = IvcProducer::new(IVC_CHANNEL, 4096, count, SimDuration::micros(5));
    let cons = IvcConsumer::new(IVC_CHANNEL, count);
    let ga = GuestKernel::new(1, c.host.guest_hz, Box::new(prod));
    let gb = GuestKernel::new(1, c.host.guest_hz, Box::new(cons));
    let vma = system
        .add_vm(VmSpec::core_gapped(1), Box::new(ga), None)
        .expect("producer VM");
    let vmb = system
        .add_vm(
            VmSpec::core_gapped(1).with_ivc_peer(vma.0 as u32, IVC_CHANNEL),
            Box::new(gb),
            None,
        )
        .expect("consumer VM");
    (system, vma, vmb)
}

/// The RMM refuses the channel handshake unless the measurement pair
/// was explicitly allowed — and the refusal is observable.
#[test]
fn channel_handshake_requires_allowed_pair() {
    let c = config();
    let mut system = System::new(c.clone());
    let mk = |count| {
        Box::new(GuestKernel::new(
            1,
            c.host.guest_hz,
            Box::new(IvcProducer::new(7, 64, count, SimDuration::micros(5))),
        ))
    };
    let vma = system
        .add_vm(VmSpec::core_gapped(1), mk(1), None)
        .expect("VM a");
    let vmb = system
        .add_vm(VmSpec::core_gapped(1), mk(1), None)
        .expect("VM b");
    // No allow_ivc_pair: the IVC_CHANNEL_CREATE handshake must fail.
    assert!(
        system.connect_ivc(vma, vmb, 0).is_err(),
        "channel created without an allowed measurement pair"
    );
    assert!(
        system.rmm().stats().ivc_pairs_rejected > 0,
        "rejected handshake left no audit trail"
    );
    assert_eq!(system.rmm().stats().ivc_channels_created, 0);
    // After allowing the pair the handshake succeeds (fresh channel id:
    // the rejected attempt's window region stays consumed).
    system.allow_ivc_pair(vma, vmb).expect("policy update");
    system.connect_ivc(vma, vmb, 1).expect("allowed handshake");
    assert_eq!(system.rmm().stats().ivc_channels_created, 1);
    assert!(system.ivc_ring_stats(1).is_some());
}

/// Destroying an endpoint realm tears the channel down through the RMM
/// (unmapping the window and undelegating the doorbell SPI), and the
/// surviving peer can still be destroyed cleanly.
#[test]
fn destroy_vm_tears_down_channels() {
    let (mut system, vma, vmb) = stream_pair(&config(), 30);
    assert!(system.run_until_done(SimDuration::secs(60)));
    assert!(system.ivc_ring_stats(IVC_CHANNEL).is_some());
    assert_eq!(system.rmm().stats().ivc_channels_created, 1);
    system.destroy_vm(vma).expect("destroy producer");
    assert_eq!(system.rmm().stats().ivc_channels_destroyed, 1);
    assert!(
        system.ivc_ring_stats(IVC_CHANNEL).is_none(),
        "channel runtime survived endpoint destruction"
    );
    system.destroy_vm(vmb).expect("destroy consumer");
    assert_eq!(system.rmm().stats().ivc_channels_destroyed, 1);
}

/// Host-duplicated doorbells are idempotent: the second ring finds a
/// drained, re-armed ring and injects nothing the guest can observe —
/// no duplicate or reordered messages, deterministically.
#[test]
fn duplicated_doorbells_are_idempotent() {
    let plan = FaultPlan {
        dup_ivc_doorbell_p: 0.5,
        ..FaultPlan::none()
    };
    let run = |seed| {
        cg_core::experiments::ivc::run_ivc_stream(
            4096,
            60,
            SimDuration::micros(5),
            seed,
            plan.clone(),
        )
    };
    let a = run(11);
    assert_eq!(a.received, 60, "duplication lost or spilled messages");
    assert_eq!(a.out_of_order, 0, "duplication reordered the stream");
    let b = run(11);
    assert_eq!(a, b, "duplicated doorbells broke determinism");
}

/// The system-level ring statistics reconcile with the guest-visible
/// counters: every publish is drained, nothing invented or lost.
#[test]
fn channel_ring_stats_reconcile() {
    let c = config();
    let mut system = System::new(c.clone());
    let count = 25;
    let prod = IvcProducer::new(IVC_CHANNEL, 1024, count, SimDuration::micros(3));
    let cons = IvcConsumer::new(IVC_CHANNEL, count);
    let ga = GuestKernel::new(1, c.host.guest_hz, Box::new(prod));
    let gb = GuestKernel::new(1, c.host.guest_hz, Box::new(cons));
    let vma = system
        .add_vm(VmSpec::core_gapped(1), Box::new(ga), None)
        .expect("VM a");
    let _vmb = system
        .add_vm(
            VmSpec::core_gapped(1).with_ivc_peer(vma.0 as u32, IVC_CHANNEL),
            Box::new(gb),
            None,
        )
        .expect("VM b");
    assert!(system.run_until_done(SimDuration::secs(60)));
    let stats = system.ivc_ring_stats(IVC_CHANNEL).expect("channel stats");
    assert_eq!(stats.published, count);
    assert_eq!(stats.drained, count);
    assert_eq!(
        system.metrics().counters.get("ivc.messages_sent"),
        system.metrics().counters.get("ivc.messages_drained"),
    );
}
