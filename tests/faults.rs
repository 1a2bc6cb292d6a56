//! Fault-schedule determinism: identical seeds and fault plans must
//! yield bit-identical runs across reruns and across event schedulers
//! (binary heap vs hierarchical timing wheel), *including* mid-flight
//! link-down drops, failover rerouting, wire loss, and RTO backoff with
//! deterministic jitter. Also exercises the stall watchdog end to end on
//! a permanently partitioned fabric.

use fairness_repro::dcsim::{
    BitRate, Bytes, EventQueue, Nanos, Scheduler, SchedulerKind, Simulation, TimingWheel,
};
use fairness_repro::fairsim::{CcSpec, NetEnv, ProtocolKind, Variant};
use fairness_repro::netsim::{
    self, run_watched, FaultPlan, FaultStats, FlapSchedule, FlowSpec, LinkFault, LossModel,
    MonitorConfig, NetBuilder, NetConfig, RtoBackoff, RunOutcome,
};

/// FNV-1a over a word stream — the same trace-fingerprint hash the
/// scheduler golden tests use.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Everything a faulted golden run is compared on: the structured
/// outcome, all four fault counters, dispatch count, per-flow FCTs, and
/// a hash folding the lot together.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    outcome: RunOutcome,
    stats: FaultStats,
    events_handled: u64,
    fcts: Vec<(u32, u64, u64)>,
    trace_hash: u64,
}

/// Node ids of the diamond fabric (fixed by construction order below).
struct Diamond {
    ingress: netsim::NodeId,
    upper: netsim::NodeId,
    lower: netsim::NodeId,
}

fn diamond_ids() -> Diamond {
    // 8 hosts first (ids 0..8), then switches in, upper, lower, out.
    Diamond {
        ingress: netsim::NodeId(8),
        upper: netsim::NodeId(9),
        lower: netsim::NodeId(10),
    }
}

/// Four flows crossing a two-path diamond: every sender shares the
/// ingress switch, ECMP spreads flows over the upper/lower spine, and a
/// fault plan can cut or degrade either path while traffic is in flight.
fn build_diamond(faults: FaultPlan) -> netsim::Network {
    let mut b = NetBuilder::new();
    let senders: Vec<_> = (0..4).map(|_| b.add_host()).collect();
    let receivers: Vec<_> = (0..4).map(|_| b.add_host()).collect();
    let ingress = b.add_switch();
    let upper = b.add_switch();
    let lower = b.add_switch();
    let egress = b.add_switch();
    for &h in &senders {
        b.link(h, ingress, BitRate::from_gbps(100), Nanos::MICRO);
    }
    b.link(ingress, upper, BitRate::from_gbps(100), Nanos::MICRO);
    b.link(ingress, lower, BitRate::from_gbps(100), Nanos::MICRO);
    b.link(upper, egress, BitRate::from_gbps(100), Nanos::MICRO);
    b.link(lower, egress, BitRate::from_gbps(100), Nanos::MICRO);
    for &h in &receivers {
        b.link(egress, h, BitRate::from_gbps(100), Nanos::MICRO);
    }
    let mut net = b.build(
        NetConfig {
            rto: Nanos::from_micros(50),
            rto_backoff: RtoBackoff {
                multiplier: 2,
                cap: Nanos::from_micros(400),
                jitter_frac: 0.1, // exercise the fault-stream jitter draw
            },
            faults,
            ..NetConfig::default()
        },
        MonitorConfig::default(),
    );
    let env = NetEnv::incast_star(Nanos::from_micros(7));
    let cc = CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf);
    for (i, (&src, &dst)) in senders.iter().zip(&receivers).enumerate() {
        net.add_flow(
            FlowSpec {
                src,
                dst,
                size: Bytes::from_kb(300),
                start: Nanos::ZERO,
            },
            cc.build(&env, 100 + i as u64),
        );
    }
    net
}

/// Run the diamond under `faults` to a golden fingerprint. The watchdog
/// (2 ms) comfortably exceeds both the RTT (~6 µs) and the largest
/// backed-off RTO (400 µs cap), so slow recovery never reads as a stall.
fn diamond_golden(scheduler: SchedulerKind, faults: &FaultPlan) -> Golden {
    fn go<S: Scheduler<netsim::Event> + Default>(faults: FaultPlan) -> Golden {
        let mut sim = Simulation::with_scheduler(build_diamond(faults), S::default());
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        let outcome = run_watched(
            &mut sim,
            Nanos::from_millis(20),
            u64::MAX,
            Nanos::from_millis(2),
        );
        let stats = sim.world().fault_stats();
        let fcts: Vec<(u32, u64, u64)> = sim
            .world()
            .monitor
            .fcts()
            .iter()
            .map(|r| (r.flow.0, r.start.as_u64(), r.finish.as_u64()))
            .collect();
        let words = fcts
            .iter()
            .flat_map(|&(f, s, e)| [u64::from(f), s, e])
            .chain([
                stats.wire_drops,
                stats.link_down_drops,
                stats.reroutes,
                stats.rto_fires,
            ])
            .collect::<Vec<_>>();
        Golden {
            outcome,
            stats,
            events_handled: sim.events_handled(),
            fcts,
            trace_hash: fnv1a(words),
        }
    }

    match scheduler {
        SchedulerKind::Heap => go::<EventQueue<netsim::Event>>(faults.clone()),
        SchedulerKind::Wheel => go::<TimingWheel<netsim::Event>>(faults.clone()),
    }
}

/// Outage on the upper path at 12 µs (packets in flight on it are
/// destroyed, survivors fail over to the lower path), Bernoulli wire
/// loss on the lower path, and a badly degraded host link on the first
/// receiver. Loss applies to both link directions, so the host link
/// also eats cumulative ACKs — a gap NACK can never repair those, which
/// forces the RTO/backoff machinery to fire. Every fault mechanism is
/// exercised in one run.
fn loss_and_cut_plan() -> FaultPlan {
    let d = diamond_ids();
    FaultPlan::none()
        .link(
            LinkFault::on(d.ingress, d.upper).with_flap(FlapSchedule::once(
                Nanos::from_micros(12),
                Nanos::from_micros(30),
            )),
        )
        .link(LinkFault::on(d.ingress, d.lower).with_loss(LossModel::uniform(0.01)))
        .link(
            LinkFault::on(diamond_egress(), netsim::NodeId(4)).with_loss(LossModel::uniform(0.25)),
        )
}

/// The egress switch id (fixed by construction order in
/// [`build_diamond`]: 8 hosts, then ingress/upper/lower/egress).
fn diamond_egress() -> netsim::NodeId {
    netsim::NodeId(11)
}

/// Gilbert–Elliott bursty loss on both spine paths, no topology changes.
fn bursty_plan() -> FaultPlan {
    let d = diamond_ids();
    let ge = LossModel::bursty(0.02, 0.2, 0.5);
    FaultPlan::none()
        .link(LinkFault::on(d.ingress, d.upper).with_loss(ge))
        .link(LinkFault::on(d.ingress, d.lower).with_loss(ge))
}

#[test]
fn faulted_golden_is_scheduler_and_run_invariant() {
    let plan = loss_and_cut_plan();
    let runs = [
        diamond_golden(SchedulerKind::Heap, &plan),
        diamond_golden(SchedulerKind::Heap, &plan),
        diamond_golden(SchedulerKind::Wheel, &plan),
        diamond_golden(SchedulerKind::Wheel, &plan),
    ];
    // The faults really fired: the outage destroyed in-flight frames,
    // both the down and the up transition recomputed routes, the lossy
    // wire ate packets, and go-back-N rewound senders — yet every flow
    // still completed.
    let g = &runs[0];
    assert_eq!(g.outcome, RunOutcome::Completed);
    assert_eq!(g.fcts.len(), 4, "all four flows must complete");
    assert!(
        g.stats.link_down_drops > 0,
        "outage caught nothing in flight"
    );
    assert!(g.stats.reroutes >= 2, "down+up must both recompute routes");
    assert!(g.stats.wire_drops > 0, "lossy wire dropped nothing");
    assert!(g.stats.rto_fires > 0, "recovery never rewound a sender");
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(&runs[0], r, "faulted run {i} diverged from run 0");
    }
}

#[test]
fn bursty_loss_golden_is_scheduler_and_run_invariant() {
    let plan = bursty_plan();
    let runs = [
        diamond_golden(SchedulerKind::Heap, &plan),
        diamond_golden(SchedulerKind::Heap, &plan),
        diamond_golden(SchedulerKind::Wheel, &plan),
        diamond_golden(SchedulerKind::Wheel, &plan),
    ];
    let g = &runs[0];
    assert_eq!(g.outcome, RunOutcome::Completed);
    assert!(g.stats.wire_drops > 0, "bursty channel dropped nothing");
    assert_eq!(g.stats.reroutes, 0, "loss-only plan must not reroute");
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(&runs[0], r, "bursty run {i} diverged from run 0");
    }
}

#[test]
fn empty_plan_matches_faultless_build() {
    // Zero-cost-when-off at the integration level: an explicit empty
    // plan is bit-identical to the same network with default config
    // faults, and no fault counter ever moves.
    let a = diamond_golden(SchedulerKind::Heap, &FaultPlan::none());
    let b = diamond_golden(SchedulerKind::Wheel, &FaultPlan::none());
    assert_eq!(a, b);
    assert_eq!(a.stats, FaultStats::default());
    assert_eq!(a.outcome, RunOutcome::Completed);
}

#[test]
fn fault_plans_change_the_fingerprint() {
    // The golden hash is a real function of the fault schedule.
    let clean = diamond_golden(SchedulerKind::Heap, &FaultPlan::none());
    let faulted = diamond_golden(SchedulerKind::Heap, &loss_and_cut_plan());
    let bursty = diamond_golden(SchedulerKind::Heap, &bursty_plan());
    assert_ne!(clean.trace_hash, faulted.trace_hash);
    assert_ne!(clean.trace_hash, bursty.trace_hash);
    assert_ne!(faulted.trace_hash, bursty.trace_hash);
}

#[test]
fn severed_fabric_stalls_with_offender_list() {
    // Cut both spine paths permanently while all four flows are mid
    // transfer: no route can ever deliver another byte, RTO timers keep
    // the event queue alive, and the watchdog must call the stall well
    // before the 20 ms horizon burns.
    let d = diamond_ids();
    let plan = FaultPlan::none()
        .link(
            LinkFault::on(d.ingress, d.upper)
                .with_flap(FlapSchedule::permanent(Nanos::from_micros(12))),
        )
        .link(
            LinkFault::on(d.ingress, d.lower)
                .with_flap(FlapSchedule::permanent(Nanos::from_micros(12))),
        );
    let mut sim = Simulation::new(build_diamond(plan));
    {
        let (w, q) = sim.split_mut();
        w.prime(q);
    }
    let outcome = run_watched(
        &mut sim,
        Nanos::from_millis(20),
        u64::MAX,
        Nanos::from_millis(2),
    );
    match outcome {
        RunOutcome::Stalled { flows } => {
            assert_eq!(flows.len(), 4, "all four flows are wedged: {flows:?}");
        }
        other @ (RunOutcome::Completed | RunOutcome::Horizon | RunOutcome::Budget) => {
            panic!("expected a stall, got {other}")
        }
    }
    assert!(
        sim.now() < Nanos::from_millis(20),
        "stall must be detected early, not at the horizon"
    );
    assert!(sim.world().fault_stats().link_down_drops > 0);
}
