//! Property-based integration tests: random topologies and traffic must
//! uphold the simulator's conservation invariants. Randomness comes from
//! the in-repo deterministic RNG (seeded per case), so failures replay
//! exactly.

use fairness_repro::dcsim::{BitRate, Bytes, DetRng, Nanos, Simulation};
use fairness_repro::faircc::{AckFeedback, CcMode, CongestionControl, SenderLimits};
use fairness_repro::netsim::{FlowSpec, MonitorConfig, NetBuilder, NetConfig};

struct FixedRate(BitRate);
impl CongestionControl for FixedRate {
    fn on_ack(&mut self, _: &AckFeedback) {}
    fn limits(&self) -> SenderLimits {
        SenderLimits::rate_based(self.0)
    }
    fn mode(&self) -> CcMode {
        CcMode::Rate
    }
    fn name(&self) -> &str {
        "fixed"
    }
}

/// On a random star with random fixed-rate flows, every flow always
/// completes, every byte is conserved (acked == size), and no FCT
/// beats the physics bound size/line_rate.
#[test]
fn prop_star_flows_complete_and_conserve_bytes() {
    for case in 0..24u64 {
        let mut rng = DetRng::new(0xface_0000 + case);
        let n_hosts = 3 + rng.index(7);
        let mut b = NetBuilder::new();
        let hosts: Vec<_> = (0..n_hosts).map(|_| b.add_host()).collect();
        let sw = b.add_switch();
        for &h in &hosts {
            b.link(h, sw, BitRate::from_gbps(100), Nanos::MICRO);
        }
        let mut net = b.build(NetConfig::default(), MonitorConfig::default());
        let mut n_flows = 0usize;
        for _ in 0..1 + rng.below(11) {
            let src = rng.index(n_hosts);
            let dst = rng.index(n_hosts);
            if src == dst {
                continue;
            }
            n_flows += 1;
            net.add_flow(
                FlowSpec {
                    src: hosts[src],
                    dst: hosts[dst],
                    size: Bytes(10_000 + rng.below(490_000)),
                    start: Nanos::from_micros(rng.below(200)),
                },
                Box::new(FixedRate(BitRate::from_gbps(1 + rng.below(79)))),
            );
        }
        if n_flows == 0 {
            continue;
        }
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run_until(Nanos::from_millis(200));
        let net = sim.world();
        assert!(net.all_finished(), "case {case}: some flow never completed");
        for (i, rec) in net.monitor.fcts().iter().enumerate() {
            let f = net.flow(rec.flow);
            // Byte conservation: the sender accounted exactly the flow
            // size, no more (no duplication), no less (no loss).
            assert_eq!(f.acked, f.spec.size.0, "case {case}");
            assert_eq!(f.sent, f.spec.size.0, "case {case}");
            // Physics: FCT at least size / line-rate.
            let floor = BitRate::from_gbps(100).serialization_delay(f.spec.size);
            assert!(
                rec.fct() >= floor,
                "case {case}: flow {i} FCT {:?} beat serialization floor {floor:?}",
                rec.fct(),
            );
        }
    }
}

/// The event engine never runs time backwards and conserves pushes/pops
/// across arbitrary interleaving (driven through the whole network stack
/// rather than the raw queue).
#[test]
fn prop_simulation_time_monotone() {
    for seed in (0..1000u64).step_by(41) {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let sw = b.add_switch();
        b.link(h0, sw, BitRate::from_gbps(100), Nanos::MICRO);
        b.link(h1, sw, BitRate::from_gbps(100), Nanos::MICRO);
        let mut net = b.build(
            NetConfig {
                seed,
                ..NetConfig::default()
            },
            MonitorConfig {
                sample_interval: Some(Nanos::from_micros(7)),
                sample_until: Nanos::from_millis(1),
                watch_ports: vec![],
                track_flow_rates: true,
            },
        );
        net.add_flow(
            FlowSpec {
                src: h0,
                dst: h1,
                size: Bytes(100_000),
                start: Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(50))),
        );
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        let mut last = Nanos::ZERO;
        while sim.step() {
            assert!(sim.now() >= last, "seed {seed}: time ran backwards");
            last = sim.now();
        }
        assert!(sim.world().all_finished());
        // Samples are strictly time-ordered.
        let samples = sim.world().monitor.samples();
        for w in samples.windows(2) {
            assert!(w[1].t > w[0].t, "seed {seed}: samples out of order");
        }
    }
}
