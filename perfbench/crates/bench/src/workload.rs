//! The benchmark's workloads, run two ways:
//!
//! * [`Case::run_public`] — the program's own entry point,
//!   `Scenario::run_with(&RunCtx::new(seed))`, on the default scheduler.
//!   End-to-end wall time is taken around this call.
//! * [`Case::assemble`] + [`drive`] — the same scenario rebuilt from
//!   public calls (topology, arrivals, `CcSpec::build`, `add_flow`,
//!   `prime`, `run_watched`), so set-up and engine can be timed apart and
//!   the engine can run behind the [`crate::prof`] decorators.
//!
//! Both paths reduce a run to a [`Digest`]; the rebuilt run must match
//! the public one exactly, which is what shows the rebuild (and the
//! decorators) leave the physics alone.

use std::time::Instant;

use dcsim::{EventQueue, Nanos, Scheduler, Simulation};
use fairsim::scenarios::LONG_FLOW_BYTES;
use fairsim::{
    CcSpec, DatacenterScenario, IncastScenario, NetEnv, ProtocolKind, RunCtx, Scenario, Variant,
};
use netsim::{
    run_watched, Event, FatTreeConfig, FctRecord, FlowSpec, MonitorConfig, NetConfig, Network,
    RunOutcome, Topology,
};
use workloads::arrivals::{mixed_arrivals, ArrivalConfig};
use workloads::{distributions, staggered_incast, FB_HADOOP};

use crate::prof::TracedCc;

/// Nominal arrival window of the `fattree-32` cells (Fig 10's 2 ms).
pub const FATTREE_32_WINDOW: Nanos = Nanos::from_millis(2);

/// Nominal arrival window of the `fattree-320` cell.
pub const FATTREE_320_WINDOW: Nanos = Nanos::from_micros(300);

/// Jain index that counts as converged for `model.converge_us`.
pub const CONVERGED_JAIN: f64 = 0.9;

/// One scenario run of a workload.
#[derive(Debug, Clone)]
pub enum Case {
    /// A staggered incast on the single-switch star.
    Incast(IncastScenario),
    /// FB_Hadoop arrivals on a fat-tree.
    Datacenter(DatacenterScenario),
}

/// The scenario runs that make up `workload`, or `None` for an unknown
/// name.
pub fn cases(workload: &str, seed: u64) -> Option<Vec<Case>> {
    let hadoop = || vec![FB_HADOOP.to_string()];
    let cases = match workload {
        "incast-96" => [ProtocolKind::Hpcc, ProtocolKind::Swift]
            .into_iter()
            .flat_map(|kind| {
                Variant::paper_set()
                    .map(|v| Case::Incast(IncastScenario::paper(96, CcSpec::new(kind, v), seed)))
            })
            .collect(),
        "fattree-32" => [
            (ProtocolKind::Hpcc, Variant::Default),
            (ProtocolKind::Hpcc, Variant::VaiSf),
            (ProtocolKind::Swift, Variant::Default),
            (ProtocolKind::Swift, Variant::VaiSf),
        ]
        .into_iter()
        .zip(0u64..)
        .map(|((kind, v), k)| {
            // Each variant draws its own arrivals, so a run averages four
            // traffic samples and its cost moves less with the seed (Fig 10
            // itself pairs the variants on one sample).
            let s =
                DatacenterScenario::reduced(hadoop(), CcSpec::new(kind, v), seed.wrapping_add(k));
            Case::Datacenter(at_offered_volume(s, FATTREE_32_WINDOW))
        })
        .collect(),
        "fattree-320" => {
            let cc = CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf);
            let s = DatacenterScenario {
                fat_tree: FatTreeConfig::paper(),
                ..DatacenterScenario::reduced(hadoop(), cc, seed)
            };
            vec![Case::Datacenter(at_offered_volume(s, FATTREE_320_WINDOW))]
        }
        _ => return None,
    };
    Some(cases)
}

/// `s` with its arrival window cut where the offered bytes reach the
/// nominal volume of `window` (`load × hosts × host rate × window`).
///
/// FB_Hadoop sizes are heavy-tailed, so the bytes offered in a fixed
/// window swing by ±10% from seed to seed, and engine work with them.
/// Cutting the window where the offered volume is reached instead keeps
/// the work per run nearly constant: the seed picks which flows arrive,
/// not how much traffic. Arrivals are generated as `run_with` generates
/// them (same distributions, load and arrival seed), over a longer
/// window; the generator draws one stream in time order, so the flows
/// before the cut are exactly those `run_with` produces for the
/// returned horizon.
pub fn at_offered_volume(mut s: DatacenterScenario, window: Nanos) -> DatacenterScenario {
    let n_hosts = s.fat_tree.build().hosts.len();
    let host_rate = s.fat_tree.host_rate;
    let target = s.load * n_hosts as f64 * host_rate.bytes_per_sec() * window.as_secs_f64();
    let dists: Vec<_> = s
        .workloads
        .iter()
        .map(|n| distributions::by_name(n).expect("a known distribution name"))
        .collect();
    let dist_refs: Vec<&workloads::EmpiricalCdf> = dists.iter().collect();
    let long_window = Nanos(window.as_u64() * 4);
    let arrivals = mixed_arrivals(
        &ArrivalConfig {
            n_hosts,
            host_rate,
            load: s.load,
            horizon: long_window,
            seed: s.seed ^ 0xD15C0,
        },
        &dist_refs,
    );
    let mut offered = 0.0;
    let cut = arrivals.iter().find(|f| {
        offered += f.size.as_f64();
        offered >= target
    });
    s.horizon = cut.map_or(long_window, |f| Nanos(f.start.as_u64() + 1));
    s
}

/// What every run of a case must reproduce exactly: a hash of the
/// per-flow outcomes `(flow, size, slowdown bits)`, the completed-flow
/// count and the engine's dispatched-event count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a over the completed flows, in completion order.
    pub hash: u64,
    /// Flows completed.
    pub completed: u64,
    /// Events the engine dispatched.
    pub events: u64,
}

impl Digest {
    fn of(raw: &[(u32, u64, f64)], events: u64) -> Digest {
        let mut h = Fnv::new();
        for &(flow, size, slowdown) in raw {
            h.word(u64::from(flow));
            h.word(size);
            h.word(slowdown.to_bits());
        }
        h.word(events);
        Digest {
            hash: h.0,
            completed: raw.len() as u64,
            events,
        }
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold the little-endian bytes of `w` in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// The result of one public `run_with` call, reduced to what the
/// benchmark checks and reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Exact outputs.
    pub digest: Digest,
    /// How the run ended.
    pub run: RunOutcome,
    /// Flows offered.
    pub flows: u64,
    /// Convergence time to Jain >= [`CONVERGED_JAIN`], µs (incast only;
    /// 0 when the scenario has no Jain series or never converges).
    pub converge_us: f64,
    /// 99.9th-percentile slowdown of flows larger than 1 MB (fat-trees
    /// only; 0 when there are none).
    pub long_p999_slowdown: f64,
}

/// Set-up host seconds of a rebuilt run, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Topology and routing build, `add_flow`, `prime`.
    pub netsim: f64,
    /// Arrival generation.
    pub workloads: f64,
    /// `CcSpec::build` (and wrapping).
    pub cc: f64,
}

impl SetupTimes {
    /// Sum over the layers.
    pub fn total(&self) -> f64 {
        self.netsim + self.workloads + self.cc
    }

    /// Add another run's times into these.
    pub fn add(&mut self, o: &SetupTimes) {
        self.netsim += o.netsim;
        self.workloads += o.workloads;
        self.cc += o.cc;
    }
}

/// A rebuilt network ready to prime and run.
pub struct Assembled {
    net: Network,
    deadline: Nanos,
    budget: u64,
    watchdog: Nanos,
    /// Flows added.
    pub flows: u64,
    /// Payload bytes the flows offer.
    pub offered_bytes: u64,
}

/// Host seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The stall watchdog fairsim gives a run with this deadline.
fn watchdog(deadline: Nanos) -> Nanos {
    Nanos(deadline.as_u64() / 4).max(Nanos::from_millis(1))
}

/// Build one flow's CC, timed into `t.cc`, wrapped when `wrap`.
fn build_cc(
    spec: &CcSpec,
    env: &NetEnv,
    seed: u64,
    wrap: bool,
    t: &mut SetupTimes,
) -> Box<dyn faircc::CongestionControl> {
    let t0 = Instant::now();
    let cc = spec.build(env, seed);
    let cc: Box<dyn faircc::CongestionControl> = if wrap {
        Box::new(TracedCc::new(cc))
    } else {
        cc
    };
    t.cc += secs(t0);
    cc
}

impl Case {
    /// Legend label of the protocol variant.
    pub fn label(&self) -> String {
        match self {
            Case::Incast(s) => s.cc.label(),
            Case::Datacenter(s) => s.cc.label(),
        }
    }

    /// Whether this is the paper's headline variant (HPCC VAI SF), whose
    /// `model.*` scalars the benchmark reports.
    pub fn is_headline(&self) -> bool {
        let cc = match self {
            Case::Incast(s) => s.cc,
            Case::Datacenter(s) => s.cc,
        };
        cc == CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf)
    }

    /// The scenario's root seed.
    pub fn seed(&self) -> u64 {
        match self {
            Case::Incast(s) => s.seed,
            Case::Datacenter(s) => s.seed,
        }
    }

    /// Run through the program's public entry point, on the default
    /// scheduler with tracing off.
    pub fn run_public(&self) -> Outcome {
        let ctx = RunCtx::new(self.seed());
        match self {
            Case::Incast(s) => {
                let r = s.run_with(&ctx);
                Outcome {
                    digest: Digest::of(&r.raw, r.events_handled),
                    run: r.outcome.clone(),
                    flows: s.incast.senders as u64,
                    converge_us: r.convergence_time(CONVERGED_JAIN).unwrap_or(0.0),
                    long_p999_slowdown: long_p999(&r.raw),
                }
            }
            Case::Datacenter(s) => {
                let r = s.run_with(&ctx);
                Outcome {
                    digest: Digest::of(&r.raw, r.events_handled),
                    run: r.outcome.clone(),
                    flows: r.n_flows as u64,
                    converge_us: 0.0,
                    long_p999_slowdown: long_p999(&r.raw),
                }
            }
        }
    }

    /// Rebuild the scenario from public calls, as `run_with` builds it,
    /// timing each layer into `t`. With `wrap`, every flow's CC sits
    /// behind a [`TracedCc`].
    pub fn assemble(&self, wrap: bool, t: &mut SetupTimes) -> Assembled {
        let seed = self.seed();
        match self {
            Case::Incast(s) => {
                let t0 = Instant::now();
                let topo = Topology::paper_star(s.incast.senders + 1);
                let env = NetEnv::incast_star(topo.base_rtt);
                let hosts = topo.hosts.clone();
                let receiver = hosts[s.incast.senders];
                let switch = topo.switches[0];
                let mut builder = topo.builder;
                if s.cc.needs_red() {
                    builder.red_on_switches(netsim::RedConfig::dcqcn_100g());
                }
                let mut net = builder.build(
                    NetConfig {
                        seed,
                        ..NetConfig::default()
                    },
                    MonitorConfig {
                        sample_interval: Some(s.sample_interval),
                        sample_until: s.horizon,
                        watch_ports: vec![],
                        track_flow_rates: true,
                    },
                );
                let bottleneck = net
                    .port_towards(switch, receiver)
                    .expect("the receiver is attached to the switch");
                net.monitor.cfg.watch_ports = vec![bottleneck];
                t.netsim += secs(t0);

                let t0 = Instant::now();
                let arrivals = staggered_incast(&s.incast);
                t.workloads += secs(t0);

                for (i, f) in arrivals.iter().enumerate() {
                    let flow_seed = seed.wrapping_mul(1009).wrapping_add(i as u64);
                    let cc = build_cc(&s.cc, &env, flow_seed, wrap, t);
                    let t0 = Instant::now();
                    net.add_flow(
                        FlowSpec {
                            src: hosts[f.src],
                            dst: hosts[f.dst],
                            size: f.size,
                            start: f.start,
                        },
                        cc,
                    );
                    t.netsim += secs(t0);
                }
                Assembled {
                    net,
                    deadline: s.horizon,
                    budget: 2_000_000_000,
                    watchdog: watchdog(s.horizon),
                    flows: arrivals.len() as u64,
                    offered_bytes: arrivals.iter().map(|f| f.size.as_u64()).sum(),
                }
            }
            Case::Datacenter(s) => {
                let t0 = Instant::now();
                let topo = s.fat_tree.build();
                let env = NetEnv::fat_tree(topo.base_rtt);
                let hosts = topo.hosts.clone();
                let mut builder = topo.builder;
                if s.cc.needs_red() {
                    builder.red_on_switches(netsim::RedConfig::dcqcn_100g());
                }
                let mut net = builder.build(
                    NetConfig {
                        seed,
                        ..NetConfig::default()
                    },
                    MonitorConfig::default(),
                );
                t.netsim += secs(t0);

                let t0 = Instant::now();
                let dists: Vec<_> = s
                    .workloads
                    .iter()
                    .map(|n| distributions::by_name(n).expect("a known distribution name"))
                    .collect();
                let dist_refs: Vec<&workloads::EmpiricalCdf> = dists.iter().collect();
                let arrivals = mixed_arrivals(
                    &ArrivalConfig {
                        n_hosts: hosts.len(),
                        host_rate: s.fat_tree.host_rate,
                        load: s.load,
                        horizon: s.horizon,
                        seed: seed ^ 0xD15C0,
                    },
                    &dist_refs,
                );
                t.workloads += secs(t0);

                for (i, f) in arrivals.iter().enumerate() {
                    let flow_seed = seed.wrapping_mul(31).wrapping_add(i as u64);
                    let cc = build_cc(&s.cc, &env, flow_seed, wrap, t);
                    let t0 = Instant::now();
                    net.add_flow(
                        FlowSpec {
                            src: hosts[f.src],
                            dst: hosts[f.dst],
                            size: f.size,
                            start: f.start,
                        },
                        cc,
                    );
                    t.netsim += secs(t0);
                }
                let deadline = Nanos(s.horizon.as_u64() * 5);
                Assembled {
                    net,
                    deadline,
                    budget: 20_000_000_000,
                    watchdog: watchdog(deadline),
                    flows: arrivals.len() as u64,
                    offered_bytes: arrivals.iter().map(|f| f.size.as_u64()).sum(),
                }
            }
        }
    }

    /// Host seconds to set the scenario up to its first event: rebuild,
    /// then `prime` on the default scheduler. The primed simulation is
    /// dropped untimed.
    pub fn setup_s(&self) -> f64 {
        let t0 = Instant::now();
        let a = self.assemble(false, &mut SetupTimes::default());
        let mut sim = Simulation::with_scheduler(a.net, EventQueue::<Event>::new());
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        let s = secs(t0);
        drop(std::hint::black_box(sim));
        s
    }
}

/// A finished rebuilt run.
pub struct Driven {
    /// Exact outputs.
    pub digest: Digest,
    /// How the run ended.
    pub run: RunOutcome,
    /// Host seconds in `prime`.
    pub prime_s: f64,
    /// Host seconds inside `run_watched`.
    pub engine_s: f64,
    /// Allocations made inside `run_watched`.
    pub allocs: u64,
    /// Bytes allocated inside `run_watched`.
    pub alloc_bytes: u64,
    /// Completion records, in completion order.
    pub fcts: Vec<FctRecord>,
}

/// Prime and run an assembled network on `sched`. With `profile`, the
/// [`crate::prof`] record times the engine loop (pass a
/// [`crate::prof::Traced`] scheduler for that to see anything).
pub fn drive<S: Scheduler<Event>>(a: Assembled, sched: S, profile: bool) -> Driven {
    let mut sim = Simulation::with_scheduler(a.net, sched);
    let t0 = Instant::now();
    {
        let (w, q) = sim.split_mut();
        w.prime(q);
    }
    let prime_s = secs(t0);
    let (allocs0, bytes0) = crate::alloc::snapshot();
    if profile {
        crate::prof::start_timing();
    }
    let t0 = Instant::now();
    let run = run_watched(&mut sim, a.deadline, a.budget, a.watchdog);
    let engine_s = secs(t0);
    if profile {
        crate::prof::stop_timing();
    }
    let (allocs1, bytes1) = crate::alloc::snapshot();
    let events = sim.events_handled();
    let net = sim.into_world();
    let raw: Vec<(u32, u64, f64)> = net
        .monitor
        .fcts()
        .iter()
        .map(|r| {
            let ideal = net.ideal_fct(r.flow);
            let slowdown = (r.fct().as_u64() as f64 / ideal.as_u64() as f64).max(1.0);
            (r.flow.0, r.size.as_u64(), slowdown)
        })
        .collect();
    Driven {
        digest: Digest::of(&raw, events),
        run,
        prime_s,
        engine_s,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        fcts: net.monitor.fcts().to_vec(),
    }
}

/// 99.9th-percentile slowdown over flows larger than 1 MB, or 0.
fn long_p999(raw: &[(u32, u64, f64)]) -> f64 {
    let long: Vec<f64> = raw
        .iter()
        .filter(|r| r.1 > LONG_FLOW_BYTES)
        .map(|r| r.2)
        .collect();
    if long.is_empty() {
        0.0
    } else {
        metrics::percentile(&long, 99.9)
    }
}
