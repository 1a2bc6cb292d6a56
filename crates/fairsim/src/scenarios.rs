//! The experiment drivers, unified behind the [`Scenario`] trait.

use dcsim::{EventQueue, Nanos, Scheduler, SchedulerKind, Simulation, TimingWheel};
use metrics::{jain, SlowdownRecord, SlowdownTable};
use netsim::{
    run_watched, FatTreeConfig, FaultPlan, FaultStats, FctRecord, FlapSchedule, FlowSpec,
    LinkFault, LossModel, MonitorConfig, NetConfig, Network, RtoBackoff, RunOutcome, Topology,
};
use simtrace::{TraceConfig, TraceLevel, Tracer};
use workloads::{
    arrivals::{mixed_arrivals, ArrivalConfig},
    distributions, staggered_incast, IncastConfig,
};

use crate::spec::{CcSpec, NetEnv};

/// Cross-cutting parameters of one experiment run: everything that is a
/// property of *how* a scenario executes rather than *what* it simulates.
///
/// Scenario structs describe the workload (topology, flows, protocol);
/// a `RunCtx` carries the seed, the event-scheduler backend, and the
/// observability configuration. The same scenario value can be re-run
/// under different contexts (new seed, wheel vs. heap, tracing on/off)
/// without mutating it.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx {
    /// Root seed for the run's deterministic randomness.
    pub seed: u64,
    /// Event scheduler backing the run (results are scheduler-invariant;
    /// the wheel is faster on dense timer populations).
    pub scheduler: SchedulerKind,
    /// Trace/metrics collection level and subsystem filter.
    pub trace: TraceConfig,
}

impl RunCtx {
    /// A context with the given seed, default scheduler, and tracing off.
    pub fn new(seed: u64) -> Self {
        RunCtx {
            seed,
            scheduler: SchedulerKind::default(),
            trace: TraceConfig::off(),
        }
    }

    /// Select the event-scheduler backend.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Select the trace/metrics configuration.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }
}

/// An experiment that can be run under a [`RunCtx`].
///
/// All three drivers ([`IncastScenario`], [`DatacenterScenario`],
/// [`TraceScenario`]) implement this, so harness code can be generic over
/// the scenario type and thread seed/scheduler/trace settings through one
/// place instead of poking per-scenario fields.
pub trait Scenario {
    /// The result type the run produces.
    type Outcome;

    /// Execute the scenario under the given context.
    fn run_with(&self, ctx: &RunCtx) -> Self::Outcome;
}

/// Prime and run a primed network to `deadline` under scheduler `S`,
/// with a stall watchdog (see [`netsim::run_watched`]).
///
/// Every scenario funnels through here, so heap and wheel runs execute the
/// exact same driver code — the scheduler is the only degree of freedom,
/// which is what the scheduler-equivalence tests rely on. The watchdog
/// chunking is event-order transparent, so it does not perturb results.
///
/// The final `u64` is the scheduler's occupancy high-water mark (0 unless
/// the `trace` feature is compiled in).
fn drive<S: Scheduler<netsim::Event> + Default>(
    net: Network,
    deadline: Nanos,
    budget: u64,
    watchdog: Nanos,
) -> (Network, RunOutcome, u64, u64) {
    let mut sim = Simulation::with_scheduler(net, S::default());
    {
        let (w, q) = sim.split_mut();
        w.prime(q);
    }
    let outcome = run_watched(&mut sim, deadline, budget, watchdog);
    let handled = sim.events_handled();
    let occupancy = sim.occupancy_high_water() as u64;
    (sim.into_world(), outcome, handled, occupancy)
}

/// Run `net` to `deadline` on the scheduler selected by `kind`.
pub(crate) fn run_network(
    kind: SchedulerKind,
    net: Network,
    deadline: Nanos,
    budget: u64,
    watchdog: Nanos,
) -> (Network, RunOutcome, u64, u64) {
    match kind {
        SchedulerKind::Heap => drive::<EventQueue<netsim::Event>>(net, deadline, budget, watchdog),
        SchedulerKind::Wheel => {
            drive::<TimingWheel<netsim::Event>>(net, deadline, budget, watchdog)
        }
    }
}

/// Default stall-watchdog window for a run with the given deadline: a
/// quarter of the deadline, floored at 1 ms so RTT-scale quiet spells and
/// backed-off RTO waits never read as stalls (see [`netsim::run_watched`]).
fn default_watchdog(deadline: Nanos) -> Nanos {
    Nanos(deadline.as_u64() / 4).max(Nanos::from_millis(1))
}

/// Install a tracer on a freshly built network, honoring the spec-level
/// CC sampling cadence when the context leaves it unset.
fn install_tracer(net: &mut Network, cc: &CcSpec, ctx: &RunCtx) {
    let mut tcfg = ctx.trace;
    if cc.opts.trace_sample_every > 1 {
        tcfg = tcfg.with_cc_sample_every(cc.opts.trace_sample_every);
    }
    net.set_tracer(Tracer::new(tcfg));
}

/// Publish end-of-run metrics and detach the tracer for the result.
///
/// Returns `None` when tracing was configured off or compiled out, so
/// results stay lightweight on untraced runs.
fn finish_tracer(net: &mut Network) -> Option<Tracer> {
    if !simtrace::ENABLED || net.tracer().config().level == TraceLevel::Off {
        return None;
    }
    net.publish_metrics();
    Some(net.take_tracer())
}

/// A 16-1 / 96-1 staggered-incast run (Figures 1-3, 5, 6, 8, 9).
#[derive(Debug, Clone)]
pub struct IncastScenario {
    /// Incast shape (senders, flow size, stagger).
    pub incast: IncastConfig,
    /// Protocol under test.
    pub cc: CcSpec,
    /// Scenario seed.
    pub seed: u64,
    /// Monitor sampling cadence (paper figures resolve ~10 µs features).
    pub sample_interval: Nanos,
    /// Hard simulation horizon (safety net; incasts normally drain first).
    pub horizon: Nanos,
    /// Event scheduler backing the run (results are scheduler-invariant;
    /// the wheel is faster on dense timer populations).
    pub scheduler: SchedulerKind,
}

impl IncastScenario {
    /// The paper's configuration for a given sender count and protocol.
    pub fn paper(senders: usize, cc: CcSpec, seed: u64) -> Self {
        let incast = if senders == 96 {
            IncastConfig::paper_96_1()
        } else {
            IncastConfig {
                senders,
                ..IncastConfig::paper_16_1()
            }
        };
        IncastScenario {
            incast,
            cc,
            seed,
            sample_interval: Nanos::from_micros(5),
            horizon: Nanos::from_millis(50),
            scheduler: SchedulerKind::default(),
        }
    }

    /// Select the event-scheduler backend (chainable).
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Compatibility shim: run under a context assembled from this
    /// scenario's own `seed`/`scheduler` fields, with tracing off.
    /// Prefer [`Scenario::run_with`] for new code.
    pub fn run(&self) -> IncastResult {
        self.run_with(&RunCtx::new(self.seed).with_scheduler(self.scheduler))
    }
}

impl Scenario for IncastScenario {
    type Outcome = IncastResult;

    /// Run to completion (or the horizon) and collect the figure series.
    fn run_with(&self, ctx: &RunCtx) -> IncastResult {
        let topo = Topology::paper_star(self.incast.senders + 1);
        let env = NetEnv::incast_star(topo.base_rtt);
        let hosts = topo.hosts.clone();
        let receiver = hosts[self.incast.senders];
        let switch = topo.switches[0];

        let mut builder = topo.builder;
        if self.cc.needs_red() {
            builder.red_on_switches(netsim::RedConfig::dcqcn_100g());
        }
        let mut net = builder.build(
            NetConfig {
                seed: ctx.seed,
                ..NetConfig::default()
            },
            MonitorConfig {
                sample_interval: Some(self.sample_interval),
                sample_until: self.horizon,
                watch_ports: vec![],
                track_flow_rates: true,
            },
        );
        install_tracer(&mut net, &self.cc, ctx);
        // Watch the bottleneck: the switch's egress port to the receiver.
        let bottleneck = net
            .port_towards(switch, receiver)
            .expect("receiver is attached to the switch");
        net.monitor.cfg.watch_ports = vec![bottleneck];

        for (i, f) in staggered_incast(&self.incast).iter().enumerate() {
            let cc = self
                .cc
                .build(&env, ctx.seed.wrapping_mul(1009).wrapping_add(i as u64));
            net.add_flow(
                FlowSpec {
                    src: hosts[f.src],
                    dst: hosts[f.dst],
                    size: f.size,
                    start: f.start,
                },
                cc,
            );
        }

        let (mut net, outcome, events_handled, occupancy_hwm) = run_network(
            ctx.scheduler,
            net,
            self.horizon,
            2_000_000_000,
            default_watchdog(self.horizon),
        );
        assert!(
            outcome != RunOutcome::Budget,
            "incast run exploded its event budget"
        );

        // Jain over a trailing window: instantaneous 5 us rates are shot
        // noise once the fair share falls near one packet per interval
        // (96 flows at ~1 Gbps each send a packet every ~8 us), so the
        // index is computed over enough trailing samples to cover several
        // packets per flow. The window grows with the incast degree.
        let window_us = (self.incast.senders as f64 * 1.25).max(20.0);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "dimensionless, positive sample count, not a unit quantity"
        )]
        let k = (window_us / self.sample_interval.as_micros_f64()).ceil() as usize;
        let jain_series = jain_over_trailing_window(net.monitor.samples(), k.max(1));
        let mut queue_series = Vec::new();
        for s in net.monitor.samples() {
            if let Some(q) = s.queue_bytes.first() {
                queue_series.push((s.t.as_micros_f64(), *q));
            }
        }
        let all_finished = net.all_finished();
        let fcts = net.monitor.fcts().to_vec();
        let mut raw: Vec<(u32, u64, f64)> = Vec::with_capacity(fcts.len());
        for r in &fcts {
            // Same denominator as the datacenter scenarios: the pristine
            // ideal FCT, so staggered-queueing delay shows up as slowdown.
            let ideal = net.ideal_fct(r.flow);
            let slowdown = (r.fct().as_u64() as f64 / ideal.as_u64() as f64).max(1.0);
            raw.push((r.flow.0, r.size.as_u64(), slowdown));
        }
        IncastResult {
            label: self.cc.label(),
            jain: jain_series,
            queue: queue_series,
            fcts,
            raw,
            all_finished,
            outcome,
            events_handled,
            occupancy_hwm,
            trace: finish_tracer(&mut net),
        }
    }
}

/// Compute a Jain-index time series where each point uses per-flow rates
/// averaged over the trailing `k` monitor samples (flows contribute to a
/// point only while active; see `IncastScenario::run` for why smoothing
/// is needed at high incast degree).
fn jain_over_trailing_window(samples: &[netsim::Sample], k: usize) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        if s.flow_rates.is_empty() {
            continue;
        }
        let lo = i.saturating_sub(k - 1);
        // Average each currently-active flow's rate over the window,
        // counting only intervals where it appears.
        let mut rates = Vec::with_capacity(s.flow_rates.len());
        for &(fid, _) in &s.flow_rates {
            let mut sum = 0.0;
            let mut n = 0u32;
            for w in &samples[lo..=i] {
                if let Some(&(_, r)) = w.flow_rates.iter().find(|(f, _)| *f == fid) {
                    sum += r;
                    n += 1;
                }
            }
            if n > 0 {
                rates.push(sum / n as f64);
            }
        }
        if !rates.is_empty() {
            out.push((s.t.as_micros_f64(), jain(&rates)));
        }
    }
    out
}

/// Output of one incast run.
#[derive(Debug, Clone)]
pub struct IncastResult {
    /// Figure-legend label.
    pub label: String,
    /// `(time µs, Jain index)` over the run, active flows only.
    pub jain: Vec<(f64, f64)>,
    /// `(time µs, bottleneck queue bytes)`.
    pub queue: Vec<(f64, u64)>,
    /// Completion records (start-vs-finish scatter).
    pub fcts: Vec<FctRecord>,
    /// Per-flow raw outcomes `(flow id, size, slowdown)` against the
    /// pristine ideal FCT — the sample stream the fleet sweep harness
    /// aggregates into tail percentiles.
    pub raw: Vec<(u32, u64, f64)>,
    /// Whether every flow completed before the horizon.
    pub all_finished: bool,
    /// Structured run disposition from the stall watchdog (completed /
    /// horizon / stalled / budget).
    pub outcome: RunOutcome,
    /// Events the engine dispatched (scheduler-invariant; the perf
    /// baseline divides this by wall time for events/sec).
    pub events_handled: u64,
    /// Scheduler occupancy high-water mark (0 unless the `trace`
    /// feature is compiled in).
    pub occupancy_hwm: u64,
    /// Collected trace events and metrics; `None` when tracing was off.
    pub trace: Option<Tracer>,
}

impl IncastResult {
    /// Time (µs) at which the Jain index first reaches `thresh` *and*
    /// stays at or above it for the remainder of the heavy phase — the
    /// convergence-to-fairness headline number. Returns `None` if never.
    pub fn convergence_time(&self, thresh: f64) -> Option<f64> {
        // Find the last sample below the threshold; convergence is the
        // next sample's time. (Jain dips every time new flows join, so
        // "first crossing" would be misleadingly early.)
        let mut conv: Option<f64> = None;
        for &(t, j) in &self.jain {
            if j < thresh {
                conv = None;
            } else if conv.is_none() {
                conv = Some(t);
            }
        }
        conv
    }

    /// The unfairness integral `∫(1 − J(t)) dt` over the run, in
    /// µs·unfairness — the scalar convergence-quality summary (lower is
    /// better; see `metrics::unfairness_integral`).
    pub fn unfairness_integral(&self) -> f64 {
        metrics::unfairness_integral(&self.jain)
    }

    /// Peak bottleneck queue depth in bytes.
    pub fn peak_queue(&self) -> u64 {
        self.queue.iter().map(|&(_, q)| q).max().unwrap_or(0)
    }

    /// Mean bottleneck queue depth (bytes) over samples where any flow
    /// was active.
    pub fn mean_queue(&self) -> f64 {
        if self.queue.is_empty() {
            return 0.0;
        }
        self.queue.iter().map(|&(_, q)| q as f64).sum::<f64>() / self.queue.len() as f64
    }

    /// Spread between the first and last flow completion (µs) — the
    /// quantity Figures 2/3/8/9 visualize: fair protocols finish all
    /// staggered flows nearly together.
    pub fn finish_spread_us(&self) -> f64 {
        let finishes: Vec<f64> = self.fcts.iter().map(|r| r.finish.as_micros_f64()).collect();
        if finishes.len() < 2 {
            return 0.0;
        }
        let max = finishes.iter().cloned().fold(f64::MIN, f64::max);
        let min = finishes.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    }

    /// `(start µs, finish µs)` pairs, in flow order (the scatter data).
    pub fn start_finish(&self) -> Vec<(f64, f64)> {
        let mut v: Vec<(f64, f64)> = self
            .fcts
            .iter()
            .map(|r| (r.start.as_micros_f64(), r.finish.as_micros_f64()))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v
    }
}

/// A fat-tree datacenter run (Figures 10-13).
#[derive(Debug, Clone)]
pub struct DatacenterScenario {
    /// Topology.
    pub fat_tree: FatTreeConfig,
    /// Distribution names (one, or two mixed 50/50 — see
    /// [`workloads::distributions::by_name`]).
    pub workloads: Vec<String>,
    /// Offered load fraction (paper: 0.5).
    pub load: f64,
    /// Arrival horizon (paper: 50 ms; the run drains afterwards).
    pub horizon: Nanos,
    /// Protocol under test.
    pub cc: CcSpec,
    /// Scenario seed.
    pub seed: u64,
    /// Event scheduler backing the run.
    pub scheduler: SchedulerKind,
}

impl DatacenterScenario {
    /// The reduced-scale default used by the figure harness (see
    /// DESIGN.md's substitution table): 32-host fat-tree, 2 ms of
    /// arrivals. Pass `FatTreeConfig::paper()` and 50 ms for full scale.
    pub fn reduced(workloads: Vec<String>, cc: CcSpec, seed: u64) -> Self {
        DatacenterScenario {
            fat_tree: FatTreeConfig::reduced(),
            workloads,
            load: 0.5,
            horizon: Nanos::from_millis(2),
            cc,
            seed,
            scheduler: SchedulerKind::default(),
        }
    }

    /// Select the event-scheduler backend (chainable).
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Compatibility shim: run under a context assembled from this
    /// scenario's own `seed`/`scheduler` fields, with tracing off.
    /// Prefer [`Scenario::run_with`] for new code.
    pub fn run(&self) -> DatacenterResult {
        self.run_with(&RunCtx::new(self.seed).with_scheduler(self.scheduler))
    }
}

impl Scenario for DatacenterScenario {
    type Outcome = DatacenterResult;

    /// Run and build the slowdown tables.
    fn run_with(&self, ctx: &RunCtx) -> DatacenterResult {
        let topo = self.fat_tree.build();
        let env = NetEnv::fat_tree(topo.base_rtt);
        let hosts = topo.hosts.clone();

        let mut builder = topo.builder;
        if self.cc.needs_red() {
            builder.red_on_switches(netsim::RedConfig::dcqcn_100g());
        }
        let mut net = builder.build(
            NetConfig {
                seed: ctx.seed,
                ..NetConfig::default()
            },
            MonitorConfig::default(), // FCTs only; per-flow sampling off
        );
        install_tracer(&mut net, &self.cc, ctx);

        let dists: Vec<_> = self
            .workloads
            .iter()
            .map(|n| distributions::by_name(n).unwrap_or_else(|| panic!("unknown workload {n}")))
            .collect();
        let dist_refs: Vec<&workloads::EmpiricalCdf> = dists.iter().collect();
        let arrivals = mixed_arrivals(
            &ArrivalConfig {
                n_hosts: hosts.len(),
                host_rate: self.fat_tree.host_rate,
                load: self.load,
                horizon: self.horizon,
                seed: ctx.seed ^ 0xD15C0,
            },
            &dist_refs,
        );
        let n_flows = arrivals.len();
        for (i, f) in arrivals.iter().enumerate() {
            let cc = self
                .cc
                .build(&env, ctx.seed.wrapping_mul(31).wrapping_add(i as u64));
            net.add_flow(
                FlowSpec {
                    src: hosts[f.src],
                    dst: hosts[f.dst],
                    size: f.size,
                    start: f.start,
                },
                cc,
            );
        }

        // Arrivals stop at the horizon; give the tail 4x the horizon to
        // drain (starved long flows are exactly what we are measuring).
        let drain_deadline = Nanos(self.horizon.as_u64() * 5);
        let (mut net, outcome, events_handled, occupancy_hwm) = run_network(
            ctx.scheduler,
            net,
            drain_deadline,
            20_000_000_000,
            default_watchdog(drain_deadline),
        );

        let completed = net.monitor.fcts().len();
        let mut raw: Vec<(u32, u64, f64)> = Vec::with_capacity(completed);
        let records: Vec<SlowdownRecord> = net
            .monitor
            .fcts()
            .iter()
            .map(|r| {
                let ideal = net.ideal_fct(r.flow);
                // The ideal rounds serialization up per packet while the
                // link model carries picosecond residue, so a perfectly
                // scheduled flow can undershoot by a few ns; clamp at 1.
                let slowdown = (r.fct().as_u64() as f64 / ideal.as_u64() as f64).max(1.0);
                raw.push((r.flow.0, r.size.as_u64(), slowdown));
                SlowdownRecord {
                    size: r.size.as_u64(),
                    slowdown,
                }
            })
            .collect();
        let table = SlowdownTable::build(records, 100, 99.9);
        DatacenterResult {
            label: self.cc.label(),
            table,
            n_flows,
            completed,
            raw,
            outcome,
            events_handled,
            occupancy_hwm,
            trace: finish_tracer(&mut net),
        }
    }
}

/// Output of one datacenter run.
#[derive(Debug, Clone)]
pub struct DatacenterResult {
    /// Figure-legend label.
    pub label: String,
    /// Binned slowdown statistics (tail = 99.9%, median, mean per bin).
    pub table: SlowdownTable,
    /// Flows offered.
    pub n_flows: usize,
    /// Flows completed before the drain deadline.
    pub completed: usize,
    /// Per-flow raw outcomes `(flow id, size, slowdown)` for paired
    /// cross-variant analysis (see [`crate::analysis`]).
    pub raw: Vec<(u32, u64, f64)>,
    /// Structured run disposition from the stall watchdog (completed /
    /// horizon / stalled / budget).
    pub outcome: RunOutcome,
    /// Events the engine dispatched (see [`IncastResult::events_handled`]).
    pub events_handled: u64,
    /// Scheduler occupancy high-water mark (0 unless the `trace`
    /// feature is compiled in).
    pub occupancy_hwm: u64,
    /// Collected trace events and metrics; `None` when tracing was off.
    pub trace: Option<Tracer>,
}

/// Replay an explicit arrival list (a saved trace, a permutation pattern,
/// or any custom workload) on a fat-tree under one protocol variant.
///
/// This is the general-purpose runner behind `workloads::trace` and the
/// permutation ablation: anything expressible as `Vec<FlowArrival>` can
/// be driven through any [`CcSpec`].
#[derive(Debug, Clone)]
pub struct TraceScenario {
    /// Topology.
    pub fat_tree: FatTreeConfig,
    /// The flows to inject (host indices into the topology's host list).
    pub arrivals: Vec<workloads::FlowArrival>,
    /// Protocol under test.
    pub cc: CcSpec,
    /// Scenario seed (network randomness; the arrivals are fixed).
    pub seed: u64,
    /// Hard simulation deadline.
    pub deadline: Nanos,
    /// Optional per-flow rate sampling (for Jain analysis; keep `None`
    /// for large traces).
    pub sample_interval: Option<Nanos>,
    /// Event scheduler backing the run.
    pub scheduler: SchedulerKind,
}

/// Output of a trace replay.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// Figure-legend label.
    pub label: String,
    /// Completion records.
    pub fcts: Vec<netsim::FctRecord>,
    /// Per-flow `(flow id, size, slowdown)`.
    pub raw: Vec<(u32, u64, f64)>,
    /// `(time µs, Jain index)` when sampling was enabled.
    pub jain: Vec<(f64, f64)>,
    /// Whether every flow completed before the deadline.
    pub all_finished: bool,
    /// Structured run disposition from the stall watchdog (completed /
    /// horizon / stalled / budget).
    pub outcome: RunOutcome,
    /// Scheduler occupancy high-water mark (0 unless the `trace`
    /// feature is compiled in).
    pub occupancy_hwm: u64,
    /// Collected trace events and metrics; `None` when tracing was off.
    pub trace: Option<Tracer>,
}

impl TraceScenario {
    /// Select the event-scheduler backend (chainable).
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Compatibility shim: run under a context assembled from this
    /// scenario's own `seed`/`scheduler` fields, with tracing off.
    /// Prefer [`Scenario::run_with`] for new code.
    pub fn run(&self) -> TraceResult {
        self.run_with(&RunCtx::new(self.seed).with_scheduler(self.scheduler))
    }
}

impl Scenario for TraceScenario {
    type Outcome = TraceResult;

    /// Run the replay.
    fn run_with(&self, ctx: &RunCtx) -> TraceResult {
        let topo = self.fat_tree.build();
        let env = NetEnv::fat_tree(topo.base_rtt);
        let hosts = topo.hosts.clone();
        let mut builder = topo.builder;
        if self.cc.needs_red() {
            builder.red_on_switches(netsim::RedConfig::dcqcn_100g());
        }
        let mut net = builder.build(
            NetConfig {
                seed: ctx.seed,
                ..NetConfig::default()
            },
            MonitorConfig {
                sample_interval: self.sample_interval,
                sample_until: self.deadline,
                watch_ports: vec![],
                track_flow_rates: self.sample_interval.is_some(),
            },
        );
        install_tracer(&mut net, &self.cc, ctx);
        for (i, f) in self.arrivals.iter().enumerate() {
            let cc = self
                .cc
                .build(&env, ctx.seed.wrapping_mul(61).wrapping_add(i as u64));
            net.add_flow(
                FlowSpec {
                    src: hosts[f.src],
                    dst: hosts[f.dst],
                    size: f.size,
                    start: f.start,
                },
                cc,
            );
        }
        let (mut net, outcome, _, occupancy_hwm) = run_network(
            ctx.scheduler,
            net,
            self.deadline,
            20_000_000_000,
            default_watchdog(self.deadline),
        );
        let raw: Vec<(u32, u64, f64)> = net
            .monitor
            .fcts()
            .iter()
            .map(|r| {
                let ideal = net.ideal_fct(r.flow);
                (
                    r.flow.0,
                    r.size.as_u64(),
                    (r.fct().as_u64() as f64 / ideal.as_u64() as f64).max(1.0),
                )
            })
            .collect();
        let jain: Vec<(f64, f64)> = net
            .monitor
            .samples()
            .iter()
            .filter(|s| !s.flow_rates.is_empty())
            .map(|s| {
                let rates: Vec<f64> = s.flow_rates.iter().map(|(_, r)| *r).collect();
                (s.t.as_micros_f64(), jain(&rates))
            })
            .collect();
        let fcts = net.monitor.fcts().to_vec();
        let all_finished = net.all_finished();
        TraceResult {
            label: self.cc.label(),
            fcts,
            raw,
            jain,
            all_finished,
            outcome,
            occupancy_hwm,
            trace: finish_tracer(&mut net),
        }
    }
}

/// A fat-tree datacenter run under deterministic fault injection: wire
/// loss on every fabric (switch–switch) link plus an optional periodic
/// flap of one agg–spine link, with exponential RTO backoff and failover
/// rerouting absorbing the damage.
///
/// The family sweeps two knobs — mean loss rate and flap cadence — and
/// reports slowdowns against the *pristine* ideal FCTs (the denominator
/// ignores outages, so rerouting detours and retransmissions show up as
/// slowdown, exactly like the paper's tail-latency figures).
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Topology.
    pub fat_tree: FatTreeConfig,
    /// Workload distribution names (see [`DatacenterScenario::workloads`]).
    pub workloads: Vec<String>,
    /// Offered load fraction.
    pub load: f64,
    /// Arrival horizon (the run drains for 4x longer afterwards).
    pub horizon: Nanos,
    /// Protocol under test.
    pub cc: CcSpec,
    /// Scenario seed.
    pub seed: u64,
    /// Event scheduler backing the run.
    pub scheduler: SchedulerKind,
    /// Mean per-packet loss probability applied to every fabric link
    /// (0 = no wire loss).
    pub loss: f64,
    /// Model the loss as bursty Gilbert–Elliott (same mean as `loss`)
    /// instead of uniform Bernoulli.
    pub bursty: bool,
    /// Flap one agg–spine link `(period, down_for)`: down for `down_for`
    /// once every `period`, for the whole run. ECMP siblings survive, so
    /// the fabric stays connected and traffic fails over.
    pub flap: Option<(Nanos, Nanos)>,
}

impl FaultScenario {
    /// The reduced-scale default: 32-host fat-tree, 2 ms of arrivals,
    /// no faults until the knobs are set (chain [`with_loss`] /
    /// [`with_flap`]).
    ///
    /// [`with_loss`]: FaultScenario::with_loss
    /// [`with_flap`]: FaultScenario::with_flap
    pub fn reduced(workloads: Vec<String>, cc: CcSpec, seed: u64) -> Self {
        FaultScenario {
            fat_tree: FatTreeConfig::reduced(),
            workloads,
            load: 0.5,
            horizon: Nanos::from_millis(2),
            cc,
            seed,
            scheduler: SchedulerKind::default(),
            loss: 0.0,
            bursty: false,
            flap: None,
        }
    }

    /// Set the mean fabric loss rate (chainable).
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Use bursty Gilbert–Elliott loss instead of uniform (chainable).
    pub fn with_bursty(mut self) -> Self {
        self.bursty = true;
        self
    }

    /// Flap one agg–spine link: down for `down_for` every `period`
    /// (chainable).
    pub fn with_flap(mut self, period: Nanos, down_for: Nanos) -> Self {
        self.flap = Some((period, down_for));
        self
    }

    /// Select the event-scheduler backend (chainable).
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Compatibility shim mirroring the other scenarios: run under a
    /// context assembled from this scenario's own fields, tracing off.
    pub fn run(&self) -> FaultResult {
        self.run_with(&RunCtx::new(self.seed).with_scheduler(self.scheduler))
    }

    /// The loss model realizing `self.loss` as a long-run mean.
    ///
    /// The bursty channel is clean while good and parks 1/6 of packets
    /// in the bad state (enter 0.05 / exit 0.25), so the bad-state loss
    /// is scaled 6x to preserve the requested mean.
    fn loss_model(&self) -> LossModel {
        if self.bursty {
            let (p_enter, p_exit) = (0.05, 0.25);
            let pi_bad = p_enter / (p_enter + p_exit);
            LossModel::bursty(p_enter, p_exit, (self.loss / pi_bad).min(1.0))
        } else {
            LossModel::uniform(self.loss)
        }
    }

    /// Build the fault plan against the constructed topology: loss on
    /// every fabric link, the flap on the *last* fabric link (an
    /// agg–spine link in the fat tree, which always has ECMP siblings).
    fn fault_plan(&self, topo: &Topology, deadline: Nanos) -> FaultPlan {
        let is_switch = |n: netsim::NodeId| topo.switches.contains(&n);
        let fabric: Vec<(netsim::NodeId, netsim::NodeId)> = topo
            .links
            .iter()
            .copied()
            .filter(|&(a, b)| is_switch(a) && is_switch(b))
            .collect();
        assert!(
            !fabric.is_empty(),
            "fault scenario requires a topology with fabric links"
        );
        let mut plan = FaultPlan::none();
        for (i, &(a, b)) in fabric.iter().enumerate() {
            let mut f = LinkFault::on(a, b);
            if self.loss > 0.0 {
                f = f.with_loss(self.loss_model());
            }
            if i == fabric.len() - 1 {
                if let Some((period, down_for)) = self.flap {
                    assert!(
                        down_for < period,
                        "flap outage must be shorter than its period"
                    );
                    let cycles = (deadline.as_u64() / period.as_u64()).max(1);
                    f = f.with_flap(FlapSchedule::periodic(
                        period,
                        down_for,
                        period,
                        u32::try_from(cycles).unwrap_or(u32::MAX),
                    ));
                }
            }
            if f.loss.is_some() || f.flap.is_some() {
                plan = plan.link(f);
            }
        }
        plan
    }
}

impl Scenario for FaultScenario {
    type Outcome = FaultResult;

    /// Run under the fault plan and build the slowdown table.
    fn run_with(&self, ctx: &RunCtx) -> FaultResult {
        let topo = self.fat_tree.build();
        let env = NetEnv::fat_tree(topo.base_rtt);
        let hosts = topo.hosts.clone();
        let drain_deadline = Nanos(self.horizon.as_u64() * 5);
        let faults = self.fault_plan(&topo, drain_deadline);

        let mut builder = topo.builder;
        if self.cc.needs_red() {
            builder.red_on_switches(netsim::RedConfig::dcqcn_100g());
        }
        // Backoff cap well below the watchdog window: a stalled-looking
        // flow that is merely waiting out its backed-off RTO must get a
        // retransmission attempt within every watchdog chunk.
        let rto_cap = Nanos::from_millis(1);
        let mut net = builder.build(
            NetConfig {
                seed: ctx.seed,
                faults,
                rto_backoff: RtoBackoff {
                    multiplier: 2,
                    cap: rto_cap,
                    jitter_frac: 0.1,
                },
                ..NetConfig::default()
            },
            MonitorConfig::default(),
        );
        install_tracer(&mut net, &self.cc, ctx);

        let dists: Vec<_> = self
            .workloads
            .iter()
            .map(|n| distributions::by_name(n).unwrap_or_else(|| panic!("unknown workload {n}")))
            .collect();
        let dist_refs: Vec<&workloads::EmpiricalCdf> = dists.iter().collect();
        let arrivals = mixed_arrivals(
            &ArrivalConfig {
                n_hosts: hosts.len(),
                host_rate: self.fat_tree.host_rate,
                load: self.load,
                horizon: self.horizon,
                seed: ctx.seed ^ 0xD15C0,
            },
            &dist_refs,
        );
        let n_flows = arrivals.len();
        for (i, f) in arrivals.iter().enumerate() {
            let cc = self
                .cc
                .build(&env, ctx.seed.wrapping_mul(31).wrapping_add(i as u64));
            net.add_flow(
                FlowSpec {
                    src: hosts[f.src],
                    dst: hosts[f.dst],
                    size: f.size,
                    start: f.start,
                },
                cc,
            );
        }

        let watchdog = default_watchdog(drain_deadline).max(Nanos(rto_cap.as_u64() * 5));
        let (mut net, outcome, events_handled, occupancy_hwm) =
            run_network(ctx.scheduler, net, drain_deadline, 20_000_000_000, watchdog);

        let completed = net.monitor.fcts().len();
        let mut raw: Vec<(u32, u64, f64)> = Vec::with_capacity(completed);
        let records: Vec<SlowdownRecord> = net
            .monitor
            .fcts()
            .iter()
            .map(|r| {
                // ideal_fct routes over the pristine (pre-fault) table,
                // so outages inflate the numerator only.
                let ideal = net.ideal_fct(r.flow);
                let slowdown = (r.fct().as_u64() as f64 / ideal.as_u64() as f64).max(1.0);
                raw.push((r.flow.0, r.size.as_u64(), slowdown));
                SlowdownRecord {
                    size: r.size.as_u64(),
                    slowdown,
                }
            })
            .collect();
        let table = SlowdownTable::build(records, 100, 99.9);
        FaultResult {
            label: self.cc.label(),
            table,
            n_flows,
            completed,
            raw,
            outcome,
            faults: net.fault_stats(),
            events_handled,
            occupancy_hwm,
            trace: finish_tracer(&mut net),
        }
    }
}

/// Output of one fault-injection run.
#[derive(Debug, Clone)]
pub struct FaultResult {
    /// Figure-legend label.
    pub label: String,
    /// Binned slowdown statistics (vs. pristine ideal FCTs).
    pub table: SlowdownTable,
    /// Flows offered.
    pub n_flows: usize,
    /// Flows completed before the drain deadline.
    pub completed: usize,
    /// Per-flow raw outcomes `(flow id, size, slowdown)`.
    pub raw: Vec<(u32, u64, f64)>,
    /// Structured run disposition from the stall watchdog.
    pub outcome: RunOutcome,
    /// Fault-subsystem counters (wire drops, link-down drops, reroutes,
    /// RTO firings).
    pub faults: FaultStats,
    /// Events the engine dispatched.
    pub events_handled: u64,
    /// Scheduler occupancy high-water mark (0 unless the `trace`
    /// feature is compiled in).
    pub occupancy_hwm: u64,
    /// Collected trace events and metrics; `None` when tracing was off.
    pub trace: Option<Tracer>,
}

/// Largest flow size still counted as "small" when summarizing long-flow
/// tails (the paper calls flows > 1 MB "long").
pub const LONG_FLOW_BYTES: u64 = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ProtocolKind, Variant};
    use dcsim::Bytes;

    /// A tiny 4-1 incast end-to-end smoke test per protocol family.
    #[test]
    fn small_incast_completes_for_every_protocol() {
        for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift, ProtocolKind::Dcqcn] {
            let sc = IncastScenario {
                incast: IncastConfig {
                    senders: 4,
                    flow_size: Bytes::from_kb(200),
                    flows_per_interval: 2,
                    interval: Nanos::from_micros(20),
                },
                cc: CcSpec::new(kind, Variant::Default),
                seed: 5,
                sample_interval: Nanos::from_micros(5),
                horizon: Nanos::from_millis(20),
                scheduler: SchedulerKind::default(),
            };
            let res = sc.run();
            assert!(res.all_finished, "{:?} did not finish", kind);
            assert_eq!(res.fcts.len(), 4);
            assert!(!res.jain.is_empty());
            assert!(!res.queue.is_empty());
        }
    }

    #[test]
    fn incast_vai_sf_finishes_and_is_fairer_than_default_hpcc() {
        let mk = |variant| {
            IncastScenario {
                incast: IncastConfig {
                    senders: 8,
                    flow_size: Bytes::from_kb(500),
                    flows_per_interval: 2,
                    interval: Nanos::from_micros(20),
                },
                cc: CcSpec::new(ProtocolKind::Hpcc, variant),
                seed: 3,
                sample_interval: Nanos::from_micros(5),
                horizon: Nanos::from_millis(20),
                scheduler: SchedulerKind::default(),
            }
            .run()
        };
        let default = mk(Variant::Default);
        let vai_sf = mk(Variant::VaiSf);
        assert!(default.all_finished && vai_sf.all_finished);
        // The paper's core claim at micro scale: the staggered flows
        // finish closer together under VAI+SF.
        assert!(
            vai_sf.finish_spread_us() < default.finish_spread_us(),
            "VAI SF spread {} should beat default {}",
            vai_sf.finish_spread_us(),
            default.finish_spread_us()
        );
    }

    #[test]
    fn convergence_time_semantics() {
        let res = IncastResult {
            label: "x".into(),
            jain: vec![
                (0.0, 0.5),
                (10.0, 0.96),
                (20.0, 0.7),
                (30.0, 0.97),
                (40.0, 0.99),
            ],
            queue: vec![(0.0, 100), (10.0, 50)],
            fcts: vec![],
            raw: vec![],
            all_finished: true,
            outcome: RunOutcome::Completed,
            events_handled: 0,
            occupancy_hwm: 0,
            trace: None,
        };
        // The dip at t=20 resets the clock; convergence is at t=30.
        assert_eq!(res.convergence_time(0.95), Some(30.0));
        assert_eq!(res.convergence_time(0.999), None);
        assert_eq!(res.peak_queue(), 100);
    }

    #[test]
    fn trace_replay_runs_a_permutation() {
        let arrivals = workloads::permutation(8, Bytes::from_kb(200), Nanos::ZERO, 3);
        let sc = TraceScenario {
            fat_tree: FatTreeConfig {
                pods: 2,
                tors_per_pod: 1,
                aggs_per_pod: 1,
                hosts_per_tor: 4,
                spines: 1,
                ..FatTreeConfig::reduced()
            },
            arrivals,
            cc: CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
            seed: 1,
            deadline: Nanos::from_millis(10),
            sample_interval: Some(Nanos::from_micros(10)),
            scheduler: SchedulerKind::default(),
        };
        let res = sc.run();
        assert!(res.all_finished);
        assert_eq!(res.fcts.len(), 8);
        assert_eq!(res.raw.len(), 8);
        assert!(!res.jain.is_empty());
        for &(_, _, s) in &res.raw {
            assert!(s >= 1.0);
        }
    }

    #[test]
    fn trace_replay_matches_saved_trace_roundtrip() {
        // Serialize a workload, parse it back, and verify the replay is
        // byte-identical to running the original list.
        let arrivals = workloads::permutation(6, Bytes::from_kb(100), Nanos::ZERO, 9);
        let json = workloads::to_json(&arrivals);
        let replayed = workloads::from_json(&json).expect("to_json output round-trips");
        let mk = |a: Vec<workloads::FlowArrival>| TraceScenario {
            fat_tree: FatTreeConfig {
                pods: 2,
                tors_per_pod: 1,
                aggs_per_pod: 1,
                hosts_per_tor: 3,
                spines: 1,
                ..FatTreeConfig::reduced()
            },
            arrivals: a,
            cc: CcSpec::new(ProtocolKind::Swift, Variant::VaiSf),
            seed: 4,
            deadline: Nanos::from_millis(10),
            sample_interval: None,
            scheduler: SchedulerKind::default(),
        };
        let a = mk(arrivals).run();
        let b = mk(replayed).run();
        assert_eq!(a.raw, b.raw);
    }

    #[test]
    fn run_with_matches_legacy_run_shim() {
        let sc = IncastScenario {
            incast: IncastConfig {
                senders: 4,
                flow_size: Bytes::from_kb(200),
                flows_per_interval: 2,
                interval: Nanos::from_micros(20),
            },
            // Probabilistic gating actually draws from the seeded
            // stream; the deterministic variants ignore the seed.
            cc: CcSpec::new(ProtocolKind::Hpcc, Variant::Probabilistic),
            seed: 11,
            sample_interval: Nanos::from_micros(5),
            horizon: Nanos::from_millis(20),
            scheduler: SchedulerKind::default(),
        };
        let legacy = sc.run();
        let ctx = RunCtx::new(11);
        let unified = sc.run_with(&ctx);
        assert_eq!(legacy.fcts, unified.fcts);
        assert_eq!(legacy.jain, unified.jain);
        // A different context seed must actually change the run.
        let reseeded = sc.run_with(&RunCtx::new(12));
        assert_ne!(legacy.fcts, reseeded.fcts);
    }

    #[test]
    fn incast_results_are_scheduler_invariant() {
        let mk = |scheduler| {
            IncastScenario {
                incast: IncastConfig {
                    senders: 4,
                    flow_size: Bytes::from_kb(200),
                    flows_per_interval: 2,
                    interval: Nanos::from_micros(20),
                },
                cc: CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
                seed: 7,
                sample_interval: Nanos::from_micros(5),
                horizon: Nanos::from_millis(20),
                scheduler,
            }
            .run()
        };
        let heap = mk(SchedulerKind::Heap);
        let wheel = mk(SchedulerKind::Wheel);
        assert!(heap.all_finished && wheel.all_finished);
        // Same seed, same dispatch contract: bit-identical outputs.
        assert_eq!(heap.fcts, wheel.fcts);
        assert_eq!(heap.jain, wheel.jain);
        assert_eq!(heap.queue, wheel.queue);
    }

    #[test]
    fn fault_scenario_with_no_knobs_matches_clean_run() {
        // loss = 0, no flap: the fault plan is empty, so the run must be
        // bit-identical to the plain DatacenterScenario (zero-cost-when-
        // off, end to end through the scenario layer).
        let workloads = vec![distributions::FB_HADOOP.to_string()];
        let cc = CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf);
        let clean = DatacenterScenario {
            horizon: Nanos::from_micros(300),
            ..DatacenterScenario::reduced(workloads.clone(), cc, 2)
        }
        .run();
        let faulty = FaultScenario {
            horizon: Nanos::from_micros(300),
            ..FaultScenario::reduced(workloads, cc, 2)
        };
        assert!(faulty
            .fault_plan(&faulty.fat_tree.build(), Nanos::from_millis(1))
            .is_empty());
        let res = faulty.run();
        assert_eq!(res.raw, clean.raw, "empty fault plan changed results");
        assert_eq!(res.faults, netsim::FaultStats::default());
        assert_eq!(res.outcome, clean.outcome);
    }

    #[test]
    fn fault_scenario_survives_loss_and_flaps() {
        let sc = FaultScenario {
            horizon: Nanos::from_micros(300),
            ..FaultScenario::reduced(
                vec![distributions::FB_HADOOP.to_string()],
                CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
                2,
            )
        }
        .with_loss(1e-3)
        .with_flap(Nanos::from_micros(200), Nanos::from_micros(40));
        let res = sc.run();
        assert!(res.n_flows > 0);
        assert!(res.completed > 0, "no flows completed under faults");
        // The injected faults actually fired.
        assert!(res.faults.reroutes >= 2, "flap produced no reroutes");
        assert!(
            res.faults.wire_drops + res.faults.link_down_drops > 0,
            "no packets were harmed"
        );
        for &(_, _, s) in &res.raw {
            assert!(s >= 1.0);
        }
    }

    #[test]
    fn fault_scenario_is_scheduler_invariant() {
        let mk = |scheduler| {
            FaultScenario {
                horizon: Nanos::from_micros(300),
                ..FaultScenario::reduced(
                    vec![distributions::FB_HADOOP.to_string()],
                    CcSpec::new(ProtocolKind::Swift, Variant::VaiSf),
                    7,
                )
            }
            .with_loss(5e-3)
            .with_bursty()
            .with_flap(Nanos::from_micros(250), Nanos::from_micros(50))
            .with_scheduler(scheduler)
            .run()
        };
        let heap = mk(SchedulerKind::Heap);
        let wheel = mk(SchedulerKind::Wheel);
        assert_eq!(heap.raw, wheel.raw);
        assert_eq!(heap.faults, wheel.faults);
        assert_eq!(heap.outcome, wheel.outcome);
    }

    #[test]
    fn tiny_datacenter_run_produces_slowdowns() {
        let sc = DatacenterScenario {
            fat_tree: FatTreeConfig {
                pods: 2,
                tors_per_pod: 1,
                aggs_per_pod: 1,
                hosts_per_tor: 4,
                spines: 1,
                ..FatTreeConfig::reduced()
            },
            workloads: vec![distributions::FB_HADOOP.to_string()],
            load: 0.3,
            horizon: Nanos::from_micros(300),
            cc: CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
            seed: 2,
            scheduler: SchedulerKind::default(),
        };
        let res = sc.run();
        assert!(res.n_flows > 0);
        assert!(res.completed > 0, "no flows completed");
        assert!(!res.table.points.is_empty());
        for p in &res.table.points {
            assert!(p.tail >= 1.0 - 1e-6, "slowdown below 1: {}", p.tail);
            assert!(p.median <= p.tail + 1e-9);
        }
    }
}
