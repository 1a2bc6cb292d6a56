//! The decorators must be invisible to the simulation: every trait
//! method forwards (a missed defaulted method silently falls back to the
//! trait default and changes physics), and a decorated run reproduces
//! the public `run_with` result exactly.

use std::sync::{Arc, Mutex};

use dcsim::{BitRate, Bytes, EventQueue, Nanos, Scheduler};
use faircc::{AckFeedback, CcMode, CcSnapshot, CongestionControl, MetricsRegistry, SenderLimits};
use fairsim::{CcSpec, IncastScenario, ProtocolKind, RunCtx, Scenario, Variant};
use netsim::{Event, FlowId};
use perfbench::prof::{self, Traced, TracedCc, VARIANTS};
use perfbench::workload::{drive, Case, SetupTimes};

type Log = Arc<Mutex<Vec<&'static str>>>;

fn note(log: &Log, what: &'static str) {
    log.lock()
        .expect("no test thread panicked holding the log")
        .push(what);
}

/// A CC that overrides every method with a value no default returns.
struct ProbeCc(Log);

const PROBE_SNAPSHOT: CcSnapshot = CcSnapshot {
    window_bytes: 1234.0,
    rate: BitRate(5_000_000_000),
    vai_bank: 42.0,
};

impl CongestionControl for ProbeCc {
    fn on_ack(&mut self, _: &AckFeedback) {
        note(&self.0, "on_ack");
    }
    fn on_cnp(&mut self, _: Nanos) {
        note(&self.0, "on_cnp");
    }
    fn on_send(&mut self, _: Nanos, _: Bytes) {
        note(&self.0, "on_send");
    }
    fn next_timer(&self) -> Option<Nanos> {
        Some(Nanos(777))
    }
    fn on_timer(&mut self, _: Nanos) {
        note(&self.0, "on_timer");
    }
    fn on_rto(&mut self, _: Nanos) {
        note(&self.0, "on_rto");
    }
    fn limits(&self) -> SenderLimits {
        SenderLimits::rate_based(BitRate::from_gbps(7))
    }
    fn mode(&self) -> CcMode {
        CcMode::Rate
    }
    fn name(&self) -> &str {
        "probe"
    }
    fn current_rate(&self) -> BitRate {
        BitRate::from_gbps(3)
    }
    fn snapshot(&self) -> CcSnapshot {
        PROBE_SNAPSHOT
    }
    fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter_add("probe.published", 1);
    }
}

#[test]
fn cc_decorator_forwards_every_method() {
    let log: Log = Arc::default();
    let mut cc = TracedCc::new(Box::new(ProbeCc(log.clone())));
    prof::reset();
    prof::start_timing();
    cc.on_ack(&AckFeedback::rtt_only(Nanos(1), Nanos(2), Bytes(1000)));
    cc.on_cnp(Nanos(3));
    cc.on_send(Nanos(4), Bytes(1000));
    cc.on_timer(Nanos(5));
    cc.on_rto(Nanos(6));
    prof::stop_timing();
    let layers = prof::take();
    assert_eq!(
        *log.lock().expect("log lock"),
        ["on_ack", "on_cnp", "on_send", "on_timer", "on_rto"]
    );
    assert_eq!(layers.cc_n, [1; 5]);
    assert_eq!(layers.cc_timed, [1; 3]);

    // The defaulted methods: each differs from what the trait default
    // would return for this probe.
    assert_eq!(cc.next_timer(), Some(Nanos(777)));
    assert_eq!(cc.current_rate(), BitRate::from_gbps(3));
    assert_eq!(cc.snapshot(), PROBE_SNAPSHOT);
    let mut reg = MetricsRegistry::new();
    cc.publish_metrics(&mut reg);
    assert_eq!(reg.counter("probe.published"), Some(1));
    // And the required ones.
    assert_eq!(cc.limits(), SenderLimits::rate_based(BitRate::from_gbps(7)));
    assert_eq!(cc.mode(), CcMode::Rate);
    assert_eq!(cc.name(), "probe");
}

/// A scheduler whose every answer is distinctive (and deliberately
/// inconsistent, so a default derived from another method shows).
#[derive(Default)]
struct ProbeSched {
    pushed: Vec<Nanos>,
    cleared: bool,
}

impl Scheduler<Event> for ProbeSched {
    fn push(&mut self, at: Nanos, _: Event) {
        self.pushed.push(at);
    }
    fn pop(&mut self) -> Option<(Nanos, Event)> {
        Some((Nanos(9), Event::Sample))
    }
    fn peek_time(&self) -> Option<Nanos> {
        Some(Nanos(31))
    }
    fn len(&self) -> usize {
        5
    }
    fn is_empty(&self) -> bool {
        true
    }
    fn total_pushed(&self) -> u64 {
        11
    }
    fn total_popped(&self) -> u64 {
        13
    }
    fn clear(&mut self) {
        self.cleared = true;
    }
}

#[test]
fn scheduler_decorator_forwards_every_method() {
    prof::reset();
    let mut q = Traced::new(ProbeSched::default());
    q.push(Nanos(8), Event::FlowStart(FlowId(0)));
    assert_eq!(q.inner().pushed, [Nanos(8)]);
    assert!(matches!(q.pop(), Some((Nanos(9), Event::Sample))));
    assert_eq!(q.peek_time(), Some(Nanos(31)));
    assert_eq!(q.len(), 5);
    assert!(q.is_empty());
    assert_eq!(q.total_pushed(), 11);
    assert_eq!(q.total_popped(), 13);
    q.clear();
    assert!(q.inner().cleared);
    let layers = prof::take();
    assert_eq!((layers.push_n, layers.pop_n, layers.pending_max), (1, 1, 5));
}

#[test]
fn counting_and_timing_record_the_same_counts() {
    let case = Case::Incast(IncastScenario::paper(
        16,
        CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
        3,
    ));
    let records = [true, false].map(|timing| {
        prof::reset();
        let a = case.assemble(true, &mut SetupTimes::default());
        drive(a, Traced::new(EventQueue::<Event>::new()), timing);
        prof::take().counts()
    });
    assert_eq!(records[0], records[1]);
    assert!(
        records[0].handler_n[0] > 0,
        "arrivals are counted per variant"
    );
    assert_eq!(records[0].handler_n.iter().sum::<u64>(), records[0].pop_n);
}

#[test]
fn decorated_16_1_incast_matches_run_with_byte_for_byte() {
    for kind in [ProtocolKind::Hpcc, ProtocolKind::Swift] {
        let seed = 7;
        let scenario = IncastScenario::paper(16, CcSpec::new(kind, Variant::VaiSf), seed);
        let public = scenario.run_with(&RunCtx::new(seed));

        prof::reset();
        let case = Case::Incast(scenario);
        let assembled = case.assemble(true, &mut SetupTimes::default());
        let traced = drive(assembled, Traced::new(EventQueue::<Event>::new()), true);
        let layers = prof::take();

        assert_eq!(traced.fcts, public.fcts, "{kind:?}: completion records");
        assert_eq!(
            format!("{:?}", traced.fcts),
            format!("{:?}", public.fcts),
            "{kind:?}: completion records, bytewise"
        );
        assert_eq!(traced.digest.events, public.events_handled);
        assert_eq!(traced.run, public.outcome);
        assert_eq!(traced.digest, case.run_public().digest);

        // The record accounts for every dispatched event exactly once.
        assert_eq!(layers.pop_n, public.events_handled);
        assert_eq!(layers.handler_n.iter().sum::<u64>(), layers.pop_n);
        assert!(layers.push_n >= layers.pop_n);
        assert_eq!(
            layers.handler_n[VARIANTS.iter().position(|v| *v == "flow_start").unwrap()],
            16
        );
    }
}
