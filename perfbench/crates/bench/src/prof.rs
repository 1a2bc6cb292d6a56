//! Outside-in layer profiler: a `Scheduler` decorator and a
//! `CongestionControl` decorator that count and time calls into the
//! engine's layers from outside the program.
//!
//! All state lives in one thread-local [`Layers`] record. A run is
//! single-threaded, so a thread-local needs no locking, and the
//! decorators stay plain wrappers (`TracedCc` must be `Send`, which rules
//! out a shared `Rc`).
//!
//! Counts are kept whenever a decorator is in the call path. Times are
//! only taken between [`start_timing`] and [`stop_timing`], i.e. around
//! the engine loop, so set-up pushes (`Network::prime`) are counted but
//! not timed.
//!
//! Self time of a handler: the interval from a `pop` returning to the
//! next `pop` call is charged to the popped event's variant, minus the
//! measured time of the pushes and CC calls nested in it. Each interval
//! also carries the cost of the clock reads around it; [`Calibration`]
//! measures that cost once and [`Layers::self_times`] subtracts it per
//! call.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use dcsim::{BitRate, Bytes, Nanos, Scheduler};
use faircc::{AckFeedback, CcMode, CcSnapshot, CongestionControl, MetricsRegistry, SenderLimits};
use netsim::Event;

/// `netsim::Event` variants, in the order of the per-variant arrays.
pub const VARIANTS: [&str; 9] = [
    "arrive",
    "tx_done",
    "flow_try_send",
    "flow_start",
    "cc_timer",
    "sample",
    "rto",
    "pfc_set",
    "link_set",
];

/// Index of an event's variant in [`VARIANTS`].
pub fn variant_index(ev: &Event) -> usize {
    match ev {
        Event::Arrive { .. } => 0,
        Event::TxDone { .. } => 1,
        Event::FlowTrySend(_) => 2,
        Event::FlowStart(_) => 3,
        Event::CcTimer(_) => 4,
        Event::Sample => 5,
        Event::Rto(_) => 6,
        Event::PfcSet { .. } => 7,
        Event::LinkSet { .. } => 8,
    }
}

/// `CongestionControl` calls, in the order of the per-call arrays. The
/// first three are timed, the last two only counted.
pub const CC_CALLS: [&str; 5] = ["on_ack", "on_send", "on_timer", "on_cnp", "on_rto"];
/// How many of [`CC_CALLS`] are timed.
pub const CC_TIMED: usize = 3;
const ON_ACK: usize = 0;
const ON_SEND: usize = 1;
const ON_TIMER: usize = 2;
const ON_CNP: usize = 3;
const ON_RTO: usize = 4;

/// Raw counts and clock-read sums for one engine run (or several, added).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Scheduler pushes (including set-up pushes).
    pub push_n: u64,
    /// Scheduler pops that returned an event.
    pub pop_n: u64,
    /// Largest number of pending events after any push.
    pub pending_max: u64,
    /// Pushes made while timing was on.
    pub push_timed: u64,
    /// Summed measured push intervals, ns.
    pub push_ns: u64,
    /// Summed measured pop intervals, ns.
    pub pop_ns: u64,
    /// Events popped, per variant (each opens one handler interval).
    pub handler_n: [u64; 9],
    /// Summed handler intervals minus nested measured intervals, ns.
    pub handler_ns: [i64; 9],
    /// Timed calls nested in each variant's handler intervals.
    pub nested_n: [u64; 9],
    /// CC calls, per [`CC_CALLS`] entry.
    pub cc_n: [u64; 5],
    /// CC calls made while timing was on, per timed entry.
    pub cc_timed: [u64; CC_TIMED],
    /// Summed measured CC call intervals, ns.
    pub cc_ns: [u64; CC_TIMED],
}

impl Layers {
    /// Add another run's record into this one.
    pub fn add(&mut self, o: &Layers) {
        self.push_n += o.push_n;
        self.pop_n += o.pop_n;
        self.pending_max = self.pending_max.max(o.pending_max);
        self.push_timed += o.push_timed;
        self.push_ns += o.push_ns;
        self.pop_ns += o.pop_ns;
        for v in 0..VARIANTS.len() {
            self.handler_n[v] += o.handler_n[v];
            self.handler_ns[v] += o.handler_ns[v];
            self.nested_n[v] += o.nested_n[v];
        }
        for c in 0..CC_CALLS.len() {
            self.cc_n[c] += o.cc_n[c];
        }
        for c in 0..CC_TIMED {
            self.cc_timed[c] += o.cc_timed[c];
            self.cc_ns[c] += o.cc_ns[c];
        }
    }

    /// The count fields alone (what a rerun must repeat exactly), with
    /// every timing field zeroed.
    pub fn counts(&self) -> Layers {
        Layers {
            push_n: self.push_n,
            pop_n: self.pop_n,
            pending_max: self.pending_max,
            handler_n: self.handler_n,
            cc_n: self.cc_n,
            ..Layers::default()
        }
    }

    /// Number of timed intervals (pops, pushes, CC calls) in the record.
    pub fn timed_calls(&self) -> u64 {
        self.pop_n + self.push_timed + self.cc_timed.iter().sum::<u64>()
    }

    /// Per-layer self times in seconds, corrected by `cal`.
    pub fn self_times(&self, cal: &Calibration) -> SelfTimes {
        let s = |ns: f64| ns * 1e-9;
        let span = |ns: u64, n: u64| s(ns as f64 - n as f64 * cal.span_ns);
        // Every timed call inside a handler interval cost the handler one
        // full timed pair beyond its measured span, and the pop cycle that
        // opened the interval cost it one more.
        let over = cal.pair_ns - cal.span_ns;
        let mut handler = [0.0; 9];
        for (v, h) in handler.iter_mut().enumerate() {
            let calls = self.nested_n[v] + self.handler_n[v];
            *h = s(self.handler_ns[v] as f64 - calls as f64 * over);
        }
        let mut cc = [0.0; CC_TIMED];
        for (c, t) in cc.iter_mut().enumerate() {
            *t = span(self.cc_ns[c], self.cc_timed[c]);
        }
        SelfTimes {
            push: span(self.push_ns, self.push_timed),
            pop: span(self.pop_ns, self.pop_n),
            handler,
            cc,
        }
    }
}

/// Calibrated self times, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTimes {
    /// Scheduler push.
    pub push: f64,
    /// Scheduler pop.
    pub pop: f64,
    /// Handler self time per [`VARIANTS`] entry.
    pub handler: [f64; 9],
    /// Timed CC calls per [`CC_CALLS`] entry.
    pub cc: [f64; CC_TIMED],
}

impl SelfTimes {
    /// Sum over every layer.
    pub fn total(&self) -> f64 {
        self.push + self.pop + self.handler.iter().sum::<f64>() + self.cc.iter().sum::<f64>()
    }
}

struct State {
    layers: Layers,
    timing: bool,
    /// Start of the open handler interval and its variant.
    open: Option<(Instant, usize)>,
    /// Measured nested time and calls inside the open interval.
    nested_ns: u64,
    nested_calls: u64,
}

thread_local! {
    static STATE: RefCell<State> = const {
        RefCell::new(State {
            layers: Layers {
                push_n: 0,
                pop_n: 0,
                pending_max: 0,
                push_timed: 0,
                push_ns: 0,
                pop_ns: 0,
                handler_n: [0; 9],
                handler_ns: [0; 9],
                nested_n: [0; 9],
                cc_n: [0; 5],
                cc_timed: [0; CC_TIMED],
                cc_ns: [0; CC_TIMED],
            },
            timing: false,
            open: None,
            nested_ns: 0,
            nested_calls: 0,
        })
    };
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// Clear the record and stop timing.
pub fn reset() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.layers = Layers::default();
        s.timing = false;
        s.open = None;
        s.nested_ns = 0;
        s.nested_calls = 0;
    });
}

/// Start timing calls (call just before the engine loop).
pub fn start_timing() {
    STATE.with(|s| s.borrow_mut().timing = true);
}

/// Close the open handler interval at `now`, if any.
fn close(s: &mut State, now: Instant) {
    if let Some((t, v)) = s.open.take() {
        let l = &mut s.layers;
        l.handler_ns[v] += ns(t, now) as i64 - s.nested_ns as i64;
        l.nested_n[v] += s.nested_calls;
    }
    s.nested_ns = 0;
    s.nested_calls = 0;
}

/// Stop timing (call right after the engine loop returns) and close the
/// last handler interval.
pub fn stop_timing() {
    let now = Instant::now();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        close(&mut s, now);
        s.timing = false;
    });
}

/// The record so far.
pub fn take() -> Layers {
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().layers))
}

fn timing() -> bool {
    STATE.with(|s| s.borrow().timing)
}

/// Charge a measured nested interval to the open handler.
fn nested(s: &mut State, d: u64) {
    s.nested_ns += d;
    s.nested_calls += 1;
}

/// Run one CC call, counted and (while timing) timed.
fn cc_call<R>(c: usize, f: impl FnOnce() -> R) -> R {
    if c >= CC_TIMED || !timing() {
        STATE.with(|s| s.borrow_mut().layers.cc_n[c] += 1);
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let d = ns(t0, t1);
        s.layers.cc_n[c] += 1;
        s.layers.cc_timed[c] += 1;
        s.layers.cc_ns[c] += d;
        nested(&mut s, d);
    });
    r
}

/// The cost of the timing itself, measured through the same code path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Measured interval of an empty timed call, ns.
    pub span_ns: f64,
    /// Wall cost of an empty timed call as seen by its caller, ns.
    pub pair_ns: f64,
}

impl Calibration {
    /// Time `n` empty timed calls, five times, and keep the median pass.
    /// Leaves the record cleared.
    pub fn measure(n: u64) -> Calibration {
        let mut passes: Vec<Calibration> = (0..5)
            .map(|_| {
                reset();
                start_timing();
                let t0 = Instant::now();
                for _ in 0..n {
                    cc_call(ON_ACK, || black_box(()));
                }
                let t1 = Instant::now();
                let l = take();
                Calibration {
                    span_ns: l.cc_ns[ON_ACK] as f64 / n as f64,
                    pair_ns: ns(t0, t1) as f64 / n as f64,
                }
            })
            .collect();
        reset();
        passes.sort_by(|a, b| a.pair_ns.total_cmp(&b.pair_ns));
        passes[2]
    }
}

/// A `Scheduler` decorator that counts every operation and times pushes,
/// pops and the handler intervals between pops.
#[derive(Debug, Default)]
pub struct Traced<S> {
    inner: S,
}

impl<S> Traced<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        Traced { inner }
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Scheduler<Event>> Scheduler<Event> for Traced<S> {
    fn push(&mut self, at: Nanos, event: Event) {
        if !timing() {
            self.inner.push(at, event);
            let len = self.inner.len() as u64;
            STATE.with(|s| {
                let l = &mut s.borrow_mut().layers;
                l.push_n += 1;
                l.pending_max = l.pending_max.max(len);
            });
            return;
        }
        let t0 = Instant::now();
        self.inner.push(at, event);
        let t1 = Instant::now();
        let len = self.inner.len() as u64;
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let d = ns(t0, t1);
            let l = &mut s.layers;
            l.push_n += 1;
            l.pending_max = l.pending_max.max(len);
            l.push_timed += 1;
            l.push_ns += d;
            nested(&mut s, d);
        });
    }

    fn pop(&mut self) -> Option<(Nanos, Event)> {
        if !timing() {
            let r = self.inner.pop();
            if let Some((_, ev)) = &r {
                let v = variant_index(ev);
                STATE.with(|s| {
                    let l = &mut s.borrow_mut().layers;
                    l.pop_n += 1;
                    l.handler_n[v] += 1;
                });
            }
            return r;
        }
        let t0 = Instant::now();
        let r = self.inner.pop();
        let t1 = Instant::now();
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            close(&mut s, t0);
            if let Some((_, ev)) = &r {
                let v = variant_index(ev);
                s.layers.pop_n += 1;
                s.layers.handler_n[v] += 1;
                s.layers.pop_ns += ns(t0, t1);
                s.open = Some((t1, v));
            }
        });
        r
    }

    fn peek_time(&self) -> Option<Nanos> {
        self.inner.peek_time()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn total_pushed(&self) -> u64 {
        self.inner.total_pushed()
    }

    fn total_popped(&self) -> u64 {
        self.inner.total_popped()
    }

    fn clear(&mut self) {
        self.inner.clear()
    }
}

/// A `CongestionControl` decorator that counts every event callback and
/// times `on_ack`, `on_send` and `on_timer`. Every other trait method,
/// defaulted ones included, forwards unchanged.
pub struct TracedCc {
    inner: Box<dyn CongestionControl>,
}

impl TracedCc {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn CongestionControl>) -> Self {
        TracedCc { inner }
    }
}

impl CongestionControl for TracedCc {
    fn on_ack(&mut self, fb: &AckFeedback) {
        cc_call(ON_ACK, || self.inner.on_ack(fb))
    }

    fn on_cnp(&mut self, now: Nanos) {
        cc_call(ON_CNP, || self.inner.on_cnp(now))
    }

    fn on_send(&mut self, now: Nanos, bytes: Bytes) {
        cc_call(ON_SEND, || self.inner.on_send(now, bytes))
    }

    fn next_timer(&self) -> Option<Nanos> {
        self.inner.next_timer()
    }

    fn on_timer(&mut self, now: Nanos) {
        cc_call(ON_TIMER, || self.inner.on_timer(now))
    }

    fn on_rto(&mut self, now: Nanos) {
        cc_call(ON_RTO, || self.inner.on_rto(now))
    }

    fn limits(&self) -> SenderLimits {
        self.inner.limits()
    }

    fn mode(&self) -> CcMode {
        self.inner.mode()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn current_rate(&self) -> BitRate {
        self.inner.current_rate()
    }

    fn snapshot(&self) -> CcSnapshot {
        self.inner.snapshot()
    }

    fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        self.inner.publish_metrics(reg)
    }
}
