//! `perfbench` — run one paper workload and print its metrics.
//!
//! ```text
//! perfbench --workload incast-96|fattree-32|fattree-320
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every run first rebuilds each scenario once behind the counting
//! decorators (the warm-up, the reference digest and the exact counts).
//! It then repeats passes over the workload's scenarios until `--seconds`
//! have elapsed:
//!
//! * `--trace 0`: each scenario through `Scenario::run_with` (timed:
//!   `wall_s`), plus its set-up alone, three times (timed: `setup_s`).
//!   The reference kernel (see [`refkernel`]) runs after each call, for
//!   about a twentieth of the call's time and at least once.
//!   A metric is the sum over scenarios of the per-scenario median,
//!   divided by the run's median kernel time: seconds at the reference
//!   host's speed. Next to them: the sum over scenarios of the most heap a
//!   `run_with` call held at once beyond what was held when it began.
//! * `--trace 1`: each scenario through `run_with`, rebuilt untraced, and
//!   rebuilt traced; reports the per-layer metrics of the median pass.
//!
//! Every run's digest must equal the reference. The last stdout line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`; the
//! exit code is 1 if any scenario run failed a check.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use dcsim::EventQueue;
use netsim::{Event, RunOutcome};
use perfbench::prof::{self, Calibration, Layers, Traced, CC_CALLS, CC_TIMED, VARIANTS};
use perfbench::refkernel;
use perfbench::workload::{self, drive, secs, Case, Digest, Fnv, Outcome, SetupTimes};

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload incast-96|fattree-32|fattree-320 \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Root seed when `--seed` is absent (the `repro` default).
const DEFAULT_SEED: u64 = 42;

const MIB: f64 = 1024.0 * 1024.0;

/// Set-ups timed per scenario per untraced pass.
const SETUP_REPEATS: usize = 3;

/// Share of a timed call's host time that the reference kernel runs for
/// after it (at least one run).
const KERNEL_SHARE: f64 = 0.05;

/// Empty timed calls per calibration pass.
const CALIBRATION_CALLS: u64 = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Attempted and failed scenario runs, with the reason for each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Count one run; record `problem` as a failure if there is one.
    fn check(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            eprintln!("FAILED {what}: {p}");
            self.failures.push(format!("{what}: {p}"));
        }
    }
}

/// Why a finished run fails its output checks, if it does.
fn verdict(run: &RunOutcome, digest: Digest, reference: Digest) -> Option<String> {
    if matches!(run, RunOutcome::Stalled { .. } | RunOutcome::Budget) {
        return Some(format!("run ended {run}"));
    }
    (digest != reference).then(|| format!("digest {digest:?} != reference {reference:?}"))
}

/// Run `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

/// A rebuild of one scenario behind the decorators.
struct TracedRun {
    digest: Digest,
    run: RunOutcome,
    engine_s: f64,
    offered_bytes: u64,
    layers: Layers,
}

/// Rebuild `case` behind the decorators; they always count, and with
/// `timing` they also time the engine loop.
fn traced_rebuild(case: &Case, timing: bool) -> TracedRun {
    prof::reset();
    let a = case.assemble(true, &mut SetupTimes::default());
    let offered_bytes = a.offered_bytes;
    let d = drive(a, Traced::new(EventQueue::<Event>::new()), timing);
    TracedRun {
        digest: d.digest,
        run: d.run,
        engine_s: d.engine_s,
        offered_bytes,
        layers: prof::take(),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Exact per-run outputs of the workload, for the `model.*` metrics.
struct Model {
    completed: u64,
    digest: u64,
    long_p999_slowdown: f64,
    converge_us: f64,
}

impl Model {
    fn of(cases: &[Case], outcomes: &[Outcome]) -> Model {
        let mut h = Fnv::new();
        let mut m = Model {
            completed: 0,
            digest: 0,
            long_p999_slowdown: 0.0,
            converge_us: 0.0,
        };
        for (case, o) in cases.iter().zip(outcomes) {
            h.word(o.digest.hash);
            m.completed += o.digest.completed;
            if case.is_headline() {
                m.long_p999_slowdown = o.long_p999_slowdown;
                m.converge_us = o.converge_us;
            }
        }
        // Keep 52 bits so the value survives a JSON double exactly.
        m.digest = h.0 >> 12;
        m
    }
}

/// Per-pass sums of the traced measurement.
#[derive(Default)]
struct TracePass {
    wall_s: f64,
    setup: SetupTimes,
    prime_s: f64,
    engine_s: f64,
    traced_engine_s: f64,
    allocs: u64,
    alloc_bytes: u64,
    flows: u64,
    events: u64,
    layers: Layers,
    self_s: prof::SelfTimes,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(cases) = workload::cases(&args.workload, args.seed) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let mut tally = Tally::default();
    let mut kernel_state = refkernel::RefKernel::new();

    // Warm-up and reference: every scenario rebuilt behind the decorators,
    // counting only.
    let mut refs: Vec<TracedRun> = Vec::with_capacity(cases.len());
    for case in &cases {
        let what = format!("{} traced rebuild", case.label());
        match guarded(|| traced_rebuild(case, false)) {
            Ok(t) => {
                let bad = matches!(t.run, RunOutcome::Stalled { .. } | RunOutcome::Budget);
                tally.check(&what, bad.then(|| format!("run ended {}", t.run)));
                refs.push(t);
            }
            Err(e) => {
                tally.check(&what, Some(e));
                return finish(&tally, Vec::new());
            }
        }
    }

    let start = Instant::now();
    let mut first: Option<Vec<Outcome>> = None;
    // Per-case host times; a metric is the sum of per-case medians over
    // the median kernel time of the whole run.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut heap_peaks = vec![0u64; cases.len()];
    let mut kernels = Vec::new();
    let mut passes = 0;
    let mut traced_passes: Vec<TracePass> = Vec::new();
    let cal = args.trace.then(|| Calibration::measure(CALIBRATION_CALLS));
    loop {
        let mut pass = TracePass::default();
        let mut outcomes = Vec::with_capacity(cases.len());
        for (i, case) in cases.iter().enumerate() {
            let reference = refs[i].digest;
            let held = perfbench::alloc::start_peak();
            let t0 = Instant::now();
            let public = guarded(|| case.run_public());
            let wall = secs(t0);
            heap_peaks[i] = heap_peaks[i].max(perfbench::alloc::peak_bytes() - held);
            // Sample the host's speed all through the run, in proportion
            // to the time measured.
            let n = (KERNEL_SHARE * wall / refkernel::REFERENCE_S)
                .round()
                .max(1.0);
            for _ in 0..n as usize {
                kernels.push(kernel_state.run());
            }
            pass.wall_s += wall;
            walls[i].push(wall);
            let what = format!("{} run_with", case.label());
            let o = match public {
                Ok(o) => o,
                Err(e) => {
                    tally.check(&what, Some(e));
                    return finish(&tally, Vec::new());
                }
            };
            let mut problem = verdict(&o.run, o.digest, reference);
            if let Some(f) = &first {
                if problem.is_none() && f[i].digest != o.digest {
                    problem = Some("digest differs from the first pass".into());
                }
            }
            tally.check(&what, problem);

            if !args.trace {
                for _ in 0..SETUP_REPEATS {
                    setups[i].push(case.setup_s());
                }
            } else {
                let mut st = SetupTimes::default();
                let a = case.assemble(false, &mut st);
                pass.flows += a.flows;
                let d = drive(a, EventQueue::<Event>::new(), false);
                tally.check(
                    &format!("{} rebuild", case.label()),
                    verdict(&d.run, d.digest, reference),
                );
                pass.setup.add(&st);
                pass.prime_s += d.prime_s;
                pass.engine_s += d.engine_s;
                pass.allocs += d.allocs;
                pass.alloc_bytes += d.alloc_bytes;
                pass.events += d.digest.events;

                let t = traced_rebuild(case, true);
                let mut problem = verdict(&t.run, t.digest, reference);
                if problem.is_none() && t.layers.counts() != refs[i].layers.counts() {
                    problem = Some("traced counts differ from the warm-up".into());
                }
                let cal = cal.as_ref().expect("calibrated when tracing");
                let self_s = t.layers.self_times(cal);
                if problem.is_none() && self_s.total() > t.engine_s {
                    problem = Some(format!(
                        "layer self times {:.6} s exceed the traced engine time {:.6} s",
                        self_s.total(),
                        t.engine_s
                    ));
                }
                tally.check(&format!("{} traced rebuild", case.label()), problem);
                pass.traced_engine_s += t.engine_s;
                pass.layers.add(&t.layers);
                add_self(&mut pass.self_s, &self_s);
            }
            outcomes.push(o);
        }
        passes += 1;
        if first.is_none() {
            first = Some(outcomes);
        }
        if args.trace {
            traced_passes.push(pass);
        }
        if secs(start) >= args.seconds {
            break;
        }
    }
    let outcomes = first.expect("at least one pass ran");
    let model = Model::of(&cases, &outcomes);

    for (case, (o, r)) in cases.iter().zip(outcomes.iter().zip(&refs)) {
        println!(
            "case {:<20} {:<9} flows {:>6}/{:<6} offered {:>10} B events {:>9} digest {:016x}",
            case.label(),
            o.run.name(),
            o.digest.completed,
            o.flows,
            r.offered_bytes,
            o.digest.events,
            o.digest.hash
        );
    }
    println!("passes {passes}");

    let mut exact = Vec::new();
    let mut total = Layers::default();
    for r in &refs {
        total.add(&r.layers);
    }
    exact_counts(&mut exact, &total, &refs, &model);
    for m in &exact {
        println!("exact {} {} {}", m.name, m.value, m.unit);
    }

    let metrics = if args.trace {
        per_layer(traced_passes, exact, cal.expect("calibrated when tracing"))
    } else {
        let kernel_runs = kernels.len();
        let kernel = median(kernels);
        let wall_host: f64 = walls.into_iter().map(median).sum();
        let setup_host: f64 = setups.into_iter().map(median).sum();
        println!(
            "host wall {wall_host:.6} s, reference kernel median {kernel:.6} s \
             over {kernel_runs} runs"
        );
        vec![
            metric("wall_s", wall_host / kernel * refkernel::REFERENCE_S, "s"),
            metric("setup_s", setup_host / kernel * refkernel::REFERENCE_S, "s"),
            metric(
                "peak_heap_mb",
                heap_peaks.iter().sum::<u64>() as f64 / MIB,
                "MiB",
            ),
            metric(
                "ok_frac",
                1.0 - tally.failures.len() as f64 / tally.attempted as f64,
                "frac",
            ),
        ]
    };
    finish(&tally, metrics)
}

fn add_self(acc: &mut prof::SelfTimes, s: &prof::SelfTimes) {
    acc.push += s.push;
    acc.pop += s.pop;
    for (a, b) in acc.handler.iter_mut().zip(s.handler) {
        *a += b;
    }
    for (a, b) in acc.cc.iter_mut().zip(s.cc) {
        *a += b;
    }
}

/// The metrics a rerun must repeat exactly, from the warm-up record.
fn exact_counts(out: &mut Vec<Metric>, l: &Layers, refs: &[TracedRun], model: &Model) {
    let events: u64 = refs.iter().map(|r| r.digest.events).sum();
    out.push(metric("dcsim.events", events as f64, "count"));
    out.push(metric("dcsim.push", l.push_n as f64, "count"));
    out.push(metric("dcsim.pop", l.pop_n as f64, "count"));
    out.push(metric("dcsim.pending_max", l.pending_max as f64, "count"));
    for (v, name) in VARIANTS.iter().enumerate() {
        out.push(metric(
            format!("netsim.{name}.n"),
            l.handler_n[v] as f64,
            "count",
        ));
    }
    for (c, name) in CC_CALLS.iter().enumerate() {
        out.push(metric(format!("cc.{name}.n"), l.cc_n[c] as f64, "count"));
    }
    out.push(metric(
        "model.flows_completed",
        model.completed as f64,
        "count",
    ));
    out.push(metric("model.fct_digest", model.digest as f64, "hash"));
    out.push(metric(
        "model.long_p999_slowdown",
        model.long_p999_slowdown,
        "x",
    ));
    out.push(metric("model.converge_us", model.converge_us, "us"));
}

/// The per-layer metrics: exact counts, plus the median traced pass's
/// times (passes ordered by wall time).
fn per_layer(mut passes: Vec<TracePass>, mut out: Vec<Metric>, cal: Calibration) -> Vec<Metric> {
    passes.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let n = passes.len();
    let p = passes.swap_remove(n / 2);
    let s = &p.self_s;
    out.push(metric("dcsim.push_s", s.push, "s"));
    out.push(metric("dcsim.pop_s", s.pop, "s"));
    for (v, name) in VARIANTS.iter().enumerate() {
        out.push(metric(format!("netsim.{name}.self_s"), s.handler[v], "s"));
    }
    out.push(metric("netsim.build_s", p.setup.netsim + p.prime_s, "s"));
    for (c, name) in CC_CALLS.iter().take(CC_TIMED).enumerate() {
        out.push(metric(format!("cc.{name}.s"), s.cc[c], "s"));
    }
    out.push(metric("cc.build_s", p.setup.cc, "s"));
    out.push(metric("workloads.gen_s", p.setup.workloads, "s"));
    out.push(metric("workloads.flows", p.flows as f64, "count"));
    out.push(metric("fairsim.engine_s", p.engine_s, "s"));
    out.push(metric(
        "fairsim.post_s",
        p.wall_s - p.setup.total() - p.prime_s - p.engine_s,
        "s",
    ));
    let events = p.events as f64;
    out.push(metric(
        "alloc.per_event",
        p.allocs as f64 / events,
        "allocs/event",
    ));
    out.push(metric(
        "alloc.bytes_per_event",
        p.alloc_bytes as f64 / events,
        "B/event",
    ));
    out.push(metric(
        "trace.overhead_x",
        p.traced_engine_s / p.engine_s,
        "x",
    ));
    out.push(metric(
        "trace.unattributed_frac",
        1.0 - s.total() / p.engine_s,
        "frac",
    ));
    println!(
        "calibration span {:.2} ns pair {:.2} ns over {} timed calls",
        cal.span_ns,
        cal.pair_ns,
        p.layers.timed_calls()
    );
    out
}

/// Print the metrics, then the result line; exit 1 on any failure.
fn finish(tally: &Tally, metrics: Vec<Metric>) -> ExitCode {
    let mut body = Vec::with_capacity(metrics.len());
    for m in &metrics {
        println!("{:<28} {:>20} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        ));
    }
    let failed = tally.failures.len();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        tally.attempted.max(1),
        failed,
        body.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
