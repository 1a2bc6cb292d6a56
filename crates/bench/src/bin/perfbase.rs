//! `perfbase` — machine-readable performance baseline for the event engine.
//!
//! Runs three workloads on both schedulers (binary heap and hierarchical
//! timing wheel) and writes a `BENCH_engine.json`-schema report:
//!
//! * `dense-timer` — 30k live timers in steady state, each pop
//!   rescheduling a short delta ahead (the RTO/CC-timer population shape).
//! * `incast` — the paper's 16-1 staggered incast under HPCC VAI+SF.
//! * `fat-tree` — a reduced-scale datacenter run (Hadoop arrivals on a
//!   32-host fat-tree).
//!
//! Each entry reports wall time, events dispatched, and events/sec; the
//! top level records the wheel/heap speedup per workload. When built with
//! `--features trace` the incast/fat-tree entries also report the
//! scheduler occupancy high-water mark (`occupancy_hwm`), and the report
//! carries `trace_instrumented: true` so regression tooling knows the
//! numbers include the instrumented build's overhead. With
//! `--features alloc-stats` a counting global allocator adds
//! `allocs_per_event` and `bytes_per_event` per cell (and
//! `alloc_instrumented: true` at the top level) — the memory-pressure
//! companion to the events/sec gate. Usage:
//!
//! ```text
//! perfbase --out PATH [--seed N] [--check BASELINE]
//! ```
//!
//! `--out` is required, so a bare run cannot overwrite the committed
//! `BENCH_engine.json` by accident. `--check BASELINE` compares the fresh
//! measurements against a committed `BENCH_engine.json` and exits nonzero
//! when any workload×scheduler cell regresses by more than 10% in
//! events/sec (the CI perf gate).

use std::time::Instant;

use bench::alloc_stats;
use dcsim::{DetRng, EventQueue, Nanos, Scheduler, SchedulerKind, TimingWheel};
use fairsim::{
    CcSpec, DatacenterScenario, IncastScenario, ProtocolKind, RunCtx, Scenario, Variant,
};
use minijson::{obj, Value};

#[cfg(feature = "alloc-stats")]
#[global_allocator]
static COUNTING_ALLOC: alloc_stats::CountingAlloc = alloc_stats::CountingAlloc;

/// Timers alive at once in the dense-timer workload.
const DENSE_LIVE: u32 = 30_000;
/// Pop/reschedule cycles in the dense-timer workload.
const DENSE_CHURN: u64 = 2_000_000;

struct Measurement {
    secs: f64,
    events: u64,
    /// Global-allocator calls during the best pass (0 without the
    /// `alloc-stats` feature).
    allocs: u64,
    /// Bytes requested from the global allocator during the best pass.
    bytes: u64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.secs
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("secs", Value::from(self.secs)),
            ("events", Value::from(self.events)),
            ("events_per_sec", Value::from(self.events_per_sec().round())),
        ];
        if alloc_stats::ENABLED {
            // Per-event ratios, rounded to 3 decimals: after the slab-pool
            // sweep these sit well below 1 and the interesting signal is
            // "did a change add per-event heap traffic", not noise digits.
            let per = |n: u64| ((n as f64 / self.events as f64) * 1000.0).round() / 1000.0;
            fields.push(("allocs_per_event", Value::from(per(self.allocs))));
            fields.push(("bytes_per_event", Value::from(per(self.bytes))));
        }
        obj(fields)
    }
}

/// Best-of-`passes` wall time for `f`, which reports its event count.
/// Allocation counts are taken from the fastest pass, keeping the two
/// columns describing the same execution.
fn measure(passes: usize, mut f: impl FnMut() -> u64) -> Measurement {
    let mut events = f(); // warmup
    let mut best = f64::INFINITY;
    let (mut allocs, mut bytes) = (0u64, 0u64);
    for _ in 0..passes {
        let (a0, b0) = alloc_stats::snapshot();
        let t0 = Instant::now();
        events = f();
        let dt = t0.elapsed().as_secs_f64();
        let (a1, b1) = alloc_stats::snapshot();
        if dt < best {
            best = dt;
            allocs = a1 - a0;
            bytes = b1 - b0;
        }
    }
    Measurement {
        secs: best,
        events,
        allocs,
        bytes,
    }
}

/// Steady-state timer churn: every pop schedules a replacement a short
/// random delta ahead, holding the pending population at `live`.
fn dense_timer<S: Scheduler<u32> + Default>() -> u64 {
    let mut q = S::default();
    let mut rng = DetRng::new(9);
    for i in 0..DENSE_LIVE {
        q.push(Nanos(rng.below(8_000)), i);
    }
    for _ in 0..DENSE_CHURN {
        let (t, id) = q.pop().expect("steady-state population");
        q.push(t + Nanos(1 + rng.below(8_000)), id);
    }
    DENSE_CHURN + DENSE_LIVE as u64
}

/// Events dispatched and scheduler occupancy high-water mark of one run.
struct RunStats {
    events: u64,
    occupancy_hwm: u64,
}

fn incast(scheduler: SchedulerKind, seed: u64) -> RunStats {
    let sc = IncastScenario::paper(16, CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf), seed);
    let res = sc.run_with(&RunCtx::new(seed).with_scheduler(scheduler));
    assert!(res.all_finished, "incast must drain");
    RunStats {
        events: res.events_handled,
        occupancy_hwm: res.occupancy_hwm,
    }
}

fn fat_tree(scheduler: SchedulerKind, seed: u64) -> RunStats {
    let mut sc = DatacenterScenario::reduced(
        vec![workloads::distributions::FB_HADOOP.to_string()],
        CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
        seed,
    );
    // Half a millisecond of arrivals keeps the baseline itself fast while
    // still exercising the full fat-tree event mix.
    sc.horizon = Nanos::from_micros(500);
    let res = sc.run_with(&RunCtx::new(seed).with_scheduler(scheduler));
    assert!(res.completed > 0, "fat-tree run must complete flows");
    RunStats {
        events: res.events_handled,
        occupancy_hwm: res.occupancy_hwm,
    }
}

/// Events/sec a baseline cell may lose before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.10;

/// Compare fresh per-workload measurements against a committed baseline
/// report. Returns the number of cells regressing beyond tolerance.
fn check_against_baseline(
    baseline: &Value,
    fresh: &[(String, f64, f64)], // (workload, heap ev/s, wheel ev/s)
) -> usize {
    let Some(base_workloads) = baseline.get("workloads").and_then(|w| w.as_array()) else {
        eprintln!("perfbase: baseline has no `workloads` array");
        std::process::exit(2);
    };
    let base_cell = |name: &str, sched: &str| -> Option<f64> {
        base_workloads
            .iter()
            .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(name))?
            .get(sched)?
            .get("events_per_sec")?
            .as_f64()
    };
    let mut regressions = 0;
    for (name, heap_eps, wheel_eps) in fresh {
        for (sched, eps) in [("heap", *heap_eps), ("wheel", *wheel_eps)] {
            let Some(base) = base_cell(name, sched) else {
                println!("check {name}/{sched}: no baseline cell — skipped");
                continue;
            };
            let ratio = eps / base;
            let verdict = if ratio < 1.0 - REGRESSION_TOLERANCE {
                regressions += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "check {name:<12} {sched:<5} {eps:>12.0} ev/s vs baseline {base:>12.0} \
                 ({:+.1}%) {verdict}",
                (ratio - 1.0) * 100.0
            );
        }
    }
    regressions
}

const USAGE: &str = "usage: perfbase --out PATH [--seed N] [--check BASELINE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut seed = bench::DEFAULT_SEED;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("perfbase: --out needs a path");
                    std::process::exit(2);
                }));
            }
            "--check" => {
                i += 1;
                check_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("perfbase: --check needs a baseline path");
                    std::process::exit(2);
                }));
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("perfbase: --seed needs an integer");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("perfbase: unknown argument {other}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(out_path) = out_path else {
        eprintln!(
            "perfbase: --out PATH is required (the report is never written to a default path)"
        );
        eprintln!("{USAGE}");
        std::process::exit(2);
    };

    // Load the baseline before the (slow) measurement loop so a bad
    // path or malformed file fails immediately.
    let baseline: Option<Value> = check_path.as_ref().map(|base_path| {
        let text = std::fs::read_to_string(base_path).unwrap_or_else(|e| {
            eprintln!("perfbase: cannot read baseline {base_path}: {e}");
            std::process::exit(2);
        });
        Value::parse(&text).unwrap_or_else(|e| {
            eprintln!("perfbase: baseline {base_path} is not valid JSON: {e}");
            std::process::exit(2);
        })
    });

    type Runner = Box<dyn Fn(SchedulerKind) -> RunStats>;
    let workloads: Vec<(&str, usize, Runner)> = vec![
        (
            "dense-timer",
            3,
            Box::new(|k| {
                // The raw scheduler loop has no Simulation wrapper, so it
                // reports its (known) steady-state population directly.
                let events = match k {
                    SchedulerKind::Heap => dense_timer::<EventQueue<u32>>(),
                    SchedulerKind::Wheel => dense_timer::<TimingWheel<u32>>(),
                };
                RunStats {
                    events,
                    occupancy_hwm: u64::from(DENSE_LIVE),
                }
            }),
        ),
        ("incast", 2, Box::new(move |k| incast(k, seed))),
        ("fat-tree", 2, Box::new(move |k| fat_tree(k, seed))),
    ];

    let mut entries = Vec::new();
    let mut fresh: Vec<(String, f64, f64)> = Vec::new();
    for (name, passes, runner) in &workloads {
        let mut occupancy_hwm = 0u64;
        let heap = measure(*passes, || {
            let stats = runner(SchedulerKind::Heap);
            occupancy_hwm = occupancy_hwm.max(stats.occupancy_hwm);
            stats.events
        });
        let wheel = measure(*passes, || {
            let stats = runner(SchedulerKind::Wheel);
            occupancy_hwm = occupancy_hwm.max(stats.occupancy_hwm);
            stats.events
        });
        assert_eq!(
            heap.events, wheel.events,
            "{name}: schedulers must dispatch identical event counts"
        );
        let speedup = heap.secs / wheel.secs;
        println!(
            "{name:<12} heap {:>12.0} ev/s   wheel {:>12.0} ev/s   wheel/heap {speedup:.2}x",
            heap.events_per_sec(),
            wheel.events_per_sec(),
        );
        fresh.push((
            name.to_string(),
            heap.events_per_sec(),
            wheel.events_per_sec(),
        ));
        entries.push(obj([
            ("name", Value::from(*name)),
            ("events", Value::from(heap.events)),
            ("occupancy_hwm", Value::from(occupancy_hwm)),
            ("heap", heap.to_value()),
            ("wheel", wheel.to_value()),
            ("wheel_speedup_over_heap", Value::from(speedup)),
        ]));
    }

    let regressions = match &baseline {
        Some(b) => check_against_baseline(b, &fresh),
        None => 0,
    };

    let report = obj([
        ("schema", Value::from("BENCH_engine/v1")),
        ("seed", Value::from(seed)),
        ("trace_instrumented", Value::from(simtrace::ENABLED)),
        ("alloc_instrumented", Value::from(alloc_stats::ENABLED)),
        ("dense_live_timers", Value::from(u64::from(DENSE_LIVE))),
        ("workloads", Value::Arr(entries)),
    ]);
    std::fs::write(&out_path, format!("{}\n", report.pretty())).unwrap_or_else(|e| {
        eprintln!("perfbase: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out_path}");
    if regressions > 0 {
        eprintln!(
            "perfbase: {regressions} cell(s) regressed more than {:.0}% vs baseline",
            REGRESSION_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
}
