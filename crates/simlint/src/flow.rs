//! Interprocedural dataflow: the P (parallel-readiness) rule family.
//!
//! ROADMAP item 1 shards the engine across threads while keeping runs
//! bit-reproducible. These rules flag, ahead of that PR, the patterns that
//! survive single-threaded review but break determinism under concurrency:
//!
//! - **P1** — shared mutable statics / interior-mutability cells: racy or
//!   ordering-dependent once two shards touch them.
//! - **P2** — hash-container iteration whose results feed event scheduling
//!   or metrics aggregation, found *through call chains*, not only at the
//!   iteration site.
//! - **P3** — DetRng stream discipline: subsystem context propagates down
//!   the call graph, so a helper that seeds a private `DetRng::new` three
//!   calls below fault code is still caught. Fault code (a fault-named
//!   function, file, or `let` binding) never gets the stream-distributor
//!   exemption.
//! - **P4** — detected locally in [`crate::sem`] (heap ordering keyed by a
//!   bare timestamp without a `(time, seq)` tiebreak).
//! - **P5** — float accumulation whose operand order depends on hash
//!   iteration, directly or via a call to an order-unstable producer.
//!
//! Everything here consumes the [`CallGraph`](crate::callgraph::CallGraph)
//! built from the semantic walker's per-function facts; suppression and
//! S1 staleness are applied later by the pipeline, which sees these
//! findings alongside the per-file ones.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, StreamArg};
use crate::{scope_of, Finding, Rule, Scope};

/// Function names treated as engine hot-path roots for P1 reachability.
const HOT_ROOTS: [&str; 4] = ["run", "run_with", "run_watched", "step"];

/// Type names that carry interior mutability when they appear anywhere in
/// a static's declared type.
pub(crate) const INTERIOR_CELLS: [&str; 10] = [
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "LazyCell",
    "Mutex",
    "RwLock",
    "OnceLock",
    "LazyLock",
    "SyncUnsafeCell",
];

/// The RNG stream assignments documented on `DetRng::stream`.
const STREAMS: [(u64, &str, &str); 5] = [
    (0, "workload", "WORKLOAD_STREAM"),
    (1, "ECMP", "ECMP_STREAM"),
    (2, "RED", "RED_STREAM"),
    (3, "feedback", "FEEDBACK_STREAM"),
    (4, "fault", "FAULT_STREAM"),
];

fn stream_desc(n: u64) -> String {
    match STREAMS.iter().find(|(v, ..)| *v == n) {
        Some((_, what, name)) => format!("stream {n} ({what}, `{name}`)"),
        None => format!("stream {n}"),
    }
}

fn stream_const(n: u64) -> &'static str {
    STREAMS
        .iter()
        .find(|(v, ..)| *v == n)
        .map(|(_, _, name)| *name)
        .unwrap_or("a named *_STREAM constant")
}

fn named_stream_value(name: &str) -> Option<u64> {
    STREAMS
        .iter()
        .find(|(_, _, c)| *c == name)
        .map(|(v, ..)| *v)
}

/// The fault-injection stream number (`netsim::fault::FAULT_STREAM`).
pub(crate) const FAULT_STREAM: u64 = 4;

/// The subsystem (stream number) a function or binding name claims, from
/// its `_`-separated segments.
pub(crate) fn fn_marker(name: &str) -> Option<u64> {
    for seg in name.split('_') {
        let seg = seg.to_ascii_lowercase();
        let hit = match seg.as_str() {
            "fault" | "faults" => Some(FAULT_STREAM),
            "ecmp" => Some(1),
            "red" => Some(2),
            "workload" | "arrival" | "arrivals" => Some(0),
            "feedback" => Some(3),
            _ => None,
        };
        if hit.is_some() {
            return hit;
        }
    }
    None
}

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Run every interprocedural P rule over the linked graph.
pub fn check(g: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    check_p1(g, &mut out);
    let taint = unstable_taint(g);
    check_p2(g, &taint, &mut out);
    check_p3(g, &mut out);
    check_p5(g, &taint, &mut out);
    out
}

fn sim_nontest(g: &CallGraph, i: usize) -> bool {
    !g.fns[i].is_test && g.scope(i) == Scope::Sim
}

fn push(out: &mut Vec<Finding>, path: &str, line: usize, rule: Rule, message: String) {
    out.push(Finding {
        path: path.to_string(),
        line,
        col: 1,
        rule,
        message,
        fix: None,
    });
}

// ----- P1: shared mutable global state -----------------------------------

fn check_p1(g: &CallGraph, out: &mut Vec<Finding>) {
    let roots = g.sim_fns_named(&HOT_ROOTS);
    let hot = g.reach_forward(&roots);

    for s in &g.statics {
        if s.is_test || !(s.is_mut || s.interior) {
            continue;
        }
        // Who reads/writes it from a hot path?
        let mut hot_ref: Option<(usize, usize)> = None; // (fn, ref line)
        for (i, f) in g.fns.iter().enumerate() {
            if f.is_test || !hot.contains(i) {
                continue;
            }
            if let Some((_, line)) = f.caps_refs.iter().find(|(n, _)| n == &s.name) {
                hot_ref = Some((i, *line));
                break;
            }
        }
        let what = if s.is_mut {
            "a `static mut`"
        } else {
            "a static with interior mutability"
        };
        let in_sim = scope_of(&s.path) == Scope::Sim;
        if in_sim {
            let reach_note = match hot_ref {
                Some((i, line)) => format!(
                    " It is reachable from an engine hot path: {} touches it at line {line}.",
                    g.witness(&hot, i)
                ),
                None => String::new(),
            };
            push(
                out,
                &s.path,
                s.line,
                Rule::P1,
                format!(
                    "`{}` is {what}: shared mutable global state becomes racy or \
                     merge-order-dependent once the engine is sharded across threads; \
                     thread the state through the simulation context instead.{reach_note}",
                    s.name
                ),
            );
        } else if let Some((i, line)) = hot_ref {
            push(
                out,
                &s.path,
                s.line,
                Rule::P1,
                format!(
                    "`{}` is {what} and is referenced from an engine hot path \
                     ({} at line {line}); shared mutable global state breaks \
                     determinism under the parallel engine — thread it through \
                     the simulation context instead.",
                    s.name,
                    g.witness(&hot, i)
                ),
            );
        }
    }
}

// ----- order-instability taint (shared by P2/P5) --------------------------

/// BFS up the reverse edges from every order-unstable producer. A caller
/// that sorts (or collects into a BTree container) clears the taint and is
/// not entered. `parent[i]` points one hop closer to a producer.
struct Taint {
    parent: BTreeMap<usize, Option<usize>>,
    producers: BTreeSet<usize>,
}

impl Taint {
    fn tainted(&self, i: usize) -> bool {
        self.parent.contains_key(&i)
    }

    /// Render the chain from `i` down to the producer that taints it.
    fn chain(&self, g: &CallGraph, i: usize) -> String {
        let mut hops = vec![i];
        let mut cur = self.parent.get(&i).copied().flatten();
        let mut guard = 0;
        while let Some(n) = cur {
            hops.push(n);
            cur = self.parent.get(&n).copied().flatten();
            guard += 1;
            if guard > g.fns.len() + 1 {
                break;
            }
        }
        hops.iter()
            .map(|&h| {
                let f = &g.fns[h];
                format!("{} ({}:{})", f.key.display(), f.path, f.line)
            })
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

fn unstable_taint(g: &CallGraph) -> Taint {
    let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut producers = BTreeSet::new();
    let mut queue = Vec::new();
    for (i, f) in g.fns.iter().enumerate() {
        if !f.unstable_iters.is_empty() && !f.sorts {
            parent.insert(i, None);
            producers.insert(i);
            queue.push(i);
        }
    }
    let mut at = 0;
    while at < queue.len() {
        let cur = queue[at];
        at += 1;
        for &caller in &g.redges[cur] {
            if g.fns[caller].sorts {
                continue;
            }
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(caller) {
                e.insert(Some(cur));
                queue.push(caller);
            }
        }
    }
    Taint { parent, producers }
}

// ----- P2: unstable iteration feeding scheduling/metrics ------------------

fn check_p2(g: &CallGraph, taint: &Taint, out: &mut Vec<Finding>) {
    for (h, f) in g.fns.iter().enumerate() {
        if !sim_nontest(g, h) || f.sorts {
            continue;
        }
        let sched = !f.sched_sinks.is_empty();
        let metric = !f.metric_sinks.is_empty();
        if !sched && !metric {
            continue;
        }
        let feeds = match (sched, metric) {
            (true, true) => "event scheduling and metrics aggregation",
            (true, false) => "event scheduling",
            _ => "metrics aggregation",
        };

        // Local: this function iterates the hash container itself.
        for u in &f.unstable_iters {
            out.push(Finding {
                path: f.path.clone(),
                line: u.line,
                col: 1,
                rule: Rule::P2,
                message: format!(
                    "`{}` iterates a {} (RandomState order) and feeds {feeds}; \
                     under the parallel engine the visit order is not reproducible — \
                     use a BTree container or sort before consuming",
                    f.key.display(),
                    u.container
                ),
                fix: u.fix.clone(),
            });
        }

        // Interprocedural: a call chain reaches an unstable producer.
        let mut seen_lines = BTreeSet::new();
        for (j, c) in f.calls.iter().enumerate() {
            let Some(t) = g.call_targets[h][j]
                .iter()
                .copied()
                .find(|&t| taint.tainted(t))
            else {
                continue;
            };
            if taint.producers.contains(&h) {
                // Already reported at the local iteration site.
                continue;
            }
            if !seen_lines.insert(c.line) {
                continue;
            }
            let producer = &g.fns[chain_producer(taint, t)];
            let iter_line = producer
                .unstable_iters
                .first()
                .map(|u| u.line)
                .unwrap_or(producer.line);
            push(
                out,
                &f.path,
                c.line,
                Rule::P2,
                format!(
                    "`{}` feeds {feeds} with results of `{}`, which iterates a \
                     hash container in RandomState order ({}:{iter_line}; chain: {}); \
                     use a BTree container or sort before consuming",
                    f.key.display(),
                    g.fns[t].key.display(),
                    producer.path,
                    taint.chain(g, t)
                ),
            );
        }
    }
}

/// Follow taint parents from `i` to the producer at the end of the chain.
fn chain_producer(taint: &Taint, i: usize) -> usize {
    let mut cur = i;
    let mut guard = 0;
    while let Some(Some(next)) = taint.parent.get(&cur) {
        cur = *next;
        guard += 1;
        if guard > taint.parent.len() + 1 {
            break;
        }
    }
    cur
}

// ----- P3: interprocedural DetRng stream discipline -----------------------

fn check_p3(g: &CallGraph, out: &mut Vec<Finding>) {
    // A distributor derives several streams from a root RNG (or names a
    // *_STREAM constant); it legitimately touches many subsystems and
    // neither receives nor propagates a single-subsystem context.
    let is_distributor = |i: usize| -> bool {
        let f = &g.fns[i];
        let caps: BTreeSet<&str> = f
            .caps_refs
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.ends_with("_STREAM"))
            .collect();
        if caps.len() >= 2 {
            return true;
        }
        let distinct: BTreeSet<&StreamArg> = f.stream_calls.iter().map(|(a, ..)| a).collect();
        distinct.len() >= 2
    };

    // Seed contexts from function-name markers, then flow them down call
    // edges; a function claimed by two different subsystems is shared
    // infrastructure and gets no context.
    let mut ctx: BTreeMap<usize, (u64, Option<usize>)> = BTreeMap::new(); // i -> (stream, caller)
    let mut mixed: BTreeSet<usize> = BTreeSet::new();
    let mut queue = Vec::new();
    for (i, f) in g.fns.iter().enumerate() {
        if !sim_nontest(g, i) || is_distributor(i) {
            continue;
        }
        if let Some(s) = fn_marker(&f.key.name) {
            ctx.insert(i, (s, None));
            queue.push(i);
        }
    }
    let mut at = 0;
    while at < queue.len() {
        let cur = queue[at];
        at += 1;
        // A queued function may have lost its context since (second,
        // conflicting subsystem reached it → `mixed`).
        let Some(&(stream, _)) = ctx.get(&cur) else {
            continue;
        };
        for &callee in &g.edges[cur] {
            if !sim_nontest(g, callee) || is_distributor(callee) || mixed.contains(&callee) {
                continue;
            }
            if fn_marker(&g.fns[callee].key.name).is_some() {
                continue; // its own marker wins
            }
            match ctx.get(&callee) {
                Some((s, _)) if *s == stream => {}
                Some(_) => {
                    ctx.remove(&callee);
                    mixed.insert(callee);
                }
                None => {
                    ctx.insert(callee, (stream, Some(cur)));
                    queue.push(callee);
                }
            }
        }
    }

    let chain = |i: usize| -> String {
        let mut hops = vec![i];
        let mut cur = ctx.get(&i).and_then(|(_, p)| *p);
        while let Some(n) = cur {
            hops.push(n);
            cur = ctx.get(&n).and_then(|(_, p)| *p);
        }
        hops.reverse();
        hops.iter()
            .map(|&h| {
                let f = &g.fns[h];
                format!("{} ({}:{})", f.key.display(), f.path, f.line)
            })
            .collect::<Vec<_>>()
            .join(" → ")
    };

    for (i, f) in g.fns.iter().enumerate() {
        if !sim_nontest(g, i) {
            continue;
        }
        // Fault code draws only from FAULT_STREAM, even where it also names
        // other streams (a distributor, which gets no propagated context).
        let fault_code =
            fn_marker(&f.key.name) == Some(FAULT_STREAM) || file_name(&f.path).contains("fault");
        let fctx = ctx
            .get(&i)
            .map(|(s, _)| *s)
            .or(fault_code.then_some(FAULT_STREAM));
        let site_ctx = |fault_site: bool| if fault_site { Some(FAULT_STREAM) } else { fctx };

        for &(line, fault_site) in &f.rng_news {
            if let Some(s) = site_ctx(fault_site) {
                push(
                    out,
                    &f.path,
                    line,
                    Rule::P3,
                    format!(
                        "`{}` is {} subsystem code (chain: {}) but seeds a private \
                         `DetRng::new`; derive the generator from the root RNG with \
                         `.stream({})` so subsystem draws stay decoupled",
                        f.key.display(),
                        stream_desc(s),
                        chain(i),
                        stream_const(s)
                    ),
                );
            }
        }

        for (arg, line, fault_site) in &f.stream_calls {
            let fctx = site_ctx(*fault_site);
            match arg {
                StreamArg::Num(n) => {
                    if let Some(s) = fctx {
                        if *n != s {
                            push(
                                out,
                                &f.path,
                                *line,
                                Rule::P3,
                                format!(
                                    "`{}` is {} subsystem code (chain: {}) but draws \
                                     {}; each subsystem must stay on its assigned stream",
                                    f.key.display(),
                                    stream_desc(s),
                                    chain(i),
                                    stream_desc(*n),
                                ),
                            );
                            continue;
                        }
                    }
                    push(
                        out,
                        &f.path,
                        *line,
                        Rule::P3,
                        format!(
                            "raw stream number in `.stream({n})`; use the named \
                             constant ({}) so the stream assignment is auditable",
                            stream_const(*n)
                        ),
                    );
                }
                StreamArg::Named(name) => {
                    if let (Some(s), Some(v)) = (fctx, named_stream_value(name)) {
                        if v != s {
                            push(
                                out,
                                &f.path,
                                *line,
                                Rule::P3,
                                format!(
                                    "`{}` is {} subsystem code (chain: {}) but draws \
                                     from `{name}` ({}); each subsystem must stay on \
                                     its assigned stream",
                                    f.key.display(),
                                    stream_desc(s),
                                    chain(i),
                                    stream_desc(v),
                                ),
                            );
                        }
                    }
                }
                StreamArg::Other => {}
            }
        }
    }
}

// ----- P5: order-unstable float reduction ---------------------------------

fn check_p5(g: &CallGraph, taint: &Taint, out: &mut Vec<Finding>) {
    for (h, f) in g.fns.iter().enumerate() {
        if !sim_nontest(g, h) || f.sorts {
            continue;
        }
        for a in &f.float_accums {
            if a.head_unstable {
                push(
                    out,
                    &f.path,
                    a.line,
                    Rule::P5,
                    format!(
                        "float accumulation in `{}` iterates a hash container: \
                         float addition is not associative, so the sum depends on \
                         RandomState visit order; iterate a BTree container or \
                         sort the operands first",
                        f.key.display()
                    ),
                );
                continue;
            }
            let hit = a.head_calls.iter().find_map(|&j| {
                g.call_targets[h]
                    .get(j)
                    .into_iter()
                    .flatten()
                    .copied()
                    .find(|&t| taint.tainted(t))
            });
            if let Some(t) = hit {
                let producer = &g.fns[chain_producer(taint, t)];
                let iter_line = producer
                    .unstable_iters
                    .first()
                    .map(|u| u.line)
                    .unwrap_or(producer.line);
                push(
                    out,
                    &f.path,
                    a.line,
                    Rule::P5,
                    format!(
                        "float accumulation in `{}` reduces over `{}`, whose order \
                         comes from a hash-container iteration ({}:{iter_line}; \
                         chain: {}); float addition is not associative — sort the \
                         operands or use an order-stable source",
                        f.key.display(),
                        g.fns[t].key.display(),
                        producer.path,
                        taint.chain(g, t)
                    ),
                );
            }
        }
    }
}
