//! Workspace call graph for the interprocedural P-family rules.
//!
//! The semantic walker ([`crate::sem`]) already infers a receiver type at
//! every call site; this module records those observations as per-function
//! [`FnFacts`], links them into a [`CallGraph`], and offers the reachability
//! primitives the dataflow pass ([`crate::flow`]) builds on.
//!
//! Resolution is deliberately an over-approximation in the same spirit as
//! the rest of simlint:
//!
//! - a qualified call (`Nanos::from_ns`, or a method whose receiver type
//!   was positively inferred) resolves to the unique `(type, name)` target;
//! - a method call whose receiver type is unknown resolves to *every*
//!   workspace method of that name — this is how dispatch through trait
//!   impls is covered (`s.push(..)` on a `&mut dyn Scheduler` reaches both
//!   `EventQueue::push` and `TimingWheel::push`) — capped at
//!   [`DISPATCH_FANOUT_CAP`] candidates so ubiquitous names (`new`, `len`)
//!   do not glue the whole graph together;
//! - recursion is handled by ordinary visited-set BFS, so cycles are safe.

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::Span;
use crate::{scope_of, Fix, Scope};

/// Above this many candidates an unresolved method name is considered too
/// ambiguous to produce edges (it would connect everything to everything).
pub const DISPATCH_FANOUT_CAP: usize = 8;

/// Identity of a function: the owning type (impl/trait) and its name.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnKey {
    /// `Some(type or trait name)` for methods/associated fns, `None` for
    /// free functions.
    pub owner: Option<String>,
    /// Function name as written.
    pub name: String,
}

impl FnKey {
    /// Render for diagnostics: `Type::name` or `name`.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One outgoing call observed inside a function body.
#[derive(Debug, Clone)]
pub struct CallRef {
    /// Resolved owner type when the receiver/path was identified.
    pub owner: Option<String>,
    /// Callee name.
    pub name: String,
    /// True for `recv.name(..)` method syntax (enables the trait-dispatch
    /// over-approximation when `owner` is `None`).
    pub via_method: bool,
    /// 1-based line of the call site.
    pub line: usize,
    /// Byte span of the call expression.
    pub span: Span,
}

/// How the argument of a `.stream(..)` call was written.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum StreamArg {
    /// A numeric literal: `rng.stream(2)`.
    Num(u64),
    /// A named constant: `rng.stream(FAULT_STREAM)`.
    Named(String),
    /// Anything else (derived labels, variables).
    Other,
}

/// An order-unstable iteration site (hash-container iteration).
#[derive(Debug, Clone)]
pub struct UnstableIter {
    /// 1-based line.
    pub line: usize,
    /// Span of the iteration expression.
    pub span: Span,
    /// `"HashMap"` or `"HashSet"`.
    pub container: &'static str,
    /// Mechanical container swap (`HashMap` → `BTreeMap` on the local
    /// declaration line) when the receiver is a local with a visible
    /// annotated `let`.
    pub fix: Option<Fix>,
}

/// The shape of a heap allocation the A1 cost rule reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// `Box::new(..)`.
    BoxNew,
    /// `Vec::new()` / `vec![..]` without a reachable capacity reservation.
    VecGrowth,
    /// `.push(..)` on a positively-inferred `Vec` receiver.
    VecPush,
    /// `String::new`/`String::from`/`format!`/`.to_string()`/`.to_owned()`.
    StringAlloc,
    /// `.clone()` of a workspace type that owns heap storage.
    CloneHeap,
}

impl AllocKind {
    /// Short label used in diagnostics.
    pub fn describe(&self) -> &'static str {
        match self {
            AllocKind::BoxNew => "`Box::new` heap allocation",
            AllocKind::VecGrowth => "`Vec` construction without a capacity reservation",
            AllocKind::VecPush => "growth-reallocating `Vec::push`",
            AllocKind::StringAlloc => "`String` allocation",
            AllocKind::CloneHeap => "`.clone()` of a heap-owning type",
        }
    }
}

/// A heap-allocation site observed in a function body (A1 raw material).
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// 1-based line.
    pub line: usize,
    /// Span of the allocating expression.
    pub span: Span,
    /// What allocates.
    pub kind: AllocKind,
    /// Source rendering / type detail for the message (`Box::new`,
    /// `.clone()` of `Packet`, …).
    pub what: String,
    /// The site sits inside a loop body — per-iteration allocation.
    pub in_loop: bool,
    /// Mechanical reserve-insertion fix (`Vec::new()` →
    /// `Vec::with_capacity(n)`) when the loop bound is knowable.
    pub fix: Option<Fix>,
}

/// A collect-then-iterate materialization site (A3 raw material).
#[derive(Debug, Clone)]
pub struct CollectIter {
    /// 1-based line.
    pub line: usize,
    /// Span of the whole chain expression.
    pub span: Span,
    /// The re-iteration method (`into_iter`, `iter`, or a `for` head).
    pub method: &'static str,
    /// Whether the chain sits inside a loop body (escalates severity).
    pub in_loop: bool,
    /// Iterator-fusion fix (delete `.collect::<Vec<_>>().into_iter()`)
    /// when type-sound.
    pub fix: Option<Fix>,
}

/// A large struct parameter passed by value (A4 raw material).
#[derive(Debug, Clone)]
pub struct ByvalParam {
    /// Parameter binding name.
    pub name: String,
    /// Parameter type name.
    pub ty: String,
    /// Estimated size in bytes from the symbol table's field shapes.
    pub est_bytes: usize,
}

/// A float accumulation whose operand order may be unstable.
#[derive(Debug, Clone)]
pub struct FloatAccum {
    /// 1-based line of the accumulation.
    pub line: usize,
    /// Span of the accumulating expression.
    pub span: Span,
    /// The iteration driving the accumulation is itself a hash-container
    /// iteration in this function.
    pub head_unstable: bool,
    /// Indices into [`FnFacts::calls`] made by the iteration head — the
    /// interprocedural escape hatch (the head may call an unstable
    /// producer elsewhere).
    pub head_calls: Vec<usize>,
}

/// Everything the flow pass needs to know about one function body.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Owner + name.
    pub key: FnKey,
    /// Display path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` name.
    pub line: usize,
    /// `#[cfg(test)]` / `#[test]` code, or a tests/examples/benches path.
    pub is_test: bool,
    /// Outgoing calls in body order.
    pub calls: Vec<CallRef>,
    /// `DetRng::new(..)` sites: line, and whether the site is fault code by
    /// its own names: a value bound to a fault-named `let`, struct field or
    /// assignment target (`fault_rng: ..`), or a call naming a fault
    /// identifier (`DetRng::new(cfg.fault_seed)`).
    pub rng_news: Vec<(usize, bool)>,
    /// `.stream(..)` sites: argument shape, line, and the same fault flag.
    pub stream_calls: Vec<(StreamArg, usize, bool)>,
    /// Hash-container iteration sites.
    pub unstable_iters: Vec<UnstableIter>,
    /// The function sorts or otherwise canonicalizes an ordering
    /// (`sort*` call or a `collect` into a BTree container) — clears the
    /// order-instability taint it would otherwise propagate.
    pub sorts: bool,
    /// Event-scheduling sink sites (`schedule*`, scheduler `push`).
    pub sched_sinks: Vec<(usize, Span)>,
    /// Metrics-aggregation sink sites (`counter_add`, `histogram_record`…).
    pub metric_sinks: Vec<(usize, Span)>,
    /// Float accumulations in reduction positions.
    pub float_accums: Vec<FloatAccum>,
    /// SCREAMING_CASE path references (candidate static/const reads),
    /// with their lines.
    pub caps_refs: Vec<(String, usize)>,
    /// Heap-allocation sites (A1 raw material).
    pub alloc_sites: Vec<AllocSite>,
    /// The body calls `with_capacity`/`reserve`/`reserve_exact` somewhere —
    /// growth-allocation findings in this function are then presumed
    /// amortized and suppressed.
    pub reserves: bool,
    /// Collect-then-iterate sites (A3 raw material).
    pub collect_iters: Vec<CollectIter>,
    /// Large struct parameters taken by value (A4 raw material).
    pub byval_params: Vec<ByvalParam>,
}

/// A `static` item declaration.
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// Name as declared.
    pub name: String,
    /// Display path of the defining file.
    pub path: String,
    /// 1-based declaration line.
    pub line: usize,
    /// Declared `static mut`.
    pub is_mut: bool,
    /// The declared type mentions an interior-mutability cell
    /// (`Cell`/`RefCell`/`Mutex`/`Atomic*`/…).
    pub interior: bool,
    /// Declared inside `#[cfg(test)]` code or a test path.
    pub is_test: bool,
}

/// Facts collected from one file: its functions and statics.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Per-function facts, in declaration order.
    pub fns: Vec<FnFacts>,
    /// Static items.
    pub statics: Vec<StaticItem>,
}

/// The linked workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every function, flattened across files.
    pub fns: Vec<FnFacts>,
    /// Every static, flattened across files.
    pub statics: Vec<StaticItem>,
    /// Forward edges: `edges[i]` are the fn indices `fns[i]` may call.
    pub edges: Vec<Vec<usize>>,
    /// Reverse edges: `redges[i]` are the fns that may call `fns[i]`.
    pub redges: Vec<Vec<usize>>,
    /// Per-call resolution: `call_targets[i][j]` are the fn indices call
    /// `fns[i].calls[j]` resolved to.
    pub call_targets: Vec<Vec<Vec<usize>>>,
    /// Edges that only exist because of name-only method dispatch (the
    /// receiver type was unknown). Low confidence: the cost pass refuses
    /// to extend hot-path reachability through them, because one false
    /// `.get()`/`.expect()` match would poison an entire subtree.
    pub name_only: BTreeSet<(usize, usize)>,
}

impl CallGraph {
    /// Link per-file facts into a graph.
    pub fn build(files: Vec<FileFacts>) -> CallGraph {
        let mut fns = Vec::new();
        let mut statics = Vec::new();
        for f in files {
            fns.extend(f.fns);
            statics.extend(f.statics);
        }

        // Name indices for resolution.
        let mut by_exact: BTreeMap<(Option<&str>, &str), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_exact
                .entry((f.key.owner.as_deref(), f.key.name.as_str()))
                .or_default()
                .push(i);
            if f.key.owner.is_some() {
                methods_by_name.entry(&f.key.name).or_default().push(i);
            } else {
                free_by_name.entry(&f.key.name).or_default().push(i);
            }
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        let mut call_targets: Vec<Vec<Vec<usize>>> = vec![Vec::new(); fns.len()];
        let mut name_only: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut confident: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (i, f) in fns.iter().enumerate() {
            let mut per_call = Vec::with_capacity(f.calls.len());
            for c in &f.calls {
                let mut low_confidence = false;
                let targets: Vec<usize> = match (&c.owner, c.via_method) {
                    (Some(owner), _) => by_exact
                        .get(&(Some(owner.as_str()), c.name.as_str()))
                        .cloned()
                        .unwrap_or_default(),
                    (None, true) => {
                        low_confidence = true;
                        let cands = methods_by_name
                            .get(c.name.as_str())
                            .cloned()
                            .unwrap_or_default();
                        if cands.len() > DISPATCH_FANOUT_CAP {
                            Vec::new()
                        } else {
                            cands
                        }
                    }
                    (None, false) => free_by_name
                        .get(c.name.as_str())
                        .cloned()
                        .unwrap_or_default(),
                };
                for &t in &targets {
                    if t != i {
                        edges[i].push(t);
                        if low_confidence {
                            name_only.insert((i, t));
                        } else {
                            // A typed resolution of the same edge outranks
                            // any name-only match recorded earlier.
                            confident.insert((i, t));
                        }
                    }
                }
                per_call.push(targets);
            }
            edges[i].sort_unstable();
            edges[i].dedup();
            call_targets[i] = per_call;
        }

        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (i, outs) in edges.iter().enumerate() {
            for &t in outs {
                redges[t].push(i);
            }
        }
        for r in &mut redges {
            r.sort_unstable();
            r.dedup();
        }

        name_only.retain(|e| !confident.contains(e));

        CallGraph {
            fns,
            statics,
            edges,
            redges,
            call_targets,
            name_only,
        }
    }

    /// The scope of the file a function lives in.
    pub fn scope(&self, i: usize) -> Scope {
        scope_of(&self.fns[i].path)
    }

    /// Forward-reachable set from `roots` (inclusive), with BFS parents
    /// for witness-chain reconstruction.
    pub fn reach_forward(&self, roots: &[usize]) -> Reach {
        self.reach(roots, &self.edges)
    }

    /// Reverse-reachable set (every fn that can reach one of `roots`),
    /// with parents pointing one hop closer to a root.
    pub fn reach_backward(&self, roots: &[usize]) -> Reach {
        self.reach(roots, &self.redges)
    }

    fn reach(&self, roots: &[usize], edges: &[Vec<usize>]) -> Reach {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
                e.insert(None);
                queue.push(r);
            }
        }
        let mut at = 0;
        while at < queue.len() {
            let cur = queue[at];
            at += 1;
            for &next in &edges[cur] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(next) {
                    e.insert(Some(cur));
                    queue.push(next);
                }
            }
        }
        Reach { parent }
    }

    /// Render a witness chain from `from` back to whichever root reached
    /// it, as `a → b → c` with file:line anchors.
    pub fn witness(&self, reach: &Reach, from: usize) -> String {
        let mut hops = Vec::new();
        let mut cur = Some(from);
        let mut guard = 0;
        while let Some(i) = cur {
            hops.push(i);
            cur = reach.parent.get(&i).copied().flatten();
            guard += 1;
            if guard > self.fns.len() + 1 {
                break;
            }
        }
        hops.reverse();
        hops.iter()
            .map(|&i| {
                let f = &self.fns[i];
                format!("{} ({}:{})", f.key.display(), f.path, f.line)
            })
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// Indices of functions whose name is one of `names`, filtered to
    /// non-test sim-scope functions.
    pub fn sim_fns_named(&self, names: &[&str]) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(i, f)| {
                !f.is_test && self.scope(*i) == Scope::Sim && names.contains(&f.key.name.as_str())
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// A reachability closure with BFS parents.
#[derive(Debug, Default)]
pub struct Reach {
    /// fn index → the BFS parent it was discovered from (`None` at roots).
    pub parent: BTreeMap<usize, Option<usize>>,
}

impl Reach {
    /// Whether `i` is in the closure.
    pub fn contains(&self, i: usize) -> bool {
        self.parent.contains_key(&i)
    }

    /// Every reached index, ascending.
    pub fn members(&self) -> BTreeSet<usize> {
        self.parent.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, sem, sym};

    /// Parse a set of `(path, src)` files through the full fact-collection
    /// pipeline and link the graph.
    fn graph_of(srcs: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<(crate::ast::File, crate::lex::Lexed)> = srcs
            .iter()
            .map(|(p, s)| parse::parse_file(p, s).expect("test source parses"))
            .collect();
        let symbols = sym::Symbols::build(parsed.iter().map(|(f, _)| f));
        let facts = srcs
            .iter()
            .zip(&parsed)
            .map(|((_, s), (file, _))| sem::check_file_collect(file, s, &symbols).1)
            .collect();
        CallGraph::build(facts)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.key.name == name)
            .unwrap_or_else(|| panic!("fn {name} in graph"))
    }

    #[test]
    fn free_and_qualified_calls_resolve_to_edges() {
        let g = graph_of(&[(
            "crates/dcsim/src/engine.rs",
            "fn outer() { helper(); Widget::assemble(); }\n\
             fn helper() {}\n\
             struct Widget;\n\
             impl Widget { fn assemble() {} }\n",
        )]);
        let outer = idx(&g, "outer");
        let helper = idx(&g, "helper");
        let assemble = idx(&g, "assemble");
        assert!(g.edges[outer].contains(&helper), "free call resolved");
        assert!(
            g.edges[outer].contains(&assemble),
            "qualified call resolved"
        );
        assert!(g.redges[helper].contains(&outer), "reverse edge present");
        assert_eq!(g.fns[assemble].key.owner.as_deref(), Some("Widget"));
    }

    #[test]
    fn unresolved_method_calls_dispatch_to_every_trait_impl() {
        let g = graph_of(&[(
            "crates/dcsim/src/engine.rs",
            "trait Sched { fn push_event(&mut self); }\n\
             struct Heap;\n\
             impl Sched for Heap { fn push_event(&mut self) { heap_work(); } }\n\
             struct Wheel;\n\
             impl Sched for Wheel { fn push_event(&mut self) {} }\n\
             fn drive() { let s = mystery(); s.push_event(); }\n\
             fn mystery() {}\n\
             fn heap_work() {}\n",
        )]);
        let drive = idx(&g, "drive");
        // The receiver's type is unknown, so the call over-approximates to
        // every same-name method: both impls plus the trait's own
        // declaration (kept so trait *default* bodies resolve too).
        let call = g.fns[drive]
            .calls
            .iter()
            .position(|c| c.name == "push_event")
            .expect("method call recorded");
        assert_eq!(
            g.call_targets[drive][call].len(),
            3,
            "impls + trait decl targeted"
        );
        let owners: Vec<&str> = g.call_targets[drive][call]
            .iter()
            .filter_map(|&t| g.fns[t].key.owner.as_deref())
            .collect();
        assert!(
            owners.contains(&"Heap") && owners.contains(&"Wheel"),
            "{owners:?}"
        );
        // And reachability flows through the dispatch into impl bodies.
        let reach = g.reach_forward(&[drive]);
        assert!(reach.contains(idx(&g, "heap_work")));
    }

    #[test]
    fn recursive_and_mutually_recursive_graphs_terminate() {
        let g = graph_of(&[(
            "crates/dcsim/src/engine.rs",
            "fn ping() { pong(); }\n\
             fn pong() { ping(); }\n\
             fn looper() { looper(); helper(); }\n\
             fn helper() {}\n",
        )]);
        let ping = idx(&g, "ping");
        let reach = g.reach_forward(&[ping]);
        assert!(reach.contains(idx(&g, "pong")));
        assert!(reach.contains(ping));
        // Self-edges are dropped at build time; the cycle still terminates
        // and reaches past itself.
        let looper = idx(&g, "looper");
        assert!(!g.edges[looper].contains(&looper), "self-edge skipped");
        let r2 = g.reach_forward(&[looper]);
        assert!(r2.contains(idx(&g, "helper")));
    }

    #[test]
    fn witness_renders_the_hot_chain() {
        let g = graph_of(&[(
            "crates/dcsim/src/engine.rs",
            "pub fn run() { middle(); }\n\
             fn middle() { leaf(); }\n\
             fn leaf() {}\n",
        )]);
        let roots = g.sim_fns_named(&["run"]);
        let reach = g.reach_forward(&roots);
        let w = g.witness(&reach, idx(&g, "leaf"));
        assert!(
            w.contains("run") && w.contains("middle") && w.contains("leaf"),
            "{w}"
        );
        assert!(w.contains("engine.rs:1"), "hop sites carry file:line — {w}");
    }
}
