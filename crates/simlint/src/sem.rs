//! Semantic rule checkers: the U (unit safety) and O (overflow policy)
//! families, D5 (`.expect("")`), and the local P4 check.
//!
//! [`check_file`] walks one parsed file with a scoped type environment
//! (see [`crate::infer`]) and the workspace symbol table, emitting raw
//! findings — suppression and the S-family staleness pass are applied by
//! the pipeline in `lib.rs`, which sees all files.
//!
//! Every check fires only on a *positively identified* type: anything
//! the walker cannot prove degrades to `Ty::Unknown`, which no rule
//! matches, so incomplete inference produces silence, never noise.

use crate::ast::{BinOp, Block, Expr, ExprKind, File, FnItem, Item, Lit, Pat, Stmt, TypeRef};
use crate::callgraph::{
    AllocKind, AllocSite, ByvalParam, CallRef, CollectIter, FileFacts, FloatAccum, FnFacts, FnKey,
    StaticItem, StreamArg, UnstableIter,
};
use crate::infer::{elem_of, method_ret, named_of, Env, Ty};
use crate::lex::Span;
use crate::sym::{Symbols, UnitKind};
use crate::{scope_of, Finding, Fix, Rule, Scope};

/// Iteration methods whose visit order follows the container's.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Methods that canonicalize an ordering and clear instability taint.
const SORT_METHODS: [&str; 6] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Method names that schedule events regardless of receiver type.
const SCHED_METHODS: [&str; 4] = ["schedule", "schedule_at", "schedule_in", "push_at"];

/// Metrics-registry sink methods.
const METRIC_METHODS: [&str; 5] = [
    "counter_add",
    "counter_set",
    "histogram_record",
    "histogram_record_f64",
    "absorb",
];

/// Byte-offset → (line, col) mapping for one source file.
#[derive(Debug)]
pub struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    /// Build the index from source text.
    pub fn new(src: &str) -> LineIndex {
        let mut starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based (line, column) of a byte offset.
    pub fn line_col(&self, pos: usize) -> (usize, usize) {
        let line = match self.starts.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, pos - self.starts[line] + 1)
    }
}

/// Run the per-file semantic checkers over one parsed file.
pub fn check_file(file: &File, src: &str, sym: &Symbols) -> Vec<Finding> {
    check_file_collect(file, src, sym).0
}

/// Run the semantic checkers and, in the same walk, collect the
/// per-function facts the interprocedural pass consumes.
pub fn check_file_collect(file: &File, src: &str, sym: &Symbols) -> (Vec<Finding>, FileFacts) {
    let norm = file.path.replace('\\', "/");
    let file_name = norm.rsplit('/').next().unwrap_or("").to_string();
    let mut chk = Checker {
        path: file.path.clone(),
        src,
        sym,
        index: LineIndex::new(src),
        env: Env::new(),
        findings: Vec::new(),
        in_test: false,
        sim: scope_of(&file.path) == Scope::Sim,
        unit_def_file: matches!(file_name.as_str(), "units.rs" | "time.rs"),
        test_path: norm.contains("/tests/")
            || norm.starts_with("tests/")
            || norm.contains("/examples/")
            || norm.starts_with("examples/")
            || norm.contains("/benches/"),
        o1_zone: norm.contains("dcsim/") || norm.contains("netsim/"),
        facts: FileFacts::default(),
        fn_stack: Vec::new(),
        loop_stack: Vec::new(),
        hash_decls: Vec::new(),
        vec_decls: Vec::new(),
        fault_site: false,
    };
    chk.bind_consts(&file.items);
    chk.walk_items(&file.items, None, false);
    (chk.findings, chk.facts)
}

/// Loop context for P5: is the iteration head order-unstable, and which
/// calls does it make? For the A1 reserve fix, `head_binding` records the
/// sized local the loop iterates (looking through `&` and iter methods).
struct LoopFrame {
    head_unstable: bool,
    head_calls: Vec<usize>,
    head_binding: Option<String>,
}

struct Checker<'a> {
    path: String,
    src: &'a str,
    sym: &'a Symbols,
    index: LineIndex,
    env: Env,
    findings: Vec<Finding>,
    in_test: bool,
    sim: bool,
    unit_def_file: bool,
    test_path: bool,
    o1_zone: bool,
    facts: FileFacts,
    /// Indices into `facts.fns` of the enclosing (possibly nested) fns.
    fn_stack: Vec<usize>,
    loop_stack: Vec<LoopFrame>,
    /// Local `let` declarations with hash-container annotations:
    /// `(binding, decl line, container name)` — the P2 fix target.
    hash_decls: Vec<(String, usize, &'static str)>,
    /// Local `let xs = Vec::new()` declarations: `(binding, fn fact
    /// index, alloc-site index)` — the A1 reserve-insertion fix target.
    vec_decls: Vec<(String, usize, usize)>,
    /// Walking a value bound to a fault-named place: the initializer of a
    /// `let fault_rng`, a `fault_rng: ..` struct-literal field, or the
    /// right-hand side of `self.fault_rng = ..`. P3 treats RNG sites there
    /// as fault code whatever the enclosing function.
    fault_site: bool,
}

impl<'a> Checker<'a> {
    // ----- rule scoping ---------------------------------------------------

    /// U1/U2 apply: sim code outside the unit-definition files.
    fn u_on(&self) -> bool {
        self.sim && !self.unit_def_file
    }

    /// U3 additionally exempts tests/examples and `#[cfg(test)]` code.
    fn u3_on(&self) -> bool {
        self.u_on() && !self.test_path && !self.in_test
    }

    /// O1 applies in the dcsim/netsim hot paths, non-test only.
    fn o1_on(&self) -> bool {
        self.o1_zone && !self.test_path && !self.in_test
    }

    /// Inside `units.rs`/`time.rs` *all* integer `+`/`*` counts for O1
    /// (that is where the unit impls themselves live).
    fn o1_all(&self) -> bool {
        self.unit_def_file
    }

    /// The local P-rule (P4) applies in sim code outside tests/examples.
    fn p_on(&self) -> bool {
        self.sim && !self.in_test && !self.test_path
    }

    // ----- helpers --------------------------------------------------------

    fn src_of(&self, span: Span) -> &str {
        self.src.get(span.lo..span.hi).unwrap_or("")
    }

    fn push(&mut self, rule: Rule, span: Span, message: String, fix: Option<Fix>) {
        let (line, col) = self.index.line_col(span.lo);
        self.findings.push(Finding {
            path: self.path.clone(),
            line,
            col,
            rule,
            message,
            fix,
        });
    }

    /// Whether `e` can take a postfix `.method(..)` without parentheses.
    fn postfix_safe(e: &Expr) -> bool {
        matches!(
            e.kind,
            ExprKind::Path(_)
                | ExprKind::Lit(_)
                | ExprKind::Field { .. }
                | ExprKind::MethodCall { .. }
                | ExprKind::Call { .. }
                | ExprKind::Paren(_)
                | ExprKind::Index { .. }
                | ExprKind::Try(_)
                | ExprKind::MacroCall { .. }
        )
    }

    fn wrapped(&self, e: &Expr) -> String {
        let text = self.src_of(e.span);
        if Self::postfix_safe(e) {
            text.to_string()
        } else {
            format!("({text})")
        }
    }

    // ----- declaration walk -----------------------------------------------

    /// Pre-bind module-level consts so expressions can resolve them.
    fn bind_consts(&mut self, items: &[Item]) {
        for item in items {
            match item {
                Item::Const { name, ty, .. } => {
                    self.env.bind(name, Ty::from_typeref(ty));
                }
                Item::Mod { items, .. } => self.bind_consts(items),
                _ => {}
            }
        }
    }

    fn walk_items(&mut self, items: &[Item], self_ty: Option<&Ty>, in_test: bool) {
        for item in items {
            match item {
                Item::Fn(f) => self.walk_fn(f, self_ty, in_test),
                Item::Impl {
                    self_ty: st,
                    items,
                    cfg_test,
                    ..
                } => {
                    let ty = Ty::from_typeref(st);
                    self.walk_items(items, Some(&ty), in_test || *cfg_test);
                }
                Item::Mod {
                    cfg_test, items, ..
                } => self.walk_items(items, None, in_test || *cfg_test),
                Item::Trait { name, items } => {
                    // Default trait methods are owned by the trait, so
                    // dispatch through the trait name resolves to them.
                    let ty = Ty::Named {
                        name: name.clone(),
                        args: Vec::new(),
                    };
                    self.walk_items(items, Some(&ty), in_test);
                }
                Item::Const {
                    name,
                    ty,
                    init,
                    is_static,
                    is_mut,
                    line,
                } => {
                    if *is_static {
                        self.facts.statics.push(StaticItem {
                            name: name.clone(),
                            path: self.path.clone(),
                            line: *line,
                            is_mut: *is_mut,
                            interior: type_has_interior_mutability(ty),
                            is_test: in_test || self.test_path,
                        });
                    }
                    if let Some(e) = init {
                        let saved = self.in_test;
                        self.in_test = in_test;
                        self.expr_ty(e);
                        self.in_test = saved;
                    }
                }
                _ => {}
            }
        }
    }

    fn walk_fn(&mut self, f: &FnItem, self_ty: Option<&Ty>, in_test: bool) {
        let owner = self_ty.and_then(named_of).map(|s| s.to_string());
        let fact_idx = self.facts.fns.len();
        // A4 raw material: workspace-struct/enum parameters taken by
        // value whose estimated size exceeds a cache line.
        let mut byval_params = Vec::new();
        for (pat, ty) in &f.params {
            let TypeRef::Path { segs, .. } = ty else {
                continue;
            };
            let Some(tn) = segs.last() else { continue };
            if !self.sym.structs.contains_key(tn) && !self.sym.enums.contains_key(tn) {
                continue;
            }
            let est = self.sym.est_size(ty, 0);
            if est <= crate::cost::BYVAL_LIMIT {
                continue;
            }
            if let Some(name) = pat.as_binding() {
                byval_params.push(ByvalParam {
                    name: name.to_string(),
                    ty: tn.clone(),
                    est_bytes: est,
                });
            }
        }
        self.facts.fns.push(FnFacts {
            key: FnKey {
                owner,
                name: f.name.clone(),
            },
            path: self.path.clone(),
            line: f.line,
            is_test: in_test || f.cfg_test || self.test_path,
            byval_params,
            ..FnFacts::default()
        });
        let Some(body) = &f.body else { return };
        self.fn_stack.push(fact_idx);
        let decl_mark = self.hash_decls.len();
        let vec_mark = self.vec_decls.len();
        let saved = self.in_test;
        self.in_test = in_test || f.cfg_test;
        self.env.push();
        if f.self_param.is_some() {
            if let Some(ty) = self_ty {
                self.env.bind("self", ty.clone());
            }
        }
        for (pat, ty) in &f.params {
            let t = Ty::from_typeref(ty);
            self.bind_pat(pat, &t);
        }
        self.block_ty(body);
        self.env.pop();
        self.in_test = saved;
        self.hash_decls.truncate(decl_mark);
        self.vec_decls.truncate(vec_mark);
        self.fn_stack.pop();
    }

    // ----- interprocedural fact recording ---------------------------------

    /// The facts record of the innermost enclosing function, if any.
    fn fact(&mut self) -> Option<&mut FnFacts> {
        let &i = self.fn_stack.last()?;
        self.facts.fns.get_mut(i)
    }

    /// Current lengths of the fact vectors the loop/fold hooks diff.
    fn fact_marks(&mut self) -> (usize, usize) {
        match self.fact() {
            Some(f) => (f.unstable_iters.len(), f.calls.len()),
            None => (0, 0),
        }
    }

    /// The simple binding name an iteration receiver refers to, looking
    /// through `&`/parens.
    fn binding_of(e: &Expr) -> Option<&str> {
        match &e.kind {
            ExprKind::Path(segs) if segs.len() == 1 => Some(&segs[0]),
            ExprKind::Unary(inner) | ExprKind::Paren(inner) => Self::binding_of(inner),
            _ => None,
        }
    }

    /// Build the mechanical container-swap fix for an iteration over a
    /// local whose annotated `let` declares a hash container.
    fn hash_swap_fix(&self, binding: Option<&str>) -> Option<Fix> {
        let name = binding?;
        let &(_, line, container) = self.hash_decls.iter().rev().find(|(n, _, _)| n == name)?;
        let lo = *self.index.starts.get(line.saturating_sub(1))?;
        let hi = self
            .index
            .starts
            .get(line)
            .map(|n| n.saturating_sub(1))
            .unwrap_or(self.src.len());
        let text = self.src.get(lo..hi)?;
        let replacement_for = |c: &str| match c {
            "HashMap" => "BTreeMap",
            _ => "BTreeSet",
        };
        let mut out = String::with_capacity(text.len() + 8);
        let mut rest = text;
        let mut changed = false;
        while let Some(at) = find_ident(rest, container) {
            out.push_str(&rest[..at]);
            out.push_str(replacement_for(container));
            rest = &rest[at + container.len()..];
            changed = true;
        }
        out.push_str(rest);
        changed.then_some(Fix {
            span: Span { lo, hi },
            replacement: out,
        })
    }

    /// Record an order-unstable iteration site.
    fn note_unstable_iter(&mut self, container: &'static str, recv: Option<&Expr>, e: &Expr) {
        let fix = self.hash_swap_fix(recv.and_then(Self::binding_of));
        let site = UnstableIter {
            line: e.line,
            span: e.span,
            container,
            fix,
        };
        if let Some(f) = self.fact() {
            f.unstable_iters.push(site);
        }
    }

    /// Record a heap-allocation site for the A1 hot-path pass. Loop
    /// context is captured here because only the local walk knows it.
    fn note_alloc(&mut self, kind: AllocKind, what: String, e: &Expr) {
        let site = AllocSite {
            line: e.line,
            span: e.span,
            kind,
            what,
            in_loop: !self.loop_stack.is_empty(),
            fix: None,
        };
        if let Some(f) = self.fact() {
            f.alloc_sites.push(site);
        }
    }

    /// Record everything the interprocedural pass wants to know about a
    /// method call, and run the local P4 check.
    fn note_method_call(
        &mut self,
        recv: &Expr,
        name: &str,
        args: &[Expr],
        rt: &Ty,
        ats: &[Ty],
        e: &Expr,
    ) {
        let owner = named_of(rt).map(|s| s.to_string());
        let call = CallRef {
            owner,
            name: name.to_string(),
            via_method: true,
            line: e.line,
            span: e.span,
        };
        if let Some(f) = self.fact() {
            f.calls.push(call);
        }

        // D5: `.expect("")` panics without naming the violated invariant.
        // (`.unwrap()` is clippy's `unwrap_used`, denied in sim crates.)
        if self.sim
            && name == "expect"
            && matches!(args, [a] if matches!(a.kind, ExprKind::Lit(Lit::Str(false))))
        {
            self.push(
                Rule::D5,
                e.span,
                ".expect(\"\") documents nothing; state the invariant in the message".into(),
                None,
            );
        }

        if name == "stream" && args.len() == 1 {
            let arg = match &args[0].kind {
                ExprKind::Lit(l @ Lit::Int(_)) => l
                    .int_value()
                    .map(StreamArg::Num)
                    .unwrap_or(StreamArg::Other),
                ExprKind::Path(segs) => match segs.last() {
                    Some(last) if is_screaming_case(last) => StreamArg::Named(last.clone()),
                    _ => StreamArg::Other,
                },
                _ => StreamArg::Other,
            };
            let line = e.line;
            let fault = self.fault_site || names_fault(self.src_of(e.span));
            if let Some(f) = self.fact() {
                f.stream_calls.push((arg, line, fault));
            }
        }

        let recv_name = named_of(rt);
        if ITER_METHODS.contains(&name) {
            if let Some(container @ ("HashMap" | "HashSet")) = recv_name {
                let container: &'static str = if container == "HashMap" {
                    "HashMap"
                } else {
                    "HashSet"
                };
                self.note_unstable_iter(container, Some(recv), e);
            }
        }

        if SORT_METHODS.contains(&name) {
            if let Some(f) = self.fact() {
                f.sorts = true;
            }
        }

        let is_sched = SCHED_METHODS.contains(&name)
            || (name == "push"
                && (matches!(recv_name, Some("EventQueue" | "TimingWheel"))
                    || matches!(ats.first(), Some(Ty::Unit(UnitKind::Nanos)))));
        if is_sched {
            let line = e.line;
            let span = e.span;
            if let Some(f) = self.fact() {
                f.sched_sinks.push((line, span));
            }
        }

        let is_metric = METRIC_METHODS.contains(&name)
            || (name == "record" && matches!(recv_name, Some("LogHistogram" | "MetricsRegistry")));
        if is_metric {
            let line = e.line;
            let span = e.span;
            if let Some(f) = self.fact() {
                f.metric_sinks.push((line, span));
            }
        }

        // A-family raw material: reserve knowledge, allocation sites, and
        // collect-then-iterate chains. Loop context is captured in the site.
        if matches!(name, "reserve" | "reserve_exact") {
            if let Some(f) = self.fact() {
                f.reserves = true;
            }
        }
        let recv_binding = Self::binding_of(recv).map(|s| s.to_string());
        let is_growth_push = matches!(name, "push" | "push_back" | "push_front")
            && !is_sched
            && recv_name != Some("BinaryHeap")
            && (matches!(recv_name, Some("Vec" | "VecDeque"))
                || recv_binding
                    .as_deref()
                    .is_some_and(|b| self.vec_decls.iter().any(|(n, _, _)| n == b)));
        if is_growth_push {
            self.note_alloc(
                AllocKind::VecPush,
                format!("`.{name}` growing an unreserved buffer"),
                e,
            );
            // Mechanical fix: when the loop head iterates a *different*
            // sized local, rewrite the buffer's `Vec::new()` declaration to
            // `Vec::with_capacity(head.len())`. Attached to the decl-site
            // alloc record so the finding that owns the span carries it.
            let head = self
                .loop_stack
                .last()
                .and_then(|l| l.head_binding.clone())
                .filter(|h| Some(h.as_str()) != recv_binding.as_deref());
            if let (Some(h), Some(b)) = (head, recv_binding.as_deref()) {
                if let Some(&(_, fn_idx, site_idx)) =
                    self.vec_decls.iter().rev().find(|(n, _, _)| n == b)
                {
                    if let Some(site) = self
                        .facts
                        .fns
                        .get_mut(fn_idx)
                        .and_then(|f| f.alloc_sites.get_mut(site_idx))
                    {
                        if site.fix.is_none() {
                            site.fix = Some(Fix {
                                span: site.span,
                                replacement: format!("Vec::with_capacity({h}.len())"),
                            });
                        }
                    }
                }
            }
        }
        if matches!(name, "to_string" | "to_owned") {
            self.note_alloc(
                AllocKind::StringAlloc,
                format!("`.{name}()` string allocation"),
                e,
            );
        }
        if name == "clone" && args.is_empty() {
            let heapy = match recv_name {
                Some(
                    n @ ("Vec" | "VecDeque" | "String" | "Box" | "Rc" | "Arc" | "BTreeMap"
                    | "BTreeSet" | "HashMap" | "HashSet" | "BinaryHeap"),
                ) => Some(n),
                Some(n) if self.sym.owns_heap(n) => Some(n),
                _ => None,
            };
            if let Some(n) = heapy {
                self.note_alloc(
                    AllocKind::CloneHeap,
                    format!("`.clone()` of heap-owning `{n}`"),
                    e,
                );
            }
        }
        if matches!(name, "into_iter" | "iter" | "iter_mut") {
            if let ExprKind::MethodCall {
                recv: inner,
                name: rn,
                ..
            } = &recv.kind
            {
                if rn == "collect" {
                    // Only `.collect::<Vec<_>>().into_iter()` can be deleted
                    // type-soundly (`.iter()` would change the element type).
                    let fix = (name == "into_iter").then(|| Fix {
                        span: Span {
                            lo: inner.span.hi,
                            hi: e.span.hi,
                        },
                        replacement: String::new(),
                    });
                    let method: &'static str = match name {
                        "into_iter" => "into_iter",
                        "iter" => "iter",
                        _ => "iter_mut",
                    };
                    let site = CollectIter {
                        line: e.line,
                        span: e.span,
                        method,
                        in_loop: !self.loop_stack.is_empty(),
                        fix,
                    };
                    if let Some(f) = self.fact() {
                        f.collect_iters.push(site);
                    }
                }
            }
        }

        // P4: pushing a bare-time key (or a `(time, payload)` pair with no
        // integer tiebreak) into a BinaryHeap — equal timestamps then pop
        // in arbitrary order.
        if self.p_on() && name == "push" && recv_name == Some("BinaryHeap") {
            if let Some(first) = ats.first() {
                if let Some(msg) = p4_key_problem(first) {
                    self.push(
                        Rule::P4,
                        e.span,
                        format!(
                            "{msg}; equal timestamps then pop in arbitrary order — key \
                             the heap by `(time, seq)` with a monotonic sequence number \
                             (see dcsim::EventQueue)"
                        ),
                        None,
                    );
                }
            }
        }
    }

    /// Record free / qualified-path calls (`helper(..)`, `DetRng::new(..)`)
    /// as call edges and RNG-construction sites.
    fn note_path_call(&mut self, callee: &Expr, e: &Expr) {
        let ExprKind::Path(segs) = &callee.kind else {
            return;
        };
        let Some(last) = segs.last() else { return };
        // Uppercase heads are constructors / enum variants, not functions.
        if !last
            .chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_')
        {
            return;
        }
        let owner = (segs.len() >= 2).then(|| segs[segs.len() - 2].clone());
        match (owner.as_deref(), last.as_str()) {
            (Some("Box"), "new") => {
                self.note_alloc(AllocKind::BoxNew, "`Box::new` heap allocation".into(), e)
            }
            (Some("Vec" | "VecDeque"), "new") => self.note_alloc(
                AllocKind::VecGrowth,
                format!("`{}::new` unreserved buffer", segs[segs.len() - 2]),
                e,
            ),
            (Some("String"), "new" | "from") => self.note_alloc(
                AllocKind::StringAlloc,
                format!("`String::{last}` allocation"),
                e,
            ),
            (_, "with_capacity") => {
                if let Some(f) = self.fact() {
                    f.reserves = true;
                }
            }
            _ => {}
        }
        let is_rng_new = owner.as_deref() == Some("DetRng") && last == "new";
        // `DetRng::new(cfg.fault_seed)` seeds fault randomness wherever it sits.
        let fault = is_rng_new && (self.fault_site || names_fault(self.src_of(e.span)));
        let call = CallRef {
            owner,
            name: last.clone(),
            via_method: false,
            line: e.line,
            span: e.span,
        };
        if let Some(f) = self.fact() {
            if is_rng_new {
                f.rng_news.push((call.line, fault));
            }
            f.calls.push(call);
        }
    }

    /// P4 on the declaration side (`let q: BinaryHeap<Nanos> = ..`) plus
    /// bookkeeping of hash-container `let`s for the P2 container-swap fix.
    fn check_let_annotation(&mut self, pat: &Pat, ann: &TypeRef, init: Option<&Expr>) {
        let TypeRef::Path { segs, args } = ann else {
            return;
        };
        let Some(last) = segs.last().map(|s| s.as_str()) else {
            return;
        };

        if matches!(last, "HashMap" | "HashSet") {
            if let (Pat::Path(psegs), Some(init)) = (pat, init) {
                if psegs.len() == 1 {
                    let container: &'static str = if last == "HashMap" {
                        "HashMap"
                    } else {
                        "HashSet"
                    };
                    self.hash_decls
                        .push((psegs[0].clone(), init.line, container));
                }
            }
        }

        if !self.p_on() || last != "BinaryHeap" {
            return;
        }
        let Some(key) = args.first().map(Ty::from_typeref) else {
            return;
        };
        let (msg, fixable) = match &key {
            Ty::Unit(UnitKind::Nanos) => (
                "BinaryHeap keyed by bare Nanos has no pop order for equal timestamps",
                false,
            ),
            Ty::Tuple(ts)
                if matches!(ts.first(), Some(Ty::Unit(UnitKind::Nanos)))
                    && ts.len() >= 2
                    && !matches!(ts.get(1), Some(Ty::Int { .. })) =>
            {
                (
                    "BinaryHeap keyed by `(Nanos, payload)` breaks ties by comparing \
                     payloads, not by arrival order",
                    true,
                )
            }
            _ => return,
        };
        // Mechanical fix: widen the key to `(Nanos, u64, ..)` so callers get
        // a slot for a monotonic sequence number.
        let fix = fixable
            .then(|| {
                let line = init.map(|i| i.line)?;
                let lo = *self.index.starts.get(line.saturating_sub(1))?;
                let hi = self
                    .index
                    .starts
                    .get(line)
                    .map(|n| n.saturating_sub(1))
                    .unwrap_or(self.src.len());
                let text = self.src.get(lo..hi)?;
                let at = text.find("(Nanos,")?;
                let insert_at = lo + at + "(Nanos,".len();
                Some(Fix {
                    span: Span {
                        lo: insert_at,
                        hi: insert_at,
                    },
                    replacement: " u64,".to_string(),
                })
            })
            .flatten();
        let span = init.map(|i| i.span).unwrap_or(Span { lo: 0, hi: 0 });
        self.push(
            Rule::P4,
            span,
            format!(
                "{msg}; key the heap by `(time, seq)` with a monotonic sequence \
                 number (see dcsim::EventQueue)"
            ),
            fix,
        );
    }

    // ----- bindings -------------------------------------------------------

    fn bind_pat(&mut self, pat: &Pat, ty: &Ty) {
        match pat {
            Pat::Path(segs) if segs.len() == 1 => {
                let name = &segs[0];
                if name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_')
                {
                    self.env.bind(name, ty.clone());
                }
            }
            Pat::TupleStruct { path, elems } => {
                let last = path.last().map(|s| s.as_str()).unwrap_or("");
                if let (Some(k), 1) = (UnitKind::from_name(last), elems.len()) {
                    self.bind_pat(&elems[0], &Ty::Int { from: Some(k) });
                } else if matches!(last, "Some" | "Ok") && elems.len() == 1 {
                    let inner = match ty {
                        Ty::Named { name, args } if name == "Option" || name == "Result" => {
                            args.first().cloned().unwrap_or(Ty::Unknown)
                        }
                        _ => Ty::Unknown,
                    };
                    self.bind_pat(&elems[0], &inner);
                } else if let Some(info) = self.sym.structs.get(last) {
                    let fields = info.tuple_fields.clone();
                    for (i, elem) in elems.iter().enumerate() {
                        let t = fields.get(i).map(Ty::from_typeref).unwrap_or(Ty::Unknown);
                        self.bind_pat(elem, &t);
                    }
                } else {
                    // Unknown payloads still shadow outer bindings.
                    for elem in elems {
                        self.bind_pat(elem, &Ty::Unknown);
                    }
                }
            }
            Pat::Tuple(elems) => {
                if let Ty::Tuple(ts) = ty {
                    for (i, elem) in elems.iter().enumerate() {
                        let t = ts.get(i).cloned().unwrap_or(Ty::Unknown);
                        self.bind_pat(elem, &t);
                    }
                } else {
                    for elem in elems {
                        self.bind_pat(elem, &Ty::Unknown);
                    }
                }
            }
            Pat::Or(ps) => {
                for p in ps {
                    self.bind_pat(p, ty);
                }
            }
            _ => {}
        }
    }

    // ----- expressions ----------------------------------------------------

    fn block_ty(&mut self, block: &Block) -> Ty {
        self.env.push();
        let mut last = Ty::Unknown;
        for stmt in &block.stmts {
            last = Ty::Unknown;
            match stmt {
                Stmt::Let { pat, ty, init } => {
                    let fault = pat.as_binding().is_some_and(names_fault);
                    let ity = init.as_ref().map(|e| self.fault_ty(fault, e));
                    // Track `let xs = Vec::new()` so a later `.push` in a
                    // loop can target this decl with a `with_capacity` fix.
                    if let (Some(init), Some(binding)) = (init.as_ref(), pat.as_binding()) {
                        if let ExprKind::Call { callee, .. } = &init.kind {
                            if let ExprKind::Path(segs) = &callee.kind {
                                if segs.len() >= 2
                                    && segs[segs.len() - 2] == "Vec"
                                    && segs[segs.len() - 1] == "new"
                                {
                                    let binding = binding.to_string();
                                    if let Some(&fn_idx) = self.fn_stack.last() {
                                        if let Some(site_idx) = self
                                            .facts
                                            .fns
                                            .get(fn_idx)
                                            .map(|f| f.alloc_sites.len())
                                            .filter(|n| *n > 0)
                                            .map(|n| n - 1)
                                        {
                                            self.vec_decls.push((binding, fn_idx, site_idx));
                                        }
                                    }
                                }
                            }
                        }
                    }
                    if let Some(ann) = ty {
                        self.check_let_annotation(pat, ann, init.as_ref());
                    }
                    let t = ty
                        .as_ref()
                        .map(Ty::from_typeref)
                        .or(ity)
                        .unwrap_or(Ty::Unknown);
                    self.bind_pat(pat, &t);
                }
                Stmt::Expr(e) => last = self.expr_ty(e),
                Stmt::Item(item) => {
                    self.walk_items(std::slice::from_ref(item), None, self.in_test);
                }
            }
        }
        self.env.pop();
        last
    }

    /// [`Self::expr_ty`] for a value bound to a place; `fault` marks the
    /// place as fault-named (see `fault_site`).
    fn fault_ty(&mut self, fault: bool, e: &Expr) -> Ty {
        let outer = self.fault_site;
        self.fault_site |= fault;
        let ty = self.expr_ty(e);
        self.fault_site = outer;
        ty
    }

    fn expr_ty(&mut self, e: &Expr) -> Ty {
        match &e.kind {
            ExprKind::Lit(l) => match l {
                Lit::Int(_) => Ty::RAW_INT,
                Lit::Float => Ty::Float,
                Lit::Bool(_) => Ty::Bool,
                _ => Ty::Unknown,
            },
            ExprKind::Path(segs) => {
                if let Some(last) = segs.last() {
                    if is_screaming_case(last) {
                        let name = last.clone();
                        let line = e.line;
                        if let Some(f) = self.fact() {
                            f.caps_refs.push((name, line));
                        }
                    }
                }
                self.path_ty(segs)
            }
            ExprKind::Unary(inner) => self.expr_ty(inner),
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.expr_ty(lhs);
                let rt = self.expr_ty(rhs);
                self.arith_check(*op, None, lhs, rhs, &lt, &rt, e.span);
                match op {
                    BinOp::Cmp | BinOp::Logic => Ty::Bool,
                    BinOp::Range => Ty::Unknown,
                    BinOp::Bit => {
                        if lt.is_int() {
                            lt
                        } else {
                            Ty::Unknown
                        }
                    }
                    _ => Self::arith_result(&lt, &rt),
                }
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let lt = self.expr_ty(lhs);
                let target = match &lhs.kind {
                    ExprKind::Field { name, .. } => Some(name.as_str()),
                    ExprKind::Path(segs) => segs.last().map(String::as_str),
                    _ => None,
                };
                let rt = self.fault_ty(target.is_some_and(names_fault), rhs);
                if let Some(op) = op {
                    self.arith_check(*op, Some(lhs), lhs, rhs, &lt, &rt, e.span);
                    // `sum += x` on a float inside a loop is a reduction whose
                    // result depends on iteration order (P5 raw material).
                    if matches!(op, BinOp::Add) && matches!(lt, Ty::Float) {
                        if let Some(frame) = self.loop_stack.last() {
                            let accum = FloatAccum {
                                line: e.line,
                                span: e.span,
                                head_unstable: frame.head_unstable,
                                head_calls: frame.head_calls.clone(),
                            };
                            if let Some(f) = self.fact() {
                                f.float_accums.push(accum);
                            }
                        }
                    }
                }
                Ty::Unknown
            }
            ExprKind::Call { callee, args } => {
                self.note_path_call(callee, e);
                self.call_ty(callee, args, e)
            }
            ExprKind::MethodCall { recv, name, args } => {
                let (iters_before, calls_before) = self.fact_marks();
                let rt = self.expr_ty(recv);
                let (iters_after, calls_after) = self.fact_marks();
                let ats: Vec<Ty> = args.iter().map(|a| self.expr_ty(a)).collect();
                self.note_method_call(recv, name, args, &rt, &ats, e);
                // `.fold(0.0, ..)` over an order-unstable chain is a float
                // reduction in disguise (P5).
                if name == "fold"
                    && args.len() == 2
                    && matches!(&args[0].kind, ExprKind::Lit(Lit::Float))
                {
                    let accum = FloatAccum {
                        line: e.line,
                        span: e.span,
                        head_unstable: iters_after > iters_before,
                        head_calls: (calls_before..calls_after).collect(),
                    };
                    if let Some(f) = self.fact() {
                        f.float_accums.push(accum);
                    }
                }
                method_ret(self.sym, &rt, name, &ats)
            }
            ExprKind::Field {
                recv,
                name,
                access_span,
            } => self.field_ty(recv, name, *access_span),
            ExprKind::Cast { expr, ty } => {
                let et = self.expr_ty(expr);
                match Ty::from_typeref(ty) {
                    Ty::Int { .. } => Ty::Int { from: et.taint() },
                    other => other,
                }
            }
            ExprKind::Paren(inner) => self.expr_ty(inner),
            ExprKind::Tuple(es) => Ty::Tuple(es.iter().map(|x| self.expr_ty(x)).collect()),
            ExprKind::Array(es) => {
                for x in es {
                    self.expr_ty(x);
                }
                Ty::Unknown
            }
            ExprKind::Index { recv, idx } => {
                let rt = self.expr_ty(recv);
                self.expr_ty(idx);
                elem_of(&rt)
            }
            ExprKind::Block(b) => self.block_ty(b),
            ExprKind::If { cond, then, else_ } => {
                self.expr_ty(cond);
                self.block_ty(then);
                if let Some(e2) = else_ {
                    self.expr_ty(e2);
                }
                Ty::Unknown
            }
            ExprKind::Match { scrutinee, arms } => {
                let st = self.expr_ty(scrutinee);
                for arm in arms {
                    self.env.push();
                    self.bind_pat(&arm.pat, &st);
                    if let Some(g) = &arm.guard {
                        self.expr_ty(g);
                    }
                    self.expr_ty(&arm.body);
                    self.env.pop();
                }
                Ty::Unknown
            }
            ExprKind::Loop { pat, head, body } => {
                let (iters_before, calls_before) = self.fact_marks();
                let ht = head.as_ref().map(|h| self.expr_ty(h));
                // `for (k, v) in &map` iterates without an explicit `.iter()`
                // call; classify the head from its type.
                if let (Some(h), Some(Ty::Named { name, .. })) = (head.as_deref(), &ht) {
                    let container = match name.as_str() {
                        "HashMap" => Some("HashMap"),
                        "HashSet" => Some("HashSet"),
                        _ => None,
                    };
                    if let Some(c) = container {
                        self.note_unstable_iter(c, Some(h), h);
                    }
                }
                // A3 on the loop head itself: `for x in xs.collect()` (any
                // IntoIterator works) — the materialized Vec is pure waste,
                // so deleting the `.collect::<..>()` suffix is type-sound.
                if let Some(h) = head.as_deref() {
                    if let ExprKind::MethodCall {
                        recv: inner,
                        name: hn,
                        ..
                    } = &h.kind
                    {
                        if hn == "collect" {
                            let site = CollectIter {
                                line: h.line,
                                span: h.span,
                                method: "for-loop head",
                                in_loop: !self.loop_stack.is_empty(),
                                fix: Some(Fix {
                                    span: Span {
                                        lo: inner.span.hi,
                                        hi: h.span.hi,
                                    },
                                    replacement: String::new(),
                                }),
                            };
                            if let Some(f) = self.fact() {
                                f.collect_iters.push(site);
                            }
                        }
                    }
                }
                let (iters_after, calls_after) = self.fact_marks();
                self.loop_stack.push(LoopFrame {
                    head_unstable: iters_after > iters_before,
                    head_calls: (calls_before..calls_after).collect(),
                    head_binding: head.as_deref().and_then(|h| {
                        let b = match &h.kind {
                            ExprKind::MethodCall { recv, name, .. }
                                if ITER_METHODS.contains(&name.as_str()) =>
                            {
                                Self::binding_of(recv)
                            }
                            _ => Self::binding_of(h),
                        };
                        b.map(|s| s.to_string())
                    }),
                });
                self.env.push();
                if let (Some(p), Some(h)) = (pat, &ht) {
                    let elem = elem_of(h);
                    self.bind_pat(p, &elem);
                }
                self.block_ty(body);
                self.env.pop();
                self.loop_stack.pop();
                Ty::Unknown
            }
            ExprKind::Closure { params, body } => {
                self.env.push();
                for (pat, ty) in params {
                    let t = ty.as_ref().map(Ty::from_typeref).unwrap_or(Ty::Unknown);
                    self.bind_pat(pat, &t);
                }
                self.expr_ty(body);
                self.env.pop();
                Ty::Unknown
            }
            ExprKind::StructLit { path, fields, rest } => {
                for (name, v) in fields {
                    if let Some(v) = v {
                        self.fault_ty(names_fault(name), v);
                    }
                }
                if let Some(r) = rest {
                    self.expr_ty(r);
                }
                match path.last().map(|s| s.as_str()) {
                    Some(last) => match UnitKind::from_name(last) {
                        Some(k) => Ty::Unit(k),
                        None => Ty::Named {
                            name: last.to_string(),
                            args: Vec::new(),
                        },
                    },
                    None => Ty::Unknown,
                }
            }
            ExprKind::MacroCall { name, args } => {
                match name.as_str() {
                    "vec" => self.note_alloc(
                        AllocKind::VecGrowth,
                        "`vec![..]` heap allocation".into(),
                        e,
                    ),
                    "format" => self.note_alloc(
                        AllocKind::StringAlloc,
                        "`format!` string allocation".into(),
                        e,
                    ),
                    _ => {}
                }
                for a in args {
                    self.expr_ty(a);
                }
                Ty::Unknown
            }
            ExprKind::Jump(v) => {
                if let Some(v) = v {
                    self.expr_ty(v);
                }
                Ty::Unknown
            }
            ExprKind::Try(inner) => {
                let t = self.expr_ty(inner);
                match t {
                    Ty::Named { ref name, ref args } if name == "Option" || name == "Result" => {
                        args.first().cloned().unwrap_or(Ty::Unknown)
                    }
                    _ => Ty::Unknown,
                }
            }
            ExprKind::RangeLit { lo, hi } => {
                if let Some(l) = lo {
                    self.expr_ty(l);
                }
                if let Some(h) = hi {
                    self.expr_ty(h);
                }
                Ty::Unknown
            }
            ExprKind::Opaque => Ty::Unknown,
        }
    }

    fn path_ty(&mut self, segs: &[String]) -> Ty {
        match segs {
            [one] => {
                if one
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_')
                {
                    self.env.lookup(one)
                } else if let Some(en) = self.sym.enum_of_variant(one) {
                    Ty::Named {
                        name: en.to_string(),
                        args: Vec::new(),
                    }
                } else {
                    self.env.lookup(one)
                }
            }
            [.., t, last] => {
                if let Some(ty) = self.sym.assoc_consts.get(&(t.clone(), last.clone())) {
                    return Ty::from_typeref(ty);
                }
                if let Some(info) = self.sym.enums.get(t) {
                    if info.variants.iter().any(|v| v == last) {
                        return Ty::Named {
                            name: t.clone(),
                            args: Vec::new(),
                        };
                    }
                }
                if matches!(
                    t.as_str(),
                    "u8" | "u16"
                        | "u32"
                        | "u64"
                        | "u128"
                        | "usize"
                        | "i8"
                        | "i16"
                        | "i32"
                        | "i64"
                        | "i128"
                        | "isize"
                ) {
                    return Ty::RAW_INT;
                }
                Ty::Unknown
            }
            _ => Ty::Unknown,
        }
    }

    fn call_ty(&mut self, callee: &Expr, args: &[Expr], whole: &Expr) -> Ty {
        let ats: Vec<Ty> = args.iter().map(|a| self.expr_ty(a)).collect();
        let ExprKind::Path(segs) = &callee.kind else {
            self.expr_ty(callee);
            return Ty::Unknown;
        };
        let last = segs.last().map(|s| s.as_str()).unwrap_or("");

        // Unit tuple-struct construction: `Nanos(80)`.
        if let Some(k) = UnitKind::from_name(last) {
            self.check_u3(k, segs, args, whole);
            return Ty::Unit(k);
        }

        // `Some(x)` / `Ok(x)` wrap their argument.
        if matches!(last, "Some" | "Ok") && ats.len() == 1 {
            let name = if last == "Some" { "Option" } else { "Result" };
            return Ty::Named {
                name: name.to_string(),
                args: vec![ats[0].clone()],
            };
        }

        if segs.len() >= 2 {
            let t = &segs[segs.len() - 2];
            // Associated function: `Nanos::from_micros(5)`.
            if let Some(info) = self.sym.methods.get(&(t.clone(), last.to_string())) {
                if !info.has_self {
                    return Ty::from_typeref(&info.ret);
                }
            }
            // Enum variant constructor: `Event::Arrival(f)`.
            if let Some(info) = self.sym.enums.get(t) {
                if info.variants.iter().any(|v| v == last) {
                    return Ty::Named {
                        name: t.clone(),
                        args: Vec::new(),
                    };
                }
            }
        } else {
            // Other tuple-struct constructors: `NodeId(3)`.
            if let Some(info) = self.sym.structs.get(last) {
                if !info.tuple_fields.is_empty() {
                    return Ty::Named {
                        name: last.to_string(),
                        args: Vec::new(),
                    };
                }
            }
            if let Some(Some(ret)) = self.sym.free_fns.get(last) {
                return Ty::from_typeref(ret);
            }
        }
        Ty::Unknown
    }

    fn field_ty(&mut self, recv: &Expr, name: &str, access_span: Span) -> Ty {
        let rt = self.expr_ty(recv);
        if name.bytes().all(|b| b.is_ascii_digit()) {
            let idx: usize = name.parse().unwrap_or(usize::MAX);
            return match rt {
                Ty::Unit(k) => {
                    if self.u_on() {
                        let fixable = self
                            .sym
                            .methods
                            .get(&(k.name().to_string(), "as_u64".to_string()))
                            .is_some_and(|m| m.has_self);
                        let fix = fixable.then(|| Fix {
                            span: access_span,
                            replacement: ".as_u64()".to_string(),
                        });
                        self.push(
                            Rule::U2,
                            access_span,
                            format!(
                                "`.0` escapes the {} newtype into an untyped u64; \
                                 use `.as_u64()` so the escape is named and auditable",
                                k.name()
                            ),
                            fix,
                        );
                    }
                    Ty::Int { from: Some(k) }
                }
                Ty::Named { name: n, .. } => self
                    .sym
                    .structs
                    .get(&n)
                    .and_then(|s| s.tuple_fields.get(idx))
                    .map(Ty::from_typeref)
                    .unwrap_or(Ty::Unknown),
                Ty::Tuple(ts) => ts.get(idx).cloned().unwrap_or(Ty::Unknown),
                _ => Ty::Unknown,
            };
        }
        match rt {
            Ty::Named { name: n, .. } => self
                .sym
                .structs
                .get(&n)
                .and_then(|s| s.fields.get(name))
                .map(Ty::from_typeref)
                .unwrap_or(Ty::Unknown),
            _ => Ty::Unknown,
        }
    }

    // ----- the rules ------------------------------------------------------

    /// U3: raw-literal unit construction outside `units.rs`/`time.rs`.
    fn check_u3(&mut self, k: UnitKind, segs: &[String], args: &[Expr], whole: &Expr) {
        if !self.u3_on() || args.len() != 1 {
            return;
        }
        let ExprKind::Lit(lit @ Lit::Int(_)) = &args[0].kind else {
            return;
        };
        let lit_text = self.src_of(args[0].span).to_string();
        let value = lit.int_value();
        // Preserve any path qualifier (`dcsim::Bytes(..)` must become
        // `dcsim::Bytes::ZERO`, not the possibly-unimported bare name).
        let qual = if segs.len() > 1 {
            format!("{}::", segs[..segs.len() - 1].join("::"))
        } else {
            String::new()
        };
        let replacement = format!("{qual}{}", self.unit_ctor(k, &lit_text, value));
        let message = format!(
            "raw literal construction `{}` bypasses the named unit \
             constructors; write `{}` instead",
            self.src_of(whole.span),
            replacement
        );
        self.push(
            Rule::U3,
            whole.span,
            message,
            Some(Fix {
                span: whole.span,
                replacement,
            }),
        );
    }

    /// The named constructor a raw unit literal should use.
    fn unit_ctor(&self, k: UnitKind, lit_text: &str, value: Option<u64>) -> String {
        let has_zero = self
            .sym
            .assoc_consts
            .contains_key(&(k.name().to_string(), "ZERO".to_string()));
        if value == Some(0) && has_zero {
            return format!("{}::ZERO", k.name());
        }
        match k {
            UnitKind::Nanos => format!("Nanos::from_ns({lit_text})"),
            UnitKind::Bytes => format!("Bytes::new({lit_text})"),
            UnitKind::BitRate => format!("BitRate::from_bps({lit_text})"),
        }
    }

    /// U1 (unit mixing) and O1 (overflow policy) on one binary/compound
    /// arithmetic operation. `assign_to` is the target of `op=` forms.
    #[allow(clippy::too_many_arguments)]
    fn arith_check(
        &mut self,
        op: BinOp,
        assign_to: Option<&Expr>,
        lhs: &Expr,
        rhs: &Expr,
        lt: &Ty,
        rt: &Ty,
        span: Span,
    ) {
        if !op.is_arith() {
            return;
        }
        let is_assign = assign_to.is_some();
        let trait_name = op.trait_name().map(|t| {
            if is_assign {
                format!("{t}Assign")
            } else {
                t.to_string()
            }
        });

        // U1: unit/raw mixing.
        if self.u_on() {
            let mix: Option<String> = match (lt, rt) {
                (Ty::Unit(a), Ty::Unit(b)) if a != b => Some(format!(
                    "`{}` {} `{}` mixes two different units",
                    a.name(),
                    op.describe(),
                    b.name()
                )),
                (Ty::Unit(a), Ty::Int { .. }) => {
                    let tn = trait_name.as_deref().unwrap_or("");
                    if self.sym.has_op_impl(tn, a.name(), true) {
                        None
                    } else {
                        Some(format!(
                            "`{}` {} raw integer has no `{}<u64>` impl; convert \
                             explicitly (named constructor or `.as_u64()`)",
                            a.name(),
                            op.describe(),
                            tn
                        ))
                    }
                }
                (Ty::Int { .. }, Ty::Unit(a)) => Some(format!(
                    "raw integer {} `{}` puts the unit on the wrong side; no \
                     such operator impl exists",
                    op.describe(),
                    a.name()
                )),
                (Ty::Int { from: Some(a) }, Ty::Int { from: Some(b) }) if a != b => Some(format!(
                    "mixes a u64 escaped from `{}` with one escaped from `{}`; \
                     convert to a single unit before doing arithmetic",
                    a.name(),
                    b.name()
                )),
                _ => None,
            };
            if let Some(msg) = mix {
                self.push(Rule::U1, span, msg, None);
            }
        }

        // O1: unchecked `+` / `*` / `+=` / `*=` on u64 quantities.
        if matches!(op, BinOp::Add | BinOp::Mul) && self.o1_on() {
            let both_int = lt.is_int() && rt.is_int();
            let tainted = lt.taint().is_some() || rt.taint().is_some();
            if both_int && (self.o1_all() || tainted) {
                let method = match op {
                    BinOp::Add => "saturating_add",
                    _ => "saturating_mul",
                };
                let rhs_src = self.src_of(rhs.span).to_string();
                let fix = if let Some(target) = assign_to {
                    let tgt = self.src_of(target.span).to_string();
                    Some(Fix {
                        span,
                        replacement: format!("{tgt} = {tgt}.{method}({rhs_src})"),
                    })
                } else {
                    Some(Fix {
                        span,
                        replacement: format!("{}.{method}({rhs_src})", self.wrapped(lhs)),
                    })
                };
                let what = lt
                    .taint()
                    .or(rt.taint())
                    .map(|k| format!("u64 {} quantity", k.name()))
                    .unwrap_or_else(|| "u64 quantity".to_string());
                self.push(
                    Rule::O1,
                    span,
                    format!(
                        "unchecked `{}{}` on a {} can overflow and corrupt the \
                         simulation silently; use `{}`/`checked_{}` or add a \
                         justified `simlint: allow(O1)`",
                        op.describe(),
                        if is_assign { "=" } else { "" },
                        what,
                        method,
                        match op {
                            BinOp::Add => "add",
                            _ => "mul",
                        },
                    ),
                    fix,
                );
            }
        }
    }

    fn arith_result(lt: &Ty, rt: &Ty) -> Ty {
        match (lt, rt) {
            (Ty::Unit(a), Ty::Unit(b)) if a == b => Ty::Unit(*a),
            (Ty::Unit(a), Ty::Int { .. }) | (Ty::Int { .. }, Ty::Unit(a)) => Ty::Unit(*a),
            (Ty::Int { from: a }, Ty::Int { from: b }) => Ty::Int { from: a.or(*b) },
            (Ty::Float, _) | (_, Ty::Float) => Ty::Float,
            _ => Ty::Unknown,
        }
    }
}

// ----- free helpers for fact collection -----------------------------------

/// Byte offset of the first standalone occurrence of identifier `word`.
fn find_ident(code: &str, word: &str) -> Option<usize> {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let end = at + word.len();
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len().max(1);
    }
    None
}

/// Does `code` name a fault-injection identifier (`fault_rng`,
/// `FaultPlan`, `cfg.fault_seed`)? Matched per identifier, so `default`
/// never counts.
fn names_fault(code: &str) -> bool {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map(str::to_ascii_lowercase)
        .any(|ident| ident.contains("fault") && !ident.contains("default"))
}

/// `SCREAMING_SNAKE_CASE` identifier: a likely named constant.
pub(crate) fn is_screaming_case(s: &str) -> bool {
    s.len() > 1
        && s.bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
        && s.bytes().any(|b| b.is_ascii_uppercase())
}

/// Whether a type mentions an interior-mutability cell (or an atomic)
/// anywhere in its structure.
pub(crate) fn type_has_interior_mutability(ty: &TypeRef) -> bool {
    match ty {
        TypeRef::Path { segs, args } => {
            segs.last().is_some_and(|s| {
                crate::flow::INTERIOR_CELLS.contains(&s.as_str()) || s.starts_with("Atomic")
            }) || args.iter().any(type_has_interior_mutability)
        }
        TypeRef::Ref(inner) => type_has_interior_mutability(inner),
        TypeRef::Tuple(ts) => ts.iter().any(type_has_interior_mutability),
        _ => false,
    }
}

/// Why a heap key type breaks deterministic tie-breaking, if it does.
fn p4_key_problem(ty: &Ty) -> Option<&'static str> {
    match ty {
        Ty::Unit(UnitKind::Nanos) => {
            Some("BinaryHeap keyed by bare Nanos has no pop order for equal timestamps")
        }
        Ty::Tuple(ts)
            if matches!(ts.first(), Some(Ty::Unit(UnitKind::Nanos)))
                && ts.len() >= 2
                && !matches!(ts.get(1), Some(Ty::Int { .. })) =>
        {
            Some(
                "BinaryHeap entry `(Nanos, payload)` breaks timestamp ties by comparing \
                 payloads, not by arrival order",
            )
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::sym::Symbols;

    /// A self-contained prelude defining the unit types the way the
    /// workspace does, so single-file tests exercise real resolution.
    const PRELUDE: &str = "\
pub struct Nanos(pub u64);
pub struct Bytes(pub u64);
pub struct BitRate(pub u64);
impl Nanos {
    pub const ZERO: Nanos = Nanos(0);
    pub fn as_u64(self) -> u64 { self.0 }
    pub fn from_ns(ns: u64) -> Nanos { Nanos(ns) }
}
impl Bytes {
    pub fn as_u64(self) -> u64 { self.0 }
    pub fn new(b: u64) -> Bytes { Bytes(b) }
}
impl Mul<u64> for Nanos { fn mul(self, rhs: u64) -> Nanos { Nanos(self.0 * rhs) } }
impl Add for Nanos { fn add(self, rhs: Nanos) -> Nanos { Nanos(self.0 + rhs.0) } }
";

    fn check(path: &str, body: &str) -> Vec<Finding> {
        // The prelude lives in `units.rs` exactly like the workspace's
        // real unit definitions, so it is exempt from U/O checks itself.
        let (pf, _) = parse_file("crates/dcsim/src/units.rs", PRELUDE).expect("prelude parses");
        let (bf, _) = parse_file(path, body).expect("test source parses");
        let files = [pf, bf];
        let sym = Symbols::build(&files);
        check_file(&files[1], body, &sym)
    }

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        let mut r: Vec<Rule> = findings.iter().map(|f| f.rule).collect();
        r.sort();
        r.dedup();
        r
    }

    #[test]
    fn u1_flags_unit_plus_raw_int() {
        let f = check(
            "crates/dcsim/src/engine.rs",
            "fn f(t: Nanos) -> Nanos { t + 5 }\n",
        );
        assert_eq!(rules_of(&f), vec![Rule::U1]);
    }

    #[test]
    fn u1_allows_impl_backed_scalar_ops() {
        // `Nanos * u64` exists (`impl Mul<u64> for Nanos`), `Nanos + Nanos` too.
        let f = check(
            "crates/dcsim/src/engine.rs",
            "fn f(t: Nanos, n: u64) -> Nanos { t * n + t }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn u1_flags_cross_unit_taint() {
        let f = check(
            "crates/dcsim/src/engine.rs",
            "fn f(t: Nanos, b: Bytes) -> u64 { t.as_u64() + b.as_u64() }\n",
        );
        assert!(f.iter().any(|x| x.rule == Rule::U1), "{f:?}");
    }

    #[test]
    fn u2_flags_newtype_escape_with_fix() {
        let f = check(
            "crates/netsim/src/network.rs",
            "fn f(t: Nanos) -> u64 { t.0 }\n",
        );
        let u2: Vec<_> = f.iter().filter(|x| x.rule == Rule::U2).collect();
        assert_eq!(u2.len(), 1, "{f:?}");
        assert_eq!(
            u2[0].fix.as_ref().expect("has fix").replacement,
            ".as_u64()"
        );
    }

    #[test]
    fn u2_ignores_non_unit_tuple_fields() {
        let f = check(
            "crates/netsim/src/network.rs",
            "pub struct NodeId(pub u64);\nfn f(n: NodeId) -> u64 { n.0 }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn u3_flags_raw_literal_ctor_and_maps_zero() {
        let f = check(
            "crates/dcsim/src/engine.rs",
            "fn f() -> Nanos { Nanos(80) }\nfn g() -> Nanos { Nanos(0) }\n",
        );
        let u3: Vec<_> = f.iter().filter(|x| x.rule == Rule::U3).collect();
        assert_eq!(u3.len(), 2, "{f:?}");
        assert_eq!(
            u3[0].fix.as_ref().expect("fix").replacement,
            "Nanos::from_ns(80)"
        );
        assert_eq!(u3[1].fix.as_ref().expect("fix").replacement, "Nanos::ZERO");
    }

    #[test]
    fn u3_exempt_in_cfg_test() {
        let f = check(
            "crates/dcsim/src/engine.rs",
            "#[cfg(test)]\nmod tests {\n    fn f() -> Nanos { Nanos(80) }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn o1_flags_tainted_add_with_fix() {
        let f = check(
            "crates/dcsim/src/wheel.rs",
            "fn f(t: Nanos, d: u64) -> u64 { t.as_u64() + d }\n",
        );
        let o1: Vec<_> = f.iter().filter(|x| x.rule == Rule::O1).collect();
        assert_eq!(o1.len(), 1, "{f:?}");
        assert_eq!(
            o1[0].fix.as_ref().expect("fix").replacement,
            "t.as_u64().saturating_add(d)"
        );
    }

    #[test]
    fn o1_ignores_untainted_counters_outside_unit_files() {
        let f = check(
            "crates/dcsim/src/wheel.rs",
            "fn f(i: u64) -> u64 { i + 1 }\n",
        );
        assert!(f.iter().all(|x| x.rule != Rule::O1), "{f:?}");
    }

    #[test]
    fn o1_compound_assign_fix() {
        let f = check(
            "crates/netsim/src/port.rs",
            "fn f(total: u64, t: Nanos) -> u64 { let mut x = total; x += t.as_u64(); x }\n",
        );
        let o1: Vec<_> = f.iter().filter(|x| x.rule == Rule::O1).collect();
        assert_eq!(o1.len(), 1, "{f:?}");
        assert_eq!(
            o1[0].fix.as_ref().expect("fix").replacement,
            "x = x.saturating_add(t.as_u64())"
        );
    }

    #[test]
    fn o1_not_outside_hot_zone() {
        let f = check(
            "crates/cc-hpcc/src/lib.rs",
            "fn f(t: Nanos, d: u64) -> u64 { t.as_u64() + d }\n",
        );
        assert!(f.iter().all(|x| x.rule != Rule::O1), "{f:?}");
    }

    #[test]
    fn shadowing_clears_unit_types() {
        // `t` rebound by a pattern must not keep its outer Nanos type.
        let f = check(
            "crates/dcsim/src/engine.rs",
            "fn f(t: Nanos, o: Option<u64>) -> u64 {\n\
                 match o { Some(t) => t + 1, None => 0 }\n\
             }\n",
        );
        assert!(f.iter().all(|x| x.rule != Rule::U1), "{f:?}");
    }
}
