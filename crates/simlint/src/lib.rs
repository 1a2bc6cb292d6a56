//! `simlint` — the workspace's determinism/invariant static-analysis pass.
//!
//! The paper's figures are reproducible only because every run is
//! bit-deterministic. The golden-fingerprint tests catch a regression *after*
//! it changed results; this crate and the clippy lints the workspace denies
//! keep the usual sources out of the tree in the first place. simlint checks
//! only what clippy cannot: a hand-rolled, dependency-free
//! recursive-descent parser ([`parse`]) for the Rust subset the workspace
//! uses produces per-file ASTs ([`ast`]) plus a workspace symbol table
//! ([`sym`]: struct fields, enum variants, operator impls, method
//! signatures, use-paths), and local type inference with unit taint
//! ([`infer`]) powers the per-file rules ([`sem`]).
//!
//! # What clippy enforces instead
//!
//! `cargo clippy --workspace --all-targets --all-features -- -D warnings`
//! runs in CI and in `tests/simlint_clean.rs`. The root `clippy.toml`
//! (`crates/bench/clippy.toml` for the timing harness) and a
//! `[lints.clippy]` table in every sim crate's manifest carry the checks
//! simlint's retired line scanner used to make:
//!
//! | retired | clippy lint | scope |
//! |---------|-------------|-------|
//! | D1 `HashMap`/`HashSet` | `disallowed_types` | every crate |
//! | D2 `Instant`/`SystemTime` | `disallowed_types` | every crate; `bench` may use `Instant` |
//! | D3 `RandomState` | `disallowed_types` | every crate (the workspace has no `rand`) |
//! | D4 lossy casts | `cast_possible_truncation`, `cast_sign_loss` | sim crates |
//! | D5 `.unwrap()` | `unwrap_used` | sim crates |
//! | D6 fault RNG streams | simlint P3 | sim crates |
//! | E1 wildcard arms | `wildcard_enum_match_arm` | sim crates |
//! | `thread_local!` (P1) | `disallowed_macros` | every crate |
//!
//! # Rules
//!
//! | id | forbids | scope |
//! |----|---------|-------|
//! | D5 | `.expect("")` without an invariant message | sim crates |
//! | U1 | arithmetic mixing `Nanos`/`Bytes`/`BitRate` with raw integers or each other (unless an operator impl exists) | sim crates, except `units.rs`/`time.rs` |
//! | U2 | `.0` newtype escapes (use `.as_u64()`) | sim crates, except `units.rs`/`time.rs` |
//! | U3 | raw-literal unit construction (`Nanos(80)`) | sim crates, non-test |
//! | O1 | unchecked `+`/`*`/`+=` on u64 time/byte quantities | dcsim/netsim hot paths, non-test |
//! | P1 | mutable statics and interior-mutability cells reachable from engine hot paths | sim crates, non-test |
//! | P2 | order-unstable iteration feeding event scheduling or metrics | sim crates, non-test |
//! | P3 | DetRng stream discipline across call chains | sim crates, non-test |
//! | P4 | event heaps keyed by bare time with no sequence tiebreak | sim crates, non-test |
//! | P5 | order-sensitive float accumulation | sim crates, non-test |
//! | A1 | heap allocation reachable from engine hot roots | sim crates, non-test |
//! | A2 | boxed event payloads that fit inline | sim crates, non-test |
//! | A3 | collect-then-iterate materialization on hot chains | sim crates, non-test |
//! | A4 | large structs passed by value across hot call edges | sim crates, non-test |
//! | S1 | stale `simlint: allow(...)` comments that suppress nothing | everywhere |
//!
//! *Sim crates* are `dcsim`, `netsim`, `core` (faircc), `cc-*`, `fairsim`,
//! `fleet`, `simtrace`, and the workspace root's `src/`, `tests/`, and
//! `examples/`. The support crates (`minijson`, `workloads`, `metrics`,
//! `fluid`, `simlint` itself) and the timing harness (`bench`) get S1 only.
//!
//! # Suppression
//!
//! A finding is suppressed by a comment on the same line, or on a
//! comment-only line directly above:
//!
//! ```text
//! // simlint: allow(O1) — widened to u128; product of two u64 fits
//! let num = (self.0 as u128) * (dur.0 as u128);
//! ```
//!
//! Multiple ids separate with commas: `simlint: allow(U2, O1)`.
//!
//! # The passes
//!
//! Only lexer errors and unbalanced delimiters are fatal (exit code 2);
//! everything else degrades to opaque AST nodes, and every check fires
//! only on positively identified types, so incomplete inference means
//! silence rather than noise. Findings with mechanical rewrites carry a
//! [`Fix`]; [`fix_source_set`]/[`fix_tree`] apply them to a fixpoint so
//! `--fix` is idempotent. [`emit`] renders JSON and SARIF 2.1.0 for CI.
//!
//! The semantic walk also records per-function facts ([`callgraph`])
//! linked into a workspace call graph. Two rule families ride it: the
//! P family ([`flow`]) flags parallel-readiness hazards (shared mutable
//! state, order-unstable iteration feeding scheduling/metrics, RNG
//! stream discipline, bare-time heap keys, order-sensitive float
//! accumulation), and the A family ([`cost`]) flags per-event cost —
//! heap allocation reachable from the engine hot roots (A1), boxed
//! event payloads that fit inline (A2), collect-then-iterate
//! materialization (A3), and large by-value parameters on hot call
//! edges (A4). P/A findings carry witness call chains from a hot root.
//!
//! Deliberate, justified allocations are managed by a committed ratchet
//! file ([`Baseline`], `simlint --baseline FILE`): CI fails only on
//! findings not present in the baseline, so the sweep can be staged
//! without ever letting new cost regressions in.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod cost;
pub mod emit;
pub mod fix;
pub mod flow;
pub mod infer;
pub mod lex;
pub mod parse;
pub mod sem;
pub mod sym;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One of the determinism/invariant rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Empty-message `.expect("")` in sim crates.
    D5,
    /// Arithmetic mixing unit newtypes with raw integers or each other.
    U1,
    /// `.0` escapes of unit newtypes outside the unit-definition files.
    U2,
    /// Raw-literal unit construction outside the unit-definition files.
    U3,
    /// Unchecked `+`/`*`/`+=` on u64 quantities in dcsim/netsim.
    O1,
    /// Shared mutable state reachable from engine hot paths.
    P1,
    /// Order-unstable iteration feeding event scheduling or metrics.
    P2,
    /// DetRng stream discipline violated across call chains.
    P3,
    /// Event heaps keyed by bare time with no sequence tiebreak.
    P4,
    /// Order-sensitive float accumulation in reduction positions.
    P5,
    /// Heap allocation in functions reachable from engine hot roots.
    A1,
    /// Boxed event payloads whose concrete types fit an inline variant.
    A2,
    /// Collect-then-iterate materialization on hot call chains.
    A3,
    /// Large structs passed by value across hot call edges.
    A4,
    /// Stale `simlint: allow(...)` comments that suppress nothing.
    S1,
}

impl Rule {
    /// Every rule, in id order.
    pub const ALL: [Rule; 15] = [
        Rule::D5,
        Rule::U1,
        Rule::U2,
        Rule::U3,
        Rule::O1,
        Rule::P1,
        Rule::P2,
        Rule::P3,
        Rule::P4,
        Rule::P5,
        Rule::A1,
        Rule::A2,
        Rule::A3,
        Rule::A4,
        Rule::S1,
    ];

    /// The short id used in reports and suppression comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D5 => "D5",
            Rule::U1 => "U1",
            Rule::U2 => "U2",
            Rule::U3 => "U3",
            Rule::O1 => "O1",
            Rule::P1 => "P1",
            Rule::P2 => "P2",
            Rule::P3 => "P3",
            Rule::P4 => "P4",
            Rule::P5 => "P5",
            Rule::A1 => "A1",
            Rule::A2 => "A2",
            Rule::A3 => "A3",
            Rule::A4 => "A4",
            Rule::S1 => "S1",
        }
    }

    /// The rule family letter (`'D'`, `'U'`, `'O'`, `'P'`, `'A'`, `'S'`).
    pub fn family(self) -> char {
        self.id().chars().next().expect("rule ids are non-empty")
    }

    /// One-line description for `--explain` output.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D5 => {
                ".expect(\"\") hides the violated invariant; use a typed error or \
                 .expect(\"why this cannot fail\")"
            }
            Rule::U1 => {
                "arithmetic mixing Nanos/Bytes/BitRate with raw integers (or with each \
                 other) bypasses unit safety; convert explicitly via named constructors \
                 or .as_u64()"
            }
            Rule::U2 => {
                ".0 escapes a unit newtype into an untyped u64 invisibly; \
                 .as_u64() names the escape so it can be audited"
            }
            Rule::U3 => {
                "raw-literal unit construction (Nanos(80)) bypasses the named \
                 constructors that document the scale; use Nanos::from_ns / \
                 Bytes::new / BitRate::from_bps or a unit constant"
            }
            Rule::O1 => {
                "unchecked +/*/+= on u64 time/byte quantities in dcsim/netsim hot \
                 paths can overflow silently; use saturating_*/checked_* or a \
                 justified allow"
            }
            Rule::P1 => {
                "mutable statics and interior-mutability cells reachable from engine \
                 hot paths become cross-thread shared state under the parallel engine; \
                 thread the state through &mut instead"
            }
            Rule::P2 => {
                "HashMap/HashSet iteration order feeds event scheduling or metrics \
                 aggregation (possibly through call chains); shard merging then \
                 depends on hasher state — use BTreeMap/BTreeSet or sort first"
            }
            Rule::P3 => {
                "DetRng stream discipline violated across call chains: a subsystem \
                 draws from another subsystem's stream or seeds a private generator, \
                 so per-shard replay diverges; use the named *_STREAM constants"
            }
            Rule::P4 => {
                "an event heap keyed by bare time has no pop order for equal \
                 timestamps; the parallel merge needs a (time, seq) key with a \
                 monotonic sequence number"
            }
            Rule::P5 => {
                "float accumulation whose operand order depends on map iteration \
                 rounds differently per run; sort the operands or accumulate in \
                 integers"
            }
            Rule::A1 => {
                "heap allocation (Box::new, growing Vec/String, format!, clone of \
                 heap-owning types) in functions reachable from engine hot roots \
                 dominates per-event cost at scale; pool, pre-size, or inline instead"
            }
            Rule::A2 => {
                "a boxed event payload whose concrete type fits an inline enum \
                 variant costs one heap round-trip per event; store the payload by \
                 value or as a slab handle"
            }
            Rule::A3 => {
                "collect-then-iterate materializes an intermediate Vec on a hot \
                 chain; fuse the iterator chain instead"
            }
            Rule::A4 => {
                "passing a large struct by value across a hot call edge copies it \
                 on every call; pass a reference"
            }
            Rule::S1 => {
                "a simlint: allow(...) comment that no longer suppresses anything is \
                 dead weight and hides future findings; delete it"
            }
        }
    }

    /// Long-form explanation for `--explain RULE`: what the rule catches,
    /// why it matters for the deterministic parallel engine, and how to fix
    /// findings.
    pub fn doc(self) -> &'static str {
        match self {
            Rule::D5 => {
                "D5 — empty-message expect in sim crates.\n\n\
                 .expect(\"\") hides which invariant was violated when it fires. \
                 (.unwrap() is clippy's unwrap_used, denied in every sim crate.)\n\n\
                 Fix: return a typed error, or .expect(\"why this cannot fail\")."
            }
            Rule::U1 => {
                "U1 — unit-mixing arithmetic.\n\n\
                 Adding Nanos to Bytes, or a unit newtype to a raw integer, bypasses \
                 the type discipline the newtypes exist for.\n\n\
                 Fix: convert explicitly via named constructors or .as_u64() at an \
                 audited boundary."
            }
            Rule::U2 => {
                "U2 — `.0` escapes of unit newtypes.\n\n\
                 Tuple-field access turns a typed quantity into an anonymous u64 with \
                 no searchable marker.\n\n\
                 Fix: call .as_u64(); the auto-fix rewrites `.0` mechanically."
            }
            Rule::U3 => {
                "U3 — raw-literal unit construction.\n\n\
                 `Nanos(80)` does not say 80 of what scale. Named constructors do.\n\n\
                 Fix: Nanos::from_ns/from_us/.., Bytes::new, BitRate::from_gbps, or \
                 a named constant."
            }
            Rule::O1 => {
                "O1 — unchecked u64 arithmetic in hot paths.\n\n\
                 dcsim/netsim hot paths multiply byte counts by rates; silent \
                 wraparound corrupts schedules rather than crashing.\n\n\
                 Fix: saturating_*/checked_*, or an allow naming the bound that \
                 makes overflow impossible."
            }
            Rule::P1 => {
                "P1 — shared mutable state reachable from engine hot paths.\n\n\
                 The planned parallel engine runs shards on worker threads. A \
                 `static mut` or a static Cell/RefCell/Mutex/atomic referenced \
                 from the run/step call graph either races or \
                 (under locks/atomics) makes results depend on thread interleaving \
                 — both break bit-identical replay.\n\n\
                 Findings carry a witness call chain from a hot root (run/step) to \
                 the referencing function.\n\n\
                 Fix: thread the state through &mut self / function parameters so \
                 each shard owns its copy; merge explicitly at barriers. \
                 (thread_local! is banned outright by clippy's disallowed_macros.)"
            }
            Rule::P2 => {
                "P2 — order-unstable iteration feeding scheduling or metrics.\n\n\
                 Iterating a HashMap/HashSet and scheduling events (or folding \
                 metrics) in that order makes the event timeline depend on hasher \
                 state. The interprocedural pass also catches chains: a helper \
                 returns values gathered in hash order and the caller schedules \
                 from them.\n\n\
                 Fix: switch the container to BTreeMap/BTreeSet (the auto-fix \
                 rewrites annotated local declarations) or sort before consuming. \
                 Sorting anywhere on the chain clears the taint."
            }
            Rule::P3 => {
                "P3 — DetRng stream discipline across call chains.\n\n\
                 Each subsystem owns one stream: 0 workload, 1 ECMP, 2 RED, \
                 3 feedback, 4 faults. A subsystem-marked function (or anything it \
                 calls) constructing DetRng::new(seed) or calling .stream(n) with \
                 the wrong n couples draw sequences between subsystems, so shards \
                 replay differently when one subsystem's draw count changes.\n\n\
                 Functions that legitimately distribute streams (naming two or \
                 more *_STREAM constants or fanning out two or more streams) are \
                 exempt, except fault code: a function named for faults, any \
                 function in a fault-named file, and any value bound to a \
                 fault-named place (`let fault_rng = ..`, a `fault_rng: ..` \
                 struct field, `self.fault_rng = ..`) or naming a fault \
                 identifier (`DetRng::new(cfg.fault_seed)`) must draw from \
                 FAULT_STREAM alone, so enabling faults never perturbs the \
                 workload/ECMP/RED draw sequences.\n\n\
                 Fix: accept a DetRng handle from the caller, and name streams via \
                 the dcsim::rng *_STREAM constants instead of raw numbers."
            }
            Rule::P4 => {
                "P4 — event heaps keyed by bare time.\n\n\
                 BinaryHeap<Nanos> (or (Nanos, payload) with a non-integer second \
                 element) has no defined pop order for equal timestamps. The \
                 parallel engine merges per-shard queues by (time, seq); a heap \
                 without the seq slot cannot take part.\n\n\
                 Fix: key by (Nanos, u64, ..) with a monotonic sequence counter — \
                 dcsim::EventQueue is the reference implementation. The auto-fix \
                 inserts the u64 slot into annotated declarations."
            }
            Rule::P5 => {
                "P5 — order-sensitive float accumulation.\n\n\
                 Float addition is not associative; `sum += x` (or .fold(0.0, ..)) \
                 over a HashMap iteration — directly or via a helper that gathers \
                 in hash order — yields run-dependent low bits that compound in \
                 fairness metrics.\n\n\
                 Fix: iterate a BTree container, sort operands first, or accumulate \
                 in integer units (Nanos/Bytes) and convert once at the end."
            }
            Rule::A1 => {
                "A1 — heap allocation on the engine hot path.\n\n\
                 The fat-tree runs dispatch millions of events; ROADMAP item 5 \
                 measured per-event overhead (boxing, transient Vecs, clones) \
                 overtaking algorithmic order on the incast cell. A1 walks the \
                 call graph forward from the hot roots (run/run_with/run_watched/\
                 step, scheduler push/pop, port enqueue/dequeue) and reports \
                 Box::new, Vec construction and pushes without a reachable \
                 capacity reservation, String/format! allocation, and .clone() \
                 of heap-owning workspace types. Constructor/builder-named \
                 callees (new/build*/with_*/from_*/setup*/init*/default) \
                 terminate the walk — their cost is amortized setup — and in \
                 once-per-run roots (run*) only allocations inside loops fire. \
                 Sites inside loops escalate: they allocate every iteration.\n\n\
                 Findings carry a witness chain from the hot root to the \
                 allocating function.\n\n\
                 Fix: allocate from a pool/slab (netsim::PacketPool), pre-size \
                 with with_capacity/reserve (the auto-fix inserts a capacity \
                 when the loop bound is a sized local), inline payloads, or \
                 carry a justified allow / baseline entry for deliberate \
                 one-time growth."
            }
            Rule::A2 => {
                "A2 — boxed event payloads that fit inline.\n\n\
                 A Box<T> payload in a sim-scope event enum costs one heap \
                 allocation + pointer chase per event. When the symbol table \
                 shows T is a small workspace type (est. <= 128 bytes), the \
                 variant can hold T by value — or a Copy slab handle — and the \
                 event queue stays allocation-free. Boxed trait objects are \
                 flagged unconditionally: enumerate the concrete payload types \
                 as inline variants.\n\n\
                 Fix: store the payload by value, or replace the box with a \
                 generation-indexed pool handle (see netsim::packet::PacketHandle)."
            }
            Rule::A3 => {
                "A3 — collect-then-iterate on hot chains.\n\n\
                 `.collect::<Vec<_>>()` followed by `.into_iter()`/`.iter()` (or \
                 a for-loop over a fresh collect) materializes an intermediate \
                 Vec only to walk it once — a transient allocation per call on \
                 the hot path.\n\n\
                 Fix: fuse the chain (the auto-fix deletes a type-sound \
                 `.collect::<Vec<_>>().into_iter()` pair), or hoist the \
                 materialization out of the hot path if the double walk is \
                 intentional."
            }
            Rule::A4 => {
                "A4 — large structs by value across hot call edges.\n\n\
                 A parameter whose struct type the symbol table sizes above 64 \
                 bytes is memcpy'd on every call; on per-event call chains that \
                 is pure overhead.\n\n\
                 Fix: take &T (or &mut T), or shrink the struct (slab handles \
                 instead of inline buffers)."
            }
            Rule::S1 => {
                "S1 — stale allows.\n\n\
                 A `simlint: allow(RULE)` comment whose rule no longer fires on \
                 that line (or that names no rule at all, such as a retired one) \
                 suppresses nothing today and a real finding tomorrow.\n\n\
                 Fix: delete it; the auto-fix does so mechanically."
            }
        }
    }

    /// Parse a rule id (used by suppression comments and `--rules`).
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim();
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }

    /// Parse a `--rules` filter entry: a rule id (`U2`) or a family
    /// letter (`U`). Returns every matching rule.
    pub fn parse_filter(s: &str) -> Option<Vec<Rule>> {
        let s = s.trim();
        if let Some(r) = Rule::parse(s) {
            return Some(vec![r]);
        }
        if s.len() == 1 {
            let fam = s.chars().next().expect("len checked");
            let rules: Vec<Rule> = Rule::ALL
                .into_iter()
                .filter(|r| r.family() == fam.to_ascii_uppercase())
                .collect();
            if !rules.is_empty() {
                return Some(rules);
            }
        }
        None
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// A mechanical rewrite attached to a finding: replace the byte span
/// with the replacement text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fix {
    /// Byte range in the file's source text.
    pub span: lex::Span,
    /// Replacement text.
    pub replacement: String,
}

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as displayed (relative to the scan root).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (byte offset within the line); 1 when the
    /// producing rule is line-granular.
    pub col: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// Mechanical rewrite, when the finding has one (`--fix` applies it).
    pub fix: Option<Fix>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A committed finding ratchet: known findings that are tolerated until
/// the code they point at is swept, while anything *new* still fails.
///
/// The on-disk format is line-oriented and diff-friendly:
///
/// ```text
/// # simlint baseline v1
/// A1<TAB>crates/netsim/src/packet.rs<TAB>57<TAB>free-form note
/// ```
///
/// Entries match findings by `(rule, path, line)` — moving a baselined
/// site (or fixing it) invalidates the entry, which is the point of a
/// ratchet: the file can only shrink without deliberate review.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    entries: std::collections::BTreeSet<(String, String, usize)>,
}

impl Baseline {
    /// Parse the on-disk format. Blank lines and `#` comments are
    /// skipped; a malformed entry line is an error (a silently dropped
    /// entry would un-suppress a finding with no explanation).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = std::collections::BTreeSet::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(4, '\t');
            let (Some(rule), Some(path), Some(lno)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "baseline line {}: expected RULE<TAB>PATH<TAB>LINE[<TAB>note]",
                    n + 1
                ));
            };
            if Rule::parse(rule).is_none() {
                return Err(format!("baseline line {}: unknown rule `{rule}`", n + 1));
            }
            let lno: usize = lno
                .parse()
                .map_err(|_| format!("baseline line {}: bad line number `{lno}`", n + 1))?;
            entries.insert((rule.to_string(), path.to_string(), lno));
        }
        Ok(Baseline { entries })
    }

    /// Render a finding set in the on-disk format (used by
    /// `--write-baseline`). The note column carries the first sentence
    /// of the message for human review; it is ignored when parsing.
    pub fn render(findings: &[Finding]) -> String {
        let mut out = String::from("# simlint baseline v1\n");
        let mut seen = std::collections::BTreeSet::new();
        for f in findings {
            if !seen.insert((f.rule.id(), f.path.as_str(), f.line)) {
                continue;
            }
            let note: String = f
                .message
                .split([';', '\n'])
                .next()
                .unwrap_or("")
                .chars()
                .take(120)
                .collect();
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                f.rule.id(),
                f.path,
                f.line,
                note
            ));
        }
        out
    }

    /// Whether a finding matches a baseline entry.
    pub fn contains(&self, f: &Finding) -> bool {
        self.entries
            .contains(&(f.rule.id().to_string(), f.path.clone(), f.line))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Split findings into `(new, baselined)`.
    pub fn split<'f>(&self, findings: &'f [Finding]) -> (Vec<&'f Finding>, Vec<&'f Finding>) {
        findings.iter().partition(|f| !self.contains(f))
    }

    /// Entries no finding matches any more, as `(rule, path, line)`.
    /// The ratchet treats these as errors: the swept code no longer
    /// needs the entry, so the baseline must shrink with it.
    pub fn stale(&self, findings: &[Finding]) -> Vec<(String, String, usize)> {
        self.entries
            .iter()
            .filter(|(rule, path, line)| {
                !findings
                    .iter()
                    .any(|f| f.rule.id() == rule && f.path == *path && f.line == *line)
            })
            .cloned()
            .collect()
    }
}

/// Which rule set a file gets, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Full rule set: the deterministic simulation stack.
    Sim,
    /// Support code and the timing harness (minijson, workloads, metrics,
    /// fluid, simlint, bench): S1 only.
    Support,
}

/// Classify a workspace-relative path into a rule scope.
///
/// Anything not recognizably inside a support crate — including the root
/// package's `src/`, `tests/`, and `examples/`, and out-of-tree files such
/// as the self-test fixtures — gets the full sim rule set.
pub fn scope_of(path: &str) -> Scope {
    let norm = path.replace('\\', "/");
    if let Some(rest) = norm.split("crates/").nth(1) {
        let krate = rest.split('/').next().unwrap_or("");
        return match krate {
            "bench" | "minijson" | "workloads" | "metrics" | "fluid" | "simlint" => Scope::Support,
            _ => Scope::Sim,
        };
    }
    Scope::Sim
}

/// Parse `simlint: allow(U2, O1)` style suppressions out of comment text.
/// Ids are kept as written: one that names no rule (a retired rule, say)
/// suppresses nothing, so S1 reports it as stale.
fn parse_suppressions(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("simlint: allow(") {
        let args = &rest[at + "simlint: allow(".len()..];
        if let Some(close) = args.find(')') {
            out.extend(args[..close].split(',').map(|id| id.trim().to_string()));
            rest = &args[close..];
        } else {
            break;
        }
    }
    out
}

/// Rewrite a comment's `simlint: allow(..)` lists without the ids that
/// name no rule.
fn drop_unknown_ids(comment: &str) -> String {
    let mut out = String::with_capacity(comment.len());
    let mut rest = comment;
    while let Some(at) = rest.find("simlint: allow(") {
        let open = at + "simlint: allow(".len();
        let Some(close) = rest[open..].find(')') else {
            break;
        };
        let known: Vec<&str> = rest[open..open + close]
            .split(',')
            .map(str::trim)
            .filter(|id| Rule::parse(id).is_some())
            .collect();
        out.push_str(&rest[..open]);
        out.push_str(&known.join(", "));
        rest = &rest[open + close..];
    }
    out.push_str(rest);
    out
}

/// Directories never descended into during a tree walk.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

/// Recursively collect the `.rs` files under `root`, sorted for
/// deterministic report order.
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The result of running the full pipeline over a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Post-suppression findings, sorted by (path, line, col, rule).
    pub findings: Vec<Finding>,
    /// Files the parser could not process (lexer error or unbalanced
    /// delimiters); no rule ran on these.
    pub parse_failures: Vec<parse::ParseFailure>,
    /// Number of files analyzed.
    pub scanned: usize,
}

/// One `simlint: allow(...)` directive found in a file's comments.
struct AllowSite {
    line: usize,
    end_line: usize,
    ids: Vec<String>,
    span: lex::Span,
    comment_only: bool,
    used: bool,
}

impl AllowSite {
    fn covers(&self, line: usize) -> bool {
        (self.line <= line && line <= self.end_line)
            || (self.comment_only && line == self.end_line + 1)
    }
}

/// Collect allow directives from lexed comments. Doc comments (`///`,
/// `//!`) are documentation, not directives — example allow text inside
/// them neither suppresses nor goes stale.
fn allows_from_lexed(lexed: &lex::Lexed) -> Vec<AllowSite> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        if c.doc {
            continue;
        }
        let ids = parse_suppressions(&c.text);
        if ids.is_empty() {
            continue;
        }
        let comment_only =
            (c.line..=c.end_line).all(|l| !lexed.line_has_code.get(l).copied().unwrap_or(false));
        out.push(AllowSite {
            line: c.line,
            end_line: c.end_line,
            ids,
            span: c.span,
            comment_only,
            used: false,
        });
    }
    out
}

/// The span `--fix` deletes for a stale allow: the comment plus its
/// leading inline whitespace, plus the trailing newline when the comment
/// stands on lines of its own.
fn stale_allow_deletion(src: &str, site: &AllowSite) -> lex::Span {
    let bytes = src.as_bytes();
    let mut lo = site.span.lo;
    while lo > 0 && matches!(bytes[lo - 1], b' ' | b'\t') {
        lo -= 1;
    }
    let mut hi = site.span.hi.min(src.len());
    if site.comment_only && (lo == 0 || bytes[lo - 1] == b'\n') && bytes.get(hi) == Some(&b'\n') {
        hi += 1;
    }
    lex::Span { lo, hi }
}

/// Run the full pipeline (semantic rules, interprocedural rules,
/// suppression, S1 staleness) over an in-memory set of
/// `(display_path, source)` files. The workspace symbol table is built
/// from every file that parses, so cross-file type resolution works.
/// Files that do not parse are reported in [`Analysis::parse_failures`]
/// and get no findings: every rule needs the AST.
pub fn analyze_files(files: &[(String, String)]) -> Analysis {
    let mut parse_failures = Vec::new();
    let mut parsed = Vec::with_capacity(files.len());
    for (path, src) in files {
        match parse::parse_file(path, src) {
            Ok((file, lexed)) => parsed.push((path, src, file, lexed)),
            Err(e) => parse_failures.push(e),
        }
    }
    let symbols = sym::Symbols::build(parsed.iter().map(|(_, _, file, _)| file));

    // Per-file pass: semantic rules, collecting the call-graph facts the
    // interprocedural pass consumes.
    let mut raws: Vec<Vec<Finding>> = Vec::with_capacity(parsed.len());
    let mut facts: Vec<callgraph::FileFacts> = Vec::with_capacity(parsed.len());
    for (_, src, file, _) in &parsed {
        let (sem_findings, file_facts) = sem::check_file_collect(file, src, &symbols);
        raws.push(sem_findings);
        facts.push(file_facts);
    }

    // Interprocedural pass: workspace call graph + P-family flow rules
    // and A-family cost rules. Runs before suppression so P/A findings
    // can be allowed and S1 staleness accounts for them.
    let graph = callgraph::CallGraph::build(facts);
    for f in flow::check(&graph)
        .into_iter()
        .chain(cost::check(&graph, &symbols))
    {
        if let Some(i) = parsed.iter().position(|(p, ..)| **p == f.path) {
            raws[i].push(f);
        }
    }

    // Suppression + S1 staleness, per file.
    let mut findings = Vec::new();
    for ((path, src, _, lexed), mut raw) in parsed.iter().zip(raws) {
        let mut allows = allows_from_lexed(lexed);
        raw.retain(|f| {
            let mut keep = true;
            for a in allows.iter_mut() {
                if a.covers(f.line) && a.ids.iter().any(|id| id == f.rule.id()) {
                    a.used = true;
                    keep = false;
                }
            }
            keep
        });
        let index = sem::LineIndex::new(src);
        for a in &allows {
            let (line, col) = index.line_col(a.span.lo);
            let unknown: Vec<&str> = a
                .ids
                .iter()
                .map(String::as_str)
                .filter(|id| Rule::parse(id).is_none())
                .collect();
            let (message, fix) = if !a.used {
                (
                    format!(
                        "stale `simlint: allow({})` — it suppresses nothing on \
                         this or the next line; delete it",
                        a.ids.join(", ")
                    ),
                    Fix {
                        span: stale_allow_deletion(src, a),
                        replacement: String::new(),
                    },
                )
            } else if !unknown.is_empty() {
                // The allow is live, but a retired or misspelled id rides
                // along in its list: drop just that id.
                (
                    format!(
                        "`simlint: allow({})` names {}, which is no simlint rule; \
                         delete the id",
                        a.ids.join(", "),
                        unknown.join(", ")
                    ),
                    Fix {
                        span: a.span,
                        replacement: drop_unknown_ids(&src[a.span.lo..a.span.hi]),
                    },
                )
            } else {
                continue;
            };
            raw.push(Finding {
                path: (*path).clone(),
                line,
                col,
                rule: Rule::S1,
                message,
                fix: Some(fix),
            });
        }
        findings.extend(raw);
    }

    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    parse_failures.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Analysis {
        findings,
        parse_failures,
        scanned: files.len(),
    }
}

/// Read every `.rs` file under `root` into memory, with workspace-
/// relative display paths.
pub fn read_tree(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for path in collect_rust_files(root)? {
        let display = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        out.push((display, src));
    }
    Ok(out)
}

/// Run the full pipeline over every `.rs` file under `root`.
pub fn analyze_tree(root: &Path) -> io::Result<Analysis> {
    Ok(analyze_files(&read_tree(root)?))
}

/// Scan every `.rs` file under `root` with the full rule set.
/// Returns `(findings, files_scanned)`; parse failures are reported via
/// [`analyze_tree`], which this wraps.
pub fn scan_tree(root: &Path) -> io::Result<(Vec<Finding>, usize)> {
    let a = analyze_tree(root)?;
    Ok((a.findings, a.scanned))
}

/// Apply every available fix across an in-memory file set, re-analyzing
/// between passes until no applicable fix remains (nested findings need
/// more than one splice). Returns the number of fixes applied.
pub fn fix_source_set(files: &mut [(String, String)]) -> usize {
    let mut total = 0;
    for _ in 0..8 {
        let analysis = analyze_files(files);
        let mut pass = 0;
        for (path, src) in files.iter_mut() {
            let per_file: Vec<&Finding> = analysis
                .findings
                .iter()
                .filter(|f| &f.path == path && f.fix.is_some())
                .collect();
            if per_file.is_empty() {
                continue;
            }
            let fixes: Vec<&Fix> = per_file.iter().filter_map(|f| f.fix.as_ref()).collect();
            let (new_src, n) = fix::apply_fixes(src, &fixes);
            if n > 0 {
                *src = new_src;
                pass += n;
            }
        }
        total += pass;
        if pass == 0 {
            break;
        }
    }
    total
}

/// Result of [`fix_tree`].
#[derive(Debug, Default)]
pub struct FixReport {
    /// Total fixes applied across all passes.
    pub applied: usize,
    /// Display paths of the files rewritten.
    pub files: Vec<String>,
}

/// Apply every available fix to the tree under `root`, writing changed
/// files back to disk.
pub fn fix_tree(root: &Path) -> io::Result<FixReport> {
    let original = read_tree(root)?;
    let mut files = original.clone();
    let applied = fix_source_set(&mut files);
    let mut report = FixReport {
        applied,
        files: Vec::new(),
    };
    for ((display, new_src), (_, old_src)) in files.iter().zip(&original) {
        if new_src != old_src {
            fs::write(root.join(display), new_src)?;
            report.files.push(display.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_classification() {
        assert_eq!(scope_of("crates/dcsim/src/engine.rs"), Scope::Sim);
        assert_eq!(scope_of("crates/cc-hpcc/src/lib.rs"), Scope::Sim);
        assert_eq!(scope_of("crates/fleet/src/pool.rs"), Scope::Sim);
        assert_eq!(scope_of("crates/bench/src/lib.rs"), Scope::Support);
        assert_eq!(scope_of("crates/minijson/src/lib.rs"), Scope::Support);
        assert_eq!(scope_of("crates/simlint/src/lib.rs"), Scope::Support);
        assert_eq!(scope_of("tests/determinism.rs"), Scope::Sim);
        assert_eq!(scope_of("examples/quickstart.rs"), Scope::Sim);
    }

    #[test]
    fn finding_display_format() {
        let files = vec![(
            "crates/dcsim/src/a.rs".to_string(),
            "fn f(x: Option<u32>) -> u32 { x.expect(\"\") }\n".to_string(),
        )];
        let f = analyze_files(&files).findings;
        let line = format!("{}", f[0]);
        assert!(
            line.starts_with("crates/dcsim/src/a.rs:1: error[D5]:"),
            "{line}"
        );
    }

    #[test]
    fn suppression_same_line_and_line_above() {
        let rules_in = |src: &str| -> Vec<Rule> {
            let files = vec![("crates/fairsim/src/a.rs".to_string(), src.to_string())];
            analyze_files(&files)
                .findings
                .iter()
                .map(|f| f.rule)
                .collect()
        };
        let same =
            "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"\") // simlint: allow(D5) — demo\n}\n";
        assert!(rules_in(same).is_empty());
        let above = "fn f(x: Option<u32>) -> u32 {\n    // simlint: allow(D5) — demo\n    x.expect(\"\")\n}\n";
        assert!(rules_in(above).is_empty());
        // The wrong rule id does not suppress (and is itself stale).
        let wrong = "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"\") // simlint: allow(U2)\n}\n";
        assert_eq!(rules_in(wrong), vec![Rule::D5, Rule::S1]);
        // A suppression only reaches one line down.
        let far =
            "fn f(x: Option<u32>) -> u32 {\n    // simlint: allow(D5)\n\n    x.expect(\"\")\n}\n";
        assert_eq!(rules_in(far), vec![Rule::S1, Rule::D5]);
        // An id that names no rule (here a retired one) suppresses nothing
        // and is reported, so retired allows cannot linger.
        let retired = "fn f(x: u64) -> u64 {\n    x // simlint: allow(D4)\n}\n";
        assert_eq!(rules_in(retired), vec![Rule::S1]);
    }

    #[test]
    fn suppression_lists_multiple_rules() {
        let analyze = |src: &str| {
            let files = vec![("crates/fairsim/src/a.rs".to_string(), src.to_string())];
            analyze_files(&files).findings
        };
        // Each listed id suppresses its own rule; the unused U2 rides along
        // because the allow as a whole is live.
        let both =
            "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"\") // simlint: allow(U2, D5)\n}\n";
        assert!(analyze(both).is_empty());
        // A retired id inside a live list is still reported, and the fix
        // drops only that id.
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"\") // simlint: allow(D4, D5) — demo\n}\n";
        let found = analyze(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), (Rule::S1, 2));
        let mut files = vec![("crates/fairsim/src/a.rs".to_string(), src.to_string())];
        assert_eq!(fix_source_set(&mut files), 1);
        assert!(
            files[0].1.contains("// simlint: allow(D5) — demo"),
            "{}",
            files[0].1
        );
        assert!(analyze(&files[0].1).is_empty());
    }
}
