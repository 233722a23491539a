//! The rule set idse-lint owns: the properties clippy cannot express.
//!
//! The direct, token-level halves of the determinism hazards are clippy
//! configuration (the workspace `[workspace.lints.clippy]` table plus
//! `disallowed-methods`/`disallowed-types` in `clippy.toml`):
//!
//! | hazard | clippy lint |
//! |---|---|
//! | hash-ordered iteration in a report | `disallowed_types` (`HashMap`/`HashSet` in idse-eval, idse-core) |
//! | wall-clock time | `disallowed_methods`/`disallowed_types` (`Instant`, `SystemTime`) |
//! | ambient entropy | `disallowed_methods`/`disallowed_types` (`RandomState`) |
//! | raw threads outside idse-exec | `disallowed_methods` (`thread::spawn`, `mpsc::channel`, ...) |
//! | exact float equality | `float_cmp` |
//! | panics in library code | `unwrap_used`, `panic`, `todo`, `unimplemented` |
//!
//! idse-lint checks what only this repo can say:
//!
//! - the five `transitive-*` rules — a function that merely *reaches* one
//!   of those hazards through the workspace call graph, at any depth and
//!   across crates (see [`TaintLabel`]);
//! - `sink-side-effect` — telemetry is observation-only: the telemetry
//!   crate must never reach back into the simulator, and no record call
//!   may share a statement with event scheduling;
//! - `materialized-feed-in-experiment` — experiment surfaces should stream
//!   the test feed rather than build it whole;
//! - the dataflow rules of [`crate::dataflow`] (seed lineage, reduction
//!   order, store-record purity);
//! - `invalid-allow` / `unused-allow`, which keep the suppressions honest.

/// Finding severity. Errors fail the build; warnings are debt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, counted, but does not fail the run.
    Warn,
    /// Fails the run (nonzero exit).
    Error,
}

impl Severity {
    /// Lowercase label for display.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

/// Identity of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Telemetry recording entangled with event scheduling.
    SinkSideEffect,
    /// Reaching a hash-container helper transitively from a report path.
    TransitiveUnorderedIteration,
    /// Reaching a wall-clock source transitively from a sim-clock crate.
    TransitiveWallClock,
    /// Reaching ambient entropy transitively from non-test code.
    TransitiveUnseededEntropy,
    /// Reaching a panicking helper transitively from library code.
    TransitivePanic,
    /// Reaching raw thread machinery transitively outside the executor.
    TransitiveThreadOutsideExec,
    /// `seed_from_u64`/`StdRng` construction from a literal instead of
    /// `derive_seed(master, label)`.
    LiteralSeed,
    /// One constant seed label used at two distinct construction sites in
    /// the same crate.
    SeedLabelReuse,
    /// Two distinct constant labels whose `derive_seed` values collide.
    SeedLabelCollision,
    /// Float accumulation over `par_map` output outside `reduce_in_order`.
    UnorderedFloatReduce,
    /// Telemetry/stamp/wall-clock value reaching the canonical-record path
    /// that feeds the store's run-id hash.
    ImpureStoreRecord,
    /// Materializing a whole test feed in experiment-surface code
    /// (bins/examples) instead of streaming it.
    MaterializedFeedInExperiment,
    /// Malformed allow directive (unknown rule or missing reason).
    InvalidAllow,
    /// Allow directive that suppressed nothing.
    UnusedAllow,
}

impl RuleId {
    /// Every rule, in stable display order.
    pub const ALL: [RuleId; 14] = [
        RuleId::SinkSideEffect,
        RuleId::TransitiveUnorderedIteration,
        RuleId::TransitiveWallClock,
        RuleId::TransitiveUnseededEntropy,
        RuleId::TransitivePanic,
        RuleId::TransitiveThreadOutsideExec,
        RuleId::LiteralSeed,
        RuleId::SeedLabelReuse,
        RuleId::SeedLabelCollision,
        RuleId::UnorderedFloatReduce,
        RuleId::ImpureStoreRecord,
        RuleId::MaterializedFeedInExperiment,
        RuleId::InvalidAllow,
        RuleId::UnusedAllow,
    ];

    /// Kebab-case rule name as written in allow directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::SinkSideEffect => "sink-side-effect",
            RuleId::TransitiveUnorderedIteration => "transitive-unordered-iteration-in-report",
            RuleId::TransitiveWallClock => "transitive-wall-clock-in-sim",
            RuleId::TransitiveUnseededEntropy => "transitive-unseeded-entropy",
            RuleId::TransitivePanic => "transitive-panic-in-library",
            RuleId::TransitiveThreadOutsideExec => "transitive-thread-outside-exec",
            RuleId::LiteralSeed => "literal-seed",
            RuleId::SeedLabelReuse => "seed-label-reuse",
            RuleId::SeedLabelCollision => "seed-label-collision",
            RuleId::UnorderedFloatReduce => "unordered-float-reduce",
            RuleId::ImpureStoreRecord => "impure-store-record",
            RuleId::MaterializedFeedInExperiment => "materialized-feed-in-experiment",
            RuleId::InvalidAllow => "invalid-allow",
            RuleId::UnusedAllow => "unused-allow",
        }
    }

    /// Parse a rule name as written in an allow directive.
    pub fn parse(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }

    /// One-line description for `--help`-style output.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::SinkSideEffect => {
                "telemetry entangled with event scheduling: observation must stay \
                 observation-only"
            }
            RuleId::TransitiveUnorderedIteration => {
                "report-path function reaches a hash-container helper through the call \
                 graph: fix the helper or allow at the taint source"
            }
            RuleId::TransitiveWallClock => {
                "sim-crate function reaches a wall-clock source through the call graph: \
                 sim time is the only clock, at any call depth"
            }
            RuleId::TransitiveUnseededEntropy => {
                "non-test function reaches ambient entropy through the call graph: \
                 thread a seeded RngStream down instead"
            }
            RuleId::TransitivePanic => {
                "library function reaches a panicking helper through the call graph: \
                 errors in substrate crates, warnings in harness crates"
            }
            RuleId::TransitiveThreadOutsideExec => {
                "function reaches raw thread machinery through the call graph without \
                 going through the idse-exec executor"
            }
            RuleId::LiteralSeed => {
                "RNG seeded from a literal value: every stream must derive its seed \
                 via derive_seed(master, label) so the master seed reaches it"
            }
            RuleId::SeedLabelReuse => {
                "constant seed label used at two distinct construction sites in one \
                 crate: identical labels yield identical, correlated streams"
            }
            RuleId::SeedLabelCollision => {
                "two distinct constant labels whose derive_seed values collide: the \
                 streams are identical even though the labels differ"
            }
            RuleId::UnorderedFloatReduce => {
                "float accumulation over par_map output outside reduce_in_order: \
                 addition order is not associative, so --jobs N changes the result"
            }
            RuleId::ImpureStoreRecord => {
                "stamp/telemetry/wall-clock value flows into a store record call: \
                 run ids hash canonical content, which must exclude ambient inputs"
            }
            RuleId::MaterializedFeedInExperiment => {
                "experiment code materializes the whole test feed: prefer the streaming \
                 path (evaluate_stream / ShardFeed), which is O(chunk) memory at any \
                 scale, or allowlist a deliberately small materialized run with a reason"
            }
            RuleId::InvalidAllow => {
                "malformed idse-lint allow directive: unknown rule name or missing \
                 non-empty reason"
            }
            RuleId::UnusedAllow => "allow directive that suppressed no finding: delete it",
        }
    }
}

/// What part of a crate a file belongs to. Rules scope themselves by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` (excluding `src/bin`): the library proper.
    Library,
    /// `src/bin/**`: CLI entry points.
    Bin,
    /// `examples/**`.
    Example,
    /// `benches/**`.
    Bench,
    /// `tests/**`: integration tests (whole file is test code).
    IntegrationTest,
}

impl FileKind {
    pub(crate) fn is_test(self) -> bool {
        matches!(self, FileKind::IntegrationTest)
    }
}

/// Crate strictness tier: decides where panics and literal seeds matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Substrate crates: determinism and panic-freedom are load-bearing.
    Strict,
    /// Harness/model crates: same rules, warn severity for panics.
    Standard,
    /// Binaries-only crates (figures, benches): panic rules do not apply.
    Tooling,
}

/// Tier of a crate by package name.
pub fn crate_tier(crate_name: &str) -> Tier {
    match crate_name {
        "idse-sim" | "idse-net" | "idse-core" | "idse-telemetry" | "idse-lint" | "idse-exec"
        | "idse-faults" | "idse-store" | "idse-traffic" | "idse-daemon" => Tier::Strict,
        "idse-ids" | "idse-eval" | "idse-attacks" => Tier::Standard,
        _ => Tier::Tooling,
    }
}

/// Crates whose report paths must iterate deterministically.
const REPORT_CRATES: [&str; 2] = ["idse-eval", "idse-core"];
/// Crates where sim time is the only legal clock.
const SIM_CLOCK_CRATES: [&str; 7] = [
    "idse-sim",
    "idse-ids",
    "idse-net",
    "idse-telemetry",
    "idse-faults",
    "idse-store",
    "idse-daemon",
];

/// The hazard classes the taint pass propagates along the call graph.
///
/// Each label has a *direct* half, checked by clippy where the hazard
/// token appears (see [`TaintLabel::clippy_lints`]), and a *transitive*
/// rule here that fires on an in-scope function that merely *reaches* the
/// hazard through calls. [`TaintLabel::applies`] is the scope of both
/// halves, so a wrapper function can never launder a violation past the
/// lint: the scope that bans the token also bans reaching it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintLabel {
    /// Hash-seeded container use (`HashMap`/`HashSet`).
    UnorderedIter,
    /// Wall-clock time (`Instant`/`SystemTime`/`UNIX_EPOCH`).
    WallClock,
    /// Ambient entropy (`thread_rng`/`from_entropy`/`RandomState`/`OsRng`).
    Entropy,
    /// Panicking calls (`panic!`/`todo!`/`unimplemented!`/`.unwrap()`).
    MayPanic,
    /// Raw thread/channel machinery outside the executor.
    ThreadSpawn,
}

impl TaintLabel {
    /// Every label, in stable order.
    pub const ALL: [TaintLabel; 5] = [
        TaintLabel::UnorderedIter,
        TaintLabel::WallClock,
        TaintLabel::Entropy,
        TaintLabel::MayPanic,
        TaintLabel::ThreadSpawn,
    ];

    /// Short kebab-case label name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            TaintLabel::UnorderedIter => "unordered-iter",
            TaintLabel::WallClock => "wall-clock",
            TaintLabel::Entropy => "entropy",
            TaintLabel::MayPanic => "may-panic",
            TaintLabel::ThreadSpawn => "thread-spawn",
        }
    }

    /// The clippy lints that check this label's direct half. An
    /// `#[expect(clippy::<lint>, reason = "...")]` naming one of them on a
    /// seed line is the audited exception, so it also shields every caller
    /// from the transitive rule.
    pub fn clippy_lints(self) -> &'static [&'static str] {
        match self {
            TaintLabel::UnorderedIter | TaintLabel::WallClock | TaintLabel::Entropy => {
                &["disallowed_methods", "disallowed_types"]
            }
            TaintLabel::MayPanic => &["panic", "todo", "unimplemented", "unwrap_used"],
            TaintLabel::ThreadSpawn => &["disallowed_methods"],
        }
    }

    /// The call-graph rule that fires where the hazard is merely reached.
    pub fn transitive_rule(self) -> RuleId {
        match self {
            TaintLabel::UnorderedIter => RuleId::TransitiveUnorderedIteration,
            TaintLabel::WallClock => RuleId::TransitiveWallClock,
            TaintLabel::Entropy => RuleId::TransitiveUnseededEntropy,
            TaintLabel::MayPanic => RuleId::TransitivePanic,
            TaintLabel::ThreadSpawn => RuleId::TransitiveThreadOutsideExec,
        }
    }

    /// Word-boundary tokens whose presence in a function body seeds this
    /// label (see [`word_at`] semantics).
    pub fn seed_words(self) -> &'static [&'static str] {
        match self {
            TaintLabel::UnorderedIter => &["HashMap", "HashSet"],
            TaintLabel::WallClock => &["Instant", "SystemTime", "UNIX_EPOCH"],
            TaintLabel::Entropy => &["thread_rng", "from_entropy", "RandomState", "OsRng"],
            TaintLabel::MayPanic => &["panic!", "todo!", "unimplemented!"],
            TaintLabel::ThreadSpawn => &[],
        }
    }

    /// Raw substrings that seed this label (no word-boundary check).
    pub fn seed_substrings(self) -> &'static [&'static str] {
        match self {
            TaintLabel::MayPanic => &[".unwrap()"],
            TaintLabel::ThreadSpawn => &THREAD_TOKENS,
            _ => &[],
        }
    }

    /// Whether a taint seed may originate at this location at all.
    /// Thread tokens inside `idse-exec` are the sanctioned implementation
    /// of the executor, not a hazard; everything else seeds anywhere
    /// outside test code.
    pub fn seeds_in(self, crate_name: &str, in_test_code: bool) -> bool {
        if in_test_code {
            return false;
        }
        match self {
            TaintLabel::ThreadSpawn => crate_name != "idse-exec",
            _ => true,
        }
    }

    /// The shared scope predicate: does this label apply to code at
    /// (crate, kind, test-region)? Returns the severity when it does. The
    /// clippy configuration enforces the direct half over (at least) the
    /// same scope, so a seed inside it is already reported by clippy and
    /// only a caller reaching it through the call graph is reported here.
    pub fn applies(self, crate_name: &str, kind: FileKind, in_test: bool) -> Option<Severity> {
        let in_test_code = in_test || kind.is_test();
        match self {
            TaintLabel::UnorderedIter => {
                (REPORT_CRATES.contains(&crate_name) && kind == FileKind::Library && !in_test_code)
                    .then_some(Severity::Error)
            }
            TaintLabel::WallClock => {
                SIM_CLOCK_CRATES.contains(&crate_name).then_some(Severity::Error)
            }
            TaintLabel::Entropy => (!in_test_code).then_some(Severity::Error),
            TaintLabel::MayPanic => {
                if kind != FileKind::Library || in_test_code {
                    return None;
                }
                match crate_tier(crate_name) {
                    Tier::Strict => Some(Severity::Error),
                    Tier::Standard => Some(Severity::Warn),
                    Tier::Tooling => None,
                }
            }
            TaintLabel::ThreadSpawn => (crate_name != "idse-exec").then_some(Severity::Error),
        }
    }
}

/// Context for one line of one file.
pub struct LineCtx<'a> {
    /// Package name of the owning crate (`workspace` for root tests/examples).
    pub crate_name: &'a str,
    /// File kind.
    pub kind: FileKind,
    /// Whether the line is inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Masked code channel of the line.
    pub code: &'a str,
}

/// A raw rule hit on one line (before allow-directive resolution).
#[derive(Debug, Clone)]
pub struct Hit {
    /// Which rule fired.
    pub rule: RuleId,
    /// Severity after crate tiering.
    pub severity: Severity,
    /// Column (0-based char offset) of the offending token.
    pub column: usize,
    /// Human message.
    pub message: String,
}

pub(crate) fn word_at(code: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0
            || code[..at].chars().next_back().is_some_and(|c| !c.is_alphanumeric() && c != '_');
        let after = at + word.len();
        let after_ok = after >= code.len()
            || code[after..].chars().next().is_some_and(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = after;
    }
    None
}

fn first_word(code: &str, words: &'static [&'static str]) -> Option<(usize, &'static str)> {
    let mut best: Option<(usize, &'static str)> = None;
    for w in words {
        if let Some(at) = word_at(code, w) {
            if best.is_none_or(|(b, _)| at < b) {
                best = Some((at, w));
            }
        }
    }
    best
}

pub(crate) fn is_floatish_token(tok: &str) -> bool {
    if tok.is_empty() {
        return false;
    }
    if tok.ends_with("f64") || tok.ends_with("f32") {
        return true;
    }
    // A float literal: digits, underscores, exactly the chars of a number,
    // containing a decimal point.
    tok.contains('.')
        && tok.chars().all(|c| c.is_ascii_digit() || c == '.' || c == '_')
        && tok.chars().any(|c| c.is_ascii_digit())
}

const TELEMETRY_RECORD_CALLS: [&str; 5] =
    [".span_enter(", ".span_exit(", ".span(", ".counter(", ".gauge("];

/// Threading/channel tokens that are only legal inside `idse-exec`.
const THREAD_TOKENS: [&str; 5] =
    ["thread::spawn", "thread::scope", "mpsc::channel", "mpsc::sync_channel", "crossbeam::thread"];

fn first_substring(code: &str, tokens: &'static [&'static str]) -> Option<(usize, &'static str)> {
    let mut best: Option<(usize, &'static str)> = None;
    for t in tokens {
        if let Some(at) = code.find(t) {
            if best.is_none_or(|(b, _)| at < b) {
                best = Some((at, t));
            }
        }
    }
    best
}

/// Run every applicable line rule against one line.
pub fn check_line(ctx: &LineCtx<'_>) -> Vec<Hit> {
    let mut hits = Vec::new();
    let code = ctx.code;
    if code.trim().is_empty() {
        return hits;
    }
    let in_test_code = ctx.in_test || ctx.kind.is_test();

    // sink-side-effect, structural half: the telemetry crate must never
    // reference the simulator or scheduling machinery.
    if ctx.crate_name == "idse-telemetry" {
        if let Some((at, w)) = first_word(code, &["idse_sim", "EventQueue"]) {
            hits.push(Hit {
                rule: RuleId::SinkSideEffect,
                severity: Severity::Error,
                column: at,
                message: format!(
                    "`{w}` inside idse-telemetry: telemetry is observation-only and must \
                     not reach back into the simulator"
                ),
            });
        }
    }
    // sink-side-effect, call-site half: a record call entangled with
    // scheduling in one statement.
    if ctx.crate_name != "idse-telemetry" && !in_test_code {
        let records = TELEMETRY_RECORD_CALLS.iter().any(|t| code.contains(t));
        if records {
            if let Some(at) = code.find(".schedule(") {
                hits.push(Hit {
                    rule: RuleId::SinkSideEffect,
                    severity: Severity::Error,
                    column: at,
                    message: "telemetry record call entangled with event scheduling: \
                              observation must stay observation-only"
                        .to_string(),
                });
            }
        }
    }

    // materialized-feed-in-experiment: experiment-surface code (bins and
    // examples) building the whole test trace in memory. The streaming
    // path stays O(chunk) at any scale; a deliberately small materialized
    // run is fine, but must say so in an allow reason.
    if matches!(ctx.kind, FileKind::Bin | FileKind::Example) && !in_test_code {
        if let Some((at, w)) = first_substring(code, &["TestFeed::build(", ".build_feed()"]) {
            hits.push(Hit {
                rule: RuleId::MaterializedFeedInExperiment,
                severity: Severity::Warn,
                column: at,
                message: format!(
                    "`{w}` materializes the whole test feed in experiment code: prefer \
                     the streaming path (evaluate_stream / ShardFeed) for scale, or \
                     allowlist a deliberately small materialized run with a reason"
                ),
            });
        }
    }

    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.name()), Some(r));
        }
        assert_eq!(RuleId::parse("no-such-rule"), None);
        // Direct token rules are clippy's, not idse-lint rule names.
        assert_eq!(RuleId::parse("panic-in-library"), None);
    }

    #[test]
    fn unordered_only_fires_in_report_crates() {
        let lib = |c| TaintLabel::UnorderedIter.applies(c, FileKind::Library, false);
        assert_eq!(lib("idse-eval"), Some(Severity::Error));
        assert_eq!(lib("idse-ids"), None);
        assert_eq!(
            TaintLabel::UnorderedIter.applies("idse-eval", FileKind::IntegrationTest, false),
            None
        );
    }

    #[test]
    fn panic_severity_is_tiered() {
        let lib = |c| TaintLabel::MayPanic.applies(c, FileKind::Library, false);
        assert_eq!(lib("idse-sim"), Some(Severity::Error));
        assert_eq!(lib("idse-eval"), Some(Severity::Warn));
        assert_eq!(lib("idse-bench"), None);
    }

    #[test]
    fn threads_are_confined_to_the_executor_crate() {
        let t = TaintLabel::ThreadSpawn;
        assert_eq!(t.applies("idse-eval", FileKind::Library, false), Some(Severity::Error));
        assert_eq!(t.applies("idse-exec", FileKind::Library, false), None);
        assert!(!t.seeds_in("idse-exec", false));
        // Applies even in test code: scheduling-dependent tests are how
        // nondeterminism gets encoded as "expected" behavior.
        assert_eq!(t.applies("idse-ids", FileKind::IntegrationTest, true), Some(Severity::Error));
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"set\") }\n";
        let lines = crate::source::mask(src);
        let flags = crate::source::test_regions(&lines);
        let m = crate::model::extract("lib.rs", "idse-sim", FileKind::Library, 0, &lines, &flags);
        assert!(m.seeds.is_empty(), "{:?}", m.seeds);
    }
}
