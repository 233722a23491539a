//! The rule set idse-lint owns: the properties clippy cannot express.
//!
//! The token-level determinism hazards are clippy configuration (the
//! workspace `[workspace.lints.clippy]` table plus `disallowed-methods`/
//! `disallowed-types` in the root `clippy.toml`, which every crate reads):
//!
//! | hazard | clippy lint |
//! |---|---|
//! | hash-ordered iteration | `disallowed_types` (the std hash containers, every crate) |
//! | wall-clock time | `disallowed_methods`/`disallowed_types` (`Instant`, `SystemTime`) |
//! | ambient entropy | `disallowed_methods`/`disallowed_types` (`RandomState`) |
//! | raw threads outside idse-exec | `disallowed_methods` (`thread::spawn`, `mpsc::channel`, ...) |
//! | exact float equality | `float_cmp` |
//! | panics in library code | `unwrap_used`, `panic`, `todo`, `unimplemented` |
//!
//! idse-lint checks what only this repo can say:
//!
//! - `sink-side-effect` — telemetry is observation-only: the telemetry
//!   crate must never reach back into the simulator, and no record call
//!   may share a statement with event scheduling;
//! - `materialized-feed-in-experiment` — experiment surfaces should stream
//!   the test feed rather than build it whole;
//! - the dataflow rules of [`crate::dataflow`] (seed lineage, store-record
//!   purity);
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
    /// `seed_from_u64`/`StdRng` construction from a literal instead of
    /// `derive_seed(master, label)`.
    LiteralSeed,
    /// One constant seed label used at two distinct construction sites in
    /// the same crate.
    SeedLabelReuse,
    /// Two distinct constant labels whose `derive_seed` values collide.
    SeedLabelCollision,
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
    pub const ALL: [RuleId; 8] = [
        RuleId::SinkSideEffect,
        RuleId::LiteralSeed,
        RuleId::SeedLabelReuse,
        RuleId::SeedLabelCollision,
        RuleId::ImpureStoreRecord,
        RuleId::MaterializedFeedInExperiment,
        RuleId::InvalidAllow,
        RuleId::UnusedAllow,
    ];

    /// Kebab-case rule name as written in allow directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::SinkSideEffect => "sink-side-effect",
            RuleId::LiteralSeed => "literal-seed",
            RuleId::SeedLabelReuse => "seed-label-reuse",
            RuleId::SeedLabelCollision => "seed-label-collision",
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

/// Crate strictness tier: decides where literal seeds and label reuse
/// matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Substrate crates: determinism is load-bearing.
    Strict,
    /// Harness/model crates: same rules, warn severity.
    Standard,
    /// Binaries-only crates (figures, benches): seed lineage does not apply.
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

const TELEMETRY_RECORD_CALLS: [&str; 5] =
    [".span_enter(", ".span_exit(", ".span(", ".counter(", ".gauge("];

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
}
