//! End-to-end tests for the lint engine: the line-rule and allow-directive
//! fixture corpus plus the live-workspace gate — the workspace this crate
//! ships in must itself be lint-clean. (The direct token rules are
//! clippy's; their cases live in the `idse-lint-clippy-fixtures` crate.)

use idse_lint::rules::FileKind;
use idse_lint::{analyze_source, run_workspace, Report};
use std::path::Path;

/// Lint one fixture file under a given crate identity and file kind.
#[expect(
    clippy::panic,
    reason = "test helper outside #[test]: the panic names the fixture that failed"
)]
fn lint_fixture(name: &str, crate_name: &str, kind: FileKind) -> Report {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {name} must be readable: {e}"));
    analyze_source(name, crate_name, kind, &text)
}

fn rules_of(report: &Report) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn sink_side_effect_structural_positive() {
    let r = lint_fixture("sink_structural_pos.rs", "idse-telemetry", FileKind::Library);
    assert!(r.has_errors());
    assert!(r.findings.iter().all(|f| f.rule == "sink-side-effect"), "{:?}", rules_of(&r));
}

#[test]
fn sink_side_effect_callsite_positive() {
    let r = lint_fixture("sink_callsite_pos.rs", "idse-ids", FileKind::Library);
    assert!(r.has_errors());
    assert_eq!(r.error_count(), 1, "{:?}", r.findings);
    assert_eq!(r.findings[0].rule, "sink-side-effect");
}

#[test]
fn sink_side_effect_negative() {
    let r = lint_fixture("sink_side_effect_neg.rs", "idse-ids", FileKind::Library);
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
}

#[test]
fn valid_allow_suppresses_and_keeps_reason() {
    let r = lint_fixture("allow_valid.rs", "idse-telemetry", FileKind::Library);
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
    assert_eq!(r.suppressed.len(), 3, "{:?}", r.suppressed);
    for s in &r.suppressed {
        assert_eq!(s.finding.rule, "sink-side-effect");
        assert!(s.reason.contains("type name only"));
    }
}

#[test]
fn invalid_allow_is_an_error_and_suppresses_nothing() {
    let r = lint_fixture("allow_invalid.rs", "idse-telemetry", FileKind::Library);
    let invalid = r.findings.iter().filter(|f| f.rule == "invalid-allow").count();
    let underlying = r.findings.iter().filter(|f| f.rule == "sink-side-effect").count();
    assert_eq!(invalid, 2, "{:?}", rules_of(&r));
    assert_eq!(underlying, 3, "{:?}", rules_of(&r));
    assert!(r.suppressed.is_empty());
}

#[test]
fn unused_allow_is_flagged() {
    let r = lint_fixture("allow_unused.rs", "idse-telemetry", FileKind::Library);
    assert_eq!(rules_of(&r), vec!["unused-allow"]);
    assert!(!r.has_errors(), "unused-allow is warn severity");
}

#[test]
fn materialized_feed_positive() {
    let r = lint_fixture("materialized_feed_pos.rs", "idse-bench", FileKind::Bin);
    assert!(!r.has_errors(), "materialized-feed-in-experiment is warn severity");
    assert!(
        r.findings.iter().all(|f| f.rule == "materialized-feed-in-experiment"),
        "{:?}",
        rules_of(&r)
    );
    // Both the request helper and the direct constructor are caught.
    assert_eq!(r.findings.len(), 2, "{:?}", rules_of(&r));
}

#[test]
fn materialized_feed_negative() {
    let r = lint_fixture("materialized_feed_neg.rs", "idse-bench", FileKind::Bin);
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
    // The deliberately small materialized run is suppressed with a reason.
    assert_eq!(r.suppressed.len(), 1);
    assert!(!r.suppressed[0].reason.trim().is_empty());
}

#[test]
fn materialized_feed_is_scoped_to_experiment_surfaces() {
    // Library code implements the materialized path; only bins/examples
    // (the experiment surface) are nudged toward the stream.
    let r = lint_fixture("materialized_feed_pos.rs", "idse-eval", FileKind::Library);
    assert!(
        r.findings.iter().all(|f| f.rule != "materialized-feed-in-experiment"),
        "{:?}",
        rules_of(&r)
    );
}

#[test]
fn fixture_reports_are_deterministic() {
    let run = || {
        let mut all = Report::default();
        for (name, crate_name) in [
            ("sink_structural_pos.rs", "idse-telemetry"),
            ("sink_callsite_pos.rs", "idse-ids"),
            ("allow_valid.rs", "idse-telemetry"),
        ] {
            all.absorb(lint_fixture(name, crate_name, FileKind::Library));
        }
        serde_json::to_string(&all).expect("report serializes")
    };
    assert_eq!(run(), run());
}

/// The gate this whole crate exists for: the live workspace must be
/// lint-clean — zero errors, zero warnings — with every suppression
/// carrying a written reason.
#[test]
fn live_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run_workspace(&root).expect("workspace tree must be readable");
    assert!(report.files_scanned > 50, "walked only {} files — wrong root?", report.files_scanned);
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}[{}] {}:{} — {}", f.severity, f.rule, f.file, f.line, f.message))
        .collect();
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean; fix or allowlist with a reason:\n{}",
        rendered.join("\n")
    );
    for s in &report.suppressed {
        assert!(
            !s.reason.trim().is_empty(),
            "suppression at {}:{} has an empty reason",
            s.finding.file,
            s.finding.line
        );
    }
}
