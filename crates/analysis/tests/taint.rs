//! End-to-end tests for phase 2: each fixture under `tests/fixtures/taint/`
//! is a miniature on-disk workspace (crates with manifests), loaded through
//! the production [`idse_lint::load_workspace`] so `use` resolution, crate
//! naming, and the dependency-direction filter are all exercised exactly as
//! in a real run.

use idse_lint::rules::FileKind;
use idse_lint::{analyze, load_workspace, Report};
use std::path::{Path, PathBuf};

fn fixture_root(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/taint").join(case)
}

#[expect(
    clippy::panic,
    reason = "test helper outside #[test]: the panic names the fixture that failed"
)]
fn lint_case(case: &str) -> Report {
    let ws = load_workspace(&fixture_root(case))
        .unwrap_or_else(|e| panic!("fixture workspace {case} must load: {e}"));
    analyze(&ws)
}

fn rules_of(report: &Report) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn direct_hazard_reports_once_with_no_transitive_echo() {
    // The token itself is clippy's to report (disallowed_methods in the
    // sim crate); idse-lint adds no transitive echo of it.
    let r = lint_case("direct");
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
}

#[test]
fn in_crate_chain_defers_to_the_direct_finding() {
    // step -> now_ms -> raw_clock, all in idse-sim: clippy's finding at
    // raw_clock is the root-cause report and the chain stays silent.
    let r = lint_case("two_hop");
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
}

#[test]
fn cross_crate_laundering_is_caught_with_the_full_chain() {
    // The clock lives in a tooling crate where the direct rule is silent;
    // the sim crate reaches it through two intermediates and must error
    // with the whole witness chain.
    let r = lint_case("cross_crate");
    assert_eq!(rules_of(&r), vec!["transitive-wall-clock-in-sim"], "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.severity, "error");
    assert_eq!(f.file, "crates/sim/src/lib.rs");
    assert_eq!(f.line, 2, "reported at step's call site");
    assert_eq!(
        f.chain,
        vec![
            "idse-sim::step",
            "idse-timeutil::wrap",
            "idse-timeutil::inner",
            "std::time::Instant::now"
        ]
    );
    assert!(f.message.contains("through 2 calls"), "{}", f.message);
}

#[test]
fn the_negative_twin_stays_clean() {
    // Same call shape, deterministic counter at the bottom: no findings.
    let r = lint_case("cross_crate_neg");
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
    assert!(r.suppressed.is_empty());
}

#[test]
fn allow_at_the_source_shields_the_report_crate() {
    let root = fixture_root("allow_at_source");
    let ws = load_workspace(&root).expect("fixture workspace loads");
    // No findings at all: in particular no unused-allow, so the shield
    // counts as used.
    let r = analyze(&ws);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
    let s = &r.suppressed[0];
    assert_eq!(s.finding.file, "crates/ids/src/lib.rs", "suppression sits at the source");
    assert!(s.finding.message.contains("shields 1 in-scope function"), "{}", s.finding.message);
    assert_eq!(s.reason, "size query only, order never observed");
}

#[test]
fn recursive_cycle_terminates_and_reports_the_frontier_only() {
    // ping <-> pong recurse; ping also reaches the tooling-crate clock.
    // Propagation must terminate and exactly one function reports.
    let r = lint_case("cycle");
    assert_eq!(rules_of(&r), vec!["transitive-wall-clock-in-sim"], "{:?}", r.findings);
    let f = &r.findings[0];
    assert!(f.chain.iter().any(|s| s == "idse-timeutil::clock"), "{:?}", f.chain);
    assert!(f.message.contains("`ping`"), "{}", f.message);
}

#[test]
fn taint_flows_through_trait_method_calls() {
    let r = lint_case("trait_method");
    assert_eq!(rules_of(&r), vec!["transitive-wall-clock-in-sim"], "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.file, "crates/sim/src/lib.rs");
    assert!(f.chain.iter().any(|s| s.contains("SysClock::tick_wallclock")), "{:?}", f.chain);
}

#[test]
fn fixture_kinds_classify_as_library_code() {
    // The corpus must exercise library scope, not test scope — guard the
    // loader against fixture paths being misclassified.
    let ws = load_workspace(&fixture_root("direct")).expect("fixture workspace loads");
    assert!(ws.files.iter().all(|f| f.kind == FileKind::Library), "{:?}", ws.files);
}
