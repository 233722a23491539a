//! End-to-end tests for phase 2, the value-dataflow rules: one positive
//! and one negative fixture per rule, witness chains, tier policy,
//! and allow + shield composition.

use idse_lint::rules::FileKind;
use idse_lint::{analyze_source, Report};
use std::path::Path;

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

// --- literal-seed ---

#[test]
fn literal_seed_positive() {
    let r = lint_fixture("seed_literal_pos.rs", "idse-sim", FileKind::Library);
    assert!(r.has_errors());
    assert_eq!(rules_of(&r), vec!["literal-seed"; 3], "{:?}", rules_of(&r));
    // Direct literal: owner and sink token in the chain.
    let direct = &r.findings[0];
    assert_eq!(direct.chain, vec!["idse-sim::seed_literal_pos::direct", "seed_from_u64(42)"]);
    // Through a local binding: the let step is the witness.
    let via_let = &r.findings[1];
    assert!(via_let.chain.iter().any(|s| s == "let seed = 0xdead_beef"), "{:?}", via_let.chain);
    // Through a helper function: the helper's literal body is the witness.
    let via_fn = &r.findings[2];
    assert!(
        via_fn.chain.iter().any(|s| s == "idse-sim::seed_literal_pos::default_seed -> 7"),
        "{:?}",
        via_fn.chain
    );
}

#[test]
fn literal_seed_negative() {
    let r = lint_fixture("seed_literal_neg.rs", "idse-sim", FileKind::Library);
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
}

#[test]
fn literal_seed_tier_policy() {
    // Standard-tier crates warn; tooling crates are out of scope.
    let r = lint_fixture("seed_literal_pos.rs", "idse-eval", FileKind::Library);
    assert!(!r.findings.is_empty());
    assert!(r.findings.iter().all(|f| f.severity == "warning"), "{:?}", r.findings);
    let r = lint_fixture("seed_literal_pos.rs", "idse-bench", FileKind::Library);
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
}

// --- seed-label-reuse ---

#[test]
fn seed_label_reuse_positive() {
    let r = lint_fixture("seed_reuse_pos.rs", "idse-sim", FileKind::Library);
    assert!(r.has_errors());
    assert_eq!(rules_of(&r), vec!["seed-label-reuse"; 2], "{:?}", rules_of(&r));
    // Literal labels: the second site reports, naming the first.
    let lit = &r.findings[0];
    assert!(lit.message.contains("\"stream\""), "{}", lit.message);
    assert!(lit.message.contains("seed_reuse_pos.rs:6"), "{}", lit.message);
    assert_eq!(
        lit.chain,
        vec![
            "idse-sim::seed_reuse_pos::traffic_stream",
            "idse-sim::seed_reuse_pos::attack_stream",
            "label \"stream\""
        ]
    );
    // Const-resolved labels are caught the same way.
    let konst = &r.findings[1];
    assert!(konst.message.contains("\"queue\""), "{}", konst.message);
    assert_eq!(konst.chain[1], "idse-sim::seed_reuse_pos::egress");
}

#[test]
fn seed_label_reuse_negative() {
    let r = lint_fixture("seed_reuse_neg.rs", "idse-sim", FileKind::Library);
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
}

#[test]
fn seed_label_reuse_allow_at_first_site_shields_every_later_site() {
    let src =
        "// idse-lint: allow(seed-label-reuse, reason = \"twin streams, A/B determinism check\")\n\
               pub fn a(m: u64) -> u64 { derive_seed(m, \"s\") }\n\
               pub fn b(m: u64) -> u64 { derive_seed(m, \"s\") }\n\
               pub fn c(m: u64) -> u64 { derive_seed(m, \"s\") }\n";
    let r = analyze_source("x.rs", "idse-sim", FileKind::Library, src);
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
    assert_eq!(r.suppressed.len(), 2, "{:?}", r.suppressed);
    assert!(r.suppressed.iter().all(|s| s.reason.contains("twin streams")));
}

#[test]
fn seed_label_reuse_allow_at_finding_line() {
    let src = "pub fn a(m: u64) -> u64 { derive_seed(m, \"s\") }\n\
               // idse-lint: allow(seed-label-reuse, reason = \"mirror stream on purpose\")\n\
               pub fn b(m: u64) -> u64 { derive_seed(m, \"s\") }\n";
    let r = analyze_source("x.rs", "idse-sim", FileKind::Library, src);
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
    assert_eq!(r.suppressed.len(), 1);
}

// --- seed-label-collision ---

#[test]
fn seed_label_collision_positive() {
    let r = lint_fixture("seed_collision_pos.rs", "idse-sim", FileKind::Library);
    assert!(r.has_errors());
    assert_eq!(rules_of(&r), vec!["seed-label-collision"; 2], "{:?}", rules_of(&r));
    for f in &r.findings {
        assert_eq!(f.severity, "error");
        assert!(f.message.contains("L39218a36c129be09"), "{}", f.message);
        assert!(f.message.contains("Lb29619b0f43f11e9"), "{}", f.message);
        // The witness is the evaluated derivation, not a heuristic.
        assert!(
            f.chain.last().expect("chain is non-empty").starts_with("derive_seed -> 0x"),
            "{:?}",
            f.chain
        );
    }
}

#[test]
fn seed_label_collision_negative() {
    let r = lint_fixture("seed_collision_neg.rs", "idse-sim", FileKind::Library);
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
}

#[test]
fn seed_label_collision_fires_in_any_tier() {
    // Unlike reuse, a collision is an error even in tooling crates: the
    // derivation is broken wherever it runs.
    let r = lint_fixture("seed_collision_pos.rs", "idse-bench", FileKind::Library);
    assert!(r.has_errors(), "{:?}", rules_of(&r));
}

// --- impure-store-record ---

#[test]
fn impure_store_record_positive() {
    let r = lint_fixture("store_record_pos.rs", "idse-store", FileKind::Library);
    assert!(r.has_errors());
    assert_eq!(rules_of(&r), vec!["impure-store-record"; 2], "{:?}", rules_of(&r));
    let stamp = &r.findings[0];
    assert!(stamp.message.contains("--stamp"), "{}", stamp.message);
    assert_eq!(stamp.chain[0], "idse-store::store_record_pos::commit_run");
    assert!(stamp.chain[1].starts_with("--stamp CLI value `stamp`"), "{:?}", stamp.chain);
    assert_eq!(stamp.chain[2], "RunDraft::new(..)");
    let telemetry = &r.findings[1];
    assert!(telemetry.chain[1].starts_with("telemetry summary `summary`"), "{:?}", telemetry.chain);
    assert_eq!(telemetry.chain[2], "record(..)");
}

#[test]
fn impure_store_record_negative() {
    // Identical sources routed through with_stamp/with_telemetry — the
    // hash-excluded annotation channels — are sanctioned.
    let r = lint_fixture("store_record_neg.rs", "idse-store", FileKind::Library);
    assert!(r.findings.is_empty(), "{:?}", rules_of(&r));
}

#[test]
fn impure_store_record_catches_wall_clock_values_in_any_tier() {
    let src = "pub fn ship(store: &RunStore) -> u64 {\n\
               \x20   let when = SystemTime::now();\n\
               \x20   let draft = RunDraft::new(\"exp\", \"m\", when);\n\
               \x20   store.commit(draft)\n\
               }\n";
    let r = analyze_source("x.rs", "idse-bench", FileKind::Library, src);
    assert_eq!(rules_of(&r), vec!["impure-store-record"], "{:?}", rules_of(&r));
    assert!(r.findings[0].chain[1].starts_with("wall-clock value `when`"));
}
