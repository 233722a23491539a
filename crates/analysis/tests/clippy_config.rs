//! clippy reads only the nearest `clippy.toml` above each crate and never
//! merges two, so the direct determinism rules live in several copies:
//! the root file, the report crates' files (root + hash containers), and
//! the clippy fixture crate's, which is linted under the report scope.
//! Keep them in step.

use std::path::Path;

fn read(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(rel)).expect("clippy.toml is readable")
}

#[test]
fn scoped_clippy_configs_extend_the_root_config() {
    let base = read("clippy.toml");
    let report = read("crates/eval/clippy.toml");
    assert_eq!(report, read("crates/core/clippy.toml"), "report-crate configs differ");
    assert_eq!(
        report,
        read("crates/analysis/tests/fixtures/clippy/clippy.toml"),
        "the clippy fixtures must be linted under the report-crate config"
    );
    let settings = base.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#'));
    for line in settings {
        assert!(report.lines().any(|r| r == line), "report config lacks root setting: {line}");
    }
    for banned in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(report.contains(banned), "report config must ban {banned}");
    }
}
