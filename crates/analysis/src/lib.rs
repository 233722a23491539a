//! # idse-lint — workspace static analysis for determinism and real-time safety
//!
//! Identical inputs must yield byte-identical scores: the paper's scorecard
//! means nothing otherwise. The guard is split in two.
//!
//! **clippy** checks every token-level hazard through workspace
//! configuration: `[workspace.lints.clippy]` (`unwrap_used`, `panic`,
//! `todo`, `unimplemented`, `float_cmp`) and `disallowed-methods` /
//! `disallowed-types` in the root `clippy.toml` (wall clocks, ambient
//! entropy, raw threads and hash containers, in every crate). clippy
//! resolves each type and method use exactly, so a wrapper function cannot
//! launder a banned call: the call inside the wrapper is itself refused.
//! Audited exceptions are `#[expect(clippy::..., reason = "...")]`, which
//! clippy itself reports once they stop being needed.
//!
//! **idse-lint** checks what only this repository can express. A small
//! lexer (see [`source`]) feeds two phases, no rustc plugin required:
//!
//! **Phase 1** scans each file independently — the line rules of
//! [`rules`] (`sink-side-effect`, `materialized-feed-in-experiment`),
//! allow-directive validation, and extraction of a lightweight semantic
//! model (see [`model`]): `fn`/`impl`/`mod` definitions and the function
//! that owns each line. It is a plain loop over the files in canonical
//! order.
//!
//! **Phase 2** runs value dataflow (see [`dataflow`]) over those models:
//! seed lineage (`literal-seed`, `seed-label-reuse`, `seed-label-collision`
//! — the last judged by *evaluating* the real `derive_seed` at lint time)
//! and run-id hash purity (`impure-store-record`).
//!
//! ## Escape hatch
//!
//! A finding can be suppressed with an allow comment that *requires* a
//! written reason, either trailing the offending line or on the line above:
//!
//! ```text
//! // idse-lint: allow(materialized-feed-in-experiment, reason = "30-second demo feed")
//! let feed = request.build_feed();
//! ```
//!
//! A dataflow finding also honors an allow at its chain's origin (the
//! binding or first label site), which shields every downstream finding.
//! A directive with an unknown rule name or a missing/empty reason is
//! itself an error (`invalid-allow`), and a directive that suppresses
//! nothing is flagged (`unused-allow`) so stale suppressions get deleted.
//!
//! ## Determinism of the lint itself
//!
//! The lint practices what it enforces: the workspace walk is sorted, the
//! two phases run serially in that order, all aggregation uses ordered
//! containers, and the report is sorted before it is rendered. The text
//! listing and the `--json` report are a pure function of the tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod model;
pub mod rules;
pub mod source;

use rules::{FileKind, LineCtx, RuleId, Severity};
use serde::Serialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One reported finding.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Rule name (kebab-case, as used in allow directives).
    pub rule: String,
    /// `"error"` or `"warning"`.
    pub severity: String,
    /// Owning crate package name (`workspace` for root tests/examples).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token.
    pub column: usize,
    /// Human-readable message.
    pub message: String,
    /// The offending source line (masked code channel), trimmed.
    pub excerpt: String,
    /// For dataflow findings: the witness chain from the owning function
    /// through each flow step to the sink token. Empty for line findings.
    pub chain: Vec<String>,
}

impl Finding {
    fn severity(&self) -> Severity {
        if self.severity == "error" {
            Severity::Error
        } else {
            Severity::Warn
        }
    }
}

/// A finding suppressed by a valid allow directive.
#[derive(Debug, Clone, Serialize)]
pub struct Suppressed {
    /// The finding that would have been reported.
    pub finding: Finding,
    /// The written justification from the allow directive.
    pub reason: String,
}

/// Result of analyzing one file or a whole workspace.
#[derive(Debug, Default, Serialize)]
pub struct Report {
    /// Active findings (not suppressed), in file/line order.
    pub findings: Vec<Finding>,
    /// Findings suppressed by allow directives, with their reasons.
    pub suppressed: Vec<Suppressed>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether any active finding is error severity.
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity() == Severity::Error)
    }

    /// Count of active error findings.
    pub fn error_count(&self) -> usize {
        self.findings.iter().filter(|f| f.severity() == Severity::Error).count()
    }

    /// Count of active warning findings.
    pub fn warning_count(&self) -> usize {
        self.findings.len() - self.error_count()
    }

    /// Merge another report into this one.
    pub fn absorb(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.suppressed.extend(other.suppressed);
        self.files_scanned += other.files_scanned;
    }
}

/// Render the human findings listing plus the one-line summary, exactly as
/// the `lint` binary prints it.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(
            out,
            "{}[{}] {}:{}:{} — {}",
            f.severity, f.rule, f.file, f.line, f.column, f.message
        );
        if !f.excerpt.is_empty() {
            let _ = writeln!(out, "    | {}", f.excerpt);
        }
    }
    let _ = writeln!(
        out,
        "lint: {} files scanned, {} errors, {} warnings, {} suppressed by allow",
        report.files_scanned,
        report.error_count(),
        report.warning_count(),
        report.suppressed.len()
    );
    out
}

/// One file of workspace input.
#[derive(Debug, Clone)]
pub struct FileInput {
    /// Workspace-relative display path.
    pub path: String,
    /// Owning crate package name (`workspace` for root tests/examples).
    pub crate_name: String,
    /// File kind.
    pub kind: FileKind,
    /// Full file text.
    pub text: String,
}

#[derive(Debug)]
struct ValidDirective {
    target: usize,
    rule: RuleId,
    reason: String,
    used: bool,
}

struct FilePass {
    report: Report,
    valid: Vec<ValidDirective>,
    model: model::FileModel,
    lines: Vec<source::Line>,
    test_flags: Vec<bool>,
}

/// Phase 1 for one file: line rules, directive validation, model
/// extraction. A pure function of the input.
fn analyze_file(input: &FileInput) -> FilePass {
    let lines = source::mask(&input.text);
    let test_flags = source::test_regions(&lines);
    let directives = source::allow_directives(&lines);
    let crate_name = input.crate_name.as_str();
    let kind = input.kind;

    let mut report = Report { files_scanned: 1, ..Report::default() };
    let mut valid: Vec<ValidDirective> = Vec::new();

    // Validate directives first: bad ones are findings in their own right
    // and never suppress anything.
    for d in &directives {
        match (RuleId::parse(&d.rule_name), &d.reason) {
            (Some(rule), Some(reason)) if !reason.trim().is_empty() => {
                valid.push(ValidDirective {
                    target: d.target_line,
                    rule,
                    reason: reason.clone(),
                    used: false,
                });
            }
            (None, _) => {
                report.findings.push(finding_at(
                    RuleId::InvalidAllow,
                    Severity::Error,
                    crate_name,
                    &input.path,
                    d.on_line,
                    0,
                    format!("allow directive names unknown rule `{}`", d.rule_name),
                    &lines,
                ));
            }
            (Some(_), _) => {
                report.findings.push(finding_at(
                    RuleId::InvalidAllow,
                    Severity::Error,
                    crate_name,
                    &input.path,
                    d.on_line,
                    0,
                    "allow directive requires a non-empty reason: \
                     idse-lint: allow(rule, reason = \"...\")"
                        .to_string(),
                    &lines,
                ));
            }
        }
    }

    for (i, line) in lines.iter().enumerate() {
        let ctx = LineCtx {
            crate_name,
            kind,
            in_test: test_flags.get(i).copied().unwrap_or(false),
            code: &line.code,
        };
        for hit in rules::check_line(&ctx) {
            let f = finding_at(
                hit.rule,
                hit.severity,
                crate_name,
                &input.path,
                i,
                hit.column,
                hit.message,
                &lines,
            );
            match valid.iter_mut().find(|d| d.target == i && d.rule == hit.rule) {
                Some(d) => {
                    d.used = true;
                    report.suppressed.push(Suppressed { finding: f, reason: d.reason.clone() });
                }
                None => report.findings.push(f),
            }
        }
    }

    let model = model::extract(&input.path, crate_name, &lines);
    FilePass { report, valid, model, lines, test_flags }
}

/// Analyze a workspace: phase 1 per file, then the dataflow phase over
/// the collected models.
pub fn analyze(files: &[FileInput]) -> Report {
    // Phase 1: per file, in canonical file order.
    let mut passes: Vec<FilePass> = files.iter().map(analyze_file).collect();
    let mut extra_findings: Vec<Finding> = Vec::new();
    let mut extra_suppressed: Vec<Suppressed> = Vec::new();

    // Phase 2: value dataflow over the same models — seed lineage and
    // store-record purity. An allow at the finding line or at the chain's
    // origin suppresses.
    let dataflow_hits = {
        let views: Vec<dataflow::FileView<'_>> = files
            .iter()
            .zip(passes.iter())
            .map(|(file, pass)| dataflow::FileView {
                file,
                model: &pass.model,
                lines: &pass.lines,
                test_flags: &pass.test_flags,
            })
            .collect();
        dataflow::analyze(&views)
    };
    for hit in dataflow_hits {
        let finding = Finding {
            rule: hit.rule.name().to_string(),
            severity: hit.severity.label().to_string(),
            crate_name: files[hit.file].crate_name.clone(),
            file: files[hit.file].path.clone(),
            line: hit.line + 1,
            column: hit.column + 1,
            message: hit.message,
            excerpt: passes[hit.file]
                .lines
                .get(hit.line)
                .map(|l| l.code.trim().to_string())
                .unwrap_or_default(),
            chain: hit.chain,
        };
        // An allow at the finding line suppresses the individual finding;
        // an allow at the chain's origin (the binding or the first label
        // site) shields every downstream finding.
        if let Some(d) =
            passes[hit.file].valid.iter_mut().find(|d| d.target == hit.line && d.rule == hit.rule)
        {
            d.used = true;
            extra_suppressed.push(Suppressed { finding, reason: d.reason.clone() });
            continue;
        }
        let shield =
            hit.source.filter(|&(sf, sl)| (sf, sl) != (hit.file, hit.line)).and_then(|(sf, sl)| {
                passes[sf].valid.iter_mut().find(|d| d.target == sl && d.rule == hit.rule)
            });
        match shield {
            Some(d) => {
                d.used = true;
                extra_suppressed.push(Suppressed { finding, reason: d.reason.clone() });
            }
            None => extra_findings.push(finding),
        }
    }

    // Unused-allow sweep runs after phase 2: a directive may earn its keep
    // as a dataflow shield.
    for (fi, pass) in passes.iter().enumerate() {
        for d in &pass.valid {
            if !d.used {
                extra_findings.push(Finding {
                    rule: RuleId::UnusedAllow.name().to_string(),
                    severity: Severity::Warn.label().to_string(),
                    crate_name: files[fi].crate_name.clone(),
                    file: files[fi].path.clone(),
                    line: d.target + 1,
                    column: 1,
                    message: format!("allow({}) suppressed no finding: delete it", d.rule.name()),
                    excerpt: pass
                        .lines
                        .get(d.target)
                        .map(|l| l.code.trim().to_string())
                        .unwrap_or_default(),
                    chain: Vec::new(),
                });
            }
        }
    }

    // Merge in canonical file order, then sort: the final report is a
    // pure function of the workspace.
    let mut report = Report::default();
    for pass in passes {
        report.absorb(pass.report);
    }
    report.findings.extend(extra_findings);
    report.suppressed.extend(extra_suppressed);
    report.findings.sort_by(|a, b| {
        (&a.file, a.line, a.column, &a.rule).cmp(&(&b.file, b.line, b.column, &b.rule))
    });
    report.suppressed.sort_by(|a, b| {
        (&a.finding.file, a.finding.line, a.finding.column, &a.finding.rule).cmp(&(
            &b.finding.file,
            b.finding.line,
            b.finding.column,
            &b.finding.rule,
        ))
    });

    report
}

/// Analyze one file's text. `file` is the workspace-relative display path.
/// Single-file convenience over [`analyze`].
pub fn analyze_source(file: &str, crate_name: &str, kind: FileKind, text: &str) -> Report {
    analyze(&[FileInput {
        path: file.to_string(),
        crate_name: crate_name.to_string(),
        kind,
        text: text.to_string(),
    }])
}

#[allow(clippy::too_many_arguments)]
fn finding_at(
    rule: RuleId,
    severity: Severity,
    crate_name: &str,
    file: &str,
    line0: usize,
    column0: usize,
    message: String,
    lines: &[source::Line],
) -> Finding {
    Finding {
        rule: rule.name().to_string(),
        severity: severity.label().to_string(),
        crate_name: crate_name.to_string(),
        file: file.to_string(),
        line: line0 + 1,
        column: column0 + 1,
        message,
        excerpt: lines.get(line0).map(|l| l.code.trim().to_string()).unwrap_or_default(),
        chain: Vec::new(),
    }
}

/// Classify a file path (relative to its crate root) into a [`FileKind`].
fn classify(rel_in_crate: &Path) -> FileKind {
    let mut components = rel_in_crate.components().filter_map(|c| c.as_os_str().to_str());
    match components.next() {
        Some("tests") => FileKind::IntegrationTest,
        Some("benches") => FileKind::Bench,
        Some("examples") => FileKind::Example,
        Some("src") => {
            if components.next() == Some("bin") {
                FileKind::Bin
            } else {
                FileKind::Library
            }
        }
        _ => FileKind::Library,
    }
}

/// Read the `name = "..."` field of a crate's Cargo.toml; falls back to the
/// directory name.
fn crate_package_name(crate_dir: &Path) -> String {
    let manifest = crate_dir.join("Cargo.toml");
    if let Ok(text) = std::fs::read_to_string(&manifest) {
        for line in text.lines() {
            let t = line.trim();
            if let Some(rest) = t.strip_prefix("name") {
                if let Some(v) = rest.trim_start().strip_prefix('=') {
                    return v.trim().trim_matches('"').to_string();
                }
            }
        }
    }
    crate_dir.file_name().and_then(|n| n.to_str()).unwrap_or("unknown").to_string()
}

fn walk_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // Fixture corpora are violation samples by design, never
            // workspace code.
            if path.file_name().and_then(|n| n.to_str()) == Some("fixtures") {
                continue;
            }
            walk_rust_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn load_tree(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    crate_root: &Path,
    out: &mut Vec<FileInput>,
) -> std::io::Result<()> {
    let mut paths = Vec::new();
    walk_rust_files(dir, &mut paths)?;
    for path in paths {
        let rel_in_crate = path.strip_prefix(crate_root).unwrap_or(&path);
        let kind = classify(rel_in_crate);
        let display = path.strip_prefix(root).unwrap_or(&path).display().to_string();
        let text = std::fs::read_to_string(&path)?;
        out.push(FileInput { path: display, crate_name: crate_name.to_string(), kind, text });
    }
    Ok(())
}

/// Load a workspace rooted at `root` into memory, in canonical (sorted
/// walk) order: every crate under `crates/` (its `src/`, `tests/`,
/// `benches/`), plus the root `examples/` and `tests/` trees.
/// `third_party/` shims and fixture corpora are out of scope by
/// construction.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<FileInput>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> =
        std::fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs.into_iter().filter(|p| p.is_dir()) {
        let name = crate_package_name(&crate_dir);
        for sub in ["src", "tests", "benches"] {
            load_tree(root, &crate_dir.join(sub), &name, &crate_dir, &mut files)?;
        }
    }
    for sub in ["examples", "tests"] {
        load_tree(root, &root.join(sub), "workspace", root, &mut files)?;
    }
    Ok(files)
}

/// Run the full pass over a workspace rooted at `root`.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    Ok(analyze(&load_workspace(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify(Path::new("src/lib.rs")), FileKind::Library);
        assert_eq!(classify(Path::new("src/bin/lint.rs")), FileKind::Bin);
        assert_eq!(classify(Path::new("tests/engine.rs")), FileKind::IntegrationTest);
        assert_eq!(classify(Path::new("benches/scorecard.rs")), FileKind::Bench);
    }

    /// A structural `sink-side-effect` hit: the telemetry crate naming
    /// the simulator.
    const SINK_LINE: &str = "use idse_sim::event::EventQueue;";

    #[test]
    fn allow_suppresses_and_records_reason() {
        let src = format!(
            "{SINK_LINE} // idse-lint: allow(sink-side-effect, reason = \"type name only, never scheduled\")\n"
        );
        let r = analyze_source("x.rs", "idse-telemetry", FileKind::Library, &src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].reason, "type name only, never scheduled");
    }

    #[test]
    fn allow_without_reason_is_invalid() {
        let src = format!("// idse-lint: allow(sink-side-effect)\n{SINK_LINE}\n");
        let r = analyze_source("x.rs", "idse-telemetry", FileKind::Library, &src);
        assert!(r.findings.iter().any(|f| f.rule == "invalid-allow"));
        // The underlying finding still fires: an invalid allow suppresses nothing.
        assert!(r.findings.iter().any(|f| f.rule == "sink-side-effect"));
    }

    #[test]
    fn unused_allow_is_flagged() {
        let src = "// idse-lint: allow(sink-side-effect, reason = \"speculative\")\nlet x = 1;\n";
        let r = analyze_source("x.rs", "idse-telemetry", FileKind::Library, src);
        assert!(r.findings.iter().any(|f| f.rule == "unused-allow"));
    }

    #[test]
    fn json_report_is_deterministic() {
        let run = || {
            let src = format!("{SINK_LINE}\nfn f(q: &mut EventQueue) {{}}\n");
            let r = analyze_source("a.rs", "idse-telemetry", FileKind::Library, &src);
            serde_json::to_string(&r).expect("report serializes")
        };
        assert_eq!(run(), run());
    }
}
