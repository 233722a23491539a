//! # idse-lint — workspace static analysis for determinism and real-time safety
//!
//! Identical inputs must yield byte-identical scores: the paper's scorecard
//! means nothing otherwise. The guard is split in two.
//!
//! **clippy** checks the direct, token-level hazards through workspace
//! configuration: `[workspace.lints.clippy]` (`unwrap_used`, `panic`,
//! `todo`, `unimplemented`, `float_cmp`) and `disallowed-methods` /
//! `disallowed-types` in `clippy.toml` (wall clocks, ambient entropy, raw
//! threads everywhere; `HashMap`/`HashSet` in the report crates). Audited
//! exceptions are `#[expect(clippy::..., reason = "...")]`, which clippy
//! itself reports once they stop being needed.
//!
//! **idse-lint** checks what only this repository can express. A small
//! lexer (see [`source`]) feeds three phases, no rustc plugin required:
//!
//! **Phase 1** scans each file independently — the line rules of
//! [`rules`] (`sink-side-effect`, `materialized-feed-in-experiment`),
//! allow-directive validation, and extraction of a lightweight semantic
//! model (see [`model`]): `fn`/`impl`/`mod` definitions, `use` imports,
//! call-site tokens, and taint seeds. It is a plain loop over the files in
//! canonical order.
//!
//! **Phase 2** assembles the per-file models into a workspace call graph
//! and propagates taint labels (see [`taint`]) backwards from every hazard
//! token, so a function that merely *reaches* a wall clock, ambient
//! entropy, a hash container, a panicking helper, or raw threads — at any
//! depth, across crates — is flagged with the full call chain. clippy sees
//! only the token; this is the half it cannot see:
//!
//! ```text
//! error[transitive-wall-clock-in-sim] crates/sim/src/lib.rs:4:24 — `step`
//!   reaches wall-clock source `std::time::Instant::now` through 2 calls:
//!   idse-sim::step -> idse-sim::util::now_ms -> std::time::Instant::now
//! ```
//!
//! **Phase 3** runs value dataflow (see [`dataflow`]) over the same
//! models: seed lineage (`literal-seed`, `seed-label-reuse`,
//! `seed-label-collision` — the last judged by *evaluating* the real
//! `derive_seed` at lint time), reduction order over `par_map` output
//! (`unordered-float-reduce`), and run-id hash purity
//! (`impure-store-record`).
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
//! Transitive rules honor allows **at the taint source**: one directive on
//! the hazard line (naming the transitive rule) shields every downstream
//! caller, so an audited helper never needs N call-site suppressions. An
//! `#[expect(clippy::...)]` on the hazard line that names the lint
//! checking it (see [`rules::TaintLabel::clippy_lints`]) shields the same
//! way: the exception is audited once, where the token is. A directive
//! with an unknown rule name or a missing/empty reason is itself an error
//! (`invalid-allow`), and a directive that suppresses nothing is flagged
//! (`unused-allow`) so stale suppressions get deleted.
//!
//! ## Determinism of the lint itself
//!
//! The lint practices what it enforces: the workspace walk is sorted, the
//! three phases run serially in that order, all aggregation uses ordered
//! containers, and the report is sorted before it is rendered. The text
//! listing and the `--json` report are a pure function of the tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod model;
pub mod rules;
pub mod source;
pub mod taint;

use rules::{FileKind, LineCtx, RuleId, Severity, TaintLabel};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
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
    /// For transitive findings: qualified names from the reporter down to
    /// the taint source, ending with the hazard token. Empty for line
    /// findings.
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

/// The unit phase 2 operates on: every file plus the workspace dependency
/// direction (crate → direct deps), which bounds cross-crate call edges.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Files in canonical (sorted-walk) order.
    pub files: Vec<FileInput>,
    /// Crate package name → direct dependency package names. A crate
    /// absent from the map is unconstrained (fixture corpora, the root
    /// `workspace` pseudo-crate).
    pub deps: BTreeMap<String, BTreeSet<String>>,
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
    expects: Vec<source::ClippyExpect>,
    model: model::FileModel,
    lines: Vec<source::Line>,
    test_flags: Vec<bool>,
}

/// Phase 1 for one file: line rules, directive validation, model
/// extraction. A pure function of the input.
fn analyze_file(file_idx: usize, input: &FileInput) -> FilePass {
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

    let model = model::extract(&input.path, crate_name, kind, file_idx, &lines, &test_flags);
    let expects = source::clippy_expects(&lines);
    FilePass { report, valid, expects, model, lines, test_flags }
}

/// How an allow-at-source directive kills a taint seed.
enum SeedKill {
    /// Directive at the seed line names the transitive rule.
    BySourceAllow(usize),
    /// An `#[expect(clippy::...)]` on the item covering the seed line
    /// names a lint that checks the label's direct half: clippy holds the
    /// audited exception (and fails the build once it stops being needed).
    ByDirectAllow,
}

fn seed_kill(passes: &[FilePass], label: TaintLabel, s: &model::SeedInfo) -> Option<SeedKill> {
    let pass = passes.get(s.file)?;
    if let Some(di) =
        pass.valid.iter().position(|d| d.target == s.line && d.rule == label.transitive_rule())
    {
        return Some(SeedKill::BySourceAllow(di));
    }
    let direct = label.clippy_lints();
    pass.expects
        .iter()
        .any(|e| {
            (e.first_line..=e.last_line).contains(&s.line)
                && e.lints.iter().any(|l| direct.contains(&l.as_str()))
        })
        .then_some(SeedKill::ByDirectAllow)
}

/// Analyze a workspace: phase 1 per file, then the call graph, taint, and
/// dataflow phases over the collected models.
pub fn analyze(ws: &Workspace) -> Report {
    // Phase 1: per file, in canonical file order.
    let mut passes: Vec<FilePass> =
        ws.files.iter().enumerate().map(|(i, f)| analyze_file(i, f)).collect();

    // Phase 2: whole-workspace call graph and taint propagation.
    let metas: Vec<model::FileMeta> = ws
        .files
        .iter()
        .map(|f| model::FileMeta {
            path: f.path.clone(),
            crate_name: f.crate_name.clone(),
            kind: f.kind,
        })
        .collect();
    let models: Vec<model::FileModel> = passes.iter().map(|p| p.model.clone()).collect();
    let graph = model::assemble(&metas, &models, &ws.deps);

    let mut extra_findings: Vec<Finding> = Vec::new();
    let mut extra_suppressed: Vec<Suppressed> = Vec::new();

    for label in TaintLabel::ALL {
        // Live propagation: seeds not shielded by an allow at the source.
        let live = taint::propagate(&graph, label, &|_, s| seed_kill(&passes, label, s).is_none());
        let hits = {
            let direct_covered = |id: usize| -> bool {
                let Some(w) = &live[id] else { return false };
                let s = &w.seed;
                let meta = &metas[s.file];
                let in_test = passes[s.file].test_flags.get(s.line).copied().unwrap_or(false);
                label.applies(&meta.crate_name, meta.kind, in_test).is_some()
            };
            taint::transitive_hits(&graph, label, &live, &direct_covered)
        };
        for hit in hits {
            let f = &graph.fns[hit.fn_id];
            let file_idx = f.file;
            let finding = Finding {
                rule: label.transitive_rule().name().to_string(),
                severity: hit.severity.label().to_string(),
                crate_name: f.crate_name.clone(),
                file: metas[file_idx].path.clone(),
                line: hit.line + 1,
                column: hit.column + 1,
                message: hit.message,
                excerpt: passes[file_idx]
                    .lines
                    .get(hit.line)
                    .map(|l| l.code.trim().to_string())
                    .unwrap_or_default(),
                chain: hit.chain,
            };
            // A call-site allow naming the transitive rule suppresses the
            // individual finding (source allows are preferred, but the
            // escape hatch composes either way).
            let dir = passes[file_idx]
                .valid
                .iter_mut()
                .find(|d| d.target == hit.line && d.rule == label.transitive_rule());
            match dir {
                Some(d) => {
                    d.used = true;
                    extra_suppressed.push(Suppressed { finding, reason: d.reason.clone() });
                }
                None => extra_findings.push(finding),
            }
        }

        // Shield accounting: a source allow earns "used" iff some in-scope
        // function actually reaches its seed — otherwise it is stale and
        // `unused-allow` fires.
        let shielded = taint::propagate(&graph, label, &|_, s| {
            matches!(seed_kill(&passes, label, s), Some(SeedKill::BySourceAllow(_)))
        });
        let reachers = taint::in_scope_reachers(&graph, label, &shielded);
        let mut shield_uses: BTreeMap<(usize, usize), (Severity, model::SeedInfo, usize)> =
            BTreeMap::new();
        for id in reachers {
            let w = shielded[id].as_ref().expect("reachers are tainted");
            let Some(SeedKill::BySourceAllow(di)) = seed_kill(&passes, label, &w.seed) else {
                continue;
            };
            let f = &graph.fns[id];
            let severity = label
                .applies(&f.crate_name, f.kind, f.in_test)
                .expect("in_scope_reachers filters by scope");
            shield_uses.entry((w.seed.file, di)).and_modify(|e| e.2 += 1).or_insert((
                severity,
                w.seed.clone(),
                1,
            ));
        }
        for ((file_idx, di), (severity, s, n)) in shield_uses {
            let excerpt = passes[file_idx]
                .lines
                .get(s.line)
                .map(|l| l.code.trim().to_string())
                .unwrap_or_default();
            let plural = if n == 1 { "" } else { "s" };
            let d = &mut passes[file_idx].valid[di];
            d.used = true;
            extra_suppressed.push(Suppressed {
                finding: Finding {
                    rule: label.transitive_rule().name().to_string(),
                    severity: severity.label().to_string(),
                    crate_name: metas[file_idx].crate_name.clone(),
                    file: metas[file_idx].path.clone(),
                    line: s.line + 1,
                    column: s.column + 1,
                    message: format!(
                        "taint source `{}` allowed here: shields {n} in-scope function{plural} \
                         from {}",
                        s.token,
                        label.transitive_rule().name(),
                    ),
                    excerpt,
                    chain: Vec::new(),
                },
                reason: d.reason.clone(),
            });
        }
    }

    // Phase 3: value dataflow over the same models — seed lineage,
    // reduction order, store-record purity. An allow at the finding line
    // or at the chain's origin suppresses.
    let dataflow_hits = {
        let views: Vec<dataflow::FileView<'_>> = metas
            .iter()
            .zip(passes.iter())
            .map(|(meta, pass)| dataflow::FileView {
                meta,
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
            crate_name: metas[hit.file].crate_name.clone(),
            file: metas[hit.file].path.clone(),
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
        // an allow at the chain's origin (the binding, first label site,
        // or taint source) shields every downstream finding — the same
        // composition the taint rules offer.
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
    // only as a taint-source shield.
    for (fi, pass) in passes.iter().enumerate() {
        for d in &pass.valid {
            if !d.used {
                extra_findings.push(Finding {
                    rule: RuleId::UnusedAllow.name().to_string(),
                    severity: Severity::Warn.label().to_string(),
                    crate_name: metas[fi].crate_name.clone(),
                    file: metas[fi].path.clone(),
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
/// Single-file convenience over [`analyze`]: the call graph is built from
/// this file alone.
pub fn analyze_source(file: &str, crate_name: &str, kind: FileKind, text: &str) -> Report {
    let ws = Workspace {
        files: vec![FileInput {
            path: file.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            text: text.to_string(),
        }],
        deps: BTreeMap::new(),
    };
    analyze(&ws)
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

/// Dependency keys from the `[dependencies]`/`[dev-dependencies]`/
/// `[build-dependencies]` sections of a manifest. For this workspace the
/// key *is* the package name.
fn manifest_deps(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_deps = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            let section = t.trim_matches(['[', ']']);
            in_deps = matches!(section, "dependencies" | "dev-dependencies" | "build-dependencies");
            if !in_deps {
                for prefix in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
                    if let Some(name) = section.strip_prefix(prefix) {
                        out.insert(name.trim_matches('"').to_string());
                    }
                }
            }
            continue;
        }
        if in_deps {
            if let Some((key, _)) = t.split_once('=') {
                let k = key.trim().trim_matches('"');
                if !k.is_empty() {
                    out.insert(k.to_string());
                }
            }
        }
    }
    out
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
    ws: &mut Workspace,
) -> std::io::Result<()> {
    let mut files = Vec::new();
    walk_rust_files(dir, &mut files)?;
    for path in files {
        let rel_in_crate = path.strip_prefix(crate_root).unwrap_or(&path);
        let kind = classify(rel_in_crate);
        let display = path.strip_prefix(root).unwrap_or(&path).display().to_string();
        let text = std::fs::read_to_string(&path)?;
        ws.files.push(FileInput { path: display, crate_name: crate_name.to_string(), kind, text });
    }
    Ok(())
}

/// Load a workspace rooted at `root` into memory: every crate under
/// `crates/` (its `src/`, `tests/`, `benches/`), plus the root `examples/`
/// and `tests/` trees, and the dependency direction from each crate's
/// manifest. `third_party/` shims and fixture corpora are out of scope by
/// construction.
pub fn load_workspace(root: &Path) -> std::io::Result<Workspace> {
    let mut ws = Workspace::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> =
        std::fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs.into_iter().filter(|p| p.is_dir()) {
        let name = crate_package_name(&crate_dir);
        if let Ok(manifest) = std::fs::read_to_string(crate_dir.join("Cargo.toml")) {
            ws.deps.insert(name.clone(), manifest_deps(&manifest));
        }
        for sub in ["src", "tests", "benches"] {
            load_tree(root, &crate_dir.join(sub), &name, &crate_dir, &mut ws)?;
        }
    }
    for sub in ["examples", "tests"] {
        load_tree(root, &root.join(sub), "workspace", root, &mut ws)?;
    }
    Ok(ws)
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
    fn manifest_deps_reads_section_keys() {
        let toml = "[package]\nname = \"idse-eval\"\n\n[dependencies]\n\
                    idse-sim = { workspace = true }\nserde = { workspace = true }\n\n\
                    [dev-dependencies]\nproptest = { workspace = true }\n";
        let deps = manifest_deps(toml);
        assert!(deps.contains("idse-sim"));
        assert!(deps.contains("proptest"));
        assert!(!deps.contains("name"));
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

    #[test]
    fn transitive_finding_carries_the_chain() {
        // The seed lives in a tooling crate outside the wall-clock scope:
        // clippy's configuration there need not ban it, and without the
        // taint pass this launders the clock straight into the sim crate.
        let ws = Workspace {
            files: vec![
                FileInput {
                    path: "crates/simx/src/lib.rs".to_string(),
                    crate_name: "idse-sim".to_string(),
                    kind: FileKind::Library,
                    text: "pub fn step() -> u64 { now_ms() }\n\
                           fn now_ms() -> u64 { idse_timeutil::raw_clock() }\n"
                        .to_string(),
                },
                FileInput {
                    path: "crates/timeutil/src/lib.rs".to_string(),
                    crate_name: "idse-timeutil".to_string(),
                    kind: FileKind::Library,
                    text: "pub fn raw_clock() -> u64 { let t = std::time::Instant::now(); 0 }\n"
                        .to_string(),
                },
            ],
            deps: BTreeMap::new(),
        };
        let r = analyze(&ws);
        let trans: Vec<_> =
            r.findings.iter().filter(|f| f.rule == "transitive-wall-clock-in-sim").collect();
        assert_eq!(trans.len(), r.findings.len(), "{:?}", r.findings);
        assert_eq!(trans.len(), 1, "{:?}", r.findings);
        assert_eq!(
            trans[0].chain,
            vec!["idse-sim::now_ms", "idse-timeutil::raw_clock", "std::time::Instant::now"]
        );
        assert_eq!(trans[0].file, "crates/simx/src/lib.rs");
        assert_eq!(trans[0].line, 2, "reported at now_ms's call site");
    }

    #[test]
    fn allow_at_source_shields_downstream_and_is_used() {
        // The hazard lives outside the report crates (no direct finding);
        // a report-crate function reaches it; one allow at the source
        // shields the downstream caller and counts as used.
        let ws = Workspace {
            files: vec![
                FileInput {
                    path: "crates/evalx/src/lib.rs".to_string(),
                    crate_name: "idse-eval".to_string(),
                    kind: FileKind::Library,
                    text: "use idse_ids::bucket_count;\n\
                           pub fn summarize() -> usize { bucket_count() }\n"
                        .to_string(),
                },
                FileInput {
                    path: "crates/idsx/src/lib.rs".to_string(),
                    crate_name: "idse-ids".to_string(),
                    kind: FileKind::Library,
                    text: "// idse-lint: allow(transitive-unordered-iteration-in-report, reason = \"size query only, order never observed\")\n\
                           pub fn bucket_count() -> usize { std::collections::HashMap::<u32, u32>::new().len() }\n"
                        .to_string(),
                },
            ],
            deps: BTreeMap::new(),
        };
        // No unused-allow finding either: the shield counts as used.
        let r = analyze(&ws);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 1, "{:?}", r.suppressed);
        assert!(r.suppressed[0].finding.message.contains("shields 1 in-scope function"));
    }

    #[test]
    fn clippy_expect_at_the_seed_shields_callers() {
        // The panic sits in a tooling crate, outside the panic scope; a
        // sim-crate function reaches it. An `#[expect(clippy::panic)]` on
        // the seed line is the audited exception: no caller inherits it.
        let ws = |expect: &str| Workspace {
            files: vec![
                FileInput {
                    path: "crates/simx/src/lib.rs".to_string(),
                    crate_name: "idse-sim".to_string(),
                    kind: FileKind::Library,
                    text: "pub fn step() { idse_tool::fail() }\n".to_string(),
                },
                FileInput {
                    path: "crates/tool/src/lib.rs".to_string(),
                    crate_name: "idse-tool".to_string(),
                    kind: FileKind::Library,
                    text: format!("pub fn fail() {{\n{expect}\n    panic!(\"boom\");\n}}\n"),
                },
            ],
            deps: BTreeMap::new(),
        };
        let bare = analyze(&ws(""));
        assert_eq!(bare.findings.len(), 1, "{:?}", bare.findings);
        assert_eq!(bare.findings[0].rule, "transitive-panic-in-library");
        let expected = r#"    #[expect(clippy::panic, reason = "re-raise")]"#;
        let shielded = analyze(&ws(expected));
        assert!(shielded.findings.is_empty(), "{:?}", shielded.findings);
        // An expect naming an unrelated lint shields nothing.
        let other = analyze(&ws("    #[expect(clippy::float_cmp)]"));
        assert_eq!(other.findings.len(), 1, "{:?}", other.findings);
    }
}
