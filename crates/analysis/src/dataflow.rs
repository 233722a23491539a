//! Phase-2 interprocedural value dataflow over the semantic model.
//!
//! clippy answers the token questions — does this crate name a wall
//! clock? The rules here answer *value-flow* questions the paper's
//! reproducibility invariant depends on:
//!
//! * **Seed lineage** (`literal-seed`, `seed-label-reuse`,
//!   `seed-label-collision`) — every RNG stream must be constructed from
//!   `derive_seed(master, label)` with a label that is unique per stream
//!   *and* collision-free under the actual FNV-1a/SplitMix64 derivation,
//!   which this pass evaluates at lint time. Two labels that hash to the
//!   same 64-bit value produce byte-identical streams even though the
//!   source reads as if they were independent.
//! * **Hash purity** (`impure-store-record`) — `idse-store` run ids hash
//!   the canonical record content. Stamps, telemetry summaries and wall
//!   clocks are *annotation* channels (`with_stamp`/`with_telemetry`,
//!   excluded from the hash); letting such a value flow into
//!   `RunDraft::new`/`record` arguments would make run identity depend on
//!   when or how a run was observed rather than what it computed.
//!
//! The pass is serial and deterministic: files in canonical order, sites
//! in (line, column) order, groupings in `BTreeMap`s. Every finding
//! carries a witness chain and honors `allow(...)` both at the finding
//! line and at the chain's source line (the shield).

use crate::model::FileModel;
use crate::rules::{self, RuleId, Severity, Tier};
use crate::source::Line;
use crate::FileInput;
use std::collections::BTreeMap;

/// Read-only view of one analyzed file, borrowed from phase-1 output.
pub struct FileView<'a> {
    /// Path/crate/kind of the input file.
    pub file: &'a FileInput,
    /// The extracted semantic model.
    pub model: &'a FileModel,
    /// Masked lines (code + literals channels).
    pub lines: &'a [Line],
    /// Per-line `#[cfg(test)]` flags.
    pub test_flags: &'a [bool],
}

/// One dataflow finding before allow-directive resolution.
#[derive(Debug, Clone)]
pub struct DataflowHit {
    /// Which rule fired.
    pub rule: RuleId,
    /// Severity after crate tiering.
    pub severity: Severity,
    /// File index of the reporting site.
    pub file: usize,
    /// 0-based line of the reporting site.
    pub line: usize,
    /// 0-based column of the reporting site.
    pub column: usize,
    /// Human message.
    pub message: String,
    /// Witness chain: origin → flow step(s) → sink token.
    pub chain: Vec<String>,
    /// `(file, line)` of the chain's origin, when distinct from the
    /// finding site: an allow there shields every downstream finding.
    pub source: Option<(usize, usize)>,
}

/// FNV-1a over a label, exactly as `idse_sim::rng::fnv1a`.
pub fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The exact seed derivation `RngStream::derive` performs, reimplemented
/// so collisions are judged by the real function, not a proxy. SplitMix64
/// is a bijection, so two labels collide under *any* master seed iff they
/// collide under master 0.
pub fn eval_derive_seed(master: u64, label: &str) -> u64 {
    splitmix64(master ^ fnv1a(label))
}

/// One parsed call argument: its (roughly reassembled) text and the first
/// string literal that lexes inside it, with the literal's location.
#[derive(Debug, Clone, Default)]
struct Arg {
    text: String,
    lit: Option<(String, usize, usize)>,
}

/// Parse the arguments of a call whose opening parenthesis sits at
/// `(start_line, open_col)` in the masked code. Joins up to 12 physical
/// lines until the parentheses balance; literal contents are substituted
/// back into the argument text so a constant label reads as `"label"`.
/// Returns `None` when the span does not close in the window.
fn call_args(lines: &[Line], start_line: usize, open_col: usize) -> Option<Vec<Arg>> {
    let mut args: Vec<Arg> = Vec::new();
    let mut depth = 0i32;
    for (li, line) in lines.iter().enumerate().take(start_line + 12).skip(start_line) {
        let from = if li == start_line { open_col } else { 0 };
        for (col, c) in line.code.chars().enumerate().skip(from) {
            match c {
                '(' | '[' | '{' => {
                    depth += 1;
                    if depth == 1 {
                        args.push(Arg::default());
                        continue;
                    }
                }
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(args);
                    }
                }
                ',' if depth == 1 => {
                    args.push(Arg::default());
                    continue;
                }
                '"' if depth >= 1 => {
                    if let Some(cur) = args.last_mut() {
                        if let Some((_, content)) = line.literals.iter().find(|(lc, _)| *lc == col)
                        {
                            if cur.lit.is_none() {
                                cur.lit = Some((content.clone(), li, col));
                            }
                            cur.text.push('"');
                            cur.text.push_str(content);
                            continue;
                        }
                    }
                }
                _ => {}
            }
            if depth >= 1 {
                if let Some(cur) = args.last_mut() {
                    cur.text.push(c);
                }
            }
        }
        if depth >= 1 {
            if let Some(cur) = args.last_mut() {
                cur.text.push(' ');
            }
        }
    }
    None
}

/// Every word-boundary occurrence of `word` in `code`, in order.
fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while from < code.len() {
        let Some(at) = rules::word_at(&code[from..], word) else { break };
        out.push(from + at);
        from = from + at + word.len();
    }
    out
}

fn is_int_literal(t: &str) -> bool {
    let t = t.trim().trim_end_matches("u64").trim_end_matches("u32").trim_end_matches('_');
    if let Some(hex) = t.strip_prefix("0x") {
        return !hex.is_empty() && hex.chars().all(|c| c.is_ascii_hexdigit() || c == '_');
    }
    !t.is_empty() && t.chars().all(|c| c.is_ascii_digit() || c == '_')
}

fn is_plain_ident(t: &str) -> bool {
    !t.is_empty()
        && t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
        && t.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// The qualified name of the function owning `line` in `view`, or a
/// `path:line` locator for top-level code.
fn owner_qual(view: &FileView<'_>, line: usize) -> String {
    view.model
        .line_owners
        .get(line)
        .copied()
        .flatten()
        .and_then(|local| view.model.fns.get(local))
        .map(|f| f.qual.clone())
        .unwrap_or_else(|| format!("{}:{}", view.file.path, line + 1))
}

fn in_test(view: &FileView<'_>, line: usize) -> bool {
    view.test_flags.get(line).copied().unwrap_or(false) || view.file.kind.is_test()
}

/// Tiered severity for the seed-lineage rules: substrate crates error,
/// harness crates warn, tooling crates are out of scope.
fn lineage_severity(crate_name: &str) -> Option<Severity> {
    match rules::crate_tier(crate_name) {
        Tier::Strict => Some(Severity::Error),
        Tier::Standard => Some(Severity::Warn),
        Tier::Tooling => None,
    }
}

/// A constant-label stream-construction site.
#[derive(Debug, Clone)]
struct LabelSite {
    file: usize,
    line: usize,
    column: usize,
    crate_name: String,
    label: String,
    qual: String,
}

/// Resolve a same-file `const NAME: &str = "...";` to its literal value.
fn resolve_const(view: &FileView<'_>, ident: &str) -> Option<String> {
    for line in view.lines {
        if let Some(at) = rules::word_at(&line.code, "const") {
            let rest = &line.code[at + 5..];
            let rest = rest.trim_start();
            if rest.starts_with(ident)
                && rest[ident.len()..]
                    .chars()
                    .next()
                    .is_some_and(|c| !c.is_alphanumeric() && c != '_')
            {
                return line.literals.first().map(|(_, v)| v.clone());
            }
        }
    }
    None
}

/// Extract the constant label of a 2-argument derive call, if the second
/// argument is a string literal or a same-file string const. `format!`
/// labels and runtime expressions are non-constant and return `None`.
fn constant_label(view: &FileView<'_>, args: &[Arg]) -> Option<String> {
    if args.len() != 2 {
        return None;
    }
    let t = args[1].text.trim().trim_start_matches('&').trim_start();
    if t.starts_with('"') {
        return args[1].lit.as_ref().map(|(v, _, _)| v.clone());
    }
    let ident = t.trim_end();
    if is_plain_ident(ident) {
        return resolve_const(view, ident);
    }
    None
}

/// Collect every non-test construction site that uses a constant label:
/// `derive_seed(master, LABEL)` and `RngStream::derive(master, LABEL)`.
fn label_sites(files: &[FileView<'_>]) -> Vec<LabelSite> {
    let mut out = Vec::new();
    for (fi, view) in files.iter().enumerate() {
        for (li, line) in view.lines.iter().enumerate() {
            if in_test(view, li) {
                continue;
            }
            for at in word_positions(&line.code, "derive_seed") {
                let open = at + "derive_seed".len();
                if !line.code[open..].starts_with('(') {
                    continue;
                }
                // The defining `fn derive_seed` header is not a call site.
                if line.code[..at].trim_end().ends_with("fn") {
                    continue;
                }
                let Some(args) = call_args(view.lines, li, open) else { continue };
                if let Some(label) = constant_label(view, &args) {
                    out.push(LabelSite {
                        file: fi,
                        line: li,
                        column: at,
                        crate_name: view.file.crate_name.clone(),
                        label,
                        qual: owner_qual(view, li),
                    });
                }
            }
            for at in word_positions(&line.code, "derive") {
                if !line.code[..at].ends_with("RngStream::") {
                    continue;
                }
                let open = at + "derive".len();
                if !line.code[open..].starts_with('(') {
                    continue;
                }
                let Some(args) = call_args(view.lines, li, open) else { continue };
                if let Some(label) = constant_label(view, &args) {
                    out.push(LabelSite {
                        file: fi,
                        line: li,
                        column: at,
                        crate_name: view.file.crate_name.clone(),
                        label,
                        qual: owner_qual(view, li),
                    });
                }
            }
        }
    }
    out.sort_by_key(|a| (a.file, a.line, a.column));
    out.dedup_by(|a, b| (a.file, a.line, a.column) == (b.file, b.line, b.column));
    out
}

/// `seed-label-reuse`: one constant label at two distinct construction
/// sites in the same crate. The first site (in canonical order) is the
/// origin; later sites report, so an allow at the origin shields all.
fn check_label_reuse(files: &[FileView<'_>], sites: &[LabelSite], out: &mut Vec<DataflowHit>) {
    let mut by_key: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (i, s) in sites.iter().enumerate() {
        by_key.entry((s.crate_name.clone(), s.label.clone())).or_default().push(i);
    }
    for ((crate_name, label), idxs) in by_key {
        let Some(severity) = lineage_severity(&crate_name) else { continue };
        let mut distinct: Vec<usize> = Vec::new();
        for &i in &idxs {
            let s = &sites[i];
            if !distinct.iter().any(|&j| sites[j].file == s.file && sites[j].line == s.line) {
                distinct.push(i);
            }
        }
        if distinct.len() < 2 {
            continue;
        }
        let first = &sites[distinct[0]];
        for &i in &distinct[1..] {
            let s = &sites[i];
            out.push(DataflowHit {
                rule: RuleId::SeedLabelReuse,
                severity,
                file: s.file,
                line: s.line,
                column: s.column,
                message: format!(
                    "constant seed label \"{label}\" already used at {}:{}: the streams \
                     are identical, so the draws are correlated — give each \
                     construction site its own label",
                    files[first.file].file.path,
                    first.line + 1,
                ),
                chain: vec![first.qual.clone(), s.qual.clone(), format!("label \"{label}\"")],
                source: Some((first.file, first.line)),
            });
        }
    }
}

/// `seed-label-collision`: two *distinct* constant labels whose
/// `derive_seed` values collide, judged by evaluating the real derivation.
fn check_label_collision(files: &[FileView<'_>], sites: &[LabelSite], out: &mut Vec<DataflowHit>) {
    let mut by_hash: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in sites.iter().enumerate() {
        by_hash.entry(eval_derive_seed(0, &s.label)).or_default().push(i);
    }
    for (hash, idxs) in by_hash {
        let mut labels: Vec<&str> = idxs.iter().map(|&i| sites[i].label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        if labels.len() < 2 {
            continue;
        }
        for &i in &idxs {
            let s = &sites[i];
            let other = labels
                .iter()
                .find(|l| **l != s.label)
                .expect("collision groups hold at least two distinct labels");
            let other_site = idxs
                .iter()
                .map(|&j| &sites[j])
                .find(|o| o.label == **other)
                .expect("every grouped label has a site");
            out.push(DataflowHit {
                rule: RuleId::SeedLabelCollision,
                severity: Severity::Error,
                file: s.file,
                line: s.line,
                column: s.column,
                message: format!(
                    "labels \"{}\" and \"{}\" collide under derive_seed (both derive \
                     {hash:#018x} for every master seed): the streams are identical; \
                     rename one label ({}:{})",
                    s.label,
                    other,
                    files[other_site.file].file.path,
                    other_site.line + 1,
                ),
                chain: vec![
                    format!("{} label \"{}\"", s.qual, s.label),
                    format!("{} label \"{}\"", other_site.qual, other),
                    format!("derive_seed -> {hash:#018x}"),
                ],
                source: None,
            });
        }
    }
}

/// How the seed argument of a `seed_from_u64` call originates.
enum SeedOrigin {
    /// Flows through `derive_seed(master, label)`: sanctioned.
    Derived,
    /// Bottoms out in an integer literal, with the flow steps taken.
    Literal { value: String, steps: Vec<String>, origin: Option<(usize, usize)> },
    /// Cannot be classified: stay silent (under-approximation).
    Unknown,
}

fn rhs_of_let(code: &str, ident: &str) -> Option<String> {
    let at = rules::word_at(code, "let")?;
    let rest = code[at + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    if !rest.starts_with(ident) {
        return None;
    }
    let after = &rest[ident.len()..];
    if after.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    let (_, rhs) = after.split_once('=')?;
    Some(rhs.trim().trim_end_matches(';').trim_end().to_string())
}

/// Classify the first argument of a `seed_from_u64` call within the body
/// of the owning function (`body` = 0-based lines owned by the same fn).
/// `view_idx` is `view`'s index in `files`, for origin coordinates.
fn classify_seed_expr(
    files: &[FileView<'_>],
    view: &FileView<'_>,
    view_idx: usize,
    body: &[usize],
    call_line: usize,
    expr: &str,
) -> SeedOrigin {
    let t = expr.trim();
    if word_positions(t, "derive_seed")
        .iter()
        .any(|&at| t[at + "derive_seed".len()..].trim_start().starts_with('('))
    {
        return SeedOrigin::Derived;
    }
    if is_int_literal(t) {
        return SeedOrigin::Literal { value: t.to_string(), steps: Vec::new(), origin: None };
    }
    if is_plain_ident(t) {
        // A local binding: find the defining `let` earlier in the body.
        for &li in body.iter().rev().filter(|&&li| li < call_line) {
            let Some(rhs) = rhs_of_let(&view.lines[li].code, t) else { continue };
            if word_positions(&rhs, "derive_seed")
                .iter()
                .any(|&at| rhs[at + "derive_seed".len()..].trim_start().starts_with('('))
            {
                return SeedOrigin::Derived;
            }
            if is_int_literal(&rhs) {
                return SeedOrigin::Literal {
                    value: rhs.clone(),
                    steps: vec![format!("let {t} = {rhs}")],
                    origin: Some((view_idx, li)),
                };
            }
            return SeedOrigin::Unknown;
        }
        return SeedOrigin::Unknown;
    }
    // A call to a same-crate free function: classify its body.
    if let Some(open) = t.find('(') {
        let name = &t[..open];
        if is_plain_ident(name) {
            let mut matches: Vec<(usize, usize)> = Vec::new();
            for (fi, v) in files.iter().enumerate() {
                if v.file.crate_name != view.file.crate_name {
                    continue;
                }
                for (local, f) in v.model.fns.iter().enumerate() {
                    if f.name == name && f.self_ty.is_none() {
                        matches.push((fi, local));
                    }
                }
            }
            if let [(fi, local)] = matches[..] {
                let v = &files[fi];
                let body_lines: Vec<usize> = v
                    .model
                    .line_owners
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| **o == Some(local))
                    .map(|(li, _)| li)
                    .collect();
                let derived = body_lines.iter().any(|&li| {
                    word_positions(&v.lines[li].code, "derive_seed")
                        .iter()
                        .any(|&at| v.lines[li].code[at + "derive_seed".len()..].starts_with('('))
                });
                if derived {
                    return SeedOrigin::Derived;
                }
                // A one-expression literal body: `fn f() -> u64 { 42 }`.
                for &li in &body_lines {
                    let code = v.lines[li].code.trim();
                    let tail = code.rsplit('{').next().unwrap_or(code);
                    let tail = tail.trim().trim_end_matches('}').trim();
                    let tail = tail.strip_prefix("return").unwrap_or(tail);
                    let tail = tail.trim().trim_end_matches(';').trim();
                    if is_int_literal(tail) && !tail.is_empty() {
                        let fn_qual = v.model.fns[local].qual.clone();
                        return SeedOrigin::Literal {
                            value: tail.to_string(),
                            steps: vec![format!("{fn_qual} -> {tail}")],
                            origin: Some((fi, li)),
                        };
                    }
                }
            }
        }
    }
    SeedOrigin::Unknown
}

/// `literal-seed`: an RNG constructed from a literal seed instead of a
/// `derive_seed(master, label)` derivation. Files that *define*
/// `derive_seed` are exempt — they are the sanctioned implementation.
fn check_literal_seed(files: &[FileView<'_>], out: &mut Vec<DataflowHit>) {
    for (fi, view) in files.iter().enumerate() {
        let Some(severity) = lineage_severity(&view.file.crate_name) else { continue };
        if view.model.fns.iter().any(|f| f.name == "derive_seed") {
            continue;
        }
        for (li, line) in view.lines.iter().enumerate() {
            if in_test(view, li) {
                continue;
            }
            for at in word_positions(&line.code, "seed_from_u64") {
                let open = at + "seed_from_u64".len();
                if !line.code[open..].starts_with('(') {
                    continue;
                }
                let Some(args) = call_args(view.lines, li, open) else { continue };
                let Some(arg) = args.first() else { continue };
                let body: Vec<usize> = view
                    .model
                    .line_owners
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| **o == view.model.line_owners.get(li).copied().flatten())
                    .map(|(bl, _)| bl)
                    .collect();
                match classify_seed_expr(files, view, fi, &body, li, &arg.text) {
                    SeedOrigin::Literal { value, steps, origin } => {
                        let mut chain = vec![owner_qual(view, li)];
                        chain.extend(steps);
                        chain.push(format!("seed_from_u64({value})"));
                        out.push(DataflowHit {
                            rule: RuleId::LiteralSeed,
                            severity,
                            file: fi,
                            line: li,
                            column: at,
                            message: format!(
                                "RNG seeded from literal `{value}`: derive the seed via \
                                 derive_seed(master, label) so the run's master seed \
                                 reaches every stream"
                            ),
                            chain,
                            source: origin,
                        });
                    }
                    SeedOrigin::Derived | SeedOrigin::Unknown => {}
                }
            }
        }
    }
}

/// Taint source kinds for `impure-store-record`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PuritySource {
    Stamp,
    WallClock,
    Telemetry,
}

impl PuritySource {
    fn phrase(self) -> &'static str {
        match self {
            PuritySource::Stamp => "--stamp CLI value",
            PuritySource::WallClock => "wall-clock value",
            PuritySource::Telemetry => "telemetry summary",
        }
    }
}

const TELEMETRY_FNS: [&str; 4] =
    ["telemetry_annotation(", "summarize(", "snapshot_events(", "dropped_events("];

/// Binding introduced on this line: `let [mut] x =`, `if let Some(x) =`,
/// or `while let Some(x) =`.
fn bound_ident(code: &str) -> Option<(String, String)> {
    let at = rules::word_at(code, "let")?;
    let rest = code[at + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let rest = rest
        .strip_prefix("Some(")
        .or_else(|| rest.strip_prefix("Ok("))
        .unwrap_or(rest)
        .trim_start();
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len());
    let ident = &rest[..end];
    if !is_plain_ident(ident) {
        return None;
    }
    let rhs = code.split_once('=').map(|(_, r)| r.to_string()).unwrap_or_default();
    Some((ident.to_string(), rhs))
}

/// `impure-store-record`: a value tainted by `--stamp`, a wall clock, or
/// a telemetry summary flows into the canonical-record path
/// (`RunDraft::new` / `.record(` / `.record_noted(`) whose content the
/// run id hashes. `with_stamp`/`with_telemetry` are the sanctioned,
/// hash-excluded annotation channels and are not sinks.
fn check_store_purity(files: &[FileView<'_>], out: &mut Vec<DataflowHit>) {
    const SINKS: [&str; 3] = ["RunDraft::new(", ".record(", ".record_noted("];
    for (fi, view) in files.iter().enumerate() {
        let mut by_fn: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (li, owner) in view.model.line_owners.iter().enumerate() {
            if let Some(local) = owner {
                if !in_test(view, li) {
                    by_fn.entry(*local).or_default().push(li);
                }
            }
        }
        for (local, body) in by_fn {
            // Pass 1: source bindings.
            let mut tainted: Vec<(String, PuritySource, usize)> = Vec::new();
            for &li in &body {
                let line = &view.lines[li];
                let Some((ident, rhs)) = bound_ident(&line.code) else { continue };
                let source =
                    if rhs.contains(".opt(") && line.literals.iter().any(|(_, v)| v == "--stamp") {
                        Some(PuritySource::Stamp)
                    } else if ["Instant", "SystemTime", "UNIX_EPOCH"]
                        .iter()
                        .any(|w| rules::word_at(&rhs, w).is_some())
                    {
                        Some(PuritySource::WallClock)
                    } else if TELEMETRY_FNS.iter().any(|f| rhs.contains(f)) {
                        Some(PuritySource::Telemetry)
                    } else {
                        None
                    };
                if let Some(source) = source {
                    tainted.push((ident, source, li));
                }
            }
            if tainted.is_empty() {
                continue;
            }
            // Pass 2: one round of local propagation through lets.
            let mut derived: Vec<(String, PuritySource, usize)> = Vec::new();
            for &li in &body {
                let Some((ident, rhs)) = bound_ident(&view.lines[li].code) else { continue };
                if tainted.iter().any(|(t, _, _)| t == &ident) {
                    continue;
                }
                if let Some((t, src, origin)) =
                    tainted.iter().find(|(t, _, _)| rules::word_at(&rhs, t).is_some())
                {
                    let _ = t;
                    derived.push((ident, *src, *origin));
                }
            }
            tainted.extend(derived);
            // Pass 3: sinks.
            for &li in &body {
                let code = &view.lines[li].code;
                for sink in SINKS {
                    let Some(at) = code.find(sink) else { continue };
                    let open = at + sink.len() - 1;
                    let Some(args) = call_args(view.lines, li, open) else { continue };
                    let hit = tainted.iter().find(|(ident, _, _)| {
                        args.iter().any(|a| rules::word_at(&a.text, ident).is_some())
                    });
                    let Some((ident, src, origin_line)) = hit else { continue };
                    let qual = view.model.fns[local].qual.clone();
                    let sink_name = sink.trim_start_matches('.').trim_end_matches('(');
                    out.push(DataflowHit {
                        rule: RuleId::ImpureStoreRecord,
                        severity: Severity::Error,
                        file: fi,
                        line: li,
                        column: at,
                        message: format!(
                            "{} `{ident}` flows into `{sink_name}`: run ids hash the \
                             canonical record content, which must exclude ambient \
                             inputs — use with_stamp/with_telemetry, the annotation \
                             channels the hash ignores",
                            src.phrase(),
                        ),
                        chain: vec![
                            qual,
                            format!(
                                "{} `{ident}` ({}:{})",
                                src.phrase(),
                                view.file.path,
                                origin_line + 1
                            ),
                            format!("{sink_name}(..)"),
                        ],
                        source: Some((fi, *origin_line)),
                    });
                }
            }
        }
    }
}

/// Run every dataflow rule over the workspace. Findings come back in
/// deterministic (file, line, column, rule) order.
pub fn analyze(files: &[FileView<'_>]) -> Vec<DataflowHit> {
    let mut out = Vec::new();
    let sites = label_sites(files);
    check_label_reuse(files, &sites, &mut out);
    check_label_collision(files, &sites, &mut out);
    check_literal_seed(files, &mut out);
    check_store_purity(files, &mut out);
    out.sort_by_key(|a| (a.file, a.line, a.column, a.rule));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_matches_the_sim_implementation() {
        // Pinned values: eval_derive_seed must track idse_sim::rng exactly
        // (the sim crate has its own equivalents; the constants are the
        // published FNV-1a / SplitMix64 parameters).
        assert_eq!(fnv1a(""), 0xcbf29ce484222325);
        assert_eq!(fnv1a("a"), 0xaf63dc4c8601ec8c);
        assert_ne!(eval_derive_seed(0, "x"), eval_derive_seed(0, "y"));
        assert_ne!(eval_derive_seed(0, "x"), eval_derive_seed(1, "x"));
    }

    #[test]
    fn known_fnv_collision_pair_collides() {
        // Found by Pollard rho over FNV-1a-64; the seed-label-collision
        // rule exists because such pairs are findable in practice.
        let a = "L39218a36c129be09";
        let b = "Lb29619b0f43f11e9";
        assert_eq!(fnv1a(a), fnv1a(b));
        assert_eq!(eval_derive_seed(7, a), eval_derive_seed(7, b));
    }

    #[test]
    fn int_literals_classify() {
        assert!(is_int_literal("42"));
        assert!(is_int_literal("0xdead_beef"));
        assert!(is_int_literal("1_000u64"));
        assert!(!is_int_literal("master"));
        assert!(!is_int_literal("derive_seed(0, \"x\")"));
    }
}
