//! Phase-1 semantic model: a lightweight, per-file item table built on the
//! masked line view of [`crate::source`], assembled into a whole-workspace
//! call graph.
//!
//! The extractor is a brace-depth state machine over the code channel. It
//! tracks `mod`/`impl`/`trait`/`struct` scopes, records every `fn`
//! definition with its module path and (for methods) `Self` type, collects
//! `use` imports, and scans function bodies for *call sites* and *taint
//! seeds* (the hazard tokens of [`TaintLabel`]). Assembly resolves call
//! tokens to workspace definitions — through the file's imports,
//! `crate::`/`self::`/`super::` prefixes, underscore crate names, and
//! same-module/same-crate fallbacks — and filters every edge by the
//! workspace dependency direction so a call can never resolve into a crate
//! the caller does not depend on.
//!
//! Deliberate approximations, chosen to stay deterministic and honest:
//!
//! * method calls (`.observe(...)`) resolve only when the method name is
//!   defined exactly once across the workspace and is not a common std
//!   method name — an under-approximation that avoids false edges through
//!   `len`/`get`/`insert` lookalikes;
//! * unresolved paths (std, external crates) produce no edge: external
//!   hazards are caught where their *tokens* appear, as seeds;
//! * a struct field of a hazard type (say `buckets: HashMap<..>`) seeds
//!   every method of that type in the same crate — type-level taint, so
//!   constructors are not the only carriers.

use crate::rules::{self, FileKind, TaintLabel};
use crate::source::Line;
use std::collections::{BTreeMap, BTreeSet};

/// One function (or method) definition in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Display-qualified name: `crate::module::[Type::]name`.
    pub qual: String,
    /// Bare function name (last segment).
    pub name: String,
    /// `Self` type name when defined inside an `impl`/`trait` block.
    pub self_ty: Option<String>,
    /// Owning crate package name.
    pub crate_name: String,
    /// Module path within the crate (file module + inline `mod` scopes).
    pub module: Vec<String>,
    /// Index of the defining file in the analyzed file list.
    pub file: usize,
    /// 0-based line of the definition header.
    pub line: usize,
    /// File kind of the defining file.
    pub kind: FileKind,
    /// Whether the definition sits in a `#[cfg(test)]` region or test file.
    pub in_test: bool,
}

/// How a call site names its callee.
#[derive(Debug, Clone)]
pub enum CalleeRef {
    /// Free or associated call written as a path: `foo(..)`, `a::b::f(..)`.
    Path(Vec<String>),
    /// Method call: `recv.name(..)`.
    Method(String),
}

/// One call site inside a function body (caller is file-local until
/// assembly renumbers it).
#[derive(Debug, Clone)]
pub struct CallSite {
    /// File-local index of the calling function.
    pub caller: usize,
    /// The callee as written.
    pub callee: CalleeRef,
    /// 0-based line of the call token.
    pub line: usize,
    /// 0-based column of the call token.
    pub column: usize,
}

/// A taint seed found inside a function body.
#[derive(Debug, Clone)]
pub struct LocalSeed {
    /// File-local index of the owning function.
    pub fn_local: usize,
    /// Hazard class.
    pub label: TaintLabel,
    /// The token as it appears in source (path-expanded for display).
    pub token: String,
    /// 0-based line of the token.
    pub line: usize,
    /// 0-based column of the token.
    pub column: usize,
}

/// A taint seed found in a type declaration (struct/enum field of a hazard
/// type): taints every method of the type in the same crate.
#[derive(Debug, Clone)]
pub struct TypeSeed {
    /// The struct/enum name.
    pub type_name: String,
    /// Hazard class.
    pub label: TaintLabel,
    /// The token as it appears in source.
    pub token: String,
    /// 0-based line of the token.
    pub line: usize,
    /// 0-based column of the token.
    pub column: usize,
}

/// Everything phase 1 learns about one file.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    /// Functions defined in the file, in definition order.
    pub fns: Vec<FnDef>,
    /// Call sites, `caller` indexing into `fns`.
    pub calls: Vec<CallSite>,
    /// Function-body taint seeds.
    pub seeds: Vec<LocalSeed>,
    /// Type-declaration taint seeds.
    pub type_seeds: Vec<TypeSeed>,
    /// `use` imports: visible name → full path segments.
    pub imports: BTreeMap<String, Vec<String>>,
    /// Per-line owning function (index into `fns`): the innermost `fn`
    /// active on each line. The dataflow phase walks function bodies
    /// through this map.
    pub line_owners: Vec<Option<usize>>,
}

/// Module path of a file from its workspace-relative path: `src/lib.rs`
/// and `src/main.rs` are the crate root, `src/a/b.rs` is `a::b`,
/// `src/a/mod.rs` is `a`, `src/bin/x.rs` is `bin::x` (kept distinct from
/// the library namespace), and `tests/`/`benches/`/`examples/` files are
/// their own roots named after the tree and file stem.
pub fn module_path_of(path: &str) -> Vec<String> {
    let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
    let anchor = parts
        .iter()
        .rposition(|p| matches!(*p, "src" | "tests" | "benches" | "examples"))
        .map(|i| (parts[i], i));
    let (tree, rel): (&str, &[&str]) = match anchor {
        Some((tree, i)) => (tree, &parts[i + 1..]),
        None => ("src", &parts[parts.len().saturating_sub(1)..]),
    };
    let mut out: Vec<String> = Vec::new();
    if tree != "src" {
        out.push(tree.to_string());
    }
    for (i, part) in rel.iter().enumerate() {
        let last = i + 1 == rel.len();
        if last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if !(matches!(stem, "lib" | "main" | "mod") && tree == "src" && rel.len() == 1)
                && stem != "mod"
            {
                out.push(stem.to_string());
            }
        } else {
            out.push(part.to_string());
        }
    }
    out
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ScopeKind {
    Mod(String),
    Impl(Option<String>),
    Trait(String),
    TypeDecl(String),
    Fn(usize),
    Block,
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    /// Brace depth at which the scope's `{` appeared.
    depth: i64,
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "let", "fn", "move",
    "break", "continue", "where", "unsafe", "await", "yield", "dyn", "ref", "mut", "pub", "use",
    "mod", "impl", "trait", "struct", "enum", "union", "const", "static", "type", "crate", "self",
    "Self", "super",
];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// First word-boundary occurrence of `word` in `s` at or after `from`.
fn word_pos(s: &str, word: &str) -> Option<usize> {
    rules::word_at(s, word)
}

/// The identifier immediately following byte position `after` (skipping
/// whitespace), if any.
fn ident_after(s: &str, after: usize) -> Option<String> {
    let rest = s[after..].trim_start();
    let end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
    let ident = &rest[..end];
    (!ident.is_empty() && ident.chars().next().is_some_and(is_ident_start))
        .then(|| ident.to_string())
}

/// Classify the statement text preceding a `{` into a scope kind.
fn classify_header(stmt: &str) -> ScopeKind {
    // The earliest item keyword wins: `fn f(x: impl T)` is a fn even
    // though `impl` appears later in the header.
    let mut best: Option<(usize, &str)> = None;
    for kw in ["fn", "mod", "impl", "trait", "struct", "enum", "union"] {
        if let Some(at) = word_pos(stmt, kw) {
            let named = match kw {
                "impl" => true,
                _ => ident_after(stmt, at + kw.len()).is_some(),
            };
            if named && best.is_none_or(|(b, _)| at < b) {
                best = Some((at, kw));
            }
        }
    }
    match best {
        Some((at, "fn")) => {
            // Placeholder index; the caller fills in the real FnDef.
            let _ = at;
            ScopeKind::Fn(usize::MAX)
        }
        Some((at, "mod")) => {
            ScopeKind::Mod(ident_after(stmt, at + 3).expect("classify_header only picks named mod"))
        }
        Some((at, "trait")) => ScopeKind::Trait(
            ident_after(stmt, at + 5).expect("classify_header only picks named trait"),
        ),
        Some((at, kw @ ("struct" | "enum" | "union"))) => ScopeKind::TypeDecl(
            ident_after(stmt, at + kw.len()).expect("classify_header only picks named types"),
        ),
        Some((at, "impl")) => ScopeKind::Impl(impl_type_name(&stmt[at + 4..])),
        _ => ScopeKind::Block,
    }
}

/// Extract the `Self` type name from an `impl` header tail (everything
/// after the `impl` keyword): `<T> Trait for Type<T>` → `Type`.
fn impl_type_name(tail: &str) -> Option<String> {
    // Prefer the segment after the last top-level `for` (not `for<'a>`).
    let mut target = tail;
    let mut from = 0;
    let mut last_for: Option<usize> = None;
    while let Some(rel) = target[from..].find("for") {
        let at = from + rel;
        let before_ok =
            at == 0 || target[..at].chars().next_back().is_some_and(|c| !is_ident_char(c));
        let after = &target[at + 3..];
        let after_ok = after.chars().next().is_none_or(|c| !is_ident_char(c) && c != '<');
        if before_ok && after_ok {
            last_for = Some(at);
        }
        from = at + 3;
    }
    if let Some(at) = last_for {
        target = &target[at + 3..];
    } else {
        // Skip leading generics directly after `impl`.
        let t = target.trim_start();
        if let Some(rest) = t.strip_prefix('<') {
            let mut depth = 1i32;
            let mut cut = rest.len();
            for (i, c) in rest.char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            cut = i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            target = &rest[cut.min(rest.len())..];
        } else {
            target = t;
        }
    }
    let t = target.trim_start().trim_start_matches(['&', '(']).trim_start();
    let t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
    let end = t.find(|c: char| !is_ident_char(c) && c != ':').unwrap_or(t.len());
    let path = &t[..end];
    let name = path.rsplit("::").next().unwrap_or(path);
    (!name.is_empty() && name.chars().next().is_some_and(is_ident_start)).then(|| name.to_string())
}

/// Parse the body of a `use` statement (text between `use` and `;`) into
/// the per-file import map. Handles nested groups, `as` renames, and
/// `self` leaves; glob imports are skipped.
fn parse_use(body: &str, imports: &mut BTreeMap<String, Vec<String>>) {
    fn split_top_commas(s: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        let mut start = 0;
        for (i, c) in s.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                ',' if depth == 0 => {
                    out.push(&s[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        out.push(&s[start..]);
        out
    }
    fn walk(prefix: &[String], item: &str, imports: &mut BTreeMap<String, Vec<String>>) {
        let item = item.trim();
        if item.is_empty() || item == "*" {
            return;
        }
        if let Some(open) = item.find('{') {
            let head = item[..open].trim().trim_end_matches("::");
            let inner = item[open + 1..].trim_end().trim_end_matches('}');
            let mut prefix = prefix.to_vec();
            prefix.extend(head.split("::").filter(|s| !s.is_empty()).map(|s| s.trim().to_string()));
            for part in split_top_commas(inner) {
                walk(&prefix, part, imports);
            }
            return;
        }
        let (path_part, alias) = match item.split_once(" as ") {
            Some((p, a)) => (p.trim(), Some(a.trim().to_string())),
            None => (item, None),
        };
        let mut segs: Vec<String> = prefix.to_vec();
        segs.extend(path_part.split("::").map(|s| s.trim().to_string()).filter(|s| !s.is_empty()));
        if segs.last().is_some_and(|s| s == "self") {
            segs.pop();
        }
        if segs.last().is_some_and(|s| s == "*") {
            return;
        }
        let Some(last) = segs.last().cloned() else { return };
        let name = alias.unwrap_or(last);
        imports.insert(name, segs);
    }
    for part in split_top_commas(body) {
        walk(&[], part, imports);
    }
}

/// Strip a `pub`/`pub(...)` prefix and detect a `use` statement; returns
/// the text after the `use` keyword.
fn use_stmt(stmt: &str) -> Option<&str> {
    let mut t = stmt.trim_start();
    if let Some(rest) = t.strip_prefix("pub") {
        let rest = rest.trim_start();
        t = rest
            .strip_prefix('(')
            .map_or(rest, |r| r.split_once(')').map_or(r, |(_, tail)| tail.trim_start()));
    }
    let rest = t.strip_prefix("use")?;
    rest.starts_with([' ', '\t']).then(|| rest.trim_start())
}

/// Scan one line of code for call tokens; returns `(column, callee)`
/// pairs in order of appearance. Columns are char offsets.
fn scan_calls(code: &str) -> Vec<(usize, CalleeRef)> {
    let chars: Vec<char> = code.chars().collect();
    let n = chars.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < n {
        if !is_ident_start(chars[i]) || (i > 0 && is_ident_char(chars[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        let mut segs: Vec<String> = Vec::new();
        loop {
            let seg_start = i;
            while i < n && is_ident_char(chars[i]) {
                i += 1;
            }
            segs.push(chars[seg_start..i].iter().collect());
            if i + 2 < n && chars[i] == ':' && chars[i + 1] == ':' && is_ident_start(chars[i + 2]) {
                i += 2;
            } else {
                break;
            }
        }
        let mut j = i;
        // Turbofish: `::<...>` between the path and the call parens.
        if j + 2 < n && chars[j] == ':' && chars[j + 1] == ':' && chars[j + 2] == '<' {
            let mut depth = 0i32;
            let mut k = j + 2;
            while k < n {
                match chars[k] {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            if k < n {
                j = k + 1;
            }
        }
        if j >= n || chars[j] != '(' {
            i = i.max(j);
            continue;
        }
        // Macro invocation (`name!(..)`) is not a call token.
        if i < n && chars[i] == '!' {
            i += 1;
            continue;
        }
        // Context of the char before the path.
        let mut p = start;
        while p > 0 && chars[p - 1] == ' ' {
            p -= 1;
        }
        let prev = (p > 0).then(|| chars[p - 1]);
        let is_range = p >= 2 && chars[p - 1] == '.' && chars[p - 2] == '.';
        if prev == Some('.') && !is_range {
            let name = segs.last().cloned().unwrap_or_default();
            out.push((start, CalleeRef::Method(name)));
            i = j;
            continue;
        }
        // Skip the defined name in `fn name(...)`.
        let head: String = chars[..start].iter().collect();
        let head = head.trim_end();
        if head.ends_with("fn")
            && head[..head.len() - 2].chars().next_back().is_none_or(|c| !is_ident_char(c))
        {
            i = j;
            continue;
        }
        if segs.len() == 1 {
            let only = segs[0].as_str();
            if KEYWORDS.contains(&only) || only.chars().next().is_some_and(|c| c.is_uppercase()) {
                i = j;
                continue;
            }
        }
        out.push((start, CalleeRef::Path(segs)));
        i = j;
    }
    out
}

/// Expand a matched token to the full path-ish text around it, for chain
/// display: matching `Instant` in `std::time::Instant::now()` yields
/// `std::time::Instant::now`.
fn expand_token(code: &str, at: usize, len: usize) -> String {
    let bytes = code.as_bytes();
    let is_pathish = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b':';
    let mut lo = at;
    while lo > 0 && is_pathish(bytes[lo - 1]) {
        lo -= 1;
    }
    let mut hi = at + len;
    while hi < bytes.len() && is_pathish(bytes[hi]) {
        hi += 1;
    }
    code[lo..hi].trim_matches(':').to_string()
}

/// Scan one line for taint seeds: `(label, display token, column)`.
fn scan_seeds(
    crate_name: &str,
    code: &str,
    in_test_code: bool,
) -> Vec<(TaintLabel, String, usize)> {
    let mut out = Vec::new();
    for label in TaintLabel::ALL {
        if !label.seeds_in(crate_name, in_test_code) {
            continue;
        }
        let mut best: Option<(usize, String)> = None;
        for w in label.seed_words() {
            if let Some(at) = rules::word_at(code, w) {
                let token = match label {
                    TaintLabel::UnorderedIter | TaintLabel::WallClock | TaintLabel::Entropy => {
                        expand_token(code, at, w.len())
                    }
                    _ => (*w).to_string(),
                };
                if best.as_ref().is_none_or(|(b, _)| at < *b) {
                    best = Some((at, token));
                }
            }
        }
        for s in label.seed_substrings() {
            if let Some(at) = code.find(s) {
                if best.as_ref().is_none_or(|(b, _)| at < *b) {
                    best = Some((at, (*s).to_string()));
                }
            }
        }
        if let Some((at, token)) = best {
            out.push((label, token, at));
        }
    }
    out
}

/// Build the semantic model of one file from its masked lines.
pub fn extract(
    path: &str,
    crate_name: &str,
    kind: FileKind,
    file_idx: usize,
    lines: &[Line],
    test_flags: &[bool],
) -> FileModel {
    let file_module = module_path_of(path);
    let mut model = FileModel::default();
    let mut stack: Vec<Scope> = Vec::new();
    let mut depth: i64 = 0;
    let mut stmt = String::new();
    let mut stmt_line: Option<usize> = None;
    let mut in_use = false;
    // Innermost fn / type-decl owning each line (for call/seed scanning).
    let mut line_fn: Vec<Option<usize>> = vec![None; lines.len()];
    let mut line_ty: Vec<Option<String>> = vec![None; lines.len()];

    for (li, line) in lines.iter().enumerate() {
        for c in line.code.chars() {
            if in_use {
                if c == ';' {
                    if let Some(body) = use_stmt(&stmt) {
                        parse_use(body, &mut model.imports);
                    }
                    stmt.clear();
                    stmt_line = None;
                    in_use = false;
                } else {
                    stmt.push(c);
                }
                continue;
            }
            match c {
                '{' => {
                    let mut kind_of = classify_header(&stmt);
                    if let ScopeKind::Fn(_) = kind_of {
                        let def_line = stmt_line.unwrap_or(li);
                        let at = word_pos(&stmt, "fn").unwrap_or(0);
                        let name = ident_after(&stmt, at + 2).unwrap_or_default();
                        let mut module = file_module.clone();
                        module.extend(stack.iter().filter_map(|s| match &s.kind {
                            ScopeKind::Mod(m) => Some(m.clone()),
                            _ => None,
                        }));
                        let self_ty = stack.iter().rev().find_map(|s| match &s.kind {
                            ScopeKind::Impl(t) => Some(t.clone()),
                            ScopeKind::Trait(t) => Some(Some(t.clone())),
                            _ => None,
                        });
                        let self_ty = self_ty.flatten();
                        let mut qual = String::new();
                        qual.push_str(crate_name);
                        for m in &module {
                            qual.push_str("::");
                            qual.push_str(m);
                        }
                        if let Some(t) = &self_ty {
                            qual.push_str("::");
                            qual.push_str(t);
                        }
                        qual.push_str("::");
                        qual.push_str(&name);
                        let local = model.fns.len();
                        model.fns.push(FnDef {
                            qual,
                            name,
                            self_ty,
                            crate_name: crate_name.to_string(),
                            module,
                            file: file_idx,
                            line: def_line,
                            kind,
                            in_test: test_flags.get(def_line).copied().unwrap_or(false)
                                || kind.is_test(),
                        });
                        kind_of = ScopeKind::Fn(local);
                    }
                    stack.push(Scope { kind: kind_of, depth });
                    depth += 1;
                    stmt.clear();
                    stmt_line = None;
                }
                '}' => {
                    depth -= 1;
                    while stack.last().is_some_and(|s| s.depth >= depth) {
                        stack.pop();
                    }
                    stmt.clear();
                    stmt_line = None;
                }
                ';' => {
                    stmt.clear();
                    stmt_line = None;
                }
                _ => {
                    if !c.is_whitespace() && stmt_line.is_none() {
                        stmt_line = Some(li);
                    }
                    stmt.push(c);
                    if !in_use && use_stmt(&stmt).is_some() {
                        in_use = true;
                    }
                }
            }
        }
        // Record per-line owners: the innermost fn/type active on (or
        // opened during) this line.
        for s in stack.iter().rev() {
            match &s.kind {
                ScopeKind::Fn(local) => {
                    line_fn[li] = Some(*local);
                    break;
                }
                ScopeKind::TypeDecl(t) => {
                    line_ty[li] = Some(t.clone());
                    break;
                }
                _ => {}
            }
        }
        if line_fn[li].is_none() {
            // A one-line `fn f() { .. }` opens and closes within the line;
            // the freshest def whose header line is this line owns it.
            if let Some((local, _)) = model.fns.iter().enumerate().rev().find(|(_, f)| f.line == li)
            {
                if lines[li].code.contains('{') {
                    line_fn[li] = Some(local);
                }
            }
        }
    }

    // Second pass: calls and seeds per line, attributed to owners.
    for (li, line) in lines.iter().enumerate() {
        let code = &line.code;
        if code.trim().is_empty() {
            continue;
        }
        let in_test_code = test_flags.get(li).copied().unwrap_or(false) || kind.is_test();
        if let Some(owner) = line_fn[li] {
            for (col, callee) in scan_calls(code) {
                model.calls.push(CallSite { caller: owner, callee, line: li, column: col });
            }
            for (label, token, col) in scan_seeds(crate_name, code, in_test_code) {
                model.seeds.push(LocalSeed {
                    fn_local: owner,
                    label,
                    token,
                    line: li,
                    column: col,
                });
            }
        } else if let Some(ty) = &line_ty[li] {
            for (label, token, col) in scan_seeds(crate_name, code, in_test_code) {
                model.type_seeds.push(TypeSeed {
                    type_name: ty.clone(),
                    label,
                    token,
                    line: li,
                    column: col,
                });
            }
        }
    }

    model.line_owners = line_fn;
    model
}

/// A resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Global index of the callee.
    pub callee: usize,
    /// 0-based call-site line in the caller's file.
    pub line: usize,
    /// 0-based call-site column.
    pub column: usize,
}

/// A taint seed attached to a global function.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeedInfo {
    /// Hazard class.
    pub label: TaintLabel,
    /// Display token.
    pub token: String,
    /// File index of the token (the *type's* file for type seeds).
    pub file: usize,
    /// 0-based line of the token.
    pub line: usize,
    /// 0-based column of the token.
    pub column: usize,
}

/// The assembled whole-workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All function definitions, globally numbered in file order.
    pub fns: Vec<FnDef>,
    /// Outgoing edges per function, sorted and deduplicated.
    pub edges: Vec<Vec<Edge>>,
    /// Taint seeds per function, sorted.
    pub seeds: Vec<Vec<SeedInfo>>,
}

/// Method names too generic to resolve by uniqueness: resolving these by
/// name would wire std-container calls to coincidentally-named workspace
/// methods.
const METHOD_DENYLIST: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_ref",
    "as_str",
    "chain",
    "chars",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "default",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "flat_map",
    "flatten",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "map",
    "map_err",
    "max",
    "min",
    "new",
    "next",
    "ok_or",
    "or_else",
    "parse",
    "pop",
    "position",
    "push",
    "push_str",
    "read",
    "remove",
    "retain",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "starts_with",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "write",
    "zip",
];

/// Per-file metadata assembly needs alongside the [`FileModel`].
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Workspace-relative display path.
    pub path: String,
    /// Owning crate package name.
    pub crate_name: String,
    /// File kind.
    pub kind: FileKind,
}

/// Assemble per-file models into the workspace call graph.
///
/// `deps` maps crate package names to their *direct* workspace
/// dependencies; the transitive closure is computed here and every edge
/// must respect it (a crate absent from the map is unconstrained, which
/// is what fixture corpora and the root `workspace` pseudo-crate use).
pub fn assemble(
    metas: &[FileMeta],
    models: &[FileModel],
    deps: &BTreeMap<String, BTreeSet<String>>,
) -> Graph {
    let mut graph = Graph::default();
    let mut base = vec![0usize; models.len()];
    for (fi, model) in models.iter().enumerate() {
        base[fi] = graph.fns.len();
        graph.fns.extend(model.fns.iter().cloned());
    }
    let nfns = graph.fns.len();
    graph.edges = vec![Vec::new(); nfns];
    graph.seeds = vec![Vec::new(); nfns];

    // Transitive dependency closure.
    let closure = dep_closure(deps);

    // Indexes.
    let mut free_by_crate_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut crate_names: BTreeSet<&str> = BTreeSet::new();
    for (id, f) in graph.fns.iter().enumerate() {
        crate_names.insert(f.crate_name.as_str());
        by_crate.entry(f.crate_name.as_str()).or_default().push(id);
        if f.self_ty.is_none() {
            free_by_crate_name
                .entry((f.crate_name.as_str(), f.name.as_str()))
                .or_default()
                .push(id);
        } else {
            methods_by_name.entry(f.name.as_str()).or_default().push(id);
        }
    }
    let underscore: BTreeMap<String, &str> =
        crate_names.iter().map(|c| (c.replace('-', "_"), *c)).collect();

    let edge_allowed = |caller: &str, callee: &str| -> bool {
        caller == callee
            || match closure.get(caller) {
                Some(set) => set.contains(callee),
                None => true,
            }
    };

    // Resolve one written path from the context of `caller`.
    let resolve_path =
        |caller: &FnDef, imports: &BTreeMap<String, Vec<String>>, segs: &[String]| -> Vec<usize> {
            let mut segs: Vec<String> = segs.to_vec();
            // Import expansion (bounded: an import path can itself start with
            // an aliased name only through re-exports, which one extra round
            // covers).
            for _ in 0..2 {
                let Some(first) = segs.first() else { return Vec::new() };
                let Some(full) = imports.get(first) else { break };
                if full.first() == Some(first) && full.len() == 1 {
                    break;
                }
                let mut expanded = full.clone();
                expanded.extend(segs.into_iter().skip(1));
                segs = expanded;
            }
            let Some(first) = segs.first().cloned() else { return Vec::new() };
            if segs.len() == 1 {
                // Bare name: same module first, then unique within the crate.
                let name = first.as_str();
                if let Some(ids) = free_by_crate_name.get(&(caller.crate_name.as_str(), name)) {
                    let same_module: Vec<usize> = ids
                        .iter()
                        .copied()
                        .filter(|&id| graph.fns[id].module == caller.module)
                        .collect();
                    if !same_module.is_empty() {
                        return same_module;
                    }
                    return ids.clone();
                }
                return Vec::new();
            }
            let (crate_name, rel): (&str, Vec<String>) = match first.as_str() {
                "crate" => (caller.crate_name.as_str(), segs[1..].to_vec()),
                "self" => {
                    let mut rel = caller.module.clone();
                    rel.extend(segs[1..].iter().cloned());
                    (caller.crate_name.as_str(), rel)
                }
                "super" => {
                    let mut module = caller.module.clone();
                    let mut rest = &segs[1..];
                    module.pop();
                    while rest.first().is_some_and(|s| s == "super") {
                        module.pop();
                        rest = &rest[1..];
                    }
                    let mut rel = module;
                    rel.extend(rest.iter().cloned());
                    (caller.crate_name.as_str(), rel)
                }
                "std" | "core" | "alloc" => return Vec::new(),
                other => match underscore.get(other) {
                    Some(c) => (c, segs[1..].to_vec()),
                    None => (caller.crate_name.as_str(), segs.clone()),
                },
            };
            if rel.is_empty() {
                return Vec::new();
            }
            let suffix = format!("::{}", rel.join("::"));
            let exact = format!("{crate_name}{suffix}");
            let Some(ids) = by_crate.get(crate_name) else { return Vec::new() };
            let exact_hits: Vec<usize> =
                ids.iter().copied().filter(|&id| graph.fns[id].qual == exact).collect();
            if !exact_hits.is_empty() {
                return exact_hits;
            }
            ids.iter().copied().filter(|&id| graph.fns[id].qual.ends_with(&suffix)).collect()
        };

    for (fi, model) in models.iter().enumerate() {
        for call in &model.calls {
            let caller = base[fi] + call.caller;
            let caller_def = graph.fns[caller].clone();
            let candidates: Vec<usize> = match &call.callee {
                CalleeRef::Path(segs) => resolve_path(&caller_def, &model.imports, segs),
                CalleeRef::Method(name) => {
                    if METHOD_DENYLIST.contains(&name.as_str()) {
                        Vec::new()
                    } else {
                        match methods_by_name.get(name.as_str()) {
                            Some(ids) if ids.len() == 1 => ids.clone(),
                            _ => Vec::new(),
                        }
                    }
                }
            };
            for callee in candidates {
                if edge_allowed(&caller_def.crate_name, &graph.fns[callee].crate_name) {
                    graph.edges[caller].push(Edge { callee, line: call.line, column: call.column });
                }
            }
        }
        for seed in &model.seeds {
            graph.seeds[base[fi] + seed.fn_local].push(SeedInfo {
                label: seed.label,
                token: seed.token.clone(),
                file: fi,
                line: seed.line,
                column: seed.column,
            });
        }
        for ts in &model.type_seeds {
            let crate_name = metas[fi].crate_name.as_str();
            for (id, f) in graph.fns.iter().enumerate() {
                if f.crate_name == crate_name && f.self_ty.as_deref() == Some(&ts.type_name) {
                    graph.seeds[id].push(SeedInfo {
                        label: ts.label,
                        token: ts.token.clone(),
                        file: fi,
                        line: ts.line,
                        column: ts.column,
                    });
                }
            }
        }
    }

    for edges in &mut graph.edges {
        edges.sort();
        edges.dedup();
    }
    for seeds in &mut graph.seeds {
        seeds.sort();
        seeds.dedup();
    }
    graph
}

/// Transitive closure of the direct-dependency map.
fn dep_closure(deps: &BTreeMap<String, BTreeSet<String>>) -> BTreeMap<String, BTreeSet<String>> {
    let mut closure = deps.clone();
    loop {
        let mut grew = false;
        let snapshot = closure.clone();
        for (_, set) in closure.iter_mut() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for dep in set.iter() {
                if let Some(trans) = snapshot.get(dep) {
                    for t in trans {
                        if !set.contains(t) {
                            add.insert(t.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                set.extend(add);
                grew = true;
            }
        }
        if !grew {
            return closure;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source;

    fn model_of(path: &str, crate_name: &str, text: &str) -> FileModel {
        let lines = source::mask(text);
        let flags = source::test_regions(&lines);
        extract(path, crate_name, FileKind::Library, 0, &lines, &flags)
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_path_of("crates/sim/src/lib.rs"), Vec::<String>::new());
        assert_eq!(module_path_of("crates/ids/src/engine/stateful.rs"), vec!["engine", "stateful"]);
        assert_eq!(module_path_of("crates/ids/src/engine/mod.rs"), vec!["engine"]);
        assert_eq!(module_path_of("crates/bench/src/bin/lint.rs"), vec!["bin", "lint"]);
        assert_eq!(module_path_of("crates/sim/tests/determinism.rs"), vec!["tests", "determinism"]);
    }

    #[test]
    fn extracts_fns_methods_and_calls() {
        let src = "pub fn top() { helper(); other::leaf(); }\n\
                   fn helper() {}\n\
                   struct W;\n\
                   impl W {\n    pub fn observe(&mut self) { helper(); }\n}\n";
        let m = model_of("crates/x/src/lib.rs", "idse-x", src);
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["top", "helper", "observe"]);
        assert_eq!(m.fns[2].self_ty.as_deref(), Some("W"));
        assert_eq!(m.fns[2].qual, "idse-x::W::observe");
        // top calls helper + other::leaf; observe calls helper.
        assert_eq!(m.calls.len(), 3);
    }

    #[test]
    fn use_imports_parse_groups_and_renames() {
        let src = "use idse_sim::stats::{Summary, mean as avg};\nuse crate::util::now_ms;\n\
                   fn f() {}\n";
        let m = model_of("crates/x/src/lib.rs", "idse-x", src);
        assert_eq!(m.imports["Summary"], vec!["idse_sim", "stats", "Summary"]);
        assert_eq!(m.imports["avg"], vec!["idse_sim", "stats", "mean"]);
        assert_eq!(m.imports["now_ms"], vec!["crate", "util", "now_ms"]);
    }

    #[test]
    fn seeds_found_in_fn_bodies_and_type_decls() {
        let src = "pub fn now() -> u64 { std::time::Instant::now(); 0 }\n\
                   struct T {\n    map: std::collections::HashMap<u32, u32>,\n}\n\
                   impl T {\n    fn get_map(&self) -> usize { 1 }\n}\n";
        let m = model_of("crates/x/src/lib.rs", "idse-x", src);
        assert_eq!(m.seeds.len(), 1);
        assert_eq!(m.seeds[0].label, TaintLabel::WallClock);
        assert_eq!(m.seeds[0].token, "std::time::Instant::now");
        assert_eq!(m.type_seeds.len(), 1);
        assert_eq!(m.type_seeds[0].type_name, "T");
        assert_eq!(m.type_seeds[0].label, TaintLabel::UnorderedIter);
    }

    #[test]
    fn test_regions_produce_no_seeds() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f() { let x = std::time::Instant::now(); }\n}\n";
        let m = model_of("crates/x/src/lib.rs", "idse-x", src);
        assert!(m.seeds.is_empty(), "{:?}", m.seeds);
        assert!(m.fns[0].in_test);
    }

    #[test]
    fn assemble_resolves_cross_crate_imports() {
        let metas = vec![
            FileMeta {
                path: "crates/a/src/lib.rs".into(),
                crate_name: "idse-a".into(),
                kind: FileKind::Library,
            },
            FileMeta {
                path: "crates/b/src/util.rs".into(),
                crate_name: "idse-b".into(),
                kind: FileKind::Library,
            },
        ];
        let lines_a = source::mask("use idse_b::util::leaf;\npub fn top() { leaf(); }\n");
        let flags_a = source::test_regions(&lines_a);
        let a = extract("crates/a/src/lib.rs", "idse-a", FileKind::Library, 0, &lines_a, &flags_a);
        let lines_b = source::mask("pub fn leaf() {}\n");
        let flags_b = source::test_regions(&lines_b);
        let b = extract("crates/b/src/util.rs", "idse-b", FileKind::Library, 1, &lines_b, &flags_b);
        let graph = assemble(&metas, &[a, b], &BTreeMap::new());
        assert_eq!(graph.fns.len(), 2);
        assert_eq!(graph.edges[0], vec![Edge { callee: 1, line: 1, column: 15 }]);
    }

    #[test]
    fn dependency_direction_filters_edges() {
        let lines_a = source::mask("use idse_b::leaf;\npub fn top() { leaf(); }\n");
        let flags_a = source::test_regions(&lines_a);
        let a = extract("crates/a/src/lib.rs", "idse-a", FileKind::Library, 0, &lines_a, &flags_a);
        let lines_b = source::mask("pub fn leaf() {}\n");
        let flags_b = source::test_regions(&lines_b);
        let b = extract("crates/b/src/lib.rs", "idse-b", FileKind::Library, 1, &lines_b, &flags_b);
        let metas = vec![
            FileMeta {
                path: "crates/a/src/lib.rs".into(),
                crate_name: "idse-a".into(),
                kind: FileKind::Library,
            },
            FileMeta {
                path: "crates/b/src/lib.rs".into(),
                crate_name: "idse-b".into(),
                kind: FileKind::Library,
            },
        ];
        // idse-a declares no dependency on idse-b: the edge is dropped.
        let mut deps = BTreeMap::new();
        deps.insert("idse-a".to_string(), BTreeSet::new());
        deps.insert("idse-b".to_string(), BTreeSet::new());
        let graph = assemble(&metas, &[a.clone(), b.clone()], &deps);
        assert!(graph.edges[0].is_empty());
        // With the dependency declared, the edge resolves.
        let mut deps = BTreeMap::new();
        deps.insert("idse-a".to_string(), ["idse-b".to_string()].into_iter().collect());
        let graph = assemble(&metas, &[a, b], &deps);
        assert_eq!(graph.edges[0].len(), 1);
    }
}
