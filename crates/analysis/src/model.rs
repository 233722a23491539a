//! Phase-1 semantic model: a lightweight, per-file item table built on the
//! masked line view of [`crate::source`].
//!
//! The extractor is a brace-depth state machine over the code channel. It
//! tracks `mod`/`impl`/`trait` scopes, records every `fn` definition with
//! its module path and (for methods) `Self` type, and maps each line to
//! the innermost function that owns it. The dataflow phase walks function
//! bodies and names witnesses through that map.

use crate::rules;
use crate::source::Line;

/// One function (or method) definition in a file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Display-qualified name: `crate::module::[Type::]name`.
    pub qual: String,
    /// Bare function name (last segment).
    pub name: String,
    /// `Self` type name when defined inside an `impl`/`trait` block.
    pub self_ty: Option<String>,
    /// 0-based line of the definition header.
    pub line: usize,
}

/// Everything phase 1 learns about one file.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    /// Functions defined in the file, in definition order.
    pub fns: Vec<FnDef>,
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
    Fn(usize),
    /// Any other brace: a type declaration, a block, a `use` group.
    Block,
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    /// Brace depth at which the scope's `{` appeared.
    depth: i64,
}

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
    // though `impl` appears later in the header, and a type declaration
    // is a plain block whatever its fields name.
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
        // Placeholder index; the caller fills in the real FnDef.
        Some((_, "fn")) => ScopeKind::Fn(usize::MAX),
        Some((at, "mod")) => {
            ScopeKind::Mod(ident_after(stmt, at + 3).expect("classify_header only picks named mod"))
        }
        Some((at, "trait")) => ScopeKind::Trait(
            ident_after(stmt, at + 5).expect("classify_header only picks named trait"),
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

/// Build the semantic model of one file from its masked lines.
pub fn extract(path: &str, crate_name: &str, lines: &[Line]) -> FileModel {
    let file_module = module_path_of(path);
    let mut model = FileModel::default();
    let mut stack: Vec<Scope> = Vec::new();
    let mut depth: i64 = 0;
    let mut stmt = String::new();
    let mut stmt_line: Option<usize> = None;
    let mut line_fn: Vec<Option<usize>> = vec![None; lines.len()];

    for (li, line) in lines.iter().enumerate() {
        for c in line.code.chars() {
            match c {
                '{' => {
                    let mut kind_of = classify_header(&stmt);
                    if let ScopeKind::Fn(_) = kind_of {
                        let def_line = stmt_line.unwrap_or(li);
                        let at = word_pos(&stmt, "fn").unwrap_or(0);
                        let name = ident_after(&stmt, at + 2).unwrap_or_default();
                        let self_ty = stack
                            .iter()
                            .rev()
                            .find_map(|s| match &s.kind {
                                ScopeKind::Impl(t) => Some(t.clone()),
                                ScopeKind::Trait(t) => Some(Some(t.clone())),
                                _ => None,
                            })
                            .flatten();
                        let mut qual = crate_name.to_string();
                        let modules = stack.iter().filter_map(|s| match &s.kind {
                            ScopeKind::Mod(m) => Some(m),
                            _ => None,
                        });
                        for m in file_module.iter().chain(modules).chain(&self_ty) {
                            qual.push_str("::");
                            qual.push_str(m);
                        }
                        qual.push_str("::");
                        qual.push_str(&name);
                        kind_of = ScopeKind::Fn(model.fns.len());
                        model.fns.push(FnDef { qual, name, self_ty, line: def_line });
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
                }
            }
        }
        // The innermost fn active on (or opened during) this line owns it.
        line_fn[li] = stack.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn(local) => Some(local),
            _ => None,
        });
        if line_fn[li].is_none() && lines[li].code.contains('{') {
            // A one-line `fn f() { .. }` opens and closes within the line;
            // the freshest def whose header line is this line owns it.
            line_fn[li] = model.fns.iter().rposition(|f| f.line == li);
        }
    }

    model.line_owners = line_fn;
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source;

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
        let src = "use std::{fmt, io};\n\
                   pub fn top() { helper(); other::leaf(); }\n\
                   fn helper() {}\n\
                   struct W;\n\
                   impl W {\n    pub fn observe(&mut self) {\n        helper();\n    }\n}\n";
        let m = extract("crates/x/src/lib.rs", "idse-x", &source::mask(src));
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["top", "helper", "observe"]);
        assert_eq!(m.fns[2].self_ty.as_deref(), Some("W"));
        assert_eq!(m.fns[2].qual, "idse-x::W::observe");
        // Each call line is owned by the fn whose body holds it: top's
        // one-line body, and observe's `helper()` on its own line.
        assert_eq!(m.line_owners[1], Some(0));
        assert_eq!(m.line_owners[6], Some(2));
        assert_eq!(m.line_owners[0], None, "a use group opens no fn");
        assert_eq!(m.line_owners[8], None);
    }
}
