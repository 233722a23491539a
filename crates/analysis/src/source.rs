//! Line-level source model: a small lexer that separates *code* from
//! *strings* and *comments*, plus `#[cfg(test)]` region tracking and
//! `// idse-lint: allow(...)` directive parsing.
//!
//! The rule engine never looks at raw file text. It looks at the masked
//! `code` view (string and char literal contents blanked, comments
//! stripped) so a rule token appearing inside a string — say, the lint's
//! own rule table — can never fire, and at the `comment` view only to
//! find allow directives. This is what makes a line-level analyzer
//! honest: the classic failure mode of grep-based lint is matching
//! inside literals.

/// One physical source line, split into its lexical channels.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code with string/char-literal contents masked to spaces and
    /// comments removed. Delimiting quotes are kept so token boundaries
    /// survive masking.
    pub code: String,
    /// Concatenated text of `//` line comments on this line (without the
    /// leading slashes). Block-comment text is dropped: allow directives
    /// are line comments by definition.
    pub comment: String,
    /// String literals that open *and* close on this line, as
    /// `(column, content)` where `column` is the char offset of the
    /// opening quote in the masked `code` channel and `content` is the
    /// literal text as written (escape sequences are not decoded).
    /// Multi-line literals are not recorded: the seed-label rules only
    /// consume constant labels, which are single-line by convention.
    pub literals: Vec<(usize, String)>,
}

enum LexState {
    Code,
    LineComment,
    /// `///` or `//!`: ends at newline like a line comment, but its text
    /// is discarded — documentation is not a directive channel.
    DocComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    CharLit,
}

fn is_raw_str_start(chars: &[char], i: usize) -> Option<u32> {
    // `r"`, `r#"`, `r##"`... (caller has already seen `r` or `br` at `i`).
    let mut j = i + 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(hashes)
}

/// Lex `text` into per-line code/comment channels.
pub fn mask(text: &str) -> Vec<Line> {
    let chars: Vec<char> = text.chars().collect();
    let mut lines: Vec<Line> = vec![Line::default()];
    let mut state = LexState::Code;
    let mut i = 0usize;
    // In-flight string literal: (line index, opening-quote column,
    // content so far). Dropped at close if the literal spanned lines.
    let mut lit: Option<(usize, usize, String)> = None;

    macro_rules! cur {
        () => {
            lines.last_mut().expect("lines starts non-empty and only grows")
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(state, LexState::LineComment | LexState::DocComment) {
                state = LexState::Code;
            }
            lines.push(Line::default());
            i += 1;
            continue;
        }
        match state {
            LexState::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    // Doc comments (`///`, `//!`) are documentation, not a
                    // channel for directives: drop their text so an allow
                    // example in rustdoc can never act as a real allow.
                    let doc = matches!(chars.get(i + 2), Some('/') | Some('!'));
                    state = if doc { LexState::DocComment } else { LexState::LineComment };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = LexState::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    lit = Some((lines.len() - 1, cur!().code.chars().count(), String::new()));
                    cur!().code.push('"');
                    state = LexState::Str;
                    i += 1;
                } else if c == 'r'
                    && !prev_is_ident(&lines, c)
                    && is_raw_str_start(&chars, i).is_some()
                {
                    let hashes = is_raw_str_start(&chars, i).unwrap_or(0);
                    lit = Some((lines.len() - 1, cur!().code.chars().count(), String::new()));
                    cur!().code.push('"');
                    state = LexState::RawStr(hashes);
                    i += 2 + hashes as usize; // r, hashes, opening quote
                } else if c == 'b' && next == Some('"') {
                    lit = Some((lines.len() - 1, cur!().code.chars().count(), String::new()));
                    cur!().code.push('"');
                    state = LexState::Str;
                    i += 2;
                } else if c == 'b' && next == Some('r') && is_raw_str_start(&chars, i + 1).is_some()
                {
                    let hashes = is_raw_str_start(&chars, i + 1).unwrap_or(0);
                    lit = Some((lines.len() - 1, cur!().code.chars().count(), String::new()));
                    cur!().code.push('"');
                    state = LexState::RawStr(hashes);
                    i += 3 + hashes as usize;
                } else if c == 'b' && next == Some('\'') {
                    cur!().code.push('\'');
                    state = LexState::CharLit;
                    i += 2;
                } else if c == '\'' {
                    // Char literal vs lifetime: a char literal is either an
                    // escape (`'\n'`) or exactly one char followed by `'`.
                    if next == Some('\\') || (chars.get(i + 2) == Some(&'\'') && next != Some('\''))
                    {
                        cur!().code.push('\'');
                        state = LexState::CharLit;
                        i += 1;
                    } else {
                        cur!().code.push('\'');
                        i += 1;
                    }
                } else {
                    cur!().code.push(c);
                    i += 1;
                }
            }
            LexState::LineComment => {
                cur!().comment.push(c);
                i += 1;
            }
            LexState::DocComment => {
                i += 1;
            }
            LexState::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = LexState::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state =
                        if depth == 1 { LexState::Code } else { LexState::BlockComment(depth - 1) };
                    i += 2;
                } else {
                    i += 1;
                }
            }
            LexState::Str => {
                if c == '\\' {
                    cur!().code.push(' ');
                    if let Some((_, _, buf)) = lit.as_mut() {
                        buf.push('\\');
                    }
                    // Skip the escaped char unless it's the newline of a
                    // line continuation (newlines must reach the top-level
                    // handler to keep line numbers honest).
                    if chars.get(i + 1).is_some_and(|&e| e != '\n') {
                        if let Some((_, _, buf)) = lit.as_mut() {
                            buf.push(chars[i + 1]);
                        }
                        cur!().code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    if let Some((ln, col, content)) = lit.take() {
                        if ln + 1 == lines.len() {
                            cur!().literals.push((col, content));
                        }
                    }
                    cur!().code.push('"');
                    state = LexState::Code;
                    i += 1;
                } else {
                    if let Some((_, _, buf)) = lit.as_mut() {
                        buf.push(c);
                    }
                    cur!().code.push(' ');
                    i += 1;
                }
            }
            LexState::RawStr(hashes) => {
                if c == '"' {
                    let closes = (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'));
                    if closes {
                        if let Some((ln, col, content)) = lit.take() {
                            if ln + 1 == lines.len() {
                                cur!().literals.push((col, content));
                            }
                        }
                        cur!().code.push('"');
                        state = LexState::Code;
                        i += 1 + hashes as usize;
                    } else {
                        if let Some((_, _, buf)) = lit.as_mut() {
                            buf.push(c);
                        }
                        cur!().code.push(' ');
                        i += 1;
                    }
                } else {
                    if let Some((_, _, buf)) = lit.as_mut() {
                        buf.push(c);
                    }
                    cur!().code.push(' ');
                    i += 1;
                }
            }
            LexState::CharLit => {
                if c == '\\' {
                    cur!().code.push(' ');
                    if chars.get(i + 1).is_some_and(|&e| e != '\n') {
                        cur!().code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '\'' {
                    cur!().code.push('\'');
                    state = LexState::Code;
                    i += 1;
                } else {
                    cur!().code.push(' ');
                    i += 1;
                }
            }
        }
    }
    lines
}

/// Whether the char before the current code position is identifier-like
/// (so `attr` in `attr"..."` is not mistaken for a raw-string prefix —
/// relevant for identifiers ending in `r` like `var` followed by `"`,
/// which cannot happen in valid Rust but keeps the lexer conservative).
fn prev_is_ident(lines: &[Line], _c: char) -> bool {
    lines
        .last()
        .and_then(|l| l.code.chars().last())
        .is_some_and(|p| p.is_alphanumeric() || p == '_')
}

fn brace_delta(code: &str) -> i64 {
    let mut d = 0i64;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

fn is_cfg_test_attr(code: &str) -> bool {
    code.contains("#[cfg(test")
        || code.contains("#[cfg(all(test")
        || code.contains("#[cfg(any(test")
        || code.contains("#[test]")
}

/// Last line (0-based) of the item, statement, or match arm whose
/// attributes start at line `start`: through its closing brace when it
/// opens one, otherwise through its terminating `;`. (A brace-less match
/// arm runs on to the next `;` — an over-approximation.)
fn item_end(lines: &[Line], start: usize) -> usize {
    let mut depth: i64 = 0;
    let mut opened = false;
    for (li, line) in lines.iter().enumerate().skip(start) {
        let code = &line.code;
        opened |= code.contains('{');
        depth += brace_delta(code);
        let t = code.trim();
        let attr_only = !t.is_empty() && t.starts_with("#[") && t.ends_with(']');
        let done = if opened { depth <= 0 } else { !attr_only && code.contains(';') && depth <= 0 };
        if done {
            return li;
        }
    }
    lines.len().saturating_sub(1)
}

/// Per-line flags: `true` when the line belongs to a `#[cfg(test)]`
/// (or `#[test]`) item — the attribute, the item header, and everything
/// through the item's closing brace (or terminating `;`).
pub fn test_regions(lines: &[Line]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut idx = 0usize;
    while idx < lines.len() {
        if is_cfg_test_attr(&lines[idx].code) {
            let end = item_end(lines, idx);
            flags[idx..=end].fill(true);
            idx = end + 1;
        } else {
            idx += 1;
        }
    }
    flags
}

/// A parsed `// idse-lint: allow(rule, reason = "...")` directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// The rule name as written (validated by the engine).
    pub rule_name: String,
    /// The justification. `None` or empty is an `invalid-allow` finding.
    pub reason: Option<String>,
    /// Line (0-based) the directive was written on.
    pub on_line: usize,
    /// Line (0-based) the directive suppresses findings on.
    pub target_line: usize,
}

/// Extract allow directives from the lexed lines. A trailing directive
/// (sharing its line with code) targets its own line; a directive on a
/// comment-only line targets the next line.
pub fn allow_directives(lines: &[Line]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(parsed) = parse_allow_comment(&line.comment) else {
            continue;
        };
        let target_line = if line.code.trim().is_empty() {
            (i + 1).min(lines.len().saturating_sub(1))
        } else {
            i
        };
        out.push(AllowDirective { rule_name: parsed.0, reason: parsed.1, on_line: i, target_line });
    }
    out
}

fn parse_allow_comment(comment: &str) -> Option<(String, Option<String>)> {
    let after_tag = comment.split("idse-lint:").nth(1)?;
    let body = after_tag.trim_start().strip_prefix("allow(")?;
    let close = body.find(')')?;
    let inner = &body[..close];
    let mut parts = inner.splitn(2, ',');
    let rule_name = parts.next().unwrap_or("").trim().to_string();
    let reason = parts.next().and_then(|rest| {
        let rest = rest.trim().strip_prefix("reason")?.trim_start().strip_prefix('=')?;
        let rest = rest.trim_start().strip_prefix('"')?;
        let end = rest.find('"')?;
        Some(rest[..end].to_string())
    });
    Some((rule_name, reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_masked_but_quotes_survive() {
        let lines = mask("let x = \"panic! inside\"; foo();");
        assert!(!lines[0].code.contains("panic!"));
        assert!(lines[0].code.contains('"'));
        assert!(lines[0].code.contains("foo()"));
    }

    #[test]
    fn raw_strings_are_masked() {
        let lines = mask("let x = r#\"unwrap() here\"#; bar();");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains("bar()"));
    }

    #[test]
    fn comments_are_split_from_code() {
        let lines = mask("do_thing(); // HashMap mention\n/* block\nHashMap */ after();");
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].comment.contains("HashMap"));
        assert!(!lines[1].code.contains("HashMap"));
        assert!(lines[2].code.contains("after()"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let lines = mask("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(lines[0].code.contains("<'a>"));
        assert!(!lines[0].code.contains("'x'"));
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let lines = mask("let s = \"line one\nline two\";\nnext();");
        assert_eq!(lines.len(), 3);
        assert!(lines[2].code.contains("next()"));
    }

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let src = "pub fn lib_code() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\npub fn more() {}\n";
        let lines = mask(src);
        let flags = test_regions(&lines);
        assert_eq!(flags, vec![false, true, true, true, true, false, false]);
    }

    #[test]
    fn cfg_test_single_use_item() {
        let src = "#[cfg(test)]\nuse foo::bar;\npub fn live() {}\n";
        let flags = test_regions(&mask(src));
        assert_eq!(flags[..3], [true, true, false]);
    }

    #[test]
    fn stacked_attributes_before_test_module() {
        let src =
            "#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n    fn x() {}\n}\nfn live() {}\n";
        let flags = test_regions(&mask(src));
        assert_eq!(flags[..6], [true, true, true, true, true, false]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn live() {}\n";
        let flags = test_regions(&mask(src));
        assert_eq!(flags[..2], [false, false]);
    }

    #[test]
    fn allow_directive_trailing_and_preceding() {
        let src = "bad(); // idse-lint: allow(sink-side-effect, reason = \"type name only\")\n// idse-lint: allow(materialized-feed-in-experiment, reason = \"demo\")\nother();\n";
        let lines = mask(src);
        let dirs = allow_directives(&lines);
        assert_eq!(dirs.len(), 2);
        assert_eq!(dirs[0].rule_name, "sink-side-effect");
        assert_eq!(dirs[0].target_line, 0);
        assert_eq!(dirs[0].reason.as_deref(), Some("type name only"));
        assert_eq!(dirs[1].rule_name, "materialized-feed-in-experiment");
        assert_eq!(dirs[1].target_line, 2);
    }

    #[test]
    fn single_line_literals_are_captured_with_columns() {
        let lines = mask("derive(master, \"traffic\");\nlet r = r#\"raw one\"#;\n");
        let lits: Vec<&str> = lines[0].literals.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(lits, vec!["traffic"]);
        let (col, _) = lines[0].literals[0];
        assert_eq!(lines[0].code.chars().nth(col), Some('"'));
        let raw: Vec<&str> = lines[1].literals.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(raw, vec!["raw one"]);
    }

    #[test]
    fn multi_line_literals_are_not_captured() {
        let lines = mask("let s = \"spans\nlines\";\nafter(\"ok\");\n");
        assert!(lines[0].literals.is_empty());
        assert!(lines[1].literals.is_empty());
        assert_eq!(lines[2].literals.len(), 1);
        assert_eq!(lines[2].literals[0].1, "ok");
    }

    #[test]
    fn escaped_content_is_recorded_as_written() {
        let lines = mask("f(\"a\\\"b\");\n");
        assert_eq!(lines[0].literals[0].1, "a\\\"b");
    }

    #[test]
    fn allow_directive_without_reason_parses_as_none() {
        let lines = mask("// idse-lint: allow(sink-side-effect)\nx();\n");
        let dirs = allow_directives(&lines);
        assert_eq!(dirs.len(), 1);
        assert!(dirs[0].reason.is_none());
    }
}
