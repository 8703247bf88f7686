//! A lexed source file plus the derived maps every rule needs: which tokens
//! are test-only, which lines carry comments, and where justification
//! markers (`// allow-panic:`) are attached.

use crate::lexer::{lex, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// A parsed source file, ready for rule passes.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root (display + grouping key).
    pub path: PathBuf,
    pub tokens: Vec<Token>,
    /// `tokens[i]` is inside a `#[cfg(test)]` module or a `#[test]` fn.
    pub in_test: Vec<bool>,
    /// Line → concatenated comment text on that line (line + block comments;
    /// doc comments excluded — justifications are plain `//` comments).
    comments: BTreeMap<u32, String>,
    /// Lines that contain at least one non-comment token.
    code_lines: BTreeSet<u32>,
}

impl SourceFile {
    /// Lexes `src` as file `path` (workspace-relative).
    pub fn parse(path: impl Into<PathBuf>, src: &str) -> SourceFile {
        let tokens = lex(src);
        let in_test = mark_test_regions(&tokens);
        let mut comments: BTreeMap<u32, String> = BTreeMap::new();
        let mut code_lines = BTreeSet::new();
        for t in &tokens {
            match &t.kind {
                TokKind::LineComment(text) | TokKind::BlockComment(text) => {
                    comments.entry(t.line).or_default().push_str(text);
                }
                TokKind::DocComment(_) => {}
                _ => {
                    code_lines.insert(t.line);
                }
            }
        }
        SourceFile {
            path: path.into(),
            tokens,
            in_test,
            comments,
            code_lines,
        }
    }

    /// Whether the file lives in an inherently test-only tree (`tests/`,
    /// `benches/`, `examples/`).
    pub fn is_test_file(&self) -> bool {
        self.path.iter().any(|part| {
            matches!(
                part.to_string_lossy().as_ref(),
                "tests" | "benches" | "examples"
            )
        })
    }

    /// Whether a justification marker (e.g. `allow-panic:`) is attached to
    /// `line`: either a comment on the line itself or in the contiguous
    /// comment-only block immediately above it (no blank line, no code line
    /// in between).
    pub fn justified(&self, marker: &str, line: u32) -> bool {
        if let Some(text) = self.comments.get(&line) {
            if text.contains(marker) {
                return true;
            }
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            match self.comments.get(&l) {
                Some(text) if !self.code_lines.contains(&l) => {
                    if text.contains(marker) {
                        return true;
                    }
                }
                // A code line or a blank line ends the attached block.
                _ => return false,
            }
        }
        false
    }
}

/// Marks the token ranges under `#[cfg(test)] mod ... { }` blocks and
/// `#[test] fn` bodies. Attributes between the marker and the item (e.g.
/// other `#[...]` lines) are skipped.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let mut i = 0;
    while i < code.len() {
        if let Some(len) = match_attr(&code[i..], &["cfg", "(", "test", ")"])
            .or_else(|| match_attr(&code[i..], &["test"]))
        {
            let mut j = i + len;
            // Skip any further attributes before the item itself.
            while j < code.len() && code[j].1.is_punct('#') {
                j += skip_attr(&code[j..]);
            }
            if let Some(span) = item_body_span(&code[j..]) {
                let start = code[j + span.0].0;
                let end = code[j + span.1].0;
                for flag in in_test.iter_mut().take(end + 1).skip(start) {
                    *flag = true;
                }
                i = j + span.1 + 1;
                continue;
            }
        }
        i += 1;
    }
    in_test
}

/// Matches `#[ <inner...> ]` where `inner` is the given sequence of idents
/// and punctuation; returns the token count consumed.
fn match_attr(code: &[(usize, &Token)], inner: &[&str]) -> Option<usize> {
    let mut need = Vec::with_capacity(inner.len() + 3);
    need.push("#");
    need.push("[");
    need.extend_from_slice(inner);
    need.push("]");
    if code.len() < need.len() {
        return None;
    }
    for (tok, want) in code.iter().zip(&need) {
        let matches = match &tok.1.kind {
            TokKind::Ident(s) => s == want,
            TokKind::Punct(c) => want.len() == 1 && want.starts_with(*c),
            _ => false,
        };
        if !matches {
            return None;
        }
    }
    Some(need.len())
}

/// Consumes a generic `#[...]` attribute, returning the token count.
fn skip_attr(code: &[(usize, &Token)]) -> usize {
    // code[0] is `#`; expect `[`, then skip to the matching `]`.
    let mut depth = 0usize;
    for (i, (_, t)) in code.iter().enumerate().skip(1) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    code.len()
}

/// Finds the brace-delimited body of the next item (a `mod` or `fn`):
/// returns `(start, end)` indices into `code` of the item keyword and its
/// closing brace.
fn item_body_span(code: &[(usize, &Token)]) -> Option<(usize, usize)> {
    let is_item = code
        .first()
        .map(|(_, t)| {
            matches!(
                t.ident(),
                Some("mod" | "fn" | "pub" | "impl" | "struct" | "const" | "static" | "use")
            )
        })
        .unwrap_or(false);
    if !is_item {
        return None;
    }
    // A `;` before any `{` means a braceless item (`use x;`, `const C: T = v;`)
    // — nothing to mark, and searching further would grab an unrelated brace.
    let open = code
        .iter()
        .position(|(_, t)| t.is_punct('{') || t.is_punct(';'))?;
    if code[open].1.is_punct(';') {
        return None;
    }
    let mut depth = 0usize;
    for (i, (_, t)) in code.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some((0, i));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_are_marked() {
        let src = "
fn real() { x.unwrap(); }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { y.unwrap(); }
}
";
        let f = SourceFile::parse("a.rs", src);
        let unwraps: Vec<(usize, bool)> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.ident() == Some("unwrap"))
            .map(|(i, _)| (i, f.in_test[i]))
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!unwraps[0].1, "unwrap in real code is not test-marked");
        assert!(
            unwraps[1].1,
            "unwrap inside #[cfg(test)] mod is test-marked"
        );
    }

    #[test]
    fn test_fn_outside_module_is_marked() {
        let src = "#[test]\nfn t() { z.unwrap(); }\nfn real() { w.unwrap(); }";
        let f = SourceFile::parse("a.rs", src);
        let flags: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.ident() == Some("unwrap"))
            .map(|(i, _)| f.in_test[i])
            .collect();
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn attr_between_cfg_and_item_is_skipped() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() { u.unwrap(); } }";
        let f = SourceFile::parse("a.rs", src);
        let marked = f
            .tokens
            .iter()
            .enumerate()
            .any(|(i, t)| t.ident() == Some("unwrap") && f.in_test[i]);
        assert!(marked);
    }

    #[test]
    fn justification_lookup() {
        let src = "
// allow-panic: same line below has its own
let a = x.unwrap(); // allow-panic: trailing
let b = y.unwrap();

// allow-panic: attached block
// second line of block
let c = z.unwrap();

let d = w.unwrap();
";
        let f = SourceFile::parse("a.rs", src);
        assert!(f.justified("allow-panic:", 3), "trailing comment");
        assert!(
            !f.justified("allow-panic:", 4),
            "a trailing comment on the previous code line does not carry over"
        );
        assert!(f.justified("allow-panic:", 8), "multi-line block above");
        assert!(
            !f.justified("allow-panic:", 10),
            "blank line breaks the block"
        );
    }

    #[test]
    fn test_files_by_path() {
        assert!(SourceFile::parse("crates/engine/tests/x.rs", "").is_test_file());
        assert!(!SourceFile::parse("crates/engine/src/x.rs", "").is_test_file());
    }
}
