//! The three rule passes and their shared token-walking helpers.

pub mod atomics;
pub mod locks;
pub mod panics;

use crate::lexer::Token;
use crate::source::SourceFile;

/// A comment-free view over a file's tokens: rules match token shapes
/// positionally, and interleaved comments would break every window match.
/// Indices are positions in this view; `line`/`in_test` map back.
pub struct Code<'a> {
    pub file: &'a SourceFile,
    idx: Vec<usize>,
}

impl<'a> Code<'a> {
    pub fn new(file: &'a SourceFile) -> Code<'a> {
        Code {
            file,
            idx: file
                .tokens
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.is_comment())
                .map(|(i, _)| i)
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.idx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    pub fn tok(&self, i: usize) -> &Token {
        &self.file.tokens[self.idx[i]]
    }

    pub fn ident(&self, i: usize) -> Option<&str> {
        self.get(i).and_then(Token::ident)
    }

    pub fn get(&self, i: usize) -> Option<&Token> {
        self.idx.get(i).map(|&raw| &self.file.tokens[raw])
    }

    pub fn punct(&self, i: usize, c: char) -> bool {
        self.get(i).map(|t| t.is_punct(c)).unwrap_or(false)
    }

    pub fn line(&self, i: usize) -> u32 {
        self.tok(i).line
    }

    pub fn in_test(&self, i: usize) -> bool {
        self.file.in_test[self.idx[i]]
    }
}

/// A `fn` item's name and body span (positions in the [`Code`] view).
pub struct FnSpan {
    pub name: String,
    pub body_start: usize,
    pub body_end: usize,
}

/// Finds every `fn name(...) { ... }` body. Nested functions produce nested
/// spans; [`enclosing_fn`] picks the innermost.
pub fn fn_spans(code: &Code<'_>) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if code.ident(i) == Some("fn") {
            if let Some(name) = code.ident(i + 1) {
                let name = name.to_string();
                // Find the body brace — or a `;` first (trait method
                // declaration, extern fn), which means no body.
                let mut j = i + 2;
                while j < code.len() && !code.punct(j, '{') && !code.punct(j, ';') {
                    j += 1;
                }
                if j < code.len() && code.punct(j, '{') {
                    let mut depth = 0usize;
                    let mut end = j;
                    while end < code.len() {
                        if code.punct(end, '{') {
                            depth += 1;
                        } else if code.punct(end, '}') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        end += 1;
                    }
                    spans.push(FnSpan {
                        name,
                        body_start: j,
                        body_end: end,
                    });
                }
            }
        }
        i += 1;
    }
    spans
}

/// The innermost function containing code position `i`, if any.
pub fn enclosing_fn(spans: &[FnSpan], i: usize) -> Option<&str> {
    spans
        .iter()
        .filter(|s| s.body_start <= i && i <= s.body_end)
        .max_by_key(|s| s.body_start)
        .map(|s| s.name.as_str())
}

/// One segment of a method-call receiver chain: the identifier and whether
/// it was called (`foo()`) rather than read as a field (`foo` / `foo[i]`).
pub struct Segment {
    pub name: String,
    pub is_call: bool,
}

/// Walks the receiver chain backwards from `dot` (the position of the `.`
/// before a method name): `self.cell.outcome.lock()` at the `.` before
/// `lock` yields `[self, cell, outcome]`. Returns outermost-first.
pub fn receiver_chain(code: &Code<'_>, dot: usize) -> Vec<Segment> {
    let mut segments = Vec::new();
    let mut i = dot; // position of the current `.`
    loop {
        if i == 0 {
            break;
        }
        let mut j = i - 1;
        let mut is_call = false;
        // Skip trailing `(...)` / `[...]` groups of this segment.
        loop {
            let (open, close) = match code.get(j) {
                Some(t) if t.is_punct(')') => ('(', ')'),
                Some(t) if t.is_punct(']') => ('[', ']'),
                _ => break,
            };
            if close == ')' {
                is_call = true;
            }
            let mut depth = 0usize;
            loop {
                if code.punct(j, close) {
                    depth += 1;
                } else if code.punct(j, open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return reversed(segments);
                }
                j -= 1;
            }
            if j == 0 {
                return reversed(segments);
            }
            j -= 1;
        }
        match code.ident(j) {
            Some(name) => segments.push(Segment {
                name: name.to_string(),
                is_call,
            }),
            None => break,
        }
        if j == 0 || !code.punct(j - 1, '.') {
            break;
        }
        i = j - 1;
    }
    reversed(segments)
}

fn reversed(mut segments: Vec<Segment>) -> Vec<Segment> {
    segments.reverse();
    segments
}

/// The name a receiver chain is known by: the last field-like (non-call)
/// segment other than `self`, falling back to the first segment. This maps
/// `self.inner.queries.lock()` to `queries`, `active().lock()` to `active`
/// and `CACHES.get_or_init(..).lock()` to `CACHES`.
pub fn chain_name(segments: &[Segment]) -> Option<String> {
    segments
        .iter()
        .rev()
        .find(|s| !s.is_call && s.name != "self")
        .or_else(|| segments.first())
        .map(|s| s.name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> SourceFile {
        SourceFile::parse("t.rs", src)
    }

    fn name_at_lock(src: &str) -> Option<String> {
        let f = code_of(src);
        let code = Code::new(&f);
        for i in 0..code.len() {
            if code.ident(i) == Some("lock") && i > 0 && code.punct(i - 1, '.') {
                return chain_name(&receiver_chain(&code, i - 1));
            }
        }
        None
    }

    #[test]
    fn receiver_names() {
        assert_eq!(name_at_lock("self.state.lock();").as_deref(), Some("state"));
        assert_eq!(
            name_at_lock("self.cell.outcome.lock();").as_deref(),
            Some("outcome")
        );
        assert_eq!(name_at_lock("active().lock();").as_deref(), Some("active"));
        assert_eq!(
            name_at_lock("CACHES.get_or_init(|| x).lock();").as_deref(),
            Some("CACHES")
        );
        assert_eq!(
            name_at_lock("query.metrics[op][id].lock();").as_deref(),
            Some("metrics")
        );
        assert_eq!(name_at_lock("guard.lock();").as_deref(), Some("guard"));
    }

    #[test]
    fn fn_span_attribution() {
        let f = code_of("fn outer() { inner_call(); } fn second() { x(); }");
        let code = Code::new(&f);
        let spans = fn_spans(&code);
        assert_eq!(spans.len(), 2);
        let pos = (0..code.len())
            .find(|&i| code.ident(i) == Some("inner_call"))
            .unwrap();
        assert_eq!(enclosing_fn(&spans, pos), Some("outer"));
    }

    #[test]
    fn trait_method_decl_has_no_body() {
        let f = code_of("trait T { fn m(&self); } fn real() {}");
        let code = Code::new(&f);
        let spans = fn_spans(&code);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "real");
    }
}
