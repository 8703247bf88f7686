//! The rule pass and its token-walking helpers.

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

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> SourceFile {
        SourceFile::parse("t.rs", src)
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
