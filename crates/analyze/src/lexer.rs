//! A deliberately small Rust lexer.
//!
//! The analyzer does not need a real parser: every rule it enforces works on
//! token shapes (`.lock(` chains, `Ordering::X` paths, `.unwrap(` calls,
//! string literals, comments with justification markers). What it *does*
//! need, and what plain `grep` cannot give, is to know exactly when text is
//! inside a string, a comment, or a `#[cfg(test)]` region. This lexer
//! produces a flat token stream with line numbers and keeps comments as
//! first-class tokens so the justification rules can see them.
//!
//! Handled: line/doc/nested-block comments, cooked and raw (byte) strings,
//! char literals vs lifetimes, identifiers, numbers, single-char punctuation.
//! Not handled (not needed): multi-char operators as single tokens, macro
//! expansion, type grammar.

/// What a token is. Punctuation stays one character per token; `::` is two
/// consecutive `Punct(':')` tokens, which is all the path matching needs.
#[derive(Debug, Clone, PartialEq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character.
    Punct(char),
    /// String literal (cooked contents not unescaped — raw bytes between the
    /// quotes — since rules only substring-match them).
    Str(String),
    /// Character literal (contents irrelevant to every rule).
    Char,
    /// Numeric literal.
    Num(String),
    /// `// ...` comment, text after the slashes (also `////...` rules).
    LineComment(String),
    /// `/// ...` or `//! ...` doc comment.
    DocComment(String),
    /// `/* ... */` block comment (including doc block comments).
    BlockComment(String),
    /// Lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// One token with the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub line: u32,
}

impl Token {
    /// Whether this token is any kind of comment.
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokKind::LineComment(_) | TokKind::DocComment(_) | TokKind::BlockComment(_)
        )
    }

    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Lexes `src` into a token stream. Never fails: unterminated constructs
/// consume the rest of the input, which is the useful behavior for an
/// analyzer that must not panic on the code it audits.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, line: u32) {
        self.out.push(Token { kind, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.cooked_string(line),
                'r' if matches!(self.peek(1), Some('"') | Some('#'))
                    && self.raw_string_ahead(1) =>
                {
                    self.bump();
                    self.raw_string(line);
                }
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.cooked_string(line);
                }
                'b' if self.peek(1) == Some('r') && self.raw_string_ahead(2) => {
                    self.bump();
                    self.bump();
                    self.raw_string(line);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.char_literal(line);
                }
                '\'' => self.quote(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c == '_' || c.is_alphabetic() => self.ident(line),
                c => {
                    self.bump();
                    self.push(TokKind::Punct(c), line);
                }
            }
        }
        self.out
    }

    /// Whether `r`/`br` at the current position starts a raw string: `r` (at
    /// offset-1 hashes) followed by `#`* then `"`.
    fn raw_string_ahead(&self, mut ahead: usize) -> bool {
        while self.peek(ahead) == Some('#') {
            ahead += 1;
        }
        self.peek(ahead) == Some('"')
    }

    fn line_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let doc = matches!(self.peek(0), Some('/') | Some('!'))
            // `////...` is a plain comment, not a doc comment.
            && !(self.peek(0) == Some('/') && self.peek(1) == Some('/'));
        if doc {
            self.bump(); // the third `/` or the `!`
        }
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        let kind = if doc {
            TokKind::DocComment(text)
        } else {
            TokKind::LineComment(text)
        };
        self.push(kind, line);
    }

    fn block_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
                text.push_str("/*");
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
                text.push_str("*/");
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokKind::BlockComment(text), line);
    }

    fn cooked_string(&mut self, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    // Keep the escape verbatim; rules only substring-match.
                    text.push(c);
                    if let Some(next) = self.bump() {
                        text.push(next);
                    }
                }
                '"' => break,
                _ => text.push(c),
            }
        }
        self.push(TokKind::Str(text), line);
    }

    fn raw_string(&mut self, line: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let closer: String = std::iter::once('"')
            .chain((0..hashes).map(|_| '#'))
            .collect();
        let mut text = String::new();
        while self.peek(0).is_some() {
            let tail: String = (0..closer.len()).filter_map(|i| self.peek(i)).collect();
            if tail == closer {
                for _ in 0..closer.len() {
                    self.bump();
                }
                break;
            }
            text.push(self.bump().expect("peeked Some"));
        }
        self.push(TokKind::Str(text), line);
    }

    fn char_literal(&mut self, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push(TokKind::Char, line);
    }

    /// A `'` is either a char literal or a lifetime: `'x'` (or an escape) is
    /// a char, `'ident` not followed by a closing quote is a lifetime.
    fn quote(&mut self, line: u32) {
        let first = self.peek(1);
        let second = self.peek(2);
        let is_lifetime =
            matches!(first, Some(c) if c == '_' || c.is_alphabetic()) && second != Some('\'');
        if is_lifetime {
            self.bump();
            while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
                self.bump();
            }
            self.push(TokKind::Lifetime, line);
        } else {
            self.char_literal(line);
        }
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' && matches!(self.peek(1), Some(d) if d.is_ascii_digit()) {
                // A dot joins the number only when a digit follows, so range
                // expressions like `0..10` and method calls stay separate.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num(text), line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident(text), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_puncts_numbers() {
        assert_eq!(
            kinds("let x = 42;"),
            vec![
                TokKind::Ident("let".into()),
                TokKind::Ident("x".into()),
                TokKind::Punct('='),
                TokKind::Num("42".into()),
                TokKind::Punct(';'),
            ]
        );
    }

    #[test]
    fn strings_are_opaque() {
        // Braces and `.lock()` inside a string must not look like code.
        let toks = kinds(r#"let s = "a { b.lock() } c";"#);
        assert!(toks.contains(&TokKind::Str("a { b.lock() } c".into())));
        assert_eq!(
            toks.iter()
                .filter(|t| matches!(t, TokKind::Punct('{')))
                .count(),
            0
        );
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = kinds(r##"let s = r#"quote " inside"#; let b = b"bytes";"##);
        assert!(toks.contains(&TokKind::Str("quote \" inside".into())));
        assert!(toks.contains(&TokKind::Str("bytes".into())));
    }

    #[test]
    fn comments_keep_text_and_kind() {
        let toks = lex("// allow-panic: because\n/// doc\n/* block */ fn x() {}");
        assert_eq!(
            toks[0].kind,
            TokKind::LineComment(" allow-panic: because".into())
        );
        assert_eq!(toks[1].kind, TokKind::DocComment(" doc".into()));
        assert_eq!(toks[2].kind, TokKind::BlockComment(" block ".into()));
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[3].line, 3);
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* a /* b */ c */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], TokKind::Ident("x".into()));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'y'; let n = '\\n'; }");
        assert_eq!(
            toks.iter()
                .filter(|t| matches!(t, TokKind::Lifetime))
                .count(),
            2
        );
        assert_eq!(
            toks.iter().filter(|t| matches!(t, TokKind::Char)).count(),
            2
        );
    }

    #[test]
    fn escaped_quote_in_string() {
        let toks = kinds(r#"let s = "a\"b"; x"#);
        assert!(toks.contains(&TokKind::Str(r#"a\"b"#.into())));
        assert!(toks.contains(&TokKind::Ident("x".into())));
    }

    #[test]
    fn number_dot_disambiguation() {
        // `0..10` must stay a range, `1.5` a float, `x.lock` a method path.
        let toks = kinds("0..10 1.5 x.lock");
        assert_eq!(toks[0], TokKind::Num("0".into()));
        assert_eq!(toks[1], TokKind::Punct('.'));
        assert_eq!(toks[2], TokKind::Punct('.'));
        assert_eq!(toks[3], TokKind::Num("10".into()));
        assert_eq!(toks[4], TokKind::Num("1.5".into()));
    }

    #[test]
    fn unterminated_string_consumes_rest() {
        let toks = kinds("let s = \"never closed");
        assert!(matches!(toks.last(), Some(TokKind::Str(_))));
    }
}
