//! A hand-rolled, comment- and string-literal-aware Rust tokenizer.
//!
//! This is *not* a parser: the rule engine only needs a faithful token
//! stream where code is distinguished from comments and literals — a rule
//! needle like `.sum()` appearing inside a string literal or a doc
//! comment must never fire. The tokenizer therefore handles the full
//! lexical surface that matters for that guarantee:
//!
//! - line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`), collected separately so suppression markers can be
//!   read back out;
//! - string literals with escapes, byte strings, and raw strings with any
//!   number of `#`s (`r"…"`, `r#"…"#`, `br##"…"##`);
//! - char literals vs. lifetimes (`'a'` vs `'a`), including escaped chars
//!   (`'\''`, `'\u{1F600}'`);
//! - numeric literals with underscores, radix prefixes, exponents, and
//!   type suffixes (`1_000`, `0xFF`, `1.5e-3`, `0.0f64`), kept as one
//!   token so float-ness is decidable from the text;
//! - raw identifiers (`r#match`) and multi-char operators (`+=`, `::`,
//!   `..`, `->`, …).
//!
//! A post-pass marks every token inside a `#[cfg(test)]` or `#[test]`
//! item (attribute through the matching close brace) with `in_test`, so
//! rules can skip test code without a real parse.

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `views`, `f64`, `r#match`).
    Ident,
    /// Numeric literal, suffix included (`128`, `0.0f64`, `1e-9`).
    Num,
    /// String literal of any flavor (contents preserved in `text`,
    /// delimiters and `r#`/`b` prefixes stripped, escapes verbatim).
    Str,
    /// Char literal (`'a'`, `'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Punctuation / operator, possibly multi-char (`+=`, `::`, `{`).
    Punct,
}

/// One token with its source position and test-code marking.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Verbatim source text. For `Str` the delimiters are stripped and
    /// the body kept with escapes verbatim; rules never match needles
    /// inside them (the kind gates that).
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// Whether the token sits inside a `#[cfg(test)]`/`#[test]` item.
    pub in_test: bool,
}

/// One comment: its starting line, verbatim text (markers included), and
/// whether it was the only thing on its line (a *standalone* comment,
/// which suppresses the next code line instead of its own).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the `//` or `/*`.
    pub line: u32,
    /// Full comment text, `//`/`/*` markers included.
    pub text: String,
    /// True when nothing but whitespace precedes the comment on its line.
    pub standalone: bool,
}

/// A tokenized file: the code token stream plus the comment stream.
#[derive(Debug, Default)]
pub struct FileTokens {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

impl FileTokens {
    /// Tokenize `source`. Never fails: unterminated literals simply run to
    /// end of input (the lint must not crash on in-progress code).
    pub fn tokenize(source: &str) -> FileTokens {
        let mut lx = Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            line_has_code: false,
            out: FileTokens::default(),
        };
        lx.run();
        mark_test_items(&mut lx.out.toks);
        lx.out
    }
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    /// Whether any code token has been emitted on the current line (used
    /// to classify comments as standalone).
    line_has_code: bool,
    out: FileTokens,
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
                self.line_has_code = false;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.line_has_code = true;
        self.out.toks.push(Tok {
            kind,
            text,
            line,
            in_test: false,
        });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            match c {
                ' ' | '\t' | '\r' | '\n' => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                '\'' => self.char_or_lifetime(),
                'r' | 'b' if self.raw_or_byte_string() => {}
                c if c.is_ascii_digit() => self.number(),
                c if c.is_alphabetic() || c == '_' => self.ident(),
                _ => self.punct(),
            }
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let standalone = !self.line_has_code;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            line,
            text,
            standalone,
        });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let standalone = !self.line_has_code;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.comments.push(Comment {
            line,
            text,
            standalone,
        });
    }

    /// Cooked string: `"…"` with `\` escapes; multi-line allowed. The
    /// body (escapes verbatim, quotes stripped) becomes the token text.
    fn string(&mut self) {
        let line = self.line;
        let mut text = String::new();
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                text.push(c);
                if let Some(e) = self.bump() {
                    text.push(e); // whatever is escaped, including `"` and `\`
                }
            } else if c == '"' {
                break;
            } else {
                text.push(c);
            }
        }
        self.push(TokKind::Str, text, line);
    }

    /// Handle `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`, and raw identifiers
    /// (`r#match`). Returns false when the `r`/`b` is an ordinary ident
    /// start (the caller then lexes it as an identifier).
    fn raw_or_byte_string(&mut self) -> bool {
        let line = self.line;
        let first = self.peek(0).unwrap_or(' ');
        let mut i = 1;
        if first == 'b' && self.peek(i) == Some('r') {
            i += 1;
        }
        let mut hashes = 0usize;
        while self.peek(i) == Some('#') {
            hashes += 1;
            i += 1;
        }
        if self.peek(i) != Some('"') {
            // `r#ident` raw identifier: consume `r#` and lex the ident.
            if first == 'r' && hashes == 1 {
                if let Some(c) = self.peek(2) {
                    if c.is_alphabetic() || c == '_' {
                        self.bump();
                        self.bump();
                        self.ident();
                        return true;
                    }
                }
            }
            if first == 'b' && hashes == 0 && self.peek(1) == Some('\'') {
                // byte char literal b'x'
                self.bump();
                self.char_or_lifetime();
                return true;
            }
            return false; // plain identifier starting with r/b
        }
        // Raw (or byte) string: consume prefix, hashes, and the body up to
        // `"` followed by the same number of `#`s. No escapes in raw
        // strings; `b"…"` (hashes = 0) still has escapes, but skipping
        // them only risks ending early at an escaped quote — byte strings
        // with escaped quotes don't appear in rule-relevant positions, and
        // cooked handling is done in `string()`.
        if hashes == 0 && first == 'b' && self.peek(1) == Some('"') {
            self.bump(); // b
            self.string();
            return true;
        }
        for _ in 0..i + 1 {
            self.bump(); // prefix + hashes + opening quote
        }
        let mut text = String::new();
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut closing = 0usize;
                while closing < hashes && self.peek(0) == Some('#') {
                    closing += 1;
                    self.bump();
                }
                if closing == hashes {
                    break;
                }
                text.push('"');
                for _ in 0..closing {
                    text.push('#');
                }
            } else {
                text.push(c);
            }
        }
        self.push(TokKind::Str, text, line);
        true
    }

    /// `'a'` (char, incl. escapes) vs `'a` / `'static` (lifetime).
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // the quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume to the closing quote.
                self.bump();
                self.bump(); // escaped char (or `u`)
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokKind::Char, String::new(), line);
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                let mut text = String::new();
                while let Some(c) = self.peek(0) {
                    if c.is_alphanumeric() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if self.peek(0) == Some('\'') {
                    self.bump();
                    self.push(TokKind::Char, text, line);
                } else {
                    self.push(TokKind::Lifetime, text, line);
                }
            }
            _ => {
                // `'('`-style punctuation char literal.
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokKind::Char, String::new(), line);
            }
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let radix_prefixed = self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'));
        if radix_prefixed {
            text.push(self.bump().unwrap_or('0'));
            text.push(self.bump().unwrap_or('x'));
            while let Some(c) = self.peek(0) {
                if c.is_ascii_hexdigit() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
        } else {
            while let Some(c) = self.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            // Fraction — but `1..10` is a range, not a float.
            if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                text.push('.');
                self.bump();
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            } else if self.peek(0) == Some('.')
                && !self
                    .peek(1)
                    .is_some_and(|c| c == '.' || c.is_alphabetic() || c == '_')
            {
                // Trailing-dot float like `1.` (not `1..` or `1.method()`).
                text.push('.');
                self.bump();
            }
            // Exponent.
            if matches!(self.peek(0), Some('e' | 'E')) {
                let sign = matches!(self.peek(1), Some('+' | '-'));
                let digit_at = if sign { 2 } else { 1 };
                if self.peek(digit_at).is_some_and(|c| c.is_ascii_digit()) {
                    text.push(self.bump().unwrap_or('e'));
                    if sign {
                        text.push(self.bump().unwrap_or('+'));
                    }
                    while let Some(c) = self.peek(0) {
                        if c.is_ascii_digit() || c == '_' {
                            text.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        // Type suffix (`usize`, `f64`, `u32`, …).
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    fn punct(&mut self) {
        let line = self.line;
        let c = self.bump().unwrap_or(' ');
        let two = self.peek(0).map(|n| {
            let mut s = String::new();
            s.push(c);
            s.push(n);
            s
        });
        const OPS: [&str; 14] = [
            "+=", "-=", "*=", "/=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..",
        ];
        if let Some(two) = two {
            if OPS.contains(&two.as_str()) {
                self.bump();
                self.push(TokKind::Punct, two, line);
                return;
            }
        }
        self.push(TokKind::Punct, c.to_string(), line);
    }
}

/// Whether a numeric literal token is a float (decides if a reduction
/// statement "touches floats"). Handles radix prefixes (`0xE1` is not an
/// exponent) and integer type suffixes (`123usize` contains an `e` but is
/// not a float).
pub fn num_is_float(text: &str) -> bool {
    let t = text.as_bytes();
    if t.len() >= 2 && t[0] == b'0' && matches!(t[1], b'x' | b'X' | b'o' | b'O' | b'b' | b'B') {
        return false;
    }
    let mut i = 0;
    while i < t.len() && (t[i].is_ascii_digit() || t[i] == b'_') {
        i += 1;
    }
    if i < t.len() && t[i] == b'.' {
        return true;
    }
    if i < t.len() && (t[i] == b'e' || t[i] == b'E') {
        let j = if i + 1 < t.len() && (t[i + 1] == b'+' || t[i + 1] == b'-') {
            i + 2
        } else {
            i + 1
        };
        if j < t.len() && t[j].is_ascii_digit() {
            return true;
        }
    }
    // `1f64` / `1f32` suffix floats.
    text[i.min(text.len())..].starts_with("f64") || text[i.min(text.len())..].starts_with("f32")
}

/// Mark every token belonging to a `#[cfg(test)]` or `#[test]` item: from
/// the attribute through the matching close brace of the item body (or
/// the terminating `;` for brace-less items).
fn mark_test_items(toks: &mut [Tok]) {
    let mut i = 0;
    while i < toks.len() {
        if let Some(attr_len) = test_attribute_at(toks, i) {
            // Find the item body: the first `{` before any same-depth `;`.
            let mut j = i + attr_len;
            let mut end = toks.len();
            let mut depth = 0i32;
            while j < toks.len() {
                let text = toks[j].text.as_str();
                if toks[j].kind == TokKind::Punct {
                    match text {
                        "{" => {
                            depth += 1;
                        }
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                end = j + 1;
                                break;
                            }
                        }
                        ";" if depth == 0 => {
                            end = j + 1;
                            break;
                        }
                        _ => {}
                    }
                }
                // `(`/`[` in fn signatures don't use brace depth; only
                // braces decide the item extent.
                j += 1;
            }
            for tok in &mut toks[i..end] {
                tok.in_test = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
}

/// If `toks[i..]` starts a `#[cfg(test)]`/`#[cfg(all(test, …))]`/`#[test]`
/// attribute, return its token length.
fn test_attribute_at(toks: &[Tok], i: usize) -> Option<usize> {
    if toks.get(i)?.text != "#" || toks.get(i + 1)?.text != "[" {
        return None;
    }
    // Scan to the matching `]`, looking for the `test` / cfg(test) shape.
    let mut depth = 1i32;
    let mut j = i + 2;
    let mut saw_test = false;
    let head_is_cfg_or_test = matches!(toks.get(i + 2).map(|t| t.text.as_str()), Some("cfg"))
        || matches!(
            (
                toks.get(i + 2).map(|t| t.text.as_str()),
                toks.get(i + 3).map(|t| t.text.as_str())
            ),
            (Some("test"), Some("]"))
        );
    while j < toks.len() && depth > 0 {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => depth -= 1,
            "test" => saw_test = true,
            _ => {}
        }
        j += 1;
    }
    (head_is_cfg_or_test && saw_test).then_some(j - i)
}
