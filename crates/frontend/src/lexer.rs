//! Lexer for the mini-Fortran surface language.
//!
//! Free-form input; `!` starts a comment; `&` at end of line continues the
//! statement; keywords and identifiers are case-insensitive; dot-operators
//! (`.lt.`, `.and.`, …) and their symbolic forms (`<`, `==`, …) are both
//! accepted.

use crate::diag::{FrontendError, Phase};
use crate::span::Span;
use crate::token::{Kw, Tok, Token};

/// Tokenizes `src` into a token stream ending with [`Tok::Eof`].
///
/// The token vector is the only allocation: an identifier token is its
/// span plus a keyword tag (its text stays in `src`, in the source's
/// case), and dot-operators and real literals are decoded in place.
///
/// # Errors
///
/// Returns a [`FrontendError`] for unknown characters, malformed numbers,
/// or unterminated dot-operators.
pub fn lex(src: &str) -> Result<Vec<Token>, FrontendError> {
    Lexer::new(src).run()
}

/// Longest real literal with a `d` exponent decoded without allocating.
const REAL_BUF: usize = 64;

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    /// Byte offset where the current line starts; columns count bytes
    /// from there.
    line_start: usize,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
            // Source text averages more than two bytes per token, so one
            // allocation usually holds the whole stream.
            out: Vec::with_capacity(src.len() / 2 + 2),
        }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        c
    }

    fn here(&self) -> Span {
        let col = (self.pos - self.line_start + 1) as u32;
        Span::new(self.pos, self.pos + 1, self.line, col)
    }

    fn err(&self, msg: impl Into<String>) -> FrontendError {
        FrontendError::new(Phase::Lex, msg, self.here())
    }

    fn push(&mut self, tok: Tok, span: Span) {
        self.out.push(Token { tok, span });
    }

    fn run(mut self) -> Result<Vec<Token>, FrontendError> {
        while self.pos < self.src.len() {
            let c = self.peek();
            match c {
                b' ' | b'\t' | b'\r' => {
                    self.bump();
                }
                b'!' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.bump();
                    }
                }
                b'&' => {
                    // Continuation: swallow the `&`, trailing space/comment,
                    // and the newline itself.
                    self.bump();
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        let d = self.peek();
                        if d == b' ' || d == b'\t' || d == b'\r' {
                            self.bump();
                        } else if d == b'!' {
                            while self.pos < self.src.len() && self.peek() != b'\n' {
                                self.bump();
                            }
                        } else {
                            return Err(self.err("only spaces or a comment may follow `&`"));
                        }
                    }
                    if self.pos < self.src.len() {
                        self.bump(); // the newline
                    }
                }
                b'\n' | b';' => {
                    let span = self.here();
                    self.bump();
                    // Collapse consecutive statement separators.
                    if !matches!(self.out.last().map(|t| &t.tok), Some(Tok::Newline) | None) {
                        self.push(Tok::Newline, span);
                    }
                }
                b'0'..=b'9' => self.number()?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
                b'.' => {
                    if self.peek2().is_ascii_digit() {
                        self.number()?;
                    } else {
                        self.dot_operator()?;
                    }
                }
                _ => self.symbol()?,
            }
        }
        if !matches!(self.out.last().map(|t| &t.tok), Some(Tok::Newline) | None) {
            self.push(Tok::Newline, self.here());
        }
        let span = self.here();
        self.push(Tok::Eof, span);
        Ok(self.out)
    }

    fn ident(&mut self) {
        let start = self.pos;
        let span0 = self.here();
        // No newline inside a name, so the line does not move.
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.pos += 1;
        }
        let kw = Kw::lookup(&self.src[start..self.pos]);
        let span = Span::new(start, self.pos, span0.line, span0.col);
        self.push(Tok::Ident(kw), span);
    }

    fn number(&mut self) -> Result<(), FrontendError> {
        let start = self.pos;
        let span0 = self.here();
        let mut is_real = false;
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        // Fraction — but `1.lt.2` must not eat the dot of `.lt.`.
        if self.peek() == b'.' && !self.peek2().is_ascii_alphabetic() {
            is_real = true;
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        // Exponent: e/d (Fortran double) with optional sign.
        if matches!(self.peek(), b'e' | b'E' | b'd' | b'D')
            && (self.peek2().is_ascii_digit()
                || ((self.peek2() == b'+' || self.peek2() == b'-')
                    && self
                        .src
                        .get(self.pos + 2)
                        .is_some_and(|c| c.is_ascii_digit())))
        {
            is_real = true;
            self.bump();
            if self.peek() == b'+' || self.peek() == b'-' {
                self.bump();
            }
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ASCII number");
        let span = Span::new(start, self.pos, span0.line, span0.col);
        if is_real {
            let v = parse_real(text).ok_or_else(|| {
                FrontendError::new(Phase::Lex, format!("malformed real literal `{text}`"), span)
            })?;
            self.push(Tok::Real(v), span);
        } else {
            let v: i64 = text.parse().map_err(|_| {
                FrontendError::new(
                    Phase::Lex,
                    format!("integer literal `{text}` out of range"),
                    span,
                )
            })?;
            self.push(Tok::Int(v), span);
        }
        Ok(())
    }

    fn dot_operator(&mut self) -> Result<(), FrontendError> {
        let start = self.pos;
        let span0 = self.here();
        self.bump(); // the leading dot
        let word_start = self.pos;
        while self.peek().is_ascii_alphabetic() {
            self.bump();
        }
        if self.peek() != b'.' {
            return Err(FrontendError::new(
                Phase::Lex,
                "unterminated dot-operator (expected `.op.`)",
                Span::new(start, self.pos, span0.line, span0.col),
            ));
        }
        let word = &self.src[word_start..self.pos];
        self.bump(); // the trailing dot
        let span = Span::new(start, self.pos, span0.line, span0.col);
        let Some(tok) = DOT_OPERATORS
            .iter()
            .find(|(name, _)| name.as_bytes().eq_ignore_ascii_case(word))
            .map(|&(_, tok)| tok)
        else {
            let word = String::from_utf8_lossy(word).to_ascii_lowercase();
            return Err(FrontendError::new(
                Phase::Lex,
                format!("unknown dot-operator `.{word}.`"),
                span,
            ));
        };
        self.push(tok, span);
        Ok(())
    }

    fn symbol(&mut self) -> Result<(), FrontendError> {
        let span0 = self.here();
        let c = self.bump();
        let two = |l: &mut Lexer<'a>, next: u8| -> bool {
            if l.peek() == next {
                l.bump();
                true
            } else {
                false
            }
        };
        let tok = match c {
            b'+' => Tok::Plus,
            b'-' => Tok::Minus,
            b'*' => {
                if two(self, b'*') {
                    Tok::StarStar
                } else {
                    Tok::Star
                }
            }
            b'/' => {
                if two(self, b'=') {
                    Tok::Ne
                } else {
                    Tok::Slash
                }
            }
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b',' => Tok::Comma,
            b'=' => {
                if two(self, b'=') {
                    Tok::EqEq
                } else {
                    Tok::Assign
                }
            }
            b'<' => {
                if two(self, b'=') {
                    Tok::Le
                } else {
                    Tok::Lt
                }
            }
            b'>' => {
                if two(self, b'=') {
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            other => {
                return Err(FrontendError::new(
                    Phase::Lex,
                    format!("unexpected character `{}`", other as char),
                    span0,
                ))
            }
        };
        let span = Span::new(span0.start, self.pos, span0.line, span0.col);
        self.push(tok, span);
        Ok(())
    }
}

/// The dot-operators by their lower-case word.
const DOT_OPERATORS: [(&str, Tok); 11] = [
    ("lt", Tok::Lt),
    ("le", Tok::Le),
    ("gt", Tok::Gt),
    ("ge", Tok::Ge),
    ("eq", Tok::EqEq),
    ("ne", Tok::Ne),
    ("and", Tok::And),
    ("or", Tok::Or),
    ("not", Tok::Not),
    ("true", Tok::True),
    ("false", Tok::False),
];

/// Decodes a scanned real literal, reading a Fortran `d` exponent as `e`.
/// The rewrite happens in a stack buffer; only a literal longer than
/// [`REAL_BUF`] bytes that has a `d` exponent allocates.
fn parse_real(text: &str) -> Option<f64> {
    let Some(d) = text.find(['d', 'D']) else {
        return text.parse().ok();
    };
    let mut buf = [0u8; REAL_BUF];
    let Some(copy) = buf.get_mut(..text.len()) else {
        return text.replace(['d', 'D'], "e").parse().ok();
    };
    copy.copy_from_slice(text.as_bytes());
    copy[d] = b'e';
    std::str::from_utf8(copy).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn simple_assignment() {
        assert_eq!(
            kinds("x = a + 1"),
            vec![
                Tok::Ident(None),
                Tok::Assign,
                Tok::Ident(None),
                Tok::Plus,
                Tok::Int(1),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn keywords_are_tagged_in_any_case() {
        assert_eq!(kinds("DO")[0], Tok::Ident(Some(Kw::Do)));
        assert_eq!(kinds("EndDo")[0], Tok::Ident(Some(Kw::EndDo)));
        assert_eq!(kinds("subroutine")[0], Tok::Ident(Some(Kw::Subroutine)));
        assert_eq!(kinds("done")[0], Tok::Ident(None));
        assert_eq!(kinds("d")[0], Tok::Ident(None));
    }

    #[test]
    fn identifier_text_is_its_source_span() {
        let src = "Alpha = beta_2";
        let toks = lex(src).unwrap();
        assert_eq!(toks[0].text(src), "Alpha");
        assert_eq!(toks[2].text(src), "beta_2");
        assert_eq!(toks[0].shown(src).to_string(), "`alpha`");
        assert_eq!(toks[1].shown(src).to_string(), "=");
    }

    #[test]
    fn real_literals() {
        assert_eq!(kinds("0.25")[0], Tok::Real(0.25));
        assert_eq!(kinds("1e3")[0], Tok::Real(1000.0));
        assert_eq!(kinds("2.5d0")[0], Tok::Real(2.5));
        assert_eq!(kinds("1.5e-2")[0], Tok::Real(0.015));
        assert_eq!(kinds(".5")[0], Tok::Real(0.5));
        assert_eq!(kinds("3.0D+2")[0], Tok::Real(300.0));
        let long = format!("{}.5d-70", "1".repeat(80));
        let want: f64 = long.replace('d', "e").parse().unwrap();
        assert_eq!(kinds(&long)[0], Tok::Real(want));
    }

    #[test]
    fn integer_vs_dot_operator() {
        // `1.lt.2` must lex as Int(1) .lt. Int(2), not Real(1.).
        assert_eq!(kinds("1.lt.2")[..3], [Tok::Int(1), Tok::Lt, Tok::Int(2)]);
    }

    #[test]
    fn dot_operators() {
        assert_eq!(
            kinds("a .le. b .and. .not. c")
                .into_iter()
                .filter(|t| matches!(t, Tok::Le | Tok::And | Tok::Not))
                .count(),
            3
        );
    }

    #[test]
    fn symbolic_relationals() {
        assert_eq!(kinds("a <= b")[1], Tok::Le);
        assert_eq!(kinds("a == b")[1], Tok::EqEq);
        assert_eq!(kinds("a /= b")[1], Tok::Ne);
        assert_eq!(kinds("a ** b")[1], Tok::StarStar);
    }

    #[test]
    fn comments_ignored() {
        assert_eq!(
            kinds("x = 1 ! set x\ny = 2"),
            vec![
                Tok::Ident(None),
                Tok::Assign,
                Tok::Int(1),
                Tok::Newline,
                Tok::Ident(None),
                Tok::Assign,
                Tok::Int(2),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn continuation() {
        assert_eq!(
            kinds("x = a + &\n    b"),
            vec![
                Tok::Ident(None),
                Tok::Assign,
                Tok::Ident(None),
                Tok::Plus,
                Tok::Ident(None),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn blank_lines_collapse() {
        let ks = kinds("a = 1\n\n\nb = 2");
        let newlines = ks.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 2);
    }

    #[test]
    fn semicolon_separates() {
        let ks = kinds("a = 1; b = 2");
        let newlines = ks.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 2);
    }

    #[test]
    fn unknown_char_errors() {
        let err = lex("a = #").unwrap_err();
        assert!(err.message.contains('#'));
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn unknown_dot_operator_errors() {
        let err = lex("a .XoR. b").unwrap_err();
        assert_eq!(err.message, "unknown dot-operator `.xor.`");
        assert_eq!(kinds("a .AND. b")[1], Tok::And);
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("a = 1\nbb = 2").unwrap();
        let bb = toks
            .iter()
            .find(|t| t.text("a = 1\nbb = 2") == "bb")
            .unwrap();
        assert_eq!(bb.span.line, 2);
        assert_eq!(bb.span.col, 1);
    }
}
