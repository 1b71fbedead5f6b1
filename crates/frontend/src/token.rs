//! Tokens of the mini-Fortran surface language.
//!
//! A token carries no text: an identifier is its [`Span`] into the source
//! plus a keyword tag decided once by the lexer, so lexing allocates
//! nothing but the token vector. The parser reads an identifier's text
//! back out of the source when it builds an AST node.

use crate::span::Span;
use std::fmt;

/// The keywords of the language. Keywords are not reserved: the lexer tags
/// every identifier spelled like one (in any case), and the parser treats
/// a tagged identifier as a keyword only where a keyword may stand. Any
/// identifier position accepts a tagged one as a plain name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kw {
    /// `subroutine`
    Subroutine,
    /// `end`
    End,
    /// `integer`
    Integer,
    /// `real`
    Real,
    /// `logical`
    Logical,
    /// `do`
    Do,
    /// `while`
    While,
    /// `enddo`
    EndDo,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `endif`
    EndIf,
    /// `call`
    Call,
    /// `return`
    Return,
}

impl Kw {
    const ALL: [Kw; 14] = [
        Kw::Subroutine,
        Kw::End,
        Kw::Integer,
        Kw::Real,
        Kw::Logical,
        Kw::Do,
        Kw::While,
        Kw::EndDo,
        Kw::If,
        Kw::Then,
        Kw::Else,
        Kw::EndIf,
        Kw::Call,
        Kw::Return,
    ];

    /// The lower-case spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Kw::Subroutine => "subroutine",
            Kw::End => "end",
            Kw::Integer => "integer",
            Kw::Real => "real",
            Kw::Logical => "logical",
            Kw::Do => "do",
            Kw::While => "while",
            Kw::EndDo => "enddo",
            Kw::If => "if",
            Kw::Then => "then",
            Kw::Else => "else",
            Kw::EndIf => "endif",
            Kw::Call => "call",
            Kw::Return => "return",
        }
    }

    /// The keyword an identifier spells, ignoring ASCII case.
    pub fn lookup(word: &[u8]) -> Option<Kw> {
        Kw::ALL
            .into_iter()
            .find(|kw| kw.as_str().as_bytes().eq_ignore_ascii_case(word))
    }
}

/// A lexical token kind.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Tok {
    /// Identifier, tagged with the keyword it spells (if any). Its text is
    /// the token's span of the source, in the source's case.
    Ident(Option<Kw>),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `**`
    StarStar,
    /// `/`
    Slash,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// `<` or `.lt.`
    Lt,
    /// `<=` or `.le.`
    Le,
    /// `>` or `.gt.`
    Gt,
    /// `>=` or `.ge.`
    Ge,
    /// `==` or `.eq.`
    EqEq,
    /// `/=` or `.ne.`
    Ne,
    /// `.and.`
    And,
    /// `.or.`
    Or,
    /// `.not.`
    Not,
    /// `.true.`
    True,
    /// `.false.`
    False,
    /// End of a statement (newline or `;`).
    Newline,
    /// End of input.
    Eof,
}

/// Prints a non-identifier token as diagnostics quote it. Identifiers need
/// their source text; see [`Token::shown`].
impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(Some(kw)) => write!(f, "`{}`", kw.as_str()),
            Tok::Ident(None) => f.write_str("identifier"),
            Tok::Int(n) => write!(f, "{n}"),
            Tok::Real(x) => write!(f, "{x}"),
            Tok::Plus => f.write_str("+"),
            Tok::Minus => f.write_str("-"),
            Tok::Star => f.write_str("*"),
            Tok::StarStar => f.write_str("**"),
            Tok::Slash => f.write_str("/"),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::Comma => f.write_str(","),
            Tok::Assign => f.write_str("="),
            Tok::Lt => f.write_str(".lt."),
            Tok::Le => f.write_str(".le."),
            Tok::Gt => f.write_str(".gt."),
            Tok::Ge => f.write_str(".ge."),
            Tok::EqEq => f.write_str(".eq."),
            Tok::Ne => f.write_str(".ne."),
            Tok::And => f.write_str(".and."),
            Tok::Or => f.write_str(".or."),
            Tok::Not => f.write_str(".not."),
            Tok::True => f.write_str(".true."),
            Tok::False => f.write_str(".false."),
            Tok::Newline => f.write_str("end of line"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// A token paired with its source span.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Token {
    /// The token kind and payload.
    pub tok: Tok,
    /// Where it came from.
    pub span: Span,
}

impl Token {
    /// The token's source text (`src` must be the source it was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.span.start..self.span.end]
    }

    /// The token as diagnostics quote it: identifiers print their
    /// lower-cased text in backquotes, other tokens as [`Tok`] prints them.
    pub fn shown<'a>(&self, src: &'a str) -> impl fmt::Display + 'a {
        Shown { token: *self, src }
    }
}

struct Shown<'a> {
    token: Token,
    src: &'a str,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Tok::Ident(_) = self.token.tok else {
            return self.token.tok.fmt(f);
        };
        f.write_str("`")?;
        for c in self.token.text(self.src).chars() {
            fmt::Write::write_char(f, c.to_ascii_lowercase())?;
        }
        f.write_str("`")
    }
}
