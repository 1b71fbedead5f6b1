//! Recursive-descent parser for the mini-Fortran language.
//!
//! The parser walks the token vector by index. Tokens are `Copy` and carry
//! no text, so the only allocations are the AST's own: its nodes, its
//! vectors, and one lower-cased `String` per name it keeps.

use crate::ast::*;
use crate::diag::{FrontendError, Phase};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Kw, Tok, Token};

/// The deepest expression [`parse`] accepts.
///
/// An atom (literal, variable) has depth 1. Each operator node, prefix
/// operator, parenthesis pair and argument list adds one level on top of
/// its deepest operand, so `((x))`, `-(-x)`, `x + x + x` and `f(g(x))`
/// have depths 3, 4, 3 and 3. Nesting and long left-deep chains both
/// count, which bounds the recursion of the parser and of every later
/// walk over the tree (sema, translation, hashing, dropping). At this
/// limit a prediction still fits a 2 MiB thread stack in a debug build;
/// there, parenthesis nesting is the deepest shape and overflows at about
/// 400 levels.
/// [`crate::normalize::validate_emittable`] applies the same limit to the
/// depth a subroutine's re-emitted source would parse at.
pub const MAX_EXPR_DEPTH: u32 = 256;

/// Parses a full program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered, including
/// an expression deeper than [`MAX_EXPR_DEPTH`].
///
/// # Examples
///
/// ```
/// use presage_frontend::parse;
///
/// let prog = parse(
///     "subroutine axpy(y, x, a, n)
///        real y(n), x(n), a
///        integer i, n
///        do i = 1, n
///          y(i) = y(i) + a * x(i)
///        end do
///      end",
/// ).unwrap();
/// assert_eq!(prog.units[0].name, "axpy");
/// ```
pub fn parse(src: &str) -> Result<Program, FrontendError> {
    let toks = lex(src)?;
    Parser {
        src,
        toks,
        pos: 0,
        nest: 0,
    }
    .program()
}

/// An expression and its depth (see [`MAX_EXPR_DEPTH`]).
type Sub = (Expr, u32);

type PResult<T> = Result<T, FrontendError>;

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Token>,
    pos: usize,
    /// Expression constructs open around the current position: parentheses,
    /// prefix operators, argument lists and `**` exponents. Each adds a
    /// level to the expression being parsed, so this is a lower bound on
    /// its depth, and it stops the recursion at the limit.
    nest: u32,
}

impl Parser<'_> {
    fn peek(&self) -> Tok {
        self.toks[self.pos].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    fn err(&self, msg: impl Into<String>) -> FrontendError {
        FrontendError::new(Phase::Parse, msg, self.span())
    }

    /// The current token as diagnostics quote it.
    fn found(&self) -> impl std::fmt::Display + '_ {
        self.toks[self.pos].shown(self.src)
    }

    fn expect(&mut self, tok: Tok) -> PResult<()> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {tok}, found {}", self.found())))
        }
    }

    /// Consumes an identifier token (keyword-tagged or not), returning its
    /// lower-cased text: the one allocation a name costs.
    fn ident(&mut self) -> PResult<String> {
        let t = self.toks[self.pos];
        if let Tok::Ident(_) = t.tok {
            self.bump();
            Ok(t.text(self.src).to_ascii_lowercase())
        } else {
            Err(self.err(format!("expected identifier, found {}", self.found())))
        }
    }

    /// Returns `true` (without consuming) if the next token is the keyword.
    fn at_kw(&self, kw: Kw) -> bool {
        self.peek() == Tok::Ident(Some(kw))
    }

    /// Consumes the keyword if present.
    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> PResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {}",
                kw.as_str(),
                self.found()
            )))
        }
    }

    fn skip_newlines(&mut self) {
        while self.peek() == Tok::Newline {
            self.bump();
        }
    }

    fn end_of_stmt(&mut self) -> PResult<()> {
        match self.peek() {
            Tok::Newline => {
                self.bump();
                Ok(())
            }
            Tok::Eof => Ok(()),
            _ => Err(self.err(format!("expected end of statement, found {}", self.found()))),
        }
    }

    fn program(&mut self) -> PResult<Program> {
        let mut units = Vec::new();
        self.skip_newlines();
        while self.peek() != Tok::Eof {
            units.push(self.subroutine()?);
            self.skip_newlines();
        }
        if units.is_empty() {
            return Err(self.err("empty program: expected at least one subroutine"));
        }
        Ok(Program { units })
    }

    fn subroutine(&mut self) -> PResult<Subroutine> {
        let start = self.span();
        self.expect_kw(Kw::Subroutine)?;
        let name = self.ident()?;
        let mut params = Vec::new();
        if self.peek() == Tok::LParen {
            self.bump();
            if self.peek() != Tok::RParen {
                loop {
                    params.push(self.ident()?);
                    if self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen)?;
        }
        self.end_of_stmt()?;
        self.skip_newlines();

        let mut decls = Vec::new();
        while let Some(ty) = self.type_keyword() {
            decls.push(self.decl(ty)?);
            self.skip_newlines();
        }

        let body = self.stmts()?;
        self.expect_kw(Kw::End)?;
        // Accept `end`, `end subroutine`, `end subroutine name`.
        if self.eat_kw(Kw::Subroutine) {
            if let Tok::Ident(_) = self.peek() {
                self.bump();
            }
        }
        self.end_of_stmt()?;
        Ok(Subroutine {
            name,
            params,
            decls,
            body,
            span: start,
        })
    }

    /// The base type the next token declares, if it is a type keyword.
    fn type_keyword(&self) -> Option<BaseType> {
        match self.peek() {
            Tok::Ident(Some(Kw::Integer)) => Some(BaseType::Integer),
            Tok::Ident(Some(Kw::Real)) => Some(BaseType::Real),
            Tok::Ident(Some(Kw::Logical)) => Some(BaseType::Logical),
            _ => None,
        }
    }

    /// A declaration line whose type keyword is the next token.
    fn decl(&mut self, ty: BaseType) -> PResult<Decl> {
        let span = self.span();
        self.bump();
        let mut vars = Vec::new();
        loop {
            let name = self.ident()?;
            let mut dims = Vec::new();
            if self.peek() == Tok::LParen {
                self.bump();
                loop {
                    dims.push(self.expr()?);
                    if self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(Tok::RParen)?;
            }
            vars.push(DeclVar { name, dims });
            if self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.end_of_stmt()?;
        Ok(Decl { ty, vars, span })
    }

    /// Parses statements until an `end`/`else`/`enddo`/`endif` keyword.
    fn stmts(&mut self) -> PResult<Vec<Stmt>> {
        let mut out = Vec::new();
        loop {
            self.skip_newlines();
            if matches!(
                self.peek(),
                Tok::Eof | Tok::Ident(Some(Kw::End | Kw::EndDo | Kw::EndIf | Kw::Else))
            ) {
                return Ok(out);
            }
            out.push(self.stmt()?);
        }
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        match self.peek() {
            Tok::Ident(Some(Kw::Do)) => self.do_stmt(),
            Tok::Ident(Some(Kw::If)) => self.if_stmt(),
            Tok::Ident(Some(Kw::Call)) => self.call_stmt(),
            Tok::Ident(Some(Kw::Return)) => {
                let span = self.span();
                self.bump();
                self.end_of_stmt()?;
                Ok(Stmt::Return { span })
            }
            _ => self.assign_stmt(),
        }
    }

    fn do_stmt(&mut self) -> PResult<Stmt> {
        let span = self.span();
        self.expect_kw(Kw::Do)?;
        if self.eat_kw(Kw::While) {
            self.expect(Tok::LParen)?;
            let cond = self.expr()?;
            self.expect(Tok::RParen)?;
            self.end_of_stmt()?;
            let body = self.stmts()?;
            self.end_do()?;
            return Ok(Stmt::DoWhile { cond, body, span });
        }
        let var = self.ident()?;
        self.expect(Tok::Assign)?;
        let lb = self.expr()?;
        self.expect(Tok::Comma)?;
        let ub = self.expr()?;
        let step = if self.peek() == Tok::Comma {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        self.end_of_stmt()?;
        let body = self.stmts()?;
        self.end_do()?;
        Ok(Stmt::Do {
            var,
            lb,
            ub,
            step,
            body,
            span,
        })
    }

    /// `enddo` or `end do`, then the end of the statement.
    fn end_do(&mut self) -> PResult<()> {
        if !self.eat_kw(Kw::EndDo) {
            self.expect_kw(Kw::End)?;
            self.expect_kw(Kw::Do)?;
        }
        self.end_of_stmt()
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        let span = self.span();
        self.expect_kw(Kw::If)?;
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        if self.eat_kw(Kw::Then) {
            self.end_of_stmt()?;
            self.if_tail(cond, span)
        } else {
            // One-line logical if: `if (cond) stmt`.
            let inner = self.stmt()?;
            Ok(Stmt::If {
                cond,
                then_body: vec![inner],
                else_body: Vec::new(),
                span,
            })
        }
    }

    /// Parses the body of a block `if` after its `then` line, handling
    /// `else if` chains that share a single `end if` terminator.
    fn if_tail(&mut self, cond: Expr, span: Span) -> PResult<Stmt> {
        let then_body = self.stmts()?;
        let mut else_body = Vec::new();
        if self.eat_kw(Kw::Else) {
            if self.at_kw(Kw::If) {
                // `else if (...) then`: continues the same construct; the
                // recursive tail consumes the shared `end if`.
                let span2 = self.span();
                self.expect_kw(Kw::If)?;
                self.expect(Tok::LParen)?;
                let cond2 = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect_kw(Kw::Then)?;
                self.end_of_stmt()?;
                else_body.push(self.if_tail(cond2, span2)?);
                return Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span,
                });
            }
            self.end_of_stmt()?;
            else_body = self.stmts()?;
        }
        if !self.eat_kw(Kw::EndIf) {
            self.expect_kw(Kw::End)?;
            self.expect_kw(Kw::If)?;
        }
        self.end_of_stmt()?;
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
            span,
        })
    }

    fn call_stmt(&mut self) -> PResult<Stmt> {
        let span = self.span();
        self.expect_kw(Kw::Call)?;
        let name = self.ident()?;
        let mut args = Vec::new();
        if self.peek() == Tok::LParen {
            self.bump();
            args = self.args()?.0;
        }
        self.end_of_stmt()?;
        Ok(Stmt::Call { name, args, span })
    }

    fn assign_stmt(&mut self) -> PResult<Stmt> {
        let span = self.span();
        let (target, _) = self.primary()?;
        match &target {
            Expr::Var(_) | Expr::ArrayRef { .. } => {}
            other => return Err(self.err(format!("cannot assign to `{other}`"))),
        }
        self.expect(Tok::Assign)?;
        let value = self.expr()?;
        self.end_of_stmt()?;
        Ok(Stmt::Assign {
            target,
            value,
            span,
        })
    }

    // --- expressions: precedence climbing over the levels below ---------

    /// One whole expression of a statement.
    fn expr(&mut self) -> PResult<Expr> {
        Ok(self.expr_from(OR)?.0)
    }

    /// Runs `parse` one construct deeper (inside a parenthesis, a prefix
    /// operator, an argument list or an exponent), failing before the
    /// recursion passes the depth limit.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        // The innermost operand adds at least one more level.
        if self.nest + 1 >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.nest += 1;
        let out = parse(self);
        self.nest -= 1;
        out
    }

    /// The depth of a node one level above `depth`, within the limit.
    fn deeper(&self, depth: u32) -> PResult<u32> {
        if depth >= MAX_EXPR_DEPTH {
            Err(self.too_deep())
        } else {
            Ok(depth + 1)
        }
    }

    fn too_deep(&self) -> FrontendError {
        self.err(format!(
            "expression nested deeper than the limit of {MAX_EXPR_DEPTH} levels"
        ))
    }

    /// An expression whose operators all sit at level `min` or tighter.
    ///
    /// The grammar, loosest first: `.or.`, `.and.` (both left-associative),
    /// prefix `.not.` (its operand stops before `.and.`), one
    /// non-associative relation, `+ -`, `* /` (left-associative), prefix
    /// `-`/`+` (its operand stops before `*`), then `primary ** operand`
    /// with a right-associative exponent that may carry a prefix sign.
    fn expr_from(&mut self, min: u8) -> PResult<Sub> {
        // `ceiling`: the tightest level that may still extend `lhs`.
        let (mut lhs, mut depth, mut ceiling) = match self.peek() {
            Tok::Not if min <= NOT => {
                self.bump();
                let (operand, d) = self.nested(|p| p.expr_from(NOT))?;
                (Expr::unary(UnOp::Not, operand), self.deeper(d)?, AND)
            }
            sign @ (Tok::Minus | Tok::Plus) if min <= SIGN => {
                self.bump();
                let (operand, d) = self.nested(|p| p.expr_from(SIGN))?;
                let e = if sign == Tok::Minus {
                    Expr::unary(UnOp::Neg, operand)
                } else {
                    operand
                };
                (e, self.deeper(d)?, POW)
            }
            _ => {
                let (e, d) = self.primary()?;
                (e, d, POW)
            }
        };
        while let Some((op, level)) = infix(self.peek()) {
            if level < min || level > ceiling {
                break;
            }
            self.bump();
            let (rhs, d) = if op == BinOp::Pow {
                self.nested(|p| p.expr_from(SIGN))?
            } else {
                self.expr_from(level + 1)?
            };
            depth = self.deeper(depth.max(d))?;
            lhs = Expr::binary(op, lhs, rhs);
            // The operand took every tighter operator, so only this level
            // or looser ones may follow; relations do not chain at all.
            ceiling = ceiling.min(if level == REL { AND } else { level });
        }
        Ok((lhs, depth))
    }

    /// An argument list after its `(`, through the closing `)`, with the
    /// depth of its deepest argument (0 when empty).
    fn args(&mut self) -> PResult<(Vec<Expr>, u32)> {
        let mut args = Vec::new();
        let mut depth = 0;
        if self.peek() != Tok::RParen {
            loop {
                let (e, d) = self.expr_from(OR)?;
                args.push(e);
                depth = depth.max(d);
                if self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok((args, depth))
    }

    fn primary(&mut self) -> PResult<Sub> {
        let t = self.toks[self.pos];
        let atom = match t.tok {
            Tok::Int(n) => Expr::IntLit(n),
            Tok::Real(x) => Expr::RealLit(x),
            Tok::True => Expr::LogicalLit(true),
            Tok::False => Expr::LogicalLit(false),
            Tok::LParen => {
                self.bump();
                let (inner, d) = self.nested(|p| p.expr_from(OR))?;
                self.expect(Tok::RParen)?;
                return Ok((inner, self.deeper(d)?));
            }
            Tok::Ident(_) => {
                self.bump();
                return self.named(t);
            }
            _ => return Err(self.err(format!("expected expression, found {}", self.found()))),
        };
        self.bump();
        Ok((atom, 1))
    }

    /// A variable, array reference or intrinsic call whose name token `t`
    /// was just consumed. Kept out of [`Self::primary`] so the frames of
    /// the parenthesis recursion stay small.
    fn named(&mut self, t: Token) -> PResult<Sub> {
        let text = t.text(self.src);
        if self.peek() != Tok::LParen {
            return Ok((Expr::Var(text.to_ascii_lowercase()), 1));
        }
        self.bump();
        let (args, d) = self.nested(Self::args)?;
        let e = match intrinsic_named(text) {
            Some(func) => Expr::Intrinsic { func, args },
            None => Expr::ArrayRef {
                name: text.to_ascii_lowercase(),
                indices: args,
            },
        };
        Ok((e, self.deeper(d)?))
    }
}

// Binding levels, loosest first (see `Parser::expr_from`).
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
const REL: u8 = 4;
const ADD: u8 = 5;
const MUL: u8 = 6;
const SIGN: u8 = 7;
const POW: u8 = 8;

/// The binary operator a token spells, with its level.
fn infix(tok: Tok) -> Option<(BinOp, u8)> {
    Some(match tok {
        Tok::Or => (BinOp::Or, OR),
        Tok::And => (BinOp::And, AND),
        Tok::Lt => (BinOp::Lt, REL),
        Tok::Le => (BinOp::Le, REL),
        Tok::Gt => (BinOp::Gt, REL),
        Tok::Ge => (BinOp::Ge, REL),
        Tok::EqEq => (BinOp::Eq, REL),
        Tok::Ne => (BinOp::Ne, REL),
        Tok::Plus => (BinOp::Add, ADD),
        Tok::Minus => (BinOp::Sub, ADD),
        Tok::Star => (BinOp::Mul, MUL),
        Tok::Slash => (BinOp::Div, MUL),
        Tok::StarStar => (BinOp::Pow, POW),
        _ => return None,
    })
}

/// The intrinsic an identifier names, matched without regard to case and
/// without allocating (every intrinsic name fits the buffer).
fn intrinsic_named(text: &str) -> Option<Intrinsic> {
    let mut buf = [0u8; 8];
    let lower = buf.get_mut(..text.len())?;
    lower.copy_from_slice(text.as_bytes());
    lower.make_ascii_lowercase();
    Intrinsic::from_name(std::str::from_utf8(lower).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"))
    }

    fn wrap(body: &str) -> String {
        format!("subroutine t(a, b, c, n, k)\nreal a(n,n), b(n,n), c(n,n)\ninteger i, j, n, k\n{body}\nend\n")
    }

    #[test]
    fn minimal_subroutine() {
        let p = parse_ok("subroutine s()\nreturn\nend");
        assert_eq!(p.units.len(), 1);
        assert_eq!(p.units[0].name, "s");
        assert!(matches!(p.units[0].body[0], Stmt::Return { .. }));
    }

    #[test]
    fn params_and_decls() {
        let p = parse_ok("subroutine s(x, n)\nreal x(n)\ninteger n\nx(1) = 0.0\nend");
        let s = &p.units[0];
        assert_eq!(s.params, ["x", "n"]);
        assert_eq!(s.decls.len(), 2);
        assert_eq!(s.decls[0].vars[0].dims.len(), 1);
    }

    #[test]
    fn do_loop_with_step() {
        let p = parse_ok(&wrap("do i = 1, n, 2\na(i,1) = 0.0\nend do"));
        match &p.units[0].body[0] {
            Stmt::Do {
                var, step, body, ..
            } => {
                assert_eq!(var, "i");
                assert_eq!(step.as_ref().unwrap().as_int(), Some(2));
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected Do, got {other:?}"),
        }
    }

    #[test]
    fn enddo_one_word() {
        parse_ok(&wrap("do i = 1, n\na(i,1) = 0.0\nenddo"));
    }

    #[test]
    fn nested_loops() {
        let p = parse_ok(&wrap(
            "do i = 1, n\ndo j = 1, n\na(i,j) = b(i,j)\nend do\nend do",
        ));
        match &p.units[0].body[0] {
            Stmt::Do { body, .. } => assert!(matches!(body[0], Stmt::Do { .. })),
            _ => panic!(),
        }
    }

    #[test]
    fn block_if_else() {
        let p = parse_ok(&wrap(
            "if (i .le. k) then\na(i,1) = 0.0\nelse\nb(i,1) = 0.0\nend if",
        ));
        match &p.units[0].body[0] {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(then_body.len(), 1);
                assert_eq!(else_body.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn endif_one_word() {
        parse_ok(&wrap("if (i .le. k) then\na(i,1) = 0.0\nendif"));
    }

    #[test]
    fn else_if_chain() {
        let p = parse_ok(&wrap(
            "if (i .lt. 1) then\na(i,1) = 0.0\nelse if (i .lt. 2) then\nb(i,1) = 0.0\nelse\nc(i,1) = 0.0\nend if",
        ));
        match &p.units[0].body[0] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0], Stmt::If { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn one_line_if() {
        let p = parse_ok(&wrap("if (i .gt. k) a(i,1) = 0.0"));
        match &p.units[0].body[0] {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(then_body.len(), 1);
                assert!(else_body.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn call_statement() {
        let p = parse_ok(&wrap("call dgemm(a, b, n)"));
        match &p.units[0].body[0] {
            Stmt::Call { name, args, .. } => {
                assert_eq!(name, "dgemm");
                assert_eq!(args.len(), 3);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_ok(&wrap("a(1,1) = b(1,1) + c(1,1) * 2.0"));
        match &p.units[0].body[0] {
            Stmt::Assign { value, .. } => {
                assert_eq!(value.to_string(), "(b(1,1) + (c(1,1) * 2.0))");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn power_is_right_assoc_and_tight() {
        let p = parse_ok(&wrap("a(1,1) = -b(1,1) ** 2"));
        match &p.units[0].body[0] {
            Stmt::Assign { value, .. } => {
                // Fortran: -(b ** 2)
                assert_eq!(value.to_string(), "(-(b(1,1) ** 2))");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn logical_operators() {
        let p = parse_ok(&wrap("if (i .lt. n .and. .not. (j .gt. k)) a(i,j) = 0.0"));
        match &p.units[0].body[0] {
            Stmt::If { cond, .. } => {
                assert!(cond.to_string().contains(".and."));
                assert!(cond.to_string().contains(".not."));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn intrinsics_parse() {
        let p = parse_ok(&wrap("a(1,1) = sqrt(abs(b(1,1)))"));
        match &p.units[0].body[0] {
            Stmt::Assign {
                value: Expr::Intrinsic { func, .. },
                ..
            } => assert_eq!(*func, Intrinsic::Sqrt),
            _ => panic!(),
        }
    }

    #[test]
    fn multiple_subroutines() {
        let p = parse_ok("subroutine a()\nreturn\nend\n\nsubroutine b()\nreturn\nend");
        assert_eq!(p.units.len(), 2);
        assert!(p.subroutine("b").is_some());
        assert!(p.subroutine("zz").is_none());
    }

    #[test]
    fn end_subroutine_name_form() {
        parse_ok("subroutine s()\nreturn\nend subroutine s");
    }

    #[test]
    fn error_missing_end() {
        assert!(parse("subroutine s()\nx = 1\n").is_err());
    }

    #[test]
    fn error_assign_to_literal() {
        let err = parse(&wrap("1 = 2")).unwrap_err();
        assert!(err.message.contains("cannot assign"), "{err}");
    }

    #[test]
    fn error_reports_line() {
        let err = parse("subroutine s()\nx = )\nend").unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn empty_program_rejected() {
        assert!(parse("\n\n").is_err());
    }

    /// `y = <expr>` in a subroutine that declares `x` and `y`.
    fn assign(expr: &str) -> String {
        format!("subroutine s(x, y)\nreal x, y\ny = {expr}\nend")
    }

    /// The three shapes that once overflowed the stack, at depth `d`.
    fn shapes(d: usize) -> [(&'static str, String); 3] {
        let n = d - 1;
        [
            ("parens", format!("{}x{}", "(".repeat(n), ")".repeat(n))),
            ("prefix minus", format!("{}x", "-".repeat(n))),
            ("left-deep chain", format!("x{}", "+x".repeat(n))),
        ]
    }

    fn depth_error(src: &str) -> FrontendError {
        let err = parse(src).expect_err("too deep");
        assert_eq!(err.phase, Phase::Parse);
        assert!(
            err.message
                .contains(&format!("limit of {MAX_EXPR_DEPTH} levels")),
            "{err}"
        );
        err
    }

    #[test]
    fn depth_counts_levels_as_documented() {
        let depth = |e: &str| {
            let src = format!("{e}\n");
            let toks = lex(&src).unwrap();
            let mut p = Parser {
                src: &src,
                toks,
                pos: 0,
                nest: 0,
            };
            p.expr_from(OR).unwrap().1
        };
        assert_eq!(depth("x"), 1);
        assert_eq!(depth("((x))"), 3);
        assert_eq!(depth("-(-x)"), 4);
        assert_eq!(depth("x + x + x"), 3);
        assert_eq!(depth("f(g(x))"), 3);
        assert_eq!(depth("a ** b ** c"), 3);
        assert_eq!(depth(".not. x .and. y"), 3);
        assert_eq!(depth("f()"), 1);
    }

    #[test]
    fn expressions_at_the_depth_limit_parse() {
        for (shape, e) in shapes(MAX_EXPR_DEPTH as usize) {
            assert!(parse(&assign(&e)).is_ok(), "{shape}");
        }
    }

    #[test]
    fn expressions_past_the_depth_limit_are_rejected() {
        for (shape, e) in shapes(MAX_EXPR_DEPTH as usize + 1) {
            let err = depth_error(&assign(&e));
            assert_eq!(err.span.line, 3, "{shape}: {err}");
        }
    }

    #[test]
    fn hostile_depths_are_rejected_without_exhausting_the_stack() {
        const N: usize = 100_000;
        let mut hostile: Vec<String> = shapes(N).into_iter().map(|(_, e)| e).collect();
        hostile.push(format!("{}x", ".not. ".repeat(N)));
        hostile.push(format!("x{}", " ** x".repeat(N)));
        hostile.push(format!("{}x{}", "f(".repeat(N), ")".repeat(N)));
        hostile.push(format!("{}x", "+".repeat(N)));
        for e in hostile {
            depth_error(&assign(&e));
        }
    }
}
