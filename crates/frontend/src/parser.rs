//! Recursive-descent parser for the mini-Fortran language.

use crate::ast::*;
use crate::diag::{FrontendError, Phase};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Tok, Token};

/// Parses a full program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
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
    Parser { toks, pos: 0 }.program()
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> FrontendError {
        FrontendError::new(Phase::Parse, msg, self.span())
    }

    fn expect(&mut self, tok: Tok) -> Result<Token, FrontendError> {
        if *self.peek() == tok {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {tok}, found {}", self.peek())))
        }
    }

    /// Consumes an identifier token, returning its text.
    fn ident(&mut self) -> Result<(String, Span), FrontendError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                let sp = self.span();
                self.bump();
                Ok((s, sp))
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    /// Returns `true` (without consuming) if the next token is the keyword.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    /// Consumes the keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), FrontendError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn skip_newlines(&mut self) {
        while *self.peek() == Tok::Newline {
            self.bump();
        }
    }

    fn end_of_stmt(&mut self) -> Result<(), FrontendError> {
        match self.peek() {
            Tok::Newline => {
                self.bump();
                Ok(())
            }
            Tok::Eof => Ok(()),
            other => Err(self.err(format!("expected end of statement, found {other}"))),
        }
    }

    fn program(&mut self) -> Result<Program, FrontendError> {
        let mut units = Vec::new();
        self.skip_newlines();
        while *self.peek() != Tok::Eof {
            units.push(self.subroutine()?);
            self.skip_newlines();
        }
        if units.is_empty() {
            return Err(self.err("empty program: expected at least one subroutine"));
        }
        Ok(Program { units })
    }

    fn subroutine(&mut self) -> Result<Subroutine, FrontendError> {
        let start = self.span();
        self.expect_kw("subroutine")?;
        let (name, _) = self.ident()?;
        let mut params = Vec::new();
        if *self.peek() == Tok::LParen {
            self.bump();
            if *self.peek() != Tok::RParen {
                loop {
                    let (p, _) = self.ident()?;
                    params.push(p);
                    if *self.peek() == Tok::Comma {
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
        while self.at_type_keyword() {
            decls.push(self.decl()?);
            self.skip_newlines();
        }

        let body = self.stmts()?;
        self.expect_kw("end")?;
        // Accept `end`, `end subroutine`, `end subroutine name`.
        if self.eat_kw("subroutine") {
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

    fn at_type_keyword(&self) -> bool {
        self.at_kw("integer") || self.at_kw("real") || self.at_kw("logical")
    }

    fn decl(&mut self) -> Result<Decl, FrontendError> {
        let span = self.span();
        let (kw, _) = self.ident()?;
        let ty = match kw.as_str() {
            "integer" => BaseType::Integer,
            "real" => BaseType::Real,
            "logical" => BaseType::Logical,
            _ => unreachable!("guarded by at_type_keyword"),
        };
        let mut vars = Vec::new();
        loop {
            let (name, _) = self.ident()?;
            let mut dims = Vec::new();
            if *self.peek() == Tok::LParen {
                self.bump();
                loop {
                    dims.push(self.expr()?);
                    if *self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(Tok::RParen)?;
            }
            vars.push(DeclVar { name, dims });
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.end_of_stmt()?;
        Ok(Decl { ty, vars, span })
    }

    /// Parses statements until an `end`/`else`/`enddo`/`endif` keyword.
    fn stmts(&mut self) -> Result<Vec<Stmt>, FrontendError> {
        let mut out = Vec::new();
        loop {
            self.skip_newlines();
            if *self.peek() == Tok::Eof
                || self.at_kw("end")
                || self.at_kw("enddo")
                || self.at_kw("endif")
                || self.at_kw("else")
            {
                return Ok(out);
            }
            out.push(self.stmt()?);
        }
    }

    fn stmt(&mut self) -> Result<Stmt, FrontendError> {
        if self.at_kw("do") {
            self.do_stmt()
        } else if self.at_kw("if") {
            self.if_stmt()
        } else if self.at_kw("call") {
            self.call_stmt()
        } else if self.at_kw("return") {
            let span = self.span();
            self.bump();
            self.end_of_stmt()?;
            Ok(Stmt::Return { span })
        } else {
            self.assign_stmt()
        }
    }

    fn do_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let span = self.span();
        self.expect_kw("do")?;
        if self.at_kw("while") {
            self.bump();
            self.expect(Tok::LParen)?;
            let cond = self.expr()?;
            self.expect(Tok::RParen)?;
            self.end_of_stmt()?;
            let body = self.stmts()?;
            if !self.eat_kw("enddo") {
                self.expect_kw("end")?;
                self.expect_kw("do")?;
            }
            self.end_of_stmt()?;
            return Ok(Stmt::DoWhile { cond, body, span });
        }
        let (var, _) = self.ident()?;
        self.expect(Tok::Assign)?;
        let lb = self.expr()?;
        self.expect(Tok::Comma)?;
        let ub = self.expr()?;
        let step = if *self.peek() == Tok::Comma {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        self.end_of_stmt()?;
        let body = self.stmts()?;
        if self.eat_kw("enddo") {
            // one-word form
        } else {
            self.expect_kw("end")?;
            self.expect_kw("do")?;
        }
        self.end_of_stmt()?;
        Ok(Stmt::Do {
            var,
            lb,
            ub,
            step,
            body,
            span,
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let span = self.span();
        self.expect_kw("if")?;
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        if self.eat_kw("then") {
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
    fn if_tail(&mut self, cond: Expr, span: Span) -> Result<Stmt, FrontendError> {
        let then_body = self.stmts()?;
        let mut else_body = Vec::new();
        if self.eat_kw("else") {
            if self.at_kw("if") {
                // `else if (...) then`: continues the same construct; the
                // recursive tail consumes the shared `end if`.
                let span2 = self.span();
                self.expect_kw("if")?;
                self.expect(Tok::LParen)?;
                let cond2 = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect_kw("then")?;
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
        if !self.eat_kw("endif") {
            self.expect_kw("end")?;
            self.expect_kw("if")?;
        }
        self.end_of_stmt()?;
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
            span,
        })
    }

    fn call_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let span = self.span();
        self.expect_kw("call")?;
        let (name, _) = self.ident()?;
        let mut args = Vec::new();
        if *self.peek() == Tok::LParen {
            self.bump();
            if *self.peek() != Tok::RParen {
                loop {
                    args.push(self.expr()?);
                    if *self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen)?;
        }
        self.end_of_stmt()?;
        Ok(Stmt::Call { name, args, span })
    }

    fn assign_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let span = self.span();
        let target = self.primary()?;
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

    // --- expressions, lowest precedence first -------------------------------

    fn expr(&mut self) -> Result<Expr, FrontendError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.and_expr()?;
        while *self.peek() == Tok::Or {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.not_expr()?;
        while *self.peek() == Tok::And {
            self.bump();
            let rhs = self.not_expr()?;
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, FrontendError> {
        if *self.peek() == Tok::Not {
            self.bump();
            let operand = self.not_expr()?;
            Ok(Expr::unary(UnOp::Not, operand))
        } else {
            self.rel_expr()
        }
    }

    fn rel_expr(&mut self) -> Result<Expr, FrontendError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            Tok::EqEq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::binary(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, FrontendError> {
        match self.peek() {
            Tok::Minus => {
                self.bump();
                let operand = self.unary_expr()?;
                Ok(Expr::unary(UnOp::Neg, operand))
            }
            Tok::Plus => {
                self.bump();
                self.unary_expr()
            }
            _ => self.pow_expr(),
        }
    }

    fn pow_expr(&mut self) -> Result<Expr, FrontendError> {
        let base = self.primary()?;
        if *self.peek() == Tok::StarStar {
            self.bump();
            // `**` is right-associative; `a ** -b` is accepted.
            let exp = self.unary_expr()?;
            Ok(Expr::binary(BinOp::Pow, base, exp))
        } else {
            Ok(base)
        }
    }

    fn primary(&mut self) -> Result<Expr, FrontendError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Expr::IntLit(n))
            }
            Tok::Real(x) => {
                self.bump();
                Ok(Expr::RealLit(x))
            }
            Tok::True => {
                self.bump();
                Ok(Expr::LogicalLit(true))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::LogicalLit(false))
            }
            Tok::LParen => {
                self.bump();
                let inner = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(inner)
            }
            Tok::Ident(name) => {
                self.bump();
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    if let Some(func) = Intrinsic::from_name(&name) {
                        Ok(Expr::Intrinsic { func, args })
                    } else {
                        Ok(Expr::ArrayRef {
                            name,
                            indices: args,
                        })
                    }
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
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
}
