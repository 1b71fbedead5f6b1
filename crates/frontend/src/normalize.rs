//! AST-level structural normalization: canonical program identity
//! without printing or re-lexing source.
//!
//! The optimizer historically canonicalized every program variant by
//! re-emitting its source and re-parsing it — re-emission normalizes
//! formatting, re-parsing normalizes the handful of AST shapes that
//! print identically. That round trip is the hot path of the
//! transformation search, and all of its normalizing effects are
//! mirrorable on the AST directly. [`normalize`] is that mirror, plus
//! the structural identities the textual pipeline cannot see:
//!
//! * **Parser-image folding** — the shapes the parser can never produce
//!   are rewritten to the shapes it does: negated numeric literals fold
//!   into signed literals (`Unary(Neg, IntLit(3))` → `IntLit(-3)`; the
//!   parser has no negative-literal token), array references whose name
//!   is an intrinsic become [`Intrinsic`] calls (the parser resolves
//!   `name(args)` through [`Intrinsic::from_name`] unconditionally), and
//!   names are lower-cased (the lexer lower-cases every identifier).
//! * **Commutative-operand ordering** — operands of `+`, `*`, `max`,
//!   and `min` sort under a total structural order, so `a + b` and
//!   `b + a` share a hash. Operand order never reaches the scheduler:
//!   both sides translate to the same operation with the same
//!   dependences.
//! * **Alpha-canonicalization** — loop induction variables rename to
//!   positional fresh names (`\u{1}l0`, `\u{1}l1`, … in preorder; the
//!   `\u{1}` prefix is unlexable, so canonical names cannot collide
//!   with program names). Induction-variable names never appear in a
//!   cost expression — trip counts come from the bounds — so two
//!   loops differing only in index naming cost the same.
//!
//! No *cost-relevant* structure is touched: constants are not folded
//! (`1 + 2` translates to a real add), unit steps are not elided (an
//! explicit step is evaluated in the loop preheader), and declaration
//! order is preserved.
//!
//! [`validate_emittable`] is the companion predicate: it accepts
//! exactly the subroutines whose re-emitted source parses back, so the
//! structural pipeline rejects the same unrepresentable variants the
//! textual round trip rejected — without materializing the string. The
//! differential suite (`tests/normalize_differential.rs` at the
//! workspace root) proves both claims against the textual oracle over
//! the whole transform corpus.

use crate::ast::{BinOp, Decl, DeclVar, Expr, Intrinsic, Stmt, Subroutine, UnOp};
use crate::diag::{FrontendError, Phase};
use crate::fold::{encode_expr, encode_str, fold128, AST_SEED};
use crate::parser::MAX_EXPR_DEPTH;
use crate::span::Span;
use std::collections::{HashMap, HashSet};

/// Statement-leading keywords: an assignment whose target starts with
/// one of these re-parses as that statement form, not as an assignment.
const STMT_KEYWORDS: [&str; 8] = [
    "do", "if", "call", "return", "end", "enddo", "endif", "else",
];

/// Returns the normalized copy of `sub`: parser-image folding,
/// commutative-operand ordering, and alpha-canonical loop variables.
/// Spans are preserved (they never reach the hash).
pub fn normalize(sub: &Subroutine) -> Subroutine {
    let mut n = Normalizer {
        scopes: Vec::new(),
        next_loop: 0,
        first_canon: std::collections::HashMap::new(),
    };
    // Body first: it decides which declared names were loop variables.
    let body = n.stmts(&sub.body);
    let decls = sub.decls.iter().map(|d| n.decl(d, &body)).collect();
    Subroutine {
        name: sub.name.to_ascii_lowercase(),
        params: sub.params.iter().map(|p| p.to_ascii_lowercase()).collect(),
        decls,
        body,
        span: sub.span,
    }
}

/// Canonical 128-bit structural hash: [`crate::fold::subroutine_hash`]
/// of the [`normalize`]d AST. Two subroutines share this hash exactly
/// when they normalize to the same shape — the same equivalence the
/// re-emit+re-parse key induces, refined by commutativity and loop-name
/// independence.
///
/// Computed by *streaming* the normalized encoding straight off the
/// input AST: no normalized copy is materialized and no name is
/// re-allocated, so the hash costs one walk plus the fold. The result
/// is byte-for-byte the fold of `encode_subroutine(&normalize(sub))` —
/// `streaming_hash_matches_normalize_then_hash` pins that equality, and
/// the differential suite exercises it over the transform corpus.
pub fn structural_hash(sub: &Subroutine) -> u128 {
    let mut h = StreamHasher::default();
    // Body first: it decides which declared names were loop variables.
    let mut body = Vec::with_capacity(1024);
    h.stmts(&sub.body, &mut body);
    h.emitted_frozen = true;
    let mut buf = Vec::with_capacity(body.len() + 128);
    encode_lower_str(&mut buf, &sub.name);
    buf.extend_from_slice(&(sub.params.len() as u32).to_le_bytes());
    for p in &sub.params {
        encode_lower_str(&mut buf, p);
    }
    buf.extend_from_slice(&(sub.decls.len() as u32).to_le_bytes());
    for d in &sub.decls {
        h.decl(d, &mut buf);
    }
    buf.extend_from_slice(&body);
    fold128(&buf, AST_SEED)
}

struct Normalizer {
    /// Innermost-last stack of (source loop variable, canonical name).
    scopes: Vec<(String, String)>,
    next_loop: usize,
    /// First canonical name each source loop variable renamed to.
    first_canon: std::collections::HashMap<String, String>,
}

impl Normalizer {
    /// Normalizes one declaration against the already-normalized body.
    /// A scalar entry declaring a loop variable follows the rename —
    /// but only when no free use of the name survives in the body
    /// (after renaming, a leftover use means the name also lives
    /// outside loop scopes, where it is not alpha-convertible).
    fn decl(&mut self, d: &Decl, body: &[Stmt]) -> Decl {
        Decl {
            ty: d.ty,
            vars: d
                .vars
                .iter()
                .map(|v| {
                    let lower = v.name.to_ascii_lowercase();
                    let name = match self.first_canon.get(&lower) {
                        Some(canon) if v.dims.is_empty() && !name_in_use(body, &lower) => {
                            canon.clone()
                        }
                        _ => lower,
                    };
                    DeclVar {
                        name,
                        dims: v.dims.iter().map(|e| self.expr(e)).collect(),
                    }
                })
                .collect(),
            span: d.span,
        }
    }

    fn stmts(&mut self, body: &[Stmt]) -> Vec<Stmt> {
        body.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> Stmt {
        match s {
            Stmt::Assign {
                target,
                value,
                span,
            } => Stmt::Assign {
                target: self.expr(target),
                value: self.expr(value),
                span: *span,
            },
            Stmt::Do {
                var,
                lb,
                ub,
                step,
                body,
                span,
            } => {
                // Bounds are evaluated outside the loop's scope.
                let lb = self.expr(lb);
                let ub = self.expr(ub);
                let step = step.as_ref().map(|e| self.expr(e));
                let canon = format!("\u{1}l{}", self.next_loop);
                self.next_loop += 1;
                let lower = var.to_ascii_lowercase();
                self.first_canon
                    .entry(lower.clone())
                    .or_insert_with(|| canon.clone());
                self.scopes.push((lower, canon.clone()));
                let body = self.stmts(body);
                self.scopes.pop();
                Stmt::Do {
                    var: canon,
                    lb,
                    ub,
                    step,
                    body,
                    span: *span,
                }
            }
            Stmt::DoWhile { cond, body, span } => Stmt::DoWhile {
                cond: self.expr(cond),
                body: self.stmts(body),
                span: *span,
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => Stmt::If {
                cond: self.expr(cond),
                then_body: self.stmts(then_body),
                else_body: self.stmts(else_body),
                span: *span,
            },
            Stmt::Call { name, args, span } => Stmt::Call {
                name: name.to_ascii_lowercase(),
                args: args.iter().map(|a| self.expr(a)).collect(),
                span: *span,
            },
            Stmt::Return { span } => Stmt::Return { span: *span },
        }
    }

    /// Canonical name for a scalar reference: the innermost enclosing
    /// loop variable of that name, else the (lower-cased) name itself.
    fn scalar_name(&self, name: &str) -> String {
        let lower = name.to_ascii_lowercase();
        self.scopes
            .iter()
            .rev()
            .find(|(src, _)| *src == lower)
            .map(|(_, canon)| canon.clone())
            .unwrap_or(lower)
    }

    fn expr(&mut self, e: &Expr) -> Expr {
        match e {
            Expr::IntLit(_) | Expr::RealLit(_) | Expr::LogicalLit(_) => e.clone(),
            Expr::Var(name) => Expr::Var(self.scalar_name(name)),
            Expr::ArrayRef { name, indices } => {
                let name = name.to_ascii_lowercase();
                let indices: Vec<Expr> = indices.iter().map(|i| self.expr(i)).collect();
                // The parser resolves `name(args)` through the intrinsic
                // table before considering an array reference.
                match Intrinsic::from_name(&name) {
                    Some(func) => Expr::Intrinsic {
                        func,
                        args: sort_commutative_args(func, indices),
                    },
                    None => Expr::ArrayRef { name, indices },
                }
            }
            Expr::Unary { op, operand } => {
                let operand = self.expr(operand);
                match (op, operand) {
                    // The parser has no negative-literal token: `-3`
                    // always parses as Neg(IntLit(3)). Fold toward the
                    // signed literal so both shapes hash identically.
                    // (i64::MIN stays unfolded: its magnitude has no
                    // i64 representation.)
                    (UnOp::Neg, Expr::IntLit(k)) if k != i64::MIN => Expr::IntLit(-k),
                    (UnOp::Neg, Expr::RealLit(x)) => Expr::RealLit(-x),
                    (op, operand) => Expr::unary(*op, operand),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lhs = self.expr(lhs);
                let rhs = self.expr(rhs);
                let (lhs, rhs) = if commutes(*op) && encoded(&rhs) < encoded(&lhs) {
                    (rhs, lhs)
                } else {
                    (lhs, rhs)
                };
                Expr::binary(*op, lhs, rhs)
            }
            Expr::Intrinsic { func, args } => {
                let args: Vec<Expr> = args.iter().map(|a| self.expr(a)).collect();
                Expr::Intrinsic {
                    func: *func,
                    args: sort_commutative_args(*func, args),
                }
            }
        }
    }
}

/// `+` and `*` translate to one operation whose dependences ignore
/// operand order, so sorting the operands is cost-neutral.
fn commutes(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Mul)
}

/// Two-argument `max`/`min` are symmetric; other intrinsics (and other
/// arities) keep their argument order.
fn sort_commutative_args(func: Intrinsic, mut args: Vec<Expr>) -> Vec<Expr> {
    if matches!(func, Intrinsic::Max | Intrinsic::Min)
        && args.len() == 2
        && encoded(&args[1]) < encoded(&args[0])
    {
        args.swap(0, 1);
    }
    args
}

/// Canonical encoding of an already-normalized expression — the sort
/// key for commutative operands. Any total, deterministic order works
/// here; the encoding order is chosen because [`StreamHasher`] has the
/// same bytes in hand and compares them in place, so both pipelines
/// pick the same operand order (and therefore the same hash) for free.
/// This reference path re-encodes on demand; it is off the search hot
/// path.
fn encoded(e: &Expr) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_expr(&mut buf, e);
    buf
}

/// Appends a length-prefixed, ASCII-lower-cased string without
/// allocating the lowered copy. Byte-identical to
/// `encode_str(out, &s.to_ascii_lowercase())`.
fn encode_lower_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend(s.bytes().map(|b| b.to_ascii_lowercase()));
}

/// Lower-cases `name` into `tmp` only when it contains upper-case
/// ASCII; the parser lower-cases every identifier, so the borrow fast
/// path is the common one.
fn lower_tmp<'a>(name: &'a str, tmp: &'a mut String) -> &'a str {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        tmp.clear();
        tmp.extend(name.chars().map(|c| c.to_ascii_lowercase()));
        tmp
    } else {
        name
    }
}

/// The literal an expression normalizes to, if any — the streaming
/// image of the [`Normalizer`]'s negated-literal cascade (`-(-(3))`
/// folds to `3`, but `-i64::MIN` has no representation and the cascade
/// stops there).
enum NormLit {
    /// Normalizes to `Expr::IntLit` of this value.
    Int(i64),
    /// Normalizes to `Expr::RealLit` of this value.
    Real(f64),
}

fn norm_literal(e: &Expr) -> Option<NormLit> {
    match e {
        Expr::IntLit(n) => Some(NormLit::Int(*n)),
        Expr::RealLit(x) => Some(NormLit::Real(*x)),
        Expr::Unary {
            op: UnOp::Neg,
            operand,
        } => match norm_literal(operand)? {
            NormLit::Int(k) if k != i64::MIN => Some(NormLit::Int(-k)),
            NormLit::Int(_) => None,
            NormLit::Real(x) => Some(NormLit::Real(-x)),
        },
        _ => None,
    }
}

/// Streaming mirror of [`Normalizer`]: emits the fold encoding of the
/// normalized subroutine directly, without building the normalized
/// AST. Every rule here must stay in lockstep with its twin in
/// [`Normalizer`]; `streaming_hash_matches_normalize_then_hash` and
/// the workspace differential suite pin the byte equality.
#[derive(Default)]
struct StreamHasher {
    /// Innermost-last stack of (source loop variable, canonical name).
    scopes: Vec<(String, String)>,
    next_loop: usize,
    /// First canonical name each source loop variable renamed to.
    first_canon: HashMap<String, String>,
    /// Every name emitted into the body encoding — the streaming image
    /// of [`name_in_use`] over the normalized body. Frozen once the
    /// body is done: [`name_in_use`] never looks at declaration
    /// dimensions, so names streamed there must not join the set.
    emitted: HashSet<String>,
    /// Set after the body pass; stops [`Self::note_emitted`].
    emitted_frozen: bool,
    /// Reusable scratch buffers for commutative-operand comparison.
    pool: Vec<Vec<u8>>,
}

impl StreamHasher {
    /// Records a body-emitted name for the [`name_in_use`] mirror.
    fn note_emitted(&mut self, name: &str) {
        if !self.emitted_frozen && !self.emitted.contains(name) {
            self.emitted.insert(name.to_string());
        }
    }

    /// [`note_emitted`](Self::note_emitted) of the lower-cased name.
    fn note_emitted_lower(&mut self, name: &str) {
        if self.emitted_frozen {
            return;
        }
        let mut tmp = String::new();
        let lower = lower_tmp(name, &mut tmp);
        if !self.emitted.contains(lower) {
            self.emitted.insert(lower.to_string());
        }
    }

    /// Mirrors [`Normalizer::decl`] against the already-streamed body:
    /// a scalar entry declaring a loop variable follows the rename,
    /// unless the name still occurs free in the normalized body.
    fn decl(&mut self, d: &Decl, out: &mut Vec<u8>) {
        out.push(d.ty as u8);
        out.extend_from_slice(&(d.vars.len() as u32).to_le_bytes());
        for v in &d.vars {
            let mut tmp = String::new();
            let lower = lower_tmp(&v.name, &mut tmp);
            let canon = if v.dims.is_empty() && !self.emitted.contains(lower) {
                self.first_canon.get(lower)
            } else {
                None
            };
            match canon {
                Some(c) => encode_str(out, c),
                None => encode_lower_str(out, &v.name),
            }
            out.extend_from_slice(&(v.dims.len() as u32).to_le_bytes());
            for e in &v.dims {
                self.expr(e, out);
            }
        }
    }

    fn stmts(&mut self, body: &[Stmt], out: &mut Vec<u8>) {
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        for s in body {
            self.stmt(s, out);
        }
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<u8>) {
        match s {
            Stmt::Assign { target, value, .. } => {
                out.push(0);
                self.expr(target, out);
                self.expr(value, out);
            }
            Stmt::Do {
                var,
                lb,
                ub,
                step,
                body,
                ..
            } => {
                out.push(1);
                // Expressions contain no loops, so numbering the canon
                // before the bounds matches the Normalizer's
                // bounds-first order.
                let canon = format!("\u{1}l{}", self.next_loop);
                self.next_loop += 1;
                encode_str(out, &canon);
                self.note_emitted(&canon);
                // Bounds are evaluated outside the loop's scope.
                self.expr(lb, out);
                self.expr(ub, out);
                match step {
                    None => out.push(0),
                    Some(e) => {
                        out.push(1);
                        self.expr(e, out);
                    }
                }
                let lower = var.to_ascii_lowercase();
                self.first_canon
                    .entry(lower.clone())
                    .or_insert_with(|| canon.clone());
                self.scopes.push((lower, canon));
                self.stmts(body, out);
                self.scopes.pop();
            }
            Stmt::DoWhile { cond, body, .. } => {
                out.push(2);
                self.expr(cond, out);
                self.stmts(body, out);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                out.push(3);
                self.expr(cond, out);
                self.stmts(then_body, out);
                self.stmts(else_body, out);
            }
            Stmt::Call { name, args, .. } => {
                out.push(4);
                encode_lower_str(out, name);
                self.note_emitted_lower(name);
                out.extend_from_slice(&(args.len() as u32).to_le_bytes());
                for a in args {
                    self.expr(a, out);
                }
            }
            Stmt::Return { .. } => out.push(5),
        }
    }

    /// Mirrors [`Normalizer::scalar_name`]: the innermost enclosing
    /// loop variable of that name, else the lower-cased name itself.
    fn var_name(&mut self, name: &str, out: &mut Vec<u8>) {
        match self
            .scopes
            .iter()
            .rposition(|(src, _)| name.eq_ignore_ascii_case(src))
        {
            Some(i) => {
                encode_str(out, &self.scopes[i].1);
                if !self.emitted_frozen && !self.emitted.contains(&self.scopes[i].1) {
                    let canon = self.scopes[i].1.clone();
                    self.emitted.insert(canon);
                }
            }
            None => {
                encode_lower_str(out, name);
                self.note_emitted_lower(name);
            }
        }
    }

    /// Encodes a normalized intrinsic call, ordering two-argument
    /// `max`/`min` operands like [`sort_commutative_args`].
    fn intrinsic(&mut self, func: Intrinsic, args: &[Expr], out: &mut Vec<u8>) {
        out.push(7);
        out.push(func as u8);
        out.extend_from_slice(&(args.len() as u32).to_le_bytes());
        if matches!(func, Intrinsic::Max | Intrinsic::Min) && args.len() == 2 {
            self.ordered_pair(&args[0], &args[1], out);
        } else {
            for a in args {
                self.expr(a, out);
            }
        }
    }

    /// Streams two commutative operands in canonical-encoding order:
    /// each is encoded into a pooled scratch buffer, the buffers are
    /// compared in place, and the smaller is appended first — the same
    /// order [`encoded`]-comparison gives the reference path.
    fn ordered_pair(&mut self, x: &Expr, y: &Expr, out: &mut Vec<u8>) {
        let mut a = self.pool.pop().unwrap_or_default();
        let mut b = self.pool.pop().unwrap_or_default();
        self.expr(x, &mut a);
        self.expr(y, &mut b);
        if b < a {
            out.extend_from_slice(&b);
            out.extend_from_slice(&a);
        } else {
            out.extend_from_slice(&a);
            out.extend_from_slice(&b);
        }
        a.clear();
        b.clear();
        self.pool.push(a);
        self.pool.push(b);
    }

    fn expr(&mut self, e: &Expr, out: &mut Vec<u8>) {
        match e {
            Expr::IntLit(n) => {
                out.push(0);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Expr::RealLit(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Expr::LogicalLit(b) => {
                out.push(2);
                out.push(*b as u8);
            }
            Expr::Var(name) => {
                out.push(3);
                self.var_name(name, out);
            }
            Expr::ArrayRef { name, indices } => {
                let mut tmp = String::new();
                let lower = lower_tmp(name, &mut tmp);
                // The parser resolves `name(args)` through the
                // intrinsic table before considering an array
                // reference.
                match Intrinsic::from_name(lower) {
                    Some(func) => self.intrinsic(func, indices, out),
                    None => {
                        out.push(4);
                        encode_lower_str(out, name);
                        self.note_emitted_lower(name);
                        out.extend_from_slice(&(indices.len() as u32).to_le_bytes());
                        for i in indices {
                            self.expr(i, out);
                        }
                    }
                }
            }
            Expr::Unary { op, operand } => {
                // The negated-literal fold, including the cascade
                // through nested negations.
                if *op == UnOp::Neg {
                    match norm_literal(operand) {
                        Some(NormLit::Int(k)) if k != i64::MIN => {
                            out.push(0);
                            out.extend_from_slice(&(-k).to_le_bytes());
                            return;
                        }
                        Some(NormLit::Real(x)) => {
                            out.push(1);
                            out.extend_from_slice(&(-x).to_bits().to_le_bytes());
                            return;
                        }
                        _ => {}
                    }
                }
                out.push(5);
                out.push(*op as u8);
                self.expr(operand, out);
            }
            Expr::Binary { op, lhs, rhs } => {
                out.push(6);
                out.push(*op as u8);
                if commutes(*op) {
                    self.ordered_pair(lhs, rhs, out);
                } else {
                    self.expr(lhs, out);
                    self.expr(rhs, out);
                }
            }
            Expr::Intrinsic { func, args } => self.intrinsic(*func, args, out),
        }
    }
}

/// Does `name` still occur anywhere in the (already normalized) body —
/// as a scalar, array, call target, or loop variable?
fn name_in_use(body: &[Stmt], name: &str) -> bool {
    fn in_expr(e: &Expr, name: &str) -> bool {
        match e {
            Expr::IntLit(_) | Expr::RealLit(_) | Expr::LogicalLit(_) => false,
            Expr::Var(n) => n == name,
            Expr::ArrayRef { name: n, indices } => {
                n == name || indices.iter().any(|i| in_expr(i, name))
            }
            Expr::Unary { operand, .. } => in_expr(operand, name),
            Expr::Binary { lhs, rhs, .. } => in_expr(lhs, name) || in_expr(rhs, name),
            Expr::Intrinsic { args, .. } => args.iter().any(|a| in_expr(a, name)),
        }
    }
    body.iter().any(|s| match s {
        Stmt::Assign { target, value, .. } => in_expr(target, name) || in_expr(value, name),
        Stmt::Do {
            var,
            lb,
            ub,
            step,
            body,
            ..
        } => {
            var == name
                || in_expr(lb, name)
                || in_expr(ub, name)
                || step.as_ref().is_some_and(|e| in_expr(e, name))
                || name_in_use(body, name)
        }
        Stmt::DoWhile { cond, body, .. } => in_expr(cond, name) || name_in_use(body, name),
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => in_expr(cond, name) || name_in_use(then_body, name) || name_in_use(else_body, name),
        Stmt::Call { name: n, args, .. } => n == name || args.iter().any(|a| in_expr(a, name)),
        Stmt::Return { .. } => false,
    })
}

/// Checks that `sub`'s re-emitted source would parse back — without
/// emitting it. Accepts exactly what the textual round trip accepts:
///
/// * every name lexes as one identifier (`[A-Za-z_][A-Za-z0-9_]*`);
/// * assignment targets are variables or array references whose head
///   name does not re-parse as a statement keyword, and an array-ref
///   target is not intrinsic-named (it would re-parse as an intrinsic
///   call, which cannot be assigned);
/// * no `do` variable is named `while` (that header re-parses as a
///   `do while`);
/// * numeric literals re-lex: reals are finite (no `inf`/`NaN` token)
///   and `i64::MIN` does not appear (its magnitude overflows re-lexing);
/// * no expression's re-emitted text is deeper than
///   [`MAX_EXPR_DEPTH`], the parser's limit.
///
/// # Errors
///
/// A [`Phase::Parse`] error naming the first violation.
pub fn validate_emittable(sub: &Subroutine) -> Result<(), FrontendError> {
    check_name(&sub.name, "subroutine name", sub.span)?;
    for p in &sub.params {
        check_name(p, "parameter", sub.span)?;
    }
    for d in &sub.decls {
        for v in &d.vars {
            check_name(&v.name, "declared variable", d.span)?;
            for e in &v.dims {
                check_expr(e, d.span)?;
            }
        }
    }
    check_stmts(&sub.body)
}

fn check_name(name: &str, what: &str, span: Span) -> Result<(), FrontendError> {
    let mut chars = name.chars();
    let head_ok = matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_');
    if head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_') {
        Ok(())
    } else {
        Err(FrontendError::new(
            Phase::Parse,
            format!("{what} `{name}` does not lex as an identifier"),
            span,
        ))
    }
}

/// Checks one statement-level expression: every node re-lexes, and the
/// depth its re-emitted text parses at is within [`MAX_EXPR_DEPTH`].
fn check_expr(e: &Expr, span: Span) -> Result<(), FrontendError> {
    if check_node(e, span)? > MAX_EXPR_DEPTH {
        return Err(FrontendError::new(
            Phase::Parse,
            format!("expression re-parses deeper than the limit of {MAX_EXPR_DEPTH} levels"),
            span,
        ));
    }
    Ok(())
}

/// Checks that every node of `e` re-lexes and returns the depth the
/// parser assigns to `e`'s `Display` text (see [`MAX_EXPR_DEPTH`]). That
/// text parenthesizes every operator node, so `(l op r)` sits two levels
/// above its deeper operand and `(-x)` two above `x`. A negative literal
/// prints as a prefix minus (depth 2), which binds looser than `**`:
/// `(-3 ** r)` re-parses as `(-(3 ** r))`, three levels above `r`.
fn check_node(e: &Expr, span: Span) -> Result<u32, FrontendError> {
    let deepest = |args: &[Expr]| -> Result<u32, FrontendError> {
        args.iter()
            .try_fold(0, |d, a| Ok(d.max(check_node(a, span)?)))
    };
    Ok(match e {
        Expr::IntLit(n) => {
            if *n == i64::MIN {
                return Err(FrontendError::new(
                    Phase::Parse,
                    "integer literal magnitude overflows re-lexing".to_string(),
                    span,
                ));
            }
            if *n < 0 {
                2
            } else {
                1
            }
        }
        Expr::RealLit(x) => {
            if !x.is_finite() {
                return Err(FrontendError::new(
                    Phase::Parse,
                    "non-finite real literal has no source form".to_string(),
                    span,
                ));
            }
            if x.is_sign_negative() {
                2
            } else {
                1
            }
        }
        Expr::LogicalLit(_) => 1,
        Expr::Var(name) => {
            check_name(name, "variable", span)?;
            1
        }
        Expr::ArrayRef { name, indices } => {
            check_name(name, "array", span)?;
            deepest(indices)? + 1
        }
        Expr::Unary { operand, .. } => check_node(operand, span)? + 2,
        Expr::Binary { op, lhs, rhs } => {
            let l = check_node(lhs, span)?;
            let r = check_node(rhs, span)?;
            if *op == BinOp::Pow && is_negative_literal(lhs) {
                r + 3
            } else {
                l.max(r) + 2
            }
        }
        Expr::Intrinsic { args, .. } => deepest(args)? + 1,
    })
}

fn is_negative_literal(e: &Expr) -> bool {
    match e {
        Expr::IntLit(n) => *n < 0,
        Expr::RealLit(x) => x.is_sign_negative(),
        _ => false,
    }
}

fn check_stmts(body: &[Stmt]) -> Result<(), FrontendError> {
    body.iter().try_for_each(check_stmt)
}

fn check_stmt(s: &Stmt) -> Result<(), FrontendError> {
    match s {
        Stmt::Assign {
            target,
            value,
            span,
        } => {
            let head = match target {
                Expr::Var(name) => name,
                Expr::ArrayRef { name, .. } => {
                    if Intrinsic::from_name(&name.to_ascii_lowercase()).is_some() {
                        return Err(FrontendError::new(
                            Phase::Parse,
                            format!("assignment target `{name}(...)` re-parses as an intrinsic"),
                            *span,
                        ));
                    }
                    name
                }
                _ => {
                    return Err(FrontendError::new(
                        Phase::Parse,
                        "assignment target is not a variable or array reference".to_string(),
                        *span,
                    ));
                }
            };
            if STMT_KEYWORDS.contains(&head.to_ascii_lowercase().as_str()) {
                return Err(FrontendError::new(
                    Phase::Parse,
                    format!("assignment target `{head}` re-parses as a statement keyword"),
                    *span,
                ));
            }
            check_expr(target, *span)?;
            check_expr(value, *span)
        }
        Stmt::Do {
            var,
            lb,
            ub,
            step,
            body,
            span,
        } => {
            check_name(var, "loop variable", *span)?;
            if var.eq_ignore_ascii_case("while") {
                return Err(FrontendError::new(
                    Phase::Parse,
                    "loop variable `while` re-parses as a do-while header".to_string(),
                    *span,
                ));
            }
            check_expr(lb, *span)?;
            check_expr(ub, *span)?;
            if let Some(e) = step {
                check_expr(e, *span)?;
            }
            check_stmts(body)
        }
        Stmt::DoWhile { cond, body, span } => {
            check_expr(cond, *span)?;
            check_stmts(body)
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            span,
        } => {
            check_expr(cond, *span)?;
            check_stmts(then_body)?;
            check_stmts(else_body)
        }
        Stmt::Call { name, args, span } => {
            check_name(name, "call target", *span)?;
            args.iter().try_for_each(|a| check_expr(a, *span))
        }
        Stmt::Return { .. } => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::subroutine_hash;
    use crate::parser::parse;

    fn sub(src: &str) -> Subroutine {
        parse(src).unwrap().units.remove(0)
    }

    const NEST: &str = "subroutine s(a, n)
        real a(n,n)
        integer i, j, n
        do i = 1, n
          do j = 1, n
            a(i,j) = a(i,j) * 2.0 + 1.0
          end do
        end do
      end";

    #[test]
    fn roundtrip_preserves_structural_hash() {
        let a = sub(NEST);
        let b = sub(&a.to_string());
        assert_eq!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn normalize_is_idempotent() {
        let a = normalize(&sub(NEST));
        assert_eq!(subroutine_hash(&a), subroutine_hash(&normalize(&a)));
    }

    #[test]
    fn negated_literal_folds_to_parser_image() {
        // `(n + -3)` is what the unroller builds directly; its re-parse
        // is `(n + (-(3)))`. Both must share a structural hash.
        let direct = sub(
            "subroutine s(a, n)\nreal a(n)\ninteger i, n\ndo i = 1, n\na(i) = 0.0\nend do\nend",
        );
        let mut built = direct.clone();
        if let Stmt::Do { ub, .. } = &mut built.body[0] {
            *ub = Expr::binary(BinOp::Add, Expr::Var("n".into()), Expr::IntLit(-3));
        }
        let reparsed = sub(&built.to_string());
        assert_ne!(subroutine_hash(&built), subroutine_hash(&reparsed));
        assert_eq!(structural_hash(&built), structural_hash(&reparsed));
    }

    #[test]
    fn commutative_operands_share_a_hash() {
        let a = sub("subroutine s(x, a, b)\nreal x, a, b\nx = a + b\nend");
        let b = sub("subroutine s(x, a, b)\nreal x, a, b\nx = b + a\nend");
        assert_ne!(subroutine_hash(&a), subroutine_hash(&b));
        assert_eq!(structural_hash(&a), structural_hash(&b));
        // Non-commutative operators keep operand order.
        let c = sub("subroutine s(x, a, b)\nreal x, a, b\nx = a - b\nend");
        let d = sub("subroutine s(x, a, b)\nreal x, a, b\nx = b - a\nend");
        assert_ne!(structural_hash(&c), structural_hash(&d));
    }

    #[test]
    fn loop_variable_names_are_alpha_canonical() {
        let a = sub(
            "subroutine s(a, n)\nreal a(n)\ninteger i, n\ndo i = 1, n\na(i) = 0.0\nend do\nend",
        );
        let b = sub(
            "subroutine s(a, n)\nreal a(n)\ninteger k, n\ndo k = 1, n\na(k) = 0.0\nend do\nend",
        );
        assert_eq!(structural_hash(&a), structural_hash(&b));
        // Parameters are free names, not alpha-convertible.
        let c = sub(
            "subroutine s(a, m)\nreal a(m)\ninteger i, m\ndo i = 1, m\na(i) = 0.0\nend do\nend",
        );
        assert_ne!(structural_hash(&a), structural_hash(&c));
    }

    #[test]
    fn shadowed_loop_variables_resolve_innermost() {
        let a = sub("subroutine s(a, n)\nreal a(n,n)\ninteger i, n\ndo i = 1, n\ndo i = 1, n\na(i,i) = 0.0\nend do\nend do\nend");
        let b = sub("subroutine s(a, n)\nreal a(n,n)\ninteger j, n\ndo j = 1, n\ndo j = 1, n\na(j,j) = 0.0\nend do\nend do\nend");
        assert_eq!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn intrinsic_named_array_ref_folds_to_intrinsic() {
        let mut built = sub("subroutine s(x, y)\nreal x, y\nx = y\nend");
        if let Stmt::Assign { value, .. } = &mut built.body[0] {
            *value = Expr::ArrayRef {
                name: "sqrt".into(),
                indices: vec![Expr::Var("y".into())],
            };
        }
        let reparsed = sub(&built.to_string());
        assert!(matches!(
            &reparsed.body[0],
            Stmt::Assign {
                value: Expr::Intrinsic { .. },
                ..
            }
        ));
        assert_eq!(structural_hash(&built), structural_hash(&reparsed));
    }

    #[test]
    fn streaming_hash_matches_normalize_then_hash() {
        // The streaming hasher must emit byte-for-byte what
        // `encode_subroutine(&normalize(sub))` folds — cover every
        // normalization rule it mirrors.
        let sources = [
            NEST,
            // Commutative chains and 2-argument max/min.
            "subroutine s(x, a, b, c)\nreal x, a, b, c\nx = c + b + a\nx = max(b, a) * min(c, b)\nend",
            // Shadowed loop variables and a renameable declaration.
            "subroutine s(a, n)\nreal a(n,n)\ninteger i, n\ndo i = 1, n\ndo i = 1, n\na(i,i) = 0.0\nend do\nend do\nend",
            // Loop variable that survives free after its loop: the
            // declaration must NOT follow the rename.
            "subroutine s(a, n, x)\nreal a(n), x\ninteger i, n\ndo i = 1, n\na(i) = 0.0\nend do\nx = i\nend",
            // Steps, calls, conditionals, do-while.
            "subroutine s(a, n)\nreal a(n)\ninteger i, n\ndo i = 1, n, 2\nif (a(i) .gt. 0.0) then\na(i) = sqrt(a(i))\nelse\ncall fix(a, i)\nend if\nend do\ndo while (a(1) .lt. 0.0)\na(1) = a(1) + 1.0\nend do\nreturn\nend",
        ];
        for src in sources {
            let s = sub(src);
            assert_eq!(
                structural_hash(&s),
                subroutine_hash(&normalize(&s)),
                "streaming hash diverged from the reference path on:\n{src}"
            );
        }
        // Built (never-parsed) shapes: negated and double-negated
        // literals, intrinsic-named array references, mixed case.
        let mut built = sub(NEST);
        built.name = "S".into();
        if let Stmt::Do { ub, body, .. } = &mut built.body[0] {
            *ub = Expr::binary(
                BinOp::Add,
                Expr::Var("N".into()),
                Expr::unary(UnOp::Neg, Expr::unary(UnOp::Neg, Expr::IntLit(-3))),
            );
            body.push(Stmt::Assign {
                target: Expr::Var("x".into()),
                value: Expr::ArrayRef {
                    name: "SQRT".into(),
                    indices: vec![Expr::unary(UnOp::Neg, Expr::RealLit(2.5))],
                },
                span: Span::default(),
            });
        }
        assert_eq!(structural_hash(&built), subroutine_hash(&normalize(&built)));
        // The unfoldable edge: -(i64::MIN) has no representation.
        let mut edge = sub(NEST);
        edge.body.push(Stmt::Assign {
            target: Expr::Var("x".into()),
            value: Expr::unary(UnOp::Neg, Expr::IntLit(i64::MIN)),
            span: Span::default(),
        });
        assert_eq!(structural_hash(&edge), subroutine_hash(&normalize(&edge)));
    }

    #[test]
    fn validate_accepts_parsed_programs() {
        assert!(validate_emittable(&sub(NEST)).is_ok());
    }

    #[test]
    fn validate_rejects_unlexable_target() {
        let mut bad = sub(NEST);
        bad.body.push(Stmt::Assign {
            target: Expr::Var("end do".into()),
            value: Expr::IntLit(0),
            span: Span::default(),
        });
        assert!(validate_emittable(&bad).is_err());
    }

    #[test]
    fn validate_rejects_keyword_target_and_nonfinite_real() {
        let mut bad = sub(NEST);
        bad.body.push(Stmt::Assign {
            target: Expr::Var("return".into()),
            value: Expr::IntLit(0),
            span: Span::default(),
        });
        assert!(validate_emittable(&bad).is_err());

        let mut bad = sub(NEST);
        bad.body.push(Stmt::Assign {
            target: Expr::Var("x".into()),
            value: Expr::RealLit(f64::INFINITY),
            span: Span::default(),
        });
        assert!(validate_emittable(&bad).is_err());
    }
}
