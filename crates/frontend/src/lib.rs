//! Mini-Fortran/HPF front-end for the Presage performance predictor.
//!
//! The paper's framework predicts the performance of Fortran-family
//! programs inside the PTRAN II HPF compiler. This crate supplies the
//! program representation that the predictor consumes: a lexer, a
//! recursive-descent parser, Fortran implicit typing and type checking, and
//! the structural analyses (loop nests, invariants, affine subscripts) the
//! cost model relies on.
//!
//! # The language
//!
//! Free-form mini-Fortran: `subroutine`/`end`, `integer`/`real`/`logical`
//! declarations with array dimensions, `do`/`end do` loops with optional
//! step, block and one-line `if` with `.lt. .le. ==`-style operators,
//! `call`, `return`, arithmetic with `**`, and intrinsics (`sqrt`, `abs`,
//! `max`, `min`, `mod`, …). `!` comments and `&` continuations.
//!
//! # Example
//!
//! ```
//! use presage_frontend::{parse, sema, analysis};
//!
//! let prog = parse(
//!     "subroutine jacobi(a, b, n)
//!        real a(n,n), b(n,n)
//!        integer i, j, n
//!        do i = 2, n-1
//!          do j = 2, n-1
//!            a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
//!          end do
//!        end do
//!      end",
//! ).unwrap();
//! let sub = &prog.units[0];
//! let symbols = sema::analyze(sub).unwrap();
//! assert!(symbols.is_array("a"));
//! let (headers, inner) = analysis::perfect_nest(&sub.body[0]);
//! assert_eq!(headers.len(), 2);
//! assert_eq!(inner.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod ast;
pub mod diag;
pub mod fold;
pub mod normalize;
pub mod sema;
pub mod span;

mod lexer;
mod parser;
mod token;

pub use ast::{BaseType, BinOp, Decl, DeclVar, Expr, Intrinsic, Program, Stmt, Subroutine, UnOp};
pub use diag::{FrontendError, Phase};
pub use lexer::lex;
pub use parser::{parse, MAX_EXPR_DEPTH};
pub use span::Span;
