//! Benchmark harness for the Presage reproduction.
//!
//! [`kernels`] holds the Figure 7 kernel suite (F1–F7 straight-line basic
//! blocks from small numeric loops, the 4×4-unrolled blocked Matmul block
//! with 16 FMAs, the Jacobi stencil, and the red-black relaxation), plus
//! helpers shared by the table-regenerating binaries and the `perfsuite`
//! harness in `src/bin/`.

#![warn(missing_docs)]

pub mod kernels;
pub mod tables;
