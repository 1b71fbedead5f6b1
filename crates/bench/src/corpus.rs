//! The front-end corpus: every well-formed source that the golden
//! front-end test (`tests/frontend_golden.rs` at the workspace root) pins
//! and that the allocation gate (`crates/frontend/tests/alloc.rs`) counts.
//!
//! It holds the Figure 7 kernels, `demo/daxpy.f`, the parser's unit-test
//! sources, and a few lexer-shaped sources (case folding, continuations,
//! comments, literal forms, keywords used as names).

use crate::kernels::figure7;

/// The parser unit tests' wrapper: one subroutine declaring `a`, `b`, `c`
/// as `n`×`n` arrays and `i`, `j`, `n`, `k` as integers around `body`.
fn wrap(body: &str) -> String {
    format!("subroutine t(a, b, c, n, k)\nreal a(n,n), b(n,n), c(n,n)\ninteger i, j, n, k\n{body}\nend\n")
}

/// Every corpus source as `(label, source)`, in a fixed order.
pub fn frontend_sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = figure7()
        .into_iter()
        .map(|k| (format!("fig7/{}", k.name), k.source.to_string()))
        .collect();
    out.push((
        "demo/daxpy.f".into(),
        include_str!("../../../demo/daxpy.f").into(),
    ));
    let parser: [(&str, String); 16] = [
        ("minimal_subroutine", "subroutine s()\nreturn\nend".into()),
        (
            "params_and_decls",
            "subroutine s(x, n)\nreal x(n)\ninteger n\nx(1) = 0.0\nend".into(),
        ),
        (
            "do_loop_with_step",
            wrap("do i = 1, n, 2\na(i,1) = 0.0\nend do"),
        ),
        ("enddo_one_word", wrap("do i = 1, n\na(i,1) = 0.0\nenddo")),
        (
            "nested_loops",
            wrap("do i = 1, n\ndo j = 1, n\na(i,j) = b(i,j)\nend do\nend do"),
        ),
        (
            "block_if_else",
            wrap("if (i .le. k) then\na(i,1) = 0.0\nelse\nb(i,1) = 0.0\nend if"),
        ),
        (
            "endif_one_word",
            wrap("if (i .le. k) then\na(i,1) = 0.0\nendif"),
        ),
        (
            "else_if_chain",
            wrap("if (i .lt. 1) then\na(i,1) = 0.0\nelse if (i .lt. 2) then\nb(i,1) = 0.0\nelse\nc(i,1) = 0.0\nend if"),
        ),
        ("one_line_if", wrap("if (i .gt. k) a(i,1) = 0.0")),
        ("call_statement", wrap("call dgemm(a, b, n)")),
        (
            "precedence_mul_over_add",
            wrap("a(1,1) = b(1,1) + c(1,1) * 2.0"),
        ),
        (
            "power_is_right_assoc_and_tight",
            wrap("a(1,1) = -b(1,1) ** 2"),
        ),
        (
            "logical_operators",
            wrap("if (i .lt. n .and. .not. (j .gt. k)) a(i,j) = 0.0"),
        ),
        ("intrinsics_parse", wrap("a(1,1) = sqrt(abs(b(1,1)))")),
        (
            "multiple_subroutines",
            "subroutine a()\nreturn\nend\n\nsubroutine b()\nreturn\nend".into(),
        ),
        (
            "end_subroutine_name_form",
            "subroutine s()\nreturn\nend subroutine s".into(),
        ),
    ];
    out.extend(
        parser
            .into_iter()
            .map(|(label, src)| (format!("parser/{label}"), src)),
    );
    let lexical: [(&str, &str); 8] = [
        (
            "case_and_comments",
            "SUBROUTINE Mixed(A, N) ! header\n  REAL A(N)\n  INTEGER I, N\n  DO I = 1, N\n    A(I) = A(I) * 2.0 ! scale\n  END DO\nEND SUBROUTINE Mixed\n",
        ),
        (
            "continuation_and_semicolons",
            "subroutine s(a, b, n)\nreal a(n), b(n)\ninteger i, n\ndo i = 1, n\n  a(i) = b(i) + &  ! split\n     2.0; b(i) = a(i)\nend do\nend",
        ),
        (
            "literal_forms",
            "subroutine s(x)\nreal x\nx = 0.25 + 1e3 + 2.5d0 + 1.5e-2 + .5 + 3.0D+2 + 7\nend",
        ),
        (
            "relational_spellings",
            "subroutine s(a, b, k)\nreal a, b\ninteger k\nif (a <= b .and. a /= b .or. a == b) k = 1\nif (1.lt.2 .and. a >= b .and. .not. .false.) k = 2\nif (a .GE. b .OR. .TRUE.) k = 3\nend",
        ),
        (
            "do_while",
            "subroutine s(x)\nreal x\ndo while (x .gt. 0.5)\nx = x * 0.5\nenddo\nend",
        ),
        (
            "keywords_as_names",
            "subroutine do(if, then, n)\nreal if(n), then\ninteger n, call\nthen = if(call) ** 2 + call\nif (then > 1.0) then\ncall subroutine(if, then)\nend if\nend subroutine do",
        ),
        (
            "type_keywords_as_names",
            "subroutine s(real, integer)\ninteger integer\nlogical logical, while\nreal real\nwhile = .true.\nlogical = while .and. real > 0.0\ninteger = int(real) + mod(integer, 3)\nreturn\nend",
        ),
        (
            "intrinsics_and_powers",
            "subroutine s(a, n)\nreal a(n)\ninteger i, n\ndo i = 1, n\na(i) = max(a(i), min(exp(a(i)), log(abs(a(i)) + 1.0))) ** 2 ** -1 + real(i) - sin(cos(a(i)))\nend do\nend",
        ),
    ];
    out.extend(
        lexical
            .into_iter()
            .map(|(label, src)| (format!("lex/{label}"), src.to_string())),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_corpus_source_parses() {
        for (label, src) in frontend_sources() {
            if let Err(e) = presage_frontend::parse(&src) {
                panic!("{label}: {e}");
            }
        }
    }
}
