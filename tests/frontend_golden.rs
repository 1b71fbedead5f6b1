//! Golden front-end test: pins what the lexer and parser produce, so a
//! rewrite of either must be output-identical.
//!
//! For every source in `presage_bench::corpus::frontend_sources` it pins
//! each unit's structural AST hash (`fold::subroutine_hash`), its
//! `Display` text, and the span of the unit, of every declaration and of
//! every statement (nested bodies included). For malformed inputs it
//! pins the exact phase, span and message of the first error; messages
//! quote identifier text, so these lines also pin how tokens print.
//!
//! The expected output is `tests/golden/frontend.txt`. After a
//! deliberate front-end change, regenerate it with
//! `GOLDEN_BLESS=1 cargo test --test frontend_golden` and review the diff.

use presage_frontend::fold::subroutine_hash;
use presage_frontend::{parse, FrontendError, Span, Stmt};
use std::fmt::Write as _;

const GOLDEN: &str = "tests/golden/frontend.txt";

/// Malformed inputs: every lexer and parser error path, each as
/// `(label, source)`.
const MALFORMED: &[(&str, &str)] = &[
    // Lexer.
    (
        "lex/junk_after_continuation",
        "subroutine s(x)\nx = 1 & y\nend",
    ),
    (
        "lex/integer_out_of_range",
        "subroutine s(x)\ninteger x\nx = 99999999999999999999\nend",
    ),
    (
        "lex/unterminated_dot_operator",
        "subroutine s(a, b)\nif (a .lt b) return\nend",
    ),
    (
        "lex/dot_operator_at_end_of_input",
        "subroutine s(a)\na = a .",
    ),
    (
        "lex/unknown_dot_operator",
        "subroutine s(a, b)\nif (a .XOR. b) return\nend",
    ),
    // `malformed real literal` has no input: the scanner only admits
    // digit, fraction and exponent text that `f64::from_str` accepts.
    // `1.e5` is the nearest shape (`1` then the dot-operator `.e5`).
    (
        "lex/real_without_fraction_digits",
        "subroutine s(x)\nx = 1.e5\nend",
    ),
    (
        "lex/unexpected_character",
        "subroutine s(x)\nx = 1 # 2\nend",
    ),
    ("lex/unexpected_leading_character", "@"),
    // Parser: `expect`.
    ("parse/unclosed_parameter_list", "subroutine s(a\nend"),
    ("parse/missing_comma_found_ident", "SUBROUTINE S(A B)\nEND"),
    (
        "parse/do_without_assign",
        "subroutine s()\ndo i 1, n\nend do\nend",
    ),
    (
        "parse/do_while_without_paren",
        "subroutine s(x)\ndo while x\nend do\nend",
    ),
    ("parse/unclosed_subscript", "subroutine s(x)\nx(1 = 2\nend"),
    // Parser: `ident`.
    ("parse/integer_as_subroutine_name", "subroutine 1()\nend"),
    ("parse/missing_subroutine_name", "subroutine (x)\nend"),
    (
        "parse/integer_as_declared_name",
        "subroutine s()\nreal 1\nend",
    ),
    (
        "parse/integer_as_call_target",
        "subroutine s()\ncall 3\nend",
    ),
    // Parser: `expect_kw`.
    ("parse/statement_outside_subroutine", "x = 1\nend"),
    ("parse/missing_end", "subroutine s()\nx = 1\n"),
    (
        "parse/if_closed_by_end_do",
        "subroutine s(x)\nif (x .gt. 1) then\nx = 1\nend do\nend",
    ),
    (
        "parse/else_if_without_then",
        "subroutine s(x)\nif (x > 1) then\nx = 1\nelse if (x > 2) x = 2\nend if\nend",
    ),
    // Parser: `end_of_stmt`.
    ("parse/junk_after_header", "subroutine s() x\nend"),
    (
        "parse/junk_after_end_subroutine",
        "subroutine s()\nend subroutine s t",
    ),
    (
        "parse/real_after_expression",
        "subroutine s(x)\nx = 1 2.5\nend",
    ),
    // Parser: `program`.
    ("parse/empty_program", "\n\n! only a comment\n"),
    // Parser: `assign_stmt`.
    ("parse/assign_to_literal", "subroutine s()\n1 = 2\nend"),
    (
        "parse/assign_to_intrinsic",
        "subroutine s(x)\nsqrt(x) = 2\nend",
    ),
    // Parser: `primary`.
    ("parse/expression_is_paren", "subroutine s()\nx = )\nend"),
    (
        "parse/expression_is_dot_operator",
        "subroutine s()\nx = .and.\nend",
    ),
    ("parse/expression_is_power", "subroutine s()\nx = ** 2\nend"),
    (
        "parse/unfinished_call_arguments",
        "subroutine s()\ncall f(1,\nend",
    ),
    ("parse/unfinished_dimension", "subroutine s()\nreal x(\nend"),
];

fn span(s: Span) -> String {
    format!("{}..{} @{}:{}", s.start, s.end, s.line, s.col)
}

fn stmt_spans(out: &mut String, body: &[Stmt], depth: usize) {
    for s in body {
        let (kind, children): (&str, Vec<&[Stmt]>) = match s {
            Stmt::Assign { .. } => ("assign", vec![]),
            Stmt::Do { body, .. } => ("do", vec![body]),
            Stmt::DoWhile { body, .. } => ("do-while", vec![body]),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => ("if", vec![then_body, else_body]),
            Stmt::Call { .. } => ("call", vec![]),
            Stmt::Return { .. } => ("return", vec![]),
        };
        let pad = "  ".repeat(depth);
        writeln!(out, "{pad}{kind} {}", span(s.span())).unwrap();
        for (k, child) in children.into_iter().enumerate() {
            if k > 0 {
                writeln!(out, "{pad}else").unwrap();
            }
            stmt_spans(out, child, depth + 1);
        }
    }
}

fn error_line(e: &FrontendError) -> String {
    format!("{} {}: {}", e.phase, span(e.span), e.message)
}

/// The whole golden text for the current front end.
fn render() -> String {
    let mut out = String::new();
    for (label, src) in presage_bench::corpus::frontend_sources() {
        writeln!(out, "== source {label}").unwrap();
        let program = match parse(&src) {
            Ok(p) => p,
            Err(e) => {
                writeln!(out, "unexpected error: {}", error_line(&e)).unwrap();
                continue;
            }
        };
        for unit in &program.units {
            writeln!(
                out,
                "unit {} hash {:032x} {}",
                unit.name,
                subroutine_hash(unit),
                span(unit.span)
            )
            .unwrap();
            writeln!(out, "-- display").unwrap();
            write!(out, "{unit}").unwrap();
            writeln!(out, "-- spans").unwrap();
            for d in &unit.decls {
                writeln!(out, "decl {}", span(d.span)).unwrap();
            }
            stmt_spans(&mut out, &unit.body, 0);
        }
    }
    for (label, src) in MALFORMED {
        writeln!(out, "== error {label}").unwrap();
        writeln!(out, "input {src:?}").unwrap();
        match parse(src) {
            Ok(_) => writeln!(out, "unexpectedly parsed").unwrap(),
            Err(e) => writeln!(out, "{}", error_line(&e)).unwrap(),
        }
    }
    out
}

#[test]
fn front_end_output_matches_the_golden_file() {
    let actual = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read golden file");
    if actual == expected {
        return;
    }
    let (line, (want, got)) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .unwrap_or((
            expected.lines().count().min(actual.lines().count()),
            ("<end of file>", "<end of file>"),
        ));
    panic!(
        "front-end output differs from {GOLDEN} at line {}:\n  golden: {want}\n  actual: {got}",
        line + 1
    );
}

#[test]
fn every_malformed_input_is_rejected() {
    for (label, src) in MALFORMED {
        assert!(parse(src).is_err(), "{label} parsed");
    }
}
