//! Allocation gate for the front end: a counting global allocator pins
//! how many heap allocations `lex` and `parse` make.
//!
//! * `lex` allocates only its token vector, so its count is bounded by
//!   the vector's growth steps — at most ⌈log₂ tokens⌉ + 1 — however many
//!   identifiers, dot-operators and real literals the source holds.
//! * `parse` of every corpus source stays at or below a recorded ceiling.
//!   The AST's own nodes and names are what remains, so a ceiling only
//!   moves down.
//!
//! Reallocations count as allocations. Counters are per thread, so the
//! test harness running tests side by side does not blur them.

use presage_frontend::{lex, parse};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may be gone while the thread is exiting.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Parse-allocation ceilings per corpus source: the counts of the lexer
/// that tags identifiers by span and the parser that moves tokens.
const PARSE_CEILINGS: &[(&str, u64)] = &[
    ("fig7/F1", 37),
    ("fig7/F2", 38),
    ("fig7/F3", 49),
    ("fig7/F4", 60),
    ("fig7/F5", 39),
    ("fig7/F6", 46),
    ("fig7/F7", 39),
    ("fig7/Matmul", 501),
    ("fig7/Jacobi", 69),
    ("fig7/RB", 64),
    ("demo/daxpy.f", 137),
    ("parser/minimal_subroutine", 4),
    ("parser/params_and_decls", 16),
    ("parser/do_loop_with_step", 37),
    ("parser/enddo_one_word", 37),
    ("parser/nested_loops", 45),
    ("parser/block_if_else", 43),
    ("parser/endif_one_word", 39),
    ("parser/else_if_chain", 50),
    ("parser/one_line_if", 39),
    ("parser/call_statement", 36),
    ("parser/precedence_mul_over_add", 41),
    ("parser/power_is_right_assoc_and_tight", 38),
    ("parser/logical_operators", 47),
    ("parser/intrinsics_parse", 37),
    ("parser/multiple_subroutines", 6),
    ("parser/end_subroutine_name_form", 4),
    ("lex/case_and_comments", 26),
    ("lex/continuation_and_semicolons", 36),
    ("lex/literal_forms", 22),
    ("lex/relational_spellings", 53),
    ("lex/do_while", 17),
    ("lex/keywords_as_names", 34),
    ("lex/type_keywords_as_names", 30),
    ("lex/intrinsics_and_powers", 54),
];

#[test]
fn lex_allocates_only_the_token_vector() {
    // 1,000 identifiers, 500 real literals with a `d` exponent and 1,000
    // dot-operators, mixed case.
    let src: String = (0..500)
        .map(|i| format!("Alpha{i} = BETA{i} * 2.5D0 .AND. .true.\n"))
        .collect();
    let (allocs, toks) = counted(|| lex(&src).expect("lexes"));
    let tokens = toks.len() as u64;
    assert_eq!(tokens, 500 * 8 + 1);
    let bound = u64::from(tokens.next_power_of_two().trailing_zeros()) + 1;
    assert!(
        allocs <= bound,
        "lex made {allocs} allocations for {tokens} tokens (bound {bound})"
    );
}

#[test]
fn parse_stays_under_its_allocation_ceilings() {
    let corpus = presage_bench::corpus::frontend_sources();
    let mut over = Vec::new();
    for (label, src) in &corpus {
        let (allocs, program) = counted(|| parse(src));
        program.unwrap_or_else(|e| panic!("{label}: {e}"));
        let ceiling = PARSE_CEILINGS
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("{label}: no ceiling recorded ({allocs} allocations)"))
            .1;
        if allocs > ceiling {
            over.push(format!("{label}: {allocs} > {ceiling}"));
        }
    }
    assert!(over.is_empty(), "over ceiling: {over:#?}");
    assert_eq!(PARSE_CEILINGS.len(), corpus.len(), "stale ceiling entries");
}
