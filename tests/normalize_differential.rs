//! Differential proof that AST-level structural canonicalization agrees
//! with the re-emit + re-parse oracle it replaces.
//!
//! The optimizer's hot path used to canonicalize every search variant by
//! printing it and re-parsing the text ([`canonical_key`]); the
//! [`normalize`] pass now computes the same-or-finer equivalence directly
//! on the AST. Three properties are proven over the whole transform
//! corpus (every Figure 7 kernel under every catalog transformation at
//! every loop path, plus bounded depth-2 compositions):
//!
//! - **P1 (roundtrip invariance):** `structural_hash(v)` equals
//!   `structural_hash(parse(v.to_string()))` — normalizing before or
//!   after a print/parse roundtrip is indistinguishable, so the hash
//!   never depends on having gone through text. Alongside,
//!   [`validate_emittable`] accepts exactly the variants the parser
//!   accepts (it is the reparse-success oracle, minus the parse).
//! - **P2 (refinement):** textually-equal variants are structurally
//!   equal — every textual class maps into exactly one structural
//!   class, so switching keys can only merge, never split.
//! - **P3 (cost uniformity):** members of one structural class have
//!   equal predicted costs on all four shipped machines. This is what
//!   makes it sound for the e-graph and the prediction cache to cost a
//!   class once via its representative.
//!
//! Commutative-operand merging used to be *excluded* from P3: the greedy
//! placement was not invariant under operand emission order (Jacobi on
//! wide8 shifted by ~12% — see EXPERIMENTS.md E15). The canonical
//! operation ordering pass (`translate::passes::canonical_order`) closed
//! that hole: commuted variants now translate to the same op sequence,
//! so the commuted-variant test below asserts *cost equality* on every
//! shipped machine, not just key equality. The textual oracle is
//! retained in-tree to keep the (now-closed) boundary observable.

use std::collections::{HashMap, HashSet};

use presage::core::predictor::Predictor;
use presage::frontend::ast::{BinOp, Expr, Stmt, Subroutine};
use presage::frontend::fold::subroutine_hash;
use presage::frontend::normalize::{normalize, structural_hash, validate_emittable};
use presage::frontend::parse;
use presage::frontend::span::Span;
use presage::machine::machines;
use presage::opt::transforms::Transform;
use presage::opt::whatif::{loop_paths, transformed};
use presage::opt::{canonical_key, structural_key};
use presage_bench::kernels::figure7;

fn catalog() -> Vec<Transform> {
    vec![
        Transform::Unroll(2),
        Transform::Unroll(4),
        Transform::Tile(32),
        Transform::Interchange,
        Transform::Fuse,
        Transform::Distribute,
    ]
}

/// Every transformation-reachable variant of a kernel: the original,
/// all single applications, and depth-2 compositions seeded from the
/// first three depth-1 variants (bounded so the suite stays fast; the
/// composition *pattern* coverage is what matters, not exhaustiveness).
fn variants_of(source: &str) -> Vec<Subroutine> {
    let sub = parse(source).expect("kernel parses").units.remove(0);
    let mut depth1 = Vec::new();
    for path in loop_paths(&sub) {
        for t in catalog() {
            if let Ok(v) = transformed(&sub, &path, &t) {
                depth1.push(v);
            }
        }
    }
    let mut out = vec![sub];
    for v in depth1.iter().take(3) {
        for path in loop_paths(v) {
            for t in catalog() {
                if let Ok(v2) = transformed(v, &path, &t) {
                    out.push(v2);
                }
            }
        }
    }
    out.extend(depth1);
    out
}

fn corpus() -> Vec<Subroutine> {
    figure7()
        .into_iter()
        .flat_map(|k| variants_of(k.source))
        .collect()
}

/// Appends `_r` to one loop variable everywhere it occurs — an
/// alpha-renaming, the equivalence the search actually exercises through
/// tile-variable freshening.
fn alpha_rename(sub: &Subroutine, from: &str) -> Subroutine {
    fn rename_expr(e: &Expr, from: &str, to: &str) -> Expr {
        match e {
            Expr::Var(name) if name == from => Expr::Var(to.to_string()),
            Expr::ArrayRef { name, indices } => Expr::ArrayRef {
                name: name.clone(),
                indices: indices.iter().map(|i| rename_expr(i, from, to)).collect(),
            },
            Expr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: Box::new(rename_expr(operand, from, to)),
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(rename_expr(lhs, from, to)),
                rhs: Box::new(rename_expr(rhs, from, to)),
            },
            Expr::Intrinsic { func, args } => Expr::Intrinsic {
                func: *func,
                args: args.iter().map(|a| rename_expr(a, from, to)).collect(),
            },
            other => other.clone(),
        }
    }
    fn rename_stmts(stmts: &[Stmt], from: &str, to: &str) -> Vec<Stmt> {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Assign {
                    target,
                    value,
                    span,
                } => Stmt::Assign {
                    target: rename_expr(target, from, to),
                    value: rename_expr(value, from, to),
                    span: *span,
                },
                Stmt::Do {
                    var,
                    lb,
                    ub,
                    step,
                    body,
                    span,
                } => Stmt::Do {
                    var: if var == from {
                        to.to_string()
                    } else {
                        var.clone()
                    },
                    lb: rename_expr(lb, from, to),
                    ub: rename_expr(ub, from, to),
                    step: step.as_ref().map(|e| rename_expr(e, from, to)),
                    body: rename_stmts(body, from, to),
                    span: *span,
                },
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span,
                } => Stmt::If {
                    cond: rename_expr(cond, from, to),
                    then_body: rename_stmts(then_body, from, to),
                    else_body: rename_stmts(else_body, from, to),
                    span: *span,
                },
                other => other.clone(),
            })
            .collect()
    }
    let to = format!("{from}_r");
    let mut renamed = sub.clone();
    renamed.body = rename_stmts(&sub.body, from, &to);
    for d in &mut renamed.decls {
        for v in &mut d.vars {
            if v.name == from && v.dims.is_empty() {
                v.name = to.clone();
            }
        }
    }
    renamed
}

/// Reverses every commutative operand pair, recursively.
fn commute(sub: &Subroutine) -> Subroutine {
    fn commute_expr(e: &Expr) -> Expr {
        match e {
            Expr::Binary { op, lhs, rhs } => {
                let l = Box::new(commute_expr(lhs));
                let r = Box::new(commute_expr(rhs));
                match op {
                    BinOp::Add | BinOp::Mul => Expr::Binary {
                        op: *op,
                        lhs: r,
                        rhs: l,
                    },
                    _ => Expr::Binary {
                        op: *op,
                        lhs: l,
                        rhs: r,
                    },
                }
            }
            Expr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: Box::new(commute_expr(operand)),
            },
            Expr::ArrayRef { name, indices } => Expr::ArrayRef {
                name: name.clone(),
                indices: indices.iter().map(commute_expr).collect(),
            },
            Expr::Intrinsic { func, args } => Expr::Intrinsic {
                func: *func,
                args: args.iter().map(commute_expr).collect(),
            },
            other => other.clone(),
        }
    }
    fn commute_stmts(stmts: &[Stmt]) -> Vec<Stmt> {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Assign {
                    target,
                    value,
                    span,
                } => Stmt::Assign {
                    target: commute_expr(target),
                    value: commute_expr(value),
                    span: *span,
                },
                Stmt::Do {
                    var,
                    lb,
                    ub,
                    step,
                    body,
                    span,
                } => Stmt::Do {
                    var: var.clone(),
                    lb: commute_expr(lb),
                    ub: commute_expr(ub),
                    step: step.as_ref().map(commute_expr),
                    body: commute_stmts(body),
                    span: *span,
                },
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span,
                } => Stmt::If {
                    cond: commute_expr(cond),
                    then_body: commute_stmts(then_body),
                    else_body: commute_stmts(else_body),
                    span: *span,
                },
                other => other.clone(),
            })
            .collect()
    }
    let mut c = sub.clone();
    c.body = commute_stmts(&sub.body);
    c
}

fn shipped_machines() -> Vec<presage::machine::MachineDesc> {
    vec![
        machines::risc1(),
        machines::power_like(),
        machines::wide4(),
        machines::wide8(),
    ]
}

#[test]
fn p1_roundtrip_preserves_the_structural_hash() {
    let corpus = corpus();
    assert!(corpus.len() > 100, "corpus too small: {}", corpus.len());
    let mut roundtripped = 0usize;
    for v in &corpus {
        let text = v.to_string();
        let reparsed = parse(&text);
        assert_eq!(
            validate_emittable(v).is_ok(),
            reparsed.is_ok(),
            "validator must be the reparse-success oracle for:\n{text}"
        );
        if let Ok(mut program) = reparsed {
            let back = program.units.remove(0);
            assert_eq!(
                structural_hash(v),
                structural_hash(&back),
                "print/parse roundtrip changed the structural hash of:\n{text}"
            );
            roundtripped += 1;
        }
    }
    assert_eq!(
        roundtripped,
        corpus.len(),
        "every transform output must be emittable"
    );
}

#[test]
fn streaming_hash_equals_reference_hash_on_the_corpus() {
    // `structural_hash` streams the normalized encoding without
    // building the normalized AST; the reference path materializes it.
    // They must agree byte-for-byte (hence hash-for-hash) on every
    // transform-reachable variant, or the two pipelines would partition
    // the search space differently.
    for v in corpus() {
        assert_eq!(
            structural_hash(&v),
            subroutine_hash(&normalize(&v)),
            "streaming hash diverged from hash-of-normalized for:\n{v}"
        );
    }
}

#[test]
fn validator_rejects_exactly_what_the_parser_rejects() {
    // Unrepresentable shapes the transforms could in principle produce:
    // each must fail validation AND fail to reparse, never just one.
    let base = parse(presage_bench::kernels::F1).unwrap().units.remove(0);
    let mut bad_name = base.clone();
    bad_name.body.push(Stmt::Assign {
        target: Expr::Var("end do".into()),
        value: Expr::IntLit(0),
        span: Span::default(),
    });
    let mut keyword_target = base.clone();
    keyword_target.body.push(Stmt::Assign {
        target: Expr::Var("return".into()),
        value: Expr::IntLit(0),
        span: Span::default(),
    });
    let mut intrinsic_target = base.clone();
    intrinsic_target.body.push(Stmt::Assign {
        target: Expr::ArrayRef {
            name: "max".into(),
            indices: vec![Expr::IntLit(1)],
        },
        value: Expr::IntLit(0),
        span: Span::default(),
    });
    for (what, sub) in [
        ("space in a name", &bad_name),
        ("keyword as assign target", &keyword_target),
        ("intrinsic-named array target", &intrinsic_target),
    ] {
        assert!(
            validate_emittable(sub).is_err(),
            "{what}: validator accepted"
        );
        assert!(
            parse(&sub.to_string()).is_err(),
            "{what}: parser accepted what the validator models as rejected"
        );
    }
}

#[test]
fn p2_textual_classes_refine_structural_classes() {
    let mut textual_to_structural: HashMap<u128, HashSet<u128>> = HashMap::new();
    for v in corpus() {
        let textual = canonical_key(&v).expect("corpus variants are emittable");
        let structural = structural_key(&v).expect("corpus variants are representable");
        textual_to_structural
            .entry(textual)
            .or_default()
            .insert(structural);
    }
    for (textual, structurals) in &textual_to_structural {
        assert_eq!(
            structurals.len(),
            1,
            "textual class {textual:032x} split across structural classes {structurals:?}"
        );
    }
}

#[test]
fn p3_structural_classes_are_cost_uniform() {
    // Group the corpus (plus an alpha-renamed copy of every original
    // kernel — the equivalence tile freshening exercises) by structural
    // key, then demand every multi-member class predicts one cost.
    let mut classes: HashMap<u128, Vec<Subroutine>> = HashMap::new();
    for k in figure7() {
        let sub = parse(k.source).unwrap().units.remove(0);
        if let Some(Stmt::Do { var, .. }) = sub.body.iter().find(|s| matches!(s, Stmt::Do { .. })) {
            let renamed = alpha_rename(&sub, &var.clone());
            assert_eq!(
                structural_key(&sub).unwrap(),
                structural_key(&renamed).unwrap(),
                "{}: alpha-renaming must not change the structural key",
                k.name
            );
            classes
                .entry(structural_key(&sub).unwrap())
                .or_default()
                .push(renamed);
        }
    }
    for v in corpus() {
        let key = structural_key(&v).unwrap();
        classes.entry(key).or_default().push(v);
    }
    let multi: Vec<&Vec<Subroutine>> = classes.values().filter(|c| c.len() > 1).collect();
    assert!(
        !multi.is_empty(),
        "corpus must contain at least one non-trivial structural class"
    );
    let eval_points = [64.0, 500.0];
    for machine in shipped_machines() {
        let name = machine.name().to_string();
        let predictor = Predictor::new(machine);
        for members in &multi {
            let costs: Vec<Vec<f64>> = members
                .iter()
                .map(|m| {
                    let expr = predictor
                        .predict_subroutine_cost(m)
                        .expect("class members predict");
                    eval_points
                        .iter()
                        .map(|&n| {
                            let mut bind = HashMap::new();
                            bind.insert(presage::symbolic::Symbol::new("n"), n);
                            expr.eval_with_defaults(&bind)
                        })
                        .collect()
                })
                .collect();
            for c in &costs[1..] {
                for (a, b) in costs[0].iter().zip(c) {
                    assert!(
                        (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                        "structural class is not cost-uniform on {name}: {a} vs {b}\nfirst member:\n{}",
                        members[0]
                    );
                }
            }
        }
    }
}

#[test]
fn commuted_operands_share_a_structural_key_and_a_cost() {
    // Operand order merges structurally (the normal form sorts
    // commutative operands), and since the canonical operation ordering
    // pass it also merges *behaviorally*: commuted sources translate to
    // one op sequence, so the order-sensitive greedy placement predicts
    // one cost. Before that pass, Jacobi on wide8 shifted by ~12% under
    // operand commutation (E15) — this test is the regression fence.
    let eval_points = [64.0, 500.0];
    for k in figure7() {
        let sub = parse(k.source).unwrap().units.remove(0);
        let commuted = commute(&sub);
        assert_eq!(
            structural_key(&sub).unwrap(),
            structural_key(&commuted).unwrap(),
            "{}: commuted operands must share a structural class",
            k.name
        );
        if commuted.to_string() != sub.to_string() {
            assert_ne!(
                canonical_key(&sub).unwrap(),
                canonical_key(&commuted).unwrap(),
                "{}: the textual oracle keeps commuted operands distinct",
                k.name
            );
        }
        for machine in shipped_machines() {
            let name = machine.name().to_string();
            let predictor = Predictor::new(machine);
            let a = predictor.predict_subroutine_cost(&sub).unwrap();
            let b = predictor.predict_subroutine_cost(&commuted).unwrap();
            for &n in &eval_points {
                let mut bind = HashMap::new();
                bind.insert(presage::symbolic::Symbol::new("n"), n);
                let (ca, cb) = (a.eval_with_defaults(&bind), b.eval_with_defaults(&bind));
                assert!(
                    (ca - cb).abs() <= 1e-9 * ca.abs().max(1.0),
                    "{} on {name}: commuted variant predicts {cb}, original {ca}",
                    k.name
                );
            }
        }
    }
}

/// The validator applies the parser's expression-depth limit to the text
/// a subroutine re-emits as: at tree depths around the limit, in every
/// shape whose printed form nests differently (operator chains, prefix
/// operators, negative literals under `**`, argument lists), the
/// validator accepts exactly the ASTs whose re-emitted source parses.
#[test]
fn validator_applies_the_parser_depth_limit() {
    use presage::frontend::ast::{Intrinsic, UnOp};
    use presage::frontend::MAX_EXPR_DEPTH;

    let x = || Expr::Var("x".into());
    type Wrap = fn(Expr) -> Expr;
    let shapes: [(&str, Wrap); 6] = [
        ("sum chain", |e| {
            Expr::binary(BinOp::Add, e, Expr::Var("x".into()))
        }),
        ("negation", |e| Expr::unary(UnOp::Neg, e)),
        ("negative base under **", |e| {
            Expr::binary(BinOp::Pow, Expr::IntLit(-2), e)
        }),
        ("negative exponent", |e| {
            Expr::binary(BinOp::Pow, e, Expr::IntLit(-3))
        }),
        ("negative operand", |e| {
            Expr::binary(BinOp::Mul, e, Expr::RealLit(-0.5))
        }),
        ("intrinsic", |e| Expr::Intrinsic {
            func: Intrinsic::Abs,
            args: vec![e],
        }),
    ];
    let base = parse("subroutine s(x, y)\nreal x, y\ny = x\nend")
        .unwrap()
        .units
        .remove(0);
    let limit = MAX_EXPR_DEPTH as usize;
    for (shape, wrap) in shapes {
        let (mut accepted, mut rejected) = (0, 0);
        let mut e = x();
        for _ in 0..limit + 2 {
            e = wrap(e);
            let mut sub = base.clone();
            let Stmt::Assign { value, .. } = &mut sub.body[0] else {
                unreachable!()
            };
            *value = e.clone();
            let valid = validate_emittable(&sub).is_ok();
            let reparsed = parse(&sub.to_string()).is_ok();
            assert_eq!(valid, reparsed, "{shape}: validator and parser disagree");
            if valid {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(
            accepted > 0 && rejected > 0,
            "{shape} never crossed the limit"
        );
    }
}
