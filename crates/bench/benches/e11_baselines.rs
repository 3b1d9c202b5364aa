//! E11 — the Section 4.1 NL baselines, measured: the same reachability
//! question through four routes (PGQrw view+pattern, FO[TC] lowered to
//! one executor plan, hand-written linear Datalog, and the
//! FO[TC]→Datalog bridge), on grids of growing size. The shapes to
//! look for: all four are polynomial in |D| (NL ⊆ P data complexity);
//! semi-naive Datalog and the NFA pattern engine sit well below the
//! quantifier-enumerating logic evaluator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgq_core::{builders, Query};
use pgq_datalog::{compile_formula, evaluate, evaluate_naive, parse_program};
use pgq_logic::{eval_ordered, Formula, Term};
use pgq_value::Var;
use pgq_workloads::families;
use std::time::Duration;

fn reach_formula() -> Formula {
    let step = Formula::exists(
        ["e"],
        Formula::atom("S", ["e", "u"]).and(Formula::atom("T", ["e", "v"])),
    );
    Formula::tc(
        vec![Var::new("u")],
        vec![Var::new("v")],
        step,
        vec![Term::var("x")],
        vec![Term::var("y")],
    )
    .and(Formula::atom("N", ["x"]).and(Formula::atom("N", ["y"])))
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_baselines");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));

    let program = parse_program(
        "reach(X, X) :- N(X).\n\
         reach(X, Z) :- reach(X, Y), step(Y, Z).\n\
         step(X, Y) :- S(E, X), T(E, Y).",
    )
    .unwrap();
    let phi = reach_formula();
    let compiled = compile_formula(&phi).unwrap();

    for w in [4usize, 8, 12] {
        let db = families::grid_db(w, 4);
        group.bench_with_input(BenchmarkId::new("pgqrw_pattern", w), &db, |b, db| {
            let q = Query::pattern_ro(
                builders::reachability_output(),
                ["N", "E", "S", "T", "L", "P"],
            );
            b.iter(|| pgq_core::eval(&q, db).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("fo_tc_eval", w), &db, |b, db| {
            b.iter(|| eval_ordered(&phi, &[Var::new("x"), Var::new("y")], db).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("datalog_semi_naive", w), &db, |b, db| {
            b.iter(|| evaluate(&program, db).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("datalog_naive", w), &db, |b, db| {
            b.iter(|| evaluate_naive(&program, db).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("bridge_compiled", w), &db, |b, db| {
            b.iter(|| evaluate(&compiled.program, db).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
