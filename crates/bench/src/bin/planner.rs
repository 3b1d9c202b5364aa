//! The E20 planner-ablation driver (PR 10):
//!
//! ```sh
//! # CI planner-ablation smoke: 10³–10⁴ nodes, floors gated in release
//! cargo run --release -p pgq-bench --bin planner -- --max-nodes 10000
//!
//! # the committed full-scale record rides in BENCH_10.json (see the
//! # `report` binary); a standalone curve can be written with --json
//! cargo run --release -p pgq-bench --bin planner -- --max-nodes 100000 --json planner.json
//! ```
//!
//! Runs `pgq_bench::planner_suite` over both `pgq_workloads::scale`
//! generators at every decade up to `--max-nodes`, executing each
//! workload as lowered under both planners (`PlannerChoice::Cost` and
//! `PlannerChoice::Rule` — one pass, two estimators), prints one line
//! per point with the rule-over-cost speedup, and in optimized builds
//! gates the curves on `pgq_bench::assert_planner_floors` — the control
//! lowers to one plan under both, differing plans hold parity, and the
//! multi-join transfers workload is ≥ 1.5× at the largest scale.

use pgq_bench::planner;

fn arg(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|p| args.get(p + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} takes a number, got {v:?}"))
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_nodes = arg(&args, "--max-nodes").unwrap_or(10_000);
    let threads = pgq_exec::ExecOptions::auto().threads;
    let points = planner::planner_suite(max_nodes, threads);
    for p in &points {
        println!(
            "{}/{}/{}: {} rows, cost {} µs vs rule {} µs = {:.2}x{}",
            p.workload,
            p.generator,
            p.nodes,
            p.rows,
            p.cost_ns / 1_000,
            p.rule_ns / 1_000,
            p.speedup(),
            match (p.multi_join, p.same_plan) {
                (true, _) => " (multi-join)",
                (false, true) => " (same plan)",
                (false, false) => "",
            }
        );
    }
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        let path = args
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("planner.json");
        let mut w = pgq_exec::JsonWriter::pretty();
        w.begin_object();
        planner::write_planner_section(&mut w, &points);
        w.end_object();
        let mut json = w.finish();
        json.push('\n');
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("planner ablation written to {path}.");
    }
    // Debug builds measure the interpreter, not the planner's plan
    // quality; only optimized runs are held to the E20 floors.
    if !cfg!(debug_assertions) {
        planner::assert_planner_floors(&points);
        println!("planner ablation floors hold (E20).");
    } else {
        println!("planner ablation floors skipped (debug build).");
    }
}
