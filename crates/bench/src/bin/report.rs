//! Regenerates the measured section of `EXPERIMENTS.md`:
//!
//! ```sh
//! cargo run -p pgq-bench --bin report
//! ```
//!
//! Every experiment asserts its claim internally; reaching the end of
//! the output means every check passed.
//!
//! `--json [path]` instead runs the reduced-size engine-ablation smoke
//! (the `e12_engine`, `e13_store` and `e15_updates` shapes: reference
//! vs. hash-join engine vs. S16 store-backed engine, incremental apply
//! vs. full re-registration, plus
//! the PR 6 morsel-parallelism ablation at 1 vs. 4 worker threads) and
//! writes the machine-readable bench record (default `BENCH_8.json`),
//! so CI accumulates a perf data point per run. Since PR 7 the record
//! also embeds per-operator `EXPLAIN ANALYZE` profiles for the E17
//! coded reachability closure and the E18 query-after-update shape
//! (`pgq_bench::profile_records`) under a `"profiles"` key; since PR 8
//! it adds a `"serve"` section — the mixed read/update QPS + p50/p99
//! record from the closed-loop `pgq-server` load generator
//! (`pgq_bench::serve_mixed_load`, which also replays the load into a
//! fresh sequential engine and panics on divergence). In optimized
//! builds the record is additionally held to the E18 update floors
//! (`pgq_bench::assert_update_floors`), the PR 8 serve floors
//! (`pgq_bench::assert_serve_floors`: error-free at ≥ 100 QPS with a
//! bounded p99) and — on machines with at least 4 cores — the parallel
//! speedup floors (`pgq_bench::assert_parallel_floors`) plus the PR 7
//! metrics-overhead ceiling (`pgq_bench::assert_metrics_overhead`:
//! collecting metrics may cost at most 5% on the parallel transfers
//! join). Since PR 9 the record carries a `"scaling"` section — the
//! E19 bulk-ingestion curves over the `pgq_workloads::scale`
//! generators (`pgq_bench::scaling_suite`), sized by `--max-nodes`
//! (default 10⁴ for the CI smoke; the committed `BENCH_9.json` is a
//! full `--max-nodes 1000000` run) and held in optimized builds to the
//! loader-throughput, near-linear-growth and bulk-vs-register floors
//! (`pgq_bench::assert_scaling_floors`). Since PR 10 the record carries
//! a `"planner"` section — the E20 cost-vs-rule planner ablation
//! (`pgq_bench::planner_suite`, same generators and `--max-nodes`
//! decades) held in optimized builds to `assert_planner_floors`: the
//! cost-based planner at parity or better on every workload and ≥ 1.5×
//! the rule pass on the multi-join transfers workload at the largest
//! scale:
//!
//! ```sh
//! cargo run --release -p pgq-bench --bin report -- --json BENCH_10.json
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        let path = args
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_10.json");
        let max_nodes = args
            .iter()
            .position(|a| a == "--max-nodes")
            .and_then(|p| args.get(p + 1))
            .map(|v| v.parse().expect("--max-nodes takes a node count"))
            .unwrap_or(10_000);
        let threads = pgq_exec::ExecOptions::auto().threads;
        let mut entries = pgq_bench::full_suite(1);
        let profiles = pgq_bench::profile_records(1);
        let serve = pgq_bench::serve_mixed_load(4, 30);
        entries.extend(pgq_bench::serve_entries(&serve));
        let scaling =
            pgq_bench::scaling_suite(max_nodes, pgq_bench::scaling::REGISTER_CAP, threads);
        entries.extend(pgq_bench::scaling_entries(&scaling));
        let planner = pgq_bench::planner_suite(max_nodes, threads);
        let json = pgq_bench::to_json_with_planner(&entries, &profiles, &serve, &scaling, &planner);
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        for e in &entries {
            println!("{}: {} ns (|D| = {})", e.name, e.mean_ns, e.input_size);
        }
        for p in &scaling {
            println!(
                "scaling/{}/{}: {:.0} rows/s over {} rows",
                p.generator,
                p.nodes,
                p.rows_per_sec(),
                p.rows
            );
        }
        for p in &planner {
            println!(
                "planner/{}/{}/{}: cost {:.2}x rule over {} rows",
                p.workload,
                p.generator,
                p.nodes,
                p.speedup(),
                p.rows
            );
        }
        println!(
            "serve: {:.1} QPS over {} mixed requests ({} error(s))",
            serve.qps, serve.requests, serve.errors
        );
        // Debug builds drown every measured effect in uniform
        // interpretation overhead; only optimized runs are held to the
        // floors.
        if !cfg!(debug_assertions) {
            pgq_bench::assert_update_floors(&entries);
            println!("incremental-update floors hold (E18).");
            pgq_bench::assert_serve_floors(&serve);
            println!("serve floors hold (PR 8).");
            pgq_bench::assert_scaling_floors(&scaling);
            println!("ingestion scaling floors hold (E19).");
            pgq_bench::assert_planner_floors(&planner);
            println!("planner ablation floors hold (E20).");
            // The speedup floors additionally need real cores to
            // parallelize onto; a 1-core runner measures only the
            // scheduling overhead.
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            if cores >= 4 {
                pgq_bench::assert_parallel_floors(&entries);
                println!("parallel speedup floors hold (PR 6).");
                pgq_bench::assert_metrics_overhead(1);
                println!("metrics overhead ceiling holds (PR 7).");
            } else {
                println!("parallel speedup floors skipped ({cores} core(s) < 4).");
            }
        }
        println!("bench smoke written to {path}.");
        return;
    }
    println!("# Experiment report (generated by `cargo run -p pgq-bench --bin report`)\n");
    print!("{}", pgq_bench::full_report());
    println!("\nall experiment assertions passed.");
}
