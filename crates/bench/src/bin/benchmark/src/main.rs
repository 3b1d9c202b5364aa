//! The repository's benchmark: one program for the statement path
//! (`serve_read`, `serve_mixed`) and the embedded store (`embed_scale`,
//! `embed_churn`). See README.md beside this package for what each
//! workload is for, what every metric means and which layer should move
//! which number.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one pass of one workload; the last line of standard output is the
//!     result object BENCHMARK.json's contract describes
//! benchmark [--seed <n>] [--runs <k>] [--trace 1] [--out record.json]
//!     every workload, every metric printed by name with its unit
//! benchmark --compare <a.json> <b.json>     verdict per workload × metric
//! benchmark --selfcheck [--seed <n>]        same seed ⇒ same streams
//! benchmark --smoke                         sizes ÷ 20, a few seconds
//! ```

mod compare;
mod embed;
mod gen;
mod json;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;

use gen::{Fnv, Transfers};
use json::Json;
use run::{timed, Config, Outcome};
use spec::Spec;
use std::process::ExitCode;
use trace::Tracer;

/// Rounds of the traced write replay.
const TRACE_WRITE_ROUNDS: usize = 16;
/// (one-hops = two-hops = sweeps, joins) of the traced read replay.
const TRACE_READS: (usize, usize) = (60, 3);

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
    smoke: bool,
    selfcheck: bool,
    spans: Option<String>,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        runs: 1,
        smoke: false,
        selfcheck: false,
        spans: None,
        out: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = num(flag, value()?)?,
            "--seconds" => cli.seconds = Some(num(flag, value()?)?),
            "--runs" => cli.runs = num(flag, value()?)?,
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans" => cli.spans = Some(value()?),
            "--out" => cli.out = Some(value()?),
            "--compare" => cli.compare = Some((value()?, value()?)),
            "--smoke" => cli.smoke = true,
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must lie in (0, 600]".to_string());
    }
    if cli.runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    Ok(cli)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` without starting a process;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The untraced pass of one workload.
fn untraced(cfg: &Config, workload: &str) -> Outcome {
    match workload {
        "serve_read" => serve::run(cfg, false),
        "serve_mixed" => serve::run(cfg, true),
        "embed_scale" => embed::run_scale(cfg),
        "embed_churn" => embed::run_churn(cfg),
        other => unreachable!("workload {other} was validated against BENCHMARK.json"),
    }
}

/// The traced pass. It is the same whichever workload it is asked
/// for: every per-layer metric has to come out of every traced run, and
/// a layer metric means something only on the route that goes through
/// that layer. So the pass replays each route where a workload uses it —
/// statements on the `serve_*` graph (a prefix of `serve_mixed`'s
/// stream: `serve_read`'s reads plus the writes), store reads on
/// `embed_scale`'s graph, store writes on `embed_churn`'s. Counts are
/// fixed, not timed, and the executor runs one thread, so the work
/// counters repeat exactly.
fn traced(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(true);
    // The graphs and the input form each route consumes: generator work.
    let ((serve_g, scale_g, churn_g), generate_ms) = timed(|| {
        let graphs = (
            serve::graph(cfg),
            embed::scale_graph(cfg),
            embed::churn_graph(cfg),
        );
        std::hint::black_box(graphs.0.load_lines());
        std::hint::black_box((graphs.1.bulk(), graphs.2.bulk()));
        graphs
    });
    out.metric("benchmark.generate_s", generate_ms / 1e3);

    let ops = serve::trace_ops(&serve_g, cfg.seed, cfg.size(serve::TRACE_OPS).max(16));
    let statements = serve::trace_statements(&serve_g, &ops, &mut tr, &mut out);
    let counts = (cfg.size(TRACE_READS.0).max(2), TRACE_READS.1);
    let reads = embed::trace_reads(&scale_g, cfg.seed, cfg.threads, counts, &mut tr, &mut out);
    drop(scale_g);
    let rounds = TRACE_WRITE_ROUNDS;
    let writes = embed::trace_writes(&churn_g, cfg.seed, cfg.threads, rounds, &mut tr, &mut out);

    // Recording on ÷ off, over the operations of all three replays.
    let (on, off) = [statements, reads, writes]
        .iter()
        .fold((0.0, 0.0), |(on, off), r| (on + r.0, off + r.1));
    out.metric("benchmark.trace_overhead", on / off);
    out.info("spans", Json::Num(tr.spans.len() as f64));
    out.spans = tr.spans;
    out
}

/// Holds a pass to `BENCHMARK.json`: exactly the metrics it lists for
/// the mode, each a finite number. Anything else is a failed run.
fn settle(out: &mut Outcome, spec: &Spec, traced: bool) {
    let wanted = spec.metrics(traced);
    for m in wanted {
        let found = out.metrics.iter().filter(|(n, _)| *n == m.name).count();
        out.checks.check(found == 1, || {
            format!("metric {} emitted {found} times", m.name)
        });
    }
    let extra: Vec<&str> = out
        .metrics
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| wanted.iter().all(|m| m.name != *n))
        .collect();
    out.checks
        .check(extra.is_empty(), || format!("unlisted metrics {extra:?}"));
    for (name, v) in &out.metrics {
        out.checks
            .check(v.is_finite(), || format!("metric {name} is {v}"));
    }
}

fn metrics_json(out: &Outcome, spec: &Spec, traced: bool) -> Json {
    Json::Obj(
        spec.metrics(traced)
            .iter()
            .filter_map(|m| {
                let (_, v) = out.metrics.iter().find(|(n, _)| *n == m.name)?;
                let body = Json::obj([("value", Json::Num(*v)), ("unit", Json::str(&m.unit))]);
                Some((m.name.clone(), body))
            })
            .collect(),
    )
}

/// The result object of one pass, in the driver's shape.
fn result_json(out: &Outcome, spec: &Spec, traced: bool) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.checks.failed == 0)),
        ("attempted", Json::Num(out.checks.attempted.max(1) as f64)),
        ("failed", Json::Num(out.checks.failed as f64)),
        ("metrics", metrics_json(out, spec, traced)),
    ])
}

fn print_pass(pass: &str, out: &Outcome, spec: &Spec, traced: bool) {
    println!(
        "== {pass}: {} operations attempted, {} failed",
        out.checks.attempted, out.checks.failed
    );
    for m in spec.metrics(traced) {
        match out.metrics.iter().find(|(n, _)| *n == m.name) {
            Some((_, v)) => println!("  {:<48} {:>16.4} {}", m.name, v, m.unit),
            None => println!("  {:<48} {:>16} {}", m.name, "missing", m.unit),
        }
    }
    for (name, v) in &out.info {
        println!("  · {name} = {v}");
    }
    for p in &out.checks.problems {
        println!("  !! {p}");
    }
}

/// Executor workers of the embedded route, traced or not. One busy
/// thread at a time is the rule of every workload here: the host is
/// shared, `nproc` is 2, and a second worker — spawned per operator —
/// measures whether a neighbour leaves the second core alone (a 0.5 ms
/// read spread by 15–20 % from run to run with two). It also lets the
/// store's work counters repeat exactly.
const EXECUTOR_THREADS: usize = 1;

/// One pass — a workload's untraced one, or the traced one — held to
/// `BENCHMARK.json` and printed.
fn run_pass(cfg: &Config, spec: &Spec, workload: Option<&str>) -> Outcome {
    // `eval_ra_with` takes its worker count from the environment.
    std::env::set_var("PGQ_THREADS", cfg.threads.to_string());
    let mut out = match workload {
        Some(w) => untraced(cfg, w),
        None => traced(cfg),
    };
    settle(&mut out, spec, workload.is_none());
    print_pass(
        workload.unwrap_or("traced pass"),
        &out,
        spec,
        workload.is_none(),
    );
    out
}

/// `--selfcheck`: the same seed must give byte-identical streams, and
/// the next seed different ones. Prints the stream hashes.
fn selfcheck(seed: u64) -> bool {
    let hashes = |seed: u64| -> Vec<(&'static str, u64)> {
        let g = Transfers::generate(250, 16, 4, seed);
        let mut load = Fnv::default();
        for stmt in g.load_lines().iter().flatten() {
            load.bytes(stmt.as_bytes());
        }
        let mut bulk = Fnv::default();
        bulk.bytes(format!("{:?}", g.bulk()).as_bytes());
        vec![
            ("transfers graph", g.fingerprint()),
            ("protocol load stream", load.0),
            ("bulk graph", bulk.0),
            (
                "serve_read streams",
                gen::serve_stream_hash(&g, seed, serve::CLIENTS, false, 600),
            ),
            (
                "serve_mixed streams",
                gen::serve_stream_hash(&g, seed, serve::CLIENTS, true, 600),
            ),
            ("embed_churn batches", gen::churn_stream_hash(&g, seed, 64)),
        ]
    };
    let (a, again, other) = (hashes(seed), hashes(seed), hashes(seed.wrapping_add(1)));
    let mut ok = true;
    for ((name, h), ((_, h2), (_, h3))) in a.iter().zip(again.iter().zip(&other)) {
        let (same, differs) = (h == h2, h != h3);
        ok &= same && differs;
        println!(
            "{name:<22} seed {seed}: {h:016x}  repeat {}  seed {}: {}",
            if same { "identical" } else { "DIFFERS" },
            seed.wrapping_add(1),
            if differs { "different" } else { "IDENTICAL" },
        );
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    if let Some((a, b)) = &cli.compare {
        return match compare::run(a, b, &spec) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    if cli.selfcheck {
        return if selfcheck(cli.seed) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    if let Some(w) = &cli.workload {
        if !spec.workloads.contains(w) {
            eprintln!(
                "benchmark: unknown workload {w:?}; BENCHMARK.json lists {:?}",
                spec.workloads
            );
            return ExitCode::from(2);
        }
    }

    let seconds = cli
        .seconds
        .unwrap_or(if cli.smoke { 0.4 } else { spec.run_seconds });
    let workloads: Vec<String> = match &cli.workload {
        Some(w) => vec![w.clone()],
        None => spec.workloads.clone(),
    };
    // One named workload runs one pass, as the driver asks — the traced
    // pass is the same for each; the full run measures every workload
    // untraced first and traces once, separately.
    let untraced_of: &[String] = match (&cli.workload, cli.trace) {
        (Some(_), true) => &[],
        _ => &workloads,
    };
    let mut failed = false;
    let mut runs = Vec::new();
    let mut last = None;
    for seed in (cli.seed..).take(cli.runs) {
        let cfg = Config {
            seed,
            seconds,
            smoke: cli.smoke,
            threads: EXECUTOR_THREADS,
        };
        let mut run = vec![("seed".to_string(), Json::Num(seed as f64))];
        let mut per_workload = Vec::new();
        for w in untraced_of {
            let out = run_pass(&cfg, &spec, Some(w));
            failed |= out.checks.failed > 0;
            let result = result_json(&out, &spec, false);
            last = Some(result.clone());
            let fields = [("untraced", result), ("untraced_info", Json::Obj(out.info))];
            per_workload.push((w.clone(), Json::obj(fields)));
        }
        run.push(("workloads".to_string(), Json::Obj(per_workload)));
        if cli.trace {
            let out = run_pass(&cfg, &spec, None);
            failed |= out.checks.failed > 0;
            if let Some(path) = &cli.spans {
                if let Err(e) = std::fs::write(path, trace::to_json(&out.spans).pretty()) {
                    eprintln!("benchmark: {path}: {e}");
                    failed = true;
                }
            }
            let result = result_json(&out, &spec, true);
            last = Some(result.clone());
            run.push(("traced".to_string(), result));
            run.push(("traced_info".to_string(), Json::Obj(out.info)));
        }
        runs.push(Json::Obj(run));
    }

    if let Some(path) = &cli.out {
        let meta = Json::obj([
            ("benchmark", Json::str("pgq-benchmark")),
            ("commit", Json::str(git_commit())),
            ("seed", Json::Num(cli.seed as f64)),
            ("runs", Json::Num(cli.runs as f64)),
            ("seconds", Json::Num(seconds)),
            ("smoke", Json::Bool(cli.smoke)),
            ("nproc", Json::Num(nproc() as f64)),
            ("executor_threads", Json::Num(EXECUTOR_THREADS as f64)),
            ("serve_clients", Json::Num(serve::CLIENTS as f64)),
        ]);
        let record = Json::obj([("meta", meta), ("runs", Json::Arr(runs))]);
        if let Err(e) = std::fs::write(path, record.pretty()) {
            eprintln!("benchmark: {path}: {e}");
            failed = true;
        }
    }
    // The driver reads the last line of standard output.
    if let (Some(_), Some(result)) = (&cli.workload, last) {
        println!("{result}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Config {
        Config {
            seed: 1,
            seconds: 0.1,
            smoke: true,
            threads: 1,
        }
    }

    /// `--smoke` in miniature: every workload and the traced pass, at
    /// sizes ÷ 20 — the plumbing, the oracles and the `BENCHMARK.json`
    /// contract, not performance.
    #[test]
    fn smoke_pass_emits_every_metric_and_every_oracle_holds() {
        let spec = Spec::load();
        let cfg = smoke();
        let passes = spec.workloads.iter().map(Some).chain([None]);
        for workload in passes {
            let is_traced = workload.is_none();
            let mut out = match workload {
                Some(w) => untraced(&cfg, w),
                None => traced(&cfg),
            };
            settle(&mut out, &spec, is_traced);
            let problems = &out.checks.problems;
            assert!(problems.is_empty(), "{workload:?}: {problems:?}");
            assert!(out.checks.attempted > 0);
            let result = result_json(&out, &spec, is_traced);
            assert!(result.get("metrics").is_some());
            assert_eq!(is_traced, !out.spans.is_empty());
        }
    }

    #[test]
    fn spec_matches_the_contract() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            ["serve_read", "serve_mixed", "embed_scale", "embed_churn"]
        );
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert!(
            setup.is_some_and(|m| m.unit == "s" && m.lower_is_better && m.bound == Some(largest))
        );
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "a name is used twice"
        );
    }

    #[test]
    fn cli_accepts_the_driver_arguments() {
        let args: Vec<String> = "--workload serve_read --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve_read"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, Some(12.0), true));
        assert!(parse_cli(&["--trace".into(), "yes".into()]).is_err());
        assert!(parse_cli(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_cli(&["--bogus".into()]).is_err());
    }
}
