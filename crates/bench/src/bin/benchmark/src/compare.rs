//! `--compare <a.json> <b.json>`: two records of this benchmark, per
//! workload × end-to-end metric, each ratio with its base and a verdict
//! against the bound `BENCHMARK.json` fixes for the metric.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// Not regressed, but one side's own run-to-run spread (distance
    /// between its quartiles over its median) exceeds the bound: the
    /// medians cannot carry the claim "unchanged".
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub base: f64,
    pub new: f64,
    /// `new / base`.
    pub ratio: f64,
    /// Share of `base` by which `new` is worse (negative: better).
    pub worse: f64,
    /// Each side's spread; `None` with fewer than two runs.
    pub spread: [Option<f64>; 2],
    pub verdict: Verdict,
}

pub fn judge(a: &[f64], b: &[f64], metric: &MetricSpec) -> Option<Row> {
    let (base, new) = (stats::median_of(a)?, stats::median_of(b)?);
    let worse = if metric.lower_is_better {
        (new - base) / base
    } else {
        (base - new) / base
    };
    let bound = metric.bound?;
    let spread = [stats::spread(a), stats::spread(b)];
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if spread.iter().flatten().any(|s| *s > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Some(Row {
        base,
        new,
        ratio: new / base,
        worse,
        spread,
        verdict,
    })
}

/// Every value a record holds for `workload` × `metric`, one per run.
fn values(record: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let runs = record.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("untraced")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn parse_record(text: &str) -> Result<Json, String> {
    let record = Json::parse(text)?;
    let meta = record.get("meta").ok_or("not a benchmark record")?;
    if meta.get("smoke") != Some(&Json::Bool(false)) {
        return Err("a smoke record measures nothing comparable".to_string());
    }
    Ok(record)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_record(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn run(a_path: &str, b_path: &str, spec: &Spec) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let pct = |s: Option<f64>| s.map_or("    n/a".to_string(), |s| format!("{:6.2}%", s * 100.0));
    println!(
        "{:<12} {:<15} {:>13} {:>13} {:>7} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "worse", "iqr(a)", "iqr(b)", "bound"
    );
    let (mut regressed, mut unresolved, mut rows) = (0, 0, 0);
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (va, vb) = (
                values(&a, workload, &metric.name),
                values(&b, workload, &metric.name),
            );
            let Some(row) = judge(&va, &vb, metric) else {
                return Err(format!(
                    "{workload} × {} is missing from a record",
                    metric.name
                ));
            };
            rows += 1;
            match row.verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{:<12} {:<15} {:>13.4} {:>13.4} {:>7.4} {:>7.2}% {} {} {:>5.0}%  {}",
                workload,
                metric.name,
                row.base,
                row.new,
                row.ratio,
                row.worse * 100.0,
                pct(row.spread[0]),
                pct(row.spread[1]),
                metric.bound.unwrap_or(0.0) * 100.0,
                match row.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("{rows} rows: {regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_on_synthetic_records() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let lower = metric(true, 0.10);
        // Same numbers: ok.
        assert_eq!(
            judge(&steady, &steady, &lower).unwrap().verdict,
            Verdict::Ok
        );
        // 20 % slower against a 10 % bound: regressed, ratio on its base.
        let slow: Vec<f64> = steady.iter().map(|x| x * 1.2).collect();
        let row = judge(&steady, &slow, &lower).unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
        assert!((row.ratio - 1.2).abs() < 1e-9 && row.base == 10.0);
        // 20 % faster is not a regression.
        assert_eq!(judge(&slow, &steady, &lower).unwrap().verdict, Verdict::Ok);
        // Medians agree but one side's quartiles are 30 % apart.
        let noisy = [8.0, 9.0, 10.0, 11.0, 12.0];
        assert_eq!(
            judge(&steady, &noisy, &lower).unwrap().verdict,
            Verdict::Unresolved
        );
        // Direction: for a rate, lower is the regression.
        let higher = metric(false, 0.10);
        assert_eq!(
            judge(&slow, &steady, &higher).unwrap().verdict,
            Verdict::Regressed
        );
        assert_eq!(judge(&steady, &slow, &higher).unwrap().verdict, Verdict::Ok);
        // Single runs: no spread to speak of, medians decide.
        let one = judge(&[10.0], &[10.5], &lower).unwrap();
        assert_eq!((one.verdict, one.spread), (Verdict::Ok, [None, None]));
        assert!(judge(&[], &[1.0], &lower).is_none());
    }

    #[test]
    fn reads_values_run_by_run() {
        let text = r#"{"meta":{"smoke":false},"runs":[
            {"workloads":{"w":{"untraced":{"metrics":{"m":{"value":1.5,"unit":"ms"}}}}}},
            {"workloads":{"w":{"untraced":{"metrics":{"m":{"value":2.5,"unit":"ms"}}}}}}]}"#;
        let record = parse_record(text).unwrap();
        assert_eq!(values(&record, "w", "m"), [1.5, 2.5]);
        assert!(values(&record, "w", "other").is_empty());
        // A smoke record is refused outright.
        let smoke = text.replace("\"smoke\":false", "\"smoke\":true");
        assert!(parse_record(&smoke).unwrap_err().contains("smoke"));
        assert!(parse_record("{}").is_err());
    }
}
