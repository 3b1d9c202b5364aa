//! Per-operator runtime metrics: the "actual rows" half of
//! `EXPLAIN ANALYZE`.
//!
//! A [`PlanMetrics`] tree mirrors the [`crate::PhysPlan`] operator tree
//! one node per operator, recording rows in/out, wall time, hash-join
//! build sizes, fixpoint iterations with per-iteration Δ-frontier
//! sizes, and per-worker task counts from the morsel scheduler.
//! Collection is opt-in (the [`crate::execute_profiled`] /
//! [`crate::eval_ra_profiled`] entry points) and strictly
//! observational: the metrics-free path takes no timestamps, and the
//! collecting path merges per-worker counts deterministically, so
//! collection never perturbs the byte-identical N-workers guarantee.
//!
//! Every field is either **deterministic** (row counts, iteration
//! Δ sizes, build sizes — identical at any thread count,
//! pinned by `tests/prop_engine.rs`) or **runtime** (wall time, degree
//! of parallelism, per-worker task counts — scheduling facts that vary
//! run to run). The renderer segregates
//! them: [`QueryProfile::render`] with `timing = false` prints only the
//! deterministic fields, and that rendering is byte-identical across
//! 1 vs 8 workers.
//!
//! The module also holds [`JsonWriter`], the serializer behind the
//! shell's `STATS JSON;` / `METRICS JSON;`.

use crate::plan::PhysPlan;
use std::fmt::Write as _;

/// Runtime metrics for one operator node; the `children` vector makes
/// it the metrics twin of the plan tree it was built from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanMetrics {
    /// The operator label, identical to the `EXPLAIN` node label.
    pub label: String,
    /// Whether the executor visited this node at all. A reachability
    /// fixpoint answered by CSR frontier sweeps never executes its step
    /// child; the node stays in the tree, marked unexecuted.
    pub executed: bool,
    /// Total input rows consumed from executed children (0 for leaves).
    pub rows_in: u64,
    /// Rows in this operator's output batch (bag semantics — the final
    /// set boundary is the profile's synthetic `Output` row count).
    pub rows_out: u64,
    /// The planner's estimated output rows (PR 10), grafted on by
    /// [`crate::annotate_estimates`] — `EXPLAIN ANALYZE`'s `est=`
    /// column. Deterministic: estimates are a pure function of the
    /// statistics snapshot, never of scheduling.
    pub est_rows: Option<u64>,
    /// Inclusive wall time for the subtree under this node, in
    /// nanoseconds. Runtime field.
    pub elapsed_ns: u64,
    /// Highest degree of parallelism any scheduler call under this
    /// operator actually used. Runtime field.
    pub dop: usize,
    /// Hash-join build-side rows (joins only).
    pub build_rows: Option<u64>,
    /// Semi-naive fixpoint Δ-frontier sizes, one entry per iteration.
    /// Deterministic: the rounds run on one thread.
    pub iterations: Option<Vec<u64>>,
    /// CSR frontier-sweep source groups (CSR-answered fixpoints only).
    pub sweep_groups: Option<u64>,
    /// Tasks claimed per worker slot, summed over this operator's
    /// scheduler calls. Runtime field: claim order is racy by design.
    pub worker_tasks: Vec<u64>,
    /// Metrics of this operator's plan children, in plan order.
    pub children: Vec<PlanMetrics>,
}

impl PlanMetrics {
    /// A fresh (all-zero, unexecuted) node with the given label.
    pub fn leaf(label: impl Into<String>) -> Self {
        PlanMetrics {
            label: label.into(),
            ..PlanMetrics::default()
        }
    }

    /// The all-zero metrics skeleton mirroring a plan tree; execution
    /// fills it in.
    pub fn from_plan(plan: &PhysPlan) -> Self {
        PlanMetrics {
            label: plan.node_label(),
            children: plan
                .children()
                .into_iter()
                .map(PlanMetrics::from_plan)
                .collect(),
            ..PlanMetrics::default()
        }
    }

    /// Folds one scheduler call's per-worker task counts into this
    /// node (element-wise, so repeated calls under one operator — a
    /// join's build then probe, a fixpoint's rounds — accumulate).
    pub(crate) fn record_workers(&mut self, claimed: &[u64]) {
        if self.worker_tasks.len() < claimed.len() {
            self.worker_tasks.resize(claimed.len(), 0);
        }
        for (slot, &n) in self.worker_tasks.iter_mut().zip(claimed) {
            *slot += n;
        }
    }

    /// One rendered line: deterministic fields always, runtime fields
    /// (time, dop, worker task counts) only with `timing`.
    fn line(&self, timing: bool) -> String {
        if !self.executed {
            return format!("{} [not executed]", self.label);
        }
        let mut s = self.label.clone();
        if !self.children.is_empty() {
            let _ = write!(s, " in={}", self.rows_in);
        }
        let _ = write!(s, " rows={}", self.rows_out);
        if let Some(e) = self.est_rows {
            let _ = write!(s, " est={e}");
        }
        if let Some(b) = self.build_rows {
            let _ = write!(s, " build={b}");
        }
        if let Some(g) = self.sweep_groups {
            let _ = write!(s, " sweeps={g}");
        }
        if let Some(deltas) = &self.iterations {
            let sizes: Vec<String> = deltas.iter().map(u64::to_string).collect();
            let _ = write!(s, " iters={} Δ=[{}]", deltas.len(), sizes.join(","));
        }
        if timing {
            let _ = write!(
                s,
                " (t={}, dop={}",
                fmt_ns(self.elapsed_ns),
                self.dop.max(1)
            );
            if !self.worker_tasks.is_empty() {
                let counts: Vec<String> = self.worker_tasks.iter().map(u64::to_string).collect();
                let _ = write!(s, ", tasks=[{}]", counts.join(","));
            }
            s.push(')');
        }
        s
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, timing: bool) {
        let branch = if last { "└─ " } else { "├─ " };
        let _ = writeln!(out, "{prefix}{branch}{}", self.line(timing));
        let child_prefix = if last {
            format!("{prefix}   ")
        } else {
            format!("{prefix}│  ")
        };
        let n = self.children.len();
        for (i, c) in self.children.iter().enumerate() {
            c.render_into(out, &child_prefix, i + 1 == n, timing);
        }
    }
}

/// A finished query's profile: the per-operator [`PlanMetrics`] tree
/// under a synthetic `Output` root that carries the *set-semantics*
/// result cardinality (the plan root is bag-semantics; the decode/set
/// boundary runs once above it).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// Result cardinality after the set-semantics boundary.
    pub rows: u64,
    /// Worker threads the query was configured with.
    pub threads: usize,
    /// End-to-end wall time including the decode boundary, in
    /// nanoseconds. Runtime field.
    pub elapsed_ns: u64,
    /// The plan-root metrics node.
    pub root: PlanMetrics,
}

impl QueryProfile {
    /// Renders the annotated tree. With `timing = false` only the
    /// deterministic fields print — that rendering is byte-identical
    /// across thread counts.
    pub fn render(&self, timing: bool) -> String {
        let mut out = String::new();
        out.push_str("Output rows=");
        let _ = write!(out, "{}", self.rows);
        if timing {
            let _ = write!(
                out,
                " (total={}, threads={})",
                fmt_ns(self.elapsed_ns),
                self.threads
            );
        }
        out.push('\n');
        self.root.render_into(&mut out, "", true, timing);
        out
    }
}

/// Nanoseconds, humanized (`812ns`, `14.2µs`, `3.1ms`, `2.45s`).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1_000.0),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1_000_000.0),
        _ => format!("{:.2}s", ns as f64 / 1_000_000_000.0),
    }
}

/// A minimal hand-rolled, pretty-printing (two-space indent) JSON
/// writer — the one serializer behind the shell's `STATS JSON;` /
/// `METRICS JSON;`. No serde: the workspace is dependency-free by
/// policy, and the JSON this stack emits is flat enough that a
/// push-style writer is the whole job.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    counts: Vec<usize>,
    pending_key: bool,
}

impl JsonWriter {
    /// An empty document.
    pub fn pretty() -> Self {
        JsonWriter {
            out: String::new(),
            counts: Vec::new(),
            pending_key: false,
        }
    }

    /// A line break indented to the current nesting depth.
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.counts.len() {
            self.out.push_str("  ");
        }
    }

    fn prelude(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(n) = self.counts.last_mut() {
            if *n > 0 {
                self.out.push(',');
            }
            *n += 1;
            self.newline();
        }
    }

    fn close(&mut self, ch: char) {
        if self.counts.pop().unwrap_or(0) > 0 {
            self.newline();
        }
        self.out.push(ch);
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.prelude();
        self.out.push('{');
        self.counts.push(0);
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.prelude();
        self.out.push('[');
        self.counts.push(0);
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Writes an object key; the next value call supplies its value.
    pub fn key(&mut self, k: &str) {
        self.prelude();
        push_escaped(&mut self.out, k);
        self.out.push_str(": ");
        self.pending_key = true;
    }

    /// Writes a string value.
    pub fn string(&mut self, v: &str) {
        self.prelude();
        push_escaped(&mut self.out, v);
    }

    /// Writes an unsigned integer value.
    pub fn number(&mut self, v: u64) {
        self.prelude();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a finite float value with fixed 4-decimal precision.
    pub fn float(&mut self, v: f64) {
        self.prelude();
        let _ = write!(self.out, "{v:.4}");
    }

    /// Finishes and returns the document.
    pub fn finish(self) -> String {
        self.out
    }
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skeleton_mirrors_the_plan_tree() {
        let plan = PhysPlan::Scan("R".into())
            .hash_join(PhysPlan::Scan("S".into()), vec![(0, 0)])
            .distinct();
        let m = PlanMetrics::from_plan(&plan);
        assert_eq!(m.label, "Distinct");
        assert_eq!(m.children.len(), 1);
        assert_eq!(m.children[0].children.len(), 2);
        assert_eq!(m.children[0].children[0].label, "Scan R");
        assert!(!m.executed);
    }

    #[test]
    fn worker_counts_merge_elementwise() {
        let mut m = PlanMetrics::leaf("x");
        m.record_workers(&[3, 1]);
        m.record_workers(&[2, 2, 5]);
        assert_eq!(m.worker_tasks, vec![5, 3, 5]);
    }

    #[test]
    fn timing_free_render_hides_runtime_fields() {
        let mut root = PlanMetrics::leaf("Distinct");
        root.executed = true;
        root.rows_in = 10;
        root.rows_out = 4;
        root.elapsed_ns = 12_345;
        root.dop = 4;
        root.worker_tasks = vec![2, 1];
        let mut scan = PlanMetrics::leaf("Scan R");
        scan.executed = true;
        scan.rows_out = 10;
        root.children.push(scan);
        let profile = QueryProfile {
            rows: 4,
            threads: 4,
            elapsed_ns: 20_000,
            root,
        };
        let bare = profile.render(false);
        assert!(bare.contains("Output rows=4"), "{bare}");
        assert!(bare.contains("└─ Distinct in=10 rows=4"), "{bare}");
        assert!(bare.contains("   └─ Scan R rows=10"), "{bare}");
        assert!(!bare.contains("dop="), "{bare}");
        assert!(!bare.contains("µs"), "{bare}");
        let timed = profile.render(true);
        assert!(timed.contains("t=12.3µs"), "{timed}");
        assert!(timed.contains("dop=4"), "{timed}");
        assert!(timed.contains("tasks=[2,1]"), "{timed}");
    }

    #[test]
    fn unexecuted_nodes_say_so() {
        let mut m = PlanMetrics::leaf("Fixpoint");
        m.executed = true;
        m.sweep_groups = Some(3);
        m.children.push(PlanMetrics::leaf("IndexScan E"));
        assert!(m.line(false).contains("sweeps=3"));
        assert_eq!(m.children[0].line(false), "IndexScan E [not executed]");
    }

    #[test]
    fn json_writer_escapes_and_nests() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("a\"b");
        w.string("x\ny");
        w.key("list");
        w.begin_array();
        w.number(1);
        w.float(0.5);
        w.end_array();
        w.key("empty");
        w.begin_array();
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\n  \"a\\\"b\": \"x\\ny\",\n  \"list\": [\n    1,\n    0.5000\n  ],\n  \"empty\": []\n}"
        );
    }
}
