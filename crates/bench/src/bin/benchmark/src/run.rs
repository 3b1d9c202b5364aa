//! What every workload shares: the run configuration, the result it
//! hands back, and the failure ledger the oracles write into.

use crate::json::Json;
use crate::stats;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Sizes ÷ 20 and a single set-up: a pass that only proves the
    /// plumbing. Its record is flagged and `--compare` refuses it.
    pub smoke: bool,
    /// Executor workers of the embedded route (`PGQ_THREADS`).
    pub threads: usize,
}

impl Config {
    pub fn size(&self, full: usize) -> usize {
        if self.smoke {
            (full / 20).max(1)
        } else {
            full
        }
    }

    /// Sets the workload up `reps` times (once in a smoke pass), each
    /// time after dropping the previous instance, and returns the last
    /// instance with the median set-up time in seconds — a median so
    /// that one slow page-in does not decide `setup_s`; a workload whose
    /// set-up is cheap affords more repetitions.
    pub fn set_up<T>(&self, reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
        let mut seconds = Vec::new();
        let mut live = None;
        for _ in 0..if self.smoke { 1 } else { reps } {
            drop(live.take());
            let t = Instant::now();
            live = Some(build());
            seconds.push(t.elapsed().as_secs_f64());
        }
        (live.expect("at least one set-up"), med(&seconds))
    }
}

/// A guarded percentile for `info`: the value, or the reason there is
/// none.
pub fn percentile_or_reason(samples_ms: &[f64], q: f64) -> Json {
    stats::percentile(&stats::sorted(samples_ms.to_vec()), q).map_or_else(Json::Str, Json::Num)
}

/// Operations attempted and failed — errored, refused or wrongly
/// answered all count the same — with the first few reasons kept.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(8);
    }
}

/// One timed operation of the untraced pass.
#[derive(Debug, Clone, Copy)]
struct Sample {
    ms: f64,
    /// Counts towards the read latencies.
    read: bool,
    /// Belongs to the workload's heavy class (which may be a read).
    heavy: bool,
}

/// The timed phase of an untraced pass: every operation in the order it
/// ran, and where each whole round of the workload's fixed mix ended.
#[derive(Debug)]
pub struct Phase {
    start: Instant,
    samples: Vec<Sample>,
    reads: usize,
    /// Per completed round: samples so far, seconds since `start`.
    rounds: Vec<(usize, f64)>,
}

impl Phase {
    pub fn begin() -> Phase {
        Phase {
            start: Instant::now(),
            samples: Vec::new(),
            reads: 0,
            rounds: Vec::new(),
        }
    }

    /// Whether another round starts in a phase of `seconds`: until the
    /// time is up, and (a smoke pass, a stalled host) until the reads
    /// support a p95 at all.
    pub fn running(&self, seconds: f64) -> bool {
        self.start.elapsed().as_secs_f64() < seconds || self.reads < P95_READS
    }

    pub fn push(&mut self, ms: f64, read: bool, heavy: bool) {
        self.samples.push(Sample { ms, read, heavy });
        self.reads += usize::from(read);
    }

    pub fn end_round(&mut self) {
        let at = self.start.elapsed().as_secs_f64();
        self.rounds.push((self.samples.len(), at));
    }

    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The phase cut into `k` windows of consecutive whole rounds, as
    /// even as the round count allows: each window's samples and its
    /// wall time in seconds.
    fn windows(&self, k: usize) -> Vec<(&[Sample], f64)> {
        let n = self.rounds.len();
        let edge = |i: usize| match i * n / k {
            0 => (0, 0.0),
            r => self.rounds[r - 1],
        };
        (0..k)
            .map(|i| {
                let ((from, t0), (to, t1)) = (edge(i), edge(i + 1));
                (&self.samples[from..to], t1 - t0)
            })
            .collect()
    }
}

/// Windows a timed phase is cut into, at most.
const WINDOWS: usize = 5;
/// The fewest reads with [`stats::MIN_BEYOND`] samples beyond their p95.
const P95_READS: usize = stats::MIN_BEYOND * 20;

/// What one window of a phase measured.
struct WindowStats {
    read_p50: f64,
    read_p95: f64,
    heavy_p50: f64,
    ops_per_s: f64,
}

fn window_stats(samples: &[Sample], wall_s: f64) -> Result<WindowStats, String> {
    let pick = |keep: fn(&Sample) -> bool| -> Vec<f64> {
        stats::sorted(samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect())
    };
    let (read, heavy) = (pick(|s| s.read), pick(|s| s.heavy));
    Ok(WindowStats {
        read_p50: stats::median(&read).ok_or("no reads timed")?,
        read_p95: stats::percentile(&read, 0.95).map_err(|why| format!("read: {why}"))?,
        heavy_p50: stats::median(&heavy).ok_or("no heavy operation timed")?,
        ops_per_s: samples.len() as f64 / wall_s,
    })
}

/// One pass of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The pass's metrics by their `BENCHMARK.json` names.
    pub metrics: Vec<(String, f64)>,
    /// Context that is printed and recorded but never gated: sample
    /// counts, p99, per-shape medians, stream hashes.
    pub info: Vec<(String, Json)>,
    pub checks: Checks,
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn info(&mut self, name: &str, value: Json) {
        self.info.push((name.to_string(), value));
    }

    /// The timed phase's metrics — `read_p50_ms`, `read_p95_ms`,
    /// `heavy_p50_ms`, `ops_per_s`. The phase is cut into up to
    /// [`WINDOWS`] windows of whole rounds — as many as leave every
    /// window a p95 with enough samples beyond it — each window yields
    /// the four figures over all of its operations, and the run reports
    /// each figure's **second fastest** value over its windows
    /// ([`stats::second_fastest`]).
    /// Every window holds the same operation mix, so what differs between
    /// them is the host: a neighbour's burst of 4–12 s slows some windows
    /// and never speeds one up, and a run of 24 s can lose half of its
    /// windows to one (a median over windows then flips between the two
    /// levels from run to run). What the program does in every round — a
    /// compaction stall, a first read on a fresh snapshot — is in every
    /// window's figures and so in the run's; what this does not see is a
    /// slowdown confined to three windows of five or fewer. Without
    /// even one window that supports a p95 the run fails rather than pass
    /// a worst sample off as a percentile.
    pub fn timed_phase(&mut self, phase: &Phase, heavy_class: &str) {
        let cut = |k: usize| -> Result<Vec<WindowStats>, String> {
            let windows = phase.windows(k).into_iter();
            windows.map(|(s, wall_s)| window_stats(s, wall_s)).collect()
        };
        let most = WINDOWS.min(phase.rounds());
        let Some(windows) = (1..=most).rev().find_map(|k| cut(k).ok()) else {
            let why = if most == 0 {
                "no whole round timed".to_string()
            } else {
                cut(1).err().unwrap_or_default()
            };
            self.checks.check(false, || why);
            return;
        };
        let over = |f: fn(&WindowStats) -> f64, lower_is_faster: bool| {
            let values: Vec<f64> = windows.iter().map(f).collect();
            stats::second_fastest(&values, lower_is_faster).expect("at least one window")
        };
        self.metric("read_p50_ms", over(|w| w.read_p50, true));
        self.metric("read_p95_ms", over(|w| w.read_p95, true));
        self.metric("heavy_p50_ms", over(|w| w.heavy_p50, true));
        self.metric("ops_per_s", over(|w| w.ops_per_s, false));
        self.info("heavy_class", Json::str(heavy_class));
        self.info("windows", Json::Num(windows.len() as f64));
        self.info("rounds", Json::Num(phase.rounds() as f64));
        self.info("operations", Json::Num(phase.samples.len() as f64));
        let reads = stats::sorted(
            phase
                .samples
                .iter()
                .filter(|s| s.read)
                .map(|s| s.ms)
                .collect(),
        );
        let p99 = stats::percentile(&reads, 0.99).map_or_else(Json::Str, Json::Num);
        self.info("read_p99_ms", p99);
    }

    /// The identity of the run's seeded input stream.
    pub fn stream_hash(&mut self, hash: u64) {
        self.info("stream_hash", Json::str(format!("{hash:016x}")));
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f`, returning its result and wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, ms_since(t))
}

/// Median of a non-empty sample, for layer metrics (which have no
/// percentile guard: they are medians over a fixed replay).
pub fn med(samples: &[f64]) -> f64 {
    stats::median_of(samples).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase of rounds of 300 reads (1 ms, every 20th 3 ms) and 10
    /// heavy operations (10 ms) each; round `r` runs `slow(r)` times
    /// slower than its one second.
    fn phase_of(rounds: usize, slow: impl Fn(usize) -> f64) -> Phase {
        let mut phase = Phase::begin();
        let mut at = 0.0;
        for r in 0..rounds {
            for i in 0..310 {
                let heavy = i % 31 == 30;
                let ms = match (heavy, i % 20) {
                    (true, _) => 10.0,
                    (false, 0) => 3.0,
                    _ => 1.0,
                };
                phase.push(ms * slow(r), !heavy, heavy);
            }
            at += slow(r);
            phase.rounds.push((phase.samples.len(), at));
        }
        phase
    }

    fn metrics_of(phase: &Phase) -> Outcome {
        let mut out = Outcome::default();
        out.timed_phase(phase, "heavy");
        out
    }

    #[test]
    fn timed_phase_reports_the_second_fastest_window() {
        let get = |out: &Outcome, name: &str| out.metrics.iter().find(|m| m.0 == name).unwrap().1;
        // Ten rounds in five windows; rounds 2 to 7 — three windows —
        // run twice as slow: a burst beside the program. The second
        // fastest window is one of the two it spared.
        let out = metrics_of(&phase_of(
            10,
            |r| if (2..8).contains(&r) { 2.0 } else { 1.0 },
        ));
        assert_eq!(out.checks.failed, 0, "{:?}", out.checks.problems);
        assert_eq!(get(&out, "read_p50_ms"), 1.0);
        assert_eq!(get(&out, "read_p95_ms"), 3.0);
        assert_eq!(get(&out, "heavy_p50_ms"), 10.0);
        assert_eq!(get(&out, "ops_per_s"), 310.0);
        // What every window shows — here the whole phase twice as slow —
        // shows in full.
        let out = metrics_of(&phase_of(10, |_| 2.0));
        assert_eq!(get(&out, "read_p50_ms"), 2.0);
        assert_eq!(get(&out, "read_p95_ms"), 6.0);
        assert_eq!(get(&out, "heavy_p50_ms"), 20.0);
        assert_eq!(get(&out, "ops_per_s"), 155.0);
        // So does what spares a single window.
        let out = metrics_of(&phase_of(10, |r| if r < 8 { 2.0 } else { 1.0 }));
        assert_eq!(get(&out, "read_p50_ms"), 2.0);
    }

    #[test]
    fn windows_are_whole_rounds_and_support_their_p95() {
        // Seven rounds: five windows of 1 or 2 rounds, none empty, all
        // samples covered once.
        let phase = phase_of(7, |_| 1.0);
        let windows = phase.windows(5);
        let sizes: Vec<usize> = windows.iter().map(|w| w.0.len() / 310).collect();
        assert_eq!(sizes, [1, 1, 2, 1, 2]);
        assert_eq!(windows.iter().map(|w| w.1).sum::<f64>(), 7.0);
        // 300 reads a round support a p95 (15 beyond); 100 do not, and
        // fewer, longer windows are cut until every one does: 6 rounds
        // make 3 windows of 2, 5 rounds 2 windows of 2 and 3. A phase too
        // thin for even one window fails instead of inventing a
        // percentile.
        let thin = |rounds: usize| {
            let mut p = Phase::begin();
            for r in 0..rounds {
                for _ in 0..100 {
                    p.push(1.0, true, true);
                }
                p.rounds.push((p.samples.len(), (r + 1) as f64));
            }
            metrics_of(&p)
        };
        let info = |out: &Outcome| {
            out.info
                .iter()
                .find(|i| i.0 == "windows")
                .map(|i| i.1.clone())
        };
        assert_eq!(info(&thin(6)), Some(Json::Num(3.0)));
        assert_eq!(info(&thin(5)), Some(Json::Num(2.0)));
        assert!(thin(1).checks.failed > 0);
        assert!(metrics_of(&Phase::begin()).checks.failed > 0);
    }
}
