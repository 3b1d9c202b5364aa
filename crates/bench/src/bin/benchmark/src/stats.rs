//! Order statistics: the median, the guarded percentile picker and the
//! quartiles the repeatability rule is stated in.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the "percentile" is one of a handful of worst
/// samples and moves with every run.
pub const MIN_BEYOND: usize = 10;

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sorted sample.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

pub fn median_of(v: &[f64]) -> Option<f64> {
    median(&sorted(v.to_vec()))
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of a sorted sample, or
/// the reason it cannot be reported: fewer than [`MIN_BEYOND`] samples
/// beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs {MIN_BEYOND} samples beyond it, {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// The second fastest of `values` (the fastest of fewer than three).
/// For figures whose disturbances all point one way — a shared host
/// slows a window down, it never speeds one up — this is the level of
/// the undisturbed ones as long as two are, and it does not rest on a
/// single lucky one.
pub fn second_fastest(values: &[f64], lower_is_faster: bool) -> Option<f64> {
    let mut v = sorted(values.to_vec());
    if !lower_is_faster {
        v.reverse();
    }
    v.get(usize::from(v.len() > 2)).copied()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method) — the definition the acceptance rule for
/// this benchmark is written in. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let pos = (i + 1) * m;
        let j = (pos / 4).clamp(1, ld - 1);
        // Taken after the clamp, so the ends extrapolate as CPython's do.
        let delta = pos as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the spread the
/// bounds are compared with.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Ok(190.0));
        assert_eq!(percentile(&v, 0.50), Ok(100.0));
        // 199 samples leave only 9 beyond the 95th.
        assert!(percentile(&v[..199], 0.95).is_err());
        assert!(percentile(&v[..199], 0.90).is_ok());
        assert!(percentile(&[], 0.5).is_err());
        let err = percentile(&v[..20], 0.99).unwrap_err();
        assert!(err.contains("p99") && err.contains("20 samples"), "{err}");
    }

    #[test]
    fn second_fastest_of_three_or_more() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(second_fastest(&v, true), Some(2.0));
        assert_eq!(second_fastest(&v, false), Some(4.0));
        assert_eq!(second_fastest(&v[..3], true), Some(4.0));
        assert_eq!(second_fastest(&v[..2], true), Some(1.0));
        assert_eq!(second_fastest(&v[..2], false), Some(5.0));
        assert_eq!(second_fastest(&[], true), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_of(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(5.5 / 5.5));
    }
}
