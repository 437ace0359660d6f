//! Order statistics for latency samples and per-run summaries.

/// Percentiles the tail helper may report, highest last.
const TAIL_LADDER: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// On a shared host a core's speed changes from one stretch of seconds
/// to the next. Short operations timed many times over a run (the
/// reloads) are read at this percentile on the fast side, which tracks
/// the program at the host's faster moments rather than the share of
/// the run spent at its slower ones.
pub const CALM_PERCENTILE: f64 = 10.0;

/// The calm-side reading of a list of times.
pub fn calm_time(values: Vec<f64>) -> Option<f64> {
    percentile_of(values, CALM_PERCENTILE)
}

/// Samples a percentile must leave beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=100).
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of an ascending slice.
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 50.0)
}

/// The highest percentile on the tail ladder that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value. `None` when
/// even p90 has too few samples behind it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len() as f64;
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&q| n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND as f64 - 1e-9)
        .and_then(|&q| percentile(sorted, q).map(|v| (q, v)))
}

/// `percentile(sorted, q)` when `q` is no higher than the tail the
/// sample count supports; `None` otherwise, so a p99 is never read off
/// fewer than ten samples beyond it.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    match tail(sorted) {
        Some((highest, _)) if q <= highest => percentile(sorted, q),
        _ if q <= 50.0 => percentile(sorted, q),
        _ => None,
    }
}

/// Sorts a sample vector in place (NaN-free input).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Median of an unsorted list of per-window or per-repeat values.
pub fn median_of(values: Vec<f64>) -> Option<f64> {
    percentile_of(values, 50.0)
}

/// The `q` percentile of an unsorted list of per-window or per-repeat
/// values.
pub fn percentile_of(mut values: Vec<f64>, q: f64) -> Option<f64> {
    sort(&mut values);
    percentile(&values, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 99 samples: p90 leaves 9.9 beyond it — not enough.
        assert_eq!(tail(&ramp(99)), None);
        // 100 samples: p90 leaves exactly 10; p99 leaves 1.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 999 samples: p99 leaves 9.99 — still p90.
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(90.0));
        // 1000 samples: p99 leaves exactly 10.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 10_000 samples: p99.9 leaves 10, p99.99 leaves 1.
        assert_eq!(tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
        assert_eq!(tail(&ramp(100_000)).map(|t| t.0), Some(99.99));
    }

    #[test]
    fn unsupported_percentiles_are_withheld() {
        assert_eq!(supported_percentile(&ramp(500), 99.0), None);
        assert_eq!(supported_percentile(&ramp(500), 90.0), Some(450.0));
        assert_eq!(supported_percentile(&ramp(5), 50.0), Some(3.0));
        assert_eq!(supported_percentile(&ramp(2000), 99.0), Some(1980.0));
    }

    #[test]
    fn calm_readings_take_the_fast_side() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(calm_time(v), Some(2.0));
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median_of(vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_of(Vec::new()), None);
    }
}
