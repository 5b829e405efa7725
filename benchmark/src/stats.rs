//! Order statistics used for every reported number.

/// Nearest-rank percentile of an unsorted sample (`pct` in `(0, 100]`):
/// the smallest value with at least `pct` percent of the sample at or
/// below it. Reorders `sample`; returns `None` when it is empty.
pub fn percentile<T: Ord + Copy>(sample: &mut [T], pct: f64) -> Option<T> {
    if sample.is_empty() {
        return None;
    }
    let rank = (pct * sample.len() as f64 / 100.0).ceil() as usize;
    let index = rank.clamp(1, sample.len()) - 1;
    Some(*sample.select_nth_unstable(index).1)
}

/// Median of a sample of floats (mean of the two middle values for an even
/// count). `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads computed here match the ones the
/// acceptance rule is stated in. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let position = (i + 1) * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        let delta = position as f64 - (j * 4) as f64;
        *cut = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Interquartile range as a share of the median — the run-to-run (or
/// segment-to-segment) spread every bound is compared against. Zero below
/// two values or for a zero median.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => ((q3 - q1) / q2).abs(),
        _ => 0.0,
    }
}
