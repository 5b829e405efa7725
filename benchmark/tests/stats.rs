//! The order statistics every reported number goes through.

use qce_benchmark::calibrate::Calibrator;
use qce_benchmark::stats::{median, percentile, quartiles, spread};

#[test]
fn percentile_is_nearest_rank() {
    let mut sample = [50u32, 10, 40, 20, 30];
    assert_eq!(percentile(&mut sample, 50.0), Some(30));
    assert_eq!(percentile(&mut sample, 99.0), Some(50));
    assert_eq!(percentile(&mut sample, 20.0), Some(10));
    assert_eq!(percentile(&mut sample, 21.0), Some(20));
    assert_eq!(percentile(&mut sample, 100.0), Some(50));
    assert_eq!(percentile::<u32>(&mut [], 50.0), None);
}

#[test]
fn percentile_99_leaves_one_percent_beyond() {
    let mut sample: Vec<u32> = (1..=10_000).rev().collect();
    // 100 of the 10 000 samples lie beyond the reported value.
    assert_eq!(percentile(&mut sample, 99.0), Some(9_900));
}

#[test]
fn median_of_segments_ignores_one_slow_segment() {
    // Nine steady segments and one that met a noisy neighbour: the mean
    // moves by a tenth, the median not at all.
    let mut segments = vec![100.0; 9];
    segments.push(200.0);
    assert_eq!(median(&segments), 100.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([10, 20, 40], n=4)
    assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn spread_is_iqr_over_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(spread(&ten), 1.0);
    assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    assert_eq!(spread(&[7.0]), 0.0);
}

#[test]
fn the_reference_kernel_reports_readings_since_a_mark_and_its_floor() {
    let mut calibrator = Calibrator::default();
    let first = calibrator.burst(5);
    let mark = calibrator.mark();
    assert!(calibrator.mean_ns_since(mark).is_nan());
    let later = calibrator.burst(10);
    // Only the ten readings after the mark count, and each took its share
    // of the time the burst reported.
    let mean = calibrator.mean_ns_since(mark);
    assert!(
        (mean - later.as_nanos() as f64 / 10.0).abs() < 1.0,
        "{mean}"
    );
    assert!(first.as_nanos() > 0);
    let median = calibrator.median_ns_since(mark);
    assert!(median > 0.0 && median <= later.as_nanos() as f64);
    // The undisturbed reading is the sum of each pass's fastest time: no
    // whole sample can have beaten it.
    assert!(calibrator.undisturbed_ns() > 0.0);
    assert!(calibrator.undisturbed_ns() <= calibrator.median_ns());
}
