//! Median / MAD / percentile / quartile helpers against hand-checked values.

use wlm_benchmark::stats::{fnv1a64, mad, median, percentile, quartiles, relative_spread};

fn close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-12, "{a} != {b}");
}

#[test]
fn median_and_percentiles() {
    close(median(&[3.0, 1.0, 2.0]), 2.0);
    close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    close(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 0.0), 10.0);
    close(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 100.0), 50.0);
    close(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 90.0), 46.0);
    assert!(median(&[]).is_nan());
}

#[test]
fn mad_is_the_median_distance_from_the_median() {
    // median 3; distances 2 1 0 1 6 -> median 1
    close(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
    close(mad(&[5.0, 5.0, 5.0]), 0.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let (q1, q3) = quartiles(&ten).expect("ten values");
    close(q1, 2.75);
    close(q3, 8.25);
    close(relative_spread(&ten).expect("ten values"), 5.5 / 5.5);
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).expect("five values");
    close(q1, 1.5);
    close(q3, 12.0);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let (q1, q3) = quartiles(&[1.0, 2.0]).expect("two values");
    close(q1, 0.75);
    close(q3, 2.25);
    assert!(quartiles(&[1.0]).is_none());
}

#[test]
fn fnv1a64_is_the_published_function() {
    // FNV-1a 64 of the empty input is the offset basis; of one zero byte
    // (the first of eight here) it is basis * prime.
    assert_eq!(fnv1a64(&[]), 0xcbf2_9ce4_8422_2325);
    assert_ne!(fnv1a64(&[1, 2]), fnv1a64(&[2, 1]), "order matters");
    // "a" as a little-endian word hashes 'a' then seven zero bytes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in [b'a', 0, 0, 0, 0, 0, 0, 0] {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(fnv1a64(&[b'a' as u64]), h);
}
