//! Order statistics shared by the workloads, the ledger and `compare`.

/// Sorted copy of `xs`. Panics on NaN: a sample that is not a number is a
/// harness bug, not a measurement.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the two
/// closest ranks. 0.0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method) gives
/// them, so the spread `compare` prints is the spread the driver computes.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let m = v.len();
    assert!(m >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median: the run-to-run spread
/// the benchmark contract bounds.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Median wall time, in seconds, of `reps` calls of `f`.
pub fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Intercept at x = 0 of the line through two points: the fixed cost of an
/// operation timed at two sizes.
pub fn intercept(p: (f64, f64), q: (f64, f64)) -> f64 {
    let slope = (q.1 - p.1) / (q.0 - p.0);
    p.1 - slope * p.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&xs, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95), 4.8);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        assert!((quartile_spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intercept_recovers_fixed_cost() {
        // wall = 3 + 2·n
        assert!((intercept((2.0, 7.0), (10.0, 23.0)) - 3.0).abs() < 1e-12);
    }
}
