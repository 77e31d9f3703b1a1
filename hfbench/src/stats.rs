//! Order statistics over the benchmark's samples.

/// Median of `v` (mean of the two middle values for an even count);
/// 0 when empty. Sorts a copy.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of the first and third quartile (Tukey's midhinge), quartiles
/// interpolated linearly; 0 when empty.
///
/// For what a fault episode reports. Episodes of one series fall into
/// two or three groups by how the seed's traffic met the fault (f10
/// recovers in 2 attempts for half the seeds and in 5 to 7 for the
/// rest), so the median of a dozen episodes jumps between groups from
/// run to run and a mean follows the rare 20-attempt episode. The
/// quartiles sit inside the groups: resampling 93 measured f10 episodes
/// 15 at a time spread the median by 0.46 of its value, the
/// interquartile mean by 0.17 and the midhinge by 0.11.
pub fn midhinge(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let quantile = |p: f64| {
        let at = p * (s.len() - 1) as f64;
        let lo = at.floor() as usize;
        let hi = (lo + 1).min(s.len() - 1);
        s[lo] + (s[hi] - s[lo]) * (at - lo as f64)
    };
    (quantile(0.25) + quantile(0.75)) / 2.0
}

/// `stat` of `f` over `items`: a run's figure from its units.
pub fn over<T>(items: &[T], stat: fn(&[f64]) -> f64, f: impl Fn(&T) -> f64) -> f64 {
    stat(&items.iter().map(f).collect::<Vec<_>>())
}

/// Milliseconds since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `p`-th percentile (nearest rank on the sorted samples); 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

pub fn median_u64(v: &[u64]) -> f64 {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = sorted((1..=100).rev().collect());
        assert_eq!(percentile(&s, 50.0), 51);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&[], 99.0), 0);
        // Two groups of episodes: the quartiles sit one in each.
        assert_eq!(
            midhinge(&[40.0, 41.0, 42.0, 43.0, 80.0, 81.0, 82.0, 83.0, 84.0]),
            62.0
        );
        assert_eq!(midhinge(&[5.0]), 5.0);
    }
}
