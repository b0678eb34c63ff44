//! Order statistics over timing samples.

/// Smoothed `q`-quantile: the mean of the order statistics whose rank
/// lies within `q ± half` (at least one), after sorting `v` in place.
/// Unlike a single order statistic it does not snap to one integer
/// nanosecond, so two runs of equal speed do not read identically and a
/// real change moves it smoothly. 0 for an empty slice.
pub fn band(v: &mut [u64], q: f64, half: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    // Rank r (0-based) sits at quantile (r + 0.5) / n; keep the ranks
    // inside the band (the 1e-9 absorbs rounding in q ± half).
    let n = v.len() as f64;
    let lo = (((q - half) * n - 0.5 - 1e-9).ceil().max(0.0) as usize).min(v.len() - 1);
    let hi = (((q + half) * n - 0.5 + 1e-9).floor() as usize + 1).clamp(lo + 1, v.len());
    let mid = &v[lo..hi];
    mid.iter().map(|&x| x as f64).sum::<f64>() / mid.len() as f64
}

/// Smoothed median: [`band`] over the middle tenth.
pub fn median(v: &mut [u64]) -> f64 {
    band(v, 0.5, 0.05)
}

/// Smoothed 99th percentile: [`band`] over ranks 98.5 %–99.5 %.
pub fn p99(v: &mut [u64]) -> f64 {
    band(v, 0.99, 0.005)
}

/// Interquartile mean: the mean of the middle half of `v` (all of `v`
/// when it has fewer than four values). Summarizes per-round figures: as
/// robust as a median against one odd round, but it averages the rounds
/// it keeps. 0 for an empty slice.
pub fn iqm(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_means_the_ranks_around_the_quantile() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        // Ranks 45..55 (0-based) hold 46..=55.
        assert_eq!(median(&mut v), 50.5);
        // Ranks 98..100 hold 99 and 100.
        assert_eq!(p99(&mut v), 99.5);
        assert_eq!(median(&mut [7]), 7.0);
        assert_eq!(p99(&mut [7, 8]), 8.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn iqm_drops_the_outer_quarters() {
        assert_eq!(iqm(&[1.0, 2.0, 3.0, 100.0]), 2.5);
        assert_eq!(iqm(&[5.0]), 5.0);
        assert_eq!(iqm(&[]), 0.0);
    }
}
