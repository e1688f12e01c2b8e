//! Order statistics used by the end-to-end metrics.

/// Nearest-rank quantile `q` in `[0, 1]` of `xs` (which need not be
/// sorted). Returns `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 0.95), Some(5.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(median(&[]), None);
    }
}
