//! Median and quartiles, computed the way the benchmark driver does
//! (Python's `statistics.quantiles(values, n=4)`, the default "exclusive"
//! method), so a spread printed here is the spread the driver will see.

/// Quartiles and sample count of one timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = if v.len() == 1 {
            (v[0], v[0], v[0])
        } else {
            (quantile(&v, 1), quantile(&v, 2), quantile(&v, 3))
        };
        Some(Summary {
            n: v.len(),
            q1,
            median,
            q3,
        })
    }

    /// Inter-quartile distance as a share of the median (the driver's
    /// "spread"). Zero for a zero median, where a share means nothing.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of the three cut points of sorted `v` (`v.len() >= 2`):
/// position `i·(n+1)/4`, linearly interpolated, clamped to the data.
fn quantile(v: &[f64], i: usize) -> f64 {
    let m = v.len() + 1;
    let j = (i * m / 4).clamp(1, v.len() - 1);
    // May exceed 4 or go negative at the clamps: Python extrapolates there
    // too, and so must we to print the number the driver computes.
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}
