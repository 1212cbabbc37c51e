//! Order statistics over latency samples.

use std::time::Duration;

/// Latency samples in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples { ns: Vec::with_capacity(n), sorted: true }
    }

    pub fn push(&mut self, d: Duration) {
        self.push_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (nearest rank), in nanoseconds; 0 when empty.
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.sort();
        let rank = ((q * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len());
        self.ns[rank - 1] as f64
    }

    pub fn quantile_ms(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e6
    }

    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().map(|&n| n as f64).sum::<f64>() / self.ns.len() as f64
    }

    /// Samples strictly above the `q`-quantile — how many observations
    /// the reported tail percentile actually rests on.
    pub fn beyond(&mut self, q: f64) -> usize {
        let cut = self.quantile_ns(q) as u64;
        self.ns.iter().filter(|&&n| n > cut).count()
    }
}

/// Samples split into consecutive time windows. Tail percentiles are
/// taken per window and the median across windows is reported, so a
/// stall of the machine that hits one window does not move the figure.
#[derive(Clone, Debug, Default)]
pub struct Windowed {
    windows: Vec<Samples>,
}

impl Windowed {
    pub fn push(&mut self, window: usize, d: Duration) {
        if self.windows.len() <= window {
            self.windows.resize_with(window + 1, Samples::default);
        }
        self.windows[window].push(d);
    }

    pub fn merge(&mut self, other: &Windowed) {
        for (i, w) in other.windows.iter().enumerate() {
            if self.windows.len() <= i {
                self.windows.resize_with(i + 1, Samples::default);
            }
            self.windows[i].extend(w);
        }
    }

    /// All samples in one set.
    pub fn all(&self) -> Samples {
        let mut s = Samples::default();
        for w in &self.windows {
            s.extend(w);
        }
        s
    }

    pub fn len(&self) -> usize {
        self.windows.iter().map(Samples::len).sum()
    }

    /// Median over windows of each window's `q`-quantile, in ms. Windows
    /// holding fewer than `min_samples` samples (a partial last window)
    /// are skipped unless no window is full.
    pub fn quantile_ms(&mut self, q: f64, min_samples: usize) -> f64 {
        let full: Vec<f64> = self
            .windows
            .iter_mut()
            .filter(|w| w.len() >= min_samples)
            .map(|w| w.quantile_ms(q))
            .collect();
        if full.is_empty() {
            self.all().quantile_ms(q)
        } else {
            median(&full)
        }
    }
}

/// The median of a small set of measurements (e.g. repeated set-ups).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push_ns(i);
        }
        assert_eq!(s.quantile_ns(0.5), 50.0);
        assert_eq!(s.quantile_ns(0.99), 99.0);
        assert_eq!(s.beyond(0.99), 1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
