//! Small numeric helpers: a seeded generator, percentiles and hashing.

/// SplitMix64: a tiny, well-mixed generator. Every input the benchmark
/// makes is drawn from one of these, seeded from `--seed`, so the same
/// seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `p`-th percentile of `xs` as a tail latency, and whether at
/// least ten samples lie beyond it (the rule a tail percentile must
/// meet). `daemon-mix` fixes its percentile so that the rule holds at
/// its normal sample count; a run that falls short says so.
pub fn tail(xs: &[f64], p: f64) -> (f64, bool) {
    let beyond = xs.len() as f64 * (1.0 - p / 100.0);
    (quantile(xs, p / 100.0), beyond >= 10.0)
}

/// The median value of each key over a run, in key order.
pub fn per_key_median(ops: &[(usize, f64)]) -> Vec<f64> {
    let mut by_key: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(k, v) in ops {
        by_key.entry(k).or_default().push(v);
    }
    by_key.values().map(|v| median(v)).collect()
}

/// The bounded timing metrics of a workload of keyed operations (a
/// program built and run, a cell simulated), from each operation's CPU
/// time in ms: the median over keys of each key's median, the `p`-th
/// percentile of all operations with whether ten lie beyond it, and
/// operations per CPU-second.
///
/// Each pass runs every key once, so the samples are a mix of the keys'
/// costs. The median of the raw samples would sit where two keys' samples
/// meet, on the outliers of both; the median key's median does not.
pub struct OpTimes {
    pub p50: f64,
    pub tail: f64,
    pub enough: bool,
    pub ops_per_cpu_s: f64,
}

impl OpTimes {
    pub fn of(ops: &[(usize, f64)], p: f64, scale: f64) -> OpTimes {
        let ops: Vec<(usize, f64)> = ops.iter().map(|&(k, v)| (k, v * scale)).collect();
        let raw: Vec<f64> = ops.iter().map(|&(_, v)| v).collect();
        let (tail, enough) = tail(&raw, p);
        OpTimes {
            p50: median(&per_key_median(&ops)),
            tail,
            enough,
            ops_per_cpu_s: raw.len() as f64 * 1e3 / raw.iter().sum::<f64>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn per_key_median_takes_each_keys_middle_value() {
        let ops = [(1, 10.0), (0, 3.0), (1, 30.0), (0, 1.0), (0, 2.0)];
        assert_eq!(per_key_median(&ops), vec![2.0, 20.0]);
    }

    #[test]
    fn tail_reports_whether_ten_samples_lie_beyond() {
        let xs: Vec<f64> = (0..=200).map(f64::from).collect();
        assert_eq!(tail(&xs, 95.0), (190.0, true));
        assert!(!tail(&xs, 99.0).1);
    }

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
