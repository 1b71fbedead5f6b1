//! Order statistics shared by the workloads and `compare`.

/// The percentiles a timing may be reported at, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Index of the nearest-rank `p`-th percentile (`p` to one decimal) in a
/// sorted sample of `n`, in integer arithmetic so that e.g. p99.9 of
/// 10,000 samples is exactly rank 9,990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n) - 1
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest reportable percentile for `n` samples: the highest of
/// [`TAILS`] with at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// Nearest-rank percentile of an ascending sample (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(sorted.len(), p)]
    }
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median (mean of the middle pair for even counts; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), so spreads printed
/// here match the ones the benchmark contract is checked with.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    sort(&mut d);
    match d.len() {
        0 => [0.0; 3],
        1 => [d[0]; 3],
        len => {
            let m = len + 1;
            let mut out = [0.0; 3];
            for (i, q) in out.iter_mut().enumerate() {
                let i = i + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// Indices of the `ceil(n/4)` highest rates, highest first.
pub fn fastest_quarter(rates: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rates.len()).collect();
    order.sort_by(|&a, &b| rates[b].total_cmp(&rates[a]));
    order.truncate(rates.len().div_ceil(4));
    order
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}
