//! Order statistics and summaries shared by every workload.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // ceil(q n / 100), guarded against q n / 100 landing a hair above an
    // integer in floating point.
    let rank = (q * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99, p95, p90, p75 and p50 that leaves at least
/// [`TAIL_SAMPLES`] samples beyond it in a sample of size `n` (p50 when
/// even that does not).
pub fn tail_quantile(n: usize) -> f64 {
    // Beyond the nearest-rank percentile q lie n - ceil(q n / 100) samples.
    [99, 95, 90, 75]
        .into_iter()
        .find(|&q| n - (q * n).div_ceil(100) >= TAIL_SAMPLES)
        .map_or(50.0, |q| q as f64)
}

/// Latency summary: median and the highest honest tail percentile, with
/// the sample count they rest on.  Infinite samples (requests that were
/// shed or rejected) sort last, so they count as missing any limit.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is (99 when the sample allows it).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Latency {
    /// Summarize unsorted samples.
    pub fn of(samples: &[f64]) -> Latency {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(s.len());
        Latency {
            n: s.len(),
            p50: percentile(&s, 50.0),
            tail_q,
            tail: percentile(&s, tail_q),
        }
    }

    /// `p50 1.23 / p99 4.56 ms (n=2000)`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} / p{} {:.4} {unit} (n={})",
            self.p50, self.tail_q, self.tail, self.n
        )
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Typical latency of a mix of call kinds: the geometric mean over the
/// kinds of each kind's median.  `kind_of[i]` names the kind of sample
/// `i`.  Unlike the median of the pooled samples, which lands on the edge
/// between two kinds and jumps with a few samples either side of it, each
/// kind's median sits in the middle of a sample of like calls.
pub fn median_per_kind_geomean(samples: &[f64], kind_of: &[usize]) -> f64 {
    assert_eq!(samples.len(), kind_of.len(), "one kind per sample");
    let kinds = kind_of.iter().copied().max().map_or(0, |k| k + 1);
    let medians: Vec<f64> = (0..kinds)
        .map(|k| {
            samples
                .iter()
                .zip(kind_of)
                .filter(|&(_, &kk)| kk == k)
                .map(|(&s, _)| s)
                .collect::<Vec<f64>>()
        })
        .filter(|v| !v.is_empty())
        .map(|v| median(&v))
        .collect();
    geomean(&medians)
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geomean of an empty sample");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Tracing overhead in percent from pass times that alternate traced
/// (even indices) and untraced (odd): the difference of their medians
/// over the untraced median.
pub fn overhead_pct(pass_s: &[f64]) -> f64 {
    let traced: Vec<f64> = pass_s.iter().step_by(2).copied().collect();
    let plain: Vec<f64> = pass_s.iter().skip(1).step_by(2).copied().collect();
    100.0 * (median(&traced) - median(&plain)) / median(&plain)
}

/// Arithmetic mean, 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `VmHWM` (peak resident set) of a process in MiB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 99.0);
        assert_eq!(tail_quantile(999), 95.0);
        assert_eq!(tail_quantile(100), 90.0);
        assert_eq!(tail_quantile(40), 75.0);
        assert_eq!(tail_quantile(5), 50.0);
    }

    #[test]
    fn per_kind_medians_ignore_the_pooled_edge() {
        // Two kinds, 1 ms and 100 ms: the pooled median flips between
        // them with one sample, the per-kind figure stays at 10 ms.
        let mut v = vec![1.0; 50];
        v.extend(vec![100.0; 51]);
        let mut kinds = vec![0; 50];
        kinds.extend(vec![1; 51]);
        assert!((median_per_kind_geomean(&v, &kinds) - 10.0).abs() < 1e-9);
        assert_eq!(median(&v), 100.0);
    }

    #[test]
    fn shed_requests_sort_last() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v[0] = f64::INFINITY;
        let l = Latency::of(&v);
        assert_eq!(l.tail_q, 99.0);
        assert_eq!(l.p50, 501.0);
        assert!(l.tail.is_finite());
        v.iter_mut().take(20).for_each(|x| *x = f64::INFINITY);
        assert!(Latency::of(&v).tail.is_infinite());
    }
}
