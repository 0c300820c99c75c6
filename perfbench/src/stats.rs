//! Order statistics used by every workload's report.

/// Percentiles a `*_tail` metric may report, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples, in
/// integer per-mille arithmetic so that e.g. p99.9 of 10 000 is rank
/// 9 990 exactly.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] samples strictly beyond its rank, as
/// `(percentile, value)`; `None` when even the median leaves fewer than
/// [`TAIL_BEYOND`] beyond (under 20 samples).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    tail_rung(sorted.len()).map(|p| (p, percentile(sorted, p)))
}

/// The percentile [`tail`] picks for `n` samples.
fn tail_rung(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_BEYOND)
}

/// The most undercounts a run of `n` campaigns may show when each
/// misses with probability `p` (< 1): the smallest `k` with
/// P(Binomial(n, p) > k) <= `alpha`.
pub fn miss_budget(n: u64, p: f64, alpha: f64) -> u64 {
    let mut pmf = (1.0 - p).powf(n as f64);
    let mut cdf = pmf;
    let mut k = 0;
    while 1.0 - cdf > alpha && k < n {
        pmf *= (n - k) as f64 / (k + 1) as f64 * p / (1.0 - p);
        cdf += pmf;
        k += 1;
    }
    k
}

/// Summary of one latency-like sample: the median of every sample, and
/// a tail that is the median over consecutive windows of `window`
/// samples of each window's [`tail`] — a rare stall moves one window's
/// tail, not the reported one. Fewer samples than one window fall back
/// to the whole sample, and to its maximum (stated as percentile 100)
/// when no percentile qualifies. `p99` and `whole_tail` (the [`tail`]
/// of the whole sample, as `(percentile, value)`) are taken over every
/// sample, stalls included.
#[derive(Debug, Clone, Copy)]
pub struct Dist {
    pub samples: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
    pub window: usize,
    pub windows: usize,
    pub p99: f64,
    pub whole_tail: (f64, f64),
}

impl Dist {
    /// Summarises `values`, given in the order they were measured.
    pub fn of(values: &[f64], window: usize) -> Dist {
        let mut windows = Windows::new(window);
        values.iter().for_each(|&v| windows.push(v));
        let all = sorted(values);
        windows.dist(values.len(), &|p| percentile(&all, p), &all)
    }

    /// The detail-line JSON naming the tail's percentile and its counts,
    /// and the whole-sample p99 and tail.
    pub fn tail_json(&self) -> String {
        format!(
            "{{\"percentile\": {}, \"window\": {}, \"windows\": {}, \"samples\": {}, \"whole_p99\": {}, \"whole_tail\": {{\"percentile\": {}, \"value\": {}}}}}",
            self.tail_pct,
            self.window,
            self.windows,
            self.samples,
            self.p99,
            self.whole_tail.0,
            self.whole_tail.1
        )
    }
}

/// The tails of consecutive full windows of a sample.
#[derive(Debug)]
struct Windows {
    window: usize,
    buf: Vec<f64>,
    tails: Vec<f64>,
    tail_pct: f64,
}

impl Windows {
    fn new(window: usize) -> Windows {
        Windows {
            window: window.max(1),
            buf: Vec::new(),
            tails: Vec::new(),
            tail_pct: 100.0,
        }
    }

    fn push(&mut self, v: f64) {
        self.buf.push(v);
        if self.buf.len() == self.window {
            if let Some((p, t)) = tail(&sorted(&self.buf)) {
                self.tail_pct = p;
                self.tails.push(t);
            }
            self.buf.clear();
        }
    }

    /// `at(p)` is the whole sample's `p`-th percentile. With no full
    /// window, the tail of `whole_sorted` (the sample so far) stands in.
    fn dist(&self, samples: usize, at: &dyn Fn(f64) -> f64, whole_sorted: &[f64]) -> Dist {
        let (tail_pct, tail) = if self.tails.is_empty() {
            tail(whole_sorted).unwrap_or((100.0, whole_sorted.last().copied().unwrap_or(f64::NAN)))
        } else {
            (self.tail_pct, median(&self.tails))
        };
        let whole_tail = tail_rung(samples).map_or((100.0, at(100.0)), |p| (p, at(p)));
        Dist {
            samples,
            p50: at(50.0),
            tail_pct,
            tail,
            window: self.window,
            windows: self.tails.len(),
            p99: at(99.0),
            whole_tail,
        }
    }
}

/// Bins of [`Stream`]'s whole-sample histogram: integer values
/// `0..STREAM_BINS`, larger ones in the last bin.
const STREAM_BINS: usize = 1 << 18;

/// [`Dist`] of a long stream of integer-valued samples (µs), folded as
/// they arrive: window tails plus a histogram for the median — fixed
/// memory however long the run.
#[derive(Debug)]
pub struct Stream {
    windows: Windows,
    bins: Vec<u32>,
    samples: usize,
}

impl Stream {
    pub fn new(window: usize) -> Stream {
        Stream {
            windows: Windows::new(window),
            bins: Vec::new(),
            samples: 0,
        }
    }

    pub fn push(&mut self, v: f64) {
        if self.bins.is_empty() {
            self.bins = vec![0; STREAM_BINS];
        }
        self.bins[(v.max(0.0) as usize).min(STREAM_BINS - 1)] += 1;
        self.samples += 1;
        self.windows.push(v);
    }

    pub fn finish(&self) -> Dist {
        let at = |p: f64| {
            let rank = rank(self.samples.max(1), p);
            let mut seen = 0usize;
            self.bins
                .iter()
                .position(|&c| {
                    seen += c as usize;
                    seen >= rank
                })
                .map_or(f64::NAN, |i| i as f64)
        };
        // Without a full window, the buffer holds the whole sample.
        self.windows
            .dist(self.samples, &at, &sorted(&self.windows.buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 20 samples: p50 is rank 10, leaving exactly 10 beyond; p75 is
        // rank 15, leaving 5 — so the tail is p50.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        // 19 samples: p50 is rank 10 with 9 beyond — no rung qualifies.
        assert_eq!(tail(&v[..19]), None);
    }

    #[test]
    fn tail_climbs_the_ladder_with_sample_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 = rank 990 (10 beyond); p99.9 = rank 999 (1 beyond).
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.9, 9990.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
    }

    #[test]
    fn every_rung_of_the_ladder_leaves_ten_beyond() {
        for n in 1..20 {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(tail(&v), None, "n={n}");
        }
        for n in 20..3000 {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (p, value) = tail(&v).expect("20 samples always have a rung");
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert!(median(&[]).is_nan());
        let d = Dist::of(&[5.0; 5], 100);
        assert_eq!((d.samples, d.p50, d.tail_pct, d.tail), (5, 5.0, 100.0, 5.0));
    }

    #[test]
    fn miss_budget_is_a_binomial_upper_quantile() {
        // 400 campaigns at 0.001: P(X > 2) ~ 0.0079, P(X > 3) ~ 0.0008.
        assert_eq!(miss_budget(400, 0.001, 0.001), 3);
        assert_eq!(miss_budget(0, 0.001, 0.001), 0);
        // A likelier miss allows more.
        assert!(miss_budget(400, 0.01, 0.001) > 3);
        assert!(miss_budget(40, 0.001, 0.001) <= 1);
    }

    #[test]
    fn window_tails_shrug_off_one_stalled_window() {
        // Three windows of 1000: p99 per window is 990 in the clean ones;
        // one window holds a burst of 40 stalls at 50 000.
        let mut v: Vec<f64> = Vec::new();
        for w in 0..3 {
            let mut win: Vec<f64> = (1..=1000).map(f64::from).collect();
            if w == 1 {
                win[960..].iter_mut().for_each(|x| *x = 50_000.0);
            }
            v.extend(win);
        }
        let d = Dist::of(&v, 1000);
        assert_eq!(
            (d.tail_pct, d.tail, d.windows, d.samples),
            (99.0, 990.0, 3, 3000)
        );
        assert_eq!(d.p50, 500.0);
        // The whole-sample p99 of the same data sits in the stalls.
        assert_eq!(tail(&sorted(&v)), Some((99.0, 50_000.0)));
        let mut s = Stream::new(1000);
        v.iter().for_each(|&x| s.push(x));
        let sd = s.finish();
        assert_eq!((sd.p50, sd.tail, sd.windows), (500.0, 990.0, 3));
        // The whole-sample figures keep the stalls, from either path.
        assert_eq!((d.p99, d.whole_tail), (50_000.0, (99.0, 50_000.0)));
        assert_eq!((sd.p99, sd.whole_tail), (d.p99, d.whole_tail));
    }
}
