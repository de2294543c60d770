//! Percentiles, and the in-memory span recorder the traced run uses.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; the program itself carries no benchmark
//! instrumentation.  Each span has a name, start and end (ns since the
//! run began), the index of its parent span and a request id.  Only the
//! request span has children, so a layer span's self time equals its
//! duration and the request's self time is the time no layer covers.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank percentile of ascending `sorted` samples (`0 < p ≤ 100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// whole tenths of a percent so `p99.9` of 10 000 samples is exactly rank
/// 9 990.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest reported percentile that still has at least ten samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// `samples` in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory while tracing is enabled.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub enabled: bool,
    pub spans: Vec<Span>,
    open_request: Option<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open_request: None,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the request span that the following layer spans belong to.
    pub fn begin_request(&mut self, request: u64) {
        self.open_request = self.enabled.then(|| {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name: "request",
                start_ns,
                end_ns: start_ns,
                parent: None,
                request,
            });
            self.spans.len() - 1
        });
    }

    pub fn end_request(&mut self) {
        if let Some(index) = self.open_request.take() {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Record a finished layer span under the open request.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if let Some(parent) = self.open_request {
            let request = self.spans[parent].request;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
                request,
            });
        }
    }
}

/// Per-name totals folded from a span list.
#[derive(Debug, Default, Clone)]
pub struct Fold {
    pub busy_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

/// Fold spans into per-name busy and self time (self = duration minus
/// the time the span's children cover).
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Fold> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    let mut folded: BTreeMap<&'static str, Fold> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let entry = folded.entry(span.name).or_default();
        entry.busy_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(covered);
        entry.durations_ns.push(span.duration_ns());
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn fold_splits_busy_and_self_time() {
        let mut recorder = Recorder::new();
        recorder.enabled = true;
        recorder.begin_request(7);
        recorder.record("explore", 0, 0);
        recorder.end_request();
        recorder.spans[0].start_ns = 0;
        recorder.spans[0].end_ns = 100;
        recorder.spans[1].start_ns = 10;
        recorder.spans[1].end_ns = 70;
        let folded = fold(&recorder.spans);
        assert_eq!(folded["request"].busy_ns, 100);
        assert_eq!(folded["request"].self_ns, 40);
        assert_eq!(folded["explore"].self_ns, 60);
        assert_eq!(recorder.spans[1].request, 7);
        assert_eq!(recorder.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut recorder = Recorder::new();
        recorder.begin_request(1);
        recorder.record("explore", 0, 5);
        recorder.end_request();
        assert!(recorder.spans.is_empty());
    }
}
