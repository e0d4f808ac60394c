//! The benchmark's own arithmetic: percentiles, open-loop latency from due
//! time, backlog detection and span self time. Kept free of I/O so every
//! rule the metrics rest on is unit-tested.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a reported percentile for it to mean more
/// than "the maximum": p90 needs 100 samples, p99 needs 1000.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `values` (`q` in 0..=100); `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest-rank p50).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The highest whole percentile that still has `TAIL_SAMPLES` samples
/// beyond it among `n` samples (`None` below `TAIL_SAMPLES + 1` samples).
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    if n <= TAIL_SAMPLES {
        return None;
    }
    // Largest integer p with n - ceil(p/100 * n) >= TAIL_SAMPLES.
    (0..=100u32)
        .rev()
        .find(|&p| n - ((p as f64 / 100.0) * n as f64).ceil() as usize >= TAIL_SAMPLES)
}

/// One open-loop request: when it was due, when it was actually sent (the
/// sender may still be busy with the previous request) and when its reply
/// was complete.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl Timed {
    /// Latency as the user sees it: from the moment the request was due,
    /// so time spent waiting behind a slow predecessor is not hidden.
    pub fn since_due_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.due))
    }

    /// How late the request left the client.
    pub fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }

    /// Time the server (and transport) took once the request left.
    pub fn service_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.sent))
    }
}

/// Milliseconds in a duration, with all their digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// True when the sender fell further and further behind its schedule: the
/// median lateness of the last quarter of requests exceeds that of the
/// first quarter by more than `slack_ms`. A sender that is late by a
/// constant amount (a fixed offset, not a queue) is not a backlog.
pub fn backlog_growing(late_ms: &[f64], slack_ms: f64) -> bool {
    let quarter = late_ms.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = median(&late_ms[..quarter]).unwrap_or(0.0);
    let last = median(&late_ms[late_ms.len() - quarter..]).unwrap_or(0.0);
    last - first > slack_ms
}

/// The latency limit a rung of the viewer ladder must meet.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    /// p99 of latency from due time must not exceed this.
    pub p99_ms: f64,
}

/// Whether a rung met the limit: no failed request, p99 from due time
/// within the limit and no growing backlog (slack: half the limit).
pub fn rung_passes(requests: &[Timed], failures: usize, limit: Limit) -> bool {
    if failures > 0 || requests.is_empty() {
        return false;
    }
    let from_due: Vec<f64> = requests.iter().map(Timed::since_due_ms).collect();
    let late: Vec<f64> = requests.iter().map(Timed::late_ms).collect();
    percentile(&from_due, 99.0).unwrap_or(f64::INFINITY) <= limit.p99_ms
        && !backlog_growing(&late, limit.p99_ms / 2.0)
}

/// Self time of a span: its duration minus the union of its children's
/// intervals (clipped to the span), so overlapping children are not
/// subtracted twice. Intervals are `(start, end)` in any common unit.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (lo, hi) = span;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 90.0), Some(90.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(highest_supported_percentile(20), Some(50));
        // 99 samples cannot support p90: only 9 lie beyond it.
        assert_eq!(highest_supported_percentile(99), Some(89));
        for n in 11..2000 {
            let p = highest_supported_percentile(n).unwrap();
            let rank = ((p as f64 / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_SAMPLES, "n={n} p={p}");
            let next = (((p + 1) as f64 / 100.0) * n as f64).ceil() as usize;
            assert!(
                p == 100 || n - next < TAIL_SAMPLES,
                "n={n} p={p} not highest"
            );
        }
    }

    fn at(origin: Instant, due: u64, sent: u64, done: u64) -> Timed {
        let t = |ms| origin + Duration::from_millis(ms);
        Timed {
            due: t(due),
            sent: t(sent),
            done: t(done),
        }
    }

    #[test]
    fn latency_counts_from_due_time() {
        let o = Instant::now();
        // Due at 10, sent late at 25 behind a slow predecessor, done at 30:
        // the user waited 20 ms although the server took 5.
        let r = at(o, 10, 25, 30);
        assert!((r.since_due_ms() - 20.0).abs() < 1e-9);
        assert!((r.service_ms() - 5.0).abs() < 1e-9);
        assert!((r.late_ms() - 15.0).abs() < 1e-9);
        // Sent early is impossible, but a clock read before due must not
        // go negative.
        let e = at(o, 10, 10, 10);
        assert_eq!(e.since_due_ms(), 0.0);
    }

    #[test]
    fn backlog_detection() {
        // Constant offset: late but not growing.
        assert!(!backlog_growing(&[5.0; 40], 25.0));
        // Linear growth to 100 ms: a queue that never drains.
        let growing: Vec<f64> = (0..40).map(|i| i as f64 * 2.5).collect();
        assert!(backlog_growing(&growing, 25.0));
        // Jitter within the slack is not a backlog.
        let jitter: Vec<f64> = (0..40).map(|i| (i % 3) as f64 * 4.0).collect();
        assert!(!backlog_growing(&jitter, 25.0));
        assert!(!backlog_growing(&[100.0, 200.0], 25.0));
    }

    #[test]
    fn rung_pass_rules() {
        let o = Instant::now();
        let limit = Limit { p99_ms: 50.0 };
        let fast: Vec<Timed> = (0..200)
            .map(|i| at(o, i * 10, i * 10, i * 10 + 2))
            .collect();
        assert!(rung_passes(&fast, 0, limit));
        // One refused request fails the rung.
        assert!(!rung_passes(&fast, 1, limit));
        // A slow tail above the limit fails it.
        let mut slow = fast.clone();
        for r in slow.iter_mut().take(10) {
            r.done = r.due + Duration::from_millis(80);
        }
        assert!(!rung_passes(&slow, 0, limit));
        // A growing backlog fails it even while p99 stays under the limit.
        let backlog: Vec<Timed> = (0..200)
            .map(|i| at(o, i * 10, i * 10 + i / 5, i * 10 + i / 5 + 1))
            .collect();
        assert!(backlog.iter().all(|r| r.since_due_ms() <= 50.0));
        assert!(!rung_passes(&backlog, 0, limit));
        assert!(!rung_passes(&[], 0, limit));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 4.0), (2.0, 5.0)]), 6.0);
        // Nested children count once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 9.0), (2.0, 3.0)]), 2.0);
        // Children are clipped to the span.
        assert_eq!(self_time((0.0, 10.0), &[(-5.0, 2.0), (8.0, 20.0)]), 6.0);
        // A child outside the span is ignored.
        assert_eq!(self_time((0.0, 10.0), &[(11.0, 12.0)]), 10.0);
    }
}
