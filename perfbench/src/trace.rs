//! Spans the benchmark records around its own calls into the workspace's
//! public functions — no instrumentation inside the crates themselves — and
//! the process probes read from `/proc`.

use crate::stats;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are microseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    /// Frame or request id the span belongs to.
    pub item: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span store, written out as Chrome trace-event JSON (the format
/// the service's `/trace` endpoint serves) at the end of a traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id (for use as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        item: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let span = Span {
            name,
            id,
            parent,
            item,
            start_us: self.us(start),
            end_us: self.us(end),
        };
        self.spans.push(span);
        id
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        item: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, item, start, Instant::now());
        (out, id)
    }

    /// Re-times a span that was opened before its children were recorded.
    pub fn close(&mut self, id: usize, end: Instant) {
        let end_us = self.us(end);
        self.spans[id].end_us = end_us;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of every span named `name`: its duration minus the
    /// union of its direct children.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let mut children: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
                stats::self_time((s.start_us, s.end_us), kids) / 1e3
            })
            .collect()
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"item\":{}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.id,
                parent,
                s.item
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// The system-wide count of processes and threads ever forked, from the
/// `processes` line of `/proc/stat`. System-wide: other programs on the
/// host add to it too, so deltas are an upper bound on this process's
/// spawns. `None` where `/proc` is unavailable.
pub fn forks_total() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("processes "))
        .and_then(|v| v.trim().parse().ok())
}

/// This process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = text
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
    use std::time::Duration;

    #[test]
    fn self_times_use_direct_children() {
        let mut r = Recorder::new();
        let t0 = r.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let frame = r.record("frame", None, 7, at(0), at(10));
        r.record("a", Some(frame), 7, at(1), at(4));
        r.record("b", Some(frame), 7, at(3), at(6));
        let a = r.spans().len() - 2;
        // A grandchild never counts against the frame.
        r.record("c", Some(a), 7, at(7), at(9));
        let own = r.self_times_ms("frame");
        assert_eq!(own.len(), 1);
        assert!((own[0] - 5.0).abs() < 1e-6, "{own:?}");
        let json = r.chrome_json();
        assert!(json.contains("\"name\":\"frame\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn proc_probes_read_numbers() {
        if std::path::Path::new("/proc/stat").exists() {
            let a = forks_total().expect("processes line");
            std::thread::spawn(|| {}).join().unwrap();
            assert!(forks_total().unwrap() > a);
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
