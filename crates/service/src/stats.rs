//! The stats registry: every counter, gauge and peak a node or the router
//! reports is declared once, as one [`Stat`] row, and the `/stats`
//! document, the `/metrics` exposition and the cluster rollup are all
//! generated from the rows.
//!
//! A row names its `/stats` path (`section.field`), its Prometheus family
//! and help text, its [`StatKind`] and how to read its value from a snapshot
//! that reads each subsystem once. The kind decides the rest: counters,
//! gauges, peaks and states appear on both surfaces, per-node rows (ratios
//! and configuration) stay in `/stats`, and the cluster rollup sums, maxes
//! or skips a field by its kind. Adding a counter therefore means adding
//! its field and one row.

use spotnoise::json::Json;
use spotnoise::telemetry::HistogramSnapshot;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a row measures: its Prometheus type, whether `/metrics` exports
/// it, and how the cluster rollup combines it across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// A monotonic count: a Prometheus `counter`, summed across nodes.
    Counter,
    /// A level that adds up across nodes (live sessions, cached bytes,
    /// capacities): a `gauge`, summed.
    Gauge,
    /// A high-water mark or a clock: a `gauge`, maxed across nodes.
    Peak,
    /// An enum state: `/metrics` exports its ordinal as a `gauge`, `/stats`
    /// the name at that ordinal; the rollup skips it.
    State(&'static [&'static str]),
    /// A ratio or a configuration value: meaningful only per node, so it
    /// stays in `/stats` and the rollup skips it.
    PerNode,
}

/// One registry row. `R` reads the row's value out of the snapshot the
/// surface generator took.
pub struct Stat<R> {
    /// The `/stats` path: `section.field`, or a bare top-level field.
    pub path: &'static str,
    /// What the row measures.
    pub kind: StatKind,
    /// The Prometheus family and its help text, as the exposition's
    /// `# HELP` line carries them (empty for a [`StatKind::PerNode`] row).
    pub metric: &'static str,
    /// How to read the value.
    pub read: R,
}

/// A [`StatKind::Counter`] row.
pub const fn counter<R>(path: &'static str, metric: &'static str, read: R) -> Stat<R> {
    row(StatKind::Counter, path, metric, read)
}

/// A [`StatKind::Gauge`] row.
pub const fn gauge<R>(path: &'static str, metric: &'static str, read: R) -> Stat<R> {
    row(StatKind::Gauge, path, metric, read)
}

/// A [`StatKind::Peak`] row.
pub const fn peak<R>(path: &'static str, metric: &'static str, read: R) -> Stat<R> {
    row(StatKind::Peak, path, metric, read)
}

/// A [`StatKind::State`] row over `names`.
pub const fn state<R>(
    path: &'static str,
    metric: &'static str,
    names: &'static [&'static str],
    read: R,
) -> Stat<R> {
    row(StatKind::State(names), path, metric, read)
}

/// A [`StatKind::PerNode`] row (no `/metrics` family).
pub const fn per_node<R>(path: &'static str, read: R) -> Stat<R> {
    row(StatKind::PerNode, path, "", read)
}

const fn row<R>(kind: StatKind, path: &'static str, metric: &'static str, read: R) -> Stat<R> {
    Stat {
        path,
        kind,
        metric,
        read,
    }
}

impl<R> Stat<R> {
    /// The row's `(section, field)`; the section is empty for a top-level
    /// field.
    pub fn section_field(&self) -> (&'static str, &'static str) {
        self.path.split_once('.').unwrap_or(("", self.path))
    }
}

/// Reads a counter atomic as a row value.
pub fn count(counter: &AtomicU64) -> f64 {
    counter.load(Ordering::Relaxed) as f64
}

/// A `/stats` document under construction: top-level fields and sections
/// in the order they are first put.
#[derive(Default)]
pub struct StatsDoc(Vec<(String, Json)>);

impl StatsDoc {
    /// Appends `field` to `section` (created on first use), or as a
    /// top-level field when `section` is empty.
    pub fn put(&mut self, section: &str, field: &str, value: Json) {
        if section.is_empty() {
            self.0.push((field.to_string(), value));
            return;
        }
        let slot = match self.0.iter().position(|(name, _)| name == section) {
            Some(slot) => slot,
            None => {
                self.0.push((section.to_string(), Json::Object(Vec::new())));
                self.0.len() - 1
            }
        };
        if let Json::Object(fields) = &mut self.0[slot].1 {
            fields.push((field.to_string(), value));
        }
    }

    /// Puts every row, valued by `value`.
    pub fn put_rows<R>(&mut self, rows: &[Stat<R>], value: impl Fn(&R) -> f64) {
        for row in rows {
            let v = value(&row.read);
            let json = match row.kind {
                StatKind::State(names) => Json::str(names.get(v as usize).copied().unwrap_or("")),
                _ => Json::num(v),
            };
            let (section, field) = row.section_field();
            self.put(section, field, json);
        }
    }

    /// The finished document.
    pub fn into_json(self) -> Json {
        Json::Object(self.0)
    }
}

/// Appends every exported row to a Prometheus text exposition.
pub fn write_metrics<R>(out: &mut String, rows: &[Stat<R>], value: impl Fn(&R) -> f64) {
    for row in rows {
        let kind = match row.kind {
            StatKind::Counter => "counter",
            StatKind::Gauge | StatKind::Peak | StatKind::State(_) => "gauge",
            StatKind::PerNode => continue,
        };
        let name = row.metric.split(' ').next().unwrap_or_default();
        let _ = writeln!(out, "# HELP {}", row.metric);
        let _ = writeln!(out, "# TYPE {name} {kind}");
        // `f64`'s `Display` prints integral values without a fraction.
        let _ = writeln!(out, "{name} {}", value(&row.read));
    }
}

/// Appends one histogram in Prometheus text exposition format: cumulative
/// `_bucket{le=...}` lines (ending at `+Inf`), `_sum` and `_count`, plus
/// pre-computed `_p50`/`_p90`/`_p99` gauges so scrapers that do not compute
/// `histogram_quantile` still get the headline percentiles. `metric` is
/// the family and its help text, as for a row.
pub fn write_histogram(out: &mut String, metric: &str, snapshot: &HistogramSnapshot) {
    let name = metric.split(' ').next().unwrap_or_default();
    let _ = writeln!(out, "# HELP {metric}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (le, cumulative) in snapshot.cumulative_buckets() {
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snapshot.count);
    let _ = writeln!(out, "{name}_sum {}", snapshot.sum);
    let _ = writeln!(out, "{name}_count {}", snapshot.count);
    for (suffix, q) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
        let _ = writeln!(out, "# TYPE {name}_{suffix} gauge");
        let _ = writeln!(out, "{name}_{suffix} {}", snapshot.percentile(q));
    }
}

/// One percentile block of a `/stats` `latency` section.
pub fn latency_json(snap: &HistogramSnapshot) -> Json {
    Json::object([
        ("count", Json::num(snap.count as f64)),
        ("mean_us", Json::num(snap.mean())),
        ("p50_us", Json::num(snap.percentile(50.0) as f64)),
        ("p90_us", Json::num(snap.percentile(90.0) as f64)),
        ("p99_us", Json::num(snap.percentile(99.0) as f64)),
        ("max_us", Json::num(snap.max as f64)),
    ])
}
