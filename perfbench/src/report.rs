//! The metric names the benchmark reports, the environment stamp every
//! result carries, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, reported by every workload
/// with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("textures_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p10", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit, moves)` of every per-layer metric, reported by the traced
/// run; `moves` names the end-to-end metric (and workload) the layer should
/// move. A layer a workload never calls reports 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // the frame workloads' tail, untraced
    (
        "frame_ms.p90",
        "ms",
        "latency_ms.p50 on smog_steer, dns_browse",
    ),
    // flowsim
    (
        "sim.read_ms",
        "ms",
        "latency_ms.p50 on smog_steer (~3%); ~0 on dns_browse",
    ),
    // spotnoise::advect
    (
        "advect.ms",
        "ms",
        "latency_ms.p50 on dns_browse (~2%); <1% on smog_steer",
    ),
    // spotnoise::spot / bent (eq 2.1 processor term), serial replay
    (
        "shape.ms",
        "ms",
        "textures_per_s on dns_browse; little on smog_steer",
    ),
    (
        "shape.streamline_steps",
        "count",
        "textures_per_s on dns_browse",
    ),
    (
        "shape.mesh_vertices",
        "count",
        "textures_per_s on dns_browse",
    ),
    // softpipe::raster / simd / pipe (pipe term), serial replay
    (
        "raster.ms",
        "ms",
        "textures_per_s on smog_steer, dns_browse",
    ),
    (
        "raster.fragments",
        "count",
        "textures_per_s on smog_steer, dns_browse",
    ),
    (
        "raster.mfrag_per_s",
        "Mfrag/s",
        "textures_per_s on smog_steer, dns_browse",
    ),
    // softpipe::compose (eq 3.2 `c`), serial replay
    (
        "gather.ms",
        "ms",
        "<=1% of latency_ms.p50 on smog_steer, dns_browse",
    ),
    (
        "gather.texels",
        "count",
        "<=1% of latency_ms.p50 on smog_steer, dns_browse",
    ),
    // spotnoise::scheduler / dnc
    ("synth.ms", "ms", "textures_per_s on smog_steer, dns_browse"),
    (
        "synth.group_wall_ms.max",
        "ms",
        "textures_per_s on smog_steer, dns_browse",
    ),
    (
        "synth.group_imbalance",
        "ratio",
        "textures_per_s on smog_steer, dns_browse",
    ),
    (
        "synth.tail_ms",
        "ms",
        "textures_per_s on smog_steer, dns_browse",
    ),
    (
        "synth.parallel_speedup",
        "ratio",
        "textures_per_s on smog_steer, dns_browse",
    ),
    // softpipe::pool / arena
    (
        "pool.reuse_ratio",
        "ratio",
        "latency_ms.p50 and peak_rss_mb",
    ),
    (
        "arena.reuse_ratio",
        "ratio",
        "latency_ms.p50 and peak_rss_mb",
    ),
    (
        "os.threads_spawned_per_frame",
        "count",
        "latency_ms.p50 (system-wide count)",
    ),
    // spotnoise::filter
    (
        "display.ms",
        "ms",
        "latency_ms.p50 on smog_steer (~13%), dns_browse (~6%)",
    ),
    // spotnoise_service::http / server
    ("http.overhead_us.p50", "us", "latency_ms.p50 on viewer_mix"),
    // node / cache / session
    ("node.hit_us.p50", "us", "latency_ms.p50 on viewer_mix"),
    ("node.miss_ms.p50", "ms", "fetch_ms.p99.* on viewer_mix"),
    ("cache.hit_ratio", "ratio", "latency_ms.p50 on viewer_mix"),
    ("session.steer_ms.p50", "ms", "latency_ms.p50 on viewer_mix"),
    // queue / pressure / channel
    (
        "queue.busy_ratio",
        "ratio",
        "max_rate_ok and fail_ratio on viewer_mix",
    ),
    (
        "pressure.degraded_ratio",
        "ratio",
        "max_rate_ok and fail_ratio on viewer_mix",
    ),
    (
        "queue.wait_ms.p99",
        "ms",
        "max_rate_ok on viewer_mix (from /stats)",
    ),
    (
        "channel.delivery_ratio",
        "ratio",
        "max_rate_ok on viewer_mix (from /stats)",
    ),
    // viewer ladder, end to end but per rung
    ("fetch_ms.p50.lo", "ms", "latency_ms.p50 on viewer_mix"),
    ("fetch_ms.p99.lo", "ms", "max_rate_ok on viewer_mix"),
    ("fetch_ms.p50.mid", "ms", "latency_ms.p50 on viewer_mix"),
    ("fetch_ms.p99.mid", "ms", "max_rate_ok on viewer_mix"),
    ("max_rate_ok", "1/s", "textures_per_s on viewer_mix"),
    ("fail_ratio", "ratio", "the result's failed count"),
    // validity
    (
        "loadgen.late_ms.p99",
        "ms",
        "validity: the load generator kept its schedule",
    ),
    (
        "unattributed_ms",
        "ms",
        "validity: time no layer span accounts for",
    ),
    (
        "trace.overhead_ratio",
        "ratio",
        "validity: traced / untraced frame or request time",
    ),
];

/// One measured value with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Metrics of one run, plus the operation counts of its result line.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, with a reason each.
    pub check_failures: Vec<String>,
    /// Output checks that ran.
    pub checks: u64,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// The end-to-end metric a per-layer metric should move ("" for the
/// end-to-end metrics themselves).
pub fn moves(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or("", |(_, _, m)| m)
}

impl Report {
    /// Sets a metric; `name` must be declared in `END_TO_END` or
    /// `PER_LAYER`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = unit_of(name);
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.checks > 0
    }

    /// The metric set the run must print: every end-to-end metric when
    /// untraced, every per-layer metric when traced. Per-layer metrics a
    /// workload does not touch read 0 with 0 samples.
    pub fn selected(&self, traced: bool) -> Result<Vec<(&'static str, Metric)>, String> {
        let names: Vec<(&'static str, &'static str)> = if traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        names
            .into_iter()
            .map(|(name, unit)| match self.metrics.get(name) {
                Some(m) => Ok((name, m.clone())),
                None if traced => Ok((
                    name,
                    Metric {
                        value: 0.0,
                        unit,
                        samples: 0,
                    },
                )),
                None => Err(format!("end-to-end metric {name} was not measured")),
            })
            .collect()
    }
}

/// The human-readable metric lines: name, value, unit, sample count.
pub fn metric_lines(workload: &str, metrics: &[(&'static str, Metric)]) -> String {
    let mut out = String::new();
    for (name, m) in metrics {
        let _ = writeln!(
            out,
            "{workload:<11} {name:<30} {:>14.4} {:<8} n={:<6} {}",
            m.value,
            m.unit,
            m.samples,
            moves(name)
        );
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(report: &Report, metrics: &[(&'static str, Metric)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A finite f64 as a JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    // Debug formatting keeps every digit and writes exponents as `1e-7`,
    // which JSON accepts.
    format!("{v:?}")
}

/// What a result depends on beyond the code: the core count, the SIMD
/// dispatch level and every `SPOTNOISE_*` variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub nproc: usize,
    pub simd: String,
    pub env: Vec<(String, String)>,
}

impl Stamp {
    pub fn current() -> Self {
        let mut env: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("SPOTNOISE_"))
            .collect();
        env.sort();
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: softpipe::simd::active().name().to_string(),
            env,
        }
    }

    pub fn to_json(&self) -> String {
        let env: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "_")))
            .collect();
        format!(
            "{{\"nproc\": {}, \"simd\": \"{}\", \"env\": {{{}}}}}",
            self.nproc,
            self.simd,
            env.join(", ")
        )
    }

    /// Why results stamped `self` and `other` must not be compared, if
    /// they must not.
    pub fn incomparable(&self, other: &Stamp) -> Option<String> {
        if self.nproc != other.nproc {
            return Some(format!(
                "thread count differs: {} vs {}",
                self.nproc, other.nproc
            ));
        }
        if self.simd != other.simd {
            return Some(format!(
                "SIMD level differs: {} vs {}",
                self.simd, other.simd
            ));
        }
        None
    }
}

/// Variables that change the program being measured: an untraced run
/// refuses to start while any is set, and so does a traced run for the
/// fault plan.
pub fn refusal(stamp: &Stamp, traced: bool) -> Option<String> {
    stamp
        .env
        .iter()
        .find(|(k, _)| k == "SPOTNOISE_FAULT" || (!traced && k == "SPOTNOISE_TRACE"))
        .map(|(k, v)| format!("{k}={v} changes the program being measured; unset it"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(nproc: usize, simd: &str, env: &[(&str, &str)]) -> Stamp {
        Stamp {
            nproc,
            simd: simd.to_string(),
            env: env
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn comparisons_need_same_threads_and_simd() {
        let a = stamp(2, "avx2", &[]);
        assert_eq!(a.incomparable(&a.clone()), None);
        assert!(a.incomparable(&stamp(1, "avx2", &[])).is_some());
        assert!(a.incomparable(&stamp(2, "scalar", &[])).is_some());
    }

    #[test]
    fn trace_and_fault_variables_are_refused() {
        let trace = stamp(2, "avx2", &[("SPOTNOISE_TRACE", "on")]);
        assert!(refusal(&trace, false).is_some());
        assert!(refusal(&trace, true).is_none());
        let fault = stamp(2, "avx2", &[("SPOTNOISE_FAULT", "panic:raster:0.1")]);
        assert!(refusal(&fault, false).is_some());
        assert!(refusal(&fault, true).is_some());
        assert!(refusal(&stamp(2, "avx2", &[("SPOTNOISE_SIMD", "sse2")]), false).is_none());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.attempted = 10;
        r.check(true, String::new);
        for (name, _) in END_TO_END {
            r.set(name, 1.5, 3);
        }
        let sel = r.selected(false).unwrap();
        assert_eq!(sel.len(), END_TO_END.len());
        let line = result_json(&r, &sel);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // Untraced runs must have measured every end-to-end metric.
        assert!(Report::default().selected(false).is_err());
        // Traced runs fill untouched layers with zero.
        assert_eq!(
            Report::default().selected(true).unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, String::new);
        assert!(r.correct());
        r.check(false, || "frame 3 differs".to_string());
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
        assert!(!Report::default().correct(), "no check ran");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
            .collect();
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        for n in all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
