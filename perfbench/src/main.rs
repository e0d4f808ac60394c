//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <smog_steer|dns_browse|viewer_mix|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <file>]
//! perfbench compare <a.json> <b.json>
//! ```
//!
//! Workloads (inputs are pure functions of the workload and `--seed`, made
//! before timing starts):
//!
//! * `smog_steer` — a steering user: apply the seeded steering command due
//!   this frame, step the smog model, `Pipeline::advance` on its wind field.
//! * `dns_browse` — a browsing user: load the next slice of a seeded browse
//!   path from the DNS data base, `Pipeline::advance` on it.
//! * `viewer_mix` — remote viewers of an in-process server over loopback
//!   HTTP: a seeded open-loop mix of scrubs, plays, steers and shared
//!   fetches (up a frozen ladder of request rates when traced), and one
//!   viewer playing a session back to back for the end-to-end figures.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger, timed from outside the crates around calls to their public
//! functions, and writes the spans as Chrome trace-event JSON under
//! `perfbench/out/`. Every run checks its outputs against an independent
//! path, prints one line per metric (name, value, unit, samples), the
//! environment stamp, and as its last line the result object. A failed
//! check makes the command exit non-zero.

mod frames;
mod plan;
mod report;
mod stats;
mod trace;
mod viewer;

use report::{Report, Stamp};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["smog_steer", "dns_browse", "viewer_mix"];

/// Where traced runs write their spans, relative to the working directory.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Writes a traced run's spans; a failure to write is a failed check.
pub fn write_trace(path: &Path, rec: &trace::Recorder, report: &mut Report) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, rec.chrome_json()));
    report.check(written.is_ok(), || {
        format!("could not write {}: {written:?}", path.display())
    });
}

fn run_one(args: &Args) -> Result<Report, String> {
    let path = Path::new(OUT_DIR).join(format!("trace_{}.json", args.workload));
    let app = match args.workload.as_str() {
        "smog_steer" => Some(frames::App::Smog),
        "dns_browse" => Some(frames::App::Dns),
        _ => None,
    };
    match (app, args.trace) {
        (Some(app), false) => Ok(frames::run(app, args.seed, args.seconds)),
        (Some(app), true) => Ok(frames::run_traced(app, args.seed, args.seconds, &path)),
        (None, false) => viewer::run(args.seed, args.seconds),
        (None, true) => viewer::run_traced(args.seed, args.seconds, &path),
    }
}

/// Runs every workload, untraced and traced, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            ok &= matches!(status, Ok(s) if s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads a result file written with `--out`.
fn read_result(path: &str) -> Result<(Stamp, spotnoise::json::Json), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = spotnoise::json::Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let stamp = doc.get("stamp").ok_or(format!("{path}: no stamp"))?;
    let env = stamp
        .get("env")
        .and_then(|e| match e {
            spotnoise::json::Json::Object(pairs) => Some(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string()))
                    .collect(),
            ),
            _ => None,
        })
        .unwrap_or_default();
    let stamp = Stamp {
        nproc: stamp.get("nproc").and_then(|v| v.as_f64()).unwrap_or(0.0) as usize,
        simd: stamp
            .get("simd")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string(),
        env,
    };
    let result = doc
        .get("result")
        .cloned()
        .ok_or(format!("{path}: no result"))?;
    Ok((stamp, result))
}

/// Prints `b / a` for every metric two result files share, refusing to
/// compare results made at different thread counts or SIMD levels.
fn compare(a: &str, b: &str) -> ExitCode {
    let (sa, ra) = match read_result(a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (sb, rb) = match read_result(b) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = sa.incomparable(&sb) {
        eprintln!("refusing to compare {a} with {b}: {why}");
        return ExitCode::from(2);
    }
    let (Some(spotnoise::json::Json::Object(ma)), Some(mb)) =
        (ra.get("metrics"), rb.get("metrics"))
    else {
        eprintln!("result files carry no metrics");
        return ExitCode::from(2);
    };
    for (name, va) in ma {
        let value = |m: &spotnoise::json::Json| m.get("value").and_then(|v| v.as_f64());
        if let (Some(x), Some(y)) = (value(va), mb.get(name).and_then(value)) {
            println!("{name:<30} {x:>14.4} {y:>14.4} {:>8.3}x", y / x);
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        if argv.len() != 3 {
            eprintln!("usage: perfbench compare <a.json> <b.json>");
            return ExitCode::from(2);
        }
        return compare(&argv[1], &argv[2]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = Stamp::current();
    if let Some(why) = report::refusal(&stamp, args.trace) {
        eprintln!("perfbench: refusing to run: {why}");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let report = match run_one(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let selected = match report.selected(args.trace) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Every measured metric, by name, unit and sample count; the result
    // line below carries the selected set.
    let all: Vec<_> = report
        .metrics
        .iter()
        .map(|(n, m)| (*n, m.clone()))
        .collect();
    print!("{}", report::metric_lines(&args.workload, &all));
    for failure in &report.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("# stamp {}", stamp.to_json());
    let line = report::result_json(&report, &selected);
    if let Some(out) = &args.out {
        let doc = format!(
            "{{\"stamp\": {}, \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            stamp.to_json(),
            args.workload,
            args.seed,
            args.trace as u8
        );
        if let Err(e) = std::fs::write(out, doc) {
            eprintln!("perfbench: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
