//! The `viewer_mix` workload: remote viewers of an in-process spot-noise
//! server, driven open-loop over loopback HTTP from two connections on two
//! threads, each sending half the rate, up a frozen ladder of request
//! rates.
//!
//! Latency is measured from when each request was due, so a request that
//! waits behind a slow predecessor on its connection is charged for the
//! wait. A rung meets the limit when no request fails, p99 from due time is
//! at most 50 ms (under the 67 ms frame period of the paper's 15 Hz) and
//! the senders do not fall further and further behind.

use crate::plan::{Op, RequestPlan, SESSIONS_PER_CONN};
use crate::report::Report;
use crate::stats::{self, median, ms, percentile, Limit, Timed};
use crate::trace::{self, Recorder};
use softpipe::machine::MachineConfig;
use spotnoise::config::SynthesisConfig;
use spotnoise::json::Json;
use spotnoise::pipeline::{ExecutionMode, Pipeline};
use spotnoise_service::session::texture_bytes;
use spotnoise_service::spec::service_domain;
use spotnoise_service::{
    serve, ClientError, FieldSpec, NodeCore, ServiceClient, ServiceHandle, ServiceOptions,
    SessionSpec,
};
use std::time::{Duration, Instant};

/// The frozen rate ladder (requests/s, ×√2 per rung). Calibrated once so
/// the code of its day met the limit on the lower rungs and missed it on
/// the top one; do not retune it to make a change look better.
pub const RUNGS: [f64; 7] = [71.0, 100.0, 141.0, 200.0, 283.0, 400.0, 566.0];
/// The named rungs: `lo` (100 req/s) and `mid` (200 req/s).
const LO: usize = 1;
const MID: usize = 3;
const LIMIT: Limit = Limit { p99_ms: 50.0 };
/// Client connections, one thread each.
const CONNS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// How long after a rung's end its senders may still catch up.
const RUNG_OVERRUN: Duration = Duration::from_secs(2);
/// Pause between rungs so one rung's queue does not leak into the next.
const RUNG_GAP: Duration = Duration::from_millis(100);
/// Served frames are checked only at indices up to this (the reference
/// render replays every frame before the checked one).
const MAX_CHECKED_FRAME: u64 = 16;

/// Field variant `v` of a private session: three analytic kinds, each
/// with a parameter that moves with `v`, so every variant has its own
/// frame-cache key.
fn private_field(v: u64) -> FieldSpec {
    let level = (v / 3) as f64;
    match v % 3 {
        0 => FieldSpec::Vortex {
            omega: 1.0 + 0.05 * level,
            cx: 0.5,
            cy: 0.5,
        },
        1 => FieldSpec::DoubleGyre {
            amplitude: 0.1,
            epsilon: 0.25 + 0.01 * level,
            omega: 0.628,
            time: 0.0,
        },
        _ => FieldSpec::TaylorGreen {
            amplitude: 1.0 + 0.05 * level,
            cells: 2.0,
        },
    }
}

/// The broadcast field of each connection's shared channel.
fn shared_field(conn: usize) -> FieldSpec {
    match conn {
        0 => FieldSpec::Saddle {
            rate: 1.0,
            cx: 0.5,
            cy: 0.5,
        },
        _ => FieldSpec::Shear { rate: 1.0 },
    }
}

/// A session spec: disc spots (the only kind the service accepts) at 256²
/// with 400 spots on a 2×2 machine, so the ≥256² parallel gather runs.
fn spec(field: FieldSpec, seed: u64, shared: bool) -> SessionSpec {
    SessionSpec {
        field,
        config: SynthesisConfig {
            texture_size: 256,
            spot_count: 400,
            seed,
            ..SynthesisConfig::small_test()
        },
        processors: 2,
        pipes: 2,
        dt: 0.05,
        shared,
        pinned: false,
    }
}

fn private_seed(conn: usize, session: usize) -> u64 {
    100 + (conn * SESSIONS_PER_CONN + session) as u64
}

fn shared_seed(conn: usize) -> u64 {
    200 + conn as u64
}

fn body(spec: &SessionSpec) -> String {
    let cfg = &spec.config;
    Json::object([
        ("field", spec.field.to_json()),
        (
            "config",
            Json::object([
                ("texture_size", Json::num(cfg.texture_size as f64)),
                ("spot_count", Json::num(cfg.spot_count as f64)),
                ("seed", Json::num(cfg.seed as f64)),
            ]),
        ),
        (
            "machine",
            Json::object([
                ("processors", Json::num(spec.processors as f64)),
                ("pipes", Json::num(spec.pipes as f64)),
            ]),
        ),
        ("dt", Json::num(spec.dt)),
        ("shared", Json::Bool(spec.shared)),
    ])
    .to_string_pretty()
}

/// A served frame kept for the output check.
struct Capture {
    spec: SessionSpec,
    frame: u64,
    bytes: Vec<u8>,
}

/// One viewer connection: its sessions, its request plan, its captures.
struct Conn {
    index: usize,
    client: ServiceClient,
    private: Vec<String>,
    /// Current field of each private session.
    fields: Vec<u64>,
    subscribers: Vec<String>,
    plan: RequestPlan,
    captures: Vec<Capture>,
    /// Op kinds already captured.
    captured: Vec<&'static str>,
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Outcome {
    conn: usize,
    seq: usize,
    op: Op,
    timed: Timed,
    /// `None` when the request succeeded, else the HTTP status (0 for a
    /// transport error).
    error: Option<u16>,
    hit: bool,
    stale_or_degraded: bool,
}

impl Conn {
    fn open(addr: std::net::SocketAddr, index: usize, seed: u64) -> Result<Self, String> {
        let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
        let err = |e: ClientError| format!("{e:?}");
        let mut private = Vec::new();
        let mut fields = Vec::new();
        for s in 0..SESSIONS_PER_CONN {
            let f = s as u64;
            let spec = spec(private_field(f), private_seed(index, s), false);
            private.push(client.create_session(&body(&spec)).map_err(err)?);
            fields.push(f);
        }
        let mut subscribers = Vec::new();
        for _ in 0..SESSIONS_PER_CONN {
            let spec = spec(shared_field(index), shared_seed(index), true);
            subscribers.push(client.create_session(&body(&spec)).map_err(err)?);
        }
        // Warm-up: frame 0 of every session, as the plan assumes.
        for id in private.iter().chain(&subscribers) {
            client.fetch_frame(id, 0).map_err(err)?;
        }
        Ok(Conn {
            index,
            client,
            private,
            fields,
            subscribers,
            plan: RequestPlan::new(seed, index as u64),
            captures: Vec::new(),
            captured: Vec::new(),
        })
    }

    /// Sends one request; returns the frame on success.
    fn execute(&mut self, op: Op) -> Result<spotnoise_service::FetchedFrame, ClientError> {
        match op {
            Op::Scrub { session, frame } | Op::Play { session, frame } => {
                self.client.fetch_frame(&self.private[session], frame)
            }
            Op::Steer { session, field } => {
                let field_body = private_field(field).to_json().to_string_pretty();
                self.client.steer(&self.private[session], &field_body)?;
                self.fields[session] = field;
                self.client.fetch_frame(&self.private[session], 0)
            }
            Op::Shared { subscriber, frame } => self
                .client
                .fetch_frame(&self.subscribers[subscriber], frame),
        }
    }

    /// The spec a served frame of `op` was rendered from.
    fn spec_of(&self, op: Op) -> SessionSpec {
        match op {
            Op::Scrub { session, .. } | Op::Play { session, .. } | Op::Steer { session, .. } => {
                spec(
                    private_field(self.fields[session]),
                    private_seed(self.index, session),
                    false,
                )
            }
            Op::Shared { .. } => spec(shared_field(self.index), shared_seed(self.index), true),
        }
    }

    /// Drives this connection's share of one rung: requests due every
    /// `period` from `start + offset` until `end`, sent no later than
    /// `stop` (a sender that far behind has missed the limit anyway).
    fn drive(
        &mut self,
        period: Duration,
        start: Instant,
        end: Instant,
        stop: Instant,
    ) -> Vec<Outcome> {
        let mut out = Vec::new();
        let offset = period.mul_f64(self.index as f64 / CONNS as f64);
        let mut due = start + offset;
        while due < end && Instant::now() < stop {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let op = self.plan.next_op();
            let sent = Instant::now();
            let result = self.execute(op);
            let done = Instant::now();
            let mut outcome = Outcome {
                conn: self.index,
                seq: 0,
                op,
                timed: Timed { due, sent, done },
                error: None,
                hit: false,
                stale_or_degraded: false,
            };
            match result {
                Ok(frame) => {
                    outcome.hit = frame.cache_hit;
                    outcome.stale_or_degraded = frame.stale || frame.degraded;
                    let kind = op.kind();
                    if !outcome.stale_or_degraded
                        && frame.frame <= MAX_CHECKED_FRAME
                        && !self.captured.contains(&kind)
                    {
                        self.captured.push(kind);
                        self.captures.push(Capture {
                            spec: self.spec_of(op),
                            frame: frame.frame,
                            bytes: frame.bytes,
                        });
                    }
                }
                Err(e) => {
                    outcome.error = Some(match e {
                        ClientError::Http(status, _) => status,
                        _ => 0,
                    });
                    // A broken connection is replaced; the failure stands.
                    let _ = self.client.reconnect();
                }
            }
            out.push(outcome);
            due += period;
        }
        out
    }
}

/// A booted server with both viewer connections set up.
struct Rig {
    handle: ServiceHandle,
    conns: Vec<Conn>,
    /// Ops sent so far per connection (the `seq` of the next outcome).
    sent: Vec<usize>,
}

impl Rig {
    fn boot(seed: u64) -> Result<Rig, String> {
        let handle = serve("127.0.0.1:0", ServiceOptions::default()).map_err(|e| e.to_string())?;
        let addr = handle.addr();
        let conns = (0..CONNS)
            .map(|c| Conn::open(addr, c, seed))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Rig {
            handle,
            conns,
            sent: vec![0; CONNS],
        })
    }

    fn shut_down(self) {
        drop(self.conns);
        self.handle.shutdown();
    }

    fn stats(&self) -> Option<Json> {
        ServiceClient::connect(self.handle.addr())
            .ok()?
            .stats()
            .ok()
    }

    /// One rung of the ladder at `rate` requests/s for `seconds`; requests
    /// still unsent `overrun` after the rung's end are not sent.
    fn rung(&mut self, rate: f64, seconds: f64, overrun: Duration) -> Rung {
        let period = Duration::from_secs_f64(CONNS as f64 / rate);
        let start = Instant::now() + Duration::from_millis(5);
        let end = start + Duration::from_secs_f64(seconds);
        let stop = end + overrun;
        let mut outcomes: Vec<Outcome> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| s.spawn(move || conn.drive(period, start, end, stop)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("viewer thread panicked"))
                .collect()
        });
        for o in &mut outcomes {
            o.seq = self.sent[o.conn];
            self.sent[o.conn] += 1;
        }
        std::thread::sleep(RUNG_GAP);
        Rung { rate, outcomes }
    }
}

struct Rung {
    rate: f64,
    outcomes: Vec<Outcome>,
}

impl Rung {
    fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| o.error.is_some()).count()
    }

    fn timed(&self) -> Vec<Timed> {
        self.outcomes.iter().map(|o| o.timed).collect()
    }

    fn since_due_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|o| o.timed.since_due_ms())
            .collect()
    }

    fn passes(&self) -> bool {
        stats::rung_passes(&self.timed(), self.failures(), LIMIT)
    }
}

/// Walks the ladder from the bottom, `per_rung` seconds a rung, calling
/// `after` once each rung is done; stops after the first rung above `mid`
/// that misses the limit (the rungs above it would too).
fn ladder(rig: &mut Rig, per_rung: f64, mut after: impl FnMut(&Rig, &Rung)) -> Vec<Rung> {
    let mut rungs = Vec::new();
    for (i, &rate) in RUNGS.iter().enumerate() {
        let rung = rig.rung(rate, per_rung, RUNG_OVERRUN);
        after(rig, &rung);
        let pass = rung.passes();
        eprintln!(
            "viewer_mix rung {rate:>5} req/s: {} requests, p99 {:.2} ms from due, {} failed -> {}",
            rung.outcomes.len(),
            percentile(&rung.since_due_ms(), 99.0).unwrap_or(0.0),
            rung.failures(),
            if pass {
                "meets the limit"
            } else {
                "misses the limit"
            }
        );
        rungs.push(rung);
        if !pass && i >= MID {
            break;
        }
    }
    rungs
}

/// Latency from due time at the named rungs.
fn named_rung_metrics(report: &mut Report, lo: &Rung, mid: &Rung) {
    for (name_p50, name_p99, rung) in [
        ("fetch_ms.p50.lo", "fetch_ms.p99.lo", lo),
        ("fetch_ms.p50.mid", "fetch_ms.p99.mid", mid),
    ] {
        let lat = rung.since_due_ms();
        report.set(name_p50, percentile(&lat, 50.0).unwrap_or(0.0), lat.len());
        report.set(name_p99, percentile(&lat, 99.0).unwrap_or(0.0), lat.len());
    }
}

/// Counts every request of `rungs` as attempted and every failed one as
/// failed.
fn count_requests(report: &mut Report, rungs: &[&Rung]) {
    for rung in rungs {
        report.attempted += rung.outcomes.len() as u64;
        report.failed += rung.failures() as u64;
    }
}

/// Renders frame `frame` of `spec` in-process, exactly as a session does,
/// and serializes it in the wire format.
fn reference_bytes(spec: &SessionSpec, frame: u64) -> Vec<u8> {
    let machine = MachineConfig::new(spec.processors, spec.pipes);
    let mut pipeline = Pipeline::new(
        spec.config,
        ExecutionMode::DivideAndConquer(machine),
        service_domain(),
    );
    pipeline.set_postprocess(false);
    pipeline.set_display_enabled(false);
    let field = spec.field.build();
    let mut last = None;
    for _ in 0..=frame {
        last = Some(pipeline.advance(field.as_ref(), spec.dt, 0).texture);
    }
    texture_bytes(&last.expect("at least one frame"))
}

/// Sampled served frames must be byte-identical to an in-process render.
fn check_captures(report: &mut Report, rig: &Rig) {
    for conn in &rig.conns {
        for c in &conn.captures {
            let same = reference_bytes(&c.spec, c.frame) == c.bytes;
            report.check(same, || {
                format!(
                    "viewer_mix: served frame {} of {:?} differs from an in-process render",
                    c.frame, c.spec.field
                )
            });
        }
    }
    report.attempted += report.checks;
}

fn boot_repeatedly(seed: u64) -> Result<(Rig, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(rig) = last.take() {
            Rig::shut_down(rig);
        }
        let start = Instant::now();
        let rig = Rig::boot(seed)?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(rig);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// A request rate no connection keeps up with: requests go back to back.
const BACK_TO_BACK: f64 = 1e6;
/// Seed of the session the play phase opens.
const PLAY_SEED: u64 = 300;
/// Frame of the play phase kept for the output check.
const PLAY_CHECKED_FRAME: u64 = 3;

/// One viewer playing a fresh private session back to back over HTTP:
/// every request is a cache miss, so each one crosses the whole service
/// path (codec, node, queue, synthesis, cache insert, socket write).
/// Returns per-request ms and the phase's wall seconds.
fn play(rig: &mut Rig, report: &mut Report, seconds: f64) -> Result<(Vec<f64>, f64), String> {
    let conn = &mut rig.conns[0];
    let spec = spec(private_field(0), PLAY_SEED, false);
    let id = conn
        .client
        .create_session(&body(&spec))
        .map_err(|e| format!("{e:?}"))?;
    conn.client
        .fetch_frame(&id, 0)
        .map_err(|e| format!("{e:?}"))?;
    let mut latency = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut frame = 1;
    while latency.len() < crate::frames::MIN_FRAMES || start.elapsed() < budget {
        let t0 = Instant::now();
        let result = conn.client.fetch_frame(&id, frame);
        latency.push(ms(t0.elapsed()));
        report.attempted += 1;
        match result {
            Ok(f) if !f.cache_hit => {
                if frame == PLAY_CHECKED_FRAME {
                    conn.captures.push(Capture {
                        spec,
                        frame,
                        bytes: f.bytes,
                    });
                }
            }
            Ok(_) => report.check(false, || format!("play frame {frame} was a cache hit")),
            Err(e) => {
                report.failed += 1;
                eprintln!("viewer_mix: play frame {frame} failed: {e:?}");
                let _ = conn.client.reconnect();
            }
        }
        frame += 1;
    }
    Ok((latency, start.elapsed().as_secs_f64()))
}

/// The untraced run: end-to-end metrics. Most of the time goes to one
/// viewer playing a session back to back on the freshly booted server,
/// which gives the end-to-end figures: textures per second and request
/// latency. Then the seeded mix runs back to back for a tenth of the time,
/// so every request kind's served frames are checked. Open-loop latencies
/// are too sensitive to the host to compare across runs — a few slow
/// milliseconds of synthesis queue the next requests — so the ladder, the
/// limit and the rung percentiles are per-layer metrics of the traced run.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut rig, setups) = boot_repeatedly(seed)?;
    report.set("setup_s", median(&setups).unwrap_or(0.0), setups.len());
    let (latency, wall) = play(&mut rig, &mut report, seconds * 0.9)?;
    let mix = rig.rung(BACK_TO_BACK, seconds * 0.1, Duration::ZERO);
    count_requests(&mut report, &[&mix]);
    report.set("textures_per_s", latency.len() as f64 / wall, latency.len());
    report.set(
        "latency_ms.p50",
        median(&latency).unwrap_or(0.0),
        latency.len(),
    );
    report.set(
        "latency_ms.p10",
        percentile(&latency, 10.0).unwrap_or(0.0),
        latency.len(),
    );
    check_captures(&mut report, &rig);
    rig.shut_down();
    report.set("peak_rss_mb", trace::peak_rss_mb().unwrap_or(0.0), 1);
    let attempted = report.attempted.max(1) as f64;
    report.set(
        "fail_ratio",
        report.failed as f64 / attempted,
        report.attempted as usize,
    );
    Ok(report)
}

/// The same requests replayed against an in-process `NodeCore`: no socket,
/// no HTTP codec, no connection thread.
struct NodeReplay {
    /// `(conn, seq)` -> (ms, cache hit) of the node call(s).
    times: std::collections::HashMap<(usize, usize), (f64, bool)>,
    steer_ms: Vec<f64>,
}

fn replay_on_node(outcomes: &[&Outcome]) -> Result<NodeReplay, String> {
    let core = NodeCore::new(ServiceOptions::default());
    let workers = core.start_workers(0);
    let err = |e| format!("{e:?}");
    let mut private = vec![vec![]; CONNS];
    let mut subscribers = vec![vec![]; CONNS];
    for c in 0..CONNS {
        for s in 0..SESSIONS_PER_CONN {
            let sp = spec(private_field(s as u64), private_seed(c, s), false);
            private[c].push(core.create_session(sp).map_err(err)?);
        }
        for _ in 0..SESSIONS_PER_CONN {
            let sp = spec(shared_field(c), shared_seed(c), true);
            subscribers[c].push(core.create_session(sp).map_err(err)?);
        }
        for &id in private[c].iter().chain(&subscribers[c]) {
            core.fetch_frame(id, 0).map_err(err)?;
        }
    }
    let mut replay = NodeReplay {
        times: Default::default(),
        steer_ms: Vec::new(),
    };
    for o in outcomes {
        let c = o.conn;
        let start = Instant::now();
        let result = match o.op {
            Op::Scrub { session, frame } | Op::Play { session, frame } => {
                core.fetch_frame(private[c][session], frame)
            }
            Op::Steer { session, field } => {
                core.steer(private[c][session], private_field(field))
                    .map_err(err)?;
                replay.steer_ms.push(ms(start.elapsed()));
                core.fetch_frame(private[c][session], 0)
            }
            Op::Shared { subscriber, frame } => core.fetch_frame(subscribers[c][subscriber], frame),
        };
        let elapsed = ms(start.elapsed());
        if let Ok(frame) = result {
            replay.times.insert((c, o.seq), (elapsed, frame.cached));
        }
    }
    core.begin_shutdown();
    for w in workers {
        let _ = w.join();
    }
    Ok(replay)
}

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64, seconds: f64, trace_path: &std::path::Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rig = Rig::boot(seed)?;
    let per_rung = (seconds / RUNGS.len() as f64).max(0.5);

    let mut rec = Recorder::new();
    let mut snapshots: Vec<Option<Json>> = vec![rig.stats()];
    // Spans are built from the timestamps every request takes anyway, after
    // its rung; what tracing adds is that work and the /stats snapshots.
    let mut tracing = Duration::ZERO;
    let ladder_start = Instant::now();
    let rungs = ladder(&mut rig, per_rung, |rig, rung| {
        let t0 = Instant::now();
        snapshots.push(rig.stats());
        for o in &rung.outcomes {
            let item = (o.conn * 1_000_000 + o.seq) as u64;
            let t = o.timed;
            let span = rec.record("request", None, item, t.due, t.done);
            rec.record("loadgen.wait", Some(span), item, t.due, t.sent);
            rec.record(o.op.kind(), Some(span), item, t.sent, t.done);
        }
        tracing += t0.elapsed();
    });
    let ladder_wall = ladder_start.elapsed();
    named_rung_metrics(&mut report, &rungs[LO], &rungs[MID]);
    let max_ok = rungs
        .iter()
        .take_while(|r| r.passes())
        .last()
        .map_or(0.0, |r| r.rate);
    report.set("max_rate_ok", max_ok, rungs.len());
    count_requests(&mut report, &rungs.iter().collect::<Vec<_>>());

    let named: Vec<&Outcome> = rungs[..=MID].iter().flat_map(|r| &r.outcomes).collect();
    let ok: Vec<&&Outcome> = named.iter().filter(|o| o.error.is_none()).collect();
    let hits = ok.iter().filter(|o| o.hit).count();
    report.set(
        "cache.hit_ratio",
        hits as f64 / ok.len().max(1) as f64,
        ok.len(),
    );

    let all: Vec<&Outcome> = rungs.iter().flat_map(|r| &r.outcomes).collect();
    let busy = all.iter().filter(|o| o.error == Some(503)).count();
    let served: Vec<&&Outcome> = all.iter().filter(|o| o.error.is_none()).collect();
    let degraded = served.iter().filter(|o| o.stale_or_degraded).count();
    report.set(
        "queue.busy_ratio",
        busy as f64 / all.len().max(1) as f64,
        all.len(),
    );
    report.set(
        "pressure.degraded_ratio",
        degraded as f64 / served.len().max(1) as f64,
        served.len(),
    );

    let mid = &rungs[MID];
    let late: Vec<f64> = mid.outcomes.iter().map(|o| o.timed.late_ms()).collect();
    report.set(
        "loadgen.late_ms.p99",
        percentile(&late, 99.0).unwrap_or(0.0),
        late.len(),
    );
    report.set(
        "trace.overhead_ratio",
        ladder_wall.as_secs_f64() / (ladder_wall - tracing).as_secs_f64(),
        rungs.len(),
    );

    // The /stats snapshot after the mid rung, as a cross-check.
    if let Some(Some(doc)) = snapshots.get(MID + 1) {
        let num = |path: &[&str]| {
            path.iter()
                .try_fold(doc, |d, k| d.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let count = num(&["latency", "queue_wait", "count"]) as usize;
        report.set(
            "queue.wait_ms.p99",
            num(&["latency", "queue_wait", "p99_us"]) / 1e3,
            count,
        );
        let delivered = num(&["channels", "delivered"]) as usize;
        report.set(
            "channel.delivery_ratio",
            num(&["channels", "delivery_ratio"]),
            delivered,
        );
    }

    check_captures(&mut report, &rig);
    rig.shut_down();

    // The HTTP hop, isolated: the same requests against the node core.
    let node = replay_on_node(&named)?;
    let mut hit_us = Vec::new();
    let mut miss_ms = Vec::new();
    let mut overhead_hit_us = Vec::new();
    let mut outside_ms = Vec::new();
    for o in &named {
        let Some(&(node_ms, node_hit)) = node.times.get(&(o.conn, o.seq)) else {
            continue;
        };
        if node_hit {
            hit_us.push(node_ms * 1e3);
        } else {
            miss_ms.push(node_ms);
        }
        if o.error.is_none() && o.hit == node_hit {
            let outside = o.timed.service_ms() - node_ms;
            outside_ms.push(outside);
            if node_hit {
                overhead_hit_us.push(outside * 1e3);
            }
        }
    }
    report.set(
        "node.hit_us.p50",
        median(&hit_us).unwrap_or(0.0),
        hit_us.len(),
    );
    report.set(
        "node.miss_ms.p50",
        median(&miss_ms).unwrap_or(0.0),
        miss_ms.len(),
    );
    report.set(
        "session.steer_ms.p50",
        median(&node.steer_ms).unwrap_or(0.0),
        node.steer_ms.len(),
    );
    report.set(
        "http.overhead_us.p50",
        median(&overhead_hit_us).unwrap_or(0.0),
        overhead_hit_us.len(),
    );
    // For a request, the layer spans are the node core's; what no layer
    // accounts for is the transport around it.
    report.set(
        "unattributed_ms",
        median(&outside_ms).unwrap_or(0.0),
        outside_ms.len(),
    );
    let attempted = report.attempted.max(1) as f64;
    report.set(
        "fail_ratio",
        report.failed as f64 / attempted,
        report.attempted as usize,
    );
    crate::write_trace(trace_path, &rec, &mut report);
    Ok(report)
}
