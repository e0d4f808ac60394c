//! Chaos suite: the service under injected faults and hostile clients.
//!
//! These tests install process-global fault plans via [`softpipe::fault`],
//! so they live in their own integration binary (unit tests elsewhere must
//! never see a plan) and serialize on [`fault_lock`] — the plan, the panic
//! hook and the injection counters are all shared process state.
//!
//! The soak length is tunable: `SPOTNOISE_SOAK_SECS` (default 2) stretches
//! the panic-injection soak, letting CI run the 60-second version the
//! fault-containment work item calls for without making local `cargo test`
//! crawl.

use flowfield::analytic::Vortex;
use flowfield::{Rect, Vec2};
use softpipe::fault::{self, FaultPlan};
use softpipe::machine::MachineConfig;
use spotnoise::advect::{PositionMode, SpotAnimator};
use spotnoise::config::SynthesisConfig;
use spotnoise::dnc::synthesize_dnc;
use spotnoise::json::Json;
use spotnoise_service::{
    serve, AdmissionConfig, ClientError, RetryPolicy, ServiceClient, ServiceOptions,
};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serializes every test in this binary: fault plans are process-global.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    match lock.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Swallows the panic spew from injected faults (they are caught and
/// counted by the containment layer; hundreds of backtraces would bury the
/// test output) while still printing genuine panics.
fn quiet_injected_panics() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault at site"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn domain() -> Rect {
    Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
}

/// Small sessions keep the soak's render loop tight so the render-site
/// checkpoint fires thousands of times even in the 2-second default run.
fn session_body(seed: u64, omega: f64, texture_size: usize) -> String {
    format!(
        concat!(
            "{{\"field\": {{\"kind\": \"vortex\", \"omega\": {}, \"cx\": 0.5, \"cy\": 0.5}}, ",
            "\"config\": {{\"texture_size\": {}, \"spot_count\": 40, ",
            "\"spot_texture_size\": 8, \"seed\": {}}}, ",
            "\"machine\": {{\"processors\": 2, \"pipes\": 2}}, \"dt\": 0.05}}"
        ),
        omega, texture_size, seed
    )
}

/// Direct engine rendering of the same frame `session_body` describes —
/// the post-recovery oracle.
fn direct_frame_bytes(seed: u64, omega: f64, texture_size: usize, index: u64) -> Vec<u8> {
    let cfg = SynthesisConfig {
        texture_size,
        spot_count: 40,
        spot_texture_size: 8,
        seed,
        ..SynthesisConfig::small_test()
    };
    let field = Vortex {
        omega,
        center: Vec2::new(0.5, 0.5),
        domain: domain(),
    };
    let mut animator =
        SpotAnimator::new(domain(), cfg.spot_count, PositionMode::Advected, cfg.seed);
    for _ in 0..=index {
        animator.advance(&field, 0.05);
    }
    let out = synthesize_dnc(&field, &animator.spots(), &cfg, &MachineConfig::new(2, 2));
    let mut bytes = Vec::with_capacity(out.texture.data().len() * 4);
    for v in out.texture.data() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

fn stat(doc: &Json, path: &[&str]) -> f64 {
    let mut node = doc;
    for key in path {
        node = node
            .get(key)
            .unwrap_or_else(|| panic!("stats missing {path:?} at {key:?}"));
    }
    node.as_f64()
        .unwrap_or_else(|| panic!("stats {path:?} is not a number"))
}

fn soak_duration() -> Duration {
    let secs = std::env::var("SPOTNOISE_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(2);
    Duration::from_secs(secs.max(1))
}

/// The tentpole chaos property: with panics injected into the render stage
/// at 10%, a 4-worker server keeps answering, quarantines exactly the
/// sessions whose renders blew up, never lets a lock poison escape, and —
/// once the plan is cleared — serves frames bit-identical to the direct
/// engine again.
#[test]
fn panic_soak_keeps_serving_quarantines_and_recovers_bit_exact() {
    let _serial = fault_lock();
    quiet_injected_panics();
    fault::clear();

    let handle = serve(
        "127.0.0.1:0",
        ServiceOptions {
            workers: 4,
            cache_bytes: 0, // force every fetch through the render site
            ..ServiceOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    fault::install(FaultPlan::parse("panic:render:0.1").expect("plan parses"));

    let deadline = Instant::now() + soak_duration();
    let served = Arc::new(AtomicU64::new(0));
    let quarantine_hits = Arc::new(AtomicU64::new(0));
    let drivers: Vec<_> = (0..4u64)
        .map(|lane| {
            let served = Arc::clone(&served);
            let quarantine_hits = Arc::clone(&quarantine_hits);
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                let mut seed = lane * 1000 + 1;
                while Instant::now() < deadline {
                    seed += 1;
                    let session = match client.create_session(&session_body(seed, 1.0, 32)) {
                        Ok(s) => s,
                        Err(ClientError::Io(_)) | Err(ClientError::TimedOut) => {
                            client.reconnect().expect("reconnect");
                            continue;
                        }
                        Err(e) => panic!("create_session failed: {e}"),
                    };
                    for frame in 0..4u64 {
                        match client.fetch_frame(&session, frame) {
                            Ok(fetched) => {
                                assert_eq!(fetched.frame, frame);
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                            // A 500 is the contained panic answering; the
                            // session is quarantined, move to a fresh one.
                            Err(ClientError::Http(500, _)) => {
                                quarantine_hits.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(ClientError::Busy { .. }) => break,
                            Err(ClientError::Io(_)) | Err(ClientError::TimedOut) => {
                                client.reconnect().expect("reconnect");
                                break;
                            }
                            Err(e) => panic!("fetch failed: {e}"),
                        }
                    }
                    let _ = client.close_session(&session);
                }
            })
        })
        .collect();
    for d in drivers {
        d.join().expect("soak driver panicked");
    }

    // The server is still standing and its books balance.
    let mut observer = ServiceClient::connect(addr).expect("server still accepts");
    let stats = observer.stats().expect("stats after soak");
    let injected = stat(&stats, &["faults", "injected_panics"]);
    let caught = stat(&stats, &["faults", "panics_caught"]);
    let quarantined = stat(&stats, &["sessions", "quarantined"]);
    let accepted = stat(&stats, &["queue", "accepted"]);
    let completed = stat(&stats, &["queue", "completed"]);
    assert!(
        served.load(Ordering::Relaxed) > 0,
        "nothing served during the soak"
    );
    assert!(injected >= 1.0, "fault plan never fired");
    assert!(
        quarantined >= 1.0,
        "injected render panics quarantined no session"
    );
    assert!(
        quarantined <= caught,
        "quarantines ({quarantined}) exceed caught panics ({caught})"
    );
    assert!(
        caught <= injected,
        "service caught more panics ({caught}) than were injected ({injected})"
    );
    assert!(
        quarantine_hits.load(Ordering::Relaxed) as f64 <= injected,
        "clients saw more contained-panic 500s than injected panics"
    );
    assert!(
        completed <= accepted,
        "completed ({completed}) outran accepted ({accepted})"
    );

    // Recovery: with the plan cleared, a fresh session reproduces the
    // direct engine bit for bit — the chaos left no residue in the
    // pipeline, the pools or the caches.
    fault::clear();
    let session = observer
        .create_session(&session_body(777, -1.5, 32))
        .expect("post-recovery session");
    for frame in 0..2u64 {
        let fetched = observer
            .fetch_frame(&session, frame)
            .expect("recovered fetch");
        assert_eq!(
            fetched.bytes,
            direct_frame_bytes(777, -1.5, 32, frame),
            "post-recovery frame {frame} diverged from direct synthesis"
        );
    }
    handle.shutdown();
}

/// Satellite (a): `fetch_frame_with_retry` rides out Busy shedding. A
/// one-worker, watermark-2 server sheds most of a 8-client stampede, yet
/// every client lands its frame because the retry loop honors the backoff
/// and `Retry-After` hints.
#[test]
fn busy_shedding_is_absorbed_by_client_retry() {
    let _serial = fault_lock();

    let handle = serve(
        "127.0.0.1:0",
        ServiceOptions {
            workers: 1,
            cache_bytes: 0,
            admission: AdmissionConfig {
                watermark: 2,
                per_session: 2,
            },
            ..ServiceOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();
    // After serve: boot re-installs any SPOTNOISE_FAULT env plan, and this
    // test wants a fault-free server (the chaos CI leg exports a plan).
    fault::clear();

    let policy = RetryPolicy {
        attempts: 60,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(100),
    };
    let clients: Vec<_> = (0..8u64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                let session = client
                    .create_session(&session_body(i + 1, 1.0, 32))
                    .expect("create session");
                let fetched = client
                    .fetch_frame_with_retry(&session, 0, policy)
                    .expect("retry loop must eventually land the frame");
                assert_eq!(fetched.frame, 0);
            })
        })
        .collect();
    for c in clients {
        c.join().expect("retrying client panicked");
    }

    // The success above was earned through retries, not an idle queue.
    let mut observer = ServiceClient::connect(addr).expect("connect stats");
    let stats = observer.stats().expect("stats");
    assert!(
        stat(&stats, &["queue", "shed_busy"]) + stat(&stats, &["queue", "shed_session"]) >= 1.0,
        "stampede was never shed — the retry path went unexercised"
    );
    handle.shutdown();
}

/// Satellite (b): a client that walks away mid-chunked-stream must not
/// leave the session pinned. The broken-pipe write is contained, counted
/// in `http.streams_aborted`, the in-flight guard drains, and idle
/// eviction still reaps the abandoned session.
#[test]
fn abandoned_stream_releases_the_session_for_eviction() {
    let _serial = fault_lock();

    let handle = serve(
        "127.0.0.1:0",
        ServiceOptions {
            idle_timeout: Duration::from_millis(300),
            channel_lookahead: 0,
            ..ServiceOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();
    // Cleared after serve so a SPOTNOISE_FAULT env plan cannot leak in.
    fault::clear();

    // 128² f32 frames (64 KiB each): four of them overflow any socket
    // buffer, so the server's writes hit the dead peer for certain.
    let mut creator = ServiceClient::connect(addr).expect("connect");
    let session = creator
        .create_session(&session_body(5, 2.0, 128))
        .expect("create session");

    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    raw.write_all(
        format!("GET /sessions/{session}/stream?from=0&count=4 HTTP/1.1\r\nHost: x\r\n\r\n")
            .as_bytes(),
    )
    .expect("send stream request");
    let mut partial = [0u8; 256];
    let _ = raw.read(&mut partial).expect("read some of the stream");
    drop(raw); // unread data pending: the close turns into an RST

    // The abort is observed asynchronously — poll until the counter moves.
    let abort_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = creator.stats().expect("stats while polling abort");
        if stat(&stats, &["http", "streams_aborted"]) >= 1.0 {
            break;
        }
        assert!(
            Instant::now() < abort_deadline,
            "stream abort was never detected"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Past the idle timeout, the sweep on /stats must evict the session —
    // proof the stream's in-flight guard did not leak.
    std::thread::sleep(Duration::from_millis(400));
    let evict_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = creator.stats().expect("stats while polling eviction");
        if stat(&stats, &["sessions", "evicted"]) >= 1.0 {
            break;
        }
        assert!(
            Instant::now() < evict_deadline,
            "abandoned session was never evicted: its in-flight guard leaked"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(matches!(
        creator.fetch_frame(&session, 0),
        Err(ClientError::NotFound)
    ));
    handle.shutdown();
}

/// The `SPOTNOISE_FAULT` env grammar from the work item parses whole, and
/// a delay-only plan slows the queue without quarantining anything — the
/// degradation ladder's pressure signal, not the panic path.
#[test]
fn env_grammar_delay_fault_pressures_but_never_quarantines() {
    let _serial = fault_lock();

    // The full grammar from the issue text must parse.
    FaultPlan::parse("panic:raster:0.02,delay:queue:5ms").expect("issue example grammar parses");

    let handle = serve(
        "127.0.0.1:0",
        ServiceOptions {
            workers: 2,
            cache_bytes: 0,
            ..ServiceOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();
    fault::install(FaultPlan::parse("delay:queue:2ms").expect("delay plan parses"));

    let mut client = ServiceClient::connect(addr).expect("connect");
    let session = client
        .create_session(&session_body(9, 1.0, 32))
        .expect("create session");
    for frame in 0..3u64 {
        client.fetch_frame(&session, frame).expect("delayed fetch");
    }
    let stats = client.stats().expect("stats");
    assert!(
        stat(&stats, &["faults", "injected_delays"]) >= 1.0,
        "queue delay fault never fired"
    );
    assert_eq!(
        stat(&stats, &["sessions", "quarantined"]),
        0.0,
        "a pure delay plan must not quarantine sessions"
    );
    fault::clear();
    handle.shutdown();
}

/// A job held up by the `"queue"` delay fault reports one wait: the
/// `queue_wait` histogram in `/metrics` and the `queue_wait` span in
/// `/trace` are the same start instant and the same duration, so the two
/// surfaces agree to the microsecond.
#[test]
fn delayed_queue_wait_is_the_same_in_metrics_and_trace() {
    use spotnoise::telemetry::{self, TraceMode};
    let _serial = fault_lock();

    telemetry::force_mode(Some(TraceMode::Ring));
    let handle = serve(
        "127.0.0.1:0",
        ServiceOptions {
            workers: 1,
            cache_bytes: 0,
            ..ServiceOptions::default()
        },
    )
    .expect("bind loopback");
    telemetry::force_mode(None);
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");
    let session = client
        .create_session(&session_body(23, 1.0, 32))
        .expect("create session");
    fault::install(FaultPlan::parse("delay:queue:25ms").expect("delay plan parses"));
    client.fetch_frame(&session, 0).expect("delayed fetch");
    fault::clear();

    let metrics = client.metrics().expect("GET /metrics");
    let series = |name: &str| {
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {name} in /metrics"))
            .parse::<f64>()
            .expect("numeric sample")
    };
    assert_eq!(
        series("spotnoise_queue_wait_us_count"),
        1.0,
        "one queued job"
    );
    let metric_wait = series("spotnoise_queue_wait_us_sum");

    let trace = client.trace(512).expect("GET /trace");
    let spans: Vec<f64> = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("queue_wait"))
        .map(|e| e.get("dur").and_then(Json::as_f64).expect("span dur"))
        .collect();
    assert_eq!(spans, vec![metric_wait], "/trace and /metrics disagree");
    assert!(
        metric_wait >= 25_000.0,
        "the injected 25 ms delay is part of the wait: {metric_wait} us"
    );
    handle.shutdown();
}
