//! The transport-free node core: every piece of service state — session
//! registry, broadcast channels, frame cache, admission queue, pressure
//! gauge, counters and telemetry — plus the synthesis workers that drain
//! the queue. Nothing in this module touches a socket.
//!
//! [`NodeCore`] is the seam the cluster tier is built on: the HTTP layer
//! ([`server`](crate::server)) is a codec/dispatch shell that parses
//! requests and serializes responses, and the [`router`](crate::router)
//! composes many `NodeCore`-backed worker processes behind one front tier.
//! Because the core is transport-free, tests can drive session CRUD, frame
//! fetches and quarantine directly against it and assert bit-identical
//! results to the HTTP path.
//!
//! ## Peer frame-cache lookup
//!
//! Frame-cache keys are stable content hashes of `(field, config, seed,
//! frame)`, so any node can serve any cached frame. A core configured with
//! [`ServiceOptions::peers`] consults its sibling nodes on a local cache
//! miss — one cheap `GET /cache/...` probe per peer — before paying for
//! synthesis, so a hot frame is rendered once cluster-wide and then fans
//! out of whichever cache holds it.

use crate::cache::{FrameCache, FrameKey};
use crate::channel::{ChannelRegistry, ChannelTotals};
use crate::client::ClientPool;
use crate::pressure::{PressureConfig, PressureCounters, PressureGauge, PressureState};
use crate::queue::{AdmissionConfig, AdmissionError, FrameQueue, QueueStats};
use crate::session::{
    format_session_id, InFlightGuard, RegistryError, RegistryStats, RenderError, Session,
    SessionRegistry, SharedPools,
};
use crate::spec::{FieldSpec, SessionSpec};
use crate::stats::{
    count, counter, gauge, latency_json, peak, per_node, state, write_histogram, write_metrics,
    Stat, StatKind, StatsDoc,
};
use softpipe::sync::lock_recover;
use softpipe::{FrameArena, PipePool, PoolStats};
use spotnoise::json::Json;
use spotnoise::metrics::CacheStats;
use spotnoise::telemetry::{
    self, Histogram, HistogramSnapshot, TraceCtx, TraceSink, TraceStage, DEFAULT_TRACE_CAPACITY,
};
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a service instance.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Frame-cache budget in bytes (0 disables caching). Bytes, not
    /// frames: textures up to 2048² (16 MB/frame) are allowed, so an
    /// entry-counted cache could silently hold gigabytes.
    pub cache_bytes: usize,
    /// Admission-control parameters of the frame queue.
    pub admission: AdmissionConfig,
    /// Synthesis worker threads (0 = one per available core).
    pub workers: usize,
    /// Maximum live sessions.
    pub max_sessions: usize,
    /// Sessions idle beyond this are evicted (checked on `/stats` and on
    /// session creation).
    pub idle_timeout: Duration,
    /// Cap on synthesis steps a single frame request may trigger.
    pub max_advances_per_request: u64,
    /// How long a connection waits for its admitted job before giving up.
    /// Tune together with [`max_advances_per_request`](Self::max_advances_per_request)
    /// and the texture sizes you allow: a request near the advance cap on a
    /// large texture can legitimately render longer than this, in which
    /// case the client sees a 500 while the worker still finishes (and
    /// caches) the job.
    pub reply_timeout: Duration,
    /// Frames a shared channel pre-renders past each served request, so the
    /// subscribers behind the frontier-advancing one fan out of the cache.
    pub channel_lookahead: u64,
    /// Cap on frames a single `GET .../stream` request may push (requests
    /// asking for more are clamped).
    pub max_stream_frames: u64,
    /// Deadline applied to frame requests that carry no `X-Deadline-Ms`
    /// header (`None` = no implicit deadline). A request whose remaining
    /// budget is already below the queue's recent p99 wait is shed at
    /// admission with `503` + `Retry-After` instead of queueing to miss.
    pub default_deadline: Option<Duration>,
    /// Thresholds and cadence of the pressure gauge driving the
    /// graceful-degradation ladder.
    pub pressure: PressureConfig,
    /// The node's cluster identity, reported as the `X-Node-Id` response
    /// header and in the `/stats` `node` block. `None` lets
    /// [`serve`](crate::serve) fill in the bound address once it is known.
    pub node_id: Option<String>,
    /// Sibling nodes consulted on a local frame-cache miss before
    /// synthesizing (the peer frame-cache lookup). Empty disables probing.
    pub peers: Vec<SocketAddr>,
    /// Per-probe budget of a peer cache lookup (connect and read); a slow
    /// or dead peer costs at most this before synthesis proceeds locally.
    pub peer_timeout: Duration,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            cache_bytes: 64 << 20,
            admission: AdmissionConfig::default(),
            workers: 0,
            max_sessions: 64,
            idle_timeout: Duration::from_secs(300),
            max_advances_per_request: 512,
            reply_timeout: Duration::from_secs(60),
            channel_lookahead: 2,
            max_stream_frames: 256,
            default_deadline: None,
            pressure: PressureConfig::default(),
            node_id: None,
            peers: Vec::new(),
            peer_timeout: Duration::from_millis(250),
        }
    }
}

/// Service-level failure modes, mapped onto HTTP statuses by the front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The server (or one session's fair share) is saturated; retry later.
    Busy(&'static str),
    /// Unknown session.
    NotFound,
    /// The request itself is invalid.
    BadRequest(String),
    /// The server is shutting down.
    ShuttingDown,
    /// An admitted job was dropped (worker died or timed out).
    Internal(&'static str),
    /// The session was quarantined after a panicked render; its pipeline
    /// state can no longer be trusted. Close it and create a fresh one.
    Quarantined,
    /// The request's deadline cannot be met: either it expired while the
    /// job queued, or the queue's recent p99 wait already exceeds the
    /// remaining budget (shed at admission).
    DeadlineExceeded,
}

/// A served frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// Little-endian `f32` texels, row-major from the bottom row.
    pub bytes: Arc<Vec<u8>>,
    /// The frame index served. Equals the requested index except when a
    /// fallen-behind shared subscriber was skipped to the live frontier.
    pub frame: u64,
    /// Whether the frame came out of the cache.
    pub cached: bool,
    /// Whether the serve skipped a fallen-behind shared subscriber forward
    /// to the channel's live frontier.
    pub skipped: bool,
    /// Whether a saturated server served the channel's cached frontier
    /// frame instead of synthesizing the requested index.
    pub stale: bool,
    /// Whether the frame was rendered under pressure-degraded (footprint)
    /// sampling on a session that asked for exact.
    pub degraded: bool,
    /// Whether the frame came out of a *sibling node's* cache (the peer
    /// frame-cache lookup); implies `cached`.
    pub peer: bool,
}

pub(crate) struct FrameJob {
    frame: u64,
    /// When the job was submitted to the admission queue — the start of the
    /// queue-wait trace span a worker records on pickup.
    submitted: Instant,
    /// The session the frame is rendered on. Carried in the job — the
    /// worker never re-resolves the id through the registry, so an
    /// admitted request renders even if its session is closed or evicted
    /// in the instant between the requester's registry lookup and the
    /// in-flight guard taking effect.
    session: Arc<Mutex<Session>>,
    /// The absolute instant this request stops being worth serving; workers
    /// re-check it when the job comes off the queue.
    deadline: Option<Instant>,
    reply: mpsc::Sender<Result<FrameResult, ServiceError>>,
    /// Holds the session's in-flight count from admission until the worker
    /// has finished (the job is dropped after execution — or on shed —
    /// which releases the guard), so idle eviction cannot reap the session
    /// while this job waits in the queue.
    _guard: InFlightGuard,
}

/// Monotonic service-wide counters (lock-free; written by workers and
/// connection threads). Each one is reported through its row in
/// [`NODE_STATS`], which also says what it counts.
#[derive(Default)]
pub(crate) struct ServiceCounters {
    pub(crate) http_requests: AtomicU64,
    pub(crate) streams_started: AtomicU64,
    pub(crate) frames_streamed: AtomicU64,
    pub(crate) streams_aborted: AtomicU64,
    stale_serves: AtomicU64,
    degraded_serves: AtomicU64,
    deadline_shed: AtomicU64,
    quarantined: AtomicU64,
    pub(crate) panics_caught: AtomicU64,
    peer_hits: AtomicU64,
    peer_misses: AtomicU64,
    peer_errors: AtomicU64,
    peer_serves: AtomicU64,
}

/// Revalidation for a poisoned session lock. Render panics are caught
/// before they can unwind through the guard, so poison here means some
/// other holder died mid-update and the session's state cannot be trusted:
/// quarantine it rather than guess at which fields were half-written.
pub(crate) fn revalidate_session(session: &mut Session) {
    session.quarantine();
}

/// A stage with a latency histogram: its trace stage (whose name keys its
/// `/stats` `latency` block), its Prometheus family and help text (as a
/// registry row carries them), and the `/stats` `frames` field that also
/// reports the histogram's sum.
struct StageStat {
    stage: TraceStage,
    metric: &'static str,
    total: Option<&'static str>,
}

/// The timed stages, in `/stats` and `/metrics` order. The request stage
/// counts every outcome: a shed request's latency is part of the client
/// story.
const STAGES: [StageStat; 6] = [
    StageStat {
        stage: TraceStage::Request,
        metric: "spotnoise_request_duration_us End-to-end frame request latency (all outcomes)",
        total: None,
    },
    StageStat {
        stage: TraceStage::QueueWait,
        metric: "spotnoise_queue_wait_us Admission-to-pop wait in the frame queue",
        total: None,
    },
    StageStat {
        stage: TraceStage::Advect,
        metric: "spotnoise_stage_advect_us Per-frame particle-advection stage time",
        total: Some("advect_us_total"),
    },
    StageStat {
        stage: TraceStage::Synthesize,
        metric: "spotnoise_stage_synthesize_us Per-frame texture-synthesis stage time",
        total: Some("synthesize_us_total"),
    },
    StageStat {
        stage: TraceStage::Render,
        metric: "spotnoise_stage_render_us Per-frame render stage time",
        total: Some("render_us_total"),
    },
    StageStat {
        stage: TraceStage::PipeCheckout,
        metric: "spotnoise_pipe_checkout_wait_us Pipe-pool checkout wait",
        total: None,
    },
];

/// The slot of `stage` in [`STAGES`]. Panics for a stage without a
/// histogram.
fn stage_slot(stage: TraceStage) -> usize {
    STAGES
        .iter()
        .position(|s| s.stage == stage)
        .unwrap_or_else(|| panic!("stage {} has no histogram", stage.name()))
}

/// The service's end-to-end telemetry: one lock-free latency histogram
/// (microseconds) per timed stage, indexed by [`TraceStage`], plus the
/// frame-lifecycle trace sink. Exposed on `/metrics` (Prometheus text),
/// `/trace` (Chrome trace-event JSON) and folded into `/stats` as
/// percentiles.
#[derive(Clone)]
struct ServiceTelemetry {
    histograms: [Arc<Histogram>; STAGES.len()],
    /// The frame-lifecycle trace sink; mode comes from `SPOTNOISE_TRACE`
    /// (`off` by default).
    trace: TraceSink,
}

impl ServiceTelemetry {
    fn new() -> Self {
        ServiceTelemetry {
            histograms: std::array::from_fn(|_| Arc::new(Histogram::new())),
            trace: TraceSink::from_env(DEFAULT_TRACE_CAPACITY),
        }
    }

    /// The latency histogram of `stage`. Panics for a stage without one.
    fn histogram(&self, stage: TraceStage) -> &Arc<Histogram> {
        &self.histograms[stage_slot(stage)]
    }

    /// Records one run of a timed stage: into its histogram, and as a span
    /// when tracing is on.
    fn record(&self, stage: TraceStage, ctx: TraceCtx, start: Instant, dur: Duration, detail: u64) {
        self.histogram(stage).record_duration(dur);
        self.trace.record_with(stage, ctx, start, dur, detail);
    }
}

/// The transport-free state and logic of one synthesis node.
///
/// Owns the session registry, broadcast channels, frame cache, admission
/// queue, pressure gauge, counters and telemetry; synthesis workers started
/// with [`NodeCore::start_workers`] drain the queue. The HTTP front end
/// ([`Service`](crate::Service)) is a thin codec/dispatch shell over this.
pub struct NodeCore {
    pub(crate) options: ServiceOptions,
    pub(crate) registry: Mutex<SessionRegistry>,
    /// Shared-field broadcast channels, keyed by `(field, config, seed)`.
    pub(crate) channels: Mutex<ChannelRegistry>,
    pub(crate) cache: Mutex<FrameCache>,
    pub(crate) queue: FrameQueue<FrameJob>,
    /// Service-wide frame-buffer arena and pipe-worker pool, shared by all
    /// sessions (both size-keyed, so mixed frame sizes never collide).
    pub(crate) pools: SharedPools,
    pub(crate) counters: ServiceCounters,
    telemetry: ServiceTelemetry,
    /// The load sensor behind the degradation ladder, re-evaluated (with
    /// its own throttle) on every frame request and `/healthz` probe.
    pub(crate) pressure: PressureGauge,
    /// Sibling nodes probed on a cache miss: one keep-alive connection
    /// pool per peer.
    peers: Vec<ClientPool>,
    /// The node's cluster identity ([`ServiceOptions::node_id`], or the
    /// bound address once [`serve`](crate::serve) knows it).
    node_id: Mutex<String>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) started: Instant,
}

impl NodeCore {
    /// Creates a node core (no transport attached): the API used by unit
    /// tests and in-process embedding; [`serve`](crate::serve) wraps it in
    /// the HTTP front end.
    pub fn new(options: ServiceOptions) -> Arc<NodeCore> {
        let service_telemetry = ServiceTelemetry::new();
        let arena = Arc::new(FrameArena::new());
        // One persistent-pipe pool for the whole service, sized by the
        // session cap: every admitted session can keep one warm pipe per
        // typical process group.
        let pipes = Arc::new(PipePool::with_capacity(
            Some(Arc::clone(&arena)),
            options.max_sessions.saturating_mul(2).max(8),
        ));
        // Bridge pool checkouts into the checkout histogram and the
        // trace ring (the raster crate cannot depend on telemetry, so
        // the pool exposes a plain observer hook instead).
        let observer = service_telemetry.clone();
        pipes.set_observer(Some(Arc::new(move |reused, wait| {
            let start = Instant::now()
                .checked_sub(wait)
                .unwrap_or_else(Instant::now);
            observer.record(
                TraceStage::PipeCheckout,
                telemetry::ctx(),
                start,
                wait,
                reused as u64,
            );
        })));
        let pools = SharedPools {
            arena: Some(arena),
            pipes: Some(pipes),
            trace: service_telemetry.trace.clone(),
        };
        let queue = FrameQueue::new(options.admission);
        queue.set_wait_histogram(Arc::clone(
            service_telemetry.histogram(TraceStage::QueueWait),
        ));
        let mut cache = FrameCache::new(options.cache_bytes);
        cache.set_trace_sink(service_telemetry.trace.clone());
        let peers = options
            .peers
            .iter()
            .map(|&addr| {
                ClientPool::new(addr)
                    .with_connect_timeout(options.peer_timeout)
                    .with_read_timeout(Some(options.peer_timeout))
            })
            .collect();
        Arc::new(NodeCore {
            registry: Mutex::new(SessionRegistry::with_pools(
                options.max_sessions,
                options.idle_timeout,
                pools.clone(),
            )),
            channels: Mutex::new(ChannelRegistry::new(
                pools.clone(),
                options.channel_lookahead,
            )),
            cache: Mutex::new(cache),
            queue,
            pools,
            counters: ServiceCounters::default(),
            telemetry: service_telemetry,
            pressure: PressureGauge::new(options.pressure),
            peers,
            node_id: Mutex::new(options.node_id.clone().unwrap_or_default()),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            options,
        })
    }

    /// The node's cluster identity (empty until configured or bound).
    pub fn node_id(&self) -> String {
        lock_recover(&self.node_id, |_| {}).clone()
    }

    /// Fills in the node identity if none was configured
    /// ([`serve`](crate::serve) passes the bound address).
    pub fn set_default_node_id(&self, id: &str) {
        let mut node_id = lock_recover(&self.node_id, |_| {});
        if node_id.is_empty() {
            *node_id = id.to_string();
        }
    }

    /// The service-wide pools every session's pipeline composes on.
    pub fn pools(&self) -> &SharedPools {
        &self.pools
    }

    /// The options the service was built with.
    pub fn options(&self) -> &ServiceOptions {
        &self.options
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Starts `n` synthesis workers (0 = one per available core) draining
    /// the admission queue until [`NodeCore::begin_shutdown`] closes it.
    pub fn start_workers(self: &Arc<Self>, n: usize) -> Vec<JoinHandle<()>> {
        let workers = if n > 0 {
            n
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        };
        (0..workers)
            .map(|i| {
                let core = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("synth-worker-{i}"))
                    .spawn(move || core.worker_loop())
                    .expect("spawn worker")
            })
            .collect()
    }

    /// Initiates shutdown of the core: further submissions fail, workers
    /// drain what is queued and exit. The transport layer is responsible
    /// for waking its own accept loop.
    pub fn begin_shutdown(&self) -> bool {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return false;
        }
        self.queue.close();
        true
    }

    /// A session's shared handle, for in-process embedding and tests that
    /// need to reach past the public API (e.g. to quarantine a session the
    /// way a panicked render would).
    pub fn session_handle(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        lock_recover(&self.registry, |_| {}).get(id)
    }

    /// Evicts idle sessions and retires unwatched channels (the sweep
    /// `/stats` performs before reporting).
    pub fn sweep_idle(&self) {
        lock_recover(&self.registry, |_| {}).evict_idle();
        self.sweep_channels();
    }

    /// Creates a session and returns its id. A spec with `shared: true`
    /// subscribes the session to the broadcast channel for its
    /// `(field, config, seed)` — creating the channel if this is its first
    /// viewer — instead of giving it a private pipeline.
    pub fn create_session(&self, spec: SessionSpec) -> Result<u64, ServiceError> {
        if self.is_shutting_down() {
            return Err(ServiceError::ShuttingDown);
        }
        // Subscribe before touching the registry lock (never hold both).
        // Both registries keep every field individually consistent (maps of
        // finished values plus counters), so poison recovery needs no
        // repair beyond clearing the flag.
        let subscription = spec
            .shared
            .then(|| lock_recover(&self.channels, |_| {}).subscribe(&spec));
        let mut registry = lock_recover(&self.registry, |_| {});
        registry.evict_idle();
        let created = match subscription {
            Some(sub) => registry.create_shared(spec, sub),
            None => registry.create(spec),
        };
        drop(registry);
        // Eviction above (and a shed create: `create_shared` drops the
        // subscription on the cap error) may have unsubscribed channels —
        // retire the ones nobody watches any more.
        self.sweep_channels();
        match created {
            Ok((id, _)) => Ok(id),
            Err(RegistryError::TooManySessions) => Err(ServiceError::Busy("sessions")),
        }
    }

    /// Retires broadcast channels with no subscribers left (their counters
    /// fold into the `/stats` totals).
    pub(crate) fn sweep_channels(&self) {
        lock_recover(&self.channels, |_| {}).sweep();
    }

    /// Re-evaluates the pressure gauge against the queue (throttled inside
    /// the gauge) and applies the *elevated* rung: channel look-ahead is
    /// shut off while pressure is non-healthy and restored on recovery.
    /// The saturated rung (stale frontier serves, sampling degradation) is
    /// applied per-request by [`NodeCore::fetch_frame`].
    pub fn pressure_tick(&self) -> PressureState {
        let depth = self.queue.stats().depth;
        let state = self.pressure.evaluate(
            depth,
            self.options.admission.watermark,
            self.telemetry.histogram(TraceStage::QueueWait),
        );
        let desired = if state == PressureState::Healthy {
            self.options.channel_lookahead
        } else {
            0
        };
        let channels = lock_recover(&self.channels, |_| {});
        if channels.lookahead() != desired {
            channels.set_lookahead(desired);
        }
        state
    }

    /// The current pressure state without re-evaluating the gauge.
    pub fn pressure_state(&self) -> PressureState {
        self.pressure.state()
    }

    /// Steers a session to a new field (restarting its animation clock).
    pub fn steer(&self, id: u64, field: FieldSpec) -> Result<(), ServiceError> {
        let session = lock_recover(&self.registry, |_| {})
            .get(id)
            .ok_or(ServiceError::NotFound)?;
        let mut s = lock_recover(&session, revalidate_session);
        if s.is_quarantined() {
            return Err(ServiceError::Quarantined);
        }
        s.steer(field);
        Ok(())
    }

    /// Closes a session (retiring its broadcast channel if it was the last
    /// subscriber).
    pub fn close_session(&self, id: u64) -> Result<(), ServiceError> {
        if lock_recover(&self.registry, |_| {}).close(id) {
            self.sweep_channels();
            Ok(())
        } else {
            Err(ServiceError::NotFound)
        }
    }

    /// Serves a `GET /cache/...` probe from a sibling node: an uncounted
    /// peek of the local frame cache by content-hash key. Never probes
    /// onward — peer lookup is one hop deep by construction, so two nodes
    /// missing the same frame cannot chase each other in a cycle.
    pub fn peer_peek(&self, key: FrameKey) -> Option<Arc<Vec<u8>>> {
        let bytes = lock_recover(&self.cache, FrameCache::revalidate).peek(key)?;
        self.counters.peer_serves.fetch_add(1, Ordering::Relaxed);
        Some(bytes)
    }

    /// Probes the sibling nodes for a frame this node's cache misses.
    /// First hit wins; transport failures are counted and skipped (a dead
    /// peer costs at most [`ServiceOptions::peer_timeout`]).
    fn peer_lookup(&self, key: FrameKey) -> Option<Arc<Vec<u8>>> {
        for peer in &self.peers {
            let mut client = match peer.checkout() {
                Ok(client) => client,
                Err(_) => {
                    self.counters.peer_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            match client.fetch_cached(key) {
                Ok(Some(bytes)) => {
                    self.counters.peer_hits.fetch_add(1, Ordering::Relaxed);
                    self.telemetry.trace.record_with(
                        TraceStage::Deliver,
                        TraceCtx {
                            actor: key.seed,
                            frame: key.frame,
                        },
                        Instant::now(),
                        Duration::ZERO,
                        2, // detail = 2: peer-cache delivery
                    );
                    return Some(Arc::new(bytes));
                }
                Ok(None) => {
                    self.counters.peer_misses.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.counters.peer_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        None
    }

    /// Fetches frame `frame` of session `id`: straight from the cache when
    /// possible, otherwise through the admission queue and a synthesis
    /// worker. Blocks until the frame is ready, the request is shed, or the
    /// reply timeout expires.
    pub fn fetch_frame(&self, id: u64, frame: u64) -> Result<FrameResult, ServiceError> {
        self.fetch_frame_deadline(id, frame, None)
    }

    /// [`NodeCore::fetch_frame`] with an explicit deadline budget in
    /// milliseconds (the `X-Deadline-Ms` header); `None` falls back to
    /// [`ServiceOptions::default_deadline`]. The deadline is enforced at
    /// admission — shed immediately when the queue's recent p99 wait
    /// already exceeds the remaining budget — and re-checked when a worker
    /// picks the job up.
    pub fn fetch_frame_deadline(
        &self,
        id: u64,
        frame: u64,
        deadline_ms: Option<u64>,
    ) -> Result<FrameResult, ServiceError> {
        let start = Instant::now();
        let outcome = self.fetch_frame_inner(id, frame, deadline_ms, start);
        let elapsed = start.elapsed();
        if let Ok(result) = &outcome {
            if result.stale {
                self.counters.stale_serves.fetch_add(1, Ordering::Relaxed);
            }
            if result.degraded {
                self.counters
                    .degraded_serves
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        // detail = 1 marks a failed request.
        self.telemetry.record(
            TraceStage::Request,
            TraceCtx { actor: id, frame },
            start,
            elapsed,
            outcome.is_err() as u64,
        );
        if let Ok(result) = &outcome {
            // detail = 1 marks a cache-served delivery.
            self.telemetry.trace.record_with(
                TraceStage::Deliver,
                TraceCtx {
                    actor: id,
                    frame: result.frame,
                },
                start,
                elapsed,
                result.cached as u64,
            );
        }
        outcome
    }

    fn fetch_frame_inner(
        &self,
        id: u64,
        frame: u64,
        deadline_ms: Option<u64>,
        start: Instant,
    ) -> Result<FrameResult, ServiceError> {
        if self.is_shutting_down() {
            return Err(ServiceError::ShuttingDown);
        }
        let pressure = self.pressure_tick();
        let deadline = deadline_ms
            .map(Duration::from_millis)
            .or(self.options.default_deadline)
            .map(|budget| start + budget);
        let session = lock_recover(&self.registry, |_| {})
            .get(id)
            .ok_or(ServiceError::NotFound)?;
        let (key, guard, queue_id, channel, degraded) = {
            let mut s = lock_recover(&session, revalidate_session);
            if s.is_quarantined() {
                return Err(ServiceError::Quarantined);
            }
            s.touch();
            // The saturated rung of the ladder switches non-pinned exact
            // sessions to footprint sampling; recovery restores them. Both
            // are no-ops on sessions the rung doesn't apply to, and both
            // happen *before* the cache key is computed so degraded frames
            // cache under the footprint key they were rendered with.
            match pressure {
                PressureState::Saturated => {
                    s.degrade();
                }
                PressureState::Healthy => {
                    s.restore();
                }
                PressureState::Elevated => {}
            }
            // A shared session's synthesis jobs queue under its *channel's*
            // id: the channel is one fair peer of the private sessions, no
            // matter how many subscribers it feeds.
            let queue_id = s.channel().map_or(id, |c| c.queue_id());
            // Mark the prospective job in-flight *before* the cache check
            // and submission: from here until the worker finishes, idle
            // eviction must not reap the session.
            (
                s.key_for(frame),
                s.begin_job(),
                queue_id,
                s.channel().cloned(),
                s.is_degraded(),
            )
        };
        if let Some(bytes) = lock_recover(&self.cache, FrameCache::revalidate).lookup(key) {
            let mut s = lock_recover(&session, revalidate_session);
            s.note_served(frame);
            // A cached serve on a shared session is the broadcast fan-out
            // path: count the delivery on its channel.
            if let Some(channel) = s.channel() {
                channel.note_delivered();
            }
            return Ok(FrameResult {
                bytes,
                frame,
                cached: true,
                skipped: false,
                stale: false,
                degraded,
                peer: false,
            });
        }
        // The peer frame-cache lookup: frame keys are stable content
        // hashes, so a sibling that already rendered this frame can serve
        // it without this node synthesizing anything. The fetched bytes
        // are inserted locally so the next request is a plain local hit.
        if !self.peers.is_empty() {
            if let Some(bytes) = self.peer_lookup(key) {
                lock_recover(&self.cache, FrameCache::revalidate).insert_tagged(
                    key,
                    Arc::clone(&bytes),
                    false,
                );
                lock_recover(&session, revalidate_session).note_served(frame);
                return Ok(FrameResult {
                    bytes,
                    frame,
                    cached: true,
                    skipped: false,
                    stale: false,
                    degraded,
                    peer: true,
                });
            }
        }
        // Saturated shared subscribers take the channel's cached frontier
        // frame instead of queueing synthesis: stale, but instant and
        // fan-out-cheap — the first rung before any shed.
        if pressure == PressureState::Saturated {
            if let Some(channel) = &channel {
                if let Some((frontier, bytes)) = channel.latest_frame() {
                    channel.note_delivered();
                    lock_recover(&session, revalidate_session).note_served(frontier);
                    return Ok(FrameResult {
                        bytes,
                        frame: frontier,
                        cached: true,
                        skipped: frontier != frame,
                        stale: true,
                        degraded: false,
                        peer: false,
                    });
                }
            }
        }
        // Deadline admission: a job whose remaining budget is already below
        // the queue's recent p99 wait would almost surely time out in line —
        // shed it now so the client can retry elsewhere/later.
        if let Some(deadline) = deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() || self.pressure.queue_wait_p99() > remaining {
                self.counters.deadline_shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::DeadlineExceeded);
            }
        }
        let (tx, rx) = mpsc::channel();
        match self.queue.submit(
            queue_id,
            FrameJob {
                frame,
                submitted: Instant::now(),
                session: Arc::clone(&session),
                deadline,
                reply: tx,
                _guard: guard,
            },
        ) {
            Ok(()) => {}
            Err(AdmissionError::Busy) => return Err(ServiceError::Busy("queue")),
            Err(AdmissionError::SessionBusy) => return Err(ServiceError::Busy("session")),
            Err(AdmissionError::Closed) => return Err(ServiceError::ShuttingDown),
        }
        let outcome = match rx.recv_timeout(self.options.reply_timeout) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServiceError::Internal("reply timeout")),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServiceError::Internal("job dropped")),
        };
        if let Ok(result) = &outcome {
            // Note the frame actually served (a skipped shared serve lands
            // on the frontier, not the requested index), so `advance`
            // continues from what the client really saw.
            lock_recover(&session, revalidate_session).note_served(result.frame);
        }
        outcome
    }

    /// Like [`NodeCore::fetch_frame`], but retries `Busy` sheds (bounded by
    /// the reply timeout) instead of surfacing them — the streaming
    /// endpoint's loop cannot hand a 503 to a client mid-stream.
    pub(crate) fn fetch_frame_retrying(
        &self,
        id: u64,
        frame: u64,
    ) -> Result<FrameResult, ServiceError> {
        let deadline = Instant::now() + self.options.reply_timeout;
        loop {
            match self.fetch_frame(id, frame) {
                Err(ServiceError::Busy(_)) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                outcome => return outcome,
            }
        }
    }

    /// Renders and returns the session's next frame: the one after the most
    /// recently served frame (rendered or cached), so repeated advances
    /// always progress — even when a rewound index is still in the cache
    /// and serving it never touches the pipeline.
    pub fn advance(&self, id: u64) -> Result<FrameResult, ServiceError> {
        self.advance_deadline(id, None)
    }

    /// [`NodeCore::advance`] with an explicit deadline budget (the
    /// `X-Deadline-Ms` header), enforced like
    /// [`NodeCore::fetch_frame_deadline`].
    pub fn advance_deadline(
        &self,
        id: u64,
        deadline_ms: Option<u64>,
    ) -> Result<FrameResult, ServiceError> {
        let session = lock_recover(&self.registry, |_| {})
            .get(id)
            .ok_or(ServiceError::NotFound)?;
        let next = lock_recover(&session, revalidate_session).next_advance();
        self.fetch_frame_deadline(id, next, deadline_ms)
    }

    /// One synthesis worker: drains the queue until it closes. The loop is
    /// panic-contained twice over: `execute` catches render panics itself
    /// (quarantining the session), and a panic escaping anywhere else in
    /// the iteration — e.g. an injected fault in the queue — is caught here
    /// so the worker survives; the affected requester sees `Internal` when
    /// its reply sender drops.
    pub fn worker_loop(&self) {
        loop {
            let popped = match std::panic::catch_unwind(AssertUnwindSafe(|| self.queue.pop())) {
                Ok(popped) => popped,
                Err(_) => {
                    self.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            let Some((queue_sid, job)) = popped else {
                break;
            };
            let outcome = self.execute(queue_sid, &job);
            // A hung-up client (timeout, disconnect) makes send fail; the
            // work is already done and cached, so that is not an error.
            let _ = job.reply.send(outcome);
            self.queue.complete();
        }
    }

    fn execute(&self, queue_sid: u64, job: &FrameJob) -> Result<FrameResult, ServiceError> {
        // Every span this job's synthesis emits carries the queue id (the
        // session id, or the channel id for shared sessions) as its actor.
        let ctx = TraceCtx {
            actor: queue_sid,
            frame: job.frame,
        };
        let _trace_ctx = telemetry::set_ctx(ctx);
        self.telemetry.trace.record_with(
            TraceStage::QueueWait,
            ctx,
            job.submitted,
            job.submitted.elapsed(),
            0,
        );
        // The deadline is re-checked now that the queue wait is behind us:
        // a job that expired in line is dropped before any synthesis.
        if let Some(deadline) = job.deadline {
            if Instant::now() > deadline {
                self.counters.deadline_shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::DeadlineExceeded);
            }
        }
        // The job carries its session handle; no registry re-lookup, so an
        // admitted request can never turn into a spurious NotFound however
        // the registry changed while the job was queued.
        let mut s = lock_recover(&job.session, revalidate_session);
        if s.is_quarantined() {
            return Err(ServiceError::Quarantined);
        }
        // Re-check the cache: a racing request for the same frame may have
        // rendered it while this job queued.
        let key = s.key_for(job.frame);
        let degraded = s.is_degraded();
        if let Some(bytes) = lock_recover(&self.cache, FrameCache::revalidate).peek(key) {
            // For shared sessions this is the common fan-out case: the
            // channel (driven by a racing subscriber) rendered the frame
            // while this job queued. Count the delivery.
            if let Some(channel) = s.channel() {
                channel.note_delivered();
            }
            return Ok(FrameResult {
                bytes,
                frame: job.frame,
                cached: true,
                skipped: false,
                stale: false,
                degraded,
                peer: false,
            });
        }
        // Render under catch_unwind: the session guard lives *outside* the
        // closure, so a panicking render never unwinds through it (no
        // poison) and the session can be quarantined right here — this
        // request answers 500, every other session keeps serving.
        let rendered = std::panic::catch_unwind(AssertUnwindSafe(|| {
            s.render_frame(
                job.frame,
                self.options.max_advances_per_request,
                |frame_key, bytes, timings| {
                    // These histograms also carry the `/stats` frame count
                    // and stage totals.
                    let t = &self.telemetry;
                    t.histogram(TraceStage::Advect).record(timings.advect_us);
                    t.histogram(TraceStage::Synthesize)
                        .record(timings.synthesize_us);
                    t.histogram(TraceStage::Render).record(timings.render_us);
                    // Frames below the requested index were rendered on the way
                    // there: count them as look-ahead insertions so /stats shows
                    // how much future-serving work the request banked.
                    let lookahead = frame_key.frame != job.frame;
                    lock_recover(&self.cache, FrameCache::revalidate).insert_tagged(
                        frame_key,
                        Arc::clone(bytes),
                        lookahead,
                    );
                },
            )
        }));
        let rendered = match rendered {
            Ok(rendered) => rendered,
            Err(_) => {
                self.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                if s.quarantine() {
                    self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                return Err(ServiceError::Internal(
                    "render panicked; session quarantined",
                ));
            }
        };
        match rendered {
            Ok(served) => Ok(FrameResult {
                bytes: served.bytes,
                frame: served.frame,
                cached: false,
                skipped: served.skipped,
                stale: false,
                degraded,
                peer: false,
            }),
            Err(RenderError::TooFarAhead { needed, max }) => Err(ServiceError::BadRequest(
                format!("frame needs {needed} synthesis steps, above the per-request cap of {max}"),
            )),
        }
    }

    /// The `/stats` document: every registry row and stage histogram over
    /// one snapshot of the node, plus its identity, its session ids and
    /// per-session detail. Every subsystem is snapshotted exactly once
    /// (one lock or atomic load per counter), so each block is internally
    /// consistent — no torn multi-counter reads within a subsystem. The
    /// router's cluster rollup sums, maxes or skips each field by its
    /// row's kind.
    pub fn stats_json(&self) -> Json {
        let view = NodeView::new(self);
        let mut doc = StatsDoc::default();
        doc.put("", "schema", Json::str("spotnoise_service_stats/v1"));
        doc.put("node", "id", Json::str(self.node_id()));
        doc.put_rows(NODE_STATS, |read| read(&view));
        let ids = view
            .sessions
            .iter()
            .map(|(id, _)| Json::str(format_session_id(*id)));
        doc.put("sessions", "ids", Json::array(ids));
        doc.put("pipes", "pooled", Json::Bool(self.pools.pipes.is_some()));
        for (stage, snap) in STAGES.iter().zip(&view.stages) {
            if let Some(total) = stage.total {
                doc.put("frames", total, Json::num(snap.sum as f64));
            }
            doc.put("latency", stage.stage.name(), latency_json(snap));
        }
        let per_session = view
            .sessions
            .iter()
            .map(|(id, handle)| match handle.try_lock() {
                Ok(s) => {
                    let totals = s.stage_totals();
                    Json::object([
                        ("session", Json::str(format_session_id(*id))),
                        ("shared", Json::Bool(s.is_shared())),
                        ("frames_rendered", Json::num(s.frames_rendered() as f64)),
                        ("head_frame", Json::num(s.head_frame() as f64)),
                        ("rewinds", Json::num(s.rewinds() as f64)),
                        ("steers", Json::num(s.steers() as f64)),
                        ("in_flight", Json::num(s.in_flight() as f64)),
                        (
                            "stage_us",
                            Json::object([
                                ("advect", Json::num(totals.advect_us as f64)),
                                ("synthesize", Json::num(totals.synthesize_us as f64)),
                                ("render", Json::num(totals.render_us as f64)),
                            ]),
                        ),
                    ])
                }
                // A session mid-render holds its lock; report it busy rather
                // than stalling /stats behind synthesis.
                Err(_) => Json::object([
                    ("session", Json::str(format_session_id(*id))),
                    ("busy", Json::Bool(true)),
                ]),
            });
        doc.put("", "per_session", Json::array(per_session));
        doc.into_json()
    }

    /// The `/metrics` document: Prometheus text exposition of the stage
    /// histograms and every counter, gauge and peak of the registry.
    pub fn metrics_text(&self) -> String {
        let view = NodeView::new(self);
        let mut out = String::with_capacity(8192);
        for (stage, snap) in STAGES.iter().zip(&view.stages) {
            write_histogram(&mut out, stage.metric, snap);
        }
        write_metrics(&mut out, NODE_STATS, |read| read(&view));
        out
    }

    /// The `/trace` document: the newest `last` spans of the trace ring as
    /// Chrome trace-event JSON (load into `chrome://tracing` or Perfetto).
    /// The `tid` lane is the span's actor (session or channel queue id).
    pub fn trace_json(&self, last: usize) -> Json {
        let events = self.telemetry.trace.recent(last);
        Json::object([
            ("displayTimeUnit", Json::str("ms")),
            ("enabled", Json::Bool(self.telemetry.trace.is_enabled())),
            (
                "recorded",
                Json::num(self.telemetry.trace.recorded() as f64),
            ),
            (
                "traceEvents",
                Json::array(events.iter().map(|e| {
                    Json::object([
                        ("name", Json::str(e.stage.name())),
                        ("cat", Json::str("spotnoise")),
                        ("ph", Json::str("X")),
                        ("ts", Json::num(e.start_us as f64)),
                        ("dur", Json::num(e.dur_us as f64)),
                        ("pid", Json::num(1.0)),
                        ("tid", Json::num(e.actor as f64)),
                        (
                            "args",
                            Json::object([
                                ("frame", Json::num(e.frame as f64)),
                                ("detail", Json::num(e.detail as f64)),
                            ]),
                        ),
                    ])
                })),
            ),
        ])
    }
}

/// One read of every subsystem a `/stats` or `/metrics` document reports:
/// each lock is taken once, so the values of one subsystem are mutually
/// consistent. Counters are single atomics, read by their rows.
struct NodeView<'a> {
    core: &'a NodeCore,
    registry: RegistryStats,
    /// The live sessions, by id.
    sessions: Vec<(u64, Arc<Mutex<Session>>)>,
    cache_entries: usize,
    cache_bytes: usize,
    cache_capacity: usize,
    cache: CacheStats,
    channels: ChannelTotals,
    queue: QueueStats,
    pressure: PressureCounters,
    pipes: PoolStats,
    /// One snapshot per stage histogram, in [`STAGES`] order.
    stages: [HistogramSnapshot; STAGES.len()],
}

impl<'a> NodeView<'a> {
    fn new(core: &'a NodeCore) -> Self {
        let registry = lock_recover(&core.registry, |_| {});
        let sessions = registry
            .ids()
            .into_iter()
            .filter_map(|id| registry.get(id).map(|handle| (id, handle)))
            .collect();
        let registry_stats = registry.stats();
        drop(registry);
        let cache = lock_recover(&core.cache, FrameCache::revalidate);
        let (cache_entries, cache_bytes, cache_capacity, cache_stats) = (
            cache.len(),
            cache.bytes(),
            cache.capacity_bytes(),
            cache.stats(),
        );
        drop(cache);
        NodeView {
            core,
            registry: registry_stats,
            sessions,
            cache_entries,
            cache_bytes,
            cache_capacity,
            cache: cache_stats,
            channels: lock_recover(&core.channels, |_| {}).totals(),
            queue: core.queue.stats(),
            pressure: core.pressure.counters(),
            pipes: core
                .pools
                .pipes
                .as_ref()
                .map(|p| p.stats())
                .unwrap_or_default(),
            stages: core.telemetry.histograms.each_ref().map(|h| h.snapshot()),
        }
    }

    fn stage(&self, stage: TraceStage) -> &HistogramSnapshot {
        &self.stages[stage_slot(stage)]
    }
}

type NodeRead = fn(&NodeView<'_>) -> f64;

/// Every counter, gauge, peak and ratio a node reports, one row each (see
/// [`crate::stats`]). `/stats`, `/metrics` and the cluster rollup are
/// generated from these rows and [`STAGES`].
static NODE_STATS: &[Stat<NodeRead>] = &[
    peak(
        "uptime_seconds",
        "spotnoise_uptime_seconds Seconds since service start",
        |v| v.core.started.elapsed().as_secs_f64(),
    ),
    per_node("node.peers", |v| v.core.peers.len() as f64),
    counter(
        "cluster.peer_hits",
        "spotnoise_peer_cache_hits_total Local misses served out of a sibling node's cache",
        |v| count(&v.core.counters.peer_hits),
    ),
    counter(
        "cluster.peer_misses",
        "spotnoise_peer_cache_misses_total Peer probes that found the frame cached nowhere",
        |v| count(&v.core.counters.peer_misses),
    ),
    counter(
        "cluster.peer_errors",
        "spotnoise_peer_cache_errors_total Peer probes that failed at the transport",
        |v| count(&v.core.counters.peer_errors),
    ),
    counter(
        "cluster.peer_serves",
        "spotnoise_peer_cache_serves_total Cache entries served to probing sibling nodes",
        |v| count(&v.core.counters.peer_serves),
    ),
    gauge(
        "sessions.live",
        "spotnoise_sessions_live Sessions currently live",
        |v| v.registry.live as f64,
    ),
    counter(
        "sessions.created",
        "spotnoise_sessions_created_total Sessions ever created",
        |v| v.registry.created as f64,
    ),
    counter(
        "sessions.evicted",
        "spotnoise_sessions_evicted_total Sessions removed by idle eviction",
        |v| v.registry.evicted as f64,
    ),
    counter(
        "sessions.closed",
        "spotnoise_sessions_closed_total Sessions closed by clients",
        |v| v.registry.closed as f64,
    ),
    counter(
        "sessions.quarantined",
        "spotnoise_sessions_quarantined_total Sessions quarantined after a panicked render",
        |v| count(&v.core.counters.quarantined),
    ),
    gauge(
        "sessions.capacity",
        "spotnoise_sessions_capacity Maximum live sessions",
        |v| v.core.options.max_sessions as f64,
    ),
    counter(
        "frames.rendered",
        "spotnoise_frames_rendered_total Frames synthesized",
        |v| v.stage(TraceStage::Synthesize).count as f64,
    ),
    per_node("frames.mean_synthesize_us", |v| {
        v.stage(TraceStage::Synthesize).mean()
    }),
    gauge(
        "channels.live",
        "spotnoise_channels_live Broadcast channels live",
        |v| v.channels.live as f64,
    ),
    counter(
        "channels.created",
        "spotnoise_channels_created_total Broadcast channels ever created",
        |v| v.channels.created as f64,
    ),
    gauge(
        "channels.subscribers",
        "spotnoise_channels_subscribers Subscribers across live channels",
        |v| v.channels.subscribers as f64,
    ),
    peak(
        "channels.peak_subscribers",
        "spotnoise_channels_peak_subscribers Highest subscriber count any single channel reached",
        |v| v.channels.peak_subscribers as f64,
    ),
    counter(
        "channels.delivered",
        "spotnoise_channels_delivered_total Frames delivered to channel subscribers",
        |v| v.channels.delivered as f64,
    ),
    counter(
        "channels.synthesized",
        "spotnoise_channels_synthesized_total Frames synthesized on channel clocks",
        |v| v.channels.synthesized as f64,
    ),
    counter(
        "channels.skips",
        "spotnoise_channels_skips_total Fallen-behind serves skipped to the frontier",
        |v| v.channels.skips as f64,
    ),
    per_node("channels.delivery_ratio", |v| {
        match v.channels.synthesized {
            0 => 0.0,
            synthesized => v.channels.delivered as f64 / synthesized as f64,
        }
    }),
    gauge(
        "cache.entries",
        "spotnoise_cache_entries Cached frames",
        |v| v.cache_entries as f64,
    ),
    gauge(
        "cache.bytes",
        "spotnoise_cache_bytes Bytes held by the frame cache",
        |v| v.cache_bytes as f64,
    ),
    gauge(
        "cache.capacity_bytes",
        "spotnoise_cache_capacity_bytes Byte budget of the frame cache",
        |v| v.cache_capacity as f64,
    ),
    counter("cache.hits", "spotnoise_cache_hits_total Cache hits", |v| {
        v.cache.hits as f64
    }),
    counter(
        "cache.misses",
        "spotnoise_cache_misses_total Cache misses",
        |v| v.cache.misses as f64,
    ),
    counter(
        "cache.insertions",
        "spotnoise_cache_insertions_total Cache insertions",
        |v| v.cache.insertions as f64,
    ),
    counter(
        "cache.inserted_lookahead",
        "spotnoise_cache_inserted_lookahead_total Look-ahead cache insertions",
        |v| v.cache.inserted_lookahead as f64,
    ),
    counter(
        "cache.evictions",
        "spotnoise_cache_evictions_total Cache LRU evictions",
        |v| v.cache.evictions as f64,
    ),
    per_node("cache.hit_rate", |v| v.cache.hit_rate()),
    gauge(
        "queue.depth",
        "spotnoise_queue_depth Jobs waiting in the frame queue",
        |v| v.queue.depth as f64,
    ),
    peak(
        "queue.peak_depth",
        "spotnoise_queue_peak_depth Highest queue depth observed",
        |v| v.queue.peak_depth as f64,
    ),
    per_node("queue.watermark", |v| {
        v.core.options.admission.watermark as f64
    }),
    per_node("queue.per_session_cap", |v| {
        v.core.options.admission.per_session as f64
    }),
    counter(
        "queue.accepted",
        "spotnoise_queue_accepted_total Jobs admitted",
        |v| v.queue.accepted as f64,
    ),
    counter(
        "queue.shed_busy",
        "spotnoise_queue_shed_busy_total Submissions shed at the watermark",
        |v| v.queue.shed_busy as f64,
    ),
    counter(
        "queue.shed_session",
        "spotnoise_queue_shed_session_total Submissions shed at the per-session cap",
        |v| v.queue.shed_session as f64,
    ),
    counter(
        "queue.completed",
        "spotnoise_queue_completed_total Jobs fully executed",
        |v| v.queue.completed as f64,
    ),
    state(
        "pressure.state",
        "spotnoise_pressure_state Pressure ladder state (0 healthy, 1 elevated, 2 saturated)",
        &PressureState::NAMES,
        |v| v.core.pressure.state() as u8 as f64,
    ),
    counter(
        "pressure.entered_elevated",
        "spotnoise_pressure_entered_elevated_total Transitions into the elevated pressure state",
        |v| v.pressure.entered_elevated as f64,
    ),
    counter(
        "pressure.entered_saturated",
        "spotnoise_pressure_entered_saturated_total Transitions into the saturated pressure state",
        |v| v.pressure.entered_saturated as f64,
    ),
    counter(
        "pressure.recovered",
        "spotnoise_pressure_recovered_total Pressure de-escalations back down the ladder",
        |v| v.pressure.recovered as f64,
    ),
    counter(
        "pressure.stale_serves",
        "spotnoise_stale_serves_total Saturated serves answered with the cached channel frontier",
        |v| count(&v.core.counters.stale_serves),
    ),
    counter(
        "pressure.degraded_serves",
        "spotnoise_degraded_serves_total Frames served under pressure-degraded footprint sampling",
        |v| count(&v.core.counters.degraded_serves),
    ),
    counter(
        "pressure.deadline_shed",
        "spotnoise_deadline_shed_total Requests shed or dropped for missing their deadline",
        |v| count(&v.core.counters.deadline_shed),
    ),
    counter(
        "faults.panics_caught",
        "spotnoise_panics_caught_total Panics contained by the service's unwind barriers",
        |v| count(&v.core.counters.panics_caught),
    ),
    counter(
        "faults.lock_recoveries",
        "spotnoise_lock_recoveries_total Poisoned locks recovered and revalidated",
        |_| softpipe::sync::recoveries() as f64,
    ),
    counter(
        "faults.injected_panics",
        "spotnoise_fault_injected_panics_total Panics injected by the fault plan",
        |_| softpipe::fault::injected_panics() as f64,
    ),
    counter(
        "faults.injected_delays",
        "spotnoise_fault_injected_delays_total Delays injected by the fault plan",
        |_| softpipe::fault::injected_delays() as f64,
    ),
    counter(
        "pipes.spawned",
        "spotnoise_pipes_spawned_total Pipe workers spawned",
        |v| v.pipes.spawned as f64,
    ),
    counter(
        "pipes.reused",
        "spotnoise_pipes_reused_total Checkouts served by a shelved worker",
        |v| v.pipes.reused as f64,
    ),
    counter(
        "pipes.retired",
        "spotnoise_pipes_retired_total Returned pipes dropped at capacity",
        |v| v.pipes.retired as f64,
    ),
    counter(
        "pipes.discarded",
        "spotnoise_pipes_discarded_total Poisoned pipes discarded instead of reshelved",
        |v| v.pipes.discarded as f64,
    ),
    gauge(
        "pipes.idle",
        "spotnoise_pipes_idle Idle pipes currently shelved",
        |v| v.pipes.idle as f64,
    ),
    counter(
        "http.requests",
        "spotnoise_http_requests_total HTTP requests handled",
        |v| count(&v.core.counters.http_requests),
    ),
    counter(
        "http.streams",
        "spotnoise_streams_started_total Frame streams started",
        |v| count(&v.core.counters.streams_started),
    ),
    counter(
        "http.streamed_frames",
        "spotnoise_frames_streamed_total Frames pushed over streams",
        |v| count(&v.core.counters.frames_streamed),
    ),
    counter(
        "http.streams_aborted",
        "spotnoise_streams_aborted_total Streams cut short by a client disconnect mid-write",
        |v| count(&v.core.counters.streams_aborted),
    ),
    counter(
        "trace.recorded",
        "spotnoise_trace_recorded_total Trace spans recorded",
        |v| v.core.telemetry.trace.recorded() as f64,
    ),
];

/// The registry kind of a field of a node's `/stats` document: its row's,
/// or a counter for a stage total. `None` for what no row declares
/// (identity, id lists, flags).
pub(crate) fn stat_kind(section: &str, field: &str) -> Option<StatKind> {
    if section == "frames" && STAGES.iter().any(|s| s.total == Some(field)) {
        return Some(StatKind::Counter);
    }
    NODE_STATS
        .iter()
        .find(|row| row.section_field() == (section, field))
        .map(|row| row.kind)
}
