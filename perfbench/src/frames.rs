//! The two closed-loop frame workloads, `smog_steer` and `dns_browse`: one
//! caller thread that waits for each texture, as a steering or browsing
//! user does.
//!
//! The untraced run times `read + Pipeline::advance` per frame. The traced
//! run instead calls `Pipeline::advance`'s constituents itself —
//! `SpotAnimator::advance`, `synthesize_dnc_with_telemetry` on its own
//! context, arena and pool, then `standard_postprocess` — so each layer is
//! timed from outside, and outside the frame span it replays spot shaping,
//! rasterization and the gather serially on the same inputs.

use crate::plan::{self, BrowsePath};
use crate::report::Report;
use crate::stats::{self, median, ms, percentile};
use crate::trace::{self, Recorder};
use flowfield::grid::RegularGrid;
use flowsim::{record_dns_run, DataBrowser, DnsConfig, DnsSolver, SmogModel, SteeringQueue};
use softpipe::machine::MachineConfig;
use softpipe::pipe::{PipeCore, RenderCommand};
use softpipe::{gather_additive, FrameArena, PipePool, Texture};
use spotnoise::advect::{PositionMode, SpotAnimator};
use spotnoise::config::{SpotKind, SynthesisConfig};
use spotnoise::dnc::synthesize_dnc_with_telemetry;
use spotnoise::filter::standard_postprocess;
use spotnoise::partition::partition_round_robin;
use spotnoise::pipeline::{ExecutionMode, Pipeline};
use spotnoise::scheduler::SchedulerOptions;
use spotnoise::spot::Spot;
use spotnoise::synth::{job_commands, preamble_commands, synthesize_sequential, SynthesisContext};
use spotnoise::telemetry::TraceSink;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames the untraced loop runs at least, so p90 has 10 samples beyond it.
pub const MIN_FRAMES: usize = 100;
/// Frames the traced loop runs at least.
const MIN_TRACED_FRAMES: usize = 40;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Mean texel difference allowed between the parallel and the sequential
/// synthesis (the tolerance of the workspace's equivalence tests).
const SEQUENTIAL_TOLERANCE: f64 = 1e-4;
/// The traced run replays every `REPLAY_EVERY`-th frame serially and checks
/// every `IDENTITY_EVERY`-th frame against `Pipeline::advance`.
const REPLAY_EVERY: u64 = 4;
const IDENTITY_EVERY: u64 = 8;

/// Which application produces the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Smog,
    Dns,
}

/// The machine every frame workload synthesizes on: 2 processors, 2 pipes.
fn machine() -> MachineConfig {
    MachineConfig::new(2, 2)
}

impl App {
    pub fn name(self) -> &'static str {
        match self {
            App::Smog => "smog_steer",
            App::Dns => "dns_browse",
        }
    }

    /// The synthesis configuration of the matching example program.
    fn config(self) -> SynthesisConfig {
        match self {
            App::Smog => SynthesisConfig {
                texture_size: 256,
                spot_count: 1200,
                spot_kind: SpotKind::Bent { rows: 12, cols: 7 },
                ..SynthesisConfig::atmospheric_paper()
            },
            App::Dns => SynthesisConfig {
                texture_size: 256,
                spot_count: 5000,
                spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
                ..SynthesisConfig::turbulence_paper()
            },
        }
    }

    fn dt(self) -> f64 {
        0.2
    }
}

/// The application side of pipeline step 1.
enum Source {
    Smog {
        model: SmogModel,
        steering: SteeringQueue,
        seed: u64,
    },
    Dns {
        browser: DataBrowser,
        path: BrowsePath,
        current: RegularGrid,
    },
}

impl Source {
    fn new(app: App, seed: u64) -> Self {
        match app {
            App::Smog => {
                let mut model = SmogModel::paper_resolution(1997);
                for _ in 0..5 {
                    model.step(app.dt());
                }
                Source::Smog {
                    model,
                    steering: SteeringQueue::new(),
                    seed,
                }
            }
            App::Dns => {
                let mut solver = DnsSolver::new(DnsConfig::small_test());
                for _ in 0..120 {
                    solver.step(0.02);
                }
                let mut browser = DataBrowser::in_memory();
                record_dns_run(&mut solver, &mut browser, 24, 10, 0.02)
                    .expect("in-memory recording cannot fail");
                let current = browser.load(0).expect("slice 0 was recorded");
                Source::Dns {
                    path: BrowsePath::new(seed, browser.len()),
                    browser,
                    current,
                }
            }
        }
    }

    /// Step 1 of frame `frame`: apply the steering command due and step the
    /// simulation, or load the next slice of the browse path.
    fn read(&mut self, frame: u64) {
        match self {
            Source::Smog {
                model,
                steering,
                seed,
            } => {
                if let Some(cmd) = plan::steering_command(*seed, frame) {
                    steering.push(cmd);
                    let params = steering.apply_all(*model.params());
                    model.set_params(params);
                }
                model.step(App::Smog.dt());
            }
            Source::Dns {
                browser,
                path,
                current,
            } => {
                let (index, _) = path.step();
                *current = browser.load(index).expect("recorded slice");
            }
        }
    }

    fn field(&self) -> &RegularGrid {
        match self {
            Source::Smog { model, .. } => model.wind_field(),
            Source::Dns { current, .. } => current,
        }
    }
}

fn new_pipeline(app: App, source: &Source) -> Pipeline {
    Pipeline::new(
        app.config(),
        ExecutionMode::DivideAndConquer(machine()),
        source.field().domain(),
    )
}

/// Builds the application and the pipeline and renders the warm-up frame
/// (frame 0), `SETUPS` times; returns the last state and the median time.
fn set_up(app: App, seed: u64) -> (Source, Pipeline, Vec<f64>) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let start = Instant::now();
        let mut source = Source::new(app, seed);
        let mut pipeline = new_pipeline(app, &source);
        source.read(0);
        drop(pipeline.advance(source.field(), app.dt(), 0));
        times.push(start.elapsed().as_secs_f64());
        state = Some((source, pipeline));
    }
    let (source, pipeline) = state.expect("at least one set-up");
    (source, pipeline, times)
}

/// A frame kept for the sequential check.
struct Sample {
    frame: u64,
    field: RegularGrid,
    spots: Vec<Spot>,
    texture: Texture,
}

/// Frames of `Pipeline::advance` until `seconds` have passed and at least
/// `min_frames` ran; returns per-frame ms, the loop's wall seconds (without
/// sample capture) and the captured samples.
fn untraced_loop(
    app: App,
    source: &mut Source,
    pipeline: &mut Pipeline,
    first_frame: u64,
    seconds: f64,
    min_frames: usize,
    sample_at: &[usize],
) -> (Vec<f64>, f64, Vec<Sample>) {
    let mut frame_ms = Vec::new();
    let mut samples = Vec::new();
    let mut excluded = Duration::ZERO;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while frame_ms.len() < min_frames || start.elapsed() - excluded < budget {
        let frame = first_frame + frame_ms.len() as u64;
        let t0 = Instant::now();
        source.read(frame);
        let read_us = t0.elapsed().as_micros() as u64;
        let out = pipeline.advance(source.field(), app.dt(), read_us);
        let keep = sample_at.contains(&frame_ms.len());
        let texture = keep.then(|| out.texture.clone());
        drop(out);
        let t1 = Instant::now();
        frame_ms.push(ms(t1 - t0));
        if let Some(texture) = texture {
            samples.push(Sample {
                frame,
                field: source.field().clone(),
                spots: pipeline.animator_mut().spots(),
                texture,
            });
            excluded += t1.elapsed();
        }
    }
    let wall = (start.elapsed() - excluded).as_secs_f64();
    (frame_ms, wall, samples)
}

fn mean_texel_difference(a: &Texture, b: &Texture) -> f64 {
    a.absolute_difference(b) / (a.width() * a.height()) as f64
}

/// Checks sampled frames against `synthesize_sequential` on the same spots
/// and field: an independent path (one processor, one synchronous pipe, no
/// scheduler, pool, arena or gather).
fn check_sequential(report: &mut Report, app: App, samples: &[Sample]) {
    let cfg = app.config();
    for s in samples {
        let seq = synthesize_sequential(&s.field, &s.spots, &cfg);
        let diff = mean_texel_difference(&s.texture, &seq.texture);
        report.check(diff < SEQUENTIAL_TOLERANCE, || {
            format!(
                "{} frame {}: mean texel difference {diff:e} from synthesize_sequential",
                app.name(),
                s.frame
            )
        });
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(app: App, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let (mut source, mut pipeline, setups) = set_up(app, seed);
    report.set("setup_s", median(&setups).unwrap_or(0.0), setups.len());

    let sample_at = [0, MIN_FRAMES / 2, MIN_FRAMES - 1];
    let (frame_ms, wall, samples) = untraced_loop(
        app,
        &mut source,
        &mut pipeline,
        1,
        seconds,
        MIN_FRAMES,
        &sample_at,
    );
    let n = frame_ms.len();
    assert!(stats::highest_supported_percentile(n) >= Some(90));
    report.set("textures_per_s", n as f64 / wall, n);
    report.set(
        "latency_ms.p50",
        percentile(&frame_ms, 50.0).unwrap_or(0.0),
        n,
    );
    report.set(
        "latency_ms.p10",
        percentile(&frame_ms, 10.0).unwrap_or(0.0),
        n,
    );
    report.set(
        "frame_ms.p90",
        percentile(&frame_ms, 90.0).unwrap_or(0.0),
        n,
    );
    report.attempted = n as u64;

    check_sequential(&mut report, app, &samples);
    report.attempted += samples.len() as u64;
    report.set("peak_rss_mb", trace::peak_rss_mb().unwrap_or(0.0), 1);
    report
}

/// Per-frame numbers of the traced loop.
#[derive(Default)]
struct Ledger {
    untraced_frame_ms: Vec<f64>,
    frame_ms: Vec<f64>,
    forks_per_frame: Vec<f64>,
    group_wall_max_ms: Vec<f64>,
    group_imbalance: Vec<f64>,
    tail_ms: Vec<f64>,
    shape_ms: Vec<f64>,
    raster_ms: Vec<f64>,
    gather_ms: Vec<f64>,
    streamline_steps: Vec<f64>,
    mesh_vertices: Vec<f64>,
    fragments: Vec<f64>,
    mfrag_per_s: Vec<f64>,
    gather_texels: Vec<f64>,
    speedup: Vec<f64>,
}

/// The serial replay of one frame's synthesis: shape every spot, rasterize
/// each group's spots on its own pipe, gather the partials — the three
/// terms of eq 2.1/3.2, timed one after the other.
fn replay(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    frame: u64,
    field: &RegularGrid,
    spots: &[Spot],
    ctx: &SynthesisContext,
    cfg: &SynthesisConfig,
) -> Texture {
    let groups = partition_round_robin(spots, machine().groups());
    let (jobs, shape) = rec.time("replay.shape", None, frame, || {
        groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|s| ctx.build_job(field, s, cfg))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    let mut work = softpipe::CpuWork::default();
    for job in jobs.iter().flatten() {
        work.merge(&job.cpu_work);
    }
    let preamble = preamble_commands(ctx);
    let commands: Vec<Vec<RenderCommand>> = jobs
        .into_iter()
        .map(|g| {
            let mut cmds = vec![RenderCommand::Clear];
            cmds.extend(preamble.iter().cloned());
            cmds.extend(g.into_iter().flat_map(job_commands));
            cmds
        })
        .collect();
    let mut cores: Vec<PipeCore> = commands
        .iter()
        .map(|_| PipeCore::new(cfg.texture_size, cfg.texture_size))
        .collect();
    let (outputs, raster) = rec.time("replay.raster", None, frame, || {
        cores
            .iter_mut()
            .zip(commands)
            .map(|(core, cmds)| {
                for cmd in cmds {
                    core.execute(cmd);
                }
                core.finish()
            })
            .collect::<Vec<_>>()
    });
    let fragments: u64 = outputs.iter().map(|o| o.raster.fragments).sum();
    let partials: Vec<Texture> = outputs.into_iter().map(|o| o.texture).collect();
    let (composed, gather) = rec.time("replay.gather", None, frame, || gather_additive(&partials));
    let spans = rec.spans();
    let (shape_ms, raster_ms, gather_ms) =
        (spans[shape].ms(), spans[raster].ms(), spans[gather].ms());
    ledger.shape_ms.push(shape_ms);
    ledger.raster_ms.push(raster_ms);
    ledger.gather_ms.push(gather_ms);
    ledger.streamline_steps.push(work.streamline_steps as f64);
    ledger.mesh_vertices.push(work.mesh_vertices as f64);
    ledger.fragments.push(fragments as f64);
    ledger.mfrag_per_s.push(fragments as f64 / raster_ms / 1e3);
    ledger.gather_texels.push(composed.blend_texels as f64);
    composed.texture
}

/// The traced run: per-layer metrics.
pub fn run_traced(app: App, seed: u64, seconds: f64, trace_path: &std::path::Path) -> Report {
    let mut report = Report::default();
    let cfg = app.config();
    let dt = app.dt();
    let (mut source, mut pipeline, _) = set_up(app, seed);

    // A third of the time untraced: the frame tail and the base of the
    // overhead ratio.
    let mut ledger = Ledger::default();
    let (untraced, _, _) = untraced_loop(
        app,
        &mut source,
        &mut pipeline,
        1,
        seconds / 3.0,
        MIN_FRAMES,
        &[],
    );
    report.set(
        "frame_ms.p90",
        percentile(&untraced, 90.0).unwrap_or(0.0),
        untraced.len(),
    );
    let first = 1 + untraced.len() as u64;
    ledger.untraced_frame_ms = untraced;
    drop(pipeline);

    // The traced pipeline: Pipeline::advance's parts, driven directly.
    let domain = source.field().domain();
    let mut animator = SpotAnimator::new(domain, cfg.spot_count, PositionMode::Advected, cfg.seed);
    let arena = Arc::new(FrameArena::new());
    let pool = Arc::new(PipePool::new(Some(Arc::clone(&arena))));
    let sched = SchedulerOptions::default();
    let sink = TraceSink::disabled();
    let mut ctx: Option<SynthesisContext> = None;
    // The reference: Pipeline::advance itself, re-seeded with the traced
    // animator's state before each checked frame.
    let mut reference = Pipeline::new(cfg, ExecutionMode::DivideAndConquer(machine()), domain);

    let mut rec = Recorder::new();
    let pool_before = pool.stats();
    let arena_before = arena.stats();
    let budget = Duration::from_secs_f64(seconds * 2.0 / 3.0);
    let mut traced_wall = Duration::ZERO;
    let mut n = 0u64;
    while (n as usize) < MIN_TRACED_FRAMES || traced_wall < budget {
        let frame = first + n;
        let check_identity = n.is_multiple_of(IDENTITY_EVERY);
        if check_identity {
            *reference.animator_mut() = animator.clone();
        }
        let t_frame = Instant::now();
        let span = rec.record("frame", None, frame, t_frame, t_frame);
        let parent = Some(span);
        let mut forks = 0u64;
        let mut probe = |rec: &mut Recorder, last: &mut Option<u64>| {
            let (now, _) = rec.time("probe.proc_stat", parent, frame, trace::forks_total);
            if let (Some(a), Some(b)) = (*last, now) {
                forks += b.saturating_sub(a);
            }
            *last = now;
        };
        let mut last = None;
        probe(&mut rec, &mut last);
        rec.time("sim.read", parent, frame, || source.read(frame));
        probe(&mut rec, &mut last);
        let field = source.field();
        let (spots, _) = rec.time("advect", parent, frame, || {
            animator.advance(field, dt);
            animator.spots()
        });
        probe(&mut rec, &mut last);
        let (out, synth) = rec.time("synth", parent, frame, || {
            let ctx = match &mut ctx {
                Some(c) => {
                    c.refresh(field, &cfg);
                    c
                }
                None => ctx.insert(SynthesisContext::new(field, &cfg)),
            };
            synthesize_dnc_with_telemetry(
                field,
                &spots,
                &cfg,
                &machine(),
                ctx,
                &sched,
                Some(&arena),
                Some(&pool),
                &sink,
            )
        });
        probe(&mut rec, &mut last);
        let (display, _) = rec.time("display", parent, frame, || {
            standard_postprocess(&out.texture, cfg.spot_radius_pixels())
        });
        probe(&mut rec, &mut last);
        let t_end = Instant::now();
        rec.close(span, t_end);
        traced_wall += t_end - t_frame;
        ledger.frame_ms.push(ms(t_end - t_frame));
        ledger.forks_per_frame.push(forks as f64);

        let synth_ms = rec.spans()[synth].ms();
        let walls: Vec<f64> = out
            .report
            .groups
            .iter()
            .map(|g| g.wall_us as f64 / 1e3)
            .collect();
        let max_wall = walls.iter().cloned().fold(0.0, f64::max);
        let min_wall = walls.iter().cloned().fold(f64::INFINITY, f64::min);
        ledger.group_wall_max_ms.push(max_wall);
        ledger.group_imbalance.push(max_wall / min_wall.max(1e-6));
        ledger.tail_ms.push(synth_ms - max_wall);

        // Outside the frame span: the checks and the serial replay.
        if check_identity {
            let expected = reference.advance(field, dt, 0);
            let same = expected.texture.data() == out.texture.data()
                && expected.display.data() == display.data();
            report.check(same, || {
                format!(
                    "{} frame {frame}: traced texture differs from Pipeline::advance",
                    app.name()
                )
            });
        }
        if n.is_multiple_of(REPLAY_EVERY) {
            let ctx = ctx.as_ref().expect("context built by the first frame");
            let serial = replay(&mut rec, &mut ledger, frame, field, &spots, ctx, &cfg);
            let i = ledger.shape_ms.len() - 1;
            let serial_ms = ledger.shape_ms[i] + ledger.raster_ms[i] + ledger.gather_ms[i];
            ledger.speedup.push(serial_ms / synth_ms);
            let diff = mean_texel_difference(&serial, &out.texture);
            report.check(diff < SEQUENTIAL_TOLERANCE, || {
                format!(
                    "{} frame {frame}: serial replay differs by {diff:e}",
                    app.name()
                )
            });
        }
        n += 1;
    }
    report.attempted = n + report.checks;

    let pool_after = pool.stats();
    let arena_after = arena.stats();
    let reused = (pool_after.reused - pool_before.reused) as f64;
    let spawned = (pool_after.spawned - pool_before.spawned) as f64;
    let arena_reuse = (arena_after.texture_reuses + arena_after.command_reuses
        - arena_before.texture_reuses
        - arena_before.command_reuses) as f64;
    let arena_alloc = (arena_after.texture_allocations + arena_after.command_allocations
        - arena_before.texture_allocations
        - arena_before.command_allocations) as f64;

    let frames = n as usize;
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.set("sim.read_ms", med(&rec.durations_ms("sim.read")), frames);
    report.set("advect.ms", med(&rec.durations_ms("advect")), frames);
    report.set("synth.ms", med(&rec.durations_ms("synth")), frames);
    report.set("display.ms", med(&rec.durations_ms("display")), frames);
    let replays = ledger.shape_ms.len();
    report.set("shape.ms", med(&ledger.shape_ms), replays);
    report.set(
        "shape.streamline_steps",
        med(&ledger.streamline_steps),
        replays,
    );
    report.set("shape.mesh_vertices", med(&ledger.mesh_vertices), replays);
    report.set("raster.ms", med(&ledger.raster_ms), replays);
    report.set("raster.fragments", med(&ledger.fragments), replays);
    report.set("raster.mfrag_per_s", med(&ledger.mfrag_per_s), replays);
    report.set("gather.ms", med(&ledger.gather_ms), replays);
    report.set("gather.texels", med(&ledger.gather_texels), replays);
    report.set("synth.parallel_speedup", med(&ledger.speedup), replays);
    report.set(
        "synth.group_wall_ms.max",
        med(&ledger.group_wall_max_ms),
        frames,
    );
    report.set(
        "synth.group_imbalance",
        med(&ledger.group_imbalance),
        frames,
    );
    report.set("synth.tail_ms", med(&ledger.tail_ms), frames);
    report.set(
        "pool.reuse_ratio",
        reused / (reused + spawned).max(1.0),
        frames,
    );
    report.set(
        "arena.reuse_ratio",
        arena_reuse / (arena_reuse + arena_alloc).max(1.0),
        frames,
    );
    report.set(
        "os.threads_spawned_per_frame",
        mean(&ledger.forks_per_frame),
        frames,
    );
    report.set("unattributed_ms", med(&rec.self_times_ms("frame")), frames);
    report.set(
        "trace.overhead_ratio",
        med(&ledger.frame_ms) / med(&ledger.untraced_frame_ms),
        frames,
    );
    report.set(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
    );
    crate::write_trace(trace_path, &rec, &mut report);
    report
}
