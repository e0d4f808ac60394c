//! The divide-and-conquer spot-noise executors.
//!
//! This module is the paper's primary contribution in executable form — but
//! since the scheduler refactor it contains no execution loops of its own:
//! every strategy is a thin configuration of the generic engine in
//! [`crate::scheduler`] (partition → per-group command streams → streaming
//! gather), differing only in its [`WorkSource`] and
//! [`ExecBackend`](crate::scheduler::ExecBackend):
//!
//! * [`synthesize_dnc`] with round-robin partitioning: a
//!   [`StaticSpotSource`] (or [`DynamicSpotQueue`] under
//!   [`ScheduleMode::Dynamic`]) over a [`SoftpipeBackend`], partial
//!   textures folded additively;
//! * [`synthesize_dnc`] with `cfg.use_tiling`: a [`TileWorkQueue`] over the
//!   same backend, boundary-straddling spots duplicated into every tile
//!   they may touch, partials composed by region copy;
//! * [`synthesize_cpu_only`]: the same engine over a [`CpuBackend`] — the
//!   paper's "the texture tiles may be completely generated by the
//!   processor, bypassing the graphics subsystem altogether" variant.
//!
//! Each process group consists of one master and zero or more slaves driving
//! exactly one session; masters stream rendered spots in
//! [`SynthesisConfig::spot_batch`]-sized batches while slaves compute spot
//! shapes, and the gather/compose step (the `c` term of equation 3.2)
//! overlaps with the straggling groups through the engine's streaming
//! gather.

use crate::config::SynthesisConfig;
use crate::partition::{partition_chunks, partition_round_robin, partition_tiled, TilingOptions};
use crate::perfmodel::{predict_from_reports, PerfPrediction};
use crate::scheduler::{
    CpuBackend, DynamicSpotQueue, EngineOutput, ScheduleMode, Scheduler, SchedulerOptions,
    SoftpipeBackend, StaticSpotSource, TileWorkQueue, WorkSource,
};
use crate::spot::Spot;
use crate::synth::SynthesisContext;
use crate::telemetry::TraceSink;
use flowfield::VectorField;
use softpipe::cost::{CpuWork, PipeWork};
use softpipe::machine::MachineConfig;
use softpipe::{BusStats, BusTracker, FrameArena, PipePool, Texture};
use std::sync::Arc;
use std::time::Instant;

pub use crate::scheduler::GroupReport;

/// The measurement half of a divide-and-conquer synthesis: everything
/// [`DncOutput`] carries except the texture itself. Split out so frame
/// producers (the [`Pipeline`](crate::pipeline::Pipeline)) can keep the
/// report without duplicating the framebuffer-sized texture.
#[derive(Debug, Clone)]
pub struct DncReport {
    /// Per-group reports.
    pub groups: Vec<GroupReport>,
    /// Texels processed by the sequential gather/compose step.
    pub compose_texels: u64,
    /// Spot instances duplicated by texture tiling (0 for round-robin).
    pub duplicated_spots: usize,
    /// Wall-clock seconds of the synthesis on the host.
    pub wall_seconds: f64,
    /// Simulated-machine prediction (Tables 1/2 reproduce this).
    pub predicted: PerfPrediction,
    /// Bus traffic recorded during the run.
    pub bus: BusStats,
}

impl DncReport {
    /// Wall-clock textures per second on the host.
    pub fn measured_textures_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            1.0 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Total CPU work over all groups.
    pub fn total_cpu_work(&self) -> CpuWork {
        let mut total = CpuWork::default();
        for g in &self.groups {
            total.merge(&g.cpu_work);
        }
        total
    }

    /// Total pipe work over all groups.
    pub fn total_pipe_work(&self) -> PipeWork {
        let mut total = PipeWork::default();
        for g in &self.groups {
            total.merge(&g.pipe_work);
        }
        total
    }
}

/// Complete result of one divide-and-conquer synthesis: the texture plus the
/// [`DncReport`]. Dereferences to the report, so `out.groups`,
/// `out.predicted` etc. read as they always have.
#[derive(Debug, Clone)]
pub struct DncOutput {
    /// The final spot-noise texture.
    pub texture: Texture,
    /// Everything measured about the run.
    pub report: DncReport,
}

impl std::ops::Deref for DncOutput {
    type Target = DncReport;

    fn deref(&self) -> &DncReport {
        &self.report
    }
}

impl DncOutput {
    /// Splits the output into its texture and its report without cloning
    /// either (what the pipeline does to avoid duplicating the frame).
    pub fn into_parts(self) -> (Texture, DncReport) {
        (self.texture, self.report)
    }
}

/// Synthesises a spot-noise texture with the divide-and-conquer algorithm on
/// the given (virtual) machine configuration.
pub fn synthesize_dnc(
    field: &dyn VectorField,
    spots: &[Spot],
    cfg: &SynthesisConfig,
    machine: &MachineConfig,
) -> DncOutput {
    cfg.validate().expect("invalid synthesis configuration");
    let ctx = SynthesisContext::new(field, cfg);
    synthesize_dnc_with_context(field, spots, cfg, machine, &ctx)
}

/// Like [`synthesize_dnc`], but reusing a prepared [`SynthesisContext`].
pub fn synthesize_dnc_with_context(
    field: &dyn VectorField,
    spots: &[Spot],
    cfg: &SynthesisConfig,
    machine: &MachineConfig,
    ctx: &SynthesisContext,
) -> DncOutput {
    synthesize_dnc_with_options(
        field,
        spots,
        cfg,
        machine,
        ctx,
        &SchedulerOptions::default(),
    )
}

/// Full-control entry point: like [`synthesize_dnc_with_context`], but with
/// explicit [`SchedulerOptions`] (static vs dynamic-queue scheduling, tile
/// oversubscription). The default options reproduce the classic static
/// split.
pub fn synthesize_dnc_with_options(
    field: &dyn VectorField,
    spots: &[Spot],
    cfg: &SynthesisConfig,
    machine: &MachineConfig,
    ctx: &SynthesisContext,
    opts: &SchedulerOptions,
) -> DncOutput {
    synthesize_dnc_with_telemetry(
        field,
        spots,
        cfg,
        machine,
        ctx,
        opts,
        None,
        None,
        &TraceSink::disabled(),
    )
}

/// Like [`synthesize_dnc_with_options`], additionally reusing pooled frame
/// buffers from `arena` (gather target, partial textures, batch vectors)
/// and persistent pipe workers from `pool`, and recording per-group raster
/// and gather spans into `sink` — the steady-state entry point the
/// [`Pipeline`](crate::pipeline::Pipeline) drives, so back-to-back frames
/// perform no framebuffer-sized allocation and spawn no thread. Output is
/// bit-identical with and without either pool; a disabled sink costs one
/// branch per group.
#[allow(clippy::too_many_arguments)]
pub fn synthesize_dnc_with_telemetry(
    field: &dyn VectorField,
    spots: &[Spot],
    cfg: &SynthesisConfig,
    machine: &MachineConfig,
    ctx: &SynthesisContext,
    opts: &SchedulerOptions,
    arena: Option<&Arc<FrameArena>>,
    pool: Option<&Arc<PipePool>>,
    sink: &TraceSink,
) -> DncOutput {
    let start = Instant::now();
    let groups = machine.groups();
    let procs_per_group = machine.processors_per_group();
    let engine = Scheduler {
        backend: &SoftpipeBackend,
        field,
        cfg,
        ctx,
        procs_per_group: &procs_per_group,
        bus: BusTracker::new(),
        arena,
        pool,
        sink: sink.clone(),
    };

    // Build the work source: the partition strategy comes from the config,
    // the lease discipline from the scheduler options.
    let (source, duplicated): (Box<dyn WorkSource>, usize) = if cfg.use_tiling && groups > 1 {
        let tile_count = opts.tiles.unwrap_or(groups).max(1);
        let part = partition_tiled(
            spots,
            &ctx.mapper,
            tile_count,
            &TilingOptions::from_config(cfg),
        );
        let queue = match opts.mode {
            ScheduleMode::Static => TileWorkQueue::new_static(part.tiles, part.groups, groups),
            ScheduleMode::Dynamic { .. } => TileWorkQueue::new_dynamic(part.tiles, part.groups),
        };
        (Box::new(queue), part.duplicated)
    } else {
        match opts.mode {
            ScheduleMode::Static => (
                Box::new(StaticSpotSource::new(
                    partition_round_robin(spots, groups),
                    &procs_per_group,
                )),
                0,
            ),
            ScheduleMode::Dynamic { chunk } => (
                Box::new(DynamicSpotQueue::new(
                    spots.to_vec(),
                    chunk.unwrap_or(cfg.spot_batch),
                    groups,
                )),
                0,
            ),
        }
    };

    let out = engine.run(source.as_ref());
    let predicted = predict_from_reports(machine, &out.groups, out.compose_texels);
    DncOutput {
        texture: out.texture,
        report: DncReport {
            groups: out.groups,
            compose_texels: out.compose_texels,
            duplicated_spots: duplicated,
            wall_seconds: start.elapsed().as_secs_f64(),
            predicted,
            bus: out.bus,
        },
    }
}

/// CPU-only synthesis: spot shapes *and* rasterization run on the host CPUs,
/// bypassing the graphics-pipe threads entirely — the same engine as
/// [`synthesize_dnc`], configured with a [`CpuBackend`] and one
/// single-processor group per task. Each task renders its chunk of spots
/// into a private partial texture; the partials are gathered additively by
/// the streaming gather. This is the paper's "bypass the graphics subsystem
/// altogether" variant and the natural modern-hardware baseline. The report
/// has the same shape as every other engine run (per-group work, lease
/// accounting, zero bus traffic).
///
/// One scoped thread and one partial texture exist per task, so pick
/// `tasks` near the host's core count (e.g.
/// `std::thread::available_parallelism()`); the engine does not cap
/// concurrency at the host's core count.
pub fn synthesize_cpu_only(
    field: &dyn VectorField,
    spots: &[Spot],
    cfg: &SynthesisConfig,
    tasks: usize,
) -> EngineOutput {
    cfg.validate().expect("invalid synthesis configuration");
    let tasks = tasks.max(1);
    let ctx = SynthesisContext::new(field, cfg);
    let procs_per_group = vec![1usize; tasks];
    let source = StaticSpotSource::new(partition_chunks(spots, tasks), &procs_per_group);
    Scheduler {
        backend: &CpuBackend,
        field,
        cfg,
        ctx: &ctx,
        procs_per_group: &procs_per_group,
        bus: BusTracker::new(),
        arena: None,
        pool: None,
        sink: TraceSink::disabled(),
    }
    .run(&source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpotKind;
    use crate::spot::generate_spots;
    use crate::synth::synthesize_sequential_with_context;
    use flowfield::analytic::Vortex;
    use flowfield::{Rect, Vec2};

    fn domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
    }

    fn vortex() -> Vortex {
        Vortex {
            omega: 1.0,
            center: Vec2::new(0.5, 0.5),
            domain: domain(),
        }
    }

    fn mean_abs_texel_difference(a: &Texture, b: &Texture) -> f64 {
        a.absolute_difference(b) / a.data().len() as f64
    }

    #[test]
    fn dnc_round_robin_matches_sequential() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, cfg.seed);
        let ctx = SynthesisContext::new(&field, &cfg);
        let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
        let machine = MachineConfig::new(4, 2);
        let dnc = synthesize_dnc_with_context(&field, &spots, &cfg, &machine, &ctx);
        let diff = mean_abs_texel_difference(&seq.texture, &dnc.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
        // Work is conserved: the same spots were processed once each.
        assert_eq!(dnc.total_cpu_work().spots, cfg.spot_count as u64);
        assert_eq!(dnc.duplicated_spots, 0);
    }

    #[test]
    fn dnc_tiled_matches_sequential() {
        let cfg = SynthesisConfig {
            use_tiling: true,
            ..SynthesisConfig::small_test()
        };
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 3);
        let ctx = SynthesisContext::new(&field, &cfg);
        let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
        let machine = MachineConfig::new(4, 4);
        let dnc = synthesize_dnc_with_context(&field, &spots, &cfg, &machine, &ctx);
        let diff = mean_abs_texel_difference(&seq.texture, &dnc.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
        // Tiling duplicates boundary spots, so the processed count exceeds
        // the input count and the report says by how much.
        assert!(dnc.duplicated_spots > 0);
        assert_eq!(
            dnc.total_cpu_work().spots,
            (cfg.spot_count + dnc.duplicated_spots) as u64
        );
    }

    #[test]
    fn dnc_with_bent_spots_matches_sequential() {
        let cfg = SynthesisConfig {
            spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
            spot_count: 150,
            ..SynthesisConfig::small_test()
        };
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 5);
        let ctx = SynthesisContext::new(&field, &cfg);
        let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
        let machine = MachineConfig::new(2, 2);
        let dnc = synthesize_dnc_with_context(&field, &spots, &cfg, &machine, &ctx);
        let diff = mean_abs_texel_difference(&seq.texture, &dnc.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
    }

    #[test]
    fn dnc_result_independent_of_machine_shape() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 9);
        let a = synthesize_dnc(&field, &spots, &cfg, &MachineConfig::new(1, 1));
        let b = synthesize_dnc(&field, &spots, &cfg, &MachineConfig::new(8, 4));
        let diff = mean_abs_texel_difference(&a.texture, &b.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
    }

    #[test]
    fn dnc_reports_expected_group_structure() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(400, domain(), 1.0, 1);
        let machine = MachineConfig::new(8, 4);
        let out = synthesize_dnc(&field, &spots, &cfg, &machine);
        assert_eq!(out.groups.len(), 4);
        assert!(out.groups.iter().all(|g| g.processors == 2));
        let spots_total: usize = out.groups.iter().map(|g| g.spots).sum();
        assert_eq!(spots_total, 400);
        // Every group produced pipe work, leased its share of the work and
        // ran until its queue was exhausted; the gather step touched texels.
        assert!(out.groups.iter().all(|g| g.pipe_work.fragments > 0));
        assert!(out.groups.iter().all(|g| g.leases > 0));
        assert!(out.groups.iter().all(|g| g.queue_exhausted));
        assert!(out.compose_texels > 0);
        assert!(out.predicted.textures_per_second > 0.0);
        assert!(out.wall_seconds > 0.0);
        // Bus traffic was recorded (vertices + texture readback).
        assert!(out.bus.vertex_bytes > 0);
        assert!(out.bus.texture_bytes > 0);
    }

    #[test]
    fn cpu_only_matches_sequential() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, cfg.seed);
        let ctx = SynthesisContext::new(&field, &cfg);
        let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
        let out = synthesize_cpu_only(&field, &spots, &cfg, 4);
        let diff = mean_abs_texel_difference(&seq.texture, &out.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
        assert!(out.wall_seconds > 0.0);
        // Uniform reporting: the CPU path now carries the same per-group
        // accounting as the pipe-backed paths, with zero bus traffic.
        assert_eq!(out.groups.len(), 4);
        assert_eq!(out.total_cpu_work().spots, cfg.spot_count as u64);
        assert!(out.groups.iter().all(|g| g.queue_exhausted));
        assert_eq!(out.bus.total_bytes(), 0);
    }

    #[test]
    fn dynamic_round_robin_matches_sequential() {
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 13);
        let ctx = SynthesisContext::new(&field, &cfg);
        let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
        let machine = MachineConfig::new(4, 2);
        let dnc = synthesize_dnc_with_options(
            &field,
            &spots,
            &cfg,
            &machine,
            &ctx,
            &SchedulerOptions::dynamic(),
        );
        let diff = mean_abs_texel_difference(&seq.texture, &dnc.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
        let total: usize = dnc.groups.iter().map(|g| g.spots).sum();
        assert_eq!(total, cfg.spot_count);
        assert!(dnc.groups.iter().all(|g| g.queue_exhausted));
    }

    #[test]
    fn tiled_compose_is_bit_identical_between_static_and_dynamic_schedules() {
        // Tiles are leased whole, so each tile's partial is produced by
        // exactly one session in the same deterministic spot order no
        // matter which group rendered it: the composed texture must be
        // bit-identical across schedules (masters only, so there is no
        // intra-group reordering either).
        let cfg = SynthesisConfig {
            use_tiling: true,
            ..SynthesisConfig::small_test()
        };
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 17);
        let ctx = SynthesisContext::new(&field, &cfg);
        let machine = MachineConfig::new(4, 4);
        let static_out = synthesize_dnc_with_options(
            &field,
            &spots,
            &cfg,
            &machine,
            &ctx,
            &SchedulerOptions::default(),
        );
        let dynamic_out = synthesize_dnc_with_options(
            &field,
            &spots,
            &cfg,
            &machine,
            &ctx,
            &SchedulerOptions::dynamic(),
        );
        assert_eq!(
            static_out.texture.absolute_difference(&dynamic_out.texture),
            0.0,
            "tiled compose diverged between schedules"
        );
        assert_eq!(static_out.duplicated_spots, dynamic_out.duplicated_spots);
        assert_eq!(static_out.compose_texels, dynamic_out.compose_texels);
    }

    #[test]
    fn oversubscribed_tiles_allow_stealing_and_compose_identically() {
        // Twice as many tiles as groups: the dynamic queue has real units
        // to steal, and the composed texture still matches the one-to-one
        // static layout's pixels wherever tiles agree — here we just
        // require equality with the sequential reference within tolerance
        // and exact conservation of the per-tile accounting.
        let cfg = SynthesisConfig {
            use_tiling: true,
            ..SynthesisConfig::small_test()
        };
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 29);
        let ctx = SynthesisContext::new(&field, &cfg);
        let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
        let machine = MachineConfig::new(4, 4);
        let opts = SchedulerOptions {
            mode: ScheduleMode::Dynamic { chunk: None },
            tiles: Some(8),
        };
        let out = synthesize_dnc_with_options(&field, &spots, &cfg, &machine, &ctx, &opts);
        let diff = mean_abs_texel_difference(&seq.texture, &out.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
        let leases: u64 = out.groups.iter().map(|g| g.leases).sum();
        assert_eq!(leases, 8, "every tile leased exactly once");
        let total: usize = out.groups.iter().map(|g| g.spots).sum();
        assert_eq!(total, cfg.spot_count + out.duplicated_spots);
    }

    #[test]
    fn pipe_transform_variant_matches_software_transform_but_costs_state_changes() {
        // The paper performs spot transformation in software to avoid per-spot
        // matrix loads; the on-pipe variant must produce the same texture but
        // is charged one state change per spot by the cost model.
        let field = vortex();
        let spots = generate_spots(300, domain(), 1.0, 4);
        let machine = MachineConfig::new(2, 1);
        let software_cfg = SynthesisConfig::small_test();
        let hardware_cfg = SynthesisConfig {
            transform_on_pipe: true,
            ..software_cfg
        };
        let software = synthesize_dnc(&field, &spots, &software_cfg, &machine);
        let hardware = synthesize_dnc(&field, &spots, &hardware_cfg, &machine);
        let diff = mean_abs_texel_difference(&software.texture, &hardware.texture);
        assert!(diff < 1e-4, "mean texel difference {diff}");
        assert_eq!(software.total_pipe_work().state_changes, 1); // blend mode only
        assert!(
            hardware.total_pipe_work().state_changes >= 300,
            "expected one matrix load per spot, got {}",
            hardware.total_pipe_work().state_changes
        );
        // The simulated machine therefore predicts the on-pipe variant to be
        // slower for the same spot set.
        assert!(
            hardware.predicted.total_seconds > software.predicted.total_seconds,
            "hardware {} vs software {}",
            hardware.predicted.total_seconds,
            software.predicted.total_seconds
        );
    }

    #[test]
    fn single_group_single_processor_is_exactly_sequential() {
        // With one group and one processor there is no reordering at all, so
        // the result is bit-identical to the sequential path.
        let cfg = SynthesisConfig::small_test();
        let field = vortex();
        let spots = generate_spots(cfg.spot_count, domain(), 1.0, 7);
        let ctx = SynthesisContext::new(&field, &cfg);
        let seq = synthesize_sequential_with_context(&field, &spots, &cfg, &ctx);
        let dnc =
            synthesize_dnc_with_context(&field, &spots, &cfg, &MachineConfig::new(1, 1), &ctx);
        assert_eq!(seq.texture.absolute_difference(&dnc.texture), 0.0);
    }

    #[test]
    fn spot_batch_size_does_not_change_the_texture() {
        // Batch size is a throughput knob, never a correctness knob.
        let field = vortex();
        let spots = generate_spots(300, domain(), 1.0, 42);
        let machine = MachineConfig::new(1, 1);
        let mut textures = Vec::new();
        for batch in [1usize, 16, 64, 256] {
            let cfg = SynthesisConfig {
                spot_batch: batch,
                ..SynthesisConfig::small_test()
            };
            textures.push(synthesize_dnc(&field, &spots, &cfg, &machine).texture);
        }
        for t in &textures[1..] {
            assert_eq!(textures[0].absolute_difference(t), 0.0);
        }
    }
}
