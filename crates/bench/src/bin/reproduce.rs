//! Reproduction harness: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p spotnoise-bench --bin reproduce -- all
//! cargo run --release -p spotnoise-bench --bin reproduce -- table1 table2
//! cargo run --release -p spotnoise-bench --bin reproduce -- figure6 --out results
//! cargo run --release -p spotnoise-bench --bin reproduce -- table1 --quick
//! cargo run --release -p spotnoise-bench --bin reproduce -- ablation-mesh ablation-spots
//! ```
//!
//! Outputs:
//! * tables are printed to stdout (simulated Onyx2 throughput next to the
//!   paper's published numbers and the measured host throughput) and written
//!   as JSON to `<out>/tableN.json`;
//! * figures are written as PPM images to `<out>/figureN*.ppm`;
//! * the `ablation-*` targets sweep one design trade-off of the paper on a
//!   scaled workload and print one row per setting: simulated Onyx2 and
//!   median host textures/s side by side.
//!
//! An unknown target or a `--out` without a value prints the usage line and
//! exits with status 2 before any work runs.

use flowfield::analytic::Vortex;
use flowfield::particles::ParticleOptions;
use flowfield::{Rect, Vec2, VectorField};
use flowsim::{pattern_from_dns, skin_friction_field, DnsConfig, DnsSolver, SmogModel};
use flowviz::{
    draw_map, draw_rect_outline, overlay_scalar_field, texture_to_framebuffer, Colormap,
};
use softpipe::machine::MachineConfig;
use softpipe::Rgb;
use spotnoise::advect::PositionMode;
use spotnoise::config::{SpotKind, SynthesisConfig};
use spotnoise::dnc::{synthesize_cpu_only, synthesize_dnc};
use spotnoise::filter::standard_postprocess;
use spotnoise::pipeline::{ExecutionMode, Pipeline};
use spotnoise::spot::{generate_spots, Spot};
use spotnoise::synth::synthesize_sequential;
use spotnoise_bench::{
    ablation_row, analytic_small, atmospheric_paper, atmospheric_scaled, format_table,
    paper_table1, paper_table2, run_table_sweep, turbulence_paper, turbulence_scaled, SweepCell,
    Workload, ABLATION_RUNS,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A target's name and what it runs, given `--quick` and the output directory.
type Target = (&'static str, fn(bool, &Path));

/// Every target, in the order `all` runs them.
const TARGETS: [Target; 13] = [
    ("table1", |quick, out| reproduce_table(1, quick, out)),
    ("table2", |quick, out| reproduce_table(2, quick, out)),
    ("figure1", |_, out| figure1(out)),
    ("figure2", |_, out| figure2(out)),
    ("figure6", |quick, out| figure6(out, quick)),
    ("figure7", |quick, out| figure7(out, quick)),
    ("bandwidth", |quick, _| bandwidth(quick)),
    ("pipeline", |_, _| pipeline_breakdown()),
    ("ablation-mesh", |_, _| ablation_mesh()),
    ("ablation-spots", |_, _| ablation_spots()),
    ("ablation-tiling", |_, _| ablation_tiling()),
    ("ablation-transform", |_, _| ablation_transform()),
    ("ablation-executor", |_, _| ablation_executor()),
];

fn usage() -> ! {
    let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: reproduce [--quick] [--out DIR] [all | {}]...",
        names.join(" | ")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut targets = Vec::new();
    let mut out_dir = PathBuf::from("results");
    let mut quick = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => out_dir = PathBuf::from(iter.next().unwrap_or_else(|| usage())),
            "--quick" => quick = true,
            "all" => targets.extend(TARGETS),
            other => match TARGETS.iter().find(|(name, _)| *name == other) {
                Some(target) => targets.push(*target),
                None => {
                    eprintln!("unknown target: {other}");
                    usage()
                }
            },
        }
    }
    if targets.is_empty() {
        targets.extend(TARGETS);
    }
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
    for (_, run) in targets {
        run(quick, &out_dir);
    }
}

fn reproduce_table(which: u8, quick: bool, out_dir: &Path) {
    let (workload, published) = match (which, quick) {
        (1, false) => (atmospheric_paper(), paper_table1()),
        (1, true) => (atmospheric_scaled(), paper_table1()),
        (2, false) => (turbulence_paper(), paper_table2()),
        (2, true) => (turbulence_scaled(), paper_table2()),
        _ => unreachable!(),
    };
    println!("=== Table {which}: {} ===", workload.name);
    println!(
        "{} spots of kind {:?}, {}x{} texture, {} vertices/texture",
        workload.config.spot_count,
        workload.config.spot_kind,
        workload.config.texture_size,
        workload.config.texture_size,
        workload.config.vertices_per_texture(),
    );
    let cells = run_table_sweep(&workload);
    println!("\nSimulated Onyx2 textures/second (cost model, this reproduction):");
    println!("{}", format_table(&cells, true));
    println!("Published textures/second (paper Table {which}):");
    println!("{}", format_published(&published));
    println!("Measured host wall-clock textures/second (this machine, software pipes):");
    println!("{}", format_table(&cells, false));
    let json = spotnoise_bench::json::sweep_cells_to_json(&cells);
    let path = out_dir.join(format!("table{which}.json"));
    std::fs::write(&path, json).expect("write table json");
    println!("wrote {}\n", path.display());
    summarize_shape(&cells, &published);
}

fn format_published(published: &[(usize, usize, f64)]) -> String {
    let cells: Vec<SweepCell> = published
        .iter()
        .map(|&(p, g, v)| SweepCell {
            processors: p,
            pipes: g,
            simulated_textures_per_second: v,
            measured_textures_per_second: v,
            prediction: spotnoise::perfmodel::PerfPrediction {
                group_seconds: vec![],
                blend_seconds: 0.0,
                total_seconds: if v > 0.0 { 1.0 / v } else { 0.0 },
                textures_per_second: v,
                bus_seconds: 0.0,
            },
        })
        .collect();
    format_table(&cells, true)
}

fn summarize_shape(cells: &[SweepCell], published: &[(usize, usize, f64)]) {
    let sim = |p: usize, g: usize| {
        cells
            .iter()
            .find(|c| c.processors == p && c.pipes == g)
            .map(|c| c.simulated_textures_per_second)
            .unwrap_or(0.0)
    };
    let base_sim = sim(1, 1).max(1e-9);
    let base_pub = published
        .iter()
        .find(|(p, g, _)| *p == 1 && *g == 1)
        .map(|(_, _, v)| *v)
        .unwrap_or(1.0);
    println!("Speedup over the (1,1) cell — published vs simulated:");
    for (p, g, v) in published {
        let s_pub = v / base_pub;
        let s_sim = sim(*p, *g) / base_sim;
        println!("  ({p}, {g}): paper {s_pub:>4.1}x   reproduction {s_sim:>4.1}x");
    }
    println!();
}

/// Figure 1: a single spot (left) and the resulting texture (right).
fn figure1(out_dir: &Path) {
    println!("=== Figure 1: single spot and resulting spot-noise texture ===");
    let domain = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    let field = flowfield::analytic::Uniform {
        velocity: Vec2::ZERO,
        domain,
    };
    // Left: one spot in the middle, isotropic (no flow deformation).
    let single_cfg = SynthesisConfig {
        texture_size: 256,
        spot_count: 1,
        spot_radius: 0.12,
        max_stretch: 1.0,
        ..SynthesisConfig::small_test()
    };
    let single = synthesize_sequential(
        &field,
        &[spotnoise::spot::Spot {
            position: domain.center(),
            intensity: 1.0,
        }],
        &single_cfg,
    );
    save_gray(
        &single.texture.normalized(),
        out_dir,
        "figure1_single_spot.ppm",
    );

    // Right: many spots of random intensity — pure (undeformed) spot noise.
    let noise_cfg = SynthesisConfig {
        texture_size: 256,
        spot_count: 10_000,
        spot_radius: 0.02,
        max_stretch: 1.0,
        ..SynthesisConfig::small_test()
    };
    let spots = generate_spots(noise_cfg.spot_count, domain, 1.0, 91);
    let noise = synthesize_sequential(&field, &spots, &noise_cfg);
    save_gray(
        &standard_postprocess(&noise.texture, noise_cfg.spot_radius_pixels()),
        out_dir,
        "figure1_texture.ppm",
    );
    println!();
}

/// Figure 2: skin friction on the block, default vs advected spot positions.
fn figure2(out_dir: &Path) {
    println!("=== Figure 2: separation on the block, default vs advected spots ===");
    let mut dns = DnsSolver::new(DnsConfig::small_test());
    for _ in 0..150 {
        dns.step(0.02);
    }
    let pattern = pattern_from_dns(&dns);
    let field = skin_friction_field(&pattern, 64, 64);
    let cfg = SynthesisConfig {
        texture_size: 384,
        spot_count: 1500,
        spot_radius: 0.02,
        spot_kind: SpotKind::Bent { rows: 12, cols: 5 },
        ..SynthesisConfig::small_test()
    };
    for (mode, label) in [
        (PositionMode::Random, "default"),
        (PositionMode::Advected, "advected"),
    ] {
        let mut pipeline = Pipeline::with_animator(
            cfg,
            ExecutionMode::Sequential,
            field.domain(),
            ParticleOptions {
                count: cfg.spot_count,
                mean_lifetime: 30,
                ..Default::default()
            },
            mode,
        );
        // Advance several frames so the advected mode accumulates coherence.
        let mut frame = pipeline.advance(&field, 0.02, 0);
        for _ in 0..8 {
            frame = pipeline.advance(&field, 0.02, 0);
        }
        save_gray(&frame.display, out_dir, &format!("figure2_{label}.ppm"));
    }
    println!(
        "attachment height measured from the DNS: {:.2} of the face\n",
        flowsim::attachment_height(&dns)
    );
}

/// Figure 6: pollutant superimposed on the wind-field spot noise, with map.
fn figure6(out_dir: &Path, quick: bool) {
    println!("=== Figure 6: smog steering — O3 over wind-field spot noise ===");
    let mut model = SmogModel::paper_resolution(1997);
    for _ in 0..40 {
        model.step(0.2);
    }
    let cfg = if quick {
        SynthesisConfig {
            texture_size: 256,
            spot_count: 800,
            spot_kind: SpotKind::Bent { rows: 12, cols: 7 },
            ..SynthesisConfig::atmospheric_paper()
        }
    } else {
        SynthesisConfig::atmospheric_paper()
    };
    let spots = generate_spots(
        cfg.spot_count,
        model.domain(),
        cfg.intensity_amplitude,
        cfg.seed,
    );
    let machine = MachineConfig::onyx2_full();
    let out = synthesize_dnc(model.wind_field(), &spots, &cfg, &machine);
    println!(
        "synthesis: simulated {:.1} textures/s, measured {:.1} textures/s",
        out.predicted.textures_per_second,
        out.measured_textures_per_second()
    );
    let display = standard_postprocess(&out.texture, cfg.spot_radius_pixels());
    let mut fb = texture_to_framebuffer(
        &display,
        cfg.texture_size,
        cfg.texture_size,
        Colormap::Grayscale,
    );
    let range = model.concentration().range();
    overlay_scalar_field(
        &mut fb,
        model.concentration(),
        range,
        Colormap::Rainbow,
        0.55,
    );
    draw_map(&mut fb, model.domain(), Rgb::new(240, 240, 240));
    let path = out_dir.join("figure6_smog.ppm");
    fb.save_ppm(&path).expect("write figure 6");
    println!("wrote {}\n", path.display());
}

/// Figure 7: spot-noise image of the turbulent wake behind the block.
fn figure7(out_dir: &Path, quick: bool) {
    println!("=== Figure 7: vortex shedding behind a block ===");
    let (solver_cfg, steps) = if quick {
        (DnsConfig::small_test(), 150)
    } else {
        (
            DnsConfig {
                nx: 139,
                ny: 104,
                ..DnsConfig::paper_resolution()
            },
            300,
        )
    };
    let mut dns = DnsSolver::new(solver_cfg);
    for _ in 0..steps {
        dns.step(0.02);
    }
    println!(
        "wake fluctuation (std of v behind the block): {:.3}",
        dns.wake_fluctuation()
    );
    let cfg = if quick {
        SynthesisConfig {
            texture_size: 256,
            spot_count: 4000,
            spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
            ..SynthesisConfig::turbulence_paper()
        }
    } else {
        SynthesisConfig::turbulence_paper()
    };
    let slice = dns.rectilinear_slice();
    let spots = generate_spots(
        cfg.spot_count,
        slice.domain(),
        cfg.intensity_amplitude,
        cfg.seed,
    );
    let machine = MachineConfig::onyx2_full();
    let out = synthesize_dnc(&slice, &spots, &cfg, &machine);
    println!(
        "synthesis: simulated {:.1} textures/s, measured {:.1} textures/s",
        out.predicted.textures_per_second,
        out.measured_textures_per_second()
    );
    let display = standard_postprocess(&out.texture, cfg.spot_radius_pixels());
    let height =
        (cfg.texture_size as f64 * slice.domain().height() / slice.domain().width()) as usize;
    let mut fb = texture_to_framebuffer(
        &display,
        cfg.texture_size,
        height.max(32),
        Colormap::Grayscale,
    );
    draw_rect_outline(
        &mut fb,
        slice.domain(),
        dns.block().rect,
        Rgb::new(255, 80, 80),
    );
    let path = out_dir.join("figure7_wake.ppm");
    fb.save_ppm(&path).expect("write figure 7");
    println!("wrote {}\n", path.display());
}

/// Section 5.1 / 5.2 bandwidth observations.
fn bandwidth(quick: bool) {
    println!("=== Bandwidth observation (paper section 5.1 / 5.2) ===");
    let workload: Workload = if quick {
        atmospheric_scaled()
    } else {
        atmospheric_paper()
    };
    let machine = MachineConfig::onyx2_full();
    let out = synthesize_dnc(
        workload.field.as_ref(),
        &workload.spots,
        &workload.config,
        &machine,
    );
    let cost = machine.cost;
    let vertex_bytes = cost.vertex_bytes(out.total_pipe_work().vertices);
    let mb_per_texture = vertex_bytes as f64 / 1.0e6;
    let rate = out.predicted.textures_per_second;
    println!("vertex data per texture: {mb_per_texture:.1} MB (paper: ~21.8 MB atmospheric, ~31 MB turbulence)");
    println!(
        "at the simulated {:.1} textures/s this is {:.0} MB/s of an {:.0} MB/s bus ({:.0}% utilisation)",
        rate,
        mb_per_texture * rate,
        cost.bus_bytes_per_second / 1.0e6,
        100.0 * mb_per_texture * rate / (cost.bus_bytes_per_second / 1.0e6),
    );
    println!(
        "recorded bus traffic on the host run: {} MB vertices, {} MB textures\n",
        out.bus.vertex_bytes / 1_000_000,
        out.bus.texture_bytes / 1_000_000
    );
}

/// Stage-time breakdown of the interactive pipeline (figures 3 and 5).
fn pipeline_breakdown() {
    println!("=== Pipeline stage breakdown (figures 3 and 5) ===");
    let mut model = SmogModel::new(53, 55, 7);
    let cfg = SynthesisConfig {
        texture_size: 256,
        spot_count: 800,
        spot_kind: SpotKind::Bent { rows: 12, cols: 7 },
        ..SynthesisConfig::atmospheric_paper()
    };
    let machine = MachineConfig::onyx2_full();
    let mut pipeline = Pipeline::new(
        cfg,
        ExecutionMode::DivideAndConquer(machine),
        model.domain(),
    );
    for frame_idx in 0..3 {
        let (_, read_us) = spotnoise::metrics::timed(|| model.step(0.2));
        let frame = pipeline.advance(model.wind_field(), 0.2, read_us);
        let t = frame.metrics.timings;
        println!(
            "frame {frame_idx}: read {:>6} us | advect {:>6} us | synthesize {:>8} us | render {:>6} us  ({:.2} textures/s measured, {:.2} simulated)",
            t.read_us,
            t.advect_us,
            t.synthesize_us,
            t.render_us,
            t.textures_per_second(),
            frame.metrics.simulated_textures_per_second().unwrap_or(0.0),
        );
    }
    println!();
}

/// One divide-and-conquer run, as [`ablation_row`] wants it: the simulated
/// Onyx2 textures/s and the host wall seconds.
fn dnc_run(
    field: &dyn VectorField,
    spots: &[Spot],
    cfg: &SynthesisConfig,
    machine: &MachineConfig,
) -> (Option<f64>, f64) {
    let out = synthesize_dnc(field, spots, cfg, machine);
    (Some(out.predicted.textures_per_second), out.wall_seconds)
}

fn print_header(title: &str) {
    println!("\n=== Ablation: {title} ===");
    println!(
        "{:<24}{:>12}{:>12}   (textures/s; host = median of {ABLATION_RUNS} runs)",
        "", "simulated", "host"
    );
}

fn print_row(label: &str, (simulated, host): (Option<f64>, f64)) {
    let simulated = simulated.map_or("-".to_string(), |v| format!("{v:.1}"));
    println!("{label:<24}{simulated:>12}{host:>12.1}");
}

/// Paper §5.1: "a 32x17 mesh … very accurate", coarser meshes are faster.
fn ablation_mesh() {
    print_header("bent-spot mesh (paper §5.1), atmospheric (scaled), 4 procs x 2 pipes");
    let w = atmospheric_scaled();
    let machine = MachineConfig::new(4, 2);
    for (rows, cols) in [(32, 17), (16, 9), (12, 7), (8, 5), (4, 3)] {
        let cfg = SynthesisConfig {
            spot_kind: SpotKind::Bent { rows, cols },
            ..w.config
        };
        let row = ablation_row(|| dnc_run(w.field.as_ref(), &w.spots, &cfg, &machine));
        print_row(&format!("{rows}x{cols}"), row);
    }
}

/// Paper §5.2: fewer spots are less accurate but faster.
fn ablation_spots() {
    print_header("spot count (paper §5.2), turbulence (scaled), 4 procs x 2 pipes");
    let w = turbulence_scaled();
    let machine = MachineConfig::new(4, 2);
    for spot_count in [500, 1000, 2000, 4000, 8000] {
        let cfg = SynthesisConfig {
            spot_count,
            ..w.config
        };
        let spots = generate_spots(
            spot_count,
            w.field.domain(),
            cfg.intensity_amplitude,
            cfg.seed,
        );
        let row = ablation_row(|| dnc_run(w.field.as_ref(), &spots, &cfg, &machine));
        print_row(&format!("{spot_count} spots"), row);
    }
}

/// Paper §3–4: texture tiling saves texture space but duplicates the
/// overlap-boundary spots and adds blend work; round-robin does neither.
fn ablation_tiling() {
    print_header("tiled vs round-robin partitioning (paper §3–4), atmospheric (scaled)");
    let w = atmospheric_scaled();
    for pipes in [2, 4] {
        let machine = MachineConfig::new(8, pipes);
        for (use_tiling, label) in [(false, "round-robin"), (true, "tiled")] {
            let cfg = SynthesisConfig {
                use_tiling,
                ..w.config
            };
            let row = ablation_row(|| dnc_run(w.field.as_ref(), &w.spots, &cfg, &machine));
            print_row(&format!("8p {pipes}g {label}"), row);
        }
    }
}

/// Paper §4: disc spots are transformed in software, "thus avoiding the high
/// synchronization overhead costs for setting transformation matrices for
/// each rendered spot"; the on-pipe variant pays that penalty.
fn ablation_transform() {
    print_header("spot transform (paper §4), vortex, 4000 discs, 4 procs x 2 pipes");
    let domain = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    let field = Vortex {
        omega: 1.5,
        center: domain.center(),
        domain,
    };
    let base = SynthesisConfig {
        texture_size: 256,
        spot_count: 4000,
        spot_radius: 0.02,
        spot_kind: SpotKind::Disc,
        ..SynthesisConfig::small_test()
    };
    let spots = generate_spots(base.spot_count, domain, 1.0, 1);
    let machine = MachineConfig::new(4, 2);
    for (transform_on_pipe, label) in [
        (false, "software transform"),
        (true, "on-pipe matrix loads"),
    ] {
        let cfg = SynthesisConfig {
            transform_on_pipe,
            ..base
        };
        let row = ablation_row(|| dnc_run(&field, &spots, &cfg, &machine));
        print_row(label, row);
    }
}

/// Sequential synthesis (eq 2.1) vs divide-and-conquer (eq 3.2) on the full
/// Onyx2 vs the CPU-only executor that bypasses the graphics subsystem.
fn ablation_executor() {
    let tasks = std::thread::available_parallelism().map_or(4, |n| n.get());
    let onyx2 = MachineConfig::onyx2_full();
    for w in [analytic_small(), atmospheric_scaled()] {
        print_header(&format!("executors, {}", w.name));
        let (field, spots, cfg) = (w.field.as_ref(), &w.spots, &w.config);
        let sequential = ablation_row(|| {
            let start = Instant::now();
            std::hint::black_box(synthesize_sequential(field, spots, cfg));
            (None, start.elapsed().as_secs_f64())
        });
        print_row("sequential", sequential);
        let dnc = ablation_row(|| dnc_run(field, spots, cfg, &onyx2));
        print_row("dnc 8p 4g", dnc);
        let cpu_only = ablation_row(|| {
            let wall = synthesize_cpu_only(field, spots, cfg, tasks).wall_seconds;
            (None, wall)
        });
        print_row(&format!("cpu-only {tasks} tasks"), cpu_only);
    }
}

fn save_gray(texture: &softpipe::Texture, out_dir: &Path, name: &str) {
    let fb = texture_to_framebuffer(
        texture,
        texture.width(),
        texture.height(),
        Colormap::Grayscale,
    );
    let path = out_dir.join(name);
    fb.save_ppm(&path).expect("write image");
    println!("wrote {}", path.display());
}
