//! Integration tests of the texture-tiling trade-off and of the analytic
//! performance model against the paper's qualitative observations.

use softpipe::cost::{CpuWork, PipeWork};
use softpipe::machine::MachineConfig;
use spotnoise::config::{SpotKind, SynthesisConfig};
use spotnoise::dnc::synthesize_dnc;
use spotnoise::perfmodel::predict_even_split;
use spotnoise::spot::generate_spots;
use spotnoise_bench::{ablation_row, analytic_small, paper_table1, paper_table2};

/// Work totals per texture for a paper workload, derived from its config.
fn work_totals(cfg: &SynthesisConfig, fragments_per_spot: u64) -> (CpuWork, PipeWork) {
    let (rows, _cols) = match cfg.spot_kind {
        spotnoise::config::SpotKind::Bent { rows, cols } => (rows, cols),
        spotnoise::config::SpotKind::Disc => (1, 4),
    };
    let cpu = CpuWork {
        streamline_steps: (cfg.spot_count * rows) as u64,
        mesh_vertices: cfg.vertices_per_texture() as u64,
        spots: cfg.spot_count as u64,
    };
    let pipe = PipeWork {
        vertices: cfg.vertices_per_texture() as u64,
        fragments: cfg.spot_count as u64 * fragments_per_spot,
        state_changes: 0,
        blend_texels: 0,
    };
    (cpu, pipe)
}

/// Correlation between the published table and the model's prediction of the
/// same cells (on speedups relative to the (1,1) cell).
fn shape_agreement(
    published: &[(usize, usize, f64)],
    cfg: &SynthesisConfig,
    fragments: u64,
) -> f64 {
    let (cpu, pipe) = work_totals(cfg, fragments);
    let base_pub = published
        .iter()
        .find(|(p, g, _)| *p == 1 && *g == 1)
        .unwrap()
        .2;
    let base_sim = predict_even_split(&MachineConfig::new(1, 1), &cpu, &pipe, cfg.texture_size)
        .textures_per_second;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (p, g, v) in published {
        let sim = predict_even_split(&MachineConfig::new(*p, *g), &cpu, &pipe, cfg.texture_size)
            .textures_per_second;
        xs.push(v / base_pub);
        ys.push(sim / base_sim);
    }
    pearson(&xs, &ys)
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum::<f64>().sqrt();
    let sy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum::<f64>().sqrt();
    cov / (sx * sy).max(1e-12)
}

#[test]
fn perf_model_reproduces_table1_shape() {
    let r = shape_agreement(&paper_table1(), &SynthesisConfig::atmospheric_paper(), 600);
    assert!(r > 0.85, "Table 1 shape correlation too low: {r}");
}

#[test]
fn perf_model_reproduces_table2_shape() {
    let r = shape_agreement(&paper_table2(), &SynthesisConfig::turbulence_paper(), 40);
    assert!(r > 0.85, "Table 2 shape correlation too low: {r}");
}

#[test]
fn saturation_point_is_roughly_four_processors_per_pipe() {
    // Paper: "using more processors does indeed improve the texture
    // generation rate, with a maximum of approximately 4 processors per
    // graphics pipe."
    let cfg = SynthesisConfig::atmospheric_paper();
    let (cpu, pipe) = work_totals(&cfg, 600);
    let rate = |p: usize| {
        predict_even_split(&MachineConfig::new(p, 1), &cpu, &pipe, cfg.texture_size)
            .textures_per_second
    };
    let r2 = rate(2);
    let r4 = rate(4);
    let r8 = rate(8);
    assert!(
        r4 > 1.2 * r2,
        "4 procs should clearly beat 2 ({r4} vs {r2})"
    );
    assert!(
        r8 < 1.15 * r4,
        "8 procs should not beat 4 by much ({r8} vs {r4})"
    );
}

#[test]
fn tiling_duplicates_work_but_preserves_the_texture() {
    let w = analytic_small();
    let machine = MachineConfig::new(4, 4);
    let mut tiled_cfg = w.config;
    tiled_cfg.use_tiling = true;
    let spots = generate_spots(w.config.spot_count, w.field.domain(), 1.0, 99);
    let round_robin = synthesize_dnc(w.field.as_ref(), &spots, &w.config, &machine);
    let tiled = synthesize_dnc(w.field.as_ref(), &spots, &tiled_cfg, &machine);

    // Same texture either way (up to float reassociation).
    let mean_diff = round_robin.texture.absolute_difference(&tiled.texture)
        / (w.config.texture_size * w.config.texture_size) as f64;
    assert!(
        mean_diff < 1e-4,
        "partitioning changed the texture: {mean_diff}"
    );

    // The tiled run did strictly more CPU work (duplicated boundary spots)
    // but strictly less composition work per texel than full additive
    // gathering of four full-frame partials.
    assert!(tiled.duplicated_spots > 0);
    assert!(tiled.total_cpu_work().spots > round_robin.total_cpu_work().spots);
    assert!(tiled.compose_texels < round_robin.compose_texels);
}

#[test]
fn bus_utilisation_stays_below_the_papers_bound() {
    // Paper §5.1: the bus is not the limiting factor (116 MB/s of 800 MB/s).
    let cfg = SynthesisConfig::atmospheric_paper();
    let (cpu, pipe) = work_totals(&cfg, 600);
    let machine = MachineConfig::onyx2_full();
    let pred = predict_even_split(&machine, &cpu, &pipe, cfg.texture_size);
    let bytes_per_texture = machine.cost.vertex_bytes(pipe.vertices) as f64;
    let bytes_per_second = bytes_per_texture * pred.textures_per_second;
    let utilisation = bytes_per_second / machine.cost.bus_bytes_per_second;
    assert!(utilisation < 0.5, "bus utilisation {utilisation} too high");
    assert!(
        utilisation > 0.01,
        "bus utilisation {utilisation} suspiciously low"
    );
}

/// Simulated textures/s of one `reproduce ablation-*` row at (4,2).
fn simulated_row(cfg: &SynthesisConfig) -> f64 {
    let w = analytic_small();
    let spots = generate_spots(cfg.spot_count, w.field.domain(), 1.0, cfg.seed);
    let machine = MachineConfig::new(4, 2);
    let (simulated, _host) = ablation_row(|| {
        let out = synthesize_dnc(w.field.as_ref(), &spots, cfg, &machine);
        (Some(out.predicted.textures_per_second), out.wall_seconds)
    });
    simulated.unwrap()
}

#[test]
fn model_follows_the_papers_mesh_and_spot_count_tradeoffs() {
    let base = SynthesisConfig {
        texture_size: 64,
        spot_count: 200,
        spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
        ..analytic_small().config
    };
    // Paper §5.1: coarser bent-spot meshes are faster.
    let by_mesh: Vec<f64> = [(32, 17), (16, 9), (12, 7), (8, 5), (4, 3)]
        .into_iter()
        .map(|(rows, cols)| {
            simulated_row(&SynthesisConfig {
                spot_kind: SpotKind::Bent { rows, cols },
                ..base
            })
        })
        .collect();
    assert!(
        by_mesh.windows(2).all(|w| w[1] > w[0]),
        "simulated rate must rise as the mesh coarsens: {by_mesh:?}"
    );
    // Paper §5.2: fewer spots are faster.
    let by_count: Vec<f64> = [100, 200, 400, 800]
        .into_iter()
        .map(|spot_count| simulated_row(&SynthesisConfig { spot_count, ..base }))
        .collect();
    assert!(
        by_count.windows(2).all(|w| w[1] < w[0]),
        "simulated rate must fall as the spot count grows: {by_count:?}"
    );
}
