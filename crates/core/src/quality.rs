//! Texture-quality metrics.
//!
//! The paper trades speed against quality ("speed can be traded for quality
//! and higher speeds than presented in the paper are possible") but never
//! defines a quantitative quality measure. `reproduce ablation-*` measures
//! the speed side of each trade-off; for the quality side the regression
//! tests need one, so this module provides the two standard measures used
//! in the later texture-based flow-visualization literature:
//!
//! * **directional autocorrelation** — the correlation of the texture with a
//!   copy of itself shifted *along* the local flow direction should be much
//!   higher than with a copy shifted *across* it; their ratio (the
//!   *anisotropy*) measures how well the texture encodes the flow, and
//! * **contrast** — the texture variance, which drops when too few spots (or
//!   too-small spots) cover the texture.
//!
//! These metrics are what the tests use to verify that spot deformation
//! actually works (isotropic noise has anisotropy ≈ 1, flow-deformed spot
//! noise clearly > 1) and that quality degrades gracefully along the
//! parameters `reproduce ablation-*` sweeps.

use flowfield::{Vec2, VectorField};
use softpipe::Texture;

/// Correlation of the texture with itself shifted by `offset` pixels,
/// computed over all texels whose shifted position stays inside the texture.
/// Returns a value in `[-1, 1]`; degenerate (constant) textures return 0.
pub fn shifted_correlation(texture: &Texture, offset: (f64, f64)) -> f64 {
    let w = texture.width();
    let h = texture.height();
    let (dx, dy) = offset;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let sx = x as f64 + dx;
            let sy = y as f64 + dy;
            if sx < 0.0 || sy < 0.0 || sx >= (w - 1) as f64 || sy >= (h - 1) as f64 {
                continue;
            }
            xs.push(texture.texel(x, y) as f64);
            ys.push(
                texture.sample_bilinear((sx as f32 + 0.5) / w as f32, (sy as f32 + 0.5) / h as f32)
                    as f64,
            );
        }
    }
    pearson(&xs, &ys)
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    let denom = (vx * vy).sqrt();
    if denom <= 1e-300 {
        0.0
    } else {
        cov / denom
    }
}

/// Flow-alignment report of a spot-noise texture with respect to the field
/// it was synthesised from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentReport {
    /// Mean correlation for shifts along the local flow direction.
    pub along_flow: f64,
    /// Mean correlation for shifts perpendicular to the local flow.
    pub across_flow: f64,
    /// Shift distance used, in pixels.
    pub shift_pixels: f64,
}

impl AlignmentReport {
    /// Anisotropy ratio `along / across` (clamped away from division by
    /// zero). Values clearly above 1 mean the texture is correlated along
    /// stream lines — the visual signature of spot noise on a flow field.
    pub fn anisotropy(&self) -> f64 {
        let across = self.across_flow.max(1e-3);
        (self.along_flow / across).max(0.0)
    }
}

/// Measures how strongly the texture is correlated along versus across the
/// flow. The texture is sampled on a coarse lattice; at every sample the
/// local flow direction determines the along/across shift directions, and the
/// per-sample correlations of small patches are averaged.
pub fn flow_alignment(
    texture: &Texture,
    field: &dyn VectorField,
    shift_pixels: f64,
    lattice: usize,
) -> AlignmentReport {
    assert!(lattice >= 2, "need at least a 2x2 sampling lattice");
    let w = texture.width();
    let h = texture.height();
    let domain = field.domain();
    let patch = 8usize; // half-size of the correlation patch in texels
    let mut along_vals = Vec::new();
    let mut across_vals = Vec::new();

    for j in 0..lattice {
        for i in 0..lattice {
            let u = (i as f64 + 0.5) / lattice as f64;
            let v = (j as f64 + 0.5) / lattice as f64;
            let p = domain.from_unit(Vec2::new(u, v));
            let dir = field.velocity(p).normalized();
            if dir == Vec2::ZERO {
                continue;
            }
            let cx = (u * w as f64) as isize;
            let cy = (v * h as f64) as isize;
            // Extract a small patch and correlate with along/across shifts.
            let (mut base, mut along, mut across) = (Vec::new(), Vec::new(), Vec::new());
            for dy in -(patch as isize)..=(patch as isize) {
                for dx in -(patch as isize)..=(patch as isize) {
                    let x = cx + dx;
                    let y = cy + dy;
                    if x < 0 || y < 0 || x >= w as isize || y >= h as isize {
                        continue;
                    }
                    let sample = |ox: f64, oy: f64| -> Option<f32> {
                        let sx = x as f64 + ox;
                        let sy = y as f64 + oy;
                        if sx < 0.0 || sy < 0.0 || sx >= (w - 1) as f64 || sy >= (h - 1) as f64 {
                            return None;
                        }
                        Some(texture.sample_bilinear(
                            (sx as f32 + 0.5) / w as f32,
                            (sy as f32 + 0.5) / h as f32,
                        ))
                    };
                    let a = sample(dir.x * shift_pixels, dir.y * shift_pixels);
                    let c = sample(-dir.y * shift_pixels, dir.x * shift_pixels);
                    if let (Some(a), Some(c)) = (a, c) {
                        base.push(texture.texel(x as usize, y as usize) as f64);
                        along.push(a as f64);
                        across.push(c as f64);
                    }
                }
            }
            if base.len() > 16 {
                along_vals.push(pearson(&base, &along));
                across_vals.push(pearson(&base, &across));
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    AlignmentReport {
        along_flow: mean(&along_vals),
        across_flow: mean(&across_vals),
        shift_pixels,
    }
}

/// Tolerance on the texture-variance ratio between footprint-sampled and
/// exact synthesis: `|variance(approx)/variance(exact) − 1|` must stay
/// below this. Variance is the paper's "contrast" — the quality measure the
/// speed-for-quality trade is gated on. Measured headroom: random
/// disc/bent workloads sit well under half of this bound.
pub const FOOTPRINT_VARIANCE_TOLERANCE: f64 = 0.25;

/// Tolerance on the mean absolute texel error between footprint-sampled and
/// exact synthesis, normalized by the exact texture's standard deviation
/// (so it is scale-free in the spot intensity amplitude).
pub const FOOTPRINT_MEAN_ERROR_TOLERANCE: f64 = 0.5;

/// Quality deltas of an approximate synthesis against the exact one —
/// the gate for [`SamplingMode::Footprint`](crate::config::SamplingMode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingQuality {
    /// `variance(approx) / variance(exact)` (1.0 = contrast preserved).
    pub variance_ratio: f64,
    /// Mean absolute texel error divided by the exact texture's standard
    /// deviation (0.0 = identical).
    pub normalized_mean_error: f64,
}

impl SamplingQuality {
    /// True when both deltas sit within the footprint tolerances.
    pub fn within_footprint_tolerance(&self) -> bool {
        (self.variance_ratio - 1.0).abs() <= FOOTPRINT_VARIANCE_TOLERANCE
            && self.normalized_mean_error <= FOOTPRINT_MEAN_ERROR_TOLERANCE
    }
}

/// Measures how far an approximate synthesis drifted from the exact one.
///
/// # Panics
/// Panics when the texture sizes disagree.
pub fn sampling_quality(exact: &Texture, approx: &Texture) -> SamplingQuality {
    assert_eq!(exact.width(), approx.width(), "texture widths differ");
    assert_eq!(exact.height(), approx.height(), "texture heights differ");
    let exact_var = exact.variance() as f64;
    let approx_var = approx.variance() as f64;
    let variance_ratio = if exact_var > 1e-12 {
        approx_var / exact_var
    } else if approx_var > 1e-12 {
        f64::INFINITY
    } else {
        1.0
    };
    let std = exact_var.sqrt();
    let mean_abs = exact.absolute_difference(approx) / exact.data().len() as f64;
    let normalized_mean_error = if std > 1e-12 {
        mean_abs / std
    } else if mean_abs > 1e-12 {
        f64::INFINITY
    } else {
        0.0
    };
    SamplingQuality {
        variance_ratio,
        normalized_mean_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SamplingMode, SpotKind, SynthesisConfig};
    use crate::spot::generate_spots;
    use crate::synth::synthesize_sequential;
    use flowfield::analytic::Uniform;
    use flowfield::Rect;

    fn domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
    }

    #[test]
    fn shifted_correlation_of_constant_texture_is_zero() {
        let mut t = Texture::new(32, 32);
        t.fill(0.5);
        assert_eq!(shifted_correlation(&t, (3.0, 0.0)), 0.0);
    }

    #[test]
    fn zero_shift_correlation_is_one() {
        let t = Texture::from_fn(64, 64, |u, v| (u * 40.0).sin() + (v * 23.0).cos());
        let c = shifted_correlation(&t, (0.0, 0.0));
        assert!(c > 0.99, "self correlation {c}");
    }

    #[test]
    fn horizontal_stripes_correlate_along_not_across() {
        // A texture of horizontal stripes is perfectly correlated under
        // horizontal shifts and strongly anti-correlated under half-period
        // vertical shifts.
        let t = Texture::from_fn(64, 64, |_, v| (v * 64.0 * std::f32::consts::PI / 4.0).sin());
        let along = shifted_correlation(&t, (5.0, 0.0));
        let across = shifted_correlation(&t, (0.0, 4.0));
        assert!(along > 0.9, "along {along}");
        assert!(across < along);
    }

    #[test]
    fn flow_deformed_spot_noise_is_anisotropic_along_the_flow() {
        // Spot noise over a uniform horizontal flow with strong stretching
        // must be clearly more correlated along x than along y; the same
        // synthesis with stretching disabled must be (nearly) isotropic.
        let field = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: domain(),
        };
        let spots = generate_spots(1500, domain(), 1.0, 7);

        let stretched_cfg = SynthesisConfig {
            texture_size: 192,
            spot_count: 1500,
            spot_radius: 0.02,
            max_stretch: 6.0,
            spot_kind: SpotKind::Disc,
            ..SynthesisConfig::small_test()
        };
        let isotropic_cfg = SynthesisConfig {
            max_stretch: 1.0,
            ..stretched_cfg
        };

        let stretched = synthesize_sequential(&field, &spots, &stretched_cfg);
        let isotropic = synthesize_sequential(&field, &spots, &isotropic_cfg);

        let shift = stretched_cfg.spot_radius_pixels();
        let a_stretched = flow_alignment(&stretched.texture, &field, shift, 4);
        let a_isotropic = flow_alignment(&isotropic.texture, &field, shift, 4);

        assert!(
            a_stretched.anisotropy() > 1.3,
            "stretched anisotropy {:?}",
            a_stretched
        );
        assert!(
            a_stretched.anisotropy() > a_isotropic.anisotropy(),
            "stretched {:?} vs isotropic {:?}",
            a_stretched,
            a_isotropic
        );
        // Along-flow correlation is also absolutely higher for the stretched
        // texture.
        assert!(a_stretched.along_flow > a_isotropic.along_flow - 0.05);
    }

    #[test]
    fn alignment_report_anisotropy_is_safe_for_tiny_across() {
        let r = AlignmentReport {
            along_flow: 0.5,
            across_flow: 0.0,
            shift_pixels: 4.0,
        };
        assert!(r.anisotropy().is_finite());
        let negative = AlignmentReport {
            along_flow: -0.2,
            across_flow: 0.1,
            shift_pixels: 4.0,
        };
        assert_eq!(negative.anisotropy(), 0.0);
    }

    #[test]
    fn sampling_quality_of_identical_textures_is_perfect() {
        let t = Texture::from_fn(32, 32, |u, v| (u * 17.0).sin() * (v * 9.0).cos());
        let q = sampling_quality(&t, &t);
        assert_eq!(q.variance_ratio, 1.0);
        assert_eq!(q.normalized_mean_error, 0.0);
        assert!(q.within_footprint_tolerance());
    }

    #[test]
    fn sampling_quality_flags_gross_divergence() {
        let t = Texture::from_fn(32, 32, |u, v| (u * 17.0).sin() * (v * 9.0).cos());
        let mut flat = Texture::new(32, 32);
        flat.fill(0.0);
        let q = sampling_quality(&t, &flat);
        assert!(!q.within_footprint_tolerance(), "{q:?}");
        // Degenerate exact textures do not divide by zero.
        let q = sampling_quality(&flat, &t);
        assert!(q.variance_ratio.is_infinite());
        let q = sampling_quality(&flat, &flat);
        assert!(q.within_footprint_tolerance());
    }

    #[test]
    fn footprint_synthesis_keeps_anisotropy_and_contrast() {
        // The footprint sampler's license: spot statistics survive coarse
        // per-footprint sampling. Synthesize the same stretched-spot field
        // exactly and with footprint sampling; contrast (variance), the
        // per-texel error, and the flow-alignment signature must all stay
        // within the gated tolerances.
        let field = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: domain(),
        };
        let exact_cfg = SynthesisConfig {
            texture_size: 192,
            spot_count: 1200,
            spot_radius: 0.025,
            max_stretch: 5.0,
            spot_kind: SpotKind::Bent { rows: 12, cols: 3 },
            ..SynthesisConfig::small_test()
        };
        let footprint_cfg = SynthesisConfig {
            sampling: SamplingMode::Footprint,
            ..exact_cfg
        };
        let spots = generate_spots(1200, domain(), 1.0, 23);
        let exact = synthesize_sequential(&field, &spots, &exact_cfg);
        let approx = synthesize_sequential(&field, &spots, &footprint_cfg);
        let q = sampling_quality(&exact.texture, &approx.texture);
        assert!(q.within_footprint_tolerance(), "{q:?}");

        let shift = exact_cfg.spot_radius_pixels();
        let a_exact = flow_alignment(&exact.texture, &field, shift, 4);
        let a_approx = flow_alignment(&approx.texture, &field, shift, 4);
        assert!(
            a_approx.anisotropy() > 1.0 + 0.7 * (a_exact.anisotropy() - 1.0),
            "footprint sampling lost the flow signature: exact {:?} vs footprint {:?}",
            a_exact,
            a_approx
        );
    }

    #[test]
    #[should_panic(expected = "2x2 sampling lattice")]
    fn flow_alignment_rejects_degenerate_lattice() {
        let t = Texture::new(16, 16);
        let field = Uniform {
            velocity: Vec2::new(1.0, 0.0),
            domain: domain(),
        };
        let _ = flow_alignment(&t, &field, 2.0, 1);
    }
}
