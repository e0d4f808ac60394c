//! Spot filtering — post-processing of the synthesised texture.
//!
//! Enhanced spot noise adds a filtering step after blending ("additional spot
//! filtering operations may be applied to the map", pipeline step 3). The
//! filters here are the standard ones used with spot noise: a box blur, a
//! high-pass filter that removes the low-frequency blotches caused by the
//! finite number of spots, and a contrast stretch that maps the result into
//! the displayable range.

use softpipe::Texture;

/// Box blur with a square kernel of half-width `radius` texels, using a
/// separable two-pass implementation with edge clamping.
///
/// Both passes add whole row slices, so their inner loops are lane-wise adds
/// the compiler vectorizes. The horizontal pass adds the `2·radius + 1`
/// shifted source slices over the interior columns; only the `radius`
/// columns at each edge, whose windows leave the row, keep a clamped
/// per-texel loop. The vertical pass adds the `2·radius + 1` clamped rows of
/// the intermediate texture a whole row at a time. Each texel still sums its
/// taps from `0.0` in ascending tap order before scaling, so the output is
/// bit-identical to the per-texel formulation.
pub fn box_blur(texture: &Texture, radius: usize) -> Texture {
    if radius == 0 {
        return texture.clone();
    }
    let w = texture.width();
    let h = texture.height();
    let taps = 2 * radius + 1;
    let norm = 1.0 / taps as f32;
    // Columns `interior` have their whole window inside the row; the rest
    // are edge columns (all of them when `w <= 2 * radius`).
    let interior = radius.min(w)..w.saturating_sub(radius).max(radius.min(w));

    // Horizontal pass, one row at a time; `Texture::new` zeroes the
    // accumulators.
    let mut tmp = Texture::new(w, h);
    for (src, dst) in texture
        .data()
        .chunks_exact(w)
        .zip(tmp.data_mut().chunks_exact_mut(w))
    {
        if !interior.is_empty() {
            let acc = &mut dst[interior.clone()];
            for tap in 0..taps {
                add_assign(acc, &src[tap..]);
            }
            scale(acc, norm);
        }
        for x in (0..interior.start).chain(interior.end..w) {
            let mut sum = 0.0f32;
            for tap in 0..taps {
                sum += src[(x + tap).saturating_sub(radius).min(w - 1)];
            }
            dst[x] = sum * norm;
        }
    }
    // Vertical pass: output row `y` adds the clamped rows `y - r ..= y + r`.
    let mut out = Texture::new(w, h);
    let rows = tmp.data();
    for (y, acc) in out.data_mut().chunks_exact_mut(w).enumerate() {
        for tap in 0..taps {
            let sy = (y + tap).saturating_sub(radius).min(h - 1);
            add_assign(acc, &rows[sy * w..]);
        }
        scale(acc, norm);
    }
    out
}

/// `acc[i] += src[i]` over `acc`.
#[inline]
fn add_assign(acc: &mut [f32], src: &[f32]) {
    for (a, s) in acc.iter_mut().zip(src) {
        *a += *s;
    }
}

/// `acc[i] *= norm` over `acc`.
#[inline]
fn scale(acc: &mut [f32], norm: f32) {
    for a in acc {
        *a *= norm;
    }
}

/// High-pass filter: subtracts the local mean (a box blur of half-width
/// `radius`) from every texel. This removes the blotchy low-frequency
/// component of the noise while keeping the flow-aligned streaks.
pub fn highpass(texture: &Texture, radius: usize) -> Texture {
    let low = box_blur(texture, radius);
    let mut out = texture.clone();
    for (dst, lo) in out.data_mut().iter_mut().zip(low.data()) {
        *dst -= *lo;
    }
    out
}

/// Linearly rescales the texture so that `[mean - k*std, mean + k*std]` maps
/// onto `[0, 1]`, clamping outliers. This is the contrast enhancement applied
/// before the texture is mapped onto geometry for display.
pub fn contrast_stretch(texture: &Texture, k: f32) -> Texture {
    assert!(k > 0.0, "contrast factor must be positive");
    let mean = texture.mean();
    let std = texture.variance().sqrt();
    let mut out = texture.clone();
    if std <= f32::EPSILON {
        out.fill(0.5);
        return out;
    }
    let lo = mean - k * std;
    let span = 2.0 * k * std;
    for v in out.data_mut() {
        *v = ((*v - lo) / span).clamp(0.0, 1.0);
    }
    out
}

/// The standard display post-processing used by the examples and the figure
/// harness: high-pass with a kernel proportional to the spot radius, then a
/// 2-sigma contrast stretch.
pub fn standard_postprocess(texture: &Texture, spot_radius_pixels: f64) -> Texture {
    let radius = (spot_radius_pixels.round() as usize).max(1);
    contrast_stretch(&highpass(texture, radius), 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-texel box blur [`box_blur`] replaced: every output texel sums
    /// its clamped taps from `0.0` in ascending order, first along the row,
    /// then down the column.
    fn box_blur_per_texel(texture: &Texture, radius: usize) -> Texture {
        if radius == 0 {
            return texture.clone();
        }
        let w = texture.width();
        let h = texture.height();
        let r = radius as isize;
        let norm = 1.0 / (2 * radius + 1) as f32;
        let mut tmp = Texture::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0f32;
                for dx in -r..=r {
                    let sx = (x as isize + dx).clamp(0, w as isize - 1) as usize;
                    acc += texture.texel(sx, y);
                }
                *tmp.texel_mut(x, y) = acc * norm;
            }
        }
        let mut out = Texture::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0f32;
                for dy in -r..=r {
                    let sy = (y as isize + dy).clamp(0, h as isize - 1) as usize;
                    acc += tmp.texel(x, sy);
                }
                *out.texel_mut(x, y) = acc * norm;
            }
        }
        out
    }

    #[test]
    fn row_slice_blur_is_bit_identical_to_per_texel_blur() {
        // Values of mixed sign and magnitude, so the summation order shows
        // in the rounding.
        let noisy = |w, h| {
            Texture::from_fn(w, h, |u, v| {
                let s = ((u * 91.7 + v * 37.3).sin() * 4375.85).fract();
                s * if (u * 13.0) as i32 % 3 == 0 {
                    1e3
                } else {
                    1e-2
                }
            })
        };
        for (w, h, radius) in [
            (16, 16, 0),   // identity
            (64, 64, 3),   // interior and edge columns
            (8, 8, 4),     // w <= 2r: every column is an edge column
            (9, 9, 4),     // one interior column
            (5, 7, 9),     // radius >= width and height
            (40, 17, 6),   // non-square
            (17, 40, 6),   // non-square, taller than wide
            (1, 32, 2),    // one texel wide
            (32, 1, 2),    // one texel high
            (1, 1, 3),     // a single texel
            (256, 256, 9), // the display filter's size
        ] {
            let t = noisy(w, h);
            let fast = box_blur(&t, radius);
            let slow = box_blur_per_texel(&t, radius);
            assert_eq!(
                fast.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                slow.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{w}x{h} r={radius}"
            );
        }
    }

    fn ramp(n: usize) -> Texture {
        Texture::from_fn(n, n, |u, v| u + 0.5 * v)
    }

    #[test]
    fn zero_radius_blur_is_identity() {
        let t = ramp(16);
        let b = box_blur(&t, 0);
        assert_eq!(t.absolute_difference(&b), 0.0);
    }

    #[test]
    fn blur_preserves_constant_textures() {
        let mut t = Texture::new(16, 16);
        t.fill(0.7);
        let b = box_blur(&t, 3);
        assert!(b.data().iter().all(|&v| (v - 0.7).abs() < 1e-5));
    }

    #[test]
    fn blur_reduces_variance() {
        let t = Texture::from_fn(32, 32, |u, v| (u * 37.0).sin() * (v * 23.0).cos());
        let b = box_blur(&t, 2);
        assert!(b.variance() < t.variance());
        // Mean is (approximately) preserved by the normalised kernel.
        assert!((b.mean() - t.mean()).abs() < 0.02);
    }

    #[test]
    fn highpass_removes_mean_and_low_frequency() {
        // A pure low-frequency ramp is almost entirely removed by the
        // high-pass filter (apart from edge effects).
        let t = ramp(64);
        let hp = highpass(&t, 8);
        assert!(hp.mean().abs() < 0.05);
        // Interior texels are close to zero.
        let mut interior_max: f32 = 0.0;
        for y in 16..48 {
            for x in 16..48 {
                interior_max = interior_max.max(hp.texel(x, y).abs());
            }
        }
        assert!(interior_max < 0.05, "interior residue {interior_max}");
    }

    #[test]
    fn highpass_keeps_high_frequency_detail() {
        let t = Texture::from_fn(
            64,
            64,
            |u, _| if (u * 32.0) as i32 % 2 == 0 { 1.0 } else { 0.0 },
        );
        let hp = highpass(&t, 8);
        // The checker pattern survives with roughly half amplitude around 0.
        assert!(hp.variance() > 0.1 * t.variance());
    }

    #[test]
    fn contrast_stretch_maps_into_unit_range() {
        let t = Texture::from_fn(32, 32, |u, v| 10.0 * (u - 0.5) + 3.0 * v);
        let c = contrast_stretch(&t, 2.0);
        let (lo, hi) = c.range();
        assert!(lo >= 0.0 && hi <= 1.0);
        assert!(hi > lo, "stretched texture is flat");
        // Constant textures map to 0.5 rather than dividing by zero.
        let mut flat = Texture::new(8, 8);
        flat.fill(3.0);
        assert!(contrast_stretch(&flat, 2.0)
            .data()
            .iter()
            .all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn contrast_stretch_rejects_nonpositive_k() {
        let _ = contrast_stretch(&ramp(8), 0.0);
    }

    #[test]
    fn standard_postprocess_output_is_displayable() {
        let t = Texture::from_fn(64, 64, |u, v| (u * 31.0).sin() + (v * 17.0).cos());
        let p = standard_postprocess(&t, 4.0);
        let (lo, hi) = p.range();
        assert!(lo >= 0.0 && hi <= 1.0);
        assert!(p.variance() > 0.0);
    }
}
