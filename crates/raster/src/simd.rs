//! Explicit SIMD kernels behind runtime dispatch.
//!
//! The span fills, blend sweeps and gather folds are the fragment-bound inner
//! loops of the software pipe. This module gives them explicit `core::arch`
//! kernels — SSE2 (the x86_64 baseline) and AVX2 on x86_64, NEON on aarch64
//! — selected once per process by runtime feature detection, with scalar
//! code as the portable fallback and correctness oracle:
//!
//! * span fills of the span walker: `fill_bilinear_2d` (Exact mode, both
//!   texture coordinates vary along the row: four 2-D taps per pixel, AVX2
//!   gathers them), `fill_hoisted` (Exact mode, `v` constant along the
//!   row: one prefetched texture row pair), `fill_nearest_2d` and
//!   `fill_nearest_row` (their Footprint-mode nearest-fetch twins) and
//!   `blend_uniform` (uniform texture rows);
//! * the gather folds `fold_copy` and `fold_acc`, and `copy_slice`.
//!
//! # Bit identity
//!
//! `SamplingMode::Exact` is pinned to seed hashes, so every kernel here must
//! be **bit-identical** to its scalar fallback:
//!
//! * Kernels use separate multiply and add only — never fused multiply-add.
//!   FMA skips the intermediate rounding of the multiply, so a contracted
//!   `a*b + c` differs from the scalar path in the last ulp; `rustc` never
//!   contracts on its own, and neither do we.
//! * Texture coordinates are evaluated per lane in `f64` with exactly the
//!   scalar operation order (`row_base + ((px + 0.5) - ox) * ddx`) and then
//!   narrowed to `f32` (`cvtpd→ps` rounds to nearest-even, same as an `as`
//!   cast).
//! * Bilinear texel indices come from truncating the clamped coordinate, which
//!   lies in `[0, len − 1]`, where truncation equals `floor` (the scalar
//!   sampler, `bilinear_sample`, casts instead of calling libm `floorf`).
//!   A NaN coordinate gives the scalar sampler index 0 and a NaN lerp
//!   weight; the vector levels do the same (so the sample is NaN at every
//!   level), and ±inf clamps to the edge texel. Every gathered index is
//!   inside the texture for every input.
//! * `Max` blending is the explicit compare-select `if src > dst { src }
//!   else { dst }` in both the scalar path ([`BlendMode::apply`]) and the
//!   vector kernels (`cmpgt` + select). `f32::max`/`maxps` could not be used:
//!   their signed-zero tie results disagree with each other *and* between
//!   build profiles, while the compare-select keeps `dst` on every tie,
//!   everywhere.
//!
//! The proptest suite at the bottom pins every kernel to its scalar twin
//! bit-for-bit over random lengths (including sub-lane tails), blend modes
//! and slice offsets, at every level the host can run; `fill_bilinear_2d` is
//! pinned directly to the per-pixel oracle, `Texture::sample_bilinear`.
//!
//! # Dispatch
//!
//! [`active`] resolves once per process: the `SPOTNOISE_SIMD` environment
//! variable (`off`/`scalar`/`sse2`/`avx2`/`neon`) overrides detection when it
//! names a level the host supports; otherwise the best detected level wins.
//! [`force`] is a process-global test/bench hook that takes precedence over
//! both — safe to flip mid-run precisely because all levels produce identical
//! bits.

use crate::blend::BlendMode;
use crate::raster::{bilinear_sample, nearest_index, AttrRow};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A SIMD dispatch level: which kernel implementation the hot loops run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable scalar fallback — the pre-SIMD code, and the oracle the
    /// vector kernels are pinned against.
    Scalar = 0,
    /// 128-bit SSE2 kernels (the x86_64 baseline, always available there).
    Sse2 = 1,
    /// 256-bit AVX2 kernels (x86_64, detected at runtime).
    Avx2 = 2,
    /// 128-bit NEON kernels (the aarch64 baseline).
    Neon = 3,
}

impl SimdLevel {
    /// Canonical lowercase name, as used by `SPOTNOISE_SIMD` and recorded in
    /// bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }

    /// Parses a `SPOTNOISE_SIMD` value; `off` is an alias for `scalar`.
    pub fn from_name(name: &str) -> Option<SimdLevel> {
        match name {
            "off" | "scalar" => Some(SimdLevel::Scalar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            "neon" => Some(SimdLevel::Neon),
            _ => None,
        }
    }
}

/// The best level the host supports, by runtime feature detection.
pub fn detected() -> SimdLevel {
    dispatch().detected
}

/// Every level this process can run, scalar first. The bit-identity tests
/// iterate this to pin each available kernel set against the scalar oracle.
pub fn available() -> Vec<SimdLevel> {
    match detected() {
        SimdLevel::Scalar => vec![SimdLevel::Scalar],
        SimdLevel::Sse2 => vec![SimdLevel::Scalar, SimdLevel::Sse2],
        SimdLevel::Avx2 => vec![SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2],
        SimdLevel::Neon => vec![SimdLevel::Scalar, SimdLevel::Neon],
    }
}

/// The level the kernels dispatch to right now: a [`force`] override if one
/// is set, else the once-per-process resolution of `SPOTNOISE_SIMD` and
/// feature detection.
pub fn active() -> SimdLevel {
    match FORCED.load(Ordering::Relaxed) {
        FORCE_NONE => dispatch().resolved,
        raw => level_from_u8(raw),
    }
}

/// The raw `SPOTNOISE_SIMD` value this process was started with, if any —
/// recorded in bench artifacts so banked numbers name their dispatch leg.
pub fn env_override() -> Option<&'static str> {
    dispatch().env.as_deref()
}

/// Process-global dispatch override for tests and benches: `Some(level)`
/// pins every kernel to `level`, `None` restores normal resolution. Takes
/// precedence over `SPOTNOISE_SIMD`. Safe to flip while other threads run —
/// every level produces identical bits, so a racing kernel only changes
/// *which* implementation computes them.
///
/// # Panics
/// Panics when `level` is not in [`available`] on this host.
pub fn force(level: Option<SimdLevel>) {
    match level {
        None => FORCED.store(FORCE_NONE, Ordering::Relaxed),
        Some(level) => {
            assert!(
                available().contains(&level),
                "SIMD level {} is not available on this host (detected: {})",
                level.name(),
                detected().name()
            );
            FORCED.store(level as u8, Ordering::Relaxed);
        }
    }
}

const FORCE_NONE: u8 = u8::MAX;
static FORCED: AtomicU8 = AtomicU8::new(FORCE_NONE);

/// Serializes the unit tests that [`force`] a level, so no test observes a
/// level another test forced.
#[cfg(test)]
pub(crate) static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn level_from_u8(raw: u8) -> SimdLevel {
    match raw {
        0 => SimdLevel::Scalar,
        1 => SimdLevel::Sse2,
        2 => SimdLevel::Avx2,
        _ => SimdLevel::Neon,
    }
}

struct Dispatch {
    detected: SimdLevel,
    resolved: SimdLevel,
    env: Option<String>,
}

fn dispatch() -> &'static Dispatch {
    static DISPATCH: OnceLock<Dispatch> = OnceLock::new();
    DISPATCH.get_or_init(|| {
        let detected = detect();
        let env = std::env::var("SPOTNOISE_SIMD")
            .ok()
            .filter(|v| !v.is_empty());
        let resolved = resolve(env.as_deref(), detected);
        Dispatch {
            detected,
            resolved,
            env,
        }
    })
}

/// Pure resolution of the `SPOTNOISE_SIMD` override against the detected
/// level: a recognized, host-supported request wins; anything else falls
/// back to detection (with a warning, so a typo in CI cannot silently run
/// the wrong leg).
fn resolve(env: Option<&str>, detected: SimdLevel) -> SimdLevel {
    let Some(raw) = env else {
        return detected;
    };
    match SimdLevel::from_name(raw) {
        Some(requested) => {
            let supported = match requested {
                SimdLevel::Scalar => true,
                SimdLevel::Sse2 => cfg!(target_arch = "x86_64"),
                SimdLevel::Avx2 => cfg!(target_arch = "x86_64") && detected >= SimdLevel::Avx2,
                SimdLevel::Neon => cfg!(target_arch = "aarch64"),
            };
            if supported {
                requested
            } else {
                eprintln!(
                    "SPOTNOISE_SIMD={raw}: level not supported on this host, \
                     using detected level '{}'",
                    detected.name()
                );
                detected
            }
        }
        None => {
            eprintln!(
                "SPOTNOISE_SIMD={raw}: unknown level (expected off|scalar|sse2|avx2|neon), \
                 using detected level '{}'",
                detected.name()
            );
            detected
        }
    }
}

fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline.
            SimdLevel::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is part of the aarch64 baseline.
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

// ---------------------------------------------------------------------------
// Level-dispatched kernels. Each entry point matches on the level once per
// call (the callers hoist `active()` per triangle / per compose pass, so the
// match runs per row fill or per chunk, not per texel). Arms for the other
// architecture fall through to scalar; they are unreachable in practice
// because `available()` never offers them.
// ---------------------------------------------------------------------------

/// [`BlendMode::apply_uniform`] at a dispatch level: blends one value across
/// `dst` (the uniform-row fast path of disc/flat spot fills).
pub(crate) fn blend_uniform(level: SimdLevel, mode: BlendMode, dst: &mut [f32], src: f32) {
    match level {
        SimdLevel::Scalar => mode.apply_uniform(dst, src),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::blend_uniform_sse2(mode, dst, src) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::blend_uniform_avx2(mode, dst, src) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::blend_uniform_neon(mode, dst, src) },
        #[allow(unreachable_patterns)]
        _ => mode.apply_uniform(dst, src),
    }
}

/// The hoisted-bilinear span fill: `v` is constant along the row, so the
/// vertical half of the bilinear kernel (`tex_row0`/`tex_row1`, `ty`) is
/// precomputed and each pixel needs only the horizontal lerp. `span[0]`
/// corresponds to pixel column `lo`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_hoisted(
    level: SimdLevel,
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    tex_row0: &[f32],
    tex_row1: &[f32],
    ty: f32,
    intensity: f32,
    blend: BlendMode,
) {
    match level {
        SimdLevel::Scalar => {
            scalar_fill_hoisted(span, lo, u_row, tex_row0, tex_row1, ty, intensity, blend)
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe {
            x86::fill_hoisted_sse2(span, lo, u_row, tex_row0, tex_row1, ty, intensity, blend)
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe {
            x86::fill_hoisted_avx2(span, lo, u_row, tex_row0, tex_row1, ty, intensity, blend)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe {
            neon::fill_hoisted_neon(span, lo, u_row, tex_row0, tex_row1, ty, intensity, blend)
        },
        #[allow(unreachable_patterns)]
        _ => scalar_fill_hoisted(span, lo, u_row, tex_row0, tex_row1, ty, intensity, blend),
    }
}

/// The row-constant nearest span fill of footprint mode: one prefetched
/// texture row serves the whole span, each pixel takes one clamped fetch.
pub(crate) fn fill_nearest_row(
    level: SimdLevel,
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    tex_row: &[f32],
    intensity: f32,
    blend: BlendMode,
) {
    match level {
        SimdLevel::Scalar => scalar_fill_nearest_row(span, lo, u_row, tex_row, intensity, blend),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe {
            x86::fill_nearest_row_sse2(span, lo, u_row, tex_row, intensity, blend)
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe {
            x86::fill_nearest_row_avx2(span, lo, u_row, tex_row, intensity, blend)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe {
            neon::fill_nearest_row_neon(span, lo, u_row, tex_row, intensity, blend)
        },
        #[allow(unreachable_patterns)]
        _ => scalar_fill_nearest_row(span, lo, u_row, tex_row, intensity, blend),
    }
}

/// The general nearest span fill of footprint mode: both texture coordinates
/// vary along the row, each pixel takes one 2-D clamped fetch from `texels`
/// (a `tw`×`th` texture).
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_nearest_2d(
    level: SimdLevel,
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    v_row: AttrRow,
    texels: &[f32],
    tw: usize,
    th: usize,
    intensity: f32,
    blend: BlendMode,
) {
    match level {
        SimdLevel::Scalar => {
            scalar_fill_nearest_2d(span, lo, u_row, v_row, texels, tw, th, intensity, blend)
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe {
            x86::fill_nearest_2d_sse2(span, lo, u_row, v_row, texels, tw, th, intensity, blend)
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe {
            x86::fill_nearest_2d_avx2(span, lo, u_row, v_row, texels, tw, th, intensity, blend)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe {
            neon::fill_nearest_2d_neon(span, lo, u_row, v_row, texels, tw, th, intensity, blend)
        },
        #[allow(unreachable_patterns)]
        _ => scalar_fill_nearest_2d(span, lo, u_row, v_row, texels, tw, th, intensity, blend),
    }
}

/// The general bilinear span fill of Exact mode: both texture coordinates
/// vary along the row, each pixel takes four 2-D taps from `texels` (a
/// `tw`×`th` texture), bit-identical to `Texture::sample_bilinear` +
/// `BlendMode::apply` per pixel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_bilinear_2d(
    level: SimdLevel,
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    v_row: AttrRow,
    texels: &[f32],
    tw: usize,
    th: usize,
    intensity: f32,
    blend: BlendMode,
) {
    debug_assert_eq!(texels.len(), tw * th);
    match level {
        SimdLevel::Scalar => {
            scalar_fill_bilinear_2d(span, lo, u_row, v_row, texels, tw, th, intensity, blend)
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe {
            x86::fill_bilinear_2d_sse2(span, lo, u_row, v_row, texels, tw, th, intensity, blend)
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe {
            x86::fill_bilinear_2d_avx2(span, lo, u_row, v_row, texels, tw, th, intensity, blend)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe {
            neon::fill_bilinear_2d_neon(span, lo, u_row, v_row, texels, tw, th, intensity, blend)
        },
        #[allow(unreachable_patterns)]
        _ => scalar_fill_bilinear_2d(span, lo, u_row, v_row, texels, tw, th, intensity, blend),
    }
}

/// Gather-fold kernel, copy flavour: `dst = s0 + s1 + …` with the sequential
/// fold's left association. `srcs` holds 1–4 equal-length slices.
pub(crate) fn fold_copy(level: SimdLevel, dst: &mut [f32], srcs: &[&[f32]]) {
    debug_assert!((1..=4).contains(&srcs.len()));
    match level {
        SimdLevel::Scalar => scalar_fold_copy(dst, srcs),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::fold_copy_sse2(dst, srcs) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::fold_copy_avx2(dst, srcs) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::fold_copy_neon(dst, srcs) },
        #[allow(unreachable_patterns)]
        _ => scalar_fold_copy(dst, srcs),
    }
}

/// Gather-fold kernel, accumulate flavour: `dst = ((dst + s0) + s1) + …`.
pub(crate) fn fold_acc(level: SimdLevel, dst: &mut [f32], srcs: &[&[f32]]) {
    debug_assert!((1..=4).contains(&srcs.len()));
    match level {
        SimdLevel::Scalar => scalar_fold_acc(dst, srcs),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::fold_acc_sse2(dst, srcs) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::fold_acc_avx2(dst, srcs) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::fold_acc_neon(dst, srcs) },
        #[allow(unreachable_patterns)]
        _ => scalar_fold_acc(dst, srcs),
    }
}

/// Straight copy (the compose tile blit and the single-source copy fold):
/// explicit vector moves at SIMD levels, `copy_from_slice` on scalar.
pub(crate) fn copy_slice(level: SimdLevel, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    match level {
        SimdLevel::Scalar => dst.copy_from_slice(src),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::copy_slice_sse2(dst, src) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::copy_slice_avx2(dst, src) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::copy_slice_neon(dst, src) },
        #[allow(unreachable_patterns)]
        _ => dst.copy_from_slice(src),
    }
}

// ---------------------------------------------------------------------------
// Scalar fallbacks: the per-pixel samples, driven through the lane-block
// loop. These are the oracle every vector kernel is pinned against, and the
// 4-lane (SSE2, NEON) kernels run their sub-lane tails through the same
// per-pixel samples.
// ---------------------------------------------------------------------------

/// Fragments per lane block of the scalar span fills: [`fill_lane_blocked`]
/// computes `LANES` samples into a stack array and blends the block in one
/// mode-specialized call ([`BlendMode::apply_block`]), so the compiler sees
/// fixed-width, branch-free inner loops it can autovectorize.
const LANES: usize = 8;

/// The scalar span-fill driver: [`LANES`] samples at a time from
/// `sample_at` (whose per-lane evaluations are independent, so they
/// vectorize), each block blended in one call; the tail runs per pixel
/// ([`fill_tail`]) with identical arithmetic. `span[0]` is pixel column `lo`.
#[inline(always)]
fn fill_lane_blocked(
    span: &mut [f32],
    lo: usize,
    blend: BlendMode,
    sample_at: impl Fn(usize) -> f32,
) {
    let mut samples = [0.0f32; LANES];
    let split = span.len() - span.len() % LANES;
    let (blocks, tail) = span.split_at_mut(split);
    let mut px = lo;
    for chunk in blocks.chunks_exact_mut(LANES) {
        for (lane, out) in samples.iter_mut().enumerate() {
            *out = sample_at(px + lane);
        }
        blend.apply_block(chunk, &samples);
        px += LANES;
    }
    fill_tail(tail, px, blend, sample_at);
}

/// Blends `sample_at(px)` into every pixel of `span` one at a time
/// (`span[0]` is pixel column `lo`): the scalar tail of every span fill.
#[inline(always)]
fn fill_tail(span: &mut [f32], lo: usize, blend: BlendMode, sample_at: impl Fn(usize) -> f32) {
    for (offset, dst) in span.iter_mut().enumerate() {
        *dst = blend.apply(*dst, sample_at(lo + offset));
    }
}

/// One pixel of the hoisted-bilinear fill from its horizontal taps
/// `(tx0, tx1, tx)`: the horizontal lerp on each prefetched texture row,
/// then the vertical lerp by the row-constant `ty`.
#[inline(always)]
fn hoisted_lerp(taps: (usize, usize, f32), r0: &[f32], r1: &[f32], ty: f32, intensity: f32) -> f32 {
    let (tx0, tx1, tx) = taps;
    let (a, b, c, d) = (r0[tx0], r0[tx1], r1[tx0], r1[tx1]);
    let bottom = a + (b - a) * tx;
    let top = c + (d - c) * tx;
    (bottom + (top - bottom) * ty) * intensity
}

/// The scalar hoisted fill. It finds the horizontal taps with `floor`
/// rather than `bilinear_axis`'s cast (the SSE2/NEON tails use the cast):
/// the cast is bit-identical but makes this fallback about a quarter
/// faster, which the banked `simd_quad_disc_*` speedups (SIMD kernels over
/// this fallback) would read as a SIMD regression.
#[allow(clippy::too_many_arguments)]
fn scalar_fill_hoisted(
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    tex_row0: &[f32],
    tex_row1: &[f32],
    ty: f32,
    intensity: f32,
    blend: BlendMode,
) {
    let tex_w = tex_row0.len();
    fill_lane_blocked(span, lo, blend, |px| {
        let fx = (u_row.at(px) as f32 * tex_w as f32 - 0.5).clamp(0.0, tex_w as f32 - 1.0);
        let tx0 = fx.floor() as usize;
        let taps = (tx0, (tx0 + 1).min(tex_w - 1), fx - tx0 as f32);
        hoisted_lerp(taps, tex_row0, tex_row1, ty, intensity)
    });
}

#[allow(clippy::too_many_arguments)]
fn scalar_fill_bilinear_2d(
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    v_row: AttrRow,
    texels: &[f32],
    tw: usize,
    th: usize,
    intensity: f32,
    blend: BlendMode,
) {
    fill_lane_blocked(span, lo, blend, |px| {
        bilinear_sample(texels, tw, th, u_row.at(px) as f32, v_row.at(px) as f32) * intensity
    });
}

fn scalar_fill_nearest_row(
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    tex_row: &[f32],
    intensity: f32,
    blend: BlendMode,
) {
    let tw = tex_row.len();
    fill_lane_blocked(span, lo, blend, |px| {
        tex_row[nearest_index(u_row.at(px) as f32, tw)] * intensity
    });
}

#[allow(clippy::too_many_arguments)]
fn scalar_fill_nearest_2d(
    span: &mut [f32],
    lo: usize,
    u_row: AttrRow,
    v_row: AttrRow,
    texels: &[f32],
    tw: usize,
    th: usize,
    intensity: f32,
    blend: BlendMode,
) {
    fill_lane_blocked(span, lo, blend, |px| {
        let tx = nearest_index(u_row.at(px) as f32, tw);
        let ty = nearest_index(v_row.at(px) as f32, th);
        texels[ty * tw + tx] * intensity
    });
}

fn scalar_fold_copy(dst: &mut [f32], srcs: &[&[f32]]) {
    match *srcs {
        [a] => dst.copy_from_slice(a),
        [a, b] => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = a[i] + b[i];
            }
        }
        [a, b, c] => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = (a[i] + b[i]) + c[i];
            }
        }
        [a, b, c, e] => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = ((a[i] + b[i]) + c[i]) + e[i];
            }
        }
        _ => unreachable!("fold_copy takes 1-4 sources"),
    }
}

fn scalar_fold_acc(dst: &mut [f32], srcs: &[&[f32]]) {
    match *srcs {
        [a] => {
            for (d, v) in dst.iter_mut().zip(a) {
                *d += *v;
            }
        }
        [a, b] => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = (*d + a[i]) + b[i];
            }
        }
        [a, b, c] => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = ((*d + a[i]) + b[i]) + c[i];
            }
        }
        [a, b, c, e] => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = (((*d + a[i]) + b[i]) + c[i]) + e[i];
            }
        }
        _ => unreachable!("fold_acc takes 1-4 sources"),
    }
}

// ---------------------------------------------------------------------------
// x86_64 kernels: SSE2 (baseline, 4 lanes) and AVX2 (detected, 8 lanes).
//
// All functions carry `#[target_feature]`, so calls are `unsafe`; the safety
// contract is feature availability, which the dispatcher guarantees (SSE2 is
// part of the x86_64 baseline; AVX2 arms are only reachable when
// `is_x86_feature_detected!("avx2")` held at resolution or `force` validated
// the level against it).
// ---------------------------------------------------------------------------
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{fill_tail, hoisted_lerp};
    use crate::blend::BlendMode;
    use crate::raster::{bilinear_axis, bilinear_sample, nearest_index, AttrRow};
    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load4(s: &[f32], i: usize) -> __m128 {
        debug_assert!(i + 4 <= s.len());
        unsafe { _mm_loadu_ps(s.as_ptr().add(i)) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn store4(s: &mut [f32], i: usize, v: __m128) {
        debug_assert!(i + 4 <= s.len());
        unsafe { _mm_storeu_ps(s.as_mut_ptr().add(i), v) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes_i32(v: __m128i) -> [i32; 4] {
        unsafe { core::mem::transmute(v) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn from_lanes(a: [f32; 4]) -> __m128 {
        unsafe { core::mem::transmute(a) }
    }

    /// The Max blend lane-wise: `if s > d { s } else { d }`, the exact
    /// compare-select [`BlendMode::apply`] uses (deterministic on signed-zero
    /// ties, unlike `maxps`, which returns its second operand on equal
    /// inputs).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn max4(d: __m128, s: __m128) -> __m128 {
        let take_s = _mm_cmpgt_ps(s, d);
        _mm_or_ps(_mm_and_ps(take_s, s), _mm_andnot_ps(take_s, d))
    }

    /// `v.clamp(lo, hi)` lane-wise (`min(max(v, lo), hi)`); matches the
    /// scalar clamp for every value the fills produce (no NaN, and the
    /// pre-clamp value is never `-0.0` because `x - 0.5` cannot produce it).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn clamp4(v: __m128, lo: __m128, hi: __m128) -> __m128 {
        _mm_min_ps(_mm_max_ps(v, lo), hi)
    }

    /// The affine row form at 4 consecutive pixel centres, evaluated in
    /// `f64` with the scalar operation order and narrowed to `f32`
    /// (`cvtpd2ps` rounds to nearest-even, exactly like `as f32`).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn u4(px: usize, row_base: __m128d, ddx: __m128d, ox: __m128d) -> __m128 {
        let c01 = _mm_set_pd((px + 1) as f64 + 0.5, px as f64 + 0.5);
        let c23 = _mm_set_pd((px + 3) as f64 + 0.5, (px + 2) as f64 + 0.5);
        let u01 = _mm_add_pd(_mm_mul_pd(_mm_sub_pd(c01, ox), ddx), row_base);
        let u23 = _mm_add_pd(_mm_mul_pd(_mm_sub_pd(c23, ox), ddx), row_base);
        _mm_movelh_ps(_mm_cvtpd_ps(u01), _mm_cvtpd_ps(u23))
    }

    /// Blends a 4-lane sample block into `span[i..i+4]`. `va`/`vb` are the
    /// splatted alpha/(1-alpha) coefficients (only read in the Alpha arm).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn blend4(
        blend: BlendMode,
        span: &mut [f32],
        i: usize,
        sample: __m128,
        va: __m128,
        vb: __m128,
    ) {
        match blend {
            BlendMode::Replace => store4(span, i, sample),
            BlendMode::Additive => store4(span, i, _mm_add_ps(load4(span, i), sample)),
            BlendMode::Max => store4(span, i, max4(load4(span, i), sample)),
            BlendMode::Alpha(_) => {
                let d = load4(span, i);
                store4(
                    span,
                    i,
                    _mm_add_ps(_mm_mul_ps(sample, va), _mm_mul_ps(d, vb)),
                );
            }
        }
    }

    /// Splatted alpha coefficients for the Alpha arm (zeros otherwise).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn alpha4(blend: BlendMode) -> (__m128, __m128) {
        match blend {
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                (_mm_set1_ps(alpha), _mm_set1_ps(1.0 - alpha))
            }
            _ => (_mm_setzero_ps(), _mm_setzero_ps()),
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn blend_uniform_sse2(mode: BlendMode, dst: &mut [f32], src: f32) {
        let n = dst.len() - dst.len() % 4;
        let vs = _mm_set1_ps(src);
        match mode {
            BlendMode::Replace => dst.fill(src),
            BlendMode::Additive => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, _mm_add_ps(load4(dst, i), vs));
                    i += 4;
                }
                for d in dst[n..].iter_mut() {
                    *d += src;
                }
            }
            BlendMode::Max => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, max4(load4(dst, i), vs));
                    i += 4;
                }
                for d in dst[n..].iter_mut() {
                    *d = if src > *d { src } else { *d };
                }
            }
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                let va = _mm_set1_ps(alpha);
                let vb = _mm_set1_ps(1.0 - alpha);
                let mut i = 0;
                while i < n {
                    let blended = _mm_add_ps(_mm_mul_ps(vs, va), _mm_mul_ps(load4(dst, i), vb));
                    store4(dst, i, blended);
                    i += 4;
                }
                for d in dst[n..].iter_mut() {
                    *d = src * alpha + *d * (1.0 - alpha);
                }
            }
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn copy_slice_sse2(dst: &mut [f32], src: &[f32]) {
        let n = dst.len() - dst.len() % 4;
        let mut i = 0;
        while i < n {
            store4(dst, i, load4(src, i));
            i += 4;
        }
        dst[n..].copy_from_slice(&src[n..]);
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn fold_copy_sse2(dst: &mut [f32], srcs: &[&[f32]]) {
        let n = dst.len() - dst.len() % 4;
        match *srcs {
            [a] => copy_slice_sse2(dst, a),
            [a, b] => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, _mm_add_ps(load4(a, i), load4(b, i)));
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = a[i] + b[i];
                }
            }
            [a, b, c] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm_add_ps(_mm_add_ps(load4(a, i), load4(b, i)), load4(c, i));
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = (a[i] + b[i]) + c[i];
                }
            }
            [a, b, c, e] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm_add_ps(
                        _mm_add_ps(_mm_add_ps(load4(a, i), load4(b, i)), load4(c, i)),
                        load4(e, i),
                    );
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = ((a[i] + b[i]) + c[i]) + e[i];
                }
            }
            _ => unreachable!("fold_copy takes 1-4 sources"),
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn fold_acc_sse2(dst: &mut [f32], srcs: &[&[f32]]) {
        let n = dst.len() - dst.len() % 4;
        match *srcs {
            [a] => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, _mm_add_ps(load4(dst, i), load4(a, i)));
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d += a[i];
                }
            }
            [a, b] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm_add_ps(_mm_add_ps(load4(dst, i), load4(a, i)), load4(b, i));
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = (*d + a[i]) + b[i];
                }
            }
            [a, b, c] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm_add_ps(
                        _mm_add_ps(_mm_add_ps(load4(dst, i), load4(a, i)), load4(b, i)),
                        load4(c, i),
                    );
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = ((*d + a[i]) + b[i]) + c[i];
                }
            }
            [a, b, c, e] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm_add_ps(
                        _mm_add_ps(
                            _mm_add_ps(_mm_add_ps(load4(dst, i), load4(a, i)), load4(b, i)),
                            load4(c, i),
                        ),
                        load4(e, i),
                    );
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = (((*d + a[i]) + b[i]) + c[i]) + e[i];
                }
            }
            _ => unreachable!("fold_acc takes 1-4 sources"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    pub(super) fn fill_hoisted_sse2(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        r0: &[f32],
        r1: &[f32],
        ty: f32,
        intensity: f32,
        blend: BlendMode,
    ) {
        let tex_w = r0.len();
        let rb = _mm_set1_pd(u_row.row_base);
        let ddx = _mm_set1_pd(u_row.ddx);
        let ox = _mm_set1_pd(u_row.ox);
        let vw = _mm_set1_ps(tex_w as f32);
        let vhi = _mm_set1_ps(tex_w as f32 - 1.0);
        let vty = _mm_set1_ps(ty);
        let vint = _mm_set1_ps(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let (tx0i, tx1i, tx) = bilinear_axis4(u4(lo + i, rb, ddx, ox), vw, vhi);
            let i0 = lanes_i32(tx0i);
            let i1 = lanes_i32(tx1i);
            let a = from_lanes([
                r0[i0[0] as usize],
                r0[i0[1] as usize],
                r0[i0[2] as usize],
                r0[i0[3] as usize],
            ]);
            let b = from_lanes([
                r0[i1[0] as usize],
                r0[i1[1] as usize],
                r0[i1[2] as usize],
                r0[i1[3] as usize],
            ]);
            let c = from_lanes([
                r1[i0[0] as usize],
                r1[i0[1] as usize],
                r1[i0[2] as usize],
                r1[i0[3] as usize],
            ]);
            let d = from_lanes([
                r1[i1[0] as usize],
                r1[i1[1] as usize],
                r1[i1[2] as usize],
                r1[i1[3] as usize],
            ]);
            let bottom = _mm_add_ps(a, _mm_mul_ps(_mm_sub_ps(b, a), tx));
            let top = _mm_add_ps(c, _mm_mul_ps(_mm_sub_ps(d, c), tx));
            let lerped = _mm_add_ps(bottom, _mm_mul_ps(_mm_sub_ps(top, bottom), vty));
            blend4(blend, span, i, _mm_mul_ps(lerped, vint), va, vb);
            i += 4;
        }
        fill_tail(&mut span[n..], lo + n, blend, |px| {
            let taps = bilinear_axis(u_row.at(px) as f32, tex_w);
            hoisted_lerp(taps, r0, r1, ty, intensity)
        });
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn fill_nearest_row_sse2(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        tex_row: &[f32],
        intensity: f32,
        blend: BlendMode,
    ) {
        let tw = tex_row.len();
        let rb = _mm_set1_pd(u_row.row_base);
        let ddx = _mm_set1_pd(u_row.ddx);
        let ox = _mm_set1_pd(u_row.ox);
        let vw = _mm_set1_ps(tw as f32);
        let vzero = _mm_setzero_ps();
        let vhi = _mm_set1_ps(tw as f32 - 1.0);
        let vint = _mm_set1_ps(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let u = u4(lo + i, rb, ddx, ox);
            let t = clamp4(_mm_mul_ps(u, vw), vzero, vhi);
            let ti = lanes_i32(_mm_cvttps_epi32(t));
            let fetched = from_lanes([
                tex_row[ti[0] as usize],
                tex_row[ti[1] as usize],
                tex_row[ti[2] as usize],
                tex_row[ti[3] as usize],
            ]);
            blend4(blend, span, i, _mm_mul_ps(fetched, vint), va, vb);
            i += 4;
        }
        fill_tail(&mut span[n..], lo + n, blend, |px| {
            tex_row[nearest_index(u_row.at(px) as f32, tw)] * intensity
        });
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    pub(super) fn fill_nearest_2d_sse2(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        v_row: AttrRow,
        texels: &[f32],
        tw: usize,
        th: usize,
        intensity: f32,
        blend: BlendMode,
    ) {
        let u_rb = _mm_set1_pd(u_row.row_base);
        let u_ddx = _mm_set1_pd(u_row.ddx);
        let u_ox = _mm_set1_pd(u_row.ox);
        let v_rb = _mm_set1_pd(v_row.row_base);
        let v_ddx = _mm_set1_pd(v_row.ddx);
        let v_ox = _mm_set1_pd(v_row.ox);
        let vww = _mm_set1_ps(tw as f32);
        let vwh = _mm_set1_ps(th as f32);
        let vzero = _mm_setzero_ps();
        let vxhi = _mm_set1_ps(tw as f32 - 1.0);
        let vyhi = _mm_set1_ps(th as f32 - 1.0);
        let vint = _mm_set1_ps(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let px = lo + i;
            let u = u4(px, u_rb, u_ddx, u_ox);
            let v = u4(px, v_rb, v_ddx, v_ox);
            let tu = clamp4(_mm_mul_ps(u, vww), vzero, vxhi);
            let tv = clamp4(_mm_mul_ps(v, vwh), vzero, vyhi);
            let xi = lanes_i32(_mm_cvttps_epi32(tu));
            let yi = lanes_i32(_mm_cvttps_epi32(tv));
            let fetched = from_lanes([
                texels[yi[0] as usize * tw + xi[0] as usize],
                texels[yi[1] as usize * tw + xi[1] as usize],
                texels[yi[2] as usize * tw + xi[2] as usize],
                texels[yi[3] as usize * tw + xi[3] as usize],
            ]);
            blend4(blend, span, i, _mm_mul_ps(fetched, vint), va, vb);
            i += 4;
        }
        fill_tail(&mut span[n..], lo + n, blend, |px| {
            let tx = nearest_index(u_row.at(px) as f32, tw);
            let ty = nearest_index(v_row.at(px) as f32, th);
            texels[ty * tw + tx] * intensity
        });
    }

    /// One axis of the bilinear kernel on 4 lanes — `bilinear_axis`
    /// lane-wise: lower tap, upper tap and lerp weight. The weight's clamp
    /// puts the coordinate second in `maxps`/`minps`, which return their
    /// second operand when either is NaN, so it clamps exactly like
    /// `f32::clamp` and a NaN coordinate keeps a NaN weight. The index's
    /// clamp puts it first, so NaN becomes 0 (what `NaN as usize` gives) and
    /// every index lies in `[0, len − 1]` for every input.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn bilinear_axis4(coord: __m128, len: __m128, hi: __m128) -> (__m128i, __m128i, __m128) {
        let zero = _mm_setzero_ps();
        let t = _mm_sub_ps(_mm_mul_ps(coord, len), _mm_set1_ps(0.5));
        let f = _mm_min_ps(hi, _mm_max_ps(zero, t));
        let i0 = _mm_cvttps_epi32(clamp4(t, zero, hi));
        let i0f = _mm_cvtepi32_ps(i0);
        let i1 = _mm_cvttps_epi32(_mm_min_ps(_mm_add_ps(i0f, _mm_set1_ps(1.0)), hi));
        (i0, i1, _mm_sub_ps(f, i0f))
    }

    /// The texels at `(x[k], y[k])` of a `tw`-wide texture, one per lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn fetch4(texels: &[f32], tw: usize, x: __m128i, y: __m128i) -> __m128 {
        let (x, y) = (lanes_i32(x), lanes_i32(y));
        let at = |k: usize| texels[y[k] as usize * tw + x[k] as usize];
        from_lanes([at(0), at(1), at(2), at(3)])
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    pub(super) fn fill_bilinear_2d_sse2(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        v_row: AttrRow,
        texels: &[f32],
        tw: usize,
        th: usize,
        intensity: f32,
        blend: BlendMode,
    ) {
        let u_rb = _mm_set1_pd(u_row.row_base);
        let u_ddx = _mm_set1_pd(u_row.ddx);
        let u_ox = _mm_set1_pd(u_row.ox);
        let v_rb = _mm_set1_pd(v_row.row_base);
        let v_ddx = _mm_set1_pd(v_row.ddx);
        let v_ox = _mm_set1_pd(v_row.ox);
        let vww = _mm_set1_ps(tw as f32);
        let vwh = _mm_set1_ps(th as f32);
        let vxhi = _mm_set1_ps(tw as f32 - 1.0);
        let vyhi = _mm_set1_ps(th as f32 - 1.0);
        let vint = _mm_set1_ps(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let px = lo + i;
            let (x0, x1, tx) = bilinear_axis4(u4(px, u_rb, u_ddx, u_ox), vww, vxhi);
            let (y0, y1, ty) = bilinear_axis4(u4(px, v_rb, v_ddx, v_ox), vwh, vyhi);
            let a = fetch4(texels, tw, x0, y0);
            let b = fetch4(texels, tw, x1, y0);
            let c = fetch4(texels, tw, x0, y1);
            let d = fetch4(texels, tw, x1, y1);
            let bottom = _mm_add_ps(a, _mm_mul_ps(_mm_sub_ps(b, a), tx));
            let top = _mm_add_ps(c, _mm_mul_ps(_mm_sub_ps(d, c), tx));
            let lerped = _mm_add_ps(bottom, _mm_mul_ps(_mm_sub_ps(top, bottom), ty));
            blend4(blend, span, i, _mm_mul_ps(lerped, vint), va, vb);
            i += 4;
        }
        fill_tail(&mut span[n..], lo + n, blend, |px| {
            bilinear_sample(texels, tw, th, u_row.at(px) as f32, v_row.at(px) as f32) * intensity
        });
    }

    // -- AVX2: 8-lane versions of the same kernels, with hardware gathers. --

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load8(s: &[f32], i: usize) -> __m256 {
        debug_assert!(i + 8 <= s.len());
        unsafe { _mm256_loadu_ps(s.as_ptr().add(i)) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store8(s: &mut [f32], i: usize, v: __m256) {
        debug_assert!(i + 8 <= s.len());
        unsafe { _mm256_storeu_ps(s.as_mut_ptr().add(i), v) }
    }

    /// Hardware gather of 8 texels; every index must be in bounds (the
    /// callers clamp to `[0, len)` first, and debug builds check it).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gather8(s: &[f32], idx: __m256i) -> __m256 {
        debug_assert!(
            {
                let lanes: [i32; 8] = unsafe { core::mem::transmute(idx) };
                lanes.iter().all(|&k| (k as usize) < s.len())
            },
            "gather index out of bounds"
        );
        unsafe { _mm256_i32gather_ps::<4>(s.as_ptr(), idx) }
    }

    /// 8-lane twin of [`max4`] (same compare-select semantics).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn max8(d: __m256, s: __m256) -> __m256 {
        let take_s = _mm256_cmp_ps::<_CMP_GT_OQ>(s, d);
        _mm256_blendv_ps(d, s, take_s)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn clamp8(v: __m256, lo: __m256, hi: __m256) -> __m256 {
        _mm256_min_ps(_mm256_max_ps(v, lo), hi)
    }

    /// 8-lane twin of [`u4`]: two 4-wide `f64` evaluations narrowed and
    /// concatenated.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn u8v(px: usize, row_base: __m256d, ddx: __m256d, ox: __m256d) -> __m256 {
        let c_lo = _mm256_set_pd(
            (px + 3) as f64 + 0.5,
            (px + 2) as f64 + 0.5,
            (px + 1) as f64 + 0.5,
            px as f64 + 0.5,
        );
        let c_hi = _mm256_set_pd(
            (px + 7) as f64 + 0.5,
            (px + 6) as f64 + 0.5,
            (px + 5) as f64 + 0.5,
            (px + 4) as f64 + 0.5,
        );
        let lo = _mm256_cvtpd_ps(_mm256_add_pd(
            _mm256_mul_pd(_mm256_sub_pd(c_lo, ox), ddx),
            row_base,
        ));
        let hi = _mm256_cvtpd_ps(_mm256_add_pd(
            _mm256_mul_pd(_mm256_sub_pd(c_hi, ox), ddx),
            row_base,
        ));
        _mm256_set_m128(hi, lo)
    }

    /// Blends an 8-lane sample block into the span from `span[i]` on. A
    /// block that runs past the end of the span (the last one, fewer than 8
    /// elements left) loads and stores through lane masks, so the kernels
    /// need no scalar tail. `va`/`vb` are the splatted alpha/(1-alpha)
    /// coefficients (only read in the Alpha arm).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn blend8(
        blend: BlendMode,
        span: &mut [f32],
        i: usize,
        sample: __m256,
        va: __m256,
        vb: __m256,
    ) {
        let left = span.len() - i;
        if left >= 8 {
            let blended = match blend {
                BlendMode::Replace => sample,
                _ => blend_lanes8(blend, load8(span, i), sample, va, vb),
            };
            return store8(span, i, blended);
        }
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(left as i32), lanes);
        // SAFETY: `i < span.len()`, and the mask enables only the lanes
        // `i..span.len()`; masked-off lanes are neither read nor written.
        let p = unsafe { span.as_mut_ptr().add(i) };
        let blended = match blend {
            BlendMode::Replace => sample,
            _ => blend_lanes8(
                blend,
                unsafe { _mm256_maskload_ps(p, mask) },
                sample,
                va,
                vb,
            ),
        };
        unsafe { _mm256_maskstore_ps(p, mask, blended) }
    }

    /// The blend of `sample` over `d`, lane-wise, for the modes that read
    /// the destination.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn blend_lanes8(blend: BlendMode, d: __m256, sample: __m256, va: __m256, vb: __m256) -> __m256 {
        match blend {
            BlendMode::Replace => sample,
            BlendMode::Additive => _mm256_add_ps(d, sample),
            BlendMode::Max => max8(d, sample),
            BlendMode::Alpha(_) => _mm256_add_ps(_mm256_mul_ps(sample, va), _mm256_mul_ps(d, vb)),
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn alpha8(blend: BlendMode) -> (__m256, __m256) {
        match blend {
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                (_mm256_set1_ps(alpha), _mm256_set1_ps(1.0 - alpha))
            }
            _ => (_mm256_setzero_ps(), _mm256_setzero_ps()),
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn blend_uniform_avx2(mode: BlendMode, dst: &mut [f32], src: f32) {
        let n = dst.len() - dst.len() % 8;
        let vs = _mm256_set1_ps(src);
        match mode {
            BlendMode::Replace => dst.fill(src),
            BlendMode::Additive => {
                let mut i = 0;
                while i < n {
                    store8(dst, i, _mm256_add_ps(load8(dst, i), vs));
                    i += 8;
                }
                blend_uniform_sse2(mode, &mut dst[n..], src);
            }
            BlendMode::Max => {
                let mut i = 0;
                while i < n {
                    store8(dst, i, max8(load8(dst, i), vs));
                    i += 8;
                }
                blend_uniform_sse2(mode, &mut dst[n..], src);
            }
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                let va = _mm256_set1_ps(alpha);
                let vb = _mm256_set1_ps(1.0 - alpha);
                let mut i = 0;
                while i < n {
                    let blended =
                        _mm256_add_ps(_mm256_mul_ps(vs, va), _mm256_mul_ps(load8(dst, i), vb));
                    store8(dst, i, blended);
                    i += 8;
                }
                blend_uniform_sse2(mode, &mut dst[n..], src);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn copy_slice_avx2(dst: &mut [f32], src: &[f32]) {
        let n = dst.len() - dst.len() % 8;
        let mut i = 0;
        while i < n {
            store8(dst, i, load8(src, i));
            i += 8;
        }
        dst[n..].copy_from_slice(&src[n..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fold_copy_avx2(dst: &mut [f32], srcs: &[&[f32]]) {
        let n = dst.len() - dst.len() % 8;
        match *srcs {
            [a] => copy_slice_avx2(dst, a),
            [a, b] => {
                let mut i = 0;
                while i < n {
                    store8(dst, i, _mm256_add_ps(load8(a, i), load8(b, i)));
                    i += 8;
                }
                fold_copy_sse2(&mut dst[n..], &[&a[n..], &b[n..]]);
            }
            [a, b, c] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm256_add_ps(_mm256_add_ps(load8(a, i), load8(b, i)), load8(c, i));
                    store8(dst, i, sum);
                    i += 8;
                }
                fold_copy_sse2(&mut dst[n..], &[&a[n..], &b[n..], &c[n..]]);
            }
            [a, b, c, e] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm256_add_ps(
                        _mm256_add_ps(_mm256_add_ps(load8(a, i), load8(b, i)), load8(c, i)),
                        load8(e, i),
                    );
                    store8(dst, i, sum);
                    i += 8;
                }
                fold_copy_sse2(&mut dst[n..], &[&a[n..], &b[n..], &c[n..], &e[n..]]);
            }
            _ => unreachable!("fold_copy takes 1-4 sources"),
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fold_acc_avx2(dst: &mut [f32], srcs: &[&[f32]]) {
        let n = dst.len() - dst.len() % 8;
        match *srcs {
            [a] => {
                let mut i = 0;
                while i < n {
                    store8(dst, i, _mm256_add_ps(load8(dst, i), load8(a, i)));
                    i += 8;
                }
                fold_acc_sse2(&mut dst[n..], &[&a[n..]]);
            }
            [a, b] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm256_add_ps(_mm256_add_ps(load8(dst, i), load8(a, i)), load8(b, i));
                    store8(dst, i, sum);
                    i += 8;
                }
                fold_acc_sse2(&mut dst[n..], &[&a[n..], &b[n..]]);
            }
            [a, b, c] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm256_add_ps(
                        _mm256_add_ps(_mm256_add_ps(load8(dst, i), load8(a, i)), load8(b, i)),
                        load8(c, i),
                    );
                    store8(dst, i, sum);
                    i += 8;
                }
                fold_acc_sse2(&mut dst[n..], &[&a[n..], &b[n..], &c[n..]]);
            }
            [a, b, c, e] => {
                let mut i = 0;
                while i < n {
                    let sum = _mm256_add_ps(
                        _mm256_add_ps(
                            _mm256_add_ps(_mm256_add_ps(load8(dst, i), load8(a, i)), load8(b, i)),
                            load8(c, i),
                        ),
                        load8(e, i),
                    );
                    store8(dst, i, sum);
                    i += 8;
                }
                fold_acc_sse2(&mut dst[n..], &[&a[n..], &b[n..], &c[n..], &e[n..]]);
            }
            _ => unreachable!("fold_acc takes 1-4 sources"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn fill_hoisted_avx2(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        r0: &[f32],
        r1: &[f32],
        ty: f32,
        intensity: f32,
        blend: BlendMode,
    ) {
        let tex_w = r0.len();
        let rb = _mm256_set1_pd(u_row.row_base);
        let ddx = _mm256_set1_pd(u_row.ddx);
        let ox = _mm256_set1_pd(u_row.ox);
        let vw = _mm256_set1_ps(tex_w as f32);
        let vhi = _mm256_set1_ps(tex_w as f32 - 1.0);
        let vty = _mm256_set1_ps(ty);
        let vint = _mm256_set1_ps(intensity);
        let (va, vb) = alpha8(blend);
        let mut i = 0;
        while i < span.len() {
            let (tx0i, tx1i, tx) = bilinear_axis8(u8v(lo + i, rb, ddx, ox), vw, vhi);
            let a = gather8(r0, tx0i);
            let b = gather8(r0, tx1i);
            let c = gather8(r1, tx0i);
            let d = gather8(r1, tx1i);
            let bottom = _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), tx));
            let top = _mm256_add_ps(c, _mm256_mul_ps(_mm256_sub_ps(d, c), tx));
            let lerped = _mm256_add_ps(bottom, _mm256_mul_ps(_mm256_sub_ps(top, bottom), vty));
            blend8(blend, span, i, _mm256_mul_ps(lerped, vint), va, vb);
            i += 8;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fill_nearest_row_avx2(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        tex_row: &[f32],
        intensity: f32,
        blend: BlendMode,
    ) {
        let tw = tex_row.len();
        let rb = _mm256_set1_pd(u_row.row_base);
        let ddx = _mm256_set1_pd(u_row.ddx);
        let ox = _mm256_set1_pd(u_row.ox);
        let vw = _mm256_set1_ps(tw as f32);
        let vzero = _mm256_setzero_ps();
        let vhi = _mm256_set1_ps(tw as f32 - 1.0);
        let vint = _mm256_set1_ps(intensity);
        let (va, vb) = alpha8(blend);
        let mut i = 0;
        while i < span.len() {
            let u = u8v(lo + i, rb, ddx, ox);
            let t = clamp8(_mm256_mul_ps(u, vw), vzero, vhi);
            let fetched = gather8(tex_row, _mm256_cvttps_epi32(t));
            blend8(blend, span, i, _mm256_mul_ps(fetched, vint), va, vb);
            i += 8;
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn fill_nearest_2d_avx2(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        v_row: AttrRow,
        texels: &[f32],
        tw: usize,
        th: usize,
        intensity: f32,
        blend: BlendMode,
    ) {
        let u_rb = _mm256_set1_pd(u_row.row_base);
        let u_ddx = _mm256_set1_pd(u_row.ddx);
        let u_ox = _mm256_set1_pd(u_row.ox);
        let v_rb = _mm256_set1_pd(v_row.row_base);
        let v_ddx = _mm256_set1_pd(v_row.ddx);
        let v_ox = _mm256_set1_pd(v_row.ox);
        let vww = _mm256_set1_ps(tw as f32);
        let vwh = _mm256_set1_ps(th as f32);
        let vzero = _mm256_setzero_ps();
        let vxhi = _mm256_set1_ps(tw as f32 - 1.0);
        let vyhi = _mm256_set1_ps(th as f32 - 1.0);
        let vtw = _mm256_set1_epi32(tw as i32);
        let vint = _mm256_set1_ps(intensity);
        let (va, vb) = alpha8(blend);
        let mut i = 0;
        while i < span.len() {
            let px = lo + i;
            let u = u8v(px, u_rb, u_ddx, u_ox);
            let v = u8v(px, v_rb, v_ddx, v_ox);
            let tu = clamp8(_mm256_mul_ps(u, vww), vzero, vxhi);
            let tv = clamp8(_mm256_mul_ps(v, vwh), vzero, vyhi);
            let xi = _mm256_cvttps_epi32(tu);
            let yi = _mm256_cvttps_epi32(tv);
            let idx = _mm256_add_epi32(_mm256_mullo_epi32(yi, vtw), xi);
            let fetched = gather8(texels, idx);
            blend8(blend, span, i, _mm256_mul_ps(fetched, vint), va, vb);
            i += 8;
        }
    }

    /// 8-lane twin of [`bilinear_axis4`] (same clamp operand orders, same
    /// NaN and range guarantees).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn bilinear_axis8(coord: __m256, len: __m256, hi: __m256) -> (__m256i, __m256i, __m256) {
        let zero = _mm256_setzero_ps();
        let t = _mm256_sub_ps(_mm256_mul_ps(coord, len), _mm256_set1_ps(0.5));
        let f = _mm256_min_ps(hi, _mm256_max_ps(zero, t));
        let i0 = _mm256_cvttps_epi32(clamp8(t, zero, hi));
        let i0f = _mm256_cvtepi32_ps(i0);
        let i1 = _mm256_cvttps_epi32(_mm256_min_ps(_mm256_add_ps(i0f, _mm256_set1_ps(1.0)), hi));
        (i0, i1, _mm256_sub_ps(f, i0f))
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn fill_bilinear_2d_avx2(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        v_row: AttrRow,
        texels: &[f32],
        tw: usize,
        th: usize,
        intensity: f32,
        blend: BlendMode,
    ) {
        let u_rb = _mm256_set1_pd(u_row.row_base);
        let u_ddx = _mm256_set1_pd(u_row.ddx);
        let u_ox = _mm256_set1_pd(u_row.ox);
        let v_rb = _mm256_set1_pd(v_row.row_base);
        let v_ddx = _mm256_set1_pd(v_row.ddx);
        let v_ox = _mm256_set1_pd(v_row.ox);
        let vww = _mm256_set1_ps(tw as f32);
        let vwh = _mm256_set1_ps(th as f32);
        let vxhi = _mm256_set1_ps(tw as f32 - 1.0);
        let vyhi = _mm256_set1_ps(th as f32 - 1.0);
        let vtw = _mm256_set1_epi32(tw as i32);
        let vint = _mm256_set1_ps(intensity);
        let (va, vb) = alpha8(blend);
        let mut i = 0;
        while i < span.len() {
            let px = lo + i;
            let (x0, x1, tx) = bilinear_axis8(u8v(px, u_rb, u_ddx, u_ox), vww, vxhi);
            let (y0, y1, ty) = bilinear_axis8(u8v(px, v_rb, v_ddx, v_ox), vwh, vyhi);
            let row0 = _mm256_mullo_epi32(y0, vtw);
            let row1 = _mm256_mullo_epi32(y1, vtw);
            let a = gather8(texels, _mm256_add_epi32(row0, x0));
            let b = gather8(texels, _mm256_add_epi32(row0, x1));
            let c = gather8(texels, _mm256_add_epi32(row1, x0));
            let d = gather8(texels, _mm256_add_epi32(row1, x1));
            let bottom = _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), tx));
            let top = _mm256_add_ps(c, _mm256_mul_ps(_mm256_sub_ps(d, c), tx));
            let lerped = _mm256_add_ps(bottom, _mm256_mul_ps(_mm256_sub_ps(top, bottom), ty));
            blend8(blend, span, i, _mm256_mul_ps(lerped, vint), va, vb);
            i += 8;
        }
    }
}

// ---------------------------------------------------------------------------
// aarch64 kernels: NEON (part of the aarch64 baseline), 4 lanes of f32 with
// the texture-coordinate evaluation done on 2-lane f64 vectors. Written to
// the same bit-identity contract as the x86 kernels: mul-then-add only, f64
// coordinate math in scalar operation order, and the Max blend uses the
// AND-of-both-orders correction for signed zeros.
// ---------------------------------------------------------------------------
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{fill_tail, hoisted_lerp};
    use crate::blend::BlendMode;
    use crate::raster::{bilinear_axis, bilinear_sample, nearest_index, AttrRow};
    use core::arch::aarch64::*;

    #[inline]
    #[target_feature(enable = "neon")]
    fn load4(s: &[f32], i: usize) -> float32x4_t {
        debug_assert!(i + 4 <= s.len());
        unsafe { vld1q_f32(s.as_ptr().add(i)) }
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn store4(s: &mut [f32], i: usize, v: float32x4_t) {
        debug_assert!(i + 4 <= s.len());
        unsafe { vst1q_f32(s.as_mut_ptr().add(i), v) }
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn lanes_i32(v: int32x4_t) -> [i32; 4] {
        unsafe { core::mem::transmute(v) }
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn from_lanes(a: [f32; 4]) -> float32x4_t {
        unsafe { core::mem::transmute(a) }
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn pair_f64(lo: f64, hi: f64) -> float64x2_t {
        unsafe { core::mem::transmute([lo, hi]) }
    }

    /// The Max blend lane-wise: the same compare-select as
    /// [`BlendMode::apply`] (`if s > d { s } else { d }`), deterministic on
    /// signed-zero ties.
    #[inline]
    #[target_feature(enable = "neon")]
    fn max4(d: float32x4_t, s: float32x4_t) -> float32x4_t {
        vbslq_f32(vcgtq_f32(s, d), s, d)
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn clamp4(v: float32x4_t, lo: float32x4_t, hi: float32x4_t) -> float32x4_t {
        vminq_f32(vmaxq_f32(v, lo), hi)
    }

    /// The affine row form at 4 consecutive pixel centres in `f64`, narrowed
    /// to `f32` (`fcvtn` rounds to nearest-even, same as an `as` cast).
    #[inline]
    #[target_feature(enable = "neon")]
    fn u4(px: usize, row: AttrRow) -> float32x4_t {
        let rb = vdupq_n_f64(row.row_base);
        let d = vdupq_n_f64(row.ddx);
        let o = vdupq_n_f64(row.ox);
        let c01 = pair_f64(px as f64 + 0.5, (px + 1) as f64 + 0.5);
        let c23 = pair_f64((px + 2) as f64 + 0.5, (px + 3) as f64 + 0.5);
        let u01 = vaddq_f64(vmulq_f64(vsubq_f64(c01, o), d), rb);
        let u23 = vaddq_f64(vmulq_f64(vsubq_f64(c23, o), d), rb);
        vcombine_f32(vcvt_f32_f64(u01), vcvt_f32_f64(u23))
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn blend4(
        blend: BlendMode,
        span: &mut [f32],
        i: usize,
        sample: float32x4_t,
        va: float32x4_t,
        vb: float32x4_t,
    ) {
        match blend {
            BlendMode::Replace => store4(span, i, sample),
            BlendMode::Additive => store4(span, i, vaddq_f32(load4(span, i), sample)),
            BlendMode::Max => store4(span, i, max4(load4(span, i), sample)),
            BlendMode::Alpha(_) => {
                let d = load4(span, i);
                store4(span, i, vaddq_f32(vmulq_f32(sample, va), vmulq_f32(d, vb)));
            }
        }
    }

    #[inline]
    #[target_feature(enable = "neon")]
    fn alpha4(blend: BlendMode) -> (float32x4_t, float32x4_t) {
        match blend {
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                (vdupq_n_f32(alpha), vdupq_n_f32(1.0 - alpha))
            }
            _ => (vdupq_n_f32(0.0), vdupq_n_f32(0.0)),
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) fn blend_uniform_neon(mode: BlendMode, dst: &mut [f32], src: f32) {
        let n = dst.len() - dst.len() % 4;
        let vs = vdupq_n_f32(src);
        match mode {
            BlendMode::Replace => dst.fill(src),
            BlendMode::Additive => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, vaddq_f32(load4(dst, i), vs));
                    i += 4;
                }
                for d in dst[n..].iter_mut() {
                    *d += src;
                }
            }
            BlendMode::Max => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, max4(load4(dst, i), vs));
                    i += 4;
                }
                for d in dst[n..].iter_mut() {
                    *d = if src > *d { src } else { *d };
                }
            }
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                let va = vdupq_n_f32(alpha);
                let vb = vdupq_n_f32(1.0 - alpha);
                let mut i = 0;
                while i < n {
                    let blended = vaddq_f32(vmulq_f32(vs, va), vmulq_f32(load4(dst, i), vb));
                    store4(dst, i, blended);
                    i += 4;
                }
                for d in dst[n..].iter_mut() {
                    *d = src * alpha + *d * (1.0 - alpha);
                }
            }
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) fn copy_slice_neon(dst: &mut [f32], src: &[f32]) {
        let n = dst.len() - dst.len() % 4;
        let mut i = 0;
        while i < n {
            store4(dst, i, load4(src, i));
            i += 4;
        }
        dst[n..].copy_from_slice(&src[n..]);
    }

    #[target_feature(enable = "neon")]
    pub(super) fn fold_copy_neon(dst: &mut [f32], srcs: &[&[f32]]) {
        let n = dst.len() - dst.len() % 4;
        match *srcs {
            [a] => copy_slice_neon(dst, a),
            [a, b] => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, vaddq_f32(load4(a, i), load4(b, i)));
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = a[i] + b[i];
                }
            }
            [a, b, c] => {
                let mut i = 0;
                while i < n {
                    let sum = vaddq_f32(vaddq_f32(load4(a, i), load4(b, i)), load4(c, i));
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = (a[i] + b[i]) + c[i];
                }
            }
            [a, b, c, e] => {
                let mut i = 0;
                while i < n {
                    let sum = vaddq_f32(
                        vaddq_f32(vaddq_f32(load4(a, i), load4(b, i)), load4(c, i)),
                        load4(e, i),
                    );
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = ((a[i] + b[i]) + c[i]) + e[i];
                }
            }
            _ => unreachable!("fold_copy takes 1-4 sources"),
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) fn fold_acc_neon(dst: &mut [f32], srcs: &[&[f32]]) {
        let n = dst.len() - dst.len() % 4;
        match *srcs {
            [a] => {
                let mut i = 0;
                while i < n {
                    store4(dst, i, vaddq_f32(load4(dst, i), load4(a, i)));
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d += a[i];
                }
            }
            [a, b] => {
                let mut i = 0;
                while i < n {
                    let sum = vaddq_f32(vaddq_f32(load4(dst, i), load4(a, i)), load4(b, i));
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = (*d + a[i]) + b[i];
                }
            }
            [a, b, c] => {
                let mut i = 0;
                while i < n {
                    let sum = vaddq_f32(
                        vaddq_f32(vaddq_f32(load4(dst, i), load4(a, i)), load4(b, i)),
                        load4(c, i),
                    );
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = ((*d + a[i]) + b[i]) + c[i];
                }
            }
            [a, b, c, e] => {
                let mut i = 0;
                while i < n {
                    let sum = vaddq_f32(
                        vaddq_f32(
                            vaddq_f32(vaddq_f32(load4(dst, i), load4(a, i)), load4(b, i)),
                            load4(c, i),
                        ),
                        load4(e, i),
                    );
                    store4(dst, i, sum);
                    i += 4;
                }
                for (i, d) in dst.iter_mut().enumerate().skip(n) {
                    *d = (((*d + a[i]) + b[i]) + c[i]) + e[i];
                }
            }
            _ => unreachable!("fold_acc takes 1-4 sources"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "neon")]
    pub(super) fn fill_hoisted_neon(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        r0: &[f32],
        r1: &[f32],
        ty: f32,
        intensity: f32,
        blend: BlendMode,
    ) {
        let tex_w = r0.len();
        let vw = vdupq_n_f32(tex_w as f32);
        let vhi = vdupq_n_f32(tex_w as f32 - 1.0);
        let vty = vdupq_n_f32(ty);
        let vint = vdupq_n_f32(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let (tx0i, tx1i, tx) = bilinear_axis4(u4(lo + i, u_row), vw, vhi);
            let i0 = lanes_i32(tx0i);
            let i1 = lanes_i32(tx1i);
            let a = from_lanes([
                r0[i0[0] as usize],
                r0[i0[1] as usize],
                r0[i0[2] as usize],
                r0[i0[3] as usize],
            ]);
            let b = from_lanes([
                r0[i1[0] as usize],
                r0[i1[1] as usize],
                r0[i1[2] as usize],
                r0[i1[3] as usize],
            ]);
            let c = from_lanes([
                r1[i0[0] as usize],
                r1[i0[1] as usize],
                r1[i0[2] as usize],
                r1[i0[3] as usize],
            ]);
            let d = from_lanes([
                r1[i1[0] as usize],
                r1[i1[1] as usize],
                r1[i1[2] as usize],
                r1[i1[3] as usize],
            ]);
            let bottom = vaddq_f32(a, vmulq_f32(vsubq_f32(b, a), tx));
            let top = vaddq_f32(c, vmulq_f32(vsubq_f32(d, c), tx));
            let lerped = vaddq_f32(bottom, vmulq_f32(vsubq_f32(top, bottom), vty));
            blend4(blend, span, i, vmulq_f32(lerped, vint), va, vb);
            i += 4;
        }
        fill_tail(&mut span[n..], lo + n, blend, |px| {
            let taps = bilinear_axis(u_row.at(px) as f32, tex_w);
            hoisted_lerp(taps, r0, r1, ty, intensity)
        });
    }

    #[target_feature(enable = "neon")]
    pub(super) fn fill_nearest_row_neon(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        tex_row: &[f32],
        intensity: f32,
        blend: BlendMode,
    ) {
        let tw = tex_row.len();
        let vw = vdupq_n_f32(tw as f32);
        let vzero = vdupq_n_f32(0.0);
        let vhi = vdupq_n_f32(tw as f32 - 1.0);
        let vint = vdupq_n_f32(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let u = u4(lo + i, u_row);
            let t = clamp4(vmulq_f32(u, vw), vzero, vhi);
            let ti = lanes_i32(vcvtq_s32_f32(t));
            let fetched = from_lanes([
                tex_row[ti[0] as usize],
                tex_row[ti[1] as usize],
                tex_row[ti[2] as usize],
                tex_row[ti[3] as usize],
            ]);
            blend4(blend, span, i, vmulq_f32(fetched, vint), va, vb);
            i += 4;
        }
        fill_tail(&mut span[n..], lo + n, blend, |px| {
            tex_row[nearest_index(u_row.at(px) as f32, tw)] * intensity
        });
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "neon")]
    pub(super) fn fill_nearest_2d_neon(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        v_row: AttrRow,
        texels: &[f32],
        tw: usize,
        th: usize,
        intensity: f32,
        blend: BlendMode,
    ) {
        let vww = vdupq_n_f32(tw as f32);
        let vwh = vdupq_n_f32(th as f32);
        let vzero = vdupq_n_f32(0.0);
        let vxhi = vdupq_n_f32(tw as f32 - 1.0);
        let vyhi = vdupq_n_f32(th as f32 - 1.0);
        let vint = vdupq_n_f32(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let px = lo + i;
            let u = u4(px, u_row);
            let v = u4(px, v_row);
            let tu = clamp4(vmulq_f32(u, vww), vzero, vxhi);
            let tv = clamp4(vmulq_f32(v, vwh), vzero, vyhi);
            let xi = lanes_i32(vcvtq_s32_f32(tu));
            let yi = lanes_i32(vcvtq_s32_f32(tv));
            let fetched = from_lanes([
                texels[yi[0] as usize * tw + xi[0] as usize],
                texels[yi[1] as usize * tw + xi[1] as usize],
                texels[yi[2] as usize * tw + xi[2] as usize],
                texels[yi[3] as usize * tw + xi[3] as usize],
            ]);
            blend4(blend, span, i, vmulq_f32(fetched, vint), va, vb);
            i += 4;
        }
        fill_tail(&mut span[n..], lo + n, blend, |px| {
            let tx = nearest_index(u_row.at(px) as f32, tw);
            let ty = nearest_index(v_row.at(px) as f32, th);
            texels[ty * tw + tx] * intensity
        });
    }

    /// One axis of the bilinear kernel on 4 lanes — `bilinear_axis`
    /// lane-wise: lower tap, upper tap and lerp weight. `fmax`/`fmin`
    /// propagate NaN, so a NaN coordinate keeps a NaN weight as in
    /// `f32::clamp`, and `fcvtzs` converts NaN to 0 (what `NaN as usize`
    /// gives), so every index lies in `[0, len − 1]` for every input.
    #[inline]
    #[target_feature(enable = "neon")]
    fn bilinear_axis4(
        coord: float32x4_t,
        len: float32x4_t,
        hi: float32x4_t,
    ) -> (int32x4_t, int32x4_t, float32x4_t) {
        let t = vsubq_f32(vmulq_f32(coord, len), vdupq_n_f32(0.5));
        let f = clamp4(t, vdupq_n_f32(0.0), hi);
        let i0 = vcvtq_s32_f32(f);
        let i0f = vcvtq_f32_s32(i0);
        let i1 = vcvtq_s32_f32(vminq_f32(vaddq_f32(i0f, vdupq_n_f32(1.0)), hi));
        (i0, i1, vsubq_f32(f, i0f))
    }

    /// The texels at `(x[k], y[k])` of a `tw`-wide texture, one per lane.
    #[inline]
    #[target_feature(enable = "neon")]
    fn fetch4(texels: &[f32], tw: usize, x: int32x4_t, y: int32x4_t) -> float32x4_t {
        let (x, y) = (lanes_i32(x), lanes_i32(y));
        let at = |k: usize| texels[y[k] as usize * tw + x[k] as usize];
        from_lanes([at(0), at(1), at(2), at(3)])
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "neon")]
    pub(super) fn fill_bilinear_2d_neon(
        span: &mut [f32],
        lo: usize,
        u_row: AttrRow,
        v_row: AttrRow,
        texels: &[f32],
        tw: usize,
        th: usize,
        intensity: f32,
        blend: BlendMode,
    ) {
        let vww = vdupq_n_f32(tw as f32);
        let vwh = vdupq_n_f32(th as f32);
        let vxhi = vdupq_n_f32(tw as f32 - 1.0);
        let vyhi = vdupq_n_f32(th as f32 - 1.0);
        let vint = vdupq_n_f32(intensity);
        let (va, vb) = alpha4(blend);
        let n = span.len() - span.len() % 4;
        let mut i = 0;
        while i < n {
            let px = lo + i;
            let (x0, x1, tx) = bilinear_axis4(u4(px, u_row), vww, vxhi);
            let (y0, y1, ty) = bilinear_axis4(u4(px, v_row), vwh, vyhi);
            let a = fetch4(texels, tw, x0, y0);
            let b = fetch4(texels, tw, x1, y0);
            let c = fetch4(texels, tw, x0, y1);
            let d = fetch4(texels, tw, x1, y1);
            let bottom = vaddq_f32(a, vmulq_f32(vsubq_f32(b, a), tx));
            let top = vaddq_f32(c, vmulq_f32(vsubq_f32(d, c), tx));
            let lerped = vaddq_f32(bottom, vmulq_f32(vsubq_f32(top, bottom), ty));
            blend4(blend, span, i, vmulq_f32(lerped, vint), va, vb);
            i += 4;
        }
        fill_tail(&mut span[n..], lo + n, blend, |px| {
            bilinear_sample(texels, tw, th, u_row.at(px) as f32, v_row.at(px) as f32) * intensity
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blend::AlphaFactor;
    use crate::texture::Texture;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Deterministic mixed-sign data with signed zeros sprinkled in, so the
    /// Max blend's `±0.0` corner is exercised by every run.
    fn data(tag: &str, seed: u64, len: usize) -> Vec<f32> {
        let mut rng = TestRng::deterministic(&format!("simd-{tag}-{seed}"));
        (0..len)
            .map(|_| {
                let bits = rng.next_u64();
                match bits & 0x1F {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((bits >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0,
                }
            })
            .collect()
    }

    fn mode_from(raw: u8) -> BlendMode {
        match raw {
            0 => BlendMode::Replace,
            1 => BlendMode::Additive,
            2 => BlendMode::Max,
            _ => BlendMode::Alpha(AlphaFactor::new(0.375)),
        }
    }

    /// Non-scalar levels this host can run.
    fn vector_levels() -> Vec<SimdLevel> {
        available()
            .into_iter()
            .filter(|l| *l != SimdLevel::Scalar)
            .collect()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            prop_assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{} diverged at index {}: got {:?} ({:#x}), want {:?} ({:#x})",
                what,
                i,
                g,
                g.to_bits(),
                w,
                w.to_bits()
            );
        }
        Ok(())
    }

    /// A `tw`×`th` texture of [`data`] texels (signed zeros included).
    fn texture(tag: &str, seed: u64, tw: usize, th: usize) -> Texture {
        let mut tex = Texture::new(tw, th);
        tex.data_mut().copy_from_slice(&data(tag, seed, tw * th));
        tex
    }

    /// Checks [`fill_bilinear_2d`] at every available level, scalar
    /// included, against the per-pixel oracle: `Texture::sample_bilinear`
    /// then `BlendMode::apply`, bit for bit. The span is the front of a
    /// longer buffer, whose guard elements must come back untouched (the
    /// AVX2 kernel's last block is a masked partial store).
    fn check_bilinear_2d(
        tex: &Texture,
        dst0: &[f32],
        lo: usize,
        rows: (AttrRow, AttrRow),
        intensity: f32,
        mode: BlendMode,
    ) -> Result<(), TestCaseError> {
        let (u_row, v_row) = rows;
        let mut want = dst0.to_vec();
        for (offset, dst) in want.iter_mut().enumerate() {
            let px = lo + offset;
            let sample = tex.sample_bilinear(u_row.at(px) as f32, v_row.at(px) as f32);
            *dst = mode.apply(*dst, sample * intensity);
        }
        let (tw, th) = (tex.width(), tex.height());
        let guard = [f32::MAX; 8];
        for level in available() {
            let mut got = [dst0, &guard].concat();
            fill_bilinear_2d(
                level,
                &mut got[..dst0.len()],
                lo,
                u_row,
                v_row,
                tex.data(),
                tw,
                th,
                intensity,
                mode,
            );
            let what = format!("{} on {tw}x{th} at lo {lo}", level.name());
            assert_bits_eq(&got[..dst0.len()], &want, &what)?;
            assert_bits_eq(
                &got[dst0.len()..],
                &guard,
                &format!("{what}, past the span"),
            )?;
        }
        Ok(())
    }

    /// Degenerate shapes (1×1, 1×N, N×1) and rows whose every coordinate
    /// lands exactly on a texel centre (`tx = ty = 0`), crossing the texture
    /// from below 0 to above 1, at every span length 0–40 (sub-lane tails
    /// included), several `lo` offsets, every blend mode and a zero
    /// intensity (signed-zero samples against signed-zero destinations).
    #[test]
    fn fill_bilinear_2d_matches_oracle_on_edge_shapes_and_texel_centres() {
        let shapes = [
            (1, 1),
            (1, 8),
            (8, 1),
            (1, 5),
            (5, 1),
            (4, 8),
            (8, 8),
            (7, 3),
        ];
        for (tw, th) in shapes {
            let tex = texture("edge-tex", (tw * 31 + th) as u64, tw, th);
            // With power-of-two sizes these rows are exact in f32: u·tw − 0.5
            // and v·th − 0.5 are whole numbers at every pixel.
            let centred = (
                AttrRow {
                    row_base: (0.5 - 4.0) / tw as f64,
                    ddx: 1.0 / tw as f64,
                    ox: 0.5,
                },
                AttrRow {
                    row_base: (th as f64 + 1.5) / th as f64,
                    ddx: -1.0 / th as f64,
                    ox: 0.5,
                },
            );
            let sloped = (
                AttrRow {
                    row_base: -0.3,
                    ddx: 0.045,
                    ox: 0.25,
                },
                AttrRow {
                    row_base: 1.2,
                    ddx: -0.037,
                    ox: 0.25,
                },
            );
            for rows in [centred, sloped] {
                for len in 0..=40 {
                    for lo in [0, 1, 3, 13] {
                        let dst0 = data("edge-dst", (len * 7 + lo) as u64, len);
                        for raw_mode in 0..4 {
                            for intensity in [0.8, -0.0] {
                                let mode = mode_from(raw_mode);
                                check_bilinear_2d(&tex, &dst0, lo, rows, intensity, mode).unwrap();
                            }
                        }
                    }
                }
            }
        }
    }

    /// NaN and ±inf coordinates: every level stays inside the texture (the
    /// SSE2/NEON taps are bounds-checked, the AVX2 gathers are checked in
    /// debug builds) and gives the oracle's bits — a NaN coordinate takes
    /// tap 0 with a NaN lerp weight, so the sample is NaN at every level,
    /// and ±inf clamps to the edge texel. The hoisted fill, whose `u` axis
    /// shares the vector axis code, is checked against its scalar twin on
    /// the same `u` rows.
    #[test]
    fn fill_bilinear_2d_keeps_non_finite_coordinates_inside_the_texture() {
        let finite = AttrRow {
            row_base: 0.4,
            ddx: 0.03,
            ox: 0.25,
        };
        let constant = |row_base: f64| AttrRow {
            row_base,
            ddx: 0.0,
            ox: 0.25,
        };
        // `ddx = inf` gives ±inf along the row and NaN (inf · 0) at the
        // pixel whose centre is `ox`.
        let steep = AttrRow {
            row_base: 0.5,
            ddx: f64::INFINITY,
            ox: 9.5,
        };
        let rows = [
            (constant(f64::NAN), finite),
            (finite, constant(f64::NAN)),
            (constant(f64::NAN), constant(f64::NAN)),
            (constant(f64::INFINITY), constant(f64::NEG_INFINITY)),
            (constant(f64::NEG_INFINITY), finite),
            (finite, constant(f64::INFINITY)),
            (steep, finite),
            (finite, steep),
            (steep, steep),
            (constant(1e30), constant(-1e30)),
        ];
        for (tw, th) in [(1, 1), (1, 6), (6, 1), (16, 16)] {
            let tex = texture("nonfinite-tex", (tw * 17 + th) as u64, tw, th);
            for (k, rows) in rows.into_iter().enumerate() {
                for len in [3, 8, 19, 40] {
                    let dst0 = data("nonfinite-dst", (k * 41 + len) as u64, len);
                    for raw_mode in 0..4 {
                        let mode = mode_from(raw_mode);
                        check_bilinear_2d(&tex, &dst0, 5, rows, 0.8, mode).unwrap();
                        // The hoisted fill's `u` axis takes the same inputs.
                        let (r0, r1) = (&tex.data()[..tw], &tex.data()[(th - 1) * tw..]);
                        let mut want = dst0.clone();
                        fill_hoisted(
                            SimdLevel::Scalar,
                            &mut want,
                            5,
                            rows.0,
                            r0,
                            r1,
                            0.3,
                            0.8,
                            mode,
                        );
                        for level in vector_levels() {
                            let mut got = dst0.clone();
                            fill_hoisted(level, &mut got, 5, rows.0, r0, r1, 0.3, 0.8, mode);
                            assert_bits_eq(&got, &want, level.name()).unwrap();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn from_name_roundtrip_and_off_alias() {
        for level in [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Neon,
        ] {
            assert_eq!(SimdLevel::from_name(level.name()), Some(level));
        }
        assert_eq!(SimdLevel::from_name("off"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::from_name("avx512"), None);
        assert_eq!(SimdLevel::from_name(""), None);
    }

    #[test]
    fn resolve_honours_supported_requests_and_falls_back() {
        let detected = detect();
        // No override: detection wins.
        assert_eq!(resolve(None, detected), detected);
        // `off` always resolves to scalar.
        assert_eq!(resolve(Some("off"), detected), SimdLevel::Scalar);
        assert_eq!(resolve(Some("scalar"), detected), SimdLevel::Scalar);
        // Unknown levels fall back to detection.
        assert_eq!(resolve(Some("avx512"), detected), detected);
        // Every available level is honoured when requested explicitly.
        for level in available() {
            assert_eq!(resolve(Some(level.name()), detected), level);
        }
        // A level from the other architecture is unsupported, so detection
        // wins.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(resolve(Some("neon"), detected), detected);
        #[cfg(target_arch = "aarch64")]
        assert_eq!(resolve(Some("avx2"), detected), detected);
    }

    #[test]
    fn available_is_scalar_first_and_contains_detected() {
        let levels = available();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.contains(&detected()));
    }

    #[test]
    fn force_overrides_and_restores_active() {
        let _serial = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let resolved = active();
        for level in available() {
            force(Some(level));
            assert_eq!(active(), level);
        }
        force(None);
        assert_eq!(active(), resolved);
    }

    #[test]
    fn max_blend_matches_scalar_on_signed_zeros() {
        let dst0 = [0.0f32, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0];
        for level in vector_levels() {
            for src in [0.0f32, -0.0] {
                let mut want = dst0;
                blend_uniform(SimdLevel::Scalar, BlendMode::Max, &mut want, src);
                let mut got = dst0;
                blend_uniform(level, BlendMode::Max, &mut got, src);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{} Max blend of {src:?} signed-zero mismatch at {i}",
                        level.name()
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn blend_uniform_bit_identical(seed in 0u64..1_000_000, len in 0usize..41, raw_mode in 0u8..4, src in -2.0f32..2.0) {
            let mode = mode_from(raw_mode);
            let dst0 = data("udst", seed, len);
            let mut want = dst0.clone();
            blend_uniform(SimdLevel::Scalar, mode, &mut want, src);
            for level in vector_levels() {
                let mut got = dst0.clone();
                blend_uniform(level, mode, &mut got, src);
                assert_bits_eq(&got, &want, level.name())?;
            }
        }

        #[test]
        fn copy_and_folds_bit_identical(seed in 0u64..1_000_000, len in 0usize..41, k in 1usize..5) {
            let sources: Vec<Vec<f32>> = (0..k)
                .map(|s| data(&format!("fold{s}"), seed, len))
                .collect();
            let refs: Vec<&[f32]> = sources.iter().map(|v| v.as_slice()).collect();
            let dst0 = data("folddst", seed, len);
            for level in vector_levels() {
                let mut want = dst0.clone();
                fold_copy(SimdLevel::Scalar, &mut want, &refs);
                let mut got = dst0.clone();
                fold_copy(level, &mut got, &refs);
                assert_bits_eq(&got, &want, level.name())?;

                let mut want = dst0.clone();
                fold_acc(SimdLevel::Scalar, &mut want, &refs);
                let mut got = dst0.clone();
                fold_acc(level, &mut got, &refs);
                assert_bits_eq(&got, &want, level.name())?;

                let mut got = dst0.clone();
                copy_slice(level, &mut got, &sources[0]);
                assert_bits_eq(&got, &sources[0], level.name())?;
            }
        }

        #[test]
        fn fill_hoisted_bit_identical(
            seed in 0u64..1_000_000,
            len in 0usize..41,
            lo in 0usize..23,
            raw_mode in 0u8..4,
            tex_w in 1usize..35,
            row_base in -0.4f64..1.4,
            ddx in -0.06f64..0.06,
            ty in 0.0f32..1.0,
        ) {
            let mode = mode_from(raw_mode);
            let u_row = AttrRow { row_base, ddx, ox: 0.25 };
            let r0 = data("hoist-r0", seed, tex_w);
            let r1 = data("hoist-r1", seed, tex_w);
            let dst0 = data("hoist-dst", seed, len);
            let mut want = dst0.clone();
            fill_hoisted(SimdLevel::Scalar, &mut want, lo, u_row, &r0, &r1, ty, 0.8, mode);
            for level in vector_levels() {
                let mut got = dst0.clone();
                fill_hoisted(level, &mut got, lo, u_row, &r0, &r1, ty, 0.8, mode);
                assert_bits_eq(&got, &want, level.name())?;
            }
        }

        #[test]
        fn fill_nearest_row_bit_identical(
            seed in 0u64..1_000_000,
            len in 0usize..41,
            lo in 0usize..23,
            raw_mode in 0u8..4,
            tw in 1usize..35,
            row_base in -0.4f64..1.4,
            ddx in -0.06f64..0.06,
        ) {
            let mode = mode_from(raw_mode);
            let u_row = AttrRow { row_base, ddx, ox: 0.25 };
            let tex_row = data("near-row", seed, tw);
            let dst0 = data("near-dst", seed, len);
            let mut want = dst0.clone();
            fill_nearest_row(SimdLevel::Scalar, &mut want, lo, u_row, &tex_row, 0.8, mode);
            for level in vector_levels() {
                let mut got = dst0.clone();
                fill_nearest_row(level, &mut got, lo, u_row, &tex_row, 0.8, mode);
                assert_bits_eq(&got, &want, level.name())?;
            }
        }

        #[test]
        fn fill_bilinear_2d_matches_oracle(
            seed in 0u64..1_000_000,
            len in 0usize..41,
            lo in 0usize..23,
            raw_mode in 0u8..4,
            tw in 1usize..19,
            th in 1usize..19,
            u_base in -0.4f64..1.4,
            v_base in -0.4f64..1.4,
            u_ddx in -0.06f64..0.06,
            v_ddx in -0.06f64..0.06,
        ) {
            let u_row = AttrRow { row_base: u_base, ddx: u_ddx, ox: 0.25 };
            let v_row = AttrRow { row_base: v_base, ddx: v_ddx, ox: 0.25 };
            let tex = texture("bilin2d-tex", seed, tw, th);
            let dst0 = data("bilin2d-dst", seed, len);
            check_bilinear_2d(&tex, &dst0, lo, (u_row, v_row), 0.8, mode_from(raw_mode))?;
        }

        #[test]
        fn fill_nearest_2d_bit_identical(
            seed in 0u64..1_000_000,
            len in 0usize..41,
            lo in 0usize..23,
            raw_mode in 0u8..4,
            tw in 1usize..19,
            th in 1usize..19,
            u_base in -0.4f64..1.4,
            v_base in -0.4f64..1.4,
            ddx in -0.06f64..0.06,
        ) {
            let mode = mode_from(raw_mode);
            let u_row = AttrRow { row_base: u_base, ddx, ox: 0.25 };
            let v_row = AttrRow { row_base: v_base, ddx: -ddx, ox: 0.25 };
            let texels = data("near2d-tex", seed, tw * th);
            let dst0 = data("near2d-dst", seed, len);
            let mut want = dst0.clone();
            fill_nearest_2d(SimdLevel::Scalar, &mut want, lo, u_row, v_row, &texels, tw, th, 0.8, mode);
            for level in vector_levels() {
                let mut got = dst0.clone();
                fill_nearest_2d(level, &mut got, lo, u_row, v_row, &texels, tw, th, 0.8, mode);
                assert_bits_eq(&got, &want, level.name())?;
            }
        }
    }
}
