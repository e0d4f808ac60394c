//! Triangle scan conversion with texture mapping.
//!
//! This is the heart of the software "graphics pipe": it does what the
//! InfiniteReality did for the paper — transform already-computed vertices
//! into fragments, sample the spot texture, and blend the result into the
//! target texture. It also counts vertices and fragments so the cost model
//! can charge simulated pipe time for the work performed.
//!
//! # The span walker
//!
//! The production path is a scanline *span walker*: triangle setup derives a
//! linear form `e(px, py) = c + px·a + py·b` per edge and a planar equation
//! per texture coordinate; each scanline then determines the exact covered
//! pixel interval per edge (the predicate is monotone along a row, so a
//! short binary search with the shared edge evaluator finds the boundary)
//! and the interior pixels are filled through a mutable row slice with
//! **zero** inside-tests. Every span fill is an explicit SIMD kernel
//! (`crate::simd`): when the interpolated `v` coordinate is constant along
//! the row — true for every axis-aligned spot quad — the bilinear sample
//! collapses to a single pre-fetched texture row pair (`fill_hoisted`), and
//! when that row pair is uniform the sample is a per-row constant (the
//! nearest-sample fast path: flat spot textures reduce to a `dst += const`
//! sweep, `blend_uniform`). Otherwise — rotated quads, flow-aligned spots —
//! both coordinates vary along the row and each pixel takes four 2-D taps
//! (`fill_bilinear_2d`, hardware-gathered on AVX2). Footprint mode has the
//! nearest-fetch twins (`fill_nearest_row`, `fill_nearest_2d`).
//!
//! Per-fragment Exact sampling outside the span fills (the narrow and cell
//! walkers, the 2-D kernel's scalar level and tails) goes through one scalar
//! sampler, `bilinear_sample`, bit-identical to `Texture::sample_bilinear`,
//! which stays the oracle.
//!
//! Bounding boxes narrower than `NARROW_TRIANGLE_WIDTH` skip the span search
//! and test the coverage predicate per pixel instead (`walk_narrow`): for a
//! few-pixel triangle the searches cost more than the tests they save.
//!
//! # The mesh cell walker
//!
//! Bent-spot meshes are made of small cells, each split along its
//! `v00`–`v11` diagonal into `A = (v00, v10, v11)` and `B = (v00, v11, v01)`,
//! with a few fragments per triangle — so per-triangle setup and the
//! bounding-box walk used to cost more than the fragments.
//! `rasterize_cell_row` walks a mesh row cell by cell instead. It sets up both
//! triangles as usual; when both set up, have the same winding and their
//! union box is narrower than `NARROW_TRIANGLE_WIDTH`, `walk_cell` scans that
//! union box once. Per pixel, one evaluation of the shared diagonal picks A
//! or B — canonical edge evaluation (see *Fill rule*) makes the diagonal's
//! predicate exactly complementary between the two — and the pixel is then
//! tested against that triangle's own box and other two edges, and shaded
//! with that triangle's own uv planes. A and B are disjoint, so every pixel
//! is blended at most once, with the value the per-triangle path gives it.
//!
//! Every other cell takes the per-triangle path, A then B: twisted or folded
//! cells (the windings differ, so the triangles overlap), wide cells (the
//! span walker is faster there), and cells with a rejected triangle. The walk
//! is generic over the per-fragment sample, so Exact (bilinear) and
//! Footprint (nearest fetch at the level the mesh row selected) share it;
//! the selection depends only on the cell's own geometry. The oracle tests
//! in this module check it against the reference path on production-shaped
//! meshes, in every blend mode, at every SIMD level.
//!
//! A naive per-pixel reference rasterizer is retained behind
//! `#[cfg(any(test, feature = "reference"))]` as the correctness oracle and
//! benchmark baseline. It keeps the pre-optimization *scan structure* (full
//! bounding-box scan, three inside-tests per pixel, per-pixel sampling,
//! bounds-checked texel accessors) but shares the new setup and per-pixel
//! arithmetic, so the two paths' outputs are **pixel-identical** — which the
//! equivalence tests assert exactly. Note the trade-off: because the shared
//! setup is itself cheaper than the seed's three-cross-products-per-pixel
//! code, benchmark speedups against this reference are *conservative*
//! relative to the original implementation.
//!
//! # Fill rule
//!
//! Coverage follows the top-left rule over counter-clockwise triangles, with
//! one refinement over a textbook implementation: every edge is evaluated in
//! a canonical endpoint order (sign-flipped when the traversal direction is
//! reversed), so the two triangles of a quad — or any two mesh cells sharing
//! an edge — compute *exactly* negated edge values on the shared edge. A
//! pixel centre exactly on the shared edge is therefore covered exactly
//! once, by IEEE negation symmetry rather than by luck.

use crate::blend::BlendMode;
use crate::simd::{self, SimdLevel};
use crate::texture::{FootprintPyramid, Texture};
use flowfield::Vec2;

/// A vertex as submitted to the graphics pipe: a position in *texture pixel
/// coordinates* and a texture coordinate into the bound spot texture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vertex {
    /// Position in target-texture pixel coordinates.
    pub position: Vec2,
    /// Texture coordinate (u, v) in `[0, 1]` into the bound spot texture.
    pub uv: (f32, f32),
}

impl Vertex {
    /// Creates a vertex.
    pub fn new(position: Vec2, u: f32, v: f32) -> Self {
        Vertex {
            position,
            uv: (u, v),
        }
    }
}

/// Counters of the geometry and fragment work a pipe performed; inputs of
/// the simulated-time cost model and of the bus-bandwidth accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasterStats {
    /// Vertices transformed (as submitted on the bus: 3 per lone triangle,
    /// 4 per quad, one per mesh node).
    pub vertices: u64,
    /// Triangles set up (after trivially-degenerate rejection).
    pub triangles: u64,
    /// Fragments generated (texels touched, before blending).
    pub fragments: u64,
    /// Primitives rejected because they were degenerate or fully outside.
    pub rejected: u64,
}

impl RasterStats {
    /// Accumulates the counters of another stats block.
    pub fn merge(&mut self, other: &RasterStats) {
        self.vertices += other.vertices;
        self.triangles += other.triangles;
        self.fragments += other.fragments;
        self.rejected += other.rejected;
    }
}

#[inline]
fn edge(a: Vec2, b: Vec2, p: Vec2) -> f64 {
    (b - a).cross(p - a)
}

/// Top-left fill rule: with counter-clockwise winding, a pixel centre lying
/// exactly on an edge belongs to the triangle only when the edge is a "left"
/// edge (going upward) or a "top" edge (horizontal, going leftward). This
/// guarantees that adjacent triangles sharing an edge — the two halves of a
/// spot quad, or neighbouring bent-spot mesh cells — cover every texel
/// exactly once, which additive blending requires for correctness.
#[inline]
fn edge_is_top_left(a: Vec2, b: Vec2) -> bool {
    let d = b - a;
    d.y > 0.0 || (d.y == 0.0 && d.x < 0.0)
}

/// One edge of a set-up triangle as a linear form over pixel indices:
/// `e(px, py) = c + px·px_coef + py·py_coef`, evaluated at pixel centres.
/// The form is built from the canonically ordered endpoints; `flip` records
/// whether the triangle traverses the edge against that order, so shared
/// edges of adjacent triangles produce exactly negated values.
#[derive(Debug, Clone, Copy)]
struct EdgeFn {
    px_coef: f64,
    py_coef: f64,
    c: f64,
    flip: bool,
    accept: bool,
}

impl EdgeFn {
    fn setup(a: Vec2, b: Vec2) -> EdgeFn {
        let accept = edge_is_top_left(a, b);
        // Canonical endpoint order: smaller (y, x) first.
        let swap = (b.y, b.x) < (a.y, a.x);
        let (lo, hi) = if swap { (b, a) } else { (a, b) };
        let dx = hi.x - lo.x;
        let dy = hi.y - lo.y;
        EdgeFn {
            px_coef: -dy,
            py_coef: dx,
            // Value at the centre of pixel (0, 0).
            c: dx * (0.5 - lo.y) - dy * (0.5 - lo.x),
            flip: swap,
            accept,
        }
    }

    /// Specializes the edge for one scanline.
    #[inline]
    fn row(&self, py: usize) -> RowEdge {
        RowEdge {
            c: self.c + py as f64 * self.py_coef,
            a: self.px_coef,
            flip: self.flip,
            accept: self.accept,
        }
    }
}

/// An [`EdgeFn`] restricted to one scanline: `e(px) = c + px·a`.
#[derive(Debug, Clone, Copy)]
struct RowEdge {
    c: f64,
    a: f64,
    flip: bool,
    accept: bool,
}

impl RowEdge {
    /// Inside-test at pixel column `px`. This is THE coverage predicate:
    /// the span walker (at span boundaries), the narrow walkers and the
    /// reference path (at every pixel) all call it, so coverage decisions
    /// agree bit-for-bit.
    #[inline]
    fn covers(&self, px: usize) -> bool {
        self.test(self.value(px))
    }

    /// The edge value at pixel column `px`.
    #[inline]
    fn value(&self, px: usize) -> f64 {
        self.c + px as f64 * self.a
    }

    /// The coverage predicate applied to an edge value from [`Self::value`].
    /// Two triangles sharing an edge evaluate the same value and apply
    /// opposite `flip` and `accept`, so exactly one of them accepts it.
    #[inline]
    fn test(&self, e: f64) -> bool {
        if self.flip {
            e < 0.0 || (e == 0.0 && self.accept)
        } else {
            e > 0.0 || (e == 0.0 && self.accept)
        }
    }

    /// The covered interval within `[x0, x1]`, or `None` when the row is
    /// fully outside this edge. `covers` is monotone along a row (the linear
    /// form is weakly monotone in `px` even in floating point, because
    /// IEEE rounding preserves weak monotonicity), so the covered set is a
    /// prefix, a suffix, or everything, and a binary search over the shared
    /// predicate finds the exact boundary pixel.
    fn interval(&self, x0: usize, x1: usize) -> Option<(usize, usize)> {
        let direction = if self.flip { -self.a } else { self.a };
        if direction == 0.0 {
            return if self.covers(x0) {
                Some((x0, x1))
            } else {
                None
            };
        }
        if direction > 0.0 {
            // Coverage is a suffix of the row.
            if !self.covers(x1) {
                return None;
            }
            if self.covers(x0) {
                return Some((x0, x1));
            }
            let (mut lo, mut hi) = (x0, x1);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if self.covers(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            Some((hi, x1))
        } else {
            // Coverage is a prefix of the row.
            if !self.covers(x0) {
                return None;
            }
            if self.covers(x1) {
                return Some((x0, x1));
            }
            let (mut lo, mut hi) = (x0, x1);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if self.covers(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            Some((x0, lo))
        }
    }
}

/// Planar interpolation of one texture coordinate:
/// `attr(px, py) = base + (cx − ox)·ddx + (cy − oy)·ddy` with `cx = px + 0.5`.
#[derive(Debug, Clone, Copy)]
struct AttrPlane {
    base: f64,
    ddx: f64,
    ddy: f64,
    ox: f64,
    oy: f64,
}

impl AttrPlane {
    /// Specializes the plane for one scanline.
    #[inline]
    fn row(&self, py: usize) -> AttrRow {
        AttrRow {
            row_base: self.base + ((py as f64 + 0.5) - self.oy) * self.ddy,
            ddx: self.ddx,
            ox: self.ox,
        }
    }
}

/// An [`AttrPlane`] restricted to one scanline. The fields are crate-visible
/// so the SIMD kernels can splat them and evaluate the same affine form per
/// lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttrRow {
    /// Attribute value at the row's reference column `ox`.
    pub(crate) row_base: f64,
    /// Attribute change per pixel step along the row.
    pub(crate) ddx: f64,
    /// Reference column (the triangle's first vertex x).
    pub(crate) ox: f64,
}

impl AttrRow {
    /// Attribute value at pixel column `px`; shared by both raster paths and
    /// mirrored lane-wise (in the same operation order) by the SIMD kernels.
    #[inline]
    pub(crate) fn at(&self, px: usize) -> f64 {
        self.row_base + ((px as f64 + 0.5) - self.ox) * self.ddx
    }
}

/// Everything triangle setup produces: clipped bounding box, the three edge
/// forms, and the two texture-coordinate planes. Shared by the span walker
/// and the reference path so both consume identical per-pixel arithmetic.
#[derive(Debug, Clone, Copy)]
struct TriSetup {
    x0: usize,
    x1: usize,
    y0: usize,
    y1: usize,
    edges: [EdgeFn; 3],
    u_plane: AttrPlane,
    v_plane: AttrPlane,
    /// Whether the submitted winding was clockwise, so setup swapped `v1`
    /// and `v2`.
    flipped: bool,
}

impl TriSetup {
    /// Sets up a triangle against the target, updating the rejection and
    /// triangle counters exactly like the original implementation (vertex
    /// counting is the caller's responsibility, so quads and meshes can
    /// account shared vertices correctly).
    fn new(
        target: &Texture,
        v0: Vertex,
        v1: Vertex,
        v2: Vertex,
        stats: &mut RasterStats,
    ) -> Option<TriSetup> {
        let area = edge(v0.position, v1.position, v2.position);
        if area.abs() < 1e-12 {
            stats.rejected += 1;
            return None;
        }
        // Normalise to counter-clockwise winding so the fill rule is
        // consistent.
        let (v0, v1, v2, flipped) = if area > 0.0 {
            (v0, v1, v2, false)
        } else {
            (v0, v2, v1, true)
        };
        let area = area.abs();

        // Bounding box clipped to the target.
        let min_x = v0.position.x.min(v1.position.x).min(v2.position.x);
        let max_x = v0.position.x.max(v1.position.x).max(v2.position.x);
        let min_y = v0.position.y.min(v1.position.y).min(v2.position.y);
        let max_y = v0.position.y.max(v1.position.y).max(v2.position.y);
        if max_x < 0.0
            || max_y < 0.0
            || min_x >= target.width() as f64
            || min_y >= target.height() as f64
        {
            stats.rejected += 1;
            return None;
        }
        stats.triangles += 1;
        let x0 = (min_x.floor().max(0.0)) as usize;
        let y0 = (min_y.floor().max(0.0)) as usize;
        let x1 = (max_x.ceil().min(target.width() as f64 - 1.0)) as usize;
        let y1 = (max_y.ceil().min(target.height() as f64 - 1.0)) as usize;

        let (px0, px1, px2) = (v0.position, v1.position, v2.position);
        let inv_area = 1.0 / area;
        let (u0, u1, u2) = (v0.uv.0 as f64, v1.uv.0 as f64, v2.uv.0 as f64);
        let (w0, w1, w2) = (v0.uv.1 as f64, v1.uv.1 as f64, v2.uv.1 as f64);
        // Gradients of the barycentric-interpolated attributes: the plane
        // through the three (position, attribute) samples.
        let u_plane = AttrPlane {
            base: u0,
            ddx: (u0 * (px1.y - px2.y) + u1 * (px2.y - px0.y) + u2 * (px0.y - px1.y)) * inv_area,
            ddy: (u0 * (px2.x - px1.x) + u1 * (px0.x - px2.x) + u2 * (px1.x - px0.x)) * inv_area,
            ox: px0.x,
            oy: px0.y,
        };
        let v_plane = AttrPlane {
            base: w0,
            ddx: (w0 * (px1.y - px2.y) + w1 * (px2.y - px0.y) + w2 * (px0.y - px1.y)) * inv_area,
            ddy: (w0 * (px2.x - px1.x) + w1 * (px0.x - px2.x) + w2 * (px1.x - px0.x)) * inv_area,
            ox: px0.x,
            oy: px0.y,
        };

        Some(TriSetup {
            x0,
            x1,
            y0,
            y1,
            edges: [
                EdgeFn::setup(px1, px2),
                EdgeFn::setup(px2, px0),
                EdgeFn::setup(px0, px1),
            ],
            u_plane,
            v_plane,
            flipped,
        })
    }
}

#[inline]
fn row_is_uniform(row: &[f32]) -> bool {
    let first = row[0];
    row.iter().all(|&v| v == first)
}

/// Fills one covered span `[lo, hi]` of a scanline.
///
/// `row` is the mutable slice of the *span* (index 0 corresponds to column
/// `lo`), so the destination side needs no per-pixel bounds checks after the
/// one slice construction. Every path runs on the explicit SIMD kernels for
/// `level` (see [`crate::simd`]): the uniform sweep, the hoisted-bilinear
/// fill, and the general 2-D bilinear fill. Produces values bit-identical to
/// calling `spot.sample_bilinear` + `blend.apply` per pixel at every level.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fill_span_with(
    row: &mut [f32],
    lo: usize,
    level: SimdLevel,
    spot: &Texture,
    u_row: AttrRow,
    v_row: AttrRow,
    intensity: f32,
    blend: BlendMode,
) {
    let tex_w = spot.width();
    let tex_h = spot.height();
    if v_row.ddx == 0.0 {
        // `v` is constant along the row (axis-aligned quads, axis-aligned
        // mesh cells): hoist the entire vertical half of the bilinear sample
        // out of the pixel loop. With ddx == ±0.0 the per-pixel formula
        // reduces exactly to `row_base`, so this matches the general path.
        // Keeps `floor`, as the scalar hoisted fill does (`simd::hoisted_at`
        // says why).
        let v = v_row.row_base as f32;
        let fy = (v * tex_h as f32 - 0.5).clamp(0.0, tex_h as f32 - 1.0);
        let ty0 = fy.floor() as usize;
        let ty1 = (ty0 + 1).min(tex_h - 1);
        let ty = fy - ty0 as f32;
        let tex_row0 = &spot.data()[ty0 * tex_w..(ty0 + 1) * tex_w];
        let tex_row1 = &spot.data()[ty1 * tex_w..(ty1 + 1) * tex_w];
        if row_is_uniform(tex_row0) && row_is_uniform(tex_row1) {
            // Nearest-sample fast path: both sampled texture rows are
            // uniform, so every pixel of the span receives the same value
            // and the fill is one uniform (vectorizable) blend sweep.
            let a = tex_row0[0];
            let c = tex_row1[0];
            let sample = (a + (c - a) * ty) * intensity;
            simd::blend_uniform(level, blend, row, sample);
            return;
        }
        simd::fill_hoisted(
            level, row, lo, u_row, tex_row0, tex_row1, ty, intensity, blend,
        );
    } else {
        // General path: both texture coordinates vary along the row, each
        // pixel takes four 2-D taps.
        simd::fill_bilinear_2d(
            level,
            row,
            lo,
            u_row,
            v_row,
            spot.data(),
            tex_w,
            tex_h,
            intensity,
            blend,
        );
    }
}

/// How a primitive's fragments are shaded: the texture it samples and the
/// filter it samples it with. Coverage never depends on the shading.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Shading<'a> {
    /// Exact mode: bilinear filtering of the spot texture.
    Bilinear(&'a Texture),
    /// Footprint mode: one nearest fetch from an already chosen (prefiltered)
    /// pyramid level.
    Nearest(&'a Texture),
}

/// The per-fragment sample of [`Shading::Bilinear`] at `(u, v)`, scaled by
/// `intensity`.
#[inline(always)]
fn bilinear_sampler(spot: &Texture, intensity: f32) -> impl Fn(f32, f32) -> f32 + '_ {
    let (tw, th, texels) = (spot.width(), spot.height(), spot.data());
    move |u, v| bilinear_sample(texels, tw, th, u, v) * intensity
}

/// The per-fragment sample of [`Shading::Nearest`] at `(u, v)`, scaled by
/// `intensity`.
#[inline(always)]
fn nearest_sampler(tex: &Texture, intensity: f32) -> impl Fn(f32, f32) -> f32 + '_ {
    let (tw, th, texels) = (tex.width(), tex.height(), tex.data());
    move |u, v| texels[nearest_index(v, th) * tw + nearest_index(u, tw)] * intensity
}

/// Rasterizes a set-up triangle (no vertex counting): narrow bounding boxes
/// take the per-fragment [`walk_narrow`], wider ones the span walker, whose
/// fills run on the SIMD kernels.
fn rasterize_setup(
    target: &mut Texture,
    shading: Shading,
    setup: &TriSetup,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    if setup.x1 - setup.x0 < NARROW_TRIANGLE_WIDTH {
        match shading {
            Shading::Bilinear(spot) => walk_narrow_blended(
                target,
                setup,
                blend,
                stats,
                bilinear_sampler(spot, intensity),
            ),
            Shading::Nearest(tex) => {
                walk_narrow_blended(target, setup, blend, stats, nearest_sampler(tex, intensity))
            }
        }
    } else {
        match shading {
            Shading::Bilinear(spot) => {
                walk_spans_wide(target, spot, setup, intensity, blend, stats)
            }
            Shading::Nearest(tex) => {
                walk_spans_wide_nearest(target, tex, setup, intensity, blend, stats)
            }
        }
    }
}

/// Dispatches the blend mode once per triangle: additive blending (the spot
/// noise sum) gets its own monomorphized copy of [`walk_narrow`].
#[inline(always)]
fn walk_narrow_blended<S: Fn(f32, f32) -> f32>(
    target: &mut Texture,
    setup: &TriSetup,
    blend: BlendMode,
    stats: &mut RasterStats,
    sample: S,
) {
    match blend {
        BlendMode::Additive => walk_narrow(target, setup, stats, sample, |d, s| d + s),
        mode => walk_narrow(target, setup, stats, sample, move |d, s| mode.apply(d, s)),
    }
}

/// Bounding boxes narrower than this skip the span search: few-pixel
/// triangles are bound by texture sampling and per-row setup, not by
/// inside-tests, so per-row boundary searches cost more than they save. The
/// same bound decides whether a mesh cell is scanned as one box by
/// [`walk_cell`]. Both narrow walkers evaluate the same predicate per pixel
/// and shade with the same arithmetic, so outputs remain pixel-identical.
const NARROW_TRIANGLE_WIDTH: usize = 12;

/// The narrow-triangle walker: the per-pixel coverage loop over the
/// bounding box, shading each covered fragment with `sample` (bilinear in
/// Exact mode, one nearest fetch in Footprint mode) and blending it with
/// `apply`, both monomorphized per triangle. Mesh cells reach it only when
/// they cannot be fused (see [`rasterize_cell_row`]); lone triangles and
/// small quads always do.
///
/// `#[inline(never)]` keeps each monomorphized copy a standalone function,
/// so the register allocation of its sampling-bound loop does not depend on
/// the dispatcher it is called from.
#[inline(never)]
fn walk_narrow<S: Fn(f32, f32) -> f32, F: Fn(f32, f32) -> f32>(
    target: &mut Texture,
    setup: &TriSetup,
    stats: &mut RasterStats,
    sample: S,
    apply: F,
) {
    let width = target.width();
    let data = target.data_mut();
    for py in setup.y0..=setup.y1 {
        let e0 = setup.edges[0].row(py);
        let e1 = setup.edges[1].row(py);
        let e2 = setup.edges[2].row(py);
        let u_row = setup.u_plane.row(py);
        let v_row = setup.v_plane.row(py);
        let row_start = py * width;
        let row = &mut data[row_start + setup.x0..=row_start + setup.x1];
        for (offset, dst) in row.iter_mut().enumerate() {
            let px = setup.x0 + offset;
            if !(e0.covers(px) && e1.covers(px) && e2.covers(px)) {
                continue;
            }
            let sample = sample(u_row.at(px) as f32, v_row.at(px) as f32);
            *dst = apply(*dst, sample);
            stats.fragments += 1;
        }
    }
}

/// The wide-triangle walker: exact span search per scanline, lane-blocked
/// fills with block-specialized blending.
fn walk_spans_wide(
    target: &mut Texture,
    spot_texture: &Texture,
    setup: &TriSetup,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    let width = target.width();
    let data = target.data_mut();
    let level = simd::active();
    for py in setup.y0..=setup.y1 {
        let Some((lo, hi)) = covered_interval(setup, py) else {
            continue;
        };
        let u_row = setup.u_plane.row(py);
        let v_row = setup.v_plane.row(py);
        let row_start = py * width;
        let span = &mut data[row_start + lo..=row_start + hi];
        fill_span_with(
            span,
            lo,
            level,
            spot_texture,
            u_row,
            v_row,
            intensity,
            blend,
        );
        stats.fragments += (hi - lo + 1) as u64;
    }
}

/// The exact covered pixel interval of scanline `py`, intersecting the three
/// edges' intervals over the clipped bounding box (shared by the exact and
/// the footprint span walkers).
#[inline]
fn covered_interval(setup: &TriSetup, py: usize) -> Option<(usize, usize)> {
    let mut lo = setup.x0;
    let mut hi = setup.x1;
    for edge_fn in &setup.edges {
        let (a, b) = edge_fn.row(py).interval(setup.x0, setup.x1)?;
        lo = lo.max(a);
        hi = hi.min(b);
    }
    (lo <= hi).then_some((lo, hi))
}

/// Rasterizes a set-up triangle with footprint sampling: a single nearest
/// fetch per fragment from the pyramid level selected from the triangle's uv
/// extent, replacing the four-tap bilinear kernel of the exact path.
///
/// The level selection is per scanline in structure, but because the uv
/// planes are affine their gradients — and therefore the footprint (base
/// texels covered per pixel step) — are the same on every row of the
/// triangle, so it is hoisted to triangle setup. Coverage decisions use the
/// same edge predicate as the exact path, so adjacent mesh cells still cover
/// every texel exactly once — footprint mode changes *sampling*, never
/// coverage (a coverage change would double-blend shared edges and break the
/// additive sum).
fn rasterize_setup_footprint(
    target: &mut Texture,
    pyramid: &FootprintPyramid,
    setup: &TriSetup,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    let level = pyramid.level_for_step(setup_footprint_step(
        setup,
        pyramid.base().width() as f64,
        pyramid.base().height() as f64,
    ));
    let shading = Shading::Nearest(pyramid.level(level));
    rasterize_setup(target, shading, setup, intensity, blend, stats);
}

/// The footprint step of a set-up triangle: base texels covered per pixel
/// step, the input to [`FootprintPyramid::level_for_step`].
#[inline]
fn setup_footprint_step(setup: &TriSetup, base_w: f64, base_h: f64) -> f32 {
    let step_u = setup.u_plane.ddx.abs().max(setup.u_plane.ddy.abs()) * base_w;
    let step_v = setup.v_plane.ddx.abs().max(setup.v_plane.ddy.abs()) * base_h;
    step_u.max(step_v) as f32
}

/// The footprint step a triangle *would* rasterize with, without
/// rasterizing it — `None` for degenerate (rejected) triangles. Lets mesh
/// walkers aggregate a level over several triangles (per-row selection)
/// before committing to one. The uv gradients are winding-invariant in
/// magnitude, so this matches [`setup_footprint_step`] without needing the
/// full setup.
pub(crate) fn triangle_footprint_step(
    v0: Vertex,
    v1: Vertex,
    v2: Vertex,
    base_w: f64,
    base_h: f64,
) -> Option<f32> {
    let area = edge(v0.position, v1.position, v2.position);
    if area.abs() < 1e-12 {
        return None;
    }
    let inv_area = 1.0 / area.abs();
    let (px0, px1, px2) = (v0.position, v1.position, v2.position);
    let (u0, u1, u2) = (v0.uv.0 as f64, v1.uv.0 as f64, v2.uv.0 as f64);
    let (w0, w1, w2) = (v0.uv.1 as f64, v1.uv.1 as f64, v2.uv.1 as f64);
    let u_ddx = (u0 * (px1.y - px2.y) + u1 * (px2.y - px0.y) + u2 * (px0.y - px1.y)) * inv_area;
    let u_ddy = (u0 * (px2.x - px1.x) + u1 * (px0.x - px2.x) + u2 * (px1.x - px0.x)) * inv_area;
    let v_ddx = (w0 * (px1.y - px2.y) + w1 * (px2.y - px0.y) + w2 * (px0.y - px1.y)) * inv_area;
    let v_ddy = (w0 * (px2.x - px1.x) + w1 * (px0.x - px2.x) + w2 * (px1.x - px0.x)) * inv_area;
    let step_u = u_ddx.abs().max(u_ddy.abs()) * base_w;
    let step_v = v_ddx.abs().max(v_ddy.abs()) * base_h;
    Some(step_u.max(step_v) as f32)
}

/// One axis of the bilinear kernel at texture coordinate `coord` on a
/// `len`-texel axis: the lower tap, the upper tap and the lerp weight, with
/// [`Texture::sample_bilinear`]'s arithmetic. The clamped coordinate lies in
/// `[0, len − 1]` or is NaN; truncation equals `floor` there, and NaN casts
/// to 0 as `NaN.floor()` does, so the index is a plain cast rather than a
/// libm `floorf` call (baseline x86-64 has no rounding instruction).
#[inline(always)]
pub(crate) fn bilinear_axis(coord: f32, len: usize) -> (usize, usize, f32) {
    let f = (coord * len as f32 - 0.5).clamp(0.0, len as f32 - 1.0);
    let i0 = f as usize;
    (i0, (i0 + 1).min(len - 1), f - i0 as f32)
}

/// Bilinear sample at `(u, v)` of the `tw`×`th` texture `texels`:
/// bit-identical to [`Texture::sample_bilinear`] (the oracle) for every
/// input, NaN included. The Exact-mode sampler of the narrow and cell
/// walkers, and the scalar level and tails of `simd::fill_bilinear_2d`.
#[inline(always)]
pub(crate) fn bilinear_sample(texels: &[f32], tw: usize, th: usize, u: f32, v: f32) -> f32 {
    let (x0, x1, tx) = bilinear_axis(u, tw);
    let (y0, y1, ty) = bilinear_axis(v, th);
    let (row0, row1) = (y0 * tw, y1 * tw);
    let (a, b) = (texels[row0 + x0], texels[row0 + x1]);
    let (c, d) = (texels[row1 + x0], texels[row1 + x1]);
    let bottom = a + (b - a) * tx;
    let top = c + (d - c) * tx;
    bottom + (top - bottom) * ty
}

/// Nearest-sample index of `coord` in a `len`-texel axis, matching
/// [`Texture::sample_nearest`]'s clamping exactly (also the scalar oracle of
/// the SIMD nearest fills).
#[inline(always)]
pub(crate) fn nearest_index(coord: f32, len: usize) -> usize {
    ((coord * len as f32) as isize).clamp(0, len as isize - 1) as usize
}

/// The wide-triangle walker with nearest sampling — the footprint-mode twin
/// of [`walk_spans_wide`]: exact span search, lane-blocked nearest fills,
/// uniform-row collapse.
fn walk_spans_wide_nearest(
    target: &mut Texture,
    tex: &Texture,
    setup: &TriSetup,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    let width = target.width();
    let data = target.data_mut();
    let tw = tex.width();
    let th = tex.height();
    let texels = tex.data();
    let level = simd::active();
    for py in setup.y0..=setup.y1 {
        let Some((lo, hi)) = covered_interval(setup, py) else {
            continue;
        };
        let u_row = setup.u_plane.row(py);
        let v_row = setup.v_plane.row(py);
        let row_start = py * width;
        let span = &mut data[row_start + lo..=row_start + hi];
        if v_row.ddx == 0.0 {
            // Row-constant `v`: one texture row serves the whole span.
            let ty = nearest_index(v_row.row_base as f32, th);
            let tex_row = &texels[ty * tw..(ty + 1) * tw];
            if row_is_uniform(tex_row) {
                simd::blend_uniform(level, blend, span, tex_row[0] * intensity);
            } else {
                simd::fill_nearest_row(level, span, lo, u_row, tex_row, intensity, blend);
            }
        } else {
            simd::fill_nearest_2d(
                level, span, lo, u_row, v_row, texels, tw, th, intensity, blend,
            );
        }
        stats.fragments += (hi - lo + 1) as u64;
    }
}

/// One triangle of a fused mesh cell restricted to one scanline: its
/// column range (empty outside its bounding box), the shared diagonal as
/// this triangle evaluates it, its two other edges and its own uv rows.
#[derive(Debug, Clone, Copy)]
struct CellTriangleRow {
    x0: usize,
    x1: usize,
    diagonal: RowEdge,
    others: [RowEdge; 2],
    u_row: AttrRow,
    v_row: AttrRow,
}

impl CellTriangleRow {
    /// Specializes `setup`, whose edge `diagonal` (1 or 2) is the shared
    /// one, for scanline `py`.
    #[inline]
    fn new(setup: &TriSetup, diagonal: usize, py: usize) -> CellTriangleRow {
        let (x0, x1) = if (setup.y0..=setup.y1).contains(&py) {
            (setup.x0, setup.x1)
        } else {
            (usize::MAX, 0)
        };
        CellTriangleRow {
            x0,
            x1,
            diagonal: setup.edges[diagonal].row(py),
            others: [setup.edges[0].row(py), setup.edges[3 - diagonal].row(py)],
            u_row: setup.u_plane.row(py),
            v_row: setup.v_plane.row(py),
        }
    }
}

/// A mesh cell whose two triangles `A = (v00, v10, v11)` and
/// `B = (v00, v11, v01)` are scanned as one box (see [`walk_cell`]).
#[derive(Debug, Clone, Copy)]
struct FusedCell<'a> {
    x0: usize,
    x1: usize,
    y0: usize,
    y1: usize,
    /// A and B, each with the index of its diagonal edge.
    triangles: [(&'a TriSetup, usize); 2],
}

impl<'a> FusedCell<'a> {
    /// Fuses the set-up triangles `a` and `b` of one cell, or `None` when
    /// the cell must take the per-triangle path: the windings differ (a
    /// twisted or folded cell, whose triangles overlap) or the union box is
    /// not narrower than [`NARROW_TRIANGLE_WIDTH`].
    fn fuse(a: &'a TriSetup, b: &'a TriSetup) -> Option<FusedCell<'a>> {
        if a.flipped != b.flipped {
            return None;
        }
        let (x0, x1) = (a.x0.min(b.x0), a.x1.max(b.x1));
        if x1 - x0 >= NARROW_TRIANGLE_WIDTH {
            return None;
        }
        // `TriSetup::new` builds edges (v1, v2), (v2, v0), (v0, v1) after
        // swapping v1 and v2 of a clockwise triangle, so the v00–v11
        // diagonal is A's edge 1 and B's edge 2, or the reverse when both
        // were flipped.
        let (diag_a, diag_b) = if a.flipped { (2, 1) } else { (1, 2) };
        // A and B traverse the diagonal in opposite directions, so they
        // build its linear form from the same canonical endpoints (bit-equal
        // coefficients) with opposite `flip`, and at most one of them accepts
        // any edge value. Only NaN coordinates break the canonical order;
        // such cells take the per-triangle path.
        if a.edges[diag_a].flip == b.edges[diag_b].flip {
            return None;
        }
        Some(FusedCell {
            x0,
            x1,
            y0: a.y0.min(b.y0),
            y1: a.y1.max(b.y1),
            triangles: [(a, diag_a), (b, diag_b)],
        })
    }
}

/// Rasterizes the row of mesh cells between the vertex rows `top` and
/// `bottom` (equal lengths; cell `c` has corners `v00 = top[c]`,
/// `v10 = top[c + 1]`, `v01 = bottom[c]`, `v11 = bottom[c + 1]` and
/// triangles `A = (v00, v10, v11)`, `B = (v00, v11, v01)`). No vertex
/// counting: meshes count one vertex per node up front.
///
/// Cells that [`FusedCell::fuse`] accepts are scanned once by
/// [`walk_cell`]; every other cell, and every cell with a rejected
/// triangle, takes the per-triangle path, A then B. The shading and the
/// blend mode are dispatched once per row; additive blending (the spot
/// noise sum) gets its own monomorphized copy of the cell loop.
pub(crate) fn rasterize_cell_row(
    target: &mut Texture,
    top: &[Vertex],
    bottom: &[Vertex],
    shading: Shading,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    let row = CellRow {
        top,
        bottom,
        shading,
        intensity,
        blend,
    };
    let add = |d: f32, s: f32| d + s;
    let apply = move |d: f32, s: f32| blend.apply(d, s);
    match (shading, blend) {
        (Shading::Bilinear(spot), BlendMode::Additive) => {
            row.walk(target, stats, bilinear_sampler(spot, intensity), add)
        }
        (Shading::Bilinear(spot), _) => {
            row.walk(target, stats, bilinear_sampler(spot, intensity), apply)
        }
        (Shading::Nearest(tex), BlendMode::Additive) => {
            row.walk(target, stats, nearest_sampler(tex, intensity), add)
        }
        (Shading::Nearest(tex), _) => {
            row.walk(target, stats, nearest_sampler(tex, intensity), apply)
        }
    }
}

/// One row of mesh cells and how to paint it (see [`rasterize_cell_row`]).
#[derive(Clone, Copy)]
struct CellRow<'a> {
    top: &'a [Vertex],
    bottom: &'a [Vertex],
    shading: Shading<'a>,
    intensity: f32,
    blend: BlendMode,
}

impl CellRow<'_> {
    /// The cell loop, monomorphized per shading and blend: `sample` and
    /// `apply` serve the fused cells, the row's shading, intensity and blend
    /// the per-triangle fallback.
    #[inline(never)]
    fn walk<S: Fn(f32, f32) -> f32, F: Fn(f32, f32) -> f32>(
        &self,
        target: &mut Texture,
        stats: &mut RasterStats,
        sample: S,
        apply: F,
    ) {
        for (t, b) in self.top.windows(2).zip(self.bottom.windows(2)) {
            let (v00, v10, v01, v11) = (t[0], t[1], b[0], b[1]);
            let tri_a = TriSetup::new(target, v00, v10, v11, stats);
            let tri_b = TriSetup::new(target, v00, v11, v01, stats);
            if let (Some(a), Some(b)) = (&tri_a, &tri_b) {
                if let Some(cell) = FusedCell::fuse(a, b) {
                    stats.fragments += walk_cell(target, &cell, &sample, &apply);
                    continue;
                }
            }
            for setup in [tri_a, tri_b].iter().flatten() {
                let (shading, intensity, blend) = (self.shading, self.intensity, self.blend);
                rasterize_setup(target, shading, setup, intensity, blend, stats);
            }
        }
    }
}

/// The mesh cell walker: scans a fused cell's union box once. At each pixel
/// one evaluation of the shared diagonal picks the only triangle that can
/// cover it — canonical edge evaluation makes the diagonal's predicate
/// exactly complementary between A and B — and the pixel is then tested
/// against that triangle's own predicates and shaded with its own uv planes.
/// The tests repeat the picked triangle's diagonal predicate (a NaN edge
/// value satisfies neither) and check its own bounding box, the only pixels
/// the per-triangle path visits for it. Coverage, sample values and the
/// single blend per pixel are therefore exactly those of rasterizing A then
/// B. Returns the fragment count.
#[inline(always)]
fn walk_cell<S: Fn(f32, f32) -> f32, F: Fn(f32, f32) -> f32>(
    target: &mut Texture,
    cell: &FusedCell,
    sample: &S,
    apply: &F,
) -> u64 {
    let width = target.width();
    let data = target.data_mut();
    let mut fragments = 0;
    for py in cell.y0..=cell.y1 {
        let rows = cell
            .triangles
            .map(|(setup, diagonal)| CellTriangleRow::new(setup, diagonal, py));
        let row_start = py * width;
        let row = &mut data[row_start + cell.x0..=row_start + cell.x1];
        for (offset, dst) in row.iter_mut().enumerate() {
            let px = cell.x0 + offset;
            let e = rows[0].diagonal.value(px);
            let tri = if rows[0].diagonal.test(e) {
                &rows[0]
            } else {
                &rows[1]
            };
            if !(tri.diagonal.test(e)
                && (tri.x0..=tri.x1).contains(&px)
                && tri.others[0].covers(px)
                && tri.others[1].covers(px))
            {
                continue;
            }
            let sample = sample(tri.u_row.at(px) as f32, tri.v_row.at(px) as f32);
            *dst = apply(*dst, sample);
            fragments += 1;
        }
    }
    fragments
}

/// Footprint-mode counterpart of [`rasterize_triangle_uncounted`]: same
/// setup, rejection and fragment accounting, nearest sampling of the
/// pyramid level matching the triangle's uv footprint.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rasterize_triangle_footprint_uncounted(
    target: &mut Texture,
    pyramid: &FootprintPyramid,
    v0: Vertex,
    v1: Vertex,
    v2: Vertex,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    if let Some(setup) = TriSetup::new(target, v0, v1, v2, stats) {
        rasterize_setup_footprint(target, pyramid, &setup, intensity, blend, stats);
    }
}

/// Footprint-mode counterpart of [`rasterize_quad`]: both triangles sample
/// the pyramid with the quad's footprint-selected level.
pub fn rasterize_quad_footprint(
    target: &mut Texture,
    pyramid: &FootprintPyramid,
    quad: [Vertex; 4],
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    stats.vertices += 4;
    rasterize_triangle_footprint_uncounted(
        target, pyramid, quad[0], quad[1], quad[2], intensity, blend, stats,
    );
    rasterize_triangle_footprint_uncounted(
        target, pyramid, quad[0], quad[2], quad[3], intensity, blend, stats,
    );
}

/// Rasterizes a triangle without counting its vertices (used by quads and
/// meshes, whose vertex accounting reflects shared vertices).
#[allow(clippy::too_many_arguments)]
pub(crate) fn rasterize_triangle_uncounted(
    target: &mut Texture,
    spot_texture: &Texture,
    v0: Vertex,
    v1: Vertex,
    v2: Vertex,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    if let Some(setup) = TriSetup::new(target, v0, v1, v2, stats) {
        let shading = Shading::Bilinear(spot_texture);
        rasterize_setup(target, shading, &setup, intensity, blend, stats);
    }
}

/// Rasterizes a single textured triangle into `target`.
///
/// The spot texture is sampled bilinearly at the interpolated uv coordinate,
/// multiplied by `intensity` (the random spot weight `aᵢ`) and blended into
/// the target using `blend`.
#[allow(clippy::too_many_arguments)]
pub fn rasterize_triangle(
    target: &mut Texture,
    spot_texture: &Texture,
    v0: Vertex,
    v1: Vertex,
    v2: Vertex,
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    stats.vertices += 3;
    rasterize_triangle_uncounted(target, spot_texture, v0, v1, v2, intensity, blend, stats);
}

/// Rasterizes a textured quadrilateral (the standard four-vertex spot) as two
/// triangles. Vertices must be supplied in perimeter order.
///
/// A quad streams exactly 4 vertices over the bus (the two triangles share
/// the `quad[0]`–`quad[2]` diagonal), counted up front — so the accounting
/// stays correct even when one of the triangles is rejected as degenerate.
pub fn rasterize_quad(
    target: &mut Texture,
    spot_texture: &Texture,
    quad: [Vertex; 4],
    intensity: f32,
    blend: BlendMode,
    stats: &mut RasterStats,
) {
    stats.vertices += 4;
    rasterize_triangle_uncounted(
        target,
        spot_texture,
        quad[0],
        quad[1],
        quad[2],
        intensity,
        blend,
        stats,
    );
    rasterize_triangle_uncounted(
        target,
        spot_texture,
        quad[0],
        quad[2],
        quad[3],
        intensity,
        blend,
        stats,
    );
}

/// Builds the axis-aligned quad covering a disc spot of radius `radius`
/// centred at `center` (in pixel coordinates), with uv spanning the full spot
/// texture.
pub fn axis_aligned_spot_quad(center: Vec2, radius: f64) -> [Vertex; 4] {
    let r = radius;
    [
        Vertex::new(center + Vec2::new(-r, -r), 0.0, 0.0),
        Vertex::new(center + Vec2::new(r, -r), 1.0, 0.0),
        Vertex::new(center + Vec2::new(r, r), 1.0, 1.0),
        Vertex::new(center + Vec2::new(-r, r), 0.0, 1.0),
    ]
}

/// The naive per-pixel reference rasterizer: full bounding-box scan with
/// three inside-tests per pixel, per-pixel bilinear sampling and
/// bounds-checked texel accessors. This is the scan *structure* the span
/// walker replaced; it is retained as the correctness oracle (outputs are
/// pixel-identical because both paths share `TriSetup`, the coverage
/// predicate and the per-pixel shading arithmetic) and as the baseline the
/// benches compare against. Since the shared setup is cheaper than the
/// seed's per-pixel cross products, measured speedups against this path
/// understate the win over the original code.
#[cfg(any(test, feature = "reference"))]
pub mod reference {
    use super::*;

    fn rasterize_setup_naive(
        target: &mut Texture,
        spot_texture: &Texture,
        setup: &TriSetup,
        intensity: f32,
        blend: BlendMode,
        stats: &mut RasterStats,
    ) {
        for py in setup.y0..=setup.y1 {
            let e0 = setup.edges[0].row(py);
            let e1 = setup.edges[1].row(py);
            let e2 = setup.edges[2].row(py);
            let u_row = setup.u_plane.row(py);
            let v_row = setup.v_plane.row(py);
            for px in setup.x0..=setup.x1 {
                if !(e0.covers(px) && e1.covers(px) && e2.covers(px)) {
                    continue;
                }
                let u = u_row.at(px) as f32;
                let v = v_row.at(px) as f32;
                let sample = spot_texture.sample_bilinear(u, v) * intensity;
                let dst = target.texel(px, py);
                *target.texel_mut(px, py) = blend.apply(dst, sample);
                stats.fragments += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rasterize_triangle_uncounted(
        target: &mut Texture,
        spot_texture: &Texture,
        v0: Vertex,
        v1: Vertex,
        v2: Vertex,
        intensity: f32,
        blend: BlendMode,
        stats: &mut RasterStats,
    ) {
        if let Some(setup) = TriSetup::new(target, v0, v1, v2, stats) {
            rasterize_setup_naive(target, spot_texture, &setup, intensity, blend, stats);
        }
    }

    /// Reference counterpart of [`super::rasterize_triangle`].
    #[allow(clippy::too_many_arguments)]
    pub fn rasterize_triangle(
        target: &mut Texture,
        spot_texture: &Texture,
        v0: Vertex,
        v1: Vertex,
        v2: Vertex,
        intensity: f32,
        blend: BlendMode,
        stats: &mut RasterStats,
    ) {
        stats.vertices += 3;
        rasterize_triangle_uncounted(target, spot_texture, v0, v1, v2, intensity, blend, stats);
    }

    /// Reference counterpart of [`super::rasterize_quad`].
    pub fn rasterize_quad(
        target: &mut Texture,
        spot_texture: &Texture,
        quad: [Vertex; 4],
        intensity: f32,
        blend: BlendMode,
        stats: &mut RasterStats,
    ) {
        stats.vertices += 4;
        rasterize_triangle_uncounted(
            target,
            spot_texture,
            quad[0],
            quad[1],
            quad[2],
            intensity,
            blend,
            stats,
        );
        rasterize_triangle_uncounted(
            target,
            spot_texture,
            quad[0],
            quad[2],
            quad[3],
            intensity,
            blend,
            stats,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::texture::disc_spot_texture;

    fn flat_spot() -> Texture {
        let mut t = Texture::new(8, 8);
        t.fill(1.0);
        t
    }

    #[test]
    fn triangle_covers_expected_area() {
        let mut target = Texture::new(32, 32);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        // Right triangle covering half of a 16x16 square.
        let v0 = Vertex::new(Vec2::new(0.0, 0.0), 0.0, 0.0);
        let v1 = Vertex::new(Vec2::new(16.0, 0.0), 1.0, 0.0);
        let v2 = Vertex::new(Vec2::new(0.0, 16.0), 0.0, 1.0);
        rasterize_triangle(
            &mut target,
            &spot,
            v0,
            v1,
            v2,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        assert_eq!(stats.triangles, 1);
        assert_eq!(stats.vertices, 3);
        // About half of 256 texels should be covered.
        assert!(
            stats.fragments > 100 && stats.fragments < 160,
            "{}",
            stats.fragments
        );
        // Covered texels got the intensity, others stayed zero.
        assert!(target.texel(2, 2) > 0.0);
        assert_eq!(target.texel(30, 30), 0.0);
    }

    #[test]
    fn winding_does_not_matter() {
        let spot = flat_spot();
        let v0 = Vertex::new(Vec2::new(2.0, 2.0), 0.0, 0.0);
        let v1 = Vertex::new(Vec2::new(12.0, 2.0), 1.0, 0.0);
        let v2 = Vertex::new(Vec2::new(2.0, 12.0), 0.0, 1.0);
        let mut a = Texture::new(16, 16);
        let mut b = Texture::new(16, 16);
        let mut s = RasterStats::default();
        rasterize_triangle(&mut a, &spot, v0, v1, v2, 1.0, BlendMode::Additive, &mut s);
        rasterize_triangle(&mut b, &spot, v0, v2, v1, 1.0, BlendMode::Additive, &mut s);
        assert_eq!(a.absolute_difference(&b), 0.0);
    }

    #[test]
    fn degenerate_triangle_rejected() {
        let mut target = Texture::new(16, 16);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let v = Vertex::new(Vec2::new(4.0, 4.0), 0.0, 0.0);
        rasterize_triangle(
            &mut target,
            &spot,
            v,
            v,
            v,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        assert_eq!(stats.triangles, 0);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.fragments, 0);
    }

    #[test]
    fn offscreen_triangle_rejected() {
        let mut target = Texture::new(16, 16);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let v0 = Vertex::new(Vec2::new(100.0, 100.0), 0.0, 0.0);
        let v1 = Vertex::new(Vec2::new(110.0, 100.0), 1.0, 0.0);
        let v2 = Vertex::new(Vec2::new(100.0, 110.0), 0.0, 1.0);
        rasterize_triangle(
            &mut target,
            &spot,
            v0,
            v1,
            v2,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.fragments, 0);
    }

    #[test]
    fn quad_covers_square_and_counts_four_vertices() {
        let mut target = Texture::new(32, 32);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let quad = axis_aligned_spot_quad(Vec2::new(16.0, 16.0), 8.0);
        rasterize_quad(
            &mut target,
            &spot,
            quad,
            2.0,
            BlendMode::Additive,
            &mut stats,
        );
        assert_eq!(stats.vertices, 4);
        assert_eq!(stats.triangles, 2);
        // The 16x16 square around the centre is filled with intensity 2.
        assert!((target.texel(16, 16) - 2.0).abs() < 1e-6);
        assert!((target.texel(10, 20) - 2.0).abs() < 1e-6);
        assert_eq!(target.texel(2, 2), 0.0);
    }

    #[test]
    fn quad_counts_four_vertices_even_when_a_triangle_degenerates() {
        // Regression for the old `saturating_sub(2)` accounting hack: a quad
        // whose first triangle is degenerate (three collinear corners) still
        // streams exactly 4 vertices on the bus.
        let mut target = Texture::new(32, 32);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let quad = [
            Vertex::new(Vec2::new(4.0, 4.0), 0.0, 0.0),
            Vertex::new(Vec2::new(10.0, 10.0), 1.0, 0.0),
            Vertex::new(Vec2::new(16.0, 16.0), 1.0, 1.0),
            Vertex::new(Vec2::new(4.0, 16.0), 0.0, 1.0),
        ];
        rasterize_quad(
            &mut target,
            &spot,
            quad,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        assert_eq!(stats.vertices, 4);
        assert_eq!(stats.triangles, 1);
        assert_eq!(stats.rejected, 1);
        assert!(stats.fragments > 0);
    }

    #[test]
    fn quad_interior_fragments_not_double_blended_on_diagonal() {
        // Additive blending would show a bright diagonal seam if the shared
        // edge of the two triangles were rasterized twice. Count fragments
        // instead: they must equal the covered area, not exceed it much.
        let mut target = Texture::new(64, 64);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let quad = axis_aligned_spot_quad(Vec2::new(32.0, 32.0), 16.0);
        rasterize_quad(
            &mut target,
            &spot,
            quad,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        let max = target.data().iter().cloned().fold(0.0f32, f32::max);
        assert!(max <= 1.0 + 1e-5, "diagonal seam double-blended: {max}");
    }

    #[test]
    fn spot_texture_modulates_fragment_intensity() {
        let mut target = Texture::new(64, 64);
        let spot = disc_spot_texture(32, 0.4);
        let mut stats = RasterStats::default();
        let quad = axis_aligned_spot_quad(Vec2::new(32.0, 32.0), 16.0);
        rasterize_quad(
            &mut target,
            &spot,
            quad,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        // Centre of the spot is bright, the quad corner (outside the disc) is
        // nearly zero.
        assert!(target.texel(32, 32) > 0.9);
        assert!(target.texel(18, 18) < 0.1);
    }

    #[test]
    fn negative_intensity_darkens() {
        let mut target = Texture::new(32, 32);
        target.fill(1.0);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let quad = axis_aligned_spot_quad(Vec2::new(16.0, 16.0), 4.0);
        rasterize_quad(
            &mut target,
            &spot,
            quad,
            -0.5,
            BlendMode::Additive,
            &mut stats,
        );
        assert!((target.texel(16, 16) - 0.5).abs() < 1e-6);
        assert!((target.texel(2, 2) - 1.0).abs() < 1e-6);
    }

    /// The scalar bilinear sampler (a cast instead of `floor`) equals the
    /// oracle `Texture::sample_bilinear` bit for bit on a dense sweep: 64
    /// ulps either side of every texel edge and centre on each axis, ±inf,
    /// NaN and far-out coordinates, on 1-texel, odd and power-of-two axes.
    #[test]
    fn scalar_bilinear_sampler_matches_oracle_near_every_texel_boundary() {
        fn sweep(len: usize) -> Vec<f32> {
            let mut coords = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1e30, 1e30];
            for k in 0..=2 * len {
                // Texel edges (even k) and centres (odd k), then ulp steps.
                let base = (k as f32 * 0.5) / len as f32;
                let (mut up, mut down) = (base, base);
                coords.push(base);
                for _ in 0..64 {
                    up = up.next_up();
                    down = down.next_down();
                    coords.extend([up, down]);
                }
            }
            coords
        }
        for (tw, th) in [(1, 1), (1, 4), (5, 1), (3, 7), (16, 16), (17, 2)] {
            let mut tex = Texture::new(tw, th);
            for (i, t) in tex.data_mut().iter_mut().enumerate() {
                *t = ((i * 37 % 11) as f32 - 5.0) * 0.3;
            }
            let (us, vs) = (sweep(tw), sweep(th));
            let pairs = us
                .iter()
                .flat_map(|&u| [0.1f32, 0.5, 0.93].map(|v| (u, v)))
                .chain(
                    vs.iter()
                        .flat_map(|&v| [0.07f32, 0.5, 0.88].map(|u| (u, v))),
                );
            for (u, v) in pairs {
                let got = bilinear_sample(tex.data(), tw, th, u, v);
                let want = tex.sample_bilinear(u, v);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{tw}x{th} at ({u:e}, {v:e}): got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = RasterStats {
            vertices: 3,
            triangles: 1,
            fragments: 10,
            rejected: 0,
        };
        let b = RasterStats {
            vertices: 4,
            triangles: 2,
            fragments: 20,
            rejected: 1,
        };
        a.merge(&b);
        assert_eq!(a.vertices, 7);
        assert_eq!(a.triangles, 3);
        assert_eq!(a.fragments, 30);
        assert_eq!(a.rejected, 1);
    }

    #[test]
    fn partial_overlap_with_target_edge_is_clipped() {
        let mut target = Texture::new(16, 16);
        let spot = flat_spot();
        let mut stats = RasterStats::default();
        let quad = axis_aligned_spot_quad(Vec2::new(0.0, 8.0), 4.0);
        rasterize_quad(
            &mut target,
            &spot,
            quad,
            1.0,
            BlendMode::Additive,
            &mut stats,
        );
        // Fragments were produced only for the on-screen half.
        assert!(stats.fragments > 0);
        assert!(stats.fragments <= 5 * 9);
    }

    mod equivalence {
        //! Pixel-exact parity between the span walker and the retained
        //! naive reference path, over randomized and adversarial inputs.

        use super::*;
        use crate::mesh::TexturedMesh;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        fn assert_identical(
            fast: &Texture,
            fast_stats: &RasterStats,
            slow: &Texture,
            slow_stats: &RasterStats,
            context: &str,
        ) {
            assert_eq!(
                fast.absolute_difference(slow),
                0.0,
                "pixel mismatch: {context}"
            );
            assert_eq!(fast_stats, slow_stats, "stats mismatch: {context}");
        }

        fn random_vertex(rng: &mut ChaCha8Rng, lo: f64, hi: f64) -> Vertex {
            Vertex::new(
                Vec2::new(rng.gen_range(lo..hi), rng.gen_range(lo..hi)),
                rng.gen_range(0.0f32..1.0),
                rng.gen_range(0.0f32..1.0),
            )
        }

        #[test]
        fn random_triangles_match_reference_exactly() {
            let spot = disc_spot_texture(16, 0.5);
            let mut rng = ChaCha8Rng::seed_from_u64(2024);
            for case in 0..300 {
                // Positions deliberately extend outside the target so
                // clipping paths are exercised too.
                let v0 = random_vertex(&mut rng, -10.0, 74.0);
                let v1 = random_vertex(&mut rng, -10.0, 74.0);
                let v2 = random_vertex(&mut rng, -10.0, 74.0);
                let intensity = rng.gen_range(-2.0f32..2.0);
                let mut fast = Texture::new(64, 64);
                let mut slow = Texture::new(64, 64);
                let mut fs = RasterStats::default();
                let mut ss = RasterStats::default();
                rasterize_triangle(
                    &mut fast,
                    &spot,
                    v0,
                    v1,
                    v2,
                    intensity,
                    BlendMode::Additive,
                    &mut fs,
                );
                reference::rasterize_triangle(
                    &mut slow,
                    &spot,
                    v0,
                    v1,
                    v2,
                    intensity,
                    BlendMode::Additive,
                    &mut ss,
                );
                assert_identical(&fast, &fs, &slow, &ss, &format!("triangle case {case}"));
            }
        }

        #[test]
        fn random_quads_match_reference_exactly() {
            let spot = disc_spot_texture(32, 0.4);
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            for case in 0..200 {
                let center = Vec2::new(rng.gen_range(-8.0..72.0), rng.gen_range(-8.0..72.0));
                let radius = rng.gen_range(0.5..20.0);
                let quad = axis_aligned_spot_quad(center, radius);
                let intensity = rng.gen_range(-1.0f32..1.0);
                let mut fast = Texture::new(64, 64);
                let mut slow = Texture::new(64, 64);
                let mut fs = RasterStats::default();
                let mut ss = RasterStats::default();
                rasterize_quad(
                    &mut fast,
                    &spot,
                    quad,
                    intensity,
                    BlendMode::Additive,
                    &mut fs,
                );
                reference::rasterize_quad(
                    &mut slow,
                    &spot,
                    quad,
                    intensity,
                    BlendMode::Additive,
                    &mut ss,
                );
                assert_identical(&fast, &fs, &slow, &ss, &format!("quad case {case}"));
            }
        }

        #[test]
        fn random_sheared_quads_match_reference_exactly() {
            // Non-axis-aligned quads exercise the general (v-varying)
            // sampling path.
            let spot = disc_spot_texture(16, 0.5);
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            for case in 0..200 {
                let c = Vec2::new(rng.gen_range(8.0..56.0), rng.gen_range(8.0..56.0));
                let r = rng.gen_range(2.0..14.0);
                let shear = rng.gen_range(-0.9..0.9);
                let quad = [
                    Vertex::new(c + Vec2::new(-r + shear * r, -r), 0.0, 0.0),
                    Vertex::new(c + Vec2::new(r, -r - shear * r), 1.0, 0.0),
                    Vertex::new(c + Vec2::new(r - shear * r, r), 1.0, 1.0),
                    Vertex::new(c + Vec2::new(-r, r + shear * r), 0.0, 1.0),
                ];
                let mut fast = Texture::new(64, 64);
                let mut slow = Texture::new(64, 64);
                let mut fs = RasterStats::default();
                let mut ss = RasterStats::default();
                rasterize_quad(&mut fast, &spot, quad, 1.0, BlendMode::Additive, &mut fs);
                reference::rasterize_quad(
                    &mut slow,
                    &spot,
                    quad,
                    1.0,
                    BlendMode::Additive,
                    &mut ss,
                );
                assert_identical(&fast, &fs, &slow, &ss, &format!("sheared case {case}"));
            }
        }

        #[test]
        fn random_meshes_match_reference_exactly() {
            let spot = disc_spot_texture(16, 0.5);
            let mut rng = ChaCha8Rng::seed_from_u64(31337);
            for case in 0..40 {
                let rows = rng.gen_range(2usize..8);
                let cols = rng.gen_range(2usize..6);
                let origin = Vec2::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0));
                let mut vertices = Vec::with_capacity(rows * cols);
                for r in 0..rows {
                    for c in 0..cols {
                        let jitter = Vec2::new(rng.gen_range(-0.4..0.4), rng.gen_range(-0.4..0.4));
                        vertices.push(Vertex::new(
                            origin + Vec2::new(c as f64 * 5.0, r as f64 * 5.0) + jitter,
                            c as f32 / (cols - 1) as f32,
                            r as f32 / (rows - 1) as f32,
                        ));
                    }
                }
                let mesh = TexturedMesh::new(rows, cols, vertices);
                let mut fast = Texture::new(64, 64);
                let mut slow = Texture::new(64, 64);
                let mut fs = RasterStats::default();
                let mut ss = RasterStats::default();
                mesh.rasterize(&mut fast, &spot, 0.7, BlendMode::Additive, &mut fs);
                mesh.rasterize_reference(&mut slow, &spot, 0.7, BlendMode::Additive, &mut ss);
                assert_identical(&fast, &fs, &slow, &ss, &format!("mesh case {case}"));
            }
        }

        #[test]
        fn edges_on_pixel_centres_match_reference_and_cover_exactly_once() {
            // Vertices at half-integer coordinates put triangle edges exactly
            // through pixel centres: the adversarial case for the top-left
            // rule. Both paths must agree pixel-for-pixel AND the quad pair
            // must cover every interior pixel exactly once.
            let spot = flat_spot();
            for &(x0, y0, x1, y1) in &[
                (2.5, 2.5, 12.5, 12.5),
                (0.5, 0.5, 15.5, 9.5),
                (3.5, 1.5, 3.5, 1.5), // degenerate: rejected by both paths
                (4.5, 4.5, 11.5, 4.5),
            ] {
                let quad = [
                    Vertex::new(Vec2::new(x0, y0), 0.0, 0.0),
                    Vertex::new(Vec2::new(x1, y0), 1.0, 0.0),
                    Vertex::new(Vec2::new(x1, y1), 1.0, 1.0),
                    Vertex::new(Vec2::new(x0, y1), 0.0, 1.0),
                ];
                let mut fast = Texture::new(16, 16);
                let mut slow = Texture::new(16, 16);
                let mut fs = RasterStats::default();
                let mut ss = RasterStats::default();
                rasterize_quad(&mut fast, &spot, quad, 1.0, BlendMode::Additive, &mut fs);
                reference::rasterize_quad(
                    &mut slow,
                    &spot,
                    quad,
                    1.0,
                    BlendMode::Additive,
                    &mut ss,
                );
                assert_identical(
                    &fast,
                    &fs,
                    &slow,
                    &ss,
                    &format!("pixel-centre quad ({x0},{y0})-({x1},{y1})"),
                );
                let max = fast.data().iter().cloned().fold(0.0f32, f32::max);
                assert!(max <= 1.0 + 1e-6, "double coverage on exact edges: {max}");
            }
        }

        #[test]
        fn shared_diagonal_pairs_cover_exactly_once_for_random_splits() {
            // Two triangles on opposite sides of a shared edge: canonical
            // edge evaluation guarantees every texel — including centres
            // lying exactly on the seam — is covered by exactly one of them.
            // With a flat unit spot and additive blending, any texel above
            // 1.0 would prove double coverage.
            let spot = flat_spot();
            let mut rng = ChaCha8Rng::seed_from_u64(5150);
            for case in 0..100 {
                let b = random_vertex(&mut rng, 4.0, 60.0);
                let c = random_vertex(&mut rng, 4.0, 60.0);
                let a = random_vertex(&mut rng, 4.0, 60.0);
                // Reflect `a` across the line through b-c so the second
                // apex is guaranteed on the opposite side of the seam.
                let dir = c.position - b.position;
                let len2 = dir.dot(dir);
                if len2 < 1e-9 {
                    continue;
                }
                let rel = a.position - b.position;
                let proj = dir * (rel.dot(dir) / len2);
                let mirrored = b.position + proj * 2.0 - rel;
                let d = Vertex::new(mirrored, 0.5, 0.5);
                let mut target = Texture::new(64, 64);
                let mut stats = RasterStats::default();
                // The shared edge is traversed b->c in one triangle and
                // c->b in the other, as adjacent primitives submit it.
                rasterize_triangle(
                    &mut target,
                    &spot,
                    a,
                    b,
                    c,
                    1.0,
                    BlendMode::Additive,
                    &mut stats,
                );
                rasterize_triangle(
                    &mut target,
                    &spot,
                    d,
                    c,
                    b,
                    1.0,
                    BlendMode::Additive,
                    &mut stats,
                );
                let max = target.data().iter().cloned().fold(0.0f32, f32::max);
                assert!(
                    max <= 1.0 + 1e-6,
                    "case {case}: seam texel covered twice (max {max})"
                );
            }
        }

        #[test]
        fn all_blend_modes_match_reference() {
            use crate::blend::AlphaFactor;
            let spot = disc_spot_texture(16, 0.5);
            let modes = [
                BlendMode::Additive,
                BlendMode::Replace,
                BlendMode::Max,
                BlendMode::Alpha(AlphaFactor::new(0.3)),
            ];
            let quad = axis_aligned_spot_quad(Vec2::new(16.0, 16.0), 9.0);
            for mode in modes {
                let mut fast = Texture::new(32, 32);
                fast.fill(0.25);
                let mut slow = fast.clone();
                let mut fs = RasterStats::default();
                let mut ss = RasterStats::default();
                rasterize_quad(&mut fast, &spot, quad, 0.8, mode, &mut fs);
                reference::rasterize_quad(&mut slow, &spot, quad, 0.8, mode, &mut ss);
                assert_identical(&fast, &fs, &slow, &ss, &format!("blend mode {mode:?}"));
            }
        }

        #[test]
        fn footprint_mode_covers_identically_and_samples_closely() {
            use std::sync::Arc;
            // Footprint sampling must change *sampling only*: the covered
            // fragment set (count and positions) matches the exact path
            // exactly, and on a smooth disc texture the nearest samples stay
            // close to the bilinear ones.
            let spot = disc_spot_texture(32, 0.5);
            let pyramid = FootprintPyramid::build(Arc::new(spot.clone()));
            let mut rng = ChaCha8Rng::seed_from_u64(77);
            for case in 0..100 {
                let v0 = random_vertex(&mut rng, -10.0, 74.0);
                let v1 = random_vertex(&mut rng, -10.0, 74.0);
                let v2 = random_vertex(&mut rng, -10.0, 74.0);
                let mut exact = Texture::new(64, 64);
                let mut approx = Texture::new(64, 64);
                let mut es = RasterStats::default();
                let mut fs = RasterStats::default();
                rasterize_triangle(
                    &mut exact,
                    &spot,
                    v0,
                    v1,
                    v2,
                    1.0,
                    BlendMode::Additive,
                    &mut es,
                );
                fs.vertices += 3;
                rasterize_triangle_footprint_uncounted(
                    &mut approx,
                    &pyramid,
                    v0,
                    v1,
                    v2,
                    1.0,
                    BlendMode::Additive,
                    &mut fs,
                );
                assert_eq!(es, fs, "case {case}: coverage diverged");
                for y in 0..64 {
                    for x in 0..64 {
                        let e = exact.texel(x, y);
                        let a = approx.texel(x, y);
                        // Same coverage, different sampling: values may
                        // differ (nearest vs bilinear, and either can be 0
                        // at the disc rim) but never drift far on a smooth
                        // spot texture.
                        assert!(
                            (e - a).abs() < 0.5,
                            "case {case}: sample drifted at ({x},{y}): {e} vs {a}"
                        );
                    }
                }
            }
        }

        #[test]
        fn footprint_mode_on_flat_texture_is_exact() {
            use std::sync::Arc;
            // Every pyramid level of a constant texture is that constant, so
            // nearest and bilinear sampling agree exactly: flat-spot
            // footprint output must be bit-identical to the exact path.
            let spot = flat_spot();
            let pyramid = FootprintPyramid::build(Arc::new(spot.clone()));
            let mut rng = ChaCha8Rng::seed_from_u64(4242);
            for case in 0..50 {
                let quad = axis_aligned_spot_quad(
                    Vec2::new(rng.gen_range(-8.0..72.0), rng.gen_range(-8.0..72.0)),
                    rng.gen_range(0.5..20.0),
                );
                let intensity = rng.gen_range(-1.0f32..1.0);
                let mut exact = Texture::new(64, 64);
                let mut approx = Texture::new(64, 64);
                let mut es = RasterStats::default();
                let mut fs = RasterStats::default();
                rasterize_quad(
                    &mut exact,
                    &spot,
                    quad,
                    intensity,
                    BlendMode::Additive,
                    &mut es,
                );
                rasterize_quad_footprint(
                    &mut approx,
                    &pyramid,
                    quad,
                    intensity,
                    BlendMode::Additive,
                    &mut fs,
                );
                assert_eq!(
                    exact.absolute_difference(&approx),
                    0.0,
                    "case {case}: flat-texture footprint diverged"
                );
                assert_eq!(es, fs, "case {case}: stats diverged");
            }
        }

        #[test]
        fn footprint_shared_edges_still_cover_exactly_once() {
            use std::sync::Arc;
            // Same seam guarantee as the exact path: footprint mode reuses
            // the coverage predicate, so a flat-spot mesh must never
            // double-blend its internal edges.
            let spot = flat_spot();
            let pyramid = FootprintPyramid::build(Arc::new(spot.clone()));
            let mesh = crate::mesh::rectangle_mesh(5, 4, 8.0, 8.0, 40.0, 40.0);
            let mut target = Texture::new(64, 64);
            let mut stats = RasterStats::default();
            mesh.rasterize_footprint(&mut target, &pyramid, 1.0, BlendMode::Additive, &mut stats);
            let max = target.data().iter().cloned().fold(0.0f32, f32::max);
            assert!(max <= 1.0 + 1e-5, "footprint seam double-blended: {max}");
            assert!((target.texel(20, 20) - 1.0).abs() < 1e-6);
        }

        #[test]
        fn uniform_spot_rows_take_constant_fill_and_match_reference() {
            // A flat spot texture triggers the nearest-sample/uniform-row
            // fast path; the result must still equal the reference exactly.
            let spot = flat_spot();
            let quad = axis_aligned_spot_quad(Vec2::new(20.0, 20.0), 13.0);
            let mut fast = Texture::new(48, 48);
            let mut slow = Texture::new(48, 48);
            let mut fs = RasterStats::default();
            let mut ss = RasterStats::default();
            rasterize_quad(&mut fast, &spot, quad, 1.5, BlendMode::Additive, &mut fs);
            reference::rasterize_quad(&mut slow, &spot, quad, 1.5, BlendMode::Additive, &mut ss);
            assert_identical(&fast, &fs, &slow, &ss, "uniform fast path");
        }
    }

    mod cell_walker {
        //! Oracle tests of the mesh cell walker: production-shaped meshes
        //! rasterized by [`TexturedMesh::rasterize`] (fused cells plus the
        //! per-triangle fallback) must equal the naive per-triangle
        //! reference bit for bit — texels and [`RasterStats`] — in every
        //! blend mode at every SIMD level, and Footprint mode must cover
        //! exactly the texels Exact mode covers.

        use super::*;
        use crate::blend::AlphaFactor;
        use crate::mesh::TexturedMesh;
        use std::sync::Arc;

        const SIZE: usize = 96;

        /// A mesh built like `spotnoise::bent::bent_spot_mesh` output: a
        /// ribbon of `rows x cols` vertices tiled across a centre line that
        /// is a circular arc of `curvature` (1/px) through `center`, heading
        /// `angle` at its midpoint. As in the bent-spot transform, the
        /// length is `2·radius·stretch` and the half-width
        /// `radius / √stretch`; `u` runs along the ribbon and `v` across it.
        /// Once `curvature · half_width > 1` the inner side folds back and
        /// the cells there twist.
        #[allow(clippy::too_many_arguments)]
        fn ribbon(
            rows: usize,
            cols: usize,
            center: Vec2,
            radius: f64,
            stretch: f64,
            angle: f64,
            curvature: f64,
        ) -> TexturedMesh {
            let length = 2.0 * radius * stretch;
            let half_width = radius / stretch.sqrt();
            let mut vertices = Vec::with_capacity(rows * cols);
            for r in 0..rows {
                let t = r as f64 / (rows - 1) as f64;
                let s = (t - 0.5) * length;
                let heading = angle + curvature * s;
                // Arc-length parametrization of the arc (a straight line
                // in the limit of zero curvature).
                let along = if curvature.abs() < 1e-12 {
                    Vec2::new(s * angle.cos(), s * angle.sin())
                } else {
                    Vec2::new(
                        (heading.sin() - angle.sin()) / curvature,
                        (angle.cos() - heading.cos()) / curvature,
                    )
                };
                let normal = Vec2::new(-heading.sin(), heading.cos());
                for c in 0..cols {
                    let v = c as f64 / (cols - 1) as f64;
                    let offset = (v * 2.0 - 1.0) * half_width;
                    vertices.push(Vertex::new(
                        center + along + normal * offset,
                        t as f32,
                        v as f32,
                    ));
                }
            }
            TexturedMesh::new(rows, cols, vertices)
        }

        /// Copies `mesh`, moving every vertex of row `row` onto `point`.
        fn collapse_row(mesh: &TexturedMesh, row: usize, point: Vec2) -> TexturedMesh {
            let mut vertices = mesh.vertices().to_vec();
            for v in &mut vertices[row * mesh.cols()..(row + 1) * mesh.cols()] {
                v.position = point;
            }
            TexturedMesh::new(mesh.rows(), mesh.cols(), vertices)
        }

        /// Copies `mesh` with row `row` repeated in place of row `row + 1`,
        /// so that row of cells has zero area.
        fn repeat_row(mesh: &TexturedMesh, row: usize) -> TexturedMesh {
            let mut vertices = mesh.vertices().to_vec();
            let cols = mesh.cols();
            for c in 0..cols {
                vertices[(row + 1) * cols + c].position = vertices[row * cols + c].position;
            }
            TexturedMesh::new(mesh.rows(), cols, vertices)
        }

        /// The mesh shapes under test, each with a label.
        fn meshes() -> Vec<(String, TexturedMesh)> {
            let mid = Vec2::new(SIZE as f64 / 2.0, SIZE as f64 / 2.0);
            let mut out = Vec::new();
            // Smog (12x7) and turbulence (8x3, 16x3) shapes, rotated through
            // the full circle and stretched from 1 to `max_stretch` 4.
            for (i, angle_deg) in (0..360).step_by(25).enumerate() {
                let angle = (angle_deg as f64 + 0.37).to_radians();
                let stretch = 1.0 + 3.0 * (i % 4) as f64 / 3.0;
                let curvature = [0.0, 0.01, -0.02, 0.035][i % 4];
                for (rows, cols, radius) in [(12, 7, 9.0), (8, 3, 4.0), (16, 3, 12.0)] {
                    out.push((
                        format!("{rows}x{cols} r={radius} angle={angle_deg} stretch={stretch}"),
                        ribbon(rows, cols, mid, radius, stretch, angle, curvature),
                    ));
                }
            }
            // Folded ribbons: the inner side doubles back, twisting cells.
            for (i, angle_deg) in [10.0f64, 100.0, 200.0, 290.0].into_iter().enumerate() {
                let angle = angle_deg.to_radians();
                let half_width = 10.0 / 2.0f64.sqrt();
                let curvature = if i % 2 == 0 { 1.6 } else { -1.6 } / half_width;
                out.push((
                    format!("folded 12x7 angle={angle_deg}"),
                    ribbon(12, 7, mid, 10.0, 2.0, angle, curvature),
                ));
            }
            // Cells wider than NARROW_TRIANGLE_WIDTH: the span walker
            // fallback.
            out.push((
                "wide 4x3".to_string(),
                ribbon(4, 3, mid, 30.0, 1.5, 0.4, 0.0),
            ));
            out.push((
                "wide 5x4 curved".to_string(),
                ribbon(5, 4, mid, 28.0, 1.2, 2.2, 0.01),
            ));
            // Clipped at each of the four target borders.
            let edge = SIZE as f64;
            for (label, center) in [
                ("left", Vec2::new(1.5, mid.y)),
                ("right", Vec2::new(edge - 2.0, mid.y)),
                ("top", Vec2::new(mid.x, 0.7)),
                ("bottom", Vec2::new(mid.x, edge - 1.2)),
            ] {
                for angle_deg in [0.0f64, 33.0, 90.0] {
                    out.push((
                        format!("clipped {label} angle={angle_deg}"),
                        ribbon(12, 7, center, 9.0, 3.0, angle_deg.to_radians(), 0.02),
                    ));
                }
            }
            // Degenerate rows: a row collapsed to a point, a repeated row,
            // and a whole stagnant ribbon (every row on one point).
            let base = ribbon(12, 7, mid, 9.0, 2.5, 0.8, 0.02);
            out.push((
                "collapsed row 0".to_string(),
                collapse_row(&base, 0, base.vertex(0, 3).position),
            ));
            out.push((
                "collapsed row 5".to_string(),
                collapse_row(&base, 5, base.vertex(5, 0).position),
            ));
            out.push(("repeated row 7".to_string(), repeat_row(&base, 7)));
            let stagnant = TexturedMesh::new(
                12,
                7,
                base.vertices()
                    .iter()
                    .map(|v| Vertex::new(mid, v.uv.0, v.uv.1))
                    .collect(),
            );
            out.push(("stagnant point".to_string(), stagnant));
            // NaN coordinates: the triangles touching them cover nothing,
            // whichever path their cells take.
            let mut vertices = base.vertices().to_vec();
            vertices[3 * 7 + 2].position.x = f64::NAN;
            vertices[6 * 7 + 5].position = Vec2::new(f64::NAN, f64::NAN);
            out.push((
                "NaN vertices".to_string(),
                TexturedMesh::new(12, 7, vertices),
            ));
            out
        }

        /// A spot texture with no symmetry, so shading a fragment with the
        /// other triangle's uv planes shows.
        fn asymmetric_spot() -> Texture {
            Texture::from_fn(16, 16, |u, v| (u * 7.3 + v * v * 3.1).sin() * 0.5 + 0.6 * u)
        }

        fn assert_bit_identical(fast: &Texture, slow: &Texture, context: &str) {
            let differing = fast
                .data()
                .iter()
                .zip(slow.data())
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            assert_eq!(differing, 0, "{differing} texels differ: {context}");
        }

        #[test]
        fn production_shaped_meshes_match_reference_in_every_mode_and_level() {
            let _serial = crate::simd::FORCE_LOCK
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let spot = asymmetric_spot();
            let modes = [
                BlendMode::Additive,
                BlendMode::Replace,
                BlendMode::Max,
                BlendMode::Alpha(AlphaFactor::new(0.3)),
            ];
            let base = Texture::from_fn(SIZE, SIZE, |u, v| (u * 5.0).cos() * (v * 3.0).sin());
            // Restores automatic dispatch even when an assertion fails.
            struct Unforce;
            impl Drop for Unforce {
                fn drop(&mut self) {
                    simd::force(None);
                }
            }
            let _unforce = Unforce;
            let meshes = meshes();
            for level in simd::available() {
                simd::force(Some(level));
                for (label, mesh) in &meshes {
                    for (m, mode) in modes.into_iter().enumerate() {
                        let intensity = [0.8, -0.6, 1.3, 0.45][m];
                        let mut fast = base.clone();
                        let mut slow = base.clone();
                        let mut fs = RasterStats::default();
                        let mut ss = RasterStats::default();
                        mesh.rasterize(&mut fast, &spot, intensity, mode, &mut fs);
                        mesh.rasterize_reference(&mut slow, &spot, intensity, mode, &mut ss);
                        let context = format!("{label}, {mode:?}, SIMD level {}", level.name());
                        assert_bit_identical(&fast, &slow, &context);
                        assert_eq!(fs, ss, "stats differ: {context}");
                    }
                }
            }
        }

        #[test]
        fn footprint_cell_walk_covers_exactly_the_exact_mode_texels() {
            let spot = asymmetric_spot();
            let pyramid = FootprintPyramid::build(Arc::new(spot.clone()));
            for (label, mesh) in meshes() {
                // Replace over a NaN-filled target: a texel is covered
                // exactly when it is no longer NaN.
                let mut exact = Texture::new(SIZE, SIZE);
                exact.fill(f32::NAN);
                let mut approx = exact.clone();
                let mut es = RasterStats::default();
                let mut fs = RasterStats::default();
                mesh.rasterize(&mut exact, &spot, 1.0, BlendMode::Replace, &mut es);
                mesh.rasterize_footprint(&mut approx, &pyramid, 1.0, BlendMode::Replace, &mut fs);
                assert_eq!(es, fs, "stats differ: {label}");
                let covered =
                    |t: &Texture| t.data().iter().map(|v| !v.is_nan()).collect::<Vec<_>>();
                assert_eq!(
                    covered(&exact),
                    covered(&approx),
                    "coverage differs: {label}"
                );
                assert!(
                    es.fragments > 0 || label.starts_with("stagnant"),
                    "{label} drew nothing"
                );
            }
        }

        #[test]
        fn bent_cells_fuse_and_twisted_or_wide_cells_fall_back() {
            // The oracle tests above only prove something about the fused
            // walk if production-shaped cells actually take it: count which
            // cells `FusedCell::fuse` accepts.
            let target = Texture::new(SIZE, SIZE);
            let fused_share = |mesh: &TexturedMesh| {
                let (mut fused, mut cells) = (0, 0);
                let mut stats = RasterStats::default();
                for r in 0..mesh.rows() - 1 {
                    for c in 0..mesh.cols() - 1 {
                        let (v00, v10) = (mesh.vertex(r, c), mesh.vertex(r, c + 1));
                        let (v01, v11) = (mesh.vertex(r + 1, c), mesh.vertex(r + 1, c + 1));
                        let a = TriSetup::new(&target, v00, v10, v11, &mut stats);
                        let b = TriSetup::new(&target, v00, v11, v01, &mut stats);
                        cells += 1;
                        if let (Some(a), Some(b)) = (a, b) {
                            fused += usize::from(FusedCell::fuse(&a, &b).is_some());
                        }
                    }
                }
                fused as f64 / cells as f64
            };
            let mid = Vec2::new(SIZE as f64 / 2.0, SIZE as f64 / 2.0);
            let smog = ribbon(12, 7, mid, 9.0, 4.0, 0.7, 0.02);
            assert_eq!(
                fused_share(&smog),
                1.0,
                "a smog-shaped ribbon should fuse every cell"
            );
            let half_width = 10.0 / 2.0f64.sqrt();
            let folded = ribbon(12, 7, mid, 10.0, 2.0, 0.2, 1.6 / half_width);
            let share = fused_share(&folded);
            assert!(share > 0.3 && share < 1.0, "folded ribbon fused {share}");
            assert_eq!(fused_share(&ribbon(4, 3, mid, 30.0, 1.5, 0.4, 0.0)), 0.0);
        }
    }
}
