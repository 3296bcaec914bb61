//! 2-D convolution (NCHW) by direct register tiles, with full backward pass.
//!
//! The paper's demonstration model is a small CNN: two `Conv2d` layers, a max
//! pool, ReLU, and two linear layers. This module supplies the convolution
//! forward and backward kernels. They are direct: no sample is lowered into
//! an im2col matrix. Runs of samples are processed in parallel with rayon.
//!
//! **Padded planes.** Each sample is copied once into zero-padded planes,
//! split by stride phase: plane `r` holds the padded columns `r, r + s,
//! r + 2s, …`. Tap `(ki, kj)` of output column `ox` is then column
//! `ox + kj / s` of plane `kj % s`, so every kernel reads contiguous runs of
//! lanes whatever the stride.
//!
//! **Kernels.** Forward accumulates `c_out × output-column` register tiles
//! straight from shifted rows of the planes. The weight gradient accumulates
//! `tap × c_out` tiles, with `c_out` along the lanes, against a per-sample
//! transposed dY. The input gradient is built one input row at a time: each
//! tap's `Σ_co w·dY` is taken first, in registers, then added into the row
//! in ascending `(ki, kj)` order.
//!
//! **Exact order.** Each output keeps the summation order of the im2col +
//! GEMM formulation these kernels replaced, and there is no FMA, so no bit
//! moved: forward is `((0 + w₀x₀) + w₁x₁) + … + b` over taps `(ci, ki, kj)`
//! in ascending order, padded taps included as `w·0`; the backward orders
//! are documented on [`conv2d_backward`].
//!
//! **Dispatch.** A kernel body is `#[inline(always)]` and generic over
//! `Lanes`, a vector of `f32` with lane-wise `+`, `*` and bitwise AND. It is
//! compiled three times: for `Portable` (four plain `f32` lanes, any CPU),
//! inside `#[target_feature(enable = "avx2")]` for `Avx2` (`__m256`) and
//! inside `#[target_feature(enable = "avx512f")]` for `Avx512` (`__m512`).
//! `ConvIsa::detect` picks the widest instance that
//! `is_x86_feature_detected!` reports. The body's loops contain no closure:
//! a closure would be compiled separately, without the target feature.
//!
//! Hot-path allocation policy: the padded planes, the packed weights and the
//! transposed and padded dY are set up once per run of samples, from the
//! thread-local [`crate::scratch`] arena, and reused for each sample, so
//! steady-state forward/backward calls touch the allocator only for the
//! returned tensors.

use crate::scratch::{self, ScratchF32, ScratchUsize};
use crate::{Result, Tensor, TensorError};
use rayon::prelude::*;

/// Hyper-parameters of a 2-D convolution (square stride/padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Conv2dParams {
    /// Step between adjacent kernel applications.
    pub stride: usize,
    /// Zero-padding applied to each spatial border.
    pub padding: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dParams {
    /// Validates the hyper-parameters in isolation: the stride must be
    /// nonzero and the padding small enough that `input + 2·padding`
    /// cannot overflow. Called once up front by [`conv2d`] /
    /// [`conv2d_backward`] before any buffer is allocated.
    pub fn validate(&self) -> Result<()> {
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument(
                "conv2d: stride must be nonzero".into(),
            ));
        }
        if self.padding > usize::MAX / 4 {
            return Err(TensorError::InvalidArgument(format!(
                "conv2d: padding {} is unreasonably large",
                self.padding
            )));
        }
        Ok(())
    }
}

/// Gradients returned by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input, shape `[n, c_in, h, w]`.
    pub grad_input: Tensor,
    /// Gradient with respect to the weights, shape `[c_out, c_in, kh, kw]`.
    pub grad_weight: Tensor,
    /// Gradient with respect to the bias, shape `[c_out]`.
    pub grad_bias: Tensor,
}

/// Validated convolution geometry.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    n: usize,
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    kh: usize,
    kw: usize,
    h_out: usize,
    w_out: usize,
    s: usize,
    pad: usize,
}

impl Geometry {
    /// Taps per output: `c_in·kh·kw`.
    fn k(&self) -> usize {
        self.c_in * self.kh * self.kw
    }
}

/// Output spatial extent for one axis.
fn out_extent(input: usize, kernel: usize, stride: usize, padding: usize) -> Result<usize> {
    if kernel == 0 {
        return Err(TensorError::InvalidArgument(
            "conv2d: kernel must be nonzero".into(),
        ));
    }
    let padded = input
        .checked_add(padding.checked_mul(2).ok_or_else(|| {
            TensorError::InvalidArgument(format!("conv2d: padding {padding} overflows"))
        })?)
        .ok_or_else(|| {
            TensorError::InvalidArgument(format!("conv2d: padding {padding} overflows"))
        })?;
    if padded < kernel {
        return Err(TensorError::InvalidArgument(format!(
            "conv2d: kernel {kernel} larger than padded input {padded}"
        )));
    }
    Ok((padded - kernel) / stride + 1)
}

/// Validates shapes and hyper-parameters **before any allocation** and
/// returns the full geometry. `bias` is optional because the backward
/// pass has no bias operand to check.
fn validate(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: Conv2dParams,
) -> Result<Geometry> {
    params.validate()?;
    if input.shape().rank() != 4 || weight.shape().rank() != 4 {
        return Err(TensorError::InvalidArgument(format!(
            "conv2d: expected input NCHW rank 4 and weight rank 4; got {}, {}",
            input.shape(),
            weight.shape()
        )));
    }
    if let Some(b) = bias {
        if b.shape().rank() != 1 {
            return Err(TensorError::InvalidArgument(format!(
                "conv2d: expected bias rank 1, got {}",
                b.shape()
            )));
        }
    }
    let [n, c_in, h, w] = [
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    ];
    let [c_out, wc_in, kh, kw] = [
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    ];
    if c_in == 0 || c_out == 0 || h == 0 || w == 0 {
        return Err(TensorError::InvalidArgument(format!(
            "conv2d: channel counts and input extents must be nonzero; got {}, {}",
            input.shape(),
            weight.shape()
        )));
    }
    if wc_in != c_in || bias.is_some_and(|b| b.dims()[0] != c_out) {
        return Err(TensorError::ShapeMismatch {
            lhs: format!("{}", input.shape()),
            rhs: format!("{}", weight.shape()),
            op: "conv2d",
        });
    }
    let h_out = out_extent(h, kh, params.stride, params.padding)?;
    let w_out = out_extent(w, kw, params.stride, params.padding)?;
    Ok(Geometry {
        n,
        c_in,
        h,
        w,
        c_out,
        kh,
        kw,
        h_out,
        w_out,
        s: params.stride,
        pad: params.padding,
    })
}

/// The inclusive-exclusive range of output positions whose input index
/// `o·stride + koff - padding` lands inside `[0, extent)`.
#[inline]
fn valid_out_range(
    out_len: usize,
    extent: usize,
    koff: usize,
    stride: usize,
    padding: usize,
) -> (usize, usize) {
    let lo = padding.saturating_sub(koff).div_ceil(stride).min(out_len);
    // Largest o with o·stride + koff - padding <= extent - 1.
    let hi = if extent + padding > koff {
        (((extent - 1 + padding - koff) / stride) + 1).min(out_len)
    } else {
        0
    };
    (lo, hi.max(lo))
}

/// A vector of `f32` lanes. Every operation is lane-wise IEEE arithmetic,
/// so each instance computes the same bits.
///
/// The SIMD implementations are private to this module and only ever
/// built inside the `#[target_feature]` instance their [`ConvIsa`] kind
/// names, which [`ConvIsa::detect`] selects only on a CPU that has it.
trait Lanes: Copy {
    /// Lanes per vector.
    const N: usize;
    fn zero() -> Self;
    fn splat(x: f32) -> Self;
    /// `v[i..i + N]`.
    ///
    /// # Safety
    /// `i + N <= v.len()`.
    unsafe fn load(v: &[f32], i: usize) -> Self;
    /// Writes the lanes to `v[i..i + N]`.
    ///
    /// # Safety
    /// `i + N <= v.len()`.
    unsafe fn store(self, v: &mut [f32], i: usize);
    fn add(self, rhs: Self) -> Self;
    fn mul(self, rhs: Self) -> Self;
    /// Bitwise AND: a lane of `mask` is all ones (keep) or `+0.0` (zero).
    fn and(self, mask: Self) -> Self;
}

/// Four plain `f32` lanes: the instance for every CPU.
#[derive(Clone, Copy)]
struct Portable([f32; 4]);

impl Lanes for Portable {
    const N: usize = 4;
    #[inline(always)]
    fn zero() -> Self {
        Portable([0.0; 4])
    }
    #[inline(always)]
    fn splat(x: f32) -> Self {
        Portable([x; 4])
    }
    #[inline(always)]
    unsafe fn load(v: &[f32], i: usize) -> Self {
        // SAFETY: the caller guarantees `i + 4 <= v.len()`.
        Portable(unsafe { v.as_ptr().add(i).cast::<[f32; 4]>().read_unaligned() })
    }
    #[inline(always)]
    unsafe fn store(self, v: &mut [f32], i: usize) {
        // SAFETY: the caller guarantees `i + 4 <= v.len()`.
        unsafe {
            v.as_mut_ptr()
                .add(i)
                .cast::<[f32; 4]>()
                .write_unaligned(self.0)
        }
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut o = self.0;
        for (a, b) in o.iter_mut().zip(rhs.0) {
            *a += b;
        }
        Portable(o)
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut o = self.0;
        for (a, b) in o.iter_mut().zip(rhs.0) {
            *a *= b;
        }
        Portable(o)
    }
    #[inline(always)]
    fn and(self, mask: Self) -> Self {
        let mut o = self.0;
        for (a, m) in o.iter_mut().zip(mask.0) {
            *a = f32::from_bits(a.to_bits() & m.to_bits());
        }
        Portable(o)
    }
}

/// Implements [`Lanes`] for one x86 vector type from its intrinsics. Each
/// call is `unsafe` only for its target feature: the type exists only
/// inside the instance compiled with it (see [`Lanes`]).
#[cfg(target_arch = "x86_64")]
macro_rules! x86_lanes {
    ($name:ident, $v:ident, $n:expr, $zero:ident, $set1:ident, $loadu:ident, $storeu:ident,
     $add:ident, $mul:ident, $and:path) => {
        #[derive(Clone, Copy)]
        struct $name(std::arch::x86_64::$v);

        impl Lanes for $name {
            const N: usize = $n;
            #[inline(always)]
            fn zero() -> Self {
                // SAFETY: target feature only; see the macro doc.
                $name(unsafe { std::arch::x86_64::$zero() })
            }
            #[inline(always)]
            fn splat(x: f32) -> Self {
                // SAFETY: target feature only; see the macro doc.
                $name(unsafe { std::arch::x86_64::$set1(x) })
            }
            #[inline(always)]
            unsafe fn load(v: &[f32], i: usize) -> Self {
                debug_assert!(i + $n <= v.len());
                // SAFETY: the caller guarantees `i + N <= v.len()`; target
                // feature as above.
                $name(unsafe { std::arch::x86_64::$loadu(v.as_ptr().add(i)) })
            }
            #[inline(always)]
            unsafe fn store(self, v: &mut [f32], i: usize) {
                debug_assert!(i + $n <= v.len());
                // SAFETY: the caller guarantees `i + N <= v.len()`; target
                // feature as above.
                unsafe { std::arch::x86_64::$storeu(v.as_mut_ptr().add(i), self.0) }
            }
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                // SAFETY: target feature only; see the macro doc.
                $name(unsafe { std::arch::x86_64::$add(self.0, rhs.0) })
            }
            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                // SAFETY: target feature only; see the macro doc.
                $name(unsafe { std::arch::x86_64::$mul(self.0, rhs.0) })
            }
            #[inline(always)]
            fn and(self, mask: Self) -> Self {
                // SAFETY: target feature only; see the macro doc.
                $name(unsafe { $and(self.0, mask.0) })
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
x86_lanes!(
    Avx2,
    __m256,
    8,
    _mm256_setzero_ps,
    _mm256_set1_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_add_ps,
    _mm256_mul_ps,
    std::arch::x86_64::_mm256_and_ps
);

#[cfg(target_arch = "x86_64")]
x86_lanes!(
    Avx512,
    __m512,
    16,
    _mm512_setzero_ps,
    _mm512_set1_ps,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_add_ps,
    _mm512_mul_ps,
    avx512_and::_mm512_and_f32
);

/// Bitwise AND of two `__m512`: `_mm512_and_ps` needs AVX512DQ, the
/// integer AND only AVX512F.
#[cfg(target_arch = "x86_64")]
#[allow(non_snake_case)]
mod avx512_and {
    use std::arch::x86_64::*;
    #[inline(always)]
    pub(super) unsafe fn _mm512_and_f32(a: __m512, m: __m512) -> __m512 {
        // SAFETY: the caller runs with AVX-512F.
        unsafe {
            _mm512_castsi512_ps(_mm512_and_si512(
                _mm512_castps_si512(a),
                _mm512_castps_si512(m),
            ))
        }
    }
}

/// Instruction set a convolution kernel instance is compiled for. The
/// kind is private to this module: the `unsafe` calls below rely on a
/// SIMD kind never being built without the CPU check in
/// [`ConvIsa::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvIsa(ConvIsaKind);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConvIsaKind {
    /// The crate's build target (baseline SSE2 on x86-64).
    Portable,
    /// `#[target_feature(enable = "avx2")]`. Only constructed once
    /// `is_x86_feature_detected!("avx2")` has returned true.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// `#[target_feature(enable = "avx512f")]`. Only constructed once
    /// `is_x86_feature_detected!("avx512f")` has returned true.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl ConvIsa {
    /// The widest instance this CPU can run.
    #[inline]
    pub(crate) fn detect() -> ConvIsa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return ConvIsa(ConvIsaKind::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return ConvIsa(ConvIsaKind::Avx2);
            }
        }
        ConvIsa(ConvIsaKind::Portable)
    }

    /// Every instance this CPU can run, printed to stderr (visible under
    /// `--nocapture`) so a log shows which instances a test covered.
    #[cfg(test)]
    pub(crate) fn instances() -> Vec<ConvIsa> {
        let mut all = vec![ConvIsa(ConvIsaKind::Portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                all.push(ConvIsa(ConvIsaKind::Avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                all.push(ConvIsa(ConvIsaKind::Avx512));
            }
        }
        eprintln!("conv kernel instances run: {all:?}");
        all
    }
}

/// Longest column tile of any instance (`NV · N`), for the staging buffer
/// of a partial last tile.
const MAX_TILE: usize = 32;

/// One sample at a time in `s` zero-padded phase planes of `c_in × hp ×
/// pw`, `hp = (h_out − 1)·s + kh`: `xp[((r·c_in + ci)·hp + y)·pw + m] =
/// x[ci, y − pad, m·s + r − pad]`, zero outside the sample. The planes are
/// zeroed once; [`Planes::load`] rewrites only the positions inside the
/// sample, so the padding stays zero from one sample to the next.
struct Planes {
    xp: ScratchF32,
    /// Per tap `q = (ci·kh + ki)·kw + kj`, the offset at which output
    /// `(oy, ox)` reads it: `taps[q] + oy·s·pw + ox`.
    taps: ScratchUsize,
    hp: usize,
    pw: usize,
}

impl Planes {
    fn new(g: &Geometry, pw: usize) -> Planes {
        let hp = (g.h_out - 1) * g.s + g.kh;
        let mut taps = scratch::take_usize(g.k());
        let mut q = 0;
        for ci in 0..g.c_in {
            for ki in 0..g.kh {
                for kj in 0..g.kw {
                    taps[q] = ((kj % g.s * g.c_in + ci) * hp + ki) * pw + kj / g.s;
                    q += 1;
                }
            }
        }
        Planes {
            xp: scratch::take_f32(g.s * g.c_in * hp * pw),
            taps,
            hp,
            pw,
        }
    }

    /// Copies the `[c_in, h, w]` sample `x` into the planes.
    fn load(&mut self, g: &Geometry, x: &[f32]) {
        let (c_in, h, w, s, pad, hp, pw) = (g.c_in, g.h, g.w, g.s, g.pad, self.hp, self.pw);
        for r in 0..s {
            let (lo, hi) = valid_out_range(pw, w, r, s, pad);
            if lo >= hi {
                continue;
            }
            let ix0 = lo * s + r - pad;
            for ci in 0..c_in {
                for y in pad.min(hp)..(pad + h).min(hp) {
                    let src = &x[(ci * h + y - pad) * w..][..w];
                    let dst = &mut self.xp[((r * c_in + ci) * hp + y) * pw..][lo..hi];
                    if s == 1 {
                        dst.copy_from_slice(&src[ix0..ix0 + dst.len()]);
                    } else {
                        for (d, v) in dst.iter_mut().zip(src[ix0..].iter().step_by(s)) {
                            *d = *v;
                        }
                    }
                }
            }
        }
    }
}

/// Forward of a run of samples: `out[co, oy, ox]` is the sum
/// `(0 + Σ_q w[co, q]·x[q]) + b[co]`, taps `q` ascending, in `CT × NV·N`
/// register tiles (`c_out` rows, output columns along the lanes). Rows past
/// `c_out` repeat the last weight row and are not stored.
#[inline(always)]
fn forward_body<V: Lanes, const CT: usize, const NV: usize>(
    g: &Geometry,
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let (k, tw, cols) = (g.k(), NV * V::N, g.h_out * g.w_out);
    let (in_plane, out_plane) = (g.c_in * g.h * g.w, g.c_out * cols);
    debug_assert!(tw <= MAX_TILE);
    let mut planes = Planes::new(g, g.w_out.next_multiple_of(tw) + (g.kw - 1) / g.s);
    // wq[(blk·k + q)·CT + c] = w[blk·CT + c, q].
    let blocks = g.c_out.div_ceil(CT);
    let mut wq = scratch::take_f32(blocks * k * CT);
    for (blk, wb) in wq.chunks_exact_mut(k * CT).enumerate() {
        for (q, wc) in wb.chunks_exact_mut(CT).enumerate() {
            for (c, d) in wc.iter_mut().enumerate() {
                *d = w[(blk * CT + c).min(g.c_out - 1) * k + q];
            }
        }
    }
    let mut stage = [0.0f32; MAX_TILE];
    for si in 0..out.len() / out_plane {
        planes.load(g, &x[si * in_plane..][..in_plane]);
        let (xp, taps, pw) = (&planes.xp[..], &planes.taps[..], planes.pw);
        let out = &mut out[si * out_plane..][..out_plane];
        for blk in 0..blocks {
            let wb = &wq[blk * k * CT..][..k * CT];
            for oy in 0..g.h_out {
                for ox0 in (0..g.w_out).step_by(tw) {
                    let at = oy * g.s * pw + ox0;
                    let mut acc = [[V::zero(); NV]; CT];
                    for (&t, wc) in taps.iter().zip(wb.chunks_exact(CT)) {
                        let xs = &xp[at + t..at + t + tw];
                        let mut xv = [V::zero(); NV];
                        for (v, xv) in xv.iter_mut().enumerate() {
                            // SAFETY: `v·N + N <= tw == xs.len()`.
                            *xv = unsafe { V::load(xs, v * V::N) };
                        }
                        for (row, &wv) in acc.iter_mut().zip(wc) {
                            let wv = V::splat(wv);
                            for (a, &xv) in row.iter_mut().zip(&xv) {
                                *a = a.add(wv.mul(xv));
                            }
                        }
                    }
                    let nx = tw.min(g.w_out - ox0);
                    for (c, row) in acc.iter().enumerate().take(g.c_out - blk * CT) {
                        let co = blk * CT + c;
                        let b = V::splat(bias[co]);
                        let dst = &mut out[co * cols + oy * g.w_out + ox0..][..nx];
                        let full = nx == tw;
                        let buf = if full { dst } else { &mut stage[..tw] };
                        for (v, a) in row.iter().enumerate() {
                            // SAFETY: `v·N + N <= tw == buf.len()`.
                            unsafe { a.add(b).store(buf, v * V::N) };
                        }
                        if !full {
                            out[co * cols + oy * g.w_out + ox0..][..nx]
                                .copy_from_slice(&stage[..nx]);
                        }
                    }
                }
            }
        }
    }
}

/// One chunk of [`conv2d_backward`]: accumulates every sample's weight
/// gradient into a chunk partial (returned as `[c_out, k]`) and writes each
/// sample's input gradient into `gin`. See [`weight_grad`] and
/// [`input_grad`] for the tiles.
#[inline(always)]
fn backward_body<V: Lanes, const QT: usize, const CV: usize, const CG: usize, const NV: usize>(
    g: &Geometry,
    x: &[f32],
    dy: &[f32],
    w: &[f32],
    gin: &mut [f32],
) -> Vec<f32> {
    let (k, cols) = (g.k(), g.h_out * g.w_out);
    let (in_plane, out_plane) = (g.c_in * g.h * g.w, g.c_out * cols);
    let cop = g.c_out.next_multiple_of(CV * V::N);
    let mut gwt = vec![0.0f32; k * cop];
    let mut planes = Planes::new(g, g.w_out + (g.kw - 1) / g.s);
    // dyt[o·cop + co] = dY[co, o], zero past `c_out`.
    let mut dyt = scratch::take_f32(cols * cop);
    let mut dx = DxState::new::<CG>(g, w, NV * V::N);
    for si in 0..gin.len() / in_plane {
        let dy_s = &dy[si * out_plane..][..out_plane];
        planes.load(g, &x[si * in_plane..][..in_plane]);
        // In blocks of 64 positions: the writes stay in L1 while the reads
        // run along dY's rows.
        let dyt = &mut dyt[..];
        for o0 in (0..cols).step_by(64) {
            for co in 0..g.c_out {
                for (o, &v) in dy_s[co * cols..][o0..cols.min(o0 + 64)].iter().enumerate() {
                    dyt[(o0 + o) * cop + co] = v;
                }
            }
        }
        weight_grad::<V, QT, CV>(g, &planes, dyt, cop, &mut gwt);
        input_grad::<V, CG, NV>(g, dy_s, &mut dx, &mut gin[si * in_plane..][..in_plane]);
    }
    // Un-transpose: gw[co, q] = gwt[q, co].
    let mut gw = vec![0.0f32; g.c_out * k];
    for (q, row) in gwt.chunks_exact(cop).enumerate() {
        for (co, &v) in row[..g.c_out].iter().enumerate() {
            gw[co * k + q] = v;
        }
    }
    gw
}

/// `dWᵀ[q, co] += Σ_o x[q, o]·dY[co, o]`, output positions `o` ascending,
/// for the sample in `planes`, into `gwt` (`[k, cop]`, `cop` = `c_out`
/// rounded up to `CV·N`). Tiles are `QT` taps × `CV·N` channels, channels
/// along the lanes, read from the transposed dY `dyt[o, co]`.
#[inline(always)]
fn weight_grad<V: Lanes, const QT: usize, const CV: usize>(
    g: &Geometry,
    planes: &Planes,
    dyt: &[f32],
    cop: usize,
    gwt: &mut [f32],
) {
    let (k, w_out, lanes) = (g.k(), g.w_out, CV * V::N);
    let (xp, taps, pw) = (&planes.xp[..], &planes.taps[..], planes.pw);
    for q0 in (0..k).step_by(QT) {
        let nq = QT.min(k - q0);
        let mut tq = [0usize; QT];
        for (i, t) in tq.iter_mut().enumerate() {
            *t = taps[(q0 + i).min(k - 1)];
        }
        for cb in (0..cop).step_by(lanes) {
            let mut acc = [[V::zero(); CV]; QT];
            for (i, row) in acc.iter_mut().enumerate().take(nq) {
                let src = &gwt[(q0 + i) * cop + cb..][..lanes];
                for (v, a) in row.iter_mut().enumerate() {
                    // SAFETY: `v·N + N <= lanes == src.len()`.
                    *a = unsafe { V::load(src, v * V::N) };
                }
            }
            for oy in 0..g.h_out {
                let drow = &dyt[oy * w_out * cop..(oy + 1) * w_out * cop];
                let mut xr: [&[f32]; QT] = [&[]; QT];
                for (r, &t) in xr.iter_mut().zip(&tq) {
                    *r = &xp[t + oy * g.s * pw..][..w_out];
                }
                for ox in 0..w_out {
                    let mut dv = [V::zero(); CV];
                    for (v, d) in dv.iter_mut().enumerate() {
                        // SAFETY: `ox < w_out` and `cb + CV·N <= cop`, so
                        // `ox·cop + cb + v·N + N <= w_out·cop == drow.len()`.
                        *d = unsafe { V::load(drow, ox * cop + cb + v * V::N) };
                    }
                    for (row, xr) in acc.iter_mut().zip(&xr) {
                        // SAFETY: `ox < w_out == xr.len()`.
                        let xs = V::splat(unsafe { *xr.get_unchecked(ox) });
                        for (a, &d) in row.iter_mut().zip(&dv) {
                            *a = a.add(xs.mul(d));
                        }
                    }
                }
            }
            for (i, row) in acc.iter().enumerate().take(nq) {
                let dst = &mut gwt[(q0 + i) * cop + cb..][..lanes];
                for (v, a) in row.iter().enumerate() {
                    // SAFETY: `v·N + N <= lanes == dst.len()`.
                    unsafe { a.store(dst, v * V::N) };
                }
            }
        }
    }
}

/// The dY column shift `d = (r + pad − kj)/s` of tap column `kj` for the
/// input columns `m·s + r` of stride phase `r`, if the tap reaches them.
fn tap_shift(g: &Geometry, r: usize, kj: usize) -> Option<isize> {
    ((r + g.pad) % g.s == kj % g.s).then(|| ((r + g.pad) as isize - kj as isize) / g.s as isize)
}

/// What [`input_grad`] keeps from one sample to the next: the weights in
/// its order, the padded dY rows, the column masks and the row sums.
struct DxState {
    /// `wd[((tap·groups + cg)·c_out + co)·CG + i] = w[co, cg·CG + i, ki,
    /// kj]` for `tap = ki·kw + kj`, the last input channel repeated past
    /// `c_in`.
    wd: ScratchF32,
    /// `dyp[(oy·c_out + co)·dw + off + ox] = dY[co, oy, ox]`, zero in the
    /// `off` columns in front and the columns behind.
    dyp: ScratchF32,
    /// `masks[(r·kw + kj)·mwp + m]`: all ones where the dY column `m + d`
    /// of tap column `kj` exists in stride phase `r`, `+0.0` elsewhere.
    masks: ScratchF32,
    /// One input row of every channel, `racc[c·mwp + m]`.
    racc: ScratchF32,
    off: usize,
    dw: usize,
    /// Input columns per stride phase, rounded up to the column tile.
    mwp: usize,
}

impl DxState {
    fn new<const CG: usize>(g: &Geometry, w: &[f32], tw: usize) -> DxState {
        let (taps, groups) = (g.kh * g.kw, g.c_in.div_ceil(CG));
        let mut wd = scratch::take_f32(taps * groups * g.c_out * CG);
        for (j, wt) in wd.chunks_exact_mut(g.c_out * CG).enumerate() {
            let (tap, cg) = (j / groups, j % groups);
            for (co, wc) in wt.chunks_exact_mut(CG).enumerate() {
                for (i, d) in wc.iter_mut().enumerate() {
                    let ci = (cg * CG + i).min(g.c_in - 1);
                    *d = w[(co * g.c_in + ci) * taps + tap];
                }
            }
        }
        let phases = g.s.min(g.w);
        let (mut dmin, mut dmax) = (0isize, 0isize);
        for r in 0..phases {
            for kj in 0..g.kw {
                if let Some(d) = tap_shift(g, r, kj) {
                    (dmin, dmax) = (dmin.min(d), dmax.max(d));
                }
            }
        }
        let mwp = g.w.div_ceil(g.s).next_multiple_of(tw);
        let off = (-dmin) as usize;
        let dw = (mwp + off + dmax as usize).max(off + g.w_out);
        let mut masks = scratch::take_f32(phases * g.kw * mwp);
        for r in 0..phases {
            for kj in 0..g.kw {
                if let Some(d) = tap_shift(g, r, kj) {
                    for (m, mk) in masks[(r * g.kw + kj) * mwp..][..mwp].iter_mut().enumerate() {
                        if (0..g.w_out as isize).contains(&(m as isize + d)) {
                            *mk = f32::from_bits(!0);
                        }
                    }
                }
            }
        }
        DxState {
            wd,
            dyp: scratch::take_f32(g.c_out * g.h_out * dw),
            masks,
            racc: scratch::take_f32(g.c_in * mwp),
            off,
            dw,
            mwp,
        }
    }
}

/// `dX` of one sample, one input row `iy` and stride phase `r` at a time:
/// the row's columns `ix = m·s + r` lie along the lanes. For each tap
/// `(ki, kj)` in ascending order whose output row `oy = (iy + pad − ki)/s`
/// exists, `T = ((0 + w₀·dY₀) + w₁·dY₁) + …` over `co` ascending is built
/// in `CG` input channels × `NV·N` columns of registers, then added into
/// the row, masked to the columns whose output column exists. A masked
/// lane adds `+0.0`, which leaves a sum that started at `+0.0` unchanged.
#[inline(always)]
fn input_grad<V: Lanes, const CG: usize, const NV: usize>(
    g: &Geometry,
    dy: &[f32],
    st: &mut DxState,
    gin: &mut [f32],
) {
    let (c_in, c_out, h, w, s, pad) = (g.c_in, g.c_out, g.h, g.w, g.s, g.pad);
    let (h_out, w_out, kw, tw) = (g.h_out, g.w_out, g.kw, NV * V::N);
    let (off, dw, mwp, groups) = (st.off, st.dw, st.mwp, c_in.div_ceil(CG));
    for (co, plane) in dy.chunks_exact(h_out * w_out).enumerate() {
        for (oy, src) in plane.chunks_exact(w_out).enumerate() {
            st.dyp[(oy * c_out + co) * dw + off..][..w_out].copy_from_slice(src);
        }
    }
    let (dyp, masks, wd, racc) = (&st.dyp[..], &st.masks[..], &st.wd[..], &mut st.racc[..]);
    for iy in 0..h {
        for r in 0..s.min(w) {
            let mw = (w - r).div_ceil(s);
            racc.fill(0.0);
            for ki in 0..g.kh {
                let t = (iy + pad) as isize - ki as isize;
                if t < 0 || !(t as usize).is_multiple_of(s) || t as usize / s >= h_out {
                    continue;
                }
                let oy = t as usize / s;
                for kj in 0..kw {
                    let Some(d) = tap_shift(g, r, kj) else {
                        continue;
                    };
                    let mask = &masks[(r * kw + kj) * mwp..][..mwp];
                    let rows = &dyp[oy * c_out * dw..][..c_out * dw];
                    for cg in 0..groups {
                        let wt = &wd[((ki * kw + kj) * groups + cg) * c_out * CG..][..c_out * CG];
                        for m0 in (0..mw).step_by(tw) {
                            let at = (m0 as isize + d + off as isize) as usize;
                            let mut tap = [[V::zero(); NV]; CG];
                            for (drow, wc) in rows.chunks_exact(dw).zip(wt.chunks_exact(CG)) {
                                let src = &drow[at..at + tw];
                                let mut dv = [V::zero(); NV];
                                for (v, d) in dv.iter_mut().enumerate() {
                                    // SAFETY: `v·N + N <= tw == src.len()`.
                                    *d = unsafe { V::load(src, v * V::N) };
                                }
                                for (row, &wv) in tap.iter_mut().zip(wc) {
                                    let wv = V::splat(wv);
                                    for (a, &d) in row.iter_mut().zip(&dv) {
                                        *a = a.add(wv.mul(d));
                                    }
                                }
                            }
                            let mk = &mask[m0..m0 + tw];
                            for (i, row) in tap.iter().enumerate().take(c_in - cg * CG) {
                                let acc = &mut racc[(cg * CG + i) * mwp + m0..][..tw];
                                for (v, t) in row.iter().enumerate() {
                                    // SAFETY: `v·N + N <= tw == acc.len() == mk.len()`.
                                    unsafe {
                                        let sum = V::load(acc, v * V::N)
                                            .add(t.and(V::load(mk, v * V::N)));
                                        sum.store(acc, v * V::N);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            for c in 0..c_in {
                let src = &racc[c * mwp..][..mw];
                let dst = &mut gin[(c * h + iy) * w..][..w];
                if s == 1 {
                    dst.copy_from_slice(src);
                } else {
                    for (d, &v) in dst[r..].iter_mut().step_by(s).zip(src) {
                        *d = v;
                    }
                }
            }
        }
    }
}

/// Declares the per-instance entry points of a kernel body: one function
/// per [`ConvIsa`] kind, each instantiating the body with that kind's
/// vector type and tile constants, plus the dispatcher.
macro_rules! instances {
    ($dispatch:ident, $body:ident, ($($arg:ident: $ty:ty),*) $(-> $ret:ty)?,
     portable<$($pc:literal),*>,
     $avx2:ident<$($ac:literal),*>,
     $avx512:ident<$($zc:literal),*>) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2($($arg: $ty),*) $(-> $ret)? {
            $body::<Avx2, $($ac),*>($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        fn $avx512($($arg: $ty),*) $(-> $ret)? {
            $body::<Avx512, $($zc),*>($($arg),*)
        }

        /// Runs the `isa` instance of the kernel body.
        fn $dispatch(isa: ConvIsa, $($arg: $ty),*) $(-> $ret)? {
            match isa.0 {
                ConvIsaKind::Portable => $body::<Portable, $($pc),*>($($arg),*),
                // SAFETY: `ConvIsaKind::Avx2` exists only on CPUs that report AVX2.
                #[cfg(target_arch = "x86_64")]
                ConvIsaKind::Avx2 => unsafe { $avx2($($arg),*) },
                // SAFETY: `ConvIsaKind::Avx512` exists only on CPUs that
                // report AVX-512F.
                #[cfg(target_arch = "x86_64")]
                ConvIsaKind::Avx512 => unsafe { $avx512($($arg),*) },
            }
        }
    };
}

// Tiles: forward `CT` channels × `NV` vectors; backward `QT` taps × `CV`
// vectors (dW) and `CG` channels × `NV` vectors (dX). The accumulators fit
// the register file: 16 of 32 `zmm`, at most 12 of 16 `ymm`.
instances!(
    forward,
    forward_body,
    (g: &Geometry, x: &[f32], w: &[f32], bias: &[f32], out: &mut [f32]),
    portable<4, 2>,
    forward_avx2<4, 2>,
    forward_avx512<8, 2>
);

instances!(
    backward,
    backward_body,
    (g: &Geometry, x: &[f32], dy: &[f32], w: &[f32], gin: &mut [f32]) -> Vec<f32>,
    portable<4, 2, 4, 2>,
    backward_avx2<6, 2, 4, 2>,
    backward_avx512<9, 1, 4, 2>
);

/// Forward 2-D convolution.
///
/// * `input`:  `[n, c_in, h, w]`
/// * `weight`: `[c_out, c_in, kh, kw]`
/// * `bias`:   `[c_out]`
///
/// Returns `[n, c_out, h_out, w_out]`. Each output is
/// `((0 + w₀x₀) + w₁x₁) + … + b` over the taps `(ci, ki, kj)` in ascending
/// order, a tap in the padding contributing `w·0`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    params: Conv2dParams,
) -> Result<Tensor> {
    conv2d_with(ConvIsa::detect(), input, weight, bias, params)
}

/// [`conv2d`] on the `isa` instance of the kernels.
pub(crate) fn conv2d_with(
    isa: ConvIsa,
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    params: Conv2dParams,
) -> Result<Tensor> {
    let g = validate(input, weight, Some(bias), params)?;
    let in_plane = g.c_in * g.h * g.w;
    let out_plane = g.c_out * g.h_out * g.w_out;
    let (input_v, w, b) = (input.as_slice(), weight.as_slice(), bias.as_slice());

    let mut out = vec![0.0f32; g.n * out_plane];
    // One task per worker thread, so each packs the weights once.
    let per_task = g.n.div_ceil(rayon::current_num_threads()).max(1);
    crate::timers::time_kernel("conv2d", || {
        out.par_chunks_mut(per_task * out_plane)
            .enumerate()
            .for_each(|(t, out_t)| {
                let x = &input_v[t * per_task * in_plane..][..out_t.len() / out_plane * in_plane];
                forward(isa, &g, x, w, b, out_t);
            });
    });
    Tensor::from_vec([g.n, g.c_out, g.h_out, g.w_out], out)
}

/// Samples per weight/bias partial sum in [`conv2d_backward`]. A constant,
/// not the machine's thread count, so the gradient bits do not depend on
/// the host.
pub const BACKWARD_CHUNK: usize = 8;

/// Backward 2-D convolution: gradients with respect to input, weight, bias.
///
/// `grad_output` has the forward output's shape `[n, c_out, h_out, w_out]`.
///
/// Summation order of the weight and bias gradients: the batch is split
/// into chunks of [`BACKWARD_CHUNK`] consecutive samples. Within a chunk a
/// partial starts at zero and each sample, in order, adds its terms
/// (`dW[co, q] += x[q, o] · dY[co, o]` over output positions `o` in
/// order, where `x[q, o]` is the input under tap `q = (ci, ki, kj)` at `o`,
/// `0` in the padding; `db[co] += Σₒ dY[co, o]`, that sum taken first). The
/// result is the first chunk's partial plus each later chunk's partial, in
/// order.
///
/// The input gradient of a sample depends only on that sample. Each of its
/// elements starts at zero and adds, for each tap `(ki, kj)` in ascending
/// order whose output position `(oy, ox)` exists, the tap's sum
/// `((0 + w₀·dY₀) + w₁·dY₁) + …` over `co` ascending (`w_co = w[co, ci, ki,
/// kj]`, `dY_co = dY[co, oy, ox]`). A tap whose output position does not
/// exist adds nothing.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    params: Conv2dParams,
) -> Result<Conv2dGrads> {
    conv2d_backward_with(ConvIsa::detect(), input, weight, grad_output, params)
}

/// [`conv2d_backward`] on the `isa` instance of the kernels.
pub(crate) fn conv2d_backward_with(
    isa: ConvIsa,
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    params: Conv2dParams,
) -> Result<Conv2dGrads> {
    let g = validate(input, weight, None, params)?;
    let expected = [g.n, g.c_out, g.h_out, g.w_out];
    if grad_output.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            lhs: format!("{:?}", expected),
            rhs: format!("{}", grad_output.shape()),
            op: "conv2d_backward",
        });
    }
    let (k, cols) = (g.k(), g.h_out * g.w_out);
    let in_plane = g.c_in * g.h * g.w;
    let out_plane = g.c_out * cols;
    let (input_v, go_v, w) = (input.as_slice(), grad_output.as_slice(), weight.as_slice());

    let mut grad_input = vec![0.0f32; g.n * in_plane];
    let (mut grad_weight, mut grad_bias) = crate::timers::time_kernel("conv2d_backward", || {
        // One task per chunk of `BACKWARD_CHUNK` samples: each task owns
        // its slice of `grad_input` outright and accumulates a single
        // weight/bias partial for its whole chunk.
        let partials: Vec<(Vec<f32>, Vec<f32>)> = grad_input
            .par_chunks_mut(BACKWARD_CHUNK * in_plane)
            .enumerate()
            .map(|(ci, gin_chunk)| {
                let s0 = ci * BACKWARD_CHUNK;
                let len = gin_chunk.len() / in_plane;
                let x = &input_v[s0 * in_plane..(s0 + len) * in_plane];
                let dy = &go_v[s0 * out_plane..(s0 + len) * out_plane];
                let gw = backward(isa, &g, x, dy, w, gin_chunk);
                let mut gb = vec![0.0f32; g.c_out];
                for go_s in dy.chunks_exact(out_plane) {
                    for (co, gbc) in gb.iter_mut().enumerate() {
                        *gbc += go_s[co * cols..(co + 1) * cols].iter().sum::<f32>();
                    }
                }
                (gw, gb)
            })
            .collect();
        let mut it = partials.into_iter();
        let (mut gw, mut gb) = it
            .next()
            .unwrap_or((vec![0.0; g.c_out * k], vec![0.0; g.c_out]));
        for (pw, pb) in it {
            for (a, b) in gw.iter_mut().zip(pw.iter()) {
                *a += b;
            }
            for (a, b) in gb.iter_mut().zip(pb.iter()) {
                *a += b;
            }
        }
        (gw, gb)
    });
    // Degenerate empty batch: keep shapes consistent.
    if g.n == 0 {
        grad_weight = vec![0.0; g.c_out * k];
        grad_bias = vec![0.0; g.c_out];
    }

    Ok(Conv2dGrads {
        grad_input: Tensor::from_vec([g.n, g.c_in, g.h, g.w], grad_input)?,
        grad_weight: Tensor::from_vec([g.c_out, g.c_in, g.kh, g.kw], grad_weight)?,
        grad_bias: Tensor::from_vec([g.c_out], grad_bias)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_t(shape: &[usize], seed: u64) -> Tensor {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        crate::init::uniform(shape, -1.0, 1.0, &mut rng)
    }

    /// The forward order documented on [`conv2d`], element by element:
    /// `((0 + w₀x₀) + w₁x₁) + … + b`, taps `(ci, ki, kj)` ascending, a
    /// padded tap contributing `w·0`.
    fn naive_forward(g: &Geometry, x: &[f32], w: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        for s in 0..g.n {
            for co in 0..g.c_out {
                for oy in 0..g.h_out {
                    for ox in 0..g.w_out {
                        let mut acc = 0.0f32;
                        for ci in 0..g.c_in {
                            for ki in 0..g.kh {
                                for kj in 0..g.kw {
                                    let xv = input_at(g, x, s, ci, oy * g.s + ki, ox * g.s + kj);
                                    acc += w[((co * g.c_in + ci) * g.kh + ki) * g.kw + kj] * xv;
                                }
                            }
                        }
                        out.push(acc + b[co]);
                    }
                }
            }
        }
        out
    }

    /// `x[s, ci, py − pad, px − pad]` for padded coordinates, `0` in the
    /// padding.
    fn input_at(g: &Geometry, x: &[f32], s: usize, ci: usize, py: usize, px: usize) -> f32 {
        let (iy, ix) = (py as isize - g.pad as isize, px as isize - g.pad as isize);
        if iy < 0 || ix < 0 || iy as usize >= g.h || ix as usize >= g.w {
            return 0.0;
        }
        x[((s * g.c_in + ci) * g.h + iy as usize) * g.w + ix as usize]
    }

    /// The backward orders documented on [`conv2d_backward`], element by
    /// element: `(grad_input, grad_weight, grad_bias)`.
    fn naive_backward(
        g: &Geometry,
        x: &[f32],
        w: &[f32],
        dy: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (k, kk) = (g.k(), g.kh * g.kw);
        let dy_at = |s: usize, co: usize, oy: usize, ox: usize| {
            dy[((s * g.c_out + co) * g.h_out + oy) * g.w_out + ox]
        };
        let mut total: Option<(Vec<f32>, Vec<f32>)> = None;
        for s0 in (0..g.n).step_by(BACKWARD_CHUNK) {
            let (mut pw, mut pb) = (vec![0.0f32; g.c_out * k], vec![0.0f32; g.c_out]);
            for s in s0..g.n.min(s0 + BACKWARD_CHUNK) {
                for co in 0..g.c_out {
                    for q in 0..k {
                        let (ci, ki, kj) = (q / kk, q / g.kw % g.kh, q % g.kw);
                        for oy in 0..g.h_out {
                            for ox in 0..g.w_out {
                                let xv = input_at(g, x, s, ci, oy * g.s + ki, ox * g.s + kj);
                                pw[co * k + q] += xv * dy_at(s, co, oy, ox);
                            }
                        }
                    }
                    let plane = g.h_out * g.w_out;
                    let start = (s * g.c_out + co) * plane;
                    pb[co] += dy[start..start + plane].iter().sum::<f32>();
                }
            }
            total = Some(match total {
                None => (pw, pb),
                Some((tw, tb)) => (
                    tw.iter().zip(&pw).map(|(a, b)| a + b).collect(),
                    tb.iter().zip(&pb).map(|(a, b)| a + b).collect(),
                ),
            });
        }
        let (gw, gb) = total.unwrap_or((vec![0.0; g.c_out * k], vec![0.0; g.c_out]));
        // An output coordinate `(t − k)/s`, if it exists.
        let out_at = |t: usize, koff: usize, extent: usize| {
            let u = (t + g.pad).checked_sub(koff)?;
            (u % g.s == 0 && u / g.s < extent).then_some(u / g.s)
        };
        let mut gin = Vec::new();
        for s in 0..g.n {
            for ci in 0..g.c_in {
                for iy in 0..g.h {
                    for ix in 0..g.w {
                        let mut acc = 0.0f32;
                        for ki in 0..g.kh {
                            for kj in 0..g.kw {
                                let (Some(oy), Some(ox)) =
                                    (out_at(iy, ki, g.h_out), out_at(ix, kj, g.w_out))
                                else {
                                    continue;
                                };
                                let mut t = 0.0f32;
                                for co in 0..g.c_out {
                                    t += w[((co * g.c_in + ci) * g.kh + ki) * g.kw + kj]
                                        * dy_at(s, co, oy, ox);
                                }
                                acc += t;
                            }
                        }
                        gin.push(acc);
                    }
                }
            }
        }
        (gin, gw, gb)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs both passes on every instance and compares every output with
    /// the documented orders by `to_bits()`.
    fn assert_matches_oracle(input: &Tensor, weight: &Tensor, bias: &Tensor, p: Conv2dParams) {
        let g = validate(input, weight, Some(bias), p).unwrap();
        let (x, w, b) = (input.as_slice(), weight.as_slice(), bias.as_slice());
        let fwd = naive_forward(&g, x, w, b);
        let dy: Vec<f32> = (0..fwd.len())
            .map(|i| ((i * 7919 % 2003) as f32 - 1001.0) / 1024.0)
            .collect();
        let dy = Tensor::from_vec([g.n, g.c_out, g.h_out, g.w_out], dy).unwrap();
        let (gin, gw, gb) = naive_backward(&g, x, w, dy.as_slice());
        for isa in ConvIsa::instances() {
            let y = conv2d_with(isa, input, weight, bias, p).unwrap();
            assert_eq!(bits(y.as_slice()), bits(&fwd), "{isa:?} forward, {g:?}");
            let gr = conv2d_backward_with(isa, input, weight, &dy, p).unwrap();
            assert_eq!(
                bits(gr.grad_input.as_slice()),
                bits(&gin),
                "{isa:?} dX, {g:?}"
            );
            assert_eq!(
                bits(gr.grad_weight.as_slice()),
                bits(&gw),
                "{isa:?} dW, {g:?}"
            );
            assert_eq!(
                bits(gr.grad_bias.as_slice()),
                bits(&gb),
                "{isa:?} db, {g:?}"
            );
        }
    }

    /// Every instance reproduces the documented summation orders bit for
    /// bit: batches of one or two backward chunks, channel counts that are
    /// not multiples of any tile or lane count, kernels 1–5, strides 1–3,
    /// paddings 0–2 and output widths on both sides of 16 and 32.
    #[test]
    fn every_instance_sums_in_the_documented_order() {
        appfl_cases::check_cases("conv_every_instance_documented_order", 64, |g| {
            let (n, c_in, c_out) = (g.draw(1usize..=17), g.draw(1usize..=9), g.draw(1usize..=20));
            let (kh, kw) = (g.draw(1usize..=5), g.draw(1usize..=5));
            let (stride, padding) = (g.draw(1usize..=3), g.draw(0usize..=2));
            let h = g.draw(kh.saturating_sub(2 * padding).max(1)..=6);
            let w = g.draw(kw.saturating_sub(2 * padding).max(1)..=40);
            let mut t = |dims: &[usize]| {
                let len: usize = dims.iter().product();
                Tensor::from_vec(dims.to_vec(), g.vec(len, |g| g.draw(-1.0f32..1.0))).unwrap()
            };
            let (input, weight, bias) =
                (t(&[n, c_in, h, w]), t(&[c_out, c_in, kh, kw]), t(&[c_out]));
            assert_matches_oracle(&input, &weight, &bias, Conv2dParams { stride, padding });
        });
    }

    /// A padded tap is multiplied, not skipped: with an infinite weight,
    /// `inf·0` makes the border outputs NaN, on every instance, while the
    /// input gradient adds nothing for a tap whose output does not exist.
    #[test]
    fn padded_taps_are_multiplied_not_skipped() {
        let input = rand_t(&[2, 2, 5, 7], 50);
        let mut weight = rand_t(&[3, 2, 3, 3], 51);
        weight.as_mut_slice()[0] = f32::INFINITY;
        let bias = rand_t(&[3], 52);
        let p = Conv2dParams {
            stride: 1,
            padding: 1,
        };
        for isa in ConvIsa::instances() {
            let y = conv2d_with(isa, &input, &weight, &bias, p).unwrap();
            // Output (0, 0) of channel 0 reads tap (0, 0) in the padding.
            assert!(y.as_slice()[0].is_nan(), "{isa:?}");
        }
        assert_matches_oracle(&input, &weight, &bias, p);
    }

    /// Finite-difference check of all three gradients on a tiny problem.
    #[test]
    fn backward_matches_finite_differences() {
        let input = rand_t(&[2, 2, 5, 5], 7);
        let weight = rand_t(&[3, 2, 3, 3], 8);
        let bias = rand_t(&[3], 9);
        let p = Conv2dParams {
            stride: 1,
            padding: 1,
        };
        // Loss = sum(conv(input)) so dL/dY = 1.
        let y = conv2d(&input, &weight, &bias, p).unwrap();
        let go = Tensor::ones(y.shape().clone());
        let grads = conv2d_backward(&input, &weight, &go, p).unwrap();

        let eps = 1e-3f32;
        let loss = |input: &Tensor, weight: &Tensor, bias: &Tensor| -> f32 {
            conv2d(input, weight, bias, p).unwrap().sum()
        };

        // Sample a few coordinates of each gradient.
        for &idx in &[0usize, 13, 49] {
            let mut ip = input.clone();
            ip.as_mut_slice()[idx] += eps;
            let mut im = input.clone();
            im.as_mut_slice()[idx] -= eps;
            let fd = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps);
            let an = grads.grad_input.as_slice()[idx];
            assert!((fd - an).abs() < 2e-2, "input grad {idx}: fd={fd} an={an}");
        }
        for &idx in &[0usize, 7, 30] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = weight.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            let an = grads.grad_weight.as_slice()[idx];
            assert!((fd - an).abs() < 2e-1, "weight grad {idx}: fd={fd} an={an}");
        }
        for idx in 0..3usize {
            let mut bp = bias.clone();
            bp.as_mut_slice()[idx] += eps;
            let mut bm = bias.clone();
            bm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&input, &weight, &bp) - loss(&input, &weight, &bm)) / (2.0 * eps);
            let an = grads.grad_bias.as_slice()[idx];
            assert!((fd - an).abs() < 2e-1, "bias grad {idx}: fd={fd} an={an}");
        }
    }

    /// Backward against finite differences with stride 2 — exercises the
    /// stride phases of the padded planes and the input-gradient rows.
    #[test]
    fn backward_matches_finite_differences_strided() {
        let input = rand_t(&[1, 2, 7, 7], 17);
        let weight = rand_t(&[2, 2, 3, 3], 18);
        let bias = rand_t(&[2], 19);
        let p = Conv2dParams {
            stride: 2,
            padding: 1,
        };
        let y = conv2d(&input, &weight, &bias, p).unwrap();
        let go = Tensor::ones(y.shape().clone());
        let grads = conv2d_backward(&input, &weight, &go, p).unwrap();
        let eps = 1e-3f32;
        let loss = |input: &Tensor, weight: &Tensor| -> f32 {
            conv2d(input, weight, &bias, p).unwrap().sum()
        };
        for &idx in &[0usize, 31, 97] {
            let mut ip = input.clone();
            ip.as_mut_slice()[idx] += eps;
            let mut im = input.clone();
            im.as_mut_slice()[idx] -= eps;
            let fd = (loss(&ip, &weight) - loss(&im, &weight)) / (2.0 * eps);
            let an = grads.grad_input.as_slice()[idx];
            assert!((fd - an).abs() < 2e-2, "input grad {idx}: fd={fd} an={an}");
        }
        for &idx in &[0usize, 11, 35] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = weight.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&input, &wp) - loss(&input, &wm)) / (2.0 * eps);
            let an = grads.grad_weight.as_slice()[idx];
            assert!((fd - an).abs() < 2e-1, "weight grad {idx}: fd={fd} an={an}");
        }
    }

    /// The weight/bias gradients are summed in the order the
    /// [`conv2d_backward`] docs state — fixed chunks of [`BACKWARD_CHUNK`]
    /// samples — for batches below, at and above one and two chunks.
    #[test]
    fn backward_sums_in_documented_chunk_order() {
        let p = Conv2dParams {
            stride: 1,
            padding: 1,
        };
        let (c_in, c_out, h, w, kk) = (2, 3, 5, 4, 3);
        let k = c_in * kk * kk;
        let weight = rand_t(&[c_out, c_in, kk, kk], 40);
        for n in [1usize, 7, 8, 9, 16, 17] {
            let input = rand_t(&[n, c_in, h, w], 41 + n as u64);
            let go = rand_t(&[n, c_out, h, w], 42 + n as u64);
            let grads = conv2d_backward(&input, &weight, &go, p).unwrap();

            let mut gw: Option<(Vec<f32>, Vec<f32>)> = None;
            for s0 in (0..n).step_by(BACKWARD_CHUNK) {
                let mut pw = vec![0.0f32; c_out * k];
                let mut pb = vec![0.0f32; c_out];
                for s in s0..n.min(s0 + BACKWARD_CHUNK) {
                    for co in 0..c_out {
                        for (q, acc) in pw[co * k..(co + 1) * k].iter_mut().enumerate() {
                            let (ci, ki, kj) = (q / (kk * kk), q / kk % kk, q % kk);
                            for oy in 0..h {
                                for ox in 0..w {
                                    // Padding positions contribute 0·dY.
                                    let (iy, ix) = ((oy + ki) as isize - 1, (ox + kj) as isize - 1);
                                    let inside = iy >= 0
                                        && ix >= 0
                                        && (iy as usize) < h
                                        && (ix as usize) < w;
                                    let x = if inside {
                                        input.at(&[s, ci, iy as usize, ix as usize]).unwrap()
                                    } else {
                                        0.0
                                    };
                                    *acc += x * go.at(&[s, co, oy, ox]).unwrap();
                                }
                            }
                        }
                        let plane =
                            &go.as_slice()[(s * c_out + co) * h * w..(s * c_out + co + 1) * h * w];
                        pb[co] += plane.iter().sum::<f32>();
                    }
                }
                gw = Some(match gw {
                    None => (pw, pb),
                    Some((tw, tb)) => (
                        tw.iter().zip(&pw).map(|(a, b)| a + b).collect(),
                        tb.iter().zip(&pb).map(|(a, b)| a + b).collect(),
                    ),
                });
            }
            let (rw, rb) = gw.unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(grads.grad_weight.as_slice()),
                bits(&rw),
                "dW at batch {n}"
            );
            assert_eq!(
                bits(grads.grad_bias.as_slice()),
                bits(&rb),
                "db at batch {n}"
            );

            // The input gradient of each sample is that sample's alone.
            let plane = c_in * h * w;
            for s in 0..n {
                let one = |t: &Tensor, len: usize, dims: [usize; 4]| {
                    Tensor::from_vec(dims, t.as_slice()[s * len..(s + 1) * len].to_vec()).unwrap()
                };
                let single = conv2d_backward(
                    &one(&input, plane, [1, c_in, h, w]),
                    &weight,
                    &one(&go, c_out * h * w, [1, c_out, h, w]),
                    p,
                )
                .unwrap();
                assert_eq!(
                    bits(single.grad_input.as_slice()),
                    bits(&grads.grad_input.as_slice()[s * plane..(s + 1) * plane]),
                    "dX of sample {s} at batch {n}"
                );
            }
        }
    }

    #[test]
    fn shape_validation() {
        let input = Tensor::zeros([1, 2, 4, 4]);
        let weight = Tensor::zeros([3, 2, 3, 3]);
        let bias = Tensor::zeros([3]);
        // Wrong channel count.
        assert!(conv2d(
            &input,
            &Tensor::zeros([3, 5, 3, 3]),
            &bias,
            Conv2dParams::default()
        )
        .is_err());
        // Wrong bias length.
        assert!(conv2d(
            &input,
            &weight,
            &Tensor::zeros([4]),
            Conv2dParams::default()
        )
        .is_err());
        // Kernel larger than padded input.
        assert!(conv2d(
            &input,
            &Tensor::zeros([3, 2, 9, 9]),
            &bias,
            Conv2dParams::default()
        )
        .is_err());
        // Zero stride.
        assert!(conv2d(
            &input,
            &weight,
            &bias,
            Conv2dParams {
                stride: 0,
                padding: 0
            }
        )
        .is_err());
    }

    #[test]
    fn zero_kernel_extent_is_rejected_before_any_work() {
        let input = Tensor::zeros([1, 2, 4, 4]);
        let bias = Tensor::zeros([3]);
        // kh = 0 and kw = 0 must both fail cleanly.
        assert!(conv2d(
            &input,
            &Tensor::zeros([3, 2, 0, 3]),
            &bias,
            Conv2dParams::default()
        )
        .is_err());
        assert!(conv2d(
            &input,
            &Tensor::zeros([3, 2, 3, 0]),
            &bias,
            Conv2dParams::default()
        )
        .is_err());
        assert!(conv2d_backward(
            &input,
            &Tensor::zeros([3, 2, 0, 3]),
            &Tensor::zeros([1, 3, 4, 4]),
            Conv2dParams::default()
        )
        .is_err());
    }

    #[test]
    fn empty_channels_and_extents_are_rejected() {
        let p = Conv2dParams {
            stride: 1,
            padding: 1,
        };
        let bias = Tensor::zeros([3]);
        for (input, weight) in [
            ([1, 0, 4, 4], [3, 0, 3, 3]),
            ([1, 2, 0, 4], [3, 2, 3, 3]),
            ([1, 2, 4, 0], [3, 2, 3, 3]),
        ] {
            let (input, weight) = (Tensor::zeros(input), Tensor::zeros(weight));
            assert!(conv2d(&input, &weight, &bias, p).is_err());
            let go = Tensor::zeros([1, 3, 4, 4]);
            assert!(conv2d_backward(&input, &weight, &go, p).is_err());
        }
        let (input, weight) = (Tensor::zeros([1, 2, 4, 4]), Tensor::zeros([0, 2, 3, 3]));
        assert!(conv2d(&input, &weight, &Tensor::zeros([0]), p).is_err());
    }

    #[test]
    fn oversized_padding_is_rejected_not_overflowed() {
        let input = Tensor::zeros([1, 2, 4, 4]);
        let weight = Tensor::zeros([3, 2, 3, 3]);
        let bias = Tensor::zeros([3]);
        for padding in [usize::MAX, usize::MAX / 2, usize::MAX / 4 + 1] {
            let p = Conv2dParams { stride: 1, padding };
            assert!(p.validate().is_err() || out_extent(4, 3, 1, padding).is_err());
            assert!(conv2d(&input, &weight, &bias, p).is_err());
        }
        // A merely large (but representable) padding still works.
        let p = Conv2dParams {
            stride: 1,
            padding: 5,
        };
        assert!(conv2d(&input, &weight, &bias, p).is_ok());
    }

    #[test]
    fn params_validate_is_checked_once_up_front() {
        assert!(Conv2dParams {
            stride: 0,
            padding: 0
        }
        .validate()
        .is_err());
        assert!(Conv2dParams {
            stride: 1,
            padding: usize::MAX
        }
        .validate()
        .is_err());
        assert!(Conv2dParams {
            stride: 3,
            padding: 2
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn backward_rejects_wrong_grad_shape() {
        let input = Tensor::zeros([1, 2, 4, 4]);
        let weight = Tensor::zeros([3, 2, 3, 3]);
        let bad = Tensor::zeros([1, 3, 5, 5]);
        assert!(conv2d_backward(&input, &weight, &bad, Conv2dParams::default()).is_err());
    }
}
