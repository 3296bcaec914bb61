//! Dense matrix multiplication kernels.
//!
//! The forward and backward passes of `Linear` reduce to three product
//! forms (`Conv2d` has its own direct kernels in
//! [`crate::ops::conv`](mod@crate::ops::conv)):
//!
//! * `matmul`:      `C = A · B`  — `Linear`'s input gradient
//! * `matmul_at_b`: `C = Aᵀ · B` — weight gradients
//! * `matmul_a_bt`: `C = A · Bᵀ` — `Linear`'s forward
//!
//! **One kernel.** All three are one kernel, `gemm`, which takes A and B
//! each row-major or column-major: the forms differ only in the operands'
//! row and column strides, so no transpose is ever materialised. C is
//! walked in `RM × RN` tiles (4 × 16: eight AVX2 vectors). A tile is
//! loaded from C once per `KC`-deep slab of the inner dimension,
//! accumulated in registers with `acc += a·b` for every `p` of the slab,
//! and stored once. Columns are swept in `RN`-wide strips with the rows
//! inside, so a strip of B stays in L1 across all row tiles of an
//! `MC`-row block. A's slab rows are packed `p`-major in groups of `RM`,
//! so a tile reads one contiguous run of A whatever A's strides. A
//! row-major B is read in place, strip by strip; the strips a tile cannot
//! read in place — every strip of a column-major B, and a last strip
//! narrower than `RN` — are packed once per slab into `KC × RN` panels,
//! zero-padded to `RN` columns, which all row blocks share. B is never
//! transposed whole: the pack holds one slab. A last row group shorter
//! than `RM`, or a last strip narrower than `RN`, goes through a local
//! tile. Padding lanes only ever reach discarded outputs.
//!
//! **Dispatch.** The crate builds for baseline x86-64 (SSE2). The kernel
//! body is compiled twice: once as-is, once inside
//! `#[target_feature(enable = "avx2")]`, and `Isa::detect` picks the
//! AVX2 instance when `is_x86_feature_detected!("avx2")` says the CPU has
//! it. Every other CPU and architecture runs the portable instance. The
//! loops sit directly in the `#[inline(always)]` bodies: a closure or an
//! iterator adaptor would be a separate function compiled without AVX2.
//!
//! **Exact order.** Every output element of every form is
//! `((0 + a₀b₀) + a₁b₁) + …` in ascending `p` — the same operations in the
//! same order as the naive triple loop, bit for bit, on either instance.
//! There is no FMA (`mul_add`), because a fused multiply-add rounds once
//! where `a·b` then `+` rounds twice, and no reassociation. A caller that
//! passes a non-zero C gets `C + a₀b₀ + a₁b₁ + …` in that order.
//!
//! Rayon parallelism splits C into `PAR_ROWS`-row blocks, gated by a
//! flop-count threshold (`2·m·n·k`) so a skinny product with a large inner
//! dimension parallelises even when `m·n` alone looks small. Which thread
//! computes a block never changes its bits.
//!
//! There is deliberately **no** zero-skip branch in the hot loops: the
//! ADMM/FedAvg workloads feed dense activations and weights, and a
//! per-element compare costs more than the multiply it occasionally
//! saves (and blocks vectorisation).

use crate::{scratch, Result, Tensor, TensorError};
use rayon::prelude::*;

/// Rows of the register tile.
const RM: usize = 4;
/// Columns of the register tile: two 8-lane AVX2 vectors per tile row.
const RN: usize = 16;
/// Depth of one inner-dimension slab: a C tile is loaded and stored once
/// per slab.
const KC: usize = 128;
/// Rows of C per block; the A slab of a block, `MC × KC` f32s = 32 KiB,
/// stays cache-resident while the strips of B stream past it.
const MC: usize = 64;
/// Rows of C per parallel task: small, so a product with few rows still
/// splits across the pool.
const PAR_ROWS: usize = 2 * RM;
/// Minimum flop count (`2·m·n·k`) before spawning parallel work. Unlike
/// an output-element threshold, this accounts for the inner dimension:
/// a `[8, 65536] × [65536, 8]` product is worth splitting even though it
/// has only 64 outputs.
const PAR_MIN_FLOPS: usize = 1 << 22;

#[inline]
fn flops(m: usize, k: usize, n: usize) -> usize {
    2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n)
}

fn check_rank2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(TensorError::InvalidArgument(format!(
            "{op}: expected rank-2 tensor, got {}",
            t.shape()
        )));
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// Instruction set a kernel instance is compiled for. The variant is
/// private to this module: the `unsafe` call below relies on `Avx2` never
/// being built without the CPU check in [`Isa::detect`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Isa(IsaKind);

#[derive(Debug, Clone, Copy)]
enum IsaKind {
    /// The crate's build target (baseline SSE2 on x86-64).
    Portable,
    /// `#[target_feature(enable = "avx2")]`. Only constructed once
    /// `is_x86_feature_detected!("avx2")` has returned true.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The fastest instance this CPU can run.
    #[inline]
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa(IsaKind::Avx2);
        }
        Isa(IsaKind::Portable)
    }
}

/// A matrix operand with element `(r, c)` at `v[r·rs + c·cs]`: row-major
/// (`cs == 1`) or column-major (`rs == 1`).
#[derive(Clone, Copy)]
struct Strided<'a> {
    v: &'a [f32],
    rs: usize,
    cs: usize,
}

/// One `KC`-deep slab of a [`gemm`]: A is `m × k`, B is `k × n`, and the
/// slab covers `p` in `pc..pc + kc`.
struct Slab<'a> {
    a: Strided<'a>,
    b: Strided<'a>,
    n: usize,
    pc: usize,
    kc: usize,
    /// Columns `jp..n` of B's slab, packed by [`pack_b`]; the columns
    /// before `jp` are read from a row-major B in place.
    bpack: &'a [f32],
    jp: usize,
    /// Distance between two packed strips: `RN ·` the deepest slab.
    strip: usize,
}

/// Copies B's slab columns `jp..` into `RN`-wide strips `strip` apart,
/// each `p`-major (row `p` of strip `s` at `s·strip + p·RN`). The columns
/// past `n` are never written, so they keep the zeros of a fresh scratch
/// buffer.
fn pack_b(b: Strided, pc: usize, kc: usize, jp: usize, n: usize, pack: &mut [f32], strip: usize) {
    for j in jp..n {
        let dst = &mut pack[(j - jp) / RN * strip + (j - jp) % RN..];
        for p in 0..kc {
            dst[p * RN] = b.v[(pc + p) * b.rs + j * b.cs];
        }
    }
}

/// `acc[r][j] = c[r·ldc + j]`, then `acc[r][j] += ap[p·RM + r] ·
/// b[p·ldb + j]` for every `p` of the packed A group `ap`, in order, then
/// back into `c`.
#[inline(always)]
fn tile(ap: &[f32], b: &[f32], ldb: usize, c: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; RN]; RM];
    for r in 0..RM {
        acc[r].copy_from_slice(&c[r * ldc..r * ldc + RN]);
    }
    for (a, brow) in ap.chunks_exact(RM).zip(b.chunks(ldb)) {
        let bp: &[f32; RN] = brow[..RN].try_into().unwrap();
        for r in 0..RM {
            for j in 0..RN {
                acc[r][j] += a[r] * bp[j];
            }
        }
    }
    for r in 0..RM {
        c[r * ldc..r * ldc + RN].copy_from_slice(&acc[r]);
    }
}

/// [`tile`] for the `mr × nr` corner of C at `c`, with `mr < RM` or a
/// zero-padded B strip: routed through a local `RM × RN` copy.
#[inline(always)]
fn tile_partial(
    ap: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut ct = [[0.0f32; RN]; RM];
    for r in 0..mr {
        ct[r][..nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
    }
    tile(ap, b, ldb, ct.as_flattened_mut(), RN);
    for r in 0..mr {
        c[r * ldc..r * ldc + nr].copy_from_slice(&ct[r][..nr]);
    }
}

/// The kernel body: every tile of the C rows `c` (which start at row
/// `i0`) for one slab. A's slab rows are first packed into `apack` in
/// groups of `RM` rows, `p`-major (`ap[g][p][r]`), so each tile reads one
/// contiguous run of A whatever A's strides; the padding rows of a short
/// last group only feed outputs that are never stored. Compiled once per
/// [`Isa`].
#[inline(always)]
fn block_body(s: &Slab, i0: usize, c: &mut [f32], apack: &mut [f32]) {
    let (a, n, kc) = (s.a, s.n, s.kc);
    let rows = c.len() / n;
    let group = RM * kc;
    let apack = &mut apack[..rows.div_ceil(RM) * group];
    for (g, ap) in apack.chunks_exact_mut(group).enumerate() {
        let mr = RM.min(rows - g * RM);
        let a0 = (i0 + g * RM) * a.rs + s.pc * a.cs;
        if a.cs == 1 {
            // Row-major A: gather the group's rows into `p`-major order.
            let arows: [&[f32]; RM] =
                std::array::from_fn(|r| &a.v[a0 + r.min(mr - 1) * a.rs..][..kc]);
            for (p, d) in ap.chunks_exact_mut(RM).enumerate() {
                for r in 0..RM {
                    d[r] = arows[r][p];
                }
            }
        } else {
            // Column-major A: the group's values at each `p` are adjacent.
            for (p, d) in ap.chunks_exact_mut(RM).enumerate() {
                d[..mr].copy_from_slice(&a.v[a0 + p * a.cs..][..mr]);
                d[mr..].fill(0.0);
            }
        }
    }
    for j0 in (0..n).step_by(RN) {
        let nr = RN.min(n - j0);
        let (b, ldb) = if j0 < s.jp {
            (&s.b.v[s.pc * s.b.rs + j0..], s.b.rs)
        } else {
            (&s.bpack[(j0 - s.jp) / RN * s.strip..], RN)
        };
        for (g, ap) in apack.chunks_exact(group).enumerate() {
            let (r0, mr) = (g * RM, RM.min(rows - g * RM));
            let c = &mut c[r0 * n + j0..];
            if mr == RM && nr == RN {
                tile(ap, b, ldb, c, n);
            } else {
                tile_partial(ap, b, ldb, c, n, mr, nr);
            }
        }
    }
}

/// [`block_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_avx2(s: &Slab, i0: usize, c: &mut [f32], apack: &mut [f32]) {
    block_body(s, i0, c, apack)
}

/// Runs the `isa` instance of [`block_body`].
#[inline]
fn block(isa: Isa, s: &Slab, i0: usize, c: &mut [f32], apack: &mut [f32]) {
    match isa.0 {
        IsaKind::Portable => block_body(s, i0, c, apack),
        // SAFETY: `IsaKind::Avx2` exists only on CPUs that report AVX2.
        #[cfg(target_arch = "x86_64")]
        IsaKind::Avx2 => unsafe { block_avx2(s, i0, c, apack) },
    }
}

/// `C += A · B` for an `m × k` A, a `k × n` B and a row-major `m × n` C.
/// See the module docs for the tiling and the summation order.
fn gemm(isa: Isa, a: Strided, b: Strided, c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert!(a.cs == 1 || a.rs == 1);
    debug_assert!(b.cs == 1 || b.rs == 1);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let parallel = flops(m, k, n) >= PAR_MIN_FLOPS;
    // A row-major B is read in place up to its last full strip; the rest
    // of it, and all of a column-major B (`rs == 1`), go through the pack.
    let jp = if b.rs == 1 { 0 } else { n - n % RN };
    let strip = KC.min(k) * RN;
    let mut bpack = scratch::take_f32((n - jp).div_ceil(RN) * strip);
    // Packed A of one block; parallel tasks each take their own.
    let mut apack = scratch::take_f32(if parallel {
        0
    } else {
        MC.min(m).next_multiple_of(RM) * KC.min(k)
    });
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        pack_b(b, pc, kc, jp, n, &mut bpack, strip);
        let s = Slab {
            a,
            b,
            n,
            pc,
            kc,
            bpack: &bpack,
            jp,
            strip,
        };
        if parallel {
            c.par_chunks_mut(PAR_ROWS * n)
                .enumerate()
                .for_each(|(blk, cb)| {
                    let mut apack = scratch::take_f32(PAR_ROWS * kc);
                    block(isa, &s, blk * PAR_ROWS, cb, &mut apack);
                });
        } else {
            for (blk, cb) in c.chunks_mut(MC * n).enumerate() {
                block(isa, &s, blk * MC, cb, &mut apack);
            }
        }
    }
}

/// `C += A · B` on raw row-major slices (`a`: `m×k`, `b`: `k×n`,
/// `c`: `m×n`). Callers pass a zeroed `c` for a plain product.
pub(crate) fn matmul_into(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!((a.len(), b.len()), (m * k, k * n));
    let a = Strided { v: a, rs: k, cs: 1 };
    let b = Strided { v: b, rs: n, cs: 1 };
    gemm(isa, a, b, c, m, k, n);
}

/// `C += Aᵀ · B` on raw row-major slices (`a`: `m×k`, `b`: `m×n`,
/// `c`: `k×n`): the same [`gemm`] with A's strides swapped.
pub(crate) fn matmul_at_b_into(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!((a.len(), b.len()), (m * k, m * n));
    let a = Strided { v: a, rs: 1, cs: k };
    let b = Strided { v: b, rs: n, cs: 1 };
    gemm(isa, a, b, c, k, m, n);
}

/// `C += A · Bᵀ` on raw row-major slices (`a`: `m×k`, `b`: `n×k`,
/// `c`: `m×n`): the same [`gemm`] with B's strides swapped.
pub(crate) fn matmul_a_bt_into(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!((a.len(), b.len()), (m * k, n * k));
    let a = Strided { v: a, rs: k, cs: 1 };
    let b = Strided { v: b, rs: 1, cs: k };
    gemm(isa, a, b, c, m, k, n);
}

/// `C[m,n] = A[m,k] · B[k,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_rank2(a, "matmul")?;
    let (kb, n) = check_rank2(b, "matmul")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: format!("{}", a.shape()),
            rhs: format!("{}", b.shape()),
            op: "matmul",
        });
    }
    let mut out = vec![0.0f32; m * n];
    crate::timers::time_kernel("matmul", || {
        matmul_into(Isa::detect(), a.as_slice(), b.as_slice(), &mut out, m, k, n)
    });
    Tensor::from_vec([m, n], out)
}

/// `C[k,n] = Aᵀ[k,m] · B[m,n]` computed without materialising `Aᵀ`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_rank2(a, "matmul_at_b")?;
    let (mb, n) = check_rank2(b, "matmul_at_b")?;
    if m != mb {
        return Err(TensorError::ShapeMismatch {
            lhs: format!("{}", a.shape()),
            rhs: format!("{}", b.shape()),
            op: "matmul_at_b",
        });
    }
    let mut out = vec![0.0f32; k * n];
    crate::timers::time_kernel("matmul_at_b", || {
        matmul_at_b_into(Isa::detect(), a.as_slice(), b.as_slice(), &mut out, m, k, n)
    });
    Tensor::from_vec([k, n], out)
}

/// `C[m,k] = A[m,n] · Bᵀ[n,k]` computed without materialising `Bᵀ`
/// (`B` is `[k, n]`).
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, n) = check_rank2(a, "matmul_a_bt")?;
    let (k, nb) = check_rank2(b, "matmul_a_bt")?;
    if n != nb {
        return Err(TensorError::ShapeMismatch {
            lhs: format!("{}", a.shape()),
            rhs: format!("{}", b.shape()),
            op: "matmul_a_bt",
        });
    }
    let mut out = vec![0.0f32; m * k];
    crate::timers::time_kernel("matmul_a_bt", || {
        matmul_a_bt_into(Isa::detect(), a.as_slice(), b.as_slice(), &mut out, m, n, k)
    });
    Tensor::from_vec([m, k], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::{conv2d_backward_with, conv2d_with, ConvIsa};
    use crate::ops::Conv2dParams;

    /// Naive triple-loop oracle for `C = A · B` (the reference the tiled
    /// kernel is pinned against).
    pub(crate) fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = vec![0.0f32; m * n];
        let (a, b) = (row_major(a.as_slice(), k), row_major(b.as_slice(), n));
        naive(a, b, &mut out, m, k, n);
        Tensor::from_vec([m, n], out).unwrap()
    }

    /// `c[i,j] += a(i,0)·b(0,j)`, then `+= a(i,1)·b(1,j)`, … in ascending
    /// `p`.
    fn naive(a: Strided, b: Strided, c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for p in 0..k {
                    acc += a.v[i * a.rs + p * a.cs] * b.v[p * b.rs + j * b.cs];
                }
                c[i * n + j] = acc;
            }
        }
    }

    fn row_major(v: &[f32], cols: usize) -> Strided<'_> {
        Strided { v, rs: cols, cs: 1 }
    }

    fn col_major(v: &[f32], rows: usize) -> Strided<'_> {
        Strided { v, rs: 1, cs: rows }
    }

    fn rand_t(shape: [usize; 2], seed: u64) -> Tensor {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        crate::init::uniform(shape, -1.0, 1.0, &mut rng)
    }

    /// The splitmix64 stream of appfl-nn's
    /// `cnn_sgd_steps_reproduce_golden_parameter_bits`: 24 random bits
    /// mapped to `[-1, 1)`, exactly representable, and independent of the
    /// `rand` build the tests link.
    fn splitmix(seed: u64) -> impl FnMut(usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        move |len| {
            (0..len)
                .map(|_| {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
                })
                .collect()
        }
    }

    /// FNV-1a over the little-endian bits of every value, in order.
    fn fnv1a<'a>(outputs: impl IntoIterator<Item = &'a [f32]>) -> u64 {
        outputs
            .into_iter()
            .flatten()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
            })
    }

    /// Every kernel instance this CPU can run, printed to stderr (visible
    /// under `--nocapture`) so a log shows which instances a test covered.
    fn instances() -> Vec<Isa> {
        let mut all = vec![Isa(IsaKind::Portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            all.push(Isa(IsaKind::Avx2));
        }
        eprintln!("matmul kernel instances run: {all:?}");
        all
    }

    /// `(m, k, n)` of `C[m,n] = A[m,k] · B[k,n]`: the products of the
    /// CNN (`cnn_classifier(8, 16, 64)` at 3×32×32, batch 16; its conv
    /// layers no longer run through this kernel, but their shapes stay
    /// pinned) and the MLP (784 → 32 → 10, batch 25), shapes one below, at
    /// and one above each tile extent (`RM`, `RN`, `KC`, `MC`), and
    /// degenerate ones. With each, the FNV-1a hashes of the `A · B` and
    /// `Aᵀ · B` outputs that the kernel produced before it took a strided B.
    #[rustfmt::skip]
    const PINNED: [(usize, usize, usize, u64, u64); 33] = [
        // CNN: conv forward, conv dWᵀ, conv dcols (Aᵀ·B), then fc1/fc2.
        (8, 27, 1024, 0x64c0_aa60_5bfb_b1a4, 0x3266_bb51_a678_07a1),
        (16, 72, 1024, 0x8b5c_e999_72ac_baa8, 0x4b0e_be2a_6a13_6052),
        (27, 1024, 8, 0x32ba_f8db_9f34_e48f, 0xb3d0_6595_ef20_051a),
        (72, 1024, 16, 0xf809_423c_40ee_73b1, 0x289b_fc39_4cd1_d1ec),
        (16, 4096, 64, 0x8e49_87ad_d776_4362, 0x0944_76bd_b52e_d391),
        (16, 64, 4096, 0x66ae_760b_cd05_a2b1, 0xdee1_64cc_d30f_cc07),
        (64, 16, 4096, 0xc70a_b217_de8e_e0d5, 0xe342_8cd0_b615_7457),
        (16, 64, 10, 0x401e_41d7_ddc2_c32f, 0x7a21_56d3_1f8d_9922),
        (16, 10, 64, 0x15a7_549e_e431_4f31, 0xd76e_5040_1f10_6e64),
        (10, 16, 64, 0x9296_5540_c28c_61b0, 0x9598_10fd_c678_6c4c),
        // MLP.
        (25, 784, 32, 0xa7d2_40d4_c23b_49ed, 0x74fb_54ae_10c0_b31c),
        (25, 32, 784, 0xc0f1_7b65_2b90_635f, 0x7b51_407c_fa3f_dd94),
        (32, 25, 784, 0x569d_353f_d6d2_bba5, 0x17c6_410d_c842_a70b),
        (25, 32, 10, 0x3b4f_9346_41d8_8adb, 0x6087_8fb6_8457_500c),
        (25, 10, 32, 0x0f78_6095_cbb5_676f, 0x599c_d079_5e36_27db),
        (10, 25, 32, 0x0436_4960_245c_d6db, 0x62bd_7393_1fb8_6884),
        // Tile extents.
        (RM - 1, KC - 1, RN - 1, 0xdf88_191d_6b2b_5f49, 0xf213_493a_eaf4_9846),
        (RM, KC, RN, 0x3c42_9797_07d1_fe0a, 0x1ea1_98ea_1c59_3dd4),
        (RM + 1, KC + 1, RN + 1, 0xd2ef_7f2b_6143_80db, 0x6b20_b76a_ff07_eb0f),
        (MC - 1, KC + 1, RN, 0x4251_2079_bcdd_58ac, 0xae89_3c79_a57e_c64f),
        (MC, KC - 1, RN + 1, 0x35fd_e848_c8ed_804f, 0xa84d_27a9_fbef_6754),
        (MC + 1, KC, RN - 1, 0x4435_ccb7_4176_4ab0, 0x3be1_694d_c3c7_d8a3),
        (MC + 1, 2 * KC + 11, 2 * RN + 1, 0xb26a_c859_6b0a_b977, 0x4f2f_6432_516d_a314),
        (2 * RM + 3, 7, RN / 2, 0xf880_ac2b_2179_a893, 0x153f_fa37_9ba5_5d3a),
        (RM, 9, RN / 2 + 1, 0xd314_7bb9_8b1f_8e0e, 0xe20d_a09e_9ae3_68ba),
        (RM + 2, 3, RN / 2 - 1, 0x3747_338d_0a9d_7d58, 0x8dec_42e4_2396_8128),
        (17, 131, 257, 0x5a85_1b43_7775_e395, 0xb66e_92c1_90d5_9ae1),
        (9, 300, 70, 0xe44c_6395_893e_b1b0, 0xf988_87f6_254b_f7ea),
        // Degenerate.
        (1, 1, 1, 0xf12a_b9e9_406f_96c0, 0xf22a_8b91_721c_de6a),
        (3, 0, 5, 0xf87b_38c6_cf34_ac55, 0xf87b_38c6_cf34_ac55),
        (0, 4, 6, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325),
        (4, 6, 0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325),
        (129, 130, 131, 0xb3af_94b2_7d22_a9ca, 0x1a17_ece2_4a74_e902),
    ];

    type ConvGeometry = (usize, usize, usize, usize, usize, usize, usize, usize);

    /// `(n, c_in, h, w, c_out, kernel, stride, padding)` of a convolution:
    /// the CNN's two layers at a batch that spans two backward chunks, and
    /// odd shapes. With each, the hashes of the `conv2d` output and of the
    /// `conv2d_backward` gradients (input, weight, bias) pinned with
    /// [`PINNED`].
    const PINNED_CONV: [(ConvGeometry, u64, u64); 4] = [
        (
            (9, 3, 32, 32, 8, 3, 1, 1),
            0x1510_fb81_1553_2de3,
            0x5c26_cbb8_eb22_4095,
        ),
        (
            (9, 8, 32, 32, 16, 3, 1, 1),
            0xafc2_68ad_9a69_51a8,
            0x6966_c1bd_3924_c0a6,
        ),
        (
            (3, 5, 11, 13, 17, 3, 2, 0),
            0x0858_580d_957e_b520,
            0x20da_ea72_56ad_6691,
        ),
        (
            (2, 2, 7, 7, 4, 5, 1, 2),
            0x36a8_8739_a5dc_6204,
            0x9758_2f4e_caaa_aabd,
        ),
    ];

    /// `matmul`, `matmul_at_b`, `conv2d` and `conv2d_backward` reproduce
    /// the pinned output bits on every instance.
    #[test]
    fn kernel_output_bits_are_pinned() {
        let mut wrong = Vec::new();
        for isa in instances() {
            for (seed, &(m, k, n, ab, atb)) in PINNED.iter().enumerate() {
                let mut draw = splitmix(seed as u64);
                let (a, b, at) = (draw(m * k), draw(k * n), draw(k * m));
                let mut c = vec![0.0f32; m * n];
                matmul_into(isa, &a, &b, &mut c, m, k, n);
                let got_ab = fnv1a([&c[..]]);
                let mut c = vec![0.0f32; m * n];
                matmul_at_b_into(isa, &at, &b, &mut c, k, m, n);
                let got_atb = fnv1a([&c[..]]);
                if (got_ab, got_atb) != (ab, atb) {
                    wrong.push(format!(
                        "{isa:?} ({m}, {k}, {n}, {got_ab:#018x}, {got_atb:#018x})"
                    ));
                }
            }
        }
        for isa in ConvIsa::instances() {
            for (seed, &(geo, fwd, bwd)) in PINNED_CONV.iter().enumerate() {
                let (n, c_in, h, w, c_out, kk, stride, padding) = geo;
                let mut draw = splitmix(100 + seed as u64);
                let input = Tensor::from_vec([n, c_in, h, w], draw(n * c_in * h * w)).unwrap();
                let weight =
                    Tensor::from_vec([c_out, c_in, kk, kk], draw(c_out * c_in * kk * kk)).unwrap();
                let bias = Tensor::from_vec([c_out], draw(c_out)).unwrap();
                let params = Conv2dParams { stride, padding };
                let y = conv2d_with(isa, &input, &weight, &bias, params).unwrap();
                let dy = Tensor::from_vec(y.dims().to_vec(), draw(y.numel())).unwrap();
                let g = conv2d_backward_with(isa, &input, &weight, &dy, params).unwrap();
                let got_fwd = fnv1a([y.as_slice()]);
                let got_bwd = fnv1a([
                    g.grad_input.as_slice(),
                    g.grad_weight.as_slice(),
                    g.grad_bias.as_slice(),
                ]);
                if (got_fwd, got_bwd) != (fwd, bwd) {
                    wrong.push(format!(
                        "{isa:?} ({geo:?}, {got_fwd:#018x}, {got_bwd:#018x})"
                    ));
                }
            }
        }
        assert!(
            wrong.is_empty(),
            "output bits changed:\n{}",
            wrong.join("\n")
        );
    }

    /// All three product forms equal the naive ascending-`p` sum bit for
    /// bit on every pinned shape and instance, also when C starts non-zero.
    #[test]
    fn packed_kernels_match_naive_across_tile_boundaries() {
        for isa in instances() {
            for (seed, &(m, k, n, _, _)) in PINNED.iter().enumerate() {
                let mut draw = splitmix(1000 + seed as u64);
                let (a, b, at, bt, c0) = (
                    draw(m * k),
                    draw(k * n),
                    draw(k * m),
                    draw(n * k),
                    draw(m * n),
                );
                let mut fast = [c0.clone(), c0.clone(), c0.clone()];
                matmul_into(isa, &a, &b, &mut fast[0], m, k, n);
                matmul_at_b_into(isa, &at, &b, &mut fast[1], k, m, n);
                matmul_a_bt_into(isa, &a, &bt, &mut fast[2], m, k, n);
                let mut slow = [c0.clone(), c0.clone(), c0];
                naive(row_major(&a, k), row_major(&b, n), &mut slow[0], m, k, n);
                naive(col_major(&at, m), row_major(&b, n), &mut slow[1], m, k, n);
                naive(row_major(&a, k), col_major(&bt, k), &mut slow[2], m, k, n);
                for (form, (fast, slow)) in
                    ["A·B", "Aᵀ·B", "A·Bᵀ"].iter().zip(fast.iter().zip(&slow))
                {
                    for (i, (f, s)) in fast.iter().zip(slow).enumerate() {
                        assert_eq!(
                            f.to_bits(),
                            s.to_bits(),
                            "{isa:?} {form} m={m} k={k} n={n} element {i}: {f} vs {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(3)
        };
        let a = crate::init::uniform([5, 5], -1.0, 1.0, &mut rng);
        let mut eye = Tensor::zeros([5, 5]);
        for i in 0..5 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        let c = matmul(&a, &eye).unwrap();
        assert!(a.max_abs_diff(&c).unwrap() < 1e-6);
    }

    /// The public entry points equal an explicit transpose fed to
    /// `matmul`, bit for bit.
    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = rand_t([7, 4], 11);
        let b = rand_t([7, 5], 12);
        let c1 = matmul_at_b(&a, &b).unwrap();
        let c2 = matmul(&a.transpose2().unwrap(), &b).unwrap();
        assert_eq!(c1.as_slice(), c2.as_slice());

        let a = rand_t([6, 19], 13);
        let b = rand_t([3, 19], 14);
        let c1 = matmul_a_bt(&a, &b).unwrap();
        let c2 = matmul(&a, &b.transpose2().unwrap()).unwrap();
        assert_eq!(c1.as_slice(), c2.as_slice());
    }

    #[test]
    fn large_matches_naive_and_exercises_parallel_path() {
        // Big enough to clear PAR_MIN_FLOPS (2·m·n·k ≈ 2²² at 129³).
        let a = rand_t([129, 130], 5);
        let b = rand_t([130, 131], 6);
        assert!(flops(129, 130, 131) >= PAR_MIN_FLOPS);
        let slow = naive_matmul(&a, &b);
        assert_eq!(matmul(&a, &b).unwrap().as_slice(), slow.as_slice());
        let at = a.transpose2().unwrap();
        assert_eq!(matmul_at_b(&at, &b).unwrap().as_slice(), slow.as_slice());
        let bt = b.transpose2().unwrap();
        assert_eq!(matmul_a_bt(&a, &bt).unwrap().as_slice(), slow.as_slice());
    }

    #[test]
    fn dense_rows_with_zeros_still_multiply_exactly() {
        // The old kernel special-cased zero entries of A; the packed kernel
        // must treat them as ordinary values.
        let a = Tensor::from_vec([2, 4], vec![0., 1., 0., 2., 0., 0., 0., 0.]).unwrap();
        let b = rand_t([4, 9], 42);
        let fast = matmul(&a, &b).unwrap();
        let slow = naive_matmul(&a, &b);
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-6);
        // Second row of A is all-zero: output row must be exactly zero.
        assert!(fast.as_slice()[9..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros([3])).is_err());
        assert!(matmul_at_b(&a, &Tensor::zeros([3, 2])).is_err());
        assert!(matmul_a_bt(&a, &Tensor::zeros([2, 2])).is_err());
    }
}
