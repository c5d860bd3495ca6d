//! Batched dot-product kernels with runtime SIMD dispatch.
//!
//! This module is the arithmetic floor of the retrieval stack: everything
//! that scores vectors — single-query scans, batched query-matrix scans,
//! IVF probes — bottoms out in the three entry points here ([`dot`],
//! [`dot_batch`], [`matmul_tile`]). All of them share one contract:
//!
//! **Every dispatch path produces bit-identical results.** The scalar
//! kernel accumulates into [`DOT_LANES`] (8) independent lanes over
//! 8-wide chunks, reduces them in a fixed pairwise tree, and folds the
//! sub-chunk remainder sequentially. The AVX2 path keeps the same eight
//! lanes in one 256-bit register, the NEON path keeps them as two
//! 128-bit halves, and both use separate multiply and add instructions
//! (never fused multiply-add, which would round once instead of twice)
//! with the same per-lane operation order and the same reduction tree.
//! IEEE-754 arithmetic is deterministic per operation, so identical
//! operation order means identical bits — which is what lets the
//! deterministic top-k layer above treat the kernel choice as invisible.
//!
//! Dispatch is decided once per process ([`dispatch_path`]): AVX2 via
//! `is_x86_feature_detected!` on x86_64, NEON unconditionally on aarch64
//! (it is a baseline feature there), scalar everywhere else. Tests can
//! pin a path explicitly through [`dot_with_path`] /
//! [`matmul_tile_with_path`] and enumerate what the host supports with
//! [`DispatchPath::available`].
//!
//! The batched kernels are register-blocked: [`matmul_tile`] walks the
//! row arena in panels small enough to stay cache-resident and streams
//! groups of [`Q_TILE`] query rows over each panel, so each arena cache
//! line is touched once per query *group* instead of once per query.
//! That turns Q independent memory-bound scans into one pass at
//! ~Q/[`Q_TILE`] of the DRAM traffic — the whole point of batching.

use std::sync::atomic::{AtomicU8, Ordering};

/// Number of independent accumulator lanes in the kernels. Eight `f32`
/// lanes fill one 256-bit AVX register (or two NEON quads), and the lane
/// independence is what keeps the loop a pure SIMD multiply-add stream
/// instead of a serial dependency chain.
pub const DOT_LANES: usize = 8;

/// Query rows processed together against each arena row in the blocked
/// kernels. Four query accumulators plus one row register fit
/// comfortably in the 16 available vector registers with room for loads.
pub const Q_TILE: usize = 4;

/// Arena rows per cache panel in [`matmul_tile`]. At the workspace's
/// 64-dim `f32` rows this is 32 KiB — sized for L1/L2 residency while a
/// query group streams over it.
const ROW_BLOCK: usize = 128;

/// Which SIMD implementation services the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPath {
    /// Portable 8-lane kernel (auto-vectorized by the compiler).
    Scalar,
    /// 256-bit AVX2 path (x86_64, runtime-detected).
    Avx2,
    /// 128-bit×2 NEON path (aarch64 baseline).
    Neon,
}

impl DispatchPath {
    /// Stable lowercase label for reports and observability attributes.
    pub fn label(self) -> &'static str {
        match self {
            DispatchPath::Scalar => "scalar",
            DispatchPath::Avx2 => "avx2",
            DispatchPath::Neon => "neon",
        }
    }

    /// Every path the current host can execute (always includes
    /// [`DispatchPath::Scalar`]). Differential tests iterate this to
    /// prove all runnable paths agree bit-for-bit.
    pub fn available() -> Vec<DispatchPath> {
        let mut paths = vec![DispatchPath::Scalar];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            paths.push(DispatchPath::Avx2);
        }
        #[cfg(target_arch = "aarch64")]
        paths.push(DispatchPath::Neon);
        paths
    }

    /// Whether this host can execute the path. Cheap (no allocation):
    /// safe to assert on hot entry points.
    pub fn is_available(self) -> bool {
        match self {
            DispatchPath::Scalar => true,
            DispatchPath::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            DispatchPath::Neon => cfg!(target_arch = "aarch64"),
        }
    }
}

/// Cached dispatch decision: 0 = undecided, else `DispatchPath` + 1.
static DISPATCH: AtomicU8 = AtomicU8::new(0);

/// The SIMD path servicing all kernel calls in this process. Detected
/// once (AVX2 where available, NEON on aarch64, scalar otherwise) and
/// cached; every subsequent call is a relaxed atomic load.
pub fn dispatch_path() -> DispatchPath {
    match DISPATCH.load(Ordering::Relaxed) {
        1 => DispatchPath::Scalar,
        2 => DispatchPath::Avx2,
        3 => DispatchPath::Neon,
        _ => {
            let path = detect();
            let code = match path {
                DispatchPath::Scalar => 1,
                DispatchPath::Avx2 => 2,
                DispatchPath::Neon => 3,
            };
            DISPATCH.store(code, Ordering::Relaxed);
            path
        }
    }
}

fn detect() -> DispatchPath {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return DispatchPath::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return DispatchPath::Neon;
    }
    #[allow(unreachable_code)]
    DispatchPath::Scalar
}

/// Fixed pairwise reduction tree over the eight lane accumulators —
/// shared verbatim by every path so the final rounding sequence is
/// identical everywhere.
#[inline(always)]
fn reduce_lanes(acc: &[f32; DOT_LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// Dot product over equal-length slices (callers truncate to the shorter
/// length), dispatched to the detected SIMD path. Bit-identical across
/// all paths by construction.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with_path(dispatch_path(), a, b)
}

/// [`dot`] pinned to an explicit path. Panics if the host cannot execute
/// it; intended for differential tests and bench forensics.
pub fn dot_with_path(path: DispatchPath, a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    match path {
        DispatchPath::Scalar => dot_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        DispatchPath::Avx2 => {
            assert!(path.is_available(), "avx2 unavailable on this host");
            // SAFETY: AVX2 presence just asserted; slices are equal length.
            unsafe { avx2::dot(a, b) }
        }
        #[cfg(target_arch = "aarch64")]
        DispatchPath::Neon => {
            // SAFETY: NEON is an aarch64 baseline feature.
            unsafe { neon::dot(a, b) }
        }
        #[allow(unreachable_patterns)]
        other => panic!("dispatch path {} unavailable on this target", other.label()),
    }
}

/// Score many queries against one row: `out[q] = dot(queries[q], row)`.
/// `queries` is a flat row-major `n_q × dim` matrix; `row` has length
/// `dim`. Used by IVF member scoring, where the candidate rows arrive
/// cluster-by-cluster rather than as one contiguous panel.
pub fn dot_batch(queries: &[f32], dim: usize, row: &[f32], out: &mut [f32]) {
    let n_q = out.len();
    debug_assert!(queries.len() >= n_q * dim);
    debug_assert_eq!(row.len(), dim);
    matmul_tile(queries, n_q, row, 1, dim, out);
}

/// Blocked query-matrix × row-panel product:
/// `out[q * n_rows + r] = dot(queries[q], rows[r])` for every query row
/// against every arena row. Both inputs are flat row-major matrices with
/// stride `dim`; `out` must hold `n_q * n_rows` elements.
///
/// The kernel walks `rows` in `ROW_BLOCK` (128)-row panels and streams
/// [`Q_TILE`]-query groups over each panel, so a panel is loaded from
/// DRAM once per group rather than once per query. Each individual
/// `(q, r)` score follows the exact lane structure and reduction order
/// of [`dot`], so the output is bit-identical to `n_q × n_rows`
/// independent [`dot`] calls on every dispatch path.
pub fn matmul_tile(
    queries: &[f32],
    n_q: usize,
    rows: &[f32],
    n_rows: usize,
    dim: usize,
    out: &mut [f32],
) {
    matmul_tile_with_path(dispatch_path(), queries, n_q, rows, n_rows, dim, out)
}

/// [`matmul_tile`] pinned to an explicit path. Panics if the host cannot
/// execute it; intended for differential tests and bench forensics.
pub fn matmul_tile_with_path(
    path: DispatchPath,
    queries: &[f32],
    n_q: usize,
    rows: &[f32],
    n_rows: usize,
    dim: usize,
    out: &mut [f32],
) {
    assert!(queries.len() >= n_q * dim, "query matrix too short");
    assert!(rows.len() >= n_rows * dim, "row panel too short");
    assert!(out.len() >= n_q * n_rows, "output buffer too short");
    match path {
        DispatchPath::Scalar => matmul_scalar(queries, n_q, rows, n_rows, dim, out),
        #[cfg(target_arch = "x86_64")]
        DispatchPath::Avx2 => {
            assert!(path.is_available(), "avx2 unavailable on this host");
            // SAFETY: AVX2 presence just asserted; bounds asserted above.
            unsafe { avx2::matmul(queries, n_q, rows, n_rows, dim, out) }
        }
        #[cfg(target_arch = "aarch64")]
        DispatchPath::Neon => {
            // SAFETY: NEON is an aarch64 baseline feature; bounds asserted.
            unsafe { neon::matmul(queries, n_q, rows, n_rows, dim, out) }
        }
        #[allow(unreachable_patterns)]
        other => panic!("dispatch path {} unavailable on this target", other.label()),
    }
}

/// The portable reference kernel: 8 independent accumulator lanes over
/// 8-wide chunks (auto-vectorizable), fixed pairwise reduction,
/// sequential remainder. This is the seed retrieval kernel preserved
/// verbatim — the SIMD paths are defined as bit-identical to *this*.
#[inline]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; DOT_LANES];
    let mut ca = a.chunks_exact(DOT_LANES);
    let mut cb = b.chunks_exact(DOT_LANES);
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        for lane in 0..DOT_LANES {
            acc[lane] += xs[lane] * ys[lane];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce_lanes(&acc) + tail
}

/// Scalar blocked matmul: same panel/group walk as the SIMD paths (the
/// cache blocking is path-independent), every score via [`dot_scalar`].
fn matmul_scalar(
    queries: &[f32],
    n_q: usize,
    rows: &[f32],
    n_rows: usize,
    dim: usize,
    out: &mut [f32],
) {
    let mut r0 = 0;
    while r0 < n_rows {
        let r1 = (r0 + ROW_BLOCK).min(n_rows);
        let mut q0 = 0;
        while q0 < n_q {
            let q1 = (q0 + Q_TILE).min(n_q);
            for r in r0..r1 {
                let row = &rows[r * dim..r * dim + dim];
                for q in q0..q1 {
                    out[q * n_rows + r] = dot_scalar(&queries[q * dim..q * dim + dim], row);
                }
            }
            q0 = q1;
        }
        r0 = r1;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 path: the eight scalar lanes live in one 256-bit register.
    //! Multiplies and adds stay separate instructions (`vmulps` +
    //! `vaddps`) — a fused multiply-add would round once where the
    //! scalar kernel rounds twice and break bit-identity.

    use core::arch::x86_64::*;

    use super::{Q_TILE, ROW_BLOCK};

    /// 8-lane AVX2 dot with the scalar kernel's reduction order.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 8;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let va = _mm256_loadu_ps(pa.add(c * 8));
            let vb = _mm256_loadu_ps(pb.add(c * 8));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        let mut tail = 0.0f32;
        for i in chunks * 8..n {
            tail += *pa.add(i) * *pb.add(i);
        }
        reduce(acc) + tail
    }

    /// Spill the register lanes and reduce in the shared tree order.
    #[target_feature(enable = "avx2")]
    unsafe fn reduce(acc: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        super::reduce_lanes(&lanes)
    }

    /// Blocked matmul: row panels stream through a group of up to
    /// [`Q_TILE`] query accumulators, so each panel cache line is read
    /// once per group.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and that `queries`, `rows`,
    /// and `out` cover `n_q × dim`, `n_rows × dim`, and `n_q × n_rows`
    /// elements respectively.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matmul(
        queries: &[f32],
        n_q: usize,
        rows: &[f32],
        n_rows: usize,
        dim: usize,
        out: &mut [f32],
    ) {
        let chunks = dim / 8;
        let mut r0 = 0;
        while r0 < n_rows {
            let r1 = (r0 + ROW_BLOCK).min(n_rows);
            let mut q0 = 0;
            while q0 < n_q {
                let qn = (n_q - q0).min(Q_TILE);
                for r in r0..r1 {
                    let row = rows.as_ptr().add(r * dim);
                    if qn == Q_TILE {
                        quad(queries, q0, row, dim, chunks, &mut out[..], n_rows, r);
                    } else {
                        for q in q0..q0 + qn {
                            let qs =
                                core::slice::from_raw_parts(queries.as_ptr().add(q * dim), dim);
                            let rs = core::slice::from_raw_parts(row, dim);
                            out[q * n_rows + r] = dot(qs, rs);
                        }
                    }
                }
                q0 += qn;
            }
            r0 = r1;
        }
    }

    /// Four query rows against one arena row: the row chunk is loaded
    /// once and multiplied into four independent accumulators.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn quad(
        queries: &[f32],
        q0: usize,
        row: *const f32,
        dim: usize,
        chunks: usize,
        out: &mut [f32],
        n_rows: usize,
        r: usize,
    ) {
        let p0 = queries.as_ptr().add(q0 * dim);
        let p1 = queries.as_ptr().add((q0 + 1) * dim);
        let p2 = queries.as_ptr().add((q0 + 2) * dim);
        let p3 = queries.as_ptr().add((q0 + 3) * dim);
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        for c in 0..chunks {
            let rv = _mm256_loadu_ps(row.add(c * 8));
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_loadu_ps(p0.add(c * 8)), rv));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_loadu_ps(p1.add(c * 8)), rv));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_loadu_ps(p2.add(c * 8)), rv));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_loadu_ps(p3.add(c * 8)), rv));
        }
        let mut tails = [0.0f32; Q_TILE];
        for i in chunks * 8..dim {
            let rx = *row.add(i);
            tails[0] += *p0.add(i) * rx;
            tails[1] += *p1.add(i) * rx;
            tails[2] += *p2.add(i) * rx;
            tails[3] += *p3.add(i) * rx;
        }
        out[q0 * n_rows + r] = reduce(a0) + tails[0];
        out[(q0 + 1) * n_rows + r] = reduce(a1) + tails[1];
        out[(q0 + 2) * n_rows + r] = reduce(a2) + tails[2];
        out[(q0 + 3) * n_rows + r] = reduce(a3) + tails[3];
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON path: the eight scalar lanes live in two 128-bit quads
    //! (lanes 0–3 and 4–7). Separate `fmul`/`fadd` — never `fmla` —
    //! for the same double-rounding as the scalar kernel.

    use core::arch::aarch64::*;

    use super::{Q_TILE, ROW_BLOCK};

    /// 8-lane NEON dot with the scalar kernel's reduction order.
    ///
    /// # Safety
    /// `a.len() == b.len()`. NEON is an aarch64 baseline feature.
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 8;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut lo = vdupq_n_f32(0.0);
        let mut hi = vdupq_n_f32(0.0);
        for c in 0..chunks {
            lo = vaddq_f32(
                lo,
                vmulq_f32(vld1q_f32(pa.add(c * 8)), vld1q_f32(pb.add(c * 8))),
            );
            hi = vaddq_f32(
                hi,
                vmulq_f32(vld1q_f32(pa.add(c * 8 + 4)), vld1q_f32(pb.add(c * 8 + 4))),
            );
        }
        let mut tail = 0.0f32;
        for i in chunks * 8..n {
            tail += *pa.add(i) * *pb.add(i);
        }
        reduce(lo, hi) + tail
    }

    /// Spill both quads and reduce in the shared tree order.
    unsafe fn reduce(lo: float32x4_t, hi: float32x4_t) -> f32 {
        let mut lanes = [0.0f32; 8];
        vst1q_f32(lanes.as_mut_ptr(), lo);
        vst1q_f32(lanes.as_mut_ptr().add(4), hi);
        super::reduce_lanes(&lanes)
    }

    /// Blocked matmul; same structure as the AVX2 path with two-quad
    /// accumulators per query.
    ///
    /// # Safety
    /// `queries`, `rows`, and `out` must cover `n_q × dim`,
    /// `n_rows × dim`, and `n_q × n_rows` elements respectively.
    pub unsafe fn matmul(
        queries: &[f32],
        n_q: usize,
        rows: &[f32],
        n_rows: usize,
        dim: usize,
        out: &mut [f32],
    ) {
        let chunks = dim / 8;
        let mut r0 = 0;
        while r0 < n_rows {
            let r1 = (r0 + ROW_BLOCK).min(n_rows);
            let mut q0 = 0;
            while q0 < n_q {
                let qn = (n_q - q0).min(Q_TILE);
                for r in r0..r1 {
                    let row = rows.as_ptr().add(r * dim);
                    for q in q0..q0 + qn {
                        let pq = queries.as_ptr().add(q * dim);
                        let mut lo = vdupq_n_f32(0.0);
                        let mut hi = vdupq_n_f32(0.0);
                        for c in 0..chunks {
                            lo = vaddq_f32(
                                lo,
                                vmulq_f32(vld1q_f32(pq.add(c * 8)), vld1q_f32(row.add(c * 8))),
                            );
                            hi = vaddq_f32(
                                hi,
                                vmulq_f32(
                                    vld1q_f32(pq.add(c * 8 + 4)),
                                    vld1q_f32(row.add(c * 8 + 4)),
                                ),
                            );
                        }
                        let mut tail = 0.0f32;
                        for i in chunks * 8..dim {
                            tail += *pq.add(i) * *row.add(i);
                        }
                        out[q * n_rows + r] = reduce(lo, hi) + tail;
                    }
                }
                q0 += qn;
            }
            r0 = r1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(seed: u64, n: usize, dim: usize) -> Vec<f32> {
        // deterministic pseudo-random values including exact zeros
        let mut state = seed;
        (0..n * dim)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if i % 97 == 0 {
                    0.0
                } else {
                    ((state >> 40) as f32 / (1u32 << 24) as f32) * 2.0 - 1.0
                }
            })
            .collect()
    }

    #[test]
    fn dispatch_path_is_cached_and_available() {
        let p = dispatch_path();
        assert_eq!(p, dispatch_path());
        assert!(p.is_available());
        assert!(DispatchPath::available().contains(&DispatchPath::Scalar));
    }

    #[test]
    fn all_paths_agree_bitwise_on_dot() {
        for dim in [1, 7, 8, 9, 16, 63, 64, 65, 640] {
            let a = vecs(1, 1, dim);
            let b = vecs(2, 1, dim);
            let want = dot_scalar(&a, &b);
            for path in DispatchPath::available() {
                let got = dot_with_path(path, &a, &b);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "path {} dim {dim}: {got} vs {want}",
                    path.label()
                );
            }
        }
    }

    #[test]
    fn all_paths_agree_bitwise_on_matmul() {
        for (n_q, n_rows, dim) in [
            (1, 1, 64),
            (3, 5, 64),
            (4, 300, 64),
            (17, 131, 24),
            (5, 2, 7),
        ] {
            let q = vecs(3, n_q, dim);
            let rows = vecs(4, n_rows, dim);
            let mut want = vec![0.0f32; n_q * n_rows];
            for qi in 0..n_q {
                for r in 0..n_rows {
                    want[qi * n_rows + r] =
                        dot_scalar(&q[qi * dim..(qi + 1) * dim], &rows[r * dim..(r + 1) * dim]);
                }
            }
            for path in DispatchPath::available() {
                let mut out = vec![0.0f32; n_q * n_rows];
                matmul_tile_with_path(path, &q, n_q, &rows, n_rows, dim, &mut out);
                for (i, (g, w)) in out.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "path {} cell {i}: {g} vs {w}",
                        path.label()
                    );
                }
            }
        }
    }

    #[test]
    fn nan_and_inf_propagate_identically() {
        let dim = 64;
        let mut a = vecs(5, 2, dim);
        a[3] = f32::NAN;
        a[70] = f32::INFINITY;
        let rows = vecs(6, 3, dim);
        let mut want = [0.0f32; 2 * 3];
        for qi in 0..2 {
            for r in 0..3 {
                want[qi * 3 + r] =
                    dot_scalar(&a[qi * dim..(qi + 1) * dim], &rows[r * dim..(r + 1) * dim]);
            }
        }
        for path in DispatchPath::available() {
            let mut out = vec![0.0f32; 2 * 3];
            matmul_tile_with_path(path, &a, 2, &rows, 3, dim, &mut out);
            let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
            let exp: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, exp, "path {}", path.label());
        }
    }

    #[test]
    fn dot_batch_matches_per_row_dot() {
        let dim = 64;
        let q = vecs(7, 6, dim);
        let row = vecs(8, 1, dim);
        let mut out = vec![0.0f32; 6];
        dot_batch(&q, dim, &row, &mut out);
        for (qi, got) in out.iter().enumerate() {
            let want = dot_scalar(&q[qi * dim..(qi + 1) * dim], &row);
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}
