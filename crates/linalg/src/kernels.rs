//! Explicit SIMD micro-kernels with runtime ISA dispatch.
//!
//! The blocked GEMM driver in [`crate::gemm`] and the fused element-wise
//! kernels (AXPY, ReLU backprop, the LISI combine + arg-max sweep) all
//! bottom out in the function pointers collected in a [`KernelSet`].  At
//! startup the best instruction set the host supports is detected once
//! (`is_x86_feature_detected!` / `is_aarch64_feature_detected!`) and cached;
//! every hot-path call reads the cached table through [`active`].
//!
//! Per ISA the GEMM micro-tile shape differs — the register file dictates it:
//!
//! | ISA | `MR × NR` | accumulators | notes |
//! |---|---|---|---|
//! | AVX-512 | 8 × 8 | 8 zmm | one `_mm512_fmadd_pd` per tile row per k-step |
//! | AVX2+FMA | 4 × 8 | 8 ymm | two `_mm256_fmadd_pd` per tile row per k-step |
//! | NEON | 8 × 4 | 16 × `float64x2_t` | `vfmaq_f64`, two vectors per row |
//! | scalar | 4 × 8 | 32 scalars | portable fallback, reference for tests |
//!
//! **Determinism and accuracy.**  Every kernel — scalar and SIMD alike —
//! accumulates each output element in ascending-`k` order, one multiply-add
//! per step, so results are bit-identical across thread counts and tile
//! positions for a *fixed* ISA.  Across ISAs there are two regimes:
//!
//! * the element-wise and streaming-selection kernels (AXPY, ReLU backprop,
//!   LISI combine+argmax, the threshold scans) perform exactly the scalar
//!   kernel's operation sequence with separate multiply and add
//!   instructions — and identical compare predicates / tie-breaks for the
//!   selection kernels — so they are **bit-identical to scalar** on every
//!   host;
//! * the SIMD GEMM micro-kernels use fused multiply-add (`fmadd`), which
//!   skips the intermediate rounding of the scalar kernel's `mul` + `add`.
//!   Each k-step therefore differs from scalar by at most one rounding of
//!   the product term, giving the documented bound
//!   `|simd − scalar| ≤ k · ε · (1 + Σ_p |a_p·b_p|)` with `ε = 2⁻⁵³` (the
//!   `1 +` term absorbs near-subnormal product sums) — in practice ~1 ulp
//!   per accumulation step.  The property tests in
//!   `tests/isa_dispatch.rs` pin every SIMD kernel against the scalar
//!   reference under exactly this bound (and the element-wise kernels under
//!   exact equality).
//!
//! **Forcing an ISA.**  `HTC_FORCE_ISA=scalar|avx2|avx512|neon` pins the
//! dispatch for the whole process (mirroring `HTC_NUM_THREADS`: an
//! unsupported or unparsable value warns once on stderr and falls back to
//! detection).  [`force_isa`] is the programmatic equivalent used by
//! `bench_pipeline --isa` and the dispatch-correctness tests.

// Every intrinsic call below sits in its own `unsafe` block with a safety
// comment; an `unsafe fn` body must never grant blanket permission.
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Largest `MR × NR` product over every kernel table (the AVX-512 8×8 tile);
/// the GEMM driver's stack accumulator is sized by it.
pub const MAX_TILE: usize = 64;

/// Instruction sets the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar kernels (autovectorized by LLVM); always available.
    Scalar,
    /// AVX2 + FMA `f64` kernels (x86-64).
    Avx2,
    /// AVX-512F `f64` kernels (x86-64).
    Avx512,
    /// NEON / ASIMD `f64` kernels (aarch64).
    Neon,
}

impl Isa {
    /// Canonical lower-case name, matching the `HTC_FORCE_ISA` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    /// Parses an `HTC_FORCE_ISA` / `--isa` value.
    pub fn parse(value: &str) -> Option<Isa> {
        match value.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" | "avx-512" => Some(Isa::Avx512),
            "neon" => Some(Isa::Neon),
            _ => None,
        }
    }

    /// True when the running CPU can execute this ISA's kernels.
    pub fn supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
            #[cfg(target_arch = "x86_64")]
            Isa::Neon => false,
            #[cfg(target_arch = "aarch64")]
            Isa::Avx2 | Isa::Avx512 => false,
        }
    }

    fn from_index(i: u8) -> Isa {
        match i {
            0 => Isa::Scalar,
            1 => Isa::Avx2,
            2 => Isa::Avx512,
            _ => Isa::Neon,
        }
    }

    fn index(self) -> u8 {
        match self {
            Isa::Scalar => 0,
            Isa::Avx2 => 1,
            Isa::Avx512 => 2,
            Isa::Neon => 3,
        }
    }
}

/// `MR×NR` GEMM micro-kernel: `acc[i*nr + j] += Σ_p pa[p*mr + i] · pb[p*nr + j]`
/// over `kc` k-steps.  `pa`/`pb` are the zero-padded packed panels produced by
/// `gemm::pack_a` / `gemm::pack_b` for this kernel's tile shape.
pub type GemmKernelFn = fn(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [f64; MAX_TILE]);

/// Fused AXPY: `y[i] += alpha * x[i]` (separate mul + add; bit-identical to
/// the scalar loop).
pub type AxpyFn = fn(alpha: f64, x: &[f64], y: &mut [f64]);

/// Fused ReLU backprop: `dz[i] = if z[i] > 0 { g[i] } else { 0 }`.
pub type ReluBackpropFn = fn(z: &[f64], g: &[f64], dz: &mut [f64]);

/// Fused LISI combine + row arg-max: writes `out[j] = 2·corr[j] − (penalty +
/// hub[j])` (the inner sum rounded first — the scalar operation order) and
/// returns the index of the row maximum (strict `>`, ties towards the lower
/// index — the `ops::argmax` convention).  Returns 0 for an empty row.  The
/// one LISI combine kernel: dense scoring ignores the index.
pub type LisiCombineArgmaxFn =
    fn(corr: &[f64], hub: &[f64], penalty: f64, out: &mut [f64]) -> usize;

/// Vectorized threshold scan with per-element thresholds: appends to
/// `out_idx` (from the front) every index `j` with `values[j] > thresholds[j]`
/// (strict, so NaN values are *not* emitted — matching a scalar `>` loop) and
/// returns the number of emitted indices, in ascending order.  `out_idx` must
/// have room for `values.len()` entries.
pub type ScanGtFn = fn(values: &[f64], thresholds: &[f64], out_idx: &mut [u32]) -> usize;

/// Vectorized threshold scan with one scalar threshold and the predicate
/// `!(values[j] <= threshold)`: every qualifying index is emitted in
/// ascending order and the count returned.  The negated-`<=` predicate means
/// **NaN values are emitted** — deliberately, so a downstream NaN guard (the
/// top-k heap's assert) still fires on data that a strict-`>` gate would
/// silently skip.
pub type ScanAboveFn = fn(values: &[f64], threshold: f64, out_idx: &mut [u32]) -> usize;

/// The kernels selected for one ISA, plus the tile geometry the GEMM driver
/// must pack for.
#[derive(Clone, Copy)]
pub struct KernelSet {
    /// Which ISA these kernels target.
    pub isa: Isa,
    /// GEMM micro-tile rows (the A-panel interleave width).
    pub mr: usize,
    /// GEMM micro-tile columns (the B-panel slab width).
    pub nr: usize,
    /// True when this ISA's GEMM kernel uses fused multiply-add and may
    /// therefore differ from the scalar kernel by the documented ulp bound
    /// (the element-wise kernels are always bit-compatible).
    pub gemm_uses_fma: bool,
    /// The `mr × nr` GEMM micro-kernel.
    pub gemm: GemmKernelFn,
    /// The fused AXPY kernel.
    pub axpy: AxpyFn,
    /// The fused ReLU-backprop kernel.
    pub relu_backprop: ReluBackpropFn,
    /// The fused LISI-combine + arg-max kernel (dense LISI scoring and the
    /// blocked sweep's pass 2).
    pub lisi_combine_argmax: LisiCombineArgmaxFn,
    /// Per-element strict-`>` threshold scan (blocked sweep selection gates).
    pub scan_gt: ScanGtFn,
    /// Scalar-threshold `!(v <= t)` scan (top-k row retention gate).
    pub scan_above: ScanAboveFn,
}

impl std::fmt::Debug for KernelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSet")
            .field("isa", &self.isa)
            .field("mr", &self.mr)
            .field("nr", &self.nr)
            .field("gemm_uses_fma", &self.gemm_uses_fma)
            .finish()
    }
}

/// Returns the kernel table for `isa`, or `None` when the running CPU
/// cannot execute it.
///
/// The support check is what keeps the dispatch sound: the SIMD tables hold
/// safe function pointers whose `#[target_feature]` bodies must never run
/// without their CPU precondition, so unchecked table access is not exposed.
pub fn kernel_set(isa: Isa) -> Option<&'static KernelSet> {
    isa.supported().then(|| table(isa))
}

/// Unchecked table lookup — callers must have verified [`Isa::supported`].
fn table(isa: Isa) -> &'static KernelSet {
    match isa {
        Isa::Scalar => &SCALAR_KERNELS,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => &x86::AVX2_KERNELS,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => &x86::AVX512_KERNELS,
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => &aarch64::NEON_KERNELS,
        #[cfg(target_arch = "x86_64")]
        Isa::Neon => &SCALAR_KERNELS,
        #[cfg(target_arch = "aarch64")]
        Isa::Avx2 | Isa::Avx512 => &SCALAR_KERNELS,
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        _ => &SCALAR_KERNELS,
    }
}

/// Best ISA the host supports, in descending preference order.
fn detect_best() -> Isa {
    for isa in [Isa::Avx512, Isa::Avx2, Isa::Neon] {
        if isa.supported() {
            return isa;
        }
    }
    Isa::Scalar
}

/// Process-wide programmatic override: 0 = none, otherwise `Isa::index + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Default dispatch decision (env override or detection), made once.
static DEFAULT: OnceLock<Isa> = OnceLock::new();

fn default_isa() -> Isa {
    *DEFAULT.get_or_init(|| {
        if let Ok(value) = std::env::var("HTC_FORCE_ISA") {
            match Isa::parse(&value) {
                Some(isa) if isa.supported() => return isa,
                Some(isa) => {
                    eprintln!(
                        "warning: HTC_FORCE_ISA={value:?} requests {} but this CPU does not \
                         support it; using the detected default instead",
                        isa.name()
                    );
                }
                None => {
                    eprintln!(
                        "warning: HTC_FORCE_ISA={value:?} is not an ISA name \
                         (expected scalar|avx2|avx512|neon); using the detected default instead"
                    );
                }
            }
        }
        detect_best()
    })
}

/// The kernel table every hot path dispatches through: the forced ISA if one
/// is active, otherwise the cached default (env override or detection).
#[inline]
pub fn active() -> &'static KernelSet {
    // Both sources are support-checked before they are stored (detection /
    // env validation for the default, `force_isa` for the override).
    match FORCED.load(Ordering::Relaxed) {
        0 => table(default_isa()),
        n => table(Isa::from_index(n - 1)),
    }
}

/// The ISA the dispatcher is currently using.
pub fn active_isa() -> Isa {
    active().isa
}

/// Forces the dispatcher onto `isa` for the whole process (overriding both
/// detection and `HTC_FORCE_ISA`), or returns an error naming the ISA if the
/// host cannot execute it.  Pass `None` to return to the default decision.
pub fn force_isa(isa: Option<Isa>) -> Result<(), String> {
    match isa {
        None => {
            FORCED.store(0, Ordering::Relaxed);
            Ok(())
        }
        Some(isa) if isa.supported() => {
            FORCED.store(isa.index() + 1, Ordering::Relaxed);
            Ok(())
        }
        Some(isa) => Err(format!(
            "this CPU does not support the {} kernels",
            isa.name()
        )),
    }
}

// ---------------------------------------------------------------------------
// Scalar kernels — the portable fallback and the reference every SIMD kernel
// is pinned against.
// ---------------------------------------------------------------------------

/// Scalar tile rows.
const SCALAR_MR: usize = 4;
/// Scalar tile columns.
const SCALAR_NR: usize = 8;

/// `4×8` scalar micro-kernel: 32 independent accumulators that LLVM maps onto
/// vector registers.  Multiply and add are separate (rounded) operations.
fn scalar_gemm(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [f64; MAX_TILE]) {
    debug_assert!(pa.len() >= kc * SCALAR_MR && pb.len() >= kc * SCALAR_NR);
    for p in 0..kc {
        let a = &pa[p * SCALAR_MR..p * SCALAR_MR + SCALAR_MR];
        let b = &pb[p * SCALAR_NR..p * SCALAR_NR + SCALAR_NR];
        for (i, acc_row) in acc[..SCALAR_MR * SCALAR_NR]
            .chunks_exact_mut(SCALAR_NR)
            .enumerate()
        {
            let av = a[i];
            for (c, &bv) in acc_row.iter_mut().zip(b) {
                *c += av * bv;
            }
        }
    }
}

/// Scalar AXPY (chunked so LLVM has a clean unroll target).
fn scalar_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy operands must have equal lengths");
    const W: usize = 8;
    let mut yc = y.chunks_exact_mut(W);
    let mut xc = x.chunks_exact(W);
    for (yb, xb) in yc.by_ref().zip(xc.by_ref()) {
        for (yv, &xv) in yb.iter_mut().zip(xb) {
            *yv += alpha * xv;
        }
    }
    for (yv, &xv) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yv += alpha * xv;
    }
}

/// Scalar ReLU backprop.
fn scalar_relu_backprop(z: &[f64], g: &[f64], dz: &mut [f64]) {
    assert!(z.len() == g.len() && g.len() == dz.len());
    for ((d, &zv), &gv) in dz.iter_mut().zip(z).zip(g) {
        *d = if zv > 0.0 { gv } else { 0.0 };
    }
}

/// Scalar LISI combine + arg-max: the reference operation sequence — combine
/// each element (scalar order), track the running maximum with strict `>` in
/// ascending index order (lower index wins ties).
fn scalar_lisi_combine_argmax(corr: &[f64], hub: &[f64], penalty: f64, out: &mut [f64]) -> usize {
    assert!(corr.len() == hub.len() && hub.len() == out.len());
    let mut best_val = f64::NEG_INFINITY;
    let mut best_idx = 0usize;
    for (j, ((o, &c), &h)) in out.iter_mut().zip(corr).zip(hub).enumerate() {
        let v = 2.0 * c - (penalty + h);
        *o = v;
        if v > best_val {
            best_val = v;
            best_idx = j;
        }
    }
    best_idx
}

/// Scalar per-element strict-`>` threshold scan.
fn scalar_scan_gt(values: &[f64], thresholds: &[f64], out_idx: &mut [u32]) -> usize {
    assert!(values.len() == thresholds.len() && out_idx.len() >= values.len());
    debug_assert!(values.len() <= u32::MAX as usize);
    let mut count = 0;
    for (j, (&v, &t)) in values.iter().zip(thresholds).enumerate() {
        if v > t {
            out_idx[count] = j as u32;
            count += 1;
        }
    }
    count
}

/// Scalar `!(v <= t)` scan (emits NaNs; see [`ScanAboveFn`]).
// The negated comparison is the point: `!(v <= t)` is true for NaN where
// `v > t` is not, and the NaN must reach the caller's push path.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn scalar_scan_above(values: &[f64], threshold: f64, out_idx: &mut [u32]) -> usize {
    assert!(out_idx.len() >= values.len());
    debug_assert!(values.len() <= u32::MAX as usize);
    let mut count = 0;
    for (j, &v) in values.iter().enumerate() {
        if !(v <= threshold) {
            out_idx[count] = j as u32;
            count += 1;
        }
    }
    count
}

static SCALAR_KERNELS: KernelSet = KernelSet {
    isa: Isa::Scalar,
    mr: SCALAR_MR,
    nr: SCALAR_NR,
    gemm_uses_fma: false,
    gemm: scalar_gemm,
    axpy: scalar_axpy,
    relu_backprop: scalar_relu_backprop,
    lisi_combine_argmax: scalar_lisi_combine_argmax,
    scan_gt: scalar_scan_gt,
    scan_above: scalar_scan_above,
};

// ---------------------------------------------------------------------------
// x86-64 kernels: AVX-512F (8×8) and AVX2+FMA (4×8).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Isa, KernelSet, MAX_TILE};
    use std::arch::x86_64::*;

    pub(super) static AVX512_KERNELS: KernelSet = KernelSet {
        isa: Isa::Avx512,
        mr: 8,
        nr: 8,
        gemm_uses_fma: true,
        gemm: avx512_gemm,
        axpy: avx512_axpy,
        relu_backprop: avx512_relu_backprop,
        lisi_combine_argmax: avx512_lisi_combine_argmax,
        scan_gt: avx512_scan_gt,
        scan_above: avx512_scan_above,
    };

    pub(super) static AVX2_KERNELS: KernelSet = KernelSet {
        isa: Isa::Avx2,
        mr: 4,
        nr: 8,
        gemm_uses_fma: true,
        gemm: avx2_gemm,
        axpy: avx2_axpy,
        relu_backprop: avx2_relu_backprop,
        lisi_combine_argmax: avx2_lisi_combine_argmax,
        scan_gt: avx2_scan_gt,
        scan_above: avx2_scan_above,
    };

    // -- AVX-512 ------------------------------------------------------------

    /// Safe dispatch shim.  The dispatcher only hands out `AVX512_KERNELS`
    /// when `Isa::Avx512.supported()` reported true, which is exactly the
    /// `#[target_feature]` precondition of the inner kernel.
    fn avx512_gemm(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [f64; MAX_TILE]) {
        debug_assert!(pa.len() >= kc * 8 && pb.len() >= kc * 8);
        // SAFETY: avx512f was detected at dispatch time (see shim doc).
        unsafe { avx512_gemm_inner(kc, pa, pb, acc) }
    }

    /// `8×8` micro-kernel: eight zmm accumulators, one `_mm512_fmadd_pd` per
    /// tile row per k-step.
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_gemm_inner(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [f64; MAX_TILE]) {
        // SAFETY: `acc` is 64 contiguous doubles; rows i·8..i·8+8 are in
        // bounds for i < 8, and unaligned loads/stores carry no alignment
        // requirement.
        unsafe {
            let mut c0 = _mm512_loadu_pd(acc.as_ptr());
            let mut c1 = _mm512_loadu_pd(acc.as_ptr().add(8));
            let mut c2 = _mm512_loadu_pd(acc.as_ptr().add(16));
            let mut c3 = _mm512_loadu_pd(acc.as_ptr().add(24));
            let mut c4 = _mm512_loadu_pd(acc.as_ptr().add(32));
            let mut c5 = _mm512_loadu_pd(acc.as_ptr().add(40));
            let mut c6 = _mm512_loadu_pd(acc.as_ptr().add(48));
            let mut c7 = _mm512_loadu_pd(acc.as_ptr().add(56));
            let mut ap = pa.as_ptr();
            let mut bp = pb.as_ptr();
            // SAFETY: the caller guarantees pa.len() ≥ kc·8 and
            // pb.len() ≥ kc·8, so each iteration reads one full 8-wide row
            // of both panels strictly inside their buffers.
            for _ in 0..kc {
                let b = _mm512_loadu_pd(bp);
                c0 = _mm512_fmadd_pd(_mm512_set1_pd(*ap), b, c0);
                c1 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(1)), b, c1);
                c2 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(2)), b, c2);
                c3 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(3)), b, c3);
                c4 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(4)), b, c4);
                c5 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(5)), b, c5);
                c6 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(6)), b, c6);
                c7 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(7)), b, c7);
                ap = ap.add(8);
                bp = bp.add(8);
            }
            _mm512_storeu_pd(acc.as_mut_ptr(), c0);
            _mm512_storeu_pd(acc.as_mut_ptr().add(8), c1);
            _mm512_storeu_pd(acc.as_mut_ptr().add(16), c2);
            _mm512_storeu_pd(acc.as_mut_ptr().add(24), c3);
            _mm512_storeu_pd(acc.as_mut_ptr().add(32), c4);
            _mm512_storeu_pd(acc.as_mut_ptr().add(40), c5);
            _mm512_storeu_pd(acc.as_mut_ptr().add(48), c6);
            _mm512_storeu_pd(acc.as_mut_ptr().add(56), c7);
        }
    }

    fn avx512_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy operands must have equal lengths");
        // SAFETY: avx512f was detected at dispatch time.
        unsafe { avx512_axpy_inner(alpha, x, y) }
    }

    /// AXPY with separate mul + add (no FMA) so every lane performs exactly
    /// the scalar `y += alpha * x` rounding sequence — bit-identical output.
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_axpy_inner(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let lanes = n - n % 8;
        // SAFETY: the vector loop covers indices < lanes ≤ n on two
        // equal-length slices; unaligned intrinsics have no alignment needs.
        unsafe {
            let va = _mm512_set1_pd(alpha);
            let mut i = 0;
            while i < lanes {
                let xv = _mm512_loadu_pd(x.as_ptr().add(i));
                let yv = _mm512_loadu_pd(y.as_ptr().add(i));
                let sum = _mm512_add_pd(yv, _mm512_mul_pd(va, xv));
                _mm512_storeu_pd(y.as_mut_ptr().add(i), sum);
                i += 8;
            }
        }
        for (yv, &xv) in y[lanes..].iter_mut().zip(&x[lanes..]) {
            *yv += alpha * xv;
        }
    }

    fn avx512_relu_backprop(z: &[f64], g: &[f64], dz: &mut [f64]) {
        assert!(z.len() == g.len() && g.len() == dz.len());
        // SAFETY: avx512f was detected at dispatch time.
        unsafe { avx512_relu_backprop_inner(z, g, dz) }
    }

    /// `dz = g` where `z > 0`, else 0 — a masked move, no arithmetic, so the
    /// result is bit-identical to scalar by construction.
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_relu_backprop_inner(z: &[f64], g: &[f64], dz: &mut [f64]) {
        let n = z.len();
        let lanes = n - n % 8;
        // SAFETY: all three slices have length n; the loop stays below lanes.
        unsafe {
            let zero = _mm512_setzero_pd();
            let mut i = 0;
            while i < lanes {
                let zv = _mm512_loadu_pd(z.as_ptr().add(i));
                let gv = _mm512_loadu_pd(g.as_ptr().add(i));
                let mask = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(zv, zero);
                _mm512_storeu_pd(dz.as_mut_ptr().add(i), _mm512_maskz_mov_pd(mask, gv));
                i += 8;
            }
        }
        for ((d, &zv), &gv) in dz[lanes..].iter_mut().zip(&z[lanes..]).zip(&g[lanes..]) {
            *d = if zv > 0.0 { gv } else { 0.0 };
        }
    }

    fn avx512_lisi_combine_argmax(
        corr: &[f64],
        hub: &[f64],
        penalty: f64,
        out: &mut [f64],
    ) -> usize {
        assert!(corr.len() == hub.len() && hub.len() == out.len());
        // SAFETY: avx512f was detected at dispatch time.
        unsafe { avx512_lisi_combine_argmax_inner(corr, hub, penalty, out) }
    }

    /// Combine (scalar operation order — bit-identical values) fused with a
    /// lane-parallel running max.  Each lane tracks the first index achieving
    /// its own maximum (strict `>` keeps the earliest); the horizontal reduce
    /// then picks the lowest index among the lanes holding the global max,
    /// which is exactly the first occurrence — the scalar arg-max.
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_lisi_combine_argmax_inner(
        corr: &[f64],
        hub: &[f64],
        penalty: f64,
        out: &mut [f64],
    ) -> usize {
        let n = corr.len();
        let lanes = n - n % 8;
        let mut best_val = f64::NEG_INFINITY;
        let mut best_idx = 0usize;
        // SAFETY: all three slices have length n; the loop stays below lanes.
        unsafe {
            let two = _mm512_set1_pd(2.0);
            let pen = _mm512_set1_pd(penalty);
            let mut vmax = _mm512_set1_pd(f64::NEG_INFINITY);
            let mut vidx = _mm512_setzero_si512();
            let mut cur = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
            let step = _mm512_set1_epi64(8);
            let mut i = 0;
            while i < lanes {
                let cv = _mm512_loadu_pd(corr.as_ptr().add(i));
                let hv = _mm512_loadu_pd(hub.as_ptr().add(i));
                let v = _mm512_sub_pd(_mm512_mul_pd(two, cv), _mm512_add_pd(pen, hv));
                _mm512_storeu_pd(out.as_mut_ptr().add(i), v);
                let gt = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(v, vmax);
                vmax = _mm512_mask_mov_pd(vmax, gt, v);
                vidx = _mm512_mask_mov_epi64(vidx, gt, cur);
                cur = _mm512_add_epi64(cur, step);
                i += 8;
            }
            if lanes > 0 {
                let mut vals = [0.0f64; 8];
                let mut idxs = [0i64; 8];
                _mm512_storeu_pd(vals.as_mut_ptr(), vmax);
                _mm512_storeu_si512(idxs.as_mut_ptr().cast(), vidx);
                for (&v, &ix) in vals.iter().zip(&idxs) {
                    let ix = ix as usize;
                    if v > best_val || (v == best_val && ix < best_idx) {
                        best_val = v;
                        best_idx = ix;
                    }
                }
            }
        }
        for j in lanes..n {
            let v = 2.0 * corr[j] - (penalty + hub[j]);
            out[j] = v;
            if v > best_val {
                best_val = v;
                best_idx = j;
            }
        }
        best_idx
    }

    fn avx512_scan_gt(values: &[f64], thresholds: &[f64], out_idx: &mut [u32]) -> usize {
        assert!(values.len() == thresholds.len() && out_idx.len() >= values.len());
        assert!(values.len() <= u32::MAX as usize, "scan indices are u32");
        // SAFETY: avx512f was detected at dispatch time.
        unsafe { avx512_scan_gt_inner(values, thresholds, out_idx) }
    }

    /// Two 8-double compares per iteration feed one 16-lane epi32 compress:
    /// qualifying indices are packed to the lane front and stored as a block.
    /// The full 16-lane store is unconditional — lanes beyond the compressed
    /// count hold junk that the next store (or the returned count) masks out.
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_scan_gt_inner(
        values: &[f64],
        thresholds: &[f64],
        out_idx: &mut [u32],
    ) -> usize {
        let n = values.len();
        let lanes = n - n % 16;
        let mut count = 0usize;
        // SAFETY: count ≤ i at the top of each iteration (at most one index is
        // emitted per element scanned), so the 16-lane store at
        // out_idx[count..count + 16] stays within out_idx.len() ≥ n ≥ i + 16.
        unsafe {
            let mut cur = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            let step = _mm512_set1_epi32(16);
            let mut i = 0;
            while i < lanes {
                let v0 = _mm512_loadu_pd(values.as_ptr().add(i));
                let t0 = _mm512_loadu_pd(thresholds.as_ptr().add(i));
                let v1 = _mm512_loadu_pd(values.as_ptr().add(i + 8));
                let t1 = _mm512_loadu_pd(thresholds.as_ptr().add(i + 8));
                let m0 = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(v0, t0);
                let m1 = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(v1, t1);
                let mask = (m0 as u16) | ((m1 as u16) << 8);
                let packed = _mm512_maskz_compress_epi32(mask, cur);
                _mm512_storeu_si512(out_idx.as_mut_ptr().add(count).cast(), packed);
                count += mask.count_ones() as usize;
                cur = _mm512_add_epi32(cur, step);
                i += 16;
            }
        }
        for j in lanes..n {
            if values[j] > thresholds[j] {
                out_idx[count] = j as u32;
                count += 1;
            }
        }
        count
    }

    fn avx512_scan_above(values: &[f64], threshold: f64, out_idx: &mut [u32]) -> usize {
        assert!(out_idx.len() >= values.len());
        assert!(values.len() <= u32::MAX as usize, "scan indices are u32");
        // SAFETY: avx512f was detected at dispatch time.
        unsafe { avx512_scan_above_inner(values, threshold, out_idx) }
    }

    /// Same compress pattern as [`avx512_scan_gt_inner`] but with the
    /// `_CMP_NLE_UQ` predicate — `!(v <= t)` — so NaN lanes are emitted.
    // The scalar tail mirrors the vector predicate exactly: `!(v <= t)`
    // must stay negated so NaN survives, and the index loop keeps it
    // symmetrical with the compress-store above.
    #[allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_scan_above_inner(
        values: &[f64],
        threshold: f64,
        out_idx: &mut [u32],
    ) -> usize {
        let n = values.len();
        let lanes = n - n % 16;
        let mut count = 0usize;
        // SAFETY: see `avx512_scan_gt_inner` — identical bounds argument.
        unsafe {
            let t = _mm512_set1_pd(threshold);
            let mut cur = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            let step = _mm512_set1_epi32(16);
            let mut i = 0;
            while i < lanes {
                let v0 = _mm512_loadu_pd(values.as_ptr().add(i));
                let v1 = _mm512_loadu_pd(values.as_ptr().add(i + 8));
                let m0 = _mm512_cmp_pd_mask::<_CMP_NLE_UQ>(v0, t);
                let m1 = _mm512_cmp_pd_mask::<_CMP_NLE_UQ>(v1, t);
                let mask = (m0 as u16) | ((m1 as u16) << 8);
                let packed = _mm512_maskz_compress_epi32(mask, cur);
                _mm512_storeu_si512(out_idx.as_mut_ptr().add(count).cast(), packed);
                count += mask.count_ones() as usize;
                cur = _mm512_add_epi32(cur, step);
                i += 16;
            }
        }
        for j in lanes..n {
            if !(values[j] <= threshold) {
                out_idx[count] = j as u32;
                count += 1;
            }
        }
        count
    }

    // -- AVX2 + FMA ---------------------------------------------------------

    fn avx2_gemm(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [f64; MAX_TILE]) {
        debug_assert!(pa.len() >= kc * 4 && pb.len() >= kc * 8);
        // SAFETY: avx2+fma were detected at dispatch time.
        unsafe { avx2_gemm_inner(kc, pa, pb, acc) }
    }

    /// `4×8` micro-kernel: eight ymm accumulators (two per tile row), two
    /// `_mm256_fmadd_pd` per row per k-step.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn avx2_gemm_inner(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [f64; MAX_TILE]) {
        // SAFETY: `acc` is 64 contiguous doubles; the kernel touches the
        // first 32 (4 rows × 8 columns), in-bounds for every access below.
        unsafe {
            let mut c00 = _mm256_loadu_pd(acc.as_ptr());
            let mut c01 = _mm256_loadu_pd(acc.as_ptr().add(4));
            let mut c10 = _mm256_loadu_pd(acc.as_ptr().add(8));
            let mut c11 = _mm256_loadu_pd(acc.as_ptr().add(12));
            let mut c20 = _mm256_loadu_pd(acc.as_ptr().add(16));
            let mut c21 = _mm256_loadu_pd(acc.as_ptr().add(20));
            let mut c30 = _mm256_loadu_pd(acc.as_ptr().add(24));
            let mut c31 = _mm256_loadu_pd(acc.as_ptr().add(28));
            let mut ap = pa.as_ptr();
            let mut bp = pb.as_ptr();
            // SAFETY: the caller guarantees pa.len() ≥ kc·4 and
            // pb.len() ≥ kc·8, so each iteration's reads are in-bounds.
            for _ in 0..kc {
                let b0 = _mm256_loadu_pd(bp);
                let b1 = _mm256_loadu_pd(bp.add(4));
                let a0 = _mm256_set1_pd(*ap);
                c00 = _mm256_fmadd_pd(a0, b0, c00);
                c01 = _mm256_fmadd_pd(a0, b1, c01);
                let a1 = _mm256_set1_pd(*ap.add(1));
                c10 = _mm256_fmadd_pd(a1, b0, c10);
                c11 = _mm256_fmadd_pd(a1, b1, c11);
                let a2 = _mm256_set1_pd(*ap.add(2));
                c20 = _mm256_fmadd_pd(a2, b0, c20);
                c21 = _mm256_fmadd_pd(a2, b1, c21);
                let a3 = _mm256_set1_pd(*ap.add(3));
                c30 = _mm256_fmadd_pd(a3, b0, c30);
                c31 = _mm256_fmadd_pd(a3, b1, c31);
                ap = ap.add(4);
                bp = bp.add(8);
            }
            _mm256_storeu_pd(acc.as_mut_ptr(), c00);
            _mm256_storeu_pd(acc.as_mut_ptr().add(4), c01);
            _mm256_storeu_pd(acc.as_mut_ptr().add(8), c10);
            _mm256_storeu_pd(acc.as_mut_ptr().add(12), c11);
            _mm256_storeu_pd(acc.as_mut_ptr().add(16), c20);
            _mm256_storeu_pd(acc.as_mut_ptr().add(20), c21);
            _mm256_storeu_pd(acc.as_mut_ptr().add(24), c30);
            _mm256_storeu_pd(acc.as_mut_ptr().add(28), c31);
        }
    }

    fn avx2_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy operands must have equal lengths");
        // SAFETY: avx2+fma were detected at dispatch time.
        unsafe { avx2_axpy_inner(alpha, x, y) }
    }

    /// See [`avx512_axpy_inner`]: separate mul + add keeps bit-identity.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn avx2_axpy_inner(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let lanes = n - n % 4;
        // SAFETY: the vector loop covers indices < lanes ≤ n on two
        // equal-length slices.
        unsafe {
            let va = _mm256_set1_pd(alpha);
            let mut i = 0;
            while i < lanes {
                let xv = _mm256_loadu_pd(x.as_ptr().add(i));
                let yv = _mm256_loadu_pd(y.as_ptr().add(i));
                let sum = _mm256_add_pd(yv, _mm256_mul_pd(va, xv));
                _mm256_storeu_pd(y.as_mut_ptr().add(i), sum);
                i += 4;
            }
        }
        for (yv, &xv) in y[lanes..].iter_mut().zip(&x[lanes..]) {
            *yv += alpha * xv;
        }
    }

    fn avx2_relu_backprop(z: &[f64], g: &[f64], dz: &mut [f64]) {
        assert!(z.len() == g.len() && g.len() == dz.len());
        // SAFETY: avx2+fma were detected at dispatch time.
        unsafe { avx2_relu_backprop_inner(z, g, dz) }
    }

    /// Masked select via compare + and: no arithmetic, bit-identical.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn avx2_relu_backprop_inner(z: &[f64], g: &[f64], dz: &mut [f64]) {
        let n = z.len();
        let lanes = n - n % 4;
        // SAFETY: all three slices have length n; the loop stays below lanes.
        unsafe {
            let zero = _mm256_setzero_pd();
            let mut i = 0;
            while i < lanes {
                let zv = _mm256_loadu_pd(z.as_ptr().add(i));
                let gv = _mm256_loadu_pd(g.as_ptr().add(i));
                let mask = _mm256_cmp_pd::<_CMP_GT_OQ>(zv, zero);
                _mm256_storeu_pd(dz.as_mut_ptr().add(i), _mm256_and_pd(mask, gv));
                i += 4;
            }
        }
        for ((d, &zv), &gv) in dz[lanes..].iter_mut().zip(&z[lanes..]).zip(&g[lanes..]) {
            *d = if zv > 0.0 { gv } else { 0.0 };
        }
    }

    fn avx2_lisi_combine_argmax(corr: &[f64], hub: &[f64], penalty: f64, out: &mut [f64]) -> usize {
        assert!(corr.len() == hub.len() && hub.len() == out.len());
        // SAFETY: avx2+fma were detected at dispatch time.
        unsafe { avx2_lisi_combine_argmax_inner(corr, hub, penalty, out) }
    }

    /// See [`avx512_lisi_combine_argmax_inner`]: lane-parallel running max
    /// with per-lane first-occurrence indices, reduced towards the lowest
    /// index among equal lane maxima.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn avx2_lisi_combine_argmax_inner(
        corr: &[f64],
        hub: &[f64],
        penalty: f64,
        out: &mut [f64],
    ) -> usize {
        let n = corr.len();
        let lanes = n - n % 4;
        let mut best_val = f64::NEG_INFINITY;
        let mut best_idx = 0usize;
        // SAFETY: all three slices have length n; the loop stays below lanes.
        unsafe {
            let two = _mm256_set1_pd(2.0);
            let pen = _mm256_set1_pd(penalty);
            let mut vmax = _mm256_set1_pd(f64::NEG_INFINITY);
            let mut vidx = _mm256_setzero_si256();
            let mut cur = _mm256_setr_epi64x(0, 1, 2, 3);
            let step = _mm256_set1_epi64x(4);
            let mut i = 0;
            while i < lanes {
                let cv = _mm256_loadu_pd(corr.as_ptr().add(i));
                let hv = _mm256_loadu_pd(hub.as_ptr().add(i));
                let v = _mm256_sub_pd(_mm256_mul_pd(two, cv), _mm256_add_pd(pen, hv));
                _mm256_storeu_pd(out.as_mut_ptr().add(i), v);
                let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(v, vmax);
                vmax = _mm256_blendv_pd(vmax, v, gt);
                vidx = _mm256_castpd_si256(_mm256_blendv_pd(
                    _mm256_castsi256_pd(vidx),
                    _mm256_castsi256_pd(cur),
                    gt,
                ));
                cur = _mm256_add_epi64(cur, step);
                i += 4;
            }
            if lanes > 0 {
                let mut vals = [0.0f64; 4];
                let mut idxs = [0i64; 4];
                _mm256_storeu_pd(vals.as_mut_ptr(), vmax);
                _mm256_storeu_si256(idxs.as_mut_ptr().cast(), vidx);
                for (&v, &ix) in vals.iter().zip(&idxs) {
                    let ix = ix as usize;
                    if v > best_val || (v == best_val && ix < best_idx) {
                        best_val = v;
                        best_idx = ix;
                    }
                }
            }
        }
        for j in lanes..n {
            let v = 2.0 * corr[j] - (penalty + hub[j]);
            out[j] = v;
            if v > best_val {
                best_val = v;
                best_idx = j;
            }
        }
        best_idx
    }

    fn avx2_scan_gt(values: &[f64], thresholds: &[f64], out_idx: &mut [u32]) -> usize {
        assert!(values.len() == thresholds.len() && out_idx.len() >= values.len());
        assert!(values.len() <= u32::MAX as usize, "scan indices are u32");
        // SAFETY: avx2+fma were detected at dispatch time.
        unsafe { avx2_scan_gt_inner(values, thresholds, out_idx) }
    }

    /// Compare + movemask + trailing-zeros bit loop: the common no-hit case is
    /// one compare and one branch per 4 elements.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn avx2_scan_gt_inner(values: &[f64], thresholds: &[f64], out_idx: &mut [u32]) -> usize {
        let n = values.len();
        let lanes = n - n % 4;
        let mut count = 0usize;
        // SAFETY: the vector loop reads 4-wide below lanes ≤ n on two
        // equal-length slices; emitted indices go through checked slice stores.
        unsafe {
            let mut i = 0;
            while i < lanes {
                let v = _mm256_loadu_pd(values.as_ptr().add(i));
                let t = _mm256_loadu_pd(thresholds.as_ptr().add(i));
                let mut bits = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(v, t)) as u32;
                while bits != 0 {
                    out_idx[count] = (i + bits.trailing_zeros() as usize) as u32;
                    count += 1;
                    bits &= bits - 1;
                }
                i += 4;
            }
        }
        for j in lanes..n {
            if values[j] > thresholds[j] {
                out_idx[count] = j as u32;
                count += 1;
            }
        }
        count
    }

    fn avx2_scan_above(values: &[f64], threshold: f64, out_idx: &mut [u32]) -> usize {
        assert!(out_idx.len() >= values.len());
        assert!(values.len() <= u32::MAX as usize, "scan indices are u32");
        // SAFETY: avx2+fma were detected at dispatch time.
        unsafe { avx2_scan_above_inner(values, threshold, out_idx) }
    }

    /// See [`avx2_scan_gt_inner`], with `_CMP_NLE_UQ` (`!(v <= t)`) so NaN
    /// lanes are emitted.
    // See `avx512_scan_above_inner` for why the tail predicate stays
    // negated and index-based.
    #[allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn avx2_scan_above_inner(values: &[f64], threshold: f64, out_idx: &mut [u32]) -> usize {
        let n = values.len();
        let lanes = n - n % 4;
        let mut count = 0usize;
        // SAFETY: the vector loop reads 4-wide below lanes ≤ n.
        unsafe {
            let t = _mm256_set1_pd(threshold);
            let mut i = 0;
            while i < lanes {
                let v = _mm256_loadu_pd(values.as_ptr().add(i));
                let mut bits = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NLE_UQ>(v, t)) as u32;
                while bits != 0 {
                    out_idx[count] = (i + bits.trailing_zeros() as usize) as u32;
                    count += 1;
                    bits &= bits - 1;
                }
                i += 4;
            }
        }
        for j in lanes..n {
            if !(values[j] <= threshold) {
                out_idx[count] = j as u32;
                count += 1;
            }
        }
        count
    }
}

// ---------------------------------------------------------------------------
// aarch64 kernels: NEON/ASIMD (8×4).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod aarch64 {
    use super::{Isa, KernelSet, MAX_TILE};
    use std::arch::aarch64::*;

    pub(super) static NEON_KERNELS: KernelSet = KernelSet {
        isa: Isa::Neon,
        mr: 8,
        nr: 4,
        gemm_uses_fma: true,
        gemm: neon_gemm,
        axpy: neon_axpy,
        relu_backprop: neon_relu_backprop,
        lisi_combine_argmax: neon_lisi_combine_argmax,
        scan_gt: neon_scan_gt,
        scan_above: neon_scan_above,
    };

    fn neon_gemm(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [f64; MAX_TILE]) {
        debug_assert!(pa.len() >= kc * 8 && pb.len() >= kc * 4);
        // SAFETY: neon was detected at dispatch time.
        unsafe { neon_gemm_inner(kc, pa, pb, acc) }
    }

    /// `8×4` micro-kernel: sixteen 2-lane accumulators (two per tile row),
    /// `vfmaq_f64` per half-row per k-step.
    #[target_feature(enable = "neon")]
    unsafe fn neon_gemm_inner(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [f64; MAX_TILE]) {
        // SAFETY: `acc` is 64 contiguous doubles; the kernel touches the
        // first 32 (8 rows × 4 columns); all pointer offsets stay in-bounds
        // per the caller's pa.len() ≥ kc·8 / pb.len() ≥ kc·4 contract.
        unsafe {
            let mut c: [float64x2_t; 16] = [vdupq_n_f64(0.0); 16];
            for (i, slot) in c.iter_mut().enumerate() {
                *slot = vld1q_f64(acc.as_ptr().add(i * 2));
            }
            let mut ap = pa.as_ptr();
            let mut bp = pb.as_ptr();
            for _ in 0..kc {
                let b0 = vld1q_f64(bp);
                let b1 = vld1q_f64(bp.add(2));
                for i in 0..8 {
                    let a = vdupq_n_f64(*ap.add(i));
                    c[i * 2] = vfmaq_f64(c[i * 2], a, b0);
                    c[i * 2 + 1] = vfmaq_f64(c[i * 2 + 1], a, b1);
                }
                ap = ap.add(8);
                bp = bp.add(4);
            }
            for (i, slot) in c.iter().enumerate() {
                vst1q_f64(acc.as_mut_ptr().add(i * 2), *slot);
            }
        }
    }

    fn neon_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy operands must have equal lengths");
        // SAFETY: neon was detected at dispatch time.
        unsafe { neon_axpy_inner(alpha, x, y) }
    }

    /// Separate mul + add keeps bit-identity with the scalar loop.
    #[target_feature(enable = "neon")]
    unsafe fn neon_axpy_inner(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let lanes = n - n % 2;
        // SAFETY: the vector loop covers indices < lanes ≤ n on two
        // equal-length slices.
        unsafe {
            let va = vdupq_n_f64(alpha);
            let mut i = 0;
            while i < lanes {
                let xv = vld1q_f64(x.as_ptr().add(i));
                let yv = vld1q_f64(y.as_ptr().add(i));
                vst1q_f64(y.as_mut_ptr().add(i), vaddq_f64(yv, vmulq_f64(va, xv)));
                i += 2;
            }
        }
        for (yv, &xv) in y[lanes..].iter_mut().zip(&x[lanes..]) {
            *yv += alpha * xv;
        }
    }

    fn neon_relu_backprop(z: &[f64], g: &[f64], dz: &mut [f64]) {
        assert!(z.len() == g.len() && g.len() == dz.len());
        // SAFETY: neon was detected at dispatch time.
        unsafe { neon_relu_backprop_inner(z, g, dz) }
    }

    /// Compare + bit-and select: no arithmetic, bit-identical.
    #[target_feature(enable = "neon")]
    unsafe fn neon_relu_backprop_inner(z: &[f64], g: &[f64], dz: &mut [f64]) {
        let n = z.len();
        let lanes = n - n % 2;
        // SAFETY: all three slices have length n; the loop stays below lanes.
        unsafe {
            let zero = vdupq_n_f64(0.0);
            let mut i = 0;
            while i < lanes {
                let zv = vld1q_f64(z.as_ptr().add(i));
                let gv = vld1q_f64(g.as_ptr().add(i));
                let mask = vcgtq_f64(zv, zero);
                let sel = vandq_u64(mask, vreinterpretq_u64_f64(gv));
                vst1q_f64(dz.as_mut_ptr().add(i), vreinterpretq_f64_u64(sel));
                i += 2;
            }
        }
        for ((d, &zv), &gv) in dz[lanes..].iter_mut().zip(&z[lanes..]).zip(&g[lanes..]) {
            *d = if zv > 0.0 { gv } else { 0.0 };
        }
    }

    fn neon_lisi_combine_argmax(corr: &[f64], hub: &[f64], penalty: f64, out: &mut [f64]) -> usize {
        assert!(corr.len() == hub.len() && hub.len() == out.len());
        // SAFETY: neon was detected at dispatch time.
        unsafe { neon_lisi_combine_argmax_inner(corr, hub, penalty, out) }
    }

    /// Two-lane running max with per-lane first-occurrence indices, reduced
    /// towards the lowest index among equal lane maxima (the scalar arg-max).
    #[target_feature(enable = "neon")]
    unsafe fn neon_lisi_combine_argmax_inner(
        corr: &[f64],
        hub: &[f64],
        penalty: f64,
        out: &mut [f64],
    ) -> usize {
        let n = corr.len();
        let lanes = n - n % 2;
        let mut best_val = f64::NEG_INFINITY;
        let mut best_idx = 0usize;
        // SAFETY: all three slices have length n; the loop stays below lanes.
        unsafe {
            let two = vdupq_n_f64(2.0);
            let pen = vdupq_n_f64(penalty);
            let mut vmax = vdupq_n_f64(f64::NEG_INFINITY);
            let mut vidx = vdupq_n_u64(0);
            let mut cur = vcombine_u64(vdup_n_u64(0), vdup_n_u64(1));
            let step = vdupq_n_u64(2);
            let mut i = 0;
            while i < lanes {
                let cv = vld1q_f64(corr.as_ptr().add(i));
                let hv = vld1q_f64(hub.as_ptr().add(i));
                let v = vsubq_f64(vmulq_f64(two, cv), vaddq_f64(pen, hv));
                vst1q_f64(out.as_mut_ptr().add(i), v);
                let gt = vcgtq_f64(v, vmax);
                vmax = vbslq_f64(gt, v, vmax);
                vidx = vbslq_u64(gt, cur, vidx);
                cur = vaddq_u64(cur, step);
                i += 2;
            }
            if lanes > 0 {
                let vals = [vgetq_lane_f64::<0>(vmax), vgetq_lane_f64::<1>(vmax)];
                let idxs = [vgetq_lane_u64::<0>(vidx), vgetq_lane_u64::<1>(vidx)];
                for (&v, &ix) in vals.iter().zip(&idxs) {
                    let ix = ix as usize;
                    if v > best_val || (v == best_val && ix < best_idx) {
                        best_val = v;
                        best_idx = ix;
                    }
                }
            }
        }
        for j in lanes..n {
            let v = 2.0 * corr[j] - (penalty + hub[j]);
            out[j] = v;
            if v > best_val {
                best_val = v;
                best_idx = j;
            }
        }
        best_idx
    }

    fn neon_scan_gt(values: &[f64], thresholds: &[f64], out_idx: &mut [u32]) -> usize {
        assert!(values.len() == thresholds.len() && out_idx.len() >= values.len());
        assert!(values.len() <= u32::MAX as usize, "scan indices are u32");
        // SAFETY: neon was detected at dispatch time.
        unsafe { neon_scan_gt_inner(values, thresholds, out_idx) }
    }

    /// Two-lane compare + per-lane emit.
    #[target_feature(enable = "neon")]
    unsafe fn neon_scan_gt_inner(values: &[f64], thresholds: &[f64], out_idx: &mut [u32]) -> usize {
        let n = values.len();
        let lanes = n - n % 2;
        let mut count = 0usize;
        // SAFETY: the vector loop reads 2-wide below lanes ≤ n on two
        // equal-length slices; emitted indices go through checked slice stores.
        unsafe {
            let mut i = 0;
            while i < lanes {
                let v = vld1q_f64(values.as_ptr().add(i));
                let t = vld1q_f64(thresholds.as_ptr().add(i));
                let gt = vcgtq_f64(v, t);
                if vgetq_lane_u64::<0>(gt) != 0 {
                    out_idx[count] = i as u32;
                    count += 1;
                }
                if vgetq_lane_u64::<1>(gt) != 0 {
                    out_idx[count] = (i + 1) as u32;
                    count += 1;
                }
                i += 2;
            }
        }
        for j in lanes..n {
            if values[j] > thresholds[j] {
                out_idx[count] = j as u32;
                count += 1;
            }
        }
        count
    }

    fn neon_scan_above(values: &[f64], threshold: f64, out_idx: &mut [u32]) -> usize {
        assert!(out_idx.len() >= values.len());
        assert!(values.len() <= u32::MAX as usize, "scan indices are u32");
        // SAFETY: neon was detected at dispatch time.
        unsafe { neon_scan_above_inner(values, threshold, out_idx) }
    }

    /// `!(v <= t)` via an inverted `vcleq` mask — a NaN lane compares false
    /// on `<=`, so its zero mask bit emits the index (see [`ScanAboveFn`]).
    // See `avx512_scan_above_inner` for why the tail predicate stays
    // negated and index-based.
    #[allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]
    #[target_feature(enable = "neon")]
    unsafe fn neon_scan_above_inner(values: &[f64], threshold: f64, out_idx: &mut [u32]) -> usize {
        let n = values.len();
        let lanes = n - n % 2;
        let mut count = 0usize;
        // SAFETY: the vector loop reads 2-wide below lanes ≤ n.
        unsafe {
            let t = vdupq_n_f64(threshold);
            let mut i = 0;
            while i < lanes {
                let v = vld1q_f64(values.as_ptr().add(i));
                let le = vcleq_f64(v, t);
                if vgetq_lane_u64::<0>(le) == 0 {
                    out_idx[count] = i as u32;
                    count += 1;
                }
                if vgetq_lane_u64::<1>(le) == 0 {
                    out_idx[count] = (i + 1) as u32;
                    count += 1;
                }
                i += 2;
            }
        }
        for j in lanes..n {
            if !(values[j] <= threshold) {
                out_idx[count] = j as u32;
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (((i * 37 + seed * 101) % 59) as f64 - 29.0) * 0.125)
            .collect()
    }

    /// All ISAs the host can actually run (scalar always; SIMD when detected).
    fn runnable_isas() -> Vec<Isa> {
        [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon]
            .into_iter()
            .filter(|isa| isa.supported())
            .collect()
    }

    #[test]
    fn isa_names_round_trip() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon] {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
            assert_eq!(Isa::parse(&isa.name().to_uppercase()), Some(isa));
        }
        assert_eq!(Isa::parse("avx-512"), Some(Isa::Avx512));
        assert_eq!(Isa::parse("sse9"), None);
        assert_eq!(Isa::parse(""), None);
    }

    #[test]
    fn scalar_is_always_supported_and_active_is_runnable() {
        assert!(Isa::Scalar.supported());
        assert!(active_isa().supported());
        assert_eq!(kernel_set(Isa::Scalar).unwrap().isa, Isa::Scalar);
        let active_set = kernel_set(active_isa()).unwrap();
        assert!(active_set.mr * active_set.nr <= MAX_TILE);
    }

    #[test]
    fn forcing_an_unsupported_isa_errs_and_changes_nothing() {
        let unsupported = [Isa::Avx2, Isa::Avx512, Isa::Neon]
            .into_iter()
            .find(|isa| !isa.supported());
        if let Some(isa) = unsupported {
            let before = active_isa();
            assert!(force_isa(Some(isa)).is_err());
            assert_eq!(active_isa(), before);
        }
    }

    /// Every runnable SIMD GEMM kernel vs the scalar kernel on its own packed
    /// layout, over ragged kc values.  FMA kernels are held to the documented
    /// per-step ulp bound; non-FMA kernels to exact equality.
    #[test]
    fn gemm_kernels_match_scalar_reference() {
        for isa in runnable_isas() {
            let ks = kernel_set(isa).expect("runnable_isas() only yields supported ISAs");
            for kc in [0usize, 1, 2, 3, 7, 64, 255] {
                let pa = pseudo(1 + kc, kc.max(1) * ks.mr);
                let pb = pseudo(2 + kc, kc.max(1) * ks.nr);
                let mut acc = [0.0f64; MAX_TILE];
                (ks.gemm)(kc, &pa, &pb, &mut acc);
                // Scalar reference on the same packed layout.
                let mut expected = [0.0f64; MAX_TILE];
                let mut slack = [0.0f64; MAX_TILE];
                for p in 0..kc {
                    for i in 0..ks.mr {
                        for j in 0..ks.nr {
                            let term = pa[p * ks.mr + i] * pb[p * ks.nr + j];
                            expected[i * ks.nr + j] += term;
                            slack[i * ks.nr + j] += term.abs();
                        }
                    }
                }
                for idx in 0..ks.mr * ks.nr {
                    let bound = if ks.gemm_uses_fma {
                        kc as f64 * f64::EPSILON * (1.0 + slack[idx])
                    } else {
                        0.0
                    };
                    assert!(
                        (acc[idx] - expected[idx]).abs() <= bound,
                        "{isa:?} kc={kc} idx={idx}: {} vs {}",
                        acc[idx],
                        expected[idx]
                    );
                }
            }
        }
    }

    /// The element-wise kernels must be bit-identical to scalar on every ISA.
    #[test]
    fn elementwise_kernels_are_bit_identical_to_scalar() {
        for isa in runnable_isas() {
            let ks = kernel_set(isa).expect("runnable_isas() only yields supported ISAs");
            for n in [0usize, 1, 3, 8, 15, 64, 1000, 1003] {
                let x = pseudo(3, n);
                let z = pseudo(4, n);
                let g = pseudo(5, n);

                let mut y_simd = pseudo(7, n);
                let mut y_ref = y_simd.clone();
                (ks.axpy)(0.37, &x, &mut y_simd);
                scalar_axpy(0.37, &x, &mut y_ref);
                assert_eq!(y_simd, y_ref, "{isa:?} axpy n={n}");

                let mut dz_simd = vec![0.0; n];
                let mut dz_ref = vec![0.0; n];
                (ks.relu_backprop)(&z, &g, &mut dz_simd);
                scalar_relu_backprop(&z, &g, &mut dz_ref);
                assert_eq!(dz_simd, dz_ref, "{isa:?} relu_backprop n={n}");
            }
        }
    }

    /// The streaming-selection kernels (combine+argmax, threshold scans) must
    /// reproduce the scalar kernels exactly: same values, same arg-max index
    /// (the `pseudo` data is full of exact ties), same emitted index lists.
    #[test]
    fn selection_kernels_are_bit_identical_to_scalar() {
        for isa in runnable_isas() {
            let ks = kernel_set(isa).expect("runnable_isas() only yields supported ISAs");
            for n in [0usize, 1, 2, 3, 7, 8, 15, 16, 31, 64, 1000, 1003] {
                let corr = pseudo(8, n);
                let hub = pseudo(9, n);
                let thresholds = pseudo(10, n);

                let mut out_simd = vec![0.0; n];
                let mut out_ref = vec![0.0; n];
                let best_simd = (ks.lisi_combine_argmax)(&corr, &hub, 0.375, &mut out_simd);
                let best_ref = scalar_lisi_combine_argmax(&corr, &hub, 0.375, &mut out_ref);
                assert_eq!(out_simd, out_ref, "{isa:?} combine_argmax values n={n}");
                assert_eq!(best_simd, best_ref, "{isa:?} combine_argmax index n={n}");

                let mut idx_simd = vec![0u32; n];
                let mut idx_ref = vec![0u32; n];
                let c_simd = (ks.scan_gt)(&corr, &thresholds, &mut idx_simd);
                let c_ref = scalar_scan_gt(&corr, &thresholds, &mut idx_ref);
                assert_eq!(c_simd, c_ref, "{isa:?} scan_gt count n={n}");
                assert_eq!(
                    &idx_simd[..c_simd],
                    &idx_ref[..c_ref],
                    "{isa:?} scan_gt n={n}"
                );

                for t in [f64::NEG_INFINITY, -1.0, 0.125, f64::INFINITY] {
                    let c_simd = (ks.scan_above)(&corr, t, &mut idx_simd);
                    let c_ref = scalar_scan_above(&corr, t, &mut idx_ref);
                    assert_eq!(c_simd, c_ref, "{isa:?} scan_above count n={n} t={t}");
                    assert_eq!(
                        &idx_simd[..c_simd],
                        &idx_ref[..c_ref],
                        "{isa:?} scan_above n={n} t={t}"
                    );
                }
            }
        }
    }

    /// An all-equal row must arg-max to index 0 on every ISA (lower-index
    /// tie-break across lane boundaries).
    #[test]
    fn combine_argmax_breaks_ties_towards_lower_index() {
        for isa in runnable_isas() {
            let ks = kernel_set(isa).expect("runnable_isas() only yields supported ISAs");
            for n in [1usize, 5, 8, 17, 33] {
                let corr = vec![0.25; n];
                let hub = vec![0.0; n];
                let mut out = vec![0.0; n];
                assert_eq!(
                    (ks.lisi_combine_argmax)(&corr, &hub, 0.0, &mut out),
                    0,
                    "{isa:?} n={n}"
                );
            }
        }
    }

    /// `scan_above` must emit NaN values — its consumer's NaN guard (the
    /// top-k heap assert) relies on them surfacing rather than being skipped.
    #[test]
    fn scan_above_emits_nan_candidates_on_every_isa() {
        for isa in runnable_isas() {
            let ks = kernel_set(isa).expect("runnable_isas() only yields supported ISAs");
            let mut values = pseudo(11, 37);
            values[5] = f64::NAN;
            values[20] = f64::NAN;
            values[36] = f64::NAN;
            let mut idx = vec![0u32; values.len()];
            // Nothing finite beats +inf, but every NaN must be surfaced.
            let count = (ks.scan_above)(&values, f64::INFINITY, &mut idx);
            assert_eq!(&idx[..count], &[5, 20, 36], "{isa:?}");
        }
    }

    #[test]
    fn axpy_rejects_mismatched_lengths() {
        for isa in runnable_isas() {
            let ks = kernel_set(isa).expect("runnable_isas() only yields supported ISAs");
            let x = [1.0, 2.0];
            let mut y = [0.0; 3];
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (ks.axpy)(1.0, &x, &mut y)
            }));
            assert!(err.is_err(), "{isa:?} axpy must reject ragged operands");
        }
    }
}
