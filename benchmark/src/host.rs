//! Host ceilings, measured by the benchmark itself in the same process
//! as the kernel probes: single-thread FMA peak and STREAM-triad
//! bandwidth at an L2-resident and a DRAM-resident size. They turn
//! "conv3-like is L2-bound" and "batch-1 fc is bandwidth-bound" into
//! rows: every tensor probe is placed against the roof these give.
//!
//! Also the host-speed reference of the end-to-end run (`Reference`):
//! what the two time metrics are divided by.

use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    pub nproc: usize,
    pub fma_peak_gflops_1t: f64,
    pub l2_gbs_1t: f64,
    pub dram_gbs_1t: f64,
    /// Bytes of the three triad arrays at each size, printed so a reader
    /// can check them against the cache sizes.
    pub l2_triad_bytes: usize,
    pub dram_triad_bytes: usize,
    pub llc_bytes: usize,
}

impl Ceilings {
    /// The roofline bound for a kernel doing `flops` on `bytes` of
    /// compulsory traffic (computed from operand sizes, not measured):
    /// the lower of the compute peak and bandwidth times intensity. The
    /// bandwidth is the L2 figure when the operands fit the L2 triad
    /// footprint, the DRAM figure otherwise.
    pub fn roof_gflops(&self, flops: f64, bytes: f64) -> f64 {
        self.fma_peak_gflops_1t
            .min(self.bandwidth_gbs(bytes) * flops / bytes)
    }

    pub fn bandwidth_gbs(&self, bytes: f64) -> f64 {
        if bytes <= self.l2_triad_bytes as f64 {
            self.l2_gbs_1t
        } else {
            self.dram_gbs_1t
        }
    }
}

/// Ten independent 8-lane accumulators: enough chains to cover FMA
/// latency on two ports.
const CHAINS: usize = 10;
const FMA_ITERS: u64 = 1_000_000;
const FMA_TRIALS: usize = 60;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_loop_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::*;
    let mul = _mm256_set1_ps(0.999_999);
    let add = _mm256_set1_ps(1e-7);
    let mut acc = [_mm256_set1_ps(1.0); CHAINS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_ps(*a, mul, add);
        }
    }
    let mut sum = _mm256_setzero_ps();
    for a in acc {
        sum = _mm256_add_ps(sum, a);
    }
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` is 8 f32, exactly one unaligned 256-bit store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
    lanes.iter().sum()
}

/// Portable fallback: the same chains as separate multiply and add.
fn mul_add_loop_scalar(iters: u64) -> f32 {
    let mut acc = [[1.0f32; 8]; CHAINS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            for v in a.iter_mut() {
                *v = *v * 0.999_999 + 1e-7;
            }
        }
    }
    acc.iter().flatten().sum()
}

/// Best of `FMA_TRIALS` single-thread multiply-add rates, GFLOP/s. Many
/// short trials rather than a few long ones: a peak is a best case, and
/// on a shared host only some of the trials land in a quiet moment.
fn fma_peak_gflops() -> f64 {
    let flops = (FMA_ITERS * CHAINS as u64 * 8 * 2) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..FMA_TRIALS {
        let t = Instant::now();
        #[cfg(target_arch = "x86_64")]
        let r = if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: both features were just detected on this CPU.
            unsafe { fma_loop_avx2(black_box(FMA_ITERS)) }
        } else {
            mul_add_loop_scalar(black_box(FMA_ITERS))
        };
        #[cfg(not(target_arch = "x86_64"))]
        let r = mul_add_loop_scalar(black_box(FMA_ITERS));
        black_box(r);
        best = best.min(t.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

/// STREAM triad `a[i] = b[i] + s * c[i]` over three arrays of `n` f32;
/// best of `passes`. Bytes are the three arrays once each (the STREAM
/// convention; write-allocate traffic is not counted).
fn triad_gbs(n: usize, passes: usize) -> f64 {
    let mut a = vec![0.0f32; n];
    let b = vec![1.5f32; n];
    let c = vec![2.5f32; n];
    let s = black_box(3.0f32);
    let mut best = f64::INFINITY;
    // One untimed pass faults the pages in.
    for pass in 0..=passes {
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        black_box(&mut a);
        if pass > 0 {
            best = best.min(t.elapsed().as_secs_f64());
        }
    }
    (3 * n * std::mem::size_of::<f32>()) as f64 / best / 1e9
}

// ------------------------------------------------------- host-speed reference

/// The host-speed reference: four fixed, benchmark-owned micro-kernels
/// timed right before and right after every op of the end-to-end run,
/// one per resource a workload here leans on: the core clock, the FMA
/// ports fed from L1 and L2, L2 bandwidth, L3 bandwidth. The host is a
/// shared VM whose speed sits on different levels for seconds to minutes
/// (README.md, "Why the time metrics are host-normalised"); an op and
/// the readings around it see the same level, so their ratio repeats
/// where the op's wall time does not. None of the kernels calls into the
/// stack, so no change to the program moves a reading.
pub struct Reference {
    gemm: GemmPanel,
    l2: Triad,
    l3: Triad,
}

struct Triad {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    passes: usize,
}

impl Triad {
    fn new(elems: usize, passes: usize) -> Self {
        Self {
            a: vec![0.0; elems],
            b: vec![1.5; elems],
            c: vec![2.5; elems],
            passes,
        }
    }

    fn seconds(&mut self) -> f64 {
        let s = black_box(3.0f32);
        let t = Instant::now();
        for _ in 0..self.passes {
            for ((x, y), z) in self.a.iter_mut().zip(&self.b).zip(&self.c) {
                *x = *y + s * *z;
            }
            black_box(&mut self.a);
        }
        t.elapsed().as_secs_f64()
    }
}

/// Eight dependent multiply-add chains of 16-bit pairs, the int8
/// kernels' `vpmaddwd`. Each chain waits for itself, so the loop runs at
/// the latency of the chain: it follows the core clock and little else.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn madd_loop_avx2(iters: u64) -> i32 {
    use std::arch::x86_64::*;
    let x = _mm256_set1_epi16(3);
    let mut acc = [_mm256_set1_epi32(1); 8];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_add_epi32(*a, _mm256_madd_epi16(*a, x));
        }
    }
    let mut sum = _mm256_setzero_si256();
    for a in acc {
        sum = _mm256_add_epi32(sum, a);
    }
    let mut lanes = [0i32; 8];
    // SAFETY: `lanes` is 8 i32, exactly one unaligned 256-bit store.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), sum) };
    lanes.iter().fold(0, |s, v| s.wrapping_add(*v))
}

/// Portable fallback: the same chains on scalar lanes.
fn madd_loop_scalar(iters: u64) -> i32 {
    let mut acc = [[1i32; 8]; 8];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            for v in a.iter_mut() {
                *v = v.wrapping_add(v.wrapping_mul(3));
            }
        }
    }
    acc.iter().flatten().fold(0, |s, v| s.wrapping_add(*v))
}

fn clock_seconds() -> f64 {
    let t = Instant::now();
    #[cfg(target_arch = "x86_64")]
    let r = if is_x86_feature_detected!("avx2") {
        // SAFETY: the feature was just detected on this CPU.
        unsafe { madd_loop_avx2(black_box(CLOCK_ITERS)) }
    } else {
        madd_loop_scalar(black_box(CLOCK_ITERS))
    };
    #[cfg(not(target_arch = "x86_64"))]
    let r = madd_loop_scalar(black_box(CLOCK_ITERS));
    black_box(r);
    t.elapsed().as_secs_f64()
}

/// The inner kernel of a register-blocked GEMM on fixed operands: a
/// 6 x 16 tile of C accumulated over k = 256 against each of 16 panels
/// of B (256 KiB together: out of L1, inside L2), A broadcast from 6 KiB.
/// Two loads, six broadcasts and twelve FMAs per step: the port mix the
/// stack's conv and fc kernels run, from the benchmark's own code.
struct GemmPanel {
    a: Vec<f32>,
    b: Vec<f32>,
}

const GEMM_MR: usize = 6;
const GEMM_NR: usize = 16;
const GEMM_K: usize = 256;
const GEMM_PANELS: usize = 16;

impl GemmPanel {
    fn new() -> Self {
        Self {
            a: vec![0.5; GEMM_MR * GEMM_K],
            b: vec![0.25; GEMM_PANELS * GEMM_K * GEMM_NR],
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sweep_avx2(&self) -> f32 {
        use std::arch::x86_64::*;
        let mut total = _mm256_setzero_ps();
        for panel in self.b.chunks_exact(GEMM_K * GEMM_NR) {
            let mut c = [[_mm256_setzero_ps(); 2]; GEMM_MR];
            for (bp, ap) in panel
                .chunks_exact(GEMM_NR)
                .zip(self.a.chunks_exact(GEMM_MR))
            {
                // SAFETY: `bp` holds 16 f32, two unaligned 256-bit loads.
                let (b0, b1) = unsafe {
                    (
                        _mm256_loadu_ps(bp.as_ptr()),
                        _mm256_loadu_ps(bp.as_ptr().add(8)),
                    )
                };
                for (row, a) in c.iter_mut().zip(ap) {
                    let a = _mm256_set1_ps(*a);
                    row[0] = _mm256_fmadd_ps(a, b0, row[0]);
                    row[1] = _mm256_fmadd_ps(a, b1, row[1]);
                }
            }
            for row in c {
                total = _mm256_add_ps(total, _mm256_add_ps(row[0], row[1]));
            }
        }
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is 8 f32, exactly one unaligned 256-bit store.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), total) };
        lanes.iter().sum()
    }

    /// Portable fallback: the same tile on scalar lanes.
    fn sweep_scalar(&self) -> f32 {
        let mut total = 0.0f32;
        for panel in self.b.chunks_exact(GEMM_K * GEMM_NR) {
            let mut c = [[0.0f32; GEMM_NR]; GEMM_MR];
            for (bp, ap) in panel
                .chunks_exact(GEMM_NR)
                .zip(self.a.chunks_exact(GEMM_MR))
            {
                for (row, a) in c.iter_mut().zip(ap) {
                    for (v, b) in row.iter_mut().zip(bp) {
                        *v += a * b;
                    }
                }
            }
            total += c.iter().flatten().sum::<f32>();
        }
        total
    }

    fn seconds(&self) -> f64 {
        let t = Instant::now();
        for _ in 0..GEMM_SWEEPS {
            #[cfg(target_arch = "x86_64")]
            let r = if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                // SAFETY: both features were just detected on this CPU.
                unsafe { black_box(self).sweep_avx2() }
            } else {
                black_box(self).sweep_scalar()
            };
            #[cfg(not(target_arch = "x86_64"))]
            let r = black_box(self).sweep_scalar();
            black_box(r);
        }
        t.elapsed().as_secs_f64()
    }
}

const CLOCK_ITERS: u64 = 100_000;
const GEMM_SWEEPS: usize = 32;
/// L2 triad: 3 x 256 KiB, inside a 1 MiB L2 and outside L1, 40 passes.
const REF_L2: (usize, usize) = (64 << 10, 40);
/// L3 triad: 3 x 2 MiB, outside L2 and inside any L3 share, 1 pass.
const REF_L3: (usize, usize) = (512 << 10, 1);
/// Rounds per reading; each kernel's time is its median over the rounds.
const REF_ROUNDS: usize = 3;

/// What each kernel takes on the quiet host this benchmark was written
/// on (2-vCPU Xeon 2.1 GHz, AVX2), seconds: clock chain, GEMM tile, L2
/// triad, L3 triad. A reading is the mean of the four times over these,
/// so 1.0 means that host at its quiet level and 1.3 a host 1.3x slower;
/// a time divided by the readings around it reads as seconds on the
/// quiet host. Only a scale: every bound is relative.
const REF_NOMINAL_S: [f64; 4] = [247e-6, 270e-6, 330e-6, 390e-6];

impl Reference {
    pub fn new() -> Self {
        let mut me = Self {
            gemm: GemmPanel::new(),
            l2: Triad::new(REF_L2.0, REF_L2.1),
            l3: Triad::new(REF_L3.0, REF_L3.1),
        };
        // Fault the pages in.
        me.read();
        me
    }

    /// How much slower than nominal the host is right now (about 4 ms).
    pub fn read(&mut self) -> f64 {
        let rounds: [[f64; 4]; REF_ROUNDS] = std::array::from_fn(|_| {
            [
                clock_seconds(),
                self.gemm.seconds(),
                self.l2.seconds(),
                self.l3.seconds(),
            ]
        });
        let mut slowdown = 0.0;
        for (kernel, nominal) in REF_NOMINAL_S.iter().enumerate() {
            let mut times = rounds.map(|round| round[kernel]);
            times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
            slowdown += times[REF_ROUNDS / 2] / nominal / REF_NOMINAL_S.len() as f64;
        }
        slowdown
    }
}

/// Size of the last-level cache as sysfs reports it, bytes.
fn llc_bytes() -> Option<usize> {
    let mut best = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<usize>().ok().map(|v| v << 10)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<usize>().ok().map(|v| v << 20)
        } else {
            size.parse::<usize>().ok()
        };
        best = best.max(bytes);
    }
    best
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// L2 triad footprint: 1.5 MiB, inside every L2 this repo has run on
/// and well outside L1.
const L2_TRIAD_BYTES: usize = 3 << 19;
/// DRAM triad footprint: four times the last-level cache, clamped so a
/// hypervisor reporting a huge shared L3 cannot ask for all of memory.
const DRAM_TRIAD_MIN: usize = 192 << 20;
const DRAM_TRIAD_MAX: usize = 1200 << 20;

pub fn measure() -> Ceilings {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let dram_bytes = (4 * llc).clamp(DRAM_TRIAD_MIN, DRAM_TRIAD_MAX);
    Ceilings {
        nproc: nproc(),
        fma_peak_gflops_1t: fma_peak_gflops(),
        l2_gbs_1t: triad_gbs(L2_TRIAD_BYTES / 12, 200),
        dram_gbs_1t: triad_gbs(dram_bytes / 12, 3),
        l2_triad_bytes: L2_TRIAD_BYTES,
        dram_triad_bytes: dram_bytes,
        llc_bytes: llc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roof_is_the_lower_of_compute_and_bandwidth() {
        let c = Ceilings {
            nproc: 2,
            fma_peak_gflops_1t: 50.0,
            l2_gbs_1t: 40.0,
            dram_gbs_1t: 10.0,
            l2_triad_bytes: 1 << 20,
            dram_triad_bytes: 1 << 30,
            llc_bytes: 32 << 20,
        };
        // Small and intense: compute-bound.
        assert_eq!(c.roof_gflops(1e9, 1e5), 50.0);
        // Large and streaming (0.5 flop/byte): DRAM-bound, 5 GFLOP/s.
        assert_eq!(c.roof_gflops(1e8, 2e8), 5.0);
        // L2-resident at 0.5 flop/byte: 20 GFLOP/s.
        assert_eq!(c.roof_gflops(1e5, 2e5), 20.0);
    }
}
