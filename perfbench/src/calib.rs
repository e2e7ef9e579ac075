//! Host-speed calibration.
//!
//! The speed of a shared host drifts by up to a half over seconds to
//! minutes as other tenants load it. So a fixed kernel of the
//! benchmark's own runs before every set-up and timed pass and after the
//! last, and the end-to-end times are reported in reference-host
//! seconds: measured seconds over the kernel's median speed index in the
//! run (1 at the reference host's usual speed). Tenants do not slow all
//! code alike: cache-resident arithmetic swings with them by up to 1.7x,
//! small-allocation hashing by about 1.5x, while column walks over a
//! large table barely move. So the kernel times these three parts apart,
//! and each workload's index weighs the parts its own time follows (see
//! [`Mix`]). The program never runs the kernel, so a change to the
//! program moves only the measured seconds.

use std::hint::black_box;
use std::time::Instant;

/// Side of the strided-walk table: 1024 x 1024 f32, 4 MiB, the size of
/// the paper_gemm operands the reference oracle walks by column.
const TABLE: usize = 1024;
/// Side of the dense product.
const N: usize = 96;
/// Slots of the open-addressing table the hashing part fills.
const SLOTS: usize = 8192;
/// Small vectors the hashing part keeps alive at once.
const RING: usize = 64;

/// The usual time of each part on the reference host (Intel Xeon
/// Processor, 2 vCPUs), seconds.
const REFERENCE_FP_S: f64 = 0.0063;
const REFERENCE_HASH_S: f64 = 0.0015;
const REFERENCE_WALK_S: f64 = 0.0060;

/// One kernel run's seconds, part by part.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// A small dense f32 product: cache-resident arithmetic.
    fp: f64,
    /// Small allocations, frees and open-addressing inserts.
    hash: f64,
    /// A column walk over a 4 MiB table: cache and TLB misses.
    walk: f64,
}

/// How much each part weighs in a workload's speed index: the parts
/// whose speed the workload's own time follows. Chosen from runs on the
/// reference host in fast and slow periods, as the mix under which each
/// workload's reported time spread least across runs.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    fp: f64,
    hash: f64,
    walk: f64,
}

impl Mix {
    /// Every workload's set-up: generating operands (random numbers,
    /// allocations, sparse packing) and small reference work, which no
    /// single part follows; equal weights spread least across workloads.
    pub const SET_UP: Self = Self { fp: 1.0 / 3.0, hash: 1.0 / 3.0, walk: 1.0 / 3.0 };

    /// The mix for a workload's timed passes.
    pub fn for_workload(workload: &str) -> Self {
        match workload {
            // The event-driven simulator: arithmetic on small state, hash
            // lookups and small allocations.
            "sim_ladder" => Self { fp: 0.5, hash: 0.5, walk: 0.0 },
            // Mostly the dense reference product's column walks over
            // 4 MiB operands.
            "paper_gemm" => Self { fp: 0.0, hash: 0.0, walk: 1.0 },
            // The lockstep checked path and the systolic baselines:
            // arithmetic over arrays that outgrow the caches.
            _ => Self { fp: 0.5, hash: 0.0, walk: 0.5 },
        }
    }

    /// The sample's time relative to the reference host: 1 at its usual
    /// speed, above 1 when this host runs slower.
    pub fn index(self, s: &Sample) -> f64 {
        self.fp * s.fp / REFERENCE_FP_S
            + self.hash * s.hash / REFERENCE_HASH_S
            + self.walk * s.walk / REFERENCE_WALK_S
    }
}

/// The kernel's buffers, allocated once so that calibrating moves the
/// heap high-water mark by at most the hashing part's `RING` small
/// vectors (under 16 KiB, the same in every run).
#[derive(Debug)]
pub struct Kernel {
    x: Vec<f32>,
    acc: Vec<f32>,
    table: Vec<f32>,
    slots: Vec<u64>,
    ring: Vec<Vec<u32>>,
}

impl Kernel {
    pub fn new() -> Self {
        Self {
            x: (0..N * N).map(|i| (i % 7) as f32 * 0.25).collect(),
            acc: vec![0.0; N * N],
            table: (0..TABLE * TABLE).map(|i| (i % 5) as f32).collect(),
            slots: vec![0; SLOTS],
            ring: vec![Vec::new(); RING],
        }
    }

    /// Heap bytes the kernel holds for the whole run.
    pub fn heap_bytes(&self) -> u64 {
        let floats = self.x.capacity() + self.acc.capacity() + self.table.capacity();
        (floats * std::mem::size_of::<f32>()
            + self.slots.capacity() * std::mem::size_of::<u64>()
            + self.ring.capacity() * std::mem::size_of::<Vec<u32>>()) as u64
    }

    /// Runs the kernel once and returns each part's seconds.
    pub fn run(&mut self) -> Sample {
        let t = Instant::now();
        for _ in 0..4 {
            for i in 0..N {
                for k in 0..N {
                    let a = self.x[i * N + k];
                    for j in 0..N {
                        self.acc[i * N + j] += a * self.x[k * N + j];
                    }
                }
            }
            black_box(&mut self.acc);
        }
        let fp = t.elapsed().as_secs_f64();

        let t = Instant::now();
        for i in 0..40_000u64 {
            // Emptied whenever half full, so probes stay short.
            if i % (SLOTS as u64 / 2) == 0 {
                self.slots.fill(0);
            }
            let key = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut slot = (key % SLOTS as u64) as usize;
            while self.slots[slot] != 0 {
                slot = (slot + 1) % SLOTS;
            }
            self.slots[slot] = key;
            self.ring[i as usize % RING] = (0..(i % 64) as u32).collect();
        }
        black_box(&self.slots);
        let hash = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut sum = 0.0f32;
        for j in 0..TABLE {
            for i in 0..TABLE {
                sum += self.table[i * TABLE + j];
            }
        }
        black_box(sum);
        let walk = t.elapsed().as_secs_f64();
        Sample { fp, hash, walk }
    }
}

/// The median seconds of each part, for the calibration line.
pub fn medians(samples: &[Sample]) -> String {
    let part =
        |f: fn(&Sample) -> f64| crate::report::median(&samples.iter().map(f).collect::<Vec<_>>());
    format!(
        "median fp {:.6} s, hash {:.6} s, walk {:.6} s",
        part(|s| s.fp),
        part(|s| s.hash),
        part(|s| s.walk)
    )
}
