//! FAN — the Forwarding Adder Network (Sec. IV-A-2, Fig. 6 of the paper).
//!
//! FAN is SIGMA's novel reduction topology: a binary adder tree laid out
//! *in order* (adder `i` sits between multiplier outputs `i` and `i+1`)
//! and augmented with forwarding links between adder levels, so that
//! several *variable-sized, non-power-of-two* dot products can reduce
//! concurrently and correctly — something a plain binary adder tree cannot
//! do (partials of different dot products would collide on the way up).
//!
//! ## Topology
//!
//! For `N` multipliers there are `N − 1` adders, `adderID ∈ 0..N-1`. The
//! level of adder `i` is the number of trailing ones of `i`
//! ([`Fan::adder_level`]): even adders are level 0 and combine adjacent
//! multiplier pairs; adder `4k+1` is level 1; the single top adder
//! `N/2 − 1` is level `log₂N − 1`. Each adder at level `L` additionally
//! owns forwarding links to adders `i ± 2^(l−1)` for every `l ∈ 1..=L`
//! (the paper's pseudocode) — these, plus an N-to-2 mux in front of each
//! adder from level 2 upward, let partial sums *bypass* adders belonging
//! to other dot products.
//!
//! ## Routing (Fig. 6c)
//!
//! Every multiplier output carries a `vecID` naming the dot product
//! (cluster) it belongs to; clusters occupy contiguous multiplier ranges.
//! Adder `i` accumulates iff `vecID[i] == vecID[i+1]`; a level-0 adder
//! with unequal vecIDs bypasses both values upward. A segment spanning
//! leaves `a..=b` therefore performs its adds at exactly the adders
//! `a..b`, and completes one cycle after its highest-level adder fires:
//! `completion = max(level(i) for i in a..b) + 1` cycles. The wave
//! pipeline advances one adder level per cycle, so the full-array latency
//! is `log₂N` cycles and a new reduction wave can be issued every cycle.
//!
//! [`Fan::reduce`] executes this faithfully on real `f32` data — same add
//! order, same adder activations, same per-segment completion times.

use crate::{is_power_of_two, log2_ceil};
use std::error::Error;
use std::fmt;

/// Errors from FAN construction and reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FanError {
    /// The network size is not a power of two (or is < 2).
    NotPowerOfTwo(usize),
    /// Input slices do not match the network size.
    SizeMismatch {
        /// Network size.
        expected: usize,
        /// Slice length provided.
        actual: usize,
    },
    /// A `vecID` appeared in two non-adjacent runs: clusters must occupy
    /// contiguous multiplier ranges.
    NonContiguousSegments(u32),
}

impl fmt::Display for FanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FanError::NotPowerOfTwo(n) => {
                write!(f, "fan size must be a power of two >= 2, got {n}")
            }
            FanError::SizeMismatch { expected, actual } => {
                write!(f, "input length {actual} does not match fan size {expected}")
            }
            FanError::NonContiguousSegments(id) => {
                write!(f, "vecID {id} occupies non-contiguous multiplier ranges")
            }
        }
    }
}

impl Error for FanError {}

/// One completed dot-product sum emerging from the FAN.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentSum {
    /// The cluster (dot product) identifier.
    pub vec_id: u32,
    /// The reduced value.
    pub value: f32,
    /// Inclusive range of multiplier (leaf) indices the cluster occupied.
    pub leaf_range: (usize, usize),
    /// Cycles after wave issue at which this sum is available. A
    /// single-multiplier cluster bypasses every adder (0 cycles); a
    /// cluster whose highest enabled adder is at level `L` completes at
    /// `L + 1`. 64-bit like every other cycle counter, so downstream
    /// accumulation never narrows.
    pub completion_cycles: u64,
}

/// Result of pushing one wave of multiplier outputs through the FAN.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FanReduction {
    /// One sum per cluster, in left-to-right leaf order.
    pub sums: Vec<SegmentSum>,
    /// Number of floating-point additions performed (adder activations).
    pub adds_performed: usize,
    /// Completion time of the slowest cluster in this wave, in cycles.
    pub critical_cycles: u64,
}

/// Reusable working state for [`Fan::reduce_into`].
///
/// The interval list, per-leaf completion table, and contiguity set are
/// cleared (not dropped) between waves, so a warmed scratch makes the
/// reduction allocation-free in steady state — the property the
/// simulator's streaming hot loop relies on.
#[derive(Debug, Clone, Default)]
pub struct FanScratch {
    /// Active `(leaf_start, leaf_end_inclusive, partial)` intervals.
    intervals: Vec<(usize, usize, f32)>,
    /// Completion cycle of the cluster starting at each leaf
    /// (`u64::MAX` = not yet complete).
    completion: Vec<u64>,
    /// One vecID per run, sorted for the contiguity check; a Vec (not a
    /// hash set) keeps the hot loop allocation-free after warmup and
    /// independent of per-process hasher state.
    seen: Vec<u32>,
}

/// A Forwarding Adder Network over `N` multiplier outputs.
///
/// ```
/// use sigma_interconnect::Fan;
/// let fan = Fan::new(8)?;
/// // Three clusters: |a a a|b b|c c c| — sizes 3, 2, 3.
/// let values = [1.0, 2.0, 3.0, 10.0, 20.0, 100.0, 200.0, 300.0];
/// let ids = [0, 0, 0, 1, 1, 2, 2, 2].map(Some);
/// let red = fan.reduce(&values, &ids)?;
/// assert_eq!(red.sums.len(), 3);
/// assert_eq!(red.sums[0].value, 6.0);
/// assert_eq!(red.sums[1].value, 30.0);
/// assert_eq!(red.sums[2].value, 600.0);
/// assert_eq!(red.adds_performed, 5); // (3-1) + (2-1) + (3-1)
/// # Ok::<(), sigma_interconnect::FanError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fan {
    size: usize,
}

impl Fan {
    /// Creates a FAN over `size` multiplier outputs.
    ///
    /// # Errors
    ///
    /// Returns [`FanError::NotPowerOfTwo`] unless `size` is a power of two
    /// and at least 2.
    pub fn new(size: usize) -> Result<Self, FanError> {
        if !is_power_of_two(size) || size < 2 {
            return Err(FanError::NotPowerOfTwo(size));
        }
        Ok(Self { size })
    }

    /// Creates a FAN, rounding `size` up to the next power of two
    /// (minimum 2) instead of failing. For static tables whose shapes
    /// are known-good by construction; prefer [`Fan::new`] when invalid
    /// input should be reported.
    #[must_use]
    pub fn new_clamped(size: usize) -> Self {
        Self { size: size.max(2).next_power_of_two() }
    }

    /// Number of multiplier (leaf) inputs.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of adders: `N − 1`.
    #[must_use]
    pub fn adder_count(&self) -> usize {
        self.size - 1
    }

    /// Number of adder levels: `log₂N`.
    #[must_use]
    pub fn level_count(&self) -> u32 {
        log2_ceil(self.size)
    }

    /// Pipeline latency of a full-width reduction wave: `log₂N` cycles.
    #[must_use]
    pub fn latency_cycles(&self) -> u64 {
        u64::from(self.level_count())
    }

    /// The level of adder `id`: the number of trailing ones in its binary
    /// representation (adder `i` sits between leaves `i` and `i+1`).
    ///
    /// # Panics
    ///
    /// Panics if `id >= adder_count()`.
    #[inline]
    #[must_use]
    pub fn adder_level(&self, id: usize) -> u32 {
        assert!(id < self.adder_count(), "adder id {id} out of range");
        (id as u64).trailing_ones()
    }

    /// Total directed forwarding links in the topology, per the paper's
    /// pseudocode: adder `i` at level `L` links to `i ± 2^(l−1)` for
    /// `l ∈ 1..=L`, clipped to existing adders. Level-`L` links are the
    /// natural binary-tree child links; the rest are FAN's additions.
    #[must_use]
    pub fn forwarding_link_count(&self) -> usize {
        let n_adders = self.adder_count();
        let mut links = 0usize;
        for i in 0..n_adders {
            let level = self.adder_level(i);
            for lvl in 1..=level {
                let off = 1usize << (lvl - 1);
                if i >= off {
                    links += 1;
                }
                if i + off < n_adders {
                    links += 1;
                }
            }
        }
        links
    }

    /// Count of the 2-input muxes in front of adders from level 2 upward
    /// (the "N-to-2 mux" cost of Fig. 6's overhead discussion).
    #[must_use]
    pub fn mux_count(&self) -> usize {
        (0..self.adder_count()).filter(|&i| self.adder_level(i) >= 2).count() * 2
    }

    /// Pushes one wave of multiplier outputs through the network.
    ///
    /// `values[i]` is multiplier `i`'s product; `vec_ids[i]` names the
    /// cluster it belongs to, or `None` for an idle multiplier. Clusters
    /// must occupy contiguous leaf ranges (SIGMA's controller always maps
    /// them that way).
    ///
    /// The returned [`FanReduction`] contains each cluster's sum, computed
    /// with the hardware's exact association order (adders fire level by
    /// level), plus activation and timing counts.
    ///
    /// # Errors
    ///
    /// * [`FanError::SizeMismatch`] if slice lengths differ from `size`.
    /// * [`FanError::NonContiguousSegments`] if a `vecID` appears in two
    ///   separate runs.
    pub fn reduce(
        &self,
        values: &[f32],
        vec_ids: &[Option<u32>],
    ) -> Result<FanReduction, FanError> {
        let mut scratch = FanScratch::default();
        let mut out = FanReduction::default();
        self.reduce_into(values, vec_ids, &[], &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`Fan::reduce`], optionally with persistent
    /// stuck-at defects on selected adders: every activation of a faulted
    /// adder has the corresponding output bit latched (see
    /// [`crate::fault::AdderFault`]); adders whose ids never activate
    /// (because no cluster spans them) corrupt nothing. The wave's sums
    /// are written into `out` (cleared first) and all working state lives
    /// in `scratch`, so a warmed `(scratch, out)` pair performs zero heap
    /// allocations per wave. With an empty `faults` slice the results are
    /// byte-identical to [`Fan::reduce`] — same add order, same activation
    /// counts, same completion times.
    ///
    /// # Errors
    ///
    /// Same as [`Fan::reduce`]; on error `out` holds an empty reduction.
    pub fn reduce_into(
        &self,
        values: &[f32],
        vec_ids: &[Option<u32>],
        faults: &[crate::fault::AdderFault],
        scratch: &mut FanScratch,
        out: &mut FanReduction,
    ) -> Result<(), FanError> {
        out.sums.clear();
        out.adds_performed = 0;
        out.critical_cycles = 0;
        if values.len() != self.size {
            return Err(FanError::SizeMismatch { expected: self.size, actual: values.len() });
        }
        if vec_ids.len() != self.size {
            return Err(FanError::SizeMismatch { expected: self.size, actual: vec_ids.len() });
        }
        // Contiguity check: every vecID forms a single run. Collect one
        // id per run, sort, and look for duplicates.
        scratch.seen.clear();
        let mut prev: Option<u32> = None;
        for id in vec_ids.iter() {
            if let Some(cur) = *id {
                if prev != Some(cur) {
                    scratch.seen.push(cur);
                }
            }
            prev = *id;
        }
        scratch.seen.sort_unstable();
        if let Some(dup) = scratch.seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(FanError::NonContiguousSegments(dup[0]));
        }

        // Active intervals: (leaf_start, leaf_end_inclusive, partial value).
        // Level-by-level merging reproduces the hardware's add order.
        let intervals = &mut scratch.intervals;
        intervals.clear();
        // Completion cycle by leaf start; u64::MAX marks "still reducing".
        scratch.completion.resize(self.size, u64::MAX);
        scratch.completion.fill(u64::MAX);
        for (i, id) in vec_ids.iter().enumerate() {
            if id.is_some() {
                intervals.push((i, i, values[i]));
                // Single-leaf clusters complete immediately (pure bypass).
                let left_same = i > 0 && vec_ids[i - 1] == *id;
                let right_same = i + 1 < self.size && vec_ids[i + 1] == *id;
                if !left_same && !right_same {
                    scratch.completion[i] = 0;
                }
            }
        }
        let mut adds = 0usize;
        let levels = self.level_count();

        for lvl in 0..levels {
            // Adders at this level whose flanking leaves share a cluster.
            let mut i = 0;
            while i + 1 < intervals.len() {
                let (s0, e0, v0) = intervals[i];
                let (s1, e1, v1) = intervals[i + 1];
                let adjacent = e0 + 1 == s1;
                let same_cluster = adjacent && vec_ids[e0] == vec_ids[s1];
                let adder_id = e0; // adder between leaves e0 and e0+1
                if same_cluster && self.adder_level(adder_id) == lvl {
                    let mut sum = v0 + v1;
                    if !faults.is_empty() {
                        for fault in faults.iter().filter(|f| f.adder == adder_id) {
                            sum = fault.corrupt(sum);
                        }
                    }
                    intervals[i] = (s0, e1, sum);
                    intervals.remove(i + 1);
                    adds += 1;
                    // If the merged interval now covers its whole cluster,
                    // it completes one cycle after this level fires.
                    let whole = (s0 == 0 || vec_ids[s0 - 1] != vec_ids[s0])
                        && (e1 + 1 == self.size || vec_ids[e1 + 1] != vec_ids[e1]);
                    if whole {
                        scratch.completion[s0] = u64::from(lvl) + 1;
                    }
                    // Re-examine the same position: the merged interval may
                    // merge again with the next one at this level.
                    continue;
                }
                i += 1;
            }
        }

        out.sums.reserve(intervals.len());
        let mut critical = 0u64;
        for &(s, e, v) in intervals.iter() {
            let cycles = scratch.completion[s];
            debug_assert_ne!(cycles, u64::MAX, "every cluster completes within log2(N) levels");
            critical = critical.max(cycles);
            // Intervals are seeded from active leaves, so `vec_ids[s]` is
            // always Some; skip (debug-asserting) rather than panic.
            let Some(vec_id) = vec_ids[s] else {
                debug_assert!(false, "interval starts at an active leaf");
                continue;
            };
            out.sums.push(SegmentSum {
                vec_id,
                value: v,
                leaf_range: (s, e),
                completion_cycles: cycles,
            });
        }
        out.adds_performed = adds;
        out.critical_cycles = critical;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(spec: &[i64]) -> Vec<Option<u32>> {
        spec.iter().map(|&x| if x < 0 { None } else { Some(x as u32) }).collect()
    }

    #[test]
    fn size_validation() {
        assert!(Fan::new(2).is_ok());
        assert!(Fan::new(128).is_ok());
        assert_eq!(Fan::new(0), Err(FanError::NotPowerOfTwo(0)));
        assert_eq!(Fan::new(6), Err(FanError::NotPowerOfTwo(6)));
    }

    #[test]
    fn adder_levels_match_paper_layout() {
        let fan = Fan::new(32).unwrap();
        // Level 0 adders are the even ones; top adder is 15 at level 4.
        assert_eq!(fan.adder_level(0), 0);
        assert_eq!(fan.adder_level(2), 0);
        assert_eq!(fan.adder_level(1), 1);
        assert_eq!(fan.adder_level(5), 1);
        assert_eq!(fan.adder_level(3), 2);
        assert_eq!(fan.adder_level(7), 3);
        assert_eq!(fan.adder_level(15), 4);
        assert_eq!(fan.adder_count(), 31);
        assert_eq!(fan.level_count(), 5);
    }

    #[test]
    fn single_full_reduction() {
        let fan = Fan::new(8).unwrap();
        let values: Vec<f32> = (1..=8).map(|x| x as f32).collect();
        let v = ids(&[0, 0, 0, 0, 0, 0, 0, 0]);
        let r = fan.reduce(&values, &v).unwrap();
        assert_eq!(r.sums.len(), 1);
        assert_eq!(r.sums[0].value, 36.0);
        assert_eq!(r.adds_performed, 7);
        assert_eq!(r.critical_cycles, 3); // log2(8)
        assert_eq!(r.sums[0].leaf_range, (0, 7));
    }

    #[test]
    fn non_power_of_two_segments() {
        // The paper's motivating example: (a0 a1 a2 | b0 b1 | c0 c1 c2).
        let fan = Fan::new(8).unwrap();
        let values = [1.0, 1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 4.0];
        let v = ids(&[0, 0, 0, 1, 1, 2, 2, 2]);
        let r = fan.reduce(&values, &v).unwrap();
        let sums: Vec<f32> = r.sums.iter().map(|s| s.value).collect();
        assert_eq!(sums, vec![3.0, 4.0, 12.0]);
        assert_eq!(r.adds_performed, 2 + 1 + 2);
    }

    #[test]
    fn singleton_segments_bypass() {
        let fan = Fan::new(4).unwrap();
        let values = [5.0, 6.0, 7.0, 8.0];
        let v = ids(&[0, 1, 2, 3]);
        let r = fan.reduce(&values, &v).unwrap();
        assert_eq!(r.adds_performed, 0);
        assert_eq!(r.critical_cycles, 0);
        assert_eq!(r.sums.len(), 4);
        for (i, s) in r.sums.iter().enumerate() {
            assert_eq!(s.value, values[i]);
            assert_eq!(s.completion_cycles, 0);
        }
    }

    #[test]
    fn idle_leaves_are_skipped() {
        let fan = Fan::new(8).unwrap();
        let values = [1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.0];
        let v = ids(&[0, 0, -1, -1, 1, 1, -1, -1]);
        let r = fan.reduce(&values, &v).unwrap();
        assert_eq!(r.sums.len(), 2);
        assert_eq!(r.sums[0].value, 3.0);
        assert_eq!(r.sums[1].value, 7.0);
    }

    #[test]
    fn boundary_crossing_pair_uses_high_adder() {
        // Leaves 3 and 4 share a cluster: their only connecting adder is
        // adder 3 at level 2 (for N=8), so completion takes 3 cycles even
        // though the cluster has just 2 elements.
        let fan = Fan::new(8).unwrap();
        let values = [1.0, 1.0, 1.0, 10.0, 20.0, 1.0, 1.0, 1.0];
        let v = ids(&[0, 1, 2, 3, 3, 4, 5, 6]);
        let r = fan.reduce(&values, &v).unwrap();
        let s = r.sums.iter().find(|s| s.vec_id == 3).unwrap();
        assert_eq!(s.value, 30.0);
        assert_eq!(s.completion_cycles, 3);
        assert_eq!(r.adds_performed, 1);
    }

    #[test]
    fn adds_equal_sum_of_segment_sizes_minus_one() {
        let fan = Fan::new(16).unwrap();
        let values = [1.0f32; 16];
        let v = ids(&[0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3]);
        let r = fan.reduce(&values, &v).unwrap();
        assert_eq!(r.adds_performed, 4 + 1 + 5 + 2);
        let sums: Vec<f32> = r.sums.iter().map(|s| s.value).collect();
        assert_eq!(sums, vec![5.0, 2.0, 6.0, 3.0]);
    }

    #[test]
    fn rejects_non_contiguous() {
        let fan = Fan::new(4).unwrap();
        let values = [1.0f32; 4];
        let v = ids(&[0, 1, 0, 1]);
        assert_eq!(fan.reduce(&values, &v), Err(FanError::NonContiguousSegments(0)));
        // None breaks a run: same id on both sides is non-contiguous.
        let v2 = ids(&[0, -1, 0, 1]);
        assert_eq!(fan.reduce(&values, &v2), Err(FanError::NonContiguousSegments(0)));
    }

    #[test]
    fn rejects_size_mismatch() {
        let fan = Fan::new(4).unwrap();
        assert!(matches!(
            fan.reduce(&[1.0; 3], &ids(&[0, 0, 0])),
            Err(FanError::SizeMismatch { expected: 4, actual: 3 })
        ));
    }

    #[test]
    fn forwarding_links_and_muxes_grow_with_size() {
        let f8 = Fan::new(8).unwrap();
        let f64 = Fan::new(64).unwrap();
        assert!(f64.forwarding_link_count() > f8.forwarding_link_count());
        assert!(f64.mux_count() > f8.mux_count());
        // N=4: adders 0,1,2 with levels 0,1,0: adder 1 has links to 0 and 2.
        let f4 = Fan::new(4).unwrap();
        assert_eq!(f4.forwarding_link_count(), 2);
        assert_eq!(f4.mux_count(), 0);
    }

    #[test]
    fn stuck_adder_corrupts_only_activations_through_it() {
        use crate::fault::{AdderFault, StuckLevel};
        let fan = Fan::new(8).unwrap();
        let values = [1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let v = ids(&[0, 0, 0, 0, 1, 1, 1, 1]);
        // Adder 5 (level 1) belongs to cluster 1's reduction; latch its
        // sign bit high. Cluster 0 must be untouched.
        let fault = AdderFault { adder: 5, bit: 31, level: StuckLevel::One };
        let mut scratch = FanScratch::default();
        let mut r = FanReduction::default();
        fan.reduce_into(&values, &v, &[fault], &mut scratch, &mut r).unwrap();
        assert_eq!(r.sums[0].value, 10.0, "cluster 0 does not pass through adder 5");
        // Cluster 1: level 0 gives (10+20)=30 at adder 4 and (30+40)=70 at
        // adder 6; level 1 at adder 5 computes 30+70=100 -> sign forced -> -100.
        assert_eq!(r.sums[1].value, -100.0);
        // Empty fault slice is byte-identical to the plain reduce.
        let clean = fan.reduce(&values, &v).unwrap();
        fan.reduce_into(&values, &v, &[], &mut scratch, &mut r).unwrap();
        assert_eq!(r, clean);
        // A fault on an adder no cluster spans changes nothing.
        let idle = AdderFault { adder: 3, bit: 31, level: StuckLevel::One };
        fan.reduce_into(&values, &v, &[idle], &mut scratch, &mut r).unwrap();
        assert_eq!(r, clean);
    }

    #[test]
    fn reduce_into_matches_reduce_with_reused_scratch() {
        let fan = Fan::new(16).unwrap();
        let mut scratch = FanScratch::default();
        let mut out = FanReduction::default();
        let waves: Vec<(Vec<f32>, Vec<Option<u32>>)> = vec![
            ((0..16).map(|x| x as f32).collect(), ids(&[0; 16])),
            (
                (0..16).map(|x| (x * 2) as f32).collect(),
                ids(&[0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3]),
            ),
            (vec![1.0; 16], ids(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15])),
            (vec![2.0; 16], ids(&[-1, 0, 0, -1, 1, 1, 1, -1, -1, 2, 2, 2, 2, -1, 3, 3])),
        ];
        for (values, v) in &waves {
            let reference = fan.reduce(values, v).unwrap();
            fan.reduce_into(values, v, &[], &mut scratch, &mut out).unwrap();
            assert_eq!(out, reference, "scratch reuse must not change results");
        }
    }

    #[test]
    fn reduce_into_clears_output_on_error() {
        let fan = Fan::new(4).unwrap();
        let mut scratch = FanScratch::default();
        let mut out = FanReduction::default();
        fan.reduce_into(&[1.0; 4], &ids(&[0, 0, 1, 1]), &[], &mut scratch, &mut out).unwrap();
        assert_eq!(out.sums.len(), 2);
        let err = fan.reduce_into(&[1.0; 4], &ids(&[0, 1, 0, 1]), &[], &mut scratch, &mut out);
        assert_eq!(err, Err(FanError::NonContiguousSegments(0)));
        assert!(out.sums.is_empty(), "stale sums must not survive an error");
    }

    #[test]
    fn latency_is_log2() {
        assert_eq!(Fan::new(128).unwrap().latency_cycles(), 7);
        assert_eq!(Fan::new(2).unwrap().latency_cycles(), 1);
    }
}
