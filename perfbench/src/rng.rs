//! Seeded input randomness owned by the benchmark.
//!
//! The benchmark draws every input (right-hand sides, request schedules,
//! operands, delta streams) from this generator rather than from the
//! program's own `rand`, so the inputs for a seed stay fixed even when the
//! program under test changes its random number generator.

/// SplitMix64: a tiny, fast, well-mixed 64-bit generator.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named stream of one seed. Distinct `stream`
    /// values give independent sequences, so inputs drawn for one purpose
    /// never shift when another purpose draws more.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed);
        let a = g.next_u64();
        let mut h = SplitMix64(stream ^ 0x6A09_E667_F3BC_C908);
        SplitMix64(a ^ h.next_u64())
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}
