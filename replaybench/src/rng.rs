//! Seeded stream generator: splitmix64, so one `--seed` gives the same
//! packets on every machine and every build.

/// A splitmix64 generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the workloads
    /// drawing from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    /// Next 64-bit word.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below anything
    /// the benchmark resolves).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}
