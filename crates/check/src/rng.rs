//! Deterministic hashing helpers (no external deps). The explorer's
//! random draws come from [`hupc_sim::rng::SplitMix64`].

/// FNV-1a 64-bit — used to fingerprint decision logs and prefixes. Stable
/// across platforms and releases (the corpus stores these hashes).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }

    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01B3);
        }
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_differs_on_order() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
