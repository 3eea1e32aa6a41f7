//! Digests of simulated outputs (FNV-1a over little-endian words).

use cohfree_core::backend::AccessStats;
use cohfree_os::swap::SwapStats;
use cohfree_sim::stats::LatencyHistogram;

/// An FNV-1a 64-bit digest under construction.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    pub fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold every counter of `s`.
    pub fn access_stats(&mut self, s: &AccessStats) -> &mut Self {
        for v in [
            s.reads,
            s.writes,
            s.bytes_read,
            s.bytes_written,
            s.cache_hits,
            s.cache_misses,
            s.tlb_walks,
            s.minor_faults,
            s.major_faults,
            s.remote_reads,
            s.remote_writes,
            s.pages_in,
            s.pages_out,
            s.allocations,
            s.reservations,
            s.prefetch_hits,
            s.prefetch_issued,
        ] {
            self.word(v);
        }
        self
    }

    /// Fold every counter of `s`.
    pub fn swap_stats(&mut self, s: &SwapStats) -> &mut Self {
        for v in [s.hits, s.major_faults, s.writebacks, s.clean_evictions] {
            self.word(v);
        }
        self
    }

    /// Fold the non-empty buckets of `h` (index and count).
    pub fn histogram(&mut self, h: &LatencyHistogram) -> &mut Self {
        for (i, &c) in h.bucket_counts().iter().enumerate() {
            if c > 0 {
                self.word(i as u64).word(c);
            }
        }
        self
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_content_matter() {
        let a = Digest::default().word(1).word(2).value();
        let b = Digest::default().word(2).word(1).value();
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().word(1).word(2).value());
        let mut s = AccessStats::default();
        let d0 = Digest::default().access_stats(&s).value();
        s.tlb_walks = 1;
        assert_ne!(d0, Digest::default().access_stats(&s).value());
    }
}
