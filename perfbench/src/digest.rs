//! Output digests: 64-bit FNV-1a over a canonical encoding of each
//! workload's results. Equal inputs and seeds must give equal digests on
//! every run and host, so a digest mismatch is an output-check failure.

use sparkxd_core::PipelineOutcome;

/// Streaming FNV-1a (64-bit) hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// An empty digest.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Mixes a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of every field of a pipeline outcome. `Debug` prints each float
/// as its shortest round-trip decimal, so the text is exact.
pub fn outcome(outcome: &PipelineOutcome) -> u64 {
    Digest::new()
        .bytes(format!("{outcome:?}").as_bytes())
        .finish()
}

/// Digest of per-sample spike counts, in sample order.
pub fn spike_counts(counts: &[Vec<u32>]) -> u64 {
    let mut d = Digest::new();
    for sample in counts {
        d.u64(sample.len() as u64);
        for &c in sample {
            d.bytes(&c.to_le_bytes());
        }
    }
    d.finish()
}

/// Digest of serve answers as sorted `(id, label, tier)` triples; an
/// unlabelled answer hashes as label 255.
pub fn answers(answers: &[(u64, Option<u8>, usize)]) -> u64 {
    let mut sorted = answers.to_vec();
    sorted.sort_unstable();
    let mut d = Digest::new();
    for (id, label, tier) in sorted {
        d.u64(id)
            .u64(u64::from(label.unwrap_or(u8::MAX)))
            .u64(tier as u64);
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Digest::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn spike_digest_is_stable_and_order_sensitive() {
        let a = vec![vec![1, 2, 3], vec![0, 0, 7]];
        let b = vec![vec![0, 0, 7], vec![1, 2, 3]];
        assert_eq!(spike_counts(&a), spike_counts(&a.clone()));
        assert_ne!(spike_counts(&a), spike_counts(&b));
        // Sample boundaries are part of the encoding.
        assert_ne!(
            spike_counts(&[vec![1, 2], vec![3]]),
            spike_counts(&[vec![1], vec![2, 3]])
        );
        assert_eq!(spike_counts(&a), 0x9bd4_39ba_3eec_7962);
    }

    #[test]
    fn answer_digest_ignores_completion_order() {
        let done = [(2, Some(7), 0), (0, None, 1), (1, Some(3), 2)];
        let reordered = [(0, None, 1), (1, Some(3), 2), (2, Some(7), 0)];
        assert_eq!(answers(&done), answers(&reordered));
        assert_ne!(
            answers(&done),
            answers(&[(2, Some(7), 1), (0, None, 1), (1, Some(3), 2)])
        );
    }
}
