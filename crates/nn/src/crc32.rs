//! First-party CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) —
//! the integrity footer of the `CMRCKPT2` checkpoint format.
//!
//! The build environment has no crates.io access, so this is a small
//! table-driven implementation rather than a dependency. It matches the
//! ubiquitous zlib/`cksum -o 3` CRC: `crc32(b"123456789") == 0xCBF43926`.

/// The 256-entry lookup table for the reflected IEEE polynomial, built at
/// compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 of `bytes` (initial value `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(bytes);
    h.finalize()
}

/// Incremental CRC-32 over a byte stream: feed chunks with
/// [`update`](Hasher::update), read the digest with
/// [`finalize`](Hasher::finalize). `Hasher` over any chunking of a byte
/// sequence equals [`crc32`] of the concatenation — the property
/// [`Frame`](crate::frame::Frame) relies on to verify a footer without
/// buffering the whole input.
#[derive(Clone, Debug)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// A fresh hasher (initial state `0xFFFF_FFFF`).
    pub fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            // cmr-lint: allow(panic-path) the index is masked with & 0xFF into a 256-entry table
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The CRC-32 of everything fed so far (final XOR applied; the hasher
    /// itself is unchanged and may keep accumulating).
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical check value every CRC-32 implementation must produce.
    #[test]
    fn check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    /// The streaming hasher must agree with the one-shot function for
    /// every chunking of the input.
    #[test]
    fn streaming_matches_one_shot_for_any_chunking() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let want = crc32(&data);
        for chunk in [1usize, 3, 7, 64, 999, 1000] {
            let mut h = Hasher::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), want, "chunk size {chunk}");
        }
        assert_eq!(Hasher::new().finalize(), 0, "empty stream");
        assert_eq!(Hasher::default().finalize(), 0);
    }

    /// `finalize` is a read, not a reset: the hasher keeps accumulating.
    #[test]
    fn finalize_does_not_reset() {
        let mut h = Hasher::new();
        h.update(b"1234");
        let _ = h.finalize();
        h.update(b"56789");
        assert_eq!(h.finalize(), 0xCBF4_3926);
    }

    /// Any single-bit flip must change the checksum — the property the
    /// checkpoint footer relies on.
    #[test]
    fn detects_single_bit_flips() {
        let base = b"CMRCKPT2 payload with some parameter bytes".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "flip at byte {i} bit {bit}");
            }
        }
    }
}
