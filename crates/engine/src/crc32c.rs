//! CRC32-C (Castagnoli), used by WAL records, SST blocks and whole-file
//! checksums exactly as in LevelDB/RocksDB.
//!
//! [`Hasher::update`] picks its kernel at run time: on x86-64 hosts with
//! SSE4.2 it uses the `crc32` instruction, eight bytes at a time; on every
//! other host it falls back to a bytewise table loop. Both compute the
//! same function, so stored checksums do not depend on the host.

const POLY: u32 = 0x82F6_3B78; // reversed Castagnoli polynomial

fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();

/// Advances the internal (pre-inversion) CRC state `crc` over `data` with
/// the bytewise table loop: the kernel on hosts without SSE4.2, and the
/// reference the hardware kernel is tested against.
pub(crate) fn extend_portable(crc: u32, data: &[u8]) -> u32 {
    let table = TABLE.get_or_init(make_table);
    let mut crc = crc;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// [`extend_portable`] with the SSE4.2 `crc32` instruction: one 8-byte word
/// per instruction, then the tail a byte at a time. Callers must first
/// check that the host supports SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn extend_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let words = data.chunks_exact(8);
    let tail = words.remainder();
    let mut crc64 = crc as u64;
    for word in words {
        let word = u64::from_le_bytes(word.try_into().expect("chunk of 8"));
        crc64 = _mm_crc32_u64(crc64, word);
    }
    let mut crc = crc64 as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Advances the internal CRC state over `data` with the fastest kernel the
/// host supports.
fn extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `extend_sse42` only requires SSE4.2, which the host was
        // just checked to support.
        return unsafe { extend_sse42(crc, data) };
    }
    extend_portable(crc, data)
}

/// CRC32-C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finish()
}

/// CRC32-C of `data` computed by the bytewise table loop alone, whatever
/// the host supports: the baseline the hardware kernel is benchmarked and
/// cross-checked against. Storage code calls [`crc32c`].
pub fn crc32c_portable(data: &[u8]) -> u32 {
    !extend_portable(!0, data)
}

/// Incremental CRC32-C over a stream of chunks — used for whole-file
/// checksums (SSTs, WAL segments) where buffering the entire file just to
/// hash it would be wasteful. `Hasher::new().update(a).update(b).finish()`
/// equals `crc32c(a ++ b)`.
#[derive(Clone, Copy, Debug)]
pub struct Hasher {
    /// Internal (pre-inversion) CRC state.
    state: u32,
}

impl Default for Hasher {
    fn default() -> Hasher {
        Hasher::new()
    }
}

impl Hasher {
    /// A fresh hasher (equivalent to having hashed zero bytes).
    pub fn new() -> Hasher {
        Hasher { state: !0u32 }
    }

    /// Feeds `data` into the running CRC.
    pub fn update(&mut self, data: &[u8]) -> &mut Hasher {
        self.state = extend(self.state, data);
        self
    }

    /// The CRC32-C of everything fed so far (does not consume the hasher;
    /// more `update` calls may follow).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// LevelDB-style masked CRC (so that CRCs stored alongside data do not
/// accidentally validate as CRCs of themselves).
pub fn masked(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(0xa282_ead8)
}

/// Inverse of [`masked`].
pub fn unmask(masked_crc: u32) -> u32 {
    let rot = masked_crc.wrapping_sub(0xa282_ead8);
    rot.rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A kernel advancing the internal CRC state over a slice.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every kernel the host can run: the portable table loop always, the
    /// SSE4.2 kernel when the CPU has it.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut k: Vec<(&'static str, Kernel)> = vec![("portable", extend_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: only called on hosts that report SSE4.2.
            k.push(("sse4.2", |crc, data| unsafe { extend_sse42(crc, data) }));
        }
        k
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 test vectors, through the dispatcher and each kernel.
        let ascending: Vec<u8> = (0..32).collect();
        let vectors: [(&[u8], u32); 4] = [
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xffu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (b"123456789", 0xE306_9283),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want);
            for (name, kernel) in kernels() {
                assert_eq!(!kernel(!0, data), want, "{name} kernel");
            }
        }
    }

    #[test]
    fn incremental_hasher_matches_one_shot() {
        let data: Vec<u8> = (0..255u8).cycle().take(4096).collect();
        for split in [0usize, 1, 7, 255, 2048, 4095, 4096] {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32c(&data), "split at {split}");
        }
        // finish() is non-destructive.
        let mut h = Hasher::new();
        h.update(b"abc");
        let first = h.finish();
        assert_eq!(h.finish(), first);
        h.update(b"def");
        assert_eq!(h.finish(), crc32c(b"abcdef"));
    }

    #[test]
    fn mask_roundtrip_known() {
        let c = crc32c(b"foo");
        assert_ne!(masked(c), c);
        assert_eq!(unmask(masked(c)), c);
    }

    proptest! {
        #[test]
        fn mask_roundtrip(v in any::<u32>()) {
            prop_assert_eq!(unmask(masked(v)), v);
        }

        /// The hardware and portable kernels agree on unaligned slices of
        /// 0–8192 bytes fed in random chunks, including the 1-, 4- and
        /// 7-byte updates the per-entry protection tags make.
        #[test]
        fn hardware_matches_portable(
            buf in prop::collection::vec(any::<u8>(), 8192 + 64..8192 + 65),
            offset in 0usize..64,
            len in 0usize..8193,
            chunks in prop::collection::vec(
                prop_oneof![Just(1usize), Just(4usize), Just(7usize), 1usize..700],
                1..48,
            ),
        ) {
            let data = &buf[offset..offset + len];
            let mut pieces = Vec::new();
            let (mut rest, mut sizes) = (data, chunks.iter().cycle());
            while !rest.is_empty() {
                let (piece, tail) = rest.split_at((*sizes.next().unwrap()).min(rest.len()));
                pieces.push(piece);
                rest = tail;
            }
            let want = !extend_portable(!0, data);
            for (name, kernel) in kernels() {
                prop_assert_eq!(!kernel(!0, data), want, "{} one-shot", name);
                let chunked = pieces.iter().fold(kernel(!0, &[]), |crc, p| kernel(crc, p));
                prop_assert_eq!(!chunked, want, "{} chunked", name);
            }
            let mut h = Hasher::new();
            for p in &pieces {
                h.update(p);
            }
            prop_assert_eq!(h.finish(), want);
            prop_assert_eq!(crc32c(data), want);
            prop_assert_eq!(crc32c_portable(data), want);
        }

        #[test]
        fn different_data_different_crc(a in prop::collection::vec(any::<u8>(), 1..64),
                                        b in prop::collection::vec(any::<u8>(), 1..64)) {
            prop_assume!(a != b);
            // Not a guarantee, but with proptest's case counts a collision
            // would indicate a broken implementation.
            prop_assert_ne!(crc32c(&a), crc32c(&b));
        }
    }
}
