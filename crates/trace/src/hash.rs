//! FNV-1a, the workspace's one content hash.
//!
//! Every deterministic fingerprint in the workspace is FNV-1a-64 over
//! bytes: compile-cache keys, artifact, journal and blob checksums,
//! trace and span ids, fault-injection decisions, and loadgen response
//! digests. None of them needs a cryptographic hash, only one whose
//! accidental collisions are negligible and whose value is the same on
//! every platform and in every process.

use std::fmt;

/// The standard FNV-1a-64 offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// A second basis, for hash streams that must be independent of the
/// standard one (the high half of [`fnv1a128`], backoff jitter).
pub const FNV_BASIS_ALT: u64 = 0x6c62_272e_07bb_0142;

/// FNV-1a-64 of `bytes` starting from `basis`. Passing an earlier
/// result as `basis` continues that hash over more bytes.
#[inline]
pub fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    // A plain loop: an `Iterator::fold` form made `reproduce --check`
    // ~3% slower end to end on a 2-vCPU x86-64 VM.
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// 128-bit fingerprint: two independent FNV-1a-64 passes over `bytes`,
/// the standard basis in the low half and [`FNV_BASIS_ALT`] in the high.
#[inline]
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    let lo = fnv1a64(bytes, FNV_BASIS);
    let hi = fnv1a64(bytes, FNV_BASIS_ALT);
    ((hi as u128) << 64) | lo as u128
}

/// [`fnv1a128`] as a [`fmt::Write`] sink: `write!` a value into it to
/// hash the value's formatted form without building the string.
/// Chaining FNV through its basis is hashing the concatenation, so the
/// result is [`fnv1a128`] of the whole text however it arrives.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a128 {
    lo: u64,
    hi: u64,
}

impl Fnv1a128 {
    pub fn new() -> Self {
        Fnv1a128 {
            lo: FNV_BASIS,
            hi: FNV_BASIS_ALT,
        }
    }

    pub fn finish(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }
}

impl Default for Fnv1a128 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for Fnv1a128 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.lo = fnv1a64(s.as_bytes(), self.lo);
        self.hi = fnv1a64(s.as_bytes(), self.hi);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_answers() {
        assert_eq!(fnv1a64(b"", FNV_BASIS), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a", FNV_BASIS), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar", FNV_BASIS), 0x85944171f73967e8);
        // Chaining through `basis` is hashing the concatenation.
        assert_eq!(
            fnv1a64(b"bar", fnv1a64(b"foo", FNV_BASIS)),
            0x85944171f73967e8
        );
        assert_eq!(fnv1a128(b"foobar") as u64, 0x85944171f73967e8);
        assert_eq!((fnv1a128(b"") >> 64) as u64, FNV_BASIS_ALT);
    }

    #[test]
    fn streaming_matches_the_whole_text() {
        use std::fmt::Write;
        let v = (vec![1.5f32, -0.0], Some("x\ny"), [7u8; 3]);
        let mut h = Fnv1a128::new();
        write!(h, "{v:?}").unwrap();
        assert_eq!(h.finish(), fnv1a128(format!("{v:?}").as_bytes()));
        assert_eq!(Fnv1a128::default().finish(), fnv1a128(b""));
    }
}
