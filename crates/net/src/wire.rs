//! FNV-1a (64-bit) byte checksum.
//!
//! The checksum lives in a module of its own, under this name, because
//! the golden report pins in `tests/parallel_determinism.rs` and the
//! benchmark harness (`perfbench/src/cold.rs`) import it as
//! `wormhole::net::wire::checksum`.

/// FNV-1a (64-bit) over a byte buffer. Not cryptographic; it pins
/// report bytes and catches truncation or bit rot.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum(b"wormhole");
        assert_eq!(a, checksum(b"wormhole"));
        assert_ne!(a, checksum(b"wormhol3"));
        assert_ne!(checksum(b""), 0);
    }
}
