//! FNV-1a 64: the second, independent hash family beside [`crate::crc64`].
//! The engine's persisted topology hash streams words through [`Fnv1a64`];
//! serve's cache key hashes its canonical bytes with [`fnv1a64`].

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64. Words are fed as their little-endian bytes.
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    pub fn new() -> Fnv1a64 {
        Fnv1a64(OFFSET)
    }
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
    }
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

/// FNV-1a 64 of `data`.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.bytes(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn words_stream_as_little_endian_bytes() {
        let mut h = Fnv1a64::new();
        h.u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv1a64(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
