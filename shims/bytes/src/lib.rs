//! Offline stand-in for the subset of the `bytes` crate this workspace
//! uses: the [`Buf`] / [`BufMut`] cursor traits implemented for byte
//! slices and `Vec<u8>`, little-endian accessors only.

#![warn(missing_docs)]

/// Read cursor over a byte source; every `get_*` consumes from the front.
/// As in the real crate, only [`Buf::copy_to_bytes`] allocates: the
/// fixed-width accessors copy into a stack array.
pub trait Buf {
    /// Bytes remaining.
    fn remaining(&self) -> usize;

    /// Consume the first `dst.len()` bytes into `dst`. Panics on
    /// underflow.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Consume and return the first `len` bytes.
    #[inline]
    fn copy_to_bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.copy_to_slice(&mut out);
        out
    }

    /// Consume one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let mut b = [0; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Consume a little-endian `u16`.
    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Consume a little-endian `u32`.
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Consume a little-endian `u64`.
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            dst.len() <= self.len(),
            "buffer underflow: {} > {}",
            dst.len(),
            self.len()
        );
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// Write cursor over a byte sink; every `put_*` appends (for `Vec<u8>`)
/// or overwrites from the front (for `&mut [u8]`).
pub trait BufMut {
    /// Append/write raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Write one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Write a little-endian `u16`.
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for &mut [u8] {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        assert!(
            src.len() <= self.len(),
            "buffer overflow: {} > {}",
            src.len(),
            self.len()
        );
        let taken = std::mem::take(self);
        let (head, tail) = taken.split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_roundtrip() {
        let mut out: Vec<u8> = Vec::new();
        out.put_u8(7);
        out.put_u16_le(513);
        out.put_u32_le(70_000);
        out.put_u64_le(1 << 40);
        out.put_slice(b"abc");
        let mut buf: &[u8] = &out;
        assert_eq!(buf.get_u8(), 7);
        assert_eq!(buf.get_u16_le(), 513);
        assert_eq!(buf.get_u32_le(), 70_000);
        assert_eq!(buf.get_u64_le(), 1 << 40);
        assert_eq!(buf.copy_to_bytes(3), b"abc");
        assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn slice_writes_in_place() {
        let mut storage = [0u8; 4];
        (&mut storage[0..2]).put_u16_le(0xABCD);
        (&mut storage[2..4]).put_u16_le(0x1234);
        assert_eq!((&storage[0..2]).get_u16_le(), 0xABCD);
        assert_eq!((&storage[2..4]).get_u16_le(), 0x1234);
    }
}
