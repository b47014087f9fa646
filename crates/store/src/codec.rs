//! The workspace's one byte codec: what every durable encoding (the
//! relation and miner checkpoint, the serving layer's drain and mine
//! records) is written with and read back through.
//!
//! Integers are little-endian; strings are u32-length-prefixed UTF-8;
//! items are their raw tagged `u32`. Writers are the `put_*` functions,
//! the reader is [`Cursor`]. Decoding is defensive: a hostile or
//! bit-rotted payload yields an `Err`, never a panic or an allocation
//! larger than the payload itself.

use crate::item::Item;

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append a u32-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a u32 element count (read back with [`Cursor::count`]).
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, n as u32);
}

/// Bounds-checked reader over a payload slice. Lengths and counts are
/// validated against the remaining bytes before any allocation, so a
/// corrupted length cannot request gigabytes.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "payload truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        self.take(N)?
            .try_into()
            .map_err(|_| format!("short {N}-byte field"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` stored as its IEEE bits (`put_u64(out, x.to_bits())`).
    pub fn f64(&mut self) -> Result<f64, String> {
        self.u64().map(f64::from_bits)
    }

    /// A u32-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("bad utf-8 in payload: {e}"))
    }

    /// A raw item id whose namespace tag is one of the three kinds.
    pub fn item(&mut self) -> Result<Item, String> {
        let raw = self.u32()?;
        Item::try_from_raw(raw).ok_or_else(|| format!("bad item tag in raw id {raw:#x}"))
    }

    /// An element count, refused if the remaining bytes cannot hold that
    /// many elements of at least `min_bytes` each — so a caller may
    /// allocate `count` elements up front.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(format!(
                "count {n} at offset {} exceeds the {} bytes left",
                self.pos - 4,
                self.remaining()
            ));
        }
        Ok(n)
    }

    /// A [`Cursor::count`] of elements at least `min_bytes` long, then
    /// that many elements, each read by `element`.
    pub fn list<T>(
        &mut self,
        min_bytes: usize,
        mut element: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.count(min_bytes)?;
        (0..n).map(|_| element(self)).collect()
    }

    /// Require that every byte was consumed.
    pub fn finish(self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after record")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip() {
        let mut out = Vec::new();
        out.push(7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_u64(&mut out, 0.755f64.to_bits());
        put_str(&mut out, "weird name %");
        put_u32(&mut out, Item::label(3).raw());
        let mut cur = Cursor::new(&out);
        assert_eq!(cur.u8().unwrap(), 7);
        assert_eq!(cur.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(cur.u64().unwrap(), u64::MAX - 1);
        assert_eq!(cur.f64().unwrap(), 0.755);
        assert_eq!(cur.str().unwrap(), "weird name %");
        assert_eq!(cur.item().unwrap(), Item::label(3));
        cur.finish().unwrap();
    }

    #[test]
    fn a_count_larger_than_the_bytes_left_fails_before_allocating() {
        // Four elements of at least 4 bytes each need 16 bytes; 15 follow.
        let mut out = Vec::new();
        put_count(&mut out, 4);
        out.extend_from_slice(&[0; 15]);
        let err = Cursor::new(&out).count(4).unwrap_err();
        assert!(err.contains("exceeds the 15 bytes left"), "{err}");
        // The largest count a u32 can say, against nothing at all.
        let err = Cursor::new(&u32::MAX.to_le_bytes()).count(1).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        let mut exact = Vec::new();
        put_count(&mut exact, 4);
        exact.extend_from_slice(&[0; 16]);
        assert_eq!(Cursor::new(&exact).count(4).unwrap(), 4);
    }

    #[test]
    fn hostile_fields_are_errors() {
        assert!(Cursor::new(&[1, 2, 3]).u32().is_err(), "short u32");
        let mut long = Vec::new();
        put_u32(&mut long, 1000);
        long.extend_from_slice(b"abc");
        assert!(Cursor::new(&long).str().is_err(), "length past the end");
        let mut bad = Vec::new();
        put_str(&mut bad, "ok");
        let at = bad.len() - 1;
        bad[at] = 0xFF;
        assert!(Cursor::new(&bad).str().is_err(), "invalid utf-8");
        let tag3 = (3u32 << 30).to_le_bytes();
        assert!(Cursor::new(&tag3).item().is_err(), "fourth namespace tag");
        let mut trailing = Cursor::new(&[0, 0]);
        trailing.u8().unwrap();
        assert!(trailing.finish().is_err());
    }
}
