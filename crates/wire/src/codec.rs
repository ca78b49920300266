//! Shared binary primitives: CRC32, unsigned varints, and the little-endian
//! `Enc`/`Dec` pair.
//!
//! This is the single home of the codec that both the v2 wire protocol and
//! the `taflocd` snapshot store build on (the store re-exports from here
//! rather than duplicating). Layout is little-endian throughout; lengths are
//! 8-byte counts inside payloads and LEB128 varints in frame headers.

use crate::error::{Result, WireError};
use std::io::BufRead;
use taf_linalg::Matrix;

/// Slicing-by-8 tables of the reflected CRC32 polynomial `0xEDB88320`:
/// `CRC_TABLES[0][b]` is the CRC register after shifting in byte `b`, and
/// `CRC_TABLES[k][b]` the register after `b` followed by `k` zero bytes, so
/// eight table lookups advance the register by eight bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC32 (IEEE 802.3, polynomial `0xEDB88320`) — the checksum guarding
/// v2 wire frames, WAL records and persisted snapshot payloads. Hand-rolled
/// because the workspace deliberately carries no compression/hashing
/// dependency. Consumes eight bytes per step (slicing-by-8), then the tail
/// byte by byte; the value is that of the byte-at-a-time definition.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = u32::MAX;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ u32::MAX
}

/// Maximum encoded size of a `u64` LEB128 varint.
pub const MAX_UVARINT_BYTES: usize = 10;

/// Appends `v` as an LEB128 unsigned varint; returns the byte count written.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) -> usize {
    let start = buf.len();
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return buf.len() - start;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an LEB128 unsigned varint byte-by-byte from a stream.
///
/// Rejects encodings longer than [`MAX_UVARINT_BYTES`] (a stream of
/// continuation bits would otherwise hang the reader on garbage).
pub fn read_uvarint<R: BufRead + ?Sized>(r: &mut R) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for _ in 0..MAX_UVARINT_BYTES {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        // The 10th byte may only carry the top bit of a u64.
        if shift == 63 && b > 1 {
            return Err(WireError::malformed("varint overflows u64"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
    Err(WireError::malformed("varint longer than 10 bytes"))
}

/// Sanity cap on any decoded element count. A count must also fit in the
/// bytes left to decode ([`Dec::count`]), so a corrupted length prefix that
/// slipped past the checksum cannot drive a huge allocation.
pub const MAX_ELEMENTS: usize = 1 << 28;

/// Little-endian binary encoder. Appends to an owned buffer; use
/// [`Enc::into_inner`] (or [`Enc::buf`]) to take the bytes.
#[derive(Default)]
pub struct Enc {
    /// The accumulated output bytes.
    pub buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }
    /// Creates an encoder reusing `buf` (cleared) as its scratch space.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Enc { buf }
    }
    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }
    /// Appends one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a bool as `0`/`1`.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Appends an `f64` as its little-endian bit pattern (NaN-preserving).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
    /// Appends a matrix as `rows, cols` then `rows*cols` row-major values.
    pub fn matrix(&mut self, m: &Matrix) {
        self.usize(m.rows());
        self.usize(m.cols());
        for &x in m.as_slice() {
            self.f64(x);
        }
    }
}

/// Little-endian binary decoder over a borrowed payload.
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts decoding at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }
    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(WireError::Truncated)?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
    /// Fails unless every payload byte was consumed — trailing garbage
    /// means a layout mismatch, not just padding.
    pub fn finish(&self) -> Result<()> {
        if self.pos != self.data.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after the payload",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    /// Reads a bool, rejecting anything but `0`/`1`.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::Malformed(format!("invalid bool byte {v}"))),
        }
    }
    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    /// Reads a `usize` stored as `u64`.
    pub fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?)
            .map_err(|_| WireError::malformed("count does not fit this platform"))
    }
    /// Reads an element count, rejecting one above [`MAX_ELEMENTS`] or above
    /// the bytes left (every element takes at least one byte) before it can
    /// reach an allocator.
    pub fn count(&mut self) -> Result<usize> {
        let n = self.usize()?;
        if n > MAX_ELEMENTS || n > self.remaining() {
            return Err(WireError::Malformed(format!(
                "element count {n} is implausible with {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }
    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
    /// Reads a matrix (`rows, cols`, row-major data), validating the shape:
    /// neither dimension may exceed [`MAX_ELEMENTS`], and the data must fit
    /// in the bytes left, so an empty matrix (`100x0`) stays valid at the end
    /// of a payload while a hostile shape never reaches the allocator.
    pub fn matrix(&mut self) -> Result<Matrix> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        let remaining = self.remaining();
        let len = rows
            .checked_mul(cols)
            .filter(|&n| rows.max(cols) <= MAX_ELEMENTS && n <= remaining / 8)
            .ok_or_else(|| WireError::malformed("matrix shape is implausible"))?;
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(self.f64()?);
        }
        Matrix::from_vec(rows, cols, data).map_err(|e| WireError::Malformed(format!("matrix: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Codec;

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Byte-at-a-time CRC32 straight from the polynomial: the reference the
    /// sliced `crc32` must equal on every input.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = u32::MAX;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ u32::MAX
    }

    #[test]
    fn crc32_matches_bytewise_reference_at_every_length_and_offset() {
        let mut x = 0x9E37_79B9u32;
        let buf: Vec<u8> = (0..100 * 1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {start}, length {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf), "100 KiB buffer");
    }

    #[test]
    fn uvarint_round_trips_boundary_values() {
        let cases = [0u64, 1, 0x7F, 0x80, 0x3FFF, 0x4000, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for v in cases {
            let mut buf = Vec::new();
            let n = put_uvarint(&mut buf, v);
            assert_eq!(n, buf.len());
            let mut r = std::io::Cursor::new(buf.clone());
            assert_eq!(read_uvarint(&mut r).unwrap(), v, "round trip of {v}");
            assert_eq!(r.position() as usize, n, "consumed exactly the varint");
        }
    }

    #[test]
    fn uvarint_rejects_overlong_and_overflowing_encodings() {
        // Eleven continuation bytes: longer than any valid u64 varint.
        let overlong = vec![0x80u8; 11];
        assert!(matches!(
            read_uvarint(&mut std::io::Cursor::new(overlong)),
            Err(WireError::Malformed(_))
        ));
        // 10th byte with more than the top bit set overflows u64.
        let mut overflow = vec![0xFFu8; 9];
        overflow.push(0x02);
        assert!(matches!(
            read_uvarint(&mut std::io::Cursor::new(overflow)),
            Err(WireError::Malformed(_))
        ));
        // Truncated mid-varint maps to Truncated, not Io.
        let cut = vec![0x80u8, 0x80];
        assert!(matches!(read_uvarint(&mut std::io::Cursor::new(cut)), Err(WireError::Truncated)));
    }

    #[test]
    fn every_primitive_round_trips() {
        let m = Matrix::from_vec(2, 3, vec![1.0, -2.5, f64::NAN, 0.0, 1e300, -0.0]).unwrap();
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.usize(42);
        e.f64(-1.25);
        e.str("hé");
        None::<String>.encode(&mut e);
        Some("x".to_string()).encode(&mut e);
        vec![1usize, 2, 3].encode(&mut e);
        vec![0.5, -0.5].encode(&mut e);
        e.matrix(&m);
        let buf = e.into_inner();

        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.usize().unwrap(), 42);
        assert_eq!(d.f64().unwrap(), -1.25);
        assert_eq!(d.str().unwrap(), "hé");
        assert_eq!(Option::<String>::decode(&mut d).unwrap(), None);
        assert_eq!(Option::<String>::decode(&mut d).unwrap(), Some("x".to_string()));
        assert_eq!(Vec::<usize>::decode(&mut d).unwrap(), vec![1, 2, 3]);
        assert_eq!(Vec::<f64>::decode(&mut d).unwrap(), vec![0.5, -0.5]);
        let back = d.matrix().unwrap();
        assert_eq!(back.rows(), 2);
        assert_eq!(back.cols(), 3);
        // Bit-exact including NaN and the sign of -0.0.
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        d.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_flagged() {
        let mut e = Enc::new();
        e.u64(1);
        let mut buf = e.into_inner();
        let mut d = Dec::new(&buf[..4]);
        assert!(matches!(d.u64(), Err(WireError::Truncated)));
        buf.push(0);
        let mut d = Dec::new(&buf);
        d.u64().unwrap();
        assert!(matches!(d.finish(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn implausible_counts_are_rejected() {
        let mut e = Enc::new();
        e.usize(MAX_ELEMENTS + 1);
        let buf = e.into_inner();
        assert!(Dec::new(&buf).count().is_err());
    }

    #[test]
    fn counts_cannot_exceed_the_bytes_left() {
        let mut e = Enc::new();
        e.usize(4);
        e.buf.extend_from_slice(&[0; 4]);
        let buf = e.into_inner();
        assert_eq!(Dec::new(&buf).count().unwrap(), 4);
        assert!(matches!(Dec::new(&buf[..11]).count(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn uvarint_spends_one_byte_per_seven_bits() {
        for (v, len) in [(0u64, 1), (0x7F, 1), (0x80, 2), (0x3FFF, 2), (0x4000, 3), (u64::MAX, 10)]
        {
            assert_eq!(put_uvarint(&mut Vec::new(), v), len, "{v:#x}");
        }
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 300);
        assert_eq!(buf, [0xAC, 0x02], "low group first, continuation bit on all but the last");
    }

    #[test]
    fn reusing_discards_the_old_bytes() {
        let mut e = Enc::reusing(vec![1, 2, 3]);
        e.u32(7);
        assert_eq!(e.into_inner(), 7u32.to_le_bytes());
    }

    #[test]
    fn bools_and_strings_are_validated() {
        assert!(matches!(Dec::new(&[2]).bool(), Err(WireError::Malformed(_))));
        let mut e = Enc::new();
        e.usize(2);
        e.buf.extend_from_slice(&[0xC3, 0x28]); // an invalid two-byte sequence
        assert!(matches!(Dec::new(&e.buf).str(), Err(WireError::BadUtf8)));
    }

    #[test]
    fn matrix_shapes_are_checked_before_allocating() {
        let header = |rows: usize, cols: usize| {
            let mut e = Enc::new();
            e.usize(rows);
            e.usize(cols);
            e.into_inner()
        };
        // An empty matrix needs no data bytes, even at the end of a payload.
        let empty = Dec::new(&header(100, 0)).matrix().unwrap();
        assert_eq!(empty.shape(), (100, 0));
        // rows * cols overflows usize.
        assert!(matches!(
            Dec::new(&header(1 << 40, 1 << 40)).matrix(),
            Err(WireError::Malformed(_))
        ));
        // One value declared, none present.
        assert!(matches!(Dec::new(&header(1, 1)).matrix(), Err(WireError::Malformed(_))));
    }
}
