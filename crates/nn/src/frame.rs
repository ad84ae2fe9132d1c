//! One bounded reader, and the writer helpers, for every binary format the
//! workspace persists: `CMRCKPT1`/`CMRCKPT2` checkpoints (with the
//! [`Adam`](crate::Adam) state and the trainer's `extra` section nested
//! inside), `CMREMB1` embedding blobs and `CMRIVF1` indexes.
//!
//! A [`Frame`] wraps any [`Read`] — `&[u8]` for in-memory blobs, a
//! `BufReader<File>` for streamed loads — and is built from the untrusted
//! input and its length. Every read is checked against the remaining
//! payload and folded into a running CRC-32 [`Hasher`], so nothing is
//! buffered whole and truncation is an `InvalidData` error, never a panic.
//! Collections sized by a decoded count come from [`Frame::vec_for`],
//! [`Frame::bytes`] or [`Frame::f32s`], which reject a count the remaining
//! payload cannot hold before they allocate; the cmr-lint taint gate
//! reports those flows as sanitized. [`Frame::finish`] rejects leftover
//! payload and, for a [`sealed`](Frame::sealed) frame, checks the CRC-32
//! footer.
//!
//! Loaders decode into fresh values in one pass, call `finish`, and only
//! then write into the caller's state, so a failed load never half-applies.
//! Writers use [`put_len`], [`put_f32s`] and [`seal`].

use crate::crc32::{crc32, Hasher};
use std::io::{self, Read};

/// Upper bound accepted for any dimension or row count decoded from
/// untrusted bytes: above every model and gallery here (a 16M-row table),
/// and far enough below overflow that `rows * cols * 4` cannot wrap.
pub const MAX_DECODE_DIM: usize = 1 << 24;

/// Width of the CRC-32 footer that ends a sealed format.
const FOOTER: usize = 4;

/// Largest buffer [`Frame::f32s`] converts through (64 pages).
const CHUNK: usize = 1 << 18;

/// The `InvalidData` error for hostile or corrupt bytes.
pub fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Appends `n` as the little-endian `u32` every format uses for its counts,
/// lengths and dimensions.
pub fn put_len(buf: &mut Vec<u8>, n: usize) {
    // cmr-lint: allow(lossy-cast) format field width; every count, length and dimension written is far below 2^32
    buf.extend_from_slice(&(n as u32).to_le_bytes());
}

/// Appends `data` as raw little-endian `f32`s.
pub fn put_f32s(buf: &mut Vec<u8>, data: &[f32]) {
    for &x in data {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Appends the CRC-32 of everything already in `buf` as its footer.
pub fn seal(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// A bounded little-endian cursor over one encoded payload (see the
/// [module docs](self)). Every method fails with `InvalidData` when the
/// payload is too short for it, and passes through I/O errors.
pub struct Frame<R> {
    inner: R,
    /// Payload bytes not yet consumed (a sealed frame's footer excluded).
    remaining: usize,
    crc: Hasher,
    sealed: bool,
}

impl<R: Read> Frame<R> {
    /// A frame over `len` payload bytes with no footer.
    pub fn new(inner: R, len: usize) -> Self {
        Frame { inner, remaining: len, crc: Hasher::new(), sealed: false }
    }

    /// A frame over `len` bytes whose last four are the CRC-32 of the rest.
    pub fn sealed(inner: R, len: usize) -> io::Result<Self> {
        let Some(payload) = len.checked_sub(FOOTER) else {
            return Err(bad(format!("{len}-byte input has no room for its CRC footer")));
        };
        Ok(Frame { inner, remaining: payload, crc: Hasher::new(), sealed: true })
    }

    /// Payload bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// Reads exactly `buf.len()` payload bytes.
    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        if buf.len() > self.remaining {
            let (want, left) = (buf.len(), self.remaining);
            return Err(bad(format!("input truncated: wanted {want} bytes, {left} left")));
        }
        self.inner.read_exact(buf)?;
        self.crc.update(buf);
        self.remaining -= buf.len();
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut b = [0u8; N];
        self.read_exact(&mut b)?;
        Ok(b)
    }

    /// Reads the 8-byte magic that opens every format and checks it.
    pub fn magic(&mut self, want: &[u8; 8]) -> io::Result<()> {
        let got: [u8; 8] = self.array()?;
        if &got != want {
            let (got, want) = (got.escape_ascii(), want.escape_ascii());
            return Err(bad(format!("bad magic \"{got}\", expected \"{want}\"")));
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// An empty vector with room for `count` items of at least `wire`
    /// payload bytes each, once the remaining payload can hold them.
    pub fn vec_for<T>(&self, count: usize, wire: usize) -> io::Result<Vec<T>> {
        if count > self.remaining / wire.max(1) {
            let left = self.remaining;
            return Err(bad(format!("input claims {count} entries of {wire}+ bytes in {left}")));
        }
        Ok(Vec::with_capacity(count))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> io::Result<Vec<u8>> {
        if n > self.remaining {
            return Err(bad(format!("input claims {n} bytes, {} left", self.remaining)));
        }
        let mut out = vec![0u8; n];
        self.read_exact(&mut out)?;
        Ok(out)
    }

    /// Reads a `u32` length prefix and that many raw bytes.
    pub fn len_prefixed(&mut self) -> io::Result<Vec<u8>> {
        let n = self.u32()? as usize;
        self.bytes(n)
    }

    /// Reads `count` little-endian `f32`s through a buffer of at most
    /// 256 KiB.
    pub fn f32s(&mut self, count: usize) -> io::Result<Vec<f32>> {
        if count > self.remaining / 4 {
            return Err(bad(format!("input claims {count} f32s in {} bytes", self.remaining)));
        }
        let mut out = Vec::with_capacity(count);
        let mut chunk = vec![0u8; (count * 4).min(CHUNK)];
        let mut left = count * 4;
        while left > 0 {
            let take = left.min(CHUNK);
            let (buf, _) = chunk.split_at_mut(take);
            self.read_exact(buf)?;
            let (quads, _) = buf.as_chunks::<4>();
            out.extend(quads.iter().map(|q| f32::from_le_bytes(*q)));
            left -= take;
        }
        Ok(out)
    }

    /// Ends the decode: rejects unconsumed payload and, for a sealed frame,
    /// compares the footer with the CRC-32 of every payload byte read.
    pub fn finish(mut self) -> io::Result<()> {
        if self.remaining != 0 {
            return Err(bad(format!("{} trailing payload bytes", self.remaining)));
        }
        if self.sealed {
            let mut footer = [0u8; FOOTER];
            self.inner.read_exact(&mut footer)?;
            let (stored, actual) = (u32::from_le_bytes(footer), self.crc.finalize());
            if stored != actual {
                let msg = format!("CRC mismatch: footer {stored:#010x}, payload {actual:#010x}");
                return Err(bad(msg));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed_blob() -> Vec<u8> {
        let mut buf = b"TESTFMT1".to_vec();
        put_len(&mut buf, 3);
        put_f32s(&mut buf, &[1.5, -0.0, f32::MAX]);
        buf.extend_from_slice(&7u64.to_le_bytes());
        seal(&mut buf);
        buf
    }

    fn decode(bytes: &[u8]) -> io::Result<(Vec<f32>, u64)> {
        let mut r = Frame::sealed(bytes, bytes.len())?;
        r.magic(b"TESTFMT1")?;
        let n = r.u32()? as usize;
        let xs = r.f32s(n)?;
        let tail = r.u64()?;
        r.finish()?;
        Ok((xs, tail))
    }

    #[test]
    fn sealed_roundtrip_and_every_byte_flip_is_caught() {
        let blob = sealed_blob();
        let (xs, tail) = decode(&blob).unwrap();
        assert_eq!(xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), [
            1.5f32.to_bits(),
            (-0.0f32).to_bits(),
            f32::MAX.to_bits()
        ]);
        assert_eq!(tail, 7);
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x08;
            assert!(decode(&bad).is_err(), "byte {i} flip undetected");
        }
        for cut in 0..blob.len() {
            assert!(decode(&blob[..cut]).is_err(), "truncation to {cut} undetected");
        }
        let mut long = blob.clone();
        long.push(0);
        assert!(decode(&long).is_err(), "trailing byte undetected");
    }

    /// Counts the payload cannot hold are refused before any allocation,
    /// with the same "claims" wording from every helper.
    #[test]
    fn hostile_counts_are_refused_before_allocating() {
        let bytes = [0u8; 16];
        let mut r = Frame::new(&bytes[..], bytes.len());
        assert!(r.vec_for::<u64>(3, 8).unwrap_err().to_string().contains("claims"));
        assert!(r.vec_for::<u64>(2, 8).is_ok());
        assert!(r.f32s(1 << 30).unwrap_err().to_string().contains("claims"));
        assert!(r.bytes(17).unwrap_err().to_string().contains("claims"));
        assert_eq!(r.remaining(), 16, "refused reads consume nothing");
    }

    /// `f32s` converts across chunk boundaries without losing a value.
    #[test]
    fn f32_arrays_cross_chunk_boundaries() {
        let data: Vec<f32> = (0..CHUNK / 4 + 3).map(|i| i as f32 * 0.5).collect();
        let mut buf = Vec::new();
        put_f32s(&mut buf, &data);
        let mut r = Frame::new(&buf[..], buf.len());
        assert_eq!(r.f32s(data.len()).unwrap(), data);
        r.finish().unwrap();
    }
}
