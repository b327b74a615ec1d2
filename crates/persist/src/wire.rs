//! The byte-level wire codec: little-endian primitives with length-checked
//! reads.
//!
//! Floats travel as their IEEE-754 bit patterns ([`f64::to_bits`] /
//! [`f64::from_bits`]), so a round-trip reproduces every value — including
//! negative zero and the `NaN` payloads the workspace uses as missing-cell
//! sentinels — **bit-exactly**. That is what upgrades a snapshot from an
//! approximation to a deployment artifact: a loaded model serves the same
//! bits as the model that was saved.

use crate::error::PersistError;
use iim_bytes::{FloatSlice, SharedBytes, U32Slice};

/// The numeric banks a [`Writer`] accumulates: heavy arrays land here
/// (contiguous, alignable) while the meta stream only records
/// `(count, start)` references to them.
#[derive(Debug, Default)]
struct Banks {
    f64s: Vec<f64>,
    u32s: Vec<u32>,
}

/// Where a banked [`Reader`] resolves bank references: a shared aligned
/// buffer plus the element offset/length of each bank inside it.
#[derive(Debug, Clone)]
pub struct BankSource {
    /// The buffer holding the validated payload — the whole snapshot
    /// file on the loaders' in-place path (checksummed before any view is
    /// handed out).
    pub buf: SharedBytes,
    /// Byte offset of the `f64` bank inside `buf`.
    pub f64_off: usize,
    /// Element count of the `f64` bank.
    pub f64_len: usize,
    /// Byte offset of the `u32` bank inside `buf`.
    pub u32_off: usize,
    /// Element count of the `u32` bank.
    pub u32_len: usize,
}

/// Append-only encoder over a byte buffer.
///
/// The `*_banked` slice methods divert their elements into side banks
/// and write only `(count, start)` references inline: the snapshot
/// payload's validate-then-view layout. Every other method writes
/// inline (delta records use only those).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    banks: Banks,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes (the banks are dropped).
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// The meta stream and the two banks.
    pub fn into_banked_parts(self) -> (Vec<u8>, Vec<f64>, Vec<u32>) {
        (self.buf, self.banks.f64s, self.banks.u32s)
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the on-disk format is
    /// pointer-width-independent).
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.len(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.len(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.len(vs.len());
        for &v in vs {
            self.u64(v);
        }
    }

    /// Appends a length-prefixed `usize` slice (as `u64`s).
    pub fn lens(&mut self, vs: &[usize]) {
        self.len(vs.len());
        for &v in vs {
            self.len(v);
        }
    }

    /// Appends an `f64` slice through the bank: the values go to the
    /// `f64` bank and `(count, start)` is written inline.
    pub fn f64s_banked(&mut self, vs: &[f64]) {
        let start = self.banks.f64s.len();
        self.banks.f64s.extend_from_slice(vs);
        self.len(vs.len());
        self.len(start);
    }

    /// Appends a `u32` slice through the bank (see [`Writer::f64s_banked`]).
    pub fn u32s_banked(&mut self, vs: &[u32]) {
        let start = self.banks.u32s.len();
        self.banks.u32s.extend_from_slice(vs);
        self.len(vs.len());
        self.len(start);
    }
}

/// A bounds-checked cursor over encoded bytes.
///
/// With a [`BankSource`] attached ([`Reader::with_banks`]) the `*_banked`
/// slice methods resolve `(count, start)` references into views of the
/// shared buffer: the validate-then-view read path. Without one they
/// fail with a typed error.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    banks: Option<BankSource>,
}

impl<'a> Reader<'a> {
    /// A reader over `data` starting at offset 0.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            banks: None,
        }
    }

    /// A reader over `data` resolving bank references against `banks`.
    pub fn with_banks(data: &'a [u8], banks: BankSource) -> Self {
        Self {
            data,
            pos: 0,
            banks: Some(banks),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Errors unless every byte was consumed — trailing garbage means the
    /// payload does not describe what its codec read.
    pub fn expect_exhausted(&self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after the payload",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated { context });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads exactly `n` raw bytes (magic sequences, embedded payloads).
    pub fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], PersistError> {
        self.take(n, context)
    }

    /// Reads a `u16`-length-prefixed UTF-8 string — the compact tag shape
    /// the container header uses for method and column names.
    pub fn tag(&mut self, context: &'static str) -> Result<String, PersistError> {
        let n = self.u16(context)? as usize;
        let bytes = self.take(n, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt(format!("{context}: invalid UTF-8")))
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, PersistError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, PersistError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, PersistError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, PersistError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an element **count** written by [`Writer::len`]: a count's
    /// elements each occupy at least one byte of the remaining input, so
    /// counts exceeding it are rejected up front (failing fast on corrupt
    /// counts before attempting a huge allocation). For scalar sizes with
    /// no elements behind them (a `k`, an iteration cap) use
    /// [`Reader::scalar`].
    pub fn len(&mut self, context: &'static str) -> Result<usize, PersistError> {
        let v = self.u64(context)?;
        if v > self.remaining() as u64 {
            return Err(PersistError::Corrupt(format!(
                "{context}: count {v} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(v as usize)
    }

    /// Reads a scalar `usize` written by [`Writer::len`] (no
    /// remaining-bytes heuristic — the value does not count upcoming
    /// elements).
    pub fn scalar(&mut self, context: &'static str) -> Result<usize, PersistError> {
        let v = self.u64(context)?;
        usize::try_from(v)
            .map_err(|_| PersistError::Corrupt(format!("{context}: value {v} overflows")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self, context: &'static str) -> Result<bool, PersistError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::Corrupt(format!(
                "{context}: invalid bool byte {other}"
            ))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<String, PersistError> {
        let n = self.len(context)?;
        let bytes = self.take(n, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt(format!("{context}: invalid UTF-8")))
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn f64s(&mut self, context: &'static str) -> Result<Vec<f64>, PersistError> {
        let n = self.len(context)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64(context)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn u32s(&mut self, context: &'static str) -> Result<Vec<u32>, PersistError> {
        let n = self.len(context)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32(context)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn u64s(&mut self, context: &'static str) -> Result<Vec<u64>, PersistError> {
        let n = self.len(context)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64(context)?);
        }
        Ok(out)
    }

    /// Reads an `f64` slice written by [`Writer::f64s_banked`] as a
    /// bounds-checked view of the shared buffer. A per-attribute model
    /// stores tens of thousands of tiny banked slices, so this path stays
    /// allocation-free: one `Arc` bump per view, no `BankSource` clone.
    pub fn f64s_banked(&mut self, context: &'static str) -> Result<FloatSlice, PersistError> {
        let (b, n, start) = self.bank_ref(context, |b| b.f64_len)?;
        Ok(FloatSlice::view(&b.buf, b.f64_off + start * 8, n))
    }

    /// Reads a `u32` slice written by [`Writer::u32s_banked`] (see
    /// [`Reader::f64s_banked`]).
    pub fn u32s_banked(&mut self, context: &'static str) -> Result<U32Slice, PersistError> {
        let (b, n, start) = self.bank_ref(context, |b| b.u32_len)?;
        Ok(U32Slice::view(&b.buf, b.u32_off + start * 4, n))
    }

    /// Reads one `(count, start)` bank reference and bounds-checks it
    /// against the bank whose element count `bank_len` picks.
    fn bank_ref(
        &mut self,
        context: &'static str,
        bank_len: fn(&BankSource) -> usize,
    ) -> Result<(&BankSource, usize, usize), PersistError> {
        let n = self.scalar(context)?;
        let start = self.scalar(context)?;
        let b = self.banks.as_ref().ok_or_else(|| {
            PersistError::Corrupt(format!("{context}: bank reference without banks"))
        })?;
        let end = start
            .checked_add(n)
            .ok_or_else(|| PersistError::Corrupt(format!("{context}: bank reference overflows")))?;
        if end > bank_len(b) {
            return Err(PersistError::Corrupt(format!(
                "{context}: bank reference {start}+{n} exceeds the bank of {} elements",
                bank_len(b)
            )));
        }
        Ok((b, n, start))
    }

    /// Reads a length-prefixed `usize` slice (stored as `u64`s).
    pub fn lens(&mut self, context: &'static str) -> Result<Vec<usize>, PersistError> {
        let n = self.len(context)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let v = self.u64(context)?;
            usize::try_from(v)
                .map_err(|_| PersistError::Corrupt(format!("{context}: index {v} overflows")))
                .map(|v| out.push(v))?;
        }
        Ok(out)
    }
}

/// FNV-1a 64-bit hash — the delta-record checksum. Not cryptographic: it
/// detects storage/transit corruption, not tampering.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a folded over little-endian `u64` words — the snapshot payload
/// checksum. One multiply per 8 bytes instead of per byte, so validating
/// a snapshot before viewing it costs an eighth of the byte-wise walk; a
/// trailing partial word is zero-extended (unambiguous because the
/// container stores the payload length separately and bounds-checks it
/// before the checksum runs). Each step is a bijection of the running
/// state (XOR, then multiply by an odd constant), so any flipped bit in
/// any word changes the final hash.
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        hash ^= u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        hash ^= u64::from_le_bytes(last);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("hé");
        w.f64s(&[1.5, -2.25]);
        w.u32s(&[1, 2, 3]);
        w.lens(&[9, 0]);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 300);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), u64::MAX);
        assert_eq!(r.f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64("f").unwrap().is_nan());
        assert!(r.bool("g").unwrap());
        assert_eq!(r.str("h").unwrap(), "hé");
        assert_eq!(r.f64s("i").unwrap(), vec![1.5, -2.25]);
        assert_eq!(r.u32s("j").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.lens("k").unwrap(), vec![9, 0]);
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = Writer::new();
        w.u64(5);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes[..3]);
        assert!(matches!(
            r.u64("field"),
            Err(PersistError::Truncated { context: "field" })
        ));
    }

    #[test]
    fn oversized_count_is_corrupt_not_alloc() {
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.len("count"), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
