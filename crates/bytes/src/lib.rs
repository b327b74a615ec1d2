//! Aligned shared byte buffers and **view-or-owned** numeric slices.
//!
//! The validate-then-view snapshot path (format v3) keeps one read-only,
//! checksum-validated byte buffer alive and lets fitted models *borrow*
//! their numeric payloads (feature matrices, ridge coefficients, pools)
//! straight out of it instead of parsing each into a fresh `Vec`. Two
//! types make that safe and ergonomic:
//!
//! * [`AlignedBuf`] / [`SharedBytes`] — an immutable byte buffer whose
//!   backing storage is 8-byte aligned (it is a `Vec<u64>` underneath),
//!   shared via `Arc` so any number of views keep it alive. Two
//!   constructors fill one: [`AlignedBuf::from_bytes`] copies a slice,
//!   and [`AlignedBuf::read_from`] reads any `std::io::Read` (a snapshot
//!   file) to EOF straight into the aligned words, so a load from disk
//!   holds one buffer rather than a file `Vec` plus an aligned copy.
//! * [`FloatSlice`] / [`U32Slice`] — either an owned `Vec<T>` or a view
//!   `(buf, byte_off, len)` into a [`SharedBytes`]. Both deref to `[T]`,
//!   so downstream numeric code is oblivious; mutation goes through a
//!   copy-on-write [`FloatSlice::to_mut`].
//!
//! The *only* `unsafe` in the workspace lives in this crate's `cast`
//! helpers: reinterpreting `&[u64]` as `&[u8]` and (alignment-checked)
//! `&[u8]` as `&[f64]`/`&[u32]`. Every target type is valid for all bit
//! patterns, alignment is verified at runtime, and lengths are derived
//! from the source slice, so no construction can read out of bounds.
//! Snapshots are little-endian on the wire; on a big-endian host the view
//! constructors transparently fall back to an owned, byte-swapped copy,
//! so results are identical everywhere (views are purely a fast path).

/// Audited reinterpret casts. Kept in one tiny module so the safety
/// argument has a single home.
mod cast {
    #![allow(unsafe_code)]

    /// View a word slice as its underlying bytes.
    ///
    /// Safety: `u8` has alignment 1 and no invalid bit patterns; the
    /// returned length is exactly the byte length of the source slice and
    /// the lifetime is inherited from it.
    pub fn bytes_of(words: &[u64]) -> &[u8] {
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) }
    }

    /// View bytes as `&[f64]`, or `None` if the pointer is misaligned or
    /// the length is not a multiple of 8.
    ///
    /// Safety: alignment and length are checked above the cast; `f64` is
    /// valid for every bit pattern (NaN payloads included); the lifetime
    /// is inherited from the source slice.
    pub fn f64s_of(bytes: &[u8]) -> Option<&[f64]> {
        if !bytes.len().is_multiple_of(8)
            || !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f64>())
        {
            return None;
        }
        Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f64>(), bytes.len() / 8) })
    }

    /// View bytes as `&[u32]`, or `None` if misaligned or ragged.
    ///
    /// Safety: as [`f64s_of`]; `u32` is valid for every bit pattern.
    pub fn u32s_of(bytes: &[u8]) -> Option<&[u32]> {
        if !bytes.len().is_multiple_of(4)
            || !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<u32>())
        {
            return None;
        }
        Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) })
    }

    /// View a word slice as its underlying bytes, mutably.
    ///
    /// Safety: as [`bytes_of`] — `u8` has alignment 1 and no invalid bit
    /// patterns, the length is exactly the byte length of the source
    /// slice, and the exclusive borrow is inherited from it.
    pub fn bytes_of_mut(words: &mut [u64]) -> &mut [u8] {
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8) }
    }
}

/// An immutable byte buffer whose storage is 8-byte aligned.
///
/// Backed by a `Vec<u64>` so the base pointer satisfies `f64`/`u64`
/// alignment; the logical byte length may be any value (the final word is
/// zero-padded).
pub struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    /// Copy `bytes` into freshly allocated aligned storage — one straight
    /// memcpy into zero-initialized words (the final word's tail bytes
    /// stay zero), not a per-word decode loop; snapshot activation copies
    /// whole payloads through here.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        cast::bytes_of_mut(&mut words)[..bytes.len()].copy_from_slice(bytes);
        Self {
            words,
            len: bytes.len(),
        }
    }

    /// Reads `r` to EOF straight into freshly allocated aligned storage —
    /// the snapshot loaders' one buffer per load, with no intermediate
    /// `Vec<u8>` to copy from.
    ///
    /// `size_hint` is the expected byte count (a file's length). The
    /// buffer is sized for it plus one spare word, so a read that ends
    /// where the hint said it would sees EOF without reallocating; the
    /// storage grows (doubling, from 8 KiB) only if the input turns out
    /// longer, and is then trimmed back to the bytes read. Bytes past the
    /// end read stay zero, as with [`AlignedBuf::from_bytes`].
    pub fn read_from<R: std::io::Read + ?Sized>(
        r: &mut R,
        size_hint: usize,
    ) -> std::io::Result<Self> {
        let mut words = vec![0u64; size_hint.div_ceil(8) + 1];
        let mut len = 0;
        loop {
            if len == words.len() * 8 {
                words.resize((words.len() * 2).max(1024), 0);
            }
            match r.read(&mut cast::bytes_of_mut(&mut words)[len..]) {
                Ok(0) => break,
                Ok(n) => len += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // `read` may scribble past what it reports; restore the zero tail,
        // and hand back what growing over-allocated.
        cast::bytes_of_mut(&mut words)[len..].fill(0);
        if words.len() > len.div_ceil(8) + 1 {
            words.truncate(len.div_ceil(8));
            words.shrink_to_fit();
        }
        Ok(Self { words, len })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer's bytes; the base pointer is 8-aligned.
    pub fn as_slice(&self) -> &[u8] {
        &cast::bytes_of(&self.words)[..self.len]
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedBuf({} bytes)", self.len)
    }
}

/// A shared, immutable, aligned byte buffer. Cloning is an `Arc` bump.
pub type SharedBytes = std::sync::Arc<AlignedBuf>;

/// Copy `bytes` into a new [`SharedBytes`].
pub fn shared(bytes: &[u8]) -> SharedBytes {
    std::sync::Arc::new(AlignedBuf::from_bytes(bytes))
}

macro_rules! pod_slice {
    ($name:ident, $t:ty, $width:expr, $cast:path, $from_le:expr) => {
        /// Either an owned `Vec` or a validated view into a [`SharedBytes`].
        ///
        /// Derefs to a slice, so numeric code downstream does not care
        /// which it is. Views keep the whole backing buffer alive; use
        /// [`Self::to_mut`] for copy-on-write mutation.
        #[derive(Clone)]
        pub struct $name(Repr<$t>);

        impl $name {
            /// A view of `len` elements starting `byte_off` bytes into
            /// `buf`.
            ///
            /// The range must be in bounds — the caller is expected to
            /// have bounds-validated its section table first; an
            /// out-of-range request is a logic error and panics. If the
            /// offset is misaligned for the element type, or the host is
            /// big-endian (snapshots are little-endian on the wire), the
            /// data is copied into an owned slice instead, so the result
            /// is identical either way.
            pub fn view(buf: &SharedBytes, byte_off: usize, len: usize) -> Self {
                let bytes = &buf.as_slice()[byte_off..byte_off + len * $width];
                if cfg!(target_endian = "little") && $cast(bytes).is_some() {
                    $name(Repr::View {
                        buf: buf.clone(),
                        byte_off,
                        len,
                    })
                } else {
                    let decode: fn(&[u8]) -> $t = $from_le;
                    $name(Repr::Owned(
                        bytes.chunks_exact($width).map(decode).collect(),
                    ))
                }
            }

            pub fn as_slice(&self) -> &[$t] {
                match &self.0 {
                    Repr::Owned(v) => v,
                    Repr::View { buf, byte_off, len } => {
                        let bytes = &buf.as_slice()[*byte_off..*byte_off + len * $width];
                        $cast(bytes).expect("alignment was validated at construction")
                    }
                }
            }

            /// Copy-on-write access: converts a view into an owned `Vec`
            /// on first call, then hands out the `Vec` directly.
            pub fn to_mut(&mut self) -> &mut Vec<$t> {
                if let Repr::View { .. } = self.0 {
                    self.0 = Repr::Owned(self.as_slice().to_vec());
                }
                match &mut self.0 {
                    Repr::Owned(v) => v,
                    Repr::View { .. } => unreachable!("converted to owned above"),
                }
            }

            pub fn into_vec(mut self) -> Vec<$t> {
                std::mem::take(self.to_mut())
            }

            /// True when backed by a shared buffer rather than an owned
            /// allocation (bench/test introspection).
            pub fn is_view(&self) -> bool {
                matches!(self.0, Repr::View { .. })
            }
        }

        impl std::ops::Deref for $name {
            type Target = [$t];
            fn deref(&self) -> &[$t] {
                self.as_slice()
            }
        }

        impl From<Vec<$t>> for $name {
            fn from(v: Vec<$t>) -> Self {
                $name(Repr::Owned(v))
            }
        }

        impl From<&[$t]> for $name {
            fn from(v: &[$t]) -> Self {
                $name(Repr::Owned(v.to_vec()))
            }
        }

        impl Default for $name {
            fn default() -> Self {
                $name(Repr::Owned(Vec::new()))
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                std::fmt::Debug::fmt(self.as_slice(), f)
            }
        }

        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                self.as_slice() == other.as_slice()
            }
        }

        impl PartialEq<Vec<$t>> for $name {
            fn eq(&self, other: &Vec<$t>) -> bool {
                self.as_slice() == other.as_slice()
            }
        }

        impl PartialEq<$name> for Vec<$t> {
            fn eq(&self, other: &$name) -> bool {
                self.as_slice() == other.as_slice()
            }
        }

        impl PartialEq<[$t]> for $name {
            fn eq(&self, other: &[$t]) -> bool {
                self.as_slice() == other
            }
        }

        impl<'a> IntoIterator for &'a $name {
            type Item = &'a $t;
            type IntoIter = std::slice::Iter<'a, $t>;
            fn into_iter(self) -> Self::IntoIter {
                self.as_slice().iter()
            }
        }

        impl FromIterator<$t> for $name {
            fn from_iter<I: IntoIterator<Item = $t>>(iter: I) -> Self {
                $name(Repr::Owned(iter.into_iter().collect()))
            }
        }
    };
}

#[derive(Clone)]
enum Repr<T> {
    Owned(Vec<T>),
    View {
        buf: SharedBytes,
        byte_off: usize,
        len: usize,
    },
}

pod_slice!(FloatSlice, f64, 8, cast::f64s_of, |c: &[u8]| {
    f64::from_le_bytes(c.try_into().expect("chunk of 8"))
});
pod_slice!(U32Slice, u32, 4, cast::u32s_of, |c: &[u8]| {
    u32::from_le_bytes(c.try_into().expect("chunk of 4"))
});

#[cfg(test)]
mod tests {
    use super::*;

    fn le_bytes(vals: &[f64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn aligned_buf_round_trips_any_length() {
        for len in 0..33 {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let buf = AlignedBuf::from_bytes(&bytes);
            assert_eq!(buf.as_slice(), &bytes[..]);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.as_slice().as_ptr() as usize % 8, 0);
        }
    }

    /// A reader that hands out at most `chunk` bytes per call and, like a
    /// `Read` is allowed to, scribbles on the rest of the buffer.
    struct Dribble<'a> {
        src: &'a [u8],
        chunk: usize,
    }

    impl std::io::Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.src.len());
            buf[..n].copy_from_slice(&self.src[..n]);
            buf[n..].fill(0xEE);
            self.src = &self.src[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_from_matches_from_bytes_whatever_the_hint() {
        for len in [0usize, 1, 5, 7, 8, 9, 16, 63, 64, 65, 1000] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            for hint in [0, len.saturating_sub(3), len, len + 8, 4 * len + 1] {
                for chunk in [1, 3, 8, 4096] {
                    let mut r = Dribble { src: &bytes, chunk };
                    let buf = AlignedBuf::read_from(&mut r, hint).unwrap();
                    assert_eq!(buf.as_slice(), &bytes[..], "len {len} hint {hint}");
                    assert_eq!(buf.as_slice().as_ptr() as usize % 8, 0);
                    // The zero tail survives the reader's scribbling, and
                    // growth never keeps more than the spare word.
                    assert!(buf.words.len() <= len.div_ceil(8) + 1);
                    let tail = &cast::bytes_of(&buf.words)[len..];
                    assert!(tail.iter().all(|&b| b == 0), "len {len} hint {hint}");
                }
            }
        }
    }

    #[test]
    fn read_from_surfaces_io_errors() {
        struct Broken;
        impl std::io::Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let err = AlignedBuf::read_from(&mut Broken, 16).unwrap_err();
        assert_eq!(err.to_string(), "disk on fire");
    }

    #[test]
    fn float_view_sees_the_encoded_values() {
        let vals = [1.5, -2.25, f64::NAN, 0.0, 1e300];
        let buf = shared(&le_bytes(&vals));
        let s = FloatSlice::view(&buf, 0, vals.len());
        assert_eq!(s.len(), vals.len());
        for (a, b) in s.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn misaligned_view_falls_back_to_owned_with_identical_values() {
        // 4 bytes of junk, then floats: offset 4 is misaligned for f64.
        let vals = [3.25, -0.5];
        let mut bytes = vec![0xAAu8; 4];
        bytes.extend(le_bytes(&vals));
        let buf = shared(&bytes);
        let s = FloatSlice::view(&buf, 4, vals.len());
        assert!(!s.is_view());
        assert_eq!(&*s, &vals[..]);
        // Offset 4 is fine for u32 (alignment 4).
        let u = U32Slice::view(&buf, 4, 4);
        assert!(u.is_view() || !cfg!(target_endian = "little"));
    }

    #[test]
    fn u32_view_matches_le_decode() {
        let vals = [0u32, 1, u32::MAX, 0xDEAD_BEEF];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = shared(&bytes);
        let s = U32Slice::view(&buf, 0, vals.len());
        assert_eq!(&*s, &vals[..]);
    }

    #[test]
    fn to_mut_is_copy_on_write() {
        let buf = shared(&le_bytes(&[1.0, 2.0, 3.0]));
        let mut s = FloatSlice::view(&buf, 0, 3);
        s.to_mut().push(4.0);
        assert!(!s.is_view());
        assert_eq!(s, vec![1.0, 2.0, 3.0, 4.0]);
        // The backing buffer is untouched.
        let again = FloatSlice::view(&buf, 0, 3);
        assert_eq!(again, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equality_crosses_representations() {
        let buf = shared(&le_bytes(&[7.0, 8.0]));
        let view = FloatSlice::view(&buf, 0, 2);
        let owned: FloatSlice = vec![7.0, 8.0].into();
        assert_eq!(view, owned);
        assert_eq!(view, vec![7.0, 8.0]);
        assert_eq!(vec![7.0, 8.0], view);
    }

    #[test]
    fn views_are_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<FloatSlice>();
        check::<U32Slice>();
        check::<SharedBytes>();
    }

    #[test]
    #[should_panic]
    fn out_of_range_view_panics() {
        let buf = shared(&[0u8; 16]);
        let _ = FloatSlice::view(&buf, 8, 2);
    }
}
