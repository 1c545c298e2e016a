//! The binary-codec substrate shared by every hand-rolled format in the
//! workspace: SIMMRBIN traces (`simmr_trace::binfmt`), trace digests
//! (`simmr_trace::digest`), SIMMRCKP checkpoints ([`crate::checkpoint`])
//! and the policy `snapshot`/`restore` blobs embedded in them.
//!
//! It holds four pieces, and each format owns only its own layout on top
//! of them:
//!
//! * little-endian `put_*` writers over a `Vec<u8>`;
//! * [`Reader`], one bounds-checked cursor with typed [`DecodeError`]s.
//!   Every count it sizes anything from — a `u32` prefix read by
//!   [`Reader::count`], or a template count stored elsewhere and passed
//!   to [`Reader::templates`] — is first checked against the bytes that
//!   remain, so a hostile count is a truncation error, never a huge
//!   allocation;
//! * [`Crc32`] (IEEE) and [`Crc64`] (CRC-64/XZ), slice-by-8: eight
//!   bytes per step through eight 256-entry tables, the byte-at-a-time
//!   loop only for a tail shorter than a word;
//! * the [`JobTemplate`] codec and its content-interning [`TemplateTable`].
//!   The template layout is SIMMRBIN's — length-prefixed name, the four
//!   array lengths (map, first-shuffle, typical-shuffle, reduce), then the
//!   four duration arrays as raw `u64`s — because SIMMRBIN bytes (and the
//!   trace digests and serve cache keys computed from them) must never
//!   change.

use simmr_types::{JobTemplate, TemplateError};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

// ---- checksums -------------------------------------------------------------

/// Defines a reflected CRC with all-ones init and xor-out, computed
/// slice-by-8.
///
/// `$table[0]` is the classic byte table: one step folds one byte into
/// the register. `$table[k][i]` is `$table[0][i]` advanced `k` more zero
/// bytes, so one step over a little-endian 64-bit word `x` (the register
/// xored into its low bytes) is the xor of `$table[7 - j]` at byte `j` of
/// `x`, for `j` in `0..8` — the same value eight byte steps give.
macro_rules! reflected_crc {
    ($(#[$doc:meta])* $name:ident, $table:ident, $t:ty, $poly:expr) => {
        const $table: [[$t; 256]; 8] = {
            let mut table = [[0; 256]; 8];
            let mut i = 0;
            while i < 256 {
                let mut c = i as $t;
                let mut k = 0;
                while k < 8 {
                    c = if c & 1 != 0 { $poly ^ (c >> 1) } else { c >> 1 };
                    k += 1;
                }
                table[0][i] = c;
                i += 1;
            }
            let mut k = 1;
            while k < 8 {
                let mut i = 0;
                while i < 256 {
                    let prev = table[k - 1][i];
                    table[k][i] = (prev >> 8) ^ table[0][(prev & 0xFF) as usize];
                    i += 1;
                }
                k += 1;
            }
            table
        };

        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name($t);

        impl $name {
            /// A fresh checksum state.
            pub fn new() -> Self {
                $name(<$t>::MAX)
            }

            /// Feeds bytes into the checksum.
            pub fn update(&mut self, bytes: &[u8]) {
                let mut c = self.0;
                let mut words = bytes.chunks_exact(8);
                for word in &mut words {
                    let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ c as u64;
                    c = $table[7][(x & 0xFF) as usize]
                        ^ $table[6][(x >> 8 & 0xFF) as usize]
                        ^ $table[5][(x >> 16 & 0xFF) as usize]
                        ^ $table[4][(x >> 24 & 0xFF) as usize]
                        ^ $table[3][(x >> 32 & 0xFF) as usize]
                        ^ $table[2][(x >> 40 & 0xFF) as usize]
                        ^ $table[1][(x >> 48 & 0xFF) as usize]
                        ^ $table[0][(x >> 56) as usize];
                }
                for &b in words.remainder() {
                    c = $table[0][((c ^ b as $t) & 0xFF) as usize] ^ (c >> 8);
                }
                self.0 = c;
            }

            /// The final checksum value.
            pub fn finish(&self) -> $t {
                self.0 ^ <$t>::MAX
            }

            /// The checksum of `bytes` in one call.
            pub fn checksum(bytes: &[u8]) -> $t {
                let mut c = $name::new();
                c.update(bytes);
                c.finish()
            }
        }

        impl Default for $name {
            fn default() -> Self {
                $name::new()
            }
        }
    };
}

reflected_crc!(
    /// Streaming CRC-32 (IEEE 802.3, the zlib/PNG polynomial) — the
    /// SIMMRBIN body checksum.
    Crc32,
    CRC32_TABLE,
    u32,
    0xEDB8_8320
);

reflected_crc!(
    /// Streaming CRC-64/XZ (ECMA-182 polynomial, reflected) — the SIMMRCKP
    /// trailer and the trace/checkpoint content digests.
    Crc64,
    CRC64_TABLE,
    u64,
    0xC96C_5795_D787_0F42
);

// ---- little-endian writers -------------------------------------------------

/// Appends a `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends an optional `u64` as a 0/1 tag byte plus the value.
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

/// Appends a `u32` count, then the values.
pub(crate) fn put_u32_vec(out: &mut Vec<u8>, v: &[u32]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u32(out, x);
    }
}

/// Appends a `u32` count, then one 0/1 byte per value.
pub(crate) fn put_bool_vec(out: &mut Vec<u8>, v: &[bool]) {
    put_u32(out, v.len() as u32);
    out.extend(v.iter().map(|&b| b as u8));
}

/// Appends a `u32` count, then each value's IEEE-754 bits.
pub(crate) fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u64(out, x.to_bits());
    }
}

/// Appends one template in the SIMMRBIN layout: name, the four array
/// lengths, then the four duration arrays.
fn put_template(out: &mut Vec<u8>, t: &JobTemplate) {
    put_str(out, &t.name);
    let arrays = [
        &t.map_durations,
        &t.first_shuffle_durations,
        &t.typical_shuffle_durations,
        &t.reduce_durations,
    ];
    for a in arrays {
        put_u32(out, a.len() as u32);
    }
    for a in arrays {
        for &d in a.iter() {
            put_u64(out, d);
        }
    }
}

/// Smallest encoded template: an empty name's length prefix plus the four
/// array lengths.
const TEMPLATE_MIN_BYTES: usize = 4 + 4 * 4;

/// A content-interned template table: identical templates share one
/// entry, numbered in first-appearance order, so encoding the same
/// template sequence always yields the same table bytes.
#[derive(Debug, Default)]
pub struct TemplateTable {
    bytes: Vec<u8>,
    ids: HashMap<Vec<u8>, u32>,
    count: u32,
}

impl TemplateTable {
    /// Adds `t` (or finds its existing entry) and returns its index.
    pub fn intern(&mut self, t: &JobTemplate) -> u32 {
        let durations = t.map_durations.len()
            + t.first_shuffle_durations.len()
            + t.typical_shuffle_durations.len()
            + t.reduce_durations.len();
        let mut key = Vec::with_capacity(TEMPLATE_MIN_BYTES + t.name.len() + 8 * durations);
        put_template(&mut key, t);
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.count;
        self.bytes.extend_from_slice(&key);
        self.ids.insert(key, id);
        self.count += 1;
        id
    }

    /// Number of distinct templates.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The encoded table: every entry back to back, in index order.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Drops the dedup index once no more templates will be interned;
    /// the table bytes and count stay.
    pub fn seal(&mut self) {
        self.ids = HashMap::new();
    }
}

// ---- bounds-checked reader -------------------------------------------------

/// Why a byte buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends before a field it promises, or a count claims more
    /// items than the remaining bytes could hold.
    Truncated,
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A tag byte (option presence, boolean) is outside its range.
    BadTag {
        /// What the byte tags.
        field: &'static str,
        /// The byte found.
        tag: u8,
    },
    /// A decoded template fails [`JobTemplate::validate`].
    InvalidTemplate(TemplateError),
    /// Bytes remain after the structure was fully read.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "data is truncated"),
            DecodeError::BadUtf8 => write!(f, "invalid UTF-8 string"),
            DecodeError::BadTag { field, tag } => write!(f, "invalid {field} tag {tag}"),
            DecodeError::InvalidTemplate(e) => write!(f, "invalid job template: {e}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Policy `restore` hooks report errors as `String`s; this lets them use
/// `?` on [`Reader`] calls directly.
impl From<DecodeError> for String {
    fn from(e: DecodeError) -> Self {
        format!("malformed policy snapshot: {e}")
    }
}

fn bool_from_tag(tag: u8) -> Result<bool, DecodeError> {
    match tag {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(DecodeError::BadTag { field: "boolean", tag }),
    }
}

/// A bounds-checked little-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a strict 0/1 boolean byte.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        self.u8().and_then(bool_from_tag)
    }

    /// Reads a value written by [`put_opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => self.u64().map(Some),
            tag => Err(DecodeError::BadTag { field: "option", tag }),
        }
    }

    /// Reads a string written by [`put_str`], borrowing it from the input.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError::BadUtf8)
    }

    /// Checks that `n` items of at least `item_bytes` bytes each could fit
    /// in the remaining input, and returns `n`. Call it before sizing
    /// anything from a decoded count.
    pub(crate) fn fits(&self, n: usize, item_bytes: usize) -> Result<usize, DecodeError> {
        match n.checked_mul(item_bytes) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(DecodeError::Truncated),
        }
    }

    /// Reads a `u32` count of items that are each at least `item_bytes`
    /// long, checked with `Reader::fits`.
    pub fn count(&mut self, item_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        self.fits(n, item_bytes)
    }

    /// Reads `n` raw `u64`s (no count prefix).
    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, DecodeError> {
        let raw = self.take(n.checked_mul(8).ok_or(DecodeError::Truncated)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads a vector written by [`put_u32_vec`].
    pub(crate) fn u32_vec(&mut self) -> Result<Vec<u32>, DecodeError> {
        let n = self.count(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Reads a vector written by [`put_bool_vec`].
    pub(crate) fn bool_vec(&mut self) -> Result<Vec<bool>, DecodeError> {
        let n = self.count(1)?;
        self.take(n)?.iter().map(|&tag| bool_from_tag(tag)).collect()
    }

    /// Reads a vector written by [`put_f64_vec`].
    pub(crate) fn f64_vec(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.count(8)?;
        Ok(self.u64s(n)?.into_iter().map(f64::from_bits).collect())
    }

    /// Reads one template written by [`put_template`] and validates it.
    fn template(&mut self) -> Result<JobTemplate, DecodeError> {
        let name: Arc<str> = self.str()?.into();
        let maps = self.u32()? as usize;
        let firsts = self.u32()? as usize;
        let typicals = self.u32()? as usize;
        let reduces = self.u32()? as usize;
        let template = JobTemplate {
            name,
            num_maps: maps,
            num_reduces: reduces,
            map_durations: self.u64s(maps)?,
            first_shuffle_durations: self.u64s(firsts)?,
            typical_shuffle_durations: self.u64s(typicals)?,
            reduce_durations: self.u64s(reduces)?,
        };
        template.validate().map_err(DecodeError::InvalidTemplate)?;
        Ok(template)
    }

    /// Reads a [`TemplateTable`] of `count` entries. The count is checked
    /// against the remaining bytes before the table is sized.
    pub fn templates(&mut self, count: usize) -> Result<Vec<Arc<JobTemplate>>, DecodeError> {
        let count = self.fits(count, TEMPLATE_MIN_BYTES)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(Arc::new(self.template()?));
        }
        Ok(out)
    }

    /// Asserts the input was consumed exactly.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_check_values() {
        // the standard check input for both parameterizations
        assert_eq!(Crc32::checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc64::checksum(b"123456789"), 0x995D_C9BB_DF19_39FA);
        // streaming in pieces matches one-shot
        let mut c = Crc64::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), Crc64::checksum(b"123456789"));
        // past one 8-byte word, and the empty input
        let long = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(Crc32::checksum(long), 0x414F_A339);
        assert_eq!(Crc64::checksum(long), 0x5B5E_B8C2_E54A_A1C4);
        assert_eq!((Crc32::checksum(b""), Crc64::checksum(b"")), (0, 0));
    }

    /// One bit at a time from the polynomial, no table: the reference
    /// the slice-by-8 kernel must reproduce.
    fn bitwise_crc(poly: u64, width_mask: u64, bytes: &[u8]) -> u64 {
        let mut c = width_mask;
        for &b in bytes {
            c ^= b as u64;
            for _ in 0..8 {
                c = if c & 1 != 0 { poly ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ width_mask
    }

    proptest::proptest! {
        /// Slice-by-8 equals the bitwise reference at every length
        /// (word-aligned or not) and however a stream is split across
        /// `update` calls.
        #[test]
        fn slice_by_8_matches_bitwise_reference(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..6),
        ) {
            let crc32 = bitwise_crc(0xEDB8_8320, u32::MAX as u64, &bytes);
            let crc64 = bitwise_crc(0xC96C_5795_D787_0F42, u64::MAX, &bytes);
            proptest::prop_assert_eq!(Crc32::checksum(&bytes) as u64, crc32);
            proptest::prop_assert_eq!(Crc64::checksum(&bytes), crc64);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let (mut s32, mut s64, mut from) = (Crc32::new(), Crc64::new(), 0);
            for to in cuts {
                s32.update(&bytes[from..to]);
                s64.update(&bytes[from..to]);
                from = to;
            }
            proptest::prop_assert_eq!(s32.finish() as u64, crc32);
            proptest::prop_assert_eq!(s64.finish(), crc64);
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut out = Vec::new();
        put_u16(&mut out, 0xBEEF);
        put_str(&mut out, "sim\u{e9}");
        put_opt_u64(&mut out, None);
        put_opt_u64(&mut out, Some(u64::MAX));
        put_u32_vec(&mut out, &[1, 2, 3]);
        put_bool_vec(&mut out, &[true, false]);
        put_f64_vec(&mut out, &[1.5, -0.0]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.str().unwrap(), "sim\u{e9}");
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(u64::MAX));
        assert_eq!(r.u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.bool_vec().unwrap(), vec![true, false]);
        let f = r.f64_vec().unwrap();
        assert_eq!((f[0], f[1].to_bits()), (1.5, (-0.0f64).to_bits()));
        r.finish().unwrap();
    }

    #[test]
    fn reader_errors_are_typed() {
        assert_eq!(Reader::new(&[1, 2, 3]).u32(), Err(DecodeError::Truncated));
        assert_eq!(
            Reader::new(&[2]).opt_u64(),
            Err(DecodeError::BadTag { field: "option", tag: 2 })
        );
        assert_eq!(Reader::new(&[7]).bool(), Err(DecodeError::BadTag { field: "boolean", tag: 7 }));
        assert_eq!(Reader::new(&[2, 0, 0, 0, 0xFF, 0xFE]).str(), Err(DecodeError::BadUtf8));
        assert_eq!(Reader::new(&[0, 9]).finish(), Err(DecodeError::TrailingBytes(2)));
    }

    #[test]
    fn counts_are_checked_against_remaining_bytes() {
        // u32::MAX items claimed with four bytes left: rejected before any
        // allocation is sized from it
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 4]);
        assert_eq!(Reader::new(&buf).count(1), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&buf).u32_vec(), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&[]).templates(u32::MAX as usize), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&[]).fits(usize::MAX, 2), Err(DecodeError::Truncated));
        // exactly enough bytes is fine
        let mut r = Reader::new(&[1, 0, 0, 0, 9, 0, 0, 0]);
        assert_eq!(r.count(4), Ok(1));
    }

    #[test]
    fn template_table_interns_and_round_trips() {
        let wc = JobTemplate::new("wc", vec![10, 20], vec![5], vec![6, 7], vec![30]).unwrap();
        let grep = JobTemplate::new("grep", vec![4], vec![], vec![], vec![]).unwrap();
        let mut table = TemplateTable::default();
        assert_eq!(table.intern(&wc), 0);
        assert_eq!(table.intern(&grep), 1);
        assert_eq!(table.intern(&wc.clone()), 0);
        assert_eq!(table.count(), 2);
        let mut r = Reader::new(table.bytes());
        let back = r.templates(2).unwrap();
        r.finish().unwrap();
        assert_eq!((&*back[0], &*back[1]), (&wc, &grep));

        // a structurally invalid template is typed, not a panic
        let mut bad = Vec::new();
        put_template(&mut bad, &grep);
        bad[4 + 4..4 + 4 + 4].copy_from_slice(&0u32.to_le_bytes()); // zero maps
        bad.truncate(bad.len() - 8);
        assert_eq!(
            Reader::new(&bad).template(),
            Err(DecodeError::InvalidTemplate(TemplateError::NoMapTasks))
        );
    }
}
