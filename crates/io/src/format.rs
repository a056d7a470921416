//! The binary artifact container.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"ASCNDART"
//! 8       4     format version (u32) — currently 1
//! 12      4     artifact kind (u32)  — 1 model checkpoint, 2 engine
//! 16      4     section count (u32)
//! 20      4     header CRC32 over bytes [8, 24) and the section table,
//!               with this CRC field itself treated as zero
//! 24      24·n  section table: tag [u8;4], payload CRC32 (u32),
//!               offset u64, len u64
//! …             section payloads (concatenated, in table order)
//! ```
//!
//! Integrity story: the header CRC covers version/kind/count and the whole
//! table, each payload carries its own CRC32, and the magic guards the
//! head — so *every* single-bit flip anywhere in a file is detected, and
//! truncation at any byte fails a bounds or CRC check. The reader never
//! indexes unchecked and never allocates from an unvalidated length, so
//! corrupt input yields [`ScError::CorruptArtifact`], not a panic or an
//! OOM.

use std::ops::Range;
use std::path::Path;

use sc_core::ScError;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"ASCNDART";

/// Current format version. Readers reject anything else.
pub const FORMAT_VERSION: u32 = 1;

/// Size of the fixed header preceding the section table.
const HEADER_LEN: usize = 24;

/// Size of one section-table entry.
const ENTRY_LEN: usize = 24;

/// Upper bound on the section count — far above any real artifact, low
/// enough that a corrupt count cannot drive a large allocation.
const MAX_SECTIONS: usize = 256;

/// What an artifact file contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A trained `VitModel` checkpoint.
    ModelCheckpoint,
    /// A compiled `ScEngine` snapshot.
    Engine,
}

impl ArtifactKind {
    fn code(self) -> u32 {
        match self {
            ArtifactKind::ModelCheckpoint => 1,
            ArtifactKind::Engine => 2,
        }
    }

    fn from_code(code: u32) -> Result<Self, ScError> {
        match code {
            1 => Ok(ArtifactKind::ModelCheckpoint),
            2 => Ok(ArtifactKind::Engine),
            other => Err(corrupt(format!("unknown artifact kind {other}"))),
        }
    }
}

/// Shorthand for the corruption error.
pub(crate) fn corrupt(reason: String) -> ScError {
    ScError::CorruptArtifact { reason }
}

/// Maps an `std::io::Error` on `path` into the typed error.
pub(crate) fn io_err(path: &Path, e: std::io::Error) -> ScError {
    ScError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
        not_found: e.kind() == std::io::ErrorKind::NotFound,
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, table-driven)
// ---------------------------------------------------------------------------

fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        #[expect(clippy::cast_possible_truncation, reason = "the loop guard bounds i below 256, well inside u32")]
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE) of `bytes` — the polynomial zlib and PNG use.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Build-once table: const fn-style loop evaluated lazily.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(crc_table);
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Typed payload writer / reader
// ---------------------------------------------------------------------------

/// Builds one section payload out of typed primitives.
///
/// Floats are stored via their IEEE bit patterns, so round-trips are exact
/// to the last ulp — the property the bit-identical-logits guarantee rests
/// on.
#[derive(Debug, Default, Clone)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// An empty payload.
    pub fn new() -> Self {
        SectionWriter::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f32` bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f32(x);
        }
    }

    /// Appends a length-prefixed `usize` slice (as `u64`s).
    pub fn put_usize_slice(&mut self, v: &[usize]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_usize(x);
        }
    }

    /// Appends a tensor as shape + flat data.
    pub fn put_tensor(&mut self, t: &ascend_tensor::Tensor) {
        self.put_usize_slice(t.shape());
        self.put_usize(t.numel());
        for &x in t.data() {
            self.put_f32(x);
        }
    }
}

/// Bounds-checked cursor over one section payload.
///
/// Every getter returns [`ScError::CorruptArtifact`] on truncation; slice
/// getters validate the length prefix against the remaining bytes *before*
/// allocating, so a corrupt length cannot trigger a huge allocation.
#[derive(Debug, Clone)]
pub struct SectionReader<'a> {
    tag: [u8; 4],
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// Wraps raw payload bytes (used directly in tests; artifacts hand out
    /// readers via [`Artifact::section`]).
    pub fn new(tag: [u8; 4], buf: &'a [u8]) -> Self {
        SectionReader { tag, buf, pos: 0 }
    }

    fn truncated(&self, what: &str) -> ScError {
        corrupt(format!(
            "section `{}` truncated reading {what} at offset {} of {}",
            String::from_utf8_lossy(&self.tag),
            self.pos,
            self.buf.len()
        ))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ScError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated(what))?;
        let bytes = self.buf.get(self.pos..end).ok_or_else(|| self.truncated(what))?;
        self.pos = end;
        Ok(bytes)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the payload was consumed exactly — catches format
    /// drift where writer and reader disagree on a section's contents.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), ScError> {
        if self.remaining() != 0 {
            return Err(corrupt(format!(
                "section `{}` has {} trailing bytes",
                String::from_utf8_lossy(&self.tag),
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation.
    pub fn get_u8(&mut self) -> Result<u8, ScError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation.
    pub fn get_u32(&mut self) -> Result<u32, ScError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation.
    pub fn get_u64(&mut self) -> Result<u64, ScError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `u64` and converts to `usize`.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation or if the value does not
    /// fit a `usize`.
    pub fn get_usize(&mut self) -> Result<usize, ScError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| corrupt(format!("length {v} exceeds the address space")))
    }

    /// Reads an `f32` bit pattern.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation.
    pub fn get_f32(&mut self) -> Result<f32, ScError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation.
    pub fn get_f64(&mut self) -> Result<f64, ScError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed `f32` slice.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation (checked before the
    /// allocation).
    pub fn get_f32_slice(&mut self) -> Result<Vec<f32>, ScError> {
        let n = self.get_usize()?;
        if n.checked_mul(4).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(self.truncated("f32 slice"));
        }
        (0..n).map(|_| self.get_f32()).collect()
    }

    /// Reads a length-prefixed `usize` slice.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation (checked before the
    /// allocation).
    pub fn get_usize_slice(&mut self) -> Result<Vec<usize>, ScError> {
        let n = self.get_usize()?;
        if n.checked_mul(8).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(self.truncated("usize slice"));
        }
        (0..n).map(|_| self.get_usize()).collect()
    }

    /// Reads a tensor written by [`SectionWriter::put_tensor`].
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation or if the shape and
    /// element count disagree.
    pub fn get_tensor(&mut self) -> Result<ascend_tensor::Tensor, ScError> {
        let shape = self.get_usize_slice()?;
        let n = self.get_usize()?;
        if n.checked_mul(4).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(self.truncated("tensor data"));
        }
        let data: Vec<f32> = (0..n).map(|_| self.get_f32()).collect::<Result<_, _>>()?;
        ascend_tensor::Tensor::try_from_parts(data, shape).map_err(corrupt)
    }
}

// ---------------------------------------------------------------------------
// Artifact container
// ---------------------------------------------------------------------------

/// Assembles a complete artifact file from tagged sections.
#[derive(Debug, Clone)]
pub struct ArtifactWriter {
    kind: ArtifactKind,
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl ArtifactWriter {
    /// Starts an artifact of the given kind.
    pub fn new(kind: ArtifactKind) -> Self {
        ArtifactWriter { kind, sections: Vec::new() }
    }

    /// Appends a section.
    ///
    /// # Panics
    ///
    /// Panics if the artifact already holds `MAX_SECTIONS` (256) sections — a
    /// larger container could be serialized but never read back.
    pub fn add_section(&mut self, tag: [u8; 4], payload: SectionWriter) {
        assert!(
            self.sections.len() < MAX_SECTIONS,
            "artifact section count would exceed the format cap {MAX_SECTIONS}"
        );
        self.sections.push((tag, payload.into_bytes()));
    }

    /// Serializes the container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let table_len = self.sections.len() * ENTRY_LEN;
        let mut payload_offset = (HEADER_LEN + table_len) as u64;

        // Bytes [8, 24) of the header plus the table, covered by the
        // header CRC.
        let mut covered = Vec::with_capacity(16 + table_len);
        covered.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        covered.extend_from_slice(&self.kind.code().to_le_bytes());
        #[expect(clippy::cast_possible_truncation, reason = "add_section caps the count at MAX_SECTIONS (256), far inside u32")]
        covered.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        covered.extend_from_slice(&0u32.to_le_bytes()); // reserved
        for (tag, payload) in &self.sections {
            covered.extend_from_slice(tag);
            covered.extend_from_slice(&crc32(payload).to_le_bytes());
            covered.extend_from_slice(&payload_offset.to_le_bytes());
            covered.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            payload_offset += payload.len() as u64;
        }

        #[expect(clippy::cast_possible_truncation, reason = "capacity hint only; a truncated hint costs a realloc, never bytes")]
        let mut out = Vec::with_capacity(payload_offset as usize);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&covered[..12]);
        out.extend_from_slice(&crc32(&covered).to_le_bytes());
        out.extend_from_slice(&covered[16..]);
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Writes the artifact to `path` atomically (temp file + rename), so a
    /// crashed writer can never leave a half-written artifact behind and
    /// concurrent writers of the same path each publish a complete file
    /// (last rename wins).
    ///
    /// # Errors
    ///
    /// [`ScError::Io`] on any filesystem failure.
    pub fn write_to(&self, path: &Path) -> Result<(), ScError> {
        // Unique per call — pid alone would collide across threads of one
        // process writing the same path.
        static SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(path, e))?;
            }
        }
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&tmp, self.to_bytes()).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            io_err(path, e)
        })
    }
}

/// A parsed, integrity-verified artifact: the file's bytes, held once,
/// plus the byte range of each section's payload within them.
#[derive(Debug, Clone)]
pub struct Artifact {
    kind: ArtifactKind,
    bytes: Vec<u8>,
    sections: Vec<([u8; 4], Range<usize>)>,
}

impl Artifact {
    /// Parses and fully verifies an artifact image: magic, version, kind,
    /// header CRC, section bounds, and every payload CRC.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] describing the first failed check.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ScError> {
        Self::from_vec(bytes.to_vec())
    }

    /// Reads an artifact file with one `fs::read` and verifies it exactly
    /// as [`Artifact::from_bytes`] does, without copying the payloads.
    ///
    /// # Errors
    ///
    /// [`ScError::Io`] if the file cannot be read (`not_found` set when the
    /// path does not exist), [`ScError::CorruptArtifact`] if verification
    /// fails.
    pub fn read_from(path: &Path) -> Result<Self, ScError> {
        Self::from_vec(std::fs::read(path).map_err(|e| io_err(path, e))?)
    }

    /// Verifies an artifact image — magic, version, kind, header CRC,
    /// section bounds, and every payload CRC — and keeps it as is, each
    /// section a range into it.
    fn from_vec(bytes: Vec<u8>) -> Result<Self, ScError> {
        let header = bytes
            .get(..HEADER_LEN)
            .ok_or_else(|| corrupt(format!("file of {} bytes is shorter than the header", bytes.len())))?;
        if header[..8] != MAGIC {
            return Err(corrupt("bad magic — not an ASCEND artifact".into()));
        }
        let word =
            |at: usize| u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        let version = word(8);
        if version != FORMAT_VERSION {
            return Err(corrupt(format!(
                "format version {version} unsupported (reader speaks {FORMAT_VERSION})"
            )));
        }
        let kind = ArtifactKind::from_code(word(12))?;
        let count = usize::try_from(word(16))
            .map_err(|_| corrupt(format!("section count {} does not fit usize", word(16))))?;
        if count > MAX_SECTIONS {
            return Err(corrupt(format!("section count {count} exceeds the cap {MAX_SECTIONS}")));
        }
        let stored_header_crc = word(20);

        let table_end = HEADER_LEN + count * ENTRY_LEN;
        let table = bytes
            .get(HEADER_LEN..table_end)
            .ok_or_else(|| corrupt("file truncated inside the section table".into()))?;

        // Recompute the header CRC over [8, 24) (with the CRC field itself
        // zeroed via the reserved slot) + table.
        let mut covered = Vec::with_capacity(16 + table.len());
        covered.extend_from_slice(&bytes[8..20]);
        covered.extend_from_slice(&0u32.to_le_bytes());
        covered.extend_from_slice(table);
        if crc32(&covered) != stored_header_crc {
            return Err(corrupt("header CRC mismatch — section table corrupt".into()));
        }

        let mut sections = Vec::with_capacity(count);
        let mut expected_offset = table_end as u64;
        for i in 0..count {
            let e = &table[i * ENTRY_LEN..(i + 1) * ENTRY_LEN];
            let tag = [e[0], e[1], e[2], e[3]];
            let crc = u32::from_le_bytes([e[4], e[5], e[6], e[7]]);
            let offset = u64::from_le_bytes([e[8], e[9], e[10], e[11], e[12], e[13], e[14], e[15]]);
            let len = u64::from_le_bytes([e[16], e[17], e[18], e[19], e[20], e[21], e[22], e[23]]);
            if offset != expected_offset {
                return Err(corrupt(format!(
                    "section {i} at offset {offset}, expected {expected_offset}"
                )));
            }
            let start = usize::try_from(offset)
                .map_err(|_| corrupt(format!("section {i} offset {offset} out of range")))?;
            let end = offset
                .checked_add(len)
                .and_then(|e| usize::try_from(e).ok())
                .ok_or_else(|| corrupt(format!("section {i} length {len} out of range")))?;
            let payload = bytes
                .get(start..end)
                .ok_or_else(|| corrupt(format!("section {i} extends past the file end")))?;
            if crc32(payload) != crc {
                return Err(corrupt(format!(
                    "section `{}` payload CRC mismatch",
                    String::from_utf8_lossy(&tag)
                )));
            }
            sections.push((tag, start..end));
            expected_offset += len;
        }
        if expected_offset != bytes.len() as u64 {
            return Err(corrupt(format!(
                "file has {} bytes, sections end at {expected_offset}",
                bytes.len()
            )));
        }
        Ok(Artifact { kind, bytes, sections })
    }

    /// The artifact kind.
    pub fn kind(&self) -> ArtifactKind {
        self.kind
    }

    /// Errors unless the artifact is of `want` kind.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] naming both kinds.
    pub fn expect_kind(&self, want: ArtifactKind) -> Result<(), ScError> {
        if self.kind != want {
            return Err(corrupt(format!("artifact is {:?}, expected {want:?}", self.kind)));
        }
        Ok(())
    }

    /// Tags and payload sizes, in file order (for `ascend-cli info`).
    pub fn section_index(&self) -> Vec<(String, usize)> {
        self.sections
            .iter()
            .map(|(tag, range)| (String::from_utf8_lossy(tag).into_owned(), range.len()))
            .collect()
    }

    /// A reader over the payload of the section tagged `tag`.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] if the section is absent.
    pub fn section(&self, tag: [u8; 4]) -> Result<SectionReader<'_>, ScError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(t, range)| SectionReader::new(*t, &self.bytes[range.clone()]))
            .ok_or_else(|| {
                corrupt(format!("missing section `{}`", String::from_utf8_lossy(&tag)))
            })
    }

    /// Whether a section is present (for optional sections).
    pub fn has_section(&self, tag: [u8; 4]) -> bool {
        self.sections.iter().any(|(t, _)| *t == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_tensor::Tensor;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn tiny_artifact() -> ArtifactWriter {
        let mut w = ArtifactWriter::new(ArtifactKind::ModelCheckpoint);
        let mut s = SectionWriter::new();
        s.put_u32(7);
        s.put_f64(std::f64::consts::PI);
        s.put_f32_slice(&[1.0, -2.5, 3.25]);
        s.put_tensor(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        w.add_section(*b"TST1", s);
        let mut s2 = SectionWriter::new();
        s2.put_usize_slice(&[4, 5, 6]);
        w.add_section(*b"TST2", s2);
        w
    }

    #[test]
    fn roundtrip_preserves_every_field_bit_exactly() {
        let bytes = tiny_artifact().to_bytes();
        let art = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(art.kind(), ArtifactKind::ModelCheckpoint);
        assert!(art.has_section(*b"TST1"));
        assert!(!art.has_section(*b"NOPE"));
        let mut r = art.section(*b"TST1").unwrap();
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_f64().unwrap().to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(r.get_f32_slice().unwrap(), vec![1.0, -2.5, 3.25]);
        let t = r.get_tensor().unwrap();
        assert_eq!(t, Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        r.expect_end().unwrap();
        let mut r2 = art.section(*b"TST2").unwrap();
        assert_eq!(r2.get_usize_slice().unwrap(), vec![4, 5, 6]);
        r2.expect_end().unwrap();
    }

    #[test]
    fn missing_section_and_wrong_kind_are_typed_errors() {
        let bytes = tiny_artifact().to_bytes();
        let art = Artifact::from_bytes(&bytes).unwrap();
        assert!(matches!(
            art.section(*b"NOPE"),
            Err(ScError::CorruptArtifact { .. })
        ));
        assert!(art.expect_kind(ArtifactKind::ModelCheckpoint).is_ok());
        assert!(matches!(
            art.expect_kind(ArtifactKind::Engine),
            Err(ScError::CorruptArtifact { .. })
        ));
    }

    #[test]
    fn reader_rejects_oversized_length_prefix_without_allocating() {
        let mut s = SectionWriter::new();
        s.put_u64(u64::MAX); // absurd slice length prefix
        let bytes = s.into_bytes();
        let mut r = SectionReader::new(*b"LEN!", &bytes);
        assert!(matches!(r.get_f32_slice(), Err(ScError::CorruptArtifact { .. })));
        let mut r = SectionReader::new(*b"LEN!", &bytes);
        assert!(matches!(r.get_usize_slice(), Err(ScError::CorruptArtifact { .. })));
    }

    #[test]
    fn expect_end_catches_trailing_bytes() {
        let mut s = SectionWriter::new();
        s.put_u32(1);
        s.put_u32(2);
        let bytes = s.into_bytes();
        let mut r = SectionReader::new(*b"TAIL", &bytes);
        r.get_u32().unwrap();
        assert!(matches!(r.expect_end(), Err(ScError::CorruptArtifact { .. })));
    }

    #[test]
    fn atomic_write_then_read_from_disk() {
        let dir = std::env::temp_dir().join(format!("ascend-io-test-{}", std::process::id()));
        let path = dir.join("t.art");
        tiny_artifact().write_to(&path).unwrap();
        let art = Artifact::read_from(&path).unwrap();
        assert_eq!(art.section_index(), vec![("TST1".to_string(), 80), ("TST2".to_string(), 32)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_from_missing_file_is_io_error() {
        let err = Artifact::read_from(Path::new("/nonexistent/ascend/artifact")).unwrap_err();
        assert!(matches!(err, ScError::Io { not_found: true, .. }));
    }
}
