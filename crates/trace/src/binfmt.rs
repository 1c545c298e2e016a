//! Compact binary trace format (`.trace.bin`).
//!
//! The JSON trace files are convenient to inspect but hopeless at the
//! million-job scale the ROADMAP targets: a Facebook-mix job template is
//! several KB of JSON, and loading requires materializing the whole job
//! vector. This module defines **SIMMRBIN v1**, a length-prefixed,
//! versioned, checksummed layout in which job templates are written once
//! into an interning table and every job is a fixed 21-byte record —
//! pennies per job, and streamable.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "SIMMRBIN"
//!      8     2  version (currently 1)
//!     10     2  reserved (zero)
//!     12     8  job_count
//!     20     8  first_arrival in ms (u64::MAX when job_count == 0)
//!     28     4  meta_len      — byte length of the meta section
//!     32     4  template_count
//!     36     8  template_bytes — byte length of the template table
//!     44     4  crc32 (IEEE) over meta ++ templates ++ records
//!     48     …  meta section, template table, then job records
//! ```
//!
//! *Meta section*: `description` and `source` as `u32` length-prefixed
//! UTF-8, then a seed flag byte and the `u64` seed.
//!
//! *Template table*: `template_count` entries, each a length-prefixed
//! name, four `u32` array lengths (map, first-shuffle, typical-shuffle,
//! reduce) and the four duration arrays as raw `u64`s. Identical
//! templates are interned: the table stores one copy, records refer to it
//! by index. The template codec, the interning table, the CRC-32 and the
//! bounds-checked reader are the shared ones in [`simmr_core::codec`];
//! this module owns only the header, meta and record layouts.
//!
//! *Job records*: `job_count` fixed-stride 21-byte entries sorted by
//! `(arrival, insertion order)` — `template_index: u32`, `arrival: u64`,
//! a deadline flag byte, `deadline: u64`. The sort makes the file
//! directly streamable into the engine's arrival-ordered
//! [`simmr_core::JobSource`] contract.
//!
//! Readers: [`BinTraceReader`] parses an in-memory byte slice (checksum
//! verified once, records then read zero-copy by index) and
//! [`BinTraceSource`] streams a file through a small buffer without ever
//! materializing the job vector. Writers: [`BinTraceWriter`] streams
//! records to any `Write + Seek` sink with flat memory;
//! [`encode_trace`]/[`decode_trace`] convert a materialized
//! [`WorkloadTrace`].

use simmr_core::codec::{
    put_str, put_u16, put_u32, put_u64, Crc32, DecodeError, Reader, TemplateTable,
};
use simmr_core::{JobSource, SourceError, SourcedJob};
use simmr_types::{JobSpec, JobTemplate, SimTime, TemplateError, TraceMeta, WorkloadTrace};
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// File magic: the first 8 bytes of every binary trace.
pub const MAGIC: [u8; 8] = *b"SIMMRBIN";
/// Current format version.
pub const VERSION: u16 = 1;
/// Header size in bytes.
pub const HEADER_BYTES: usize = 48;
/// Fixed job-record stride in bytes.
pub const RECORD_BYTES: usize = 21;

/// Errors raised by the binary codec. Every corruption mode maps to a
/// typed variant — decoding never panics on hostile input.
#[derive(Debug)]
pub enum BinError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// The input ends before a section or record it promises.
    Truncated,
    /// Body checksum does not match the header.
    ChecksumMismatch {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC computed over the body.
        actual: u32,
    },
    /// A length-prefixed string is not valid UTF-8.
    BadUtf8,
    /// A job record names a template past the table.
    BadTemplateIndex {
        /// Index found in the record.
        index: u32,
        /// Number of templates in the table.
        count: u32,
    },
    /// A template fails [`JobTemplate::validate`].
    InvalidTemplate(TemplateError),
    /// Job records are not sorted by arrival (writer misuse, or a file
    /// whose body was rewritten around the checksum).
    ArrivalOrder,
    /// [`BinTraceWriter::intern_template`] called after the first
    /// `push_job` — the template table is already on disk.
    TemplatesSealed,
    /// [`BinTraceReader::record`] asked for a record past the last one.
    RecordOutOfRange {
        /// Index asked for.
        index: usize,
        /// Number of job records.
        count: usize,
    },
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "binary trace I/O error: {e}"),
            BinError::BadMagic => write!(f, "not a SIMMRBIN trace (bad magic)"),
            BinError::BadVersion(v) => {
                write!(f, "unsupported SIMMRBIN version {v} (expected {VERSION})")
            }
            BinError::Truncated => write!(f, "binary trace is truncated"),
            BinError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: header {expected:#010x}, body {actual:#010x}")
            }
            BinError::BadUtf8 => write!(f, "binary trace holds invalid UTF-8"),
            BinError::BadTemplateIndex { index, count } => {
                write!(f, "job record names template {index} but the table holds {count}")
            }
            BinError::InvalidTemplate(e) => write!(f, "invalid job template: {e}"),
            BinError::ArrivalOrder => write!(f, "job records are not sorted by arrival"),
            BinError::TemplatesSealed => {
                write!(f, "cannot intern templates after the first job record")
            }
            BinError::RecordOutOfRange { index, count } => {
                write!(f, "job record {index} is out of range (the trace holds {count})")
            }
        }
    }
}

impl std::error::Error for BinError {}

impl From<io::Error> for BinError {
    fn from(e: io::Error) -> Self {
        BinError::Io(e)
    }
}

impl From<TemplateError> for BinError {
    fn from(e: TemplateError) -> Self {
        BinError::InvalidTemplate(e)
    }
}

// ---------------------------------------------------------------------------
// Section codecs on the shared `simmr_core::codec` writers and reader.

/// SIMMRBIN has no tagged fields, and a section whose contents disagree
/// with its declared length is reported as truncation.
impl From<DecodeError> for BinError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::BadUtf8 => BinError::BadUtf8,
            DecodeError::InvalidTemplate(e) => BinError::InvalidTemplate(e),
            DecodeError::Truncated | DecodeError::BadTag { .. } | DecodeError::TrailingBytes(_) => {
                BinError::Truncated
            }
        }
    }
}

fn encode_meta(meta: &TraceMeta) -> Vec<u8> {
    let mut out = Vec::with_capacity(meta.description.len() + meta.source.len() + 17);
    put_str(&mut out, &meta.description);
    put_str(&mut out, &meta.source);
    out.push(meta.seed.is_some() as u8);
    put_u64(&mut out, meta.seed.unwrap_or(0));
    out
}

fn encode_record(template_index: u32, arrival: SimTime, deadline: Option<SimTime>) -> [u8; 21] {
    let mut rec = [0u8; RECORD_BYTES];
    rec[0..4].copy_from_slice(&template_index.to_le_bytes());
    rec[4..12].copy_from_slice(&arrival.as_millis().to_le_bytes());
    rec[12] = deadline.is_some() as u8;
    rec[13..21].copy_from_slice(&deadline.map_or(0, SimTime::as_millis).to_le_bytes());
    rec
}

fn decode_meta(bytes: &[u8]) -> Result<TraceMeta, BinError> {
    let mut r = Reader::new(bytes);
    let description = r.str()?.to_owned();
    let source = r.str()?.to_owned();
    let has_seed = r.u8()? != 0;
    let seed = r.u64()?;
    r.finish()?;
    Ok(TraceMeta { description, source, seed: has_seed.then_some(seed) })
}

/// Decodes the template table. `count` comes from the header, so it is
/// checked against the section's bytes before the table is sized.
fn decode_templates(bytes: &[u8], count: u32) -> Result<Vec<Arc<JobTemplate>>, BinError> {
    let mut r = Reader::new(bytes);
    let templates = r.templates(count as usize)?;
    r.finish()?;
    Ok(templates)
}

/// One decoded job record (the template stays in the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinRecord {
    /// Index into the template table.
    pub template_index: u32,
    /// Job submission time.
    pub arrival: SimTime,
    /// Optional absolute deadline.
    pub deadline: Option<SimTime>,
}

/// Reads one fixed-stride job record and checks its template index
/// against a table of `templates` entries.
fn decode_record(r: &mut Reader, templates: usize) -> Result<BinRecord, BinError> {
    let template_index = r.u32()?;
    let arrival = SimTime::from_millis(r.u64()?);
    let has_deadline = r.u8()? != 0;
    let deadline = r.u64()?;
    if template_index as usize >= templates {
        return Err(BinError::BadTemplateIndex { index: template_index, count: templates as u32 });
    }
    Ok(BinRecord {
        template_index,
        arrival,
        deadline: has_deadline.then_some(SimTime::from_millis(deadline)),
    })
}

/// The parsed header of a binary trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    job_count: u64,
    first_arrival: u64,
    meta_len: u32,
    template_count: u32,
    template_bytes: u64,
    crc: u32,
}

impl Header {
    fn parse(bytes: &[u8]) -> Result<Header, BinError> {
        if bytes.len() < HEADER_BYTES {
            // an empty or tiny file is "not this format" only when even the
            // magic is absent; a good magic with a short header is truncation
            if bytes.len() >= 8 && bytes[..8] == MAGIC {
                return Err(BinError::Truncated);
            }
            return Err(BinError::BadMagic);
        }
        let mut r = Reader::new(bytes);
        if r.take(8)? != MAGIC {
            return Err(BinError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(BinError::BadVersion(version));
        }
        r.take(2)?; // reserved
        Ok(Header {
            job_count: r.u64()?,
            first_arrival: r.u64()?,
            meta_len: r.u32()?,
            template_count: r.u32()?,
            template_bytes: r.u64()?,
            crc: r.u32()?,
        })
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES);
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, VERSION);
        put_u16(&mut out, 0); // reserved
        put_u64(&mut out, self.job_count);
        put_u64(&mut out, self.first_arrival);
        put_u32(&mut out, self.meta_len);
        put_u32(&mut out, self.template_count);
        put_u64(&mut out, self.template_bytes);
        put_u32(&mut out, self.crc);
        out
    }

    fn record_bytes(&self) -> Result<u64, BinError> {
        self.job_count.checked_mul(RECORD_BYTES as u64).ok_or(BinError::Truncated)
    }

    /// Body length: meta + templates + records.
    fn body_bytes(&self) -> Result<u64, BinError> {
        (self.meta_len as u64)
            .checked_add(self.template_bytes)
            .and_then(|n| n.checked_add(self.record_bytes().ok()?))
            .ok_or(BinError::Truncated)
    }
}

// ---------------------------------------------------------------------------
// Writer

/// Streaming binary-trace writer over any `Write + Seek` sink.
///
/// Usage: intern every template first, then push jobs **in arrival
/// order**; `finish` back-patches the header. Memory stays flat in the
/// job count — only the meta and template sections are buffered (they
/// precede the records on disk but their sizes are unknown until the
/// first push seals them).
#[derive(Debug)]
pub struct BinTraceWriter<W: Write + Seek> {
    out: W,
    meta_bytes: Vec<u8>,
    templates: TemplateTable,
    sealed: bool,
    crc: Crc32,
    job_count: u64,
    first_arrival: Option<SimTime>,
    last_arrival: SimTime,
}

impl<W: Write + Seek> BinTraceWriter<W> {
    /// Starts a trace with the given provenance metadata.
    pub fn new(out: W, meta: &TraceMeta) -> Self {
        BinTraceWriter {
            out,
            meta_bytes: encode_meta(meta),
            templates: TemplateTable::default(),
            sealed: false,
            crc: Crc32::new(),
            job_count: 0,
            first_arrival: None,
            last_arrival: SimTime::ZERO,
        }
    }

    /// Adds `template` to the interning table (or finds its existing
    /// entry) and returns its record index. Must precede the first
    /// [`Self::push_job`].
    pub fn intern_template(&mut self, template: &JobTemplate) -> Result<u32, BinError> {
        if self.sealed {
            return Err(BinError::TemplatesSealed);
        }
        template.validate()?;
        Ok(self.templates.intern(template))
    }

    /// Writes the placeholder header plus the meta and template sections;
    /// after this no more templates can be interned.
    fn seal(&mut self) -> Result<(), BinError> {
        self.out.write_all(&[0u8; HEADER_BYTES])?;
        self.out.write_all(&self.meta_bytes)?;
        self.out.write_all(self.templates.bytes())?;
        self.crc.update(&self.meta_bytes);
        self.crc.update(self.templates.bytes());
        self.sealed = true;
        self.templates.seal(); // the dedup map is dead weight now
        Ok(())
    }

    /// Appends one job record. Arrivals must be non-decreasing.
    pub fn push_job(
        &mut self,
        template_index: u32,
        arrival: SimTime,
        deadline: Option<SimTime>,
    ) -> Result<(), BinError> {
        if !self.sealed {
            self.seal()?;
        }
        if template_index >= self.templates.count() {
            return Err(BinError::BadTemplateIndex {
                index: template_index,
                count: self.templates.count(),
            });
        }
        if arrival < self.last_arrival {
            return Err(BinError::ArrivalOrder);
        }
        let rec = encode_record(template_index, arrival, deadline);
        self.crc.update(&rec);
        self.out.write_all(&rec)?;
        self.job_count += 1;
        self.first_arrival.get_or_insert(arrival);
        self.last_arrival = arrival;
        Ok(())
    }

    /// Back-patches the real header and returns the sink.
    pub fn finish(mut self) -> Result<W, BinError> {
        if !self.sealed {
            self.seal()?;
        }
        let header = Header {
            job_count: self.job_count,
            first_arrival: self.first_arrival.map_or(u64::MAX, SimTime::as_millis),
            meta_len: self.meta_bytes.len() as u32,
            template_count: self.templates.count(),
            template_bytes: self.templates.bytes().len() as u64,
            crc: self.crc.finish(),
        };
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&header.encode())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Encodes a materialized trace to SIMMRBIN bytes. Jobs are canonically
/// reordered by `(arrival, original position)`; templates with identical
/// content collapse into one table entry.
pub fn encode_trace(trace: &WorkloadTrace) -> Result<Vec<u8>, BinError> {
    let mut order: Vec<(SimTime, usize)> =
        trace.jobs.iter().enumerate().map(|(i, j)| (j.arrival, i)).collect();
    order.sort_unstable();
    let mut w = BinTraceWriter::new(io::Cursor::new(Vec::new()), &trace.meta);
    let mut ids = Vec::with_capacity(order.len());
    for &(_, i) in &order {
        ids.push(w.intern_template(&trace.jobs[i].template)?);
    }
    for (&(arrival, i), &id) in order.iter().zip(&ids) {
        w.push_job(id, arrival, trace.jobs[i].deadline)?;
    }
    Ok(w.finish()?.into_inner())
}

// ---------------------------------------------------------------------------
// Readers

/// Zero-copy reader over an in-memory (or memory-mapped) binary trace.
///
/// `parse` verifies the magic, version, section lengths and checksum
/// once and decodes the small meta/template tables; individual job
/// records are then read straight out of the byte slice by index without
/// materializing a job vector.
#[derive(Debug)]
pub struct BinTraceReader<'a> {
    meta: TraceMeta,
    templates: Vec<Arc<JobTemplate>>,
    records: &'a [u8],
    job_count: usize,
    first_arrival: Option<SimTime>,
}

impl<'a> BinTraceReader<'a> {
    /// Parses and fully validates a binary trace.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, BinError> {
        let header = Header::parse(bytes)?;
        let body_len = header.body_bytes()?;
        let expect_len = (HEADER_BYTES as u64).checked_add(body_len).ok_or(BinError::Truncated)?;
        if (bytes.len() as u64) < expect_len {
            return Err(BinError::Truncated);
        }
        let body = &bytes[HEADER_BYTES..expect_len as usize];
        let actual = Crc32::checksum(body);
        if actual != header.crc {
            return Err(BinError::ChecksumMismatch { expected: header.crc, actual });
        }
        let meta_end = header.meta_len as usize;
        let templates_end = meta_end + header.template_bytes as usize;
        let meta = decode_meta(&body[..meta_end])?;
        let templates = decode_templates(&body[meta_end..templates_end], header.template_count)?;
        Ok(BinTraceReader {
            meta,
            templates,
            records: &body[templates_end..],
            job_count: header.job_count as usize,
            first_arrival: (header.job_count > 0)
                .then(|| SimTime::from_millis(header.first_arrival)),
        })
    }

    /// Number of job records.
    pub fn job_count(&self) -> usize {
        self.job_count
    }

    /// Earliest arrival (None for an empty trace).
    pub fn first_arrival(&self) -> Option<SimTime> {
        self.first_arrival
    }

    /// Trace provenance.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The interned template table.
    pub fn templates(&self) -> &[Arc<JobTemplate>] {
        &self.templates
    }

    /// Reads record `i` straight from the underlying bytes.
    pub fn record(&self, i: usize) -> Result<BinRecord, BinError> {
        if i >= self.job_count {
            return Err(BinError::RecordOutOfRange { index: i, count: self.job_count });
        }
        let start = i.checked_mul(RECORD_BYTES).ok_or(BinError::Truncated)?;
        let mut r = Reader::new(self.records);
        r.take(start)?;
        decode_record(&mut r, self.templates.len())
    }

    /// Materializes job `i`, sharing its template with the table.
    pub fn job(&self, i: usize) -> Result<JobSpec, BinError> {
        let rec = self.record(i)?;
        Ok(JobSpec {
            template: Arc::clone(&self.templates[rec.template_index as usize]),
            arrival: rec.arrival,
            deadline: rec.deadline,
        })
    }

    /// Materializes the whole trace. Records out of arrival order are
    /// [`BinError::ArrivalOrder`], as in the streaming [`BinTraceSource`].
    pub fn to_trace(&self) -> Result<WorkloadTrace, BinError> {
        let mut jobs: Vec<JobSpec> = Vec::with_capacity(self.job_count);
        for i in 0..self.job_count {
            let job = self.job(i)?;
            if jobs.last().is_some_and(|prev| job.arrival < prev.arrival) {
                return Err(BinError::ArrivalOrder);
            }
            jobs.push(job);
        }
        Ok(WorkloadTrace { meta: self.meta.clone(), jobs })
    }
}

/// Decodes SIMMRBIN bytes into a materialized trace.
pub fn decode_trace(bytes: &[u8]) -> Result<WorkloadTrace, BinError> {
    BinTraceReader::parse(bytes)?.to_trace()
}

/// True when `bytes` starts with the SIMMRBIN magic (format sniffing).
pub fn is_binary_trace(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && bytes[..8] == MAGIC
}

/// Streaming file reader: a [`JobSource`] whose resident memory is the
/// template table plus one buffered read — independent of the job count.
///
/// `open` makes one sequential checksum pass over the body (so a
/// truncated or corrupted file is rejected up front, before the engine
/// starts), then rewinds and yields arrival-ordered records on demand.
#[derive(Debug)]
pub struct BinTraceSource {
    reader: BufReader<File>,
    meta: TraceMeta,
    templates: Vec<Arc<JobTemplate>>,
    job_count: u64,
    yielded: u64,
    first_arrival: Option<SimTime>,
    last_arrival: SimTime,
}

impl BinTraceSource {
    /// Opens and validates `path`, leaving the cursor at the first record.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, BinError> {
        let mut reader = BufReader::new(File::open(path)?);
        let mut header_bytes = [0u8; HEADER_BYTES];
        let got = read_up_to(&mut reader, &mut header_bytes)?;
        let header = Header::parse(&header_bytes[..got])?;
        let body_len = header.body_bytes()?;

        // Checksum pass: stream the body once through a scratch buffer.
        let mut crc = Crc32::new();
        let mut remaining = body_len;
        let mut buf = [0u8; 64 * 1024];
        while remaining > 0 {
            let want = remaining.min(buf.len() as u64) as usize;
            reader.read_exact(&mut buf[..want]).map_err(truncated_eof)?;
            crc.update(&buf[..want]);
            remaining -= want as u64;
        }
        let actual = crc.finish();
        if actual != header.crc {
            return Err(BinError::ChecksumMismatch { expected: header.crc, actual });
        }

        // Rewind and decode the small sections; records then stream.
        reader.seek(SeekFrom::Start(HEADER_BYTES as u64))?;
        let mut meta_bytes = vec![0u8; header.meta_len as usize];
        reader.read_exact(&mut meta_bytes).map_err(truncated_eof)?;
        let mut template_bytes = vec![0u8; header.template_bytes as usize];
        reader.read_exact(&mut template_bytes).map_err(truncated_eof)?;
        Ok(BinTraceSource {
            reader,
            meta: decode_meta(&meta_bytes)?,
            templates: decode_templates(&template_bytes, header.template_count)?,
            job_count: header.job_count,
            yielded: 0,
            first_arrival: (header.job_count > 0)
                .then(|| SimTime::from_millis(header.first_arrival)),
            last_arrival: SimTime::ZERO,
        })
    }

    /// Trace provenance.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The interned template table.
    pub fn templates(&self) -> &[Arc<JobTemplate>] {
        &self.templates
    }

    fn next_record(&mut self) -> Result<Option<SourcedJob>, BinError> {
        if self.yielded == self.job_count {
            return Ok(None);
        }
        let mut rec = [0u8; RECORD_BYTES];
        self.reader.read_exact(&mut rec).map_err(truncated_eof)?;
        let rec = decode_record(&mut Reader::new(&rec), self.templates.len())?;
        let template = Arc::clone(&self.templates[rec.template_index as usize]);
        if rec.arrival < self.last_arrival {
            return Err(BinError::ArrivalOrder);
        }
        self.last_arrival = rec.arrival;
        self.yielded += 1;
        Ok(Some(SourcedJob { template, arrival: rec.arrival, deadline: rec.deadline }))
    }
}

impl JobSource for BinTraceSource {
    fn job_count(&self) -> usize {
        self.job_count as usize
    }

    fn first_arrival(&self) -> Option<SimTime> {
        self.first_arrival
    }

    fn next_job(&mut self) -> Result<Option<SourcedJob>, SourceError> {
        self.next_record().map_err(|e| SourceError::new(e.to_string()))
    }
}

fn truncated_eof(e: io::Error) -> BinError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        BinError::Truncated
    } else {
        BinError::Io(e)
    }
}

/// `read_exact` that tolerates a short file (returns the byte count).
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, BinError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(BinError::Io(e)),
        }
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_types::TraceMeta;

    fn template(name: &str, maps: Vec<u64>, reduces: Vec<u64>) -> JobTemplate {
        let (first, typical) =
            if reduces.is_empty() { (vec![], vec![]) } else { (vec![5], vec![7, 9]) };
        JobTemplate::new(name, maps, first, typical, reduces).unwrap()
    }

    fn sample_trace() -> WorkloadTrace {
        let mut tr = WorkloadTrace::new("bin unit", "test");
        tr.meta.seed = Some(0xBEEF);
        let a = template("alpha", vec![10, 20], vec![30]);
        let b = template("beta", vec![u64::MAX], vec![]);
        tr.push(JobSpec::new(a.clone(), SimTime::from_secs(1)));
        tr.push(JobSpec::new(b, SimTime::from_secs(2)).with_deadline(SimTime::from_secs(9)));
        tr.push(JobSpec::new(a, SimTime::from_secs(3)));
        tr
    }

    #[test]
    fn round_trip_and_interning() {
        let tr = sample_trace();
        let bytes = encode_trace(&tr).unwrap();
        let reader = BinTraceReader::parse(&bytes).unwrap();
        // jobs 0 and 2 share one template entry
        assert_eq!(reader.templates().len(), 2);
        assert_eq!(reader.job_count(), 3);
        assert_eq!(reader.first_arrival(), Some(SimTime::from_secs(1)));
        assert_eq!(reader.to_trace().unwrap(), tr);
    }

    #[test]
    fn canonical_arrival_order() {
        let mut tr = WorkloadTrace::new("order", "test");
        tr.push(JobSpec::new(template("t", vec![1], vec![]), SimTime::from_secs(5)));
        tr.push(JobSpec::new(template("t", vec![2], vec![]), SimTime::from_secs(2)));
        tr.push(JobSpec::new(template("t", vec![3], vec![]), SimTime::from_secs(2)));
        let back = decode_trace(&encode_trace(&tr).unwrap()).unwrap();
        assert_eq!(back.jobs[0].template.map_durations, vec![2]); // ties keep input order
        assert_eq!(back.jobs[1].template.map_durations, vec![3]);
        assert_eq!(back.jobs[2].template.map_durations, vec![1]);
    }

    #[test]
    fn empty_trace_round_trips() {
        let tr = WorkloadTrace::new("empty", "test");
        let bytes = encode_trace(&tr).unwrap();
        let reader = BinTraceReader::parse(&bytes).unwrap();
        assert_eq!(reader.job_count(), 0);
        assert_eq!(reader.first_arrival(), None);
        assert_eq!(reader.to_trace().unwrap(), tr);
    }

    #[test]
    fn corruption_is_typed_not_panicky() {
        let bytes = encode_trace(&sample_trace()).unwrap();
        // bad magic
        assert!(matches!(BinTraceReader::parse(b"NOTATRACE").unwrap_err(), BinError::BadMagic));
        // wrong version
        let mut v = bytes.clone();
        v[8] = 0x7F;
        assert!(matches!(BinTraceReader::parse(&v).unwrap_err(), BinError::BadVersion(0x7F)));
        // truncation at every prefix length
        for cut in 0..bytes.len() {
            let err = BinTraceReader::parse(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, BinError::Truncated | BinError::BadMagic), "cut at {cut}: {err}");
        }
        // single flipped body byte → checksum mismatch
        let mut f = bytes.clone();
        let last = f.len() - 1;
        f[last] ^= 0xFF;
        assert!(matches!(
            BinTraceReader::parse(&f).unwrap_err(),
            BinError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn record_past_the_end_is_an_error() {
        let bytes = encode_trace(&sample_trace()).unwrap();
        let r = BinTraceReader::parse(&bytes).unwrap();
        let count = r.job_count();
        assert!(r.record(count - 1).is_ok());
        for index in [count, count + 1, usize::MAX / RECORD_BYTES + 1, usize::MAX] {
            assert!(
                matches!(r.record(index), Err(BinError::RecordOutOfRange { index: i, count: c })
                    if i == index && c == count),
                "record {index}"
            );
            assert!(r.job(index).is_err());
        }
    }

    #[test]
    fn writer_enforces_contract() {
        let meta = TraceMeta::default();
        let mut w = BinTraceWriter::new(io::Cursor::new(Vec::new()), &meta);
        let t = template("t", vec![1], vec![]);
        let id = w.intern_template(&t).unwrap();
        assert_eq!(w.intern_template(&t).unwrap(), id); // dedup
        w.push_job(id, SimTime::from_secs(2), None).unwrap();
        // interning is sealed after the first record
        assert!(matches!(w.intern_template(&t), Err(BinError::TemplatesSealed)));
        // arrivals must be monotone
        assert!(matches!(w.push_job(id, SimTime::from_secs(1), None), Err(BinError::ArrivalOrder)));
        // unknown template index
        assert!(matches!(
            w.push_job(9, SimTime::from_secs(3), None),
            Err(BinError::BadTemplateIndex { index: 9, count: 1 })
        ));
    }

    #[test]
    fn streaming_source_matches_reader() {
        let tr = sample_trace();
        let bytes = encode_trace(&tr).unwrap();
        let path =
            std::env::temp_dir().join(format!("simmr-binfmt-src-{}.trace.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mut src = BinTraceSource::open(&path).unwrap();
        assert_eq!(src.job_count(), 3);
        assert_eq!(src.first_arrival(), Some(SimTime::from_secs(1)));
        let mut seen = Vec::new();
        while let Some(job) = src.next_job().unwrap() {
            seen.push((job.template.name.to_string(), job.arrival, job.deadline));
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], ("alpha".into(), SimTime::from_secs(1), None));
        assert_eq!(seen[1].2, Some(SimTime::from_secs(9)));
        // a truncated file fails at open, not mid-stream
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(BinTraceSource::open(&path).unwrap_err(), BinError::Truncated));
        let _ = std::fs::remove_file(&path);
    }
}
