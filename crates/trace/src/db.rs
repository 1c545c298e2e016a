//! The Trace Database (§III-A).
//!
//! *"We store job traces persistently in a Trace database (for efficient
//! lookup and storage) using a job template."* Ours is a directory of
//! trace files, one per trace, in either of two formats:
//!
//! * `{name}.trace.json` — human-inspectable JSON ([`TraceDatabase::store`]);
//! * `{name}.trace.bin` — the compact SIMMRBIN format
//!   ([`TraceDatabase::store_bin`], see [`crate::binfmt`]), preferred at scale.
//!
//! [`TraceDatabase::load`] auto-detects the format (binary preferred when both
//! exist). All writes go through a temp-file-plus-rename so a crash
//! mid-write can never shadow the previous version with a torn file, and
//! [`TraceDatabase::list`] reports unreadable traces as [`TraceStatus::Corrupt`]
//! instead of silently dropping them.

use crate::binfmt::{self, BinError};
use crate::digest::{digest_trace, TraceDigest};
use simmr_types::{SimTime, WorkloadTrace};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// A directory-backed store of named workload traces.
#[derive(Debug)]
pub struct TraceDatabase {
    root: PathBuf,
}

/// Database operation errors.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem failure.
    Io(io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// Binary codec failure.
    Bin(BinError),
    /// Lookup of a trace that does not exist.
    NotFound(String),
    /// Rejected trace name (must be non-empty, `[A-Za-z0-9._-]`).
    BadName(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "trace db I/O error: {e}"),
            DbError::Json(e) => write!(f, "trace db serialization error: {e}"),
            DbError::Bin(e) => write!(f, "trace db binary codec error: {e}"),
            DbError::NotFound(n) => write!(f, "trace `{n}` not found"),
            DbError::BadName(n) => write!(f, "invalid trace name `{n}`"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> Self {
        DbError::Io(e)
    }
}

impl From<serde_json::Error> for DbError {
    fn from(e: serde_json::Error) -> Self {
        DbError::Json(e)
    }
}

impl From<BinError> for DbError {
    fn from(e: BinError) -> Self {
        DbError::Bin(e)
    }
}

/// On-disk representation of a stored trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// `{name}.trace.json`.
    Json,
    /// `{name}.trace.bin` (SIMMRBIN).
    Bin,
}

impl TraceFormat {
    /// Sniffs the format of the trace file at `path` from its first
    /// bytes: the SIMMRBIN magic means [`TraceFormat::Bin`], anything
    /// else (a short file included) [`TraceFormat::Json`].
    pub fn sniff(path: impl AsRef<Path>) -> io::Result<TraceFormat> {
        use std::io::Read;
        let mut magic = Vec::with_capacity(binfmt::MAGIC.len());
        std::fs::File::open(path)?.take(binfmt::MAGIC.len() as u64).read_to_end(&mut magic)?;
        Ok(TraceFormat::of(&magic))
    }

    /// The format of a trace file's bytes, by the same rule as
    /// [`Self::sniff`].
    pub fn of(bytes: &[u8]) -> TraceFormat {
        if binfmt::is_binary_trace(bytes) {
            TraceFormat::Bin
        } else {
            TraceFormat::Json
        }
    }

    /// Decodes the bytes of a trace stored in this format.
    pub fn decode(self, bytes: &[u8]) -> Result<WorkloadTrace, DbError> {
        match self {
            TraceFormat::Bin => Ok(binfmt::decode_trace(bytes)?),
            TraceFormat::Json => {
                let json = std::str::from_utf8(bytes)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                Ok(serde_json::from_str(json)?)
            }
        }
    }
}

impl std::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFormat::Json => write!(f, "json"),
            TraceFormat::Bin => write!(f, "bin"),
        }
    }
}

/// One row of a [`TraceDatabase::list`] listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceStatus {
    /// The trace parses; `jobs` is its job count.
    Ok {
        /// Stored format (binary wins when both files exist).
        format: TraceFormat,
        /// Number of jobs in the trace.
        jobs: usize,
        /// Earliest and latest job arrival (`None` for an empty trace)
        /// — the listing's at-a-glance arrival span.
        span: Option<(SimTime, SimTime)>,
        /// Stable content digest (see [`crate::digest`]) — the
        /// serve-layer cache key component for this trace.
        digest: TraceDigest,
    },
    /// The file exists but does not parse — surfaced, not hidden, so a
    /// corrupted store is visible in listings.
    Corrupt {
        /// Format implied by the file extension.
        format: TraceFormat,
        /// Human-readable parse failure.
        error: String,
    },
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Writes `bytes` to `path` atomically: a temp file in the same directory
/// (same filesystem, so the rename cannot cross devices) is written,
/// flushed, and renamed over the target. A crash mid-write leaves only
/// the temp file behind; the previous version stays intact.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path.file_name().and_then(|f| f.to_str()).unwrap_or("trace");
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    let write = (|| {
        use io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

impl TraceDatabase {
    /// Opens (creating if needed) a database rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, DbError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(TraceDatabase { root })
    }

    fn path_of(&self, name: &str, format: TraceFormat) -> PathBuf {
        match format {
            TraceFormat::Json => self.root.join(format!("{name}.trace.json")),
            TraceFormat::Bin => self.root.join(format!("{name}.trace.bin")),
        }
    }

    /// Stores a trace as JSON under `name`, atomically overwriting any
    /// previous JSON version. A binary file of the same name (which would
    /// shadow this one on load) is removed.
    pub fn store(&self, name: &str, trace: &WorkloadTrace) -> Result<(), DbError> {
        if !valid_name(name) {
            return Err(DbError::BadName(name.into()));
        }
        let json = serde_json::to_string(trace)?;
        write_atomic(&self.path_of(name, TraceFormat::Json), json.as_bytes())?;
        let shadow = self.path_of(name, TraceFormat::Bin);
        if shadow.exists() {
            std::fs::remove_file(shadow)?;
        }
        Ok(())
    }

    /// Stores a trace in the SIMMRBIN binary format under `name`,
    /// atomically overwriting any previous binary version and removing a
    /// now-stale JSON file of the same name.
    pub fn store_bin(&self, name: &str, trace: &WorkloadTrace) -> Result<(), DbError> {
        if !valid_name(name) {
            return Err(DbError::BadName(name.into()));
        }
        let bytes = binfmt::encode_trace(trace)?;
        write_atomic(&self.path_of(name, TraceFormat::Bin), &bytes)?;
        let stale = self.path_of(name, TraceFormat::Json);
        if stale.exists() {
            std::fs::remove_file(stale)?;
        }
        Ok(())
    }

    /// The stored format of `name`, if present (binary wins when both
    /// files exist, matching [`Self::load`]).
    pub fn format_of(&self, name: &str) -> Result<Option<TraceFormat>, DbError> {
        if !valid_name(name) {
            return Err(DbError::BadName(name.into()));
        }
        if self.path_of(name, TraceFormat::Bin).exists() {
            Ok(Some(TraceFormat::Bin))
        } else if self.path_of(name, TraceFormat::Json).exists() {
            Ok(Some(TraceFormat::Json))
        } else {
            Ok(None)
        }
    }

    /// Path of the stored trace (for streaming binary traces straight
    /// into the engine without materializing them).
    pub fn path(&self, name: &str) -> Result<PathBuf, DbError> {
        match self.format_of(name)? {
            Some(format) => Ok(self.path_of(name, format)),
            None => Err(DbError::NotFound(name.into())),
        }
    }

    /// Loads the trace stored under `name`, auto-detecting the format.
    pub fn load(&self, name: &str) -> Result<WorkloadTrace, DbError> {
        let (format, bytes) = self.read(name)?;
        format.decode(&bytes)
    }

    /// The raw bytes stored under `name`, undecoded, with the format
    /// [`Self::load`] decodes them as.
    pub fn read(&self, name: &str) -> Result<(TraceFormat, Vec<u8>), DbError> {
        match self.format_of(name)? {
            Some(format) => Ok((format, std::fs::read(self.path_of(name, format))?)),
            None => Err(DbError::NotFound(name.into())),
        }
    }

    /// Removes a stored trace (both formats); `Ok(false)` when neither
    /// file existed.
    pub fn remove(&self, name: &str) -> Result<bool, DbError> {
        if !valid_name(name) {
            return Err(DbError::BadName(name.into()));
        }
        let mut removed = false;
        for format in [TraceFormat::Json, TraceFormat::Bin] {
            let path = self.path_of(name, format);
            if path.exists() {
                std::fs::remove_file(path)?;
                removed = true;
            }
        }
        Ok(removed)
    }

    /// Lists stored traces sorted by name, with format and job count —
    /// or a [`TraceStatus::Corrupt`] marker for files that no longer
    /// parse. Leftover `.tmp` files from interrupted writes are skipped.
    pub fn list(&self) -> Result<BTreeMap<String, TraceStatus>, DbError> {
        let mut out = BTreeMap::new();
        for (name, format) in self.names()? {
            let status = match self.load(&name).and_then(|trace| {
                let digest = digest_trace(&trace)?;
                Ok((trace, digest))
            }) {
                Ok((trace, digest)) => TraceStatus::Ok {
                    format,
                    jobs: trace.len(),
                    span: trace.first_arrival().zip(trace.last_arrival()),
                    digest,
                },
                Err(e) => TraceStatus::Corrupt { format, error: e.to_string() },
            };
            out.insert(name, status);
        }
        Ok(out)
    }

    /// The names of the stored traces, sorted, each with the format
    /// [`Self::load`] reads — [`Self::list`] without decoding anything.
    /// Leftover `.tmp` files from interrupted writes are skipped.
    pub fn names(&self) -> Result<BTreeMap<String, TraceFormat>, DbError> {
        let mut out = BTreeMap::new();
        for entry in std::fs::read_dir(&self.root)? {
            let fname = entry?.file_name();
            let Some(fname) = fname.to_str() else {
                continue;
            };
            let (name, format) = if let Some(n) = fname.strip_suffix(".trace.json") {
                (n, TraceFormat::Json)
            } else if let Some(n) = fname.strip_suffix(".trace.bin") {
                (n, TraceFormat::Bin)
            } else {
                continue;
            };
            // When both formats exist the binary one shadows the JSON on
            // load; report the one load() would pick.
            if format == TraceFormat::Json && self.path_of(name, TraceFormat::Bin).exists() {
                continue;
            }
            out.insert(name.to_string(), format);
        }
        Ok(out)
    }

    /// Content digest of the trace stored under `name`.
    pub fn digest_of(&self, name: &str) -> Result<TraceDigest, DbError> {
        Ok(digest_trace(&self.load(name)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_types::{JobSpec, JobTemplate, SimTime};

    fn sample_trace(n: usize) -> WorkloadTrace {
        let mut t = WorkloadTrace::new("db test", "unit");
        for i in 0..n {
            t.push(JobSpec::new(
                JobTemplate::new(format!("j{i}"), vec![10], vec![], vec![], vec![]).unwrap(),
                SimTime::from_millis(i as u64),
            ));
        }
        t
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simmr-db-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sniff_reads_the_magic_not_the_name() {
        let dir = tmpdir("sniff");
        std::fs::create_dir_all(&dir).unwrap();
        let bin = binfmt::encode_trace(&sample_trace(2)).unwrap();
        for (file, bytes, want) in [
            ("a.json", &bin[..], TraceFormat::Bin),
            ("b.bin", b"{\"jobs\": []}".as_slice(), TraceFormat::Json),
            ("short", &bin[..7], TraceFormat::Json),
            ("empty", b"".as_slice(), TraceFormat::Json),
        ] {
            std::fs::write(dir.join(file), bytes).unwrap();
            assert_eq!(TraceFormat::sniff(dir.join(file)).unwrap(), want, "{file}");
        }
        assert!(TraceFormat::sniff(dir.join("missing")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_load_round_trip() {
        let db = TraceDatabase::open(tmpdir("rt")).unwrap();
        let trace = sample_trace(3);
        db.store("mixed-6apps", &trace).unwrap();
        assert_eq!(db.load("mixed-6apps").unwrap(), trace);
    }

    #[test]
    fn bin_store_load_round_trip() {
        let db = TraceDatabase::open(tmpdir("binrt")).unwrap();
        let trace = sample_trace(3);
        db.store_bin("packed", &trace).unwrap();
        assert_eq!(db.format_of("packed").unwrap(), Some(TraceFormat::Bin));
        // binary canonicalizes to arrival order; sample arrivals are sorted
        assert_eq!(db.load("packed").unwrap(), trace);
        // re-storing as JSON replaces the binary file
        db.store("packed", &trace).unwrap();
        assert_eq!(db.format_of("packed").unwrap(), Some(TraceFormat::Json));
    }

    #[test]
    fn list_and_remove() {
        let db = TraceDatabase::open(tmpdir("list")).unwrap();
        db.store("a", &sample_trace(1)).unwrap();
        db.store_bin("b", &sample_trace(2)).unwrap();
        let listing = db.list().unwrap();
        let digest_of = |n| digest_trace(&sample_trace(n)).unwrap();
        // sample arrivals are 0..n-1 ms, so the span is (0, n-1)
        let span_of = |n: u64| Some((SimTime::ZERO, SimTime::from_millis(n - 1)));
        assert_eq!(
            listing.get("a"),
            Some(&TraceStatus::Ok {
                format: TraceFormat::Json,
                jobs: 1,
                span: span_of(1),
                digest: digest_of(1)
            })
        );
        assert_eq!(
            listing.get("b"),
            Some(&TraceStatus::Ok {
                format: TraceFormat::Bin,
                jobs: 2,
                span: span_of(2),
                digest: digest_of(2)
            })
        );
        // digests are queryable directly
        assert_eq!(db.digest_of("a").unwrap(), digest_of(1));
        assert!(db.remove("a").unwrap());
        assert!(!db.remove("a").unwrap());
        assert!(db.remove("b").unwrap());
        assert!(db.list().unwrap().is_empty());
    }

    #[test]
    fn missing_trace_errors() {
        let db = TraceDatabase::open(tmpdir("missing")).unwrap();
        assert!(matches!(db.load("nope"), Err(DbError::NotFound(_))));
        assert!(matches!(db.path("nope"), Err(DbError::NotFound(_))));
    }

    #[test]
    fn bad_names_rejected() {
        let db = TraceDatabase::open(tmpdir("names")).unwrap();
        for bad in ["", "../evil", "a b", "x/y"] {
            assert!(matches!(db.store(bad, &sample_trace(1)), Err(DbError::BadName(_))), "{bad}");
            assert!(matches!(db.store_bin(bad, &sample_trace(1)), Err(DbError::BadName(_))));
            assert!(matches!(db.load(bad), Err(DbError::BadName(_))));
        }
    }

    #[test]
    fn overwrite_replaces() {
        let db = TraceDatabase::open(tmpdir("ow")).unwrap();
        db.store("t", &sample_trace(1)).unwrap();
        db.store("t", &sample_trace(5)).unwrap();
        assert_eq!(db.load("t").unwrap().len(), 5);
    }

    #[test]
    fn partial_write_never_shadows_previous_version() {
        // Regression for the non-atomic store: a torn write (simulated by
        // the leftover temp file of an interrupted store) must leave the
        // previous version loadable and invisible to listings.
        let db = TraceDatabase::open(tmpdir("atomic")).unwrap();
        let v1 = sample_trace(4);
        db.store("t", &v1).unwrap();
        let tmp = db.root.join("t.trace.json.tmp");
        std::fs::write(&tmp, b"{\"meta\": truncated mid-wri").unwrap();
        assert_eq!(db.load("t").unwrap(), v1, "temp file must not shadow the stored trace");
        assert_eq!(
            db.list().unwrap().get("t"),
            Some(&TraceStatus::Ok {
                format: TraceFormat::Json,
                jobs: 4,
                span: Some((SimTime::ZERO, SimTime::from_millis(3))),
                digest: digest_trace(&v1).unwrap()
            })
        );
        assert!(tmp.exists(), "simulated leftover should still be on disk for this test");
    }

    #[test]
    fn corrupt_traces_surface_in_listing() {
        let db = TraceDatabase::open(tmpdir("corrupt")).unwrap();
        db.store("good", &sample_trace(2)).unwrap();
        std::fs::write(db.root.join("mangled.trace.json"), b"{not json").unwrap();
        let mut bin = crate::binfmt::encode_trace(&sample_trace(2)).unwrap();
        let last = bin.len() - 1;
        bin[last] ^= 0xFF; // flip one body byte: checksum mismatch
        std::fs::write(db.root.join("flipped.trace.bin"), &bin).unwrap();
        let listing = db.list().unwrap();
        assert_eq!(
            listing.get("good"),
            Some(&TraceStatus::Ok {
                format: TraceFormat::Json,
                jobs: 2,
                span: Some((SimTime::ZERO, SimTime::from_millis(1))),
                digest: digest_trace(&sample_trace(2)).unwrap()
            })
        );
        assert!(
            matches!(
                listing.get("mangled"),
                Some(TraceStatus::Corrupt { format: TraceFormat::Json, .. })
            ),
            "corrupt JSON must appear in the listing: {:?}",
            listing.get("mangled")
        );
        assert!(
            matches!(
                listing.get("flipped"),
                Some(TraceStatus::Corrupt { format: TraceFormat::Bin, .. })
            ),
            "corrupt binary must appear in the listing: {:?}",
            listing.get("flipped")
        );
        // corrupt entries still load as typed errors, never panics
        assert!(db.load("mangled").is_err());
        assert!(matches!(db.load("flipped"), Err(DbError::Bin(BinError::ChecksumMismatch { .. }))));
    }
}
