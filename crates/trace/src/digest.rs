//! Stable trace content digests.
//!
//! The serve-layer memo cache keys on *(trace digest, policy spec, seed,
//! …)*, so it needs one digest per trace that is identical however the
//! trace is stored (pretty JSON, compact JSON, SIMMRBIN) or how its job
//! list happens to be ordered on disk. The SIMMRBIN encoder already
//! defines exactly that canonical form: records sorted by `(arrival,
//! index)`, templates content-interned in first-appearance order, meta
//! length-prefixed (see [`crate::binfmt`]). A trace digest is therefore
//! the **CRC-64 of the canonical SIMMRBIN encoding** — extending the
//! format's CRC-32 body-checksum machinery to a width where accidental
//! collisions are negligible for cache keying.
//!
//! CRC-64 is the `CRC-64/XZ` parameterization (ECMA-182 polynomial,
//! reflected, init and xor-out all-ones) from [`simmr_core::codec`],
//! re-exported here as [`Crc64`].
//!
//! ```
//! use simmr_trace::TraceDigestExt;
//! use simmr_types::{JobSpec, JobTemplate, SimTime, WorkloadTrace};
//!
//! let mut t = WorkloadTrace::new("demo", "doc");
//! t.push(JobSpec::new(
//!     JobTemplate::new("wc", vec![100], vec![], vec![], vec![]).unwrap(),
//!     SimTime::ZERO,
//! ));
//! let d = t.digest().unwrap();
//! assert_eq!(d.to_string().len(), 16); // 16 hex digits
//! assert_eq!(d, t.digest().unwrap());  // stable
//! ```

use crate::binfmt::{encode_trace, BinError};
pub use simmr_core::codec::Crc64;
use simmr_types::WorkloadTrace;
use std::fmt;
use std::str::FromStr;

/// A stable 64-bit content digest of a workload trace.
///
/// Displayed (and serialized) as 16 lowercase hex digits. Two traces
/// have equal digests iff their canonical SIMMRBIN encodings are
/// byte-identical — same meta, same job set in arrival order, same
/// templates — regardless of the on-disk format they came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceDigest(pub u64);

impl fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl FromStr for TraceDigest {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 16 {
            return Err(format!("trace digest must be 16 hex digits, got {:?}", s));
        }
        u64::from_str_radix(s, 16)
            .map(TraceDigest)
            .map_err(|_| format!("trace digest is not hex: {s:?}"))
    }
}

impl serde::Serialize for TraceDigest {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl serde::Deserialize for TraceDigest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => s.parse().map_err(serde::DeError::new),
            other => Err(serde::DeError::new(format!("expected digest string, got {other:?}"))),
        }
    }
}

/// Computes the content digest of a trace: CRC-64 over its canonical
/// SIMMRBIN encoding. Fails only where the encoder does (a trace too
/// large for the format's length fields).
pub fn digest_trace(trace: &WorkloadTrace) -> Result<TraceDigest, BinError> {
    Ok(TraceDigest(Crc64::checksum(&encode_trace(trace)?)))
}

/// Adds [`WorkloadTrace::digest`]-style sugar: `trace.digest()`.
pub trait TraceDigestExt {
    /// The trace's stable content digest (see [`digest_trace`]).
    fn digest(&self) -> Result<TraceDigest, BinError>;
}

impl TraceDigestExt for WorkloadTrace {
    fn digest(&self) -> Result<TraceDigest, BinError> {
        digest_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::decode_trace;
    use simmr_types::{JobSpec, JobTemplate, SimTime};

    fn job(name: &str, arrival: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new(name, vec![100, 200], vec![50], vec![60], vec![30]).unwrap(),
            SimTime::from_millis(arrival),
        )
    }

    fn sample() -> WorkloadTrace {
        let mut t = WorkloadTrace::new("digest test", "unit");
        t.push(job("a", 0));
        t.push(job("b", 500));
        t
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ("123456789") = 0x995DC9BBDF1939FA
        let mut c = Crc64::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let t = sample();
        assert_eq!(t.digest().unwrap(), t.digest().unwrap());
        let mut other = sample();
        other.push(job("c", 900));
        assert_ne!(t.digest().unwrap(), other.digest().unwrap());
    }

    #[test]
    fn digest_survives_format_round_trips() {
        let t = sample();
        let d = t.digest().unwrap();
        // JSON round trip
        let json = serde_json::to_string(&t).unwrap();
        let back: WorkloadTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.digest().unwrap(), d);
        // binary round trip
        let bin = encode_trace(&t).unwrap();
        assert_eq!(decode_trace(&bin).unwrap().digest().unwrap(), d);
    }

    #[test]
    fn digest_ignores_on_disk_job_order() {
        // the canonical encoding sorts records by arrival, so a permuted
        // job vector digests identically
        let mut shuffled = WorkloadTrace::new("digest test", "unit");
        shuffled.push(job("b", 500));
        shuffled.push(job("a", 0));
        assert_eq!(shuffled.digest().unwrap(), sample().digest().unwrap());
    }

    #[test]
    fn display_parse_round_trip() {
        let d = sample().digest().unwrap();
        assert_eq!(d.to_string().parse::<TraceDigest>().unwrap(), d);
        assert!("zz".parse::<TraceDigest>().is_err());
        assert!("00112233445566zz".parse::<TraceDigest>().is_err());
    }
}
