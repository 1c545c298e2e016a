//! Trace persistence and transformation round-trips, plus a structured
//! fuzzer over the JSON trace schema: randomized traces with boundary
//! durations (0, 1, `u64::MAX`) and escape-heavy names must survive a
//! serialize → parse round-trip byte-exactly; truncated documents and
//! trailing garbage must error (never panic); duplicate object keys
//! resolve first-wins, matching the vendored `serde_json`'s `Value::get`.
//!
//! The same fuzzed traces also exercise the binary codec: JSON → binary →
//! JSON must reproduce every job byte-identically (modulo the format's
//! arrival-order canonicalization); truncations, bit flips, bad magic and
//! unknown versions must surface as typed [`simmr_trace::BinError`]s,
//! never panics. A replay of the same trace through the materialized JSON
//! path and the streaming binary path must produce identical reports.
//!
//! Engine checkpoints ([`simmr_core::EngineCheckpoint`]) are held to the
//! same contract: canonical encoding (encode → decode → encode is the
//! identity) and typed [`simmr_core::CkptError`]s for every truncation or
//! bit flip. A checkpoint of a streamed binary replay is self-contained: it
//! resumes with the trace file gone.

use proptest::prelude::*;
use simmr_bench::pipeline::run_testbed;
use simmr_cluster::{ClusterConfig, ClusterPolicy};
use simmr_core::{CkptError, EngineCheckpoint, EngineConfig, JobSource, SimulatorEngine};
use simmr_integration::small_job;
use simmr_sched::FifoPolicy;
use simmr_trace::{
    decode_trace, encode_trace, scale_template, trace_from_history, BinError, BinTraceReader,
    BinTraceSource, FacebookWorkload, TraceDatabase,
};
use simmr_types::{parse_history, JobSpec, JobTemplate, SimTime, WorkloadTrace};

fn testbed_trace(seed: u64) -> WorkloadTrace {
    let run = run_testbed(
        vec![
            (small_job(simmr_apps::AppKind::WordCount, 18, 6), SimTime::ZERO, None),
            (small_job(simmr_apps::AppKind::Twitter, 10, 4), SimTime::from_secs(10), None),
        ],
        ClusterPolicy::Fifo,
        ClusterConfig::tiny(6),
        seed,
    );
    trace_from_history(&run.history, "round-trip test").unwrap()
}

fn replay(trace: &WorkloadTrace, slots: usize) -> simmr_types::SimulationReport {
    SimulatorEngine::new(EngineConfig::new(slots, slots), trace, Box::new(FifoPolicy::new())).run()
}

#[test]
fn database_round_trip_preserves_replay() {
    let dir = std::env::temp_dir().join(format!("simmr-it-db-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = TraceDatabase::open(&dir).unwrap();
    let trace = testbed_trace(1);
    db.store("roundtrip", &trace).unwrap();
    let loaded = db.load("roundtrip").unwrap();
    assert_eq!(trace, loaded);
    assert_eq!(replay(&trace, 6), replay(&loaded, 6));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn history_text_round_trip() {
    let run = run_testbed(
        vec![(small_job(simmr_apps::AppKind::Sort, 12, 4), SimTime::ZERO, None)],
        ClusterPolicy::Fifo,
        ClusterConfig::tiny(4),
        2,
    );
    let lines = parse_history(&run.history).unwrap();
    let rewritten = simmr_types::write_history(&lines);
    assert_eq!(parse_history(&rewritten).unwrap(), lines);
    // and both texts profile to the same trace
    let a = trace_from_history(&run.history, "x").unwrap();
    let b = trace_from_history(&rewritten, "x").unwrap();
    assert_eq!(a.jobs, b.jobs);
}

#[test]
fn scaled_traces_replay_proportionally() {
    let trace = testbed_trace(3);
    let base = replay(&trace, 6);

    let mut doubled = trace.clone();
    for job in doubled.jobs.iter_mut() {
        job.template = scale_template(&job.template, 2.0).into();
    }
    let big = replay(&doubled, 6);
    // twice the data: strictly more work, completion grows substantially
    let base_ms = base.jobs.last().unwrap().completion.as_millis() as f64;
    let big_ms = big.jobs.last().unwrap().completion.as_millis() as f64;
    assert!(
        big_ms > 1.4 * base_ms,
        "2x-scaled trace should run much longer: {base_ms} -> {big_ms}"
    );

    // scaling down to a quarter shrinks it
    let mut quartered = trace.clone();
    for job in quartered.jobs.iter_mut() {
        job.template = scale_template(&job.template, 0.25).into();
    }
    let small = replay(&quartered, 6);
    assert!(small.makespan < base.makespan);
}

#[test]
fn scaling_then_rescaling_is_close_to_identity() {
    let trace = testbed_trace(4);
    let t = &trace.jobs[0].template;
    let back = scale_template(&scale_template(t, 2.0), 0.5);
    assert_eq!(back.num_maps, t.num_maps);
    assert_eq!(back.num_reduces, t.num_reduces);
    // durations survive up to rounding
    for (a, b) in t.reduce_durations.iter().zip(&back.reduce_durations) {
        let diff = a.abs_diff(*b);
        assert!(diff <= 1, "{a} vs {b}");
    }
}

#[test]
fn profiled_trace_serializes_compactly_and_validates() {
    let trace = testbed_trace(5);
    let json = serde_json::to_string(&trace).unwrap();
    let back: WorkloadTrace = serde_json::from_str(&json).unwrap();
    back.validate().unwrap();
    assert_eq!(trace, back);
}

// ---- structured JSON-schema fuzzer ----------------------------------------

/// Boundary durations/instants the fuzzer injects: zero-length tasks,
/// 1 ms tasks, an ordinary value and the saturating extreme.
const BOUNDARY_MS: [u64; 4] = [0, 1, 5_000, u64::MAX];

/// Names stressing JSON string escaping: quotes, backslashes, control
/// characters, multi-byte UTF-8 and the empty string.
const NAMES: [&str; 4] = ["plain-job", "es\"cape\\me\n\t", "uni-é-☃-日本", ""];

/// Builds one fuzzed job from index picks into the boundary tables.
fn fuzz_job(
    maps: usize,
    reduces: usize,
    dur_pick: usize,
    arr_pick: usize,
    name_pick: usize,
) -> JobSpec {
    let d = BOUNDARY_MS[dur_pick];
    let template = JobTemplate::new(
        NAMES[name_pick],
        vec![d; maps],
        if reduces > 0 { vec![d] } else { vec![] },
        if reduces > 0 { vec![d; reduces] } else { vec![] },
        vec![d; reduces],
    )
    .expect("fuzzed template is structurally valid");
    let mut spec = JobSpec::new(template, SimTime::from_millis(BOUNDARY_MS[arr_pick]));
    if arr_pick % 2 == 1 {
        spec = spec.with_deadline(SimTime::from_millis(BOUNDARY_MS[3 - arr_pick]));
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuzzed traces — boundary durations, escape-heavy names, optional
    /// deadlines, empty job lists — survive compact and pretty
    /// serialization round-trips exactly, and still validate.
    #[test]
    fn fuzz_trace_json_round_trip(
        jobs in proptest::collection::vec(
            // (maps, reduces, dur_pick, arr_pick, name_pick)
            (1usize..5, 0usize..3, 0usize..4, 0usize..4, 0usize..4),
            0..8,
        ),
        seed_pick in 0usize..4,
    ) {
        let mut trace = WorkloadTrace::new("fuzzed trace \"with\" escapes", "fuzzer");
        trace.meta.seed = [None, Some(0), Some(1), Some(u64::MAX)][seed_pick];
        for &(maps, reduces, dur_pick, arr_pick, name_pick) in &jobs {
            trace.push(fuzz_job(maps, reduces, dur_pick, arr_pick, name_pick));
        }
        let json = serde_json::to_string(&trace).unwrap();
        let back: WorkloadTrace = serde_json::from_str(&json).unwrap();
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(&back, &trace);
        let pretty = serde_json::to_string_pretty(&trace).unwrap();
        prop_assert_eq!(serde_json::from_str::<WorkloadTrace>(&pretty).unwrap(), trace);
    }

    /// Every proper prefix of a serialized trace is a parse error — never
    /// a panic, never a silent partial success — and so is a document with
    /// trailing garbage.
    #[test]
    fn fuzz_truncated_and_garbage_documents_error(
        jobs in proptest::collection::vec(
            (1usize..3, 0usize..2, 0usize..4, 0usize..4, 0usize..4),
            0..3,
        ),
    ) {
        let mut trace = WorkloadTrace::new("truncation fuzz", "fuzzer");
        for &(maps, reduces, dur_pick, arr_pick, name_pick) in &jobs {
            trace.push(fuzz_job(maps, reduces, dur_pick, arr_pick, name_pick));
        }
        let json = serde_json::to_string(&trace).unwrap();
        for cut in 0..json.len() {
            if !json.is_char_boundary(cut) {
                continue;
            }
            prop_assert!(
                serde_json::from_str::<WorkloadTrace>(&json[..cut]).is_err(),
                "prefix of {cut}/{} bytes parsed successfully", json.len()
            );
        }
        for garbage in ["x", "{}", " null", ",", "]"] {
            prop_assert!(
                serde_json::from_str::<WorkloadTrace>(&format!("{json}{garbage}")).is_err(),
                "trailing {garbage:?} accepted"
            );
        }
    }

    /// JSON → binary → JSON reproduces every job byte-identically. The
    /// binary format canonicalizes job order to (arrival, original index),
    /// so the expectation is the stable arrival sort of the input.
    #[test]
    fn fuzz_trace_binary_round_trip(
        jobs in proptest::collection::vec(
            (1usize..5, 0usize..3, 0usize..4, 0usize..4, 0usize..4),
            0..8,
        ),
        seed_pick in 0usize..4,
    ) {
        let mut trace = WorkloadTrace::new("binary fuzz \"with\" escapes", "fuzzer");
        trace.meta.seed = [None, Some(0), Some(1), Some(u64::MAX)][seed_pick];
        for &(maps, reduces, dur_pick, arr_pick, name_pick) in &jobs {
            trace.push(fuzz_job(maps, reduces, dur_pick, arr_pick, name_pick));
        }
        let mut expected = trace.clone();
        expected.jobs.sort_by_key(|j| j.arrival); // stable: ties keep input order
        let decoded = decode_trace(&encode_trace(&trace).unwrap()).unwrap();
        prop_assert!(decoded.validate().is_ok());
        prop_assert_eq!(decoded.jobs.len(), expected.jobs.len());
        for (d, e) in decoded.jobs.iter().zip(&expected.jobs) {
            prop_assert_eq!(
                serde_json::to_string(d).unwrap(),
                serde_json::to_string(e).unwrap()
            );
        }
        prop_assert_eq!(decoded.meta, expected.meta);
    }

    /// Every proper prefix of a binary trace is a typed error — never a
    /// panic — and so is any single-byte corruption of the
    /// checksum-covered body.
    #[test]
    fn fuzz_binary_corruption_is_a_typed_error(
        jobs in proptest::collection::vec(
            (1usize..3, 0usize..2, 0usize..4, 0usize..4, 0usize..4),
            1..4,
        ),
        flip_pick in 0usize..997,
    ) {
        let mut trace = WorkloadTrace::new("binary corruption fuzz", "fuzzer");
        for &(maps, reduces, dur_pick, arr_pick, name_pick) in &jobs {
            trace.push(fuzz_job(maps, reduces, dur_pick, arr_pick, name_pick));
        }
        let bytes = encode_trace(&trace).unwrap();

        // truncation at every prefix
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_trace(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded successfully", bytes.len()
            );
        }

        // a bit flip in the body (everything past the header is
        // checksummed) is a checksum mismatch
        let body = bytes.len() - 48;
        let at = 48 + flip_pick % body;
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x40;
        prop_assert!(
            matches!(decode_trace(&flipped), Err(BinError::ChecksumMismatch { .. })),
            "flip at {at} not a checksum mismatch"
        );

        // wrong magic and unknown version are their own errors
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        prop_assert!(matches!(decode_trace(&bad_magic), Err(BinError::BadMagic)));
        let mut bad_version = bytes;
        bad_version[8] = 0xEE;
        bad_version[9] = 0xEE;
        prop_assert!(matches!(decode_trace(&bad_version), Err(BinError::BadVersion(_))));
    }
}

// ---- checkpoint codec fuzzer ----------------------------------------------

/// Builds one fuzzed job with finite durations so the engine prefix the
/// checkpoint fuzzer runs always settles. Escape-heavy names still apply.
fn ckpt_fuzz_job(maps: usize, reduces: usize, ms: u64, arrival: u64, name_pick: usize) -> JobSpec {
    let template = JobTemplate::new(
        NAMES[name_pick],
        vec![ms; maps],
        if reduces > 0 { vec![ms / 4 + 1] } else { vec![] },
        if reduces > 0 { vec![ms / 4 + 1; reduces] } else { vec![] },
        vec![ms; reduces],
    )
    .expect("fuzzed template is structurally valid");
    let mut spec = JobSpec::new(template, SimTime::from_millis(arrival));
    if arrival % 2 == 1 {
        spec = spec.with_deadline(SimTime::from_millis(arrival + 4 * ms));
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine checkpoints taken at fuzzed instants over fuzzed traces obey
    /// the same codec contract as binary traces: encode → decode → encode
    /// is the identity; every proper prefix is a typed [`CkptError`], never
    /// a panic; any single-byte corruption is caught — as [`BadMagic`] in
    /// the magic bytes, as a checksum mismatch anywhere else (the CRC-64
    /// trailer covers version, body and itself).
    ///
    /// [`BadMagic`]: CkptError::BadMagic
    #[test]
    fn fuzz_checkpoint_codec_round_trip_and_corruption(
        jobs in proptest::collection::vec(
            // (maps, reduces, map_ms, arrival_ms, name_pick)
            (1usize..5, 0usize..3, 20u64..500, 0u64..2_000, 0usize..4),
            1..8,
        ),
        at in 0u64..3_000,
        flip_pick in 0usize..997,
    ) {
        let mut trace = WorkloadTrace::new("checkpoint fuzz \"with\" escapes", "fuzzer");
        for &(maps, reduces, ms, arrival, name_pick) in &jobs {
            trace.push(ckpt_fuzz_job(maps, reduces, ms, arrival, name_pick));
        }
        let ckpt = SimulatorEngine::new(
            EngineConfig::new(2, 2).with_timeline().with_invariants(),
            &trace,
            Box::new(FifoPolicy::new()),
        )
        .checkpoint_at(SimTime::from_millis(at))
        .unwrap();
        let bytes = ckpt.encode();

        // encode → decode → encode is the identity on accepted inputs
        let decoded = EngineCheckpoint::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded.encode(), &bytes);

        // truncation at every prefix is a typed error, never a panic
        for cut in 0..bytes.len() {
            prop_assert!(
                EngineCheckpoint::decode(&bytes[..cut]).is_err(),
                "prefix of {}/{} bytes decoded successfully", cut, bytes.len()
            );
        }

        // a bit flip anywhere in the document is caught: the magic bytes
        // fail their own check, everything else the CRC-64 trailer
        let flip_at = flip_pick % bytes.len();
        let mut flipped = bytes.clone();
        flipped[flip_at] ^= 0x40;
        let err = EngineCheckpoint::decode(&flipped).map(|_| ()).unwrap_err();
        if flip_at < 8 {
            prop_assert_eq!(err, CkptError::BadMagic, "flip at {}", flip_at);
        } else {
            prop_assert!(
                matches!(err, CkptError::ChecksumMismatch { .. }),
                "flip at {}: unexpected {:?}", flip_at, err
            );
        }
    }
}

/// A checkpoint of an engine streaming a SIMMRBIN file is self-contained:
/// capturing it pulls every job the file had left, so after an encode and
/// decode it resumes through `resume_materialized` with the file deleted,
/// and the resumed report equals the uninterrupted one at every instant.
#[test]
fn checkpoint_of_a_streamed_trace_resumes_without_the_file() {
    let trace = FacebookWorkload { mean_interarrival_ms: 20_000.0 }.generate_pooled(24, 4, 0xC4);
    let dir = std::env::temp_dir().join(format!("simmr-it-ckptbin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bin_path = dir.join("t.trace.bin");
    std::fs::write(&bin_path, encode_trace(&trace).unwrap()).unwrap();

    let config = EngineConfig::new(8, 4).with_timeline().with_invariants();
    let streamed = || {
        SimulatorEngine::from_source(
            config,
            Box::new(BinTraceSource::open(&bin_path).unwrap()),
            Box::new(FifoPolicy::new()),
        )
    };
    let full = streamed().try_run().unwrap();
    let makespan = full.makespan.as_millis();
    let bytes: Vec<Vec<u8>> = [0, makespan / 4, makespan / 2, makespan + 1]
        .into_iter()
        .map(|at| streamed().checkpoint_at(SimTime::from_millis(at)).unwrap().encode())
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    for (i, bytes) in bytes.iter().enumerate() {
        let ckpt = EngineCheckpoint::decode(bytes).unwrap();
        let resumed =
            SimulatorEngine::resume_materialized(config, &ckpt, Box::new(FifoPolicy::new()))
                .unwrap()
                .try_run()
                .unwrap();
        assert_eq!(resumed, full, "checkpoint {i} at {} ms", ckpt.at().as_millis());
        assert_eq!(ckpt.jobs_admitted(), trace.jobs.len(), "checkpoint {i} holds every job");
    }
}

/// The same trace replayed through the materialized JSON path and the
/// streaming binary path produces identical reports — per-job rows,
/// makespan and event count.
#[test]
fn json_and_binary_replays_are_byte_identical() {
    let workload = FacebookWorkload { mean_interarrival_ms: 30_000.0 };
    let trace = workload.generate_pooled(300, 4, 0xD0);

    let dir = std::env::temp_dir().join(format!("simmr-it-binrep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bin_path = dir.join("t.trace.bin");
    std::fs::write(&bin_path, encode_trace(&trace).unwrap()).unwrap();

    // materialized: JSON round-trip, then the borrowing constructor
    let json = serde_json::to_string(&trace).unwrap();
    let materialized: WorkloadTrace = serde_json::from_str(&json).unwrap();
    let report_json =
        SimulatorEngine::new(EngineConfig::new(16, 16), &materialized, Box::new(FifoPolicy::new()))
            .run();

    // streaming: pulled from the binary file one arrival at a time
    let source = BinTraceSource::open(&bin_path).unwrap();
    let report_bin = SimulatorEngine::from_source(
        EngineConfig::new(16, 16),
        Box::new(source),
        Box::new(FifoPolicy::new()),
    )
    .try_run()
    .unwrap();

    assert_eq!(report_json, report_bin);
    assert_eq!(
        serde_json::to_string(&report_json).unwrap(),
        serde_json::to_string(&report_bin).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fixed trace whose SIMMRBIN encoding is pinned by
/// [`simmrbin_encoding_and_digest_are_pinned`]: seeded meta with a
/// non-ASCII, escape-heavy description, one template shared by two jobs,
/// a reduce job with a deadline, and jobs listed out of arrival order.
fn golden_trace() -> WorkloadTrace {
    let mut trace = WorkloadTrace::new("golden \"trace\" \u{3c0}", "simmrbin-golden");
    trace.meta.seed = Some(0x5EED);
    let wc =
        JobTemplate::new("wc", vec![1200, 950, 1100], vec![300], vec![120, 140], vec![2000, 2100])
            .unwrap();
    let grep = JobTemplate::new("grep", vec![400], vec![], vec![], vec![]).unwrap();
    trace.push(
        JobSpec::new(wc.clone(), SimTime::from_millis(5_000)).with_deadline(SimTime::from_secs(60)),
    );
    trace.push(JobSpec::new(grep, SimTime::from_millis(1_000)));
    trace.push(JobSpec::new(wc, SimTime::from_millis(5_000)));
    trace
}

/// SIMMRBIN bytes and trace digests key the serve memo cache, so they
/// must never drift: the encoding of [`golden_trace`] is pinned by its
/// length and CRC-64, and the digest (the CRC-64 of that encoding) by
/// its value.
#[test]
fn simmrbin_encoding_and_digest_are_pinned() {
    let trace = golden_trace();
    let bytes = encode_trace(&trace).unwrap();
    let mut crc = simmr_trace::Crc64::new();
    crc.update(&bytes);
    assert_eq!(bytes.len(), 278);
    assert_eq!(crc.finish(), 0x5F80_864A_D446_8FE5);
    assert_eq!(simmr_trace::digest_trace(&trace).unwrap().to_string(), "5f80864ad4468fe5");
}

/// A 69-byte SIMMRBIN file — an empty trace whose header is rewritten to
/// declare `u32::MAX` templates in a zero-byte template table (the header
/// sits outside the CRC-32, so the checksum stays valid) — is a typed
/// error from both readers, not a multi-gigabyte allocation.
#[test]
fn crafted_template_count_is_a_typed_error() {
    let mut bytes = encode_trace(&WorkloadTrace::new("evil", "")).unwrap();
    assert_eq!(bytes.len(), 69);
    bytes[32..36].copy_from_slice(&u32::MAX.to_le_bytes()); // template_count
    assert_eq!(bytes[36..44], [0; 8]); // template_bytes
    let parsed = BinTraceReader::parse(&bytes);
    assert!(matches!(parsed, Err(BinError::Truncated)), "{parsed:?}");

    let path =
        std::env::temp_dir().join(format!("simmr-it-crafted-{}.trace.bin", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let opened = BinTraceSource::open(&path);
    let _ = std::fs::remove_file(&path);
    assert!(matches!(opened, Err(BinError::Truncated)), "{opened:?}");
}

/// A SIMMRBIN file with its two job records swapped — and the header's
/// CRC-32 recomputed over the new body, so the checksum holds — is
/// [`BinError::ArrivalOrder`] from the in-memory decode (and so from
/// `TraceDatabase::load`), just as it is from the streaming source.
#[test]
fn crafted_out_of_order_records_are_an_arrival_order_error() {
    let mut trace = WorkloadTrace::new("swapped", "");
    for (maps, secs) in [(1, 1), (2, 5)] {
        let template = JobTemplate::new("t", vec![10; maps], vec![], vec![], vec![]).unwrap();
        trace.push(JobSpec::new(template, SimTime::from_secs(secs)));
    }
    let mut bytes = encode_trace(&trace).unwrap();
    assert_eq!(decode_trace(&bytes).unwrap(), trace);
    let record = simmr_trace::binfmt::RECORD_BYTES;
    let last = bytes.len() - record;
    let first: Vec<u8> = bytes[last - record..last].to_vec();
    bytes.copy_within(last.., last - record);
    bytes[last..].copy_from_slice(&first);
    let crc = simmr_core::codec::Crc32::checksum(&bytes[simmr_trace::binfmt::HEADER_BYTES..]);
    bytes[44..48].copy_from_slice(&crc.to_le_bytes());

    let decoded = decode_trace(&bytes);
    assert!(matches!(decoded, Err(BinError::ArrivalOrder)), "{decoded:?}");
    let reader = BinTraceReader::parse(&bytes).unwrap();
    assert!(matches!(reader.to_trace(), Err(BinError::ArrivalOrder)));

    let dir = std::env::temp_dir().join(format!("simmr-it-swapped-{}", std::process::id()));
    let db = TraceDatabase::open(&dir).unwrap();
    db.store_bin("swapped", &trace).unwrap();
    let path = db.path("swapped").unwrap();
    std::fs::write(&path, &bytes).unwrap();
    let loaded = db.load("swapped");
    let mut src = BinTraceSource::open(&path).unwrap();
    let pulled = (src.next_job(), src.next_job());
    let _ = std::fs::remove_dir_all(&dir);
    assert!(matches!(loaded, Err(simmr_trace::DbError::Bin(BinError::ArrivalOrder))), "{loaded:?}");
    assert!(pulled.0.is_ok());
    assert!(pulled.1.unwrap_err().to_string().contains("not sorted by arrival"));
}

/// 100k-job streaming smoke replay, gated for CI: set
/// `SIMMR_STREAM_SMOKE=1` to run. Generates a pooled binary trace on
/// disk, streams it through the engine in aggregate mode and checks the
/// event volume.
#[test]
fn stream_smoke_100k() {
    if std::env::var("SIMMR_STREAM_SMOKE").map(|v| v == "1") != Ok(true) {
        return;
    }
    let jobs = 100_000;
    let mut workload = FacebookWorkload { mean_interarrival_ms: 20_000.0 }.workload();
    workload.classes.truncate(3); // small-job head of the mix: bounded backlog
    let dir = std::env::temp_dir().join(format!("simmr-it-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("smoke.trace.bin");
    let file = std::fs::File::create(&path).unwrap();
    workload
        .write_bin(jobs, 8, 0xBE, None, std::io::BufWriter::new(file))
        .unwrap()
        .into_inner()
        .unwrap();

    let source = BinTraceSource::open(&path).unwrap();
    assert_eq!(source.job_count(), jobs);
    let report = SimulatorEngine::from_source(
        EngineConfig::new(64, 64).without_job_results(),
        Box::new(source),
        Box::new(FifoPolicy::new()),
    )
    .try_run()
    .unwrap();
    assert!(report.jobs.is_empty(), "aggregate mode collects no per-job rows");
    assert!(
        report.events_processed > jobs as u64 * 2,
        "only {} events for {jobs} jobs",
        report.events_processed
    );
    assert!(report.makespan > SimTime::ZERO);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Duplicate object keys resolve first-wins (the vendored `serde_json`
/// keeps every pair and `Value::get` returns the first match); unknown
/// keys are ignored; a schema-violating field type still errors.
#[test]
fn duplicate_keys_resolve_first_wins() {
    let json = r#"{
        "meta": {"description": "first", "description": "second",
                 "source": "fuzz", "seed": 7, "seed": 8, "unknown": [1, 2]},
        "jobs": [{
            "template": {"name": "dup", "name": "loser",
                         "num_maps": 1, "num_maps": 99,
                         "num_reduces": 0,
                         "map_durations": [5], "map_durations": [1, 2, 3],
                         "first_shuffle_durations": [],
                         "typical_shuffle_durations": [],
                         "reduce_durations": []},
            "arrival": 10, "arrival": 20, "deadline": null
        }]
    }"#;
    let trace: WorkloadTrace = serde_json::from_str(json).unwrap();
    assert_eq!(trace.meta.description, "first");
    assert_eq!(trace.meta.seed, Some(7));
    assert_eq!(&*trace.jobs[0].template.name, "dup");
    assert_eq!(trace.jobs[0].template.num_maps, 1);
    assert_eq!(trace.jobs[0].template.map_durations, vec![5]);
    assert_eq!(trace.jobs[0].arrival, SimTime::from_millis(10));
    trace.validate().unwrap();

    // wrong field type is a hard error, not a default
    let bad = r#"{"meta": {"description": 3, "source": "s", "seed": null}, "jobs": []}"#;
    assert!(serde_json::from_str::<WorkloadTrace>(bad).is_err());
}
