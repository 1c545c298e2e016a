//! End-to-end tests of the serve layer: the scenario facade, the memo
//! cache's byte-identity guarantee, and the live `simmr serve` HTTP
//! server under concurrent clients.

use simmr_serve::{ScenarioSpec, ServeConfig, Server, SimFacade, TraceRef};
use simmr_trace::{digest_trace, TraceDatabase};
use simmr_types::{ClusterSpec, JobSpec, JobTemplate, SimTime, WorkloadTrace};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn sample_trace() -> WorkloadTrace {
    let mut t = WorkloadTrace::new("serve test", "integration");
    for (i, (name, arrival)) in
        [("prod-etl", 0u64), ("adhoc-ml", 400), ("prod-serving", 900), ("adhoc-bi", 1_500)]
            .iter()
            .enumerate()
    {
        let maps: Vec<u64> = (0..4).map(|m| 300 + 100 * ((i as u64 + m) % 3)).collect();
        t.push(JobSpec::new(
            JobTemplate::new(*name, maps, vec![250, 150], vec![200], vec![120]).unwrap(),
            SimTime::from_millis(*arrival),
        ));
    }
    t
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simmr-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// A tiny test HTTP client (connection: close, optional dechunking)
// ---------------------------------------------------------------------------

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> Reply {
    let stream = TcpStream::connect(addr).expect("connect to test server");
    // a server that stops answering fails the test instead of hanging it
    stream.set_read_timeout(Some(Duration::from_secs(300))).expect("read timeout");
    let mut writer = stream.try_clone().expect("clone socket");
    write!(
        writer,
        "{method} {target} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("read status line");
    let status: u16 =
        status_line.split_whitespace().nth(1).expect("status code").parse().expect("numeric");
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').expect("header colon");
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let chunked = headers.iter().any(|(n, v)| n == "transfer-encoding" && v.contains("chunked"));
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw).expect("read body");
    let body = if chunked { dechunk(&raw) } else { String::from_utf8(raw).expect("utf8 body") };
    Reply { status, headers, body }
}

/// Reassembles a chunked body (the test client reads to EOF first).
fn dechunk(mut raw: &[u8]) -> String {
    let mut out = Vec::new();
    loop {
        let line_end = raw.windows(2).position(|w| w == b"\r\n").expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&raw[..line_end]).expect("chunk size utf8"),
            16,
        )
        .expect("chunk size hex");
        raw = &raw[line_end + 2..];
        if size == 0 {
            break;
        }
        out.extend_from_slice(&raw[..size]);
        raw = &raw[size + 2..]; // skip chunk trailer CRLF
    }
    String::from_utf8(out).expect("utf8 chunked body")
}

/// Binds a server on an ephemeral port with the given trace database and
/// runs it on a background thread. Returns the address and the join
/// handle (joined after `/v1/shutdown` to assert a clean exit).
fn start_server(
    db_dir: &std::path::Path,
) -> (SocketAddr, std::thread::JoinHandle<Result<(), String>>) {
    start_server_with(db_dir, 4)
}

/// [`start_server`] with `workers` worker threads.
fn start_server_with(
    db_dir: &std::path::Path,
    workers: usize,
) -> (SocketAddr, std::thread::JoinHandle<Result<(), String>>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        db_dir: Some(db_dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("bind test server");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn run_body(policy: &str, seed: u64) -> String {
    format!(
        r#"{{"trace": "workload", "policy": "{policy}", "seed": {seed}, "deadline_factor": 2.0}}"#
    )
}

// ---------------------------------------------------------------------------
// Facade-level guarantees
// ---------------------------------------------------------------------------

#[test]
fn facade_matches_direct_engine_run() {
    use simmr_core::{EngineConfig, SimulatorEngine};
    let trace = sample_trace();
    let direct = SimulatorEngine::new(
        EngineConfig::new(8, 4),
        &trace,
        simmr_sched::parse_policy("maxedf").unwrap(),
    )
    .run();
    let mut spec = ScenarioSpec::new(TraceRef::Inline(trace), "maxedf".parse().unwrap());
    spec.cluster = ClusterSpec::new(8, 4);
    let run = SimFacade::new().run(&spec).expect("facade run");
    assert_eq!(run.report, direct);
    assert_eq!(
        serde_json::to_string(&run.report).unwrap(),
        serde_json::to_string(&direct).unwrap()
    );
}

#[test]
fn canonical_keys_agree_across_trace_ref_spellings() {
    let dir = tmpdir("keys");
    let db = TraceDatabase::open(&dir).unwrap();
    db.store("workload", &sample_trace()).unwrap();
    let facade = SimFacade::with_db(&dir).unwrap();
    let by_name = facade
        .resolve(&ScenarioSpec::new(TraceRef::Name("workload".into()), "fair".parse().unwrap()));
    let by_digest = facade.resolve(&ScenarioSpec::new(
        TraceRef::Digest(digest_trace(&sample_trace()).unwrap()),
        "fair".parse().unwrap(),
    ));
    let inline = facade
        .resolve(&ScenarioSpec::new(TraceRef::Inline(sample_trace()), "fair".parse().unwrap()));
    let key = by_name.expect("name resolves").key;
    assert_eq!(by_digest.expect("digest resolves").key, key);
    assert_eq!(inline.expect("inline resolves").key, key);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Live-server tests
// ---------------------------------------------------------------------------

#[test]
fn serve_caches_byte_identically_and_shuts_down_cleanly() {
    let dir = tmpdir("cache");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server(&dir);

    let health = http(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""));

    // the trace listing carries the content digest used in cache keys
    let listing = http(addr, "GET", "/v1/traces", "");
    assert_eq!(listing.status, 200);
    let digest = digest_trace(&sample_trace()).unwrap().to_string();
    assert!(listing.body.contains(&digest), "listing {} lacks digest", listing.body);

    // same scenario twice: first computes, second hits the cache with the
    // exact same bytes
    let first = http(addr, "POST", "/v1/run", &run_body("maxedf", 7));
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(first.header("x-simmr-cache"), Some("miss"));
    let second = http(addr, "POST", "/v1/run", &run_body("maxedf", 7));
    assert_eq!(second.header("x-simmr-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cached response must be byte-identical");
    assert_eq!(first.header("x-simmr-digest"), Some(digest.as_str()));

    // normalization: a differently-spelled equivalent spec is the same entry
    let canonical = http(
        addr,
        "POST",
        "/v1/run",
        r#"{"trace": "workload", "policy": "capacity:adhoc=1,prod=3", "seed": 3}"#,
    );
    assert_eq!(canonical.header("x-simmr-cache"), Some("miss"));
    let reordered = http(
        addr,
        "POST",
        "/v1/run",
        r#"{"trace": {"name": "workload"}, "policy": "capacity:prod=3,adhoc=1", "seed": 3}"#,
    );
    assert_eq!(reordered.header("x-simmr-cache"), Some("hit"));
    assert_eq!(canonical.body, reordered.body);

    // bad requests fail without disturbing the server
    assert_eq!(http(addr, "POST", "/v1/run", "{not json").status, 400);
    assert_eq!(http(addr, "POST", "/v1/run", r#"{"trace": "nope", "policy": "fifo"}"#).status, 404);
    assert_eq!(http(addr, "GET", "/v1/run", "").status, 405);
    assert_eq!(http(addr, "GET", "/nowhere", "").status, 404);

    let bye = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(bye.status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cluster shapes the engine cannot run are bad requests: an empty slot
/// pool used to panic the handler mid-run, and a huge host count used to
/// abort the whole process on a failed allocation.
#[test]
fn serve_rejects_unrunnable_cluster_shapes() {
    let dir = tmpdir("shapes");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server(&dir);
    let too_many = simmr_serve::MAX_CLUSTER_SIZE + 1;
    for (map_slots, reduce_slots, hosts) in
        [(0, 4, 1), (4, 0, 1), (too_many, 4, 1), (4, 4, 1usize << 40)]
    {
        let body = format!(
            r#"{{"trace": "workload", "policy": "fifo",
                 "cluster": {{"map_slots": {map_slots}, "reduce_slots": {reduce_slots},
                              "hosts": {hosts}}}}}"#
        );
        let reply = http(addr, "POST", "/v1/run", &body);
        assert_eq!(reply.status, 400, "{map_slots}x{reduce_slots} on {hosts} hosts");
        assert!(reply.body.contains("cluster"), "body: {}", reply.body);
        assert_eq!(http(addr, "GET", "/healthz", "").status, 200);
    }
    // a knob that needs another is checked as sent, before normalizing
    // resets the inert one
    let body = r#"{"trace": "workload", "policy": "fifo", "failure_recovery_s": -5.0}"#;
    let reply = http(addr, "POST", "/v1/run", body);
    assert_eq!(reply.status, 400, "body: {}", reply.body);
    assert!(reply.body.contains("failure_recovery_s needs failures"), "body: {}", reply.body);
    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_sweep_batches_and_streams() {
    let dir = tmpdir("sweep");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server(&dir);

    let sweep_body = r#"{"base": {"trace": "workload", "policy": "fifo", "deadline_factor": 1.5},
                         "policies": ["fifo", "maxedf", "minedf"], "seeds": [1, 2]}"#;
    let swept = http(addr, "POST", "/v1/sweep", sweep_body);
    assert_eq!(swept.status, 200, "body: {}", swept.body);
    assert_eq!(swept.header("x-simmr-sweep-count"), Some("6"));
    assert!(swept.body.starts_with('[') && swept.body.ends_with(']'));
    assert_eq!(swept.body.matches("\"cached\":false").count(), 6);

    // the same sweep streamed: every scenario is now cached, and NDJSON
    // lines carry the same reports the buffered form embedded
    let streamed = http(addr, "POST", "/v1/sweep?stream=1", sweep_body);
    assert_eq!(streamed.status, 200);
    let lines: Vec<&str> = streamed.body.lines().collect();
    assert_eq!(lines.len(), 6);
    for line in &lines {
        assert!(line.contains("\"cached\":true"), "expected cache hit: {line}");
        assert!(line.contains("\"report\":{"), "expected embedded report: {line}");
    }

    // a sweep scenario and a single run share the cache
    let single = http(
        addr,
        "POST",
        "/v1/run",
        r#"{"trace": "workload", "policy": "maxedf", "seed": 2, "deadline_factor": 1.5}"#,
    );
    assert_eq!(single.header("x-simmr-cache"), Some("hit"));

    let bad = http(addr, "POST", "/v1/sweep", r#"{"policies": ["fifo"]}"#);
    assert_eq!(bad.status, 400);

    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_fork_requests_share_prefix_checkpoints() {
    let dir = tmpdir("fork");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server(&dir);

    // a contended cluster so divergences genuinely change the schedule
    let fork_run = |divergence: &str| {
        format!(
            r#"{{"trace": "workload", "policy": "fifo",
                 "cluster": {{"map_slots": 2, "reduce_slots": 1, "hosts": 2}},
                 "fork_at": 900, "divergences": [{divergence}]}}"#
        )
    };

    // first forked run computes and memoizes the prefix checkpoint
    let first = http(addr, "POST", "/v1/run", &fork_run(r#"{"policy": "maxedf"}"#));
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(first.header("x-simmr-cache"), Some("miss"));
    assert_eq!(first.header("x-simmr-ckpt"), Some("miss"));

    // identical request: the whole report is memoized, no engine run at all
    let again = http(addr, "POST", "/v1/run", &fork_run(r#"{"policy": "maxedf"}"#));
    assert_eq!(again.header("x-simmr-cache"), Some("hit"));
    assert_eq!(again.header("x-simmr-ckpt"), None, "report hits never touch the engine");
    assert_eq!(first.body, again.body);

    // a different divergence off the same prefix warm-starts from the memo
    let sibling =
        http(addr, "POST", "/v1/run", &fork_run(r#"{"add_slots": {"maps": 6, "reduces": 3}}"#));
    assert_eq!(sibling.status, 200, "body: {}", sibling.body);
    assert_eq!(sibling.header("x-simmr-cache"), Some("miss"));
    assert_eq!(sibling.header("x-simmr-ckpt"), Some("hit"));
    assert_ne!(sibling.body, first.body, "the divergences genuinely differ");

    // a sweep over fork variants runs the shared prefix zero extra times
    // (it is already resident from the /v1/run above)
    let sweep = format!(
        r#"{{"scenarios": [{}, {}, {}]}}"#,
        fork_run(r#"{"fault": {"host": 1, "at": 1200}}"#),
        fork_run(r#"{"add_slots": {"maps": 1}}"#),
        fork_run(r#"{"policy": "fair"}"#)
    );
    let swept = http(addr, "POST", "/v1/sweep", &sweep);
    assert_eq!(swept.status, 200, "body: {}", swept.body);
    assert_eq!(swept.header("x-simmr-sweep-count"), Some("3"));
    assert_eq!(swept.body.matches("\"cached\":false").count(), 3);

    // the checkpoint memo holds exactly one prefix, computed exactly once
    let health = http(addr, "GET", "/healthz", "");
    let ckpt_stats = health
        .body
        .split("\"checkpoints\":")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .expect("checkpoints stats");
    assert!(ckpt_stats.starts_with("{\"entries\":1,"), "one shared prefix: {ckpt_stats}");
    assert!(ckpt_stats.contains("\"misses\":1"), "prefix computed once: {ckpt_stats}");

    // fork spec mistakes are 400s, not engine panics
    let no_instant = http(
        addr,
        "POST",
        "/v1/run",
        r#"{"trace": "workload", "policy": "fifo", "divergences": [{"policy": "fair"}]}"#,
    );
    assert_eq!(no_instant.status, 400, "divergences need fork_at");
    let lone_host = http(
        addr,
        "POST",
        "/v1/run",
        r#"{"trace": "workload", "policy": "fifo", "fork_at": 900,
            "divergences": [{"fault": {"host": 1}}]}"#,
    );
    assert_eq!(lone_host.status, 400, "the default cluster has no failable host");

    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `/healthz` counter, e.g. `health_count(addr, "traces", "misses")`.
fn health_count(addr: SocketAddr, section: &str, key: &str) -> u64 {
    let health = http(addr, "GET", "/healthz", "");
    let v: serde_json::Value = serde_json::from_str(&health.body).expect("healthz is JSON");
    match v.get(section).and_then(|s| s.get(key)) {
        Some(serde_json::Value::U64(n)) => *n,
        other => panic!("healthz {section}.{key} is {other:?}: {}", health.body),
    }
}

/// The report body `/v1/run` answers for `run_body(policy, seed)` when
/// the stored trace is `trace`, computed without the server.
fn expected_body(trace: &WorkloadTrace, policy: &str, seed: u64) -> String {
    let mut spec = ScenarioSpec::new(TraceRef::Inline(trace.clone()), policy.parse().unwrap());
    spec.seed = seed;
    spec.deadline_factor = Some(2.0);
    serde_json::to_string(&SimFacade::new().run(&spec).expect("facade run").report).unwrap()
}

/// The server memoizes resolved traces, but a trace replaced through the
/// database between two identical requests is resolved afresh: the repeat
/// is a report-cache miss under the new digest with the new trace's
/// report, and the trace memo counts the decode.
#[test]
fn serve_resolves_a_replaced_stored_trace_afresh() {
    let dir = tmpdir("replace");
    let db = TraceDatabase::open(&dir).unwrap();
    db.store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server(&dir);

    let first = http(addr, "POST", "/v1/run", &run_body("maxedf", 7));
    assert_eq!(first.header("x-simmr-cache"), Some("miss"));
    let second = http(addr, "POST", "/v1/run", &run_body("maxedf", 7));
    assert_eq!(second.header("x-simmr-cache"), Some("hit"));
    assert_eq!(health_count(addr, "traces", "entries"), 1);
    assert!(health_count(addr, "traces", "hits") >= 1, "the repeat resolved from the memo");
    let misses = health_count(addr, "traces", "misses");

    // a new version of `workload`, stored through the database's temp
    // file + rename
    let mut replacement = sample_trace();
    replacement.jobs[2].arrival = SimTime::from_millis(200);
    db.store("workload", &replacement).unwrap();

    let third = http(addr, "POST", "/v1/run", &run_body("maxedf", 7));
    assert_eq!(third.status, 200, "body: {}", third.body);
    assert_eq!(third.header("x-simmr-cache"), Some("miss"));
    let new_digest = digest_trace(&replacement).unwrap().to_string();
    assert_eq!(third.header("x-simmr-digest"), Some(new_digest.as_str()));
    assert_ne!(third.header("x-simmr-digest"), first.header("x-simmr-digest"));
    assert!(third.body == expected_body(&replacement, "maxedf", 7), "not the new trace's report");
    assert!(third.body != first.body, "the replacement changes the schedule");
    assert!(health_count(addr, "traces", "misses") > misses, "the new content was decoded");
    assert_eq!(health_count(addr, "traces", "entries"), 1, "the stale entry was replaced");

    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace file rewritten in place with different content of the same
/// length and the same modification time (what a `(path, len, mtime,
/// inode)` identity would take for unchanged) is resolved afresh.
#[test]
fn path_refs_see_same_length_in_place_rewrites() {
    let dir = tmpdir("rewrite");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("workload.json");
    let old = sample_trace();
    let mut new = sample_trace();
    new.jobs[1].arrival = SimTime::from_millis(500); // was 400: same width
    let (old_json, new_json) =
        (serde_json::to_string(&old).unwrap(), serde_json::to_string(&new).unwrap());
    assert_eq!(old_json.len(), new_json.len());
    std::fs::write(&path, &old_json).unwrap();

    let facade = SimFacade::new();
    let spec = |trace: TraceRef| {
        let mut s = ScenarioSpec::new(trace, "maxedf".parse().unwrap());
        s.seed = 7;
        s.deadline_factor = Some(2.0);
        s
    };
    let by_path = spec(TraceRef::Path(path.to_string_lossy().into_owned()));
    let before = facade.run(&by_path).unwrap();
    assert_eq!(before.digest, Some(digest_trace(&old).unwrap()));

    let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
    let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.write_all(new_json.as_bytes()).unwrap();
    file.set_modified(modified).unwrap();
    drop(file);
    assert_eq!(std::fs::metadata(&path).unwrap().modified().unwrap(), modified);

    let after = facade.run(&by_path).unwrap();
    assert_eq!(after.digest, Some(digest_trace(&new).unwrap()));
    assert_eq!(after.report, SimFacade::new().run(&spec(TraceRef::Inline(new))).unwrap().report);
    assert_ne!(after.report, before.report);
    assert_eq!(facade.trace_stats().misses, 2, "each content decoded once");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_survives_concurrent_clients() {
    let dir = tmpdir("concurrent");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server(&dir);

    // 8 clients × 4 requests, all for the same 2 scenarios: every response
    // for a scenario must be byte-identical regardless of which client
    // computed it first
    let bodies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|client| {
                scope.spawn(move || {
                    (0..4)
                        .map(|i| {
                            let reply = http(
                                addr,
                                "POST",
                                "/v1/run",
                                &run_body(if (client + i) % 2 == 0 { "fifo" } else { "maxedf" }, 5),
                            );
                            assert_eq!(reply.status, 200, "body: {}", reply.body);
                            format!(
                                "{}|{}",
                                if (client + i) % 2 == 0 { "fifo" } else { "maxedf" },
                                reply.body
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut fifo: Vec<&String> = Vec::new();
    let mut maxedf: Vec<&String> = Vec::new();
    for body in bodies.iter().flatten() {
        if body.starts_with("fifo|") {
            fifo.push(body)
        } else {
            maxedf.push(body)
        }
    }
    assert_eq!(fifo.len() + maxedf.len(), 32);
    assert!(fifo.windows(2).all(|w| w[0] == w[1]), "fifo responses diverged");
    assert!(maxedf.windows(2).all(|w| w[0] == w[1]), "maxedf responses diverged");
    assert_ne!(fifo[0], maxedf[0]);

    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Worker-assisted fan-out: a sweep runs on the server's own workers
// ---------------------------------------------------------------------------

/// A fork scenario on a contended cluster; divergences change the
/// schedule, and every variant shares the prefix up to t=900.
fn fork_spec_json(divergence: &str) -> String {
    format!(
        r#"{{"trace": "workload", "policy": "fifo",
             "cluster": {{"map_slots": 2, "reduce_slots": 1, "hosts": 2}},
             "fork_at": 900, "divergences": [{divergence}]}}"#
    )
}

/// Four fork variants over one prefix, as a `scenarios` sweep body.
fn fork_sweep_body() -> (String, Vec<String>) {
    let specs: Vec<String> = [
        r#"{"policy": "maxedf"}"#,
        r#"{"add_slots": {"maps": 1}}"#,
        r#"{"fault": {"host": 1, "at": 1200}}"#,
        r#"{"policy": "fair"}"#,
    ]
    .iter()
    .map(|d| fork_spec_json(d))
    .collect();
    (format!(r#"{{"scenarios": [{}]}}"#, specs.join(",")), specs)
}

/// The report of `spec_json` run cold by a fresh facade (the fork's
/// prefix replayed from scratch) over the inline sample trace.
fn cold_report(spec_json: &str) -> String {
    let mut spec: ScenarioSpec = serde_json::from_str(spec_json).expect("spec parses");
    spec.trace = TraceRef::Inline(sample_trace());
    serde_json::to_string(&SimFacade::new().run(&spec).expect("facade run").report).unwrap()
}

/// A sweep entry's index and embedded report.
fn entry_index_and_report(entry: &str) -> (usize, &str) {
    let index = entry
        .strip_prefix("{\"index\":")
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("entry without a leading index: {entry:.80}"));
    let report = entry
        .split_once("\"report\":")
        .map(|(_, r)| r.strip_suffix('}').expect("entry closes after its report"))
        .unwrap_or_else(|| panic!("entry without a report: {entry:.80}"));
    (index, report)
}

/// Asserts a streamed sweep answered each of `n` indices exactly once.
fn assert_every_index_once(reply: &Reply, n: usize) {
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let mut seen: Vec<usize> =
        reply.body.lines().map(|line| entry_index_and_report(line).0).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..n).collect::<Vec<_>>(), "body: {}", reply.body);
}

#[test]
fn fanout_concurrent_streamed_sweeps_each_return_every_index_once() {
    let dir = tmpdir("fanout-concurrent");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server_with(&dir, 2);

    // both workers handle a sweep at once: each posts a help token that
    // the other, busy worker pops only after its own request is done
    let bodies: Vec<String> = (0..2)
        .map(|s| {
            format!(
                r#"{{"base": {{"trace": "workload", "policy": "fifo", "deadline_factor": 1.5}},
                     "policies": ["fifo", "maxedf", "minedf", "fair"], "seeds": [{}, {}]}}"#,
                10 + 2 * s,
                11 + 2 * s
            )
        })
        .collect();
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let clients: Vec<_> = bodies
            .iter()
            .map(|body| scope.spawn(move || http(addr, "POST", "/v1/sweep?stream=1", body)))
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });
    for reply in &replies {
        assert_every_index_once(reply, 8);
        assert_eq!(reply.body.matches("\"cached\":false").count(), 8);
    }

    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fanout_single_worker_sweep_completes_without_helpers() {
    let dir = tmpdir("fanout-single");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server_with(&dir, 1);

    let (body, _) = fork_sweep_body();
    assert_every_index_once(&http(addr, "POST", "/v1/sweep?stream=1", &body), 4);
    let buffered = http(addr, "POST", "/v1/sweep", &body);
    assert_eq!(buffered.status, 200, "body: {}", buffered.body);
    assert_eq!(buffered.body.matches("\"cached\":true").count(), 4);

    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fanout_buffered_sweep_keeps_request_order_and_cold_bytes() {
    let dir = tmpdir("fanout-order");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server_with(&dir, 2);

    // every entry warm-starts from the one shared prefix checkpoint; each
    // must carry, in request order, the bytes a cold facade run gives
    let (body, specs) = fork_sweep_body();
    let swept = http(addr, "POST", "/v1/sweep", &body);
    assert_eq!(swept.status, 200, "body: {}", swept.body);
    let entries: Vec<&str> = swept
        .body
        .strip_prefix("[{")
        .and_then(|b| b.strip_suffix("}]"))
        .expect("a JSON array of entries")
        .split("},{\"index\":")
        .collect();
    assert_eq!(entries.len(), specs.len());
    for (position, (entry, spec)) in entries.iter().zip(&specs).enumerate() {
        let entry =
            if position == 0 { format!("{{{entry}}}") } else { format!("{{\"index\":{entry}}}") };
        let (index, report) = entry_index_and_report(&entry);
        assert_eq!(index, position, "entries in request order");
        assert!(entry.contains("\"cached\":false"), "{entry:.80}");
        assert!(report == cold_report(spec), "entry {index} differs from the cold run");
    }
    assert_eq!(health_count(addr, "checkpoints", "misses"), 1, "one prefix, run once");

    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fanout_shutdown_returns_with_help_tokens_still_queued() {
    let dir = tmpdir("fanout-shutdown");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server_with(&dir, 2);

    // an idle connection holds one worker in its request read, so the help
    // tokens the other worker's sweeps post stay queued
    let idle = TcpStream::connect(addr).expect("idle connection");
    let (body, _) = fork_sweep_body();
    assert_every_index_once(&http(addr, "POST", "/v1/sweep?stream=1", &body), 4);
    let fresh = r#"{"base": {"trace": "workload", "policy": "fifo"},
                    "policies": ["fifo", "maxedf"], "seeds": [3, 4]}"#;
    assert_every_index_once(&http(addr, "POST", "/v1/sweep?stream=1", fresh), 4);

    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    drop(idle);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
