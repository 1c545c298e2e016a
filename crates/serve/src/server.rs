//! The `simmr serve` HTTP server: what-if queries over a worker pool.
//!
//! Protocol (JSON bodies, one request per connection):
//!
//! * `GET /healthz` — liveness plus the report cache, checkpoint memo
//!   and trace memo counters.
//! * `GET /v1/traces` — the trace database listing with content digests.
//! * `POST /v1/run` — one [`ScenarioSpec`]; the response body is the
//!   serialized report and the `x-simmr-cache` header says `hit` or
//!   `miss`. The body is byte-identical either way — cache status never
//!   leaks into it.
//! * `POST /v1/sweep` — a base scenario crossed with `policies` ×
//!   `seeds` (or an explicit `scenarios` list). Uncached scenarios are
//!   fanned out over the server's own workers (see `fan_out`); with
//!   `?stream=1` each result is flushed as an NDJSON chunk the moment
//!   it completes.
//! * `POST /v1/shutdown` — responds, then stops the accept loop and
//!   drains the workers.
//!
//! Threads: the accept loop runs on the caller of [`Server::run`], and
//! `--workers` threads serve everything else. A worker pops either a
//! connection or a help token for another request's fan-out, so a sweep
//! borrows idle workers instead of spawning threads; `--workers` bounds
//! every thread that serves requests.
//!
//! A handler that panics answers `500` with a JSON error body if no
//! response byte went out yet; a streamed sweep that already sent its
//! `200` head ends without the final chunk, so the client sees a short
//! stream, never one that looks complete.
//!
//! Every piece of state lives in one `ServerState` value borrowed by
//! the workers — no globals, so tests run servers side by side in one
//! process.

use crate::cache::{CkptCache, ReportCache};
use crate::facade::{FacadeError, ResolvedScenario, ScenarioSpec, SimFacade};
use crate::http::{ChunkedWriter, HttpError, Request, Response};
use simmr_sched::PolicySpec;
use simmr_trace::{TraceDigest, TraceStatus};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Most scenarios one sweep request may expand to.
const MAX_SWEEP: usize = 1024;

/// How `simmr serve` is wired up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:4601` (port 0 picks one).
    pub addr: String,
    /// Worker threads. They serve connections and help with every
    /// request's fan-out, so they are all the threads that serve
    /// requests; 0 means one per core (at least 2, at most 8).
    pub workers: usize,
    /// Trace database directory; named/digest trace refs need it.
    pub db_dir: Option<String>,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Max cached reports per shard.
    pub cache_shard_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4601".into(),
            workers: 0,
            db_dir: None,
            cache_shards: 16,
            cache_shard_cap: 256,
        }
    }
}

/// Everything a request handler can touch, shared across workers.
struct ServerState {
    facade: SimFacade,
    cache: ReportCache,
    ckpts: CkptCache,
    stop: AtomicBool,
    addr: SocketAddr,
    /// The worker queue's sender; emptied at shutdown so the workers,
    /// once the queue drains, see it close and exit.
    pool: Mutex<Option<mpsc::Sender<Work>>>,
    /// Worker threads popping that queue.
    workers: usize,
}

impl ServerState {
    /// The state and the receiving end of its worker queue.
    fn new(
        facade: SimFacade,
        config: &ServeConfig,
        addr: SocketAddr,
        workers: usize,
    ) -> (ServerState, mpsc::Receiver<Work>) {
        let (tx, rx) = mpsc::channel();
        let state = ServerState {
            facade,
            cache: ReportCache::new(config.cache_shards, config.cache_shard_cap),
            ckpts: CkptCache::new(config.cache_shards, config.cache_shard_cap),
            stop: AtomicBool::new(false),
            addr,
            pool: Mutex::new(Some(tx)),
            workers,
        };
        (state, rx)
    }

    /// Queues work for the pool; a no-op once shutdown closed it.
    fn post(&self, work: Work) {
        if let Some(tx) = self.pool.lock().expect("worker queue poisoned").as_ref() {
            let _ = tx.send(work);
        }
    }

    /// Closes the worker queue: workers finish what is queued and exit.
    fn close_pool(&self) {
        self.pool.lock().expect("worker queue poisoned").take();
    }

    /// Flags the accept loop down and wakes it with a throwaway
    /// connection (accept() has no timeout; the nudge is the wake-up).
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// What a worker pops off the queue.
enum Work {
    /// A connection to serve.
    Conn(TcpStream),
    /// An offer to help with another request's [`fan_out`].
    Help(Arc<dyn Help>),
}

/// A fanned-out batch that a worker can help with.
trait Help: Send + Sync {
    /// Claims and runs items until none remain: a no-op once the batch
    /// is done.
    fn help(&self, state: &ServerState);
}

/// One [`fan_out`]'s items: `len` of them, claimed through `next`; the
/// items themselves live in whatever `run` captured (an `Arc<[_]>`).
struct Batch<R, F> {
    len: usize,
    next: AtomicUsize,
    run: F,
    /// Where helpers send `(index, result or panic payload)`.
    results: mpsc::Sender<(usize, thread::Result<R>)>,
}

impl<R, F> Batch<R, F> {
    /// The next unclaimed item, if any; each index is handed out once.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }
}

impl<R, F> Help for Batch<R, F>
where
    R: Send,
    F: Fn(&ServerState, usize) -> R + Send + Sync,
{
    fn help(&self, state: &ServerState) {
        while let Some(i) = self.claim() {
            // a panicking item goes back to the requesting handler; this
            // worker keeps serving
            let result = panic::catch_unwind(AssertUnwindSafe(|| (self.run)(state, i)));
            let _ = self.results.send((i, result));
        }
    }
}

/// Runs `run(state, i)` for every `i in 0..len` on this worker and on
/// idle pool workers, handing each result to `each` on this thread in
/// completion order.
///
/// It posts up to `workers - 1` help tokens, then claims and runs items
/// itself. Once no item is left to claim, it waits only for items a
/// helper already claimed, and those are running. A token queued behind
/// a busy worker therefore never stalls the request, even when every
/// worker is handling one, and a token popped after the batch is done
/// does nothing. A panic in a helper's item is re-raised here. Spawns no
/// thread.
fn fan_out<R, F>(state: &ServerState, len: usize, run: F, mut each: impl FnMut(usize, R))
where
    R: Send + 'static,
    F: Fn(&ServerState, usize) -> R + Send + Sync + 'static,
{
    let (results, received) = mpsc::channel();
    let batch = Arc::new(Batch { len, next: AtomicUsize::new(0), run, results });
    for _ in 1..len.min(state.workers) {
        state.post(Work::Help(Arc::clone(&batch) as Arc<dyn Help>));
    }
    let mut deliver = |(i, result): (usize, thread::Result<R>)| match result {
        Ok(r) => each(i, r),
        Err(payload) => panic::resume_unwind(payload),
    };
    let mut outstanding = len;
    while let Some(i) = batch.claim() {
        deliver((i, Ok((batch.run)(state, i))));
        outstanding -= 1;
        // pass on what helpers finished meanwhile
        while let Ok(done) = received.try_recv() {
            deliver(done);
            outstanding -= 1;
        }
    }
    for _ in 0..outstanding {
        deliver(received.recv().expect("the batch holds a sender"));
    }
}

/// A bound, not-yet-running `simmr serve` instance.
pub struct Server {
    listener: TcpListener,
    queue: mpsc::Receiver<Work>,
    state: ServerState,
}

impl Server {
    /// Binds the listen socket and opens the trace database.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let facade = match &config.db_dir {
            Some(dir) => SimFacade::with_db(dir).map_err(|e| e.to_string())?,
            None => SimFacade::new(),
        };
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot listen on `{}`: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let workers = match config.workers {
            0 => thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(2, 8),
            n => n,
        };
        let (state, queue) = ServerState::new(facade, &config, addr, workers);
        Ok(Server { listener, queue, state })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serves until `POST /v1/shutdown`: accepts connections on this
    /// thread and hands them to the worker pool.
    pub fn run(self) -> Result<(), String> {
        let Server { listener, queue, state } = self;
        let queue = Mutex::new(queue);
        thread::scope(|scope| {
            for _ in 0..state.workers {
                scope.spawn(|| work(&state, &queue));
            }
            for stream in listener.incoming() {
                if state.stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
                    state.post(Work::Conn(stream));
                }
            }
            state.close_pool();
        });
        Ok(())
    }
}

/// One worker: serves connections and helps fan-outs until the queue
/// closes.
fn work(state: &ServerState, queue: &Mutex<mpsc::Receiver<Work>>) {
    loop {
        let next = queue.lock().expect("worker queue poisoned").recv();
        match next {
            Ok(Work::Conn(stream)) => handle(state, stream),
            Ok(Work::Help(batch)) => batch.help(state),
            Err(_) => break,
        }
    }
}

/// A response writer that notes whether any byte was handed to it, so
/// a caught panic can tell whether a `500` may still be sent.
struct Tracked<W> {
    inner: W,
    started: bool,
}

impl<W: Write> Write for Tracked<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.started |= !buf.is_empty();
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Runs `respond` and returns its value; if it panics (e.g. the
/// invariant checker firing), answers `500` when no response byte went
/// out yet and returns `None`. A response already under way is left as
/// it stands: a streamed sweep stops short of its final chunk.
fn answer<W: Write, T>(
    writer: &mut Tracked<W>,
    respond: impl FnOnce(&mut Tracked<W>) -> T,
) -> Option<T> {
    match panic::catch_unwind(AssertUnwindSafe(|| respond(&mut *writer))) {
        Ok(value) => Some(value),
        Err(_) => {
            eprintln!("[simmr serve] request handler panicked");
            if !writer.started {
                let _ = error_response(500, "request handler panicked").write_to(writer);
            }
            None
        }
    }
}

/// Serves one connection: read a request, route it, write the response.
fn handle(state: &ServerState, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = Tracked { inner: BufWriter::new(stream), started: false };
    if answer(&mut writer, |w| route(state, &mut reader, w)) == Some(true) {
        state.begin_shutdown();
    }
}

/// Reads one request and writes its response; `true` for a shutdown.
fn route<W: Write>(state: &ServerState, reader: &mut impl BufRead, writer: &mut W) -> bool {
    let request = match Request::read_from(reader) {
        Ok(Some(r)) => r,
        // clean EOF: e.g. the shutdown wake-up connection
        Ok(None) | Err(HttpError::Io(_)) => return false,
        Err(e) => {
            let _ = error_response(400, &e.to_string()).write_to(writer);
            return false;
        }
    };
    let is_shutdown = request.method == "POST" && request.path == "/v1/shutdown";
    let response = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/v1/traces") => traces(state),
        ("POST", "/v1/run") => run_one(state, &request),
        ("POST", "/v1/sweep") if request.query("stream") == Some("1") => {
            match sweep_streamed(state, &request, writer) {
                Ok(()) => return false,
                Err(resp) => resp,
            }
        }
        ("POST", "/v1/sweep") => sweep(state, &request),
        ("POST", "/v1/shutdown") => Response::json(200, r#"{"status":"shutting down"}"#),
        (_, "/healthz" | "/v1/traces" | "/v1/run" | "/v1/sweep" | "/v1/shutdown") => {
            error_response(405, "method not allowed")
        }
        _ => error_response(404, "no such endpoint"),
    };
    let _ = response.write_to(writer);
    is_shutdown
}

/// `{"error": MSG}` with proper JSON escaping.
fn error_response(status: u16, msg: &str) -> Response {
    let quoted = serde_json::to_string(msg).unwrap_or_else(|_| "\"error\"".into());
    Response::json(status, format!("{{\"error\":{quoted}}}"))
}

/// HTTP status for a facade failure: bad specs are the client's fault,
/// unresolvable traces are "not found".
fn facade_error_response(e: &FacadeError) -> Response {
    let status = match e {
        FacadeError::BadSpec(_) => 400,
        FacadeError::Trace(_) => 404,
    };
    error_response(status, &e.to_string())
}

/// `GET /healthz`.
fn healthz(state: &ServerState) -> Response {
    let v = serde::Value::Object(vec![
        ("status".to_owned(), serde::Value::Str("ok".to_owned())),
        ("cache".to_owned(), serde::Serialize::to_value(&state.cache.stats())),
        ("checkpoints".to_owned(), serde::Serialize::to_value(&state.ckpts.stats())),
        ("traces".to_owned(), serde::Serialize::to_value(&state.facade.trace_stats())),
    ]);
    Response::json(200, serde_json::to_string(&v).expect("value serializes"))
}

/// `GET /v1/traces`.
fn traces(state: &ServerState) -> Response {
    let Some(db) = state.facade.db() else {
        return error_response(404, "no trace database configured (serve --db DIR)");
    };
    let listing = match db.list() {
        Ok(l) => l,
        Err(e) => return error_response(500, &e.to_string()),
    };
    let entries: Vec<serde::Value> = listing
        .iter()
        .map(|(name, status)| {
            let mut pairs = vec![("name".to_owned(), serde::Value::Str(name.clone()))];
            match status {
                TraceStatus::Ok { format, jobs, span, digest } => {
                    pairs.push(("format".to_owned(), serde::Value::Str(format.to_string())));
                    pairs.push(("jobs".to_owned(), serde::Value::U64(*jobs as u64)));
                    if let Some((first, last)) = span {
                        pairs.push((
                            "first_arrival_ms".to_owned(),
                            serde::Value::U64(first.as_millis()),
                        ));
                        pairs.push((
                            "last_arrival_ms".to_owned(),
                            serde::Value::U64(last.as_millis()),
                        ));
                    }
                    pairs.push(("digest".to_owned(), serde::Value::Str(digest.to_string())));
                }
                TraceStatus::Corrupt { format, error } => {
                    pairs.push(("format".to_owned(), serde::Value::Str(format.to_string())));
                    pairs.push(("error".to_owned(), serde::Value::Str(error.clone())));
                }
            }
            serde::Value::Object(pairs)
        })
        .collect();
    let v = serde::Value::Object(vec![("traces".to_owned(), serde::Value::Array(entries))]);
    Response::json(200, serde_json::to_string(&v).expect("value serializes"))
}

/// `POST /v1/run`.
fn run_one(state: &ServerState, request: &Request) -> Response {
    let spec: ScenarioSpec = match request.body_str().map(serde_json::from_str) {
        Ok(Ok(spec)) => spec,
        Ok(Err(e)) => return error_response(400, &e.to_string()),
        Err(e) => return error_response(400, &e.to_string()),
    };
    let resolved = match state.facade.resolve(&spec) {
        Ok(r) => r,
        Err(e) => return facade_error_response(&e),
    };
    let (cached, ckpt, body) = match state.cache.get(&resolved.key) {
        Some(body) => (true, None, body),
        None => {
            let (ckpt, body) = run_miss(state, &resolved);
            (false, ckpt, body)
        }
    };
    let mut response = Response::json(200, body.as_bytes().to_vec())
        .with_header("x-simmr-cache", if cached { "hit" } else { "miss" })
        .with_header("x-simmr-digest", &resolved.digest.to_string());
    if let Some(hit) = ckpt {
        response = response.with_header("x-simmr-ckpt", if hit { "hit" } else { "miss" });
    }
    response
}

/// A sweep request: a base scenario crossed with policy and seed lists,
/// or an explicit scenario list.
struct SweepRequest {
    base: Option<ScenarioSpec>,
    policies: Vec<PolicySpec>,
    seeds: Vec<u64>,
    scenarios: Vec<ScenarioSpec>,
}

impl serde::Deserialize for SweepRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if !matches!(v, serde::Value::Object(_)) {
            return Err(serde::DeError::new("expected object for sweep request"));
        }
        fn list<T: serde::Deserialize>(
            v: &serde::Value,
            name: &str,
        ) -> Result<Vec<T>, serde::DeError> {
            match v.get(name) {
                None | Some(serde::Value::Null) => Ok(Vec::new()),
                Some(fv) => Vec::<T>::from_value(fv)
                    .map_err(|e| serde::DeError::new(format!("sweep.{name}: {e}"))),
            }
        }
        let base = match v.get("base") {
            None | Some(serde::Value::Null) => None,
            Some(fv) => Some(
                ScenarioSpec::from_value(fv)
                    .map_err(|e| serde::DeError::new(format!("sweep.base: {e}")))?,
            ),
        };
        Ok(SweepRequest {
            base,
            policies: list(v, "policies")?,
            seeds: list(v, "seeds")?,
            scenarios: list(v, "scenarios")?,
        })
    }
}

impl SweepRequest {
    /// The concrete scenario list this request describes.
    fn expand(self) -> Result<Vec<ScenarioSpec>, String> {
        if !self.scenarios.is_empty() {
            if self.base.is_some() || !self.policies.is_empty() || !self.seeds.is_empty() {
                return Err("give either `scenarios` or `base` (+ policies/seeds), not both".into());
            }
            return Ok(self.scenarios);
        }
        let Some(base) = self.base else {
            return Err("sweep needs `base` or `scenarios`".into());
        };
        let policies =
            if self.policies.is_empty() { vec![base.policy.clone()] } else { self.policies };
        let seeds = if self.seeds.is_empty() { vec![base.seed] } else { self.seeds };
        let mut specs = Vec::with_capacity(policies.len() * seeds.len());
        for policy in &policies {
            for &seed in &seeds {
                let mut spec = base.clone();
                spec.policy = policy.clone();
                spec.seed = seed;
                specs.push(spec);
            }
        }
        Ok(specs)
    }
}

/// One sweep entry's outcome, ready to serialize.
enum SweepEntry {
    Failed(FacadeError),
    Report { cached: bool, key: String, digest: TraceDigest, body: Arc<str> },
}

/// Renders one NDJSON/array entry. `body` is already-serialized report
/// JSON and is embedded verbatim, so cached and computed entries with
/// the same key carry byte-identical reports.
fn entry_json(index: usize, entry: &SweepEntry) -> String {
    match entry {
        SweepEntry::Failed(e) => {
            let quoted = serde_json::to_string(&e.to_string()).unwrap_or_else(|_| "\"\"".into());
            format!("{{\"index\":{index},\"error\":{quoted}}}")
        }
        SweepEntry::Report { cached, key, digest, body } => {
            let key = serde_json::to_string(key).expect("string serializes");
            format!(
                "{{\"index\":{index},\"cached\":{cached},\"digest\":\"{digest}\",\"key\":{key},\
                 \"report\":{body}}}"
            )
        }
    }
}

/// The resolved report-cache misses of one sweep, with their request
/// indices; shared with the workers that help run them.
type Misses = Arc<[(usize, ResolvedScenario)]>;

/// Parses and resolves a sweep request body into per-index outcomes:
/// already-failed entries, cache hits, and the resolved misses still to
/// run.
fn prepare_sweep(
    state: &ServerState,
    request: &Request,
) -> Result<(Vec<Option<SweepEntry>>, Misses), Response> {
    let parsed: SweepRequest = match request.body_str().map(serde_json::from_str) {
        Ok(Ok(p)) => p,
        Ok(Err(e)) => return Err(error_response(400, &e.to_string())),
        Err(e) => return Err(error_response(400, &e.to_string())),
    };
    let specs = parsed.expand().map_err(|e| error_response(400, &e))?;
    if specs.is_empty() {
        return Err(error_response(400, "sweep expands to zero scenarios"));
    }
    if specs.len() > MAX_SWEEP {
        return Err(error_response(
            400,
            &format!("sweep expands to {} scenarios (limit {MAX_SWEEP})", specs.len()),
        ));
    }
    let mut entries: Vec<Option<SweepEntry>> = Vec::with_capacity(specs.len());
    let mut misses: Vec<(usize, ResolvedScenario)> = Vec::new();
    for (index, resolved) in state.facade.resolve_many(&specs).into_iter().enumerate() {
        match resolved {
            Err(e) => entries.push(Some(SweepEntry::Failed(e))),
            Ok(resolved) => match state.cache.get(&resolved.key) {
                Some(body) => entries.push(Some(SweepEntry::Report {
                    cached: true,
                    key: resolved.key,
                    digest: resolved.digest,
                    body,
                })),
                None => {
                    entries.push(None);
                    misses.push((index, resolved));
                }
            },
        }
    }
    let misses = Misses::from(misses);
    warm_checkpoints(state, &misses);
    Ok((entries, misses))
}

/// Materializes each *distinct* prefix checkpoint the fork scenarios
/// among `misses` share, fanning the prefix runs out over the workers —
/// so a sweep of N divergent suffixes over one prefix runs that prefix
/// exactly once, and every subsequent [`ResolvedScenario::run_warm`]
/// warm-starts from the memo.
fn warm_checkpoints(state: &ServerState, misses: &Misses) {
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<usize> = (0..misses.len())
        .filter(|&i| misses[i].1.ckpt_key().is_some_and(|k| seen.insert(k)))
        .collect();
    let misses = Arc::clone(misses);
    fan_out(
        state,
        distinct.len(),
        move |state, i| misses[distinct[i]].1.ensure_ckpt(&state.ckpts),
        |_, _| {},
    );
}

/// Runs one report-cache miss (warm-starting forks from the checkpoint
/// memo) and caches its serialized report — the bytes a later hit
/// returns. Also returns the fork's checkpoint-memo outcome (`None` for
/// non-forks).
fn run_miss(state: &ServerState, resolved: &ResolvedScenario) -> (Option<bool>, Arc<str>) {
    let run = resolved.run_warm(&state.ckpts);
    let body: Arc<str> =
        Arc::from(serde_json::to_string(&run.report).expect("report serializes").as_str());
    state.cache.insert(resolved.key.clone(), Arc::clone(&body));
    (run.ckpt, body)
}

/// Runs every miss through [`fan_out`], handing `each` the request index
/// and the entry of each scenario as it completes.
fn run_misses(state: &ServerState, misses: &Misses, mut each: impl FnMut(usize, SweepEntry)) {
    let items = Arc::clone(misses);
    let run = move |state: &ServerState, i: usize| {
        let resolved = &items[i].1;
        let (_, body) = run_miss(state, resolved);
        SweepEntry::Report {
            cached: false,
            key: resolved.key.clone(),
            digest: resolved.digest,
            body,
        }
    };
    fan_out(state, misses.len(), run, |i, entry| each(misses[i].0, entry));
}

/// `POST /v1/sweep` (buffered): one JSON array, entries in request
/// order, uncached scenarios fanned out over the workers.
fn sweep(state: &ServerState, request: &Request) -> Response {
    let (mut entries, misses) = match prepare_sweep(state, request) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    run_misses(state, &misses, |index, entry| entries[index] = Some(entry));
    let rendered: Vec<String> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| entry_json(i, e.as_ref().expect("every entry filled")))
        .collect();
    Response::json(200, format!("[{}]", rendered.join(",")))
        .with_header("x-simmr-sweep-count", &rendered.len().to_string())
}

/// `POST /v1/sweep?stream=1`: NDJSON chunks. Failures and cache hits
/// flush immediately; each computed scenario flushes from this worker
/// the moment its engine run completes (completion order, tagged with
/// `index`).
fn sweep_streamed<W: Write>(
    state: &ServerState,
    request: &Request,
    writer: &mut W,
) -> Result<(), Response> {
    let (entries, misses) = prepare_sweep(state, request)?;
    let total = entries.len();
    let headers = vec![("x-simmr-sweep-count".to_owned(), total.to_string())];
    let Ok(mut chunks) = ChunkedWriter::start(writer, 200, &headers) else { return Ok(()) };
    for (index, entry) in entries.iter().enumerate() {
        if let Some(entry) = entry {
            let _ = chunks.line(&entry_json(index, entry));
        }
    }
    run_misses(state, &misses, |index, entry| {
        let _ = chunks.line(&entry_json(index, &entry));
    });
    let _ = chunks.finish();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A server state with a `workers`-wide queue and no listener.
    fn test_state(workers: usize) -> (ServerState, Mutex<mpsc::Receiver<Work>>) {
        let addr = "127.0.0.1:0".parse().expect("socket address");
        let (state, queue) =
            ServerState::new(SimFacade::new(), &ServeConfig::default(), addr, workers);
        (state, Mutex::new(queue))
    }

    /// Waits until `flag` is set; a side of the batch that never comes
    /// fails the test instead of hanging it.
    fn wait_for(flag: &AtomicBool) {
        let start = Instant::now();
        while !flag.load(Ordering::SeqCst) {
            assert!(start.elapsed() < Duration::from_secs(20), "one side never joined the batch");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// A two-item batch that runs one item on the caller and the other
    /// on a helper. Each side raises its flag and then waits for the
    /// other's, so whoever claims first cannot also take the second
    /// item. The helper's item then calls `on_helper`, the caller's
    /// `on_caller`.
    fn helped_batch<R: Send + 'static>(
        caller: thread::ThreadId,
        on_helper: fn(usize) -> R,
        on_caller: fn(usize) -> R,
    ) -> impl Fn(&ServerState, usize) -> R + Send + Sync + 'static {
        let helped = Arc::new(AtomicBool::new(false));
        let called = Arc::new(AtomicBool::new(false));
        move |_, i| {
            if thread::current().id() == caller {
                called.store(true, Ordering::SeqCst);
                wait_for(&helped);
                on_caller(i)
            } else {
                helped.store(true, Ordering::SeqCst);
                wait_for(&called);
                on_helper(i)
            }
        }
    }

    /// Closes the pool when dropped, on a failed assertion too, so a
    /// scoped worker exits and the test fails instead of hanging.
    struct ClosePool<'a>(&'a ServerState);

    impl Drop for ClosePool<'_> {
        fn drop(&mut self) {
            self.0.close_pool();
        }
    }

    #[test]
    fn fanout_reraises_a_helper_panic_and_the_helper_keeps_serving() {
        let (state, queue) = test_state(2);
        thread::scope(|scope| {
            scope.spawn(|| work(&state, &queue));
            let _close = ClosePool(&state);
            let caller = thread::current().id();
            let batch = helped_batch(caller, |_| panic!("injected helper panic"), |_| ());
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                fan_out(&state, 2, batch, |_, ()| {});
            }));
            let payload = caught.expect_err("the helper's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"injected helper panic"));

            // the worker that caught the panic helps the next batch
            let batch = helped_batch(caller, |i| (i, false), |i| (i, true));
            let mut got = Vec::new();
            fan_out(&state, 2, batch, |i, r| got.push((i, r)));
            got.sort();
            assert_eq!(got.len(), 2);
            assert_eq!(
                got.iter().map(|(i, (j, _))| (*i, *j)).collect::<Vec<_>>(),
                [(0, 0), (1, 1)]
            );
            assert_eq!(got.iter().filter(|(_, (_, on_caller))| !on_caller).count(), 1);
        });
    }

    #[test]
    fn fanout_without_helpers_runs_every_item_on_the_caller() {
        // one worker: the caller is the whole pool, and posts no token
        let (state, queue) = test_state(1);
        let caller = thread::current().id();
        let mut got = Vec::new();
        fan_out(
            &state,
            5,
            move |_, i| (i, thread::current().id() == caller),
            |i, r| got.push((i, r)),
        );
        assert_eq!(got, (0..5).map(|i| (i, (i, true))).collect::<Vec<_>>());
        assert!(queue.lock().unwrap().try_recv().is_err(), "no help token was posted");
    }

    #[test]
    fn fanout_tokens_popped_after_the_batch_are_no_ops() {
        // nobody serves the queue while the batch runs, so the caller runs
        // it all and its token is left queued
        let (state, queue) = test_state(3);
        let mut got = Vec::new();
        fan_out(&state, 3, |_, i| i * 10, |i, r| got.push((i, r)));
        assert_eq!(got, [(0, 0), (1, 10), (2, 20)]);
        let mut stale = 0;
        while let Ok(work) = queue.lock().unwrap().try_recv() {
            let Work::Help(batch) = work else { panic!("only help tokens were posted") };
            batch.help(&state);
            stale += 1;
        }
        assert_eq!(stale, 2, "min(items, workers) - 1 tokens");
    }

    #[test]
    fn panic_before_any_response_byte_is_a_json_500() {
        let mut w = Tracked { inner: Vec::new(), started: false };
        let answered = answer(&mut w, |_| -> bool { panic!("injected handler panic") });
        assert!(answered.is_none());
        let text = String::from_utf8(w.inner).expect("utf8 response");
        assert!(text.starts_with("HTTP/1.1 500 Internal Server Error\r\n"), "{text}");
        let body = text.split_once("\r\n\r\n").expect("head and body").1;
        let v: serde_json::Value = serde_json::from_str(body).expect("JSON error body");
        assert!(matches!(v.get("error"), Some(serde_json::Value::Str(_))), "{body}");
    }

    #[test]
    fn panic_mid_stream_leaves_the_stream_without_its_final_chunk() {
        let mut w = Tracked { inner: Vec::new(), started: false };
        let answered = answer::<_, ()>(&mut w, |w| {
            let mut chunks = ChunkedWriter::start(w, 200, &[]).expect("head");
            chunks.line(r#"{"index":0}"#).expect("line");
            panic!("injected mid-stream panic")
        });
        assert!(answered.is_none());
        let text = String::from_utf8(w.inner).expect("utf8 response");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("{\"index\":0}\n"), "{text}");
        assert!(!text.contains(" 500 "), "no second status line: {text}");
        assert!(!text.ends_with("0\r\n\r\n"), "the stream must not look complete: {text}");
    }
}
