//! # simmr-serve
//!
//! The what-if **simulation service** layer: a request-scoped facade over
//! the SimMR engine plus the long-running `simmr serve` HTTP server built
//! on top of it (see `DESIGN.md` §2.8).
//!
//! The paper's workflow is interactive capacity planning: an operator
//! holds a profiled trace and asks *"what if I ran it under maxedf with
//! 32 slots and two host failures?"* over and over. Before this crate
//! every such question re-threaded a dozen `EngineConfig` builder calls
//! through the CLI; now a question is one serializable value:
//!
//! * [`ScenarioSpec`] — the complete description of one simulation run:
//!   a [`TraceRef`] (database name, content digest, file path or inline
//!   trace), a [`simmr_sched::PolicySpec`], the cluster shape and the
//!   failure/recovery/speculation/slowdown knobs, all serde round-trip.
//! * [`SimFacade`] — resolves specs against a trace database and runs
//!   them: [`SimFacade::run`] for one scenario (binary trace files still
//!   stream through the engine), [`SimFacade::run_batch`] to fan a batch
//!   of scenarios out over all cores with one [`simmr_stats::parallel_sweep`].
//!   A trace memo that lives as long as the facade decodes each stored
//!   trace once per content and keeps its deadline-stamped variants:
//!   every resolve re-reads the file and reuses the memo entry only if
//!   the bytes are unchanged, so a replaced trace is never served stale.
//! * [`ScenarioSpec::canonical_key`] — the normalized cache identity of
//!   a scenario: equivalent specs (reordered capacity queues, clamped
//!   knobs, any [`TraceRef`] spelling of the same content) map to the
//!   same key, and the engine's determinism makes the key sound: same
//!   key ⇒ byte-identical report.
//! * [`ReportCache`] — a sharded memo cache from canonical key to the
//!   serialized report, so repeated what-if queries are O(1).
//! * [`Server`] — the `simmr serve` HTTP/JSON endpoint: `POST /v1/run`,
//!   `POST /v1/sweep` (optionally streaming partial results as NDJSON
//!   chunks), `GET /v1/traces`, `GET /healthz` (report cache, checkpoint
//!   memo and trace memo counters), `POST /v1/shutdown`.
//!   Plain `TcpListener` + worker threads, which also run each sweep's
//!   fan-out (no thread per request); no global state, no runtime
//!   dependencies.

pub mod cache;
pub mod facade;
pub mod http;
pub mod server;

pub use cache::{CacheStats, CkptCache, MemoCache, ReportCache};
pub use facade::{
    attach_deadlines, attach_deadlines_with, load_trace_file, DivergenceSpec, FacadeError,
    FacadeRun, ResolvedScenario, ScenarioSpec, SimFacade, TraceRef, MAX_CLUSTER_SIZE,
};
pub use server::{ServeConfig, Server};
