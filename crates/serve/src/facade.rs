//! The request-scoped engine facade: [`ScenarioSpec`] in,
//! [`simmr_types::SimulationReport`] out.
//!
//! A scenario is *everything* a simulation run depends on, as one plain
//! serializable value — where the CLI used to thread a dozen
//! `EngineConfig` builder calls per call site. The facade resolves the
//! scenario's [`TraceRef`] (against a [`TraceDatabase`] when one is
//! configured), stamps deadlines when asked, builds the policy and the
//! engine config, and runs. Because the engine is deterministic, the
//! normalized spec plus the trace's content digest — the
//! [`ScenarioSpec::canonical_key`] — fully determines the report byte
//! for byte, which is what makes the serve layer's memo cache sound.
//! Resolved traces and their deadline-stamped variants are memoized for
//! the facade's lifetime; a file-backed trace is reused only while its
//! file still holds the bytes it was decoded from (see [`SimFacade`]).

use crate::cache::{CacheStats, CkptCache, MemoCache};
use simmr_core::{
    Divergence, EngineCheckpoint, EngineConfig, FaultSpec, ForkSpec, JobSource, RecoverySpec,
    SimulatorEngine,
};
use simmr_sched::PolicySpec;
use simmr_stats::parallel_sweep;
use simmr_stats::{Dist, SeededRng};
use simmr_trace::{digest_trace, BinTraceSource, TraceDatabase, TraceDigest, TraceFormat};
use simmr_types::{ClusterSpec, HostId, JobSpec, SimTime, SimulationReport, WorkloadTrace};
use std::fmt;
use std::sync::Arc;

/// Which trace a scenario runs: a reference the facade resolves.
///
/// Serialized as an object with exactly one key — `{"name": N}`,
/// `{"digest": D}`, `{"path": P}` or `{"inline": TRACE}` — or, as a
/// shorthand, a bare string meaning a database name.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRef {
    /// A named entry in the configured trace database.
    Name(String),
    /// Whatever database entry has this content digest.
    Digest(TraceDigest),
    /// A trace file on the server's filesystem (JSON or SIMMRBIN).
    Path(String),
    /// The trace itself, shipped in the request.
    Inline(WorkloadTrace),
}

impl serde::Serialize for TraceRef {
    fn to_value(&self) -> serde::Value {
        let (key, v) = match self {
            TraceRef::Name(n) => ("name", serde::Value::Str(n.clone())),
            TraceRef::Digest(d) => ("digest", serde::Value::Str(d.to_string())),
            TraceRef::Path(p) => ("path", serde::Value::Str(p.clone())),
            TraceRef::Inline(t) => ("inline", t.to_value()),
        };
        serde::Value::Object(vec![(key.to_owned(), v)])
    }
}

impl serde::Deserialize for TraceRef {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(name) => Ok(TraceRef::Name(name.clone())),
            serde::Value::Object(pairs) => {
                if pairs.len() != 1 {
                    return Err(serde::DeError::new(
                        "trace ref must have exactly one of `name`, `digest`, `path`, `inline`",
                    ));
                }
                let (key, val) = &pairs[0];
                match key.as_str() {
                    "name" => String::from_value(val).map(TraceRef::Name),
                    "digest" => TraceDigest::from_value(val).map(TraceRef::Digest),
                    "path" => String::from_value(val).map(TraceRef::Path),
                    "inline" => WorkloadTrace::from_value(val).map(TraceRef::Inline),
                    other => Err(serde::DeError::new(format!("unknown trace ref kind `{other}`"))),
                }
            }
            other => Err(serde::DeError::new(format!(
                "expected trace ref object or name string, got {other:?}"
            ))),
        }
    }
}

/// One serializable fork divergence, applied at the scenario's
/// `fork_at` instant (see [`simmr_core::Divergence`] for semantics).
///
/// Serialized as an object with exactly one key:
/// `{"policy": SPEC}` — hand the live queue to a different policy;
/// `{"add_slots": {"maps": N, "reduces": M}}` — grow the slot pools;
/// `{"fault": {"host": H, "at": MS}}` — permanently fail a host;
/// `{"surge": [JOB, ...]}` — inject extra job arrivals.
#[derive(Debug, Clone, PartialEq)]
pub enum DivergenceSpec {
    /// Swap the scheduling policy from the fork instant on.
    Policy(PolicySpec),
    /// Grow the map/reduce slot pools (grow-only, like the engine).
    AddSlots {
        /// Extra map slots.
        map_slots: usize,
        /// Extra reduce slots.
        reduce_slots: usize,
    },
    /// Permanently fail a host no earlier than the given instant (ms).
    Fault {
        /// Host to fail (host 0 never fails).
        host: u32,
        /// Failure instant in ms; clamped past the fork boundary.
        at_ms: u64,
    },
    /// Inject extra jobs (arrivals clamped past the fork boundary).
    Surge(Vec<JobSpec>),
}

impl DivergenceSpec {
    /// The engine-side divergence this spec describes.
    fn build(&self) -> Divergence {
        match self {
            DivergenceSpec::Policy(p) => Divergence::PolicySwap(p.build()),
            DivergenceSpec::AddSlots { map_slots, reduce_slots } => {
                Divergence::AddSlots { map_slots: *map_slots, reduce_slots: *reduce_slots }
            }
            DivergenceSpec::Fault { host, at_ms } => {
                Divergence::InjectFault { host: HostId(*host), at: SimTime::from_millis(*at_ms) }
            }
            DivergenceSpec::Surge(jobs) => Divergence::ArrivalSurge(jobs.clone()),
        }
    }
}

impl serde::Serialize for DivergenceSpec {
    fn to_value(&self) -> serde::Value {
        let (key, v) = match self {
            DivergenceSpec::Policy(p) => ("policy", p.to_value()),
            DivergenceSpec::AddSlots { map_slots, reduce_slots } => (
                "add_slots",
                serde::Value::Object(vec![
                    ("maps".to_owned(), map_slots.to_value()),
                    ("reduces".to_owned(), reduce_slots.to_value()),
                ]),
            ),
            DivergenceSpec::Fault { host, at_ms } => (
                "fault",
                serde::Value::Object(vec![
                    ("host".to_owned(), host.to_value()),
                    ("at".to_owned(), at_ms.to_value()),
                ]),
            ),
            DivergenceSpec::Surge(jobs) => ("surge", jobs.to_value()),
        };
        serde::Value::Object(vec![(key.to_owned(), v)])
    }
}

impl serde::Deserialize for DivergenceSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Object(pairs) = v else {
            return Err(serde::DeError::new(format!("expected divergence object, got {v:?}")));
        };
        if pairs.len() != 1 {
            return Err(serde::DeError::new(
                "divergence must have exactly one of `policy`, `add_slots`, `fault`, `surge`",
            ));
        }
        let (key, val) = &pairs[0];
        match key.as_str() {
            "policy" => PolicySpec::from_value(val).map(DivergenceSpec::Policy),
            "add_slots" => {
                let sub = |name: &str| match val.get(name) {
                    None | Some(serde::Value::Null) => Ok(0usize),
                    Some(fv) => usize::from_value(fv)
                        .map_err(|e| serde::DeError::new(format!("add_slots.{name}: {e}"))),
                };
                Ok(DivergenceSpec::AddSlots {
                    map_slots: sub("maps")?,
                    reduce_slots: sub("reduces")?,
                })
            }
            "fault" => {
                let host = match val.get("host") {
                    Some(fv) => u32::from_value(fv)
                        .map_err(|e| serde::DeError::new(format!("fault.host: {e}")))?,
                    None => return Err(serde::DeError::new("fault divergence needs `host`")),
                };
                let at_ms = match val.get("at") {
                    None | Some(serde::Value::Null) => 0,
                    Some(fv) => u64::from_value(fv)
                        .map_err(|e| serde::DeError::new(format!("fault.at: {e}")))?,
                };
                Ok(DivergenceSpec::Fault { host, at_ms })
            }
            "surge" => Vec::<JobSpec>::from_value(val).map(DivergenceSpec::Surge),
            other => Err(serde::DeError::new(format!("unknown divergence kind `{other}`"))),
        }
    }
}

/// The largest map-slot, reduce-slot or host count a scenario may ask
/// for, after any `add_slots` divergences. The engine numbers slots with
/// `u32` ids and allocates per-slot and per-host tables up front, so
/// larger requests are rejected as bad specs instead of aborting the
/// process on a failed allocation.
pub const MAX_CLUSTER_SIZE: usize = 1 << 20;

/// The complete, serializable description of one simulation run.
///
/// Construct with [`ScenarioSpec::new`] (which fills the CLI's defaults)
/// and set the public fields, or deserialize from a request body — only
/// `trace` and `policy` are required there; every other field defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The trace to replay.
    pub trace: TraceRef,
    /// The scheduling policy (canonical string form over the wire).
    pub policy: PolicySpec,
    /// Cluster shape: slot pools and the host count they stripe over.
    pub cluster: ClusterSpec,
    /// Seed shared by the deadline, fault, recovery and slowdown streams
    /// (mirroring the CLI's single `--seed`).
    pub seed: u64,
    /// Stamp §V-B deadlines: uniform in `[T_j, factor × T_j]` past each
    /// arrival, where `T_j` is the job's standalone duration.
    pub deadline_factor: Option<f64>,
    /// Number of planned fail-stop host losses; needs `cluster.hosts ≥ 2`.
    pub failures: Option<u32>,
    /// Mean inter-failure interval in seconds (used only with `failures`).
    pub failure_mtbf_s: f64,
    /// Mean host downtime in seconds; failures are permanent when absent.
    pub failure_recovery_s: Option<f64>,
    /// Speculative re-execution threshold (× median map duration).
    pub speculation: Option<f64>,
    /// Per-slot mean-1 LogNormal slowdown with this sigma.
    pub slowdown_sigma: Option<f64>,
    /// Slowstart override (fraction of maps before reduces start);
    /// `None` keeps the engine default.
    pub slowstart: Option<f64>,
    /// Skip per-job results (aggregate-only report).
    pub aggregate: bool,
    /// Record the per-task timeline in the report.
    pub timeline: bool,
    /// Run the engine's runtime invariant checker.
    pub check_invariants: bool,
    /// Fork instant in ms: run the scenario as a *fork* of its own
    /// prefix — the prefix runs (or warm-starts from a memoized
    /// checkpoint) up to the last settled batch boundary ≤ this instant,
    /// then `divergences` apply and the suffix runs to completion.
    pub fork_at: Option<u64>,
    /// Divergences applied at `fork_at`, in order. Needs `fork_at`.
    pub divergences: Vec<DivergenceSpec>,
}

impl ScenarioSpec {
    /// A scenario with the CLI's defaults: 64×64 single-host cluster,
    /// seed 1, no deadlines, failures, speculation or slowdown.
    pub fn new(trace: TraceRef, policy: PolicySpec) -> Self {
        ScenarioSpec {
            trace,
            policy,
            cluster: ClusterSpec::new(64, 64),
            seed: 1,
            deadline_factor: None,
            failures: None,
            failure_mtbf_s: 3600.0,
            failure_recovery_s: None,
            speculation: None,
            slowdown_sigma: None,
            slowstart: None,
            aggregate: false,
            timeline: false,
            check_invariants: false,
            fork_at: None,
            divergences: Vec::new(),
        }
    }

    /// Rewrites the spec to its canonical form: every knob clamped the
    /// way the engine would clamp it, parameters that cannot affect the
    /// run reset to defaults, capacity queues in name order. Equivalent
    /// specs normalize identically, so they share a cache key.
    pub fn normalize(&mut self) {
        self.cluster.hosts = self.cluster.hosts.max(1);
        if let PolicySpec::Capacity { queues } = &mut self.policy {
            // FromStr already sorts; programmatic construction may not
            queues.sort_by(|a, b| a.0.cmp(&b.0));
        }
        if self.failures.is_none() {
            // without failures the MTBF and recovery knobs are inert
            self.failure_mtbf_s = 3600.0;
            self.failure_recovery_s = None;
        }
        if let Some(df) = &mut self.deadline_factor {
            // attach_deadlines draws from [T_j, max(1, factor) × T_j]
            *df = df.max(1.0);
        }
        if let Some(f) = &mut self.speculation {
            // the engine clamps to ≥ 1 (duplicating non-stragglers is senseless)
            *f = f.max(1.0);
        }
        if let Some(s) = &mut self.slowstart {
            *s = s.clamp(0.0, 1.0);
        }
        if self.divergences.is_empty() {
            // a fork with no divergences replays the base scenario
            // byte-identically, so it shares the base cache entry
            self.fork_at = None;
        }
        for d in &mut self.divergences {
            if let DivergenceSpec::Policy(PolicySpec::Capacity { queues }) = d {
                queues.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }
    }

    /// Rejects inconsistent specs with the CLI's rules.
    pub fn validate(&self) -> Result<(), FacadeError> {
        let bad = |msg: &str| Err(FacadeError::BadSpec(msg.into()));
        let c = self.cluster;
        if c.map_slots == 0 || c.reduce_slots == 0 {
            return bad("a cluster needs at least one map slot and one reduce slot");
        }
        let (mut maps, mut reduces) = (c.map_slots, c.reduce_slots);
        for d in &self.divergences {
            if let DivergenceSpec::AddSlots { map_slots, reduce_slots } = d {
                maps = maps.saturating_add(*map_slots);
                reduces = reduces.saturating_add(*reduce_slots);
            }
        }
        if maps.max(reduces).max(c.hosts) > MAX_CLUSTER_SIZE {
            return Err(FacadeError::BadSpec(format!(
                "cluster too large: {maps} map slots, {reduces} reduce slots and {} hosts \
                 (after add_slots); each may be at most {MAX_CLUSTER_SIZE}",
                c.hosts
            )));
        }
        if self.failures.is_some() {
            if self.cluster.hosts < 2 {
                return bad("failures need a cluster of at least 2 hosts (host 0 never fails)");
            }
            if !(self.failure_mtbf_s.is_finite() && self.failure_mtbf_s > 0.0) {
                return bad("failure_mtbf_s must be positive");
            }
        }
        if let Some(rec) = self.failure_recovery_s {
            if self.failures.is_none() {
                return bad("failure_recovery_s needs failures");
            }
            if !(rec.is_finite() && rec > 0.0) {
                return bad("failure_recovery_s must be positive");
            }
        }
        if let Some(sigma) = self.slowdown_sigma {
            if !(sigma.is_finite() && sigma > 0.0) {
                return bad("slowdown_sigma must be positive");
            }
        }
        if let Some(df) = self.deadline_factor {
            if !df.is_finite() {
                return bad("deadline_factor must be finite");
            }
        }
        if !self.divergences.is_empty() && self.fork_at.is_none() {
            return bad("divergences need fork_at (the fork instant in ms)");
        }
        for d in &self.divergences {
            match d {
                DivergenceSpec::Fault { host, .. } => {
                    if self.cluster.hosts < 2 {
                        return bad("a fork fault needs a cluster of at least 2 hosts");
                    }
                    if *host == 0 || *host as usize >= self.cluster.hosts {
                        return Err(FacadeError::BadSpec(format!(
                            "fork fault names host {host} of a {}-host cluster \
                             (host 0 never fails)",
                            self.cluster.hosts
                        )));
                    }
                }
                DivergenceSpec::Surge(jobs) => {
                    if jobs.is_empty() {
                        return bad("a surge divergence needs at least one job");
                    }
                    for job in jobs {
                        job.template.validate().map_err(|e| {
                            FacadeError::BadSpec(format!("surge job template invalid: {e}"))
                        })?;
                    }
                }
                DivergenceSpec::Policy(_) | DivergenceSpec::AddSlots { .. } => {}
            }
        }
        Ok(())
    }

    /// The scenario's cache identity: compact JSON of the normalized
    /// spec with the trace reference replaced by the resolved content
    /// `digest`. Two specs with equal keys produce byte-identical
    /// reports (the engine is deterministic in everything the key pins).
    /// The spec is serialized with its reference already
    /// `{"digest": ...}`, so an inline trace is neither cloned nor
    /// serialized.
    pub fn canonical_key(&self, digest: TraceDigest) -> String {
        let mut spec = ScenarioSpec {
            trace: TraceRef::Digest(digest),
            policy: self.policy.clone(),
            divergences: self.divergences.clone(),
            ..*self
        };
        spec.normalize();
        serde_json::to_string(&spec).expect("spec serialization is infallible")
    }

    /// The engine configuration this spec describes (trace-independent).
    fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig::new(self.cluster.map_slots, self.cluster.reduce_slots)
            .with_cluster(self.cluster);
        if self.aggregate {
            config = config.without_job_results();
        }
        if self.timeline {
            config = config.with_timeline();
        }
        if self.check_invariants {
            config = config.with_invariants();
        }
        if let Some(count) = self.failures {
            config = config.with_faults(FaultSpec {
                seed: self.seed,
                count,
                mean_interval_ms: (self.failure_mtbf_s * 1000.0) as u64,
            });
        }
        if let Some(rec_s) = self.failure_recovery_s {
            config = config
                .with_recovery(RecoverySpec { seed: self.seed, mean_ms: (rec_s * 1000.0) as u64 });
        }
        if let Some(factor) = self.speculation {
            config = config.with_speculation(factor);
        }
        if let Some(sigma) = self.slowdown_sigma {
            // mean-1 LogNormal: perturbs without shifting the average
            let dist = Dist::LogNormal { mu: -sigma * sigma / 2.0, sigma };
            config = config.with_slowdown(dist, self.seed);
        }
        if let Some(fraction) = self.slowstart {
            config = config.with_slowstart(fraction);
        }
        config
    }

    /// The engine-side fork this spec describes (meaningful only when
    /// `fork_at` is set).
    fn fork_spec(&self) -> ForkSpec {
        ForkSpec::new(
            SimTime::from_millis(self.fork_at.unwrap_or(0)),
            self.divergences.iter().map(DivergenceSpec::build).collect(),
        )
    }
}

impl serde::Serialize for ScenarioSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("trace".to_owned(), self.trace.to_value()),
            ("policy".to_owned(), self.policy.to_value()),
            ("cluster".to_owned(), self.cluster.to_value()),
            ("seed".to_owned(), self.seed.to_value()),
            ("deadline_factor".to_owned(), self.deadline_factor.to_value()),
            ("failures".to_owned(), self.failures.to_value()),
            ("failure_mtbf_s".to_owned(), self.failure_mtbf_s.to_value()),
            ("failure_recovery_s".to_owned(), self.failure_recovery_s.to_value()),
            ("speculation".to_owned(), self.speculation.to_value()),
            ("slowdown_sigma".to_owned(), self.slowdown_sigma.to_value()),
            ("slowstart".to_owned(), self.slowstart.to_value()),
            ("aggregate".to_owned(), self.aggregate.to_value()),
            ("timeline".to_owned(), self.timeline.to_value()),
            ("check_invariants".to_owned(), self.check_invariants.to_value()),
            ("fork_at".to_owned(), self.fork_at.to_value()),
            ("divergences".to_owned(), self.divergences.to_value()),
        ])
    }
}

impl serde::Deserialize for ScenarioSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if !matches!(v, serde::Value::Object(_)) {
            return Err(serde::DeError::new("expected object for ScenarioSpec"));
        }
        fn field<T: serde::Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::DeError> {
            match v.get(name) {
                Some(fv) => T::from_value(fv)
                    .map_err(|e| serde::DeError::new(format!("ScenarioSpec.{name}: {e}"))),
                None => T::from_missing(name),
            }
        }
        fn field_or<T: serde::Deserialize>(
            v: &serde::Value,
            name: &str,
            default: T,
        ) -> Result<T, serde::DeError> {
            match v.get(name) {
                Some(serde::Value::Null) | None => Ok(default),
                Some(fv) => T::from_value(fv)
                    .map_err(|e| serde::DeError::new(format!("ScenarioSpec.{name}: {e}"))),
            }
        }
        let defaults = ScenarioSpec::new(TraceRef::Name(String::new()), PolicySpec::Fifo);
        Ok(ScenarioSpec {
            trace: field(v, "trace")?,
            policy: field(v, "policy")?,
            cluster: field_or(v, "cluster", defaults.cluster)?,
            seed: field_or(v, "seed", defaults.seed)?,
            deadline_factor: field(v, "deadline_factor")?,
            failures: field(v, "failures")?,
            failure_mtbf_s: field_or(v, "failure_mtbf_s", defaults.failure_mtbf_s)?,
            failure_recovery_s: field(v, "failure_recovery_s")?,
            speculation: field(v, "speculation")?,
            slowdown_sigma: field(v, "slowdown_sigma")?,
            slowstart: field(v, "slowstart")?,
            aggregate: field_or(v, "aggregate", false)?,
            timeline: field_or(v, "timeline", false)?,
            check_invariants: field_or(v, "check_invariants", false)?,
            fork_at: field(v, "fork_at")?,
            divergences: field_or(v, "divergences", Vec::new())?,
        })
    }
}

/// Why the facade rejected or failed a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum FacadeError {
    /// The spec itself is malformed or inconsistent.
    BadSpec(String),
    /// The trace reference could not be resolved or loaded.
    Trace(String),
}

impl FacadeError {
    /// The bare message, without the kind prefix [`fmt::Display`] adds —
    /// what the CLI surfaces, matching its pre-facade error strings.
    pub fn message(&self) -> &str {
        match self {
            FacadeError::BadSpec(msg) | FacadeError::Trace(msg) => msg,
        }
    }
}

impl fmt::Display for FacadeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FacadeError::BadSpec(msg) => write!(f, "bad scenario: {msg}"),
            FacadeError::Trace(msg) => write!(f, "trace: {msg}"),
        }
    }
}

impl std::error::Error for FacadeError {}

/// A scenario after trace resolution: normalized spec, the materialized
/// (and deadline-stamped, when asked) trace, its content digest and the
/// canonical cache key. Ready to run on any thread.
#[derive(Debug, Clone)]
pub struct ResolvedScenario {
    /// The normalized spec.
    pub spec: ScenarioSpec,
    /// The trace the engine will replay (deadlines already attached).
    pub trace: Arc<WorkloadTrace>,
    /// Content digest of the *stored* trace (pre-deadline-stamping, the
    /// same digest `trace list` prints).
    pub digest: TraceDigest,
    /// The scenario's canonical cache key.
    pub key: String,
}

impl ResolvedScenario {
    /// Runs the scenario. Deterministic: equal `key` ⇒ byte-identical
    /// report. Fork scenarios run their prefix from scratch here; pass a
    /// [`CkptCache`] to [`Self::run_warm`] to memoize the prefix instead.
    pub fn run(&self) -> FacadeRun {
        if self.spec.fork_at.is_some() {
            let report = SimulatorEngine::new(
                self.spec.engine_config(),
                &self.trace,
                self.spec.policy.build(),
            )
            .run_forked(self.spec.fork_spec())
            .expect("fork divergences are validated at resolve time");
            return self.wrap(report, None);
        }
        let report =
            SimulatorEngine::new(self.spec.engine_config(), &self.trace, self.spec.policy.build())
                .run();
        self.wrap(report, None)
    }

    /// Runs the scenario, warm-starting fork scenarios from the memoized
    /// prefix checkpoint in `ckpts` (computing and caching it on a miss).
    /// Byte-identical to [`Self::run`] — the warm path and the
    /// from-scratch path share the engine's fork application verbatim.
    pub fn run_warm(&self, ckpts: &CkptCache) -> FacadeRun {
        let Some(key) = self.ckpt_key() else { return self.run() };
        let (hit, ckpt) = match ckpts.get(&key) {
            Some(bytes) => (
                true,
                EngineCheckpoint::decode(&bytes)
                    .expect("cached checkpoint bytes decode (they were encoded right here)"),
            ),
            None => {
                let at = SimTime::from_millis(self.spec.fork_at.expect("fork key implies fork_at"));
                let ckpt = self.checkpoint(at);
                ckpts.insert(key, ckpt.encode().into());
                (false, ckpt)
            }
        };
        let mut engine = SimulatorEngine::resume_materialized(
            self.spec.engine_config(),
            &ckpt,
            self.spec.policy.build(),
        )
        .expect("checkpoint was captured under this exact prefix spec");
        engine
            .apply_fork(self.spec.fork_spec())
            .expect("fork divergences are validated at resolve time");
        let report = engine.try_run().expect("a resumed engine has no job source to fail");
        self.wrap(report, Some(hit))
    }

    /// Runs the scenario's prefix (fork fields excluded) and captures the
    /// engine checkpoint at the last settled batch boundary ≤ `at`.
    pub fn checkpoint(&self, at: SimTime) -> EngineCheckpoint {
        SimulatorEngine::new(self.spec.engine_config(), &self.trace, self.spec.policy.build())
            .checkpoint_at(at)
            .expect("resolved traces hold only validated job templates")
    }

    /// The memo key of the prefix checkpoint a fork scenario warm-starts
    /// from: the canonical key of the scenario *without* its fork fields,
    /// plus the fork instant. `None` for non-fork scenarios — note that
    /// fork scenarios differing only in divergences share this key, which
    /// is exactly what makes sweep fan-outs run the prefix once.
    pub fn ckpt_key(&self) -> Option<String> {
        let at = self.spec.fork_at?;
        let mut prefix = self.spec.clone();
        prefix.fork_at = None;
        prefix.divergences.clear();
        Some(format!("{}|ckpt@{at}", prefix.canonical_key(self.digest)))
    }

    /// Ensures the prefix checkpoint of a fork scenario is resident in
    /// `ckpts`, returning whether it already was. Non-fork scenarios are
    /// a no-op `true`.
    pub fn ensure_ckpt(&self, ckpts: &CkptCache) -> bool {
        let Some(key) = self.ckpt_key() else { return true };
        if ckpts.get(&key).is_some() {
            return true;
        }
        let at = SimTime::from_millis(self.spec.fork_at.expect("fork key implies fork_at"));
        ckpts.insert(key, self.checkpoint(at).encode().into());
        false
    }

    fn wrap(&self, report: SimulationReport, ckpt: Option<bool>) -> FacadeRun {
        FacadeRun {
            jobs: report.jobs.len(),
            report,
            digest: Some(self.digest),
            key: Some(self.key.clone()),
            streamed: false,
            ckpt,
        }
    }
}

/// The outcome of one facade run.
#[derive(Debug, Clone)]
pub struct FacadeRun {
    /// The engine's report.
    pub report: SimulationReport,
    /// Jobs replayed. For streamed runs this is the source's job count
    /// (the report's `jobs` vector may be empty under `aggregate`).
    pub jobs: usize,
    /// Content digest of the resolved trace; `None` for streamed binary
    /// files (digesting would defeat the O(active jobs) memory bound).
    pub digest: Option<TraceDigest>,
    /// Canonical cache key; `None` exactly when `digest` is.
    pub key: Option<String>,
    /// Whether the trace streamed through the engine unmaterialized.
    pub streamed: bool,
    /// For fork scenarios run via [`ResolvedScenario::run_warm`]:
    /// whether the prefix checkpoint came from the memo (`Some(true)`)
    /// or was computed (`Some(false)`). `None` otherwise.
    pub ckpt: Option<bool>,
}

/// Loads and validates a trace file, sniffing JSON vs SIMMRBIN by magic.
pub fn load_trace_file(path: &str) -> Result<WorkloadTrace, FacadeError> {
    decode_trace_file(path, &read_trace_file(path)?)
}

/// Reads a trace file's bytes.
fn read_trace_file(path: &str) -> Result<Vec<u8>, FacadeError> {
    std::fs::read(path).map_err(|e| FacadeError::Trace(format!("cannot read `{path}`: {e}")))
}

/// Decodes and validates the bytes read from the trace file at `path`.
fn decode_trace_file(path: &str, bytes: &[u8]) -> Result<WorkloadTrace, FacadeError> {
    let err = |msg: String| FacadeError::Trace(msg);
    let trace = TraceFormat::of(bytes)
        .decode(bytes)
        .map_err(|e| err(format!("`{path}` is not a trace: {e}")))?;
    trace.validate().map_err(|e| err(format!("`{path}` contains an invalid job: {e}")))?;
    Ok(trace)
}

/// Attaches §V-B-style deadlines to every job of a trace, drawing from
/// `SeededRng::new(seed)`: [`attach_deadlines_with`] in its seed form.
pub fn attach_deadlines(
    trace: &mut WorkloadTrace,
    factor: f64,
    map_slots: usize,
    reduce_slots: usize,
    seed: u64,
) {
    attach_deadlines_with(trace, factor, map_slots, reduce_slots, &mut SeededRng::new(seed));
}

/// Attaches §V-B-style deadlines to every job of a trace: each job's
/// relative deadline is uniform in `[T_j, max(1, factor) × T_j]`, where
/// `T_j` is its standalone FIFO duration on the given slot pools. Draws
/// one value from `rng` per job, in trace order (none when the band is
/// empty, as at `factor` 1).
pub fn attach_deadlines_with(
    trace: &mut WorkloadTrace,
    factor: f64,
    map_slots: usize,
    reduce_slots: usize,
    rng: &mut SeededRng,
) {
    for job in trace.jobs.iter_mut() {
        let mut single = WorkloadTrace::new("standalone", "cli");
        single.push(JobSpec::new(job.template.clone(), SimTime::ZERO));
        let report = SimulatorEngine::new(
            EngineConfig::new(map_slots, reduce_slots),
            &single,
            PolicySpec::Fifo.build(),
        )
        .run();
        let t_j = report.jobs[0].duration() as f64;
        let rel = rng.uniform(t_j, factor.max(1.0) * t_j);
        job.deadline = Some(job.arrival + rel as u64);
    }
}

/// Most file-backed traces the facade keeps decoded at once.
const MAX_TRACES: usize = 32;

/// Most deadline-stamped trace variants the facade keeps at once.
const MAX_STAMPED: usize = 32;

/// A validated, arrival-sorted trace and its content digest.
type Prepared = (Arc<WorkloadTrace>, TraceDigest);

/// The request-scoped engine facade: resolves [`ScenarioSpec`]s and runs
/// them, one facade for any number of threads.
///
/// Its only mutable state is a trace memo that lives as long as the
/// facade, so a stored trace is read, decoded, sorted and digested once
/// per content rather than once per request, and each set of stamped
/// deadlines is drawn once. Every resolve of a `name` or `path` ref still
/// re-reads the file and reuses the memoized trace only if the bytes are
/// exactly those it was decoded from: a trace replaced through the
/// database, or rewritten in place with content of the same length
/// inside one timestamp tick, is decoded afresh (a `(path, len, mtime,
/// inode)` identity would miss the latter). The check costs one
/// page-cache read and a compare; decoding runs outside any lock.
pub struct SimFacade {
    db: Option<TraceDatabase>,
    /// `name:`/`path:` trace ref → the bytes last read from its file and
    /// the trace they decode to.
    traces: MemoCache<Arc<(Vec<u8>, Prepared)>>,
    /// Trace digest → the stored name a digest ref last resolved to; a
    /// hint, re-checked against the file like any name ref.
    names: MemoCache<Arc<str>>,
    /// `{digest}|{factor bits}|{map slots}|{reduce slots}|{seed}` → the
    /// trace with deadlines stamped. The digest pins the trace's content,
    /// as it does in the report cache's keys.
    stamped: MemoCache<Arc<WorkloadTrace>>,
}

impl SimFacade {
    /// A facade without a trace database: only `path` and `inline` trace
    /// refs resolve.
    pub fn new() -> Self {
        SimFacade::over(None)
    }

    /// A facade over the trace database at `dir` (created if absent).
    pub fn with_db(dir: impl AsRef<std::path::Path>) -> Result<Self, FacadeError> {
        let db = TraceDatabase::open(dir).map_err(|e| FacadeError::Trace(e.to_string()))?;
        Ok(SimFacade::over(Some(db)))
    }

    fn over(db: Option<TraceDatabase>) -> Self {
        SimFacade {
            db,
            traces: MemoCache::new(1, MAX_TRACES),
            names: MemoCache::new(1, MAX_TRACES),
            stamped: MemoCache::new(1, MAX_STAMPED),
        }
    }

    /// The underlying trace database, when configured.
    pub fn db(&self) -> Option<&TraceDatabase> {
        self.db.as_ref()
    }

    /// The trace memo's counters: resident file-backed traces, and file
    /// resolves answered from the memo (hits) or decoded (misses).
    pub fn trace_stats(&self) -> CacheStats {
        self.traces.stats()
    }

    /// Resolves one scenario: [`Self::resolve_many`] of one spec.
    pub fn resolve(&self, spec: &ScenarioSpec) -> Result<ResolvedScenario, FacadeError> {
        self.resolve_many(std::slice::from_ref(spec)).pop().expect("one result per spec")
    }

    /// Resolves a batch: normalizes and validates each spec, materializes
    /// its trace, stamps deadlines, computes digest and key. Each distinct
    /// `name`, `path` or `digest` ref is loaded once per call, so a sweep
    /// over one stored trace reads and checks its file once. The trace and
    /// each stamped variant come from the memo when the stored content has
    /// not changed since they were made. Per-scenario results: one bad
    /// spec does not fail its neighbours.
    pub fn resolve_many(
        &self,
        specs: &[ScenarioSpec],
    ) -> Vec<Result<ResolvedScenario, FacadeError>> {
        let mut loaded = Vec::new();
        specs.iter().map(|spec| self.resolve_in(spec, &mut loaded)).collect()
    }

    /// One scenario of [`Self::resolve_many`]; `loaded` holds the
    /// file-backed refs the call's earlier scenarios loaded. Inline refs
    /// carry their own trace and are not kept.
    fn resolve_in<'a>(
        &self,
        spec: &'a ScenarioSpec,
        loaded: &mut Vec<(&'a TraceRef, Result<Prepared, FacadeError>)>,
    ) -> Result<ResolvedScenario, FacadeError> {
        // validation sees the spec as written: normalizing resets knobs
        // the run ignores, which would hide one set without the knob it
        // needs
        spec.validate()?;
        // normalizing leaves the trace ref as it is
        let r = &spec.trace;
        let mut spec = spec.clone();
        spec.normalize();
        let (base, digest) = if matches!(r, TraceRef::Inline(_)) {
            self.load(r)?
        } else if let Some((_, prepared)) = loaded.iter().find(|(seen, _)| *seen == r) {
            prepared.clone()?
        } else {
            let prepared = self.load(r);
            loaded.push((r, prepared.clone()));
            prepared?
        };
        let trace = match spec.deadline_factor {
            None => base,
            Some(df) => {
                let (m, r, seed) = (spec.cluster.map_slots, spec.cluster.reduce_slots, spec.seed);
                let key = format!("{digest}|{}|{m}|{r}|{seed}", df.to_bits());
                self.stamped.get(&key).unwrap_or_else(|| {
                    let mut stamped = (*base).clone();
                    attach_deadlines(&mut stamped, df, m, r, seed);
                    let stamped = Arc::new(stamped);
                    self.stamped.insert(key, Arc::clone(&stamped));
                    stamped
                })
            }
        };
        let key = spec.canonical_key(digest);
        Ok(ResolvedScenario { spec, trace, digest, key })
    }

    /// Runs one scenario.
    ///
    /// Binary trace files referenced by `path` (without deadline
    /// stamping) keep the CLI's streaming path: the engine pulls jobs
    /// from the file one arrival at a time and the run yields no digest
    /// or cache key.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<FacadeRun, FacadeError> {
        if let TraceRef::Path(path) = &spec.trace {
            // forks need a resolved trace for their checkpoint cache key,
            // deadline stamping rewrites the trace — both opt out of
            // streaming
            if spec.deadline_factor.is_none()
                && spec.fork_at.is_none()
                && spec.divergences.is_empty()
                && TraceFormat::sniff(path).is_ok_and(|f| f == TraceFormat::Bin)
            {
                spec.validate()?;
                let mut spec = spec.clone();
                spec.normalize();
                let source = BinTraceSource::open(path)
                    .map_err(|e| FacadeError::Trace(format!("`{path}`: {e}")))?;
                let jobs = source.job_count();
                let report = SimulatorEngine::from_source(
                    spec.engine_config(),
                    Box::new(source),
                    spec.policy.build(),
                )
                .try_run()
                .map_err(|e| FacadeError::Trace(e.to_string()))?;
                return Ok(FacadeRun {
                    report,
                    jobs,
                    digest: None,
                    key: None,
                    streamed: true,
                    ckpt: None,
                });
            }
        }
        Ok(self.resolve(spec)?.run())
    }

    /// Runs a batch of scenarios across all cores with one
    /// [`parallel_sweep`] after batched resolution. Results stay in
    /// request order; each scenario fails independently.
    pub fn run_batch(&self, specs: &[ScenarioSpec]) -> Vec<Result<FacadeRun, FacadeError>> {
        let resolved = self.resolve_many(specs);
        let runnable: Vec<&ResolvedScenario> =
            resolved.iter().filter_map(|r| r.as_ref().ok()).collect();
        let mut runs = parallel_sweep(runnable.len(), |i| runnable[i].run()).into_iter();
        resolved
            .iter()
            .map(|r| match r {
                Ok(_) => Ok(runs.next().expect("one run per resolved scenario")),
                Err(e) => Err(e.clone()),
            })
            .collect()
    }

    /// Resolves a trace reference to its trace and digest, through the
    /// memo for file-backed refs.
    fn load(&self, r: &TraceRef) -> Result<Prepared, FacadeError> {
        match r {
            TraceRef::Name(name) => self.load_stored(name, |_| true),
            TraceRef::Path(path) => {
                let decode = |bytes: &[u8]| decode_trace_file(path, bytes);
                self.load_file(format!("path:{path}"), read_trace_file(path)?, decode, |_| true)
            }
            TraceRef::Inline(trace) => {
                trace.validate().map_err(|e| {
                    FacadeError::Trace(format!("inline trace has an invalid job: {e}"))
                })?;
                prepare(trace.clone())
            }
            TraceRef::Digest(digest) => {
                let db = self.require_db()?;
                let is_match = |d: TraceDigest| d == *digest;
                let hinted = self.names.get(&digest.to_string()).and_then(|name| {
                    self.load_stored(&name, is_match).ok().filter(|(_, d)| is_match(*d))
                });
                if let Some(found) = hinted {
                    return Ok(found);
                }
                // scan the store, memoizing only the trace that matches so
                // a miss cannot push hot entries out
                for name in db.names().map_err(db_err)?.into_keys() {
                    let found = self.load_stored(&name, is_match);
                    if let Some(found) = found.ok().filter(|(_, d)| is_match(*d)) {
                        self.names.insert(digest.to_string(), Arc::from(name));
                        return Ok(found);
                    }
                }
                Err(FacadeError::Trace(format!("no stored trace has digest {digest}")))
            }
        }
    }

    /// The trace stored under `name` (see [`Self::load_file`]).
    fn load_stored(
        &self,
        name: &str,
        keep: impl FnOnce(TraceDigest) -> bool,
    ) -> Result<Prepared, FacadeError> {
        let (format, bytes) = self.require_db()?.read(name).map_err(db_err)?;
        let decode = |bytes: &[u8]| format.decode(bytes).map_err(db_err);
        self.load_file(format!("name:{name}"), bytes, decode, keep)
    }

    /// The trace a file's `bytes` decode to: the memoized one when the
    /// entry under `key` was decoded from exactly these bytes, else
    /// `decode(bytes)` prepared, and memoized under `key` if `keep`
    /// accepts its digest.
    fn load_file(
        &self,
        key: String,
        bytes: Vec<u8>,
        decode: impl FnOnce(&[u8]) -> Result<WorkloadTrace, FacadeError>,
        keep: impl FnOnce(TraceDigest) -> bool,
    ) -> Result<Prepared, FacadeError> {
        if let Some(entry) = self.traces.get_if(&key, |entry| entry.0 == bytes) {
            return Ok(entry.1.clone());
        }
        let prepared = prepare(decode(&bytes)?)?;
        if keep(prepared.1) {
            self.traces.insert(key, Arc::new((bytes, prepared.clone())));
        }
        Ok(prepared)
    }

    fn require_db(&self) -> Result<&TraceDatabase, FacadeError> {
        self.db.as_ref().ok_or_else(|| {
            FacadeError::Trace("named trace refs need a trace database (serve --db DIR)".into())
        })
    }
}

fn db_err(e: simmr_trace::DbError) -> FacadeError {
    FacadeError::Trace(e.to_string())
}

/// A decoded trace, ready to memoize: in arrival order, with its digest.
///
/// The digest encodes jobs in stable arrival order, the order the engine
/// numbers them in, but attach_deadlines draws deadlines in trace order:
/// replay the digest's order, so equal digests mean equal runs and the
/// cache key stays sound.
fn prepare(mut trace: WorkloadTrace) -> Result<Prepared, FacadeError> {
    if !trace.jobs.is_sorted_by_key(|j| j.arrival) {
        trace.jobs.sort_by_key(|j| j.arrival);
    }
    let digest = digest_trace(&trace).map_err(|e| FacadeError::Trace(e.to_string()))?;
    Ok((Arc::new(trace), digest))
}

impl Default for SimFacade {
    fn default() -> Self {
        SimFacade::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_types::JobTemplate;

    fn tiny_trace() -> WorkloadTrace {
        let mut t = WorkloadTrace::new("facade test", "unit");
        for (name, arrival) in [("prod-a", 0u64), ("adhoc-b", 1_000)] {
            t.push(JobSpec::new(
                JobTemplate::new(name, vec![500, 700], vec![300], vec![250], vec![200]).unwrap(),
                SimTime::from_millis(arrival),
            ));
        }
        t
    }

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(TraceRef::Inline(tiny_trace()), PolicySpec::Fifo)
    }

    #[test]
    fn spec_serde_round_trip_with_defaults() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // minimal request: only trace and policy
        let minimal: ScenarioSpec =
            serde_json::from_str(r#"{"trace": "nightly", "policy": "maxedf"}"#).unwrap();
        assert_eq!(minimal.trace, TraceRef::Name("nightly".into()));
        assert_eq!(minimal.policy.to_string(), "maxedf");
        assert_eq!(minimal.cluster, ClusterSpec::new(64, 64));
        assert_eq!(minimal.seed, 1);
        assert!(!minimal.aggregate);
    }

    #[test]
    fn canonical_key_unifies_equivalent_specs() {
        let digest = digest_trace(&tiny_trace()).unwrap();
        let mut a = spec();
        a.policy = "capacity:prod=3,adhoc=1".parse().unwrap();
        let mut b = spec();
        b.policy = "capacity:adhoc=1,prod=3".parse().unwrap();
        // knob clamping also normalizes into the key
        a.speculation = Some(0.5);
        b.speculation = Some(1.0);
        assert_eq!(a.canonical_key(digest), b.canonical_key(digest));
        // ...but a real difference separates keys
        b.seed = 2;
        assert_ne!(a.canonical_key(digest), b.canonical_key(digest));
    }

    /// An inline spec's key names the trace by digest only, byte for
    /// byte as it did when the key was built by serializing the whole
    /// spec, inline trace included, and overwriting the reference.
    #[test]
    fn inline_spec_key_is_pinned() {
        let digest = digest_trace(&tiny_trace()).unwrap();
        let mut s = spec();
        s.policy = "capacity:prod=3,adhoc=1".parse().unwrap();
        s.speculation = Some(0.5);
        s.failure_mtbf_s = 10.0;
        s.fork_at = Some(700);
        s.divergences = vec![
            DivergenceSpec::Policy("fair".parse().unwrap()),
            DivergenceSpec::AddSlots { map_slots: 2, reduce_slots: 1 },
        ];
        assert_eq!(
            s.canonical_key(digest),
            concat!(
                r#"{"trace":{"digest":"ddc138e06254423a"},"policy":"capacity:adhoc=1,prod=3","#,
                r#""cluster":{"map_slots":64,"reduce_slots":64,"hosts":1},"seed":1,"#,
                r#""deadline_factor":null,"failures":null,"failure_mtbf_s":3600,"#,
                r#""failure_recovery_s":null,"speculation":1,"slowdown_sigma":null,"#,
                r#""slowstart":null,"aggregate":false,"timeline":false,"check_invariants":false,"#,
                r#""fork_at":700,"divergences":[{"policy":"fair"},"#,
                r#"{"add_slots":{"maps":2,"reduces":1}}]}"#
            )
        );
    }

    #[test]
    fn key_is_trace_ref_spelling_independent() {
        let digest = digest_trace(&tiny_trace()).unwrap();
        let inline = spec();
        let named = ScenarioSpec::new(TraceRef::Name("whatever".into()), PolicySpec::Fifo);
        assert_eq!(inline.canonical_key(digest), named.canonical_key(digest));
    }

    #[test]
    fn validation_mirrors_the_cli() {
        let mut s = spec();
        s.failures = Some(1);
        assert!(matches!(s.validate(), Err(FacadeError::BadSpec(_))));
        s.cluster = s.cluster.with_hosts(4);
        assert!(s.validate().is_ok());
        s.failure_recovery_s = Some(-1.0);
        assert!(s.validate().is_err());
        let mut s = spec();
        s.failure_recovery_s = Some(30.0);
        assert!(s.validate().is_err(), "recovery without failures");
    }

    /// Resolving and running validate the spec as written: normalizing
    /// first reset `failure_recovery_s` when `failures` is unset, so a
    /// spec with a negative recovery time and no failures ran.
    #[test]
    fn resolve_and_run_validate_before_normalizing() {
        let path = std::env::temp_dir()
            .join(format!("simmr-facade-validate-{}.trace.bin", std::process::id()));
        std::fs::write(&path, simmr_trace::encode_trace(&tiny_trace()).unwrap()).unwrap();
        let streamed = TraceRef::Path(path.to_string_lossy().into_owned());
        let facade = SimFacade::new();
        for trace in [TraceRef::Inline(tiny_trace()), streamed] {
            let mut s = ScenarioSpec::new(trace, PolicySpec::Fifo);
            assert!(facade.run(&s).is_ok());
            s.failure_recovery_s = Some(-5.0);
            let bad_spec = |r: Result<(), FacadeError>| match r {
                Err(FacadeError::BadSpec(m)) => m.contains("failure_recovery_s needs failures"),
                _ => false,
            };
            assert!(bad_spec(facade.resolve(&s).map(|_| ())), "resolve");
            assert!(bad_spec(facade.run(&s).map(|_| ())), "run");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cluster_shape_is_validated() {
        let with_cluster = |map_slots, reduce_slots, hosts| {
            let mut s = spec();
            s.cluster = ClusterSpec::new(map_slots, reduce_slots).with_hosts(hosts);
            s
        };
        let rejected = |s: &ScenarioSpec| matches!(s.validate(), Err(FacadeError::BadSpec(_)));
        assert!(rejected(&with_cluster(0, 4, 1)), "no map slots");
        assert!(rejected(&with_cluster(4, 0, 1)), "no reduce slots");
        assert!(rejected(&with_cluster(MAX_CLUSTER_SIZE + 1, 4, 1)));
        assert!(rejected(&with_cluster(4, MAX_CLUSTER_SIZE + 1, 1)));
        assert!(rejected(&with_cluster(4, 4, 1 << 40)), "hosts past the bound");
        assert!(with_cluster(MAX_CLUSTER_SIZE, MAX_CLUSTER_SIZE, MAX_CLUSTER_SIZE)
            .validate()
            .is_ok());
        // add_slots divergences count toward the bound
        let grow = |map_slots| DivergenceSpec::AddSlots { map_slots, reduce_slots: 0 };
        let mut s = forked_spec(700, vec![grow(MAX_CLUSTER_SIZE - 4), grow(1)]);
        assert!(rejected(&s), "two divergences sum past the bound");
        s.divergences.pop();
        assert!(s.validate().is_ok());
        let s = forked_spec(700, vec![grow(usize::MAX)]);
        assert!(rejected(&s), "the sum saturates instead of wrapping");
        // and a rejected spec never reaches the engine
        let err = SimFacade::new().run(&with_cluster(0, 4, 1)).expect_err("rejected");
        assert!(err.message().contains("at least one map slot"), "{err}");
    }

    /// The cache key digests the trace in stable arrival order, so a
    /// trace listed out of order must replay in that order too: the
    /// same jobs listed backwards share the key and must produce the
    /// same report bytes, deadlines included.
    #[test]
    fn trace_order_does_not_change_the_run() {
        let mut trace = WorkloadTrace::new("order", "unit");
        for i in 0..40u64 {
            let maps = vec![300 + 97 * (i % 7); 1 + (i % 5) as usize];
            let reduces = vec![150 + 31 * (i % 3); (i % 3) as usize];
            let template =
                JobTemplate::new(format!("j{i}"), maps, vec![40], reduces.clone(), reduces)
                    .unwrap();
            trace.push(JobSpec::new(template, SimTime::from_millis(i * 700)));
        }
        let mut reversed = trace.clone();
        reversed.jobs.reverse();
        for policy in ["fifo", "maxedf"] {
            let run = |t: &WorkloadTrace| {
                let mut s = ScenarioSpec::new(TraceRef::Inline(t.clone()), policy.parse().unwrap());
                s.cluster = ClusterSpec::new(4, 2);
                s.deadline_factor = Some(2.0);
                let run = SimFacade::new().run(&s).unwrap();
                (run.key, serde_json::to_string(&run.report).unwrap())
            };
            let (forward, backward) = (run(&trace), run(&reversed));
            assert_eq!(forward.0, backward.0, "{policy}: one trace, one key");
            assert!(forward.1 == backward.1, "{policy}: one key, different reports");
        }
    }

    /// Deadline stamping rewrites the trace, so the facade materializes a
    /// SIMMRBIN path instead of streaming it: the run must match the same
    /// trace given inline.
    #[test]
    fn binary_path_with_deadline_factor_matches_inline() {
        let path = std::env::temp_dir()
            .join(format!("simmr-facade-deadlines-{}.trace.bin", std::process::id()));
        std::fs::write(&path, simmr_trace::encode_trace(&tiny_trace()).unwrap()).unwrap();
        let run = |trace| {
            let mut s = ScenarioSpec::new(trace, "maxedf".parse().unwrap());
            s.deadline_factor = Some(2.0);
            s.seed = 7;
            SimFacade::new().run(&s)
        };
        let from_file = run(TraceRef::Path(path.to_string_lossy().into_owned()));
        let _ = std::fs::remove_file(&path);
        let (from_file, inline) =
            (from_file.unwrap(), run(TraceRef::Inline(tiny_trace())).unwrap());
        assert!(!from_file.streamed);
        assert!(from_file.report.jobs.iter().all(|j| j.deadline.is_some()));
        assert_eq!(from_file.key, inline.key);
        assert_eq!(
            serde_json::to_string(&from_file.report).unwrap(),
            serde_json::to_string(&inline.report).unwrap()
        );
    }

    #[test]
    fn run_and_batch_agree() {
        let facade = SimFacade::new();
        let one = facade.run(&spec()).unwrap();
        assert!(!one.streamed);
        assert_eq!(one.report.jobs.len(), 2);
        let batch = facade.run_batch(&[spec(), spec()]);
        let reports: Vec<_> = batch.into_iter().map(|r| r.unwrap().report).collect();
        assert_eq!(reports[0], one.report);
        assert_eq!(reports[1], one.report);
    }

    #[test]
    fn batch_failures_are_per_scenario() {
        let facade = SimFacade::new();
        let bad = ScenarioSpec::new(TraceRef::Name("nope".into()), PolicySpec::Fifo);
        let out = facade.run_batch(&[spec(), bad]);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(FacadeError::Trace(_))));
    }

    #[test]
    fn deadline_stamping_matches_manual_attachment() {
        let mut manual = tiny_trace();
        attach_deadlines(&mut manual, 2.0, 64, 64, 7);
        let mut s = spec();
        s.deadline_factor = Some(2.0);
        s.seed = 7;
        let resolved = SimFacade::new().resolve(&s).unwrap();
        assert_eq!(resolved.trace.jobs[0].deadline, manual.jobs[0].deadline);
        assert_eq!(resolved.trace.jobs[1].deadline, manual.jobs[1].deadline);
        // the digest is of the stored trace, not the stamped one
        assert_eq!(resolved.digest, digest_trace(&tiny_trace()).unwrap());
    }

    /// The standalone FIFO runtime `T_j` of one job on `m`×`r` slots,
    /// computed apart from the stamping.
    fn standalone_ms(template: &JobTemplate, m: usize, r: usize) -> u64 {
        let mut single = WorkloadTrace::new("standalone", "unit");
        single.push(JobSpec::new(template.clone(), SimTime::ZERO));
        let report =
            SimulatorEngine::new(EngineConfig::new(m, r), &single, PolicySpec::Fifo.build()).run();
        report.jobs[0].duration()
    }

    /// `maps` map tasks of `map_ms` each, plus two reduces.
    fn wave_template(maps: usize, map_ms: u64) -> JobTemplate {
        JobTemplate::new("t", vec![map_ms; maps], vec![10], vec![20; 2], vec![30; 2]).unwrap()
    }

    #[test]
    fn deadlines_in_band() {
        let mut trace = WorkloadTrace::new("t", "unit");
        for i in 0..20 {
            trace.push(JobSpec::new(wave_template(4, 500), SimTime::from_secs(i)));
        }
        attach_deadlines_with(&mut trace, 3.0, 4, 4, &mut SeededRng::new(1));
        for job in &trace.jobs {
            let t_j = standalone_ms(&job.template, 4, 4);
            let rel = job.deadline.unwrap().since(job.arrival);
            assert!(rel >= t_j, "deadline below standalone runtime");
            assert!(rel <= 3 * t_j + 1, "deadline above df*T_J");
        }
    }

    /// More distinct trace files and stamped variants than the memo's
    /// caps: the memo stays within both, and every resolve still returns
    /// the deadlines a fresh stamping gives, evicted or not.
    #[test]
    fn trace_memo_stays_within_its_caps() {
        let dir = std::env::temp_dir().join(format!("simmr-facade-caps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let shifted = |i: u64| {
            let mut t = tiny_trace();
            t.jobs[1].arrival = SimTime::from_millis(1_000 + i);
            t
        };
        let files: Vec<String> = (0..MAX_TRACES as u64 + 5)
            .map(|i| {
                let path = dir.join(format!("t{i}.json"));
                std::fs::write(&path, serde_json::to_string(&shifted(i)).unwrap()).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect();
        let facade = SimFacade::new();
        for round in 0..2 {
            for (i, path) in files.iter().enumerate() {
                for seed in 0..2 {
                    let mut s = ScenarioSpec::new(TraceRef::Path(path.clone()), PolicySpec::Fifo);
                    s.deadline_factor = Some(1.5);
                    s.seed = seed;
                    let resolved = facade.resolve(&s).unwrap();
                    let mut fresh = shifted(i as u64);
                    attach_deadlines(&mut fresh, 1.5, 64, 64, seed);
                    assert_eq!(*resolved.trace, fresh, "round {round}, trace {i}, seed {seed}");
                    assert!(facade.traces.len() <= MAX_TRACES);
                    assert!(facade.stamped.len() <= MAX_STAMPED);
                }
            }
        }
        let stats = facade.trace_stats();
        assert_eq!(stats.hits + stats.misses, 2 * 2 * files.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A digest ref and a name ref to one stored trace resolve to the
    /// same memo entry, in either order; a digest that matches no stored
    /// trace fails without evicting anything.
    #[test]
    fn digest_and_name_refs_share_one_memo_entry() {
        let dir = std::env::temp_dir().join(format!("simmr-facade-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = TraceDatabase::open(&dir).unwrap();
        let mut other = tiny_trace();
        other.jobs.pop();
        // sorts before `workload`, so a digest scan decodes it first
        db.store("a-other", &other).unwrap();
        db.store("workload", &tiny_trace()).unwrap();
        let by_name = ScenarioSpec::new(TraceRef::Name("workload".into()), PolicySpec::Fifo);
        let digest = digest_trace(&tiny_trace()).unwrap();
        let by_digest = ScenarioSpec::new(TraceRef::Digest(digest), PolicySpec::Fifo);
        let stats = |f: &SimFacade| {
            let s = f.trace_stats();
            (s.entries, s.hits, s.misses)
        };

        // name first: the digest scan decodes `a-other` without keeping
        // it and finds `workload` in the memo; later digest refs go
        // straight to it
        let facade = SimFacade::with_db(&dir).unwrap();
        let named = facade.resolve(&by_name).unwrap();
        assert_eq!(stats(&facade), (1, 0, 1));
        let digested = facade.resolve(&by_digest).unwrap();
        assert_eq!(stats(&facade), (1, 1, 2), "the digest ref reuses the name's entry");
        assert!(Arc::ptr_eq(&named.trace, &digested.trace));
        assert_eq!(named.key, digested.key);
        facade.resolve(&by_digest).unwrap();
        assert_eq!(stats(&facade), (1, 2, 2));

        // digest first: only the matching trace is memoized, and the
        // name ref then hits it
        let facade = SimFacade::with_db(&dir).unwrap();
        let digested = facade.resolve(&by_digest).unwrap();
        assert_eq!(stats(&facade), (1, 0, 2));
        let named = facade.resolve(&by_name).unwrap();
        assert_eq!(stats(&facade), (1, 1, 2));
        assert!(Arc::ptr_eq(&named.trace, &digested.trace));
        facade.resolve(&by_digest).unwrap();
        assert_eq!(stats(&facade), (1, 2, 2));

        // an unknown digest fails, and the hot entry stays resident
        let unknown =
            ScenarioSpec::new(TraceRef::Digest(TraceDigest(0xdead_beef)), PolicySpec::Fifo);
        let err = facade.resolve(&unknown).expect_err("no such trace");
        assert!(matches!(&err, FacadeError::Trace(m) if m.contains("no stored trace")), "{err}");
        assert_eq!(stats(&facade), (1, 3, 3));
        assert!(Arc::ptr_eq(&facade.resolve(&by_name).unwrap().trace, &named.trace));
        assert_eq!(stats(&facade), (1, 4, 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A batch over one stored trace reads and checks its file once per
    /// call, whatever the batch size; the next call reads it again.
    #[test]
    fn a_batch_loads_each_stored_trace_once() {
        let dir = std::env::temp_dir().join(format!("simmr-facade-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TraceDatabase::open(&dir).unwrap().store("workload", &tiny_trace()).unwrap();
        let facade = SimFacade::with_db(&dir).unwrap();
        let batch: Vec<ScenarioSpec> = ["fifo", "fair", "maxedf", "minedf"]
            .into_iter()
            .map(|p| {
                let mut s =
                    ScenarioSpec::new(TraceRef::Name("workload".into()), p.parse().unwrap());
                s.deadline_factor = Some(1.5);
                s
            })
            .collect();
        let lookups = |f: &SimFacade| {
            let s = f.trace_stats();
            s.hits + s.misses
        };
        for round in 1..=2 {
            let resolved = facade.resolve_many(&batch);
            assert_eq!(lookups(&facade), round, "one trace lookup per call");
            let first = resolved[0].as_ref().unwrap();
            for r in &resolved {
                assert!(Arc::ptr_eq(&r.as_ref().unwrap().trace, &first.trace));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn forked_spec(at: u64, divergences: Vec<DivergenceSpec>) -> ScenarioSpec {
        let mut s = spec();
        s.cluster = ClusterSpec::new(4, 4).with_hosts(4);
        s.fork_at = Some(at);
        s.divergences = divergences;
        s
    }

    #[test]
    fn fork_fields_serde_round_trip_and_minimal_json() {
        let s = forked_spec(
            700,
            vec![
                DivergenceSpec::Policy("fair".parse().unwrap()),
                DivergenceSpec::AddSlots { map_slots: 2, reduce_slots: 0 },
                DivergenceSpec::Fault { host: 2, at_ms: 900 },
                DivergenceSpec::Surge(tiny_trace().jobs),
            ],
        );
        let json = serde_json::to_string(&s).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // minimal spellings: absent sub-fields default to 0
        let minimal: ScenarioSpec = serde_json::from_str(
            r#"{"trace": "t", "policy": "fifo", "fork_at": 700, "divergences":
                [{"add_slots": {"maps": 3}}, {"fault": {"host": 1}}, {"policy": "maxedf"}]}"#,
        )
        .unwrap();
        assert_eq!(minimal.fork_at, Some(700));
        assert_eq!(
            minimal.divergences,
            vec![
                DivergenceSpec::AddSlots { map_slots: 3, reduce_slots: 0 },
                DivergenceSpec::Fault { host: 1, at_ms: 0 },
                DivergenceSpec::Policy("maxedf".parse().unwrap()),
            ]
        );
        // malformed divergences are rejected, not ignored
        for bad in [
            r#"{"trace": "t", "policy": "fifo", "divergences": [{"warp": 9}]}"#,
            r#"{"trace": "t", "policy": "fifo", "divergences": [{"policy": "fifo", "fault": {"host": 1}}]}"#,
        ] {
            assert!(serde_json::from_str::<ScenarioSpec>(bad).is_err());
        }
    }

    #[test]
    fn fork_validation_rejections() {
        let mut s = spec();
        s.divergences.push(DivergenceSpec::Policy(PolicySpec::Fifo));
        assert!(matches!(s.validate(), Err(FacadeError::BadSpec(_))), "divergences need fork_at");
        for host in [0u32, 9] {
            let s = forked_spec(700, vec![DivergenceSpec::Fault { host, at_ms: 0 }]);
            assert!(s.validate().is_err(), "host {host} is not a failable host of 4");
        }
        let mut s = forked_spec(700, vec![DivergenceSpec::Fault { host: 2, at_ms: 0 }]);
        assert!(s.validate().is_ok());
        s.cluster = ClusterSpec::new(4, 4);
        assert!(s.validate().is_err(), "a single-host cluster has no failable host");
        let s = forked_spec(700, vec![DivergenceSpec::Surge(Vec::new())]);
        assert!(s.validate().is_err(), "an empty surge is a spec mistake");
    }

    #[test]
    fn normalize_drops_fork_without_divergences() {
        let mut s = spec();
        s.fork_at = Some(500);
        s.normalize();
        assert_eq!(s.fork_at, None, "a fork with no divergences is the base scenario");
        // ...so it shares the base scenario's cache identity
        let digest = digest_trace(&tiny_trace()).unwrap();
        let mut forked = spec();
        forked.fork_at = Some(500);
        assert_eq!(forked.canonical_key(digest), spec().canonical_key(digest));
    }

    #[test]
    fn warm_fork_matches_cold_and_shares_checkpoints() {
        let facade = SimFacade::new();
        let ckpts = CkptCache::new(4, 64);
        let a = forked_spec(700, vec![DivergenceSpec::Policy("fair".parse().unwrap())]);
        let b = forked_spec(700, vec![DivergenceSpec::AddSlots { map_slots: 2, reduce_slots: 2 }]);
        let ra = facade.resolve(&a).unwrap();
        let rb = facade.resolve(&b).unwrap();
        assert_eq!(ra.ckpt_key(), rb.ckpt_key(), "divergences don't change the prefix identity");
        assert!(ra.ckpt_key().is_some());
        let cold = ra.run();
        assert_eq!(cold.ckpt, None);
        let warm = ra.run_warm(&ckpts);
        assert_eq!(warm.ckpt, Some(false), "first warm run computes the checkpoint");
        assert_eq!(warm.report, cold.report, "warm-start is byte-identical to the cold fork");
        let sibling = rb.run_warm(&ckpts);
        assert_eq!(sibling.ckpt, Some(true), "sibling scenario reuses the cached prefix");
        assert_eq!(sibling.report, rb.run().report);
        assert_eq!(ckpts.len(), 1, "one shared prefix checkpoint");
    }
}
