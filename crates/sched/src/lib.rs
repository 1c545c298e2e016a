//! # simmr-sched
//!
//! Pluggable scheduling policies for the SimMR engine (§III-C and §V of the
//! paper):
//!
//! * [`FifoPolicy`] — Hadoop's default FIFO: earliest-arrived job first;
//!   [`FifoPolicy::fair`] is its fair-share variant, an HFS-flavoured
//!   extension: the job with the fewest running tasks goes first;
//! * [`EdfPolicy`] — Earliest-Deadline-First ordering, in two allocation
//!   rules: `maxedf` ([`EdfPolicy::maxedf`]) grabs every free slot,
//!   FIFO-style; `minedf` ([`EdfPolicy::minedf`]) allocates *minimally*:
//!   on arrival, the ARIA bounds model computes the smallest `(S_M, S_R)`
//!   that meets the job's deadline, and the policy never runs more tasks
//!   than that, leaving spare slots to later arrivals;
//! * [`HierPolicy`] — hierarchical pool *trees* (Hadoop Fair/Capacity
//!   style, the paper's refs. 2–3): nested pools with weights, min/max
//!   shares per slot kind and min-share preemption timeouts, declared via
//!   [`pool::PoolSpec`]. The `capacity` spec family (weighted queues with
//!   FIFO inside each queue, routed by longest name prefix) builds a
//!   one-level tree ([`HierPolicy::capacity`]).
//!
//! All policies implement [`simmr_core::SchedulerPolicy`] and are
//! deterministic: ties break on `(arrival, job id)`.
//!
//! Every policy picks from exact ordered views (`view.rs`):
//! `BTreeSet`s holding exactly the jobs that qualify for a decision,
//! under the policy's key, maintained from the engine's queue-mutation
//! hooks in O(log n) per mutation. FIFO and fair keep one view per slot
//! kind, EDF three deadline views, and the hierarchical policy (and with
//! it `capacity`) three views per leaf pool next to its incremental
//! share aggregates. No decision scans the queue, and each policy has
//! one mode: under the invariant checker, EDF and hier re-derive every
//! pick and preemption victim from a queue scan after each settled
//! batch and panic if the views gave a different answer.
//!
//! ## Policy specs
//!
//! CLIs and experiment harnesses name policies with a **spec string**,
//! parsed by [`PolicySpec`] (or the [`parse_policy`] shortcut):
//!
//! ```text
//! fifo | maxedf | minedf | maxedf-p | minedf-p | fair
//! capacity                       # two_tier() default queues
//! capacity:prod=3,adhoc=1        # weighted queues (normalized to name order)
//! hier                           # two_tier() as a one-level tree
//! hier:prod[w=3,min=4,timeout=30]{etl,serving},adhoc[w=1]
//! ```
//!
//! Specs round-trip **canonically**: parsing normalizes parameter
//! ordering (`capacity:adhoc=1,prod=3` ≡ `capacity:prod=3,adhoc=1` —
//! queues are sorted by name; routing is longest-prefix, so the listed
//! order carries no semantics), and [`PolicySpec`] implements
//! [`Display`](fmt::Display) emitting the canonical string, so
//! `spec.to_string().parse()` is the identity. `hier` pool order *is*
//! routing order (first matching leaf wins) and is preserved verbatim.
//! The canonical string is also the serde representation
//! ([`serde::Serialize`]/[`serde::Deserialize`] as a JSON string), which
//! makes policy specs stable cache-key components that can travel in
//! JSON requests.
//!
//! The `hier` grammar (weights, per-kind min/max shares, preemption
//! timeouts in seconds, nested `{}` children) is documented in
//! [`pool`]; larger trees can be loaded from JSON with
//! [`pool::pools_from_json`] (the CLI's `--pools FILE`).
//!
//! Parsing returns a [`PolicyParseError`] that names the valid policies.
//! (The old `Option`-returning `policy_by_name` shim, deprecated since
//! the spec grammar landed, is gone — call [`parse_policy`] instead.)

pub mod edf;
pub mod fifo;
pub mod hier;
pub mod pool;
mod view;
mod window;

pub use edf::EdfPolicy;
pub use fifo::FifoPolicy;
pub use hier::HierPolicy;
pub use pool::{parse_pool_spec, pools_from_json, render_pool_specs, PoolSpec};

use simmr_core::SchedulerPolicy;
use std::fmt;
use std::str::FromStr;

/// The valid policy names, in the order error messages list them.
pub const POLICY_NAMES: &[&str] =
    &["fifo", "maxedf", "minedf", "maxedf-p", "minedf-p", "fair", "capacity", "hier"];

/// A parsed policy spec: which built-in policy to run, with parameters.
///
/// Parse one with [`str::parse`] / [`FromStr`] and instantiate it with
/// [`PolicySpec::build`]; [`parse_policy`] does both in one call. The
/// grammar is `name` or `name:params`, where only `capacity` currently
/// takes params (an ordered `queue=weight` list).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// Hadoop's default FIFO.
    Fifo,
    /// EDF with greedy allocation; `preemptive` arms map-slot preemption.
    MaxEdf {
        /// Kill latest-deadline maps for a more urgent waiting job.
        preemptive: bool,
    },
    /// EDF with ARIA minimal allocation; `preemptive` as above.
    MinEdf {
        /// Kill latest-deadline maps for a more urgent waiting job.
        preemptive: bool,
    },
    /// Fair share: smallest running share first.
    Fair,
    /// Weighted capacity queues, FIFO inside each queue, in listed order,
    /// run as a one-level [`HierPolicy::capacity`] tree. Empty means the
    /// [`HierPolicy::two_tier`] queues.
    Capacity {
        /// Ordered `(queue name, weight)` pairs.
        queues: Vec<(String, f64)>,
    },
    /// Hierarchical pool tree with min/max shares and min-share
    /// preemption. Empty means [`HierPolicy::two_tier`].
    Hier {
        /// Top-level pools, in routing order.
        pools: Vec<PoolSpec>,
    },
}

/// Why a policy spec string failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyParseError {
    /// The name before the optional `:` is not a known policy.
    UnknownPolicy {
        /// The offending name, as given.
        given: String,
    },
    /// The part after `:` is invalid for the named policy.
    InvalidParams {
        /// The policy the params were for.
        policy: &'static str,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyParseError::UnknownPolicy { given } => {
                write!(
                    f,
                    "unknown policy {given:?}; valid policies: {}; the parameterized families \
                     also take specs, e.g. \"capacity:prod=3,adhoc=1\" or \
                     \"hier:prod[w=3,min=4,timeout=30]{{etl,serving}},adhoc\"",
                    POLICY_NAMES.join(", ")
                )
            }
            PolicyParseError::InvalidParams { policy, reason } => {
                write!(f, "invalid parameters for policy {policy:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for PolicyParseError {}

impl FromStr for PolicySpec {
    type Err = PolicyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, params) = match s.split_once(':') {
            Some((name, params)) => (name, Some(params)),
            None => (s, None),
        };
        let spec = match name {
            "fifo" => PolicySpec::Fifo,
            "maxedf" => PolicySpec::MaxEdf { preemptive: false },
            "minedf" => PolicySpec::MinEdf { preemptive: false },
            "maxedf-p" => PolicySpec::MaxEdf { preemptive: true },
            "minedf-p" => PolicySpec::MinEdf { preemptive: true },
            "fair" => PolicySpec::Fair,
            "capacity" => {
                let queues = match params {
                    None => Vec::new(),
                    Some(p) => {
                        let mut queues = parse_capacity_queues(p)?;
                        // canonical ordering: queue order carries no
                        // semantics (routing is longest-prefix), so two
                        // spellings of the same queue set parse equal
                        queues.sort_by(|a, b| a.0.cmp(&b.0));
                        queues
                    }
                };
                return Ok(PolicySpec::Capacity { queues });
            }
            "hier" => {
                let pools = match params {
                    None => Vec::new(),
                    Some(p) => parse_pool_spec(p).map_err(|reason| {
                        PolicyParseError::InvalidParams { policy: "hier", reason }
                    })?,
                };
                return Ok(PolicySpec::Hier { pools });
            }
            _ => return Err(PolicyParseError::UnknownPolicy { given: name.to_string() }),
        };
        if let Some(p) = params {
            return Err(PolicyParseError::InvalidParams {
                policy: match spec {
                    PolicySpec::Fifo => "fifo",
                    PolicySpec::MaxEdf { preemptive: false } => "maxedf",
                    PolicySpec::MaxEdf { preemptive: true } => "maxedf-p",
                    PolicySpec::MinEdf { preemptive: false } => "minedf",
                    PolicySpec::MinEdf { preemptive: true } => "minedf-p",
                    _ => unreachable!(),
                },
                reason: format!("takes no parameters, got {p:?}"),
            });
        }
        Ok(spec)
    }
}

impl fmt::Display for PolicySpec {
    /// Renders the canonical spec string: `spec.to_string().parse()` is
    /// the identity, and any two specs that parse equal render equal.
    /// Capacity queues appear in name order (the parse-time
    /// normalization); hier pools in routing order via
    /// [`pool::render_pool_specs`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::Fifo => f.write_str("fifo"),
            PolicySpec::MaxEdf { preemptive: false } => f.write_str("maxedf"),
            PolicySpec::MaxEdf { preemptive: true } => f.write_str("maxedf-p"),
            PolicySpec::MinEdf { preemptive: false } => f.write_str("minedf"),
            PolicySpec::MinEdf { preemptive: true } => f.write_str("minedf-p"),
            PolicySpec::Fair => f.write_str("fair"),
            PolicySpec::Capacity { queues } if queues.is_empty() => f.write_str("capacity"),
            PolicySpec::Capacity { queues } => {
                f.write_str("capacity:")?;
                for (i, (name, weight)) in queues.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{name}={weight}")?;
                }
                Ok(())
            }
            PolicySpec::Hier { pools } if pools.is_empty() => f.write_str("hier"),
            PolicySpec::Hier { pools } => {
                write!(f, "hier:{}", pool::render_pool_specs(pools))
            }
        }
    }
}

impl serde::Serialize for PolicySpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl serde::Deserialize for PolicySpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => {
                s.parse().map_err(|e: PolicyParseError| serde::DeError::new(e.to_string()))
            }
            other => {
                Err(serde::DeError::new(format!("expected policy spec string, got {other:?}")))
            }
        }
    }
}

/// `prod=3,adhoc=1` → ordered `(name, weight)` pairs.
fn parse_capacity_queues(params: &str) -> Result<Vec<(String, f64)>, PolicyParseError> {
    let invalid = |reason: String| PolicyParseError::InvalidParams { policy: "capacity", reason };
    if params.is_empty() {
        return Err(invalid("empty parameter list (drop the ':' for default queues)".into()));
    }
    let mut queues = Vec::new();
    for part in params.split(',') {
        let Some((name, weight)) = part.split_once('=') else {
            return Err(invalid(format!("expected queue=weight, got {part:?}")));
        };
        let weight: f64 = weight.parse().map_err(|_| {
            invalid(format!("weight of queue {name:?} is not a number: {weight:?}"))
        })?;
        if !weight.is_finite() || weight <= 0.0 {
            return Err(invalid(format!("weight of queue {name:?} must be finite and > 0")));
        }
        if queues.iter().any(|(n, _)| n == name) {
            return Err(invalid(format!("queue {name:?} listed twice")));
        }
        queues.push((name.to_string(), weight));
    }
    Ok(queues)
}

impl PolicySpec {
    /// Instantiates the policy this spec describes.
    pub fn build(&self) -> Box<dyn SchedulerPolicy> {
        match self {
            PolicySpec::Fifo => Box::new(FifoPolicy::new()),
            PolicySpec::MaxEdf { preemptive: false } => Box::new(EdfPolicy::maxedf()),
            PolicySpec::MaxEdf { preemptive: true } => Box::new(EdfPolicy::maxedf().preemptive()),
            PolicySpec::MinEdf { preemptive: false } => Box::new(EdfPolicy::minedf()),
            PolicySpec::MinEdf { preemptive: true } => Box::new(EdfPolicy::minedf().preemptive()),
            PolicySpec::Fair => Box::new(FifoPolicy::fair()),
            PolicySpec::Capacity { queues } => Box::new(HierPolicy::capacity(queues)),
            PolicySpec::Hier { pools } if pools.is_empty() => Box::new(HierPolicy::two_tier()),
            PolicySpec::Hier { pools } => Box::new(HierPolicy::new(pools.clone())),
        }
    }
}

/// Parses a policy spec string and builds the policy in one step.
///
/// ```
/// let p = simmr_sched::parse_policy("capacity:prod=3,adhoc=1").unwrap();
/// assert_eq!(p.name(), "capacity");
/// let err = simmr_sched::parse_policy("nope").err().unwrap();
/// assert!(err.to_string().contains("valid policies"));
/// ```
pub fn parse_policy(spec: &str) -> Result<Box<dyn SchedulerPolicy>, PolicyParseError> {
    Ok(spec.parse::<PolicySpec>()?.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_build_all_plain_names() {
        for name in ["fifo", "maxedf", "minedf", "fair", "capacity", "hier"] {
            let p = parse_policy(name).unwrap();
            assert_eq!(p.name(), name);
        }
        assert!(parse_policy("maxedf-p").is_ok());
        assert!(parse_policy("minedf-p").is_ok());
    }

    #[test]
    fn unknown_policy_lists_valid_names() {
        let err = parse_policy("nope").err().unwrap();
        let msg = err.to_string();
        for name in POLICY_NAMES {
            assert!(msg.contains(name), "{msg}");
        }
        // one worked example per parameterized family, and both examples
        // must actually parse
        for example in
            ["capacity:prod=3,adhoc=1", "hier:prod[w=3,min=4,timeout=30]{etl,serving},adhoc"]
        {
            assert!(msg.contains(example), "{msg}");
            assert!(parse_policy(example).is_ok(), "error message suggests a broken spec");
        }
    }

    #[test]
    fn capacity_params_normalize_to_name_order() {
        let spec: PolicySpec = "capacity:prod=3,adhoc=1.5".parse().unwrap();
        assert_eq!(
            spec,
            PolicySpec::Capacity { queues: vec![("adhoc".into(), 1.5), ("prod".into(), 3.0)] }
        );
        assert_eq!(spec.build().name(), "capacity");
        // the two orderings of the issue's example parse equal and render
        // one canonical string
        let a: PolicySpec = "capacity:adhoc=1,prod=3".parse().unwrap();
        let b: PolicySpec = "capacity:prod=3,adhoc=1".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "capacity:adhoc=1,prod=3");
        assert_eq!(b.to_string(), "capacity:adhoc=1,prod=3");
        // bare name: the two_tier default
        assert_eq!(
            "capacity".parse::<PolicySpec>().unwrap(),
            PolicySpec::Capacity { queues: vec![] }
        );
    }

    #[test]
    fn display_round_trips_canonically() {
        for spec in [
            "fifo",
            "maxedf",
            "minedf",
            "maxedf-p",
            "minedf-p",
            "fair",
            "capacity",
            "capacity:adhoc=1.5,prod=3",
            "hier",
            "hier:prod[w=3,min=4,timeout=30]{etl,serving},adhoc",
            "hier:a[w=2,min=1,max=8,rmin=2,rmax=4,timeout=1.5]{b,c[w=0.5]},d",
        ] {
            let parsed: PolicySpec = spec.parse().unwrap();
            assert_eq!(parsed.to_string(), spec, "canonical form should be stable");
            let reparsed: PolicySpec = parsed.to_string().parse().unwrap();
            assert_eq!(reparsed, parsed, "{spec}: display must invert parse");
        }
        // non-canonical inputs render the canonical spelling
        let p: PolicySpec = "hier:adhoc[w=1],prod[w=1]".parse().unwrap();
        assert_eq!(p.to_string(), "hier:adhoc,prod");
    }

    #[test]
    fn policy_spec_serde_is_the_canonical_string() {
        let spec: PolicySpec = "capacity:prod=3,adhoc=1".parse().unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        assert_eq!(json, "\"capacity:adhoc=1,prod=3\"");
        let back: PolicySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert!(serde_json::from_str::<PolicySpec>("\"nope\"").is_err());
        assert!(serde_json::from_str::<PolicySpec>("7").is_err());
    }

    #[test]
    fn capacity_param_errors() {
        for bad in [
            "capacity:",
            "capacity:prod",
            "capacity:prod=abc",
            "capacity:prod=0",
            "capacity:prod=-1",
            "capacity:prod=inf",
            "capacity:prod=1,prod=2",
        ] {
            let err = bad.parse::<PolicySpec>().unwrap_err();
            assert!(
                matches!(err, PolicyParseError::InvalidParams { policy: "capacity", .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn hier_params_parse_issue_example() {
        let spec: PolicySpec =
            "hier:prod[w=3,min=4,timeout=30]{etl,serving},adhoc[w=1]".parse().unwrap();
        let PolicySpec::Hier { pools } = &spec else { panic!("not hier: {spec:?}") };
        assert_eq!(pools.len(), 2);
        assert_eq!(pools[0].min_maps, Some(4));
        assert_eq!(pools[0].preemption_timeout, Some(30_000));
        assert_eq!(spec.build().name(), "hier");
        // bare name: the two_tier default tree
        assert_eq!("hier".parse::<PolicySpec>().unwrap(), PolicySpec::Hier { pools: vec![] });
    }

    #[test]
    fn hier_param_errors() {
        for bad in ["hier:", "hier:p[w=0]", "hier:p[oops=1]", "hier:p{q", "hier:p,p"] {
            let err = bad.parse::<PolicySpec>().unwrap_err();
            assert!(
                matches!(err, PolicyParseError::InvalidParams { policy: "hier", .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn params_on_parameterless_policy_rejected() {
        let err = "fifo:x=1".parse::<PolicySpec>().unwrap_err();
        assert!(matches!(err, PolicyParseError::InvalidParams { policy: "fifo", .. }), "{err}");
        let err = "maxedf-p:1".parse::<PolicySpec>().unwrap_err();
        assert!(err.to_string().contains("maxedf-p"), "{err}");
    }

    #[test]
    fn parse_policy_resolves_all_shim_era_names() {
        // the names the removed policy_by_name shim used to accept
        for name in ["fifo", "maxedf", "minedf", "maxedf-p", "minedf-p", "fair"] {
            assert!(parse_policy(name).is_ok(), "{name}");
        }
        assert!(parse_policy("nope").is_err());
    }
}

/// The `capacity` spec family end to end: every test builds its policy
/// from a [`PolicySpec::Capacity`].
#[cfg(test)]
mod capacity {
    use super::*;
    use simmr_core::{EngineConfig, SimulatorEngine};
    use simmr_types::{ClusterSpec, JobId, JobSpec, JobTemplate, SimTime, WorkloadTrace};

    fn named_job(name: &str, maps: usize, map_ms: u64, arrival_ms: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new(name, vec![map_ms; maps], vec![], vec![], vec![]).unwrap(),
            SimTime::from_millis(arrival_ms),
        )
    }

    /// Replays `trace` under the capacity `spec` on `slots` map slots.
    fn run(trace: &WorkloadTrace, spec: &str, slots: usize) -> simmr_types::SimulationReport {
        let policy = spec.parse::<PolicySpec>().unwrap().build();
        SimulatorEngine::new(EngineConfig::new(slots, slots).with_invariants(), trace, policy).run()
    }

    /// The queue each job name routes to under the capacity `spec`.
    fn routes(spec: &str, names: &[&str]) -> Vec<String> {
        let PolicySpec::Capacity { queues } = spec.parse().unwrap() else {
            panic!("{spec} is not a capacity spec")
        };
        let mut policy = HierPolicy::capacity(&queues);
        for (i, name) in names.iter().enumerate() {
            let template = JobTemplate::new(*name, vec![1], vec![], vec![], vec![]).unwrap();
            policy.on_job_arrival(JobId(i as u32), &template, None, ClusterSpec::new(1, 1));
        }
        (0..names.len()).map(|i| policy.pool_of(JobId(i as u32)).unwrap().to_owned()).collect()
    }

    mod tests {
        use super::*;

        #[test]
        fn routing_by_prefix() {
            assert_eq!(routes("capacity", &["prod-wordcount", "adhoc-sort"]), ["prod", ""]);
            // longest prefix wins whatever the listed order; no match
            // falls back to the last queue in canonical (name) order
            assert_eq!(
                routes(
                    "capacity:prod-etl=4,prod=1,adhoc=2",
                    &["prod-etl-daily", "prod-serving", "adhoc-x", "other"]
                ),
                ["prod-etl", "prod", "adhoc", "prod-etl"]
            );
        }

        #[test]
        #[should_panic(expected = "empty parameter list")]
        fn rejects_empty_queues() {
            "capacity:".parse::<PolicySpec>().unwrap();
        }

        #[test]
        #[should_panic(expected = "weight must be finite and > 0")]
        fn rejects_zero_weight() {
            PolicySpec::Capacity { queues: vec![("q".into(), 0.0)] }.build();
        }

        #[test]
        fn weighted_split_between_queues() {
            // prod (weight 2) and adhoc (weight 1) each submit one long job
            // on 6 slots: prod should hold ~4 slots, adhoc ~2, so prod
            // finishes its 12 tasks around when adhoc finishes its 6.
            let mut trace = WorkloadTrace::new("t", "test");
            trace.push(named_job("prod-big", 12, 1000, 0));
            trace.push(named_job("adhoc-big", 6, 1000, 0));
            let report = run(&trace, "capacity", 6);
            // prod: 12 tasks / 4 slots = 3s; adhoc: 6 / 2 = 3s
            assert_eq!(report.jobs[0].completion, SimTime::from_millis(3000));
            assert_eq!(report.jobs[1].completion, SimTime::from_millis(3000));
        }

        #[test]
        fn idle_capacity_flows_to_busy_queue() {
            // only adhoc has work: it should get ALL slots despite weight 1.
            let mut trace = WorkloadTrace::new("t", "test");
            trace.push(named_job("adhoc-only", 4, 1000, 0));
            let report = run(&trace, "capacity", 4);
            assert_eq!(report.jobs[0].completion, SimTime::from_millis(1000));
        }

        #[test]
        fn fifo_within_queue() {
            let mut trace = WorkloadTrace::new("t", "test");
            trace.push(named_job("adhoc-late", 1, 1000, 10));
            trace.push(named_job("adhoc-early", 1, 1000, 0));
            let report = run(&trace, "capacity", 1);
            // the engine numbers jobs by arrival, so find them by arrival
            let completion = |arrival_ms| {
                let arrival = SimTime::from_millis(arrival_ms);
                report.jobs.iter().find(|j| j.arrival == arrival).unwrap().completion
            };
            assert!(completion(0) < completion(10));
        }
    }
}
