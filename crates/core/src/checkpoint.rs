//! Time-travel checkpoints: serializable engine snapshots and scenario
//! forking.
//!
//! SimMR's value proposition is cheap replay-based what-if analysis, but a
//! sweep whose variants only diverge late in the trace still replays the
//! shared prefix once per variant. An [`EngineCheckpoint`] captures the
//! full deterministic state of a run at a settled batch boundary — the
//! event queue (with per-event insertion sequence numbers, so same-time
//! ties keep breaking identically), the clock, the job table, slot and
//! host state, the derived fault/slowdown plans, and the policy's own
//! state through [`crate::SchedulerPolicy::snapshot`]. Resuming it
//! continues the run **byte-identically** to never having stopped, and a
//! [`ForkSpec`] applies a divergence at the boundary instead. A sweep of
//! late-diverging variants captures the shared prefix once and resumes
//! each variant from it.
//!
//! # Binary format
//!
//! `SIMMRCKP` magic + `u16` version + little-endian body + trailing
//! CRC-64/XZ over everything before it, built on the shared
//! [`crate::codec`] writers, reader and checksum. Job templates are
//! content-interned into a [`TemplateTable`] in SIMMRBIN's per-template
//! layout (since version 2; version 1 used a layout of its own). Version
//! 3 changed no engine field: `capacity` policy blobs became pool-tree
//! blobs, so a version-2 checkpoint is rejected rather than restored
//! against the wrong policy layout. Version 4 dropped the streaming flag
//! (bit 0 of the flag byte, now rejected) and the last pulled arrival:
//! every checkpoint holds every job of its run. Encoding is
//! canonical: `encode(decode(bytes)) == bytes` for any accepted input,
//! which is what lets the serve layer memoize *encoded* checkpoints and
//! key caches on their digest.
//!
//! # What is *not* stored
//!
//! Live RNG state — there is none. Every seeded draw (slot slowdowns, the
//! fault plan, recovery downtimes) happens before the first event pops,
//! and the checkpoint stores the derived artifacts (factor vectors, the
//! plan, the already-queued recovery events) instead of generator state.
//! Policy state that is derivable from the queue (routing tables,
//! wanted-slot caps, ordered job views, share counters) is also
//! not stored: restore replays the arrival hooks over the live queue and
//! rebuilds it, and the policy blob carries only what replay cannot (see
//! [`crate::SchedulerPolicy::restore`]).

use crate::codec::{
    put_bool_vec, put_f64_vec, put_opt_u64, put_str, put_u16, put_u32, put_u32_vec, put_u64, Crc64,
    DecodeError, Reader, TemplateTable,
};
use crate::engine::{
    check_below, HostFailure, JobState, JobTable, MapTask, ReduceTask, RunState, MAX_MAP_SLOTS,
};
use crate::event::{Event, EventKind};
use crate::queue::EventQueue;
use crate::slots::{Attempt, SlotPool, SlotTable, TaskRecord, Tasks};
use crate::SchedulerPolicy;
use simmr_types::{
    HostId, JobId, JobResult, JobSpec, JobTemplate, SimTime, TimelineEntry, TimelinePhase,
};
use std::fmt;
use std::sync::Arc;

/// Magic bytes opening every serialized checkpoint.
pub const CKPT_MAGIC: &[u8; 8] = b"SIMMRCKP";
/// Current checkpoint format version.
pub const CKPT_VERSION: u16 = 4;

/// Why a checkpoint failed to decode or resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The buffer does not start with [`CKPT_MAGIC`].
    BadMagic,
    /// The format version is not [`CKPT_VERSION`].
    BadVersion(u16),
    /// The buffer ends before the structure it promises.
    Truncated,
    /// The trailing CRC-64 does not match the body.
    ChecksumMismatch {
        /// Checksum stored in the buffer.
        expected: u64,
        /// Checksum recomputed over the body.
        actual: u64,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// The bytes parse but describe an impossible state (unknown event
    /// kind, invalid template, out-of-range tag).
    Malformed(String),
    /// The checkpoint is valid but incompatible with what the caller
    /// offered at resume time (wrong cluster shape, wrong policy, a
    /// policy blob that does not match the rebuilt state).
    Mismatch(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a SIMMRCKP checkpoint (bad magic)"),
            CkptError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {CKPT_VERSION})")
            }
            CkptError::Truncated => write!(f, "checkpoint data is truncated"),
            CkptError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
            ),
            CkptError::BadUtf8 => write!(f, "checkpoint contains an invalid UTF-8 string"),
            CkptError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CkptError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<DecodeError> for CkptError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => CkptError::Truncated,
            DecodeError::BadUtf8 => CkptError::BadUtf8,
            other => CkptError::Malformed(other.to_string()),
        }
    }
}

/// A serializable snapshot of a [`SimulatorEngine`] at a settled batch
/// boundary. Captured by [`SimulatorEngine::checkpoint_at`]; resumed by
/// [`SimulatorEngine::resume_materialized`]; forked by
/// [`SimulatorEngine::apply_fork`].
///
/// A checkpoint is self-contained: before capturing, the engine pulls
/// every job its source had left, so the job table holds the whole run —
/// departed jobs as retired holes, live jobs, and jobs yet to arrive with
/// their arrivals queued — however the trace was fed.
///
/// [`SimulatorEngine`]: crate::SimulatorEngine
/// [`SimulatorEngine::checkpoint_at`]: crate::SimulatorEngine::checkpoint_at
/// [`SimulatorEngine::resume_materialized`]: crate::SimulatorEngine::resume_materialized
/// [`SimulatorEngine::apply_fork`]: crate::SimulatorEngine::apply_fork
pub struct EngineCheckpoint {
    /// The requested checkpoint instant.
    pub(crate) at: SimTime,
    /// The engine's run state at the boundary; its clock is the time of
    /// the last settled batch at or before `at`.
    pub(crate) run: RunState,
    pub(crate) policy_name: String,
    pub(crate) policy_blob: Vec<u8>,
}

impl EngineCheckpoint {
    /// The requested checkpoint instant.
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// The actual boundary: the last settled batch at or before
    /// [`Self::at`] (every pending event is strictly later).
    pub fn boundary(&self) -> SimTime {
        self.run.clock
    }

    /// Name of the policy that was scheduling when the snapshot was taken.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Jobs in the run: departed, live, and not yet arrived (a
    /// checkpoint admits every job its source had left).
    pub fn jobs_admitted(&self) -> usize {
        self.run.jobs.total()
    }

    /// Events still pending in the snapshot's queue.
    pub fn pending_events(&self) -> usize {
        self.run.queue.len()
    }

    /// Events the run had processed up to the boundary.
    pub fn events_processed(&self) -> u64 {
        self.run.events_processed
    }

    /// CRC-64/XZ content digest: the checksum that ends the canonical
    /// encoding, taken over every byte before it. (A checksum over the
    /// whole encoding, trailer included, is the same CRC residue constant
    /// for every checkpoint.)
    pub fn digest(&self) -> u64 {
        Crc64::checksum(&self.encode_body())
    }

    /// Serializes the checkpoint to its canonical binary form: the body,
    /// then its CRC-64.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.encode_body();
        let crc = Crc64::checksum(&out);
        put_u64(&mut out, crc);
        out
    }

    fn encode_body(&self) -> Vec<u8> {
        let run = &self.run;
        let (events, next_seq, pushed) = run.queue.snapshot();
        let (jobs_base, jobs_end) = run.jobs.id_range();
        let mut out = Vec::with_capacity(256 + events.len() * 29 + (jobs_end - jobs_base) * 64);
        out.extend_from_slice(CKPT_MAGIC);
        put_u16(&mut out, CKPT_VERSION);
        put_u64(&mut out, self.at.as_millis());
        put_u64(&mut out, run.clock.as_millis());
        put_u32(&mut out, run.maps.len() as u32);
        put_u32(&mut out, run.reduces.len() as u32);
        put_u32(&mut out, run.dead_hosts.len() as u32);
        // bit 0 held the streaming flag until version 4
        out.push((run.collected as u8) << 1 | (run.jobq_dirty as u8) << 2);
        put_opt_time(&mut out, run.policy_wakeup_at);
        put_u64(&mut out, run.events_processed);
        put_u64(&mut out, run.makespan.as_millis());
        put_u64(&mut out, next_seq);
        put_u64(&mut out, pushed);
        put_u32(&mut out, events.len() as u32);
        for e in &events {
            put_event(&mut out, e);
        }
        put_u32_vec(&mut out, &run.maps.free);
        put_u32_vec(&mut out, &run.reduces.free);
        put_bool_vec(&mut out, &run.dead_hosts);
        put_bool_vec(&mut out, &run.maps.dead);
        put_bool_vec(&mut out, &run.reduces.dead);
        put_u32(&mut out, run.fault_plan.len() as u32);
        for f in &run.fault_plan {
            put_u32(&mut out, f.host.0);
            put_u64(&mut out, f.at.as_millis());
        }
        put_f64_vec(&mut out, &run.maps.slowdown);
        put_f64_vec(&mut out, &run.reduces.slowdown);
        // Templates are content-interned in first-appearance order over
        // the job table, so re-encoding a decoded checkpoint reproduces
        // the table byte for byte.
        let mut templates = TemplateTable::default();
        let job_template: Vec<u32> =
            run.jobs.iter().map(|(_, job)| templates.intern(&job.template)).collect();
        put_u32(&mut out, templates.count());
        out.extend_from_slice(templates.bytes());
        put_u64(&mut out, jobs_base as u64);
        put_u32(&mut out, (jobs_end - jobs_base) as u32);
        let mut live = 0usize;
        for job in run.jobs.raw_slots() {
            match job {
                None => out.push(0),
                Some(state) => {
                    out.push(1);
                    let tid = job_template[live];
                    live += 1;
                    encode_job(&mut out, state, tid, &run.maps.running, &run.reduces.running);
                }
            }
        }
        put_u32(&mut out, run.timeline.len() as u32);
        for bar in &run.timeline {
            put_u32(&mut out, bar.job.0);
            out.push(bar.phase as u8);
            put_u32(&mut out, bar.slot);
            put_u64(&mut out, bar.start.as_millis());
            put_u64(&mut out, bar.end.as_millis());
        }
        put_u32(&mut out, run.results.len() as u32);
        for r in &run.results {
            match r {
                None => out.push(0),
                Some(res) => {
                    out.push(1);
                    put_u32(&mut out, res.job.0);
                    put_str(&mut out, &res.name);
                    put_u64(&mut out, res.arrival.as_millis());
                    put_opt_time(&mut out, res.first_map_start);
                    put_opt_time(&mut out, res.maps_finished);
                    put_u64(&mut out, res.completion.as_millis());
                    put_opt_time(&mut out, res.deadline);
                    put_u32(&mut out, res.num_maps as u32);
                    put_u32(&mut out, res.num_reduces as u32);
                }
            }
        }
        put_str(&mut out, &self.policy_name);
        put_u32(&mut out, self.policy_blob.len() as u32);
        out.extend_from_slice(&self.policy_blob);
        out
    }

    /// Decodes a checkpoint, verifying magic, version, and the trailing
    /// CRC-64 before parsing the body. Parsing checks only what it needs
    /// to build the state without panicking or over-allocating: tags,
    /// counts against the bytes left, header counts against the vectors
    /// they head, the event list's order and the indices it builds the
    /// slot tables with. The state it builds must then pass
    /// `RunState::check`, whose first broken rule makes the checkpoint
    /// [`CkptError::Malformed`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        if bytes.len() < CKPT_MAGIC.len() + 2 + 8 {
            if bytes.len() >= CKPT_MAGIC.len() && &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
                return Err(CkptError::BadMagic);
            }
            return Err(CkptError::Truncated);
        }
        if &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
            return Err(CkptError::BadMagic);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let expected = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let actual = Crc64::checksum(body);
        if expected != actual {
            return Err(CkptError::ChecksumMismatch { expected, actual });
        }
        let mut r = Reader::new(&body[CKPT_MAGIC.len()..]);
        let version = r.u16()?;
        if version != CKPT_VERSION {
            return Err(CkptError::BadVersion(version));
        }
        let at = SimTime::from_millis(r.u64()?);
        let clock = SimTime::from_millis(r.u64()?);
        let map_slots = r.u32()? as usize;
        if map_slots > MAX_MAP_SLOTS {
            return Err(CkptError::Malformed(format!(
                "{map_slots} map slots exceed the engine's {MAX_MAP_SLOTS}"
            )));
        }
        let reduce_slots = r.u32()? as usize;
        let hosts = r.u32()? as usize;
        let flags = r.u8()?;
        if flags & !0b110 != 0 {
            return Err(CkptError::Malformed(format!("unknown flag bits {flags:#04x}")));
        }
        let collected = flags & 2 != 0;
        let jobq_dirty = flags & 4 != 0;
        let policy_wakeup_at = read_opt_time(&mut r)?;
        let events_processed = r.u64()?;
        let makespan = SimTime::from_millis(r.u64()?);
        let next_seq = r.u64()?;
        let pushed = r.u64()?;
        let n_events = r.count(29)?; // time, seq, kind, job, task, attempt
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let time = SimTime::from_millis(r.u64()?);
            let seq = r.u64()?;
            let kind = event_kind_from_tag(r.u8()?)?;
            let job = JobId(r.u32()?);
            let task_index = r.u32()?;
            let attempt = r.u32()?;
            let event = Event { time, seq, kind, job, task_index, attempt };
            // the queue is built from a strictly `(time, seq)`-ordered
            // list, which is also the only canonical one
            if events.last().is_some_and(|prev| *prev >= event) {
                return Err(CkptError::Malformed("event list out of (time, seq) order".into()));
            }
            events.push(event);
        }
        let (free_maps, free_reduces) = (r.u32_vec()?, r.u32_vec()?);
        let dead_hosts = r.bool_vec()?;
        let (dead_maps, dead_reduces) = (r.bool_vec()?, r.bool_vec()?);
        // the header's counts are those of the vectors they head
        if dead_hosts.len() != hosts {
            let n = dead_hosts.len();
            return Err(CkptError::Malformed(format!("{n} host flags for {hosts} hosts")));
        }
        for (kind, dead, n) in
            [("map", &dead_maps, map_slots), ("reduce", &dead_reduces, reduce_slots)]
        {
            if dead.len() != n {
                let m = dead.len();
                return Err(CkptError::Malformed(format!(
                    "{m} dead-slot flags for {n} {kind} slots"
                )));
            }
        }
        let n_faults = r.count(12)?; // host, instant
        let mut fault_plan = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            let host = HostId(r.u32()?);
            let fat = SimTime::from_millis(r.u64()?);
            fault_plan.push(HostFailure { host, at: fat });
        }
        // each job's running attempts are launched into the pools in the
        // order they were encoded, which rebuilds every link. A table is
        // sized by the dead flags, whose bytes the file holds.
        let pool = |free, dead: Vec<bool>, slowdown| SlotPool {
            free,
            running: SlotTable::new(dead.len()),
            dead,
            slowdown,
        };
        let mut maps = pool(free_maps, dead_maps, r.f64_vec()?);
        let mut reduces = pool(free_reduces, dead_reduces, r.f64_vec()?);
        let n_templates = r.u32()? as usize;
        let templates = r.templates(n_templates)?;
        let jobs_base = r.u64()?;
        let n_jobs = r.count(1)?; // at least the slot tag
        if jobs_base.checked_add(n_jobs as u64).is_none_or(|end| end > 1 << 32) {
            return Err(CkptError::Malformed(format!(
                "{n_jobs} jobs from id {jobs_base} run past the u32 job ids"
            )));
        }
        let jobs_base = jobs_base as usize;
        let mut jobs: Vec<Option<Box<JobState>>> = Vec::with_capacity(n_jobs);
        for i in 0..n_jobs {
            match r.u8()? {
                0 => jobs.push(None),
                1 => {
                    let id = JobId((jobs_base + i) as u32);
                    let job = decode_job(&mut r, id, &templates, &mut maps, &mut reduces)?;
                    jobs.push(Some(Box::new(job)))
                }
                t => return Err(CkptError::Malformed(format!("unknown job slot tag {t}"))),
            }
        }
        let jobs = JobTable::from_parts(jobs_base, jobs);
        let n_bars = r.count(25)?; // job, phase, slot, start, end
        let mut timeline = Vec::with_capacity(n_bars);
        for _ in 0..n_bars {
            let job = JobId(r.u32()?);
            let phase = match r.u8()? {
                0 => TimelinePhase::Map,
                1 => TimelinePhase::Shuffle,
                2 => TimelinePhase::Reduce,
                t => return Err(CkptError::Malformed(format!("unknown timeline phase {t}"))),
            };
            let slot = r.u32()?;
            let start = SimTime::from_millis(r.u64()?);
            let end = SimTime::from_millis(r.u64()?);
            timeline.push(TimelineEntry { job, phase, slot, start, end });
        }
        let n_results = r.count(1)?; // at least the slot tag
        let mut results: Vec<Option<JobResult>> = Vec::with_capacity(n_results);
        for _ in 0..n_results {
            match r.u8()? {
                0 => results.push(None),
                1 => {
                    let job = JobId(r.u32()?);
                    let name: Arc<str> = Arc::from(r.str()?);
                    let arrival = SimTime::from_millis(r.u64()?);
                    let first_map_start = read_opt_time(&mut r)?;
                    let maps_finished = read_opt_time(&mut r)?;
                    let completion = SimTime::from_millis(r.u64()?);
                    let deadline = read_opt_time(&mut r)?;
                    let num_maps = r.u32()? as usize;
                    let num_reduces = r.u32()? as usize;
                    results.push(Some(JobResult {
                        job,
                        name,
                        arrival,
                        first_map_start,
                        maps_finished,
                        completion,
                        deadline,
                        num_maps,
                        num_reduces,
                    }));
                }
                t => return Err(CkptError::Malformed(format!("unknown result tag {t}"))),
            }
        }
        let policy_name = r.str()?.to_owned();
        let blob_len = r.count(1)?;
        let policy_blob = r.take(blob_len)?.to_vec();
        r.finish()?;
        let run = RunState {
            clock,
            jobq_dirty,
            policy_wakeup_at,
            events_processed,
            makespan,
            queue: EventQueue::from_snapshot(events, next_seq, pushed),
            jobs,
            maps,
            reduces,
            dead_hosts,
            fault_plan,
            timeline,
            collected,
            results,
        };
        run.check().map_err(CkptError::Malformed)?;
        Ok(EngineCheckpoint { at, run, policy_name, policy_blob })
    }
}

/// A divergence to apply at a fork boundary. Injected events land
/// strictly after the boundary batch; see
/// [`SimulatorEngine::apply_fork`](crate::SimulatorEngine::apply_fork).
pub enum Divergence {
    /// Replace the scheduling policy; the new policy adopts the live
    /// queue through the same hook replay a restore uses and starts with
    /// fresh internal clocks.
    PolicySwap(Box<dyn SchedulerPolicy>),
    /// Grow the cluster by this many extra map/reduce slots; new slots
    /// join the free pools alive and at nominal speed.
    AddSlots {
        /// Extra map slots.
        map_slots: usize,
        /// Extra reduce slots.
        reduce_slots: usize,
    },
    /// Fail a host at `at` (clamped after the boundary), permanently —
    /// the injected failure has no matching recovery.
    InjectFault {
        /// The host to fail (never host 0).
        host: HostId,
        /// When it fails.
        at: SimTime,
    },
    /// Admit extra jobs; arrivals are clamped after the boundary.
    ArrivalSurge(Vec<JobSpec>),
}

impl fmt::Debug for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::PolicySwap(p) => write!(f, "PolicySwap({:?})", p.name()),
            Divergence::AddSlots { map_slots, reduce_slots } => f
                .debug_struct("AddSlots")
                .field("map_slots", map_slots)
                .field("reduce_slots", reduce_slots)
                .finish(),
            Divergence::InjectFault { host, at } => {
                f.debug_struct("InjectFault").field("host", host).field("at", at).finish()
            }
            Divergence::ArrivalSurge(jobs) => write!(f, "ArrivalSurge({} jobs)", jobs.len()),
        }
    }
}

/// A what-if fork: divergences applied at the last settled batch at or
/// before `at`.
#[derive(Debug)]
pub struct ForkSpec {
    /// The fork instant.
    pub at: SimTime,
    /// Divergences, applied in order.
    pub divergences: Vec<Divergence>,
}

impl ForkSpec {
    /// A fork applying `divergences` at `at`.
    pub fn new(at: SimTime, divergences: Vec<Divergence>) -> Self {
        ForkSpec { at, divergences }
    }
}

fn event_kind_tag(kind: EventKind) -> u8 {
    match kind {
        EventKind::JobArrival => 0,
        EventKind::JobDeparture => 1,
        EventKind::MapTaskDeparture => 2,
        EventKind::ReduceTaskDeparture => 3,
        EventKind::AllMapsFinished => 4,
        EventKind::HostFailure => 5,
        EventKind::SpeculationDue => 6,
        EventKind::HostRecovery => 7,
        EventKind::PolicyWakeup => 8,
    }
}

fn event_kind_from_tag(tag: u8) -> Result<EventKind, CkptError> {
    Ok(match tag {
        0 => EventKind::JobArrival,
        1 => EventKind::JobDeparture,
        2 => EventKind::MapTaskDeparture,
        3 => EventKind::ReduceTaskDeparture,
        4 => EventKind::AllMapsFinished,
        5 => EventKind::HostFailure,
        6 => EventKind::SpeculationDue,
        7 => EventKind::HostRecovery,
        8 => EventKind::PolicyWakeup,
        t => return Err(CkptError::Malformed(format!("unknown event kind tag {t}"))),
    })
}

/// Writes one event: time, seq, kind, job, task, attempt (29 bytes).
fn put_event(out: &mut Vec<u8>, e: &Event) {
    put_u64(out, e.time.as_millis());
    put_u64(out, e.seq);
    out.push(event_kind_tag(e.kind));
    put_u32(out, e.job.0);
    put_u32(out, e.task_index);
    put_u32(out, e.attempt);
}

fn put_opt_time(out: &mut Vec<u8>, t: Option<SimTime>) {
    put_opt_u64(out, t.map(SimTime::as_millis));
}

fn read_opt_time(r: &mut Reader) -> Result<Option<SimTime>, DecodeError> {
    Ok(r.opt_u64()?.map(SimTime::from_millis))
}

fn encode_job(
    out: &mut Vec<u8>,
    s: &JobState,
    template_id: u32,
    map_attempts: &SlotTable,
    reduce_attempts: &SlotTable,
) {
    put_u32(out, template_id);
    put_u64(out, s.arrival.as_millis());
    put_opt_time(out, s.deadline);
    put_u32(out, s.maps_total as u32);
    put_u32(out, s.reduces_total as u32);
    put_u32(out, s.fresh_maps as u32);
    put_u32_vec(out, &s.requeued_maps);
    put_u32(out, s.maps.running() as u32);
    for (slot, a) in map_attempts.launch_order(&s.maps) {
        put_u32(out, a.task);
        put_u32(out, a.attempt);
        put_u64(out, a.start.as_millis());
        put_u32(out, slot);
    }
    // the map records, one field per vector: launch counters, done flags,
    // output slots (and, at the end of the job, speculated flags)
    let maps = &s.maps.recs;
    put_u32(out, maps.len() as u32);
    maps.iter().for_each(|t| put_u32(out, t.launches));
    put_u32(out, maps.len() as u32);
    out.extend(maps.iter().map(|t| t.done() as u8));
    put_u32(out, maps.len() as u32);
    maps.iter().for_each(|t| put_u32(out, t.output_slot()));
    put_u32(out, s.maps_completed as u32);
    put_u32(out, s.fresh_reduces as u32);
    put_u32_vec(out, &s.requeued_reduces);
    put_u32(out, s.reduces.running() as u32);
    for (slot, a) in reduce_attempts.launch_order(&s.reduces) {
        put_u32(out, a.task);
        put_u32(out, a.attempt);
        put_u64(out, a.start.as_millis());
        put_u32(out, slot);
        put_u64(out, a.shuffle_end.as_millis());
    }
    put_u32(out, s.reduces.recs.len() as u32);
    s.reduces.recs.iter().for_each(|t| put_u32(out, t.launches));
    put_u32(out, s.reduces_completed as u32);
    put_u32(out, s.reduce_threshold as u32);
    out.push(s.active as u8);
    put_opt_time(out, s.first_map_start);
    put_opt_time(out, s.maps_finished);
    put_u64(out, s.spec_threshold);
    put_u32(out, maps.len() as u32);
    out.extend(maps.iter().map(|t| t.speculated() as u8));
    put_u32_vec(out, &s.spec_pending);
}

/// A running attempt as encoded: task, attempt, start, slot, shuffle end
/// (reduces only).
type Encoded = (u32, u32, SimTime, u32, SimTime);

/// Launches a job's decoded running attempts into `table` in launch
/// order, which rebuilds the job's launch order and task chains. The task
/// and the slot index the records and the table, and a slot already
/// running an attempt (of this or an earlier job) would be booked twice,
/// so each is checked first.
fn launch_decoded<T: TaskRecord>(
    kind: &str,
    table: &mut SlotTable,
    tasks: &mut Tasks<T>,
    job: JobId,
    running: &[Encoded],
) -> Result<(), CkptError> {
    for &(task, attempt, start, slot, shuffle_end) in running {
        check_below(format_args!("running {kind} task"), [task], tasks.recs.len())
            .and_then(|()| check_below(format_args!("running {kind} slot"), [slot], table.len()))
            .map_err(CkptError::Malformed)?;
        if table.get(slot).is_some() {
            return Err(CkptError::Malformed(format!("{kind} slot {slot} runs two attempts")));
        }
        table.launch(tasks, slot, Attempt::new(job, task, attempt, start, shuffle_end));
    }
    Ok(())
}

/// Reads a task-vector count, which must equal the job's task total.
fn task_count(r: &mut Reader, total: usize, what: &str) -> Result<(), CkptError> {
    let n = r.u32()? as usize;
    if n != total {
        return Err(CkptError::Malformed(format!(
            "job {what} vector holds {n} entries for {total} tasks"
        )));
    }
    Ok(())
}

/// Decodes one job and launches its running attempts into the pools.
fn decode_job(
    r: &mut Reader,
    id: JobId,
    templates: &[Arc<JobTemplate>],
    map_pool: &mut SlotPool,
    reduce_pool: &mut SlotPool,
) -> Result<JobState, CkptError> {
    let tid = r.u32()? as usize;
    let template = templates
        .get(tid)
        .ok_or_else(|| {
            CkptError::Malformed(format!(
                "job names template {tid} of {} interned",
                templates.len()
            ))
        })?
        .clone();
    let arrival = SimTime::from_millis(r.u64()?);
    let deadline = read_opt_time(r)?;
    let maps_total = r.u32()? as usize;
    let reduces_total = r.u32()? as usize;
    let fresh_maps = r.u32()? as usize;
    let requeued_maps = r.u32_vec()?;
    let n_rm = r.count(20)?; // task, attempt, start, slot
    let mut running_maps: Vec<Encoded> = Vec::with_capacity(n_rm);
    for _ in 0..n_rm {
        let (task, attempt) = (r.u32()?, r.u32()?);
        let start = SimTime::from_millis(r.u64()?);
        running_maps.push((task, attempt, start, r.u32()?, SimTime::INFINITY));
    }
    // sized from the file: every map task takes at least 10 bytes below
    // (launch counter, done flag, output slot, speculated flag)
    r.fits(maps_total, 10)?;
    let mut maps = vec![MapTask::default(); maps_total].into_boxed_slice();
    task_count(r, maps_total, "map launch counter")?;
    for t in maps.iter_mut() {
        t.launches = r.u32()?;
    }
    task_count(r, maps_total, "map done flag")?;
    for t in maps.iter_mut() {
        t.set_done(r.bool()?);
    }
    task_count(r, maps_total, "map output slot")?;
    for t in maps.iter_mut() {
        let slot = r.u32()?;
        if slot as usize >= MAX_MAP_SLOTS {
            return Err(CkptError::Malformed(format!("map output slot {slot} past its 30 bits")));
        }
        t.set_output_slot(slot);
    }
    let maps_completed = r.u32()? as usize;
    let fresh_reduces = r.u32()? as usize;
    let requeued_reduces = r.u32_vec()?;
    let n_rr = r.count(28)?; // task, attempt, start, slot, shuffle end
    let mut running_reduces: Vec<Encoded> = Vec::with_capacity(n_rr);
    for _ in 0..n_rr {
        let (task, attempt) = (r.u32()?, r.u32()?);
        let start = SimTime::from_millis(r.u64()?);
        let slot = r.u32()?;
        running_reduces.push((task, attempt, start, slot, SimTime::from_millis(r.u64()?)));
    }
    r.fits(reduces_total, 4)?; // a launch counter each
    let mut reduces = vec![ReduceTask::default(); reduces_total].into_boxed_slice();
    task_count(r, reduces_total, "reduce launch counter")?;
    for t in reduces.iter_mut() {
        t.launches = r.u32()?;
    }
    let reduces_completed = r.u32()? as usize;
    let reduce_threshold = r.u32()? as usize;
    let active = r.bool()?;
    let first_map_start = read_opt_time(r)?;
    let maps_finished = read_opt_time(r)?;
    let spec_threshold = r.u64()?;
    task_count(r, maps_total, "map speculated flag")?;
    for t in maps.iter_mut() {
        t.set_speculated(r.bool()?);
    }
    let spec_pending = r.u32_vec()?;
    let mut maps = Tasks::new(maps);
    let mut reduces = Tasks::new(reduces);
    launch_decoded("map", &mut map_pool.running, &mut maps, id, &running_maps)?;
    launch_decoded("reduce", &mut reduce_pool.running, &mut reduces, id, &running_reduces)?;
    Ok(JobState {
        template,
        arrival,
        deadline,
        maps_total,
        reduces_total,
        fresh_maps,
        requeued_maps,
        maps,
        maps_completed,
        fresh_reduces,
        requeued_reduces,
        reduces,
        reduces_completed,
        reduce_threshold,
        active,
        first_map_start,
        maps_finished,
        spec_threshold,
        spec_pending,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, FaultSpec, RecoverySpec, SimulatorEngine};
    use simmr_stats::{Dist, SeededRng};
    use simmr_types::{JobId, JobTemplate, WorkloadTrace};

    /// Minimal FIFO — the checkpoint layer must not depend on simmr-sched.
    struct TestFifo;
    impl SchedulerPolicy for TestFifo {
        fn name(&self) -> &str {
            "test-fifo"
        }
        fn choose_next_map_task(&mut self, q: &crate::JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_map())
                .min_by_key(|e| (e.arrival, e.id))
                .map(|e| e.id)
        }
        fn choose_next_reduce_task(&mut self, q: &crate::JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_reduce())
                .min_by_key(|e| (e.arrival, e.id))
                .map(|e| e.id)
        }
    }

    fn job(maps: usize, reduces: usize, ms: u64, arrival: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new(
                "ckpt-test",
                vec![ms; maps],
                if reduces > 0 { vec![ms] } else { vec![] },
                if reduces > 0 { vec![ms / 2 + 1; reduces] } else { vec![] },
                vec![ms; reduces],
            )
            .unwrap(),
            SimTime::from_millis(arrival),
        )
    }

    fn busy_trace() -> WorkloadTrace {
        let mut trace = WorkloadTrace::new("ckpt", "test");
        for i in 0..6 {
            trace.push(job(3 + i % 3, 2, 40 + 7 * i as u64, 55 * i as u64));
        }
        trace
    }

    fn busy_config() -> EngineConfig {
        EngineConfig::new(3, 2)
            .with_hosts(4)
            .with_timeline()
            .with_invariants()
            .with_faults(FaultSpec { seed: 11, count: 2, mean_interval_ms: 120 })
            .with_recovery(RecoverySpec { seed: 12, mean_ms: 90 })
            .with_speculation(1.5)
            .with_slowdown(Dist::Exponential { mean: 1.2 }, 13)
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ check value, same parameterization as trace digests.
        assert_eq!(Crc64::checksum(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn encode_decode_encode_is_identity() {
        let trace = busy_trace();
        let ckpt = SimulatorEngine::new(busy_config(), &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(150))
            .unwrap();
        let bytes = ckpt.encode();
        let decoded = EngineCheckpoint::decode(&bytes).unwrap();
        assert_eq!(decoded.encode(), bytes);
        assert_eq!(decoded.digest(), ckpt.digest());
        assert!(ckpt.pending_events() > 0);
        assert!(ckpt.boundary() <= ckpt.at());
    }

    #[test]
    fn digest_tells_checkpoints_apart() {
        let trace = busy_trace();
        let at = |ms| {
            SimulatorEngine::new(busy_config(), &trace, Box::new(TestFifo))
                .checkpoint_at(SimTime::from_millis(ms))
                .unwrap()
        };
        let (early, late) = (at(150), at(400));
        assert_ne!(early.digest(), late.digest());
        // the digest is the checksum trailer of the encoding
        let bytes = late.encode();
        assert_eq!(late.digest().to_le_bytes(), bytes[bytes.len() - 8..]);
    }

    #[test]
    fn resume_materialized_matches_uninterrupted() {
        let trace = busy_trace();
        let config = busy_config();
        let full = SimulatorEngine::new(config, &trace, Box::new(TestFifo)).try_run().unwrap();
        for at in [0u64, 90, 151, 400, 100_000] {
            let ckpt = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
                .checkpoint_at(SimTime::from_millis(at))
                .unwrap();
            // round-trip through bytes so the codec is on the hot path
            let ckpt = EngineCheckpoint::decode(&ckpt.encode()).unwrap();
            let resumed = SimulatorEngine::resume_materialized(config, &ckpt, Box::new(TestFifo))
                .unwrap()
                .try_run()
                .unwrap();
            assert_eq!(resumed, full, "divergence resuming from t={at}");
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let trace = busy_trace();
        let ckpt = SimulatorEngine::new(busy_config(), &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(100))
            .unwrap();
        let bytes = ckpt.encode();

        let decode_err = |b: &[u8]| EngineCheckpoint::decode(b).map(|_| ()).unwrap_err();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_err(&bad_magic), CkptError::BadMagic);

        assert_eq!(decode_err(&bytes[..4]), CkptError::Truncated);
        assert_eq!(
            decode_err(&bytes[..bytes.len() - 9]),
            CkptError::ChecksumMismatch {
                expected: u64::from_le_bytes(
                    bytes[bytes.len() - 17..bytes.len() - 9].try_into().unwrap()
                ),
                actual: Crc64::checksum(&bytes[..bytes.len() - 17]),
            }
        );

        let mut flipped = bytes.clone();
        flipped[40] ^= 0x10;
        assert!(matches!(decode_err(&flipped), CkptError::ChecksumMismatch { .. }));

        // rewrite a byte and re-sign, so the check behind the checksum
        // must fire
        let resigned = |at: std::ops::Range<usize>, with: &[u8]| {
            let mut b = bytes.clone();
            b[at].copy_from_slice(with);
            resign(b)
        };
        // an unknown future version and the retired versions 1 to 3
        for version in [0x00FF, 1, 2, 3] {
            let wrong_version = resigned(8..10, &u16::to_le_bytes(version));
            assert_eq!(decode_err(&wrong_version), CkptError::BadVersion(version));
        }
        // flag byte after magic, version, at, clock and the cluster shape:
        // bit 0 was the streaming flag before version 4
        let flags = 8 + 2 + 8 + 8 + 3 * 4;
        let streaming = resigned(flags..flags + 1, &[bytes[flags] | 1]);
        assert!(matches!(decode_err(&streaming), CkptError::Malformed(_)));
    }

    /// Re-signs `b` after an in-place edit, so only the checks behind
    /// the checksum can object.
    fn resign(mut b: Vec<u8>) -> Vec<u8> {
        let body_len = b.len() - 8;
        let crc = Crc64::checksum(&b[..body_len]);
        b[body_len..].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Offset in `bytes` of the encoded running attempt on `slot` of
    /// `table` (its task field; the slot field is 16 bytes on). Its task,
    /// attempt, start and slot must appear exactly once.
    fn encoded_at(bytes: &[u8], table: &SlotTable, slot: u32) -> usize {
        let a = table.get(slot).expect("a running attempt");
        let mut pattern = Vec::new();
        put_u32(&mut pattern, a.task);
        put_u32(&mut pattern, a.attempt);
        put_u64(&mut pattern, a.start.as_millis());
        put_u32(&mut pattern, slot);
        let hits: Vec<usize> = (0..bytes.len() - pattern.len())
            .filter(|&i| bytes[i..i + pattern.len()] == pattern[..])
            .collect();
        assert_eq!(hits.len(), 1, "the attempt on slot {slot} is not encoded exactly once");
        hits[0]
    }

    /// `bytes` with the `u32` at `at` replaced by `v`, re-signed.
    fn patched(bytes: &[u8], at: usize, v: u32) -> Vec<u8> {
        let mut b = bytes.to_vec();
        b[at..at + 4].copy_from_slice(&v.to_le_bytes());
        resign(b)
    }

    fn assert_malformed(what: &str, bytes: &[u8]) {
        match EngineCheckpoint::decode(bytes) {
            Err(CkptError::Malformed(msg)) => {
                assert!(msg.contains(what), "{what}: unexpected message {msg:?}")
            }
            other => panic!("{what}: decoded to {:?}", other.map(|_| ())),
        }
    }

    /// A checkpoint whose CRC is valid but which names a task or slot the
    /// job or cluster does not have is malformed at decode time. Such a
    /// checkpoint used to decode `Ok` and panic on resume, indexing the
    /// job's task records with the bad task.
    #[test]
    fn decode_rejects_out_of_range_task_and_slot_indices() {
        let trace = busy_trace();
        let ckpt = SimulatorEngine::new(busy_config(), &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(100))
            .unwrap();
        let live = ckpt.run.jobs.iter().next().expect("a live job").0;
        let bytes = ckpt.encode();
        // the busy config has 3 map and 2 reduce slots, jobs 3-5 maps and
        // 2 reduces; one running attempt of each kind gets a bad task or
        // slot in the bytes
        let map_slot = ckpt.run.maps.running.occupied().next().expect("a running map").0;
        let reduce_slot = ckpt.run.reduces.running.occupied().next().expect("a running reduce").0;
        let m = encoded_at(&bytes, &ckpt.run.maps.running, map_slot);
        let r = encoded_at(&bytes, &ckpt.run.reduces.running, reduce_slot);
        assert_malformed("running map task", &patched(&bytes, m, 999));
        assert_malformed("running map slot", &patched(&bytes, m + 16, 3));
        assert_malformed("running reduce task", &patched(&bytes, r, 2));
        assert_malformed("running reduce slot", &patched(&bytes, r + 16, 2));
        type Corrupt<'a> = &'a dyn Fn(&mut JobState);
        let corruptions: [(&str, Corrupt); 4] = [
            ("requeued map task", &|s| s.requeued_maps.push(999)),
            ("pending duplicate of map task", &|s| s.spec_pending.push(999)),
            ("requeued reduce task", &|s| s.requeued_reduces.push(2)),
            ("fresh maps", &|s| s.fresh_maps = s.maps_total + 1),
        ];
        for (what, corrupt) in corruptions {
            let mut bad = EngineCheckpoint::decode(&bytes).unwrap();
            corrupt(bad.run.jobs.get_mut(live).unwrap());
            // encode signs the body, so only the range checks can object
            assert_malformed(what, &bad.encode());
        }
        // one result per admitted job when collecting, none otherwise
        let mut bad = EngineCheckpoint::decode(&bytes).unwrap();
        bad.run.results.pop();
        assert_malformed("5 job results for 6 expected", &bad.encode());
        let mut bad = EngineCheckpoint::decode(&bytes).unwrap();
        bad.run.collected = false;
        assert_malformed("6 job results for 0 expected", &bad.encode());
        // job ids are `u32`s
        let mut bad = EngineCheckpoint::decode(&bytes).unwrap();
        let slots = bad.run.jobs.raw_slots().map(|s| s.cloned().map(Box::new)).collect();
        bad.run.jobs = JobTable::from_parts(u32::MAX as usize, slots);
        assert_malformed("6 jobs from id 4294967295 run past the u32 job ids", &bad.encode());
    }

    /// A map record keeps its output slot in 30 bits next to its flags, so
    /// a CRC-valid checkpoint naming an output slot the cluster does not
    /// have, or more map slots than that field can name, is malformed.
    #[test]
    fn decode_rejects_an_out_of_range_output_slot_or_map_slot_count() {
        let trace = busy_trace();
        let ckpt = SimulatorEngine::new(busy_config(), &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(100))
            .unwrap();
        let live = ckpt.run.jobs.iter().next().expect("a live job").0;
        let bytes = ckpt.encode();
        let mut bad = EngineCheckpoint::decode(&bytes).unwrap();
        // the busy config has 3 map slots
        bad.run.jobs.get_mut(live).unwrap().maps.recs[0].set_output_slot(3);
        assert_malformed("map output slot 3 is out of range (bound 3)", &bad.encode());
        // the map slot count follows the magic, version and two instants
        let at = CKPT_MAGIC.len() + 2 + 8 + 8;
        assert_eq!(bytes[at..at + 4], 3u32.to_le_bytes());
        let too_many = (MAX_MAP_SLOTS + 1) as u32;
        assert_malformed("map slots exceed", &patched(&bytes, at, too_many));
        // a count the slot flags do not match, the reduce count after it
        assert_malformed("3 dead-slot flags for 4096 map slots", &patched(&bytes, at, 4096));
        assert_malformed("2 dead-slot flags for 4096 reduce slots", &patched(&bytes, at + 4, 4096));
    }

    /// Every slot is exactly one of free, running or lost to a failed
    /// host. A CRC-valid checkpoint that books a slot twice (two running
    /// attempts, running and free, free twice), hands out a dead slot or
    /// loses track of one used to decode and double-book the slot on
    /// resume; the slot tables would have overwritten a run silently.
    #[test]
    fn decode_rejects_a_slot_booked_twice_or_dead() {
        // two maps run on slots 0 and 1 (free pops from the back of
        // [3, 2, 1, 0]); slots 3 and 2 stay free
        let mut trace = WorkloadTrace::new("ckpt", "test");
        trace.push(job(2, 0, 100, 10));
        let config = EngineConfig::new(4, 2).with_hosts(2);
        let ckpt = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(50))
            .unwrap();
        let running: Vec<u32> = ckpt.run.maps.running.occupied().map(|(s, _)| s).collect();
        assert_eq!((running.as_slice(), ckpt.run.maps.free.as_slice()), (&[0, 1][..], &[3, 2][..]));
        // no reduce runs: both reduce slots are free
        assert_eq!(ckpt.run.reduces.free, [1, 0]);
        let bytes = ckpt.encode();
        let first = encoded_at(&bytes, &ckpt.run.maps.running, 0);
        assert_malformed("map slot 1 runs two attempts", &patched(&bytes, first + 16, 1));
        type Corrupt<'a> = &'a dyn Fn(&mut EngineCheckpoint);
        let corruptions: [(&str, Corrupt); 10] = [
            ("map slot 0 is both running and free", &|c| c.run.maps.free.push(0)),
            ("map slot 2 is free twice", &|c| c.run.maps.free.push(2)),
            ("map slot 1 of a failed host runs an attempt", &|c| c.run.maps.dead[1] = true),
            ("free map slot 3 belongs to a failed host", &|c| c.run.maps.dead[3] = true),
            ("map slot 2 is neither free, running nor dead", &|c| {
                c.run.maps.free.pop();
            }),
            ("free map slot 9 is out of range", &|c| c.run.maps.free.push(9)),
            ("3 dead-slot flags for 4 map slots", &|c| {
                c.run.maps.dead.pop();
            }),
            // the reduce pool is checked as reduces, against its own count
            ("reduce slot 0 is free twice", &|c| c.run.reduces.free.push(0)),
            ("free reduce slot 1 belongs to a failed host", &|c| c.run.reduces.dead[1] = true),
            ("free reduce slot 2 is out of range (bound 2)", &|c| c.run.reduces.free.push(2)),
        ];
        for (what, corrupt) in corruptions {
            let mut bad = EngineCheckpoint::decode(&bytes).unwrap();
            corrupt(&mut bad);
            assert_malformed(what, &bad.encode());
        }
        // the host count follows the magic, version, two instants and the
        // two slot counts
        let hosts = CKPT_MAGIC.len() + 2 + 8 + 8 + 4 + 4;
        assert_malformed("2 host flags for 3 hosts", &patched(&bytes, hosts, 3));
        // the untouched bytes still decode and resume
        let ckpt = EngineCheckpoint::decode(&bytes).unwrap();
        let resumed = SimulatorEngine::resume_materialized(config, &ckpt, Box::new(TestFifo));
        assert_eq!(resumed.unwrap().try_run().unwrap().jobs[0].completion.as_millis(), 110);
    }

    #[test]
    fn decode_rejects_unordered_or_impossible_events() {
        let trace = busy_trace();
        let ckpt = SimulatorEngine::new(busy_config(), &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(300))
            .unwrap();
        let (events, next_seq, _) = ckpt.run.queue.snapshot();
        let clock = ckpt.run.clock;
        assert!(events.len() >= 2, "the busy prefix leaves events pending");
        assert!(clock > SimTime::ZERO);
        // job 0 runs, job 1 departed, and 6 jobs were admitted
        let jobs = &ckpt.run.jobs;
        assert!(jobs.get(JobId(0)).is_some_and(|s| s.active) && jobs.get(JobId(1)).is_none());
        assert_eq!(ckpt.jobs_admitted(), 6);
        let arrival = |e: &mut Vec<Event>, job: u32| {
            e[0].kind = EventKind::JobArrival;
            e[0].job = JobId(job);
        };
        let task = |e: &mut Vec<Event>, kind: EventKind, task: u32| {
            let at = e.iter().position(|x| x.kind == kind).expect("an event of the kind");
            e[at].task_index = task;
        };
        type Edit<'a> = &'a dyn Fn(&mut Vec<Event>);
        let corruptions: [(&str, Edit); 11] = [
            ("out of (time, seq) order", &|e| e.swap(0, 1)),
            ("out of (time, seq) order", &|e| e[1] = e[0]),
            ("not below", &|e| e.last_mut().unwrap().seq = next_seq),
            ("before the clock", &|e| e[0].time = SimTime::from_millis(clock.as_millis() - 1)),
            ("JobArrival event names job 9999 of 6 admitted", &|e| arrival(e, 9999)),
            ("arrival of job 1, which is retired", &|e| arrival(e, 1)),
            ("arrival of job 0, which is retired or already arrived", &|e| arrival(e, 0)),
            ("MapTaskDeparture task 9999 is out of range", &|e| {
                task(e, EventKind::MapTaskDeparture, 9999)
            }),
            ("ReduceTaskDeparture task 2 is out of range (bound 2)", &|e| {
                task(e, EventKind::ReduceTaskDeparture, 2)
            }),
            ("SpeculationDue task 9999 is out of range", &|e| {
                task(e, EventKind::SpeculationDue, 9999)
            }),
            // the first event is the departure of a running map, which
            // then never departs: its job would never finish
            ("map attempt 1 of job 3 task 2 on slot 1 has no pending departure", &|e| {
                e[0].job = JobId(1)
            }),
        ];
        for (what, edit) in corruptions {
            assert_malformed(what, &with_events(&ckpt, edit));
        }
        // an event naming a retired job is stale, which a resume ignores:
        // a straggler timer moved to retired job 1 decodes and resumes
        let stale = with_events(&ckpt, &|e| {
            let at = e.iter().position(|x| x.kind == EventKind::SpeculationDue).unwrap();
            e[at].job = JobId(1);
            e[at].task_index = 9999;
        });
        let stale = EngineCheckpoint::decode(&stale).unwrap();
        let resumed =
            SimulatorEngine::resume_materialized(busy_config(), &stale, Box::new(TestFifo));
        assert_eq!(resumed.unwrap().try_run().unwrap().jobs.len(), 6);
    }

    /// CRC-valid checkpoints that decoded at the SIMMRCKP v4 codec's
    /// first cut and then panicked on resume, or silently dropped every
    /// later policy timer, are malformed and name the broken rule of
    /// `RunState::check`.
    #[test]
    fn decode_rejects_a_state_a_resume_would_panic_on() {
        let trace = busy_trace();
        let ckpt = SimulatorEngine::new(busy_config(), &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(100))
            .unwrap();
        // jobs 2 to 5 have not arrived; hosts 1 and 3 failed at 53 and
        // 59 ms and recover at 180 and 255 ms
        let (events, _, _) = ckpt.run.queue.snapshot();
        let arrivals = events.iter().filter(|e| e.kind == EventKind::JobArrival).count();
        assert_eq!((ckpt.jobs_admitted(), arrivals), (6, 4));
        assert_eq!(ckpt.run.fault_plan.iter().map(|f| f.host.0).collect::<Vec<_>>(), [1, 3]);
        let last_arrival = |e: &mut Vec<Event>| -> usize {
            e.iter().rposition(|x| x.kind == EventKind::JobArrival).unwrap()
        };
        type Edit<'a> = &'a dyn Fn(&mut Vec<Event>);
        let corruptions: [(&str, Edit); 3] = [
            // job 5 then never arrives and never departs
            ("HostRecovery of host 0, which no fault-plan entry fails", &|e| {
                let at = last_arrival(e);
                (e[at].kind, e[at].job, e[at].task_index) = (EventKind::HostRecovery, JobId(0), 0);
            }),
            // job 4 would arrive twice
            ("job 4 has two pending arrivals", &|e| {
                let at = last_arrival(e);
                e[at].job = JobId(4);
            }),
            // host 1 would fail a second time, unplanned
            ("HostFailure of host 1 at 0.180s matches no fault-plan entry", &|e| {
                let at = e.iter().position(|x| x.kind == EventKind::HostRecovery).unwrap();
                e[at].kind = EventKind::HostFailure;
            }),
        ];
        for (what, edit) in corruptions {
            assert_malformed(what, &with_events(&ckpt, edit));
        }
        // a timer armed with no PolicyWakeup pending: a policy's later
        // timers at or after it would all be dropped
        let mut bad = EngineCheckpoint::decode(&ckpt.encode()).unwrap();
        bad.run.policy_wakeup_at = Some(SimTime::from_millis(140));
        assert_malformed(
            "policy wakeup armed at 0.140s has no pending PolicyWakeup",
            &bad.encode(),
        );
    }

    /// A run state that breaks a rule, handed to the invariant checker's
    /// resume without going through the codec, is named at resume.
    #[test]
    #[should_panic(expected = "engine invariant violated [run-state]: at resume: job 5 has not \
                               arrived and has no pending arrival")]
    fn checker_resume_names_the_broken_run_state_rule() {
        let trace = busy_trace();
        let mut ckpt = SimulatorEngine::new(busy_config(), &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(100))
            .unwrap();
        let (mut events, next_seq, pushed) = ckpt.run.queue.snapshot();
        events.retain(|e| (e.kind, e.job) != (EventKind::JobArrival, JobId(5)));
        ckpt.run.queue = EventQueue::from_snapshot(events, next_seq, pushed);
        // the busy config arms the checker
        let _ = SimulatorEngine::resume_materialized(busy_config(), &ckpt, Box::new(TestFifo));
    }

    /// The encoding of `ckpt` with its `(time, seq)`-ordered event list
    /// rewritten in place by `edit`, re-signed, so only the checks behind
    /// the checksum can object.
    fn with_events(ckpt: &EngineCheckpoint, edit: &dyn Fn(&mut Vec<Event>)) -> Vec<u8> {
        let encode = |events: &[Event]| {
            let mut out = Vec::new();
            events.iter().for_each(|e| put_event(&mut out, e));
            out
        };
        let (mut events, _, _) = ckpt.run.queue.snapshot();
        let old = encode(&events);
        let mut bytes = ckpt.encode();
        let at = (0..bytes.len() - old.len())
            .find(|&i| bytes[i..i + old.len()] == old[..])
            .expect("the event list is encoded");
        edit(&mut events);
        bytes[at..at + old.len()].copy_from_slice(&encode(&events));
        resign(bytes)
    }

    /// A FIFO that asks for a scheduling pass every 40 ms while jobs
    /// wait, so its checkpoints carry armed policy timers.
    struct WakeFifo;
    impl SchedulerPolicy for WakeFifo {
        fn name(&self) -> &str {
            "wake-fifo"
        }
        fn choose_next_map_task(&mut self, q: &crate::JobQueue) -> Option<JobId> {
            TestFifo.choose_next_map_task(q)
        }
        fn choose_next_reduce_task(&mut self, q: &crate::JobQueue) -> Option<JobId> {
            TestFifo.choose_next_reduce_task(q)
        }
        fn next_wakeup(&mut self, q: &crate::JobQueue) -> Option<SimTime> {
            (!q.is_empty()).then(|| SimTime::from_millis((q.now.as_millis() / 40 + 1) * 40))
        }
    }

    /// Applies one structural edit drawn from `rng` to `run` and names it:
    /// an event dropped, duplicated or retargeted, a counter bumped, a
    /// slot moved between the free, running and lost lists, a task
    /// record or list edited, the policy timer or a host or job flag
    /// changed.
    fn mutate(run: &mut RunState, rng: &mut SeededRng) -> String {
        let (mut events, mut next_seq, pushed) = run.queue.snapshot();
        let live: Vec<JobId> = run.jobs.iter().map(|(id, _)| id).collect();
        let clock = run.clock.as_millis();
        let what = match rng.index(11) {
            0..=3 if events.is_empty() => "nothing (no pending event)".to_string(),
            0 => format!("drop {:?}", events.remove(rng.index(events.len()))),
            1 => {
                let mut e = events[rng.index(events.len())];
                (e.seq, next_seq) = (next_seq, next_seq + 1);
                events.push(e);
                format!("duplicate {e:?}")
            }
            2 => {
                let i = rng.index(events.len());
                let before = events[i];
                let e = &mut events[i];
                match rng.index(5) {
                    0 => e.job = JobId(rng.index(run.jobs.total() + 1) as u32),
                    1 => e.task_index = rng.index(6) as u32,
                    2 => e.attempt = rng.index(4) as u32,
                    3 => e.kind = event_kind_from_tag(rng.index(9) as u8).unwrap(),
                    _ => e.time = SimTime::from_millis(clock + rng.index(300) as u64),
                }
                format!("retarget {before:?} to {e:?}")
            }
            3 if !live.is_empty() => {
                let s = run.jobs.get_mut(live[rng.index(live.len())]).unwrap();
                let task = rng.index(s.maps_total);
                let up = rng.index(2) == 0;
                let bump = |x: &mut usize| *x = if up { *x + 1 } else { x.saturating_sub(1) };
                let (field, counter) = match rng.index(5) {
                    0 => ("maps_completed", &mut s.maps_completed),
                    1 => ("fresh_maps", &mut s.fresh_maps),
                    2 => ("fresh_reduces", &mut s.fresh_reduces),
                    3 => ("reduces_completed", &mut s.reduces_completed),
                    _ => ("reduce_threshold", &mut s.reduce_threshold),
                };
                match rng.index(4) {
                    0 => s.spec_threshold += 1,
                    1 => s.maps.recs[task].launches += 1,
                    2 => run.events_processed += 1,
                    _ => bump(counter),
                }
                format!("bump {field} or another counter (up: {up}, task {task})")
            }
            4 | 5 => {
                let (kind, pool) = if rng.index(2) == 0 {
                    ("map", &mut run.maps)
                } else {
                    ("reduce", &mut run.reduces)
                };
                let running: Vec<u32> = pool.running.occupied().map(|(s, _)| s).collect();
                let slot = rng.index(pool.len()) as u32;
                match rng.index(6) {
                    0 if !pool.free.is_empty() => {
                        let s = pool.free.remove(rng.index(pool.free.len()));
                        pool.dead[s as usize] = true;
                        format!("{kind} slot {s} from free to lost")
                    }
                    1 if !running.is_empty() => {
                        let s = running[rng.index(running.len())];
                        pool.free.push(s);
                        format!("running {kind} slot {s} also free")
                    }
                    2 if !running.is_empty() => {
                        let s = running[rng.index(running.len())];
                        pool.dead[s as usize] = true;
                        format!("running {kind} slot {s} also lost")
                    }
                    3 if pool.dead[slot as usize] => {
                        pool.dead[slot as usize] = false;
                        pool.free.push(slot);
                        format!("{kind} slot {slot} from lost to free")
                    }
                    4 => {
                        pool.free.push(slot);
                        format!("{kind} slot {slot} pushed free")
                    }
                    _ => {
                        pool.dead[slot as usize] ^= true;
                        format!("{kind} slot {slot} dead flag flipped")
                    }
                }
            }
            6 if !live.is_empty() => {
                let id = live[rng.index(live.len())];
                let s = run.jobs.get_mut(id).unwrap();
                let (map, reduce) =
                    (rng.index(s.maps_total) as u32, rng.index(s.reduces_total.max(1)) as u32);
                let t = &mut s.maps.recs[map as usize];
                let edit = rng.index(7);
                match edit {
                    0 => t.set_done(!t.done()),
                    1 => t.set_speculated(!t.speculated()),
                    2 => t.set_output_slot(rng.index(run.maps.len() + 1) as u32),
                    3 => s.requeued_maps.push(map),
                    4 => s.spec_pending.push(map),
                    5 => s.requeued_reduces.push(reduce),
                    _ => s.active = !s.active,
                }
                let edit = [
                    "done flipped",
                    "speculated flipped",
                    "output slot moved",
                    "requeued",
                    "duplicate pending",
                    "reduce requeued",
                    "arrival flag flipped",
                ][edit];
                format!("job {}: map {map} / reduce {reduce} {edit}", id.0)
            }
            7 => {
                let wakeups: Vec<SimTime> = events
                    .iter()
                    .filter(|e| e.kind == EventKind::PolicyWakeup)
                    .map(|e| e.time)
                    .collect();
                run.policy_wakeup_at = match rng.index(3) {
                    0 => None,
                    1 if !wakeups.is_empty() => Some(wakeups[rng.index(wakeups.len())]),
                    _ => Some(SimTime::from_millis(clock + rng.index(200) as u64)),
                };
                format!("policy wakeup set to {:?}", run.policy_wakeup_at)
            }
            8 => {
                let host = rng.index(run.dead_hosts.len());
                run.dead_hosts[host] ^= true;
                format!("host {host} dead flag flipped")
            }
            9 => match run.results.iter_mut().rposition(|r| r.is_some()) {
                Some(i) => {
                    run.results[i] = None;
                    format!("result of job {i} dropped")
                }
                None => "nothing (no result)".to_string(),
            },
            _ => {
                run.makespan = SimTime::from_millis(run.makespan.as_millis() + 1);
                "makespan bumped".to_string()
            }
        };
        events.sort_unstable();
        run.queue = EventQueue::from_snapshot(events, next_seq, pushed);
        what
    }

    /// Structure-aware fuzzing of the run-state rules. Byte flips only
    /// reach the CRC, so each case makes one to three edits to a decoded
    /// run state (see [`mutate`]), re-encodes it, and requires either a
    /// decode error or a resume that runs to completion under the
    /// invariant checker (the busy config arms it). Fixed seed and case
    /// count.
    #[test]
    fn fuzz_run_state_mutations_decode_or_resume() {
        const CASES: usize = 300;
        let (trace, config) = (busy_trace(), busy_config());
        let mut rng = SeededRng::new(0x5113_c4ec);
        let (mut rejected, mut resumed, mut failures) = (0, 0, Vec::new());
        for at in [0u64, 40, 100, 170, 260, 350, 480] {
            let base = SimulatorEngine::new(config, &trace, Box::new(WakeFifo))
                .checkpoint_at(SimTime::from_millis(at))
                .unwrap()
                .encode();
            for case in 0..CASES {
                let mut ckpt = EngineCheckpoint::decode(&base).unwrap();
                let edits = 1 + rng.index(3);
                let what: Vec<String> =
                    (0..edits).map(|_| mutate(&mut ckpt.run, &mut rng)).collect();
                let what = what.join("; ");
                let Ok(ckpt) = EngineCheckpoint::decode(&ckpt.encode()) else {
                    rejected += 1;
                    continue;
                };
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    SimulatorEngine::resume_materialized(config, &ckpt, Box::new(WakeFifo))
                        .map(|engine| engine.try_run())
                }));
                match run {
                    Ok(Ok(Ok(_))) => resumed += 1,
                    Ok(other) => failures.push(format!("t={at} case {case} ({what}): {other:?}")),
                    Err(panic) => {
                        let msg = panic
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
                        failures.push(format!("t={at} case {case} ({what}) panicked: {msg:?}"));
                    }
                }
            }
        }
        assert!(
            failures.is_empty(),
            "{} cases decoded and then failed:\n{}",
            failures.len(),
            failures.join("\n")
        );
        // both outcomes occur: the rules reject most edits, and harmless
        // ones (a bumped launch counter, a stale event) still resume
        assert!(rejected > CASES && resumed > CASES / 4, "{rejected} rejected, {resumed} resumed");
    }

    #[test]
    fn resume_rejects_mismatched_shape() {
        let trace = busy_trace();
        let config = busy_config();
        let ckpt = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(100))
            .unwrap();
        struct OtherName;
        impl SchedulerPolicy for OtherName {
            fn name(&self) -> &str {
                "other"
            }
            fn choose_next_map_task(&mut self, _q: &crate::JobQueue) -> Option<JobId> {
                None
            }
            fn choose_next_reduce_task(&mut self, _q: &crate::JobQueue) -> Option<JobId> {
                None
            }
        }
        let err = SimulatorEngine::resume_materialized(config, &ckpt, Box::new(OtherName))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, CkptError::Mismatch(_)), "{err}");
        let err = SimulatorEngine::resume_materialized(
            EngineConfig::new(9, 9),
            &ckpt,
            Box::new(TestFifo),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, CkptError::Mismatch(_)), "{err}");
    }
}
