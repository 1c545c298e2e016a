//! Hierarchical pool-tree scheduling (extension beyond the paper).
//!
//! Hadoop's Fair/Capacity schedulers (the paper's refs. 2–3) arrange
//! tenants in *nested* pools with weights, min/max shares and min-share
//! preemption. [`HierPolicy`] implements that model on top of the
//! declarative [`PoolSpec`] tree from [`pool`](crate::pool); the
//! `capacity:` spec family is the same policy on a one-level tree
//! ([`HierPolicy::capacity`]):
//!
//! * **Routing** — jobs land in the first leaf of the policy's routing
//!   order whose routing prefix is a prefix of the job name, falling back
//!   to the last leaf. For `hier:` trees the routing order is depth-first
//!   leaf order; for capacity queues it is longest prefix first, so the
//!   listed queue order carries no routing semantics.
//! * **Slot assignment** — each free slot walks the tree from the root,
//!   picking at every level the most under-served *eligible* child:
//!   children below their min share come first (smallest `running/min`
//!   ratio), then smallest `running/weight`; ties break on listed order.
//!   A child is eligible when its subtree has schedulable work and every
//!   node on the path respects its max share. At the leaf, the
//!   earliest-arrived schedulable job wins — on a flat tree with no
//!   min/max shares this is the weighted-queue capacity scheduler.
//! * **Min-share preemption** — a pool sitting below its map min share
//!   with pending work for longer than its `preemption_timeout` triggers
//!   the engine's `map_preemptions` path: one task of the most over-share
//!   pool (largest `running − min` surplus) is killed per round — the
//!   youngest running task of that pool's youngest job, Hadoop kill
//!   semantics — until the deficit clears. Timeout 0 preempts in the same
//!   scheduling pass the pool starves in; the starvation clocks advance
//!   on simulated time via [`SchedulerPolicy::next_wakeup`], so a timeout
//!   expiring between queue events still fires on time. A kill is only
//!   taken when the simulated relaunch of the freed slot lands inside
//!   the starved subtree — a kill whose slot would bounce to a third
//!   pool would repeat at every pass forever without ever clearing the
//!   deficit.
//!
//! # Incremental share view
//!
//! Per-pool running/pending counts are *maintained*, not recomputed: the
//! engine reports every entry mutation through the
//! [`SchedulerPolicy::on_job_queued`] / [`on_entry_mutated`] /
//! [`on_job_dequeued`] hooks, and each delta walks the leaf's ancestor
//! chain in O(depth), keeping subtree sums exact between any two
//! `choose` calls. Each leaf also keeps three exact `OrderedView`s
//! keyed `(arrival, id)`, updated from the same hooks in O(log n): its
//! jobs with a schedulable map, with a schedulable reduce, and with a
//! running map. The final-leaf pick is the first key of a schedulable
//! view and the preemption victim job the last key of the running one.
//! After every settled batch the invariant checker has
//! `verify_invariants` re-aggregate the counters from the queue and
//! verify every leaf view against it, then re-derive each pick (the
//! descent over the re-aggregated counts, then a scan of the leaf) and
//! each leaf's victim job from a scan.
//!
//! [`on_entry_mutated`]: SchedulerPolicy::on_entry_mutated
//! [`on_job_dequeued`]: SchedulerPolicy::on_job_dequeued
//!
//! Determinism: choices are a pure function of queue contents plus the
//! assignment map; starvation clocks only read [`JobQueue::now`] inside
//! the sanctioned `map_preemptions` / `next_wakeup` hooks.

use crate::pool::{join_prefix, validate_pools, PoolSpec};
use crate::view::{keys_of, update_views, verify_decision, verify_views, Members, OrderedView};
use crate::window::IdWindow;
use simmr_core::codec::{put_opt_u64, put_u32, Reader};
use simmr_core::{JobEntry, JobQueue, SchedulerPolicy};
use simmr_types::{DurationMs, JobId, JobTemplate, SimTime, TaskKind};
use std::cmp::Reverse;

/// `(arrival, id)`: FIFO order within a leaf.
type LeafKey = (SimTime, JobId);

/// Whether the entry qualifies for each leaf view — schedulable map (bit
/// 0), schedulable reduce (bit 1), running map (bit 2).
fn leaf_members(e: &JobEntry) -> Members {
    e.has_schedulable_map() as Members
        | (e.has_schedulable_reduce() as Members) << 1
        | ((e.running_maps > 0) as Members) << 2
}

/// The entry's key in every leaf view, which never changes.
fn leaf_key(_view: usize, e: &JobEntry) -> LeafKey {
    (e.arrival, e.id)
}

/// Map/reduce index into per-kind share arrays.
fn ki(kind: TaskKind) -> usize {
    match kind {
        TaskKind::Map => 0,
        TaskKind::Reduce => 1,
    }
}

/// One arena node of the instantiated pool tree.
#[derive(Debug)]
struct Node {
    /// Full routing prefix (leaves) / subtree prefix (internal nodes).
    prefix: String,
    weight: f64,
    /// Min share per slot kind; 0 means none.
    min: [usize; 2],
    /// Max share per slot kind.
    max: [Option<usize>; 2],
    /// Min-share preemption timeout; `None` never preempts for this pool.
    timeout: Option<DurationMs>,
    parent: usize,
    children: Vec<usize>,
}

/// Hierarchical pool-tree scheduling policy.
#[derive(Debug)]
pub struct HierPolicy {
    /// `"hier"`, or `"capacity"` for [`HierPolicy::capacity`] trees.
    name: &'static str,
    /// Arena in depth-first order; 0 is a synthetic root, and a parent
    /// always precedes its children (aggregation sweeps in reverse).
    nodes: Vec<Node>,
    /// Leaf node indices, depth-first.
    leaves: Vec<usize>,
    /// The leaves in routing priority order: a job goes to the first
    /// whose prefix matches its name.
    routes: Vec<usize>,
    /// Active job → leaf node index, over the live job ids.
    assignment: IdWindow<usize>,
    /// When each pool dropped below its map min share (with pending
    /// work), or `None` while satisfied.
    starved_since: Vec<Option<SimTime>>,
    /// A map count moved since `starved_since` was last refreshed. The
    /// clocks' predicate reads only the map counts, so a refresh with the
    /// flag clear would change nothing and is skipped.
    map_counts_moved: bool,
    /// Maintained per-node subtree sums, indexed `[ki(kind)][node]`:
    /// running tasks and *schedulable* pending tasks (reduce pending
    /// counts 0 until the job turns reduce-eligible). Updated O(depth)
    /// per entry mutation by the engine hooks; only the invariant oracle
    /// rebuilds them from the queue.
    run: [Vec<usize>; 2],
    pend: [Vec<usize>; 2],
    /// Per-node job views in [`leaf_members`] order (empty on internal
    /// nodes): the final-leaf pick and the victim job read them instead
    /// of the queue.
    leaf_views: Vec<[OrderedView<LeafKey>; 3]>,
    /// Scratch: subtree has schedulable work and is under every max cap.
    eligible: Vec<bool>,
}

impl HierPolicy {
    /// Instantiates the policy from a validated pool forest.
    ///
    /// # Panics
    ///
    /// Panics if the tree fails [`validate_pools`] (empty, non-positive
    /// weight, min > max, ...).
    pub fn new(pools: Vec<PoolSpec>) -> Self {
        if let Err(e) = validate_pools(&pools) {
            panic!("invalid pool tree: {e}");
        }
        let mut policy = HierPolicy {
            name: "hier",
            nodes: vec![Node {
                prefix: String::new(),
                weight: 1.0,
                min: [0, 0],
                max: [None, None],
                timeout: None,
                parent: 0,
                children: Vec::new(),
            }],
            leaves: Vec::new(),
            routes: Vec::new(),
            assignment: IdWindow::default(),
            starved_since: Vec::new(),
            map_counts_moved: true,
            run: [Vec::new(), Vec::new()],
            pend: [Vec::new(), Vec::new()],
            leaf_views: Vec::new(),
            eligible: Vec::new(),
        };
        for pool in &pools {
            policy.add_subtree(pool, 0, "");
        }
        policy.routes = policy.leaves.clone();
        let n = policy.nodes.len();
        policy.starved_since = vec![None; n];
        policy.run = [vec![0; n], vec![0; n]];
        policy.pend = [vec![0; n], vec![0; n]];
        policy.leaf_views = vec![Default::default(); n];
        policy
    }

    /// The default one-level tree of bare `hier` and bare `capacity`:
    /// `prod` (weight 2) and a catch-all (weight 1).
    pub fn two_tier() -> Self {
        HierPolicy::new(vec![PoolSpec::leaf("prod").weight(2.0), PoolSpec::leaf("").weight(1.0)])
    }

    /// Capacity-scheduler queues as a one-level tree named `"capacity"`:
    /// one leaf per `(name, weight)` queue, in the given order (slot
    /// assignment breaks ratio ties toward earlier queues). A job routes
    /// to the queue with the longest name that prefixes the job name,
    /// else to the last queue; an empty name is a catch-all. Empty
    /// `queues` means the [`two_tier`](Self::two_tier) queues.
    ///
    /// # Panics
    ///
    /// Panics if a weight is not finite and positive or a name repeats.
    pub fn capacity(queues: &[(String, f64)]) -> Self {
        let mut policy = if queues.is_empty() {
            HierPolicy::two_tier()
        } else {
            HierPolicy::new(
                queues.iter().map(|(name, weight)| PoolSpec::leaf(name).weight(*weight)).collect(),
            )
        };
        policy.name = "capacity";
        // stable: of two equal-length names at most one can match a job
        let nodes = &policy.nodes;
        policy.routes.sort_by_key(|&l| Reverse(nodes[l].prefix.len()));
        policy
    }

    fn add_subtree(&mut self, pool: &PoolSpec, parent: usize, parent_prefix: &str) {
        let prefix = join_prefix(parent_prefix, &pool.name);
        let idx = self.nodes.len();
        self.nodes.push(Node {
            prefix: prefix.clone(),
            weight: pool.weight,
            min: [pool.min_maps.unwrap_or(0), pool.min_reduces.unwrap_or(0)],
            max: [pool.max_maps, pool.max_reduces],
            timeout: pool.preemption_timeout,
            parent,
            children: Vec::new(),
        });
        self.nodes[parent].children.push(idx);
        if pool.children.is_empty() {
            self.leaves.push(idx);
        } else {
            for child in &pool.children {
                self.add_subtree(child, idx, &prefix);
            }
        }
    }

    /// Leaf a job name routes to: first leaf in routing order whose
    /// prefix matches, else the last leaf.
    fn route(&self, job_name: &str) -> usize {
        self.routes
            .iter()
            .copied()
            .find(|&l| job_name.starts_with(&self.nodes[l].prefix))
            .unwrap_or(self.leaves[self.leaves.len() - 1])
    }

    /// The pool prefix a job was assigned to (for tests/diagnostics).
    pub fn pool_of(&self, id: JobId) -> Option<&str> {
        self.assignment.get(id).map(|l| self.nodes[l].prefix.as_str())
    }

    /// Leaf routing prefixes in routing (depth-first) order.
    pub fn leaf_prefixes(&self) -> Vec<&str> {
        self.leaves.iter().map(|&l| self.nodes[l].prefix.as_str()).collect()
    }

    fn entry_counts(e: &simmr_core::JobEntry, kind: TaskKind) -> (usize, usize) {
        match kind {
            TaskKind::Map => {
                (e.running_maps, if e.has_schedulable_map() { e.pending_maps } else { 0 })
            }
            TaskKind::Reduce => {
                (e.running_reduces, if e.has_schedulable_reduce() { e.pending_reduces } else { 0 })
            }
        }
    }

    /// The invariant oracle for the maintained sums: per-node running
    /// and pending counts, indexed like `run` and `pend`, re-aggregated
    /// from the whole queue (a parent always precedes its children in the
    /// arena, so one reverse sweep rolls leaves up to the root).
    fn reaggregate(&self, jobq: &JobQueue) -> ([Vec<usize>; 2], [Vec<usize>; 2]) {
        let n = self.nodes.len();
        let (mut running, mut pending) = ([vec![0; n], vec![0; n]], [vec![0; n], vec![0; n]]);
        for e in jobq.entries() {
            let Some(leaf) = self.assignment.get(e.id) else { continue };
            for kind in [TaskKind::Map, TaskKind::Reduce] {
                let (r, p) = Self::entry_counts(e, kind);
                running[ki(kind)][leaf] += r;
                pending[ki(kind)][leaf] += p;
            }
        }
        for k in 0..2 {
            for i in (1..n).rev() {
                let parent = self.nodes[i].parent;
                running[k][parent] += running[k][i];
                pending[k][parent] += pending[k][i];
            }
        }
        (running, pending)
    }

    /// Applies one entry's counter delta for slot kind `k` along the
    /// leaf's ancestor chain, root inclusive — the O(depth) hook body.
    fn apply_delta(&mut self, leaf: usize, k: usize, d_run: isize, d_pend: isize) {
        if d_run == 0 && d_pend == 0 {
            return;
        }
        if k == ki(TaskKind::Map) {
            self.map_counts_moved = true;
        }
        let mut node = leaf;
        loop {
            debug_assert!(self.run[k][node] as isize + d_run >= 0, "running underflow");
            debug_assert!(self.pend[k][node] as isize + d_pend >= 0, "pending underflow");
            self.run[k][node] = (self.run[k][node] as isize + d_run) as usize;
            self.pend[k][node] = (self.pend[k][node] as isize + d_pend) as usize;
            if node == 0 {
                break;
            }
            node = self.nodes[node].parent;
        }
    }

    /// Per-node map running/pending shares for the preemption machinery.
    fn map_shares(&self, node: usize) -> (usize, usize) {
        (self.run[0][node], self.pend[0][node])
    }

    /// The leaf a launch of slot kind `k` goes to, over per-node counts
    /// `running`/`pending`. First marks in `eligible` (scratch) each node
    /// whose subtree can accept a launch: schedulable work below it and
    /// `running < max` at every level, children before parents (reverse
    /// arena order). Then descends from the root into the most
    /// under-served eligible child at every level (min-share deficit
    /// group first, then running/weight; ties on listed order).
    fn descend(
        nodes: &[Node],
        k: usize,
        running: &[usize],
        pending: &[usize],
        eligible: &mut Vec<bool>,
    ) -> Option<usize> {
        eligible.clear();
        eligible.resize(nodes.len(), false);
        for (i, node) in nodes.iter().enumerate().rev() {
            let has_work = if node.children.is_empty() {
                pending[i] > 0
            } else {
                node.children.iter().any(|&c| eligible[c])
            };
            eligible[i] = has_work && node.max[k].is_none_or(|m| running[i] < m);
        }
        if !eligible[0] {
            return None;
        }
        let mut node = 0;
        while !nodes[node].children.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            // pass 1: children below their min share, by running/min
            for &c in &nodes[node].children {
                let min = nodes[c].min[k];
                if eligible[c] && min > 0 && running[c] < min {
                    let ratio = running[c] as f64 / min as f64;
                    if best.is_none_or(|(b, _)| ratio < b) {
                        best = Some((ratio, c));
                    }
                }
            }
            // pass 2: all eligible children, by running/weight
            if best.is_none() {
                for &c in &nodes[node].children {
                    if !eligible[c] {
                        continue;
                    }
                    let ratio = running[c] as f64 / nodes[c].weight;
                    if best.is_none_or(|(b, _)| ratio < b) {
                        best = Some((ratio, c));
                    }
                }
            }
            // an eligible internal node always has an eligible child
            node = best?.1;
        }
        Some(node)
    }

    /// The tree walk over the maintained sums: from the root, descend
    /// into the most under-served eligible child, and pick FIFO within
    /// the final leaf. `eligible` is scratch.
    fn pick(&self, kind: TaskKind, eligible: &mut Vec<bool>) -> Option<JobId> {
        let k = ki(kind);
        let leaf = Self::descend(&self.nodes, k, &self.run[k], &self.pend[k], eligible)?;
        self.leaf_views[leaf][k].first().map(|key| key.1)
    }

    /// [`Self::pick`] with the policy's own scratch buffer.
    fn choose(&mut self, kind: TaskKind) -> Option<JobId> {
        let mut eligible = std::mem::take(&mut self.eligible);
        let picked = self.pick(kind, &mut eligible);
        self.eligible = eligible;
        picked
    }

    /// The youngest job of `leaf` with a running map: its most recently
    /// launched running map is what a preemption kills.
    fn victim_job(&self, leaf: usize) -> Option<JobId> {
        self.leaf_views[leaf][2].last().map(|key| key.1)
    }

    /// Updates the per-pool starvation clocks from the current share
    /// state: a pool is starved while `running < min_maps` with pending
    /// map work in its subtree. Reads `jobq.now`, so it only runs from
    /// the time-sanctioned hooks. The maintained sums make this O(nodes)
    /// with no queue walk, and it is skipped outright unless a map count
    /// moved since the last refresh (`get_or_insert` keeps a running
    /// clock, so the skipped refresh would have changed nothing).
    fn refresh_starvation(&mut self, jobq: &JobQueue) {
        if !self.map_counts_moved {
            return;
        }
        self.map_counts_moved = false;
        let now = jobq.now;
        for i in 0..self.nodes.len() {
            let min = self.nodes[i].min[0];
            let (running, pending) = self.map_shares(i);
            if min > 0 && running < min && pending > 0 {
                self.starved_since[i].get_or_insert(now);
            } else {
                self.starved_since[i] = None;
            }
        }
    }

    /// True if `node` lies in the subtree rooted at `of`.
    fn in_subtree(&self, node: usize, of: usize) -> bool {
        let mut n = node;
        loop {
            if n == of {
                return true;
            }
            if n == 0 {
                return false;
            }
            n = self.nodes[n].parent;
        }
    }

    /// Over-share victim leaf for a preemption on behalf of
    /// `starved`: a leaf outside the starved subtree with a running map
    /// to spare, whose whole path (outside the starved pool's ancestor
    /// chain) stays strictly above its min share after losing one slot.
    /// Largest `running − min` surplus wins; ties break depth-first.
    fn victim_leaf(&self, starved: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        'leaves: for &leaf in &self.leaves {
            if self.in_subtree(leaf, starved) {
                continue;
            }
            let mut n = leaf;
            loop {
                if !self.in_subtree(starved, n) && self.map_shares(n).0 <= self.nodes[n].min[0] {
                    continue 'leaves;
                }
                if n == 0 {
                    break;
                }
                n = self.nodes[n].parent;
            }
            let surplus = self.map_shares(leaf).0 - self.nodes[leaf].min[0];
            if best.is_none_or(|(s, _)| surplus > s) {
                best = Some((surplus, leaf));
            }
        }
        best.map(|(_, leaf)| leaf)
    }
}

impl SchedulerPolicy for HierPolicy {
    fn name(&self) -> &str {
        self.name
    }

    fn on_job_arrival(
        &mut self,
        id: JobId,
        template: &JobTemplate,
        _relative_deadline: Option<DurationMs>,
        _cluster: simmr_types::ClusterSpec,
    ) {
        let leaf = self.route(&template.name);
        self.assignment.insert(id, leaf);
    }

    fn on_job_departure(&mut self, id: JobId) {
        self.assignment.remove(id);
    }

    fn on_job_queued(&mut self, entry: &JobEntry) {
        let leaf = self.assignment.get(entry.id).expect("job routed before it is queued");
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let (r, p) = Self::entry_counts(entry, kind);
            self.apply_delta(leaf, ki(kind), r as isize, p as isize);
        }
        let (absent, is) = ((entry, 0), (entry, leaf_members(entry)));
        update_views(&mut self.leaf_views[leaf], absent, is, false, leaf_key);
    }

    fn on_entry_mutated(&mut self, before: &JobEntry, after: &JobEntry) {
        let Some(leaf) = self.assignment.get(after.id) else { return };
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let k = ki(kind);
            let (r0, p0) = Self::entry_counts(before, kind);
            let (r1, p1) = Self::entry_counts(after, kind);
            self.apply_delta(leaf, k, r1 as isize - r0 as isize, p1 as isize - p0 as isize);
        }
        let (was, is) = ((before, leaf_members(before)), (after, leaf_members(after)));
        update_views(&mut self.leaf_views[leaf], was, is, false, leaf_key);
    }

    fn on_job_dequeued(&mut self, entry: &JobEntry) {
        let Some(leaf) = self.assignment.get(entry.id) else { return };
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let (r, p) = Self::entry_counts(entry, kind);
            self.apply_delta(leaf, ki(kind), -(r as isize), -(p as isize));
        }
        let (was, absent) = ((entry, leaf_members(entry)), (entry, 0));
        update_views(&mut self.leaf_views[leaf], was, absent, false, leaf_key);
    }

    fn choose_next_map_task(&mut self, _jobq: &JobQueue) -> Option<JobId> {
        self.choose(TaskKind::Map)
    }

    fn choose_next_reduce_task(&mut self, _jobq: &JobQueue) -> Option<JobId> {
        self.choose(TaskKind::Reduce)
    }

    /// One victim per round: the engine re-consults after every kill +
    /// relaunch, so the deficit pool reclaims exactly as many slots as
    /// its pending work can fill and no kill is wasted.
    fn map_preemptions(&mut self, jobq: &JobQueue, victims: &mut Vec<JobId>) {
        self.refresh_starvation(jobq);
        let now = jobq.now;
        // most-starved pool whose timeout has expired
        let mut starved: Option<(f64, usize)> = None;
        for i in 0..self.nodes.len() {
            let (Some(since), Some(timeout)) = (self.starved_since[i], self.nodes[i].timeout)
            else {
                continue;
            };
            if now.since(since) < timeout {
                continue;
            }
            let ratio = self.map_shares(i).0 as f64 / self.nodes[i].min[0] as f64;
            if starved.is_none_or(|(b, _)| ratio < b) {
                starved = Some((ratio, i));
            }
        }
        let Some((_, starved_node)) = starved else { return };
        let Some(leaf) = self.victim_leaf(starved_node) else { return };
        // Gate the kill on where the freed slot actually goes: simulate
        // the post-kill state and require the relaunch walk to land
        // inside the starved subtree. Without this, a kill whose slot
        // bounces to a third pool (the root-level weight comparison can
        // outrank a deficit buried deeper in the tree) repeats at every
        // pass forever — the killed task never completes and the deficit
        // never clears. Preemption exists to feed the starved pool, so a
        // kill that cannot do that is not taken at all.
        let k = ki(TaskKind::Map);
        let (mut sim_run, mut sim_pend) = (self.run[k].clone(), self.pend[k].clone());
        let mut n = leaf;
        loop {
            sim_run[n] -= 1;
            sim_pend[n] += 1; // the killed task requeues as pending
            if n == 0 {
                break;
            }
            n = self.nodes[n].parent;
        }
        let mut eligible = Vec::new();
        let dest = Self::descend(&self.nodes, k, &sim_run, &sim_pend, &mut eligible);
        if !dest.is_some_and(|d| self.in_subtree(d, starved_node)) {
            return;
        }
        victims.extend(self.victim_job(leaf));
    }

    /// Almost everything is derivable from the hook replay (routing,
    /// subtree counters, leaf views); the starvation clocks are not —
    /// *when* a pool dropped below its min share drives preemption timing
    /// — so they are captured, alongside an assignment fingerprint that
    /// catches a resume under a different pool tree.
    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.nodes.len() as u32);
        for since in &self.starved_since {
            put_opt_u64(&mut out, since.map(|t| t.as_millis()));
        }
        let pairs = self.assignment.live();
        put_u32(&mut out, pairs.len() as u32);
        for (job, leaf) in pairs {
            put_u32(&mut out, job);
            put_u32(&mut out, leaf as u32);
        }
        out
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(blob);
        let n_nodes = r.u32()? as usize;
        if n_nodes != self.nodes.len() {
            return Err(format!(
                "{} pool tree has {} nodes but the checkpoint was taken with {n_nodes} — \
                 was the policy built with the same spec?",
                self.name,
                self.nodes.len()
            ));
        }
        let mut starved = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            starved.push(r.opt_u64()?.map(SimTime::from_millis));
        }
        let n = r.count(8)?;
        let mut captured = Vec::with_capacity(n);
        for _ in 0..n {
            let job = r.u32()?;
            let leaf = r.u32()? as usize;
            captured.push((job, leaf));
        }
        r.finish()?;
        let rebuilt = self.assignment.live();
        if rebuilt != captured {
            return Err(format!(
                "{} pool assignments diverged from the checkpoint (rebuilt {} assignments, \
                 captured {n}) — was the policy built with the same spec?",
                self.name,
                rebuilt.len()
            ));
        }
        self.starved_since = starved;
        self.map_counts_moved = true;
        Ok(())
    }

    fn next_wakeup(&mut self, jobq: &JobQueue) -> Option<SimTime> {
        self.refresh_starvation(jobq);
        let now = jobq.now;
        let mut due: Option<SimTime> = None;
        for i in 0..self.nodes.len() {
            let (Some(since), Some(timeout)) = (self.starved_since[i], self.nodes[i].timeout)
            else {
                continue;
            };
            let at = since + timeout;
            if at > now && due.is_none_or(|d| at < d) {
                due = Some(at);
            }
        }
        due
    }

    /// Per-pool share accounting and every pick and victim, cross-checked
    /// against the queue by the engine's invariant checker after every
    /// settled event batch.
    fn verify_invariants(&self, jobq: &JobQueue) {
        // (1) routing table covers exactly the active jobs
        let assigned = self.assignment.live().len();
        if assigned != jobq.len() {
            panic!(
                "engine invariant violated [pool-routing]: {assigned} pool assignments for {} \
                 active jobs",
                jobq.len()
            );
        }
        // (2) every leaf's views hold exactly the keys of its assigned
        // active jobs
        let mut expected: Vec<Vec<[Option<LeafKey>; 3]>> = vec![Vec::new(); self.nodes.len()];
        for e in jobq.entries() {
            match self.assignment.get(e.id) {
                Some(leaf) if self.leaves.contains(&leaf) => {
                    expected[leaf].push(keys_of(e, leaf_members(e), leaf_key))
                }
                got => panic!(
                    "engine invariant violated [pool-routing]: job {} assigned to {:?}, \
                     not a leaf pool",
                    e.id, got
                ),
            }
        }
        for &leaf in &self.leaves {
            let owner = format!("{} pool {:?}", self.name, self.nodes[leaf].prefix);
            verify_views(
                &self.leaf_views[leaf],
                &expected[leaf],
                &owner,
                ["map", "reduce", "running"],
            );
        }
        // (3) maintained subtree counters match the full re-aggregation
        // oracle for both slot kinds — any missed or double-counted
        // mutation hook shows up here
        let (running, pending) = self.reaggregate(jobq);
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let k = ki(kind);
            if running[k] != self.run[k] || pending[k] != self.pend[k] {
                panic!(
                    "engine invariant violated [pool-share-accounting]: maintained {kind:?} \
                     counters run={:?} pend={:?} != oracle run={:?} pend={:?}",
                    self.run[k], self.pend[k], running[k], pending[k]
                );
            }
        }
        // (4) starvation clocks agree with freshly derived share state
        let (map_run, map_pend) = (&running[0], &pending[0]);
        for (i, node) in self.nodes.iter().enumerate() {
            let starved = node.min[0] > 0 && map_run[i] < node.min[0] && map_pend[i] > 0;
            if starved != self.starved_since[i].is_some() {
                panic!(
                    "engine invariant violated [pool-starvation-clock]: pool {:?} derived \
                     starved={starved} (running {} / min {} / pending {}) but clock is {:?}",
                    node.prefix, map_run[i], node.min[0], map_pend[i], self.starved_since[i]
                );
            }
        }
        // (5) every decision the views answer equals a naive one: the
        // descent over the re-aggregated counts, then a scan of that
        // leaf's jobs for the earliest schedulable one; per leaf, the
        // youngest job with a running map
        let mut eligible = Vec::new();
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let k = ki(kind);
            let scan = Self::descend(&self.nodes, k, &running[k], &pending[k], &mut eligible)
                .and_then(|leaf| expected[leaf].iter().filter_map(|keys| keys[k]).min());
            let pick = &format_args!("{} {kind:?} pick", self.name);
            verify_decision("policy-pick", pick, self.pick(kind, &mut eligible), scan.map(|k| k.1));
        }
        for &leaf in &self.leaves {
            let scan = expected[leaf].iter().filter_map(|keys| keys[2]).max();
            let victim =
                &format_args!("{} pool {:?} victim job", self.name, self.nodes[leaf].prefix);
            verify_decision("policy-victim", victim, self.victim_job(leaf), scan.map(|k| k.1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::parse_pool_spec;
    use simmr_core::{EngineConfig, SimulatorEngine};
    use simmr_types::{JobSpec, JobTemplate, SimTime, WorkloadTrace};

    fn named_job(name: &str, maps: usize, map_ms: u64, arrival_ms: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new(name, vec![map_ms; maps], vec![], vec![], vec![]).unwrap(),
            SimTime::from_millis(arrival_ms),
        )
    }

    fn hier(spec: &str) -> HierPolicy {
        HierPolicy::new(parse_pool_spec(spec).unwrap())
    }

    #[test]
    fn routing_matches_leaf_prefixes() {
        let p = hier("prod{etl,serving},adhoc");
        assert_eq!(p.leaf_prefixes(), vec!["prod-etl", "prod-serving", "adhoc"]);
        assert_eq!(p.route("prod-etl-0001"), p.leaves[0]);
        assert_eq!(p.route("prod-serving-x"), p.leaves[1]);
        assert_eq!(p.route("adhoc-sort"), p.leaves[2]);
        // no match falls back to the last leaf
        assert_eq!(p.route("mystery"), p.leaves[2]);
    }

    #[test]
    #[should_panic(expected = "invalid pool tree")]
    fn rejects_empty_tree() {
        HierPolicy::new(vec![]);
    }

    #[test]
    fn flat_tree_matches_capacity_schedule() {
        // a flat tree listing longer prefixes first routes like the same
        // capacity queues, so it must reproduce their schedule task for
        // task; only the routing order tells the two apart
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("prod-etl-big", 12, 1000, 0));
        trace.push(named_job("adhoc-big", 6, 700, 50));
        trace.push(named_job("prod-late", 3, 400, 900));
        let run = |policy: HierPolicy| {
            SimulatorEngine::new(EngineConfig::new(6, 6).with_timeline(), &trace, Box::new(policy))
                .run()
        };
        let queues = [("prod-etl".into(), 3.0), ("prod".into(), 2.0), ("adhoc".into(), 1.0)];
        let capacity = HierPolicy::capacity(&queues);
        assert_eq!(capacity.name(), "capacity");
        let tree = hier("prod-etl[w=3],prod[w=2],adhoc");
        assert_eq!(run(capacity), run(tree));
        // listed shortest-first, the tree routes `prod-etl-*` into `prod`;
        // the capacity queues still route it into `prod-etl`
        let tree = hier("prod[w=2],prod-etl[w=3],adhoc");
        let capacity =
            HierPolicy::capacity(&[queues[1].clone(), queues[0].clone(), queues[2].clone()]);
        assert_eq!(tree.route("prod-etl-big"), tree.leaves[0]);
        assert_eq!(capacity.route("prod-etl-big"), capacity.leaves[1]);
        assert_eq!(
            HierPolicy::capacity(&[]).leaf_prefixes(),
            HierPolicy::two_tier().leaf_prefixes()
        );
    }

    #[test]
    fn weighted_split_between_pools() {
        // same scenario as the capacity unit test: prod w=2 vs
        // adhoc w=1 on 6 slots → 4/2 split, both finish at 3 s
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("prod-big", 12, 1000, 0));
        trace.push(named_job("adhoc-big", 6, 1000, 0));
        let report = SimulatorEngine::new(
            EngineConfig::new(6, 6),
            &trace,
            Box::new(hier("prod[w=2],adhoc[w=1]")),
        )
        .run();
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(3000));
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(3000));
    }

    #[test]
    fn max_share_caps_a_subtree() {
        // adhoc capped at 2 of 6 slots: its 6 tasks take 3 rounds even
        // with prod idle after t=0 (no other work)
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("adhoc-burst", 6, 1000, 0));
        let report = SimulatorEngine::new(
            EngineConfig::new(6, 6),
            &trace,
            Box::new(hier("prod,adhoc[max=2]")),
        )
        .run();
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(3000));
    }

    #[test]
    fn min_share_preemption_restores_deficit() {
        // adhoc grabs all 4 slots at t=0; prod arrives at t=100 with a
        // min share of 3 and a 200 ms timeout → at t=300 the scheduler
        // kills 3 adhoc maps (progress lost) and prod runs 3 tasks.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("adhoc-hog", 4, 10_000, 0));
        trace.push(named_job("prod-urgent", 3, 500, 100));
        let report = SimulatorEngine::new(
            EngineConfig::new(4, 4).with_timeline().with_invariants(),
            &trace,
            Box::new(hier("prod[min=3,timeout=0.2],adhoc")),
        )
        .run();
        // prod gets its 3 slots at t=300 and finishes at t=800
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(800));
        // adhoc lost 3 tasks' progress at t=300: 1 survivor finishes at
        // 10 s, the 3 re-runs start at t=800 → done at 10.8 s
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(10_800));
    }

    #[test]
    fn timeout_zero_preempts_in_the_same_pass() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("adhoc-hog", 2, 10_000, 0));
        trace.push(named_job("prod-now", 1, 100, 50));
        let report = SimulatorEngine::new(
            EngineConfig::new(2, 2).with_invariants(),
            &trace,
            Box::new(hier("prod[min=1,timeout=0],adhoc")),
        )
        .run();
        // preempted at arrival: prod finishes at 150 ms
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(150));
    }

    #[test]
    fn no_timeout_never_preempts() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("adhoc-hog", 2, 1000, 0));
        trace.push(named_job("prod-now", 1, 100, 50));
        let report = SimulatorEngine::new(
            EngineConfig::new(2, 2).with_invariants(),
            &trace,
            Box::new(hier("prod[min=1],adhoc")),
        )
        .run();
        // min share shapes selection but without a timeout nothing is
        // killed: prod waits for a natural slot at t=1000
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(1100));
    }
}
