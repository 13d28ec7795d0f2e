//! Tenant-aware fair queueing for the admission core.
//!
//! Replaces the global single queue: every queued query is parked in a
//! [`FairQueue`] that picks the next dispatch by, in priority order,
//!
//! 1. **expired pending bounds** — any entry past its absolute deadline
//!    force-starts regardless of load (the grace/starvation/latest-start
//!    bound the scheduler attached at admission);
//! 2. **EDF over deadline-mode entries** when the cluster has headroom —
//!    earliest *latest feasible start* first, so deadline SLAs are met by
//!    construction when capacity allows;
//! 3. **deficit-weighted round robin over relaxed entries** when the
//!    cluster has headroom;
//! 4. **deficit-weighted round robin over best-of-effort entries** when the
//!    cluster is nearly idle.
//!
//! The DRR scheme is the classic one: tenants sit in a rotation per class;
//! a visit adds `weight` (the quantum) to the tenant's deficit and the
//! tenant dispatches one query per unit of deficit. A tenant submitting
//! thousands of queries therefore cannot starve a tenant submitting one —
//! each rotation lap serves every backlogged tenant in proportion to its
//! weight, not its backlog. Deficit resets when a tenant's lane drains, so
//! idle tenants do not hoard credit.
//!
//! The structure is clock-free and driver-agnostic like
//! [`crate::SchedulerPolicy`]: both drivers admit through
//! [`FairQueue::admit`]; the simulator then calls [`FairQueue::select`] in
//! a drain loop on the virtual clock, the live server calls
//! [`FairQueue::poll`] from per-query threads on the wall clock, and both
//! get identical decisions for identical inputs.

use crate::scheduler::{Admission, AdmissionMode, LoadSignal, SchedulerPolicy};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

/// Weight bounds: a tenant can be deprioritized 20x or boosted 100x, never
/// to zero (zero would starve, defeating the fairness guarantee).
pub const MIN_TENANT_WEIGHT: f64 = 0.05;
/// Upper weight clamp.
pub const MAX_TENANT_WEIGHT: f64 = 100.0;

/// One queued query, as the fair queue sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedQuery {
    pub id: u64,
    pub tenant: String,
    pub mode: AdmissionMode,
    /// Absolute force-start time: the grace/starvation bound for fixed
    /// levels, the latest feasible start for deadline mode.
    pub deadline_us: u64,
    /// Same-key best-of-effort entries may merge into one shared-scan
    /// execution (see [`FairQueue::take_batch`]).
    pub batch_key: Option<u64>,
}

/// A fresh submission as the admission step takes it.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    pub id: u64,
    pub tenant: &'a str,
    pub mode: AdmissionMode,
    /// See [`AdmissionMode::exec_estimate_us`].
    pub est_exec_us: u64,
    pub batch_key: Option<u64>,
}

/// The two classes served by deficit round robin, as indices into a lane's
/// FIFOs and the queue's rotations (and the first two of its count
/// classes; deadline entries, class 2, are served EDF).
const RELAXED: usize = 0;
const BEST_EFFORT: usize = 1;

/// One tenant's queued ids and its place in the two DRR rotations.
#[derive(Debug, Default)]
struct Lane {
    deficit: f64,
    fifos: [VecDeque<u64>; 2],
    in_rotation: [bool; 2],
}

impl Lane {
    fn is_empty(&self) -> bool {
        self.fifos.iter().all(VecDeque::is_empty)
    }
}

/// A dispatch decision from the fair queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    pub id: u64,
    /// The entry's pending bound expired — start it even without headroom.
    pub forced: bool,
}

/// The tenant-aware admission queue. Not internally synchronized — the
/// simulator owns one directly, the live server wraps one in a `Mutex`.
#[derive(Debug, Default)]
pub struct FairQueue {
    entries: HashMap<u64, QueuedQuery>,
    /// Per-tenant lanes, ordered so iteration (and thus tie-breaking and
    /// batch collection) is deterministic.
    lanes: BTreeMap<String, Lane>,
    /// Tenants with queued work of each DRR class, in visiting order.
    rotations: [VecDeque<String>; 2],
    /// Deadline-mode entries ordered by latest feasible start (EDF).
    edf: BinaryHeap<Reverse<(u64, u64)>>,
    /// Every entry ordered by its force-start time.
    expiry: BinaryHeap<Reverse<(u64, u64)>>,
    /// Per-tenant queued-entry counts by class [relaxed, besteffort,
    /// deadline] — exact (maintained on push/remove, unlike the lazily
    /// cleaned FIFOs).
    counts: BTreeMap<String, [usize; 3]>,
    /// Tenant weights; missing = 1.0.
    weights: HashMap<String, f64>,
    /// Outstanding grant not yet claimed by its query's thread (live-mode
    /// polling only; the sim claims grants synchronously).
    granted: Option<Grant>,
}

impl FairQueue {
    pub fn new() -> FairQueue {
        FairQueue::default()
    }

    /// Set a tenant's fair-share weight (clamped to
    /// [`MIN_TENANT_WEIGHT`]..=[`MAX_TENANT_WEIGHT`]).
    pub fn set_weight(&mut self, tenant: &str, weight: f64) {
        let w = if weight.is_finite() {
            weight.clamp(MIN_TENANT_WEIGHT, MAX_TENANT_WEIGHT)
        } else {
            1.0
        };
        self.weights.insert(tenant.to_string(), w);
    }

    fn weight(&self, tenant: &str) -> f64 {
        self.weights.get(tenant).copied().unwrap_or(1.0)
    }

    /// Class index into the per-tenant count array for a queued mode.
    fn class_index(mode: AdmissionMode) -> usize {
        match mode {
            AdmissionMode::Level(crate::service_level::ServiceLevel::Relaxed) => RELAXED,
            AdmissionMode::Level(_) => BEST_EFFORT,
            AdmissionMode::Deadline { .. } => 2,
        }
    }

    /// Park a queued query.
    pub fn push(&mut self, q: QueuedQuery) {
        let id = q.id;
        debug_assert!(!self.entries.contains_key(&id), "duplicate queue id {id}");
        self.expiry.push(Reverse((q.deadline_us, id)));
        let class = Self::class_index(q.mode);
        self.counts.entry(q.tenant.clone()).or_insert([0; 3])[class] += 1;
        if let AdmissionMode::Deadline { .. } = q.mode {
            self.edf.push(Reverse((q.deadline_us, id)));
        } else {
            let lane = self.lanes.entry(q.tenant.clone()).or_default();
            lane.fifos[class].push_back(id);
            if !lane.in_rotation[class] {
                lane.in_rotation[class] = true;
                self.rotations[class].push_back(q.tenant.clone());
            }
        }
        self.entries.insert(id, q);
    }

    /// Remove an entry by id (claimed grant, batch member, self-forced
    /// start, or cancellation). Heap/FIFO copies are dropped lazily.
    pub fn remove(&mut self, id: u64) -> Option<QueuedQuery> {
        let q = self.entries.remove(&id)?;
        if let Some(n) = self.counts.get_mut(&q.tenant) {
            n[Self::class_index(q.mode)] -= 1;
            if n.iter().all(|&c| c == 0) {
                self.counts.remove(&q.tenant);
            }
        }
        if let Some(g) = &self.granted {
            if g.id == id {
                self.granted = None;
            }
        }
        Some(q)
    }

    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    pub fn tenant_depth(&self, tenant: &str) -> usize {
        self.counts.get(tenant).map(|n| n.iter().sum()).unwrap_or(0)
    }

    /// Queued entries of `tenant` in the same class as `mode` — what a
    /// fresh submission must queue behind to avoid overtaking its own
    /// tenant's parked work.
    pub fn tenant_class_depth(&self, tenant: &str, mode: AdmissionMode) -> usize {
        self.counts
            .get(tenant)
            .map(|n| n[Self::class_index(mode)])
            .unwrap_or(0)
    }

    /// Queued relaxed entries across all tenants (the queue-depth gauge the
    /// coordinator's autoscaler watches).
    pub fn relaxed_depth(&self) -> usize {
        self.counts.values().map(|n| n[RELAXED]).sum()
    }

    /// The admission step, the same for the live server and the
    /// simulator: `policy` decides `r` under `load` made tenant-aware from
    /// this queue's own depths, and a query told to queue is parked here
    /// with its force-start deadline.
    pub fn admit(
        &mut self,
        policy: &SchedulerPolicy,
        load: LoadSignal,
        now_us: u64,
        r: Request,
    ) -> Admission {
        let load = LoadSignal {
            tenant_depth: self.tenant_class_depth(r.tenant, r.mode),
            ..load
        };
        let verdict = policy.admit(r.mode, load, now_us, r.est_exec_us);
        if let Admission::Queue { deadline_us } = verdict {
            self.push(QueuedQuery {
                id: r.id,
                tenant: r.tenant.to_string(),
                mode: r.mode,
                deadline_us,
                batch_key: r.batch_key,
            });
        }
        verdict
    }

    /// Pick the next dispatch under `load` at `now_us`, removing it from the
    /// queue. Call in a loop (re-reading load) to drain every eligible
    /// entry; `None` means nothing further may start right now.
    pub fn select(&mut self, load: LoadSignal, now_us: u64) -> Option<Grant> {
        // 1. Expired pending bounds force-start regardless of load.
        while let Some(&Reverse((deadline, id))) = self.expiry.peek() {
            if deadline > now_us {
                break;
            }
            self.expiry.pop();
            if self.entries.contains_key(&id) {
                self.remove(id);
                return Some(Grant { id, forced: true });
            }
        }
        // 2. Deadline-mode work on headroom, earliest latest-start first.
        if !load.overloaded {
            while let Some(&Reverse((_, id))) = self.edf.peek() {
                self.edf.pop();
                if self.entries.contains_key(&id) {
                    self.remove(id);
                    return Some(Grant { id, forced: false });
                }
            }
        }
        // 3./4. DRR per class, gated by the class's headroom condition.
        if !load.overloaded {
            if let Some(grant) = self.drr(RELAXED) {
                return Some(grant);
            }
        }
        if load.nearly_idle {
            if let Some(grant) = self.drr(BEST_EFFORT) {
                return Some(grant);
            }
        }
        None
    }

    /// One deficit-round-robin step over `class`'s rotation: visit tenants
    /// until one has enough deficit to dispatch, or the whole rotation has
    /// been visited once without a dispatch (then everyone gained a quantum
    /// and the next call will dispatch).
    fn drr(&mut self, class: usize) -> Option<Grant> {
        // Two laps bound the spin: the first lap tops every visited tenant
        // up by its quantum, so within one more lap someone dispatches (any
        // weight >= MIN_TENANT_WEIGHT reaches 1.0 within 1/MIN quanta; the
        // deficit persists across calls, so laps are amortized).
        for _ in 0..self.rotations[class].len().saturating_mul(2) {
            let tenant = self.rotations[class].pop_front()?;
            let weight = self.weight(&tenant);
            let Some(lane) = self.lanes.get_mut(&tenant) else {
                continue;
            };
            // Drop ids whose entries were removed out-of-band (batched,
            // cancelled, force-started via the expiry heap).
            let fifo = &mut lane.fifos[class];
            while let Some(&front) = fifo.front() {
                if self.entries.contains_key(&front) {
                    break;
                }
                fifo.pop_front();
            }
            if fifo.is_empty() {
                // Lane drained for this class: leave the rotation and reset
                // credit so an idle tenant cannot hoard it.
                lane.in_rotation[class] = false;
                if lane.is_empty() {
                    lane.deficit = 0.0;
                    if !lane.in_rotation.contains(&true) {
                        self.lanes.remove(&tenant);
                    }
                }
                continue;
            }
            // Top up by one quantum only when the tenant lacks credit for a
            // dispatch — a tenant kept at the front to spend leftover credit
            // (weight > 1) must not re-earn its quantum on the revisit.
            if lane.deficit < 1.0 {
                lane.deficit += weight;
            }
            if lane.deficit >= 1.0 {
                lane.deficit -= 1.0;
                let fifo = &mut lane.fifos[class];
                let id = fifo.pop_front().expect("checked non-empty");
                // Enough credit left for another dispatch: stay at the
                // front so a high-weight tenant can drain its credit before
                // the rotation moves on. Otherwise go to the back.
                if lane.deficit >= 1.0 && !fifo.is_empty() {
                    self.rotations[class].push_front(tenant);
                } else {
                    self.rotations[class].push_back(tenant);
                }
                self.remove(id);
                return Some(Grant { id, forced: false });
            }
            self.rotations[class].push_back(tenant);
        }
        None
    }

    /// Live-mode poll from a queued query's own thread: claim an
    /// outstanding grant for `id`, self-force at the entry's own pending
    /// bound, or run one selection and stash the grant for its owner.
    /// Grants are issued one at a time so a slow winner cannot pile up
    /// phantom dispatches. `None` means keep waiting.
    pub fn poll(&mut self, load: LoadSignal, now_us: u64, id: u64) -> Option<Grant> {
        if self.granted.as_ref().is_some_and(|g| g.id == id) {
            return self.granted.take();
        }
        let Some(entry) = self.entries.get(&id) else {
            // Already granted-and-claimed or removed; treat as dispatch so
            // the caller makes progress rather than spinning forever.
            return Some(Grant { id, forced: false });
        };
        // The entry's own pending bound expired: start regardless of grants.
        if now_us >= entry.deadline_us {
            self.remove(id);
            return Some(Grant { id, forced: true });
        }
        if self.granted.is_none() {
            let grant = self.select(load, now_us)?;
            if grant.id == id {
                return Some(grant);
            }
            self.granted = Some(grant);
        }
        None
    }

    /// Collect up to `limit` further best-of-effort entries sharing
    /// `batch_key`, removing them from the queue — the members that ride
    /// along with a dispatching carrier in one shared-scan execution.
    /// Tenant-ordered then FIFO within tenant, so batch composition is
    /// deterministic.
    pub fn take_batch(&mut self, batch_key: u64, limit: usize) -> Vec<QueuedQuery> {
        let mut ids = Vec::new();
        for (_, lane) in self.lanes.iter() {
            for &id in &lane.fifos[BEST_EFFORT] {
                if ids.len() >= limit {
                    break;
                }
                if let Some(q) = self.entries.get(&id) {
                    if q.batch_key == Some(batch_key) {
                        ids.push(id);
                    }
                }
            }
        }
        ids.into_iter().filter_map(|id| self.remove(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service_level::ServiceLevel;

    const HEADROOM: LoadSignal = LoadSignal {
        overloaded: false,
        nearly_idle: true,
        tenant_depth: 0,
    };
    const BUSY: LoadSignal = LoadSignal {
        overloaded: true,
        nearly_idle: false,
        tenant_depth: 0,
    };

    fn q(id: u64, tenant: &str, level: ServiceLevel, deadline_us: u64) -> QueuedQuery {
        QueuedQuery {
            id,
            tenant: tenant.to_string(),
            mode: AdmissionMode::Level(level),
            deadline_us,
            batch_key: None,
        }
    }

    fn dq(id: u64, tenant: &str, latest_start_us: u64) -> QueuedQuery {
        QueuedQuery {
            id,
            tenant: tenant.to_string(),
            mode: AdmissionMode::Deadline {
                target_us: 60_000_000,
            },
            deadline_us: latest_start_us,
            batch_key: None,
        }
    }

    #[test]
    fn single_tenant_is_fifo() {
        let mut fq = FairQueue::new();
        for id in 0..5 {
            fq.push(q(id, "t0", ServiceLevel::Relaxed, 1_000_000));
        }
        let order: Vec<u64> = std::iter::from_fn(|| fq.select(HEADROOM, 0).map(|g| g.id)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(fq.depth(), 0);
    }

    #[test]
    fn heavy_tenant_cannot_starve_light_tenant() {
        let mut fq = FairQueue::new();
        // Adversary parks 100 queries before the light tenant's one.
        for id in 0..100 {
            fq.push(q(id, "adversary", ServiceLevel::Relaxed, u64::MAX));
        }
        fq.push(q(100, "light", ServiceLevel::Relaxed, u64::MAX));
        let order: Vec<u64> = std::iter::from_fn(|| fq.select(HEADROOM, 0).map(|g| g.id)).collect();
        let pos = order.iter().position(|&id| id == 100).unwrap();
        // One rotation lap serves both tenants: the light query dispatches
        // second, not 101st.
        assert!(pos <= 2, "light tenant waited {pos} dispatches");
        assert_eq!(order.len(), 101);
    }

    #[test]
    fn weights_bias_the_share() {
        let mut fq = FairQueue::new();
        fq.set_weight("paid", 2.0);
        fq.set_weight("free", 1.0);
        for id in 0..40 {
            let tenant = if id % 2 == 0 { "paid" } else { "free" };
            fq.push(q(id, tenant, ServiceLevel::Relaxed, u64::MAX));
        }
        let first12: Vec<u64> = (0..12)
            .filter_map(|_| fq.select(HEADROOM, 0).map(|g| g.id))
            .collect();
        let paid = first12.iter().filter(|id| *id % 2 == 0).count();
        // Weight 2 vs 1 → roughly two thirds of early dispatches.
        assert!(paid >= 7, "paid got {paid}/12");
        // Everything still drains — no starvation either way.
        let mut rest = 12;
        while fq.select(HEADROOM, 0).is_some() {
            rest += 1;
        }
        assert_eq!(rest, 40);
    }

    #[test]
    fn expired_entries_force_start_even_under_load() {
        let mut fq = FairQueue::new();
        fq.push(q(1, "t", ServiceLevel::Relaxed, 500));
        fq.push(q(2, "t", ServiceLevel::BestEffort, 900));
        assert_eq!(fq.select(BUSY, 499), None);
        assert_eq!(
            fq.select(BUSY, 500),
            Some(Grant {
                id: 1,
                forced: true
            })
        );
        assert_eq!(fq.select(BUSY, 899), None);
        assert_eq!(
            fq.select(BUSY, 1000),
            Some(Grant {
                id: 2,
                forced: true
            })
        );
    }

    #[test]
    fn deadline_entries_dispatch_edf_before_relaxed() {
        let mut fq = FairQueue::new();
        fq.push(q(1, "t", ServiceLevel::Relaxed, u64::MAX));
        fq.push(dq(2, "t", 9_000));
        fq.push(dq(3, "t", 4_000));
        let order: Vec<u64> = std::iter::from_fn(|| fq.select(HEADROOM, 0).map(|g| g.id)).collect();
        // Earliest latest-start first, relaxed after deadline work.
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn besteffort_waits_for_idle() {
        let mut fq = FairQueue::new();
        fq.push(q(1, "t", ServiceLevel::BestEffort, u64::MAX));
        let steady = LoadSignal::basic(false, false);
        assert_eq!(fq.select(steady, 0), None);
        assert!(fq.select(HEADROOM, 0).is_some());
    }

    #[test]
    fn take_batch_collects_same_key_members_deterministically() {
        let mut fq = FairQueue::new();
        for (id, tenant) in [(1, "b"), (2, "a"), (3, "a"), (4, "c")] {
            let mut entry = q(id, tenant, ServiceLevel::BestEffort, u64::MAX);
            entry.batch_key = Some(7);
            fq.push(entry);
        }
        let mut other = q(9, "a", ServiceLevel::BestEffort, u64::MAX);
        other.batch_key = Some(8);
        fq.push(other);
        let members = fq.take_batch(7, 3);
        let ids: Vec<u64> = members.iter().map(|m| m.id).collect();
        // Tenant-ordered (a, b, c), FIFO within tenant, limited to 3.
        assert_eq!(ids, vec![2, 3, 1]);
        assert_eq!(fq.depth(), 2);
        // The stale FIFO copies of batched ids are skipped on selection.
        let order: Vec<u64> = std::iter::from_fn(|| fq.select(HEADROOM, 0).map(|g| g.id)).collect();
        assert_eq!(order, vec![9, 4]);
    }

    #[test]
    fn poll_grants_one_at_a_time_and_self_forces() {
        let started = |id, forced| Some(Grant { id, forced });
        let mut fq = FairQueue::new();
        fq.push(q(1, "t", ServiceLevel::Relaxed, 10_000));
        fq.push(q(2, "t", ServiceLevel::Relaxed, 20_000));
        // Query 2 polls first under headroom: the selection grants query 1,
        // so 2 keeps waiting while the grant is outstanding.
        assert_eq!(fq.poll(HEADROOM, 0, 2), None);
        assert_eq!(fq.poll(HEADROOM, 0, 1), started(1, false));
        assert_eq!(fq.poll(HEADROOM, 0, 2), started(2, false));
        // A queued entry whose own bound expires self-forces under load.
        fq.push(q(3, "t", ServiceLevel::Relaxed, 30_000));
        assert_eq!(fq.poll(BUSY, 29_999, 3), None);
        assert_eq!(fq.poll(BUSY, 30_000, 3), started(3, true));
        assert_eq!(fq.depth(), 0);
        // An entry whose bound passes while another entry's grant is
        // outstanding still force-starts: the grant does not hold it back.
        fq.push(q(4, "t", ServiceLevel::Relaxed, 40_000));
        fq.push(q(5, "t", ServiceLevel::Relaxed, 50_000));
        assert_eq!(fq.poll(HEADROOM, 39_000, 5), None, "4 is granted");
        assert_eq!(fq.poll(BUSY, 50_000, 5), started(5, true));
        assert_eq!(fq.poll(BUSY, 50_000, 4), started(4, false));
        assert_eq!(fq.depth(), 0);
    }

    #[test]
    fn admit_parks_behind_the_tenants_own_queued_work() {
        let policy = SchedulerPolicy::default();
        let mut fq = FairQueue::new();
        let relaxed = |id, tenant| Request {
            id,
            tenant,
            mode: ServiceLevel::Relaxed.into(),
            est_exec_us: 0,
            batch_key: None,
        };
        let grace = policy.grace.as_micros();
        assert_eq!(
            fq.admit(&policy, BUSY, 7, relaxed(1, "a")),
            Admission::Queue {
                deadline_us: 7 + grace
            }
        );
        assert_eq!(fq.entries[&1].deadline_us, 7 + grace);
        // Headroom now, but tenant a has a relaxed query parked: a fresh one
        // queues behind it; tenant b's dispatches.
        assert!(matches!(
            fq.admit(&policy, HEADROOM, 8, relaxed(2, "a")),
            Admission::Queue { .. }
        ));
        assert_eq!(
            fq.admit(&policy, HEADROOM, 8, relaxed(3, "b")),
            Admission::DispatchNow
        );
        assert_eq!(fq.depth(), 2);
    }

    #[test]
    fn selection_is_deterministic() {
        let run = || {
            let mut fq = FairQueue::new();
            fq.set_weight("b", 2.0);
            for id in 0..60 {
                let tenant = ["a", "b", "c"][(id % 3) as usize];
                let level = if id % 4 == 0 {
                    ServiceLevel::BestEffort
                } else {
                    ServiceLevel::Relaxed
                };
                fq.push(q(id, tenant, level, 1_000_000 + id));
            }
            std::iter::from_fn(|| fq.select(HEADROOM, 0).map(|g| g.id)).collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }
}
