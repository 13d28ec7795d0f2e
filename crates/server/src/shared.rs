//! Shared-work layer in front of the [`TurboEngine`]: single-flight
//! coalescing of identical in-flight queries and a bounded result cache for
//! exact repeats.
//!
//! The hard billing invariant: **sharing never changes any user's rows,
//! their order, or their billed bytes.** A served-from-shared-work query
//! returns a bit-identical copy of the leader's result batch, and is billed
//! the leader's `bytes_scanned`: a query bills the column chunks its scans
//! read, so executing alone it would have billed exactly that. Who pays the
//! provider is defined once: the *leader* (the query that actually
//! executes) carries the full resource cost; followers carry zero — the
//! ledger then reconciles per tenant with no double-counted provider spend.
//!
//! Failures are never cached and never shared: a follower whose leader
//! failed falls back to executing individually. Sharing defaults to
//! **off**; the server opts in per instance.

use parking_lot::{Condvar, Mutex};
use pixels_common::Result;
use pixels_obs::TraceCtx;
use pixels_turbo::{CostBreakdown, ExchangeStats, ExecOutcome, TurboEngine};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shared-work knobs. Disabled by default: repeats then hit only the
/// engine's footer cache, exactly the pre-sharing behaviour.
#[derive(Debug, Clone, Copy)]
pub struct SharingConfig {
    pub enabled: bool,
    /// Bounded result-cache capacity (entries, LRU).
    pub cache_entries: usize,
}

impl Default for SharingConfig {
    fn default() -> Self {
        SharingConfig {
            enabled: false,
            cache_entries: 64,
        }
    }
}

/// How a query was served by the shared-work layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareKind {
    /// Ran on the engine itself (leader of a flight, sharing disabled, or
    /// fallback after a failed leader).
    Executed,
    /// Served from the bounded result cache (exact repeat).
    CacheHit,
    /// Waited on an identical in-flight query and took its result.
    Coalesced,
}

impl ShareKind {
    pub fn name(self) -> &'static str {
        match self {
            ShareKind::Executed => "executed",
            ShareKind::CacheHit => "cache_hit",
            ShareKind::Coalesced => "coalesced",
        }
    }
}

type Key = (String, String);

enum FlightState {
    Running,
    /// Leader finished: its outcome on success, `None` on failure.
    /// Boxed: an `ExecOutcome` is large and the `Running` variant is empty.
    Done(Option<Box<ExecOutcome>>),
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

struct Cache {
    map: HashMap<Key, ExecOutcome>,
    /// Recency order, least-recent first.
    order: VecDeque<Key>,
}

impl Cache {
    fn touch(&mut self, key: &Key) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos).unwrap();
            self.order.push_back(k);
        }
    }

    fn insert(&mut self, key: Key, outcome: ExecOutcome, cap: usize) {
        if cap == 0 {
            return;
        }
        if self.map.insert(key.clone(), outcome).is_none() {
            self.order.push_back(key.clone());
        }
        self.touch(&key);
        while self.map.len() > cap {
            if let Some(evict) = self.order.pop_front() {
                self.map.remove(&evict);
            } else {
                break;
            }
        }
    }
}

/// The shared-work front: one per server, wrapped around every engine call.
pub struct SharedWork {
    cfg: SharingConfig,
    cache: Mutex<Cache>,
    flights: Mutex<HashMap<Key, Arc<Flight>>>,
    /// Per-db invalidation epoch, bumped by [`SharedWork::invalidate_db`].
    /// A leader snapshots its db's epoch before executing and publishes
    /// (to followers and the result cache) only if the epoch is unchanged
    /// at completion — a mutation landing mid-flight kills the
    /// pre-mutation result instead of letting it outlive the data it was
    /// computed from. Lock order: `epochs` before `cache`.
    epochs: Mutex<HashMap<String, u64>>,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    executed: AtomicU64,
}

impl SharedWork {
    pub fn new(cfg: SharingConfig) -> SharedWork {
        SharedWork {
            cfg,
            cache: Mutex::new(Cache {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            flights: Mutex::new(HashMap::new()),
            epochs: Mutex::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &SharingConfig {
        &self.cfg
    }

    /// (cache hits, coalesced, executed) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.coalesced.load(Ordering::Relaxed),
            self.executed.load(Ordering::Relaxed),
        )
    }

    /// Drop every cached result for `db` and bump its invalidation epoch.
    /// Called on any mutation to the database (the materialized-view
    /// invalidation rule): a cached result must never outlive the data it
    /// was computed from — the epoch bump extends that rule to leaders
    /// still in flight, whose pre-mutation outcome must not be published
    /// after this call.
    pub fn invalidate_db(&self, db: &str) {
        // Hold the epoch lock across the cache purge so a completing
        // leader cannot slip a stale result in between the bump and the
        // purge.
        let mut epochs = self.epochs.lock();
        *epochs.entry(db.to_string()).or_insert(0) += 1;
        let mut cache = self.cache.lock();
        cache.map.retain(|k, _| k.0 != db);
        cache.order.retain(|k| {
            // retain order entries whose key survived
            k.0 != db
        });
    }

    /// Current invalidation epoch of `db`.
    fn db_epoch(&self, db: &str) -> u64 {
        self.epochs.lock().get(db).copied().unwrap_or(0)
    }

    /// Execute `sql` through the shared-work layer. Returns the outcome and
    /// how it was served. The follower view of a shared outcome carries the
    /// leader's result batch verbatim (same rows, same order), warm-repeat
    /// billed bytes, and zero provider cost.
    pub fn execute(
        &self,
        engine: &TurboEngine,
        db: &str,
        sql: &str,
        cf_enabled: bool,
        trace: TraceCtx,
        slot_wait_limit: Option<Duration>,
    ) -> (Result<ExecOutcome>, ShareKind) {
        if !self.cfg.enabled {
            self.executed.fetch_add(1, Ordering::Relaxed);
            return (
                engine.execute_sql_scheduled(db, sql, cf_enabled, trace, slot_wait_limit),
                ShareKind::Executed,
            );
        }
        let key: Key = (db.to_string(), normalize_sql(sql));
        // Exact repeat: serve from the result cache.
        {
            let mut cache = self.cache.lock();
            if let Some(hit) = cache.map.get(&key).cloned() {
                cache.touch(&key);
                drop(cache);
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return (Ok(follower_view(&hit)), ShareKind::CacheHit);
            }
        }
        // Single flight: the first submitter of a key becomes the leader;
        // identical queries arriving while it runs wait for its outcome.
        let (flight, leader) = {
            let mut flights = self.flights.lock();
            match flights.get(&key) {
                Some(f) => (f.clone(), false),
                None => {
                    let f = Arc::new(Flight {
                        state: Mutex::new(FlightState::Running),
                        cv: Condvar::new(),
                    });
                    flights.insert(key.clone(), f.clone());
                    (f, true)
                }
            }
        };
        if !leader {
            let mut state = flight.state.lock();
            loop {
                match &*state {
                    FlightState::Running => flight.cv.wait(&mut state),
                    FlightState::Done(Some(out)) => {
                        let view = follower_view(out);
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        return (Ok(view), ShareKind::Coalesced);
                    }
                    FlightState::Done(None) => {
                        // Leader failed: never share a failure — run alone.
                        drop(state);
                        self.executed.fetch_add(1, Ordering::Relaxed);
                        return (
                            engine.execute_sql_scheduled(
                                db,
                                sql,
                                cf_enabled,
                                trace,
                                slot_wait_limit,
                            ),
                            ShareKind::Executed,
                        );
                    }
                }
            }
        }
        // Snapshot the db's invalidation epoch before executing: a mutation
        // landing while the leader runs makes its outcome unpublishable.
        let epoch = self.db_epoch(db);
        let outcome = engine.execute_sql_scheduled(db, sql, cf_enabled, trace, slot_wait_limit);
        self.finish_flight(&flight, db, &key, &outcome, epoch);
        self.flights.lock().remove(&key);
        self.executed.fetch_add(1, Ordering::Relaxed);
        (outcome, ShareKind::Executed)
    }

    /// The leader's completion step: decide freshness against `db`'s
    /// invalidation epoch snapshotted at flight start, publish to waiting
    /// followers — the outcome if fresh, `None` ("re-execute yourself") if
    /// a mutation invalidated the db mid-flight — and insert into the
    /// result cache only when fresh. All under the epoch lock, so an
    /// `invalidate_db` racing this step either sees the insert (and purges
    /// it) or forces the skip; a stale result can never survive. Returns
    /// whether the outcome was published. Failures are never published
    /// regardless of freshness.
    fn finish_flight(
        &self,
        flight: &Flight,
        db: &str,
        key: &Key,
        outcome: &Result<ExecOutcome>,
        epoch_at_start: u64,
    ) -> bool {
        let epochs = self.epochs.lock();
        let fresh = epochs.get(db).copied().unwrap_or(0) == epoch_at_start;
        {
            let mut state = flight.state.lock();
            *state = FlightState::Done(if fresh {
                outcome.as_ref().ok().cloned().map(Box::new)
            } else {
                None
            });
        }
        flight.cv.notify_all();
        if fresh {
            if let Ok(out) = outcome {
                self.cache
                    .lock()
                    .insert(key.clone(), out.clone(), self.cfg.cache_entries);
            }
        }
        fresh
    }

    /// Set `pixels_shared_work_total{kind}` to the layer's counters.
    pub fn export(&self, registry: &pixels_obs::MetricsRegistry) {
        let (hits, coalesced, executed) = self.stats();
        for (kind, total) in [
            (ShareKind::CacheHit, hits),
            (ShareKind::Coalesced, coalesced),
            (ShareKind::Executed, executed),
        ] {
            registry
                .counter_with(
                    "pixels_shared_work_total",
                    "Queries served by the shared-work layer, by kind",
                    &[("kind", kind.name())],
                )
                .advance_to(total);
        }
    }
}

/// A shared result as billed to a follower: identical rows in identical
/// order, the leader's billed bytes, zero provider cost (the leader paid),
/// and no execution-side decisions or retries of its own.
fn follower_view(leader: &ExecOutcome) -> ExecOutcome {
    let mut out = leader.clone();
    out.pending = Duration::ZERO;
    out.execution = Duration::ZERO;
    out.resource_cost = CostBreakdown::default();
    out.provider_cf_dollars = 0.0;
    out.provider_shuffle_dollars = 0.0;
    out.exchange = ExchangeStats::default();
    out.used_cf = false;
    out.retries = 0;
    out.decisions = Vec::new();
    out
}

/// Normalize a SQL text for shared-work keying: collapse runs of whitespace
/// to single spaces, trim, and drop a trailing semicolon. Two submissions
/// with the same normalized text are "identical" for single-flight and
/// result-cache purposes. Quote-aware: text inside `'...'` string literals
/// and `"..."` quoted identifiers is preserved verbatim (whitespace
/// included), so `WHERE c = 'a  b'` and `WHERE c = 'a b'` — semantically
/// different queries — never collapse onto one key. Deliberately
/// conservative otherwise — no case folding, since identifiers and string
/// literals are case-sensitive.
fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut last_space = true;
    // The open quote character while inside a literal/quoted identifier.
    // SQL's doubled-quote escape ('' / "") needs no special case: the first
    // quote closes and the second immediately reopens, and both paths copy
    // the characters verbatim.
    let mut quote: Option<char> = None;
    for ch in sql.chars() {
        if let Some(q) = quote {
            out.push(ch);
            if ch == q {
                quote = None;
            }
            last_space = false;
        } else if ch == '\'' || ch == '"' {
            quote = Some(ch);
            out.push(ch);
            last_space = false;
        } else if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.push(ch);
            last_space = false;
        }
    }
    // Only trim when the text ends outside a quote — a malformed query that
    // ends inside an unterminated literal keeps its tail verbatim.
    if quote.is_none() {
        while out.ends_with(' ') || out.ends_with(';') {
            out.pop();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixels_catalog::Catalog;
    use pixels_storage::InMemoryObjectStore;
    use pixels_turbo::EngineConfig;
    use pixels_workload::{load_tpch, TpchConfig};

    fn engine() -> Arc<TurboEngine> {
        let catalog = Catalog::shared();
        let store = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            store.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.0005,
                seed: 3,
                row_group_rows: 512,
                files_per_table: 1,
            },
        )
        .unwrap();
        Arc::new(TurboEngine::new(
            catalog,
            store,
            EngineConfig {
                vm_slots: 2,
                ..EngineConfig::default()
            },
        ))
    }

    fn enabled() -> SharedWork {
        SharedWork::new(SharingConfig {
            enabled: true,
            cache_entries: 8,
        })
    }

    #[test]
    fn cache_hit_returns_identical_rows_and_warm_bytes() {
        let e = engine();
        let sw = enabled();
        let sql = "SELECT o_orderkey FROM orders ORDER BY o_orderkey";
        let (first, k1) = sw.execute(&e, "tpch", sql, false, TraceCtx::disabled(), None);
        let first = first.unwrap();
        assert_eq!(k1, ShareKind::Executed);
        let (second, k2) = sw.execute(&e, "tpch", sql, false, TraceCtx::disabled(), None);
        let second = second.unwrap();
        assert_eq!(k2, ShareKind::CacheHit);
        // Bit-identical rows in identical order.
        assert_eq!(second.batch, first.batch);
        // Billed exactly the leader's bytes.
        assert!(first.bytes_scanned > 0);
        assert_eq!(second.bytes_scanned, first.bytes_scanned);
        assert_eq!(second.metrics, first.metrics);
        // The follower never pays the provider.
        assert_eq!(second.resource_cost.total(), 0.0);
        assert_eq!(second.provider_cf_dollars, 0.0);
    }

    #[test]
    fn cached_bill_matches_a_solo_warm_repeat() {
        // The invariant the differential test scales up: the leader, its
        // follower and a solo cold run and warm repeat all bill one amount.
        let sql = "SELECT COUNT(*) FROM lineitem";
        let solo_engine = engine();
        let cold = solo_engine
            .execute_sql("tpch", sql, false)
            .unwrap()
            .bytes_scanned;
        let warm = solo_engine
            .execute_sql("tpch", sql, false)
            .unwrap()
            .bytes_scanned;
        assert_eq!(cold, warm);
        let shared_engine = engine();
        let sw = enabled();
        let (leader, _) = sw.execute(
            &shared_engine,
            "tpch",
            sql,
            false,
            TraceCtx::disabled(),
            None,
        );
        let (hit, kind) = sw.execute(
            &shared_engine,
            "tpch",
            sql,
            false,
            TraceCtx::disabled(),
            None,
        );
        assert_eq!(kind, ShareKind::CacheHit);
        assert_eq!(leader.unwrap().bytes_scanned, warm);
        assert_eq!(hit.unwrap().bytes_scanned, warm);
    }

    #[test]
    fn whitespace_variants_share_one_entry() {
        let e = engine();
        let sw = enabled();
        let (a, _) = sw.execute(
            &e,
            "tpch",
            "SELECT COUNT(*) FROM region",
            false,
            TraceCtx::disabled(),
            None,
        );
        let (b, kind) = sw.execute(
            &e,
            "tpch",
            "  SELECT   COUNT(*)\n FROM region ;",
            false,
            TraceCtx::disabled(),
            None,
        );
        assert_eq!(kind, ShareKind::CacheHit);
        assert_eq!(b.unwrap().batch, a.unwrap().batch);
    }

    #[test]
    fn concurrent_identical_queries_coalesce_to_one_execution() {
        let e = engine();
        let sw = Arc::new(enabled());
        let sql = "SELECT COUNT(*) FROM lineitem";
        let mut handles = Vec::new();
        for _ in 0..4 {
            let e = e.clone();
            let sw = sw.clone();
            handles.push(std::thread::spawn(move || {
                sw.execute(&e, "tpch", sql, false, TraceCtx::disabled(), None)
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let batches: Vec<_> = results
            .iter()
            .map(|(r, _)| r.as_ref().unwrap().batch.clone())
            .collect();
        for b in &batches[1..] {
            assert_eq!(*b, batches[0], "every sharer sees identical rows");
        }
        let executed = results
            .iter()
            .filter(|(_, k)| *k == ShareKind::Executed)
            .count();
        assert_eq!(executed, 1, "exactly one leader executes: {results:?}");
        let (hits, coalesced, ran) = sw.stats();
        assert_eq!(ran, 1);
        assert_eq!(hits + coalesced, 3);
    }

    #[test]
    fn failures_are_never_cached_or_shared() {
        let e = engine();
        let sw = enabled();
        for _ in 0..2 {
            let (r, kind) = sw.execute(
                &e,
                "tpch",
                "SELECT zap FROM orders",
                false,
                TraceCtx::disabled(),
                None,
            );
            assert!(r.is_err());
            assert_eq!(kind, ShareKind::Executed, "failures always re-execute");
        }
        assert_eq!(sw.stats().0, 0, "no cache hits off a failure");
    }

    #[test]
    fn invalidation_forces_reexecution() {
        let e = engine();
        let sw = enabled();
        let sql = "SELECT COUNT(*) FROM nation";
        sw.execute(&e, "tpch", sql, false, TraceCtx::disabled(), None)
            .0
            .unwrap();
        sw.invalidate_db("elsewhere");
        let (_, kind) = sw.execute(&e, "tpch", sql, false, TraceCtx::disabled(), None);
        assert_eq!(kind, ShareKind::CacheHit, "other-db invalidation is inert");
        sw.invalidate_db("tpch");
        let (_, kind) = sw.execute(&e, "tpch", sql, false, TraceCtx::disabled(), None);
        assert_eq!(kind, ShareKind::Executed, "mutated db must re-execute");
    }

    #[test]
    fn mid_flight_invalidation_is_never_published() {
        let e = engine();
        let sw = enabled();
        let sql = "SELECT COUNT(*) FROM nation";
        let key: Key = ("tpch".to_string(), normalize_sql(sql));
        // Replay the leader's exact sequence with a mutation racing it:
        // snapshot the epoch, execute, invalidate, then complete the flight.
        let epoch = sw.db_epoch("tpch");
        let flight = Flight {
            state: Mutex::new(FlightState::Running),
            cv: Condvar::new(),
        };
        let outcome = e.execute_sql("tpch", sql, false);
        sw.invalidate_db("tpch");
        assert!(
            !sw.finish_flight(&flight, "tpch", &key, &outcome, epoch),
            "a mutation mid-flight must make the outcome unpublishable"
        );
        // Followers see a failed flight and fall back to executing solo...
        assert!(matches!(&*flight.state.lock(), FlightState::Done(None)));
        // ...and the stale result never entered the cache: the next
        // identical query re-executes against post-mutation data.
        let (_, kind) = sw.execute(&e, "tpch", sql, false, TraceCtx::disabled(), None);
        assert_eq!(kind, ShareKind::Executed);
        // Without a racing mutation the same completion caches normally.
        let (_, kind) = sw.execute(&e, "tpch", sql, false, TraceCtx::disabled(), None);
        assert_eq!(kind, ShareKind::CacheHit);
    }

    #[test]
    fn lru_evicts_the_least_recent_entry() {
        let e = engine();
        let sw = SharedWork::new(SharingConfig {
            enabled: true,
            cache_entries: 2,
        });
        let run = |sql: &str| {
            sw.execute(&e, "tpch", sql, false, TraceCtx::disabled(), None)
                .1
        };
        run("SELECT COUNT(*) FROM region");
        run("SELECT COUNT(*) FROM nation");
        // Touch region so supplier evicts nation.
        assert_eq!(run("SELECT COUNT(*) FROM region"), ShareKind::CacheHit);
        run("SELECT COUNT(*) FROM supplier");
        assert_eq!(run("SELECT COUNT(*) FROM nation"), ShareKind::Executed);
        // Nation's re-execution re-entered the cache and evicted region
        // (the least recent of {region, supplier}); supplier stays warm.
        assert_eq!(run("SELECT COUNT(*) FROM supplier"), ShareKind::CacheHit);
    }

    #[test]
    fn disabled_layer_is_a_passthrough() {
        let e = engine();
        let sw = SharedWork::new(SharingConfig::default());
        let sql = "SELECT COUNT(*) FROM region";
        let (_, k1) = sw.execute(&e, "tpch", sql, false, TraceCtx::disabled(), None);
        let (_, k2) = sw.execute(&e, "tpch", sql, false, TraceCtx::disabled(), None);
        assert_eq!(k1, ShareKind::Executed);
        assert_eq!(k2, ShareKind::Executed, "no caching when disabled");
    }

    #[test]
    fn normalize_sql_collapses_whitespace_and_semicolon() {
        assert_eq!(normalize_sql("SELECT  *\n FROM   t ;"), "SELECT * FROM t");
        assert_eq!(normalize_sql("SELECT 1"), normalize_sql(" SELECT 1;\n"));
        // Case is preserved: 'T' and 't' may be different tables.
        assert_ne!(
            normalize_sql("SELECT * FROM T"),
            normalize_sql("SELECT * FROM t")
        );
    }

    #[test]
    fn normalize_sql_preserves_quoted_content() {
        // Whitespace inside a string literal is semantic: these are
        // different queries and must key differently.
        assert_ne!(
            normalize_sql("SELECT * FROM t WHERE c = 'a  b'"),
            normalize_sql("SELECT * FROM t WHERE c = 'a b'")
        );
        // Outside quotes still collapses; inside stays verbatim.
        assert_eq!(
            normalize_sql("SELECT   'a  b'  FROM   t ;"),
            "SELECT 'a  b' FROM t"
        );
        // Quoted identifiers and doubled-quote escapes survive too.
        assert_eq!(
            normalize_sql("SELECT 'it''s  ok' ,  \"my  col\"  FROM t;"),
            "SELECT 'it''s  ok' , \"my  col\" FROM t"
        );
        // A quote character closing one literal doesn't leak quote state.
        assert_eq!(
            normalize_sql("SELECT 'x'  ,  'y'   FROM  t"),
            "SELECT 'x' , 'y' FROM t"
        );
        // Unterminated literal: the tail (trailing space and semicolon
        // included) belongs to the literal and is kept.
        assert_eq!(normalize_sql("SELECT 'a ;"), "SELECT 'a ;");
    }
}
