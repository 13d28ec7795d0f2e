//! CF stages as data, and the one runner that races any attempt of any stage.
//!
//! A saturated engine accelerates a plan with a list of [`Stage`]s (paper
//! §3.1, extended the Starling way). A stage says what it executes — plans,
//! each under its own billed context — and what it writes from them
//! ([`Output`]): the MV the top plan reads, or hash-partition spill files
//! under a prefix that carries the attempt index. A stage after the first
//! reads the previous stage's accepted artifact. There are three lists, all
//! built by [`TurboEngine::cf_stages`], the one place that reads
//! [`ShufflePlan::broadcast`]:
//!
//! - **single-stage**: the sub-plan, materialized as the MV;
//! - **shuffled aggregate or partitioned join**: stage 0 spills the
//!   aggregate's input or both join sides, stage 1 finishes the operator from
//!   the spill;
//! - **broadcast join**: stage 0 spills the build side as one partition,
//!   stage 1 executes the probe side and joins it with that spill.
//!
//! [`TurboEngine::run_cf`] races every stage as one [`CfRace`]: one launcher
//! ([`StageFleets`]) spawns each attempt's fleet thread, one body
//! ([`run_attempt`]) runs it. The top plan then runs over the last stage's
//! MV; if every attempt of some stage fails, the query degrades to the VM.

use super::{ExecOutcome, TurboEngine};
use crate::billing::{self, CostBreakdown};
use crate::cf_service::LaunchFaults;
use crate::model::QueryWork;
use crate::policy::{self, CfEffects, CfRace, Decision, RaceInput};
use pixels_chaos::RetryPolicy;
use pixels_common::{Error, RecordBatch, Result};
use pixels_exec::{
    default_parallelism, exchange, execute, execute_collect, materialize, ExchangeStats,
    ExecContext, ExecMetricsSnapshot, JoinSide, DEFAULT_BATCH_SIZE,
};
use pixels_obs::{Span, TraceCtx, WallClock};
use pixels_planner::{
    plan_shuffle_sized, split_for_acceleration, Plan, ShuffleKind, ShufflePlan, ShuffleSizing,
};
use pixels_storage::{exchange_stack, ChunkCache, FooterCache, ObjectStore, ObjectStoreRef};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One stage of a CF execution.
pub(super) struct Stage {
    /// Work every attempt is priced by, and the nominal runtime its fault
    /// draw scales from.
    priced: QueryWork,
    /// Work the straggler deadline is estimated from.
    deadline: QueryWork,
    /// The plans the stage executes, each under its own billed context.
    plans: Vec<Plan>,
    output: Output,
}

/// What a stage writes from the plans it executes.
enum Output {
    /// The one plan's rows, as the MV.
    Mv,
    /// Hash partitions under the attempt's spill prefix: of an aggregate's
    /// folded input, or of each plan as the join side `sides` names.
    Spill(Arc<Shuffle>, Vec<JoinSide>),
    /// The shuffled operator, finished from the previous stage's spill and
    /// materialized as the MV. A broadcast join's probe side is the one plan.
    Finish(Arc<Shuffle>),
}

/// The object-store exchange between a spill stage and its finish stage.
struct Shuffle {
    kind: ShuffleKind,
    partitions: usize,
    /// Where every spill attempt writes its own prefix.
    base: String,
    /// The engine store under the exchange sites' chaos/retry stack.
    store: ObjectStoreRef,
}

/// What one stage attempt leaves in the object store, and therefore what has
/// to be deleted once it is consumed, fails or loses its race.
#[derive(Debug, Clone)]
enum Artifact {
    /// Prefix of a spill stage attempt's partition objects.
    Spill(String),
    /// Path of the materialized view the top plan reads.
    Mv(String),
}

impl Artifact {
    fn location(&self) -> &str {
        match self {
            Artifact::Spill(prefix) => prefix,
            Artifact::Mv(path) => path,
        }
    }
}

/// What a fleet reports back: its billed scan counters and its exchange
/// traffic (zero for stages that don't touch the exchange).
type StagePayload = (ExecMetricsSnapshot, ExchangeStats);
type StageResult = (u32, Result<StagePayload>);

/// What a CF execution has accumulated across the stages run so far.
#[derive(Default)]
struct CfRun {
    decisions: Vec<Decision>,
    /// Modelled cost of every attempt launched, stage sums added in order.
    provider_cf_dollars: f64,
    /// Modelled cost of the accepted attempt of each stage.
    accepted_cf_dollars: f64,
    /// Billed scan counters of the accepted attempts.
    metrics: ExecMetricsSnapshot,
    /// Exchange traffic of the accepted attempts.
    exchange: ExchangeStats,
    /// The accepted attempt's artifact, per finished stage.
    accepted: Vec<Artifact>,
}

impl TurboEngine {
    /// The stages a saturated engine accelerates `plan` with, or `None` when
    /// the plan has no expensive operator to push down. A shuffleable cut
    /// point (aggregate, equi-join) with a configured or cost-derived fan-out
    /// runs as a spill stage plus a finish stage; every other plan is one
    /// stage that materializes the MV directly.
    ///
    /// Billing: spill PUT/GET traffic is provider-side (priced per GB into
    /// `provider_shuffle_dollars`), never part of `bytes_scanned`. The user
    /// bill equals the VM path's exactly: the stages scan the same table
    /// chunks one VM would, and neither the spill reads nor the top plan's
    /// MV read bill anything.
    pub(super) fn cf_stages(&self, plan: &Plan, work: &QueryWork) -> Option<Vec<Stage>> {
        // An explicit `exchange_partitions` pins that exact fan-out, `0`
        // sizes it from the cost model.
        let sizing = match self.cfg.exchange_partitions {
            0 => ShuffleSizing::auto(),
            n => ShuffleSizing::fixed(n),
        };
        // The path is a placeholder: only the lower half of the cut is used
        // here. Every attempt picks its own MV path, and `run_cf` re-cuts the
        // plan around whichever one is accepted.
        let Some(ShufflePlan {
            kind,
            partitions,
            broadcast,
            ..
        }) = plan_shuffle_sized(plan, "", &sizing)
        else {
            let sub_plan = split_for_acceleration(plan, "")?.sub_plan;
            return Some(vec![Stage {
                // Priced by the full plan, matching the sim coordinator which
                // charges CF fleets for the whole query. Fleet right-sizing
                // shrinks startup-dominated fleets; the sim side of the parity
                // harness applies the same transform, so costs stay
                // bit-identical.
                priced: policy::sized_work(work),
                deadline: policy::sized_work(&QueryWork::from_plan(&sub_plan)),
                plans: vec![sub_plan],
                output: Output::Mv,
            }]);
        };
        // A broadcast join spills only its (small) build side; its probe side
        // never crosses the exchange, the finish stage executes it.
        let (spilled, sides, probe) = match &kind {
            ShuffleKind::Aggregate { input, .. } => (vec![(**input).clone()], vec![], vec![]),
            ShuffleKind::Join { left, right, .. } if broadcast => (
                vec![(**right).clone()],
                vec![JoinSide::Right],
                vec![(**left).clone()],
            ),
            ShuffleKind::Join { left, right, .. } => (
                vec![(**left).clone(), (**right).clone()],
                vec![JoinSide::Left, JoinSide::Right],
                vec![],
            ),
        };
        // Fleet right-sizing applies to the whole-query work before the
        // per-stage split, exactly as the sim coordinator does.
        let [spill_work, finish_work] = policy::sized_work(work).stage_works();
        let shuffle = Arc::new(Shuffle {
            kind,
            partitions,
            base: format!("pixels-turbo/intermediate/shuffle-{}/", self.mv_ids.next()),
            // Spill I/O runs under its own chaos/retry stack: the
            // exchange_put / exchange_get fault sites with the standard
            // object-store backoff.
            store: exchange_stack(
                self.store.clone(),
                self.injector.clone(),
                RetryPolicy::object_store(),
                WallClock::shared(),
            ),
        });
        Some(vec![
            Stage {
                priced: spill_work,
                deadline: spill_work,
                plans: spilled,
                output: Output::Spill(shuffle.clone(), sides),
            },
            Stage {
                priced: finish_work,
                deadline: finish_work,
                plans: probe,
                output: Output::Finish(shuffle),
            },
        ])
    }

    /// CF path: run `stages` in order, each one a full [`CfRace`] whose
    /// accepted artifact is the next stage's input, then finish the cheap top
    /// plan locally over the last stage's MV — the §3.1 data path. A query
    /// whose stage degrades waits for a VM slot until `slot_deadline`.
    ///
    /// Billing: every attempt's modelled cost is provider spend (the provider
    /// charges for every invocation, crashed and cancelled ones included),
    /// but the query bills only the scanned bytes of the *accepted* attempts,
    /// so the $/TB price is the same with and without recovery work.
    pub(super) fn run_cf(
        &self,
        plan: &Plan,
        work: &QueryWork,
        stages: Vec<Stage>,
        trace: &TraceCtx,
        slot_deadline: Option<Instant>,
    ) -> Result<ExecOutcome> {
        let start = Instant::now();
        let retries_before = self.store.metrics().retries;
        let mut run = CfRun::default();
        for (index, stage) in stages.into_iter().enumerate() {
            if !self.run_stage(index, Arc::new(stage), trace, &mut run) {
                return self.degrade_to_vm(plan, work, trace, run, slot_deadline);
            }
        }

        let mv_path = run
            .accepted
            .last()
            .expect("a CF plan has at least one stage")
            .location();
        let top_plan = split_for_acceleration(plan, mv_path)
            .expect("the plan split when its stages were built")
            .top_plan;
        let top_span = trace.span("top_plan");
        let ctx = self.exec_context(&top_plan).under(&top_span);
        let result = execute_collect(&top_plan, &ctx);
        drop(top_span);
        // The accepted intermediates are ephemeral CF output and have been
        // fully consumed — or have no reader left, if the top plan failed.
        // Losing attempts clean up after themselves in the stage reapers.
        for artifact in &run.accepted {
            self.discard(artifact);
        }
        let batch = result?;

        // Billed bytes: the accepted stages' table scans, nothing else. The
        // top plan reads only the MV, and spills never reach `bytes_scanned`.
        let metrics = run.metrics;
        self.count_execution(&metrics, &ctx);
        self.metrics.cf_invocations.inc();
        self.metrics.exchange(&run.exchange);
        Ok(ExecOutcome {
            batch,
            used_cf: true,
            execution: start.elapsed(),
            bytes_scanned: metrics.bytes_scanned,
            metrics,
            retries: self.storage_retries_since(retries_before),
            decisions: run.decisions,
            // The accepted execution's modelled cost: the winning fleet of
            // each stage (same formula the sim's CfService charges).
            resource_cost: CostBreakdown {
                vm_dollars: 0.0,
                cf_dollars: run.accepted_cf_dollars,
            },
            provider_cf_dollars: run.provider_cf_dollars,
            provider_shuffle_dollars: billing::exchange_cost(run.exchange.total_bytes()),
            exchange: run.exchange,
            ..ExecOutcome::default()
        })
    }

    /// Race one stage's fleets to an accepted attempt, folding its decisions,
    /// costs, metrics and artifact into `run`. Returns `false` when
    /// every attempt failed (`Decision::Degrade`).
    ///
    /// Every recovery decision — when to relaunch a crashed fleet, when to
    /// race a speculative duplicate, when to give up — is made by the shared
    /// policy core ([`CfRace`]); this driver only *detects* (a channel wait
    /// with a deadline) and *executes* (threads, artifact cleanup).
    fn run_stage(
        &self,
        index: usize,
        stage: Arc<Stage>,
        trace: &TraceCtx,
        run: &mut CfRun,
    ) -> bool {
        let (tx, rx) = channel();
        let straggler_wait = straggler_wait(&stage.deadline);
        let mut fleets = StageFleets {
            engine: self,
            stage,
            index: index as u64,
            input: run.accepted.last().map(|a| a.location().to_string()),
            trace,
            tx,
            artifacts: Vec::new(),
            costs: Vec::new(),
        };
        let mut race = CfRace::start(&mut fleets);
        let winner = self.drive_race(&mut race, &mut fleets, &rx, straggler_wait);
        // Dropping the launcher's sender lets the reaper's drain end once the
        // last in-flight fleet has reported.
        let StageFleets {
            artifacts, costs, ..
        } = fleets;
        run.decisions.extend(race.decisions.iter().copied());
        run.provider_cf_dollars += costs.iter().sum::<f64>();
        let Some((attempt, metrics, stats)) = winner else {
            self.reap(rx, artifacts, race.outstanding());
            return false;
        };
        run.accepted_cf_dollars += costs[attempt as usize];
        run.metrics = run.metrics.merged(&metrics);
        run.exchange.merge(&stats);
        run.accepted.push(artifacts[attempt as usize].clone());
        self.reap(rx, artifacts, race.outstanding() - 1);
        true
    }

    /// Drive one stage's [`CfRace`] to completion against its result channel
    /// and return the accepted attempt, if any. The loop only *detects* (a
    /// channel wait bounded by the straggler deadline), moves the counters
    /// and discards failed attempts' artifacts; every reaction is the
    /// policy's.
    fn drive_race(
        &self,
        race: &mut CfRace,
        fleets: &mut StageFleets<'_>,
        rx: &Receiver<StageResult>,
        straggler_wait: Duration,
    ) -> Option<(u32, ExecMetricsSnapshot, ExchangeStats)> {
        let mut deadline_fired = false;
        let mut winner = None;
        while !race.is_finished() {
            // Before the deadline fires, wake when it expires; after (the
            // policy reacts to it at most once), the only thing left to wait
            // for is a result or total failure.
            let timeout = if deadline_fired {
                Duration::from_secs(3600)
            } else {
                straggler_wait
            };
            let input = match rx.recv_timeout(timeout) {
                Ok((attempt, Ok((metrics, stats)))) => {
                    winner = Some((attempt, metrics, stats));
                    RaceInput::AttemptFinished {
                        attempt,
                        failed: false,
                    }
                }
                Ok((attempt, Err(_))) => {
                    // The error is on the attempt's `cf_fleet` span.
                    self.metrics.cf_crashes.inc();
                    // A crash before any write leaves nothing; a storage
                    // failure mid-write may have left partial output — GC
                    // either way.
                    self.discard(&fleets.artifacts[attempt as usize]);
                    RaceInput::AttemptFinished {
                        attempt,
                        failed: true,
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    deadline_fired = true;
                    RaceInput::StragglerDeadline
                }
                Err(RecvTimeoutError::Disconnected) => break,
            };
            for d in race.step(input, fleets) {
                match d {
                    Decision::Relaunch { .. } => self.metrics.cf_retries.inc(),
                    Decision::StragglerSpeculate { .. } => {
                        self.metrics.cf_stragglers.inc();
                        self.metrics.speculative_launches.inc();
                    }
                    _ => {}
                }
            }
        }
        winner
    }

    /// Drain attempts still in flight after their race is decided: account
    /// their wasted scan bytes, add their exchange traffic to the
    /// telemetry counters (provider dollars only ever price *accepted*
    /// attempts, keeping bills deterministic), and discard each one's
    /// artifact. Runs detached so losers can't delay the winning query.
    fn reap(&self, rx: Receiver<StageResult>, artifacts: Vec<Artifact>, in_flight: u32) {
        if in_flight == 0 {
            return;
        }
        let store = self.store.clone();
        let footer_cache = self.footer_cache.clone();
        let chunk_cache = self.chunk_cache.clone();
        let counters = self.metrics.clone();
        std::thread::spawn(move || {
            for (attempt, result) in rx {
                if let Ok((metrics, stats)) = result {
                    counters.wasted_bytes.add(metrics.bytes_scanned);
                    counters.exchange(&stats);
                }
                if let Some(artifact) = artifacts.get(attempt as usize) {
                    discard_artifact(
                        store.as_ref(),
                        &footer_cache,
                        chunk_cache.as_deref(),
                        artifact,
                    );
                }
            }
        });
    }

    /// Delete one attempt's intermediate output and drop its (now dangling)
    /// cache entries — winner GC, failed-attempt cleanup and the reaper all
    /// go through [`discard_artifact`].
    fn discard(&self, artifact: &Artifact) {
        discard_artifact(
            self.store.as_ref(),
            &self.footer_cache,
            self.chunk_cache.as_deref(),
            artifact,
        );
    }

    /// The one CF→VM degradation path: every attempt of some stage failed.
    /// The query still completes (and bills the plain VM-path bytes), it
    /// just loses the acceleration: wait for a VM slot until
    /// `slot_deadline` like any queued query, run the whole plan there, and
    /// prepend the CF decisions and provider-side spend.
    fn degrade_to_vm(
        &self,
        plan: &Plan,
        work: &QueryWork,
        trace: &TraceCtx,
        run: CfRun,
        slot_deadline: Option<Instant>,
    ) -> Result<ExecOutcome> {
        // Earlier stages' accepted output has no reader anymore.
        for artifact in &run.accepted {
            self.discard(artifact);
        }
        let CfRun {
            mut decisions,
            provider_cf_dollars,
            exchange,
            ..
        } = run;
        self.metrics.cf_degradations.inc();
        self.metrics.exchange(&exchange);
        let mut out = self.run_in_vm_when_free(plan, work, trace, slot_deadline)?;
        // The policy's decision log, `Degrade` last, precedes the VM run's.
        decisions.append(&mut out.decisions);
        out.decisions = decisions;
        out.provider_cf_dollars = provider_cf_dollars;
        // Exchange traffic the accepted stages produced before the plan
        // degraded stays a provider cost; it never reaches the bill.
        out.provider_shuffle_dollars = billing::exchange_cost(exchange.total_bytes());
        out.exchange = exchange;
        Ok(out)
    }
}

/// Straggler deadline for one stage: the engine's straggler factor × the
/// model's estimate of the stage's work on as many cores as it can use (the
/// width every execution context gets), floored.
fn straggler_wait(work: &QueryWork) -> Duration {
    let est = work.exec_time_on_cores(default_parallelism() as u32);
    Duration::from_micros(
        policy::straggler_deadline(
            est,
            policy::ENGINE_STRAGGLER_FACTOR,
            policy::ENGINE_STRAGGLER_MIN_WAIT,
        )
        .as_micros(),
    )
}

/// The engine's effect handler: [`CfRace`] launch decisions become spawned
/// executor threads ("CF fleets"). Per-attempt faults and modelled costs are
/// decided at launch, on the driver thread, by the shared policy rules — the
/// thread only applies them — so a seeded fault plan produces the same
/// attempt outcomes and the same provider cost accrual as the simulator's
/// `CfService`.
struct StageFleets<'a> {
    engine: &'a TurboEngine,
    stage: Arc<Stage>,
    index: u64,
    /// Location of the previous stage's accepted artifact.
    input: Option<String>,
    trace: &'a TraceCtx,
    tx: Sender<StageResult>,
    /// Artifact and modelled cost of every attempt launched, by attempt.
    artifacts: Vec<Artifact>,
    costs: Vec<f64>,
}

impl CfEffects for StageFleets<'_> {
    fn launch(&mut self, attempt: u32) {
        let (engine, stage) = (self.engine, &self.stage);
        let faults = policy::decide_launch_faults(
            &engine.injector,
            policy::CF_STARTUP,
            policy::nominal_runtime(&stage.priced),
        );
        self.costs
            .push(policy::attempt_cost(&stage.priced, &faults));
        let mut span = self.trace.span("cf_fleet");
        span.record_u64("attempt", attempt as u64);
        span.record_u64("stage", self.index);
        let artifact = match &stage.output {
            // The attempt index in the prefix means a crashed or losing
            // attempt can never poison its replacement's reads.
            Output::Spill(shuffle, _) => {
                Artifact::Spill(format!("{}s{}-a{attempt}/", shuffle.base, self.index))
            }
            Output::Mv | Output::Finish(_) => Artifact::Mv(format!(
                "pixels-turbo/intermediate/mv-{}.pxl",
                engine.mv_ids.next()
            )),
        };
        let ctxs: Vec<ExecContext> = (stage.plans.iter())
            .map(|plan| engine.exec_context(plan).under(&span))
            .collect();
        // A stage that only reads spills back is a single worker.
        let workers = ctxs.iter().map(|c| c.parallelism).max().unwrap_or(1);
        span.record_u64("workers", workers as u64);
        let (stage, input, store) = (stage.clone(), self.input.clone(), engine.store.clone());
        let dest = artifact.location().to_string();
        self.artifacts.push(artifact);
        let counters = engine.metrics.clone();
        let tx = self.tx.clone();
        std::thread::spawn(move || {
            let result = apply_launch_faults(attempt, &faults).and_then(|()| {
                run_attempt(
                    &stage,
                    &ctxs,
                    input.as_deref(),
                    &dest,
                    store.as_ref(),
                    &mut span,
                )
            });
            // Pipeline counters are not part of the snapshot sent back, so
            // the fleet publishes its own prefetcher activity.
            for ctx in &ctxs {
                counters.pipeline(&ctx.metrics.pipeline_snapshot());
            }
            if let Err(e) = &result {
                span.record_str("error", &e.to_string());
            }
            // Finish the span before handing over the result: the race
            // winner's trace may be rendered the moment the send lands.
            drop(span);
            let _ = tx.send((attempt, result));
        });
    }

    fn cancel_losers(&mut self, _winner: u32) {
        // The engine can't interrupt a running fleet thread; losers are
        // drained in the background by the stage's reaper.
    }

    fn degrade_to_vm(&mut self) {
        // The VM fallback runs on the caller thread once the race loop
        // observes `Decision::Degrade`.
    }
}

/// Apply a fleet's launch-time faults before its body runs. An injected
/// crash fails before any work, so it costs no scan bytes.
fn apply_launch_faults(attempt: u32, faults: &LaunchFaults) -> Result<()> {
    if faults.extra_startup.as_micros() > 0 {
        // Cold-start storm: the whole fleet starts late.
        std::thread::sleep(Duration::from_micros(faults.extra_startup.as_micros()));
    }
    if faults.crash {
        return Err(Error::Exec(format!(
            "injected CF worker crash (attempt {attempt})"
        )));
    }
    if faults.straggle.as_micros() > 0 {
        std::thread::sleep(Duration::from_micros(faults.straggle.as_micros()));
    }
    Ok(())
}

/// One attempt of `stage`, on its fleet's thread under the fleet's `span`:
/// execute the stage's plans under `ctxs` (one each), write `dest` (an MV
/// path on `store`, or a spill prefix on the exchange's store) and report the
/// billed counters of those contexts with the attempt's exchange traffic.
/// `input` is the previous stage's accepted artifact.
fn run_attempt(
    stage: &Stage,
    ctxs: &[ExecContext],
    input: Option<&str>,
    dest: &str,
    store: &dyn ObjectStore,
    span: &mut Span,
) -> Result<StagePayload> {
    let trace = span.ctx();
    let write_mv = |schema, batches: &[RecordBatch]| -> Result<()> {
        // `bytes_written` deliberately, not `bytes`: MV output is not billed
        // scan traffic, and the span byte sum must still equal
        // `bytes_scanned` exactly.
        let mut mat_span = trace.span("materialize");
        let written = materialize(store, dest, schema, batches)?;
        mat_span.record_u64("bytes_written", written);
        Ok(())
    };
    let stats = match &stage.output {
        Output::Mv => {
            let plan = &stage.plans[0];
            write_mv(plan.schema(), &execute(plan, &ctxs[0])?)?;
            ExchangeStats::default()
        }
        Output::Spill(shuffle, sides) => spill(shuffle, sides, &stage.plans, ctxs, dest, &trace)?,
        Output::Finish(shuffle) => {
            let probe = (stage.plans.first())
                .map(|plan| execute(plan, &ctxs[0]))
                .transpose()?;
            let source = input.expect("a finish stage follows a spill stage");
            let (batches, stats) = finish(shuffle, probe.as_deref(), source)?;
            span.record_u64("spill_bytes_read", stats.get_bytes);
            write_mv(shuffle.kind.output_schema(), &batches)?;
            stats
        }
    };
    let billed = (ctxs.iter()).fold(ExecMetricsSnapshot::default(), |billed, ctx| {
        billed.merged(&ctx.metrics.snapshot())
    });
    Ok((billed, stats))
}

/// Spill stage: run the shuffled operator's input(s) with the fleet's
/// parallelism — an aggregate folds its input as the in-process aggregate
/// does, a join executes each side — then spill hash partitions under
/// `prefix` through the exchange (chaos/retry) stack.
fn spill(
    shuffle: &Shuffle,
    sides: &[JoinSide],
    plans: &[Plan],
    ctxs: &[ExecContext],
    prefix: &str,
    trace: &TraceCtx,
) -> Result<ExchangeStats> {
    let (store, partitions) = (shuffle.store.as_ref(), shuffle.partitions);
    match &shuffle.kind {
        ShuffleKind::Aggregate {
            group_exprs, aggs, ..
        } => exchange::write_agg_partitions(
            &plans[0],
            group_exprs,
            aggs,
            &ctxs[0],
            store,
            prefix,
            partitions,
        ),
        ShuffleKind::Join {
            left_keys,
            right_keys,
            ..
        } => {
            let executed = (plans.iter().zip(ctxs))
                .map(|(plan, ctx)| execute(plan, ctx))
                .collect::<Result<Vec<_>>>()?;
            // `bytes_spilled`, never `bytes`: spill PUTs are provider
            // traffic, and the span byte sum must still equal
            // `bytes_scanned` exactly.
            let mut spill_span = trace.span("exchange_spill");
            let mut stats = ExchangeStats::default();
            for ((plan, side), batches) in plans.iter().zip(sides).zip(&executed) {
                stats.merge(&exchange::write_join_partitions(
                    batches,
                    &plan.schema(),
                    left_keys,
                    right_keys,
                    *side,
                    store,
                    prefix,
                    partitions,
                )?);
            }
            spill_span.record_u64("bytes_spilled", stats.put_bytes);
            Ok(stats)
        }
    }
}

/// Finish stage: read the accepted spill attempt's partition set back
/// through the exchange stack (spill GETs are never billed) and finish the shuffled operator, joining a broadcast join's
/// `probe` side with the build spill. Returns the batches to materialize.
fn finish(
    shuffle: &Shuffle,
    probe: Option<&[RecordBatch]>,
    source: &str,
) -> Result<(Vec<RecordBatch>, ExchangeStats)> {
    let (store, partitions) = (&shuffle.store, shuffle.partitions);
    match &shuffle.kind {
        ShuffleKind::Aggregate {
            group_exprs,
            aggs,
            output_schema,
            ..
        } => exchange::read_agg_partitions(
            store,
            source,
            partitions,
            group_exprs,
            aggs,
            output_schema,
        ),
        // `DEFAULT_BATCH_SIZE` is the chunking the in-process join uses, so
        // the MV's batches — and therefore its bytes — are identical to the
        // single-stage path.
        ShuffleKind::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            residual,
            output_schema,
        } => exchange::read_join_partitions(
            store,
            source,
            partitions,
            probe,
            *join_type,
            left_keys,
            right_keys,
            residual.as_ref(),
            output_schema,
            &left.schema(),
            &right.schema(),
            DEFAULT_BATCH_SIZE,
        ),
    }
}

/// Best-effort deletion of one attempt's intermediate output, with the
/// cache entries that would otherwise dangle. Spills are plain objects on
/// the engine store, so listing the prefix sees exactly what the attempt
/// wrote; they are read past the executor's caches and never cached.
fn discard_artifact(
    store: &dyn ObjectStore,
    footer_cache: &FooterCache,
    chunk_cache: Option<&ChunkCache>,
    artifact: &Artifact,
) {
    match artifact {
        Artifact::Spill(prefix) => {
            if let Ok(paths) = store.list(prefix) {
                for p in paths {
                    let _ = store.delete(&p);
                }
            }
        }
        Artifact::Mv(path) => {
            let _ = store.delete(path);
            footer_cache.invalidate(path);
            if let Some(c) = chunk_cache {
                c.invalidate_path(path);
            }
        }
    }
}
