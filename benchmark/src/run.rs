//! One workload, one process: set up, warm up, measure the window, then (for
//! the per-layer metrics) a traced slice and the layer replay. Everything is
//! measured from outside the program: client-side timing, the program's
//! public post-run outputs, and bench-owned spans.

use crate::client::{ClientLog, Phase, Sample, Until};
use crate::deploy::Deployment;
use crate::golden::Golden;
use crate::replay::{probes, replay_layers, ReplayQuery, Replayed};
use crate::spec::{
    Level, WorkloadSpec, CLIENTS, END_TO_END, FAILED_FRACTION, MAX_CLIENT_CPU_FRACTION,
    MIN_MEASURED, PER_LAYER, WARMUP_PER_CLIENT,
};
use crate::stats::{median, tail};
use crate::stream::{fingerprint, generate, Source, Streams, QUESTIONS, QUESTION_DATABASE};
use crate::trace::{recorder, self_times_of, write_jsonl};
use crate::{host, out_dir};
use pixels_server::QueryInfo;
use pixels_turbo::Decision;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run whose median is `setup_s` (this process's own plus
/// `SETUPS - 1` in child processes that set up and exit).
const SETUPS: usize = 3;
/// Longest traced slice, seconds (a third of the window when that is less).
const MAX_TRACED_S: u64 = 5;
/// Longest layer replay, seconds (half the window when that is less).
const MAX_REPLAY_S: u64 = 8;
/// Profiles serialized to size them.
const PROFILES_SIZED: usize = 200;

pub struct RunOptions {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    pub window_s: u64,
    /// Report end-to-end metrics (`setup_s` is then a median of [`SETUPS`]).
    pub end_to_end: bool,
    /// Run the traced slice and the replay, and report per-layer metrics.
    pub per_layer: bool,
    /// When this process started.
    pub started: Instant,
}

/// A metric without a value this run (no samples, or too few for the
/// percentile) prints as `n/a` and travels as 0.
pub type Values = BTreeMap<&'static str, Option<f64>>;

pub struct Outcome {
    pub end_to_end: Values,
    pub per_layer: Values,
    pub attempted: usize,
    pub failed: usize,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub failures: Vec<String>,
}

/// Everything set-up produces.
pub struct Prepared {
    golden: Golden,
    streams: Streams,
    stream_fingerprint: u64,
    dep: Deployment,
    cursors: Vec<usize>,
}

/// Load the goldens, generate the streams, start the deployment and run the
/// warm-up queries. `setup_s` is the time from process start to here.
pub fn prepare(opts: &RunOptions) -> Result<Prepared, String> {
    let spec = opts.spec;
    let golden = Golden::load(spec.name)?;
    // Room for the fastest workload seen (≈ 100 queries/s per client) thrice over.
    let items = 300 * (opts.window_s + MAX_TRACED_S) as usize + 2000;
    let streams = generate(spec, opts.seed, CLIENTS, items);
    let stream_fingerprint = fingerprint(&streams);
    if fingerprint(&generate(spec, opts.seed, CLIENTS, items)) != stream_fingerprint {
        return Err(format!(
            "seed {} generated two different streams for {}",
            opts.seed, spec.name
        ));
    }
    let dep = Deployment::start(spec);
    if dep.data.dataset != golden.dataset {
        return Err(format!(
            "{}: dataset {} differs from the blessed {}; re-run `bless` if the data generator changed on purpose",
            spec.name,
            dep.data.dataset.to_json(),
            golden.dataset.to_json()
        ));
    }
    let mut cursors = vec![0; CLIENTS];
    let warm =
        phase(&dep, &streams, &golden, spec).run(&mut cursors, &Until::Count(WARMUP_PER_CLIENT));
    if let Some(failure) = warm.iter().flat_map(|log| &log.failures).next() {
        return Err(format!("{}: warm-up query failed: {failure}", spec.name));
    }
    Ok(Prepared {
        golden,
        streams,
        stream_fingerprint,
        dep,
        cursors,
    })
}

fn phase<'a>(
    dep: &Deployment,
    streams: &'a Streams,
    golden: &'a Golden,
    spec: &WorkloadSpec,
) -> Phase<'a> {
    Phase {
        addr: dep.addr,
        streams,
        golden,
        scrape_every: spec.scrape_every,
    }
}

/// The `setup` subcommand: set up, report how long it took, tear down.
pub fn setup_only(opts: &RunOptions) -> Result<f64, String> {
    let prepared = prepare(opts)?;
    let setup_s = opts.started.elapsed().as_secs_f64();
    prepared.dep.shutdown();
    Ok(setup_s)
}

/// Run `setup` in a child process and read back its set-up time.
fn setup_in_child(opts: &RunOptions) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["setup", "--workload", opts.spec.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.window_s.to_string()])
        .output()
        .map_err(|e| format!("spawn setup child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "setup child failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("setup child printed no time: {e}"))
}

/// Sum of every sample of a Prometheus family in a text exposition.
fn prom_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(family)?;
            if !(rest.starts_with('{') || rest.starts_with(' ')) {
                return None;
            }
            rest.rsplit(' ').next()?.parse::<f64>().ok()
        })
        .sum()
}

/// What the program's public outputs say at one instant.
struct Snapshot {
    cpu_s: f64,
    rss_mib: f64,
    store: pixels_storage::StoreMetricsSnapshot,
    prom: String,
    journal_bytes: usize,
    journal_entries: usize,
}

fn snapshot(dep: &Deployment) -> Snapshot {
    Snapshot {
        // Taken first so the snapshot's own cost falls outside the window.
        cpu_s: host::process_cpu_s(),
        rss_mib: host::rss_mib(),
        store: pixels_storage::ObjectStore::metrics(dep.store.as_ref()),
        prom: dep.server.metrics_text(),
        journal_bytes: dep.server.journal_jsonl().len(),
        journal_entries: dep.server.journal().len(),
    }
}

fn per(total: f64, count: usize) -> Option<f64> {
    (count > 0).then(|| total / count as f64)
}

fn ratio(part: f64, whole: f64) -> Option<f64> {
    (whole > 0.0).then(|| part / whole)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run_workload(opts: &RunOptions) -> Result<Outcome, String> {
    let spec = opts.spec;
    // Process start → here; the set-up children below run alone and are not
    // part of this process's own set-up time.
    let before_children = opts.started.elapsed();
    let mut setups = Vec::new();
    if opts.end_to_end {
        for _ in 1..SETUPS {
            setups.push(setup_in_child(opts)?);
        }
    }
    let own_start = Instant::now();
    let mut prepared = prepare(opts)?;
    setups.push((before_children + own_start.elapsed()).as_secs_f64());
    let Prepared {
        golden,
        streams,
        stream_fingerprint,
        dep,
        cursors,
    } = &mut prepared;
    let phase = phase(dep, streams, golden, spec);

    // Sample the thread count four times a second while the window runs.
    let stop = AtomicBool::new(false);
    let (window, threads_peak) = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut peak = 0;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(host::threads());
                std::thread::sleep(Duration::from_millis(250));
            }
            peak
        });
        let before = snapshot(dep);
        let deadline = Instant::now() + Duration::from_secs(opts.window_s);
        let logs = phase.run(cursors, &Until::Deadline(deadline));
        let after = snapshot(dep);
        let peak_rss_mib = host::rss_peak_mib();
        stop.store(true, Ordering::Relaxed);
        (
            Window {
                before,
                after,
                deadline,
                logs,
                peak_rss_mib,
            },
            monitor.join().expect("monitor thread"),
        )
    });

    let samples: Vec<&Sample> = window.logs.iter().flat_map(|l| &l.samples).collect();
    let infos: HashMap<u64, QueryInfo> = samples
        .iter()
        .filter_map(|s| s.x.id)
        .filter_map(|id| Some((id, dep.server.status(pixels_common::QueryId(id)).ok()?)))
        .collect();
    let verified: Vec<&Sample> = samples.iter().copied().filter(|s| s.ok).collect();
    let finished: Vec<&QueryInfo> = verified
        .iter()
        .filter_map(|s| infos.get(&s.x.id?))
        .collect();
    let attempted = samples.len();
    let failed = attempted - verified.len();
    let failures: Vec<String> = window
        .logs
        .iter()
        .flat_map(|l| l.failures.iter().cloned())
        .collect();

    let mut end_to_end = Values::new();
    let mut per_layer = Values::new();
    let latencies: Vec<f64> = verified.iter().map(|s| s.x.latency_ms).collect();
    let in_window = verified
        .iter()
        .filter(|s| s.x.end <= window.deadline)
        .count();
    let kq = finished.len() as f64 / 1000.0;
    let cpu_s = window.after.cpu_s - window.before.cpu_s;
    // Dollars per query are averaged over whole stream blocks, which hold
    // the same multiset of work whatever the seed; a ragged edge would add
    // the luck of which expensive queries fell inside the window.
    let billed = whole_blocks(&window.logs, streams.block_len, &infos).unwrap_or(finished.clone());
    let billed_kq = billed.len() as f64 / 1000.0;
    let sum = |f: &dyn Fn(&QueryInfo) -> f64| billed.iter().map(|q| f(q)).sum::<f64>();
    let provider_vm = sum(&|q| q.resource_cost.vm_dollars);
    let provider_cf = sum(&|q| q.provider_cf_dollars);
    let provider_shuffle = sum(&|q| q.provider_shuffle_dollars);

    end_to_end.insert("setup_s", median(&setups));
    end_to_end.insert("qps", Some(in_window as f64 / opts.window_s as f64));
    end_to_end.insert("latency_p50_ms", median(&latencies));
    end_to_end.insert("latency_p95_ms", tail(&latencies, 0.95));
    end_to_end.insert(FAILED_FRACTION, ratio(failed as f64, attempted as f64));
    end_to_end.insert("peak_rss_mb", Some(window.peak_rss_mib));
    end_to_end.insert("cpu_s_per_kq", ratio(cpu_s, kq));
    end_to_end.insert("billed_usd_per_kq", ratio(sum(&|q| q.price), billed_kq));
    end_to_end.insert(
        "provider_usd_per_kq",
        ratio(provider_vm + provider_cf + provider_shuffle, billed_kq),
    );

    let mut guard_errors = Vec::new();
    if latencies.len() < MIN_MEASURED {
        guard_errors.push(format!(
            "{} measured {} queries, fewer than {MIN_MEASURED}",
            spec.name,
            latencies.len()
        ));
    }
    let client_cpu: f64 = window.logs.iter().map(|l| l.cpu_s).sum();
    let client_cpu_fraction = ratio(client_cpu, cpu_s);
    if client_cpu_fraction.is_some_and(|f| f > MAX_CLIENT_CPU_FRACTION) {
        guard_errors.push(format!(
            "{}: the load generator used {:.3} of the process's CPU, more than {MAX_CLIENT_CPU_FRACTION}",
            spec.name,
            client_cpu_fraction.unwrap_or(0.0)
        ));
    }

    if opts.per_layer {
        let mut v = LayerValues(&mut per_layer);
        client_metrics(&mut v, &window.logs, &samples);
        program_metrics(&mut v, dep, &window, &finished, &infos, &samples);
        v.set(
            "turbo.provider_vm_usd_per_kq",
            ratio(provider_vm, billed_kq),
        );
        v.set(
            "turbo.provider_cf_usd_per_kq",
            ratio(provider_cf, billed_kq),
        );
        v.set(
            "turbo.provider_shuffle_usd_per_kq",
            ratio(provider_shuffle, billed_kq),
        );
        v.set("server.threads_peak", Some(threads_peak as f64));
        v.set(
            "server.rss_growth_mb_per_kq",
            ratio(window.after.rss_mib - window.before.rss_mib, kq),
        );
        v.set(
            "storage.write_mb_per_s",
            ratio(
                dep.data.dataset.stored_bytes as f64 / (1 << 20) as f64,
                dep.data.load_s,
            ),
        );
        v.set(
            "storage.stored_mb",
            Some(dep.data.dataset.stored_bytes as f64 / (1 << 20) as f64),
        );
        v.set(
            "bench.failed_fraction",
            ratio(failed as f64, attempted as f64),
        );
        v.set("bench.client_cpu_fraction", client_cpu_fraction);
        v.set("bench.host_reference_ms", Some(host::reference_work_ms()));
        // Fingerprints travel as numbers; 2^52 keeps them exact in a double.
        v.set(
            "bench.stream_fingerprint",
            Some((*stream_fingerprint % (1 << 52)) as f64),
        );
        v.set(
            "bench.dataset_fingerprint",
            Some((dep.data.dataset.id() % (1 << 52)) as f64),
        );

        // T1: the same closed loop with span recording on.
        let traced_s = MAX_TRACED_S.min(opts.window_s / 3).max(1);
        let busy_before = dep.store.get_busy_s();
        recorder().set_enabled(true);
        let traced_start = Instant::now();
        let traced_deadline = traced_start + Duration::from_secs(traced_s);
        let traced = phase.run(cursors, &Until::Deadline(traced_deadline));
        let traced_done = traced
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| s.ok && s.x.end <= traced_deadline)
            .count();
        let qps = in_window as f64 / opts.window_s as f64;
        let qps_traced = traced_done as f64 / traced_s as f64;
        v.set(
            "bench.trace_overhead_fraction",
            ratio(qps - qps_traced, qps),
        );
        // Time inside the store's get/get_range as a share of client time
        // (every client thread for the length of the slice).
        v.set(
            "storage.get_busy_fraction",
            ratio(
                dep.store.get_busy_s() - busy_before,
                traced_start.elapsed().as_secs_f64() * CLIENTS as f64,
            ),
        );

        // T2: the layer replay of client t0's measured queries, then probes.
        let to_replay = queries_to_replay(&window.logs[0], &streams.clients[0], streams, golden);
        let budget = Duration::from_secs(MAX_REPLAY_S.min(opts.window_s / 2).max(1));
        let replayed = replay_layers(dep, &to_replay, budget);
        let probed = probes(dep);
        recorder().set_enabled(false);
        let spans = recorder().snapshot();
        replay_metrics(&mut v, &replayed, &probed, &spans);
        obs_end_metrics(&mut v, dep);

        let file = trace_path(spec.name);
        std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(&file).map_err(|e| format!("{}: {e}", file.display()))?,
        );
        write_jsonl(&spans, &mut out).map_err(|e| format!("{}: {e}", file.display()))?;
        std::io::Write::flush(&mut out).map_err(|e| format!("{}: {e}", file.display()))?;
    }
    prepared.dep.shutdown();

    if !guard_errors.is_empty() {
        return Err(guard_errors.join("\n"));
    }
    Ok(Outcome {
        end_to_end,
        per_layer,
        attempted,
        failed,
        samples: latencies.len(),
        failures,
    })
}

/// The verified queries of client `t0`'s log, as the replay takes them.
fn queries_to_replay(
    log: &ClientLog,
    items: &[crate::stream::Item],
    streams: &Streams,
    golden: &Golden,
) -> Vec<ReplayQuery> {
    log.samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| match items[s.item].source {
            Source::Sql(q) => {
                let q = &streams.queries[q];
                ReplayQuery {
                    database: q.database.to_string(),
                    sql: q.sql.clone(),
                }
            }
            Source::Question(q) => ReplayQuery {
                database: QUESTION_DATABASE.to_string(),
                sql: golden.translations[QUESTIONS[q]].clone(),
            },
        })
        .collect()
}

/// The verified queries of every stream block a client ran from its first
/// item to its last; `None` when no client completed a whole block.
fn whole_blocks<'a>(
    logs: &[ClientLog],
    block_len: usize,
    infos: &'a HashMap<u64, QueryInfo>,
) -> Option<Vec<&'a QueryInfo>> {
    let mut picked = Vec::new();
    for log in logs {
        let (Some(first), Some(last)) = (log.samples.first(), log.samples.last()) else {
            continue;
        };
        let from = first.item.div_ceil(block_len) * block_len;
        let to = (last.item + 1) / block_len * block_len;
        picked.extend(
            log.samples
                .iter()
                .filter(|s| s.ok && (from..to).contains(&s.item))
                .filter_map(|s| infos.get(&s.x.id?)),
        );
    }
    (!picked.is_empty()).then_some(picked)
}

pub fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("{workload}.trace.jsonl"))
}

struct Window {
    before: Snapshot,
    after: Snapshot,
    deadline: Instant,
    logs: Vec<ClientLog>,
    peak_rss_mib: f64,
}

/// Per-layer values; `set` refuses names `spec::PER_LAYER` does not list.
struct LayerValues<'a>(&'a mut Values);

impl LayerValues<'_> {
    fn set(&mut self, name: &'static str, value: Option<f64>) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }
}

/// [C] Client-side timing of HTTP operations.
fn client_metrics(v: &mut LayerValues, logs: &[ClientLog], samples: &[&Sample]) {
    let ok: Vec<&&Sample> = samples.iter().filter(|s| s.ok).collect();
    let of = |f: &dyn Fn(&Sample) -> f64| ok.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let p50 = median(&of(&|s| s.x.latency_ms));
    // Latencies relative to the overall median, so a level a workload never
    // uses reads n/a rather than as a time of zero.
    let vs_p50 = |ms: Option<f64>| ms.zip(p50).map(|(ms, p50)| ms / p50);
    let level = |l: Level| {
        let at: Vec<f64> = ok
            .iter()
            .filter(|s| s.level == l)
            .map(|s| s.x.latency_ms)
            .collect();
        vs_p50(median(&at))
    };
    let gets: Vec<f64> = logs.iter().flat_map(|l| l.get_ms.iter().copied()).collect();
    let asked = samples
        .iter()
        .filter(|s| s.translation_exact.is_some())
        .count();
    let exact = samples
        .iter()
        .filter(|s| s.translation_exact == Some(true))
        .count();
    v.set("server.http_post_p50_ms", median(&of(&|s| s.x.post_ms)));
    v.set("server.http_get_p50_ms", median(&gets));
    v.set(
        "server.polls_per_query",
        per(of(&|s| f64::from(s.x.polls)).iter().sum(), ok.len()),
    );
    v.set(
        "server.status_payload_bytes_p50",
        median(&of(&|s| s.x.payload_bytes as f64)),
    );
    v.set("server.immediate_latency_vs_p50", level(Level::Immediate));
    v.set("server.relaxed_latency_vs_p50", level(Level::Relaxed));
    v.set("server.besteffort_latency_vs_p50", level(Level::BestEffort));
    v.set(
        "server.latency_p99_vs_p50",
        vs_p50(tail(&of(&|s| s.x.latency_ms), 0.99)),
    );
    v.set("nl2sql.exact_match_fraction", per(exact as f64, asked));
}

/// [P] The program's own public post-run outputs: `QueryServer::status`,
/// `journal()`, `metrics_text()` deltas, `ObjectStore::metrics()` deltas.
fn program_metrics(
    v: &mut LayerValues,
    dep: &Deployment,
    window: &Window,
    finished: &[&QueryInfo],
    infos: &HashMap<u64, QueryInfo>,
    samples: &[&Sample],
) {
    let n = finished.len();
    let kq = n as f64 / 1000.0;
    let of = |f: &dyn Fn(&QueryInfo) -> f64| finished.iter().map(|q| f(q)).collect::<Vec<f64>>();
    let total = |f: &dyn Fn(&QueryInfo) -> f64| of(f).iter().sum::<f64>();
    let pending = of(&|q| ms(q.pending));
    let execution = of(&|q| ms(q.execution));
    let execution_where = |cf: bool| {
        let at: Vec<f64> = finished
            .iter()
            .filter(|q| q.used_cf == cf)
            .map(|q| ms(q.execution))
            .collect();
        median(&at)
    };
    v.set("server.pending_p50_ms", median(&pending));
    v.set("server.pending_p95_ms", tail(&pending, 0.95));
    v.set("turbo.execution_p50_ms", median(&execution));
    v.set("turbo.execution_p95_ms", tail(&execution, 0.95));
    v.set(
        "turbo.cf_fraction",
        per(total(&|q| f64::from(u8::from(q.used_cf))), n),
    );
    v.set(
        "turbo.shuffle_fraction",
        per(
            total(&|q| f64::from(u8::from(q.exchange.partitions > 0))),
            n,
        ),
    );
    v.set(
        "turbo.cf_vs_vm_execution_p50",
        execution_where(true)
            .zip(execution_where(false))
            .map(|(cf, vm)| cf / vm),
    );
    v.set(
        "turbo.exchange_bytes_per_kq",
        ratio(
            total(&|q| (q.exchange.put_bytes + q.exchange.get_bytes) as f64),
            kq,
        ),
    );
    // Speculation, degradation and CF relaunches; a healthy run has none.
    let recovery = total(&|q| {
        q.decisions
            .iter()
            .filter(|d| {
                matches!(
                    d,
                    Decision::StragglerSpeculate { .. }
                        | Decision::Degrade
                        | Decision::Relaunch { .. }
                )
            })
            .count() as f64
    });
    v.set("turbo.recovery_events", Some(recovery));
    v.set(
        "exec.rows_scanned_per_q",
        per(total(&|q| q.metrics.rows_scanned as f64), n),
    );
    v.set(
        "exec.bytes_scanned_per_q",
        per(total(&|q| q.metrics.bytes_scanned as f64), n),
    );
    v.set(
        "exec.row_groups_read_fraction",
        ratio(
            total(&|q| q.metrics.row_groups_read as f64),
            total(&|q| q.metrics.row_groups_total as f64),
        ),
    );

    // Journal: how each query was admitted.
    let phase_ids: std::collections::HashSet<String> = samples
        .iter()
        .filter_map(|s| s.x.id)
        .filter(|id| infos.contains_key(id))
        .map(|id| format!("q-{id}"))
        .collect();
    let journal = dep.server.journal().entries();
    let admitted: Vec<&str> = journal
        .iter()
        .filter(|e| phase_ids.contains(&e.query))
        .map(|e| e.admission.as_str())
        .collect();
    let share = |kind: &str| {
        per(
            admitted.iter().filter(|a| **a == kind).count() as f64,
            admitted.len(),
        )
    };
    // A forced start was queued first.
    v.set(
        "server.queued_fraction",
        share("queued").zip(share("forced")).map(|(q, f)| q + f),
    );
    v.set("server.forced_fraction", share("forced"));
    v.set(
        "obs.journal_bytes_per_q",
        per(
            (window.after.journal_bytes - window.before.journal_bytes) as f64,
            window.after.journal_entries - window.before.journal_entries,
        ),
    );
    let profile_bytes: Vec<f64> = finished
        .iter()
        .take(PROFILES_SIZED)
        .filter_map(|q| q.profile.as_ref())
        .map(|p| p.to_compact_string().len() as f64)
        .collect();
    v.set("obs.profile_bytes_p50", median(&profile_bytes));

    // Store and cache counters over the window, per query the window ran
    // (every attempt moves them, verified or not).
    let ran = samples.len();
    let store = window.after.store.delta_since(&window.before.store);
    v.set(
        "storage.get_requests_per_q",
        per(store.get_requests as f64, ran),
    );
    v.set("storage.get_bytes_per_q", per(store.bytes_read as f64, ran));
    v.set(
        "storage.put_requests_per_q",
        per(store.put_requests as f64, ran),
    );
    let delta =
        |family: &str| prom_sum(&window.after.prom, family) - prom_sum(&window.before.prom, family);
    let hits = delta("pixels_cache_chunk_hits_total");
    let misses = delta("pixels_cache_chunk_misses_total");
    v.set(
        "storage.chunk_cache_hit_fraction",
        ratio(hits, hits + misses),
    );
    v.set(
        "storage.footer_cache_hits_per_q",
        per(delta("pixels_cache_footer_hits_total"), ran),
    );
    v.set(
        "storage.prefetch_hit_fraction",
        ratio(
            delta("pixels_scan_prefetch_hits_total"),
            delta("pixels_scan_prefetch_issued_total"),
        ),
    );
    v.set(
        "storage.prefetch_wasted_per_kq",
        ratio(
            delta("pixels_scan_prefetch_wasted_total"),
            ran as f64 / 1000.0,
        ),
    );
}

/// [R] Medians of the replay's and the probes' spans.
fn replay_metrics(
    v: &mut LayerValues,
    replayed: &Replayed,
    probed: &Replayed,
    spans: &[crate::trace::Span],
) {
    let p50 = |r: &Replayed, name: &str| r.us.get(name).and_then(|s| median(s));
    for (metric, span) in [
        ("sql.parse_p50_us", "sql.parse"),
        ("planner.bind_p50_us", "planner.bind"),
        ("planner.optimize_p50_us", "planner.optimize"),
        ("planner.physical_p50_us", "planner.physical"),
        ("planner.plan_total_p50_us", "planner.plan_total"),
        ("planner.split_p50_us", "planner.split"),
        ("exec.execute_p50_us", "exec.execute"),
        ("turbo.estimate_work_p50_us", "turbo.estimate_work"),
        ("turbo.execute_sql_p50_us", "turbo.execute_sql"),
        ("server.inproc_p50_us", "server.inproc"),
        ("server.shared_exec_p50_us", "server.shared_exec"),
        ("server.shared_hit_p50_us", "server.shared_hit"),
    ] {
        v.set(metric, p50(replayed, span));
    }
    for (metric, span, scale) in [
        ("server.http_health_p50_ms", "server.http_health", 1e-3),
        ("storage.open_cold_p50_us", "storage.open_cold", 1.0),
        ("storage.open_warm_p50_us", "storage.open_warm", 1.0),
        (
            "storage.read_row_group_p50_us",
            "storage.read_row_group",
            1.0,
        ),
        ("nl2sql.translate_p50_us", "nl2sql.translate", 1.0),
        (
            "nl2sql.translate_http_p50_ms",
            "nl2sql.translate_http",
            1e-3,
        ),
        ("obs.scrape_http_p50_ms", "obs.scrape_http", 1e-3),
    ] {
        v.set(metric, p50(probed, span).map(|us| us * scale));
    }
    let minus = |a: Option<f64>, b: Option<f64>| a.zip(b).map(|(a, b)| a - b);
    let execute_sql = p50(replayed, "turbo.execute_sql");
    v.set(
        "turbo.overhead_p50_us",
        minus(
            execute_sql,
            p50(replayed, "planner.plan_total")
                .zip(p50(replayed, "exec.execute"))
                .map(|(p, e)| p + e),
        ),
    );
    v.set(
        "server.overhead_p50_us",
        minus(p50(replayed, "server.inproc"), execute_sql),
    );
    let self_us: Vec<f64> = self_times_of(spans, "exec.execute")
        .into_iter()
        .map(|us| us as f64)
        .collect();
    v.set("exec.self_p50_us", median(&self_us));
    v.set(
        "exec.rows_per_s",
        ratio(replayed.rows_scanned as f64, replayed.execute_s),
    );

    // The boundary-by-boundary comparison: what each outer layer adds.
    let layers: f64 = [
        "sql.parse",
        "planner.bind",
        "planner.optimize",
        "planner.physical",
        "exec.execute",
    ]
    .iter()
    .filter_map(|name| p50(replayed, name))
    .sum();
    eprintln!(
        "replay of {} queries, p50 us: layers {:.0} (execute self {:.0}) | turbo.execute_sql {:.0} | server.inproc {:.0} | server.http {:.0}",
        replayed.queries,
        layers,
        median(&self_us).unwrap_or(0.0),
        execute_sql.unwrap_or(0.0),
        p50(replayed, "server.inproc").unwrap_or(0.0),
        p50(replayed, "server.http").unwrap_or(0.0),
    );
}

/// [R] What the observability outputs cost once the run's entries are in.
fn obs_end_metrics(v: &mut LayerValues, dep: &Deployment) {
    let mut render_ms = Vec::new();
    let mut ledger_ms = Vec::new();
    let mut bytes = 0;
    for _ in 0..5 {
        let start = Instant::now();
        bytes = dep.server.metrics_text().len();
        render_ms.push(ms(start.elapsed()));
        let start = Instant::now();
        std::hint::black_box(dep.server.ledger_json());
        ledger_ms.push(ms(start.elapsed()));
    }
    v.set("obs.metrics_render_ms_end", median(&render_ms));
    v.set("obs.metrics_bytes", Some(bytes as f64));
    v.set("obs.ledger_json_ms_end", median(&ledger_ms));
}

/// The lines `workload metric value unit` for one outcome.
pub fn render(workload: &str, outcome: &Outcome, end_to_end: bool, per_layer: bool) -> String {
    let mut text = String::new();
    let mut line = |name: &str, value: Option<f64>, unit: &str, note: String| {
        let value = value.map_or("n/a".to_string(), |v| format!("{v}"));
        text.push_str(&format!("{workload} {name} {value} {unit}{note}\n"));
    };
    if end_to_end {
        for m in &END_TO_END {
            let note = if m.name.starts_with("latency_") {
                format!(" (n={})", outcome.samples)
            } else {
                String::new()
            };
            line(m.name, outcome.end_to_end[m.name], m.unit, note);
        }
        let note = format!(" ({} of {})", outcome.failed, outcome.attempted);
        line(
            FAILED_FRACTION,
            outcome.end_to_end[FAILED_FRACTION],
            "ratio",
            note,
        );
    }
    if per_layer {
        for m in PER_LAYER {
            let value = outcome.per_layer.get(m.name).copied().flatten();
            line(m.name, value, m.unit, String::new());
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_sum_adds_every_label_set_of_one_family() {
        let text = "# HELP pixels_x_total x\n# TYPE pixels_x_total counter\n\
                    pixels_x_total{level=\"a\"} 3\npixels_x_total{level=\"b\"} 4.5\n\
                    pixels_x_total_more 100\npixels_y 7\n";
        assert_eq!(prom_sum(text, "pixels_x_total"), 7.5);
        assert_eq!(prom_sum(text, "pixels_y"), 7.0);
        assert_eq!(prom_sum(text, "pixels_z"), 0.0);
    }

    #[test]
    #[should_panic(expected = "is not a per-layer metric")]
    fn a_metric_the_spec_does_not_list_cannot_be_reported() {
        LayerValues(&mut Values::new()).set("sql.parse_p50_ms", Some(1.0));
    }
}
