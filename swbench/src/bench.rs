//! The three workloads, each with an untraced end-to-end run and a traced
//! per-layer run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use swmon_core::{MonitorConfig, Property};
use swmon_props::{catalog, firewall, scenario::FW_TIMEOUT};
use swmon_runtime::merge::merge;
use swmon_runtime::{
    reference_records, signature, RuntimeConfig, ShardedRuntime, TelemetryConfig, ViolationRecord,
    ViolationSink,
};
use swmon_store::{Store, StoreSink};

use crate::report::{mean, median, quantile, Metrics};
use crate::session::{self, Run};
use crate::spans::Spans;
use crate::storeq::{self, MixQuery};
use crate::traffic::{self, fresh_copy, Trace};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;
/// Set-ups timed before each closed- or open-loop repetition.
const SETUP_PER_REP: usize = 3;
/// Shares of `--seconds` spent in closed-loop repetitions, in the query
/// phase on a sealed store, and in open-loop repetitions.
const CLOSED_SHARE: f64 = 0.4;
const QUERY_SHARE: f64 = 0.2;
const OPEN_SHARE: f64 = 0.4;
/// Fewest closed- and open-loop repetitions per run, whatever
/// `--seconds` says.
const MIN_REPS: usize = 3;
/// Cap on steps of any phase per run.
const MAX_STEPS: usize = 100_000;
/// Fewest query latencies a run collects, and the chunk size of
/// [`chunked_quantile`].
const MIN_QUERY_SAMPLES: usize = 1_024;
/// Rounds of the whole mix per store in the traced run.
const TRACED_QUERY_ROUNDS: usize = 4;
/// A feed whose last-quarter median lateness exceeds its first quarter's
/// by more than this is backlogged.
const BACKLOG_SLACK_MS: f64 = 5.0;
/// How far the session ledger may miss `core.reference_ns`, in percent.
const LEDGER_TOLERANCE_PCT: f64 = 30.0;
/// Traced replays per session run, each bracketed by reference passes.
const REPLAYS: usize = 3;
/// store-query: rows in the replicated violation stream, at least.
const STREAM_ROWS: usize = 60_000;
/// store-query: rows an open-loop pass publishes (a prefix of the stream).
const OPEN_ROWS: usize = STREAM_ROWS;
/// store-query: ingest batches between live query groups.
const QUERY_EVERY: usize = 64;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 21 catalog properties over every E9 app family.
    CatalogMix,
    /// E13's firewall shape with the two firewall properties.
    FirewallFlows,
    /// Ingest and query of a catalog-shaped violation stream.
    StoreQuery,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::CatalogMix, Workload::FirewallFlows, Workload::StoreQuery];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CatalogMix => "catalog-mix",
            Workload::FirewallFlows => "firewall-flows",
            Workload::StoreQuery => "store-query",
        }
    }

    /// The open-loop offered rate: events per second for the session
    /// workloads, violation rows per second for store-query. Each is
    /// below the workload's closed-loop rate on a 2-thread box.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::CatalogMix => 12_000.0,
            Workload::FirewallFlows => 80_000.0,
            Workload::StoreQuery => 40_000.0,
        }
    }
}

/// One run's verdict and numbers.
#[derive(Debug, Default)]
pub struct RunResult {
    /// False when any output check failed.
    pub correct: bool,
    /// Timed repetitions attempted.
    pub attempted: u64,
    /// Repetitions that failed a check or ran backlogged.
    pub failed: u64,
    /// The metrics, by name and unit.
    pub metrics: Metrics,
    /// Run metadata (name, JSON value).
    pub meta: Vec<(String, String)>,
}

impl RunResult {
    fn fail(&mut self, why: &str) {
        eprintln!("swbench: repetition failed: {why}");
        self.failed += 1;
        self.correct = false;
    }
}

/// The property set a session workload deploys.
pub fn properties(w: Workload) -> Vec<Property> {
    match w {
        Workload::FirewallFlows => {
            vec![firewall::return_not_dropped(), firewall::return_not_dropped_within(FW_TIMEOUT)]
        }
        Workload::CatalogMix | Workload::StoreQuery => catalog(),
    }
}

/// The trace a session workload replays.
pub fn trace(w: Workload, seed: u64) -> Trace {
    match w {
        Workload::FirewallFlows => traffic::firewall_flows(seed),
        Workload::CatalogMix | Workload::StoreQuery => {
            traffic::catalog_mix(seed, traffic::MIX_SESSIONS)
        }
    }
}

/// Times set-ups spread over a run — [`SETUP_PER_REP`] before each
/// repetition until [`SETUP_REPS`] are in — so `setup_s` samples the
/// machine over the whole run as every other metric does. Each set-up is
/// dropped once timed, so the samples add nothing to `mem_peak_mb`.
struct SetupClock {
    samples: Vec<f64>,
}

impl SetupClock {
    fn new() -> Self {
        SetupClock { samples: Vec::with_capacity(SETUP_REPS) }
    }

    /// Time up to `n` more set-ups.
    fn tick<T>(&mut self, build: &mut impl FnMut() -> T, n: usize) {
        for _ in 0..n.min(SETUP_REPS - self.samples.len()) {
            let t0 = Instant::now();
            let v = std::hint::black_box(build());
            self.samples.push(t0.elapsed().as_secs_f64());
            drop(v);
        }
    }

    /// Top up to [`SETUP_REPS`] and return the median, in seconds.
    fn median<T>(mut self, build: &mut impl FnMut() -> T) -> f64 {
        self.tick(build, SETUP_REPS);
        median(&self.samples).expect("SETUP_REPS > 0")
    }
}

/// Build the property set, the runtime (default configuration) and the
/// store: what a user does before the first event.
fn build_session(w: Workload) -> (ShardedRuntime, Store) {
    let rt = ShardedRuntime::new(properties(w), RuntimeConfig::default())
        .expect("workload properties are valid");
    (rt, Store::new())
}

/// A traced run whose ledger does not close within
/// [`LEDGER_TOLERANCE_PCT`] fails.
fn check_ledger(r: &mut RunResult, residual_pct: f64) {
    if residual_pct.abs() > LEDGER_TOLERANCE_PCT {
        r.fail(&format!("ledger residual {residual_pct:.1}% outside ±{LEDGER_TOLERANCE_PCT}%"));
    }
}

/// The per-repetition output checks of a session run.
fn gate(run: &Run, reference: &[String]) -> Result<(), String> {
    if run.outcome.signatures() != reference {
        return Err("merged signatures differ from reference_records".into());
    }
    let sealed = run.store.query_str("prop(*)").map_err(|e| e.to_string())?;
    if !sealed.sealed || sealed.signatures() != reference {
        return Err("the sealed store's signatures differ from the merge".into());
    }
    let loss = run.outcome.stats.unaccounted_loss();
    if loss != 0 {
        return Err(format!("unaccounted loss {loss}"));
    }
    if run.outcome.stats.restarts != 0 {
        return Err(format!("{} shard restarts", run.outcome.stats.restarts));
    }
    Ok(())
}

fn reference(props: &[Property], trace: &Trace) -> Vec<ViolationRecord> {
    reference_records(props, MonitorConfig::default(), &fresh_copy(&trace.events), trace.end)
}

fn meta_common(r: &mut RunResult, w: Workload, seed: u64, seconds: f64, traced: bool) {
    let m = &mut r.meta;
    m.push(("workload".into(), format!("\"{}\"", w.name())));
    m.push(("seed".into(), seed.to_string()));
    m.push(("seconds".into(), crate::report::num(seconds)));
    m.push(("trace".into(), u8::from(traced).to_string()));
    m.push(("git_rev".into(), format!("\"{}\"", crate::report::escape(&crate::report::git_rev()))));
    m.push(("nproc".into(), crate::report::nproc().to_string()));
    m.push((
        "rustc".into(),
        format!("\"{}\"", crate::report::escape(&crate::report::rustc_version())),
    ));
    m.push(("shards".into(), RuntimeConfig::default().shards.to_string()));
}

/// The three phases of an untraced run.
const CLOSED: usize = 0;
const QUERY: usize = 1;
const OPEN: usize = 2;

/// Interleave the phases of a run so each samples the machine over the
/// whole run rather than one stretch of it: every step goes to a phase
/// still short of its minimum count, else to the phase furthest behind
/// its share of `seconds`, until every phase has used its share. `step`
/// runs one unit of a phase (one repetition, or one round of the query
/// mix) and is called with `OPEN` first, so `mem_peak_mb` can be read
/// after a single open-loop repetition, then with `CLOSED`, which the
/// query phase needs for a sealed store.
fn interleave(seconds: f64, mins: [usize; 3], mut step: impl FnMut(usize)) -> [usize; 3] {
    let shares = [CLOSED_SHARE, QUERY_SHARE, OPEN_SHARE];
    let mut spent = [Duration::ZERO; 3];
    let mut done = [0usize; 3];
    loop {
        let phase = if done[OPEN] == 0 {
            OPEN
        } else if done[CLOSED] == 0 {
            CLOSED
        } else if let Some(p) = (0..3).find(|&p| done[p] < mins[p]) {
            p
        } else {
            let behind = (0..3)
                .filter(|&p| spent[p].as_secs_f64() < shares[p] * seconds && done[p] < MAX_STEPS)
                .min_by(|&a, &b| {
                    let fa = spent[a].as_secs_f64() / shares[a];
                    let fb = spent[b].as_secs_f64() / shares[b];
                    fa.total_cmp(&fb)
                });
            match behind {
                Some(p) => p,
                None => return done,
            }
        };
        let t0 = Instant::now();
        step(phase);
        spent[phase] += t0.elapsed();
        done[phase] += 1;
    }
}

/// Untraced run of a session workload: closed-loop repetitions, rounds
/// of the query mix on a sealed store, and open-loop repetitions at the
/// workload's fixed rate, interleaved.
pub fn session_e2e(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let mut r = RunResult { correct: true, ..Default::default() };
    meta_common(&mut r, w, seed, seconds, false);
    let trace = trace(w, seed);
    let n = trace.events.len() as f64;
    let props = properties(w);
    let reference_recs = reference(&props, &trace);
    let ref_sigs: Vec<String> = reference_recs.iter().map(signature).collect();
    let mix = storeq::mix(&reference_recs, seed);
    let (rt, _) = build_session(w);
    let mut build = || build_session(w);
    let mut clock = SetupClock::new();

    let (mut eps, mut ingest_rps, mut fanned) = (Vec::new(), Vec::new(), Vec::new());
    let mut sealed: Option<Arc<Store>> = None;
    let mut query_us = Vec::new();
    let (mut p50s, mut p99s, mut lateness) = (Vec::new(), Vec::new(), Vec::new());
    let (mut detect_samples, mut drained) = (0usize, 0u64);
    let mut mem_mb = None;
    let query_rounds = MIN_QUERY_SAMPLES.div_ceil(mix.len());
    let done = interleave(seconds, [MIN_REPS, query_rounds, MIN_REPS], |phase| {
        if phase == QUERY {
            if let Some(store) = &sealed {
                query_us.extend(mix.iter().map(|q| storeq::timed(store, q).1));
            }
            return;
        }
        clock.tick(&mut build, SETUP_PER_REP);
        r.attempted += 1;
        let copy = fresh_copy(&trace.events);
        let result = if phase == CLOSED {
            session::closed(&rt, &copy, trace.end)
        } else {
            session::open(&rt, &copy, trace.end, w.open_rate())
        };
        let run = match result {
            Ok(run) => run,
            Err(e) => return r.fail(&e.to_string()),
        };
        if phase == OPEN && mem_mb.is_none() {
            mem_mb = Some(crate::report::peak_rss_mb());
        }
        if let Err(why) = gate(&run, &ref_sigs) {
            return r.fail(&why);
        }
        if phase == CLOSED {
            eps.push(n / run.wall.as_secs_f64());
            fanned.push(run.fanned_share);
            let pubs = run.sink.publishes();
            let rows: usize = pubs.iter().map(|p| p.rows).sum();
            let ingest_ns: u64 = pubs.iter().map(|p| p.ingest_ns).sum();
            ingest_rps.push(rows as f64 / (ingest_ns.max(1) as f64 / 1e9));
            sealed = Some(run.store.clone());
        } else if session::backlogged(&run.lateness_ns, BACKLOG_SLACK_MS) {
            eprintln!("swbench: open-loop repetition backlogged; latencies not reported");
            r.failed += 1;
        } else {
            let (lat, d) = run.sink.latencies();
            push_percentiles(&lat, &mut p50s, &mut p99s);
            detect_samples += lat.len();
            drained += d;
            lateness.extend(run.lateness_ns);
        }
    });

    let setup_s = clock.median(&mut build);
    let m = &mut r.metrics;
    put_opt(m, "events_per_s", median(&eps), 1.0, "1/s");
    put_opt(m, "detect_p50_ms", median(&p50s), 1e-6, "ms");
    put_opt(m, "detect_p99_ms", median(&p99s), 1e-6, "ms");
    put_opt(m, "ingest_rows_per_s", median(&ingest_rps), 1.0, "1/s");
    put_opt(m, "query_p50_us", mix_quantile(&query_us, mix.len(), 0.50), 1.0, "us");
    put_opt(m, "query_p99_us", chunked_quantile(&query_us, 0.99), 1.0, "us");
    m.put("setup_s", setup_s, "s");
    m.put("mem_peak_mb", mem_mb.unwrap_or_else(crate::report::peak_rss_mb), "MB");

    let meta = &mut r.meta;
    meta.push(("events".into(), trace.events.len().to_string()));
    meta.push(("trace_digest".into(), format!("\"{:016x}\"", trace.digest())));
    meta.push(("violations".into(), ref_sigs.len().to_string()));
    meta.push(("open_rate".into(), crate::report::num(w.open_rate())));
    meta.push(("closed_reps".into(), done[CLOSED].to_string()));
    meta.push(("open_reps".into(), done[OPEN].to_string()));
    meta.push(("detect_samples".into(), detect_samples.to_string()));
    meta.push(("drained_at_finish".into(), drained.to_string()));
    meta.push(("query_samples".into(), query_us.len().to_string()));
    meta.push((
        "feed_late_p99_ms".into(),
        crate::report::num(quantile(&lateness, 0.99).unwrap_or(0.0) / 1e6),
    ));
    meta.push(("runtime.fanned_share".into(), crate::report::num(mean(&fanned))));
    r
}

/// The median, over consecutive chunks of at least
/// [`MIN_QUERY_SAMPLES`] samples, of each chunk's `q` quantile: a stretch
/// of stolen time on a shared box moves one chunk, not the run's tail.
fn chunked_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let chunks = (samples.len() / MIN_QUERY_SAMPLES).max(1);
    let size = samples.len() / chunks;
    let per_chunk: Vec<f64> = (0..chunks)
        .filter_map(|c| {
            let end = if c + 1 == chunks { samples.len() } else { (c + 1) * size };
            quantile(&samples[c * size..end], q)
        })
        .collect();
    median(&per_chunk)
}

/// The `q` quantile, across the mix, of each mix query's fastest latency
/// in the run: `query_p50_us`. `samples` holds whole rounds of the mix in
/// mix order. On a shared machine a query's typical latency moves up to
/// 2x from one run to the next with the neighbours' load, while its
/// fastest, the store's own cost, stays within a few percent. (Across
/// the mix's slowest queries the fastest hinges on the values a seed
/// draws, so `query_p99_us` is taken over every execution instead.)
fn mix_quantile(samples: &[f64], mix_len: usize, q: f64) -> Option<f64> {
    if mix_len == 0 || samples.len() < mix_len {
        return None;
    }
    let fastest: Vec<f64> = (0..mix_len)
        .map(|j| samples.iter().skip(j).step_by(mix_len).copied().fold(f64::INFINITY, f64::min))
        .collect();
    quantile(&fastest, q)
}

/// Append one repetition's p50 and p99 (when it has a sample).
fn push_percentiles(samples: &[f64], p50s: &mut Vec<f64>, p99s: &mut Vec<f64>) {
    if let (Some(a), Some(b)) = (quantile(samples, 0.50), quantile(samples, 0.99)) {
        p50s.push(a);
        p99s.push(b);
    }
}

fn put_opt(m: &mut Metrics, name: &str, v: Option<f64>, scale: f64, unit: &'static str) {
    if let Some(v) = v {
        m.put(name, v * scale, unit);
    }
}

/// Metric-name form of a catalog property name (`/` becomes `.`).
pub fn metric_prop(name: &str) -> String {
    name.replace('/', ".")
}

/// A session fed closed-loop into a plain `StoreSink` (no wrapper):
/// wall nanoseconds per event.
fn plain_ns_per_event(rt: &ShardedRuntime, trace: &Trace) -> Result<f64, String> {
    let copy = fresh_copy(&trace.events);
    let t0 = Instant::now();
    let sink = Arc::new(StoreSink::new());
    let mut s = rt.start_with_sink(Some(sink as Arc<dyn ViolationSink>));
    for ev in &copy {
        s.feed(ev).map_err(|e| e.to_string())?;
    }
    s.finish(trace.end).map_err(|e| e.to_string())?;
    Ok(t0.elapsed().as_nanos() as f64 / copy.len().max(1) as f64)
}

/// The SWQL mix on `store`, [`TRACED_QUERY_ROUNDS`] times: p50 µs per
/// kind, p50 over every execution, and total scanned and matched rows.
fn mix_profile(store: &Store, mix: &[MixQuery]) -> (Vec<(&'static str, f64)>, f64, u64, u64) {
    let mut per_kind: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut all = Vec::new();
    let (mut scanned, mut matched) = (0u64, 0u64);
    for _ in 0..TRACED_QUERY_ROUNDS {
        for q in mix {
            let (out, t) = storeq::timed(store, q);
            scanned += out.scanned;
            matched += out.matches.len() as u64;
            all.push(t);
            match per_kind.iter_mut().find(|(k, _)| *k == q.kind) {
                Some((_, v)) => v.push(t),
                None => per_kind.push((q.kind, vec![t])),
            }
        }
    }
    let p50s = per_kind.into_iter().map(|(k, v)| (k, median(&v).unwrap_or(0.0))).collect();
    (p50s, median(&all).unwrap_or(0.0), scanned, matched)
}

/// Traced run of a session workload: the per-layer ledger.
pub fn session_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &std::path::Path,
) -> RunResult {
    let mut r = RunResult { correct: true, ..Default::default() };
    meta_common(&mut r, w, seed, seconds, true);
    let trace = trace(w, seed);
    let n = trace.events.len() as f64;
    let props = properties(w);
    let (rt, _) = build_session(w);
    let rt_off = ShardedRuntime::new(
        props.clone(),
        RuntimeConfig { telemetry: TelemetryConfig::off(), ..RuntimeConfig::default() },
    )
    .expect("workload properties are valid");
    let mut spans = Spans::new();

    // Single-threaded reference on fresh packets, timed before and after
    // each replay so a drift in machine speed shows in neither alone.
    let timed_reference = || {
        let copy = fresh_copy(&trace.events);
        let t0 = Instant::now();
        let recs = reference_records(&props, MonitorConfig::default(), &copy, trace.end);
        (recs, t0.elapsed().as_nanos() as f64 / n)
    };
    let (reference_recs, reference_before) = timed_reference();
    let ref_sigs: Vec<String> = reference_recs.iter().map(signature).collect();
    let mix = storeq::mix(&reference_recs, seed);

    // 1-2: parse, then the per-property replay, [`REPLAYS`] times; the
    // ledger takes medians. Only the first replay's spans are kept.
    let mut copy = Vec::new();
    let mut replays = Vec::with_capacity(REPLAYS);
    let mut reference_samples = vec![reference_before];
    for i in 0..REPLAYS {
        r.attempted += 1;
        copy = fresh_copy(&trace.events);
        let mut scratch = Spans::new();
        let replay = crate::traced::replay(
            &props,
            &copy,
            trace.end,
            RuntimeConfig::default().checkpoint_every,
            if i == 0 { &mut spans } else { &mut scratch },
        );
        if replay.signatures != ref_sigs {
            r.fail("traced replay's signatures differ from reference_records");
        }
        replays.push(replay);
        reference_samples.push(timed_reference().1);
    }
    let replay = crate::traced::Replay::median(replays);
    let reference_ns = median(&reference_samples).expect("REPLAYS > 0");

    // 3: routing, on the already-parsed copy.
    let router = rt.router();
    let mut masks = vec![0u64; router.shards()];
    let route = spans.name("runtime.route");
    for chunk in copy.chunks(1024) {
        let start = spans.now();
        for ev in chunk {
            router.masks(ev, &mut masks);
            std::hint::black_box(&masks);
        }
        let end = spans.now();
        spans.push(route, start, end, None);
    }
    drop(copy);

    // 4: sessions — traced (wrapped sink), untraced twin, telemetry-off
    // twin, interleaved; then one open-loop traced session.
    let session_name = spans.name("runtime.session");
    let ingest_name = spans.name("store.ingest");
    let budget = Duration::from_secs_f64(seconds * 0.6);
    let started = Instant::now();
    let (mut trace_pct, mut telem_pct, mut untraced_ns, mut finish_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<Run> = None;
    let mut rounds = 0;
    while (started.elapsed() < budget || rounds < 2) && rounds < MAX_STEPS {
        rounds += 1;
        r.attempted += 1;
        let copy = fresh_copy(&trace.events);
        let base = spans.now();
        let run = match session::closed(&rt, &copy, trace.end) {
            Ok(run) => run,
            Err(e) => {
                r.fail(&e.to_string());
                continue;
            }
        };
        let sid = spans.push(session_name, base, spans.now(), None);
        for p in run.sink.publishes() {
            let s = base + p.start_ns;
            spans.push(ingest_name, s, s + p.ingest_ns, Some(sid));
        }
        drop(copy);
        if let Err(why) = gate(&run, &ref_sigs) {
            r.fail(&why);
            continue;
        }
        let traced_ns = run.wall.as_nanos() as f64 / n;
        let (plain, off) =
            match (plain_ns_per_event(&rt, &trace), plain_ns_per_event(&rt_off, &trace)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    r.fail(&e);
                    continue;
                }
            };
        untraced_ns.push(plain);
        trace_pct.push((traced_ns - plain) / plain * 100.0);
        telem_pct.push(swmon_apps::output::overhead_pct(1e9 / off, 1e9 / plain));
        finish_ms.push(run.finish.as_secs_f64() * 1e3);
        last = Some(run);
    }
    r.attempted += 1;
    let open = match session::open(&rt, &fresh_copy(&trace.events), trace.end, w.open_rate()) {
        Ok(run) => Some(run),
        Err(e) => {
            r.fail(&e.to_string());
            None
        }
    };
    if let Some(run) = &open {
        if let Err(why) = gate(run, &ref_sigs) {
            r.fail(&why);
        }
    }

    let m = &mut r.metrics;
    let apply: f64 = replay.props.iter().map(|p| p.apply_ns).sum();
    let advance: f64 = replay.props.iter().map(|p| p.advance_ns).sum::<f64>() + replay.drain_ns;
    m.put("packet.parse_ns", replay.parse_ns, "ns");
    m.put("core.reference_ns", reference_ns, "ns");
    m.put("core.apply_ns", apply, "ns");
    let by_name = |name: &str| replay.props.iter().find(|p| p.name == name);
    for p in catalog() {
        let key = metric_prop(&p.name);
        m.put(format!("core.apply_ns.{key}"), by_name(&p.name).map_or(0.0, |l| l.apply_ns), "ns");
    }
    for p in catalog() {
        let key = metric_prop(&p.name);
        let peak = by_name(&p.name).map_or(0.0, |l| l.live_peak as f64);
        m.put(format!("core.live_peak.{key}"), peak, "count");
    }
    for p in catalog() {
        let key = metric_prop(&p.name);
        let share = by_name(&p.name).map_or(0.0, |l| l.delivered as f64 / n);
        m.put(format!("core.delivered_share.{key}"), share, "ratio");
    }
    m.put("core.advance_ns", advance, "ns");
    m.put("core.snapshot_us", replay.snapshot_us, "us");
    m.put("core.snapshot_bytes", replay.snapshot_bytes, "bytes");
    let selfs = spans.self_times();
    m.put("runtime.route_ns", selfs.get("runtime.route").copied().unwrap_or(0.0) / n, "ns");

    let mut merge_ns = 0.0;
    if let Some(run) = &last {
        let st = &run.outcome.stats;
        m.put("runtime.filtered_share", st.skipped as f64 / st.events_in.max(1) as f64, "ratio");
        let pubs = run.sink.publishes();
        let rows: usize = pubs.iter().map(|p| p.rows).sum();
        let ingest: u64 = pubs.iter().map(|p| p.ingest_ns).sum();
        let ingest_per_event = ingest as f64 / n;
        let untraced = median(&untraced_ns).unwrap_or(0.0);
        m.put("runtime.overhead_ns", untraced - reference_ns - ingest_per_event, "ns");
        m.put("runtime.fanned_share", run.fanned_share, "ratio");
        let loads: Vec<f64> = st.per_shard.iter().map(|s| s.events as f64).collect();
        let skew = loads.iter().copied().fold(0.0, f64::max) / mean(&loads).max(1.0);
        m.put("runtime.shard_skew", skew, "ratio");
        m.put("runtime.publish_rows", rows as f64 / pubs.len().max(1) as f64, "count");
        let gaps = open.as_ref().map_or_else(Vec::new, |o| {
            let mut starts: Vec<u64> = o.sink.publishes().iter().map(|p| p.start_ns).collect();
            starts.sort_unstable();
            starts.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6).collect::<Vec<f64>>()
        });
        m.put("runtime.publish_interval_ms", median(&gaps).unwrap_or(0.0), "ms");
        let late = open.as_ref().map_or(0.0, |o| quantile(&o.lateness_ns, 0.99).unwrap_or(0.0));
        m.put("runtime.feed_late_p99_ms", late / 1e6, "ms");
        m.put("runtime.finish_ms", median(&finish_ms).unwrap_or(0.0), "ms");

        // 5: merge, then seal a store ingested in the run's publish batches.
        let records = run.outcome.records.clone();
        let merge_name = spans.name("runtime.merge");
        let s0 = spans.now();
        let merged = merge(records.clone());
        let s1 = spans.now();
        spans.push(merge_name, s0, s1, None);
        merge_ns = (s1 - s0) as f64 / n;
        m.put(
            "runtime.merge_ns_per_violation",
            (s1 - s0) as f64 / merged.len().max(1) as f64,
            "ns",
        );
        let store = Store::new();
        let mut at = 0;
        for p in &pubs {
            let end = (at + p.rows).min(records.len());
            store.ingest(p.shard as u32, &records[at..end]);
            at = end;
        }
        let (_, live_p50, _, _) = mix_profile(&store, &mix);
        let seal_name = spans.name("store.seal");
        let s0 = spans.now();
        store.seal(&merged);
        let s1 = spans.now();
        spans.push(seal_name, s0, s1, None);
        m.put("store.ingest_ns_per_row", ingest as f64 / rows.max(1) as f64, "ns");
        m.put("store.segments", pubs.len() as f64, "count");
        m.put("store.seal_ms", (s1 - s0) as f64 / 1e6, "ms");
        m.put(
            "store.bytes_per_row",
            store.to_bytes().len() as f64 / merged.len().max(1) as f64,
            "bytes",
        );
        let (kinds, _, scanned, matched) = mix_profile(&store, &mix);
        for (kind, us) in &kinds {
            m.put(format!("store.query_us.{kind}"), *us, "us");
        }
        m.put("store.query_us.live", live_p50, "us");
        m.put("store.scanned_per_match", scanned as f64 / matched.max(1) as f64, "ratio");
    }
    m.put("telemetry.overhead_pct", median(&telem_pct).unwrap_or(0.0), "%");
    let residual =
        (reference_ns - (replay.parse_ns + apply + advance + merge_ns)) / reference_ns * 100.0;
    m.put("ledger.residual_pct", residual, "%");
    m.put("trace.overhead_pct", median(&trace_pct).unwrap_or(0.0), "%");
    check_ledger(&mut r, residual);

    print_ranking(&replay.props, n);
    let path = out_dir.join(format!("spans-{}-{seed}.jsonl", w.name()));
    if let Err(e) = spans.write(&path) {
        eprintln!("swbench: could not write {}: {e}", path.display());
    }
    let meta = &mut r.meta;
    meta.push(("events".into(), trace.events.len().to_string()));
    meta.push(("trace_digest".into(), format!("\"{:016x}\"", trace.digest())));
    let closed = residual.abs() <= LEDGER_TOLERANCE_PCT;
    meta.push(("ledger_within_tolerance".into(), closed.to_string()));
    meta.push((
        "spans".into(),
        format!("\"{}\"", crate::report::escape(&path.display().to_string())),
    ));
    meta.push(("stamp_ns".into(), spans.stamp_ns.to_string()));
    meta.push(("rounds".into(), rounds.to_string()));
    let fanned = last.as_ref().map_or(0.0, |run| run.fanned_share);
    meta.push(("runtime.fanned_share".into(), crate::report::num(fanned)));
    r
}

/// Per-property table on stderr, ranked by apply cost.
fn print_ranking(props: &[crate::traced::PropLedger], n: f64) {
    let mut rows: Vec<&crate::traced::PropLedger> = props.iter().collect();
    rows.sort_by(|a, b| b.apply_ns.total_cmp(&a.apply_ns));
    eprintln!(
        "{:<4} {:<40} {:>10} {:>9} {:>9} {:>10} {:>9}",
        "rank", "property", "apply_ns", "delivered", "share", "live_peak", "violations"
    );
    for (i, p) in rows.iter().enumerate() {
        eprintln!(
            "{:<4} {:<40} {:>10.1} {:>9} {:>9.3} {:>10} {:>9}",
            i + 1,
            p.name,
            p.apply_ns,
            p.delivered,
            p.delivered as f64 / n,
            p.live_peak,
            p.violations
        );
    }
}

/// The store-query stream: catalog-mix's own violations (one closed
/// session over the seed's catalog-mix trace, recorded as published),
/// replicated until it holds at least [`STREAM_ROWS`] rows, in batches of
/// the session's mean checkpoint publication size.
pub fn store_stream(seed: u64) -> Vec<(u32, Vec<ViolationRecord>)> {
    let trace = trace(Workload::StoreQuery, seed);
    let rt = ShardedRuntime::new(properties(Workload::StoreQuery), RuntimeConfig::default())
        .expect("catalog properties are valid");
    let sink = Arc::new(storeq::RecordingSink::default());
    let mut s = rt.start_with_sink(Some(sink.clone() as Arc<dyn ViolationSink>));
    for ev in &trace.events {
        s.feed(ev).expect("catalog session accepts the trace");
    }
    s.finish(trace.end).expect("catalog session finishes");
    let batches = sink.take();
    // Each shard's last publication is its finish flush, sized by where
    // the trace happens to end. A long stream is published at checkpoint
    // cadence, so it is cut into batches of the checkpoint publications'
    // mean size, on their shards in turn; a uniform size keeps the
    // accumulation wait in `detect_*` from hinging on a seed's largest
    // batch.
    let mut checkpoints: Vec<(u32, usize)> = Vec::new();
    for (i, (shard, b)) in batches.iter().enumerate() {
        let flush = batches[i + 1..].iter().all(|(s, _)| s != shard);
        if !flush && !b.is_empty() {
            checkpoints.push((*shard, b.len()));
        }
    }
    if checkpoints.is_empty() {
        checkpoints = batches.iter().map(|(s, b)| (*s, b.len())).collect();
    }
    let mean_rows = checkpoints.iter().map(|c| c.1).sum::<usize>() / checkpoints.len().max(1);
    let sizes: Vec<(u32, usize)> = checkpoints.iter().map(|c| (c.0, mean_rows)).collect();
    let records: Vec<ViolationRecord> = batches.into_iter().flat_map(|(_, b)| b).collect();
    let copies = STREAM_ROWS.div_ceil(records.len().max(1));
    let span = trace.end.as_nanos();
    let rows = (0..copies as u64).flat_map(|k| storeq::replica(&records, k, span)).collect();
    storeq::rebatch(rows, &sizes)
}

/// The store-query checks on a sealed store: every mix query agrees with
/// a reference scan of all rows.
fn sealed_agrees(store: &Store, rows: &[(u32, &ViolationRecord)], mix: &[MixQuery]) -> bool {
    mix.iter().all(|q| storeq::agrees(&store.query(&q.query), rows, &q.query))
}

/// Untraced store-query run.
pub fn store_e2e(seed: u64, seconds: f64) -> RunResult {
    let w = Workload::StoreQuery;
    let mut r = RunResult { correct: true, ..Default::default() };
    meta_common(&mut r, w, seed, seconds, false);
    let stream = store_stream(seed);
    let rows: Vec<(u32, &ViolationRecord)> =
        stream.iter().flat_map(|(s, b)| b.iter().map(move |r| (*s, r))).collect();
    let merged = merge(rows.iter().map(|(_, r)| (*r).clone()).collect());
    let sources: Vec<(&'static str, String)> =
        storeq::mix(&merged, seed).into_iter().map(|q| (q.kind, q.swql)).collect();
    let mut build = || {
        let names: Vec<String> = catalog().into_iter().map(|p| p.name).collect();
        let mix: Vec<MixQuery> = sources
            .iter()
            .map(|(kind, src)| {
                let query = swmon_store::parse(src).expect("mix queries parse");
                let warnings =
                    swmon_store::validate_properties(&query, names.iter().map(String::as_str));
                assert!(warnings.is_empty(), "mix names only catalog properties");
                MixQuery { kind, swql: src.clone(), query }
            })
            .collect();
        (Store::new(), mix)
    };
    let (_, mix) = build();
    let mut clock = SetupClock::new();

    let (mut rps, mut ingest_rps, mut query_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut sealed: Option<Store> = None;
    let mut detect_ns = Vec::new();
    let mut mem_mb = None;
    let mut open_batches = 0;
    let mut open_rows = 0;
    while open_batches < stream.len() && open_rows < OPEN_ROWS {
        open_rows += stream[open_batches].1.len();
        open_batches += 1;
    }
    let query_rounds = MIN_QUERY_SAMPLES.div_ceil(mix.len());
    let done = interleave(seconds, [MIN_REPS, query_rounds, MIN_REPS], |phase| {
        if phase == QUERY {
            if let Some(store) = &sealed {
                query_us.extend(mix.iter().map(|q| storeq::timed(store, q).1));
            }
            return;
        }
        clock.tick(&mut build, SETUP_PER_REP);
        r.attempted += 1;
        let store = Store::new();
        if phase == CLOSED {
            let pass = storeq::pass(&store, &stream, &mix, QUERY_EVERY, stream.len() / 2);
            if let Some(i) = pass.mismatch {
                return r
                    .fail(&format!("live query after batch {i} differs from a reference scan"));
            }
            store.seal(&merged);
            if !sealed_agrees(&store, &rows, &mix) {
                return r.fail("sealed query differs from a reference scan");
            }
            rps.push(rows.len() as f64 / (pass.wall_ns as f64 / 1e9));
            ingest_rps.push(rows.len() as f64 / (pass.ingest_ns.max(1) as f64 / 1e9));
            sealed = Some(store);
            return;
        }
        let paced = storeq::paced(&store, &stream[..open_batches], w.open_rate());
        if mem_mb.is_none() {
            mem_mb = Some(crate::report::peak_rss_mb());
        }
        if store.len() != open_rows as u64 {
            return r.fail("an open-loop pass lost rows");
        }
        if session::backlogged(&paced.lateness_ns, BACKLOG_SLACK_MS) {
            eprintln!("swbench: open-loop repetition backlogged; latencies not reported");
            r.failed += 1;
        } else {
            detect_ns.extend(paced.latencies_ns);
        }
    });

    let setup_s = clock.median(&mut build);
    let m = &mut r.metrics;
    put_opt(m, "events_per_s", median(&rps), 1.0, "1/s");
    put_opt(m, "detect_p50_ms", chunked_quantile(&detect_ns, 0.50), 1e-6, "ms");
    put_opt(m, "detect_p99_ms", chunked_quantile(&detect_ns, 0.99), 1e-6, "ms");
    put_opt(m, "ingest_rows_per_s", median(&ingest_rps), 1.0, "1/s");
    put_opt(m, "query_p50_us", mix_quantile(&query_us, mix.len(), 0.50), 1.0, "us");
    put_opt(m, "query_p99_us", chunked_quantile(&query_us, 0.99), 1.0, "us");
    m.put("setup_s", setup_s, "s");
    m.put("mem_peak_mb", mem_mb.unwrap_or_else(crate::report::peak_rss_mb), "MB");
    let meta = &mut r.meta;
    meta.push(("rows".into(), rows.len().to_string()));
    meta.push(("batches".into(), stream.len().to_string()));
    meta.push(("open_rate".into(), crate::report::num(w.open_rate())));
    meta.push(("closed_reps".into(), done[CLOSED].to_string()));
    meta.push(("open_reps".into(), done[OPEN].to_string()));
    meta.push(("detect_samples".into(), detect_ns.len().to_string()));
    meta.push(("query_samples".into(), query_us.len().to_string()));
    meta.push(("runtime.fanned_share".into(), "null".into()));
    r
}

/// Traced store-query run: store-layer metrics; the engine and runtime
/// do no work on this workload, so their metrics read 0.
pub fn store_traced(seed: u64, seconds: f64, out_dir: &std::path::Path) -> RunResult {
    let w = Workload::StoreQuery;
    let mut r = RunResult { correct: true, ..Default::default() };
    meta_common(&mut r, w, seed, seconds, true);
    let stream = store_stream(seed);
    let all: Vec<ViolationRecord> = stream.iter().flat_map(|(_, b)| b.iter().cloned()).collect();
    let rows: Vec<(u32, &ViolationRecord)> =
        stream.iter().flat_map(|(s, b)| b.iter().map(move |r| (*s, r))).collect();
    let merged = merge(all.clone());
    let mix = storeq::mix(&all, seed);
    let mut spans = Spans::new();
    let pass_name = spans.name("store.pass");
    let ingest_name = spans.name("store.ingest");
    let query_name = spans.name("store.query");
    let seal_name = spans.name("store.seal");

    // Traced pass: one span per ingest batch and per live query.
    r.attempted += 1;
    let store = Store::new();
    let p0 = spans.now();
    let mut child = Vec::new();
    let mut live_us = Vec::new();
    for (i, (shard, recs)) in stream.iter().enumerate() {
        let s = spans.now();
        store.ingest(*shard, recs);
        let e = spans.now();
        child.push((ingest_name, s, e));
        if (i + 1) % QUERY_EVERY == 0 {
            for q in storeq::group(&mix, (i + 1) / QUERY_EVERY) {
                let s = spans.now();
                std::hint::black_box(store.query(&q.query));
                let e = spans.now();
                child.push((query_name, s, e));
                live_us.push((e - s) as f64 / 1e3);
            }
        }
    }
    let p1 = spans.now();
    let pass_id = spans.push(pass_name, p0, p1, None);
    for (name, s, e) in child {
        spans.push(name, s, e, Some(pass_id));
    }
    let segments = store.segment_count();
    let s0 = spans.now();
    store.seal(&merged);
    let s1 = spans.now();
    spans.push(seal_name, s0, s1, None);
    if !sealed_agrees(&store, &rows, &mix) {
        r.fail("sealed query differs from a reference scan");
    }

    // Untraced twin passes for the tracing overhead.
    let budget = Duration::from_secs_f64(seconds * 0.5);
    let started = Instant::now();
    let mut twin_ns = Vec::new();
    while started.elapsed() < budget || twin_ns.is_empty() {
        let twin = Store::new();
        twin_ns.push(storeq::pass(&twin, &stream, &mix, QUERY_EVERY, usize::MAX).wall_ns as f64);
    }
    let selfs = spans.self_times();
    let ingest: f64 = selfs.get("store.ingest").copied().unwrap_or(0.0);
    let pass_self: f64 = selfs.get("store.pass").copied().unwrap_or(0.0);
    let wall = (p1 - p0) as f64;

    let m = &mut r.metrics;
    for name in ["packet.parse_ns", "core.reference_ns", "core.apply_ns"] {
        m.put(name, 0.0, "ns");
    }
    for p in catalog() {
        m.put(format!("core.apply_ns.{}", metric_prop(&p.name)), 0.0, "ns");
    }
    for p in catalog() {
        m.put(format!("core.live_peak.{}", metric_prop(&p.name)), 0.0, "count");
    }
    for p in catalog() {
        m.put(format!("core.delivered_share.{}", metric_prop(&p.name)), 0.0, "ratio");
    }
    m.put("core.advance_ns", 0.0, "ns");
    m.put("core.snapshot_us", 0.0, "us");
    m.put("core.snapshot_bytes", 0.0, "bytes");
    m.put("runtime.route_ns", 0.0, "ns");
    m.put("runtime.filtered_share", 0.0, "ratio");
    m.put("runtime.overhead_ns", 0.0, "ns");
    m.put("runtime.fanned_share", 0.0, "ratio");
    m.put("runtime.shard_skew", 0.0, "ratio");
    m.put("runtime.publish_rows", 0.0, "count");
    m.put("runtime.publish_interval_ms", 0.0, "ms");
    m.put("runtime.feed_late_p99_ms", 0.0, "ms");
    m.put("runtime.finish_ms", 0.0, "ms");
    m.put("runtime.merge_ns_per_violation", 0.0, "ns");
    m.put("store.ingest_ns_per_row", ingest / all.len().max(1) as f64, "ns");
    m.put("store.segments", segments as f64, "count");
    m.put("store.seal_ms", (s1 - s0) as f64 / 1e6, "ms");
    m.put("store.bytes_per_row", store.to_bytes().len() as f64 / all.len().max(1) as f64, "bytes");
    let (kinds, _, scanned, matched) = mix_profile(&store, &mix);
    for (kind, us) in &kinds {
        m.put(format!("store.query_us.{kind}"), *us, "us");
    }
    m.put("store.query_us.live", median(&live_us).unwrap_or(0.0), "us");
    m.put("store.scanned_per_match", scanned as f64 / matched.max(1) as f64, "ratio");
    m.put("telemetry.overhead_pct", 0.0, "%");
    let residual = pass_self / wall * 100.0;
    m.put("ledger.residual_pct", residual, "%");
    let untraced = median(&twin_ns).unwrap_or(wall);
    m.put("trace.overhead_pct", (wall - untraced) / untraced * 100.0, "%");
    check_ledger(&mut r, residual);

    let path = out_dir.join(format!("spans-{}-{seed}.jsonl", w.name()));
    if let Err(e) = spans.write(&path) {
        eprintln!("swbench: could not write {}: {e}", path.display());
    }
    let meta = &mut r.meta;
    meta.push(("rows".into(), all.len().to_string()));
    meta.push((
        "spans".into(),
        format!("\"{}\"", crate::report::escape(&path.display().to_string())),
    ));
    meta.push(("runtime.fanned_share".into(), "null".into()));
    r
}
