//! Driving a `ShardedRuntime` session the way a user runs it: closed loop
//! (feed as fast as the session accepts) or open loop (feed on a fixed
//! schedule), with a `StoreSink` behind a timestamping wrapper.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use swmon_runtime::{Outcome, RuntimeError, ShardedRuntime, ViolationRecord, ViolationSink};
use swmon_sim::trace::NetEvent;
use swmon_store::{Store, StoreSink};

/// Events between samples of `Session::is_fanned`.
const FAN_SAMPLE_EVERY: usize = 1_024;

/// One `ViolationSink::publish` call as the wrapper saw it.
#[derive(Debug, Clone, Copy)]
pub struct Publish {
    /// Wall nanoseconds since the run's origin when ingest started.
    pub start_ns: u64,
    /// Wall nanoseconds spent in the store's ingest.
    pub ingest_ns: u64,
    /// Publishing shard.
    pub shard: usize,
    /// Rows published.
    pub rows: usize,
}

#[derive(Debug, Default)]
struct Log {
    publishes: Vec<Publish>,
    /// Detection latencies (ns): publish time minus the due time of the
    /// triggering event. Open loop only.
    latencies_ns: Vec<f64>,
    /// Deadline firings drained at finish (`seq == u64::MAX`).
    drained: u64,
}

/// A `ViolationSink` that forwards to a `StoreSink` and stamps every
/// publication: rows per call, ingest time, and — when the feed follows a
/// schedule of `rate` events per second from `origin` — each violation's
/// detection latency.
#[derive(Debug)]
pub struct StampSink {
    inner: StoreSink,
    origin: Instant,
    rate: Option<f64>,
    log: Mutex<Log>,
}

impl StampSink {
    /// Wrap a fresh store. `rate` is the open-loop schedule, if any.
    pub fn new(store: Arc<Store>, origin: Instant, rate: Option<f64>) -> Self {
        StampSink { inner: StoreSink::over(store), origin, rate, log: Mutex::default() }
    }

    /// The publications so far, in call order.
    pub fn publishes(&self) -> Vec<Publish> {
        self.log.lock().expect("stamp log poisoned").publishes.clone()
    }

    /// Detection latencies (ns) and the count of finish-drained firings.
    pub fn latencies(&self) -> (Vec<f64>, u64) {
        let log = self.log.lock().expect("stamp log poisoned");
        (log.latencies_ns.clone(), log.drained)
    }
}

impl ViolationSink for StampSink {
    fn publish(&self, shard: usize, records: &[ViolationRecord]) {
        let start = self.origin.elapsed();
        self.inner.publish(shard, records);
        let done = self.origin.elapsed();
        let mut log = self.log.lock().expect("stamp log poisoned");
        log.publishes.push(Publish {
            start_ns: start.as_nanos() as u64,
            ingest_ns: (done - start).as_nanos() as u64,
            shard,
            rows: records.len(),
        });
        if let Some(rate) = self.rate {
            let now = done.as_nanos() as f64;
            for r in records {
                if r.seq == u64::MAX {
                    log.drained += 1;
                } else {
                    log.latencies_ns.push(now - r.seq as f64 * 1e9 / rate);
                }
            }
        }
    }

    fn seal(&self, merged: &[ViolationRecord]) {
        self.inner.seal(merged);
    }
}

/// What one session run produced.
#[derive(Debug)]
pub struct Run {
    /// The merged outcome.
    pub outcome: Outcome,
    /// Wall time of feeding every event plus `Session::finish`.
    pub wall: Duration,
    /// Wall time of `Session::finish` alone.
    pub finish: Duration,
    /// The sink the session published to.
    pub sink: Arc<StampSink>,
    /// The store behind the sink (sealed by finish).
    pub store: Arc<Store>,
    /// Share of `is_fanned` samples that found the session fanned out.
    pub fanned_share: f64,
    /// Open loop: how late each event was fed relative to its due time
    /// (ns), in feed order.
    pub lateness_ns: Vec<f64>,
}

/// Feed `events` as fast as the session accepts them, then finish.
pub fn closed(
    rt: &ShardedRuntime,
    events: &[NetEvent],
    end: swmon_sim::time::Instant,
) -> Result<Run, RuntimeError> {
    drive(rt, events, end, None)
}

/// Feed `events` on a fixed schedule of `rate` events per second: event
/// `i` is due `i / rate` seconds after the start. The feeder sleeps until
/// the next event is due and then feeds every due event in one burst, so
/// it never spins on a core the workers need.
pub fn open(
    rt: &ShardedRuntime,
    events: &[NetEvent],
    end: swmon_sim::time::Instant,
    rate: f64,
) -> Result<Run, RuntimeError> {
    drive(rt, events, end, Some(rate))
}

fn drive(
    rt: &ShardedRuntime,
    events: &[NetEvent],
    end: swmon_sim::time::Instant,
    rate: Option<f64>,
) -> Result<Run, RuntimeError> {
    let store = Arc::new(Store::new());
    let origin = Instant::now();
    let sink = Arc::new(StampSink::new(store.clone(), origin, rate));
    let mut session = rt.start_with_sink(Some(sink.clone() as Arc<dyn ViolationSink>));
    let mut fanned = 0usize;
    let mut samples = 0usize;
    let mut lateness_ns = Vec::new();
    match rate {
        None => {
            for (i, ev) in events.iter().enumerate() {
                if i % FAN_SAMPLE_EVERY == 0 {
                    samples += 1;
                    fanned += usize::from(session.is_fanned());
                }
                session.feed(ev)?;
            }
        }
        Some(rate) => {
            lateness_ns.reserve(events.len());
            let due = |i: usize| i as f64 * 1e9 / rate;
            let mut i = 0;
            while i < events.len() {
                let now = origin.elapsed().as_nanos() as f64;
                if due(i) > now {
                    std::thread::sleep(Duration::from_nanos((due(i) - now) as u64));
                    continue;
                }
                while i < events.len() {
                    let now = origin.elapsed().as_nanos() as f64;
                    if due(i) > now {
                        break;
                    }
                    if i % FAN_SAMPLE_EVERY == 0 {
                        samples += 1;
                        fanned += usize::from(session.is_fanned());
                    }
                    session.feed(&events[i])?;
                    lateness_ns.push(now - due(i));
                    i += 1;
                }
            }
        }
    }
    let finish_start = Instant::now();
    let outcome = session.finish(end)?;
    let finish = finish_start.elapsed();
    let wall = origin.elapsed();
    Ok(Run {
        outcome,
        wall,
        finish,
        sink,
        store,
        fanned_share: fanned as f64 / samples.max(1) as f64,
        lateness_ns,
    })
}

/// True when the open-loop feeder fell further and further behind: the
/// median lateness of the last quarter of the feed exceeds the first
/// quarter's by more than `slack_ms`. A backlogged run's detection
/// latencies measure the backlog, not the system.
pub fn backlogged(lateness_ns: &[f64], slack_ms: f64) -> bool {
    let q = lateness_ns.len() / 4;
    if q == 0 {
        return false;
    }
    let first = crate::report::median(&lateness_ns[..q]).unwrap_or(0.0);
    let last = crate::report::median(&lateness_ns[lateness_ns.len() - q..]).unwrap_or(0.0);
    last - first > slack_ms * 1e6
}
