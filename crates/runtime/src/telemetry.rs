//! The runtime's telemetry hub: shared atomics the router and every shard
//! thread write through, readable at any moment from outside the run.
//!
//! This is the *live snapshot channel* that replaces end-of-run-only
//! statistics: [`Session::live_stats`](crate::Session::live_stats) builds a
//! [`RuntimeStats`] from these atomics mid-run, and [`TelemetryHub::export`]
//! renders the full metric page ([`swmon_telemetry::Snapshot`]) for the
//! `repro stats` subcommand.
//!
//! ## Consistency of live reads
//!
//! Counters are independent `Relaxed` atomics, so a reader can observe one
//! counter a moment staler than another. Live snapshots are made
//! *internally* consistent by construction where it matters: a live
//! [`ShardStats::events`] is computed as `processed + shed` from the same
//! two atomics the loss audit reads, so
//! [`RuntimeStats::unaccounted_loss`] is zero on every live snapshot by
//! construction, and every counter is monotone — a live snapshot is always
//! component-wise ≤ the final one.

use std::sync::Arc;

use crate::config::TelemetryConfig;
use crate::stats::{RuntimeStats, ShardStats};
use swmon_telemetry::{names, Counter, EngineProbe, Gauge, Histogram, Key, Snapshot, SpanTracer};

/// Per-shard counters, written by the shard's supervisor thread at the same
/// points the supervisor advances its private ledger.
#[derive(Debug, Default)]
pub struct ShardProbe {
    /// Items received from the router.
    pub delivered: Counter,
    /// Items applied to the monitors exactly once.
    pub processed: Counter,
    /// Items explicitly shed (journal bound hit).
    pub shed: Counter,
    /// Crash recoveries performed.
    pub restarts: Counter,
    /// Checkpoints taken.
    pub checkpoints: Counter,
    /// Journal items re-applied during recoveries.
    pub replayed: Counter,
    /// Violations raised with downgraded provenance.
    pub degraded_violations: Counter,
    /// Wall-clock nanoseconds spent restoring checkpoints.
    pub recovery_nanos: Counter,
    /// Violations reported so far (monotone across recoveries: replay
    /// re-discovers, it never un-discovers).
    pub violations: Gauge,
    /// Live instances across the shard's monitors, as of the last batch.
    pub live_instances: Gauge,
    /// Recovery-journal depth observed at each batch admission.
    pub queue_depth: Histogram,
    /// Per-recovery checkpoint-restore latency, nanoseconds.
    pub recovery: Histogram,
    /// Per-checkpoint capture latency, nanoseconds (snapshot every hosted
    /// monitor, release the previous checkpoint).
    pub checkpoint: Histogram,
    /// Per-deploy quiesce pause, nanoseconds (journal drain + forced
    /// checkpoint + snapshot encode). Empty until a deploy quiesces.
    pub quiesce: Histogram,
    /// Checkpoint-stable violation records published to the live store
    /// sink ([`crate::sink::ViolationSink`]). Zero when no sink is wired.
    pub store_published: Counter,
    /// SPSC ring occupancy (queued batches) sampled at each batch send.
    /// Empty while the session runs inline (nothing is enqueued).
    pub ring_occupancy: Histogram,
}

/// All shared instrumentation for one run: router counters, per-shard
/// probes, per-property engine probes, and the span tracer.
#[derive(Debug)]
pub struct TelemetryHub {
    /// Events fed to the router.
    pub events_in: Counter,
    /// Event deliveries across all shards.
    pub deliveries: Counter,
    /// Events delivered nowhere.
    pub skipped: Counter,
    /// Channel batches sent.
    pub batches: Counter,
    /// Canonically merged records handed to the store sink at seal time.
    /// Zero when no sink is wired (or until the session finishes).
    pub store_sealed: Counter,
    /// The catalog epoch in effect: 0 at session start, set to the
    /// committed epoch by every applied [`crate::Session::deploy`].
    pub property_set_epoch: Gauge,
    /// Deploy plans committed on every shard.
    pub deploys_applied: Counter,
    /// Deploy plans rolled back (validation rejection or aborted prepare).
    pub deploys_rolled_back: Counter,
    /// Ingress mode in effect: 0 inline (caller-thread supervision), 1
    /// fanned out (per-shard worker threads fed over SPSC rings).
    pub ingress_mode: Gauge,
    /// Adaptive inline→fanned transitions (the initial fan-out of a
    /// non-adaptive session is not counted).
    pub fan_outs: Counter,
    /// Adaptive fanned→inline transitions.
    pub fan_ins: Counter,
    shards: Vec<Arc<ShardProbe>>,
    engines: Vec<Arc<EngineProbe>>,
    tracer: Arc<SpanTracer>,
    hashed_properties: usize,
    pinned_properties: usize,
}

impl TelemetryHub {
    /// Build the hub for `shards` workers over the named properties.
    pub(crate) fn new(
        shards: usize,
        property_names: &[&str],
        cfg: &TelemetryConfig,
        hashed_properties: usize,
        pinned_properties: usize,
    ) -> Arc<Self> {
        let engines = property_names
            .iter()
            .map(|name| EngineProbe::new(name, if cfg.engine { cfg.stage_sample_every } else { 0 }))
            .collect();
        Arc::new(TelemetryHub {
            events_in: Counter::new(),
            deliveries: Counter::new(),
            skipped: Counter::new(),
            batches: Counter::new(),
            store_sealed: Counter::new(),
            property_set_epoch: Gauge::new(),
            deploys_applied: Counter::new(),
            deploys_rolled_back: Counter::new(),
            ingress_mode: Gauge::new(),
            fan_outs: Counter::new(),
            fan_ins: Counter::new(),
            shards: (0..shards).map(|_| Arc::new(ShardProbe::default())).collect(),
            engines,
            tracer: Arc::new(SpanTracer::sampled(
                cfg.trace_every,
                cfg.trace_seed,
                cfg.trace_capacity,
            )),
            hashed_properties,
            pinned_properties,
        })
    }

    /// Shard `s`'s probe.
    pub fn shard(&self, s: usize) -> &Arc<ShardProbe> {
        &self.shards[s]
    }

    /// Per-property engine probes, in property order. Empty histograms and
    /// zero counters when the engine layer is disabled.
    pub fn engines(&self) -> &[Arc<EngineProbe>] {
        &self.engines
    }

    /// The span tracer (disabled unless configured).
    pub fn tracer(&self) -> &Arc<SpanTracer> {
        &self.tracer
    }

    /// A live [`RuntimeStats`] built from the shared atomics. Satisfies
    /// `unaccounted_loss() == 0` at any moment and is component-wise
    /// monotone towards the final stats (see module docs). Monitoring-gap
    /// episodes are supervisor-private until the run finishes, so `gaps`
    /// is empty here; the shed *count* is live.
    pub fn live_stats(&self) -> RuntimeStats {
        let mut stats = RuntimeStats {
            events_in: self.events_in.get(),
            deliveries: self.deliveries.get(),
            skipped: self.skipped.get(),
            batches: self.batches.get(),
            hashed_properties: self.hashed_properties,
            pinned_properties: self.pinned_properties,
            property_set_epoch: self.property_set_epoch.get(),
            deploys_applied: self.deploys_applied.get(),
            deploys_rolled_back: self.deploys_rolled_back.get(),
            fan_outs: self.fan_outs.get(),
            fan_ins: self.fan_ins.get(),
            ..Default::default()
        };
        for probe in &self.shards {
            let processed = probe.processed.get();
            let shed = probe.shed.get();
            stats.per_shard.push(ShardStats {
                events: processed + shed,
                violations: probe.violations.get(),
                live_instances: probe.live_instances.get(),
                processed,
                shed,
                restarts: probe.restarts.get(),
            });
            stats.restarts += probe.restarts.get();
            stats.checkpoints += probe.checkpoints.get();
            stats.replayed += probe.replayed.get();
            stats.shed += shed;
            stats.degraded_violations += probe.degraded_violations.get();
            stats.recovery_nanos += probe.recovery_nanos.get();
            stats.quiesce_nanos += probe.quiesce.snapshot().sum;
        }
        // `stats.engine` stays zeroed: engine probes count every monitor
        // application *including recovery replays*, while the final
        // MonitorStats are checkpoint-restored and count each event once —
        // folding probes in here would break monotonicity towards the
        // final stats. Per-property engine activity lives on the exported
        // page ([`TelemetryHub::export`]) instead.
        stats
    }

    /// Freeze the full metric page. Every name on it comes from
    /// [`swmon_telemetry::names`]; the catalog test keeps that closed.
    pub fn export(&self) -> Snapshot {
        let mut page = Snapshot::default();
        page.counters.push((Key::plain(names::EVENTS_IN), self.events_in.get()));
        page.counters.push((Key::plain(names::DELIVERIES), self.deliveries.get()));
        page.counters.push((Key::plain(names::SKIPPED), self.skipped.get()));
        page.counters.push((Key::plain(names::BATCHES), self.batches.get()));
        page.counters.push((Key::plain(names::STORE_SEALED), self.store_sealed.get()));
        page.gauges.push((Key::plain(names::PROPERTY_SET_EPOCH), self.property_set_epoch.get()));
        page.counters.push((Key::plain(names::DEPLOYS_APPLIED), self.deploys_applied.get()));
        page.counters
            .push((Key::plain(names::DEPLOYS_ROLLED_BACK), self.deploys_rolled_back.get()));
        page.gauges.push((Key::plain(names::INGRESS_MODE), self.ingress_mode.get()));
        page.counters.push((Key::plain(names::FAN_OUTS), self.fan_outs.get()));
        page.counters.push((Key::plain(names::FAN_INS), self.fan_ins.get()));
        for (s, probe) in self.shards.iter().enumerate() {
            let c = |name: &str, v: u64| (Key::labeled(name, "shard", s), v);
            page.counters.push(c(names::SHARD_DELIVERED, probe.delivered.get()));
            page.counters.push(c(names::SHARD_PROCESSED, probe.processed.get()));
            page.counters.push(c(names::SHARD_SHED, probe.shed.get()));
            page.counters.push(c(names::SHARD_RESTARTS, probe.restarts.get()));
            page.counters.push(c(names::SHARD_CHECKPOINTS, probe.checkpoints.get()));
            page.counters.push(c(names::SHARD_REPLAYED, probe.replayed.get()));
            page.counters.push(c(names::SHARD_DEGRADED, probe.degraded_violations.get()));
            page.counters.push(c(names::SHARD_VIOLATIONS, probe.violations.get()));
            page.counters.push(c(names::SHARD_STORE_PUBLISHED, probe.store_published.get()));
            page.histograms.push((
                Key::labeled(names::SHARD_QUEUE_DEPTH, "shard", s),
                probe.queue_depth.snapshot(),
            ));
            page.histograms.push((
                Key::labeled(names::SHARD_RECOVERY_NANOS, "shard", s),
                probe.recovery.snapshot(),
            ));
            page.histograms.push((
                Key::labeled(names::SHARD_CHECKPOINT_NANOS, "shard", s),
                probe.checkpoint.snapshot(),
            ));
            page.histograms.push((
                Key::labeled(names::SHARD_QUIESCE_NANOS, "shard", s),
                probe.quiesce.snapshot(),
            ));
            page.histograms.push((
                Key::labeled(names::SHARD_RING_OCCUPANCY, "shard", s),
                probe.ring_occupancy.snapshot(),
            ));
        }
        for engine in &self.engines {
            let k = |name: &str| Key::labeled(name, "property", engine.name());
            page.counters.push((k(names::PROPERTY_EVENTS), engine.events.get()));
            page.gauges.push((k(names::PROPERTY_LIVE), engine.live.get()));
            page.histograms.push((k(names::PROPERTY_STAGE_NANOS), engine.stage_nanos.snapshot()));
            page.histograms.push((k(names::PROPERTY_OCCUPANCY), engine.occupancy.snapshot()));
        }
        page.spans = self.tracer.collect();
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> Arc<TelemetryHub> {
        TelemetryHub::new(2, &["fw", "dhcp"], &TelemetryConfig::default(), 1, 1)
    }

    #[test]
    fn live_stats_reconcile_by_construction() {
        let h = hub();
        h.events_in.add(10);
        h.deliveries.add(12);
        h.shard(0).processed.add(7);
        h.shard(0).shed.add(2);
        h.shard(1).processed.add(3);
        let live = h.live_stats();
        assert_eq!(live.unaccounted_loss(), 0);
        assert_eq!(live.per_shard[0].events, 9);
        assert_eq!(live.shed, 2);
        assert_eq!((live.hashed_properties, live.pinned_properties), (1, 1));
    }

    #[test]
    fn export_covers_exactly_the_catalog() {
        let h = hub();
        h.shard(1).queue_depth.record(3);
        let page = h.export();
        let mut exported = page.names();
        exported.sort_unstable();
        let mut catalog: Vec<&str> = names::ALL.to_vec();
        catalog.sort_unstable();
        assert_eq!(exported, catalog);
    }

    #[test]
    fn disabled_engine_layer_never_times() {
        use swmon_core::Recorder;
        let h = TelemetryHub::new(1, &["fw"], &TelemetryConfig::off(), 0, 1);
        assert!(!h.engines()[0].should_time(0));
        assert!(!h.tracer().enabled());
    }
}
