//! The traced replay behind the per-layer ledger: parse every fresh
//! packet, then replay the trace through one `Monitor` per property the
//! way `MonitorSet` does (skipping events outside a property's class
//! mask), timing `advance_to`, `process` and a `snapshot()` at the default
//! checkpoint cadence. Every event is replayed; only sampled blocks carry
//! per-call spans.

use swmon_core::{event_class, Monitor, MonitorConfig, Property};
use swmon_runtime::merge::{kind_rank, merge};
use swmon_runtime::{signature, ViolationRecord};
use swmon_sim::time::Instant;
use swmon_sim::trace::NetEvent;

use crate::spans::Spans;

/// Events in sampled blocks per replay, roughly.
const SAMPLED_EVENTS: usize = 4_096;

/// Per-property results of the replay.
#[derive(Debug, Clone)]
pub struct PropLedger {
    /// Catalog name.
    pub name: String,
    /// Self time of `process`, ns per replayed event (all events, so the
    /// per-property values sum to `core.apply_ns`).
    pub apply_ns: f64,
    /// Self time of `advance_to`, ns per replayed event.
    pub advance_ns: f64,
    /// Events inside the property's class mask.
    pub delivered: u64,
    /// Peak `Monitor::live_instances`.
    pub live_peak: usize,
    /// Violations raised.
    pub violations: usize,
}

/// What the traced replay measured.
#[derive(Debug)]
pub struct Replay {
    /// `Packet::parsed()` ns per event on fresh packets.
    pub parse_ns: f64,
    /// Per-property ledger, in property order.
    pub props: Vec<PropLedger>,
    /// The final `advance_to(end)` drain, ns per event.
    pub drain_ns: f64,
    /// Mean wall µs of one checkpoint (a snapshot of every monitor).
    pub snapshot_us: f64,
    /// Mean encoded bytes of one checkpoint.
    pub snapshot_bytes: f64,
    /// Merged signatures of the replay's violations.
    pub signatures: Vec<String>,
}

impl Replay {
    /// Field-wise medians of repeated replays of one trace. Live peaks,
    /// delivered counts, violations and signatures are the same in every
    /// replay and are taken from the first.
    pub fn median(all: Vec<Replay>) -> Replay {
        let med = |f: &dyn Fn(&Replay) -> f64| {
            crate::report::median(&all.iter().map(f).collect::<Vec<f64>>()).unwrap_or(0.0)
        };
        let parse_ns = med(&|r| r.parse_ns);
        let drain_ns = med(&|r| r.drain_ns);
        let snapshot_us = med(&|r| r.snapshot_us);
        let props = (0..all[0].props.len())
            .map(|k| PropLedger {
                apply_ns: med(&|r| r.props[k].apply_ns),
                advance_ns: med(&|r| r.props[k].advance_ns),
                ..all[0].props[k].clone()
            })
            .collect();
        let first = all.into_iter().next().expect("at least one replay");
        Replay { parse_ns, props, drain_ns, snapshot_us, ..first }
    }
}

/// Parse phase: `Packet::parsed()` on every event's packet, in chunks of
/// 64 events, each chunk one span.
fn parse_all(events: &[NetEvent], spans: &mut Spans) -> f64 {
    let name = spans.name("packet.parse");
    for chunk in events.chunks(64) {
        let start = spans.now();
        for ev in chunk {
            if let Some(pkt) = ev.packet() {
                std::hint::black_box(pkt.parsed());
            }
        }
        let end = spans.now();
        spans.push(name, start, end, None);
    }
    spans.self_times().get("packet.parse").copied().unwrap_or(0.0) / events.len().max(1) as f64
}

/// Events per replay block.
const BLOCK: usize = 64;

/// Run the traced replay over `events` (fresh packets) for `props`.
///
/// Clock reads around every sub-microsecond call would perturb what they
/// time (each read serializes the pipeline), so the replay runs in blocks
/// of [`BLOCK`] events. Most blocks carry one span and no per-call stamps;
/// they give the monitors' total time per event. Every few blocks is a
/// sampled block whose calls each get an `advance`/`apply` span (children
/// of the block span); their shares split the total across properties
/// and between `advance_to` and `process`.
pub fn replay(
    props: &[Property],
    events: &[NetEvent],
    end: Instant,
    checkpoint_every: usize,
    spans: &mut Spans,
) -> Replay {
    let parse_ns = parse_all(events, spans);
    let cfg = MonitorConfig::default();
    let mut monitors: Vec<Monitor> = props.iter().map(|p| Monitor::new(p.clone(), cfg)).collect();
    let masks: Vec<u8> = props.iter().map(Property::event_class_mask).collect();
    let apply_names: Vec<u32> =
        props.iter().map(|p| spans.name(&format!("core.apply.{}", p.name))).collect();
    let advance_names: Vec<u32> =
        props.iter().map(|p| spans.name(&format!("core.advance.{}", p.name))).collect();
    let block_name = spans.name("core.block");
    let sampled_name = spans.name("core.sampled-block");
    let snap_name = spans.name("core.snapshot");
    let drain_name = spans.name("core.drain");
    let mut delivered = vec![0u64; props.len()];
    let mut peak = vec![0usize; props.len()];
    let blocks = events.len().div_ceil(BLOCK);
    let every = (blocks * BLOCK / SAMPLED_EVENTS).max(2);
    let mut snaps = 0usize;
    let mut snap_bytes = 0usize;
    let (mut plain_events, mut plain_ns) = (0usize, 0u64);
    let mut stamps: Vec<(usize, u64, u64, u64)> = Vec::with_capacity(props.len() * BLOCK);
    for (b, block) in events.chunks(BLOCK).enumerate() {
        let first = b * BLOCK;
        if b % every == 0 {
            stamps.clear();
            let start = spans.now();
            for ev in block {
                let class = event_class(ev);
                let mut t_prev = spans.now();
                for (k, m) in monitors.iter_mut().enumerate() {
                    if masks[k] & class == 0 {
                        continue;
                    }
                    m.advance_to(ev.time);
                    let t1 = spans.now();
                    m.process(ev);
                    let t2 = spans.now();
                    stamps.push((k, t_prev, t1, t2));
                    peak[k] = peak[k].max(m.live_instances());
                    t_prev = spans.now();
                }
            }
            let parent = spans.push(sampled_name, start, spans.now(), None);
            for &(k, t0, t1, t2) in &stamps {
                spans.push(advance_names[k], t0, t1, Some(parent));
                spans.push(apply_names[k], t1, t2, Some(parent));
            }
        } else {
            let start = spans.now();
            for ev in block {
                let class = event_class(ev);
                for (k, m) in monitors.iter_mut().enumerate() {
                    if masks[k] & class != 0 {
                        m.advance_to(ev.time);
                        m.process(ev);
                        peak[k] = peak[k].max(m.live_instances());
                    }
                }
            }
            let stop = spans.now();
            spans.push(block_name, start, stop, None);
            plain_events += block.len();
            plain_ns += stop - start;
        }
        // Bookkeeping outside every span.
        for ev in block {
            let class = event_class(ev);
            for (k, d) in delivered.iter_mut().enumerate() {
                *d += u64::from(masks[k] & class != 0);
            }
        }
        let before = first / checkpoint_every;
        let after = (first + block.len()) / checkpoint_every;
        if after > before {
            let start = spans.now();
            let taken: Vec<_> = monitors.iter().map(Monitor::snapshot).collect();
            let stop = spans.now();
            spans.push(snap_name, start, stop, None);
            snap_bytes += taken.iter().map(|s| s.to_bytes().len()).sum::<usize>();
            snaps += 1;
        }
    }
    let start = spans.now();
    for m in &mut monitors {
        m.advance_to(end);
    }
    let drain_end = spans.now();
    spans.push(drain_name, start, drain_end, None);

    // Monitor time per event from the unstamped blocks, split by the
    // sampled blocks' per-call shares.
    let selfs = spans.self_times();
    let total = plain_ns as f64 / plain_events.max(1) as f64;
    let stamped = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let stamped_all: f64 = props
        .iter()
        .map(|p| {
            stamped(&format!("core.apply.{}", p.name))
                + stamped(&format!("core.advance.{}", p.name))
        })
        .sum::<f64>()
        .max(1.0);
    let share = |name: &str| total * stamped(name) / stamped_all;
    let mut records = Vec::new();
    let mut ledger = Vec::new();
    for (k, m) in monitors.iter().enumerate() {
        let name = &props[k].name;
        ledger.push(PropLedger {
            name: name.clone(),
            apply_ns: share(&format!("core.apply.{name}")),
            advance_ns: share(&format!("core.advance.{name}")),
            delivered: delivered[k],
            live_peak: peak[k],
            violations: m.violations().len(),
        });
        for v in m.violations() {
            records.push(ViolationRecord {
                seq: 0,
                property: k,
                rank: kind_rank(m.property(), &v.trigger_stage),
                epoch: 0,
                violation: v.clone(),
            });
        }
    }
    let n = events.len().max(1) as f64;
    Replay {
        parse_ns,
        props: ledger,
        drain_ns: selfs.get("core.drain").copied().unwrap_or(0.0) / n,
        snapshot_us: selfs.get("core.snapshot").copied().unwrap_or(0.0) / snaps.max(1) as f64 / 1e3,
        snapshot_bytes: snap_bytes as f64 / snaps.max(1) as f64,
        signatures: merge(records).iter().map(signature).collect(),
    }
}
