//! Versioned, serializable [`Monitor`](crate::Monitor) checkpoints.
//!
//! A [`MonitorSnapshot`] is a faithful image of a monitor's semantic state —
//! instance slots (with interned bindings and per-stage identity tokens),
//! the free-list, the timer wheel with its exact tie-break counters, pending
//! split-mode effects, violations not yet taken and every statistics
//! counter. It is produced by [`Monitor::snapshot`](crate::Monitor::snapshot)
//! and consumed by [`Monitor::restore`](crate::Monitor::restore); the
//! fault-tolerant runtime checkpoints shards with it (`docs/FAULTS.md`).
//!
//! ## Encoding
//!
//! [`MonitorSnapshot::to_bytes`] emits the canonical [`crate::wire`]
//! little-endian binary format (magic `SWMS`, then a `u16` version —
//! currently [`SNAPSHOT_VERSION`]). The format is versioned so a checkpoint
//! written by one build is either read correctly or rejected loudly by
//! another; it is *not* a wire protocol and makes no cross-endianness
//! promises beyond always writing little-endian.
//! [`MonitorSnapshot::from_bytes`] validates structurally (tags, lengths,
//! trailing bytes); semantic validation against the receiving monitor's
//! property happens in `restore`.
//!
//! The generic primitives and the shared codecs (field values, bindings,
//! events, violations) live in [`crate::wire`]; only the engine-private
//! structures (instances, effects, stats) are encoded here.

use crate::engine::{Effect, Instance, KillReason, MonitorStats, TimerKind};
use crate::slots::Slots;
use crate::violation::Violation;
pub use crate::wire::SnapshotError;
use crate::wire::{Reader, Writer};
use swmon_sim::time::Instant;
use swmon_sim::timer::{TimerEntry, TimerId, TimerWheel, TimerWheelSnapshot};
use swmon_sim::trace::PacketId;

/// Current snapshot encoding version. Bump on any layout change.
pub const SNAPSHOT_VERSION: u16 = 1;

const MAGIC: &[u8; 4] = b"SWMS";

/// A complete, restorable image of one monitor's state.
///
/// Obtain via [`Monitor::snapshot`](crate::Monitor::snapshot); apply via
/// [`Monitor::restore`](crate::Monitor::restore). The derived lookup
/// structures (dedup index, stage buckets, capacity cells) are not part of
/// the snapshot — they are rebuilt deterministically from the slots.
///
/// A snapshot shares the monitor's slot chunks copy-on-write and holds a
/// plain clone of its timer wheel, so taking one costs O(chunks + timers)
/// rather than a copy of every instance. The canonical timer image
/// (tombstones dropped, sorted by arming sequence) is built only when the
/// snapshot is encoded or compared.
#[derive(Debug, Clone)]
pub struct MonitorSnapshot {
    pub(crate) property: String,
    pub(crate) stages: usize,
    pub(crate) slots: Slots,
    pub(crate) free: Vec<usize>,
    pub(crate) timers: TimerWheel<(usize, TimerKind)>,
    pub(crate) pending: Vec<(Instant, Effect)>,
    pub(crate) violations: Vec<Violation>,
    pub(crate) now: Instant,
    pub(crate) next_uid: u64,
    pub(crate) stats: MonitorStats,
}

impl MonitorSnapshot {
    /// Name of the property the snapshotted monitor was watching.
    pub fn property(&self) -> &str {
        &self.property
    }

    /// Number of live instances captured.
    pub fn live_instances(&self) -> usize {
        self.slots.live().count()
    }

    /// Violations raised up to the snapshot point and not yet taken
    /// ([`Monitor::take_violations`](crate::Monitor::take_violations)).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The clock value at the snapshot point.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(256);
        w.magic(MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w.str(&self.property);
        w.u64(self.stages as u64);
        w.u64(self.slots.len() as u64);
        for slot in self.slots.iter() {
            match slot {
                None => w.u8(0),
                Some(inst) => {
                    w.u8(1);
                    write_instance(&mut w, inst);
                }
            }
        }
        w.u64(self.free.len() as u64);
        for &f in &self.free {
            w.u64(f as u64);
        }
        let timers = self.timers.snapshot();
        w.u64(timers.next_id);
        w.u64(timers.next_seq);
        w.u64(timers.entries.len() as u64);
        for e in &timers.entries {
            w.u64(e.deadline.as_nanos());
            w.u64(e.seq);
            w.u64(e.id.to_raw());
            w.u64(e.generation);
            w.u64(e.payload.0 as u64);
            w.u8(match e.payload.1 {
                TimerKind::WindowExpiry => 0,
                TimerKind::Deadline => 1,
            });
        }
        w.u64(self.pending.len() as u64);
        for (ready, eff) in &self.pending {
            w.u64(ready.as_nanos());
            write_effect(&mut w, eff);
        }
        w.u64(self.violations.len() as u64);
        for v in &self.violations {
            w.violation(v);
        }
        w.u64(self.now.as_nanos());
        w.u64(self.next_uid);
        write_stats(&mut w, &self.stats);
        w.into_bytes()
    }

    /// Parse the versioned binary format back into a snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        r.expect_header(MAGIC, SNAPSHOT_VERSION)?;
        let property = r.str()?;
        let stages = r.len()?;
        let n_slots = r.len()?;
        let slots = (0..n_slots)
            .map(|_| match r.u8()? {
                0 => Ok(None),
                1 => Ok(Some(read_instance(&mut r)?)),
                t => Err(SnapshotError::BadTag { what: "slot", tag: t }),
            })
            .collect::<Result<Slots, _>>()?;
        let n_free = r.len()?;
        let mut free = Vec::with_capacity(n_free.min(1 << 20));
        for _ in 0..n_free {
            free.push(r.len()?);
        }
        let next_id = r.u64()?;
        let next_seq = r.u64()?;
        let n_timers = r.len()?;
        let mut entries = Vec::with_capacity(n_timers.min(1 << 20));
        for _ in 0..n_timers {
            let deadline = Instant::from_nanos(r.u64()?);
            let seq = r.u64()?;
            let id = TimerId::from_raw(r.u64()?);
            let generation = r.u64()?;
            let idx = r.len()?;
            let kind = match r.u8()? {
                0 => TimerKind::WindowExpiry,
                1 => TimerKind::Deadline,
                t => return Err(SnapshotError::BadTag { what: "timer kind", tag: t }),
            };
            entries.push(TimerEntry { deadline, seq, id, generation, payload: (idx, kind) });
        }
        let n_pending = r.len()?;
        let mut pending = Vec::with_capacity(n_pending.min(1 << 20));
        for _ in 0..n_pending {
            let ready = Instant::from_nanos(r.u64()?);
            pending.push((ready, read_effect(&mut r)?));
        }
        let n_violations = r.len()?;
        let mut violations = Vec::with_capacity(n_violations.min(1 << 20));
        for _ in 0..n_violations {
            violations.push(r.violation()?);
        }
        let now = Instant::from_nanos(r.u64()?);
        let next_uid = r.u64()?;
        let stats = read_stats(&mut r)?;
        r.expect_end()?;
        Ok(MonitorSnapshot {
            property,
            stages,
            slots,
            free,
            timers: TimerWheel::restore(&TimerWheelSnapshot { entries, next_id, next_seq }),
            pending,
            violations,
            now,
            next_uid,
            stats,
        })
    }
}

// ---- engine-private structure codecs -----------------------------------
//
// These encode `pub(crate)` engine types (instances, pending effects, stage
// counters) and so stay here; everything shareable lives in `crate::wire`.

fn write_instance(w: &mut Writer, inst: &Instance) {
    w.u64(inst.uid);
    w.u64(inst.awaiting as u64);
    w.bindings(&inst.bindings);
    w.u64(inst.stage_ids.len() as u64);
    for id in inst.stage_ids.iter() {
        w.opt_u64(id.map(|PacketId(x)| x));
    }
    w.u64(inst.history.len() as u64);
    for ev in &inst.history {
        w.event(ev);
    }
    w.opt_u64(inst.timer.map(TimerId::to_raw));
    w.opt_u64(inst.cell.map(|c| c as u64));
}

fn write_effect(w: &mut Writer, eff: &Effect) {
    match eff {
        Effect::Spawn { obs_time, bindings, stage_id, history } => {
            w.u8(0);
            w.u64(obs_time.as_nanos());
            w.bindings(bindings);
            w.opt_u64(stage_id.map(|PacketId(x)| x));
            w.u64(history.len() as u64);
            for ev in history {
                w.event(ev);
            }
        }
        Effect::Advance { obs_time, idx, uid, expected_stage, bindings, stage_id, event } => {
            w.u8(1);
            w.u64(obs_time.as_nanos());
            w.u64(*idx as u64);
            w.u64(*uid);
            w.u64(*expected_stage as u64);
            w.bindings(bindings);
            w.opt_u64(stage_id.map(|PacketId(x)| x));
            match event {
                None => w.u8(0),
                Some(ev) => {
                    w.u8(1);
                    w.event(ev);
                }
            }
        }
        Effect::Kill { idx, uid, expected_stage, reason } => {
            w.u8(2);
            w.u64(*idx as u64);
            w.u64(*uid);
            w.u64(*expected_stage as u64);
            w.u8(match reason {
                KillReason::Cleared => 0,
            });
        }
    }
}

fn write_stats(w: &mut Writer, s: &MonitorStats) {
    for v in [
        s.events,
        s.spawned,
        s.advanced,
        s.window_expired,
        s.cleared,
        s.deduplicated,
        s.refreshed,
        s.deadlines_fired,
        s.stale_effects_dropped,
        s.evicted,
        s.out_of_scope,
    ] {
        w.u64(v);
    }
}

fn read_instance(r: &mut Reader<'_>) -> Result<Instance, SnapshotError> {
    let uid = r.u64()?;
    let awaiting = r.len()?;
    let bindings = r.bindings()?;
    let n_ids = r.len()?;
    let stage_ids =
        (0..n_ids).map(|_| r.opt_u64().map(|id| id.map(PacketId))).collect::<Result<_, _>>()?;
    let n_hist = r.len()?;
    let mut history = Vec::with_capacity(n_hist.min(1 << 16));
    for _ in 0..n_hist {
        history.push(r.event()?);
    }
    let timer = r.opt_u64()?.map(TimerId::from_raw);
    let cell = match r.opt_u64()? {
        None => None,
        Some(c) => {
            Some(usize::try_from(c).map_err(|_| SnapshotError::Malformed("cell exceeds usize"))?)
        }
    };
    Ok(Instance { uid, awaiting, bindings, stage_ids, history, timer, cell })
}

fn read_effect(r: &mut Reader<'_>) -> Result<Effect, SnapshotError> {
    match r.u8()? {
        0 => {
            let obs_time = Instant::from_nanos(r.u64()?);
            let bindings = r.bindings()?;
            let stage_id = r.opt_u64()?.map(PacketId);
            let n = r.len()?;
            let mut history = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                history.push(r.event()?);
            }
            Ok(Effect::Spawn { obs_time, bindings, stage_id, history })
        }
        1 => {
            let obs_time = Instant::from_nanos(r.u64()?);
            let idx = r.len()?;
            let uid = r.u64()?;
            let expected_stage = r.len()?;
            let bindings = r.bindings()?;
            let stage_id = r.opt_u64()?.map(PacketId);
            let event = match r.u8()? {
                0 => None,
                1 => Some(r.event()?),
                t => return Err(SnapshotError::BadTag { what: "option", tag: t }),
            };
            Ok(Effect::Advance { obs_time, idx, uid, expected_stage, bindings, stage_id, event })
        }
        2 => {
            let idx = r.len()?;
            let uid = r.u64()?;
            let expected_stage = r.len()?;
            let reason = match r.u8()? {
                0 => KillReason::Cleared,
                t => return Err(SnapshotError::BadTag { what: "kill reason", tag: t }),
            };
            Ok(Effect::Kill { idx, uid, expected_stage, reason })
        }
        t => Err(SnapshotError::BadTag { what: "effect", tag: t }),
    }
}

fn read_stats(r: &mut Reader<'_>) -> Result<MonitorStats, SnapshotError> {
    Ok(MonitorStats {
        events: r.u64()?,
        spawned: r.u64()?,
        advanced: r.u64()?,
        window_expired: r.u64()?,
        cleared: r.u64()?,
        deduplicated: r.u64()?,
        refreshed: r.u64()?,
        deadlines_fired: r.u64()?,
        stale_effects_dropped: r.u64()?,
        evicted: r.u64()?,
        out_of_scope: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Monitor, MonitorConfig, ProcessingMode};
    use crate::guard::{Atom, Guard};
    use crate::pattern::{ActionPattern, EventPattern};
    use crate::property::{Property, RefreshPolicy, Stage, Unless, WindowSpec};
    use crate::var::var;
    use crate::violation::ProvenanceMode;
    use std::sync::Arc;
    use swmon_packet::{Field, Ipv4Address, MacAddr, Packet, PacketBuilder, TcpFlags};
    use swmon_sim::time::Duration;
    use swmon_sim::trace::{EgressAction, NetEvent, NetEventKind, PortNo, SwitchId};

    fn tcp(src: u8, dst: u8, flags: TcpFlags) -> Arc<Packet> {
        Arc::new(PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, src),
            MacAddr::new(2, 0, 0, 0, 0, dst),
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, dst),
            1000,
            80,
            flags,
            &[],
        ))
    }

    fn at(ms: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(ms)
    }

    fn arrival(t: Instant, src: u8, dst: u8, id: u64) -> NetEvent {
        NetEvent {
            time: t,
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(0),
                pkt: tcp(src, dst, TcpFlags::SYN),
                id: PacketId(id),
            },
        }
    }

    fn dropped(t: Instant, src: u8, dst: u8, id: u64) -> NetEvent {
        NetEvent {
            time: t,
            kind: NetEventKind::Departure {
                switch: SwitchId(0),
                pkt: tcp(src, dst, TcpFlags::ACK),
                id: PacketId(id),
                action: EgressAction::Drop,
            },
        }
    }

    fn fw_timeout() -> Property {
        let mut second = Stage::match_(
            "return-dropped",
            EventPattern::Departure(ActionPattern::Drop),
            Guard::new(vec![
                Atom::Bind(var("B"), Field::Ipv4Src),
                Atom::Bind(var("A"), Field::Ipv4Dst),
            ]),
        );
        second.within = Some(WindowSpec::Fixed(Duration::from_millis(100)));
        second.within_refresh = RefreshPolicy::RefreshOnRepeat;
        second.unless = vec![Unless {
            pattern: EventPattern::Arrival,
            guard: Guard::new(vec![
                Atom::Bind(var("B"), Field::Ipv4Src),
                Atom::Bind(var("A"), Field::Ipv4Dst),
                Atom::EqConst(Field::TcpFlags, u64::from(TcpFlags::FIN.0).into()),
            ]),
        }];
        Property {
            name: "fw-snap".into(),
            statement: "return traffic is not dropped".into(),
            stages: vec![
                Stage::match_(
                    "outbound",
                    EventPattern::Arrival,
                    Guard::new(vec![
                        Atom::Bind(var("A"), Field::Ipv4Src),
                        Atom::Bind(var("B"), Field::Ipv4Dst),
                    ]),
                ),
                second,
            ],
        }
    }

    fn driven_monitor() -> Monitor {
        let mut m = Monitor::new(
            fw_timeout(),
            MonitorConfig { provenance: ProvenanceMode::Full, ..Default::default() },
        );
        for i in 0..40u64 {
            m.process(&arrival(at(i), (i % 9) as u8 + 1, 99, i));
            if i % 5 == 0 {
                m.process(&dropped(at(i) + Duration::from_micros(10), 99, (i % 9) as u8 + 1, i));
            }
        }
        m
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let m = driven_monitor();
        let snap = m.snapshot();
        let bytes = snap.to_bytes();
        let back = MonitorSnapshot::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.property(), snap.property());
        assert_eq!(back.live_instances(), snap.live_instances());
        assert_eq!(back.violations().len(), snap.violations().len());
        assert_eq!(back.now(), snap.now());
        assert_eq!(back.stats, snap.stats);
        assert_eq!(back.free, snap.free);
        assert_eq!(back.next_uid, snap.next_uid);
        assert_eq!(back.timers.snapshot(), snap.timers.snapshot());
        // Re-encoding the decode is byte-identical (canonical encoding).
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn restore_then_replay_matches_uninterrupted() {
        // Drive two monitors identically; snapshot/restore one mid-stream
        // (through bytes, to exercise the full encoding); suffix replay must
        // match the uninterrupted run exactly.
        let suffix: Vec<NetEvent> = (40..80u64)
            .flat_map(|i| {
                vec![
                    arrival(at(i), (i % 9) as u8 + 1, 99, i),
                    dropped(at(i) + Duration::from_micros(7), 99, (i % 9) as u8 + 1, i),
                ]
            })
            .collect();
        let mut reference = driven_monitor();
        let interrupted = driven_monitor();
        let bytes = interrupted.snapshot().to_bytes();
        drop(interrupted); // the "crashed" incarnation

        // Restore carries state, not configuration: the host must build the
        // replacement monitor with the same config as the crashed one.
        let mut revived = Monitor::new(
            fw_timeout(),
            MonitorConfig { provenance: ProvenanceMode::Full, ..Default::default() },
        );
        revived.restore(&MonitorSnapshot::from_bytes(&bytes).unwrap()).unwrap();
        for ev in &suffix {
            reference.process(ev);
            revived.process(ev);
        }
        reference.advance_to(at(2_000));
        revived.advance_to(at(2_000));
        assert_eq!(reference.stats, revived.stats);
        assert_eq!(reference.live_instances(), revived.live_instances());
        assert_eq!(reference.violations().len(), revived.violations().len());
        for (a, b) in reference.violations().iter().zip(revived.violations()) {
            assert_eq!(a.summary(), b.summary());
            assert_eq!(a.time, b.time);
            assert_eq!(a.bindings, b.bindings);
        }
        // And the final states snapshot identically, byte for byte.
        assert_eq!(reference.snapshot().to_bytes(), revived.snapshot().to_bytes());
    }

    #[test]
    fn restore_rejects_wrong_property() {
        let m = driven_monitor();
        let snap = m.snapshot();
        let other = Property {
            name: "something-else".into(),
            statement: "".into(),
            stages: vec![Stage::match_("only", EventPattern::Arrival, Guard::any())],
        };
        let mut target = Monitor::with_defaults(other);
        let err = target.restore(&snap).unwrap_err();
        assert!(matches!(err, SnapshotError::PropertyMismatch { .. }), "{err}");
    }

    #[test]
    fn decode_rejects_corruption() {
        let bytes = driven_monitor().snapshot().to_bytes();
        assert!(matches!(MonitorSnapshot::from_bytes(&bytes[..3]), Err(SnapshotError::Truncated)));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(MonitorSnapshot::from_bytes(&bad_magic), Err(SnapshotError::BadMagic)));
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xff;
        assert!(matches!(
            MonitorSnapshot::from_bytes(&bad_version),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(MonitorSnapshot::from_bytes(&trailing), Err(SnapshotError::Malformed(_))));
        // Truncation anywhere inside the body is detected, never a panic.
        for cut in (8..bytes.len()).step_by(97) {
            assert!(MonitorSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
    }

    /// Adversarial encoding robustness: arbitrary truncations and bit
    /// flips of a real `SWMS` image must surface as [`SnapshotError`] —
    /// never a panic — and a rejected [`Monitor::restore`] must leave the
    /// target monitor byte-identical to before the attempt (restore
    /// validates before mutating; see its `Malformed` paths). A flip that
    /// happens to decode *and* validate is allowed to restore: the format
    /// cannot distinguish it from a legitimate snapshot, which is exactly
    /// why the runtime journals events rather than trusting checkpoints
    /// blindly (`docs/FAULTS.md`).
    #[test]
    fn corrupted_bytes_never_panic_or_half_apply() {
        use proptest::prelude::*;
        let bytes = driven_monitor().snapshot().to_bytes();
        let len = bytes.len();
        proptest!(|(cut_pm in 0u32..1000, flip_pm in 0u32..1000, bit in 0u32..8)| {
            // Any strict prefix is rejected: either a field is cut short
            // (`Truncated`) or the length headers no longer reconcile.
            let cut = (len * cut_pm as usize / 1000).min(len - 1);
            prop_assert!(MonitorSnapshot::from_bytes(&bytes[..cut]).is_err());

            let mut flipped = bytes.clone();
            let idx = (len * flip_pm as usize / 1000).min(len - 1);
            flipped[idx] ^= 1 << bit;
            if let Ok(snap) = MonitorSnapshot::from_bytes(&flipped) {
                // Decoded structurally — semantic validation is restore's
                // job. Aim at a monitor that already holds state so a
                // half-applied restore would be visible.
                let mut target = driven_monitor();
                let before = target.snapshot().to_bytes();
                if target.restore(&snap).is_err() {
                    prop_assert_eq!(
                        target.snapshot().to_bytes(),
                        before,
                        "a rejected restore must not touch the monitor"
                    );
                }
            }
        });
    }

    #[test]
    fn split_mode_pending_effects_survive_snapshot() {
        let cfg = MonitorConfig {
            provenance: ProvenanceMode::Bindings,
            mode: ProcessingMode::Split { lag: Duration::from_millis(10) },
            ..Default::default()
        };
        let mut reference = Monitor::new(fw_timeout(), cfg);
        reference.process(&arrival(at(0), 1, 2, 0));
        reference.process(&dropped(at(50), 2, 1, 1));
        // Snapshot while both effects are still pending (lag not elapsed).
        let bytes = reference.snapshot().to_bytes();
        let mut revived = Monitor::new(fw_timeout(), cfg);
        revived.restore(&MonitorSnapshot::from_bytes(&bytes).unwrap()).unwrap();
        reference.advance_to(at(1_000));
        revived.advance_to(at(1_000));
        assert_eq!(reference.violations().len(), revived.violations().len());
        assert_eq!(reference.stats, revived.stats);
    }

    #[test]
    fn capacity_bounded_store_restores_cells() {
        let cfg = MonitorConfig { capacity: Some(4), ..Default::default() };
        let mut reference = Monitor::new(fw_timeout(), cfg);
        for i in 0..20u64 {
            reference.process(&arrival(at(i), (i % 11) as u8 + 1, 99, i));
        }
        assert!(reference.stats.evicted > 0, "collisions occurred");
        let bytes = reference.snapshot().to_bytes();
        let mut revived = Monitor::new(fw_timeout(), cfg);
        revived.restore(&MonitorSnapshot::from_bytes(&bytes).unwrap()).unwrap();
        for i in 20..40u64 {
            reference.process(&arrival(at(i), (i % 11) as u8 + 1, 99, i));
            revived.process(&arrival(at(i), (i % 11) as u8 + 1, 99, i));
        }
        assert_eq!(reference.stats, revived.stats, "eviction patterns identical after restore");
        assert_eq!(reference.snapshot().to_bytes(), revived.snapshot().to_bytes());
    }

    /// Snapshot isolation, catalog-wide. A snapshot shares the live
    /// monitor's slot chunks, so for every catalog property under inline,
    /// split and capacity-bounded configurations:
    ///
    /// - the snapshot's encoding must not change while the live monitor
    ///   keeps processing;
    /// - a monitor restored from that (now older) snapshot and fed the
    ///   suffix must equal the uninterrupted run, byte for byte;
    /// - two monitors restored from the one snapshot and fed different,
    ///   interleaved suffixes must each match a monitor restored from the
    ///   snapshot's bytes (which shares nothing) fed the same suffix.
    #[test]
    fn snapshots_are_isolated_catalog_wide() {
        use crate::testgen::catalog_trace;
        let full = MonitorConfig { provenance: ProvenanceMode::Full, ..Default::default() };
        let configs = [
            ("inline", full),
            (
                "split",
                MonitorConfig {
                    mode: ProcessingMode::Split { lag: Duration::from_millis(40) },
                    ..full
                },
            ),
            ("capacity", MonitorConfig { capacity: Some(16), ..full }),
        ];
        let end = at(10_000_000);
        let encoded = |m: &Monitor| m.snapshot().to_bytes();
        for property in crate::test_catalog() {
            let mut held = 0;
            for (c, &(label, cfg)) in configs.iter().enumerate() {
                for seed in 0..3u64 {
                    let ctx = format!("{} {label} seed {seed}", property.name);
                    let trace = catalog_trace(seed * 7 + c as u64, 900);
                    let cut = trace.len() / 3 + seed as usize * 41;
                    let fresh = || Monitor::new(property.clone(), cfg);
                    let mut live = fresh();
                    for ev in &trace[..cut] {
                        live.process(ev);
                    }
                    let snap = live.snapshot();
                    let frozen = snap.to_bytes();
                    held += snap.live_instances();
                    for ev in &trace[cut..] {
                        live.process(ev);
                    }
                    live.advance_to(end);
                    assert_eq!(
                        snap.to_bytes(),
                        frozen,
                        "{ctx}: the live monitor wrote into its snapshot"
                    );

                    let (mut a, mut b, mut b_alone) = (fresh(), fresh(), fresh());
                    a.restore(&snap).expect("restores");
                    b.restore(&snap).expect("restores");
                    b_alone
                        .restore(&MonitorSnapshot::from_bytes(&frozen).expect("decodes"))
                        .unwrap();
                    for (i, ev) in trace[cut..].iter().enumerate() {
                        a.process(ev);
                        if i % 3 != 0 {
                            b.process(ev);
                            b_alone.process(ev);
                        }
                    }
                    for m in [&mut a, &mut b, &mut b_alone] {
                        m.advance_to(end);
                    }
                    assert_eq!(
                        snap.to_bytes(),
                        frozen,
                        "{ctx}: a restored monitor wrote into the snapshot"
                    );
                    assert_eq!(a.live_instances(), live.live_instances(), "{ctx}");
                    assert_eq!(encoded(&a), encoded(&live), "{ctx}: restore + replay diverged");
                    assert_eq!(b.live_instances(), b_alone.live_instances(), "{ctx}");
                    assert_eq!(
                        encoded(&b),
                        encoded(&b_alone),
                        "{ctx}: sibling restores interfered"
                    );
                }
            }
            assert!(held > 0, "{}: no cut held a live instance", property.name);
        }
    }
}
