//! The reference monitor engine.
//!
//! [`Monitor`] evaluates one [`Property`] over a switch event stream. It is
//! the *semantics oracle* of the workspace: every backend compilation in
//! `swmon-backends` is differential-tested against it.
//!
//! ## Instance lifecycle (Feature 8)
//!
//! Monitor state is a set of **instances** — partially completed attempts to
//! witness a violation. An event matching stage 0 spawns an instance; an
//! instance waiting at stage *k* advances when an event satisfies stage *k*'s
//! pattern and guard under its bindings; completing the final stage raises a
//! [`Violation`]. One event may advance *many* instances (multiple match) and
//! may simultaneously clear others — both orderings are fixed and
//! documented below.
//!
//! ## Event-processing order
//!
//! For an event at time *t*:
//! 1. all timers with deadline ≤ *t* fire first (a reply arriving exactly at
//!    the deadline is late);
//! 2. **clearings** run (`unless`, Feature 4) — an event that both clears
//!    and advances an instance clears it;
//! 3. **advances** run over the surviving instances (at most one stage per
//!    event per instance — observations are distinct events);
//! 4. **spawning** runs last (an event never advances the instance it
//!    spawned).
//!
//! ## Deduplication and refresh (Features 3, 7)
//!
//! Instances are keyed by `(awaiting stage, bindings)`. A spawn or advance
//! that collides with a live instance is dropped; if the incumbent's stage
//! policy is [`RefreshPolicy::RefreshOnRepeat`] its window restarts. This
//! one rule encodes both the firewall's "reset whenever a new A→B packet is
//! seen" and the ARP proxy's (T−1)-second-storm subtlety (a `NoRefresh`
//! deadline keeps ticking through repeats).
//!
//! ## Side-effect control (Feature 9)
//!
//! [`ProcessingMode::Inline`] applies state changes immediately.
//! [`ProcessingMode::Split`] matches events against *current* state but
//! applies mutations after `lag` — the paper's "state might lag behind any
//! packets issued in response, leading to monitor errors". Lagged advances
//! are re-validated at application time; races therefore produce exactly the
//! missed/duplicated observations the paper warns about, which experiment E6
//! quantifies.

use crate::property::{Property, RefreshPolicy, Stage, StageKind, WindowSpec};
use crate::routing::{KeySource, Probe, StageKeyPlan};
use crate::slots::Slots;
use crate::var::Bindings;
use crate::violation::{ProvenanceMode, Violation};
use std::collections::HashMap;
use swmon_packet::FieldValue;
use swmon_sim::time::{Duration, Instant};
use swmon_sim::timer::{TimerId, TimerWheel};
use swmon_sim::trace::{EventSink, NetEvent};
use swmon_sim::PacketId;

/// When monitor state updates take effect (Feature 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessingMode {
    /// Updates apply before the next event is examined.
    Inline,
    /// Updates apply `lag` after the event that caused them.
    Split {
        /// The state-update latency.
        lag: Duration,
    },
}

/// Monitor configuration.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Provenance retention (Feature 10).
    pub provenance: ProvenanceMode,
    /// Side-effect mode (Feature 9).
    pub mode: ProcessingMode,
    /// Restrict the monitor to one switch's events. `None` observes the
    /// whole network — the "one big switch" view the paper criticises SNAP
    /// for imposing; per-switch scope is what an on-switch monitor
    /// naturally has.
    pub scope: Option<swmon_sim::SwitchId>,
    /// Bound the instance store to this many hash-indexed cells, modelling
    /// register-array state (P4/SNAP/FAST): a spawn whose cell is occupied
    /// by a different live instance *evicts* the incumbent, silently losing
    /// its partial observation history — the monitor error mode register
    /// architectures trade for line-rate state. `None` is unbounded.
    pub capacity: Option<usize>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            provenance: ProvenanceMode::Bindings,
            mode: ProcessingMode::Inline,
            scope: None,
            capacity: None,
        }
    }
}

/// Counters describing what the monitor has done.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Events examined.
    pub events: u64,
    /// Instances spawned.
    pub spawned: u64,
    /// Stage advances performed.
    pub advanced: u64,
    /// Instances killed by `within` expiry (Feature 3).
    pub window_expired: u64,
    /// Instances cleared by `unless` observations (Feature 4).
    pub cleared: u64,
    /// Spawns/advances dropped as duplicates of a live instance.
    pub deduplicated: u64,
    /// Deduplications that also refreshed the incumbent's window.
    pub refreshed: u64,
    /// Deadline stages that fired (negative observations, Feature 7).
    pub deadlines_fired: u64,
    /// Split-mode effects dropped because re-validation failed (the paper's
    /// "monitor errors" under split processing).
    pub stale_effects_dropped: u64,
    /// Instances evicted by hash-cell collisions in a capacity-bounded
    /// store (register-array modelling).
    pub evicted: u64,
    /// Events ignored because they concern a switch outside the monitor's
    /// scope.
    pub out_of_scope: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    /// A `within` window expired: kill the instance.
    WindowExpiry,
    /// A `Deadline` stage matured: advance the instance.
    Deadline,
}

#[derive(Debug, Clone)]
pub(crate) struct Instance {
    /// Unique incarnation id, so deferred (split-mode) effects can never be
    /// mis-applied to a different instance that reused the slot.
    pub(crate) uid: u64,
    /// Index of the stage this instance waits to satisfy.
    pub(crate) awaiting: usize,
    pub(crate) bindings: Bindings,
    /// Identity token observed at each completed stage (None for deadline
    /// stages and OOB events).
    pub(crate) stage_ids: StageIds,
    /// Advancing events, kept only in `Full` provenance mode.
    pub(crate) history: Vec<NetEvent>,
    pub(crate) timer: Option<TimerId>,
    /// The hash cell this instance occupies in a capacity-bounded store.
    pub(crate) cell: Option<usize>,
}

/// Stages whose packet ids an instance holds without a heap allocation —
/// every catalog property fits.
const INLINE_STAGES: usize = 4;

/// The packet ids an instance recorded at its completed stages, in stage
/// order. Inline up to [`INLINE_STAGES`] entries, so a spawn allocates
/// nothing for them and copying an instance (as a copy-on-write slot chunk
/// does after a checkpoint) is a plain memory copy.
#[derive(Debug, Clone)]
pub(crate) enum StageIds {
    Inline { len: u8, ids: [Option<PacketId>; INLINE_STAGES] },
    Heap(Vec<Option<PacketId>>),
}

impl StageIds {
    pub(crate) fn push(&mut self, id: Option<PacketId>) {
        match self {
            StageIds::Inline { len, ids } if usize::from(*len) < INLINE_STAGES => {
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            StageIds::Inline { ids, .. } => {
                let mut spilled = ids.to_vec();
                spilled.push(id);
                *self = StageIds::Heap(spilled);
            }
            StageIds::Heap(v) => v.push(id),
        }
    }
}

impl std::ops::Deref for StageIds {
    type Target = [Option<PacketId>];

    fn deref(&self) -> &Self::Target {
        match self {
            StageIds::Inline { len, ids } => &ids[..usize::from(*len)],
            StageIds::Heap(v) => v,
        }
    }
}

impl FromIterator<Option<PacketId>> for StageIds {
    fn from_iter<I: IntoIterator<Item = Option<PacketId>>>(iter: I) -> Self {
        let mut out = StageIds::Inline { len: 0, ids: [None; INLINE_STAGES] };
        for id in iter {
            out.push(id);
        }
        out
    }
}

type InstanceKey = (usize, Bindings);

/// Deferred state mutation (split mode). Each carries the *observation*
/// time of the event that caused it: violations and windows are anchored to
/// when the observation occurred, not when the lagged update lands — split
/// mode delays visibility, it does not rewrite history.
#[derive(Debug, Clone)]
pub(crate) enum Effect {
    Spawn {
        obs_time: Instant,
        bindings: Bindings,
        stage_id: Option<PacketId>,
        history: Vec<NetEvent>,
    },
    Advance {
        obs_time: Instant,
        idx: usize,
        uid: u64,
        expected_stage: usize,
        bindings: Bindings,
        stage_id: Option<PacketId>,
        event: Option<NetEvent>,
    },
    Kill {
        idx: usize,
        uid: u64,
        expected_stage: usize,
        reason: KillReason,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KillReason {
    Cleared,
}

/// Secondary index over the instances awaiting one stage.
///
/// Stages with a derived [`crate::routing::StageKey`] get a `Keyed` bucket:
/// per key source (a held variable, or the packet id recorded at an earlier
/// stage), a map from the instance's value of it to the slot indices
/// holding that value. An instance is filed under every source, so each
/// guard's probe finds it through its own source. A `rest` overflow list
/// (scanned unconditionally) takes any instance lacking a source value —
/// an unbound variable, or a `None` token. Stages the analysis cannot key
/// get a plain `Scan` list. Either way the bucket holds exactly the live
/// instances awaiting that stage.
#[derive(Debug)]
enum Bucket {
    /// `maps[i] = (source, value → slots)`, in the stage key's source order.
    Keyed { maps: Vec<(KeySource, HashMap<FieldValue, Vec<usize>>)>, rest: Vec<usize> },
    /// All awaiting slots, scanned for every relevant event.
    Scan(Vec<usize>),
}

/// One empty bucket per stage, shaped by the stage keys.
fn empty_buckets(stage_keys: &StageKeyPlan) -> Vec<Bucket> {
    (0..stage_keys.len())
        .map(|s| match stage_keys.key(s) {
            Some(k) => Bucket::Keyed {
                maps: k.sources().into_iter().map(|src| (src, HashMap::new())).collect(),
                rest: Vec::new(),
            },
            None => Bucket::Scan(Vec::new()),
        })
        .collect()
}

/// Packet ids share the index maps' value type.
fn packet_key(id: PacketId) -> FieldValue {
    FieldValue::Uint(id.0)
}

/// The instance's value of a key source, if it holds one.
fn source_value(inst: &Instance, src: KeySource) -> Option<FieldValue> {
    match src {
        KeySource::Var(v) => inst.bindings.get(&v).copied(),
        KeySource::Packet(k) => inst.stage_ids.get(k).copied().flatten().map(packet_key),
    }
}

/// The value an event reproduces for a probe's source, if it carries one.
fn probe_value(ev: &NetEvent, probe: Probe) -> Option<FieldValue> {
    match probe {
        Probe::Bind(_, f) => ev.field(f),
        Probe::Packet(_) => ev.packet_id().map(packet_key),
    }
}

/// The reference monitor for one property.
pub struct Monitor {
    property: Property,
    cfg: MonitorConfig,
    /// Instance slots, copy-on-write so a snapshot shares them.
    slots: Slots,
    free: Vec<usize>,
    index: HashMap<InstanceKey, usize>,
    timers: TimerWheel<(usize, TimerKind)>,
    pending: Vec<(Instant, Effect)>,
    /// Occupancy of the bounded store: cell -> slot index.
    cells: Vec<Option<usize>>,
    /// Which instance-matching key (if any) each stage supports.
    stage_keys: StageKeyPlan,
    /// Per-awaiting-stage instance index; `buckets[0]` is always empty
    /// (instances never await stage 0).
    buckets: Vec<Bucket>,
    /// Reusable effect buffer (avoids a per-event allocation).
    scratch_effects: Vec<Effect>,
    /// Reusable candidate-slot buffer for the keyed lookup path.
    scratch_candidates: Vec<usize>,
    violations: Vec<Violation>,
    now: Instant,
    next_uid: u64,
    /// Activity counters.
    pub stats: MonitorStats,
    /// Optional telemetry sink (see [`crate::telemetry::Recorder`]). Not
    /// part of monitor state: snapshots ignore it and restore keeps it.
    recorder: Option<crate::telemetry::SharedRecorder>,
}

impl Monitor {
    /// Build a monitor, rejecting structurally invalid properties.
    pub fn try_new(
        property: Property,
        cfg: MonitorConfig,
    ) -> Result<Self, crate::property::PropertyError> {
        property.validate()?;
        Ok(Self::new(property, cfg))
    }

    /// Build a monitor for `property`.
    ///
    /// # Panics
    ///
    /// Panics if the property fails [`Property::validate`]; use
    /// [`Monitor::try_new`] for untrusted (e.g. DSL-loaded) input.
    pub fn new(property: Property, cfg: MonitorConfig) -> Self {
        property.validate().expect("property must be well-formed");
        let stage_keys = StageKeyPlan::of(&property);
        let buckets = empty_buckets(&stage_keys);
        Monitor {
            property,
            cfg,
            slots: Slots::default(),
            free: Vec::new(),
            index: HashMap::new(),
            timers: TimerWheel::new(),
            pending: Vec::new(),
            cells: vec![None; cfg.capacity.unwrap_or(0)],
            stage_keys,
            buckets,
            scratch_effects: Vec::new(),
            scratch_candidates: Vec::new(),
            violations: Vec::new(),
            now: Instant::ZERO,
            next_uid: 0,
            stats: MonitorStats::default(),
            recorder: None,
        }
    }

    /// Attach (or detach, with `None`) a telemetry recorder. An attached
    /// recorder survives [`Monitor::restore`] — instrumentation belongs to
    /// the deployment, not the checkpointed state.
    pub fn set_recorder(&mut self, recorder: Option<crate::telemetry::SharedRecorder>) {
        self.recorder = recorder;
    }

    /// Convenience: default configuration.
    pub fn with_defaults(property: Property) -> Self {
        Self::new(property, MonitorConfig::default())
    }

    /// The monitored property.
    pub fn property(&self) -> &Property {
        &self.property
    }

    /// Violations detected so far and not yet taken, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Move the violations detected since the last call out of the
    /// monitor, in detection order. A host that harvests this way keeps
    /// the only copy, so later snapshots no longer carry them.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Number of live instances (the paper's scalability metric: Varanus
    /// pipeline depth equals this).
    pub fn live_instances(&self) -> usize {
        self.index.len()
    }

    /// Approximate bytes of monitor state (bindings + retained provenance).
    pub fn state_bytes(&self) -> usize {
        self.slots
            .live()
            .map(|(_, i)| {
                i.bindings.approx_bytes()
                    + i.history
                        .iter()
                        .map(|e| e.packet().map(|p| p.len()).unwrap_or(8))
                        .sum::<usize>()
                    + i.stage_ids.len() * 9
            })
            .sum()
    }

    /// Advance the clock to `t`, firing due timers (and, in split mode,
    /// applying matured effects). Call at end-of-trace to flush deadlines.
    pub fn advance_to(&mut self, t: Instant) {
        // Interleave matured split-effects and timers in time order.
        loop {
            let next_effect =
                self.pending.iter().map(|(ready, _)| *ready).min().filter(|&r| r <= t);
            let next_timer = self.timers.next_deadline().filter(|&d| d <= t);
            match (next_effect, next_timer) {
                (None, None) => break,
                (Some(e), Some(d)) if e <= d => self.apply_matured_effects(e),
                (Some(e), None) => self.apply_matured_effects(e),
                (_, Some(_)) => {
                    let (id, deadline, (idx, kind)) =
                        self.timers.pop_due(t).expect("deadline checked");
                    self.fire_timer(id, deadline, idx, kind);
                }
            }
        }
        if t > self.now {
            self.now = t;
        }
    }

    fn apply_matured_effects(&mut self, upto: Instant) {
        // Apply in readiness order, stably.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= upto {
                let (ready, eff) = self.pending.remove(i);
                self.apply_effect(ready, eff);
            } else {
                i += 1;
            }
        }
        if upto > self.now {
            self.now = upto;
        }
    }

    fn fire_timer(&mut self, fired: TimerId, deadline: Instant, idx: usize, kind: TimerKind) {
        if deadline > self.now {
            self.now = deadline;
        }
        if self.slots.get(idx).map(|inst| inst.timer) != Some(Some(fired)) {
            return; // stale timer from an earlier stage of this slot
        }
        self.slots.get_mut(idx).expect("checked live").timer = None;
        match kind {
            TimerKind::WindowExpiry => {
                self.stats.window_expired += 1;
                self.remove_instance(idx);
            }
            TimerKind::Deadline => {
                self.stats.deadlines_fired += 1;
                self.advance_instance(idx, None, deadline);
            }
        }
    }

    /// Process one event. Events must be fed in nondecreasing time order.
    pub fn process(&mut self, ev: &NetEvent) {
        if self.recorder.is_none() {
            // The uninstrumented hot path: one branch, nothing else.
            self.process_inner(ev);
            return;
        }
        let seq = self.stats.events;
        let timed = self.recorder.as_ref().is_some_and(|r| r.should_time(seq));
        let t0 = timed.then(std::time::Instant::now);
        self.process_inner(ev);
        let live = self.index.len();
        if let Some(rec) = self.recorder.as_ref() {
            rec.event(live, t0.map(|t| t.elapsed().as_nanos() as u64));
        }
    }

    fn process_inner(&mut self, ev: &NetEvent) {
        self.advance_to(ev.time);
        if let Some(scope) = self.cfg.scope {
            if ev.switch() != Some(scope) {
                self.stats.out_of_scope += 1;
                return;
            }
        }
        self.stats.events += 1;

        let lag = match self.cfg.mode {
            ProcessingMode::Inline => None,
            ProcessingMode::Split { lag } => Some(lag),
        };

        // Phase 1+2: gather the instances this event could clear or
        // advance, then evaluate their guards against the *currently
        // visible* state. Stages whose patterns all miss the event are
        // skipped outright; keyed stages look up, per guard the event's kind
        // could satisfy, only the instances whose value of that guard's key
        // source the event reproduces (plus the `rest` overflow list; an
        // instance found through several sources is deduplicated below).
        // Candidates are evaluated in ascending slot order — exactly the
        // order the former full scan used — so the effect sequence, and
        // with it every downstream ordering (violations, slot reuse, dedup
        // outcomes), is unchanged.
        let mut effects = std::mem::take(&mut self.scratch_effects);
        let mut cands = std::mem::take(&mut self.scratch_candidates);
        debug_assert!(effects.is_empty() && cands.is_empty());
        for s in 1..self.property.stages.len() {
            let stage = &self.property.stages[s];
            let adv_hit =
                matches!(&stage.kind, StageKind::Match { pattern, .. } if pattern.matches(ev));
            let clear_hit = stage.unless.iter().any(|u| u.pattern.matches(ev));
            if !adv_hit && !clear_hit {
                continue;
            }
            match &self.buckets[s] {
                Bucket::Scan(v) => cands.extend_from_slice(v),
                Bucket::Keyed { maps, rest } => {
                    cands.extend_from_slice(rest);
                    let key = self.stage_keys.key(s).expect("keyed bucket has a stage key");
                    let mut probe = |p: Probe| {
                        let Some(val) = probe_value(ev, p) else { return };
                        let (_, map) = maps
                            .iter()
                            .find(|(src, _)| *src == p.source())
                            .expect("every probe source has a map");
                        if let Some(v) = map.get(&val) {
                            cands.extend_from_slice(v);
                        }
                    };
                    if adv_hit {
                        probe(key.advance.expect("match stage key has an advance probe"));
                    }
                    for (u, &p) in stage.unless.iter().zip(&key.unless) {
                        if u.pattern.matches(ev) {
                            probe(p);
                        }
                    }
                }
            }
        }
        cands.sort_unstable();
        cands.dedup();
        for &idx in &cands {
            let Some(inst) = self.slots.get(idx) else { continue };
            let stage = &self.property.stages[inst.awaiting];
            // Clearings first.
            let cleared = stage.unless.iter().any(|u| {
                u.pattern.matches(ev) && u.guard.eval(ev, &inst.bindings, &inst.stage_ids).is_some()
            });
            if cleared {
                effects.push(Effect::Kill {
                    idx,
                    uid: inst.uid,
                    expected_stage: inst.awaiting,
                    reason: KillReason::Cleared,
                });
                continue;
            }
            // Advances.
            if let StageKind::Match { pattern, guard } = &stage.kind {
                if pattern.matches(ev) {
                    if let Some(env) = guard.eval(ev, &inst.bindings, &inst.stage_ids) {
                        let event =
                            (self.cfg.provenance == ProvenanceMode::Full).then(|| ev.clone());
                        effects.push(Effect::Advance {
                            obs_time: ev.time,
                            idx,
                            uid: inst.uid,
                            expected_stage: inst.awaiting,
                            bindings: env,
                            stage_id: ev.packet_id(),
                            event,
                        });
                    }
                }
            }
        }
        cands.clear();
        self.scratch_candidates = cands;

        // Phase 4: spawning.
        let stage0 = &self.property.stages[0];
        if let StageKind::Match { pattern, guard } = &stage0.kind {
            if pattern.matches(ev) {
                if let Some(env) = guard.eval(ev, &Bindings::new(), &[]) {
                    let history = match self.cfg.provenance {
                        ProvenanceMode::Full => vec![ev.clone()],
                        _ => Vec::new(),
                    };
                    effects.push(Effect::Spawn {
                        obs_time: ev.time,
                        bindings: env,
                        stage_id: ev.packet_id(),
                        history,
                    });
                }
            }
        }

        // Apply with simultaneous-evaluation semantics: clearings first,
        // then advances from the *highest* awaited stage downward (an
        // instance vacates its key before a lower instance moves into it —
        // otherwise the mover would wrongly dissolve into an incumbent that
        // is itself advancing away on this very event), spawns last.
        effects.sort_by_key(|e| match e {
            Effect::Kill { .. } => (0usize, 0usize),
            Effect::Advance { expected_stage, .. } => (1, usize::MAX - expected_stage),
            Effect::Spawn { .. } => (2, 0),
        });
        match lag {
            None => {
                for eff in effects.drain(..) {
                    self.apply_effect(ev.time, eff);
                }
            }
            Some(lag) => {
                let ready = ev.time + lag;
                for eff in effects.drain(..) {
                    self.pending.push((ready, eff));
                }
            }
        }
        self.scratch_effects = effects;
    }

    fn apply_effect(&mut self, _applied_at: Instant, eff: Effect) {
        match eff {
            Effect::Spawn { obs_time, bindings, stage_id, history } => {
                self.spawn(obs_time, bindings, stage_id, history);
            }
            Effect::Advance { obs_time, idx, uid, expected_stage, bindings, stage_id, event } => {
                let valid = self
                    .slots
                    .get(idx)
                    .is_some_and(|i| i.uid == uid && i.awaiting == expected_stage);
                if !valid {
                    self.stats.stale_effects_dropped += 1;
                    return;
                }
                if let Some(inst) = self.slots.get_mut(idx) {
                    // Unindex under the *original* bindings before the
                    // advance extends them — computing the old key after
                    // assignment would leave a stale index entry that
                    // swallows future spawns via deduplication.
                    let old_key = (inst.awaiting, inst.bindings);
                    self.index.remove(&old_key);
                    inst.bindings = bindings;
                    if self.cfg.provenance == ProvenanceMode::Full {
                        if let Some(ev) = event {
                            inst.history.push(ev);
                        }
                    }
                }
                self.advance_instance_unindexed(idx, stage_id, obs_time);
            }
            Effect::Kill { idx, uid, expected_stage, reason } => {
                let valid = self
                    .slots
                    .get(idx)
                    .is_some_and(|i| i.uid == uid && i.awaiting == expected_stage);
                if !valid {
                    self.stats.stale_effects_dropped += 1;
                    return;
                }
                debug_assert_eq!(reason, KillReason::Cleared);
                self.stats.cleared += 1;
                self.remove_instance(idx);
            }
        }
    }

    /// Spawn a new instance awaiting stage 1 (or raise a violation for
    /// single-stage properties).
    fn spawn(
        &mut self,
        at: Instant,
        bindings: Bindings,
        stage_id: Option<PacketId>,
        history: Vec<NetEvent>,
    ) {
        self.stats.spawned += 1;
        if self.property.stages.len() == 1 {
            self.raise(at, &bindings, &history, 0);
            return;
        }
        let key = (1usize, bindings);
        if let Some(&incumbent) = self.index.get(&key) {
            self.dedup_against(incumbent, at);
            return;
        }
        // Capacity-bounded (register-array) store: the spawn lands in a
        // hash cell; a different live incumbent there is evicted.
        let cell = self.cfg.capacity.map(|cap| {
            let h = Self::bindings_hash(&bindings);
            (h % cap.max(1) as u64) as usize
        });
        if let Some(c) = cell {
            if let Some(victim) = self.cells[c] {
                self.stats.evicted += 1;
                self.remove_instance(victim);
            }
        }
        let idx = match self.free.pop() {
            Some(i) => i,
            None => self.slots.grow(),
        };
        let uid = self.next_uid;
        self.next_uid += 1;
        self.slots.put(
            idx,
            Instance {
                uid,
                awaiting: 1,
                bindings,
                stage_ids: std::iter::once(stage_id).collect(),
                history,
                timer: None,
                cell,
            },
        );
        if let Some(c) = cell {
            self.cells[c] = Some(idx);
        }
        self.index.insert(key, idx);
        self.arm_stage_timer(idx, at);
        self.bucket_insert(idx);
    }

    /// Add slot `idx` to the bucket of the stage it now awaits: under every
    /// key source if it holds all of their values, else to `rest`.
    fn bucket_insert(&mut self, idx: usize) {
        let inst = self.slots.get(idx).expect("live instance");
        match &mut self.buckets[inst.awaiting] {
            Bucket::Scan(v) => v.push(idx),
            Bucket::Keyed { maps, rest } => {
                if maps.iter().all(|(src, _)| source_value(inst, *src).is_some()) {
                    for (src, map) in maps.iter_mut() {
                        let val = source_value(inst, *src).expect("checked above");
                        map.entry(val).or_default().push(idx);
                    }
                } else {
                    rest.push(idx);
                }
            }
        }
    }

    /// Remove slot `idx` from its awaiting stage's bucket. Callers must do
    /// this while the instance still holds the awaiting stage and the key
    /// values it was inserted under (binding *extension* is fine: existing
    /// values never change, only new variables are added; recorded packet
    /// ids are only appended when the instance moves on).
    fn bucket_remove(&mut self, idx: usize) {
        let Some(inst) = self.slots.get(idx) else { return };
        fn evict(v: &mut Vec<usize>, idx: usize) -> bool {
            match v.iter().position(|&i| i == idx) {
                Some(pos) => {
                    v.swap_remove(pos);
                    true
                }
                None => false,
            }
        }
        match &mut self.buckets[inst.awaiting] {
            Bucket::Scan(v) => {
                evict(v, idx);
            }
            Bucket::Keyed { maps, rest } => {
                let mut removed = false;
                if maps.iter().all(|(src, _)| source_value(inst, *src).is_some()) {
                    for (src, map) in maps.iter_mut() {
                        let val = source_value(inst, *src).expect("checked above");
                        if let Some(v) = map.get_mut(&val) {
                            removed |= evict(v, idx);
                            if v.is_empty() {
                                map.remove(&val);
                            }
                        }
                    }
                }
                // Not in the maps: it was filed in `rest` (a variable unbound
                // at insertion may be bound by now).
                if !removed {
                    evict(rest, idx);
                }
            }
        }
    }

    /// Stable hash of a binding environment (the flow key a register
    /// architecture would index with).
    fn bindings_hash(b: &Bindings) -> u64 {
        use std::hash::{Hash, Hasher};
        // FxHash-style stable hasher over the canonical binding order.
        struct Fnv(u64);
        impl Hasher for Fnv {
            fn finish(&self) -> u64 {
                self.0
            }
            fn write(&mut self, bytes: &[u8]) {
                for &x in bytes {
                    self.0 ^= u64::from(x);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        b.hash(&mut h);
        h.finish()
    }

    /// Handle a duplicate spawn/advance landing on `incumbent`.
    fn dedup_against(&mut self, incumbent: usize, at: Instant) {
        self.stats.deduplicated += 1;
        let Some(inst) = self.slots.get(incumbent) else {
            return;
        };
        let stage = &self.property.stages[inst.awaiting];
        let (policy, window) = match &stage.kind {
            StageKind::Deadline { window, refresh } => (*refresh, Some(*window)),
            StageKind::Match { .. } => (
                stage.within_refresh,
                stage.within.as_ref().and_then(|w| w.resolve(&inst.bindings)),
            ),
        };
        if policy == RefreshPolicy::RefreshOnRepeat {
            if let (Some(w), Some(t)) = (window, inst.timer) {
                if self.timers.refresh(t, at + w) {
                    self.stats.refreshed += 1;
                }
            }
        }
    }

    /// Move instance `idx` past its awaited stage (having just observed it
    /// at `at`); raise a violation if that was the last stage. The caller
    /// must not have changed the bindings since indexing (timer paths);
    /// advances that extend bindings go through
    /// [`Monitor::advance_instance_unindexed`].
    fn advance_instance(&mut self, idx: usize, stage_id: Option<PacketId>, at: Instant) {
        let old_key = {
            let inst = self.slots.get(idx).expect("live instance");
            (inst.awaiting, inst.bindings)
        };
        self.index.remove(&old_key);
        self.advance_instance_unindexed(idx, stage_id, at);
    }

    /// As [`Monitor::advance_instance`], for callers that already removed
    /// the instance's index entry (under its pre-advance bindings).
    fn advance_instance_unindexed(&mut self, idx: usize, stage_id: Option<PacketId>, at: Instant) {
        // Leave the old stage's bucket before `awaiting` moves. An advance
        // may already have *extended* the bindings, but the key variable's
        // value is immutable once bound, so the bucket lookup still lands.
        self.bucket_remove(idx);
        let done = {
            let inst = self.slots.get_mut(idx).expect("live instance");
            if let Some(t) = inst.timer.take() {
                self.timers.cancel(t);
            }
            inst.stage_ids.push(stage_id);
            inst.awaiting += 1;
            self.stats.advanced += 1;
            inst.awaiting == self.property.stages.len()
        };
        if done {
            let inst = self.slots.take(idx).expect("live instance");
            if let Some(c) = inst.cell {
                if self.cells[c] == Some(idx) {
                    self.cells[c] = None;
                }
            }
            self.free.push(idx);
            let trigger = self.property.stages.len() - 1;
            self.raise(at, &inst.bindings, &inst.history, trigger);
            return;
        }
        // Dedup at the new position.
        let inst = self.slots.get(idx).expect("live instance");
        let new_key = (inst.awaiting, inst.bindings);
        if let Some(&incumbent) = self.index.get(&new_key) {
            // The incumbent wins; this instance dissolves into it.
            self.dedup_against(incumbent, at);
            if let Some(inst) = self.slots.take(idx) {
                if let Some(c) = inst.cell {
                    if self.cells[c] == Some(idx) {
                        self.cells[c] = None;
                    }
                }
                if let Some(t) = inst.timer {
                    self.timers.cancel(t);
                }
            }
            self.free.push(idx);
            return;
        }
        self.index.insert(new_key, idx);
        self.arm_stage_timer(idx, at);
        self.bucket_insert(idx);
    }

    /// Arm the timer appropriate to the stage instance `idx` now awaits,
    /// measured from observation time `at`.
    fn arm_stage_timer(&mut self, idx: usize, at: Instant) {
        let inst = self.slots.get(idx).expect("live");
        let awaiting = inst.awaiting;
        let stage: &Stage = &self.property.stages[awaiting];
        let timer = match &stage.kind {
            StageKind::Deadline { window, .. } => {
                Some(self.timers.schedule(at + *window, (idx, TimerKind::Deadline)))
            }
            StageKind::Match { .. } => stage
                .within
                .as_ref()
                .and_then(|w: &WindowSpec| w.resolve(&inst.bindings))
                .map(|w| self.timers.schedule(at + w, (idx, TimerKind::WindowExpiry))),
        };
        self.slots.get_mut(idx).expect("live").timer = timer;
    }

    fn remove_instance(&mut self, idx: usize) {
        self.bucket_remove(idx);
        if let Some(inst) = self.slots.take(idx) {
            if let Some(t) = inst.timer {
                self.timers.cancel(t);
            }
            if let Some(c) = inst.cell {
                if self.cells[c] == Some(idx) {
                    self.cells[c] = None;
                }
            }
            self.index.remove(&(inst.awaiting, inst.bindings));
            self.free.push(idx);
        }
    }

    fn raise(&mut self, at: Instant, bindings: &Bindings, history: &[NetEvent], trigger: usize) {
        let bindings_out = match self.cfg.provenance {
            ProvenanceMode::None => None,
            _ => Some(*bindings),
        };
        let history_out = match self.cfg.provenance {
            ProvenanceMode::Full => history.to_vec(),
            _ => Vec::new(),
        };
        self.violations.push(Violation {
            property: self.property.name.clone(),
            time: at,
            trigger_stage: self.property.stages[trigger].name.clone(),
            bindings: bindings_out,
            history: history_out,
            degraded: false,
            merge_seq: None,
        });
    }

    // ---- checkpoint/restore (fault tolerance) --------------------------

    /// Capture the monitor's complete semantic state as a
    /// [`MonitorSnapshot`](crate::snapshot::MonitorSnapshot).
    ///
    /// The snapshot records everything order-bearing verbatim: the slot
    /// array (slot indices are tie-breakers for effect ordering), the
    /// free-list (it decides which slot the next spawn reuses), the timer
    /// wheel's exact heap entries and counters, pending split-mode effects,
    /// the uid counter, and the violations not yet taken
    /// ([`Monitor::take_violations`]). Derived structures — the dedup
    /// index, stage buckets and capacity cells — are *not* captured: they
    /// are pure functions of the live slots and are rebuilt on restore
    /// (candidate slots are sorted and deduplicated before evaluation, so
    /// bucket-internal order is not semantics-bearing).
    ///
    /// The cost is O(slots / chunk size) plus the timer wheel and the
    /// untaken violations: the slot chunks are shared copy-on-write with
    /// the live monitor, so the monitor's next write to a chunk copies that
    /// chunk only (see [`crate::slots`]).
    pub fn snapshot(&self) -> crate::snapshot::MonitorSnapshot {
        crate::snapshot::MonitorSnapshot {
            property: self.property.name.clone(),
            stages: self.property.stages.len(),
            slots: self.slots.clone(),
            free: self.free.clone(),
            timers: self.timers.clone(),
            pending: self.pending.clone(),
            violations: self.violations.clone(),
            now: self.now,
            next_uid: self.next_uid,
            stats: self.stats.clone(),
        }
    }

    /// Replace this monitor's state with `snap`, previously taken from a
    /// monitor of the *same property* (name and stage count are checked)
    /// and an equal capacity configuration.
    ///
    /// Restore is deterministic: feeding the restored monitor the same
    /// event suffix produces byte-identical violations, stats and timer
    /// behaviour to the uninterrupted original — the property the runtime's
    /// checkpoint/replay recovery depends on (see `docs/FAULTS.md`).
    ///
    /// On error the monitor is left unchanged.
    pub fn restore(
        &mut self,
        snap: &crate::snapshot::MonitorSnapshot,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        if snap.property != self.property.name || snap.stages != self.property.stages.len() {
            return Err(SnapshotError::PropertyMismatch {
                expected: format!("{} ({} stages)", self.property.name, self.property.stages.len()),
                found: format!("{} ({} stages)", snap.property, snap.stages),
            });
        }
        // Validate before mutating, so a bad snapshot cannot half-apply.
        let capacity = self.cfg.capacity.unwrap_or(0);
        for (_, inst) in snap.slots.live() {
            if inst.awaiting == 0 || inst.awaiting >= self.property.stages.len() {
                return Err(SnapshotError::Malformed("instance awaits an out-of-range stage"));
            }
            if let Some(c) = inst.cell {
                if c >= capacity {
                    return Err(SnapshotError::Malformed("instance cell exceeds store capacity"));
                }
            }
        }
        for &f in &snap.free {
            if f >= snap.slots.len() || snap.slots.get(f).is_some() {
                return Err(SnapshotError::Malformed("free-list entry is not an empty slot"));
            }
        }

        self.slots = snap.slots.clone();
        self.free = snap.free.clone();
        self.timers = snap.timers.clone();
        self.pending = snap.pending.clone();
        self.violations = snap.violations.clone();
        self.now = snap.now;
        self.next_uid = snap.next_uid;
        self.stats = snap.stats.clone();
        self.scratch_effects.clear();
        self.scratch_candidates.clear();

        // Rebuild the derived structures from the live slots.
        self.index.clear();
        self.cells = vec![None; capacity];
        self.buckets = empty_buckets(&self.stage_keys);
        for idx in 0..self.slots.len() {
            let Some(inst) = self.slots.get(idx) else { continue };
            self.index.insert((inst.awaiting, inst.bindings), idx);
            if let Some(c) = inst.cell {
                self.cells[c] = Some(idx);
            }
            self.bucket_insert(idx);
        }
        Ok(())
    }
}

impl EventSink for Monitor {
    fn on_event(&mut self, ev: &NetEvent) {
        self.process(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{Atom, Guard};
    use crate::pattern::{ActionPattern, EventPattern, OobPattern};
    use crate::property::{Stage, Unless};
    use crate::testgen::random_trace;
    use crate::var::var;
    use std::sync::Arc;
    use swmon_packet::{Field, Ipv4Address, MacAddr, Packet, PacketBuilder, TcpFlags};
    use swmon_sim::trace::{EgressAction, NetEventKind, OobEvent, PortNo, SwitchId};

    // ---- event helpers -------------------------------------------------

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

    fn arrival_flags(t: Instant, src: u8, dst: u8, id: u64, flags: TcpFlags) -> NetEvent {
        NetEvent {
            time: t,
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(0),
                pkt: tcp(src, dst, flags),
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

    fn forwarded(t: Instant, src: u8, dst: u8, id: u64) -> NetEvent {
        NetEvent {
            time: t,
            kind: NetEventKind::Departure {
                switch: SwitchId(0),
                pkt: tcp(src, dst, TcpFlags::ACK),
                id: PacketId(id),
                action: EgressAction::Output(PortNo(1)),
            },
        }
    }

    // ---- properties ----------------------------------------------------

    /// Sec 2.1 basic: A→B seen, then B→A dropped = violation.
    fn fw_basic() -> Property {
        Property {
            name: "fw-basic".into(),
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
                Stage::match_(
                    "return-dropped",
                    EventPattern::Departure(ActionPattern::Drop),
                    Guard::new(vec![
                        Atom::Bind(var("B"), Field::Ipv4Src),
                        Atom::Bind(var("A"), Field::Ipv4Dst),
                    ]),
                ),
            ],
        }
    }

    /// Sec 2.1 with timeout: the drop only counts within T of the last A→B.
    fn fw_timeout(t: Duration) -> Property {
        let mut p = fw_basic();
        p.name = "fw-timeout".into();
        p.stages[1].within = Some(crate::property::WindowSpec::Fixed(t));
        p.stages[1].within_refresh = RefreshPolicy::RefreshOnRepeat;
        p
    }

    /// Sec 2.3 style: request seen, no reply within T = violation.
    fn reply_deadline(t: Duration, refresh: RefreshPolicy) -> Property {
        let mut deadline = Stage::deadline("no-reply-within-T", t, refresh);
        deadline.unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Forwarded),
            guard: Guard::new(vec![
                Atom::Bind(var("A"), Field::Ipv4Dst), // reply goes back to A
            ]),
        }];
        Property {
            name: "reply-deadline".into(),
            statement: "every request is answered within T".into(),
            stages: vec![
                Stage::match_(
                    "request",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
                ),
                deadline,
            ],
        }
    }

    // ---- tests -----------------------------------------------------------

    #[test]
    fn stage_ids_spill_to_the_heap_past_the_inline_capacity() {
        let want: Vec<Option<PacketId>> =
            (0..INLINE_STAGES as u64 + 2).map(|i| (i % 3 != 1).then_some(PacketId(i))).collect();
        let mut ids: StageIds = std::iter::empty().collect();
        for (n, &id) in want.iter().enumerate() {
            ids.push(id);
            assert_eq!(&ids[..], &want[..=n]);
            assert_eq!(matches!(ids, StageIds::Heap(_)), n >= INLINE_STAGES);
        }
        assert_eq!(&ids.clone()[..], &want[..]);
    }

    #[test]
    fn detects_basic_firewall_violation() {
        let mut m = Monitor::with_defaults(fw_basic());
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&dropped(at(5), 2, 1, 1));
        assert_eq!(m.violations().len(), 1);
        let v = &m.violations()[0];
        assert_eq!(v.trigger_stage, "return-dropped");
        assert_eq!(v.time, at(5));
        let b = v.bindings.as_ref().unwrap();
        assert_eq!(b.get(&var("A")), Some(&Ipv4Address::new(10, 0, 0, 1).into()));
    }

    #[test]
    fn unrelated_drop_is_no_violation() {
        let mut m = Monitor::with_defaults(fw_basic());
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&dropped(at(5), 3, 1, 1)); // C→A, not B→A
        m.process(&dropped(at(6), 2, 3, 2)); // B→C
        assert!(m.violations().is_empty());
        assert_eq!(m.live_instances(), 1, "drops do not match the arrival stage 0");
    }

    #[test]
    fn separate_instances_per_pair() {
        let mut m = Monitor::with_defaults(fw_basic());
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&arrival(at(1), 3, 4, 1));
        assert_eq!(m.live_instances(), 2);
        m.process(&dropped(at(2), 4, 3, 2));
        assert_eq!(m.violations().len(), 1, "only the (3,4) instance fires");
        assert_eq!(
            m.violations()[0].bindings.as_ref().unwrap().get(&var("A")),
            Some(&Ipv4Address::new(10, 0, 0, 3).into())
        );
        assert_eq!(m.live_instances(), 1, "the (1,2) instance survives");
    }

    #[test]
    fn window_expiry_kills_instance() {
        let t = Duration::from_millis(100);
        let mut m = Monitor::with_defaults(fw_timeout(t));
        m.process(&arrival(at(0), 1, 2, 0));
        // Drop at 150ms: after the window; timer fired at 100ms killed it.
        m.process(&dropped(at(150), 2, 1, 1));
        assert!(m.violations().is_empty());
        assert_eq!(m.stats.window_expired, 1);
        assert_eq!(m.live_instances(), 0);
    }

    #[test]
    fn drop_exactly_at_window_boundary_is_late() {
        let t = Duration::from_millis(100);
        let mut m = Monitor::with_defaults(fw_timeout(t));
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&dropped(at(100), 2, 1, 1));
        assert!(m.violations().is_empty(), "timers fire before same-instant events");
    }

    #[test]
    fn repeated_outbound_refreshes_firewall_window() {
        let t = Duration::from_millis(100);
        let mut m = Monitor::with_defaults(fw_timeout(t));
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&arrival(at(80), 1, 2, 1)); // refresh
        m.process(&dropped(at(150), 2, 1, 2)); // within 100 of the refresh
        assert_eq!(m.violations().len(), 1, "window measured from the latest A→B");
        assert_eq!(m.stats.refreshed, 1);
        assert_eq!(m.stats.deduplicated, 1);
    }

    #[test]
    fn obligation_cleared_by_connection_close() {
        // fw with obligation: a FIN in either direction clears the instance.
        // The opening observation must exclude closing packets, otherwise
        // the FIN itself would re-establish the connection it closes.
        let mut p = fw_basic();
        if let StageKind::Match { guard, .. } = &mut p.stages[0].kind {
            guard.atoms.push(Atom::NeqConst(Field::TcpFlags, u64::from(TcpFlags::FIN.0).into()));
        }
        p.stages[1].unless = vec![
            Unless {
                pattern: EventPattern::Arrival,
                guard: Guard::new(vec![
                    Atom::Bind(var("A"), Field::Ipv4Src),
                    Atom::Bind(var("B"), Field::Ipv4Dst),
                    Atom::EqConst(Field::TcpFlags, u64::from(TcpFlags::FIN.0).into()),
                ]),
            },
            Unless {
                pattern: EventPattern::Arrival,
                guard: Guard::new(vec![
                    Atom::Bind(var("B"), Field::Ipv4Src),
                    Atom::Bind(var("A"), Field::Ipv4Dst),
                    Atom::EqConst(Field::TcpFlags, u64::from(TcpFlags::FIN.0).into()),
                ]),
            },
        ];
        let mut m = Monitor::with_defaults(p);
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&arrival_flags(at(10), 1, 2, 1, TcpFlags::FIN)); // close
        m.process(&dropped(at(20), 2, 1, 2)); // drop after close: fine
        assert!(m.violations().is_empty());
        assert_eq!(m.stats.cleared, 1);
    }

    #[test]
    fn deadline_fires_when_no_reply() {
        let t = Duration::from_secs(1);
        let mut m = Monitor::with_defaults(reply_deadline(t, RefreshPolicy::NoRefresh));
        m.process(&arrival(at(0), 1, 2, 0));
        m.advance_to(at(2000));
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].time, at(1000), "violation at the deadline itself");
        assert_eq!(m.stats.deadlines_fired, 1);
    }

    #[test]
    fn deadline_cleared_by_reply() {
        let t = Duration::from_secs(1);
        let mut m = Monitor::with_defaults(reply_deadline(t, RefreshPolicy::NoRefresh));
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&forwarded(at(500), 2, 1, 1)); // reply to A within T
        m.advance_to(at(5000));
        assert!(m.violations().is_empty());
        assert_eq!(m.stats.cleared, 1);
    }

    #[test]
    fn sec23_subtlety_no_refresh_catches_request_storm() {
        // Requests every T−1; never answered. NoRefresh must fire at T.
        let t = Duration::from_millis(1000);
        let mut m = Monitor::with_defaults(reply_deadline(t, RefreshPolicy::NoRefresh));
        for i in 0..5u64 {
            m.process(&arrival(at(i * 999), 1, 2, i));
        }
        m.advance_to(at(10_000));
        assert!(!m.violations().is_empty(), "NoRefresh detects the never-answered stream");
        assert_eq!(m.violations()[0].time, at(1000));
    }

    #[test]
    fn sec23_subtlety_refresh_on_repeat_misses_request_storm() {
        // The same storm with the naive refresh policy is never detected
        // while the storm lasts — the paper's Feature 7 warning.
        let t = Duration::from_millis(1000);
        let mut m = Monitor::with_defaults(reply_deadline(t, RefreshPolicy::RefreshOnRepeat));
        for i in 0..5u64 {
            m.process(&arrival(at(i * 999), 1, 2, i));
        }
        // Inside the storm: no violation yet (each repeat pushed the deadline).
        m.advance_to(at(4 * 999 + 999));
        assert!(m.violations().is_empty(), "refresh-on-repeat suppresses detection");
        // Only once the storm stops does the deadline finally fire.
        m.advance_to(at(20_000));
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].time, at(4 * 999 + 1000));
    }

    #[test]
    fn packet_identity_links_arrival_to_departure() {
        // "An arrival that is then dropped" — requires Feature 5.
        let p = Property {
            name: "arrived-then-dropped".into(),
            statement: "no arriving packet to port 80 is dropped".into(),
            stages: vec![
                Stage::match_(
                    "arrive",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::EqConst(Field::L4Dst, 80u16.into())]),
                ),
                Stage::match_(
                    "same-packet-dropped",
                    EventPattern::Departure(ActionPattern::Drop),
                    Guard::new(vec![Atom::SamePacket(0)]),
                ),
            ],
        };
        let mut m = Monitor::with_defaults(p);
        m.process(&arrival(at(0), 1, 2, 77));
        m.process(&dropped(at(1), 9, 9, 78)); // different packet dropped
        assert!(m.violations().is_empty());
        m.process(&dropped(at(2), 1, 2, 77)); // the same packet dropped
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn out_of_band_event_advances_all_matching_instances() {
        // Multiple match: a port-down event advances one instance per
        // learned address (learning-switch example from Sec 2.4).
        let p = Property {
            name: "link-down-multi".into(),
            statement: "link-down clears learned destinations".into(),
            stages: vec![
                Stage::match_(
                    "learn",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::Bind(var("D"), Field::EthSrc)]),
                ),
                Stage::match_(
                    "link-down",
                    EventPattern::OutOfBand(OobPattern::PortDown),
                    Guard::any(),
                ),
                Stage::match_(
                    "still-unicast",
                    EventPattern::Departure(ActionPattern::Unicast),
                    Guard::new(vec![Atom::Bind(var("D"), Field::EthDst)]),
                ),
            ],
        };
        let mut m = Monitor::with_defaults(p);
        m.process(&arrival(at(0), 1, 9, 0)); // learns D=...01
        m.process(&arrival(at(1), 2, 9, 1)); // learns D=...02
        assert_eq!(m.live_instances(), 2);
        m.process(&NetEvent {
            time: at(2),
            kind: NetEventKind::OutOfBand(OobEvent::PortDown(SwitchId(0), PortNo(3))),
        });
        // Both instances advanced by the single OOB event.
        assert_eq!(m.stats.advanced, 2);
        // Unicast to D=...01 after the link-down: violation for that D only.
        m.process(&forwarded(at(3), 9, 1, 2));
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn one_stage_property_fires_immediately() {
        let p = Property {
            name: "no-telnet".into(),
            statement: "no packet to port 23 is seen".into(),
            stages: vec![Stage::match_(
                "telnet",
                EventPattern::Arrival,
                Guard::new(vec![Atom::EqConst(Field::L4Dst, 80u16.into())]),
            )],
        };
        let mut m = Monitor::with_defaults(p);
        m.process(&arrival(at(0), 1, 2, 0));
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.live_instances(), 0);
    }

    #[test]
    fn duplicate_spawns_dedup() {
        let mut m = Monitor::with_defaults(fw_basic());
        for i in 0..10 {
            m.process(&arrival(at(i), 1, 2, i));
        }
        assert_eq!(m.live_instances(), 1);
        assert_eq!(m.stats.deduplicated, 9);
        // Still exactly one violation for the pair.
        m.process(&dropped(at(100), 2, 1, 99));
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn provenance_modes_control_report_content() {
        for (mode, expect_bindings, expect_history) in [
            (ProvenanceMode::None, false, false),
            (ProvenanceMode::Bindings, true, false),
            (ProvenanceMode::Full, true, true),
        ] {
            let mut m = Monitor::new(
                fw_basic(),
                MonitorConfig {
                    provenance: mode,
                    mode: ProcessingMode::Inline,
                    ..Default::default()
                },
            );
            m.process(&arrival(at(0), 1, 2, 0));
            m.process(&dropped(at(1), 2, 1, 1));
            let v = &m.violations()[0];
            assert_eq!(v.bindings.is_some(), expect_bindings, "{mode:?}");
            assert_eq!(!v.history.is_empty(), expect_history, "{mode:?}");
            if expect_history {
                assert_eq!(v.history.len(), 2, "spawn + trigger events retained");
            }
        }
    }

    #[test]
    fn full_provenance_costs_memory() {
        let mk = |mode| {
            let mut m = Monitor::new(
                fw_basic(),
                MonitorConfig {
                    provenance: mode,
                    mode: ProcessingMode::Inline,
                    ..Default::default()
                },
            );
            for i in 0..50 {
                m.process(&arrival(at(i), (i % 20) as u8, 99, i));
            }
            m.state_bytes()
        };
        let none = mk(ProvenanceMode::None);
        let full = mk(ProvenanceMode::Full);
        assert!(full > none * 2, "full provenance retains packets: {full} vs {none}");
    }

    #[test]
    fn split_mode_misses_fast_violation() {
        // The drop lands 1ms after the outbound packet, but state updates
        // lag by 10ms: the monitor misses the violation entirely.
        let cfg = MonitorConfig {
            provenance: ProvenanceMode::Bindings,
            mode: ProcessingMode::Split { lag: Duration::from_millis(10) },
            ..Default::default()
        };
        let mut m = Monitor::new(fw_basic(), cfg);
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&dropped(at(1), 2, 1, 1)); // spawn not yet applied
        m.advance_to(at(1000));
        assert!(m.violations().is_empty(), "split mode: state lagged, violation missed");

        // Same trace inline: detected.
        let mut m = Monitor::with_defaults(fw_basic());
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&dropped(at(1), 2, 1, 1));
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn split_mode_catches_slow_violation() {
        let cfg = MonitorConfig {
            provenance: ProvenanceMode::Bindings,
            mode: ProcessingMode::Split { lag: Duration::from_millis(10) },
            ..Default::default()
        };
        let mut m = Monitor::new(fw_basic(), cfg);
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&dropped(at(50), 2, 1, 1)); // well past the lag
        m.advance_to(at(1000));
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn stale_split_effects_are_dropped_not_crashed() {
        // Two quick drops race the advance: the second's effect is stale.
        let cfg = MonitorConfig {
            provenance: ProvenanceMode::Bindings,
            mode: ProcessingMode::Split { lag: Duration::from_millis(10) },
            ..Default::default()
        };
        let mut m = Monitor::new(fw_basic(), cfg);
        m.process(&arrival(at(0), 1, 2, 0));
        m.advance_to(at(20)); // spawn applied
        m.process(&dropped(at(21), 2, 1, 1));
        m.process(&dropped(at(22), 2, 1, 2)); // matches same instance pre-advance
        m.advance_to(at(1000));
        // The first lagged advance completes the instance; the second is
        // detected as stale at application time and dropped, not crashed.
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.stats.stale_effects_dropped, 1);
    }

    #[test]
    fn determinism_same_trace_same_results() {
        let trace: Vec<NetEvent> = (0..200u64)
            .map(|i| {
                if i % 3 == 0 {
                    arrival(at(i), (i % 7) as u8, ((i + 1) % 7) as u8, i)
                } else {
                    dropped(at(i), (i % 7) as u8, ((i + 1) % 7) as u8, i)
                }
            })
            .collect();
        let run = || {
            let mut m = Monitor::with_defaults(fw_timeout(Duration::from_millis(50)));
            for ev in &trace {
                m.process(ev);
            }
            m.advance_to(at(1000));
            (m.violations().len(), m.stats.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn live_instances_and_state_bytes_track_growth() {
        let mut m = Monitor::with_defaults(fw_basic());
        assert_eq!(m.state_bytes(), 0);
        for i in 0..100u64 {
            m.process(&arrival(at(i), (i % 50) as u8 + 1, 200, i));
        }
        assert_eq!(m.live_instances(), 50);
        assert!(m.state_bytes() > 0);
    }

    // ---- index-free oracle ---------------------------------------------

    /// The same monitor with every stage scanning: no stage key, so every
    /// bucket is `Scan`. The stage index is an optimisation only, so this
    /// must agree with [`Monitor::new`] on every trace.
    fn unindexed(property: Property, cfg: MonitorConfig) -> Monitor {
        let mut m = Monitor::new(property, cfg);
        m.stage_keys = StageKeyPlan::unkeyed(m.property.stages.len());
        m.buckets = empty_buckets(&m.stage_keys);
        m
    }

    /// Instances currently filed under a packet-identity key.
    fn packet_filed(m: &Monitor) -> usize {
        m.buckets
            .iter()
            .map(|b| match b {
                Bucket::Keyed { maps, .. } => maps
                    .iter()
                    .filter(|(src, _)| matches!(src, KeySource::Packet(_)))
                    .map(|(_, map)| map.values().map(Vec::len).sum::<usize>())
                    .sum(),
                Bucket::Scan(_) => 0,
            })
            .sum()
    }

    /// Everything observable about a monitor's output and state size.
    fn observe(m: &Monitor) -> (String, usize, MonitorStats) {
        (format!("{:?}", m.violations()), m.live_instances(), m.stats.clone())
    }

    #[test]
    fn index_free_oracle_agrees_on_random_traces() {
        let props = [
            "nat/reverse-translation",
            "lb/new-flow-hashed-port",
            "lb/new-flow-round-robin",
            "lb/stable-assignment",
            "arp-proxy/unknown-forwarded",
            "arp-proxy/known-not-forwarded",
            "arp-proxy/reply-within-T",
        ];
        let full = MonitorConfig { provenance: ProvenanceMode::Full, ..MonitorConfig::default() };
        let configs = [
            full,
            MonitorConfig {
                mode: ProcessingMode::Split { lag: Duration::from_millis(40) },
                ..full
            },
            MonitorConfig { capacity: Some(16), ..full },
        ];
        let mut packet_keyed_at_cut = 0usize;
        for name in props {
            let property = crate::test_property(name);
            let mut violations = 0usize;
            for (c, &cfg) in configs.iter().enumerate() {
                for seed in 0..6u64 {
                    let trace = random_trace(seed * 31 + c as u64, 500);
                    let cut = 100 + (seed as usize * 53) % 300;
                    let mut indexed = Monitor::new(property.clone(), cfg);
                    let mut oracle = unindexed(property.clone(), cfg);
                    for (i, ev) in trace.iter().enumerate() {
                        if i == cut {
                            // Checkpoint mid-trace and continue on a restored
                            // monitor, whose buckets are rebuilt from slots.
                            packet_keyed_at_cut += packet_filed(&indexed);
                            let snap = indexed.snapshot();
                            indexed = Monitor::new(property.clone(), cfg);
                            indexed.restore(&snap).expect("restores");
                        }
                        indexed.process(ev);
                        oracle.process(ev);
                        assert_eq!(
                            indexed.live_instances(),
                            oracle.live_instances(),
                            "{name} cfg {c} seed {seed} event {i}"
                        );
                    }
                    let end = at(1_000_000);
                    indexed.advance_to(end);
                    oracle.advance_to(end);
                    assert_eq!(observe(&indexed), observe(&oracle), "{name} cfg {c} seed {seed}");
                    violations += oracle.violations().len();
                }
            }
            // The traces must exercise what they claim to compare.
            assert!(violations > 0, "{name} never fired");
        }
        assert!(packet_keyed_at_cut > 0, "no snapshot cut held packet-keyed instances");
    }
}
