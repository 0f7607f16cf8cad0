//! Instance-key routing analysis — how a property's events may be sharded.
//!
//! A multi-core runtime can only split a property's event stream across
//! workers if every event that can possibly touch one instance lands on the
//! same worker. This module derives, per property, a [`RoutingPlan`] that
//! is *provably* consistent with the reference engine's semantics:
//!
//! * **Hash-exact** — some set of stage-0 binder variables is re-bound by
//!   *every* later match/clearing guard against the *same* field. Any event
//!   that can spawn, advance, clear, or refresh an instance therefore
//!   carries the instance's key values at fixed field positions, and
//!   hashing those positions routes all of an instance's events together.
//! * **Hash-symmetric** — later guards re-bind the key variables against
//!   the *mirror* fields (src↔dst), the paper's symmetric instance
//!   identification. The key is canonicalized (the hash of the extracted
//!   tuple and of its mirror-permuted form, whichever is smaller) so a
//!   request and its reply produce the same shard key even though their
//!   headers are swapped.
//! * **Pinned** — anything else (wandering identification, `Guard::any()`
//!   clearings, out-of-band observations, guards that reference a key
//!   variable only negatively). All events go to one worker, preserving
//!   reference semantics trivially.
//!
//! Key extraction failure is also meaningful: if an event lacks a key
//! field, it cannot satisfy any guard of the property (every guard binds
//! every key variable, and [`crate::guard::Atom::Bind`] fails on a missing
//! field), so the router may skip delivering it — see [`Route::Skip`].
//!
//! Only *top-level* `Bind` atoms count as binders: bindings made inside an
//! `AnyOf` disjunct are discarded by guard evaluation, so they do not pin
//! the event's field to the instance's value.

use crate::features::mirror_field;
use crate::guard::{Atom, Guard};
use crate::pattern::EventPattern;
use crate::property::{Property, Stage, StageKind};
use crate::var::Var;
use std::collections::BTreeMap;
use swmon_packet::{Field, FieldValue};
use swmon_sim::trace::NetEvent;

/// Why a property must be pinned to a single worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinReason {
    /// No stage-0 binder variable is re-bound by every later guard (this
    /// covers `Guard::any()` clearings, out-of-band stages — whose events
    /// carry no fields — and negative-only key references).
    NoStableKey,
    /// A guard re-binds some key variables at their original fields and
    /// others at mirrors; neither orientation covers the whole key.
    MixedOrientation,
    /// A key variable's field mirrors to a field that no other key
    /// variable occupies, so the canonical (order-independent) form of the
    /// key cannot be computed from a single event.
    UnpairedMirror,
}

impl std::fmt::Display for PinReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PinReason::NoStableKey => write!(f, "no binder is stable across all guards"),
            PinReason::MixedOrientation => {
                write!(f, "a guard mixes original and mirrored key fields")
            }
            PinReason::UnpairedMirror => write!(f, "a mirrored key field has no partner"),
        }
    }
}

/// How events of one property map to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteMode {
    /// Hash the values at `fields` (one per key variable, in canonical
    /// variable order).
    HashExact {
        /// Extraction positions, ordered by key variable name.
        fields: Vec<Field>,
    },
    /// Hash the canonical form of the values at `fields`: the smaller of
    /// the tuple's hash and its mirror-permuted tuple's hash.
    HashSymmetric {
        /// Extraction positions, ordered by key variable name.
        fields: Vec<Field>,
        /// `perm[i]` is the index whose field is the mirror of
        /// `fields[i]` (self for unmirrored fields).
        perm: Vec<usize>,
    },
    /// Every event goes to the property's single assigned worker.
    Pinned(PinReason),
}

/// Where the router should send one event for one property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Deliver to shard `key % num_shards`.
    Hash(u64),
    /// Deliver to the property's pinned shard.
    Pinned,
    /// The event lacks a key field, so no guard of this property can match
    /// it: it needs no delivery at all.
    Skip,
}

/// The derived routing discipline for one property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingPlan {
    mode: RouteMode,
}

/// Routing keys fit on the stack: one slot per key variable, and no property
/// in (or out of) the catalog binds more than a 4-tuple. The router runs per
/// event on the ingress hot path, so extraction must not allocate.
const MAX_KEY_FIELDS: usize = 8;

/// Pull the key values out of an event into `buf`, failing on any missing
/// field (the event then cannot satisfy any guard of the property).
///
/// One fetch of the packet's memoized parse serves every packet-borne key
/// field; [`NetEvent::field`] remains the fallback for event-metadata
/// fields (ports) and for packets whose full-depth parse failed, where a
/// shallow field may still be readable by a bounded re-parse — exactly
/// the lookup the engine's guards would perform.
fn extract<'b>(
    ev: &NetEvent,
    fields: &[Field],
    buf: &'b mut [FieldValue; MAX_KEY_FIELDS],
) -> Option<&'b [FieldValue]> {
    debug_assert!(fields.len() <= MAX_KEY_FIELDS);
    let headers = ev.packet().map(|p| p.parsed());
    for (slot, &f) in buf.iter_mut().zip(fields) {
        *slot = match (&headers, f) {
            (Some(Ok(h)), f) if !matches!(f, Field::InPort | Field::OutPort) => h.field(f)?,
            _ => ev.field(f)?,
        };
    }
    Some(&buf[..fields.len()])
}

/// Order-dependent mix of a key tuple into a shard key. Routing shares no
/// arithmetic with the switch substrate's `values_hash` (which monitors
/// use to mirror hash-based network functions); it only needs a
/// deterministic, well-dispersed 64-bit key, computed in a few cycles per
/// field rather than FNV's byte-at-a-time walk.
fn key_hash(vals: impl IntoIterator<Item = FieldValue>) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for v in vals {
        h = (h ^ v.to_u64_key()).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
    }
    h
}

impl RoutingPlan {
    /// Analyse `property` and derive its routing plan.
    pub fn of(property: &Property) -> RoutingPlan {
        RoutingPlan { mode: Self::derive(property) }
    }

    /// The derived mode.
    pub fn mode(&self) -> &RouteMode {
        &self.mode
    }

    /// True if events of this property can be spread across shards.
    pub fn is_hashed(&self) -> bool {
        !matches!(self.mode, RouteMode::Pinned(_))
    }

    /// Route one event under this plan.
    pub fn route(&self, ev: &NetEvent) -> Route {
        let mut buf = [FieldValue::Uint(0); MAX_KEY_FIELDS];
        match &self.mode {
            RouteMode::Pinned(_) => Route::Pinned,
            RouteMode::HashExact { fields } => match extract(ev, fields, &mut buf) {
                Some(vals) => Route::Hash(key_hash(vals.iter().copied())),
                None => Route::Skip,
            },
            RouteMode::HashSymmetric { fields, perm } => match extract(ev, fields, &mut buf) {
                Some(vals) => {
                    let straight = key_hash(vals.iter().copied());
                    let mirrored = key_hash(perm.iter().map(|&j| vals[j]));
                    Route::Hash(straight.min(mirrored))
                }
                None => Route::Skip,
            },
        }
    }

    fn derive(property: &Property) -> RouteMode {
        // Stage-0 binders, dropping any variable bound at two different
        // fields (its extraction position would be ambiguous). BTreeMap
        // gives a canonical variable order.
        let Some(first) = property.stages.first() else {
            return RouteMode::Pinned(PinReason::NoStableKey);
        };
        let Some(spawn_guard) = first.guard() else {
            return RouteMode::Pinned(PinReason::NoStableKey);
        };
        let mut f0: BTreeMap<&Var, Option<Field>> = BTreeMap::new();
        for (v, f) in spawn_guard.binders() {
            match f0.get(v) {
                None => {
                    f0.insert(v, Some(f));
                }
                Some(Some(prev)) if *prev != f => {
                    f0.insert(v, None); // ambiguous: disqualify
                }
                Some(_) => {}
            }
        }
        let f0: BTreeMap<&Var, Field> =
            f0.into_iter().filter_map(|(v, f)| f.map(|f| (v, f))).collect();

        // Guards an awaiting instance can be matched against: later stages'
        // match guards and their clearings. Stage 0's own `unless` list is
        // dead code (instances never *await* stage 0) and is ignored.
        let mut guards: Vec<&Guard> = Vec::new();
        for stage in &property.stages[1..] {
            if let StageKind::Match { guard, .. } = &stage.kind {
                guards.push(guard);
            }
            for u in &stage.unless {
                guards.push(&u.guard);
            }
        }

        let binds = |g: &Guard, v: &Var, f: Field| g.binders().any(|(gv, gf)| gv == v && gf == f);

        // Exact: variables every guard re-binds at the stage-0 field.
        let exact: Vec<(&Var, Field)> = f0
            .iter()
            .filter(|(v, f)| guards.iter().all(|g| binds(g, v, **f)))
            .map(|(v, f)| (*v, *f))
            .collect();
        if !exact.is_empty() && exact.len() <= MAX_KEY_FIELDS {
            return RouteMode::HashExact { fields: exact.into_iter().map(|(_, f)| f).collect() };
        }
        if exact.len() > MAX_KEY_FIELDS {
            // Wider keys than the stack extraction buffer: pinning is always
            // sound, and no real property binds more than a 4-tuple.
            return RouteMode::Pinned(PinReason::NoStableKey);
        }

        // Symmetric: variables every guard re-binds at the stage-0 field or
        // its mirror.
        let morf = |f: Field| mirror_field(f).unwrap_or(f);
        let cand: Vec<(&Var, Field)> = f0
            .iter()
            .filter(|(v, f)| guards.iter().all(|g| binds(g, v, **f) || binds(g, v, morf(**f))))
            .map(|(v, f)| (*v, *f))
            .collect();
        if cand.is_empty() || cand.len() > MAX_KEY_FIELDS {
            return RouteMode::Pinned(PinReason::NoStableKey);
        }
        let fields: Vec<Field> = cand.iter().map(|(_, f)| *f).collect();
        // Distinct extraction positions, or the mirror permutation below
        // would be ill-defined.
        let mut uniq = fields.clone();
        uniq.sort_unstable();
        uniq.dedup();
        if uniq.len() != fields.len() {
            return RouteMode::Pinned(PinReason::NoStableKey);
        }
        // Each guard must use one orientation for the *whole* key: all
        // original fields, or all mirrored. A mixed guard would make the
        // canonical form unsound.
        for g in &guards {
            let all_orig = cand.iter().all(|(v, f)| binds(g, v, *f));
            let all_mirr = cand.iter().all(|(v, f)| binds(g, v, morf(*f)));
            if !all_orig && !all_mirr {
                return RouteMode::Pinned(PinReason::MixedOrientation);
            }
        }
        // Mirror pairing: the mirrored tuple must be a permutation of the
        // extracted tuple, so both forms are computable from one event.
        let mut perm = Vec::with_capacity(fields.len());
        for &f in &fields {
            match mirror_field(f) {
                None => perm.push(perm.len()),
                Some(mf) => match fields.iter().position(|&other| other == mf) {
                    Some(j) => perm.push(j),
                    None => return RouteMode::Pinned(PinReason::UnpairedMirror),
                },
            }
        }
        RouteMode::HashSymmetric { fields, perm }
    }
}

/// What an awaiting instance is filed under in a keyed stage index: a value
/// the instance holds that any event able to affect it must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySource {
    /// The instance's binding of a held variable.
    Var(Var),
    /// The packet identity the instance recorded at observation stage `k`
    /// (its `stage_ids[k]`, immutable once recorded).
    Packet(usize),
}

/// How one guard of a stage finds, from an event, the key value of every
/// awaiting instance the guard could succeed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The guard top-level-binds the held variable at the field, so a
    /// satisfying event carries the instance's value of it there.
    Bind(Var, Field),
    /// The guard carries a top-level `same packet as k`, so a satisfying
    /// event's packet id is the one the instance recorded at stage `k`.
    Packet(usize),
}

impl Probe {
    /// The instance-side value this probe is compared against.
    pub fn source(&self) -> KeySource {
        match *self {
            Probe::Bind(v, _) => KeySource::Var(v),
            Probe::Packet(k) => KeySource::Packet(k),
        }
    }
}

/// Where events matching one stage's guards carry the key of the instances
/// they can affect: one [`Probe`] per guard.
///
/// Soundness contract (what lets the engine consult an index instead of
/// scanning): **every** guard an event could satisfy at this stage — the
/// advance guard and each clearing guard — has a probe, and a probe is only
/// derived from a top-level atom, which must hold for the guard to succeed.
///
/// * A [`Probe::Bind`] variable is *definitely bound* in every instance
///   awaiting the stage (a top-level binder of some earlier match stage, and
///   a guard only succeeds if all its top-level binds unify), so a
///   satisfying event carries the instance's value at the probe's field.
/// * A [`Probe::Packet`] guard only succeeds when the event's packet id
///   equals the instance's recorded `stage_ids[k]`; an instance that
///   recorded no id there (a `None` token) cannot satisfy it at all.
///
/// An event that can affect some instance therefore reproduces one of that
/// instance's key values through the probe of the guard it satisfies, so a
/// `value → instances` lookup per [`KeySource`] finds every affected
/// instance. The engine files an instance lacking any source value in an
/// always-scanned overflow list, which keeps the lookup complete without
/// relying on the analysis for definedness.
///
/// Stages where one held variable serves every guard keep that single
/// source (the derivation tries it first); per-guard probes, which may read
/// several sources, are the fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKey {
    /// Probe for the stage's match guard (`None` for deadline stages, which
    /// have no advance guard).
    pub advance: Option<Probe>,
    /// Per clearing guard, in `unless` order.
    pub unless: Vec<Probe>,
}

impl StageKey {
    /// The distinct sources the probes read, in first-use order (advance,
    /// then clearings). A single-variable key has exactly one.
    pub fn sources(&self) -> Vec<KeySource> {
        let mut out = Vec::new();
        for p in self.advance.iter().chain(&self.unless) {
            if !out.contains(&p.source()) {
                out.push(p.source());
            }
        }
        out
    }
}

/// Per-stage instance-index keys for one property: `key(s)` describes how
/// to find instances awaiting stage `s` from an event, or `None` when the
/// stage defeats the analysis and the engine must fall back to a scan.
/// Correctness never depends on a key existing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKeyPlan {
    /// `keys[s]` for awaiting-stage `s`; `keys[0]` is always `None`
    /// (instances never await stage 0).
    keys: Vec<Option<StageKey>>,
}

impl StageKeyPlan {
    /// Derive per-stage keys for `property`.
    pub fn of(property: &Property) -> StageKeyPlan {
        let mut keys: Vec<Option<StageKey>> = vec![None];
        // Variables definitely bound by every instance awaiting the current
        // stage: top-level binders of all earlier match stages. (Deadline
        // stages bind nothing; guard success implies all its binds held.)
        let mut bound: std::collections::BTreeSet<Var> = std::collections::BTreeSet::new();
        if let Some(g) = property.stages.first().and_then(Stage::guard) {
            bound.extend(g.binders().map(|(v, _)| *v));
        }
        for stage in property.stages.iter().skip(1) {
            keys.push(Self::stage_key(property, stage, &bound));
            if let StageKind::Match { guard, .. } = &stage.kind {
                bound.extend(guard.binders().map(|(v, _)| *v));
            }
        }
        StageKeyPlan { keys }
    }

    /// A plan that keys no stage, so every stage scans: the index-free
    /// oracle the engine's differential tests compare against.
    #[cfg(test)]
    pub(crate) fn unkeyed(stages: usize) -> StageKeyPlan {
        StageKeyPlan { keys: vec![None; stages] }
    }

    fn stage_key(
        property: &Property,
        stage: &Stage,
        bound: &std::collections::BTreeSet<Var>,
    ) -> Option<StageKey> {
        if matches!(stage.kind, StageKind::Deadline { .. }) && stage.unless.is_empty() {
            // A deadline stage with no clearings: no event guard exists, so
            // there is nothing to key on (and nothing to look up — pattern
            // pre-checks already skip every event).
            return None;
        }
        Self::shared_var_key(stage, bound).or_else(|| Self::per_guard_key(property, stage, bound))
    }

    /// One held variable that every guard of the stage re-binds at a field
    /// (the smallest such variable in canonical name order).
    fn shared_var_key(stage: &Stage, bound: &std::collections::BTreeSet<Var>) -> Option<StageKey> {
        bound.iter().find_map(|v| {
            let rebind =
                |g: &Guard| g.binders().find(|(gv, _)| *gv == v).map(|(_, f)| Probe::Bind(*v, f));
            let advance = match &stage.kind {
                StageKind::Match { guard, .. } => Some(rebind(guard)?),
                StageKind::Deadline { .. } => None,
            };
            let unless = stage.unless.iter().map(|u| rebind(&u.guard)).collect::<Option<_>>()?;
            Some(StageKey { advance, unless })
        })
    }

    /// A probe per guard: the smallest held variable it top-level-binds,
    /// else its first top-level `same packet as` a packet-observing stage.
    /// Fails if any guard has neither.
    fn per_guard_key(
        property: &Property,
        stage: &Stage,
        bound: &std::collections::BTreeSet<Var>,
    ) -> Option<StageKey> {
        // Only a match stage observing packets records an id; deadline and
        // out-of-band stages record `None`, so a probe on them would file
        // every instance in the overflow list — a scan in disguise.
        let records_id = |k: usize| match &property.stages[k].kind {
            StageKind::Match { pattern, .. } => !matches!(pattern, EventPattern::OutOfBand(_)),
            StageKind::Deadline { .. } => false,
        };
        let probe = |g: &Guard| {
            bound
                .iter()
                .find_map(|v| g.binders().find(|(gv, _)| *gv == v).map(|(_, f)| Probe::Bind(*v, f)))
                .or_else(|| {
                    g.atoms.iter().find_map(|a| match a {
                        Atom::SamePacket(k) if records_id(*k) => Some(Probe::Packet(*k)),
                        _ => None,
                    })
                })
        };
        let advance = match &stage.kind {
            StageKind::Match { guard, .. } => Some(probe(guard)?),
            StageKind::Deadline { .. } => None,
        };
        let unless = stage.unless.iter().map(|u| probe(&u.guard)).collect::<Option<_>>()?;
        Some(StageKey { advance, unless })
    }

    /// The key for instances awaiting stage `s`, if the stage is keyable.
    pub fn key(&self, s: usize) -> Option<&StageKey> {
        self.keys.get(s).and_then(Option::as_ref)
    }

    /// Number of stages covered (equals the property's stage count).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no stage is keyable.
    pub fn is_empty(&self) -> bool {
        self.keys.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{ActionPattern, EventPattern};
    use crate::property::{RefreshPolicy, Stage, Unless};
    use crate::var::var;
    use std::sync::Arc;
    use swmon_packet::{Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
    use swmon_sim::time::{Duration, Instant};
    use swmon_sim::trace::{NetEventKind, PacketId, PortNo, SwitchId};

    fn prop(stages: Vec<Stage>) -> Property {
        Property { name: "p".into(), statement: String::new(), stages }
    }

    fn bind_stage(name: &str, binds: &[(&str, Field)]) -> Stage {
        Stage::match_(
            name,
            EventPattern::Arrival,
            Guard::new(binds.iter().map(|(v, f)| Atom::Bind(var(v), *f)).collect()),
        )
    }

    fn tcp_event(src: u8, dst: u8, sport: u16, dport: u16) -> NetEvent {
        let pkt = Arc::new(PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, src),
            MacAddr::new(2, 0, 0, 0, 0, dst),
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, dst),
            sport,
            dport,
            TcpFlags::SYN,
            &[],
        ));
        NetEvent {
            time: Instant::ZERO,
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(1),
                pkt,
                id: PacketId(0),
            },
        }
    }

    #[test]
    fn exact_property_hashes_fixed_fields() {
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)]),
            bind_stage("b", &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)]),
        ]);
        let plan = RoutingPlan::of(&p);
        assert!(plan.is_hashed());
        assert_eq!(
            plan.mode(),
            &RouteMode::HashExact { fields: vec![Field::Ipv4Src, Field::Ipv4Dst] }
        );
        // Same flow → same key; different flow → (overwhelmingly) different.
        let k1 = plan.route(&tcp_event(1, 2, 10, 20));
        let k2 = plan.route(&tcp_event(1, 2, 99, 99));
        let k3 = plan.route(&tcp_event(3, 4, 10, 20));
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn symmetric_property_canonicalizes_direction() {
        let p = prop(vec![
            bind_stage("req", &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)]),
            bind_stage("rep", &[("B", Field::Ipv4Src), ("A", Field::Ipv4Dst)]),
        ]);
        let plan = RoutingPlan::of(&p);
        assert!(matches!(plan.mode(), RouteMode::HashSymmetric { .. }));
        let fwd = plan.route(&tcp_event(1, 2, 10, 20));
        let rev = plan.route(&tcp_event(2, 1, 10, 20));
        assert!(matches!(fwd, Route::Hash(_)));
        assert_eq!(fwd, rev, "request and reply must share a shard key");
        assert_ne!(fwd, plan.route(&tcp_event(1, 3, 10, 20)));
    }

    #[test]
    fn four_tuple_symmetric_key_pairs_l3_and_l4() {
        let p = prop(vec![
            bind_stage(
                "req",
                &[
                    ("A", Field::Ipv4Src),
                    ("B", Field::Ipv4Dst),
                    ("P", Field::L4Src),
                    ("Q", Field::L4Dst),
                ],
            ),
            bind_stage(
                "rep",
                &[
                    ("B", Field::Ipv4Src),
                    ("A", Field::Ipv4Dst),
                    ("Q", Field::L4Src),
                    ("P", Field::L4Dst),
                ],
            ),
        ]);
        let plan = RoutingPlan::of(&p);
        assert!(matches!(plan.mode(), RouteMode::HashSymmetric { .. }));
        assert_eq!(plan.route(&tcp_event(1, 2, 10, 20)), plan.route(&tcp_event(2, 1, 20, 10)));
        assert_ne!(
            plan.route(&tcp_event(1, 2, 10, 20)),
            plan.route(&tcp_event(2, 1, 10, 20)),
            "swapping only L3 is a different bidirectional flow"
        );
    }

    #[test]
    fn single_var_symmetric_is_pinned() {
        // A is bound at Src, matched at Dst: from one event the router
        // cannot tell which endpoint is the instance key.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            bind_stage("b", &[("A", Field::Ipv4Dst)]),
        ]);
        assert_eq!(RoutingPlan::of(&p).mode(), &RouteMode::Pinned(PinReason::UnpairedMirror));
    }

    #[test]
    fn any_guard_clearing_pins() {
        let mut d = Stage::deadline("d", Duration::from_secs(1), RefreshPolicy::NoRefresh);
        d.unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Forwarded),
            guard: Guard::any(),
        }];
        let p = prop(vec![bind_stage("a", &[("A", Field::Ipv4Src)]), d]);
        assert_eq!(RoutingPlan::of(&p).mode(), &RouteMode::Pinned(PinReason::NoStableKey));
    }

    #[test]
    fn wandering_property_is_pinned() {
        let p = prop(vec![
            bind_stage("a", &[("L", Field::DhcpYiaddr)]),
            bind_stage("b", &[("L", Field::ArpTargetIp)]),
        ]);
        assert_eq!(RoutingPlan::of(&p).mode(), &RouteMode::Pinned(PinReason::NoStableKey));
    }

    #[test]
    fn negative_only_reference_pins() {
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            Stage::match_(
                "b",
                EventPattern::Arrival,
                Guard::new(vec![Atom::NeqVar(Field::Ipv4Src, var("A"))]),
            ),
        ]);
        assert_eq!(RoutingPlan::of(&p).mode(), &RouteMode::Pinned(PinReason::NoStableKey));
    }

    #[test]
    fn mixed_orientation_pins() {
        // B wanders to an unrelated field, but A stays put: the key simply
        // shrinks to A.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)]),
            bind_stage("b", &[("A", Field::Ipv4Src), ("B", Field::L4Src)]),
        ]);
        assert_eq!(
            RoutingPlan::of(&p).mode(),
            &RouteMode::HashExact { fields: vec![Field::Ipv4Src] }
        );
        // Stage 1 fully mirrors the pair, but stage 2 mirrors only A while
        // keeping B: no single orientation covers stage 2's key use, and no
        // variable is exact-stable across both stages.
        let q = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)]),
            bind_stage("b", &[("A", Field::Ipv4Dst), ("B", Field::Ipv4Src)]),
            bind_stage("c", &[("A", Field::Ipv4Dst), ("B", Field::Ipv4Dst)]),
        ]);
        assert_eq!(RoutingPlan::of(&q).mode(), &RouteMode::Pinned(PinReason::MixedOrientation));
    }

    #[test]
    fn missing_key_field_skips() {
        // Key over DHCP fields; a plain TCP packet cannot match any guard.
        let p = prop(vec![
            bind_stage("a", &[("X", Field::DhcpXid)]),
            bind_stage("b", &[("X", Field::DhcpXid)]),
        ]);
        let plan = RoutingPlan::of(&p);
        assert!(plan.is_hashed());
        assert_eq!(plan.route(&tcp_event(1, 2, 10, 20)), Route::Skip);
    }

    #[test]
    fn anyof_binds_do_not_count() {
        // The only stage-1 reference to A lives inside a disjunction, whose
        // bindings are discarded: not a stable key.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            Stage::match_(
                "b",
                EventPattern::Arrival,
                Guard::new(vec![Atom::AnyOf(vec![
                    Atom::Bind(var("A"), Field::Ipv4Src),
                    Atom::EqConst(Field::L4Dst, 80u16.into()),
                ])]),
            ),
        ]);
        assert_eq!(RoutingPlan::of(&p).mode(), &RouteMode::Pinned(PinReason::NoStableKey));
    }

    #[test]
    fn pin_reasons_display() {
        for r in [PinReason::NoStableKey, PinReason::MixedOrientation, PinReason::UnpairedMirror] {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn single_stage_property_uses_spawn_binders() {
        let p = prop(vec![bind_stage("only", &[("A", Field::Ipv4Src)])]);
        assert_eq!(
            RoutingPlan::of(&p).mode(),
            &RouteMode::HashExact { fields: vec![Field::Ipv4Src] }
        );
    }

    #[test]
    fn stage_keys_pick_smallest_covering_binder() {
        // Both A and B are bound at spawn and re-bound at stage 1; the
        // plan must pick A (canonical name order) and record both the
        // advance field and the clearing field.
        let mut s1 = bind_stage("b", &[("A", Field::Ipv4Dst), ("B", Field::Ipv4Src)]);
        s1.unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Drop),
            guard: Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
        }];
        let p = prop(vec![bind_stage("a", &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)]), s1]);
        let plan = StageKeyPlan::of(&p);
        assert_eq!(plan.len(), 2);
        assert!(plan.key(0).is_none(), "instances never await stage 0");
        let k = plan.key(1).expect("stage 1 is keyable");
        assert_eq!(k.advance, Some(Probe::Bind(var("A"), Field::Ipv4Dst)));
        assert_eq!(k.unless, vec![Probe::Bind(var("A"), Field::Ipv4Src)]);
        assert_eq!(k.sources(), vec![KeySource::Var(var("A"))]);
        assert!(!plan.is_empty());
    }

    #[test]
    fn stage_keys_fall_back_when_a_guard_misses_the_var() {
        // Stage 1's clearing guard does not re-bind A (or anything bound),
        // so a keyed index could miss clearings: the stage must scan.
        let mut s1 = bind_stage("b", &[("A", Field::Ipv4Src)]);
        s1.unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Forwarded),
            guard: Guard::any(),
        }];
        let p = prop(vec![bind_stage("a", &[("A", Field::Ipv4Src)]), s1]);
        let plan = StageKeyPlan::of(&p);
        assert!(plan.key(1).is_none());
        assert!(plan.is_empty());
    }

    #[test]
    fn stage_keys_handle_deadline_stages() {
        // A deadline stage with a keyed clearing: advances come from the
        // clock (no advance field) but clearings are still keyable.
        let mut d = Stage::deadline("d", Duration::from_secs(1), RefreshPolicy::NoRefresh);
        d.unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Forwarded),
            guard: Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Dst)]),
        }];
        let p = prop(vec![bind_stage("a", &[("A", Field::Ipv4Src)]), d]);
        let plan = StageKeyPlan::of(&p);
        let k = plan.key(1).expect("deadline clearing is keyable");
        assert_eq!(k.advance, None);
        assert_eq!(k.unless, vec![Probe::Bind(var("A"), Field::Ipv4Dst)]);

        // A bare deadline (no clearings) has no event guards at all: there
        // is nothing to key on, and nothing a key would be consulted for.
        let bare = Stage::deadline("d", Duration::from_secs(1), RefreshPolicy::NoRefresh);
        let q = prop(vec![bind_stage("a", &[("A", Field::Ipv4Src)]), bare]);
        assert!(StageKeyPlan::of(&q).key(1).is_none());
    }

    #[test]
    fn stage_keys_ignore_anyof_binds() {
        // The only re-bind of A at stage 1 is inside a disjunct, whose
        // bindings are discarded: an index on A would miss advances.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            Stage::match_(
                "b",
                EventPattern::Arrival,
                Guard::new(vec![Atom::AnyOf(vec![
                    Atom::Bind(var("A"), Field::Ipv4Src),
                    Atom::EqConst(Field::L4Dst, 80u16.into()),
                ])]),
            ),
        ]);
        assert!(StageKeyPlan::of(&p).key(1).is_none());
    }

    #[test]
    fn stage_keys_use_later_stage_binders() {
        // B is only bound at stage 1, but instances awaiting stage 2 have
        // passed stage 1, so B is definitely bound there and usable.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            bind_stage("b", &[("B", Field::DhcpXid)]),
            bind_stage("c", &[("B", Field::DhcpXid)]),
        ]);
        let plan = StageKeyPlan::of(&p);
        let k = plan.key(2).expect("stage 2 keys on B");
        assert_eq!(k.advance, Some(Probe::Bind(var("B"), Field::DhcpXid)));
    }

    fn catalog_key(name: &str, s: usize) -> Option<StageKey> {
        StageKeyPlan::of(&crate::test_property(name)).key(s).cloned()
    }

    #[test]
    fn nat_identity_stages_key_on_the_packet() {
        // Stages 1 and 3 match only `same packet as` an earlier stage (their
        // binds are fresh variables, or sit inside `any_of`).
        let nat = "nat/reverse-translation";
        let packet = |k| Some(StageKey { advance: Some(Probe::Packet(k)), unless: vec![] });
        assert_eq!(catalog_key(nat, 1), packet(0));
        assert_eq!(catalog_key(nat, 3), packet(2));
        // Stage 2 keeps its variable key.
        assert_eq!(
            catalog_key(nat, 2).and_then(|k| k.advance),
            Some(Probe::Bind(var("A2"), Field::Ipv4Dst))
        );
    }

    #[test]
    fn hashed_port_stage_probes_packet_and_clearing_var() {
        let k = catalog_key("lb/new-flow-hashed-port", 1).expect("keyed");
        assert_eq!(k.advance, Some(Probe::Packet(0)));
        assert_eq!(
            k.unless,
            vec![Probe::Bind(var("A"), Field::Ipv4Src), Probe::Bind(var("A"), Field::Ipv4Dst)]
        );
        assert_eq!(k.sources(), vec![KeySource::Packet(0), KeySource::Var(var("A"))]);
    }

    #[test]
    fn arp_deadline_stage_probes_packet_and_y() {
        let k = catalog_key("arp-proxy/unknown-forwarded", 1).expect("keyed");
        assert_eq!(k.advance, None);
        assert_eq!(k.unless, vec![Probe::Packet(0), Probe::Bind(var("Y"), Field::ArpSenderIp)]);
    }

    #[test]
    fn same_packet_inside_any_of_gives_no_key() {
        // A disjunct need not hold, so its identity test does not pin the
        // event's packet id to the instance's.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            Stage::match_(
                "b",
                EventPattern::Departure(ActionPattern::Forwarded),
                Guard::new(vec![Atom::AnyOf(vec![
                    Atom::SamePacket(0),
                    Atom::EqConst(Field::L4Dst, 80u16.into()),
                ])]),
            ),
        ]);
        assert!(StageKeyPlan::of(&p).key(1).is_none());
        // The same atom at top level is a key.
        let q = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            Stage::match_(
                "b",
                EventPattern::Departure(ActionPattern::Forwarded),
                Guard::new(vec![Atom::SamePacket(0)]),
            ),
        ]);
        assert_eq!(StageKeyPlan::of(&q).key(1).and_then(|k| k.advance), Some(Probe::Packet(0)));
    }

    #[test]
    fn same_packet_as_an_idless_stage_gives_no_key() {
        // An out-of-band stage records no packet id, so nothing could be
        // filed under it.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            Stage::match_(
                "down",
                EventPattern::OutOfBand(crate::pattern::OobPattern::PortDown),
                Guard::any(),
            ),
            Stage::match_(
                "c",
                EventPattern::Departure(ActionPattern::Forwarded),
                Guard::new(vec![Atom::SamePacket(1)]),
            ),
        ]);
        assert!(StageKeyPlan::of(&p).key(2).is_none());
    }

    #[test]
    fn previously_keyed_catalog_stages_derive_identical_keys() {
        // Every catalog stage the single-variable search keyed before
        // packet probes existed: (property, stage, var, advance field,
        // clearing fields). They must keep exactly this key.
        use Field::*;
        type Row = (&'static str, usize, &'static str, Option<Field>, &'static [Field]);
        #[rustfmt::skip]
        let before: [Row; 25] = [
            ("arp-proxy/known-not-forwarded", 1, "Y", Some(ArpTargetIp), &[]),
            ("port-knock/wrong-guess-invalidates", 1, "S", Some(Ipv4Src), &[]),
            ("port-knock/wrong-guess-invalidates", 2, "S", Some(Ipv4Src), &[]),
            ("port-knock/wrong-guess-invalidates", 3, "S", Some(Ipv4Src), &[]),
            ("port-knock/valid-sequence-opens", 1, "S", Some(Ipv4Src), &[Ipv4Src]),
            ("port-knock/valid-sequence-opens", 2, "S", Some(Ipv4Src), &[]),
            ("lb/stable-assignment", 2, "A", Some(Ipv4Dst), &[]),
            ("ftp/data-port-matches-control", 1, "A", Some(Ipv4Dst), &[]),
            ("dhcp/reply-within-T", 1, "H", None, &[EthDst]),
            ("dhcp/no-reuse-before-expiry", 1, "C", Some(DhcpChaddr), &[]),
            ("dhcp/no-reuse-before-expiry", 2, "Y", Some(DhcpYiaddr), &[DhcpCiaddr]),
            ("dhcp/no-lease-overlap", 1, "H", Some(EthDst), &[]),
            ("dhcp/no-lease-overlap", 2, "Y", Some(DhcpYiaddr), &[]),
            ("dhcp-arp/preload-cache", 1, "Y", Some(ArpTargetIp), &[]),
            ("dhcp-arp/preload-cache", 2, "M", None, &[ArpSenderMac]),
            ("dhcp-arp/no-unfounded-direct-reply", 1, "Y", Some(ArpSenderIp), &[DhcpYiaddr, ArpSenderIp]),
            ("firewall/return-not-dropped", 1, "A", Some(Ipv4Dst), &[]),
            ("firewall/return-not-dropped-within-T", 1, "A", Some(Ipv4Dst), &[]),
            ("firewall/return-until-close", 1, "A", Some(Ipv4Dst), &[Ipv4Src, Ipv4Dst]),
            ("nat/reverse-translation", 2, "A2", Some(Ipv4Dst), &[]),
            ("learning-switch/no-flood-after-learn", 1, "D", Some(EthDst), &[]),
            ("learning-switch/correct-port", 1, "D", Some(EthDst), &[]),
            ("learning-switch/flush-on-link-down", 2, "D", Some(EthDst), &[EthSrc]),
            ("arp-proxy/reply-within-T", 1, "Y", Some(ArpTargetIp), &[]),
            ("arp-proxy/reply-within-T", 2, "Y", None, &[ArpSenderIp]),
        ];
        for (name, s, v, advance, unless) in before {
            let v = var(v);
            let want = StageKey {
                advance: advance.map(|f| Probe::Bind(v, f)),
                unless: unless.iter().map(|&f| Probe::Bind(v, f)).collect(),
            };
            assert_eq!(catalog_key(name, s), Some(want), "{name} stage {s}");
        }
        // And every catalog stage that is keyed now but not listed above
        // reads at least one packet identity.
        for p in crate::test_catalog() {
            let plan = StageKeyPlan::of(&p);
            for s in 0..plan.len() {
                let Some(k) = plan.key(s) else { continue };
                if !before.iter().any(|(n, bs, ..)| *n == p.name && *bs == s) {
                    assert!(
                        k.sources().iter().any(|src| matches!(src, KeySource::Packet(_))),
                        "{} stage {s} newly keyed without a packet probe: {k:?}",
                        p.name
                    );
                }
            }
        }
    }
}
