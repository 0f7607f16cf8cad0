//! Immutable indexed segments — the store's unit of ingest and encoding.
//!
//! Every ingested batch becomes one [`Segment`]: a row vector plus
//! secondary indexes built once at construction and never mutated. The
//! indexes are *derived* data — the byte encoding frames only the rows
//! (under the `SWVS` magic, via the canonical [`swmon_core::wire`]
//! framing) and rebuilds the indexes on decode, so a segment that
//! round-trips through bytes is structurally identical to one built
//! directly.
//!
//! Binding values are indexed by `(VarId, FieldValue)` against the
//! segment's own [`VarTable`] — the interned representation from
//! `swmon_core`, not a re-stringified form — so a `bind(A, 10.0.0.7)`
//! probe is one binary search of a flat postings index, not a scan of
//! `Display` output.

use swmon_core::wire::{Reader, SnapshotError, Writer};
use swmon_core::{var, Var, VarId, VarTable};
use swmon_packet::FieldValue;
use swmon_runtime::ViolationRecord;

use crate::swql::Atom;

/// Magic of the segment byte encoding (`SWMS`-family framing).
pub const SEGMENT_MAGIC: &[u8; 4] = b"SWVS";
/// Current segment format version. Version 2 added per-row deploy
/// provenance (the catalog epoch the violation was raised under).
pub const SEGMENT_VERSION: u16 = 2;

/// Shard provenance marker for rows whose originating shard is unknown
/// (e.g. a sealed store rebuilt from merged records that were never
/// published live).
pub const NO_SHARD: u32 = u32::MAX;

/// One stored violation: the store's primary key, its provenance, and the
/// record itself.
#[derive(Debug, Clone)]
pub struct Row {
    /// The store's primary key. Before seal: ingest order (prefix of the
    /// live publication stream). After seal: the violation's canonical
    /// [`swmon_core::Violation::merge_seq`].
    pub store_seq: u64,
    /// The shard that discovered the violation ([`NO_SHARD`] if unknown).
    pub shard: u32,
    /// The violation plus its canonical-merge metadata.
    pub record: ViolationRecord,
}

/// An immutable batch of rows with secondary indexes.
#[derive(Debug)]
pub struct Segment {
    rows: Vec<Row>,
    /// Inclusive violation-time range; `(u64::MAX, 0)` when empty.
    min_time: u64,
    max_time: u64,
    /// Binder variables appearing in this segment's rows, interned.
    vars: VarTable,
    /// Property name → row positions, sorted by name.
    props: Vec<(String, Vec<u32>)>,
    /// Interned binding value → postings range, sorted by key. Kept flat
    /// (one key vector + one postings vector) rather than as a map of
    /// per-key `Vec`s: a high-cardinality segment would otherwise retain
    /// thousands of small allocations, which degrades every later
    /// `Segment::build` in a long-lived store (allocator pressure grows
    /// with the number of live blocks, not bytes).
    bind_keys: Vec<((VarId, FieldValue), u32, u32)>,
    bind_postings: Vec<u32>,
    /// Shard → row positions, sorted by shard.
    shards: Vec<(u32, Vec<u32>)>,
    /// Catalog epoch → row positions, sorted by epoch (deploy provenance).
    epochs: Vec<(u64, Vec<u32>)>,
    /// Rows with degraded provenance.
    degraded: Vec<u32>,
}

/// `(key, row)` packed into one integer whose order is the tuple order
/// (`FieldValue` orders by variant, then by value; MAC and IPv4 bytes
/// compare as big-endian integers), so the postings sort compares
/// integers instead of enums. Bits: variable 16, variant 2, value 64,
/// row 32.
fn sort_key((id, val): (VarId, FieldValue), row: u32) -> u128 {
    let (variant, value) = match val {
        FieldValue::Mac(m) => (0u128, m.0.iter().fold(0u64, |acc, &b| acc << 8 | u64::from(b))),
        FieldValue::Ipv4(a) => (1, u64::from(u32::from_be_bytes(a.0))),
        FieldValue::Uint(v) => (2, v),
    };
    u128::from(id.0) << 98 | variant << 96 | u128::from(value) << 32 | u128::from(row)
}

/// Key → row positions for a handful of distinct keys, filled in row
/// order. `last` remembers the previous row's entry, so a run of equal
/// keys costs one comparison per row.
struct Postings<K> {
    entries: Vec<(K, Vec<u32>)>,
    last: usize,
}

impl<K> Default for Postings<K> {
    fn default() -> Self {
        Postings { entries: Vec::new(), last: 0 }
    }
}

impl<K: PartialEq + Ord> Postings<K> {
    fn push(&mut self, key: K, row: u32) {
        if self.entries.get(self.last).is_none_or(|(k, _)| *k != key) {
            self.last = match self.entries.iter().position(|(k, _)| *k == key) {
                Some(at) => at,
                None => {
                    self.entries.push((key, Vec::new()));
                    self.entries.len() - 1
                }
            };
        }
        self.entries[self.last].1.push(row);
    }

    fn sorted(mut self) -> Vec<(K, Vec<u32>)> {
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
        self.entries
    }
}

impl Segment {
    /// Build a segment (and all its indexes) from `rows`.
    ///
    /// A published batch holds few distinct properties, shards, epochs
    /// and binder variables, usually in runs, so each index key is found
    /// by a linear probe that tries the previous row's key first — no
    /// hashing, and no per-binding string comparison (variables are
    /// interned, so the probe compares pointers).
    pub fn build(rows: Vec<Row>) -> Self {
        let mut min_time = u64::MAX;
        let mut max_time = 0u64;
        let mut var_list: Vec<Var> = Vec::new();
        for b in rows.iter().filter_map(|r| r.record.violation.bindings.as_ref()) {
            for (v, _) in b.iter() {
                if !var_list.contains(v) {
                    var_list.push(*v);
                }
            }
        }
        let vars = VarTable::from_vars(var_list.iter().copied());
        let ids: Vec<(Var, VarId)> =
            var_list.iter().map(|v| (*v, vars.id(v).expect("table built from these"))).collect();
        let mut props: Postings<&str> = Postings::default();
        let mut pairs: Vec<(u128, (VarId, FieldValue))> = Vec::new();
        let mut shards: Postings<u32> = Postings::default();
        let mut epochs: Postings<u64> = Postings::default();
        let mut degraded = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let i = i as u32;
            let v = &row.record.violation;
            let t = v.time.as_nanos();
            min_time = min_time.min(t);
            max_time = max_time.max(t);
            props.push(v.property.as_str(), i);
            if let Some(b) = &v.bindings {
                for (bv, val) in b.iter() {
                    let id = ids.iter().find(|(v, _)| v == bv).map(|&(_, id)| id);
                    let key = (id.expect("segment VarTable covers its own rows"), *val);
                    pairs.push((sort_key(key, i), key));
                }
            }
            shards.push(row.shard, i);
            epochs.push(row.record.epoch, i);
            if v.degraded {
                degraded.push(i);
            }
        }
        // Sorting by (key, position) leaves each key's postings run sorted.
        pairs.sort_unstable_by_key(|&(k, _)| k);
        let mut bind_keys: Vec<((VarId, FieldValue), u32, u32)> = Vec::new();
        let bind_postings: Vec<u32> = pairs.iter().map(|&(k, _)| k as u32).collect();
        for (at, &(_, key)) in pairs.iter().enumerate() {
            match bind_keys.last_mut() {
                Some((k, _, end)) if *k == key => *end += 1,
                _ => bind_keys.push((key, at as u32, at as u32 + 1)),
            }
        }
        let props = props.sorted().into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        Segment {
            rows,
            min_time,
            max_time,
            vars,
            props,
            bind_keys,
            bind_postings,
            shards: shards.sorted(),
            epochs: epochs.sorted(),
            degraded,
        }
    }

    /// The rows, in store-sequence order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Smallest violation time (nanoseconds) in the segment.
    pub fn min_time(&self) -> u64 {
        self.min_time
    }

    /// Largest violation time (nanoseconds) in the segment.
    pub fn max_time(&self) -> u64 {
        self.max_time
    }

    /// True when some row's time may fall within the inclusive `[a, b]`
    /// window (range check on the segment's bounds; rows still need the
    /// exact predicate).
    pub fn overlaps(&self, a: u64, b: u64) -> bool {
        !self.rows.is_empty() && self.min_time <= b && a <= self.max_time
    }

    /// Row positions of violations of property `name`.
    pub fn prop_rows(&self, name: &str) -> &[u32] {
        match self.props.binary_search_by(|(p, _)| p.as_str().cmp(name)) {
            Ok(i) => &self.props[i].1,
            Err(_) => &[],
        }
    }

    /// Row positions whose bindings map variable `name` to `value`
    /// (interned-index probe: binary search of the flat key vector).
    pub fn bind_rows(&self, name: &str, value: &FieldValue) -> &[u32] {
        let Some(id) = self.vars.id(&var(name)) else { return &[] };
        match self.bind_keys.binary_search_by_key(&(id, *value), |&(k, _, _)| k) {
            Ok(i) => {
                let (_, start, end) = self.bind_keys[i];
                &self.bind_postings[start as usize..end as usize]
            }
            Err(_) => &[],
        }
    }

    /// Row positions discovered by shard `s`.
    pub fn shard_rows(&self, s: u32) -> &[u32] {
        match self.shards.binary_search_by_key(&s, |(k, _)| *k) {
            Ok(i) => &self.shards[i].1,
            Err(_) => &[],
        }
    }

    /// Row positions raised under catalog epoch `e` (deploy provenance).
    pub fn epoch_rows(&self, e: u64) -> &[u32] {
        match self.epochs.binary_search_by_key(&e, |(k, _)| *k) {
            Ok(i) => &self.epochs[i].1,
            Err(_) => &[],
        }
    }

    /// Row positions with degraded provenance.
    pub fn degraded_rows(&self) -> &[u32] {
        &self.degraded
    }

    /// True when `row` satisfies `atom` (the exact per-row predicate the
    /// executor applies after index-driven candidate selection).
    pub fn row_matches(row: &Row, atom: &Atom) -> bool {
        let v = &row.record.violation;
        match atom {
            Atom::Prop(None) => true,
            Atom::Prop(Some(name)) => v.property == *name,
            Atom::Bind(name, value) => {
                v.bindings.as_ref().is_some_and(|b| b.get(&var(name)) == Some(value))
            }
            Atom::Window(a, b) => {
                let t = v.time.as_nanos();
                *a <= t && t <= *b
            }
            Atom::Degraded => v.degraded,
            Atom::Shard(s) => row.shard == *s,
            Atom::Epoch(e) => row.record.epoch == *e,
        }
    }

    /// Encode the segment's rows under the `SWVS` magic. Indexes are not
    /// framed — [`Segment::from_bytes`] rebuilds them.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.rows.len() * 96);
        w.magic(SEGMENT_MAGIC);
        w.u16(SEGMENT_VERSION);
        w.u64(self.rows.len() as u64);
        for row in &self.rows {
            w.u64(row.store_seq);
            w.u32(row.shard);
            w.u64(row.record.seq);
            w.u64(row.record.property as u64);
            w.u8(row.record.rank);
            w.u64(row.record.epoch);
            // The violation codec deliberately omits merge_seq (positional
            // metadata); the store persists it beside the payload.
            w.opt_u64(row.record.violation.merge_seq);
            w.violation(&row.record.violation);
        }
        w.into_bytes()
    }

    /// Decode and validate a segment written by [`Segment::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        let seg = Self::read(&mut r)?;
        r.expect_end()?;
        Ok(seg)
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        r.expect_header(SEGMENT_MAGIC, SEGMENT_VERSION)?;
        let n = r.len()?;
        let mut rows = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let store_seq = r.u64()?;
            let shard = r.u32()?;
            let seq = r.u64()?;
            let property = r.len()?;
            let rank = r.u8()?;
            let epoch = r.u64()?;
            let merge_seq = r.opt_u64()?;
            let mut violation = r.violation()?;
            violation.merge_seq = merge_seq;
            rows.push(Row {
                store_seq,
                shard,
                record: ViolationRecord { seq, property, rank, epoch, violation },
            });
        }
        Ok(Segment::build(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::{Bindings, Violation};
    use swmon_sim::time::Instant;

    fn row(seq: u64, shard: u32, prop: &str, t: u64, port: u64, degraded: bool) -> Row {
        let b = Bindings::new().bind(var("A"), FieldValue::Uint(port));
        Row {
            store_seq: seq,
            shard,
            record: ViolationRecord {
                seq,
                property: 3,
                rank: 1,
                // Deploy provenance mirrors the shard in these fixtures so
                // the epoch index has two distinct keys to exercise.
                epoch: shard as u64,
                violation: Violation {
                    property: prop.to_string(),
                    time: Instant::from_nanos(t),
                    trigger_stage: "s".into(),
                    bindings: Some(b),
                    history: vec![],
                    degraded,
                    merge_seq: Some(seq),
                },
            },
        }
    }

    fn sample() -> Segment {
        Segment::build(vec![
            row(0, 0, "fw", 10, 80, false),
            row(1, 1, "fw", 20, 443, true),
            row(2, 0, "dhcp", 30, 80, false),
        ])
    }

    #[test]
    fn indexes_cover_every_dimension() {
        let s = sample();
        assert_eq!(s.prop_rows("fw"), &[0, 1]);
        assert_eq!(s.prop_rows("dhcp"), &[2]);
        assert!(s.prop_rows("nat").is_empty());
        assert_eq!(s.bind_rows("A", &FieldValue::Uint(80)), &[0, 2]);
        assert!(s.bind_rows("A", &FieldValue::Uint(22)).is_empty());
        assert!(s.bind_rows("Z", &FieldValue::Uint(80)).is_empty());
        assert_eq!(s.shard_rows(0), &[0, 2]);
        assert_eq!(s.shard_rows(1), &[1]);
        assert_eq!(s.epoch_rows(0), &[0, 2]);
        assert_eq!(s.epoch_rows(1), &[1]);
        assert!(s.epoch_rows(9).is_empty());
        assert!(Segment::row_matches(&s.rows()[1], &Atom::Epoch(1)));
        assert!(!Segment::row_matches(&s.rows()[0], &Atom::Epoch(1)));
        assert_eq!(s.degraded_rows(), &[1]);
        assert_eq!((s.min_time(), s.max_time()), (10, 30));
        assert!(s.overlaps(15, 25));
        assert!(!s.overlaps(31, 99));
    }

    #[test]
    fn bytes_round_trip_rebuilds_identical_indexes() {
        let s = sample();
        let bytes = s.to_bytes();
        let back = Segment::from_bytes(&bytes).expect("valid segment");
        assert_eq!(back.len(), s.len());
        assert_eq!(back.prop_rows("fw"), s.prop_rows("fw"));
        assert_eq!(back.degraded_rows(), s.degraded_rows());
        assert_eq!(
            back.bind_rows("A", &FieldValue::Uint(443)),
            s.bind_rows("A", &FieldValue::Uint(443))
        );
        assert_eq!(back.rows()[1].record.violation.merge_seq, Some(1));
        assert!(back.rows()[1].record.violation.degraded, "provenance survives the framing");
        assert_eq!(back.rows()[1].record.epoch, 1, "deploy provenance survives the framing");
        assert_eq!(back.epoch_rows(1), s.epoch_rows(1));
        // Canonical re-encode: byte-for-byte stable.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn corrupted_bytes_are_rejected_before_use() {
        let bytes = sample().to_bytes();
        assert_eq!(Segment::from_bytes(&bytes[..5]).unwrap_err(), SnapshotError::Truncated);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Segment::from_bytes(&bad).unwrap_err(), SnapshotError::BadMagic);
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(Segment::from_bytes(&trailing).unwrap_err(), SnapshotError::Malformed(_)));
    }

    #[test]
    fn packed_sort_key_orders_like_the_tuple() {
        use swmon_packet::{Ipv4Address, MacAddr};
        let values = [
            FieldValue::Mac(MacAddr::new(0, 0, 0, 0, 0, 1)),
            FieldValue::Mac(MacAddr::new(0, 0, 0, 0, 1, 0)),
            FieldValue::Mac(MacAddr::new(0xff, 0, 0, 0, 0, 0)),
            FieldValue::Ipv4(Ipv4Address::new(10, 0, 0, 2)),
            FieldValue::Ipv4(Ipv4Address::new(10, 0, 1, 0)),
            FieldValue::Ipv4(Ipv4Address::new(255, 255, 255, 255)),
            FieldValue::Uint(0),
            FieldValue::Uint(7),
            FieldValue::Uint(u64::MAX),
        ];
        let mut tuples = Vec::new();
        for id in [0u16, 1, 7] {
            for &v in &values {
                for row in [0u32, 5, u32::MAX] {
                    tuples.push(((VarId(id), v), row));
                }
            }
        }
        for a in &tuples {
            for b in &tuples {
                assert_eq!(sort_key(a.0, a.1).cmp(&sort_key(b.0, b.1)), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }
}
