//! The SWQL query mix, an index-free reference scan to check it against,
//! and the store-query workload's violation stream.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use swmon_core::Bindings;
use swmon_packet::{FieldValue, Ipv4Address, MacAddr};
use swmon_runtime::{signature, ViolationRecord, ViolationSink};
use swmon_store::{parse, Atom, Query, QueryOutput, Store};

use crate::traffic::Rng;

/// One query of the mix.
#[derive(Debug, Clone)]
pub struct MixQuery {
    /// `point`, `range` or `disjunctive`.
    pub kind: &'static str,
    /// SWQL source.
    pub swql: String,
    /// Parsed form, for the reference scan.
    pub query: Query,
}

/// Groups in the query mix.
pub const MIX_GROUPS: usize = 8;
/// Queries per group: one point, three ranges, one disjunctive.
pub const GROUP_SIZE: usize = 5;
/// `window` atoms per group: one per range, one in the disjunctive.
const WINDOWS_PER_GROUP: usize = 4;

/// The fixed SWQL mix over a set of violations: [`MIX_GROUPS`] groups of
/// [`GROUP_SIZE`] queries — a point lookup (`prop(..), bind(..)`), three
/// `window` ranges each covering 2% of the rows, and a four-branch `or`
/// that covers `degraded()`, `shard(..)` and `epoch(..)`. Ranges are 60%
/// of the mix, so the mix's median latency falls inside the ranges'
/// spread whether the `or` runs faster or slower than a range (it does
/// on small and on large stores respectively), not on the border
/// between two kinds. Values are drawn
/// from `records` with `seed`, so every query can match; bound values are
/// each drawn record's rarest, and the `or` is anchored on the two most
/// frequent properties, so costs do not hinge on what a seed happens to
/// draw.
pub fn mix(records: &[ViolationRecord], seed: u64) -> Vec<MixQuery> {
    let mut rng = Rng::new(seed ^ 0x51a1_0e55);
    let bound: Vec<&ViolationRecord> = records
        .iter()
        .filter(|r| r.violation.bindings.as_ref().is_some_and(|b| !b.is_empty()))
        .collect();
    assert!(!bound.is_empty(), "the query mix needs violations with bindings");
    let mut freq: BTreeMap<&str, usize> = BTreeMap::new();
    for r in records {
        *freq.entry(r.violation.property.as_str()).or_default() += 1;
    }
    let mut by_count: Vec<(&str, usize)> = freq.into_iter().collect();
    by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let top = by_count[0].0;
    let second = by_count.get(1).map_or(top, |p| p.0);
    let mut times: Vec<u64> = records.iter().map(|r| r.violation.time.as_nanos()).collect();
    times.sort_unstable();
    let width = (times.len() / 50).max(1);
    // A point lookup names a record by its rarest bound value, so its
    // selectivity does not hinge on which record a seed draws.
    let mut value_freq: HashMap<(&str, FieldValue), usize> = HashMap::new();
    for r in &bound {
        for (var, value) in r.violation.bindings.iter().flat_map(|b| b.iter()) {
            *value_freq.entry((var.name(), *value)).or_default() += 1;
        }
    }
    let rarest_bind = |r: &ViolationRecord| {
        let b = r.violation.bindings.as_ref().expect("filtered on bindings");
        let (var, value) = b
            .iter()
            .min_by_key(|(var, value)| (value_freq[&(var.name(), **value)], var.name()))
            .expect("filtered on non-empty bindings");
        (var.name().to_string(), *value)
    };
    // Windows are stratified: the g-th group's j-th window starts in slice
    // `j * MIX_GROUPS + g` of the time-ordered rows, so every seed's mix
    // covers the whole time range evenly and each group spans it. A
    // window's cost on the live store depends on where it falls.
    let starts = times.len() - width.min(times.len() - 1);
    let slices = WINDOWS_PER_GROUP * MIX_GROUPS;
    let mut sources = Vec::new();
    for g in 0..MIX_GROUPS {
        let mut window = |j: usize| {
            let k = j * MIX_GROUPS + g;
            let (lo, hi) = (starts * k / slices, starts * (k + 1) / slices);
            let at = lo + rng.below((hi - lo) as u64) as usize;
            (times[at], times[(at + width).min(times.len() - 1)])
        };
        let ranges = [window(0), window(1), window(2)];
        let (a3, b3) = window(3);
        let p = bound[rng.below(bound.len() as u64) as usize];
        let (var, value) = rarest_bind(p);
        let q = bound[rng.below(bound.len() as u64) as usize];
        let (var2, value2) = rarest_bind(q);
        sources.push(("point", format!("prop({}), bind({var}, {value})", p.violation.property)));
        for (a, b) in ranges {
            sources.push(("range", format!("window({a}, {b})")));
        }
        sources.push((
            "disjunctive",
            format!(
                "prop({top}), window({a3}, {b3}) or degraded() or prop({second}), shard(1) or epoch(0), bind({var2}, {value2})"
            ),
        ));
    }
    sources
        .into_iter()
        .map(|(kind, swql)| {
            let query = parse(&swql).unwrap_or_else(|e| panic!("mix query {swql:?}: {e}"));
            MixQuery { kind, swql, query }
        })
        .collect()
}

/// Group `k` of the mix (wrapping): one query of each kind, three of
/// the range.
pub fn group(mix: &[MixQuery], k: usize) -> &[MixQuery] {
    let g = k % (mix.len() / GROUP_SIZE);
    &mix[g * GROUP_SIZE..(g + 1) * GROUP_SIZE]
}

/// Execute one mix query, returning its output and latency in µs.
pub fn timed(store: &Store, q: &MixQuery) -> (QueryOutput, f64) {
    let t0 = Instant::now();
    let out = store.query(&q.query);
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

fn atom_holds(shard: u32, r: &ViolationRecord, atom: &Atom) -> bool {
    let v = &r.violation;
    match atom {
        Atom::Prop(None) => true,
        Atom::Prop(Some(name)) => &v.property == name,
        Atom::Bind(name, value) => v
            .bindings
            .as_ref()
            .is_some_and(|b| b.iter().any(|(var, val)| var.name() == name && val == value)),
        Atom::Window(a, b) => (*a..=*b).contains(&v.time.as_nanos()),
        Atom::Degraded => v.degraded,
        Atom::Shard(s) => shard == *s,
        Atom::Epoch(e) => r.epoch == *e,
    }
}

/// The sorted signatures an index-free scan of `rows` (shard, record)
/// finds for `q`.
pub fn scan(rows: &[(u32, &ViolationRecord)], q: &Query) -> Vec<String> {
    let mut sigs: Vec<String> = rows
        .iter()
        .filter(|(shard, r)| {
            q.branches.iter().any(|b| b.atoms.iter().all(|(a, _)| atom_holds(*shard, r, a)))
        })
        .map(|(_, r)| signature(r))
        .collect();
    sigs.sort_unstable();
    sigs
}

/// True when `out` matched exactly the rows a reference scan finds.
pub fn agrees(out: &QueryOutput, rows: &[(u32, &ViolationRecord)], q: &Query) -> bool {
    let mut got = out.signatures();
    got.sort_unstable();
    got == scan(rows, q)
}

/// A sink that keeps every publication (shard, records) in call order.
#[derive(Debug, Default)]
pub struct RecordingSink {
    batches: Mutex<Vec<(u32, Vec<ViolationRecord>)>>,
}

impl RecordingSink {
    /// The recorded publications.
    pub fn take(&self) -> Vec<(u32, Vec<ViolationRecord>)> {
        std::mem::take(&mut *self.batches.lock().expect("recording sink poisoned"))
    }
}

impl ViolationSink for RecordingSink {
    fn publish(&self, shard: usize, records: &[ViolationRecord]) {
        let mut b = self.batches.lock().expect("recording sink poisoned");
        b.push((shard as u32, records.to_vec()));
    }
    fn seal(&self, _merged: &[ViolationRecord]) {}
}

fn perturb(v: &FieldValue, k: u64) -> FieldValue {
    match v {
        FieldValue::Uint(x) => FieldValue::Uint(x ^ (k << 32)),
        FieldValue::Ipv4(a) => {
            FieldValue::Ipv4(Ipv4Address::from_u32(a.to_u32() ^ ((k as u32) << 8)))
        }
        FieldValue::Mac(m) => {
            let mut o = m.0;
            o[3] ^= (k >> 8) as u8;
            o[4] ^= k as u8;
            FieldValue::Mac(MacAddr(o))
        }
    }
}

/// Copy `k` of recorded violations: times shifted by `k` spans and
/// binding values moved to a fresh range, so the value spread per copy
/// matches the source while the stream keeps growing.
pub fn replica(records: &[ViolationRecord], k: u64, span_ns: u64) -> Vec<ViolationRecord> {
    records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.violation.time =
                swmon_sim::time::Instant::from_nanos(r.violation.time.as_nanos() + k * span_ns);
            if let Some(b) = &r.violation.bindings {
                let mut nb = Bindings::new();
                for (var, val) in b.iter() {
                    nb = nb.bind(*var, perturb(val, k));
                }
                r.violation.bindings = Some(nb);
            }
            r
        })
        .collect()
}

/// Cut `rows` into publication batches whose (shard, size) sequence
/// cycles through `sizes`.
pub fn rebatch(
    rows: Vec<ViolationRecord>,
    sizes: &[(u32, usize)],
) -> Vec<(u32, Vec<ViolationRecord>)> {
    let mut out = Vec::new();
    let mut rows = rows.into_iter().peekable();
    for &(shard, size) in sizes.iter().cycle() {
        if rows.peek().is_none() {
            break;
        }
        out.push((shard, rows.by_ref().take(size.max(1)).collect()));
    }
    out
}

/// A closed-loop store-query pass: ingest batch by batch as fast as the
/// store takes them, running one group of the mix on the live store every
/// `query_every` batches.
#[derive(Debug, Default)]
pub struct Pass {
    /// Nanoseconds inside `Store::ingest`.
    pub ingest_ns: u64,
    /// Wall nanoseconds of the whole pass.
    pub wall_ns: u64,
    /// Batch index where a live query disagreed with the reference scan.
    pub mismatch: Option<usize>,
}

/// Drive one closed-loop pass into `store`. `check_at` names the batch
/// after which one live query group is checked against a reference scan
/// of everything ingested so far.
pub fn pass(
    store: &Store,
    batches: &[(u32, Vec<ViolationRecord>)],
    mix: &[MixQuery],
    query_every: usize,
    check_at: usize,
) -> Pass {
    let mut out = Pass::default();
    let origin = Instant::now();
    let mut checked = false;
    for (i, (shard, recs)) in batches.iter().enumerate() {
        let t0 = Instant::now();
        store.ingest(*shard, recs);
        out.ingest_ns += t0.elapsed().as_nanos() as u64;
        if (i + 1) % query_every != 0 {
            continue;
        }
        let check = !checked && i + 1 >= check_at;
        let rows: Vec<(u32, &ViolationRecord)> = if check {
            checked = true;
            batches[..=i].iter().flat_map(|(s, rs)| rs.iter().map(move |r| (*s, r))).collect()
        } else {
            Vec::new()
        };
        for q in group(mix, (i + 1) / query_every) {
            let res = store.query(&q.query);
            if check && out.mismatch.is_none() && !agrees(&res, &rows, &q.query) {
                out.mismatch = Some(i);
            }
        }
    }
    out.wall_ns = origin.elapsed().as_nanos() as u64;
    out
}

/// An open-loop store-query pass: what [`paced`] measured.
#[derive(Debug, Default)]
pub struct Paced {
    /// Per-batch latency (ns) from the batch's publication (the call to
    /// `Store::ingest`) until it is queryable (the call returns), on the
    /// publishing thread's CPU clock: the tail of a ~65 µs wall-clock
    /// interval on a shared machine is set by preemption, not by the
    /// store. How late the publication itself came is in `lateness_ns`.
    pub latencies_ns: Vec<f64>,
    /// How late each batch's ingest started (ns).
    pub lateness_ns: Vec<f64>,
}

/// Wait until `due_ns` after `origin`: sleep most of the way, then spin
/// the last stretch so a batch starts on time rather than a timer slack
/// late. The store runs on this thread, so the spin takes no core from
/// it.
fn pace_until(origin: Instant, due_ns: f64) {
    const SPIN_NS: f64 = 200_000.0;
    let now = origin.elapsed().as_nanos() as f64;
    if due_ns - now > SPIN_NS {
        std::thread::sleep(std::time::Duration::from_nanos((due_ns - now - SPIN_NS) as u64));
    }
    while (origin.elapsed().as_nanos() as f64) < due_ns {
        std::hint::spin_loop();
    }
}

/// Drive one open-loop pass into `store`: violation rows arise at `rate`
/// per second (row `j` is due `j / rate` seconds in) and are published in
/// the recorded batches, each as soon as its last row is due — the
/// store-side analogue of a shard publishing at its checkpoint.
pub fn paced(store: &Store, batches: &[(u32, Vec<ViolationRecord>)], rate: f64) -> Paced {
    let mut out = Paced::default();
    let origin = Instant::now();
    let due = |row: usize| row as f64 * 1e9 / rate;
    let mut first = 0usize;
    for (shard, recs) in batches {
        let last = first + recs.len().max(1) - 1;
        pace_until(origin, due(last));
        out.lateness_ns.push(origin.elapsed().as_nanos() as f64 - due(last));
        let cpu = crate::report::thread_cpu_ns();
        store.ingest(*shard, recs);
        out.latencies_ns.push((crate::report::thread_cpu_ns() - cpu) as f64);
        first += recs.len();
    }
    out
}
