//! The SWQL mix matches real violations, and the store agrees with the
//! index-free reference scan on live and sealed stores.

use swbench::bench::{store_stream, Workload};
use swbench::storeq;
use swmon_runtime::merge::merge;
use swmon_runtime::ViolationRecord;
use swmon_store::Store;

#[test]
fn mix_queries_match_and_agree_with_the_reference_scan() {
    let stream = store_stream(3);
    let all: Vec<ViolationRecord> = stream.iter().flat_map(|(_, b)| b.iter().cloned()).collect();
    let rows: Vec<(u32, &ViolationRecord)> =
        stream.iter().flat_map(|(s, b)| b.iter().map(move |r| (*s, r))).collect();
    let mix = storeq::mix(&all, 3);
    assert_eq!(mix.len(), storeq::GROUP_SIZE * storeq::MIX_GROUPS);
    for k in 0..storeq::MIX_GROUPS {
        let kinds: Vec<&str> = storeq::group(&mix, k).iter().map(|q| q.kind).collect();
        assert_eq!(kinds, ["point", "range", "range", "range", "disjunctive"]);
    }
    let store = Store::new();
    let pass = storeq::pass(&store, &stream, &mix, 32, stream.len() / 2);
    assert_eq!(pass.mismatch, None, "live queries agree with the scan");
    store.seal(&merge(all.clone()));
    for q in &mix {
        let out = store.query(&q.query);
        assert!(!out.matches.is_empty(), "{} matches nothing: {}", q.kind, q.swql);
        assert!(storeq::agrees(&out, &rows, &q.query), "{} disagrees: {}", q.kind, q.swql);
    }
    assert_eq!(Workload::parse("store-query"), Some(Workload::StoreQuery));
}
