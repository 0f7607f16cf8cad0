//! The workloads' traffic is what the benchmark claims it is.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use swbench::traffic::{catalog_mix, firewall_flows, fresh_copy, MIX_SESSIONS};
use swmon_core::{Monitor, MonitorConfig, ProvenanceMode};
use swmon_packet::Packet;
use swmon_sim::trace::{NetEvent, NetEventKind};

fn packet_ptrs(events: &[NetEvent]) -> HashSet<*const Packet> {
    events.iter().filter_map(|e| e.packet().map(Arc::as_ptr)).collect()
}

/// Which events share a packet with an earlier event, by index.
fn sharing(events: &[NetEvent]) -> Vec<Option<usize>> {
    let mut first: HashMap<*const Packet, usize> = HashMap::new();
    events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            e.packet().and_then(|p| {
                let ptr = Arc::as_ptr(p);
                match first.get(&ptr) {
                    Some(&j) => Some(j),
                    None => {
                        first.insert(ptr, i);
                        None
                    }
                }
            })
        })
        .collect()
}

#[test]
fn timed_copies_share_no_packet_with_reference_or_warm_up() {
    for (trace, shares) in [(catalog_mix(5, 60), true), (firewall_flows(5), false)] {
        let source = &trace.events;
        let reference = fresh_copy(source);
        let warm_up = fresh_copy(source);
        for ev in &warm_up {
            if let Some(p) = ev.packet() {
                let _ = p.parsed();
            }
        }
        let timed = fresh_copy(source);
        let timed_ptrs = packet_ptrs(&timed);
        for other in [source, &reference, &warm_up] {
            assert!(timed_ptrs.is_disjoint(&packet_ptrs(other)), "a timed packet is shared");
        }
        // Rebuilding keeps exactly the sharing the source had: a simulated
        // switch's arrival and its unmodified departure share one packet;
        // `multi_flow_trace` gives every event its own.
        assert_eq!(sharing(&timed), sharing(source));
        assert_eq!(sharing(source).iter().any(Option::is_some), shares);
    }
}

fn family_of(property: &str) -> &'static str {
    match property.split('/').next().expect("catalog names are slash-pathed") {
        "firewall" => "firewall",
        "nat" => "nat",
        "learning-switch" => "learning-switch",
        "arp-proxy" => "arp-proxy",
        "dhcp" => "dhcp",
        "dhcp-arp" => "dhcp+arp",
        "lb" => "load-balancer",
        "port-knock" => "port-knocking",
        "ftp" => "ftp",
        other => panic!("no app family for {other}"),
    }
}

#[test]
fn every_property_sees_its_own_family_and_spawns() {
    let trace = catalog_mix(7, MIX_SESSIONS);
    for p in swmon_props::catalog() {
        let family = family_of(&p.name);
        let spawned: u64 = trace
            .parts
            .iter()
            .filter(|part| part.family == family)
            .map(|part| {
                let cfg = MonitorConfig { scope: Some(part.switch), ..MonitorConfig::default() };
                let mut m = Monitor::new(p.clone(), cfg);
                for ev in &trace.events {
                    m.process(ev);
                }
                m.stats.spawned
            })
            .sum();
        assert!(spawned > 0, "{} spawns no instance on its own family's traffic", p.name);
    }
}

#[test]
fn every_fault_fires_its_target_property_in_the_mix() {
    let trace = catalog_mix(7, MIX_SESSIONS);
    let catalog = swmon_props::catalog();
    let faulty: Vec<_> = trace.parts.iter().filter(|p| p.fault.is_some()).collect();
    assert!(faulty.len() >= 9, "every family has a fault-injected variant");
    let families: HashSet<&str> = faulty.iter().map(|p| p.family).collect();
    assert_eq!(families.len(), 9, "{families:?}");
    for part in faulty {
        let target = part.target.expect("faults name a target");
        let prop = catalog.iter().find(|p| p.name == target).expect("target is in the catalog");
        let cfg = MonitorConfig { provenance: ProvenanceMode::Full, ..MonitorConfig::default() };
        let mut m = Monitor::new(prop.clone(), cfg);
        for ev in &trace.events {
            m.process(ev);
        }
        m.advance_to(trace.end);
        let fired = m
            .violations()
            .iter()
            .any(|v| v.history.iter().any(|e| e.switch() == Some(part.switch)));
        assert!(fired, "{:?} on {} does not fire {target}", part.fault, part.switch);
    }
}

#[test]
fn packet_ids_stay_unique_and_time_moves_forward() {
    let trace = catalog_mix(9, MIX_SESSIONS);
    assert!(trace.events.windows(2).all(|w| w[0].time <= w[1].time), "time went backwards");
    // Arrival ids are unique, and no id is used on two switches (a
    // departure carries its arrival's id, or a fresh one for a packet the
    // switch originated).
    let mut arrivals = HashSet::new();
    let mut owner = HashMap::new();
    for ev in &trace.events {
        let (switch, id) = match &ev.kind {
            NetEventKind::Arrival { switch, id, .. } => {
                assert!(arrivals.insert(*id), "duplicate arrival id {id:?}");
                (*switch, *id)
            }
            NetEventKind::Departure { switch, id, .. } => (*switch, *id),
            NetEventKind::OutOfBand(_) => continue,
        };
        assert_eq!(*owner.entry(id).or_insert(switch), switch, "{id:?} used on two switches");
    }
    assert_eq!(
        trace.parts.iter().map(|p| p.events).sum::<usize>(),
        trace.events.len(),
        "the merge keeps every sub-trace event"
    );
}

#[test]
fn seeds_fix_the_trace() {
    let d = |seed| catalog_mix(seed, 60).digest();
    assert_eq!(d(21), d(21));
    assert_ne!(d(21), d(22));
    assert_eq!(firewall_flows(21).digest(), firewall_flows(21).digest());
    assert_ne!(firewall_flows(21).digest(), firewall_flows(22).digest());
}

/// Peak `Monitor::live_instances` of one monitor per catalog property over
/// the whole trace, replayed the way the traced run does.
fn live_peaks(trace: &swbench::traffic::Trace) -> Vec<(String, usize)> {
    swmon_props::catalog()
        .into_iter()
        .map(|p| {
            let name = p.name.clone();
            let mask = p.event_class_mask();
            let mut m = Monitor::new(p, MonitorConfig::default());
            let mut peak = 0;
            for ev in &trace.events {
                if mask & swmon_core::event_class(ev) != 0 {
                    m.advance_to(ev.time);
                    m.process(ev);
                    peak = peak.max(m.live_instances());
                }
            }
            (name, peak)
        })
        .collect()
}

/// Live-instance floors on catalog-mix. Every property keeps hundreds of
/// instances open at its peak, except three whose instances are cleared
/// almost as soon as they spawn on a correct switch:
/// * `arp-proxy/unknown-forwarded` and `dhcp/reply-within-T` are cleared
///   by a departure the switch emits at the same simulated instant; only
///   the fault-injected variant's unanswered requests stay open, for
///   `REPLY_WAIT` (1 s), a handful at a time.
/// * `lb/new-flow-round-robin` keeps an instance only while its flow's
///   successor happened to get the round-robin backend from the hash
///   policy, roughly a quarter of the load balancer's flows.
const LIVE_FLOOR: usize = 100;
const SHORT_LIVED: [(&str, usize); 3] = [
    ("arp-proxy/unknown-forwarded", 1),
    ("dhcp/reply-within-T", 1),
    ("lb/new-flow-round-robin", 75),
];

#[test]
fn every_property_reaches_its_live_instance_floor() {
    for seed in [7, 8] {
        let trace = catalog_mix(seed, MIX_SESSIONS);
        for (name, peak) in live_peaks(&trace) {
            let floor =
                SHORT_LIVED.iter().find(|(n, _)| *n == name).map_or(LIVE_FLOOR, |&(_, f)| f);
            assert!(peak >= floor, "seed {seed}: {name} peaks at {peak} live, floor {floor}");
        }
    }
}
