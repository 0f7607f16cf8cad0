//! Differential verification of the abstract-interpretation facts that
//! lints SW010 and SW012 rest on: the refined event-class mask and stage
//! liveness. The claim is that an event whose class misses the refined
//! mask can never spawn, advance, clear or refresh an instance, and that a
//! property whose last stage is dead never violates.
//!
//! Every check runs one plain [`Monitor`] on the whole trace and a second
//! one on the trace pre-filtered here: an event is kept iff its class bit
//! hits `m`, where `m` is the refined mask when the last stage is live and
//! `0` otherwise. Both then advance to the same end time, and their
//! violations must be identical. The engine itself never consumes these
//! facts; it always dispatches on the syntactic mask.
//!
//! Random properties are generated with the constructs the analysis
//! reasons about: constant guards, bindings, clearing clauses (including
//! stage-0 clearings, whose event classes the analysis provably drops),
//! deadline windows, and cross-stage constant conflicts.

use proptest::prelude::*;
use swmon::analysis::absint::property_facts;
use swmon::monitor::{
    event_class, ActionPattern, EventPattern, Monitor, Property, PropertyBuilder,
};
use swmon::packet::{Field, Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
use swmon::sim::{
    Duration, EgressAction, Instant, NetEvent, OobEvent, PortNo, SwitchId, TraceBuilder,
};

/// The event classes a property can react to, as the analysis proves them:
/// the refined mask, or nothing when no run can complete the last stage.
fn admitted_classes(property: &Property) -> u8 {
    let facts = property_facts(property);
    if facts.live_stages.last() == Some(&true) {
        facts.refined_mask
    } else {
        0
    }
}

/// Run `property` on the whole trace and on the trace pre-filtered by
/// [`admitted_classes`]; require identical violations. Returns the number
/// of violations and of events the filter dropped.
fn assert_prefilter_matches(
    property: &Property,
    trace: &[NetEvent],
    end: Instant,
) -> (usize, usize) {
    let mask = admitted_classes(property);
    let mut full = Monitor::with_defaults(property.clone());
    let mut filtered = Monitor::with_defaults(property.clone());
    let mut dropped = 0;
    for ev in trace {
        full.process(ev);
        if event_class(ev) & mask != 0 {
            filtered.process(ev);
        } else {
            dropped += 1;
        }
    }
    full.advance_to(end);
    filtered.advance_to(end);
    let render = |m: &Monitor| m.violations().iter().map(|v| format!("{v:?}")).collect::<Vec<_>>();
    assert_eq!(
        render(&filtered),
        render(&full),
        "pre-filtering by the refined mask {mask:#09b} changed the violations of {:?}",
        property.name
    );
    (full.violations().len(), dropped)
}

/// [`assert_prefilter_matches`] for every property; returns the total
/// violation count so callers can reject a vacuous trace.
fn assert_catalog_prefilter_matches(props: &[Property], trace: &[NetEvent], end: Instant) -> usize {
    props.iter().map(|p| assert_prefilter_matches(p, trace, end).0).sum()
}

// ---------------------------------------------------------------------------
// Fixed-trace catalog differential
// ---------------------------------------------------------------------------

/// A mixed fixed trace: bidirectional TCP flows under all egress actions,
/// plus out-of-band port events — every event class the masks can carry.
fn mixed_catalog_trace() -> Vec<NetEvent> {
    let mut tb = TraceBuilder::new();
    let m1 = MacAddr::new(2, 0, 0, 0, 0, 1);
    let m2 = MacAddr::new(2, 0, 0, 0, 0, 2);
    for i in 0..60u8 {
        let a = Ipv4Address::new(10, 0, 0, i % 8 + 1);
        let b = Ipv4Address::new(192, 0, 2, i % 8 + 1);
        let (src, dst, port) = if i % 2 == 0 { (a, b, PortNo(0)) } else { (b, a, PortNo(1)) };
        let pkt = PacketBuilder::tcp(m1, m2, src, dst, 4000, 443, TcpFlags::ACK, &[]);
        let action = match i % 5 {
            0 => EgressAction::Drop,
            1 => EgressAction::Flood,
            _ => EgressAction::Output(PortNo(u16::from(1 - i % 2))),
        };
        tb.advance(Duration::from_micros(40)).arrive_depart(port, pkt, action);
        if i % 9 == 0 {
            tb.oob(OobEvent::PortDown(SwitchId(0), PortNo(u16::from(i % 4))));
        }
        if i % 9 == 4 {
            tb.oob(OobEvent::PortUp(SwitchId(0), PortNo(u16::from(i % 4))));
        }
    }
    tb.build()
}

/// The full 21-property catalog over the fixed mixed trace: each property
/// reports the same violations on the pre-filtered trace as on the whole.
#[test]
fn catalog_facts_differential_fixed_trace() {
    let props = swmon_props::catalog();
    let trace = mixed_catalog_trace();
    let end = trace.last().unwrap().time + Duration::from_secs(120);
    assert_catalog_prefilter_matches(&props, &trace, end);
}

/// Same catalog over the benchmark workload (256 flows with drops and
/// floods) — the trace the E13/E14 experiments measure on.
#[test]
fn catalog_facts_differential_benchmark_workload() {
    let props = swmon_props::catalog();
    let trace = swmon::workloads::trace::multi_flow_trace(
        128,
        3000,
        0.4,
        0.25,
        Duration::from_micros(3),
        7,
    );
    let end = trace.last().unwrap().time + Duration::from_secs(60);
    assert!(assert_catalog_prefilter_matches(&props, &trace, end) > 0, "trace must violate");
}

/// A property whose mask the analysis *provably tightens* (a stage-0
/// clearing pattern contributes classes no live edge carries): the filter
/// drops events of exactly those classes, and the violations must not move.
#[test]
fn strictly_refined_mask_stays_sound() {
    let p = PropertyBuilder::new("refined", "stage-0 clearing classes are prunable")
        .observe("spawn", EventPattern::Arrival)
        .bind("A", Field::Ipv4Src)
        .unless(EventPattern::Departure(ActionPattern::Flood), vec![])
        .done()
        .observe("again", EventPattern::Arrival)
        .bind("A", Field::Ipv4Src)
        .done()
        .build()
        .unwrap();
    let facts = property_facts(&p);
    assert!(
        facts.refined_mask != facts.syntactic_mask,
        "fixture regressed: the stage-0 flood clearing must be dropped from the mask"
    );
    let trace = mixed_catalog_trace(); // flood departures throughout
    let end = trace.last().unwrap().time + Duration::from_secs(1);
    let (violations, dropped) = assert_prefilter_matches(&p, &trace, end);
    assert!(violations > 0 && dropped > 0, "fixture must violate and be pruned");
}

// ---------------------------------------------------------------------------
// Soundness proptest over random properties and traces
// ---------------------------------------------------------------------------

/// A compact generated property: 1–3 match stages drawn from a small pool
/// of patterns and guards, optional clearing clauses and deadline windows,
/// and optional constant pins that create cross-stage conflicts (the
/// analysis proves dead tails from those).
#[derive(Debug, Clone)]
struct GenStage {
    pattern: u8,
    bind_src: bool,
    pin_l4dst: Option<u16>,
    unless_pattern: Option<u8>,
    window_us: Option<u16>,
}

#[derive(Debug, Clone)]
struct GenProperty {
    stages: Vec<GenStage>,
}

fn gen_pattern(idx: u8) -> EventPattern {
    match idx % 6 {
        0 => EventPattern::Arrival,
        1 => EventPattern::Departure(ActionPattern::Drop),
        2 => EventPattern::Departure(ActionPattern::Flood),
        3 => EventPattern::Departure(ActionPattern::Unicast),
        4 => EventPattern::Departure(ActionPattern::Forwarded),
        _ => EventPattern::Departure(ActionPattern::Any),
    }
}

fn gen_stage() -> impl Strategy<Value = GenStage> {
    (
        0u8..6,
        any::<bool>(),
        proptest::option::of(prop_oneof![Just(443u16), Just(80), Just(7)]),
        proptest::option::of(0u8..6),
        proptest::option::of(50u16..2000),
    )
        .prop_map(|(pattern, bind_src, pin_l4dst, unless_pattern, window_us)| GenStage {
            pattern,
            bind_src,
            pin_l4dst,
            unless_pattern,
            window_us,
        })
}

fn gen_property() -> impl Strategy<Value = GenProperty> {
    proptest::collection::vec(gen_stage(), 1..4).prop_map(|stages| GenProperty { stages })
}

fn render_property(g: &GenProperty, name: &str) -> Option<Property> {
    let mut b = PropertyBuilder::new(name, "generated");
    for (i, s) in g.stages.iter().enumerate() {
        let mut sb = b.observe(&format!("s{i}"), gen_pattern(s.pattern));
        if s.bind_src {
            sb = sb.bind("A", Field::Ipv4Src);
        }
        if let Some(port) = s.pin_l4dst {
            sb = sb.eq(Field::L4Dst, u64::from(port));
        }
        if let Some(up) = s.unless_pattern {
            sb = sb.unless(gen_pattern(up), vec![]);
        }
        if let Some(us) = s.window_us {
            if i > 0 {
                sb = sb.within(Duration::from_micros(u64::from(us)));
            }
        }
        b = sb.done();
    }
    b.build().ok().filter(|p| p.validate().is_ok())
}

/// A compact generated event (same shape as `tests/runtime_differential.rs`,
/// extended with out-of-band events so OOB mask bits are exercised).
#[derive(Debug, Clone, Copy)]
struct GenEvent {
    pair: u8,
    outbound: bool,
    action: u8,
    oob: Option<bool>,
    gap_steps: u8,
}

fn gen_event() -> impl Strategy<Value = GenEvent> {
    (0u8..6, any::<bool>(), 0u8..4, proptest::option::of(any::<bool>()), 1u8..4).prop_map(
        |(pair, outbound, action, oob, gap_steps)| GenEvent {
            pair,
            outbound,
            action,
            oob,
            gap_steps,
        },
    )
}

fn render_trace(events: &[GenEvent], step: Duration) -> Vec<NetEvent> {
    let mut tb = TraceBuilder::new();
    let mut t = Instant::ZERO;
    for e in events {
        t += step * u64::from(e.gap_steps);
        tb.at(t);
        if let Some(up) = e.oob {
            let ev = if up {
                OobEvent::PortUp(SwitchId(0), PortNo(u16::from(e.pair)))
            } else {
                OobEvent::PortDown(SwitchId(0), PortNo(u16::from(e.pair)))
            };
            tb.oob(ev);
            continue;
        }
        let a = Ipv4Address::new(10, 0, 0, e.pair + 1);
        let b = Ipv4Address::new(192, 0, 2, e.pair + 1);
        let (src, dst, in_port) = if e.outbound { (a, b, PortNo(0)) } else { (b, a, PortNo(1)) };
        let pkt = PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            src,
            dst,
            4000,
            if e.pair % 2 == 0 { 443 } else { 80 },
            TcpFlags::ACK,
            &[],
        );
        let action = match e.action {
            0 => EgressAction::Drop,
            1 => EgressAction::Flood,
            _ => EgressAction::Output(PortNo(if e.outbound { 1 } else { 0 })),
        };
        tb.arrive_depart(in_port, pkt, action);
    }
    tb.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness: for random properties and random traces, pre-filtering
    /// by the refined mask never drops an output-changing event.
    #[test]
    fn refined_masks_never_change_monitor_output(
        gens in proptest::collection::vec(gen_property(), 1..4),
        events in proptest::collection::vec(gen_event(), 1..50),
    ) {
        let props: Vec<Property> = gens
            .iter()
            .enumerate()
            .filter_map(|(i, g)| render_property(g, &format!("gen-{i}")))
            .collect();
        prop_assume!(!props.is_empty());
        let trace = render_trace(&events, Duration::from_micros(40));
        prop_assume!(!trace.is_empty());
        let end = trace.last().unwrap().time + Duration::from_secs(1);
        assert_catalog_prefilter_matches(&props, &trace, end);
    }
}
