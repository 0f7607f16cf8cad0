//! The DSL pretty-printer and parser are inverses over the entire property
//! catalog — every Table 1 property and every Sec 2 example survives
//! print → parse unchanged.

use swmon_core::{parse_property, to_dsl, Property};
use swmon_props::scenario::{FW_TIMEOUT, REPLY_WAIT};

fn catalog() -> Vec<Property> {
    let mut props: Vec<Property> =
        swmon_props::table1::entries().into_iter().map(|e| e.property).collect();
    props.push(swmon_props::firewall::return_not_dropped());
    props.push(swmon_props::firewall::return_not_dropped_within(FW_TIMEOUT));
    props.push(swmon_props::firewall::return_until_close(FW_TIMEOUT));
    props.push(swmon_props::nat::reverse_translation());
    props.push(swmon_props::learning_switch::no_flood_after_learn());
    props.push(swmon_props::learning_switch::correct_port());
    props.push(swmon_props::learning_switch::flush_on_link_down());
    props.push(swmon_props::arp_proxy::reply_within(REPLY_WAIT));
    props
}

#[test]
fn every_catalog_property_round_trips() {
    for p in catalog() {
        let printed = to_dsl(&p);
        let reparsed =
            parse_property(&printed).unwrap_or_else(|e| panic!("{}: {e}\n{printed}", p.name));
        assert_eq!(p, reparsed, "{} changed across print/parse:\n{printed}", p.name);
    }
}

#[test]
fn printed_form_is_stable() {
    // Printing is a pure function of the AST: print(parse(print(p))) ==
    // print(p).
    for p in catalog() {
        let once = to_dsl(&p);
        let twice = to_dsl(&parse_property(&once).unwrap());
        assert_eq!(once, twice, "{}", p.name);
    }
}

#[test]
fn printed_form_mentions_the_features_it_uses() {
    // Spot-check human readability of a few printed properties.
    let fw = to_dsl(&swmon_props::firewall::return_until_close(FW_TIMEOUT));
    assert!(fw.contains("within 30s refresh"), "{fw}");
    assert!(fw.contains("unless on arrival"), "{fw}");
    assert!(fw.contains("departure(drop)"), "{fw}");

    let arp = to_dsl(&swmon_props::arp_proxy::unknown_forwarded(REPLY_WAIT));
    assert!(arp.contains("deadline"), "{arp}");
    assert!(arp.contains("same packet as 0"), "{arp}");

    let lease = to_dsl(&swmon_props::dhcp::no_reuse_before_expiry());
    assert!(lease.contains("within bound ?L"), "{lease}");

    let lb = to_dsl(&swmon_props::load_balancer::new_flow_hashed_port());
    assert!(lb.contains("hash(ipv4.src, l4.src) % 4 base 8 != out_port"), "{lb}");

    let oob = to_dsl(&swmon_props::learning_switch::flush_on_link_down());
    assert!(oob.contains("oob(portdown)"), "{oob}");
}

#[test]
fn core_catalog_fixture_matches_the_catalog() {
    // swmon-core's tests run the catalog from this DSL print; keep it in
    // step with the Rust definitions.
    let fixture = include_str!("../../core/testdata/catalog.swm");
    let parsed = swmon_core::parse_properties(fixture).expect("fixture parses");
    assert_eq!(
        parsed,
        swmon_props::catalog(),
        "reprint crates/core/testdata/catalog.swm with to_dsl over swmon_props::catalog()"
    );
}
