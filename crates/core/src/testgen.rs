//! Seeded random switch traffic for the engine's differential tests.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use swmon_packet::{
    ArpPacket, DhcpMessage, DhcpMsgType, FtpControl, Ipv4Address, MacAddr, Packet, PacketBuilder,
    TcpFlags,
};
use swmon_sim::time::{Duration, Instant};
use swmon_sim::trace::{EgressAction, NetEvent, NetEventKind, OobEvent, PortNo, SwitchId};
use swmon_sim::PacketId;

fn at(ms: u64) -> Instant {
    Instant::ZERO + Duration::from_millis(ms)
}

/// Random switch traffic shaped to hit the NAT, load-balancer and
/// ARP-proxy guards: a few addresses and ports (the LB's VIP among
/// them), replies to earlier tuples, departures of any in-flight packet
/// (not just the latest) that keep or rewrite its headers, packet ids
/// reused across two switches, and out-of-band port events.
pub(crate) fn random_trace(seed: u64, len: usize) -> Vec<NetEvent> {
    type Tuple = (Ipv4Address, u16, Ipv4Address, u16);
    let mut rng = SmallRng::seed_from_u64(seed);
    let ip = |rng: &mut SmallRng| match rng.random_range(0..6u8) {
        5 => Ipv4Address::new(10, 0, 0, 100),
        x => Ipv4Address::new(10, 0, 0, x + 1),
    };
    let port = |rng: &mut SmallRng| [80u16, 1000, 1001, 61000][rng.random_range(0..4usize)];
    let tcp_pkt = |(a, p, b, q): Tuple, flags: TcpFlags| {
        Arc::new(PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, a.0[3]),
            MacAddr::new(2, 0, 0, 0, 0, b.0[3]),
            a,
            b,
            p,
            q,
            flags,
            &[],
        ))
    };
    let flag_pool = [
        TcpFlags::SYN,
        TcpFlags::SYN,
        TcpFlags::ACK,
        TcpFlags::FIN,
        TcpFlags::FIN | TcpFlags::ACK,
        TcpFlags::RST,
    ];
    let mut seen: Vec<Tuple> = Vec::new();
    let fresh_tuple = |rng: &mut SmallRng, seen: &mut Vec<Tuple>| {
        let t = match seen.len() {
            n if n > 0 && rng.random_bool(0.3) => {
                let (a, p, b, q) = seen[rng.random_range(0..n)];
                (b, q, a, p) // a reply to an earlier packet
            }
            _ => (ip(rng), port(rng), ip(rng), port(rng)),
        };
        seen.push(t);
        t
    };
    let mut inflight: Vec<(SwitchId, PacketId, Arc<Packet>)> = Vec::new();
    let (mut ms, mut next_id) = (0u64, 0u64);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        ms += rng.random_range(0..120u64);
        let time = at(ms);
        let roll = rng.random_range(0..100u32);
        let kind = if roll < 45 || inflight.is_empty() {
            let pkt = if rng.random_bool(0.2) {
                let req =
                    ArpPacket::request(MacAddr::new(2, 0, 0, 0, 0, 1), ip(&mut rng), ip(&mut rng));
                if rng.random_bool(0.5) {
                    Arc::new(PacketBuilder::arp(req))
                } else {
                    Arc::new(PacketBuilder::arp(ArpPacket::reply_to(
                        &req,
                        MacAddr::new(2, 0, 0, 0, 0, 9),
                    )))
                }
            } else {
                let t = fresh_tuple(&mut rng, &mut seen);
                tcp_pkt(t, flag_pool[rng.random_range(0..flag_pool.len())])
            };
            let id = if next_id > 0 && rng.random_bool(0.15) {
                PacketId(rng.random_range(0..next_id))
            } else {
                next_id += 1;
                PacketId(next_id - 1)
            };
            let switch = SwitchId(rng.random_range(0..2u32));
            inflight.push((switch, id, pkt.clone()));
            NetEventKind::Arrival { switch, port: PortNo(rng.random_range(0..3u16)), pkt, id }
        } else if roll < 95 {
            let i = rng.random_range(0..inflight.len());
            let (switch, id, orig) = inflight[i].clone();
            let pkt = if rng.random_bool(0.5) {
                orig // forwarded unmodified
            } else {
                let t = fresh_tuple(&mut rng, &mut seen); // rewritten (translated)
                tcp_pkt(t, TcpFlags::ACK)
            };
            let action = match rng.random_range(0..8u16) {
                0 => EgressAction::Drop,
                1 => EgressAction::Flood,
                p => EgressAction::Output(PortNo(if p < 4 { p - 2 } else { p + 4 })),
            };
            if rng.random_bool(0.7) {
                inflight.swap_remove(i);
            }
            NetEventKind::Departure { switch, pkt, id, action }
        } else {
            NetEventKind::OutOfBand(OobEvent::PortDown(
                SwitchId(rng.random_range(0..2u32)),
                PortNo(rng.random_range(0..3u16)),
            ))
        };
        out.push(NetEvent { time, kind });
    }
    out
}

/// [`random_trace`] with application traffic for every catalog family
/// interleaved at the same instants: DHCP requests, ACKs, NAKs and
/// releases from two servers over a small address and xid pool; FTP `PORT`
/// commands and data-connection SYNs from port 20 to announced and
/// unannounced ports; and knocks on 7001, 7002, 22 and other ports. Each
/// application packet arrives with a fresh id and may later depart
/// (forwarded, dropped or flooded), so every property of
/// `testdata/catalog.swm` holds live instances somewhere along the trace.
pub(crate) fn catalog_trace(seed: u64, len: usize) -> Vec<NetEvent> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xca7a_1096);
    let mac = |x: u8| MacAddr::new(2, 0, 0, 0, 0, x);
    let host = |x: u8| Ipv4Address::new(10, 0, 0, x);
    let mut inflight: Vec<(SwitchId, PacketId, Arc<Packet>)> = Vec::new();
    // Application packets get ids far above the base trace's.
    let mut next_id = 1u64 << 32;
    let mut out = Vec::with_capacity(len * 3 / 2);
    for ev in random_trace(seed, len) {
        let time = ev.time;
        out.push(ev);
        if !rng.random_bool(0.5) {
            continue;
        }
        let kind = if !inflight.is_empty() && rng.random_bool(0.4) {
            let (switch, id, pkt) = inflight.swap_remove(rng.random_range(0..inflight.len()));
            let action = match rng.random_range(0..6u16) {
                0 => EgressAction::Drop,
                1 => EgressAction::Flood,
                p => EgressAction::Output(PortNo(p)),
            };
            NetEventKind::Departure { switch, pkt, id, action }
        } else {
            let c = rng.random_range(1..6u8);
            let xid = rng.random_range(0..4u32);
            let server = host(250 + rng.random_range(0..2u8));
            let dhcp = |msg: DhcpMessage| {
                let src =
                    if msg.msg_type.from_server() { server } else { Ipv4Address::UNSPECIFIED };
                PacketBuilder::dhcp(mac(c), src, Ipv4Address::new(255, 255, 255, 255), &msg)
            };
            let pkt = match rng.random_range(0..6u8) {
                0 => dhcp(DhcpMessage::request(xid, mac(c), host(c), server)),
                1 => {
                    let mut msg = DhcpMessage::ack(
                        xid,
                        mac(c),
                        host(rng.random_range(1..6u8)),
                        server,
                        rng.random_range(1..4u32),
                    );
                    if rng.random_bool(0.2) {
                        msg.msg_type = DhcpMsgType::Nak;
                    }
                    dhcp(msg)
                }
                2 => dhcp(DhcpMessage::release(xid, mac(c), host(c), server)),
                3 => PacketBuilder::ftp_control(
                    mac(c),
                    mac(9),
                    host(c),
                    host(9),
                    40_000,
                    21,
                    vec![FtpControl::Port { addr: host(c), port: 5000 + u16::from(c % 2) }],
                ),
                4 => PacketBuilder::tcp(
                    mac(9),
                    mac(c),
                    host(9),
                    host(c),
                    20,
                    5000 + rng.random_range(0..3u16),
                    TcpFlags::SYN,
                    &[],
                ),
                _ => PacketBuilder::tcp(
                    mac(c),
                    mac(9),
                    host(c),
                    host(9),
                    1000,
                    [7001u16, 7002, 22, 80][rng.random_range(0..4usize)],
                    TcpFlags::SYN,
                    &[],
                ),
            };
            let (switch, id, pkt) =
                (SwitchId(rng.random_range(0..2u32)), PacketId(next_id), Arc::new(pkt));
            next_id += 1;
            inflight.push((switch, id, pkt.clone()));
            NetEventKind::Arrival { switch, port: PortNo(rng.random_range(0..3u16)), pkt, id }
        };
        out.push(NetEvent { time, kind });
    }
    out
}
