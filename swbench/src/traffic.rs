//! Seeded traffic for the two session workloads.
//!
//! The program under test only ever sees the `NetEvent`s built here; the
//! generators (`swmon-apps`, `swmon-switch`, `swmon-sim`,
//! `swmon-workloads`) run during set-up and are never timed.
//!
//! * **catalog-mix** — every app family experiment E9 drives, each on its
//!   own simulated switch, with a fixed share of every family's sessions
//!   on fault-injected variants (each on a switch id of its own). The
//!   sub-traces are merged by time and their `PacketId`s remapped so they
//!   stay unique.
//! * **firewall-flows** — E13's `multi_flow_trace` shape (reply fraction
//!   0.4, drop fraction 0.25) over several thousand concurrent flows.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use swmon_apps::{
    ArpProxy, ArpProxyFault, DhcpServer, DhcpServerFault, Firewall, FirewallFault, KnockGate,
    KnockGateFault, LbFault, LbPolicy, LearningSwitch, LearningSwitchFault, LoadBalancer, Nat,
    NatFault,
};
use swmon_packet::{
    ArpPacket, DhcpMessage, Headers, Ipv4Address, Layer, MacAddr, Packet, PacketBuilder, TcpFlags,
};
use swmon_props::scenario::*;
use swmon_sim::time::{Duration, Instant};
use swmon_sim::trace::{NetEvent, NetEventKind, PacketId, TraceRecorder};
use swmon_sim::{Network, OobEvent, PortNo, SwitchId};
use swmon_switch::{AppCtx, AppLogic, AppSwitch};
use swmon_workloads::scenarios::{
    DhcpWorkload, FirewallWorkload, FtpWorkload, KnockWorkload, LbWorkload,
};
use swmon_workloads::trace::multi_flow_trace;
use swmon_workloads::Schedule;

/// Share of each family's sessions that run on a fault-injected variant.
pub const FAULT_SHARE: f64 = 0.10;

/// Simulated time over which catalog-mix sessions start.
pub const MIX_HORIZON: Duration = Duration::from_secs(20);

/// Sessions per catalog-mix family (before the fault split).
pub const MIX_SESSIONS: u32 = 400;

/// firewall-flows: concurrent flows and generated packets (two events
/// each: arrival and departure).
pub const FW_FLOWS: u32 = 4_096;
/// See [`FW_FLOWS`].
pub const FW_PACKETS: u32 = 60_000;

/// How long after the last event the sessions finish, so every pending
/// deadline (the longest is the firewall's 30 s) fires.
pub const SETTLE: Duration = Duration::from_secs(60);

/// One switch's share of a catalog-mix trace.
#[derive(Debug, Clone)]
pub struct SubTrace {
    /// App family ("firewall", "nat", ...).
    pub family: &'static str,
    /// The switch the variant ran on.
    pub switch: SwitchId,
    /// The injected fault, `None` for the correct implementation.
    pub fault: Option<String>,
    /// The catalog property the fault is written to trip.
    pub target: Option<&'static str>,
    /// Events this switch contributed.
    pub events: usize,
}

/// A generated workload trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Time-ordered events.
    pub events: Vec<NetEvent>,
    /// When sessions finish (last event + [`SETTLE`]).
    pub end: Instant,
    /// Per-switch composition (empty for single-generator workloads).
    pub parts: Vec<SubTrace>,
}

impl Trace {
    /// Stable FNV-1a digest over times, kinds, switches, ports, actions,
    /// packet ids and packet bytes.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for ev in &self.events {
            h.u64(ev.time.as_nanos());
            match &ev.kind {
                NetEventKind::Arrival { switch, port, pkt, id } => {
                    h.u64(1);
                    h.u64(u64::from(switch.0));
                    h.u64(u64::from(port.0));
                    h.u64(id.0);
                    h.bytes(pkt.bytes());
                }
                NetEventKind::Departure { switch, pkt, id, action } => {
                    h.u64(2);
                    h.u64(u64::from(switch.0));
                    h.bytes(format!("{action:?}").as_bytes());
                    h.u64(id.0);
                    h.bytes(pkt.bytes());
                }
                NetEventKind::OutOfBand(o) => {
                    h.u64(3);
                    h.bytes(format!("{o:?}").as_bytes());
                }
            }
        }
        h.0
    }
}

#[derive(Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A splitmix64 stream for the schedules built here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded stream.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// Rebuild every packet of `events` from its bytes, so the copy's parse
/// memos are cold. Events that shared one `Arc<Packet>` in the source (an
/// arrival and its unmodified departure) share one fresh `Arc` in the
/// copy.
pub fn fresh_copy(events: &[NetEvent]) -> Vec<NetEvent> {
    let mut map: HashMap<*const Packet, Arc<Packet>> = HashMap::new();
    let mut fresh = |pkt: &Arc<Packet>| -> Arc<Packet> {
        map.entry(Arc::as_ptr(pkt))
            .or_insert_with(|| Arc::new(Packet::from_bytes(pkt.bytes().to_vec())))
            .clone()
    };
    events
        .iter()
        .map(|ev| {
            let kind = match &ev.kind {
                NetEventKind::Arrival { switch, port, pkt, id } => {
                    NetEventKind::Arrival { switch: *switch, port: *port, pkt: fresh(pkt), id: *id }
                }
                NetEventKind::Departure { switch, pkt, id, action } => NetEventKind::Departure {
                    switch: *switch,
                    pkt: fresh(pkt),
                    id: *id,
                    action: *action,
                },
                NetEventKind::OutOfBand(o) => NetEventKind::OutOfBand(*o),
            };
            NetEvent { time: ev.time, kind }
        })
        .collect()
}

/// The firewall-flows trace: E13's shape, seeded by `seed`.
pub fn firewall_flows(seed: u64) -> Trace {
    let events = multi_flow_trace(FW_FLOWS, FW_PACKETS, 0.4, 0.25, Duration::from_micros(2), seed);
    let end = events.last().map_or(Instant::ZERO, |e| e.time) + SETTLE;
    Trace { events, end, parts: Vec::new() }
}

/// A transparent two-port forwarder: FTP's system under test is the
/// endpoints, so the switch just carries their traffic.
struct Wire;

impl AppLogic for Wire {
    fn handle(&mut self, ctx: &mut AppCtx<'_, '_>, _headers: &Headers) {
        let out = if ctx.in_port() == PortNo(0) { PortNo(1) } else { PortNo(0) };
        ctx.forward(out);
    }
}

/// Run one app variant over `schedule` on switch `switch` and record what
/// its monitors would observe.
fn simulate<L: AppLogic + 'static>(
    switch: u32,
    ports: u16,
    depth: Layer,
    logic: L,
    schedule: &Schedule,
) -> Vec<NetEvent> {
    let mut net = Network::new();
    let node =
        net.add_node(Rc::new(RefCell::new(AppSwitch::new(SwitchId(switch), ports, depth, logic))));
    let rec = Rc::new(RefCell::new(TraceRecorder::new()));
    net.add_sink(rec.clone());
    schedule.inject_into(&mut net, node);
    net.run_to_completion();
    let events = std::mem::take(&mut rec.borrow_mut().events);
    events
}

/// Session counts for the correct variant and each faulty one.
fn split(sessions: u32, faulty_variants: u32) -> (u32, u32) {
    let per_fault = ((f64::from(sessions) * FAULT_SHARE) as u32).max(1);
    (sessions - per_fault * faulty_variants, per_fault)
}

fn spacing(count: u32) -> Duration {
    Duration::from_nanos(MIX_HORIZON.as_nanos() / u64::from(count.max(1)))
}

fn host_mac(switch: u32, host: u32) -> MacAddr {
    MacAddr::new(2, 0xee, switch as u8, (host >> 16) as u8, (host >> 8) as u8, host as u8)
}

/// Learning-switch traffic among `hosts` hosts on four ports, with a link
/// down on port 0 halfway through.
fn learning_schedule(switch: u32, hosts: u32, packets: u32, rng: &mut Rng) -> Schedule {
    let mut s = Schedule::new();
    let ip = |h: u32| Ipv4Address::from_u32(0x0a10_0000 + (switch << 12) + h);
    for i in 0..packets {
        let t = Instant::ZERO + spacing(packets) * u64::from(i);
        let src = rng.below(u64::from(hosts)) as u32;
        let dst = (src + 1 + rng.below(u64::from(hosts - 1)) as u32) % hosts;
        let pkt = PacketBuilder::tcp(
            host_mac(switch, src),
            host_mac(switch, dst),
            ip(src),
            ip(dst),
            1000 + (src as u16),
            2000,
            TcpFlags::ACK,
            &[],
        );
        s.packet(t, PortNo((src % 4) as u16), pkt);
    }
    s.oob(
        Instant::ZERO + Duration::from_nanos(MIX_HORIZON.as_nanos() / 2),
        OobEvent::PortDown(SwitchId(switch), PortNo(0)),
    );
    s
}

/// NAT sessions: each client flow sends `per_flow` packets out, then the
/// server answers to the translation the NAT allocated (ports are handed
/// out in first-seen order from 61000).
fn nat_schedule(switch: u32, flows: u32, rng: &mut Rng) -> Schedule {
    let mut s = Schedule::new();
    let server = Ipv4Address::new(192, 0, 2, 80);
    for i in 0..flows {
        let t0 = Instant::ZERO + spacing(flows) * u64::from(i);
        let client = Ipv4Address::from_u32(0x0a20_0000 + (switch << 14) + i);
        let sport = 3000 + rng.below(20_000) as u16;
        let mac = host_mac(switch, i);
        for k in 0..2u64 {
            let out = PacketBuilder::tcp(
                mac,
                host_mac(switch, 0xffff),
                client,
                server,
                sport,
                80,
                if k == 0 { TcpFlags::SYN } else { TcpFlags::ACK },
                &[],
            );
            s.packet(t0 + Duration::from_micros(100 * k), INSIDE_PORT, out);
        }
        let back = PacketBuilder::tcp(
            host_mac(switch, 0xffff),
            mac,
            server,
            NAT_PUBLIC_IP,
            80,
            61000 + i as u16,
            TcpFlags::ACK,
            &[],
        );
        s.packet(t0 + Duration::from_millis(3), OUTSIDE_PORT, back);
    }
    s
}

/// How long after an owner's reply passes the ARP proxy someone asks for
/// it, so learned-but-unasked addresses pile up as live instances.
pub const ARP_ASK_DELAY: Duration = Duration::from_secs(8);

/// ARP-proxy sessions: an owner's reply (to a requester outside) traverses
/// the switch, so the proxy learns the owner; [`ARP_ASK_DELAY`] later a
/// host asks for it, or (30% of sessions) for an address nobody announced.
/// Every owner has an address of its own.
fn arp_schedule(switch: u32, rounds: u32, rng: &mut Rng) -> Schedule {
    let mut s = Schedule::new();
    for i in 0..rounds {
        let t0 = Instant::ZERO + spacing(rounds) * u64::from(i);
        let owner_ip = Ipv4Address::from_u32(0x0a40_0000 + (switch << 14) + i);
        let outside = ArpPacket::request(
            host_mac(switch, 0xfff0),
            Ipv4Address::from_u32(0x0a41_0000 + (switch << 14)),
            owner_ip,
        );
        let reply = ArpPacket::reply_to(&outside, host_mac(switch, i));
        s.packet(t0, PortNo(1), PacketBuilder::arp(reply));
        let target = if rng.chance(0.3) {
            Ipv4Address::from_u32(0x0a42_0000 + (switch << 14) + i)
        } else {
            owner_ip
        };
        let asker = host_mac(switch, 0x8000 + i);
        let asker_ip = Ipv4Address::from_u32(0x0a43_0000 + (switch << 14) + i);
        s.packet(
            t0 + ARP_ASK_DELAY,
            PortNo(2),
            PacketBuilder::arp(ArpPacket::request(asker, asker_ip, target)),
        );
    }
    s
}

/// DHCP-then-ARP sessions through an ARP proxy that preloads from DHCP:
/// a lease ACK passes, then someone asks for the leased address; a share
/// of sessions also ask for an address nobody leased.
fn dhcp_arp_schedule(switch: u32, sessions: u32, rng: &mut Rng) -> Schedule {
    let mut s = Schedule::new();
    for i in 0..sessions {
        let t0 = Instant::ZERO + spacing(sessions) * u64::from(i);
        let leased = Ipv4Address::from_u32(0x0a30_0000 + (switch << 14) + i);
        let holder = host_mac(switch, i);
        let ack = PacketBuilder::dhcp(
            host_mac(switch, 0xfffe),
            DHCP_SERVER_1,
            leased,
            &DhcpMessage::ack(rng.next_u64() as u32, holder, leased, DHCP_SERVER_1, 3600),
        );
        s.packet(t0, PortNo(1), ack);
        let asker = host_mac(switch, 0x8000 + i);
        let asker_ip = Ipv4Address::from_u32(0x0a31_0000 + (switch << 14) + i);
        s.packet(
            t0 + Duration::from_millis(10),
            PortNo(2),
            PacketBuilder::arp(ArpPacket::request(asker, asker_ip, leased)),
        );
        if rng.chance(0.3) {
            let unknown = Ipv4Address::from_u32(0x0a32_0000 + (switch << 14) + i);
            s.packet(
                t0 + Duration::from_millis(12),
                PortNo(2),
                PacketBuilder::arp(ArpPacket::request(asker, asker_ip, unknown)),
            );
        }
    }
    s
}

/// One variant to simulate: switch id, fault label, target property, and
/// its events.
struct Part {
    family: &'static str,
    switch: u32,
    fault: Option<String>,
    target: Option<&'static str>,
    events: Vec<NetEvent>,
}

fn part(
    family: &'static str,
    switch: u32,
    fault: Option<(String, &'static str)>,
    events: Vec<NetEvent>,
) -> Part {
    let (fault, target) = match fault {
        Some((f, t)) => (Some(f), Some(t)),
        None => (None, None),
    };
    Part { family, switch, fault, target, events }
}

/// The catalog-mix trace for `seed`, with `sessions` sessions per family.
pub fn catalog_mix(seed: u64, sessions: u32) -> Trace {
    let mut rng = Rng::new(seed ^ 0x5eed_ca7a_1095_0001);
    let mut sub_seed = || rng.next_u64();
    let mut parts: Vec<Part> = Vec::new();

    // ---- learning switch (link-down halfway) ---------------------------
    {
        let (ok, bad) = split(sessions, 2);
        let hosts = |n: u32| (n / 4).max(8);
        let mut r = Rng::new(sub_seed());
        let sched = learning_schedule(1, hosts(ok), ok * 4, &mut r);
        let ev = simulate(1, 4, Layer::L2, LearningSwitch::new(LearningSwitchFault::None), &sched);
        parts.push(part("learning-switch", 1, None, ev));
        for (sw, fault, target) in [
            (2, LearningSwitchFault::LearnsWrongPort, "learning-switch/correct-port"),
            (3, LearningSwitchFault::NoFlushOnLinkDown, "learning-switch/flush-on-link-down"),
        ] {
            let sched = learning_schedule(sw, hosts(bad * 4), bad * 4, &mut r);
            let ev = simulate(sw, 4, Layer::L2, LearningSwitch::new(fault), &sched);
            parts.push(part("learning-switch", sw, Some((format!("{fault:?}"), target)), ev));
        }
    }

    // ---- stateful firewall ---------------------------------------------
    {
        let (ok, bad) = split(sessions, 1);
        for (sw, n, fault) in
            [(10, ok, FirewallFault::None), (11, bad, FirewallFault::DropsReturnTraffic)]
        {
            let sched = FirewallWorkload {
                connections: n,
                spacing: spacing(n),
                reply_gap: Duration::from_millis(5),
                close_prob: 0.3,
                seed: sub_seed(),
            }
            .build(INSIDE_PORT, OUTSIDE_PORT);
            let fw = Firewall::new(INSIDE_PORT, OUTSIDE_PORT, FW_TIMEOUT, fault);
            let ev = simulate(sw, 2, Layer::L4, fw, &sched);
            let tag = (fault != FirewallFault::None)
                .then(|| (format!("{fault:?}"), "firewall/return-not-dropped"));
            parts.push(part("firewall", sw, tag, ev));
        }
    }

    // ---- NAT ---------------------------------------------------------------
    {
        let (ok, bad) = split(sessions, 1);
        for (sw, n, fault) in [(20, ok, NatFault::None), (21, bad, NatFault::WrongReversePort)] {
            let sched = nat_schedule(sw, n, &mut Rng::new(sub_seed()));
            let nat = Nat::new(INSIDE_PORT, OUTSIDE_PORT, NAT_PUBLIC_IP, fault);
            let ev = simulate(sw, 2, Layer::L4, nat, &sched);
            let tag = (fault != NatFault::None)
                .then(|| (format!("{fault:?}"), "nat/reverse-translation"));
            parts.push(part("nat", sw, tag, ev));
        }
    }

    // ---- ARP proxy -----------------------------------------------------------
    {
        let (ok, bad) = split(sessions, 3);
        for (sw, n, fault, target) in [
            (30, ok, ArpProxyFault::None, None),
            (31, bad, ArpProxyFault::NeverReplies, Some("arp-proxy/reply-within-T")),
            (32, bad, ArpProxyFault::ForwardsKnown, Some("arp-proxy/known-not-forwarded")),
            (33, bad, ArpProxyFault::SwallowsUnknown, Some("arp-proxy/unknown-forwarded")),
        ] {
            let sched = arp_schedule(sw, n, &mut Rng::new(sub_seed()));
            let ev = simulate(sw, 4, Layer::L7, ArpProxy::new(false, fault), &sched);
            parts.push(part("arp-proxy", sw, target.map(|t| (format!("{fault:?}"), t)), ev));
        }
    }

    // ---- DHCP server ---------------------------------------------------------
    {
        let (ok, bad) = split(sessions, 3);
        let pool = Ipv4Address::new(10, 0, 0, 100);
        let variants = [
            (40, ok, DHCP_SERVER_1, DhcpServerFault::None, None),
            (41, bad, DHCP_SERVER_1, DhcpServerFault::Silent, Some("dhcp/reply-within-T")),
            (
                42,
                bad,
                DHCP_SERVER_1,
                DhcpServerFault::ReusesActiveLeases,
                Some("dhcp/no-reuse-before-expiry"),
            ),
            // A second server leasing from the same pool: the
            // misconfiguration the overlap property exists for.
            (43, bad, DHCP_SERVER_2, DhcpServerFault::None, Some("dhcp/no-lease-overlap")),
        ];
        for (sw, n, server, fault, target) in variants {
            let sched = DhcpWorkload {
                clients: n,
                spacing: spacing(n),
                release_prob: 0.25,
                seed: sub_seed(),
            }
            .build(PortNo(0), server);
            let dhcp = DhcpServer::new(server, pool, 100, 3600, fault);
            let ev = simulate(sw, 4, Layer::L7, dhcp, &sched);
            let tag = target.map(|t| {
                let label = if server == DHCP_SERVER_2 {
                    "SecondServer".to_string()
                } else {
                    format!("{fault:?}")
                };
                (label, t)
            });
            parts.push(part("dhcp", sw, tag, ev));
        }
    }

    // ---- DHCP + ARP proxy ----------------------------------------------------
    {
        let (ok, bad) = split(sessions, 2);
        for (sw, n, fault, target) in [
            (50, ok, ArpProxyFault::None, None),
            (51, bad, ArpProxyFault::IgnoresDhcp, Some("dhcp-arp/preload-cache")),
            (52, bad, ArpProxyFault::RepliesUnfounded, Some("dhcp-arp/no-unfounded-direct-reply")),
        ] {
            let sched = dhcp_arp_schedule(sw, n, &mut Rng::new(sub_seed()));
            let ev = simulate(sw, 4, Layer::L7, ArpProxy::new(true, fault), &sched);
            parts.push(part("dhcp+arp", sw, target.map(|t| (format!("{fault:?}"), t)), ev));
        }
    }

    // ---- load balancer -------------------------------------------------------
    {
        let (ok, bad) = split(sessions, 1);
        let ports = (LB_BASE_PORT + LB_BACKENDS) as u16;
        for (sw, n, fault) in [(60, ok, LbFault::None), (61, bad, LbFault::HashesWrongFields)] {
            let sched =
                LbWorkload { flows: n, packets_per_flow: 4, spacing: spacing(n), seed: sub_seed() }
                    .build(LB_CLIENT_PORT, LB_VIP);
            let lb = LoadBalancer::new(
                LB_VIP,
                LB_CLIENT_PORT,
                LB_BASE_PORT,
                LB_BACKENDS,
                LbPolicy::Hash,
                fault,
            );
            let ev = simulate(sw, ports, Layer::L4, lb, &sched);
            let tag =
                (fault != LbFault::None).then(|| (format!("{fault:?}"), "lb/new-flow-hashed-port"));
            parts.push(part("load-balancer", sw, tag, ev));
        }
    }

    // ---- port knocking -------------------------------------------------------
    {
        let (ok, bad) = split(sessions, 1);
        for (sw, n, fault) in
            [(70, ok, KnockGateFault::None), (71, bad, KnockGateFault::IgnoresWrongGuesses)]
        {
            let sched = KnockWorkload {
                knockers: n,
                fumble_fraction: 0.3,
                spacing: spacing(n),
                seed: sub_seed(),
            }
            .build(PortNo(0), &KNOCK_SEQ, PROTECTED_PORT);
            let gate = KnockGate::new(&KNOCK_SEQ, PROTECTED_PORT, PortNo(1), fault);
            let ev = simulate(sw, 4, Layer::L4, gate, &sched);
            let tag = (fault != KnockGateFault::None)
                .then(|| (format!("{fault:?}"), "port-knock/wrong-guess-invalidates"));
            parts.push(part("port-knocking", sw, tag, ev));
        }
    }

    // ---- FTP (the endpoints are the system under test) -------------------------
    {
        let (ok, bad) = split(sessions, 1);
        for (sw, n, wrong) in [(80, ok, 0.0), (81, bad, 1.0)] {
            let sched = FtpWorkload {
                sessions: n,
                wrong_port_fraction: wrong,
                spacing: spacing(n),
                seed: sub_seed(),
            }
            .build(PortNo(0), PortNo(1));
            let ev = simulate(sw, 2, Layer::L7, Wire, &sched);
            let tag = (wrong > 0.0)
                .then(|| ("WrongDataPort".to_string(), "ftp/data-port-matches-control"));
            parts.push(part("ftp", sw, tag, ev));
        }
    }

    merge_parts(parts)
}

/// Remap packet ids so they stay unique across sub-traces, then merge by
/// time (stable: simultaneous events keep sub-trace order).
fn merge_parts(parts: Vec<Part>) -> Trace {
    let mut offset = 0u64;
    let mut tagged: Vec<(Instant, usize, usize, NetEvent)> = Vec::new();
    let mut info = Vec::new();
    for (pi, p) in parts.into_iter().enumerate() {
        let mut max_id = 0u64;
        for (i, ev) in p.events.iter().enumerate() {
            let kind = match &ev.kind {
                NetEventKind::Arrival { switch, port, pkt, id } => {
                    max_id = max_id.max(id.0);
                    NetEventKind::Arrival {
                        switch: *switch,
                        port: *port,
                        pkt: pkt.clone(),
                        id: PacketId(id.0 + offset),
                    }
                }
                NetEventKind::Departure { switch, pkt, id, action } => {
                    max_id = max_id.max(id.0);
                    NetEventKind::Departure {
                        switch: *switch,
                        pkt: pkt.clone(),
                        id: PacketId(id.0 + offset),
                        action: *action,
                    }
                }
                NetEventKind::OutOfBand(o) => NetEventKind::OutOfBand(*o),
            };
            tagged.push((ev.time, pi, i, NetEvent { time: ev.time, kind }));
        }
        offset += max_id + 1;
        info.push(SubTrace {
            family: p.family,
            switch: SwitchId(p.switch),
            fault: p.fault,
            target: p.target,
            events: p.events.len(),
        });
    }
    tagged.sort_by_key(|(t, pi, i, _)| (*t, *pi, *i));
    let events: Vec<NetEvent> = tagged.into_iter().map(|(_, _, _, ev)| ev).collect();
    let end = events.last().map_or(Instant::ZERO, |e| e.time) + SETTLE;
    Trace { events, end, parts: info }
}
