//! Egress ports: the transmit side of one link direction.
//!
//! A port owns the FIFO packet queue for its link direction, the cumulative
//! transmit counter used by INT, the optional RED/ECN marking configuration,
//! and picosecond-exact serialization accounting.

use std::collections::VecDeque;

use dcsim::{BitRate, Bytes, DetRng, Nanos};

use crate::fault::LossState;
use crate::ids::{NodeId, PortNo};
use crate::packet::{PacketHandle, PacketKind, PacketPool};
use crate::pfc::PauseCounter;

/// RED (Random Early Detection) ECN-marking parameters, as used by DCQCN.
///
/// A packet is marked with probability 0 below `kmin` bytes of queue,
/// probability `pmax` at `kmax`, linearly interpolated in between, and
/// probability 1 above `kmax`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedConfig {
    /// Queue depth below which nothing is marked.
    pub kmin: Bytes,
    /// Queue depth at which marking probability reaches `pmax`.
    pub kmax: Bytes,
    /// Marking probability at `kmax` (DCQCN suggests small values; the
    /// paper quotes 1% as the moderate-congestion maximum).
    pub pmax: f64,
}

impl RedConfig {
    /// DCQCN defaults scaled for 100 Gbps links (the HPCC artifact uses
    /// kmin=100KB, kmax=400KB, pmax=0.05 at 100 Gbps).
    pub fn dcqcn_100g() -> Self {
        RedConfig {
            kmin: Bytes::from_kb(100),
            kmax: Bytes::from_kb(400),
            pmax: 0.05,
        }
    }

    /// Marking probability at queue depth `q`.
    pub fn mark_probability(&self, q: Bytes) -> f64 {
        if q <= self.kmin {
            0.0
        } else if q >= self.kmax {
            1.0
        } else {
            self.pmax * (q.as_u64() - self.kmin.as_u64()) as f64
                / (self.kmax.as_u64() - self.kmin.as_u64()) as f64
        }
    }
}

/// One queued frame: the pool handle plus the fields the port needs on
/// the dequeue side, cached at enqueue so transmission accounting never
/// touches the pool.
#[derive(Debug, Clone, Copy)]
struct QueuedFrame {
    handle: PacketHandle,
    wire_size: u32,
    kind: PacketKind,
}

/// The transmit side of one link direction.
#[derive(Debug)]
pub struct Port {
    /// The node and port this port's wire is attached to.
    pub peer: (NodeId, PortNo),
    /// Line rate of the link.
    pub rate: BitRate,
    /// Propagation delay of the link.
    pub prop: Nanos,
    /// Whether this port stamps INT telemetry on data packets at egress.
    pub stamp_int: bool,
    /// RED marking configuration (switch egress ports under DCQCN).
    pub red: Option<RedConfig>,
    /// Finite buffer for *data* packets, in bytes (`None` = deep-buffer
    /// lossless abstraction). Control frames (ACK/CNP/NACK) always use
    /// reserved headroom, as real RoCE switches prioritize them.
    pub buffer_limit: Option<u64>,
    /// Whether a packet is currently being serialized.
    pub busy: bool,
    /// PFC pause state: a paused port finishes the in-flight packet but
    /// does not start the next one. Reference-counted because several
    /// congested queues can pause the same port.
    pub pause: PauseCounter,
    /// PFC hysteresis: whether this queue is in the over-XOFF regime
    /// (set crossing above XOFF, cleared crossing below XON).
    pub pfc_over: bool,
    /// Fault injection: whether the link direction is up. Down ports
    /// drop every enqueue attempt and hold no backlog.
    pub link_up: bool,
    /// Fault injection: when this direction last went down (frames that
    /// departed before the outage but were still propagating are lost).
    pub last_down: Nanos,
    /// Fault injection: wire loss channel for this direction, if any.
    pub loss: Option<LossState>,
    queue: VecDeque<QueuedFrame>,
    qbytes: u64,
    max_qbytes: u64,
    tx_bytes: u64,
    tx_packets: u64,
    dropped_packets: u64,
    residue_ps: u64,
    /// Bytes ever offered to this port (accepted + dropped): the left-hand
    /// side of the sim-audit conservation law
    /// `enq_bytes == tx_bytes + dropped_bytes + qbytes`.
    enq_bytes: u64,
    /// Packets ever offered to this port (accepted + dropped).
    enq_packets: u64,
    /// Bytes tail-dropped by the finite buffer.
    dropped_bytes: u64,
    /// Packets ECN-marked by RED at this port.
    ecn_marked: u64,
    /// Frames destroyed on the wire by the loss model (fault injection).
    wire_lost: u64,
}

impl Port {
    /// A new idle port.
    pub fn new(peer: (NodeId, PortNo), rate: BitRate, prop: Nanos) -> Self {
        assert!(rate.as_u64() > 0, "links must have a positive rate");
        Port {
            peer,
            rate,
            prop,
            stamp_int: true,
            red: None,
            buffer_limit: None,
            busy: false,
            pause: PauseCounter::default(),
            pfc_over: false,
            link_up: true,
            last_down: Nanos::ZERO,
            loss: None,
            queue: VecDeque::new(),
            qbytes: 0,
            max_qbytes: 0,
            tx_bytes: 0,
            tx_packets: 0,
            dropped_packets: 0,
            residue_ps: 0,
            enq_bytes: 0,
            enq_packets: 0,
            dropped_bytes: 0,
            ecn_marked: 0,
            wire_lost: 0,
        }
    }

    /// sim-audit: every byte offered to the port must be transmitted,
    /// dropped, or still resident in the queue — and RED can only have
    /// marked packets the port actually accepted.
    fn audit_conservation(&self) {
        dcsim::audit_assert_eq!(
            self.enq_bytes,
            self.tx_bytes + self.dropped_bytes + self.qbytes,
            "port byte conservation: enqueued != transmitted + dropped + resident"
        );
        dcsim::audit_assert_eq!(
            self.enq_packets,
            self.tx_packets + self.dropped_packets + self.queue.len() as u64,
            "port packet conservation: enqueued != transmitted + dropped + resident"
        );
        dcsim::audit_assert!(
            self.ecn_marked <= self.enq_packets - self.dropped_packets,
            "ECN accounting: marked {} of only {} accepted packets",
            self.ecn_marked,
            self.enq_packets - self.dropped_packets
        );
    }

    /// Test hook: corrupt the byte ledger so audit tests can prove the
    /// conservation check fires. Compiled only with `sim-audit`.
    #[cfg(feature = "sim-audit")]
    pub fn audit_corrupt_qbytes(&mut self, delta: u64) {
        self.qbytes += delta;
    }

    /// Current queue backlog in bytes (excluding the packet on the wire).
    #[inline]
    pub fn qbytes(&self) -> u64 {
        self.qbytes
    }

    /// High-water mark of the backlog over the whole run.
    #[inline]
    pub fn max_qbytes(&self) -> u64 {
        self.max_qbytes
    }

    /// Cumulative bytes ever transmitted (the INT `txBytes` counter).
    #[inline]
    pub fn tx_bytes(&self) -> u64 {
        self.tx_bytes
    }

    /// Cumulative packets ever transmitted.
    #[inline]
    pub fn tx_packets(&self) -> u64 {
        self.tx_packets
    }

    /// Number of queued packets.
    #[inline]
    pub fn qlen_packets(&self) -> usize {
        self.queue.len()
    }

    /// Append a packet to the queue, RED-marking data packets if
    /// configured and tail-dropping data packets that exceed a finite
    /// buffer. Returns `Ok(true)` if the port was idle (the caller should
    /// start transmission), `Ok(false)` if queued behind others, and
    /// `Err(handle)` if the packet was dropped (caller frees the slot).
    pub fn enqueue(
        &mut self,
        h: PacketHandle,
        pool: &mut PacketPool,
        red_rng: &mut DetRng,
    ) -> Result<bool, PacketHandle> {
        let (wire_size, kind) = {
            let pkt = pool.get(h);
            (pkt.wire_size, pkt.kind)
        };
        self.enq_bytes += wire_size as u64;
        self.enq_packets += 1;
        if !self.link_up {
            // A downed wire loses everything, control frames included.
            self.dropped_packets += 1;
            self.dropped_bytes += wire_size as u64;
            self.audit_conservation();
            return Err(h);
        }
        if kind == PacketKind::Data {
            if let Some(limit) = self.buffer_limit {
                if self.qbytes + wire_size as u64 > limit {
                    self.dropped_packets += 1;
                    self.dropped_bytes += wire_size as u64;
                    self.audit_conservation();
                    return Err(h);
                }
            }
            if let Some(red) = self.red {
                let p = red.mark_probability(Bytes(self.qbytes));
                if p > 0.0 && red_rng.chance(p) {
                    pool.get_mut(h).ecn = true;
                    self.ecn_marked += 1;
                }
            }
        }
        self.qbytes += wire_size as u64;
        self.max_qbytes = self.max_qbytes.max(self.qbytes);
        if self.queue.len() == self.queue.capacity() {
            // Queue depth is bounded by the buffer limit; grow toward that
            // bound in chunks so a filling queue reallocates rarely.
            self.queue.reserve(32);
        }
        self.queue.push_back(QueuedFrame {
            handle: h,
            wire_size,
            kind,
        });
        self.audit_conservation();
        Ok(!self.busy && !self.is_paused())
    }

    /// Number of data packets tail-dropped by the finite buffer.
    #[inline]
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    /// Cumulative bytes ever offered to this port (accepted + dropped).
    #[inline]
    pub fn enq_bytes(&self) -> u64 {
        self.enq_bytes
    }

    /// Cumulative packets ever offered to this port (accepted + dropped).
    #[inline]
    pub fn enq_packets(&self) -> u64 {
        self.enq_packets
    }

    /// Cumulative bytes tail-dropped by the finite buffer.
    #[inline]
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// Cumulative packets ECN-marked by RED at this port.
    #[inline]
    pub fn ecn_marked(&self) -> u64 {
        self.ecn_marked
    }

    /// Remove the head-of-line packet and account for its transmission.
    /// Returns the packet's handle and its serialization delay (computed
    /// from the wire size cached at enqueue — no pool access needed).
    pub fn begin_tx(&mut self) -> Option<(PacketHandle, Nanos)> {
        let frame = self.queue.pop_front()?;
        self.qbytes -= frame.wire_size as u64;
        self.tx_bytes += frame.wire_size as u64;
        self.tx_packets += 1;
        self.audit_conservation();
        let delay = self.ser_delay(frame.wire_size);
        Some((frame.handle, delay))
    }

    /// The kind of the head-of-line frame, if any (the batched-drain path
    /// uses this to stop at frames that need per-frame egress work).
    #[inline]
    pub fn head_kind(&self) -> Option<PacketKind> {
        self.queue.front().map(|f| f.kind)
    }

    /// Picosecond-exact serialization delay with residue carrying, so that
    /// long-run throughput matches the line rate to within one ps per
    /// packet even when `bytes * 8e9 / rate` is not a whole nanosecond.
    fn ser_delay(&mut self, bytes: u32) -> Nanos {
        let ps = (bytes as u128) * 8_000_000_000_000u128 / (self.rate.as_u64() as u128);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "one packet's serialization time in ps fits u64; no branch per packet"
        )]
        let total = (ps as u64).saturating_add(self.residue_ps);
        self.residue_ps = total % 1_000;
        Nanos(total / 1_000)
    }

    /// Whether the queue has packets waiting.
    #[inline]
    pub fn has_backlog(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Fault injection: take this link direction down at `now`, flushing
    /// the queue into the drop counters (the byte-conservation ledger
    /// treats flushed frames exactly like tail drops). Returns the
    /// flushed handles for the caller to free.
    pub fn take_down(&mut self, now: Nanos) -> Vec<PacketHandle> {
        self.link_up = false;
        self.last_down = now;
        let mut flushed = Vec::with_capacity(self.queue.len());
        while let Some(frame) = self.queue.pop_front() {
            self.qbytes -= frame.wire_size as u64;
            self.dropped_packets += 1;
            self.dropped_bytes += frame.wire_size as u64;
            flushed.push(frame.handle);
        }
        self.audit_conservation();
        flushed
    }

    /// Fault injection: bring this link direction back up.
    pub fn bring_up(&mut self) {
        self.link_up = true;
    }

    /// Fault injection: count one frame that the loss model destroyed
    /// mid-transmission. `begin_tx` already moved its bytes into the
    /// transmitted column, which is where a frame that fully serialized
    /// belongs; this counter just makes wire losses observable.
    pub fn count_wire_loss(&mut self) {
        self.wire_lost += 1;
    }

    /// Frames destroyed on the wire by the loss model.
    #[inline]
    pub fn wire_lost(&self) -> u64 {
        self.wire_lost
    }

    /// Whether PFC currently forbids starting a transmission.
    #[inline]
    pub fn is_paused(&self) -> bool {
        self.pause.is_paused()
    }

    /// Publish this port's cumulative counters into the metrics registry
    /// under `port.<node>.<port>.*` keys. Ports that never saw traffic
    /// stay out of the registry to keep large-topology output small.
    pub fn publish_metrics(&self, node: NodeId, port: PortNo, reg: &mut simtrace::MetricsRegistry) {
        if self.enq_packets == 0 {
            return;
        }
        let prefix = format!("port.{}.{}", node.0, port.0);
        reg.counter_set(&format!("{prefix}.tx_bytes"), self.tx_bytes);
        reg.counter_set(&format!("{prefix}.tx_packets"), self.tx_packets);
        reg.counter_set(&format!("{prefix}.enq_bytes"), self.enq_bytes);
        reg.counter_set(&format!("{prefix}.enq_packets"), self.enq_packets);
        reg.counter_set(&format!("{prefix}.max_qbytes"), self.max_qbytes);
        reg.counter_set(&format!("{prefix}.dropped_packets"), self.dropped_packets);
        reg.counter_set(&format!("{prefix}.ecn_marked"), self.ecn_marked);
        if self.wire_lost > 0 {
            reg.counter_set(&format!("{prefix}.wire_lost"), self.wire_lost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;

    fn data_pkt(pool: &mut PacketPool, size: u32) -> PacketHandle {
        let h = pool.alloc();
        let p = pool.get_mut(h);
        p.kind = PacketKind::Data;
        p.flow = FlowId(0);
        p.wire_size = size;
        p.payload = size;
        h
    }

    fn ack_pkt(pool: &mut PacketPool, size: u32) -> PacketHandle {
        let h = pool.alloc();
        let p = pool.get_mut(h);
        p.kind = PacketKind::Ack;
        p.wire_size = size;
        h
    }

    fn port(rate_gbps: u64) -> Port {
        Port::new(
            (NodeId(1), PortNo(0)),
            BitRate::from_gbps(rate_gbps),
            Nanos::MICRO,
        )
    }

    #[test]
    fn enqueue_dequeue_accounting() {
        let mut pool = PacketPool::new();
        let mut rng = DetRng::new(1);
        let mut p = port(100);
        let h1 = data_pkt(&mut pool, 1000);
        assert!(p
            .enqueue(h1, &mut pool, &mut rng)
            .expect("no buffer limit set")); // idle → start
        p.busy = true;
        let h2 = data_pkt(&mut pool, 500);
        assert!(!p
            .enqueue(h2, &mut pool, &mut rng)
            .expect("no buffer limit set")); // busy
        assert_eq!(p.qbytes(), 1500);
        assert_eq!(p.max_qbytes(), 1500);

        let (pkt, delay) = p.begin_tx().expect("queue has a packet");
        assert_eq!(pool.get(pkt).wire_size, 1000);
        assert_eq!(delay, Nanos(80)); // 1000B @ 100Gbps
        assert_eq!(p.qbytes(), 500);
        assert_eq!(p.tx_bytes(), 1000);
        assert_eq!(p.tx_packets(), 1);
        assert_eq!(p.max_qbytes(), 1500); // high-water sticks
    }

    #[test]
    fn ser_delay_residue_accumulates() {
        // 60B at 100Gbps = 4.8 ns. Five of them must total exactly 24 ns.
        let mut pool = PacketPool::new();
        let mut rng = DetRng::new(1);
        let mut p = port(100);
        let mut total = Nanos::ZERO;
        for _ in 0..5 {
            let h = data_pkt(&mut pool, 60);
            p.enqueue(h, &mut pool, &mut rng)
                .expect("no buffer limit set");
            let (_, d) = p.begin_tx().expect("queue has a packet");
            total += d;
        }
        assert_eq!(total, Nanos(24));
    }

    #[test]
    fn red_marks_above_kmax_always() {
        let mut pool = PacketPool::new();
        let mut rng = DetRng::new(1);
        let mut p = port(100);
        p.red = Some(RedConfig {
            kmin: Bytes(0),
            kmax: Bytes(1),
            pmax: 1.0,
        });
        // First packet sees empty queue (0 <= kmin=0 → no mark).
        let h1 = data_pkt(&mut pool, 1000);
        p.enqueue(h1, &mut pool, &mut rng)
            .expect("no buffer limit set");
        p.busy = true;
        // Second packet sees 1000 >= kmax → always marked.
        let h2 = data_pkt(&mut pool, 1000);
        p.enqueue(h2, &mut pool, &mut rng)
            .expect("no buffer limit set");
        let (first, _) = p.begin_tx().expect("queue has a packet");
        let (second, _) = p.begin_tx().expect("queue has a packet");
        assert!(!pool.get(first).ecn);
        assert!(pool.get(second).ecn);
    }

    #[test]
    fn red_never_marks_acks() {
        let mut pool = PacketPool::new();
        let mut rng = DetRng::new(1);
        let mut p = port(100);
        p.red = Some(RedConfig {
            kmin: Bytes(0),
            kmax: Bytes(1),
            pmax: 1.0,
        });
        let ack = ack_pkt(&mut pool, 60);
        let data = data_pkt(&mut pool, 1000);
        p.enqueue(data, &mut pool, &mut rng)
            .expect("no buffer limit set"); // fill queue
        p.busy = true;
        p.enqueue(ack, &mut pool, &mut rng)
            .expect("control frames never drop");
        p.begin_tx().expect("queue has a packet");
        let (ack_out, _) = p.begin_tx().expect("queue has a packet");
        assert!(!pool.get(ack_out).ecn);
    }

    #[test]
    fn red_probability_is_linear() {
        let red = RedConfig {
            kmin: Bytes(100),
            kmax: Bytes(300),
            pmax: 0.1,
        };
        assert_eq!(red.mark_probability(Bytes(50)), 0.0);
        assert_eq!(red.mark_probability(Bytes(100)), 0.0);
        assert!((red.mark_probability(Bytes(200)) - 0.05).abs() < 1e-12);
        assert_eq!(red.mark_probability(Bytes(300)), 1.0);
        assert_eq!(red.mark_probability(Bytes(400)), 1.0);
    }

    #[test]
    fn paused_port_reports_no_start() {
        let mut pool = PacketPool::new();
        let mut rng = DetRng::new(1);
        let mut p = port(100);
        p.pause.apply(true);
        let h = data_pkt(&mut pool, 1000);
        assert!(!p
            .enqueue(h, &mut pool, &mut rng)
            .expect("no buffer limit set"));
        assert!(p.has_backlog());
    }

    #[test]
    fn finite_buffer_tail_drops_data_only() {
        let mut pool = PacketPool::new();
        let mut rng = DetRng::new(1);
        let mut p = port(100);
        p.buffer_limit = Some(1_500);
        p.busy = true;
        let h1 = data_pkt(&mut pool, 1000);
        assert!(p.enqueue(h1, &mut pool, &mut rng).is_ok());
        // Second data packet exceeds the 1.5 KB budget: dropped.
        let h2 = data_pkt(&mut pool, 1000);
        let r = p.enqueue(h2, &mut pool, &mut rng);
        assert!(r.is_err());
        assert_eq!(p.dropped_packets(), 1);
        assert_eq!(p.qbytes(), 1000);
        // Control frames ride reserved headroom: never dropped.
        let ack = ack_pkt(&mut pool, 60);
        assert!(p.enqueue(ack, &mut pool, &mut rng).is_ok());
        assert_eq!(p.dropped_packets(), 1);
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_rate_link_rejected() {
        Port::new((NodeId(0), PortNo(0)), BitRate::ZERO, Nanos::ZERO);
    }

    #[test]
    fn take_down_flushes_into_drop_counters() {
        let mut pool = PacketPool::new();
        let mut rng = DetRng::new(1);
        let mut p = port(100);
        p.busy = true;
        let h1 = data_pkt(&mut pool, 1000);
        p.enqueue(h1, &mut pool, &mut rng)
            .expect("no buffer limit set");
        let h2 = data_pkt(&mut pool, 500);
        p.enqueue(h2, &mut pool, &mut rng)
            .expect("no buffer limit set");
        let flushed = p.take_down(Nanos(77));
        assert_eq!(flushed, vec![h1, h2]);
        assert!(!p.link_up);
        assert_eq!(p.last_down, Nanos(77));
        assert_eq!(p.qbytes(), 0);
        assert_eq!(p.dropped_packets(), 2);
        assert_eq!(p.dropped_bytes(), 1500);
        // A down wire refuses everything, control frames included.
        let ack = ack_pkt(&mut pool, 60);
        assert!(p.enqueue(ack, &mut pool, &mut rng).is_err());
        assert_eq!(p.dropped_packets(), 3);
        p.bring_up();
        assert!(p.link_up);
        let h3 = data_pkt(&mut pool, 100);
        assert!(p.enqueue(h3, &mut pool, &mut rng).is_ok());
    }
}
