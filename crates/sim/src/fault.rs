//! Chaos-aware message routing: the **verify-retry-timeout** path.
//!
//! [`route_chaos`] has the same delivery contract as
//! [`route_sequential`](crate::route_sequential) — `recvs[rank]` sorted
//! by source, per-source enqueue order preserved — but runs every
//! message through the fault plan of a [`ChaosRuntime`]:
//!
//! 1. the sender seals each payload in a checksum envelope and
//!    transmits; the plan may drop it, duplicate it, flip a payload bit,
//!    or delay it (see `sf2d_chaos::FaultKind`);
//! 2. the receiver discards copies whose checksum fails, dedups by
//!    `(src, seq)`, and at the superstep barrier NACKs anything missing;
//! 3. the sender retransmits with a fresh `attempt` coordinate, up to
//!    [`sf2d_chaos::MAX_ATTEMPTS`] — after that the superstep panics
//!    (timeout), which at the capped fault rate never happens in
//!    practice.
//!
//! Every failed attempt is billed: the function returns a per-rank
//! [`PhaseCost`] of the **extra** traffic (wasted sends, NACKs,
//! duplicate copies, latency spikes, stall quanta), which callers charge
//! to the ledger under [`Phase::Retransmit`](crate::Phase) via
//! [`bill_retransmit`]. At rate 0 the extra costs are identically zero
//! and the delivered inboxes are byte-identical to the plain routers —
//! property-tested in the workspace suite.
//!
//! Fault *decisions* are pure functions of message coordinates (no RNG
//! state), so [`route_chaos`] and [`route_chaos_threaded`] — which
//! delivers the faulted wire traffic through crossbeam channels in
//! arbitrary arrival order — produce identical inboxes, identical extra
//! costs, and identical fault statistics.
//!
//! Kernels do not call the routers. Their transport is a zero-copy read
//! of the sender's resident buffer, so under chaos they hand each
//! exchange to [`ChaosRuntime::mirror_exchange`], which owns the clone
//! onto the wire, the delivery checks and the `Retransmit` billing.

use std::collections::BTreeSet;

use crossbeam::channel;
use sf2d_chaos::{
    self as chaos, ChaosConfig, FaultKind, FaultPlan, FaultScript, FaultStats, MsgCoord,
    MAX_ATTEMPTS,
};

use crate::cost::{CostLedger, Phase, PhaseCost};
use crate::runtime::RankMessage;

/// Extra α terms billed to the receiver for one latency spike — the
/// spike holds the rank for the equivalent of four message latencies.
pub const DELAY_PENALTY_MSGS: u64 = 4;

/// Flops a stalled rank burns at the superstep boundary (an OS jitter /
/// straggler quantum, following the paper's Hopper-noise footnotes).
pub const STALL_PENALTY_FLOPS: u64 = 100_000;

/// One rank's resident payloads in an exchange, each slice tagged with
/// its peer rank: the destination on the send side, the source on the
/// receive side. What [`ChaosRuntime::mirror_exchange`] takes per rank.
pub type PeerPayloads<'a> = Vec<(u32, &'a [f64])>;

/// Mutable chaos state threaded through a run: the immutable fault
/// plan, the superstep counter that gives every routing round distinct
/// fault coordinates, consumed crash epochs, and fault statistics.
#[derive(Debug, Clone)]
pub struct ChaosRuntime {
    /// The fault plan (pure decisions).
    pub plan: FaultPlan,
    /// Transport used by [`ChaosRuntime::route`]: `<= 1` routes
    /// sequentially, `> 1` through the threaded transport. Results are
    /// bit-identical either way; this only exercises different code.
    pub threads: usize,
    /// Injected-fault counters, updated by every routing call.
    pub stats: FaultStats,
    step: u64,
    consumed_crashes: BTreeSet<u64>,
}

impl ChaosRuntime {
    /// Wraps a fault plan with fresh counters.
    pub fn new(plan: FaultPlan) -> ChaosRuntime {
        ChaosRuntime {
            plan,
            threads: 1,
            stats: FaultStats::default(),
            step: 0,
            consumed_crashes: BTreeSet::new(),
        }
    }

    /// Seeded plan at `rate`.
    ///
    /// # Panics
    /// Panics if `rate` is outside `[0, MAX_RATE]` — see
    /// [`sf2d_chaos::ChaosConfig::new`].
    pub fn seeded(seed: u64, rate: f64) -> ChaosRuntime {
        let cfg = ChaosConfig::new(seed, rate).expect("valid chaos rate");
        ChaosRuntime::new(FaultPlan::seeded(cfg))
    }

    /// Explicitly scripted plan.
    pub fn scripted(script: FaultScript) -> ChaosRuntime {
        ChaosRuntime::new(FaultPlan::scripted(script))
    }

    /// Builds a runtime from `SF2D_CHAOS_SEED` / `SF2D_CHAOS_RATE`
    /// (`None` = chaos off).
    ///
    /// # Panics
    /// Panics with a clear message if either variable is set to garbage
    /// — a typo silently disabling fault injection would invalidate the
    /// run.
    pub fn from_env() -> Option<ChaosRuntime> {
        match ChaosConfig::from_env() {
            Ok(cfg) => cfg.map(|c| ChaosRuntime::new(FaultPlan::seeded(c))),
            Err(e) => panic!("{e}"),
        }
    }

    /// Sets the transport knob (builder-style). See the `threads` field.
    pub fn with_threads(mut self, threads: usize) -> ChaosRuntime {
        self.threads = threads;
        self
    }

    /// The next routing round's superstep number (peek, no advance).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Consumes the crash decision for `epoch`: true at most **once**
    /// per epoch, so deterministic re-execution after a checkpoint
    /// restore cannot re-trip the crash that triggered it.
    pub fn take_crash(&mut self, epoch: u64) -> bool {
        if self.consumed_crashes.contains(&epoch) {
            return false;
        }
        if self.plan.crash(epoch) {
            self.consumed_crashes.insert(epoch);
            self.stats.crashes += 1;
            return true;
        }
        false
    }

    /// Routes one superstep through the configured transport (see the
    /// `threads` field), advancing the superstep counter.
    pub fn route(
        &mut self,
        p: usize,
        sends: Vec<Vec<(u32, Vec<f64>)>>,
    ) -> (Vec<Vec<RankMessage>>, Vec<PhaseCost>) {
        if self.threads > 1 {
            route_chaos_threaded(p, sends, self)
        } else {
            route_chaos(p, sends, self)
        }
    }

    /// Mirrors one exchange onto the fault-injecting wire: the kernels
    /// transport by reading the sender's resident buffer in place, so
    /// under chaos the same payloads are *also* cloned onto the wire,
    /// routed (exactly one [`ChaosRuntime::route`] per call, empty
    /// exchanges included, so step numbering never depends on traffic),
    /// and every healed delivery is checked against what the receiving
    /// rank reads — message count, source order, length and payload bits
    /// — before the extra fault traffic is billed as one `Retransmit`
    /// superstep (none when nothing fired).
    ///
    /// `sends[src]` lists the rank's outgoing `(dst, payload)` in send
    /// order. `views[dst]` lists the `(src, payload)` slices the rank reads,
    /// in delivery order — source-ascending, send order within a source —
    /// so a kernel whose receive side disagrees with its send side trips
    /// here.
    ///
    /// # Panics
    /// Panics, naming `what` and the rank, if a delivery differs from the
    /// resident payload in any of the four ways above.
    pub fn mirror_exchange<'a>(
        &mut self,
        ledger: &mut CostLedger,
        what: &str,
        sends: &[PeerPayloads<'a>],
        views: &[PeerPayloads<'a>],
    ) {
        let p = sends.len();
        let wire = sends
            .iter()
            .map(|out| {
                out.iter()
                    .map(|&(dst, data)| (dst, data.to_vec()))
                    .collect()
            })
            .collect();
        let (delivered, extra) = self.route(p, wire);
        assert_eq!(views.len(), p, "{what}: one receive view list per rank");
        for (r, (inbox, expected)) in delivered.iter().zip(views).enumerate() {
            assert_eq!(
                inbox.len(),
                expected.len(),
                "{what}: wrong message count at rank {r}"
            );
            for (msg, &(src, resident)) in inbox.iter().zip(expected) {
                assert_eq!(msg.src, src, "{what}: source mismatch at rank {r}");
                assert_eq!(
                    msg.data.len(),
                    resident.len(),
                    "{what}: short message at rank {r}"
                );
                let same_bits = msg
                    .data
                    .iter()
                    .zip(resident)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same_bits, "{what}: corrupted delivery at rank {r}");
            }
        }
        bill_retransmit(ledger, &extra);
    }
}

/// One sealed message copy on the (misbehaving) wire.
#[derive(Debug, Clone)]
struct Wire {
    src: u32,
    seq: u32,
    data: Vec<f64>,
    checksum: u64,
}

/// Simulates the sender-side retry loop for one logical message and
/// returns the wire copies that reach the receiver, plus the *extra*
/// cost billed to the sender and receiver for every fault along the way.
///
/// This is a pure function of `(plan, coordinates, payload)` — the
/// fault schedule cannot depend on which thread runs it or when.
///
/// Billing per failed attempt (payload of `b` bytes; `E` = envelope
/// overhead, 8 bytes for the NACK/checksum word):
///
/// * **drop** — sender: wasted send + NACK receive = 2 msgs, `b + 8`
///   bytes; receiver: NACK send = 1 msg, 8 bytes;
/// * **bit-flip** — like a drop, but the receiver also paid to receive
///   the corrupt copy: 2 msgs, `b + 8` bytes on each side;
/// * **duplicate** — one extra copy each way: 1 msg, `b` bytes on each
///   side (delivered, then deduped);
/// * **delay** — receiver stalls [`DELAY_PENALTY_MSGS`] α terms.
fn transmit(
    plan: &FaultPlan,
    step: u64,
    src: u32,
    dst: u32,
    seq: u32,
    data: Vec<f64>,
) -> (Vec<Wire>, PhaseCost, PhaseCost, FaultStats) {
    let payload = 8 * data.len() as u64;
    let seal = chaos::checksum(src, seq, &data);
    let mut delivered: Vec<Wire> = Vec::with_capacity(1);
    let mut src_extra = PhaseCost::default();
    let mut dst_extra = PhaseCost::default();
    let mut stats = FaultStats::default();
    let seed = match plan {
        FaultPlan::Seeded { cfg } => cfg.seed,
        FaultPlan::Scripted { .. } => 0,
    };
    for attempt in 0..MAX_ATTEMPTS {
        let coord = MsgCoord {
            step,
            src,
            dst,
            seq,
            attempt,
        };
        match plan.message_fault(&coord) {
            None => {
                delivered.push(Wire {
                    src,
                    seq,
                    data,
                    checksum: seal,
                });
                return (delivered, src_extra, dst_extra, stats);
            }
            Some(FaultKind::Drop) => {
                // Lost on the wire; the receiver NACKs at the barrier.
                src_extra = src_extra.add(&PhaseCost::comm(2, payload + 8));
                dst_extra = dst_extra.add(&PhaseCost::comm(1, 8));
                stats.drops += 1;
                stats.retransmit_msgs += 2;
                stats.retransmit_bytes += payload + 8;
            }
            Some(FaultKind::BitFlip) => {
                // The corrupt copy arrives, fails checksum verification,
                // and is discarded + NACKed.
                let mut corrupted = data.clone();
                chaos::corrupt(&mut corrupted, seed, &coord);
                delivered.push(Wire {
                    src,
                    seq,
                    data: corrupted,
                    checksum: seal,
                });
                src_extra = src_extra.add(&PhaseCost::comm(2, payload + 8));
                dst_extra = dst_extra.add(&PhaseCost::comm(2, payload + 8));
                stats.bit_flips += 1;
                stats.retransmit_msgs += 2;
                stats.retransmit_bytes += payload + 8;
            }
            Some(FaultKind::Duplicate) => {
                // Both copies arrive valid; the receiver dedups.
                delivered.push(Wire {
                    src,
                    seq,
                    data: data.clone(),
                    checksum: seal,
                });
                delivered.push(Wire {
                    src,
                    seq,
                    data,
                    checksum: seal,
                });
                src_extra = src_extra.add(&PhaseCost::comm(1, payload));
                dst_extra = dst_extra.add(&PhaseCost::comm(1, payload));
                stats.duplicates += 1;
                stats.retransmit_msgs += 1;
                stats.retransmit_bytes += payload;
                return (delivered, src_extra, dst_extra, stats);
            }
            Some(FaultKind::Delay) => {
                // Arrives intact, late: the receiver eats a latency spike.
                delivered.push(Wire {
                    src,
                    seq,
                    data,
                    checksum: seal,
                });
                dst_extra = dst_extra.add(&PhaseCost::comm(DELAY_PENALTY_MSGS, 0));
                stats.delays += 1;
                return (delivered, src_extra, dst_extra, stats);
            }
        }
    }
    panic!(
        "chaos timeout: message (step {step}, {src} -> {dst}, seq {seq}) \
         faulted on all {MAX_ATTEMPTS} attempts — the fault plan exceeds \
         the retry budget"
    );
}

/// Receiver-side verification: discard corrupt copies, dedup by
/// `(src, seq)`, sort into the deterministic delivery order, and check
/// completeness against the expected `(src, seq)` set.
fn collect_inbox(
    rank: usize,
    mut wires: Vec<Wire>,
    expected: &BTreeSet<(u32, u32)>,
) -> Vec<RankMessage> {
    // Checksum verification drops in-flight corruption.
    wires.retain(|w| chaos::checksum(w.src, w.seq, &w.data) == w.checksum);
    // Deterministic delivery order + dedup of duplicate copies.
    wires.sort_by_key(|w| (w.src, w.seq));
    wires.dedup_by_key(|w| (w.src, w.seq));
    let got: BTreeSet<(u32, u32)> = wires.iter().map(|w| (w.src, w.seq)).collect();
    assert!(
        got == *expected,
        "chaos: rank {rank} inbox incomplete after retries: expected {} messages, \
         verified {} — protocol bug or timeout",
        expected.len(),
        got.len()
    );
    wires
        .into_iter()
        .map(|w| RankMessage::new(w.src, w.data))
        .collect()
}

/// The shared sender-side pass: runs every message through [`transmit`],
/// gathers wire copies per destination, bills stalls, and returns
/// `(wires_by_dst, expected_by_dst, extra_costs)`.
#[allow(clippy::type_complexity)]
fn transmit_all(
    p: usize,
    sends: Vec<Vec<(u32, Vec<f64>)>>,
    rt: &mut ChaosRuntime,
) -> (Vec<Vec<Wire>>, Vec<BTreeSet<(u32, u32)>>, Vec<PhaseCost>) {
    assert_eq!(sends.len(), p, "one send list per rank required");
    let step = rt.step;
    rt.step += 1;
    let mut wires_by_dst: Vec<Vec<Wire>> = (0..p).map(|_| Vec::new()).collect();
    let mut expected: Vec<BTreeSet<(u32, u32)>> = (0..p).map(|_| BTreeSet::new()).collect();
    let mut extra = vec![PhaseCost::default(); p];
    for (src, out) in sends.into_iter().enumerate() {
        for (seq, (dst, data)) in out.into_iter().enumerate() {
            assert!((dst as usize) < p, "rank {src} sent to invalid rank {dst}");
            let (wires, src_extra, dst_extra, stats) =
                transmit(&rt.plan, step, src as u32, dst, seq as u32, data);
            expected[dst as usize].insert((src as u32, seq as u32));
            wires_by_dst[dst as usize].extend(wires);
            extra[src] = extra[src].add(&src_extra);
            extra[dst as usize] = extra[dst as usize].add(&dst_extra);
            rt.stats.merge(&stats);
        }
    }
    // Stalls: straggler quanta at the superstep boundary.
    for (r, cost) in extra.iter_mut().enumerate() {
        if rt.plan.stall(step, r as u32) {
            *cost = cost.add(&PhaseCost::compute(STALL_PENALTY_FLOPS));
            rt.stats.stalls += 1;
        }
    }
    (wires_by_dst, expected, extra)
}

/// Chaos-aware counterpart of
/// [`route_sequential`](crate::route_sequential). Returns the delivered
/// inboxes (identical to the plain router's, faults notwithstanding)
/// plus the per-rank **extra** cost of the faults — zero everywhere at
/// rate 0. Bill the extra via [`bill_retransmit`].
pub fn route_chaos(
    p: usize,
    sends: Vec<Vec<(u32, Vec<f64>)>>,
    rt: &mut ChaosRuntime,
) -> (Vec<Vec<RankMessage>>, Vec<PhaseCost>) {
    let (wires_by_dst, expected, extra) = transmit_all(p, sends, rt);
    let recvs = wires_by_dst
        .into_iter()
        .enumerate()
        .map(|(r, wires)| collect_inbox(r, wires, &expected[r]))
        .collect();
    (recvs, extra)
}

/// Same contract as [`route_chaos`], but the faulted wire traffic —
/// including corrupt and duplicate copies — is delivered through
/// crossbeam channels and verified by per-rank receiver threads, in
/// whatever arrival order the scheduler produces. Because fault
/// decisions are pure and the receiver protocol sorts + dedups, the
/// result is bit-identical to [`route_chaos`] for any interleaving.
pub fn route_chaos_threaded(
    p: usize,
    sends: Vec<Vec<(u32, Vec<f64>)>>,
    rt: &mut ChaosRuntime,
) -> (Vec<Vec<RankMessage>>, Vec<PhaseCost>) {
    let (wires_by_dst, expected, extra) = transmit_all(p, sends, rt);
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..p).map(|_| channel::unbounded::<Wire>()).unzip();
    let recvs = crossbeam::scope(|scope| {
        for (dst, wires) in wires_by_dst.into_iter().enumerate() {
            let tx = txs[dst].clone();
            scope.spawn(move |_| {
                for w in wires {
                    tx.send(w).expect("receiver alive");
                }
            });
        }
        drop(txs);
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(r, rx)| {
                let expected = &expected;
                scope.spawn(move |_| {
                    let wires: Vec<Wire> = rx.into_iter().collect();
                    collect_inbox(r, wires, &expected[r])
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("receiver thread"))
            .collect::<Vec<_>>()
    })
    .expect("no chaos thread panicked");
    (recvs, extra)
}

/// Charges one [`Phase::Retransmit`] superstep for the extra cost a
/// chaos routing round reported — but only when some rank actually paid
/// something, so fault-free rounds leave the ledger history untouched
/// and rate-0 chaos runs stay byte-identical to plain runs.
pub fn bill_retransmit(ledger: &mut CostLedger, extra: &[PhaseCost]) -> f64 {
    if extra.iter().any(|c| *c != PhaseCost::default()) {
        ledger.superstep(Phase::Retransmit, extra)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::runtime::{route_sequential, route_threaded};

    fn mesh_sends(p: usize, fan: usize) -> Vec<Vec<(u32, Vec<f64>)>> {
        (0..p)
            .map(|src| {
                (1..=fan)
                    .map(|k| {
                        let dst = ((src + k * 3) % p) as u32;
                        let data: Vec<f64> = (0..(1 + (src + k) % 5))
                            .map(|i| (src * 31 + i) as f64)
                            .collect();
                        (dst, data)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rate_zero_is_byte_identical_to_plain_routers_and_free() {
        for p in [1, 2, 4, 16, 64] {
            let sends = mesh_sends(p, 3.min(p));
            let plain = route_sequential(p, sends.clone());
            let threaded_plain = route_threaded(p, sends.clone());

            let mut rt = ChaosRuntime::seeded(0xABCD, 0.0);
            let (chaos_seq, extra) = route_chaos(p, sends.clone(), &mut rt);
            assert_eq!(chaos_seq, plain, "p={p}");
            assert_eq!(chaos_seq, threaded_plain, "p={p}");
            assert!(extra.iter().all(|c| *c == PhaseCost::default()));
            assert!(!rt.stats.any());

            let mut rt = ChaosRuntime::seeded(0xABCD, 0.0);
            let (chaos_thr, extra) = route_chaos_threaded(p, sends, &mut rt);
            assert_eq!(chaos_thr, plain, "p={p} threaded transport");
            assert!(extra.iter().all(|c| *c == PhaseCost::default()));
        }
    }

    #[test]
    fn faulty_routing_still_delivers_plain_results() {
        // Whatever the faults, the *delivered values* must equal the
        // fault-free run — only the cost differs.
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            for p in [4usize, 16] {
                let sends = mesh_sends(p, 3);
                let plain = route_sequential(p, sends.clone());
                let mut rt = ChaosRuntime::seeded(seed, 0.3);
                let (recvs, _) = route_chaos(p, sends, &mut rt);
                assert_eq!(recvs, plain, "seed {seed} p {p}");
            }
        }
    }

    #[test]
    fn threaded_transport_is_bit_identical_to_sequential_transport() {
        for seed in [7u64, 1234] {
            for p in [4usize, 16, 64] {
                let sends = mesh_sends(p, 4.min(p));
                let mut rt_a = ChaosRuntime::seeded(seed, 0.35);
                let mut rt_b = ChaosRuntime::seeded(seed, 0.35);
                let (ra, ea) = route_chaos(p, sends.clone(), &mut rt_a);
                let (rb, eb) = route_chaos_threaded(p, sends, &mut rt_b);
                assert_eq!(ra, rb, "recvs seed {seed} p {p}");
                assert_eq!(ea, eb, "extra seed {seed} p {p}");
                assert_eq!(rt_a.stats, rt_b.stats, "stats seed {seed} p {p}");
            }
        }
    }

    #[test]
    fn nonzero_rate_actually_bills_retransmissions() {
        let p = 16;
        let mut rt = ChaosRuntime::seeded(3, 0.4);
        let mut total_extra = PhaseCost::default();
        for _ in 0..10 {
            let (_, extra) = route_chaos(p, mesh_sends(p, 4), &mut rt);
            for c in extra {
                total_extra = total_extra.add(&c);
            }
        }
        assert!(rt.stats.message_faults() > 0, "{:?}", rt.stats);
        assert!(total_extra.msgs > 0 && total_extra.bytes > 0);
        assert!(
            rt.stats.drops + rt.stats.bit_flips > 0,
            "retry-path faults expected at rate 0.4: {:?}",
            rt.stats
        );
    }

    #[test]
    fn scripted_drop_is_retried_and_billed_exactly() {
        // Rank 0 -> rank 1, one message, scripted drop on attempt 0.
        let script = FaultScript::default().fault(0, 0, 1, 0, FaultKind::Drop);
        let mut rt = ChaosRuntime::scripted(script);
        let sends = vec![vec![(1u32, vec![5.0, 6.0])], vec![]];
        let plain = route_sequential(2, sends.clone());
        let (recvs, extra) = route_chaos(2, sends, &mut rt);
        assert_eq!(recvs, plain);
        assert_eq!(rt.stats.drops, 1);
        // Drop billing: sender 2 msgs + (16 payload + 8 NACK) bytes,
        // receiver 1 msg + 8 bytes (the NACK).
        assert_eq!(extra[0], PhaseCost::comm(2, 24));
        assert_eq!(extra[1], PhaseCost::comm(1, 8));
    }

    #[test]
    fn scripted_bitflip_and_duplicate_are_healed() {
        let script = FaultScript::default()
            .fault(0, 0, 1, 0, FaultKind::BitFlip)
            .fault(0, 2, 1, 0, FaultKind::Duplicate)
            .fault(0, 3, 1, 0, FaultKind::Delay);
        let mut rt = ChaosRuntime::scripted(script);
        let sends = vec![
            vec![(1u32, vec![1.0, 2.0, 3.0])],
            vec![],
            vec![(1u32, vec![4.0])],
            vec![(1u32, vec![7.0])],
        ];
        let plain = route_sequential(4, sends.clone());
        let (recvs, extra) = route_chaos(4, sends, &mut rt);
        assert_eq!(recvs, plain);
        assert_eq!(rt.stats.bit_flips, 1);
        assert_eq!(rt.stats.duplicates, 1);
        assert_eq!(rt.stats.delays, 1);
        // Receiver: bit-flip (2 msgs, 24+8 bytes) + duplicate (1 msg, 8
        // bytes) + delay (DELAY_PENALTY_MSGS msgs).
        assert_eq!(
            extra[1],
            PhaseCost::comm(2 + 1 + DELAY_PENALTY_MSGS, 32 + 8)
        );
    }

    #[test]
    fn scripted_stall_burns_flops() {
        let script = FaultScript::default().stall(0, 1);
        let mut rt = ChaosRuntime::scripted(script);
        let (_, extra) = route_chaos(2, vec![vec![(1, vec![1.0])], vec![]], &mut rt);
        assert_eq!(extra[1].flops, STALL_PENALTY_FLOPS);
        assert_eq!(rt.stats.stalls, 1);
    }

    #[test]
    fn bill_retransmit_skips_clean_rounds() {
        let mut ledger = CostLedger::new(Machine::cab());
        assert_eq!(
            bill_retransmit(&mut ledger, &[PhaseCost::default(); 4]),
            0.0
        );
        assert_eq!(ledger.steps, 0, "clean round must not touch the ledger");
        let t = bill_retransmit(&mut ledger, &[PhaseCost::comm(2, 24), PhaseCost::default()]);
        assert!(t > 0.0);
        assert_eq!(ledger.by_phase[&Phase::Retransmit], t);
    }

    #[test]
    fn take_crash_consumes_each_epoch_once() {
        let mut rt = ChaosRuntime::scripted(FaultScript::default().crash(3));
        assert!(!rt.take_crash(2));
        assert!(rt.take_crash(3));
        // Deterministic re-execution reaches epoch 3 again: no re-crash.
        assert!(!rt.take_crash(3));
        assert_eq!(rt.stats.crashes, 1);
    }

    #[test]
    fn superstep_counter_gives_each_round_fresh_coordinates() {
        // The same send pattern routed twice must see *different* fault
        // draws (coordinates include the step), while two runtimes with
        // the same seed see the same sequence.
        let p = 8;
        let mut rt1 = ChaosRuntime::seeded(5, 0.3);
        let mut rt2 = ChaosRuntime::seeded(5, 0.3);
        for _ in 0..4 {
            let (a, ea) = route_chaos(p, mesh_sends(p, 3), &mut rt1);
            let (b, eb) = route_chaos(p, mesh_sends(p, 3), &mut rt2);
            assert_eq!(a, b);
            assert_eq!(ea, eb);
        }
        assert_eq!(rt1.step(), 4);
        assert_eq!(rt1.stats, rt2.stats);
    }

    /// Two messages into rank 2 (from 0 and 1), mirrored at rate 0 against
    /// the caller's receive `views` — the negative tests below each break
    /// one thing about them.
    fn mirror_with_views(views: [&[(u32, &[f64])]; 3]) {
        let views = views.map(<[_]>::to_vec);
        let mut rt = ChaosRuntime::seeded(1, 0.0);
        let mut ledger = CostLedger::new(Machine::cab());
        rt.mirror_exchange(&mut ledger, "test", &two_into_rank_2(), &views);
    }

    fn two_into_rank_2() -> Vec<PeerPayloads<'static>> {
        vec![vec![(2, &[1.0, 2.0][..])], vec![(2, &[3.0][..])], vec![]]
    }

    #[test]
    fn mirror_accepts_matching_views_and_heals_faults_at_a_retransmit_charge() {
        let views = [&[][..], &[], &[(0, &[1.0, 2.0][..]), (1, &[3.0][..])]];
        mirror_with_views(views);

        // Same exchange with a scripted drop: healed, one Retransmit
        // superstep, one step.
        let script = FaultScript::default().fault(0, 0, 2, 0, FaultKind::Drop);
        let mut rt = ChaosRuntime::scripted(script);
        let mut ledger = CostLedger::new(Machine::cab());
        let views = views.map(<[_]>::to_vec);
        rt.mirror_exchange(&mut ledger, "test", &two_into_rank_2(), &views);
        assert_eq!(rt.stats.drops, 1);
        assert_eq!(ledger.history.len(), 1);
        assert_eq!(ledger.history[0].0, Phase::Retransmit);
        assert_eq!(rt.step(), 1);
    }

    #[test]
    #[should_panic(expected = "test: corrupted delivery at rank 2")]
    fn mirror_rejects_a_view_differing_in_one_bit() {
        let flipped = f64::from_bits(2.0f64.to_bits() ^ 1);
        mirror_with_views([&[], &[], &[(0, &[1.0, flipped]), (1, &[3.0])]]);
    }

    #[test]
    #[should_panic(expected = "test: short message at rank 2")]
    fn mirror_rejects_a_view_one_element_short() {
        mirror_with_views([&[], &[], &[(0, &[1.0]), (1, &[3.0])]]);
    }

    #[test]
    #[should_panic(expected = "test: source mismatch at rank 2")]
    fn mirror_rejects_views_out_of_source_order() {
        mirror_with_views([&[], &[], &[(1, &[3.0]), (0, &[1.0, 2.0])]]);
    }

    #[test]
    #[should_panic(expected = "test: wrong message count at rank 2")]
    fn mirror_rejects_a_missing_view() {
        mirror_with_views([&[], &[], &[(0, &[1.0, 2.0])]]);
    }

    #[test]
    fn mirroring_an_empty_exchange_costs_nothing_and_takes_one_step() {
        let sends: Vec<PeerPayloads> = vec![Vec::new(); 4];
        let mut rt = ChaosRuntime::seeded(9, 0.0);
        let mut ledger = CostLedger::new(Machine::cab());
        rt.mirror_exchange(&mut ledger, "test", &sends, &sends);
        rt.mirror_exchange(&mut ledger, "test", &sends, &sends);
        assert_eq!(ledger.steps, 0);
        assert!(ledger.history.is_empty());
        assert_eq!(ledger.total.to_bits(), 0.0f64.to_bits());
        assert_eq!(rt.step(), 2, "one routing step per mirrored exchange");
        assert!(!rt.stats.any());
    }

    #[test]
    #[should_panic(expected = "chaos timeout")]
    fn impossible_scripted_plans_time_out() {
        // A drop-jammed message faults on every attempt and can never
        // be delivered; the retry budget must end in a loud timeout,
        // not an infinite loop.
        let plan = FaultPlan::scripted(FaultScript::default().jam(0, 0, 1, 0, FaultKind::Drop));
        let _ = transmit(&plan, 0, 0, 1, 0, vec![1.0]);
    }
}
