//! Message routing between logical ranks.
//!
//! The sequential router is the workhorse: it delivers every rank's sends
//! deterministically (receives sorted by source) and validates the traffic.
//! The threaded router runs each rank on its own OS thread with crossbeam
//! channels — on a 1-core box it buys no speed, but it proves the message
//! protocol has no schedule dependence: tests assert both routers produce
//! identical results.

use crossbeam::channel;

/// One message: payload of doubles from a source rank, carried in a
/// checksum envelope so in-flight corruption is detectable (the chaos
/// router's verify-retry path depends on this; the plain routers simply
/// carry it along).
#[derive(Debug, Clone, PartialEq)]
pub struct RankMessage {
    /// Sender.
    pub src: u32,
    /// Payload.
    pub data: Vec<f64>,
    /// FNV-1a over the sender id and the payload bits, computed at
    /// construction (see [`RankMessage::new`]).
    pub checksum: u64,
}

impl RankMessage {
    /// Seals `data` from `src` in a checksum envelope.
    pub fn new(src: u32, data: Vec<f64>) -> RankMessage {
        let checksum = sf2d_chaos::checksum(src, 0, &data);
        RankMessage {
            src,
            data,
            checksum,
        }
    }

    /// True when the payload still matches the envelope checksum.
    pub fn verify(&self) -> bool {
        sf2d_chaos::checksum(self.src, 0, &self.data) == self.checksum
    }
}

/// A message in flight, tagged (in debug builds) with its enqueue index
/// within the source rank's send list so delivery order can be audited.
#[derive(Debug)]
struct Tagged {
    msg: RankMessage,
    #[cfg(debug_assertions)]
    seq: u32,
}

/// Shared inbox finalization for both routers: sorts by source rank
/// (stably, preserving arrival order within a source) and, in debug
/// builds, asserts the delivery order is deterministic — `(src, seq)`
/// strictly lexicographically increasing, i.e. each source's messages
/// arrive in the order it enqueued them and no message is duplicated.
fn finish_inbox(rank: usize, mut inbox: Vec<Tagged>) -> Vec<RankMessage> {
    inbox.sort_by_key(|t| t.msg.src);
    #[cfg(debug_assertions)]
    for w in inbox.windows(2) {
        let prev = (w[0].msg.src, w[0].seq);
        let next = (w[1].msg.src, w[1].seq);
        assert!(
            prev < next,
            "rank {rank}: nondeterministic delivery order, {prev:?} !< {next:?}"
        );
    }
    let _ = rank;
    inbox.into_iter().map(|t| t.msg).collect()
}

/// The parallel superstep engine, now hosted in the shared `sf2d-par`
/// work module so the partitioner can reuse the same chunked
/// scoped-thread fan-out. Re-exported here for backwards compatibility.
/// [`par_ranks_pool`] is the pool-backed variant: same disjoint-rank
/// contract, but batches run on a persistent [`sf2d_par::Pool`] whose
/// per-worker spans land in the trace when pool tracing is enabled.
pub use sf2d_par::{par_ranks, par_ranks_pool};

/// Routes `sends[rank] = [(dst, payload), ...]` and returns
/// `recvs[rank] = [RankMessage, ...]` sorted by source rank.
///
/// # Panics
/// Panics if any destination is out of range — a mis-built communication
/// plan is a programming error the simulator refuses to mask.
pub fn route_sequential(p: usize, sends: Vec<Vec<(u32, Vec<f64>)>>) -> Vec<Vec<RankMessage>> {
    assert_eq!(sends.len(), p, "one send list per rank required");
    let mut recvs: Vec<Vec<Tagged>> = (0..p).map(|_| Vec::new()).collect();
    for (src, out) in sends.into_iter().enumerate() {
        for (_seq, (dst, data)) in out.into_iter().enumerate() {
            assert!((dst as usize) < p, "rank {src} sent to invalid rank {dst}");
            recvs[dst as usize].push(Tagged {
                msg: RankMessage::new(src as u32, data),
                #[cfg(debug_assertions)]
                seq: _seq as u32,
            });
        }
    }
    recvs
        .into_iter()
        .enumerate()
        .map(|(r, inbox)| finish_inbox(r, inbox))
        .collect()
}

/// Same contract as [`route_sequential`] but each rank runs on its own
/// thread, sending through crossbeam channels.
pub fn route_threaded(p: usize, sends: Vec<Vec<(u32, Vec<f64>)>>) -> Vec<Vec<RankMessage>> {
    assert_eq!(sends.len(), p, "one send list per rank required");
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..p).map(|_| channel::unbounded::<Tagged>()).unzip();

    // Expected inbox sizes, counted up front: inboxes get exact
    // capacities, and a lost message becomes a loud assert instead of a
    // silently short inbox.
    let mut expected = vec![0usize; p];
    for (src, out) in sends.iter().enumerate() {
        for (dst, _) in out {
            assert!((*dst as usize) < p, "rank {src} sent to invalid rank {dst}");
            expected[*dst as usize] += 1;
        }
    }

    crossbeam::scope(|scope| {
        // Sender threads: each rank clones exactly the senders its own
        // messages need (one per message, not the full p-vector — cloning
        // all `txs` per rank would cost O(p²) refcount traffic).
        for (src, out) in sends.into_iter().enumerate() {
            let links: Vec<channel::Sender<Tagged>> = out
                .iter()
                .map(|(dst, _)| txs[*dst as usize].clone())
                .collect();
            scope.spawn(move |_| {
                for (_seq, ((_, data), tx)) in out.into_iter().zip(links).enumerate() {
                    tx.send(Tagged {
                        msg: RankMessage::new(src as u32, data),
                        #[cfg(debug_assertions)]
                        seq: _seq as u32,
                    })
                    .expect("receiver alive");
                }
            });
        }
    })
    .expect("no rank thread panicked");
    // All senders joined; close the channels so draining terminates.
    drop(txs);
    rxs.into_iter()
        .enumerate()
        .map(|(r, rx)| {
            let mut inbox: Vec<Tagged> = Vec::with_capacity(expected[r]);
            inbox.extend(rx);
            assert_eq!(inbox.len(), expected[r], "rank {r} inbox count mismatch");
            finish_inbox(r, inbox)
        })
        .collect()
}

/// Total payload items in flight in a send set — used to cross-check plan
/// volume bookkeeping against actual traffic, and (via the generic
/// payload) shared with `sf2d-spmv`'s plan/diagnosis accounting.
pub fn traffic_volume<T>(sends: &[Vec<(u32, Vec<T>)>]) -> usize {
    sends
        .iter()
        .flat_map(|s| s.iter().map(|(_, d)| d.len()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_sends() -> Vec<Vec<(u32, Vec<f64>)>> {
        vec![
            vec![(1, vec![1.0, 2.0]), (2, vec![3.0])],
            vec![(0, vec![4.0])],
            vec![(0, vec![5.0]), (1, vec![6.0])],
        ]
    }

    #[test]
    fn sequential_routing_delivers_sorted() {
        let recvs = route_sequential(3, demo_sends());
        assert_eq!(recvs[0].len(), 2);
        assert_eq!(recvs[0][0], RankMessage::new(1, vec![4.0]));
        assert_eq!(recvs[0][1], RankMessage::new(2, vec![5.0]));
        assert_eq!(recvs[1].len(), 2);
        assert_eq!(recvs[2], vec![RankMessage::new(0, vec![3.0])]);
    }

    #[test]
    fn threaded_matches_sequential() {
        let a = route_sequential(3, demo_sends());
        let b = route_threaded(3, demo_sends());
        assert_eq!(a, b);
    }

    #[test]
    fn threaded_matches_sequential_on_larger_traffic() {
        // 16 ranks, pseudo-random all-to-some traffic.
        let p = 16usize;
        let sends: Vec<Vec<(u32, Vec<f64>)>> = (0..p)
            .map(|src| {
                (0..p)
                    .filter(|&dst| (src * 7 + dst * 3) % 4 == 0 && dst != src)
                    .map(|dst| (dst as u32, vec![src as f64, dst as f64, 42.0]))
                    .collect()
            })
            .collect();
        assert_eq!(route_sequential(p, sends.clone()), route_threaded(p, sends));
    }

    #[test]
    fn traffic_volume_counts_doubles() {
        assert_eq!(traffic_volume(&demo_sends()), 6);
    }

    #[test]
    fn empty_traffic_is_fine() {
        let recvs = route_sequential(2, vec![vec![], vec![]]);
        assert!(recvs.iter().all(|r| r.is_empty()));
        let recvs = route_threaded(2, vec![vec![], vec![]]);
        assert!(recvs.iter().all(|r| r.is_empty()));
    }

    #[test]
    #[should_panic(expected = "invalid rank")]
    fn invalid_destination_detected() {
        route_sequential(2, vec![vec![(5, vec![1.0])], vec![]]);
    }

    #[test]
    #[should_panic(expected = "invalid rank")]
    fn threaded_invalid_destination_detected() {
        route_threaded(2, vec![vec![(5, vec![1.0])], vec![]]);
    }

    #[test]
    fn par_ranks_is_bit_identical_to_sequential() {
        // Per-rank floating-point work whose result would expose any
        // reordering: the exact value depends on summation order.
        let work = |r: usize, acc: &mut f64| {
            *acc = 0.0;
            for k in 1..200 {
                *acc += ((r * k) as f64).sin() / k as f64;
            }
        };
        let mut seq = vec![0.0f64; 23];
        par_ranks(1, &mut seq, work);
        for threads in [2, 3, 8, 64] {
            let mut par = vec![0.0f64; 23];
            par_ranks(threads, &mut par, work);
            let seq_bits: Vec<u64> = seq.iter().map(|v| v.to_bits()).collect();
            let par_bits: Vec<u64> = par.iter().map(|v| v.to_bits()).collect();
            assert_eq!(seq_bits, par_bits, "threads {threads}");
        }
    }

    #[test]
    fn par_ranks_passes_correct_indices() {
        let mut items = vec![0usize; 17];
        par_ranks(4, &mut items, |r, slot| *slot = r * r);
        for (r, &v) in items.iter().enumerate() {
            assert_eq!(v, r * r);
        }
    }

    #[test]
    fn par_ranks_handles_edge_shapes() {
        let mut empty: Vec<u8> = Vec::new();
        par_ranks(4, &mut empty, |_, _| unreachable!());
        let mut one = vec![0u8];
        par_ranks(16, &mut one, |_, v| *v = 7);
        assert_eq!(one, vec![7]);
        // More threads than items.
        let mut few = vec![0u8; 3];
        par_ranks(100, &mut few, |r, v| *v = r as u8 + 1);
        assert_eq!(few, vec![1, 2, 3]);
    }

    #[test]
    fn checksum_envelope_seals_and_detects_tampering() {
        let mut m = RankMessage::new(3, vec![1.0, -2.5, 0.0]);
        assert!(m.verify());
        // Any single-bit payload change breaks the envelope.
        m.data[1] = f64::from_bits(m.data[1].to_bits() ^ 1);
        assert!(!m.verify());
        m.data[1] = -2.5;
        assert!(m.verify());
        // The sender id is part of the envelope too.
        m.src = 4;
        assert!(!m.verify());
    }

    #[test]
    fn per_source_enqueue_order_survives_both_routers() {
        // Rank 0 sends rank 1 three messages; the receiver must see them
        // in enqueue order (the debug-build (src, seq) audit in
        // finish_inbox enforces this, and the payloads prove it).
        let sends = vec![
            vec![
                (1, vec![1.0]),
                (0, vec![99.0]),
                (1, vec![2.0]),
                (1, vec![3.0]),
            ],
            vec![(1, vec![4.0])],
        ];
        for recvs in [
            route_sequential(2, sends.clone()),
            route_threaded(2, sends.clone()),
        ] {
            let from0: Vec<f64> = recvs[1]
                .iter()
                .filter(|m| m.src == 0)
                .map(|m| m.data[0])
                .collect();
            assert_eq!(from0, vec![1.0, 2.0, 3.0]);
            assert_eq!(recvs[1].last().unwrap().src, 1);
        }
    }

    #[test]
    fn self_sends_allowed() {
        let recvs = route_sequential(1, vec![vec![(0, vec![9.0])]]);
        assert_eq!(recvs[0], vec![RankMessage::new(0, vec![9.0])]);
    }
}
