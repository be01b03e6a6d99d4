//! What an SpGEMM exchange would put on a wire, and what it bills.
//!
//! The kernels move rows by reading them where they live, so the plain
//! path frames nothing: the ledger bills every row at its framed length
//! ([`framed_len`]), computed from the row's length. Under chaos each
//! exchange is framed the way a transport would carry it — `[gid, nnz,
//! cols…, vals…]` per row, the gid only on SUMMA's gid-keyed exchanges —
//! once as the senders seal it and once as each receiver reads it, and
//! [`mirror`] hands both copies to [`ChaosRuntime::mirror_exchange`],
//! which routes the first and checks every healed delivery against the
//! second.

use std::ops::Range;

use sf2d_sim::cost::{CostLedger, PhaseCost};
use sf2d_sim::fault::{ChaosRuntime, PeerPayloads};

use crate::kernel::ExchangeStats;

/// Doubles one row of `nnz` entries takes framed: its length, its columns
/// and its values, plus its gid on a gid-keyed exchange.
#[inline]
pub(crate) fn framed_len(nnz: usize, keyed: bool) -> u64 {
    (usize::from(keyed) + 1 + 2 * nnz) as u64
}

impl ExchangeStats {
    /// No traffic among `p` ranks.
    pub(crate) fn zero(p: usize) -> ExchangeStats {
        ExchangeStats {
            send_msgs: vec![0; p],
            send_doubles: vec![0; p],
            costs: vec![PhaseCost::default(); p],
        }
    }

    /// Bills one message of `doubles` from `src` to `dst`, at both
    /// endpoints.
    pub(crate) fn bill(&mut self, src: usize, dst: usize, doubles: u64) {
        let cost = PhaseCost::comm(1, 8 * doubles);
        self.send_msgs[src] += 1;
        self.send_doubles[src] += doubles;
        self.costs[src] = self.costs[src].add(&cost);
        self.costs[dst] = self.costs[dst].add(&cost);
    }

    /// Adds another exchange's traffic, rank by rank.
    pub(crate) fn add(&mut self, other: &ExchangeStats) {
        for r in 0..self.send_msgs.len() {
            self.send_msgs[r] += other.send_msgs[r];
            self.send_doubles[r] += other.send_doubles[r];
            self.costs[r] = self.costs[r].add(&other.costs[r]);
        }
    }
}

/// Every rank's messages of one exchange, framed into one buffer — built
/// under chaos only.
pub(crate) struct Framed {
    data: Vec<f64>,
    /// Per rank, its messages as `(peer, range of data)`, in order.
    msgs: Vec<Vec<(u32, Range<usize>)>>,
    /// Where the message being framed starts.
    open: usize,
}

impl Framed {
    /// An exchange among `p` ranks with no message yet.
    pub fn new(p: usize) -> Framed {
        Framed {
            data: Vec::new(),
            msgs: vec![Vec::new(); p],
            open: 0,
        }
    }

    /// Frames one row onto the open message.
    pub fn row(&mut self, gid: Option<u32>, (cols, vals): (&[u32], &[f64])) {
        self.data.extend(gid.map(f64::from));
        self.data.push(cols.len() as f64);
        self.data.extend(cols.iter().map(|&c| f64::from(c)));
        self.data.extend_from_slice(vals);
    }

    /// Ends the open message as rank `r`'s to (or from) `peer`. An empty
    /// message is never sent.
    pub fn seal(&mut self, r: usize, peer: u32) {
        let range = self.open..self.data.len();
        if !range.is_empty() {
            self.msgs[r].push((peer, range));
        }
        self.open = self.data.len();
    }

    fn payloads(&self) -> Vec<PeerPayloads<'_>> {
        let msgs = self.msgs.iter();
        msgs.map(|m| {
            m.iter()
                .map(|(peer, at)| (*peer, &self.data[at.clone()]))
                .collect()
        })
        .collect()
    }
}

/// Routes `sends` over the chaos wire and checks every healed delivery
/// against `views`, what each receiver reads.
pub(crate) fn mirror(
    rt: &mut ChaosRuntime,
    ledger: &mut CostLedger,
    what: &str,
    sends: &Framed,
    views: &Framed,
) {
    let views = views.payloads();
    rt.mirror_exchange(ledger, what, &sends.payloads(), &views);
}
