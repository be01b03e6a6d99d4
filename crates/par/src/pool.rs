//! A persistent worker pool for the deterministic chunked loops.
//!
//! The scoped-thread helpers in the crate root spawn OS threads on every
//! call, which is fine for a handful of long loops but ruinous for a
//! multilevel partitioner that runs *hundreds* of small chunked loops (one
//! per phase per level per bisection). [`Pool`] spawns its workers once and
//! reuses them for every subsequent batch, turning the per-loop cost from
//! a thread spawn (~tens of microseconds) into a condvar wake.
//!
//! **Determinism is unchanged:** a batch is `njobs` indexed jobs; workers
//! claim indices from a shared counter, but each job writes only state
//! derived from its own index (the same contract as [`crate::par_ranks`]),
//! so the claim order cannot affect the result — only the wall clock.
//!
//! Claims are tagged with a per-batch epoch packed into the claim word
//! itself, so a worker that copied a batch's job and then slept through the
//! batch's retirement detects the mismatch on its first claim attempt and
//! backs off — it can never execute, or count completions against, a batch
//! it was not woken for (see [`run_batch`]). The epoch travels in 32 bits;
//! a stale worker would need to sleep across exactly 2^32 batches to alias,
//! which back-to-back batch rates make a multi-year stall.
//!
//! The submitting thread participates in its own batch (a pool built for
//! `threads` has `threads - 1` workers), and [`Pool::run`] blocks until
//! the batch completes, so borrowed closures work like scoped threads: the
//! borrow outlives every job. Concurrent submitters are allowed and simply
//! serialize batch-by-batch — the recursive-bisection fork runs its two
//! subtrees on sibling threads that share one pool.
//!
//! **Observability:** the pool counts what it does. Every slot (slot 0 is
//! the submitting thread, slots 1.. the persistent workers) accumulates
//! busy/park nanoseconds, jobs claimed, batches participated in, and
//! epoch-mismatch backoffs; per-chunk service times feed a lock-free log2
//! histogram. [`Pool::stats`] snapshots all of it as a serializable
//! [`PoolStats`]. When per-worker tracing is enabled
//! ([`Pool::enable_tracing`]), each slot additionally emits one
//! [`sf2d_obs::TraceEvent::WorkerSpan`] per batch it ran jobs in, tagged
//! with the batch's [`BatchTag`] — drained at quiescence with
//! [`Pool::drain_trace_events`]. None of this changes results: metrics
//! are counters on the side, and batches run identically with tracing on
//! or off (property-tested in the identity suites).

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use sf2d_obs::{Histogram, PhaseKind, SharedTracer, TraceEvent};

/// A label + phase kind naming the chunked loop a batch belongs to, so
/// per-worker trace spans and phase reporters can attribute pool time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchTag {
    /// Short loop label, e.g. `match` or `refine`.
    pub label: &'static str,
    /// Phase kind the span is filed under.
    pub kind: PhaseKind,
}

impl Default for BatchTag {
    fn default() -> BatchTag {
        BatchTag {
            label: "batch",
            kind: PhaseKind::Other,
        }
    }
}

/// Type-erased view of a borrowed `Fn(usize) + Sync` batch closure.
///
/// The raw pointer is only dereferenced while [`Pool::run`] is blocked on
/// the batch, so the borrow is live for every call.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
    njobs: usize,
    /// Epoch of the batch this job belongs to; claims are tagged with it so
    /// a stale worker can never touch a later batch (see [`run_batch`]).
    epoch: u64,
    /// What loop this batch is: names the per-worker trace spans.
    tag: BatchTag,
}

// SAFETY: the pointer refers to a `Sync` closure that `Pool::run` keeps
// borrowed until the batch is done (it blocks); sending the pointer to
// workers is exactly the scoped-thread pattern, persistent edition.
unsafe impl Send for Job {}

#[derive(Default)]
struct PoolState {
    /// Current batch, if one is in flight.
    job: Option<Job>,
    /// Bumped per batch so workers can tell "new batch" from spurious wakes.
    epoch: u64,
    /// Jobs of the current batch finished so far.
    done: usize,
    /// A job in the current batch panicked (the submitter re-panics).
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new batch (or shutdown).
    work_cv: Condvar,
    /// Submitters wait here for batch completion (or a free slot).
    done_cv: Condvar,
    /// Packed claim counter: high 32 bits are the batch epoch (mod 2^32),
    /// low 32 bits the next job index to claim. Re-tagged per batch while
    /// the state lock is held; claimed by CAS while running. Packing the
    /// epoch into the same word a claim mutates is what lets a worker that
    /// copied an old `Job` detect — atomically with the claim attempt —
    /// that its batch is over, instead of consuming indices (and calling
    /// the dropped closure) of whatever batch replaced it.
    claim: AtomicU64,
    /// Per-slot counters: slot 0 is the submitting thread, slots 1.. the
    /// persistent workers (matching their `sf2d-pool-{i}` names).
    metrics: Vec<SlotMetrics>,
    /// Lock-free log2 histogram of per-chunk service times (nanoseconds).
    service: AtomicHist,
    /// Batches submitted over the pool's lifetime (including inline ones).
    batches: AtomicU64,
    /// Per-worker trace shards; disabled (one relaxed load per batch and
    /// per job-claim loop) unless [`Pool::enable_tracing`] was called.
    tracer: Arc<SharedTracer>,
    /// When the pool was built — the denominator for utilization.
    created: Instant,
}

/// One slot's lifetime counters (all monotonic, relaxed atomics — they
/// are statistics, never synchronization).
#[derive(Default)]
struct SlotMetrics {
    busy_ns: AtomicU64,
    park_ns: AtomicU64,
    jobs: AtomicU64,
    batches: AtomicU64,
    backoffs: AtomicU64,
}

/// A log2 histogram with atomic buckets, so every slot can record service
/// times without locking; snapshots rebuild an [`sf2d_obs::Histogram`]
/// for the quantile accessors.
struct AtomicHist {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHist {
    fn new() -> AtomicHist {
        AtomicHist {
            buckets: (0..65).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Histogram {
        Histogram::from_raw(
            self.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// One slot's counters in a [`PoolStats`] snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkerStats {
    /// Nanoseconds spent running jobs.
    pub busy_ns: u64,
    /// Nanoseconds spent parked waiting for a batch (completed parks only;
    /// always 0 for slot 0, which never parks).
    pub park_ns: u64,
    /// Pool lifetime not accounted busy or parked — claim-loop spinning,
    /// an in-progress park, scheduling delay. 0 for slot 0, whose
    /// between-batch time belongs to the caller.
    pub idle_ns: u64,
    /// Jobs (chunks) this slot claimed and ran.
    pub jobs: u64,
    /// Batches this slot ran at least one job of.
    pub batches: u64,
    /// Epoch-mismatch CAS backoffs — how often this slot woke with a
    /// retired batch's job and bailed without touching the live batch
    /// (the PR 6 race-fix path actually firing).
    pub epoch_backoffs: u64,
}

/// A snapshot of everything the pool has counted; see [`Pool::stats`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PoolStats {
    /// Threads a batch can run on (workers + submitter).
    pub threads: usize,
    /// Batches submitted (including inline single-job ones).
    pub batches: u64,
    /// Jobs run across all slots.
    pub total_jobs: u64,
    /// Epoch-mismatch backoffs summed over slots.
    pub epoch_backoffs: u64,
    /// Jobs the submitting thread ran itself.
    pub submitter_jobs: u64,
    /// Fraction of all jobs the submitter ran (0 when no jobs yet).
    pub submitter_share: f64,
    /// Busy time summed over slots, divided by `threads ×` pool lifetime.
    pub utilization: f64,
    /// Chunk service times recorded.
    pub service_ns_count: u64,
    /// Mean chunk service time (ns).
    pub service_ns_mean: f64,
    /// Median chunk service time (ns, log2-bucket interpolated).
    pub service_ns_p50: f64,
    /// p99 chunk service time (ns, log2-bucket interpolated).
    pub service_ns_p99: f64,
    /// Per-slot counters; index 0 is the submitting thread.
    pub workers: Vec<WorkerStats>,
}

/// Bits of [`PoolShared::claim`] holding the batch epoch.
const EPOCH_MASK: u64 = 0xFFFF_FFFF_0000_0000;
/// Bits of [`PoolShared::claim`] holding the next unclaimed job index.
const INDEX_MASK: u64 = 0x0000_0000_FFFF_FFFF;

/// Packs a batch epoch and a starting index into a claim word.
fn pack_claim(epoch: u64, index: usize) -> u64 {
    debug_assert!(index as u64 <= INDEX_MASK);
    ((epoch as u32 as u64) << 32) | index as u64
}

/// A persistent worker pool; see the module docs.
pub struct Pool {
    shared: std::sync::Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool that can run batches on up to `threads` threads: the
    /// submitter plus `threads - 1` persistent workers. `threads <= 1`
    /// spawns no workers (every batch runs inline on the submitter).
    pub fn new(threads: usize) -> Pool {
        let slots = threads.max(1);
        let shared = std::sync::Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            claim: AtomicU64::new(0),
            metrics: (0..slots).map(|_| SlotMetrics::default()).collect(),
            service: AtomicHist::new(),
            batches: AtomicU64::new(0),
            tracer: SharedTracer::new(slots),
            created: Instant::now(),
        });
        let workers = (1..slots)
            .map(|i| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sf2d-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("sf2d-par: spawn pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Number of threads a batch can run on (workers + submitter).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(0), f(1), …, f(njobs - 1)` across the pool and returns when
    /// every call has finished. The submitter participates. Panics in any
    /// job are caught on the worker and re-raised here after the batch
    /// drains, so no job runs against half-poisoned state unobserved.
    pub fn run<F>(&self, njobs: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run_tagged(njobs, BatchTag::default(), f)
    }

    /// [`Pool::run`] with a [`BatchTag`] naming the loop, so the batch's
    /// per-worker trace spans carry the phase that submitted it.
    pub fn run_tagged<F>(&self, njobs: usize, tag: BatchTag, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if njobs == 0 {
            return;
        }
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        if njobs == 1 || self.workers.is_empty() {
            let tracing = self.shared.tracer.is_enabled();
            let span_start = if tracing {
                self.shared.tracer.wall_now()
            } else {
                0.0
            };
            let mut busy = 0u64;
            for i in 0..njobs {
                let t0 = Instant::now();
                f(i);
                let dt = t0.elapsed().as_nanos() as u64;
                busy += dt;
                self.shared.service.observe(dt);
            }
            let m = &self.shared.metrics[0];
            m.busy_ns.fetch_add(busy, Ordering::Relaxed);
            m.jobs.fetch_add(njobs as u64, Ordering::Relaxed);
            m.batches.fetch_add(1, Ordering::Relaxed);
            if tracing {
                let end = self.shared.tracer.wall_now();
                self.shared.tracer.handle(0).record_span(
                    tag.kind,
                    tag.label,
                    span_start,
                    end - span_start,
                    njobs as u64,
                );
            }
            return;
        }
        assert!(
            njobs as u64 <= INDEX_MASK,
            "sf2d-par: pool batch of {njobs} jobs exceeds the claim-counter index width"
        );
        unsafe fn call_erased<F: Fn(usize) + Sync>(data: *const (), i: usize) {
            let f = unsafe { &*(data as *const F) };
            f(i);
        }
        let job;
        {
            let mut st = self.shared.state.lock().expect("sf2d-par: pool poisoned");
            // Concurrent submitters serialize: wait for the slot.
            while st.job.is_some() {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .expect("sf2d-par: pool poisoned");
            }
            st.epoch += 1;
            job = Job {
                data: &f as *const F as *const (),
                call: call_erased::<F>,
                njobs,
                epoch: st.epoch,
                tag,
            };
            // Re-tag the claim counter with the new epoch before the batch
            // is visible; workers copy `job` under this lock, so they can
            // never see a claim word older than their job's epoch.
            self.shared
                .claim
                .store(pack_claim(st.epoch, 0), Ordering::Relaxed);
            st.job = Some(job);
            st.done = 0;
            st.panicked = false;
            self.shared.work_cv.notify_all();
        }
        // Participate, then wait for stragglers.
        let panicked = run_batch(&self.shared, job, 0);
        let mut st = self.shared.state.lock().expect("sf2d-par: pool poisoned");
        while st.done < njobs {
            st = self
                .shared
                .done_cv
                .wait(st)
                .expect("sf2d-par: pool poisoned");
        }
        let batch_panicked = st.panicked || panicked;
        st.job = None;
        // Wake any submitter queued on the slot.
        self.shared.done_cv.notify_all();
        drop(st);
        if batch_panicked {
            panic!("sf2d-par: pool job panicked");
        }
    }

    /// Snapshots the pool's counters. Safe to call at any time; the
    /// numbers are internally consistent per slot but only quiescent-exact
    /// (call between batches for figures that add up).
    pub fn stats(&self) -> PoolStats {
        let elapsed_ns = self.shared.created.elapsed().as_nanos() as u64;
        let workers: Vec<WorkerStats> = self
            .shared
            .metrics
            .iter()
            .enumerate()
            .map(|(slot, m)| {
                let busy_ns = m.busy_ns.load(Ordering::Relaxed);
                let park_ns = m.park_ns.load(Ordering::Relaxed);
                let idle_ns = if slot == 0 {
                    0
                } else {
                    elapsed_ns.saturating_sub(busy_ns + park_ns)
                };
                WorkerStats {
                    busy_ns,
                    park_ns,
                    idle_ns,
                    jobs: m.jobs.load(Ordering::Relaxed),
                    batches: m.batches.load(Ordering::Relaxed),
                    epoch_backoffs: m.backoffs.load(Ordering::Relaxed),
                }
            })
            .collect();
        let total_jobs: u64 = workers.iter().map(|w| w.jobs).sum();
        let submitter_jobs = workers[0].jobs;
        let busy_total: u64 = workers.iter().map(|w| w.busy_ns).sum();
        let service = self.shared.service.snapshot();
        PoolStats {
            threads: self.threads(),
            batches: self.shared.batches.load(Ordering::Relaxed),
            total_jobs,
            epoch_backoffs: workers.iter().map(|w| w.epoch_backoffs).sum(),
            submitter_jobs,
            submitter_share: if total_jobs > 0 {
                submitter_jobs as f64 / total_jobs as f64
            } else {
                0.0
            },
            utilization: busy_total as f64 / (self.threads() as f64 * elapsed_ns.max(1) as f64),
            service_ns_count: service.count,
            service_ns_mean: service.mean(),
            service_ns_p50: service.p50().unwrap_or(0.0),
            service_ns_p99: service.p99().unwrap_or(0.0),
            workers,
        }
    }

    /// Turns on per-worker trace emission. `base_secs` aligns the worker
    /// clock with the caller's (pass `sf2d_obs::wall_now()` so spans land
    /// on the orchestrator's timeline).
    pub fn enable_tracing(&self, base_secs: f64) {
        self.shared.tracer.enable(base_secs);
    }

    /// Turns per-worker trace emission back off.
    pub fn disable_tracing(&self) {
        self.shared.tracer.disable();
    }

    /// Drains the buffered per-worker spans (worker order). Call between
    /// batches — the submit path guarantees quiescence once every
    /// [`Pool::run`] has returned.
    pub fn drain_trace_events(&self) -> Vec<TraceEvent> {
        self.shared.tracer.drain()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("sf2d-par: pool poisoned");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Claims and runs jobs of `job` until the index counter is exhausted or
/// the counter's epoch no longer matches the job's (the batch was retired
/// while this worker slept between copying the job and claiming — without
/// the epoch check a stale worker would claim the *next* batch's indices,
/// call the old, now-dangling closure, and inflate the new batch's
/// completion count so some of its jobs never run). Claims use CAS rather
/// than `fetch_add` so a mismatched attempt leaves the counter untouched:
/// a stale `fetch_add` would still burn an index the live batch then never
/// executes. Returns whether any job panicked; completion counts are
/// published under the state lock either way so nobody deadlocks on a lost
/// count.
fn run_batch(shared: &PoolShared, job: Job, slot: usize) -> bool {
    let tag = pack_claim(job.epoch, 0) & EPOCH_MASK;
    let m = &shared.metrics[slot];
    let tracing = shared.tracer.is_enabled();
    let mut span_start = 0.0f64;
    let mut busy = 0u64;
    let mut ran = 0usize;
    let mut panicked = false;
    'batch: loop {
        let mut cur = shared.claim.load(Ordering::Relaxed);
        let i = loop {
            if cur & EPOCH_MASK != tag {
                // The race-fix path firing: this slot woke with a retired
                // batch's job and the claim word already belongs to a
                // newer batch. Count it — PoolStats::epoch_backoffs.
                m.backoffs.fetch_add(1, Ordering::Relaxed);
                break 'batch;
            }
            let idx = (cur & INDEX_MASK) as usize;
            if idx >= job.njobs {
                break 'batch;
            }
            match shared.claim.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break idx,
                Err(now) => cur = now,
            }
        };
        if ran == 0 && tracing {
            span_start = shared.tracer.wall_now();
        }
        let t0 = Instant::now();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, i) }));
        let dt = t0.elapsed().as_nanos() as u64;
        busy += dt;
        shared.service.observe(dt);
        panicked |= r.is_err();
        ran += 1;
    }
    if ran > 0 {
        m.busy_ns.fetch_add(busy, Ordering::Relaxed);
        m.jobs.fetch_add(ran as u64, Ordering::Relaxed);
        m.batches.fetch_add(1, Ordering::Relaxed);
        if tracing {
            let end = shared.tracer.wall_now();
            shared.tracer.handle(slot as u32).record_span(
                job.tag.kind,
                job.tag.label,
                span_start,
                end - span_start,
                ran as u64,
            );
        }
    }
    if ran > 0 {
        let mut st = shared.state.lock().expect("sf2d-par: pool poisoned");
        // A worker with unpublished completions keeps `done < njobs`, so
        // the submitter cannot retire the batch and the epoch cannot move:
        // ran > 0 implies the batch is still ours. Assert it anyway — a
        // mis-credited count would silently release a submitter early.
        debug_assert_eq!(
            st.epoch, job.epoch,
            "sf2d-par: pool worker publishing completions for a retired batch"
        );
        st.done += ran;
        st.panicked |= panicked;
        if st.done >= job.njobs {
            shared.done_cv.notify_all();
        }
    }
    panicked
}

fn worker_loop(shared: &PoolShared, slot: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let parked = Instant::now();
        let job = {
            let mut st = shared.state.lock().expect("sf2d-par: pool poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(job) = st.job {
                        seen_epoch = st.epoch;
                        break job;
                    }
                }
                st = shared.work_cv.wait(st).expect("sf2d-par: pool poisoned");
            }
        };
        shared.metrics[slot]
            .park_ns
            .fetch_add(parked.elapsed().as_nanos() as u64, Ordering::Relaxed);
        run_batch(shared, job, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_job_exactly_once() {
        let pool = Pool::new(4);
        for njobs in [0usize, 1, 2, 3, 17, 256] {
            let hits: Vec<AtomicU64> = (0..njobs).map(|_| AtomicU64::new(0)).collect();
            pool.run(njobs, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "njobs {njobs}"
            );
        }
    }

    #[test]
    fn reuses_workers_across_many_batches() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..500 {
            pool.run(8, |i| {
                total.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 500 * 36);
    }

    #[test]
    fn borrowed_output_written_disjointly() {
        let pool = Pool::new(4);
        let mut out = vec![0u64; 1000];
        let shared = crate::SharedSlice::new(&mut out);
        pool.run(10, |chunk| {
            for i in (chunk * 100)..((chunk + 1) * 100) {
                // SAFETY: chunks are disjoint index ranges.
                unsafe { shared.write(i, (i * i) as u64) };
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut out = vec![0u32; 5];
        let shared = crate::SharedSlice::new(&mut out);
        pool.run(5, |i| unsafe { shared.write(i, i as u32 + 1) });
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn concurrent_submitters_serialize() {
        let pool = Pool::new(2);
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..100 {
                    pool.run(4, |_| {
                        a.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            for _ in 0..100 {
                pool.run(4, |_| {
                    b.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(a.load(Ordering::Relaxed), 400);
        assert_eq!(b.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn rapid_batch_turnover_never_leaks_jobs_across_batches() {
        // Regression stress for the stale-worker race: hundreds of tiny
        // back-to-back batches with *different* sizes and closures maximize
        // the window where a worker still holds a retired batch's job. Each
        // batch writes batch-unique values into its own buffer; a stale
        // worker running an old closure against a new batch's indices, or
        // a mis-credited completion letting a batch return early, shows up
        // as a wrong or missing value.
        let pool = Pool::new(4);
        let pool = &pool;
        std::thread::scope(|s| {
            for salt in 0..2u64 {
                s.spawn(move || {
                    for round in 0..300u64 {
                        let njobs = 2 + (round % 7) as usize;
                        let out: Vec<AtomicU64> = (0..njobs).map(|_| AtomicU64::new(0)).collect();
                        pool.run(njobs, |i| {
                            out[i].fetch_add(
                                round * 1000 + salt * 100 + i as u64 + 1,
                                Ordering::Relaxed,
                            );
                        });
                        for (i, v) in out.iter().enumerate() {
                            assert_eq!(
                                v.load(Ordering::Relaxed),
                                round * 1000 + salt * 100 + i as u64 + 1,
                                "submitter {salt} round {round} job {i}"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn stale_job_backs_off_without_running_and_is_counted() {
        // Deterministic reconstruction of the PR 6 race: a worker holds a
        // copied Job of epoch 1, but the claim word was already re-tagged
        // for epoch 2. run_batch must bail on the first claim attempt
        // (never calling the closure) and count exactly one backoff.
        let shared = PoolShared {
            state: Mutex::new(PoolState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            claim: AtomicU64::new(pack_claim(2, 0)),
            metrics: vec![SlotMetrics::default()],
            service: AtomicHist::new(),
            batches: AtomicU64::new(0),
            tracer: SharedTracer::new(1),
            created: Instant::now(),
        };
        let hit = AtomicU64::new(0);
        unsafe fn bump(data: *const (), _i: usize) {
            let hit = unsafe { &*(data as *const AtomicU64) };
            hit.fetch_add(1, Ordering::Relaxed);
        }
        let job = Job {
            data: &hit as *const AtomicU64 as *const (),
            call: bump,
            njobs: 4,
            epoch: 1,
            tag: BatchTag::default(),
        };
        let panicked = run_batch(&shared, job, 0);
        assert!(!panicked);
        assert_eq!(hit.load(Ordering::Relaxed), 0, "stale job must not run");
        assert_eq!(shared.metrics[0].backoffs.load(Ordering::Relaxed), 1);
        assert_eq!(shared.metrics[0].jobs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn single_batch_counts_no_backoffs() {
        let pool = Pool::new(4);
        let n = AtomicU64::new(0);
        pool.run(8, |_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        let stats = pool.stats();
        assert_eq!(stats.epoch_backoffs, 0, "one epoch, nothing to mismatch");
        assert_eq!(stats.total_jobs, 8);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn rapid_turnover_stress_stays_correct_and_counts_backoffs() {
        // Tiny back-to-back batches from two submitters give sleeping
        // workers every chance to wake holding a retired batch's job. The
        // hard assertion is correctness under that churn: every batch
        // completes exactly its own jobs. Whether the epoch-mismatch
        // backoff actually *fires* is up to the scheduler — on a loaded
        // single-core host a worker may never wake mid-retirement — so
        // that observation is reported, not required; the counter's
        // plumbing itself is pinned deterministically by
        // `stale_job_backs_off_without_running_and_is_counted` above.
        for attempt in 0..10 {
            let pool = Pool::new(4);
            let pool_ref = &pool;
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(move || {
                        for _ in 0..200u64 {
                            let n = AtomicU64::new(0);
                            pool_ref.run(2, |_| {
                                n.fetch_add(1, Ordering::Relaxed);
                            });
                            assert_eq!(n.load(Ordering::Relaxed), 2);
                        }
                    });
                }
            });
            if pool.stats().epoch_backoffs > 0 {
                eprintln!("attempt {attempt}: backoff path exercised");
                return;
            }
        }
        eprintln!(
            "backoff never fired in 10 stress attempts (scheduler-dependent; \
             correctness assertions all held)"
        );
    }

    #[test]
    fn stats_account_jobs_and_service_times() {
        let pool = Pool::new(3);
        for _ in 0..10 {
            pool.run(6, |_| {
                std::hint::black_box(0u64);
            });
        }
        let stats = pool.stats();
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.batches, 10);
        assert_eq!(stats.total_jobs, 60);
        assert_eq!(stats.service_ns_count, 60);
        assert_eq!(stats.workers.len(), 3);
        assert_eq!(
            stats.workers.iter().map(|w| w.jobs).sum::<u64>(),
            stats.total_jobs
        );
        assert_eq!(stats.submitter_jobs, stats.workers[0].jobs);
        assert!(stats.submitter_share >= 0.0 && stats.submitter_share <= 1.0);
        assert!(stats.utilization > 0.0 && stats.utilization <= 1.0);
        assert!(stats.service_ns_p50 <= stats.service_ns_p99);
        assert_eq!(
            stats.workers[0].idle_ns, 0,
            "submitter idle is the caller's"
        );
        // Snapshots serialize (the bench reports embed them).
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"epoch_backoffs\""));
    }

    #[test]
    fn tracing_emits_tagged_worker_spans() {
        let pool = Pool::new(4);
        // Untraced batch first: nothing buffered.
        pool.run(8, |_| {});
        assert!(pool.drain_trace_events().is_empty());
        pool.enable_tracing(0.0);
        let tag = BatchTag {
            label: "match",
            kind: PhaseKind::Partition,
        };
        pool.run_tagged(64, tag, |_| {
            std::hint::black_box(0u64);
        });
        pool.disable_tracing();
        let events = pool.drain_trace_events();
        assert!(!events.is_empty());
        let mut jobs_seen = 0u64;
        for e in &events {
            match e {
                TraceEvent::WorkerSpan {
                    worker,
                    kind,
                    label,
                    t_start,
                    dur,
                    jobs,
                } => {
                    assert!((*worker as usize) < pool.threads());
                    assert_eq!(*kind, PhaseKind::Partition);
                    assert_eq!(label, "match");
                    assert!(*t_start >= 0.0 && *dur >= 0.0);
                    jobs_seen += jobs;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(jobs_seen, 64, "every job attributed to exactly one span");
    }

    #[test]
    fn inline_pool_traces_through_slot_zero() {
        let pool = Pool::new(1);
        pool.enable_tracing(0.0);
        pool.run_tagged(
            3,
            BatchTag {
                label: "project",
                kind: PhaseKind::Partition,
            },
            |_| {},
        );
        let events = pool.drain_trace_events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            TraceEvent::WorkerSpan { worker, jobs, .. } => {
                assert_eq!(*worker, 0);
                assert_eq!(*jobs, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = pool.stats();
        assert_eq!(stats.submitter_jobs, 3);
        assert_eq!(stats.submitter_share, 1.0);
    }

    #[test]
    fn job_panic_propagates_to_submitter() {
        let pool = Pool::new(3);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        // The pool survives and keeps working after a panicked batch.
        let n = AtomicU64::new(0);
        pool.run(4, |_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 4);
    }
}
