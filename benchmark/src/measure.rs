//! Turning timed steps into numbers that repeat on a shared host.
//!
//! The sandbox is a 2-core VM with neighbours: for seconds at a time
//! everything runs 10–40 % slower, and the slowdown only ever adds time.
//! A median over a whole run therefore measures the neighbours as much as
//! the code. So a run is cut into **windows** — three segments, each a
//! fresh set-up, each split into up to three stretches of consecutive
//! steps — every window is summarised by its own median (or throughput),
//! and the **quietest window** is reported: the lowest median, the
//! highest throughput. It is still a median over real consecutive ops;
//! it is the one least disturbed. A window is made of whole cycles of
//! the workload's repeating work (six bursts on the serve workloads, one
//! op elsewhere), so every window holds the same mix; where an op takes
//! a second (`cold-cell`) a window is a single op.

use crate::stats::median;
use crate::workloads::{Floor, StepOut};

/// Windows a segment's steps are split into, at most.
const WINDOWS_PER_SEGMENT: usize = 3;

/// One timed step, as the summaries need it.
#[derive(Clone, Copy)]
pub struct StepRecord {
    /// Latency of each of the step's ops, ms.
    pub ms: f64,
    /// The same per floor unit of the step's arithmetic.
    pub ms_per_unit: f64,
    pub ops: u32,
    /// All the step's timed wall (latency plus mutation), s.
    pub wall_s: f64,
    /// Whether spans were being recorded.
    pub traced: bool,
}

impl StepRecord {
    pub fn new(out: &StepOut, traced: bool) -> StepRecord {
        let ms = out.latency.as_secs_f64() * 1e3;
        StepRecord {
            ms,
            ms_per_unit: ms / out.floor_units,
            ops: out.ops,
            wall_s: (out.latency + out.extra).as_secs_f64(),
            traced,
        }
    }
}

/// One set-up and the steps measured on it.
pub struct Segment {
    pub setup_s: f64,
    pub steps: Vec<StepRecord>,
    pub failed: u64,
    /// The serial floor read before and after the steps.
    pub floors: [Floor; 2],
}

impl Segment {
    pub fn ops(&self) -> u64 {
        self.steps.iter().map(|s| u64::from(s.ops)).sum()
    }

    pub fn timed_wall_s(&self) -> f64 {
        self.steps.iter().map(|s| s.wall_s).sum()
    }
}

/// Consecutive stretches of `steps`, each a whole number of `cycle`s:
/// up to `WINDOWS_PER_SEGMENT` of them, sizes differing by at most one
/// cycle. Steps past the last whole cycle belong to no window; fewer
/// steps than one cycle make a single window.
fn windows(steps: &[StepRecord], cycle: usize) -> Vec<Vec<StepRecord>> {
    let cycles = steps.len() / cycle;
    if cycles == 0 {
        return if steps.is_empty() {
            vec![]
        } else {
            vec![steps.to_vec()]
        };
    }
    let count = cycles.min(WINDOWS_PER_SEGMENT);
    (0..count)
        .map(|k| steps[k * cycles / count * cycle..(k + 1) * cycles / count * cycle].to_vec())
        .collect()
}

/// The median over a window's ops of `value(step)`, each step counted
/// once per op it completed.
fn op_median(window: &[StepRecord], value: impl Fn(&StepRecord) -> f64) -> f64 {
    let samples: Vec<f64> = window
        .iter()
        .flat_map(|s| std::iter::repeat_n(value(s), s.ops as usize))
        .collect();
    median(&samples)
}

/// The steps of every segment that were (or were not) traced, windowed
/// segment by segment.
fn all_windows(segments: &[Segment], cycle: usize, traced: bool) -> Vec<Vec<StepRecord>> {
    segments
        .iter()
        .flat_map(|seg| {
            let picked: Vec<StepRecord> = seg
                .steps
                .iter()
                .copied()
                .filter(|s| s.traced == traced)
                .collect();
            windows(&picked, cycle)
        })
        .collect()
}

fn lowest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

fn highest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::NEG_INFINITY, f64::max)
}

/// The wall-clock summaries of a run's segments.
pub struct Summary {
    /// The quietest (shortest) of the set-ups, s.
    pub setup_s: f64,
    /// Median op latency in the quietest untraced window, ms.
    pub op_p50_ms: f64,
    /// Throughput of the quietest untraced window, ops/s.
    pub ops_per_s: f64,
    /// Quietest-window median of op wall ÷ serial-floor wall, with the
    /// floor's quietest reading.
    pub over_floor: f64,
    /// The same quietest-window latency per floor unit, traced ÷
    /// untraced: what recording spans costs (0 in an untraced run).
    pub trace_overhead: f64,
    /// The quietest reading of the floor.
    pub floor: Floor,
    /// Every untraced op latency of the run, ms, in order.
    pub untraced_ms: Vec<f64>,
    /// Windows the untraced steps were split into.
    pub windows: usize,
}

/// Summarises `segments` of a workload whose work repeats every `cycle`
/// steps.
pub fn summarize(segments: &[Segment], cycle: usize) -> Summary {
    let untraced = all_windows(segments, cycle, false);
    let traced = all_windows(segments, cycle, true);
    let quiet_per_unit =
        |ws: &[Vec<StepRecord>]| lowest(ws.iter().map(|w| op_median(w, |s| s.ms_per_unit)));
    let floor = Floor {
        unit_s: lowest(segments.iter().flat_map(|s| &s.floors).map(|f| f.unit_s)),
        csr_ns_per_nnz: lowest(
            segments
                .iter()
                .flat_map(|s| &s.floors)
                .map(|f| f.csr_ns_per_nnz),
        ),
    };
    Summary {
        setup_s: lowest(segments.iter().map(|s| s.setup_s)),
        op_p50_ms: lowest(untraced.iter().map(|w| op_median(w, |s| s.ms))),
        ops_per_s: highest(untraced.iter().map(|w| {
            let ops: f64 = w.iter().map(|s| f64::from(s.ops)).sum();
            ops / w.iter().map(|s| s.wall_s).sum::<f64>()
        })),
        over_floor: quiet_per_unit(&untraced) / (floor.unit_s * 1e3),
        trace_overhead: if traced.is_empty() {
            0.0
        } else {
            quiet_per_unit(&traced) / quiet_per_unit(&untraced)
        },
        floor,
        untraced_ms: segments
            .iter()
            .flat_map(|seg| &seg.steps)
            .filter(|s| !s.traced)
            .flat_map(|s| std::iter::repeat_n(s.ms, s.ops as usize))
            .collect(),
        windows: untraced.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(ms: f64, ops: u32) -> StepRecord {
        StepRecord {
            ms,
            ms_per_unit: ms / 2.0,
            ops,
            wall_s: ms / 1e3,
            traced: false,
        }
    }

    fn segment(setup_s: f64, ms: &[f64], floor_s: f64) -> Segment {
        let floor = |unit_s| Floor {
            unit_s,
            csr_ns_per_nnz: unit_s * 1e3,
        };
        Segment {
            setup_s,
            steps: ms.iter().map(|&m| step(m, 1)).collect(),
            failed: 0,
            floors: [floor(floor_s * 1.5), floor(floor_s)],
        }
    }

    #[test]
    fn windows_are_consecutive_whole_cycles() {
        for cycle in [1, 4, 6] {
            for n in 1..60 {
                let steps: Vec<StepRecord> = (0..n).map(|i| step(i as f64, 1)).collect();
                let ws = windows(&steps, cycle);
                assert!(!ws.is_empty() && ws.len() <= WINDOWS_PER_SEGMENT);
                let joined: Vec<f64> = ws.iter().flat_map(|w| w.iter().map(|s| s.ms)).collect();
                let covered = if n < cycle { n } else { n / cycle * cycle };
                assert_eq!(joined, (0..covered).map(|i| i as f64).collect::<Vec<_>>());
                if n >= cycle {
                    assert!(ws.iter().all(|w| !w.is_empty() && w.len() % cycle == 0));
                    let sizes: Vec<usize> = ws.iter().map(|w| w.len() / cycle).collect();
                    assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
                }
            }
        }
        assert_eq!(windows(&[step(1.0, 1); 2], 1).len(), 2);
        assert_eq!(windows(&[step(1.0, 1); 1000], 1).len(), 3);
        assert_eq!(windows(&[step(1.0, 1); 17], 6).len(), 2);
        assert!(windows(&[], 6).is_empty());
    }

    #[test]
    fn the_quietest_window_is_reported() {
        // Segment 0 is disturbed throughout, segment 1 only in its last
        // third: its first window (10, 10, 11) is the quietest. Cycles of
        // three steps.
        let segs = [
            segment(3.0, &[14.0, 15.0, 14.0, 16.0, 15.0, 14.0], 0.004),
            segment(
                1.0,
                &[10.0, 10.0, 11.0, 10.0, 12.0, 11.0, 20.0, 21.0, 19.0],
                0.002,
            ),
            segment(2.0, &[13.0, 12.0, 13.0], 0.003),
        ];
        let s = summarize(&segs, 3);
        assert_eq!(s.setup_s, 1.0);
        assert_eq!(s.op_p50_ms, 10.0);
        assert!((s.ops_per_s - 3.0 / 0.031).abs() < 1e-9);
        assert_eq!(s.floor.unit_s, 0.002);
        // 5 ms per floor unit over a 2 ms floor.
        assert!((s.over_floor - 2.5).abs() < 1e-12);
        assert_eq!(s.trace_overhead, 0.0);
        assert_eq!(s.untraced_ms.len(), 18);
        assert_eq!(s.windows, 2 + 3 + 1);
    }

    #[test]
    fn a_step_counts_once_per_op_and_traced_steps_stay_apart() {
        let mut steps = vec![step(30.0, 1), step(10.0, 16), step(20.0, 3)];
        assert_eq!(op_median(&steps, |s| s.ms), 10.0);
        steps.extend([step(12.0, 16), step(12.0, 16), step(12.0, 16)]);
        for s in &mut steps[3..] {
            s.traced = true;
        }
        let seg = Segment {
            setup_s: 1.0,
            steps,
            failed: 0,
            floors: [
                Floor {
                    unit_s: 0.001,
                    csr_ns_per_nnz: 1.0,
                },
                Floor {
                    unit_s: 0.001,
                    csr_ns_per_nnz: 1.0,
                },
            ],
        };
        let s = summarize(&[seg], 3);
        assert_eq!(s.op_p50_ms, 10.0);
        assert!((s.trace_overhead - 1.2).abs() < 1e-12);
        assert_eq!(s.untraced_ms.len(), 20);
    }
}
