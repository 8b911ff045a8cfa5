//! Order statistics and the rate samplers the end-to-end metrics use.

use crate::heap;
use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in 0..=1) of `values`; 0 for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// CPU time consumed so far by every thread of this process
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time spent runnable but not running, while
/// the host gives the CPU to another process or machine, does not count.
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Times a stretch of work on the wall clock and in process CPU time, and
/// keeps the heap peak over it. Starting a timer starts a new heap peak, so
/// the `heap_peak` of a timer around other timers is not meaningful.
pub struct Timer {
    wall: Instant,
    cpu: Duration,
}

/// What a [`Timer`] measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Took {
    /// Wall-clock time.
    pub wall: Duration,
    /// CPU time of the process over the same interval.
    pub cpu: Duration,
    /// Most heap bytes live at once over the interval.
    pub heap_peak: usize,
}

impl Timer {
    /// Starts timing.
    pub fn start() -> Self {
        heap::reset_peak();
        Timer {
            cpu: cpu_time(),
            wall: Instant::now(),
        }
    }

    /// Time since the timer started.
    pub fn stop(&self) -> Took {
        let wall = self.wall.elapsed();
        Took {
            wall,
            cpu: cpu_time().saturating_sub(self.cpu),
            heap_peak: heap::peak_bytes(),
        }
    }
}

/// What one measured phase observed: every op's latency, the throughput
/// samples, and the op accounting. Latencies and rates are on CPU time
/// (README, "Steadiness"); wall-clock latencies are kept for the `#` line.
#[derive(Debug, Default)]
pub struct Phase {
    /// CPU time of every op, in microseconds.
    pub op_us: Vec<f64>,
    /// Wall-clock latency of every op, in microseconds.
    pub op_wall_us: Vec<f64>,
    /// Throughput samples (ops per CPU second), one per closed block or round.
    pub rates: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// `op_us.len()` when each throughput sample was taken.
    pub sample_ends: Vec<usize>,
    /// Summed CPU time of every op.
    pub busy: Duration,
    /// Most heap bytes live at once during an op, less this phase's own
    /// records.
    pub peak_bytes: usize,
    block_ops: u64,
    block_busy: Duration,
}

/// Busy CPU time that closes one throughput block. Ops are timed one by
/// one and a block's rate is its op count over the summed op time, so
/// checks between ops and live updates never count against throughput.
pub const BLOCK: Duration = Duration::from_secs(1);

impl Phase {
    /// Records one op that took `took`; with `blocks` set, also feeds the
    /// fixed-length block sampler.
    pub fn op(&mut self, took: Took, blocks: bool) {
        self.note_heap(&took);
        self.op_us.push(us(took.cpu));
        self.op_wall_us.push(us(took.wall));
        self.attempted += 1;
        self.busy += took.cpu;
        if blocks {
            self.block_ops += 1;
            self.block_busy += took.cpu;
            if self.block_busy >= BLOCK {
                self.rates
                    .push(self.block_ops as f64 / self.block_busy.as_secs_f64());
                self.sample_ends.push(self.op_us.len());
                self.block_ops = 0;
                self.block_busy = Duration::ZERO;
            }
        }
    }

    /// Takes the heap peak of `took` into `peak_bytes`, less the bytes this
    /// phase's records held meanwhile: they grow with the run's length and
    /// are the benchmark's, not the program's.
    pub fn note_heap(&mut self, took: &Took) {
        let own = 8 * (self.op_us.capacity() + self.op_wall_us.capacity() + self.rates.capacity())
            + std::mem::size_of::<usize>() * self.sample_ends.capacity();
        self.peak_bytes = self.peak_bytes.max(took.heap_peak.saturating_sub(own));
    }

    /// Records a throughput sample taken by the workload itself.
    pub fn rate(&mut self, ops_per_s: f64) {
        self.rates.push(ops_per_s);
        self.sample_ends.push(self.op_us.len());
    }

    /// Median throughput sample: one slow stretch of the host moves at
    /// most the blocks it overlaps, not the median.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.rates)
    }

    /// Ops over their summed CPU time: every op counts, even in a phase too
    /// short to close a block.
    pub fn mean_rate(&self) -> f64 {
        self.op_us.len() as f64 / self.busy.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn blocks_close_on_busy_cpu_time() {
        let mut p = Phase::default();
        let op = Took {
            wall: Duration::from_millis(300),
            cpu: Duration::from_millis(200),
            heap_peak: 0,
        };
        for _ in 0..4 {
            p.op(op, true);
        }
        assert!(
            p.rates.is_empty(),
            "1.2 s of wall time but 0.8 s of CPU time"
        );
        p.op(op, true);
        p.op(op, true);
        assert_eq!(p.rates, vec![5.0]);
        assert_eq!(p.sample_ends, vec![5]);
        assert_eq!(p.attempted, 6);
        assert_eq!(p.op_us, vec![200_000.0; 6]);
        assert_eq!(p.op_wall_us, vec![300_000.0; 6]);
    }

    #[test]
    fn heap_peak_leaves_out_the_phase_records() {
        let mut p = Phase::default();
        let op = |heap_peak| Took {
            heap_peak,
            ..Took::default()
        };
        p.op(op(1000), false);
        assert_eq!(p.peak_bytes, 1000, "no records yet");
        let own = 8 * (p.op_us.capacity() + p.op_wall_us.capacity());
        p.op(op(own + 700), false);
        assert_eq!(p.peak_bytes, 1000);
        p.note_heap(&op(own + 5000));
        assert_eq!(p.peak_bytes, 5000);
        let _serial = heap::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let t = Timer::start();
        let held = vec![1u8; 4 << 20];
        let took = t.stop();
        drop(held);
        assert!(took.heap_peak >= 4 << 20);
    }

    #[test]
    fn cpu_time_counts_work_not_sleep() {
        let _serial = heap::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let t = Timer::start();
        std::thread::sleep(Duration::from_millis(50));
        let slept = t.stop();
        assert!(slept.wall >= Duration::from_millis(50));
        assert!(slept.cpu < Duration::from_millis(25), "{slept:?}");
        let t = Timer::start();
        let mut x = 1u64;
        while t.stop().wall < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        assert!(t.stop().cpu >= Duration::from_millis(25));
    }
}
