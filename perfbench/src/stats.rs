//! Small order statistics and digests shared by every workload.

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0.0 when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values; 0.0 when empty or any value is not
/// positive (a failed task must not read as a quality figure).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = values.len() as f64;
    (values.iter().map(|v| v.ln()).sum::<f64>() / n).exp()
}

/// 64-bit FNV-1a, folded over several byte strings in order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Reads a POSIX clock in seconds; `None` when the clock is gone (the
/// thread of a per-thread clock has exited).
fn clock_s(clock: i32) -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    #[allow(clippy::cast_precision_loss)]
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU time this process has used so far, over all its threads, in
/// seconds. Time the host steals from the vCPUs is not charged to it,
/// which is what makes it steadier than wall time on a shared machine.
#[must_use]
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_s(CLOCK_PROCESS_CPUTIME_ID).unwrap_or(0.0)
}

/// CPU time the calling thread has used so far, in seconds.
#[must_use]
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_s(CLOCK_THREAD_CPUTIME_ID).unwrap_or(0.0)
}

/// The live threads of this process whose names start with one of a set
/// of prefixes (the server names its threads `serve-http-0`, ...), whose
/// CPU time can be read from any thread.
pub struct ThreadSet {
    tids: Vec<i32>,
    clocks: Vec<i32>,
}

impl ThreadSet {
    /// The threads alive now whose `comm` starts with one of `prefixes`.
    #[must_use]
    pub fn named(prefixes: &[&str]) -> ThreadSet {
        let (mut tids, mut clocks) = (Vec::new(), Vec::new());
        for entry in std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten() {
            let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
            let tid = entry.file_name().to_str().and_then(|t| t.parse::<u32>().ok());
            if let Some(tid) = tid.filter(|_| prefixes.iter().any(|p| comm.starts_with(p))) {
                // Linux's per-thread CPU clock of `tid`, as
                // `pthread_getcpuclockid` builds it: the inverted id
                // shifted left by 3, with the per-thread bit (4) and the
                // scheduler clock (2).
                #[allow(clippy::cast_possible_wrap)]
                {
                    clocks.push(((!tid) << 3) as i32 | 6);
                    tids.push(tid as i32);
                }
            }
        }
        ThreadSet { tids, clocks }
    }

    /// Pins the threads to `cpus`; returns what [`ThreadSet::restore`]
    /// needs to undo it.
    #[must_use]
    pub fn pin(&self, cpus: &CpuSet) -> Vec<(i32, CpuSet)> {
        self.tids
            .iter()
            .filter_map(|&tid| {
                let old = CpuSet::of(tid)?;
                cpus.apply(tid).then_some((tid, old))
            })
            .collect()
    }

    /// Gives pinned threads back the affinity they had.
    pub fn restore(saved: &[(i32, CpuSet)]) {
        for (tid, old) in saved {
            old.apply(*tid);
        }
    }

    /// CPU seconds the threads have used so far (an exited one counts 0).
    #[must_use]
    pub fn cpu_s(&self) -> f64 {
        self.clocks.iter().filter_map(|&c| clock_s(c)).sum()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }
}

/// A set of CPUs a thread may run on (Linux `cpu_set_t`).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(tid: i32, size: usize, set: *mut CpuSet) -> i32;
    fn sched_setaffinity(tid: i32, size: usize, set: *const CpuSet) -> i32;
}

impl CpuSet {
    /// The CPUs thread `tid` may run on (0: the calling thread).
    #[must_use]
    pub fn of(tid: i32) -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a valid, writable cpu_set_t of the size passed.
        let rc = unsafe { sched_getaffinity(tid, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Each CPU of the set, alone, in order.
    #[must_use]
    pub fn singles(&self) -> Vec<CpuSet> {
        let mut out = Vec::new();
        for (word, &bits) in self.0.iter().enumerate() {
            for bit in (0..64).filter(|b| bits >> b & 1 == 1) {
                let mut one = CpuSet([0; 16]);
                one.0[word] = 1 << bit;
                out.push(one);
            }
        }
        out
    }

    /// Restricts thread `tid` (0: the calling thread) to the set.
    pub fn apply(&self, tid: i32) -> bool {
        // SAFETY: `self` is a valid cpu_set_t of the size passed.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), self) == 0 }
    }
}

/// A fixed piece of reference work, timed beside the measured work to
/// read how fast the host runs this thread at that moment.
///
/// On a shared host a neighbour's load slows the vCPUs by up to 1.6x, in
/// episodes from milliseconds to minutes, and CPU time (unlike wall time)
/// is charged the slowdown: on a 2-vCPU Xeon VM the same tuning pass took
/// 4.6 CPU seconds in a quiet minute and 6.7 in a busy one. Scaling a
/// stretch of CPU time by [`REFERENCE_S`] over the reference work's time
/// next to it gives the stretch in *reference CPU seconds*, which the
/// slowdown cancels out of.
pub struct Speedometer {
    table: Vec<u32>,
}

/// The reference work's CPU time on a quiet host: the fastest samples on
/// the 2-vCPU Xeon VM the benchmark was written on read 44–48 us. Only a
/// unit: any fixed value makes runs on one host comparable.
pub const REFERENCE_S: f64 = 45e-6;

impl Default for Speedometer {
    fn default() -> Self {
        let mut x = 0x2545_F491_u32;
        let table = (0..TABLE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Speedometer { table }
    }
}

/// Steps of the reference work.
const STEPS: usize = 1 << 14;

/// Entries of the reference work's table: 64 KiB, held in a core's
/// private caches, so the work feels a neighbour's contention for the
/// core and its caches.
const TABLE_LEN: usize = 1 << 14;

impl Speedometer {
    /// Runs the reference work (about `REFERENCE_S`): random loads from
    /// the table mixed with arithmetic. Returns its CPU time by `clock`.
    pub fn sample(&self, clock: fn() -> f64) -> f64 {
        let mask = self.table.len() - 1;
        let t0 = clock();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut acc = 0u32;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            #[allow(clippy::cast_possible_truncation)]
            let i = x as usize & mask;
            acc = acc.wrapping_add(self.table[i]);
        }
        std::hint::black_box(acc);
        clock() - t0
    }

    /// Runs `f` and returns its result with the process CPU time it took,
    /// in reference seconds, scaled by speed samples taken on this thread
    /// before and after it.
    pub fn reference_cpu<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.sample(thread_cpu_s);
        let c0 = process_cpu_s();
        let out = f();
        let cpu_s = process_cpu_s() - c0;
        let after = self.sample(thread_cpu_s);
        (out, cpu_s * REFERENCE_S / (0.5 * (before + after)))
    }
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// size, so [`peak_rss_mb`] reads the peak of what follows. Where the
/// kernel does not allow it the peak stays the whole run's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0.0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
