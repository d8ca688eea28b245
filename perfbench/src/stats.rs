//! Percentiles, the repeat loops (for a time budget or a fixed
//! count), and process
//! readings from `/proc` (CPU time and peak resident memory).

use std::time::Duration;

/// The benchmark's wall clock, started at construction. Every real-time
/// reading in the benchmark goes through here: measuring wall time is
/// this harness's job, so the determinism lint's wallclock rule is
/// waived at this one type.
#[derive(Debug, Clone, Copy)]
// odp-check: allow(wallclock)
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    pub fn start() -> Self {
        // odp-check: allow(wallclock)
        Stopwatch(std::time::Instant::now())
    }

    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (sorted in place); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Latency percentiles kept per pass and reported as their median over
/// passes, so one disturbed pass cannot move them and memory does not
/// grow with the number of passes.
#[derive(Default)]
pub struct PassPercentiles {
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl PassPercentiles {
    /// Adds one pass's samples (sorted in place).
    pub fn add(&mut self, samples: &mut [f64]) {
        self.p50.push(percentile(samples, 50.0));
        self.p99.push(percentile(samples, 99.0));
    }

    /// `(p50, p99)`, each the median over passes.
    pub fn medians(mut self) -> (f64, f64) {
        (median(&mut self.p50), median(&mut self.p99))
    }
}

/// Runs `iteration` repeatedly, at least once, and stops before the
/// next one would be expected to end past `budget`. Returns the number
/// of iterations run.
pub fn repeat_within(budget: Duration, mut iteration: impl FnMut()) -> u32 {
    let start = Stopwatch::start();
    let mut done = 0u32;
    loop {
        iteration();
        done += 1;
        let elapsed = start.elapsed();
        if elapsed + elapsed / done > budget {
            return done;
        }
    }
}

/// Runs `iteration` `passes` times, at least once. Returns the number
/// of iterations run.
pub fn repeat(passes: u32, mut iteration: impl FnMut()) -> u32 {
    let passes = passes.max(1);
    for _ in 0..passes {
        iteration();
    }
    passes
}

/// Process CPU time (user + system, every thread) in seconds, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / TICKS_PER_SEC
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
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
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn pass_percentiles_take_the_median_pass() {
        let mut p = PassPercentiles::default();
        for scale in [1.0, 100.0, 2.0] {
            let mut v: Vec<f64> = (1..=100).map(|x| f64::from(x) * scale).collect();
            p.add(&mut v);
        }
        assert_eq!(p.medians(), (100.0, 198.0));
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
