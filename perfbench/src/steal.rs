//! CPU time the host steals while an operation is timed.
//!
//! On a virtual machine the host may give this guest's CPUs to other
//! guests for a while; the kernel counts that time as "steal" in
//! `/proc/stat`. An operation timed while much was stolen measures the
//! host, not the program. Every timed sample therefore carries the
//! share stolen while it ran, and the statistics keep the clean samples
//! when there are enough of them, else the least stolen (see [`kept`]).
//!
//! The counter moves in ticks of 10 ms, as long as many samples, so a
//! sample is judged by the steal over the last [`WINDOW_S`] up to its
//! end, or over itself when it is longer.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A sample is clean when the host stole at most this share of the
/// CPU time of the CPUs it may run on, over its window.
pub const MAX_SHARE: f64 = 0.02;

/// Shortest span over which steal is judged, in seconds.
pub const WINDOW_S: f64 = 1.0;

/// Wall time of one operation and the share of CPU time stolen.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall seconds.
    pub wall_s: f64,
    /// Share of the CPU time of the CPUs the operation may run on that
    /// was stolen over its window; clean up to [`MAX_SHARE`].
    pub stolen: f64,
}

impl Sample {
    /// Whether at most [`MAX_SHARE`] was stolen.
    pub fn clean(&self) -> bool {
        self.stolen <= MAX_SHARE
    }
}

/// Times one operation.
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts timing now.
    pub fn start() -> Timer {
        record();
        Timer {
            start: Instant::now(),
        }
    }

    /// The wall time since [`Timer::start`], and the share stolen.
    pub fn stop(&self) -> Sample {
        let wall_s = self.start.elapsed().as_secs_f64();
        let stolen = match record() {
            Some((span_s, ticks)) if span_s > 0.0 => {
                let cpus = crate::pin::allowed_cpus().len().max(1) as f64;
                ticks as f64 / user_hz() / (span_s * cpus)
            }
            _ => 0.0,
        };
        Sample { wall_s, stolen }
    }
}

/// Readings of the steal counter, oldest first: the newest one at
/// least [`WINDOW_S`] old and every later one.
static READINGS: Mutex<VecDeque<(Instant, u64)>> = Mutex::new(VecDeque::new());

/// Reads the steal counter of the CPUs the calling thread may run on;
/// returns the span in seconds since the newest earlier reading at
/// least [`WINDOW_S`] old (else the oldest), and the ticks stolen over
/// it. `None` without `/proc/stat` or an earlier reading. A run that
/// changes its CPUs (see `pin`) starts its timers after the change.
fn record() -> Option<(f64, u64)> {
    let ticks = steal_ticks(&crate::pin::allowed_cpus())?;
    let mut readings = READINGS.lock().unwrap_or_else(|e| e.into_inner());
    push(&mut readings, Instant::now(), ticks)
}

/// [`record`] on given readings.
fn push(readings: &mut VecDeque<(Instant, u64)>, now: Instant, ticks: u64) -> Option<(f64, u64)> {
    let old = |r: &(Instant, u64)| (now - r.0).as_secs_f64() >= WINDOW_S;
    while readings.len() > 1 && old(&readings[1]) {
        readings.pop_front();
    }
    let base = readings.front().copied();
    readings.push_back((now, ticks));
    base.map(|(t, b)| ((now - t).as_secs_f64(), ticks.saturating_sub(b)))
}

/// The values of the clean samples when there are at least `min` of
/// them, else of the `min` least stolen (all when there are fewer); in
/// their original order. Each sample is a value and its stolen share.
pub fn kept<T: Clone>(samples: &[(T, f64)], min: usize) -> Vec<T> {
    let mut by_steal: Vec<usize> = (0..samples.len()).collect();
    by_steal.sort_by(|&a, &b| samples[a].1.total_cmp(&samples[b].1));
    let take = clean_count(samples).max(min.min(samples.len()));
    let mut keep = vec![false; samples.len()];
    for &i in &by_steal[..take] {
        keep[i] = true;
    }
    samples
        .iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(s, _)| s.0.clone())
        .collect()
}

/// Clean samples among `samples` (value and stolen share).
pub fn clean_count<T>(samples: &[(T, f64)]) -> usize {
    samples.iter().filter(|s| s.1 <= MAX_SHARE).count()
}

/// Steal, in host ticks, summed over `cpus`; `None` where
/// `/proc/stat` is missing.
fn steal_ticks(cpus: &[usize]) -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    Some(steal_of(&stat, cpus))
}

/// Steal of `cpus` in a `/proc/stat` text.
fn steal_of(stat: &str, cpus: &[usize]) -> u64 {
    stat.lines()
        .filter_map(|l| {
            // "cpuN user nice system idle iowait irq softirq steal ..."
            let mut f = l.split_whitespace();
            let cpu: usize = f.next()?.strip_prefix("cpu")?.parse().ok()?;
            cpus.contains(&cpu).then(|| f.nth(7)?.parse::<u64>().ok())?
        })
        .sum()
}

/// `/proc/stat` ticks per second.
fn user_hz() -> f64 {
    static HZ: OnceLock<f64> = OnceLock::new();
    *HZ.get_or_init(sys_user_hz)
}

#[cfg(target_os = "linux")]
fn sys_user_hz() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    /// `_SC_CLK_TCK` on Linux.
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` only reads its argument.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

#[cfg(not(target_os = "linux"))]
fn sys_user_hz() -> f64 {
    100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_judged_over_the_window() {
        let t0 = Instant::now();
        let at = |s: f64| t0 + std::time::Duration::from_secs_f64(s);
        let mut r = VecDeque::new();
        let mut push_at = |s: f64, ticks: u64| {
            push(&mut r, at(s), ticks).map(|(span, t)| ((span * 10.0).round() / 10.0, t))
        };
        assert_eq!(push_at(0.0, 0), None);
        // Younger than the window: judged since the oldest reading.
        assert_eq!(push_at(0.5, 2), Some((0.5, 2)));
        assert_eq!(push_at(1.2, 5), Some((1.2, 5)));
        // The newest reading at least a window old is the base.
        assert_eq!(push_at(1.6, 6), Some((1.1, 4)));
        // A long sample is judged over itself.
        assert_eq!(push_at(5.0, 9), Some((3.4, 3)));
    }

    #[test]
    fn steal_is_summed_over_the_given_cpus() {
        let stat = "cpu  9 0 9 9 0 0 0 30 0 0\n\
                    cpu0 1 0 1 1 0 0 0 10 0 0\n\
                    cpu1 1 0 1 1 0 0 0 20 0 0\n\
                    intr 5 0\n";
        assert_eq!(steal_of(stat, &[0, 1]), 30);
        assert_eq!(steal_of(stat, &[1]), 20);
        assert_eq!(steal_of(stat, &[]), 0);
    }

    #[test]
    fn kept_falls_back_to_the_least_stolen() {
        let s = [(1.0, 0.0), (5.0, 0.2), (2.0, 0.01), (4.0, 0.05)];
        assert_eq!(clean_count(&s), 2);
        // Enough clean samples: only those.
        assert_eq!(kept(&s, 2), vec![1.0, 2.0]);
        // Too few: the least stolen, in their original order.
        assert_eq!(kept(&s, 3), vec![1.0, 2.0, 4.0]);
        assert_eq!(kept(&s, 9), vec![1.0, 5.0, 2.0, 4.0]);
        assert_eq!(kept(&[(5.0, 0.5)], 0), Vec::<f64>::new());
        assert_eq!(kept(&[(5.0, 0.5)], 1), vec![5.0]);
    }

    #[test]
    fn a_timer_measures_wall_time() {
        let t = Timer::start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(t.stop().wall_s >= 0.005);
    }
}
